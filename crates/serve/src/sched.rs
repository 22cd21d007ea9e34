//! Sharded job scheduler with per-tenant FIFO fairness and bounded-queue
//! backpressure.
//!
//! ## Shape
//!
//! Tenants hash to **shards**; each shard is an independently locked set
//! of per-tenant FIFO queues plus a round-robin order over tenants that
//! currently have work. Worker threads have a home shard (spreading lock
//! traffic) and steal from the other shards when home is dry, so one
//! chatty tenant can't strand idle workers. A worker that finds every
//! shard empty parks itself on a stack of idle workers, and every
//! submission wakes the one on top — whichever shard the job landed on,
//! and the most recently busy worker first, so a trickle of requests keeps
//! running on the thread whose caches are warm.
//!
//! ## Fairness
//!
//! Within a shard, dispatch round-robins across tenants: a tenant that
//! queued 50 compiles ahead of a tenant that queued one delays that one
//! job by at most a single compile, not fifty. Within a tenant, jobs run
//! in submission order (FIFO).
//!
//! ## Backpressure
//!
//! The queue is bounded by `queue_depth` across all shards. A submission
//! beyond the high-water mark is rejected with
//! [`ServeError::Overloaded`], carrying a `retry_after` estimated from
//! the current backlog and an exponential moving average of recent job
//! service times — the client-visible contract is "come back in about
//! this long", not "spin".

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::{ServeError, ServeResult};

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Shard {
    /// FIFO queue per tenant.
    queues: HashMap<String, VecDeque<Job>>,
    /// Round-robin order over tenants that currently have queued work.
    order: VecDeque<String>,
}

impl Shard {
    fn push(&mut self, tenant: &str, job: Job) {
        let q = self.queues.entry(tenant.to_string()).or_default();
        if q.is_empty() {
            self.order.push_back(tenant.to_string());
        }
        q.push_back(job);
    }

    fn pop(&mut self) -> Option<Job> {
        let tenant = self.order.pop_front()?;
        let q = self.queues.get_mut(&tenant).expect("ordered tenant has a queue");
        let job = q.pop_front().expect("ordered tenant queue is non-empty");
        if q.is_empty() {
            self.queues.remove(&tenant);
        } else {
            // The tenant rejoins at the back: next dispatch goes to the
            // next tenant in line.
            self.order.push_back(tenant);
        }
        Some(job)
    }
}

struct SchedShared {
    shards: Vec<Mutex<Shard>>,
    /// Workers with nothing to do, most recently idled last. A worker
    /// re-checks `queued` under this mutex, pushes itself and waits on its
    /// own condvar in one critical section; `submit` pushes the job, then
    /// pops a worker under the mutex and signals it. So a job pushed
    /// between a worker's scan and its wait is either seen by the re-check
    /// or finds the worker on the stack — never missed.
    idle: Mutex<Vec<usize>>,
    /// One condvar per worker, each waited on under the `idle` mutex.
    wakers: Vec<Condvar>,
    /// Upper bound on one idle sleep: a safety net, not the wake-up path.
    idle_poll: Duration,
    queued: AtomicUsize,
    queue_depth: usize,
    workers: usize,
    shutdown: AtomicBool,
    /// EMA of job service time in nanoseconds (relaxed blend; an estimate
    /// feeding `retry_after`, not an accounting value).
    ema_job_nanos: AtomicU64,
}

impl SchedShared {
    fn shard_of(&self, tenant: &str) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        tenant.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn observe_job_nanos(&self, nanos: u64) {
        let old = self.ema_job_nanos.load(Ordering::Relaxed);
        let new = if old == 0 { nanos } else { old - old / 8 + nanos / 8 };
        self.ema_job_nanos.store(new, Ordering::Relaxed);
    }

    fn retry_after(&self, queued: usize) -> Duration {
        let ema = self.ema_job_nanos.load(Ordering::Relaxed).max(1_000_000); // floor: 1ms
        let rounds = (queued / self.workers.max(1)) as u64 + 1;
        Duration::from_nanos((ema.saturating_mul(rounds)).min(5_000_000_000)) // cap: 5s
    }
}

/// Handle to a submitted job's eventual result.
#[derive(Debug)]
pub struct Ticket<T> {
    slot: Arc<(Mutex<Option<ServeResult<T>>>, Condvar)>,
}

impl<T> Ticket<T> {
    fn new() -> Ticket<T> {
        Ticket { slot: Arc::new((Mutex::new(None), Condvar::new())) }
    }

    /// Block until the job completes and take its result.
    pub fn wait(self) -> ServeResult<T> {
        let (lock, cv) = &*self.slot;
        let mut guard = lock.lock().unwrap();
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = cv.wait(guard).unwrap();
        }
    }
}

/// The scheduler: owns the worker threads; dropping it drains nothing —
/// it stops accepting work, wakes the workers, and joins them (queued
/// jobs that never ran resolve their tickets with
/// [`ServeError::ShuttingDown`]).
pub struct Scheduler {
    shared: Arc<SchedShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("shards", &self.shared.shards.len())
            .field("workers", &self.shared.workers)
            .field("queue_depth", &self.shared.queue_depth)
            .field("queued", &self.shared.queued.load(Ordering::Relaxed))
            .finish()
    }
}

impl Scheduler {
    /// Spawn `workers` threads over `shards` shards with a global queue
    /// bound of `queue_depth`. All three are clamped to at least 1.
    pub fn new(shards: usize, workers: usize, queue_depth: usize) -> Scheduler {
        Scheduler::with_idle_poll(shards, workers, queue_depth, Duration::from_millis(500))
    }

    /// [`Scheduler::new`] with an explicit bound on one idle sleep, so a
    /// test can make the poll too slow to hide a missed wake-up.
    pub(crate) fn with_idle_poll(
        shards: usize,
        workers: usize,
        queue_depth: usize,
        idle_poll: Duration,
    ) -> Scheduler {
        let shards = shards.max(1);
        let workers = workers.max(1);
        let shared = Arc::new(SchedShared {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            idle: Mutex::new(Vec::new()),
            wakers: (0..workers).map(|_| Condvar::new()).collect(),
            idle_poll,
            queued: AtomicUsize::new(0),
            queue_depth: queue_depth.max(1),
            workers,
            shutdown: AtomicBool::new(false),
            ema_job_nanos: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn serve worker")
            })
            .collect();
        Scheduler { shared, handles }
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// The queue bound.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth
    }

    /// Submit `f` on behalf of `tenant`. Returns a [`Ticket`] to wait on,
    /// or [`ServeError::Overloaded`] / [`ServeError::ShuttingDown`]
    /// without queuing anything.
    pub fn submit<T, F>(&self, tenant: &str, f: F) -> ServeResult<Ticket<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> ServeResult<T> + Send + 'static,
    {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let queued = self.shared.queued.fetch_add(1, Ordering::AcqRel) + 1;
        if queued > self.shared.queue_depth {
            self.shared.queued.fetch_sub(1, Ordering::AcqRel);
            return Err(ServeError::Overloaded {
                retry_after: self.shared.retry_after(queued),
                queued: queued - 1,
                capacity: self.shared.queue_depth,
            });
        }

        let ticket = Ticket::new();
        let slot = Arc::clone(&ticket.slot);
        let shared = Arc::clone(&self.shared);
        let job: Job = Box::new(move || {
            // Jobs drained during shutdown resolve their tickets without
            // running user work.
            if shared.shutdown.load(Ordering::Acquire) {
                let (lock, cv) = &*slot;
                *lock.lock().unwrap() = Some(Err(ServeError::ShuttingDown));
                cv.notify_all();
                return;
            }
            let start = Instant::now();
            // A panicking compile must not kill the worker or hang the
            // waiter; it resolves the ticket with an internal error.
            let result = catch_unwind(AssertUnwindSafe(f))
                .unwrap_or_else(|_| Err(ServeError::Internal("job panicked".into())));
            shared.observe_job_nanos(start.elapsed().as_nanos() as u64);
            let (lock, cv) = &*slot;
            *lock.lock().unwrap() = Some(result);
            cv.notify_all();
        });

        let si = self.shared.shard_of(tenant);
        self.shared.shards[si].lock().unwrap().push(tenant, job);
        // With nobody idle every worker is busy and rescans the shards
        // when its job ends. Signalling after the mutex is released
        // spares the woken worker a second block on it.
        let woken = self.shared.idle.lock().unwrap().pop();
        if let Some(w) = woken {
            self.shared.wakers[w].notify_one();
        }
        Ok(ticket)
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Through the idle mutex, so a worker past its shutdown check is
        // parked by the time the signals go out.
        drop(self.shared.idle.lock().unwrap());
        for cv in &self.shared.wakers {
            cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Drain jobs that never ran. With the shutdown flag set, each job
        // wrapper resolves its ticket to ShuttingDown without executing
        // user work — no waiter is ever left hanging on an abandoned job.
        for lock in &self.shared.shards {
            let mut shard = lock.lock().unwrap();
            while let Some(job) = shard.pop() {
                job();
                self.shared.queued.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
}

fn worker_loop(shared: &SchedShared, me: usize) {
    let n = shared.shards.len();
    let home = me % n;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Home shard first, then steal round the ring.
        let mut job = None;
        for off in 0..n {
            if let Some(j) = shared.shards[(home + off) % n].lock().unwrap().pop() {
                job = Some(j);
                break;
            }
        }
        match job {
            Some(j) => {
                shared.queued.fetch_sub(1, Ordering::AcqRel);
                j();
            }
            None => {
                // Nothing anywhere: park until a submission or shutdown
                // signals. Both pass through the idle mutex first, so
                // checking for work under it closes the scan-to-wait
                // window. A timed-out or spurious wake-up leaves this
                // worker on the stack; take it off either way.
                let mut idle = shared.idle.lock().unwrap();
                if shared.queued.load(Ordering::Acquire) == 0
                    && !shared.shutdown.load(Ordering::Acquire)
                {
                    idle.push(me);
                    let (mut idle, _) =
                        shared.wakers[me].wait_timeout(idle, shared.idle_poll).unwrap();
                    idle.retain(|&w| w != me);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_jobs_and_returns_results() {
        let s = Scheduler::new(2, 2, 64);
        let tickets: Vec<_> =
            (0..16).map(|i| s.submit("t", move || Ok(i * i)).unwrap()).collect();
        let mut out: Vec<i32> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        out.sort_unstable();
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn idle_workers_wake_for_a_job_on_any_shard() {
        // Four shards, two workers (homes 0 and 1), and an idle poll far
        // too slow to rescue a missed wake-up: round trips of a tenant
        // that hashes to shard 2 or 3 complete only if `submit` wakes an
        // idle worker whatever shard the job landed on. Each `wait` leaves
        // both workers idle again before the next submission.
        let s = Scheduler::with_idle_poll(4, 2, 64, Duration::from_secs(10));
        let tenant = (0..)
            .map(|i| format!("tenant-{i}"))
            .find(|t| s.shared.shard_of(t) >= 2)
            .expect("some tenant hashes past the home shards");
        let start = Instant::now();
        for i in 0..32 {
            assert_eq!(s.submit(&tenant, move || Ok(i)).unwrap().wait().unwrap(), i);
        }
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "32 no-op round trips took {took:?}");
    }

    #[test]
    fn per_tenant_round_robin_interleaves() {
        // One worker, one shard: dispatch order is fully deterministic
        // once submission has finished. Tenant A floods 8 jobs, then B
        // submits one; B's job must run second, not ninth.
        let s = Scheduler::new(1, 1, 64);
        let ran = Arc::new(Mutex::new(Vec::new()));
        // Park the worker on a gate job so the queue builds up behind it.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        let _gate_ticket = s
            .submit("gate", move || {
                let (l, cv) = &*g2;
                let mut open = l.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(())
            })
            .unwrap();
        let mut tickets = Vec::new();
        for i in 0..8 {
            let ran = Arc::clone(&ran);
            tickets.push(
                s.submit("a", move || {
                    ran.lock().unwrap().push(format!("a{i}"));
                    Ok(())
                })
                .unwrap(),
            );
        }
        let ran_b = Arc::clone(&ran);
        tickets.push(
            s.submit("b", move || {
                ran_b.lock().unwrap().push("b0".to_string());
                Ok(())
            })
            .unwrap(),
        );
        // Open the gate and wait for everything.
        {
            let (l, cv) = &*gate;
            *l.lock().unwrap() = true;
            cv.notify_all();
        }
        for t in tickets {
            t.wait().unwrap();
        }
        let order = ran.lock().unwrap().clone();
        assert_eq!(order.len(), 9);
        let b_pos = order.iter().position(|s| s == "b0").unwrap();
        assert!(b_pos <= 1, "tenant b starved: ran at position {b_pos} in {order:?}");
        // Within tenant a, submission order is preserved.
        let a_only: Vec<_> = order.iter().filter(|s| s.starts_with('a')).collect();
        let mut sorted = a_only.clone();
        sorted.sort();
        assert_eq!(a_only, sorted, "intra-tenant FIFO violated: {order:?}");
    }

    #[test]
    fn backpressure_rejects_beyond_high_water() {
        let s = Scheduler::new(1, 1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        let t0 = s
            .submit("t", move || {
                let (l, cv) = &*g2;
                let mut open = l.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(())
            })
            .unwrap();
        // Wait until the worker has actually picked up the gate job so
        // the two capacity slots are genuinely free.
        while s.queued() > 0 {
            std::thread::yield_now();
        }
        let t1 = s.submit("t", || Ok(())).unwrap();
        let t2 = s.submit("t", || Ok(())).unwrap();
        let e = s.submit("t", || Ok(())).unwrap_err();
        match e {
            ServeError::Overloaded { retry_after, queued, capacity } => {
                assert_eq!(capacity, 2);
                assert_eq!(queued, 2);
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        {
            let (l, cv) = &*gate;
            *l.lock().unwrap() = true;
            cv.notify_all();
        }
        t0.wait().unwrap();
        t1.wait().unwrap();
        t2.wait().unwrap();
    }

    #[test]
    fn panicking_job_resolves_its_ticket() {
        let s = Scheduler::new(1, 1, 8);
        let t = s.submit::<(), _>("t", || panic!("boom")).unwrap();
        match t.wait() {
            Err(ServeError::Internal(m)) => assert!(m.contains("panicked")),
            other => panic!("expected Internal, got {other:?}"),
        }
        // The worker survived the panic and still runs jobs.
        assert_eq!(s.submit("t", || Ok(7)).unwrap().wait().unwrap(), 7);
    }
}
