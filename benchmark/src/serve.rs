//! Stage `serve`: a `ServeSession` with two workers in a closed loop (the
//! in-repo callers are sweeps that wait for their replies).
//!
//! - `cold`: one client, every key once. The write use of
//!   `serve::artifact`/`wire`: compile, encode, fsync, rename.
//! - `warm`: the session is dropped and reopened (a restart), then one
//!   client draws keys from a seeded Zipf(1.0). The read use of the same
//!   layer: read, checksum, decode.
//! - `mixed`: two clients loop 16-request submit-then-wait batches, 90 %
//!   warm keys and 10 % keys nobody has asked for yet; every eighth batch
//!   is issued by both clients at once, so identical requests meet in
//!   flight. It shows whether cold compiles holding both workers hurt the
//!   warm requests queued behind them.
//!
//! The end-to-end numbers are the time the session's threads spend *on a
//! CPU* for a request, not the request's wall-clock latency. On a shared
//! host the wall clock of a request is mostly two things the program does
//! not control: the disk's fsync latency (measured here between 0.7 and
//! 13 ms within minutes of each other) and the wake-up latency of an idle
//! virtual CPU at every thread hand-off. Neither is a property of the
//! code, and real disk behaviour is only reportable from the hardware it
//! will run on. Wall-clock latencies are still recorded, as per-layer
//! metrics without a bound.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

use chemkin::synth::SynthConfig;
use gpu_sim::flatcache::fingerprint;
use singe::Variant;
use singe_serve::artifact::{self, ArtifactKey, Store};
use singe_serve::{
    ArchId, ArtifactHandle, ArtifactSource, CompileRequest, KernelId, Scheduler, ServeResult,
    ServeSession, ServeStats,
};

use crate::gen::{self, Rng, Zipf};
use crate::pass::{PassCfg, Rec};
use crate::stats::median;
use crate::trace::Tracer;

/// Process CPU seconds per segment of the mixed phase (rendezvous to
/// rendezvous), and the phase's request count: `serve_mixed_req_per_cpu_s`
/// is the requests over the sum of the segments, each taken from the
/// replica that spent least on it.
pub const MIXED_SEGMENTS: &str = "serve.mixed_segment_cpu_s";
pub const MIXED_REQUESTS: &str = "serve.mixed_requests";

const WORKERS: usize = 2;
const BATCH: usize = 16;
/// Every this-many-th batch is the same for both clients.
const SHARED_EVERY: usize = 8;

use ArtifactSource::{ColdCompile, InflightJoin, WarmDisk};

fn requests(tenants: &[SynthConfig]) -> Vec<CompileRequest> {
    let mut reqs = Vec::new();
    for t in tenants {
        let id: singe_serve::MechanismId = t
            .name
            .parse()
            .expect("generated tenant names are valid ids");
        for kernel in KernelId::ALL {
            for arch in ArchId::ALL {
                for variant in [Variant::WarpSpecialized, Variant::Baseline] {
                    // The scheduling tenant stays "default", as for every
                    // in-repo caller of the session.
                    reqs.push(CompileRequest::new(id.clone(), kernel, variant, arch));
                }
            }
        }
    }
    reqs
}

fn open(dir: &Path, tenants: &[SynthConfig]) -> Result<(ServeSession, f64), String> {
    let session = ServeSession::builder(dir)
        .jobs(WORKERS)
        .builtins(false)
        .open()
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    for cfg in tenants {
        session.register_synth(cfg).map_err(|e| e.to_string())?;
    }
    Ok((session, t.elapsed().as_secs_f64() * 1e3))
}

/// Nanoseconds the threads of this process have spent on a CPU so far,
/// from the scheduler's own accounting (`/proc/self/task/<tid>/schedstat`,
/// first field): exact to the context switch, and blind to time spent
/// blocked on the disk or waiting to be woken. `others_only` leaves the
/// calling thread out, so that a lone client reads what the session's
/// workers spent and not its own bookkeeping between two readings.
fn on_cpu_ns(others_only: bool) -> Result<u64, String> {
    let me = if others_only {
        let link = std::fs::read_link("/proc/thread-self")
            .map_err(|e| format!("/proc/thread-self: {e}"))?;
        link.file_name().map(|tid| tid.to_os_string())
    } else {
        None
    };
    let (mut total, mut threads) = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))? {
        let task = task.map_err(|e| e.to_string())?;
        if me.as_ref() == Some(&task.file_name()) {
            continue;
        }
        // A thread can exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        total += stat
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<u64>().ok())
            .ok_or("schedstat has no run-time field")?;
        threads += 1;
    }
    if threads == 0 {
        return Err("no thread of this process has a readable schedstat".into());
    }
    Ok(total)
}

/// One request through the session: wall-clock milliseconds, milliseconds
/// the workers were on a CPU for it, and the reply.
fn timed_request(
    session: &ServeSession,
    req: &CompileRequest,
) -> (f64, Result<f64, String>, ServeResult<ArtifactHandle>) {
    let before = on_cpu_ns(true);
    let t = Instant::now();
    let r = session.compile(req);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = before.and_then(|b| Ok(on_cpu_ns(true)?.saturating_sub(b) as f64 / 1e6));
    (wall_ms, cpu_ms, r)
}

/// A request's outcome against the sources its phase allows.
fn verdict(
    r: ServeResult<ArtifactHandle>,
    allowed: &[ArtifactSource],
) -> Result<ArtifactHandle, String> {
    let h = r.map_err(|e| e.to_string())?;
    if allowed.contains(&h.source) {
        Ok(h)
    } else {
        Err(format!(
            "served as {:?}, expected one of {allowed:?}",
            h.source
        ))
    }
}

/// One request of a mixed batch: an index into the main keys (warm) or the
/// fresh keys (never asked for before this batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pick {
    Warm(usize),
    Fresh(usize),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Batch {
    picks: Vec<Pick>,
    shared: bool,
}

/// The two clients' batch lists: as many batches as the fresh keys last.
/// Fresh keys make up 10 % of the requests (2, 2, 2, 1, 1 per batch of 16).
fn plan_mixed(seed: u64, n_main: usize, n_fresh: usize, popularity: &[usize]) -> [Vec<Batch>; 2] {
    let zipf = Zipf::new(n_main);
    let mut rng = Rng::new(seed, "serve-mixed");
    let mut fresh: VecDeque<usize> = (0..n_fresh).collect();
    let mut fill = |n_fresh_picks: usize, fresh: &mut VecDeque<usize>| {
        let mut picks: Vec<Pick> = fresh.drain(..n_fresh_picks).map(Pick::Fresh).collect();
        while picks.len() < BATCH {
            picks.push(Pick::Warm(popularity[zipf.draw(&mut rng)]));
        }
        rng.shuffle(&mut picks);
        picks
    };
    let mut plans = [Vec::new(), Vec::new()];
    for j in 0.. {
        let want = if j % 5 < 3 { 2 } else { 1 };
        if j % SHARED_EVERY == SHARED_EVERY - 1 {
            if fresh.len() < want {
                break;
            }
            let batch = Batch {
                picks: fill(want, &mut fresh),
                shared: true,
            };
            plans[1].push(batch.clone());
            plans[0].push(batch);
        } else {
            if fresh.len() < 2 * want {
                break;
            }
            for plan in &mut plans {
                plan.push(Batch {
                    picks: fill(want, &mut fresh),
                    shared: false,
                });
            }
        }
    }
    plans
}

struct ClientOut {
    requests: u64,
    failures: Vec<String>,
    /// The leading client's readings of the process's CPU time, one per
    /// rendezvous: both clients idle, nothing in flight.
    cpu_marks: Vec<Result<u64, String>>,
    tr: Tracer,
}

fn client(
    session: &ServeSession,
    main: &[CompileRequest],
    fresh: &[CompileRequest],
    plan: &[Batch],
    rendezvous: &Barrier,
    leads: bool,
    mut tr: Tracer,
) -> ClientOut {
    let (mut requests, mut failures, mut cpu_marks) = (0, Vec::new(), Vec::new());
    // Meet, let the leader read the clock, meet again: the reading falls
    // where neither client has a request out.
    let mut mark = || {
        rendezvous.wait();
        if leads {
            cpu_marks.push(on_cpu_ns(false));
        }
        rendezvous.wait();
    };
    mark();
    for (j, batch) in plan.iter().enumerate() {
        if batch.shared {
            mark();
        }
        let s = tr.begin("serve.session.batch_us", &format!("batch {j}"));
        let tickets: Vec<_> = batch
            .picks
            .iter()
            .map(|p| match p {
                Pick::Warm(i) => session.submit(&main[*i]),
                Pick::Fresh(i) => session.submit(&fresh[*i]),
            })
            .collect();
        for (pick, ticket) in batch.picks.iter().zip(tickets) {
            // Two clients can meet on a popular warm key; in a shared batch
            // the second to arrive joins or finds the artifact on disk.
            let allowed: &[ArtifactSource] = match (pick, batch.shared) {
                (Pick::Warm(_), _) => &[WarmDisk, InflightJoin],
                (Pick::Fresh(_), false) => &[ColdCompile],
                (Pick::Fresh(_), true) => &[ColdCompile, InflightJoin, WarmDisk],
            };
            requests += 1;
            if let Err(e) = verdict(ticket.and_then(|t| t.wait()), allowed) {
                failures.push(format!("mixed batch {j} {pick:?}: {e}"));
            }
        }
        tr.end(s);
    }
    mark();
    ClientOut {
        requests,
        failures,
        cpu_marks,
        tr,
    }
}

pub fn pass(cfg: &PassCfg, rec: &mut Rec) {
    // Set-up: tenants, keys, popularity and the mixed plan from the seed;
    // an empty cache directory; the session open and registered.
    let b = cfg.budget_s;
    let (n_main, n_fresh, warm_budget_s, min_warm) = if cfg.smoke {
        (2, 1, 0.0, 40)
    } else {
        // Sized so cold, warm and mixed each take roughly a third of the
        // budget: a cold tenant (18 keys) costs about 0.1 s.
        (
            ((b * 2.5).round() as usize).clamp(4, 48),
            ((b * 3.0).round() as usize).clamp(4, 64),
            b * 0.4,
            2000,
        )
    };
    let tenants = gen::tenant_configs(cfg.seed, "tenant", n_main);
    let newcomers = gen::tenant_configs(cfg.seed, "fresh", n_fresh);
    let everyone: Vec<SynthConfig> = tenants.iter().chain(&newcomers).cloned().collect();
    let main = requests(&tenants);
    let mut fresh = requests(&newcomers);
    Rng::new(cfg.seed, "serve-fresh-order").shuffle(&mut fresh);
    // Which key is the most asked for: a fixed walk over the keys in
    // tenant order. Popularity
    // decides how the request percentiles weigh light and heavy keys, so it
    // must not change with the seed; the sequence of draws does.
    let stride = gen::coprime_stride(main.len());
    let popularity: Vec<usize> = (0..main.len())
        .map(|rank| rank * stride % main.len())
        .collect();
    let mut cold_order: Vec<usize> = (0..main.len()).collect();
    Rng::new(cfg.seed, "serve-cold-order").shuffle(&mut cold_order);
    let zipf = Zipf::new(main.len());
    let plans = plan_mixed(cfg.seed, main.len(), fresh.len(), &popularity);
    let dir = cfg.dir.join(format!("serve-{}", cfg.pass));
    let _ = std::fs::remove_dir_all(&dir);
    let (session, register_ms) = match open(&dir, &everyone) {
        Ok(x) => x,
        Err(e) => return rec.op("open session", Err(e)),
    };

    rec.start_timed();
    let root = rec.tr.begin("bench.serve.pass_ms", "");

    // Phase cold.
    let phase = rec.tr.begin("bench.serve.cold_ms", "");
    let mut cold: Vec<Option<(ArtifactKey, (u64, u64))>> = vec![None; main.len()];
    for i in cold_order {
        let req = &main[i];
        let op = format!("cold {i}");
        let s = rec.tr.begin("serve.session.request_us", &op);
        let (wall_ms, cpu_ms, r) = timed_request(&session, req);
        rec.tr.end(s);
        rec.sample("serve.session.cold_wall_ms", wall_ms);
        let r = cpu_ms.and_then(|ms| {
            rec.sample("serve_cold_cpu_ms", ms);
            verdict(r, &[ColdCompile])
        });
        match r {
            Ok(h) => {
                cold[i] = Some((h.key, fingerprint(&h.artifact.kernel)));
                rec.op(&op, Ok(()));
            }
            Err(e) => rec.op(&op, Err(e)),
        }
    }
    rec.tr.end(phase);
    let stats_cold = session.stats();

    // A restart: nothing survives but the directory.
    drop(session);
    let (session, reregister_ms) = match open(&dir, &everyone) {
        Ok(x) => x,
        Err(e) => return rec.op("reopen session", Err(e)),
    };

    // Phase warm.
    let phase = rec.tr.begin("bench.serve.warm_ms", "");
    let mut rng = Rng::new(cfg.seed, "serve-warm");
    let mut seen = vec![false; main.len()];
    // (key, CPU ms) of every warm request, for the traced take-apart.
    let mut warm: Vec<(usize, f64)> = Vec::new();
    let from = rec.elapsed_s();
    let mut draws = 0;
    while draws < min_warm || rec.elapsed_s() - from < warm_budget_s {
        let i = popularity[zipf.draw(&mut rng)];
        let s = rec.tr.begin("serve.session.request_us", "warm");
        let (wall_ms, cpu_ms, r) = timed_request(&session, &main[i]);
        rec.tr.end(s);
        rec.sample("serve.session.warm_wall_ms", wall_ms);
        draws += 1;
        let checked = cpu_ms.and_then(|ms| {
            rec.sample("serve_warm_cpu_ms", ms);
            warm.push((i, ms));
            verdict(r, &[WarmDisk])
        });
        let checked = checked.and_then(|h| {
            // The first time a key comes back: the same kernel the cold
            // compile produced.
            if !std::mem::replace(&mut seen[i], true) {
                let cold_print = cold[i].map(|(_, print)| print);
                if cold_print.is_some_and(|p| p != fingerprint(&h.artifact.kernel)) {
                    return Err("warm artifact's fingerprint differs from the cold one's".into());
                }
            }
            Ok(())
        });
        match checked {
            Ok(()) => rec.out.attempted += 1,
            Err(e) => rec.op(&format!("warm draw {draws}"), Err(e)),
        }
    }
    rec.tr.end(phase);

    // Phase mixed.
    let phase = rec.tr.begin("bench.serve.mixed_ms", "");
    let rendezvous = Barrier::new(2);
    let t = Instant::now();
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let tr = rec.tr.fork(c as u32 + 1);
                let (session, main, fresh, rendezvous) = (&session, &main, &fresh, &rendezvous);
                scope.spawn(move || client(session, main, fresh, plan, rendezvous, c == 0, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mixed_s = t.elapsed().as_secs_f64();
    let mut mixed_requests = 0;
    for out in outs {
        mixed_requests += out.requests;
        // CPU seconds of the whole process between one rendezvous and the
        // next: the segments of the phase, the same in every replica.
        match out
            .cpu_marks
            .into_iter()
            .collect::<Result<Vec<u64>, String>>()
        {
            Ok(marks) => {
                for pair in marks.windows(2) {
                    rec.sample(MIXED_SEGMENTS, pair[1].saturating_sub(pair[0]) as f64 / 1e9);
                }
            }
            Err(e) => rec.op("mixed phase CPU time", Err(e)),
        }
        rec.out.attempted += out.requests - out.failures.len() as u64;
        for f in out.failures {
            rec.op("mixed", Err(f));
        }
        rec.tr.adopt(out.tr);
    }
    rec.tr.end(phase);
    rec.tr.end(root);
    let stats_warm = session.stats();

    rec.scalar(
        "serve.session.mixed_wall_rps",
        mixed_requests as f64 / mixed_s,
    );
    rec.scalar(MIXED_REQUESTS, mixed_requests as f64);
    if cfg.trace {
        rec.scalar(
            "serve.session.register_ms",
            median(&[register_ms, reregister_ms]),
        );
        session_counters(rec, &[stats_cold, stats_warm]);
        let keys: Vec<(usize, ArtifactKey)> = cold
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|(key, _)| (i, key)))
            .collect();
        take_apart(
            rec,
            &dir,
            &cfg.dir.join(format!("serve-{}-rewrite", cfg.pass)),
            &main,
            &keys,
            &warm,
        );
    }
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The session's own counters, over both sessions of the pass.
fn session_counters(rec: &mut Rec, stats: &[ServeStats]) {
    let sum = |f: fn(&ServeStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let (cold, warm, joins) = (
        sum(|s| s.cold_compiles),
        sum(|s| s.warm_hits),
        sum(|s| s.inflight_joins),
    );
    rec.scalar(
        "serve.session.cold_mean_ms",
        sum(|s| s.cold_nanos) / cold.max(1.0) / 1e6,
    );
    rec.scalar(
        "serve.session.warm_mean_us",
        sum(|s| s.warm_nanos) / warm.max(1.0) / 1e3,
    );
    rec.scalar(
        "serve.session.hit_rate",
        (warm + joins) / (cold + warm + joins).max(1.0),
    );
    rec.scalar("serve.session.inflight_joins", joins);
    rec.scalar("serve.session.rejected", sum(|s| s.rejected));
    rec.scalar("serve.session.corrupt_reloads", sum(|s| s.corrupt_reloads));
    rec.scalar("serve.session.save_errors", sum(|s| s.save_errors));
}

/// The traced run's extra pass over the cached artifacts: each public part
/// of a request timed on its own, once per key.
fn take_apart(
    rec: &mut Rec,
    dir: &Path,
    rewrite_dir: &Path,
    main: &[CompileRequest],
    keys: &[(usize, ArtifactKey)],
    warm: &[(usize, f64)],
) {
    let whole = rec.tr.begin_extra("bench.serve.take_apart_ms", "");
    let mut med = std::collections::BTreeMap::<&str, Vec<f64>>::new();
    let mut timed = |rec: &mut Rec, name: &'static str, op: &str, f: &mut dyn FnMut()| {
        let s = rec.tr.begin_extra(name, op);
        f();
        let us = rec.tr.end(s);
        med.entry(name).or_default().push(us);
        us
    };
    // Per key: microseconds to derive its key plus to load its artifact.
    let mut key_and_load = std::collections::BTreeMap::<usize, f64>::new();

    let sched = Scheduler::new(4, WORKERS, 256);
    for _ in 0..2000 {
        timed(rec, "serve.sched.roundtrip_us", "", &mut || {
            let done = sched.submit("default", || Ok(())).and_then(|t| t.wait());
            std::hint::black_box(done.is_ok());
        });
    }
    drop(sched);

    let (store, rewrite) = match (Store::open(dir), Store::open(rewrite_dir)) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return rec.op("open stores", Err("cannot open the artifact stores".into())),
    };
    let (mut bytes_total, mut sizes) = (0usize, Vec::new());
    for (i, key) in keys {
        let req = &main[*i];
        let op = format!("key {i}");
        let arch = req.arch.arch();
        let key_us = timed(rec, "serve.artifact.key_us", &op, &mut || {
            // What the session does per request: resolve the options, print
            // them, hash the identity. The species count does not change the
            // cost; the mechanism's fingerprint is computed at registration.
            let opts = singe_serve::default_options(req.kernel, 20, &arch);
            std::hint::black_box(ArtifactKey::derive(
                0,
                req.kernel.name(),
                req.variant.name(),
                arch.name,
                opts.warps,
                &format!("{opts:?}"),
            ));
        });
        let path = dir.join(key.file_name());
        let mut bytes = Vec::new();
        timed(rec, "serve.artifact.read_us", &op, &mut || {
            bytes = std::fs::read(&path).unwrap_or_default()
        });
        let mut decoded = None;
        timed(rec, "serve.artifact.decode_us", &op, &mut || {
            decoded = artifact::decode(&bytes).ok()
        });
        let mut corrupt = false;
        let load_us = timed(rec, "serve.artifact.load_us", &op, &mut || {
            std::hint::black_box(store.load(key, &mut corrupt).is_some());
        });
        key_and_load.insert(*i, key_us + load_us);
        let Some(art) = decoded else {
            rec.op(&op, Err("cached artifact does not decode".into()));
            continue;
        };
        timed(rec, "serve.artifact.encode_us", &op, &mut || {
            std::hint::black_box(artifact::encode(&art).len());
        });
        let mut saved = Ok(());
        timed(rec, "serve.artifact.save_us", &op, &mut || {
            saved = rewrite.save(key, &art)
        });
        rec.op(&op, saved.map_err(|e| e.to_string()));
        bytes_total += bytes.len();
        sizes.push(bytes.len() as f64);
    }
    rec.tr.end(whole);
    let _ = std::fs::remove_dir_all(rewrite_dir);

    let decode_s: f64 = med
        .get("serve.artifact.decode_us")
        .map_or(0.0, |v| v.iter().sum::<f64>() / 1e6);
    for (name, us) in &med {
        rec.scalar(name, median(us));
    }
    if sizes.is_empty() {
        return;
    }
    rec.scalar("serve.artifact.bytes_median", median(&sizes));
    rec.scalar(
        "serve.wire.decode_mb_per_s",
        bytes_total as f64 / 1e6 / decode_s,
    );
    // What the session spends on a warm request beyond deriving its key and
    // loading its artifact (the scheduler's and the session's own
    // bookkeeping), request by request, in CPU time like the request.
    let residual: Vec<f64> = warm
        .iter()
        .filter_map(|(i, cpu_ms)| Some(cpu_ms * 1e3 - key_and_load.get(i)?))
        .collect();
    if !residual.is_empty() {
        rec.scalar("serve.session.warm_self_us", median(&residual));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_plan_is_seeded_and_a_tenth_fresh() {
        let popularity: Vec<usize> = (0..90).collect();
        let a = plan_mixed(3, 90, 180, &popularity);
        assert_eq!(a, plan_mixed(3, 90, 180, &popularity));
        assert_ne!(a, plan_mixed(4, 90, 180, &popularity));
        assert_eq!(a[0].len(), a[1].len());
        let (mut fresh, mut all, mut seen) = (0, 0, std::collections::BTreeSet::new());
        for (c, plan) in a.iter().enumerate() {
            for (j, batch) in plan.iter().enumerate() {
                assert_eq!(batch.picks.len(), BATCH);
                assert_eq!(batch.shared, j % SHARED_EVERY == SHARED_EVERY - 1);
                for p in &batch.picks {
                    all += 1;
                    if let Pick::Fresh(i) = p {
                        fresh += 1;
                        // A fresh key is asked for once, or once by each
                        // client in a shared batch.
                        assert!(
                            seen.insert((*i, c)) && (batch.shared || !seen.contains(&(*i, 1 - c)))
                        );
                    }
                }
            }
        }
        let share = f64::from(fresh) / f64::from(all);
        assert!((0.09..=0.11).contains(&share), "fresh share {share}");
        assert_eq!(a[0][SHARED_EVERY - 1], a[1][SHARED_EVERY - 1]);
    }
}
