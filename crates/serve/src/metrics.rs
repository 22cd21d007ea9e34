//! Service counters: lock-free, sampled into a [`ServeStats`] snapshot.
//!
//! Counters feed the benchmark's `serve.session.*` metrics (cold/warm
//! latency, hit rate) and the durability tests (exactly-one-compile under
//! concurrent identical requests is asserted via `cold_compiles`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal counter block shared by the session and its workers.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Requests that ran the compiler (disk miss, first in-flight owner).
    pub cold_compiles: AtomicU64,
    /// Requests answered from the on-disk artifact cache.
    pub warm_hits: AtomicU64,
    /// Requests that joined an identical compile already in flight.
    pub inflight_joins: AtomicU64,
    /// Warm loads that found a corrupt/stale file and fell back cold.
    pub corrupt_reloads: AtomicU64,
    /// Artifact persists that failed (advisory; the compile still
    /// succeeded).
    pub save_errors: AtomicU64,
    /// Submissions rejected by backpressure.
    pub rejected: AtomicU64,
    /// Total nanoseconds spent in cold compiles.
    pub cold_nanos: AtomicU64,
    /// Total nanoseconds spent in warm loads.
    pub warm_nanos: AtomicU64,
}

impl Counters {
    pub(crate) fn add(&self, c: &AtomicU64, v: u64) {
        c.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        ServeStats {
            cold_compiles: self.cold_compiles.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            inflight_joins: self.inflight_joins.load(Ordering::Relaxed),
            corrupt_reloads: self.corrupt_reloads.load(Ordering::Relaxed),
            save_errors: self.save_errors.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            cold_nanos: self.cold_nanos.load(Ordering::Relaxed),
            warm_nanos: self.warm_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of the session's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ServeStats {
    /// Requests that ran the compiler.
    pub cold_compiles: u64,
    /// Requests answered from disk.
    pub warm_hits: u64,
    /// Requests that joined an in-flight identical compile.
    pub inflight_joins: u64,
    /// Corrupt/stale artifacts that fell back to a recompile.
    pub corrupt_reloads: u64,
    /// Failed artifact persists (advisory).
    pub save_errors: u64,
    /// Submissions rejected by backpressure.
    pub rejected: u64,
    /// Total nanoseconds in cold compiles.
    pub cold_nanos: u64,
    /// Total nanoseconds in warm loads.
    pub warm_nanos: u64,
}

impl ServeStats {
    /// Requests served without running the compiler, as a fraction of all
    /// served requests. `None` before any request completes.
    pub fn hit_rate(&self) -> Option<f64> {
        let served = self.cold_compiles + self.warm_hits + self.inflight_joins;
        if served == 0 {
            return None;
        }
        Some((self.warm_hits + self.inflight_joins) as f64 / served as f64)
    }

    /// Mean cold-compile latency in nanoseconds, if any cold compile ran.
    pub fn mean_cold_nanos(&self) -> Option<f64> {
        (self.cold_compiles > 0).then(|| self.cold_nanos as f64 / self.cold_compiles as f64)
    }

    /// Mean warm-load latency in nanoseconds, if any warm hit happened.
    pub fn mean_warm_nanos(&self) -> Option<f64> {
        (self.warm_hits > 0).then(|| self.warm_nanos as f64 / self.warm_hits as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_math() {
        let mut s = ServeStats::default();
        assert_eq!(s.hit_rate(), None);
        s.cold_compiles = 1;
        s.warm_hits = 3;
        assert_eq!(s.hit_rate(), Some(0.75));
        s.inflight_joins = 4;
        assert_eq!(s.hit_rate(), Some(7.0 / 8.0));
    }

    #[test]
    fn counters_snapshot() {
        let c = Counters::default();
        c.add(&c.cold_compiles, 2);
        c.add(&c.cold_nanos, 1000);
        c.add(&c.warm_hits, 1);
        c.add(&c.warm_nanos, 10);
        let s = c.snapshot();
        assert_eq!(s.cold_compiles, 2);
        assert_eq!(s.mean_cold_nanos(), Some(500.0));
        assert_eq!(s.mean_warm_nanos(), Some(10.0));
    }
}
