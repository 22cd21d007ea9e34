//! Event counts gathered during functional interpretation of one CTA.
//!
//! These are the inputs to the analytic timing model: the interpreter
//! observes *what* the kernel does (issue slots, memory transactions, bank
//! conflicts, cache behavior, barrier waits) and `timing` turns that into
//! cycles using the architecture parameters.


/// Aggregate event counts for one CTA execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Total issue slots (warp-instructions, with multi-slot expansions).
    pub issue_slots: u64,
    /// Issue slots on the double-precision pipe.
    pub dp_slots: u64,
    /// DP slots whose operand reads the constant cache (§6.1 limit).
    pub dp_const_slots: u64,
    /// Double-precision FLOPs performed (lanes * per-lane flops).
    pub flops: u64,
    /// Shared-memory warp accesses, *including* bank-conflict replays.
    pub shared_accesses: u64,
    /// Bank-conflict replays alone (diagnostics).
    pub shared_conflicts: u64,
    /// 128-byte global-memory transactions (coalescing applied).
    pub global_transactions: u64,
    /// Bytes moved to/from DRAM by global accesses.
    pub global_bytes: u64,
    /// Bytes moved on the local (spill) path.
    pub local_bytes: u64,
    /// Constant-cache hits.
    pub const_hits: u64,
    /// Constant-cache misses.
    pub const_misses: u64,
    /// Instruction-cache misses (from the interleaved fetch trace).
    pub icache_misses: u64,
    /// Instruction fetches (cache lookups).
    pub icache_fetches: u64,
    /// `bar.sync` operations executed (per warp).
    pub barrier_syncs: u64,
    /// `bar.arrive` operations executed (per warp).
    pub barrier_arrives: u64,
    /// Cooperative-scheduler context switches forced by blocking barriers
    /// (a proxy for straggler wait time, §6.2).
    pub barrier_stall_switches: u64,
    /// Warp-ID branch instructions executed (WarpIf / WarpSwitch headers).
    pub warp_branches: u64,
}

impl EventCounts {
    /// Merge another CTA's counts into this one.
    pub fn merge(&mut self, o: &EventCounts) {
        self.merge_times(o, 1);
    }

    /// Merge `o` into this one `times` times over.
    pub(crate) fn merge_times(&mut self, o: &EventCounts, times: u64) {
        self.issue_slots += o.issue_slots * times;
        self.dp_slots += o.dp_slots * times;
        self.dp_const_slots += o.dp_const_slots * times;
        self.flops += o.flops * times;
        self.shared_accesses += o.shared_accesses * times;
        self.shared_conflicts += o.shared_conflicts * times;
        self.global_transactions += o.global_transactions * times;
        self.global_bytes += o.global_bytes * times;
        self.local_bytes += o.local_bytes * times;
        self.const_hits += o.const_hits * times;
        self.const_misses += o.const_misses * times;
        self.icache_misses += o.icache_misses * times;
        self.icache_fetches += o.icache_fetches * times;
        self.barrier_syncs += o.barrier_syncs * times;
        self.barrier_arrives += o.barrier_arrives * times;
        self.barrier_stall_switches += o.barrier_stall_switches * times;
        self.warp_branches += o.warp_branches * times;
    }

    /// Constant-cache miss ratio (0 when no accesses).
    pub fn const_miss_ratio(&self) -> f64 {
        let total = self.const_hits + self.const_misses;
        if total == 0 {
            0.0
        } else {
            self.const_misses as f64 / total as f64
        }
    }

    /// Instruction-cache miss ratio.
    pub fn icache_miss_ratio(&self) -> f64 {
        if self.icache_fetches == 0 {
            0.0
        } else {
            self.icache_misses as f64 / self.icache_fetches as f64
        }
    }
}

/// The statically-known slice of [`EventCounts`] for one engine segment
/// (see [`crate::engine`]): everything the lowering pass can total up
/// once per kernel — issue slots, DP pipe usage, branch/barrier ops,
/// shared-memory transactions, local traffic — charged in one bulk add
/// per executed segment instead of per instruction. Dynamic events
/// (global coalescing, cache behavior) stay out of this struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StaticSegCounts {
    pub(crate) issue_slots: u64,
    pub(crate) dp_slots: u64,
    pub(crate) dp_const_slots: u64,
    pub(crate) flops: u64,
    pub(crate) warp_branches: u64,
    pub(crate) shared_accesses: u64,
    pub(crate) shared_conflicts: u64,
    pub(crate) local_bytes: u64,
    pub(crate) barrier_arrives: u64,
    pub(crate) barrier_syncs: u64,
}

impl StaticSegCounts {
    /// Charge this segment's static events in bulk.
    pub(crate) fn apply(&self, c: &mut EventCounts) {
        c.issue_slots += self.issue_slots;
        c.dp_slots += self.dp_slots;
        c.dp_const_slots += self.dp_const_slots;
        c.flops += self.flops;
        c.warp_branches += self.warp_branches;
        c.shared_accesses += self.shared_accesses;
        c.shared_conflicts += self.shared_conflicts;
        c.local_bytes += self.local_bytes;
        c.barrier_arrives += self.barrier_arrives;
        c.barrier_syncs += self.barrier_syncs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_seg_counts_apply_matches_fields() {
        let s = StaticSegCounts {
            issue_slots: 10,
            dp_slots: 4,
            dp_const_slots: 2,
            flops: 320,
            warp_branches: 1,
            shared_accesses: 3,
            shared_conflicts: 2,
            local_bytes: 256,
            barrier_arrives: 1,
            barrier_syncs: 1,
        };
        let mut c = EventCounts::default();
        s.apply(&mut c);
        s.apply(&mut c);
        assert_eq!(c.issue_slots, 20);
        assert_eq!(c.flops, 640);
        assert_eq!(c.barrier_syncs, 2);
        assert_eq!(c.global_transactions, 0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = EventCounts { issue_slots: 10, flops: 100, ..Default::default() };
        let b = EventCounts { issue_slots: 5, flops: 50, const_misses: 2, const_hits: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.issue_slots, 15);
        assert_eq!(a.flops, 150);
        // a picked up b's 2 misses and 2 hits.
        assert!((a.const_miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ratios_handle_zero() {
        let e = EventCounts::default();
        assert_eq!(e.const_miss_ratio(), 0.0);
        assert_eq!(e.icache_miss_ratio(), 0.0);
    }
}
