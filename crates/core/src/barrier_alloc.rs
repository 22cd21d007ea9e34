//! Named-barrier allocation (paper §4.2): mapping synchronization points
//! onto the 16 physical named barriers per SM.
//!
//! The paper observes this problem is isomorphic to register allocation for
//! SSA-form code (each sync point is a value with a live range in the total
//! order) and therefore solvable in polynomial time. We implement linear-
//! scan interval coloring: a sync point's barrier is live from just before
//! its producer's arrive to its last consumer's wait, and is safely
//! recyclable after the first full-CTA pass barrier following that wait
//! (once every warp has passed a full barrier, no stale arrival can race
//! with a new use). The last physical barrier (15 on a 16-barrier part,
//! 63 on Hopper) is reserved for the pass barriers themselves. The
//! scheduler's pressure pass runs with the same capacity, guaranteeing
//! the available colors suffice.

use crate::sync::Schedule;
use crate::{CResult, CompileError};

/// Maximum physical barriers available for pairwise sync points on a
/// 16-barrier (Fermi/Kepler-class) part — one of the 16 may be claimed by
/// the full-CTA pass barrier. Architectures with larger barrier files
/// (Hopper's 64 entries) pass their own capacity to [`allocate`].
pub const MAX_SYNC_BARRIERS: u8 = 15;

/// Result of barrier allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BarrierAssignment {
    /// Physical barrier per sync point.
    pub of_sync: Vec<u8>,
    /// Physical barrier id for full-CTA pass barriers (first unused color).
    pub full_barrier: u8,
    /// Number of distinct physical barriers used by sync points alone
    /// (the occupancy-relevant count adds one if pass barriers are used,
    /// footnote 1).
    pub barriers_used: usize,
}

/// Allocate physical barriers for a schedule.
///
/// `max_sync_barriers` is the color budget for pairwise sync points (the
/// arch's barrier-file size minus one reserved for pass barriers). The
/// scheduler's pressure pass is run with the same limit, which guarantees
/// allocation succeeds.
pub fn allocate(schedule: &Schedule, max_sync_barriers: u8) -> CResult<BarrierAssignment> {
    let cap = max_sync_barriers.max(1);
    let mut of_sync = vec![0u8; schedule.sync_points.len()];
    // Active intervals: (release_key, physical barrier).
    let mut active: Vec<(u64, u8)> = Vec::new();
    let mut free: Vec<u8> = (0..cap).rev().collect();
    let mut used_max = 0usize;

    for sp in &schedule.sync_points {
        if schedule.subsumed.get(sp.id).copied().unwrap_or(false) {
            continue;
        }
        // A barrier released by a full barrier at key b can be reused by a
        // sync whose first event (its arrive) lies after b; keep the same
        // boundary as the scheduler's pressure pass (b <= arrive - 1).
        let start = sp.arrive_key.saturating_sub(1);
        // Release barriers whose interval ended before `start`: a barrier
        // is reusable after the first full barrier past its last wait.
        let mut i = 0;
        while i < active.len() {
            if active[i].0 <= start {
                free.push(active[i].1);
                active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        let phys = free.pop().ok_or_else(|| {
            CompileError::ResourceExhausted(format!(
                "out of named barriers at sync point {} ({} sync colors available)",
                sp.id,
                cap
            ))
        })?;
        of_sync[sp.id] = phys;
        // The barrier completes at the sync's unified wait key; it can be
        // reused after the first full-CTA barrier past that point (every
        // warp, including stragglers still waking from this barrier, must
        // pass the full barrier before any warp can reach a later use).
        let release = schedule
            .full_barriers
            .iter()
            .copied()
            .find(|&b| b > sp.wait_key)
            .unwrap_or(u64::MAX);
        active.push((release, phys));
        used_max = used_max.max((cap as usize) - free.len());
    }

    // Pass barriers take the first color never used by a sync point.
    let full_barrier = used_max as u8;
    Ok(BarrierAssignment { of_sync, full_barrier, barriers_used: used_max })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{Item, Schedule, SyncPoint};

    fn sp(id: usize, arrive: u64, last_wait: u64) -> SyncPoint {
        SyncPoint {
            id,
            vars: vec![id as u32],
            producer_op: id,
            producer_warp: 0,
            consumer_warps: vec![1],
            arrive_key: arrive,
            wait_key: last_wait,
            last_wait_key: last_wait,
        }
    }

    fn schedule_with(syncs: Vec<SyncPoint>, fulls: Vec<u64>) -> Schedule {
        let n_syncs = syncs.len();
        Schedule {
            items: vec![vec![(0, Item::Op(0))]; 2],
            sync_points: syncs,
            var_slot: vec![],
            n_slots: 0,
            full_barriers: fulls,
            merged_syncs: 0,
            subsumed: vec![false; n_syncs],
        }
    }

    #[test]
    fn disjoint_syncs_reuse_after_full_barrier() {
        // Two sequential syncs separated by a full barrier reuse a barrier.
        let s = schedule_with(vec![sp(0, 10, 20), sp(1, 40, 50)], vec![30]);
        let a = allocate(&s, MAX_SYNC_BARRIERS).unwrap();
        assert_eq!(a.of_sync[0], a.of_sync[1]);
    }

    #[test]
    fn overlapping_syncs_get_distinct_barriers() {
        let s = schedule_with(vec![sp(0, 10, 100), sp(1, 20, 110)], vec![200]);
        let a = allocate(&s, MAX_SYNC_BARRIERS).unwrap();
        assert_ne!(a.of_sync[0], a.of_sync[1]);
    }

    #[test]
    fn no_full_barrier_means_no_reuse() {
        // Without any full barrier, intervals never release.
        let syncs: Vec<SyncPoint> = (0..10).map(|i| sp(i, 10 * i as u64 + 10, 10 * i as u64 + 15)).collect();
        let s = schedule_with(syncs, vec![]);
        let a = allocate(&s, MAX_SYNC_BARRIERS).unwrap();
        let mut ids: Vec<u8> = a.of_sync.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10, "each sync needs its own barrier");
    }

    #[test]
    fn fifteen_live_syncs_exhaust() {
        let syncs: Vec<SyncPoint> = (0..16).map(|i| sp(i, 10, 1000)).collect();
        let s = schedule_with(syncs, vec![]);
        assert!(allocate(&s, MAX_SYNC_BARRIERS).is_err());
    }

    #[test]
    fn heavy_reuse_stays_within_16() {
        // 100 sequential syncs with a full barrier between consecutive ones.
        let syncs: Vec<SyncPoint> = (0..100).map(|i| sp(i, 100 * i as u64 + 50, 100 * i as u64 + 60)).collect();
        let fulls: Vec<u64> = (0..100).map(|i| 100 * i as u64 + 90).collect();
        let s = schedule_with(syncs, fulls);
        let a = allocate(&s, MAX_SYNC_BARRIERS).unwrap();
        assert!(a.barriers_used <= 16);
        assert!(a.of_sync.iter().all(|&b| b < MAX_SYNC_BARRIERS));
        assert!(a.full_barrier >= *a.of_sync.iter().max().unwrap());
    }
}
