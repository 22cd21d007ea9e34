//! Named-barrier placement and scheduling (paper §4.2).
//!
//! Implements the paper's deadlock-free discipline (Theorem 1):
//!
//! 1. every cross-warp data dependence is tagged as a *synchronization
//!    point* (producer arrives, consumers wait);
//! 2. synchronization points inherit a partial order from transitive data
//!    dependences;
//! 3. the partial order is linearized into a total order (we use the
//!    phase-major topological position of the producing op);
//! 4. each warp's operations are scheduled consistently with both its data
//!    dependences and the sync-point total order — every warp's item list
//!    is sorted by a single global key, which *is* a linearization of the
//!    DAG, so the Theorem 1 argument applies directly.
//!
//! The module also implements the paper's schedule transformations
//! (hoisting arrives, grouping sync points for bulk communication), the
//! shared-memory slot allocator that realizes the Store / Buffer / Mixed
//! strategies of §4.1 (inserting full-CTA *pass barriers* when a bounded
//!  pool must recycle slots — the chemistry kernel's "exchanged in passes"),
//! and the §6.2 unsafe barrier-removal ablation hook.

use crate::config::{CompileOptions, Placement};
use crate::dfg::{Dfg, OpId};
use crate::expr::VarId;
use crate::mapping::{Mapping, VarPlace};
use crate::{CResult, CompileError};

/// Synchronization point id (its position in the total order).
pub type SyncId = usize;

/// A synchronization point: one producer op communicating one or more
/// values to a fixed set of consumer warps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SyncPoint {
    /// Total-order id.
    pub id: SyncId,
    /// Vars communicated.
    pub vars: Vec<VarId>,
    /// Producing op.
    pub producer_op: OpId,
    /// Producer warp.
    pub producer_warp: usize,
    /// Consumer warps (sorted, producer excluded).
    pub consumer_warps: Vec<usize>,
    /// Key of the producer's arrive event.
    pub arrive_key: u64,
    /// Key at which every consumer blocks (all waits of a sync point share
    /// one key — the total-order discipline of Theorem 1). The barrier
    /// *completes* here, which is what the §4.2 allocation colors over.
    pub wait_key: u64,
    /// Key of the latest consumer *read* (shared-slot lifetime, not
    /// barrier lifetime).
    pub last_wait_key: u64,
}

impl SyncPoint {
    /// All participating warps (producer + consumers).
    pub fn warps(&self) -> Vec<usize> {
        let mut w = self.consumer_warps.clone();
        w.push(self.producer_warp);
        w.sort_unstable();
        w.dedup();
        w
    }
}

/// A schedule item for one warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Item {
    /// Execute an operation.
    Op(OpId),
    /// Store a var's value into its shared slot (producer side).
    StoreVar(VarId),
    /// Non-blocking arrive on a sync point's barrier (producer side).
    Arrive(SyncId),
    /// Blocking wait on a sync point's barrier (consumer side).
    Wait(SyncId),
    /// Full-CTA pass barrier (slot recycling / barrier-pressure reset).
    FullBarrier(usize),
}

/// Complete schedule: per-warp item lists plus communication metadata.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Per-warp `(key, item)` lists, sorted by key.
    pub items: Vec<Vec<(u64, Item)>>,
    /// Sync points in total order.
    pub sync_points: Vec<SyncPoint>,
    /// Shared slot of each var (32-word slots), if communicated.
    pub var_slot: Vec<Option<usize>>,
    /// Number of distinct shared slots used.
    pub n_slots: usize,
    /// Keys of full-CTA pass barriers.
    pub full_barriers: Vec<u64>,
    /// Sync points merged away by the grouping transformation (§4.2).
    pub merged_syncs: usize,
    /// Sync points subsumed by a full-CTA barrier lying between their
    /// arrive and wait (the pairwise barrier is redundant: the pass
    /// barrier already orders the store before every read). Their
    /// arrive/wait items are not emitted.
    pub subsumed: Vec<bool>,
}

const STRIDE: u64 = 16;

/// Build the schedule for a mapped dataflow graph.
///
/// `max_live_syncs` is the number of named-barrier colors the target
/// architecture offers pairwise sync points (its barrier-file size minus
/// the one barrier reserved for full-CTA pass barriers). The pressure
/// pass inserts a pass barrier whenever that many sync points are live at
/// once, so the §4.2 allocation is guaranteed to succeed. Fermi/Kepler
/// class parts pass 15; a Hopper-class 64-entry barrier file passes 63
/// and consequently almost never needs pressure barriers, which is what
/// lets K-stage pipelining engage on production-size mechanisms.
pub fn schedule(
    dfg: &Dfg,
    mapping: &Mapping,
    options: &CompileOptions,
    max_live_syncs: usize,
) -> CResult<Schedule> {
    let prod = dfg.producers()?;
    let consumers = dfg.consumers();
    let topo = dfg.topo_order()?;
    let mut pos = vec![0u64; dfg.ops.len()];
    for (i, &o) in topo.iter().enumerate() {
        pos[o] = (i as u64 + 1) * STRIDE;
    }

    // --- Sync points: group shared vars by (producer op, consumer set). ---
    #[derive(Clone)]
    struct Pending {
        vars: Vec<VarId>,
        producer_op: OpId,
        consumer_warps: Vec<usize>,
        store_key: u64,
        first_wait_pos: u64,
    }
    let mut pending: Vec<Pending> = Vec::new();
    for v in 0..dfg.n_vars as usize {
        if mapping.var_place[v] != VarPlace::Shared {
            continue;
        }
        let p_op = prod[v];
        let p_warp = mapping.warp_of[p_op];
        let mut cw: Vec<usize> = consumers[v]
            .iter()
            .map(|&c| mapping.warp_of[c])
            .filter(|&w| w != p_warp)
            .collect();
        cw.sort_unstable();
        cw.dedup();
        let first_cons_pos = consumers[v]
            .iter()
            .filter(|&&c| cw.is_empty() || mapping.warp_of[c] != p_warp)
            .map(|&c| pos[c])
            .min()
            .unwrap_or(pos[p_op] + 8);
        // Store placement: right after the producer (Store/Mixed) or lazily
        // just before the first consumer (Buffer — the value lingers in
        // producer registers, §4.1).
        let store_key = match options.placement {
            Placement::Buffer(_) => first_cons_pos.saturating_sub(8),
            _ => pos[p_op] + 4,
        }
        .max(pos[p_op] + 4);
        match pending.iter_mut().find(|g| {
            g.producer_op == p_op && g.consumer_warps == cw && g.store_key == store_key
        }) {
            Some(g) => {
                g.vars.push(v as VarId);
                g.first_wait_pos = g.first_wait_pos.min(first_cons_pos);
            }
            None => pending.push(Pending {
                vars: vec![v as VarId],
                producer_op: p_op,
                consumer_warps: cw,
                store_key,
                first_wait_pos: first_cons_pos,
            }),
        }
    }
    pending.sort_by_key(|g| (g.store_key, g.producer_op));

    // --- Grouping transformation (§4.2): "multiple synchronization points
    // between common sets of warps can be grouped together. This allows for
    // bulk communication through shared memory between warps and reduces
    // the total number of named barrier synchronizations."
    //
    // Two sync points with the same producer warp and consumer set merge
    // (one arrive at the later store) when:
    //  * the producer warp performs no blocking wait between the two
    //    stores (delaying the arrive past one of its own waits could
    //    close a dependence cycle), and
    //  * every consumer's first read still comes after the merged arrive.
    // Wait sites per warp are taken from the unmerged sync list (a
    // conservative superset).
    let mut wait_sites: Vec<Vec<u64>> = vec![Vec::new(); options.warps];
    for g in &pending {
        for &cw in &g.consumer_warps {
            let site = g
                .vars
                .iter()
                .flat_map(|&v| consumers[v as usize].iter())
                .filter(|&&c| mapping.warp_of[c] == cw)
                .map(|&c| pos[c])
                .min();
            if let Some(sitep) = site {
                wait_sites[cw].push(sitep.saturating_sub(4));
            }
        }
    }
    for ws in &mut wait_sites {
        ws.sort_unstable();
    }
    let has_wait_between = |warp: usize, lo: u64, hi: u64| -> bool {
        wait_sites[warp].iter().any(|&k| k > lo && k <= hi)
    };
    let mut merged_syncs = 0usize;
    let mut groups: Vec<Pending> = Vec::new();
    for g in pending {
        let pw = mapping.warp_of[g.producer_op];
        let target = groups.iter_mut().rev().find(|last| {
            let lw = mapping.warp_of[last.producer_op];
            let lo = last.store_key.min(g.store_key);
            let hi = last.store_key.max(g.store_key);
            lw == pw
                && last.consumer_warps == g.consumer_warps
                && !has_wait_between(pw, lo, hi)
                && last.first_wait_pos.min(g.first_wait_pos) > hi + 1
        });
        if let Some(last) = target {
            last.vars.extend_from_slice(&g.vars);
            last.store_key = last.store_key.max(g.store_key);
            last.first_wait_pos = last.first_wait_pos.min(g.first_wait_pos);
            merged_syncs += 1;
        } else {
            groups.push(g);
        }
    }
    groups.sort_by_key(|g| (g.store_key, g.producer_op));

    // Split off store-only groups: frontend-forced shared values with no
    // cross-warp consumer need a slot and a store, but no barrier (the
    // producing warp's own program order covers the read-after-write).
    let store_groups: Vec<Pending> =
        groups.iter().filter(|g| g.consumer_warps.is_empty()).cloned().collect();
    groups.retain(|g| !g.consumer_warps.is_empty());

    let consumers_ref = &consumers;
    let sync_points: Vec<SyncPoint> = groups
        .iter()
        .enumerate()
        .map(|(id, g)| {
            let pw = mapping.warp_of[g.producer_op];
            let last_wait_key = g
                .vars
                .iter()
                .flat_map(|&v| consumers_ref[v as usize].iter())
                .filter(|&&c| mapping.warp_of[c] != pw)
                .map(|&c| pos[c])
                .max()
                .unwrap_or(g.store_key + 1);
            let arrive_key = g.store_key + 1;
            let wait_key = g.first_wait_pos.saturating_sub(4).max(arrive_key + 1);
            SyncPoint {
                id,
                vars: g.vars.clone(),
                producer_op: g.producer_op,
                producer_warp: pw,
                consumer_warps: g.consumer_warps.clone(),
                arrive_key,
                wait_key,
                last_wait_key,
            }
        })
        .collect();

    // --- Per-warp item lists. ---
    let w = options.warps;
    let mut items: Vec<Vec<(u64, Item)>> = vec![Vec::new(); w];
    for (oi, op) in dfg.ops.iter().enumerate() {
        let _ = op;
        items[mapping.warp_of[oi]].push((pos[oi], Item::Op(oi)));
    }
    // Producer-side stores and arrives; consumer-side waits. Stores of a
    // grouped sync keep each var's own producer-adjacent key so values are
    // saved as soon as they exist, while the single arrive covers them all
    // (bulk communication, §4.2).
    for sp in &sync_points {
        let g = &groups[sp.id];
        for &v in &g.vars {
            let vkey = match options.placement {
                Placement::Buffer(_) => g.store_key,
                _ => pos[prod[v as usize]] + 4,
            };
            items[sp.producer_warp].push((vkey, Item::StoreVar(v)));
        }
        items[sp.producer_warp].push((sp.arrive_key, Item::Arrive(sp.id)));
        // Every consumer waits at the SAME key. Scattering a sync point's
        // waits would let a pass barrier fall between them, creating a
        // wait/barrier cycle; a single key per sync point is exactly the
        // paper's total-order discipline (an operation with a lower-
        // numbered synchronization point comes before one with a
        // higher-numbered point).
        for &cw in &sp.consumer_warps {
            items[cw].push((sp.wait_key, Item::Wait(sp.id)));
        }
    }
    for g in &store_groups {
        let pw = mapping.warp_of[g.producer_op];
        for &v in &g.vars {
            items[pw].push((pos[prod[v as usize]] + 4, Item::StoreVar(v)));
        }
    }

    // --- Shared slot allocation (Store / Buffer / Mixed, §4.1). ---
    let budget = match options.placement {
        Placement::Store => usize::MAX,
        Placement::Buffer(n) | Placement::Mixed(n) => n.max(1),
    };
    let mut var_slot: Vec<Option<usize>> = vec![None; dfg.n_vars as usize];
    let mut full_barriers: Vec<u64> = Vec::new();
    // Allocation events in key order: (store_key, var, die_key).
    let mut events: Vec<(u64, VarId, u64)> = Vec::new();
    for sp in &sync_points {
        let g = &groups[sp.id];
        for &v in &g.vars {
            let vkey = match options.placement {
                Placement::Buffer(_) => g.store_key,
                _ => pos[prod[v as usize]] + 4,
            };
            let uniform =
                options.uniform_shared_reads && !matches!(options.placement, Placement::Buffer(_));
            let die = consumers[v as usize]
                .iter()
                .filter(|&&c| uniform || mapping.warp_of[c] != sp.producer_warp)
                .map(|&c| pos[c])
                .max()
                .unwrap();
            events.push((vkey, v, die));
        }
    }
    for g in &store_groups {
        let pw = mapping.warp_of[g.producer_op];
        for &v in &g.vars {
            let vkey = pos[prod[v as usize]] + 4;
            let die = consumers[v as usize].iter().map(|&c| pos[c]).max().unwrap_or(vkey);
            let _ = pw;
            events.push((vkey, v, die));
        }
    }
    events.sort_unstable();
    let mut n_slots = 0usize;
    // (die_key, slot) for live slots; free list for recycled.
    let mut live: Vec<(u64, usize)> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    // Slots only become reusable after a full barrier later than their die
    // key; track slots waiting for a barrier.
    let mut dead_waiting: Vec<(u64, usize)> = Vec::new();
    for (key, v, die) in events {
        // Retire slots whose vars died before an already-inserted barrier.
        let slot = if let Some(s) = free.pop() {
            s
        } else if n_slots < budget {
            n_slots += 1;
            n_slots - 1
        } else {
            // Move dead slots to the waiting list.
            let mut i = 0;
            while i < live.len() {
                if live[i].0 < key {
                    dead_waiting.push(live.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            if dead_waiting.is_empty() {
                return Err(CompileError::ResourceExhausted(format!(
                    "shared slot pool of {budget} exhausted with {} values live",
                    live.len()
                )));
            }
            // Insert a pass barrier just before this store; everything dead
            // before it becomes reusable (all warps have passed their reads).
            let bkey = key.saturating_sub(1);
            full_barriers.push(bkey);
            free.extend(dead_waiting.drain(..).map(|(_, s)| s));
            free.pop().ok_or_else(|| {
                CompileError::ResourceExhausted("no slot freed by pass barrier".into())
            })?
        };
        var_slot[v as usize] = Some(slot);
        live.push((die, slot));
    }

    // --- Barrier-pressure pass: the hardware has a fixed named-barrier
    // file per SM (one entry reserved here for pass barriers). When
    // `max_live_syncs` sync points are live at once, insert a pass
    // barrier *at* the triggering sync's arrive key: every live sync
    // whose wait follows the barrier is subsumed by it (arrive <=
    // barrier <= wait), including the triggering sync itself, so the
    // live set stays within the colors the §4.2 allocation has.
    let mut pressure_subsumed = vec![false; sync_points.len()];
    {
        // Live = (id, wait_key) of unsubsumed syncs not yet released by a
        // full barrier past their completion.
        let mut live: Vec<(usize, u64)> = Vec::new();
        for sp in &sync_points {
            let start = sp.arrive_key.saturating_sub(1);
            live.retain(|&(_, wk)| !full_barriers.iter().any(|&b| b > wk && b <= start));
            if full_barriers
                .iter()
                .any(|&b| b >= sp.arrive_key && b <= sp.wait_key)
            {
                pressure_subsumed[sp.id] = true;
                continue;
            }
            if live.len() >= max_live_syncs.max(1) {
                let bkey = sp.arrive_key;
                full_barriers.push(bkey);
                for &(id, wk) in &live {
                    if wk >= bkey {
                        pressure_subsumed[id] = true;
                    }
                }
                live.retain(|&(_, wk)| wk < bkey);
                // wait_key > arrive_key always, so the trigger is covered.
                pressure_subsumed[sp.id] = true;
                continue;
            }
            live.push((sp.id, sp.wait_key));
        }
        full_barriers.sort_unstable();
        full_barriers.dedup();
    }

    // Subsumption: a sync point whose [arrive, wait] interval contains a
    // full-CTA barrier needs no pairwise barrier at all — the pass barrier
    // orders its stores (all at keys < arrive) before its reads (all at
    // keys > wait). This is both a correctness requirement for the
    // pressure pass above and a §4.2-style barrier-count optimization.
    let subsumed: Vec<bool> = sync_points
        .iter()
        .map(|sp| {
            pressure_subsumed[sp.id]
                || full_barriers
                    .iter()
                    .any(|&b| b >= sp.arrive_key && b <= sp.wait_key)
        })
        .collect();

    for (wi, list) in items.iter_mut().enumerate() {
        list.retain(|(_, it)| match it {
            Item::Arrive(sid) | Item::Wait(sid) => !subsumed[*sid],
            _ => true,
        });
        for (bi, &bk) in full_barriers.iter().enumerate() {
            list.push((bk, Item::FullBarrier(bi)));
        }
        // Sort by key; ties: waits before ops (a consumer op's waits come
        // first), ordered by sync id to respect the total order.
        list.sort_by_key(|(k, it)| (*k, item_rank(it), item_sub(it)));
        let _ = wi;
    }

    Ok(Schedule {
        items,
        sync_points,
        var_slot,
        n_slots,
        full_barriers,
        merged_syncs,
        subsumed,
    })
}

fn item_rank(it: &Item) -> u8 {
    match it {
        Item::FullBarrier(_) => 0,
        Item::Wait(_) => 1,
        Item::Op(_) => 2,
        Item::StoreVar(_) => 3,
        Item::Arrive(_) => 4,
    }
}

fn item_sub(it: &Item) -> u64 {
    match it {
        Item::Wait(s) | Item::Arrive(s) => *s as u64,
        Item::Op(o) => *o as u64,
        Item::StoreVar(v) => *v as u64,
        Item::FullBarrier(b) => *b as u64,
    }
}

impl Schedule {
    /// Sanity check: per-warp keys sorted; waits and arrives reference real
    /// sync points; every op appears exactly once.
    pub fn verify(&self, dfg: &Dfg) -> CResult<()> {
        let mut seen = vec![false; dfg.ops.len()];
        for list in &self.items {
            let mut last = 0u64;
            for (k, it) in list {
                if *k < last {
                    return Err(CompileError::Internal("schedule keys unsorted".into()));
                }
                last = *k;
                match it {
                    Item::Op(o) => {
                        if seen[*o] {
                            return Err(CompileError::Internal(format!("op {o} scheduled twice")));
                        }
                        seen[*o] = true;
                    }
                    Item::Wait(s) | Item::Arrive(s)
                        if *s >= self.sync_points.len() => {
                            return Err(CompileError::Internal("bad sync id".into()));
                        }
                    _ => {}
                }
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err(CompileError::Internal("op missing from schedule".into()));
        }
        Ok(())
    }

    /// Total barrier-participating events (arrives + per-consumer waits +
    /// full barriers across warps) — the §6.2 overhead metric.
    pub fn barrier_events(&self, warps: usize) -> usize {
        self.sync_points
            .iter()
            .filter(|s| !self.subsumed.get(s.id).copied().unwrap_or(false))
            .map(|s| 1 + s.consumer_warps.len())
            .sum::<usize>()
            + self.full_barriers.len() * warps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::test_support::diamond;
    use crate::mapping::map_ops;

    fn sched(warps: usize, placement: Placement) -> (Dfg, Mapping, Schedule) {
        let d = diamond();
        let mut opts = CompileOptions::with_warps(warps);
        opts.placement = placement;
        // Spread the diamond across warps deterministically.
        let mut d2 = d.clone();
        if warps >= 3 {
            d2.ops[0].pinned_warp = Some(0);
            d2.ops[1].pinned_warp = Some(1);
            d2.ops[2].pinned_warp = Some(2);
            d2.ops[3].pinned_warp = Some(0);
        }
        let m = map_ops(&d2, &opts).unwrap();
        let s = schedule(&d2, &m, &opts, 15).unwrap();
        s.verify(&d2).unwrap();
        (d2, m, s)
    }

    #[test]
    fn single_warp_has_no_sync_points() {
        let (_, _, s) = sched(1, Placement::Store);
        assert!(s.sync_points.is_empty());
        assert_eq!(s.n_slots, 0);
    }

    #[test]
    fn cross_warp_edges_create_sync_points() {
        let (_, m, s) = sched(3, Placement::Store);
        // v0 flows 0 -> {1,2}; v1 flows 1 -> 0; v2 flows 2 -> 0.
        assert!(!s.sync_points.is_empty());
        let total_vars: usize = s.sync_points.iter().map(|sp| sp.vars.len()).sum();
        assert_eq!(total_vars, m.shared_vars().len());
        // Every shared var has a slot.
        for v in m.shared_vars() {
            assert!(s.var_slot[v as usize].is_some());
        }
    }

    #[test]
    fn sync_points_are_totally_ordered_by_arrive_key() {
        let (_, _, s) = sched(3, Placement::Store);
        for w in s.sync_points.windows(2) {
            assert!(w[0].arrive_key <= w[1].arrive_key);
        }
    }

    #[test]
    fn waits_precede_consuming_ops() {
        let (_, _, s) = sched(3, Placement::Store);
        // In warp 0's list, the waits for v1/v2 must come before op 3.
        let w0 = &s.items[0];
        let op3_idx = w0.iter().position(|(_, it)| *it == Item::Op(3)).unwrap();
        let wait_idxs: Vec<usize> = w0
            .iter()
            .enumerate()
            .filter(|(_, (_, it))| matches!(it, Item::Wait(_)))
            .map(|(i, _)| i)
            .collect();
        assert!(!wait_idxs.is_empty());
        for wi in wait_idxs {
            let (_, Item::Wait(sid)) = w0[wi] else { unreachable!() };
            if s.sync_points[sid].producer_warp != 0 {
                assert!(wi < op3_idx, "wait {sid} after consuming op");
            }
        }
    }

    #[test]
    fn store_placement_gives_every_var_a_slot() {
        let (_, m, s) = sched(3, Placement::Store);
        assert_eq!(s.n_slots, m.shared_vars().len());
        assert!(s.full_barriers.is_empty());
    }

    #[test]
    fn tiny_buffer_pool_forces_pass_barriers() {
        // 3 shared vars, two of them live simultaneously, pool of 2 slots:
        // recycling requires a pass barrier.
        let (_, m, s) = sched(3, Placement::Buffer(2));
        assert_eq!(m.shared_vars().len(), 3);
        assert_eq!(s.n_slots, 2);
        assert!(!s.full_barriers.is_empty());
    }

    #[test]
    fn impossible_buffer_pool_is_an_error() {
        // Two values are simultaneously live; a pool of 1 cannot work.
        let d = diamond();
        let mut d2 = d.clone();
        d2.ops[0].pinned_warp = Some(0);
        d2.ops[1].pinned_warp = Some(1);
        d2.ops[2].pinned_warp = Some(2);
        d2.ops[3].pinned_warp = Some(0);
        let mut opts = CompileOptions::with_warps(3);
        opts.placement = Placement::Buffer(1);
        let m = map_ops(&d2, &opts).unwrap();
        assert!(schedule(&d2, &m, &opts, 15).is_err());
    }

    #[test]
    fn ops_scheduled_exactly_once_across_warps() {
        let (d, _, s) = sched(3, Placement::Store);
        let mut count = 0;
        for list in &s.items {
            count += list.iter().filter(|(_, it)| matches!(it, Item::Op(_))).count();
        }
        assert_eq!(count, d.ops.len());
    }

    #[test]
    fn barrier_events_counted() {
        let (_, _, s) = sched(3, Placement::Store);
        assert!(s.barrier_events(3) >= s.sync_points.len() * 2);
    }
}
