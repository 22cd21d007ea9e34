//! Static analytical performance model.
//!
//! Predicts the per-warp cycle attribution of a compiled kernel from
//! *static* features alone — the interpreter never runs. Because kernel
//! streams carry no data-dependent control flow (warp branches and loop
//! trip counts are resolved at flatten time), the flattened per-warp
//! streams from [`crate::flatcache`] are exactly the instruction
//! sequences a CTA would execute, and the named-barrier protocol over
//! them can be replayed symbolically:
//!
//! 1. **Segment extraction** — each warp's stream is collapsed into
//!    straight-line segments (aggregated issue slots, branch headers,
//!    constant-line touches) separated by barrier operations.
//! 2. **Constant-cache estimate** — the constant working set
//!    (total bank bytes vs cache capacity) yields a total predicted miss
//!    count, distributed deterministically across warps and segments by
//!    largest-remainder apportionment (the one genuinely dynamic input,
//!    replaced by a working-set model — §6.1's replay discussion).
//! 3. **Barrier replay** — the segments are run as a CTA: the model is a
//!    third *stepper* over `crate::cta::Schedule`, the barrier protocol
//!    and round-robin the interpreter and the engine execute under, and it
//!    carries a real [`Profiler`]. The producer/consumer rate-matching of
//!    `bar.arrive`/`bar.sync` generations, barrier-wait attribution and
//!    the closed-set sum invariant are therefore the executed ones by
//!    construction, and a protocol violation is the one a run would raise.
//! 4. **Instruction-cache model** — the executors' own
//!    `crate::cta::fetch_profile` over the precomputed static address
//!    streams, so the naïve-vs-overlaid icache working-set difference (§5,
//!    Figure 9) is captured exactly.
//!
//! Alongside the cycle attribution the model produces a predicted
//! [`EventCounts`]: issue/DP/FLOP/branch/barrier/local counts are exact
//! (streams are static); shared-memory transactions, global coalescing,
//! and constant hits/misses are estimates. Feeding these into
//! [`crate::timing::estimate`] yields predicted seconds comparable to a
//! simulated probe — the basis for model-guided autotuning.

use crate::arch::GpuArch;
use crate::counts::EventCounts;
use crate::cta::{self, Schedule};
use crate::error::SimError;
use crate::flatcache::flatten_cached;
use crate::interp::{DecodedInstr, FlatOp, FlatProgram};
use crate::isa::{BarOp, IdxOp, Instr, Kernel, SAddr, UnOp};
use crate::profile::{CtaProfile, Profiler, WarpCycles};

/// A set of warps executing the same static instruction stream (one warp
/// class of the flattening, [`FlatProgram::class_of`]) — the model's unit
/// of reporting, matching the paper's producer/consumer warp groups.
#[derive(Debug, Clone)]
pub struct WarpGroup {
    /// Warp ids in the group, ascending; groups are in order of their
    /// lowest warp.
    pub warps: Vec<usize>,
    /// Cycle attribution summed over the group's warps.
    pub cycles: WarpCycles,
}

/// Static per-op mix features for the transcendental floor: how much of
/// the kernel is `exp`, counted from the pre-optimization stream (exactly
/// what the interpreter executes). What the engine lowering then does with
/// those ops is [`crate::flatcache::engine_stats`]'s to report — the model
/// never lowers, so an evaluation costs a stream walk and nothing else.
#[derive(Debug, Clone, Default)]
pub struct OpMix {
    /// Warp-wide `exp` micro-ops executed per CTA (pre-optimization).
    pub exp_ops: u64,
    /// `exp_ops * WARP_SIZE`: scalar exp evaluations per CTA.
    pub exp_lanes: u64,
}

/// The model's output: a predicted per-warp cycle attribution in the
/// same shape the runtime profiler produces, plus predicted event
/// counts and the per-warp-group rollup.
#[derive(Debug, Clone)]
pub struct ModelProfile {
    /// Predicted per-warp attribution (same closed-set invariant as a
    /// profiled run: every warp's reasons sum to `cta.total_cycles`).
    pub cta: CtaProfile,
    /// Predicted event counts (static-exact where possible, estimated
    /// for the cache- and coalescing-dependent fields).
    pub counts: EventCounts,
    /// Per-warp-group attribution, grouped by identical static streams.
    pub groups: Vec<WarpGroup>,
    /// Per-op mix features (exp count).
    pub mix: OpMix,
}

impl ModelProfile {
    /// Index (into `groups`) of the predicted bottleneck group: the one
    /// whose per-warp busy time (everything but idle) is largest —
    /// ties broken toward the lower group index.
    pub fn bottleneck_group(&self) -> usize {
        let mut best = 0usize;
        let mut best_busy = 0u64;
        for (i, g) in self.groups.iter().enumerate() {
            let per_warp = g.cycles.busy() / g.warps.len().max(1) as u64;
            if per_warp > best_busy {
                best_busy = per_warp;
                best = i;
            }
        }
        best
    }

    /// The barrier id predicted to accumulate the most wait cycles
    /// (CTA-wide), with its total; `None` if no barrier ever waited.
    pub fn hottest_barrier(&self) -> Option<(usize, u64)> {
        let totals = self.cta.totals();
        totals
            .barrier_wait
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(b, v)| (v, std::cmp::Reverse(b)))
            .filter(|&(_, v)| v > 0)
    }
}

/// One straight-line run of a warp's stream, terminated by a barrier
/// operation (or stream end, for the final segment).
#[derive(Debug, Clone, Default)]
struct Segment {
    /// Aggregated issue slots of non-barrier instructions.
    issue: u64,
    /// Branch-header overhead cycles.
    overhead: u64,
    /// Number of `LdConst` (double) operations.
    const_ops: u64,
    /// Estimated constant-cache line touches across those ops.
    const_lines: u64,
    /// Predicted line misses (filled by the working-set distribution).
    const_misses: u64,
    /// Terminating barrier operation (`None` for the trailing segment).
    bar: Option<BarOp>,
}

impl Segment {
    /// Add `other`'s work to this segment's.
    fn absorb(&mut self, other: &Segment) {
        self.issue += other.issue;
        self.overhead += other.overhead;
        self.const_ops += other.const_ops;
        self.const_lines += other.const_lines;
    }
}

/// A protocol violation the replay met, as the strings `perfmodel` and the
/// tuner surface it in.
fn model_error(e: SimError) -> String {
    match e {
        SimError::Deadlock { blocked, .. } => {
            let stuck: Vec<usize> = blocked.iter().map(|&(w, _)| w).collect();
            format!("model: predicted deadlock, warps blocked: {stuck:?}")
        }
        SimError::BarrierMismatch { bar, msg } => format!("model: barrier {bar} {msg}"),
        e => format!("model: {e}"),
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Shared-memory transaction estimate for a statically known address
/// pattern `base + imm + lane_stride * lane` over 32 banks of 8-byte
/// words (base assumed lane-uniform, as the codegen emits).
fn shared_tx_estimate(addr: &SAddr, lane_pred: Option<u8>) -> (u64, u64) {
    if lane_pred.is_some() {
        return (1, 0);
    }
    let s = addr.lane_stride as u64;
    let tx = if s == 0 { 1 } else { gcd(s, 32) };
    (tx, tx - 1)
}

/// Estimated distinct constant-cache lines touched by one `LdConst`.
/// An immediate index is a warp-wide broadcast (one line); a register
/// index is assumed lane-striped over consecutive elements (32 doubles
/// span four 64-byte lines), capped by the bank's own extent.
fn const_lines_estimate(kernel: &Kernel, bank: u16, idx: &IdxOp) -> u64 {
    match idx {
        IdxOp::Imm(_) => 1,
        IdxOp::Reg(_) => {
            let bank_bytes =
                kernel.const_banks.get(bank as usize).map(|b| b.len() * 8).unwrap_or(8);
            (bank_bytes.div_ceil(64).max(1) as u64).min(4)
        }
    }
}

/// Apportion `total` across `weights` proportionally with deterministic
/// largest-remainder rounding (ties to the lower index). Each share is
/// capped at its weight; `total` is clamped to the weight sum so the
/// result always sums to `min(total, sum(weights))`.
fn distribute(total: u64, weights: &[u64]) -> Vec<u64> {
    let wsum: u64 = weights.iter().sum();
    let n = weights.len();
    let mut out = vec![0u64; n];
    if wsum == 0 || total == 0 {
        return out;
    }
    let total = total.min(wsum);
    for (i, &w) in weights.iter().enumerate() {
        out[i] = total * w / wsum;
    }
    let mut rem = total - out.iter().sum::<u64>();
    if rem > 0 {
        let mut order: Vec<usize> = (0..n).filter(|&i| weights[i] > 0).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(total * weights[i] % wsum), i));
        let mut j = 0usize;
        while rem > 0 {
            let i = order[j % order.len()];
            if out[i] < weights[i] {
                out[i] += 1;
                rem -= 1;
            }
            j += 1;
        }
    }
    out
}

/// One trip of a run, collapsed for the replay.
struct Trip<'p> {
    /// The segments the trip's barriers close — what ran since the barrier
    /// before — each with its barrier instruction, unresolved.
    closed: Vec<(Segment, &'p Instr)>,
    /// What runs after the trip's last barrier.
    open: Segment,
    /// The trip's static-exact event counts.
    counts: EventCounts,
    /// `exp` ops among the trip's.
    exp_ops: u64,
}

/// Collapse one trip of a run — `ops` — into segments and counts, the work
/// of every trip alike: which op is a barrier, and whether a sync, does not
/// depend on the point set, only which barrier it is. Arithmetic is read
/// off the decoded form; memory, constant, index and async-copy ops and
/// barriers off the [`Instr`] they keep.
#[deny(clippy::wildcard_enum_match_arm)]
fn collapse_trip<'p>(kernel: &Kernel, prog: &'p FlatProgram, ops: &[FlatOp]) -> Trip<'p> {
    let (mut closed, mut cur) = (Vec::new(), Segment::default());
    let (mut counts, mut exp_ops) = (EventCounts::default(), 0u64);
    for op in ops {
        let Some(i) = op.instr() else {
            counts.issue_slots += 1;
            counts.warp_branches += 1;
            cur.overhead += 1;
            continue;
        };
        let cost = prog.costs[i];
        counts.issue_slots += cost.slots();
        if cost.dp {
            counts.dp_slots += cost.slots();
            counts.flops += cost.flops_warp();
            counts.dp_const_slots += cost.const_slots();
        }
        let slow = match prog.decoded[i] {
            // A barrier closes the segment.
            DecodedInstr::Barrier(k) => {
                let ins = &prog.instrs[k as usize];
                if ins.barrier_op(0).expect("decoded as a barrier").sync {
                    counts.barrier_syncs += 1;
                } else {
                    counts.barrier_arrives += 1;
                }
                closed.push((std::mem::take(&mut cur), ins));
                continue;
            }
            DecodedInstr::Slow(k) => Some(&prog.instrs[k as usize]),
            DecodedInstr::LdLocal { .. } | DecodedInstr::StLocal { .. } => {
                counts.local_bytes += (crate::WARP_SIZE * 8) as u64;
                None
            }
            DecodedInstr::Un { kind, .. } => {
                exp_ops += u64::from(kind == UnOp::Exp);
                None
            }
            // Issue slots are all the model has to say of these.
            DecodedInstr::Bin { .. }
            | DecodedInstr::Fma { .. }
            | DecodedInstr::Sel { .. }
            | DecodedInstr::CmpOp { .. }
            | DecodedInstr::Shfl { .. }
            | DecodedInstr::Invalid { .. } => None,
        };
        cur.issue += cost.slots();
        let Some(ins) = slow else { continue };
        match ins {
            Instr::CpAsync { addr, .. } => {
                // One coalesced global read plus one shared store,
                // registers untouched.
                counts.global_transactions += 2;
                counts.global_bytes += 256;
                let (tx, conf) = shared_tx_estimate(addr, None);
                counts.shared_accesses += tx;
                counts.shared_conflicts += conf;
            }
            Instr::LdConst { bank, idx, .. } => {
                cur.const_ops += 1;
                cur.const_lines += const_lines_estimate(kernel, *bank, idx);
            }
            Instr::LdShared { addr, .. } => {
                let (tx, conf) = shared_tx_estimate(addr, None);
                counts.shared_accesses += tx;
                counts.shared_conflicts += conf;
            }
            Instr::StShared { addr, lane_pred, .. } => {
                let (tx, conf) = shared_tx_estimate(addr, *lane_pred);
                counts.shared_accesses += tx;
                counts.shared_conflicts += conf;
            }
            Instr::LdGlobal { .. } | Instr::StGlobal { .. } => {
                // 32 consecutive doubles span two 128-byte transactions
                // (the codegen's point layout).
                counts.global_transactions += 2;
                counts.global_bytes += 256;
            }
            Instr::Idx(_) => {}
            Instr::Un { .. }
            | Instr::Bin { .. }
            | Instr::DFma { .. }
            | Instr::DSel { .. }
            | Instr::DCmp { .. }
            | Instr::LdLocal { .. }
            | Instr::StLocal { .. }
            | Instr::Shfl { .. }
            | Instr::BarArrive { .. }
            | Instr::BarSync { .. }
            | Instr::BarArriveStage { .. }
            | Instr::BarSyncStage { .. } => unreachable!("decoded onto the fast path or a barrier"),
        }
    }
    Trip { closed, open: cur, counts, exp_ops }
}

/// Predict the per-warp cycle attribution and event counts of one CTA of
/// `kernel` on `arch` without interpreting it. Errors only on protocol
/// violations the interpreter would also reject (barrier expected-count
/// mismatch, deadlock) — compiled-and-verified kernels never hit them.
pub fn predict(kernel: &Kernel, arch: &GpuArch) -> Result<ModelProfile, String> {
    let prog = flatten_cached(kernel);
    predict_flat(kernel, &prog, arch)
}

/// Scoring hook for schedule-search loops: the predicted per-CTA cycle
/// total alone. Same model as [`predict`] (the profile build is what
/// costs; flattening is cached process-wide), but the single-number
/// contract is what search cost functions and reports want to rank by.
pub fn predict_cycles(kernel: &Kernel, arch: &GpuArch) -> Result<u64, String> {
    predict(kernel, arch).map(|p| p.cta.total_cycles)
}

/// [`predict`] over an already-flattened program (the model's static
/// feature source; [`predict`] obtains it from the process-wide cache).
pub fn predict_flat(
    kernel: &Kernel,
    prog: &FlatProgram,
    arch: &GpuArch,
) -> Result<ModelProfile, String> {
    let nw = prog.n_warps();
    let mut counts = EventCounts::default();

    // Pass 1: collapse each warp's stream into barrier-separated
    // segments, with the static-exact event counts. A run's trip is
    // collapsed once ([`collapse_trip`]) and laid down `trips` times, each
    // barrier resolved at its trip's point set — stage barriers rotate with
    // it, so the replay sees plain barrier ops — and the segment still open
    // at a trip's end carries into the next; its counts are the trip's
    // times `trips`.
    let mut exp_ops = 0u64;
    let mut segs: Vec<Vec<Segment>> = vec![Vec::new(); nw];
    for w in 0..nw {
        let mut cur = Segment::default();
        for run in prog.runs(w) {
            let trip = collapse_trip(kernel, prog, prog.run_ops(w, run));
            counts.merge_times(&trip.counts, u64::from(run.trips));
            exp_ops += trip.exp_ops * u64::from(run.trips);
            for t in 0..run.trips {
                for (body, ins) in &trip.closed {
                    cur.absorb(body);
                    cur.bar = ins.barrier_op(run.pset(t));
                    segs[w].push(std::mem::take(&mut cur));
                }
                cur.absorb(&trip.open);
            }
        }
        if cur.issue + cur.overhead + cur.const_ops > 0 {
            segs[w].push(cur);
        }
    }

    // Pass 2: constant-cache working-set estimate. Total predicted
    // misses = cold misses for the footprint, plus a thrash share of the
    // remaining accesses once the footprint exceeds capacity; then
    // apportioned warps -> segments by line-touch weight.
    let accesses: u64 = segs.iter().flatten().map(|s| s.const_lines).sum();
    let const_bytes: usize = kernel.const_banks.iter().map(|b| b.len() * 8).sum();
    let footprint = (const_bytes as u64).div_ceil(64);
    let capacity = (arch.const_cache_bytes as u64 / 64).max(1);
    let miss_total = if accesses == 0 {
        0
    } else {
        let cold = footprint.min(accesses);
        if footprint <= capacity {
            cold
        } else {
            (cold + (accesses - cold) * (footprint - capacity) / footprint).min(accesses)
        }
    };
    let warp_weights: Vec<u64> = segs.iter().map(|s| s.iter().map(|g| g.const_lines).sum()).collect();
    let warp_misses = distribute(miss_total, &warp_weights);
    for (w, segments) in segs.iter_mut().enumerate() {
        let weights: Vec<u64> = segments.iter().map(|g| g.const_lines).collect();
        let shares = distribute(warp_misses[w], &weights);
        for (g, m) in segments.iter_mut().zip(shares) {
            g.const_misses = m;
        }
    }
    counts.const_misses = miss_total;
    counts.const_hits = accesses - miss_total;

    // Pass 3: run the segments as a CTA, on the executors' own schedule and
    // with a real profiler: this stepper charges a segment's cost and hands
    // its barrier op to the protocol.
    let mut p = Profiler::new(nw, cta::barrier_file_len(kernel), false, arch);
    let mut sched = Schedule::new(kernel, Some(&mut p));
    let mut pos = vec![0usize; nw];
    let replay = |sched: &mut Schedule<'_>, w: usize| {
        let mut ran = false;
        loop {
            let Some(seg) = segs[w].get(pos[w]) else {
                sched.finish(w);
                return Ok(ran);
            };
            pos[w] += 1;
            ran = true;
            let p = sched.profiler.as_deref_mut().expect("the replay carries a profiler");
            // Every load touches one line or more: its replay is the
            // lines past its first.
            let replay_lines = seg.const_lines - seg.const_ops;
            p.on_segment(w, seg.issue, seg.overhead, replay_lines, seg.const_misses);
            if let Some(bar) = seg.bar {
                if sched.barrier(w, bar)? {
                    return Ok(ran);
                }
            }
        }
    };
    sched.run(0, replay).map_err(model_error)?;
    counts.barrier_stall_switches = sched.stall_switches();

    // Pass 4: instruction-cache model over the static address streams —
    // the computation a collecting run performs, so this term is exact.
    cta::fetch_profile(prog, arch, &mut counts, sched.profiler);

    let cta = p.finish();

    // Warp groups: the flattening's warp classes.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); prog.n_classes()];
    for w in 0..nw {
        members[prog.class_of(w)].push(w);
    }
    let groups = members
        .into_iter()
        .map(|warps| {
            let mut cycles = WarpCycles::default();
            for &w in &warps {
                cycles.accumulate(&cta.warps[w]);
            }
            WarpGroup { warps, cycles }
        })
        .collect();

    let mix = OpMix { exp_ops, exp_lanes: exp_ops * crate::WARP_SIZE as u64 };

    Ok(ModelProfile { cta, counts, groups, mix })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{ArrayDecl, BinOp, Node, Op};

    fn kernel_with(body: Vec<Node>, warps: usize) -> Kernel {
        Kernel {
            name: "model-test".into(),
            body,
            warps_per_cta: warps,
            points_per_cta: 32,
            dregs_per_thread: 8,
            iregs_per_thread: 4,
            shared_words: 128,
            local_words_per_thread: 2,
            const_banks: vec![vec![1.0; 16]],
            iconst_banks: vec![],
            barriers_used: 4,
            global_arrays: vec![ArrayDecl { name: "out".into(), rows: 1, output: true }],
            spilled_bytes_per_thread: 0,
            exp_const_from_registers: false,
        }
    }

    fn arch() -> GpuArch {
        GpuArch::kepler_k20c()
    }

    #[test]
    fn attribution_sums_to_total_for_every_warp() {
        let body = vec![
            Node::WarpIf {
                mask: 0b01,
                body: vec![
                    Node::Op(Instr::Un { op: UnOp::Exp, dst: 0, a: Op::Imm(1.0) }),
                    Node::Op(Instr::BarArrive { bar: 0, warps: 2 }),
                ],
            },
            Node::WarpIf {
                mask: 0b10,
                body: vec![Node::Op(Instr::BarSync { bar: 0, warps: 2 })],
            },
        ];
        let k = kernel_with(body, 2);
        let m = predict(&k, &arch()).unwrap();
        m.cta.check_attribution().unwrap();
        assert_eq!(m.cta.warps.len(), 2);
    }

    #[test]
    fn consumer_waits_on_slow_producer() {
        // Warp 0 syncs immediately and blocks (it is scheduled first);
        // warp 1 does heavy work then arrives — warp 0 is charged the
        // wait, exactly as the interpreter-driven profiler would.
        let body = vec![
            Node::WarpIf {
                mask: 0b01,
                body: vec![Node::Op(Instr::BarSync { bar: 1, warps: 2 })],
            },
            Node::WarpIf {
                mask: 0b10,
                body: vec![
                    Node::Loop {
                        count: 10,
                        body: vec![Node::Op(Instr::Un { op: UnOp::Exp, dst: 0, a: Op::Imm(1.0) })],
                    },
                    Node::Op(Instr::BarArrive { bar: 1, warps: 2 }),
                ],
            },
        ];
        let k = kernel_with(body, 2);
        let m = predict(&k, &arch()).unwrap();
        assert!(m.cta.warps[0].barrier_wait[1] > 0, "consumer should wait: {:?}", m.cta.warps);
        assert_eq!(m.cta.warps[1].barrier_wait_total(), 0);
        assert_eq!(m.hottest_barrier().unwrap().0, 1);
        m.cta.check_attribution().unwrap();
    }

    #[test]
    fn predictions_are_deterministic() {
        let body = vec![
            Node::Op(Instr::Bin { op: BinOp::Add, dst: 0, a: Op::Imm(1.0), b: Op::Imm(2.0) }),
            Node::Op(Instr::BarSync { bar: 0, warps: 3 }),
            Node::Op(Instr::Bin { op: BinOp::Mul, dst: 0, a: Op::Reg(0), b: Op::Imm(2.0) }),
        ];
        let k = kernel_with(body, 3);
        let a = predict(&k, &arch()).unwrap();
        let b = predict(&k, &arch()).unwrap();
        assert_eq!(a.cta, b.cta);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn groups_split_by_stream_identity() {
        let body = vec![
            Node::WarpSwitch {
                case_of_warp: vec![0, 0, 1],
                cases: vec![
                    vec![Node::Op(Instr::Bin {
                        op: BinOp::Add,
                        dst: 0,
                        a: Op::Imm(1.0),
                        b: Op::Imm(2.0),
                    })],
                    vec![Node::Op(Instr::Un { op: UnOp::Exp, dst: 0, a: Op::Imm(1.0) })],
                ],
            },
        ];
        let k = kernel_with(body, 3);
        let m = predict(&k, &arch()).unwrap();
        assert_eq!(m.groups.len(), 2);
        assert_eq!(m.groups[0].warps, vec![0, 1]);
        assert_eq!(m.groups[1].warps, vec![2]);
    }

    #[test]
    fn protocol_violations_keep_their_strings() {
        // What `perfmodel` and the tuner surface as a `TuneFailure`, byte
        // for byte. A circular wait: each warp syncs on a barrier only the
        // other could complete.
        let only = |warp: u64, ins| Node::WarpIf { mask: 1 << warp, body: vec![Node::Op(ins)] };
        let circular = vec![
            only(0, Instr::BarSync { bar: 0, warps: 2 }),
            only(1, Instr::BarSync { bar: 1, warps: 2 }),
        ];
        assert_eq!(
            predict(&kernel_with(circular, 2), &arch()).unwrap_err(),
            "model: predicted deadlock, warps blocked: [0, 1]"
        );
        // Two warps disagreeing on how many a barrier expects.
        let mismatch = vec![
            only(0, Instr::BarArrive { bar: 2, warps: 2 }),
            only(1, Instr::BarSync { bar: 2, warps: 3 }),
        ];
        assert_eq!(
            predict(&kernel_with(mismatch, 2), &arch()).unwrap_err(),
            "model: barrier 2 expected-count mismatch: 2 vs 3"
        );
    }

    #[test]
    fn distribute_is_exact_and_capped() {
        let shares = distribute(7, &[3, 0, 5, 2]);
        assert_eq!(shares.iter().sum::<u64>(), 7);
        assert_eq!(shares[1], 0);
        for (s, w) in shares.iter().zip([3u64, 0, 5, 2]) {
            assert!(*s <= w);
        }
        // Over-asking clamps to the weight sum.
        let all = distribute(100, &[2, 3]);
        assert_eq!(all, vec![2, 3]);
    }
}
