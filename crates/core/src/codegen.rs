//! Warp-specialized code generation (paper §5).
//!
//! Takes a mapped and scheduled dataflow graph and emits a `gpu-sim`
//! kernel using the paper's techniques:
//!
//! * **Overlaying** (§5.1): per-warp item streams are walked with
//!   simultaneous cursors; when several warps' next operations are
//!   structurally identical *and* resolve to identical code (registers,
//!   shared addresses, constant segment), one instance is emitted for the
//!   whole group under a bit-mask `WarpIf`. The paper's footnote about
//!   "standardizing variable names" corresponds to our code-equality
//!   check: a candidate warp joins the group only if its resolved code is
//!   bit-identical to the seed's.
//! * **Constant arrays with padding** (§5.2): every warp has its own
//!   constant array, as long as its own operations need. A warp-private
//!   emission appends to its warp's array alone. An overlaid emission reads
//!   one offset in each member's array — where the longest member's array
//!   ends — so the shorter members pad up to it, and warps outside the
//!   group get nothing. The arrays' stride, and with it the constant
//!   registers every thread preloads, is the longest warp's array: the
//!   per-warp maximum, not the sum over warps.
//! * **Constant deduplication** (§5.2): per-warp constant arrays are
//!   striped across the 32 lanes into registers loaded once in the kernel
//!   preamble (hoisted above the streaming point loop), and broadcast at
//!   each use — via shared-memory mirror on Fermi (Listing 2) or shuffle
//!   instructions on Kepler (Listing 3).
//! * **Warp indexing** (§5.3): per-instance global rows become per-warp
//!   integer constants loaded through an index constant bank, so overlaid
//!   code performs warp-dependent addressing without branching.

use crate::barrier_alloc::{allocate, BarrierAssignment};
use crate::config::{CompileOptions, Placement};
use crate::dfg::{Dfg, GraphFacts, OpId, Operation};
use crate::expr::{
    emit_stmts, lay_out_registers, linear_scan, EmitCtx, Expr, Homes, NodeSink, RowRef, Scratch,
    Stmt, VarId, N_SCRATCH, VR_LOCAL, VR_VAR,
};
use crate::mapping::{map_ops, Mapping};
use crate::sync::{schedule, Item, Schedule};
use crate::verify::{Verified, VerifyReport};
use crate::{CResult, CompileError};
use gpu_sim::arch::{BroadcastKind, GpuArch};
use gpu_sim::interp::FlatProgram;
use gpu_sim::isa::{
    GlobalId, IdxInstr, IdxOp, Instr, Kernel, Node, Op, PointRef, Reg, SAddr,
};
use gpu_sim::WARP_SIZE;
use std::sync::Arc;

/// Version of what the compiler emits — all three variants: this module's
/// warp-specialized kernels, `baseline`'s data-parallel ones and `naive`'s
/// warp switch. A persistent cache of compiled kernels
/// (`singe_serve::artifact`) folds it into its keys and container header,
/// so a cache directory never outlives the code generator that filled it.
/// Bump it with any change that moves an emitted byte of any variant —
/// `tests/emission_digest.rs` is the tripwire — and re-record the digests.
///
/// History: 1 was the union constant layout (every warp's array carried
/// every emission's segment; never recorded in a key); 2 packs each warp's
/// constants to its own maximum and merges adjacent same-mask guards.
pub const CODEGEN_VERSION: u32 = 2;

/// Compilation statistics (autotuner and report inputs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileStats {
    /// Synchronization points after grouping.
    pub sync_points: usize,
    /// Sync points merged by the grouping transformation.
    pub merged_syncs: usize,
    /// Physical named barriers used.
    pub barriers_used: usize,
    /// Shared 32-word slots used for communication.
    pub shared_slots: usize,
    /// Constant registers per thread (Figure 10 metric).
    pub const_regs_per_thread: usize,
    /// Overlaid emission groups covering more than one warp.
    pub overlay_groups: usize,
    /// Emissions that ended up warp-private.
    pub solo_groups: usize,
    /// Vars spilled to local memory.
    pub spilled_vars: usize,
    /// Per-warp double-constant array length (after padding).
    pub const_array_len: usize,
    /// FLOP imbalance of the mapping (max/mean).
    pub flop_imbalance: f64,
    /// Effective pipeline depth K after clamping and fallback gates
    /// (1 = classic single-buffered protocol).
    pub pipeline_depth: usize,
    /// Full CTA-wide pass barriers in the schedule. When non-zero the
    /// schedule already rendezvouses every warp and pipelining is
    /// disabled (`pipeline_depth` reads 1 regardless of the request).
    pub full_barriers: usize,
}

/// A compiled kernel plus its statistics.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The executable kernel.
    pub kernel: Kernel,
    /// Statistics.
    pub stats: CompileStats,
    /// What the verifier found of `kernel`, when compiling ran it
    /// ([`crate::verify::runs_for`] the options): see [`Compiled::flat`]
    /// and [`Compiled::verdict`].
    pub(crate) verified: Option<Verified>,
}

impl Compiled {
    /// The flattening of `kernel`: the one the compile already made, handed
    /// on so that scoring ([`crate::perfmodel::predict_flat`]) or launching
    /// ([`gpu_sim::launch::launch_flat`]) a fresh kernel does not encode and
    /// hash it a second time to find that flattening in the cache; failing
    /// that, [`gpu_sim::flatcache::flatten_cached`]. It is of `kernel` as
    /// compiled, so not for a caller that has edited `kernel` since.
    pub fn flat(&self) -> Arc<FlatProgram> {
        match &self.verified {
            Some(verified) => verified.flat.clone(),
            None => gpu_sim::flatcache::flatten_cached(&self.kernel),
        }
    }

    /// The verifier's report on `kernel`: `Some` exactly when the compile's
    /// options ran the verifier ([`crate::verify::runs_for`]) — which then
    /// passed, a violation being a compile error. The one verdict of the
    /// compile: asking [`crate::verify::verify_kernel`] instead hashes the
    /// kernel again to find this report in its memo.
    pub fn verdict(&self) -> Option<&VerifyReport> {
        self.verified.as_ref().map(|verified| &verified.report)
    }
}

/// Virtual register of constant register 0 (scratch, locals and var homes
/// have theirs in `expr`; all are laid out after emission).
const VR_CREG: Reg = 1 << 14;
// Index registers (fixed layout).
const IR_WARP: u16 = 0;
const IR_LANE: u16 = 1;
const IR_CBASE: u16 = 2;
const IR_IBASE: u16 = 3;
const IR_SCRATCH: u16 = 4;
const N_IREGS: usize = 6;
/// Pipeline ring offset `(pset % K) * n_slots * 32`, written by a
/// `PipeOff` at the top of each point iteration. Only allocated when the
/// pipeline depth K > 1.
const IR_PIPE: u16 = 6;
/// Pipelined warp-index segment anchor: `warp * K * istride`, computed in
/// the preamble. Each point iteration rebases `IR_IBASE` to
/// `IR_IPIPE + (pset % K) * istride`, selecting the stage-r copy of the
/// warp's index-constant segment (slot offsets pre-displaced by
/// `r * n_slots * 32`), so warp-indexed shared reads cost exactly the
/// same instructions as the single-buffered protocol.
const IR_IPIPE: u16 = 7;

/// Named-barrier colors available to pairwise sync points on `arch`: the
/// barrier file minus one entry reserved for full-CTA pass barriers,
/// clamped to the `u8` id space of the ISA's barrier operands.
fn sync_barrier_budget(arch: &GpuArch) -> u8 {
    arch.named_barriers_per_sm.saturating_sub(1).clamp(1, 255) as u8
}

/// What of [`CompileOptions`] is still read once a schedule is planned — by
/// [`emit`] and by the verifier after it — with every "request" resolved to
/// what it comes to for the schedule in hand. [`emit`] takes no options and
/// destructures this, so an option cannot reach emitted code without being
/// a field here, and so without entering [`EmitPlan`]'s equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct EmitFlags {
    /// Warps per CTA.
    pub(crate) warps: usize,
    /// Streaming point-sets per CTA.
    pub(crate) point_iters: u32,
    /// Pipeline depth K the kernel runs at ([`effective_depth`]), not the
    /// one requested.
    pub(crate) depth: usize,
    /// Uniform shared reads as in force: requested, and not under
    /// `Placement::Buffer`.
    pub(crate) uniform_reads: bool,
    /// §6.2 ablation: emit no barrier.
    pub(crate) unsafe_remove_barriers: bool,
    /// §6.1 ablation, a field of the kernel.
    pub(crate) exp_const_from_registers: bool,
    /// Whether the emitted kernel is held to the verifier
    /// ([`check_emitted`]).
    pub(crate) verify: bool,
}

impl EmitFlags {
    /// The only reader of `options` from here on (with the depth clamp).
    fn resolve(
        options: &CompileOptions,
        sched: &Schedule,
        barriers: &BarrierAssignment,
        arch: &GpuArch,
    ) -> EmitFlags {
        EmitFlags {
            warps: options.warps,
            point_iters: options.point_iters,
            depth: effective_depth(options, sched, barriers, arch),
            uniform_reads: options.uniform_shared_reads
                && !matches!(options.placement, Placement::Buffer(_)),
            unsafe_remove_barriers: options.unsafe_remove_barriers,
            exp_const_from_registers: options.exp_const_from_registers,
            verify: crate::verify::runs_for(options),
        }
    }
}

/// The pipeline depth K a schedule runs at (K-stage multi-buffered
/// producer/consumer). K > 1 replicates every communicated slot K times and
/// rotates per-stage full/empty barrier pairs so producers may run up to K
/// point sets ahead of consumers. Schedules that already rendezvous the
/// whole CTA (pass barriers), have nothing to communicate, or ablate
/// barriers away fall back to the classic single-buffered protocol. The
/// option is a *request*: it is lowered to the largest value the stream, the
/// arch's barrier file and its shared memory can host, so an autotuner may
/// probe aggressive depths without tripping resource errors — and most of
/// what it probes comes to a depth it has already seen.
fn effective_depth(
    options: &CompileOptions,
    sched: &Schedule,
    barriers: &BarrierAssignment,
    arch: &GpuArch,
) -> usize {
    let mut k = options.pipeline_depth.max(1).min(options.point_iters.max(1) as usize);
    if sched.sync_points.is_empty()
        || !sched.full_barriers.is_empty()
        || options.unsafe_remove_barriers
        || options.point_iters <= 1
    {
        k = 1;
    }
    // K rotated ids per sync-point color plus the K-entry empty ring must
    // fit the barrier file; K copies of every slot must fit SMEM.
    while k > 1
        && ((barriers.barriers_used + 1) * k > arch.named_barriers_per_sm
            || k * sched.n_slots * WARP_SIZE * 8 > arch.shared_per_sm)
    {
        k -= 1;
    }
    k
}

/// A compile at the one point where all that follows — the kernel, its
/// statistics, the verifier's verdict, the model's score — is a pure
/// function of what is in hand (and of the graph and the arch): two option
/// sets with equal plans compile to the same bytes. Most of a beam's
/// candidates differ from an earlier one in a mapping weight that moves no
/// op, a toggle the placement overrides or a depth that clamps to one
/// already tried, and so arrive here equal to it; [`crate::search::Tuner`]
/// finishes and scores each distinct plan once.
///
/// Both warp-specialized emitters start here: the overlaid [`emit`] and
/// the naive warp switch (`naive`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct EmitPlan {
    /// Shared by every plan of one [`FrontKey`] within a search.
    pub(crate) front: Arc<Front>,
    pub(crate) flags: EmitFlags,
}

/// What of [`CompileOptions`] the front half of a compile reads — the
/// mapper and the scheduler — and nothing else, floats by their bits: two
/// option sets with one key map, schedule and allocate alike, so
/// [`crate::search::Tuner`] plans each key once. [`FrontKey::of`]
/// destructures every option, so an option added to [`CompileOptions`] does
/// not compile until it is classified there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct FrontKey {
    warps: usize,
    w_flops: u64,
    w_regs: u64,
    w_locality: u64,
    placement: Placement,
    uniform_shared_reads: bool,
}

impl FrontKey {
    pub(crate) fn of(options: &CompileOptions) -> FrontKey {
        let &CompileOptions {
            warps,
            w_flops,
            w_regs,
            w_locality,
            placement,
            uniform_shared_reads,
            // Read once a schedule is in hand (`EmitFlags::resolve`), or by
            // nothing in the compiler.
            point_iters: _,
            target_ctas_per_sm: _,
            exp_const_from_registers: _,
            unsafe_remove_barriers: _,
            verify: _,
            pipeline_depth: _,
        } = options;
        FrontKey {
            warps,
            w_flops: w_flops.to_bits(),
            w_regs: w_regs.to_bits(),
            w_locality: w_locality.to_bits(),
            placement,
            uniform_shared_reads,
        }
    }

    /// The options the front half runs on: the key's, and defaults for
    /// what it does not read.
    fn options(&self) -> CompileOptions {
        CompileOptions {
            warps: self.warps,
            w_flops: f64::from_bits(self.w_flops),
            w_regs: f64::from_bits(self.w_regs),
            w_locality: f64::from_bits(self.w_locality),
            placement: self.placement,
            uniform_shared_reads: self.uniform_shared_reads,
            ..CompileOptions::default()
        }
    }
}

/// The front half of a compile: the mapping, the checked schedule and its
/// barriers. A function of the graph, the arch and the [`FrontKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Front {
    pub(crate) mapping: Mapping,
    pub(crate) sched: Schedule,
    pub(crate) barriers: BarrierAssignment,
}

impl EmitPlan {
    /// The plan of a compile with `options` whose front half is `front`.
    pub(crate) fn new(front: Arc<Front>, options: &CompileOptions, arch: &GpuArch) -> EmitPlan {
        let flags = EmitFlags::resolve(options, &front.sched, &front.barriers, arch);
        EmitPlan { front, flags }
    }

    /// The barrier instruction schedule item `item` lowers to in a kernel
    /// of pipeline depth `k`: plain named barriers at `k` = 1; at `k` > 1
    /// stage-rotated ones, sync point `s` owning the `k` ids from
    /// `of_sync[s] * k`. `None` for an item that is no barrier, and for
    /// every item under the §6.2 ablation.
    pub(crate) fn barrier(&self, item: Item, k: usize) -> Option<Instr> {
        if self.flags.unsafe_remove_barriers {
            return None;
        }
        let Front { sched, barriers, .. } = &*self.front;
        let sync = |s: usize| (barriers.of_sync[s], sched.sync_points[s].warps().len() as u16);
        let stage_base = |bar: u8| (usize::from(bar) * k) as u8;
        Some(match item {
            Item::FullBarrier(_) => {
                Instr::BarSync { bar: barriers.full_barrier, warps: self.flags.warps as u16 }
            }
            Item::Wait(s) => {
                let (bar, warps) = sync(s);
                if k > 1 {
                    Instr::BarSyncStage { base: stage_base(bar), k: k as u8, warps }
                } else {
                    Instr::BarSync { bar, warps }
                }
            }
            Item::Arrive(s) => {
                let (bar, warps) = sync(s);
                if k > 1 {
                    Instr::BarArriveStage { base: stage_base(bar), k: k as u8, warps }
                } else {
                    Instr::BarArrive { bar, warps }
                }
            }
            Item::Op(_) | Item::StoreVar(_) => return None,
        })
    }

    /// The end-of-iteration rendezvous of a single-buffered kernel, if it
    /// has one: a CTA-wide barrier closing each point iteration, so shared
    /// slots can be reused by the next point set without racing ahead.
    pub(crate) fn rendezvous(&self) -> Option<Instr> {
        let needed = !self.front.sched.sync_points.is_empty()
            && !self.flags.unsafe_remove_barriers
            && self.flags.point_iters > 1;
        needed.then_some(Instr::BarSync {
            bar: self.front.barriers.full_barrier,
            warps: self.flags.warps as u16,
        })
    }

    /// Named barriers a kernel of pipeline depth `k` declares.
    pub(crate) fn kernel_barriers(&self, k: usize, arch: &GpuArch) -> CResult<usize> {
        let used = self.front.barriers.barriers_used;
        if k == 1 {
            // The sync-point colors plus the pass barrier, if any. `allocate`
            // colors within `sync_barrier_budget`, the barrier file less one,
            // so on any arch with two or more named barriers the `min` never
            // binds: this is the count the kernel declares and the one its
            // statistics report alike.
            let uses_full =
                !self.front.sched.full_barriers.is_empty() || self.rendezvous().is_some();
            return Ok((used + usize::from(uses_full)).max(1).min(arch.named_barriers_per_sm));
        }
        // K rotated ids per sync-point color plus the K-entry empty ring.
        // The depth clamp already bounded this by the barrier file.
        let n = (used + 1) * k;
        if n > arch.named_barriers_per_sm {
            return Err(CompileError::ResourceExhausted(format!(
                "pipeline depth {} needs {} named barriers ({} sync colors + the empty \
                 ring) but {} has only {}",
                k, n, used, arch.name, arch.named_barriers_per_sm
            )));
        }
        Ok(n)
    }
}

/// The first half of a compile, for a graph that validates: the front half
/// ([`front_half`]), then the options resolved against it.
pub(crate) fn plan(
    dfg: &Dfg,
    options: &CompileOptions,
    arch: &GpuArch,
    timer: &mut crate::compiler::StageTimer<'_>,
) -> CResult<EmitPlan> {
    let front = front_half(dfg, &FrontKey::of(options), arch, timer)?;
    Ok(EmitPlan::new(Arc::new(front), options, arch))
}

/// Map, schedule, check the schedule, allocate barriers: what a compile
/// with options of key `key` does first.
pub(crate) fn front_half(
    dfg: &Dfg,
    key: &FrontKey,
    arch: &GpuArch,
    timer: &mut crate::compiler::StageTimer<'_>,
) -> CResult<Front> {
    let options = key.options();
    let mapping = map_ops(dfg, &options)?;
    timer.mark("mapping");
    let max_sync = sync_barrier_budget(arch);
    let sched = schedule(dfg, &mapping, &options, max_sync as usize)?;
    timer.mark("schedule");
    sched.verify(dfg)?;
    timer.mark("schedule-verify");
    let barriers = allocate(&sched, max_sync)?;
    timer.mark("barrier-alloc");
    Ok(Front { mapping, sched, barriers })
}

/// The second half: emit the planned kernel and, if the plan says so, hold
/// it to the verifier. `facts` must be `dfg.facts()`, and `dfg` and `arch`
/// the ones the plan was made for.
pub(crate) fn finish(
    dfg: &Dfg,
    facts: &GraphFacts,
    plan: &EmitPlan,
    arch: &GpuArch,
    timer: &mut crate::compiler::StageTimer<'_>,
) -> CResult<Compiled> {
    let compiled = emit(dfg, facts, plan, arch)?;
    timer.mark("emit");
    check_emitted(compiled, plan.flags.verify, arch, timer)
}

/// The epilogue of every emitter: check the kernel is well formed and, when
/// `verify` says so, hold it to the verifier (closing the "verify" span).
pub(crate) fn check_emitted(
    mut compiled: Compiled,
    verify: bool,
    arch: &GpuArch,
    timer: &mut crate::compiler::StageTimer<'_>,
) -> CResult<Compiled> {
    compiled.kernel.check().map_err(CompileError::Internal)?;
    if verify {
        compiled.verified = Some(crate::verify::enforce(&compiled.kernel, arch)?);
    }
    timer.mark("verify");
    Ok(compiled)
}

/// Var home registers for one warp: the live interval of each var it
/// produces, over the warp's items, through [`linear_scan`].
fn warp_homes(
    dfg: &Dfg,
    facts: &GraphFacts,
    mapping: &Mapping,
    sched: &Schedule,
    warp: usize,
    budget: usize,
    uniform_shared_reads: bool,
) -> Homes {
    let items = &sched.items[warp];
    let producers = &facts.producers;
    // def/last-use item indices per var produced in this warp.
    let mut def = vec![usize::MAX; dfg.n_vars as usize];
    let mut last = vec![0usize; dfg.n_vars as usize];
    for (i, (_, it)) in items.iter().enumerate() {
        match it {
            Item::Op(o) => {
                for &v in &facts.outputs[*o] {
                    def[v as usize] = i;
                    last[v as usize] = last[v as usize].max(i);
                }
                for &v in &facts.inputs[*o] {
                    // Same-warp consumers keep the register home alive —
                    // unless uniform shared reads route them through shared
                    // memory (then the home only lives until the store).
                    if mapping.warp_of[producers[v as usize]] == warp
                        && !(uniform_shared_reads
                            && sched.var_slot[v as usize].is_some())
                    {
                        last[v as usize] = last[v as usize].max(i);
                    }
                }
            }
            Item::StoreVar(v) => last[*v as usize] = last[*v as usize].max(i),
            _ => {}
        }
    }
    let live: Vec<Option<(usize, usize)>> =
        def.iter().zip(&last).map(|(&d, &l)| (d != usize::MAX).then_some((d, l))).collect();
    linear_scan(&live, budget)
}

/// One warp's constant arrays (§5.2) as emission grows them.
#[derive(Debug, Clone, Default)]
struct WarpConsts {
    /// The double constants, striped over the lanes into registers.
    doubles: Vec<f64>,
    /// The index constants (§5.3): global rows and shared slot offsets.
    idx: Vec<u32>,
    /// Which `idx` entries are shared slot offsets. A pipelined kernel keeps
    /// K copies of the array, slot entries displaced into ring entry r and
    /// row entries repeated; warps lay their arrays out differently, so the
    /// flags are the warp's own.
    idx_is_slot: Vec<bool>,
}

impl WarpConsts {
    /// Where the double and the index array end.
    fn ends(&self) -> (usize, usize) {
        (self.doubles.len(), self.idx.len())
    }

    /// Where the longest double and the longest index array of `arrays` end.
    fn longest<'a>(arrays: impl IntoIterator<Item = &'a WarpConsts>) -> (usize, usize) {
        let ends = arrays.into_iter().map(WarpConsts::ends);
        ends.fold((0, 0), |(d, i), (wd, wi)| (d.max(wd), i.max(wi)))
    }

    /// Append `op`'s constants (and `extras`, the slot offsets its code
    /// reads) at the segment offsets its code names, padding up to them.
    /// An op without constants of a kind costs no padding of that kind.
    fn place(&mut self, seg: usize, iseg: usize, op: &Operation, extras: &[u32]) {
        debug_assert!(self.doubles.len() <= seg && self.idx.len() <= iseg, "segment inside the array");
        if !op.consts.is_empty() {
            self.doubles.resize(seg, 0.0);
            self.doubles.extend_from_slice(&op.consts);
        }
        if !(op.irows.is_empty() && extras.is_empty()) {
            self.idx.resize(iseg, 0);
            self.idx.extend_from_slice(&op.irows);
            self.idx.extend_from_slice(extras);
            self.idx_is_slot.resize(iseg + op.irows.len(), false);
            self.idx_is_slot.resize(self.idx.len(), true);
        }
    }
}

/// The emission context for one warp group.
struct WsCtx<'a> {
    mapping: &'a Mapping,
    sched: &'a Schedule,
    plans: &'a [Homes],
    warp: usize,
    broadcast: BroadcastKind,
    /// Constant segment base for the op being emitted.
    seg_base: usize,
    iseg_base: usize,
    /// Frontend row-constant count of the op being emitted; compiler-
    /// generated shared-address constants are appended after these.
    irows_len: usize,
    /// Values of compiler-generated index constants (shared word offsets
    /// for cross-warp reads — the §5.3 warp-indexing scheme applied to
    /// shared memory, as in Listing 4's `scratch[index][lane_id]`).
    extra_irows: Vec<u32>,
    scratch: Scratch,
    mirror_word: u32,
    producers: &'a [OpId],
    ldg: bool,
    /// Uniform shared reads (§3.2 discipline).
    uniform_reads: bool,
    /// Outputs of the op currently being emitted (always read from their
    /// register home — they may not be stored to shared yet).
    cur_outputs: &'a [VarId],
}

impl<'a> EmitCtx for WsCtx<'a> {
    fn point(&self) -> PointRef {
        PointRef::Lane
    }

    fn scratch(&mut self) -> &mut Scratch {
        &mut self.scratch
    }

    fn const_op(&mut self, slot: u16, code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)> {
        let g = self.seg_base + slot as usize;
        let creg = VR_CREG + (g / WARP_SIZE) as Reg;
        let lane = (g % WARP_SIZE) as u8;
        let tmp = self.scratch.alloc()?;
        match self.broadcast {
            BroadcastKind::Shuffle => {
                // Listing 3: pair of 32-bit shuffles, modeled as one Shfl.
                code.emit(Node::Op(Instr::Shfl { dst: tmp, src: creg, lane }))?;
            }
            BroadcastKind::SharedMirror => {
                // Listing 2: one lane writes the mirror, everyone reads it.
                let addr = SAddr { base: Some(IR_WARP), imm: self.mirror_word, lane_stride: 0 };
                code.emit(Node::Op(Instr::StShared {
                    src: Op::Reg(creg),
                    addr,
                    lane_pred: Some(lane),
                }))?;
                code.emit(Node::Op(Instr::LdShared { dst: tmp, addr }))?;
            }
        }
        Ok((Op::Reg(tmp), Some(tmp)))
    }

    fn consts_in_cache(&self) -> bool {
        false
    }

    fn row_idx(&mut self, row: &RowRef, code: &mut dyn NodeSink) -> CResult<IdxOp> {
        match row {
            RowRef::Fixed(r) => Ok(IdxOp::Imm(*r)),
            RowRef::Slot(s) => {
                let g = (self.iseg_base + *s as usize) as u32;
                // index = ibase + g, then load the per-warp row constant.
                code.emit(Node::Op(Instr::Idx(IdxInstr::Add {
                    dst: IR_SCRATCH,
                    a: IdxOp::Reg(IR_IBASE),
                    b: IdxOp::Imm(g),
                })))?;
                code.emit(Node::Op(Instr::Idx(IdxInstr::LdConst {
                    dst: IR_SCRATCH + 1,
                    bank: 0,
                    idx: IdxOp::Reg(IR_SCRATCH),
                })))?;
                Ok(IdxOp::Reg(IR_SCRATCH + 1))
            }
        }
    }

    fn read_var(&mut self, v: VarId, code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)> {
        let producer_warp = self.mapping.warp_of[self.producers[v as usize]];
        let from_reg = self.cur_outputs.contains(&v)
            || (producer_warp == self.warp
                && !(self.uniform_reads && self.sched.var_slot[v as usize].is_some()));
        if from_reg {
            self.plans[self.warp].of(v)?.read(&mut self.scratch, code)
        } else {
            let slot = self.sched.var_slot[v as usize].ok_or_else(|| {
                CompileError::Internal(format!("cross-warp var {v} has no shared slot"))
            })?;
            // Warp-indexed shared access (§5.3): the word offset comes from
            // a per-warp index constant so overlaid code stays identical
            // across warps reading different values (Listing 4).
            let g = (self.iseg_base + self.irows_len + self.extra_irows.len()) as u32;
            self.extra_irows.push((slot * WARP_SIZE) as u32);
            code.emit(Node::Op(Instr::Idx(IdxInstr::Add {
                dst: IR_SCRATCH,
                a: IdxOp::Reg(IR_IBASE),
                b: IdxOp::Imm(g),
            })))?;
            code.emit(Node::Op(Instr::Idx(IdxInstr::LdConst {
                dst: IR_SCRATCH + 1,
                bank: 0,
                idx: IdxOp::Reg(IR_SCRATCH),
            })))?;
            // Pipelined schedules need no extra displacement here: IR_IBASE
            // already points at the stage-r segment copy, whose slot-offset
            // entries are pre-displaced into ring entry r.
            let tmp = self.scratch.alloc()?;
            code.emit(Node::Op(Instr::LdShared {
                dst: tmp,
                addr: SAddr { base: Some(IR_SCRATCH + 1), imm: 0, lane_stride: 1 },
            }))?;
            Ok((Op::Reg(tmp), Some(tmp)))
        }
    }

    fn write_var(&mut self, v: VarId, val: Op, code: &mut dyn NodeSink) -> CResult<()> {
        self.plans[self.warp].of(v)?.write(val, code)
    }

    fn ldg(&self) -> bool {
        self.ldg
    }
}

/// Emit the kernel from the scheduled program, unchecked
/// ([`check_emitted`] is the epilogue).
pub(crate) fn emit(
    dfg: &Dfg,
    facts: &GraphFacts,
    plan: &EmitPlan,
    arch: &GpuArch,
) -> CResult<Compiled> {
    let EmitPlan { front, flags } = plan;
    let Front { mapping, sched, barriers } = &**front;
    let EmitFlags {
        warps: w,
        point_iters,
        depth: k_pipe,
        uniform_reads,
        unsafe_remove_barriers: _,
        exp_const_from_registers,
        verify: _,
    } = *flags;
    let producers = &facts.producers;

    // Register budget: leave room for scratch, locals, and an estimate of
    // constant registers.
    let max_locals = dfg.ops.iter().map(|o| o.n_locals as usize).max().unwrap_or(0);
    let per_warp_consts: Vec<usize> = (0..w)
        .map(|wi| {
            dfg.ops
                .iter()
                .enumerate()
                .filter(|(oi, _)| mapping.warp_of[*oi] == wi)
                .map(|(_, o)| o.consts.len())
                .sum()
        })
        .collect();
    let cregs_est = per_warp_consts.iter().max().copied().unwrap_or(0).div_ceil(WARP_SIZE) + 1;
    let budget_total = (arch.max_regs_per_thread.saturating_sub(N_IREGS)) / 2;
    let var_budget = budget_total
        .saturating_sub(N_SCRATCH + max_locals + cregs_est)
        .max(4);

    let plans: Vec<Homes> = (0..w)
        .map(|wi| warp_homes(dfg, facts, mapping, sched, wi, var_budget, uniform_reads))
        .collect();

    let pipelined = k_pipe > 1;

    let mirror_word = (k_pipe * sched.n_slots * WARP_SIZE) as u32;
    let needs_mirror = arch.broadcast == BroadcastKind::SharedMirror;
    let shared_words = k_pipe * sched.n_slots * WARP_SIZE + if needs_mirror { w } else { 0 };

    // Ring-recycling participants: writers fill slots (StoreVar items),
    // readers consume them (sync-point consumer warps). The empty-barrier
    // ring is a rendezvous of exactly this set — pure compute warps are
    // excluded so they cannot be lapped by the pipeline.
    let mut writer_mask = 0u64;
    for (wi, list) in sched.items.iter().enumerate() {
        if list.iter().any(|(_, it)| matches!(it, Item::StoreVar(_))) {
            writer_mask |= 1 << wi;
        }
    }
    let mut reader_mask = 0u64;
    for sp in &sched.sync_points {
        for &cw in &sp.consumer_warps {
            reader_mask |= 1 << cw;
        }
    }
    let reader_only_mask = reader_mask & !writer_mask;
    let ring_expected = (writer_mask | reader_mask).count_ones() as u16;
    // Stage-rotated barrier layout: sync point `s` owns the K ids starting
    // at `of_sync[s] * K`; the buffer-empty ring owns the K ids starting
    // at `barriers_used * K`.
    let empty_base = (barriers.barriers_used * k_pipe) as u8;

    // Walker state.
    let mut cursors = vec![0usize; w];
    let mut body: Vec<Node> = Vec::new();
    let mut consts: Vec<WarpConsts> = vec![WarpConsts::default(); w];
    let mut stats = CompileStats {
        sync_points: sched.sync_points.len(),
        merged_syncs: sched.merged_syncs,
        barriers_used: barriers.barriers_used,
        shared_slots: sched.n_slots,
        spilled_vars: plans.iter().map(|p| p.n_spill).sum(),
        flop_imbalance: mapping.flop_imbalance(),
        full_barriers: sched.full_barriers.len(),
        ..Default::default()
    };
    let all_mask: u64 = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };

    let emit_ctx = |warp: usize, seg: usize, iseg: usize| WsCtx {
        mapping,
        sched,
        plans: &plans,
        warp,
        broadcast: arch.broadcast,
        seg_base: seg,
        iseg_base: iseg,
        irows_len: 0,
        extra_irows: Vec::new(),
        scratch: Scratch::default(),
        mirror_word,
        producers,
        ldg: arch.has_ldg,
        uniform_reads,
        cur_outputs: &[],
    };

    // One overlaid emission (§5.1 + footnote 2) with its constant segment
    // at `seg`/`iseg`: the seed's code, and the group of warps sharing it
    // as (warp, op, slot-offset constants) — the seed, then every sharer
    // whose op resolves to the seed's code node for node.
    type Member = (usize, OpId, Vec<u32>);
    let emit_group = |seed: (usize, OpId),
                      sharers: &[(usize, OpId)],
                      seg: usize,
                      iseg: usize|
     -> CResult<(Vec<Node>, Vec<Member>)> {
        let op_ctx = |(wi, o): (usize, OpId)| {
            let mut ctx = emit_ctx(wi, seg, iseg);
            ctx.irows_len = dfg.ops[o].irows.len();
            ctx.cur_outputs = &facts.outputs[o];
            ctx
        };
        let mut seed_code = Vec::new();
        let mut ctx = op_ctx(seed);
        emit_stmts(&dfg.ops[seed.1].body, &mut ctx, &mut seed_code)?;
        let mut members = vec![(seed.0, seed.1, ctx.extra_irows)];
        for &(wi, cand) in sharers {
            let mut ctx = op_ctx((wi, cand));
            let mut against = SeedMatch { seed: &seed_code, matched: 0, diverged: false };
            let emitted = emit_stmts(&dfg.ops[cand].body, &mut ctx, &mut against);
            if against.diverged {
                continue;
            }
            emitted?;
            if against.matched == seed_code.len() {
                members.push((wi, cand, ctx.extra_irows));
            }
        }
        Ok((seed_code, members))
    };

    loop {
        // Find the unfinished warp with the smallest (key, kind) head.
        let mut seed: Option<(usize, u64)> = None;
        for wi in 0..w {
            if cursors[wi] < sched.items[wi].len() {
                let (k, _) = sched.items[wi][cursors[wi]];
                if seed.is_none_or(|(_, sk)| k < sk) {
                    seed = Some((wi, k));
                }
            }
        }
        let Some((seed_w, _)) = seed else { break };
        let (_, seed_item) = sched.items[seed_w][cursors[seed_w]];

        match seed_item {
            Item::FullBarrier(_) | Item::Wait(_) | Item::Arrive(_) => {
                // Every warp whose head is this very item takes it here: all
                // of them at a full barrier, the consumers at a wait, the
                // producer alone at an arrive.
                let mut mask = 0u64;
                for wi in 0..w {
                    if cursors[wi] < sched.items[wi].len()
                        && sched.items[wi][cursors[wi]].1 == seed_item
                    {
                        mask |= 1 << wi;
                        cursors[wi] += 1;
                    }
                }
                debug_assert!(mask == all_mask || !matches!(seed_item, Item::FullBarrier(_)));
                if let Some(bar) = plan.barrier(seed_item, k_pipe) {
                    push_guarded(&mut body, mask, all_mask, Node::Op(bar));
                }
            }
            Item::StoreVar(v) => {
                cursors[seed_w] += 1;
                let slot = sched.var_slot[v as usize].ok_or_else(|| {
                    CompileError::Internal(format!("stored var {v} lacks a slot"))
                })?;
                let addr = if pipelined {
                    SAddr { base: Some(IR_PIPE), imm: (slot * WARP_SIZE) as u32, lane_stride: 1 }
                } else {
                    SAddr::lane((slot * WARP_SIZE) as u32)
                };
                // Async-copy fill (Hopper): when the communicated value is
                // a raw global load, copy global -> shared directly instead
                // of bouncing through the producer's register file.
                let cp_src = if pipelined && arch.has_async_copy {
                    dfg.ops[producers[v as usize]].body.iter().find_map(|st| match st {
                        Stmt::DefVar(dv, Expr::Input { array, row: RowRef::Fixed(r) })
                            if *dv == v =>
                        {
                            Some((*array, *r))
                        }
                        _ => None,
                    })
                } else {
                    None
                };
                if let Some((array, row)) = cp_src {
                    let node = Node::Op(Instr::CpAsync {
                        addr,
                        array: GlobalId(array as usize),
                        row: IdxOp::Imm(row),
                        point: PointRef::Lane,
                    });
                    push_guarded(&mut body, 1 << seed_w, all_mask, node);
                } else {
                    let mut code = Vec::new();
                    let mut ctx = emit_ctx(seed_w, 0, 0);
                    // The value must come from its register/spill home — the
                    // shared slot is exactly what this item is about to fill.
                    ctx.cur_outputs = std::slice::from_ref(&v);
                    let (src, _) = ctx.read_var(v, &mut code)?;
                    code.push(Node::Op(Instr::StShared { src, addr, lane_pred: None }));
                    push_all_guarded(&mut body, 1 << seed_w, all_mask, code);
                }
            }
            Item::Op(seed_op) => {
                // Warps whose head op has the seed's skeleton: the ones that
                // may come to share its code (§5.1).
                let mut sharers: Vec<(usize, OpId)> = (0..w)
                    .filter(|&wi| wi != seed_w && cursors[wi] < sched.items[wi].len())
                    .filter_map(|wi| match sched.items[wi][cursors[wi]].1 {
                        Item::Op(cand) if facts.class[cand] == facts.class[seed_op] => {
                            Some((wi, cand))
                        }
                        _ => None,
                    })
                    .collect();
                // Shared code names one offset into each member's constant
                // arrays, so a group's segment starts where its longest
                // member's arrays end (§5.2). Who the members are is known
                // only once their code has been held against the seed's at
                // some offset. Start at the seed's own end, which is where a
                // warp-private emission stays, and while a member's arrays
                // reach further, move there and hold the members against
                // the seed again: every member of the final group emitted
                // the seed's code at the final offset, node for node.
                let (mut seg, mut iseg) = consts[seed_w].ends();
                let (seed_code, members) = loop {
                    let (code, members) = emit_group((seed_w, seed_op), &sharers, seg, iseg)?;
                    let ends = WarpConsts::longest(members.iter().map(|(wi, _, _)| &consts[*wi]));
                    if ends == (seg, iseg) {
                        break (code, members);
                    }
                    (seg, iseg) = ends;
                    sharers = members[1..].iter().map(|(wi, o, _)| (*wi, *o)).collect();
                };
                // Commit the segment to the members' arrays, and to no
                // other warp's.
                let mut mask = 0u64;
                for (wi, o, extras) in &members {
                    mask |= 1 << wi;
                    cursors[*wi] += 1;
                    consts[*wi].place(seg, iseg, &dfg.ops[*o], extras);
                }
                if members.len() > 1 {
                    stats.overlay_groups += 1;
                } else {
                    stats.solo_groups += 1;
                }
                push_all_guarded(&mut body, mask, all_mask, seed_code);
            }
        }
    }

    // --- Preamble: lane/warp ids, constant-array bases, striped constant
    // preload (hoisted above the point loop for amortization, §5.2). ---
    let (longest_doubles, istride) = WarpConsts::longest(&consts);
    let n_cregs = longest_doubles.div_ceil(WARP_SIZE);
    let cstride = n_cregs * WARP_SIZE;
    let mut preamble: Vec<Node> = vec![
        Node::Op(Instr::Idx(IdxInstr::WarpId { dst: IR_WARP })),
        Node::Op(Instr::Idx(IdxInstr::LaneId { dst: IR_LANE })),
    ];
    if n_cregs > 0 {
        preamble.push(Node::Op(Instr::Idx(IdxInstr::Mul {
            dst: IR_CBASE,
            a: IdxOp::Reg(IR_WARP),
            b: IdxOp::Imm(cstride as u32),
        })));
        preamble.push(Node::Op(Instr::Idx(IdxInstr::Add {
            dst: IR_CBASE,
            a: IdxOp::Reg(IR_CBASE),
            b: IdxOp::Reg(IR_LANE),
        })));
        for j in 0..n_cregs {
            preamble.push(Node::Op(Instr::Idx(IdxInstr::Add {
                dst: IR_SCRATCH,
                a: IdxOp::Reg(IR_CBASE),
                b: IdxOp::Imm((j * WARP_SIZE) as u32),
            })));
            preamble.push(Node::Op(Instr::LdConst {
                dst: VR_CREG + j as Reg,
                bank: 0,
                idx: IdxOp::Reg(IR_SCRATCH),
            }));
        }
    }
    if istride > 0 {
        if pipelined {
            // Anchor of the warp's K stage-segment copies; IR_IBASE itself
            // is rebased to the stage-r copy at the top of each iteration.
            preamble.push(Node::Op(Instr::Idx(IdxInstr::Mul {
                dst: IR_IPIPE,
                a: IdxOp::Reg(IR_WARP),
                b: IdxOp::Imm((istride * k_pipe) as u32),
            })));
        } else {
            preamble.push(Node::Op(Instr::Idx(IdxInstr::Mul {
                dst: IR_IBASE,
                a: IdxOp::Reg(IR_WARP),
                b: IdxOp::Imm(istride as u32),
            })));
        }
    }

    let mut loop_body;
    if pipelined {
        // K-stage protocol: no end-of-iteration rendezvous. Each iteration
        // selects ring entry `pset % K` (PipeOff), writers block on the
        // entry's buffer-empty barrier (readers freed it K iterations ago),
        // and pure readers signal it free again once their reads are done.
        loop_body = vec![Node::Op(Instr::Idx(IdxInstr::PipeOff {
            dst: IR_PIPE,
            k: k_pipe as u8,
            stride: (sched.n_slots * WARP_SIZE) as u32,
        }))];
        if istride > 0 {
            // Rebase IR_IBASE to this iteration's stage-segment copy, so
            // every warp-indexed read below is stage-correct for free.
            loop_body.push(Node::Op(Instr::Idx(IdxInstr::PipeOff {
                dst: IR_IBASE,
                k: k_pipe as u8,
                stride: istride as u32,
            })));
            loop_body.push(Node::Op(Instr::Idx(IdxInstr::Add {
                dst: IR_IBASE,
                a: IdxOp::Reg(IR_IBASE),
                b: IdxOp::Reg(IR_IPIPE),
            })));
        }
        push_guarded(
            &mut loop_body,
            writer_mask,
            all_mask,
            Node::Op(Instr::BarSyncStage {
                base: empty_base,
                k: k_pipe as u8,
                warps: ring_expected,
            }),
        );
        loop_body.extend(body);
        if reader_only_mask != 0 {
            push_guarded(
                &mut loop_body,
                reader_only_mask,
                all_mask,
                Node::Op(Instr::BarArriveStage {
                    base: empty_base,
                    k: k_pipe as u8,
                    warps: ring_expected,
                }),
            );
        }
    } else {
        loop_body = body;
        loop_body.extend(plan.rendezvous().map(Node::Op));
    }
    let mut full_body = preamble;
    if pipelined && reader_only_mask != 0 {
        // Prologue: every ring entry starts out free — pure readers
        // pre-arrive once per entry so writers' first K iterations do not
        // block on reads that never happened.
        for r in 0..k_pipe {
            push_guarded(
                &mut full_body,
                reader_only_mask,
                all_mask,
                Node::Op(Instr::BarArrive {
                    bar: empty_base + r as u8,
                    warps: ring_expected,
                }),
            );
        }
    }
    full_body.push(Node::PointLoop { iters: point_iters, body: loop_body });
    if pipelined && reader_only_mask != 0 {
        // Epilogue: drain the readers' final free-signals so every barrier
        // ends a completed generation (no dangling arrivals).
        for r in 0..k_pipe {
            push_guarded(
                &mut full_body,
                writer_mask,
                all_mask,
                Node::Op(Instr::BarSync { bar: empty_base + r as u8, warps: ring_expected }),
            );
        }
    }

    // Register layout: scratch | vars | locals | cregs.
    let n_var_regs = plans.iter().map(|p| p.n_regs).max().unwrap_or(0);
    let dregs = lay_out_registers(
        &mut full_body,
        &[(0, N_SCRATCH), (VR_VAR, n_var_regs), (VR_LOCAL, max_locals), (VR_CREG, n_cregs)],
    );
    let n_spill = plans.iter().map(|p| p.n_spill).max().unwrap_or(0);

    // Constant banks: warp-major with per-warp stride.
    let mut bank = vec![0.0f64; cstride * w];
    for (wi, c) in consts.iter().enumerate() {
        bank[wi * cstride..wi * cstride + c.doubles.len()].copy_from_slice(&c.doubles);
    }
    let mut ibank = vec![0u32; istride * w * k_pipe];
    for (wi, c) in consts.iter().enumerate() {
        for r in 0..k_pipe {
            // Stage-r copy of the warp's segment: shared slot offsets are
            // pre-displaced into ring entry r; global row indices repeat
            // verbatim (K = 1 degenerates to the classic flat layout).
            let base = (wi * k_pipe + r) * istride;
            for (j, (&v, &is_slot)) in c.idx.iter().zip(&c.idx_is_slot).enumerate() {
                ibank[base + j] =
                    if is_slot { v + (r * sched.n_slots * WARP_SIZE) as u32 } else { v };
            }
        }
    }

    stats.const_regs_per_thread = n_cregs;
    stats.const_array_len = cstride;
    let kernel_barriers = plan.kernel_barriers(k_pipe, arch)?;
    stats.barriers_used = kernel_barriers;
    stats.pipeline_depth = k_pipe;

    let kernel = Kernel {
        name: format!("{}_ws", dfg.name),
        body: full_body,
        warps_per_cta: w,
        points_per_cta: WARP_SIZE * point_iters as usize,
        dregs_per_thread: dregs,
        iregs_per_thread: if pipelined { N_IREGS + 2 } else { N_IREGS },
        shared_words,
        local_words_per_thread: n_spill,
        const_banks: if bank.is_empty() { vec![] } else { vec![bank] },
        iconst_banks: if ibank.is_empty() { vec![] } else { vec![ibank] },
        barriers_used: kernel_barriers,
        global_arrays: dfg.arrays.clone(),
        spilled_bytes_per_thread: n_spill * 8,
        exp_const_from_registers,
    };
    Ok(Compiled { kernel, stats, verified: None })
}

/// An overlay candidate's code (§5.1), held against the seed's node by node
/// as it is lowered instead of being built and compared afterwards. The
/// first node that is not the seed's next one is refused, which ends the
/// candidate's lowering there: a rejected candidate costs the prefix it
/// shares with the seed, not a whole emission. A candidate that lowers to
/// the end with `matched == seed.len()` emitted exactly the seed's code —
/// the equality footnote 2 asks for before two warps may share it.
struct SeedMatch<'a> {
    seed: &'a [Node],
    matched: usize,
    diverged: bool,
}

impl NodeSink for SeedMatch<'_> {
    fn emit(&mut self, node: Node) -> CResult<()> {
        if self.seed.get(self.matched) == Some(&node) {
            self.matched += 1;
            Ok(())
        } else {
            self.diverged = true;
            Err(CompileError::Internal("overlay candidate diverged from its seed".into()))
        }
    }
}

/// Push a node, guarded by a `WarpIf` unless every warp participates.
fn push_guarded(body: &mut Vec<Node>, mask: u64, all: u64, node: Node) {
    push_all_guarded(body, mask, all, vec![node]);
}

/// Push a code block, guarded unless all warps participate. A block that
/// directly follows a guard with the same mask goes into that guard's
/// body: the same warps run the same code in the same order, for one
/// branch instead of two.
fn push_all_guarded(body: &mut Vec<Node>, mask: u64, all: u64, code: Vec<Node>) {
    if code.is_empty() {
        return;
    }
    if mask == all {
        body.extend(code);
        return;
    }
    match body.last_mut() {
        Some(Node::WarpIf { mask: last, body: guarded }) if *last == mask => guarded.extend(code),
        _ => body.push(Node::WarpIf { mask, body: code }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::test_support::diamond;
    use crate::kernels::{chemistry, diffusion, viscosity};
    use crate::search::SearchSpace;
    use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
    use chemkin::synth;
    use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn compile_warp_specialized(
        dfg: &Dfg,
        options: &CompileOptions,
        arch: &GpuArch,
    ) -> CResult<Compiled> {
        crate::Compiler::new(arch)
            .options(options.clone())
            .compile(dfg, crate::Variant::WarpSpecialized)
    }

    fn run_diamond(warps: usize, arch: &GpuArch) -> Vec<f64> {
        let mut d = diamond();
        if warps >= 3 {
            d.ops[0].pinned_warp = Some(0);
            d.ops[1].pinned_warp = Some(1);
            d.ops[2].pinned_warp = Some(2);
            d.ops[3].pinned_warp = Some(0);
        }
        let mut opts = CompileOptions::with_warps(warps);
        opts.point_iters = 2;
        let c = compile_warp_specialized(&d, &opts, arch).unwrap();
        let points = c.kernel.points_per_cta * 2;
        let input: Vec<f64> = (0..points).map(|i| i as f64 * 0.25 + 1.0).collect();
        let out = launch(
            &c.kernel,
            arch,
            &LaunchInputs { arrays: vec![&input, &[]] },
            points,
            LaunchMode::Full,
        )
        .unwrap();
        out.outputs[1].clone()
    }

    fn expected(points: usize) -> Vec<f64> {
        (0..points)
            .map(|i| {
                let x = i as f64 * 0.25 + 1.0;
                x * 2.0 + (x + 10.0)
            })
            .collect()
    }

    #[test]
    fn diamond_single_warp_matches() {
        let arch = GpuArch::kepler_k20c();
        let out = run_diamond(1, &arch);
        assert_eq!(out, expected(out.len()));
    }

    #[test]
    fn diamond_three_warps_matches_kepler() {
        let arch = GpuArch::kepler_k20c();
        let out = run_diamond(3, &arch);
        assert_eq!(out, expected(out.len()));
    }

    #[test]
    fn diamond_three_warps_matches_fermi_shared_mirror() {
        let arch = GpuArch::fermi_c2070();
        let out = run_diamond(3, &arch);
        assert_eq!(out, expected(out.len()));
    }

    /// Two warps running the same two ops each: a load, then a twin that
    /// scales a warp-indexed input row and adds its own warp's load. As
    /// built, each pair emits the same code. Forcing warp 0's load into
    /// shared memory makes warp 0's twin read it from its slot (uniform
    /// shared reads) where warp 1's reads a register: the twins then differ
    /// — in their last statement only. That read sits under `selects`
    /// nested selects, each of which holds two scratch registers across it.
    fn twins(force_shared: &[VarId], selects: usize) -> Dfg {
        let mut d = diamond();
        let op = |name: &str, warp: usize, phase: u32, body: Vec<Stmt>| Operation {
            name: name.into(),
            body,
            n_locals: 1,
            consts: vec![2.0],
            irows: vec![0],
            pinned_warp: Some(warp),
            phase,
        };
        let load = |v| vec![Stmt::DefVar(v, Expr::Input { array: 0, row: RowRef::Fixed(0) })];
        let input = || Expr::Input { array: 0, row: RowRef::Fixed(0) };
        let under = |e: Expr, _| input().select_gt(Expr::Lit(0.0), input(), e);
        let twin = |v: VarId, own_load: VarId| {
            vec![
                Stmt::Local(0, Expr::Input { array: 0, row: RowRef::Slot(0) }.mul(Expr::Const(0))),
                Stmt::DefVar(v, Expr::Local(0).add((0..selects).fold(Expr::Var(own_load), under))),
            ]
        };
        let sum = Stmt::Store {
            array: 1,
            row: RowRef::Fixed(0),
            value: Expr::Var(2).add(Expr::Var(3)),
        };
        d.ops = vec![
            op("load0", 0, 0, load(0)),
            op("load1", 1, 0, load(1)),
            op("twin0", 0, 1, twin(2, 0)),
            op("twin1", 1, 1, twin(3, 1)),
            op("out", 0, 2, vec![sum]),
        ];
        // Tell the ops' constants apart in the banks: op `i` carries 10 + i.
        for (i, o) in d.ops.iter_mut().enumerate() {
            o.consts = vec![10.0 + i as f64];
        }
        d.n_vars = 4;
        d.force_shared = force_shared.to_vec();
        d
    }

    /// Warp `wi`'s row of the kernel's double-constant bank.
    fn const_row(k: &Kernel, wi: usize) -> &[f64] {
        let stride = k.const_banks[0].len() / k.warps_per_cta;
        &k.const_banks[0][wi * stride..(wi + 1) * stride]
    }

    fn padded(own: &[f64], len: usize) -> Vec<f64> {
        own.iter().copied().chain(std::iter::repeat(0.0)).take(len).collect()
    }

    #[test]
    fn place_pads_to_the_segment_and_flags_slot_offsets() {
        let op = |consts: Vec<f64>, irows: Vec<u32>| Operation {
            name: "op".into(),
            body: vec![],
            n_locals: 0,
            consts,
            irows,
            pinned_warp: None,
            phase: 0,
        };
        let mut c = WarpConsts::default();
        c.place(0, 0, &op(vec![1.0], vec![7]), &[64]);
        assert_eq!((c.doubles.as_slice(), c.idx.as_slice()), (&[1.0][..], &[7, 64][..]));
        // Two entries of padding for a group whose longest member ends at 3
        // and 4; the slot offsets are the entries after the op's rows.
        c.place(3, 4, &op(vec![2.0, 3.0], vec![]), &[96, 128]);
        assert_eq!(c.doubles, [1.0, 0.0, 0.0, 2.0, 3.0]);
        assert_eq!(c.idx, [7, 64, 0, 0, 96, 128]);
        assert_eq!(c.idx_is_slot, [false, true, false, false, true, true]);
        // An op without constants of a kind costs no padding of that kind.
        c.place(9, 9, &op(vec![], vec![5]), &[]);
        assert_eq!(c.ends(), (5, 10));
        c.place(20, 20, &op(vec![], vec![]), &[]);
        assert_eq!(c.ends(), (5, 10));
    }

    #[test]
    fn a_warp_private_emission_extends_only_its_own_warps_arrays() {
        // The loads overlay; each twin and the store is emitted on its own.
        let arch = GpuArch::kepler_k20c();
        let opts = CompileOptions::with_warps(2);
        let c = compile_warp_specialized(&twins(&[0], 0), &opts, &arch).unwrap();
        assert_eq!((c.stats.overlay_groups, c.stats.solo_groups), (1, 3));
        // Warp 0 holds its load's, its twin's and the store's constant and
        // warp 1 its load's and its twin's: nothing for the other warp's
        // twin, nothing in warp 1 for the store.
        assert_eq!(const_row(&c.kernel, 0), padded(&[10.0, 12.0, 14.0], WARP_SIZE));
        assert_eq!(const_row(&c.kernel, 1), padded(&[11.0, 13.0], WARP_SIZE));
        assert_eq!(c.stats.const_regs_per_thread, 1);
        // Index constants likewise: warp 0 has a row per op, the slot its
        // twin reads its load from and the slot the store reads warp 1's
        // twin from; warp 1 has its two rows.
        let ibank = &c.kernel.iconst_banks[0];
        assert_eq!(ibank.len(), 2 * 5, "the stride is the longer warp's array");
        assert_eq!(ibank[5 + 2..], [0, 0, 0]);
    }

    /// Two warps with a twin each (`x * c0 + c1`, overlaid), and before it,
    /// on `extra_warp` alone, an op with a constant of its own. The arrays
    /// of the twins' warps have different lengths when the twins meet.
    fn staggered(extra_warp: usize) -> Dfg {
        let mut d = diamond();
        let input = || Expr::Input { array: 0, row: RowRef::Fixed(0) };
        let op = |name: &str, warp: usize, phase: u32, consts: Vec<f64>, body: Vec<Stmt>| {
            Operation {
                name: name.into(),
                body,
                n_locals: 0,
                consts,
                irows: vec![],
                pinned_warp: Some(warp),
                phase,
            }
        };
        let twin = |v: VarId, load: VarId| {
            vec![Stmt::DefVar(v, Expr::Var(load).fma(Expr::Const(0), Expr::Const(1)))]
        };
        let store = |row, value| vec![Stmt::Store { array: 1, row: RowRef::Fixed(row), value }];
        d.ops = vec![
            op("load0", 0, 0, vec![], vec![Stmt::DefVar(0, input())]),
            op("load1", 1, 0, vec![], vec![Stmt::DefVar(1, input())]),
            op("extra", extra_warp, 1, vec![5.0], store(1, input().mul(Expr::Const(0)))),
            op("twin0", 0, 2, vec![2.0, 100.0], twin(2, 0)),
            op("twin1", 1, 2, vec![3.0, 200.0], twin(3, 1)),
            op("out", 0, 3, vec![], store(0, Expr::Var(2).add(Expr::Var(3)))),
        ];
        d.n_vars = 4;
        d.arrays[1].rows = 2;
        d
    }

    #[test]
    fn an_overlay_group_shares_one_offset_and_each_member_reads_its_own_constants() {
        let arch = GpuArch::kepler_k20c();
        // The longer array is the seed's (warp 0), then the other member's:
        // there the group is first tried at the seed's end and moves out.
        for extra_warp in [0, 1] {
            let opts = CompileOptions::with_warps(2);
            let c = compile_warp_specialized(&staggered(extra_warp), &opts, &arch).unwrap();
            assert_eq!((c.stats.overlay_groups, c.stats.solo_groups), (2, 2));
            // The twins' segment is at offset 1 in both arrays, past the
            // one constant `extra_warp` already holds; the other warp pads.
            // Neither array is longer than its warp's own constants plus
            // the padding that group required.
            for (wi, twin) in [[2.0, 100.0], [3.0, 200.0]].iter().enumerate() {
                let first = if wi == extra_warp { 5.0 } else { 0.0 };
                assert_eq!(const_row(&c.kernel, wi), padded(&[first, twin[0], twin[1]], WARP_SIZE));
            }

            // And the shared code reads each warp's own pair there.
            let points = c.kernel.points_per_cta;
            let x: Vec<f64> = (0..points).map(|i| i as f64 * 0.25 + 1.0).collect();
            let out = launch(
                &c.kernel,
                &arch,
                &LaunchInputs { arrays: vec![&x, &[]] },
                points,
                LaunchMode::Full,
            )
            .unwrap();
            let want: Vec<f64> = x
                .iter()
                .map(|x| x.mul_add(2.0, 100.0) + x.mul_add(3.0, 200.0))
                .chain(x.iter().map(|x| x * 5.0))
                .collect();
            assert_eq!(out.outputs[1], want);
        }
    }

    #[test]
    fn identical_twins_overlay_and_late_differing_ones_do_not() {
        let arch = GpuArch::kepler_k20c();
        let groups = |force_shared: &[VarId]| {
            let opts = CompileOptions::with_warps(2);
            let c = compile_warp_specialized(&twins(force_shared, 0), &opts, &arch).unwrap();
            (c.stats.overlay_groups, c.stats.solo_groups)
        };
        // The loads share one emission and the twins another; the store is
        // solo.
        assert_eq!(groups(&[]), (2, 1));
        // The second twin matches the first up to its last statement, and
        // is still refused: each twin is emitted on its own.
        assert_eq!(groups(&[0]), (1, 3));
    }

    #[test]
    fn a_diverged_candidate_that_cannot_be_emitted_still_fails_the_compile() {
        // Seven selects deep, a twin reads its own load with all 14 scratch
        // registers held: free from a register (warp 0, the seed), one
        // register too many from shared memory (warp 1). Warp 1's twin
        // leaves the seed's code at that read, before it runs out, and is
        // dropped as a candidate with no error seen; the compile meets the
        // error when that twin is emitted on its own, and fails with what
        // it failed with when candidates were emitted in full.
        let arch = GpuArch::kepler_k20c();
        let compile = |selects| {
            let opts = CompileOptions::with_warps(2);
            compile_warp_specialized(&twins(&[1], selects), &opts, &arch)
        };
        match compile(N_SCRATCH / 2) {
            Err(CompileError::ResourceExhausted(what)) => {
                assert_eq!(what, "expression scratch registers exhausted")
            }
            other => panic!("expected to run out of scratch registers: {:?}", other.map(|c| c.stats)),
        }
        // One select less and both twins fit, each emitted on its own.
        let fits = compile(N_SCRATCH / 2 - 1).unwrap();
        assert_eq!((fits.stats.overlay_groups, fits.stats.solo_groups), (1, 3));
    }

    #[test]
    fn a_guard_directly_after_one_with_its_mask_joins_it() {
        let node = |r: Reg| Node::Op(Instr::mov(r, Op::Imm(1.0)));
        let guard = |mask, regs: &[Reg]| Node::WarpIf {
            mask,
            body: regs.iter().map(|&r| node(r)).collect(),
        };
        let mut body = Vec::new();
        push_guarded(&mut body, 0b01, 0b11, node(0));
        push_all_guarded(&mut body, 0b01, 0b11, vec![node(1), node(2)]);
        push_guarded(&mut body, 0b10, 0b11, node(3));
        push_guarded(&mut body, 0b11, 0b11, node(4));
        push_guarded(&mut body, 0b10, 0b11, node(5));
        // Same mask and adjacent: one branch. Another mask, or code of all
        // warps in between: a guard of its own.
        assert_eq!(body, [guard(0b01, &[0, 1, 2]), guard(0b10, &[3]), node(4), guard(0b10, &[5])]);
    }

    #[test]
    fn seed_match_accepts_the_seed_and_nothing_else() {
        let node = |r: Reg| Node::Op(Instr::mov(r, Op::Imm(1.0)));
        let seed = [node(0), node(1), node(2)];
        let fed = |nodes: &[Node]| {
            let mut m = SeedMatch { seed: &seed, matched: 0, diverged: false };
            let refused = nodes.iter().position(|n| m.emit(n.clone()).is_err());
            (m.matched, m.diverged, refused)
        };
        // The seed itself: every node taken, none refused.
        assert_eq!(fed(&seed), (3, false, None));
        // A difference in the last node is refused at that node.
        assert_eq!(fed(&[node(0), node(1), node(9)]), (2, true, Some(2)));
        // So is a node past the seed's end.
        assert_eq!(fed(&[node(0), node(1), node(2), node(3)]), (3, true, Some(3)));
        // A proper prefix is never refused: `matched` falls short of the
        // seed's length, which is what the overlay loop checks.
        assert_eq!(fed(&seed[..2]), (2, false, None));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// What follows a plan is a function of the plan: a point of the
        /// search space and its single-step neighbours (the pairs a beam
        /// scores), on each of the three kernels — wherever two of them
        /// plan alike, they emit the same bytes and the same statistics.
        #[test]
        fn equal_plans_emit_equal_kernels(
            n_species in 4usize..10,
            seed in 0u64..1000,
            warps in 2usize..6,
            arch in 0usize..3,
            pick in 0usize..1000,
        ) {
            let mech = synth::via_text(&synth::SynthConfig {
                name: format!("ep{n_species}_{seed}"),
                n_species,
                n_reactions: n_species * 2,
                n_qssa: 0,
                n_stiff: 0,
                seed,
            });
            let arch = [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()][arch].clone();
            let space = SearchSpace::for_arch(&arch);
            let of = |menu: &[f64], salt: usize| menu[(pick / salt) % menu.len()];
            let point = CompileOptions {
                warps,
                point_iters: space.point_iters[pick % space.point_iters.len()],
                placement: space.placements[(pick / 3) % space.placements.len()],
                pipeline_depth: space.pipeline_depths[(pick / 5) % space.pipeline_depths.len()],
                w_flops: of(&space.w_flops, 7),
                w_regs: of(&space.w_regs, 11),
                w_locality: of(&space.w_locality, 13),
                uniform_shared_reads: pick % 2 == 0,
                ..Default::default()
            };
            let mut options = space.neighbors(&point);
            options.push(point);
            for dfg in [
                viscosity::viscosity_dfg(&ViscosityTables::build(&mech), warps),
                diffusion::diffusion_dfg(&DiffusionTables::build(&mech), warps),
                chemistry::chemistry_dfg(&ChemistrySpec::build(&mech), warps),
            ] {
                let facts = dfg.facts().expect("valid graph");
                let mut timer = crate::compiler::StageTimer::new(None);
                // What each plan came to: its kernel's fingerprint and its
                // statistics, or nothing if it would not finish.
                type Emitted = Option<((u64, u64), CompileStats)>;
                let mut emitted: HashMap<EmitPlan, Emitted> = HashMap::new();
                for o in &options {
                    let Ok(plan) = plan(&dfg, o, &arch, &mut timer) else { continue };
                    let this = finish(&dfg, &facts, &plan, &arch, &mut timer)
                        .ok()
                        .map(|c| (gpu_sim::flatcache::fingerprint(&c.kernel), c.stats));
                    let first = emitted.entry(plan).or_insert_with(|| this.clone());
                    assert_eq!(*first, this, "{} on {}: {:?}", dfg.name, arch.name, o);
                }
            }
        }
    }

    /// The front half on a key's options is the front half on the options
    /// the key was taken from — the mapper and the scheduler read nothing
    /// the key leaves at its default — on the DME graphs, where the
    /// uniform-reads option decides when a slot dies under a bounded pool.
    #[test]
    fn the_front_half_reads_only_its_key() {
        let mech = synth::dme();
        let arch = GpuArch::hopper();
        let max_sync = sync_barrier_budget(&arch) as usize;
        let mut moved_by_uniform_reads = 0;
        for warps in [4, 10, 15] {
            for dfg in [
                viscosity::viscosity_dfg(&ViscosityTables::build(&mech), warps),
                diffusion::diffusion_dfg(&DiffusionTables::build(&mech), warps),
            ] {
                for placement in [Placement::Store, Placement::Mixed(88), Placement::Mixed(176)] {
                    let halves = [true, false].map(|uniform_shared_reads| {
                        let o = CompileOptions {
                            warps,
                            placement,
                            uniform_shared_reads,
                            w_regs: 0.0,
                            point_iters: 2,
                            pipeline_depth: 2,
                            exp_const_from_registers: true,
                            ..Default::default()
                        };
                        let mut timer = crate::compiler::StageTimer::new(None);
                        let keyed = front_half(&dfg, &FrontKey::of(&o), &arch, &mut timer);
                        let own = map_ops(&dfg, &o).and_then(|mapping| {
                            let sched = schedule(&dfg, &mapping, &o, max_sync)?;
                            sched.verify(&dfg)?;
                            let barriers = allocate(&sched, max_sync as u8)?;
                            Ok(Front { mapping, sched, barriers })
                        });
                        let (keyed, own) = (keyed.map_err(|e| e.to_string()), own.map_err(|e| e.to_string()));
                        assert_eq!(keyed, own, "{} at {placement:?}", dfg.name);
                        keyed
                    });
                    moved_by_uniform_reads += usize::from(halves[0] != halves[1]);
                }
            }
        }
        assert!(moved_by_uniform_reads >= 4, "{moved_by_uniform_reads} graphs and placements");
    }

    /// Each field the front half reads moves its key, and no other does.
    #[test]
    fn a_front_key_holds_the_mapping_and_schedule_options() {
        let o = CompileOptions::default();
        let key = FrontKey::of(&o);
        let front_moves = [
            CompileOptions { warps: 3, ..o.clone() },
            CompileOptions { w_flops: 2.0, ..o.clone() },
            CompileOptions { w_regs: 0.0, ..o.clone() },
            CompileOptions { w_locality: 1.0, ..o.clone() },
            CompileOptions { placement: Placement::Mixed(88), ..o.clone() },
            CompileOptions { uniform_shared_reads: false, ..o.clone() },
            // Floats compare by their bits.
            CompileOptions { w_regs: -0.0, ..CompileOptions { w_regs: 0.0, ..o.clone() } },
        ];
        for moved in &front_moves {
            assert_ne!(FrontKey::of(moved), key, "{moved:?}");
        }
        let back_moves = [
            CompileOptions { point_iters: 8, ..o.clone() },
            CompileOptions { target_ctas_per_sm: 1, ..o.clone() },
            CompileOptions { exp_const_from_registers: true, ..o.clone() },
            CompileOptions { unsafe_remove_barriers: true, ..o.clone() },
            CompileOptions { verify: crate::VerifyLevel::Off, ..o.clone() },
            CompileOptions { pipeline_depth: 4, ..o.clone() },
        ];
        for moved in &back_moves {
            assert_eq!(FrontKey::of(moved), key, "{moved:?}");
        }
    }

    #[test]
    fn stats_populated() {
        let mut d = diamond();
        d.ops[0].pinned_warp = Some(0);
        d.ops[1].pinned_warp = Some(1);
        d.ops[2].pinned_warp = Some(2);
        d.ops[3].pinned_warp = Some(0);
        let opts = CompileOptions::with_warps(3);
        let c = compile_warp_specialized(&d, &opts, &GpuArch::kepler_k20c()).unwrap();
        assert!(c.stats.sync_points > 0);
        assert!(c.stats.barriers_used >= 1);
        assert!(c.kernel.barriers_used <= 16);
    }
}
