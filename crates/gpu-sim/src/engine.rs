//! Segment-compiled SoA execution engine — the fast path behind
//! [`crate::interp::run_cta`].
//!
//! Warp streams in this IR have no data-dependent control flow: index
//! registers are written only by the index ISA, whose inputs are lane ids,
//! the warp id, integer constant banks, and immediates — never f64 data
//! and never a CTA id. Every index-register value is therefore a static
//! function of `(warp, stream position)` and identical across CTAs. The
//! lowering pass exploits this: it abstractly interprets each warp's
//! flattened stream once, *evaluating every index instruction at compile
//! time*, and emits barrier-separated **segments** of dense micro-ops in
//! which shared-memory addresses, constant values (and the constant-cache
//! lines they touch), and global row/point offsets are already resolved.
//! Only the grid placement (`total_points`, `base_point`) and the
//! executing warp are supplied at run time, completing global indices as
//! `row * total_points + point`.
//!
//! The unit of lowering is the flattening's **warp class**
//! ([`FlatProgram::class_of`]): warps with equal streams are lowered and
//! optimized once and replay one segment list. The warp id reaches
//! lowering in exactly two places, and each is met head-on. A
//! `PointRef::Thread` global address (`base_point + warp * 32 + lane`)
//! stays symbolic in the warp, which the executing warp supplies exactly
//! as the CTA supplies `base_point`. `IdxInstr::WarpId` is the one
//! instruction whose value lowering folds into addresses: a class whose
//! stream executes it is lowered once per member instead. A singleton
//! class — every class of a warp-specialized kernel — is simply the
//! per-warp path. [`EngineStats`] keeps describing the program one CTA
//! *executes* (each warp's lowered stream counted per warp), so nothing a
//! figure or the model reads depends on how much storage the warps share.
//!
//! Within a class the unit is the flattening's **run**: an op range
//! executed `trips` times, the point set advancing by a fixed step. A run
//! is lowered trip after trip by one per-op routine, and a run of two or
//! more repetitions is first tried *rolled*: one **period** of its trips —
//! the lcm of `k` over the body's stage-rotated barriers and pipeline
//! offsets, so a K-stage ring rotates inside it — lowered into segments of
//! its own and closed by a `SegTerm::Repeat { to, reps, advance }`. That
//! stands for the whole run when, and only when, every repetition would
//! lower to the same micro-ops, which is three checks: `trips` is a
//! multiple of the period, no trap was planted, and the index registers
//! the period read before writing them hold at its end the lanes they held
//! at its start (index registers are the only state lowering folds into
//! micro-ops; the point set enters otherwise only as `pset % k`, which the
//! period fixes, and as the `PointRef::Lane` point offset, which stays
//! symbolic and is completed per repetition at run time, like
//! `base_point`). When a check fails lowering simply carries on with the
//! next trip. A body stored once is where the memory went: a
//! warp-specialized kernel's streaming point loop keeps one period of
//! micro-ops instead of one copy per trip.
//!
//! Execution replays the segments over the same SoA lane vectors the
//! interpreter uses (32 contiguous `f64` slots per register), but:
//!
//! - per-instruction dispatch collapses to a small micro-op match with no
//!   bounds re-derivation (lowering proved every static access in range);
//! - statically-known event counts (issue slots, DP slots/flops, branch
//!   and barrier ops, shared-memory transactions and conflicts, local
//!   bytes) are charged **in bulk per segment** from a precomputed
//!   [`StaticSegCounts`] (and so is a profiler's cycle attribution); only
//!   genuinely dynamic events (global coalescing) remain per-op, and only
//!   on the collecting path, while constant-cache lines replay once per
//!   segment from a pre-resolved script;
//! - the CTA around the warps is not the engine's at all: the barrier file,
//!   the cooperative round-robin with its deadlock report, shared memory,
//!   the output buffers, the constant cache and the three global-memory
//!   lane loops are [`crate::cta`]'s, which the interpreter runs under too.
//!   The engine is the stepper [`run_warp`] — "run warp `w`'s segments
//!   until it blocks or ends" — so order-sensitive state (the shared LRU
//!   constant cache, barrier stall switches, shared-memory write order) is
//!   the interpreter's by construction, not by replay.
//!
//! Errors the interpreter would raise while executing (out-of-range
//! registers, shared/constant overruns, stores to non-output arrays) are
//! discovered during lowering — by the same functions, since what an index
//! instruction computes, what a shared or constant access resolves to and
//! which barrier an instruction operates are stated once, in [`crate::isa`]
//! and [`crate::cta`], for the interpreter to execute and lowering to
//! evaluate — and embedded as positional [`UOp::Trap`] micro-ops carrying
//! the exact [`SimError`]; lowering stops for that warp at the trap. A trap
//! only fires if the schedule actually reaches it, so kernels that deadlock
//! first still report the deadlock.
//!
//! After lowering, each stream's micro-ops run a
//! bit-identity-preserving optimization pipeline (`optimize_warp`, pass
//! order is load-bearing): shuffles reading a lowering-time-known
//! constant chunk fold to movs from the constant tail, mov chains are
//! copy-propagated, a mul feeding its sole add/sub consumer fuses into one
//! two-destination micro-op, stride-0 shared reads and
//! gather+single-lane-shuffle pairs collapse to one-word broadcasts, and
//! dead micro-ops fall to backward liveness. An immediate is never a value
//! in a micro-op: it is a chunk of a read-only constant tail addressed past
//! the architectural register file, which lowering takes over from the
//! flattening (so a decoded operand stays valid in a micro-op), grows with
//! the constants folding makes, and compacts to the chunks still read once
//! the last stream is optimized. Around a rolled body the passes are loop-aware in the two
//! places they must be: a forward pass entering a body forgets every chunk
//! the body writes (what it knows at the head must hold on every entry),
//! and backward liveness takes the body's end as live for what follows the
//! loop or for the body's own head, iterated to a fixed point. A body's
//! boundaries are segment boundaries, so neither fusion pairs a micro-op
//! inside with one outside.
//!
//! Lowering is linear in the stored stream — a rolled body costs about
//! what one of its periods does, however many trips it stands for. Every
//! pass is one walk over the warp's uops (a body's liveness, two or three)
//! that asks its questions — is this copy still valid, is the
//! chunk live, what constant does it hold —
//! of one dense, generation-stamped `ChunkTable` indexed by register
//! chunk: an array read per operand, an O(1) reset per pass, no hashing
//! and no rescans. Three visitors (`for_each_read_chunk`,
//! `for_each_write_chunk`, `for_each_src_mut`) are the only places that
//! enumerate micro-op operands, so a pass states its transfer function
//! once instead of re-matching the ISA. The body around the passes
//! resolves addresses on the stack and deduplicates address/constant
//! chunks through a word-at-a-time hash; tombstones compact in place.
//! [`crate::flatcache::engine_stats`] returns the lowered program's op mix.
//!
//! A lowered program is cached on the flattening it was lowered from
//! (see [`crate::flatcache::engine_cached`]), which the process-wide memo
//! files under the kernel's structural fingerprint; lowering is
//! independent of the grid, the architecture, and the CTA index. What an
//! entry retains is [`FlatProgram::heap_bytes`]: the micro-ops at
//! [`UOP_BYTES`] each — one copy per class and per rolled loop body, which
//! is where a data-parallel kernel's eight-fold redundancy and a streaming
//! kernel's per-trip copies went — and the operand arenas and the constant
//! tail;
//! [`crate::flatcache::lowering_shape`] counts what is stored.
//!
//! Profiled runs execute here too. The cycle-attribution profiler reads a
//! warp's clock only at barrier operations, blocks, releases and the end of
//! its stream — segment boundaries all — so [`run_warp`] charges a
//! segment's issue slots, branch headers and constant replay in one bulk
//! charge at its entry, from the same [`StaticSegCounts`], line script and
//! constant-load count it already replays. Differential tests pin the two
//! executors bit-identical on outputs, `EventCounts`, errors and profiles
//! against the interpreter ([`crate::interp::run_cta_profiled`]) — they
//! test lowering, the optimizer, the bulk counts and the rolled bodies,
//! which is all that differs.

use std::collections::HashMap;

use crate::counts::StaticSegCounts;
use crate::cta::{self, bank_transactions, CtaMem, CtaResult, Points, Schedule};
use crate::error::{SimError, SimResult};
use crate::interp::{
    dreg_base, exec_fast, operand, out_chunk, period_of, src_vals, ConstTail, DecodedInstr, FlatOp,
    FlatProgram, Run, Src,
};
use crate::isa::*;
use crate::lanes;
use crate::profile::Profiler;
use crate::WARP_SIZE;

/// Version of the flatten/lowering/optimizer semantics. Bump this on ANY
/// change that can alter what `lower` (or `interp::flatten`)
/// produces for an unchanged kernel — new peephole passes, changed µop
/// encodings, different trap placement, rewrite-gate tweaks.
///
/// The constant is folded into every structural kernel fingerprint
/// ([`crate::flatcache::fingerprint`]), which keys both the in-memory
/// flatten/lowering memos and the on-disk compiled-kernel artifacts of the
/// serve layer. Without it, keying is purely structural: a semantics bump
/// would silently replay stale lowered programs cached under the old
/// semantics (in-memory across test-harness reconfigurations, on-disk
/// across process restarts).
pub const LOWERING_VERSION: u32 = 13;

/// How a segment ends: by falling through, with a named-barrier operation
/// handled at scheduler level, or by closing a rolled loop body.
#[derive(Debug, Clone, Copy)]
enum SegTerm {
    /// Nothing to do: execution continues with the next segment, and the
    /// stream is exhausted if there is none.
    End,
    /// Non-blocking `bar.arrive`.
    Arrive { bar: u8, expected: u16 },
    /// Potentially-blocking `bar.sync`.
    Sync { bar: u8, expected: u16 },
    /// End of a rolled loop body — segments `to..=` this one, one period of
    /// the loop's trips — which executes `reps` times in all: go back to
    /// segment `to` with every [`PtsRef::Rel`] point moved on by `advance`,
    /// or fall through after the last repetition.
    Repeat { to: u32, reps: u32, advance: u32 },
}

/// One barrier-separated superblock of a warp's stream: a dense micro-op
/// range, its statically-known event counts, its pre-resolved
/// constant-cache line script, and its terminator.
#[derive(Debug)]
struct Segment {
    uops: std::ops::Range<u32>,
    /// Concatenated constant-cache line sequence of every constant load in
    /// this segment, in access order (range into [`EngineProgram::lines`]).
    /// Segments are uninterruptible, so replaying the whole script once
    /// per segment preserves the global LRU access order exactly — the
    /// per-access walk leaves the inner loop entirely.
    lines: std::ops::Range<u32>,
    /// Constant loads the script is the lines of, each one line or more:
    /// a profiled run charges the lines past each load's first as replay.
    /// Counted at lowering, because dead-code elimination may delete a
    /// load's `ConstV` while its lines stay in the script.
    const_loads: u32,
    bulk: StaticSegCounts,
    term: SegTerm,
}

/// Where a global access takes its per-lane point index from.
#[derive(Debug, Clone, Copy)]
enum PtsRef {
    /// `point = base_point + delta + lane` (PointRef::Lane, with the
    /// point-set offset folded into `delta`), plus, inside a rolled loop
    /// body, the points the repetitions before this one advanced by —
    /// completed at run time as `base_point` is.
    Rel(u32),
    /// `point = base_point + warp * WARP_SIZE + lane` (PointRef::Thread):
    /// completed from the executing warp's id at run time, as `base_point`
    /// is, so the warps of a class share the micro-op.
    Thread,
    /// Statically-resolved absolute points (PointRef::Reg): a 32-lane
    /// chunk index into the u32 arena.
    Abs(u32),
}

/// A pre-resolved micro-op. Register offsets are lane-major base indices
/// (`reg * WARP_SIZE`) and operands chunk bases ([`Src`]), exactly as in the
/// interpreter's decoded form; all static bounds were proven by decoding or
/// lowering. At most 24 bytes, like every stored operand a `u32`.
#[derive(Debug, Clone, Copy)]
enum UOp {
    /// Register-only instruction, executed by the interpreter's own
    /// [`exec_fast`] (guaranteeing identical floating-point behavior).
    Fast(DecodedInstr),
    /// Fused `t = a * b; d = t <op> c` pair produced by the lowering
    /// peephole. Both roundings are kept (product rounds, then the second
    /// op rounds) and both destinations are written, so the result is
    /// bit-identical to the two unfused instructions the interpreter
    /// executes — no gating needed for the differential tests.
    FusedMulBin { kind: lanes::FusedBin, t: u32, d: u32, a: Src, b: Src, c: Src },
    /// Constant load with values fully resolved: copy a 32-lane chunk
    /// from the f64 arena. The cache-line walk moved to the segment's
    /// line script ([`Segment::lines`]).
    ConstV { dst: u32, vals: u32 },
    /// Shared load from pre-resolved, pre-validated addresses.
    LdShared { dst: u32, addrs: u32 },
    /// Fused stage-and-broadcast: read one pre-validated shared word and
    /// splat it across the destination chunk. Produced by the DCE pass
    /// from an `LdShared` gather whose only consumer was a single-lane
    /// `Shfl` — the warp-specialized kernels' staple pattern — replacing
    /// a 32-lane gather plus a broadcast with one load.
    LdSharedBcast { dst: u32, addr: u32 },
    /// Shared store; `lane == u32::MAX` stores all lanes, otherwise only
    /// the predicated lane (lowering rejects `lane >= WARP_SIZE`).
    StShared { src: Src, addrs: u32, lane: u32 },
    /// Global load: `idx[l] = rows[l] * total_points + point(l)`.
    LdGlobal { dst: u32, array: u32, rows: u32, pts: PtsRef },
    /// Global store, same addressing.
    StGlobal { src: Src, array: u32, rows: u32, pts: PtsRef },
    /// Async-copy one value per lane global → shared without touching a
    /// register ([`Instr::CpAsync`]): `shared[addrs[l]] = global[idx(l)]`.
    /// Addresses are pre-resolved (shared addrs saturated into the u32
    /// arena like `StShared`); bounds are checked per lane at run time by
    /// [`CtaMem::cp_async`] (global read, then shared store), because the
    /// global side depends on the runtime grid placement.
    /// Side-effecting like `StShared`: never dead, reads and writes no
    /// registers.
    CpAsync { addrs: u32, array: u32, rows: u32, pts: PtsRef },
    /// Deferred execution-time error discovered at lowering time.
    Trap(u32),
    /// Tombstone left by the optimization passes (fused second halves,
    /// dead copies); compaction removes every one before execution.
    Nop,
}

/// Bytes of one stored micro-op — the unit [`EngineStats::uops`] counts
/// and the bulk of what [`FlatProgram::heap_bytes`] reports.
pub const UOP_BYTES: usize = std::mem::size_of::<UOp>();

const _: () = assert!(UOP_BYTES <= 24);

/// A lowered CTA program: segment lists over shared micro-op and operand
/// arenas, one list per warp class (per warp only where the warp id
/// reached lowering). Arch/grid/CTA independent — cache freely.
#[derive(Debug)]
pub(crate) struct EngineProgram {
    /// Lowered streams: each one's segments, in stream order.
    lowered: Vec<Vec<Segment>>,
    /// Warp → index into `lowered`. The warps of a class share one entry
    /// unless the class executes `IdxInstr::WarpId`.
    lowered_of: Vec<u32>,
    uops: Vec<UOp>,
    /// 32-lane u32 chunks (shared addresses, global rows, absolute
    /// points), deduplicated; indexed by chunk (byte offset = idx * 32).
    u32x: Vec<u32>,
    /// 32-lane f64 chunks (resolved constant loads), deduplicated.
    f64x: Vec<f64>,
    /// Ordered constant-cache line scripts, referenced per segment by
    /// [`Segment::lines`].
    lines: Vec<u64>,
    /// The read-only *constant tail* shared by every warp: one splat chunk
    /// per distinct immediate a micro-op reads. Operand resolution treats a
    /// base at or past the architectural register file as an offset into
    /// it, so an immediate is a plain chunk read, and no warp's register
    /// file grows. Lowering starts from the flattening's tail and ends with
    /// the chunks some micro-op still reads ([`compact_tail`]).
    dreg_tail: Vec<f64>,
    /// Deferred errors referenced by [`UOp::Trap`].
    traps: Vec<SimError>,
    /// Lowering statistics: the op mix one CTA executes.
    stats: EngineStats,
    /// What is stored, as against executed.
    shape: LoweringShape,
    /// The optimizer's chunk-table lookups while lowering this program.
    #[cfg(test)]
    work: u64,
}

/// How much of a program lowering stored, and how its loops went: the
/// counts [`EngineStats`] — the mix *executed* — cannot show once a loop
/// body is kept once ([`crate::flatcache::lowering_shape`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoweringShape {
    /// Micro-ops stored, over all lowered streams.
    pub stored_uops: u64,
    /// Runs of two or more trips lowered as one period closed by a repeat,
    /// over all lowered streams.
    pub rolled_runs: u32,
    /// Runs of two or more trips lowered trip after trip: fewer than two
    /// periods, a trip count the period does not divide, or an index
    /// register the body carries from one trip into the next.
    pub unrolled_runs: u32,
}

/// The op mix of the program one CTA executes — each warp's lowered stream
/// counted once per warp, however many warps share its storage — through
/// [`crate::flatcache::engine_stats`].
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Micro-ops surviving optimization and compaction.
    pub uops: u64,
    /// `Exp` micro-ops in the final program.
    pub exp_ops: u64,
    /// Always 0: lowering no longer batches `exp`s (the pass fired on none
    /// of the 54 canonical kernels). Kept because the frozen benchmark
    /// catalogue reads the field.
    pub exp_batched: u64,
    /// Always 0, kept for the same reader: repeated-operand `exp`s are no
    /// longer replaced by copies.
    pub exp_cse: u64,
    /// Always 0, kept for the same reader: `exp(a)*exp(b)` is no longer
    /// rewritten to `exp(a+b)`.
    pub exp_mul_applied: u64,
    /// `CpAsync` micro-ops in the final program — fused global→shared
    /// copies that bypass the register file (Hopper-class pipelines).
    pub async_copies: u64,
}

impl EngineProgram {
    pub(crate) fn stats(&self) -> &EngineStats {
        &self.stats
    }

    pub(crate) fn shape(&self) -> LoweringShape {
        self.shape
    }

    /// Heap bytes the lowered program retains, from lengths times element
    /// sizes (the inputs of [`FlatProgram::heap_bytes`]).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let segments: usize = self.lowered.iter().map(Vec::len).sum();
        self.uops.len() * UOP_BYTES
            + segments * size_of::<Segment>()
            + self.lowered_of.len() * size_of::<u32>()
            + self.u32x.len() * size_of::<u32>()
            + (self.f64x.len() + self.dreg_tail.len()) * size_of::<f64>()
            + self.lines.len() * size_of::<u64>()
            + self.traps.len() * size_of::<SimError>()
    }

    /// FNV-1a digest of everything lowering produced: the lowered streams'
    /// segments (ranges, bulk counts, terminators) and the warp map onto
    /// them, micro-ops and traps through their `Debug` form — lossless,
    /// since no micro-op holds an `f64` (an immediate is a tail chunk) — the
    /// op mix, and the arenas by bit pattern. Two lowerings with equal
    /// digests replay identically, so pinned digests
    /// (`tests/lowering_digest.rs`) prove an optimizer change needs no
    /// [`LOWERING_VERSION`] bump.
    pub(crate) fn digest(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn bytes(&mut self, b: &[u8]) {
                for &x in b {
                    self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.bytes(s.as_bytes());
                Ok(())
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        std::fmt::Write::write_fmt(
            &mut h,
            format_args!(
                "{:?}{:?}{:?}{:?}{:?}{:?}",
                self.lowered,
                self.lowered_of,
                self.uops,
                self.traps,
                self.stats,
                self.f64x.len()
            ),
        )
        .expect("hashing never fails");
        self.u32x.iter().for_each(|v| h.bytes(&v.to_le_bytes()));
        self.f64x.iter().chain(&self.dreg_tail).for_each(|v| h.bytes(&v.to_bits().to_le_bytes()));
        self.lines.iter().for_each(|v| h.bytes(&v.to_le_bytes()));
        h.0
    }
}

struct Lowerer<'k> {
    kernel: &'k Kernel,
    bank_base: Vec<u64>,
    uops: Vec<UOp>,
    u32x: Vec<u32>,
    f64x: Vec<f64>,
    lines: Vec<u64>,
    /// Constant-cache lines touched by the segment currently being
    /// lowered, and the loads that touched them; drained into `lines` and
    /// the segment when it flushes.
    cur_lines: Vec<u64>,
    cur_const_loads: u32,
    traps: Vec<SimError>,
    u32_dedup: WordMap<[u32; WARP_SIZE], u32>,
    f64_dedup: WordMap<[u64; WARP_SIZE], u32>,
    /// The constant tail: the flattening's, then what folding interns.
    tail: ConstTail,
    /// The optimizer's def/use table, shared by every pass of every warp.
    chunks: ChunkTable,
    shape: LoweringShape,
}

/// One warp's index registers under abstract interpretation (values are
/// CTA-invariant, see the module docs), with what rolling a loop needs to
/// know of them: which registers the period being lowered read before it
/// wrote them, and what they held when it began.
struct IdxRegs {
    vals: Vec<u32>,
    /// Per register, since [`IdxRegs::begin_period`]: written.
    written: Vec<bool>,
    /// Per register, since [`IdxRegs::begin_period`]: read while unwritten.
    carried_in: Vec<bool>,
    /// `vals` at [`IdxRegs::begin_period`].
    at_start: Vec<u32>,
}

impl IdxRegs {
    fn new(regs: usize) -> IdxRegs {
        IdxRegs {
            vals: vec![0; regs * WARP_SIZE],
            written: vec![false; regs],
            carried_in: vec![false; regs],
            at_start: Vec::new(),
        }
    }

    /// Overwrite register `r`, which the caller bounds-checked.
    fn write(&mut self, r: usize, lanes: [u32; WARP_SIZE]) {
        self.written[r] = true;
        self.vals[r * WARP_SIZE..(r + 1) * WARP_SIZE].copy_from_slice(&lanes);
    }

    fn begin_period(&mut self) {
        self.written.fill(false);
        self.carried_in.fill(false);
        self.at_start.clone_from(&self.vals);
    }

    /// Whether the period lowered since [`IdxRegs::begin_period`] left
    /// every register it read before writing as it found it. If so the
    /// next period reads what this one read, and — index registers being
    /// the only state lowering folds — lowers to the same micro-ops.
    fn period_closed(&self) -> bool {
        self.carried_in.iter().enumerate().all(|(r, &carried)| {
            let lanes = r * WARP_SIZE..(r + 1) * WARP_SIZE;
            !carried || self.vals[lanes.clone()] == self.at_start[lanes]
        })
    }
}

/// The file [`crate::isa`]'s index semantics read while lowering evaluates
/// them: reads are recorded once per register per operand, not once per lane.
impl IdxFile for IdxRegs {
    fn regs(&self) -> usize {
        self.written.len()
    }

    fn lanes(&mut self, r: usize) -> Option<IdxLanes> {
        let lanes = self.vals.get(r * WARP_SIZE..(r + 1) * WARP_SIZE)?;
        self.carried_in[r] |= !self.written[r];
        Some(lanes.try_into().expect("one register of lanes"))
    }
}

/// One stream's lowering in progress: the segments closed so far, the open
/// one, and the index registers.
struct Lowering {
    segs: Vec<Segment>,
    /// First micro-op of the open segment.
    seg_start: u32,
    /// Static event counts of the open segment.
    bulk: StaticSegCounts,
    iregs: IdxRegs,
    /// Whether an `IdxInstr::WarpId` was lowered.
    read_warp_id: bool,
}

/// A trap was planted: lowering of the stream stops there.
struct Trapped;

/// Lower a flattened program into its segment-compiled form. Infallible:
/// execution-time errors become positional traps.
pub(crate) fn lower(kernel: &Kernel, prog: &FlatProgram) -> EngineProgram {
    let dreg_len = kernel.dregs_per_thread * WARP_SIZE;
    let mut lw = Lowerer {
        kernel,
        bank_base: cta::const_bank_bases(kernel),
        uops: Vec::new(),
        u32x: Vec::new(),
        f64x: Vec::new(),
        lines: Vec::new(),
        cur_lines: Vec::new(),
        cur_const_loads: 0,
        traps: Vec::new(),
        u32_dedup: WordMap::default(),
        f64_dedup: WordMap::default(),
        tail: ConstTail::new(dreg_len, prog.tail.clone()),
        chunks: ChunkTable::new(),
        shape: LoweringShape::default(),
    };
    // Lower each class at its first warp and let the later members share
    // the result, unless that lowering read the warp id: then every member
    // gets its own. The op mix stays what one CTA executes: each warp adds
    // its lowered stream's, shared or not.
    let mut lowered: Vec<Vec<Segment>> = Vec::new();
    let mut mixes: Vec<EngineStats> = Vec::new();
    let mut shared: Vec<Option<u32>> = vec![None; prog.n_classes()];
    let mut lowered_of: Vec<u32> = Vec::with_capacity(prog.n_warps());
    let mut stats = EngineStats::default();
    for w in 0..prog.n_warps() {
        let class = prog.class_of(w);
        let at = match shared[class] {
            Some(at) => at,
            None => {
                let (segs, read_warp_id) = lw.lower_warp(prog, w);
                mixes.push(op_mix(&segs, &lw.uops));
                lowered.push(segs);
                let at = (lowered.len() - 1) as u32;
                if !read_warp_id {
                    shared[class] = Some(at);
                }
                at
            }
        };
        let mix = &mixes[at as usize];
        stats.uops += mix.uops;
        stats.exp_ops += mix.exp_ops;
        stats.async_copies += mix.async_copies;
        lowered_of.push(at);
    }
    // Hand the arenas back at their length: `uops` grew to each stream's
    // pre-optimization size before compaction truncated it.
    let mut uops = lw.uops;
    uops.shrink_to_fit();
    lw.u32x.shrink_to_fit();
    lw.f64x.shrink_to_fit();
    lw.lines.shrink_to_fit();
    let dreg_tail = compact_tail(&mut uops, dreg_len, &lw.tail.into_vals());
    let shape = LoweringShape { stored_uops: uops.len() as u64, ..lw.shape };
    EngineProgram {
        lowered,
        lowered_of,
        uops,
        u32x: lw.u32x,
        f64x: lw.f64x,
        lines: lw.lines,
        dreg_tail,
        traps: lw.traps,
        stats,
        shape,
        #[cfg(test)]
        work: lw.chunks.touches.get(),
    }
}

/// The op mix one warp executes off a lowered stream: each segment's
/// micro-ops, those of a rolled body once per repetition.
fn op_mix(segs: &[Segment], uops: &[UOp]) -> EngineStats {
    let mut times = vec![1u64; segs.len()];
    for (at, seg) in segs.iter().enumerate() {
        if let SegTerm::Repeat { to, reps, .. } = seg.term {
            times[to as usize..=at].fill(u64::from(reps));
        }
    }
    let mut mix = EngineStats::default();
    for (seg, times) in segs.iter().zip(times) {
        let uops = &uops[seg.uops.start as usize..seg.uops.end as usize];
        mix.uops += times * uops.len() as u64;
        for u in uops {
            match u {
                UOp::Fast(DecodedInstr::Un { kind: UnOp::Exp, .. }) => mix.exp_ops += times,
                UOp::CpAsync { .. } => mix.async_copies += times,
                _ => {}
            }
        }
    }
    mix
}

impl Lowerer<'_> {
    fn push_u32x(&mut self, v: [u32; WARP_SIZE]) -> u32 {
        if let Some(&idx) = self.u32_dedup.get(&v) {
            return idx;
        }
        let idx = (self.u32x.len() / WARP_SIZE) as u32;
        self.u32x.extend_from_slice(&v);
        self.u32_dedup.insert(v, idx);
        idx
    }

    fn push_f64x(&mut self, v: [f64; WARP_SIZE]) -> u32 {
        let key: [u64; WARP_SIZE] = std::array::from_fn(|l| v[l].to_bits());
        if let Some(&idx) = self.f64_dedup.get(&key) {
            return idx;
        }
        let idx = (self.f64x.len() / WARP_SIZE) as u32;
        self.f64x.extend_from_slice(&v);
        self.f64_dedup.insert(key, idx);
        idx
    }

    /// Close the current segment: commit its uop range, drain its
    /// accumulated constant-line script, and take its bulk counts.
    fn flush_seg(&mut self, lo: &mut Lowering, term: SegTerm) {
        let range = lo.seg_start..self.uops.len() as u32;
        // An empty segment that only falls through would make a finished
        // warp look like it still ran an instruction; skip it (a warp whose
        // stream ends exactly at a barrier, or is empty, has no trailing
        // work, and the schedule counts a round by what ran).
        let keep = !range.is_empty()
            || lo.bulk != StaticSegCounts::default()
            || !matches!(term, SegTerm::End);
        if keep {
            let lstart = self.lines.len() as u32;
            self.lines.append(&mut self.cur_lines);
            let lines = lstart..self.lines.len() as u32;
            let const_loads = std::mem::take(&mut self.cur_const_loads);
            let bulk = std::mem::take(&mut lo.bulk);
            lo.segs.push(Segment { uops: range, lines, const_loads, bulk, term });
        } else {
            // Lines only accumulate from constant loads, which push uops.
            debug_assert!(self.cur_lines.is_empty() && self.cur_const_loads == 0);
        }
        lo.seg_start = self.uops.len() as u32;
    }

    /// Lower warp `w`'s stream, run by run. The flag reports whether
    /// lowering read the warp id (an executed `IdxInstr::WarpId`): if not,
    /// the segments are every class member's, because the one other use of
    /// the warp — a `PointRef::Thread` global address — is completed at run
    /// time.
    fn lower_warp(&mut self, prog: &FlatProgram, w: usize) -> (Vec<Segment>, bool) {
        let warp_start = self.uops.len();
        let mut lo = Lowering {
            segs: Vec::new(),
            seg_start: warp_start as u32,
            bulk: StaticSegCounts::default(),
            iregs: IdxRegs::new(self.kernel.iregs_per_thread),
            read_warp_id: false,
        };
        // (A trap closed the last segment itself.)
        if prog.runs(w).iter().try_for_each(|run| self.lower_run(prog, &mut lo, run, w)).is_ok() {
            self.flush_seg(&mut lo, SegTerm::End);
        }
        self.optimize_warp(warp_start, &mut lo.segs);
        (lo.segs, lo.read_warp_id)
    }

    /// Lower one run of warp `w`'s stream, trip by trip through
    /// [`Lowerer::lower_trip`]. A run of two or more *periods*
    /// ([`period_of`]) is first tried rolled: its first period is lowered
    /// into segments of its own, and if the index registers it read are as
    /// it found them ([`IdxRegs::period_closed`]), every later period would
    /// lower to the same micro-ops, so a [`SegTerm::Repeat`] stands for
    /// them. Otherwise lowering just carries on with the next trip.
    fn lower_run(
        &mut self,
        prog: &FlatProgram,
        lo: &mut Lowering,
        run: &Run,
        w: usize,
    ) -> Result<(), Trapped> {
        let ops = prog.run_ops(w, run);
        // Only barriers and `PipeOff` move the period, and both keep their
        // `Instr`.
        let instrs = ops.iter().filter_map(|op| op.instr()).filter_map(|i| prog.instr(i));
        let period = period_of(instrs, run.pset_step);
        let mut lowered = 0;
        if run.trips.is_multiple_of(period) && run.trips / period >= 2 {
            // The body gets segments of its own: the repeat jumps to its
            // first, and no fusion may pair a micro-op in it with one
            // outside.
            self.flush_seg(lo, SegTerm::End);
            lo.iregs.begin_period();
            let to = lo.segs.len() as u32;
            for trip in 0..period {
                self.lower_trip(prog, lo, ops, run.pset(trip), w)?;
            }
            if lo.iregs.period_closed() {
                let advance = period * run.pset_step * WARP_SIZE as u32;
                self.flush_seg(lo, SegTerm::Repeat { to, reps: run.trips / period, advance });
                self.shape.rolled_runs += 1;
                return Ok(());
            }
            lowered = period;
        }
        for trip in lowered..run.trips {
            self.lower_trip(prog, lo, ops, run.pset(trip), w)?;
        }
        self.shape.unrolled_runs += u32::from(run.trips >= 2);
        Ok(())
    }

    /// Lower one trip of a run — `ops` at point set `pset` — onto the open
    /// segment: the one routine behind every micro-op, whether the trip is
    /// a rolled period's or one of many taken one by one.
    fn lower_trip(
        &mut self,
        prog: &FlatProgram,
        lo: &mut Lowering,
        ops: &[FlatOp],
        pset: u32,
        w: usize,
    ) -> Result<(), Trapped> {
        for op in ops {
            let Some(i) = op.instr() else {
                lo.bulk.issue_slots += 1;
                lo.bulk.warp_branches += 1;
                continue;
            };
            let cost = prog.costs[i];
            lo.bulk.issue_slots += cost.slots();
            if cost.dp {
                lo.bulk.dp_slots += cost.slots();
                lo.bulk.flops += cost.flops_warp();
                lo.bulk.dp_const_slots += cost.const_slots();
            }
            match prog.decoded[i] {
                // A stage-rotated barrier resolves statically against the
                // trip's point set: the schedule sees a plain arrive or sync.
                DecodedInstr::Barrier(k) => {
                    let BarOp { bar, expected, sync } =
                        prog.instrs[k as usize].barrier_op(pset).expect("decoded as a barrier");
                    if sync {
                        lo.bulk.barrier_syncs += 1;
                        self.flush_seg(lo, SegTerm::Sync { bar, expected });
                    } else {
                        lo.bulk.barrier_arrives += 1;
                        self.flush_seg(lo, SegTerm::Arrive { bar, expected });
                    }
                }
                DecodedInstr::Invalid { space, addr, limit } => {
                    self.trap(space.fault(addr, limit));
                    self.flush_seg(lo, SegTerm::End);
                    return Err(Trapped);
                }
                DecodedInstr::Slow(k) => {
                    let ins = &prog.instrs[k as usize];
                    lo.read_warp_id |= matches!(ins, Instr::Idx(IdxInstr::WarpId { .. }));
                    if let Err(e) = self.lower_slow(ins, pset, w, &mut lo.iregs, &mut lo.bulk) {
                        self.trap(e);
                        self.flush_seg(lo, SegTerm::End);
                        return Err(Trapped);
                    }
                }
                dec @ (DecodedInstr::LdLocal { .. } | DecodedInstr::StLocal { .. }) => {
                    lo.bulk.local_bytes += (WARP_SIZE * 8) as u64;
                    self.uops.push(UOp::Fast(dec));
                }
                dec => self.uops.push(UOp::Fast(dec)),
            }
        }
        Ok(())
    }

    /// Post-lowering optimization over one warp's uops: constant-shuffle
    /// folding, copy propagation, the mul→add/sub fusion peephole,
    /// dead-code elimination, and compaction. Bulk
    /// counts derive from the *pre*-fusion instruction
    /// stream and are untouched, so `EventCounts` stay bit-identical to
    /// the interpreter's per-instruction bookkeeping; every rewrite below
    /// preserves observable values bit-for-bit (registers are warp-private
    /// and only observable through stores, outputs, and errors).
    ///
    /// A rolled loop body's micro-ops run once per repetition, so a pass
    /// may assume of its head only what holds on every entry and of its end
    /// only what holds on every exit. Two rules cover it. The forward
    /// passes forget, on entering a body, every chunk the body writes
    /// ([`forget_body_writes`]): what they then know at its head held before
    /// the loop and survives a trip. Backward liveness takes the body's end
    /// as live for what follows the loop *or* the body's own head, to a
    /// fixed point. The fusions need no rule: each pairs micro-ops of one
    /// segment, and a body's first and last segments are its own.
    fn optimize_warp(&mut self, warp_start: usize, segs: &mut [Segment]) {
        let dreg_len = self.kernel.dregs_per_thread * WARP_SIZE;
        let t = &mut self.chunks;
        let rel = |at: u32| at as usize - warp_start;
        let bodies: Vec<Body> = segs
            .iter()
            .filter_map(|seg| match seg.term {
                SegTerm::Repeat { to, .. } => {
                    let uops = rel(segs[to as usize].uops.start)..rel(seg.uops.end);
                    Some(Body::new(uops, &self.uops[warp_start..], t))
                }
                _ => None,
            })
            .collect();
        let uops = &mut self.uops[warp_start..];
        fold_const_shuffles(uops, &self.f64x, &mut self.tail, dreg_len, &bodies, t);
        copy_propagate(uops, dreg_len, &bodies, t);
        fuse_mul_bin(uops, segs, warp_start as u32);
        eliminate_dead_uops(uops, dreg_len, &self.u32x, segs, warp_start as u32, &bodies, t);
        // Compact tombstones out in place, segment by segment (the
        // segments tile the warp's uops in order, so each one's survivors
        // slide down to where the previous one's ended).
        let mut kept = warp_start;
        for seg in segs.iter_mut() {
            let old = seg.uops.start as usize..seg.uops.end as usize;
            debug_assert!(old.start >= kept, "segments are in stream order");
            seg.uops.start = kept as u32;
            for i in old {
                if !matches!(self.uops[i], UOp::Nop) {
                    self.uops[kept] = self.uops[i];
                    kept += 1;
                }
            }
            seg.uops.end = kept as u32;
        }
        self.uops.truncate(kept);
    }

    fn trap(&mut self, e: SimError) {
        let idx = self.traps.len() as u32;
        self.traps.push(e);
        self.uops.push(UOp::Trap(idx));
    }

    /// Lower one memory / constant / index instruction, statically
    /// evaluating all index-register reads through the semantics
    /// [`crate::isa`] and [`crate::cta`] state once — the ones the
    /// interpreter executes — so a trap carries the error the interpreter's
    /// first failing check produces.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn lower_slow(
        &mut self,
        ins: &Instr,
        pset: u32,
        wid: usize,
        iregs: &mut IdxRegs,
        bulk: &mut StaticSegCounts,
    ) -> SimResult<()> {
        let kernel = self.kernel;
        let nd = kernel.dregs_per_thread;
        let mut count_shared = |addrs: &[usize; WARP_SIZE], lane_pred| {
            let (tx, conf) = bank_transactions(addrs, lane_pred);
            bulk.shared_accesses += tx;
            bulk.shared_conflicts += conf;
        };
        // Lanes a store's predicate excludes, and an async copy's (checked
        // as it runs), may lie past the u32 arena: saturate them.
        let saturated = |addrs: [usize; WARP_SIZE]| addrs.map(|a| a.min(u32::MAX as usize) as u32);

        match ins {
            Instr::LdGlobal { dst, addr, .. } => {
                let dst = dreg_base(*dst, nd)?;
                let (rows, pts) = self.gaddr(addr, pset, iregs)?;
                self.uops.push(UOp::LdGlobal { dst, array: addr.array.0 as u32, rows, pts });
            }
            Instr::StGlobal { src, addr } => {
                CtaMem::check_store(kernel, addr.array.0)?;
                let (rows, pts) = self.gaddr(addr, pset, iregs)?;
                let src = self.src(src)?;
                let array = addr.array.0 as u32;
                self.uops.push(UOp::StGlobal { src, array, rows, pts });
            }
            Instr::LdShared { dst, addr } => {
                let dst = dreg_base(*dst, nd)?;
                let addrs = cta::shared_addrs(addr, None, iregs, kernel.shared_words)?;
                count_shared(&addrs, None);
                let a32 = addrs.map(|a| a as u32);
                if a32.iter().all(|&a| a == a32[0]) {
                    // Every lane reads the same word (a `lane_stride: 0`
                    // broadcast, the warp-specialized queues' bread and
                    // butter): one load + splat instead of a 32-lane
                    // gather. Bulk counts above already modeled the full
                    // access, so `EventCounts` are unchanged.
                    self.uops.push(UOp::LdSharedBcast { dst, addr: a32[0] });
                } else {
                    let addrs = self.push_u32x(a32);
                    self.uops.push(UOp::LdShared { dst, addrs });
                }
            }
            Instr::StShared { src, addr, lane_pred } => {
                let addrs = cta::shared_addrs(addr, *lane_pred, iregs, kernel.shared_words)?;
                let src = self.src(src)?;
                count_shared(&addrs, *lane_pred);
                let addrs = self.push_u32x(saturated(addrs));
                self.uops.push(UOp::StShared {
                    src,
                    addrs,
                    lane: lane_pred.map(|p| p as u32).unwrap_or(u32::MAX),
                });
            }
            Instr::LdConst { dst, bank, idx } => {
                let dst = dreg_base(*dst, nd)?;
                let load = cta::ld_const(kernel, &self.bank_base, *bank, *idx, iregs)?;
                let vals = self.push_f64x(load.vals);
                self.cur_lines.extend_from_slice(load.lines());
                self.cur_const_loads += 1;
                self.uops.push(UOp::ConstV { dst, vals });
            }
            Instr::Idx(ii) => {
                let lanes = ii.eval(iregs, wid, pset, &kernel.iconst_banks)?;
                iregs.write(ii.dst() as usize, lanes);
            }
            Instr::CpAsync { addr, array, row, point } => {
                let ga = GAddr { array: *array, row: *row, point: *point };
                let (rows, pts) = self.gaddr(&ga, pset, iregs)?;
                // The shared side is bounds-checked as the copy runs, per
                // lane, after that lane's global read: which side fails
                // first can depend on the runtime input length.
                let addrs = addr.lanes(iregs)?;
                count_shared(&addrs, None);
                let addrs = self.push_u32x(saturated(addrs));
                self.uops.push(UOp::CpAsync { addrs, array: array.0 as u32, rows, pts });
            }
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
            | Instr::BarSyncStage { .. } => {
                unreachable!("decoded onto the fast path or closed a segment")
            }
        }
        Ok(())
    }

    /// A slow op's source operand: a register, range-checked where the
    /// interpreter checks it, or an immediate's tail chunk.
    fn src(&mut self, o: &Op) -> SimResult<Src> {
        match *o {
            Op::Reg(r) => dreg_base(r, self.kernel.dregs_per_thread).map(Src),
            Op::Imm(v) => Ok(self.tail.intern(v)),
        }
    }

    /// Resolve a global address into its rows chunk and its points: row,
    /// then point, as the interpreter reads them.
    fn gaddr(&mut self, a: &GAddr, pset: u32, iregs: &mut IdxRegs) -> SimResult<(u32, PtsRef)> {
        let rows = a.row.lanes(iregs)?;
        let pts = match a.point {
            PointRef::Lane => PtsRef::Rel(pset * WARP_SIZE as u32),
            PointRef::Thread => PtsRef::Thread,
            PointRef::Reg(r) => PtsRef::Abs(self.push_u32x(IdxOp::Reg(r).lanes(iregs)?)),
        };
        Ok((self.push_u32x(rows), pts))
    }
}

/// Word-at-a-time multiplicative hasher (the Fx scheme) behind the
/// lowering's value-keyed dedup maps: address and constant chunks, and the
/// constant tail's immediates. Lowering produces these keys itself and hashes one
/// per address vector, so SipHash's flood resistance bought nothing for the
/// 16–32 rounds a 128- or 256-byte key cost.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl std::hash::Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // The multiply leaves the entropy in the high bits; the table
        // indexes with the low ones.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

pub(crate) type WordMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<WordHasher>>;

/// What an optimizer pass currently knows about a register chunk's value.
#[derive(Debug, Clone, Copy, Default)]
enum Fact {
    #[default]
    Unknown,
    /// The chunk mirrors `f64x[idx*32..][..32]` (`fold_const_shuffles`).
    Table(u32),
    /// The chunk holds what this constant-tail chunk does, one value in
    /// every lane (`fold_const_shuffles`).
    Splat(Src),
    /// The chunk holds exactly the operand's bits, for as long as a
    /// register operand stays at the recorded version (`copy_propagate`).
    CopyOf(Src, u32),
}

/// One register chunk's row of the [`ChunkTable`].
#[derive(Debug, Clone, Copy, Default)]
struct ChunkSlot {
    /// Table generation this row belongs to; a row of an older generation
    /// reads as `ChunkSlot::default()`.
    gen: u32,
    /// Bumped by every write: a fact recorded *about another chunk* at
    /// version `v` holds exactly while `version == v`.
    version: u32,
    /// Read later in the stream before being overwritten (backward
    /// liveness).
    live: bool,
    /// What is known of the chunk's current value; any write forgets it.
    fact: Fact,
}

/// The one def/use table behind every optimizer pass: a dense array of
/// [`ChunkSlot`] rows indexed by register chunk (`base / WARP_SIZE`;
/// every register base in a uop is chunk-aligned, and an element index
/// such as `Shfl`'s `src + lane` divides down to the chunk it lands in).
/// "Is this copy still valid", "is it live", "what constant does it hold"
/// are single array reads, and [`ChunkTable::reset`] empties the table in
/// O(1) by moving to a new generation, so a pass starts clean without
/// touching the rows. The array grows
/// to the highest register chunk *written to* or marked live — never a
/// constant-tail chunk, which is read-only and reads as the default row
/// (no fact, version 0); chunks never touched read as the default row too.
#[derive(Debug)]
struct ChunkTable {
    gen: u32,
    slots: Vec<ChunkSlot>,
    /// Rows looked up so far, by [`ChunkTable::get`] or [`ChunkTable::at`]:
    /// the optimizer's work as a count, which a test can hold linear in the
    /// stream where a wall clock on a shared host cannot.
    #[cfg(test)]
    touches: std::cell::Cell<u64>,
}

impl ChunkTable {
    fn new() -> ChunkTable {
        ChunkTable {
            gen: 1,
            slots: Vec::new(),
            #[cfg(test)]
            touches: std::cell::Cell::new(0),
        }
    }

    fn reset(&mut self) {
        self.gen += 1;
    }

    /// The row of the chunk containing element `base`, by value.
    fn get(&self, base: usize) -> ChunkSlot {
        #[cfg(test)]
        self.touches.set(self.touches.get() + 1);
        match self.slots.get(base / WARP_SIZE) {
            Some(s) if s.gen == self.gen => *s,
            _ => ChunkSlot::default(),
        }
    }

    /// The row of the chunk containing element `base`, for update.
    fn at(&mut self, base: usize) -> &mut ChunkSlot {
        #[cfg(test)]
        self.touches.set(self.touches.get() + 1);
        let c = base / WARP_SIZE;
        if c >= self.slots.len() {
            self.slots.resize(c + 1, ChunkSlot::default());
        }
        let s = &mut self.slots[c];
        if s.gen != self.gen {
            *s = ChunkSlot { gen: self.gen, ..ChunkSlot::default() };
        }
        s
    }

    /// A uop overwrites the chunk: facts recorded against the old version
    /// go stale, and whatever was known of the old value is forgotten.
    fn write(&mut self, base: usize) {
        let s = self.at(base);
        s.version += 1;
        s.fact = Fact::Unknown;
    }

    /// Which chunks are live, by chunk index.
    fn live_chunks(&self) -> Vec<bool> {
        self.slots.iter().map(|s| s.gen == self.gen && s.live).collect()
    }

    /// Whether every live chunk is in `live` (a [`ChunkTable::live_chunks`]
    /// of this table's past).
    fn live_within(&self, live: &[bool]) -> bool {
        (0..self.slots.len())
            .all(|c| !self.get(c * WARP_SIZE).live || live.get(c).copied().unwrap_or(false))
    }

    /// Make live every chunk that is in `live`.
    fn join_live(&mut self, live: &[bool]) {
        for c in (0..live.len()).filter(|&c| live[c]) {
            self.at(c * WARP_SIZE).live = true;
        }
    }
}

/// A rolled loop body among one warp's uops, as the optimizer sees it.
struct Body {
    /// The body's uops (warp-relative): one period of the loop's trips.
    uops: std::ops::Range<usize>,
    /// The chunk bases the body writes, each once.
    writes: Vec<usize>,
}

impl Body {
    fn new(uops: std::ops::Range<usize>, warp_uops: &[UOp], t: &mut ChunkTable) -> Body {
        // `live` is free to mark the chunks already listed.
        t.reset();
        let mut writes = Vec::new();
        for uop in &warp_uops[uops.clone()] {
            for_each_write_chunk(uop, |w| {
                if !std::mem::replace(&mut t.at(w).live, true) {
                    writes.push(w);
                }
            });
        }
        Body { uops, writes }
    }
}

/// A forward pass is about to visit uop `at`: if rolled bodies begin there
/// (`bodies` holds those not yet entered, in order), forget every chunk
/// they write. The pass walks a body once, but the body runs many times,
/// and from its second entry on those chunks hold what the trip before
/// left, not what the code above the loop did — and a copy *of* such a
/// chunk is stale with it, which moving the chunk's version on records.
fn forget_body_writes(bodies: &mut std::slice::Iter<'_, Body>, at: usize, t: &mut ChunkTable) {
    while let Some(body) = bodies.as_slice().first().filter(|b| b.uops.start == at) {
        body.writes.iter().for_each(|&w| t.write(w));
        bodies.next();
    }
}

/// Invoke `f` with the chunk base of every register chunk this uop
/// reads — architectural or constant-tail (tail bases are immutable, so
/// callers tracking writes may include them harmlessly). Element reads
/// (`Shfl`) report the containing chunk; `Sel` predicates are raw chunk
/// bases.
fn for_each_read_chunk(u: &UOp, mut f: impl FnMut(usize)) {
    let mut s = |src: Src| f(src.base());
    match *u {
        UOp::Fast(dec) => match dec {
            DecodedInstr::Bin { a, b, .. } | DecodedInstr::CmpOp { a, b, .. } => {
                s(a);
                s(b);
            }
            DecodedInstr::Un { a, .. } | DecodedInstr::StLocal { src: a, .. } => s(a),
            DecodedInstr::Fma { a, b, c, .. } => {
                s(a);
                s(b);
                s(c);
            }
            DecodedInstr::Sel { pred, a, b, .. } => {
                s(Src(pred));
                s(a);
                s(b);
            }
            DecodedInstr::Shfl { src, lane, .. } => {
                s(Src((src + lane) / WARP_SIZE as u32 * WARP_SIZE as u32));
            }
            DecodedInstr::LdLocal { .. } | DecodedInstr::Invalid { .. } => {}
            DecodedInstr::Barrier(_) | DecodedInstr::Slow(_) => {
                unreachable!("never lowered into uops")
            }
        },
        UOp::FusedMulBin { a, b, c, .. } => {
            s(a);
            s(b);
            s(c);
        }
        UOp::StShared { src, .. } | UOp::StGlobal { src, .. } => s(src),
        UOp::ConstV { .. }
        | UOp::LdShared { .. }
        | UOp::LdSharedBcast { .. }
        | UOp::LdGlobal { .. }
        | UOp::CpAsync { .. }
        | UOp::Trap(_)
        | UOp::Nop => {}
    }
}

/// Invoke `f` with the chunk base of every architectural register chunk
/// this uop writes (every register write in this IR covers a full
/// 32-lane chunk).
fn for_each_write_chunk(u: &UOp, mut f: impl FnMut(usize)) {
    match *u {
        UOp::Fast(dec) => match dec {
            DecodedInstr::Bin { dst, .. }
            | DecodedInstr::CmpOp { dst, .. }
            | DecodedInstr::Un { dst, .. }
            | DecodedInstr::Fma { dst, .. }
            | DecodedInstr::Sel { dst, .. }
            | DecodedInstr::Shfl { dst, .. }
            | DecodedInstr::LdLocal { dst, .. } => f(dst as usize),
            DecodedInstr::StLocal { .. } | DecodedInstr::Invalid { .. } => {}
            DecodedInstr::Barrier(_) | DecodedInstr::Slow(_) => {
                unreachable!("never lowered into uops")
            }
        },
        UOp::FusedMulBin { t, d, .. } => {
            f(t as usize);
            f(d as usize);
        }
        UOp::ConstV { dst, .. }
        | UOp::LdShared { dst, .. }
        | UOp::LdSharedBcast { dst, .. }
        | UOp::LdGlobal { dst, .. } => f(dst as usize),
        UOp::StShared { .. } | UOp::StGlobal { .. } | UOp::CpAsync { .. } | UOp::Trap(_) | UOp::Nop => {}
    }
}

/// Invoke `f` on every double-precision operand of this uop, register or
/// constant-tail chunk, for rewriting in place. `Sel` predicates and `Shfl`
/// sources are raw register bases, not operands: they never name the tail.
fn for_each_src_mut(u: &mut UOp, mut f: impl FnMut(&mut Src)) {
    match u {
        UOp::Fast(dec) => match dec {
            DecodedInstr::Bin { a, b, .. }
            | DecodedInstr::CmpOp { a, b, .. }
            | DecodedInstr::Sel { a, b, .. } => {
                f(a);
                f(b);
            }
            DecodedInstr::Un { a, .. } | DecodedInstr::StLocal { src: a, .. } => f(a),
            DecodedInstr::Fma { a, b, c, .. } => {
                f(a);
                f(b);
                f(c);
            }
            DecodedInstr::Shfl { .. }
            | DecodedInstr::LdLocal { .. }
            | DecodedInstr::Invalid { .. } => {}
            DecodedInstr::Barrier(_) | DecodedInstr::Slow(_) => {
                unreachable!("never lowered into uops")
            }
        },
        UOp::FusedMulBin { a, b, c, .. } => {
            f(a);
            f(b);
            f(c);
        }
        UOp::StShared { src, .. } | UOp::StGlobal { src, .. } => f(src),
        UOp::ConstV { .. }
        | UOp::LdShared { .. }
        | UOp::LdSharedBcast { .. }
        | UOp::LdGlobal { .. }
        | UOp::CpAsync { .. }
        | UOp::Trap(_)
        | UOp::Nop => {}
    }
}

/// Forward constant tracking over one warp's uops: a `ConstV` chunk holds
/// a vector known at lowering time, so a `Shfl` that broadcasts one of
/// its elements produces a compile-time constant — rewrite it as a `Mov`
/// from that constant's chunk of the tail (interned here), and likewise a
/// `Shfl` off a chunk a `Mov` filled from the tail. This is bit-identical
/// by construction: the interpreter's shuffle reads exactly the value the
/// `ConstV` or the `Mov` wrote (registers are warp-private, and any
/// intervening write to the chunk forgets its fact). Copy propagation then
/// folds the tail chunk into the consumers, and dead-code elimination
/// removes the mov and — once every reader has folded — the staging
/// `ConstV` itself. In the warp-specialized kernels this erases the entire
/// shuffle-broadcast traffic for register-staged constants.
fn fold_const_shuffles(
    uops: &mut [UOp],
    f64x: &[f64],
    tail: &mut ConstTail,
    dreg_len: usize,
    bodies: &[Body],
    t: &mut ChunkTable,
) {
    t.reset();
    let mut bodies = bodies.iter();
    for at in 0..uops.len() {
        forget_body_writes(&mut bodies, at, t);
        let uop = &mut uops[at];
        if let UOp::Fast(DecodedInstr::Shfl { dst, src, lane }) = *uop {
            let elem = (src + lane) as usize;
            let a = match t.get(elem).fact {
                Fact::Table(vi) => {
                    Some(tail.intern(f64x[vi as usize * WARP_SIZE + elem % WARP_SIZE]))
                }
                Fact::Splat(a) => Some(a),
                _ => None,
            };
            if let Some(a) = a {
                *uop = UOp::Fast(DecodedInstr::Un { kind: UnOp::Mov, dst, a });
            }
        }
        for_each_write_chunk(uop, |w| t.write(w));
        match *uop {
            UOp::ConstV { dst, vals } => t.at(dst as usize).fact = Fact::Table(vals),
            UOp::Fast(DecodedInstr::Un { kind: UnOp::Mov, dst, a }) if a.base() >= dreg_len => {
                t.at(dst as usize).fact = Fact::Splat(a);
            }
            _ => {}
        }
    }
}

/// Forward copy propagation over one warp's uops: a `Mov dst, src`
/// records that `dst` currently holds exactly `src`'s bits, and later
/// full-chunk operand reads of `dst` are rewritten to read `src` (a
/// register or a tail chunk) directly. Sound because register chunks are
/// warp-private and tail chunks never change — a rewritten read observes
/// bit-identical values, and any write to either side of a recorded copy
/// invalidates it: a write to `dst` forgets the fact, a write to `src`
/// moves `src` past the version the fact was recorded at. Shfl's
/// cross-chunk element read is never rewritten (it is not a full-chunk
/// read), so it only participates as an invalidation barrier via its
/// destination.
fn copy_propagate(uops: &mut [UOp], dreg_len: usize, bodies: &[Body], t: &mut ChunkTable) {
    fn resolve(t: &ChunkTable, s: Src) -> Src {
        match t.get(s.base()).fact {
            Fact::CopyOf(of, version) if t.get(of.base()).version == version => of,
            _ => s,
        }
    }
    t.reset();
    let mut bodies = bodies.iter();
    for at in 0..uops.len() {
        forget_body_writes(&mut bodies, at, t);
        let uop = &mut uops[at];
        // The predicate is a raw register base; it can only be redirected
        // to another register, not to the tail.
        if let UOp::Fast(DecodedInstr::Sel { pred, .. }) = uop {
            let p = resolve(t, Src(*pred));
            if p.base() < dreg_len {
                *pred = p.0;
            }
        }
        for_each_src_mut(uop, |s| *s = resolve(t, *s));
        for_each_write_chunk(uop, |w| t.write(w));
        if let UOp::Fast(DecodedInstr::Un { kind: UnOp::Mov, dst, a }) = *uop {
            if a.base() != dst as usize {
                let version = t.get(a.base()).version;
                t.at(dst as usize).fact = Fact::CopyOf(a, version);
            }
        }
    }
}

/// Peephole fusion of adjacent `Mul t, a, b; Add/Sub d, ·, ·` pairs within
/// a segment where the second op consumes `t`. The fused uop keeps both
/// roundings, writes both destinations, and preserves the second op's
/// operand order (x86 propagates the first operand's NaN payload), so it
/// is bit-identical to the unfused pair. Pairs where the product feeds
/// *both* operands (`d = t ± t`) are left alone.
fn fuse_mul_bin(uops: &mut [UOp], segs: &[Segment], warp_start: u32) {
    for seg in segs {
        let s = (seg.uops.start - warp_start) as usize;
        let e = (seg.uops.end - warp_start) as usize;
        let mut i = s;
        while i + 1 < e {
            let fused = match (&uops[i], &uops[i + 1]) {
                (
                    &UOp::Fast(DecodedInstr::Bin { kind: BinOp::Mul, dst: t, a, b }),
                    &UOp::Fast(DecodedInstr::Bin {
                        kind: k2 @ (BinOp::Add | BinOp::Sub),
                        dst: d,
                        a: x,
                        b: y,
                    }),
                ) => {
                    let (xt, yt) = (x == Src(t), y == Src(t));
                    let kc = match (k2, xt, yt) {
                        (_, true, true) => None,
                        (BinOp::Add, true, false) => Some((lanes::FusedBin::AddPC, y)),
                        (BinOp::Add, false, true) => Some((lanes::FusedBin::AddCP, x)),
                        (BinOp::Sub, true, false) => Some((lanes::FusedBin::SubPC, y)),
                        (BinOp::Sub, false, true) => Some((lanes::FusedBin::SubCP, x)),
                        _ => None,
                    };
                    kc.map(|(kind, c)| UOp::FusedMulBin { kind, t, d, a, b, c })
                }
                _ => None,
            };
            if let Some(f) = fused {
                uops[i] = f;
                uops[i + 1] = UOp::Nop;
                i += 2;
            } else {
                i += 1;
            }
        }
    }
}

/// Backward liveness over one warp's uops; any *pure register-writing* op
/// whose destinations are never read again (before being overwritten or
/// the stream ending) is dead: registers are warp-private and discarded at
/// CTA end, so removing the computation is unobservable. This covers
/// moves, arithmetic (including the transcendentals — no observed
/// side effects), compares, selects, shuffles, pre-resolved constant
/// loads, and shared-memory *reads* (lowering already bounds-checked
/// their addresses, so they cannot fail at run time). In the
/// warp-specialized kernels this kills the staging gathers whose only
/// remaining consumer was a single-lane `Shfl` broadcast.
///
/// The same liveness information drives the *stage-and-broadcast* fusion:
/// an `LdShared` gather immediately followed (in the same segment) by a
/// `Shfl` that is the gather chunk's only consumer collapses into one
/// [`UOp::LdSharedBcast`] — read the one shared word the shuffle selects
/// and splat it. This is the warp-specialized kernels' staple pattern
/// (a gather stages 32 words, then 32 shuffles broadcast them one at a
/// time), and each fused pair replaces 33 lane-writes plus a gather with
/// a single load. Values are bit-identical: the interpreter's shuffle
/// reads `dregs[src+lane] = shared[addrs[src+lane-chunk]]`, exactly the
/// word the fused op loads. The pair must share a segment — a barrier
/// between them could change shared-memory visibility.
///
/// Ops that can fail at run time keep executing: global loads (their
/// bounds depend on the runtime grid placement). A register operand out of
/// range never reaches here — decoding made its op a trap. Event counts are
/// unaffected by construction — segment bulk counts are derived from the
/// pre-optimization instruction stream. Liveness is kept for the register
/// file only: a constant-tail chunk is read-only, live for as long as
/// anything reads it.
///
/// A rolled loop body may be walked more than once. What is live at its end
/// is what is live after the loop or live into its own head — the next
/// repetition. The walk first assumes the former alone; if the body's head
/// turns out to need more, what the walk did to the body is undone and it
/// is walked again from the union, until the union stops growing. The code
/// above the loop is then walked from the body's live-in alone.
fn eliminate_dead_uops(
    uops: &mut [UOp],
    dreg_len: usize,
    u32x: &[u32],
    segs: &[Segment],
    warp_start: u32,
    bodies: &[Body],
    t: &mut ChunkTable,
) {
    // Uop indices (warp-relative) that begin a segment: a fusion pair may
    // not straddle one of these boundaries.
    let mut seg_start = vec![false; uops.len() + 1];
    for s in segs {
        seg_start[(s.uops.start - warp_start) as usize] = true;
    }
    t.reset();
    let mut end = uops.len();
    let mut undo: Vec<(usize, UOp)> = Vec::new();
    for body in bodies.iter().rev() {
        liveness_walk(uops, body.uops.end..end, None, dreg_len, u32x, &seg_start, t);
        loop {
            let live_out = t.live_chunks();
            undo.clear();
            let range = body.uops.clone();
            liveness_walk(uops, range, Some(&mut undo), dreg_len, u32x, &seg_start, t);
            // The guess held, and the table is the body's live-in: what is
            // live above the loop. Joining `live_out` in here would keep
            // alive, above the loop, the writers of a chunk that is live
            // after it but that the body overwrites before reading.
            if t.live_within(&live_out) {
                break;
            }
            t.join_live(&live_out);
            for &(at, uop) in undo.iter().rev() {
                uops[at] = uop;
            }
        }
        end = body.uops.start;
    }
    liveness_walk(uops, 0..end, None, dreg_len, u32x, &seg_start, t);
}

/// One backward liveness walk over `uops[range]`, from the live set in `t`
/// to the one at the range's start, eliminating and fusing as
/// [`eliminate_dead_uops`] describes. Every uop it is about to change goes
/// to `undo` first, if there is one.
fn liveness_walk(
    uops: &mut [UOp],
    range: std::ops::Range<usize>,
    mut undo: Option<&mut Vec<(usize, UOp)>>,
    dreg_len: usize,
    u32x: &[u32],
    seg_start: &[bool],
    t: &mut ChunkTable,
) {
    let mut set = |uops: &mut [UOp], at: usize, uop: UOp| {
        if let Some(undo) = undo.as_deref_mut() {
            undo.push((at, uops[at]));
        }
        uops[at] = uop;
    };
    // A `Shfl` at index `i + 1` eligible for fusion with an `LdShared` at
    // index `i`: (shfl index, gather chunk base, element offset in chunk,
    // shfl dst).
    let mut pending: Option<(usize, usize, usize, u32)> = None;
    for i in range.rev() {
        // Stage-and-broadcast fusion: the previous iteration saw a `Shfl`
        // whose source chunk dies here; if this op is the adjacent
        // staging gather, collapse the pair.
        if let Some((shfl_idx, chunk, elem, shfl_dst)) = pending.take() {
            if shfl_idx == i + 1 && !seg_start[shfl_idx] {
                if let UOp::LdShared { dst, addrs } = uops[i] {
                    if dst as usize == chunk {
                        let addr = u32x[addrs as usize * WARP_SIZE + elem];
                        set(uops, i, UOp::Nop);
                        set(uops, shfl_idx, UOp::LdSharedBcast { dst: shfl_dst, addr });
                        // The shuffle no longer reads the chunk, so
                        // earlier writers of it can cascade-die.
                        t.at(chunk).live = false;
                        continue;
                    }
                }
            }
        }
        let uop = uops[i];
        // Only pure register-writing ops can die, and only with every
        // destination dead. An eliminated op's reads are *not* genned, so
        // a chain of computation feeding only dead results unravels in
        // this one backward pass.
        let mut dead = matches!(
            uop,
            UOp::Fast(
                DecodedInstr::Bin { .. }
                    | DecodedInstr::CmpOp { .. }
                    | DecodedInstr::Un { .. }
                    | DecodedInstr::Fma { .. }
                    | DecodedInstr::Sel { .. }
                    | DecodedInstr::Shfl { .. }
            ) | UOp::FusedMulBin { .. }
                | UOp::ConstV { .. }
                | UOp::LdShared { .. }
                | UOp::LdSharedBcast { .. }
        );
        if dead {
            for_each_write_chunk(&uop, |w| dead &= !t.get(w).live);
        }
        if dead {
            set(uops, i, UOp::Nop);
            continue;
        }
        // Kill this op's writes, then gen its register reads.
        for_each_write_chunk(&uop, |w| t.at(w).live = false);
        if let UOp::Fast(DecodedInstr::Shfl { dst, src, lane }) = uop {
            // Element read: the chunk the element lands in (a >= 32 lane
            // deterministically reads across registers — see exec_fast).
            // The destination kill came first so a shuffle within one
            // chunk (`chunk == dst`) still counts as the sole reader.
            let elem = (src + lane) as usize;
            let chunk = elem / WARP_SIZE * WARP_SIZE;
            if !t.get(chunk).live {
                pending = Some((i, chunk, elem - chunk, dst));
            }
        }
        for_each_read_chunk(&uop, |r| {
            if r < dreg_len {
                t.at(r).live = true;
            }
        });
    }
}

/// Drop the constant-tail chunks no micro-op reads any more — immediates of
/// ops dead-code elimination removed, constants folding interned for movs
/// it then removed — and renumber the operands that read the rest. What is
/// left is each distinct immediate the program executes once, in the order
/// it entered the tail.
fn compact_tail(uops: &mut [UOp], dreg_len: usize, tail: &[f64]) -> Vec<f64> {
    let mut read = vec![false; tail.len() / WARP_SIZE];
    for uop in uops.iter() {
        for_each_read_chunk(uop, |base| {
            if let Some(t) = base.checked_sub(dreg_len) {
                read[t / WARP_SIZE] = true;
            }
        });
    }
    // Where each chunk's lanes start in the compacted tail.
    let mut kept = Vec::new();
    let moved: Vec<usize> = (0..read.len())
        .map(|c| {
            let at = kept.len();
            if read[c] {
                kept.extend_from_slice(&tail[c * WARP_SIZE..][..WARP_SIZE]);
            }
            at
        })
        .collect();
    for uop in uops.iter_mut() {
        for_each_src_mut(uop, |s| {
            if let Some(t) = s.base().checked_sub(dreg_len) {
                *s = Src((dreg_len + moved[t / WARP_SIZE]) as u32);
            }
        });
    }
    kept
}

/// Per-warp runtime state: SoA register/local lanes plus the segment
/// cursor.
struct EngWarp {
    dregs: Vec<f64>,
    local: Vec<f64>,
    seg: usize,
    /// Inside a rolled loop body: repetitions completed, and the points
    /// they advanced [`PtsRef::Rel`] by. Both 0 outside (bodies do not
    /// nest).
    rep: u32,
    pts_off: usize,
}

/// Execute one CTA on a lowered program: [`crate::interp::run_cta_profiled`]
/// bit for bit — same outputs, same `EventCounts`, same errors, and with a
/// profiler attached the same [`crate::profile::CtaProfile`]. A profiler
/// forces event collection, as it does there. The CTA is [`crate::cta`]'s,
/// as it is the interpreter's; this stepper is [`run_warp`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cta_engine(
    kernel: &Kernel,
    eng: &EngineProgram,
    prog: &FlatProgram,
    inputs: &[&[f64]],
    total_points: usize,
    cta: usize,
    collect: bool,
    arch: &crate::arch::GpuArch,
    profiler: Option<&mut Profiler>,
) -> SimResult<CtaResult> {
    let collect = collect || profiler.is_some();
    let mut mem = CtaMem::new(kernel, inputs, total_points, cta, collect, arch);
    let mut sched = Schedule::new(kernel, profiler);
    // Architectural registers only; the constant tail of splat immediates
    // stays in `eng.dreg_tail`, shared read-only by every warp.
    let mut warps: Vec<EngWarp> = (0..kernel.warps_per_cta)
        .map(|_| EngWarp {
            dregs: vec![0.0; kernel.dregs_per_thread * WARP_SIZE],
            local: vec![0.0; kernel.local_words_per_thread * WARP_SIZE],
            seg: 0,
            rep: 0,
            pts_off: 0,
        })
        .collect();
    sched.run(cta, |sched, w| run_warp(eng, w, &mut warps[w], &mut mem, sched))?;
    Ok(mem.finish(sched, prog, arch))
}

/// The engine's stepper: run warp `w`'s segments until it blocks or
/// finishes. Segments stand in for uninterruptible instruction runs — a
/// warp can only block at a segment terminator. Returns whether any segment
/// executed.
///
/// A profiler, if the schedule carries one, is charged a segment's cycles
/// in bulk at its entry: its issue slots but the terminating barrier
/// operation's (one slot, which the protocol charges as overhead), its
/// branch headers, and its constant replay — the lines past each load's
/// first, and the misses its line script just took. The profiler reads a
/// warp's clock only at barrier operations, blocks, releases and the end of
/// the stream, all of them segment boundaries, so this is the interpreter's
/// attribution exactly.
fn run_warp(
    eng: &EngineProgram,
    w: usize,
    warp: &mut EngWarp,
    mem: &mut CtaMem<'_>,
    sched: &mut Schedule<'_>,
) -> SimResult<bool> {
    let segs = &eng.lowered[eng.lowered_of[w] as usize];
    let mut ran = false;
    loop {
        let Some(seg) = segs.get(warp.seg) else {
            sched.finish(w);
            return Ok(ran);
        };
        if mem.collect {
            let b = &seg.bulk;
            b.apply(&mut mem.counts);
            // Replay the segment's pre-resolved constant-line script in
            // one pass: segments are uninterruptible and constant loads
            // are the only cache accesses, so replaying at segment entry
            // preserves the interleaved LRU order across warps exactly.
            let lines = seg.lines.start as usize..seg.lines.end as usize;
            let misses = mem.ccache.access_script(&eng.lines[lines.clone()]);
            if let Some(p) = sched.profiler.as_deref_mut() {
                let issue = b.issue_slots - b.warp_branches - b.barrier_arrives - b.barrier_syncs;
                let replay_lines = (lines.len() - seg.const_loads as usize) as u64;
                p.on_segment(w, issue, b.warp_branches, replay_lines, misses);
            }
        }
        for uop in &eng.uops[seg.uops.start as usize..seg.uops.end as usize] {
            exec_uop(eng, uop, w, warp, mem)?;
        }
        warp.seg += 1;
        // Also for the empty segment that closes a rolled body ending on a
        // barrier, which covers no stream op: the schedule's deadlock check
        // then comes one round later, over the same warps and barriers.
        ran = true;
        let (bar, expected, sync) = match seg.term {
            SegTerm::End => continue,
            SegTerm::Repeat { to, reps, advance } => {
                warp.rep += 1;
                if warp.rep < reps {
                    warp.seg = to as usize;
                    warp.pts_off += advance as usize;
                } else {
                    warp.rep = 0;
                    warp.pts_off = 0;
                }
                continue;
            }
            SegTerm::Arrive { bar, expected } => (bar, expected, false),
            SegTerm::Sync { bar, expected } => (bar, expected, true),
        };
        if sched.barrier(w, BarOp { bar, expected, sync })? {
            return Ok(ran);
        }
    }
}

#[inline]
fn exec_uop(
    eng: &EngineProgram,
    uop: &UOp,
    wid: usize,
    warp: &mut EngWarp,
    mem: &mut CtaMem<'_>,
) -> SimResult<()> {
    // A register's lanes, and a 32-lane chunk of the address arena.
    let chunk = |at: u32| at as usize..at as usize + WARP_SIZE;
    let arena = |at: u32| &eng.u32x[at as usize * WARP_SIZE..][..WARP_SIZE];
    // Complete pre-resolved global addressing with the runtime grid
    // placement, the executing warp and — for a point relative to the
    // streaming loop — the points a rolled body's repetitions so far
    // advanced by.
    let gidx = |mem: &CtaMem<'_>, rows: u32, pts: PtsRef, pts_off: usize| {
        let pts = match pts {
            PtsRef::Rel(d) => Points::Cta(pts_off + d as usize),
            PtsRef::Thread => Points::Cta(wid * WARP_SIZE),
            PtsRef::Abs(p) => Points::Abs(arena(p)),
        };
        mem.global_indices(arena(rows), pts)
    };
    match *uop {
        // Event counts for fast ops were folded into the segment bulk;
        // run the op itself with collection off.
        UOp::Fast(dec) => {
            exec_fast(dec, &mut warp.dregs, &eng.dreg_tail, &mut warp.local, false, &mut mem.counts)?
        }
        UOp::FusedMulBin { kind, t, d, a, b, c } => {
            let dregs = &mut warp.dregs[..];
            let len = dregs.len();
            let ptr = dregs.as_mut_ptr();
            let (t, d) = (t as usize, d as usize);
            // SAFETY: same discipline as `exec_fast` — operands whose
            // chunk intersects either destination are snapshotted, so the
            // mutable destination views are the only live references to
            // their chunks; `t != d` implies disjoint chunks (both are
            // decode-validated register bases).
            unsafe {
                let av = operand(ptr, len, &eng.dreg_tail, a, [t, d]);
                let bv = operand(ptr, len, &eng.dreg_tail, b, [t, d]);
                let cv = operand(ptr, len, &eng.dreg_tail, c, [t, d]);
                if t == d {
                    lanes::mul_then_bin_same(
                        kind, av.get(), bv.get(), cv.get(), out_chunk(ptr, len, d),
                    );
                } else {
                    lanes::mul_then_bin_both(
                        kind, av.get(), bv.get(), cv.get(),
                        out_chunk(ptr, len, t), out_chunk(ptr, len, d),
                    );
                }
            }
        }
        UOp::ConstV { dst, vals } => {
            let v = &eng.f64x[vals as usize * WARP_SIZE..][..WARP_SIZE];
            warp.dregs[chunk(dst)].copy_from_slice(v);
        }
        UOp::LdShared { dst, addrs } => {
            let a = arena(addrs);
            let out = &mut warp.dregs[chunk(dst)];
            for l in 0..WARP_SIZE {
                // SAFETY: lowering bounds-checked every address against
                // `kernel.shared_words == shared.len()`.
                out[l] = unsafe { *mem.shared.get_unchecked(a[l] as usize) };
            }
        }
        UOp::LdSharedBcast { dst, addr } => {
            // SAFETY: the address came from a lowering-bounds-checked
            // `LdShared` gather before fusion.
            let v = unsafe { *mem.shared.get_unchecked(addr as usize) };
            warp.dregs[chunk(dst)].fill(v);
        }
        UOp::StShared { src, addrs, lane } => {
            let a = arena(addrs);
            let sv = src_vals(&warp.dregs, &eng.dreg_tail, src);
            if lane == u32::MAX {
                for l in 0..WARP_SIZE {
                    // SAFETY: all lanes bounds-checked at lowering.
                    unsafe { *mem.shared.get_unchecked_mut(a[l] as usize) = sv[l] };
                }
            } else {
                // Lowering rejected `lane >= WARP_SIZE` with a typed
                // error and bounds-checked the predicated lane's address.
                debug_assert!((lane as usize) < WARP_SIZE);
                mem.shared[a[lane as usize] as usize] = sv[lane as usize];
            }
        }
        UOp::LdGlobal { dst, array, rows, pts } => {
            let idxs = gidx(mem, rows, pts, warp.pts_off);
            mem.ld_global(array as usize, &idxs, &mut warp.dregs[chunk(dst)])?;
        }
        UOp::StGlobal { src, array, rows, pts } => {
            let idxs = gidx(mem, rows, pts, warp.pts_off);
            let sv = src_vals(&warp.dregs, &eng.dreg_tail, src);
            mem.st_global(array as usize, &idxs, &sv)?;
        }
        UOp::CpAsync { addrs, array, rows, pts } => {
            let idxs = gidx(mem, rows, pts, warp.pts_off);
            let a = arena(addrs);
            mem.cp_async(array as usize, &idxs, |l| a[l] as usize)?;
        }
        UOp::Trap(t) => return Err(eng.traps[t as usize].clone()),
        UOp::Nop => unreachable!("tombstones are compacted out at lowering"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use crate::interp::{flatten, run_cta_profiled};

    fn base_kernel(warps: usize) -> Kernel {
        Kernel {
            name: "eng-t".into(),
            body: vec![],
            warps_per_cta: warps,
            points_per_cta: 32,
            dregs_per_thread: 8,
            iregs_per_thread: 4,
            shared_words: 128,
            local_words_per_thread: 2,
            const_banks: vec![vec![1.5, 2.5, 3.5, 4.5]],
            iconst_banks: vec![vec![7, 8, 9]],
            barriers_used: 4,
            global_arrays: vec![
                ArrayDecl { name: "in".into(), rows: 2, output: false },
                ArrayDecl { name: "out".into(), rows: 1, output: true },
            ],
            spilled_bytes_per_thread: 0,
            exp_const_from_registers: false,
        }
    }

    /// Run a kernel through both paths and assert bit-identical results
    /// (outputs + EventCounts) or identical errors: unprofiled with and
    /// without collection, and profiled with and without trace events,
    /// where the two profiles must be equal too.
    fn differential(kernel: &Kernel, inputs: &[&[f64]], total_points: usize, cta: usize) {
        let prog = flatten(kernel);
        let eng = lower(kernel, &prog);
        for arch in [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()] {
            let profiler = |events| {
                let bars = cta::barrier_file_len(kernel);
                Profiler::new(kernel.warps_per_cta, bars, events, &arch)
            };
            for (collect, events) in [(false, None), (true, None), (true, Some(false)), (true, Some(true))] {
                let (mut pi, mut pe) = (events.map(profiler), events.map(profiler));
                let i = run_cta_profiled(
                    kernel, &prog, inputs, total_points, cta, collect, &arch, pi.as_mut(),
                );
                let e = run_cta_engine(
                    kernel, &eng, &prog, inputs, total_points, cta, collect, &arch, pe.as_mut(),
                );
                if i.is_ok() {
                    let (pi, pe) = (pi.map(Profiler::finish), pe.map(Profiler::finish));
                    assert_eq!(pi, pe, "profiles (events={events:?})");
                }
                match (i, e) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.counts, b.counts, "counts (collect={collect})");
                        assert_eq!(
                            a.out_buffers.len(),
                            b.out_buffers.len(),
                            "buffer count (collect={collect})"
                        );
                        for (x, y) in a.out_buffers.iter().zip(&b.out_buffers) {
                            assert_eq!(x.len(), y.len());
                            for (va, vb) in x.iter().zip(y) {
                                assert_eq!(va.to_bits(), vb.to_bits(), "output bits");
                            }
                        }
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "errors (collect={collect})"),
                    (i, e) => panic!("paths disagree: interp={i:?} engine={e:?}"),
                }
            }
        }
    }

    #[test]
    fn differential_producer_consumer() {
        // Figure-2 style protocol over named barriers with shared memory,
        // constants and index registers in play.
        let mut k = base_kernel(2);
        k.body = vec![
            Node::WarpIf {
                mask: 0b10,
                body: vec![Node::Op(Instr::BarArrive { bar: 1, warps: 2 })],
            },
            Node::WarpIf {
                mask: 0b01,
                body: vec![
                    Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
                    Node::Op(Instr::LdGlobal {
                        dst: 0,
                        addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
                        ldg: false,
                    }),
                    Node::Op(Instr::LdConst { dst: 1, bank: 0, idx: IdxOp::Imm(2) }),
                    Node::Op(Instr::Bin { op: BinOp::Mul, dst: 0, a: Op::Reg(0), b: Op::Reg(1) }),
                    Node::Op(Instr::StShared { src: Op::Reg(0), addr: SAddr::lane(0), lane_pred: None }),
                    Node::Op(Instr::BarArrive { bar: 0, warps: 2 }),
                ],
            },
            Node::WarpIf {
                mask: 0b10,
                body: vec![
                    Node::Op(Instr::BarSync { bar: 0, warps: 2 }),
                    Node::Op(Instr::LdShared { dst: 1, addr: SAddr::lane(0) }),
                    Node::Op(Instr::StGlobal {
                        src: Op::Reg(1),
                        addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
                    }),
                ],
            },
        ];
        let input: Vec<f64> = (0..64).map(|i| i as f64 * 0.25).collect();
        differential(&k, &[&input, &[]], 32, 0);
    }

    #[test]
    fn differential_index_isa_and_point_refs() {
        // Exercise statically-evaluated index registers: lane/warp ids,
        // iconst loads, arithmetic, and PointRef::Reg addressing.
        let mut k = base_kernel(1);
        k.iconst_banks = vec![vec![0, 1, 2, 3]];
        k.body = vec![
            Node::Op(Instr::Idx(IdxInstr::LaneId { dst: 0 })),
            Node::Op(Instr::Idx(IdxInstr::LdConst { dst: 1, bank: 0, idx: IdxOp::Imm(1) })),
            Node::Op(Instr::Idx(IdxInstr::Mul { dst: 2, a: IdxOp::Reg(0), b: IdxOp::Imm(1) })),
            Node::Op(Instr::Idx(IdxInstr::Add { dst: 2, a: IdxOp::Reg(2), b: IdxOp::Imm(0) })),
            Node::Op(Instr::LdGlobal {
                dst: 0,
                addr: GAddr { array: GlobalId(0), row: IdxOp::Reg(1), point: PointRef::Reg(2) },
                ldg: false,
            }),
            Node::Op(Instr::Bin { op: BinOp::Add, dst: 1, a: Op::Reg(0), b: Op::Imm(1.0) }),
            Node::Op(Instr::StGlobal {
                src: Op::Reg(1),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Thread },
            }),
        ];
        let input: Vec<f64> = (0..64).map(|i| (i * i) as f64).collect();
        differential(&k, &[&input, &[]], 32, 0);
    }

    #[test]
    fn differential_point_loop_multi_cta() {
        // Streaming point loop over two point sets, executed as CTA 1 of
        // a larger grid (base_point != 0 exercises Rel addressing).
        let mut k = base_kernel(1);
        k.points_per_cta = 64;
        k.body = vec![Node::PointLoop {
            iters: 2,
            body: vec![
                Node::Op(Instr::LdGlobal {
                    dst: 0,
                    addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(1), point: PointRef::Lane },
                    ldg: false,
                }),
                Node::Op(Instr::DFma {
                    dst: 1,
                    a: Op::Reg(0),
                    b: Op::Imm(3.0),
                    c: Op::Imm(-0.5),
                    const_c: false,
                }),
                Node::Op(Instr::StGlobal {
                    src: Op::Reg(1),
                    addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
                }),
            ],
        }];
        let total = 192;
        let input: Vec<f64> = (0..2 * total).map(|i| i as f64 * 0.125).collect();
        differential(&k, &[&input, &[]], total, 1);
    }

    #[test]
    fn differential_errors_and_deadlock() {
        // Deadlock: two warps syncing on different barriers.
        let mut k = base_kernel(2);
        k.body = vec![
            Node::WarpIf { mask: 0b01, body: vec![Node::Op(Instr::BarSync { bar: 0, warps: 2 })] },
            Node::WarpIf { mask: 0b10, body: vec![Node::Op(Instr::BarSync { bar: 1, warps: 2 })] },
        ];
        let input = vec![0.0; 64];
        differential(&k, &[&input, &[]], 32, 0);

        // Shared overrun, discovered at lowering, delivered as the
        // interpreter's execution-time error.
        let mut k = base_kernel(1);
        k.body = vec![Node::Op(Instr::LdShared {
            dst: 0,
            addr: SAddr { base: None, imm: 1000, lane_stride: 1 },
        })];
        differential(&k, &[&input, &[]], 32, 0);

        // Store to a non-output array.
        let mut k = base_kernel(1);
        k.body = vec![Node::Op(Instr::StGlobal {
            src: Op::Imm(1.0),
            addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
        })];
        differential(&k, &[&input, &[]], 32, 0);

        // Const index out of range.
        let mut k = base_kernel(1);
        k.body = vec![Node::Op(Instr::LdConst { dst: 0, bank: 0, idx: IdxOp::Imm(99) })];
        differential(&k, &[&input, &[]], 32, 0);

        // Static dreg overrun (decode-time Invalid -> trap).
        let mut k = base_kernel(1);
        k.body = vec![Node::Op(Instr::mov(200, Op::Imm(0.0)))];
        differential(&k, &[&input, &[]], 32, 0);
    }

    #[test]
    fn out_of_range_index_registers_and_barriers_trap_alike() {
        // Four index registers. Every way an instruction can read one past
        // them — an operand, a shared base, a global row or point, a
        // constant index, a shuffle whose lane runs off the file — ends in
        // the same typed error at the same op on both paths (the
        // interpreter used to index its file raw and panic), and so does a
        // sync on a barrier past the file.
        let lane = |array| GAddr { array: GlobalId(array), row: IdxOp::Imm(0), point: PointRef::Lane };
        let past = SAddr { base: Some(9), imm: 0, lane_stride: 1 };
        let ireg_reads = [
            Instr::Idx(IdxInstr::Mov { dst: 0, src: IdxOp::Reg(4) }),
            Instr::Idx(IdxInstr::Add { dst: 0, a: IdxOp::Imm(1), b: IdxOp::Reg(9) }),
            Instr::Idx(IdxInstr::LdConst { dst: 0, bank: 0, idx: IdxOp::Reg(9) }),
            Instr::Idx(IdxInstr::Shfl { dst: 0, src: 3, lane: 32 }),
            Instr::LdShared { dst: 0, addr: past },
            Instr::StShared { src: Op::Imm(1.0), addr: past, lane_pred: Some(3) },
            Instr::LdConst { dst: 0, bank: 0, idx: IdxOp::Reg(9) },
            Instr::LdGlobal { dst: 0, addr: GAddr { row: IdxOp::Reg(9), ..lane(0) }, ldg: false },
            Instr::StGlobal { src: Op::Imm(1.0), addr: GAddr { point: PointRef::Reg(9), ..lane(1) } },
            Instr::CpAsync {
                addr: past,
                array: GlobalId(0),
                row: IdxOp::Imm(0),
                point: PointRef::Lane,
            },
        ];
        let input = vec![0.0; 64];
        let arch = GpuArch::kepler_k20c();
        let run = |ins: Instr| {
            let mut k = base_kernel(1);
            k.body = vec![Node::Op(Instr::mov(0, Op::Imm(2.0))), Node::Op(ins)];
            differential(&k, &[&input, &[]], 32, 0);
            run_cta_profiled(&k, &flatten(&k), &[&input, &[]], 32, 0, false, &arch, None)
                .unwrap_err()
        };
        for ins in ireg_reads {
            let err = run(ins.clone());
            assert!(
                matches!(err, SimError::OutOfBounds { space: "ireg", limit: 4, .. }),
                "{ins:?}: {err}"
            );
        }
        let err = run(Instr::BarSync { bar: 200, warps: 1 });
        assert!(matches!(err, SimError::BarrierMismatch { bar: 200, .. }), "{err}");

        // Eight double registers. Every operand position that reads one —
        // each source of the arithmetic, a select's predicate, a shuffle's
        // source and the element a lane past 31 reaches, a spill store's
        // and a shared or global store's source — names the register in
        // the same typed error on both paths. A fast op's operand is
        // checked at decode: past the file an operand would address the
        // constant tail.
        let (r, i) = (Op::Reg(8), Op::Imm(1.0));
        let dreg_reads = [
            (Instr::Bin { op: BinOp::Add, dst: 1, a: r, b: Op::Reg(0) }, 8),
            (Instr::Bin { op: BinOp::Mul, dst: 1, a: Op::Reg(0), b: Op::Reg(9) }, 9),
            (Instr::Un { op: UnOp::Exp, dst: 1, a: Op::Reg(200) }, 200),
            (Instr::DFma { dst: 1, a: r, b: i, c: i, const_c: false }, 8),
            (Instr::DFma { dst: 1, a: i, b: r, c: i, const_c: false }, 8),
            (Instr::DFma { dst: 1, a: i, b: i, c: r, const_c: false }, 8),
            (Instr::DSel { dst: 1, pred: 8, a: i, b: i }, 8),
            (Instr::DSel { dst: 1, pred: 0, a: i, b: r }, 8),
            (Instr::DCmp { dst: 1, cmp: Cmp::Lt, a: r, b: i }, 8),
            (Instr::DCmp { dst: 1, cmp: Cmp::Lt, a: i, b: r }, 8),
            (Instr::Shfl { dst: 1, src: 8, lane: 0 }, 8),
            (Instr::Shfl { dst: 1, src: 7, lane: 32 }, 7),
            (Instr::StLocal { src: r, slot: 0 }, 8),
            (Instr::StShared { src: r, addr: SAddr::lane(0), lane_pred: None }, 8),
            (Instr::StGlobal { src: r, addr: lane(1) }, 8),
        ];
        for (ins, addr) in dreg_reads {
            let err = run(ins.clone());
            assert_eq!(err, SimError::OutOfBounds { space: "dreg", addr, limit: 8 }, "{ins:?}");
        }
    }

    #[test]
    fn trap_after_barrier_is_not_reached_on_deadlock() {
        // Warp 0 deadlocks on barrier 0 before its OOB const load; warp 1
        // syncs on barrier 1. The deadlock must win, as in the interpreter.
        let mut k = base_kernel(2);
        k.body = vec![
            Node::WarpIf {
                mask: 0b01,
                body: vec![
                    Node::Op(Instr::BarSync { bar: 0, warps: 2 }),
                    Node::Op(Instr::LdConst { dst: 0, bank: 0, idx: IdxOp::Imm(99) }),
                ],
            },
            Node::WarpIf { mask: 0b10, body: vec![Node::Op(Instr::BarSync { bar: 1, warps: 2 })] },
        ];
        let input = vec![0.0; 64];
        differential(&k, &[&input, &[]], 32, 0);
    }

    #[test]
    fn lowering_drops_index_ops_but_keeps_their_cost() {
        let mut k = base_kernel(1);
        k.body = vec![
            Node::Op(Instr::Idx(IdxInstr::LaneId { dst: 0 })),
            Node::Op(Instr::Idx(IdxInstr::Add { dst: 0, a: IdxOp::Reg(0), b: IdxOp::Imm(1) })),
            Node::Op(Instr::mov(0, Op::Imm(2.0))),
        ];
        let prog = flatten(&k);
        let eng = lower(&k, &prog);
        // Index ops evaluate at lowering time, and the never-read DMov is
        // eliminated as a dead copy: no uops survive at all.
        assert_eq!(eng.uops.len(), 0);
        // But every issue slot is still charged in bulk.
        assert_eq!(eng.lowered[0].len(), 1);
        assert_eq!(eng.lowered[0][0].bulk.issue_slots, 3);
    }

    #[test]
    fn mul_add_pairs_fuse_and_stay_bit_identical() {
        // r2 = r0 * r1; r3 = r2 + r0  — a fusable pair; plus a pair whose
        // product register is also the final destination (t == d), and a
        // reversed-operand subtraction (c - p). All must fuse into
        // double-rounded uops that match the interpreter bit-for-bit.
        let mut k = base_kernel(1);
        k.body = vec![
            Node::Op(Instr::LdGlobal {
                dst: 0,
                addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
                ldg: false,
            }),
            Node::Op(Instr::LdGlobal {
                dst: 1,
                addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(1), point: PointRef::Lane },
                ldg: false,
            }),
            // t != d, p + c
            Node::Op(Instr::Bin { op: BinOp::Mul, dst: 2, a: Op::Reg(0), b: Op::Reg(1) }),
            Node::Op(Instr::Bin { op: BinOp::Add, dst: 3, a: Op::Reg(2), b: Op::Reg(0) }),
            // t == d, c - p (reversed operands)
            Node::Op(Instr::Bin { op: BinOp::Mul, dst: 4, a: Op::Reg(1), b: Op::Imm(1.0000001) }),
            Node::Op(Instr::Bin { op: BinOp::Sub, dst: 4, a: Op::Reg(3), b: Op::Reg(4) }),
            Node::Op(Instr::Bin { op: BinOp::Add, dst: 3, a: Op::Reg(3), b: Op::Reg(4) }),
            Node::Op(Instr::StGlobal {
                src: Op::Reg(3),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
            }),
        ];
        let prog = flatten(&k);
        let eng = lower(&k, &prog);
        let n_fused = eng
            .uops
            .iter()
            .filter(|u| matches!(u, UOp::FusedMulBin { .. }))
            .count();
        assert_eq!(n_fused, 2, "both mul->add/sub pairs fuse");
        let input: Vec<f64> = (0..64).map(|i| (i as f64) * 0.37 + 0.001).collect();
        differential(&k, &[&input, &[]], 32, 0);
    }

    #[test]
    fn copy_propagation_and_dead_mov_elimination_are_invisible() {
        // r1 = r0; r2 = r1 + 1  — the Mov is propagated into the Add and
        // then eliminated; an Imm Mov chain propagates too. Outputs and
        // counts must still match the interpreter exactly (bulk counts
        // derive from the pre-fusion stream).
        let mut k = base_kernel(1);
        k.body = vec![
            Node::Op(Instr::LdGlobal {
                dst: 0,
                addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
                ldg: false,
            }),
            Node::Op(Instr::mov(1, Op::Reg(0))),
            Node::Op(Instr::Bin { op: BinOp::Add, dst: 2, a: Op::Reg(1), b: Op::Imm(1.0) }),
            Node::Op(Instr::mov(3, Op::Imm(2.5))),
            Node::Op(Instr::Bin { op: BinOp::Mul, dst: 2, a: Op::Reg(2), b: Op::Reg(3) }),
            Node::Op(Instr::StGlobal {
                src: Op::Reg(2),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
            }),
        ];
        let prog = flatten(&k);
        let eng = lower(&k, &prog);
        // Both Movs become dead after propagation.
        assert!(
            !eng.uops.iter().any(|u| matches!(
                u,
                UOp::Fast(DecodedInstr::Un { kind: UnOp::Mov, .. })
            )),
            "movs should be propagated away: {:?}",
            eng.uops
        );
        let input: Vec<f64> = (0..64).map(|i| (i as f64) - 11.5).collect();
        differential(&k, &[&input, &[]], 32, 0);
    }

    #[test]
    fn const_staged_shuffles_fold_to_immediates() {
        // The warp-specialization staple: a lane-indexed constant load
        // stages 32 constants in one register chunk, then shuffles
        // broadcast single elements at each use. The staged chunk is known
        // at lowering, so every shuffle folds to an immediate and the
        // staging ConstV dies — while values stay bit-identical.
        let mut k = base_kernel(1);
        k.const_banks = vec![(0..32).map(|i| 0.75 + i as f64 * 1.25).collect()];
        k.body = vec![
            Node::Op(Instr::Idx(IdxInstr::LaneId { dst: 0 })),
            Node::Op(Instr::LdConst { dst: 4, bank: 0, idx: IdxOp::Reg(0) }),
            Node::Op(Instr::LdGlobal {
                dst: 0,
                addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
                ldg: false,
            }),
            Node::Op(Instr::Shfl { dst: 1, src: 4, lane: 3 }),
            Node::Op(Instr::Bin { op: BinOp::Mul, dst: 2, a: Op::Reg(0), b: Op::Reg(1) }),
            Node::Op(Instr::Shfl { dst: 1, src: 4, lane: 29 }),
            Node::Op(Instr::Bin { op: BinOp::Add, dst: 2, a: Op::Reg(2), b: Op::Reg(1) }),
            Node::Op(Instr::StGlobal {
                src: Op::Reg(2),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
            }),
        ];
        let prog = flatten(&k);
        let eng = lower(&k, &prog);
        assert!(
            !eng.uops.iter().any(|u| matches!(u, UOp::Fast(DecodedInstr::Shfl { .. }))),
            "shuffles off a ConstV chunk must fold: {:?}",
            eng.uops
        );
        assert!(
            !eng.uops.iter().any(|u| matches!(u, UOp::ConstV { .. })),
            "the staging ConstV must die once all its readers fold: {:?}",
            eng.uops
        );
        let input: Vec<f64> = (0..64).map(|i| (i as f64) * 0.85 + 0.01).collect();
        differential(&k, &[&input, &[]], 32, 0);
    }

    #[test]
    fn uniform_shared_loads_lower_to_broadcast() {
        // Listing-2 mirror reads: one predicated lane stores a word, every
        // lane loads it back through a stride-0 address. The load lowers
        // straight to a single-word broadcast uop.
        let mut k = base_kernel(1);
        let mirror = SAddr { base: None, imm: 7, lane_stride: 0 };
        k.body = vec![
            Node::Op(Instr::LdGlobal {
                dst: 0,
                addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
                ldg: false,
            }),
            Node::Op(Instr::StShared { src: Op::Reg(0), addr: mirror, lane_pred: Some(5) }),
            Node::Op(Instr::LdShared { dst: 1, addr: mirror }),
            Node::Op(Instr::Bin { op: BinOp::Add, dst: 2, a: Op::Reg(1), b: Op::Reg(0) }),
            Node::Op(Instr::StGlobal {
                src: Op::Reg(2),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
            }),
        ];
        let prog = flatten(&k);
        let eng = lower(&k, &prog);
        assert!(
            eng.uops.iter().any(|u| matches!(u, UOp::LdSharedBcast { .. })),
            "stride-0 load must lower to a broadcast: {:?}",
            eng.uops
        );
        assert!(!eng.uops.iter().any(|u| matches!(u, UOp::LdShared { .. })));
        let input: Vec<f64> = (0..64).map(|i| (i as f64) * 1.75 - 3.0).collect();
        differential(&k, &[&input, &[]], 32, 0);
    }

    #[test]
    fn staged_gather_feeding_single_shuffle_fuses_to_broadcast() {
        // A lane-strided gather whose chunk's only consumer is one
        // single-lane shuffle collapses into a broadcast of the one shared
        // word the shuffle selects; the gather dies.
        let mut k = base_kernel(1);
        k.body = vec![
            Node::Op(Instr::LdGlobal {
                dst: 0,
                addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
                ldg: false,
            }),
            Node::Op(Instr::StShared { src: Op::Reg(0), addr: SAddr::lane(0), lane_pred: None }),
            Node::Op(Instr::LdShared { dst: 4, addr: SAddr::lane(0) }),
            Node::Op(Instr::Shfl { dst: 1, src: 4, lane: 11 }),
            Node::Op(Instr::Bin { op: BinOp::Add, dst: 2, a: Op::Reg(1), b: Op::Reg(0) }),
            Node::Op(Instr::StGlobal {
                src: Op::Reg(2),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
            }),
        ];
        let prog = flatten(&k);
        let eng = lower(&k, &prog);
        assert!(
            eng.uops.iter().any(|u| matches!(u, UOp::LdSharedBcast { .. })),
            "gather + sole-consumer shuffle must fuse: {:?}",
            eng.uops
        );
        assert!(
            !eng.uops.iter().any(|u| matches!(
                u,
                UOp::LdShared { .. } | UOp::Fast(DecodedInstr::Shfl { .. })
            )),
            "the staging gather and the shuffle are both gone: {:?}",
            eng.uops
        );
        let input: Vec<f64> = (0..64).map(|i| (i as f64).sin() * 9.5).collect();
        differential(&k, &[&input, &[]], 32, 0);
    }

    #[test]
    fn stshared_lane_pred_out_of_range_is_typed_error() {
        // Regression (used to silently drop the store): both paths must
        // now report the same OutOfBounds error for lane_pred >= 32.
        let mut k = base_kernel(1);
        k.body = vec![
            Node::Op(Instr::mov(0, Op::Imm(3.0))),
            Node::Op(Instr::StShared {
                src: Op::Reg(0),
                addr: SAddr::lane(0),
                lane_pred: Some(40),
            }),
        ];
        let input = vec![0.0; 64];
        differential(&k, &[&input, &[]], 32, 0);
        // And pin the exact error shape on the engine path.
        let prog = flatten(&k);
        let eng = lower(&k, &prog);
        let err = run_cta_engine(
            &k, &eng, &prog, &[&input, &[]], 32, 0, false, &GpuArch::kepler_k20c(), None,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::OutOfBounds { space: "lane-pred", addr: 40, limit: WARP_SIZE }
        );
    }

    #[test]
    fn collect_toggle_never_leaks_cache_state_between_ctas() {
        // The constant cache is rebuilt per CTA and constant values are
        // resolved at lowering, so interleaving unprofiled (collect=false)
        // and profiled (collect=true) CTAs on one shared lowered program
        // must give every profiled CTA the same counts as a fresh
        // interpreter run, and identical outputs everywhere.
        let mut k = base_kernel(1);
        k.points_per_cta = 32;
        k.body = vec![
            Node::Op(Instr::LdGlobal {
                dst: 0,
                addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
                ldg: false,
            }),
            Node::Op(Instr::LdConst { dst: 1, bank: 0, idx: IdxOp::Imm(1) }),
            Node::Op(Instr::DFma {
                dst: 2,
                a: Op::Reg(0),
                b: Op::Reg(1),
                c: Op::Imm(0.5),
                const_c: false,
            }),
            Node::Op(Instr::StGlobal {
                src: Op::Reg(2),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
            }),
        ];
        let prog = flatten(&k);
        let eng = lower(&k, &prog);
        let arch = GpuArch::kepler_k20c();
        let total = 128; // 4 CTAs
        let input: Vec<f64> = (0..2 * total).map(|i| i as f64 * 0.5).collect();
        let inputs: &[&[f64]] = &[&input, &[]];
        // Alternate collect off/on across CTAs on the shared program.
        for (cta, collect) in [(0, false), (1, true), (2, false), (3, true)] {
            let e =
                run_cta_engine(&k, &eng, &prog, inputs, total, cta, collect, &arch, None).unwrap();
            let i = run_cta_profiled(&k, &prog, inputs, total, cta, collect, &arch, None).unwrap();
            assert_eq!(e.counts, i.counts, "cta {cta} collect {collect}");
            for (x, y) in e.out_buffers.iter().zip(&i.out_buffers) {
                for (va, vb) in x.iter().zip(y) {
                    assert_eq!(va.to_bits(), vb.to_bits());
                }
            }
        }
    }

    fn ld(dst: Reg, row: u32) -> Node {
        Node::Op(Instr::LdGlobal {
            dst,
            addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(row), point: PointRef::Lane },
            ldg: false,
        })
    }

    fn st(src: Reg) -> Node {
        Node::Op(Instr::StGlobal {
            src: Op::Reg(src),
            addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
        })
    }

    /// A global access of row `row` at the executing thread's own point.
    fn thread_point(row: u32) -> GAddr {
        GAddr { array: GlobalId(0), row: IdxOp::Imm(row), point: PointRef::Thread }
    }

    fn st_thread(src: Reg) -> Node {
        Node::Op(Instr::StGlobal {
            src: Op::Reg(src),
            addr: GAddr { array: GlobalId(1), ..thread_point(0) },
        })
    }

    /// [`differential`] on the first CTA and on the last of a three-CTA
    /// grid (`base_point` != 0), over inputs that differ at every point.
    fn differential_first_and_later_cta(kernel: &Kernel) {
        let total = 3 * kernel.points_per_cta;
        let input: Vec<f64> = (0..2 * total).map(|i| (i as f64) * 0.375 - 7.0).collect();
        differential(kernel, &[&input, &[]], total, 0);
        differential(kernel, &[&input, &[]], total, 2);
    }

    /// An 8-warp data-parallel kernel skeleton: one point per thread.
    fn one_class_kernel(name: &str, body: Vec<Node>) -> Kernel {
        let mut k = base_kernel(8);
        k.name = name.into();
        k.points_per_cta = 8 * WARP_SIZE;
        k.body = body;
        k
    }

    #[test]
    fn one_class_kernel_is_lowered_once_and_completes_thread_points_per_warp() {
        // Every warp runs the same code on its own 32 points: loads and a
        // store through `PointRef::Thread`, a constant, a spill round trip.
        // One class, lowered once; each warp's run-time completion of the
        // thread point must land on its own points, in any CTA.
        let k = one_class_kernel(
            "eng-t-one-class",
            vec![
                Node::Op(Instr::LdGlobal { dst: 0, addr: thread_point(0), ldg: false }),
                Node::Op(Instr::LdGlobal { dst: 1, addr: thread_point(1), ldg: false }),
                Node::Op(Instr::LdConst { dst: 2, bank: 0, idx: IdxOp::Imm(3) }),
                Node::Op(Instr::DFma {
                    dst: 3,
                    a: Op::Reg(0),
                    b: Op::Reg(2),
                    c: Op::Reg(1),
                    const_c: false,
                }),
                Node::Op(Instr::StLocal { src: Op::Reg(3), slot: 1 }),
                Node::Op(Instr::mov(3, Op::Imm(0.0))),
                Node::Op(Instr::LdLocal { dst: 4, slot: 1 }),
                st_thread(4),
            ],
        );
        let prog = flatten(&k);
        assert_eq!(prog.n_classes(), 1);
        let eng = lower(&k, &prog);
        assert_eq!(eng.lowered.len(), 1, "one class, one lowering");
        assert_eq!(eng.lowered_of, [0; 8]);
        // The op mix is still the CTA's: eight warps execute what is
        // stored once.
        assert_eq!(eng.stats().uops, 8 * eng.uops.len() as u64);
        differential_first_and_later_cta(&k);
    }

    #[test]
    fn one_class_async_copies_complete_thread_points_per_warp() {
        // The same through `CpAsync`: each warp copies its own 32 points
        // into the (contended, deterministically scheduled) staging words
        // and reads them straight back.
        let k = one_class_kernel(
            "eng-t-one-class-async",
            vec![
                Node::Op(Instr::CpAsync {
                    addr: SAddr::lane(32),
                    array: GlobalId(0),
                    row: IdxOp::Imm(1),
                    point: PointRef::Thread,
                }),
                Node::Op(Instr::LdShared { dst: 0, addr: SAddr::lane(32) }),
                Node::Op(Instr::Bin { op: BinOp::Mul, dst: 1, a: Op::Reg(0), b: Op::Imm(-2.5) }),
                st_thread(1),
            ],
        );
        let eng = lower(&k, &flatten(&k));
        assert_eq!(eng.lowered.len(), 1);
        assert_eq!(eng.stats().async_copies, 8, "one stored copy, eight executed");
        differential_first_and_later_cta(&k);
    }

    #[test]
    fn a_class_that_reads_the_warp_id_is_lowered_per_member() {
        // Two warps, one stream, but the shared address each stores to is
        // derived from `WarpId`, which lowering folds into the address
        // chunk: sharing one lowering would make both warps hit warp 0's
        // words. The class stays one class; the engine lowers it twice.
        let mut k = base_kernel(2);
        k.name = "eng-t-warp-id-class".into();
        k.points_per_cta = 2 * WARP_SIZE;
        k.body = vec![
            Node::Op(Instr::Idx(IdxInstr::WarpId { dst: 0 })),
            Node::Op(Instr::Idx(IdxInstr::Mul { dst: 1, a: IdxOp::Reg(0), b: IdxOp::Imm(32) })),
            Node::Op(Instr::LdGlobal { dst: 0, addr: thread_point(0), ldg: false }),
            Node::Op(Instr::StShared {
                src: Op::Reg(0),
                addr: SAddr { base: Some(1), imm: 0, lane_stride: 1 },
                lane_pred: None,
            }),
            Node::Op(Instr::BarSync { bar: 0, warps: 2 }),
            // Each warp sums both warps' words.
            Node::Op(Instr::LdShared { dst: 1, addr: SAddr::lane(0) }),
            Node::Op(Instr::LdShared { dst: 2, addr: SAddr::lane(32) }),
            Node::Op(Instr::Bin { op: BinOp::Sub, dst: 3, a: Op::Reg(1), b: Op::Reg(2) }),
            st_thread(3),
        ];
        let prog = flatten(&k);
        assert_eq!(prog.n_classes(), 1);
        let eng = lower(&k, &prog);
        assert_eq!(eng.lowered_of, [0, 1], "one lowering per member");
        differential_first_and_later_cta(&k);
    }

    #[test]
    fn one_class_traps_and_deadlocks_like_the_interpreter() {
        // A shared overrun every warp of the class would hit: the trap is
        // stored once and the first warp scheduled raises it.
        let k = one_class_kernel(
            "eng-t-one-class-trap",
            vec![
                Node::Op(Instr::LdGlobal { dst: 0, addr: thread_point(0), ldg: false }),
                Node::Op(Instr::LdShared {
                    dst: 1,
                    addr: SAddr { base: None, imm: 1000, lane_stride: 1 },
                }),
                st_thread(1),
            ],
        );
        assert_eq!(lower(&k, &flatten(&k)).traps.len(), 1);
        differential_first_and_later_cta(&k);

        // A barrier that waits for a ninth warp: all eight block, and the
        // report names each of them.
        let k = one_class_kernel(
            "eng-t-one-class-deadlock",
            vec![Node::Op(Instr::BarSync { bar: 1, warps: 9 }), st_thread(0)],
        );
        let prog = flatten(&k);
        let eng = lower(&k, &prog);
        let inputs: &[&[f64]] = &[&[0.0; 512], &[]];
        let err = run_cta_engine(&k, &eng, &prog, inputs, 256, 0, false, &GpuArch::hopper(), None)
            .unwrap_err();
        assert_eq!(err, SimError::Deadlock { cta: 0, blocked: (0..8).map(|w| (w, 1)).collect() });
        differential_first_and_later_cta(&k);
    }

    #[test]
    fn mixed_kernel_shares_the_big_class_and_keeps_the_singletons() {
        // Four compute warps in one class feed two specialized warps: warp
        // 4 reduces what they staged, warp 5 only signals. Three classes,
        // three lowerings, six warps.
        let mut k = base_kernel(6);
        k.name = "eng-t-mixed-classes".into();
        k.points_per_cta = 6 * WARP_SIZE;
        k.body = vec![
            Node::WarpIf {
                mask: 0b00_1111,
                body: vec![
                    Node::Op(Instr::LdGlobal { dst: 0, addr: thread_point(1), ldg: false }),
                    Node::Op(Instr::Bin { op: BinOp::Add, dst: 0, a: Op::Reg(0), b: Op::Imm(0.5) }),
                    Node::Op(Instr::StShared {
                        src: Op::Reg(0),
                        addr: SAddr::lane(0),
                        lane_pred: None,
                    }),
                    st_thread(0),
                    Node::Op(Instr::BarArrive { bar: 0, warps: 6 }),
                ],
            },
            Node::WarpSwitch {
                case_of_warp: vec![2, 2, 2, 2, 0, 1],
                cases: vec![
                    vec![
                        Node::Op(Instr::BarSync { bar: 0, warps: 6 }),
                        Node::Op(Instr::LdShared { dst: 1, addr: SAddr::lane(0) }),
                        Node::Op(Instr::LdConst { dst: 2, bank: 0, idx: IdxOp::Imm(1) }),
                        Node::Op(Instr::Bin {
                            op: BinOp::Mul,
                            dst: 1,
                            a: Op::Reg(1),
                            b: Op::Reg(2),
                        }),
                        st_thread(1),
                    ],
                    vec![Node::Op(Instr::BarArrive { bar: 0, warps: 6 }), st_thread(7)],
                ],
            },
        ];
        let prog = flatten(&k);
        assert_eq!((0..6).map(|w| prog.class_of(w)).collect::<Vec<_>>(), [0, 0, 0, 0, 1, 2]);
        let eng = lower(&k, &prog);
        assert_eq!(eng.lowered_of, [0, 0, 0, 0, 1, 2]);
        differential_first_and_later_cta(&k);
    }

    /// A kernel over `trips` point sets of 32 points: one warp unless the
    /// body says otherwise.
    fn looped_kernel(name: &str, warps: usize, trips: usize, body: Vec<Node>) -> Kernel {
        let mut k = base_kernel(warps);
        k.name = name.into();
        k.points_per_cta = trips * WARP_SIZE;
        k.const_banks = vec![(0..32).map(|i| 0.75 + i as f64 * 1.25).collect()];
        k.body = body;
        k
    }

    /// Every rolled body of a lowered program, as (repetitions, points
    /// advanced per repetition), in stream order over the lowered streams.
    fn repeats(eng: &EngineProgram) -> Vec<(u32, u32)> {
        eng.lowered
            .iter()
            .flatten()
            .filter_map(|seg| match seg.term {
                SegTerm::Repeat { reps, advance, .. } => Some((reps, advance)),
                _ => None,
            })
            .collect()
    }

    fn shuffle(dst: Reg, src: Reg, lane: u8) -> Node {
        Node::Op(Instr::Shfl { dst, src, lane })
    }

    fn bin(op: BinOp, dst: Reg, a: Op, b: Op) -> Node {
        Node::Op(Instr::Bin { op, dst, a, b })
    }

    #[test]
    fn rolled_point_loop_keeps_the_fold_of_a_constant_staged_above_it() {
        // The paper's shape (§5.2): constants staged in a register chunk
        // once, then four point sets streamed through a body that
        // broadcasts from it. The body is stored once and repeated; the
        // staged chunk is not written in it, so both shuffles still fold
        // and the staging load still dies. The code after the loop is back
        // at point set 0.
        let k = looped_kernel(
            "eng-t-rolled-fold",
            1,
            4,
            vec![
                Node::Op(Instr::Idx(IdxInstr::LaneId { dst: 0 })),
                Node::Op(Instr::LdConst { dst: 4, bank: 0, idx: IdxOp::Reg(0) }),
                Node::PointLoop {
                    iters: 4,
                    body: vec![
                        ld(0, 0),
                        shuffle(1, 4, 3),
                        bin(BinOp::Mul, 2, Op::Reg(0), Op::Reg(1)),
                        shuffle(1, 4, 29),
                        bin(BinOp::Add, 2, Op::Reg(2), Op::Reg(1)),
                        st(2),
                    ],
                },
                ld(5, 1),
                st(5),
            ],
        );
        let prog = flatten(&k);
        assert_eq!(prog.stored_ops(), 2 + 6 + 2);
        assert_eq!(prog.stream_len(0), 2 + 4 * 6 + 2);
        let eng = lower(&k, &prog);
        assert_eq!(repeats(&eng), [(4, 32)]);
        assert!(
            !eng.uops
                .iter()
                .any(|u| matches!(u, UOp::Fast(DecodedInstr::Shfl { .. }) | UOp::ConstV { .. })),
            "shuffles off the staged chunk fold, the staging dies: {:?}",
            eng.uops
        );
        // ld, mul, add, st — stored once, executed four times.
        assert_eq!(eng.uops.len(), 4 + 2);
        assert_eq!(eng.stats().uops, 4 * 4 + 2);
        assert_eq!(eng.shape(), LoweringShape { stored_uops: 6, rolled_runs: 1, unrolled_runs: 0 });
        differential_first_and_later_cta(&k);
    }

    #[test]
    fn a_body_that_overwrites_the_staged_chunk_keeps_its_shuffle_and_its_copy() {
        // The same staging, but the body ends by overwriting the staged
        // chunk: from the second trip on the shuffle reads what the trip
        // before left there, so it must not fold to the constant. And r5,
        // a copy of the chunk made above the loop, stops being one at that
        // write: the body's read of r5 must not be redirected to r4.
        let k = looped_kernel(
            "eng-t-rolled-overwrite",
            1,
            4,
            vec![
                Node::Op(Instr::Idx(IdxInstr::LaneId { dst: 0 })),
                Node::Op(Instr::LdConst { dst: 4, bank: 0, idx: IdxOp::Reg(0) }),
                Node::Op(Instr::mov(5, Op::Reg(4))),
                Node::PointLoop {
                    iters: 4,
                    body: vec![
                        ld(0, 0),
                        shuffle(1, 4, 3),
                        bin(BinOp::Mul, 2, Op::Reg(0), Op::Reg(1)),
                        bin(BinOp::Add, 2, Op::Reg(2), Op::Reg(5)),
                        st(2),
                        Node::Op(Instr::mov(4, Op::Reg(2))),
                    ],
                },
            ],
        );
        let eng = lower(&k, &flatten(&k));
        assert_eq!(repeats(&eng), [(4, 32)]);
        assert!(
            eng.uops.iter().any(|u| matches!(u, UOp::Fast(DecodedInstr::Shfl { .. }))),
            "the shuffle reads a chunk the body writes: {:?}",
            eng.uops
        );
        differential_first_and_later_cta(&k);
    }

    #[test]
    fn liveness_reaches_its_fixed_point_around_a_rolled_body() {
        // r3 accumulates over the trips and is stored after the loop. r5 is
        // written at the end of a trip and read only at the top of the
        // next: nothing after the loop reads it, so it is dead in the last
        // trip only, and live at the body's end all the same.
        let k = looped_kernel(
            "eng-t-rolled-carried",
            1,
            4,
            vec![
                Node::Op(Instr::mov(3, Op::Imm(0.0))),
                Node::Op(Instr::mov(5, Op::Imm(1.5))),
                Node::PointLoop {
                    iters: 4,
                    body: vec![
                        ld(0, 0),
                        bin(BinOp::Mul, 1, Op::Reg(0), Op::Reg(5)),
                        bin(BinOp::Add, 3, Op::Reg(3), Op::Reg(1)),
                        st(1),
                        bin(BinOp::Sub, 5, Op::Reg(0), Op::Imm(0.25)),
                    ],
                },
                st(3),
            ],
        );
        assert_eq!(repeats(&lower(&k, &flatten(&k))), [(4, 32)]);
        differential_first_and_later_cta(&k);

        // Carried through two registers, and read nowhere after the loop:
        // r2 is live at the body's end only because the next trip's first
        // op reads it, which makes r3's write live, which the walk can see
        // only once r2's is.
        let k = looped_kernel(
            "eng-t-rolled-carried-chain",
            1,
            4,
            vec![
                Node::Op(Instr::mov(2, Op::Imm(-2.0))),
                Node::Op(Instr::mov(3, Op::Imm(0.5))),
                Node::PointLoop {
                    iters: 4,
                    body: vec![
                        ld(0, 0),
                        bin(BinOp::Add, 1, Op::Reg(2), Op::Reg(0)),
                        st(1),
                        bin(BinOp::Mul, 2, Op::Reg(3), Op::Imm(0.5)),
                        bin(BinOp::Add, 3, Op::Reg(1), Op::Imm(1.0)),
                    ],
                },
            ],
        );
        let eng = lower(&k, &flatten(&k));
        assert_eq!(repeats(&eng), [(4, 32)]);
        assert_eq!(eng.stats().uops, 2 + 4 * 5, "nothing in the body is dead: {:?}", eng.uops);
        differential_first_and_later_cta(&k);

        // r6 is live after the loop, but the body overwrites it before any
        // read: it is not live into the body, so not above the loop either,
        // and its write there dies as it did when the trips were unrolled.
        let k = looped_kernel(
            "eng-t-rolled-overwritten-at-head",
            1,
            4,
            vec![
                Node::Op(Instr::mov(6, Op::Imm(9.0))),
                Node::PointLoop {
                    iters: 4,
                    body: vec![
                        ld(0, 0),
                        bin(BinOp::Add, 6, Op::Reg(0), Op::Imm(1.0)),
                        bin(BinOp::Mul, 1, Op::Reg(6), Op::Imm(2.0)),
                        st(1),
                    ],
                },
                st(6),
            ],
        );
        let eng = lower(&k, &flatten(&k));
        assert_eq!(repeats(&eng), [(4, 32)]);
        assert_eq!(eng.stats().uops, 4 * 4 + 1, "the write above the loop is dead: {:?}", eng.uops);
        differential_first_and_later_cta(&k);
    }

    /// A K-stage ring in the shape codegen emits: shared slot `s` holds
    /// the constant `s` (staged above the loop); every trip both warps
    /// select entry `pset % K`, warp 0 signals the entry's barrier and
    /// warp 1 waits on it, then adds the entry's constant to its points.
    fn ring_kernel(k_stages: u8, trips: u32) -> Kernel {
        let mut body = Vec::new();
        for s in 0..k_stages {
            body.push(Node::Op(Instr::StShared {
                src: Op::Imm(f64::from(s) + 0.5),
                addr: SAddr::lane(u32::from(s) * 32),
                lane_pred: None,
            }));
        }
        body.push(Node::Op(Instr::BarSync { bar: 3, warps: 2 }));
        body.push(Node::PointLoop {
            iters: trips,
            body: vec![
                Node::Op(Instr::Idx(IdxInstr::PipeOff { dst: 1, k: k_stages, stride: 32 })),
                Node::WarpIf {
                    mask: 0b01,
                    body: vec![Node::Op(Instr::BarArriveStage { base: 0, k: k_stages, warps: 2 })],
                },
                Node::WarpIf {
                    mask: 0b10,
                    body: vec![
                        Node::Op(Instr::BarSyncStage { base: 0, k: k_stages, warps: 2 }),
                        ld(0, 0),
                        Node::Op(Instr::LdShared {
                            dst: 1,
                            addr: SAddr { base: Some(1), imm: 0, lane_stride: 1 },
                        }),
                        bin(BinOp::Add, 2, Op::Reg(0), Op::Reg(1)),
                        st(2),
                    ],
                },
            ],
        });
        looped_kernel(&format!("eng-t-ring-{k_stages}-{trips}"), 2, trips as usize, body)
    }

    #[test]
    fn stage_rotated_rings_roll_at_their_period() {
        for k_stages in [2u8, 3] {
            let period = u32::from(k_stages);
            // Two periods: each warp's loop is one body of K trips,
            // repeated twice, and the ring's barriers rotate inside it.
            let k = ring_kernel(k_stages, 2 * period);
            let eng = lower(&k, &flatten(&k));
            assert_eq!(repeats(&eng), [(2, period * 32); 2], "K = {k_stages}");
            for segs in &eng.lowered {
                let body: Vec<u8> = segs
                    .iter()
                    .skip(1) // the staging, up to the first rendezvous
                    .filter_map(|seg| match seg.term {
                        SegTerm::Arrive { bar, .. } | SegTerm::Sync { bar, .. } => Some(bar),
                        _ => None,
                    })
                    .collect();
                assert_eq!(body, (0..k_stages).collect::<Vec<u8>>(), "one period, K barriers");
            }
            assert_eq!(eng.shape().rolled_runs, 2);
            differential_first_and_later_cta(&k);

            // One period is one repetition, and a trip count the period
            // does not divide has no whole number of them: both are
            // lowered trip after trip.
            for trips in [period, 2 * period + 1] {
                let k = ring_kernel(k_stages, trips);
                let eng = lower(&k, &flatten(&k));
                assert_eq!(repeats(&eng), [], "K = {k_stages}, {trips} trips");
                assert_eq!(eng.shape().unrolled_runs, 2);
                differential_first_and_later_cta(&k);
            }
        }
    }

    #[test]
    fn a_body_that_carries_an_index_register_is_lowered_trip_after_trip() {
        // r1 counts the trips and bases the shared address: every trip
        // lowers to different addresses, so no repeat can stand for them.
        let k = looped_kernel(
            "eng-t-index-carried",
            1,
            4,
            vec![Node::PointLoop {
                iters: 4,
                body: vec![
                    Node::Op(Instr::Idx(IdxInstr::Add { dst: 1, a: IdxOp::Reg(1), b: IdxOp::Imm(1) })),
                    ld(0, 0),
                    Node::Op(Instr::StShared {
                        src: Op::Reg(0),
                        addr: SAddr { base: Some(1), imm: 0, lane_stride: 1 },
                        lane_pred: None,
                    }),
                    Node::Op(Instr::LdShared {
                        dst: 1,
                        addr: SAddr { base: Some(1), imm: 1, lane_stride: 1 },
                    }),
                    st(1),
                ],
            }],
        );
        let eng = lower(&k, &flatten(&k));
        assert_eq!(repeats(&eng), []);
        assert_eq!((eng.shape().rolled_runs, eng.shape().unrolled_runs), (0, 1));
        assert_eq!(eng.shape().stored_uops, eng.stats().uops);
        differential_first_and_later_cta(&k);

        // Rewritten from scratch every trip, the same register rolls.
        let mut k = k;
        k.name = "eng-t-index-rewritten".into();
        let Node::PointLoop { body, .. } = &mut k.body[0] else { unreachable!() };
        body[0] = Node::Op(Instr::Idx(IdxInstr::Mov { dst: 1, src: IdxOp::Imm(7) }));
        assert_eq!(repeats(&lower(&k, &flatten(&k))), [(4, 32)]);
        differential_first_and_later_cta(&k);
    }

    #[test]
    fn rolled_bodies_with_absolute_points_plain_loops_and_a_second_loop() {
        // `PointRef::Reg`: absolute points from an index register the body
        // only reads, the same every trip, next to `PointRef::Lane` stores
        // that move with the trip.
        let k = looped_kernel(
            "eng-t-rolled-abs",
            1,
            4,
            vec![
                Node::Op(Instr::Idx(IdxInstr::LaneId { dst: 2 })),
                Node::PointLoop {
                    iters: 4,
                    body: vec![
                        Node::Op(Instr::LdGlobal {
                            dst: 0,
                            addr: GAddr {
                                array: GlobalId(0),
                                row: IdxOp::Imm(1),
                                point: PointRef::Reg(2),
                            },
                            ldg: false,
                        }),
                        ld(1, 0),
                        bin(BinOp::Sub, 2, Op::Reg(1), Op::Reg(0)),
                        st(2),
                    ],
                },
            ],
        );
        assert_eq!(repeats(&lower(&k, &flatten(&k))), [(4, 32)]);
        differential_first_and_later_cta(&k);

        // A plain loop repeats without moving the points; inside a point
        // loop it is a run of its own per outer trip. A second point loop
        // after it starts again from point set 0.
        let k = looped_kernel(
            "eng-t-rolled-plain",
            1,
            2,
            vec![
                Node::PointLoop {
                    iters: 2,
                    body: vec![
                        ld(0, 0),
                        Node::Op(Instr::mov(1, Op::Imm(0.0))),
                        Node::Loop {
                            count: 3,
                            body: vec![
                                bin(BinOp::Add, 1, Op::Reg(1), Op::Reg(0)),
                                bin(BinOp::Mul, 0, Op::Reg(0), Op::Imm(0.5)),
                            ],
                        },
                        st(1),
                    ],
                },
                Node::PointLoop {
                    iters: 2,
                    body: vec![ld(0, 1), ld(1, 0), bin(BinOp::Div, 2, Op::Reg(0), Op::Reg(1)), st(2)],
                },
            ],
        );
        assert_eq!(repeats(&lower(&k, &flatten(&k))), [(3, 0), (3, 0), (2, 32)]);
        differential_first_and_later_cta(&k);
    }

    #[test]
    fn traps_and_deadlocks_in_a_loop_are_the_interpreters() {
        // A shared overrun in trip 0: the trap is planted, lowering stops,
        // nothing rolls.
        let k = looped_kernel(
            "eng-t-rolled-trap",
            1,
            4,
            vec![Node::PointLoop {
                iters: 4,
                body: vec![
                    ld(0, 0),
                    Node::Op(Instr::LdShared {
                        dst: 1,
                        addr: SAddr { base: None, imm: 1000, lane_stride: 1 },
                    }),
                    st(1),
                ],
            }],
        );
        let eng = lower(&k, &flatten(&k));
        assert_eq!((eng.traps.len(), repeats(&eng)), (1, vec![]));
        differential_first_and_later_cta(&k);

        // Warp 0 waits four times on a barrier warp 1 arrives at twice: it
        // blocks for good in the third repetition of its rolled body.
        let sync = |mask, iters| Node::WarpIf {
            mask,
            body: vec![Node::PointLoop {
                iters,
                body: vec![ld(0, 0), st(0), Node::Op(Instr::BarSync { bar: 2, warps: 2 })],
            }],
        };
        let k = looped_kernel("eng-t-rolled-deadlock", 2, 4, vec![sync(0b01, 4), sync(0b10, 2)]);
        let prog = flatten(&k);
        let eng = lower(&k, &prog);
        assert_eq!(repeats(&eng), [(4, 32), (2, 32)]);
        let inputs: &[&[f64]] = &[&[1.0; 256], &[]];
        let err = run_cta_engine(&k, &eng, &prog, inputs, 128, 0, true, &GpuArch::hopper(), None)
            .unwrap_err();
        assert_eq!(err, SimError::Deadlock { cta: 0, blocked: vec![(0, 2)] });
        differential_first_and_later_cta(&k);
    }

    #[test]
    fn a_body_ending_on_a_barrier_closes_with_an_empty_repeat_segment() {
        // Both warps end every trip on a rendezvous: the body's last
        // segment ends with the barrier, so the repeat has a segment to
        // itself that covers no instruction.
        let k = looped_kernel(
            "eng-t-rolled-barrier-end",
            2,
            4,
            vec![Node::PointLoop {
                iters: 4,
                body: vec![
                    Node::WarpIf { mask: 0b01, body: vec![ld(0, 0), st(0)] },
                    Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
                ],
            }],
        );
        let eng = lower(&k, &flatten(&k));
        assert_eq!(repeats(&eng), [(4, 32), (4, 32)]);
        for segs in &eng.lowered {
            let last = segs.last().expect("a rolled body");
            assert!(matches!(last.term, SegTerm::Repeat { to: 0, .. }));
            assert!(last.uops.is_empty() && last.bulk == StaticSegCounts::default());
        }
        differential_first_and_later_cta(&k);
    }

    #[test]
    fn a_class_that_reads_the_warp_id_in_its_loop_rolls_per_member() {
        // One stream for both warps, with the warp id folded into a shared
        // address inside the loop: lowered per member, each rolled. The
        // thread-point accesses do not move with the trip.
        let k = looped_kernel(
            "eng-t-rolled-warp-id",
            2,
            4,
            vec![Node::PointLoop {
                iters: 4,
                body: vec![
                    Node::Op(Instr::Idx(IdxInstr::WarpId { dst: 0 })),
                    Node::Op(Instr::Idx(IdxInstr::Mul { dst: 1, a: IdxOp::Reg(0), b: IdxOp::Imm(32) })),
                    Node::Op(Instr::LdGlobal { dst: 0, addr: thread_point(0), ldg: false }),
                    ld(1, 1),
                    bin(BinOp::Add, 0, Op::Reg(0), Op::Reg(1)),
                    Node::Op(Instr::StShared {
                        src: Op::Reg(0),
                        addr: SAddr { base: Some(1), imm: 0, lane_stride: 1 },
                        lane_pred: None,
                    }),
                    Node::Op(Instr::BarSync { bar: 0, warps: 2 }),
                    Node::Op(Instr::LdShared { dst: 1, addr: SAddr::lane(0) }),
                    Node::Op(Instr::LdShared { dst: 2, addr: SAddr::lane(32) }),
                    bin(BinOp::Sub, 3, Op::Reg(1), Op::Reg(2)),
                    st_thread(3),
                    Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
                ],
            }],
        );
        let prog = flatten(&k);
        assert_eq!(prog.n_classes(), 1);
        let eng = lower(&k, &prog);
        assert_eq!(eng.lowered_of, [0, 1], "one lowering per member");
        assert_eq!(repeats(&eng), [(4, 32), (4, 32)]);
        differential_first_and_later_cta(&k);
    }

    #[test]
    fn chunk_table_agrees_with_a_hashmap_model() {
        // Drive the dense table and a `HashMap` model with the same seeded
        // operation stream over architectural chunks, element indices
        // inside them, and out-of-range bases up to `Reg = u16::MAX` (the
        // table must neither misplace nor panic on them), then compare
        // every row either side has touched.
        type Row = (u32, bool, Option<u32>);
        let row = |s: ChunkSlot| -> Row {
            let known = if let Fact::Table(v) = s.fact { Some(v) } else { None };
            (s.version, s.live, known)
        };
        let mut t = ChunkTable::new();
        let mut model: HashMap<usize, Row> = HashMap::new();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let regs = [0usize, 1, 2, 7, 8, 255, 256, 40_000, u16::MAX as usize - 1, u16::MAX as usize];
        for i in 0..20_000usize {
            let base = regs[next(regs.len() as u64) as usize] * WARP_SIZE + next(WARP_SIZE as u64) as usize;
            let m = model.entry(base / WARP_SIZE).or_default();
            match next(16) {
                0 => {
                    t.reset();
                    model.clear();
                }
                1..=5 => {
                    t.write(base);
                    *m = (m.0 + 1, m.1, None);
                }
                6..=8 => {
                    let live = next(2) == 0;
                    t.at(base).live = live;
                    m.1 = live;
                }
                9..=12 => {
                    t.at(base).fact = Fact::Table(i as u32);
                    m.2 = Some(i as u32);
                }
                _ => {}
            }
            for r in regs {
                let want = model.get(&r).copied().unwrap_or_default();
                assert_eq!(row(t.get(r * WARP_SIZE)), want, "chunk {r} after op {i}");
                assert_eq!(row(t.get(r * WARP_SIZE + 31)), want, "chunk {r} by its last element");
            }
        }
    }

    #[test]
    fn shfl_cross_chunk_element_read_keeps_the_next_chunk_alive() {
        // `Shfl src: r3, lane: 40` reads element 8 of r4 (the interpreter
        // indexes `dregs[src*32 + lane]` raw). The read visitor must
        // report r4's chunk, so liveness keeps r4's only writer and the
        // constant folder looks the element up in r4's row, not r3's.
        let shfl = UOp::Fast(DecodedInstr::Shfl { dst: 0, src: 3 * WARP_SIZE as u32, lane: 40 });
        let mut reads = Vec::new();
        for_each_read_chunk(&shfl, |r| reads.push(r));
        assert_eq!(reads, [4 * WARP_SIZE]);

        let mut k = base_kernel(1);
        k.body = vec![
            ld(0, 0),
            Node::Op(Instr::mov(3, Op::Imm(-1.0))),
            Node::Op(Instr::Bin { op: BinOp::Add, dst: 4, a: Op::Reg(0), b: Op::Reg(0) }),
            Node::Op(Instr::Shfl { dst: 1, src: 3, lane: 40 }),
            st(1),
        ];
        let prog = flatten(&k);
        let eng = lower(&k, &prog);
        assert!(
            eng.uops.iter().any(|u| matches!(u, UOp::Fast(DecodedInstr::Bin { .. }))),
            "r4's writer feeds the cross-chunk shuffle and must survive: {:?}",
            eng.uops
        );
        assert!(
            eng.uops.iter().any(|u| matches!(u, UOp::Fast(DecodedInstr::Shfl { .. }))),
            "r3's splat is not what the shuffle reads; it must not fold: {:?}",
            eng.uops
        );
        let input: Vec<f64> = (0..64).map(|i| (i as f64) * 0.5 + 0.25).collect();
        differential(&k, &[&input, &[]], 32, 0);

        // Operand registers far outside the file (`Reg` up to `u16::MAX`)
        // never reach the optimizer's table: decoding made the first such
        // op a trap, dead as its result is, and lowering stopped there.
        let mut k = base_kernel(1);
        k.name = "eng-t-oob-operand".into();
        k.body = vec![
            ld(0, 0),
            Node::Op(Instr::Bin { op: BinOp::Add, dst: 1, a: Op::Reg(u16::MAX), b: Op::Reg(0) }),
            Node::Op(Instr::mov(2, Op::Reg(u16::MAX - 1))),
            st(0),
        ];
        let eng = lower(&k, &flatten(&k));
        assert!(matches!(eng.uops[..], [UOp::LdGlobal { .. }, UOp::Trap(0)]), "{:?}", eng.uops);
        assert_eq!(eng.traps, [SimError::OutOfBounds { space: "dreg", addr: 65535, limit: 8 }]);
        differential(&k, &[&input, &[]], 32, 0);
    }

    #[test]
    fn lowering_work_is_linear_in_the_stream() {
        // One constant loaded into a register once, then N rounds of
        // reg×reg `Mul` by it, `Exp` and `Mov`: every Mul's operand was
        // last written at the very start of the stream, the shape a pass
        // that scans back for a writer goes quadratic on (16× the work for
        // 4× the stream). With every question answered from the chunk
        // table, 4× the stream must cost well under 8× the table lookups.
        //
        // The rounds sit in a point loop of `trips` trips. One trip is the
        // straight-line stream; eight are the same body rolled, which must
        // cost about what one does — within 2× — not eight times it.
        //
        // The work is counted, not timed: a deterministic bound holds on a
        // loaded host where a wall clock does not.
        let lower_work = |rounds: usize, trips: u32| {
            let mut k = base_kernel(1);
            k.name = format!("eng-t-scale-{rounds}-{trips}");
            k.points_per_cta = trips as usize * WARP_SIZE;
            let mut body = vec![ld(1, 0)];
            for _ in 0..rounds {
                let (a, b) = (Op::Reg(0), Op::Reg(1));
                body.push(Node::Op(Instr::Bin { op: BinOp::Mul, dst: 2, a, b }));
                body.push(Node::Op(Instr::Un { op: UnOp::Exp, dst: 3, a: Op::Reg(2) }));
                body.push(Node::Op(Instr::mov(1, Op::Reg(3))));
            }
            body.push(st(1));
            k.body = vec![
                Node::Op(Instr::LdConst { dst: 0, bank: 0, idx: IdxOp::Imm(1) }),
                Node::PointLoop { iters: trips, body },
            ];
            let eng = lower(&k, &flatten(&k));
            assert_eq!(eng.stats().exp_ops, u64::from(trips) * rounds as u64);
            assert_eq!(eng.shape().rolled_runs, u32::from(trips > 1));
            eng.work
        };
        let (small, large) = (lower_work(8_000, 1), lower_work(32_000, 1));
        assert!(small > 8_000, "{small} lookups for 8 000 rounds");
        assert!(
            large < 8 * small,
            "lowering 4x the stream took {:.1}x the lookups ({small} -> {large})",
            large as f64 / small as f64
        );
        let rolled = lower_work(32_000, 8);
        assert!(
            rolled < 2 * large,
            "lowering 8 trips of a rollable body took {:.1}x one trip's lookups ({large} -> {rolled})",
            rolled as f64 / large as f64
        );
    }
}
