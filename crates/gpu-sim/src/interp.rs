//! Functional interpreter for the kernel IR.
//!
//! A CTA executes as a set of warps in a cooperative round-robin: each warp
//! runs until it finishes or blocks on a named-barrier `sync`; a full round
//! with no progress is a deadlock. That schedule, the barrier protocol and
//! the CTA's memory are `crate::cta`'s, shared with the engine and the
//! model; the interpreter is the stepper that runs a warp an instruction at
//! a time (`step_warp`), evaluating index arithmetic and addresses through
//! [`crate::isa`] as it goes, with a profiler hook at every instruction
//! (the reference the engine's per-segment attribution is held to). All
//! 32 lanes of a warp execute each instruction in lock step.
//!
//! While executing, the interpreter gathers the event counts the timing
//! model consumes: issue slots, shared-memory transactions with bank
//! conflicts, global coalescing, constant-cache and instruction-cache
//! behavior, and barrier stalls.
//!
//! What executes is a [`FlatProgram`]: [`flatten`] resolves the kernel's
//! structured body (warp branches taken or not, loops kept) into the
//! instruction stream of each **warp class** — the warps whose streams are
//! equal. Warp specialization is what makes warps differ; the paper's
//! data-parallel baseline is one class however many warps it launches.
//!
//! A class's stream is stored **rolled**: its ops once per static
//! instruction (arena index and fetch address, 8 bytes), and a short list of
//! *runs* — an op range, a trip count, the first trip's point set and the
//! point-set step. A loop whose body is straight-line for the class is one
//! run of `trips` trips; a loop around anything else repeats its body's runs
//! over the same op ranges. The expanded stream — what the warp executes —
//! is the runs in order, each run's ops once per trip; the sync substream
//! and the fetch-address stream are the same runs over a filtered and a
//! parallel column. Runs are canonical (no empty run, adjacent single-trip
//! runs over contiguous ops at one point set merged), so two classes have
//! equal streams exactly when their ops and runs are equal. The
//! interpreter, the profiler and the model walk a run's trip as one slice,
//! and so does the verifier, through the read-only [`SyncRun`] view. The
//! warp id itself enters execution only where an instruction asks for it
//! (`IdxInstr::WarpId`, `PointRef::Thread`).
//!
//! A static instruction is stored once, in the form that executes it: a
//! `DecodedInstr` of at most 20 bytes, whose register operands are chunk
//! bases (`Src`) and whose immediates are chunks of the program's
//! read-only constant tail. Only the slow and barrier ops — memory,
//! constant, index, async copy, named barriers — execute from their
//! [`Instr`], so only they keep one, in a sparse table their decoded form
//! indexes; that is every op the verifier's [`SyncRun`] hands out.

pub use crate::cta::CtaResult;
use crate::cta::{self, CtaMem, Points, Schedule};
use crate::counts::EventCounts;
use crate::error::{SimError, SimResult};
use crate::icache::FetchStream;
use crate::isa::*;
use crate::lanes::{self, Lanes};
use crate::profile::Profiler;
use crate::WARP_SIZE;

/// One stored op of a class's stream: the arena index of the instruction to
/// execute, or a warp-ID branch header (WarpIf / WarpSwitch — one issue slot
/// and one fetch). The point set is a property of the trip that executes the
/// op ([`Run::pset`]) and the fetch address sits in a parallel column, so a
/// stored op is this word plus its address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlatOp(u32);

impl FlatOp {
    const BRANCH: FlatOp = FlatOp(u32::MAX);

    /// The arena index to execute, or `None` for a branch header.
    #[inline]
    pub(crate) fn instr(self) -> Option<usize> {
        (self != FlatOp::BRANCH).then_some(self.0 as usize)
    }
}

/// A maximal repetition in a class's stream: the stored ops `ops`, executed
/// `trips` times in a row, trip `t` at point set `pset + t * pset_step`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Run {
    /// One trip's ops: a range into the class's op and address columns.
    ops: std::ops::Range<u32>,
    /// One trip's sync-relevant ops: a range into the class's sync column.
    sync: std::ops::Range<u32>,
    /// Times the range executes back to back; at least 1.
    pub(crate) trips: u32,
    /// Point set of trip 0.
    pset: u32,
    /// Point sets advanced per trip: 1 for a point loop's own trips, 0 for
    /// a plain loop's (and for a single trip).
    pub(crate) pset_step: u32,
}

impl Run {
    /// The point set trip `trip` executes at.
    #[inline]
    pub(crate) fn pset(&self, trip: u32) -> u32 {
        self.pset + trip * self.pset_step
    }

    fn range(&self) -> std::ops::Range<usize> {
        self.ops.start as usize..self.ops.end as usize
    }
}

/// A reader's place in a rolled stream: the run, the trip of it, and the
/// next op of the trip.
#[derive(Debug, Default)]
struct Cursor {
    run: usize,
    trip: u32,
    op: usize,
}

impl Cursor {
    /// The current trip of `run` — the run the cursor is in — is read: on
    /// to its next trip, or to the next run after its last.
    fn end_trip(&mut self, run: &Run) {
        self.op = 0;
        self.trip += 1;
        if self.trip == run.trips {
            self.trip = 0;
            self.run += 1;
        }
    }
}

/// One warp class's rolled stream.
#[derive(Debug, Default, PartialEq, Eq)]
struct ClassStream {
    /// The ops the class executes, once per static instruction, in address
    /// order.
    ops: Vec<FlatOp>,
    /// Static fetch address of each op, parallel to `ops` (the icache
    /// model's input).
    addrs: Vec<u32>,
    /// Positions in `ops` of the synchronization-relevant ops (index ISA,
    /// shared accesses, async copies, named barriers), ascending.
    sync: Vec<u32>,
    /// The stream: these runs in order. Canonical — see [`push_span`].
    runs: Vec<Run>,
    /// Expanded stream length: Σ run length × trips.
    len: usize,
}

impl ClassStream {
    /// The run holding expanded position `pos`, with the trip and the
    /// offset into it.
    #[cfg(test)]
    fn locate(&self, mut pos: usize) -> (&Run, u32, usize) {
        for run in &self.runs {
            let trip_len = run.ops.len();
            if pos < trip_len * run.trips as usize {
                return (run, (pos / trip_len) as u32, pos % trip_len);
            }
            pos -= trip_len * run.trips as usize;
        }
        unreachable!("a position inside the stream")
    }
}

/// Trips after which `instrs` — one trip of a run whose point set advances
/// by `pset_step` a trip — resolve as they did: the lcm of their stage
/// periods ([`Instr::stage_period`]), so a K-stage ring rotates inside one
/// period. Saturates.
pub(crate) fn period_of<'i>(instrs: impl Iterator<Item = &'i Instr>, pset_step: u32) -> u32 {
    if pset_step == 0 {
        return 1;
    }
    let gcd = |mut a: u64, mut b: u64| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let period = instrs.fold(1u64, |p, i| {
        let k = u64::from(i.stage_period());
        (p / gcd(p, k) * k).min(u64::from(u32::MAX))
    });
    period as u32
}

/// A pre-resolved double-precision operand: the base of a 32-lane chunk.
/// Below the register file's length (`dregs_per_thread * WARP_SIZE`) it is
/// a register's lanes (`reg * WARP_SIZE`); at or past it, a chunk of the
/// read-only constant tail ([`ConstTail`]), an immediate splat across the
/// lanes. No operand holds an `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Src(pub(crate) u32);

impl Src {
    /// The chunk's first element, in the register file or past it.
    #[inline]
    pub(crate) fn base(self) -> usize {
        self.0 as usize
    }
}

/// The base of double register `r`'s lanes in a file of `nd` registers, or
/// the typed fault for a register past it: how a slow op's registers are
/// checked where it executes, by the interpreter and by lowering alike (a
/// fast op's are checked at decode).
pub(crate) fn dreg_base(r: Reg, nd: usize) -> SimResult<u32> {
    if usize::from(r) < nd {
        Ok(u32::from(r) * WARP_SIZE as u32)
    } else {
        // A register past the file makes the file narrower than a `u16`.
        Err(Space::Dreg.fault(u32::from(r), nd as u32))
    }
}

/// A read-only constant tail under construction: each distinct immediate,
/// by bit pattern, once, as a 32-lane splat chunk addressed past a register
/// file of `file` lanes. Flatten builds the one the decoded fast ops read;
/// lowering starts from a copy of it, so a decoded operand means the same
/// chunk in a micro-op.
pub(crate) struct ConstTail {
    file: usize,
    vals: Vec<f64>,
    chunks: crate::engine::WordMap<u64, u32>,
}

impl ConstTail {
    /// A tail past `file` register lanes, holding `vals` (distinct splat
    /// chunks) to begin with.
    pub(crate) fn new(file: usize, vals: Vec<f64>) -> ConstTail {
        let chunks =
            vals.chunks_exact(WARP_SIZE).zip(0..).map(|(c, i)| (c[0].to_bits(), i)).collect();
        ConstTail { file, vals, chunks }
    }

    /// The operand reading `v` in every lane.
    pub(crate) fn intern(&mut self, v: f64) -> Src {
        let next = (self.vals.len() / WARP_SIZE) as u32;
        let chunk = *self.chunks.entry(v.to_bits()).or_insert(next);
        if chunk == next {
            self.vals.extend(std::iter::repeat_n(v, WARP_SIZE));
        }
        Src(u32::try_from(self.file + chunk as usize * WARP_SIZE).expect("operand bases fit u32"))
    }

    /// The chunks, in the order they were interned.
    pub(crate) fn into_vals(self) -> Vec<f64> {
        self.vals
    }
}

/// The address space an [`DecodedInstr::Invalid`] faults in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Space {
    /// A double register.
    Dreg,
    /// A local (spill) slot.
    Local,
}

impl Space {
    /// The typed error for `addr` past `limit` in this space.
    pub(crate) fn fault(self, addr: u32, limit: u32) -> SimError {
        let space = match self {
            Space::Dreg => "dreg",
            Space::Local => "local",
        };
        SimError::OutOfBounds { space, addr: addr as usize, limit: limit as usize }
    }
}

/// An instruction pre-decoded at `flatten()` time: registers resolved to
/// chunk bases and range-checked, immediates interned in the constant tail
/// — so the dynamic execute loop neither re-matches the full [`Instr`] enum
/// nor re-derives static properties per executed op. This is the one
/// stored form of a static instruction; a slow or barrier op's is the index
/// of its [`Instr`] in [`FlatProgram::instrs`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum DecodedInstr {
    /// `dst[l] = a[l] <op> b[l]`.
    Bin { kind: BinOp, dst: u32, a: Src, b: Src },
    /// `dst[l] = <op>(a[l])`.
    Un { kind: UnOp, dst: u32, a: Src },
    /// `dst[l] = fma(a[l], b[l], c[l])`.
    Fma { dst: u32, a: Src, b: Src, c: Src },
    /// Branch-free select.
    Sel { dst: u32, pred: u32, a: Src, b: Src },
    /// Compare producing 0.0/1.0.
    CmpOp { dst: u32, cmp: Cmp, a: Src, b: Src },
    /// Broadcast element `src + lane` — a lane past 31 reads on into the
    /// registers after `src`, as the lanes are laid out.
    Shfl { dst: u32, src: u32, lane: u32 },
    /// Local (spill) load from a pre-validated slot.
    LdLocal { dst: u32, slot: u32 },
    /// Local (spill) store to a pre-validated slot.
    StLocal { src: Src, slot: u32 },
    /// A named-barrier operation, plain or stage-rotated: the schedule's
    /// ([`Instr::barrier_op`] of this [`FlatProgram::instrs`] entry says
    /// which, at the executing point set).
    Barrier(u32),
    /// A register/slot id is out of range. The error is deferred to
    /// execution time so flatten stays infallible (streams that never run
    /// may legally carry such code, exactly as before pre-decoding).
    Invalid { space: Space, addr: u32, limit: u32 },
    /// Memory/constant/index op: executes from this
    /// [`FlatProgram::instrs`] entry.
    Slow(u32),
}

const _: () = assert!(std::mem::size_of::<DecodedInstr>() <= 20);

/// Static per-instruction costs, precomputed once at `flatten()` time so
/// event collection stops re-deriving them per executed op. Eight bytes a
/// static instruction: the ISA's cost tables top out at 24 slots and
/// 48 x 32 FLOPs, and the accumulators widen through the accessors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpCost {
    slots: u16,
    flops_warp: u16,
    const_slots: u16,
    /// Issues on the double-precision pipe.
    pub(crate) dp: bool,
}

impl OpCost {
    fn of(i: &Instr, exp_const_from_registers: bool) -> OpCost {
        let narrow = |v: usize| u16::try_from(v).expect("the ISA's static costs fit u16");
        OpCost {
            slots: narrow(i.issue_slots()),
            flops_warp: narrow(i.flops() * WARP_SIZE),
            const_slots: narrow(i.const_operand_slots(exp_const_from_registers)),
            dp: i.is_dp(),
        }
    }

    /// Issue slots (warp-instructions).
    pub(crate) fn slots(self) -> u64 {
        u64::from(self.slots)
    }

    /// DP FLOPs per warp (per-lane flops * WARP_SIZE).
    pub(crate) fn flops_warp(self) -> u64 {
        u64::from(self.flops_warp)
    }

    /// DP slots reading the constant cache (respects the §6.1 ablation).
    pub(crate) fn const_slots(self) -> u64 {
        u64::from(self.const_slots)
    }
}

/// Pre-decode one instruction against the kernel's static limits. A slow or
/// barrier op is kept as it is, in the sparse table `instrs`, where its
/// executor checks its registers. A fast op has every register it names
/// range-checked here — the destination, then the sources in operand order
/// ([`Instr::visit_regs`]), a shuffle's source by the element it reads —
/// and then its local slot; its immediates are interned in `tail`.
/// Exhaustive on purpose: a new op must pick its executor here.
#[deny(clippy::wildcard_enum_match_arm)]
fn decode(
    ins: &Instr,
    kernel: &Kernel,
    tail: &mut ConstTail,
    instrs: &mut Vec<Instr>,
) -> DecodedInstr {
    let mut keep = || {
        instrs.push(ins.clone());
        (instrs.len() - 1) as u32
    };
    match ins {
        Instr::BarArrive { .. }
        | Instr::BarSync { .. }
        | Instr::BarArriveStage { .. }
        | Instr::BarSyncStage { .. } => return DecodedInstr::Barrier(keep()),
        Instr::LdGlobal { .. }
        | Instr::StGlobal { .. }
        | Instr::LdShared { .. }
        | Instr::StShared { .. }
        | Instr::LdConst { .. }
        | Instr::Idx(_)
        | Instr::CpAsync { .. } => return DecodedInstr::Slow(keep()),
        Instr::Un { .. }
        | Instr::Bin { .. }
        | Instr::DFma { .. }
        | Instr::DSel { .. }
        | Instr::DCmp { .. }
        | Instr::Shfl { .. }
        | Instr::LdLocal { .. }
        | Instr::StLocal { .. } => {}
    }
    let nd = kernel.dregs_per_thread;
    let mut fault = None;
    ins.visit_regs(|r, _| {
        if fault.is_none() && usize::from(r) >= nd {
            fault = Some(r);
        }
    });
    if let Instr::Shfl { src, lane, .. } = ins {
        if usize::from(*src) + usize::from(*lane) / WARP_SIZE >= nd {
            fault = fault.or(Some(*src));
        }
    }
    if let Some(r) = fault {
        // A register past the file makes the file narrower than a `u16`.
        return DecodedInstr::Invalid { space: Space::Dreg, addr: r.into(), limit: nd as u32 };
    }
    let lw = kernel.local_words_per_thread;
    let local = |slot: u32| {
        if (slot as usize) < lw {
            Ok(slot.checked_mul(WARP_SIZE as u32).expect("a local file under 2^27 slots"))
        } else {
            // A slot past the file makes the file narrower than a `u32`.
            Err(DecodedInstr::Invalid { space: Space::Local, addr: slot, limit: lw as u32 })
        }
    };
    let reg = |r: &Reg| u32::from(*r) * WARP_SIZE as u32;
    let mut src = |o: &Op| match *o {
        Op::Reg(r) => Src(reg(&r)),
        Op::Imm(v) => tail.intern(v),
    };
    match ins {
        Instr::Un { op, dst, a } => DecodedInstr::Un { kind: *op, dst: reg(dst), a: src(a) },
        Instr::Bin { op, dst, a, b } => {
            DecodedInstr::Bin { kind: *op, dst: reg(dst), a: src(a), b: src(b) }
        }
        Instr::DFma { dst, a, b, c, .. } => {
            DecodedInstr::Fma { dst: reg(dst), a: src(a), b: src(b), c: src(c) }
        }
        Instr::DSel { dst, pred, a, b } => {
            DecodedInstr::Sel { dst: reg(dst), pred: reg(pred), a: src(a), b: src(b) }
        }
        Instr::DCmp { dst, cmp, a, b } => {
            DecodedInstr::CmpOp { dst: reg(dst), cmp: *cmp, a: src(a), b: src(b) }
        }
        Instr::Shfl { dst, src: s, lane } => {
            DecodedInstr::Shfl { dst: reg(dst), src: reg(s), lane: u32::from(*lane) }
        }
        Instr::LdLocal { dst, slot } => match local(*slot) {
            Ok(slot) => DecodedInstr::LdLocal { dst: reg(dst), slot },
            Err(invalid) => invalid,
        },
        Instr::StLocal { src: s, slot } => match local(*slot) {
            Ok(slot) => DecodedInstr::StLocal { src: src(s), slot },
            Err(invalid) => invalid,
        },
        Instr::BarArrive { .. }
        | Instr::BarSync { .. }
        | Instr::BarArriveStage { .. }
        | Instr::BarSyncStage { .. }
        | Instr::LdGlobal { .. }
        | Instr::StGlobal { .. }
        | Instr::LdShared { .. }
        | Instr::StShared { .. }
        | Instr::LdConst { .. }
        | Instr::Idx(_)
        | Instr::CpAsync { .. } => unreachable!("kept in the sparse table above"),
    }
}

/// A kernel's flattened program: the exact instruction sequence each warp
/// executes, with static addresses shared across warps (overlaid code keeps
/// the streams on common addresses; naïve switches give them disjoint
/// ranges).
///
/// Streams are stored once per **warp class** — a maximal set of warps
/// whose flattened streams are equal ([`FlatProgram::class_of`]) — and
/// within a class once per **loop**: ops per static instruction, plus the
/// runs that say how often and at which point sets they execute (see the
/// module docs). Every warp of a data-parallel kernel runs the same code,
/// so such a kernel has one class however many warps it launches; a fully
/// warp-specialized kernel has one class per warp. Consumers keep their
/// per-warp, expanded view through the accessors.
#[derive(Debug)]
pub struct FlatProgram {
    /// Warp → class. Classes are numbered by their lowest warp, ascending.
    class_of: Vec<u32>,
    /// One rolled stream per class.
    classes: Vec<ClassStream>,
    /// Each static instruction's one stored form, by arena index (the
    /// index a [`FlatOp`] holds).
    pub(crate) decoded: Vec<DecodedInstr>,
    /// Precomputed static costs, parallel to `decoded`.
    pub(crate) costs: Vec<OpCost>,
    /// The slow and barrier instructions, which execute from this form:
    /// what [`DecodedInstr::Slow`] and [`DecodedInstr::Barrier`] index.
    pub(crate) instrs: Vec<Instr>,
    /// The constant tail the decoded operands address past the register
    /// file: each distinct immediate of a fast op once, splat over 32 lanes.
    pub(crate) tail: Vec<f64>,
    /// Total static instructions (address space size).
    pub static_size: u32,
    /// [`crate::flatcache::fingerprint`] of the kernel this was flattened
    /// from, when the flattener was told it ([`flatten`] does not hash).
    pub(crate) fingerprint: Option<(u64, u64)>,
    /// Lazily-lowered segment-engine program for this exact flattening.
    /// Riding on the `FlatProgram` (instead of a separate fingerprint-keyed
    /// memo) ties the lowered artifact's lifetime to its flattening and
    /// keeps kernel re-hashing out of `run_cta`, which is called once per
    /// CTA per launch.
    pub(crate) engine: std::sync::OnceLock<std::sync::Arc<crate::engine::EngineProgram>>,
}

/// One step of a warp's expanded stream, as the tests' per-trip oracle
/// spells it out.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct FlatStep {
    /// Static instruction address.
    addr: u32,
    /// Streaming point-set index (PointLoop iteration), 0 for branch
    /// headers and code outside any point loop.
    pset: u32,
    /// The instruction's arena index, or `None` for a warp-branch header.
    instr: Option<usize>,
}

/// One run of a warp's synchronization-relevant substream, exposed
/// read-only for the barrier-protocol verifier in the compiler crate: one
/// trip's ops, which the run executes [`SyncRun::trips`] times at
/// [`SyncRun::pset`]. The ops are exactly those a barrier-protocol or
/// shared-memory analysis must model (index ISA, shared accesses, async
/// copies, named barriers), in stream order with their static addresses;
/// everything skipped is arithmetic with no effect on index registers,
/// shared memory or barrier state.
#[derive(Debug, Clone, Copy)]
pub struct SyncRun<'a> {
    prog: &'a FlatProgram,
    class: &'a ClassStream,
    run: &'a Run,
}

impl<'a> SyncRun<'a> {
    /// Times the trip executes back to back; at least 1.
    pub fn trips(&self) -> u32 {
        self.run.trips
    }

    /// Synchronization-relevant ops in one trip.
    pub fn len(&self) -> usize {
        self.run.sync.len()
    }

    /// Whether a trip holds no synchronization-relevant op.
    pub fn is_empty(&self) -> bool {
        self.run.sync.is_empty()
    }

    /// The point set trip `trip` executes at (stage-rotated barriers and
    /// pipeline offsets resolve against it).
    pub fn pset(&self, trip: u32) -> u32 {
        self.run.pset(trip)
    }

    /// Trips after which the ops resolve as they did: trips `t` and
    /// `t + period()` execute the same instructions at point sets no stage
    /// ring tells apart.
    pub fn period(&self) -> u32 {
        period_of((0..self.len()).map(|off| self.step(off).1), self.run.pset_step)
    }

    /// Op `off` of a trip: its static address and its instruction.
    pub fn step(&self, off: usize) -> (u32, &'a Instr) {
        let at = self.class.sync[self.run.sync.start as usize + off] as usize;
        let instr = self.class.ops[at].instr().and_then(|i| self.prog.instr(i));
        (self.class.addrs[at], instr.expect("a sync op is a slow or barrier instruction"))
    }
}

/// One warp's fetch-address stream, read off the rolled form a slice at a
/// time: the instruction-cache model's input ([`FetchStream`]).
pub(crate) struct FetchWalk<'a> {
    class: &'a ClassStream,
    at: Cursor,
}

impl FetchStream for FetchWalk<'_> {
    fn next_addrs(&mut self, n: usize) -> &[u32] {
        let Some(run) = self.class.runs.get(self.at.run) else { return &[] };
        let trip = &self.class.addrs[run.range()];
        let rest = &trip[self.at.op..];
        let taken = &rest[..n.min(rest.len())];
        self.at.op += taken.len();
        if self.at.op == trip.len() {
            self.at.end_trip(run);
        }
        taken
    }

    fn is_done(&self) -> bool {
        self.at.run == self.class.runs.len()
    }
}

impl FlatProgram {
    /// The fingerprint of the kernel this program was flattened from, for
    /// a program out of [`crate::flatcache::flatten_cached`]: the key it is
    /// filed under there, and the key for any other per-kernel memo, with
    /// no second pass over the kernel. `None` for a bare [`flatten`], which
    /// never hashes.
    pub fn fingerprint(&self) -> Option<(u64, u64)> {
        self.fingerprint
    }

    /// Warps per CTA.
    pub fn n_warps(&self) -> usize {
        self.class_of.len()
    }

    /// Number of warp classes: distinct flattened streams among the warps.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// The class of `warp`. Two warps share a class exactly when their
    /// flattened streams are equal; classes are numbered in order of their
    /// lowest warp.
    pub fn class_of(&self, warp: usize) -> usize {
        self.class_of[warp] as usize
    }

    fn class(&self, warp: usize) -> &ClassStream {
        &self.classes[self.class_of(warp)]
    }

    /// One warp's stream (its class's) as its runs, in order.
    pub(crate) fn runs(&self, warp: usize) -> &[Run] {
        &self.class(warp).runs
    }

    /// The ops one trip of `run` — a run of `warp`'s — executes.
    #[inline]
    pub(crate) fn run_ops(&self, warp: usize, run: &Run) -> &[FlatOp] {
        &self.class(warp).ops[run.range()]
    }

    /// Every warp's static fetch address stream, in warp order — the
    /// instruction-cache model's input.
    pub(crate) fn fetch_streams(&self) -> Vec<FetchWalk<'_>> {
        (0..self.n_warps())
            .map(|w| FetchWalk { class: self.class(w), at: Cursor::default() })
            .collect()
    }

    /// Ops stored over all classes: one per static instruction a class
    /// executes, however many trips execute it. Σ [`FlatProgram::stream_len`]
    /// is what the warps execute; this is what the program keeps.
    pub fn stored_ops(&self) -> usize {
        self.classes.iter().map(|c| c.ops.len()).sum()
    }

    /// Length of one warp's stream.
    pub fn stream_len(&self, warp: usize) -> usize {
        self.class(warp).len
    }

    /// The [`Instr`] arena entry `i` executes from, if it is a slow or
    /// barrier op — the only ones that keep it.
    pub(crate) fn instr(&self, i: usize) -> Option<&Instr> {
        match self.decoded[i] {
            DecodedInstr::Slow(k) | DecodedInstr::Barrier(k) => Some(&self.instrs[k as usize]),
            _ => None,
        }
    }

    /// One step of a warp's expanded stream, its position resolved through
    /// the run table.
    #[cfg(test)]
    fn step(&self, warp: usize, pos: usize) -> FlatStep {
        let class = self.class(warp);
        assert!(pos < class.len, "stream position {pos} of {}", class.len);
        let (run, trip, off) = class.locate(pos);
        let at = run.ops.start as usize + off;
        let addr = class.addrs[at];
        match class.ops[at].instr() {
            Some(i) => FlatStep { addr, pset: run.pset(trip), instr: Some(i) },
            None => FlatStep { addr, pset: 0, instr: None },
        }
    }

    /// One warp's expanded stream, step by step.
    #[cfg(test)]
    fn warp_stream(&self, warp: usize) -> impl Iterator<Item = FlatStep> + '_ {
        (0..self.stream_len(warp)).map(move |i| self.step(warp, i))
    }

    /// One warp's synchronization-relevant substream, as its runs in order
    /// (a run whose trips hold no such op among them).
    pub fn sync_runs(&self, warp: usize) -> impl ExactSizeIterator<Item = SyncRun<'_>> + '_ {
        let class = self.class(warp);
        class.runs.iter().map(move |run| SyncRun { prog: self, class, run })
    }

    /// Heap bytes this program retains, from lengths times element sizes:
    /// the rolled streams (ops and addresses, the sync column and the runs,
    /// once per class), the class map, the static tables (the decoded form
    /// and cost of every static instruction, the sparse [`Instr`] table,
    /// the constant tail), and the lowered engine program once there is
    /// one. Deterministic — what a test can pin where resident-set size is
    /// only a reading.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let per_op = size_of::<FlatOp>() + size_of::<u32>();
        let sync_ops: usize = self.classes.iter().map(|c| c.sync.len()).sum();
        let runs: usize = self.classes.iter().map(|c| c.runs.len()).sum();
        let per_static = size_of::<DecodedInstr>() + size_of::<OpCost>();
        self.stored_ops() * per_op
            + sync_ops * size_of::<u32>()
            + runs * size_of::<Run>()
            + self.classes.len() * size_of::<ClassStream>()
            + self.class_of.len() * size_of::<u32>()
            + self.decoded.len() * per_static
            + self.instrs.len() * size_of::<Instr>()
            + self.tail.len() * size_of::<f64>()
            + self.engine.get().map_or(0, |e| e.heap_bytes())
    }
}

/// Flatten a kernel's structured body into its warp classes' streams.
pub fn flatten(kernel: &Kernel) -> FlatProgram {
    flatten_as(kernel, None)
}

/// [`flatten`], recording the fingerprint of `kernel` its caller holds.
///
/// Three steps. [`refine`] partitions the warps by the path they take:
/// the branch each takes at every `WarpIf`/`WarpSwitch` it reaches, read
/// off the static tree. [`roll`] then walks the tree once — every loop body
/// once, whatever its trip count — with one *class* per active slot, so
/// every stream is built once and its cost follows the number of classes
/// and the static code, not the warps or the trips.
/// Path equality is sufficient for stream equality but not necessary (an
/// empty-bodied branch leaves no trace in the stream), so last the classes
/// whose streams compare equal are merged: the partition is exactly stream
/// equality, because runs are canonical.
pub(crate) fn flatten_as(kernel: &Kernel, fingerprint: Option<(u64, u64)>) -> FlatProgram {
    let paths = refine(kernel);
    // One representative warp per path class, and the streams they walk.
    let mut reps: Vec<usize> = Vec::new();
    for (w, &c) in paths.iter().enumerate() {
        if c == reps.len() {
            reps.push(w);
        }
    }
    let (path_classes, arena, static_size) = roll(kernel, &reps);

    // Merge path classes with equal streams, renumbering in order of first
    // occurrence — which is still order of lowest warp.
    let mut classes: Vec<ClassStream> = Vec::new();
    let merged: Vec<u32> = path_classes
        .into_iter()
        .map(|c| {
            let at = classes.iter().position(|kept| *kept == c).unwrap_or_else(|| {
                classes.push(c);
                classes.len() - 1
            });
            at as u32
        })
        .collect();
    let class_of: Vec<u32> = paths.iter().map(|&c| merged[c]).collect();

    let mut tail = arena.tail.into_vals();
    tail.shrink_to_fit();
    FlatProgram {
        class_of,
        classes,
        decoded: arena.decoded,
        costs: arena.costs,
        instrs: arena.instrs,
        tail,
        static_size,
        fingerprint,
        engine: std::sync::OnceLock::new(),
    }
}

/// Partition the warps of `kernel` by the path they take through its body:
/// `result[w]` is warp `w`'s path class, numbered densely in order of
/// lowest warp. Two warps in one class take the same branch at every
/// `WarpIf`/`WarpSwitch` either reaches, so their streams are equal.
fn refine(kernel: &Kernel) -> Vec<usize> {
    /// Append warp `w`'s decision at each branch it reaches, in tree order.
    /// Loop bodies are walked once — what a warp does at a branch does not
    /// depend on the trip — and a body that never runs is not reached.
    fn decisions(nodes: &[Node], w: usize, out: &mut Vec<u32>) {
        for node in nodes {
            match node {
                Node::Op(_) => {}
                Node::WarpIf { mask, body } => {
                    out.push(u32::from(takes_if(*mask, w)));
                    if takes_if(*mask, w) {
                        decisions(body, w, out);
                    }
                }
                Node::WarpSwitch { case_of_warp, cases } => {
                    let case = case_of_warp.get(w).filter(|&&ci| ci < cases.len());
                    out.push(case.map_or(0, |&ci| ci as u32 + 1));
                    if let Some(&ci) = case {
                        decisions(&cases[ci], w, out);
                    }
                }
                Node::Loop { count: trips, body } | Node::PointLoop { iters: trips, body } => {
                    if *trips > 0 {
                        decisions(body, w, out);
                    }
                }
            }
        }
    }
    // Equal decision sequences are equal paths: by induction the next
    // branch either warp reaches is the same one.
    let mut paths: Vec<Vec<u32>> = Vec::new();
    (0..kernel.warps_per_cta)
        .map(|w| {
            let mut path = Vec::new();
            decisions(&kernel.body, w, &mut path);
            paths.iter().position(|p| *p == path).unwrap_or_else(|| {
                paths.push(path);
                paths.len() - 1
            })
        })
        .collect()
}

/// Whether `warp` enters a `WarpIf` with this mask.
fn takes_if(mask: u64, warp: usize) -> bool {
    mask & (1u64 << warp) != 0
}

/// Where a span's trips take their point set from, while the loops around
/// it are still open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pset {
    /// The trip of the innermost enclosing point loop, whichever that turns
    /// out to be (0 outside any).
    Enclosing,
    /// `first + trip * step` of the span's own trips.
    Own { first: u32, step: u32 },
}

/// A [`Run`] in the making: op and sync ranges, trips, and a point set that
/// may still depend on a loop that has not closed.
#[derive(Debug, Clone)]
struct Span {
    ops: std::ops::Range<u32>,
    sync: std::ops::Range<u32>,
    trips: u32,
    pset: Pset,
}

/// Append `span` to `spans`, keeping the list canonical: an empty span is
/// dropped, and a single-trip span that continues the single-trip span
/// before it — contiguous ops, one point set — extends it. Every span and
/// every run enters its list here, so what a list looks like depends only
/// on the tree and on which of its ops the class executes; that is what
/// makes equal streams equal runs.
fn push_span(spans: &mut Vec<Span>, mut span: Span) {
    if span.ops.is_empty() {
        return;
    }
    if span.trips == 1 {
        if let Pset::Own { step, .. } = &mut span.pset {
            *step = 0;
        }
        if let Some(last) = spans.last_mut() {
            if last.trips == 1 && last.ops.end == span.ops.start && last.pset == span.pset {
                last.ops.end = span.ops.end;
                last.sync.end = span.sync.end;
                return;
            }
        }
    }
    spans.push(span);
}

/// One class's stream while [`roll`] builds it: the stored columns, and the
/// spans of the innermost loop body being walked (of the kernel body, at
/// top level).
#[derive(Default)]
struct ClassBuilder {
    ops: Vec<FlatOp>,
    addrs: Vec<u32>,
    sync: Vec<u32>,
    spans: Vec<Span>,
}

impl ClassBuilder {
    fn push_op(&mut self, addr: u32, op: FlatOp, sync_relevant: bool) {
        let at = self.ops.len() as u32;
        let sync_at = self.sync.len() as u32;
        self.ops.push(op);
        self.addrs.push(addr);
        if sync_relevant {
            self.sync.push(at);
        }
        let span = Span {
            ops: at..at + 1,
            sync: sync_at..self.sync.len() as u32,
            trips: 1,
            pset: Pset::Enclosing,
        };
        push_span(&mut self.spans, span);
    }

    /// A loop of `trips` trips just walked its body into `self.spans`:
    /// fold those into `outer`, the spans of the body around the loop,
    /// which becomes current again. A body that is one single-trip span —
    /// straight-line for this class — is one span of `trips` trips; any
    /// other body is its spans `trips` times over the same op ranges. A
    /// point loop (`advances`) is what `Pset::Enclosing` meant in its body.
    fn close_loop(&mut self, outer: Vec<Span>, trips: u32, advances: bool) {
        let body = std::mem::replace(&mut self.spans, outer);
        if let [one] = body.as_slice() {
            if one.trips == 1 {
                let pset = match one.pset {
                    Pset::Enclosing if advances => Pset::Own { first: 0, step: 1 },
                    Pset::Enclosing => Pset::Enclosing,
                    Pset::Own { first, .. } => Pset::Own { first, step: 0 },
                };
                push_span(&mut self.spans, Span { trips, pset, ..one.clone() });
                return;
            }
        }
        for trip in 0..trips {
            for span in &body {
                let mut span = span.clone();
                if advances && span.pset == Pset::Enclosing {
                    span.pset = Pset::Own { first: trip, step: 0 };
                }
                push_span(&mut self.spans, span);
            }
        }
    }

    /// Close the kernel body: outside every point loop the point set is 0.
    fn finish(mut self) -> ClassStream {
        self.close_loop(Vec::new(), 1, true);
        let mut len = 0;
        let runs = self
            .spans
            .into_iter()
            .map(|s| {
                let Pset::Own { first, step } = s.pset else {
                    unreachable!("the kernel body closed as a point loop of one trip")
                };
                let run = Run { ops: s.ops, sync: s.sync, trips: s.trips, pset: first, pset_step: step };
                len += run.ops.len() * run.trips as usize;
                run
            })
            .collect();
        self.ops.shrink_to_fit();
        self.addrs.shrink_to_fit();
        self.sync.shrink_to_fit();
        ClassStream { ops: self.ops, addrs: self.addrs, sync: self.sync, runs, len }
    }
}

/// The static tables of a flattening, as [`roll`] builds them: per static
/// instruction (arena index, in tree order) its decoded form and its cost,
/// plus the sparse [`Instr`] table and the constant tail decoding fills.
struct Arena {
    decoded: Vec<DecodedInstr>,
    costs: Vec<OpCost>,
    instrs: Vec<Instr>,
    tail: ConstTail,
}

/// Walk `kernel`'s body into one rolled stream per representative warp in
/// `reps`, returning the streams, the static tables and the static size. A
/// representative stands for every warp that takes its path ([`refine`]).
///
/// Addresses are assigned in tree order, so every class sees the same
/// address for the same instruction, and each loop body is walked exactly
/// once: its ops are stored once and its trips become runs
/// ([`ClassBuilder::close_loop`]). Each instruction is decoded as the walk
/// reaches it, once.
fn roll(kernel: &Kernel, reps: &[usize]) -> (Vec<ClassStream>, Arena, u32) {
    struct Walk<'a> {
        kernel: &'a Kernel,
        reps: &'a [usize],
        counter: u32,
        arena: Arena,
        classes: Vec<ClassBuilder>,
    }

    impl Walk<'_> {
        /// Take the next static address; the classes in `active` execute
        /// `op` there.
        fn emit(&mut self, active: &[usize], op: FlatOp, sync_relevant: bool) {
            let addr = self.counter;
            self.counter += 1;
            for &slot in active {
                self.classes[slot].push_op(addr, op, sync_relevant);
            }
        }

        /// `active` holds the class slots whose representative is on the
        /// path being walked.
        fn walk(&mut self, nodes: &[Node], active: &[usize]) {
            for node in nodes {
                match node {
                    Node::Op(i) => {
                        let a = &mut self.arena;
                        let idx = a.decoded.len() as u32;
                        a.decoded.push(decode(i, self.kernel, &mut a.tail, &mut a.instrs));
                        a.costs.push(OpCost::of(i, self.kernel.exp_const_from_registers));
                        self.emit(active, FlatOp(idx), i.is_sync_relevant());
                    }
                    Node::WarpIf { mask, body } => {
                        self.emit(active, FlatOp::BRANCH, false);
                        let taken: Vec<usize> = active
                            .iter()
                            .copied()
                            .filter(|&s| takes_if(*mask, self.reps[s]))
                            .collect();
                        self.walk(body, &taken);
                    }
                    Node::WarpSwitch { case_of_warp, cases } => {
                        self.emit(active, FlatOp::BRANCH, false);
                        for (ci, case) in cases.iter().enumerate() {
                            let taken: Vec<usize> = active
                                .iter()
                                .copied()
                                .filter(|&s| case_of_warp.get(self.reps[s]) == Some(&ci))
                                .collect();
                            self.walk(case, &taken);
                        }
                    }
                    // A loop that never runs: a plain loop still reserves
                    // its body's addresses, a point loop does not.
                    Node::Loop { count: 0, body } => self.walk(body, &[]),
                    Node::PointLoop { iters: 0, .. } => {}
                    Node::Loop { count: trips, body } | Node::PointLoop { iters: trips, body } => {
                        let outer: Vec<Vec<Span>> = active
                            .iter()
                            .map(|&s| std::mem::take(&mut self.classes[s].spans))
                            .collect();
                        self.walk(body, active);
                        let advances = matches!(node, Node::PointLoop { .. });
                        for (&s, outer) in active.iter().zip(outer) {
                            self.classes[s].close_loop(outer, *trips, advances);
                        }
                    }
                }
            }
        }
    }

    let mut w = Walk {
        kernel,
        reps,
        counter: 0,
        arena: Arena {
            decoded: Vec::new(),
            costs: Vec::new(),
            instrs: Vec::new(),
            tail: ConstTail::new(kernel.dregs_per_thread * WARP_SIZE, Vec::new()),
        },
        classes: reps.iter().map(|_| ClassBuilder::default()).collect(),
    };
    let all: Vec<usize> = (0..reps.len()).collect();
    w.walk(&kernel.body, &all);
    let mut arena = w.arena;
    arena.decoded.shrink_to_fit();
    arena.costs.shrink_to_fit();
    arena.instrs.shrink_to_fit();
    (w.classes.into_iter().map(ClassBuilder::finish).collect(), arena, w.counter)
}

/// Per-warp execution state.
struct WarpState {
    dregs: Vec<f64>,
    iregs: Vec<u32>,
    local: Vec<f64>,
    /// Where in its stream the warp is.
    at: Cursor,
}

/// Execute one CTA.
///
/// `inputs` is parallel to `kernel.global_arrays`: full `rows * total_points`
/// slices for input arrays (may be empty for pure outputs). `cta` selects
/// the point range `[cta * points_per_cta, ...)`. When `collect` is true,
/// event counts (including cache simulations) are gathered.
///
/// This is a thin dispatcher onto the segment-compiled engine
/// (`crate::engine`), which is differential-tested bit-identical against
/// the interpreter ([`run_cta_profiled`]). A profiled launch
/// ([`crate::launch::LaunchConfig::profile`]) runs on the engine too: a
/// warp's cycle clock is read only at segment boundaries, so charging a
/// segment's cycles at once gives the interpreter's attribution exactly.
pub fn run_cta(
    kernel: &Kernel,
    prog: &FlatProgram,
    inputs: &[&[f64]],
    total_points: usize,
    cta: usize,
    collect: bool,
    arch: &crate::arch::GpuArch,
) -> SimResult<CtaResult> {
    let eng = crate::flatcache::engine_cached(kernel, prog);
    crate::engine::run_cta_engine(kernel, &eng, prog, inputs, total_points, cta, collect, arch, None)
}

/// [`run_cta`] semantics with an optional cycle-attribution profiler
/// attached (see [`crate::profile`]). Passing a profiler forces event
/// collection (attribution needs the cache simulations). Unlike
/// [`run_cta`], this always runs the per-instruction interpreter, which
/// charges the profiler an instruction at a time: it is the engine's
/// differential reference, for outputs, `EventCounts` and errors with
/// `None`, and for the profile with `Some`. No shipped path profiles here;
/// the engine charges the same cycles a segment at a time. The CTA itself
/// — the barrier protocol, the round-robin, the memory — is
/// `crate::cta`'s, shared with the engine; this stepper is `step_warp`.
#[allow(clippy::too_many_arguments)]
pub fn run_cta_profiled(
    kernel: &Kernel,
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
    let bank_base = cta::const_bank_bases(kernel);
    let mut warps: Vec<WarpState> = (0..kernel.warps_per_cta)
        .map(|_| WarpState {
            dregs: vec![0.0; kernel.dregs_per_thread * WARP_SIZE],
            iregs: vec![0; kernel.iregs_per_thread * WARP_SIZE],
            local: vec![0.0; kernel.local_words_per_thread * WARP_SIZE],
            at: Cursor::default(),
        })
        .collect();
    sched.run(cta, |sched, w| {
        step_warp(kernel, prog, w, &mut warps[w], &mut mem, sched, &bank_base)
    })?;
    Ok(mem.finish(sched, prog, arch))
}

/// The interpreter's stepper: run warp `w` an instruction at a time until
/// it blocks on a barrier or finishes. Returns whether any instruction
/// executed.
fn step_warp(
    kernel: &Kernel,
    prog: &FlatProgram,
    w: usize,
    warp: &mut WarpState,
    mem: &mut CtaMem<'_>,
    sched: &mut Schedule<'_>,
    bank_base: &[u64],
) -> SimResult<bool> {
    let runs = prog.runs(w);
    let collect = mem.collect;
    let mut ran = false;
    // One trip at a time: its ops as a slice and its point set, fetched
    // once, then a plain walk from where the warp last stopped.
    loop {
        let Some(run) = runs.get(warp.at.run) else {
            sched.finish(w);
            return Ok(ran);
        };
        let ops = prog.run_ops(w, run);
        let pset = run.pset(warp.at.trip);
        while let Some(op) = ops.get(warp.at.op) {
            warp.at.op += 1;
            ran = true;
            let Some(i) = op.instr() else {
                if collect {
                    mem.counts.issue_slots += 1;
                    mem.counts.warp_branches += 1;
                    if let Some(p) = sched.profiler.as_deref_mut() {
                        p.on_overhead(w, 1);
                    }
                }
                continue;
            };
            let dec = prog.decoded[i];
            if collect {
                let cost = prog.costs[i];
                mem.counts.issue_slots += cost.slots();
                if cost.dp {
                    mem.counts.dp_slots += cost.slots();
                    mem.counts.flops += cost.flops_warp();
                    mem.counts.dp_const_slots += cost.const_slots();
                }
                if !matches!(dec, DecodedInstr::Barrier(_)) {
                    // Barrier instructions are charged by the profiler
                    // as overhead (with the architectural sync cost),
                    // not as plain issue.
                    if let Some(p) = sched.profiler.as_deref_mut() {
                        p.on_issue(w, cost.slots());
                    }
                }
            }
            match dec {
                DecodedInstr::Barrier(k) => {
                    let op = prog.instrs[k as usize].barrier_op(pset).expect("decoded as a barrier");
                    if collect && op.sync {
                        mem.counts.barrier_syncs += 1;
                    } else if collect {
                        mem.counts.barrier_arrives += 1;
                    }
                    if sched.barrier(w, op)? {
                        return Ok(ran);
                    }
                }
                DecodedInstr::Slow(k) => {
                    let ins = &prog.instrs[k as usize];
                    let profiler = sched.profiler.as_deref_mut();
                    exec_slow(kernel, ins, pset, w, warp, mem, bank_base, profiler)?;
                }
                dec => {
                    let (dregs, local) = (&mut warp.dregs, &mut warp.local);
                    exec_fast(dec, dregs, &prog.tail, local, collect, &mut mem.counts)?;
                }
            }
        }
        warp.at.end_trip(run);
    }
}

/// Snapshot an operand's 32 lane values from the contiguous register file.
/// Copying first makes destination aliasing trivially safe while keeping
/// the arithmetic loops over plain contiguous slices. The hot paths use
/// [`operand`] instead, which borrows the chunk without copying when it
/// provably cannot alias the destination.
#[inline]
pub(crate) fn src_vals(dregs: &[f64], tail: &[f64], s: Src) -> [f64; WARP_SIZE] {
    let base = s.base();
    let chunk = match base.checked_sub(dregs.len()) {
        None => &dregs[base..base + WARP_SIZE],
        Some(t) => &tail[t..t + WARP_SIZE],
    };
    chunk.try_into().expect("one chunk of lanes")
}

/// Resolve one operand for a lane kernel: register operands whose range
/// intersects either excluded destination range are snapshotted, and
/// everything else is handed out as a zero-copy borrow — of the live
/// register file, or for a base at or past `len` of the read-only constant
/// tail of splat immediates (`tail`), which no destination can alias.
///
/// # Safety
///
/// `ptr` must point at a live `[f64; len]` register file with no other
/// active references. While the returned [`lanes::OpLanes::Ref`] is alive
/// the caller may create mutable chunk views only at the excluded
/// destinations (`excl`), which are guaranteed disjoint from it.
#[inline(always)]
pub(crate) unsafe fn operand<'a>(
    ptr: *const f64,
    len: usize,
    tail: &'a [f64],
    s: Src,
    excl: [usize; 2],
) -> lanes::OpLanes<'a> {
    let base = s.base();
    if base >= len {
        let t = base - len;
        let chunk: &'a [f64] = &tail[t..t + WARP_SIZE];
        return lanes::OpLanes::Ref(chunk.try_into().expect("tail chunk"));
    }
    assert!(base + WARP_SIZE <= len, "dreg operand chunk out of range");
    let r: &'a Lanes = &*(ptr.add(base) as *const Lanes);
    let hits = |d: usize| base < d + WARP_SIZE && d < base + WARP_SIZE;
    if hits(excl[0]) || hits(excl[1]) {
        lanes::OpLanes::Own(*r)
    } else {
        lanes::OpLanes::Ref(r)
    }
}

/// Mutable view of one destination register chunk.
///
/// # Safety
///
/// `ptr` must point at a live `[f64; len]` register file; the caller must
/// ensure no other live reference overlaps the `dst` chunk (operands from
/// [`operand`] with `dst` excluded satisfy this).
#[inline(always)]
pub(crate) unsafe fn out_chunk<'a>(ptr: *mut f64, len: usize, dst: usize) -> &'a mut Lanes {
    assert!(dst + WARP_SIZE <= len, "dreg destination chunk out of range");
    &mut *(ptr.add(dst) as *mut Lanes)
}

/// Execute a pre-decoded register-only instruction over the fixed-size
/// lane-chunk kernels in [`crate::lanes`]: exact 32-lane trip counts, no
/// per-lane bounds checks, zero-copy operands when they cannot alias the
/// destination, and runtime-dispatched AVX2+FMA bodies for the IEEE-exact
/// operations. Takes the register/local lanes directly so the
/// segment-compiled engine shares this exact code path (identical
/// floating-point behavior by construction). Inlined into both dispatch
/// loops so the decoded form never round-trips through memory.
#[inline(always)]
pub(crate) fn exec_fast(
    dec: DecodedInstr,
    dregs: &mut [f64],
    tail: &[f64],
    local: &mut [f64],
    collect: bool,
    counts: &mut EventCounts,
) -> SimResult<()> {
    let len = dregs.len();
    let ptr = dregs.as_mut_ptr();
    // SAFETY (all blocks below): register chunks are WARP_SIZE-element
    // regions of one live register file; `operand` snapshots any operand
    // whose range intersects the destination, so the `out_chunk` view is
    // the only live mutable reference to that memory, and bounds are
    // asserted exactly where slice indexing used to panic.
    match dec {
        DecodedInstr::Bin { kind, dst, a, b } => unsafe {
            let dst = dst as usize;
            // Register chunks are WARP_SIZE-aligned, so a register
            // operand either *is* the destination chunk or is disjoint
            // from it. The lowered DME streams are accumulator-heavy
            // (two thirds of register operands alias their destination),
            // so the IEEE-exact kinds route aliased shapes to in-place
            // kernels instead of snapshotting 256 bytes per operand.
            let arith = match kind {
                BinOp::Add => Some(lanes::ArithKind::Add),
                BinOp::Sub => Some(lanes::ArithKind::Sub),
                BinOp::Mul => Some(lanes::ArithKind::Mul),
                BinOp::Div => Some(lanes::ArithKind::Div),
                BinOp::Pow | BinOp::Max | BinOp::Min => None,
            };
            let (a_is_d, b_is_d) = (a.base() == dst, b.base() == dst);
            match (arith, a_is_d, b_is_d) {
                (Some(k), true, false) => {
                    let bv = operand(ptr, len, tail, b, [dst, dst]);
                    lanes::bin_in_a(k, out_chunk(ptr, len, dst), bv.get());
                }
                (Some(k), false, true) => {
                    let av = operand(ptr, len, tail, a, [dst, dst]);
                    lanes::bin_in_b(k, av.get(), out_chunk(ptr, len, dst));
                }
                (Some(k), true, true) => {
                    lanes::bin_in_aa(k, out_chunk(ptr, len, dst));
                }
                _ => {
                    let av = operand(ptr, len, tail, a, [dst, dst]);
                    let bv = operand(ptr, len, tail, b, [dst, dst]);
                    let (av, bv) = (av.get(), bv.get());
                    let out = out_chunk(ptr, len, dst);
                    match kind {
                        BinOp::Add => lanes::add(av, bv, out),
                        BinOp::Sub => lanes::sub(av, bv, out),
                        BinOp::Mul => lanes::mul(av, bv, out),
                        BinOp::Div => lanes::div(av, bv, out),
                        // `powf` is a libm call per lane — opaque to the
                        // vectorizer, so the loop is identical in both
                        // compiled copies of the dispatch loops.
                        // `max`/`min` lower to LLVM intrinsics whose
                        // vector forms are not ±0-exact, so they live
                        // behind `#[inline(never)]` in `lanes`.
                        BinOp::Pow => {
                            for l in 0..WARP_SIZE {
                                out[l] = av[l].powf(bv[l]);
                            }
                        }
                        BinOp::Max => lanes::max(av, bv, out),
                        BinOp::Min => lanes::min(av, bv, out),
                    }
                }
            }
        },
        DecodedInstr::Un { kind, dst, a } => unsafe {
            let dst = dst as usize;
            let av = operand(ptr, len, tail, a, [dst, dst]);
            let av = av.get();
            let out = out_chunk(ptr, len, dst);
            match kind {
                UnOp::Mov => *out = *av,
                UnOp::Sqrt => lanes::sqrt(av, out),
                UnOp::Neg => lanes::neg(av, out),
                // Transcendentals define the simulator's numerics. `exp`
                // is the lane kernel every call site (this fast path and
                // the engine's exp uops) shares: `vmath`'s polynomial.
                // The rest stay scalar libm.
                UnOp::Exp => lanes::exp(av, out),
                UnOp::Log => {
                    for l in 0..WARP_SIZE {
                        out[l] = av[l].ln();
                    }
                }
                UnOp::Log10 => {
                    for l in 0..WARP_SIZE {
                        out[l] = av[l].log10();
                    }
                }
                UnOp::Cbrt => {
                    for l in 0..WARP_SIZE {
                        out[l] = av[l].cbrt();
                    }
                }
            }
        },
        DecodedInstr::Fma { dst, a, b, c } => unsafe {
            let dst = dst as usize;
            // Same aliasing structure as `Bin`: route the two dominant
            // multiply-accumulate shapes in place, snapshot the rest.
            let (a_is_d, b_is_d, c_is_d) = (a.base() == dst, b.base() == dst, c.base() == dst);
            match (a_is_d, b_is_d, c_is_d) {
                (false, false, true) => {
                    let av = operand(ptr, len, tail, a, [dst, dst]);
                    let bv = operand(ptr, len, tail, b, [dst, dst]);
                    lanes::fma_in_c(av.get(), bv.get(), out_chunk(ptr, len, dst));
                }
                (true, false, false) => {
                    let bv = operand(ptr, len, tail, b, [dst, dst]);
                    let cv = operand(ptr, len, tail, c, [dst, dst]);
                    lanes::fma_in_a(out_chunk(ptr, len, dst), bv.get(), cv.get());
                }
                _ => {
                    let av = operand(ptr, len, tail, a, [dst, dst]);
                    let bv = operand(ptr, len, tail, b, [dst, dst]);
                    let cv = operand(ptr, len, tail, c, [dst, dst]);
                    lanes::fma(av.get(), bv.get(), cv.get(), out_chunk(ptr, len, dst));
                }
            }
        },
        DecodedInstr::Sel { dst, pred, a, b } => unsafe {
            let dst = dst as usize;
            let pv = operand(ptr, len, tail, Src(pred), [dst, dst]);
            let av = operand(ptr, len, tail, a, [dst, dst]);
            let bv = operand(ptr, len, tail, b, [dst, dst]);
            lanes::sel(pv.get(), av.get(), bv.get(), out_chunk(ptr, len, dst));
        },
        DecodedInstr::CmpOp { dst, cmp, a, b } => unsafe {
            let dst = dst as usize;
            let av = operand(ptr, len, tail, a, [dst, dst]);
            let bv = operand(ptr, len, tail, b, [dst, dst]);
            lanes::cmp(cmp, av.get(), bv.get(), out_chunk(ptr, len, dst));
        },
        DecodedInstr::Shfl { dst, src, lane } => {
            let (dst, elem) = (dst as usize, (src + lane) as usize);
            let v = dregs[elem];
            dregs[dst..dst + WARP_SIZE].fill(v);
        }
        DecodedInstr::LdLocal { dst, slot } => {
            let (dst, slot) = (dst as usize, slot as usize);
            dregs[dst..dst + WARP_SIZE].copy_from_slice(&local[slot..slot + WARP_SIZE]);
            if collect {
                counts.local_bytes += (WARP_SIZE * 8) as u64;
            }
        }
        DecodedInstr::StLocal { src, slot } => {
            let (sv, slot) = (src_vals(dregs, tail, src), slot as usize);
            local[slot..slot + WARP_SIZE].copy_from_slice(&sv);
            if collect {
                counts.local_bytes += (WARP_SIZE * 8) as u64;
            }
        }
        DecodedInstr::Invalid { space, addr, limit } => return Err(space.fault(addr, limit)),
        DecodedInstr::Barrier(_) | DecodedInstr::Slow(_) => {
            unreachable!("handled by the schedule / the slow path")
        }
    }
    Ok(())
}

/// Execute an instruction the fast path does not cover: memory, constant
/// and index operations, with their error paths. What each *means* is
/// [`crate::isa`]'s (index arithmetic, addresses) and [`crate::cta`]'s (the
/// memory); this moves the lanes between them and the warp's registers.
/// Event-count preambles are applied by [`step_warp`] from the precomputed
/// cost table.
#[allow(clippy::too_many_arguments)]
#[deny(clippy::wildcard_enum_match_arm)]
fn exec_slow(
    kernel: &Kernel,
    ins: &Instr,
    pset: u32,
    wid: usize,
    warp: &mut WarpState,
    mem: &mut CtaMem<'_>,
    bank_base: &[u64],
    profiler: Option<&mut Profiler>,
) -> SimResult<()> {
    let nd = kernel.dregs_per_thread;
    // A register's lanes, range-checked.
    let dreg = |r: Reg| dreg_base(r, nd).map(|b| b as usize..b as usize + WARP_SIZE);
    // A source operand's lanes: a register's, range-checked, or a splat.
    let src_lanes = |dregs: &[f64], o: &Op| -> SimResult<Lanes> {
        Ok(match *o {
            Op::Reg(r) => dregs[dreg(r)?].try_into().expect("one register of lanes"),
            Op::Imm(v) => [v; WARP_SIZE],
        })
    };
    // Flat element index of each lane into an SoA array: row, then point.
    let gindex = |iregs: &mut Vec<u32>, mem: &CtaMem<'_>, a: &GAddr| {
        let rows = a.row.lanes(iregs)?;
        Ok::<_, SimError>(match a.point {
            PointRef::Lane => mem.global_indices(&rows, Points::Cta(pset as usize * WARP_SIZE)),
            PointRef::Thread => mem.global_indices(&rows, Points::Cta(wid * WARP_SIZE)),
            PointRef::Reg(r) => {
                mem.global_indices(&rows, Points::Abs(&IdxOp::Reg(r).lanes(iregs)?))
            }
        })
    };

    match ins {
        Instr::LdGlobal { dst, addr, .. } => {
            let dst = dreg(*dst)?;
            let idxs = gindex(&mut warp.iregs, mem, addr)?;
            mem.ld_global(addr.array.0, &idxs, &mut warp.dregs[dst])?;
        }
        Instr::StGlobal { src, addr } => {
            CtaMem::check_store(kernel, addr.array.0)?;
            let idxs = gindex(&mut warp.iregs, mem, addr)?;
            mem.st_global(addr.array.0, &idxs, &src_lanes(&warp.dregs, src)?)?;
        }
        Instr::LdShared { dst, addr } => {
            let dst = dreg(*dst)?;
            let addrs = cta::shared_addrs(addr, None, &mut warp.iregs, mem.shared.len())?;
            for (d, &a) in warp.dregs[dst].iter_mut().zip(&addrs) {
                *d = mem.shared[a];
            }
            mem.count_shared(&addrs, None);
        }
        Instr::StShared { src, addr, lane_pred } => {
            let addrs = cta::shared_addrs(addr, *lane_pred, &mut warp.iregs, mem.shared.len())?;
            let vals = src_lanes(&warp.dregs, src)?;
            match lane_pred {
                Some(p) => mem.shared[addrs[*p as usize]] = vals[*p as usize],
                None => addrs.iter().zip(vals).for_each(|(&a, v)| mem.shared[a] = v),
            }
            mem.count_shared(&addrs, *lane_pred);
        }
        Instr::LdConst { dst, bank, idx } => {
            let dst = dreg(*dst)?;
            let load = cta::ld_const(kernel, bank_base, *bank, *idx, &mut warp.iregs)?;
            warp.dregs[dst].copy_from_slice(&load.vals);
            if mem.collect {
                let lines = load.lines();
                let misses = lines.iter().filter(|&&line| !mem.ccache.access(line * 64)).count();
                if let Some(p) = profiler {
                    p.on_const_replay(wid, lines.len() as u64, misses as u64);
                }
            }
        }
        Instr::Idx(ii) => {
            let lanes = ii.eval(&mut warp.iregs, wid, pset, &kernel.iconst_banks)?;
            let dst = ii.dst() as usize * WARP_SIZE;
            warp.iregs[dst..dst + WARP_SIZE].copy_from_slice(&lanes);
        }
        Instr::CpAsync { addr, array, row, point } => {
            let ga = GAddr { array: *array, row: *row, point: *point };
            let idxs = gindex(&mut warp.iregs, mem, &ga)?;
            let saddrs = addr.lanes(&mut warp.iregs)?;
            mem.cp_async(array.0, &idxs, |l| saddrs[l])?;
            mem.count_shared(&saddrs, None);
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
            unreachable!("decoded onto the fast path or handled by the schedule")
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use crate::icache::interleaved_fetch_profile;

    fn base_kernel(warps: usize) -> Kernel {
        Kernel {
            name: "t".into(),
            body: vec![],
            warps_per_cta: warps,
            points_per_cta: 32,
            dregs_per_thread: 8,
            iregs_per_thread: 4,
            shared_words: 128,
            local_words_per_thread: 2,
            const_banks: vec![vec![1.5, 2.5, 3.5]],
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

    fn run(kernel: &Kernel, input: &[f64]) -> SimResult<CtaResult> {
        let prog = flatten(kernel);
        let arch = GpuArch::kepler_k20c();
        run_cta(kernel, &prog, &[input, &[]], 32, 0, true, &arch)
    }

    #[test]
    fn arithmetic_roundtrip_through_global() {
        // out[0][p] = in[0][p] * 2 + in[1][p]
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
            Node::Op(Instr::DFma { dst: 2, a: Op::Reg(0), b: Op::Imm(2.0), c: Op::Reg(1), const_c: false }),
            Node::Op(Instr::StGlobal {
                src: Op::Reg(2),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
            }),
        ];
        let input: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let r = run(&k, &input).unwrap();
        for p in 0..32 {
            assert_eq!(r.out_buffers[1][p], input[p] * 2.0 + input[32 + p]);
        }
        assert!(r.counts.flops > 0);
        assert_eq!(r.counts.global_transactions, 3 * 2); // 32 doubles = 2 x 128B
    }

    #[test]
    fn warp_if_masks_execution() {
        let mut k = base_kernel(2);
        k.body = vec![
            Node::Op(Instr::mov(0, Op::Imm(1.0))),
            Node::WarpIf {
                mask: 0b10,
                body: vec![Node::Op(Instr::mov(0, Op::Imm(5.0)))],
            },
            // Each warp stores its r0 to shared[warp].
            Node::Op(Instr::Idx(IdxInstr::WarpId { dst: 0 })),
            Node::Op(Instr::StShared {
                src: Op::Reg(0),
                addr: SAddr { base: Some(0), imm: 0, lane_stride: 0 },
                lane_pred: Some(0),
            }),
        ];
        let prog = flatten(&k);
        // Warp 0 skips the masked block: its stream is shorter.
        assert!(prog.stream_len(0) < prog.stream_len(1));
        let arch = GpuArch::kepler_k20c();
        let input: Vec<f64> = vec![0.0; 64];
        let r = run_cta(&k, &prog, &[&input, &[]], 32, 0, false, &arch).unwrap();
        let _ = r;
    }

    /// One op of an expanded stream, as the oracle spells it out.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum OracleOp {
        /// Execute instruction `instr` (arena index) at static address
        /// `addr`, within point-set `pset` of the streaming point loop.
        Exec { addr: u32, instr: u32, pset: u32 },
        /// A warp-ID branch header.
        Branch { addr: u32 },
    }

    impl OracleOp {
        fn addr(&self) -> u32 {
            match self {
                OracleOp::Exec { addr, .. } | OracleOp::Branch { addr } => *addr,
            }
        }
    }

    /// The oracle: expand `kernel`'s body into one stream per warp in `reps`,
    /// every loop body re-walked per trip — the flatten as it was before
    /// streams were shared or rolled. Returns the streams, the instruction
    /// arena and the static size.
    fn expand(kernel: &Kernel, reps: &[usize]) -> (Vec<Vec<OracleOp>>, Vec<Instr>, u32) {
        let mut instrs: Vec<Instr> = Vec::new();
        let mut streams: Vec<Vec<OracleOp>> = vec![Vec::new(); reps.len()];

        // Assign addresses in tree order; every warp walking the same tree sees
        // the same addresses. `active` holds the stream slots whose
        // representative is on the path being walked.
        //
        // Loop bodies are re-walked per iteration with the address counter
        // reset, so a static address always denotes the same instruction; the
        // arena is memoized by address (`addr_to_idx`, u32::MAX = unassigned)
        // to keep it — and the decode/cost tables built from it — sized by
        // static code, not by trip counts.
        #[allow(clippy::too_many_arguments)]
        fn walk(
            nodes: &[Node],
            counter: &mut u32,
            instrs: &mut Vec<Instr>,
            addr_to_idx: &mut Vec<u32>,
            streams: &mut [Vec<OracleOp>],
            reps: &[usize],
            active: &[usize],
            pset: u32,
        ) {
            for node in nodes {
                match node {
                    Node::Op(i) => {
                        let addr = *counter;
                        *counter += 1;
                        if addr_to_idx.len() <= addr as usize {
                            addr_to_idx.resize(addr as usize + 1, u32::MAX);
                        }
                        let idx = match addr_to_idx[addr as usize] {
                            u32::MAX => {
                                let idx = instrs.len() as u32;
                                instrs.push(i.clone());
                                addr_to_idx[addr as usize] = idx;
                                idx
                            }
                            idx => idx,
                        };
                        for &slot in active {
                            streams[slot].push(OracleOp::Exec { addr, instr: idx, pset });
                        }
                    }
                    Node::WarpIf { mask, body } => {
                        let addr = *counter;
                        *counter += 1;
                        for &slot in active {
                            streams[slot].push(OracleOp::Branch { addr });
                        }
                        let taken: Vec<usize> =
                            active.iter().copied().filter(|&s| takes_if(*mask, reps[s])).collect();
                        walk(body, counter, instrs, addr_to_idx, streams, reps, &taken, pset);
                    }
                    Node::WarpSwitch { case_of_warp, cases } => {
                        let addr = *counter;
                        *counter += 1;
                        for &slot in active {
                            streams[slot].push(OracleOp::Branch { addr });
                        }
                        for (ci, case) in cases.iter().enumerate() {
                            let taken: Vec<usize> = active
                                .iter()
                                .copied()
                                .filter(|&s| case_of_warp.get(reps[s]) == Some(&ci))
                                .collect();
                            walk(case, counter, instrs, addr_to_idx, streams, reps, &taken, pset);
                        }
                    }
                    Node::Loop { count, body } => {
                        let start = *counter;
                        for _ in 0..*count {
                            *counter = start;
                            walk(body, counter, instrs, addr_to_idx, streams, reps, active, pset);
                        }
                        if *count == 0 {
                            // Still reserve the addresses.
                            walk(body, counter, instrs, addr_to_idx, streams, reps, &[], pset);
                        }
                    }
                    Node::PointLoop { iters, body } => {
                        let start = *counter;
                        for it in 0..*iters {
                            *counter = start;
                            walk(body, counter, instrs, addr_to_idx, streams, reps, active, it);
                        }
                    }
                }
            }
        }

        let all: Vec<usize> = (0..reps.len()).collect();
        let mut counter = 0u32;
        let mut addr_to_idx: Vec<u32> = Vec::new();
        walk(&kernel.body, &mut counter, &mut instrs, &mut addr_to_idx, &mut streams, reps, &all, 0);
        (streams, instrs, counter)
    }

    /// Seeded xorshift, as elsewhere in this crate's tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// A random body over `warps` warps: ops of both kinds the sync
    /// substream keeps and drops, `WarpIf`s whose masks may select nobody
    /// or everybody, `WarpSwitch`es whose table may be short of the warp
    /// count or name a case that does not exist, loops of 0 to 4 trips,
    /// some holding nothing but another loop — and any branch body may be
    /// empty.
    fn random_body(rng: &mut Rng, warps: usize, depth: usize) -> Vec<Node> {
        let n = rng.below(4) as usize;
        (0..n)
            .map(|_| match rng.below(if depth == 0 { 2 } else { 7 }) {
                0 => Node::Op(Instr::mov(rng.below(8) as Reg, Op::Imm(rng.below(3) as f64))),
                1 => Node::Op(Instr::BarArrive { bar: rng.below(4) as u8, warps: 1 }),
                2 => {
                    let mask = match rng.below(4) {
                        0 => 0,
                        1 => u64::MAX,
                        _ => rng.below(1 << warps),
                    };
                    Node::WarpIf { mask, body: random_body(rng, warps, depth - 1) }
                }
                3 => {
                    let n_cases = 1 + rng.below(3) as usize;
                    let table = rng.below(warps as u64 + 2) as usize;
                    Node::WarpSwitch {
                        case_of_warp: (0..table)
                            .map(|_| rng.below(n_cases as u64 + 1) as usize)
                            .collect(),
                        cases: (0..n_cases).map(|_| random_body(rng, warps, depth - 1)).collect(),
                    }
                }
                4 => Node::Loop {
                    count: rng.below(5) as u32,
                    body: random_body(rng, warps, depth - 1),
                },
                5 => Node::PointLoop {
                    iters: rng.below(5) as u32,
                    body: random_body(rng, warps, depth - 1),
                },
                _ => {
                    let inner = random_body(rng, warps, depth - 1);
                    let (outer, trips) = (rng.below(4), rng.below(5) as u32);
                    let inner = if outer & 1 == 0 {
                        Node::Loop { count: rng.below(5) as u32, body: inner }
                    } else {
                        Node::PointLoop { iters: rng.below(5) as u32, body: inner }
                    };
                    if outer & 2 == 0 {
                        Node::Loop { count: trips, body: vec![inner] }
                    } else {
                        Node::PointLoop { iters: trips, body: vec![inner] }
                    }
                }
            })
            .collect()
    }

    #[test]
    fn warp_classes_are_exactly_stream_equality() {
        // The oracle is the per-warp, per-trip flatten: `expand` with every
        // warp its own representative, which is the walk as it was before
        // streams were shared or rolled. Against it, on random trees: two
        // warps share a class exactly when their oracle streams are equal,
        // classes are numbered by lowest warp, and every per-warp accessor
        // — positions resolved through the run table, the interpreter's
        // trips, the fetch-address walker — reads what the oracle holds for
        // that warp.
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut multi_member, mut merged_paths, mut rolled, mut expanded_ops) = (0, 0, 0, 0);
        for case in 0..600 {
            let warps = 1 + rng.below(16) as usize;
            let mut k = base_kernel(warps);
            k.body = random_body(&mut rng, warps, 3);
            let prog = flatten(&k);
            let all: Vec<usize> = (0..warps).collect();
            let (oracle, instrs, static_size) = expand(&k, &all);
            assert_eq!(prog.static_size, static_size, "case {case}");
            assert_eq!(prog.n_warps(), warps);

            let mut next_class = 0;
            for a in 0..warps {
                for b in 0..a {
                    assert_eq!(
                        prog.class_of(a) == prog.class_of(b),
                        oracle[a] == oracle[b],
                        "case {case}: warps {b} and {a} of {:?}",
                        k.body
                    );
                }
                assert!(prog.class_of(a) <= next_class, "case {case}: numbered by lowest warp");
                next_class = next_class.max(prog.class_of(a) + 1);
            }
            assert_eq!(prog.n_classes(), next_class);
            multi_member += usize::from(next_class < warps);
            merged_paths += usize::from(next_class < 1 + *refine(&k).iter().max().unwrap());

            for w in 0..warps {
                assert_eq!(prog.stream_len(w), oracle[w].len(), "case {case} warp {w}");
                assert_eq!(prog.warp_stream(w).count(), oracle[w].len());
                let mut sync_want = Vec::new();
                for (pos, op) in oracle[w].iter().enumerate() {
                    let step = prog.step(w, pos);
                    match *op {
                        OracleOp::Exec { addr, instr, pset } => {
                            let ins = &instrs[instr as usize];
                            let want = (addr, pset, Some(instr as usize));
                            assert_eq!((step.addr, step.pset, step.instr), want);
                            if let Some(kept) = prog.instr(instr as usize) {
                                assert_eq!(kept, ins, "case {case}: the sparse table's entry");
                            }
                            if ins.is_sync_relevant() {
                                sync_want.push((addr, pset, ins));
                            }
                        }
                        OracleOp::Branch { addr } => {
                            assert_eq!((step.addr, step.pset, step.instr), (addr, 0, None));
                        }
                    }
                }
                // The verifier's view: each sync run's trip, `trips` times.
                let sync_got = prog.sync_runs(w).flat_map(|run| {
                    (0..run.trips()).flat_map(move |t| {
                        (0..run.len()).map(move |off| {
                            let (addr, ins) = run.step(off);
                            (addr, run.pset(t), ins)
                        })
                    })
                });
                assert!(sync_got.eq(sync_want), "case {case} warp {w}: sync runs");

                // The trips the interpreter, the model and lowering walk.
                let prog = &prog;
                let trips = prog.runs(w).iter().flat_map(|run| {
                    (0..run.trips).flat_map(move |t| {
                        prog.run_ops(w, run).iter().map(move |op| (op.instr(), run.pset(t)))
                    })
                });
                let want = oracle[w].iter().map(|op| match *op {
                    OracleOp::Exec { instr, pset, .. } => (Some(instr as usize), pset),
                    OracleOp::Branch { .. } => (None, 0),
                });
                assert!(
                    trips.map(|(i, pset)| (i, if i.is_some() { pset } else { 0 })).eq(want),
                    "case {case} warp {w}: trips"
                );
                rolled += prog.runs(w).iter().filter(|r| r.trips > 1).count();
            }
            expanded_ops += oracle.iter().map(Vec::len).sum::<usize>();
            assert!(prog.stored_ops() <= static_size as usize * prog.n_classes());

            // The fetch-address walker, at three prefetch run lengths: it
            // hands out the oracle's addresses in slices no longer than
            // asked, and the cache model cannot tell the two apart.
            let addrs: Vec<Vec<u32>> =
                oracle.iter().map(|s| s.iter().map(OracleOp::addr).collect()).collect();
            for group in [1, 7, 128] {
                for (walk, want) in prog.fetch_streams().iter_mut().zip(&addrs) {
                    let mut got = Vec::new();
                    while !walk.is_done() {
                        let slice = walk.next_addrs(group);
                        assert!(!slice.is_empty() && slice.len() <= group);
                        got.extend_from_slice(slice);
                    }
                    assert!(walk.next_addrs(group).is_empty());
                    assert_eq!(&got, want, "case {case} group {group}");
                }
                let mut slices: Vec<&[u32]> = addrs.iter().map(Vec::as_slice).collect();
                assert_eq!(
                    interleaved_fetch_profile(&mut prog.fetch_streams(), 8, 64, 16, 2, group),
                    interleaved_fetch_profile(&mut slices, 8, 64, 16, 2, group),
                    "case {case} group {group}"
                );
            }
        }
        assert!(rolled > 300, "{rolled} multi-trip runs");
        assert!(expanded_ops > 20_000, "{expanded_ops} ops in the expanded streams");
        // The generator reaches both interesting shapes, often.
        assert!(multi_member > 100, "{multi_member} cases with a shared class");
        assert!(merged_paths > 20, "{merged_paths} cases where distinct paths gave equal streams");
    }

    #[test]
    fn producer_consumer_named_barriers() {
        // Figure 2's protocol: producer warp 0 fills a shared buffer, then
        // arrives on barrier 0; consumer warp 1 syncs on barrier 0, reads,
        // writes output. Also exercise the empty-signal barrier 1.
        let mut k = base_kernel(2);
        k.points_per_cta = 32;
        k.body = vec![
            // Consumer signals "buffer empty" (non-blocking arrive).
            Node::WarpIf {
                mask: 0b10,
                body: vec![Node::Op(Instr::BarArrive { bar: 1, warps: 2 })],
            },
            // Producer waits for empty, fills buffer, signals full.
            Node::WarpIf {
                mask: 0b01,
                body: vec![
                    Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
                    Node::Op(Instr::LdGlobal {
                        dst: 0,
                        addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
                        ldg: false,
                    }),
                    Node::Op(Instr::Bin { op: BinOp::Mul, dst: 0, a: Op::Reg(0), b: Op::Imm(3.0) }),
                    Node::Op(Instr::StShared { src: Op::Reg(0), addr: SAddr::lane(0), lane_pred: None }),
                    Node::Op(Instr::BarArrive { bar: 0, warps: 2 }),
                ],
            },
            // Consumer waits for full, reads, stores.
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
        let input: Vec<f64> = (0..64).map(|i| i as f64 + 1.0).collect();
        let r = run(&k, &input).unwrap();
        for p in 0..32 {
            assert_eq!(r.out_buffers[1][p], (p as f64 + 1.0) * 3.0);
        }
        assert!(r.counts.barrier_syncs >= 2);
        assert!(r.counts.barrier_arrives >= 2);
    }

    #[test]
    fn profiler_attributes_producer_consumer_waits() {
        // Same Figure 2 protocol as above, but run with the
        // cycle-attribution profiler: the consumer warp must be charged a
        // wait on barrier 0 (it syncs before the producer has filled the
        // buffer), and every warp's attributed reasons must sum to the
        // CTA total.
        let mut k = base_kernel(2);
        k.points_per_cta = 32;
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
                    Node::Op(Instr::Bin { op: BinOp::Mul, dst: 0, a: Op::Reg(0), b: Op::Imm(3.0) }),
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
        let input: Vec<f64> = (0..64).map(|i| i as f64 + 1.0).collect();
        let prog = flatten(&k);
        let arch = GpuArch::kepler_k20c();
        let mut profiler = Profiler::new(2, 16, true, &arch);
        let r = run_cta_profiled(&k, &prog, &[&input, &[]], 32, 0, true, &arch, Some(&mut profiler))
            .unwrap();
        // Profiling must not perturb functional results.
        for p in 0..32 {
            assert_eq!(r.out_buffers[1][p], (p as f64 + 1.0) * 3.0);
        }
        let prof = profiler.finish();
        prof.check_attribution().unwrap();
        assert!(prof.total_cycles > 0);
        // The consumer (warp 1) blocked on barrier 0 while the producer
        // loaded/multiplied/stored; the producer never waits on barrier 0.
        assert!(prof.warps[1].barrier_wait[0] > 0, "{:?}", prof.warps[1]);
        assert_eq!(prof.warps[0].barrier_wait[0], 0);
        // Barrier instructions were charged as overhead.
        assert!(prof.warps[0].overhead > 0 && prof.warps[1].overhead > 0);
        // Event stream carries exec spans, a wait span, and barrier edges.
        use crate::profile::EventKind;
        let evs = &prof.events;
        assert!(evs.iter().any(|e| e.name == "exec" && e.kind == EventKind::Span));
        assert!(evs.iter().any(|e| e.name == "wait b0" && e.tid == 1));
        assert!(evs.iter().any(|e| e.name.starts_with("arrive b0")));
        // Deterministic: a second profiled run produces the same profile.
        let mut p2 = Profiler::new(2, 16, true, &arch);
        run_cta_profiled(&k, &prog, &[&input, &[]], 32, 0, true, &arch, Some(&mut p2)).unwrap();
        assert_eq!(p2.finish(), prof);
    }

    #[test]
    fn deadlock_detected() {
        // Both warps sync on a barrier expecting 3 warps — never satisfied.
        let mut k = base_kernel(2);
        k.body = vec![Node::Op(Instr::BarSync { bar: 0, warps: 3 })];
        let err = run(&k, &vec![0.0; 64]).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn barrier_count_mismatch_detected() {
        let mut k = base_kernel(2);
        k.body = vec![
            Node::WarpIf { mask: 0b01, body: vec![Node::Op(Instr::BarSync { bar: 0, warps: 2 })] },
            Node::WarpIf { mask: 0b10, body: vec![Node::Op(Instr::BarSync { bar: 0, warps: 1 })] },
        ];
        // Warp 0 runs first and registers expected=2; warp 1 says 1.
        let err = run(&k, &vec![0.0; 64]).unwrap_err();
        assert!(matches!(err, SimError::BarrierMismatch { .. }), "{err}");
    }

    #[test]
    fn shuffle_broadcasts_from_lane() {
        let mut k = base_kernel(1);
        k.body = vec![
            Node::Op(Instr::Idx(IdxInstr::LaneId { dst: 0 })),
            // r0 = lane id as double via global trick: store lane to shared then read.
            Node::Op(Instr::LdGlobal {
                dst: 0,
                addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
                ldg: false,
            }),
            Node::Op(Instr::Shfl { dst: 1, src: 0, lane: 5 }),
            Node::Op(Instr::StGlobal {
                src: Op::Reg(1),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
            }),
        ];
        let input: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let r = run(&k, &input).unwrap();
        for p in 0..32 {
            assert_eq!(r.out_buffers[1][p], 5.0);
        }
    }

    #[test]
    fn loop_repeats_with_static_addresses() {
        let mut k = base_kernel(1);
        k.body = vec![
            Node::Op(Instr::mov(0, Op::Imm(0.0))),
            Node::Loop {
                count: 5,
                body: vec![Node::Op(Instr::Bin {
                    op: BinOp::Add,
                    dst: 0,
                    a: Op::Reg(0),
                    b: Op::Imm(2.0),
                })],
            },
            Node::Op(Instr::StGlobal {
                src: Op::Reg(0),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
            }),
        ];
        let prog = flatten(&k);
        // 1 mov + 5 adds + 1 store executed; static size 3.
        assert_eq!(prog.stream_len(0), 7);
        assert_eq!(prog.static_size, 3);
        let r = run(&k, &vec![0.0; 64]).unwrap();
        assert_eq!(r.out_buffers[1][0], 10.0);
    }

    #[test]
    fn point_loop_advances_points() {
        let mut k = base_kernel(1);
        k.points_per_cta = 64; // two point sets
        k.body = vec![Node::PointLoop {
            iters: 2,
            body: vec![
                Node::Op(Instr::LdGlobal {
                    dst: 0,
                    addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
                    ldg: false,
                }),
                Node::Op(Instr::Bin { op: BinOp::Mul, dst: 0, a: Op::Reg(0), b: Op::Imm(10.0) }),
                Node::Op(Instr::StGlobal {
                    src: Op::Reg(0),
                    addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
                }),
            ],
        }];
        let prog = flatten(&k);
        let arch = GpuArch::kepler_k20c();
        let input: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let r = run_cta(&k, &prog, &[&input, &[]], 64, 0, false, &arch).unwrap();
        for p in 0..64 {
            assert_eq!(r.out_buffers[1][p], p as f64 * 10.0);
        }
    }

    #[test]
    fn bank_conflicts_counted() {
        // All 32 lanes hit bank 0 with distinct addresses: 32-way conflict.
        let mut k = base_kernel(1);
        k.shared_words = 32 * 32;
        k.body = vec![
            Node::Op(Instr::Idx(IdxInstr::LaneId { dst: 0 })),
            Node::Op(Instr::Idx(IdxInstr::Mul { dst: 1, a: IdxOp::Reg(0), b: IdxOp::Imm(32) })),
            Node::Op(Instr::StShared {
                src: Op::Imm(1.0),
                addr: SAddr { base: Some(1), imm: 0, lane_stride: 0 },
                lane_pred: None,
            }),
            Node::Op(Instr::LdShared { dst: 0, addr: SAddr::lane(0) }),
        ];
        let r = run(&k, &vec![0.0; 64]).unwrap();
        // Store: 32 distinct addresses in bank 0 => 32 transactions.
        // Load: lane-strided => 1 transaction.
        assert_eq!(r.counts.shared_accesses, 33);
        assert_eq!(r.counts.shared_conflicts, 31);
    }

    #[test]
    fn local_spill_roundtrip_and_traffic() {
        let mut k = base_kernel(1);
        k.body = vec![
            Node::Op(Instr::mov(0, Op::Imm(7.5))),
            Node::Op(Instr::StLocal { src: Op::Reg(0), slot: 1 }),
            Node::Op(Instr::mov(0, Op::Imm(0.0))),
            Node::Op(Instr::LdLocal { dst: 0, slot: 1 }),
            Node::Op(Instr::StGlobal {
                src: Op::Reg(0),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
            }),
        ];
        let r = run(&k, &vec![0.0; 64]).unwrap();
        assert_eq!(r.out_buffers[1][0], 7.5);
        assert_eq!(r.counts.local_bytes, 2 * 32 * 8);
    }

    #[test]
    fn const_load_striped_and_cached() {
        let mut k = base_kernel(1);
        k.const_banks = vec![(0..64).map(|i| i as f64).collect()];
        k.body = vec![
            Node::Op(Instr::Idx(IdxInstr::LaneId { dst: 0 })),
            Node::Op(Instr::LdConst { dst: 0, bank: 0, idx: IdxOp::Reg(0) }),
            Node::Op(Instr::StGlobal {
                src: Op::Reg(0),
                addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
            }),
        ];
        let r = run(&k, &vec![0.0; 64]).unwrap();
        for p in 0..32 {
            assert_eq!(r.out_buffers[1][p], p as f64);
        }
        assert!(r.counts.const_misses > 0);
    }

    #[test]
    fn warp_switch_routes_cases() {
        let mut k = base_kernel(3);
        k.body = vec![
            Node::WarpSwitch {
                case_of_warp: vec![0, 1, 0],
                cases: vec![
                    vec![Node::Op(Instr::mov(0, Op::Imm(10.0)))],
                    vec![Node::Op(Instr::mov(0, Op::Imm(20.0)))],
                ],
            },
            Node::Op(Instr::Idx(IdxInstr::WarpId { dst: 0 })),
            Node::Op(Instr::StShared {
                src: Op::Reg(0),
                addr: SAddr { base: Some(0), imm: 0, lane_stride: 0 },
                lane_pred: Some(0),
            }),
            // Warp 0 collects all three values after a full barrier.
            Node::Op(Instr::BarSync { bar: 0, warps: 3 }),
            Node::WarpIf {
                mask: 0b001,
                body: vec![
                    Node::Op(Instr::LdShared { dst: 1, addr: SAddr::uniform(0) }),
                    Node::Op(Instr::LdShared { dst: 2, addr: SAddr::uniform(1) }),
                    Node::Op(Instr::LdShared { dst: 3, addr: SAddr::uniform(2) }),
                    Node::Op(Instr::Bin { op: BinOp::Add, dst: 1, a: Op::Reg(1), b: Op::Reg(2) }),
                    Node::Op(Instr::Bin { op: BinOp::Add, dst: 1, a: Op::Reg(1), b: Op::Reg(3) }),
                    Node::Op(Instr::StGlobal {
                        src: Op::Reg(1),
                        addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
                    }),
                ],
            },
        ];
        let r = run(&k, &vec![0.0; 64]).unwrap();
        assert_eq!(r.out_buffers[1][0], 10.0 + 20.0 + 10.0);
    }
}
