//! The structured kernel IR ("SASS-lite") executed by the simulator.
//!
//! Design notes:
//!
//! * Values are double precision (`f64`) in per-thread registers, matching
//!   the paper's all-double combustion kernels; a separate small file of
//!   `u32` index registers feeds addressing (the *warp indexing* constants
//!   of §5.3 live there).
//! * Control flow is structured: warp-masked blocks ([`Node::WarpIf`],
//!   the bit-mask branches of Listing 1), indirect warp switches
//!   ([`Node::WarpSwitch`], §5.1), uniform loops, and the streaming
//!   point loop (§5.2's "multiple sets of points mapped onto a single
//!   CTA").
//! * Every operation gets a static instruction address (assigned in tree
//!   order), so the instruction-cache model sees the same addresses
//!   regardless of which warp executes a block — exactly the property the
//!   overlaying code-generation techniques of §5 are designed around.
//! * Named barriers follow PTX `bar.arrive` / `bar.sync` semantics with an
//!   expected-warp count (§2, Figure 2).
//! * This module is the single source of an instruction's shape, static
//!   cost ([`Instr::issue_slots`], [`Instr::flops`]), register operands
//!   ([`Instr::visit_regs_mut`]), sync relevance and bytes ([`codec`]) —
//!   and of the two pieces of semantics that need no machine state beyond
//!   an index-register file: what an index instruction computes
//!   ([`IdxInstr::eval`], with [`IdxOp::lanes`] and [`SAddr::lanes`]) and
//!   which barrier operation an instruction is at a point set
//!   ([`Instr::barrier_op`]). The interpreter evaluates them as it runs,
//!   lowering once ahead of time, the model while it walks a stream.
//!   Every `match` over an ISA enum here is exhaustive — the lint below
//!   rejects a catch-all arm — so a new op cannot silently inherit a cost
//!   class, an encoding or an executor.

#![deny(clippy::wildcard_enum_match_arm)]

pub mod codec;

use crate::error::{SimError, SimResult};
use crate::WARP_SIZE;

/// A per-thread double-precision register id.
pub type Reg = u16;
/// A per-thread 32-bit index register id.
pub type IdxReg = u16;

/// Identifier of a global (device-memory) array declared by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalId(pub usize);

/// A double-precision operand: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Read a register.
    Reg(Reg),
    /// Immediate constant encoded in the instruction.
    Imm(f64),
}

/// An index operand: immediate or index register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdxOp {
    /// Immediate.
    Imm(u32),
    /// Read an index register (per-lane value).
    Reg(IdxReg),
}

/// One index register: a value per lane.
pub type IdxLanes = [u32; WARP_SIZE];

/// The index-register file an instruction reads its operands from. The
/// interpreter's is a warp's live registers; lowering's is the abstract
/// file it evaluates a stream against, which also notes what was read.
pub trait IdxFile {
    /// Registers in the file.
    fn regs(&self) -> usize;

    /// Register `r`'s lanes, or `None` past the end of the file.
    fn lanes(&mut self, r: usize) -> Option<IdxLanes>;
}

/// A flat lane-major file: register `r` is elements `r * 32 ..`.
impl IdxFile for Vec<u32> {
    fn regs(&self) -> usize {
        self.len() / WARP_SIZE
    }

    fn lanes(&mut self, r: usize) -> Option<IdxLanes> {
        let lanes = self.get(r * WARP_SIZE..(r + 1) * WARP_SIZE)?;
        Some(lanes.try_into().expect("one register of lanes"))
    }
}

/// The typed fault for index register `r` of an instruction falling outside
/// `file`.
fn ireg_fault(r: IdxReg, file: &impl IdxFile) -> SimError {
    SimError::OutOfBounds { space: "ireg", addr: r as usize, limit: file.regs() }
}

/// Index register `r` is one of `file`'s.
fn ireg_in_file(r: IdxReg, file: &impl IdxFile) -> SimResult<()> {
    if (r as usize) < file.regs() {
        Ok(())
    } else {
        Err(ireg_fault(r, file))
    }
}

impl IdxOp {
    /// The operand's value in each lane: an immediate in all of them, or a
    /// register's lanes.
    pub fn lanes(self, file: &mut impl IdxFile) -> SimResult<IdxLanes> {
        match self {
            IdxOp::Imm(v) => Ok([v; WARP_SIZE]),
            IdxOp::Reg(r) => file.lanes(r as usize).ok_or_else(|| ireg_fault(r, file)),
        }
    }
}

/// Which grid point a global access refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointRef {
    /// `cta_point_base + lane` — the warp-specialized convention where all
    /// warps of a CTA cooperate on 32 points (paper §3.2).
    Lane,
    /// `cta_point_base + warp_id * 32 + lane` — the data-parallel
    /// convention of one thread per point.
    Thread,
    /// An index register holds the absolute point index.
    Reg(IdxReg),
}

/// Global-memory address: `array[row][point]` over SoA field arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GAddr {
    /// Which array.
    pub array: GlobalId,
    /// Row (species/field index). A register row enables warp indexing.
    pub row: IdxOp,
    /// Point selector.
    pub point: PointRef,
}

/// Shared-memory address in f64 words:
/// `(base?) + imm + lane * lane_stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SAddr {
    /// Optional dynamic word offset from an index register.
    pub base: Option<IdxReg>,
    /// Static word offset.
    pub imm: u32,
    /// Per-lane stride in words (typically 0 or 1).
    pub lane_stride: u32,
}

impl SAddr {
    /// `imm + lane * 1` — the common `scratch[row][lane]` pattern.
    pub fn lane(imm: u32) -> SAddr {
        SAddr { base: None, imm, lane_stride: 1 }
    }

    /// Static word address, same for all lanes.
    pub fn uniform(imm: u32) -> SAddr {
        SAddr { base: None, imm, lane_stride: 0 }
    }

    /// Dynamic row from a register plus per-lane stride 1.
    pub fn dyn_lane(base: IdxReg, imm: u32) -> SAddr {
        SAddr { base: Some(base), imm, lane_stride: 1 }
    }

    /// Dynamic uniform address.
    pub fn dyn_uniform(base: IdxReg, imm: u32) -> SAddr {
        SAddr { base: Some(base), imm, lane_stride: 0 }
    }

    /// The word each lane addresses, not yet checked against the shared
    /// memory's size.
    pub fn lanes(&self, file: &mut impl IdxFile) -> SimResult<[usize; WARP_SIZE]> {
        let base = match self.base {
            Some(r) => IdxOp::Reg(r).lanes(file)?,
            None => [0; WARP_SIZE],
        };
        Ok(std::array::from_fn(|l| {
            base[l] as usize + self.imm as usize + self.lane_stride as usize * l
        }))
    }
}

/// Declares a field-less operator enum together with `ALL`, its variants
/// in discriminant order: the codec writes `op as u8` and reads it back
/// through `ALL`, so the list cannot fall out of step with the enum.
macro_rules! op_enum {
    ($(#[$m:meta])* $name:ident { $($(#[$vm:meta])* $v:ident),+ $(,)? }) => {
        $(#[$m])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name { $($(#[$vm])* $v),+ }

        impl $name {
            /// Every variant, indexed by discriminant.
            pub const ALL: &'static [$name] = &[$($name::$v),+];
        }
    };
}

op_enum! {
    /// Floating-point comparison operators for [`Instr::DCmp`].
    Cmp {
        /// `<`
        Lt,
        /// `<=`
        Le,
        /// `>`
        Gt,
        /// `>=`
        Ge,
        /// `==`
        Eq,
        /// `!=`
        Ne,
    }
}

op_enum! {
    /// One-operand arithmetic of [`Instr::Un`]: `dst = op(a)`.
    UnOp {
        /// `a`.
        Mov,
        /// `sqrt(a)`.
        Sqrt,
        /// `exp(a)` — lowered to a Taylor-series DFMA chain on hardware
        /// (12 DFMAs with constant-cache operands, §6.1).
        Exp,
        /// `ln(a)`.
        Log,
        /// `log10(a)`.
        Log10,
        /// `cbrt(a)` (Landau-Teller rates).
        Cbrt,
        /// `-a`.
        Neg,
    }
}

op_enum! {
    /// Two-operand arithmetic of [`Instr::Bin`]: `dst = a op b`.
    BinOp {
        /// `a + b`.
        Add,
        /// `a - b`.
        Sub,
        /// `a * b`.
        Mul,
        /// `a / b` (Newton's method on real GPUs — costed accordingly).
        Div,
        /// `a^b` (general power; rare — non-integer stoichiometry).
        Pow,
        /// `max(a, b)`.
        Max,
        /// `min(a, b)`.
        Min,
    }
}

impl UnOp {
    /// Issue slots (warp-instructions). Multi-slot costs reflect the FMA
    /// chains real hardware expands these into.
    pub fn issue_slots(self) -> usize {
        match self {
            UnOp::Mov | UnOp::Neg => 1,
            UnOp::Sqrt => 8,
            UnOp::Exp | UnOp::Log => 12,
            UnOp::Log10 => 13,
            UnOp::Cbrt => 14,
        }
    }

    /// Double-precision FLOPs per lane.
    pub fn flops(self) -> usize {
        match self {
            UnOp::Mov => 0,
            UnOp::Neg => 1,
            UnOp::Sqrt => 16,
            UnOp::Exp | UnOp::Log => 24,
            UnOp::Log10 => 26,
            UnOp::Cbrt => 28,
        }
    }

    /// Issue slots whose operand comes from the constant cache: the exp
    /// chain's series constants, unless the compiler kept them in
    /// registers.
    pub fn const_operand_slots(self, exp_from_regs: bool) -> usize {
        match self {
            UnOp::Exp if !exp_from_regs => 12,
            UnOp::Exp
            | UnOp::Mov
            | UnOp::Sqrt
            | UnOp::Log
            | UnOp::Log10
            | UnOp::Cbrt
            | UnOp::Neg => 0,
        }
    }
}

impl BinOp {
    /// Issue slots (warp-instructions).
    pub fn issue_slots(self) -> usize {
        match self {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Max | BinOp::Min => 1,
            BinOp::Div => 8,
            BinOp::Pow => 24,
        }
    }

    /// Double-precision FLOPs per lane.
    pub fn flops(self) -> usize {
        match self {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Max | BinOp::Min => 1,
            BinOp::Div => 16,
            BinOp::Pow => 48,
        }
    }
}

/// Index (integer) instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IdxInstr {
    /// `dst = src`.
    Mov { dst: IdxReg, src: IdxOp },
    /// `dst = a + b`.
    Add { dst: IdxReg, a: IdxOp, b: IdxOp },
    /// `dst = a * b`.
    Mul { dst: IdxReg, a: IdxOp, b: IdxOp },
    /// `dst = lane id` (0..32).
    LaneId { dst: IdxReg },
    /// `dst = warp id`.
    WarpId { dst: IdxReg },
    /// Load a warp-indexing constant from an integer constant bank (§5.3).
    LdConst { dst: IdxReg, bank: u16, idx: IdxOp },
    /// Broadcast an index register from a fixed lane (Kepler `__shfl`).
    Shfl { dst: IdxReg, src: IdxReg, lane: u8 },
    /// `dst = (point_set % k) * stride` — the rotating buffer-region
    /// offset of a K-stage pipelined schedule. `point_set` is the current
    /// [`Node::PointLoop`] iteration; all lanes receive the same value.
    PipeOff { dst: IdxReg, k: u8, stride: u32 },
}

/// The stage of a K-stage ring that point set `pset` falls in: `pset % k`,
/// a zero `k` reading as 1. The one rotation rule behind stage-rotated
/// barriers ([`Instr::barrier_op`]) and pipeline offsets
/// ([`IdxInstr::PipeOff`]).
pub fn stage_of(pset: u32, k: u8) -> u32 {
    pset % ring_len(k)
}

/// Stages of a ring declared with `k`: a zero `k` reads as 1.
fn ring_len(k: u8) -> u32 {
    u32::from(k.max(1))
}

impl IdxInstr {
    /// The register the instruction writes.
    pub fn dst(&self) -> IdxReg {
        match *self {
            IdxInstr::Mov { dst, .. }
            | IdxInstr::Add { dst, .. }
            | IdxInstr::Mul { dst, .. }
            | IdxInstr::LaneId { dst }
            | IdxInstr::WarpId { dst }
            | IdxInstr::LdConst { dst, .. }
            | IdxInstr::Shfl { dst, .. }
            | IdxInstr::PipeOff { dst, .. } => dst,
        }
    }

    /// What the instruction writes to [`IdxInstr::dst`] — which is in
    /// `file`'s range when this returns `Ok` — executed by warp `warp` at
    /// point set `pset` against the integer constant `banks`. Faults are
    /// typed and raised in a fixed order: the destination, then the operand
    /// registers, the bank, the bank elements.
    pub fn eval(
        &self,
        file: &mut impl IdxFile,
        warp: usize,
        pset: u32,
        banks: &[Vec<u32>],
    ) -> SimResult<IdxLanes> {
        ireg_in_file(self.dst(), file)?;
        Ok(match *self {
            IdxInstr::Mov { src, .. } => src.lanes(file)?,
            IdxInstr::Add { a, b, .. } => {
                let (a, b) = (a.lanes(file)?, b.lanes(file)?);
                std::array::from_fn(|l| a[l].wrapping_add(b[l]))
            }
            IdxInstr::Mul { a, b, .. } => {
                let (a, b) = (a.lanes(file)?, b.lanes(file)?);
                std::array::from_fn(|l| a[l].wrapping_mul(b[l]))
            }
            IdxInstr::LaneId { .. } => std::array::from_fn(|l| l as u32),
            IdxInstr::WarpId { .. } => [warp as u32; WARP_SIZE],
            IdxInstr::LdConst { bank, idx, .. } => {
                let bankv = banks.get(bank as usize).ok_or(SimError::OutOfBounds {
                    space: "iconst-bank",
                    addr: bank as usize,
                    limit: banks.len(),
                })?;
                let mut v = idx.lanes(file)?;
                for v in &mut v {
                    let i = *v as usize;
                    *v = *bankv.get(i).ok_or(SimError::OutOfBounds {
                        space: "iconst",
                        addr: i,
                        limit: bankv.len(),
                    })?;
                }
                v
            }
            IdxInstr::Shfl { src, lane, .. } => {
                ireg_in_file(src, file)?;
                // The file is lane-major and the lane is not reduced: one
                // past 31 reads on into the registers after `src`.
                let (r, l) = (src as usize + lane as usize / WARP_SIZE, lane as usize % WARP_SIZE);
                [file.lanes(r).ok_or_else(|| ireg_fault(src, file))?[l]; WARP_SIZE]
            }
            IdxInstr::PipeOff { k, stride, .. } => {
                [stage_of(pset, k).wrapping_mul(stride); WARP_SIZE]
            }
        })
    }

    /// Point sets after which the instruction evaluates as it did.
    fn stage_period(&self) -> u32 {
        match *self {
            IdxInstr::PipeOff { k, .. } => ring_len(k),
            IdxInstr::Mov { .. }
            | IdxInstr::Add { .. }
            | IdxInstr::Mul { .. }
            | IdxInstr::LaneId { .. }
            | IdxInstr::WarpId { .. }
            | IdxInstr::LdConst { .. }
            | IdxInstr::Shfl { .. } => 1,
        }
    }
}

/// A named-barrier operation with its barrier resolved
/// ([`Instr::barrier_op`]): PTX `bar.sync` when `sync`, else `bar.arrive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarOp {
    /// Barrier id.
    pub bar: u8,
    /// Warps the barrier's generation completes at.
    pub expected: u16,
    /// Blocking (`bar.sync`) or not (`bar.arrive`).
    pub sync: bool,
}

/// Executable instructions. Each executes for all 32 lanes of a warp in
/// lock step unless a lane predicate says otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = op(a)`.
    Un { op: UnOp, dst: Reg, a: Op },
    /// `dst = a op b`.
    Bin { op: BinOp, dst: Reg, a: Op, b: Op },
    /// `dst = a * b + c`. `const_c` marks the third operand as sourced from
    /// the constant cache, which has reduced throughput on Kepler (§6.1).
    DFma { dst: Reg, a: Op, b: Op, c: Op, const_c: bool },
    /// `dst = if pred != 0.0 { a } else { b }` — branch-free select.
    DSel { dst: Reg, pred: Reg, a: Op, b: Op },
    /// `dst = (a cmp b) ? 1.0 : 0.0`.
    DCmp { dst: Reg, cmp: Cmp, a: Op, b: Op },
    /// Global load; `ldg` uses the Kepler texture path (§6 baselines).
    LdGlobal { dst: Reg, addr: GAddr, ldg: bool },
    /// Global store.
    StGlobal { src: Op, addr: GAddr },
    /// Shared-memory load.
    LdShared { dst: Reg, addr: SAddr },
    /// Shared-memory store; `lane_pred` restricts to one lane (the Fermi
    /// shared-mirror broadcast of Listing 2 writes from a single lane).
    StShared { src: Op, addr: SAddr, lane_pred: Option<u8> },
    /// Load a double from a constant bank through the constant cache.
    LdConst { dst: Reg, bank: u16, idx: IdxOp },
    /// Local-memory (spill) load — per-thread slot.
    LdLocal { dst: Reg, slot: u32 },
    /// Local-memory (spill) store.
    StLocal { src: Op, slot: u32 },
    /// Broadcast `src` from a fixed lane to all lanes (Kepler shuffle;
    /// costed as the two 32-bit shuffles of Listing 3).
    Shfl { dst: Reg, src: Reg, lane: u8 },
    /// Index-register operation.
    Idx(IdxInstr),
    /// Non-blocking named-barrier arrival (PTX `bar.arrive`).
    BarArrive { bar: u8, warps: u16 },
    /// Blocking named-barrier wait (PTX `bar.sync`).
    BarSync { bar: u8, warps: u16 },
    /// Stage-rotated [`Instr::BarArrive`]: arrives at barrier
    /// `base + point_set % k`, where `point_set` is the current
    /// [`Node::PointLoop`] iteration. K-stage pipelined schedules use one
    /// such instruction where a single-buffered schedule uses a fixed
    /// barrier id, giving each in-flight buffer region its own
    /// full/empty barrier pair.
    BarArriveStage { base: u8, k: u8, warps: u16 },
    /// Stage-rotated [`Instr::BarSync`]: waits on `base + point_set % k`.
    BarSyncStage { base: u8, k: u8, warps: u16 },
    /// Async-copy (Hopper-class `cp.async`): move one value per lane from
    /// global `array[row][point]` directly into shared memory at `addr`
    /// without staging through a register. Functionally the copy is
    /// visible immediately (the simulator has no split
    /// commit/wait-group); ordering against consumers is entirely the
    /// job of the surrounding barrier protocol, which the schedule
    /// verifier checks.
    CpAsync { addr: SAddr, array: GlobalId, row: IdxOp, point: PointRef },
}

/// How an instruction touches a double register ([`Instr::visit_regs_mut`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegRole {
    /// The instruction writes the register.
    Def,
    /// The instruction reads the register.
    Use,
}

impl Instr {
    /// `dst = src`.
    pub fn mov(dst: Reg, src: Op) -> Instr {
        Instr::Un { op: UnOp::Mov, dst, a: src }
    }

    /// `(issue slots, flops per lane, DP slots with a constant-cache
    /// operand)`: the one cost table behind the accessors below.
    fn cost(&self, exp_from_regs: bool) -> (usize, usize, usize) {
        match self {
            Instr::Un { op, .. } => {
                (op.issue_slots(), op.flops(), op.const_operand_slots(exp_from_regs))
            }
            Instr::Bin { op, .. } => (op.issue_slots(), op.flops(), 0),
            Instr::DFma { const_c, .. } => (1, 2, usize::from(*const_c)),
            Instr::DSel { .. } | Instr::DCmp { .. } => (1, 1, 0),
            Instr::Shfl { .. } => (2, 0, 0), // hi/lo 32-bit shuffle pair (Listing 3)
            Instr::LdGlobal { .. }
            | Instr::StGlobal { .. }
            | Instr::LdShared { .. }
            | Instr::StShared { .. }
            | Instr::LdConst { .. }
            | Instr::LdLocal { .. }
            | Instr::StLocal { .. }
            | Instr::Idx(_)
            | Instr::BarArrive { .. }
            | Instr::BarSync { .. }
            | Instr::BarArriveStage { .. }
            | Instr::BarSyncStage { .. }
            | Instr::CpAsync { .. } => (1, 0, 0),
        }
    }

    /// Issue slots this instruction occupies (warp-instructions).
    pub fn issue_slots(&self) -> usize {
        self.cost(false).0
    }

    /// Double-precision floating-point operations performed per lane
    /// (FMA = 2, matching how the paper counts GFLOPS).
    pub fn flops(&self) -> usize {
        self.cost(false).1
    }

    /// True if the instruction issues on the double-precision pipe.
    pub fn is_dp(&self) -> bool {
        self.flops() > 0
    }

    /// DP issue slots whose operand comes from the constant cache (reduced
    /// throughput on Kepler, §6.1). `exp_from_regs` is the ablation switch:
    /// when the compiler keeps the exp-series constants in registers, the
    /// exp chain no longer touches the constant cache.
    pub fn const_operand_slots(&self, exp_from_regs: bool) -> usize {
        self.cost(exp_from_regs).2
    }

    /// True for the ops a barrier-protocol or shared-memory analysis must
    /// model: anything that writes an index register, touches shared
    /// memory, or operates a named barrier. Everything else is arithmetic
    /// and global/constant/local traffic with no effect on that state.
    pub fn is_sync_relevant(&self) -> bool {
        match self {
            Instr::Idx(_)
            | Instr::LdShared { .. }
            | Instr::StShared { .. }
            | Instr::CpAsync { .. }
            | Instr::BarArrive { .. }
            | Instr::BarSync { .. }
            | Instr::BarArriveStage { .. }
            | Instr::BarSyncStage { .. } => true,
            Instr::Un { .. }
            | Instr::Bin { .. }
            | Instr::DFma { .. }
            | Instr::DSel { .. }
            | Instr::DCmp { .. }
            | Instr::LdGlobal { .. }
            | Instr::StGlobal { .. }
            | Instr::LdConst { .. }
            | Instr::LdLocal { .. }
            | Instr::StLocal { .. }
            | Instr::Shfl { .. } => false,
        }
    }

    /// The barrier operation this instruction is when executed at point set
    /// `pset`, if it is one: a stage-rotated barrier resolves to barrier
    /// `base + pset % k` ([`stage_of`]).
    pub fn barrier_op(&self, pset: u32) -> Option<BarOp> {
        let staged = |base: u8, k| base.wrapping_add(stage_of(pset, k) as u8);
        let (bar, expected, sync) = match *self {
            Instr::BarArrive { bar, warps } => (bar, warps, false),
            Instr::BarSync { bar, warps } => (bar, warps, true),
            Instr::BarArriveStage { base, k, warps } => (staged(base, k), warps, false),
            Instr::BarSyncStage { base, k, warps } => (staged(base, k), warps, true),
            Instr::Un { .. }
            | Instr::Bin { .. }
            | Instr::DFma { .. }
            | Instr::DSel { .. }
            | Instr::DCmp { .. }
            | Instr::LdGlobal { .. }
            | Instr::StGlobal { .. }
            | Instr::LdShared { .. }
            | Instr::StShared { .. }
            | Instr::LdConst { .. }
            | Instr::LdLocal { .. }
            | Instr::StLocal { .. }
            | Instr::Shfl { .. }
            | Instr::Idx(_)
            | Instr::CpAsync { .. } => return None,
        };
        Some(BarOp { bar, expected, sync })
    }

    /// Point sets after which the instruction means what it meant: `k` for
    /// what rotates with [`stage_of`], 1 for everything else.
    pub fn stage_period(&self) -> u32 {
        match self {
            Instr::BarArriveStage { k, .. } | Instr::BarSyncStage { k, .. } => ring_len(*k),
            Instr::Idx(ii) => ii.stage_period(),
            Instr::Un { .. }
            | Instr::Bin { .. }
            | Instr::DFma { .. }
            | Instr::DSel { .. }
            | Instr::DCmp { .. }
            | Instr::LdGlobal { .. }
            | Instr::StGlobal { .. }
            | Instr::LdShared { .. }
            | Instr::StShared { .. }
            | Instr::LdConst { .. }
            | Instr::LdLocal { .. }
            | Instr::StLocal { .. }
            | Instr::Shfl { .. }
            | Instr::BarArrive { .. }
            | Instr::BarSync { .. }
            | Instr::CpAsync { .. } => 1,
        }
    }

    /// Visit every double-register operand mutably: the destination first,
    /// then the sources in operand order. The one place that knows which
    /// fields of an instruction name a double register.
    pub fn visit_regs_mut(&mut self, f: &mut impl FnMut(&mut Reg, RegRole)) {
        fn src(o: &mut Op, f: &mut impl FnMut(&mut Reg, RegRole)) {
            if let Op::Reg(r) = o {
                f(r, RegRole::Use);
            }
        }
        match self {
            Instr::Un { dst, a, .. } => {
                f(dst, RegRole::Def);
                src(a, f);
            }
            Instr::Bin { dst, a, b, .. } | Instr::DCmp { dst, a, b, .. } => {
                f(dst, RegRole::Def);
                src(a, f);
                src(b, f);
            }
            Instr::DFma { dst, a, b, c, .. } => {
                f(dst, RegRole::Def);
                src(a, f);
                src(b, f);
                src(c, f);
            }
            Instr::DSel { dst, pred, a, b } => {
                f(dst, RegRole::Def);
                f(pred, RegRole::Use);
                src(a, f);
                src(b, f);
            }
            Instr::Shfl { dst, src: s, .. } => {
                f(dst, RegRole::Def);
                f(s, RegRole::Use);
            }
            Instr::LdGlobal { dst, .. }
            | Instr::LdShared { dst, .. }
            | Instr::LdConst { dst, .. }
            | Instr::LdLocal { dst, .. } => f(dst, RegRole::Def),
            Instr::StGlobal { src: s, .. }
            | Instr::StShared { src: s, .. }
            | Instr::StLocal { src: s, .. } => src(s, f),
            Instr::Idx(_)
            | Instr::BarArrive { .. }
            | Instr::BarSync { .. }
            | Instr::BarArriveStage { .. }
            | Instr::BarSyncStage { .. }
            | Instr::CpAsync { .. } => {}
        }
    }

    /// Read-only [`Instr::visit_regs_mut`]: the same registers in the same
    /// order, by value.
    pub fn visit_regs(&self, mut f: impl FnMut(Reg, RegRole)) {
        self.clone().visit_regs_mut(&mut |r, role| f(*r, role));
    }
}

/// Structured control-flow tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A straight-line instruction.
    Op(Instr),
    /// Executed only by warps whose bit is set in `mask` — the one-hot
    /// bit-mask branch of §5.1 / Listing 1.
    WarpIf {
        /// One bit per warp id.
        mask: u64,
        /// Body.
        body: Vec<Node>,
    },
    /// Indirect branch on warp id (§5.1): warp `w` executes
    /// `cases[case_of_warp[w]]`.
    WarpSwitch {
        /// Case index per warp id (length = warps per CTA).
        case_of_warp: Vec<usize>,
        /// Case bodies.
        cases: Vec<Vec<Node>>,
    },
    /// Uniform counted loop (all warps run all iterations).
    Loop {
        /// Trip count.
        count: u32,
        /// Body.
        body: Vec<Node>,
    },
    /// Streaming point loop (§5.2): the CTA iterates over `iters` sets of
    /// 32 points; `PointRef::Lane` resolves against the current set.
    PointLoop {
        /// Number of 32-point sets.
        iters: u32,
        /// Body.
        body: Vec<Node>,
    },
}

/// A declared global array (SoA field: `rows x points` doubles).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Name for diagnostics.
    pub name: String,
    /// Row count (fields/species); each row holds one value per point.
    pub rows: usize,
    /// True if the kernel writes it (outputs are returned by the launcher).
    pub output: bool,
}

/// A complete compiled kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Structured body.
    pub body: Vec<Node>,
    /// Warps per CTA.
    pub warps_per_cta: usize,
    /// Grid points each CTA processes in total (across its point loop).
    pub points_per_cta: usize,
    /// Double registers per thread.
    pub dregs_per_thread: usize,
    /// Index registers per thread.
    pub iregs_per_thread: usize,
    /// Shared memory words (f64) per CTA.
    pub shared_words: usize,
    /// Local (spill) words per thread.
    pub local_words_per_thread: usize,
    /// Double-precision constant banks (constant memory contents).
    pub const_banks: Vec<Vec<f64>>,
    /// Integer constant banks (warp-indexing constants, §5.3).
    pub iconst_banks: Vec<Vec<u32>>,
    /// Distinct named barriers used.
    pub barriers_used: usize,
    /// Declared global arrays; inputs then outputs in any order.
    pub global_arrays: Vec<ArrayDecl>,
    /// Spill bytes per thread (compiler metadata, §6.3 reporting).
    pub spilled_bytes_per_thread: usize,
    /// Ablation switch: exp-series constants kept in registers (§6.1's
    /// "incorrect exponential" experiment — removes the const-operand
    /// throughput penalty).
    pub exp_const_from_registers: bool,
}

impl Kernel {
    /// Equivalent 32-bit registers per thread (doubles take two).
    pub fn regs32_per_thread(&self) -> usize {
        self.dregs_per_thread * 2 + self.iregs_per_thread
    }

    /// Threads per CTA.
    pub fn threads_per_cta(&self) -> usize {
        self.warps_per_cta * crate::WARP_SIZE
    }

    /// Shared memory bytes per CTA.
    pub fn shared_bytes(&self) -> usize {
        self.shared_words * 8
    }

    /// Static instruction count (code footprint for the icache model).
    pub fn static_instructions(&self) -> usize {
        fn count(nodes: &[Node]) -> usize {
            nodes
                .iter()
                .map(|n| match n {
                    Node::Op(_) => 1,
                    Node::WarpIf { body, .. } => 1 + count(body),
                    Node::WarpSwitch { cases, .. } => {
                        1 + cases.iter().map(|c| count(c)).sum::<usize>()
                    }
                    Node::Loop { body, .. } | Node::PointLoop { body, .. } => 1 + count(body),
                })
                .sum()
        }
        count(&self.body)
    }

    /// Sum of double constants across banks (for Figure 10 style reports).
    pub fn total_dconstants(&self) -> usize {
        self.const_banks.iter().map(|b| b.len()).sum()
    }

    /// Quick structural sanity checks (`Mov` register ids in range, barrier
    /// ids in range, global ids declared). Returns a description of the
    /// first problem found. Deliberately partial, hence the catch-all arm:
    /// out-of-range registers in streams that never execute are legal and
    /// trap positionally at run time.
    #[allow(clippy::wildcard_enum_match_arm)]
    pub fn check(&self) -> Result<(), String> {
        let mut err = None;
        self.visit_ops(&mut |i| {
            if err.is_some() {
                return;
            }
            let mut chk_reg = |r: Reg, what: &str| {
                if usize::from(r) >= self.dregs_per_thread {
                    err = Some(format!("{what} register r{r} out of range"));
                }
            };
            match i {
                Instr::Un { op: UnOp::Mov, dst, a } => {
                    chk_reg(*dst, "dst");
                    if let Op::Reg(r) = a {
                        chk_reg(*r, "src");
                    }
                }
                Instr::BarArrive { bar, .. } | Instr::BarSync { bar, .. }
                    if usize::from(*bar) >= self.barriers_used => {
                        err = Some(format!("barrier {bar} out of declared range"));
                    }
                Instr::BarArriveStage { base, k, .. } | Instr::BarSyncStage { base, k, .. }
                    if *k == 0
                        || usize::from(*base) + usize::from(*k) > self.barriers_used => {
                        err = Some(format!(
                            "stage barriers {base}..{base}+{k} out of declared range"
                        ));
                    }
                Instr::CpAsync { array, .. } if array.0 >= self.global_arrays.len() => {
                    err = Some(format!("global array {} undeclared", array.0));
                }
                Instr::LdGlobal { addr, .. } | Instr::StGlobal { addr, .. }
                    if addr.array.0 >= self.global_arrays.len() => {
                        err = Some(format!("global array {} undeclared", addr.array.0));
                    }
                Instr::LdConst { bank, .. }
                    if usize::from(*bank) >= self.const_banks.len() => {
                        err = Some(format!("const bank {bank} undeclared"));
                    }
                _ => {}
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Visit every instruction in the tree (all branches).
    pub fn visit_ops(&self, f: &mut impl FnMut(&Instr)) {
        fn walk(nodes: &[Node], f: &mut impl FnMut(&Instr)) {
            for n in nodes {
                match n {
                    Node::Op(i) => f(i),
                    Node::WarpIf { body, .. } => walk(body, f),
                    Node::WarpSwitch { cases, .. } => {
                        for c in cases {
                            walk(c, f);
                        }
                    }
                    Node::Loop { body, .. } | Node::PointLoop { body, .. } => walk(body, f),
                }
            }
        }
        walk(&self.body, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One instruction per [`Instr`] variant and per operator / operand
    /// shape inside it, each with the double registers the visitor must
    /// report (distinct ids, so the order is pinned too). The list every
    /// single-source test drives: costs and visitor here, the codec and the
    /// fingerprint in [`codec`]. [`samples_cover_every_shape`] keeps it
    /// exhaustive.
    pub(super) fn samples() -> Vec<(Instr, Vec<(Reg, RegRole)>)> {
        use RegRole::{Def, Use};
        let (ra, ib, imm) = (Op::Reg(2), Op::Reg(3), Op::Imm(-0.5));
        let ga = |point| GAddr { array: GlobalId(1), row: IdxOp::Reg(4), point };
        let mut v = Vec::new();
        for &op in UnOp::ALL {
            v.push((Instr::Un { op, dst: 1, a: ra }, vec![(1, Def), (2, Use)]));
        }
        for &op in BinOp::ALL {
            v.push((Instr::Bin { op, dst: 1, a: ra, b: ib }, vec![(1, Def), (2, Use), (3, Use)]));
        }
        for &cmp in Cmp::ALL {
            v.push((Instr::DCmp { dst: 1, cmp, a: imm, b: ib }, vec![(1, Def), (3, Use)]));
        }
        for const_c in [false, true] {
            v.push((
                Instr::DFma { dst: 1, a: ra, b: imm, c: Op::Reg(5), const_c },
                vec![(1, Def), (2, Use), (5, Use)],
            ));
        }
        v.push((
            Instr::DSel { dst: 1, pred: 6, a: ra, b: ib },
            vec![(1, Def), (6, Use), (2, Use), (3, Use)],
        ));
        for point in [PointRef::Lane, PointRef::Thread, PointRef::Reg(7)] {
            v.push((Instr::LdGlobal { dst: 1, addr: ga(point), ldg: true }, vec![(1, Def)]));
        }
        v.push((
            Instr::StGlobal {
                src: ra,
                addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(9), point: PointRef::Lane },
            },
            vec![(2, Use)],
        ));
        for addr in [SAddr::lane(8), SAddr::dyn_uniform(3, 8)] {
            v.push((Instr::LdShared { dst: 1, addr }, vec![(1, Def)]));
        }
        for lane_pred in [None, Some(31)] {
            let st = Instr::StShared { src: ra, addr: SAddr::dyn_lane(2, 5), lane_pred };
            v.push((st, vec![(2, Use)]));
        }
        v.push((Instr::LdConst { dst: 1, bank: 2, idx: IdxOp::Reg(1) }, vec![(1, Def)]));
        v.push((Instr::LdLocal { dst: 1, slot: 3 }, vec![(1, Def)]));
        v.push((Instr::StLocal { src: ra, slot: 3 }, vec![(2, Use)]));
        v.push((Instr::Shfl { dst: 1, src: 2, lane: 17 }, vec![(1, Def), (2, Use)]));
        for ii in [
            IdxInstr::Mov { dst: 1, src: IdxOp::Imm(7) },
            IdxInstr::Add { dst: 1, a: IdxOp::Reg(2), b: IdxOp::Imm(3) },
            IdxInstr::Mul { dst: 1, a: IdxOp::Imm(2), b: IdxOp::Reg(3) },
            IdxInstr::LaneId { dst: 1 },
            IdxInstr::WarpId { dst: 1 },
            IdxInstr::LdConst { dst: 1, bank: 2, idx: IdxOp::Reg(3) },
            IdxInstr::Shfl { dst: 1, src: 2, lane: 3 },
            IdxInstr::PipeOff { dst: 1, k: 3, stride: 2880 },
        ] {
            v.push((Instr::Idx(ii), vec![]));
        }
        v.push((Instr::BarArrive { bar: 1, warps: 2 }, vec![]));
        v.push((Instr::BarSync { bar: 1, warps: 2 }, vec![]));
        v.push((Instr::BarArriveStage { base: 1, k: 2, warps: 3 }, vec![]));
        v.push((Instr::BarSyncStage { base: 1, k: 2, warps: 3 }, vec![]));
        v.push((
            Instr::CpAsync {
                addr: SAddr::dyn_lane(1, 7),
                array: GlobalId(0),
                row: IdxOp::Reg(2),
                point: PointRef::Lane,
            },
            vec![],
        ));
        v
    }

    /// `(variant, shape within the variant, shapes the variant has)`.
    /// Exhaustive matches, so a new variant or sub-instruction does not
    /// compile until it is placed here — and then fails
    /// [`samples_cover_every_shape`] until [`samples`] has an instance.
    fn shape(i: &Instr) -> (usize, usize, usize) {
        match i {
            Instr::Un { op, .. } => (0, *op as usize, UnOp::ALL.len()),
            Instr::Bin { op, .. } => (1, *op as usize, BinOp::ALL.len()),
            Instr::DFma { const_c, .. } => (2, usize::from(*const_c), 2),
            Instr::DSel { .. } => (3, 0, 1),
            Instr::DCmp { cmp, .. } => (4, *cmp as usize, Cmp::ALL.len()),
            Instr::LdGlobal { addr, .. } => {
                let p = match addr.point {
                    PointRef::Lane => 0,
                    PointRef::Thread => 1,
                    PointRef::Reg(_) => 2,
                };
                (5, p, 3)
            }
            Instr::StGlobal { .. } => (6, 0, 1),
            Instr::LdShared { addr, .. } => (7, usize::from(addr.base.is_some()), 2),
            Instr::StShared { lane_pred, .. } => (8, usize::from(lane_pred.is_some()), 2),
            Instr::LdConst { .. } => (9, 0, 1),
            Instr::LdLocal { .. } => (10, 0, 1),
            Instr::StLocal { .. } => (11, 0, 1),
            Instr::Shfl { .. } => (12, 0, 1),
            Instr::Idx(ii) => {
                let sub = match ii {
                    IdxInstr::Mov { .. } => 0,
                    IdxInstr::Add { .. } => 1,
                    IdxInstr::Mul { .. } => 2,
                    IdxInstr::LaneId { .. } => 3,
                    IdxInstr::WarpId { .. } => 4,
                    IdxInstr::LdConst { .. } => 5,
                    IdxInstr::Shfl { .. } => 6,
                    IdxInstr::PipeOff { .. } => 7,
                };
                (13, sub, 8)
            }
            Instr::BarArrive { .. } => (14, 0, 1),
            Instr::BarSync { .. } => (15, 0, 1),
            Instr::BarArriveStage { .. } => (16, 0, 1),
            Instr::BarSyncStage { .. } => (17, 0, 1),
            Instr::CpAsync { .. } => (18, 0, 1),
        }
    }

    #[test]
    fn samples_cover_every_shape() {
        let mut seen: Vec<Vec<bool>> = Vec::new();
        for (i, _) in samples() {
            let (variant, sub, n) = shape(&i);
            if seen.len() <= variant {
                seen.resize(variant + 1, Vec::new());
            }
            seen[variant].resize(n, false);
            seen[variant][sub] = true;
        }
        assert_eq!(seen.len(), 19, "a variant has no sample");
        for (variant, subs) in seen.iter().enumerate() {
            assert!(!subs.is_empty() && subs.iter().all(|&s| s), "variant {variant}: {subs:?}");
        }
        for (ops, all) in [(UnOp::ALL.len(), 7), (BinOp::ALL.len(), 7), (Cmp::ALL.len(), 6)] {
            assert_eq!(ops, all);
        }
        // `ALL` is indexed by discriminant (the codec reads through it).
        assert!(UnOp::ALL.iter().enumerate().all(|(i, o)| *o as usize == i));
        assert!(BinOp::ALL.iter().enumerate().all(|(i, o)| *o as usize == i));
        assert!(Cmp::ALL.iter().enumerate().all(|(i, o)| *o as usize == i));
    }

    #[test]
    fn static_costs_are_pinned_for_every_op() {
        // (issue slots, flops, const slots exp-from-cache, exp-from-regs).
        let un = |op| match op {
            UnOp::Mov => (1, 0, 0, 0),
            UnOp::Sqrt => (8, 16, 0, 0),
            UnOp::Exp => (12, 24, 12, 0),
            UnOp::Log => (12, 24, 0, 0),
            UnOp::Log10 => (13, 26, 0, 0),
            UnOp::Cbrt => (14, 28, 0, 0),
            UnOp::Neg => (1, 1, 0, 0),
        };
        let bin = |op| match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Max | BinOp::Min => (1, 1, 0, 0),
            BinOp::Div => (8, 16, 0, 0),
            BinOp::Pow => (24, 48, 0, 0),
        };
        for (i, _) in samples() {
            let want = match &i {
                Instr::Un { op, .. } => un(*op),
                Instr::Bin { op, .. } => bin(*op),
                Instr::DFma { const_c: false, .. } => (1, 2, 0, 0),
                Instr::DFma { const_c: true, .. } => (1, 2, 1, 1),
                Instr::DSel { .. } | Instr::DCmp { .. } => (1, 1, 0, 0),
                Instr::Shfl { .. } => (2, 0, 0, 0),
                Instr::LdGlobal { .. }
                | Instr::StGlobal { .. }
                | Instr::LdShared { .. }
                | Instr::StShared { .. }
                | Instr::LdConst { .. }
                | Instr::LdLocal { .. }
                | Instr::StLocal { .. }
                | Instr::Idx(_)
                | Instr::BarArrive { .. }
                | Instr::BarSync { .. }
                | Instr::BarArriveStage { .. }
                | Instr::BarSyncStage { .. }
                | Instr::CpAsync { .. } => (1, 0, 0, 0),
            };
            let got = (
                i.issue_slots(),
                i.flops(),
                i.const_operand_slots(false),
                i.const_operand_slots(true),
            );
            assert_eq!(got, want, "{i:?}");
            assert_eq!(i.is_dp(), want.1 > 0, "{i:?}");
        }
    }

    #[test]
    fn visitor_reports_and_moves_exactly_the_double_registers() {
        let regs = |i: &Instr| {
            let mut v = Vec::new();
            i.visit_regs(|r, role| v.push((r, role)));
            v
        };
        for (i, want) in samples() {
            assert_eq!(regs(&i), want, "{i:?}");
            let mut same = i.clone();
            same.visit_regs_mut(&mut |_, _| {});
            assert_eq!(same, i);
            let mut moved = i.clone();
            moved.visit_regs_mut(&mut |r, _| *r += 1);
            let bumped: Vec<_> = want.iter().map(|&(r, role)| (r + 1, role)).collect();
            assert_eq!(regs(&moved), bumped, "{i:?}");
            // Nothing but those registers changed: undoing the shift
            // restores the instruction.
            moved.visit_regs_mut(&mut |r, _| *r -= 1);
            assert_eq!(moved, i);
        }
    }

    #[test]
    fn sync_relevance_is_index_shared_and_barrier_ops() {
        for (i, _) in samples() {
            let (variant, ..) = shape(&i);
            assert_eq!(i.is_sync_relevant(), matches!(variant, 7 | 8 | 13..=18), "{i:?}");
        }
    }

    #[test]
    fn index_instructions_evaluate_to_their_definitions() {
        // Three registers of distinct lanes. The interpreter executes this
        // function and lowering folds its results, so their differential
        // no longer tests it: the values are pinned here.
        let file: Vec<u32> = (0..3 * 32).map(|e| e * 7 + 1).collect();
        let reg = |r: usize| -> IdxLanes { file[r * 32..(r + 1) * 32].try_into().unwrap() };
        let banks = vec![vec![5, 6, 7, 8]];
        let eval = |ii: IdxInstr, pset| ii.eval(&mut file.clone(), 5, pset, &banks);
        let lanes = |f: &dyn Fn(usize) -> u32| -> IdxLanes { std::array::from_fn(f) };
        let (r0, r1) = (reg(0), reg(1));
        for (ii, want) in [
            (IdxInstr::Mov { dst: 2, src: IdxOp::Reg(1) }, r1),
            (IdxInstr::Mov { dst: 2, src: IdxOp::Imm(9) }, [9; 32]),
            (
                IdxInstr::Add { dst: 0, a: IdxOp::Reg(0), b: IdxOp::Imm(u32::MAX) },
                lanes(&|l| r0[l] - 1),
            ),
            (
                IdxInstr::Mul { dst: 0, a: IdxOp::Reg(1), b: IdxOp::Reg(0) },
                lanes(&|l| r1[l].wrapping_mul(r0[l])),
            ),
            (IdxInstr::Mul { dst: 1, a: IdxOp::Imm(1 << 31), b: IdxOp::Imm(2) }, [0; 32]),
            (IdxInstr::LaneId { dst: 1 }, lanes(&|l| l as u32)),
            (IdxInstr::WarpId { dst: 1 }, [5; 32]),
            (IdxInstr::LdConst { dst: 1, bank: 0, idx: IdxOp::Imm(3) }, [8; 32]),
            (IdxInstr::Shfl { dst: 1, src: 0, lane: 3 }, [r0[3]; 32]),
            // A lane past the warp reads on into the next register.
            (IdxInstr::Shfl { dst: 1, src: 0, lane: 40 }, [r1[8]; 32]),
            (IdxInstr::PipeOff { dst: 1, k: 3, stride: 10 }, [10; 32]),
            (IdxInstr::PipeOff { dst: 1, k: 0, stride: 10 }, [0; 32]),
        ] {
            assert_eq!(eval(ii, 4), Ok(want), "{ii:?}");
        }
        let mut by_lane = vec![0; 32];
        by_lane.extend((0..32).map(|l| l % 4));
        let ld = IdxInstr::LdConst { dst: 0, bank: 0, idx: IdxOp::Reg(1) };
        assert_eq!(ld.eval(&mut by_lane, 0, 0, &banks), Ok(lanes(&|l| 5 + l as u32 % 4)));

        // Faults are typed, and the first in order wins: destination,
        // operand registers, bank, elements.
        let oob = |space, addr, limit| Err(SimError::OutOfBounds { space, addr, limit });
        for (ii, want) in [
            (IdxInstr::Mov { dst: 3, src: IdxOp::Reg(9) }, oob("ireg", 3, 3)),
            (IdxInstr::Add { dst: 0, a: IdxOp::Reg(4), b: IdxOp::Reg(9) }, oob("ireg", 4, 3)),
            (IdxInstr::Mul { dst: 0, a: IdxOp::Imm(1), b: IdxOp::Reg(9) }, oob("ireg", 9, 3)),
            (IdxInstr::LdConst { dst: 0, bank: 1, idx: IdxOp::Reg(9) }, oob("iconst-bank", 1, 1)),
            (IdxInstr::LdConst { dst: 0, bank: 0, idx: IdxOp::Reg(9) }, oob("ireg", 9, 3)),
            (IdxInstr::LdConst { dst: 0, bank: 0, idx: IdxOp::Imm(4) }, oob("iconst", 4, 4)),
            (IdxInstr::Shfl { dst: 0, src: 3, lane: 0 }, oob("ireg", 3, 3)),
            (IdxInstr::Shfl { dst: 0, src: 2, lane: 32 }, oob("ireg", 2, 3)),
        ] {
            assert_eq!(eval(ii, 0), want, "{ii:?}");
        }

        let addr = SAddr { base: Some(1), imm: 7, lane_stride: 3 };
        let words: [usize; 32] = std::array::from_fn(|l| r1[l] as usize + 7 + 3 * l);
        assert_eq!(addr.lanes(&mut file.clone()), Ok(words));
        assert_eq!(SAddr::uniform(5).lanes(&mut Vec::new()), Ok([5; 32]));
        let past = SAddr::dyn_lane(3, 0).lanes(&mut file.clone());
        assert_eq!(past.map(|_| ()), Err(SimError::OutOfBounds { space: "ireg", addr: 3, limit: 3 }));
    }

    #[test]
    fn barrier_ops_resolve_against_the_point_set() {
        for (i, _) in samples() {
            let (variant, sub, _) = shape(&i);
            assert_eq!(i.barrier_op(0).is_some(), matches!(variant, 14..=17), "{i:?}");
            let rotates = matches!(variant, 16 | 17) || (variant, sub) == (13, 7);
            assert_eq!(i.stage_period() > 1, rotates, "{i:?}");
        }
        let op = |bar, expected, sync| Some(BarOp { bar, expected, sync });
        assert_eq!(Instr::BarArrive { bar: 4, warps: 2 }.barrier_op(9), op(4, 2, false));
        assert_eq!(Instr::BarSync { bar: 4, warps: 2 }.barrier_op(9), op(4, 2, true));
        for pset in 0..7 {
            let stage = (pset % 3) as u8;
            let arrive = Instr::BarArriveStage { base: 2, k: 3, warps: 5 };
            let sync = Instr::BarSyncStage { base: 2, k: 3, warps: 5 };
            assert_eq!(arrive.barrier_op(pset), op(2 + stage, 5, false));
            assert_eq!(sync.barrier_op(pset), op(2 + stage, 5, true));
            assert_eq!(stage_of(pset, 3), u32::from(stage));
            // A ring of no stages reads as a ring of one.
            assert_eq!(Instr::BarSyncStage { base: 2, k: 0, warps: 5 }.barrier_op(pset), op(2, 5, true));
        }
        assert_eq!(Instr::BarSyncStage { base: 2, k: 3, warps: 5 }.stage_period(), 3);
        assert_eq!(Instr::Idx(IdxInstr::PipeOff { dst: 0, k: 4, stride: 1 }).stage_period(), 4);
    }

    fn empty_kernel() -> Kernel {
        Kernel {
            name: "t".into(),
            body: vec![],
            warps_per_cta: 4,
            points_per_cta: 32,
            dregs_per_thread: 8,
            iregs_per_thread: 2,
            shared_words: 64,
            local_words_per_thread: 0,
            const_banks: vec![],
            iconst_banks: vec![],
            barriers_used: 0,
            global_arrays: vec![],
            spilled_bytes_per_thread: 0,
            exp_const_from_registers: false,
        }
    }

    #[test]
    fn regs32_counts_doubles_twice() {
        let k = empty_kernel();
        assert_eq!(k.regs32_per_thread(), 18);
        assert_eq!(k.threads_per_cta(), 128);
        assert_eq!(k.shared_bytes(), 512);
    }

    #[test]
    fn issue_slots_and_flops() {
        let fma = Instr::DFma { dst: 0, a: Op::Imm(1.0), b: Op::Imm(2.0), c: Op::Imm(3.0), const_c: false };
        assert_eq!(fma.issue_slots(), 1);
        assert_eq!(fma.flops(), 2);
        let exp = Instr::Un { op: UnOp::Exp, dst: 0, a: Op::Imm(1.0) };
        assert_eq!(exp.issue_slots(), 12);
        assert_eq!(exp.flops(), 24);
        assert!(exp.is_dp());
        let shfl = Instr::Shfl { dst: 0, src: 1, lane: 3 };
        assert_eq!(shfl.issue_slots(), 2);
        assert_eq!(shfl.flops(), 0);
        assert!(!shfl.is_dp());
    }

    #[test]
    fn const_operand_slots_and_ablation() {
        let exp = Instr::Un { op: UnOp::Exp, dst: 0, a: Op::Imm(1.0) };
        assert_eq!(exp.const_operand_slots(false), 12);
        assert_eq!(exp.const_operand_slots(true), 0);
        let fma_c = Instr::DFma { dst: 0, a: Op::Imm(1.0), b: Op::Imm(2.0), c: Op::Imm(3.0), const_c: true };
        assert_eq!(fma_c.const_operand_slots(false), 1);
        assert_eq!(fma_c.const_operand_slots(true), 1);
    }

    #[test]
    fn static_instruction_count_covers_all_branches() {
        let mut k = empty_kernel();
        k.body = vec![
            Node::Op(Instr::mov(0, Op::Imm(0.0))),
            Node::WarpSwitch {
                case_of_warp: vec![0, 0, 1, 1],
                cases: vec![
                    vec![Node::Op(Instr::mov(1, Op::Imm(1.0)))],
                    vec![
                        Node::Op(Instr::mov(1, Op::Imm(2.0))),
                        Node::Op(Instr::mov(2, Op::Imm(3.0))),
                    ],
                ],
            },
            Node::Loop {
                count: 4,
                body: vec![Node::Op(Instr::Bin {
                    op: BinOp::Add,
                    dst: 0,
                    a: Op::Reg(0),
                    b: Op::Imm(1.0),
                })],
            },
        ];
        // 1 + (1 + 1 + 2) + (1 + 1)
        assert_eq!(k.static_instructions(), 7);
    }

    #[test]
    fn check_catches_out_of_range() {
        let mut k = empty_kernel();
        k.body = vec![Node::Op(Instr::mov(99, Op::Imm(0.0)))];
        assert!(k.check().is_err());
        k.body = vec![Node::Op(Instr::BarSync { bar: 3, warps: 2 })];
        assert!(k.check().is_err());
        k.barriers_used = 4;
        assert!(k.check().is_ok());
    }

    #[test]
    fn check_catches_stage_barrier_and_cp_async_ranges() {
        let mut k = empty_kernel();
        // base 2 + k 3 needs barriers 2..5 declared.
        k.body = vec![Node::Op(Instr::BarSyncStage { base: 2, k: 3, warps: 2 })];
        k.barriers_used = 4;
        assert!(k.check().is_err());
        k.barriers_used = 5;
        assert!(k.check().is_ok());
        // k = 0 is malformed regardless of the declared budget.
        k.body = vec![Node::Op(Instr::BarArriveStage { base: 0, k: 0, warps: 2 })];
        assert!(k.check().is_err());
        // CpAsync must name a declared array.
        k.body = vec![Node::Op(Instr::CpAsync {
            addr: SAddr::lane(0),
            array: GlobalId(0),
            row: IdxOp::Imm(0),
            point: PointRef::Lane,
        })];
        assert!(k.check().is_err());
        k.global_arrays.push(ArrayDecl { name: "a".into(), rows: 1, output: false });
        assert!(k.check().is_ok());
        // One issue slot, no flops: a pure memory-engine operation.
        let cp = Instr::CpAsync {
            addr: SAddr::lane(0),
            array: GlobalId(0),
            row: IdxOp::Imm(0),
            point: PointRef::Lane,
        };
        assert_eq!(cp.issue_slots(), 1);
        assert_eq!(cp.flops(), 0);
    }

    #[test]
    fn saddr_helpers() {
        assert_eq!(SAddr::lane(64), SAddr { base: None, imm: 64, lane_stride: 1 });
        assert_eq!(SAddr::uniform(5).lane_stride, 0);
        assert_eq!(SAddr::dyn_lane(2, 0).base, Some(2));
    }
}
