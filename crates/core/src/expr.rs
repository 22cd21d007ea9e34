//! Scalar expression IR and the instruction emitter.
//!
//! Kernel frontends describe each operation's computation as expression
//! trees over:
//!
//! * op-local temporaries ([`Expr::Local`]),
//! * cross-operation dataflow values ([`Expr::Var`] — the edges of the §4
//!   dataflow graph),
//! * per-instance constants ([`Expr::Const`] — these become the per-warp
//!   constant arrays of §5.2),
//! * structural literals ([`Expr::Lit`] — identical across instances, so
//!   they become immediates),
//! * global-memory inputs ([`Expr::Input`]) whose row may itself be a
//!   per-instance constant ([`RowRef::Slot`] — the warp-indexing scheme of
//!   §5.3).
//!
//! Two operations with equal expression bodies are *structurally identical
//! modulo constants* — exactly the property the overlaying code generator
//! (§5.1) exploits to emit a single code instance for many warps.
//!
//! The emitter lowers statements to `gpu-sim` instructions through an
//! [`EmitCtx`] that decides how constants, dataflow variables, and rows
//! materialize (constant cache vs striped registers with broadcasts;
//! registers vs shared memory; fixed rows vs warp-indexed rows).
//!
//! Below the emitter sits the register side the three emitters
//! (`codegen`, `baseline`, `naive`) share: the [`Scratch`] pool, variable
//! homes (`VarHome`) and the `linear_scan` that places them, and the
//! layout of virtual register ranges in physical registers
//! (`lay_out_registers`).

use crate::{CResult, CompileError};
use gpu_sim::isa::{Cmp, GAddr, GlobalId, IdxOp, Instr, Node, Op, PointRef, Reg};
/// The unary and binary operators are the simulator ISA's own, so lowering
/// an arithmetic node is a field copy rather than a per-op translation.
pub use gpu_sim::isa::{BinOp, UnOp};

/// Op-local temporary id.
pub type LocalId = u16;
/// Cross-operation dataflow value id.
pub type VarId = u32;

/// Row selector for global accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowRef {
    /// Statically known row, identical across instances.
    Fixed(u32),
    /// Per-instance row index — becomes a warp-indexing constant (§5.3).
    Slot(u16),
}

/// Ternary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriOp {
    /// Fused multiply-add `a*b + c`.
    Fma,
    /// Select `if a != 0 { b } else { c }`.
    Sel,
}

/// Scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Op-local temporary.
    Local(LocalId),
    /// Structural literal (identical across op instances).
    Lit(f64),
    /// Per-instance constant slot.
    Const(u16),
    /// Cross-operation dataflow value.
    Var(VarId),
    /// Per-point global-memory input.
    Input {
        /// Frontend array id (maps to a kernel `GlobalId`).
        array: u16,
        /// Row within the array.
        row: RowRef,
    },
    /// Unary application.
    Un(UnOp, Box<Expr>),
    /// Binary application.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `a > b`, yielding 1.0/0.0.
    CmpGt(Box<Expr>, Box<Expr>),
    /// Ternary application.
    Tri(TriOp, Box<Expr>, Box<Expr>, Box<Expr>),
}

// The arithmetic builders are deliberately inherent methods rather than
// the std ops traits, so the whole DSL reads uniformly:
// `a.add(b).max(c).exp()`.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// `self + o`.
    pub fn add(self, o: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(o))
    }
    /// `self - o`.
    pub fn sub(self, o: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(o))
    }
    /// `self * o`.
    pub fn mul(self, o: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(self), Box::new(o))
    }
    /// `self / o`.
    pub fn div(self, o: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(self), Box::new(o))
    }
    /// `max(self, o)`.
    pub fn max(self, o: Expr) -> Expr {
        Expr::Bin(BinOp::Max, Box::new(self), Box::new(o))
    }
    /// `self ^ o`.
    pub fn pow(self, o: Expr) -> Expr {
        Expr::Bin(BinOp::Pow, Box::new(self), Box::new(o))
    }
    /// `exp(self)`.
    pub fn exp(self) -> Expr {
        Expr::Un(UnOp::Exp, Box::new(self))
    }
    /// `ln(self)`.
    pub fn log(self) -> Expr {
        Expr::Un(UnOp::Log, Box::new(self))
    }
    /// `log10(self)`.
    pub fn log10(self) -> Expr {
        Expr::Un(UnOp::Log10, Box::new(self))
    }
    /// `sqrt(self)`.
    pub fn sqrt(self) -> Expr {
        Expr::Un(UnOp::Sqrt, Box::new(self))
    }
    /// `cbrt(self)`.
    pub fn cbrt(self) -> Expr {
        Expr::Un(UnOp::Cbrt, Box::new(self))
    }
    /// `-self`.
    pub fn neg(self) -> Expr {
        Expr::Un(UnOp::Neg, Box::new(self))
    }
    /// `self * b + c` (explicit FMA).
    pub fn fma(self, b: Expr, c: Expr) -> Expr {
        Expr::Tri(TriOp::Fma, Box::new(self), Box::new(b), Box::new(c))
    }
    /// `if self > o { a } else { b }`.
    pub fn select_gt(self, o: Expr, a: Expr, b: Expr) -> Expr {
        Expr::Tri(
            TriOp::Sel,
            Box::new(Expr::CmpGt(Box::new(self), Box::new(o))),
            Box::new(a),
            Box::new(b),
        )
    }

    /// Approximate double-precision FLOPs of evaluating this tree, using
    /// the same accounting as the simulator's instruction costs.
    pub fn flops(&self) -> usize {
        match self {
            Expr::Local(_) | Expr::Lit(_) | Expr::Const(_) | Expr::Var(_) | Expr::Input { .. } => 0,
            Expr::Un(op, a) => a.flops() + op.flops(),
            Expr::Bin(op, a, b) => a.flops() + b.flops() + op.flops(),
            Expr::CmpGt(a, b) => a.flops() + b.flops() + 1,
            Expr::Tri(op, a, b, c) => {
                a.flops()
                    + b.flops()
                    + c.flops()
                    + match op {
                        TriOp::Fma => 2,
                        TriOp::Sel => 1,
                    }
            }
        }
    }

    /// All `Var` ids referenced (with duplicates).
    pub fn vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Var(v) => out.push(*v),
            Expr::Un(_, a) => a.vars(out),
            Expr::Bin(_, a, b) | Expr::CmpGt(a, b) => {
                a.vars(out);
                b.vars(out);
            }
            Expr::Tri(_, a, b, c) => {
                a.vars(out);
                b.vars(out);
                c.vars(out);
            }
            _ => {}
        }
    }
}

/// A statement of an operation body (SSA-ish: each Local/Var defined once).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Define an op-local temporary.
    Local(LocalId, Expr),
    /// Define a cross-operation dataflow value.
    DefVar(VarId, Expr),
    /// Store to a global output array.
    Store {
        /// Frontend array id.
        array: u16,
        /// Output row.
        row: RowRef,
        /// Value.
        value: Expr,
    },
}

impl Stmt {
    /// FLOPs of the statement.
    pub fn flops(&self) -> usize {
        match self {
            Stmt::Local(_, e) | Stmt::DefVar(_, e) | Stmt::Store { value: e, .. } => e.flops(),
        }
    }
}

/// A standalone scalar program (sequence of statements) — used by tests and
/// by the baseline compiler's sequential view of a dataflow graph.
#[derive(Debug, Clone, Default)]
pub struct ScalarProgram {
    /// Statements in execution order.
    pub stmts: Vec<Stmt>,
    /// Number of locals used.
    pub n_locals: u16,
}

/// Where lowered code goes, node by node. A `Vec<Node>` keeps it; the
/// overlay matcher of [`crate::codegen`] compares it with code that already
/// exists and refuses the first node that differs, which ends the lowering
/// there (the `Err` travels up through [`emit_stmts`]).
pub trait NodeSink {
    /// Take the next node of the code being lowered.
    fn emit(&mut self, node: Node) -> CResult<()>;
}

impl NodeSink for Vec<Node> {
    fn emit(&mut self, node: Node) -> CResult<()> {
        self.push(node);
        Ok(())
    }
}

/// How the emitter materializes the context-dependent leaves. Op-local
/// temporaries are the same everywhere: local `l` is virtual register
/// `VR_LOCAL + l`.
pub trait EmitCtx {
    /// Point selector for global accesses.
    fn point(&self) -> PointRef;
    /// The scratch pool expression temporaries come from.
    fn scratch(&mut self) -> &mut Scratch;
    /// Materialize per-instance constant `slot` as an operand (may emit
    /// broadcast/load code). Returns the operand plus the scratch register
    /// the caller must free (if the operand lives in one).
    fn const_op(&mut self, slot: u16, code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)>;
    /// True if constants come from the constant cache (baseline) rather
    /// than registers (warp-specialized §5.2).
    fn consts_in_cache(&self) -> bool;
    /// Materialize a row reference as an index operand. Any index scratch
    /// register is managed by the context (released on the next `row_idx`).
    fn row_idx(&mut self, row: &RowRef, code: &mut dyn NodeSink) -> CResult<IdxOp>;
    /// Read a dataflow variable; same temp-ownership contract as
    /// [`EmitCtx::const_op`].
    fn read_var(&mut self, v: VarId, code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)>;
    /// Write a dataflow variable.
    fn write_var(&mut self, v: VarId, val: Op, code: &mut dyn NodeSink) -> CResult<()>;
    /// Use LDG texture loads for global reads (Kepler baselines, §6).
    fn ldg(&self) -> bool;
}

/// Emit a list of statements into `code`.
pub fn emit_stmts(stmts: &[Stmt], ctx: &mut dyn EmitCtx, code: &mut dyn NodeSink) -> CResult<()> {
    for s in stmts {
        match s {
            Stmt::Local(l, e) => {
                let (op, tmp) = lower(e, ctx, code)?;
                code.emit(Node::Op(Instr::mov(VR_LOCAL + l, op)))?;
                if let Some(t) = tmp {
                    ctx.scratch().free(t);
                }
            }
            Stmt::DefVar(v, e) => {
                let (op, tmp) = lower(e, ctx, code)?;
                ctx.write_var(*v, op, code)?;
                if let Some(t) = tmp {
                    ctx.scratch().free(t);
                }
            }
            Stmt::Store { array, row, value } => {
                let (op, tmp) = lower(value, ctx, code)?;
                let ridx = ctx.row_idx(row, code)?;
                code.emit(Node::Op(Instr::StGlobal {
                    src: op,
                    addr: GAddr { array: GlobalId(*array as usize), row: ridx, point: ctx.point() },
                }))?;
                if let Some(t) = tmp {
                    ctx.scratch().free(t);
                }
            }
        }
    }
    Ok(())
}

/// Depth of an expression tree (used to order operand lowering: lowering
/// the deepest operand first keeps the scratch-register footprint of long
/// accumulation chains constant instead of linear).
fn depth(e: &Expr) -> usize {
    match e {
        Expr::Un(_, a) => 1 + depth(a),
        Expr::Bin(_, a, b) | Expr::CmpGt(a, b) => 1 + depth(a).max(depth(b)),
        Expr::Tri(_, a, b, c) => 1 + depth(a).max(depth(b)).max(depth(c)),
        _ => 0,
    }
}

/// Lower an expression; returns the result operand and the temp register to
/// free (if the result lives in a scratch register owned by this call).
fn lower(e: &Expr, ctx: &mut dyn EmitCtx, code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)> {
    match e {
        Expr::Lit(v) => Ok((Op::Imm(*v), None)),
        Expr::Local(l) => Ok((Op::Reg(VR_LOCAL + l), None)),
        Expr::Var(v) => ctx.read_var(*v, code),
        Expr::Const(slot) => ctx.const_op(*slot, code),
        Expr::Input { array, row } => {
            let ridx = ctx.row_idx(row, code)?;
            let dst = ctx.scratch().alloc()?;
            code.emit(Node::Op(Instr::LdGlobal {
                dst,
                addr: GAddr { array: GlobalId(*array as usize), row: ridx, point: ctx.point() },
                ldg: ctx.ldg(),
            }))?;
            Ok((Op::Reg(dst), Some(dst)))
        }
        Expr::Un(op, a) => {
            let (av, at) = lower(a, ctx, code)?;
            let dst = match at {
                Some(t) => t, // reuse the operand's temp
                None => ctx.scratch().alloc()?,
            };
            code.emit(Node::Op(Instr::Un { op: *op, dst, a: av }))?;
            Ok((Op::Reg(dst), Some(dst)))
        }
        Expr::Bin(op, a, b) => {
            // FMA fusion: Add(Mul(x, y), c) and Add(c, Mul(x, y)).
            if *op == BinOp::Add {
                if let Expr::Bin(BinOp::Mul, x, y) = &**a {
                    return lower_fma(x, y, b, ctx, code);
                }
                if let Expr::Bin(BinOp::Mul, x, y) = &**b {
                    return lower_fma(x, y, a, ctx, code);
                }
            }
            lower_pair(a, b, ctx, code, |dst, a, b| Instr::Bin { op: *op, dst, a, b })
        }
        Expr::CmpGt(a, b) => {
            lower_pair(a, b, ctx, code, |dst, a, b| Instr::DCmp { dst, cmp: Cmp::Gt, a, b })
        }
        Expr::Tri(TriOp::Fma, a, b, c) => lower_fma(a, b, c, ctx, code),
        Expr::Tri(TriOp::Sel, p, a, b) => {
            let (pv, pt) = lower(p, ctx, code)?;
            let pred = match pv {
                Op::Reg(r) => r,
                Op::Imm(_) => {
                    return Err(CompileError::Internal("select predicate must be a register".into()))
                }
            };
            let (av, at) = lower(a, ctx, code)?;
            let (bv, bt) = lower(b, ctx, code)?;
            let dst = pt.ok_or_else(|| CompileError::Internal("predicate temp expected".into()))?;
            code.emit(Node::Op(Instr::DSel { dst, pred, a: av, b: bv }))?;
            for t in [at, bt].into_iter().flatten() {
                if t != dst {
                    ctx.scratch().free(t);
                }
            }
            Ok((Op::Reg(dst), Some(dst)))
        }
    }
}

/// Lower a two-operand node: both operands (deepest first, for constant
/// scratch usage on chains), then the instruction `make` builds, writing
/// into a reused operand temp when there is one.
fn lower_pair(
    a: &Expr,
    b: &Expr,
    ctx: &mut dyn EmitCtx,
    code: &mut dyn NodeSink,
    make: impl FnOnce(Reg, Op, Op) -> Instr,
) -> CResult<(Op, Option<Reg>)> {
    let (av, at, bv, bt);
    if depth(a) >= depth(b) {
        (av, at) = lower(a, ctx, code)?;
        (bv, bt) = lower(b, ctx, code)?;
    } else {
        (bv, bt) = lower(b, ctx, code)?;
        (av, at) = lower(a, ctx, code)?;
    }
    let dst = match at.or(bt) {
        Some(t) => t,
        None => ctx.scratch().alloc()?,
    };
    code.emit(Node::Op(make(dst, av, bv)))?;
    // Free whichever operand temp we did not reuse as dst.
    for t in [at, bt].into_iter().flatten() {
        if t != dst {
            ctx.scratch().free(t);
        }
    }
    Ok((Op::Reg(dst), Some(dst)))
}

/// Lower `a*b + c` as a fused multiply-add. Marks the instruction as having
/// a constant-cache operand when `c` (or `b`) is a `Const` slot served from
/// the constant cache (the Kepler throughput limit of §6.1).
fn lower_fma(
    a: &Expr,
    b: &Expr,
    c: &Expr,
    ctx: &mut dyn EmitCtx,
    code: &mut dyn NodeSink,
) -> CResult<(Op, Option<Reg>)> {
    let const_c = ctx.consts_in_cache()
        && (matches!(c, Expr::Const(_)) || matches!(b, Expr::Const(_)));
    // Deepest operand first (constant scratch usage on FMA chains).
    let mut ordered: [(usize, usize); 3] =
        [(depth(a), 0), (depth(b), 1), (depth(c), 2)];
    ordered.sort_by_key(|&(d, _)| std::cmp::Reverse(d));
    let mut slots: [Option<(Op, Option<Reg>)>; 3] = [None, None, None];
    for &(_, which) in &ordered {
        let e = match which {
            0 => a,
            1 => b,
            _ => c,
        };
        slots[which] = Some(lower(e, ctx, code)?);
    }
    let (av, at) = slots[0].take().unwrap();
    let (bv, bt) = slots[1].take().unwrap();
    let (cv, ct) = slots[2].take().unwrap();
    let dst = at.or(bt).or(ct).map(Ok).unwrap_or_else(|| ctx.scratch().alloc())?;
    code.emit(Node::Op(Instr::DFma { dst, a: av, b: bv, c: cv, const_c }))?;
    for t in [at, bt, ct].into_iter().flatten() {
        if t != dst {
            ctx.scratch().free(t);
        }
    }
    Ok((Op::Reg(dst), Some(dst)))
}

/// Scratch registers one emission may hold at once.
pub(crate) const N_SCRATCH: usize = 14;
/// Virtual register of op-local temporary 0 (locals are emitted at
/// `VR_LOCAL + l`, then laid out by [`lay_out_registers`]).
pub(crate) const VR_LOCAL: Reg = 1 << 10;
/// Virtual register of home register 0 ([`VarHome::Reg`]).
pub(crate) const VR_VAR: Reg = 1 << 12;

/// The scratch-register pool of one emission: physical registers
/// `0..N_SCRATCH` (every emitter lays scratch out first), the most recently
/// freed one reused first.
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<Reg>,
    hwm: usize,
}

impl Scratch {
    /// Allocate a scratch register.
    pub fn alloc(&mut self) -> CResult<Reg> {
        if let Some(r) = self.free.pop() {
            return Ok(r);
        }
        if self.hwm >= N_SCRATCH {
            return Err(CompileError::ResourceExhausted(
                "expression scratch registers exhausted".into(),
            ));
        }
        let r = self.hwm as Reg;
        self.hwm += 1;
        Ok(r)
    }

    /// Release a scratch register.
    pub fn free(&mut self, r: Reg) {
        self.free.push(r);
    }
}

/// Where a dataflow variable's value lives in the warp (or, for the
/// baseline, the thread) that produces it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VarHome {
    /// Home register `r`, emitted as virtual register [`VR_VAR`]` + r`.
    Reg(u16),
    /// Local-memory spill slot.
    Spill(u32),
}

impl VarHome {
    /// Read the value from its home; same temp-ownership contract as
    /// [`EmitCtx::const_op`].
    pub(crate) fn read(
        self,
        scratch: &mut Scratch,
        code: &mut dyn NodeSink,
    ) -> CResult<(Op, Option<Reg>)> {
        match self {
            VarHome::Reg(r) => Ok((Op::Reg(VR_VAR + r), None)),
            VarHome::Spill(slot) => {
                let tmp = scratch.alloc()?;
                code.emit(Node::Op(Instr::LdLocal { dst: tmp, slot }))?;
                Ok((Op::Reg(tmp), Some(tmp)))
            }
        }
    }

    /// Write `val` to its home.
    pub(crate) fn write(self, val: Op, code: &mut dyn NodeSink) -> CResult<()> {
        match self {
            VarHome::Reg(r) => code.emit(Node::Op(Instr::mov(VR_VAR + r, val))),
            VarHome::Spill(slot) => code.emit(Node::Op(Instr::StLocal { src: val, slot })),
        }
    }
}

/// Every variable's home in one register plan.
#[derive(Debug)]
pub(crate) struct Homes {
    /// Home of each var; `None` where the plan places no value.
    pub(crate) home: Vec<Option<VarHome>>,
    /// Home registers used.
    pub(crate) n_regs: usize,
    /// Spill slots used.
    pub(crate) n_spill: usize,
}

impl Homes {
    /// The home of `v`, which the plan must have placed.
    pub(crate) fn of(&self, v: VarId) -> CResult<VarHome> {
        self.home[v as usize].ok_or_else(|| CompileError::Internal(format!("var {v} has no home")))
    }
}

/// Linear-scan allocation of variable homes with spilling. `live[v]` is
/// var `v`'s live interval (definition, last use) in the caller's program
/// order, `None` for a var this plan does not place. Vars are taken in
/// order of definition (ties in var order); a register is free again once
/// the scan passes its value's last use; at most `budget` registers are
/// used. With none free, the live value with the furthest last use is
/// spilled — or the incoming one, when it ends last.
pub(crate) fn linear_scan(live: &[Option<(usize, usize)>], budget: usize) -> Homes {
    let mut order: Vec<(VarId, usize, usize)> = live
        .iter()
        .enumerate()
        .filter_map(|(v, l)| l.map(|(def, last)| (v as VarId, def, last)))
        .collect();
    order.sort_by_key(|&(_, def, _)| def);

    let mut home = vec![None; live.len()];
    let mut free: Vec<u16> = Vec::new();
    let mut next_reg = 0u16;
    let mut n_spill = 0u32;
    // Active: (last_use, var, reg).
    let mut active: Vec<(usize, VarId, u16)> = Vec::new();
    for (v, start, end) in order {
        let mut i = 0;
        while i < active.len() {
            if active[i].0 < start {
                free.push(active[i].2);
                active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if let Some(r) = free.pop() {
            home[v as usize] = Some(VarHome::Reg(r));
            active.push((end, v, r));
        } else if (next_reg as usize) < budget {
            let r = next_reg;
            next_reg += 1;
            home[v as usize] = Some(VarHome::Reg(r));
            active.push((end, v, r));
        } else {
            // Spill the live var with the furthest last use (or this one).
            let worst = active
                .iter()
                .enumerate()
                .max_by_key(|(_, (e, _, _))| *e)
                .map(|(i, _)| i);
            match worst {
                Some(wi) if active[wi].0 > end => {
                    let (_, wv, wr) = active.swap_remove(wi);
                    home[wv as usize] = Some(VarHome::Spill(n_spill));
                    n_spill += 1;
                    home[v as usize] = Some(VarHome::Reg(wr));
                    active.push((end, v, wr));
                }
                _ => {
                    home[v as usize] = Some(VarHome::Spill(n_spill));
                    n_spill += 1;
                }
            }
        }
    }
    Homes { home, n_regs: next_reg as usize, n_spill: n_spill as usize }
}

/// Lay the virtual registers of `nodes` out in physical registers: each
/// `(virtual base, length)` range of `ranges` takes the next `length`
/// physical registers, in the order given — the order is each emitter's
/// own. Returns the double registers per thread the layout uses.
pub(crate) fn lay_out_registers(nodes: &mut [Node], ranges: &[(Reg, usize)]) -> usize {
    // The physical register of every virtual one below the highest range's
    // end (a register in no range keeps its number): one lookup a visit.
    let end = ranges.iter().map(|&(base, len)| base as usize + len).max().unwrap_or(0);
    let mut physical: Vec<Reg> = (0..end).map(|r| r as Reg).collect();
    let mut next = 0;
    for &(base, len) in ranges {
        for i in 0..len {
            physical[base as usize + i] = (next + i) as Reg;
        }
        next += len;
    }
    remap_nodes(nodes, &|r| physical.get(r as usize).copied().unwrap_or(r));
    next
}

/// Rewrite every register id in a node tree.
fn remap_nodes(nodes: &mut [Node], f: &dyn Fn(Reg) -> Reg) {
    for n in nodes.iter_mut() {
        match n {
            Node::Op(i) => i.visit_regs_mut(&mut |r, _| *r = f(*r)),
            Node::WarpIf { body, .. } => remap_nodes(body, f),
            Node::WarpSwitch { cases, .. } => {
                for c in cases {
                    remap_nodes(c, f);
                }
            }
            Node::Loop { body, .. } | Node::PointLoop { body, .. } => remap_nodes(body, f),
        }
    }
}

/// Evaluate an expression on the host for testing / constant folding.
/// `consts`, `locals`, `vars`, and `input` supply the leaf values.
pub fn eval(
    e: &Expr,
    consts: &[f64],
    locals: &[f64],
    vars: &dyn Fn(VarId) -> f64,
    input: &dyn Fn(u16, &RowRef) -> f64,
) -> f64 {
    match e {
        Expr::Lit(v) => *v,
        Expr::Local(l) => locals[*l as usize],
        Expr::Const(c) => consts[*c as usize],
        Expr::Var(v) => vars(*v),
        Expr::Input { array, row } => input(*array, row),
        Expr::Un(op, a) => {
            let x = eval(a, consts, locals, vars, input);
            match op {
                UnOp::Mov => x,
                UnOp::Neg => -x,
                UnOp::Sqrt => x.sqrt(),
                UnOp::Exp => x.exp(),
                UnOp::Log => x.ln(),
                UnOp::Log10 => x.log10(),
                UnOp::Cbrt => x.cbrt(),
            }
        }
        Expr::Bin(op, a, b) => {
            let x = eval(a, consts, locals, vars, input);
            let y = eval(b, consts, locals, vars, input);
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Max => x.max(y),
                BinOp::Min => x.min(y),
                BinOp::Pow => x.powf(y),
            }
        }
        Expr::CmpGt(a, b) => {
            let x = eval(a, consts, locals, vars, input);
            let y = eval(b, consts, locals, vars, input);
            if x > y {
                1.0
            } else {
                0.0
            }
        }
        Expr::Tri(op, a, b, c) => {
            let x = eval(a, consts, locals, vars, input);
            let y = eval(b, consts, locals, vars, input);
            let z = eval(c, consts, locals, vars, input);
            match op {
                TriOp::Fma => x.mul_add(y, z),
                TriOp::Sel => {
                    if x != 0.0 {
                        y
                    } else {
                        z
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let e = Expr::Lit(2.0).mul(Expr::Lit(3.0)).add(Expr::Lit(1.0));
        let v = eval(&e, &[], &[], &|_| 0.0, &|_, _| 0.0);
        assert_eq!(v, 7.0);
    }

    #[test]
    fn eval_covers_all_ops() {
        let consts = [4.0];
        let e = Expr::Const(0).sqrt().exp().log(); // ln(exp(2)) = 2
        assert!((eval(&e, &consts, &[], &|_| 0.0, &|_, _| 0.0) - 2.0).abs() < 1e-12);
        let e = Expr::Lit(8.0).cbrt();
        assert!((eval(&e, &[], &[], &|_| 0.0, &|_, _| 0.0) - 2.0).abs() < 1e-12);
        let e = Expr::Lit(2.0).pow(Expr::Lit(10.0));
        assert_eq!(eval(&e, &[], &[], &|_| 0.0, &|_, _| 0.0), 1024.0);
        let e = Expr::Lit(5.0).select_gt(Expr::Lit(3.0), Expr::Lit(1.0), Expr::Lit(-1.0));
        assert_eq!(eval(&e, &[], &[], &|_| 0.0, &|_, _| 0.0), 1.0);
        let e = Expr::Lit(100.0).log10();
        assert!((eval(&e, &[], &[], &|_| 0.0, &|_, _| 0.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flop_counts_follow_instruction_costs() {
        let fma = Expr::Lit(1.0).fma(Expr::Lit(2.0), Expr::Lit(3.0));
        assert_eq!(fma.flops(), 2);
        let exp = Expr::Lit(1.0).exp();
        assert_eq!(exp.flops(), 24);
        let chain = Expr::Lit(1.0).add(Expr::Lit(2.0)).mul(Expr::Lit(3.0));
        assert_eq!(chain.flops(), 2);
    }

    #[test]
    fn structural_equality_ignores_const_values_by_design() {
        // Two ops built from the same code template produce equal bodies —
        // the constants live in per-op tables, not the tree.
        let body1 = Expr::Const(0).mul(Expr::Var(3)).add(Expr::Const(1));
        let body2 = Expr::Const(0).mul(Expr::Var(3)).add(Expr::Const(1));
        assert_eq!(body1, body2);
        let different = Expr::Const(0).mul(Expr::Var(4)).add(Expr::Const(1));
        assert_ne!(body1, different);
    }

    /// Everything lives in a register named after its id; nothing emits.
    #[derive(Default)]
    struct Registers(Scratch);

    impl EmitCtx for Registers {
        fn point(&self) -> PointRef {
            PointRef::Lane
        }
        fn scratch(&mut self) -> &mut Scratch {
            &mut self.0
        }
        fn const_op(&mut self, slot: u16, _code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)> {
            Ok((Op::Reg(200 + slot), None))
        }
        fn consts_in_cache(&self) -> bool {
            false
        }
        fn row_idx(&mut self, _row: &RowRef, _code: &mut dyn NodeSink) -> CResult<IdxOp> {
            Ok(IdxOp::Imm(0))
        }
        fn read_var(&mut self, v: VarId, _code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)> {
            Ok((Op::Reg(300 + v as Reg), None))
        }
        fn write_var(&mut self, v: VarId, val: Op, code: &mut dyn NodeSink) -> CResult<()> {
            code.emit(Node::Op(Instr::mov(300 + v as Reg, val)))
        }
        fn ldg(&self) -> bool {
            false
        }
    }

    /// Takes `room` nodes, refuses the next, and counts what it was offered.
    struct Room {
        room: usize,
        offered: usize,
    }

    impl NodeSink for Room {
        fn emit(&mut self, _node: Node) -> CResult<()> {
            self.offered += 1;
            if self.offered > self.room {
                return Err(CompileError::Internal("full".into()));
            }
            Ok(())
        }
    }

    #[test]
    fn a_refused_node_is_the_last_one_lowered() {
        // Three statements, ten nodes: wherever the sink refuses, lowering
        // ends with that node — nothing after it is even offered.
        let chain = |v| Expr::Var(v).mul(Expr::Const(0)).sub(Expr::Lit(1.0)).exp();
        let body = [
            Stmt::Local(0, chain(1)),
            Stmt::DefVar(2, Expr::Local(0).add(chain(3))),
            Stmt::Store { array: 0, row: RowRef::Fixed(0), value: Expr::Var(2) },
        ];
        let mut all = Vec::new();
        emit_stmts(&body, &mut Registers::default(), &mut all).unwrap();
        assert_eq!(all.len(), 10);
        for room in 0..all.len() {
            let mut sink = Room { room, offered: 0 };
            assert!(emit_stmts(&body, &mut Registers::default(), &mut sink).is_err());
            assert_eq!(sink.offered, room + 1);
        }
    }

    /// The register each var of `homes` got, `None` if spilled or unplaced.
    fn regs(homes: &Homes) -> Vec<Option<u16>> {
        let reg = |h: &Option<VarHome>| match h {
            Some(VarHome::Reg(r)) => Some(*r),
            _ => None,
        };
        homes.home.iter().map(reg).collect()
    }

    #[test]
    fn linear_scan_spills_the_furthest_last_use() {
        // One register, two overlapping values. The live one ends last: it
        // goes to memory and the incoming value takes its register.
        let homes = linear_scan(&[Some((0, 10)), Some((1, 3))], 1);
        assert_eq!(homes.home, [Some(VarHome::Spill(0)), Some(VarHome::Reg(0))]);
        // The incoming one ends last: it is the one spilled.
        let homes = linear_scan(&[Some((0, 3)), Some((1, 10))], 1);
        assert_eq!(homes.home, [Some(VarHome::Reg(0)), Some(VarHome::Spill(0))]);
        assert_eq!((homes.n_regs, homes.n_spill), (1, 1));
        // A var the plan does not place gets no home at all.
        let homes = linear_scan(&[None, Some((2, 4))], 1);
        assert_eq!(homes.home, [None, Some(VarHome::Reg(0))]);
    }

    #[test]
    fn linear_scan_reuses_an_expired_register() {
        // v0's last use is before v2's definition: v2 takes its register.
        // v1 is still live at its own last use, where v3 is defined.
        let homes = linear_scan(&[Some((0, 1)), Some((1, 3)), Some((2, 5)), Some((3, 4))], 8);
        assert_eq!(regs(&homes), [Some(0), Some(1), Some(0), Some(2)]);
        assert_eq!((homes.n_regs, homes.n_spill), (3, 0));
    }

    #[test]
    fn linear_scan_stays_within_its_budget() {
        // Ten values live at once against budgets from none to plenty.
        let live: Vec<_> = (0..10).map(|v| Some((v, 20))).collect();
        for budget in 0..12 {
            let homes = linear_scan(&live, budget);
            assert_eq!(homes.n_regs, budget.min(10), "budget {budget}");
            assert_eq!(homes.n_spill, 10 - budget.min(10), "budget {budget}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Over random interval sets: every placed var gets a home, the
        /// register count stays within the budget, spill slots are distinct,
        /// and no two overlapping intervals share a register.
        #[test]
        fn linear_scan_never_shares_a_register_between_overlapping_intervals(
            defs in proptest::collection::vec(0usize..40, 0..40),
            lens in proptest::collection::vec(0usize..12, 40..41),
            placed in proptest::collection::vec(proptest::bool::ANY, 40..41),
            budget in 0usize..8,
        ) {
            let live: Vec<Option<(usize, usize)>> = defs
                .iter()
                .enumerate()
                .map(|(v, &def)| placed[v].then_some((def, def + lens[v])))
                .collect();
            let homes = linear_scan(&live, budget);
            proptest::prop_assert!(homes.n_regs <= budget);
            let mut slots = Vec::new();
            for (v, (l, &h)) in live.iter().zip(&homes.home).enumerate() {
                match (l, h) {
                    (None, None) => {}
                    (Some(_), Some(VarHome::Reg(r))) => {
                        proptest::prop_assert!((r as usize) < homes.n_regs)
                    }
                    (Some(_), Some(VarHome::Spill(s))) => slots.push(s),
                    _ => proptest::prop_assert!(false, "var {} placed wrongly: {:?}", v, h),
                }
            }
            slots.sort_unstable();
            proptest::prop_assert_eq!(slots, (0..homes.n_spill as u32).collect::<Vec<_>>());
            let regs = regs(&homes);
            for a in 0..live.len() {
                for b in a + 1..live.len() {
                    if let (Some((da, la)), Some((db, lb))) = (live[a], live[b]) {
                        let overlap = da <= lb && db <= la;
                        proptest::prop_assert!(
                            !(overlap && regs[a].is_some() && regs[a] == regs[b]),
                            "vars {} {:?} and {} {:?} share register {:?}",
                            a, live[a], b, live[b], regs[a]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn registers_are_laid_out_in_the_order_given() {
        let mov = |r: Reg| Node::Op(Instr::mov(r, Op::Imm(0.0)));
        let emitted = [mov(3), mov(VR_VAR + 1), mov(VR_LOCAL), mov(VR_LOCAL + 1)];
        let mut nodes = emitted.to_vec();
        let n = lay_out_registers(&mut nodes, &[(0, N_SCRATCH), (VR_VAR, 2), (VR_LOCAL, 2)]);
        assert_eq!((n, nodes), (18, vec![mov(3), mov(15), mov(16), mov(17)]));
        let mut nodes = emitted.to_vec();
        let n = lay_out_registers(&mut nodes, &[(0, N_SCRATCH), (VR_LOCAL, 2), (VR_VAR, 2)]);
        assert_eq!((n, nodes), (18, vec![mov(3), mov(17), mov(14), mov(15)]));
    }

    #[test]
    fn vars_collected() {
        let e = Expr::Var(1).add(Expr::Var(2).mul(Expr::Var(1)));
        let mut vs = Vec::new();
        e.vars(&mut vs);
        vs.sort();
        assert_eq!(vs, vec![1, 1, 2]);
    }
}
