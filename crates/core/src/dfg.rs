//! The dataflow graph of operations — output of the first compilation stage
//! (paper §4: "a dataflow graph with nodes corresponding to units of
//! computation, which we refer to as operations, and edges indicating data
//! dependences between operations").

use crate::expr::{Expr, RowRef, Stmt, VarId};
use std::collections::HashMap;

use crate::{CResult, CompileError};
use gpu_sim::isa::ArrayDecl;

/// Operation index within a [`Dfg`].
pub type OpId = usize;

/// One unit of computation.
#[derive(Debug, Clone)]
pub struct Operation {
    /// Debug name (e.g. `vis[7]`).
    pub name: String,
    /// Body statements (SSA over locals and vars).
    pub body: Vec<Stmt>,
    /// Number of op-local temporaries.
    pub n_locals: u16,
    /// Per-instance double constants, indexed by `Expr::Const` slots.
    pub consts: Vec<f64>,
    /// Per-instance row constants, indexed by `RowRef::Slot` (§5.3).
    pub irows: Vec<u32>,
    /// Warp this op must run on (frontend partitioning decision), if any.
    pub pinned_warp: Option<usize>,
    /// Frontend ordering hint: ops are scheduled phase-major.
    pub phase: u32,
}

impl Operation {
    /// Total FLOPs of the body.
    pub fn flops(&self) -> usize {
        self.body.iter().map(|s| s.flops()).sum()
    }

    /// Dataflow variables read by this op.
    pub fn inputs(&self) -> Vec<VarId> {
        self.inputs_given(&self.outputs())
    }

    /// [`Operation::inputs`], given the op's [`Operation::outputs`].
    fn inputs_given(&self, defs: &[VarId]) -> Vec<VarId> {
        let mut v = Vec::new();
        for s in &self.body {
            match s {
                Stmt::Local(_, e) | Stmt::DefVar(_, e) | Stmt::Store { value: e, .. } => {
                    e.vars(&mut v)
                }
            }
        }
        v.sort_unstable();
        v.dedup();
        // Reads of vars this op itself defines are internal.
        v.retain(|x| !defs.contains(x));
        v
    }

    /// Dataflow variables defined by this op.
    pub fn outputs(&self) -> Vec<VarId> {
        self.body
            .iter()
            .filter_map(|s| match s {
                Stmt::DefVar(v, _) => Some(*v),
                _ => None,
            })
            .collect()
    }

    /// Structural identity for overlaying (§5.1): equal bodies modulo the
    /// per-instance constant tables *and* modulo dataflow-variable ids
    /// (var ids are canonically renumbered by first appearance — the
    /// paper's footnote about "standardizing variable names"). Whether two
    /// same-skeleton ops can actually share code is decided later by the
    /// code generator's emitted-code equality check.
    pub fn same_skeleton(&self, o: &Operation) -> bool {
        self.n_locals == o.n_locals && canonical_body(&self.body) == canonical_body(&o.body)
    }
}

/// The dataflow graph for one kernel.
#[derive(Debug, Clone)]
pub struct Dfg {
    /// Kernel name.
    pub name: String,
    /// Operations.
    pub ops: Vec<Operation>,
    /// Number of dataflow variables.
    pub n_vars: u32,
    /// Global arrays (inputs and outputs) referenced by `Expr::Input` /
    /// `Stmt::Store` array ids.
    pub arrays: Vec<ArrayDecl>,
    /// Vars the frontend forces into shared memory even without cross-warp
    /// consumers (e.g. reduction inputs: "all the warps reduce their
    /// values through shared memory", §3.2). Keeps per-warp streams
    /// symmetric for overlaying.
    pub force_shared: Vec<VarId>,
}

impl Dfg {
    /// Producer op of each var. Errors if a var has zero or two producers.
    pub fn producers(&self) -> CResult<Vec<OpId>> {
        let outputs: Vec<Vec<VarId>> = self.ops.iter().map(Operation::outputs).collect();
        self.producers_given(&outputs)
    }

    /// [`Dfg::producers`], given every op's [`Operation::outputs`].
    fn producers_given(&self, outputs: &[Vec<VarId>]) -> CResult<Vec<OpId>> {
        let mut prod = vec![usize::MAX; self.n_vars as usize];
        for (oi, outs) in outputs.iter().enumerate() {
            for &v in outs {
                if prod[v as usize] != usize::MAX {
                    return Err(CompileError::Internal(format!(
                        "var {v} defined by ops {} and {oi}",
                        prod[v as usize]
                    )));
                }
                prod[v as usize] = oi;
            }
        }
        for (v, &p) in prod.iter().enumerate() {
            if p == usize::MAX {
                return Err(CompileError::Internal(format!("var {v} never defined")));
            }
        }
        Ok(prod)
    }

    /// Consumer ops of each var.
    pub fn consumers(&self) -> Vec<Vec<OpId>> {
        let mut cons = vec![Vec::new(); self.n_vars as usize];
        for (oi, op) in self.ops.iter().enumerate() {
            for v in op.inputs() {
                cons[v as usize].push(oi);
            }
        }
        cons
    }

    /// Topological order of ops (phase-major, then declaration order) —
    /// the linearization used for sync-point numbering (§4.2).
    pub fn topo_order(&self) -> CResult<Vec<OpId>> {
        let inputs: Vec<Vec<VarId>> = self.ops.iter().map(Operation::inputs).collect();
        self.topo_order_of(&self.producers()?, &inputs)
    }

    /// [`Dfg::topo_order`] over already-computed producers and per-op inputs.
    fn topo_order_of(&self, prod: &[OpId], inputs: &[Vec<VarId>]) -> CResult<Vec<OpId>> {
        let n = self.ops.len();
        let mut deps: Vec<Vec<OpId>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (oi, ins) in inputs.iter().enumerate() {
            for &v in ins {
                let p = prod[v as usize];
                deps[p].push(oi);
                indeg[oi] += 1;
            }
        }
        // Priority queue by (phase, op id) — a BinaryHeap of Reverse keys.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
        for oi in 0..n {
            if indeg[oi] == 0 {
                heap.push(Reverse((self.ops[oi].phase, oi)));
            }
        }
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse((_, oi))) = heap.pop() {
            order.push(oi);
            for &succ in &deps[oi] {
                indeg[succ] -= 1;
                if indeg[succ] == 0 {
                    heap.push(Reverse((self.ops[succ].phase, succ)));
                }
            }
        }
        if order.len() != n {
            return Err(CompileError::Internal("dataflow graph has a cycle".into()));
        }
        Ok(order)
    }

    /// Validate SSA-ness, const-slot ranges, and acyclicity.
    pub fn validate(&self) -> CResult<()> {
        self.facts().map(|_| ())
    }

    /// Validate the graph ([`Dfg::validate`]'s verdict is this call's
    /// `Err`) and tabulate what the stages of a compile ask of it op by op.
    /// None of it depends on the compile options, so one table serves
    /// every stage of a compile and every candidate of a search.
    pub(crate) fn facts(&self) -> CResult<GraphFacts> {
        let outputs: Vec<Vec<VarId>> = self.ops.iter().map(Operation::outputs).collect();
        let producers = self.producers_given(&outputs)?;
        let inputs: Vec<Vec<VarId>> =
            self.ops.iter().zip(&outputs).map(|(op, outs)| op.inputs_given(outs)).collect();
        let _ = self.topo_order_of(&producers, &inputs)?;
        for (oi, op) in self.ops.iter().enumerate() {
            let mut max_const = None;
            let mut max_row = None;
            for s in &op.body {
                scan_slots(stmt_expr(s), &mut max_const, &mut max_row);
            }
            if let Some(m) = max_const {
                if m as usize >= op.consts.len() {
                    return Err(CompileError::Internal(format!(
                        "op {oi} uses const slot {m} but has {} consts",
                        op.consts.len()
                    )));
                }
            }
            if let Some(m) = max_row {
                if m as usize >= op.irows.len() {
                    return Err(CompileError::Internal(format!(
                        "op {oi} uses row slot {m} but has {} rows",
                        op.irows.len()
                    )));
                }
            }
        }
        Ok(GraphFacts { producers, inputs, outputs, class: skeleton_classes(&self.ops) })
    }
}

/// Per-op facts of a valid [`Dfg`], computed once by [`Dfg::facts`].
pub(crate) struct GraphFacts {
    /// Producer op of each var ([`Dfg::producers`]).
    pub(crate) producers: Vec<OpId>,
    /// [`Operation::inputs`] of each op.
    pub(crate) inputs: Vec<Vec<VarId>>,
    /// [`Operation::outputs`] of each op.
    pub(crate) outputs: Vec<Vec<VarId>>,
    /// Skeleton class of each op: `class[a] == class[b]` exactly when
    /// `ops[a].same_skeleton(&ops[b])` — the paper's "standardized variable
    /// names" (§5.1), worked out once per op instead of once per pair.
    pub(crate) class: Vec<u32>,
}

/// Number the equivalence classes of [`Operation::same_skeleton`] in order
/// of first appearance: each op is spelled once as its [`skeleton_words`],
/// and equal spellings share a class.
fn skeleton_classes(ops: &[Operation]) -> Vec<u32> {
    let mut class_of: HashMap<Vec<u64>, u32> = HashMap::new();
    let mut n_classes = 0;
    let mut words = Vec::new();
    ops.iter()
        .map(|op| {
            // An op that is not even its own skeleton — a NaN literal equals
            // nothing — gets a class nobody joins: its spelling is not kept.
            let own_skeleton = skeleton_words(op, &mut words);
            if let Some(&met) = class_of.get(&words).filter(|_| own_skeleton) {
                return met;
            }
            if own_skeleton {
                class_of.insert(words.clone(), n_classes);
            }
            n_classes += 1;
            n_classes - 1
        })
        .collect()
}

/// Spell `op`'s skeleton into `words` (cleared first): a prefix code of
/// `n_locals` and the body with dataflow variables numbered by first
/// appearance, exactly as [`canonical_body`] numbers them, so two ops spell
/// alike exactly when [`Operation::same_skeleton`] holds. Literals are
/// spelled by value as `f64` equality sees it: the two zeros alike, and a
/// NaN — equal to nothing — makes the function return false.
fn skeleton_words(op: &Operation, words: &mut Vec<u64>) -> bool {
    struct Speller<'a> {
        words: &'a mut Vec<u64>,
        vars: Vec<VarId>,
        own_skeleton: bool,
    }
    impl Speller<'_> {
        fn var(&mut self, v: VarId) {
            let n = self.vars.iter().position(|&seen| seen == v).unwrap_or_else(|| {
                self.vars.push(v);
                self.vars.len() - 1
            });
            self.words.push(n as u64);
        }
        fn row(&mut self, row: &RowRef) {
            match row {
                RowRef::Fixed(r) => self.words.extend([0, u64::from(*r)]),
                RowRef::Slot(s) => self.words.extend([1, u64::from(*s)]),
            }
        }
        fn expr(&mut self, e: &Expr) {
            match e {
                Expr::Local(l) => self.words.extend([0, u64::from(*l)]),
                Expr::Lit(v) => {
                    self.own_skeleton &= !v.is_nan();
                    self.words.extend([1, if *v == 0.0 { 0 } else { v.to_bits() }]);
                }
                Expr::Const(c) => self.words.extend([2, u64::from(*c)]),
                Expr::Var(v) => {
                    self.words.push(3);
                    self.var(*v);
                }
                Expr::Input { array, row } => {
                    self.words.extend([4, u64::from(*array)]);
                    self.row(row);
                }
                Expr::Un(op, a) => {
                    self.words.extend([5, *op as u64]);
                    self.expr(a);
                }
                Expr::Bin(op, a, b) => {
                    self.words.extend([6, *op as u64]);
                    self.expr(a);
                    self.expr(b);
                }
                Expr::CmpGt(a, b) => {
                    self.words.push(7);
                    self.expr(a);
                    self.expr(b);
                }
                Expr::Tri(op, a, b, c) => {
                    self.words.extend([8, *op as u64]);
                    self.expr(a);
                    self.expr(b);
                    self.expr(c);
                }
            }
        }
    }
    words.clear();
    words.extend([u64::from(op.n_locals), op.body.len() as u64]);
    let mut sp = Speller { words, vars: Vec::new(), own_skeleton: true };
    for s in &op.body {
        match s {
            Stmt::Local(l, e) => {
                sp.words.extend([0, u64::from(*l)]);
                sp.expr(e);
            }
            // `canonical_body` numbers a definition after its expression.
            Stmt::DefVar(v, e) => {
                sp.words.push(1);
                sp.expr(e);
                sp.var(*v);
            }
            Stmt::Store { array, row, value } => {
                sp.words.extend([2, u64::from(*array)]);
                sp.row(row);
                sp.expr(value);
            }
        }
    }
    sp.own_skeleton
}

/// Renumber var ids by first appearance so structurally identical ops with
/// different vars compare equal.
fn canonical_body(body: &[Stmt]) -> Vec<Stmt> {
    let mut map: HashMap<VarId, VarId> = HashMap::new();
    fn canon_expr(e: &Expr, map: &mut HashMap<VarId, VarId>) -> Expr {
        match e {
            Expr::Var(v) => {
                let n = map.len() as VarId;
                Expr::Var(*map.entry(*v).or_insert(n))
            }
            Expr::Un(o, a) => Expr::Un(*o, Box::new(canon_expr(a, map))),
            Expr::Bin(o, a, b) => {
                Expr::Bin(*o, Box::new(canon_expr(a, map)), Box::new(canon_expr(b, map)))
            }
            Expr::CmpGt(a, b) => {
                Expr::CmpGt(Box::new(canon_expr(a, map)), Box::new(canon_expr(b, map)))
            }
            Expr::Tri(o, a, b, c) => Expr::Tri(
                *o,
                Box::new(canon_expr(a, map)),
                Box::new(canon_expr(b, map)),
                Box::new(canon_expr(c, map)),
            ),
            other => other.clone(),
        }
    }
    body.iter()
        .map(|s| match s {
            Stmt::Local(l, e) => Stmt::Local(*l, canon_expr(e, &mut map)),
            Stmt::DefVar(v, e) => {
                let e2 = canon_expr(e, &mut map);
                let n = map.len() as VarId;
                Stmt::DefVar(*map.entry(*v).or_insert(n), e2)
            }
            Stmt::Store { array, row, value } => Stmt::Store {
                array: *array,
                row: *row,
                value: canon_expr(value, &mut map),
            },
        })
        .collect()
}

fn stmt_expr(s: &Stmt) -> &Expr {
    match s {
        Stmt::Local(_, e) | Stmt::DefVar(_, e) | Stmt::Store { value: e, .. } => e,
    }
}

fn scan_slots(e: &Expr, max_const: &mut Option<u16>, max_row: &mut Option<u16>) {
    let upd = |m: &mut Option<u16>, v: u16| {
        *m = Some(m.map_or(v, |x| x.max(v)));
    };
    match e {
        Expr::Const(c) => upd(max_const, *c),
        Expr::Input { row: RowRef::Slot(s), .. } => upd(max_row, *s),
        Expr::Un(_, a) => scan_slots(a, max_const, max_row),
        Expr::Bin(_, a, b) | Expr::CmpGt(a, b) => {
            scan_slots(a, max_const, max_row);
            scan_slots(b, max_const, max_row);
        }
        Expr::Tri(_, a, b, c) => {
            scan_slots(a, max_const, max_row);
            scan_slots(b, max_const, max_row);
            scan_slots(c, max_const, max_row);
        }
        _ => {}
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::expr::RowRef;

    /// A small diamond DFG used by several stage tests:
    /// op0 defines v0 from input; op1: v1 = f(v0); op2: v2 = g(v0);
    /// op3 stores v1+v2.
    pub fn diamond() -> Dfg {
        let ops = vec![
            Operation {
                name: "load".into(),
                body: vec![Stmt::DefVar(0, Expr::Input { array: 0, row: RowRef::Fixed(0) })],
                n_locals: 0,
                consts: vec![],
                irows: vec![],
                pinned_warp: None,
                phase: 0,
            },
            Operation {
                name: "f".into(),
                body: vec![Stmt::DefVar(1, Expr::Var(0).mul(Expr::Const(0)))],
                n_locals: 0,
                consts: vec![2.0],
                irows: vec![],
                pinned_warp: None,
                phase: 1,
            },
            Operation {
                name: "g".into(),
                body: vec![Stmt::DefVar(2, Expr::Var(0).add(Expr::Const(0)))],
                n_locals: 0,
                consts: vec![10.0],
                irows: vec![],
                pinned_warp: None,
                phase: 1,
            },
            Operation {
                name: "out".into(),
                body: vec![Stmt::Store {
                    array: 1,
                    row: RowRef::Fixed(0),
                    value: Expr::Var(1).add(Expr::Var(2)),
                }],
                n_locals: 0,
                consts: vec![],
                irows: vec![],
                pinned_warp: None,
                phase: 2,
            },
        ];
        Dfg {
            name: "diamond".into(),
            ops,
            n_vars: 3,
            arrays: vec![
                ArrayDecl { name: "in".into(), rows: 1, output: false },
                ArrayDecl { name: "out".into(), rows: 1, output: true },
            ],
            force_shared: vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::diamond;
    use super::*;
    use crate::kernels::{chemistry, diffusion, viscosity};
    use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
    use chemkin::synth;
    use proptest::prelude::*;

    /// `class[a] == class[b]` exactly when `a.same_skeleton(b)`, for every
    /// pair of distinct ops, asked of `same_skeleton` itself.
    fn classes_are_same_skeleton_for_every_pair(d: &Dfg) {
        let class = d.facts().expect("valid graph").class;
        for (a, op_a) in d.ops.iter().enumerate() {
            for (b, op_b) in d.ops.iter().enumerate().skip(a + 1) {
                let same = op_a.same_skeleton(op_b);
                assert_eq!(class[a] == class[b], same, "{}: ops {a} and {b}", d.name);
            }
        }
    }

    /// The same, for graphs too large to ask about every pair: every op is
    /// the skeleton of its class's first member and of no other class's.
    /// `same_skeleton` is an equivalence (it is equality of canonical
    /// forms), so that settles every pair.
    fn classes_are_same_skeleton_by_representative(d: &Dfg) {
        let class = d.facts().expect("valid graph").class;
        let mut firsts: Vec<usize> = Vec::new();
        for (oi, &c) in class.iter().enumerate() {
            assert!(c as usize <= firsts.len(), "{}: classes number by first appearance", d.name);
            if c as usize == firsts.len() {
                firsts.push(oi);
            }
        }
        for (oi, op) in d.ops.iter().enumerate() {
            for (c, &first) in firsts.iter().enumerate() {
                let same = op.same_skeleton(&d.ops[first]);
                assert_eq!(class[oi] as usize == c, same, "{}: op {oi}, class {c}", d.name);
            }
        }
    }

    #[test]
    fn skeleton_classes_of_the_shipped_graphs() {
        for mech in [synth::dme(), synth::heptane()] {
            let shipped = [
                viscosity::viscosity_dfg(&ViscosityTables::build(&mech), 8),
                diffusion::diffusion_dfg(&DiffusionTables::build(&mech), 8),
                chemistry::chemistry_dfg(&ChemistrySpec::build(&mech), 16),
            ];
            for d in &shipped {
                if d.ops.len() <= 400 {
                    classes_are_same_skeleton_for_every_pair(d);
                } else {
                    classes_are_same_skeleton_by_representative(d);
                }
            }
        }
    }

    #[test]
    fn skeleton_classes_tell_zeros_and_nans_as_equality_does() {
        let mut d = diamond();
        let lits = [0.0, -0.0, f64::NAN, f64::NAN];
        d.ops = (0..4)
            .map(|i| Operation {
                body: vec![Stmt::DefVar(i as VarId, Expr::Lit(lits[i]))],
                ..d.ops[0].clone()
            })
            .collect();
        d.n_vars = 4;
        let class = d.facts().unwrap().class;
        assert_eq!(class[0], class[1], "0.0 == -0.0");
        assert_ne!(class[2], class[3], "NaN != NaN, though spelled alike");
        classes_are_same_skeleton_for_every_pair(&d);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn skeleton_classes_of_synthetic_mechanisms(
            n_species in 4usize..10,
            seed in 0u64..1000,
            warps in 2usize..6,
        ) {
            let mech = synth::via_text(&synth::SynthConfig {
                name: format!("sk{n_species}_{seed}"),
                n_species,
                n_reactions: n_species * 2,
                n_qssa: 0,
                n_stiff: 0,
                seed,
            });
            classes_are_same_skeleton_for_every_pair(
                &viscosity::viscosity_dfg(&ViscosityTables::build(&mech), warps));
            classes_are_same_skeleton_for_every_pair(
                &diffusion::diffusion_dfg(&DiffusionTables::build(&mech), warps));
            classes_are_same_skeleton_for_every_pair(
                &chemistry::chemistry_dfg(&ChemistrySpec::build(&mech), warps));
        }
    }

    #[test]
    fn diamond_validates_and_orders() {
        let d = diamond();
        d.validate().unwrap();
        let order = d.topo_order().unwrap();
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
    }

    #[test]
    fn producers_and_consumers() {
        let d = diamond();
        let prod = d.producers().unwrap();
        assert_eq!(prod, vec![0, 1, 2]);
        let cons = d.consumers();
        assert_eq!(cons[0], vec![1, 2]);
        assert_eq!(cons[1], vec![3]);
    }

    #[test]
    fn double_definition_rejected() {
        let mut d = diamond();
        d.ops[2].body = vec![Stmt::DefVar(1, Expr::Lit(0.0))];
        assert!(d.producers().is_err());
    }

    #[test]
    fn undefined_var_rejected() {
        let mut d = diamond();
        d.n_vars = 4;
        assert!(d.producers().is_err());
    }

    #[test]
    fn cycle_rejected() {
        let mut d = diamond();
        // op0 now also reads v1 — cycle 0 -> 1 -> 0.
        d.ops[0].body.push(Stmt::Local(0, Expr::Var(1)));
        d.ops[0].n_locals = 1;
        assert!(d.topo_order().is_err());
    }

    #[test]
    fn const_slot_out_of_range_rejected() {
        let mut d = diamond();
        d.ops[1].consts.clear();
        assert!(d.validate().is_err());
    }

    #[test]
    fn skeleton_equality() {
        let d = diamond();
        assert!(d.ops[1].same_skeleton(&d.ops[1]));
        assert!(!d.ops[1].same_skeleton(&d.ops[2]));
        // Same structure, different const table values => same skeleton.
        let mut o2 = d.ops[1].clone();
        o2.consts = vec![99.0];
        assert!(d.ops[1].same_skeleton(&o2));
    }

    #[test]
    fn inputs_exclude_self_defined() {
        let op = Operation {
            name: "x".into(),
            body: vec![
                Stmt::DefVar(5, Expr::Lit(1.0)),
                Stmt::DefVar(6, Expr::Var(5).add(Expr::Var(7))),
            ],
            n_locals: 0,
            consts: vec![],
            irows: vec![],
            pinned_warp: None,
            phase: 0,
        };
        assert_eq!(op.inputs(), vec![7]);
        assert_eq!(op.outputs(), vec![5, 6]);
    }

    #[test]
    fn row_slot_out_of_range_rejected() {
        let mut d = diamond();
        d.ops[0].body = vec![Stmt::DefVar(0, Expr::Input { array: 0, row: RowRef::Slot(3) })];
        assert!(d.validate().is_err());
    }
}

