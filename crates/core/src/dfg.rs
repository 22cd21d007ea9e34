//! The dataflow graph of operations — output of the first compilation stage
//! (paper §4: "a dataflow graph with nodes corresponding to units of
//! computation, which we refer to as operations, and edges indicating data
//! dependences between operations").

use crate::expr::{Expr, Stmt, VarId};

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
        let defs = self.outputs();
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
        let mut prod = vec![usize::MAX; self.n_vars as usize];
        for (oi, op) in self.ops.iter().enumerate() {
            for v in op.outputs() {
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
        let prod = self.producers()?;
        let n = self.ops.len();
        let mut deps: Vec<Vec<OpId>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (oi, op) in self.ops.iter().enumerate() {
            for v in op.inputs() {
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
        let _ = self.topo_order()?;
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
            if let Some(w) = op.pinned_warp {
                let _ = w;
            }
        }
        Ok(())
    }

    /// Total FLOPs across all ops (per grid point).
    pub fn total_flops(&self) -> usize {
        self.ops.iter().map(|o| o.flops()).sum()
    }
}

/// Renumber var ids by first appearance so structurally identical ops with
/// different vars compare equal.
fn canonical_body(body: &[Stmt]) -> Vec<Stmt> {
    use std::collections::HashMap;
    let mut map: HashMap<VarId, VarId> = HashMap::new();
    fn canon_expr(e: &Expr, map: &mut std::collections::HashMap<VarId, VarId>) -> Expr {
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
        Expr::Input { row: crate::expr::RowRef::Slot(s), .. } => upd(max_row, *s),
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
    use crate::expr::RowRef;

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

