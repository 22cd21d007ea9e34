//! Computation and data mapping (paper §4.1).
//!
//! Assigns operations to warps with a greedy algorithm balancing three
//! metrics — FLOP load, per-warp register pressure, and locality — with
//! autotunable weights, then decides where each dataflow value lives
//! (registers of the producing warp vs shared memory).

use crate::config::CompileOptions;
use crate::dfg::{Dfg, OpId};
use crate::expr::VarId;
use crate::{CResult, CompileError};

/// Where a dataflow value lives (§4.1 second mapping step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarPlace {
    /// Producer warp's registers only (no cross-warp consumers).
    Reg,
    /// Shared memory (communicated between warps); the value may *also*
    /// stay in the producer's registers for its own later uses.
    Shared,
}

/// Result of the mapping stage.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// Warp of each op.
    pub warp_of: Vec<usize>,
    /// Placement of each var.
    pub var_place: Vec<VarPlace>,
    /// Per-warp FLOP totals (diagnostics / balance tests).
    pub warp_flops: Vec<usize>,
}

/// Estimated registers an op's outputs hold live (one double per var).
fn op_reg_cost(dfg: &Dfg, op: OpId) -> usize {
    dfg.ops[op].outputs().len()
}

/// Greedily map operations onto `options.warps` warps.
///
/// Pinned ops (frontend partitioning decisions, §3) are honored first;
/// remaining ops are placed most-expensive-first onto the warp minimizing
/// the weighted cost (paper: "Singe maps operations in order of cost from
/// the most expensive to the least in a way that locally minimizes overall
/// cost").
pub fn map_ops(dfg: &Dfg, options: &CompileOptions) -> CResult<Mapping> {
    let w = options.warps;
    if w == 0 || w > 32 {
        return Err(CompileError::Internal(format!("bad warp count {w}")));
    }
    let n = dfg.ops.len();
    let prod = dfg.producers()?;
    let mut warp_of = vec![usize::MAX; n];
    let mut warp_flops = vec![0usize; w];
    let mut warp_regs = vec![0usize; w];

    for (oi, op) in dfg.ops.iter().enumerate() {
        if let Some(p) = op.pinned_warp {
            if p >= w {
                return Err(CompileError::ResourceExhausted(format!(
                    "op '{}' pinned to warp {p} but only {w} warps targeted",
                    op.name
                )));
            }
            warp_of[oi] = p;
            warp_flops[p] += op.flops();
            warp_regs[p] += op_reg_cost(dfg, oi);
        }
    }

    // Unpinned ops, most expensive first.
    let mut order: Vec<OpId> = (0..n).filter(|&o| warp_of[o] == usize::MAX).collect();
    order.sort_by_key(|&o| std::cmp::Reverse(dfg.ops[o].flops()));

    let consumers = dfg.consumers();
    for oi in order {
        let op = &dfg.ops[oi];
        let flops = op.flops();
        let regs = op_reg_cost(dfg, oi);
        // Locality: warps already hosting producers of our inputs or
        // consumers of our outputs.
        let mut neighbor_warps = vec![0usize; w];
        for v in op.inputs() {
            let p = warp_of[prod[v as usize]];
            if p != usize::MAX {
                neighbor_warps[p] += 1;
            }
        }
        for v in op.outputs() {
            for &c in &consumers[v as usize] {
                let cw = warp_of[c];
                if cw != usize::MAX {
                    neighbor_warps[cw] += 1;
                }
            }
        }
        let total_edges: usize = neighbor_warps.iter().sum();

        let mut best = (f64::INFINITY, 0usize);
        for cand in 0..w {
            let cost = options.w_flops * (warp_flops[cand] + flops) as f64
                + options.w_regs * 64.0 * (warp_regs[cand] + regs) as f64
                + options.w_locality * 64.0 * (total_edges - neighbor_warps[cand]) as f64;
            if cost < best.0 {
                best = (cost, cand);
            }
        }
        let cand = best.1;
        warp_of[oi] = cand;
        warp_flops[cand] += flops;
        warp_regs[cand] += regs;
    }

    // Data placement: cross-warp consumed vars go to shared memory, plus
    // anything the frontend forces there (reduction values, §3.2).
    let mut var_place = vec![VarPlace::Reg; dfg.n_vars as usize];
    for v in 0..dfg.n_vars as usize {
        let pw = warp_of[prod[v]];
        if consumers[v].iter().any(|&c| warp_of[c] != pw) || dfg.force_shared.contains(&(v as u32))
        {
            var_place[v] = VarPlace::Shared;
        }
    }

    Ok(Mapping { warp_of, var_place, warp_flops })
}

impl Mapping {
    /// Vars that must be communicated (placed in shared memory).
    pub fn shared_vars(&self) -> Vec<VarId> {
        self.var_place
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == VarPlace::Shared)
            .map(|(v, _)| v as VarId)
            .collect()
    }

    /// FLOP imbalance: max/mean over warps (1.0 = perfect balance).
    pub fn flop_imbalance(&self) -> f64 {
        let max = *self.warp_flops.iter().max().unwrap_or(&0) as f64;
        let mean =
            self.warp_flops.iter().sum::<usize>() as f64 / self.warp_flops.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::test_support::diamond;
    use crate::dfg::Operation;
    use crate::expr::{Expr, Stmt};

    fn many_ops(n: usize, flops_each: usize) -> Dfg {
        // n independent ops each defining one var with a chain of adds.
        let mut ops = Vec::new();
        for i in 0..n {
            let mut e = Expr::Lit(1.0);
            for _ in 0..flops_each {
                e = e.add(Expr::Lit(1.0));
            }
            ops.push(Operation {
                name: format!("op{i}"),
                body: vec![Stmt::DefVar(i as u32, e)],
                n_locals: 0,
                consts: vec![],
                irows: vec![],
                pinned_warp: None,
                phase: 0,
            });
        }
        // A sink op consuming everything, pinned to warp 0.
        ops.push(Operation {
            name: "sink".into(),
            body: vec![Stmt::Store {
                array: 0,
                row: crate::expr::RowRef::Fixed(0),
                value: (0..n as u32).fold(Expr::Lit(0.0), |acc, v| acc.add(Expr::Var(v))),
            }],
            n_locals: 0,
            consts: vec![],
            irows: vec![],
            pinned_warp: Some(0),
            phase: 1,
        });
        Dfg {
            name: "many".into(),
            ops,
            n_vars: n as u32,
            arrays: vec![gpu_sim::isa::ArrayDecl { name: "out".into(), rows: 1, output: true }],
            force_shared: vec![],
        }
    }

    #[test]
    fn balances_flops_across_warps() {
        let d = many_ops(64, 10);
        // Pure load balance (no locality pull toward the pinned sink).
        let opts = CompileOptions { warps: 8, w_locality: 0.0, w_regs: 0.0, ..Default::default() };
        let m = map_ops(&d, &opts).unwrap();
        assert!(m.flop_imbalance() < 1.3, "imbalance {}", m.flop_imbalance());
        // All warps used.
        for w in 0..8 {
            assert!(m.warp_of.contains(&w), "warp {w} unused");
        }
    }

    #[test]
    fn pinned_ops_respected() {
        let d = many_ops(16, 4);
        let m = map_ops(&d, &CompileOptions::with_warps(4)).unwrap();
        assert_eq!(m.warp_of[16], 0); // the sink
    }

    #[test]
    fn pin_out_of_range_rejected() {
        let mut d = many_ops(4, 1);
        d.ops[0].pinned_warp = Some(9);
        assert!(map_ops(&d, &CompileOptions::with_warps(4)).is_err());
    }

    #[test]
    fn cross_warp_vars_go_shared() {
        let d = many_ops(64, 10);
        let m = map_ops(&d, &CompileOptions::with_warps(8)).unwrap();
        // Vars produced on warp != 0 but consumed by the warp-0 sink must
        // be shared.
        let prod = d.producers().unwrap();
        for v in 0..64u32 {
            let pw = m.warp_of[prod[v as usize]];
            if pw != 0 {
                assert_eq!(m.var_place[v as usize], VarPlace::Shared);
            }
        }
    }

    #[test]
    fn single_warp_keeps_everything_in_regs() {
        let d = diamond();
        let m = map_ops(&d, &CompileOptions::with_warps(1)).unwrap();
        assert!(m.var_place.iter().all(|p| *p == VarPlace::Reg));
    }

    #[test]
    fn locality_weight_pulls_consumers_together() {
        // With a huge locality weight and zero flop weight, everything
        // lands on the sink's warp.
        let d = many_ops(8, 2);
        let opts = CompileOptions {
            warps: 4,
            w_flops: 0.0,
            w_regs: 0.0,
            w_locality: 10.0,
            ..Default::default()
        };
        let m = map_ops(&d, &opts).unwrap();
        for &w in &m.warp_of {
            assert_eq!(w, 0);
        }
    }
}
