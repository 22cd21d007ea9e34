//! The optimized **data-parallel** baseline compiler — the comparison point
//! of the paper's evaluation (§6).
//!
//! One thread handles one grid point (the traditional CUDA model, §3.1).
//! The whole dataflow graph executes sequentially per thread:
//!
//! * every dataflow value lives in thread registers, allocated by linear
//!   scan; when the working set exceeds the architectural register budget
//!   the allocator **spills to local memory** — producing exactly the
//!   local-memory traffic that makes the baseline kernels memory-bound
//!   (§6.1, §6.3);
//! * constants are read **through the constant cache** at each use
//!   (`LdConst` with immediate indices); mechanisms whose constant
//!   working set exceeds the 8 KB cache thrash it (§3.2);
//! * on Kepler, global loads use the LDG texture path and FMAs read
//!   constant-memory operands directly (§6 baseline optimizations).

use crate::codegen::{CompileStats, Compiled};
use crate::config::CompileOptions;
use crate::dfg::Dfg;
use crate::expr::{
    emit_stmts, lay_out_registers, linear_scan, EmitCtx, Homes, NodeSink, RowRef, Scratch, VarId,
    N_SCRATCH, VR_LOCAL, VR_VAR,
};
use crate::CResult;
use gpu_sim::arch::GpuArch;
use gpu_sim::isa::{IdxOp, Instr, Kernel, Node, Op, PointRef, Reg};
use gpu_sim::WARP_SIZE;

struct BaselineCtx<'a> {
    homes: &'a Homes,
    const_base: usize,
    irows: &'a [u32],
    scratch: Scratch,
    ldg: bool,
}

impl<'a> EmitCtx for BaselineCtx<'a> {
    fn point(&self) -> PointRef {
        PointRef::Thread
    }

    fn scratch(&mut self) -> &mut Scratch {
        &mut self.scratch
    }

    fn const_op(&mut self, slot: u16, code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)> {
        let tmp = self.scratch.alloc()?;
        code.emit(Node::Op(Instr::LdConst {
            dst: tmp,
            bank: 0,
            idx: IdxOp::Imm((self.const_base + slot as usize) as u32),
        }))?;
        Ok((Op::Reg(tmp), Some(tmp)))
    }

    fn consts_in_cache(&self) -> bool {
        true
    }

    fn row_idx(&mut self, row: &RowRef, _code: &mut dyn NodeSink) -> CResult<IdxOp> {
        // All instances are inlined sequentially, so per-instance rows
        // resolve statically.
        Ok(match row {
            RowRef::Fixed(r) => IdxOp::Imm(*r),
            RowRef::Slot(s) => IdxOp::Imm(self.irows[*s as usize]),
        })
    }

    fn read_var(&mut self, v: VarId, code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)> {
        self.homes.of(v)?.read(&mut self.scratch, code)
    }

    fn write_var(&mut self, v: VarId, val: Op, code: &mut dyn NodeSink) -> CResult<()> {
        self.homes.of(v)?.write(val, code)
    }

    fn ldg(&self) -> bool {
        self.ldg
    }
}

/// Implementation behind the [`crate::Compiler`] front door: compile the
/// dataflow graph as a purely data-parallel kernel, unchecked
/// (`codegen::check_emitted` is the epilogue). The statistics carry the
/// spill count alone.
pub(crate) fn baseline_impl(
    dfg: &Dfg,
    options: &CompileOptions,
    arch: &GpuArch,
) -> CResult<Compiled> {
    dfg.validate()?;
    let order = dfg.topo_order()?;
    let consumers = dfg.consumers();

    // Liveness over the sequential order.
    let mut opos = vec![0usize; dfg.ops.len()];
    for (i, &o) in order.iter().enumerate() {
        opos[o] = i;
    }
    let producers = dfg.producers()?;
    let live: Vec<Option<(usize, usize)>> = (0..dfg.n_vars as usize)
        .map(|v| {
            let def = opos[producers[v]];
            let last = consumers[v].iter().map(|&c| opos[c]).max().unwrap_or(def);
            Some((def, last))
        })
        .collect();

    let max_locals = dfg.ops.iter().map(|o| o.n_locals as usize).max().unwrap_or(0);
    let budget_total = (arch.max_regs_per_thread.saturating_sub(4)) / 2;
    let var_budget = budget_total.saturating_sub(N_SCRATCH + max_locals).max(2);
    let homes = linear_scan(&live, var_budget);

    // Emit ops sequentially; constants concatenate into bank 0.
    let mut bank: Vec<f64> = Vec::new();
    let mut body: Vec<Node> = Vec::new();
    for &o in &order {
        let op = &dfg.ops[o];
        let const_base = bank.len();
        bank.extend_from_slice(&op.consts);
        let mut ctx = BaselineCtx {
            homes: &homes,
            const_base,
            irows: &op.irows,
            scratch: Scratch::default(),
            ldg: arch.has_ldg,
        };
        emit_stmts(&op.body, &mut ctx, &mut body)?;
    }

    // Register layout: scratch | vars | locals.
    let dregs = lay_out_registers(
        &mut body,
        &[(0, N_SCRATCH), (VR_VAR, homes.n_regs), (VR_LOCAL, max_locals)],
    );
    let kernel = Kernel {
        name: format!("{}_baseline", dfg.name),
        body,
        warps_per_cta: options.warps,
        points_per_cta: options.warps * WARP_SIZE,
        dregs_per_thread: dregs,
        iregs_per_thread: 2,
        shared_words: 0,
        local_words_per_thread: homes.n_spill,
        const_banks: if bank.is_empty() { vec![] } else { vec![bank] },
        iconst_banks: vec![],
        barriers_used: 0,
        global_arrays: dfg.arrays.clone(),
        spilled_bytes_per_thread: homes.n_spill * 8,
        exp_const_from_registers: false,
    };
    let stats = CompileStats { spilled_vars: homes.n_spill, ..Default::default() };
    Ok(Compiled { kernel, stats, verified: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::test_support::diamond;
    use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};

    #[test]
    fn diamond_baseline_matches_reference() {
        let d = diamond();
        let opts = CompileOptions::with_warps(2);
        let c = baseline_impl(&d, &opts, &GpuArch::kepler_k20c()).unwrap();
        assert_eq!(c.kernel.points_per_cta, 64);
        let points = 128;
        let input: Vec<f64> = (0..points).map(|i| i as f64 * 0.5).collect();
        let arch = GpuArch::kepler_k20c();
        let out = launch(&c.kernel, &arch, &LaunchInputs { arrays: vec![&input, &[]] }, points, LaunchMode::Full)
            .unwrap();
        for p in 0..points {
            let x = input[p];
            assert_eq!(out.outputs[1][p], x * 2.0 + (x + 10.0), "point {p}");
        }
    }

    #[test]
    fn tiny_budget_forces_spills() {
        // A chain of many simultaneously-live vars on a tiny fake arch.
        let mut arch = GpuArch::fermi_c2070();
        arch.max_regs_per_thread = 40; // (40-4)/2 - 14 = 4 var regs
        let mut ops = Vec::new();
        let n = 12u32;
        for i in 0..n {
            ops.push(crate::dfg::Operation {
                name: format!("v{i}"),
                body: vec![crate::expr::Stmt::DefVar(
                    i,
                    crate::expr::Expr::Input { array: 0, row: RowRef::Fixed(0) },
                )],
                n_locals: 0,
                consts: vec![],
                irows: vec![],
                pinned_warp: None,
                phase: 0,
            });
        }
        // Sink keeps all alive simultaneously.
        ops.push(crate::dfg::Operation {
            name: "sink".into(),
            body: vec![crate::expr::Stmt::Store {
                array: 1,
                row: RowRef::Fixed(0),
                value: (0..n).fold(crate::expr::Expr::Lit(0.0), |a, v| {
                    a.add(crate::expr::Expr::Var(v))
                }),
            }],
            n_locals: 0,
            consts: vec![],
            irows: vec![],
            pinned_warp: None,
            phase: 1,
        });
        let d = Dfg {
            name: "spilly".into(),
            ops,
            n_vars: n,
            arrays: vec![
                gpu_sim::isa::ArrayDecl { name: "in".into(), rows: 1, output: false },
                gpu_sim::isa::ArrayDecl { name: "out".into(), rows: 1, output: true },
            ],
            force_shared: vec![],
        };
        let c = baseline_impl(&d, &CompileOptions::with_warps(1), &arch).unwrap();
        assert!(c.stats.spilled_vars > 0, "expected spills");
        assert_eq!(c.kernel.spilled_bytes_per_thread, c.stats.spilled_vars * 8);
        // And the kernel still computes the right value.
        let points = 32;
        let input = vec![3.0; points];
        let out = launch(&c.kernel, &arch, &LaunchInputs { arrays: vec![&input, &[]] }, points, LaunchMode::Full)
            .unwrap();
        assert_eq!(out.outputs[1][0], 36.0);
    }

    #[test]
    fn constants_go_to_constant_memory() {
        let d = diamond();
        let c = baseline_impl(&d, &CompileOptions::with_warps(1), &GpuArch::fermi_c2070()).unwrap();
        // The diamond's two constants, in one bank read through the cache.
        assert_eq!(c.kernel.const_banks, [vec![2.0, 10.0]]);
    }
}
