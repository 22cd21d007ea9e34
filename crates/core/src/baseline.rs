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

use crate::config::CompileOptions;
use crate::dfg::Dfg;
use crate::expr::{emit_stmts, EmitCtx, NodeSink, RowRef, VarId};
use crate::{CResult, CompileError};
use gpu_sim::arch::GpuArch;
use gpu_sim::isa::{GlobalId, IdxOp, Instr, Kernel, Node, Op, PointRef, Reg};
use gpu_sim::WARP_SIZE;

/// Baseline compilation result.
#[derive(Debug, Clone)]
pub struct BaselineCompiled {
    /// The executable kernel.
    pub kernel: Kernel,
    /// Doubles spilled per thread.
    pub spilled_words: usize,
    /// Total constants placed in constant memory (bytes).
    pub const_bytes: usize,
    /// Maximum simultaneously-live dataflow values (working-set metric).
    pub max_live_vars: usize,
    /// What the verifier found, when it ran ([`crate::verify::runs_for`]).
    pub(crate) verified: Option<crate::verify::Verified>,
}

const N_SCRATCH: usize = 14;

#[derive(Debug, Clone, Copy)]
enum Home {
    Reg(u16),
    Spill(u32),
}

struct BaselineCtx<'a> {
    home: &'a [Home],
    const_base: usize,
    irows: &'a [u32],
    local_base: Reg,
    scratch_free: Vec<Reg>,
    scratch_hwm: usize,
    ldg: bool,
}

impl<'a> EmitCtx for BaselineCtx<'a> {
    fn point(&self) -> PointRef {
        PointRef::Thread
    }

    fn alloc_temp(&mut self) -> CResult<Reg> {
        if let Some(r) = self.scratch_free.pop() {
            return Ok(r);
        }
        if self.scratch_hwm >= N_SCRATCH {
            return Err(CompileError::ResourceExhausted("baseline scratch exhausted".into()));
        }
        let r = self.scratch_hwm as Reg;
        self.scratch_hwm += 1;
        Ok(r)
    }

    fn free_temp(&mut self, r: Reg) {
        self.scratch_free.push(r);
    }

    fn const_op(&mut self, slot: u16, code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)> {
        let tmp = self.alloc_temp()?;
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
        match self.home[v as usize] {
            Home::Reg(r) => Ok((Op::Reg(self.local_base + r), None)),
            Home::Spill(slot) => {
                let tmp = self.alloc_temp()?;
                code.emit(Node::Op(Instr::LdLocal { dst: tmp, slot }))?;
                Ok((Op::Reg(tmp), Some(tmp)))
            }
        }
    }

    fn write_var(&mut self, v: VarId, val: Op, code: &mut dyn NodeSink) -> CResult<()> {
        match self.home[v as usize] {
            Home::Reg(r) => code.emit(Node::Op(Instr::mov(self.local_base + r, val)))?,
            Home::Spill(slot) => code.emit(Node::Op(Instr::StLocal { src: val, slot }))?,
        }
        Ok(())
    }

    fn read_local(&mut self, l: u16, _code: &mut dyn NodeSink) -> CResult<Op> {
        Ok(Op::Reg(self.local_base + 512 + l))
    }

    fn write_local(&mut self, l: u16, val: Op, code: &mut dyn NodeSink) -> CResult<()> {
        code.emit(Node::Op(Instr::mov(self.local_base + 512 + l, val)))?;
        Ok(())
    }

    fn array_global(&self, array: u16) -> GlobalId {
        GlobalId(array as usize)
    }

    fn ldg(&self) -> bool {
        self.ldg
    }
}

/// Implementation behind the [`crate::Compiler`] front door (which also
/// needs the [`BaselineCompiled`]-specific statistics): compile the
/// dataflow graph as a purely data-parallel kernel.
pub(crate) fn baseline_impl(
    dfg: &Dfg,
    options: &CompileOptions,
    arch: &GpuArch,
) -> CResult<BaselineCompiled> {
    dfg.validate()?;
    let order = dfg.topo_order()?;
    let consumers = dfg.consumers();

    // Liveness over the sequential order.
    let mut opos = vec![0usize; dfg.ops.len()];
    for (i, &o) in order.iter().enumerate() {
        opos[o] = i;
    }
    let producers = dfg.producers()?;
    let n_vars = dfg.n_vars as usize;
    let mut def = vec![0usize; n_vars];
    let mut last = vec![0usize; n_vars];
    for v in 0..n_vars {
        def[v] = opos[producers[v]];
        last[v] = consumers[v].iter().map(|&c| opos[c]).max().unwrap_or(def[v]);
    }

    let max_locals = dfg.ops.iter().map(|o| o.n_locals as usize).max().unwrap_or(0);
    let budget_total = (arch.max_regs_per_thread.saturating_sub(4)) / 2;
    let var_budget = budget_total.saturating_sub(N_SCRATCH + max_locals).max(2);

    // Linear-scan allocation with spilling of furthest-last-use values.
    let mut by_def: Vec<VarId> = (0..dfg.n_vars).collect();
    by_def.sort_by_key(|&v| def[v as usize]);
    let mut home = vec![Home::Spill(u32::MAX); n_vars];
    let mut active: Vec<(usize, VarId, u16)> = Vec::new();
    let mut free: Vec<u16> = Vec::new();
    let mut next_reg = 0u16;
    let mut n_spill = 0u32;
    let mut max_live = 0usize;
    for v in by_def {
        let start = def[v as usize];
        let mut i = 0;
        while i < active.len() {
            if active[i].0 < start {
                free.push(active[i].2);
                active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        max_live = max_live.max(active.len() + 1);
        let end = last[v as usize];
        if let Some(r) = free.pop() {
            home[v as usize] = Home::Reg(r);
            active.push((end, v, r));
        } else if (next_reg as usize) < var_budget {
            home[v as usize] = Home::Reg(next_reg);
            active.push((end, v, next_reg));
            next_reg += 1;
        } else {
            let worst = active.iter().enumerate().max_by_key(|(_, (e, _, _))| *e).map(|(i, _)| i);
            match worst {
                Some(wi) if active[wi].0 > end => {
                    let (_, wv, wr) = active.swap_remove(wi);
                    home[wv as usize] = Home::Spill(n_spill);
                    n_spill += 1;
                    home[v as usize] = Home::Reg(wr);
                    active.push((end, v, wr));
                }
                _ => {
                    home[v as usize] = Home::Spill(n_spill);
                    n_spill += 1;
                }
            }
        }
    }

    // Emit ops sequentially; constants concatenate into bank 0.
    let mut bank: Vec<f64> = Vec::new();
    let mut body: Vec<Node> = Vec::new();
    let local_base = N_SCRATCH as Reg;
    for &o in &order {
        let op = &dfg.ops[o];
        let const_base = bank.len();
        bank.extend_from_slice(&op.consts);
        let mut ctx = BaselineCtx {
            home: &home,
            const_base,
            irows: &op.irows,
            local_base,
            scratch_free: Vec::new(),
            scratch_hwm: 0,
            ldg: arch.has_ldg,
        };
        emit_stmts(&op.body, &mut ctx, &mut body)?;
    }

    // Remap local ids (emitted at local_base + 512 + l) into the compact
    // range right after the var registers.
    let n_var_regs = next_reg as usize;
    let remap = |r: Reg| -> Reg {
        if r >= local_base + 512 {
            local_base + n_var_regs as Reg + (r - local_base - 512)
        } else {
            r
        }
    };
    crate::codegen::remap_nodes(&mut body, &remap);

    let dregs = N_SCRATCH + n_var_regs + max_locals;
    let kernel = Kernel {
        name: format!("{}_baseline", dfg.name),
        body,
        warps_per_cta: options.warps,
        points_per_cta: options.warps * WARP_SIZE,
        dregs_per_thread: dregs,
        iregs_per_thread: 2,
        shared_words: 0,
        local_words_per_thread: n_spill as usize,
        const_banks: if bank.is_empty() { vec![] } else { vec![bank.clone()] },
        iconst_banks: vec![],
        barriers_used: 0,
        global_arrays: dfg.arrays.clone(),
        spilled_bytes_per_thread: n_spill as usize * 8,
        exp_const_from_registers: false,
    };
    kernel.check().map_err(CompileError::Internal)?;
    let verified =
        crate::verify::runs_for(options).then(|| crate::verify::enforce(&kernel, arch)).transpose()?;
    Ok(BaselineCompiled {
        kernel,
        spilled_words: n_spill as usize,
        const_bytes: bank.len() * 8,
        max_live_vars: max_live,
        verified,
    })
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
        assert!(c.spilled_words > 0, "expected spills");
        assert_eq!(c.kernel.spilled_bytes_per_thread, c.spilled_words * 8);
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
        assert_eq!(c.const_bytes, 2 * 8);
        assert_eq!(c.kernel.const_banks.len(), 1);
    }
}
