//! The naïve warp-specialized code generator — Figure 9's strawman.
//!
//! "The naïve code generation strategy of using a top-level switch
//! statement on the warp ID to send each warp to a different block of code
//! violates [the GPU's same-code assumption] and results in severe
//! performance degradation" (§5). This module emits exactly that: the same
//! mapping, schedule, and barrier allocation as the real code generator,
//! but each warp's entire instruction stream becomes its own case of one
//! indirect `WarpSwitch`, with constants inlined as immediates — so warps
//! execute disjoint address ranges and the instruction cache thrashes once
//! enough warp paths exist (Figure 9 shows the cliff at six).

use crate::barrier_alloc::allocate;
use crate::codegen::{Compiled, CompileStats};
use crate::config::CompileOptions;
use crate::dfg::Dfg;
use crate::expr::{emit_stmts, EmitCtx, NodeSink, RowRef, VarId};
use crate::mapping::{map_ops, Mapping};
use crate::sync::{schedule, Item, Schedule};
use crate::{CResult, CompileError};
use gpu_sim::arch::GpuArch;
use gpu_sim::isa::{GlobalId, IdxOp, Instr, Kernel, Node, Op, PointRef, Reg, SAddr};
use gpu_sim::WARP_SIZE;

const N_SCRATCH: usize = 14;

struct NaiveCtx<'a> {
    mapping: &'a Mapping,
    sched: &'a Schedule,
    producers: &'a [usize],
    warp: usize,
    consts: &'a [f64],
    irows: &'a [u32],
    var_reg: &'a [Option<u16>],
    local_base: Reg,
    scratch_free: Vec<Reg>,
    scratch_hwm: usize,
    cur_outputs: Vec<VarId>,
    ldg: bool,
}

impl<'a> EmitCtx for NaiveCtx<'a> {
    fn point(&self) -> PointRef {
        PointRef::Lane
    }
    fn alloc_temp(&mut self) -> CResult<Reg> {
        if let Some(r) = self.scratch_free.pop() {
            return Ok(r);
        }
        if self.scratch_hwm >= N_SCRATCH {
            return Err(CompileError::ResourceExhausted("naive scratch exhausted".into()));
        }
        let r = self.scratch_hwm as Reg;
        self.scratch_hwm += 1;
        Ok(r)
    }
    fn free_temp(&mut self, r: Reg) {
        self.scratch_free.push(r);
    }
    fn const_op(&mut self, slot: u16, _code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)> {
        // Inlined immediate — per-warp code, no sharing (the whole point).
        Ok((Op::Imm(self.consts[slot as usize]), None))
    }
    fn consts_in_cache(&self) -> bool {
        false
    }
    fn row_idx(&mut self, row: &RowRef, _code: &mut dyn NodeSink) -> CResult<IdxOp> {
        Ok(match row {
            RowRef::Fixed(r) => IdxOp::Imm(*r),
            RowRef::Slot(s) => IdxOp::Imm(self.irows[*s as usize]),
        })
    }
    fn read_var(&mut self, v: VarId, code: &mut dyn NodeSink) -> CResult<(Op, Option<Reg>)> {
        let pw = self.mapping.warp_of[self.producers[v as usize]];
        if pw == self.warp || self.cur_outputs.contains(&v) {
            match self.var_reg[v as usize] {
                Some(r) => Ok((Op::Reg(self.local_base + 512 + r), None)),
                None => Err(CompileError::Internal(format!("naive: var {v} unallocated"))),
            }
        } else {
            let slot = self.sched.var_slot[v as usize].ok_or_else(|| {
                CompileError::Internal(format!("naive: var {v} has no shared slot"))
            })?;
            let tmp = self.alloc_temp()?;
            code.emit(Node::Op(Instr::LdShared {
                dst: tmp,
                addr: SAddr::lane((slot * WARP_SIZE) as u32),
            }))?;
            Ok((Op::Reg(tmp), Some(tmp)))
        }
    }
    fn write_var(&mut self, v: VarId, val: Op, code: &mut dyn NodeSink) -> CResult<()> {
        match self.var_reg[v as usize] {
            Some(r) => {
                code.emit(Node::Op(Instr::mov(self.local_base + 512 + r, val)))?
            }
            None => return Err(CompileError::Internal("naive: write unallocated var".into())),
        }
        Ok(())
    }
    fn read_local(&mut self, l: u16, _code: &mut dyn NodeSink) -> CResult<Op> {
        Ok(Op::Reg(self.local_base + l))
    }
    fn write_local(&mut self, l: u16, val: Op, code: &mut dyn NodeSink) -> CResult<()> {
        code.emit(Node::Op(Instr::mov(self.local_base + l, val)))?;
        Ok(())
    }
    fn array_global(&self, array: u16) -> GlobalId {
        GlobalId(array as usize)
    }
    fn ldg(&self) -> bool {
        self.ldg
    }
}

/// Implementation behind the [`crate::Compiler`] front door: compile with
/// the naïve top-level warp switch (Figure 9's comparison).
pub(crate) fn naive_impl(dfg: &Dfg, options: &CompileOptions, arch: &GpuArch) -> CResult<Compiled> {
    dfg.validate()?;
    let mapping = map_ops(dfg, options)?;
    let max_sync = crate::codegen::sync_barrier_budget(arch);
    let sched = schedule(dfg, &mapping, options, max_sync as usize)?;
    sched.verify(dfg)?;
    let barriers = allocate(&sched, max_sync)?;
    let producers = dfg.producers()?;
    let w = options.warps;

    // Per-warp var register assignment (no pressure handling; the naive
    // generator is a performance strawman, not a production path).
    let mut var_reg: Vec<Option<u16>> = vec![None; dfg.n_vars as usize];
    let mut per_warp_count = vec![0u16; w];
    for v in 0..dfg.n_vars as usize {
        let pw = mapping.warp_of[producers[v]];
        var_reg[v] = Some(per_warp_count[pw]);
        per_warp_count[pw] += 1;
    }
    let max_vars = per_warp_count.iter().max().copied().unwrap_or(0) as usize;
    let max_locals = dfg.ops.iter().map(|o| o.n_locals as usize).max().unwrap_or(0);

    let mut cases: Vec<Vec<Node>> = Vec::with_capacity(w);
    for warp in 0..w {
        let mut code: Vec<Node> = Vec::new();
        for (_, item) in &sched.items[warp] {
            match item {
                Item::Op(o) => {
                    let op = &dfg.ops[*o];
                    let mut ctx = NaiveCtx {
                        mapping: &mapping,
                        sched: &sched,
                        producers: &producers,
                        warp,
                        consts: &op.consts,
                        irows: &op.irows,
                        var_reg: &var_reg,
                        local_base: N_SCRATCH as Reg,
                        scratch_free: Vec::new(),
                        scratch_hwm: 0,
                        cur_outputs: op.outputs(),
                        ldg: arch.has_ldg,
                    };
                    emit_stmts(&op.body, &mut ctx, &mut code)?;
                }
                Item::StoreVar(v) => {
                    let slot = sched.var_slot[*v as usize]
                        .ok_or_else(|| CompileError::Internal("naive: slotless store".into()))?;
                    let r = var_reg[*v as usize].unwrap();
                    code.push(Node::Op(Instr::StShared {
                        src: Op::Reg(N_SCRATCH as Reg + 512 + r),
                        addr: SAddr::lane((slot * WARP_SIZE) as u32),
                        lane_pred: None,
                    }));
                }
                Item::Arrive(s) => {
                    if !options.unsafe_remove_barriers {
                        let sp = &sched.sync_points[*s];
                        code.push(Node::Op(Instr::BarArrive {
                            bar: barriers.of_sync[*s],
                            warps: sp.warps().len() as u16,
                        }));
                    }
                }
                Item::Wait(s) => {
                    if !options.unsafe_remove_barriers {
                        let sp = &sched.sync_points[*s];
                        code.push(Node::Op(Instr::BarSync {
                            bar: barriers.of_sync[*s],
                            warps: sp.warps().len() as u16,
                        }));
                    }
                }
                Item::FullBarrier(_) => {
                    if !options.unsafe_remove_barriers {
                        code.push(Node::Op(Instr::BarSync {
                            bar: barriers.full_barrier,
                            warps: w as u16,
                        }));
                    }
                }
            }
        }
        cases.push(code);
    }

    let mut loop_body = vec![Node::WarpSwitch { case_of_warp: (0..w).collect(), cases }];
    if !sched.sync_points.is_empty() && !options.unsafe_remove_barriers && options.point_iters > 1
    {
        loop_body.push(Node::Op(Instr::BarSync { bar: barriers.full_barrier, warps: w as u16 }));
    }
    let mut full_body = vec![Node::PointLoop { iters: options.point_iters, body: loop_body }];

    // Remap local/var registers into a compact range.
    let local_base = N_SCRATCH as Reg;
    let remap = move |r: Reg| -> Reg {
        if r >= local_base + 512 {
            local_base + max_locals as Reg + (r - local_base - 512)
        } else {
            r
        }
    };
    crate::codegen::remap_nodes(&mut full_body, &remap);

    let uses_full = !sched.full_barriers.is_empty()
        || (!sched.sync_points.is_empty()
            && !options.unsafe_remove_barriers
            && options.point_iters > 1);
    let kernel_barriers = (barriers.barriers_used + usize::from(uses_full)).max(1);

    let kernel = Kernel {
        name: format!("{}_naive", dfg.name),
        body: full_body,
        warps_per_cta: w,
        points_per_cta: WARP_SIZE * options.point_iters as usize,
        dregs_per_thread: N_SCRATCH + max_locals + max_vars,
        iregs_per_thread: 2,
        shared_words: sched.n_slots * WARP_SIZE,
        local_words_per_thread: 0,
        const_banks: vec![],
        iconst_banks: vec![],
        barriers_used: kernel_barriers.min(arch.named_barriers_per_sm),
        global_arrays: dfg.arrays.clone(),
        spilled_bytes_per_thread: 0,
        exp_const_from_registers: options.exp_const_from_registers,
    };
    kernel.check().map_err(CompileError::Internal)?;
    let verified =
        crate::verify::runs_for(options).then(|| crate::verify::enforce(&kernel, arch)).transpose()?;
    let stats = CompileStats {
        sync_points: sched.sync_points.len(),
        merged_syncs: sched.merged_syncs,
        barriers_used: kernel_barriers,
        shared_slots: sched.n_slots,
        solo_groups: dfg.ops.len(),
        flop_imbalance: mapping.flop_imbalance(),
        ..Default::default()
    };
    Ok(Compiled { kernel, stats, verified })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::launch_arrays;
    use crate::kernels::viscosity::{viscosity_dfg, ARR_OUT};
    use chemkin::reference::reference_viscosity;
    use chemkin::reference::tables::ViscosityTables;
    use chemkin::state::{GridDims, GridState};
    use chemkin::synth;
    use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};

    #[test]
    fn naive_viscosity_matches_reference() {
        let m = synth::via_text(&synth::SynthConfig {
            name: "nv".into(),
            n_species: 6,
            n_reactions: 8,
            n_qssa: 0,
            n_stiff: 0,
            seed: 5,
        });
        let t = ViscosityTables::build(&m);
        let d = viscosity_dfg(&t, 3);
        let opts = CompileOptions::with_warps(3);
        let arch = GpuArch::kepler_k20c();
        let c = naive_impl(&d, &opts, &arch).unwrap();
        let points = c.kernel.points_per_cta * 2;
        let g = GridState::random(GridDims { nx: points, ny: 1, nz: 1 }, t.n, 3);
        let expect = reference_viscosity(&t, &g);
        let arrays = launch_arrays(&c.kernel.global_arrays, &g).expect("known arrays");
        let out = launch(&c.kernel, &arch, &LaunchInputs { arrays }, points, LaunchMode::Full)
            .unwrap();
        for p in 0..points {
            let (got, want) = (out.outputs[ARR_OUT as usize][p], expect[p]);
            assert!(((got - want) / want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn naive_code_is_much_larger_than_overlaid() {
        let m = synth::via_text(&synth::SynthConfig {
            name: "nv2".into(),
            n_species: 8,
            n_reactions: 8,
            n_qssa: 0,
            n_stiff: 0,
            seed: 6,
        });
        let t = ViscosityTables::build(&m);
        let d = viscosity_dfg(&t, 4);
        let opts = CompileOptions::with_warps(4);
        let arch = GpuArch::kepler_k20c();
        let naive = naive_impl(&d, &opts, &arch).unwrap();
        let overlaid = crate::codegen::compile_warp_specialized(&d, &opts, &arch, None).unwrap();
        let ni = naive.kernel.static_instructions();
        let oi = overlaid.kernel.static_instructions();
        assert!(ni as f64 > 1.3 * oi as f64, "naive {ni} instructions vs overlaid {oi}");
    }
}
