//! The naïve warp-specialized code generator — Figure 9's strawman.
//!
//! "The naïve code generation strategy of using a top-level switch
//! statement on the warp ID to send each warp to a different block of code
//! violates [the GPU's same-code assumption] and results in severe
//! performance degradation" (§5). This module emits exactly that: from the
//! real code generator's own plan (`codegen::plan`: mapping, schedule,
//! barrier allocation), each warp's entire instruction stream becomes its
//! own case of one indirect `WarpSwitch`, with constants inlined as
//! immediates — so warps
//! execute disjoint address ranges and the instruction cache thrashes once
//! enough warp paths exist (Figure 9 shows the cliff at six).

use crate::codegen::{CompileStats, Compiled, EmitPlan, Front};
use crate::dfg::{Dfg, GraphFacts};
use crate::expr::{
    emit_stmts, lay_out_registers, EmitCtx, Homes, NodeSink, RowRef, Scratch, VarHome, VarId,
    N_SCRATCH, VR_LOCAL, VR_VAR,
};
use crate::mapping::Mapping;
use crate::sync::{Item, Schedule};
use crate::{CResult, CompileError};
use gpu_sim::arch::GpuArch;
use gpu_sim::isa::{IdxOp, Instr, Kernel, Node, Op, PointRef, Reg, SAddr};
use gpu_sim::WARP_SIZE;

struct NaiveCtx<'a> {
    mapping: &'a Mapping,
    sched: &'a Schedule,
    producers: &'a [usize],
    warp: usize,
    consts: &'a [f64],
    irows: &'a [u32],
    homes: &'a Homes,
    scratch: Scratch,
    cur_outputs: &'a [VarId],
    ldg: bool,
}

impl<'a> EmitCtx for NaiveCtx<'a> {
    fn point(&self) -> PointRef {
        PointRef::Lane
    }
    fn scratch(&mut self) -> &mut Scratch {
        &mut self.scratch
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
            self.homes.of(v)?.read(&mut self.scratch, code)
        } else {
            let slot = self.sched.var_slot[v as usize].ok_or_else(|| {
                CompileError::Internal(format!("naive: var {v} has no shared slot"))
            })?;
            let tmp = self.scratch.alloc()?;
            code.emit(Node::Op(Instr::LdShared {
                dst: tmp,
                addr: SAddr::lane((slot * WARP_SIZE) as u32),
            }))?;
            Ok((Op::Reg(tmp), Some(tmp)))
        }
    }
    fn write_var(&mut self, v: VarId, val: Op, code: &mut dyn NodeSink) -> CResult<()> {
        self.homes.of(v)?.write(val, code)
    }
    fn ldg(&self) -> bool {
        self.ldg
    }
}

/// Implementation behind the [`crate::Compiler`] front door: emit the
/// planned kernel with the naïve top-level warp switch (Figure 9's
/// comparison), unchecked (`codegen::check_emitted` is the epilogue).
/// `plan` is `codegen::plan`'s for `dfg`, `facts` is `dfg.facts()`.
pub(crate) fn naive_impl(
    dfg: &Dfg,
    facts: &GraphFacts,
    plan: &EmitPlan,
    arch: &GpuArch,
) -> CResult<Compiled> {
    let EmitPlan { front, flags } = plan;
    let Front { mapping, sched, .. } = &**front;
    let producers = &facts.producers;
    let w = flags.warps;

    // Per-warp var register assignment (no pressure handling; the naive
    // generator is a performance strawman, not a production path).
    let mut home: Vec<Option<VarHome>> = vec![None; dfg.n_vars as usize];
    let mut per_warp_count = vec![0u16; w];
    for v in 0..dfg.n_vars as usize {
        let pw = mapping.warp_of[producers[v]];
        home[v] = Some(VarHome::Reg(per_warp_count[pw]));
        per_warp_count[pw] += 1;
    }
    let max_vars = per_warp_count.iter().max().copied().unwrap_or(0) as usize;
    let homes = Homes { home, n_regs: max_vars, n_spill: 0 };
    let max_locals = dfg.ops.iter().map(|o| o.n_locals as usize).max().unwrap_or(0);

    let mut cases: Vec<Vec<Node>> = Vec::with_capacity(w);
    for warp in 0..w {
        let mut code: Vec<Node> = Vec::new();
        for &(_, item) in &sched.items[warp] {
            match item {
                Item::Op(o) => {
                    let op = &dfg.ops[o];
                    let mut ctx = NaiveCtx {
                        mapping,
                        sched,
                        producers,
                        warp,
                        consts: &op.consts,
                        irows: &op.irows,
                        homes: &homes,
                        scratch: Scratch::default(),
                        cur_outputs: &facts.outputs[o],
                        ldg: arch.has_ldg,
                    };
                    emit_stmts(&op.body, &mut ctx, &mut code)?;
                }
                Item::StoreVar(v) => {
                    let slot = sched.var_slot[v as usize]
                        .ok_or_else(|| CompileError::Internal("naive: slotless store".into()))?;
                    // A register home: the read emits nothing and takes no
                    // scratch register.
                    let (src, _) = homes.of(v)?.read(&mut Scratch::default(), &mut code)?;
                    code.push(Node::Op(Instr::StShared {
                        src,
                        addr: SAddr::lane((slot * WARP_SIZE) as u32),
                        lane_pred: None,
                    }));
                }
                // The switch is single-buffered at any depth the plan resolved.
                Item::Arrive(_) | Item::Wait(_) | Item::FullBarrier(_) => {
                    code.extend(plan.barrier(item, 1).map(Node::Op))
                }
            }
        }
        cases.push(code);
    }

    let mut loop_body = vec![Node::WarpSwitch { case_of_warp: (0..w).collect(), cases }];
    loop_body.extend(plan.rendezvous().map(Node::Op));
    let mut full_body = vec![Node::PointLoop { iters: flags.point_iters, body: loop_body }];
    // Register layout: scratch | locals | vars.
    let dregs = lay_out_registers(
        &mut full_body,
        &[(0, N_SCRATCH), (VR_LOCAL, max_locals), (VR_VAR, max_vars)],
    );
    let barriers_used = plan.kernel_barriers(1, arch)?;

    let kernel = Kernel {
        name: format!("{}_naive", dfg.name),
        body: full_body,
        warps_per_cta: w,
        points_per_cta: WARP_SIZE * flags.point_iters as usize,
        dregs_per_thread: dregs,
        iregs_per_thread: 2,
        shared_words: sched.n_slots * WARP_SIZE,
        local_words_per_thread: 0,
        const_banks: vec![],
        iconst_banks: vec![],
        barriers_used,
        global_arrays: dfg.arrays.clone(),
        spilled_bytes_per_thread: 0,
        exp_const_from_registers: flags.exp_const_from_registers,
    };
    let stats = CompileStats {
        sync_points: sched.sync_points.len(),
        merged_syncs: sched.merged_syncs,
        barriers_used,
        shared_slots: sched.n_slots,
        solo_groups: dfg.ops.len(),
        flop_imbalance: mapping.flop_imbalance(),
        ..Default::default()
    };
    Ok(Compiled { kernel, stats, verified: None })
}

#[cfg(test)]
mod tests {
    use crate::kernels::launch_arrays;
    use crate::kernels::viscosity::{viscosity_dfg, ARR_OUT};
    use crate::{CompileOptions, Compiler, Variant};
    use chemkin::reference::reference_viscosity;
    use chemkin::reference::tables::ViscosityTables;
    use chemkin::state::{GridDims, GridState};
    use chemkin::synth;
    use gpu_sim::arch::GpuArch;
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
        let c = Compiler::new(&arch).options(opts).compile(&d, Variant::Naive).unwrap();
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
        let compiler = Compiler::new(&arch).options(opts);
        let naive = compiler.compile(&d, Variant::Naive).unwrap();
        let overlaid = compiler.compile(&d, Variant::WarpSpecialized).unwrap();
        let ni = naive.kernel.static_instructions();
        let oi = overlaid.kernel.static_instructions();
        assert!(ni as f64 > 1.3 * oi as f64, "naive {ni} instructions vs overlaid {oi}");
    }
}
