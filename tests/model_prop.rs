//! Property tests for the static analytical performance model
//! ([`gpu_sim::model`]) over randomly synthesized mechanisms: predictions
//! are deterministic (bit-stable, integer cycle counts), the per-warp
//! component terms sum *exactly* to the predicted total (the profiler's
//! closed-set invariant, inherited by construction), and the predicted
//! total never undercuts the issue cycles it is built from. On the
//! canonical warp-specialized kernels the model's barrier counts are a
//! collected run's: it replays the protocol on the schedule the
//! interpreter executes under.

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::flatten_cached;
use gpu_sim::interp::run_cta_profiled;
use gpu_sim::model::{predict, predict_flat};
use proptest::prelude::*;
use singe::config::CompileOptions;
use singe::kernels::{chemistry, diffusion, probe_inputs, viscosity};
use singe::{Compiler, Variant};
use singe_serve::{default_options, KernelId};

/// Compile a warp-specialized kernel for a synthesized mechanism.
fn synth_kernel(
    n_species: usize,
    seed: u64,
    diffusion: bool,
    warps: usize,
    arch: &GpuArch,
) -> gpu_sim::isa::Kernel {
    let m = synth::via_text(&synth::SynthConfig {
        name: format!("mp{n_species}_{seed}"),
        n_species,
        n_reactions: n_species * 2,
        n_qssa: 0,
        n_stiff: 0,
        seed,
    });
    let dfg = if diffusion {
        diffusion::diffusion_dfg(&DiffusionTables::build(&m), warps)
    } else {
        viscosity::viscosity_dfg(&ViscosityTables::build(&m), warps)
    };
    Compiler::new(arch)
        .options(CompileOptions::with_warps(warps))
        .compile(&dfg, Variant::WarpSpecialized)
        .expect("synth kernel compiles")
        .kernel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn model_invariants_hold_on_synth_mechanisms(
        n_species in 4usize..9,
        seed in 0u64..1000,
        diffusion in proptest::bool::ANY,
        warps in 2usize..6,
        kepler in proptest::bool::ANY,
    ) {
        let arch = if kepler { GpuArch::kepler_k20c() } else { GpuArch::fermi_c2070() };
        let kernel = synth_kernel(n_species, seed, diffusion, warps, &arch);

        let a = predict(&kernel, &arch).expect("model accepts compiled kernels");
        let b = predict(&kernel, &arch).expect("model accepts compiled kernels");

        // Determinism: integer cycle counts, bit-stable across calls.
        prop_assert_eq!(a.cta.total_cycles, b.cta.total_cycles);
        for (wa, wb) in a.cta.warps.iter().zip(&b.cta.warps) {
            prop_assert_eq!(wa.issue, wb.issue);
            prop_assert_eq!(&wa.barrier_wait, &wb.barrier_wait);
            prop_assert_eq!(wa.icache_miss, wb.icache_miss);
            prop_assert_eq!(wa.const_replay, wb.const_replay);
            prop_assert_eq!(wa.overhead, wb.overhead);
            prop_assert_eq!(wa.idle, wb.idle);
        }
        prop_assert_eq!(&a.counts, &b.counts);

        // Closed-set attribution: every warp's component terms sum
        // exactly to the predicted CTA total.
        a.cta.check_attribution().expect("attribution sums per warp");
        for wc in &a.cta.warps {
            let sum = wc.issue
                + wc.barrier_wait.iter().sum::<u64>()
                + wc.icache_miss
                + wc.const_replay
                + wc.overhead
                + wc.idle;
            prop_assert_eq!(sum, a.cta.total_cycles);
        }

        // The warp-group rollup partitions the warps: group cycles sum to
        // the per-warp cycles, every warp appears exactly once.
        let mut seen = vec![false; a.cta.warps.len()];
        let mut group_issue = 0u64;
        for g in &a.groups {
            group_issue += g.cycles.issue;
            for &w in &g.warps {
                prop_assert!(!seen[w], "warp {} in two groups", w);
                seen[w] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every warp grouped");
        prop_assert_eq!(group_issue, a.cta.warps.iter().map(|w| w.issue).sum::<u64>());

        // The predicted total can never undercut any warp's issue
        // cycles — waiting and stalls only add on top.
        let max_issue = a.cta.warps.iter().map(|w| w.issue).max().unwrap_or(0);
        prop_assert!(a.cta.total_cycles >= max_issue);
        prop_assert!(a.cta.total_cycles > 0);
    }
}

/// The model's barrier counts — arrives, syncs, and the stall switches that
/// depend on the order the round-robin reaches them in — equal a collected
/// interpreter run's on the 18 canonical warp-specialized kernels (DME and
/// heptane, the three kernels, the three architectures, at the serve
/// defaults the figures use): both step their warps under `gpu_sim`'s one
/// CTA schedule.
#[test]
fn model_barrier_counts_are_a_collected_runs_on_the_canonical_ws_kernels() {
    let archs = [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()];
    let mut stalls = 0;
    for mech in [synth::via_text(&synth::dme_config()), synth::via_text(&synth::heptane_config())] {
        for kernel in [KernelId::Viscosity, KernelId::Diffusion, KernelId::Chemistry] {
            for arch in &archs {
                let opts = default_options(kernel, mech.n_transported(), arch);
                let dfg = match kernel {
                    KernelId::Viscosity => {
                        viscosity::viscosity_dfg(&ViscosityTables::build(&mech), opts.warps)
                    }
                    KernelId::Diffusion => {
                        diffusion::diffusion_dfg(&DiffusionTables::build(&mech), opts.warps)
                    }
                    KernelId::Chemistry => {
                        chemistry::chemistry_dfg(&ChemistrySpec::build(&mech), opts.warps)
                    }
                };
                let k = Compiler::new(arch).options(opts).compile(&dfg, Variant::WarpSpecialized);
                let k = k.expect("canonical kernel compiles").kernel;
                let prog = flatten_cached(&k);
                let id = format!("{kernel:?} {} {}", mech.name, arch.name);

                let model = predict_flat(&k, &prog, arch).expect("model accepts it").counts;
                let inputs = probe_inputs(mech.n_transported(), 1234)(&k, k.points_per_cta);
                let arrays: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
                let run =
                    run_cta_profiled(&k, &prog, &arrays, k.points_per_cta, 0, true, arch, None);
                let run = run.expect("interpreter runs").counts;
                assert_eq!(model.barrier_arrives, run.barrier_arrives, "{id}: arrives");
                assert_eq!(model.barrier_syncs, run.barrier_syncs, "{id}: syncs");
                assert_eq!(
                    model.barrier_stall_switches, run.barrier_stall_switches,
                    "{id}: stall switches"
                );
                assert!(run.barrier_syncs > 0, "{id}: a warp-specialized kernel synchronizes");
                stalls += run.barrier_stall_switches;
            }
        }
    }
    assert!(stalls > 0, "some sync blocked somewhere");
}
