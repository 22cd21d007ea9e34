//! A profiled launch runs CTA 0 on the segment engine, which charges the
//! cycle-attribution profiler once per segment. This holds its
//! `CtaProfile` — every warp's `WarpCycles`, the CTA total, the trace
//! events and their truncation flag — to the interpreter's, which charges
//! the same profiler an instruction at a time, on the 36 canonical figure
//! kernels, with trace events and without.

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::state::{GridDims, GridState};
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::interp::run_cta_profiled;
use gpu_sim::launch::launch_flat;
use gpu_sim::profile::{CtaProfile, Profiler};
use gpu_sim::{flatten_cached, LaunchConfig, LaunchInputs, LaunchMode};
use singe::kernels::{chemistry, diffusion, launch_arrays, viscosity};
use singe::{CompileOptions, Compiler, Variant};
use singe_serve::{default_options, KernelId};

#[test]
fn canonical_kernels_profile_alike_on_both_executors() {
    let archs = [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()];
    let mut kernels = 0;
    for mech in [synth::via_text(&synth::dme_config()), synth::via_text(&synth::heptane_config())] {
        for kernel in [KernelId::Viscosity, KernelId::Diffusion, KernelId::Chemistry] {
            for arch in &archs {
                // The figure conventions: warp-specialized at the serve
                // defaults, the baseline at 8 warps from the same graph.
                let ws = default_options(kernel, mech.n_transported(), arch);
                let dfg = match kernel {
                    KernelId::Viscosity => {
                        viscosity::viscosity_dfg(&ViscosityTables::build(&mech), ws.warps)
                    }
                    KernelId::Diffusion => {
                        diffusion::diffusion_dfg(&DiffusionTables::build(&mech), ws.warps)
                    }
                    KernelId::Chemistry => {
                        chemistry::chemistry_dfg(&ChemistrySpec::build(&mech), ws.warps)
                    }
                };
                for variant in [Variant::WarpSpecialized, Variant::Baseline] {
                    let opts = match variant {
                        Variant::Baseline => CompileOptions::with_warps(8),
                        _ => ws.clone(),
                    };
                    let k = Compiler::new(arch).options(opts).compile(&dfg, variant);
                    let k = k.expect("canonical kernel compiles").kernel;
                    let id = format!("{kernel:?} {} {variant:?} {}", mech.name, arch.name);
                    let prog = flatten_cached(&k);
                    let points = k.points_per_cta;
                    let dims = GridDims { nx: points, ny: 1, nz: 1 };
                    let grid = GridState::random(dims, mech.n_transported(), 7);
                    let arrays = launch_arrays(&k.global_arrays, &grid).expect("known arrays");

                    // The interpreter once, with events: the counters do
                    // not depend on whether events are recorded.
                    let bars = k.barriers_used.max(16);
                    let mut p = Profiler::new(k.warps_per_cta, bars, true, arch);
                    run_cta_profiled(&k, &prog, &arrays, points, 0, true, arch, Some(&mut p))
                        .expect("interpreter runs");
                    let with_events = p.finish();
                    let without =
                        CtaProfile { events: Vec::new(), events_truncated: false, ..with_events.clone() };
                    with_events.check_attribution().expect("closed-set sum");

                    for (trace_events, want) in [(false, &without), (true, &with_events)] {
                        let cfg = LaunchConfig {
                            mode: LaunchMode::TimingOnly,
                            profile: true,
                            trace_events,
                            jobs: 1,
                        };
                        let inputs = LaunchInputs { arrays: arrays.clone() };
                        let out = launch_flat(&k, &prog, arch, &inputs, points, cfg)
                            .expect("profiled launch runs");
                        let got = out.profile.expect("profile requested");
                        assert_eq!(&got, want, "{id}, trace events {trace_events}");
                    }
                    kernels += 1;
                }
            }
        }
    }
    assert_eq!(kernels, 36);
}
