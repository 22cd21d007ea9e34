//! What the 36 canonical figure kernels keep in memory, as a count: warp
//! classes, the op mix a CTA executes against the ops and micro-ops
//! stored, and `FlatProgram::heap_bytes` — streams once per warp class and
//! per loop, each static instruction once in its decoded form (an `Instr`
//! only for the slow and barrier ops), the constant tail and the lowered
//! program, from lengths times sizes. A memory regression fails here, not
//! only as a resident-set reading of the benchmark.

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::flatcache::{engine_stats, flatten_cached, lowering_shape, resident_bytes};
use singe::kernels::{chemistry, diffusion, viscosity};
use singe::{CompileOptions, Compiler, Variant};
use singe_serve::{default_options, KernelId};

#[test]
fn canonical_kernels_keep_one_program_per_warp_class() {
    let archs = [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()];
    let (mut stream_ops, mut uops, mut exp_ops, mut async_copies) = (0, 0, 0, 0);
    let (mut retained, mut distinct) = (0, 0);
    let (mut stored_ops, mut stored_uops) = (0, 0);
    let mut seen = std::collections::HashSet::new();
    let resident_before = resident_bytes();
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
                    let prog = flatten_cached(&k);
                    let stats = engine_stats(&k, &prog);
                    let shape = lowering_shape(&k, &prog);
                    let id = format!("{kernel:?} {} {variant:?} {}", mech.name, arch.name);

                    let per_warp_ops: usize = (0..prog.n_warps()).map(|w| prog.stream_len(w)).sum();
                    stream_ops += per_warp_ops;
                    uops += stats.uops;
                    exp_ops += stats.exp_ops;
                    async_copies += stats.async_copies;
                    retained += prog.heap_bytes();
                    stored_ops += prog.stored_ops();
                    stored_uops += shape.stored_uops;
                    if seen.insert(prog.fingerprint()) {
                        distinct += prog.heap_bytes();
                    }

                    if variant == Variant::Baseline {
                        assert_eq!(prog.n_classes(), 1, "{id}: every warp runs the same code");
                        // One point per thread: no loop, nothing to roll.
                        assert_eq!((shape.rolled_runs, shape.unrolled_runs), (0, 0), "{id}");
                        assert_eq!(prog.stored_ops() * 8, per_warp_ops, "{id}");
                        // What storing each warp's stream and micro-ops
                        // would hold. Eight warps share one copy, an
                        // eighth; the static tables and operand arenas,
                        // never per warp, bring the whole to 29-39 %.
                        let per_warp = per_warp_ops * 20 + stats.uops as usize * gpu_sim::UOP_BYTES;
                        assert!(
                            prog.heap_bytes() * 5 <= per_warp * 2,
                            "{id}: {} B retained, {per_warp} B per-warp",
                            prog.heap_bytes()
                        );
                    } else {
                        assert_eq!(prog.n_classes(), k.warps_per_cta, "{id}: every warp specialized");
                        // The point loop is one run of each class, and each
                        // is lowered as one rolled period: what is stored is
                        // short of what executes by the trips.
                        let classes = k.warps_per_cta as u32;
                        assert_eq!((shape.rolled_runs, shape.unrolled_runs), (classes, 0), "{id}");
                        assert!(prog.stored_ops() < per_warp_ops, "{id}");
                        assert!(shape.stored_uops < stats.uops, "{id}");
                    }
                    kernels += 1;
                }
            }
        }
    }
    assert_eq!(kernels, 36);
    // What one CTA of each executes has not moved (values at 6f471b1).
    assert_eq!(stream_ops, 4_780_787);
    assert_eq!((uops, exp_ops, async_copies), (3_734_779, 353_264, 0));
    // What is stored of it, a loop body once and not once per trip:
    // 1 008 745 ops and 705 205 micro-ops when this was recorded (PR 22;
    // 1 494 072 micro-ops before loops were rolled).
    assert!(stored_ops <= 1_100_000, "{stored_ops} ops stored");
    assert!(stored_uops <= 750_000, "{stored_uops} micro-ops stored");
    // What they retain: 249 077 864 B with one program per warp class,
    // 145 473 456 B with one body per loop, 77 638 924 B with one stored
    // form per static instruction (a 20-byte decoded form, and an `Instr`
    // for the slow and barrier ops alone) and 24-byte micro-ops.
    assert!(retained <= 90_000_000, "{retained} B retained over the 36 kernels");
    // The memo of this process holds these programs and nothing else, each
    // once (Kepler and Hopper compile some of them to the same kernel).
    assert_eq!(resident_bytes() - resident_before, distinct as u64);
}
