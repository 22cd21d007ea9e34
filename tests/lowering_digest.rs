//! Golden lowering digests: the engine programs of the benchmark's steady
//! kernels, pinned by `gpu_sim::flatcache::engine_digest`.
//!
//! The lowering is that of `LOWERING_VERSION` 13 (a segment counts its
//! constant loads). A change to `gpu_sim::engine` that claims identical
//! lowering output — and therefore keeps `LOWERING_VERSION`, so warm serve
//! artifacts stay warm — must leave every one of them unchanged; a change
//! that moves one must bump the version and re-record.
//!
//! Why version 13 re-recorded all seven. A segment stores how many
//! constant loads its line script holds the lines of, which a profiled run
//! needs to charge constant replay a segment at a time (dead-code
//! elimination can delete a load's micro-op while its lines stay in the
//! script, so the count is not derivable). The digest reads each segment
//! through its `Debug` form, so the new field moved every digest, and
//! nothing else did: with the field left out of that form, all seven are
//! the version-12 values (checked once, when this was recorded).
//!
//! Why version 12 re-recorded all seven. A micro-op's operand is a 4-byte
//! chunk base (`Src(u32)`), which the digest reads through the micro-op's
//! `Debug` form, and the constant tail is the flattening's immediates plus
//! the constants folding interns, with the chunks no micro-op reads
//! dropped: the same chunks in another order. Renumbered in order of first
//! use, every one of the 36 canonical programs is the version-11 program
//! micro-op for micro-op and chunk for chunk (checked once, when this was
//! recorded), and the op mix is pinned by `tests/retained_bytes.rs`.
//!
//! Why version 11 re-recorded the four warp-specialized rows and no other.
//! A point loop whose trips lower to the same micro-ops is lowered as one
//! period of them, closed by a `SegTerm::Repeat` that the executing warp
//! completes with the repetition's point offset: the segment lists, the
//! stored micro-ops and the line scripts of every kernel with a point loop
//! are a different artifact (on Hopper the K = 2 viscosity ring rolls at a
//! period of two trips). The op mix a CTA executes did not move — the
//! digest covers `EngineStats`, and `tests/retained_bytes.rs` pins it. The
//! three baseline rows have no loop (one point per thread): they are the
//! version-10 values, bit for bit, which is how far the per-op lowering and
//! the optimizer passes are unchanged outside a rolled body.
//!
//! Version 10 (PR 21: one program per warp class) had re-recorded all
//! seven: a baseline kernel's eight warps are one class, lowered once, its
//! `PointRef::Thread` accesses completed from the warp id at run time; the
//! digest covers the warp → lowered stream map and hashes `EngineStats`
//! through its `Debug` form.
//!
//! A digest also moves when the kernel that is lowered does. The
//! warp-specialized rows and the diffusion baseline were last re-recorded
//! for that reason with `singe::CODEGEN_VERSION` 2 (constants packed per
//! warp, merged guards, and a diffusion graph built for 15 warps, from
//! which the baseline compiles too).

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::flatcache::{engine_digest, flatten_cached};
use singe::kernels::{chemistry, diffusion, viscosity};
use singe::{Compiler, Variant};
use singe_serve::{default_options, KernelId};

/// Compile at the figure conventions (warp-specialized at the serve
/// defaults, baseline at 8 warps from the same graph) and digest the
/// lowering.
fn digest(mech: &chemkin::Mechanism, kernel: KernelId, variant: Variant, arch: &GpuArch) -> u64 {
    let ws = default_options(kernel, mech.n_transported(), arch);
    let dfg = match kernel {
        KernelId::Viscosity => viscosity::viscosity_dfg(&ViscosityTables::build(mech), ws.warps),
        KernelId::Diffusion => diffusion::diffusion_dfg(&DiffusionTables::build(mech), ws.warps),
        KernelId::Chemistry => chemistry::chemistry_dfg(&ChemistrySpec::build(mech), ws.warps),
    };
    let opts = match variant {
        Variant::Baseline => singe::config::CompileOptions::with_warps(8),
        _ => ws,
    };
    let k = Compiler::new(arch).options(opts).compile(&dfg, variant).expect("compiles").kernel;
    engine_digest(&k, &flatten_cached(&k))
}

#[test]
fn steady_kernels_lower_to_the_recorded_programs() {
    assert_eq!(gpu_sim::LOWERING_VERSION, 13, "re-record the digests with the bump");
    let mech = synth::via_text(&synth::dme_config());
    let kepler = GpuArch::kepler_k20c();
    let hopper = GpuArch::hopper();
    use KernelId::{Chemistry, Diffusion, Viscosity};
    use Variant::{Baseline, WarpSpecialized};
    // The three DME kernels in both variants on Kepler, and the K = 2
    // pipelined viscosity kernel (the serve default on Hopper).
    let golden = [
        (Viscosity, WarpSpecialized, &kepler, 0xe49a_d1d9_917b_7ff9_u64),
        (Viscosity, Baseline, &kepler, 0x8428_37da_4f9e_e829),
        (Diffusion, WarpSpecialized, &kepler, 0x288c_245e_7eaf_c2e0),
        (Diffusion, Baseline, &kepler, 0x029f_071f_35f1_7a99),
        (Chemistry, WarpSpecialized, &kepler, 0x6528_7d33_2b10_f9f7),
        (Chemistry, Baseline, &kepler, 0x0db3_7c65_4e32_2b5e),
        (Viscosity, WarpSpecialized, &hopper, 0x9db1_f0ee_916d_fa1a),
    ];
    let got: Vec<u64> = golden.iter().map(|&(k, v, arch, _)| digest(&mech, k, v, arch)).collect();
    let want: Vec<u64> = golden.iter().map(|g| g.3).collect();
    assert_eq!(got, want, "lowering output moved; digests now {got:#018x?}");
}
