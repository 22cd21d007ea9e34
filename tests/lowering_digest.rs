//! Golden lowering digests: the engine programs of the benchmark's steady
//! kernels, pinned by `gpu_sim::flatcache::engine_digest`.
//!
//! The lowering is that of `LOWERING_VERSION` 10 (PR 21: one program per
//! warp class). A change to `gpu_sim::engine` that claims identical
//! lowering output — and therefore keeps `LOWERING_VERSION`, so warm serve
//! artifacts stay warm — must leave every one of them unchanged; a change
//! that moves one must bump the version and re-record.
//!
//! Why version 10 re-recorded all seven. A baseline kernel's eight warps
//! are one class: it is lowered once, its eight warps share one segment
//! list, and its `PointRef::Thread` accesses are completed from the warp id
//! at run time, so its program is a different artifact. The
//! warp-specialized rows moved by layout only — their classes are
//! singletons, and hashed in the version-9 layout their programs still
//! give the version-9 values (0x0e6b…3c0a, 0x7faa…1c64, 0xfd1d…97bd,
//! 0xe720…4a2b). The layout: the digest now covers the warp → lowered
//! stream map and hashes `EngineStats` through its `Debug` form, in place
//! of the hand-written field list of the version-9 record.
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
    assert_eq!(gpu_sim::LOWERING_VERSION, 10, "re-record the digests with the bump");
    let mech = synth::via_text(&synth::dme_config());
    let kepler = GpuArch::kepler_k20c();
    let hopper = GpuArch::hopper();
    use KernelId::{Chemistry, Diffusion, Viscosity};
    use Variant::{Baseline, WarpSpecialized};
    // The three DME kernels in both variants on Kepler, and the K = 2
    // pipelined viscosity kernel (the serve default on Hopper).
    let golden = [
        (Viscosity, WarpSpecialized, &kepler, 0x7cd2_00ce_0061_5f17_u64),
        (Viscosity, Baseline, &kepler, 0x2426_c8f0_7e47_3742),
        (Diffusion, WarpSpecialized, &kepler, 0x677e_527e_2bc1_4a46),
        (Diffusion, Baseline, &kepler, 0xd016_c401_6453_904a),
        (Chemistry, WarpSpecialized, &kepler, 0xe634_0173_4234_ca25),
        (Chemistry, Baseline, &kepler, 0x78bc_2152_fd97_6e21),
        (Viscosity, WarpSpecialized, &hopper, 0xe11e_8412_af27_45de),
    ];
    let got: Vec<u64> = golden.iter().map(|&(k, v, arch, _)| digest(&mech, k, v, arch)).collect();
    let want: Vec<u64> = golden.iter().map(|g| g.3).collect();
    assert_eq!(got, want, "lowering output moved; digests now {got:#018x?}");
}
