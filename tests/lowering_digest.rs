//! Golden lowering digests: the engine programs of the benchmark's steady
//! kernels, pinned by `gpu_sim::flatcache::engine_digest`.
//!
//! The lowering is that of `LOWERING_VERSION` 9 (first recorded at commit
//! 4f92d55, PR 11). A change to `gpu_sim::engine` that claims identical
//! lowering output — and therefore keeps `LOWERING_VERSION`, so warm serve
//! artifacts stay warm — must leave every one of them unchanged; a change
//! that moves one must bump the version and re-record.
//!
//! A digest also moves when the kernel that is lowered does. The
//! warp-specialized rows and the diffusion baseline were re-recorded with
//! `singe::CODEGEN_VERSION` 2 (constants packed per warp, merged guards,
//! and a diffusion graph built for 15 warps, from which the baseline
//! compiles too); `gpu_sim::engine` did not change, and the viscosity and
//! chemistry baselines kept their values.

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
    assert_eq!(gpu_sim::LOWERING_VERSION, 9, "re-record the digests with the bump");
    let mech = synth::via_text(&synth::dme_config());
    let kepler = GpuArch::kepler_k20c();
    let hopper = GpuArch::hopper();
    use KernelId::{Chemistry, Diffusion, Viscosity};
    use Variant::{Baseline, WarpSpecialized};
    // The three DME kernels in both variants on Kepler, and the K = 2
    // pipelined viscosity kernel (the serve default on Hopper).
    let golden = [
        (Viscosity, WarpSpecialized, &kepler, 0x0e6b_684a_4d21_3c0a_u64),
        (Viscosity, Baseline, &kepler, 0x3153_0bcb_6949_74f2),
        (Diffusion, WarpSpecialized, &kepler, 0x7faa_fc6f_1819_1c64),
        (Diffusion, Baseline, &kepler, 0x5cba_3525_f7c1_1dc7),
        (Chemistry, WarpSpecialized, &kepler, 0xfd1d_5f2e_be2a_97bd),
        (Chemistry, Baseline, &kepler, 0x5ae6_ad04_5447_1094),
        (Viscosity, WarpSpecialized, &hopper, 0xe720_d361_9054_4a2b),
    ];
    let got: Vec<u64> = golden.iter().map(|&(k, v, arch, _)| digest(&mech, k, v, arch)).collect();
    let want: Vec<u64> = golden.iter().map(|g| g.3).collect();
    assert_eq!(got, want, "lowering output moved; digests now {got:#018x?}");
}
