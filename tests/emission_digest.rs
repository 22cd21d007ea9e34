//! Golden emission digests: the bytes each of the three emitters
//! (warp-specialized `codegen`, the data-parallel `baseline`, the naive
//! warp switch) emits, pinned by FNV-1a over `encode_kernel`, in the style
//! of `lowering_digest.rs`.
//!
//! The warp-specialized values are those of `singe::CODEGEN_VERSION` 2:
//! each warp's constants packed to its own maximum (§5.2), adjacent guards
//! with one mask merged, and diffusion at a warp count that divides the
//! species count. (Version 1, recorded at commit ed6e808, was the union
//! constant layout; the compile-path changes of commit 88664af kept those
//! values bit for bit.) The baseline and naive values were first recorded
//! at version 2, at the figure conventions.
//!
//! A change that claims bit-identical kernels must leave every digest
//! alone; one that moves a digest changed what is emitted (and with it
//! verifier verdicts, model predictions and search winners) and must bump
//! `CODEGEN_VERSION` — a persistent serve cache keys on it — and re-record.

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::isa::codec::encode_kernel;
use singe::kernels::{chemistry, diffusion, viscosity};
use singe::search::SearchSpace;
use singe::{CompileOptions, Compiler, Dfg, Variant, CODEGEN_VERSION};
use singe_serve::wire::fnv1a;
use singe_serve::{default_options, KernelId};

fn dfg_for(kernel: KernelId, mech: &chemkin::Mechanism, warps: usize) -> Dfg {
    match kernel {
        KernelId::Viscosity => viscosity::viscosity_dfg(&ViscosityTables::build(mech), warps),
        KernelId::Diffusion => diffusion::diffusion_dfg(&DiffusionTables::build(mech), warps),
        KernelId::Chemistry => chemistry::chemistry_dfg(&ChemistrySpec::build(mech), warps),
    }
}

/// The encoding of `dfg` compiled as `variant` at `opts`, appended to
/// `bytes`; false (and nothing appended) if it does not compile.
fn emit_into(
    dfg: &Dfg,
    variant: Variant,
    opts: &CompileOptions,
    arch: &GpuArch,
    bytes: &mut Vec<u8>,
) -> bool {
    match Compiler::new(arch).options(opts.clone()).compile(dfg, variant) {
        Ok(c) => {
            encode_kernel(&c.kernel, bytes);
            true
        }
        Err(_) => false,
    }
}

/// One digest per canonical figure cell (3 kernels x DME, heptane x Fermi,
/// Kepler, Hopper), each compiled as `variant` the way the figures compile
/// it: the graph built for the serve default's warp count, warp-specialized
/// and naive at the serve defaults, the baseline at `with_warps(8)`.
fn canonical_digests(variant: Variant) -> Vec<u64> {
    let archs = [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()];
    let mut got = Vec::new();
    for mech in [synth::via_text(&synth::dme_config()), synth::via_text(&synth::heptane_config())] {
        for kernel in [KernelId::Viscosity, KernelId::Diffusion, KernelId::Chemistry] {
            for arch in &archs {
                let ws = default_options(kernel, mech.n_transported(), arch);
                let dfg = dfg_for(kernel, &mech, ws.warps);
                let opts = match variant {
                    Variant::Baseline => CompileOptions::with_warps(8),
                    Variant::WarpSpecialized | Variant::Naive => ws,
                };
                let mut bytes = Vec::new();
                assert!(emit_into(&dfg, variant, &opts, arch, &mut bytes), "{variant:?} {kernel:?}");
                got.push(fnv1a(&bytes));
            }
        }
    }
    got
}

/// The 18 canonical warp-specialized figure cells, one digest each.
#[test]
fn canonical_cells_emit_the_recorded_kernels() {
    assert_eq!(CODEGEN_VERSION, 2, "re-record the digests with the bump");
    let golden: [u64; 18] = [
        0x176a_eba1_a33e_57ee, 0x3dc7_9500_4b76_ea7d, 0x28e9_bb17_a9c9_f568,
        0x5390_feaf_164e_1409, 0x0369_b961_0c17_ccff, 0xfc8f_8426_d8c3_08e9,
        0x6108_88de_31b6_224a, 0x842e_1a3d_67f3_c4e3, 0xade9_4382_cd15_846d,
        0xf403_934c_197e_45b0, 0xbc19_e8db_06de_843e, 0x0772_07d3_ec11_9f27,
        0x16c4_0e42_e25a_70a9, 0x74ef_d945_3c43_f527, 0x3bd3_f827_4998_4351,
        0xf77b_c1fe_ac68_62eb, 0xb6b2_88ca_a431_928c, 0x198c_82cd_1f1d_3e7a,
    ];
    let got = canonical_digests(Variant::WarpSpecialized);
    assert_eq!(
        got, golden,
        "emitted kernels moved: bump `CODEGEN_VERSION` and re-record; digests now {got:#018x?}"
    );
}

/// The 18 canonical baseline cells, one digest each. The Fermi cells are
/// the ones whose register budget binds, so they pin the spill decisions
/// of the linear scan.
#[test]
fn canonical_baseline_cells_emit_the_recorded_kernels() {
    assert_eq!(CODEGEN_VERSION, 2, "re-record the digests with the bump");
    let golden: [u64; 18] = [
        0x2d72_7a83_3081_4336, 0x303d_2497_0f11_d523, 0x303d_2497_0f11_d523,
        0x1923_0518_a3e6_a877, 0x2e1d_7e8b_9e79_3e78, 0x2e1d_7e8b_9e79_3e78,
        0xcb82_6773_46ea_a290, 0x125d_ebca_ae21_df9e, 0x125d_ebca_ae21_df9e,
        0x356e_8431_8713_68b9, 0xea2c_de4e_5bc7_7ee8, 0xea2c_de4e_5bc7_7ee8,
        0x7d16_1b0a_dd91_a38a, 0xb0b0_248e_1c63_c6e3, 0xb0b0_248e_1c63_c6e3,
        0xf883_ab2b_2e65_c46a, 0x6057_a5ff_1eb8_0276, 0x6057_a5ff_1eb8_0276,
    ];
    let got = canonical_digests(Variant::Baseline);
    assert_eq!(
        got, golden,
        "emitted kernels moved: bump `CODEGEN_VERSION` and re-record; digests now {got:#018x?}"
    );
}

/// The 18 canonical naive (Figure 9 warp-switch) cells, one digest each.
#[test]
fn canonical_naive_cells_emit_the_recorded_kernels() {
    assert_eq!(CODEGEN_VERSION, 2, "re-record the digests with the bump");
    let golden: [u64; 18] = [
        0xe2ab_c3e3_57a3_3f7c, 0xbaef_ce5f_1b41_a12c, 0xf7ac_ae79_514c_9084,
        0x435c_24dc_1974_120a, 0x2503_d493_c31f_9fea, 0xe894_cfbe_6311_0da8,
        0xd7f5_0e01_c2c4_51df, 0x3f57_d025_0204_a279, 0xf1f7_851c_bed0_82d7,
        0x3f3a_933a_fdce_c1fc, 0xdc3c_5a90_eeea_9b90, 0x77df_59b4_5048_8b89,
        0x1ea8_075a_0c58_b86d, 0x9d45_1650_3568_47cc, 0x1867_0a16_1b20_adcc,
        0x9fad_e038_cf93_6596, 0x591a_3354_5d49_50b8, 0xd016_8540_3323_a1d4,
    ];
    let got = canonical_digests(Variant::Naive);
    assert_eq!(
        got, golden,
        "emitted kernels moved: bump `CODEGEN_VERSION` and re-record; digests now {got:#018x?}"
    );
}

/// The two `search_tune`-shaped rows (DME viscosity on Kepler; diffusion of
/// a DME-shaped synthetic mechanism on Hopper): the first 20 candidates of
/// the search's seed beam that compile, one digest per row over their
/// concatenated encodings. These are the schedules off the figure
/// defaults — other warp counts, stream depths and pipeline depths. (The
/// diffusion graph is built for 15 warps and pins its ops to them, so of
/// its seed beam only the 10 candidates at 15 and 16 warps compile.)
#[test]
fn search_rows_emit_the_recorded_kernels() {
    assert_eq!(CODEGEN_VERSION, 2, "re-record the digests with the bump");
    let heldout = synth::SynthConfig { name: "heldout".into(), seed: 15, ..synth::dme_config() };
    let rows = [
        (synth::dme(), KernelId::Viscosity, GpuArch::kepler_k20c(), 20, 0x1bb5_9ddf_5d5b_ea07u64),
        (synth::via_text(&heldout), KernelId::Diffusion, GpuArch::hopper(), 10, 0x00e2_9372_95d0_2c28),
    ];
    let mut got = Vec::new();
    for (mech, kernel, arch, compiling, _) in &rows {
        let base = default_options(*kernel, mech.n_transported(), arch);
        let dfg = dfg_for(*kernel, mech, base.warps);
        let mut bytes = Vec::new();
        let seeds = SearchSpace::for_arch(arch).seeds(&base);
        let compiled =
            seeds.iter().filter(|o| emit_into(&dfg, Variant::WarpSpecialized, o, arch, &mut bytes)).take(20).count();
        assert_eq!(compiled, *compiling, "{kernel:?}: compiling candidates in the seed beam");
        got.push(fnv1a(&bytes));
    }
    let want: Vec<u64> = rows.iter().map(|r| r.4).collect();
    assert_eq!(
        got, want,
        "emitted kernels moved: bump `CODEGEN_VERSION` and re-record; digests now {got:#018x?}"
    );
}
