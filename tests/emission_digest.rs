//! Golden emission digests: the bytes `codegen` emits, pinned by FNV-1a
//! over `encode_kernel`, in the style of `lowering_digest.rs`.
//!
//! The values were recorded at commit ed6e808 (PR 14), before the
//! compile path stopped redoing its per-graph analyses and before overlay
//! matching stopped at the first differing node. Those changes claim
//! bit-identical kernels; one that moves a digest changed what is emitted
//! (and with it verifier verdicts, model predictions and search winners).

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::isa::codec::encode_kernel;
use singe::kernels::{chemistry, diffusion, viscosity};
use singe::search::SearchSpace;
use singe::{CompileOptions, Compiler, Dfg, Variant};
use singe_serve::wire::fnv1a;
use singe_serve::{default_options, KernelId};

fn dfg_for(kernel: KernelId, mech: &chemkin::Mechanism, warps: usize) -> Dfg {
    match kernel {
        KernelId::Viscosity => viscosity::viscosity_dfg(&ViscosityTables::build(mech), warps),
        KernelId::Diffusion => diffusion::diffusion_dfg(&DiffusionTables::build(mech), warps),
        KernelId::Chemistry => chemistry::chemistry_dfg(&ChemistrySpec::build(mech), warps),
    }
}

/// The encoding of `dfg` compiled warp-specialized at `opts`, appended to
/// `bytes`; false (and nothing appended) if it does not compile.
fn emit_into(dfg: &Dfg, opts: &CompileOptions, arch: &GpuArch, bytes: &mut Vec<u8>) -> bool {
    match Compiler::new(arch).options(opts.clone()).compile(dfg, Variant::WarpSpecialized) {
        Ok(c) => {
            encode_kernel(&c.kernel, bytes);
            true
        }
        Err(_) => false,
    }
}

/// The 18 canonical warp-specialized figure cells (3 kernels x DME,
/// heptane x Fermi, Kepler, Hopper at the serve defaults), one digest each.
#[test]
fn canonical_cells_emit_the_recorded_kernels() {
    let golden: [u64; 18] = [
        0x3173_f830_d004_d6ec, 0x8f6e_dde1_90da_015b, 0xcbfe_619e_dbee_0699,
        0x100a_d8f3_9dfd_de6c, 0x2ab9_957c_b368_d2b8, 0x877b_1a2e_8c04_43c5,
        0x3c9e_8840_a4b5_0a9f, 0x0d8a_eda6_3689_c288, 0xe14a_2d90_3fb4_3783,
        0x2811_0823_6a17_389d, 0xe899_5620_00d6_43f5, 0x4c68_2fa7_4928_58c4,
        0x068e_05ec_4fb5_fbab, 0x9d18_a54e_ecb6_e2d1, 0x6a7a_3bae_4cca_4713,
        0xfedc_b0f6_5211_46e7, 0x56ef_ac87_402c_c6a4, 0x6d50_8c0f_38cc_16ed,
    ];
    let archs = [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()];
    let mut got = Vec::new();
    for mech in [synth::via_text(&synth::dme_config()), synth::via_text(&synth::heptane_config())] {
        for kernel in [KernelId::Viscosity, KernelId::Diffusion, KernelId::Chemistry] {
            for arch in &archs {
                let opts = default_options(kernel, mech.n_transported(), arch);
                let mut bytes = Vec::new();
                assert!(emit_into(&dfg_for(kernel, &mech, opts.warps), &opts, arch, &mut bytes));
                got.push(fnv1a(&bytes));
            }
        }
    }
    assert_eq!(got, golden, "emitted kernels moved; digests now {got:#018x?}");
}

/// The two `search_tune`-shaped rows (DME viscosity on Kepler; diffusion of
/// a DME-shaped synthetic mechanism on Hopper): the first 20 candidates of
/// the search's seed beam that compile, one digest per row over their
/// concatenated encodings. These are the schedules off the figure
/// defaults — other warp counts, stream depths and pipeline depths.
#[test]
fn search_rows_emit_the_recorded_kernels() {
    let heldout = synth::SynthConfig { name: "heldout".into(), seed: 15, ..synth::dme_config() };
    let rows = [
        (synth::dme(), KernelId::Viscosity, GpuArch::kepler_k20c(), 0x1210_5195_6c3e_92bb_u64),
        (synth::via_text(&heldout), KernelId::Diffusion, GpuArch::hopper(), 0x4dda_bb5f_0e8c_96f7),
    ];
    let mut got = Vec::new();
    for (mech, kernel, arch, _) in &rows {
        let base = default_options(*kernel, mech.n_transported(), arch);
        let dfg = dfg_for(*kernel, mech, base.warps);
        let mut bytes = Vec::new();
        let seeds = SearchSpace::for_arch(arch).seeds(&base);
        let compiled =
            seeds.iter().filter(|o| emit_into(&dfg, o, arch, &mut bytes)).take(20).count();
        assert_eq!(compiled, 20, "{kernel:?}: the seed beam has 20 compiling candidates");
        got.push(fnv1a(&bytes));
    }
    let want: Vec<u64> = rows.iter().map(|r| r.3).collect();
    assert_eq!(got, want, "emitted kernels moved; digests now {got:#018x?}");
}
