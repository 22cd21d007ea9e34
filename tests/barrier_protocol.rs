//! Integration tests of the named-barrier machinery end to end: the
//! Figure 2 producer/consumer protocol under reuse, the paper's
//! footnote-1 occupancy interaction, and barrier-count accounting across
//! compiled kernels.

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables};
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::isa::*;
use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
use gpu_sim::occupancy::occupancy;
use singe::{Compiler, Variant};
use singe::config::{CompileOptions, Placement};
use singe::kernels::{chemistry, diffusion};

/// Figure 2's two-barrier producer/consumer protocol, iterated many times
/// through a point loop so the barriers are recycled across generations —
/// the pattern multi-pass kernels depend on.
#[test]
fn figure2_protocol_under_heavy_reuse() {
    let iters = 50u32;
    let kernel = Kernel {
        name: "fig2".into(),
        body: vec![Node::PointLoop {
            iters,
            body: vec![
                // Consumer signals "buffer empty" (non-blocking arrive).
                Node::WarpIf {
                    mask: 0b10,
                    body: vec![Node::Op(Instr::BarArrive { bar: 0, warps: 2 })],
                },
                // Producer waits for empty, fills, signals full.
                Node::WarpIf {
                    mask: 0b01,
                    body: vec![
                        Node::Op(Instr::BarSync { bar: 0, warps: 2 }),
                        Node::Op(Instr::LdGlobal {
                            dst: 0,
                            addr: GAddr {
                                array: GlobalId(0),
                                row: IdxOp::Imm(0),
                                point: PointRef::Lane,
                            },
                            ldg: false,
                        }),
                        Node::Op(Instr::Bin {
                            op: BinOp::Add,
                            dst: 0,
                            a: Op::Reg(0),
                            b: Op::Imm(1.0),
                        }),
                        Node::Op(Instr::StShared {
                            src: Op::Reg(0),
                            addr: SAddr::lane(0),
                            lane_pred: None,
                        }),
                        Node::Op(Instr::BarArrive { bar: 1, warps: 2 }),
                    ],
                },
                // Consumer waits for full, accumulates into the output.
                Node::WarpIf {
                    mask: 0b10,
                    body: vec![
                        Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
                        Node::Op(Instr::LdShared { dst: 1, addr: SAddr::lane(0) }),
                        Node::Op(Instr::StGlobal {
                            src: Op::Reg(1),
                            addr: GAddr {
                                array: GlobalId(1),
                                row: IdxOp::Imm(0),
                                point: PointRef::Lane,
                            },
                        }),
                    ],
                },
            ],
        }],
        warps_per_cta: 2,
        points_per_cta: 32 * iters as usize,
        dregs_per_thread: 4,
        iregs_per_thread: 1,
        shared_words: 32,
        local_words_per_thread: 0,
        const_banks: vec![],
        iconst_banks: vec![],
        barriers_used: 2,
        global_arrays: vec![
            ArrayDecl { name: "in".into(), rows: 1, output: false },
            ArrayDecl { name: "out".into(), rows: 1, output: true },
        ],
        spilled_bytes_per_thread: 0,
        exp_const_from_registers: false,
    };
    let arch = GpuArch::kepler_k20c();
    let points = kernel.points_per_cta;
    let input: Vec<f64> = (0..points).map(|i| i as f64).collect();
    let out = launch(&kernel, &arch, &LaunchInputs { arrays: vec![&input, &[]] }, points, LaunchMode::Full)
        .expect("protocol must not deadlock across generations");
    for (p, (&o, &i)) in out.outputs[1].iter().zip(&input).enumerate() {
        assert_eq!(o, i + 1.0, "point {p}");
    }
}

/// Footnote 1: named barriers restrict occupancy like shared memory and
/// registers do. A kernel using 16 barriers can never run two CTAs per SM.
#[test]
fn named_barriers_limit_occupancy_of_compiled_chemistry() {
    let m = synth::via_text(&synth::SynthConfig {
        name: "occ".into(),
        n_species: 12,
        n_reactions: 30,
        n_qssa: 3,
        n_stiff: 3,
        seed: 5,
    });
    let spec = ChemistrySpec::build(&m);
    let dfg = chemistry::chemistry_dfg(&spec, 8);
    let opts = CompileOptions::builder()
        .warps(8)
        .point_iters(2)
        .placement(Placement::Buffer(64))
        .w_locality(1.0)
        .build();
    let arch = GpuArch::kepler_k20c();
    let c = Compiler::new(&arch).options(opts).compile(&dfg, Variant::WarpSpecialized).unwrap();
    let occ = occupancy(&c.kernel, &arch);
    assert!(
        occ.ctas_per_sm * c.kernel.barriers_used <= arch.named_barriers_per_sm,
        "barrier occupancy violated: {} CTAs x {} barriers",
        occ.ctas_per_sm,
        c.kernel.barriers_used
    );
}

/// Diffusion's rotation rounds must use barriers (the §6.2 overhead), and
/// the unsafe-removal ablation must strip every barrier instruction.
#[test]
fn barrier_ablation_strips_all_barriers() {
    let m = synth::via_text(&synth::SynthConfig {
        name: "abl".into(),
        n_species: 10,
        n_reactions: 12,
        n_qssa: 0,
        n_stiff: 0,
        seed: 6,
    });
    let t = DiffusionTables::build(&m);
    let dfg = diffusion::diffusion_dfg(&t, 4);
    let arch = GpuArch::fermi_c2070();
    let mut opts = CompileOptions::builder()
        .warps(4)
        .point_iters(2)
        .placement(Placement::Mixed(96))
        .build();
    let compiler = Compiler::new(&arch);
    let with = compiler.clone().options(opts.clone()).compile(&dfg, Variant::WarpSpecialized).unwrap();
    opts.unsafe_remove_barriers = true;
    let without = compiler.options(opts).compile(&dfg, Variant::WarpSpecialized).unwrap();

    let count_bars = |k: &Kernel| {
        let mut n = 0;
        k.visit_ops(&mut |i| {
            if matches!(i, Instr::BarArrive { .. } | Instr::BarSync { .. }) {
                n += 1;
            }
        });
        n
    };
    assert!(count_bars(&with.kernel) > 0, "diffusion must synchronize");
    assert_eq!(count_bars(&without.kernel), 0, "ablation must remove all barriers");
}
