//! Integration tests for the independent schedule verifier: the Figure 2
//! protocol (clean and deliberately broken), resource overflows, and a
//! sweep asserting every end-to-end kernel the compilers emit passes.

use chemkin::reference::tables::DiffusionTables;
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::isa::*;
use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
use singe::config::{CompileOptions, Placement};
use singe::kernels::{chemistry, diffusion, viscosity};
use singe::{Compiler, Variant};
use singe::verify::{verify_kernel, verify_kernel_walked, ViolationKind};
use singe::{CompileError, VerifyLevel};
use singe_serve::{default_options, KernelId};

/// Figure 2's producer/consumer protocol over a point loop. When
/// `swap_arrive_sync` each warp syncs *before* the partner's arrive can
/// execute (sync-first instead of arrive-first) — the classic circular
/// wait.
fn figure2_kernel(iters: u32, swap_arrive_sync: bool) -> Kernel {
    // Wait for "buffer empty", fill, signal "full".
    let producer = vec![
        Node::Op(Instr::BarSync { bar: 0, warps: 2 }),
        Node::Op(Instr::StShared { src: Op::Imm(1.0), addr: SAddr::lane(0), lane_pred: None }),
        Node::Op(Instr::BarArrive { bar: 1, warps: 2 }),
    ];
    let consumer = if swap_arrive_sync {
        vec![
            Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
            Node::Op(Instr::LdShared { dst: 0, addr: SAddr::lane(0) }),
            Node::Op(Instr::BarArrive { bar: 0, warps: 2 }),
        ]
    } else {
        vec![
            // Signal "buffer empty", wait for "full", drain.
            Node::Op(Instr::BarArrive { bar: 0, warps: 2 }),
            Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
            Node::Op(Instr::LdShared { dst: 0, addr: SAddr::lane(0) }),
        ]
    };
    let body = if swap_arrive_sync {
        // Producer's WarpIf first so its sync runs before the consumer's
        // arrive could ever execute.
        vec![Node::PointLoop {
            iters,
            body: vec![
                Node::WarpIf { mask: 0b01, body: producer },
                Node::WarpIf { mask: 0b10, body: consumer },
            ],
        }]
    } else {
        vec![Node::PointLoop {
            iters,
            body: vec![
                Node::WarpIf { mask: 0b10, body: consumer },
                Node::WarpIf { mask: 0b01, body: producer },
            ],
        }]
    };
    Kernel {
        name: if swap_arrive_sync { "fig2_swapped".into() } else { "fig2".into() },
        body,
        warps_per_cta: 2,
        points_per_cta: 32 * iters as usize,
        dregs_per_thread: 2,
        iregs_per_thread: 1,
        shared_words: 32,
        local_words_per_thread: 0,
        const_banks: vec![],
        iconst_banks: vec![],
        barriers_used: 2,
        global_arrays: vec![],
        spilled_bytes_per_thread: 0,
        exp_const_from_registers: false,
    }
}

#[test]
fn figure2_protocol_verifies_clean() {
    let k = figure2_kernel(20, false);
    let arch = GpuArch::kepler_k20c();
    let r = verify_kernel(&k, &arch).expect("Figure 2 protocol is safe");
    assert_eq!(r.warps, 2);
    assert_eq!(r.barrier_ids, 2);
    // One generation per barrier per iteration.
    assert_eq!(r.generations, 2 * 20);
}

#[test]
fn figure2_with_swapped_arrive_sync_deadlocks() {
    let k = figure2_kernel(20, true);
    let arch = GpuArch::kepler_k20c();
    let errs = verify_kernel(&k, &arch).unwrap_err();
    assert!(errs.iter().any(|v| v.kind == ViolationKind::Deadlock), "{errs:?}");
    // Cross-check: the simulator's scheduler agrees this kernel hangs.
    let sim = launch(&k, &arch, &LaunchInputs { arrays: vec![] }, k.points_per_cta, LaunchMode::Full);
    assert!(sim.is_err(), "simulator should also report a deadlock");
}

#[test]
fn barrier_id_overflow_is_rejected() {
    let mut k = figure2_kernel(1, false);
    // Rewrite barrier 1 to an id beyond the architecture's barrier file.
    fn rewrite(nodes: &mut [Node]) {
        for n in nodes {
            match n {
                Node::Op(Instr::BarArrive { bar, .. }) | Node::Op(Instr::BarSync { bar, .. })
                    if *bar == 1 => {
                        *bar = 20;
                    }
                Node::WarpIf { body, .. } => rewrite(body),
                Node::WarpSwitch { cases, .. } => {
                    for c in cases {
                        rewrite(c);
                    }
                }
                Node::Loop { body, .. } | Node::PointLoop { body, .. } => rewrite(body),
                _ => {}
            }
        }
    }
    rewrite(&mut k.body);
    k.barriers_used = 21;
    let arch = GpuArch::kepler_k20c();
    let errs = verify_kernel(&k, &arch).unwrap_err();
    assert!(
        errs.iter().any(|v| v.kind == ViolationKind::Resource && v.msg.contains("barrier id 20")),
        "{errs:?}"
    );
}

/// The verdict memo is keyed on the limits the verifier checks, not on the
/// architecture's name: `GpuArch` has public fields, so one name can carry
/// two barrier files. Each direction uses its own kernel, so each verdict
/// asked second would have been the other's cached one.
#[test]
fn same_name_smaller_barrier_file_is_a_resource_violation_in_either_order() {
    let kepler = GpuArch::kepler_k20c();
    let one_barrier = GpuArch { named_barriers_per_sm: 1, ..kepler.clone() };
    assert_eq!(one_barrier.name, kepler.name);
    let overflows = |r: Result<_, Vec<singe::Violation>>| {
        r.is_err_and(|errs| errs.iter().any(|v| v.kind == ViolationKind::Resource))
    };
    // Clean on stock Kepler first, then the shrunken file.
    let k = figure2_kernel(3, false);
    verify_kernel(&k, &kepler).expect("two barriers fit Kepler's sixteen");
    assert!(overflows(verify_kernel(&k, &one_barrier)), "a clean verdict leaked across archs");
    // The shrunken file first, then stock Kepler.
    let k = figure2_kernel(5, false);
    assert!(overflows(verify_kernel(&k, &one_barrier)));
    verify_kernel(&k, &kepler).expect("a cached failure poisoned stock Kepler");
}

/// Slot recycling across PointLoop generations: the consumer frees the
/// producer's buffer *before* loading from it, so the next generation's
/// store overlaps the previous generation's load — flagged as a race,
/// while the corrected ordering verifies clean.
#[test]
fn generation_recycling_race_flagged_and_fix_accepted() {
    let build = |load_before_free: bool| {
        let mut consumer = vec![Node::Op(Instr::BarSync { bar: 0, warps: 2 })];
        if load_before_free {
            consumer.push(Node::Op(Instr::LdShared { dst: 0, addr: SAddr::lane(0) }));
            consumer.push(Node::Op(Instr::BarArrive { bar: 1, warps: 2 }));
        } else {
            consumer.push(Node::Op(Instr::BarArrive { bar: 1, warps: 2 }));
            consumer.push(Node::Op(Instr::LdShared { dst: 0, addr: SAddr::lane(0) }));
        }
        let mut k = figure2_kernel(4, false);
        k.body = vec![Node::PointLoop {
            iters: 4,
            body: vec![
                Node::WarpIf {
                    mask: 0b01,
                    body: vec![
                        Node::Op(Instr::StShared {
                            src: Op::Imm(1.0),
                            addr: SAddr::lane(0),
                            lane_pred: None,
                        }),
                        Node::Op(Instr::BarArrive { bar: 0, warps: 2 }),
                        Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
                    ],
                },
                Node::WarpIf { mask: 0b10, body: consumer },
            ],
        }];
        k
    };
    let arch = GpuArch::kepler_k20c();
    let errs = verify_kernel(&build(false), &arch).unwrap_err();
    assert!(errs.iter().any(|v| v.kind == ViolationKind::Race), "{errs:?}");
    assert!(!errs.iter().any(|v| v.kind == ViolationKind::Deadlock), "{errs:?}");
    verify_kernel(&build(true), &arch).expect("corrected ordering is clean");
}

/// Every kernel from all three compilers, across both architectures and
/// all three kernel families, verifies clean.
#[test]
fn all_end_to_end_kernels_verify_clean() {
    let m = synth::dme();
    let archs = [GpuArch::fermi_c2070(), GpuArch::kepler_k20c()];
    for arch in &archs {
        for kind in 0..3 {
            let warps = 4;
            let (dfg, placement) = match kind {
                0 => (
                    viscosity::viscosity_dfg(
                        &chemkin::reference::tables::ViscosityTables::build(&m),
                        warps,
                    ),
                    Placement::Store,
                ),
                1 => (
                    diffusion::diffusion_dfg(
                        &chemkin::reference::tables::DiffusionTables::build(&m),
                        warps,
                    ),
                    Placement::Mixed(128),
                ),
                _ => (
                    chemistry::chemistry_dfg(
                        &chemkin::reference::tables::ChemistrySpec::build(&m),
                        warps,
                    ),
                    Placement::Buffer(128),
                ),
            };
            let opts = CompileOptions::builder()
                .warps(warps)
                .point_iters(2)
                .placement(placement)
                .build();
            // The compiler already enforces VerifyLevel::Basic internally;
            // re-run the verifier explicitly to assert a clean report.
            let c = Compiler::new(arch).options(opts);
            let ws = c.compile(&dfg, Variant::WarpSpecialized).expect("ws compiles");
            verify_kernel(&ws.kernel, arch).expect("ws verifies");
            let nv = c.compile(&dfg, Variant::Naive).expect("naive compiles");
            verify_kernel(&nv.kernel, arch).expect("naive verifies");
            let bl = c.compile(&dfg, Variant::Baseline).expect("baseline compiles");
            verify_kernel(&bl.kernel, arch).expect("baseline verifies");
        }
    }
}

/// §6.2: the unsafe barrier-removal ablation compiles under Basic (so the
/// timing study still runs) but is rejected under Strict.
#[test]
fn strict_rejects_barrier_ablation() {
    let m = synth::via_text(&synth::SynthConfig {
        name: "abl".into(),
        n_species: 10,
        n_reactions: 12,
        n_qssa: 0,
        n_stiff: 0,
        seed: 6,
    });
    let dfg = diffusion::diffusion_dfg(&DiffusionTables::build(&m), 4);
    let arch = GpuArch::fermi_c2070();
    let mut opts = CompileOptions::builder()
        .warps(4)
        .point_iters(2)
        .placement(Placement::Mixed(96))
        .unsafe_remove_barriers(true)
        .build();
    assert!(matches!(opts.verify, VerifyLevel::Basic));
    Compiler::new(&arch)
        .options(opts.clone())
        .compile(&dfg, Variant::WarpSpecialized)
        .expect("Basic waives the deliberate ablation");

    opts.verify = VerifyLevel::Strict;
    let err = Compiler::new(&arch)
        .options(opts)
        .compile(&dfg, Variant::WarpSpecialized)
        .unwrap_err();
    assert!(matches!(err, CompileError::Verification(_)), "{err}");
    // The new error plumbing exposes the verification payload through
    // `std::error::Error::source`.
    let src = std::error::Error::source(&err).expect("Verification carries a source");
    assert!(src.to_string().contains("schedule verification"), "{src}");
}

/// The period proof against the walk of every trip, on the 18 canonical
/// warp-specialized figure cells (3 kernels x DME, heptane x Fermi, Kepler,
/// Hopper) as the figures compile them, and on each cell's §6.2
/// barrier-removal ablation, which races: the same verdict, report and
/// violations, message for message.
#[test]
fn canonical_kernels_verify_as_the_full_walk() {
    use chemkin::reference::tables::{ChemistrySpec, ViscosityTables};
    let archs = [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()];
    let mut racy = 0;
    for mech in [synth::via_text(&synth::dme_config()), synth::via_text(&synth::heptane_config())] {
        for kernel in [KernelId::Viscosity, KernelId::Diffusion, KernelId::Chemistry] {
            for arch in &archs {
                let options = default_options(kernel, mech.n_transported(), arch);
                let dfg = match kernel {
                    KernelId::Viscosity => viscosity::viscosity_dfg(&ViscosityTables::build(&mech), options.warps),
                    KernelId::Diffusion => diffusion::diffusion_dfg(&DiffusionTables::build(&mech), options.warps),
                    KernelId::Chemistry => chemistry::chemistry_dfg(&ChemistrySpec::build(&mech), options.warps),
                };
                for unsafe_remove_barriers in [false, true] {
                    let mut options = options.clone();
                    options.unsafe_remove_barriers = unsafe_remove_barriers;
                    let c = Compiler::new(arch).options(options).compile(&dfg, Variant::WarpSpecialized);
                    let k = c.expect("the figure cells compile").kernel;
                    let proved = verify_kernel(&k, arch);
                    assert_eq!(proved, verify_kernel_walked(&k, arch), "{} on {}", k.name, arch.name);
                    assert_eq!(proved.is_err(), unsafe_remove_barriers, "{} on {}", k.name, arch.name);
                    racy += usize::from(proved.is_err());
                }
            }
        }
    }
    assert_eq!(racy, 18);
}

