//! Pipeline-schedule test battery (K-stage async producer/consumer
//! pipelines).
//!
//! Two property families:
//!
//! * **Differential**: a kernel compiled at pipeline depth K ∈ {2,3,4}
//!   must produce outputs bit-identical (`f64::to_bits`) to the same
//!   mechanism compiled at K = 1, on every architecture where the depth
//!   fits the named-barrier file; and at every depth the segment engine
//!   must agree bit-for-bit with the profiled interpreter on outputs
//!   *and* `EventCounts`.
//! * **Reference**: every kernel × warp count × placement × depth
//!   K ∈ {1,2,3} that compiles on Hopper passes the strict verifier and
//!   equals the CPU reference. Each warp lays its constant arrays out on
//!   its own (§5.2), so the K stage copies of a warp's index constants
//!   displace that warp's own slot entries; a copy made with another
//!   warp's flags reads the wrong ring entry or a shifted global row.
//! * **Mutation**: each of three schedule-breaking mutations (drop a
//!   buffer-empty signal, swap a data barrier with the empty ring,
//!   shrink the slot ring by one entry) must be rejected by the
//!   independent schedule verifier — zero silent passes. The drop and
//!   shrink mutations run against a hand-built canonical pipeline with a
//!   pure-consumer warp: on dense mechanism graphs where every consumer
//!   is also a producer, the data barriers alone can transitively supply
//!   the write-after-read edges and make the empty ring genuinely
//!   redundant, which would let a compiled-kernel mutant pass *soundly*.
//!   The canonical kernel has no such back edges, so every mutation is
//!   provably a protocol break.

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::reference::{reference_chemistry, reference_diffusion, reference_viscosity};
use chemkin::state::{GridDims, GridState};
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::interp::{run_cta, run_cta_profiled};
use gpu_sim::isa::{IdxInstr, Instr, Kernel, Node, Op, SAddr};
use gpu_sim::flatten_cached;
use proptest::prelude::*;
use singe::config::{CompileOptions, Placement};
use singe::kernels::launch_arrays;
use singe::verify::{verify_kernel, verify_kernel_walked};
use singe::{CompileError, Compiler, Variant, VerifyLevel};

fn synth_mech(n_species: usize, seed: u64) -> chemkin::Mechanism {
    synth::via_text(&synth::SynthConfig {
        name: format!("pp{n_species}_{seed}"),
        n_species,
        n_reactions: n_species * 2,
        n_qssa: 0,
        n_stiff: 0,
        seed,
    })
}

fn dfg_for(mech: &chemkin::Mechanism, diffusion: bool, warps: usize) -> singe::dfg::Dfg {
    if diffusion {
        singe::kernels::diffusion::diffusion_dfg(&DiffusionTables::build(mech), warps)
    } else {
        singe::kernels::viscosity::viscosity_dfg(&ViscosityTables::build(mech), warps)
    }
}

fn compile_at_depth(
    dfg: &singe::dfg::Dfg,
    warps: usize,
    k: usize,
    arch: &GpuArch,
) -> Result<singe::codegen::Compiled, CompileError> {
    let opts = CompileOptions::builder()
        .warps(warps)
        .point_iters(4)
        .pipeline_depth(k)
        .build();
    Compiler::new(arch).options(opts).compile(dfg, Variant::WarpSpecialized)
}

/// Run one CTA through the engine and the profiled interpreter, assert
/// they agree bit-for-bit, and return the engine's output buffers.
fn run_both(
    kernel: &Kernel,
    arrays: &[&[f64]],
    arch: &GpuArch,
) -> Result<Vec<Vec<f64>>, TestCaseError> {
    let prog = flatten_cached(kernel);
    let points = kernel.points_per_cta;
    let mut out = Vec::new();
    for collect in [false, true] {
        let eng =
            run_cta(kernel, &prog, arrays, points, 0, collect, arch).expect("engine runs");
        let itp = run_cta_profiled(kernel, &prog, arrays, points, 0, collect, arch, None)
            .expect("interpreter runs");
        prop_assert_eq!(&eng.counts, &itp.counts);
        prop_assert_eq!(eng.out_buffers.len(), itp.out_buffers.len());
        for (a, b) in eng.out_buffers.iter().zip(&itp.out_buffers) {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        out = eng.out_buffers;
    }
    Ok(out)
}

/// `verify_kernel`, held to the walk of every trip: the period proof must
/// not move a verdict, a report or a violation.
fn verdict(kernel: &Kernel, arch: &GpuArch) -> Result<singe::VerifyReport, Vec<singe::Violation>> {
    let proved = verify_kernel(kernel, arch);
    assert_eq!(proved, verify_kernel_walked(kernel, arch), "{}: {}", arch.name, kernel.name);
    proved
}

fn arches() -> [GpuArch; 3] {
    [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// K ∈ {2,3,4} pipelined schedules produce outputs bit-identical to
    /// the K = 1 protocol, and engine/interpreter agree at every depth,
    /// on all three architectures. Depths whose rotated-barrier demand
    /// exceeds a small arch's named-barrier file may fail to compile
    /// with `ResourceExhausted` (never anything else); Hopper's 64-entry
    /// file must always fit.
    #[test]
    fn pipelined_outputs_bit_identical_to_single_buffered(
        n_species in 4usize..9,
        seed in 0u64..1000,
        diffusion in proptest::bool::ANY,
        warps in 2usize..6,
    ) {
        let mech = synth_mech(n_species, seed);
        let dfg = dfg_for(&mech, diffusion, warps);
        for arch in arches() {
            let base = compile_at_depth(&dfg, warps, 1, &arch).expect("K=1 compiles");
            prop_assert_eq!(base.stats.pipeline_depth, 1);
            verdict(&base.kernel, &arch).expect("K=1 verifies");
            let points = base.kernel.points_per_cta;
            let grid = GridState::random(
                GridDims { nx: points, ny: 1, nz: 1 },
                mech.n_transported(),
                seed ^ 0x9e37,
            );
            let arrays = launch_arrays(&base.kernel.global_arrays, &grid).expect("arrays");
            let golden = run_both(&base.kernel, &arrays, &arch)?;

            for k in 2usize..=4 {
                let compiled = match compile_at_depth(&dfg, warps, k, &arch) {
                    Ok(c) => c,
                    Err(CompileError::ResourceExhausted(_)) => {
                        // Only the 16-barrier archs may run out of ids.
                        prop_assert!(
                            arch.named_barriers_per_sm <= 16,
                            "{} exhausted barriers at K={}", arch.name, k
                        );
                        continue;
                    }
                    Err(e) => return Err(TestCaseError::Fail(format!(
                        "K={k} on {}: {e}", arch.name
                    ))),
                };
                // Pipelining engages exactly when there is cross-warp
                // traffic and no CTA-wide pass barrier already paces the
                // schedule; otherwise the compiler must fall back to the
                // classic protocol rather than emit a broken hybrid. The
                // requested depth is lowered to the largest value the
                // barrier file and shared memory can host (mirroring the
                // compiler's clamp), never silently something else.
                if base.stats.sync_points > 0 && base.stats.full_barriers == 0 {
                    // K=1 uses one pass barrier on top of the sync colors.
                    let colors = base.stats.barriers_used - 1;
                    let slots = base.stats.shared_slots;
                    let mut expected = k;
                    while expected > 1
                        && ((colors + 1) * expected > arch.named_barriers_per_sm
                            || expected * slots * 32 * 8 > arch.shared_per_sm)
                    {
                        expected -= 1;
                    }
                    prop_assert_eq!(compiled.stats.pipeline_depth, expected);
                } else {
                    prop_assert_eq!(compiled.stats.pipeline_depth, 1);
                }
                verdict(&compiled.kernel, &arch).expect("every depth verifies");
                let out = run_both(&compiled.kernel, &arrays, &arch)?;
                prop_assert_eq!(golden.len(), out.len());
                for (a, b) in golden.iter().zip(&out) {
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b.iter()) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-warp constant layouts under every placement and depth: the
    /// compiled kernel is strict-verifier-clean and equals the reference.
    #[test]
    fn every_depth_and_placement_matches_the_cpu_reference_on_hopper(
        n_species in 4usize..9,
        seed in 0u64..1000,
        kernel in 0usize..3,
        warps in 2usize..7,
        placement in 0usize..3,
        k in 1usize..4,
    ) {
        let arch = GpuArch::hopper();
        let mech = synth_mech(n_species, seed);
        let n = mech.n_transported();
        let (visc, diff, chem) =
            (ViscosityTables::build(&mech), DiffusionTables::build(&mech), ChemistrySpec::build(&mech));
        let dfg = match kernel {
            0 => singe::kernels::viscosity::viscosity_dfg(&visc, warps),
            1 => singe::kernels::diffusion::diffusion_dfg(&diff, warps),
            _ => singe::kernels::chemistry::chemistry_dfg(&chem, warps),
        };
        let opts = CompileOptions::builder()
            .warps(warps)
            .point_iters(4)
            .pipeline_depth(k)
            .placement([Placement::Store, Placement::Mixed(48), Placement::Buffer(48)][placement])
            .verify(VerifyLevel::Strict)
            .build();
        // Strict verification is part of the compile: `Ok` is verifier-clean.
        let compiled = match Compiler::new(&arch).options(opts).compile(&dfg, Variant::WarpSpecialized) {
            Ok(c) => c,
            Err(CompileError::ResourceExhausted(_)) => return Ok(()),
            Err(e) => return Err(TestCaseError::Fail(format!("compile: {e}"))),
        };
        let points = compiled.kernel.points_per_cta;
        let grid = GridState::random(GridDims { nx: points, ny: 1, nz: 1 }, n, seed ^ 0x51f1);
        let arrays = launch_arrays(&compiled.kernel.global_arrays, &grid).expect("arrays");
        let out = run_both(&compiled.kernel, &arrays, &arch)?;
        let want = match kernel {
            0 => reference_viscosity(&visc, &grid),
            1 => reference_diffusion(&diff, &grid),
            _ => reference_chemistry(&chem, &grid),
        };
        let got = out.iter().find(|b| !b.is_empty()).expect("an output array");
        prop_assert_eq!(got.len(), want.len());
        let scale = want.iter().fold(0.0f64, |a, v| a.max(v.abs())).max(1e-300);
        for (g, w) in got.iter().zip(&want) {
            let tol = 1e-9 * (g.abs() + w.abs()) + if kernel == 2 { 1e-9 * scale } else { 0.0 };
            prop_assert!((g - w).abs() <= tol, "kernel {} K={}: {:e} vs {:e}", kernel, k, g, w);
        }
    }
}

// ---------------------------------------------------------------------------
// Verifier mutation battery.
// ---------------------------------------------------------------------------

/// Depth-first node-tree edit: apply `f` to every instruction list.
fn edit_nodes(nodes: &mut Vec<Node>, f: &mut dyn FnMut(&mut Vec<Node>)) {
    f(nodes);
    for n in nodes.iter_mut() {
        match n {
            Node::WarpIf { body, .. }
            | Node::Loop { body, .. }
            | Node::PointLoop { body, .. } => edit_nodes(body, f),
            Node::WarpSwitch { cases, .. } => {
                for c in cases.iter_mut() {
                    edit_nodes(c, f);
                }
            }
            Node::Op(_) => {}
        }
    }
}

/// The canonical K-stage pipeline the compiler emits, built by hand:
/// warp 0 produces into a K-slot ring, warp 1 (a pure consumer) reads.
/// Full barriers `0..K` pace data-ready, the empty ring `K..2K` paces
/// slot recycling: the consumer pre-arms every ring entry in a prologue,
/// frees its slot at the end of each iteration, and the producer drains
/// outstanding frees in an epilogue.
fn canonical_pipeline(k: u8, iters: u32) -> (Kernel, u8) {
    let empty_base = k;
    let pipe_off = Node::Op(Instr::Idx(IdxInstr::PipeOff { dst: 0, k, stride: 32 }));
    let slot = SAddr::dyn_lane(0, 0);
    let body = vec![
        Node::WarpIf {
            mask: 0b10,
            body: (0..k)
                .map(|r| Node::Op(Instr::BarArrive { bar: empty_base + r, warps: 2 }))
                .collect(),
        },
        Node::PointLoop {
            iters,
            body: vec![
                pipe_off,
                Node::WarpIf {
                    mask: 0b01,
                    body: vec![
                        Node::Op(Instr::BarSyncStage { base: empty_base, k, warps: 2 }),
                        Node::Op(Instr::StShared {
                            src: Op::Imm(1.0),
                            addr: slot,
                            lane_pred: None,
                        }),
                        Node::Op(Instr::BarArriveStage { base: 0, k, warps: 2 }),
                    ],
                },
                Node::WarpIf {
                    mask: 0b10,
                    body: vec![
                        Node::Op(Instr::BarSyncStage { base: 0, k, warps: 2 }),
                        Node::Op(Instr::LdShared { dst: 0, addr: slot }),
                        Node::Op(Instr::BarArriveStage { base: empty_base, k, warps: 2 }),
                    ],
                },
            ],
        },
        Node::WarpIf {
            mask: 0b01,
            body: (0..k)
                .map(|r| Node::Op(Instr::BarSync { bar: empty_base + r, warps: 2 }))
                .collect(),
        },
    ];
    let kernel = Kernel {
        name: "canonical-pipeline".into(),
        body,
        warps_per_cta: 2,
        points_per_cta: 32 * iters as usize,
        dregs_per_thread: 2,
        iregs_per_thread: 1,
        shared_words: k as usize * 32,
        local_words_per_thread: 0,
        const_banks: vec![],
        iconst_banks: vec![],
        barriers_used: 2 * k as usize,
        global_arrays: vec![],
        spilled_bytes_per_thread: 0,
        exp_const_from_registers: false,
    };
    kernel.check().expect("canonical pipeline is well-formed");
    (kernel, empty_base)
}

/// A verified-clean *compiled* pipelined kernel: 3 warps so the
/// viscosity dfg has cross-warp traffic, K = 2 so every arch's barrier
/// file fits.
fn compiled_pipeline(arch: &GpuArch) -> (Kernel, u8) {
    let mech = synth_mech(6, 42);
    let dfg = dfg_for(&mech, false, 3);
    let c = compile_at_depth(&dfg, 3, 2, arch).expect("pipelined kernel compiles");
    assert_eq!(c.stats.pipeline_depth, 2, "pipeline must engage for the mutation battery");
    let empty_base = (c.kernel.barriers_used - 2) as u8;
    (c.kernel, empty_base)
}

/// Mutation 1: drop the consumer's buffer-empty arrive. The producer's
/// ring sync K iterations later can never complete: deadlock.
fn drop_empty_signal(kernel: &mut Kernel, empty_base: u8) -> bool {
    let mut dropped = false;
    edit_nodes(&mut kernel.body, &mut |nodes| {
        if dropped {
            return;
        }
        if let Some(i) = nodes.iter().position(|n| matches!(
            n,
            Node::Op(Instr::BarArriveStage { base, .. }) if *base == empty_base
        )) {
            nodes.remove(i);
            dropped = true;
        }
    });
    dropped
}

/// Mutation 2: swap a data-ready stage barrier with the buffer-empty
/// ring (exchange the `base` operands of the two syncs). Consumers now
/// wake on "slot free" instead of "data ready": the store→load edge
/// disappears and the producer waits on a barrier no one refills.
fn swap_full_empty(kernel: &mut Kernel, empty_base: u8) -> bool {
    let mut swapped = false;
    edit_nodes(&mut kernel.body, &mut |nodes| {
        for n in nodes.iter_mut() {
            if swapped {
                return;
            }
            if let Node::Op(Instr::BarSyncStage { base, .. }) = n {
                if *base < empty_base {
                    *base = empty_base;
                    swapped = true;
                }
            }
        }
    });
    if !swapped {
        return false;
    }
    let mut fixed = false;
    edit_nodes(&mut kernel.body, &mut |nodes| {
        for n in nodes.iter_mut() {
            if fixed {
                return;
            }
            if let Node::Op(Instr::BarSyncStage { base, .. }) = n {
                if *base == empty_base {
                    *base = 0;
                    fixed = true;
                }
            }
        }
    });
    fixed
}

/// Mutation 3: shrink the slot ring by one entry — the `PipeOff` rotates
/// modulo K-1 while the barrier protocol still paces K generations, so
/// two in-flight generations share a slot with no ordering edge.
fn shrink_ring(kernel: &mut Kernel) -> bool {
    let mut shrunk = false;
    edit_nodes(&mut kernel.body, &mut |nodes| {
        for n in nodes.iter_mut() {
            if shrunk {
                return;
            }
            if let Node::Op(Instr::Idx(IdxInstr::PipeOff { k, .. })) = n {
                if *k >= 2 {
                    *k -= 1;
                    shrunk = true;
                }
            }
        }
    });
    shrunk
}

fn assert_rejected(kernel: &Kernel, arch: &GpuArch, what: &str) {
    let errs = verdict(kernel, arch)
        .err()
        .unwrap_or_else(|| panic!("{}: {what} mutant passed verification silently", arch.name));
    assert!(!errs.is_empty());
}

#[test]
fn compiled_pipeline_verifies_clean() {
    for arch in arches() {
        let (kernel, _) = compiled_pipeline(&arch);
        let report = verdict(&kernel, &arch)
            .unwrap_or_else(|v| panic!("{}: clean pipeline rejected: {v:?}", arch.name));
        assert!(report.generations > 0, "{}: no barrier generations ran", arch.name);
    }
}

#[test]
fn canonical_pipeline_verifies_clean() {
    for k in 2u8..=4 {
        let (kernel, _) = canonical_pipeline(k, 8);
        for arch in arches() {
            let report = verdict(&kernel, &arch)
                .unwrap_or_else(|v| panic!("{}: K={k} rejected: {v:?}", arch.name));
            assert!(report.generations > 0);
        }
    }
}

#[test]
fn dropping_an_empty_signal_is_rejected() {
    for k in 2u8..=4 {
        let (mut kernel, empty_base) = canonical_pipeline(k, 8);
        assert!(drop_empty_signal(&mut kernel, empty_base), "K={k}: no signal found");
        for arch in arches() {
            assert_rejected(&kernel, &arch, "drop-empty-arrive");
        }
    }
}

#[test]
fn swapping_full_and_empty_barriers_is_rejected() {
    // On the canonical pipeline at every depth...
    for k in 2u8..=4 {
        let (mut kernel, empty_base) = canonical_pipeline(k, 8);
        assert!(swap_full_empty(&mut kernel, empty_base), "K={k}: no pair found");
        for arch in arches() {
            assert_rejected(&kernel, &arch, "swap-full-empty");
        }
    }
    // ...and on a real compiled schedule on every arch.
    for arch in arches() {
        let (mut kernel, empty_base) = compiled_pipeline(&arch);
        assert!(swap_full_empty(&mut kernel, empty_base), "{}: no pair found", arch.name);
        assert_rejected(&kernel, &arch, "swap-full-empty");
    }
}

#[test]
fn shrinking_the_slot_ring_is_rejected() {
    for k in 2u8..=4 {
        let (mut kernel, _) = canonical_pipeline(k, 8);
        assert!(shrink_ring(&mut kernel), "K={k}: no PipeOff found");
        for arch in arches() {
            assert_rejected(&kernel, &arch, "shrink-ring");
        }
    }
}
