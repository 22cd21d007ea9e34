//! Differential property tests for the segment-compiled execution engine
//! (`gpu-sim`'s fast path behind `run_cta`) against the reference
//! interpreter (`run_cta_profiled` with no profiler), over randomly
//! synthesized mechanisms and all three compiler variants:
//!
//! * outputs are **bit-identical** (`f64::to_bits`, not approximate), and
//!   `EventCounts` are equal field-for-field — the engine's bulk
//!   per-segment accounting must reproduce per-instruction bookkeeping
//!   exactly;
//! * full-grid launches are byte-identical between `jobs = 1` and
//!   `jobs = 8` with the parallel CTA fan-out enabled — the ordered pool
//!   must never let worker count leak into results;
//! * randomly synthesized instruction streams whose operands, immediates,
//!   constant banks, and global inputs are saturated with IEEE-754 edge
//!   cases (NaN with payload, ±∞, subnormals, ±0) stay bit-identical
//!   through the engine's whole optimization pipeline — constant-shuffle
//!   folding, copy propagation, mul+add/sub fusion, dead-code
//!   elimination, and immediate splatting. A stored NaN is *the* NaN
//!   (`f64::NAN`): which operand's sign and payload an arithmetic NaN
//!   carries is not a contract Rust offers (DESIGN.md §6), so the one
//!   global store makes them one, and the streams that showed the
//!   difference are pinned below as fixed inputs.

use chemkin::reference::tables::{DiffusionTables, ViscosityTables};
use chemkin::state::{GridDims, GridState};
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::interp::{run_cta, run_cta_profiled};
use gpu_sim::profile::Profiler;
use gpu_sim::{flatten_cached, LaunchConfig, LaunchInputs, LaunchMode};
use proptest::prelude::*;
use singe::config::CompileOptions;
use singe::kernels::launch_arrays;
use singe::{Compiler, Variant};

fn synth_mech(n_species: usize, seed: u64) -> chemkin::Mechanism {
    synth::via_text(&synth::SynthConfig {
        name: format!("ep{n_species}_{seed}"),
        n_species,
        n_reactions: n_species * 2,
        n_qssa: 0,
        n_stiff: 0,
        seed,
    })
}

fn synth_kernel(
    mech: &chemkin::Mechanism,
    diffusion: bool,
    options: CompileOptions,
    variant: Variant,
    arch: &GpuArch,
) -> gpu_sim::isa::Kernel {
    let dfg = if diffusion {
        singe::kernels::diffusion::diffusion_dfg(&DiffusionTables::build(mech), options.warps)
    } else {
        singe::kernels::viscosity::viscosity_dfg(&ViscosityTables::build(mech), options.warps)
    };
    Compiler::new(arch)
        .options(options)
        .compile(&dfg, variant)
        .expect("synth kernel compiles")
        .kernel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine and interpreter agree bit-for-bit on outputs and
    /// EventCounts for a CTA of a synthesized kernel, with and without
    /// event collection: the first CTA, and the last of a two-CTA grid,
    /// where `base_point` is not 0 — up to 8 warps, so a baseline kernel's
    /// one warp class has up to 8 members completing `PointRef::Thread`
    /// addresses from their own ids; over 1 to 8 point sets a CTA, so the
    /// point loop is lowered straight, or rolled and its `PointRef::Lane`
    /// addresses completed per repetition; and at requested ring depths 1
    /// to 3 (Hopper fits them all, the others what their barrier file and
    /// shared memory allow), where a K-stage ring rolls at a period of K
    /// trips, or not at all when that leaves fewer than two repetitions.
    #[test]
    fn engine_matches_interpreter_bit_for_bit(
        n_species in 4usize..9,
        seed in 0u64..1000,
        diffusion in proptest::bool::ANY,
        warps in 2usize..9,
        arch_ix in 0usize..3,
        variant_ix in 0usize..3,
        point_iters_log2 in 0u32..4,
        pipeline_depth in 1usize..4,
    ) {
        let arch =
            [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()][arch_ix].clone();
        let variant =
            [Variant::WarpSpecialized, Variant::Baseline, Variant::Naive][variant_ix];
        let mech = synth_mech(n_species, seed);
        let options = CompileOptions::builder()
            .warps(warps)
            .point_iters(1 << point_iters_log2)
            .pipeline_depth(pipeline_depth)
            .build();
        let kernel = synth_kernel(&mech, diffusion, options, variant, &arch);
        let prog = flatten_cached(&kernel);
        let total = 2 * kernel.points_per_cta;
        let grid = GridState::random(
            GridDims { nx: total, ny: 1, nz: 1 },
            mech.n_transported(),
            seed ^ 0x9e37,
        );
        let arrays = launch_arrays(&kernel.global_arrays, &grid).expect("known arrays");

        for (cta, collect) in [(0, false), (0, true), (1, false), (1, true)] {
            let eng = run_cta(&kernel, &prog, &arrays, total, cta, collect, &arch)
                .expect("engine runs");
            let itp = run_cta_profiled(&kernel, &prog, &arrays, total, cta, collect, &arch, None)
                .expect("interpreter runs");
            prop_assert_eq!(&eng.counts, &itp.counts);
            prop_assert_eq!(eng.out_buffers.len(), itp.out_buffers.len());
            for (a, b) in eng.out_buffers.iter().zip(&itp.out_buffers) {
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }

        // A profiled launch runs CTA 0 on the engine, charging each
        // segment's cycles at once: the same profile as the interpreter's
        // instruction-at-a-time hooks, with and without trace events.
        for trace_events in [false, true] {
            let cfg = LaunchConfig { mode: LaunchMode::TimingOnly, profile: true, trace_events, jobs: 1 };
            let out = gpu_sim::launch::launch_flat(
                &kernel, &prog, &arch, &LaunchInputs { arrays: arrays.clone() }, total, cfg,
            )
            .expect("profiled launch runs");
            let bars = kernel.barriers_used.max(16);
            let mut p = Profiler::new(kernel.warps_per_cta, bars, trace_events, &arch);
            run_cta_profiled(&kernel, &prog, &arrays, total, 0, true, &arch, Some(&mut p))
                .expect("interpreter runs");
            prop_assert_eq!(out.profile.expect("profile requested"), p.finish());
        }
    }

    /// Full-grid launches are identical at any worker count: the ordered
    /// pool fans CTAs out in parallel but commits results in CTA order.
    #[test]
    fn parallel_grid_launch_is_deterministic(
        n_species in 4usize..8,
        seed in 0u64..500,
        kepler in proptest::bool::ANY,
    ) {
        let arch = if kepler { GpuArch::kepler_k20c() } else { GpuArch::fermi_c2070() };
        let mech = synth_mech(n_species, seed);
        let kernel =
            synth_kernel(&mech, false, CompileOptions::with_warps(4), Variant::WarpSpecialized, &arch);
        // Several CTAs so the parallel fan-out actually engages.
        let total_points = kernel.points_per_cta * 4;
        let grid = GridState::random(
            GridDims { nx: total_points, ny: 1, nz: 1 },
            mech.n_transported(),
            seed ^ 0x51,
        );
        let arrays = launch_arrays(&kernel.global_arrays, &grid).expect("known arrays");

        let run = |jobs: usize| {
            gpu_sim::launch_with_config(
                &kernel,
                &arch,
                &LaunchInputs { arrays: arrays.clone() },
                total_points,
                LaunchConfig { mode: LaunchMode::Full, profile: false, trace_events: false, jobs },
            )
            .expect("launch succeeds")
        };
        let a = run(1);
        let b = run(8);
        prop_assert_eq!(a.report.seconds.to_bits(), b.report.seconds.to_bits());
        prop_assert_eq!(a.outputs.len(), b.outputs.len());
        for (oa, ob) in a.outputs.iter().zip(&b.outputs) {
            prop_assert_eq!(oa.len(), ob.len());
            for (x, y) in oa.iter().zip(ob.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Special-value operand streams.
// ---------------------------------------------------------------------------

use gpu_sim::isa::{
    ArrayDecl, BinOp, GAddr, GlobalId, IdxInstr, IdxOp, Instr, Kernel, Node, Op, PointRef, SAddr,
    UnOp,
};

/// Every awkward IEEE-754 citizen plus a few ordinary values. Selected by
/// index so a single `u64` drawn by proptest picks one; the engine's
/// optimizer must carry each through folding, fusion, copy propagation,
/// and immediate splatting bit-identically.
fn special(sel: u64) -> f64 {
    const SPECIALS: [u64; 13] = [
        0x7ff8_0000_0000_0000, // canonical quiet NaN
        0x7ff8_dead_beef_0001, // quiet NaN with a payload
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0000, // +0.0
        0x0000_0000_0000_0001, // smallest positive subnormal
        0x8000_0000_0000_0001, // smallest-magnitude negative subnormal
        0x000f_ffff_ffff_ffff, // largest subnormal
        0x0010_0000_0000_0000, // smallest normal
        0x3ff0_0000_0000_0000, // 1.0
        0xbff8_0000_0000_0000, // -1.5
        0x7e37_e43c_8800_759c, // 1e300
    ];
    f64::from_bits(SPECIALS[(sel % SPECIALS.len() as u64) as usize])
}

/// One-warp kernel skeleton with a constant bank full of special values
/// (staged through a lane-indexed `LdConst`, so shuffles off it hit the
/// constant-fold path) and one input / one output global array.
fn stream_kernel(name: String, body: Vec<Node>, bank_seed: u64) -> Kernel {
    Kernel {
        name,
        body,
        warps_per_cta: 1,
        points_per_cta: 32,
        dregs_per_thread: 8,
        iregs_per_thread: 4,
        shared_words: 64,
        local_words_per_thread: 2,
        const_banks: vec![(0..32).map(|i| special(bank_seed.wrapping_add(i))).collect()],
        iconst_banks: vec![],
        barriers_used: 1,
        global_arrays: vec![
            ArrayDecl { name: "in".into(), rows: 1, output: false },
            ArrayDecl { name: "out".into(), rows: 1, output: true },
        ],
        spilled_bytes_per_thread: 0,
        exp_const_from_registers: false,
    }
}

/// Decode one drawn `u64` into a short instruction burst. Bursts are
/// chosen to hit every optimizer path: mul feeding add/sub (fusion),
/// chained movs (copy propagation), shuffles off the staged constant
/// chunk (constant folding), writes to a register the tail never reads
/// (dead-code elimination), and immediate operands (splatting).
fn burst(v: u64) -> Vec<Instr> {
    // Registers: 0 = global input, 7 = staged constants, 1..=6 general.
    let dst = 1 + ((v >> 8) % 6) as u16;
    let t = 1 + ((v >> 12) % 6) as u16;
    let ra = ((v >> 16) % 8) as u16;
    let rb = ((v >> 20) % 8) as u16;
    let a = if (v >> 32) & 1 == 0 { Op::Reg(ra) } else { Op::Imm(special(v >> 33)) };
    let b = if (v >> 40) & 1 == 0 { Op::Reg(rb) } else { Op::Imm(special(v >> 41)) };
    match v % 10 {
        // A guaranteed-fusable mul→add / mul→sub pair through a staging
        // register (the engine's FusedMulBin path).
        0 => vec![
            Instr::Bin { op: BinOp::Mul, dst: t, a, b },
            Instr::Bin { op: BinOp::Add, dst, a: Op::Reg(t), b },
        ],
        1 => vec![
            Instr::Bin { op: BinOp::Mul, dst: t, a, b },
            Instr::Bin { op: BinOp::Sub, dst, a: Op::Reg(t), b: Op::Reg(ra) },
        ],
        // A mov chain (copy propagation food).
        2 => vec![
            Instr::mov(t, a),
            Instr::mov(dst, Op::Reg(t)),
        ],
        3 => vec![Instr::Bin { op: BinOp::Add, dst, a, b }],
        4 => vec![Instr::Bin { op: BinOp::Div, dst, a, b }],
        5 => vec![Instr::DFma { dst, a, b, c: Op::Reg(ra), const_c: false }],
        6 => vec![
            Instr::Bin { op: BinOp::Max, dst, a, b },
            Instr::Bin { op: BinOp::Min, dst: t, a: Op::Reg(dst), b },
        ],
        7 => vec![
            Instr::Un { op: UnOp::Neg, dst, a },
            Instr::Un { op: UnOp::Sqrt, dst: t, a: Op::Reg(dst) },
        ],
        // Broadcast one special constant out of the staged chunk — folds
        // to an immediate at lowering, then splats.
        8 => vec![
            Instr::Shfl { dst, src: 7, lane: ((v >> 24) % 32) as u8 },
            Instr::Bin { op: BinOp::Mul, dst: t, a: Op::Reg(dst), b },
        ],
        // A single-lane store to a stride-0 mirror address read back by
        // all lanes (the LdSharedBcast path), with special values in it.
        _ => vec![
            Instr::StShared {
                src: a,
                addr: SAddr { base: None, imm: 9, lane_stride: 0 },
                lane_pred: Some(((v >> 24) % 32) as u8),
            },
            Instr::LdShared { dst, addr: SAddr { base: None, imm: 9, lane_stride: 0 } },
        ],
    }
}

/// Decode one drawn `u64` into an exp-heavy burst, the shapes an optimizer
/// is most tempted to touch: adjacent independent exps, dependent
/// exp-of-exp chains, repeated operands, `exp(a)*exp(b)` shapes with
/// immediate operands, exps of special immediates (±inf, NaN payloads,
/// subnormals, overflow/underflow edges), and a lane-predicated
/// shared-memory stage feeding an exp.
fn exp_burst(v: u64) -> Vec<Instr> {
    // Registers: 0 = global input, 7 = staged constants, 1..=6 general.
    let dst = 1 + ((v >> 8) % 6) as u16;
    let t = 1 + ((v >> 12) % 6) as u16;
    let ra = ((v >> 16) % 8) as u16;
    let a = if (v >> 32) & 1 == 0 { Op::Reg(ra) } else { Op::Imm(special(v >> 33)) };
    match v % 8 {
        // Adjacent independent exps.
        0 => vec![
            Instr::Un { op: UnOp::Exp, dst, a },
            Instr::Un { op: UnOp::Exp, dst: t, a: Op::Reg(7) },
        ],
        // Dependent chain exp(exp(x)): overflow saturation and NaN pass
        // through both hops.
        1 => vec![
            Instr::Un { op: UnOp::Exp, dst: t, a },
            Instr::Un { op: UnOp::Exp, dst, a: Op::Reg(t) },
        ],
        // Repeated operand.
        2 => vec![
            Instr::Un { op: UnOp::Exp, dst: t, a },
            Instr::Un { op: UnOp::Exp, dst, a },
        ],
        // exp(±0)*exp(b): the one shape where exp(a)*exp(b) and exp(a+b)
        // agree for every b.
        3 => vec![
            Instr::Un {
                op: UnOp::Exp,
                dst: t,
                a: Op::Imm(if (v >> 24) & 1 == 0 { 0.0 } else { -0.0 }),
            },
            Instr::Un { op: UnOp::Exp, dst, a },
            Instr::Bin { op: BinOp::Mul, dst, a: Op::Reg(t), b: Op::Reg(dst) },
        ],
        // exp(c)*exp(b) with a non-zero (often special) immediate.
        4 => vec![
            Instr::Un { op: UnOp::Exp, dst: t, a: Op::Imm(special(v >> 25)) },
            Instr::Un { op: UnOp::Exp, dst, a },
            Instr::Bin { op: BinOp::Mul, dst, a: Op::Reg(dst), b: Op::Reg(t) },
        ],
        // Special immediate straight into exp: saturation edges
        // (±709.78.., ±745.13..) and non-finite inputs.
        5 => vec![Instr::Un { op: UnOp::Exp, dst, a: Op::Imm(special(v >> 33)) }],
        // Lane-predicated single-lane store, broadcast back, then exp —
        // predication must mask exactly the same lanes in both engines.
        6 => vec![
            Instr::StShared {
                src: a,
                addr: SAddr { base: None, imm: 11, lane_stride: 0 },
                lane_pred: Some(((v >> 24) % 32) as u8),
            },
            Instr::LdShared { dst, addr: SAddr { base: None, imm: 11, lane_stride: 0 } },
            Instr::Un { op: UnOp::Exp, dst: t, a: Op::Reg(dst) },
        ],
        // exp feeding the fused mul→add path (FusedMulBin).
        _ => vec![
            Instr::Un { op: UnOp::Exp, dst: t, a },
            Instr::Bin { op: BinOp::Mul, dst, a: Op::Reg(t), b: Op::Reg(ra) },
            Instr::Bin { op: BinOp::Add, dst, a: Op::Reg(dst), b: Op::Reg(t) },
        ],
    }
}

/// A stream test's body: stage the special-value constant bank into
/// register 7 via a lane-indexed load (shuffles off it are lowering-time
/// known) and the global input into register 0, run `stream`, then fold
/// registers 1..=3 into the stored value — registers 4..=6 may end up dead,
/// which the engine's DCE must not let change results.
fn stream_body(stream: impl IntoIterator<Item = Instr>) -> Vec<Node> {
    let point = |array| GAddr { array: GlobalId(array), row: IdxOp::Imm(0), point: PointRef::Lane };
    let head = [
        Instr::Idx(IdxInstr::LaneId { dst: 0 }),
        Instr::LdConst { dst: 7, bank: 0, idx: IdxOp::Reg(0) },
        Instr::LdGlobal { dst: 0, addr: point(0), ldg: false },
    ];
    let tail = [
        Instr::Bin { op: BinOp::Add, dst: 1, a: Op::Reg(1), b: Op::Reg(2) },
        Instr::Bin { op: BinOp::Mul, dst: 1, a: Op::Reg(1), b: Op::Reg(3) },
        Instr::StGlobal { src: Op::Reg(1), addr: point(1) },
    ];
    head.into_iter().chain(stream).chain(tail).map(Node::Op).collect()
}

/// Engine and interpreter agree on a one-warp stream kernel over `input`,
/// with and without event collection: outputs bit for bit, `EventCounts`
/// field for field.
fn assert_stream_matches(
    name: String,
    stream: impl IntoIterator<Item = Instr>,
    bank_seed: u64,
    input: &[f64],
) -> Result<(), TestCaseError> {
    let kernel = stream_kernel(name, stream_body(stream), bank_seed);
    let prog = flatten_cached(&kernel);
    let arrays: Vec<&[f64]> = vec![input, &[]];
    let arch = GpuArch::kepler_k20c();
    for collect in [false, true] {
        let eng = run_cta(&kernel, &prog, &arrays, 32, 0, collect, &arch).expect("engine runs");
        let itp = run_cta_profiled(&kernel, &prog, &arrays, 32, 0, collect, &arch, None)
            .expect("interpreter runs");
        prop_assert_eq!(&eng.counts, &itp.counts);
        for (a, b) in eng.out_buffers.iter().zip(&itp.out_buffers) {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
    Ok(())
}

/// The special-value streams' global input.
fn special_input(input_seed: u64) -> Vec<f64> {
    (0..32).map(|i| special(input_seed.wrapping_add(i * 7))).collect()
}

/// The streams that showed engine and interpreter storing different NaNs
/// (open from PR 12 to PR 23): in each, the tail's `Add r1←r1,r2` follows a
/// `Mul` into r2 and fuses with it as `c + p`, which the compiler is free to
/// evaluate as `p + c`, and x86 hands on the first NaN operand's sign and
/// payload. The first is the stream the 3 000-case run found, written out;
/// the rest are `burst` draws shrunk under the seed pairs the ROADMAP
/// recorded. All four differ without the store's canonicalization.
#[test]
fn nan_sign_and_payload_streams_are_pinned() {
    let found = vec![
        Instr::Un { op: UnOp::Neg, dst: 5, a: Op::Reg(0) },
        Instr::Un { op: UnOp::Sqrt, dst: 1, a: Op::Reg(5) },
        Instr::Un { op: UnOp::Neg, dst: 1, a: Op::Reg(5) },
        Instr::Un { op: UnOp::Sqrt, dst: 4, a: Op::Reg(1) },
        Instr::Shfl { dst: 3, src: 7, lane: 5 },
        Instr::Bin { op: BinOp::Mul, dst: 2, a: Op::Reg(3), b: Op::Reg(5) },
    ];
    assert_stream_matches("nan-found".into(), found, 954, &special_input(323)).unwrap();
    for (bank_seed, input_seed, bursts) in [
        (954, 323, [0x4a70_dc54_43cf_d639_u64, 0xeb02_e6ae_e952_50d4]),
        (645, 861, [0xe666_fe54_c288_92af, 0x4f70_6baf_1fac_3d4c]),
        (152, 60, [0x8529_b26e_aa1f_aeeb, 0xc91f_8351_854a_7460]),
    ] {
        let stream = bursts.into_iter().flat_map(burst);
        let name = format!("nan-{bank_seed}-{input_seed}");
        assert_stream_matches(name, stream, bank_seed, &special_input(input_seed)).unwrap();
    }
}

proptest! {
    // 30 000 cases run in 1.3 s; 3 000 were enough to find the NaN streams
    // pinned above, 48 were not.
    #![proptest_config(ProptestConfig::with_cases(6000))]

    /// Engine and interpreter agree bit-for-bit on randomly synthesized
    /// streams saturated with IEEE-754 edge cases in every operand
    /// position: immediates (splatting), constant banks (shuffle folding),
    /// and global inputs.
    #[test]
    fn special_value_streams_match_interpreter_bit_for_bit(
        bursts in proptest::collection::vec(0u64..u64::MAX, 6..24),
        bank_seed in 0u64..1000,
        input_seed in 0u64..1000,
    ) {
        let stream = bursts.into_iter().flat_map(burst);
        let name = format!("special{bank_seed}_{input_seed}");
        assert_stream_matches(name, stream, bank_seed, &special_input(input_seed))?;
    }

    /// Exp-heavy streams: adjacent groups, dependent chains, repeats,
    /// `exp(a)*exp(b)` products, saturation edges, and predicated lanes
    /// all stay bit-identical — EventCounts included —
    /// between the engine and the profiled interpreter, which share the
    /// one `exp` (`gpu_sim::vmath`'s polynomial, whichever compilation of
    /// it the host dispatches to).
    #[test]
    fn exp_heavy_streams_match_interpreter_bit_for_bit(
        bursts in proptest::collection::vec(0u64..u64::MAX, 4..20),
        bank_seed in 0u64..1000,
        input_seed in 0u64..1000,
    ) {
        // Inputs biased toward exp's interesting range: saturation edges,
        // subnormal-producing arguments, and raw special bit patterns.
        let input: Vec<f64> = (0..32)
            .map(|i| match i % 4 {
                0 => special(input_seed.wrapping_add(i * 7)),
                1 => 709.0 + (i as f64) * 0.1,  // straddles the +inf edge
                2 => -744.0 - (i as f64) * 0.1, // straddles deep underflow
                _ => (i as f64) * 0.37 - 6.0,   // ordinary magnitudes
            })
            .collect();
        let stream = bursts.into_iter().flat_map(exp_burst);
        let name = format!("expheavy{bank_seed}_{input_seed}");
        assert_stream_matches(name, stream, bank_seed, &input)?;
    }
}
