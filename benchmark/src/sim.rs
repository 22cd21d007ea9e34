//! Stage `sim`: steady execution of kernels that are already compiled,
//! lowered and warm.
//!
//! Set-up pays the compiles and lowerings, so work moved there shows in
//! `setup_s`. The timed region then only executes: rounds of full launches
//! on the engine, then rounds of profiled launches, which drive the same
//! lane kernels through the interpreter and the profiler, so an engine gain
//! that costs the interpreter path shows. Heptane gives a micro-op working
//! set several times DME's.

use std::time::Instant;

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::reference::{reference_chemistry, reference_diffusion, reference_viscosity};
use chemkin::{synth, GridState, Mechanism};
use gpu_sim::arch::GpuArch;
use gpu_sim::interp::{run_cta, run_cta_profiled};
use gpu_sim::isa::Kernel;
use gpu_sim::launch::{launch_with_config, LaunchConfig, LaunchInputs, LaunchMode};
use gpu_sim::{flatcache, WARP_SIZE};
use singe::kernels::launch_arrays;
use singe::{Compiler, Variant};
use singe_serve::{ArchId, KernelId};

use crate::check;
use crate::figures::SERIAL;
use crate::gen::{Mech, Rng};
use crate::pass::{PassCfg, Rec};
use crate::stats::geomean;

const PROFILED: LaunchConfig = LaunchConfig {
    mode: LaunchMode::TimingOnly,
    profile: true,
    trace_events: false,
    jobs: 1,
};

/// Per kernel of the mix, in order: grid points of a launch, seconds of the
/// fastest full launch, milliseconds of the fastest profiled CTA.
pub const POINTS: &str = "sim.points";
pub const FULL_S: &str = "sim.full_s";
pub const PROFILED_MS: &str = "sim.profiled_ms";

fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Share of a pass's timed budget spent on full launches; the rest goes to
/// profiled launches.
const FULL_SHARE: f64 = 0.7;

/// (mechanism, kernel, variant, arch, CTAs per launch).
type Spec = (Mech, KernelId, Variant, ArchId, usize);

/// The nine kernels of the mix: the three DME kernels in both variants on
/// Kepler, heptane's largest two warp-specialized kernels, and the
/// pipelined (K = 2) DME viscosity kernel on Hopper.
fn mix(smoke: bool) -> Vec<Spec> {
    use KernelId::{Chemistry, Diffusion, Viscosity};
    use Variant::{Baseline, WarpSpecialized};
    if smoke {
        return vec![
            (Mech::Dme, Viscosity, WarpSpecialized, ArchId::Kepler, 4),
            (Mech::Dme, Diffusion, Baseline, ArchId::Kepler, 4),
        ];
    }
    let mut specs = Vec::new();
    for kernel in KernelId::ALL {
        for variant in [WarpSpecialized, Baseline] {
            specs.push((Mech::Dme, kernel, variant, ArchId::Kepler, 32));
        }
    }
    specs.push((
        Mech::Heptane,
        Viscosity,
        WarpSpecialized,
        ArchId::Kepler,
        16,
    ));
    specs.push((
        Mech::Heptane,
        Chemistry,
        WarpSpecialized,
        ArchId::Kepler,
        16,
    ));
    specs.push((Mech::Dme, Viscosity, WarpSpecialized, ArchId::Hopper, 32));
    specs
}

struct Ready<'m> {
    /// `<kernel>-<mech>-<arch>-<ws|base>`, as the figure cells are named.
    name: String,
    kernel_id: KernelId,
    mech: &'m Mechanism,
    kernel: Kernel,
    arch: GpuArch,
    grid: GridState,
    points: usize,
}

impl Ready<'_> {
    fn launch(&self, config: LaunchConfig) -> Result<gpu_sim::LaunchOutput, String> {
        let arrays =
            launch_arrays(&self.kernel.global_arrays, &self.grid).map_err(|e| e.to_string())?;
        launch_with_config(
            &self.kernel,
            &self.arch,
            &LaunchInputs { arrays },
            self.points,
            config,
        )
        .map_err(|e| e.to_string())
    }
}

fn prepare(spec: Spec, mech: &Mechanism, grid_seed: u64) -> Result<Ready<'_>, String> {
    let (mech_id, kernel_id, variant, arch_id, ctas) = spec;
    let v = if variant == Variant::Baseline {
        "base"
    } else {
        "ws"
    };
    let arch = arch_id.arch();
    let n = mech.n_transported();
    let (opts, dfg_warps) = check::figure_options(kernel_id, variant, n, &arch);
    let mut off = crate::trace::Tracer::new(false);
    let dfg = check::build_dfg(kernel_id, mech, dfg_warps, &mut off, "");
    let kernel = Compiler::new(&arch)
        .options(opts)
        .compile(&dfg, variant)
        .map_err(|e| e.to_string())?
        .kernel;
    let points = kernel.points_per_cta * ctas;
    let ready = Ready {
        name: format!(
            "{}-{}-{}-{v}",
            kernel_id.name(),
            mech_id.name(),
            arch_id.name()
        ),
        kernel_id,
        mech,
        grid: check::grid(points, n, grid_seed),
        kernel,
        arch,
        points,
    };
    // One CTA is enough to flatten, lower and warm the kernel.
    ready.launch(LaunchConfig {
        mode: LaunchMode::TimingOnly,
        ..SERIAL
    })?;
    Ok(ready)
}

/// The engine and the interpreter must agree bit for bit on CTA 0: output
/// buffers and event counts.
fn engine_matches_interpreter(k: &Ready) -> Result<(), String> {
    let prog = flatcache::flatten_cached(&k.kernel);
    let arrays = launch_arrays(&k.kernel.global_arrays, &k.grid).map_err(|e| e.to_string())?;
    let engine = run_cta(&k.kernel, &prog, &arrays, k.points, 0, true, &k.arch)
        .map_err(|e| e.to_string())?;
    let interp = run_cta_profiled(&k.kernel, &prog, &arrays, k.points, 0, true, &k.arch, None)
        .map_err(|e| e.to_string())?;
    if engine.counts != interp.counts {
        return Err(format!(
            "event counts differ: {:?} vs {:?}",
            engine.counts, interp.counts
        ));
    }
    let bits = |bufs: &[Vec<f64>]| -> Vec<Vec<u64>> {
        bufs.iter()
            .map(|b| b.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    if bits(&engine.out_buffers) != bits(&interp.out_buffers) {
        return Err("output bits differ between engine and interpreter".into());
    }
    Ok(())
}

pub fn pass(cfg: &PassCfg, rec: &mut Rec) {
    // Set-up: compile, lower and warm every kernel of the mix.
    let specs = mix(cfg.smoke);
    let dme = synth::dme();
    let heptane = specs
        .iter()
        .any(|s| s.0 == Mech::Heptane)
        .then(synth::heptane);
    let mut rng = Rng::new(cfg.seed, "sim-grids");
    let mut mixk: Vec<Ready> = Vec::new();
    for spec in specs {
        let mech = if spec.0 == Mech::Heptane {
            heptane.as_ref().expect("built above")
        } else {
            &dme
        };
        match prepare(spec, mech, rng.next_u64()) {
            Ok(k) => mixk.push(k),
            Err(e) => rec.op("sim set-up", Err(e)),
        }
    }
    if mixk.is_empty() {
        return;
    }
    let (min_rounds, budget) = if cfg.smoke {
        (1, 0.0)
    } else {
        (2, cfg.budget_s)
    };

    rec.start_timed();
    let root = rec.tr.begin("bench.sim.pass_ms", "");
    let first_outputs = if cfg.trace {
        traced_rounds(rec, &mixk, budget)
    } else {
        plain_rounds(rec, &mixk, min_rounds, budget)
    };
    rec.tr.end(root);

    // Outside the timed region: the first full launch of every kernel
    // against the CPU reference, and the engine against the interpreter.
    for (k, outputs) in mixk.iter().zip(&first_outputs) {
        rec.op(
            &format!("{} vs reference", k.name),
            outputs
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|o| check::against_reference(k.kernel_id, k.mech, &k.grid, o)),
        );
        rec.op(
            &format!("{} engine vs interpreter", k.name),
            engine_matches_interpreter(k),
        );
    }
    if cfg.trace {
        reference_speed(rec, &mixk);
    }
}

/// Outputs of each kernel's first full launch, for the reference check.
type FirstOutputs = Vec<Result<Vec<Vec<f64>>, String>>;

/// Count a launch and, the first time round, keep what it computed.
fn note_launch(
    rec: &mut Rec,
    what: &str,
    out: Result<gpu_sim::LaunchOutput, String>,
    first: &mut FirstOutputs,
    round: usize,
) {
    rec.op(what, out.as_ref().map(|_| ()).map_err(Clone::clone));
    if round == 0 {
        first.push(out.map(|o| o.outputs));
    }
}

/// The end-to-end measurement: whole launches only.
fn plain_rounds(rec: &mut Rec, mixk: &[Ready], min_rounds: usize, budget: f64) -> FirstOutputs {
    let mut full: Vec<Vec<f64>> = vec![Vec::new(); mixk.len()];
    let mut first = FirstOutputs::new();
    let mut rounds = 0;
    while rounds < min_rounds || rec.elapsed_s() < budget * FULL_SHARE {
        for (i, k) in mixk.iter().enumerate() {
            let t = Instant::now();
            let out = k.launch(SERIAL);
            full[i].push(t.elapsed().as_secs_f64());
            note_launch(rec, &format!("{} launch", k.name), out, &mut first, rounds);
        }
        rounds += 1;
    }
    let mut profiled: Vec<Vec<f64>> = vec![Vec::new(); mixk.len()];
    let mut rounds = 0;
    while rounds < min_rounds || rec.elapsed_s() < budget {
        for (i, k) in mixk.iter().enumerate() {
            let t = Instant::now();
            let out = k.launch(PROFILED);
            profiled[i].push(t.elapsed().as_secs_f64() * 1e3);
            rec.op(&format!("{} profiled launch", k.name), out.map(|_| ()));
        }
        rounds += 1;
    }
    for (k, (full, profiled)) in mixk.iter().zip(full.iter().zip(&profiled)) {
        rec.sample(POINTS, k.points as f64);
        rec.sample(FULL_S, best(full));
        rec.sample(PROFILED_MS, best(profiled));
    }
    first
}

/// Samples of one measurement per kernel of the mix, in milliseconds.
struct PerKernel(Vec<Vec<f64>>);

impl PerKernel {
    fn new(n: usize) -> PerKernel {
        PerKernel(vec![Vec::new(); n])
    }

    /// The fastest repeat per kernel.
    fn bests(&self) -> Vec<f64> {
        self.0.iter().map(|s| best(s)).collect()
    }
}

/// The same rounds with each launch taken apart: the launch as a whole,
/// then its CTAs one by one on the engine, CTA 0 with event collection, CTA
/// 0 on the interpreter, and the profiled launch.
fn traced_rounds(rec: &mut Rec, mixk: &[Ready], budget: f64) -> FirstOutputs {
    let n = mixk.len();
    let mut first = FirstOutputs::new();
    let (mut launch, mut cta, mut collect, mut interp, mut profiled) = (
        PerKernel::new(n),
        PerKernel::new(n),
        PerKernel::new(n),
        PerKernel::new(n),
        PerKernel::new(n),
    );
    let mut rounds = 0;
    while rounds < 1 || rec.elapsed_s() < budget {
        for (i, k) in mixk.iter().enumerate() {
            let op = k.name.as_str();
            let s = rec.tr.begin("gpu_sim.launch.full_ms", op);
            let out = k.launch(SERIAL);
            launch.0[i].push(rec.tr.end(s) / 1e3);
            note_launch(rec, &format!("{op} launch"), out, &mut first, rounds);

            let prog = flatcache::flatten_cached(&k.kernel);
            let Ok(arrays) = launch_arrays(&k.kernel.global_arrays, &k.grid) else {
                continue;
            };
            let s = rec.tr.begin("bench.sim.cta_loop_ms", op);
            for c in 0..k.points / k.kernel.points_per_cta {
                let s = rec.tr.begin("gpu_sim.engine.cta_ms", op);
                let r = run_cta(&k.kernel, &prog, &arrays, k.points, c, false, &k.arch);
                cta.0[i].push(rec.tr.end(s) / 1e3);
                std::hint::black_box(&r);
            }
            rec.tr.end(s);
            let s = rec.tr.begin("gpu_sim.engine.cta_collect_ms", op);
            let r = run_cta(&k.kernel, &prog, &arrays, k.points, 0, true, &k.arch);
            collect.0[i].push(rec.tr.end(s) / 1e3);
            std::hint::black_box(&r);
            let s = rec.tr.begin("gpu_sim.interp.cta_ms", op);
            let r = run_cta_profiled(&k.kernel, &prog, &arrays, k.points, 0, true, &k.arch, None);
            interp.0[i].push(rec.tr.end(s) / 1e3);
            std::hint::black_box(&r);
            let s = rec.tr.begin("gpu_sim.profile.cta_ms", op);
            let out = k.launch(PROFILED);
            profiled.0[i].push(rec.tr.end(s) / 1e3);
            rec.op(&format!("{op} profiled launch"), out.map(|_| ()));
        }
        rounds += 1;
    }

    for (k, (full, prof)) in mixk.iter().zip(launch.0.iter().zip(&profiled.0)) {
        rec.sample(POINTS, k.points as f64);
        rec.sample(FULL_S, best(full) / 1e3);
        rec.sample(PROFILED_MS, best(prof));
    }
    let (launch, cta, collect, interp, profiled) = (
        launch.bests(),
        cta.bests(),
        collect.bests(),
        interp.bests(),
        profiled.bests(),
    );
    let total = |v: &[f64]| v.iter().sum::<f64>();
    rec.scalar("gpu_sim.engine.cta_ms", total(&cta) / n as f64);
    rec.scalar("gpu_sim.engine.cta_collect_ms", total(&collect) / n as f64);
    rec.scalar(
        "gpu_sim.engine.collect_overhead_share",
        (total(&collect) - total(&cta)) / total(&cta),
    );
    rec.scalar("gpu_sim.interp.cta_ms", total(&interp) / n as f64);
    rec.scalar(
        "gpu_sim.profile.host_overhead_share",
        (total(&profiled) - total(&interp)) / total(&profiled),
    );
    let in_ctas: f64 = mixk
        .iter()
        .zip(&cta)
        .map(|(k, ms)| (k.points / k.kernel.points_per_cta) as f64 * ms)
        .sum();
    rec.scalar(
        "gpu_sim.launch.overhead_share",
        (total(&launch) - in_ctas) / total(&launch),
    );

    // Lanes executed per host second: warp instructions of one CTA × 32.
    let (mut lanes, mut exp_lanes) = (0.0, 0.0);
    for k in mixk {
        let prog = flatcache::flatten_cached(&k.kernel);
        lanes += (0..prog.n_warps())
            .map(|w| prog.stream_len(w))
            .sum::<usize>() as f64
            * WARP_SIZE as f64;
        exp_lanes += (flatcache::engine_stats(&k.kernel, &prog).exp_ops * WARP_SIZE as u64) as f64;
    }
    rec.scalar(
        "gpu_sim.engine.mlanes_per_s",
        lanes / (total(&cta) / 1e3) / 1e6,
    );

    // The process's exp, calibrated on arguments in the range of Arrhenius
    // and transport exponents; the share is an estimate, since exp is not
    // timed inside the engine.
    let xs: Vec<f64> = (0..4096).map(|i| f64::from(i) * 0.0043 - 8.0).collect();
    let mut out = vec![0.0; xs.len()];
    let per_call: Vec<f64> = (0..25)
        .map(|_| {
            let t = Instant::now();
            gpu_sim::vmath::exp_slice(std::hint::black_box(&xs), &mut out);
            std::hint::black_box(&mut out[0]);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let exp_ns = best(&per_call) / xs.len() as f64 * 1e9;
    rec.scalar("gpu_sim.vmath.exp_ns_per_lane", exp_ns);
    rec.scalar(
        "gpu_sim.engine.exp_time_share_est",
        exp_lanes * exp_ns * 1e-9 / (total(&cta) / 1e3),
    );

    // Informational: the same launch fanned over two workers.
    let k = &mixk[0];
    let time = |jobs: usize| {
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(k.launch(LaunchConfig { jobs, ..SERIAL }).is_ok());
                t.elapsed().as_secs_f64()
            })
            .collect();
        best(&runs)
    };
    let s = rec.tr.begin_extra("gpu_sim.launch.jobs2_ms", &k.name);
    let speedup = time(1) / time(2);
    rec.tr.end(s);
    rec.scalar("gpu_sim.launch.jobs2_speedup", speedup);
    first
}

/// Points per second of the CPU reference on the same grids, and how many
/// times slower the simulated launch is.
fn reference_speed(rec: &mut Rec, mixk: &[Ready]) {
    let (mut reference, mut slowdown) = (Vec::new(), Vec::new());
    for k in mixk {
        let mech = k.mech;
        let t = Instant::now();
        match k.kernel_id {
            KernelId::Viscosity => {
                std::hint::black_box(reference_viscosity(&ViscosityTables::build(mech), &k.grid));
            }
            KernelId::Diffusion => {
                std::hint::black_box(reference_diffusion(&DiffusionTables::build(mech), &k.grid));
            }
            KernelId::Chemistry => {
                std::hint::black_box(reference_chemistry(&ChemistrySpec::build(mech), &k.grid));
            }
        }
        let ref_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(k.launch(SERIAL).is_ok());
        slowdown.push(t.elapsed().as_secs_f64() / ref_s);
        reference.push(k.points as f64 / ref_s / 1e3);
    }
    rec.scalar("chemkin.reference.kpts_per_s", geomean(&reference));
    rec.scalar("gpu_sim.engine.slowdown_vs_reference", geomean(&slowdown));
}
