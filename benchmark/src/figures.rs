//! Stage `figures`: the `report all` path from a cold process.
//!
//! One pass parses the mechanisms from text, then for every cell of the
//! sweep builds the tables and the dataflow graph, compiles, probes one
//! CTA and extrapolates to 32³/64³/128³. Every kernel is new to the
//! process, so verification, code generation, flattening and above all
//! engine lowering do nearly all the work and steady execution almost
//! none. It is also the only stage that yields the paper's figures.

use chemkin::synth::{self, dme_config, heptane_config, MechanismFiles};
use chemkin::Mechanism;
use gpu_sim::counts::EventCounts;
use gpu_sim::interp::{flatten, run_cta};
use gpu_sim::launch::{launch_with_config, LaunchConfig, LaunchInputs, LaunchMode};
use gpu_sim::profile::CtaProfile;
use gpu_sim::timing::{estimate, TimingBreakdown};
use gpu_sim::{flatcache, EngineStats};
use singe::codegen::CompileStats;
use singe::kernels::launch_arrays;
use singe::{Compiler, Variant};
use singe_serve::ArchId;

use crate::check;
use crate::gen::{self, Cell, Mech, Rng};
use crate::json::Json;
use crate::pass::{PassCfg, Rec};
use crate::stats::{geomean, median};
use crate::trace::Tracer;

/// Launches in this benchmark never fan out: one thread, whatever
/// `SINGE_JOBS` says.
pub const SERIAL: LaunchConfig = LaunchConfig {
    mode: LaunchMode::Full,
    profile: false,
    trace_events: false,
    jobs: 1,
};

/// The pass's operations in the seed's order, seconds each: one parse per
/// mechanism, then one entry per cell. `figures_wall_s` is their sum, each
/// taken from the replica that ran it fastest.
pub const PARTS: &str = "figures.part_s";

/// Grid edges of figs 11–16; the speedup metrics read the middle one.
const EDGES: [usize; 3] = [32, 64, 128];

/// The paper's speedup bands for the Fermi and Kepler cells.
pub struct PaperReference {
    /// (pair name, band low, band high).
    bands: Vec<(String, f64, f64)>,
}

impl PaperReference {
    pub fn load() -> Result<PaperReference, String> {
        let j = Json::parse(include_str!("../paper_reference.json"))?;
        let bands = j
            .arr_at("cells")
            .iter()
            .map(|c| {
                let pair = format!(
                    "{}-{}-{}",
                    c.str_at("kernel")?,
                    c.str_at("mech")?,
                    c.str_at("arch")?
                );
                Ok((pair, c.num_at("lo")?, c.num_at("hi")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PaperReference { bands })
    }

    /// The midpoint of the paper's band for a pair, if the paper measured
    /// it. Hopper pairs and held-out mechanisms have none.
    pub fn midpoint(&self, pair: &str) -> Option<f64> {
        self.bands
            .iter()
            .find(|(p, _, _)| p == pair)
            .map(|(_, lo, hi)| (lo + hi) / 2.0)
    }
}

/// What the traced run measures on a cell beyond the end-to-end path.
struct Extras {
    dfg_ops: usize,
    stream_instrs: usize,
    engine: EngineStats,
    /// Warp-specialized cells only.
    verify: Option<singe::VerifyReport>,
    profile: Option<CtaProfile>,
    model_cycles: Option<u64>,
}

struct CellOut {
    static_instrs: usize,
    spilled_bytes: usize,
    stats: CompileStats,
    counts: EventCounts,
    /// Simulated points per second at 64³.
    pps: f64,
    breakdown: TimingBreakdown,
    outputs: Vec<Vec<f64>>,
    points: usize,
    grid_seed: u64,
    /// Seconds from the cell's first table to its last estimate.
    path_s: f64,
    extras: Option<Extras>,
}

fn compile_span_name(stage: &str) -> String {
    match stage {
        "validate" => "singe.dfg.validate_ms".into(),
        "mapping" => "singe.mapping.ms".into(),
        "schedule" | "schedule-verify" => "singe.sync.schedule_ms".into(),
        "barrier-alloc" => "singe.barrier_alloc.ms".into(),
        "emit" => "singe.codegen.emit_ms".into(),
        "verify" => "singe.verify.ms".into(),
        "baseline" => "singe.baseline.ms".into(),
        other => format!("singe.compiler.{other}_ms"),
    }
}

/// `Compiler::compile`, or with tracing on `compile_traced` with its stage
/// spans hung under one `singe.compiler.self_ms` span (whose self time is
/// what the stages leave over).
fn compile(
    compiler: &Compiler,
    dfg: &singe::Dfg,
    variant: Variant,
    tr: &mut Tracer,
    op: &str,
) -> singe::CResult<singe::codegen::Compiled> {
    if !tr.on {
        return compiler.compile(dfg, variant);
    }
    let s = tr.begin("singe.compiler.self_ms", op);
    let r = compiler.compile_traced(dfg, variant);
    if let Ok((_, stages)) = &r {
        tr.import(s, stages, compile_span_name);
    }
    tr.end(s);
    r.map(|(c, _)| c)
}

fn run_cell(
    cell: &Cell,
    mech: &Mechanism,
    grid_seed: u64,
    tr: &mut Tracer,
) -> Result<CellOut, String> {
    let op = cell.id();
    let op = op.as_str();
    let began = std::time::Instant::now();
    let arch = cell.arch.arch();
    let n = mech.n_transported();
    let (opts, dfg_warps) = check::figure_options(cell.kernel, cell.variant, n, &arch);
    let dfg = check::build_dfg(cell.kernel, mech, dfg_warps, tr, op);
    let compiler = Compiler::new(&arch).options(opts);
    let compiled = compile(&compiler, &dfg, cell.variant, tr, op).map_err(|e| e.to_string())?;
    let kernel = &compiled.kernel;

    // The one-CTA probe. Traced, `launch` is replaced by the public parts
    // it is made of, each under its own span.
    let points = kernel.points_per_cta;
    let g = check::grid(points, n, grid_seed);
    let arrays = launch_arrays(&kernel.global_arrays, &g).map_err(|e| e.to_string())?;
    let mut engine = None;
    let (outputs, counts) = if tr.on {
        let s = tr.begin("gpu_sim.flatcache.lookup_ms", op);
        let prog = flatcache::flatten_cached(kernel);
        tr.end(s);
        let s = tr.begin("gpu_sim.engine.lower_ms", op);
        engine = Some(flatcache::engine_stats(kernel, &prog));
        tr.end(s);
        let s = tr.begin("gpu_sim.engine.probe_ms", op);
        let r = run_cta(kernel, &prog, &arrays, points, 0, true, &arch);
        tr.end(s);
        let r = r.map_err(|e| e.to_string())?;
        // `launch` ends with one estimate at the probe size.
        let s = tr.begin("gpu_sim.timing.estimate_us", op);
        std::hint::black_box(estimate(kernel, &arch, &r.counts, points));
        tr.end(s);
        (r.out_buffers, r.counts)
    } else {
        let out = launch_with_config(kernel, &arch, &LaunchInputs { arrays }, points, SERIAL)
            .map_err(|e| e.to_string())?;
        (out.outputs, out.report.counts)
    };

    let mut at_64 = None;
    for edge in EDGES {
        let s = tr.begin("gpu_sim.timing.estimate_us", op);
        let r = estimate(kernel, &arch, &counts, edge * edge * edge);
        tr.end(s);
        if edge == 64 {
            at_64 = Some((r.points_per_sec, r.breakdown));
        }
    }
    let (pps, breakdown) = at_64.expect("64 is one of the edges");
    // The end-to-end path ends here; what follows only the traced run does.
    let path_s = began.elapsed().as_secs_f64();

    let extras = match engine {
        None => None,
        Some(engine) => {
            let s = tr.begin_extra("gpu_sim.interp.flatten_ms", op);
            let flat = flatten(kernel);
            tr.end(s);
            let stream_instrs = (0..flat.n_warps()).map(|w| flat.stream_len(w)).sum();
            let (mut verify, mut profile, mut model_cycles) = (None, None, None);
            if cell.variant == Variant::WarpSpecialized {
                let s = tr.begin_extra("singe.perfmodel.predict_ms", op);
                let model = singe::perfmodel::predict(kernel, &arch, points);
                tr.end(s);
                model_cycles = Some(model.map_err(|e| e.to_string())?.profile.cta.total_cycles);
                let arrays = launch_arrays(&kernel.global_arrays, &g).map_err(|e| e.to_string())?;
                let s = tr.begin_extra("gpu_sim.profile.launch_ms", op);
                let out = launch_with_config(
                    kernel,
                    &arch,
                    &LaunchInputs { arrays },
                    points,
                    LaunchConfig {
                        profile: true,
                        ..SERIAL
                    },
                );
                tr.end(s);
                profile = out.map_err(|e| e.to_string())?.profile;
                // A memo hit: the compile just verified this kernel.
                let s = tr.begin_extra("singe.verify.report_ms", op);
                verify = singe::verify::verify_kernel(kernel, &arch).ok();
                tr.end(s);
            }
            Some(Extras {
                dfg_ops: dfg.ops.len(),
                stream_instrs,
                engine,
                verify,
                profile,
                model_cycles,
            })
        }
    };

    Ok(CellOut {
        static_instrs: kernel.static_instructions(),
        spilled_bytes: kernel.spilled_bytes_per_thread,
        stats: compiled.stats,
        counts,
        pps,
        breakdown,
        outputs,
        points,
        grid_seed,
        path_s,
        extras,
    })
}

pub fn pass(cfg: &PassCfg, rec: &mut Rec) {
    // Set-up: the cell order, the probe inputs' seed and the mechanisms'
    // text all come from the seed; the program sees only the text.
    let cells = gen::figure_cells(cfg.seed, cfg.smoke);
    let probe_seed = Rng::new(cfg.seed, "figures-probe").next_u64();
    let files: Vec<(Mech, MechanismFiles)> = [
        (Mech::Dme, dme_config()),
        (Mech::Heptane, heptane_config()),
        (Mech::Heldout, gen::heldout_config(cfg.seed)),
    ]
    .into_iter()
    .filter(|(m, _)| cells.iter().any(|c| c.mech == *m))
    .map(|(m, c)| (m, MechanismFiles::from_mechanism(&synth::synthesize(&c))))
    .collect();
    let reference = PaperReference::load();

    rec.start_timed();
    let root = rec.tr.begin("bench.figures.pass_ms", "");
    let mut mechs: Vec<(Mech, Mechanism)> = Vec::new();
    let (mut parse_bytes, mut parse_s) = (0usize, 0.0);
    for (m, f) in &files {
        let t = std::time::Instant::now();
        let s = rec.tr.begin("chemkin.parser.parse_ms", m.name());
        let parsed = f.parse(m.name());
        rec.tr.end(s);
        rec.sample(PARTS, t.elapsed().as_secs_f64());
        parse_s += t.elapsed().as_secs_f64();
        parse_bytes += f.chemkin.len() + f.thermo.len() + f.transport.len() + f.qssa.len();
        match parsed {
            Ok(mech) => mechs.push((*m, mech)),
            Err(e) => rec.op(&format!("parse {}", m.name()), Err(e.to_string())),
        }
    }
    let mut done: Vec<(Cell, Result<CellOut, String>)> = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let Some((_, mech)) = mechs.iter().find(|(m, _)| *m == cell.mech) else {
            continue;
        };
        let s = rec.tr.begin("bench.figures.cell_ms", &cell.id());
        let r = run_cell(cell, mech, probe_seed.wrapping_add(i as u64), &mut rec.tr);
        rec.tr.end(s);
        if let Ok(out) = &r {
            rec.sample(PARTS, out.path_s);
        }
        done.push((*cell, r));
    }
    rec.tr.end(root);

    // Outside the timed region: every probe against the CPU reference.
    let mut ok: Vec<(Cell, CellOut)> = Vec::new();
    for (cell, r) in done {
        let verdict = r.and_then(|out| {
            let mech = &mechs
                .iter()
                .find(|(m, _)| *m == cell.mech)
                .expect("cell ran")
                .1;
            let g = check::grid(out.points, mech.n_transported(), out.grid_seed);
            check::against_reference(cell.kernel, mech, &g, &out.outputs).map(|()| out)
        });
        match verdict {
            Ok(out) => {
                rec.op(&cell.id(), Ok(()));
                ok.push((cell, out));
            }
            Err(e) => rec.op(&cell.id(), Err(e)),
        }
    }

    rec.scalar(
        "chemkin.parser.mb_per_s",
        parse_bytes as f64 / 1e6 / parse_s,
    );
    match reference {
        Ok(reference) => derive(cfg, rec, &ok, &reference),
        Err(e) => rec.op("paper_reference.json", Err(e)),
    }
}

/// The simulated results and counts of a pass. Everything here is
/// deterministic; sums run in the canonical pair order, whatever order the
/// seed ran the cells in.
fn derive(cfg: &PassCfg, rec: &mut Rec, ok: &[(Cell, CellOut)], reference: &PaperReference) {
    let find = |pair: &(singe_serve::KernelId, Mech, ArchId), variant: Variant| {
        ok.iter()
            .find(|(c, _)| (c.kernel, c.mech, c.arch) == *pair && c.variant == variant)
            .map(|(c, out)| (c, out))
    };
    let (mut canonical, mut heldout, mut gaps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ws_cells, mut base_cells) = (Vec::new(), Vec::new());
    for pair in gen::figure_pairs(cfg.smoke) {
        let (Some((cell, ws)), Some((_, base))) = (
            find(&pair, Variant::WarpSpecialized),
            find(&pair, Variant::Baseline),
        ) else {
            continue;
        };
        let speedup = ws.pps / base.pps;
        if pair.1 == Mech::Heldout {
            heldout.push(speedup);
            continue;
        }
        canonical.push(speedup);
        rec.exact(&format!("cell.{}.speedup", cell.pair()), speedup);
        if let Some(paper) = reference.midpoint(&cell.pair()) {
            gaps.push((speedup / paper).max(paper / speedup));
        }
        ws_cells.push(ws);
        base_cells.push(base);
    }
    if canonical.is_empty() || heldout.is_empty() || gaps.is_empty() {
        rec.op(
            "figure pairs",
            Err("no complete warp-specialized/baseline pair".into()),
        );
        return;
    }
    rec.exact("sim_ws_speedup_geomean", geomean(&canonical));
    rec.exact("paper_gap_geomean", geomean(&gaps));
    rec.exact("heldout.speedup_geomean", geomean(&heldout));
    let sum =
        |cells: &[&CellOut], f: &dyn Fn(&CellOut) -> f64| cells.iter().map(|c| f(c)).sum::<f64>();
    rec.exact(
        "ws_static_instrs_total",
        sum(&ws_cells, &|c| c.static_instrs as f64),
    );

    // Simulated time of the warp-specialized cells by timing-model term
    // (cycles of one SM wave at 64³, summed over the cells).
    type Term = (&'static str, fn(&TimingBreakdown) -> f64);
    let terms: [Term; 9] = [
        ("dp", |b| b.dp_cycles),
        ("issue", |b| b.issue_cycles),
        ("dram", |b| b.dram_cycles),
        ("local", |b| b.local_cycles),
        ("shared", |b| b.shared_cycles),
        ("global_latency", |b| b.global_latency_cycles),
        ("const_miss", |b| b.const_miss_cycles),
        ("barrier", |b| b.barrier_cycles),
        ("icache", |b| b.icache_cycles),
    ];
    let all_terms: f64 = terms
        .iter()
        .map(|(_, f)| sum(&ws_cells, &|c| f(&c.breakdown)))
        .sum();
    for (name, f) in terms {
        rec.exact(
            &format!("gpu_sim.timing.share.{name}"),
            sum(&ws_cells, &|c| f(&c.breakdown)) / all_terms,
        );
    }
    let ratio = |num: &dyn Fn(&EventCounts) -> u64, den: &dyn Fn(&EventCounts) -> u64| {
        sum(&ws_cells, &|c| num(&c.counts) as f64)
            / sum(&ws_cells, &|c| den(&c.counts) as f64).max(1.0)
    };
    rec.exact(
        "gpu_sim.counts.icache_miss_ratio",
        ratio(&|c| c.icache_misses, &|c| c.icache_fetches),
    );
    rec.exact(
        "gpu_sim.counts.const_miss_ratio",
        ratio(&|c| c.const_misses, &|c| c.const_hits + c.const_misses),
    );
    rec.exact(
        "gpu_sim.counts.shared_conflict_ratio",
        ratio(&|c| c.shared_conflicts, &|c| c.shared_accesses),
    );

    // Compiler counts over the warp-specialized cells.
    let stat = |f: &dyn Fn(&CompileStats) -> f64| sum(&ws_cells, &|c| f(&c.stats));
    rec.exact(
        "singe.mapping.flop_imbalance",
        stat(&|s| s.flop_imbalance) / ws_cells.len() as f64,
    );
    rec.exact("singe.sync.sync_points", stat(&|s| s.sync_points as f64));
    rec.exact("singe.sync.merged_syncs", stat(&|s| s.merged_syncs as f64));
    rec.exact(
        "singe.barrier_alloc.barriers_used",
        stat(&|s| s.barriers_used as f64),
    );
    rec.exact(
        "singe.codegen.static_instrs",
        sum(&ws_cells, &|c| c.static_instrs as f64),
    );
    rec.exact(
        "singe.codegen.const_regs_per_thread",
        stat(&|s| s.const_regs_per_thread as f64),
    );
    rec.exact(
        "singe.codegen.overlay_groups",
        stat(&|s| s.overlay_groups as f64),
    );
    rec.exact("singe.codegen.solo_groups", stat(&|s| s.solo_groups as f64));
    rec.exact(
        "singe.codegen.shared_slots",
        stat(&|s| s.shared_slots as f64),
    );
    rec.exact(
        "singe.baseline.spilled_bytes",
        sum(&base_cells, &|c| c.spilled_bytes as f64),
    );

    if !cfg.trace {
        return;
    }
    // The traced run's own measurements, over both variants of the
    // canonical pairs unless a metric says warp-specialized.
    let both: Vec<&CellOut> = ws_cells.iter().chain(&base_cells).copied().collect();
    fn ex(c: &CellOut) -> &Extras {
        c.extras.as_ref().expect("traced cells carry extras")
    }
    let engine = |f: &dyn Fn(&EngineStats) -> u64| sum(&both, &|c| f(&ex(c).engine) as f64);
    let stream_instrs = sum(&both, &|c| ex(c).stream_instrs as f64);
    rec.exact(
        "singe.kernels.dfg_ops",
        sum(&both, &|c| ex(c).dfg_ops as f64),
    );
    rec.exact("gpu_sim.interp.stream_instrs", stream_instrs);
    rec.exact("gpu_sim.engine.uops", engine(&|e| e.uops));
    rec.exact(
        "gpu_sim.engine.uops_per_instr",
        engine(&|e| e.uops) / stream_instrs,
    );
    rec.exact("gpu_sim.engine.exp_ops", engine(&|e| e.exp_ops));
    rec.exact("gpu_sim.engine.exp_batched", engine(&|e| e.exp_batched));
    rec.exact("gpu_sim.engine.exp_cse", engine(&|e| e.exp_cse));
    rec.exact(
        "gpu_sim.engine.exp_mul_applied",
        engine(&|e| e.exp_mul_applied),
    );
    rec.exact("gpu_sim.engine.async_copies", engine(&|e| e.async_copies));
    let verify = |f: &dyn Fn(&singe::VerifyReport) -> usize| {
        sum(&ws_cells, &|c| ex(c).verify.as_ref().map_or(0, f) as f64)
    };
    rec.exact("singe.verify.barrier_ops", verify(&|v| v.barrier_ops));
    rec.exact(
        "singe.verify.shared_accesses",
        verify(&|v| v.shared_accesses),
    );

    // One profiled launch per warp-specialized cell: cycles by reason,
    // summed over warps and cells.
    let profiles: Vec<&CtaProfile> = ws_cells
        .iter()
        .filter_map(|c| ex(c).profile.as_ref())
        .collect();
    type Reason = (&'static str, fn(&gpu_sim::profile::WarpCycles) -> u64);
    let reasons: [Reason; 6] = [
        ("issue", |w| w.issue),
        ("barrier_wait", |w| w.barrier_wait_total()),
        ("icache_miss", |w| w.icache_miss),
        ("const_replay", |w| w.const_replay),
        ("overhead", |w| w.overhead),
        ("idle", |w| w.idle),
    ];
    let by_reason: Vec<f64> = reasons
        .iter()
        .map(|(_, f)| profiles.iter().map(|p| f(&p.totals()) as f64).sum())
        .collect();
    let attributed: f64 = by_reason.iter().sum();
    for ((name, _), cycles) in reasons.iter().zip(&by_reason) {
        rec.exact(
            &format!("gpu_sim.profile.{name}_share"),
            cycles / attributed.max(1.0),
        );
    }
    // How far the static model's CTA cycles are from the profiled ones.
    let errs: Vec<f64> = ws_cells
        .iter()
        .filter_map(|c| {
            let profiled = ex(c).profile.as_ref()?.total_cycles as f64;
            Some((ex(c).model_cycles? as f64 - profiled).abs() / profiled)
        })
        .collect();
    if !errs.is_empty() {
        rec.exact("singe.perfmodel.cycle_err_median", median(&errs));
    }
    for name in ["gpu_sim.timing.estimate_us", "singe.perfmodel.predict_ms"] {
        let per_call: Vec<f64> = rec
            .tr
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us())
            .collect();
        if !per_call.is_empty() {
            let us = median(&per_call);
            rec.scalar(name, if name.ends_with("_ms") { us / 1e3 } else { us });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use singe_serve::KernelId;

    #[test]
    fn the_paper_covers_the_twelve_fermi_and_kepler_pairs_and_no_other() {
        let reference = PaperReference::load().unwrap();
        assert_eq!(reference.bands.len(), 12);
        let mut with_reference = 0;
        for (kernel, mech, arch) in gen::figure_pairs(false) {
            let pair = Cell {
                kernel,
                mech,
                arch,
                variant: Variant::WarpSpecialized,
            }
            .pair();
            let measured_by_the_paper = mech != Mech::Heldout && arch != ArchId::Hopper;
            assert_eq!(
                reference.midpoint(&pair).is_some(),
                measured_by_the_paper,
                "{pair}"
            );
            with_reference += usize::from(measured_by_the_paper);
        }
        assert_eq!(
            with_reference, 12,
            "every band belongs to a pair of the sweep"
        );
        for (_, lo, hi) in &reference.bands {
            assert!(*lo > 0.0 && lo <= hi);
        }
        let dme_fermi = Cell {
            kernel: KernelId::Viscosity,
            mech: Mech::Dme,
            arch: ArchId::Fermi,
            variant: Variant::Baseline,
        };
        assert_eq!(reference.midpoint(&dme_fermi.pair()), Some(1.25));
    }
}
