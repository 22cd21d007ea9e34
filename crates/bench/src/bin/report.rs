//! Regenerates every table and figure of the paper as text (and JSON).
//!
//! Usage: `report [figure] [--jobs N]` where figure is one of
//! `mechanisms fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 gflops
//! ablate-barriers spills verify all` (default `all`), or one of the solo
//! subcommands below. Figure rows also land in `target/report.json`.
//! `verify` runs the independent schedule verifier over every kernel ×
//! mechanism × architecture × compiler combination and exits non-zero on
//! any violation.
//!
//! Solo subcommands (never part of `all`):
//!
//! - `profile` runs the per-warp cycle-attribution profiler over every
//!   kernel × variant × architecture, prints the paper-style stall
//!   breakdown, writes `target/profile.json`, and exports a Chrome trace to
//!   `target/profile_trace.json`; exits non-zero if a warp's reasons do not
//!   sum to its cycles.
//! - `model` compares the static analytical performance model against the
//!   simulator for every kernel × variant × architecture, writes
//!   `target/model.json`, and exits non-zero if the accuracy gate
//!   (Spearman ≥ 0.8, ratio within 2x) fails.
//! - `pipeline` sweeps the software pipeline depth K=1..4 for the
//!   warp-specialized DME viscosity kernel on the Hopper-class
//!   architecture and exits non-zero unless some K>1 beats the
//!   single-buffered schedule — the simulator is deterministic, so this is
//!   an exact gate.
//! - `search` runs the model-driven schedule search against the committed
//!   candidate grids and exits non-zero unless every row is at least as
//!   good as its grid (one strictly better), at most 25 % of the scored
//!   candidates were simulated, and every winner verifies at `Strict`.
//! - `fidelity` prints every Fermi and Kepler cell against the paper's band
//!   (the bands of `benchmark/paper_reference.json`, so the table and the
//!   benchmark's `paper_gap_geomean` cannot disagree) with its constant
//!   registers and registers per thread, and exits non-zero if a cell's gap
//!   is wider than in the committed `BENCH_report.json`.
//! - `record` measures the `fidelity`, `search` and `pipeline` entries and
//!   writes them, under one provenance stamp, to `BENCH_report.json` at the
//!   repo root ([`singe_bench::record`]). It is the only subcommand that
//!   writes outside `target/`.
//! - `check` measures the same entries, applies the same gates, and exits
//!   non-zero naming the first field that differs from the committed
//!   `BENCH_report.json`. `check <path>` reads another record instead (the
//!   base commit's, in any layout the file has had) and applies only the
//!   monotone fidelity gate: no cell's gap wider than there.
//!
//! Figures are computed on a worker pool (`--jobs`, `SINGE_JOBS`, default
//! = available parallelism) but every figure renders into its own buffer
//! and the buffers are printed in input order, so stdout and
//! `target/report.json` are byte-identical at any worker count. Wall-clock
//! per figure goes to **stderr** only: host time is `benchmark/`'s to
//! record.

use std::fmt::Write as _;
use std::time::Instant;

use chemkin::synth;
use chemkin::Mechanism;
use gpu_sim::arch::GpuArch;
use singe::config::CompileOptions;
use singe_bench::record::{self, Json};
use singe_bench::*;

const FIGURES: &[&str] = &[
    "mechanisms", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "gflops", "ablate-barriers", "spills", "verify",
    "profile", "model", "pipeline", "search", "fidelity", "record", "check",
    "all",
];

/// The committed record.
const RECORD_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json");

/// One figure's rendered output: stdout text, JSON rows, and the number of
/// verification failures (non-zero only for `verify`).
struct FigOutput {
    text: String,
    rows: Vec<Row>,
    failures: usize,
}

/// Exit 1 with `message` unless `ok`.
fn gate(ok: bool, message: &str) {
    if !ok {
        eprintln!("\n{message}");
        std::process::exit(1);
    }
}

fn main() {
    let mut which: Option<String> = None;
    let mut jobs: Option<usize> = None;
    // `check`'s other record.
    let mut against: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            let v = args.next().unwrap_or_default();
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs expects a positive integer, got '{v}'");
                    std::process::exit(2);
                }
            }
        } else if which.is_none() {
            which = Some(a);
        } else if which.as_deref() == Some("check") && against.is_none() {
            against = Some(a);
        } else {
            eprintln!("unexpected argument '{a}'");
            std::process::exit(2);
        }
    }
    let which = which.unwrap_or_else(|| "all".into());
    if !FIGURES.contains(&which.as_str()) {
        eprintln!("unknown figure '{which}'; expected one of: {}", FIGURES.join(" "));
        std::process::exit(2);
    }
    let jobs = jobs.unwrap_or_else(singe::pool::default_jobs);

    let dme = synth::dme();
    let heptane = synth::heptane();
    let archs = [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()];

    // The solo subcommands: diagnostics and gates, not paper figures.
    match (which.as_str(), against.as_deref()) {
        ("profile", _) => {
            let failures = profile_report(&dme, &archs);
            return gate(failures == 0, &format!("cycle attribution: {failures} failure(s)"));
        }
        ("model", _) => return gate(model_report(&dme, &archs), "model accuracy gate FAILED"),
        ("pipeline", _) => return gate(pipeline_report(&dme).1, PIPELINE_GATE),
        ("search", _) => return gate(search_report(&dme, &archs, jobs).1, SEARCH_GATE),
        ("fidelity", _) => {
            return gate(fidelity_report(&[&dme, &heptane], RECORD_PATH), FIDELITY_GATE)
        }
        ("check", Some(path)) => {
            return gate(fidelity_report(&[&dme, &heptane], path), FIDELITY_GATE)
        }
        ("record" | "check", _) => {
            let rows = fidelity::fidelity_rows(&[&dme, &heptane]);
            print!("{}", fidelity::render(&rows));
            let (search, search_ok) = search_report(&dme, &archs, jobs);
            let (pipeline, pipeline_ok) = pipeline_report(&dme);
            let fresh = object! {
                "provenance": provenance(jobs),
                "fidelity": fidelity::entry(&rows),
                "search": search,
                "pipeline": pipeline,
            };
            if which == "record" {
                std::fs::write(RECORD_PATH, fresh.document() + "\n").expect("write the record");
                eprintln!("[wrote {RECORD_PATH}]");
            } else {
                match record::compare(&fresh, &read_record(RECORD_PATH)) {
                    Ok(()) => println!("check: BENCH_report.json is what this tree measures"),
                    Err(m) => gate(false, &format!("check: {m}\n(`report record` rewrites it)")),
                }
            }
            gate(search_ok, SEARCH_GATE);
            return gate(pipeline_ok, PIPELINE_GATE);
        }
        _ => {}
    }

    // Every figure as a (name, render) pair; rendering is pure with respect
    // to stdout so figures can run on the pool in any order.
    type FigFn<'a> = Box<dyn Fn() -> FigOutput + Sync + 'a>;
    let mut figs: Vec<(&'static str, FigFn<'_>)> = Vec::new();
    let selected = |name: &str| which == name || which == "all";
    if selected("mechanisms") {
        figs.push(("mechanisms", Box::new(|| figure3(&[&dme, &heptane]))));
    }
    if selected("fig9") {
        figs.push(("fig9", Box::new(|| fig9(&dme, &archs[1], jobs))));
    }
    if selected("fig10") {
        figs.push(("fig10", Box::new(|| fig10(&[&dme, &heptane], &archs[1]))));
    }
    for (fig, kind, mech) in [
        ("fig11", Kind::Viscosity, &dme),
        ("fig12", Kind::Viscosity, &heptane),
        ("fig13", Kind::Diffusion, &dme),
        ("fig14", Kind::Diffusion, &heptane),
        ("fig15", Kind::Chemistry, &dme),
        ("fig16", Kind::Chemistry, &heptane),
    ] {
        if selected(fig) {
            let archs = &archs;
            figs.push((fig, Box::new(move || throughput_figure(fig, kind, mech, archs, jobs))));
        }
    }
    if selected("gflops") {
        figs.push(("gflops", Box::new(|| gflops_analysis(&dme, &archs))));
    }
    if selected("ablate-barriers") {
        figs.push(("ablate-barriers", Box::new(|| ablate_barriers(&dme, &archs))));
    }
    if selected("spills") {
        figs.push(("spills", Box::new(|| spills(&heptane, &archs))));
    }
    if selected("verify") {
        figs.push(("verify", Box::new(|| verify_all(&[&dme, &heptane], &archs, jobs))));
    }

    let t_all = Instant::now();
    let results: Vec<(FigOutput, f64)> = singe::pool::run_ordered(jobs, figs.len(), |i| {
        let t0 = Instant::now();
        let out = figs[i].1();
        (out, t0.elapsed().as_secs_f64())
    });
    let total_seconds = t_all.elapsed().as_secs_f64();

    // Commit output in input order: stdout is deterministic at any --jobs.
    let mut rows: Vec<Json> = Vec::new();
    let mut failures = 0usize;
    for (out, _) in &results {
        print!("{}", out.text);
        failures += out.failures;
        rows.extend(out.rows.iter().map(Row::to_json));
    }

    if !rows.is_empty() {
        std::fs::create_dir_all("target").ok();
        let n_rows = rows.len();
        std::fs::write("target/report.json", Json::Array(rows).document()).expect("write report.json");
        eprintln!("\n[wrote {n_rows} rows to target/report.json]");
    }

    // Wall-clock summary on stderr (stdout stays byte-comparable).
    eprintln!("\n[timing: jobs={jobs}]");
    for ((name, _), (out, seconds)) in figs.iter().zip(&results) {
        eprintln!("[  {name:<16} {seconds:8.3}s  {:>3} rows]", out.rows.len());
    }
    eprintln!("[  {:<16} {total_seconds:8.3}s]", "total");

    gate(failures == 0, &format!("schedule verification: {failures} failure(s)"));
}

const PIPELINE_GATE: &str = "pipeline depth sweep: no K>1 win over the single-buffered schedule";
const SEARCH_GATE: &str = "schedule search: gate FAILED (win/simulation-budget/verification)";
const FIDELITY_GATE: &str =
    "fidelity: a cell moved away from the paper's band (say so in EXPERIMENTS.md)";

/// The record at `path`, parsed; exit 1 if it cannot be read as one.
fn read_record(path: &str) -> Json {
    let parsed = std::fs::read(path)
        .map_err(|e| e.to_string())
        .and_then(|text| record::parse(&text).map_err(|e| e.to_string()));
    parsed.unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1)
    })
}

/// Where and how a record was measured. The entries do not depend on any
/// of it (the simulator is deterministic); it says where to reproduce them.
/// `sha` is the commit the tree was at, `-dirty` when it had uncommitted
/// changes. Every field of the entries that is not a plain count has its
/// unit here.
fn provenance(jobs: usize) -> Json {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let sha = match (git(&["rev-parse", "--short", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(sha), Some(changes)) if changes.is_empty() => sha,
        (Some(sha), _) => format!("{sha}-dirty"),
        _ => "unknown".into(),
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let speedup = "x (ws over baseline points/s at 64^3)";
    let gap = "x (max(measured/paper, paper/measured) against the band's midpoint; 1 is a match)";
    let fixed_work = "SM cycles for the fixed 4096-point probe, so that schedules with \
                      different points per CTA compare on equal work";
    let probe_us = "simulated microseconds for that probe";
    let per_cta = "SM cycles per CTA";
    object! {
        "sha": sha,
        "host": format!("{cpus} cpus, {}/{}", std::env::consts::OS, std::env::consts::ARCH),
        "features": "default",
        "jobs": jobs,
        "units": object! {
            "fidelity.speedup": speedup,
            "fidelity.paper_lo": speedup,
            "fidelity.paper_hi": speedup,
            "fidelity.gap": gap,
            "fidelity.paper_gap_geomean": gap,
            "search.grid_best_cycles": fixed_work,
            "search.search_best_cycles": fixed_work,
            "search.grid_best_us": probe_us,
            "search.search_best_us": probe_us,
            "search.model_cycles": "SM cycles per CTA, as the model predicts the winner",
            "search.sim_fraction": "share (simulations / model_evals)",
            "pipeline.k1_cycles": per_cta,
            "pipeline.best_cycles": per_cta,
            "pipeline.delta_cycles": per_cta,
            "pipeline.cta_cycles": per_cta,
            "pipeline.barrier_wait_cycles": "cycles summed over the CTA's warps",
        },
    }
}

/// `fidelity` and `check <path>`: the Fermi and Kepler cells against the
/// paper's bands ([`singe_bench::fidelity`]), printed. False when a cell's
/// gap is wider than the record at `path` has it.
fn fidelity_report(mechs: &[&Mechanism], path: &str) -> bool {
    let committed = read_record(path);
    let rows = fidelity::fidelity_rows(mechs);
    print!("{}", fidelity::render(&rows));
    let widened = fidelity::widened(&rows, &committed);
    for (cell, before, now) in &widened {
        println!("widened: {cell} gap {before:.4} -> {now:.4}");
    }
    widened.is_empty()
}

/// `pipeline`: sweep the software pipeline depth K=1..4 for the
/// warp-specialized DME viscosity kernel on the Hopper-class architecture
/// (the only built-in arch whose barrier file fits a K-deep schedule for
/// the DME kernels), printed; returns the per-CTA cycle trajectory as the
/// `pipeline` entry of `BENCH_report.json`. Every depth runs the full
/// simulated CTA under the cycle profiler at the serve-layer default
/// configuration, so cycles and barrier-wait are deterministic — the
/// returned gate (some K>1 strictly beats K=1 on per-CTA cycles) is exact,
/// not statistical.
fn pipeline_report(dme: &Mechanism) -> (Json, bool) {
    use chemkin::state::{GridDims, GridState};
    use gpu_sim::launch::{launch_with_config, LaunchConfig, LaunchInputs, LaunchMode};
    use singe::kernels::launch_arrays;
    use singe::Variant;

    let arch = GpuArch::hopper();
    let base_opts = ws_options(Kind::Viscosity, dme.n_transported(), &arch);
    println!(
        "== pipeline depth sweep (dme viscosity ws, {}, {} warps, {} iters) ==",
        arch.name, base_opts.warps, base_opts.point_iters
    );
    println!(
        "{:<4} {:>5} {:>10} {:>8} {:>12} {:>12}",
        "K", "depth", "cycles", "delta", "barrier-wait", "issue-slots"
    );
    struct DepthRow {
        k_requested: usize,
        depth: usize,
        cycles: u64,
        barrier_wait: u64,
        issue_slots: u64,
        shared_slots: usize,
        barriers: usize,
    }
    let mut rows: Vec<DepthRow> = Vec::new();
    for k in 1..=4usize {
        let mut opts = base_opts.clone();
        opts.pipeline_depth = k;
        let built =
            build_with_options(Kind::Viscosity, dme, &arch, Variant::WarpSpecialized, &opts)
                .expect("viscosity compiles at every requested depth");
        let stats = built.stats.as_ref().expect("ws build carries stats");
        let points = built.kernel.points_per_cta;
        let grid = GridState::random(GridDims { nx: points, ny: 1, nz: 1 }, built.n_species, 1234);
        let arrays = launch_arrays(&built.kernel.global_arrays, &grid).expect("known arrays");
        let out = launch_with_config(
            &built.kernel,
            &arch,
            &LaunchInputs { arrays },
            points,
            LaunchConfig { mode: LaunchMode::Full, profile: true, trace_events: false, jobs: 0 },
        )
        .expect("profiled CTA launch");
        let prof = out.profile.expect("profile requested");
        let row = DepthRow {
            k_requested: k,
            depth: stats.pipeline_depth,
            cycles: prof.total_cycles,
            barrier_wait: prof.totals().barrier_wait_total(),
            issue_slots: out.report.counts.issue_slots,
            shared_slots: stats.shared_slots,
            barriers: built.kernel.barriers_used,
        };
        let delta = row.cycles as i64 - rows.first().map_or(row.cycles, |r| r.cycles) as i64;
        println!(
            "{:<4} {:>5} {:>10} {:>+8} {:>12} {:>12}",
            row.k_requested, row.depth, row.cycles, delta, row.barrier_wait, row.issue_slots
        );
        rows.push(row);
    }
    let k1 = &rows[0];
    let best = rows.iter().min_by_key(|r| r.cycles).expect("sweep non-empty");
    let win = best.depth > 1 && best.cycles < k1.cycles;
    println!(
        "best: K={} at {} cycles ({:+} vs single-buffered)",
        best.depth,
        best.cycles,
        best.cycles as i64 - k1.cycles as i64
    );

    let sweep: Vec<Json> = rows
        .iter()
        .map(|r| {
            object! {
                "k_requested": r.k_requested,
                "depth": r.depth,
                "cta_cycles": r.cycles,
                "barrier_wait_cycles": r.barrier_wait,
                "issue_slots": r.issue_slots,
                "shared_slots": r.shared_slots,
                "kernel_barriers": r.barriers,
            }
        })
        .collect();
    let entry = object! {
        "kernel": "dme-viscosity-ws",
        "arch": arch.name,
        "warps": base_opts.warps,
        "point_iters": u64::from(base_opts.point_iters),
        "k1_cycles": k1.cycles,
        "best_depth": best.depth,
        "best_cycles": best.cycles,
        "delta_cycles": best.cycles as i64 - k1.cycles as i64,
        "win": win,
        "rows": sweep,
    };
    (entry, win)
}

/// `search`: run the model-driven schedule search ([`singe::search`])
/// against the committed candidate grids for DME viscosity + diffusion ×
/// Fermi/Kepler/Hopper, printed; returns model-evals vs simulations vs
/// best-found cycles as the `search` entry of `BENCH_report.json`, with
/// how many distinct kernels each row's scored candidates came to. Both
/// sides of a row are one tuner: the *grid* baseline
/// is a `FixedList` over the extended ∪ pipelined grids with every
/// compiled candidate simulated; the search is `BeamSearch` at the
/// default budget, simulating only the top-K. The returned gate requires,
/// on every row: search winner ≤ grid winner on simulated probe cycles
/// (strictly better on at least one row), simulations ≤ 25% of the
/// candidates the search model-scored, and the winning schedule passing
/// the independent verifier at `Strict`; a row that errors prints the
/// error and fails the gate. Probe launches are deterministic
/// (`TimingOnly`, fixed grid seed), so the recorded numbers are exact
/// and byte-stable — `report check` holds them to the committed entry.
fn search_report(dme: &Mechanism, archs: &[GpuArch], jobs: usize) -> (Json, bool) {
    use singe::kernels::{probe_grid, probe_inputs};
    use singe::search::{depth_menu, grid_options, BeamSearch, FixedList, SearchBudget};
    use singe::verify::verify_kernel;
    use singe::Compiler;
    use std::collections::HashSet;

    const PROBE_POINTS: usize = 4096;
    let budget = SearchBudget::default();
    let n_species = dme.n_transported();
    println!(
        "== model-driven schedule search vs committed grids (dme, {} pts probe) ==",
        PROBE_POINTS
    );
    println!(
        "   budget: beam {} x {} rounds, <= {} model evals, top-{} simulated",
        budget.beam_width, budget.rounds, budget.max_model_evals, budget.sim_top_k
    );
    println!(
        "{:<10} {:<13} {:>5}/{:<5} {:>10} {:>5}/{:<5} {:>7} {:>10} {:>8} {:>24}",
        "kernel", "arch", "grid", "sims", "grid-cyc", "evals", "sims", "emitted", "search-cyc",
        "delta", "winner"
    );

    struct SearchRow {
        kernel: &'static str,
        arch: &'static str,
        grid_candidates: usize,
        grid_simulations: usize,
        grid_best_cycles: u64,
        grid_best_us: f64,
        model_evals: usize,
        kernels_emitted: usize,
        simulations: usize,
        search_best_cycles: u64,
        search_best_us: f64,
        model_cycles: u64,
        best: CompileOptions,
        win: bool,
        strictly_better: bool,
        verified_strict: bool,
    }

    // A winner's simulated probe cycles (normalized to the fixed
    // PROBE_POINTS work so schedules with different points-per-CTA compare
    // on equal terms) and probe seconds. Deterministic: fixed-seed grid,
    // TimingOnly probe.
    let inputs = probe_inputs(n_species, 1234);
    let probed = |r: &singe::SearchResult, arch: &GpuArch| -> (u64, f64) {
        let seconds = r.outcome.best_seconds;
        let grid_points = probe_grid(&r.best.kernel, PROBE_POINTS);
        let cycles_fixed_work =
            seconds * arch.sm_clock_hz() * PROBE_POINTS as f64 / grid_points as f64;
        (cycles_fixed_work.round() as u64, seconds)
    };

    let search_row = |kind: Kind, arch: &GpuArch| -> Result<SearchRow, String> {
        let base = ws_options(kind, n_species, arch);
        let dfg = dfg_for(kind, dme, base.warps);
        let tuner = Compiler::new(arch).options(base.clone()).search().jobs(jobs);

        // The committed-grid baseline: exhaustive sweep (every compiled
        // candidate simulated) over the unified grids.
        let mut grid_cands = grid_options(base.placement, &[1, 2, 4], &[1]);
        grid_cands.extend(grid_options(base.placement, &[1, 4], depth_menu(arch)));
        let mut seen = HashSet::new();
        grid_cands.retain(|c| seen.insert(format!("{c:?}")));
        let every = SearchBudget::builder().sim_top_k(grid_cands.len()).build();
        let grid = tuner
            .clone()
            .budget(every)
            .tune(&dfg, &FixedList(&grid_cands), PROBE_POINTS, &inputs)
            .map_err(|e| format!("grid sweep: {e}"))?;
        let (grid_best_cycles, grid_best_secs) = probed(&grid, arch);

        // The search: model as cost, simulation as oracle.
        let search = tuner
            .budget(budget.clone())
            .tune(&dfg, &BeamSearch, PROBE_POINTS, &inputs)
            .map_err(|e| format!("search: {e}"))?;
        let (search_best_cycles, search_best_secs) = probed(&search, arch);
        let model_cycles = gpu_sim::model::predict_cycles(&search.best.kernel, arch)
            .map_err(|e| format!("model rejects the search winner: {e}"))?;
        Ok(SearchRow {
            kernel: kind.name(),
            arch: arch.name,
            grid_candidates: grid_cands.len(),
            grid_simulations: grid.outcome.simulations,
            grid_best_cycles,
            grid_best_us: grid_best_secs * 1e6,
            model_evals: search.outcome.model_evals,
            kernels_emitted: search.kernels_emitted,
            simulations: search.outcome.simulations,
            search_best_cycles,
            search_best_us: search_best_secs * 1e6,
            model_cycles,
            win: search_best_cycles <= grid_best_cycles,
            strictly_better: search_best_cycles < grid_best_cycles,
            verified_strict: verify_kernel(&search.best.kernel, arch).is_ok(),
            best: search.outcome.best_options,
        })
    };

    let mut rows: Vec<SearchRow> = Vec::new();
    let mut failed_rows = 0usize;
    for kind in [Kind::Viscosity, Kind::Diffusion] {
        for arch in archs {
            let row = match search_row(kind, arch) {
                Ok(row) => row,
                Err(e) => {
                    println!("{} x {}: {e}", kind.name(), arch.name);
                    failed_rows += 1;
                    continue;
                }
            };
            println!(
                "{:<10} {:<13} {:>5}/{:<5} {:>10} {:>5}/{:<5} {:>7} {:>10} {:>8} {:>24}",
                row.kernel,
                row.arch,
                row.grid_candidates,
                row.grid_simulations,
                row.grid_best_cycles,
                row.model_evals,
                row.simulations,
                row.kernels_emitted,
                row.search_best_cycles,
                row.search_best_cycles as i64 - row.grid_best_cycles as i64,
                format!(
                    "{}w x{} K{} {:?}",
                    row.best.warps, row.best.point_iters, row.best.pipeline_depth,
                    row.best.placement
                ),
            );
            rows.push(row);
        }
    }

    let all_win = rows.iter().all(|r| r.win);
    let any_strict = rows.iter().any(|r| r.strictly_better);
    let budget_ok = rows.iter().all(|r| r.simulations * 4 <= r.model_evals);
    let all_verified = rows.iter().all(|r| r.verified_strict);
    let gate = failed_rows == 0 && all_win && any_strict && budget_ok && all_verified;
    println!(
        "gate: every row <= grid winner: {all_win}; strictly better somewhere: {any_strict}; \
         simulated <= 25% of scored: {budget_ok}; Strict-verified winners: {all_verified}"
    );

    // Microseconds as the table has always recorded them: three decimals.
    let us = |v: f64| -> f64 { format!("{v:.3}").parse().expect("a formatted float parses") };
    let sweep: Vec<Json> = rows
        .iter()
        .map(|r| {
            object! {
                "kernel": r.kernel,
                "arch": r.arch,
                "grid_candidates": r.grid_candidates,
                "grid_simulations": r.grid_simulations,
                "grid_best_cycles": r.grid_best_cycles,
                "grid_best_us": us(r.grid_best_us),
                "model_evals": r.model_evals,
                "kernels_emitted": r.kernels_emitted,
                "simulations": r.simulations,
                "search_best_cycles": r.search_best_cycles,
                "search_best_us": us(r.search_best_us),
                "model_cycles": r.model_cycles,
                "best_warps": r.best.warps,
                "best_iters": u64::from(r.best.point_iters),
                "best_depth": r.best.pipeline_depth,
                "best_placement": format!("{:?}", r.best.placement),
                "win": r.win,
                "strictly_better": r.strictly_better,
                "verified_strict": r.verified_strict,
            }
        })
        .collect();
    let total_evals: usize = rows.iter().map(|r| r.model_evals).sum();
    let total_sims: usize = rows.iter().map(|r| r.simulations).sum();
    let entry = object! {
        "strategy": "beam",
        "probe_points": PROBE_POINTS,
        "beam_width": budget.beam_width,
        "rounds": budget.rounds,
        "sim_top_k": budget.sim_top_k,
        "max_model_evals": budget.max_model_evals,
        "model_evals": total_evals,
        "simulations": total_sims,
        "sim_fraction": us(total_sims as f64 / total_evals.max(1) as f64),
        "all_rows_win": all_win,
        "any_strictly_better": any_strict,
        "verified_strict": all_verified,
        "win": gate,
        "rows": sweep,
    };
    (entry, gate)
}

/// Figure 3: mechanism characteristics table.
///
/// Zero JSON rows is correct here: this table describes the *input*
/// mechanisms (reaction/species counts of the benchmark suite), not a
/// measurement, and `target/report.json` carries measured figure points
/// only. The table itself lives on stdout.
fn figure3(mechs: &[&Mechanism]) -> FigOutput {
    let mut t = String::new();
    let _ = writeln!(t, "== Figure 3: chemical mechanisms ==");
    let _ = writeln!(t, "{:<10} {:>9} {:>8} {:>5} {:>6}", "Mechanism", "Reactions", "Species", "QSSA", "Stiff");
    for m in mechs {
        let c = m.characteristics();
        let _ = writeln!(
            t,
            "{:<10} {:>9} {:>8} {:>5} {:>6}",
            m.name, c.reactions, c.species, c.qssa, c.stiff
        );
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows: Vec::new(), failures: 0 }
}

/// Figure 9: naïve vs overlaid codegen over warps/CTA (DME viscosity,
/// Kepler, 64^3). The eight warp-count configurations are independent
/// compile+simulate pipelines, so they run on the pool; rendering commits
/// in warp-count order, keeping stdout byte-identical at any `jobs`.
fn fig9(dme: &Mechanism, arch: &GpuArch, jobs: usize) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== Figure 9: warp-specialized code generation (DME viscosity, {}) ==", arch.name);
    let _ = writeln!(t, "{:>6} {:>18} {:>18} {:>8}", "warps", "naive Mpts/s", "singe Mpts/s", "ratio");
    let grid = 64 * 64 * 64;
    const WARPS: [usize; 8] = [2, 4, 6, 8, 10, 12, 14, 16];
    let reports = singe::pool::run_ordered(jobs, WARPS.len(), |i| {
        let warps = WARPS[i];
        let opts = CompileOptions::builder()
            .warps(warps)
            .point_iters(4)
            .placement(singe::config::Placement::Store)
            .build();
        let naive = build_with_options(Kind::Viscosity, dme, arch, Variant::Naive, &opts);
        let singe_v =
            build_with_options(Kind::Viscosity, dme, arch, Variant::WarpSpecialized, &opts);
        match (naive, singe_v) {
            (Ok(n), Ok(s)) => Some((timing_report(&n, arch, grid), timing_report(&s, arch, grid))),
            _ => None,
        }
    });
    for (warps, rep) in WARPS.iter().zip(reports) {
        let (n_r, s_r) = match rep {
            Some(pair) => pair,
            None => {
                let _ = writeln!(t, "{warps:>6}  (configuration did not compile)");
                continue;
            }
        };
        let _ = writeln!(
            t,
            "{:>6} {:>18.2} {:>18.2} {:>8.2}",
            warps,
            n_r.points_per_sec / 1e6,
            s_r.points_per_sec / 1e6,
            s_r.points_per_sec / n_r.points_per_sec
        );
        rows.push(row("fig9", Kind::Viscosity, "dme", arch, Variant::Naive, *warps, &n_r));
        rows.push(row("fig9", Kind::Viscosity, "dme", arch, Variant::WarpSpecialized, *warps, &s_r));
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}

/// Figure 10: constant registers per thread on Kepler.
fn fig10(mechs: &[&Mechanism], arch: &GpuArch) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== Figure 10: constant registers per thread ({}) ==", arch.name);
    let _ = writeln!(t, "{:<10} {:>10} {:>10} {:>10}", "Mechanism", "Viscosity", "Diffusion", "Chemistry");
    for m in mechs {
        let mut cells = Vec::new();
        for kind in [Kind::Viscosity, Kind::Diffusion, Kind::Chemistry] {
            let b = build(kind, m, arch, Variant::WarpSpecialized);
            let regs = b.stats.as_ref().map(|s| s.const_regs_per_thread).unwrap_or(0);
            cells.push(regs);
            // Figure 10 measures a compile-time quantity, so the Row's
            // timing fields are vacuous; `x` carries the figure's value
            // (constant registers per thread).
            rows.push(Row {
                figure: "fig10".into(),
                kernel: kind.name().into(),
                mechanism: m.name.clone(),
                arch: arch.name.into(),
                variant: Variant::WarpSpecialized.name().into(),
                x: regs,
                points_per_sec: 0.0,
                gflops: 0.0,
                bandwidth_gbs: 0.0,
                spilled_bytes: 0,
                limiter: "n/a (compile-time stat)".into(),
                seconds: 0.0,
            });
        }
        let _ = writeln!(t, "{:<10} {:>10} {:>10} {:>10}", m.name, cells[0], cells[1], cells[2]);
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}

/// Figures 11-16: baseline vs warp-specialized throughput on both
/// architectures across the three grid sizes.
fn throughput_figure(
    fig: &str,
    kind: Kind,
    mech: &Mechanism,
    archs: &[GpuArch],
    jobs: usize,
) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== {}: {} performance, {} mechanism ==", fig, kind.name(), mech.name);
    // The arch×variant compilations dominate this figure; run them on the
    // pool up front (they land in the build memo), then render serially.
    singe::pool::run_ordered(jobs, archs.len() * 2, |i| {
        let variant = if i % 2 == 0 { Variant::Baseline } else { Variant::WarpSpecialized };
        build(kind, mech, &archs[i / 2], variant)
    });
    for arch in archs {
        let base = build(kind, mech, arch, Variant::Baseline);
        let ws = build(kind, mech, arch, Variant::WarpSpecialized);
        let _ = writeln!(t, "{}:", arch.name);
        let _ = writeln!(
            t,
            "  {:>6} {:>16} {:>16} {:>8}   (limiters: base={}, ws={})",
            "grid",
            "baseline Mpts/s",
            "ws Mpts/s",
            "speedup",
            timing_report(&base, arch, 32768).limiter,
            timing_report(&ws, arch, 32768).limiter,
        );
        for edge in GRIDS {
            let pts = edge * edge * edge;
            let rb = timing_report(&base, arch, pts);
            let rw = timing_report(&ws, arch, pts);
            let _ = writeln!(
                t,
                "  {:>4}^3 {:>16.3} {:>16.3} {:>7.2}x",
                edge,
                rb.points_per_sec / 1e6,
                rw.points_per_sec / 1e6,
                rw.points_per_sec / rb.points_per_sec
            );
            rows.push(row(fig, kind, &mech.name, arch, Variant::Baseline, edge, &rb));
            rows.push(row(fig, kind, &mech.name, arch, Variant::WarpSpecialized, edge, &rw));
        }
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}

/// §6.1 GFLOPS analysis, including the constants-in-registers exponential
/// ablation (the paper measured ~750 GFLOPS with it on Kepler).
fn gflops_analysis(dme: &Mechanism, archs: &[GpuArch]) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== Section 6.1: DME viscosity GFLOPS analysis ==");
    let _ = writeln!(t, "(paper: Fermi base/ws = 197.9/257.3, Kepler = 220.6/617.7, reg-exp ablation ~750)");
    let grid = 128 * 128 * 128;
    for arch in archs {
        let base = build(Kind::Viscosity, dme, arch, Variant::Baseline);
        let ws = build(Kind::Viscosity, dme, arch, Variant::WarpSpecialized);
        let rb = timing_report(&base, arch, grid);
        let rw = timing_report(&ws, arch, grid);
        // Ablation: exp-series constants kept in registers.
        let mut opts = ws_options(Kind::Viscosity, dme.n_transported(), arch);
        opts.exp_const_from_registers = true;
        let abl = build_with_options(Kind::Viscosity, dme, arch, Variant::WarpSpecialized, &opts)
            .expect("ablation compiles");
        let ra = timing_report(&abl, arch, grid);
        let _ = writeln!(
            t,
            "{:<22} baseline {:>7.1} GF | ws {:>7.1} GF | ws+reg-exp {:>7.1} GF (peak {:.0}, practical {:.0})",
            arch.name,
            rb.gflops,
            rw.gflops,
            ra.gflops,
            arch.peak_dp_gflops(),
            arch.practical_dp_gflops()
        );
        rows.push(row("s6.1", Kind::Viscosity, "dme", arch, Variant::Baseline, 128, &rb));
        rows.push(row("s6.1", Kind::Viscosity, "dme", arch, Variant::WarpSpecialized, 128, &rw));
        rows.push(row("s6.1-regexp", Kind::Viscosity, "dme", arch, Variant::WarpSpecialized, 128, &ra));
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}

/// §6.2 ablation: unsafely removing the diffusion barriers (timing only).
fn ablate_barriers(dme: &Mechanism, archs: &[GpuArch]) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== Section 6.2: diffusion barrier-overhead ablation (DME) ==");
    let _ = writeln!(t, "(paper: 212.8 -> ~250 GFLOPS on Fermi, 526.6 -> ~625 on Kepler)");
    let grid = 128 * 128 * 128;
    for arch in archs {
        let opts = ws_options(Kind::Diffusion, dme.n_transported(), arch);
        let with = build_with_options(Kind::Diffusion, dme, arch, Variant::WarpSpecialized, &opts)
            .expect("compiles");
        let mut opts2 = opts.clone();
        opts2.unsafe_remove_barriers = true;
        let without =
            build_with_options(Kind::Diffusion, dme, arch, Variant::WarpSpecialized, &opts2)
                .expect("compiles");
        let r1 = timing_report(&with, arch, grid);
        // The barrier-free kernel computes garbage; only its timing matters.
        let r2 = timing_report(&without, arch, grid);
        let _ = writeln!(
            t,
            "{:<22} with barriers {:>7.1} GF | without {:>7.1} GF ({:+.1}%)",
            arch.name,
            r1.gflops,
            r2.gflops,
            (r2.gflops / r1.gflops - 1.0) * 100.0
        );
        rows.push(row("s6.2", Kind::Diffusion, "dme", arch, Variant::WarpSpecialized, 0, &r1));
        rows.push(row("s6.2-nobar", Kind::Diffusion, "dme", arch, Variant::WarpSpecialized, 1, &r2));
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}

/// Independent schedule verification of every kernel the harness can
/// build, plus the §6.2 ablation rejection check.
///
/// Every combination also emits one summary row into
/// `target/report.json`: `x` carries the barrier ops checked,
/// `spilled_bytes` the race/violation count, and `limiter` the status
/// (`pass` / `FAIL` / `skipped` / `compile-error`) — so the verifier's
/// coverage is machine-readable instead of stdout-only. The timing fields
/// are vacuous (verification is a compile-time gate, not a measurement).
///
/// The mechanism×arch×kernel×variant combinations are independent
/// compile+verify pipelines, so they run on the pool; their text chunks
/// are committed in combination order, keeping stdout deterministic.
fn verify_all(mechs: &[&Mechanism], archs: &[GpuArch], jobs: usize) -> FigOutput {
    let mut t = String::new();
    let _ = writeln!(t, "== Schedule verification (kernel x mechanism x arch x compiler) ==");
    let mut failures = 0usize;
    let mut combos = Vec::new();
    for mech in mechs {
        for arch in archs {
            for kind in [Kind::Viscosity, Kind::Diffusion, Kind::Chemistry] {
                for variant in [Variant::Baseline, Variant::WarpSpecialized, Variant::Naive] {
                    combos.push((*mech, arch, kind, variant));
                }
            }
        }
    }
    let chunks: Vec<(String, usize, Row)> = singe::pool::run_ordered(jobs, combos.len(), |i| {
        let (mech, arch, kind, variant) = combos[i];
        let mut c = String::new();
        let mut fails = 0usize;
        let opts = ws_options(kind, mech.n_transported(), arch);
        let label = format!(
            "{:<10} {:<10} {:<12} {:<16}",
            mech.name,
            kind.name(),
            arch.name.split_whitespace().last().unwrap_or(arch.name),
            variant.name()
        );
        // (status, barrier ops checked, races/violations found)
        let (status, barriers, races) = match build_with_options(kind, mech, arch, variant, &opts)
        {
            Ok(built) => match singe::verify::verify_kernel(&built.kernel, arch) {
                Ok(r) => {
                    let _ = writeln!(
                        c,
                        "{label} ok ({} barrier ops, {} generations, {} shared accesses)",
                        r.barrier_ops, r.generations, r.shared_accesses
                    );
                    ("pass", r.barrier_ops, 0)
                }
                Err(violations) => {
                    let _ = writeln!(c, "{label} VIOLATIONS:");
                    for v in &violations {
                        let _ = writeln!(c, "    {v}");
                    }
                    fails += 1;
                    ("FAIL", 0, violations.len())
                }
            },
            Err(singe::CompileError::ResourceExhausted(m)) => {
                let _ = writeln!(c, "{label} skipped (does not fit: {m})");
                ("skipped", 0, 0)
            }
            Err(e) => {
                let _ = writeln!(c, "{label} FAILED to compile: {e}");
                fails += 1;
                ("compile-error", 0, 0)
            }
        };
        let row = Row {
            figure: "verify".into(),
            kernel: kind.name().into(),
            mechanism: mech.name.to_string(),
            arch: arch.name.into(),
            variant: variant.name().into(),
            x: barriers,
            points_per_sec: 0.0,
            gflops: 0.0,
            bandwidth_gbs: 0.0,
            spilled_bytes: races,
            limiter: status.into(),
            seconds: 0.0,
        };
        (c, fails, row)
    });
    let mut rows = Vec::new();
    for (chunk, fails, row) in chunks {
        t.push_str(&chunk);
        failures += fails;
        rows.push(row);
    }
    // The §6.2 unsafe barrier-removal ablation must be flagged under
    // VerifyLevel::Strict (Basic deliberately waives it for the timing
    // study).
    let mut opts = ws_options(Kind::Diffusion, mechs[0].n_transported(), &archs[0]);
    opts.unsafe_remove_barriers = true;
    opts.verify = singe::VerifyLevel::Strict;
    match build_with_options(Kind::Diffusion, mechs[0], &archs[0], Variant::WarpSpecialized, &opts)
    {
        Err(singe::CompileError::Verification(_)) => {
            let _ = writeln!(t, "s6.2 barrier-removal ablation: rejected by VerifyLevel::Strict (expected)");
        }
        Ok(_) => {
            let _ = writeln!(t, "s6.2 barrier-removal ablation: NOT flagged under Strict — verifier gap!");
            failures += 1;
        }
        Err(e) => {
            let _ = writeln!(t, "s6.2 barrier-removal ablation: unexpected error {e}");
            failures += 1;
        }
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures }
}

/// Stall-cycle attribution tables (`report profile`): every simulated
/// cycle of the one-CTA probe attributed to exactly one reason, for every
/// kernel × variant × architecture (paper-style baseline vs
/// warp-specialized vs naïve comparison). Validates the attribution-sum
/// invariant per warp, writes `target/profile.json`, and exports the
/// structured event stream of the diffusion kernels (the named-barrier
/// showcase) as a `chrome://tracing` / Perfetto JSON at
/// `target/profile_trace.json`. Returns the failure count.
fn profile_report(dme: &Mechanism, archs: &[GpuArch]) -> usize {
    let mut failures = 0usize;
    let mut rows: Vec<ProfileRow> = Vec::new();
    let mut traces: Vec<(String, Vec<gpu_sim::TraceEvent>)> = Vec::new();
    let trace_arch = archs[archs.len() - 1].name;
    println!("== Stall-cycle attribution ({} mechanism, one-CTA probe) ==", dme.name);
    println!(
        "{:<22} {:<10} {:<16} {:>5} {:>9} {:>7} {:>8} {:>7} {:>6} {:>6} {:>6}",
        "arch", "kernel", "variant", "warps", "cycles", "issue%", "barrier%", "icache%",
        "const%", "ovh%", "idle%"
    );
    for arch in archs {
        for kind in [Kind::Viscosity, Kind::Diffusion, Kind::Chemistry] {
            for variant in [Variant::Baseline, Variant::WarpSpecialized, Variant::Naive] {
                let opts = ws_options(kind, dme.n_transported(), arch);
                let built = match build_with_options(kind, dme, arch, variant, &opts) {
                    Ok(b) => b,
                    Err(e) => {
                        println!(
                            "{:<22} {:<10} {:<16} skipped ({e})",
                            arch.name,
                            kind.name(),
                            variant.name()
                        );
                        continue;
                    }
                };
                // Record the event stream only for diffusion on the last
                // (Kepler) arch — it exercises the named-barrier protocol
                // — so the trace file stays a few hundred KB.
                let want_trace = kind == Kind::Diffusion && arch.name == trace_arch;
                let prof = profile_built(&built, arch, want_trace);
                let r = profile_row(kind, &dme.name, arch, variant, &prof);
                if !r.attribution_ok {
                    println!(
                        "ATTRIBUTION MISMATCH: {} {} {} (per-warp reasons do not sum to total)",
                        r.arch, r.kernel, r.variant
                    );
                    failures += 1;
                }
                // Reasons are summed over warps; every warp's timeline is
                // `total_cycles` long, so the CTA denominator is their
                // product.
                let denom = (r.total_cycles.max(1) * r.warps.max(1) as u64) as f64 / 100.0;
                println!(
                    "{:<22} {:<10} {:<16} {:>5} {:>9} {:>6.1}% {:>7.1}% {:>6.1}% {:>5.1}% {:>5.1}% {:>5.1}%",
                    r.arch,
                    r.kernel,
                    r.variant,
                    r.warps,
                    r.total_cycles,
                    r.issue as f64 / denom,
                    r.barrier_wait as f64 / denom,
                    r.icache_miss as f64 / denom,
                    r.const_replay as f64 / denom,
                    r.overhead as f64 / denom,
                    r.idle as f64 / denom,
                );
                if want_trace {
                    traces.push((
                        format!("{}/{}", kind.name(), variant.name()),
                        prof.events.clone(),
                    ));
                }
                rows.push(r);
            }
        }
    }
    println!();
    std::fs::create_dir_all("target").ok();
    let profile = Json::Array(rows.iter().map(ProfileRow::to_json).collect());
    std::fs::write("target/profile.json", profile.document()).expect("write profile.json");
    let groups: Vec<(&str, &[gpu_sim::TraceEvent])> =
        traces.iter().map(|(n, e)| (n.as_str(), e.as_slice())).collect();
    std::fs::write("target/profile_trace.json", gpu_sim::chrome_trace_json(&groups))
        .expect("write profile_trace.json");
    eprintln!(
        "[wrote {} rows to target/profile.json, {} trace group(s) to target/profile_trace.json]",
        rows.len(),
        groups.len()
    );
    failures
}

/// Model accuracy table (`report model`): the static analytical
/// performance model's predicted seconds and CTA cycles next to the
/// simulator's measurements, for every kernel × variant × architecture.
/// Writes `target/model.json` (summary + rows) and returns whether the
/// accuracy gate passed: Spearman rank correlation between predicted and
/// simulated seconds ≥ [`MODEL_GATE_SPEARMAN`] and every ratio within
/// [`MODEL_GATE_RATIO`]x of 1.
fn model_report(dme: &Mechanism, archs: &[GpuArch]) -> bool {
    let grid = 64 * 64 * 64;
    let mut rows: Vec<ModelRow> = Vec::new();
    println!("== Model accuracy: analytical prediction vs simulation ({}, 64^3) ==", dme.name);
    println!(
        "{:<22} {:<10} {:<16} {:>5} {:>12} {:>12} {:>7} {:>10} {:>10}",
        "arch", "kernel", "variant", "warps", "pred s", "sim s", "ratio", "pred cyc", "prof cyc"
    );
    for arch in archs {
        for kind in [Kind::Viscosity, Kind::Diffusion, Kind::Chemistry] {
            for variant in [Variant::Baseline, Variant::WarpSpecialized, Variant::Naive] {
                let opts = ws_options(kind, dme.n_transported(), arch);
                let built = match build_with_options(kind, dme, arch, variant, &opts) {
                    Ok(b) => b,
                    Err(e) => {
                        println!(
                            "{:<22} {:<10} {:<16} skipped ({e})",
                            arch.name,
                            kind.name(),
                            variant.name()
                        );
                        continue;
                    }
                };
                let predicted = predict_built(&built, arch, grid);
                let simulated = timing_report(&built, arch, grid);
                let profiled = profile_built(&built, arch, false);
                let r = ModelRow {
                    kernel: kind.name().into(),
                    mechanism: dme.name.clone(),
                    arch: arch.name.into(),
                    variant: variant.name().into(),
                    warps: built.kernel.warps_per_cta,
                    grid_points: grid,
                    predicted_seconds: predicted.seconds(),
                    simulated_seconds: simulated.seconds,
                    ratio: predicted.seconds() / simulated.seconds,
                    predicted_cycles: predicted.profile.cta.total_cycles,
                    profiled_cycles: profiled.total_cycles,
                };
                println!(
                    "{:<22} {:<10} {:<16} {:>5} {:>12.4e} {:>12.4e} {:>7.3} {:>10} {:>10}",
                    r.arch,
                    r.kernel,
                    r.variant,
                    r.warps,
                    r.predicted_seconds,
                    r.simulated_seconds,
                    r.ratio,
                    r.predicted_cycles,
                    r.profiled_cycles,
                );
                rows.push(r);
            }
        }
    }
    let preds: Vec<f64> = rows.iter().map(|r| r.predicted_seconds).collect();
    let sims: Vec<f64> = rows.iter().map(|r| r.simulated_seconds).collect();
    let rho = spearman(&preds, &sims);
    println!("\nSpearman(predicted, simulated) over {} rows: {rho:.4}", rows.len());
    let report = model_report_json(&rows);
    let gate_ok = report.get("summary").and_then(|s| s.get("gate_ok")) == Some(&Json::Bool(true));
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/model.json", report.document()).expect("write model.json");
    eprintln!("[wrote {} rows to target/model.json, gate_ok={gate_ok}]", rows.len());
    gate_ok
}

/// §6.3: chemistry spill and bandwidth analysis (heptane).
fn spills(heptane: &Mechanism, archs: &[GpuArch]) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== Section 6.3: heptane chemistry working-set analysis ==");
    let _ = writeln!(t, "(paper: baseline spills 8736/8500 B per thread; ws spills 276/44 B;");
    let _ = writeln!(t, " baseline is local-bandwidth bound at 85/100 GB/s, ws shared-latency bound)");
    let grid = 64 * 64 * 64;
    for arch in archs {
        let base = build(Kind::Chemistry, heptane, arch, Variant::Baseline);
        let ws = build(Kind::Chemistry, heptane, arch, Variant::WarpSpecialized);
        let rb = timing_report(&base, arch, grid);
        let rw = timing_report(&ws, arch, grid);
        let _ = writeln!(
            t,
            "{:<22} baseline: {:>6} B spilled, {:>6.1} GB/s, limiter {:<16} | ws: {:>4} B spilled, limiter {}",
            arch.name,
            rb.spilled_bytes_per_thread,
            rb.bandwidth_gbs,
            rb.limiter,
            rw.spilled_bytes_per_thread,
            rw.limiter
        );
        rows.push(row("s6.3", Kind::Chemistry, &heptane.name, arch, Variant::Baseline, 64, &rb));
        rows.push(row("s6.3", Kind::Chemistry, &heptane.name, arch, Variant::WarpSpecialized, 64, &rw));
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}
