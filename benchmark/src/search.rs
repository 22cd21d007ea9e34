//! Stage `search`: the model-driven schedule search on two rows.
//!
//! Each row makes 160 compile + model evaluations and simulates only five
//! candidates, so `singe::perfmodel`/`gpu_sim::model` and `singe::codegen`
//! dominate and engine execution is negligible: the one stage where model
//! cost shows. The winners' simulated time is the schedule-quality metric.
//!
//! - row A: canonical DME viscosity on Kepler;
//! - row B: diffusion of the seed's held-out DME-shaped mechanism on Hopper.

use std::time::Instant;

use chemkin::{synth, Mechanism};
use gpu_sim::isa::Kernel;
use gpu_sim::launch::{launch_with_config, LaunchConfig, LaunchInputs, LaunchMode};
use singe::kernels::launch_arrays;
use singe::search::{
    autotune_search_with_jobs, run_search, BeamSearch, SearchBudget, SearchOutcome, SearchSpace,
};
use singe::{CompileOptions, Compiler, Variant};
use singe_serve::{ArchId, KernelId};

use crate::check;
use crate::gen::{self, Rng};
use crate::pass::{PassCfg, Rec};
use crate::stats::geomean;
use crate::trace::Tracer;

/// Seconds per row; `search_wall_s` is their sum, each taken from the
/// replica that searched it fastest.
pub const ROWS: &str = "search.row_s";

/// Grid size candidates are ranked at, as in `report search-bench`.
const PROBE_POINTS: usize = 4096;

struct Row {
    name: &'static str,
    mech: Mechanism,
    kernel: KernelId,
    arch: ArchId,
}

/// What a row's search produced, traced or not.
struct Found {
    best_kernel: Kernel,
    outcome: SearchOutcome,
}

/// The search as `autotune_search_with_jobs` runs it, rebuilt from
/// `run_search` and the public compiler so that compiles, model
/// evaluations and simulations are timed apart. Same candidates, same
/// order, same winner.
fn traced_search(
    dfg: &singe::Dfg,
    row: &Row,
    base: &CompileOptions,
    budget: &SearchBudget,
    inputs_for: &dyn Fn(&Kernel, usize) -> Vec<Vec<f64>>,
    tr: &mut Tracer,
) -> Result<Found, String> {
    let arch = row.arch.arch();
    let grid_for = |k: &Kernel| PROBE_POINTS.div_ceil(k.points_per_cta) * k.points_per_cta;
    // Both closures record into the one tracer; `run_search` calls them in
    // turn, never nested.
    let tr = std::cell::RefCell::new(tr);
    let n = std::cell::Cell::new(0usize);
    let build = |opts: &CompileOptions, op: &str| {
        let s = tr.borrow_mut().begin("singe.search.compile_ms", op);
        let c = Compiler::new(&arch)
            .options(opts.clone())
            .compile(dfg, Variant::WarpSpecialized);
        tr.borrow_mut().end(s);
        c
    };
    let mut score = |cands: &[CompileOptions]| -> Vec<f64> {
        cands
            .iter()
            .map(|opts| {
                n.set(n.get() + 1);
                let op = format!("{} candidate {}", row.name, n.get());
                let Ok(c) = build(opts, &op) else {
                    return f64::INFINITY;
                };
                let s = tr.borrow_mut().begin("singe.search.model_ms", &op);
                let predicted =
                    singe::perfmodel::predict_seconds(&c.kernel, &arch, grid_for(&c.kernel));
                tr.borrow_mut().end(s);
                predicted.unwrap_or(f64::INFINITY)
            })
            .collect()
    };
    let mut simulate = |cands: &[CompileOptions]| -> Vec<Result<f64, String>> {
        cands
            .iter()
            .enumerate()
            .map(|(i, opts)| {
                let op = format!("{} survivor {i}", row.name);
                let c = build(opts, &op).map_err(|e| e.to_string())?;
                let grid = grid_for(&c.kernel);
                let owned = inputs_for(&c.kernel, grid);
                let arrays: Vec<&[f64]> = owned.iter().map(Vec::as_slice).collect();
                let s = tr.borrow_mut().begin("singe.search.simulate_ms", &op);
                let out = launch_with_config(
                    &c.kernel,
                    &arch,
                    &LaunchInputs { arrays },
                    grid,
                    LaunchConfig {
                        mode: LaunchMode::TimingOnly,
                        profile: false,
                        trace_events: false,
                        jobs: 1,
                    },
                );
                tr.borrow_mut().end(s);
                out.map(|o| o.report.seconds).map_err(|e| e.to_string())
            })
            .collect()
    };
    let outcome = run_search(
        &BeamSearch,
        &SearchSpace::for_arch(&arch),
        base,
        budget,
        &mut score,
        &mut simulate,
    )
    .map_err(|e| e.to_string())?;
    // The untraced entry point compiles the winner once more.
    let best =
        build(&outcome.best_options, &format!("{} winner", row.name)).map_err(|e| e.to_string())?;
    Ok(Found {
        best_kernel: best.kernel,
        outcome,
    })
}

pub fn pass(cfg: &PassCfg, rec: &mut Rec) {
    // Set-up: the two mechanisms and their dataflow graphs; the graph is
    // the search's input.
    let heldout = synth::via_text(&gen::heldout_config(cfg.seed));
    let rows = [
        Row {
            name: "A",
            mech: synth::dme(),
            kernel: KernelId::Viscosity,
            arch: ArchId::Kepler,
        },
        Row {
            name: "B",
            mech: heldout,
            kernel: KernelId::Diffusion,
            arch: ArchId::Hopper,
        },
    ];
    let budget = if cfg.smoke {
        SearchBudget::builder()
            .beam_width(2)
            .rounds(1)
            .sim_top_k(2)
            .max_model_evals(6)
            .build()
    } else {
        SearchBudget::default()
    };
    let probe_seed = Rng::new(cfg.seed, "search-probe").next_u64();
    let mut off = Tracer::new(false);
    let prepared: Vec<(&Row, CompileOptions, singe::Dfg)> = rows
        .iter()
        .map(|row| {
            let base = singe_serve::default_options(
                row.kernel,
                row.mech.n_transported(),
                &row.arch.arch(),
            );
            let dfg = check::build_dfg(row.kernel, &row.mech, base.warps, &mut off, "");
            (row, base, dfg)
        })
        .collect();

    rec.start_timed();
    let root = rec.tr.begin("singe.search.self_ms", "");
    let mut found = Vec::new();
    for (row, base, dfg) in &prepared {
        let n = row.mech.n_transported();
        let inputs_for = |kernel: &Kernel, grid: usize| -> Vec<Vec<f64>> {
            let g = check::grid(grid, n, probe_seed);
            launch_arrays(&kernel.global_arrays, &g)
                .map(|arrays| arrays.into_iter().map(<[f64]>::to_vec).collect())
                .unwrap_or_default()
        };
        let t = Instant::now();
        let r = if cfg.trace {
            traced_search(dfg, row, base, &budget, &inputs_for, &mut rec.tr)
        } else {
            autotune_search_with_jobs(
                dfg,
                &row.arch.arch(),
                base,
                &budget,
                PROBE_POINTS,
                &inputs_for,
                1,
            )
            .map(|r| Found {
                best_kernel: r.best.kernel,
                outcome: r.outcome,
            })
            .map_err(|e| e.to_string())
        };
        rec.sample(ROWS, t.elapsed().as_secs_f64());
        found.push((*row, r));
    }
    rec.tr.end(root);

    let mut outcomes = Vec::new();
    for (row, r) in found {
        // Outside the timed region: the winner must pass the verifier.
        let verdict = r.and_then(|f| {
            singe::verify::verify_kernel(&f.best_kernel, &row.arch.arch())
                .map(|_| f.outcome)
                .map_err(|v| format!("winner fails verification with {} violations", v.len()))
        });
        match verdict {
            Ok(outcome) => {
                rec.op(&format!("search row {}", row.name), Ok(()));
                outcomes.push(outcome);
            }
            Err(e) => rec.op(&format!("search row {}", row.name), Err(e)),
        }
    }
    if outcomes.len() != rows.len() {
        return;
    }
    let best_us: Vec<f64> = outcomes.iter().map(|o| o.best_seconds * 1e6).collect();
    rec.exact("search_best_us_geomean", geomean(&best_us));
    let total = |f: fn(&SearchOutcome) -> usize| outcomes.iter().map(f).sum::<usize>() as f64;
    let (evals, sims) = (total(|o| o.model_evals), total(|o| o.simulations));
    rec.exact("singe.search.model_evals", evals);
    rec.exact("singe.search.simulations", sims);
    rec.exact("singe.search.sim_fraction", sims / evals.max(1.0));
    rec.exact(
        "singe.search.compile_failures",
        total(|o| {
            o.points
                .iter()
                .filter(|p| p.predicted_seconds.is_none())
                .count()
        }),
    );
    // Where the model had ranked the candidate that simulation then chose
    // (1 = its first pick); the worse of the two rows.
    let rank = |o: &SearchOutcome| {
        let winner = o.best_predicted_seconds.unwrap_or(f64::INFINITY);
        1 + o
            .points
            .iter()
            .filter(|p| p.predicted_seconds.is_some_and(|s| s < winner))
            .count()
    };
    rec.exact(
        "singe.search.winner_model_rank",
        outcomes.iter().map(rank).max().unwrap_or(0) as f64,
    );
}
