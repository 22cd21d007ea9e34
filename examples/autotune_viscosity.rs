//! Drive the tuner (paper §4) over the viscosity kernel at both ends of
//! its `sim_top_k` dial: the brute-force exhaustive sweep simulates every
//! candidate, and the model-guided sweep ranks every candidate with the
//! static analytical performance model first and only simulates the
//! top-K predictions.
//!
//! Run with: `cargo run --release --example autotune_viscosity`
//!
//! Pass `--search` to run the model-driven beam search instead: it
//! explores the full schedule space (warps x iters x placement x
//! pipeline depth x partition weights x flags), scoring every candidate
//! with the static model and simulating only the top-K survivors, and
//! prints the beam trajectory round by round.

use chemkin::reference::tables::ViscosityTables;
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use singe::config::{CompileOptions, Placement};
use singe::kernels::probe_inputs;
use singe::kernels::viscosity::viscosity_dfg;
use singe::search::{grid_options, BeamSearch, FixedList, SearchBudget};
use singe::Compiler;

/// `--search` mode: beam search over the full schedule space, with the
/// per-round trajectory (best model prediction vs best oracle time).
fn search_mode(t: &ViscosityTables, arch: &GpuArch) {
    let base = CompileOptions::with_warps(4);
    let dfg = viscosity_dfg(t, base.warps);
    let budget = SearchBudget::default();
    println!(
        "beam search: width {}, {} rounds, top-{} simulated, <= {} model evals",
        budget.beam_width, budget.rounds, budget.sim_top_k, budget.max_model_evals
    );
    let search = Compiler::new(arch)
        .options(base)
        .search()
        .tune(&dfg, &BeamSearch, 4096, &probe_inputs(t.n, 7))
        .expect("search runs");
    let o = &search.outcome;

    println!("\n{:>6} {:>10} {:>18} {:>18}", "round", "scored", "best model us", "best sim us");
    for r in &o.rounds {
        let pred = r.best_predicted.map_or("-".into(), |s| format!("{:.1}", s * 1e6));
        let sim = r.best_simulated.map_or("-".into(), |s| format!("{:.1}", s * 1e6));
        println!("{:>6} {:>10} {:>18} {:>18}", r.round, r.evaluated, pred, sim);
    }
    println!(
        "\nscored {} candidates, simulated {} ({:.0}%)",
        o.model_evals,
        o.simulations,
        100.0 * o.sim_fraction()
    );
    let b = &o.best_options;
    println!(
        "best: {} warps, {} point iterations, depth {}, {:?} placement -> {:.1} us / 4096pt",
        b.warps,
        b.point_iters,
        b.pipeline_depth,
        b.placement,
        o.best_seconds * 1e6
    );
}

fn main() {
    let mech = synth::dme();
    let t = ViscosityTables::build(&mech);
    let arch = GpuArch::kepler_k20c();
    if std::env::args().any(|a| a == "--search") {
        println!(
            "schedule search: viscosity for '{}' ({} species) on {}",
            mech.name, t.n, arch.name
        );
        search_mode(&t, &arch);
        return;
    }
    println!(
        "autotuning viscosity for '{}' ({} species) on {}",
        mech.name, t.n, arch.name
    );

    // The paper: "the search space for Singe was never more than a few
    // hundred points because warp-specialized decisions dealt with very
    // coarse-grained properties such as the number of target warps."
    let candidates = grid_options(Placement::Store, &[1, 2, 4], &[1]);
    println!("{} candidate configurations", candidates.len());

    // One DFG per warp count (the partitioning is warp-count-dependent —
    // the §4 stage-1 input includes the target warp count). Each
    // candidate is both simulated and predicted by the static model, so
    // the table doubles as a model-accuracy readout.
    let tuner = Compiler::new(&arch).search();
    let inputs = probe_inputs(t.n, 7);
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for cand in &candidates {
        let dfg = viscosity_dfg(&t, cand.warps);
        match tuner.tune(&dfg, &FixedList(std::slice::from_ref(cand)), 4096, &inputs) {
            Ok(r) => {
                let o = r.outcome;
                let predicted = o.best_predicted_seconds.expect("winners are model-scored");
                results.push((cand.clone(), o.best_seconds, predicted));
            }
            // A lone candidate that fails is the sweep's error.
            Err(e) => failures.push((cand.clone(), e.to_string())),
        }
    }
    results.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

    println!(
        "\n{:>6} {:>6} {:>16} {:>16}",
        "warps", "iters", "sim us / 4096pt", "model us"
    );
    for (opts, sec, pred) in results.iter().take(8) {
        let (warps, iters) = (opts.warps, opts.point_iters);
        println!("{warps:>6} {iters:>6} {:>16.1} {:>16.1}", sec * 1e6, pred * 1e6);
    }
    if !failures.is_empty() {
        println!("\n{} candidate(s) failed:", failures.len());
        for (opts, why) in &failures {
            println!("{:>6} {:>6}   {}", opts.warps, opts.point_iters, why);
        }
    }
    let best = &results[0].0;
    println!("\nexhaustive best: {} warps, {} point iterations", best.warps, best.point_iters);

    // Model-guided mode over a single fixed DFG parameterization: rank
    // all candidates with the static model, simulate only the top-K.
    let dfg = viscosity_dfg(&t, 2);
    let guided = tuner
        .tune(&dfg, &FixedList(&candidates), 4096, &inputs)
        .expect("guided sweep runs")
        .outcome;
    println!(
        "\nmodel-guided (top-{}): simulated {}/{} candidates, \
         best {} warps, {} point iterations",
        SearchBudget::default().sim_top_k,
        guided.simulations,
        candidates.len(),
        guided.best_options.warps,
        guided.best_options.point_iters
    );
    println!(
        "(the Figure 9 peak structure favors warp counts dividing the {} species — \
         larger counts can still win by raising occupancy)",
        t.n
    );
}
