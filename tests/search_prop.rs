//! Schedule-search property battery ([`singe::search`]).
//!
//! Three property families, all on small synthetic mechanisms so the
//! full space stays enumerable:
//!
//! * **Exhaustive equivalence**: beam search with a full-width beam and
//!   a full simulation budget must land on exactly the exhaustive
//!   sweep's winner (bit-identical simulated seconds) over the same
//!   enumerated space — the beam is a pruning of the sweep, never a
//!   different optimum.
//! * **Determinism**: tuning results (winner, every predicted and
//!   simulated value, evaluation order) are bit-stable across `--jobs 1`
//!   vs `--jobs 8`, under either explorer.
//! * **Safety**: every schedule the search returns — the winner and
//!   every oracle-simulated survivor — passes the independent PR 1
//!   verifier at `Strict`.

use chemkin::reference::tables::ViscosityTables;
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use singe::config::{CompileOptions, Placement};
use singe::kernels::probe_inputs;
use singe::kernels::viscosity::viscosity_dfg;
use singe::search::{
    grid_options, BeamSearch, FixedList, ScheduleSearch, SearchBudget, SearchSpace,
};
use singe::verify::verify_kernel;
use singe::{Compiler, VerifyLevel};

fn synth_mech(n_species: usize, seed: u64) -> chemkin::Mechanism {
    synth::via_text(&synth::SynthConfig {
        name: format!("sp{n_species}_{seed}"),
        n_species,
        n_reactions: n_species * 2,
        n_qssa: 0,
        n_stiff: 0,
        seed,
    })
}

/// A small space whose exhaustive enumeration stays cheap: two warp
/// counts, two stream depths, one placement, the uniform-reads toggle.
fn small_space(arch: &GpuArch) -> SearchSpace {
    let mut space = SearchSpace::for_arch(arch);
    space.warps = vec![3, 4];
    space.point_iters = vec![1, 2];
    space.placements = vec![Placement::Store];
    space.pipeline_depths = vec![1, 2];
    space.w_flops = vec![1.0];
    space.w_regs = vec![0.5];
    space.w_locality = vec![0.25];
    space.toggle_uniform_shared_reads = true;
    space.toggle_exp_const = false;
    space
}

#[test]
fn full_width_beam_matches_the_exhaustive_sweep() {
    let mech = synth_mech(6, 41);
    let t = ViscosityTables::build(&mech);
    let dfg = viscosity_dfg(&t, 3);
    let arch = GpuArch::kepler_k20c();
    let space = small_space(&arch);
    // On-lattice base: off-lattice bases are legal (the search admits
    // them as extra seeds), but the equality property wants the beam's
    // reachable set to be exactly the enumerated space.
    let base = CompileOptions::builder().warps(3).point_iters(2).build();
    let inputs = probe_inputs(6, 1234);

    // The exhaustive sweep over the whole enumerated space: every
    // candidate compiled and simulated.
    let all = space.enumerate(&base);
    assert!(all.len() >= 8 && all.len() <= 32, "space should be small, got {}", all.len());
    let tuner = Compiler::new(&arch).options(base).search().space(space).jobs(2);
    let every = SearchBudget::builder().sim_top_k(all.len()).build();
    let sweep = tuner
        .clone()
        .budget(every)
        .tune(&dfg, &FixedList(&all), 256, &inputs)
        .expect("sweep runs")
        .outcome;
    let sweep_best =
        sweep.points.iter().filter_map(|p| p.simulated_seconds).fold(f64::INFINITY, f64::min);

    // Full-width beam, full simulation budget: the beam prunes nothing,
    // so its oracle must see (at least) every candidate the sweep ran.
    let budget = SearchBudget::builder()
        .beam_width(all.len())
        .rounds(8)
        .sim_top_k(all.len())
        .max_model_evals(10 * all.len())
        .build();
    let search = tuner.budget(budget).tune(&dfg, &BeamSearch, 256, &inputs).expect("search runs");
    assert_eq!(
        search.outcome.best_seconds.to_bits(),
        sweep_best.to_bits(),
        "full-width beam winner {} != exhaustive winner {}",
        search.outcome.best_seconds,
        sweep_best
    );
    // And the beam reached the whole space.
    assert_eq!(search.outcome.model_evals, all.len());
}

#[test]
fn search_is_bit_stable_across_worker_counts() {
    let mech = synth_mech(6, 42);
    let t = ViscosityTables::build(&mech);
    let dfg = viscosity_dfg(&t, 3);
    let arch = GpuArch::kepler_k20c();
    let base = CompileOptions::with_warps(3);
    let budget =
        SearchBudget::builder().beam_width(4).rounds(2).sim_top_k(3).max_model_evals(72).build();
    let inputs = probe_inputs(6, 1234);
    let tuner = Compiler::new(&arch).options(base).search().budget(budget);

    // The guided sweep (top-3 of the committed 16-point grid) and the beam.
    let grid = grid_options(Placement::Store, &[1, 4], &[1]);
    for explorer in [&FixedList(&grid) as &dyn ScheduleSearch, &BeamSearch] {
        let run = |jobs| tuner.clone().jobs(jobs).tune(&dfg, explorer, 256, &inputs);
        let a = run(1).expect("jobs=1").outcome;
        let b = run(8).expect("jobs=8").outcome;

        assert_eq!(format!("{:?}", a.best_options), format!("{:?}", b.best_options));
        assert_eq!(a.best_seconds.to_bits(), b.best_seconds.to_bits());
        assert_eq!(a.model_evals, b.model_evals);
        assert_eq!(a.simulations, b.simulations);
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(format!("{:?}", pa.options), format!("{:?}", pb.options));
            assert_eq!(
                pa.predicted_seconds.map(f64::to_bits),
                pb.predicted_seconds.map(f64::to_bits)
            );
            assert_eq!(
                pa.simulated_seconds.map(f64::to_bits),
                pb.simulated_seconds.map(f64::to_bits)
            );
            assert_eq!(pa.failure, pb.failure);
            assert_eq!(pa.round, pb.round);
        }
    }
}

#[test]
fn every_returned_schedule_passes_strict_verification() {
    let mech = synth_mech(8, 43);
    let t = ViscosityTables::build(&mech);
    let dfg = viscosity_dfg(&t, 4);
    let inputs = probe_inputs(8, 1234);
    for arch in [GpuArch::kepler_k20c(), GpuArch::hopper()] {
        let base = CompileOptions::with_warps(4);
        let budget = SearchBudget::builder()
            .beam_width(4)
            .rounds(2)
            .sim_top_k(4)
            .max_model_evals(64)
            .build();
        let tuner = Compiler::new(&arch).options(base).search().budget(budget).jobs(2);
        let search = tuner.tune(&dfg, &BeamSearch, 256, &inputs).expect("search runs");
        // The winner passes the independent verifier...
        assert!(
            verify_kernel(&search.best.kernel, &arch).is_ok(),
            "winner fails Strict verification on {}",
            arch.name
        );
        // ...and so does every oracle-simulated survivor, recompiled
        // with Strict enforcement turned on in the compiler itself.
        let compiler = Compiler::new(&arch);
        for p in search.outcome.points.iter().filter(|p| p.simulated_seconds.is_some()) {
            let mut opts = p.options.clone();
            opts.verify = VerifyLevel::Strict;
            let c = compiler
                .clone()
                .options(opts)
                .compile(&dfg, singe::Variant::WarpSpecialized)
                .expect("simulated survivor recompiles under Strict");
            assert!(verify_kernel(&c.kernel, &arch).is_ok());
        }
    }
}
