//! A kernel's identity is paid for once: one encode-and-hash and one
//! flatten per new kernel on the compile → verify → score path, read off
//! `gpu_sim::flatcache`'s process-wide counters.
//!
//! One test, so one process and one thread: the counters it reads move
//! only by what it does.

use chemkin::reference::tables::ViscosityTables;
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::flatcache::{identity_counts, IdentityCounts};
use singe::kernels::viscosity::viscosity_dfg;
use singe::kernels::{probe_grid, probe_inputs};
use singe::search::{BeamSearch, SearchBudget};
use singe::{perfmodel, Compiler, Variant};
use singe_serve::{default_options, KernelId};

/// (fingerprints, flatten hits, flatten misses) spent by `work`.
fn spent<T>(work: impl FnOnce() -> T) -> (T, (u64, u64, u64)) {
    let IdentityCounts { fingerprints: f0, flatten_hits: h0, flatten_misses: m0 } =
        identity_counts();
    let out = work();
    let now = identity_counts();
    (out, (now.fingerprints - f0, now.flatten_hits - h0, now.flatten_misses - m0))
}

#[test]
fn a_new_kernel_is_hashed_once_and_flattened_once() {
    let arch = GpuArch::kepler_k20c();
    let mech = synth::dme();
    let base = default_options(KernelId::Viscosity, mech.n_transported(), &arch);
    let dfg = viscosity_dfg(&ViscosityTables::build(&mech), base.warps);
    let compiler = Compiler::new(&arch).options(base.clone());

    // Compile a kernel the process has not seen and score it as the tuner
    // does, over the flattening the compile hands on.
    let (_, cost) = spent(|| {
        let c = compiler.compile(&dfg, Variant::WarpSpecialized).expect("compiles");
        let grid = probe_grid(&c.kernel, 4096);
        perfmodel::predict_flat(&c.kernel, &c.flat(), &arch, grid).expect("scores")
    });
    assert_eq!(cost, (1, 0, 1), "new kernel, compiled and scored");

    // The same options again: the kernel is hashed to be recognised, and
    // everything known about it is reused.
    let (_, cost) = spent(|| compiler.compile(&dfg, Variant::WarpSpecialized).expect("compiles"));
    assert_eq!(cost, (1, 1, 0), "known kernel, compiled again");

    // Another new kernel through the public pair that has only the
    // `&Kernel` to score: one more hash to find the flattening, no second
    // flatten. (It was three hashes.)
    let (_, cost) = spent(|| {
        let mut opts = base.clone();
        opts.point_iters = 2;
        let c = Compiler::new(&arch).options(opts).compile(&dfg, Variant::WarpSpecialized);
        let kernel = c.expect("compiles").kernel;
        perfmodel::predict_seconds(&kernel, &arch, probe_grid(&kernel, 4096)).expect("scores")
    });
    assert_eq!(cost, (2, 1, 1), "new kernel, compiled and scored from the kernel alone");

    // A whole default-budget search row: one hash and one flatten per
    // distinct plan the row's candidates came to — a third of those that
    // compile, at most — plus a hash for each recompile: the survivors and
    // the winner.
    let budget = SearchBudget::default();
    let inputs = probe_inputs(mech.n_transported(), 1);
    let (found, (fingerprints, _, misses)) = spent(|| {
        let tuner = compiler.search().budget(budget.clone()).jobs(1);
        tuner.tune(&dfg, &BeamSearch, 4096, &inputs).expect("tunes")
    });
    let outcome = &found.outcome;
    let compiled = outcome.points.iter().filter(|p| p.predicted_seconds.is_some()).count() as u64;
    let emitted = found.kernels_emitted as u64;
    assert!(compiled > 100, "the row compiles most of its {} candidates", outcome.model_evals);
    assert!(emitted * 3 <= compiled, "{emitted} kernels emitted for {compiled} compiled candidates");
    assert!(
        fingerprints <= emitted + budget.sim_top_k as u64 + 1,
        "{fingerprints} fingerprints for {emitted} emitted kernels"
    );
    assert!(misses <= emitted, "{misses} flattens for {emitted} emitted kernels");
}
