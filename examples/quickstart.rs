//! Quickstart: parse a mechanism, compile the viscosity kernel both ways,
//! run them on the simulated Kepler GPU, and check against the CPU
//! reference.
//!
//! Run with: `cargo run --release --example quickstart`

use chemkin::reference::tables::ViscosityTables;
use chemkin::reference::reference_viscosity;
use chemkin::state::{GridDims, GridState};
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
use singe::config::CompileOptions;
use singe::{Compiler, Variant};
use singe::kernels::viscosity::{viscosity_dfg, ARR_OUT};
use singe::kernels::launch_arrays;

fn main() {
    // 1. Get a mechanism. `synth::dme()` generates the paper's DME-sized
    //    mechanism (175 reactions, 39 species) as CHEMKIN text and parses
    //    it back — the same path a real mechanism file would take.
    let mech = synth::dme();
    println!(
        "mechanism '{}': {} reactions, {} species ({} transported after QSSA)",
        mech.name,
        mech.n_reactions(),
        mech.n_species(),
        mech.n_transported()
    );

    // 2. Build the viscosity dataflow graph and compile it twice.
    let tables = ViscosityTables::build(&mech);
    let arch = GpuArch::kepler_k20c();
    let opts = CompileOptions::builder().warps(10).point_iters(4).build();
    let dfg = viscosity_dfg(&tables, opts.warps);

    let ws = Compiler::new(&arch)
        .options(opts)
        .compile(&dfg, Variant::WarpSpecialized)
        .expect("warp-specialized compile");
    let base = Compiler::new(&arch)
        .options(CompileOptions::with_warps(8))
        .compile(&dfg, Variant::Baseline)
        .expect("baseline compile");
    println!(
        "warp-specialized: {} warps/CTA, {} regs32/thread, {} shared bytes, {} named barriers, {} constant regs",
        ws.kernel.warps_per_cta,
        ws.kernel.regs32_per_thread(),
        ws.kernel.shared_bytes(),
        ws.kernel.barriers_used,
        ws.stats.const_regs_per_thread,
    );
    println!(
        "baseline: {} regs32/thread, {} bytes spilled/thread, {} KB of constants",
        base.kernel.regs32_per_thread(),
        base.kernel.spilled_bytes_per_thread,
        base.kernel.total_dconstants() * 8 / 1024,
    );

    // 3. Run on a small grid and compare against the CPU reference.
    let points = ws.kernel.points_per_cta * 8;
    let grid = GridState::random(GridDims { nx: points, ny: 1, nz: 1 }, tables.n, 42);
    let expect = reference_viscosity(&tables, &grid);

    for (name, kernel) in [("warp-specialized", &ws.kernel), ("baseline", &base.kernel)] {
        let pts = singe::kernels::probe_grid(kernel, points);
        let g = GridState::random(GridDims { nx: pts, ny: 1, nz: 1 }, tables.n, 42);
        let arrays = launch_arrays(&kernel.global_arrays, &g).expect("known arrays");
        let out = launch(kernel, &arch, &LaunchInputs { arrays }, pts, LaunchMode::Full)
            .expect("launch");
        let max_rel = (0..points)
            .map(|p| ((out.outputs[ARR_OUT as usize][p] - expect[p]) / expect[p]).abs())
            .fold(0.0f64, f64::max);
        println!(
            "{name}: max relative error vs CPU reference = {max_rel:.2e} | simulated {:.2} Mpoints/s ({})",
            out.report.points_per_sec / 1e6,
            out.report.limiter
        );
        assert!(max_rel < 1e-10, "kernel must match the reference");
    }
    println!("both kernels match the CPU reference.");
}
