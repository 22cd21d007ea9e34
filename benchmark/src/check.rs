//! Correctness gates shared by the stages: a launch's outputs against the
//! CPU reference, and the dataflow graph a (mechanism, kernel) pair
//! compiles from. The reference never comes from the compiler under test.

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::reference::{reference_chemistry, reference_diffusion, reference_viscosity};
use chemkin::{GridDims, GridState, Mechanism};
use gpu_sim::arch::GpuArch;
use singe::kernels::{chemistry, diffusion, viscosity};
use singe::{CompileOptions, Dfg, Variant};
use singe_serve::KernelId;

use crate::trace::Tracer;

/// Build `kernel`'s dataflow graph for `mech` at `warps` warps, with the
/// table build and the graph build as separate spans.
pub fn build_dfg(
    kernel: KernelId,
    mech: &Mechanism,
    warps: usize,
    tr: &mut Tracer,
    op: &str,
) -> Dfg {
    let s = tr.begin("chemkin.reference.tables_ms", op);
    enum Tables {
        V(ViscosityTables),
        D(DiffusionTables),
        C(ChemistrySpec),
    }
    let tables = match kernel {
        KernelId::Viscosity => Tables::V(ViscosityTables::build(mech)),
        KernelId::Diffusion => Tables::D(DiffusionTables::build(mech)),
        KernelId::Chemistry => Tables::C(ChemistrySpec::build(mech)),
    };
    tr.end(s);
    let s = tr.begin("singe.kernels.dfg_ms", op);
    let dfg = match &tables {
        Tables::V(t) => viscosity::viscosity_dfg(t, warps),
        Tables::D(t) => diffusion::diffusion_dfg(t, warps),
        Tables::C(t) => chemistry::chemistry_dfg(t, warps),
    };
    tr.end(s);
    dfg
}

/// The figs 11–16 conventions: the warp-specialized kernel compiles at the
/// serve layer's per-kernel defaults; the baseline compiles at 8 warps from
/// the graph built for the warp-specialized warp count. Returns the compile
/// options and the graph's warp count.
pub fn figure_options(
    kernel: KernelId,
    variant: Variant,
    n_species: usize,
    arch: &GpuArch,
) -> (CompileOptions, usize) {
    let ws = singe_serve::default_options(kernel, n_species, arch);
    let dfg_warps = ws.warps;
    match variant {
        Variant::Baseline => (CompileOptions::with_warps(8), dfg_warps),
        Variant::WarpSpecialized | Variant::Naive => (ws, dfg_warps),
    }
}

/// The seeded grid state a launch of `points` points reads.
pub fn grid(points: usize, n_species: usize, seed: u64) -> GridState {
    GridState::random(
        GridDims {
            nx: points,
            ny: 1,
            nz: 1,
        },
        n_species,
        seed,
    )
}

/// Compare a launch's output arrays with the CPU reference at the
/// tolerances of `tests/end_to_end.rs`. `outputs` is parallel to the
/// kernel's array declarations and covers every point of `g`.
pub fn against_reference(
    kernel: KernelId,
    mech: &Mechanism,
    g: &GridState,
    outputs: &[Vec<f64>],
) -> Result<(), String> {
    let points = g.points();
    // False for a NaN on either side.
    let rel = |got: f64, want: f64| ((got - want) / want).abs() < 1e-10;
    match kernel {
        KernelId::Viscosity => {
            let t = ViscosityTables::build(mech);
            let want = reference_viscosity(&t, g);
            let got = &outputs[viscosity::ARR_OUT as usize];
            for p in 0..points {
                if !rel(got[p], want[p]) {
                    return Err(format!(
                        "viscosity point {p}: {} vs reference {}",
                        got[p], want[p]
                    ));
                }
            }
        }
        KernelId::Diffusion => {
            let t = DiffusionTables::build(mech);
            let want = reference_diffusion(&t, g);
            let got = &outputs[diffusion::ARR_OUT as usize];
            for s in 0..t.n {
                for p in 0..points {
                    let (a, b) = (got[s * points + p], want[s * points + p]);
                    if !rel(a, b) {
                        return Err(format!(
                            "diffusion species {s} point {p}: {a} vs reference {b}"
                        ));
                    }
                }
            }
        }
        KernelId::Chemistry => {
            let spec = ChemistrySpec::build(mech);
            let want = reference_chemistry(&spec, g);
            let scale = want.iter().fold(0.0f64, |a, v| a.max(v.abs())).max(1e-300);
            let got = &outputs[chemistry::ARR_OUT as usize];
            for s in 0..spec.n_trans {
                for p in 0..points {
                    let (a, b) = (got[s * points + p], want[s * points + p]);
                    let tol = 1e-9 * (a.abs() + b.abs()) + 1e-9 * scale;
                    // Written so that a NaN on either side fails.
                    let close = (a - b).abs() <= tol;
                    if !close {
                        return Err(format!(
                            "chemistry species {s} point {p}: {a:e} vs reference {b:e}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}
