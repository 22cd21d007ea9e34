//! Kernel frontends: dataflow-graph construction for the three combustion
//! kernels the paper studies (§3), plus shared array conventions.
//!
//! Each frontend builds the §4 stage-1 output — a dataflow graph of
//! operations with per-instance constant tables — applying the paper's
//! domain-specific partitioning:
//!
//! * [`viscosity`] — per-species partitioning with a shared-memory working
//!   set and a warp-0 reduction (§3.2);
//! * [`diffusion`] — the Figure 5 symmetric-matrix column scheme with
//!   register column-partials, shared row-partials updated in
//!   barrier-synchronized rotation rounds, and a hybrid Mixed placement
//!   (§3.3);
//! * [`chemistry`] — the four-phase reaction/QSSA/stiffness/output pipeline
//!   with QSSA warps consuming rates through a recycled shared buffer
//!   (§3.4, Figures 6–7).

pub mod chemistry;
pub mod diffusion;
pub mod viscosity;

use crate::{CResult, CompileError};
use chemkin::state::{GridDims, GridState};
use gpu_sim::isa::Kernel;

/// Build the flat SoA input slices a kernel launch expects, given a grid
/// state and the kernel's array declarations. Outputs get empty slices.
///
/// The convention: array names declared by the frontends are looked up to
/// select the matching `GridState` field; an undeclared name is a
/// [`CompileError::UnknownArray`].
pub fn launch_arrays<'a>(
    kernel_arrays: &[gpu_sim::isa::ArrayDecl],
    grid: &'a GridState,
) -> CResult<Vec<&'a [f64]>> {
    kernel_arrays
        .iter()
        .map(|decl| -> CResult<&'a [f64]> {
            if decl.output {
                return Ok(&[]);
            }
            match decl.name.as_str() {
                "temperature" => Ok(&grid.temperature),
                "pressure" => Ok(&grid.pressure),
                "mole_frac" => Ok(&grid.mole_frac),
                "diffusion" => Ok(&grid.diffusion),
                other => Err(CompileError::UnknownArray(format!(
                    "kernel declares input array '{other}' but the grid state has no such field"
                ))),
            }
        })
        .collect()
}

/// `points` rounded up to a whole number of `kernel`'s CTAs: the grid a
/// tuner probes a candidate on, so schedules with different
/// points-per-CTA are predicted and simulated at the size they launch.
pub fn probe_grid(kernel: &Kernel, points: usize) -> usize {
    points.div_ceil(kernel.points_per_cta) * kernel.points_per_cta
}

/// The tuner's `inputs_for` closure: owned launch arrays of a random
/// `n_species` grid state (fixed `seed`, so probes are deterministic) at
/// the size asked. A kernel declaring an array the grid state lacks gets
/// no arrays, so its probe launch fails and is recorded on its point.
pub fn probe_inputs(
    n_species: usize,
    seed: u64,
) -> impl Fn(&Kernel, usize) -> Vec<Vec<f64>> + Sync {
    move |kernel, points| {
        let g = GridState::random(GridDims { nx: points, ny: 1, nz: 1 }, n_species, seed);
        launch_arrays(&kernel.global_arrays, &g)
            .map(|arrays| arrays.into_iter().map(<[f64]>::to_vec).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::isa::ArrayDecl;

    #[test]
    fn arrays_resolve_by_name() {
        let g = GridState::random(GridDims::cube(2), 3, 1);
        let decls = vec![
            ArrayDecl { name: "temperature".into(), rows: 1, output: false },
            ArrayDecl { name: "mole_frac".into(), rows: 3, output: false },
            ArrayDecl { name: "out".into(), rows: 1, output: true },
        ];
        let arrays = launch_arrays(&decls, &g).expect("known arrays");
        assert_eq!(arrays[0].len(), 8);
        assert_eq!(arrays[1].len(), 24);
        assert!(arrays[2].is_empty());
    }

    #[test]
    fn unknown_array_is_a_typed_error() {
        let g = GridState::random(GridDims::cube(2), 3, 1);
        let decls =
            vec![ArrayDecl { name: "vorticity".into(), rows: 1, output: false }];
        let err = launch_arrays(&decls, &g).unwrap_err();
        assert!(matches!(err, crate::CompileError::UnknownArray(_)), "{err}");
    }
}
