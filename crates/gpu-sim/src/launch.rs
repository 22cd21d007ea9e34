//! Grid launch: run a kernel over all CTAs of a grid (functionally, in
//! parallel across host threads) and produce outputs plus a timing report.
//!
//! Full launches fan independent CTAs out over the deterministic ordered
//! pool ([`crate::pool::run_ordered`]): results are scattered in CTA
//! order, so the worker count ([`LaunchConfig::jobs`], `SINGE_JOBS`)
//! never changes output bytes.

use crate::arch::GpuArch;
use crate::cta::barrier_file_len;
use crate::error::{SimError, SimResult};
use crate::engine::run_cta_engine;
use crate::flatcache::{engine_cached, flatten_cached};
use crate::interp::{run_cta, CtaResult, FlatProgram};
use crate::isa::Kernel;
use crate::occupancy::occupancy;
use crate::profile::{CtaProfile, Profiler};
use crate::timing::{estimate, SimReport};

/// Input arrays, parallel to `kernel.global_arrays`; output slots may be
/// empty slices.
pub struct LaunchInputs<'a> {
    /// One slice per declared array (`rows * total_points` doubles for
    /// inputs, anything — usually empty — for outputs).
    pub arrays: Vec<&'a [f64]>,
}

/// Result of a launch.
#[derive(Debug)]
pub struct LaunchOutput {
    /// Output arrays (`rows * total_points`), parallel to the declarations;
    /// empty vectors for inputs.
    pub outputs: Vec<Vec<f64>>,
    /// Timing estimate (event counts from CTA 0).
    pub report: SimReport,
    /// Cycle-attribution profile of CTA 0 (requires
    /// [`LaunchConfig::profile`]; CTAs are homogeneous so one is
    /// representative).
    pub profile: Option<CtaProfile>,
}

/// How much of the grid to execute functionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchMode {
    /// Execute every CTA (full functional results).
    Full,
    /// Execute only CTA 0 (timing studies on big grids — outputs cover
    /// just the first `points_per_cta` points).
    TimingOnly,
}

/// Launch-time knobs beyond the grid shape (see [`launch_with_config`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// How much of the grid to execute functionally.
    pub mode: LaunchMode,
    /// Attach a cycle-attribution profiler to CTA 0
    /// ([`LaunchOutput::profile`]).
    pub profile: bool,
    /// Also record the structured event stream (warp phase spans, barrier
    /// edges) for Chrome-trace export. Implies nothing unless `profile`
    /// is set.
    pub trace_events: bool,
    /// Worker threads for the parallel CTA sweep in [`LaunchMode::Full`]
    /// (`0` = auto: `SINGE_JOBS` or the machine's available parallelism,
    /// see [`crate::pool::default_jobs`]). Deterministic at any value.
    pub jobs: usize,
}

impl Default for LaunchConfig {
    fn default() -> LaunchConfig {
        LaunchConfig { mode: LaunchMode::Full, profile: false, trace_events: false, jobs: 0 }
    }
}

/// Validate and launch `kernel` over `total_points` grid points.
pub fn launch(
    kernel: &Kernel,
    arch: &GpuArch,
    inputs: &LaunchInputs<'_>,
    total_points: usize,
    mode: LaunchMode,
) -> SimResult<LaunchOutput> {
    launch_with_config(
        kernel,
        arch,
        inputs,
        total_points,
        LaunchConfig { mode, ..LaunchConfig::default() },
    )
}

/// [`launch`] with a full [`LaunchConfig`], optionally attaching the
/// per-warp cycle-attribution profiler to CTA 0.
pub fn launch_with_config(
    kernel: &Kernel,
    arch: &GpuArch,
    inputs: &LaunchInputs<'_>,
    total_points: usize,
    config: LaunchConfig,
) -> SimResult<LaunchOutput> {
    // Memoized: sweeps re-launch the same kernel many times; the flatten
    // (loop expansion + pre-decode) is shared across launches.
    launch_flat(kernel, &flatten_cached(kernel), arch, inputs, total_points, config)
}

/// [`launch_with_config`] over an already-flattened program, for a caller
/// that holds `kernel`'s flattening (as [`crate::model::predict_flat`] is
/// to [`crate::model::predict`]): no second pass over the kernel to find
/// it in the cache. `prog` must be `kernel`'s own.
pub fn launch_flat(
    kernel: &Kernel,
    prog: &FlatProgram,
    arch: &GpuArch,
    inputs: &LaunchInputs<'_>,
    total_points: usize,
    config: LaunchConfig,
) -> SimResult<LaunchOutput> {
    let mode = config.mode;
    kernel.check().map_err(SimError::InvalidKernel)?;
    if inputs.arrays.len() != kernel.global_arrays.len() {
        return Err(SimError::BadLaunch(format!(
            "{} arrays supplied for {} declarations",
            inputs.arrays.len(),
            kernel.global_arrays.len()
        )));
    }
    for (decl, arr) in kernel.global_arrays.iter().zip(&inputs.arrays) {
        if !decl.output && arr.len() != decl.rows * total_points {
            return Err(SimError::BadLaunch(format!(
                "input '{}' has {} elements, expected {}",
                decl.name,
                arr.len(),
                decl.rows * total_points
            )));
        }
    }
    if !total_points.is_multiple_of(kernel.points_per_cta) {
        return Err(SimError::BadLaunch(format!(
            "grid of {} points not divisible by points_per_cta {}",
            total_points, kernel.points_per_cta
        )));
    }
    if occupancy(kernel, arch).ctas_per_sm == 0 {
        return Err(SimError::BadLaunch(
            "kernel does not fit on the SM (zero occupancy)".into(),
        ));
    }

    let n_ctas = match mode {
        LaunchMode::Full => total_points / kernel.points_per_cta,
        LaunchMode::TimingOnly => 1,
    };

    let mut outputs: Vec<Vec<f64>> = kernel
        .global_arrays
        .iter()
        .map(|a| if a.output { vec![0.0; a.rows * total_points] } else { Vec::new() })
        .collect();

    // CTA 0 runs with event collection, and with the profiler if one is
    // asked for; scatter its buffers too. Both run on the segment-compiled
    // engine: a warp's cycle clock is read only at barrier operations,
    // blocks, releases and the end of its stream, which are segment
    // boundaries, so charging each segment's cycles at its entry is the
    // per-instruction attribution exactly.
    let mut profiler = config.profile.then(|| {
        Profiler::new(kernel.warps_per_cta, barrier_file_len(kernel), config.trace_events, arch)
    });
    let eng = engine_cached(kernel, prog);
    let arrays = &inputs.arrays;
    let first =
        run_cta_engine(kernel, &eng, prog, arrays, total_points, 0, true, arch, profiler.as_mut())?;
    scatter(kernel, total_points, 0, &first, &mut outputs);
    let counts = first.counts;
    let profile = profiler.map(Profiler::finish);

    if n_ctas > 1 {
        // Remaining CTAs are independent: fan them out over the ordered
        // pool and scatter in CTA order. The first error (in CTA order)
        // wins, exactly as a serial loop would report it.
        let jobs = if config.jobs == 0 { crate::pool::default_jobs() } else { config.jobs };
        let results: Vec<SimResult<CtaResult>> =
            crate::pool::run_ordered(jobs, n_ctas - 1, |i| {
                run_cta(kernel, prog, &inputs.arrays, total_points, 1 + i, false, arch)
            });
        for (i, r) in results.into_iter().enumerate() {
            scatter(kernel, total_points, 1 + i, &r?, &mut outputs);
        }
    }

    let report = estimate(kernel, arch, &counts, total_points);
    Ok(LaunchOutput { outputs, report, profile })
}

/// Scatter a CTA's output buffers into the full output arrays.
fn scatter(
    kernel: &Kernel,
    total_points: usize,
    cta: usize,
    r: &CtaResult,
    outputs: &mut [Vec<f64>],
) {
    let base = cta * kernel.points_per_cta;
    for (ai, decl) in kernel.global_arrays.iter().enumerate() {
        if !decl.output {
            continue;
        }
        let buf = &r.out_buffers[ai];
        for row in 0..decl.rows {
            let src = &buf[row * kernel.points_per_cta..(row + 1) * kernel.points_per_cta];
            let dst_off = row * total_points + base;
            outputs[ai][dst_off..dst_off + kernel.points_per_cta].copy_from_slice(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::*;

    fn saxpy_kernel() -> Kernel {
        // out[0][p] = 2.5 * in[0][p] + in[1][p], one warp, 32 points/CTA.
        Kernel {
            name: "saxpy".into(),
            body: vec![
                Node::Op(Instr::LdGlobal {
                    dst: 0,
                    addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
                    ldg: false,
                }),
                Node::Op(Instr::LdGlobal {
                    dst: 1,
                    addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(1), point: PointRef::Lane },
                    ldg: false,
                }),
                Node::Op(Instr::DFma { dst: 2, a: Op::Reg(0), b: Op::Imm(2.5), c: Op::Reg(1), const_c: false }),
                Node::Op(Instr::StGlobal {
                    src: Op::Reg(2),
                    addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
                }),
            ],
            warps_per_cta: 1,
            points_per_cta: 32,
            dregs_per_thread: 4,
            iregs_per_thread: 1,
            shared_words: 0,
            local_words_per_thread: 0,
            const_banks: vec![],
            iconst_banks: vec![],
            barriers_used: 0,
            global_arrays: vec![
                ArrayDecl { name: "in".into(), rows: 2, output: false },
                ArrayDecl { name: "out".into(), rows: 1, output: true },
            ],
            spilled_bytes_per_thread: 0,
            exp_const_from_registers: false,
        }
    }

    #[test]
    fn full_launch_covers_all_points() {
        let k = saxpy_kernel();
        let arch = GpuArch::kepler_k20c();
        let points = 32 * 17;
        let input: Vec<f64> = (0..2 * points).map(|i| i as f64 * 0.5).collect();
        let out = launch(&k, &arch, &LaunchInputs { arrays: vec![&input, &[]] }, points, LaunchMode::Full)
            .unwrap();
        for p in 0..points {
            let expect = 2.5 * input[p] + input[points + p];
            assert_eq!(out.outputs[1][p], expect, "point {p}");
        }
        assert!(out.report.points_per_sec > 0.0);
    }

    #[test]
    fn timing_only_runs_one_cta() {
        let k = saxpy_kernel();
        let arch = GpuArch::fermi_c2070();
        let points = 32 * 8;
        let input: Vec<f64> = vec![1.0; 2 * points];
        let out = launch(&k, &arch, &LaunchInputs { arrays: vec![&input, &[]] }, points, LaunchMode::TimingOnly)
            .unwrap();
        // First CTA's points are computed, the rest remain zero.
        assert_eq!(out.outputs[1][0], 3.5);
        assert_eq!(out.outputs[1][63], 0.0);
    }

    #[test]
    fn profiled_launch_attributes_every_cycle() {
        let k = saxpy_kernel();
        let arch = GpuArch::kepler_k20c();
        let points = 32 * 4;
        let input: Vec<f64> = (0..2 * points).map(|i| i as f64).collect();
        let cfg = LaunchConfig { mode: LaunchMode::Full, profile: true, trace_events: true, jobs: 0 };
        let out =
            launch_with_config(&k, &arch, &LaunchInputs { arrays: vec![&input, &[]] }, points, cfg)
                .unwrap();
        let prof = out.profile.expect("profile requested");
        prof.check_attribution().unwrap();
        assert_eq!(prof.warps.len(), 1);
        assert!(prof.total_cycles > 0);
        // Functional results are unaffected by profiling.
        for p in 0..points {
            assert_eq!(out.outputs[1][p], 2.5 * input[p] + input[points + p]);
        }
        // Unprofiled launches don't pay for or carry a profile.
        let plain = launch(&k, &arch, &LaunchInputs { arrays: vec![&input, &[]] }, points, LaunchMode::Full)
            .unwrap();
        assert!(plain.profile.is_none());
        assert_eq!(plain.report.counts, out.report.counts);
    }

    #[test]
    fn rejects_bad_input_shapes() {
        let k = saxpy_kernel();
        let arch = GpuArch::kepler_k20c();
        let input = vec![0.0; 10];
        let err = launch(&k, &arch, &LaunchInputs { arrays: vec![&input, &[]] }, 64, LaunchMode::Full)
            .unwrap_err();
        assert!(matches!(err, SimError::BadLaunch(_)));
    }

    #[test]
    fn rejects_indivisible_grid() {
        let k = saxpy_kernel();
        let arch = GpuArch::kepler_k20c();
        let input = vec![0.0; 2 * 40];
        let err = launch(&k, &arch, &LaunchInputs { arrays: vec![&input, &[]] }, 40, LaunchMode::Full)
            .unwrap_err();
        assert!(matches!(err, SimError::BadLaunch(_)));
    }

    #[test]
    fn report_has_sane_metrics() {
        let k = saxpy_kernel();
        let arch = GpuArch::kepler_k20c();
        let points = 32 * 64;
        let input: Vec<f64> = vec![1.0; 2 * points];
        let out = launch(&k, &arch, &LaunchInputs { arrays: vec![&input, &[]] }, points, LaunchMode::Full)
            .unwrap();
        let r = &out.report;
        assert!(r.seconds > 0.0);
        assert!(r.gflops > 0.0);
        assert!(r.occupancy.ctas_per_sm >= 1);
        assert_eq!(r.grid_points, points);
    }
}
