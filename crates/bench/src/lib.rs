//! Evaluation harness: builds every kernel variant of the paper's §6 and
//! produces the rows behind each table and figure.
//!
//! Timing methodology: each kernel is executed functionally for one CTA on
//! the simulator (gathering the event counts), and the analytic timing
//! model extrapolates to the paper's grid sizes (32^3, 64^3, 128^3) —
//! mirroring how the per-point kernels scale across a homogeneous grid.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use chemkin::state::{GridDims, GridState};
use chemkin::Mechanism;
use gpu_sim::arch::GpuArch;
use gpu_sim::counts::EventCounts;
use gpu_sim::isa::Kernel;
use gpu_sim::launch::{launch, launch_with_config, LaunchConfig, LaunchInputs, LaunchMode};
use gpu_sim::memo::Memo;
use gpu_sim::profile::CtaProfile;
use gpu_sim::timing::{estimate, SimReport};
use singe::codegen::CompileStats;
use singe::config::CompileOptions;
use singe::kernels::launch_arrays;
use singe::Compiler;

pub mod fidelity;
pub mod record;

use record::Json;

pub use singe::Variant;
// The typed id surface lives in the serve layer (it keys the persistent
// artifact cache); the harness re-exports it so CLI code has one spelling.
pub use singe_serve::{ArchId, KernelId, MechanismId, UnknownIdError};

/// Kernel selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// §3.2 viscosity.
    Viscosity,
    /// §3.3 diffusion.
    Diffusion,
    /// §3.4 chemistry.
    Chemistry,
}

impl Kind {
    /// Display name (delegates to the typed [`KernelId`]).
    pub fn name(self) -> &'static str {
        KernelId::from(self).name()
    }
}

impl From<Kind> for KernelId {
    fn from(k: Kind) -> KernelId {
        match k {
            Kind::Viscosity => KernelId::Viscosity,
            Kind::Diffusion => KernelId::Diffusion,
            Kind::Chemistry => KernelId::Chemistry,
        }
    }
}

impl From<KernelId> for Kind {
    fn from(k: KernelId) -> Kind {
        match k {
            KernelId::Viscosity => Kind::Viscosity,
            KernelId::Diffusion => Kind::Diffusion,
            KernelId::Chemistry => Kind::Chemistry,
        }
    }
}

impl std::str::FromStr for Kind {
    type Err = UnknownIdError;

    /// Parse via [`KernelId`]: an unknown name yields the typed error
    /// that lists the valid kernel ids.
    fn from_str(s: &str) -> Result<Kind, UnknownIdError> {
        s.parse::<KernelId>().map(Kind::from)
    }
}

/// A built kernel plus metadata.
pub struct Built {
    /// The kernel.
    pub kernel: Kernel,
    /// Warp-specialization statistics (None for baseline).
    pub stats: Option<CompileStats>,
    /// Transported species count.
    pub n_species: usize,
    /// Process-unique id used to key the probe-counts cache; every distinct
    /// compilation gets its own, and cached `Arc<Built>` clones share it.
    probe_key: u64,
}

fn next_probe_key() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Builds by [`build_key`], compile errors included. The parallel `report`
/// sweeps hit every figure's shared builds from many workers at once; the
/// memo has one of them compile each key, outside its lock (a compile may
/// itself run the verifier).
static BUILDS: Memo<u64, Result<Arc<Built>, singe::CompileError>> = Memo::new();

/// Cache key over (kind, variant, arch, mechanism, dfg warp count,
/// options). `dfg_warps` is keyed separately from `opts.warps` because the
/// default Baseline path compiles a dfg built for the warp-specialized
/// warp count with `with_warps(8)` options. Every build path — `build()`
/// and `build_with_options()` — derives its key here, so an option added
/// to [`CompileOptions`] can never be hashed on one path and silently
/// dropped on the other (it would poison the memoization).
fn build_key(
    kind: Kind,
    variant: Variant,
    arch: &GpuArch,
    mech: &Mechanism,
    dfg_warps: usize,
    opts: &CompileOptions,
) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{kind:?}|{variant:?}|{}|{dfg_warps}", arch.name).hash(&mut h);
    singe_serve::mechanism_fingerprint(mech).hash(&mut h);
    format!("{opts:?}").hash(&mut h);
    h.finish()
}

/// Pick a warp count for the warp-specialized viscosity kernel (delegates
/// to the serve layer's canonical heuristic).
pub fn viscosity_warps(n: usize) -> usize {
    singe_serve::viscosity_warps(n)
}

/// Default warp-specialized options per kernel kind (delegates to the
/// serve layer, which owns the per-kernel defaults so CLI requests and
/// harness builds agree on them).
pub fn ws_options(kind: Kind, n_species: usize, arch: &GpuArch) -> CompileOptions {
    singe_serve::default_options(kind.into(), n_species, arch)
}

/// When `SINGE_SERVE_CACHE` names a directory, the harness routes every
/// compile through one process-wide [`singe_serve::ServeSession`] rooted
/// there: compiles persist across `report` invocations and warm runs skip
/// codegen entirely. Opened lazily on first use; an unusable directory
/// disables routing (compiles fall back to the direct path).
fn serve_session() -> Option<&'static singe_serve::ServeSession> {
    static SESSION: OnceLock<Option<singe_serve::ServeSession>> = OnceLock::new();
    SESSION
        .get_or_init(|| {
            let dir = std::env::var_os("SINGE_SERVE_CACHE")?;
            singe_serve::ServeSession::builder(std::path::Path::new(&dir))
                .builtins(false)
                .open()
                .ok()
        })
        .as_ref()
}

/// Compile through the serve session, if routing is enabled and the
/// request maps onto the typed surface. `None` means "no serve answer —
/// use the direct path" (routing off, unknown arch, session error);
/// `Some(Err)` is a real compile failure, identical to what the direct
/// path would have produced.
fn try_serve(
    kind: Kind,
    mech: &Mechanism,
    arch: &GpuArch,
    variant: Variant,
    dfg_warps: usize,
    opts: &CompileOptions,
) -> Option<Result<Built, singe::CompileError>> {
    let session = serve_session()?;
    // Only the two named architectures exist in the persistent keyspace;
    // tests with synthetic arches compile directly.
    let arch_id = ArchId::ALL.into_iter().find(|a| a.arch().name == arch.name)?;
    // Content-derived id: identical mechanisms share artifacts no matter
    // what the caller named them.
    let fingerprint = singe_serve::mechanism_fingerprint(mech);
    let id: MechanismId = format!("m{fingerprint:016x}").parse().ok()?;
    session.register_mechanism(id.clone(), mech.clone()).ok()?;
    let req = singe_serve::CompileRequest::new(id, kind.into(), variant, arch_id)
        .with_options(opts.clone())
        .with_dfg_warps(dfg_warps);
    match session.compile(&req) {
        Ok(handle) => Some(Ok(Built {
            kernel: handle.artifact.kernel.clone(),
            stats: handle.artifact.stats.clone(),
            n_species: mech.n_transported(),
            probe_key: next_probe_key(),
        })),
        Err(singe_serve::ServeError::Compile(e)) => Some(Err(e)),
        // Service-level trouble (overload, shutdown, io): not a compile
        // failure — fall back to compiling directly.
        Err(_) => None,
    }
}

/// Build a kernel kind's dataflow graph at `dfg_warps` warps — the input
/// the tuner ([`singe::search`]) takes directly, bypassing the compile
/// memo (it compiles many option points against one dfg). Delegates to
/// [`KernelId::dfg`].
pub fn dfg_for(kind: Kind, mech: &Mechanism, dfg_warps: usize) -> singe::Dfg {
    KernelId::from(kind).dfg(mech, dfg_warps)
}

/// The single compile path behind [`build`] and [`build_with_options`]:
/// build the kernel's dfg at `dfg_warps` warps, compile it through the
/// [`Compiler`] front door, memoize on the unified [`build_key`].
fn compile_variant(
    kind: Kind,
    mech: &Mechanism,
    arch: &GpuArch,
    variant: Variant,
    dfg_warps: usize,
    opts: &CompileOptions,
) -> Result<Arc<Built>, singe::CompileError> {
    let key = build_key(kind, variant, arch, mech, dfg_warps, opts);
    BUILDS.get_or_make(key, || {
        if let Some(served) = try_serve(kind, mech, arch, variant, dfg_warps, opts) {
            return served.map(Arc::new);
        }
        let n = mech.n_transported();
        let dfg = dfg_for(kind, mech, dfg_warps);
        let c = Compiler::new(arch).options(opts.clone()).compile(&dfg, variant)?;
        // The baseline's unified stats carry only the spill count; keep the
        // historical `None` so report code doesn't mistake them for
        // warp-specialization statistics.
        let stats = match variant {
            Variant::Baseline => None,
            Variant::WarpSpecialized | Variant::Naive => Some(c.stats),
        };
        Ok(Arc::new(Built { kernel: c.kernel, stats, n_species: n, probe_key: next_probe_key() }))
    })
}

/// Build a kernel variant for a mechanism on an architecture. Memoized:
/// repeated sweep rows (e.g. fig11–16 sharing variants across grid sizes)
/// reuse the compiled artifact.
pub fn build(kind: Kind, mech: &Mechanism, arch: &GpuArch, variant: Variant) -> Arc<Built> {
    let opts = ws_options(kind, mech.n_transported(), arch);
    match variant {
        // Non-baseline default builds are exactly `build_with_options` at
        // the default options; delegating shares one cache entry with
        // explicit-option callers (e.g. the verifier sweep).
        Variant::WarpSpecialized | Variant::Naive => {
            build_with_options(kind, mech, arch, variant, &opts).expect("default variant compiles")
        }
        // The default Baseline path compiles with `with_warps(8)` options
        // against a dfg built for the warp-specialized warp count — which
        // is why `compile_variant` keys the dfg warp count separately.
        Variant::Baseline => {
            compile_variant(kind, mech, arch, variant, opts.warps, &CompileOptions::with_warps(8))
                .expect("baseline compiles")
        }
    }
}

/// Build with explicit options (Figure 9 warp sweeps, ablations).
/// Memoized on (kind, mechanism, arch, variant, options); compile errors
/// are cached too, so failing sweep points stay cheap on re-query.
pub fn build_with_options(
    kind: Kind,
    mech: &Mechanism,
    arch: &GpuArch,
    variant: Variant,
    opts: &CompileOptions,
) -> Result<Arc<Built>, singe::CompileError> {
    compile_variant(kind, mech, arch, variant, opts.warps, opts)
}

/// Probe event counts by (`Built::probe_key`, arch name).
static PROBES: Memo<(u64, &'static str), EventCounts> = Memo::new();

/// Run one CTA functionally and extrapolate the timing model to
/// `grid_points` points. Returns the simulation report.
///
/// The probe launch is deterministic for a given kernel and architecture
/// (fixed grid seed), so its event counts are memoized per `Built`; only
/// the analytic `estimate` re-runs per grid size.
pub fn timing_report(built: &Built, arch: &GpuArch, grid_points: usize) -> SimReport {
    let counts = PROBES.get_or_make((built.probe_key, arch.name), || {
        let probe = built.kernel.points_per_cta;
        let g = GridState::random(GridDims { nx: probe, ny: 1, nz: 1 }, built.n_species, 1234);
        let arrays = launch_arrays(&built.kernel.global_arrays, &g).expect("known arrays");
        launch(&built.kernel, arch, &LaunchInputs { arrays }, probe, LaunchMode::Full)
            .expect("probe launch")
            .report
            .counts
    });
    estimate(&built.kernel, arch, &counts, grid_points)
}

/// Run the deterministic probe launch for `built` with the cycle
/// profiler enabled and return the per-warp attribution. `trace_events`
/// additionally records the structured event stream (phase spans,
/// barrier arrive/sync edges) for Chrome-trace export.
///
/// Not memoized: profiling is a one-shot diagnostic pass, unlike the
/// event counts feeding every grid-size extrapolation.
pub fn profile_built(built: &Built, arch: &GpuArch, trace_events: bool) -> CtaProfile {
    let probe = built.kernel.points_per_cta;
    let g = GridState::random(GridDims { nx: probe, ny: 1, nz: 1 }, built.n_species, 1234);
    let arrays = launch_arrays(&built.kernel.global_arrays, &g).expect("known arrays");
    let out = launch_with_config(
        &built.kernel,
        arch,
        &LaunchInputs { arrays },
        probe,
        LaunchConfig { mode: LaunchMode::Full, profile: true, trace_events, jobs: 0 },
    )
    .expect("profiled probe launch");
    out.profile.expect("profiler enabled")
}

/// One row of the stall-breakdown table (`report profile`): a kernel
/// variant's cycles attributed across the closed reason set, summed over
/// the CTA's warps.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Kernel name.
    pub kernel: String,
    /// Mechanism name.
    pub mechanism: String,
    /// Architecture name.
    pub arch: String,
    /// Compiler variant.
    pub variant: String,
    /// Warps in the CTA.
    pub warps: usize,
    /// CTA total (per-warp timeline length; every warp sums to this).
    pub total_cycles: u64,
    /// Cycles attributed per reason, summed over warps.
    pub issue: u64,
    /// Cycles spent blocked at named barriers (all barrier ids).
    pub barrier_wait: u64,
    /// Instruction-cache miss stall cycles.
    pub icache_miss: u64,
    /// Constant-cache replay cycles.
    pub const_replay: u64,
    /// Operand/launch/branch overhead cycles.
    pub overhead: u64,
    /// Idle-after-exit cycles.
    pub idle: u64,
    /// Barrier-wait cycles split by barrier id (index = id).
    pub barrier_wait_by_id: Vec<u64>,
    /// Whether every warp's reasons summed exactly to `total_cycles`.
    pub attribution_ok: bool,
}

/// Aggregate a [`CtaProfile`] into a [`ProfileRow`].
pub fn profile_row(
    kind: Kind,
    mech: &str,
    arch: &GpuArch,
    variant: Variant,
    profile: &CtaProfile,
) -> ProfileRow {
    let totals = profile.totals();
    let mut by_id = totals.barrier_wait.clone();
    while by_id.last() == Some(&0) {
        by_id.pop();
    }
    ProfileRow {
        kernel: kind.name().into(),
        mechanism: mech.into(),
        arch: arch.name.into(),
        variant: variant.name().into(),
        warps: profile.warps.len(),
        total_cycles: profile.total_cycles,
        issue: totals.issue,
        barrier_wait: totals.barrier_wait_total(),
        icache_miss: totals.icache_miss,
        const_replay: totals.const_replay,
        overhead: totals.overhead,
        idle: totals.idle,
        barrier_wait_by_id: by_id,
        attribution_ok: profile.check_attribution().is_ok(),
    }
}

impl ProfileRow {
    /// This row as an element of `target/profile.json`.
    pub fn to_json(&self) -> Json {
        let by_id: Vec<Json> = self.barrier_wait_by_id.iter().map(|&v| Json::from(v)).collect();
        object! {
            "kernel": &self.kernel,
            "mechanism": &self.mechanism,
            "arch": &self.arch,
            "variant": &self.variant,
            "warps": self.warps,
            "total_cycles": self.total_cycles,
            "issue": self.issue,
            "barrier_wait": self.barrier_wait,
            "icache_miss": self.icache_miss,
            "const_replay": self.const_replay,
            "overhead": self.overhead,
            "idle": self.idle,
            "barrier_wait_by_id": by_id,
            "attribution_ok": self.attribution_ok,
        }
    }
}

/// Predict `built`'s performance on `arch` for `grid_points` using the
/// static analytical model ([`singe::perfmodel`]) — no interpretation.
/// Compiled kernels always satisfy the model's barrier-protocol
/// preconditions, so this cannot fail for harness-built kernels.
pub fn predict_built(built: &Built, arch: &GpuArch, grid_points: usize) -> singe::ModelReport {
    singe::perfmodel::predict(&built.kernel, arch, grid_points).expect("compiled kernel predicts")
}

/// Spearman rank correlation between two equal-length samples (average
/// ranks for ties). Returns 1.0 for degenerate inputs (constant series or
/// fewer than two points) — a constant predictor over a constant truth is
/// a perfect rank match for gating purposes.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman needs paired samples");
    fn ranks(v: &[f64]) -> Vec<f64> {
        let n = v.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).expect("finite samples"));
        let mut r = vec![0.0; n];
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && v[idx[j + 1]] == v[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for k in i..=j {
                r[idx[k]] = avg;
            }
            i = j + 1;
        }
        r
    }
    if xs.len() < 2 {
        return 1.0;
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    let n = xs.len() as f64;
    let mx = rx.iter().sum::<f64>() / n;
    let my = ry.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for i in 0..xs.len() {
        num += (rx[i] - mx) * (ry[i] - my);
        dx += (rx[i] - mx) * (rx[i] - mx);
        dy += (ry[i] - my) * (ry[i] - my);
    }
    if dx == 0.0 || dy == 0.0 {
        return 1.0;
    }
    num / (dx * dy).sqrt()
}

/// One row of the model-accuracy table (`report model`): the analytical
/// model's prediction next to the simulator's measurement for one kernel
/// × variant × architecture.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Kernel name.
    pub kernel: String,
    /// Mechanism name.
    pub mechanism: String,
    /// Architecture name.
    pub arch: String,
    /// Compiler variant.
    pub variant: String,
    /// Warps in the CTA.
    pub warps: usize,
    /// Grid points the seconds are extrapolated to.
    pub grid_points: usize,
    /// Model-predicted wall-clock seconds for the grid.
    pub predicted_seconds: f64,
    /// Simulated (probe + timing model) seconds for the grid.
    pub simulated_seconds: f64,
    /// predicted / simulated.
    pub ratio: f64,
    /// Model-predicted CTA cycles (per-warp timeline length).
    pub predicted_cycles: u64,
    /// Profiler-measured CTA cycles from the interpreted probe.
    pub profiled_cycles: u64,
}

impl ModelRow {
    /// This row as an element of `target/model.json`'s `rows`.
    pub fn to_json(&self) -> Json {
        object! {
            "kernel": &self.kernel,
            "mechanism": &self.mechanism,
            "arch": &self.arch,
            "variant": &self.variant,
            "warps": self.warps,
            "grid_points": self.grid_points,
            "predicted_seconds": self.predicted_seconds,
            "simulated_seconds": self.simulated_seconds,
            "ratio": self.ratio,
            "predicted_cycles": self.predicted_cycles,
            "profiled_cycles": self.profiled_cycles,
        }
    }
}

/// Accuracy gate for `target/model.json`: Spearman rank correlation
/// between predicted and simulated seconds must be at least this.
pub const MODEL_GATE_SPEARMAN: f64 = 0.8;

/// Accuracy gate: every row's predicted/simulated ratio must lie in
/// `[1/MODEL_GATE_RATIO, MODEL_GATE_RATIO]`.
pub const MODEL_GATE_RATIO: f64 = 2.0;

/// The model-accuracy report (`target/model.json`): a summary object
/// (Spearman, ratio envelope, gate verdict) and the per-kernel rows.
pub fn model_report_json(rows: &[ModelRow]) -> Json {
    let preds: Vec<f64> = rows.iter().map(|r| r.predicted_seconds).collect();
    let sims: Vec<f64> = rows.iter().map(|r| r.simulated_seconds).collect();
    let rho = spearman(&preds, &sims);
    let ratio_min = rows.iter().map(|r| r.ratio).fold(f64::INFINITY, f64::min);
    let ratio_max = rows.iter().map(|r| r.ratio).fold(f64::NEG_INFINITY, f64::max);
    let gate_ok = !rows.is_empty()
        && rho >= MODEL_GATE_SPEARMAN
        && ratio_min >= 1.0 / MODEL_GATE_RATIO
        && ratio_max <= MODEL_GATE_RATIO;
    let summary = object! {
        "rows": rows.len(),
        "spearman": rho,
        "ratio_min": if ratio_min.is_finite() { ratio_min } else { 0.0 },
        "ratio_max": if ratio_max.is_finite() { ratio_max } else { 0.0 },
        "gate_spearman": MODEL_GATE_SPEARMAN,
        "gate_ratio": MODEL_GATE_RATIO,
        "gate_ok": gate_ok,
    };
    object! { "summary": summary, "rows": rows.iter().map(ModelRow::to_json).collect::<Vec<_>>() }
}

/// One output row (a point in a paper figure).
#[derive(Debug, Clone)]
pub struct Row {
    /// Figure/experiment id ("fig11", ...).
    pub figure: String,
    /// Kernel name.
    pub kernel: String,
    /// Mechanism name.
    pub mechanism: String,
    /// Architecture name.
    pub arch: String,
    /// Compiler variant.
    pub variant: String,
    /// Grid edge (points = edge^3); warp count for Figure 9; constant
    /// registers per thread for Figure 10 (a compile-time stat, so its
    /// rows leave the timing fields vacuous).
    pub x: usize,
    /// Grid points per second (the paper's throughput metric).
    pub points_per_sec: f64,
    /// Achieved GFLOPS.
    pub gflops: f64,
    /// Achieved bandwidth GB/s.
    pub bandwidth_gbs: f64,
    /// Spill bytes per thread.
    pub spilled_bytes: usize,
    /// Limiting resource per the timing model.
    pub limiter: String,
    /// Simulated seconds.
    pub seconds: f64,
}

/// Produce a row from a report.
pub fn row(figure: &str, kind: Kind, mech: &str, arch: &GpuArch, variant: Variant, x: usize, r: &SimReport) -> Row {
    Row {
        figure: figure.into(),
        kernel: kind.name().into(),
        mechanism: mech.into(),
        arch: arch.name.into(),
        variant: variant.name().into(),
        x,
        points_per_sec: r.points_per_sec,
        gflops: r.gflops,
        bandwidth_gbs: r.bandwidth_gbs,
        spilled_bytes: r.spilled_bytes_per_thread,
        limiter: r.limiter.into(),
        seconds: r.seconds,
    }
}

impl Row {
    /// This row as an element of `target/report.json`.
    pub fn to_json(&self) -> Json {
        object! {
            "figure": &self.figure,
            "kernel": &self.kernel,
            "mechanism": &self.mechanism,
            "arch": &self.arch,
            "variant": &self.variant,
            "x": self.x,
            "points_per_sec": self.points_per_sec,
            "gflops": self.gflops,
            "bandwidth_gbs": self.bandwidth_gbs,
            "spilled_bytes": self.spilled_bytes,
            "limiter": &self.limiter,
            "seconds": self.seconds,
        }
    }
}

/// The paper's three grid sizes.
pub const GRIDS: [usize; 3] = [32, 64, 128];

#[cfg(test)]
mod tests {
    use super::*;
    use chemkin::synth;

    #[test]
    fn viscosity_warp_choice_divides_species() {
        assert_eq!(viscosity_warps(30), 10);
        assert_eq!(viscosity_warps(52), 13);
        assert_eq!(viscosity_warps(31), 8); // prime fallback
    }

    #[test]
    fn spearman_matches_hand_computed_cases() {
        // Perfect monotone agreement, reversal, and a tie-heavy case.
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]), -1.0);
        let rho = spearman(&[1.0, 1.0, 2.0, 3.0], &[5.0, 5.0, 6.0, 7.0]);
        assert!((rho - 1.0).abs() < 1e-12, "ties share average ranks: {rho}");
        // Degenerate: constant series rank-match by convention.
        assert_eq!(spearman(&[1.0, 1.0], &[2.0, 3.0]), 1.0);
    }

    #[test]
    fn model_report_json_gates_on_rank_and_ratio() {
        let row = |p: f64, s: f64| ModelRow {
            kernel: "k".into(),
            mechanism: "m".into(),
            arch: "a".into(),
            variant: "v".into(),
            warps: 4,
            grid_points: 64,
            predicted_seconds: p,
            simulated_seconds: s,
            ratio: p / s,
            predicted_cycles: 100,
            profiled_cycles: 100,
        };
        let gate = |rows: &[ModelRow]| model_report_json(rows).get("summary")?.get("gate_ok").cloned();
        assert_eq!(gate(&[row(1.0, 1.1), row(2.0, 1.9), row(3.0, 3.2)]), Some(Json::Bool(true)));
        // A 3x over-prediction violates the ratio band even though ranks
        // still agree.
        assert_eq!(gate(&[row(1.0, 1.1), row(6.0, 2.0), row(9.0, 3.2)]), Some(Json::Bool(false)));
        assert_eq!(gate(&[]), Some(Json::Bool(false)));
    }

    #[test]
    fn small_mech_builds_all_variants() {
        let m = synth::via_text(&synth::SynthConfig {
            name: "bh".into(),
            n_species: 8,
            n_reactions: 10,
            n_qssa: 2,
            n_stiff: 2,
            seed: 3,
        });
        let arch = GpuArch::kepler_k20c();
        for kind in [Kind::Viscosity, Kind::Diffusion, Kind::Chemistry] {
            for variant in [Variant::Baseline, Variant::WarpSpecialized] {
                let mut opts = ws_options(kind, m.n_transported(), &arch);
                opts.warps = opts.warps.min(4);
                let b = build_with_options(kind, &m, &arch, variant, &opts).unwrap();
                let r = timing_report(&b, &arch, 32 * 32 * 32);
                assert!(r.points_per_sec > 0.0, "{kind:?} {variant:?}");
            }
        }
    }
}
