//! The tuner (paper §4): one driver, two explorers.
//!
//! "We used a brute-force exhaustive autotuning script to drive Singe when
//! tuning our kernels. ... the search space was never more than a few
//! hundred points because warp-specialized decisions dealt with very
//! coarse-grained properties such as the number of target warps."
//!
//! [`run_search`] is the only place that ranks, caps, simulates and folds
//! a winner:
//!
//! 1. an explorer (behind the [`ScheduleSearch`] trait) proposes
//!    candidates and scores every one with the static performance model
//!    ([`crate::perfmodel`]: compile + predict, no interpretation);
//!    candidates that fail to compile score `+inf`;
//! 2. only the `sim_top_k` best-predicted survivors are *simulated*
//!    (`TimingOnly` probe launches, whose representative CTA runs on the
//!    segment-compiled engine), and the winner is the best **simulated**
//!    time among those.
//!
//! The two explorers are [`FixedList`] — the caller's candidates verbatim
//! (a grid from [`grid_options`], say): the paper's exhaustive sweep at
//! `sim_top_k >= len`, the model-guided sweep below that — and
//! [`BeamSearch`], which searches the *full* [`CompileOptions`] space:
//! warps, `point_iters`, [`Placement`], `uniform_shared_reads`,
//! `exp_const_from_registers`, the mapping weights on a coarse lattice,
//! and the arch-clamped `pipeline_depth`. Every point records its
//! prediction next to its measured seconds, so the model's ranking is
//! auditable from any [`SearchOutcome`]. [`Tuner`] binds the driver to
//! the compiler and the simulator.
//!
//! Neighbor generation respects architecture feasibility up front
//! ([`SearchSpace::canonical`]: warp budget, largest-fitting pipeline
//! depth, Buffer-placement read discipline), so what those three clamps
//! doom or duplicate is pruned before it is ever scored; candidates that
//! turn out to compile to one kernel for any other reason are scored once
//! between them ([`Tuner`]).
//!
//! Determinism: candidate expansion is pure, batches are scored on the
//! ordered worker pool ([`crate::pool::run_ordered`]) and folded in
//! input order, and all ranking ties break toward the earlier candidate —
//! results are bit-identical at any `--jobs` count.

use crate::codegen::{self, Compiled, EmitFlags, EmitPlan, Front, FrontKey};
use crate::compiler::{Compiler, StageTimer};
use crate::config::{CompileOptions, Placement};
use crate::dfg::Dfg;
use crate::kernels::probe_grid;
use crate::pool::run_ordered;
use crate::CResult;
use gpu_sim::arch::GpuArch;
use gpu_sim::launch::{launch_flat, LaunchConfig, LaunchInputs, LaunchMode};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Why a candidate produced no time: compilation and execution failures
/// are different tuner outcomes (a config that does not fit is a legal
/// probe result; a kernel that compiled but failed to launch points at a
/// harness or compiler bug) and must not be conflated.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneFailure {
    /// The candidate did not compile (message from the compiler).
    Compile(String),
    /// The candidate compiled but the probe launch failed (message from
    /// the simulator).
    Launch(String),
}

impl std::fmt::Display for TuneFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneFailure::Compile(m) => write!(f, "did not compile: {m}"),
            TuneFailure::Launch(m) => write!(f, "compiled but failed to run: {m}"),
        }
    }
}

/// How much work a tuning run may do. `sim_top_k` caps the oracle under
/// every explorer; the other three cap [`BeamSearch`]'s exploration.
///
/// `#[non_exhaustive]` so new knobs can ride along without breaking
/// downstream code; construct with [`SearchBudget::default`] or the
/// fluent [`SearchBudget::builder`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SearchBudget {
    /// Beam width: how many best-predicted candidates seed each round's
    /// neighbor expansion.
    pub beam_width: usize,
    /// Neighbor-expansion rounds after the seed beam is scored.
    pub rounds: usize,
    /// How many top-predicted candidates the simulation oracle runs: the
    /// exhaustive↔guided dial (at or above the candidate count, every
    /// compiled candidate is simulated).
    pub sim_top_k: usize,
    /// Hard cap on model scorings (each is one compile + one static
    /// prediction); expansion stops when the cap is reached.
    pub max_model_evals: usize,
}

impl Default for SearchBudget {
    fn default() -> SearchBudget {
        SearchBudget { beam_width: 8, rounds: 4, sim_top_k: 5, max_model_evals: 160 }
    }
}

impl SearchBudget {
    /// Start a fluent builder over the defaults.
    pub fn builder() -> SearchBudgetBuilder {
        SearchBudgetBuilder::default()
    }
}

/// Fluent builder for [`SearchBudget`]; finish with
/// [`SearchBudgetBuilder::build`].
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct SearchBudgetBuilder {
    budget: SearchBudget,
}

impl SearchBudgetBuilder {
    /// Beam width per round.
    pub fn beam_width(mut self, beam_width: usize) -> Self {
        self.budget.beam_width = beam_width;
        self
    }

    /// Neighbor-expansion rounds.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.budget.rounds = rounds;
        self
    }

    /// Simulation-oracle cap.
    pub fn sim_top_k(mut self, sim_top_k: usize) -> Self {
        self.budget.sim_top_k = sim_top_k;
        self
    }

    /// Model-evaluation cap.
    pub fn max_model_evals(mut self, max_model_evals: usize) -> Self {
        self.budget.max_model_evals = max_model_evals;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> SearchBudget {
        self.budget
    }
}

/// The warp-count axis every candidate grid shares (paper §4: "the search
/// space was never more than a few hundred points").
pub const GRID_WARPS: &[usize] = &[2, 3, 4, 6, 8, 10, 12, 16];

/// The one grid builder behind every candidate menu: the cartesian product
/// of `GRID_WARPS` x `iters` x `depths`, holding the placement fixed.
/// Depth only matters on streamed schedules, so K > 1 candidates are
/// generated only where `point_iters` can absorb the depth (the compiler
/// would clamp K to the stream depth anyway, producing duplicates).
///
/// The committed grids (`&[1, 2, 4]` x `&[1]` extended, `&[1, 4]` x
/// [`depth_menu`] pipelined) and the beam's seeds
/// ([`SearchSpace::seeds`]) are all parameterizations of this function —
/// a single source of truth for the enumeration order, which the
/// deterministic tuner depends on for first-best-wins ties.
pub fn grid_options(placement: Placement, iters: &[u32], depths: &[usize]) -> Vec<CompileOptions> {
    let mut v = Vec::new();
    for &warps in GRID_WARPS {
        for &iters in iters {
            for &k in depths {
                if k as u32 > iters {
                    continue; // the compiler would clamp K to the stream depth
                }
                v.push(CompileOptions {
                    warps,
                    point_iters: iters,
                    placement,
                    pipeline_depth: k,
                    ..Default::default()
                });
            }
        }
    }
    v
}

/// The pipeline-depth menu an architecture's named-barrier file supports:
/// wider where the file is large (every sync color costs K ids instead of
/// one). Candidates whose rotated-barrier demand still exceeds the file
/// are legal probes — they record a `Compile` failure and lose.
pub fn depth_menu(arch: &GpuArch) -> &'static [usize] {
    if arch.named_barriers_per_sm >= 64 {
        &[1, 2, 4]
    } else {
        &[1, 2]
    }
}

/// The searchable schedule space: one menu per [`CompileOptions`]
/// dimension, plus the architecture limits candidate admission enforces.
/// Fields are public so tests (and callers with domain knowledge) can
/// shrink or widen menus; [`SearchSpace::for_arch`] builds the default.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Warp-count menu.
    pub warps: Vec<usize>,
    /// Streaming point-iteration menu.
    pub point_iters: Vec<u32>,
    /// Placement alternatives (the base placement is always admitted).
    pub placements: Vec<Placement>,
    /// Pipeline-depth menu (already arch-clamped by [`for_arch`]).
    ///
    /// [`for_arch`]: SearchSpace::for_arch
    pub pipeline_depths: Vec<usize>,
    /// Mapping-weight lattices (coarse by design: the mapper only reacts
    /// to order-of-magnitude changes).
    pub w_flops: Vec<f64>,
    /// Register-balance weight lattice.
    pub w_regs: Vec<f64>,
    /// Locality weight lattice.
    pub w_locality: Vec<f64>,
    /// Explore flipping `uniform_shared_reads`.
    pub toggle_uniform_shared_reads: bool,
    /// Explore flipping `exp_const_from_registers`.
    pub toggle_exp_const: bool,
    /// Hard warp budget (from the architecture's per-SM warp file).
    pub max_warps: usize,
}

impl SearchSpace {
    /// The default search space for an architecture: the grid menus plus
    /// the axes no grid enumerates (placement moves, mapping weights,
    /// the §3.2/§6.1 toggles, an extra warp count and stream depth).
    pub fn for_arch(arch: &GpuArch) -> SearchSpace {
        SearchSpace {
            warps: vec![2, 3, 4, 6, 8, 10, 12, 14, 16],
            point_iters: vec![1, 2, 4, 8],
            placements: vec![
                Placement::Store,
                Placement::Mixed(88),
                Placement::Mixed(176),
                Placement::Buffer(176),
            ],
            pipeline_depths: depth_menu(arch).to_vec(),
            w_flops: vec![0.5, 1.0, 2.0],
            w_regs: vec![0.0, 0.5, 1.0],
            w_locality: vec![0.0, 0.25, 1.0],
            toggle_uniform_shared_reads: true,
            toggle_exp_const: true,
            max_warps: arch.max_warps_per_sm,
        }
    }

    /// Admit a candidate: apply three clamps the compiler would apply
    /// anyway — depth to the stream and the arch's menu, no uniform shared
    /// reads under `Placement::Buffer`, the warp budget (rejected: `None`,
    /// pruned, not scored) — so options that differ only in those collapse
    /// to one candidate. Only in those: two canonical candidates may still
    /// compile to one kernel (a mapping weight that moves no op, a depth
    /// the schedule's barriers or slots clamp further), which is known
    /// only once they are planned. [`Tuner`] recognises them there and
    /// finishes each distinct plan once.
    pub fn canonical(&self, mut o: CompileOptions) -> Option<CompileOptions> {
        if o.warps == 0 || o.warps > self.max_warps || o.point_iters == 0 {
            return None;
        }
        // Largest-fitting pipeline depth: the codegen clamp, applied up
        // front (depth cannot exceed the stream or the arch menu).
        o.pipeline_depth = self
            .pipeline_depths
            .iter()
            .copied()
            .filter(|&d| d <= o.pipeline_depth.max(1) && d as u32 <= o.point_iters)
            .max()
            .unwrap_or(1);
        // Buffer placement forces producer-register reads (the compiler
        // disables uniform shared reads there); canonicalize so the
        // toggle cannot mint duplicate Buffer candidates.
        if matches!(o.placement, Placement::Buffer(_)) {
            o.uniform_shared_reads = false;
        }
        Some(o)
    }

    /// Dedup key for a canonical candidate (the full options Debug form:
    /// every searchable dimension is a field).
    pub fn key(o: &CompileOptions) -> String {
        format!("{o:?}")
    }

    /// The seed beam: `base` itself plus the unified grid
    /// ([`grid_options`]) over this space's warp/iteration/depth menus at
    /// the base placement.
    pub fn seeds(&self, base: &CompileOptions) -> Vec<CompileOptions> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut push = |o: CompileOptions, out: &mut Vec<CompileOptions>| {
            if seen.insert(Self::key(&o)) {
                out.push(o);
            }
        };
        if let Some(b) = self.canonical(base.clone()) {
            push(b, &mut out);
        }
        let grid = grid_options(base.placement, &self.point_iters, &self.pipeline_depths);
        for g in grid {
            // Grid entries use default warp counts; keep only menu warps.
            if !self.warps.contains(&g.warps) {
                continue;
            }
            if let Some(c) = self.canonical(g) {
                push(c, &mut out);
            }
        }
        out
    }

    /// Single-dimension neighbor moves from `o`: one step along each
    /// menu axis (toward both menu neighbors), every alternative
    /// placement, and the boolean toggles. All results are canonical;
    /// infeasible moves are pruned here, never scored.
    pub fn neighbors(&self, o: &CompileOptions) -> Vec<CompileOptions> {
        let mut raw: Vec<CompileOptions> = Vec::new();
        for w in menu_steps(&self.warps, o.warps, |&v| v as f64) {
            raw.push(CompileOptions { warps: w, ..o.clone() });
        }
        for it in menu_steps(&self.point_iters, o.point_iters, |&v| v as f64) {
            raw.push(CompileOptions { point_iters: it, ..o.clone() });
        }
        for d in menu_steps(&self.pipeline_depths, o.pipeline_depth, |&v| v as f64) {
            raw.push(CompileOptions { pipeline_depth: d, ..o.clone() });
        }
        for &p in &self.placements {
            if p != o.placement {
                raw.push(CompileOptions { placement: p, ..o.clone() });
            }
        }
        if self.toggle_uniform_shared_reads {
            raw.push(CompileOptions { uniform_shared_reads: !o.uniform_shared_reads, ..o.clone() });
        }
        if self.toggle_exp_const {
            raw.push(CompileOptions {
                exp_const_from_registers: !o.exp_const_from_registers,
                ..o.clone()
            });
        }
        for w in menu_steps(&self.w_flops, o.w_flops, |&v| v) {
            raw.push(CompileOptions { w_flops: w, ..o.clone() });
        }
        for w in menu_steps(&self.w_regs, o.w_regs, |&v| v) {
            raw.push(CompileOptions { w_regs: w, ..o.clone() });
        }
        for w in menu_steps(&self.w_locality, o.w_locality, |&v| v) {
            raw.push(CompileOptions { w_locality: w, ..o.clone() });
        }
        raw.into_iter().filter_map(|c| self.canonical(c)).collect()
    }

    /// Exhaustively enumerate the whole (canonical, deduplicated) space
    /// with non-menu fields taken from `base`. Meant for tests and small
    /// custom spaces — the default space is ~10^4 points.
    pub fn enumerate(&self, base: &CompileOptions) -> Vec<CompileOptions> {
        let bools = |t: bool, b: bool| if t { vec![false, true] } else { vec![b] };
        let usr_menu = bools(self.toggle_uniform_shared_reads, base.uniform_shared_reads);
        let exp_menu = bools(self.toggle_exp_const, base.exp_const_from_registers);
        let mut placements = self.placements.clone();
        if !placements.contains(&base.placement) {
            placements.insert(0, base.placement);
        }
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for &warps in &self.warps {
            for &point_iters in &self.point_iters {
                for &placement in &placements {
                    for &pipeline_depth in &self.pipeline_depths {
                        for &w_flops in &self.w_flops {
                            for &w_regs in &self.w_regs {
                                for &w_locality in &self.w_locality {
                                    for &uniform_shared_reads in &usr_menu {
                                        for &exp_const_from_registers in &exp_menu {
                                            let c = CompileOptions {
                                                warps,
                                                point_iters,
                                                placement,
                                                pipeline_depth,
                                                w_flops,
                                                w_regs,
                                                w_locality,
                                                uniform_shared_reads,
                                                exp_const_from_registers,
                                                ..base.clone()
                                            };
                                            if let Some(c) = self.canonical(c) {
                                                if seen.insert(Self::key(&c)) {
                                                    out.push(c);
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Both menu neighbors of `v` (plus the nearest menu value itself when
/// `v` is off-lattice, snapping it on). Ties toward the lower index.
fn menu_steps<T: Copy + PartialEq>(menu: &[T], v: T, as_f: impl Fn(&T) -> f64) -> Vec<T> {
    if menu.is_empty() {
        return Vec::new();
    }
    let vf = as_f(&v);
    let mut nearest = 0usize;
    let mut best = f64::INFINITY;
    for (i, m) in menu.iter().enumerate() {
        let d = (as_f(m) - vf).abs();
        if d < best {
            best = d;
            nearest = i;
        }
    }
    let mut out = Vec::new();
    if menu[nearest] != v {
        out.push(menu[nearest]);
    }
    if nearest > 0 {
        out.push(menu[nearest - 1]);
    }
    if nearest + 1 < menu.len() {
        out.push(menu[nearest + 1]);
    }
    out
}

/// One model-scored candidate, in evaluation order.
#[derive(Debug, Clone)]
pub struct ExploredPoint {
    /// The canonical candidate.
    pub options: CompileOptions,
    /// Model-predicted probe-grid seconds (`+inf` = did not compile).
    pub predicted_seconds: f64,
    /// Which expansion round produced it (0 = seed beam).
    pub round: usize,
}

/// Batch cost closure: candidates in, model-predicted probe seconds out, in
/// input order (`Err` = why the candidate did not compile, carried onto
/// the corresponding [`SearchPoint`]).
pub type ScoreFn<'a> = dyn FnMut(&[CompileOptions]) -> Vec<Result<f64, String>> + 'a;

/// Batch oracle closure: chosen survivors in, measured probe seconds
/// out, in input order (`Err` = launch failure, carried verbatim onto
/// the corresponding [`SearchPoint`]).
pub type SimulateFn<'a> = dyn FnMut(&[CompileOptions]) -> Vec<Result<f64, String>> + 'a;

/// An explorer: propose candidates, score them in batches through the
/// caller's cost closure, return every scored point in evaluation
/// order. Explorers never simulate — the oracle split lives in
/// [`run_search`], shared by every implementation.
pub trait ScheduleSearch: Sync {
    /// Explorer name (recorded as [`SearchOutcome::strategy`]).
    fn name(&self) -> &'static str;

    /// Explore the space from `base` under `budget`. `score` maps a
    /// batch of canonical candidates to predicted seconds (`+inf` for
    /// candidates that fail to compile) and must be called in
    /// deterministic batch order.
    fn explore(
        &self,
        space: &SearchSpace,
        base: &CompileOptions,
        budget: &SearchBudget,
        score: &mut dyn FnMut(&[CompileOptions]) -> Vec<f64>,
    ) -> Vec<ExploredPoint>;
}

/// Deterministic beam search: score the seed beam (the unified grid),
/// then for each round expand single-dimension neighbors of the
/// `beam_width` best-predicted candidates seen so far, skipping
/// everything already scored, until the round count or the
/// model-evaluation cap is reached.
#[derive(Debug, Clone, Copy, Default)]
pub struct BeamSearch;

impl ScheduleSearch for BeamSearch {
    fn name(&self) -> &'static str {
        "beam"
    }

    fn explore(
        &self,
        space: &SearchSpace,
        base: &CompileOptions,
        budget: &SearchBudget,
        score: &mut dyn FnMut(&[CompileOptions]) -> Vec<f64>,
    ) -> Vec<ExploredPoint> {
        let mut points: Vec<ExploredPoint> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        let mut batch: Vec<CompileOptions> = Vec::new();
        for s in space.seeds(base) {
            if points.len() + batch.len() >= budget.max_model_evals {
                break;
            }
            if seen.insert(SearchSpace::key(&s)) {
                batch.push(s);
            }
        }
        let scores = score(&batch);
        for (o, s) in batch.into_iter().zip(scores) {
            points.push(ExploredPoint { options: o, predicted_seconds: s, round: 0 });
        }

        for round in 1..=budget.rounds {
            let headroom = budget.max_model_evals.saturating_sub(points.len());
            if headroom == 0 {
                break;
            }
            // The beam: best-predicted finite candidates scored so far,
            // ties toward the earlier evaluation.
            let mut order: Vec<usize> =
                (0..points.len()).filter(|&i| points[i].predicted_seconds.is_finite()).collect();
            order.sort_by(|&a, &b| {
                points[a]
                    .predicted_seconds
                    .total_cmp(&points[b].predicted_seconds)
                    .then(a.cmp(&b))
            });
            let mut batch: Vec<CompileOptions> = Vec::new();
            'expand: for &i in order.iter().take(budget.beam_width) {
                for n in space.neighbors(&points[i].options) {
                    if batch.len() >= headroom {
                        break 'expand;
                    }
                    if seen.insert(SearchSpace::key(&n)) {
                        batch.push(n);
                    }
                }
            }
            if batch.is_empty() {
                break; // converged: the beam's whole neighborhood is scored
            }
            let scores = score(&batch);
            for (o, s) in batch.into_iter().zip(scores) {
                points.push(ExploredPoint { options: o, predicted_seconds: s, round });
            }
        }
        points
    }
}

/// The caller's candidate list, verbatim and in order, as one round-0
/// batch — no canonicalisation, no dedup, and none of the budget's
/// exploration caps (`beam_width`, `rounds`, `max_model_evals` bound a
/// search, not a list the caller supplied). With `sim_top_k >= len` this
/// is the paper's exhaustive sweep; with a smaller K, the model-guided
/// one that simulates only the K best-predicted candidates.
#[derive(Debug, Clone, Copy)]
pub struct FixedList<'a>(pub &'a [CompileOptions]);

impl ScheduleSearch for FixedList<'_> {
    fn name(&self) -> &'static str {
        "fixed-list"
    }

    fn explore(
        &self,
        _space: &SearchSpace,
        _base: &CompileOptions,
        _budget: &SearchBudget,
        score: &mut dyn FnMut(&[CompileOptions]) -> Vec<f64>,
    ) -> Vec<ExploredPoint> {
        let scored = self.0.iter().cloned().zip(score(self.0));
        scored
            .map(|(options, predicted_seconds)| ExploredPoint { options, predicted_seconds, round: 0 })
            .collect()
    }
}

/// One candidate in a [`SearchOutcome`], in evaluation order.
#[derive(Debug, Clone)]
pub struct SearchPoint {
    /// The canonical candidate.
    pub options: CompileOptions,
    /// Model-predicted probe seconds (`None` = did not compile).
    pub predicted_seconds: Option<f64>,
    /// Oracle-simulated probe seconds (`None` = pruned from simulation,
    /// or the candidate failed — see `failure`).
    pub simulated_seconds: Option<f64>,
    /// Why a candidate that was not pruned has no time: the oracle's
    /// `Launch` error, or the message `score` gave for a compile that
    /// failed ([`run_search_explained`]).
    pub failure: Option<TuneFailure>,
    /// Expansion round that produced the candidate (0 = seed beam).
    pub round: usize,
}

/// Per-round trajectory entry (for the `--search` example and reports).
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Round index (0 = seed beam).
    pub round: usize,
    /// Candidates scored in this round.
    pub evaluated: usize,
    /// Best model prediction seen up to and including this round.
    pub best_predicted: Option<f64>,
    /// Best oracle simulation among candidates discovered by this round
    /// (`None` until the round that produced a simulated survivor).
    pub best_simulated: Option<f64>,
}

/// Everything a search run produced: the audit trail plus the winner.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Which explorer ran (`"beam"` or `"fixed-list"`).
    pub strategy: &'static str,
    /// Every scored candidate, in evaluation order, with oracle results
    /// attached to the simulated ones.
    pub points: Vec<SearchPoint>,
    /// Per-round trajectory.
    pub rounds: Vec<RoundStats>,
    /// Candidates scored by the model (compiles + predictions).
    pub model_evals: usize,
    /// Candidates simulated by the oracle.
    pub simulations: usize,
    /// The winning options (best simulated time).
    pub best_options: CompileOptions,
    /// The winner's model prediction.
    pub best_predicted_seconds: Option<f64>,
    /// The winner's simulated probe seconds.
    pub best_seconds: f64,
}

impl SearchOutcome {
    /// Fraction of model-scored candidates the oracle simulated.
    pub fn sim_fraction(&self) -> f64 {
        if self.model_evals == 0 {
            0.0
        } else {
            self.simulations as f64 / self.model_evals as f64
        }
    }
}

/// [`run_search_explained`] for a `score` that can only say `+inf` of a
/// candidate that did not compile: such a point carries no `failure`. Kept
/// with this signature because the frozen `benchmark/` crate calls it.
pub fn run_search(
    strategy: &dyn ScheduleSearch,
    space: &SearchSpace,
    base: &CompileOptions,
    budget: &SearchBudget,
    score: &mut dyn FnMut(&[CompileOptions]) -> Vec<f64>,
    simulate: &mut SimulateFn<'_>,
) -> CResult<SearchOutcome> {
    let mut score = |cands: &[CompileOptions]| score(cands).into_iter().map(Ok).collect();
    run_search_explained(strategy, space, base, budget, &mut score, simulate)
}

/// Run an explorer end to end with caller-supplied cost and oracle
/// closures, returning the full [`SearchOutcome`].
///
/// This is the driver behind [`Tuner::tune`]: `score` maps a candidate
/// batch to model-predicted seconds
/// (`Err` = the compile message of a candidate that did not compile),
/// `simulate` maps the chosen survivors to measured probe seconds (`Err` =
/// launch failure). The oracle phase ranks every finite-scored candidate
/// by (prediction, evaluation order), simulates the top
/// `budget.sim_top_k`, and picks the best simulated time (strict `<`,
/// first-best-wins in rank order). When no candidate ran, the error
/// carries the first failure in candidate order.
pub fn run_search_explained(
    strategy: &dyn ScheduleSearch,
    space: &SearchSpace,
    base: &CompileOptions,
    budget: &SearchBudget,
    score: &mut ScoreFn<'_>,
    simulate: &mut SimulateFn<'_>,
) -> CResult<SearchOutcome> {
    // The explorers see a failed compile as +inf (never chosen for
    // simulation); its message waits here, by candidate, for the points.
    let mut compile_failures: HashMap<String, String> = HashMap::new();
    let mut seconds = |cands: &[CompileOptions]| -> Vec<f64> {
        let or_inf = |(scored, o): (Result<f64, String>, &CompileOptions)| {
            scored.unwrap_or_else(|message| {
                compile_failures.insert(SearchSpace::key(o), message);
                f64::INFINITY
            })
        };
        score(cands).into_iter().zip(cands).map(or_inf).collect()
    };
    let explored = strategy.explore(space, base, budget, &mut seconds);
    let model_evals = explored.len();

    // Oracle phase: rank by (predicted, eval order), simulate the top K.
    let mut ranked: Vec<usize> =
        (0..explored.len()).filter(|&i| explored[i].predicted_seconds.is_finite()).collect();
    ranked.sort_by(|&a, &b| {
        explored[a].predicted_seconds.total_cmp(&explored[b].predicted_seconds).then(a.cmp(&b))
    });
    let chosen: Vec<usize> = ranked.into_iter().take(budget.sim_top_k).collect();
    let chosen_opts: Vec<CompileOptions> =
        chosen.iter().map(|&i| explored[i].options.clone()).collect();
    let sims = simulate(&chosen_opts);

    let mut points: Vec<SearchPoint> = explored
        .into_iter()
        .map(|p| {
            let compiled = p.predicted_seconds.is_finite();
            let message =
                if compiled { None } else { compile_failures.get(&SearchSpace::key(&p.options)) };
            SearchPoint {
                predicted_seconds: compiled.then_some(p.predicted_seconds),
                simulated_seconds: None,
                failure: message.map(|m| TuneFailure::Compile(m.clone())),
                round: p.round,
                options: p.options,
            }
        })
        .collect();
    let mut best: Option<(f64, usize)> = None;
    for (j, res) in sims.iter().enumerate() {
        let i = chosen[j];
        match res {
            Ok(sec) => {
                points[i].simulated_seconds = Some(*sec);
                // Strict `<` keeps first-best-wins in rank order.
                if best.is_none_or(|(b, _)| *sec < b) {
                    best = Some((*sec, i));
                }
            }
            Err(e) => points[i].failure = Some(TuneFailure::Launch(e.clone())),
        }
    }
    let (best_seconds, bi) = best.ok_or_else(|| {
        let why = match points.iter().find_map(|p| p.failure.as_ref()) {
            Some(first) => format!("no schedule-search candidate ran; the first {first}"),
            None => "no schedule-search candidate ran".into(),
        };
        crate::CompileError::ResourceExhausted(why)
    })?;

    // Trajectory rollup: cumulative bests per round.
    let max_round = points.iter().map(|p| p.round).max().unwrap_or(0);
    let mut rounds = Vec::with_capacity(max_round + 1);
    let mut best_pred: Option<f64> = None;
    let mut best_sim: Option<f64> = None;
    for r in 0..=max_round {
        let mut evaluated = 0usize;
        for p in points.iter().filter(|p| p.round == r) {
            evaluated += 1;
            if let Some(ps) = p.predicted_seconds {
                if best_pred.is_none_or(|b| ps < b) {
                    best_pred = Some(ps);
                }
            }
            if let Some(ss) = p.simulated_seconds {
                if best_sim.is_none_or(|b| ss < b) {
                    best_sim = Some(ss);
                }
            }
        }
        rounds.push(RoundStats { round: r, evaluated, best_predicted: best_pred, best_simulated: best_sim });
    }

    Ok(SearchOutcome {
        strategy: strategy.name(),
        simulations: chosen.len(),
        model_evals,
        best_options: points[bi].options.clone(),
        best_predicted_seconds: points[bi].predicted_seconds,
        best_seconds,
        points,
        rounds,
    })
}

/// A schedule-search result: the winning compile plus the audit trail.
#[derive(Debug)]
pub struct SearchResult {
    /// The winning compile (best simulated probe time).
    pub best: Compiled,
    /// The full search outcome (every scored point, rounds, counts).
    pub outcome: SearchOutcome,
    /// How much of the score phase was new: the distinct plans handed to
    /// the code generator, against `outcome.model_evals` candidates scored.
    /// The rest arrived at the plan of an earlier candidate and took its
    /// score (see [`Tuner`]).
    pub kernels_emitted: usize,
    /// How much of the planning was new: the distinct front-half inputs
    /// (mapping and schedule options) mapped, scheduled and allocated,
    /// against the candidates planned. The rest shared an earlier
    /// candidate's front half (see [`Tuner`]).
    pub fronts_planned: usize,
}

/// The one compile + simulate binding of [`run_search`]. The graph is
/// analysed once for all candidates, and a candidate costs what is new
/// about it, twice over:
///
/// * **The front half** (map, schedule, check, allocate) reads only some
///   options, the ones a `codegen::FrontKey` holds. Each batch's keys this
///   `tune` call has not met are planned on the ordered pool, once each;
///   then every candidate resolves the rest of its options against its
///   key's front half, which makes its plan (the first half of a compile).
/// * **The back half**: only the plans this call has not met are emitted,
///   verified and scored by the static model over the flattening the
///   verifier made, in the order they were first seen. A candidate whose
///   plan equals an earlier one's takes that one's score, or its failure
///   message: equal plans compile to equal bytes.
///
/// The memos holding this are locals of the call, keyed by full equality —
/// of the key, of the front half, of the plan — so nothing outlives the
/// search and no hash collision can lend a candidate another's score.
///
/// Nothing compiled is kept across the score phase (a beam scores 160
/// candidates): the `sim_top_k` survivors are compiled again to be probed
/// with a `TimingOnly` launch over that compile's flattening, and so is the
/// winner to be handed back — one emit, one hash and a verifier memo hit
/// each.
///
/// Built by [`Compiler::search`], which supplies the arch and the base
/// options; space, budget and worker count start at their defaults.
#[derive(Debug, Clone)]
#[must_use = "a tuner does nothing until .tune() is called"]
pub struct Tuner {
    compiler: Compiler,
    space: SearchSpace,
    budget: SearchBudget,
    jobs: usize,
}

impl Tuner {
    pub(crate) fn new(compiler: &Compiler) -> Tuner {
        Tuner {
            compiler: compiler.clone(),
            space: SearchSpace::for_arch(compiler.arch()),
            budget: SearchBudget::default(),
            jobs: crate::pool::default_jobs(),
        }
    }

    /// Replace the schedule space ([`SearchSpace::for_arch`] by default).
    pub fn space(mut self, space: SearchSpace) -> Tuner {
        self.space = space;
        self
    }

    /// Replace the budget ([`SearchBudget::default`] by default).
    pub fn budget(mut self, budget: SearchBudget) -> Tuner {
        self.budget = budget;
        self
    }

    /// Replace the worker count ([`crate::pool::default_jobs`] by
    /// default). Batches are scored and simulated on the ordered pool and
    /// folded in input order, so the result is bit-identical at any count.
    pub fn jobs(mut self, jobs: usize) -> Tuner {
        self.jobs = jobs;
        self
    }

    /// Tune `dfg`: run `explorer` through [`run_search`] and compile the
    /// winner. Each candidate is probed on `probe_points` points rounded
    /// up to whole CTAs ([`probe_grid`]); `inputs_for` supplies the launch
    /// arrays for a kernel and that grid size
    /// ([`crate::kernels::probe_inputs`]).
    pub fn tune(
        &self,
        dfg: &Dfg,
        explorer: &dyn ScheduleSearch,
        probe_points: usize,
        inputs_for: &(dyn Fn(&gpu_sim::isa::Kernel, usize) -> Vec<Vec<f64>> + Sync),
    ) -> CResult<SearchResult> {
        let (arch, jobs) = (self.compiler.arch(), self.jobs);
        // One analysis of the graph serves every candidate; a graph that
        // does not validate fails each of them with that verdict.
        let facts = dfg.facts();
        let front = |key: &FrontKey| -> CResult<Front> {
            facts.as_ref().map_err(Clone::clone)?;
            codegen::front_half(dfg, key, arch, &mut StageTimer::new(None))
        };
        let finish = |plan: &EmitPlan| -> CResult<Compiled> {
            let facts = facts.as_ref().map_err(Clone::clone)?;
            codegen::finish(dfg, facts, plan, arch, &mut StageTimer::new(None))
        };
        let build = |o: &CompileOptions| {
            let front = front(&FrontKey::of(o))?;
            finish(&EmitPlan::new(Arc::new(front), o, arch))
        };
        // Every front half planned so far, by key: the index of its value
        // among the distinct ones, or the compiler's message.
        let mut planned: HashMap<FrontKey, Result<usize, String>> = HashMap::new();
        let mut fronts: Vec<Arc<Front>> = Vec::new();
        let mut front_of: HashMap<Arc<Front>, usize> = HashMap::new();
        // The score, or the compiler's message, of every plan finished so
        // far: a plan is its front half's index and its flags.
        let mut scored: HashMap<(usize, EmitFlags), Result<f64, String>> = HashMap::new();
        let mut score = |cands: &[CompileOptions]| -> Vec<Result<f64, String>> {
            let keys: Vec<FrontKey> = cands.iter().map(FrontKey::of).collect();
            let mut new_keys: Vec<FrontKey> = Vec::new();
            for key in &keys {
                if !planned.contains_key(key) && !new_keys.contains(key) {
                    new_keys.push(*key);
                }
            }
            let halves = run_ordered(jobs, new_keys.len(), |i| front(&new_keys[i]));
            for (key, half) in new_keys.into_iter().zip(halves) {
                let at = half.map_err(|e| e.to_string()).map(|half| {
                    *front_of.entry(Arc::new(half)).or_insert_with_key(|half| {
                        fronts.push(half.clone());
                        fronts.len() - 1
                    })
                });
                planned.insert(key, at);
            }
            let plans: Vec<Result<(usize, EmitPlan), String>> = cands
                .iter()
                .zip(&keys)
                .map(|(o, key)| {
                    let at = planned[key].clone()?;
                    Ok((at, EmitPlan::new(fronts[at].clone(), o, arch)))
                })
                .collect();
            let mut fresh: Vec<(usize, &EmitPlan)> = Vec::new();
            for (at, plan) in plans.iter().flatten() {
                let key = (*at, plan.flags);
                if !scored.contains_key(&key) && !fresh.iter().any(|&(a, p)| (a, p.flags) == key) {
                    fresh.push((*at, plan));
                }
            }
            let scores = run_ordered(jobs, fresh.len(), |i| {
                let c = finish(fresh[i].1).map_err(|e| e.to_string())?;
                let grid = probe_grid(&c.kernel, probe_points);
                let predicted = crate::perfmodel::predict_flat(&c.kernel, &c.flat(), arch, grid);
                Ok(predicted.map_or(f64::INFINITY, |m| m.seconds()))
            });
            scored.extend(fresh.into_iter().map(|(at, plan)| (at, plan.flags)).zip(scores));
            plans.into_iter().map(|p| p.and_then(|(at, plan)| scored[&(at, plan.flags)].clone())).collect()
        };
        let mut simulate = |cands: &[CompileOptions]| -> Vec<Result<f64, String>> {
            run_ordered(jobs, cands.len(), |i| {
                let c = build(&cands[i]).map_err(|e| e.to_string())?;
                let grid = probe_grid(&c.kernel, probe_points);
                let owned = inputs_for(&c.kernel, grid);
                let arrays: Vec<&[f64]> = owned.iter().map(|v| v.as_slice()).collect();
                let config = LaunchConfig { mode: LaunchMode::TimingOnly, ..LaunchConfig::default() };
                launch_flat(&c.kernel, &c.flat(), arch, &LaunchInputs { arrays }, grid, config)
                    .map(|out| out.report.seconds)
                    .map_err(|e| e.to_string())
            })
        };
        let base = self.compiler.options_ref();
        let outcome = run_search_explained(
            explorer, &self.space, base, &self.budget, &mut score, &mut simulate,
        )?;
        // Re-compile the winner (compilation is deterministic, and the
        // verifier remembers its verdict) so callers get a runnable artifact.
        let best = build(&outcome.best_options)?;
        Ok(SearchResult { best, outcome, kernels_emitted: scored.len(), fronts_planned: planned.len() })
    }
}

/// [`BeamSearch`] over [`SearchSpace::for_arch`] seeded at `base`: a
/// [`Tuner::tune`] call spelled as a free function. Kept because the
/// frozen `benchmark/` crate imports it by this path and signature; new
/// code uses [`Compiler::search`].
pub fn autotune_search_with_jobs(
    dfg: &Dfg,
    arch: &GpuArch,
    base: &CompileOptions,
    budget: &SearchBudget,
    probe_points: usize,
    inputs_for: &(dyn Fn(&gpu_sim::isa::Kernel, usize) -> Vec<Vec<f64>> + Sync),
    jobs: usize,
) -> CResult<SearchResult> {
    let tuner = Compiler::new(arch).options(base.clone()).search();
    tuner.budget(budget.clone()).jobs(jobs).tune(dfg, &BeamSearch, probe_points, inputs_for)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VerifyLevel;
    use crate::kernels::diffusion::diffusion_dfg;
    use crate::kernels::probe_inputs;
    use crate::kernels::viscosity::viscosity_dfg;
    use chemkin::reference::tables::{DiffusionTables, ViscosityTables};
    use chemkin::synth;

    /// A six-species viscosity graph at three warps.
    fn small_dfg() -> Dfg {
        let m = synth::via_text(&synth::SynthConfig {
            name: "at".into(),
            n_species: 6,
            n_reactions: 8,
            n_qssa: 0,
            n_stiff: 0,
            seed: 4,
        });
        viscosity_dfg(&ViscosityTables::build(&m), 3)
    }

    /// `FixedList(cands)` on `arch` with `sim_top_k` simulations.
    fn sweep(arch: &GpuArch, cands: &[CompileOptions], sim_top_k: usize) -> SearchOutcome {
        let budget = SearchBudget::builder().sim_top_k(sim_top_k).build();
        let tuner = Compiler::new(arch).search().budget(budget);
        tuner.tune(&small_dfg(), &FixedList(cands), 256, &probe_inputs(6, 1)).unwrap().outcome
    }

    /// How many of a search's candidates compiled (and so were scored).
    fn compiled(found: &SearchOutcome) -> usize {
        found.points.iter().filter(|p| p.predicted_seconds.is_some()).count()
    }

    fn with_warps(warps: &[usize]) -> Vec<CompileOptions> {
        warps.iter().map(|&w| CompileOptions::with_warps(w)).collect()
    }

    #[test]
    fn budget_defaults_reproduce_the_historical_caps() {
        let b = SearchBudget::default();
        assert_eq!((b.beam_width, b.rounds, b.sim_top_k, b.max_model_evals), (8, 4, 5, 160));
        let built = SearchBudget::builder().beam_width(3).rounds(1).build();
        assert_eq!(built.beam_width, 3);
        assert_eq!(built.rounds, 1);
        assert_eq!(built.sim_top_k, 5);
    }

    #[test]
    fn exhaustive_sweep_picks_a_valid_config() {
        let r = sweep(&GpuArch::kepler_k20c(), &with_warps(&[2, 3, 4]), 3);
        assert_eq!(r.strategy, "fixed-list");
        assert_eq!(r.points.len(), 3);
        assert!(r.points.iter().any(|p| p.simulated_seconds.is_some()));
        assert!(r.best_options.warps >= 2);
    }

    #[test]
    fn candidate_grid_has_coarse_dimensions() {
        assert_eq!(grid_options(Placement::Store, &[1, 4], &[1]).len(), 16);
    }

    #[test]
    fn extended_grid_has_finer_streaming_axis() {
        let g = grid_options(Placement::Store, &[1, 2, 4], &[1]);
        assert_eq!(g.len(), 24);
        // Guided search at the default K never simulates more than 25%.
        assert!(SearchBudget::default().sim_top_k * 4 <= g.len());
    }

    #[test]
    fn pipelined_grid_scales_depth_menu_with_the_barrier_file() {
        let pipelined = |arch: &GpuArch| grid_options(Placement::Store, &[1, 4], depth_menu(arch));
        let hopper = pipelined(&GpuArch::hopper());
        let kepler = pipelined(&GpuArch::kepler_k20c());
        // 8 warp counts x (iters=1 -> K=1 only, iters=4 -> full menu).
        assert_eq!(hopper.len(), 8 * (1 + 3));
        assert_eq!(kepler.len(), 8 * (1 + 2));
        assert!(hopper.iter().any(|o| o.pipeline_depth == 4));
        assert!(kepler.iter().all(|o| o.pipeline_depth <= 2));
        // Depth never exceeds what the stream can absorb.
        for o in hopper.iter().chain(&kepler) {
            assert!(o.pipeline_depth as u32 <= o.point_iters.max(1));
        }
    }

    #[test]
    fn failed_candidates_record_distinct_reasons() {
        // Absurd warp count: cannot fit the SM, must record a Compile
        // failure (not a bare seconds=None).
        let r = sweep(&GpuArch::kepler_k20c(), &with_warps(&[3, 4096]), 2);
        assert!(r.points[0].simulated_seconds.is_some());
        assert!(r.points[0].failure.is_none());
        assert!(r.points[1].simulated_seconds.is_none());
        assert!(matches!(r.points[1].failure, Some(TuneFailure::Compile(_))));
    }

    #[test]
    fn a_lone_failing_candidate_is_returned_with_its_reason() {
        // The one-slot buffered placement cannot hold the kernel's live
        // values: no candidate runs, and the error says why the first did
        // not, in the compiler's words.
        let arch = GpuArch::kepler_k20c();
        let lone = CompileOptions::builder().warps(3).placement(Placement::Buffer(1)).build();
        let compiler = Compiler::new(&arch).options(lone.clone());
        let reason = compiler
            .compile(&small_dfg(), crate::Variant::WarpSpecialized)
            .expect_err("a one-slot buffer does not fit")
            .to_string();
        let tuned = Compiler::new(&arch).search().tune(
            &small_dfg(),
            &FixedList(std::slice::from_ref(&lone)),
            256,
            &probe_inputs(6, 1),
        );
        let error = tuned.expect_err("no candidate ran").to_string();
        assert!(error.contains("no schedule-search candidate ran"), "{error}");
        assert!(error.contains(&reason), "{error} should carry {reason}");
    }

    /// Every point of `found` against a compile of its options on their
    /// own, through the public compiler and the public model: the same
    /// score to the bit, or the same message.
    fn assert_points_are_lone_compiles(dfg: &Dfg, arch: &GpuArch, points: usize, found: &SearchOutcome) {
        for p in &found.points {
            let compiler = Compiler::new(arch).options(p.options.clone());
            match compiler.compile(dfg, crate::Variant::WarpSpecialized) {
                Ok(lone) => {
                    let grid = probe_grid(&lone.kernel, points);
                    let want = crate::perfmodel::predict_seconds(&lone.kernel, arch, grid);
                    let bits = |s: Option<f64>| s.map(f64::to_bits);
                    assert_eq!(bits(p.predicted_seconds), bits(want), "{:?}", p.options);
                    assert!(!matches!(p.failure, Some(TuneFailure::Compile(_))), "{:?}", p.options);
                }
                Err(e) => {
                    assert_eq!(p.predicted_seconds, None, "{:?}", p.options);
                    assert_eq!(p.failure, Some(TuneFailure::Compile(e.to_string())), "{:?}", p.options);
                }
            }
        }
    }

    #[test]
    fn a_candidate_that_repeats_a_plan_scores_as_a_compile_of_its_own() {
        let dfg = small_dfg();
        let o = CompileOptions::builder().warps(3).point_iters(4).build();
        let depth = |k| CompileOptions { pipeline_depth: k, ..o.clone() };
        // The §6.2 ablation under the Strict verifier: planned, emitted,
        // and then refused — a failure the memo has to remember.
        let ablated = CompileOptions { unsafe_remove_barriers: true, verify: VerifyLevel::Strict, ..o.clone() };
        let list = vec![
            // The same options twice.
            o.clone(),
            o.clone(),
            // Three weights that move none of the graph's pinned ops.
            CompileOptions { w_flops: 0.5, ..o.clone() },
            CompileOptions { w_regs: 0.0, ..o.clone() },
            CompileOptions { w_locality: 1.0, ..o.clone() },
            // Three depths of one schedule.
            depth(1),
            depth(2),
            depth(4),
            // Two spellings of a plan that fails after it is made, and two
            // options that never get one (the graph is built for 3 warps).
            ablated.clone(),
            CompileOptions { w_regs: 1.0, ..ablated },
            CompileOptions { warps: 2, ..o.clone() },
            CompileOptions { warps: 2, w_flops: 2.0, ..o.clone() },
        ];
        for arch in [GpuArch::kepler_k20c(), GpuArch::hopper()] {
            for jobs in [1, 8] {
                let budget = SearchBudget::builder().sim_top_k(list.len()).build();
                let tuner = Compiler::new(&arch).search().budget(budget).jobs(jobs);
                let found = tuner.tune(&dfg, &FixedList(&list), 256, &probe_inputs(6, 1)).unwrap();
                assert_points_are_lone_compiles(&dfg, &arch, 256, &found.outcome);
                assert_eq!(compiled(&found.outcome), 8, "{}", arch.name);
                // One plan for the five spellings of `o` and `depth(1)`, at
                // most one each for the two deeper rings, one refused.
                assert!((2..=4).contains(&found.kernels_emitted), "{}", found.kernels_emitted);
            }
        }
        // And a whole search of the same graph, whose beam is mostly
        // weight, toggle and depth moves.
        let arch = GpuArch::kepler_k20c();
        for jobs in [1, 8] {
            let tuner = Compiler::new(&arch).options(o.clone()).search().jobs(jobs);
            let found = tuner.tune(&dfg, &BeamSearch, 256, &probe_inputs(6, 1)).unwrap();
            assert_points_are_lone_compiles(&dfg, &arch, 256, &found.outcome);
            assert!(found.kernels_emitted < compiled(&found.outcome), "{}", found.kernels_emitted);
        }
    }

    /// The two `search_tune`-shaped rows: DME viscosity on Kepler and DME
    /// diffusion on Hopper, at `singe_serve::default_options`' values.
    fn default_rows() -> [(Dfg, GpuArch, CompileOptions); 2] {
        let mech = synth::dme();
        let options = |warps, placement| {
            CompileOptions::builder().warps(warps).point_iters(4).placement(placement).build()
        };
        let viscosity = options(10, Placement::Store);
        let diffusion = options(15, Placement::Mixed(176));
        [
            (
                viscosity_dfg(&ViscosityTables::build(&mech), viscosity.warps),
                GpuArch::kepler_k20c(),
                viscosity,
            ),
            (
                diffusion_dfg(&DiffusionTables::build(&mech), diffusion.warps),
                GpuArch::hopper(),
                diffusion,
            ),
        ]
    }

    #[test]
    fn a_front_half_is_planned_once_per_key() {
        let dfg = small_dfg();
        let o = CompileOptions::builder().warps(3).point_iters(4).build();
        // Options the front half never reads: four keys among eight.
        let list = vec![
            o.clone(),
            CompileOptions { point_iters: 2, ..o.clone() },
            CompileOptions { pipeline_depth: 2, ..o.clone() },
            CompileOptions { exp_const_from_registers: true, ..o.clone() },
            CompileOptions { verify: VerifyLevel::Strict, target_ctas_per_sm: 1, ..o.clone() },
            CompileOptions { w_regs: 0.0, ..o.clone() },
            CompileOptions { w_regs: 0.0, point_iters: 8, ..o.clone() },
            CompileOptions { uniform_shared_reads: false, ..o.clone() },
            CompileOptions { warps: 2, ..o.clone() },
            CompileOptions { warps: 2, pipeline_depth: 4, ..o.clone() },
        ];
        let arch = GpuArch::hopper();
        for jobs in [1, 8] {
            let budget = SearchBudget::builder().sim_top_k(list.len()).build();
            let tuner = Compiler::new(&arch).search().budget(budget).jobs(jobs);
            let found = tuner.tune(&dfg, &FixedList(&list), 256, &probe_inputs(6, 1)).unwrap();
            assert_points_are_lone_compiles(&dfg, &arch, 256, &found.outcome);
            // `o`, its weight move, its toggle, and the two-warp key that
            // fails to map, each planned once.
            assert_eq!(found.fronts_planned, 4);
            assert_eq!(compiled(&found.outcome), 8);
        }
    }

    #[test]
    fn a_default_row_finishes_each_distinct_kernel_once() {
        let mut emitted_of_compiled = Vec::new();
        let mut fronts_of_scored = Vec::new();
        for (dfg, arch, base) in default_rows() {
            let tuner = Compiler::new(&arch).options(base).search();
            let found = tuner.tune(&dfg, &BeamSearch, 4096, &probe_inputs(30, 1)).unwrap();
            assert_eq!(found.outcome.model_evals, SearchBudget::default().max_model_evals);
            if dfg.name.contains("viscosity") {
                assert_points_are_lone_compiles(&dfg, &arch, 4096, &found.outcome);
            }
            // Among the candidates that compile, two have one plan exactly
            // when they have one kernel: the memo's key is neither finer
            // than what `emit` reads (a repeat it would miss) nor, which
            // would be a wrong score, coarser.
            let mut kernel_of_plan: HashMap<EmitPlan, (u64, u64)> = HashMap::new();
            let mut kernels = HashSet::new();
            for p in found.outcome.points.iter().filter(|p| p.predicted_seconds.is_some()) {
                let plan = codegen::plan(&dfg, &p.options, &arch, &mut StageTimer::new(None)).unwrap();
                let compiler = Compiler::new(&arch).options(p.options.clone());
                let lone = compiler.compile(&dfg, crate::Variant::WarpSpecialized).unwrap();
                let print = gpu_sim::flatcache::fingerprint(&lone.kernel);
                if kernels.insert(print) {
                    // The period proof against the walk of every trip.
                    let walked = crate::verify::verify_kernel_walked(&lone.kernel, &arch);
                    assert_eq!(lone.verdict(), walked.as_ref().ok(), "{:?}", p.options);
                }
                assert_eq!(*kernel_of_plan.entry(plan).or_insert(print), print, "{:?}", p.options);
            }
            assert_eq!(kernel_of_plan.len(), kernels.len(), "{}: plans and kernels", dfg.name);
            assert_eq!(found.kernels_emitted, kernels.len(), "{}: no plan failed late", dfg.name);
            emitted_of_compiled.push((found.kernels_emitted, compiled(&found.outcome)));
            // One front half per distinct key among the scored candidates.
            let keys: HashSet<FrontKey> =
                found.outcome.points.iter().map(|p| FrontKey::of(&p.options)).collect();
            assert_eq!(found.fronts_planned, keys.len(), "{}", dfg.name);
            fronts_of_scored.push((found.fronts_planned, found.outcome.model_evals));
        }
        assert_eq!(emitted_of_compiled, [(30, 116), (27, 90)]);
        assert_eq!(fronts_of_scored, [(39, 160), (30, 160)]);
    }

    #[test]
    fn compile_and_launch_failures_are_distinct() {
        let arch = GpuArch::kepler_k20c();
        // Candidate 0: valid. Candidate 1: a one-slot buffered placement
        // that cannot fit the kernel's simultaneously-live values ->
        // Compile failure. Candidate 2: compiles, but the harness hands it
        // truncated input arrays -> Launch failure.
        let cands = vec![
            CompileOptions::with_warps(3),
            CompileOptions::builder().warps(3).placement(Placement::Buffer(1)).build(),
            CompileOptions::with_warps(4),
        ];
        let inputs = probe_inputs(6, 1);
        let sabotaged = |k: &gpu_sim::isa::Kernel, pts: usize| {
            let mut arrays = inputs(k, pts);
            if k.warps_per_cta == 4 {
                // Sabotage only this candidate's probe inputs.
                for a in &mut arrays {
                    a.truncate(1);
                }
            }
            arrays
        };
        let budget = SearchBudget::builder().sim_top_k(cands.len()).build();
        let tuner = Compiler::new(&arch).search().budget(budget);
        let r = tuner.tune(&small_dfg(), &FixedList(&cands), 256, &sabotaged).unwrap().outcome;

        // The valid probe: a time, no failure.
        assert!(r.points[0].simulated_seconds.is_some());
        assert!(r.points[0].failure.is_none());
        // The unfittable placement: Compile, never Launch.
        assert!(r.points[1].simulated_seconds.is_none());
        assert!(matches!(r.points[1].failure, Some(TuneFailure::Compile(_))));
        // The sabotaged probe: Launch, never Compile.
        assert!(r.points[2].simulated_seconds.is_none());
        assert!(matches!(r.points[2].failure, Some(TuneFailure::Launch(_))));
        // The two failure kinds render distinctly.
        let c = r.points[1].failure.as_ref().unwrap().to_string();
        let l = r.points[2].failure.as_ref().unwrap().to_string();
        assert!(c.starts_with("did not compile:"), "{c}");
        assert!(l.starts_with("compiled but failed to run:"), "{l}");
        // And the winner is the valid probe, not a failed one.
        assert_eq!(r.best_options.warps, 3);
    }

    #[test]
    fn exhaustive_sweep_probes_the_pipeline_depth_axis() {
        let depth = |k| CompileOptions::builder().warps(3).point_iters(4).pipeline_depth(k).build();
        let r = sweep(&GpuArch::hopper(), &[depth(1), depth(2), depth(4)], 3);
        // Every depth compiles and runs on Hopper; the winner is whichever
        // depth the timing model scores best — the axis is genuinely live.
        assert!(r.points.iter().all(|p| p.simulated_seconds.is_some()), "{:?}", r.points);
        assert!(r.best_options.pipeline_depth >= 1);
    }

    #[test]
    fn sim_top_k_dials_from_exhaustive_to_guided() {
        let arch = GpuArch::kepler_k20c();
        let cands = with_warps(&[2, 3, 4, 6, 8, 12]);
        let sims = |o: &SearchOutcome| -> Vec<f64> {
            o.points.iter().filter_map(|p| p.simulated_seconds).collect()
        };
        let exhaustive = sweep(&arch, &cands, cands.len());
        let guided = sweep(&arch, &cands, 3);
        // warps=2 cannot compile for this DFG; every other candidate
        // carries a prediction, and at K = len every one of those is
        // simulated.
        let compiled: Vec<&SearchPoint> =
            exhaustive.points.iter().filter(|p| p.predicted_seconds.is_some()).collect();
        assert_eq!(compiled.len(), 5);
        assert!(matches!(exhaustive.points[0].failure, Some(TuneFailure::Compile(_))));
        assert!(compiled.iter().all(|p| p.simulated_seconds.is_some()));
        assert_eq!(exhaustive.simulations, 5);
        // At K = 3 exactly the three best-predicted carry simulated times.
        let mut by_pred: Vec<&SearchPoint> =
            guided.points.iter().filter(|p| p.predicted_seconds.is_some()).collect();
        by_pred.sort_by(|a, b| a.predicted_seconds.partial_cmp(&b.predicted_seconds).unwrap());
        assert_eq!(by_pred.len(), 5);
        for (rank, p) in by_pred.iter().enumerate() {
            assert_eq!(p.simulated_seconds.is_some(), rank < 3, "{:?}", p.options.warps);
        }
        assert_eq!(guided.simulations, 3);
        // In both, the winner is bit-equal to the minimum simulated time.
        for o in [&exhaustive, &guided] {
            let min = sims(o).into_iter().fold(f64::MAX, f64::min);
            assert_eq!(o.best_seconds.to_bits(), min.to_bits());
        }
        // The guided winner's simulated time is within 2% of exhaustive.
        let (best_gd, best_ex) = (guided.best_seconds, exhaustive.best_seconds);
        assert!(best_gd <= best_ex * 1.02, "guided {best_gd} vs exhaustive {best_ex}");
    }

    #[test]
    fn canonicalization_applies_the_compiler_clamps() {
        let arch = GpuArch::hopper();
        let space = SearchSpace::for_arch(&arch);
        // Depth is clamped to the stream depth...
        let o = CompileOptions::builder().point_iters(2).pipeline_depth(4).build();
        assert_eq!(space.canonical(o).unwrap().pipeline_depth, 2);
        // ...Buffer placement drops uniform shared reads...
        let o = CompileOptions::builder().placement(Placement::Buffer(176)).build();
        assert!(!space.canonical(o).unwrap().uniform_shared_reads);
        // ...and the warp budget rejects outright.
        let o = CompileOptions::with_warps(4096);
        assert!(space.canonical(o).is_none());
    }

    #[test]
    fn neighbors_are_canonical_and_single_step() {
        let arch = GpuArch::kepler_k20c();
        let space = SearchSpace::for_arch(&arch);
        let base = space.canonical(CompileOptions::default()).unwrap();
        let n = space.neighbors(&base);
        assert!(!n.is_empty());
        for c in &n {
            // Every neighbor survives its own canonicalization (fixpoint).
            let again = space.canonical(c.clone()).unwrap();
            assert_eq!(SearchSpace::key(&again), SearchSpace::key(c));
            // Kepler's menu never reaches depth 4.
            assert!(c.pipeline_depth <= 2);
        }
    }

    #[test]
    fn seed_beam_comes_from_the_unified_grid() {
        let arch = GpuArch::hopper();
        let space = SearchSpace::for_arch(&arch);
        let base = CompileOptions::default();
        let seeds = space.seeds(&base);
        // The extended grid (iters 1/2/4, depth 1) is a subset of the
        // seed beam at the same placement.
        for g in grid_options(base.placement, &[1, 2, 4], &[1]) {
            let g = space.canonical(g).unwrap();
            assert!(
                seeds.iter().any(|s| SearchSpace::key(s) == SearchSpace::key(&g)),
                "missing grid seed {g:?}"
            );
        }
        // No duplicates.
        let keys: HashSet<String> = seeds.iter().map(SearchSpace::key).collect();
        assert_eq!(keys.len(), seeds.len());
    }

    #[test]
    fn beam_respects_the_model_eval_cap() {
        let arch = GpuArch::hopper();
        let space = SearchSpace::for_arch(&arch);
        let budget = SearchBudget::builder().max_model_evals(17).build();
        let mut cost =
            |cands: &[CompileOptions]| -> Vec<f64> { cands.iter().map(|_| 1.0).collect() };
        let pts = BeamSearch.explore(&space, &CompileOptions::default(), &budget, &mut cost);
        assert!(pts.len() <= 17, "{}", pts.len());
    }
}
