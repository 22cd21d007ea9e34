//! Model-driven schedule search (ROADMAP item 5).
//!
//! The autotuner's grids ([`crate::autotune`]) enumerate a fixed, coarse
//! slice of the schedule space. This module searches the *full*
//! [`CompileOptions`] space — warps, `point_iters`, [`Placement`],
//! `uniform_shared_reads`, `exp_const_from_registers`, the mapping
//! weights on a coarse lattice, and the arch-clamped `pipeline_depth` —
//! with the static performance model ([`crate::perfmodel`], milliseconds
//! per evaluation) as the cost function and the simulator as the final
//! oracle, mirroring [`crate::autotune::autotune_guided`]'s contract:
//!
//! 1. a strategy ([`BeamSearch`], behind the [`ScheduleSearch`] trait)
//!    expands candidates and scores every one with the model (compile +
//!    predict, no interpretation); candidates that fail to compile score
//!    `+inf`, exactly as in serve's autotune;
//! 2. only the `sim_top_k` best-predicted survivors are *simulated*,
//!    and the winner is the best **simulated** time among those.
//!
//! Neighbor generation respects architecture feasibility up front
//! ([`SearchSpace::canonical`]: warp budget, largest-fitting pipeline
//! depth, Buffer-placement read discipline), so structurally doomed or
//! duplicate candidates are pruned before they are ever scored.
//!
//! Determinism: candidate expansion is pure, batches are scored on the
//! ordered worker pool ([`crate::pool::run_ordered`]) and folded in
//! input order, and all ranking ties break toward the earlier candidate —
//! results are bit-identical at any `--jobs` count.

use crate::autotune::GUIDED_TOP_K;
pub use crate::autotune::{depth_menu, grid_options};
use crate::codegen::{compile_warp_specialized, Compiled};
use crate::config::{CompileOptions, Placement};
use crate::dfg::Dfg;
use crate::pool::run_ordered;
use crate::CResult;
use gpu_sim::arch::GpuArch;
use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
use std::collections::HashSet;

/// How much work a schedule search (or budgeted guided autotune) may do.
///
/// `#[non_exhaustive]` so new knobs can ride along without breaking
/// downstream code; construct with [`SearchBudget::default`] (which
/// reproduces the historical behavior everywhere it is consumed) or the
/// fluent [`SearchBudget::builder`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SearchBudget {
    /// Beam width: how many best-predicted candidates seed each round's
    /// neighbor expansion.
    pub beam_width: usize,
    /// Neighbor-expansion rounds after the seed beam is scored.
    pub rounds: usize,
    /// How many top-predicted candidates the simulation oracle runs
    /// (the lifted [`GUIDED_TOP_K`] cap — no longer a silent constant).
    pub sim_top_k: usize,
    /// Hard cap on model scorings (each is one compile + one static
    /// prediction); expansion stops when the cap is reached.
    pub max_model_evals: usize,
}

impl Default for SearchBudget {
    fn default() -> SearchBudget {
        SearchBudget { beam_width: 8, rounds: 4, sim_top_k: GUIDED_TOP_K, max_model_evals: 160 }
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

    /// Admit a candidate: apply the feasibility clamps the compiler
    /// would apply anyway, so textually distinct options that compile to
    /// the same schedule collapse to one candidate, and reject what the
    /// architecture can never run (warp budget). Returns `None` for
    /// rejected candidates — they are pruned, not scored.
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
    /// the base placement — the same single source of truth the legacy
    /// candidate grids are built from.
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

/// Batch oracle closure: chosen survivors in, measured probe seconds
/// out, in input order (`Err` = launch failure, carried verbatim onto
/// the corresponding [`SearchPoint`]).
pub type SimulateFn<'a> = dyn FnMut(&[CompileOptions]) -> Vec<Result<f64, String>> + 'a;

/// A search strategy: expand candidates, score them in batches through
/// the caller's cost closure, return every scored point in evaluation
/// order. Strategies never simulate — the oracle split lives in
/// [`run_search`], shared by every implementation.
pub trait ScheduleSearch: Sync {
    /// Strategy name (for logs and reports).
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

/// One candidate in a [`SearchOutcome`], in evaluation order.
#[derive(Debug, Clone)]
pub struct SearchPoint {
    /// The canonical candidate.
    pub options: CompileOptions,
    /// Model-predicted probe seconds (`None` = did not compile).
    pub predicted_seconds: Option<f64>,
    /// Oracle-simulated probe seconds (`None` = pruned from simulation,
    /// or the simulation failed — see `failure`).
    pub simulated_seconds: Option<f64>,
    /// Simulation-failure message, when the oracle ran and failed.
    pub failure: Option<String>,
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
    /// Which strategy ran (`"beam"`).
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

/// Run a strategy end to end with caller-supplied cost and oracle
/// closures, returning the full [`SearchOutcome`].
///
/// This is the engine behind [`autotune_search`] and the serve layer's
/// budgeted autotune: `score` maps a candidate batch to model-predicted
/// seconds (`+inf` = did not compile), `simulate` maps the chosen
/// survivors to measured probe seconds (`Err` = launch failure). The
/// oracle phase ranks every finite-scored candidate by (prediction,
/// evaluation order), simulates the top `budget.sim_top_k`, logs how
/// many scored candidates were dropped, and picks the best simulated
/// time (strict `<`, first-best-wins in rank order).
pub fn run_search(
    strategy: &dyn ScheduleSearch,
    space: &SearchSpace,
    base: &CompileOptions,
    budget: &SearchBudget,
    score: &mut dyn FnMut(&[CompileOptions]) -> Vec<f64>,
    simulate: &mut SimulateFn<'_>,
) -> CResult<SearchOutcome> {
    let explored = strategy.explore(space, base, budget, score);
    let model_evals = explored.len();

    // Oracle phase: rank by (predicted, eval order), simulate the top K.
    let mut ranked: Vec<usize> =
        (0..explored.len()).filter(|&i| explored[i].predicted_seconds.is_finite()).collect();
    ranked.sort_by(|&a, &b| {
        explored[a].predicted_seconds.total_cmp(&explored[b].predicted_seconds).then(a.cmp(&b))
    });
    let feasible = ranked.len();
    let chosen: Vec<usize> = ranked.into_iter().take(budget.sim_top_k).collect();
    eprintln!(
        "[search({}): scored {model_evals} candidates ({feasible} compiled), simulating {}, \
         {} dropped from simulation]",
        strategy.name(),
        chosen.len(),
        feasible - chosen.len()
    );
    let chosen_opts: Vec<CompileOptions> =
        chosen.iter().map(|&i| explored[i].options.clone()).collect();
    let sims = simulate(&chosen_opts);

    let mut points: Vec<SearchPoint> = explored
        .into_iter()
        .map(|p| SearchPoint {
            options: p.options,
            predicted_seconds: p.predicted_seconds.is_finite().then_some(p.predicted_seconds),
            simulated_seconds: None,
            failure: None,
            round: p.round,
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
            Err(e) => points[i].failure = Some(e.clone()),
        }
    }
    let (best_seconds, bi) = best.ok_or_else(|| {
        crate::CompileError::ResourceExhausted("no schedule-search candidate ran".into())
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
}

/// Beam-search the full schedule space for `dfg` on `arch`, seeded at
/// `base` (the caller's default options — e.g. the serve layer's
/// per-kernel defaults), using the static model as the cost function and
/// `TimingOnly` probe launches as the oracle. See the module docs for
/// the contract; see [`autotune_search_with_jobs`] for determinism.
pub fn autotune_search(
    dfg: &Dfg,
    arch: &GpuArch,
    base: &CompileOptions,
    budget: &SearchBudget,
    probe_points: usize,
    inputs_for: &(dyn Fn(&gpu_sim::isa::Kernel, usize) -> Vec<Vec<f64>> + Sync),
) -> CResult<SearchResult> {
    autotune_search_with_jobs(
        dfg,
        arch,
        base,
        budget,
        probe_points,
        inputs_for,
        crate::pool::default_jobs(),
    )
}

/// [`autotune_search`] with an explicit worker count. Batches are scored
/// and simulated on the ordered pool and folded in input order, so the
/// result is bit-identical at any worker count.
pub fn autotune_search_with_jobs(
    dfg: &Dfg,
    arch: &GpuArch,
    base: &CompileOptions,
    budget: &SearchBudget,
    probe_points: usize,
    inputs_for: &(dyn Fn(&gpu_sim::isa::Kernel, usize) -> Vec<Vec<f64>> + Sync),
    jobs: usize,
) -> CResult<SearchResult> {
    let space = SearchSpace::for_arch(arch);
    autotune_search_in_space_with_jobs(
        dfg, arch, &space, base, &BeamSearch, budget, probe_points, inputs_for, jobs,
    )
}

/// The fully-parameterized search entry: explicit space and strategy.
/// [`autotune_search`] is this with [`SearchSpace::for_arch`] and
/// [`BeamSearch`].
#[allow(clippy::too_many_arguments)]
pub fn autotune_search_in_space_with_jobs(
    dfg: &Dfg,
    arch: &GpuArch,
    space: &SearchSpace,
    base: &CompileOptions,
    strategy: &dyn ScheduleSearch,
    budget: &SearchBudget,
    probe_points: usize,
    inputs_for: &(dyn Fn(&gpu_sim::isa::Kernel, usize) -> Vec<Vec<f64>> + Sync),
    jobs: usize,
) -> CResult<SearchResult> {
    let mut score = |cands: &[CompileOptions]| -> Vec<f64> {
        run_ordered(jobs, cands.len(), |i| {
            match compile_warp_specialized(dfg, &cands[i], arch, None) {
                // Failed compiles score +inf, exactly as in serve's
                // autotune — they can never be chosen for simulation.
                Err(_) => f64::INFINITY,
                Ok(c) => {
                    let ppc = c.kernel.points_per_cta;
                    let grid = probe_points.div_ceil(ppc) * ppc;
                    crate::perfmodel::predict_seconds(&c.kernel, arch, grid)
                        .unwrap_or(f64::INFINITY)
                }
            }
        })
    };
    let mut simulate = |cands: &[CompileOptions]| -> Vec<Result<f64, String>> {
        run_ordered(jobs, cands.len(), |i| {
            let c = compile_warp_specialized(dfg, &cands[i], arch, None)
                .map_err(|e| e.to_string())?;
            let ppc = c.kernel.points_per_cta;
            let grid = probe_points.div_ceil(ppc) * ppc;
            let owned = inputs_for(&c.kernel, grid);
            let arrays: Vec<&[f64]> = owned.iter().map(|v| v.as_slice()).collect();
            launch(&c.kernel, arch, &LaunchInputs { arrays }, grid, LaunchMode::TimingOnly)
                .map(|out| out.report.seconds)
                .map_err(|e| e.to_string())
        })
    };
    let outcome = run_search(strategy, space, base, budget, &mut score, &mut simulate)?;
    // Re-compile the winner (compilation is deterministic and cached
    // upstream where it matters) so callers get a runnable artifact.
    let best = compile_warp_specialized(dfg, &outcome.best_options, arch, None)?;
    Ok(SearchResult { best, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_defaults_reproduce_the_historical_caps() {
        let b = SearchBudget::default();
        assert_eq!(b.sim_top_k, GUIDED_TOP_K);
        let built = SearchBudget::builder().beam_width(3).rounds(1).build();
        assert_eq!(built.beam_width, 3);
        assert_eq!(built.rounds, 1);
        assert_eq!(built.sim_top_k, GUIDED_TOP_K);
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
        for g in crate::autotune::candidate_grid_extended(base.placement) {
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
