//! The session API: a persistent, concurrent front door to the compiler.
//!
//! A [`ServeSession`] owns:
//!
//! * a **mechanism registry** — named, content-fingerprinted mechanisms
//!   loaded once (from chemkin text sources or synth specs) and shared by
//!   every request that names them;
//! * the **persistent artifact cache** ([`crate::artifact::Store`]) — a
//!   compile survives the process;
//! * an **in-flight table** — identical concurrent requests coalesce onto
//!   one compile, all waiters sharing its result (success *or* failure);
//! * the **sharded scheduler** ([`crate::sched::Scheduler`]) — bounded
//!   queue, per-tenant fairness, backpressure.
//!
//! The request lifecycle for [`ServeSession::compile`]:
//!
//! ```text
//! request ── scheduler (fairness, backpressure)
//!          ── key = hash(mech fp, kernel, variant, arch, warps, options)
//!          ── in-flight table: claim or join
//!          ── disk: load artifact (corrupt ⇒ treat as miss, recompile)
//!          ── cold: dfg → compile → verify → persist
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::synth::SynthConfig;
use chemkin::{GridDims, GridState, Mechanism};
use gpu_sim::arch::GpuArch;
use gpu_sim::counts::EventCounts;
use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
use gpu_sim::timing::{estimate, SimReport};
use singe::kernels::{chemistry, diffusion, launch_arrays, probe_grid, viscosity};
use singe::search::{
    run_search_explained, ScheduleSearch, SearchBudget, SearchOutcome, SearchSpace,
};
use singe::{CompileOptions, Compiler, Placement, Variant};

use crate::artifact::{Artifact, ArtifactKey, ArtifactMeta, Store, VerifyVerdict};
use crate::error::{ServeError, ServeResult};
use crate::ids::{ArchId, KernelId, MechanismId};
use crate::metrics::{Counters, ServeStats};
use crate::sched::{Scheduler, Ticket};

/// Pick a warp count for the warp-specialized viscosity kernel: prefer a
/// divisor of the species count (Figure 9: "peaks for warp counts that
/// evenly divide the number of species"). This is the canonical home of
/// the heuristic; the bench harness delegates here.
pub fn viscosity_warps(n_species: usize) -> usize {
    largest_divisor(n_species, 4..=14).unwrap_or(8)
}

/// The largest warp count in `warps` that divides `n_species` evenly.
fn largest_divisor(n_species: usize, warps: std::ops::RangeInclusive<usize>) -> Option<usize> {
    warps.rev().find(|w| n_species.is_multiple_of(*w))
}

/// Pick a warp count for the warp-specialized diffusion kernel: the largest
/// divisor of the species count in 4..=16, or 8 when there is none. With
/// `W` dividing `N` every warp owns `N / W` adjacent columns, so the
/// rotation rounds of different warps have one skeleton and codegen
/// overlays them (§5.1); an uneven split leaves every round warp-private
/// and the kernel outgrows the instruction cache, the cliff of Figure 9.
pub fn diffusion_warps(n_species: usize) -> usize {
    largest_divisor(n_species, 4..=16).unwrap_or(8)
}

/// Default warp-specialized options per kernel, sized to the mechanism
/// and architecture — the paper's per-kernel configurations (§6).
pub fn default_options(kernel: KernelId, n_species: usize, arch: &GpuArch) -> CompileOptions {
    // Hopper-class barrier files host K-stage pipelined schedules; depth 2
    // is the conservative default that measures ahead of single-buffering
    // on the viscosity kernel (deeper rings add shared-memory footprint
    // without further per-CTA wins; the compiler clamps depth wherever a
    // schedule or arch cannot host it).
    let pipe = if arch.named_barriers_per_sm >= 64 { 2 } else { 1 };
    match kernel {
        KernelId::Viscosity => CompileOptions::builder()
            .warps(viscosity_warps(n_species))
            .point_iters(4)
            .placement(Placement::Store)
            .pipeline_depth(pipe)
            .build(),
        KernelId::Diffusion => CompileOptions::builder()
            .warps(diffusion_warps(n_species))
            .point_iters(4)
            .placement(Placement::Mixed(176))
            .build(),
        KernelId::Chemistry => CompileOptions::builder()
            // 16-20 warps per SM at one CTA (§6.3).
            .warps(if arch.max_warps_per_sm >= 64 { 16 } else { 20 })
            .point_iters(2)
            .placement(Placement::Buffer(176))
            .w_locality(1.0)
            .build(),
    }
}

/// A typed compile request. Construct with [`CompileRequest::new`] (which
/// leaves options at the session's per-kernel defaults) and refine with
/// the `with_*` setters; the struct is `#[non_exhaustive]` so the request
/// surface can grow without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CompileRequest {
    /// Which registered mechanism to compile for.
    pub mechanism: MechanismId,
    /// Which kernel.
    pub kernel: KernelId,
    /// Compiler variant.
    pub variant: Variant,
    /// Target architecture.
    pub arch: ArchId,
    /// Explicit compile options; `None` uses [`default_options`] — and,
    /// for [`Variant::Baseline`], the historical baseline convention
    /// (compile at 8 warps against a dfg built for the warp-specialized
    /// warp count).
    pub options: Option<CompileOptions>,
    /// Warp count the dfg is built at; `None` derives it (the options'
    /// warp count, or the warp-specialized default for a default-options
    /// baseline).
    pub dfg_warps: Option<usize>,
    /// Scheduling tenant: requests from the same tenant are FIFO; tenants
    /// share the farm round-robin.
    pub tenant: String,
}

impl CompileRequest {
    /// A request with default options under the `"default"` tenant.
    pub fn new(
        mechanism: MechanismId,
        kernel: KernelId,
        variant: Variant,
        arch: ArchId,
    ) -> CompileRequest {
        CompileRequest {
            mechanism,
            kernel,
            variant,
            arch,
            options: None,
            dfg_warps: None,
            tenant: "default".to_string(),
        }
    }

    /// Set explicit compile options.
    #[must_use]
    pub fn with_options(mut self, options: CompileOptions) -> CompileRequest {
        self.options = Some(options);
        self
    }

    /// Build the dfg at an explicit warp count (the baseline convention
    /// keys this separately from the compile options' warp count).
    #[must_use]
    pub fn with_dfg_warps(mut self, dfg_warps: usize) -> CompileRequest {
        self.dfg_warps = Some(dfg_warps);
        self
    }

    /// Attribute the request to a scheduling tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: &str) -> CompileRequest {
        self.tenant = tenant.to_string();
        self
    }
}

/// Where a served artifact came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactSource {
    /// This request ran the compiler.
    ColdCompile,
    /// Loaded from the persistent cache.
    WarmDisk,
    /// Joined an identical compile already in flight.
    InflightJoin,
}

/// A served compile result: the artifact plus its provenance.
#[derive(Debug, Clone)]
pub struct ArtifactHandle {
    /// The artifact (shared: joiners and the owner hold the same data).
    pub artifact: Arc<Artifact>,
    /// How this particular request was satisfied.
    pub source: ArtifactSource,
    /// The content address it is cached under.
    pub key: ArtifactKey,
}

struct MechEntry {
    mech: Arc<Mechanism>,
    fingerprint: u64,
}

type InflightSlot = Arc<OnceLock<Result<(Arc<Artifact>, ArtifactSource), ServeError>>>;

struct SessionInner {
    store: Store,
    counters: Counters,
    registry: Mutex<BTreeMap<String, MechEntry>>,
    inflight: Mutex<HashMap<ArtifactKey, InflightSlot>>,
    probes: Mutex<HashMap<ArtifactKey, EventCounts>>,
}

/// Builder for [`ServeSession`] — every knob is optional.
#[must_use = "the builder does nothing until .open() is called"]
#[derive(Debug, Clone)]
pub struct ServeSessionBuilder {
    cache_dir: PathBuf,
    queue_depth: usize,
    jobs: usize,
    shards: usize,
    builtins: bool,
}

impl ServeSessionBuilder {
    fn new(cache_dir: &Path) -> ServeSessionBuilder {
        ServeSessionBuilder {
            cache_dir: cache_dir.to_path_buf(),
            queue_depth: 256,
            jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            shards: 4,
            builtins: true,
        }
    }

    /// Artifact-cache directory (created if absent).
    pub fn cache_dir(mut self, dir: &Path) -> ServeSessionBuilder {
        self.cache_dir = dir.to_path_buf();
        self
    }

    /// Bound on queued (not yet running) jobs before submissions are
    /// rejected with [`ServeError::Overloaded`].
    pub fn queue_depth(mut self, depth: usize) -> ServeSessionBuilder {
        self.queue_depth = depth.max(1);
        self
    }

    /// Worker threads.
    pub fn jobs(mut self, jobs: usize) -> ServeSessionBuilder {
        self.jobs = jobs.max(1);
        self
    }

    /// Scheduler shards (per-tenant queues hash across these).
    pub fn shards(mut self, shards: usize) -> ServeSessionBuilder {
        self.shards = shards.max(1);
        self
    }

    /// Whether to pre-register the built-in `dme` and `heptane`
    /// mechanisms (on by default; tests that want an empty registry turn
    /// it off).
    pub fn builtins(mut self, builtins: bool) -> ServeSessionBuilder {
        self.builtins = builtins;
        self
    }

    /// Open the session.
    pub fn open(self) -> ServeResult<ServeSession> {
        let store = Store::open(&self.cache_dir).map_err(|e| ServeError::Io {
            path: self.cache_dir.display().to_string(),
            message: e.to_string(),
        })?;
        let inner = Arc::new(SessionInner {
            store,
            counters: Counters::default(),
            registry: Mutex::new(BTreeMap::new()),
            inflight: Mutex::new(HashMap::new()),
            probes: Mutex::new(HashMap::new()),
        });
        let session = ServeSession {
            inner,
            sched: Scheduler::new(self.shards, self.jobs, self.queue_depth),
        };
        if self.builtins {
            session.register_synth(&chemkin::synth::dme_config())?;
            session.register_synth(&chemkin::synth::heptane_config())?;
        }
        Ok(session)
    }
}

/// A compile-farm session. See the module docs for the architecture.
#[derive(Debug)]
pub struct ServeSession {
    inner: Arc<SessionInner>,
    sched: Scheduler,
}

impl std::fmt::Debug for SessionInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionInner").field("cache", &self.store.root()).finish()
    }
}

impl ServeSession {
    /// Open a session with default knobs, caching artifacts under `path`.
    pub fn open(path: &Path) -> ServeResult<ServeSession> {
        ServeSession::builder(path).open()
    }

    /// Start configuring a session caching artifacts under `path`.
    pub fn builder(path: &Path) -> ServeSessionBuilder {
        ServeSessionBuilder::new(path)
    }

    /// The artifact cache directory.
    pub fn cache_dir(&self) -> &Path {
        self.inner.store.root()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.inner.counters.snapshot()
    }

    /// Jobs currently queued in the scheduler.
    pub fn queued(&self) -> usize {
        self.sched.queued()
    }

    // -- registry ----------------------------------------------------------

    /// Register a mechanism under `id`. Registering identical content
    /// twice is a no-op; the same id with *different* content is
    /// [`ServeError::MechanismConflict`] (ids are immutable bindings —
    /// changed chemistry needs a new id, which also gives it a disjoint
    /// artifact keyspace).
    pub fn register_mechanism(&self, id: MechanismId, mech: Mechanism) -> ServeResult<()> {
        let fingerprint = mechanism_fingerprint(&mech);
        let mut reg = self.inner.registry.lock().unwrap();
        if let Some(existing) = reg.get(id.as_str()) {
            if existing.fingerprint == fingerprint {
                return Ok(());
            }
            return Err(ServeError::MechanismConflict { id: id.as_str().to_string() });
        }
        reg.insert(id.as_str().to_string(), MechEntry { mech: Arc::new(mech), fingerprint });
        Ok(())
    }

    /// Synthesize and register a mechanism from a synth spec (through the
    /// text round-trip, like the built-ins). The id is the spec's name.
    pub fn register_synth(&self, cfg: &SynthConfig) -> ServeResult<MechanismId> {
        let id: MechanismId = cfg.name.parse()?;
        self.register_mechanism(id.clone(), chemkin::synth::via_text(cfg))?;
        Ok(id)
    }

    /// The registered mechanism ids, sorted.
    pub fn mechanisms(&self) -> Vec<String> {
        self.inner.registry.lock().unwrap().keys().cloned().collect()
    }

    // -- requests ----------------------------------------------------------

    /// Compile (or fetch) synchronously: submit through the scheduler and
    /// wait. Fairness and backpressure apply — under load this can return
    /// [`ServeError::Overloaded`] without queueing.
    pub fn compile(&self, req: &CompileRequest) -> ServeResult<ArtifactHandle> {
        self.submit(req)?.wait()
    }

    /// Submit a compile and return a [`Ticket`] to wait on — the async
    /// form used by sweeps that queue many requests before collecting.
    pub fn submit(&self, req: &CompileRequest) -> ServeResult<Ticket<ArtifactHandle>> {
        let inner = Arc::clone(&self.inner);
        let req = req.clone();
        let tenant = req.tenant.clone();
        self.sched.submit(&tenant, move || compile_now(&inner, &req))
    }

    /// Run the deterministic probe launch for the request's kernel and
    /// return its event counts. Memoized per artifact key — repeated
    /// predictions re-use both the artifact and the probe.
    pub fn probe(&self, req: &CompileRequest) -> ServeResult<EventCounts> {
        let handle = self.compile(req)?;
        if let Some(hit) = self.inner.probes.lock().unwrap().get(&handle.key) {
            return Ok(hit.clone());
        }
        let kernel = &handle.artifact.kernel;
        let n_species = self.n_species_of(&req.mechanism)?;
        let probe = kernel.points_per_cta;
        let g = GridState::random(GridDims { nx: probe, ny: 1, nz: 1 }, n_species, 1234);
        let arrays = launch_arrays(&kernel.global_arrays, &g)
            .map_err(|e| ServeError::Launch(e.to_string()))?;
        let out = launch(kernel, &req.arch.arch(), &LaunchInputs { arrays }, probe, LaunchMode::Full)
            .map_err(|e| ServeError::Launch(e.to_string()))?;
        let counts = out.report.counts;
        self.inner.probes.lock().unwrap().insert(handle.key, counts.clone());
        Ok(counts)
    }

    /// Predict the request's kernel performance at `grid_points` points:
    /// probe one CTA (cached), extrapolate with the timing model.
    pub fn predict(&self, req: &CompileRequest, grid_points: usize) -> ServeResult<SimReport> {
        let handle = self.compile(req)?;
        let counts = self.probe(req)?;
        Ok(estimate(&handle.artifact.kernel, &req.arch.arch(), &counts, grid_points))
    }

    /// Tune the request's kernel: the serve mirror of
    /// [`singe::search::Tuner::tune`], with the same explorers and budget
    /// ([`FixedList`](singe::search::FixedList) for a caller-supplied
    /// candidate list, [`BeamSearch`](singe::search::BeamSearch) for the
    /// full options space seeded at the request's options or the
    /// per-kernel defaults). Candidates are model-scored over *cached*
    /// artifacts — compiles ride the scheduler and artifact store, so
    /// repeated runs, overlapping beams and candidates shared across
    /// sessions hit warm — and the top-K survivors are simulated through
    /// the memoized probe ([`ServeSession::predict`]).
    ///
    /// A candidate that fails to compile or launch is recorded on its
    /// point and loses; any other error (overload, shutdown) aborts the
    /// run and is returned as itself. Returns the winning options plus
    /// the full audit trail.
    pub fn tune(
        &self,
        req: &CompileRequest,
        explorer: &dyn ScheduleSearch,
        budget: &SearchBudget,
        grid_points: usize,
    ) -> ServeResult<(CompileOptions, SearchOutcome)> {
        let n_species = self.n_species_of(&req.mechanism)?;
        let arch = req.arch.arch();
        let base = match &req.options {
            Some(opts) => opts.clone(),
            None => default_options(req.kernel, n_species, &arch),
        };
        let candidate = |opts: &CompileOptions| req.clone().with_options(opts.clone());
        tune_with(
            explorer,
            &SearchSpace::for_arch(&arch),
            &base,
            budget,
            |cands| {
                // Queue the whole batch first so the farm works it
                // concurrently, then collect and predict in input order.
                let submit = |o| self.submit(&candidate(o));
                let tickets: Vec<_> = cands.iter().map(submit).collect();
                let predict = |handle: ArtifactHandle| {
                    let kernel = &handle.artifact.kernel;
                    let grid = probe_grid(kernel, grid_points);
                    singe::perfmodel::predict_seconds(kernel, &arch, grid).unwrap_or(f64::INFINITY)
                };
                tickets.into_iter().map(|t| t.and_then(|t| t.wait()).map(predict)).collect()
            },
            |opts| self.predict(&candidate(opts), grid_points).map(|r| r.seconds),
        )
    }

    fn n_species_of(&self, id: &MechanismId) -> ServeResult<usize> {
        let reg = self.inner.registry.lock().unwrap();
        match reg.get(id.as_str()) {
            Some(e) => Ok(e.mech.n_transported()),
            None => Err(ServeError::UnknownMechanism {
                requested: id.as_str().to_string(),
                known: reg.keys().cloned().collect(),
            }),
        }
    }
}

/// [`ServeSession::tune`] over any compile farm and probe: `score_batch`
/// model-scores a batch of candidates, `probe` simulates one survivor.
/// The error rule lives here, once, for both: `Compile` and `Launch` are
/// candidate outcomes (the candidate loses, the run continues); the first
/// error of any other kind stops further work and is what the call
/// returns.
fn tune_with(
    explorer: &dyn ScheduleSearch,
    space: &SearchSpace,
    base: &CompileOptions,
    budget: &SearchBudget,
    mut score_batch: impl FnMut(&[CompileOptions]) -> Vec<ServeResult<f64>>,
    mut probe: impl FnMut(&CompileOptions) -> ServeResult<f64>,
) -> ServeResult<(CompileOptions, SearchOutcome)> {
    let abort: RefCell<Option<ServeError>> = RefCell::new(None);
    let candidate_outcome = |r: ServeResult<f64>| -> Result<f64, String> {
        r.map_err(|e| match e {
            ServeError::Compile(e) => e.to_string(),
            ServeError::Launch(message) => message,
            service => {
                let message = service.to_string();
                abort.borrow_mut().get_or_insert(service);
                message
            }
        })
    };
    let mut score = |cands: &[CompileOptions]| -> Vec<Result<f64, String>> {
        if abort.borrow().is_some() {
            return vec![Ok(f64::INFINITY); cands.len()];
        }
        score_batch(cands).into_iter().map(candidate_outcome).collect()
    };
    let mut simulate = |cands: &[CompileOptions]| -> Vec<Result<f64, String>> {
        let one = |o| {
            if abort.borrow().is_some() {
                return Err(String::new()); // the outcome is discarded below
            }
            candidate_outcome(probe(o))
        };
        cands.iter().map(one).collect()
    };
    let outcome = run_search_explained(explorer, space, base, budget, &mut score, &mut simulate);
    if let Some(e) = abort.into_inner() {
        return Err(e);
    }
    let outcome = outcome.map_err(|e| ServeError::Internal(format!("tuner: {e}")))?;
    Ok((outcome.best_options.clone(), outcome))
}

/// Content fingerprint of a mechanism: the hash of its `Debug` form, so any
/// field change reflows into the artifact keyspace. It is the
/// `mech_fingerprint` of [`ArtifactKey::derive`], and what the bench memo
/// tells mechanisms apart by.
pub fn mechanism_fingerprint(mech: &Mechanism) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{mech:?}").hash(&mut h);
    h.finish()
}

fn resolve_build(
    req: &CompileRequest,
    n_species: usize,
    arch: &GpuArch,
) -> (CompileOptions, usize) {
    match &req.options {
        Some(opts) => (opts.clone(), req.dfg_warps.unwrap_or(opts.warps)),
        None => {
            let ws = default_options(req.kernel, n_species, arch);
            match req.variant {
                // The historical baseline convention: dfg at the
                // warp-specialized warp count, compiled at 8 warps.
                Variant::Baseline => {
                    (CompileOptions::with_warps(8), req.dfg_warps.unwrap_or(ws.warps))
                }
                Variant::WarpSpecialized | Variant::Naive => {
                    let warps = req.dfg_warps.unwrap_or(ws.warps);
                    (ws, warps)
                }
            }
        }
    }
}

/// The synchronous core: key derivation, in-flight claim/join, disk
/// lookup, cold compile. Runs on a scheduler worker.
fn compile_now(inner: &SessionInner, req: &CompileRequest) -> ServeResult<ArtifactHandle> {
    let (mech, fingerprint) = {
        let reg = inner.registry.lock().unwrap();
        match reg.get(req.mechanism.as_str()) {
            Some(e) => (Arc::clone(&e.mech), e.fingerprint),
            None => {
                return Err(ServeError::UnknownMechanism {
                    requested: req.mechanism.as_str().to_string(),
                    known: reg.keys().cloned().collect(),
                })
            }
        }
    };
    let arch = req.arch.arch();
    let n_species = mech.n_transported();
    let (opts, dfg_warps) = resolve_build(req, n_species, &arch);
    let key = ArtifactKey::derive(
        fingerprint,
        req.kernel.name(),
        req.variant.name(),
        arch.name,
        dfg_warps,
        &format!("{opts:?}"),
    );

    // Claim or join the in-flight slot. `get_or_init` runs the work for
    // exactly one caller and blocks the rest until it resolves; the slot
    // is removed once resolved, so it dedups *concurrency*, not history —
    // later identical requests go to disk (and count as warm hits).
    let slot: InflightSlot = {
        let mut map = inner.inflight.lock().unwrap();
        Arc::clone(map.entry(key).or_default())
    };
    let mut owner = false;
    let result = slot
        .get_or_init(|| {
            owner = true;
            serve_one(inner, &mech, req, &arch, &opts, dfg_warps, &key)
                .map(|(a, src)| (Arc::new(a), src))
        })
        .clone();
    if owner {
        inner.inflight.lock().unwrap().remove(&key);
    } else {
        inner.counters.add(&inner.counters.inflight_joins, 1);
    }
    result.map(|(artifact, source)| ArtifactHandle {
        artifact,
        source: if owner { source } else { ArtifactSource::InflightJoin },
        key,
    })
}

/// Disk lookup then cold compile — the single-owner path.
fn serve_one(
    inner: &SessionInner,
    mech: &Mechanism,
    req: &CompileRequest,
    arch: &GpuArch,
    opts: &CompileOptions,
    dfg_warps: usize,
    key: &ArtifactKey,
) -> Result<(Artifact, ArtifactSource), ServeError> {
    let c = &inner.counters;
    let t0 = Instant::now();
    let mut corrupt = false;
    if let Some(artifact) = inner.store.load(key, &mut corrupt) {
        c.add(&c.warm_hits, 1);
        c.add(&c.warm_nanos, t0.elapsed().as_nanos() as u64);
        return Ok((artifact, ArtifactSource::WarmDisk));
    }
    if corrupt {
        c.add(&c.corrupt_reloads, 1);
    }

    let t0 = Instant::now();
    let dfg = match req.kernel {
        KernelId::Viscosity => viscosity::viscosity_dfg(&ViscosityTables::build(mech), dfg_warps),
        KernelId::Diffusion => diffusion::diffusion_dfg(&DiffusionTables::build(mech), dfg_warps),
        KernelId::Chemistry => chemistry::chemistry_dfg(&ChemistrySpec::build(mech), dfg_warps),
    };
    let compiled = Compiler::new(arch).options(opts.clone()).compile(&dfg, req.variant)?;
    // The compile's own verdict: present exactly when its options ran the
    // verifier, which then passed.
    let verdict = compiled.verdict().map_or_else(VerifyVerdict::default, |r| VerifyVerdict {
        verified: true,
        warps: r.warps,
        barrier_ops: r.barrier_ops,
        shared_accesses: r.shared_accesses,
        barrier_ids: r.barrier_ids,
        generations: r.generations,
    });
    let compile_nanos = t0.elapsed().as_nanos() as u64;
    // Baseline builds keep the historical `None` stats so report code
    // doesn't mistake them for warp-specialization statistics.
    let stats = match req.variant {
        Variant::Baseline => None,
        Variant::WarpSpecialized | Variant::Naive => Some(compiled.stats),
    };
    let artifact = Artifact {
        kernel: compiled.kernel,
        stats,
        verdict,
        meta: ArtifactMeta {
            mechanism: req.mechanism.as_str().to_string(),
            kernel: req.kernel.name().to_string(),
            variant: req.variant.name().to_string(),
            arch: arch.name.to_string(),
            dfg_warps,
            options: format!("{opts:?}"),
            compile_nanos,
            lowering_version: gpu_sim::LOWERING_VERSION,
        },
    };
    c.add(&c.cold_compiles, 1);
    c.add(&c.cold_nanos, t0.elapsed().as_nanos() as u64);
    if inner.store.save(key, &artifact).is_err() {
        c.add(&c.save_errors, 1);
    }
    Ok((artifact, ArtifactSource::ColdCompile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use singe::search::{BeamSearch, FixedList, TuneFailure};

    #[test]
    fn diffusion_warps_divide_the_species_count_or_fall_back_to_eight() {
        // The largest divisor in range: DME and the DME-shaped held-out
        // mechanisms (30 transported species), heptane (52).
        assert_eq!(diffusion_warps(30), 15);
        assert_eq!(diffusion_warps(52), 13);
        assert_eq!(diffusion_warps(64), 16);
        assert_eq!(diffusion_warps(20), 10);
        for n in 2..=200 {
            let w = diffusion_warps(n);
            // Inside the range the W = 2..16 sweep covered (EXPERIMENTS.md).
            assert!((4..=16).contains(&w), "n = {n}: {w} warps");
            if (4..=16).any(|d| n % d == 0) {
                assert!(n % w == 0 && (w + 1..=16).all(|d| n % d != 0), "n = {n}: {w} warps");
            } else {
                assert_eq!(w, 8, "n = {n}");
            }
        }
        // No divisor in range: primes, and twice or three times a prime.
        assert_eq!([31, 37, 34, 51].map(diffusion_warps), [8; 4]);
    }

    /// The tuner's error rule, over a fake farm that fails candidates by
    /// warp count: scoring predicts `warps` seconds, probing measures
    /// `1 / warps`.
    #[test]
    fn candidate_failures_are_recorded_and_service_errors_abort() {
        type Fail = fn(usize) -> Option<ServeError>;
        let space = SearchSpace::for_arch(&GpuArch::kepler_k20c());
        let cands = [3, 4, 6, 8].map(CompileOptions::with_warps);
        let budget = SearchBudget::builder().sim_top_k(cands.len()).build();
        let run = |explorer: &dyn ScheduleSearch, score_fails: Fail, probe_fails: Fail| {
            tune_with(
                explorer,
                &space,
                &CompileOptions::default(),
                &budget,
                |cs| {
                    let predict = |w: usize| score_fails(w).map_or(Ok(w as f64), Err);
                    cs.iter().map(|o| predict(o.warps)).collect()
                },
                |o| probe_fails(o.warps).map_or(Ok(1.0 / o.warps as f64), Err),
            )
        };
        let none: Fail = |_| None;
        // Low warp counts predict best, so either explorer's oracle
        // reaches one.
        let overloaded: Fail = |w| {
            let retry_after = std::time::Duration::from_millis(5);
            (w <= 4).then_some(ServeError::Overloaded { retry_after, queued: 1, capacity: 1 })
        };
        let shutting_down: Fail = |w| (w <= 4).then_some(ServeError::ShuttingDown);

        // Compile (scorer) and Launch (oracle) are candidate outcomes:
        // recorded on the point, and the sweep carries on to a winner.
        let no_fit: Fail = |w| {
            let e = singe::CompileError::ResourceExhausted("no fit".into());
            (w == 3).then_some(ServeError::Compile(e))
        };
        let bad_arrays: Fail = |w| (w == 8).then_some(ServeError::Launch("bad arrays".into()));
        let (best, outcome) = run(&FixedList(&cands), no_fit, bad_arrays).expect("sweep completes");
        assert_eq!(best.warps, 6);
        let failures: Vec<Option<String>> =
            outcome.points.iter().map(|p| p.failure.as_ref().map(TuneFailure::to_string)).collect();
        let compile = "did not compile: resource exhausted: no fit".to_string();
        let launch = "compiled but failed to run: bad arrays".to_string();
        assert_eq!(failures, [Some(compile.clone()), None, None, Some(launch.clone())]);
        assert_eq!(outcome.simulations, 3);

        // Every other error aborts the call and comes back as itself,
        // from the scorer and from the oracle, under either explorer.
        for explorer in [&FixedList(&cands) as &dyn ScheduleSearch, &BeamSearch] {
            let err = run(explorer, overloaded, none).unwrap_err();
            assert!(matches!(err, ServeError::Overloaded { .. }), "{err}");
            let err = run(explorer, none, overloaded).unwrap_err();
            assert!(matches!(err, ServeError::Overloaded { .. }), "{err}");
            let err = run(explorer, shutting_down, bad_arrays).unwrap_err();
            assert!(matches!(err, ServeError::ShuttingDown), "{err}");
        }

        // When no candidate runs, the error carries the first failure in
        // candidate order: the compile message here, ahead of the launches.
        let no_launch: Fail = |_| Some(ServeError::Launch("bad arrays".into()));
        let err = run(&FixedList(&cands), no_fit, no_launch).unwrap_err().to_string();
        assert!(err.contains(&compile), "{err}");
        let err = run(&FixedList(&cands), none, no_launch).unwrap_err().to_string();
        assert!(err.contains(&launch), "{err}");

        // No candidates is an error, not a panic.
        let err = run(&FixedList(&[]), none, none).unwrap_err();
        assert!(matches!(err, ServeError::Internal(_)), "{err}");
    }
}
