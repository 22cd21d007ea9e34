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
//! * a **probe memo** — the probe launch's event counts per artifact key, a
//!   bounded [`Memo`];
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

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use chemkin::synth::SynthConfig;
use chemkin::{GridDims, GridState, Mechanism};
use gpu_sim::arch::GpuArch;
use gpu_sim::counts::EventCounts;
use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
use gpu_sim::memo::Memo;
use gpu_sim::timing::{estimate, SimReport};
use singe::kernels::{launch_arrays, probe_inputs};
use singe::search::{ScheduleSearch, SearchBudget, SearchOutcome};
use singe::{CompileOptions, Compiler, Placement, Variant};

use crate::artifact::{Artifact, ArtifactKey, ArtifactMeta, Store, VerifyVerdict};
use crate::error::{ServeError, ServeResult};
use crate::ids::{ArchId, KernelId, MechanismId};
use crate::metrics::{Counters, ServeStats};
use crate::sched::{Scheduler, Ticket};

/// The grid seed of every probe launch, [`ServeSession::probe`]'s and the
/// tuner's, so a probe is deterministic.
const PROBE_SEED: u64 = 1234;

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

/// A compile in flight. The table of these is not a [`Memo`]: a slot is
/// removed once it resolves, so the table dedups concurrency, not history —
/// later identical requests go to disk and count as warm hits.
type InflightSlot = Arc<OnceLock<Result<(Arc<Artifact>, ArtifactSource), ServeError>>>;

struct SessionInner {
    store: Store,
    counters: Counters,
    registry: Mutex<BTreeMap<String, MechEntry>>,
    inflight: Mutex<HashMap<ArtifactKey, InflightSlot>>,
    probes: Memo<ArtifactKey, ServeResult<EventCounts>>,
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
            probes: Memo::new(),
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
    /// predictions re-use both the artifact and the probe. The grid seed is
    /// fixed, so a failed probe fails again and is memoized like a compile
    /// error.
    pub fn probe(&self, req: &CompileRequest) -> ServeResult<EventCounts> {
        let handle = self.compile(req)?;
        self.inner.probes.get_or_make(handle.key, || {
            let kernel = &handle.artifact.kernel;
            let n_species = self.inner.mechanism(&req.mechanism)?.0.n_transported();
            let probe = kernel.points_per_cta;
            let g = GridState::random(GridDims { nx: probe, ny: 1, nz: 1 }, n_species, PROBE_SEED);
            let arrays = launch_arrays(&kernel.global_arrays, &g)
                .map_err(|e| ServeError::Launch(e.to_string()))?;
            let out =
                launch(kernel, &req.arch.arch(), &LaunchInputs { arrays }, probe, LaunchMode::Full)
                    .map_err(|e| ServeError::Launch(e.to_string()))?;
            Ok(out.report.counts)
        })
    }

    /// Predict the request's kernel performance at `grid_points` points:
    /// probe one CTA (cached), extrapolate with the timing model.
    pub fn predict(&self, req: &CompileRequest, grid_points: usize) -> ServeResult<SimReport> {
        let handle = self.compile(req)?;
        let counts = self.probe(req)?;
        Ok(estimate(&handle.artifact.kernel, &req.arch.arch(), &counts, grid_points))
    }

    /// Tune the request's kernel with the core tuner, [`Compiler::search`]:
    /// `explorer` within `budget`, seeded at the request's options or the
    /// per-kernel defaults, over one graph built at the request's
    /// `dfg_warps` or else the seed's warp count. Candidates are scored and
    /// survivors probed at `grid_points` points rounded up to whole CTAs,
    /// on inputs drawn at the seed [`ServeSession::probe`] uses. It runs
    /// on the caller's thread, not the scheduler, and neither reads nor
    /// writes the artifact cache. Returns the winning options plus the full
    /// audit trail.
    ///
    /// Only [`Variant::WarpSpecialized`] is tuned; any other variant is
    /// [`ServeError::Untunable`] before anything compiles. A tuner error —
    /// no candidate ran, say — is [`ServeError::Compile`].
    pub fn tune(
        &self,
        req: &CompileRequest,
        explorer: &dyn ScheduleSearch,
        budget: &SearchBudget,
        grid_points: usize,
    ) -> ServeResult<(CompileOptions, SearchOutcome)> {
        if req.variant != Variant::WarpSpecialized {
            return Err(ServeError::Untunable(req.variant));
        }
        let (mech, _) = self.inner.mechanism(&req.mechanism)?;
        let arch = req.arch.arch();
        let n_species = mech.n_transported();
        let base =
            req.options.clone().unwrap_or_else(|| default_options(req.kernel, n_species, &arch));
        let dfg = req.kernel.dfg(&mech, req.dfg_warps.unwrap_or(base.warps));
        let tuned = Compiler::new(&arch).options(base).search().budget(budget.clone()).tune(
            &dfg,
            explorer,
            grid_points,
            &probe_inputs(n_species, PROBE_SEED),
        )?;
        Ok((tuned.outcome.best_options.clone(), tuned.outcome))
    }
}

impl SessionInner {
    /// The registered mechanism `id` and its fingerprint.
    fn mechanism(&self, id: &MechanismId) -> ServeResult<(Arc<Mechanism>, u64)> {
        let reg = self.registry.lock().unwrap();
        match reg.get(id.as_str()) {
            Some(e) => Ok((Arc::clone(&e.mech), e.fingerprint)),
            None => Err(ServeError::UnknownMechanism {
                requested: id.as_str().to_string(),
                known: reg.keys().cloned().collect(),
            }),
        }
    }
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
    let (mech, fingerprint) = inner.mechanism(&req.mechanism)?;
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
    // exactly one caller and blocks the rest until it resolves.
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
    let dfg = req.kernel.dfg(mech, dfg_warps);
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
    use crate::ids::ArchId;
    use singe::search::{BeamSearch, FixedList};

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

    /// `tune`'s errors are typed: a variant the tuner does not search is
    /// refused first, ahead of even the mechanism lookup, and an error of
    /// the tuner itself (no candidate to run) is a compile error.
    #[test]
    fn tune_refuses_other_variants_and_returns_tuner_errors_as_compile_errors() {
        let dir = std::env::temp_dir().join(format!("singe-serve-tune-{}", std::process::id()));
        let session = ServeSession::builder(&dir).builtins(false).jobs(1).open().unwrap();
        let tiny = SynthConfig {
            name: "tiny".into(),
            n_species: 6,
            n_reactions: 8,
            n_qssa: 0,
            n_stiff: 0,
            seed: 4,
        };
        let tiny = session.register_synth(&tiny).unwrap();
        let missing: MechanismId = "missing".parse().unwrap();
        let budget = SearchBudget::default();
        for mech in [&tiny, &missing] {
            for variant in [Variant::Baseline, Variant::Naive] {
                let req =
                    CompileRequest::new(mech.clone(), KernelId::Viscosity, variant, ArchId::Kepler);
                let err = session.tune(&req, &BeamSearch, &budget, 256).unwrap_err();
                assert!(matches!(err, ServeError::Untunable(v) if v == variant), "{err}");
            }
        }

        let ws = Variant::WarpSpecialized;
        let req = CompileRequest::new(tiny, KernelId::Viscosity, ws, ArchId::Kepler);
        let err = session.tune(&req, &FixedList(&[]), &budget, 256).unwrap_err();
        assert!(
            matches!(err, ServeError::Compile(singe::CompileError::ResourceExhausted(_))),
            "{err}"
        );
        assert_eq!(session.stats().cold_compiles, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
