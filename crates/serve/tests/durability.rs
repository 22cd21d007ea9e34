//! Durability and concurrency contracts of the serve layer, end to end
//! through the public API: artifacts must survive a process restart
//! byte-for-byte, corruption must degrade to a recompile (never an
//! error), and identical concurrent requests must compile exactly once.

use std::path::{Path, PathBuf};

use chemkin::synth::{self, SynthConfig};
use singe::kernels::probe_inputs;
use singe::{Compiler, Variant};
use singe_serve::artifact::ArtifactKey;
use singe_serve::{
    default_options, mechanism_fingerprint, ArchId, ArtifactSource, BeamSearch, CompileRequest,
    KernelId, SearchBudget, SearchOutcome, ServeError, ServeSession,
};

/// Fresh cache directory under the crate's `target/`, unique per test.
fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("singe-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> ServeSession {
    ServeSession::builder(dir).builtins(false).open().expect("open session")
}

fn dme_request(kernel: KernelId) -> CompileRequest {
    CompileRequest::new("dme".parse().unwrap(), kernel, Variant::WarpSpecialized, ArchId::Kepler)
}

/// A cold compile, a restart, and a warm load must agree on everything
/// observable: the kernel (bit-for-bit, `Debug` form includes every f64
/// constant), the compile stats, the verification verdict, and the event
/// counts a probe launch produces from the artifact.
#[test]
fn warm_artifact_is_byte_identical_across_restart() {
    let dir = cache_dir("restart");
    let req = dme_request(KernelId::Viscosity);

    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let cold = session.compile(&req).expect("cold compile");
    assert_eq!(cold.source, ArtifactSource::ColdCompile);
    let cold_counts = session.probe(&req).expect("cold probe");
    drop(session);

    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let warm = session.compile(&req).expect("warm compile");
    assert_eq!(warm.source, ArtifactSource::WarmDisk, "restart must hit the disk cache");
    assert_eq!(warm.key, cold.key);
    assert_eq!(
        format!("{:?}", warm.artifact.kernel),
        format!("{:?}", cold.artifact.kernel),
        "warm kernel differs from the cold compile"
    );
    assert_eq!(
        format!("{:?}", warm.artifact.stats),
        format!("{:?}", cold.artifact.stats),
        "warm compile stats differ from the cold compile"
    );
    assert_eq!(
        format!("{:?}", warm.artifact.verdict),
        format!("{:?}", cold.artifact.verdict),
        "warm verification verdict differs from the cold compile"
    );
    let warm_counts = session.probe(&req).expect("warm probe");
    assert_eq!(
        format!("{warm_counts:?}"),
        format!("{cold_counts:?}"),
        "probe launch through the warm artifact diverged"
    );

    let stats = session.stats();
    // compile + probe's internal compile: both warm, neither cold.
    assert!(stats.warm_hits >= 1, "restart session saw no warm hits");
    assert_eq!(stats.cold_compiles, 0, "restart session must never compile cold");
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncating or bit-flipping the on-disk artifact must be indistinguishable
/// from a cache miss: the next compile runs cold, succeeds, and rewrites a
/// valid artifact.
#[test]
fn corrupt_artifact_falls_back_to_recompile() {
    let dir = cache_dir("corrupt");
    let req = dme_request(KernelId::Diffusion);

    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let cold = session.compile(&req).unwrap();
    let path = session.cache_dir().join(cold.key.file_name());
    let bytes = std::fs::read(&path).expect("artifact on disk");
    drop(session);

    // Truncation (half the file gone, e.g. a crash mid-write).
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let h = session.compile(&req).expect("compile past truncated artifact");
    assert_eq!(h.source, ArtifactSource::ColdCompile, "truncated artifact must recompile");
    assert_eq!(session.stats().corrupt_reloads, 1);
    drop(session);

    // Bit flip in the middle of the payload (silent media corruption).
    let mut flipped = std::fs::read(&path).unwrap();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let h = session.compile(&req).expect("compile past corrupted artifact");
    assert_eq!(h.source, ArtifactSource::ColdCompile, "corrupted artifact must recompile");
    assert_eq!(h.key, cold.key);
    assert_eq!(
        format!("{:?}", h.artifact.kernel),
        format!("{:?}", cold.artifact.kernel),
        "recompile after corruption produced a different kernel"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// N identical requests submitted concurrently must trigger exactly one
/// compiler run; the rest join the in-flight slot and observe the same
/// artifact.
#[test]
fn identical_inflight_requests_compile_once() {
    let dir = cache_dir("dedup");
    let session = ServeSession::builder(&dir).builtins(false).jobs(4).open().unwrap();
    session.register_synth(&synth::dme_config()).unwrap();
    let req = dme_request(KernelId::Viscosity);

    let n = 8;
    let tickets: Vec<_> = (0..n).map(|_| session.submit(&req).expect("submit")).collect();
    let handles: Vec<_> = tickets.into_iter().map(|t| t.wait().expect("compile")).collect();

    let stats = session.stats();
    assert_eq!(stats.cold_compiles, 1, "identical in-flight requests must compile once");
    assert_eq!(
        stats.cold_compiles + stats.inflight_joins + stats.warm_hits,
        n,
        "every request must be accounted for"
    );
    let first = format!("{:?}", handles[0].artifact.kernel);
    for h in &handles {
        assert_eq!(h.key, handles[0].key);
        assert_eq!(format!("{:?}", h.artifact.kernel), first);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Hopper artifacts — the K-stage pipelined schedules — must round-trip
/// the disk cache like any other kernel: cold compile, restart, warm load
/// byte-identical (including the replicated iconst banks and stage
/// barrier declarations); and a stale `LOWERING_VERSION` in the container
/// header must read as a cache miss (cold recompile), never a replay of
/// an artifact lowered by an older compiler.
#[test]
fn hopper_pipelined_artifact_roundtrips_and_rejects_stale_lowering() {
    let dir = cache_dir("hopper");
    let req = CompileRequest::new(
        "dme".parse().unwrap(),
        KernelId::Viscosity,
        Variant::WarpSpecialized,
        ArchId::Hopper,
    );

    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let cold = session.compile(&req).expect("cold compile");
    assert_eq!(cold.source, ArtifactSource::ColdCompile);
    let stats = cold.artifact.stats.as_ref().expect("ws artifact carries stats");
    assert_eq!(
        stats.pipeline_depth, 2,
        "Hopper viscosity defaults must produce a K=2 pipelined schedule"
    );
    let cold_counts = session.probe(&req).expect("cold probe");
    let path = session.cache_dir().join(cold.key.file_name());
    drop(session);

    // Restart: the pipelined artifact must come back warm and identical.
    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let warm = session.compile(&req).expect("warm compile");
    assert_eq!(warm.source, ArtifactSource::WarmDisk, "restart must hit the disk cache");
    assert_eq!(warm.key, cold.key);
    assert_eq!(
        format!("{:?}", warm.artifact.kernel),
        format!("{:?}", cold.artifact.kernel),
        "warm pipelined kernel differs from the cold compile"
    );
    let warm_counts = session.probe(&req).expect("warm probe");
    assert_eq!(
        format!("{warm_counts:?}"),
        format!("{cold_counts:?}"),
        "probe launch through the warm pipelined artifact diverged"
    );
    assert_eq!(session.stats().cold_compiles, 0, "restart session must never compile cold");
    drop(session);

    // Stale lowering: bump the `LOWERING_VERSION` field in the container
    // header (offset 12: 8-byte magic + 4-byte wire-format version). The
    // payload checksum does not cover the header, so the file is otherwise
    // pristine — only the version skew can reject it.
    let mut bytes = std::fs::read(&path).expect("artifact on disk");
    let v = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    bytes[12..16].copy_from_slice(&(v + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let fresh = session.compile(&req).expect("compile past the stale artifact");
    assert_eq!(fresh.source, ArtifactSource::ColdCompile, "stale lowering must recompile");
    assert_eq!(session.stats().corrupt_reloads, 1, "version skew must count as a fallback");
    assert_eq!(
        format!("{:?}", fresh.artifact.kernel),
        format!("{:?}", cold.artifact.kernel),
        "recompile after version skew produced a different kernel"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A cache directory outlives the binary that filled it, and the kernels in
/// it are what that binary's code generator emitted. An entry saved under
/// `CODEGEN_VERSION` N has another key under N + 1, so the newer binary
/// never looks at it: the request is a plain cold compile — not a warm hit
/// serving the old kernel, and not a `corrupt_reload` either.
#[test]
fn an_artifact_of_an_older_code_generator_is_recompiled_not_served() {
    let dir = cache_dir("codegen-version");
    let req = dme_request(KernelId::Diffusion);
    let mech = synth::via_text(&synth::dme_config());

    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let cold = session.compile(&req).expect("cold compile");
    assert_eq!(cold.source, ArtifactSource::ColdCompile);
    drop(session);

    // The request's key, as this binary and as its predecessor derive it.
    let arch = ArchId::Kepler.arch();
    let opts = default_options(req.kernel, mech.n_transported(), &arch);
    let key_at = |codegen_version| {
        ArtifactKey::derive_versioned(
            mechanism_fingerprint(&mech),
            req.kernel.name(),
            req.variant.name(),
            arch.name,
            opts.warps,
            &format!("{opts:?}"),
            codegen_version,
        )
    };
    assert_eq!(key_at(singe::CODEGEN_VERSION), cold.key, "the test derives the session's key");
    let old_key = key_at(singe::CODEGEN_VERSION - 1);
    assert_ne!(old_key, cold.key);

    // What the predecessor left behind: the artifact under its own key,
    // its own version in the header (offset 16: magic, wire-format version,
    // lowering version).
    let path = dir.join(cold.key.file_name());
    let old_path = dir.join(old_key.file_name());
    let mut bytes = std::fs::read(&path).expect("artifact on disk");
    bytes[16..20].copy_from_slice(&(singe::CODEGEN_VERSION - 1).to_le_bytes());
    std::fs::write(&old_path, &bytes).unwrap();
    std::fs::remove_file(&path).unwrap();

    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let fresh = session.compile(&req).expect("compile beside the old artifact");
    assert_eq!(fresh.source, ArtifactSource::ColdCompile, "an older code generator's kernel was served");
    assert_eq!(fresh.key, cold.key);
    let stats = session.stats();
    assert_eq!((stats.cold_compiles, stats.corrupt_reloads), (1, 0));
    assert!(old_path.exists(), "the old entry is not this binary's to touch");
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown ids come back as typed errors that list what *would* have been
/// valid — the redesigned surface never panics or stringly-guesses.
#[test]
fn typed_errors_list_valid_ids() {
    let dir = cache_dir("ids");
    let session = open(&dir);
    session
        .register_synth(&SynthConfig { name: "tiny".into(), ..synth::dme_config() })
        .unwrap();

    let req = CompileRequest::new(
        "missing".parse().unwrap(),
        KernelId::Viscosity,
        Variant::WarpSpecialized,
        ArchId::Kepler,
    );
    match session.compile(&req) {
        Err(ServeError::UnknownMechanism { requested, known }) => {
            assert_eq!(requested, "missing");
            assert_eq!(known, vec!["tiny".to_string()]);
        }
        other => panic!("expected UnknownMechanism, got {other:?}"),
    }

    let err = "no-such-kernel".parse::<KernelId>().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("viscosity") && msg.contains("diffusion") && msg.contains("chemistry"),
        "kernel id error must list the valid ids: {msg}");
    let err = "vax".parse::<ArchId>().unwrap_err();
    assert!(err.to_string().contains("kepler"), "arch id error must list the valid ids");
    std::fs::remove_dir_all(&dir).ok();
}

/// Predict rides the cached artifact: a predict after a compile must not
/// add a cold compile. And an exhaustive sweep over a candidate list
/// simulates every candidate and returns a finite best.
#[test]
fn predict_and_autotune_reuse_cached_artifacts() {
    let dir = cache_dir("predict");
    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let req = dme_request(KernelId::Viscosity);

    session.compile(&req).unwrap();
    let after_compile = session.stats().cold_compiles;
    let report = session.predict(&req, 64 * 64 * 64).expect("predict");
    assert!(report.seconds > 0.0);
    assert_eq!(
        session.stats().cold_compiles,
        after_compile,
        "predict must reuse the cached artifact, not recompile"
    );

    // Both candidates compile on the request's one graph, built at the
    // default warp count: the defaults, and the library's options at it.
    let n = synth::via_text(&synth::dme_config()).n_transported();
    let defaults = default_options(KernelId::Viscosity, n, &ArchId::Kepler.arch());
    let candidates = vec![defaults.clone(), singe::CompileOptions::with_warps(defaults.warps)];
    let budget = singe_serve::SearchBudget::builder().sim_top_k(candidates.len()).build();
    let (best, outcome) = session
        .tune(&req, &singe_serve::FixedList(&candidates), &budget, 64 * 64 * 64)
        .expect("sweep runs");
    assert!(candidates.iter().any(|c| format!("{c:?}") == format!("{best:?}")));
    assert_eq!(outcome.simulations, candidates.len());
    assert!(outcome.best_seconds.is_finite() && outcome.best_seconds > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// What a search decided, bit for bit: every point's options, predicted
/// and simulated bits and failure, then the winner's seconds.
type Decisions = (Vec<(String, Option<u64>, Option<u64>, Option<String>)>, u64);

fn decisions(outcome: &SearchOutcome) -> Decisions {
    let point = |p: &singe::search::SearchPoint| {
        (
            format!("{:?}", p.options),
            p.predicted_seconds.map(f64::to_bits),
            p.simulated_seconds.map(f64::to_bits),
            p.failure.as_ref().map(ToString::to_string),
        )
    };
    (outcome.points.iter().map(point).collect(), outcome.best_seconds.to_bits())
}

/// `ServeSession::tune` is the core tuner: on both `search_tune`-shaped
/// rows — DME viscosity on Kepler, the diffusion of a DME-shaped mechanism
/// on Hopper — it returns what `Compiler::search` returns over the graph at
/// the default warp count, probed on the seed of the session's probes, bit
/// for bit; and so does a repeat of the call.
#[test]
fn tune_is_the_core_tuner() {
    let dir = cache_dir("tune");
    let session = open(&dir);
    let heldout = SynthConfig { name: "heldout".into(), seed: 0x5eed, ..synth::dme_config() };
    let rows = [
        (synth::dme_config(), KernelId::Viscosity, ArchId::Kepler),
        (heldout, KernelId::Diffusion, ArchId::Hopper),
    ];
    // Small, so the debug build stays quick: a seed beam and one round.
    let budget =
        SearchBudget::builder().beam_width(2).rounds(1).sim_top_k(2).max_model_evals(8).build();
    let probe_points = 4096;
    for (cfg, kernel, arch_id) in rows {
        let id = session.register_synth(&cfg).unwrap();
        let req = CompileRequest::new(id, kernel, Variant::WarpSpecialized, arch_id);
        let mech = synth::via_text(&cfg);
        let n = mech.n_transported();
        let arch = arch_id.arch();
        let base = default_options(kernel, n, &arch);
        let dfg = kernel.dfg(&mech, base.warps);
        let core = Compiler::new(&arch)
            .options(base)
            .search()
            .budget(budget.clone())
            .tune(&dfg, &BeamSearch, probe_points, &probe_inputs(n, 1234))
            .expect("core tuner runs");
        assert!(core.outcome.simulations > 0 && core.outcome.best_seconds.is_finite());
        for call in ["first", "repeated"] {
            let (best, outcome) =
                session.tune(&req, &BeamSearch, &budget, probe_points).expect("serve tune runs");
            let row = format!("{} {kernel} on {arch_id:?}, {call} call", cfg.name);
            assert_eq!(decisions(&outcome), decisions(&core.outcome), "{row}");
            assert_eq!(format!("{best:?}"), format!("{:?}", core.outcome.best_options), "{row}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
