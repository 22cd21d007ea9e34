//! Routing the report generator through the serve-layer artifact cache
//! (`SINGE_SERVE_CACHE`) must be invisible in the output: stdout from the
//! direct path, a cold serve-cached run, and a warm serve-cached run over
//! the same cache directory must all be byte-identical.

use std::path::Path;
use std::process::Command;

fn run_report(figure: &str, dir: &Path, serve_cache: Option<&Path>) -> Vec<u8> {
    std::fs::create_dir_all(dir).expect("mkdir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_report"));
    cmd.args([figure, "--jobs", "2"]).current_dir(dir);
    match serve_cache {
        Some(cache) => cmd.env("SINGE_SERVE_CACHE", cache),
        None => cmd.env_remove("SINGE_SERVE_CACHE"),
    };
    let out = cmd.output().expect("spawn report");
    assert!(
        out.status.success(),
        "report {figure} (serve_cache={serve_cache:?}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn report_is_bit_identical_through_serve_cache() {
    // Debug builds interpret ~20x slower; one compile-heavy figure is
    // enough to exercise the serve routing there.
    let figure = if cfg!(debug_assertions) { "fig9" } else { "all" };
    let base = std::env::temp_dir().join(format!("singe-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache = base.join("cache");
    let record_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json");
    let record_before = std::fs::read(record_path).expect("the committed record");

    let direct = run_report(figure, &base.join("direct"), None);
    let cold = run_report(figure, &base.join("cold"), Some(&cache));
    // Same cache dir, new process: every compile should come off disk.
    let warm = run_report(figure, &base.join("warm"), Some(&cache));

    let n_artifacts = std::fs::read_dir(&cache)
        .expect("serve cache dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "art"))
        .count();
    std::fs::remove_dir_all(&base).ok();

    assert!(!direct.is_empty(), "report produced no output");
    let record_after = std::fs::read(record_path).expect("the committed record");
    assert!(record_before == record_after, "report {figure} rewrote BENCH_report.json");
    assert!(n_artifacts > 0, "serve-routed run persisted no artifacts");
    assert_eq!(
        direct, cold,
        "stdout differs between the direct path and a cold serve-cached run"
    );
    assert_eq!(
        direct, warm,
        "stdout differs between the direct path and a warm serve-cached run"
    );
}
