//! The report generator must be bit-deterministic across worker counts:
//! stdout and `target/report.json` from `--jobs 1` and `--jobs 8` must be
//! byte-identical, or parallel sweeps have changed result order or
//! floating-point evaluation order. It also writes nothing outside
//! `target/`: the committed record is `report record`'s alone.

use std::path::PathBuf;
use std::process::Command;

use singe_bench::record::{self, Json};

const RECORD_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json");

fn run_report(figure: &str, jobs: &str, dir: &PathBuf) -> (Vec<u8>, Vec<u8>) {
    std::fs::create_dir_all(dir).expect("mkdir");
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args([figure, "--jobs", jobs])
        .current_dir(dir)
        .output()
        .expect("spawn report");
    assert!(
        out.status.success(),
        "report {figure} --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read(dir.join("target/report.json")).unwrap_or_default();
    (out.stdout, json)
}

#[test]
fn report_is_bit_identical_across_job_counts() {
    // Debug builds interpret ~20x slower; one figure is enough to exercise
    // the pool + ordered commit there, the full report runs in release.
    let figure = if cfg!(debug_assertions) { "fig9" } else { "all" };
    let base = std::env::temp_dir().join(format!("singe-determinism-{}", std::process::id()));
    let d1 = base.join("jobs1");
    let d8 = base.join("jobs8");
    let record_before = std::fs::read(RECORD_PATH).expect("the committed record");
    let (stdout1, json1) = run_report(figure, "1", &d1);
    let (stdout8, json8) = run_report(figure, "8", &d8);
    std::fs::remove_dir_all(&base).ok();
    assert!(!stdout1.is_empty(), "report produced no output");
    assert_eq!(stdout1, stdout8, "stdout differs between --jobs 1 and --jobs 8");
    assert_eq!(json1, json8, "target/report.json differs between --jobs 1 and --jobs 8");
    let record_after = std::fs::read(RECORD_PATH).expect("the committed record");
    assert!(record_before == record_after, "report {figure} rewrote BENCH_report.json");

    // Every data-bearing figure lands rows in target/report.json; the
    // mechanisms table (the inputs' characteristics) has none, and the
    // verifier sweep has one per kernel x mechanism x arch x compiler.
    let rows = record::parse(&json1).expect("target/report.json parses");
    let count = |figure: &str| {
        let named = |r: &&Json| r.get("figure").and_then(Json::as_str) == Some(figure);
        rows.items().iter().filter(named).count()
    };
    assert!(count("fig9") > 0, "fig9 has no rows");
    if figure == "all" {
        for fig in ["fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"] {
            assert!(count(fig) > 0, "{fig} has no rows");
        }
        // gflops, ablate-barriers and spills name their rows by section.
        for section in ["s6.1", "s6.1-regexp", "s6.2", "s6.2-nobar", "s6.3"] {
            assert!(count(section) > 0, "section {section} has no rows");
        }
        assert_eq!(count("mechanisms"), 0);
        assert_eq!(count("verify"), 54);
    }
}
