//! The parent process: parse the command line, plan a run, spawn one
//! child per pass, aggregate what they measured, print it.
//!
//! Every run drives all four stages, so every run reports every metric.
//! The workload is the mix: its own stage gets most of `--seconds`, the
//! other three a floor that keeps their numbers honest.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::pass::{self, PassCfg, PassOut, Stage};
use crate::spec::{MetricSpec, Spec};
use crate::stats::{highest_percentile, median, percentile_sorted, sorted};
use crate::trace;

const USAGE: &str = "usage:
  singe-benchmark run --seed <u64> [--workload <name>] [--seconds <n>] [--trace [0|1]]
                      [--smoke] [--out <file>] [--trace-out <file>]
  singe-benchmark compare <a.json> <b.json>

run      measures one workload (or all four), prints every metric by name and,
         as its last line, one JSON object {correct, attempted, failed, metrics}
         --trace      the traced run: per-layer metrics and a Chrome trace
         --smoke      tiny sizes, two passes a stage, for CI
         --out        append the run to a result file `compare` reads
compare  sets two result files against each other with BENCHMARK.json's
         directions and bounds; exits 1 on a regression";

/// Share of `--seconds` that goes to timed work of the workload's own
/// stage, and of each other stage; the rest of a run is set-up and checks.
const OWN_SHARE: f64 = 0.40;
const FLOOR_SHARE: f64 = 0.12;
/// What one pass of a fixed-size stage takes on the host the sizes were
/// chosen on; only used to turn a budget into a replica count.
const FIGURES_PASS_S: f64 = 3.0;
const SEARCH_PASS_S: f64 = 3.6;

fn stage_of(workload: &str) -> Option<Stage> {
    match workload {
        "figures_cold" => Some(Stage::Figures),
        "sim_steady" => Some(Stage::Sim),
        "serve_mixed" => Some(Stage::Serve),
        "search_tune" => Some(Stage::Search),
        _ => None,
    }
}

#[derive(Debug, Clone, PartialEq)]
struct StagePlan {
    stage: Stage,
    /// Replicas: passes that do identical work from the same seed, each in
    /// a process of its own, spread over the run.
    untraced: usize,
    traced: usize,
    /// Timed seconds of one pass, for the stages that size themselves.
    pass_budget_s: f64,
    /// Seconds the stage as a whole was given.
    budget_s: f64,
}

fn plan(own: Stage, seconds: f64, trace: bool, smoke: bool) -> Vec<StagePlan> {
    Stage::ALL
        .into_iter()
        .map(|stage| {
            let budget_s = seconds * if stage == own { OWN_SHARE } else { FLOOR_SHARE };
            // Never fewer than two replicas: the fastest of two is what
            // keeps a slow spell of the host out of the result.
            let fits = |per_pass: f64| ((budget_s / per_pass).ceil() as usize).max(2);
            let (replicas, sized) = match stage {
                _ if smoke => (2, false),
                Stage::Figures => (fits(FIGURES_PASS_S), false),
                Stage::Search => (fits(SEARCH_PASS_S), false),
                // A sim replica pays a second of set-up for each second it
                // times; a serve replica starts in milliseconds.
                Stage::Sim => (if stage == own { 3 } else { 2 }, true),
                Stage::Serve => (if stage == own { 4 } else { 3 }, true),
            };
            // The traced run times one traced pass a stage; the workload's
            // own stage runs two of each kind, to measure what tracing costs.
            let (untraced, traced) = match (trace, stage == own) {
                (false, _) => (replicas, 0),
                (true, true) => (2, 2),
                (true, false) => (0, 1),
            };
            let pass_budget_s = if sized {
                budget_s / replicas as f64
            } else {
                0.0
            };
            StagePlan {
                stage,
                untraced,
                traced,
                pass_budget_s,
                budget_s,
            }
        })
        .collect()
}

struct Opts {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_run(args: &[String], spec: &Spec) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: spec.workloads.clone(),
        seed: 0,
        seconds: spec.run_seconds,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut seed = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if stage_of(&w).is_none() {
                    return Err(format!(
                        "unknown workload {w}; one of {}",
                        spec.workloads.join(", ")
                    ));
                }
                o.workloads = vec![w];
            }
            "--seed" => {
                seed = Some(
                    value("a number")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(PathBuf::from(value("a file")?)),
            "--trace-out" => o.trace_out = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    o.seed = seed.ok_or("--seed is required: the inputs are made from it")?;
    Ok(o)
}

/// A child's command line: the pass, and when the parent spawned it.
fn parse_child(args: &[String]) -> Result<(PassCfg, u128), String> {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or(format!("child lacks {flag}"))
    };
    let num = |flag: &str| {
        get(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let spawned_at_ns = get("--spawned-at")?
        .parse::<u128>()
        .map_err(|e| e.to_string())?;
    let cfg = PassCfg {
        stage: Stage::parse(get("--child")?).ok_or("unknown stage")?,
        pass: num("--pass")? as usize,
        seed: get("--seed")?.parse::<u64>().map_err(|e| e.to_string())?,
        budget_s: num("--budget")?,
        trace: get("--trace")? == "1",
        smoke: get("--smoke")? == "1",
        dir: PathBuf::from(get("--dir")?),
    };
    Ok((cfg, spawned_at_ns))
}

pub fn main(args: &[String]) -> i32 {
    let fail = |msg: String| {
        eprintln!("singe-benchmark: {msg}");
        2
    };
    match args.first().map(String::as_str) {
        Some("--child") => match parse_child(args) {
            Ok((cfg, spawned_at_ns)) => {
                println!("{}", pass::run(&cfg, spawned_at_ns).to_json());
                0
            }
            Err(e) => fail(e),
        },
        Some("run") => {
            let parsed =
                Spec::load().and_then(|spec| parse_run(&args[1..], &spec).map(|o| (spec, o)));
            match parsed {
                Ok((spec, opts)) => run(&spec, &opts),
                Err(e) => fail(format!("{e}\n{USAGE}")),
            }
        }
        Some("compare") if args.len() == 3 => match Spec::load() {
            Ok(spec) => crate::compare::main(&spec, Path::new(&args[1]), Path::new(&args[2])),
            Err(e) => fail(e),
        },
        _ => fail(USAGE.to_string()),
    }
}

/// This run's scratch directory under `benchmark/target/`, removed when the
/// run ends however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

fn spawn_pass(cfg: &PassCfg) -> Result<PassOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", cfg.stage.name()])
        .args(["--pass", &cfg.pass.to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--budget", &cfg.budget_s.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .args(["--smoke", if cfg.smoke { "1" } else { "0" }])
        .arg("--dir")
        .arg(&cfg.dir)
        .args(["--spawned-at", &pass::unix_nanos().to_string()])
        // Worker counts are passed explicitly everywhere; the variable must
        // not reach the one `launch` default that would read it.
        .env_remove("SINGE_JOBS")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = err.lines().rev().take(6).collect();
        return Err(format!(
            "child {}: {}",
            out.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    PassOut::from_json(&Json::parse(last)?)
}

/// The passes one stage ran.
struct StageRuns {
    plan: StagePlan,
    untraced: Vec<PassOut>,
    traced: Vec<PassOut>,
}

impl StageRuns {
    fn all(&self) -> impl Iterator<Item = &PassOut> {
        self.untraced.iter().chain(&self.traced)
    }

    /// Seconds of one fixed unit of the stage's end-to-end path (a figures
    /// or search pass, a round of the sim mix, a cold plus a warm request),
    /// with the traced run's extra measurements left out.
    fn unit_s(&self, passes: &[PassOut]) -> Option<f64> {
        let refs: Vec<&PassOut> = passes.iter().collect();
        let sum = |pool: &str| fastest(&refs, pool).map(|v| v.iter().sum::<f64>());
        match self.plan.stage {
            Stage::Figures => sum(crate::figures::PARTS),
            Stage::Search => sum(crate::search::ROWS),
            Stage::Sim => sum(crate::sim::FULL_S),
            Stage::Serve => {
                let p50 = |pool: &str| fastest(&refs, pool).map(|v| median(&v));
                Some((p50("serve_cold_cpu_ms")? + p50("serve_warm_cpu_ms")?) / 1e3)
            }
        }
    }
}

/// A metric as printed: its value, how many operations and replicas stand
/// behind it and, for request percentiles, the highest percentile that has
/// ten samples beyond.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub n: usize,
    pub replicas: usize,
    pub tail: Option<(f64, f64)>,
}

/// One sample pool over the stage's replicas: per operation, the time of
/// the replica that ran it fastest. Replicas run the same operations in the
/// same order (same seed), so pools align by index; a time-boxed phase may
/// end earlier in one replica, and its later operations then come from the
/// replicas that reached them. Noise on a shared host only ever adds time.
fn fastest(passes: &[&PassOut], pool: &str) -> Option<Vec<f64>> {
    let pools: Vec<&Vec<f64>> = passes.iter().filter_map(|p| p.samples.get(pool)).collect();
    let len = pools.iter().map(|p| p.len()).max()?;
    Some(
        (0..len)
            .map(|i| {
                pools
                    .iter()
                    .filter_map(|p| p.get(i))
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .collect(),
    )
}

struct Outcome {
    metrics: BTreeMap<String, Measured>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn run_stages(
    workload: &str,
    opts: &Opts,
    scratch: &Path,
    outcome: &mut Outcome,
) -> Vec<StageRuns> {
    let own = stage_of(workload).expect("validated at parse");
    let mut stages: Vec<StageRuns> = plan(own, opts.seconds, opts.trace, opts.smoke)
        .into_iter()
        .map(|plan| StageRuns {
            plan,
            untraced: Vec::new(),
            traced: Vec::new(),
        })
        .collect();
    let mut spent = vec![0.0; stages.len()];
    let rounds = stages
        .iter()
        .map(|r| r.plan.untraced + r.plan.traced)
        .max()
        .unwrap_or(0);
    // Round-robin over the stages, so that a stage's passes are spread over
    // the run: a slow spell of the host then hits one pass of each stage,
    // not every pass of one.
    for i in 0..rounds {
        for (runs, spent) in stages.iter_mut().zip(&mut spent) {
            let plan = &runs.plan;
            if i >= plan.untraced + plan.traced {
                continue;
            }
            let trace = i >= plan.untraced;
            // On a host much slower than the sizes assume, stop repeating a
            // stage once it has used twice its budget.
            if !trace && i > 0 && !opts.smoke && *spent > 2.0 * plan.budget_s {
                continue;
            }
            let cfg = PassCfg {
                stage: plan.stage,
                pass: i,
                seed: opts.seed,
                budget_s: plan.pass_budget_s,
                trace,
                smoke: opts.smoke,
                dir: scratch.to_path_buf(),
            };
            let began = Instant::now();
            let result = spawn_pass(&cfg);
            *spent += began.elapsed().as_secs_f64();
            outcome.attempted += 1;
            match result {
                Ok(out) => {
                    outcome.attempted += out.attempted;
                    outcome.failed += out.failed;
                    outcome.failures.extend(
                        out.failures
                            .iter()
                            .map(|f| format!("{} pass {i}: {f}", plan.stage.name())),
                    );
                    if trace {
                        &mut runs.traced
                    } else {
                        &mut runs.untraced
                    }
                    .push(out);
                }
                Err(e) => {
                    outcome.failed += 1;
                    outcome
                        .failures
                        .push(format!("{} pass {i}: {e}", plan.stage.name()));
                }
            }
        }
    }
    stages
}

/// Counts and simulated results must not differ between passes of a run.
fn check_exact(stages: &[StageRuns], outcome: &mut Outcome) {
    for runs in stages {
        let Some(first) = runs.all().next() else {
            continue;
        };
        for (i, other) in runs.all().enumerate().skip(1) {
            outcome.attempted += 1;
            let differing: Vec<&str> = first
                .exact
                .iter()
                .filter(|(k, v)| {
                    other
                        .exact
                        .get(*k)
                        .is_some_and(|o| o.to_bits() != v.to_bits())
                })
                .map(|(k, _)| k.as_str())
                .collect();
            if !differing.is_empty() {
                outcome.failed += 1;
                outcome.failures.push(format!(
                    "{} pass {i}: deterministic values differ from pass 0: {}",
                    runs.plan.stage.name(),
                    differing.join(", ")
                ));
            }
        }
    }
}

/// Resolve one declared metric from what the passes reported.
fn resolve(name: &str, passes: &[&PassOut]) -> Option<Measured> {
    let exact: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.exact.get(name))
        .copied()
        .collect();
    if let Some(v) = exact.first() {
        return Some(Measured {
            value: *v,
            n: 1,
            replicas: exact.len(),
            tail: None,
        });
    }
    let pool = |pool: &str| {
        let replicas = passes
            .iter()
            .filter(|p| p.samples.contains_key(pool))
            .count();
        fastest(passes, pool).map(|v| (v, replicas))
    };
    let of = |(v, replicas): (Vec<f64>, usize), value: f64| Measured {
        value,
        n: v.len(),
        replicas,
        tail: None,
    };
    match name {
        "figures_wall_s" | "search_wall_s" => {
            let parts = if name == "figures_wall_s" {
                crate::figures::PARTS
            } else {
                crate::search::ROWS
            };
            pool(parts).map(|p| {
                let sum = p.0.iter().sum();
                of(p, sum)
            })
        }
        "sim_host_kpts_per_s" => {
            let (points, _) = pool(crate::sim::POINTS)?;
            let p = pool(crate::sim::FULL_S)?;
            let kpts: Vec<f64> = points
                .iter()
                .zip(&p.0)
                .map(|(pts, s)| pts / s / 1e3)
                .collect();
            Some(of(p, crate::stats::geomean(&kpts)))
        }
        "serve_mixed_req_per_cpu_s" => {
            let requests = passes
                .iter()
                .find_map(|p| p.scalars.get(crate::serve::MIXED_REQUESTS))?;
            pool(crate::serve::MIXED_SEGMENTS).map(|p| {
                let rate = requests / p.0.iter().sum::<f64>();
                of(p, rate)
            })
        }
        "sim_profiled_cta_ms" => pool(crate::sim::PROFILED_MS).map(|p| {
            let mean = p.0.iter().sum::<f64>() / p.0.len() as f64;
            of(p, mean)
        }),
        _ => {
            // `<pool>_p50` and `<pool>_p99` are percentiles over the pool's
            // operations.
            let (base, p) = match name.rsplit_once("_p") {
                Some((base, "50")) => (base, 50.0),
                Some((base, "99")) => (base, 99.0),
                _ => (name, 50.0),
            };
            if let Some((v, replicas)) = pool(base) {
                let s = sorted(&v);
                let tail = highest_percentile(s.len()).map(|hp| (hp, percentile_sorted(&s, hp)));
                return Some(Measured {
                    value: percentile_sorted(&s, p),
                    n: s.len(),
                    replicas,
                    tail,
                });
            }
            // One value per pass: the median over the passes.
            let per_pass: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.scalars.get(name))
                .copied()
                .collect();
            (!per_pass.is_empty()).then(|| Measured {
                value: median(&per_pass),
                n: 1,
                replicas: per_pass.len(),
                tail: None,
            })
        }
    }
}

fn aggregate(
    workload: &str,
    opts: &Opts,
    spec: &Spec,
    stages: &[StageRuns],
    outcome: &mut Outcome,
) {
    let own = stage_of(workload).expect("validated at parse");
    let chosen: Vec<&PassOut> = stages
        .iter()
        .flat_map(|r| if opts.trace { &r.traced } else { &r.untraced })
        .collect();
    let everyone: Vec<&PassOut> = stages.iter().flat_map(StageRuns::all).collect();
    let one = |value: f64, replicas: usize| {
        Some(Measured {
            value,
            n: 1,
            replicas,
            tail: None,
        })
    };

    for m in spec.printed(opts.trace) {
        let measured = match m.name.as_str() {
            // What a run pays before its first timed operation, once per
            // stage: the median over the stage's processes, summed.
            "setup_s" => {
                let per_stage: Vec<f64> = stages
                    .iter()
                    .filter(|r| r.all().next().is_some())
                    .map(|r| median(&r.all().map(|p| p.setup_s).collect::<Vec<_>>()))
                    .collect();
                one(per_stage.iter().sum(), everyone.len())
            }
            "ok_share" => None, // after the last gate, below
            "peak_rss_mb" => {
                let own_kb = pass::process_usage().0;
                one(
                    everyone.iter().map(|p| p.vm_hwm_kb).fold(own_kb, f64::max) / 1024.0,
                    everyone.len() + 1,
                )
            }
            "host.sys_cpu_share" => {
                let (user, sys): (f64, f64) = everyone
                    .iter()
                    .fold((0.0, 0.0), |(u, s), p| (u + p.user_cpu_s, s + p.sys_cpu_s));
                one(sys / (user + sys).max(1e-9), everyone.len())
            }
            "host.rss_per_kernel_mb" => {
                let figures = stages.iter().find(|r| r.plan.stage == Stage::Figures);
                let cells = crate::gen::figure_cells(opts.seed, opts.smoke).len() as f64;
                let mb: Vec<f64> = figures
                    .into_iter()
                    .flat_map(StageRuns::all)
                    .map(|p| p.vm_hwm_kb / 1024.0 / cells)
                    .collect();
                (!mb.is_empty()).then(|| Measured {
                    value: median(&mb),
                    n: 1,
                    replicas: mb.len(),
                    tail: None,
                })
            }
            "trace_overhead_share" => stages.iter().find(|r| r.plan.stage == own).and_then(|r| {
                let (plain, traced) = (r.unit_s(&r.untraced)?, r.unit_s(&r.traced)?);
                one(traced / plain - 1.0, r.untraced.len() + r.traced.len())
            }),
            name => resolve(name, &chosen),
        };
        match measured {
            Some(v) if v.value.is_finite() => {
                outcome.metrics.insert(m.name.clone(), v);
            }
            _ if m.name == "ok_share" || opts.smoke => {}
            _ => {
                outcome.attempted += 1;
                outcome.failed += 1;
                outcome
                    .failures
                    .push(format!("metric {} was not measured", m.name));
            }
        }
    }
    if !opts.trace {
        let share = 1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64;
        let (n, replicas) = (outcome.attempted as usize, everyone.len());
        outcome.metrics.insert(
            "ok_share".into(),
            Measured {
                value: share,
                n,
                replicas,
                tail: None,
            },
        );
    }
}

fn provenance(opts: &Opts) -> Json {
    let shell = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        (
            "git_sha",
            Json::str(&shell(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("cpu_model", Json::str(&cpu)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("features", Json::str("default")),
        ("vexp_active", Json::Bool(gpu_sim::vmath::vexp_active())),
        ("rustc", Json::str(&shell("rustc", &["--version"]))),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("jobs", Json::Num(1.0)),
        ("serve_workers", Json::Num(2.0)),
    ])
}

fn print_table(workload: &str, opts: &Opts, spec: &Spec, outcome: &Outcome, stages: &[StageRuns]) {
    let kind = if opts.trace {
        "per-layer, traced run"
    } else {
        "end-to-end"
    };
    println!(
        "== {workload} · seed {} · {} s · {kind} ==",
        opts.seed, opts.seconds
    );
    for r in stages {
        println!(
            "   stage {:<8} {} untraced + {} traced replica(s){}",
            r.plan.stage.name(),
            r.untraced.len(),
            r.traced.len(),
            if r.plan.pass_budget_s > 0.0 {
                format!(", {:.2} s timed each", r.plan.pass_budget_s)
            } else {
                String::new()
            }
        );
    }
    println!(
        "{:<44} {:>16} {:<9} {:>7} {:>8}  tail",
        "metric", "value", "unit", "samples", "replicas"
    );
    for m in spec.printed(opts.trace) {
        let Some(v) = outcome.metrics.get(&m.name) else {
            continue;
        };
        let tail = v
            .tail
            .map_or(String::new(), |(p, x)| format!("p{p} = {x:.6}"));
        println!(
            "{:<44} {:>16.6} {:<9} {:>7} {:>8}  {tail}",
            m.name, v.value, m.unit, v.n, v.replicas
        );
    }
}

/// Where the traced passes' time went, layer by layer, next to the
/// untraced measurement of the same path.
fn print_accounting(stages: &[StageRuns]) {
    println!(
        "-- accounting: self time by layer on the end-to-end path (extra measurements left out) --"
    );
    for r in stages {
        let Some(p) = r.traced.first() else { continue };
        let (path, extra) = trace::self_ms_by_name(&p.spans);
        let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
        for (name, ms) in &path {
            *by_layer
                .entry(trace::layer_of(name).to_string())
                .or_insert(0.0) += ms;
        }
        let total: f64 = by_layer.values().sum();
        let harness: f64 = by_layer
            .iter()
            .filter(|(l, _)| l.starts_with("bench."))
            .map(|(_, ms)| ms)
            .sum();
        let mut layers: Vec<(&String, &f64)> = by_layer.iter().collect();
        layers.sort_by(|a, b| b.1.total_cmp(a.1));
        let top: Vec<String> = layers
            .iter()
            .take(8)
            .map(|(l, ms)| format!("{l} {ms:.1}"))
            .collect();
        println!(
            "   {:<8} path {:.1} ms (extras {:.1} ms); not in a layer (bench.*) {:.1} %; by layer, ms: {}",
            r.plan.stage.name(),
            total,
            extra.values().sum::<f64>(),
            100.0 * harness / total.max(1e-9),
            top.join(", ")
        );
        if let (Some(plain), Some(traced)) = (r.unit_s(&r.untraced), r.unit_s(&r.traced)) {
            println!("            one unit of the path: untraced {plain:.4} s, traced {traced:.4} s, ratio {:.3}", traced / plain);
        }
        let s = |k: &str| p.scalars.get(k).copied();
        let p50 = |pool: &str| p.samples.get(pool).map(|v| median(v));
        if let (Some(cpu), Some(own)) = (
            p50("serve_warm_cpu_ms").map(|ms| ms * 1e3),
            s("serve.session.warm_self_us"),
        ) {
            println!(
                "            warm request, CPU p50 {cpu:.1} us; beyond deriving its key and loading its artifact, per request: {own:.1} us ({:.1} %) in the scheduler and the session",
                100.0 * own / cpu
            );
        }
        let mean = |pool: &str| {
            p.samples
                .get(pool)
                .map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64)
        };
        if let (Some(cpu), Some(wall), Some(inside)) = (
            mean("serve_cold_cpu_ms"),
            mean("serve.session.cold_wall_ms"),
            s("serve.session.cold_mean_ms"),
        ) {
            println!(
                "            cold request, mean: {cpu:.3} ms on a CPU, {wall:.3} ms wall-clock, {inside:.3} ms by the session's own clock (compile + verify + save); the difference to CPU time is the disk"
            );
        }
    }
}

fn metrics_json(spec_metrics: &[MetricSpec], outcome: &Outcome, full: bool) -> Json {
    Json::Obj(
        spec_metrics
            .iter()
            .filter_map(|m| {
                let v = outcome.metrics.get(&m.name)?;
                let mut fields = vec![("value", Json::Num(v.value)), ("unit", Json::str(&m.unit))];
                if full {
                    fields.push(("samples", Json::Num(v.n as f64)));
                    fields.push(("replicas", Json::Num(v.replicas as f64)));
                    if let Some((p, x)) = v.tail {
                        fields.push(("tail_percentile", Json::Num(p)));
                        fields.push(("tail_value", Json::Num(x)));
                    }
                }
                Some((m.name.clone(), Json::obj(fields)))
            })
            .collect(),
    )
}

fn append_result(path: &Path, record: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)?
            .get("runs")
            .map(|r| r.as_arr().to_vec())
            .ok_or("result file has no runs")?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    runs.push(record);
    let doc = Json::obj(vec![
        ("benchmark", Json::str("singe-benchmark")),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| e.to_string())
}

fn run(spec: &Spec, opts: &Opts) -> i32 {
    let scratch = Scratch(target_dir().join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!(
            "singe-benchmark: cannot create {}: {e}",
            scratch.0.display()
        );
        return 2;
    }
    let provenance = provenance(opts);
    println!("provenance {provenance}");
    let mut all_ok = true;
    for workload in &opts.workloads {
        let mut outcome = Outcome {
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };
        let stages = run_stages(workload, opts, &scratch.0, &mut outcome);
        check_exact(&stages, &mut outcome);
        aggregate(workload, opts, spec, &stages, &mut outcome);
        print_table(workload, opts, spec, &outcome, &stages);
        if opts.trace {
            print_accounting(&stages);
            let passes: Vec<(String, Vec<trace::Span>)> = stages
                .iter()
                .flat_map(|r| {
                    r.traced.iter().map(|p| {
                        (
                            format!("{workload}/{}", r.plan.stage.name()),
                            p.spans.clone(),
                        )
                    })
                })
                .collect();
            let path = opts.trace_out.clone().unwrap_or_else(|| {
                target_dir().join(format!("trace-{workload}-{}.json", opts.seed))
            });
            match std::fs::write(&path, trace::chrome_trace(&passes)) {
                Ok(()) => println!("chrome trace: {}", path.display()),
                Err(e) => eprintln!("singe-benchmark: cannot write {}: {e}", path.display()),
            }
        }
        for f in outcome.failures.iter().take(12) {
            eprintln!("FAILED {f}");
        }
        let correct = outcome.failed == 0;
        all_ok &= correct;
        let head = vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
        ];
        if let Some(path) = &opts.out {
            let mut record = vec![
                ("workload", Json::str(workload)),
                ("trace", Json::Bool(opts.trace)),
                ("provenance", provenance.clone()),
            ];
            record.extend(head.clone());
            record.push((
                "metrics",
                metrics_json(spec.printed(opts.trace), &outcome, true),
            ));
            if let Err(e) = append_result(path, Json::obj(record)) {
                eprintln!("singe-benchmark: cannot append to {}: {e}", path.display());
                all_ok = false;
            }
        }
        let mut line = head;
        line.push((
            "metrics",
            metrics_json(spec.printed(opts.trace), &outcome, false),
        ));
        println!("{}", Json::obj(line));
    }
    if all_ok {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_plans_every_stage() {
        for w in Spec::load().unwrap().workloads {
            let own = stage_of(&w).expect("declared workloads map to a stage");
            let untraced = plan(own, 20.0, false, false);
            assert_eq!(
                untraced.iter().map(|s| s.stage).collect::<Vec<_>>(),
                Stage::ALL
            );
            for s in &untraced {
                assert!(s.untraced >= 2 && s.traced == 0, "{w}: {s:?}");
                let floor = plan(Stage::ALL[(own as usize + 1) % 4], 20.0, false, false);
                let as_floor = floor.iter().find(|f| f.stage == s.stage).unwrap();
                assert_eq!(
                    s.untraced > as_floor.untraced,
                    s.stage == own,
                    "{w}: the own stage gets the extra replica: {s:?}"
                );
            }
            for s in plan(own, 20.0, true, false) {
                // Only the workload's own stage pays for untraced replicas
                // in the traced run.
                let expect = if s.stage == own { (2, 2) } else { (0, 1) };
                assert_eq!((s.untraced, s.traced), expect, "{w}: {s:?}");
            }
        }
        assert!(plan(Stage::Figures, 20.0, false, true)
            .iter()
            .all(|s| s.untraced == 2 && s.traced == 0));
        // More seconds, more work.
        let long = plan(Stage::Figures, 60.0, false, false);
        assert!(long[0].untraced > plan(Stage::Figures, 20.0, false, false)[0].untraced);
        assert!(long[1].pass_budget_s > plan(Stage::Figures, 20.0, false, false)[1].pass_budget_s);
    }

    #[test]
    fn an_operation_counts_at_its_fastest_replica() {
        let mut a = PassOut::default();
        a.samples
            .insert("lat_ms".into(), (1..=1000).map(f64::from).collect());
        a.samples.insert(crate::search::ROWS.into(), vec![2.0, 5.0]);
        a.scalars.insert("x.share".into(), 3.0);
        a.exact.insert("count".into(), 7.0);
        let mut b = PassOut::default();
        // Slower everywhere but on the last operation, and one operation
        // longer.
        b.samples.insert(
            "lat_ms".into(),
            (1..=1001)
                .map(|i| if i == 1000 { 0.5 } else { f64::from(i) + 0.25 })
                .collect(),
        );
        b.samples.insert(crate::search::ROWS.into(), vec![3.0, 4.0]);
        b.scalars.insert("x.share".into(), 5.0);
        let passes = [&a, &b];
        let p50 = resolve("lat_ms_p50", &passes).unwrap();
        assert_eq!((p50.n, p50.replicas), (1001, 2));
        assert_eq!(
            p50.value, 500.0,
            "operations 1..=999 from a, 0.5 and 1001.25 from b"
        );
        assert_eq!(p50.tail.unwrap().0, 99.0);
        assert!(resolve("lat_ms_p99", &passes).unwrap().value > 980.0);
        assert_eq!(
            resolve("search_wall_s", &passes).unwrap().value,
            6.0,
            "2 from a, 4 from b"
        );
        assert_eq!(resolve("x.share", &passes).unwrap().value, 4.0);
        assert_eq!(resolve("count", &passes).unwrap().value, 7.0);
        assert_eq!(resolve("absent", &passes), None);
    }

    /// Every stage, in this process, at smoke size: the names the code
    /// produces are the names `BENCHMARK.json` declares.
    #[test]
    fn printed_names_are_the_declared_names() {
        let spec = Spec::load().unwrap();
        let scratch = Scratch(target_dir().join(format!("test-{}", std::process::id())));
        std::fs::create_dir_all(&scratch.0).unwrap();
        // Computed by the parent from what every pass reports about itself.
        let from_the_parent = [
            "setup_s",
            "ok_share",
            "peak_rss_mb",
            "host.sys_cpu_share",
            "host.rss_per_kernel_mb",
            "trace_overhead_share",
        ];
        let smoke_pairs: Vec<String> = crate::gen::figure_cells(1, true)
            .iter()
            .map(|c| format!("cell.{}.speedup", c.pair()))
            .collect();
        for trace in [false, true] {
            let passes: Vec<PassOut> = Stage::ALL
                .into_iter()
                .map(|stage| {
                    let cfg = PassCfg {
                        stage,
                        pass: usize::from(trace),
                        seed: 1,
                        budget_s: 0.0,
                        trace,
                        smoke: true,
                        dir: scratch.0.clone(),
                    };
                    pass::run(&cfg, pass::unix_nanos())
                })
                .collect();
            for p in &passes {
                assert_eq!((p.failed, &p.failures), (0, &Vec::new()));
            }
            let refs: Vec<&PassOut> = passes.iter().collect();
            for m in spec.printed(trace) {
                // The smoke sweep leaves most pairs out.
                let left_out = m.name.starts_with("cell.") && !smoke_pairs.contains(&m.name);
                if from_the_parent.contains(&m.name.as_str()) || left_out {
                    continue;
                }
                let v = resolve(&m.name, &refs)
                    .unwrap_or_else(|| panic!("{} is declared but not produced", m.name));
                assert!(v.value.is_finite(), "{}: {}", m.name, v.value);
            }
            // Deterministic values are reported under their metric's name:
            // each must be declared, on one side or the other.
            let declared: Vec<&str> = spec
                .end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| m.name.as_str())
                .collect();
            for name in passes.iter().flat_map(|p| p.exact.keys()) {
                assert!(
                    declared.contains(&name.as_str()),
                    "{name} is produced but not declared"
                );
            }
        }
    }

    #[test]
    fn run_arguments_follow_the_contract() {
        let spec = Spec::load().unwrap();
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let o = parse_run(
            &args("--workload sim_steady --seed 9 --seconds 5 --trace 1"),
            &spec,
        )
        .unwrap();
        assert_eq!(
            (o.workloads.as_slice(), o.seed, o.seconds, o.trace),
            (&["sim_steady".to_string()][..], 9, 5.0, true)
        );
        assert!(!parse_run(&args("--seed 9 --trace 0"), &spec).unwrap().trace);
        let bare = parse_run(&args("--seed 9 --trace --smoke"), &spec).unwrap();
        assert!(bare.trace && bare.smoke && bare.workloads.len() == 4);
        assert!(parse_run(&args("--workload nope --seed 1"), &spec).is_err());
        assert!(
            parse_run(&args("--workload sim_steady"), &spec).is_err(),
            "no seed, no inputs"
        );
    }
}
