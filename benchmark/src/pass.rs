//! One pass of one stage: what the parent asks a child process for and
//! what the child hands back.
//!
//! The measured crates keep process-wide memos (`gpu_sim::flatcache`,
//! `singe::verify`'s) that have no public reset and retain every kernel
//! they have seen, so a pass that must start cold, or must not inherit
//! another pass's heap, runs in a process of its own. The parent only
//! plans, spawns, aggregates and prints.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::trace::{self, Span, Tracer};

/// The four stages of the pipeline. Every run drives all four; the
/// workload decides which one gets most of the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    Figures,
    Sim,
    Serve,
    Search,
}

impl Stage {
    pub const ALL: [Stage; 4] = [Stage::Figures, Stage::Sim, Stage::Serve, Stage::Search];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Figures => "figures",
            Stage::Sim => "sim",
            Stage::Serve => "serve",
            Stage::Search => "search",
        }
    }

    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }
}

/// What a pass is asked to do.
#[derive(Debug, Clone)]
pub struct PassCfg {
    pub stage: Stage,
    /// Index among the stage's passes in this run (names scratch
    /// directories and trace rows).
    pub pass: usize,
    pub seed: u64,
    /// Seconds of timed work for the stages that size themselves from it
    /// (`sim`, `serve`); a `figures` or `search` pass is a fixed sweep.
    pub budget_s: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch directory of this run, under `benchmark/target/`.
    pub dir: PathBuf,
}

pub fn unix_nanos() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// What a pass measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOut {
    /// One value per pass, by metric name; the parent takes the median
    /// over the stage's passes.
    pub scalars: BTreeMap<String, f64>,
    /// One time per operation, in the order the pass ran them. A stage's
    /// passes are replicas (same seed, same operations, same order), so the
    /// parent lines the pools up by index and takes each operation from the
    /// replica that ran it fastest.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Counts and simulated results: deterministic, so every pass of a run
    /// must report the same bits.
    pub exact: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Process start to first timed operation.
    pub setup_s: f64,
    pub vm_hwm_kb: f64,
    pub user_cpu_s: f64,
    pub sys_cpu_s: f64,
    pub spans: Vec<Span>,
}

const KEPT_FAILURES: usize = 8;

/// Recorder a stage writes into while it runs a pass.
#[derive(Debug)]
pub struct Rec {
    pub out: PassOut,
    pub tr: Tracer,
    spawned_at_ns: u128,
    timed_from: Option<Instant>,
}

impl Rec {
    /// `spawned_at_ns` is when the parent spawned this process (ns since
    /// the Unix epoch), so set-up counts from process start, not `main`.
    pub fn new(trace: bool, spawned_at_ns: u128) -> Rec {
        Rec {
            out: PassOut::default(),
            tr: Tracer::new(trace),
            spawned_at_ns,
            timed_from: None,
        }
    }

    /// Set-up is over: the pass's timed region begins.
    pub fn start_timed(&mut self) {
        self.out.setup_s = unix_nanos().saturating_sub(self.spawned_at_ns) as f64 / 1e9;
        self.tr.reset_epoch();
        self.timed_from = Some(Instant::now());
    }

    /// Seconds since the timed region began.
    pub fn elapsed_s(&self) -> f64 {
        self.timed_from.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }

    pub fn scalar(&mut self, name: &str, v: f64) {
        self.out.scalars.insert(name.to_string(), v);
    }

    pub fn sample(&mut self, name: &str, v: f64) {
        self.out
            .samples
            .entry(name.to_string())
            .or_default()
            .push(v);
    }

    pub fn exact(&mut self, name: &str, v: f64) {
        self.out.exact.insert(name.to_string(), v);
    }

    /// Count one operation and, if a correctness gate rejected it, one
    /// failure.
    pub fn op(&mut self, what: &str, verdict: Result<(), String>) {
        self.out.attempted += 1;
        if let Err(why) = verdict {
            self.out.failed += 1;
            if self.out.failures.len() < KEPT_FAILURES {
                self.out.failures.push(format!("{what}: {why}"));
            }
        }
    }

    /// Close the pass: per-layer self times from the spans, then the
    /// process's own memory and CPU figures.
    pub fn finish(mut self) -> PassOut {
        if self.tr.on {
            let (path, extra) = trace::self_ms_by_name(&self.tr.spans);
            for (name, ms) in path.into_iter().chain(extra) {
                // A span is named after its metric; the suffix gives the unit.
                let v = if name.ends_with("_us") { ms * 1e3 } else { ms };
                self.out.scalars.entry(name).or_insert(v);
            }
        }
        self.out.spans = std::mem::take(&mut self.tr.spans);
        let (hwm, user, sys) = process_usage();
        self.out.vm_hwm_kb = hwm;
        self.out.user_cpu_s = user;
        self.out.sys_cpu_s = sys;
        self.out
    }
}

/// Peak resident set (kB) and user/system CPU seconds of this process, from
/// `/proc/self`. Zeros where the files cannot be read (not Linux).
pub fn process_usage() -> (f64, f64, f64) {
    let hwm = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name, in clock ticks; Linux fixes USER_HZ at 100.
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((
                f.get(11)?.parse::<f64>().ok()?,
                f.get(12)?.parse::<f64>().ok()?,
            ))
        });
    let (user, sys) = ticks.map_or((0.0, 0.0), |(u, s)| (u / 100.0, s / 100.0));
    (hwm, user, sys)
}

fn map_to_json(m: &BTreeMap<String, f64>) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
}

fn map_from_json(j: Option<&Json>) -> BTreeMap<String, f64> {
    j.map(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

impl PassOut {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scalars", map_to_json(&self.scalars)),
            (
                "samples",
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            // Exact values travel as bit patterns: a decimal round trip
            // must not be what makes two passes agree or differ.
            (
                "exact",
                Json::Obj(
                    self.exact
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(format!("{:016x}", v.to_bits()))))
                        .collect(),
                ),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::str(f)).collect()),
            ),
            ("setup_s", Json::Num(self.setup_s)),
            ("vm_hwm_kb", Json::Num(self.vm_hwm_kb)),
            ("user_cpu_s", Json::Num(self.user_cpu_s)),
            ("sys_cpu_s", Json::Num(self.sys_cpu_s)),
            ("spans", trace::spans_to_json(&self.spans)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<PassOut, String> {
        let num = |k: &str| j.num_at(k);
        let exact = j
            .get("exact")
            .map(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| {
                let bits = v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok());
                bits.map(|b| (k.clone(), f64::from_bits(b)))
                    .ok_or(format!("bad exact value {k}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(PassOut {
            scalars: map_from_json(j.get("scalars")),
            samples: j
                .get("samples")
                .map(Json::as_obj)
                .unwrap_or_default()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.as_arr().iter().filter_map(Json::as_f64).collect(),
                    )
                })
                .collect(),
            exact,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: j
                .arr_at("failures")
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            setup_s: num("setup_s")?,
            vm_hwm_kb: num("vm_hwm_kb")?,
            user_cpu_s: num("user_cpu_s")?,
            sys_cpu_s: num("sys_cpu_s")?,
            spans: trace::spans_from_json(j.get("spans").unwrap_or(&Json::Null))?,
        })
    }
}

/// Run one pass in this process, spawned at `spawned_at_ns`.
pub fn run(cfg: &PassCfg, spawned_at_ns: u128) -> PassOut {
    let mut rec = Rec::new(cfg.trace, spawned_at_ns);
    match cfg.stage {
        Stage::Figures => crate::figures::pass(cfg, &mut rec),
        Stage::Sim => crate::sim::pass(cfg, &mut rec),
        Stage::Serve => crate::serve::pass(cfg, &mut rec),
        Stage::Search => crate::search::pass(cfg, &mut rec),
    }
    rec.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_results_survive_the_pipe() {
        let mut rec = Rec::new(true, unix_nanos());
        rec.start_timed();
        let s = rec.tr.begin("a.b_us", "op");
        rec.tr.end(s);
        rec.scalar("x_ms", 1.0 / 3.0);
        rec.sample("lat_ms", 0.1);
        rec.sample("lat_ms", 0.2);
        rec.exact("count", 0.1 + 0.2);
        rec.op("ok", Ok(()));
        rec.op("bad", Err("why".into()));
        let out = rec.finish();
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.failures, ["bad: why"]);
        assert!(
            out.scalars.contains_key("a.b_us"),
            "span self time becomes a scalar"
        );
        let back = PassOut::from_json(&Json::parse(&out.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, out);
    }

    #[test]
    fn usage_reads_this_process() {
        let (hwm, _, _) = process_usage();
        assert!(hwm > 0.0);
    }
}
