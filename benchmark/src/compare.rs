//! `singe-benchmark compare <a.json> <b.json>`: set two result files (each
//! a set of runs appended by `run --out`) against each other, one row per
//! workload × end-to-end metric, with the direction and bound
//! `BENCHMARK.json` fixes. `a` is the parent, `b` the change.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the sets cannot
    /// tell unchanged from changed.
    Unresolved,
}

/// (workload, metric) → the metric's value in each untraced run of a file.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values = Values::new();
    for run in doc.arr_at("runs") {
        if run.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let Ok(workload) = run.str_at("workload") else {
            continue;
        };
        for (name, m) in run.get("metrics").map(Json::as_obj).unwrap_or_default() {
            if let Ok(v) = m.num_at("value") {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    if values.is_empty() {
        return Err(format!("{}: no untraced runs", path.display()));
    }
    Ok(values)
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s:
/// positive is worse, whichever way the metric points.
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(m: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let worse = worsening(m, median(a), median(b));
    if worse > bound {
        return Verdict::Regressed;
    }
    let better = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
    let every_b_better = b.iter().all(|x| a.iter().all(|y| better(*x, *y)));
    let noise = spread(a).max(spread(b));
    if noise > bound {
        return if every_b_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    // A gain has to clear the parent's own run-to-run spread.
    if worse < 0.0 && -worse > spread(a) && (every_b_better || a.len() < 2 || b.len() < 2) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub fn main(spec: &Spec, a: &Path, b: &Path) -> i32 {
    let (va, vb) = match (load(a), load(b)) {
        (Ok(va), Ok(vb)) => (va, vb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("singe-benchmark: {e}");
            return 2;
        }
    };
    println!(
        "{:<13} {:<24} {:>14} {:>14} {:>8} {:>7} {:>7} {:>5}  verdict",
        "workload", "metric", "a median", "b median", "worse %", "spread%", "bound %", "runs"
    );
    let mut regressions = 0;
    let mut compared = 0;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(xa), Some(xb)) = (va.get(&key), vb.get(&key)) else {
                continue;
            };
            let verdict = judge(m, xa, xb);
            compared += 1;
            regressions += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<13} {:<24} {:>14.6} {:>14.6} {:>8.2} {:>7.2} {:>7.2} {:>2}/{:<2}  {}",
                workload,
                m.name,
                median(xa),
                median(xb),
                100.0 * worsening(m, median(xa), median(xb)),
                100.0 * spread(xa).max(spread(xb)),
                100.0 * m.bound.unwrap_or(0.0),
                xa.len(),
                xb.len(),
                match verdict {
                    Verdict::Improved => "improved",
                    Verdict::Unchanged => "unchanged",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if compared == 0 {
        eprintln!("singe-benchmark: the two files share no workload × metric");
        return 2;
    }
    println!("{compared} rows, {regressions} regressed");
    i32::from(regressions > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let lower = metric(false, 0.10);
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&lower, &a, &[10.3, 10.4, 10.2, 10.3]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&lower, &a, &[11.5, 11.6, 11.4, 11.5]),
            Verdict::Regressed
        );
        assert_eq!(judge(&lower, &a, &[8.0, 8.1, 7.9, 8.0]), Verdict::Improved);
        let higher = metric(true, 0.10);
        assert_eq!(
            judge(&higher, &a, &[8.0, 8.1, 7.9, 8.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &a, &[12.0, 12.1, 11.9, 12.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let lower = metric(false, 0.05);
        let noisy = [10.0, 12.0, 8.0, 11.0, 9.0];
        assert_eq!(
            judge(&lower, &noisy, &[10.1, 11.9, 8.2, 10.9, 9.1]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&lower, &noisy, &[7.0, 7.5, 6.0, 7.2, 6.8]),
            Verdict::Improved
        );
        // Past the bound it is a regression however noisy the runs are.
        assert_eq!(
            judge(&lower, &noisy, &[13.0, 14.0, 12.5, 13.5, 12.8]),
            Verdict::Regressed
        );
    }

    #[test]
    fn single_runs_compare_on_their_values() {
        let lower = metric(false, 0.001);
        assert_eq!(judge(&lower, &[5.0], &[5.0]), Verdict::Unchanged);
        assert_eq!(judge(&lower, &[5.0], &[5.1]), Verdict::Regressed);
        assert_eq!(judge(&lower, &[5.0], &[4.0]), Verdict::Improved);
    }
}
