//! `BENCHMARK.json`, embedded at build time: the one place a metric's unit,
//! direction and regression bound are written down. The runner looks units
//! up here and `compare` takes directions and bounds from here, so the
//! printed names cannot drift from the declared ones.

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(j: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    j.arr_at(key)
        .iter()
        .map(|m| {
            let higher_is_better = match m.str_at("better")? {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("better must be higher or lower, not {other}")),
            };
            Ok(MetricSpec {
                name: m.str_at("name")?.to_string(),
                unit: m.str_at("unit")?.to_string(),
                higher_is_better,
                bound: m.num_at("bound").ok(),
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let j = Json::parse(include_str!("../../BENCHMARK.json"))?;
        Ok(Spec {
            run_seconds: j.num_at("run_seconds")?,
            workloads: j
                .arr_at("workloads")
                .iter()
                .map(|w| w.str_at("name").map(str::to_string))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&j, "end_to_end")?,
            per_layer: metrics(&j, "per_layer")?,
        })
    }

    /// The metrics a run prints: end-to-end untraced, per-layer traced.
    pub fn printed(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let spec = Spec::load().unwrap();
        assert_eq!(
            spec.workloads,
            ["figures_cold", "sim_steady", "serve_mixed", "search_tune"]
        );
        assert_eq!(spec.end_to_end.len(), 15);
        assert!(spec.per_layer.len() <= 128);
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(String::as_str)
            .chain(
                spec.end_to_end
                    .iter()
                    .chain(&spec.per_layer)
                    .map(|m| m.name.as_str()),
            )
            .collect();
        for n in &names {
            assert!(well_formed(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
    }
}
