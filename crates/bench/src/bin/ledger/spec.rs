//! The benchmark declaration, read from the repository's `BENCHMARK.json`
//! at compile time so that the names, units and regression bounds the
//! ledger prints, checks and gates on are the ones the file declares.

use std::sync::OnceLock;

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Allowed worsening as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl Metric {
    /// Work counts (as opposed to times and ratios) must repeat exactly
    /// between runs of one commit.
    pub fn is_exact(&self) -> bool {
        matches!(self.unit.as_str(), "count" | "B" | "rounds")
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let field = |key: &str| doc.get(key).ok_or(format!("missing {key:?}"));
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            let items = field(key)?
                .as_arr()
                .ok_or(format!("{key} is not an array"))?;
            items
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_owned)
                            .ok_or(format!("{key} entry without {k:?}"))
                    };
                    Ok(Metric {
                        name: text("name")?,
                        unit: text("unit")?,
                        better: text("better")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = field("workloads")?
            .as_arr()
            .ok_or("workloads is not an array")?
            .iter()
            .map(|w| {
                let name = w.get("name").and_then(Json::as_str);
                let why = w.get("why").and_then(Json::as_str);
                match (name, why) {
                    (Some(n), Some(y)) => Ok((n.to_owned(), y.to_owned())),
                    _ => Err("workload without name or why".to_owned()),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            run_seconds: field("run_seconds")?
                .as_f64()
                .ok_or("run_seconds is not a number")? as u64,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run reports: end-to-end for untraced runs, per-layer
    /// for traced ones.
    pub fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The declaration compiled into this binary.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_metric_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn every_declared_name_is_well_formed_and_unique() {
        let spec = spec();
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(|(n, _)| n.as_str()))
            .collect();
        for name in &names {
            assert!(is_metric_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "{} bound {bound}", m.name);
        }
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}
