//! `BENCHMARK.json` at the repository root is the one list of workloads
//! and metrics: the benchmark prints exactly the metrics it names, with
//! its units, and `compare` judges by its directions and bounds.

use perigap_core::trace::Json;

const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median a metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: u64,
}

impl Spec {
    pub fn load() -> Spec {
        parse(TEXT).expect("BENCHMARK.json is well formed")
    }

    /// The metrics a run prints: per-layer when traced, else end-to-end.
    pub fn listed(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("{key} is missing"))?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("a {key} metric lacks {k}"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("workloads is missing")?
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("a workload lacks a name")?;
    Ok(Spec {
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_usize)
            .ok_or("run_seconds is missing")? as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_setup_and_bounded_end_to_end_metrics() {
        let spec = Spec::load();
        let setup = spec.metric("setup_s").unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
