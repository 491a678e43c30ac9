//! The benchmark's contract, read from `BENCHMARK.json` itself so the
//! metric names, units, directions, bounds and workload names exist in
//! exactly one place.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base value the metric may worsen by; `None` for
    /// per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let text = |j: &Json, key: &str| -> String {
            j.get(key)
                .and_then(Json::str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string `{key}`"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .map(Json::arr)
                .unwrap_or_default()
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::num),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::num)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: doc
                .get("workloads")
                .map(Json::arr)
                .unwrap_or_default()
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}
