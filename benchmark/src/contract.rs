//! `BENCHMARK.json`: the one place that names the workloads and the metrics
//! with their units, directions and regression bounds. The code emits values
//! by metric name; everything else about a metric is read from there.

use std::path::Path;

use wire::Json;

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// The share of the base median by which the metric may worsen before a
    /// change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    pub fn load(path: &Path) -> Result<Contract, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let rows = |key: &str| {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no {key:?} array"))
        };
        let text_of = |row: &Json, key: &str| {
            row.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("BENCHMARK.json: a row lacks {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            rows(key)?
                .iter()
                .map(|row| {
                    Ok(MetricDef {
                        name: text_of(row, "name")?,
                        unit: text_of(row, "unit")?,
                        higher_is_better: text_of(row, "better")? == "higher",
                        bound: row.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_usize)
                .ok_or("BENCHMARK.json: no run_seconds")? as u64,
            workloads: rows("workloads")?
                .iter()
                .map(|row| text_of(row, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layers, workloads};

    #[test]
    fn the_contract_names_exactly_what_the_code_reports() {
        let contract = Contract::load(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../BENCHMARK.json"
        )))
        .expect("BENCHMARK.json loads");
        assert_eq!(contract.workloads, workloads::WORKLOADS);
        let sorted = |defs: &[MetricDef]| {
            let mut names: Vec<String> = defs.iter().map(|m| m.name.clone()).collect();
            names.sort();
            names
        };
        assert_eq!(
            sorted(&contract.end_to_end),
            workloads::END_TO_END.map(|(name, _)| name)
        );
        let mut per_layer = [&layers::COMMON[..], &layers::PER_PASS[..]].concat();
        per_layer.sort_unstable();
        assert_eq!(sorted(&contract.per_layer), per_layer);
        // Two rules of the driver's contract: no bound is above 25 %, and
        // set-up time carries the largest.
        let setup = contract
            .metric("setup_s")
            .and_then(|m| m.bound)
            .expect("setup_s is bounded");
        for metric in &contract.end_to_end {
            let bound = metric.bound.expect("an end-to-end metric has a bound");
            assert!(
                bound > 0.0 && bound <= setup && setup <= 0.25,
                "{}",
                metric.name
            );
        }
    }
}
