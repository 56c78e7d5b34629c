//! Benchmark of the open-term semantics (Fig. 5): `TermLts` exploration
//! throughput over the conformance corpus — the `BENCH_term.json` record and
//! its CI regression gate.
//!
//! The Fig. 9 gate tracks the *type*-side pipeline; this record isolates the
//! *term* side that the term-interning PR rebased onto `TermRef`:
//!
//! * **cold** — best of `repeat` builds, each on a *fresh* builder: the
//!   per-builder successor/candidate caches are empty, so every state pays
//!   the full successor derivation (substitution, reduction, checker
//!   probes). The *process-wide* interner memos (term/type arenas,
//!   par-flattening, free-vars) stay warm across passes — this is the
//!   per-request cost of a long-running service, not a fresh process;
//! * **warm** — best of `repeat` rebuilds on one shared builder: the
//!   id-keyed successor memo is hot, so this measures the seen-set and
//!   renumbering floor of the exploration engine.
//!
//! Determinism fields (state and transition counts per case) are gated
//! exactly; throughput floors follow the same policy as the Fig. 9 gate
//! (tolerance percentage, sub-resolution exemption). See `gate.rs` for why
//! the checked-in baseline is container-recorded and how to refresh it from
//! a CI artifact.

use std::collections::BTreeMap;
use std::time::Instant;

use effpi::{ExploreConfig, TermLts};

use wire::Json;

/// The schema tag written into (and required of) every term-bench record.
pub const SCHEMA: &str = "bench-term/v1";

/// Baseline cases faster than this (milliseconds of wall time) are exempt
/// from the throughput floor — same rationale as `gate::MIN_GATED_WALL_MS`.
pub const MIN_GATED_WALL_MS: f64 = 10.0;

/// The corpus lives in `effpi::protocols::open_terms` — one source of
/// truth shared with the determinism suite — and is re-exported here for
/// the bench surface.
pub use effpi::protocols::open_terms::{corpus, OpenTermScenario as TermScenario};

/// One measured scenario.
#[derive(Clone, PartialEq, Debug)]
pub struct TermCase {
    /// Scenario name.
    pub name: String,
    /// States of the explored term LTS — deterministic, gated exactly.
    pub states: usize,
    /// Transitions of the explored term LTS — deterministic, gated exactly.
    pub transitions: usize,
    /// States per second of the cold (fresh-builder) build.
    pub cold_per_sec: f64,
    /// Wall time of the cold build, in milliseconds.
    pub cold_wall_ms: f64,
    /// States per second of the best warm rebuild.
    pub warm_per_sec: f64,
    /// Wall time of the best warm rebuild, in milliseconds.
    pub warm_wall_ms: f64,
}

/// A whole term-bench record: every case plus the run configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct TermRecord {
    /// Exploration workers used.
    pub jobs: usize,
    /// Warm rebuilds per case (best-of).
    pub repeat: usize,
    /// One entry per scenario.
    pub cases: Vec<TermCase>,
}

/// Runs the benchmark over the open-term corpus. Both loops are best-of-
/// `repeat` (de-noising on shared machines, like the sibling gates): the
/// cold loop builds on a *fresh builder* each pass (empty per-builder
/// successor/candidate caches — the per-request cost of a service), the
/// warm loop rebuilds on one shared builder (hot id-keyed memo).
pub fn run(jobs: usize, repeat: usize) -> TermRecord {
    let mut cases = Vec::new();
    for scenario in corpus() {
        let config = ExploreConfig::new(jobs, scenario.max_states);
        let mut cold_wall = f64::MAX;
        let mut states = 0usize;
        let mut transitions = 0usize;
        let mut warm_builder = None;
        for pass in 0..repeat.max(1) {
            let builder = TermLts::new(scenario.env.clone());
            let start = Instant::now();
            let cold = builder.build_exploration(&scenario.term, &config).lts;
            cold_wall = cold_wall.min(start.elapsed().as_secs_f64());
            assert!(
                !cold.is_truncated(),
                "{}: corpus scenario must fit its state bound",
                scenario.name
            );
            if pass == 0 {
                states = cold.num_states();
                transitions = cold.num_transitions();
            } else {
                assert_eq!(
                    cold.num_states(),
                    states,
                    "{}: state count drifted between cold builds",
                    scenario.name
                );
            }
            warm_builder = Some(builder);
        }
        let builder = warm_builder.expect("repeat >= 1");

        let mut warm_wall = f64::MAX;
        for _ in 0..repeat.max(1) {
            let start = Instant::now();
            let rebuilt = builder.build_exploration(&scenario.term, &config).lts;
            warm_wall = warm_wall.min(start.elapsed().as_secs_f64());
            assert_eq!(
                rebuilt.num_states(),
                states,
                "{}: state count drifted between rebuilds",
                scenario.name
            );
        }

        cases.push(TermCase {
            name: scenario.name,
            states,
            transitions,
            cold_per_sec: states as f64 / cold_wall.max(1e-9),
            cold_wall_ms: cold_wall * 1e3,
            warm_per_sec: states as f64 / warm_wall.max(1e-9),
            warm_wall_ms: warm_wall * 1e3,
        });
    }
    TermRecord {
        jobs,
        repeat,
        cases,
    }
}

impl TermRecord {
    /// Renders the record as the `BENCH_term.json` artifact.
    pub fn to_json(&self) -> Json {
        let round3 = |x: f64| (x * 1e3).round() / 1e3;
        let cases = self
            .cases
            .iter()
            .map(|c| {
                let mut obj = BTreeMap::new();
                obj.insert("name".into(), Json::Str(c.name.clone()));
                obj.insert("states".into(), Json::Num(c.states as f64));
                obj.insert("transitions".into(), Json::Num(c.transitions as f64));
                obj.insert("cold_per_sec".into(), Json::Num(round3(c.cold_per_sec)));
                obj.insert("cold_wall_ms".into(), Json::Num(round3(c.cold_wall_ms)));
                obj.insert("warm_per_sec".into(), Json::Num(round3(c.warm_per_sec)));
                obj.insert("warm_wall_ms".into(), Json::Num(round3(c.warm_wall_ms)));
                Json::Obj(obj)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("schema".into(), Json::Str(SCHEMA.into()));
        root.insert("jobs".into(), Json::Num(self.jobs as f64));
        root.insert("repeat".into(), Json::Num(self.repeat as f64));
        root.insert("cases".into(), Json::Arr(cases));
        Json::Obj(root)
    }

    /// Parses a record previously produced by [`TermRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json_text(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        match root.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported schema {other:?}")),
            None => return Err("missing schema tag".into()),
        }
        let field_usize = |key: &str| -> Result<usize, String> {
            root.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let mut cases = Vec::new();
        for (i, case) in root
            .get("cases")
            .and_then(Json::as_arr)
            .ok_or("missing cases array")?
            .iter()
            .enumerate()
        {
            let usize_field = |key: &str| {
                case.get(key)
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("case {i}: missing field {key:?}"))
            };
            let f64_field = |key: &str| {
                case.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("case {i}: missing field {key:?}"))
            };
            cases.push(TermCase {
                name: case
                    .get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("case {i}: missing field \"name\""))?,
                states: usize_field("states")?,
                transitions: usize_field("transitions")?,
                cold_per_sec: f64_field("cold_per_sec")?,
                cold_wall_ms: f64_field("cold_wall_ms")?,
                warm_per_sec: f64_field("warm_per_sec")?,
                warm_wall_ms: f64_field("warm_wall_ms")?,
            });
        }
        Ok(TermRecord {
            jobs: field_usize("jobs")?,
            repeat: field_usize("repeat")?,
            cases,
        })
    }
}

/// Compares a fresh record against the checked-in baseline; one message per
/// violation, empty means green. Policy mirrors [`crate::gate::regressions`]:
/// state/transition counts are determinism drift (always fatal), the two
/// throughputs are gated by the tolerance with a sub-resolution exemption.
pub fn regressions(
    current: &TermRecord,
    baseline: &TermRecord,
    max_regression_pct: f64,
) -> Vec<String> {
    if current.jobs != baseline.jobs {
        return vec![format!(
            "configuration mismatch: run has jobs={}, baseline was recorded with jobs={} — \
             re-run with the baseline's configuration or refresh the baseline",
            current.jobs, baseline.jobs
        )];
    }
    let mut failures = Vec::new();
    let floor = |base: f64| base * (1.0 - max_regression_pct / 100.0);
    for base in &baseline.cases {
        let Some(cur) = current.cases.iter().find(|c| c.name == base.name) else {
            failures.push(format!("case {:?} disappeared from the corpus", base.name));
            continue;
        };
        if cur.states != base.states {
            failures.push(format!(
                "case {:?}: state count changed {} -> {} (determinism/semantics drift)",
                base.name, base.states, cur.states
            ));
        }
        if cur.transitions != base.transitions {
            failures.push(format!(
                "case {:?}: transition count changed {} -> {} (determinism/semantics drift)",
                base.name, base.transitions, cur.transitions
            ));
        }
        for (metric, base_rate, base_wall, cur_rate) in [
            (
                "cold",
                base.cold_per_sec,
                base.cold_wall_ms,
                cur.cold_per_sec,
            ),
            (
                "warm",
                base.warm_per_sec,
                base.warm_wall_ms,
                cur.warm_per_sec,
            ),
        ] {
            if base_wall < MIN_GATED_WALL_MS {
                continue; // untimeable at this scale: determinism-only
            }
            if cur_rate < floor(base_rate) {
                failures.push(format!(
                    "case {:?}: {metric} throughput regressed {:.0} -> {:.0} states/sec \
                     (allowed floor {:.0})",
                    base.name,
                    base_rate,
                    cur_rate,
                    floor(base_rate)
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, states: usize, rate: f64) -> TermCase {
        TermCase {
            name: name.into(),
            states,
            transitions: states * 2,
            cold_per_sec: rate,
            cold_wall_ms: 50.0,
            warm_per_sec: rate,
            warm_wall_ms: 50.0,
        }
    }

    fn record(cases: Vec<TermCase>) -> TermRecord {
        TermRecord {
            jobs: 1,
            repeat: 3,
            cases,
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let rec = record(vec![case("Ring x6", 812, 12345.678)]);
        let text = rec.to_json().to_string();
        assert_eq!(TermRecord::from_json_text(&text).unwrap(), rec);
        assert!(TermRecord::from_json_text("{}").is_err());
        assert!(TermRecord::from_json_text("{\"schema\":\"bench-term/v0\"}").is_err());
    }

    #[test]
    fn gate_policy_matches_the_fig9_gate() {
        let base = record(vec![case("a", 10, 1000.0)]);
        assert!(regressions(&base, &base, 25.0).is_empty());
        assert!(regressions(&record(vec![case("a", 10, 800.0)]), &base, 25.0).is_empty());
        let failures = regressions(&record(vec![case("a", 10, 700.0)]), &base, 25.0);
        assert_eq!(failures.len(), 2, "{failures:?}");
        // Determinism drift is fatal regardless of speed.
        let failures = regressions(&record(vec![case("a", 11, 9999.0)]), &base, 25.0);
        assert!(failures.iter().any(|f| f.contains("state count changed")));
        let mut drifted = record(vec![case("a", 10, 9999.0)]);
        drifted.cases[0].transitions = 7;
        let failures = regressions(&drifted, &base, 25.0);
        assert!(failures
            .iter()
            .any(|f| f.contains("transition count changed")));
        // Config mismatch is named.
        let mut other = base.clone();
        other.jobs = 4;
        assert!(regressions(&other, &base, 25.0)[0].contains("configuration mismatch"));
        // Sub-resolution loops are exempt from the throughput floor.
        let mut tiny_base = record(vec![case("t", 8, 100_000.0)]);
        tiny_base.cases[0].cold_wall_ms = 0.2;
        tiny_base.cases[0].warm_wall_ms = 0.2;
        let tiny_slow = record(vec![case("t", 8, 10.0)]);
        assert!(regressions(&tiny_slow, &tiny_base, 25.0).is_empty());
    }

    #[test]
    fn the_corpus_explores_deterministically() {
        let rec = run(1, 1);
        assert!(rec.cases.len() >= 6);
        for case in &rec.cases {
            assert!(case.states > 1, "{}", case.name);
            assert!(case.cold_per_sec > 0.0, "{}", case.name);
            assert!(case.warm_per_sec > 0.0, "{}", case.name);
        }
        // A second full run must reproduce every deterministic field.
        let again = run(1, 1);
        for (a, b) in rec.cases.iter().zip(again.cases.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.states, b.states, "{}", a.name);
            assert_eq!(a.transitions, b.transitions, "{}", a.name);
        }
    }
}
