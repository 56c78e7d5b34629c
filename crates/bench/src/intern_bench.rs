//! Microbenchmark of the hash-consing hot path (`lambdapi::intern`): the
//! `BENCH_intern.json` record and its CI regression gate.
//!
//! The Fig. 9 gate (`gate.rs`) tracks end-to-end verification throughput;
//! this record isolates the two operations the interning PR made cheap, so a
//! regression in either is attributed directly instead of drowning in the
//! end-to-end noise:
//!
//! * **canonicalisation** — memoized `TyRef::canonical` over every state of
//!   a scenario's verification LTS (after warm-up these are the hash lookups
//!   every successor re-canonicalisation performs);
//! * **exploration** — a warm rebuild of the whole verification LTS
//!   (`Verifier::build_lts`), i.e. the full successor derivation with the
//!   interner's memo tables hot — the states/sec the `lts::explore` workers
//!   actually see.
//!
//! Determinism fields (state counts per case) are gated exactly; throughput
//! floors follow the same policy as the Fig. 9 gate (tolerance percentage,
//! sub-resolution exemption). See `gate.rs` for why the checked-in baseline
//! is container-recorded and how to refresh it from a CI artifact.

use std::collections::BTreeMap;
use std::time::Instant;

use effpi::protocols::fig9_scenarios;
use effpi::{TyRef, Verifier};

use wire::Json;

/// The schema tag written into (and required of) every intern-bench record.
pub const SCHEMA: &str = "bench-intern/v1";

/// Baseline cases faster than this (milliseconds of wall time) are exempt
/// from the throughput floor — same rationale as `gate::MIN_GATED_WALL_MS`.
pub const MIN_GATED_WALL_MS: f64 = 10.0;

/// One measured scenario.
#[derive(Clone, PartialEq, Debug)]
pub struct InternCase {
    /// Scenario name (the Fig. 9 row label).
    pub name: String,
    /// States of the verification LTS — deterministic, gated exactly.
    pub states: usize,
    /// Memoized canonicalisations per second over the state set.
    pub canonical_per_sec: f64,
    /// Wall time of the timed canonicalisation loop, in milliseconds.
    pub canonical_wall_ms: f64,
    /// States per second of a warm LTS rebuild (full successor derivation).
    pub build_per_sec: f64,
    /// Wall time of the timed rebuild, in milliseconds.
    pub build_wall_ms: f64,
}

/// A whole intern-bench record: every case plus the run configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct InternRecord {
    /// The scenario scale (`fig9_scenarios` argument).
    pub scale: usize,
    /// The state bound of the verification runs.
    pub max_states: usize,
    /// One entry per scenario.
    pub cases: Vec<InternCase>,
}

/// Runs the microbenchmark over the Fig. 9 corpus at `scale`. Each case's
/// timing is the best of `repeat` passes (de-noising on shared machines);
/// the deterministic fields are asserted identical across passes.
pub fn run(scale: usize, max_states: usize, repeat: usize) -> InternRecord {
    let verifier = Verifier::with_max_states(max_states);
    let mut cases = Vec::new();
    for scenario in fig9_scenarios(scale) {
        let mut scoped = verifier.clone();
        scoped.visible = Some(scenario.visible.clone());
        // Warm build: populates the interner memo tables and the case's
        // state set, exactly as the first verification of a session would.
        let (_env, lts) = scoped
            .build_lts(&scenario.env, &scenario.ty)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        let states: Vec<TyRef> = lts.states().to_vec();
        let max_unfold = scoped.checker().max_unfold;

        // Timed loop 1: memoized canonicalisation of every state. Repeat the
        // sweep until the loop is long enough to time (small scenarios have
        // tens of states; a single sweep would be clock noise).
        let sweeps = (50_000 / states.len().max(1)).clamp(1, 100_000);
        let mut best_canonical = f64::MAX;
        for _ in 0..repeat.max(1) {
            let start = Instant::now();
            let mut guard = 0usize;
            for _ in 0..sweeps {
                for state in &states {
                    guard = guard.wrapping_add(state.canonical(max_unfold).id().index() as usize);
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            std::hint::black_box(guard);
            best_canonical = best_canonical.min(elapsed);
        }
        let canonical_ops = (sweeps * states.len()) as f64;

        // Timed loop 2: a warm rebuild of the verification LTS.
        let mut best_build = f64::MAX;
        for _ in 0..repeat.max(1) {
            let start = Instant::now();
            let (_e, rebuilt) = scoped
                .build_lts(&scenario.env, &scenario.ty)
                .expect("warm rebuild succeeds");
            best_build = best_build.min(start.elapsed().as_secs_f64());
            assert_eq!(
                rebuilt.num_states(),
                states.len(),
                "{}: state count drifted between rebuilds",
                scenario.name
            );
        }

        cases.push(InternCase {
            name: scenario.name.clone(),
            states: states.len(),
            canonical_per_sec: canonical_ops / best_canonical.max(1e-9),
            canonical_wall_ms: best_canonical * 1e3,
            build_per_sec: states.len() as f64 / best_build.max(1e-9),
            build_wall_ms: best_build * 1e3,
        });
    }
    InternRecord {
        scale,
        max_states,
        cases,
    }
}

impl InternRecord {
    /// Renders the record as the `BENCH_intern.json` artifact.
    pub fn to_json(&self) -> Json {
        let round3 = |x: f64| (x * 1e3).round() / 1e3;
        let cases = self
            .cases
            .iter()
            .map(|c| {
                let mut obj = BTreeMap::new();
                obj.insert("name".into(), Json::Str(c.name.clone()));
                obj.insert("states".into(), Json::Num(c.states as f64));
                obj.insert(
                    "canonical_per_sec".into(),
                    Json::Num(round3(c.canonical_per_sec)),
                );
                obj.insert(
                    "canonical_wall_ms".into(),
                    Json::Num(round3(c.canonical_wall_ms)),
                );
                obj.insert("build_per_sec".into(), Json::Num(round3(c.build_per_sec)));
                obj.insert("build_wall_ms".into(), Json::Num(round3(c.build_wall_ms)));
                Json::Obj(obj)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("schema".into(), Json::Str(SCHEMA.into()));
        root.insert("scale".into(), Json::Num(self.scale as f64));
        root.insert("max_states".into(), Json::Num(self.max_states as f64));
        root.insert("cases".into(), Json::Arr(cases));
        Json::Obj(root)
    }

    /// Parses a record previously produced by [`InternRecord::to_json`].
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
            let str_field = |key: &str| {
                case.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("case {i}: missing field {key:?}"))
            };
            let f64_field = |key: &str| {
                case.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("case {i}: missing field {key:?}"))
            };
            cases.push(InternCase {
                name: str_field("name")?,
                states: case
                    .get("states")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("case {i}: missing field \"states\""))?,
                canonical_per_sec: f64_field("canonical_per_sec")?,
                canonical_wall_ms: f64_field("canonical_wall_ms")?,
                build_per_sec: f64_field("build_per_sec")?,
                build_wall_ms: f64_field("build_wall_ms")?,
            });
        }
        Ok(InternRecord {
            scale: field_usize("scale")?,
            max_states: field_usize("max_states")?,
            cases,
        })
    }
}

/// Compares a fresh record against the checked-in baseline; one message per
/// violation, empty means green. Policy mirrors [`crate::gate::regressions`]:
/// state counts are determinism drift (always fatal), the two throughputs
/// are gated by the tolerance with a sub-resolution exemption per loop.
pub fn regressions(
    current: &InternRecord,
    baseline: &InternRecord,
    max_regression_pct: f64,
) -> Vec<String> {
    if (current.scale, current.max_states) != (baseline.scale, baseline.max_states) {
        return vec![format!(
            "configuration mismatch: run has scale={} max_states={}, baseline was recorded \
             with scale={} max_states={} — re-run with the baseline's configuration or \
             refresh the baseline",
            current.scale, current.max_states, baseline.scale, baseline.max_states
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
        for (metric, base_rate, base_wall, cur_rate) in [
            (
                "canonical",
                base.canonical_per_sec,
                base.canonical_wall_ms,
                cur.canonical_per_sec,
            ),
            (
                "build",
                base.build_per_sec,
                base.build_wall_ms,
                cur.build_per_sec,
            ),
        ] {
            if base_wall < MIN_GATED_WALL_MS {
                continue; // untimeable at this scale: determinism-only
            }
            if cur_rate < floor(base_rate) {
                failures.push(format!(
                    "case {:?}: {metric} throughput regressed {:.0} -> {:.0} ops/sec \
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

    fn case(name: &str, states: usize, rate: f64) -> InternCase {
        InternCase {
            name: name.into(),
            states,
            canonical_per_sec: rate,
            canonical_wall_ms: 50.0,
            build_per_sec: rate,
            build_wall_ms: 50.0,
        }
    }

    fn record(cases: Vec<InternCase>) -> InternRecord {
        InternRecord {
            scale: 0,
            max_states: 60_000,
            cases,
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let rec = record(vec![case("Payment", 218, 123456.789)]);
        let text = rec.to_json().to_string();
        assert_eq!(InternRecord::from_json_text(&text).unwrap(), rec);
        assert!(InternRecord::from_json_text("{}").is_err());
        assert!(InternRecord::from_json_text("{\"schema\":\"bench-intern/v0\"}").is_err());
    }

    #[test]
    fn gate_policy_matches_the_fig9_gate() {
        let base = record(vec![case("a", 10, 1000.0)]);
        assert!(regressions(&base, &base, 25.0).is_empty());
        // Inside tolerance.
        assert!(regressions(&record(vec![case("a", 10, 800.0)]), &base, 25.0).is_empty());
        // Outside tolerance: both loops regressed.
        let failures = regressions(&record(vec![case("a", 10, 700.0)]), &base, 25.0);
        assert_eq!(failures.len(), 2, "{failures:?}");
        // Determinism drift is fatal regardless of speed.
        let failures = regressions(&record(vec![case("a", 11, 9999.0)]), &base, 25.0);
        assert!(failures.iter().any(|f| f.contains("state count changed")));
        // Config mismatch is named.
        let mut other = base.clone();
        other.max_states = 1;
        assert!(regressions(&other, &base, 25.0)[0].contains("configuration mismatch"));
        // Sub-resolution loops are exempt from the throughput floor.
        let mut tiny_base = record(vec![case("t", 8, 100_000.0)]);
        tiny_base.cases[0].canonical_wall_ms = 0.2;
        tiny_base.cases[0].build_wall_ms = 0.2;
        let tiny_slow = record(vec![case("t", 8, 10.0)]);
        assert!(regressions(&tiny_slow, &tiny_base, 25.0).is_empty());
    }

    #[test]
    fn the_microbench_runs_on_the_small_corpus() {
        let rec = run(0, 60_000, 1);
        assert!(rec.cases.len() >= 8);
        for case in &rec.cases {
            assert!(case.states > 1, "{}", case.name);
            assert!(case.canonical_per_sec > 0.0, "{}", case.name);
            assert!(case.build_per_sec > 0.0, "{}", case.name);
        }
    }
}
