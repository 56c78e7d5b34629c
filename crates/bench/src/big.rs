//! Out-of-core exploration benchmark (`BENCH_big.json`): Fig. 9's ping-pong
//! and token-ring scenarios scaled well past the smoke table, each verified
//! **twice** — once unbudgeted, once under a deliberately small exploration
//! memory budget — to prove the disk-spilling frontier of `lts::memory`
//! engages *and* changes nothing.
//!
//! The gate is self-contained (no checked-in baseline), because both of its
//! clauses are structural properties rather than timings:
//!
//! * **zero drift** — the budgeted run's [`ReportSummary::stable_line`]
//!   (name, verdicts, state count, transition count) must be byte-identical
//!   to the unbudgeted run's. The memory layer guarantees a budget is purely
//!   operational; this gate is where CI re-proves it at out-of-core scale on
//!   every PR;
//! * **spill engaged** — the budgeted runs must have pushed at least one
//!   frontier segment to disk (`spill_segments > 0` summed across cases,
//!   measured as deltas of the process-wide `obs` counters). A budget too
//!   lax to trip keeps the whole benchmark an accidental no-op — the run
//!   fails loudly instead of green-washing an unexercised code path.
//!
//! Timings for both legs are recorded in the artifact for inspection (the
//! budgeted leg pays the serialisation toll; how much is worth tracking) but
//! never gated — disk speed is machine noise.
//!
//! [`ReportSummary::stable_line`]: effpi::ReportSummary::stable_line

use std::collections::BTreeMap;
use std::time::Instant;

use effpi::protocols::{pingpong, ring, Scenario};
use effpi::Session;

use wire::Json;

/// The schema tag written into every out-of-core bench record.
pub const SCHEMA: &str = "bench-big/v1";

/// The default exploration memory budget of the budgeted leg, in bytes.
/// Small enough that every scaled scenario's working set (seen-set pages +
/// frontier entries) trips it early; the frontier then spills in fixed
/// 4096-entry segments (see `lts::memory`).
pub const DEFAULT_BUDGET: usize = 64 * 1024;

/// One scenario, measured unbudgeted and budgeted.
#[derive(Clone, PartialEq, Debug)]
pub struct BigCase {
    /// Scenario name (the Fig. 9 row label).
    pub name: String,
    /// States of the explored LTS — identical across both legs by the
    /// zero-drift gate.
    pub states: usize,
    /// Wall time of the unbudgeted leg, milliseconds.
    pub wall_ms: f64,
    /// Wall time of the budgeted leg, milliseconds (the spill toll shows up
    /// here; informational, never gated).
    pub wall_ms_budgeted: f64,
    /// Frontier segments the budgeted leg pushed to disk.
    pub spill_segments: u64,
    /// Bytes of frontier records the budgeted leg wrote.
    pub spill_bytes: u64,
    /// Segments streamed back from disk (equals `spill_segments` for a run
    /// that completed: every cold state was eventually expanded).
    pub spill_reloads: u64,
    /// The deterministic one-line summary both legs must agree on.
    pub stable_line: String,
    /// Set when the budgeted leg's stable line diverged — the gate failure
    /// text, carried into the artifact so the drift is inspectable.
    pub drift: Option<String>,
}

/// A whole out-of-core bench record: the run configuration plus one case per
/// scaled scenario.
#[derive(Clone, PartialEq, Debug)]
pub struct BigRecord {
    /// State bound of every verification.
    pub max_states: usize,
    /// Exploration workers per verification.
    pub jobs: usize,
    /// The budgeted leg's memory budget, bytes.
    pub memory_budget: usize,
    /// One entry per scenario.
    pub cases: Vec<BigCase>,
}

impl BigRecord {
    /// The gate: no case drifted, and the budgeted legs spilled at least one
    /// segment somewhere. One message per failure; empty means green.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for case in &self.cases {
            if let Some(drift) = &case.drift {
                failures.push(format!(
                    "case {:?}: budgeted run drifted from the unbudgeted one — {drift}",
                    case.name
                ));
            }
        }
        let segments: u64 = self.cases.iter().map(|c| c.spill_segments).sum();
        if segments == 0 {
            failures.push(format!(
                "no budgeted run spilled a single segment under a {}-byte budget — \
                 the out-of-core path went unexercised (scale the scenarios up or \
                 the budget down)",
                self.memory_budget
            ));
        }
        let reloads: u64 = self.cases.iter().map(|c| c.spill_reloads).sum();
        if reloads != segments {
            failures.push(format!(
                "{segments} segments spilled but {reloads} reloaded — a completed \
                 exploration must stream every cold segment back"
            ));
        }
        failures
    }

    /// Renders the record as the `BENCH_big.json` artifact.
    pub fn to_json(&self) -> Json {
        let round3 = |x: f64| (x * 1e3).round() / 1e3;
        let cases = self
            .cases
            .iter()
            .map(|c| {
                let mut obj = BTreeMap::new();
                obj.insert("name".into(), Json::Str(c.name.clone()));
                obj.insert("states".into(), Json::Num(c.states as f64));
                obj.insert("wall_ms".into(), Json::Num(round3(c.wall_ms)));
                obj.insert(
                    "wall_ms_budgeted".into(),
                    Json::Num(round3(c.wall_ms_budgeted)),
                );
                obj.insert("spill_segments".into(), Json::Num(c.spill_segments as f64));
                obj.insert("spill_bytes".into(), Json::Num(c.spill_bytes as f64));
                obj.insert("spill_reloads".into(), Json::Num(c.spill_reloads as f64));
                obj.insert("stable_line".into(), Json::Str(c.stable_line.clone()));
                obj.insert(
                    "drift".into(),
                    match &c.drift {
                        Some(d) => Json::Str(d.clone()),
                        None => Json::Null,
                    },
                );
                Json::Obj(obj)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("schema".into(), Json::Str(SCHEMA.into()));
        root.insert("max_states".into(), Json::Num(self.max_states as f64));
        root.insert("jobs".into(), Json::Num(self.jobs as f64));
        root.insert("memory_budget".into(), Json::Num(self.memory_budget as f64));
        root.insert("cases".into(), Json::Arr(cases));
        Json::Obj(root)
    }
}

/// The scaled scenarios, two Fig. 9 families an order of magnitude past the
/// smoke table with opposite frontier shapes:
///
/// * **Ping-pong pairs** — `n` independent pairs interleave into a
///   hypercube-like space whose BFS frontier peaks combinatorially (≈ the
///   middle binomial layer). Past 12 pairs the frontier outgrows the spill
///   segment size (4096 entries) and the budgeted leg provably hits disk —
///   this family is what engages the gate's spill clause.
/// * **Token ring** — a wide *state space* but a narrow *frontier*: tokens
///   hop one edge per step, so each BFS layer stays well under a segment.
///   The ring is the control case — a budget must cost a narrow-frontier
///   workload nothing and change nothing, which the zero-drift clause
///   checks (its spill counters are expected to read 0).
///
/// `scale = 0` is the CI edition; higher scales are manual stress runs.
pub fn scenarios(scale: usize) -> Vec<Scenario> {
    let (pairs, ring_members, ring_tokens) = match scale {
        0 => (13, 9, 4),
        1 => (14, 10, 4),
        _ => (15, 11, 5),
    };
    vec![
        pingpong::ping_pong_pairs(pairs, true),
        ring::token_ring(ring_members, ring_tokens),
    ]
}

/// A spill-counter snapshot (the process-wide `obs` counters the memory
/// layer publishes); deltas across a run are that run's spill activity.
struct SpillCounters {
    segments: u64,
    bytes: u64,
    reloads: u64,
}

impl SpillCounters {
    fn now() -> SpillCounters {
        let registry = obs::global();
        SpillCounters {
            segments: registry.counter("spill_segments").get(),
            bytes: registry.counter("spill_bytes").get(),
            reloads: registry.counter("spill_reloads").get(),
        }
    }

    fn delta_since(&self, start: &SpillCounters) -> (u64, u64, u64) {
        (
            self.segments - start.segments,
            self.bytes - start.bytes,
            self.reloads - start.reloads,
        )
    }
}

/// Runs every scenario of [`scenarios`]`(scale)` twice — unbudgeted, then
/// under `budget` bytes — and collects the paired measurements.
pub fn run(scale: usize, max_states: usize, jobs: usize, budget: usize) -> BigRecord {
    run_scenarios(&scenarios(scale), max_states, jobs, budget)
}

/// [`run`] over an explicit scenario list (the tests use miniature ones).
pub fn run_scenarios(
    scenarios: &[Scenario],
    max_states: usize,
    jobs: usize,
    budget: usize,
) -> BigRecord {
    let unbudgeted = Session::builder()
        .max_states(max_states)
        .parallelism(jobs)
        .build();
    let budgeted = Session::builder()
        .max_states(max_states)
        .parallelism(jobs)
        .memory_budget(budget)
        .build();
    let cases = scenarios
        .iter()
        .map(|scenario| {
            // One property per scenario: the benchmark stresses exploration
            // memory, and every property shares the one explored LTS — five
            // more verdicts would sextuple the model-checking wall time
            // without touching the frontier. Deadlock-freedom (column one)
            // keeps a real verdict in the stable line.
            let scenario = &Scenario {
                properties: scenario.properties[..1].to_vec(),
                ..scenario.clone()
            };
            let start = Instant::now();
            let base = unbudgeted.run_scenario(scenario);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;

            let before = SpillCounters::now();
            let start = Instant::now();
            let spilled = budgeted.run_scenario(scenario);
            let wall_ms_budgeted = start.elapsed().as_secs_f64() * 1e3;
            let (spill_segments, spill_bytes, spill_reloads) =
                SpillCounters::now().delta_since(&before);

            let base_line = base.summary().stable_line();
            let spilled_line = spilled.summary().stable_line();
            let drift = (spilled_line != base_line)
                .then(|| format!("unbudgeted {base_line:?} vs budgeted {spilled_line:?}"));
            BigCase {
                name: scenario.name.clone(),
                states: base.states(),
                wall_ms,
                wall_ms_budgeted,
                spill_segments,
                spill_bytes,
                spill_reloads,
                stable_line: base_line,
                drift,
            }
        })
        .collect();
    BigRecord {
        max_states,
        jobs,
        memory_budget: budget,
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature edition of the paired run. Too small to spill (the CI
    /// edition's frontier widths need release-mode scale — spill engagement
    /// at that scale is the release binary's own gate, and the mechanism is
    /// unit-proven in `lts::memory`), so what this pins is the measurement
    /// harness: a budget changes nothing, and an unexercised spill path
    /// *fails* the gate rather than passing silently.
    #[test]
    fn miniature_runs_do_not_drift_and_an_unexercised_spill_fails_the_gate() {
        let minis = vec![pingpong::ping_pong_pairs(4, true), ring::token_ring(5, 2)];
        let record = run_scenarios(&minis, 60_000, 1, 1);
        assert_eq!(record.cases.len(), 2);
        for case in &record.cases {
            assert!(case.drift.is_none(), "{}: {:?}", case.name, case.drift);
            assert!(case.states > 1, "{}", case.name);
            assert!(
                case.stable_line.contains("passed="),
                "{}: {}",
                case.name,
                case.stable_line
            );
        }
        let failures = record.gate_failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("unexercised"),
            "the no-spill failure must name the real problem: {failures:?}"
        );
    }

    #[test]
    fn the_ci_scenarios_are_the_two_opposite_frontier_families() {
        let table = scenarios(0);
        assert_eq!(table.len(), 2);
        assert!(table[0].name.contains("Ping-pong"));
        assert!(table[1].name.contains("Ring"));
    }

    #[test]
    fn the_record_renders_with_its_schema() {
        let record = BigRecord {
            max_states: 1,
            jobs: 1,
            memory_budget: 1,
            cases: vec![],
        };
        let json = record.to_json();
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        // An empty run never exercised the spill: the gate must say so.
        assert!(!record.gate_failures().is_empty());
    }
}
