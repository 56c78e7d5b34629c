//! Directed-search benchmark: how fast each exploration strategy reaches a
//! *seeded safety violation* deep in a large state space — the
//! `BENCH_directed.json` record and its self-contained CI gate.
//!
//! The scenario is adversarial for breadth-first search: a single "needle"
//! chain of `needle_depth` outputs on a `step` channel ends in an output on
//! the forbidden `leak` channel, while a parallel "hay" composition of
//! `hay_chains` independent chains (each `hay_depth` outputs long) interleaves
//! into `(hay_depth + 1)^hay_chains` states, all shallower than the needle's
//! end. BFS must drain essentially the whole hay before it reaches the
//! violation; a beam search guided by `lts::type_priority` towards outputs on
//! `leak` walks straight down the needle.
//!
//! Every strategy runs with the same *monitor* — stop as soon as an expanded
//! state offers an output on `leak` — so the measured state count is "states
//! explored until the violation was found", the quantity that matters when a
//! bounded run hunts for a counterexample.
//!
//! The gate is self-contained (no checked-in baseline): the guided beam must
//! find the violation in at most one tenth of the states BFS needs. That is a
//! structural property of the search disciplines, not a timing, so it is
//! immune to machine noise. DFS and the seeded random walk are reported for
//! comparison but not gated — their hit time depends on successor ordering
//! luck rather than guidance.

use std::collections::BTreeMap;
use std::time::Instant;

use effpi::{ExploreConfig, Name, Strategy, TypeEnv, TypeLabel, TypeLts};
use lambdapi::{TyRef, Type};

use wire::Json;

/// The schema tag written into every directed-search record.
pub const SCHEMA: &str = "bench-directed/v1";

/// The beam must reach the violation within `BFS states / GATE_FACTOR`.
pub const GATE_FACTOR: usize = 10;

/// One strategy's run against the seeded scenario.
#[derive(Clone, PartialEq, Debug)]
pub struct DirectedCase {
    /// The strategy's wire spelling (e.g. `"beam:64"`).
    pub strategy: String,
    /// States explored when the violating transition was first offered.
    pub states: usize,
    /// Whether the violation was found within the state bound.
    pub found: bool,
    /// Wall time of the search, in milliseconds (informational).
    pub wall_ms: f64,
}

/// A whole directed-search record: the scenario shape plus one case per
/// strategy.
#[derive(Clone, PartialEq, Debug)]
pub struct DirectedRecord {
    /// Depth of the needle chain (violation distance from the initial state).
    pub needle_depth: usize,
    /// Number of independent hay chains composed in parallel.
    pub hay_chains: usize,
    /// Length of each hay chain.
    pub hay_depth: usize,
    /// One entry per strategy, BFS first.
    pub cases: Vec<DirectedCase>,
}

impl DirectedRecord {
    /// The BFS case (always present — [`run`] measures it first).
    pub fn bfs(&self) -> &DirectedCase {
        self.cases
            .iter()
            .find(|c| c.strategy == "bfs")
            .expect("run() always measures BFS")
    }

    /// The guided-beam case.
    pub fn beam(&self) -> &DirectedCase {
        self.cases
            .iter()
            .find(|c| c.strategy.starts_with("beam"))
            .expect("run() always measures the beam")
    }

    /// The gate: every violation found, and the guided beam needed at most
    /// `1/GATE_FACTOR` of BFS's states. One message per failure; empty means
    /// green.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for case in &self.cases {
            if !case.found {
                failures.push(format!(
                    "strategy {} did not find the seeded violation within the bound",
                    case.strategy
                ));
            }
        }
        let (bfs, beam) = (self.bfs(), self.beam());
        if beam.states * GATE_FACTOR > bfs.states {
            failures.push(format!(
                "guided beam needed {} states vs BFS's {} — more than 1/{GATE_FACTOR} \
                 (the property-aware heuristic is not steering)",
                beam.states, bfs.states
            ));
        }
        failures
    }

    /// Renders the record as the `BENCH_directed.json` artifact.
    pub fn to_json(&self) -> Json {
        let round3 = |x: f64| (x * 1e3).round() / 1e3;
        let cases = self
            .cases
            .iter()
            .map(|c| {
                let mut obj = BTreeMap::new();
                obj.insert("strategy".into(), Json::Str(c.strategy.clone()));
                obj.insert("states".into(), Json::Num(c.states as f64));
                obj.insert("found".into(), Json::Bool(c.found));
                obj.insert("wall_ms".into(), Json::Num(round3(c.wall_ms)));
                Json::Obj(obj)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("schema".into(), Json::Str(SCHEMA.into()));
        root.insert("needle_depth".into(), Json::Num(self.needle_depth as f64));
        root.insert("hay_chains".into(), Json::Num(self.hay_chains as f64));
        root.insert("hay_depth".into(), Json::Num(self.hay_depth as f64));
        root.insert("gate_factor".into(), Json::Num(GATE_FACTOR as f64));
        root.insert("cases".into(), Json::Arr(cases));
        Json::Obj(root)
    }
}

/// A chain of `depth` outputs on `var`, then successful termination.
fn chain(var: &str, depth: usize, tail: Type) -> Type {
    let mut ty = tail;
    for _ in 0..depth {
        ty = Type::out(Type::var(var), Type::Int, Type::thunk(ty));
    }
    ty
}

/// The seeded scenario: `needle ∨ (hay_0 | hay_1 | …)` in an environment
/// binding every channel to `co[int]`.
pub fn scenario(needle_depth: usize, hay_chains: usize, hay_depth: usize) -> (TypeEnv, Type) {
    let mut env = TypeEnv::new()
        .bind("step", Type::chan_out(Type::Int))
        .bind("leak", Type::chan_out(Type::Int));
    let needle = chain(
        "step",
        needle_depth,
        Type::out(Type::var("leak"), Type::Int, Type::thunk(Type::Nil)),
    );
    let mut hay = None;
    for i in 0..hay_chains {
        let var = format!("hay_{i}");
        env = env.bind(var.clone(), Type::chan_out(Type::Int));
        let c = chain(&var, hay_depth, Type::Nil);
        hay = Some(match hay {
            None => c,
            Some(rest) => Type::par(rest, c),
        });
    }
    let ty = match hay {
        Some(hay) => Type::union(needle, hay),
        None => needle,
    };
    (env, ty)
}

/// States explored (and wall time) until `strategy` first expands a state
/// offering an output on `leak`, within `max_states`.
fn hunt(env: &TypeEnv, ty: &Type, strategy: Strategy, max_states: usize) -> (usize, bool, f64) {
    let leak = Name::new("leak");
    let builder = TypeLts::new(env.clone()).with_priority_targets(vec![leak.clone()]);
    let config = ExploreConfig::serial(max_states).with_strategy(strategy);
    let start = Instant::now();
    let found = std::sync::atomic::AtomicBool::new(false);
    let exploration =
        builder.build_exploration_until(ty, &config, |_: &TyRef, out: &[(TypeLabel, usize)]| {
            let hit = out.iter().any(|(l, _)| l.is_output_on(&leak));
            if hit {
                found.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            hit
        });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (
        exploration.lts.num_states(),
        found.load(std::sync::atomic::Ordering::Relaxed),
        wall_ms,
    )
}

/// Runs the directed search under every strategy (serial engine, so the
/// state-until-violation counts are exactly the frontier disciplines' own
/// visit orders).
pub fn run(needle_depth: usize, hay_chains: usize, hay_depth: usize) -> DirectedRecord {
    let (env, ty) = scenario(needle_depth, hay_chains, hay_depth);
    // Room for the full hay plus the needle: every strategy can finish.
    let max_states = (hay_depth + 1).pow(hay_chains as u32) + 2 * needle_depth + 16;
    let strategies = [
        Strategy::Bfs,
        Strategy::Dfs,
        Strategy::Beam { width: 64 },
        Strategy::RandomWalk { seed: 1 },
    ];
    let cases = strategies
        .iter()
        .map(|&strategy| {
            let (states, found, wall_ms) = hunt(&env, &ty, strategy, max_states);
            DirectedCase {
                strategy: strategy.to_string(),
                states,
                found,
                wall_ms,
            }
        })
        .collect();
    DirectedRecord {
        needle_depth,
        hay_chains,
        hay_depth,
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_guided_beam_beats_bfs_by_the_gate_factor() {
        // Small edition of the CI scenario: needle 30 deep, 3 hay chains of 8
        // — 729 interleaved hay states, all shallower than the needle's end.
        let record = run(30, 3, 8);
        assert!(
            record.gate_failures().is_empty(),
            "{:?}",
            record.gate_failures()
        );
        let (bfs, beam) = (record.bfs(), record.beam());
        assert!(bfs.found && beam.found);
        assert!(
            beam.states * GATE_FACTOR <= bfs.states,
            "beam {} vs bfs {}",
            beam.states,
            bfs.states
        );
        // All four strategies ran and found the violation.
        assert_eq!(record.cases.len(), 4);
        assert!(record.cases.iter().all(|c| c.found));
    }

    #[test]
    fn the_search_is_deterministic_per_strategy() {
        let a = run(20, 2, 6);
        let b = run(20, 2, 6);
        for (x, y) in a.cases.iter().zip(b.cases.iter()) {
            assert_eq!(x.strategy, y.strategy);
            assert_eq!(x.states, y.states, "{}", x.strategy);
            assert_eq!(x.found, y.found, "{}", x.strategy);
        }
    }

    #[test]
    fn the_record_renders_with_its_schema() {
        let record = run(10, 2, 4);
        let json = record.to_json();
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            json.get("cases").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
    }
}
