//! The determinism suite of the parallel exploration engine.
//!
//! `lts::explore` guarantees that a complete parallel exploration is
//! renumbered into **exactly** the LTS the serial BFS would have produced, so
//! a `Session` must report byte-identical results whatever its `parallelism`.
//! This suite pins that guarantee at the outermost surface: for every
//! protocol scenario in `effpi::protocols` and every `.effpi` specification
//! shipped in `examples/specs/`, the stable summary line (every reported
//! field except wall-clock timing) of a serial run and a `parallelism = 4`
//! run must be byte-identical — and likewise, for every open-term
//! conformance scenario, the full rendered Fig. 5 LTS (states in canonical
//! numbering plus every transition triple) built through
//! `Session::build_term_lts`.
//!
//! The same contract covers the engine's memory layer: the bitmap state
//! table the `TypeLts` / `TermLts` builds run on vs the hash table the
//! generic `lts::explore` family runs on, and the disk-spilling frontier
//! behind `memory_budget` vs the all-in-RAM one, are choices the engine
//! makes from the state type and the config and must be invisible in every
//! result — see the "memory layer" section at the bottom, which also checks
//! that a budgeted verification really spills and reloads. (Corrupt or
//! truncated spill segments failing *loudly* is pinned at the unit level in
//! `lts`'s `memory` module, where a segment file can be torn byte by byte.)
//!
//! Beside the strategy leg sits the one place where strategies *should*
//! differ: how soon a bounded hunt reaches a seeded safety violation.

use effpi::protocols::{fig9_scenarios, mobile_code, open_terms};
use effpi::spec::parse_spec;
use effpi::{
    ExploreConfig, Name, Session, SessionBuilder, Strategy, TermLabel, TermLts, TermRef, TyRef,
    Type, TypeEnv, TypeLts, Verifier,
};
use lts::{CandidatePolicy, Exploration, ExploreStatus, Lts};

const MAX_STATES: usize = 60_000;
const WORKERS: usize = 4;

fn session(parallelism: usize) -> Session {
    Session::builder()
        .max_states(MAX_STATES)
        .parallelism(parallelism)
        .build()
}

#[test]
fn every_protocol_scenario_reports_identically_serial_and_parallel() {
    let serial = session(1);
    let parallel = session(WORKERS);
    let mut scenarios = fig9_scenarios(0);
    scenarios.push(mobile_code::mobile_code_scenario());
    assert!(scenarios.len() >= 8);
    for scenario in &scenarios {
        let s = serial.run_scenario(scenario).summary().stable_line();
        let p = parallel.run_scenario(scenario).summary().stable_line();
        assert_eq!(
            s, p,
            "{}: serial and {WORKERS}-worker runs disagree",
            scenario.name
        );
    }
}

#[test]
fn every_shipped_spec_reports_identically_serial_and_parallel() {
    let specs_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
    let serial = session(1);
    let parallel = session(WORKERS);
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(specs_dir)
        .expect("examples/specs must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "effpi"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let spec = parse_spec(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let s = serial.run_spec(&spec).summary().stable_line();
        let p = parallel.run_spec(&spec).summary().stable_line();
        assert_eq!(
            s,
            p,
            "{}: serial and {WORKERS}-worker runs disagree",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 2, "expected the shipped specs, found {checked}");
}

#[test]
fn every_strategy_reports_identically_on_complete_runs() {
    // The canonical-renumbering contract extends to the frontier discipline:
    // a *complete* run visits the whole space whatever the visit order, and
    // renumbering into BFS discovery order erases the order again — so every
    // strategy, serial or parallel, must reproduce the serial BFS report
    // byte for byte. (Only bounded runs may differ per strategy, and those
    // say so in the report.) Likewise under a 1-byte memory budget: BFS and
    // the parallel runs spill, the serial in-RAM disciplines ignore it.
    let strategies = [
        Strategy::Bfs,
        Strategy::Dfs,
        Strategy::Beam { width: 64 },
        Strategy::RandomWalk { seed: 7 },
    ];
    let baseline = session(1);
    let mut scenarios = fig9_scenarios(0);
    scenarios.push(mobile_code::mobile_code_scenario());
    for scenario in &scenarios {
        let expect = baseline.run_scenario(scenario).summary().stable_line();
        assert!(
            !expect.contains("error="),
            "{}: the strategy contract only covers complete runs",
            scenario.name
        );
        for strategy in strategies {
            for workers in [1, WORKERS] {
                for budgeted in [false, true] {
                    let mut builder = Session::builder()
                        .max_states(MAX_STATES)
                        .parallelism(workers)
                        .strategy(strategy);
                    if budgeted {
                        builder = builder.memory_budget(1);
                    }
                    let line = builder
                        .build()
                        .run_scenario(scenario)
                        .summary()
                        .stable_line();
                    assert_eq!(
                        expect, line,
                        "{}: {strategy} x{workers} workers (budgeted: {budgeted}) differs \
                         from serial BFS",
                        scenario.name
                    );
                }
            }
        }
    }
}

/// A chain of `depth` outputs on `var`, then `tail`.
fn chain(var: &str, depth: usize, tail: Type) -> Type {
    let mut ty = tail;
    for _ in 0..depth {
        ty = Type::out(Type::var(var), Type::Int, Type::thunk(ty));
    }
    ty
}

/// A seeded safety violation in a space hostile to breadth-first search:
/// `needle ∨ (hay_0 | hay_1 | …)`, every channel bound to `co[int]`. The
/// needle is `needle_depth` outputs on `step`, then one on the forbidden
/// `leak`; the hay is `hay_chains` independent chains of `hay_depth` outputs,
/// interleaving into `(hay_depth + 1)^hay_chains` states, all shallower than
/// the needle's end.
fn needle_in_hay(needle_depth: usize, hay_chains: usize, hay_depth: usize) -> (TypeEnv, Type) {
    let mut env = TypeEnv::new()
        .bind("step", Type::chan_out(Type::Int))
        .bind("leak", Type::chan_out(Type::Int));
    let needle = chain(
        "step",
        needle_depth,
        Type::out(Type::var("leak"), Type::Int, Type::thunk(Type::Nil)),
    );
    let mut hay = Vec::new();
    for i in 0..hay_chains {
        let var = format!("hay_{i}");
        env = env.bind(var.clone(), Type::chan_out(Type::Int));
        hay.push(chain(&var, hay_depth, Type::Nil));
    }
    (env, Type::union(needle, Type::par_all(hay)))
}

#[test]
fn the_guided_beam_finds_a_seeded_violation_in_a_tenth_of_the_bfs_states() {
    // Every strategy hunts with the same monitor — stop at the first
    // expanded state offering an output on `leak` — so a run's state count
    // is "states explored until the violation was found". BFS must drain
    // nearly all 11^4 = 14 641 hay states first; the beam, steered towards
    // outputs on `leak` by the builder's priority targets, walks down the
    // needle.
    let (needle_depth, hay_chains, hay_depth) = (60, 4, 10);
    let (env, ty) = needle_in_hay(needle_depth, hay_chains, hay_depth);
    let leak = Name::new("leak");
    let builder = TypeLts::new(env).with_priority_targets(vec![leak.clone()]);
    // Room for the whole hay plus the needle: every strategy can finish.
    let max_states = (hay_depth + 1).pow(hay_chains as u32) + 2 * needle_depth + 16;
    let hunt = |strategy: Strategy| {
        let config = ExploreConfig::serial(max_states).with_strategy(strategy);
        let exploration = builder.build_exploration_until(&ty, &config, |_, out| {
            out.iter().any(|(label, _)| label.is_output_on(&leak))
        });
        assert_eq!(
            exploration.status,
            ExploreStatus::Cancelled,
            "{strategy} did not find the seeded violation within the bound"
        );
        exploration.lts.num_states()
    };
    let bfs = hunt(Strategy::Bfs);
    assert_eq!(bfs, 14_703);
    let beam = hunt(Strategy::Beam { width: 64 });
    assert!(
        beam * 10 <= bfs,
        "beam:64 needed {beam} states vs BFS's {bfs}"
    );
    hunt(Strategy::Dfs);
    hunt(Strategy::RandomWalk { seed: 1 });
}

#[test]
fn truncated_runs_report_the_same_clamped_error_serial_and_parallel() {
    // A bound small enough that every payment scenario trips it: the clamped
    // `StateSpaceTooLarge { bound, explored }` must also be identical (the
    // overshoot clamp makes `explored == bound` on every engine).
    let tight_serial = Session::builder().max_states(50).parallelism(1).build();
    let tight_parallel = Session::builder()
        .max_states(50)
        .parallelism(WORKERS)
        .build();
    let scenario = &fig9_scenarios(0)[0];
    let s = tight_serial.run_scenario(scenario).summary().stable_line();
    let p = tight_parallel
        .run_scenario(scenario)
        .summary()
        .stable_line();
    assert!(s.contains("error="), "expected a bound trip, got {s}");
    assert_eq!(s, p);
}

/// Renders every timing-free fact of a term LTS — state list (in canonical
/// numbering), every transition triple — as one stable string, the term-side
/// analogue of `ReportSummary::stable_line`.
fn term_lts_stable_line(lts: &Lts<TermRef, TermLabel>) -> String {
    use std::fmt::Write as _;
    let mut line = format!(
        "states={} transitions={} truncated={}",
        lts.num_states(),
        lts.num_transitions(),
        lts.is_truncated()
    );
    for (i, state) in lts.states().iter().enumerate() {
        let _ = write!(line, " s{i}={state}");
    }
    for (i, label, j) in lts.transitions() {
        let _ = write!(line, " t{i}-[{label}]->{j}");
    }
    line
}

#[test]
fn every_open_term_scenario_reports_identically_serial_and_parallel() {
    let serial = session(1);
    let parallel = session(WORKERS);
    let scenarios = open_terms::corpus();
    assert!(scenarios.len() >= 5);
    for scenario in scenarios {
        let s = serial
            .build_term_lts(&scenario.env, &scenario.term)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        let p = parallel
            .build_term_lts(&scenario.env, &scenario.term)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert_eq!(
            term_lts_stable_line(&s),
            term_lts_stable_line(&p),
            "{}: serial and {WORKERS}-worker open-term runs disagree",
            scenario.name
        );
    }
}

#[test]
fn the_open_term_corpus_explores_to_its_pinned_sizes() {
    let pinned = [
        ("Ping-pong (open)", 41, 79),
        ("Ponger (open)", 6, 7),
        ("Ex. 3.5 t1", 11, 14),
        ("Pairs x3", 950, 2981),
        ("Pairs x4", 9815, 38111),
        ("Ring x4", 1423, 4614),
        ("Ring x5", 6818, 25635),
    ];
    let session = session(1);
    let sizes: Vec<(String, usize, usize)> = open_terms::corpus()
        .into_iter()
        .map(|scenario| {
            let lts = session
                .build_term_lts(&scenario.env, &scenario.term)
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
            (scenario.name, lts.num_states(), lts.num_transitions())
        })
        .collect();
    let pinned: Vec<(String, usize, usize)> = pinned
        .iter()
        .map(|&(name, states, transitions)| (name.to_string(), states, transitions))
        .collect();
    assert_eq!(sizes, pinned);
}

// ---------------------------------------------------------------------------
// The memory layer: the state table and the exploration memory budget are
// the engine's own choices, never observable in a result.
// ---------------------------------------------------------------------------

/// One scenario per protocol family — enough shape diversity to exercise
/// both memory-layer representations, small enough that the knob matrix
/// below stays test-suite-fast in debug builds.
fn memory_corpus() -> Vec<effpi::Scenario> {
    use effpi::protocols::{dining, payment, pingpong, ring};
    vec![
        payment::payment_with_clients(3),
        dining::dining_philosophers(3, false),
        pingpong::ping_pong_pairs(3, true),
        ring::token_ring(4, 2),
    ]
}

/// Runs the memory corpus on a session built by `configure` and returns the
/// stable summary lines.
fn memory_corpus_lines(configure: impl Fn(SessionBuilder) -> SessionBuilder) -> Vec<String> {
    let session = configure(Session::builder().max_states(MAX_STATES)).build();
    memory_corpus()
        .iter()
        .map(|scenario| {
            let summary = session.run_scenario(scenario).summary();
            assert!(
                summary.error.is_none(),
                "{}: {:?}",
                scenario.name,
                summary.error
            );
            summary.stable_line()
        })
        .collect()
}

/// Asserts that two explorations agree on everything a run produces: how it
/// ended, the states in canonical numbering, every transition, and the
/// discovery tree witnesses are read from.
fn assert_same_exploration<S, L>(a: &Exploration<S, L>, b: &Exploration<S, L>, what: &str)
where
    S: Clone + Eq + std::hash::Hash + std::fmt::Debug,
    L: Clone + PartialEq + std::fmt::Debug,
{
    assert_eq!(a.status, ExploreStatus::Complete, "{what}");
    assert_eq!(a.status, b.status, "{what}");
    assert_eq!(a.lts.states(), b.lts.states(), "{what}: states");
    for i in 0..a.lts.num_states() {
        assert_eq!(
            a.lts.transitions_from(i),
            b.lts.transitions_from(i),
            "{what}: transitions of state {i}"
        );
    }
    assert_eq!(a.parents, b.parents, "{what}: discovery tree");
}

/// The builder verification explores `scenario` with: the probed
/// environment, the probes as the only early-input candidates, and the
/// scenario's visible channels plus the probes.
fn verification_builder(verifier: &Verifier, scenario: &effpi::Scenario) -> TypeLts {
    let (env, probes) = verifier.probe_env(&scenario.env, &scenario.ty);
    let mut visible = scenario.visible.clone();
    visible.extend(probes.iter().cloned());
    TypeLts::with_checker(env, verifier.checker().clone())
        .with_candidate_policy(CandidatePolicy::Only(probes))
        .with_visible_subjects(Some(visible))
}

#[test]
fn the_bitmap_table_is_byte_identical_to_the_hash_table() {
    // No option selects the state table: `TypeLts` / `TermLts` states are
    // interner references, so their builds run on the bitmap table, while
    // the generic `lts::explore` family runs the same drivers on the hash
    // table over any state type — interner references included. Handing it
    // a builder's own successor function must therefore reproduce the
    // builder's exploration exactly — not just its stable line — serially
    // and with 4 workers.
    let session = session(1);
    for workers in [1, WORKERS] {
        let config = ExploreConfig::new(workers, MAX_STATES);
        for scenario in memory_corpus() {
            let what = format!("{} x{workers} workers", scenario.name);
            let builder = verification_builder(session.verifier(), &scenario);
            let bitmap = builder.build_exploration(&scenario.ty, &config);
            let hash = lts::explore(
                builder.canonical_ref(&TyRef::intern(&scenario.ty)),
                |state: &TyRef| builder.visible_successors(state),
                &config,
            );
            assert_same_exploration(&bitmap, &hash, &what);
            assert_eq!(
                bitmap.lts.num_states(),
                session.run_scenario(&scenario).states(),
                "{what}: not the LTS verification decides on"
            );
        }
        for scenario in open_terms::corpus() {
            let what = format!("{} x{workers} workers", scenario.name);
            let builder = TermLts::with_checker(scenario.env.clone(), session.checker().clone());
            let bitmap = builder.build_exploration(&scenario.term, &config);
            let hash = lts::explore(
                TermRef::intern(&scenario.term),
                |state: &TermRef| builder.successors(state).to_vec(),
                &config,
            );
            assert_same_exploration(&bitmap, &hash, &what);
        }
    }
}

#[test]
fn a_memory_budget_is_byte_identical_to_an_unbudgeted_run() {
    // A 1-byte budget trips on the first expansion, so every budgeted run
    // takes the spilling-frontier code path from its first push; the report
    // must not move an inch, serially or with 4 workers.
    let unbudgeted = memory_corpus_lines(|b| b);
    for workers in [1, WORKERS] {
        let budgeted = memory_corpus_lines(|b| b.memory_budget(1).parallelism(workers));
        assert_eq!(
            unbudgeted, budgeted,
            "the memory budget leaked into a {workers}-worker report"
        );
    }
}

/// A two-level fan, `∨ᵢ o[aᵢ, int, ∨ⱼ o[bⱼ, int, o[aᵢ, int, nil]]]` over
/// `width` channels of each kind: `width²` distinct leaves, all discovered
/// in one breadth-first layer, in a space of about `width² + 3·width` small
/// states.
fn fan(width: usize) -> effpi::Scenario {
    let out = |chan: &str, then: Type| Type::out(Type::var(chan), Type::Int, Type::thunk(then));
    let (a, b) = (|i| format!("a{i}"), |j| format!("b{j}"));
    let mut env = TypeEnv::new();
    let mut visible = Vec::new();
    for name in (0..width).flat_map(|i| [a(i), b(i)]) {
        env = env.bind(name.clone(), Type::chan_out(Type::Int));
        visible.push(Name::new(name));
    }
    let ty = Type::union_all((0..width).map(|i| {
        let leaves = (0..width).map(|j| out(&b(j), out(&a(i), Type::Nil)));
        out(&a(i), Type::union_all(leaves))
    }));
    effpi::Scenario {
        name: format!("Fan ({width} x {width})"),
        env,
        ty,
        visible,
        properties: vec![effpi::Property::DeadlockFree { vars: vec![] }],
        paper_verdicts: None,
        paper_states: None,
    }
}

#[test]
fn a_budgeted_verification_spills_reloads_every_segment_and_does_not_drift() {
    // The corpus above never fills a spill segment (4096 frontier entries),
    // so its budgeted runs take the spilling path without writing to disk.
    // The smallest space here that does is a 64 x 64 fan: its 4096 leaves
    // are one layer. (The smallest spilling Fig. 9 family member, 12
    // responsive ping-pong pairs, has 28 672 far costlier states.) The
    // budget must push the layer to disk, stream it back, and change nothing
    // in the report.
    let scenario = fan(64);
    let unbudgeted = session(1);
    let budgeted = Session::builder()
        .max_states(MAX_STATES)
        .memory_budget(1)
        .build();
    let line = budgeted.run_scenario(&scenario).summary().stable_line();
    assert!(!line.contains("error="), "{line}");
    assert_eq!(
        line,
        unbudgeted.run_scenario(&scenario).summary().stable_line()
    );

    let verifier = budgeted.verifier();
    let exploration = verification_builder(verifier, &scenario)
        .build_exploration(&scenario.ty, &verifier.explore);
    assert_eq!(exploration.status, ExploreStatus::Complete);
    let stats = exploration.stats;
    assert!(stats.spill_segments > 0, "nothing spilled: {stats:?}");
    assert_eq!(stats.spill_reloads, stats.spill_segments, "{stats:?}");
}

#[test]
fn spill_directories_are_cleaned_up_after_every_run() {
    let dir = std::env::temp_dir().join(format!("effpi-determinism-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spill base dir");

    let with_spill_dir = memory_corpus_lines(|b| b.memory_budget(1).spill_dir(dir.clone()));
    assert_eq!(with_spill_dir, memory_corpus_lines(|b| b));

    // Whatever the runs spilled under `dir` was transient: the per-run
    // subdirectories remove themselves when the exploration finishes.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("spill base dir survives")
        .map(|e| e.expect("read dir entry").file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "spill run directories leaked: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stable_lines_carry_everything_but_the_timing() {
    let report = session(1).run_scenario(&fig9_scenarios(0)[0]);
    let summary = report.summary();
    let stable = summary.stable_line();
    assert!(stable.contains("states="));
    assert!(stable.contains("verdicts="));
    assert!(!stable.contains("duration"), "{stable}");
    // The full Display adds the duration back.
    assert!(summary.to_string().contains("duration_ms="));
}
