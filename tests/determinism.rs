//! The determinism suite of the parallel exploration engine.
//!
//! `lts::explore` guarantees that a complete parallel exploration is
//! renumbered into **exactly** the LTS the serial BFS would have produced, so
//! a `Session` must report byte-identical results whatever its `parallelism`.
//! This suite pins that guarantee at the outermost surface: for every
//! Fig. 9 row and protocol spec generated by `effpi::protocols` and every
//! `.effpi` specification shipped in `examples/specs/`, the stable summary
//! line (every reported field except wall-clock timing) of a serial run and
//! a `parallelism = 4` run must be byte-identical — and likewise, for every open-term
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

use effpi::protocols::{fig9_specs, mobile_code, open_terms};
use effpi::spec::{parse_spec, Spec};
use effpi::{
    ExploreConfig, Session, SessionBuilder, TermLabel, TermLts, TermRef, TyRef, Type, TypeLts,
    Verifier,
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

/// Parses generated spec text.
fn parsed(text: &str) -> Spec {
    parse_spec(text).unwrap_or_else(|e| panic!("{e}\n{text}"))
}

/// The scale-0 Fig. 9 rows plus the mobile-code spec, as `(name, spec)`.
fn protocol_specs() -> Vec<(String, Spec)> {
    let mut specs: Vec<(String, Spec)> = fig9_specs(0)
        .into_iter()
        .map(|row| (row.name, parsed(&row.spec)))
        .collect();
    specs.push(("Mobile code".to_string(), parsed(&mobile_code::spec())));
    specs
}

#[test]
fn every_protocol_scenario_reports_identically_serial_and_parallel() {
    let serial = session(1);
    let parallel = session(WORKERS);
    let specs = protocol_specs();
    assert!(specs.len() >= 8);
    for (name, spec) in &specs {
        let s = serial.run_spec(spec).summary().stable_line();
        let p = parallel.run_spec(spec).summary().stable_line();
        assert_eq!(s, p, "{name}: serial and {WORKERS}-worker runs disagree");
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
fn every_worker_count_and_budget_reports_identically_on_complete_runs() {
    // A complete run, serial or parallel, with or without a 1-byte memory
    // budget (under which every run spills), must reproduce the serial
    // unbudgeted report byte for byte.
    let baseline = session(1);
    for (name, spec) in &protocol_specs() {
        let expect = baseline.run_spec(spec).summary().stable_line();
        assert!(
            !expect.contains("error="),
            "{name}: the contract only covers complete runs"
        );
        for workers in [1, WORKERS] {
            for budgeted in [false, true] {
                let mut builder = Session::builder()
                    .max_states(MAX_STATES)
                    .parallelism(workers);
                if budgeted {
                    builder = builder.memory_budget(1);
                }
                let line = builder.build().run_spec(spec).summary().stable_line();
                assert_eq!(
                    expect, line,
                    "{name}: x{workers} workers (budgeted: {budgeted}) differs from serial"
                );
            }
        }
    }
}

#[test]
fn truncated_runs_report_the_same_clamped_error_serial_and_parallel() {
    // A bound small enough that the first payment row trips it: the clamped
    // `StateSpaceTooLarge { bound, explored }` must also be identical (the
    // overshoot clamp makes `explored == bound` on every engine).
    let tight_serial = Session::builder().max_states(50).parallelism(1).build();
    let tight_parallel = Session::builder()
        .max_states(50)
        .parallelism(WORKERS)
        .build();
    let spec = parsed(&fig9_specs(0)[0].spec);
    let s = tight_serial.run_spec(&spec).summary().stable_line();
    let p = tight_parallel.run_spec(&spec).summary().stable_line();
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

/// One spec per protocol family — enough shape diversity to exercise
/// both memory-layer representations, small enough that the knob matrix
/// below stays test-suite-fast in debug builds.
fn memory_corpus() -> Vec<(&'static str, Spec)> {
    use effpi::protocols::{dining, payment, pingpong, ring};
    vec![
        ("Pay & audit + 3 clients", parsed(&payment::spec(3))),
        (
            "Dining philos. (3, no deadlock)",
            parsed(&dining::spec(3, false)),
        ),
        (
            "Ping-pong (3 pairs, responsive)",
            parsed(&pingpong::spec(3, true)),
        ),
        ("Ring (4 elements, 2 tokens)", parsed(&ring::spec(4, 2))),
    ]
}

/// Runs the memory corpus on a session built by `configure` and returns the
/// stable summary lines.
fn memory_corpus_lines(configure: impl Fn(SessionBuilder) -> SessionBuilder) -> Vec<String> {
    let session = configure(Session::builder().max_states(MAX_STATES)).build();
    memory_corpus()
        .iter()
        .map(|(name, spec)| {
            let summary = session.run_spec(spec).summary();
            assert!(summary.error.is_none(), "{name}: {:?}", summary.error);
            summary.stable_line()
        })
        .collect()
}

/// Asserts that two explorations agree on everything a run produces: how it
/// ended, the states in canonical numbering and every transition.
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
}

/// The type `spec` verifies.
fn spec_type(spec: &Spec) -> &Type {
    spec.ty.as_ref().expect("the spec has a type")
}

/// The builder verification explores `spec` with: the probed environment,
/// the probes as the only early-input candidates, and the spec's visible
/// channels plus the probes.
fn verification_builder(verifier: &Verifier, spec: &Spec) -> TypeLts {
    let (env, probes) = verifier.probe_env(&spec.env, spec_type(spec));
    let mut visible = spec.visible.clone();
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
        for (name, spec) in memory_corpus() {
            let what = format!("{name} x{workers} workers");
            let builder = verification_builder(session.verifier(), &spec);
            let bitmap = builder.build_exploration(spec_type(&spec), &config);
            let hash = lts::explore(
                builder.canonical_ref(&TyRef::intern(spec_type(&spec))),
                |state: &TyRef| builder.visible_successors(state),
                &config,
            );
            assert_same_exploration(&bitmap, &hash, &what);
            assert_eq!(
                bitmap.lts.num_states(),
                session.run_spec(&spec).states(),
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
/// `width` channels of each kind, as spec text checking deadlock freedom:
/// `width²` distinct leaves, all discovered in one breadth-first layer, in a
/// space of about `width² + 3·width` small states.
fn fan(width: usize) -> String {
    let out = |chan: String, then: String| format!("o[{chan}, int, Pi() {then}]");
    let chans: Vec<String> = (0..width)
        .flat_map(|i| [format!("a{i}"), format!("b{i}")])
        .collect();
    let branches: Vec<String> = (0..width)
        .map(|i| {
            let leaves: Vec<String> = (0..width)
                .map(|j| out(format!("b{j}"), out(format!("a{i}"), "nil".into())))
                .collect();
            out(format!("a{i}"), format!("({})", leaves.join(" | ")))
        })
        .collect();
    let env: String = chans
        .iter()
        .map(|c| format!("env {c} : co[int]\n"))
        .collect();
    format!(
        "{env}visible {}\ntype {}\ncheck deadlock_free []\n",
        chans.join(", "),
        branches.join("\n  | ")
    )
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
    let spec = parsed(&fan(64));
    let unbudgeted = session(1);
    let budgeted = Session::builder()
        .max_states(MAX_STATES)
        .memory_budget(1)
        .build();
    let line = budgeted.run_spec(&spec).summary().stable_line();
    assert!(!line.contains("error="), "{line}");
    assert_eq!(line, unbudgeted.run_spec(&spec).summary().stable_line());

    let verifier = budgeted.verifier();
    let exploration = verification_builder(verifier, &spec)
        .build_exploration(spec_type(&spec), &verifier.explore);
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
    let report = session(1).run_spec(&parsed(&fig9_specs(0)[0].spec));
    let summary = report.summary();
    let stable = summary.stable_line();
    assert!(stable.contains("states="));
    assert!(stable.contains("verdicts="));
    assert!(!stable.contains("duration"), "{stable}");
    // The full Display adds the duration back.
    assert!(summary.to_string().contains("duration_ms="));
}
