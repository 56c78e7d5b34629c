//! The witness-trace contract, pinned at the outermost surface.
//!
//! Every *failing safety* check must ship a minimal, replayable witness
//! trace — the repository's counterpart of mCRL2's counterexample evidence
//! (paper §4.3): a path from the initial state of the LTS the property was
//! decided on to a state or transition that violates it. This suite checks
//! the whole journey: the [`effpi::Session`] outcome carries the trace, the
//! wire JSON of the report embeds it step by step, each step replays on the
//! actual LTS, and — because the default engine is breadth-first — the trace
//! is *shortest*, pinned against a spec with a deliberately longer decoy
//! route to the same violation.

use effpi::spec::{parse_spec, Spec};
use effpi::{Property, Session, TypeEnv};
use lambdapi::Type;

/// A chain of `depth` outputs on each variable in turn, ending in `Nil`.
fn out_chain(vars: &[&str]) -> Type {
    let mut ty = Type::Nil;
    for var in vars.iter().rev() {
        ty = Type::out(Type::var(*var), Type::Int, Type::thunk(ty));
    }
    ty
}

/// A spec whose `non-usage(aud)` check fails, with two routes to the
/// violation: a short one (`x` then `aud`, 2 steps) and a longer decoy
/// (`y`, `z`, then `aud`, 3 steps). The BFS witness must take the short one.
const LEAKY: &str = "\
env x : co[int]
env y : co[int]
env z : co[int]
env aud : co[int]
visible x, y, z, aud
type o[x, int, Pi() o[aud, int, Pi() nil]]
   | o[y, int, Pi() o[z, int, Pi() o[aud, int, Pi() nil]]]
check non_usage [aud]
check deadlock_free [x, y, z, aud]
";

/// The leaky spec, parsed, and the type it verifies.
fn leaky_spec() -> (Spec, Type) {
    let spec = parse_spec(LEAKY).expect("the leaky spec parses");
    let ty = spec.ty.clone().expect("the leaky spec has a type");
    (spec, ty)
}

#[test]
fn failing_safety_checks_carry_a_replayable_witness_in_the_wire_json() {
    let session = Session::new();
    let report = session.run_spec_text(LEAKY).expect("the leaky spec parses");
    let json = report.to_wire_json();

    let properties = json
        .get("properties")
        .and_then(wire::Json::as_arr)
        .expect("report JSON has a properties array");
    let non_usage = properties
        .iter()
        .find(|p| p.get("name").and_then(wire::Json::as_str) == Some("non-usage"))
        .expect("the non-usage row is reported");
    assert_eq!(
        non_usage.get("holds").and_then(wire::Json::as_bool),
        Some(false),
        "the spec is built to violate non-usage(aud)"
    );
    let violation = non_usage
        .get("violation")
        .and_then(wire::Json::as_str)
        .expect("a failing safety check names its violation");
    assert!(violation.contains("aud"), "{violation}");

    // Replay the embedded trace, step by step, on the LTS the property was
    // decided on (non-usage is decided on the unrestricted probed LTS, which
    // is exactly what Session::build_lts rebuilds).
    let steps = non_usage
        .get("trace")
        .and_then(wire::Json::as_arr)
        .expect("a failing safety check embeds its witness trace");
    let (spec, ty) = leaky_spec();
    let (_, lts) = session.build_lts(&spec.env, &ty).unwrap();
    let mut at = lts.initial();
    for step in steps {
        let from = step.get("from").and_then(wire::Json::as_usize).unwrap();
        let label = step.get("label").and_then(wire::Json::as_str).unwrap();
        let to = step.get("to").and_then(wire::Json::as_usize).unwrap();
        assert_eq!(from, at, "trace steps chain from the initial state");
        assert!(
            lts.transitions_from(from)
                .iter()
                .any(|(l, j)| l.to_string() == label && *j == to),
            "step {from} --[{label}]--> {to} is not a transition of the LTS"
        );
        at = to;
    }

    // The passing safety check reports no witness fields at all.
    let deadlock_free = properties
        .iter()
        .find(|p| p.get("name").and_then(wire::Json::as_str) == Some("deadlock-free"))
        .expect("the deadlock-free row is reported");
    assert_eq!(
        deadlock_free.get("holds").and_then(wire::Json::as_bool),
        Some(true)
    );
    assert!(deadlock_free.get("violation").is_none());
    assert!(deadlock_free.get("trace").is_none());
}

#[test]
fn bfs_witness_traces_are_minimal() {
    // The decoy route (y, z, aud) reaches the same violation one step later
    // than the short route (x, aud): a breadth-first witness must be the
    // 2-step one. This pins minimality, not just replayability.
    let session = Session::new();
    let (spec, ty) = leaky_spec();
    let outcome = session
        .verify(&spec.env, &ty, &Property::non_usage(["aud"]))
        .unwrap();
    assert!(!outcome.holds);
    let trace = outcome.trace.expect("failing safety check carries a trace");
    // Step 0 resolves the union (a τ choice), then the short route: x, aud.
    // The decoy route would take 4 steps (τ, y, z, aud).
    assert_eq!(
        trace.steps.len(),
        3,
        "the witness must take the short route, not the 4-step decoy: {trace}"
    );
    assert!(
        trace.steps[1].label.to_string().contains('x'),
        "the short route goes through x: {trace}"
    );
    assert!(
        trace.steps[2].label.to_string().contains("aud"),
        "the violating step is the output on aud: {trace}"
    );
}

#[test]
fn liveness_failures_carry_no_trace() {
    // A failing *liveness* template has no finite witness (its evidence
    // would be an infinite run), so the report must not fabricate one.
    let session = Session::new();
    let env = TypeEnv::new()
        .bind("x", Type::chan_out(Type::Int))
        .bind("y", Type::chan_out(Type::Int));
    let only_x = out_chain(&["x"]);
    let outcome = session
        .verify(&env, &only_x, &Property::eventual_output(["y"]))
        .unwrap();
    assert!(!outcome.holds);
    assert!(outcome.trace.is_none());
}
