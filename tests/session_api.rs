//! Tests for the unified `effpi::Session` pipeline API: builder defaults,
//! visible-channel filtering, and structured reports (wire rendering
//! included).

use dbt_types::Checker;
use effpi::protocols::{payment, pingpong};
use effpi::spec::parse_spec;
use effpi::{Error, Property, Session, Type, TypeEnv, Verifier, VerifyError};
use lambdapi::examples;
use wire::Json;

fn payment_env() -> TypeEnv {
    TypeEnv::new()
        .bind("self", Type::chan_io(Type::Int))
        .bind("aud", Type::chan_out(Type::Int))
        .bind("client", examples::reply_channel_type())
}

fn payment_applied() -> Type {
    examples::tpayment_type()
        .apply_all(&[Type::var("self"), Type::var("aud"), Type::var("client")])
        .unwrap()
}

// ---------------------------------------------------------------------------
// Builder defaults and knobs
// ---------------------------------------------------------------------------

#[test]
fn builder_defaults_match_the_legacy_defaults() {
    let session = Session::builder().build();
    let config = session.config();
    let default_verifier = Verifier::default();
    let default_checker = Checker::default();

    assert_eq!(config.max_states, default_verifier.explore.max_states);
    assert_eq!(config.auto_probe, default_verifier.auto_probe);
    assert_eq!(config.visible, default_verifier.visible);
    assert_eq!(config.max_depth, default_checker.max_depth);
    assert_eq!(config.max_unfold, default_checker.max_unfold);

    // The cached verifier/checker really carry those settings.
    assert_eq!(session.verifier().explore, default_verifier.explore);
    assert_eq!(session.verifier().auto_probe, default_verifier.auto_probe);
    assert_eq!(session.checker().max_depth, default_checker.max_depth);
    assert_eq!(session.checker().max_unfold, default_checker.max_unfold);

    // And Session::new() is the same thing.
    assert_eq!(Session::new().config(), config);
}

#[test]
fn builder_knobs_propagate_to_the_cached_components() {
    let session = Session::builder()
        .max_states(1234)
        .max_depth(77)
        .max_unfold(5)
        .auto_probe(false)
        .visible(["a", "b"])
        .build();
    assert_eq!(session.verifier().explore.max_states, 1234);
    assert!(!session.verifier().auto_probe);
    assert_eq!(
        session.verifier().visible,
        Some(vec!["a".into(), "b".into()])
    );
    assert_eq!(session.checker().max_depth, 77);
    assert_eq!(session.checker().max_unfold, 5);
    // The verifier's own checker shares the session's limits (one coherent
    // pipeline, not two differently-configured checkers).
    assert_eq!(session.verifier().checker().max_depth, 77);
    assert_eq!(session.verifier().checker().max_unfold, 5);
}

// ---------------------------------------------------------------------------
// Equivalence with the old per-call setup
// ---------------------------------------------------------------------------

#[test]
fn session_verify_matches_a_hand_configured_verifier() {
    let env = payment_env();
    let ty = payment_applied();
    let property = Property::non_usage(["self"]);

    let old = Verifier::new().verify(&env, &ty, &property).unwrap();
    let new = Session::new().verify(&env, &ty, &property).unwrap();
    assert_eq!(old.holds, new.holds);
    assert_eq!(old.states, new.states);
    assert_eq!(old.transitions, new.transitions);
}

#[test]
fn scenario_runs_honour_the_scenario_visible_list() {
    // The old way: a per-call verifier with the spec's visible channels.
    let spec = parse_spec(&payment::spec(2)).unwrap();
    let mut verifier = Verifier::with_max_states(50_000);
    verifier.visible = Some(spec.visible.clone());
    let old = verifier
        .verify_all(&spec.env, spec.ty.as_ref().unwrap(), &spec.checks)
        .unwrap();

    // The new way: the session applies the spec's visible list itself —
    // even when the session was built with an unrelated default.
    let session = Session::builder()
        .max_states(50_000)
        .visible(["unrelated"])
        .build();
    let report = session.run_spec(&spec);
    assert!(report.first_error().is_none());

    let old_verdicts: Vec<bool> = old.iter().map(|o| o.holds).collect();
    assert_eq!(old_verdicts, report.verdicts());
    assert_eq!(old[0].states, report.states());
}

#[test]
fn state_bound_errors_carry_bound_and_explored_counts() {
    let session = Session::builder().max_states(3).build();
    let report = session.run_spec_text(&payment::spec(2)).unwrap();
    match report.error {
        Some(Error::Verify(VerifyError::StateSpaceTooLarge { bound, explored })) => {
            assert_eq!(bound, 3);
            assert!(explored >= 3);
        }
        other => panic!("expected a state-space error, got {other:?}"),
    }
    assert!(!report.passed());
    assert_eq!(report.states(), 0, "no completed outcomes");
    let summary = report.summary();
    assert!(!summary.passed);
    assert!(summary.error.unwrap().contains("bound of 3"));
}

// ---------------------------------------------------------------------------
// Structured reports
// ---------------------------------------------------------------------------

#[test]
fn reports_expose_verdicts_sizes_and_a_machine_readable_summary() {
    let session = Session::builder().max_states(50_000).build();
    let report = session.run_spec_text(&pingpong::spec(2, true)).unwrap();

    assert_eq!(report.properties.len(), 6);
    assert!(report.states() > 1);
    assert!(report.transitions() > 0);
    assert!(report.total_duration() > std::time::Duration::ZERO);

    let summary = report.summary();
    assert_eq!(summary.states, report.states());
    assert_eq!(summary.verdicts.len(), 6);
    assert_eq!(summary.verdicts[0].0, "deadlock-free");

    // The summary line is stable key=value text a harness can grep.
    let line = summary.to_string();
    assert!(line.contains("passed="), "{line}");
    assert!(line.contains("states="), "{line}");
    assert!(line.contains("verdicts=deadlock-free:"), "{line}");

    // The human rendering mentions each property.
    let shown = report.to_string();
    assert!(shown.contains("deadlock"), "{shown}");
    assert!(shown.contains("responsive"), "{shown}");
}

#[test]
fn run_spec_text_covers_both_steps() {
    let report = Session::builder()
        .max_states(10_000)
        .build()
        .run_spec_text(
            r#"
            env unused : cio[int]
            type Pi(c: cio[int]) o[c, int, Pi() nil]
            term fun c: cio[int]. send(c, 42, fun _: (). end)
            "#,
        )
        .unwrap();
    assert!(matches!(report.typecheck, Some(Ok(()))));
    assert!(report.passed());

    // Malformed specifications surface as Error::Spec.
    let err = Session::new().run_spec_text("bogus statement").unwrap_err();
    assert!(matches!(err, Error::Spec(_)), "{err}");
}

// ---------------------------------------------------------------------------
// Wire rendering (the `effpi-serve` response body)
// ---------------------------------------------------------------------------

#[test]
fn wire_json_rendering_is_deterministic_and_carries_the_stable_line() {
    let session = Session::builder().max_states(50_000).build();
    let report = session.run_spec_text(&payment::spec(2)).unwrap();
    let wire = report.to_wire_json();

    // Deterministic rendering: rendering twice (and re-parsing) is stable.
    let text = wire.to_string();
    assert_eq!(text, report.to_wire_json().to_string());
    let parsed = Json::parse(&text).unwrap();
    assert_eq!(parsed, wire);

    // The envelope carries the summary verbatim.
    let summary = report.summary();
    assert_eq!(
        parsed.get("stable_line").and_then(Json::as_str),
        Some(summary.stable_line().as_str())
    );
    assert_eq!(
        parsed.get("passed").and_then(Json::as_bool),
        Some(summary.passed)
    );
    assert_eq!(
        parsed.get("states").and_then(Json::as_usize),
        Some(summary.states)
    );
    let properties = parsed.get("properties").and_then(Json::as_arr).unwrap();
    assert_eq!(properties.len(), 6);
    assert_eq!(
        properties[0].get("name").and_then(Json::as_str),
        Some("deadlock-free")
    );

    // Failures render structurally too: a state-bound trip carries the
    // run-level error and an empty property list.
    let tripped = Session::builder()
        .max_states(3)
        .build()
        .run_spec_text(&payment::spec(2))
        .unwrap();
    let wire = tripped.to_wire_json();
    assert_eq!(wire.get("passed").and_then(Json::as_bool), Some(false));
    assert!(wire
        .get("error")
        .and_then(Json::as_str)
        .is_some_and(|e| e.contains("bound of 3")));

    // And a typecheck failure is its own object.
    let bad_term = session
        .run_spec_text(
            "env unused : cio[int]\ntype Pi(c: cio[int]) o[c, int, Pi() nil]\nterm fun c: cio[int]. end",
        )
        .unwrap();
    let wire = bad_term.to_wire_json();
    let typecheck = wire.get("typecheck").unwrap();
    assert_eq!(typecheck.get("ok").and_then(Json::as_bool), Some(false));
    assert!(typecheck.get("error").and_then(Json::as_str).is_some());
}
