//! End-to-end integration tests: specification → type checking → type-level
//! model checking → execution, across all crates, on the paper's use cases.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use effpi::protocols::{dining, payment, pingpong, ring};
use effpi::{
    forever, new_actor, ActorRef, EffpiRuntime, Msg, Policy, Proc, Property, Reducer, Scheduler,
    Session, ThreadRuntime,
};
use lambdapi::examples;

/// The full §1 story: the audited implementation type-checks, the composed
/// protocol is responsive and deadlock-free, and an actor implementation run
/// on the Effpi-style runtime audits exactly the accepted payments.
#[test]
fn payment_with_audit_full_pipeline() {
    let session = Session::builder().max_states(50_000).build();

    // Step 1: typing.
    session
        .type_check_closed(&examples::payment_term(), &examples::tpayment_type())
        .expect("typing");

    // Step 2: type-level model checking of the composed protocol's Fig. 9 row.
    let report = session.run_spec_text(&payment::spec(2)).unwrap();
    assert!(report.first_error().is_none(), "verification completes");
    let verdicts = report.verdicts();
    assert!(verdicts[0], "deadlock-free");
    assert!(verdicts[5], "responsive");

    // Step 3: execution (a miniature version of the payment_audit example).
    let audited = Arc::new(AtomicU64::new(0));
    let accepted = Arc::new(AtomicU64::new(0));
    let (service_ref, service_mb) = new_actor();
    let (auditor_ref, auditor_mb) = new_actor();
    let auditor = {
        let audited = Arc::clone(&audited);
        forever(auditor_mb, move |msg, again| match msg {
            Msg::Int(_) => {
                audited.fetch_add(1, Ordering::SeqCst);
                again()
            }
            _ => Proc::End,
        })
    };
    let service = {
        let auditor_ref = auditor_ref.clone();
        forever(service_mb, move |msg, again| match msg {
            Msg::Pair(amount, reply_to) => {
                let amount = amount.as_int().unwrap_or(0);
                let reply = ActorRef::from_channel(reply_to.as_chan().expect("chan"));
                if amount > 42_000 {
                    reply.tell(Msg::Str("Rejected"), again)
                } else {
                    let auditor_ref = auditor_ref.clone();
                    auditor_ref.tell(Msg::Int(amount), move || {
                        reply.tell(Msg::Str("Accepted"), again)
                    })
                }
            }
            _ => auditor_ref.tell_end(Msg::Unit),
        })
    };
    let amounts = [1_000i64, 50_000, 2_000, 99_999, 3_000];
    let done = Arc::new(AtomicU64::new(0));
    let mut procs = vec![service, auditor];
    for amount in amounts {
        let (client_ref, client_mb) = new_actor();
        let accepted = Arc::clone(&accepted);
        let done = Arc::clone(&done);
        let stop_ref = service_ref.clone();
        procs.push(service_ref.tell(
            Msg::pair(Msg::Int(amount), Msg::Chan(client_ref.channel())),
            move || {
                client_mb.read(move |reply| {
                    if matches!(reply, Msg::Str("Accepted")) {
                        accepted.fetch_add(1, Ordering::SeqCst);
                    }
                    if done.fetch_add(1, Ordering::SeqCst) + 1 == amounts.len() as u64 {
                        stop_ref.tell_end(Msg::Unit)
                    } else {
                        Proc::End
                    }
                })
            },
        ));
    }
    EffpiRuntime::with_workers(Policy::ChannelFsm, 4).run(procs);
    assert_eq!(accepted.load(Ordering::SeqCst), 3);
    assert_eq!(
        audited.load(Ordering::SeqCst),
        3,
        "every accepted payment audited"
    );
}

/// The Ex. 2.2 ping-pong story across all layers: typing, verification of the
/// composed protocol, and reduction of the closed term to `end`.
#[test]
fn ping_pong_full_pipeline() {
    let session = Session::builder().max_states(50_000).build();
    session
        .type_check_closed(&examples::pinger_term(), &examples::tping_type())
        .expect("pinger typing");
    session
        .type_check_closed(&examples::ponger_term(), &examples::tpong_type())
        .expect("ponger typing");

    let plain = session.run_spec_text(&pingpong::spec(2, false)).unwrap();
    let responsive = session.run_spec_text(&pingpong::spec(2, true)).unwrap();
    assert!(plain.first_error().is_none() && responsive.first_error().is_none());
    assert!(plain.verdicts()[0], "plain pairs are deadlock-free");
    let resp_verdicts = responsive.verdicts();
    assert!(resp_verdicts[0] && resp_verdicts[5]);

    let result = Reducer::new().eval(&examples::ping_pong_main(), 1_000);
    assert!(result.is_safe());
    assert!(result.normal_form);
}

/// Verification catches the deadlocking dining-philosophers layout while
/// accepting the fixed one — at three different table sizes.
#[test]
fn dining_philosophers_deadlock_detection_scales() {
    let session = Session::builder().max_states(150_000).build();
    for n in [2, 3] {
        let bad = session.run_spec_text(&dining::spec(n, true)).unwrap();
        let good = session.run_spec_text(&dining::spec(n, false)).unwrap();
        assert!(bad.first_error().is_none() && good.first_error().is_none());
        assert!(
            !bad.verdicts()[0],
            "{n} philosophers grabbing left-first can deadlock"
        );
        assert!(
            good.verdicts()[0],
            "{n} philosophers with one left-handed cannot deadlock"
        );
    }
}

/// Ring rows: deadlock-free for one or several tokens, and the state
/// space grows monotonically in both ring size and token count.
#[test]
fn ring_scenarios_verify_and_scale() {
    let session = Session::builder().max_states(100_000).build();
    let mut last_states = 0;
    for (members, tokens) in [(3, 1), (4, 1), (4, 2)] {
        let report = session.run_spec_text(&ring::spec(members, tokens)).unwrap();
        assert!(
            report.first_error().is_none(),
            "ring({members},{tokens}) verification"
        );
        assert!(
            report.verdicts()[0],
            "ring({members},{tokens}) deadlock-free"
        );
        assert!(report.states() >= last_states);
        last_states = report.states();
    }
}

/// The two Effpi schedulers and the thread baseline agree on the Savina
/// workloads' observable results (the built-in validations), at small sizes.
#[test]
fn schedulers_agree_on_savina_results() {
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(EffpiRuntime::with_workers(Policy::Default, 4)),
        Box::new(EffpiRuntime::with_workers(Policy::ChannelFsm, 4)),
        Box::new(ThreadRuntime::with_small_stacks()),
    ];
    for s in &schedulers {
        runtime::savina::counting(300)
            .run_on(s.as_ref())
            .expect("counting");
        runtime::savina::ring(8, 64)
            .run_on(s.as_ref())
            .expect("ring");
        runtime::savina::ping_pong(8, 8)
            .run_on(s.as_ref())
            .expect("ping-pong");
    }
}

/// Negative end-to-end test: a protocol that is well-typed but violates a
/// liveness property is flagged by verification, not by typing.
#[test]
fn typing_alone_does_not_catch_liveness_violations() {
    // The §1 auditor that handles only one audit: In[Audit, (a) => End].
    let one_shot_auditor = lambdapi::Type::inp(
        lambdapi::Type::var("aud"),
        lambdapi::Type::pi("a", lambdapi::Type::Unit, lambdapi::Type::Nil),
    );
    let env = effpi::TypeEnv::new().bind("aud", lambdapi::Type::chan_io(lambdapi::Type::Unit));
    let session = Session::new();
    // It is a perfectly valid behavioural type...
    session
        .checker()
        .check_pi_type(&env, &one_shot_auditor)
        .expect("valid π-type");
    // ...but it is not reactive on its mailbox: after one audit it stops.
    let outcome = session
        .verify(&env, &one_shot_auditor, &Property::reactive("aud"))
        .unwrap();
    assert!(!outcome.holds);
}
