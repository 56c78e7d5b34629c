//! The paper's motivating example (§1, Fig. 1): a payment service that must
//! audit every accepted payment.
//!
//! This example walks through the full workflow:
//!
//! 1. the behavioural type (the specification) and two implementations — a
//!    correct one and one with the "forgot to audit" bug — are type-checked,
//!    catching the bug at "compile time";
//! 2. the specification, composed with an auditor and clients, is
//!    model-checked for the Fig. 7 properties;
//! 3. the correct service is executed as actors on the Effpi-style runtime.
//!
//! Run with: `cargo run --example payment_audit`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use effpi::protocols::payment;
use effpi::{forever, new_actor, ActorRef, EffpiRuntime, Msg, Policy, Proc, Scheduler, Session};
use lambdapi::examples;

fn main() {
    // One configured Session drives both verification steps.
    let session = Session::builder().max_states(100_000).build();
    step1_typecheck(&session);
    step2_model_check(&session);
    step3_run();
}

/// Step 1: protocol conformance by type checking.
fn step1_typecheck(session: &Session) {
    println!("== Step 1: type-checking implementations against the specification ==");

    // The audited payment service of Fig. 1 implements its specification.
    session
        .type_check_closed(&examples::payment_term(), &examples::tpayment_type())
        .expect("the audited service implements the audited specification");
    println!("payment_term : Tpayment           ... ok");

    // The buggy behaviour (answer "Accepted" without auditing) is captured by
    // the *unaudited* specification — and that specification does not refine
    // the audited one, so any implementation with the §1 bug is rejected when
    // checked against the audited spec.
    let env = effpi::TypeEnv::new();
    assert!(!session.checker().is_subtype(
        &env,
        &examples::tpayment_unaudited_type(),
        &examples::tpayment_type()
    ));
    println!("unaudited behaviour vs audited spec ... rejected (as it should be)");
}

/// Step 2: verify the composed protocol (service + auditor + clients), the
/// "Pay & audit + 3 clients" row of Fig. 9 as `.effpi` text.
fn step2_model_check(session: &Session) {
    println!("\n== Step 2: type-level model checking of the composed protocol ==");
    let text = payment::spec(3);
    print!("{text}");
    let report = session
        .run_spec_text(&text)
        .expect("the generated spec parses");
    print!("{report}");
    assert!(report.first_error().is_none(), "verification must complete");
    let verdicts = report.verdicts();
    // The service answers every client...
    assert!(verdicts[5], "responsiveness must hold");
    // ...but rejected payments are (correctly) not forwarded to the auditor,
    // so the unconditional forwarding property fails.
    assert!(!verdicts[2]);
    println!("  {}", report.summary());
}

/// Step 3: run the payment service as actors.
fn step3_run() {
    println!("\n== Step 3: running the service on the Effpi-style runtime ==");
    let audited = Arc::new(AtomicU64::new(0));
    let accepted = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));

    let (service_ref, service_mb) = new_actor();
    let (auditor_ref, auditor_mb) = new_actor();

    // The auditor: count audit notifications forever (stop on Unit).
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

    // The payment service of Fig. 1: reject amounts above 42000, otherwise
    // audit then accept.
    let service = {
        let auditor_ref = auditor_ref.clone();
        forever(service_mb, move |msg, again| match msg {
            Msg::Pair(amount, reply_to) => {
                let amount = amount.as_int().unwrap_or(0);
                let reply = ActorRef::from_channel(reply_to.as_chan().expect("reply channel"));
                if amount > 42_000 {
                    reply.tell(Msg::Str("Rejected: too high!"), again)
                } else {
                    let auditor_ref = auditor_ref.clone();
                    auditor_ref.tell(Msg::Int(amount), move || {
                        reply.tell(Msg::Str("Accepted"), again)
                    })
                }
            }
            _ => auditor_ref.tell_end(Msg::Unit), // shut the auditor down too
        })
    };

    // Ten clients, half of them over the limit.
    let mut procs = vec![service, auditor];
    let amounts: Vec<i64> = (1..=10)
        .map(|i| if i % 2 == 0 { 100_000 } else { i * 1000 })
        .collect();
    let done = Arc::new(AtomicU64::new(0));
    let n_clients = amounts.len() as u64;
    for amount in amounts {
        let (client_ref, client_mb) = new_actor();
        let accepted = Arc::clone(&accepted);
        let rejected = Arc::clone(&rejected);
        let done = Arc::clone(&done);
        let service_ref = service_ref.clone();
        let stop_ref = service_ref.clone();
        procs.push(service_ref.tell(
            Msg::pair(Msg::Int(amount), Msg::Chan(client_ref.channel())),
            move || {
                client_mb.read(move |reply| {
                    match reply {
                        Msg::Str("Accepted") => accepted.fetch_add(1, Ordering::SeqCst),
                        _ => rejected.fetch_add(1, Ordering::SeqCst),
                    };
                    // The last client to finish shuts the service down.
                    if done.fetch_add(1, Ordering::SeqCst) + 1 == n_clients {
                        stop_ref.tell_end(Msg::Unit)
                    } else {
                        Proc::End
                    }
                })
            },
        ));
    }

    let stats = EffpiRuntime::new(Policy::Default).run(procs);
    println!(
        "  accepted: {}, rejected: {}, audited: {}",
        accepted.load(Ordering::SeqCst),
        rejected.load(Ordering::SeqCst),
        audited.load(Ordering::SeqCst)
    );
    println!(
        "  runtime: {} processes, {} messages, {:?}",
        stats.processes_spawned, stats.messages_sent, stats.duration
    );
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        audited.load(Ordering::SeqCst),
        "every accepted payment was audited"
    );
}
