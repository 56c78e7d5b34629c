//! Dining philosophers: detecting a deadlock at the type level before ever
//! running the system (§6's locking/mutex protocols, measured in Fig. 9).
//!
//! Two table layouts are verified: one where every philosopher grabs the left
//! fork first (a circular wait — and thus a deadlock — is reachable), and one
//! where the last philosopher is left-handed (deadlock-free). The deadlocking
//! layout is rejected purely by inspecting the composed behavioural type; no
//! execution, testing or instrumentation is involved.
//!
//! Run with: `cargo run --example dining_philosophers [num_philosophers]`

use effpi::protocols::dining;
use effpi::Session;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    println!("verifying dining-philosophers layouts with {n} seats\n");
    // One session, reused for both layouts.
    let session = Session::builder().max_states(200_000).build();
    for allow_deadlock in [true, false] {
        let layout = if allow_deadlock {
            "every philosopher grabs the left fork first"
        } else {
            "one philosopher is left-handed"
        };
        println!("-- {n} seats, {layout} --");
        let report = match session.run_spec_text(&dining::spec(n, allow_deadlock)) {
            Ok(report) => report,
            Err(e) => {
                println!("   {e} (the table needs at least two seats)\n");
                continue;
            }
        };
        match &report.error {
            None => {
                for p in &report.properties {
                    match &p.result {
                        Ok(o) => println!("   {o}"),
                        Err(e) => println!("   {e}"),
                    }
                }
                let deadlock_free = report.verdicts()[0];
                if allow_deadlock {
                    assert!(
                        !deadlock_free,
                        "the grab-left layout must be able to deadlock"
                    );
                    println!("   => deadlock detected at the type level\n");
                } else {
                    assert!(deadlock_free, "the left-handed layout must be safe");
                    println!("   => no deadlock possible; safe to deploy\n");
                }
            }
            Some(e) => {
                println!("   verification did not complete: {e}");
                println!(
                    "   (try a smaller table, e.g. `cargo run --example dining_philosophers 4`)\n"
                );
            }
        }
    }
}
