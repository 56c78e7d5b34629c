//! Higher-order interaction: sending and receiving *mobile code* (Ex. 3.4 and
//! Ex. 4.11 of the paper).
//!
//! A data-analysis server accepts custom filtering code from clients. The
//! behavioural type `Tm` constrains what the received code may do: it must
//! read one integer from each of its two input channels and forward one of
//! *those* values (nothing else) on its output channel, forever. The example
//! shows:
//!
//! * two legitimate filters (`m1`, `m2`) type-checking against `Tm`, and a
//!   forged filter (always outputs 42) being rejected;
//! * the model-checked guarantees that hold for *any* `Tm`-typed code;
//! * the whole system (server + client + producers) actually running under
//!   the λπ⩽ reduction semantics, with both filters.
//!
//! Run with: `cargo run --example mobile_code`

use effpi::protocols::mobile_code;
use effpi::{Reducer, Session, Term, Type};
use lambdapi::examples;

fn main() {
    println!("== The contract for mobile code: Tm ==");
    println!("{}", examples::tm_type());

    // ------------------------------------------------------------------
    // Type checking the mobile code (the server only accepts Tm-typed code).
    // ------------------------------------------------------------------
    let session = Session::builder().max_states(20_000).build();
    session
        .type_check_closed(&examples::m1_term(), &examples::tm_type())
        .map(|_| println!("\nm1 (forward first input)  : Tm ... ok"))
        .unwrap_or_else(|e| println!("\nm1: rejected ({e})"));
    session
        .type_check_closed(&examples::m2_term(), &examples::tm_type())
        .expect("m2 implements Tm");
    println!("m2 (forward the maximum)  : Tm ... ok");

    // A forged filter that ignores its inputs and always sends 42 does not
    // implement Tm: the payload type `int` is not a subtype of `x ∨ y`.
    let forged = forged_filter();
    assert!(session
        .type_check_closed(&forged, &examples::tm_type())
        .is_err());
    println!("forged (always send 42)   : Tm ... rejected");

    // ------------------------------------------------------------------
    // What the type alone guarantees (Ex. 4.11), for any code the server runs.
    // ------------------------------------------------------------------
    println!("\n== Model-checked guarantees for any Tm-typed code ==");
    let report = session
        .run_spec_text(&mobile_code::spec())
        .expect("the generated spec parses");
    assert!(report.first_error().is_none(), "verification must complete");
    print!("{report}");

    // ------------------------------------------------------------------
    // Running the full system under the λπ⩽ semantics.
    // ------------------------------------------------------------------
    println!("\n== Running the server with each filter (λπ⩽ reduction) ==");
    for (name, filter) in [("m1", examples::m1_term()), ("m2", examples::m2_term())] {
        let system = examples::mobile_code_system(filter);
        let result = Reducer::new().eval(&system, 5_000);
        println!(
            "  server + {name}: {} steps, safe = {}",
            result.steps,
            result.is_safe()
        );
        assert!(result.is_safe());
    }
}

/// A filter with the right shape but the wrong data flow: it always outputs a
/// constant instead of one of the received values.
fn forged_filter() -> Term {
    let body = Term::lam(
        "i1",
        Type::chan_in(Type::Int),
        Term::lam(
            "i2",
            Type::chan_in(Type::Int),
            Term::lam(
                "o",
                Type::chan_out(Type::Int),
                Term::recv(
                    Term::var("i1"),
                    Term::lam(
                        "x",
                        Type::Int,
                        Term::recv(
                            Term::var("i2"),
                            Term::lam(
                                "y",
                                Type::Int,
                                Term::send(
                                    Term::var("o"),
                                    Term::int(42),
                                    Term::thunk(Term::app_all(
                                        Term::var("forged"),
                                        [Term::var("i1"), Term::var("i2"), Term::var("o")],
                                    )),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    );
    Term::let_("forged", examples::tm_type(), body, Term::var("forged"))
}
