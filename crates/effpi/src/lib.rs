//! # effpi — dependent behavioural types for message-passing programs
//!
//! This crate is the front door of the repository: a Rust reproduction of
//! **Effpi**, the toolkit of *"Verifying Message-Passing Programs with
//! Dependent Behavioural Types"* (Scalas, Yoshida, Benussi — PLDI 2019).
//! It ties together the four layers built in the sibling crates and adds the
//! protocol library used by the paper's examples and evaluation:
//!
//! | layer | crate | paper section |
//! |---|---|---|
//! | λπ⩽ calculus (terms, reduction) | [`lambdapi`] | §2 |
//! | dependent behavioural type system | [`dbt_types`] | §3 |
//! | term/type transition semantics | [`lts`] | §4 (Defs. 4.1, 4.2) |
//! | type-level model checking | [`mucalc`] | §4 (Fig. 7, Thm. 4.10) |
//! | Effpi-style runtime + Savina workloads | [`runtime`] | §5 |
//! | protocol library & the Fig. 9 table | [`protocols`] | §1, §5.2 |
//!
//! ## The two-step method, in code
//!
//! Everything routes through a [`Session`] — the counterpart of the paper's
//! `@effpi.verifier.verify` compiler plugin. Configure it once with
//! [`Session::builder`], then feed it programs, types or `.effpi`
//! specifications ([`spec`]).
//!
//! **Step 1 — enforce the protocol at compile time.** A program (a λπ⩽ term)
//! is checked against a behavioural type with [`Session::type_check_closed`]:
//!
//! ```
//! use effpi::Session;
//! use lambdapi::examples;
//!
//! let session = Session::new();
//! // The Fig. 1 payment service implements its audited specification...
//! session
//!     .type_check_closed(&examples::payment_term(), &examples::tpayment_type())
//!     .unwrap();
//! // ...but not vice versa: the unaudited spec is not enough to conclude the
//! // audited behaviour.
//! assert!(session
//!     .type_check_closed(&examples::payment_term(), &examples::tm_type())
//!     .is_err());
//! ```
//!
//! **Step 2 — verify safety/liveness of the protocol itself** (and hence, by
//! Thm. 4.10, of every program implementing it) with [`Session::verify`] on a
//! type, or [`Session::run_spec_text`] on a whole `.effpi` specification —
//! the form every Fig. 9 row of [`protocols`] is generated in:
//!
//! ```
//! use effpi::protocols::payment;
//! use effpi::Session;
//!
//! let session = Session::builder().max_states(50_000).build();
//! // The "Pay & audit + 2 clients" row: the composed protocol and its six
//! // Fig. 9 checks, as spec text.
//! let report = session.run_spec_text(&payment::spec(2)).unwrap();
//! assert!(report.first_error().is_none());
//! assert!(report.verdicts()[0], "deadlock-free");
//! assert!(report.verdicts()[5], "every payment request gets an answer");
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod protocols;
pub mod session;
pub mod spec;

pub use dbt_types::{checker_stats, Checker, CheckerStats, TypeEnv, TypeError, TypeResult};
pub use lambdapi::intern::{stats as intern_stats, InternStats};
pub use lambdapi::{
    BaseRule, EvalResult, Name, Reducer, Term, TermId, TermRef, TyRef, Type, TypeId, Value,
};
pub use lts::{CancelToken, ExploreConfig, TermLabel, TermLts, TypeLabel, TypeLts};
pub use mucalc::{
    Formula, LabelSet, Property, Trace, TraceStep, VerificationOutcome, Verifier, VerifyError,
};
pub use runtime::{
    forever, new_actor, ActorRef, ChanRef, EffpiRuntime, Mailbox, Msg, Policy, Proc, RunStats,
    Scheduler, ThreadRuntime,
};

pub use fingerprint::CacheKey;
pub use session::{
    Error, PropertyReport, Report, ReportSummary, Session, SessionBuilder, SessionConfig, Strategy,
};

#[cfg(test)]
mod tests {
    use super::*;
    use lambdapi::examples;

    #[test]
    fn session_accepts_the_papers_examples() {
        let session = Session::new();
        session
            .type_check_closed(&examples::pinger_term(), &examples::tping_type())
            .unwrap();
        session
            .type_check_closed(&examples::ponger_term(), &examples::tpong_type())
            .unwrap();
        session
            .type_check_closed(&examples::m2_term(), &examples::tm_type())
            .unwrap();
    }

    #[test]
    fn session_rejects_protocol_violations() {
        // A pinger that forgets to wait for the reply does not implement Tping.
        let lazy_pinger = Term::lam(
            "self",
            Type::chan_io(Type::Str),
            Term::lam(
                "pongc",
                Type::chan_out(Type::chan_out(Type::Str)),
                Term::send(
                    Term::var("pongc"),
                    Term::var("self"),
                    Term::thunk(Term::End),
                ),
            ),
        );
        let err = Session::new()
            .type_check_closed(&lazy_pinger, &examples::tping_type())
            .unwrap_err();
        assert!(matches!(err, Error::Type(_)), "{err}");
    }

    #[test]
    fn session_decides_properties_of_open_protocol_types() {
        let session = Session::new();
        let env = TypeEnv::new().bind("z", Type::chan_io(Type::chan_out(Type::Str)));
        let ty = examples::tpong_type().apply(&Type::var("z")).unwrap();
        let outcome = session
            .verify(&env, &ty, &Property::responsive("z"))
            .unwrap();
        assert!(outcome.holds);
        let non_usage = session
            .verify(&env, &ty, &Property::non_usage(["z"]))
            .unwrap();
        assert!(
            non_usage.holds,
            "the ponger never writes on its own mailbox"
        );
    }
}
