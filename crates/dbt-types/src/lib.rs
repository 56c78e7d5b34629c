//! # dbt-types — the dependent behavioural type system of λπ⩽
//!
//! This crate implements the *static semantics* of the λπ⩽ calculus (§3 of
//! *"Verifying Message-Passing Programs with Dependent Behavioural Types"*,
//! PLDI 2019): the judgements of Fig. 4.
//!
//! * [`TypeEnv`] — typing environments Γ;
//! * [`Checker::check_env`], [`Checker::check_type`], [`Checker::check_pi_type`]
//!   — the validity judgements `⊢ Γ env`, `Γ ⊢ T type`, `Γ ⊢ T π-type`;
//! * [`Checker::is_subtype`] — coinductive subtyping `Γ ⊢ T ⩽ U`;
//! * [`Checker::might_interact`] — the `Γ ⊢ S ▷◁ T` relation of Def. 4.2,
//!   used by the type-level semantics;
//! * [`Checker::type_of`] / [`Checker::check_term`] — the typing judgement
//!   `Γ ⊢ t : T`.
//!
//! The crate is deliberately independent from the verification machinery: it
//! only answers "does this program implement this protocol?", which is Step 1
//! of the paper's method. Step 2 (model checking safety/liveness of the
//! protocol itself) lives in the `lts` and `mucalc` crates.
//!
//! ## Example: type-checking the audited payment service
//!
//! ```
//! use dbt_types::{Checker, TypeEnv};
//! use lambdapi::examples;
//!
//! let checker = Checker::new();
//! let env = TypeEnv::new();
//! checker
//!     .check_term(&env, &examples::payment_term(), &examples::tpayment_type())
//!     .expect("the payment service implements its specification");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod env;
mod error;
mod subtype;
mod typing;
mod validity;

pub use cache::{stats as checker_stats, CheckerStats};
pub use env::TypeEnv;
pub use error::{TypeError, TypeResult};
pub use subtype::ChanCap;
pub use validity::TypeKind;

/// The checker for all judgements of the λπ⩽ type system.
///
/// A `Checker` is cheap to construct; the two knobs bound the work done on
/// (possibly ill-formed or adversarial) inputs:
///
/// * `max_depth` — maximum derivation depth explored before giving up
///   (conservatively answering "no" for subtyping, or reporting an error for
///   validity/typing);
/// * `max_unfold` — how many consecutive `µ` unfoldings are performed when
///   normalising the head of a type.
///
/// Every checker owns an id-keyed **derivation cache** (see
/// [`checker_stats`]): `is_subtype`, `might_interact` and `type_of` memoize
/// their results per *(limits, environment, interned ids)* key, so the LTS
/// hot paths — which repeat the same queries for every communication-rule
/// match and candidate probe — pay for each derivation once. Clones share
/// the cache; the limit knobs are part of every key, so mutating them never
/// replays stale entries.
#[derive(Clone, Debug)]
pub struct Checker {
    /// Maximum derivation depth.
    pub max_depth: usize,
    /// Maximum consecutive head unfoldings of recursive types.
    pub max_unfold: usize,
    /// The shared derivation cache (see the type-level docs).
    cache: std::sync::Arc<cache::DerivationCache>,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            max_depth: 256,
            max_unfold: 16,
            cache: Default::default(),
        }
    }
}

impl Checker {
    /// Creates a checker with default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a checker with custom limits (and a fresh derivation cache).
    pub fn with_limits(max_depth: usize, max_unfold: usize) -> Self {
        Checker {
            max_depth,
            max_unfold,
            cache: Default::default(),
        }
    }
}
