//! # lts — labelled transition semantics for λπ⩽ terms and types
//!
//! This crate implements the two labelled transition systems of §4 of
//! *"Verifying Message-Passing Programs with Dependent Behavioural Types"*
//! (PLDI 2019):
//!
//! * [`TermLts`] — the over-approximating semantics of *open typed terms*
//!   (Def. 4.1, Fig. 5), which lets a term with free channel variables fire
//!   visible input/output/synchronisation labels;
//! * [`TypeLts`] — the semantics of *types* (Def. 4.2, Fig. 6), whose
//!   transitions mimic the communications of every program inhabiting the
//!   type. This is the object that gets model-checked (`mucalc` crate).
//!
//! Both produce a generic explicit-state [`Lts`], plus helpers implementing
//! Def. 4.8 (input/output *uses* of a variable) and Def. 4.9 (the `↑Γ Y`
//! interface-limiting operator) needed by the Fig. 7 property templates.
//!
//! Both are built by the one exploration engine of [`mod@explore`]: a serial
//! and a parallel driver, run as an [`ExploreConfig`] says. The [`explore()`]
//! function offers the same engine to any hashable state type; the two
//! builders, whose states are interner references, run it on a ~1 bit/state
//! bitmap seen-set instead of a hash table (the private `memory` module,
//! which also holds the disk-spilling frontier behind
//! [`ExploreConfig::memory_budget`]). Which structures a run uses follows
//! from the state type and the config — [`mod@explore`] states the rule —
//! and is never observable in a complete run's result.
//!
//! ## Example: the ping-pong type of Ex. 4.3
//!
//! ```
//! use dbt_types::TypeEnv;
//! use lambdapi::{examples, Type};
//! use lts::TypeLts;
//!
//! let env = TypeEnv::new()
//!     .bind("y", Type::chan_io(Type::Str))
//!     .bind("z", Type::chan_io(Type::chan_out(Type::Str)));
//! let ty = examples::tpp_type()
//!     .apply_all(&[Type::var("y"), Type::var("z")])
//!     .unwrap();
//! let lts = TypeLts::new(env).build(&ty, 1_000);
//! assert!(lts.num_states() > 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
mod generic;
mod label;
mod memory;
mod product;
mod term_lts;
mod type_lts;

pub use explore::{explore, CancelToken, Exploration, ExploreConfig, ExploreStats, ExploreStatus};
pub use generic::Lts;
pub use label::{TermLabel, TypeLabel};
pub use term_lts::TermLts;
pub use type_lts::{
    is_imprecise_comm, is_input_use, is_output_use, restrict_to_interfaces, CandidatePolicy,
    TypeLts, DEFAULT_MAX_STATES,
};
