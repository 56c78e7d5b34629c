//! **obs** — the dependency-free base of the effpi workspace: telemetry,
//! plus the shared lock, hash and PRNG primitives ([`sync`], [`hash`]) that
//! every threaded or persisting crate above would otherwise copy.
//!
//! The ROADMAP's north star is a daemon that runs for months under heavy
//! traffic; the telemetry is the instrument panel it reads its own behaviour
//! from. Three layers, all zero-dependency and `O(1)` on the hot path:
//!
//! * **Metrics** ([`Registry`]): process-wide named [`Counter`]s, [`Gauge`]s
//!   and fixed-bucket latency [`Histogram`]s. Handle *registration* goes
//!   through a lock-sharded name table; *recording* is a single atomic
//!   operation on a pre-resolved handle — safe to call from the exploration
//!   hot loop. A point-in-time [`Snapshot`] renders deterministically to
//!   wire-compatible JSON ([`Snapshot::to_json_text`]) and to a
//!   Prometheus-style text exposition ([`Snapshot::to_prometheus_text`]).
//!
//! * **Spans** ([`span`]): RAII phase timers. `let _s = obs::span("explore");`
//!   records the elapsed time into the `span_explore_us` histogram on drop,
//!   feeds any active per-request [`phases`] collector, and — when a trace
//!   sink is installed ([`Registry::set_trace`]) — emits one structured JSONL
//!   event with parent/child nesting (spans know their enclosing span).
//!
//! * **Phases** ([`phases::collect`]): a thread-local per-request collector.
//!   Wrap a request in `phases::collect(|| …)` and every span closed on that
//!   thread inside the closure is aggregated into a [`phases::Phases`]
//!   breakdown — the `--profile` table and the serve per-request log line.
//!
//! Time comes from an injectable [`Clock`] so tests pin byte-exact golden
//! renderings: the default [`MonotonicClock`] counts microseconds from
//! registry creation, and [`TestClock`] is advanced by hand.
//!
//! ```
//! use std::sync::Arc;
//!
//! let clock = Arc::new(obs::TestClock::new());
//! let registry: &'static obs::Registry =
//!     Box::leak(Box::new(obs::Registry::with_clock(clock.clone())));
//!
//! registry.counter("requests_total").inc();
//! {
//!     let _span = registry.span("parse");
//!     clock.advance_us(120);
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["requests_total"], 1);
//! assert_eq!(snapshot.histograms["span_parse_us"].sum, 120);
//! assert!(snapshot.to_prometheus_text().contains("effpi_requests_total 1"));
//! ```
//!
//! Everything in the workspace records into one [`global`] registry by
//! default; tests that need isolation build (and leak) their own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
mod registry;
mod span;
pub mod sync;

pub use registry::{
    Clock, Counter, FlushGuard, Gauge, Histogram, HistogramSnapshot, MonotonicClock, Registry,
    Snapshot, TestClock, DEFAULT_LATENCY_BUCKETS_US,
};
pub use span::{phases, Span};

use std::sync::OnceLock;

/// The process-wide registry every production call site records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Opens an RAII span on the [`global`] registry: on drop, the elapsed time
/// lands in the `span_<name>_us` histogram, the active [`phases`] collector
/// (if any), and the trace sink (if one is installed).
pub fn span(name: &'static str) -> Span {
    global().span(name)
}
