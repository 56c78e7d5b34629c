//! Shared infrastructure for the benchmark harness: the table generators
//! behind the `fig8` and `fig9` binaries and the [`harness`]-timed benches.
//!
//! * [`fig8`] — the runtime benchmarks of the paper's Figure 8: the seven
//!   Savina-derived workloads, measured on the two Effpi-style schedulers and
//!   on the thread-per-process baseline, at growing sizes, reporting both
//!   wall-clock time and the memory-pressure proxy.
//! * [`fig9`] — the model-checking benchmarks of Figure 9: the protocol
//!   scenarios of `effpi::protocols`, with state counts, per-property verdicts
//!   and verification times, and a comparison against the verdicts reported in
//!   the paper.
//! * [`gate`] — the CI benchmark gate: per-case JSON records of the fig9
//!   smoke run and the regression comparison against the checked-in
//!   `baseline.json` (throughput floors plus determinism drift).
//! * [`intern_bench`] — the hash-consing microbenchmark: memoized
//!   canonicalisation and warm LTS-rebuild throughput over the Fig. 9
//!   corpus (`BENCH_intern.json`), gated against
//!   `crates/bench/intern_baseline.json`.
//! * [`term_bench`] — the open-term (Fig. 5) exploration benchmark: `TermLts`
//!   throughput over the conformance corpus, warm vs cold
//!   (`BENCH_term.json`), gated against `crates/bench/term_baseline.json`.
//! * [`obs_bench`] — the telemetry microbenchmark: per-operation cost of the
//!   `obs` primitives (counter/gauge/histogram/span), self-gated by absolute
//!   ceilings (`BENCH_obs.json`).
//! * [`directed`] — the directed-search benchmark: a seeded safety violation
//!   deep in a BFS-hostile state space, hunted under every exploration
//!   strategy (`BENCH_directed.json`); self-gated — the guided beam must find
//!   it in at most a tenth of BFS's states.
//! * [`big`] — the out-of-core exploration benchmark: scaled ping-pong and
//!   token-ring scenarios verified with and without an exploration memory
//!   budget (`BENCH_big.json`); self-gated — the budgeted legs must spill
//!   frontier segments to disk *and* stay byte-identical to the unbudgeted
//!   runs.
//! * [`serve_load`] — the concurrent-load scenario for the `effpi-serve`
//!   verification service: N clients × M specs against an in-process server,
//!   reporting requests/sec and the verdict-cache hit rate
//!   (`BENCH_serve.json`).
//!
//! The artifacts are written and read with the shared [`wire`] crate's JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod big;
pub mod directed;
pub mod fig8;
pub mod fig9;
pub mod gate;
pub mod harness;
pub mod intern_bench;
pub mod obs_bench;
pub mod serve_load;
pub mod term_bench;

pub use wire::flags;
