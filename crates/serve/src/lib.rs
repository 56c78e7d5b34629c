//! **effpi-serve** — a concurrent verification service in front of the
//! [`effpi::Session`] pipeline, with a content-addressed verdict cache.
//!
//! The paper's workflow (§5.1) runs one verification per compiler
//! invocation; this crate is the step beyond the one-shot CLI: a
//! long-running daemon that accepts `.effpi` spec texts over a
//! line-delimited JSON protocol (TCP and/or a Unix socket), multiplexes
//! concurrent clients over a fixed worker pool sharing the parallel
//! exploration engine, and memoises verdicts under the stable content
//! address of the *normalised* request (`effpi::fingerprint`) — so
//! semantically identical specs, however they are spelled, verify once.
//! An optional persistent second tier (the `store` crate's crash-safe
//! record log, enabled per-server via [`StoreTier`]) makes a restarted
//! daemon warm from its first request.
//!
//! | module | role |
//! |---|---|
//! | [`protocol`] | frame grammar: requests, responses, [`WireReport`] |
//! | [`cache`] | the bounded LRU [`VerdictCache`] |
//! | [`server`] | accept loops, worker pool, cancellation, shutdown |
//! | [`client`] | a blocking client library with deadline-aware retries |
//! | [`faults`] | seeded, deterministic fault injection for chaos drills |
//!
//! The full wire contract lives in `crates/serve/PROTOCOL.md`; the
//! `effpi-cli` binary (`crates/cli`) wraps both ends as the `serve` and
//! `client` subcommands.
//!
//! ```no_run
//! use serve::{Client, Endpoints, Server, ServerConfig, VerifyOptions};
//!
//! let handle = Server::start(
//!     &Endpoints { tcp: Some("127.0.0.1:0".into()), unix: None },
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let addr = handle.tcp_addr().unwrap().to_string();
//!
//! let mut client = Client::connect_tcp(&addr).unwrap();
//! let reply = client
//!     .verify(
//!         "env x : cio[int]\ntype i[x, Pi(v: int) nil]\ncheck deadlock_free [x]",
//!         VerifyOptions::default(),
//!     )
//!     .unwrap();
//! assert!(reply.report.passed);
//!
//! client.shutdown_server().unwrap();
//! handle.join();
//! ```
//!
//! Everything is `std` + the workspace's own crates — no external
//! dependencies, consistent with the offline build environment.

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

pub mod cache;
pub mod client;
pub mod faults;
pub mod protocol;
pub mod server;

pub use cache::{CacheConfig, CacheStats, VerdictCache};
pub use client::{Client, ClientError, Response, RetryPolicy, VerifyReply};
pub use faults::{FaultAction, FaultPlan, FaultPoint, FaultRule};
pub use protocol::{ErrorKind, MetricsFormat, Request, VerifyOptions, WireReport};
pub use server::{Endpoints, Server, ServerConfig, ServerHandle, StoreTier, STATS_SCHEMA};
