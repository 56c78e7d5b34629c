//! Deterministic fault injection for the serve stack.
//!
//! A [`FaultPlan`] is a *seeded, timing-independent* schedule of failures at
//! the four places the daemon touches something that can break in
//! production: reading the persistent store, writing it, writing a response
//! to a socket, and the worker boundary around a verification itself. The
//! plan lives in `ServerConfig` (an empty plan — the default — injects
//! nothing and costs one `Vec::is_empty` check per site), so parallel test
//! servers in one process never contaminate each other through global state.
//!
//! Determinism is the whole point: whether the *n*-th pass through a point
//! fires is a pure function of `(seed, point, n)` — a hash, not a clock or
//! a random source — so a chaos test can **predict** the exact fault
//! pattern with [`FaultPlan::decide`] and assert per-request outcomes, and
//! a failing seed replays identically under a debugger. This extends the
//! discipline of the store crate's byte-level recovery fuzz (every
//! truncation, every bit flip, exhaustively) from one file format to the
//! whole request path.
//!
//! What each action means is decided by the injection *site* (see
//! `server.rs`): `Error` degrades the operation the way a real I/O failure
//! would, `Delay` sleeps before it, `Panic` panics — exercising the
//! worker's `catch_unwind` isolation. Injection decisions are made **while
//! no lock is held**, so an injected panic can never poison a mutex that
//! outlives it.

use std::fmt;

use obs::hash::splitmix64;

/// Where in the request path a fault fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultPoint {
    /// Probing the persistent tier for a verdict.
    StoreRead,
    /// Writing a cold verdict through to the persistent tier.
    StoreWrite,
    /// Writing a response frame to a client socket.
    SocketWrite,
    /// The worker boundary, just before a *cold* verification runs. The
    /// point sits below both cache probes, so a request answered from the
    /// LRU or the disk tier never passes through it (and never advances its
    /// pass counter) — it models the engine failing, and hits run no engine.
    Worker,
}

impl FaultPoint {
    /// A stable per-point tag mixed into the selection hash, so two points
    /// under one seed fire on different passes.
    fn tag(self) -> u64 {
        match self {
            FaultPoint::StoreRead => 0x5354_4f52_4552_4421, // "STORERD!"
            FaultPoint::StoreWrite => 0x5354_4f52_4557_5221, // "STOREWR!"
            FaultPoint::SocketWrite => 0x534f_434b_5745_5221, // "SOCKWER!"
            FaultPoint::Worker => 0x574f_524b_4552_2121,    // "WORKER!!"
        }
    }

    /// The wire/debug spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultPoint::StoreRead => "store-read",
            FaultPoint::StoreWrite => "store-write",
            FaultPoint::SocketWrite => "socket-write",
            FaultPoint::Worker => "worker",
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happens when a fault fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// The operation fails the way a real I/O error would (the site
    /// degrades exactly as it does for genuine failures).
    Error,
    /// The operation is delayed by `ms` milliseconds first.
    Delay {
        /// The stall, milliseconds.
        ms: u64,
    },
    /// The thread panics (at the `SocketWrite` point this is downgraded to
    /// [`FaultAction::Error`] — a send runs on reader *and* worker threads,
    /// and only workers carry panic isolation).
    Panic,
}

/// One scheduled failure mode at one point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultRule {
    /// Where it fires.
    pub point: FaultPoint,
    /// What it does.
    pub action: FaultAction,
    /// Fires on roughly one in `one_in` passes through the point, selected
    /// by the seeded hash (`0` and `1` both mean *every* pass).
    pub one_in: u64,
}

/// A seeded, deterministic fault schedule (empty by default: no injection).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// The seed every firing decision hashes in.
    pub seed: u64,
    /// The scheduled failure modes; the first matching rule per point wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan firing `action` at `point` on one in `one_in` passes.
    pub fn single(seed: u64, point: FaultPoint, action: FaultAction, one_in: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: vec![FaultRule {
                point,
                action,
                one_in,
            }],
        }
    }

    /// Whether the plan injects nothing (the hot-path fast check).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Whether (and how) the `n`-th pass through `point` fails — a pure
    /// function of `(seed, point, n)`, so tests predict the exact pattern
    /// the server will execute.
    pub fn decide(&self, point: FaultPoint, n: u64) -> Option<FaultAction> {
        self.rules.iter().find_map(|rule| {
            if rule.point != point {
                return None;
            }
            let fires = rule.one_in <= 1
                || splitmix64(self.seed ^ point.tag() ^ n).is_multiple_of(rule.one_in);
            fires.then_some(rule.action)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plans_never_fire() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for n in 0..64 {
            assert_eq!(plan.decide(FaultPoint::Worker, n), None);
        }
    }

    #[test]
    fn one_in_one_fires_every_pass() {
        let plan = FaultPlan::single(7, FaultPoint::StoreRead, FaultAction::Error, 1);
        for n in 0..64 {
            assert_eq!(
                plan.decide(FaultPoint::StoreRead, n),
                Some(FaultAction::Error)
            );
            assert_eq!(
                plan.decide(FaultPoint::StoreWrite, n),
                None,
                "other points clean"
            );
        }
    }

    #[test]
    fn selection_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::single(1, FaultPoint::Worker, FaultAction::Panic, 2);
        let b = FaultPlan::single(2, FaultPoint::Worker, FaultAction::Panic, 2);
        let pattern = |plan: &FaultPlan| -> Vec<bool> {
            (0..256)
                .map(|n| plan.decide(FaultPoint::Worker, n).is_some())
                .collect()
        };
        // Same plan, same pattern — always.
        assert_eq!(pattern(&a), pattern(&a));
        // Different seeds diverge, and a one-in-two rule fires a non-trivial,
        // non-total subset.
        assert_ne!(pattern(&a), pattern(&b));
        let fired = pattern(&a).iter().filter(|&&f| f).count();
        assert!(fired > 0 && fired < 256, "one_in=2 fired {fired}/256");
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan {
            seed: 3,
            rules: vec![
                FaultRule {
                    point: FaultPoint::Worker,
                    action: FaultAction::Delay { ms: 5 },
                    one_in: 1,
                },
                FaultRule {
                    point: FaultPoint::Worker,
                    action: FaultAction::Panic,
                    one_in: 1,
                },
            ],
        };
        assert_eq!(
            plan.decide(FaultPoint::Worker, 0),
            Some(FaultAction::Delay { ms: 5 })
        );
    }
}
