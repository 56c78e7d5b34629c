//! The protocol library used by the paper's examples and evaluation.
//!
//! Each function builds a [`Scenario`]: a closed composition of behavioural
//! types (Def. 3.1) together with its typing environment, the set of channels
//! exposed to the environment, and the six Fig. 7 properties instantiated the
//! way the corresponding Fig. 9 row checks them. The scenarios are:
//!
//! * [`payment::payment_with_clients`] — the §1 payment-with-audit service
//!   composed with an auditor and *n* clients;
//! * [`dining::dining_philosophers`] — Dijkstra's dining philosophers over
//!   fork channels, in a deadlocking and a deadlock-free variant;
//! * [`pingpong::ping_pong_pairs`] — *n* ping-pong pairs (Ex. 2.2), in a
//!   plain (non-responsive) and a responsive variant;
//! * [`ring::token_ring`] — a ring of *n* members circulating one or more
//!   unit tokens;
//! * [`mobile_code`] — the higher-order data-analysis server of Ex. 3.4.
//!
//! [`open_terms`] is the term-side sibling: the open-term (Fig. 5)
//! conformance corpus of the determinism suite.

pub mod dining;
pub mod mobile_code;
pub mod open_terms;
pub mod payment;
pub mod pingpong;
pub mod ring;

use dbt_types::TypeEnv;
use lambdapi::{Name, Type};
use mucalc::{Property, VerificationOutcome, VerifyError};

use crate::session::{Error, Session};

/// A verification scenario: one row of the paper's Fig. 9.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable name (matches the Fig. 9 row labels).
    pub name: String,
    /// The typing environment Γ declaring the scenario's channels.
    pub env: TypeEnv,
    /// The composed behavioural type to verify.
    pub ty: Type,
    /// The channels exposed to the environment; all other channels are
    /// internal to the composition and only contribute τ-synchronisations.
    pub visible: Vec<Name>,
    /// The six properties, in the column order of Fig. 9:
    /// deadlock-free, ev-usage, forwarding, non-usage, reactive, responsive.
    pub properties: Vec<Property>,
    /// The verdicts reported by the paper for this row (same order), when the
    /// row appears in Fig. 9; the `fig9` example compares shapes with it.
    pub paper_verdicts: Option<[bool; 6]>,
    /// The approximate state count reported by the paper, when available.
    pub paper_states: Option<usize>,
}

impl Scenario {
    /// A default [`Session`] with the given state bound — the scenarios'
    /// convenience entry into the unified pipeline.
    fn session(max_states: usize) -> Session {
        Session::builder().max_states(max_states).build()
    }

    /// Runs all of the scenario's properties with the given state bound,
    /// returning one outcome per property (a full Fig. 9 row).
    ///
    /// This is a convenience wrapper over [`Session::run_scenario`]; to reuse
    /// a configured session across scenarios (the `fig9` example does),
    /// call that method directly.
    pub fn run(&self, max_states: usize) -> Result<Vec<VerificationOutcome>, VerifyError> {
        let report = Self::session(max_states).run_scenario(self);
        match report.error {
            Some(e) => Err(e.expect_verify()),
            None => report
                .properties
                .into_iter()
                .map(|p| p.result.map_err(Error::expect_verify))
                .collect(),
        }
    }

    /// Runs a single property of the scenario (a convenience wrapper over
    /// [`Session::run_scenario_property`]).
    pub fn run_property(
        &self,
        property: &Property,
        max_states: usize,
    ) -> Result<VerificationOutcome, VerifyError> {
        Self::session(max_states)
            .run_scenario_property(self, property)
            .map_err(Error::expect_verify)
    }

    /// The verdicts as a boolean vector (same order as `properties`).
    pub fn verdicts(&self, max_states: usize) -> Result<Vec<bool>, VerifyError> {
        Ok(self.run(max_states)?.into_iter().map(|o| o.holds).collect())
    }
}

/// The scenarios of Fig. 9, at the sizes given by `scale`:
///
/// * `scale = 0` — a small, test-friendly instantiation;
/// * `scale = 1` — sizes close to the paper's smaller rows;
/// * `scale >= 2` — progressively larger instantiations.
pub fn fig9_scenarios(scale: usize) -> Vec<Scenario> {
    let clients: &[usize] = match scale {
        0 => &[2, 3],
        1 => &[4, 6],
        _ => &[8, 10, 12],
    };
    let philosophers: &[usize] = match scale {
        0 => &[3],
        1 => &[4],
        _ => &[4, 5, 6],
    };
    let pairs: &[usize] = match scale {
        0 => &[2, 3],
        1 => &[4, 6],
        _ => &[6, 8, 10],
    };
    let rings: &[(usize, usize)] = match scale {
        0 => &[(4, 1), (4, 2)],
        1 => &[(8, 1), (8, 3)],
        _ => &[(10, 1), (15, 1), (10, 3), (15, 3)],
    };

    let mut scenarios = Vec::new();
    for &n in clients {
        scenarios.push(payment::payment_with_clients(n));
    }
    for &n in philosophers {
        scenarios.push(dining::dining_philosophers(n, true));
        scenarios.push(dining::dining_philosophers(n, false));
    }
    for &n in pairs {
        scenarios.push(pingpong::ping_pong_pairs(n, false));
        scenarios.push(pingpong::ping_pong_pairs(n, true));
    }
    for &(n, tokens) in rings {
        scenarios.push(ring::token_ring(n, tokens));
    }
    scenarios
}

/// The six properties of a Fig. 9 row, in column order, parameterised by the
/// scenario's probe channels.
pub(crate) fn standard_properties(
    deadlock_probe: Vec<Name>,
    usage_probe: Name,
    forward_from: Name,
    forward_to: Name,
    mailbox: Name,
) -> Vec<Property> {
    vec![
        Property::DeadlockFree {
            vars: deadlock_probe,
        },
        Property::EventualOutput {
            vars: vec![usage_probe.clone()],
        },
        Property::Forwarding {
            from: forward_from,
            to: forward_to,
        },
        Property::NonUsage {
            vars: vec![usage_probe],
        },
        Property::Reactive {
            var: mailbox.clone(),
        },
        Property::Responsive { var: mailbox },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_scenarios_cover_all_four_protocol_families_at_every_scale() {
        for scale in 0..3 {
            let scenarios = fig9_scenarios(scale);
            assert!(scenarios.iter().any(|s| s.name.contains("Pay")));
            assert!(scenarios.iter().any(|s| s.name.contains("philos")));
            assert!(scenarios.iter().any(|s| s.name.contains("Ping-pong")));
            assert!(scenarios.iter().any(|s| s.name.contains("Ring")));
            for s in &scenarios {
                assert_eq!(s.properties.len(), 6, "{}", s.name);
                assert!(!s.visible.is_empty(), "{}", s.name);
            }
        }
    }

    #[test]
    fn small_scenarios_verify_within_modest_state_bounds() {
        for s in fig9_scenarios(0) {
            let outcomes = s.run(60_000).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(outcomes.len(), 6);
            assert!(outcomes[0].states > 1, "{}", s.name);
        }
    }
}
