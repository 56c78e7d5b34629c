//! The protocol library used by the paper's examples and evaluation.
//!
//! Every protocol family is a generator of `.effpi` specification text (see
//! [`crate::spec`]), so a Fig. 9 row is the same kind of request as any
//! other: `effpi-cli verify` runs it, `effpi-serve` answers it, and
//! [`crate::Session::run_spec_text`] decides it. Each generated row holds its
//! channel declarations, the channels exposed to the environment, the closed
//! composition of behavioural types (Def. 3.1) and the six Fig. 7 properties
//! instantiated the way the corresponding Fig. 9 row checks them. The
//! families are:
//!
//! * [`payment::spec`] — the §1 payment-with-audit service composed with an
//!   auditor and *n* clients;
//! * [`dining::spec`] — Dijkstra's dining philosophers over fork channels, in
//!   a deadlocking and a deadlock-free variant;
//! * [`pingpong::spec`] — *n* ping-pong pairs (Ex. 2.2), in a plain
//!   (non-responsive) and a responsive variant;
//! * [`ring::spec`] — a ring of *n* members circulating one or more unit
//!   tokens;
//! * [`mobile_code::spec`] — the higher-order data-analysis server of
//!   Ex. 3.4.
//!
//! [`fig9_specs`] is the Fig. 9 table: the generated rows at a given scale,
//! each with the verdicts and state count the paper reports for it.
//!
//! [`open_terms`] is the term-side sibling: the open-term (Fig. 5)
//! conformance corpus of the determinism suite.

pub mod dining;
pub mod mobile_code;
pub mod open_terms;
pub mod payment;
pub mod pingpong;
pub mod ring;

/// One row of the paper's Fig. 9: its `.effpi` specification and what the
/// paper reports for it.
#[derive(Clone, Debug)]
pub struct Fig9Spec {
    /// The Fig. 9 row label.
    pub name: String,
    /// The row as `.effpi` text, its six `check` statements in the column
    /// order of Fig. 9: deadlock-free, ev-usage, forwarding, non-usage,
    /// reactive, responsive.
    pub spec: String,
    /// The verdicts the paper reports for this row, in the same order.
    pub paper_verdicts: [bool; 6],
    /// The approximate state count the paper reports, when the row's size
    /// appears in the figure.
    pub paper_states: Option<usize>,
}

/// The row sizes of one scale: payment clients, philosophers, ping-pong
/// pairs, and ring (members, tokens).
type Sizes = (
    &'static [usize],
    &'static [usize],
    &'static [usize],
    &'static [(usize, usize)],
);

/// The rows of Fig. 9, at the sizes given by `scale`:
///
/// * `scale = 0` — a small, test-friendly instantiation;
/// * `scale = 1` — sizes close to the paper's smaller rows;
/// * `scale >= 2` — progressively larger instantiations.
pub fn fig9_specs(scale: usize) -> Vec<Fig9Spec> {
    let (clients, philosophers, pairs, rings): Sizes = match scale {
        0 => (&[2, 3], &[3], &[2, 3], &[(4, 1), (4, 2)]),
        1 => (&[4, 6], &[4], &[4, 6], &[(8, 1), (8, 3)]),
        _ => (
            &[8, 10, 12],
            &[4, 5, 6],
            &[6, 8, 10],
            &[(10, 1), (15, 1), (10, 3), (15, 3)],
        ),
    };
    // The verdicts Fig. 9 reports for each family, in column order.
    let (t, f) = (true, false);
    let mut rows = Vec::new();
    for &n in clients {
        let name = format!("Pay & audit + {n} clients");
        rows.push((name, payment::spec(n), [t, t, f, f, t, t]));
    }
    for &n in philosophers {
        let name = format!("Dining philos. ({n}, deadlock)");
        rows.push((name, dining::spec(n, true), [f, t, f, f, f, f]));
        let name = format!("Dining philos. ({n}, no deadlock)");
        rows.push((name, dining::spec(n, false), [t, t, f, f, f, f]));
    }
    for &n in pairs {
        let name = format!("Ping-pong ({n} pairs)");
        rows.push((name, pingpong::spec(n, false), [t, t, f, f, f, f]));
        let name = format!("Ping-pong ({n} pairs, responsive)");
        rows.push((name, pingpong::spec(n, true), [t, t, f, f, f, t]));
    }
    for &(n, tokens) in rings {
        let name = if tokens == 1 {
            format!("Ring ({n} elements)")
        } else {
            format!("Ring ({n} elements, {tokens} tokens)")
        };
        rows.push((name, ring::spec(n, tokens), [t, t, t, f, t, f]));
    }
    rows.into_iter()
        .map(|(name, spec, paper_verdicts)| Fig9Spec {
            paper_states: PAPER_STATES
                .iter()
                .find(|(row, _)| *row == name)
                .map(|&(_, states)| states),
            name,
            spec,
            paper_verdicts,
        })
        .collect()
}

/// The state counts Fig. 9 reports, by row.
const PAPER_STATES: [(&str, usize); 19] = [
    ("Pay & audit + 8 clients", 3_328),
    ("Pay & audit + 10 clients", 13_312),
    ("Pay & audit + 12 clients", 53_248),
    ("Dining philos. (4, deadlock)", 4_096),
    ("Dining philos. (4, no deadlock)", 4_096),
    ("Dining philos. (5, deadlock)", 32_768),
    ("Dining philos. (5, no deadlock)", 32_768),
    ("Dining philos. (6, deadlock)", 262_144),
    ("Dining philos. (6, no deadlock)", 262_144),
    ("Ping-pong (6 pairs)", 4_096),
    ("Ping-pong (6 pairs, responsive)", 46_656),
    ("Ping-pong (8 pairs)", 65_536),
    ("Ping-pong (8 pairs, responsive)", 1_679_616),
    ("Ping-pong (10 pairs)", 1_048_576),
    ("Ping-pong (10 pairs, responsive)", 2_000_000),
    ("Ring (10 elements)", 2_048),
    ("Ring (15 elements)", 65_536),
    ("Ring (10 elements, 3 tokens)", 4_096),
    ("Ring (15 elements, 3 tokens)", 131_072),
];

/// The channels a Fig. 9 row instantiates the six Fig. 7 properties on.
struct Probes<'a> {
    /// Probed by ev-usage and non-usage.
    usage: &'a str,
    /// Forwarding from this channel...
    from: &'a str,
    /// ...to this one.
    to: &'a str,
    /// Probed by reactive and responsive.
    mailbox: &'a str,
}

/// Renders a Fig. 9 row as `.effpi` text: one `env` line per channel, one
/// `visible` line, the left-nested binary composition `p[p[c0, c1], c2]…`
/// of `components` (the shape `Type::par_all` folds), then the six `check`
/// lines in Fig. 9 column order. Deadlock freedom is checked with no probed
/// channels.
fn row_spec(
    env: &[(String, String)],
    visible: [&str; 2],
    components: &[String],
    probes: Probes<'_>,
) -> String {
    let composition = components
        .iter()
        .cloned()
        .reduce(|acc, c| format!("p[{acc},\n  {c}]"))
        .unwrap_or_else(|| "nil".to_string());
    let mut lines: Vec<String> = env
        .iter()
        .map(|(chan, ty)| format!("env {chan} : {ty}"))
        .collect();
    lines.push(format!("visible {}", visible.join(", ")));
    lines.push(format!("type {composition}"));
    lines.extend(
        [
            "deadlock_free []".to_string(),
            format!("eventual_output [{}]", probes.usage),
            format!("forwarding {} -> {}", probes.from, probes.to),
            format!("non_usage [{}]", probes.usage),
            format!("reactive {}", probes.mailbox),
            format!("responsive {}", probes.mailbox),
        ]
        .map(|check| format!("check {check}")),
    );
    lines.join("\n") + "\n"
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::{parse_spec, Spec};
    use crate::{Report, Session, Type};

    /// Parses generated text, which must be a valid specification with a
    /// `type` statement.
    pub(crate) fn parsed(text: &str) -> (Spec, Type) {
        let spec = parse_spec(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let ty = spec.ty.clone().expect("a generated row has a type");
        (spec, ty)
    }

    /// Runs generated text on a session with the given state bound; the run
    /// must complete.
    pub(crate) fn run(text: &str, max_states: usize) -> Report {
        let report = Session::builder()
            .max_states(max_states)
            .build()
            .run_spec_text(text)
            .unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(report.error.is_none(), "{:?}", report.error);
        report
    }

    #[test]
    fn fig9_scenarios_cover_all_four_protocol_families_at_every_scale() {
        for scale in 0..3 {
            let rows = fig9_specs(scale);
            assert!(rows.iter().any(|s| s.name.contains("Pay")));
            assert!(rows.iter().any(|s| s.name.contains("philos")));
            assert!(rows.iter().any(|s| s.name.contains("Ping-pong")));
            assert!(rows.iter().any(|s| s.name.contains("Ring")));
            for row in &rows {
                let (spec, _) = parsed(&row.spec);
                assert_eq!(spec.checks.len(), 6, "{}", row.name);
                assert!(!spec.visible.is_empty(), "{}", row.name);
            }
        }
    }

    #[test]
    fn small_scenarios_verify_within_modest_state_bounds() {
        for row in fig9_specs(0) {
            let report = run(&row.spec, 60_000);
            assert_eq!(report.properties.len(), 6);
            assert!(report.states() > 1, "{}", row.name);
        }
    }
}
