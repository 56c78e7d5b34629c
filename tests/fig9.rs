//! The scale-0 Fig. 9 table of `examples/fig9.rs`, pinned: every row's state
//! count and six verdicts exactly, and the agreement with the paper's
//! verdicts. Every row is `.effpi` text run through `Session::run_spec_text`,
//! the entry `effpi-cli verify`, `effpi-serve` and the benchmark use. The engine's determinism contract makes any drift here a
//! semantic change, never noise — a change that means to move a cell updates
//! the pin and says why.

use std::sync::OnceLock;

use effpi::protocols::fig9_specs;
use effpi::Session;

#[allow(dead_code)]
#[path = "../examples/fig9.rs"]
mod fig9;

use fig9::{header, run_table, Fig9Row};

/// The state bound the scale-0 table runs under.
const MAX_STATES: usize = 60_000;

/// `(row, states, verdicts)` of the scale-0 table; a verdict string has one
/// `t`/`f` per Fig. 9 column.
const PINNED: [(&str, usize, &str); 10] = [
    ("Pay & audit + 2 clients", 218, "tfffft"),
    ("Pay & audit + 3 clients", 718, "tfffft"),
    ("Dining philos. (3, deadlock)", 990, "ffffff"),
    ("Dining philos. (3, no deadlock)", 1080, "tfffff"),
    ("Ping-pong (2 pairs)", 8, "tfftff"),
    ("Ping-pong (2 pairs, responsive)", 28, "tfffft"),
    ("Ping-pong (3 pairs)", 16, "tfftff"),
    ("Ping-pong (3 pairs, responsive)", 56, "tfffft"),
    ("Ring (4 elements)", 72, "tfffff"),
    ("Ring (4 elements, 2 tokens)", 144, "tfffff"),
];

/// The scale-0 table, verified once and shared by every test here.
fn table() -> &'static [Fig9Row] {
    static TABLE: OnceLock<Vec<Fig9Row>> = OnceLock::new();
    TABLE.get_or_init(|| run_table(0, MAX_STATES, 1))
}

#[test]
fn the_scale_zero_table_is_pinned() {
    let rows: Vec<(&str, usize, String)> = table()
        .iter()
        .map(|row| {
            let verdicts = row
                .outcomes
                .iter()
                .map(|o| if o.holds { 't' } else { 'f' })
                .collect();
            (row.name.as_str(), row.states, verdicts)
        })
        .collect();
    let pinned: Vec<(&str, usize, String)> = PINNED
        .iter()
        .map(|&(name, states, verdicts)| (name, states, verdicts.to_string()))
        .collect();
    assert_eq!(rows, pinned);

    let agreeing: usize = table().iter().filter_map(Fig9Row::agreement).sum();
    let compared = 6 * table().len();
    assert_eq!(
        (agreeing, compared),
        (42, 60),
        "cells agreeing with the paper"
    );
}

#[test]
fn the_small_table_completes_and_renders() {
    let rows = table();
    assert!(rows.len() >= 8);
    for row in rows {
        assert!(row.error.is_none(), "{}: {:?}", row.name, row.error);
        assert_eq!(row.outcomes.len(), 6);
        assert!(row.states > 1);
        let rendered = row.render();
        assert!(rendered.contains(&row.name));
    }
    assert!(header().contains("responsive"));
}

#[test]
fn key_shape_verdicts_match_the_paper() {
    let rows = table();
    // Dining philosophers: the deadlock variant is flagged, the fixed one
    // is not — in every generated size.
    for row in rows.iter().filter(|r| r.name.contains("philos")) {
        let expected_deadlock_free = !row.name.contains(", deadlock");
        assert_eq!(
            row.outcomes[0].holds, expected_deadlock_free,
            "{}",
            row.name
        );
    }
    // Ping-pong: responsiveness separates the two variants.
    for row in rows.iter().filter(|r| r.name.contains("Ping-pong")) {
        let expected_responsive = row.name.contains("responsive");
        assert_eq!(row.outcomes[5].holds, expected_responsive, "{}", row.name);
    }
    // Payment: responsive and deadlock-free, but not unconditionally
    // forwarding to the auditor.
    for row in rows.iter().filter(|r| r.name.contains("Pay")) {
        assert!(
            row.outcomes[0].holds && row.outcomes[5].holds,
            "{}",
            row.name
        );
        assert!(!row.outcomes[2].holds, "{}", row.name);
    }
}

#[test]
fn state_bound_violations_are_reported_not_panicked() {
    let session = Session::builder().max_states(3).build();
    let row = Fig9Row::verify(&session, &fig9_specs(0)[0]);
    assert!(row.error.is_some());
    assert!(row.render().contains("state"));
}
