//! Regenerates the paper's Figure 9: behavioural-property verification of the
//! protocols (outcome and time per property, plus state counts).
//!
//! Every row is one `.effpi` specification generated by `effpi::protocols`
//! (payment with clients, dining philosophers, ping-pong pairs, token rings)
//! and run through `Session::run_spec_text`, the path `effpi-cli verify` and
//! `effpi-serve` take; every column is one of the six Fig. 7 properties. Each
//! cell reports the verdict and the verification time, and the row also
//! reports the number of explored states — the same data as the paper's
//! Fig. 9. The table also prints each row's agreement with the paper's
//! verdicts, so the *shape* comparison is explicit.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example fig9 -- [--scale N] [--max-states M] [--jobs J]
//! ```
//!
//! * `--scale 0` — small instantiations (seconds; `tests/fig9.rs` pins this
//!   table's verdicts and state counts);
//! * `--scale 1` — medium instantiations, default;
//! * `--scale 2` — the paper's sizes where feasible (minutes; some rows may
//!   exceed the state bound and are reported as such, mirroring the ">2×10⁶"
//!   row of the original figure);
//! * `--jobs J` — explore with `J` worker threads (`0` = one per hardware
//!   thread). Verdicts and state counts are identical for every `J`.

use std::process::ExitCode;

use effpi::protocols::{fig9_specs, Fig9Spec};
use effpi::{Session, VerificationOutcome};
use wire::flags::{parse_flag, resolve_jobs};

/// The Fig. 9 column names, in order.
const COLUMNS: [&str; 6] = [
    "deadlock-free",
    "ev-usage",
    "forwarding",
    "non-usage",
    "reactive",
    "responsive",
];

/// One row of the reproduced Fig. 9.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// The protocol and size of this row.
    pub name: String,
    /// Number of states of the explored type LTS.
    pub states: usize,
    /// The state count reported in the paper, when this row appears there.
    pub paper_states: Option<usize>,
    /// Outcome of each of the six properties (verdict + time), column order.
    pub outcomes: Vec<VerificationOutcome>,
    /// The paper's verdicts for this row.
    pub paper_verdicts: [bool; 6],
    /// Error message if verification did not complete (state bound exceeded,
    /// or a malformed spec); `outcomes` then holds only the decided ones.
    pub error: Option<String>,
}

impl Fig9Row {
    /// Verifies one Fig. 9 spec into a row on the given session.
    pub fn verify(session: &Session, row: &Fig9Spec) -> Fig9Row {
        let (states, outcomes, error) = match session.run_spec_text(&row.spec) {
            Ok(report) => {
                let summary = report.summary();
                let outcomes = report
                    .properties
                    .into_iter()
                    .filter_map(|p| p.result.ok())
                    .collect();
                (summary.states, outcomes, summary.error)
            }
            Err(e) => (0, Vec::new(), Some(e.to_string())),
        };
        Fig9Row {
            name: row.name.clone(),
            states,
            paper_states: row.paper_states,
            outcomes,
            paper_verdicts: row.paper_verdicts,
            error,
        }
    }

    /// How many of the six verdicts agree with the paper (when all six were
    /// decided).
    pub fn agreement(&self) -> Option<usize> {
        let paper = self.paper_verdicts;
        if self.error.is_some() || self.outcomes.len() != 6 {
            return None;
        }
        Some(
            self.outcomes
                .iter()
                .zip(paper.iter())
                .filter(|(o, p)| o.holds == **p)
                .count(),
        )
    }

    /// Renders the row in a compact, Fig. 9-like format.
    pub fn render(&self) -> String {
        if let Some(err) = &self.error {
            return format!("{:<34} {:>9}  {err}", self.name, "-");
        }
        let cells: Vec<String> = self
            .outcomes
            .iter()
            .map(|o| format!("{} ({:.3}s)", o.holds, o.duration.as_secs_f64()))
            .collect();
        let paper_states = self
            .paper_states
            .map(|s| format!("{s}"))
            .unwrap_or_else(|| "-".to_string());
        let agreement = self
            .agreement()
            .map(|a| format!("{a}/6"))
            .unwrap_or_else(|| "-".to_string());
        format!(
            "{:<34} {:>9} {:>9}  {:<18} {:<18} {:<18} {:<18} {:<18} {:<18}  agree={}",
            self.name,
            self.states,
            paper_states,
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            cells[5],
            agreement
        )
    }
}

/// The table header matching [`Fig9Row::render`].
pub fn header() -> String {
    format!(
        "{:<34} {:>9} {:>9}  {:<18} {:<18} {:<18} {:<18} {:<18} {:<18}  {}",
        "row",
        "states",
        "paper",
        COLUMNS[0],
        COLUMNS[1],
        COLUMNS[2],
        COLUMNS[3],
        COLUMNS[4],
        COLUMNS[5],
        "agreement"
    )
}

/// Runs the whole Fig. 9 table at the given scale (see
/// [`effpi::protocols::fig9_specs`]) with `jobs` exploration workers per
/// verification, sharing one [`Session`] across all rows — exactly how a
/// verification service batches requests. Every row's verdicts and state
/// counts are identical for every `jobs`; only the wall time changes.
pub fn run_table(scale: usize, max_states: usize, jobs: usize) -> Vec<Fig9Row> {
    let session = Session::builder()
        .max_states(max_states)
        .parallelism(jobs)
        .build();
    fig9_specs(scale)
        .iter()
        .map(|s| Fig9Row::verify(&session, s))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    // A present flag with a bad value is an error, never a silent fallback.
    let parsed = (|| {
        Ok::<_, String>((
            parse_flag(&args, "--scale")?,
            parse_flag(&args, "--max-states")?,
            parse_flag(&args, "--jobs")?,
        ))
    })();
    let (scale, max_states, jobs) = match parsed {
        Ok((scale, max_states, jobs)) => (
            scale.unwrap_or(1),
            max_states.unwrap_or(500_000),
            resolve_jobs(jobs),
        ),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "Figure 9 reproduction — type-level model checking \
         (scale {scale}, state bound {max_states}, jobs {jobs})"
    );
    println!("{}", header());
    println!("{}", "-".repeat(200));

    let mut agree = 0usize;
    let mut compared = 0usize;
    for row in run_table(scale, max_states, jobs) {
        println!("{}", row.render());
        if let Some(a) = row.agreement() {
            agree += a;
            compared += 6;
        }
    }
    if compared > 0 {
        println!(
            "\nverdict agreement with the paper's Fig. 9 rows: {agree}/{compared} cells \
             (benchmark/expected.json pins the 29 independently known cells; \
             the rest are reported ungated)"
        );
    }
    ExitCode::SUCCESS
}
