//! Regenerates the paper's Figure 9: behavioural-property verification of the
//! protocol scenarios (outcome and time per property, plus state counts).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin fig9 -- [--scale N] [--max-states M] [--jobs J]
//!     [--smoke] [--json PATH] [--baseline PATH] [--max-regression PCT]
//! ```
//!
//! * `--scale 0` — small instantiations (seconds);
//! * `--scale 1` — medium instantiations, default;
//! * `--scale 2` — the paper's sizes where feasible (minutes; some rows may
//!   exceed the state bound and are reported as such, mirroring the ">2×10⁶"
//!   row of the original figure);
//! * `--jobs J` — explore with `J` worker threads (`0` = one per hardware
//!   thread). Verdicts and state counts are identical for every `J`;
//! * `--smoke` — the CI configuration: pins `--scale 0`, a modest state
//!   bound, and best-of-3 timing, so the run takes seconds and the record is
//!   de-noised;
//! * `--repeat R` — run the table `R` times and record each case's best
//!   timing (default: 3 under `--smoke`, 1 otherwise);
//! * `--json PATH` — write the per-case record (states, wall ms, states/sec,
//!   verdicts) to `PATH` (the CI artifact `BENCH_fig9.json`);
//! * `--baseline PATH` — compare against a previous record and **exit
//!   non-zero** on any regression: throughput down by more than
//!   `--max-regression` percent (default 25), or any verdict/state-count
//!   drift at all;
//! * `--compare-jobs J` — after the main table, re-run it serially and with
//!   `J` workers and print the per-case speedup (the scaling check of the
//!   parallel engine; needs multi-core hardware to show a speedup).

use std::process::ExitCode;

use bench::fig9;
use bench::flags::{parse_flag, resolve_jobs, string_flag};
use bench::gate::{self, BenchRecord};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // A present flag with a bad value is an error, never a silent fallback —
    // the CI gate must not run looser than configured.
    let parsed: Result<_, String> = (|| {
        Ok((
            parse_flag(&args, "--scale")?,
            parse_flag(&args, "--max-states")?,
            parse_flag(&args, "--jobs")?,
            parse_flag(&args, "--max-regression")?,
            parse_flag(&args, "--repeat")?,
            parse_flag(&args, "--compare-jobs")?,
            string_flag(&args, "--json")?,
            string_flag(&args, "--baseline")?,
        ))
    })();
    let (
        scale_flag,
        max_states_flag,
        jobs_flag,
        max_regression_flag,
        repeat_flag,
        compare_flag,
        json_path,
        baseline_path,
    ) = match parsed {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let scale = if smoke { 0 } else { scale_flag.unwrap_or(1) };
    let max_states = max_states_flag.unwrap_or(if smoke { 60_000 } else { 500_000 });
    let jobs = resolve_jobs(jobs_flag);
    let max_regression = max_regression_flag.unwrap_or(25) as f64;

    println!(
        "Figure 9 reproduction — type-level model checking \
         (scale {scale}, state bound {max_states}, jobs {jobs})"
    );
    println!("{}", fig9::header());
    println!("{}", "-".repeat(200));

    let rows = fig9::run_table_jobs(scale, max_states, jobs);
    let mut agree = 0usize;
    let mut compared = 0usize;
    for row in &rows {
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

    // De-noise the record: re-run the table and keep each case's best timing
    // (deterministic fields are asserted identical across runs on the way).
    let repeat = repeat_flag.unwrap_or(if smoke { 3 } else { 1 });
    let mut runs = vec![BenchRecord::from_rows(&rows, jobs, scale, max_states)];
    for _ in 1..repeat.max(1) {
        let again = fig9::run_table_jobs(scale, max_states, jobs);
        runs.push(BenchRecord::from_rows(&again, jobs, scale, max_states));
    }
    let record = BenchRecord::merge_best(runs);

    if let Some(workers) = compare_flag {
        compare_jobs(scale, max_states, workers.max(2));
    }

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, format!("{}\n", record.to_json())) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("\nwrote bench record to {path}");
    }

    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let baseline = match BenchRecord::from_json_text(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("malformed baseline {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let fresh = gate::new_cases(&record, &baseline);
        if !fresh.is_empty() {
            println!("cases not in the baseline (remember to refresh it): {fresh:?}");
        }
        let failures = gate::regressions(&record, &baseline, max_regression);
        if failures.is_empty() {
            println!("bench gate: OK — no case regressed more than {max_regression}% vs {path}");
        } else {
            eprintln!("bench gate: FAILED vs {path}");
            for f in &failures {
                eprintln!("  - {f}");
            }
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}

/// Runs the table serially and with `workers` exploration threads, printing
/// the per-case throughput ratio and checking the determinism guarantee on
/// the way (a verdict or state-count mismatch panics — it must not happen).
fn compare_jobs(scale: usize, max_states: usize, workers: usize) {
    println!("\nscaling check: jobs=1 vs jobs={workers}");
    let serial = fig9::run_table_jobs(scale, max_states, 1);
    let parallel = fig9::run_table_jobs(scale, max_states, workers);
    println!(
        "{:<34} {:>9} {:>14} {:>14} {:>9}",
        "scenario", "states", "jobs=1 st/s", "jobs=N st/s", "speedup"
    );
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.states, p.states, "{}: state count drifted", s.name);
        assert_eq!(
            s.outcomes.iter().map(|o| o.holds).collect::<Vec<_>>(),
            p.outcomes.iter().map(|o| o.holds).collect::<Vec<_>>(),
            "{}: verdicts drifted",
            s.name
        );
        println!(
            "{:<34} {:>9} {:>14.0} {:>14.0} {:>8.2}x",
            s.name,
            s.states,
            s.states_per_sec(),
            p.states_per_sec(),
            p.states_per_sec() / s.states_per_sec().max(1e-9)
        );
    }
}
