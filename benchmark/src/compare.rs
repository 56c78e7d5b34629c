//! `compare BASE.json NEW.json`: the bounds of `BENCHMARK.json` applied to
//! two `run` records, one row per end-to-end metric and workload it is
//! defined on.

use wire::Json;

use crate::contract::{Contract, MetricDef};
use crate::stats;
use crate::workloads;

/// Set-up times closer than this are not told apart, whatever their ratio:
/// half a second either way is the machine, not the change.
const SETUP_SLACK_S: f64 = 0.5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    /// One side's own run-to-run spread is wider than the bound, so the
    /// records cannot tell a regression from noise.
    Unresolved,
}

/// Run-to-run spread of one side's values as a share of their median: the
/// interquartile range from four values up, the whole range below that.
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return stats::spread(values);
    }
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    (max - min) / stats::median(values)
}

/// Judges one metric from both sides' values: (base median, new median, the
/// share of the base median by which the new one is worse, the wider of the
/// two sides' own spreads, verdict).
pub fn judge(metric: &MetricDef, base: &[f64], new: &[f64]) -> (f64, f64, f64, f64, Verdict) {
    let bound = metric.bound.expect("end-to-end metrics have bounds");
    let (base_median, new_median) = (stats::median(base), stats::median(new));
    let change = (new_median - base_median) / base_median;
    let worse = if metric.higher_is_better {
        -change
    } else {
        change
    };
    let spread = spread(base).max(spread(new));
    let ignored = metric.name == "setup_s" && (new_median - base_median).abs() < SETUP_SLACK_S;
    let verdict = if ignored {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (base_median, new_median, worse, spread, verdict)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(record: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    record
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Failed ÷ attempted operations of one workload.
fn failed_share(record: &Json, workload: &str) -> Option<f64> {
    let tally = record.get("workloads")?.get(workload)?;
    Some(tally.get("failed")?.as_f64()? / tally.get("attempted")?.as_f64()?)
}

/// Two records compare only when they were taken the same way on the same
/// kind of machine; the compiler and the commit are what may differ.
fn same_conditions(base: &Json, new: &Json) -> Result<(), String> {
    for path in [
        &["seconds"][..],
        &["repeat"],
        &["machine", "nproc"],
        &["machine", "cpu"],
    ] {
        let at = |record: &Json| {
            path.iter()
                .try_fold(record, |json, key| json.get(key))
                .cloned()
        };
        let what = path.join(".");
        match (at(base), at(new)) {
            (Some(b), Some(n)) if b == n => {}
            (Some(b), Some(n)) => return Err(format!("the records differ in {what}: {b}, {n}")),
            _ => return Err(format!("a record lacks {what}")),
        }
    }
    Ok(())
}

/// Prints the comparison; `Ok(true)` when nothing regressed and no workload
/// failed a larger share of its operations than before.
pub fn run(contract: &Contract, base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    same_conditions(&base, &new)?;
    println!(
        "{:<13} {:<16} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    let mut clean = true;
    for workload in &contract.workloads {
        for metric in contract
            .end_to_end
            .iter()
            .filter(|m| workloads::defined_on(&m.name, workload))
        {
            let (Some(b), Some(n)) = (
                values(&base, workload, &metric.name),
                values(&new, workload, &metric.name),
            ) else {
                return Err(format!("a record lacks {workload} {}", metric.name));
            };
            let (base_median, new_median, _, spread, verdict) = judge(metric, &b, &n);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{workload:<13} {:<16} {base_median:>14.4} {new_median:>14.4} {:>9.4} {:>6.1}% {:>6.0}%  {}",
                metric.name,
                new_median / base_median,
                100.0 * spread,
                100.0 * metric.bound.expect("end-to-end metrics have bounds"),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (Some(b), Some(n)) = (failed_share(&base, workload), failed_share(&new, workload))
        else {
            return Err(format!("a record lacks {workload} attempted or failed"));
        };
        let verdict = if n > b { "REGRESSED" } else { "ok" };
        clean &= n <= b;
        println!(
            "{workload:<13} {:<16} {b:>14.6} {n:>14.6} {:>9} {:>7} {:>7}  {verdict}",
            "failed_share", "", "", "none"
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn worse_beyond_the_bound_regresses_in_the_metrics_direction() {
        let lower = metric(false);
        assert_eq!(
            judge(&lower, &[10.0, 10.1, 9.9], &[11.5, 11.4, 11.6]).4,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower, &[10.0, 10.1, 9.9], &[10.5, 10.4, 10.6]).4,
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, &[10.0, 10.1, 9.9], &[5.0, 5.0, 5.0]).4,
            Verdict::Ok
        );
        let higher = metric(true);
        assert_eq!(
            judge(&higher, &[10.0, 10.1, 9.9], &[8.5, 8.4, 8.6]).4,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &[10.0, 10.1, 9.9], &[20.0, 20.0, 20.1]).4,
            Verdict::Ok
        );
        let (base, new, worse, ..) = judge(&higher, &[10.0], &[8.0]);
        assert_eq!((base, new), (10.0, 8.0));
        assert!((worse - 0.2).abs() < 1e-12);
    }

    #[test]
    fn set_up_times_within_half_a_second_are_not_told_apart() {
        let setup = MetricDef {
            name: "setup_s".into(),
            ..metric(false)
        };
        assert_eq!(
            judge(&setup, &[0.4, 0.4, 0.4], &[0.8, 0.8, 0.8]).4,
            Verdict::Ok
        );
        assert_eq!(
            judge(&setup, &[9.0, 9.0, 9.0], &[10.5, 10.5, 10.5]).4,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&metric(false), &[0.4, 0.4, 0.4], &[0.8, 0.8, 0.8]).4,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_side_noisier_than_the_bound_is_unresolved() {
        let lower = metric(false);
        assert_eq!(
            judge(&lower, &[10.0, 12.0, 9.0], &[13.0, 13.0, 13.0]).4,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&lower, &[10.0, 10.0, 10.0], &[9.0, 11.0, 10.0]).4,
            Verdict::Unresolved
        );
    }
}
