//! Microbenchmark of the `obs` telemetry primitives: the `BENCH_obs.json`
//! record and its sanity gate.
//!
//! The observability PR's contract is that instrumentation is ~free on the
//! hot path — the *real* overhead gate is the fig9/intern/term end-to-end
//! gates staying green with the spans compiled in. This record makes the
//! per-operation cost visible on its own so a pathological regression (a
//! lock on the record path, an allocation per span) is attributed directly:
//!
//! * **counter_inc** — `Counter::inc`, one relaxed atomic add;
//! * **gauge_set** — `Gauge::set`, one relaxed atomic store;
//! * **histogram_record** — `Histogram::record`, a bucket scan plus two
//!   atomic adds (values sweep the bucket range so every branch is hot);
//! * **span** — open + drop of a [`obs::Span`] against the global registry
//!   with tracing off: two clock reads, a histogram record and the
//!   thread-local parent-stack push/pop.
//!
//! Handle creation (`Registry::counter` &c.) is *not* the hot path — callers
//! hold handles — so the loops here clone nothing and lock nothing.
//!
//! The gate is a loose absolute ceiling per operation (microseconds, not
//! nanoseconds — containers are noisy); it exists to catch order-of-magnitude
//! accidents, not percent-level drift.

use std::collections::BTreeMap;
use std::time::Instant;

use wire::Json;

/// The schema tag written into (and required of) every obs-bench record.
pub const SCHEMA: &str = "bench-obs/v1";

/// Absolute per-op ceiling (nanoseconds) for the three plain-atomic cases.
/// A relaxed atomic op costs single-digit nanoseconds; 2 µs means something
/// structural went wrong (a lock or allocation on the record path).
pub const ATOMIC_CEILING_NS: f64 = 2_000.0;

/// Absolute per-op ceiling (nanoseconds) for the span open+drop case, which
/// legitimately pays two monotonic clock reads and a histogram record.
pub const SPAN_CEILING_NS: f64 = 20_000.0;

/// One measured operation.
#[derive(Clone, PartialEq, Debug)]
pub struct ObsCase {
    /// Operation name (`counter_inc`, `gauge_set`, `histogram_record`, `span`).
    pub name: String,
    /// Operations in the timed loop.
    pub ops: u64,
    /// Best-of-`repeat` cost per operation, in nanoseconds.
    pub ns_per_op: f64,
}

/// A whole obs-bench record.
#[derive(Clone, PartialEq, Debug)]
pub struct ObsRecord {
    /// Iterations per timed loop.
    pub iters: u64,
    /// One entry per operation.
    pub cases: Vec<ObsCase>,
}

/// Times `f` in a loop of `iters` calls, best of `repeat` passes, and
/// returns the per-call cost in nanoseconds.
fn time_loop(iters: u64, repeat: usize, mut f: impl FnMut(u64)) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..repeat.max(1) {
        let start = Instant::now();
        for i in 0..iters {
            f(i);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / iters.max(1) as f64
}

/// Runs the microbenchmark: `iters` operations per loop, best of `repeat`.
///
/// The instruments live in the process-global registry under `bench_obs_*`
/// names, exactly as production counters do — a private registry would hide
/// shard contention effects.
pub fn run(iters: u64, repeat: usize) -> ObsRecord {
    let registry = obs::global();
    let counter = registry.counter("bench_obs_counter");
    let gauge = registry.gauge("bench_obs_gauge");
    let histogram = registry.histogram("bench_obs_histogram_us");

    let cases = vec![
        ObsCase {
            name: "counter_inc".into(),
            ops: iters,
            ns_per_op: time_loop(iters, repeat, |_| counter.inc()),
        },
        ObsCase {
            name: "gauge_set".into(),
            ops: iters,
            ns_per_op: time_loop(iters, repeat, |i| gauge.set(i)),
        },
        // The recorded values sweep the whole latency-bucket range so the
        // scan depth averages over every bucket, not just the first.
        ObsCase {
            name: "histogram_record".into(),
            ops: iters,
            ns_per_op: time_loop(iters, repeat, |i| histogram.record((i * 7919) % 40_000_000)),
        },
        ObsCase {
            name: "span".into(),
            ops: iters,
            ns_per_op: time_loop(iters, repeat, |_| drop(obs::span("bench_obs_span"))),
        },
    ];
    ObsRecord { iters, cases }
}

impl ObsRecord {
    /// Renders the record as the `BENCH_obs.json` artifact.
    pub fn to_json(&self) -> Json {
        let round2 = |x: f64| (x * 1e2).round() / 1e2;
        let cases = self
            .cases
            .iter()
            .map(|c| {
                let mut obj = BTreeMap::new();
                obj.insert("name".into(), Json::Str(c.name.clone()));
                obj.insert("ops".into(), Json::Num(c.ops as f64));
                obj.insert("ns_per_op".into(), Json::Num(round2(c.ns_per_op)));
                Json::Obj(obj)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("schema".into(), Json::Str(SCHEMA.into()));
        root.insert("iters".into(), Json::Num(self.iters as f64));
        root.insert("cases".into(), Json::Arr(cases));
        Json::Obj(root)
    }

    /// Parses a record previously produced by [`ObsRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json_text(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        match root.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported schema {other:?}")),
            None => return Err("missing schema tag".into()),
        }
        let iters = root
            .get("iters")
            .and_then(Json::as_usize)
            .ok_or("missing numeric field \"iters\"")? as u64;
        let mut cases = Vec::new();
        for (i, case) in root
            .get("cases")
            .and_then(Json::as_arr)
            .ok_or("missing cases array")?
            .iter()
            .enumerate()
        {
            cases.push(ObsCase {
                name: case
                    .get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("case {i}: missing field \"name\""))?,
                ops: case
                    .get("ops")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("case {i}: missing field \"ops\""))?
                    as u64,
                ns_per_op: case
                    .get("ns_per_op")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("case {i}: missing field \"ns_per_op\""))?,
            });
        }
        Ok(ObsRecord { iters, cases })
    }
}

/// The self-gate: every case must come in under its absolute ceiling. One
/// message per violation, empty means green.
pub fn violations(record: &ObsRecord) -> Vec<String> {
    let mut failures = Vec::new();
    for case in &record.cases {
        let ceiling = if case.name == "span" {
            SPAN_CEILING_NS
        } else {
            ATOMIC_CEILING_NS
        };
        if case.ns_per_op > ceiling {
            failures.push(format!(
                "case {:?}: {:.1} ns/op exceeds the {ceiling:.0} ns ceiling \
                 (a lock or allocation crept onto the record path?)",
                case.name, case.ns_per_op
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_is_lossless() {
        let rec = ObsRecord {
            iters: 1000,
            cases: vec![ObsCase {
                name: "counter_inc".into(),
                ops: 1000,
                ns_per_op: 3.25,
            }],
        };
        let text = rec.to_json().to_string();
        assert_eq!(ObsRecord::from_json_text(&text).unwrap(), rec);
        assert!(ObsRecord::from_json_text("{}").is_err());
        assert!(ObsRecord::from_json_text("{\"schema\":\"bench-obs/v0\"}").is_err());
    }

    #[test]
    fn the_gate_flags_pathological_costs() {
        let mut rec = ObsRecord {
            iters: 10,
            cases: vec![
                ObsCase {
                    name: "counter_inc".into(),
                    ops: 10,
                    ns_per_op: 5.0,
                },
                ObsCase {
                    name: "span".into(),
                    ops: 10,
                    ns_per_op: 500.0,
                },
            ],
        };
        assert!(violations(&rec).is_empty());
        rec.cases[0].ns_per_op = ATOMIC_CEILING_NS + 1.0;
        rec.cases[1].ns_per_op = SPAN_CEILING_NS + 1.0;
        let failures = violations(&rec);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn the_microbench_measures_every_primitive() {
        let rec = run(10_000, 1);
        let names: Vec<&str> = rec.cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            ["counter_inc", "gauge_set", "histogram_record", "span"]
        );
        for case in &rec.cases {
            assert!(case.ns_per_op > 0.0, "{}", case.name);
        }
    }
}
