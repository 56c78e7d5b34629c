//! Spans, kept in memory and written out when the run ends.
//!
//! A span is `{name, start, end, parent, op}`: `op` groups the spans of one
//! operation, `parent` is the span that caused it. Times are microseconds on
//! `CLOCK_MONOTONIC`, which never steps and which every process of the
//! machine reads alike, so the spans a `replay-one` child reports about
//! itself line up with its parent's without translation. Every span is
//! recorded from this package, around calls into the product; none is
//! recorded inside a product crate.

use std::collections::BTreeMap;
use std::io;

use wire::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: usize,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;

/// Microseconds on the machine's monotonic clock, now. `std`'s `Instant`
/// reads the same clock but cannot be handed to another process; `std` links
/// libc, so declaring the call adds no dependency. An `f64` holds these
/// (nanoseconds since boot, as microseconds) to well under a nanosecond.
pub fn now_us() -> f64 {
    let mut time = Timespec::default();
    // SAFETY: the pointer is to a live, writable local with the layout of
    // Linux LP64's `struct timespec` (`proc.rs` refuses other targets).
    let failed = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut time) };
    assert_eq!(failed, 0, "CLOCK_MONOTONIC is always readable");
    time.sec as f64 * 1e6 + time.nsec as f64 / 1e3
}

/// One row of the self-time table: the spans called `name` under roots
/// called `root`.
#[derive(Clone, PartialEq, Debug)]
pub struct SelfTime {
    pub root: String,
    pub name: String,
    pub count: usize,
    pub total_us: f64,
    /// Duration minus the part direct children cover.
    pub self_us: f64,
    /// Σ duration of the roots called `root`: what `self_us` is a share of.
    pub root_total_us: f64,
}

#[derive(Default)]
pub struct Recorder {
    pub spans: Vec<Span>,
    ops: usize,
}

impl Recorder {
    /// A fresh operation identifier.
    pub fn next_op(&mut self) -> usize {
        self.ops += 1;
        self.ops
    }

    /// Records a finished span and returns its index, for children to name
    /// as their parent.
    pub fn add(
        &mut self,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        op: usize,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Runs `work` inside a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op: usize,
        work: impl FnOnce() -> T,
    ) -> T {
        let start = now_us();
        let result = work();
        self.add(name, start, now_us(), parent, op);
        result
    }

    /// The self-time table: one row per (root name, span name), grouped by
    /// root and by descending self time within a root. The self times of a
    /// root's rows add up to the wall time of its operations.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut covered = vec![0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.micros();
            }
        }
        let mut rows: BTreeMap<(&str, &str), SelfTime> = BTreeMap::new();
        let mut root_totals: BTreeMap<&str, f64> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let mut root = index;
            while let Some(parent) = self.spans[root].parent {
                root = parent;
            }
            let root = self.spans[root].name.as_str();
            if span.parent.is_none() {
                *root_totals.entry(root).or_default() += span.micros();
            }
            let row = rows.entry((root, &span.name)).or_insert_with(|| SelfTime {
                root: root.to_string(),
                name: span.name.clone(),
                count: 0,
                total_us: 0.0,
                self_us: 0.0,
                root_total_us: 0.0,
            });
            row.count += 1;
            row.total_us += span.micros();
            row.self_us += span.micros() - covered[index];
        }
        let mut rows: Vec<SelfTime> = rows.into_values().collect();
        for row in &mut rows {
            row.root_total_us = root_totals[row.root.as_str()];
        }
        rows.sort_by(|a, b| a.root.cmp(&b.root).then(b.self_us.total_cmp(&a.self_us)));
        rows
    }

    /// One JSON object per line, in recording order; times are microseconds
    /// since the first span began, to the nanosecond.
    pub fn write_jsonl(&self, out: &mut impl io::Write, workload: &str) -> io::Result<()> {
        let origin = self
            .spans
            .iter()
            .map(|s| s.start_us)
            .fold(f64::INFINITY, f64::min);
        let since_origin = |us: f64| Json::Num(((us - origin) * 1e3).round() / 1e3);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("workload", Json::str(workload)),
                ("id", Json::Num(id as f64)),
                ("name", Json::str(span.name.clone())),
                ("start_us", since_origin(span.start_us)),
                ("end_us", since_origin(span.end_us)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op", Json::Num(span.op as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut rec = Recorder::default();
        let op = rec.next_op();
        let root = rec.add("op", 0.0, 100.0, None, op);
        let child = rec.add("layer", 10.0, 70.0, Some(root), op);
        rec.add("inner", 20.0, 30.0, Some(child), op);
        rec.add("layer", 70.0, 90.0, Some(root), op);
        let table = rec.self_times();
        let row = |name: &str| table.iter().find(|row| row.name == name).expect("a row");
        assert_eq!(row("op").self_us, 20.0);
        assert_eq!(row("layer").count, 2);
        assert_eq!(row("layer").total_us, 80.0);
        assert_eq!(row("layer").self_us, 70.0);
        assert_eq!(row("inner").self_us, 10.0);
        // Every row hangs under the one root, whose self times add up to
        // the operation's wall time; the largest self time comes first.
        assert!(table
            .iter()
            .all(|row| row.root == "op" && row.root_total_us == 100.0));
        assert_eq!(table.iter().map(|row| row.self_us).sum::<f64>(), 100.0);
        assert_eq!(table[0].name, "layer");
    }

    #[test]
    fn time_records_a_span_around_the_work() {
        let mut rec = Recorder::default();
        let op = rec.next_op();
        let value = rec.time("work", None, op, || 42);
        assert_eq!(value, 42);
        assert_eq!(rec.spans.len(), 1);
        assert!(rec.spans[0].end_us >= rec.spans[0].start_us);
        assert_ne!(rec.next_op(), op);
    }
}
