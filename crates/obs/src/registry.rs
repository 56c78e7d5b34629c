//! The metric registry: named counters, gauges and fixed-bucket histograms
//! behind lock-sharded registration, plus the deterministic [`Snapshot`]
//! renderers (wire-compatible JSON and Prometheus-style text).

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::span::Span;
use crate::sync::Mutex;

/// A microsecond clock. Injectable so golden tests are byte-deterministic;
/// the epoch is arbitrary (only differences are meaningful).
pub trait Clock: Send + Sync {
    /// Microseconds since the clock's epoch. Must be monotone.
    fn now_us(&self) -> u64;
}

/// The production clock: microseconds since the registry was created
/// (`std::time::Instant`, so it never goes backwards).
pub struct MonotonicClock {
    start: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            start: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// A hand-advanced clock for deterministic tests.
pub struct TestClock {
    now: AtomicU64,
}

impl TestClock {
    /// A test clock starting at 0 µs.
    pub fn new() -> TestClock {
        TestClock {
            now: AtomicU64::new(0),
        }
    }

    /// Advances the clock by `delta` microseconds.
    pub fn advance_us(&self, delta: u64) {
        self.now.fetch_add(delta, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute microsecond value.
    pub fn set_us(&self, now: u64) {
        self.now.store(now, Ordering::SeqCst);
    }
}

impl Default for TestClock {
    fn default() -> Self {
        TestClock::new()
    }
}

impl Clock for TestClock {
    fn now_us(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

/// A monotonically increasing counter handle. Cloning shares the underlying
/// atomic; recording is one `fetch_add`.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value handle (set, not accumulated). Cloning shares the
/// underlying atomic; recording is one `store`.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The default latency bucket upper bounds, in microseconds: 50µs … 30s.
/// Sixteen buckets (plus the implicit `+Inf`), so a histogram record is a
/// short fixed scan — O(1), no allocation.
pub const DEFAULT_LATENCY_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 5_000_000, 30_000_000,
];

struct HistogramCore {
    /// Inclusive upper bounds (`value <= bound` lands in the bucket); the
    /// final overflow bucket (`+Inf`) is `buckets.last()`.
    boundaries: Vec<u64>,
    /// `boundaries.len() + 1` per-bucket (non-cumulative) counts.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram handle. Recording is a short bounded scan plus
/// three relaxed atomic adds — no locks, no allocation.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        let core = &self.0;
        let slot = core
            .boundaries
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(core.boundaries.len());
        core.buckets[slot].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// The number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds; the overflow (`+Inf`) bucket is implicit.
    pub boundaries: Vec<u64>,
    /// Per-bucket (non-cumulative) counts, `boundaries.len() + 1` entries —
    /// the last is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// A point-in-time copy of every metric in a [`Registry`]. `BTreeMap`s keep
/// every rendering deterministic.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Name-keyed handle tables, sharded by name hash so concurrent registration
/// from many worker threads never contends on one lock. Handles are `Arc`s:
/// once resolved, recording bypasses the shard entirely.
struct Shard {
    counters: Mutex<HashMap<String, Counter>>,
    gauges: Mutex<HashMap<String, Gauge>>,
    histograms: Mutex<HashMap<String, Histogram>>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counters: Mutex::new(HashMap::new()),
            gauges: Mutex::new(HashMap::new()),
            histograms: Mutex::new(HashMap::new()),
        }
    }
}

const SHARDS: usize = 16;

/// The telemetry registry (see the crate docs). One [`crate::global`]
/// instance serves the whole process; tests build their own with an
/// injectable clock.
pub struct Registry {
    shards: Vec<Shard>,
    clock: Arc<dyn Clock>,
    /// Fast-path flag mirroring `trace.is_some()`, so span drops skip the
    /// mutex entirely when no sink is installed.
    trace_enabled: AtomicBool,
    trace: Mutex<Option<Box<dyn Write + Send>>>,
    next_span_id: AtomicU64,
}

fn shard_of(name: &str) -> usize {
    (crate::hash::fnv64(name.as_bytes()) as usize) % SHARDS
}

impl Registry {
    /// A registry on the production [`MonotonicClock`].
    pub fn new() -> Registry {
        Registry::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry on an injected clock (deterministic tests).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Registry {
        Registry {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            clock,
            trace_enabled: AtomicBool::new(false),
            trace: Mutex::new(None),
            next_span_id: AtomicU64::new(1),
        }
    }

    /// The registry's current time, microseconds since its clock's epoch.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// The counter named `name`, created (at zero) on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.shards[shard_of(name)].counters.lock();
        counters
            .entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The gauge named `name`, created (at zero) on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.shards[shard_of(name)].gauges.lock();
        gauges
            .entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The histogram named `name` with the default latency buckets, created
    /// on first use.
    pub(crate) fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, DEFAULT_LATENCY_BUCKETS_US)
    }

    /// The histogram named `name`; `boundaries` (inclusive upper bounds,
    /// strictly increasing) apply only on first creation — an existing
    /// histogram keeps the buckets it was born with.
    pub fn histogram_with(&self, name: &str, boundaries: &[u64]) -> Histogram {
        debug_assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "histogram boundaries must be strictly increasing"
        );
        let mut histograms = self.shards[shard_of(name)].histograms.lock();
        histograms
            .entry(name.to_string())
            .or_insert_with(|| {
                Histogram(Arc::new(HistogramCore {
                    boundaries: boundaries.to_vec(),
                    buckets: (0..=boundaries.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                }))
            })
            .clone()
    }

    /// Opens an RAII span (see [`crate::span`]). The registry reference must
    /// be `'static` because the span records into it on drop; the global
    /// registry is, and test registries are `Box::leak`ed.
    pub fn span(&'static self, name: &'static str) -> Span {
        Span::open(self, name)
    }

    pub(crate) fn next_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Installs (or removes, with `None`) the JSONL trace sink. While a sink
    /// is installed every span close and [`Registry::trace_event`] appends
    /// one JSON object line; with none, tracing costs one atomic load.
    pub fn set_trace(&self, sink: Option<Box<dyn Write + Send>>) {
        let mut guard = self.trace.lock();
        self.trace_enabled.store(sink.is_some(), Ordering::SeqCst);
        *guard = sink;
    }

    /// Whether a trace sink is installed.
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled.load(Ordering::Relaxed)
    }

    /// Flushes the trace sink, if any.
    pub fn flush_trace(&self) {
        if let Some(sink) = self.trace.lock().as_mut() {
            let _ = sink.flush();
        }
    }

    /// An RAII guard that flushes the trace sink when dropped — including
    /// during the unwind of a panic, so a `--trace FILE` run that aborts
    /// still leaves every span that was written on disk. Hold it for the
    /// lifetime of the traced work:
    ///
    /// ```
    /// let registry: &'static obs::Registry = obs::global();
    /// let _flush = registry.flush_guard();
    /// // … traced work; the sink is flushed however this scope exits.
    /// ```
    pub fn flush_guard(&'static self) -> FlushGuard {
        FlushGuard { registry: self }
    }

    /// Emits one structured heartbeat event (kind `"event"`) into the trace
    /// sink, if one is installed: `fields` become a nested object. Keys are
    /// rendered sorted, so a test-clock trace is byte-deterministic.
    pub fn trace_event(&self, name: &str, fields: &[(&str, u64)]) {
        if !self.trace_enabled() {
            return;
        }
        let mut sorted: Vec<(&str, u64)> = fields.to_vec();
        sorted.sort_unstable_by_key(|(k, _)| *k);
        let mut line = String::with_capacity(96);
        line.push_str("{\"fields\":{");
        for (i, (key, value)) in sorted.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            push_json_str(&mut line, key);
            line.push(':');
            line.push_str(&value.to_string());
        }
        line.push_str("},\"kind\":\"event\",\"name\":");
        push_json_str(&mut line, name);
        line.push_str(&format!(",\"ts_us\":{}}}", self.now_us()));
        self.write_trace_line(&line);
    }

    /// Appends one span-close event (kind `"span"`) to the trace sink.
    pub(crate) fn trace_span(
        &self,
        name: &str,
        id: u64,
        parent: Option<u64>,
        ts_us: u64,
        dur_us: u64,
    ) {
        if !self.trace_enabled() {
            return;
        }
        let mut line = String::with_capacity(96);
        line.push_str(&format!(
            "{{\"dur_us\":{dur_us},\"id\":{id},\"kind\":\"span\",\"name\":"
        ));
        push_json_str(&mut line, name);
        match parent {
            Some(p) => line.push_str(&format!(",\"parent\":{p}")),
            None => line.push_str(",\"parent\":null"),
        }
        line.push_str(&format!(",\"ts_us\":{ts_us}}}"));
        self.write_trace_line(&line);
    }

    fn write_trace_line(&self, line: &str) {
        if let Some(sink) = self.trace.lock().as_mut() {
            let _ = writeln!(sink, "{line}");
        }
    }

    /// A point-in-time copy of every metric. Individual values are read with
    /// relaxed ordering — the snapshot is coherent per metric, not a global
    /// atomic cut (standard for scrape-style telemetry).
    pub fn snapshot(&self) -> Snapshot {
        let mut snapshot = Snapshot::default();
        for shard in &self.shards {
            for (name, counter) in shard.counters.lock().iter() {
                snapshot.counters.insert(name.clone(), counter.get());
            }
            for (name, gauge) in shard.gauges.lock().iter() {
                snapshot.gauges.insert(name.clone(), gauge.get());
            }
            for (name, histogram) in shard.histograms.lock().iter() {
                let core = &histogram.0;
                snapshot.histograms.insert(
                    name.clone(),
                    HistogramSnapshot {
                        boundaries: core.boundaries.clone(),
                        buckets: core
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: core.count.load(Ordering::Relaxed),
                        sum: core.sum.load(Ordering::Relaxed),
                    },
                );
            }
        }
        snapshot
    }
}

/// Flushes the owning [`Registry`]'s trace sink on drop (normal return *or*
/// panic unwind). Created by [`Registry::flush_guard`].
#[must_use = "the guard flushes on drop; binding it to `_` drops it immediately"]
pub struct FlushGuard {
    registry: &'static Registry,
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        self.registry.flush_trace();
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Snapshot {
    /// Renders the snapshot as one deterministic JSON object —
    /// `{"counters":{…},"gauges":{…},"histograms":{…}}` with sorted keys and
    /// integer values, parseable by the workspace's `wire::Json`. Histogram
    /// buckets are per-bucket counts (`le:null` is the overflow bucket).
    pub fn to_json_text(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push_str(&format!(":{value}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push_str(&format!(":{value}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push_str(":{\"buckets\":[");
            for (slot, count) in hist.buckets.iter().enumerate() {
                if slot > 0 {
                    out.push(',');
                }
                match hist.boundaries.get(slot) {
                    Some(bound) => out.push_str(&format!("{{\"count\":{count},\"le\":{bound}}}")),
                    None => out.push_str(&format!("{{\"count\":{count},\"le\":null}}")),
                }
            }
            out.push_str(&format!(
                "],\"count\":{},\"sum\":{}}}",
                hist.count, hist.sum
            ));
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `# TYPE` lines, `effpi_`-prefixed sanitised names, and **cumulative**
    /// histogram buckets with `le` labels (per the format's contract),
    /// ending in `+Inf`, `_sum` and `_count`.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::with_capacity(512);
        for (name, value) in &self.counters {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (slot, count) in hist.buckets.iter().enumerate() {
                cumulative += count;
                match hist.boundaries.get(slot) {
                    Some(bound) => {
                        out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
                    }
                    None => {
                        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                    }
                }
            }
            out.push_str(&format!("{name}_sum {}\n", hist.sum));
            out.push_str(&format!("{name}_count {}\n", hist.count));
        }
        out
    }
}

/// `effpi_`-prefixes and sanitises a metric name for the Prometheus format
/// (`[a-zA-Z0-9_:]` only; anything else becomes `_`).
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("effpi_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Appends a JSON string literal (quoted, escaped) to `out`.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_share_handles() {
        let registry = Registry::new();
        let a = registry.counter("hits");
        let b = registry.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("hits").get(), 3);

        let g = registry.gauge("depth");
        g.set(7);
        registry.gauge("depth").set(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_boundaries_bucket_inclusively() {
        let registry = Registry::new();
        let h = registry.histogram_with("lat", &[10, 100, 1000]);
        // Exactly on a bound lands in that bucket (le semantics)...
        h.record(10);
        // ...one past it lands in the next...
        h.record(11);
        // ...zero in the first, and an overflow past the last bound.
        h.record(0);
        h.record(1001);
        let snap = registry.snapshot();
        let lat = &snap.histograms["lat"];
        assert_eq!(lat.buckets, vec![2, 1, 0, 1]);
        assert_eq!(lat.count, 4);
        assert_eq!(lat.sum, 10 + 11 + 1001);
    }

    #[test]
    fn histogram_keeps_birth_buckets_on_reregistration() {
        let registry = Registry::new();
        registry.histogram_with("h", &[5]).record(3);
        let again = registry.histogram_with("h", &[1, 2, 3]);
        again.record(4);
        let snap = registry.snapshot();
        assert_eq!(snap.histograms["h"].boundaries, vec![5]);
        assert_eq!(snap.histograms["h"].buckets, vec![2, 0]);
    }

    #[test]
    fn default_buckets_cover_the_latency_range_in_order() {
        assert!(DEFAULT_LATENCY_BUCKETS_US.windows(2).all(|w| w[0] < w[1]));
        let registry = Registry::new();
        let h = registry.histogram("span_x_us");
        h.record(0);
        h.record(u64::MAX);
        let snap = registry.snapshot();
        let x = &snap.histograms["span_x_us"];
        assert_eq!(x.buckets.len(), DEFAULT_LATENCY_BUCKETS_US.len() + 1);
        assert_eq!(x.buckets[0], 1, "0 lands in the first bucket");
        assert_eq!(*x.buckets.last().unwrap(), 1, "MAX lands in +Inf");
    }

    #[test]
    fn prometheus_buckets_are_cumulative_json_buckets_are_not() {
        let registry = Registry::new();
        let h = registry.histogram_with("lat", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(500);
        let snap = registry.snapshot();
        assert_eq!(snap.histograms["lat"].buckets, vec![1, 1, 1]);
        let text = snap.to_prometheus_text();
        assert!(text.contains("effpi_lat_bucket{le=\"10\"} 1\n"), "{text}");
        assert!(text.contains("effpi_lat_bucket{le=\"100\"} 2\n"), "{text}");
        assert!(text.contains("effpi_lat_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("effpi_lat_sum 555\n"), "{text}");
        assert!(text.contains("effpi_lat_count 3\n"), "{text}");
    }

    #[test]
    fn json_text_is_sorted_and_integer_valued() {
        let registry = Registry::new();
        registry.counter("b_total").add(2);
        registry.counter("a_total").add(1);
        registry.gauge("g").set(3);
        let text = registry.snapshot().to_json_text();
        assert_eq!(
            text,
            "{\"counters\":{\"a_total\":1,\"b_total\":2},\"gauges\":{\"g\":3},\"histograms\":{}}"
        );
    }

    #[test]
    fn prometheus_names_are_sanitised() {
        assert_eq!(
            prometheus_name("explore.progress"),
            "effpi_explore_progress"
        );
        assert_eq!(prometheus_name("ok_name"), "effpi_ok_name");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let registry = Arc::new(Registry::new());
        let counter = registry.counter("n");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter.get(), 40_000);
    }
}
