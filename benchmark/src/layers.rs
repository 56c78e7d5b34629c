//! The traced run: where the time of a verdict goes, layer by layer.
//!
//! A layer is a product crate or module, timed from here around its public
//! calls. [`common`] measures what does not depend on the traffic, once per
//! traced run, from three sources:
//!
//! * `replay-one` children (see [`crate::replay`]) walk the catalogue the
//!   way `cli_fig9` does, one fresh process per spec with a span per layer,
//!   and once more at the parallel workload's `--jobs` — these are the
//!   traced passes of the two CLI workloads;
//! * direct calls time the request-path layers (parse, fingerprint, frames,
//!   cache, store) on the catalogue's real frames and reports;
//! * a probe daemon gives the transport's floor.
//!
//! [`serve_pass`] is the traced pass of a serve workload: its seeded
//! schedule against the workload's own daemon, with the server-side layer
//! calls repeated directly on the same frames.
//!
//! End-to-end metrics are never taken here: tracing is off when they are
//! measured.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use effpi::spec::parse_spec;
use effpi::{CacheKey, Session};
use serve::protocol::verify_response_line;
use serve::{CacheConfig, Client, Request, VerdictCache, VerifyOptions};
use store::{StoreConfig, VerdictStore};
use wire::Json;

use crate::check::Verdict;
use crate::proc::{self, Daemon, Endpoint, Reaped};
use crate::replay::{self, Child};
use crate::specs::{self, ChurnDraw, Class, GenSpec, Rng};
use crate::stats;
use crate::trace::{now_us, Recorder};
use crate::workloads::{self, Ctx, Reply, Tally};

/// Root spans of `replay-one` children, spawn → exit: the serial catalogue
/// pass, the pass at the parallel workload's `--jobs`, and the children that
/// explore twice.
const CHILD: &str = "replay-one";
const CHILD_PAR: &str = "replay-one.par";
const CHILD_AGAIN: &str = "replay-one.again";
/// Root span of a traced daemon request: send → decoded reply.
const REQUEST: &str = "serve.verify";
/// Root span of the server-side layer calls repeated on a request's frame.
const SERVER_SIDE: &str = "serve.replayed";

/// Catalogue specs explored a second time in the same process, for the
/// cold-interner premium (mid-sized: large enough to time, small enough to
/// do twice).
const EXPLORED_AGAIN: [&str; 3] = ["pay4", "ring8", "ring8x3"];

/// The per-layer metrics of [`common`] (`BENCHMARK.json` has their units and
/// directions; `benchmark/README.md` what each one times).
pub const COMMON: [&str; 38] = [
    "cli.other_share",
    "cli.startup_ms",
    "dbt-types.interact_derivations",
    "dbt-types.memo_hit_ratio",
    "dbt-types.subtype_derivations",
    "dbt-types.typecheck_us",
    "effpi.fingerprint.key_us",
    "effpi.session.render_us",
    "effpi.session.report_bytes",
    "effpi.spec.bytes_per_s",
    "effpi.spec.parse_us",
    "lambdapi.intern.cold_over_warm",
    "lambdapi.intern.nodes",
    "lts.explore_s",
    "lts.par_cpu_ratio",
    "lts.par_speedup",
    "lts.states",
    "lts.transitions",
    "lts.us_per_state",
    "mucalc.check_liveness_us",
    "mucalc.check_s",
    "mucalc.check_safety_us",
    "serve.cache.get_ns",
    "serve.cache.insert_ns",
    "serve.client.decode_us",
    "serve.protocol.encode_us",
    "serve.protocol.request_parse_us",
    "serve.server.hit_overhead_us",
    "serve.server.rtt_tcp_us",
    "serve.server.rtt_uds_us",
    "serve.server.start_ms",
    "store.bytes_per_record",
    "store.compact_ms",
    "store.get_us",
    "store.open_ms",
    "store.put_us",
    "trace.overhead_share",
    "wire.parse_us",
];

/// The per-layer metrics of a [`serve_pass`]: what the workload's traffic
/// did to its daemon's cache.
pub const PER_PASS: [&str; 2] = ["serve.cache.evictions", "serve.cache.hit_ratio"];

/// Requests in the traced pass of `serve_churn`.
const CHURN_PASS: usize = 2_000;

pub struct Traced {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    pub recorder: Recorder,
    pub notes: Vec<String>,
}

/// Median over `rounds` of the mean time of one call in a batch, in µs.
fn per_call_us(rounds: usize, batch: usize, mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                call();
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    stats::median(&samples)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The session a daemon builds for a request with default options.
fn request_session() -> Session {
    Session::builder().max_states(500_000).build()
}

/// Runs `replay-one` on `spec` in a child of this very binary and records
/// its spans under a root span that lasts from spawn to exit.
fn replay_child(
    ctx: &Ctx,
    rec: &mut Recorder,
    root: &str,
    spec: &GenSpec,
    jobs: usize,
) -> io::Result<(Result<Child, String>, Reaped)> {
    let mut command = std::process::Command::new(std::env::current_exe()?);
    command
        .arg("replay-one")
        .arg(workloads::spec_path(ctx, spec))
        .args(["--jobs", &jobs.to_string()]);
    if root == CHILD_AGAIN {
        command.arg("--again");
    }
    let spawned = now_us();
    let (stdout, reaped) = proc::run(&mut command)?;
    let child = match reaped.code {
        Some(0) => Child::parse(&stdout),
        other => Err(format!("replay-one {}: exit {other:?}", spec.name)),
    };
    if let Ok(child) = &child {
        let op = rec.next_op();
        let root = rec.add(
            root,
            spawned,
            spawned + reaped.wall.as_secs_f64() * 1e6,
            None,
            op,
        );
        for (name, start, end) in &child.spans {
            rec.add(name, *start, *end, Some(root), op);
        }
    }
    Ok((child, reaped))
}

/// Whether a replayed verdict agrees with the pinned cells.
fn replayed_verdict(ctx: &Ctx, spec: &GenSpec, child: &Child) -> Result<Verdict, String> {
    let report = Json::parse(&child.report)?;
    let report = serve::WireReport::from_json(&report)?;
    let verdict = Verdict::from_wire(spec, &report)?;
    ctx.expected
        .check(spec, &verdict)
        .map_err(|e| format!("replay-one {e}"))?;
    Ok(verdict)
}

/// Direct timings of the request-path layers on one spec's real frames, µs.
struct Direct {
    parse: f64,
    key: f64,
    request_parse: f64,
    encode: f64,
    wire_parse: f64,
    decode: f64,
    bytes: usize,
}

impl Direct {
    /// Everything a warm hit does outside the transport and the queue.
    fn sum(&self) -> f64 {
        self.parse + self.key + self.request_parse + self.encode + self.wire_parse + self.decode
    }
}

fn direct(spec: &GenSpec, key: &str, report: &str) -> Direct {
    const ROUNDS: usize = 15;
    const BATCH: usize = 20;
    let request = Request::Verify {
        id: 1,
        spec: spec.text.clone(),
        options: VerifyOptions::default(),
    };
    let request_frame = request.to_line();
    let response_frame = verify_response_line(1, true, key, report);
    let parsed = parse_spec(&spec.text).expect("generated specs parse");
    let body = Json::parse(&response_frame).expect("a response frame parses");
    Direct {
        parse: per_call_us(ROUNDS, BATCH, || {
            black_box(parse_spec(black_box(&spec.text)).is_ok());
        }),
        // As the daemon does it: a session per request, then the key.
        key: per_call_us(ROUNDS, BATCH, || {
            black_box(request_session().cache_key(black_box(&parsed)));
        }),
        request_parse: per_call_us(ROUNDS, BATCH, || {
            black_box(Request::parse(black_box(&request_frame)).is_ok());
        }),
        encode: per_call_us(ROUNDS, BATCH, || {
            black_box(request.to_line());
            black_box(verify_response_line(
                1,
                true,
                black_box(key),
                black_box(report),
            ));
        }),
        wire_parse: per_call_us(ROUNDS, BATCH, || {
            black_box(Json::parse(black_box(&response_frame)).is_ok());
        }),
        decode: per_call_us(ROUNDS, BATCH, || {
            black_box(serve::client::decode_verify(black_box(&body)).is_ok());
        }),
        bytes: spec.text.len(),
    }
}

/// `VerdictCache` at the churn workload's capacity: hits on resident keys,
/// and inserts that each evict the oldest entry.
fn cache_probe(metrics: &mut BTreeMap<&'static str, f64>) {
    const CAPACITY: usize = 64;
    let mut cache = VerdictCache::new(CacheConfig {
        max_entries: CAPACITY,
        ..CacheConfig::default()
    });
    let report: Arc<str> = Arc::from("{}");
    let key = |i: usize| {
        CacheKey((i as u128 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835))
    };
    for i in 0..CAPACITY {
        cache.insert(key(i), 10, Arc::clone(&report));
    }
    let mut next = 0usize;
    let get_us = per_call_us(30, 10_000, || {
        next += 1;
        black_box(cache.get(key(next % CAPACITY)).is_some());
    });
    let mut fresh = CAPACITY;
    let insert_us = per_call_us(30, 10_000, || {
        fresh += 1;
        cache.insert(key(fresh), 10, Arc::clone(&report));
    });
    assert_eq!(
        cache.stats().entries,
        CAPACITY,
        "every insert evicted one entry"
    );
    metrics.insert("serve.cache.get_ns", get_us * 1e3);
    metrics.insert("serve.cache.insert_ns", insert_us * 1e3);
}

/// `VerdictStore` on real reports of the churn family, which are also what
/// `Report::to_wire_json` is timed on.
fn store_probe(ctx: &Ctx, metrics: &mut BTreeMap<&'static str, f64>) -> io::Result<()> {
    const RECORDS: usize = 128;
    let session = request_session();
    let mut keys = Vec::new();
    let mut reports = Vec::new();
    let mut render_us = Vec::new();
    for spec in (0..RECORDS).map(specs::churn_spec) {
        let parsed = parse_spec(&spec.text).expect("generated specs parse");
        let report = session.run_spec(&parsed);
        render_us.push(per_call_us(5, 10, || {
            black_box(report.to_wire_json().to_string());
        }));
        keys.push(session.cache_key(&parsed));
        reports.push((report.states(), report.to_wire_json().to_string()));
    }
    metrics.insert("effpi.session.render_us", stats::median(&render_us));
    let bytes: Vec<f64> = reports.iter().map(|(_, text)| text.len() as f64).collect();
    metrics.insert("effpi.session.report_bytes", mean(&bytes));

    let dir = ctx.out.join("probe-store");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    let micros = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
    let mut store = VerdictStore::open(&dir, StoreConfig::default())?;
    let mut put_us = Vec::new();
    for (key, (states, report)) in keys.iter().zip(&reports) {
        let start = Instant::now();
        store.put(*key, *states, report)?;
        put_us.push(micros(start));
    }
    let mut get_us = Vec::new();
    for _ in 0..5 {
        for key in &keys {
            let start = Instant::now();
            let found = store.get(*key)?;
            get_us.push(micros(start));
            assert!(found.is_some(), "a record just put is found");
        }
    }
    let mut compact_ms = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        store.compact()?;
        compact_ms.push(micros(start) / 1e3);
    }
    let stored = store.stats();
    metrics.insert(
        "store.bytes_per_record",
        stored.live_bytes as f64 / stored.entries as f64,
    );
    drop(store);
    let mut open_ms = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let reopened = VerdictStore::open(&dir, StoreConfig::default())?;
        open_ms.push(micros(start) / 1e3);
        assert_eq!(
            reopened.stats().entries,
            RECORDS,
            "reopening recovers every record"
        );
    }
    metrics.insert("store.put_us", stats::median(&put_us));
    metrics.insert("store.get_us", stats::median(&get_us));
    metrics.insert("store.compact_ms", stats::median(&compact_ms));
    metrics.insert("store.open_ms", stats::median(&open_ms));
    Ok(())
}

/// A connection half that notes when bytes first left and last arrived, so
/// the real client's send → receive → decode can be cut into spans from
/// outside it.
#[derive(Default)]
struct Stamps {
    first_write: Option<f64>,
    last_read: Option<f64>,
}

struct Stamped<T> {
    inner: T,
    stamps: Arc<Mutex<Stamps>>,
}

impl<T> Stamped<T> {
    fn stamps(&self) -> std::sync::MutexGuard<'_, Stamps> {
        self.stamps.lock().expect("no holder of the stamps panics")
    }
}

impl<W: Write> Write for Stamped<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stamps().first_write.get_or_insert_with(now_us);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<R: Read> Read for Stamped<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.stamps().last_read = Some(now_us());
        Ok(n)
    }
}

/// The real client library over a stamped connection to `endpoint`.
fn stamped_client(endpoint: &Endpoint) -> io::Result<(Client, Arc<Mutex<Stamps>>)> {
    let stamps = Arc::new(Mutex::new(Stamps::default()));
    fn halves<S: Read + Write + Send + 'static>(
        reader: S,
        writer: S,
        stamps: &Arc<Mutex<Stamps>>,
    ) -> Client {
        Client::from_halves(
            Box::new(Stamped {
                inner: reader,
                stamps: Arc::clone(stamps),
            }),
            Box::new(Stamped {
                inner: writer,
                stamps: Arc::clone(stamps),
            }),
        )
    }
    let client = match endpoint {
        Endpoint::Tcp(addr) => {
            let stream = std::net::TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(proc::CHILD_TIMEOUT))?;
            halves(stream.try_clone()?, stream, &stamps)
        }
        Endpoint::Unix(path) => {
            let stream = std::os::unix::net::UnixStream::connect(path)?;
            stream.set_read_timeout(Some(proc::CHILD_TIMEOUT))?;
            halves(stream.try_clone()?, stream, &stamps)
        }
    };
    Ok((client, stamps))
}

/// One traced `verify`: the client's encode, the round trip, the reply's
/// parse and decode as spans under a [`REQUEST`] root; then the server-side
/// layer calls, repeated here on the same frame, under a [`SERVER_SIDE`]
/// root of the same operation.
fn traced_verify(
    rec: &mut Recorder,
    client: &mut Client,
    stamps: &Mutex<Stamps>,
    local: &mut VerdictCache,
    spec: &GenSpec,
) -> Result<Reply, String> {
    let op = rec.next_op();
    *stamps.lock().expect("no holder of the stamps panics") = Stamps::default();
    let start = now_us();
    let id = client
        .submit_verify(&spec.text, VerifyOptions::default())
        .map_err(|e| e.to_string())?;
    let response = client.recv().map_err(|e| e.to_string())?;
    let received = now_us();
    let body = response.into_ok().map_err(|e| e.to_string())?;
    let decoded = serve::client::decode_verify(&body).map_err(|e| e.to_string())?;
    let end = now_us();
    let (first_write, last_read) = {
        let stamps = stamps.lock().expect("no holder of the stamps panics");
        (
            stamps.first_write.unwrap_or(start),
            stamps.last_read.unwrap_or(received),
        )
    };
    let root = rec.add(REQUEST, start, end, None, op);
    rec.add("serve.protocol.encode", start, first_write, Some(root), op);
    rec.add(
        "serve.server.round_trip",
        first_write,
        last_read,
        Some(root),
        op,
    );
    rec.add("wire.parse", last_read, received, Some(root), op);
    rec.add("serve.client.decode", received, end, Some(root), op);

    let verdict = Verdict::from_wire(spec, &decoded.report)?;
    let report = body.get("report").expect("decoded above").to_string();

    let frame = Request::Verify {
        id,
        spec: spec.text.clone(),
        options: VerifyOptions::default(),
    }
    .to_line();
    // The root is recorded first, so that its children can name it, and
    // closed once they are done.
    let replay_start = now_us();
    let server_side = rec.add(SERVER_SIDE, replay_start, replay_start, None, op);
    let parent = Some(server_side);
    rec.time("serve.protocol.request_parse", parent, op, || {
        black_box(Request::parse(&frame).is_ok())
    });
    let parsed = rec
        .time("effpi.spec.parse", parent, op, || parse_spec(&spec.text))
        .map_err(|e| e.to_string())?;
    let key = rec.time("effpi.fingerprint.key", parent, op, || {
        request_session().cache_key(&parsed)
    });
    if rec
        .time("serve.cache.get", parent, op, || local.get(key))
        .is_none()
    {
        local.insert(key, verdict.states, Arc::from(report.as_str()));
    }
    rec.time("serve.protocol.encode_response", parent, op, || {
        black_box(verify_response_line(id, true, &decoded.key, &report))
    });
    rec.spans[server_side].end_us = now_us();

    Ok(Reply {
        verdict,
        stable_line: decoded.report.stable_line,
        report,
        cached: decoded.cached,
    })
}

/// The cache counters of a daemon's `stats` reply: hits (LRU and disk),
/// misses, evictions.
fn cache_counters(client: &mut Client) -> Result<[f64; 3], String> {
    let stats = client.stats().map_err(|e| e.to_string())?;
    let counter = |name: &str| {
        stats
            .get("cache")
            .and_then(|cache| cache.get(name))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stats lacks cache.{name}"))
    };
    Ok([
        counter("hits")? + counter("disk_hits")?,
        counter("misses")?,
        counter("evictions")?,
    ])
}

/// One traced pass of a serve workload's seeded schedule against the
/// workload's own daemon, and what it moved of the daemon's cache counters.
/// `cli_lines` are the one-shot CLI's verdicts on the catalogue, from
/// [`common`].
pub fn serve_pass(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    cli_lines: &[Option<String>],
) -> io::Result<Traced> {
    if !["serve_warm", "serve_churn"].contains(&workload) {
        return Err(io::Error::other(format!("no serve workload {workload:?}")));
    }
    let mut rec = Recorder::default();
    let mut tally = Tally::default();
    let mut local = VerdictCache::new(CacheConfig::default());
    let catalogue = specs::catalogue();
    let resident = workloads::churn_resident();
    let (daemon, cold, endpoint) = if workload == "serve_warm" {
        let (daemon, cold) = workloads::warm_daemon(ctx, &catalogue, &mut tally)?;
        let endpoint = daemon.tcp.clone().expect("listens on TCP");
        (daemon, cold, endpoint)
    } else {
        let churn = workloads::ChurnDaemon::start(ctx, &resident, &mut tally)?;
        let endpoint = churn.daemon.unix.clone().expect("listens on a socket");
        (churn.daemon, churn.cold, endpoint)
    };
    let (mut client, stamps) = stamped_client(&endpoint)?;
    let mut plain = endpoint.connect()?;
    let before = cache_counters(&mut plain).map_err(io::Error::other)?;

    let mut traced =
        |rec: &mut Recorder, spec: &GenSpec, cold: Option<&Reply>| -> Result<Reply, String> {
            let reply = traced_verify(rec, &mut client, &stamps, &mut local, spec)?;
            if cold.is_some() {
                workloads::replays(spec, cold, &reply)?;
            }
            Ok(reply)
        };
    if workload == "serve_warm" {
        for index in Rng::new(seed).permutation(catalogue.len()) {
            let spec = &catalogue[index];
            let outcome = traced(&mut rec, spec, cold[index].as_ref()).and_then(|reply| {
                // The traced run has the CLI's verdict for every catalogue
                // spec at hand: hold the daemon to all of them.
                match &cli_lines[index] {
                    Some(line) if *line != reply.stable_line => Err(format!(
                        "{}: daemon says {:?}, CLI says {line:?}",
                        spec.name, reply.stable_line
                    )),
                    _ => Ok(()),
                }
            });
            tally.count(outcome);
        }
    } else {
        let mut draw = ChurnDraw::new(seed, 0, 1);
        for _ in 0..CHURN_PASS {
            let (class, index) = draw.next();
            let outcome = if class == Class::Fresh {
                traced(&mut rec, &specs::churn_spec(index), None).and_then(|reply| {
                    if reply.cached {
                        Err(format!("churn{index}: a never-seen spec was a cache hit"))
                    } else {
                        Ok(())
                    }
                })
            } else {
                traced(&mut rec, &resident[index], cold[index].as_ref()).map(|_| ())
            };
            tally.count(outcome);
        }
    }
    let after = cache_counters(&mut plain).map_err(io::Error::other)?;
    daemon.stop()?;
    let [hits, misses, evictions] = [0, 1, 2].map(|i| after[i] - before[i]);
    Ok(Traced {
        tally,
        metrics: BTreeMap::from([
            ("serve.cache.hit_ratio", hits / (hits + misses)),
            ("serve.cache.evictions", evictions),
        ]),
        recorder: rec,
        notes: vec![format!(
            "the daemon's cache: {hits} hits (LRU and disk), {misses} misses, {evictions} evictions"
        )],
    })
}

/// The transport's floor and the daemon's start, on a daemon of the
/// benchmark's size listening on both transports; and what a warm hit costs
/// beyond the layers timed directly.
fn daemon_probe(
    ctx: &Ctx,
    tally: &mut Tally,
    metrics: &mut BTreeMap<&'static str, f64>,
    hit_specs: &[(&GenSpec, f64)],
) -> io::Result<()> {
    // Few over TCP: each one waits out the delayed-ACK stall.
    const TCP_PINGS: usize = 30;
    const UDS_PINGS: usize = 300;
    const HIT_ROUNDS: usize = 20;
    let socket = ctx.out.join("probe.sock");
    let mut args = vec![
        "--listen",
        "127.0.0.1:0",
        "--uds",
        workloads::path_str(&socket)?,
    ];
    args.extend(workloads::DAEMON_SIZE);
    let daemon = Daemon::spawn(&ctx.product, &args)?;
    metrics.insert("serve.server.start_ms", daemon.start.as_secs_f64() * 1e3);
    let rtt = |endpoint: &Endpoint, pings: usize| -> io::Result<f64> {
        let mut client = endpoint.connect()?;
        let mut micros = Vec::new();
        for _ in 0..pings {
            let start = Instant::now();
            client.ping().map_err(|e| io::Error::other(e.to_string()))?;
            micros.push(start.elapsed().as_secs_f64() * 1e6);
        }
        Ok(stats::median(&micros))
    };
    let tcp = rtt(daemon.tcp.as_ref().expect("listens on TCP"), TCP_PINGS)?;
    let uds = rtt(
        daemon.unix.as_ref().expect("listens on a socket"),
        UDS_PINGS,
    )?;
    metrics.insert("serve.server.rtt_tcp_us", tcp);
    metrics.insert("serve.server.rtt_uds_us", uds);

    // Warm hits over the socket, where no transport stall hides the rest.
    let mut client = daemon
        .unix
        .as_ref()
        .expect("listens on a socket")
        .connect()?;
    let mut overhead = Vec::new();
    for (spec, direct_us) in hit_specs {
        let mut micros = Vec::new();
        for round in 0..=HIT_ROUNDS {
            match workloads::verify(&mut client, spec) {
                // The first round is the cold verification.
                Ok((reply, latency)) if round > 0 && reply.cached => {
                    micros.push(latency.as_secs_f64() * 1e6);
                }
                Ok(_) if round == 0 => {}
                Ok(_) => tally.count(Err(format!("{}: expected a cache hit", spec.name))),
                Err(reason) => tally.count(Err(reason)),
            }
        }
        if !micros.is_empty() {
            overhead.push(stats::median(&micros) - direct_us);
        }
    }
    metrics.insert("serve.server.hit_overhead_us", mean(&overhead));
    daemon.stop()?;
    Ok(())
}

/// What a traced run measures whatever the traffic, and the one-shot CLI's
/// verdicts on the catalogue, for [`serve_pass`] to hold a daemon to. When a
/// catalogue spec fails, the metrics are left out: none can be computed
/// without the whole pass.
pub fn common(ctx: &Ctx, seed: u64) -> io::Result<(Traced, Vec<Option<String>>)> {
    let mut rec = Recorder::default();
    let mut tally = Tally::default();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = Vec::new();
    let catalogue = specs::catalogue();
    let startup_spec = specs::churn_spec(0);
    workloads::write_specs(ctx, &catalogue)?;
    workloads::write_specs(ctx, std::slice::from_ref(&startup_spec))?;

    // The catalogue in fresh processes, serial: traced (replay-one), and
    // untraced through the real CLI for the reference wall time.
    let mut serial: Vec<Option<(Child, Reaped)>> = catalogue.iter().map(|_| None).collect();
    let mut cli_walls = vec![0f64; catalogue.len()];
    let mut cli_lines: Vec<Option<String>> = vec![None; catalogue.len()];
    for index in Rng::new(seed).permutation(catalogue.len()) {
        let spec = &catalogue[index];
        let (child, reaped) = replay_child(ctx, &mut rec, CHILD, spec, 1)?;
        let (cli, cli_reaped) = workloads::cli_verify(ctx, spec, 1)?;
        cli_walls[index] = cli_reaped.wall.as_secs_f64();
        let outcome = child.and_then(|child| {
            let verdict = replayed_verdict(ctx, spec, &child)?;
            let cli = cli?;
            if cli != verdict {
                return Err(format!(
                    "{}: replay-one says {verdict:?}, CLI says {cli:?}",
                    spec.name
                ));
            }
            cli_lines[index] = Some(cli.stable_line(spec));
            Ok(child)
        });
        match outcome {
            Ok(child) => {
                serial[index] = Some((child, reaped));
                tally.count(Ok(()));
            }
            Err(reason) => tally.count(Err(reason)),
        }
    }
    if serial.iter().any(Option::is_none) {
        let traced = Traced {
            tally,
            metrics,
            recorder: rec,
            notes,
        };
        return Ok((traced, cli_lines));
    }
    let serial: Vec<(Child, Reaped)> = serial.into_iter().flatten().collect();

    let sum = |name: &str| {
        serial
            .iter()
            .map(|(child, _)| child.micros(name))
            .sum::<f64>()
    };
    let states: usize = serial.iter().map(|(child, _)| child.states).sum();
    let explore_us = sum(replay::EXPLORE);
    metrics.insert("lts.explore_s", explore_us / 1e6);
    metrics.insert("lts.us_per_state", explore_us / states as f64);
    metrics.insert("lts.states", states as f64);
    metrics.insert(
        "lts.transitions",
        serial.iter().map(|(c, _)| c.transitions).sum::<usize>() as f64,
    );
    let (safety_us, liveness_us) = (sum(replay::CHECK_SAFETY), sum(replay::CHECK_LIVENESS));
    let checks = |safety: bool| {
        catalogue
            .iter()
            .flat_map(|s| &s.checks)
            .filter(|c| replay::is_safety(c) == safety)
            .count() as f64
    };
    metrics.insert("mucalc.check_s", (safety_us + liveness_us) / 1e6);
    metrics.insert("mucalc.check_safety_us", safety_us / checks(true));
    metrics.insert("mucalc.check_liveness_us", liveness_us / checks(false));
    let total =
        |field: fn(&Child) -> u64| serial.iter().map(|(child, _)| field(child)).sum::<u64>() as f64;
    metrics.insert(
        "dbt-types.subtype_derivations",
        total(|c| c.subtype_derivations),
    );
    metrics.insert(
        "dbt-types.interact_derivations",
        total(|c| c.interact_derivations),
    );
    let (hits, misses) = (total(|c| c.memo_hits), total(|c| c.memo_misses));
    metrics.insert("dbt-types.memo_hit_ratio", hits / (hits + misses));
    metrics.insert("lambdapi.intern.nodes", total(|c| c.intern_nodes));

    // What a fresh-process verdict spends outside every layer span (start,
    // exit, the session's own set-up), and what replaying under spans costs
    // against the real CLI on the same specs.
    let cli_wall: f64 = cli_walls.iter().sum();
    let replay_wall: f64 = serial
        .iter()
        .map(|(_, reaped)| reaped.wall.as_secs_f64())
        .sum();
    let layers_s: f64 = serial
        .iter()
        .map(|(child, _)| {
            child
                .spans
                .iter()
                .map(|(_, start, end)| end - start)
                .sum::<f64>()
                / 1e6
        })
        .sum();
    metrics.insert("cli.other_share", (replay_wall - layers_s) / replay_wall);
    metrics.insert("trace.overhead_share", (replay_wall - cli_wall) / cli_wall);

    // The parallel workload's pass: the same children at its `--jobs`.
    let (mut wall_1, mut wall_j, mut cpu_1, mut cpu_j) = (0f64, 0f64, 0f64, 0f64);
    for (index, spec) in catalogue.iter().enumerate() {
        if !specs::PAR_SPECS.contains(&spec.name.as_str()) {
            continue;
        }
        let (child, reaped) = replay_child(ctx, &mut rec, CHILD_PAR, spec, ctx.par_jobs)?;
        let (serial_child, serial_reaped) = &serial[index];
        tally.count(child.and_then(|child| {
            if child.stable_line != serial_child.stable_line {
                return Err(format!(
                    "{}: {} jobs and 1 job disagree",
                    spec.name, ctx.par_jobs
                ));
            }
            Ok(())
        }));
        wall_1 += serial_reaped.wall.as_secs_f64();
        cpu_1 += serial_reaped.cpu.as_secs_f64();
        wall_j += reaped.wall.as_secs_f64();
        cpu_j += reaped.cpu.as_secs_f64();
    }
    metrics.insert("lts.par_speedup", wall_1 / wall_j);
    metrics.insert("lts.par_cpu_ratio", cpu_j / cpu_1);

    // The cold-interner premium: a first exploration in a fresh process
    // against a second one in the same process on a fresh session.
    let (mut first_us, mut again_us) = (0f64, 0f64);
    for spec in catalogue
        .iter()
        .filter(|s| EXPLORED_AGAIN.contains(&s.name.as_str()))
    {
        match replay_child(ctx, &mut rec, CHILD_AGAIN, spec, 1)? {
            (Ok(child), _) => {
                first_us += child.micros(replay::EXPLORE);
                again_us += child.micros(replay::REBUILD);
                tally.count(Ok(()));
            }
            (Err(reason), _) => tally.count(Err(reason)),
        }
    }
    metrics.insert("lambdapi.intern.cold_over_warm", first_us / again_us);

    // The floor of any one-shot verdict: a fresh process that only parses.
    let startup_path = workloads::spec_path(ctx, &startup_spec);
    let mut startup_ms = Vec::new();
    for _ in 0..30 {
        let (_, reaped) = proc::run(ctx.product.command().arg("parse").arg(&startup_path))?;
        startup_ms.push(reaped.wall.as_secs_f64() * 1e3);
    }
    metrics.insert("cli.startup_ms", stats::median(&startup_ms));

    // The request path, called directly on each catalogue spec's frames.
    let directs: Vec<Direct> = catalogue
        .iter()
        .zip(&serial)
        .map(|(spec, (child, _))| direct(spec, &child.key, &child.report))
        .collect();
    let column = |field: fn(&Direct) -> f64| mean(&directs.iter().map(field).collect::<Vec<_>>());
    metrics.insert("effpi.spec.parse_us", column(|d| d.parse));
    let (bytes, parse_s) = directs
        .iter()
        .fold((0usize, 0f64), |(b, s), d| (b + d.bytes, s + d.parse / 1e6));
    metrics.insert("effpi.spec.bytes_per_s", bytes as f64 / parse_s);
    metrics.insert("effpi.fingerprint.key_us", column(|d| d.key));
    metrics.insert(
        "serve.protocol.request_parse_us",
        column(|d| d.request_parse),
    );
    metrics.insert("serve.protocol.encode_us", column(|d| d.encode));
    metrics.insert("wire.parse_us", column(|d| d.wire_parse));
    metrics.insert("serve.client.decode_us", column(|d| d.decode));

    // Step 1 on the one catalogue spec with a term; a fresh session each
    // time, as a daemon request gets, so no memo table answers for it.
    let send_once = parse_spec(&specs::send_once().text).expect("generated specs parse");
    let (term, ty) = (
        send_once.term.as_ref().expect("has a term"),
        send_once.ty.as_ref().expect("has a type"),
    );
    let typecheck_us: Vec<f64> = (0..200)
        .map(|_| {
            let session = request_session();
            let start = Instant::now();
            black_box(session.type_check(&send_once.env, term, ty).is_ok());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    metrics.insert("dbt-types.typecheck_us", stats::median(&typecheck_us));

    cache_probe(&mut metrics);
    store_probe(ctx, &mut metrics)?;

    // Warm hits are probed on the catalogue specs that are cheap to verify
    // cold; their remainder is taken against their own direct timings.
    let hit_specs: Vec<(&GenSpec, f64)> = catalogue
        .iter()
        .zip(&directs)
        .zip(&serial)
        .filter(|((_, _), (child, _))| child.states < 2_000)
        .map(|((spec, direct), _)| (spec, direct.sum()))
        .collect();
    daemon_probe(ctx, &mut tally, &mut metrics, &hit_specs)?;

    notes.push(format!(
        "real CLI wall Σ {cli_wall:.3} s, replay-one wall Σ {replay_wall:.3} s, layer spans Σ {layers_s:.3} s (catalogue, 1 job)"
    ));
    notes.push(format!(
        "{} jobs on the specs of 2 000+ states: wall {wall_1:.3} → {wall_j:.3} s, cpu {cpu_1:.3} → {cpu_j:.3} s",
        ctx.par_jobs
    ));
    assert!(metrics.keys().eq(&COMMON), "every common per-layer metric");
    let traced = Traced {
        tally,
        metrics,
        recorder: rec,
        notes,
    };
    Ok((traced, cli_lines))
}

/// The self-time table of a traced run, printed.
pub fn self_time_table(rec: &Recorder) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<16} {:<34} {:>7} {:>13} {:>13} {:>7}",
        "root", "span", "count", "total ms", "self ms", "share"
    )];
    for row in rec.self_times() {
        lines.push(format!(
            "{:<16} {:<34} {:>7} {:>13.3} {:>13.3} {:>6.1}%",
            row.root,
            row.name,
            row.count,
            row.total_us / 1e3,
            row.self_us / 1e3,
            100.0 * row.self_us / row.root_total_us
        ));
    }
    lines
}
