//! The four workloads, untraced: what a user of `effpi-cli` and of the
//! `effpi-serve` daemon waits for. `benchmark/README.md` says why each one
//! was chosen.
//!
//! Load is closed-loop throughout: every caller of a verifier waits for its
//! verdict before it asks again.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use serve::{Client, VerifyOptions};

use crate::check::{Expected, Verdict};
use crate::proc::{self, Daemon, Endpoint, Product, Reaped};
use crate::specs::{self, ChurnDraw, Class, GenSpec, Rng, HOT, TAIL};
use crate::stats;

pub const WORKLOADS: [&str; 4] = ["cli_fig9", "cli_fig9_par", "serve_warm", "serve_churn"];

const CLI: [&str; 2] = ["cli_fig9", "cli_fig9_par"];
const SERVE: [&str; 2] = ["serve_warm", "serve_churn"];

/// The end-to-end metrics and the workloads each is defined on
/// (`BENCHMARK.json` has their units, directions and bounds;
/// `benchmark/README.md` their definitions). `run` records a metric, and
/// `compare` judges it, on those workloads only.
///
/// The driver's contract wants more: "with `--trace 0` the metrics are every
/// `end_to_end` metric", none of them ever 0, whatever the workload. So the
/// result object of a run also carries, for each metric not defined on its
/// workload, a stand-in: the workload's own time to one verdict, in the
/// metric's unit (see [`stand_ins`]).
pub const END_TO_END: [(&str, &[&str]); 9] = [
    ("fresh_p50_ms", &["serve_churn"]),
    ("latency_p50_ms", &SERVE),
    ("latency_p95_ms", &["serve_warm"]),
    ("peak_rss_mb", &WORKLOADS),
    ("req_per_s", &SERVE),
    ("setup_s", &WORKLOADS),
    ("states_per_s", &CLI),
    ("tail_p50_ms", &["serve_churn"]),
    ("verdict_wall_s", &CLI),
];

/// Whether `metric` is defined on `workload`, or only stood in for there.
pub fn defined_on(metric: &str, workload: &str) -> bool {
    END_TO_END
        .iter()
        .any(|(name, workloads)| *name == metric && workloads.contains(&workload))
}

/// Client threads (and connections) of the serve workloads, and the daemon's
/// `--workers`/`--jobs`: what fits the two hardware threads this benchmark
/// was sized on without the load generator starving the daemon.
pub const CLIENTS: usize = 2;

/// The state bound every verification runs under, on every surface (it is
/// part of the cache key, so the CLI and the daemon must agree on it).
const MAX_STATES: &str = "500000";

/// Catalogue specs cheap enough (under half a second cold) to verify once
/// more through the one-shot CLI after a serve window, to hold the daemon's
/// verdicts to the CLI's.
const CROSS_CHECKED: [&str; 7] = [
    "pay4",
    "pingpong4",
    "pingpong4_resp",
    "pingpong6",
    "pingpong6_resp",
    "ring8",
    "send_once",
];

/// What a run needs from its surroundings.
pub struct Ctx {
    pub product: Product,
    /// Scratch directory for spec files, sockets and stores.
    pub out: PathBuf,
    pub expected: Expected,
    /// `--jobs` of the `cli_fig9_par` workload.
    pub par_jobs: usize,
}

/// One end-to-end metric value and the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

fn measured(value: f64, samples: usize) -> Measured {
    Measured { value, samples }
}

/// Completes `metrics`, which holds what is defined on the workload, with a
/// stand-in for every other end-to-end metric: the workload's time to one
/// verdict (`verdict_ms`, for a spec of `states` states), as seconds for
/// `verdict_wall_s`, as its reciprocal for the two rates, and as it is for
/// the latencies. Each follows a metric that is defined on the workload, so
/// it can never be the only one to move.
fn stand_ins(metrics: &mut BTreeMap<&'static str, Measured>, verdict_ms: Measured, states: f64) {
    for (name, _) in END_TO_END {
        let value = match name {
            "verdict_wall_s" => verdict_ms.value / 1e3,
            "states_per_s" => states * 1e3 / verdict_ms.value,
            "req_per_s" => 1e3 / verdict_ms.value,
            _ => verdict_ms.value,
        };
        metrics
            .entry(name)
            .or_insert(measured(value, verdict_ms.samples));
    }
}

/// Attempted and failed operations, with the first few reasons.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; an `Err` is a failed one.
    pub fn count(&mut self, op: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = op {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(reason);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(5);
    }
}

/// The result of one workload run.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Human-readable detail printed above the result: per-spec medians,
    /// the highest supported percentile, reported (not gated) counts.
    pub notes: Vec<String>,
}

pub fn run(ctx: &Ctx, workload: &str, seed: u64, seconds: u64) -> io::Result<Outcome> {
    let window = Duration::from_secs(seconds);
    let outcome = match workload {
        "cli_fig9" => cli(ctx, specs::catalogue(), 1, seed, window),
        "cli_fig9_par" => cli(ctx, par_specs(), ctx.par_jobs, seed, window),
        "serve_warm" => serve_warm(ctx, seed, window),
        "serve_churn" => serve_churn(ctx, seed, window),
        other => Err(io::Error::other(format!("unknown workload {other:?}"))),
    }?;
    assert!(
        outcome
            .metrics
            .keys()
            .eq(END_TO_END.iter().map(|(name, _)| name)),
        "{workload} reports every end-to-end metric"
    );
    Ok(outcome)
}

pub fn par_specs() -> Vec<GenSpec> {
    specs::catalogue()
        .into_iter()
        .filter(|s| specs::PAR_SPECS.contains(&s.name.as_str()))
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn spec_path(ctx: &Ctx, spec: &GenSpec) -> PathBuf {
    ctx.out.join("specs").join(format!("{}.effpi", spec.name))
}

pub fn write_specs(ctx: &Ctx, specs: &[GenSpec]) -> io::Result<()> {
    std::fs::create_dir_all(ctx.out.join("specs"))?;
    for spec in specs {
        std::fs::write(spec_path(ctx, spec), &spec.text)?;
    }
    Ok(())
}

/// One fresh `effpi-cli verify SPEC --max-states 500000 --jobs JOBS`, checked
/// against the pinned cells.
pub fn cli_verify(
    ctx: &Ctx,
    spec: &GenSpec,
    jobs: usize,
) -> io::Result<(Result<Verdict, String>, Reaped)> {
    let (stdout, reaped) = proc::run(
        ctx.product
            .command()
            .arg("verify")
            .arg(spec_path(ctx, spec))
            .args(["--max-states", MAX_STATES, "--jobs", &jobs.to_string()]),
    )?;
    let verdict = Verdict::from_cli(spec, &stdout, reaped.code)
        .and_then(|verdict| ctx.expected.check(spec, &verdict).map(|()| verdict))
        .map_err(|e| format!("cli {}: {e}", spec.name));
    Ok((verdict, reaped))
}

/// Set-up of the CLI workloads: write the spec files, have the real binary
/// parse each (so a generator or build gone wrong fails here and not inside
/// the window), and warm up with one unmeasured verdict on `pay4`, the
/// cheapest spec both CLI workloads share, so that no measured verdict pays
/// for paging the binary in. Repeated, because it is short; the median is
/// reported.
fn cli_setup(ctx: &Ctx, specs: &[GenSpec]) -> io::Result<Measured> {
    const REPEATS: usize = 7;
    let warm_up = specs
        .iter()
        .find(|s| s.name == "pay4")
        .expect("both CLI workloads verify pay4");
    let mut seconds = Vec::new();
    for _ in 0..REPEATS {
        let start = Instant::now();
        write_specs(ctx, specs)?;
        for spec in specs {
            let (_, reaped) =
                proc::run(ctx.product.command().arg("parse").arg(spec_path(ctx, spec)))?;
            if reaped.code != Some(0) {
                return Err(io::Error::other(format!(
                    "effpi-cli cannot parse {}",
                    spec.name
                )));
            }
        }
        // One job whatever the workload's: a serial verdict is the steadier
        // clock. Its verdict is not judged here; the measured ones are.
        let (_unjudged, _) = cli_verify(ctx, warm_up, 1)?;
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok(measured(stats::median(&seconds), REPEATS))
}

/// A spec is verified as often as fits this share of the window, judged by
/// its first verdict: at least once, and at most [`MAX_SAMPLES`] times. The
/// cheap specs get their five samples for a few seconds in all; the
/// 24 914-state one takes a third of the window for its single one.
const WINDOW_SHARE: f64 = 0.25;
const MAX_SAMPLES: usize = 5;

/// `cli_fig9` and `cli_fig9_par`: one fresh process per verdict. A first
/// shuffled pass verifies every spec; further shuffled rounds repeat the
/// specs that are still owed samples, so a spec's samples spread over the
/// run.
fn cli(
    ctx: &Ctx,
    specs: Vec<GenSpec>,
    jobs: usize,
    seed: u64,
    window: Duration,
) -> io::Result<Outcome> {
    let setup = cli_setup(ctx, &specs)?;
    let mut rng = Rng::new(seed);
    let mut tally = Tally::default();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut states = vec![0usize; specs.len()];
    let mut peak_rss = 0f64;
    for round in 0..MAX_SAMPLES {
        for index in rng.permutation(specs.len()) {
            let owed = match walls[index].first() {
                Some(first) => {
                    ((WINDOW_SHARE * window.as_secs_f64() / first) as usize).clamp(1, MAX_SAMPLES)
                }
                None => 1,
            };
            if round >= owed {
                continue;
            }
            let (verdict, reaped) = cli_verify(ctx, &specs[index], jobs)?;
            walls[index].push(reaped.wall.as_secs_f64());
            peak_rss = peak_rss.max(reaped.peak_rss_mb);
            if let Ok(verdict) = &verdict {
                states[index] = verdict.states;
            }
            tally.count(verdict.map(|_| ()));
        }
    }

    let medians: Vec<f64> = walls.iter().map(|w| stats::median(w)).collect();
    let verdict_wall: f64 = medians.iter().sum();
    let median_ms: Vec<f64> = medians.iter().map(|s| s * 1e3).collect();
    let ops = tally.attempted as usize;
    let total_states = states.iter().sum::<usize>() as f64;
    let mut metrics = BTreeMap::from([
        ("setup_s", setup),
        ("verdict_wall_s", measured(verdict_wall, ops)),
        ("states_per_s", measured(total_states / verdict_wall, ops)),
        ("peak_rss_mb", measured(peak_rss, ops)),
    ]);
    // One verdict: the median spec, each weighing once however often it ran.
    stand_ins(
        &mut metrics,
        measured(stats::median(&median_ms), specs.len()),
        total_states / specs.len() as f64,
    );
    let notes = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            format!(
                "{:<18} {:>6} states  median wall {:>9.3} ms  ({} samples)",
                spec.name,
                states[i],
                median_ms[i],
                walls[i].len()
            )
        })
        .collect();
    Ok(Outcome {
        tally,
        metrics,
        notes,
    })
}

/// A daemon's answer to one `verify`, with the report's exact bytes.
pub struct Reply {
    pub verdict: Verdict,
    pub stable_line: String,
    pub report: String,
    pub cached: bool,
}

/// One `verify` round trip through the real client library: send, receive,
/// decode. Returns the reply and the client-observed latency, which ends
/// when the reply is decoded, before any checking.
pub fn verify(client: &mut Client, spec: &GenSpec) -> Result<(Reply, Duration), String> {
    let start = Instant::now();
    let sent = client
        .submit_verify(&spec.text, VerifyOptions::default())
        .map_err(|e| e.to_string())
        .and_then(|id| {
            let response = client.recv().map_err(|e| e.to_string())?;
            if response.id != Some(id) {
                return Err(format!("reply to {:?}, asked {id}", response.id));
            }
            response.into_ok().map_err(|e| e.to_string())
        })
        .and_then(|body| {
            let decoded = serve::client::decode_verify(&body).map_err(|e| e.to_string())?;
            Ok((body, decoded))
        });
    let latency = start.elapsed();
    let (body, decoded) = sent.map_err(|e| format!("daemon {}: {e}", spec.name))?;
    let verdict = Verdict::from_wire(spec, &decoded.report)
        .map_err(|e| format!("daemon {}: {e}", spec.name))?;
    let report = body.get("report").expect("decoded above").to_string();
    Ok((
        Reply {
            verdict,
            stable_line: decoded.report.stable_line,
            report,
            cached: decoded.cached,
        },
        latency,
    ))
}

fn connect(endpoint: &Endpoint) -> io::Result<Client> {
    let mut client = endpoint.connect()?;
    client.set_timeout(Some(proc::CHILD_TIMEOUT))?;
    Ok(client)
}

/// Runs `CLIENTS` closed-loop client threads against `endpoint`. Each thread
/// owns a connection and the state `init` made for it, and calls `op` until
/// it returns `None`; an `Err` is a failed operation. Returns what the
/// operations yielded, each thread's final state, and the tally.
fn clients<S, T, I, F>(endpoint: &Endpoint, init: I, op: F) -> io::Result<(Vec<T>, Vec<S>, Tally)>
where
    S: Send,
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, &mut Client) -> Option<Result<T, String>> + Sync,
{
    let per_client: Vec<io::Result<(Vec<T>, S, Tally)>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|number| {
                let (init, op) = (&init, &op);
                scope.spawn(move || {
                    let mut client = connect(endpoint)?;
                    let mut state = init(number);
                    let mut yielded = Vec::new();
                    let mut tally = Tally::default();
                    while let Some(outcome) = op(&mut state, &mut client) {
                        tally.count(outcome.map(|value| yielded.push(value)));
                    }
                    Ok((yielded, state, tally))
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a client thread panicked"))
            .collect()
    });
    let (mut yielded, mut states, mut tally) = (Vec::new(), Vec::new(), Tally::default());
    for result in per_client {
        let (client_yielded, state, client_tally) = result?;
        yielded.extend(client_yielded);
        states.push(state);
        tally.merge(client_tally);
    }
    Ok((yielded, states, tally))
}

/// Verifies `specs` cold (each client takes the next unclaimed spec) and
/// returns the replies in spec order.
fn populate(
    endpoint: &Endpoint,
    specs: &[GenSpec],
    expected: &Expected,
    tally: &mut Tally,
) -> io::Result<Vec<Option<Reply>>> {
    let next = AtomicUsize::new(0);
    let (replies, _, populate_tally) = clients(
        endpoint,
        |_| (),
        |(), client| {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let spec = specs.get(index)?;
            Some(verify(client, spec).and_then(|(reply, _)| {
                if reply.cached {
                    return Err(format!("{}: first request was a cache hit", spec.name));
                }
                expected
                    .check(spec, &reply.verdict)
                    .map_err(|e| format!("daemon {e}"))?;
                Ok((index, reply))
            }))
        },
    )?;
    tally.merge(populate_tally);
    let mut cold: Vec<Option<Reply>> = specs.iter().map(|_| None).collect();
    for (index, reply) in replies {
        cold[index] = Some(reply);
    }
    Ok(cold)
}

/// Whether a later reply replays the cold one byte for byte from a cache.
pub fn replays(spec: &GenSpec, cold: Option<&Reply>, reply: &Reply) -> Result<(), String> {
    let cold = cold.ok_or_else(|| format!("{}: no cold reply to compare with", spec.name))?;
    if !reply.cached {
        return Err(format!("{}: expected a cache hit", spec.name));
    }
    if reply.report != cold.report {
        return Err(format!(
            "{}: cached reply differs from the cold reply",
            spec.name
        ));
    }
    Ok(())
}

/// Holds a daemon's verdict to the one-shot CLI's for the same spec.
fn cross_check(ctx: &Ctx, spec: &GenSpec, stable_line: &str) -> io::Result<Result<(), String>> {
    write_specs(ctx, std::slice::from_ref(spec))?;
    let (verdict, _) = cli_verify(ctx, spec, 1)?;
    Ok(verdict.and_then(|verdict| {
        let cli_line = verdict.stable_line(spec);
        if cli_line == stable_line {
            Ok(())
        } else {
            Err(format!(
                "{}: daemon says {stable_line:?}, CLI says {cli_line:?}",
                spec.name
            ))
        }
    }))
}

/// One answered request of a serve window.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: Class,
    pub ms: f64,
}

/// [`clients`] for the length of a window: `op` performs one request and
/// returns its sample, or why it failed. Returns the samples, each thread's
/// final state, the tally, and the seconds the window really took.
fn drive<S, I, F>(
    endpoint: &Endpoint,
    window: Duration,
    init: I,
    op: F,
) -> io::Result<(Vec<Sample>, Vec<S>, Tally, f64)>
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, &mut Client) -> Result<Sample, String> + Sync,
{
    let start = Instant::now();
    let (samples, states, tally) = clients(endpoint, init, |state, client| {
        (start.elapsed() < window).then(|| op(state, client))
    })?;
    Ok((samples, states, tally, start.elapsed().as_secs_f64()))
}

/// The arguments every benchmark daemon shares.
pub const DAEMON_SIZE: [&str; 4] = ["--workers", "2", "--jobs", "2"];

/// Spawns the `serve_warm` daemon (TCP, default LRU, no store) and verifies
/// the catalogue cold, so every spec is LRU-resident.
pub fn warm_daemon(
    ctx: &Ctx,
    catalogue: &[GenSpec],
    tally: &mut Tally,
) -> io::Result<(Daemon, Vec<Option<Reply>>)> {
    let mut args = vec!["--listen", "127.0.0.1:0"];
    args.extend(DAEMON_SIZE);
    let daemon = Daemon::spawn(&ctx.product, &args)?;
    let cold = populate(
        daemon.tcp.as_ref().expect("listens on TCP"),
        catalogue,
        &ctx.expected,
        tally,
    )?;
    Ok((daemon, cold))
}

fn class_ms(samples: &[Sample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.ms)
        .collect()
}

fn percentile_note(latencies: &[f64]) -> String {
    match stats::highest_supported(latencies) {
        Some((p, value)) => format!(
            "highest percentile with ten samples beyond it: p{p} = {value:.3} ms ({} samples)",
            latencies.len()
        ),
        None => format!(
            "too few samples ({}) for a tail percentile",
            latencies.len()
        ),
    }
}

/// `serve_warm`: LRU hits over the default TCP transport.
fn serve_warm(ctx: &Ctx, seed: u64, window: Duration) -> io::Result<Outcome> {
    let catalogue = specs::catalogue();
    let mut tally = Tally::default();
    let setup_start = Instant::now();
    let (daemon, cold) = warm_daemon(ctx, &catalogue, &mut tally)?;
    let setup = setup_start.elapsed().as_secs_f64();

    let endpoint = daemon.tcp.clone().expect("listens on TCP");
    let (samples, _, window_tally, elapsed) = drive(
        &endpoint,
        window,
        // Each client walks its own seeded order of the catalogue, round-robin.
        |number| {
            (
                Rng::new(seed.wrapping_add(number as u64)).permutation(catalogue.len()),
                0usize,
            )
        },
        |(order, sent), client| {
            let index = order[*sent % order.len()];
            *sent += 1;
            let spec = &catalogue[index];
            let (reply, latency) = verify(client, spec)?;
            replays(spec, cold[index].as_ref(), &reply)?;
            Ok(Sample {
                class: Class::Hot,
                ms: ms(latency),
            })
        },
    )?;
    tally.merge(window_tally);

    for (spec, cold) in catalogue.iter().zip(&cold) {
        if !CROSS_CHECKED.contains(&spec.name.as_str()) {
            continue;
        }
        let outcome = match cold {
            Some(reply) => cross_check(ctx, spec, &reply.stable_line)?,
            None => Err(format!("{}: no cold reply to cross-check", spec.name)),
        };
        tally.count(outcome);
    }
    let reaped = daemon.stop()?;

    let all = class_ms(&samples, Class::Hot);
    let n = all.len();
    let p50 = measured(stats::median(&all), n);
    let states: usize = cold.iter().flatten().map(|r| r.verdict.states).sum();
    let mut metrics = BTreeMap::from([
        ("setup_s", measured(setup, 1)),
        ("peak_rss_mb", measured(reaped.peak_rss_mb, 1)),
        ("req_per_s", measured(n as f64 / elapsed, n)),
        ("latency_p50_ms", p50),
        ("latency_p95_ms", measured(stats::p95(&all), n)),
    ]);
    stand_ins(&mut metrics, p50, states as f64 / catalogue.len() as f64);
    Ok(Outcome {
        tally,
        metrics,
        notes: vec![percentile_note(&all)],
    })
}

/// The `serve_churn` daemon: Unix socket, a 64-entry LRU over a persistent
/// store.
pub struct ChurnDaemon {
    pub daemon: Daemon,
    /// Cold replies of the `HOT + TAIL` pre-populated specs.
    pub cold: Vec<Option<Reply>>,
    /// Peak RSS of the first daemon, the one that verified them.
    pub populate_rss_mb: f64,
}

/// The pre-populated churn specs.
pub fn churn_resident() -> Vec<GenSpec> {
    (0..HOT + TAIL).map(specs::churn_spec).collect()
}

impl ChurnDaemon {
    /// Verifies the pre-populated specs cold into an empty store, restarts
    /// the daemon over that store (a disk-warm start), and touches the hot
    /// keys so they are LRU-resident.
    pub fn start(ctx: &Ctx, resident: &[GenSpec], tally: &mut Tally) -> io::Result<ChurnDaemon> {
        let store = ctx.out.join("churn-store");
        if store.exists() {
            std::fs::remove_dir_all(&store)?;
        }
        let socket = ctx.out.join("churn.sock");
        let (socket, store) = (path_str(&socket)?, path_str(&store)?);
        let mut args = vec!["--uds", socket, "--cache-entries", "64", "--store", store];
        args.extend(DAEMON_SIZE);

        let first = Daemon::spawn(&ctx.product, &args)?;
        let cold = populate(
            first.unix.as_ref().expect("listens on a socket"),
            resident,
            &ctx.expected,
            tally,
        )?;
        let populate_rss_mb = first.stop()?.peak_rss_mb;

        let daemon = Daemon::spawn(&ctx.product, &args)?;
        let mut client = connect(daemon.unix.as_ref().expect("listens on a socket"))?;
        for (spec, cold) in resident.iter().zip(&cold).take(HOT) {
            tally.count(
                verify(&mut client, spec)
                    .and_then(|(reply, _)| replays(spec, cold.as_ref(), &reply)),
            );
        }
        Ok(ChurnDaemon {
            daemon,
            cold,
            populate_rss_mb,
        })
    }
}

pub fn path_str(path: &Path) -> io::Result<&str> {
    path.to_str()
        .ok_or_else(|| io::Error::other("a non-UTF-8 path"))
}

/// `serve_churn`: hot, tail and fresh requests side by side on the cache
/// tiers, over a Unix socket.
fn serve_churn(ctx: &Ctx, seed: u64, window: Duration) -> io::Result<Outcome> {
    const SETUPS: usize = 5;
    let resident = churn_resident();
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut populate_rss = Vec::new();
    let mut started = None;
    for _ in 0..SETUPS {
        // Only the last set-up's daemon is measured; the earlier ones are
        // stopped here so that each repetition starts from nothing.
        if let Some(ChurnDaemon { daemon, .. }) = started.take() {
            daemon.stop()?;
        }
        let start = Instant::now();
        let churn = ChurnDaemon::start(ctx, &resident, &mut tally)?;
        setups.push(start.elapsed().as_secs_f64());
        populate_rss.push(churn.populate_rss_mb);
        started = Some(churn);
    }
    let ChurnDaemon { daemon, cold, .. } = started.expect("set up at least once");

    let endpoint = daemon.unix.clone().expect("listens on a socket");
    let (samples, clients, window_tally, elapsed) = drive(
        &endpoint,
        window,
        // Per client: its draw, and its first fresh replies, which are
        // cross-checked after the window.
        |number| {
            (
                ChurnDraw::new(seed, number, CLIENTS),
                Vec::<(usize, String)>::new(),
            )
        },
        |(draw, fresh_seen), client| {
            let (class, index) = draw.next();
            let fresh;
            let spec = match class {
                Class::Fresh => {
                    fresh = specs::churn_spec(index);
                    &fresh
                }
                _ => &resident[index],
            };
            let (reply, latency) = verify(client, spec)?;
            if class != Class::Fresh {
                replays(spec, cold[index].as_ref(), &reply)?;
            } else if reply.cached {
                return Err(format!("{}: a never-seen spec was a cache hit", spec.name));
            } else if fresh_seen.len() < 2 {
                fresh_seen.push((index, reply.stable_line));
            }
            Ok(Sample {
                class,
                ms: ms(latency),
            })
        },
    )?;
    tally.merge(window_tally);

    // Hold a few verdicts of each class to the one-shot CLI's.
    let mut rng = Rng::new(seed);
    let mut picks: Vec<(GenSpec, String)> = Vec::new();
    for index in [
        rng.below(HOT),
        rng.below(HOT),
        HOT + rng.below(TAIL),
        HOT + rng.below(TAIL),
    ] {
        if let Some(reply) = &cold[index] {
            picks.push((resident[index].clone(), reply.stable_line.clone()));
        }
    }
    for (index, line) in clients.into_iter().flat_map(|(_, fresh_seen)| fresh_seen) {
        picks.push((specs::churn_spec(index), line));
    }
    for (spec, line) in &picks {
        tally.count(cross_check(ctx, spec, line)?);
    }
    let window_rss = daemon.stop()?.peak_rss_mb;

    let (hot, tail, fresh) = (
        class_ms(&samples, Class::Hot),
        class_ms(&samples, Class::Tail),
        class_ms(&samples, Class::Fresh),
    );
    let all: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let n = all.len();
    let p50 = measured(stats::median(&all), n);
    let resident_states: Vec<f64> = cold
        .iter()
        .flatten()
        .map(|r| r.verdict.states as f64)
        .collect();
    let mut metrics = BTreeMap::from([
        ("setup_s", measured(stats::median(&setups), SETUPS)),
        // Of the daemons that verified the pre-populated specs: fixed work,
        // and the median of them, as one such daemon in a few peaks a tenth
        // above the others (9.5 MB for 8.4). The window's daemon interns
        // every fresh spec it is sent, so its peak grows with its own
        // throughput; it is printed, not measured.
        (
            "peak_rss_mb",
            measured(stats::median(&populate_rss), SETUPS),
        ),
        ("req_per_s", measured(n as f64 / elapsed, n)),
        ("latency_p50_ms", p50),
        ("tail_p50_ms", measured(stats::median(&tail), tail.len())),
        ("fresh_p50_ms", measured(stats::median(&fresh), fresh.len())),
    ]);
    stand_ins(
        &mut metrics,
        p50,
        resident_states.iter().sum::<f64>() / resident_states.len() as f64,
    );
    let notes = vec![
        percentile_note(&all),
        format!(
            "hot  p50 {:.3} ms ({} samples)",
            stats::median(&hot),
            hot.len()
        ),
        format!(
            "tail p50 {:.3} ms ({} samples)",
            stats::median(&tail),
            tail.len()
        ),
        format!(
            "fresh p50 {:.3} ms ({} samples)",
            stats::median(&fresh),
            fresh.len()
        ),
        format!(
            "peak RSS of the set-ups' daemons: {populate_rss:.1?} MB; of the window's daemon: {window_rss:.1} MB"
        ),
    ];
    Ok(Outcome {
        tally,
        metrics,
        notes,
    })
}
