//! `effpi-cli` — type-check and verify λπ⩽ protocol specifications from the
//! command line (the stand-alone counterpart of the Dotty compiler plugin of
//! §5.1), and the front end of the `effpi-serve` verification service.
//!
//! The one-shot commands are a thin shell around [`effpi::Session`]; the
//! service commands wrap the `serve` crate's daemon and client library:
//!
//! ```text
//! effpi-cli verify    <spec.effpi> [--max-states N] [--jobs J]
//!                                  [--memory-budget-explore BYTES]
//!                                  [--profile] [--trace FILE]    # run every `check` in the spec
//! effpi-cli typecheck <spec.effpi>                               # only check `term` against `type`
//! effpi-cli lts       <spec.effpi> [--max-states N] [--jobs J]
//!                                  [--memory-budget-explore BYTES]
//!                                                                # report the type LTS size
//! effpi-cli parse     <spec.effpi>                               # echo the parsed type back
//!
//! effpi-cli serve  [--listen ADDR] [--uds PATH] [--workers W] [--jobs J]
//!                  [--max-states N] [--cache-entries E] [--cache-states S]
//!                  [--store DIR] [--store-entries E] [--store-states S]
//!                  [--queue-depth Q] [--memory-budget NODES]
//!                  [--memory-budget-explore BYTES] [--log-requests]
//! effpi-cli client <ADDR|unix:PATH> verify <spec.effpi> [--max-states N]
//!                  [--memory-budget-explore BYTES]
//!                  [--deadline-ms MS] [--retries N] [--timeout-ms MS]
//! effpi-cli client <ADDR|unix:PATH> metrics [--text]
//! effpi-cli client <ADDR|unix:PATH> stats|ping|shutdown
//!
//! effpi-cli store stats   <DIR>                                  # inspect a persistent verdict store
//! effpi-cli store compact <DIR> [--store-entries E] [--store-states S]
//! ```
//!
//! A `--flag` that the command does not take is a usage error (exit 2), never
//! silently ignored: a misspelt `--max-states` must not verify under the
//! default bound.
//!
//! Observability: `--profile` prints a per-phase timing table after a
//! one-shot command (the same phase names the serve protocol reports under
//! `"phases"`); `--trace FILE` — accepted by every command — streams
//! span/event records as JSON lines into FILE while the command runs.
//!
//! Sample specifications live in `examples/specs/`; the wire protocol is
//! documented in `crates/serve/PROTOCOL.md`.

use std::process::ExitCode;

use effpi::spec::parse_spec;
use effpi::Session;
use serve::{CacheConfig, Client, Endpoints, Server, ServerConfig, StoreTier, VerifyOptions};
use store::{StoreConfig, VerdictStore};
// Shared flag-parsing policy (one implementation for every binary in the
// workspace): a present flag must have a well-formed value — malformed
// input errors, it never silently defaults.
use wire::flags::{parse_flag as flag_value, resolve_jobs, string_flag};

/// `println!` that survives a closed stdout: piping through `head` must end
/// the output, not abort the process (`println!` panics on EPIPE).
macro_rules! say {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// The flags of the one-shot commands (besides the global `--trace FILE`).
const ONE_SHOT_FLAGS: &[&str] = &[
    "--max-states",
    "--jobs",
    "--memory-budget-explore",
    "--profile",
];

/// The flags of `serve`.
const SERVE_FLAGS: &[&str] = &[
    "--listen",
    "--uds",
    "--workers",
    "--jobs",
    "--max-states",
    "--cache-entries",
    "--cache-states",
    "--store",
    "--store-entries",
    "--store-states",
    "--queue-depth",
    "--memory-budget",
    "--memory-budget-explore",
    "--log-requests",
];

/// The flags of `client … verify`.
const CLIENT_VERIFY_FLAGS: &[&str] = &[
    "--max-states",
    "--memory-budget-explore",
    "--deadline-ms",
    "--retries",
    "--timeout-ms",
];

/// The flags of `store`.
const STORE_FLAGS: &[&str] = &["--store-entries", "--store-states"];

/// A command's entry point, handed the whole argument list.
type Command = fn(&[String]) -> ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (run, flags): (Command, &[&str]) = match command.as_str() {
        "serve" => (cmd_serve, SERVE_FLAGS),
        "client" => (
            cmd_client,
            match args.get(2).map(String::as_str) {
                Some("verify") => CLIENT_VERIFY_FLAGS,
                Some("metrics") => &["--text"],
                _ => &[],
            },
        ),
        "store" => (cmd_store, STORE_FLAGS),
        "verify" | "typecheck" | "lts" | "parse" => (cmd_one_shot, ONE_SHOT_FLAGS),
        other => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && *a != "--trace" && !flags.contains(&a.as_str()))
    {
        eprintln!("unknown flag {flag}\n{USAGE}");
        return ExitCode::from(2);
    }
    // `--trace FILE` is global: every command (one-shot, serve, client)
    // streams its span/event records into FILE as JSON lines.
    match string_flag(&args, "--trace") {
        Ok(None) => {}
        Ok(Some(path)) => match std::fs::File::create(&path) {
            Ok(file) => obs::global().set_trace(Some(Box::new(std::io::BufWriter::new(file)))),
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    // Flush the trace sink however this function exits — clean return or a
    // panic unwinding through `main` — so an aborted `--trace FILE` run still
    // has every span it recorded on disk.
    let _flush = obs::global().flush_guard();
    run(&args)
}

/// A valueless presence flag (`--profile`, `--log-requests`, `--text`).
fn bool_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

// ---------------------------------------------------------------------------
// One-shot commands (verify / typecheck / lts / parse)
// ---------------------------------------------------------------------------

fn cmd_one_shot(args: &[String]) -> ExitCode {
    let command = &args[0];
    let Some(path) = args.get(1) else {
        eprintln!("missing specification file\n{USAGE}");
        return ExitCode::from(2);
    };
    // A present flag with a bad value is a usage error, never a silent
    // fallback to the default.
    let (max_states, jobs, memory_budget) = match (
        flag_value(args, "--max-states"),
        flag_value(args, "--jobs"),
        flag_value(args, "--memory-budget-explore"),
    ) {
        (Ok(max_states), Ok(jobs), Ok(budget)) => {
            (max_states.unwrap_or(500_000), resolve_jobs(jobs), budget)
        }
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let profile = bool_flag(args, "--profile");

    // Everything from the file read onwards runs under the phase collector,
    // so `--profile` sees the same phase names the serve daemon reports
    // (parse, typecheck, explore, check, …) and the residue — I/O, session
    // setup, printing — lands in the `other` row of the table.
    let wall = std::time::Instant::now();
    let (code, phases) =
        obs::phases::collect(|| run_one_shot(command, path, max_states, jobs, memory_budget));
    if profile {
        print_profile(&phases, wall.elapsed().as_micros() as u64);
    }
    code
}

/// The body of every one-shot command, separated out so [`cmd_one_shot`]
/// can run it under `obs::phases::collect`.
fn run_one_shot(
    command: &str,
    path: &str,
    max_states: usize,
    jobs: usize,
    memory_budget: Option<usize>,
) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = {
        let _span = obs::span("parse");
        match parse_spec(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        }
    };
    // One session for every command. The spec's visible list is set as the
    // session default so direct `build_lts` calls see it; `run_spec` applies
    // the same list itself.
    let mut builder = Session::builder()
        .max_states(max_states)
        .visible(spec.visible.clone())
        .parallelism(jobs);
    // Out-of-core exploration: past this resident-byte budget, cold frontier
    // segments spill to disk (results are identical, only RAM use changes).
    if let Some(budget) = memory_budget {
        builder = builder.memory_budget(budget);
    }
    let session = builder.build();

    match command {
        "verify" => {
            let report = session.run_spec(&spec);
            {
                use std::io::Write as _;
                let _ = write!(std::io::stdout(), "{report}");
            }
            if report.passed() {
                say!("result: all checks passed");
                ExitCode::SUCCESS
            } else {
                say!("result: some checks failed");
                ExitCode::FAILURE
            }
        }
        "typecheck" => {
            // Step 1 only: run the spec with its `check` statements dropped.
            let mut typing_only = spec.clone();
            typing_only.checks.clear();
            match session.run_spec(&typing_only).typecheck {
                Some(Ok(())) => {
                    say!("typecheck: ok");
                    ExitCode::SUCCESS
                }
                Some(Err(e)) => {
                    say!("typecheck: FAILED — {e}");
                    ExitCode::FAILURE
                }
                None => {
                    say!("nothing to typecheck (no `term` statement)");
                    ExitCode::SUCCESS
                }
            }
        }
        "lts" => {
            let Some(ty) = &spec.ty else {
                eprintln!("the specification has no `type` statement");
                return ExitCode::from(2);
            };
            // Build the LTS the same way verification would (probes and the
            // spec's visible list included).
            match session.build_lts(&spec.env, ty) {
                Ok((_, lts)) => {
                    // A truncated LTS never reaches this arm: build_lts
                    // reports it as a StateSpaceTooLarge error instead.
                    say!(
                        "states: {}  transitions: {}",
                        lts.num_states(),
                        lts.num_transitions()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("could not build the LTS: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "parse" => {
            match &spec.ty {
                Some(ty) => say!("type: {ty}"),
                None => say!("type: (none)"),
            }
            if let Some(term) = &spec.term {
                say!("term: {term}");
            }
            say!("environment: {}", spec.env);
            say!("checks: {}", spec.checks.len());
            ExitCode::SUCCESS
        }
        _ => unreachable!("dispatched in main"),
    }
}

/// Prints the `--profile` table: one row per recorded phase (in the order
/// the phases first ran), an `other` row for the unattributed residue, and
/// a `total` row equal to the measured wall time — so the rows always sum
/// to the wall clock.
fn print_profile(phases: &obs::phases::Phases, wall_us: u64) {
    use obs::phases::format_us;
    say!("--- profile ---");
    for (name, us) in phases.entries() {
        say!("{name:<12} {:>10}", format_us(*us));
    }
    say!(
        "{:<12} {:>10}",
        "other",
        format_us(wall_us.saturating_sub(phases.total_us()))
    );
    say!("{:<12} {:>10}", "total", format_us(wall_us));
}

// ---------------------------------------------------------------------------
// The daemon (`effpi-cli serve`)
// ---------------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> ExitCode {
    let parsed: Result<_, String> = (|| {
        Ok((
            string_flag(args, "--listen")?,
            string_flag(args, "--uds")?,
            flag_value(args, "--workers")?,
            flag_value(args, "--jobs")?,
            flag_value(args, "--max-states")?,
            flag_value(args, "--cache-entries")?,
            flag_value(args, "--cache-states")?,
            string_flag(args, "--store")?,
            flag_value(args, "--store-entries")?,
            flag_value(args, "--store-states")?,
            flag_value(args, "--queue-depth")?,
            flag_value(args, "--memory-budget")?,
            flag_value(args, "--memory-budget-explore")?,
        ))
    })();
    #[allow(clippy::type_complexity)]
    let (
        listen,
        uds,
        workers,
        jobs,
        max_states,
        cache_entries,
        cache_states,
        store,
        se,
        ss,
        qd,
        mb,
        mbe,
    ) = match parsed {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if store.is_none() && (se.is_some() || ss.is_some()) {
        eprintln!("--store-entries/--store-states need --store DIR\n{USAGE}");
        return ExitCode::from(2);
    }
    let defaults = ServerConfig::default();
    let workers = workers.unwrap_or(defaults.workers).max(1);
    let config = ServerConfig {
        workers,
        log_requests: bool_flag(args, "--log-requests"),
        // `--jobs 0` means "one exploration thread per hardware thread",
        // split across the workers; absent means one per worker.
        jobs: match jobs {
            Some(0) => std::thread::available_parallelism().map_or(workers, usize::from),
            Some(n) => n,
            None => workers,
        },
        cache: CacheConfig {
            max_entries: cache_entries.unwrap_or(defaults.cache.max_entries),
            max_states: cache_states.unwrap_or(defaults.cache.max_states),
        },
        default_max_states: max_states.unwrap_or(defaults.default_max_states),
        // `--queue-depth 0` is deliberate ("shed everything"): useful for
        // drain drills, so it is not clamped.
        max_queue_depth: qd.unwrap_or(defaults.max_queue_depth),
        memory_budget: mb.map(|nodes| nodes as u64),
        explore_memory_budget: mbe,
        faults: serve::FaultPlan::default(),
        store: store.map(|dir| {
            let store_defaults = StoreConfig::default();
            StoreTier {
                path: std::path::PathBuf::from(dir),
                bounds: StoreConfig {
                    max_entries: se.unwrap_or(store_defaults.max_entries),
                    max_states: ss.unwrap_or(store_defaults.max_states),
                },
            }
        }),
    };
    let endpoints = Endpoints {
        // A Unix socket alone is a valid deployment; TCP only defaults on
        // when no endpoint was named at all.
        tcp: listen.or_else(|| uds.is_none().then(|| "127.0.0.1:7717".to_string())),
        unix: uds.map(std::path::PathBuf::from),
    };
    let handle = match Server::start(&endpoints, config.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot start the server: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = handle.tcp_addr() {
        say!("effpi-serve listening on tcp://{addr}");
    }
    if let Some(path) = &endpoints.unix {
        say!("effpi-serve listening on unix:{}", path.display());
    }
    say!(
        "workers {}, exploration jobs {}, cache {} entries / {} states, \
         queue depth {}; \
         stop with a `shutdown` request (effpi-cli client <addr> shutdown)",
        config.workers,
        config.jobs,
        config.cache.max_entries,
        config.cache.max_states,
        config.max_queue_depth
    );
    if let Some(budget) = config.memory_budget {
        say!("memory budget: {budget} interner nodes (degrades, never aborts)");
    }
    if let Some(budget) = config.explore_memory_budget {
        say!("exploration memory budget: {budget} bytes (frontier spills to disk past it)");
    }
    if let Some(tier) = &config.store {
        say!(
            "persistent verdict store at {} ({} entries / {} states)",
            tier.path.display(),
            tier.bounds.max_entries,
            tier.bounds.max_states
        );
    }
    if config.log_requests {
        say!("request logging is on (one stderr line per verify)");
    }
    handle.join();
    say!("effpi-serve: drained and stopped");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// The client (`effpi-cli client`)
// ---------------------------------------------------------------------------

fn cmd_client(args: &[String]) -> ExitCode {
    let (Some(addr), Some(action)) = (args.get(1), args.get(2)) else {
        eprintln!(
            "usage: effpi-cli client <ADDR|unix:PATH> <verify|metrics|stats|ping|shutdown> ..."
        );
        return ExitCode::from(2);
    };
    // The action and its arguments are checked before connecting, so a
    // usage error exits 2 whether or not a daemon is listening.
    type Exchange = Box<dyn FnOnce(&mut Client) -> Result<bool, serve::ClientError>>;
    let exchange: Exchange = match action.as_str() {
        "verify" => {
            let Some(path) = args.get(3) else {
                eprintln!("missing specification file\n{USAGE}");
                return ExitCode::from(2);
            };
            let flags: Result<_, String> = (|| {
                Ok((
                    flag_value(args, "--max-states")?,
                    flag_value(args, "--deadline-ms")?,
                    flag_value(args, "--retries")?,
                    flag_value(args, "--timeout-ms")?,
                    flag_value(args, "--memory-budget-explore")?,
                ))
            })();
            let (max_states, deadline_ms, retries, timeout_ms, memory_budget) = match flags {
                Ok(flags) => flags,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let options = VerifyOptions {
                max_states,
                deadline_ms: deadline_ms.map(|ms| ms as u64),
                memory_budget: memory_budget.map(|bytes| bytes as u64),
                ..VerifyOptions::default()
            };
            Box::new(move |client| {
                // `--retries`/`--timeout-ms` switch to the resilient path: an
                // `overloaded` or transport failure is retried with capped
                // exponential backoff (verification is idempotent by cache
                // key).
                let reply = if retries.is_some() || timeout_ms.is_some() {
                    let policy = serve::RetryPolicy {
                        attempts: retries.map_or(4, |n| n as u32),
                        timeout: timeout_ms.map(|ms| std::time::Duration::from_millis(ms as u64)),
                        ..serve::RetryPolicy::default()
                    };
                    client.verify_retrying(&text, options, &policy)
                } else {
                    client.verify(&text, options)
                };
                reply.map(|reply| {
                    say!(
                        "cached: {}  key: {}",
                        if reply.cached { "hit" } else { "miss" },
                        reply.key
                    );
                    for (name, holds) in &reply.report.verdicts {
                        say!("{name}: {holds}");
                    }
                    if let Some(e) = &reply.report.error {
                        say!("error: {e}");
                    }
                    say!("{}", reply.report.stable_line);
                    reply.report.passed
                })
            })
        }
        "stats" => Box::new(|client| {
            client.stats().map(|stats| {
                say!("{stats}");
                true
            })
        }),
        // `metrics` prints the server's telemetry snapshot: the JSON object
        // by default, the Prometheus-style text exposition with `--text`.
        "metrics" if bool_flag(args, "--text") => Box::new(|client| {
            client.metrics_text().map(|text| {
                use std::io::Write as _;
                // The exposition already ends in a newline.
                let _ = write!(std::io::stdout(), "{text}");
                true
            })
        }),
        "metrics" => Box::new(|client| {
            client.metrics().map(|metrics| {
                say!("{metrics}");
                true
            })
        }),
        "ping" => Box::new(|client| {
            client.ping().map(|()| {
                say!("pong");
                true
            })
        }),
        "shutdown" => Box::new(|client| {
            client.shutdown_server().map(|()| {
                say!("server is shutting down");
                true
            })
        }),
        other => {
            eprintln!("unknown client action {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match exchange(&mut client) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Store maintenance (`effpi-cli store`)
// ---------------------------------------------------------------------------

/// Offline maintenance of a persistent verdict store: `stats` inspects a
/// store directory, `compact` rewrites it down to its live records (and, with
/// `--store-entries`/`--store-states`, down to tighter bounds).
///
/// Run these against a store no daemon currently has open — the store is a
/// single-writer log.
fn cmd_store(args: &[String]) -> ExitCode {
    let (Some(action), Some(dir)) = (args.get(1), args.get(2)) else {
        eprintln!(
            "usage: effpi-cli store <stats|compact> <DIR> [--store-entries E] [--store-states S]"
        );
        return ExitCode::from(2);
    };
    let bounds = match (
        flag_value(args, "--store-entries"),
        flag_value(args, "--store-states"),
    ) {
        (Ok(entries), Ok(states)) => {
            let defaults = StoreConfig::default();
            StoreConfig {
                max_entries: entries.unwrap_or(defaults.max_entries),
                max_states: states.unwrap_or(defaults.max_states),
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut store = match VerdictStore::open(std::path::Path::new(dir), bounds) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open the store at {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match action.as_str() {
        "stats" => {
            let s = store.stats();
            say!("entries: {}  states: {}", s.entries, s.states);
            say!(
                "file: {} bytes ({} live, {} dead)",
                s.file_bytes,
                s.live_bytes,
                s.file_bytes.saturating_sub(s.live_bytes)
            );
            if s.recovered_bytes_dropped > 0 {
                say!(
                    "recovered: dropped {} torn/corrupt trailing bytes on open",
                    s.recovered_bytes_dropped
                );
            }
            ExitCode::SUCCESS
        }
        "compact" => match store.compact() {
            Ok(outcome) => {
                say!(
                    "compacted: {} -> {} bytes, {} live entries, {} evicted",
                    outcome.bytes_before,
                    outcome.bytes_after,
                    outcome.live_entries,
                    outcome.evicted_entries
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("compaction failed: {e}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("unknown store action {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn connect(addr: &str) -> Result<Client, std::io::Error> {
    if let Some(path) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            return Client::connect_unix(std::path::Path::new(path));
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "Unix sockets are not available on this platform",
            ));
        }
    }
    Client::connect_tcp(addr)
}

const USAGE: &str = "\
usage: effpi-cli <verify|typecheck|lts|parse> <spec.effpi> [--max-states N] [--jobs J]
                 [--memory-budget-explore BYTES] [--profile] [--trace FILE]
       effpi-cli serve [--listen ADDR] [--uds PATH] [--workers W] [--jobs J]
                       [--max-states N] [--cache-entries E] [--cache-states S]
                       [--store DIR] [--store-entries E] [--store-states S]
                       [--queue-depth Q] [--memory-budget NODES]
                       [--memory-budget-explore BYTES] [--log-requests]
       effpi-cli client <ADDR|unix:PATH> <verify <spec.effpi> [--max-states N]
                       [--memory-budget-explore BYTES]
                       [--deadline-ms MS] [--retries N] [--timeout-ms MS]\
|metrics [--text]|stats|ping|shutdown>
       effpi-cli store <stats|compact> <DIR> [--store-entries E] [--store-states S]";
