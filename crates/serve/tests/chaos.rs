//! Chaos tests: the daemon under deterministic fault injection.
//!
//! Every test builds a seeded [`FaultPlan`] — whether the *n*-th pass
//! through a fault point fires is a pure function of `(seed, point, n)`, no
//! clocks, no randomness — so each test first *predicts* the exact fault
//! pattern with [`FaultPlan::decide`] and then asserts the daemon's
//! behaviour request by request. The acceptance contract, from the fault
//! matrix of the resilience work:
//!
//! * the daemon **stays up** under every seeded fault point;
//! * every *successful* answer is **byte-identical** to a fault-free run
//!   (the `report` object renders deterministically);
//! * shed and retried requests **converge** — typed `overloaded` /
//!   `internal-error` / `deadline-exceeded` replies, never silent drops.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use serve::{
    Client, ClientError, Endpoints, ErrorKind, FaultAction, FaultPlan, FaultPoint, RetryPolicy,
    Server, ServerConfig, ServerHandle, StoreTier, VerifyOptions,
};
use wire::Json;

const MAX_STATES: usize = 60_000;

/// A small mixed workload with distinct cache keys.
fn specs() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "int-loop",
            "env a : cio[int]\ntype i[a, Pi(v: int) nil]\ncheck deadlock_free [a]\n",
        ),
        (
            "str-loop",
            "env b : cio[str]\ntype i[b, Pi(s: str) nil]\ncheck deadlock_free [b]\n",
        ),
        (
            "ring-pair",
            "def Token = ()\n\
             env a : cio[Token]\n\
             env b : cio[Token]\n\
             type p[ rec r . i[a, Pi(t: Token) o[b, Token, Pi() r]],\n\
             rec s . i[b, Pi(t: Token) o[a, Token, Pi() s]] ]\n\
             check deadlock_free []\n",
        ),
    ]
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        jobs: 2,
        default_max_states: MAX_STATES,
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> (ServerHandle, String) {
    let handle = Server::start(
        &Endpoints {
            tcp: Some("127.0.0.1:0".to_string()),
            unix: None,
        },
        config,
    )
    .expect("start server");
    let addr = handle.tcp_addr().expect("tcp endpoint").to_string();
    (handle, addr)
}

/// Renders a `report` object with every `duration_ms` zeroed: everything a
/// verification *decides* (verdicts, states, transitions, stable line,
/// property provenance, ordering) byte-for-byte, with only the wall-clock
/// timings — which differ between any two runs, faults or not — masked out.
fn canonical_report(report: &Json) -> String {
    fn mask(json: &mut Json) {
        match json {
            Json::Obj(map) => {
                for (key, value) in map.iter_mut() {
                    if key == "duration_ms" {
                        *value = Json::Num(0.0);
                    } else {
                        mask(value);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(mask),
            _ => {}
        }
    }
    let mut report = report.clone();
    mask(&mut report);
    report.to_string()
}

/// Verifies `spec` and returns the response's `report` in the canonical
/// rendering of [`canonical_report`] (`wire::Json` renders deterministically,
/// so two runs deciding the same answer produce identical bytes).
fn report_bytes(client: &mut Client, spec: &str) -> Result<String, ClientError> {
    let id = client.submit_verify(spec, VerifyOptions::default())?;
    loop {
        let response = client.recv()?;
        if response.id == Some(id) {
            let body = response.into_ok()?;
            return Ok(canonical_report(
                body.get("report").expect("verify body has report"),
            ));
        }
    }
}

/// The fault-free answers the chaos runs must reproduce byte-for-byte.
fn fault_free_baseline(specs: &[(&str, &str)]) -> Vec<String> {
    let (handle, addr) = start(config());
    let mut client = Client::connect_tcp(&addr).expect("connect baseline client");
    let baseline = specs
        .iter()
        .map(|(name, text)| {
            report_bytes(&mut client, text)
                .unwrap_or_else(|e| panic!("baseline verify of {name}: {e}"))
        })
        .collect();
    handle.shutdown();
    baseline
}

fn stat(stats: &Json, section: &str, field: &str) -> u64 {
    stats
        .get(section)
        .and_then(|s| s.get(field))
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("stats.{section}.{field} missing in {stats}")) as u64
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("effpi-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn store_read_faults_degrade_to_cold_runs_not_outages() {
    let dir = temp_dir("read");
    let specs = specs();
    let baseline = fault_free_baseline(&specs);

    // Generation 1, fault-free: populate the persistent tier.
    {
        let (handle, addr) = start(ServerConfig {
            store: Some(StoreTier::at(&dir)),
            ..config()
        });
        let mut client = Client::connect_tcp(&addr).expect("connect");
        for (i, (_, text)) in specs.iter().enumerate() {
            assert_eq!(
                report_bytes(&mut client, text).expect("populate"),
                baseline[i]
            );
        }
        handle.shutdown();
    }

    // Generation 2: every other disk probe fails. Predict exactly which.
    let plan = FaultPlan::single(0xC0FFEE, FaultPoint::StoreRead, FaultAction::Error, 2);
    let predicted_errors = (0..specs.len() as u64)
        .filter(|&n| plan.decide(FaultPoint::StoreRead, n) == Some(FaultAction::Error))
        .count() as u64;
    assert!(
        predicted_errors > 0 && predicted_errors < specs.len() as u64,
        "seed must exercise both the faulted and the clean path \
         ({predicted_errors}/{} probes fail)",
        specs.len()
    );
    let (handle, addr) = start(ServerConfig {
        store: Some(StoreTier::at(&dir)),
        faults: plan,
        ..config()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    // Every first encounter probes the disk: a clean probe is a disk hit, a
    // faulted one degrades to a cold re-verification — the answer bytes are
    // identical either way.
    for (i, (_, text)) in specs.iter().enumerate() {
        assert_eq!(
            report_bytes(&mut client, text).expect("serve under read faults"),
            baseline[i]
        );
    }
    let stats = client.stats().expect("stats");
    assert_eq!(
        stat(&stats, "store", "errors"),
        predicted_errors,
        "exactly the predicted probes failed: {stats}"
    );
    // The daemon is healthy and the second pass (memory-cached now) still
    // replays the same bytes.
    client.ping().expect("ping under read faults");
    for (i, (_, text)) in specs.iter().enumerate() {
        assert_eq!(
            report_bytes(&mut client, text).expect("warm pass"),
            baseline[i]
        );
    }
    handle.shutdown();
}

#[test]
fn store_write_faults_leave_the_daemon_serving_memory_only() {
    let dir = temp_dir("write");
    let specs = specs();
    let baseline = fault_free_baseline(&specs);

    // Every write-through to the persistent tier fails.
    let plan = FaultPlan::single(1, FaultPoint::StoreWrite, FaultAction::Error, 1);
    let (handle, addr) = start(ServerConfig {
        store: Some(StoreTier::at(&dir)),
        faults: plan,
        ..config()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    for (i, (_, text)) in specs.iter().enumerate() {
        assert_eq!(
            report_bytes(&mut client, text).expect("serve under write faults"),
            baseline[i]
        );
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "store", "errors"), specs.len() as u64);
    assert_eq!(stat(&stats, "store", "entries"), 0, "nothing was persisted");
    // The memory tier still answers — same bytes, now cached.
    for (i, (_, text)) in specs.iter().enumerate() {
        assert_eq!(
            report_bytes(&mut client, text).expect("memory-only pass"),
            baseline[i]
        );
    }
    handle.shutdown();
}

#[test]
fn socket_write_delays_only_slow_the_wire_never_corrupt_it() {
    let specs = specs();
    let baseline = fault_free_baseline(&specs);
    let plan = FaultPlan::single(2, FaultPoint::SocketWrite, FaultAction::Delay { ms: 40 }, 2);
    let (handle, addr) = start(ServerConfig {
        faults: plan,
        ..config()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    for (i, (_, text)) in specs.iter().enumerate() {
        assert_eq!(
            report_bytes(&mut client, text).expect("serve under delays"),
            baseline[i]
        );
    }
    client.ping().expect("ping under delays");
    handle.shutdown();
}

#[test]
fn socket_write_errors_kill_connections_and_retrying_clients_converge() {
    let specs = specs();
    let baseline = fault_free_baseline(&specs);
    // One in three response writes tears the connection down (the injected
    // error fires *before* the frame is written: the reply is lost whole,
    // never half-sent).
    let plan = FaultPlan::single(11, FaultPoint::SocketWrite, FaultAction::Error, 3);
    let (handle, addr) = start(ServerConfig {
        faults: plan,
        ..config()
    });

    // Manual convergence loop over raw frames, to assert byte-identity of
    // whichever attempt finally lands.
    let mut client = Client::connect_tcp(&addr).expect("connect");
    for (i, (name, text)) in specs.iter().enumerate() {
        let mut tries = 0;
        let bytes = loop {
            match report_bytes(&mut client, text) {
                Ok(bytes) => break bytes,
                Err(ClientError::Io(_)) => {
                    // The connection died with the reply; verification is
                    // idempotent under its content address, so resubmitting
                    // over a fresh connection is safe.
                    tries += 1;
                    assert!(tries < 20, "{name} never converged");
                    client = Client::connect_tcp(&addr).expect("reconnect");
                }
                Err(other) => panic!("{name}: unexpected error {other}"),
            }
        };
        assert_eq!(bytes, baseline[i]);
    }

    // The library client's retry loop does the same dance internally.
    let mut retrying = Client::connect_tcp(&addr).expect("connect retrying");
    retrying.set_sleeper(|_| {}); // recorded schedule is tested elsewhere
    let reply = retrying
        .verify_retrying(
            specs[0].1,
            VerifyOptions::default(),
            &RetryPolicy {
                attempts: 16,
                ..RetryPolicy::default()
            },
        )
        .expect("verify_retrying converges over socket faults");
    assert!(reply.report.passed);
    handle.shutdown();
}

#[test]
fn worker_panics_yield_typed_internal_errors_and_the_worker_survives() {
    let specs = specs();
    let baseline = fault_free_baseline(&specs);
    const REQUESTS: usize = 12;
    let plan = FaultPlan::single(18, FaultPoint::Worker, FaultAction::Panic, 3);
    // The worker fault point sits *below* the cache probes, so only cold
    // verifications tick its pass counter. That makes the prediction a
    // little state machine rather than a straight indexing: a panicking
    // request leaves its spec uncached (nothing ran, nothing was inserted),
    // so the spec's next encounter is cold again and ticks; a clean cold
    // run caches its spec, and every later encounter is an LRU hit that
    // never reaches the fault point at all.
    let mut cached = vec![false; specs.len()];
    let mut ticks = 0u64;
    let predicted: Vec<bool> = (0..REQUESTS)
        .map(|i| {
            let spec = i % specs.len();
            if cached[spec] {
                return false; // cache hit: no tick, no panic
            }
            let fires = plan.decide(FaultPoint::Worker, ticks) == Some(FaultAction::Panic);
            ticks += 1;
            if !fires {
                cached[spec] = true;
            }
            fires
        })
        .collect();
    let panics = predicted.iter().filter(|&&p| p).count() as u64;
    assert!(
        panics > 0 && (panics as usize) < REQUESTS,
        "seed must mix panicking and clean requests ({panics}/{REQUESTS} panic)"
    );
    assert!(
        ticks > panics && (ticks as usize) < REQUESTS,
        "seed must exercise a re-cold retry after a panic *and* at least one \
         cache hit that skips the fault point ({ticks} ticks)"
    );

    // One worker ⇒ the worker-point pass counter advances in submission
    // order, so `predicted[i]` is request i's fate.
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        jobs: 1,
        faults: plan,
        ..config()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    for (i, &panics_now) in predicted.iter().enumerate() {
        let (_, text) = specs[i % specs.len()];
        match report_bytes(&mut client, text) {
            Ok(bytes) => {
                assert!(!panics_now, "request {i} was predicted to panic");
                assert_eq!(bytes, baseline[i % specs.len()]);
            }
            Err(ClientError::Server { kind, message, .. }) => {
                // The satellite contract: a panicking verify is a *typed*
                // reply on a connection that stays usable — the next loop
                // iteration reuses it.
                assert!(panics_now, "request {i} failed unpredicted: {message}");
                assert_eq!(kind, ErrorKind::Internal.as_str(), "{message}");
                assert!(message.contains("panicked"), "{message}");
            }
            Err(other) => panic!("request {i}: unexpected error {other}"),
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "requests", "panics_caught"), panics, "{stats}");
    assert_eq!(stat(&stats, "requests", "failed"), panics, "{stats}");
    client
        .ping()
        .expect("the daemon is healthy after caught panics");
    handle.shutdown();
}

/// A spec whose state space (2^k product states) cannot finish between
/// pickup and the housekeeper's deadline sweep (same construction as the
/// e2e cancellation test).
fn huge_parallel_spec(k: usize) -> String {
    use std::fmt::Write as _;
    let mut spec = String::new();
    for i in 0..k {
        let _ = writeln!(spec, "env a{i} : cio[()]");
    }
    for i in 0..k {
        let _ = writeln!(spec, "visible a{i}");
    }
    let component = |i: usize| format!("rec r{i} . i[a{i}, Pi(t: ()) o[a{i}, (), Pi() r{i}]]");
    let mut ty = component(k - 1);
    for i in (0..k - 1).rev() {
        ty = format!("p[ {}, {ty} ]", component(i));
    }
    let _ = writeln!(spec, "type {ty}");
    spec.push_str("check deadlock_free []\n");
    spec
}

#[test]
fn deadlines_expire_loudly_and_free_the_worker() {
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        jobs: 1,
        ..config()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    // 2^18 product states under a 1 ms deadline: the housekeeper must abort
    // it (before start or mid-exploration — both are the same typed answer).
    let err = client
        .verify(
            &huge_parallel_spec(18),
            VerifyOptions {
                max_states: Some(500_000),
                deadline_ms: Some(1),
                ..VerifyOptions::default()
            },
        )
        .expect_err("a 1 ms deadline on a huge spec must expire");
    match err {
        ClientError::Server { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::DeadlineExceeded.as_str(), "{message}");
        }
        other => panic!("expected a deadline refusal, got {other}"),
    }
    // The abort freed the only worker; the same connection serves real work.
    let reply = client
        .verify(specs()[0].1, VerifyOptions::default())
        .expect("verify after an expired deadline");
    assert!(reply.report.passed);
    let stats = client.stats().expect("stats");
    assert!(
        stat(&stats, "requests", "deadline_exceeded") >= 1,
        "{stats}"
    );
    handle.shutdown();
}

#[test]
fn sheds_are_typed_and_the_retrying_client_honours_retry_after() {
    // A queue of depth zero sheds every verify: the pure-overload endpoint.
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        jobs: 1,
        max_queue_depth: 0,
        ..config()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let slept: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&slept);
    client.set_sleeper(move |wait| {
        recorder.lock().unwrap().push(wait.as_millis() as u64);
    });

    let policy = RetryPolicy {
        attempts: 3,
        timeout: None,
        backoff_base_ms: 10,
        backoff_cap_ms: 1_000,
        jitter_seed: 42,
    };
    let err = client
        .verify_retrying(specs()[0].1, VerifyOptions::default(), &policy)
        .expect_err("a zero-depth queue sheds every attempt");
    match err {
        ClientError::Server {
            kind,
            retry_after_ms,
            ..
        } => {
            assert_eq!(kind, ErrorKind::Overloaded.as_str());
            // An idle queue hints the minimum backoff.
            assert_eq!(retry_after_ms, Some(25), "retry_after_ms must be usable");
        }
        other => panic!("expected an overloaded refusal, got {other}"),
    }
    // The waits are exactly `max(backoff_ms(attempt), retry_after_ms)` —
    // deterministic because the jitter seed is pinned.
    let expected: Vec<u64> = (0..2).map(|a| policy.backoff_ms(a).max(25)).collect();
    assert_eq!(*slept.lock().unwrap(), expected);

    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "requests", "shed"), 3, "one shed per attempt");
    assert_eq!(stat(&stats, "engine", "queue_capacity"), 0);
    client.ping().expect("shedding is not an outage");
    handle.shutdown();
}

#[test]
fn a_starved_server_sheds_a_burst_loudly_and_answers_every_request() {
    // One worker behind an admission queue of depth 1, and six clients that
    // all submit the same cold spec at once: the worker takes one, the queue
    // one more, and the rest must be shed — each with a typed `overloaded`
    // reply the client honours before retrying, until every request lands.
    const CLIENTS: usize = 6;
    const RETRY_BUDGET: usize = 64;
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        jobs: 1,
        max_queue_depth: 1,
        ..config()
    });
    let payment = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/payment.effpi"
    ))
    .expect("shipped payment spec");
    let mut burst = vec![payment.as_str()];
    burst.extend(specs().iter().map(|(_, text)| *text));

    let start_line = std::sync::Barrier::new(CLIENTS);
    let shed: u64 = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect_tcp(&addr).expect("connect");
                    start_line.wait();
                    let mut shed = 0;
                    for text in &burst {
                        let answered = (0..RETRY_BUDGET).any(|_| {
                            match client.verify(text, VerifyOptions::default()) {
                                Ok(_) => true,
                                Err(ClientError::Server {
                                    kind,
                                    retry_after_ms: Some(wait),
                                    ..
                                }) if kind == ErrorKind::Overloaded.as_str() => {
                                    shed += 1;
                                    std::thread::sleep(Duration::from_millis(wait));
                                    false
                                }
                                Err(e) => panic!("a burst request failed: {e}"),
                            }
                        });
                        assert!(answered, "a request was never admitted");
                    }
                    shed
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("burst client"))
            .sum()
    });
    assert!(shed > 0, "the burst never overflowed the admission queue");
    let mut admin = Client::connect_tcp(&addr).expect("connect");
    let stats = admin.stats().expect("stats");
    assert_eq!(
        stat(&stats, "requests", "shed"),
        shed,
        "every shed the server counted is a reply a client saw: {stats}"
    );
    handle.shutdown();
}

#[test]
fn degraded_servers_refuse_large_jobs_but_keep_serving() {
    // A one-node budget is exceeded by any verification: the watchdog must
    // flip the server into degraded mode without any outage.
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        jobs: 1,
        memory_budget: Some(1),
        ..config()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let reply = client
        .verify(specs()[0].1, VerifyOptions::default())
        .expect("verify under a tiny budget");
    assert!(reply.report.passed);

    // The watchdog runs on the poll interval; wait for the flag.
    let started = std::time::Instant::now();
    loop {
        let stats = client.stats().expect("stats");
        if stat(&stats, "engine", "degraded") == 1 {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the watchdog never flipped degraded: {stats}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Degraded: a job asking for *more* than the default state bound is
    // refused with a long, typed backoff…
    let err = client
        .verify(
            specs()[1].1,
            VerifyOptions {
                max_states: Some(MAX_STATES + 1),
                ..VerifyOptions::default()
            },
        )
        .expect_err("degraded servers refuse large jobs");
    match err {
        ClientError::Server {
            kind,
            retry_after_ms,
            ..
        } => {
            assert_eq!(kind, ErrorKind::Overloaded.as_str());
            assert_eq!(retry_after_ms, Some(5_000));
        }
        other => panic!("expected an overloaded refusal, got {other}"),
    }
    // …while normally-sized work keeps flowing (a clean report, whatever
    // the verdict).
    let reply = client
        .verify(specs()[2].1, VerifyOptions::default())
        .expect("normal work still served while degraded");
    assert!(reply.report.error.is_none(), "{:?}", reply.report.error);
    handle.shutdown();
}
