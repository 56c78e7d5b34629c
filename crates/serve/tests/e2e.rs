//! End-to-end tests of the `effpi-serve` daemon: the acceptance contract of
//! the verification service.
//!
//! * a warm cache hit returns a report whose `stable_line` (and indeed whole
//!   wire rendering) is byte-identical to the cold run;
//! * four concurrent clients over the shipped `examples/specs/*.effpi` all
//!   get verdicts identical to direct `effpi::Session` runs;
//! * cancellation, stats, protocol errors and graceful shutdown behave as
//!   `PROTOCOL.md` documents, over TCP and over a Unix socket;
//! * sequential TCP exchanges never wait on a delayed ACK.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::thread;

use serve::{
    CacheConfig, Client, ClientError, Endpoints, Request, Server, ServerConfig, StoreTier,
    VerifyOptions,
};
use wire::Json;

/// The state bound every test (and every direct-run comparison) uses.
const MAX_STATES: usize = 60_000;

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        jobs: 4,
        cache: CacheConfig::default(),
        default_max_states: MAX_STATES,
        store: None,
        log_requests: false,
        ..ServerConfig::default()
    }
}

fn start_tcp() -> (serve::ServerHandle, String) {
    let handle = Server::start(
        &Endpoints {
            tcp: Some("127.0.0.1:0".to_string()),
            unix: None,
        },
        server_config(),
    )
    .expect("start server");
    let addr = handle.tcp_addr().expect("tcp endpoint").to_string();
    (handle, addr)
}

/// Every shipped `.effpi` spec, by name.
fn shipped_specs() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut specs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/specs exists")
        .map(|entry| entry.expect("read entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "effpi"))
        .map(|path| {
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&path).expect("read spec"),
            )
        })
        .collect();
    specs.sort();
    assert!(specs.len() >= 2, "expected the shipped sample specs");
    specs
}

/// The stable line a direct (server-less) pipeline run produces for `text`,
/// configured exactly like the server's workers.
fn direct_stable_line(text: &str) -> String {
    effpi::Session::builder()
        .max_states(MAX_STATES)
        .build()
        .run_spec_text(text)
        .expect("spec parses")
        .summary()
        .stable_line()
}

#[test]
fn warm_cache_hits_replay_the_cold_run_byte_identically() {
    let (handle, addr) = start_tcp();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let spec = &shipped_specs()[0].1;

    let cold = client
        .verify(spec, VerifyOptions::default())
        .expect("cold run");
    assert!(!cold.cached, "first encounter must miss");
    let warm = client
        .verify(spec, VerifyOptions::default())
        .expect("warm run");
    assert!(warm.cached, "second encounter must hit");

    // Byte-identical: the whole decoded report agrees, stable line included,
    // and the stable line also matches a direct Session run.
    assert_eq!(warm.report, cold.report);
    assert_eq!(warm.report.stable_line, cold.report.stable_line);
    assert_eq!(warm.key, cold.key);
    assert_eq!(cold.report.stable_line, direct_stable_line(spec));

    // A normalisation-equivalent respelling (comments added) hits the same
    // entry: the cache is content-addressed, not text-addressed.
    let respelled = format!("// a comment the cache key must ignore\n{spec}");
    let alias = client
        .verify(&respelled, VerifyOptions::default())
        .expect("respelled run");
    assert!(alias.cached, "respelled spec must hit the same entry");
    assert_eq!(alias.key, cold.key);
    assert_eq!(alias.report, cold.report);

    handle.shutdown();
}

#[test]
fn four_concurrent_clients_match_direct_session_runs() {
    let (handle, addr) = start_tcp();
    let specs = shipped_specs();
    let expected: Vec<String> = specs
        .iter()
        .map(|(_, text)| direct_stable_line(text))
        .collect();

    thread::scope(|scope| {
        for client_no in 0..4 {
            let addr = addr.clone();
            let specs = &specs;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect");
                // Two passes: the second is all warm, and must agree too.
                for pass in 0..2 {
                    for ((name, text), want) in specs.iter().zip(expected) {
                        let reply = client
                            .verify(text, VerifyOptions::default())
                            .unwrap_or_else(|e| panic!("client {client_no} {name}: {e}"));
                        assert_eq!(
                            &reply.report.stable_line, want,
                            "client {client_no} pass {pass} {name}: verdict drift"
                        );
                    }
                }
            });
        }
    });

    // After 4 clients x 2 passes of the same specs, the cache must be warm.
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    let hits = stats
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_usize)
        .expect("cache.hits");
    assert!(
        hits > 0,
        "repeated workload produced no cache hits: {stats}"
    );

    handle.shutdown();
}

#[test]
fn sequential_tcp_exchanges_do_not_stall() {
    // A frame split over two writes is held back by Nagle's algorithm until
    // the peer's delayed ACK: tens of milliseconds per exchange, so these 50
    // pings would take seconds.
    let (handle, addr) = start_tcp();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let started = std::time::Instant::now();
    for _ in 0..50 {
        client.ping().expect("ping");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "50 sequential pings took {elapsed:?}"
    );
    handle.shutdown();
}

#[test]
fn stats_replies_have_exactly_the_schema_sections_and_fields() {
    // `serve::STATS_SCHEMA` is the one source of truth for the reply: every
    // section and field it declares is present, and nothing else is. With a
    // store configured, every section is an object.
    let dir = std::env::temp_dir().join(format!("effpi-serve-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = Server::start(
        &Endpoints {
            tcp: Some("127.0.0.1:0".to_string()),
            unix: None,
        },
        ServerConfig {
            store: Some(StoreTier::at(&dir)),
            ..server_config()
        },
    )
    .expect("start server with a store");
    let addr = handle.tcp_addr().expect("tcp endpoint").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    client
        .verify(&shipped_specs()[0].1, VerifyOptions::default())
        .expect("verify");
    let stats = client.stats().expect("stats");

    let names = |json: &Json| -> BTreeSet<String> {
        match json {
            Json::Obj(map) => map.keys().cloned().collect(),
            other => panic!("expected an object, got {other}"),
        }
    };
    let schema_sections: BTreeSet<String> = serve::STATS_SCHEMA
        .iter()
        .map(|(section, _)| section.to_string())
        .collect();
    assert_eq!(names(&stats), schema_sections, "stats sections");
    for (section, fields) in serve::STATS_SCHEMA {
        let schema_fields: BTreeSet<String> = fields.iter().map(|f| f.to_string()).collect();
        let reply = stats.get(section).expect("section checked above");
        assert_eq!(names(reply), schema_fields, "fields of stats.{section}");
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_and_stops_via_the_protocol() {
    let (handle, addr) = start_tcp();
    let spec = &shipped_specs()[0].1;

    let mut client = Client::connect_tcp(&addr).expect("connect");
    let reply = client
        .verify(spec, VerifyOptions::default())
        .expect("verify");
    assert!(reply.report.states > 0);

    // The shutdown op is acknowledged, then the server drains and exits:
    // join() returns rather than blocking forever.
    client.shutdown_server().expect("shutdown ack");
    handle.join();

    // The listener is gone afterwards (give the OS a moment to tear down).
    let refused = (0..50).any(|_| {
        thread::sleep(std::time::Duration::from_millis(20));
        Client::connect_tcp(&addr).is_err()
    });
    assert!(refused, "listener still accepting after shutdown");
}

#[test]
fn graceful_drain_completes_already_queued_work() {
    let (handle, addr) = start_tcp();
    let spec = &shipped_specs()[0].1;
    let mut client = Client::connect_tcp(&addr).expect("connect");

    // Queue real work, then ask for shutdown on a second connection: the
    // queued verify must still be answered (the drain guarantee), whether or
    // not it had started when the drain began. Connections are not ordered
    // relative to each other, so first make sure the job is server-side —
    // the drain guarantee covers *accepted* work, not in-flight bytes.
    let id = client
        .submit_verify(spec, VerifyOptions::default())
        .expect("submit");
    let mut admin = Client::connect_tcp(&addr).expect("connect admin");
    let accepted = |stats: &Json| {
        ["queued", "in_flight", "completed"]
            .iter()
            .filter_map(|k| stats.get("requests").and_then(|r| r.get(k)))
            .filter_map(Json::as_usize)
            .sum::<usize>()
            >= 1
    };
    while !accepted(&admin.stats().expect("stats")) {
        thread::sleep(std::time::Duration::from_millis(5));
    }
    admin.shutdown_server().expect("shutdown ack");

    let response = client.recv().expect("drained response");
    assert_eq!(response.id, Some(id), "queued verify is answered");
    let body = response.into_ok().expect("queued verify succeeds");
    assert!(body.get("report").is_some());

    handle.join();
}

#[test]
fn cancellation_stats_and_protocol_errors() {
    let (handle, addr) = start_tcp();
    // One worker ⇒ the second request stays queued while the first runs, so
    // cancelling it is deterministic.
    let slow_handle_addr = {
        let handle2 = Server::start(
            &Endpoints {
                tcp: Some("127.0.0.1:0".to_string()),
                unix: None,
            },
            ServerConfig {
                workers: 1,
                jobs: 1,
                ..server_config()
            },
        )
        .expect("start 1-worker server");
        let addr2 = handle2.tcp_addr().unwrap().to_string();
        (handle2, addr2)
    };
    let (handle2, addr2) = slow_handle_addr;
    let specs = shipped_specs();

    {
        let mut client = Client::connect_tcp(&addr2).expect("connect");
        // Occupy the only worker, then queue a second request and cancel it.
        let running = client
            .submit_verify(&specs[0].1, VerifyOptions::default())
            .expect("submit running");
        let queued = client
            .submit_verify(&specs[1].1, VerifyOptions::default())
            .expect("submit queued");
        let honoured = client.cancel(queued).expect("cancel");
        // The queued job may have started if the first finished quickly;
        // both worlds must stay consistent.
        let mut verdicts = std::collections::HashMap::new();
        for _ in 0..2 {
            let response = client.recv().expect("response");
            let id = response.id.expect("addressed response");
            verdicts.insert(id, response.into_ok());
        }
        assert!(verdicts[&running].is_ok(), "running request completes");
        let queued_outcome = verdicts.remove(&queued).expect("queued answered");
        if honoured {
            let err = queued_outcome.expect_err("honoured cancel drops the job");
            match err {
                ClientError::Server { kind, .. } => assert_eq!(kind, "cancelled"),
                other => panic!("expected a server error, got {other}"),
            }
        } else {
            assert!(queued_outcome.is_ok(), "unhonoured cancel ⇒ normal verdict");
        }
        // Cancelling an unknown id is answered, not an error.
        assert!(!client.cancel(99_999).expect("cancel unknown"));
        handle2.shutdown();
    }

    let mut client = Client::connect_tcp(&addr).expect("connect");
    // Stats carry the documented sections.
    client
        .verify(&specs[0].1, VerifyOptions::default())
        .expect("verify");
    let stats = client.stats().expect("stats");
    for section in ["cache", "requests", "engine"] {
        assert!(stats.get(section).is_some(), "stats missing {section}");
    }
    assert!(
        stats
            .get("engine")
            .and_then(|e| e.get("states_explored"))
            .and_then(Json::as_usize)
            .expect("states_explored")
            > 0
    );

    // Spec errors are addressed, typed refusals — not dropped connections.
    let err = client
        .verify("bogus statement", VerifyOptions::default())
        .expect_err("malformed spec");
    match err {
        ClientError::Server { kind, message, .. } => {
            assert_eq!(kind, "spec");
            assert!(message.contains("line 1"), "{message}");
        }
        other => panic!("expected a spec refusal, got {other}"),
    }

    // Raw protocol garbage gets a protocol error with a null id, and the
    // connection stays usable.
    let raw = Request::Ping { id: 77 }.to_line();
    {
        // Reach under the typed client: write a garbage line, then a ping.
        let mut stream = std::net::TcpStream::connect(&addr).expect("raw connect");
        use std::io::{BufRead, BufReader, Write};
        stream
            .write_all(b"this is not json\n")
            .expect("write garbage");
        stream.write_all(raw.as_bytes()).expect("write ping");
        stream.write_all(b"\n").expect("write newline");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("error frame");
        let frame = Json::parse(line.trim()).expect("error frame is JSON");
        assert_eq!(frame.get("id"), Some(&Json::Null));
        assert_eq!(
            frame
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("protocol")
        );
        line.clear();
        reader.read_line(&mut line).expect("pong frame");
        let frame = Json::parse(line.trim()).expect("pong is JSON");
        assert_eq!(frame.get("id").and_then(Json::as_usize), Some(77));
    }

    handle.shutdown();
}

#[test]
fn hostile_frames_are_refused_without_harming_the_server() {
    let (handle, addr) = start_tcp();

    // A deeply nested JSON bomb must be refused as a protocol error (the
    // wire parser bounds nesting), not crash the reader thread.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        let bomb = format!("{}\n", "[".repeat(100_000));
        stream.write_all(bomb.as_bytes()).expect("write bomb");
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).expect("reply");
        let frame = Json::parse(line.trim()).expect("error frame");
        assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(false));
    }

    // An endless newline-free stream is cut off at the frame-size cap with
    // one protocol error, then the connection is dropped.
    {
        use std::io::{BufRead, BufReader, Read, Write};
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        let chunk = vec![b'x'; 1 << 20];
        let mut reply = BufReader::new(stream.try_clone().expect("clone"));
        for _ in 0..6 {
            if stream.write_all(&chunk).is_err() {
                break; // server already dropped us — also acceptable
            }
        }
        let mut line = String::new();
        if reply.read_line(&mut line).is_ok() && !line.trim().is_empty() {
            let frame = Json::parse(line.trim()).expect("error frame");
            assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(false));
        }
        // Either way the stream must be over (no hang, no crash).
        let mut rest = Vec::new();
        let _ = reply.read_to_end(&mut rest);
    }

    // The server is still fully alive for honest clients.
    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.ping().expect("ping after hostile frames");
    let reply = client
        .verify(&shipped_specs()[0].1, VerifyOptions::default())
        .expect("verify after hostile frames");
    assert!(reply.report.states > 0);

    handle.shutdown();
}

/// A spec whose state space is far too large to finish between "the worker
/// picked it up" and "the cancel frame arrives": `k` independent two-state
/// loops composed in parallel (2^k product states), all channels visible.
/// The `max_states` option bounds memory if cancellation were ever broken —
/// the run would then end in a (non-cancelled) state-bound error, failing
/// the test loudly instead of hanging it.
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
fn cancel_aborts_an_in_flight_exploration() {
    // One worker, serial exploration: the big job owns the pool, and the
    // in_flight counter tells us exactly when it is executing.
    let handle = Server::start(
        &Endpoints {
            tcp: Some("127.0.0.1:0".to_string()),
            unix: None,
        },
        ServerConfig {
            workers: 1,
            jobs: 1,
            ..server_config()
        },
    )
    .expect("start 1-worker server");
    let addr = handle.tcp_addr().unwrap().to_string();

    let mut client = Client::connect_tcp(&addr).expect("connect");
    let spec = huge_parallel_spec(16); // 2^16 product states
    let options = VerifyOptions {
        max_states: Some(40_000),
        ..VerifyOptions::default()
    };
    let started = std::time::Instant::now();
    let id = client.submit_verify(&spec, options).expect("submit");

    // Wait until the worker has dequeued the job and is exploring.
    let mut admin = Client::connect_tcp(&addr).expect("connect admin");
    loop {
        let stats = admin.stats().expect("stats");
        let in_flight = stats
            .get("requests")
            .and_then(|r| r.get("in_flight"))
            .and_then(Json::as_usize)
            .expect("requests.in_flight");
        if in_flight >= 1 {
            break;
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "the verify never started"
        );
        thread::sleep(std::time::Duration::from_millis(2));
    }

    // Cancel it mid-exploration. The ack says the job could not be dropped
    // *unrun* (it had started) — the abort arrives on the verify response.
    let honoured = client.cancel(id).expect("cancel");
    assert!(!honoured, "a started job cannot be dropped unrun");
    let response = client.recv().expect("verify answered");
    assert_eq!(response.id, Some(id));
    match response.into_ok() {
        Err(ClientError::Server { kind, message, .. }) => {
            assert_eq!(kind, "cancelled", "{message}");
            assert!(
                message.contains("during exploration"),
                "expected the in-flight abort path, got: {message}"
            );
        }
        other => panic!("expected an in-flight cancellation, got {other:?}"),
    }

    // The abort freed the only worker: the server answers real work again,
    // and the aborted run polluted nothing (a fresh small spec verifies).
    let reply = client
        .verify(&shipped_specs()[0].1, VerifyOptions::default())
        .expect("verify after cancel");
    assert!(reply.report.states > 0);
    let stats = admin.stats().expect("stats");
    let cancelled = stats
        .get("requests")
        .and_then(|r| r.get("cancelled"))
        .and_then(Json::as_usize)
        .expect("requests.cancelled");
    assert!(cancelled >= 1, "the abort must be accounted: {stats}");

    handle.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_endpoint_serves_and_cleans_up() {
    let path = std::env::temp_dir().join(format!("effpi-serve-test-{}.sock", std::process::id()));
    let handle = Server::start(
        &Endpoints {
            tcp: None,
            unix: Some(path.clone()),
        },
        server_config(),
    )
    .expect("start unix server");

    let spec = &shipped_specs()[0].1;
    let mut client = Client::connect_unix(&path).expect("connect over unix socket");
    let cold = client
        .verify(spec, VerifyOptions::default())
        .expect("verify");
    assert_eq!(cold.report.stable_line, direct_stable_line(spec));
    let warm = client
        .verify(spec, VerifyOptions::default())
        .expect("verify again");
    assert!(warm.cached);
    assert_eq!(warm.report, cold.report);

    handle.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn metrics_exports_the_stats_gauges_in_both_formats() {
    let (handle, addr) = start_tcp();
    let spec = &shipped_specs()[0].1;
    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.verify(spec, VerifyOptions::default()).expect("cold");
    client.verify(spec, VerifyOptions::default()).expect("warm");

    // The JSON snapshot carries every section/field of the stats schema as a
    // `{section}_{field}` gauge (store excepted: this server has no disk
    // tier, so its gauges may simply be absent), plus the per-phase span
    // histograms the verifications recorded.
    let metrics = client.metrics().expect("metrics");
    let gauges = metrics.get("gauges").expect("gauges object");
    for (section, fields) in serve::STATS_SCHEMA {
        if *section == "store" {
            continue;
        }
        for field in *fields {
            assert!(
                gauges.get(&format!("{section}_{field}")).is_some(),
                "gauge {section}_{field} missing from metrics"
            );
        }
    }
    let histograms = metrics.get("histograms").expect("histograms object");
    for span in ["parse", "fingerprint", "lru_probe", "explore", "render"] {
        let hist = histograms
            .get(&format!("span_{span}_us"))
            .unwrap_or_else(|| panic!("histogram span_{span}_us missing"));
        assert!(
            hist.get("count").and_then(Json::as_usize).unwrap_or(0) >= 1,
            "span_{span}_us recorded nothing"
        );
    }

    // The stats reply and the metrics gauges describe the same values.
    let stats = client.stats().expect("stats");
    let engine_workers = stats
        .get("engine")
        .and_then(|e| e.get("workers"))
        .and_then(Json::as_usize);
    assert_eq!(engine_workers, Some(4));

    // The text exposition renders the same snapshot with the effpi_ prefix.
    let text = client.metrics_text().expect("metrics text");
    assert!(text.contains("# TYPE effpi_engine_workers gauge"), "{text}");
    assert!(text.contains("effpi_engine_workers 4"), "{text}");
    assert!(text.contains("effpi_span_explore_us_bucket"), "{text}");

    client.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn profiled_verifies_carry_phases_and_unprofiled_frames_are_unchanged() {
    let (handle, addr) = start_tcp();
    let spec = &shipped_specs()[0].1;
    let mut client = Client::connect_tcp(&addr).expect("connect");

    // A profiled cold run: the frame carries a "phases" object whose keys
    // cover the whole life of the request.
    let id = client
        .submit_verify(
            spec,
            VerifyOptions {
                profile: true,
                ..VerifyOptions::default()
            },
        )
        .expect("submit");
    let response = client.recv().expect("response");
    assert_eq!(response.id, Some(id));
    let body = response.into_ok().expect("ok");
    let phases = body.get("phases").expect("profiled frame carries phases");
    for key in ["parse_us", "fingerprint_us", "explore_us", "render_us"] {
        assert!(
            phases.get(key).and_then(Json::as_usize).is_some(),
            "missing phase {key} in {phases}"
        );
    }

    // A profiled warm hit replays the same report bytes and times the probe.
    let id = client
        .submit_verify(
            spec,
            VerifyOptions {
                profile: true,
                ..VerifyOptions::default()
            },
        )
        .expect("submit warm");
    let response = client.recv().expect("warm response");
    assert_eq!(response.id, Some(id));
    let body = response.into_ok().expect("ok");
    assert_eq!(body.get("cached"), Some(&Json::Bool(true)));
    let phases = body.get("phases").expect("warm profiled frame has phases");
    assert!(phases.get("lru_probe_us").is_some(), "{phases}");
    assert!(
        phases.get("explore_us").is_none(),
        "a cache hit never explores: {phases}"
    );

    // Without profile: true, the frame has no phases field at all (the wire
    // bytes stay exactly as before the telemetry work).
    let plain = client
        .verify(spec, VerifyOptions::default())
        .expect("plain verify");
    assert!(plain.cached);
    let id = client
        .submit_verify(spec, VerifyOptions::default())
        .unwrap();
    let response = client.recv().expect("plain response");
    assert_eq!(response.id, Some(id));
    assert!(response.body.get("phases").is_none());

    client.shutdown_server().expect("shutdown");
    handle.join();
}
