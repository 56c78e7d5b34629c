//! The line-delimited JSON protocol of `effpi-serve`.
//!
//! One request per line, one response per line, every frame a single JSON
//! object — see `crates/serve/PROTOCOL.md` for the full frame catalogue with
//! examples. This module is the *shared* half of the wire: request parsing
//! (used by the server) and response parsing (used by the client library),
//! plus the typed [`WireReport`] view of a report object.
//!
//! Design rules:
//!
//! * every request carries a client-chosen numeric `id`; every response
//!   echoes the `id` it answers (protocol errors on unparseable frames echo
//!   `null`), so a client may pipeline requests and match answers;
//! * responses always carry `"ok": true` or `"ok": false`; failures carry a
//!   machine-readable `error.kind` from a closed set (see [`ErrorKind`]);
//! * unknown *fields* are ignored (forward compatibility), unknown *ops* are
//!   a [`ErrorKind::Protocol`] error.

use std::fmt;
use std::io::{self, Write};

use wire::Json;

/// The closed set of `error.kind` values a response can carry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorKind {
    /// The frame was not valid JSON, not an object, or structurally wrong
    /// (missing `op`/`id`, bad field type, unknown op).
    Protocol,
    /// The spec text did not parse ([`effpi::spec::parse_spec`] failed).
    Spec,
    /// The request was cancelled before it started executing.
    Cancelled,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The request's `deadline_ms` elapsed before a verdict was reached.
    DeadlineExceeded,
    /// The server refused the request to protect itself (admission queue
    /// full, or degraded under memory pressure). The error object carries a
    /// `retry_after_ms` hint; retrying is always safe because verify is
    /// idempotent under its cache key.
    Overloaded,
    /// The request made the server fail internally (e.g. a panic inside the
    /// verification engine, caught at the worker boundary). The daemon and
    /// its worker survive; other requests are unaffected.
    Internal,
}

impl ErrorKind {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Spec => "spec",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal-error",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-request engine overrides of a `verify` request; `None` fields use the
/// server's defaults. All of these except `profile` are part of the cache
/// key.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VerifyOptions {
    /// Overrides the state bound.
    pub max_states: Option<usize>,
    /// Overrides the typing/subtyping depth bound.
    pub max_depth: Option<usize>,
    /// Overrides the µ-unfolding bound.
    pub max_unfold: Option<usize>,
    /// Overrides automatic payload probing.
    pub auto_probe: Option<bool>,
    /// When `true`, the response frame carries a `"phases"` object with the
    /// per-phase timing breakdown of *this* request (parse, fingerprint,
    /// cache probes, exploration, checking, rendering — microseconds).
    /// Observability only: it never touches the cache key, and the report
    /// bytes are identical with or without it.
    pub profile: bool,
    /// A wall-clock budget for this request, milliseconds from admission.
    /// When it elapses before a verdict, the run is cancelled and the reply
    /// is a `deadline-exceeded` error. Operational like `profile` — never
    /// part of the cache key: a verdict is a verdict no matter how long the
    /// client was willing to wait for it.
    pub deadline_ms: Option<u64>,
    /// Caps the exploration's resident working set for this request, in
    /// bytes: past the budget, cold frontier segments spill to disk and
    /// stream back in discovery order (see `lts::memory`). Operational like
    /// `deadline_ms` — **never** part of the cache key: a budgeted run's
    /// report is byte-identical to an unbudgeted one, so a verdict computed
    /// either way is a valid hit for both.
    pub memory_budget: Option<u64>,
}

/// How a `metrics` reply renders the snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MetricsFormat {
    /// A structured `"metrics"` JSON object (the default).
    #[default]
    Json,
    /// Prometheus-style text exposition, carried as a `"metrics_text"`
    /// string.
    Text,
}

impl MetricsFormat {
    /// The wire spelling of the `format` field.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricsFormat::Json => "json",
            MetricsFormat::Text => "text",
        }
    }
}

/// A parsed request frame.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Run a `.effpi` spec text through the pipeline (cache-fronted).
    Verify {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// The specification text.
        spec: String,
        /// Engine overrides.
        options: VerifyOptions,
    },
    /// Report server/cache counters.
    Stats {
        /// Client-chosen id echoed in the response.
        id: u64,
    },
    /// Export the full telemetry snapshot (every counter, gauge and latency
    /// histogram of the process-wide metric registry).
    Metrics {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// The exposition format of the reply.
        format: MetricsFormat,
    },
    /// Cancel a not-yet-started `verify` previously sent **on the same
    /// connection**.
    Cancel {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// The id of the request to cancel.
        target: u64,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen id echoed in the response.
        id: u64,
    },
    /// Gracefully shut the server down (drain, respond, close).
    Shutdown {
        /// Client-chosen id echoed in the response.
        id: u64,
    },
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns `(echo id if one was readable, message)` on malformed frames,
    /// so the server can still address its protocol-error response.
    pub fn parse(line: &str) -> Result<Request, (Option<u64>, String)> {
        let root = Json::parse(line.trim()).map_err(|e| (None, format!("bad JSON: {e}")))?;
        let id = root.get("id").and_then(Json::as_usize).map(|v| v as u64);
        let err = |msg: String| (id, msg);
        if !matches!(root, Json::Obj(_)) {
            return Err(err("request must be a JSON object".into()));
        }
        let id = id.ok_or_else(|| (None, "missing numeric \"id\"".to_string()))?;
        let op = root
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing string \"op\"".into()))?;
        match op {
            "verify" => {
                let spec = root
                    .get("spec")
                    .and_then(Json::as_str)
                    .ok_or_else(|| err("verify requires a string \"spec\"".into()))?
                    .to_string();
                let field = |key: &str| -> Result<Option<usize>, (Option<u64>, String)> {
                    match root.get(key) {
                        None | Some(Json::Null) => Ok(None),
                        Some(v) => v
                            .as_usize()
                            .map(Some)
                            .ok_or_else(|| err(format!("\"{key}\" must be a non-negative number"))),
                    }
                };
                let auto_probe = match root.get("auto_probe") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_bool()
                            .ok_or_else(|| err("\"auto_probe\" must be a boolean".into()))?,
                    ),
                };
                let profile = match root.get("profile") {
                    None | Some(Json::Null) => false,
                    Some(v) => v
                        .as_bool()
                        .ok_or_else(|| err("\"profile\" must be a boolean".into()))?,
                };
                Ok(Request::Verify {
                    id,
                    spec,
                    options: VerifyOptions {
                        max_states: field("max_states")?,
                        max_depth: field("max_depth")?,
                        max_unfold: field("max_unfold")?,
                        auto_probe,
                        profile,
                        deadline_ms: field("deadline_ms")?.map(|v| v as u64),
                        memory_budget: field("memory_budget")?.map(|v| v as u64),
                    },
                })
            }
            "stats" => Ok(Request::Stats { id }),
            "metrics" => {
                let format = match root.get("format") {
                    None | Some(Json::Null) => MetricsFormat::Json,
                    Some(v) => match v.as_str() {
                        Some("json") => MetricsFormat::Json,
                        Some("text") => MetricsFormat::Text,
                        _ => return Err(err("\"format\" must be \"json\" or \"text\"".into())),
                    },
                };
                Ok(Request::Metrics { id, format })
            }
            "cancel" => {
                let target = root
                    .get("target")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| err("cancel requires a numeric \"target\"".into()))?
                    as u64;
                Ok(Request::Cancel { id, target })
            }
            "ping" => Ok(Request::Ping { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(err(format!("unknown op {other:?}"))),
        }
    }

    /// Renders the request as its wire line (without the trailing newline).
    pub fn to_line(&self) -> String {
        let json = match self {
            Request::Verify { id, spec, options } => {
                let mut fields = vec![
                    ("op".to_string(), Json::str("verify")),
                    ("id".to_string(), Json::Num(*id as f64)),
                    ("spec".to_string(), Json::str(spec.clone())),
                ];
                let mut num = |key: &str, v: Option<usize>| {
                    if let Some(v) = v {
                        fields.push((key.to_string(), Json::Num(v as f64)));
                    }
                };
                num("max_states", options.max_states);
                num("max_depth", options.max_depth);
                num("max_unfold", options.max_unfold);
                if let Some(p) = options.auto_probe {
                    fields.push(("auto_probe".to_string(), Json::Bool(p)));
                }
                if options.profile {
                    fields.push(("profile".to_string(), Json::Bool(true)));
                }
                if let Some(ms) = options.deadline_ms {
                    fields.push(("deadline_ms".to_string(), Json::Num(ms as f64)));
                }
                if let Some(bytes) = options.memory_budget {
                    fields.push(("memory_budget".to_string(), Json::Num(bytes as f64)));
                }
                Json::obj(fields)
            }
            Request::Stats { id } => simple_op("stats", *id),
            Request::Metrics { id, format } => Json::obj([
                ("op", Json::str("metrics")),
                ("id", Json::Num(*id as f64)),
                ("format", Json::str(format.as_str())),
            ]),
            Request::Cancel { id, target } => Json::obj([
                ("op", Json::str("cancel")),
                ("id", Json::Num(*id as f64)),
                ("target", Json::Num(*target as f64)),
            ]),
            Request::Ping { id } => simple_op("ping", *id),
            Request::Shutdown { id } => simple_op("shutdown", *id),
        };
        json.to_string()
    }
}

fn simple_op(op: &str, id: u64) -> Json {
    Json::obj([("op", Json::str(op)), ("id", Json::Num(id as f64))])
}

fn id_json(id: Option<u64>) -> Json {
    match id {
        Some(id) => Json::Num(id as f64),
        None => Json::Null,
    }
}

/// Writes one frame — `line` and its terminating newline — as a single
/// buffer: one `write_all`, one `flush`. Both ends of the wire send through
/// it. A newline written on its own would leave in a second TCP segment,
/// which Nagle's algorithm holds until the peer's delayed ACK — a stall of
/// tens of milliseconds on every exchange.
pub(crate) fn write_frame<W: Write + ?Sized>(writer: &mut W, line: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()
}

/// Builds a success response carrying `fields` in addition to `id`/`ok`.
pub fn ok_response<I, K>(id: u64, fields: I) -> String
where
    I: IntoIterator<Item = (K, Json)>,
    K: Into<String>,
{
    let mut all = vec![
        ("id".to_string(), Json::Num(id as f64)),
        ("ok".to_string(), Json::Bool(true)),
    ];
    all.extend(fields.into_iter().map(|(k, v)| (k.into(), v)));
    Json::obj(all).to_string()
}

/// Builds a successful `verify` response line around an **already-rendered**
/// report body — the verdict cache stores reports as text, so a hit splices
/// the stored bytes straight into the frame without re-rendering a JSON
/// tree. Field order matches the sorted-key rendering every other response
/// gets from [`Json`]'s `BTreeMap` objects.
pub fn verify_response_line(id: u64, cached: bool, key: &str, report: &str) -> String {
    format!(
        "{{\"cached\":{cached},\"id\":{id},\"key\":{},\"ok\":true,\"report\":{report}}}",
        Json::str(key)
    )
}

/// [`verify_response_line`] with the request's phase breakdown spliced in —
/// only sent when the `verify` asked for `"profile": true`. `phases_json` is
/// an already-rendered JSON object (`obs::phases::Phases::to_json_text`);
/// field order stays the sorted-key order of every other frame.
pub fn verify_response_line_profiled(
    id: u64,
    cached: bool,
    key: &str,
    report: &str,
    phases_json: &str,
) -> String {
    format!(
        "{{\"cached\":{cached},\"id\":{id},\"key\":{},\"ok\":true,\
         \"phases\":{phases_json},\"report\":{report}}}",
        Json::str(key)
    )
}

/// Builds a successful `metrics` response line around the registry
/// snapshot's **already-rendered** JSON text (`obs::Snapshot::to_json_text`
/// renders deterministically and is wire-parseable, so the bytes are spliced
/// straight in, like a cached report).
pub fn metrics_response_line(id: u64, snapshot_json: &str) -> String {
    format!("{{\"id\":{id},\"metrics\":{snapshot_json},\"ok\":true}}")
}

/// Builds a failure response (`id` may be unknown for unparseable frames).
pub fn err_response(id: Option<u64>, kind: ErrorKind, message: &str) -> String {
    Json::obj([
        ("id", id_json(id)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("kind", Json::str(kind.as_str())),
                ("message", Json::str(message)),
            ]),
        ),
    ])
    .to_string()
}

/// Builds an [`ErrorKind::Overloaded`] failure response whose error object
/// additionally carries `retry_after_ms` — the server's backoff hint, which
/// [`crate::Client::verify_retrying`] honors before resubmitting.
pub fn overloaded_response(id: u64, message: &str, retry_after_ms: u64) -> String {
    Json::obj([
        ("id", Json::Num(id as f64)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("kind", Json::str(ErrorKind::Overloaded.as_str())),
                ("message", Json::str(message)),
                ("retry_after_ms", Json::Num(retry_after_ms as f64)),
            ]),
        ),
    ])
    .to_string()
}

/// The typed client-side view of a `verify` response's `report` object — the
/// wire rendering of [`effpi::Report::to_wire_json`].
#[derive(Clone, PartialEq, Debug)]
pub struct WireReport {
    /// Overall verdict ([`effpi::Report::passed`]).
    pub passed: bool,
    /// States of the explored LTS.
    pub states: usize,
    /// Transitions of the explored LTS.
    pub transitions: usize,
    /// `(property name, holds)` per `check`, in spec order (`false` for
    /// properties that errored).
    pub verdicts: Vec<(String, bool)>,
    /// The deterministic summary line ([`effpi::ReportSummary::stable_line`])
    /// — byte-identical between a cache hit and the cold run it replays.
    pub stable_line: String,
    /// Step 1 outcome: `None` when the spec has no `term`.
    pub typecheck: Option<Result<(), String>>,
    /// First error anywhere in the run, if anything failed.
    pub error: Option<String>,
}

impl WireReport {
    /// Decodes a `report` object.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem.
    pub fn from_json(report: &Json) -> Result<WireReport, String> {
        let need = |key: &str| format!("report missing field {key:?}");
        let verdicts = report
            .get("properties")
            .and_then(Json::as_arr)
            .ok_or_else(|| need("properties"))?
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let name = p
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("property {i} missing \"name\""))?;
                let holds = p.get("holds").and_then(Json::as_bool).unwrap_or(false);
                Ok((name.to_string(), holds))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let typecheck = match report.get("typecheck") {
            None | Some(Json::Null) => None,
            Some(tc) => match tc.get("ok").and_then(Json::as_bool) {
                Some(true) => Some(Ok(())),
                Some(false) => Some(Err(tc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("typecheck failed")
                    .to_string())),
                None => return Err("typecheck missing boolean \"ok\"".into()),
            },
        };
        Ok(WireReport {
            passed: report
                .get("passed")
                .and_then(Json::as_bool)
                .ok_or_else(|| need("passed"))?,
            states: report
                .get("states")
                .and_then(Json::as_usize)
                .ok_or_else(|| need("states"))?,
            transitions: report
                .get("transitions")
                .and_then(Json::as_usize)
                .ok_or_else(|| need("transitions"))?,
            verdicts,
            stable_line: report
                .get("stable_line")
                .and_then(Json::as_str)
                .ok_or_else(|| need("stable_line"))?
                .to_string(),
            typecheck,
            error: report.get("error").and_then(Json::as_str).map(String::from),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let requests = [
            Request::Verify {
                id: 7,
                spec: "env x : cio[int]\ntype i[x, Pi(v: int) nil]".into(),
                options: VerifyOptions {
                    max_states: Some(10_000),
                    auto_probe: Some(false),
                    ..VerifyOptions::default()
                },
            },
            Request::Verify {
                id: 9,
                spec: "env x : cio[int]\ntype i[x, Pi(v: int) nil]".into(),
                options: VerifyOptions {
                    profile: true,
                    ..VerifyOptions::default()
                },
            },
            Request::Verify {
                id: 10,
                spec: "env x : cio[int]\ntype i[x, Pi(v: int) nil]".into(),
                options: VerifyOptions {
                    deadline_ms: Some(1_500),
                    ..VerifyOptions::default()
                },
            },
            Request::Verify {
                id: 11,
                spec: "env x : cio[int]\ntype i[x, Pi(v: int) nil]".into(),
                options: VerifyOptions {
                    memory_budget: Some(1 << 20),
                    ..VerifyOptions::default()
                },
            },
            Request::Stats { id: 1 },
            Request::Metrics {
                id: 5,
                format: MetricsFormat::Json,
            },
            Request::Metrics {
                id: 6,
                format: MetricsFormat::Text,
            },
            Request::Cancel { id: 2, target: 7 },
            Request::Ping { id: 3 },
            Request::Shutdown { id: 4 },
        ];
        for request in requests {
            let line = request.to_line();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(Request::parse(&line), Ok(request), "{line}");
        }
    }

    #[test]
    fn malformed_frames_report_protocol_errors_with_best_effort_ids() {
        // No JSON at all: no id to echo.
        assert_eq!(Request::parse("nonsense").unwrap_err().0, None);
        // Valid JSON but no id.
        assert_eq!(
            Request::parse("{\"op\":\"ping\"}").unwrap_err().0,
            None,
            "id is required"
        );
        // id readable, op wrong: the error can be addressed.
        let (id, msg) = Request::parse("{\"op\":\"explode\",\"id\":9}").unwrap_err();
        assert_eq!(id, Some(9));
        assert!(msg.contains("unknown op"), "{msg}");
        // verify without a spec.
        let (id, msg) = Request::parse("{\"op\":\"verify\",\"id\":3}").unwrap_err();
        assert_eq!(id, Some(3));
        assert!(msg.contains("spec"), "{msg}");
        // bad option type.
        let (_, msg) =
            Request::parse("{\"op\":\"verify\",\"id\":3,\"spec\":\"\",\"max_states\":\"a\"}")
                .unwrap_err();
        assert!(msg.contains("max_states"), "{msg}");
        // A `strategy` member is an unknown field like any other: ignored,
        // whatever its value.
        for strategy in ["\"dfs\"", "3"] {
            let line =
                format!("{{\"op\":\"verify\",\"id\":4,\"spec\":\"\",\"strategy\":{strategy}}}");
            assert_eq!(
                Request::parse(&line),
                Ok(Request::Verify {
                    id: 4,
                    spec: String::new(),
                    options: VerifyOptions::default(),
                }),
                "{line}"
            );
        }
    }

    #[test]
    fn responses_carry_ok_and_echo_ids() {
        let ok = ok_response(5, [("pong", Json::Bool(true))]);
        let parsed = Json::parse(&ok).unwrap();
        assert_eq!(parsed.get("id").and_then(Json::as_usize), Some(5));
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));

        let err = err_response(None, ErrorKind::Protocol, "bad frame");
        let parsed = Json::parse(&err).unwrap();
        assert_eq!(parsed.get("id"), Some(&Json::Null));
        assert_eq!(
            parsed
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("protocol")
        );
    }

    #[test]
    fn overloaded_responses_carry_retry_after() {
        let line = overloaded_response(12, "queue full", 75);
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        let error = parsed.get("error").unwrap();
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some(ErrorKind::Overloaded.as_str())
        );
        assert_eq!(
            error.get("retry_after_ms").and_then(Json::as_usize),
            Some(75)
        );
    }

    #[test]
    fn wire_reports_decode_from_the_session_rendering() {
        let report = effpi::Session::builder()
            .max_states(10_000)
            .build()
            .run_spec_text("env x : cio[int]\ntype o[x, int, Pi() nil]\ncheck deadlock_free [x]")
            .unwrap();
        let decoded = WireReport::from_json(&report.to_wire_json()).unwrap();
        assert!(decoded.passed);
        assert_eq!(decoded.verdicts, vec![("deadlock-free".to_string(), true)]);
        assert_eq!(decoded.stable_line, report.summary().stable_line());
        assert_eq!(decoded.typecheck, None);
        assert_eq!(decoded.error, None);
        assert!(decoded.states > 0);
    }
}
