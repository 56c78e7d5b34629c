//! A blocking client for the `effpi-serve` protocol.
//!
//! [`Client`] drives one connection synchronously: each high-level call
//! sends one frame and waits for the response with the matching `id`. The
//! lower-level [`Client::submit_verify`] / [`Client::recv`] pair exposes the
//! pipelined wire directly — that is how a caller keeps several `verify`
//! requests in flight (and how cancellation is exercised: submit, then
//! [`Client::cancel`] the returned id).
//!
//! For unattended callers there is [`Client::verify_retrying`]: capped
//! exponential backoff with *deterministic* seeded jitter (see
//! [`RetryPolicy`]), honoring the server's `retry_after_ms` hint on
//! `overloaded` refusals and reconnecting after transport failures. Retrying
//! a `verify` is always safe — verification is idempotent under its content
//! address (`CacheKey`), so a duplicate submission can only hit the cache.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::path::Path;
use std::time::Duration;

use obs::hash::splitmix64;
use wire::Json;

use crate::protocol::{write_frame, ErrorKind, MetricsFormat, Request, VerifyOptions, WireReport};

/// An error talking to the server.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or closed mid-exchange.
    Io(io::Error),
    /// The server sent a frame this client cannot make sense of.
    Protocol(String),
    /// The server answered `ok: false`.
    Server {
        /// The machine-readable `error.kind`.
        kind: String,
        /// The human-readable message.
        message: String,
        /// The backoff hint of an `overloaded` refusal (absent on every
        /// other kind): come back no sooner than this many milliseconds.
        retry_after_ms: Option<u64>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server {
                kind,
                message,
                retry_after_ms,
            } => {
                write!(f, "server error [{kind}]: {message}")?;
                if let Some(ms) = retry_after_ms {
                    write!(f, " (retry after {ms}ms)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A successful `verify` response.
#[derive(Clone, PartialEq, Debug)]
pub struct VerifyReply {
    /// The decoded report.
    pub report: WireReport,
    /// Whether the verdict cache answered (`true` ⇒ the report replays a
    /// cold run byte-identically, timings included).
    pub cached: bool,
    /// The content address the verdict is stored under (32 hex digits).
    pub key: String,
}

/// One response frame, minimally decoded: the echoed id and the payload.
#[derive(Clone, PartialEq, Debug)]
pub struct Response {
    /// The request id this answers (`None`: a protocol error for an
    /// unparseable frame).
    pub id: Option<u64>,
    /// The whole response object.
    pub body: Json,
}

impl Response {
    /// Re-shapes an `ok: false` body into [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// Returns the server's error, or a protocol error for malformed frames.
    pub fn into_ok(self) -> Result<Json, ClientError> {
        match self.body.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(self.body),
            Some(false) => {
                let error = self.body.get("error");
                let field = |key: &str| {
                    error
                        .and_then(|e| e.get(key))
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_string()
                };
                Err(ClientError::Server {
                    kind: field("kind"),
                    message: field("message"),
                    retry_after_ms: error
                        .and_then(|e| e.get("retry_after_ms"))
                        .and_then(Json::as_usize)
                        .map(|v| v as u64),
                })
            }
            None => Err(ClientError::Protocol(format!(
                "response without \"ok\": {}",
                self.body
            ))),
        }
    }
}

/// How [`Client::verify_retrying`] paces itself: capped exponential backoff
/// with **deterministic** jitter. The jitter multiplies each wait by a
/// factor in `[0.5, 1.0)` derived from `splitmix64(jitter_seed ^ attempt)` —
/// seeded, so a fleet of clients desynchronises its retries while every
/// individual schedule stays exactly reproducible (tests pin the seed and
/// predict the waits with [`RetryPolicy::backoff_ms`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Total tries, the first included (`0` is treated as `1`).
    pub attempts: u32,
    /// Socket read timeout applied for the exchange (`None`: wait forever).
    /// A timed-out read surfaces as a transport failure and is retried over
    /// a fresh connection.
    pub timeout: Option<Duration>,
    /// First backoff wait, milliseconds (doubles every attempt).
    pub backoff_base_ms: u64,
    /// Ceiling on the un-jittered wait, milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            timeout: None,
            backoff_base_ms: 25,
            backoff_cap_ms: 2_000,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based: the wait after the
    /// first failure is `backoff_ms(0)`), jitter applied. Pure — tests pin
    /// `jitter_seed` and predict every wait.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let base = self.backoff_base_ms.max(1);
        let exp = base.saturating_mul(1u64 << attempt.min(20));
        let capped = exp.min(self.backoff_cap_ms.max(base));
        // A factor in [0.5, 1.0): the top 53 bits of the hash, as a fraction.
        let fraction =
            (splitmix64(self.jitter_seed ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = (capped as f64 * (0.5 + fraction / 2.0)).round() as u64;
        jittered.max(1)
    }
}

/// Where a [`Client`] connected, kept for transparent reconnects.
enum Target {
    Tcp(String),
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

/// Applies a read timeout to a live socket (captures a dup of the socket
/// handle; absent when the transport cannot time out).
type TimeoutHook = Box<dyn Fn(Option<Duration>) -> io::Result<()> + Send>;

/// A blocking connection to an `effpi-serve` daemon.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    next_id: u64,
    /// Responses read while waiting for a different id (the server answers
    /// pipelined requests in completion order, not send order); [`Client::recv`]
    /// drains this before touching the wire, so no response is ever lost.
    buffered: std::collections::VecDeque<Response>,
    /// The reconnect address (`None` for [`Client::from_halves`] pairs,
    /// which have nowhere to reconnect to).
    target: Option<Target>,
    /// Applies a read timeout to the live socket (captures a dup of the
    /// socket handle; `None` when the transport cannot time out).
    timeout_hook: Option<TimeoutHook>,
    /// The configured read timeout, re-applied after every reconnect.
    timeout: Option<Duration>,
    /// How retry waits actually pass; tests swap in a recorder to assert the
    /// schedule without slowing the suite down.
    sleeper: Box<dyn FnMut(Duration) + Send>,
}

impl Client {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Returns the connection error.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        let mut client = Client::over_tcp(TcpStream::connect(addr)?)?;
        client.target = Some(Target::Tcp(addr.to_string()));
        Ok(client)
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Returns the connection error.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> io::Result<Client> {
        let mut client = Client::over_unix(std::os::unix::net::UnixStream::connect(path)?)?;
        client.target = Some(Target::Unix(path.to_path_buf()));
        Ok(client)
    }

    fn over_tcp(stream: TcpStream) -> io::Result<Client> {
        // Requests are whole frames; see `protocol::write_frame`.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        // Read timeouts are a property of the socket, not of one dup of it,
        // so a retained clone can adjust them after the halves are boxed.
        let control = stream.try_clone()?;
        let mut client = Client::from_halves(Box::new(stream), Box::new(writer));
        client.timeout_hook = Some(Box::new(move |t| control.set_read_timeout(t)));
        Ok(client)
    }

    #[cfg(unix)]
    fn over_unix(stream: std::os::unix::net::UnixStream) -> io::Result<Client> {
        let writer = stream.try_clone()?;
        let control = stream.try_clone()?;
        let mut client = Client::from_halves(Box::new(stream), Box::new(writer));
        client.timeout_hook = Some(Box::new(move |t| control.set_read_timeout(t)));
        Ok(client)
    }

    /// Wraps an already-connected stream pair (useful for tests).
    pub fn from_halves(reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) -> Client {
        Client {
            reader: BufReader::new(reader),
            writer,
            next_id: 0,
            buffered: std::collections::VecDeque::new(),
            target: None,
            timeout_hook: None,
            timeout: None,
            sleeper: Box::new(std::thread::sleep),
        }
    }

    /// Sets (or clears) the socket read timeout. A response that does not
    /// arrive in time surfaces as [`ClientError::Io`]; with a reconnectable
    /// target, [`Client::verify_retrying`] then retries over a fresh
    /// connection. Best-effort no-op on transports without timeouts
    /// ([`Client::from_halves`]).
    ///
    /// # Errors
    ///
    /// Returns the socket configuration error.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.timeout = timeout;
        match &self.timeout_hook {
            Some(hook) => hook(timeout),
            None => Ok(()),
        }
    }

    /// Replaces how retry waits pass (tests record instead of sleeping).
    pub fn set_sleeper(&mut self, sleeper: impl FnMut(Duration) + Send + 'static) {
        self.sleeper = Box::new(sleeper);
    }

    /// Replaces this client's transport with a fresh connection to its
    /// original target. `Ok(false)` when there is no target to return to
    /// (a [`Client::from_halves`] pair). Buffered undelivered responses are
    /// dropped — they belong to the dead connection's request ids.
    fn reconnect(&mut self) -> io::Result<bool> {
        let Some(target) = &self.target else {
            return Ok(false);
        };
        let fresh = match target {
            Target::Tcp(addr) => Client::over_tcp(TcpStream::connect(addr)?)?,
            #[cfg(unix)]
            Target::Unix(path) => {
                Client::over_unix(std::os::unix::net::UnixStream::connect(path)?)?
            }
        };
        self.reader = fresh.reader;
        self.writer = fresh.writer;
        self.timeout_hook = fresh.timeout_hook;
        self.buffered.clear();
        if let Some(hook) = &self.timeout_hook {
            hook(self.timeout)?;
        }
        Ok(true)
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.writer, &request.to_line())
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Reads the next response frame — buffered responses first, then the
    /// wire — whichever request it answers.
    ///
    /// # Errors
    ///
    /// Returns an I/O error (including EOF) or a malformed frame.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if let Some(buffered) = self.buffered.pop_front() {
            return Ok(buffered);
        }
        self.recv_from_wire()
    }

    fn recv_from_wire(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let body = Json::parse(line.trim())
            .map_err(|e| ClientError::Protocol(format!("bad response frame: {e}")))?;
        let id = body.get("id").and_then(Json::as_usize).map(|v| v as u64);
        Ok(Response { id, body })
    }

    /// Reads responses until the one answering `id` arrives. The server
    /// answers pipelined requests in completion order, so responses to
    /// *other* in-flight requests may arrive first — they are buffered for
    /// the next [`Client::recv`], never dropped.
    fn recv_for(&mut self, id: u64) -> Result<Json, ClientError> {
        let at = self.buffered.iter().position(|r| r.id == Some(id));
        if let Some(response) = at.and_then(|at| self.buffered.remove(at)) {
            return response.into_ok();
        }
        loop {
            let response = self.recv_from_wire()?;
            if response.id == Some(id) {
                return response.into_ok();
            }
            self.buffered.push_back(response);
        }
    }

    /// Sends a `verify` for a spec text without waiting; returns the request
    /// id to [`Client::recv`] or [`Client::cancel`] against.
    ///
    /// # Errors
    ///
    /// Returns the send error.
    pub fn submit_verify(
        &mut self,
        spec: &str,
        options: VerifyOptions,
    ) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Verify {
            id,
            spec: spec.to_string(),
            options,
        })?;
        Ok(id)
    }

    /// Verifies a spec text and waits for the verdict.
    ///
    /// # Errors
    ///
    /// Returns transport errors or the server's refusal (spec parse error,
    /// cancellation, shutdown).
    pub fn verify(
        &mut self,
        spec: &str,
        options: VerifyOptions,
    ) -> Result<VerifyReply, ClientError> {
        let id = self.submit_verify(spec, options)?;
        let body = self.recv_for(id)?;
        decode_verify(&body)
    }

    /// [`Client::verify`] with a [`RetryPolicy`]: applies the policy's
    /// timeout, and on each failed attempt waits
    /// `max(backoff_ms(attempt), server's retry_after_ms hint)` before
    /// trying again. What retries: `overloaded` refusals (on the live
    /// connection) and transport failures (over a *fresh* connection — a
    /// timed-out or torn exchange may have desynchronised the frame stream,
    /// and resubmitting is safe because verify is idempotent under its
    /// content address). Every other server refusal — spec errors,
    /// `internal-error`, `deadline-exceeded`, `shutting-down` — is returned
    /// immediately: retrying cannot change a deterministic answer.
    ///
    /// # Errors
    ///
    /// Returns the first non-retryable error, or the last retryable one once
    /// the attempt budget is spent.
    pub fn verify_retrying(
        &mut self,
        spec: &str,
        options: VerifyOptions,
        policy: &RetryPolicy,
    ) -> Result<VerifyReply, ClientError> {
        self.set_timeout(policy.timeout)?;
        let attempts = policy.attempts.max(1);
        let mut last_error = None;
        for attempt in 0..attempts {
            let error = match self.verify(spec, options) {
                Ok(reply) => return Ok(reply),
                Err(e) => e,
            };
            let out_of_budget = attempt + 1 >= attempts;
            match error {
                ClientError::Server {
                    ref kind,
                    retry_after_ms,
                    ..
                } if kind == ErrorKind::Overloaded.as_str() => {
                    if out_of_budget {
                        return Err(error);
                    }
                    let wait = policy.backoff_ms(attempt).max(retry_after_ms.unwrap_or(0));
                    (self.sleeper)(Duration::from_millis(wait));
                    last_error = Some(error);
                }
                ClientError::Io(_) | ClientError::Protocol(_) => {
                    if out_of_budget {
                        return Err(error);
                    }
                    (self.sleeper)(Duration::from_millis(policy.backoff_ms(attempt)));
                    match self.reconnect() {
                        Ok(true) => last_error = Some(error),
                        // Nowhere to reconnect to, or the reconnect itself
                        // failed: surface the original failure.
                        Ok(false) | Err(_) => return Err(error),
                    }
                }
                other => return Err(other),
            }
        }
        Err(last_error.unwrap_or_else(|| ClientError::Protocol("retry budget exhausted".into())))
    }

    /// Fetches the server/cache counters as the raw `stats` object.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Stats { id })?;
        let body = self.recv_for(id)?;
        body.get("stats")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("stats response without \"stats\"".into()))
    }

    /// Fetches the full telemetry snapshot as the raw `metrics` JSON object
    /// (counters, gauges and latency histograms of the server process).
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Metrics {
            id,
            format: MetricsFormat::Json,
        })?;
        let body = self.recv_for(id)?;
        body.get("metrics")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("metrics response without \"metrics\"".into()))
    }

    /// Fetches the telemetry snapshot as Prometheus-style text exposition.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Metrics {
            id,
            format: MetricsFormat::Text,
        })?;
        let body = self.recv_for(id)?;
        body.get("metrics_text")
            .and_then(Json::as_str)
            .map(String::from)
            .ok_or_else(|| {
                ClientError::Protocol("metrics response without \"metrics_text\"".into())
            })
    }

    /// Asks the server to drop a not-yet-started `verify` of this
    /// connection. `Ok(true)` guarantees the job will not run; `Ok(false)`
    /// means it already started (or finished, or was never known).
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors.
    pub fn cancel(&mut self, target: u64) -> Result<bool, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Cancel { id, target })?;
        let body = self.recv_for(id)?;
        Ok(body
            .get("cancelled")
            .and_then(Json::as_bool)
            .unwrap_or(false))
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Ping { id })?;
        self.recv_for(id).map(|_| ())
    }

    /// Asks the server to shut down gracefully (acknowledged before the
    /// drain begins).
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Shutdown { id })?;
        self.recv_for(id).map(|_| ())
    }
}

/// Decodes a successful `verify` response body into a [`VerifyReply`].
///
/// # Errors
///
/// Returns a protocol error for structurally wrong bodies.
pub fn decode_verify(body: &Json) -> Result<VerifyReply, ClientError> {
    let report = body
        .get("report")
        .ok_or_else(|| ClientError::Protocol("verify response without \"report\"".into()))?;
    Ok(VerifyReply {
        report: WireReport::from_json(report).map_err(ClientError::Protocol)?,
        cached: body.get("cached").and_then(Json::as_bool).unwrap_or(false),
        key: body
            .get("key")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
    })
}
