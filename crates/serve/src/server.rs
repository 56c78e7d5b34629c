//! The `effpi-serve` daemon: accept loops, connection readers, and the
//! verification worker pool.
//!
//! ## Architecture
//!
//! ```text
//!  TCP / Unix acceptor ──► one reader thread per connection
//!                               │  (parses frames; answers stats/cancel/
//!                               │   ping/shutdown inline)
//!                               ▼
//!                      shared FIFO job queue  ◄─── cancellation flags
//!                               │
//!                    fixed pool of W workers, each running the
//!                    Session pipeline with ⌊jobs / W⌋ exploration
//!                    threads (the global --jobs budget, split)
//!                               │
//!                     content-addressed VerdictCache
//!                               │
//!                     response line ──► connection writer
//! ```
//!
//! Responses are written by whichever thread produced them (reader for
//! inline ops, worker for verdicts) under the connection's writer lock, so
//! a client may pipeline requests and receive answers out of order, matched
//! by `id`.
//!
//! ## Shutdown
//!
//! Graceful, in three steps: stop accepting (acceptors exit, readers stop
//! taking frames), **drain** — every already-queued job still runs and its
//! response is still delivered (the writer half of a connection outlives its
//! reader) — then join every thread. Requests arriving during the drain are
//! refused with `error.kind = "shutting-down"`.
//!
//! ## Cancellation
//!
//! `cancel` flips a per-job [`CancelToken`] that reaches all the way into
//! the exploration engine. A request that never started is dropped when a
//! worker dequeues it (its `verify` answers `error.kind = "cancelled"`); one
//! that is already executing is **aborted at its next state expansion** —
//! the engine's cooperative cancel hook (`lts::explore`) stops every
//! exploration worker, the run fails with `VerifyError::Cancelled`, and the
//! `verify` answers `error.kind = "cancelled"` without polluting the verdict
//! cache (an aborted prefix is scheduling-dependent and never cacheable).
//! The `cancel` *response* still reports `cancelled: false` for started
//! jobs — `true` remains the stronger "never ran at all" guarantee.
//!
//! ## Resilience
//!
//! Three independent mechanisms keep one bad request — or a burst of good
//! ones — from taking the daemon down:
//!
//! * **Panic isolation.** Every verification runs under `catch_unwind` at
//!   the worker boundary. A panic anywhere in the engine becomes a typed
//!   `internal-error` response, the worker thread survives, and the event is
//!   counted (`requests.panics_caught`). The shared locks tolerate this by
//!   construction: `obs::sync::Mutex` recovers poisoned guards, and
//!   fault-injection decisions are made while no lock is held.
//! * **Deadlines.** A `verify` may carry `deadline_ms`; a housekeeper thread
//!   flips the job's [`CancelToken`] when the budget elapses (queued or
//!   executing alike), and the reply is a typed `deadline-exceeded` error.
//! * **Overload protection.** Admission is bounded (`max_queue_depth`):
//!   past it, requests are *shed* with a typed `overloaded` reply carrying a
//!   `retry_after_ms` hint — never silently dropped. Under an optional
//!   memory budget (an interner node-count proxy, since the hash-consing
//!   arenas are append-only) the daemon degrades in a ladder: first it sheds
//!   re-derivable cached verdicts (LRU halving + store compaction), then it
//!   refuses only *larger-than-default* jobs with `overloaded` — small
//!   requests keep being served.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use effpi::spec::parse_spec;
use effpi::{CancelToken, Session};
use obs::sync::{Condvar, Mutex};
use store::{StoreConfig, VerdictStore};
use wire::Json;

use crate::cache::{CacheConfig, VerdictCache};
use crate::faults::{FaultAction, FaultPlan, FaultPoint};
use crate::protocol::{
    err_response, metrics_response_line, ok_response, overloaded_response, verify_response_line,
    verify_response_line_profiled, write_frame, ErrorKind, MetricsFormat, Request, VerifyOptions,
};

/// How long a blocked read waits before re-checking the shutdown flag, and
/// how long an idle acceptor sleeps between polls. Bounds shutdown latency;
/// never adds latency to actual traffic.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

type BoxedRead = Box<dyn Read + Send>;
type BoxedWrite = Box<dyn Write + Send>;

/// The persistent second cache tier: where the on-disk verdict store lives
/// and how large it may grow (bounds enforced at compaction — see the
/// `store` crate).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoreTier {
    /// The store directory (created if missing; `store.log` lives inside).
    pub path: PathBuf,
    /// Capacity bounds of the on-disk tier.
    pub bounds: StoreConfig,
}

impl StoreTier {
    /// A tier at `path` with the default (disk-sized) bounds.
    pub fn at(path: impl Into<PathBuf>) -> StoreTier {
        StoreTier {
            path: path.into(),
            bounds: StoreConfig::default(),
        }
    }
}

/// Tuning of a [`Server`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServerConfig {
    /// Concurrent verifications (worker threads).
    pub workers: usize,
    /// Global exploration-thread budget, split evenly across the workers:
    /// each in-flight verification explores with `max(1, jobs / workers)`
    /// threads. `jobs = workers` (the default) means serial exploration per
    /// request with `workers`-way request concurrency.
    pub jobs: usize,
    /// Bounds of the in-memory verdict cache (the first tier).
    pub cache: CacheConfig,
    /// State bound for requests that do not override `max_states`.
    pub default_max_states: usize,
    /// Optional crash-safe on-disk verdict store (the second tier): cold
    /// misses populate it write-through, disk hits are promoted into the
    /// LRU, and a restarted daemon is warm from request one.
    pub store: Option<StoreTier>,
    /// When `true`, every answered `verify` writes one structured log line
    /// to stderr: request id, fingerprint, the tier that answered (`lru` /
    /// `disk` / `cold`), the outcome, and the per-phase timing breakdown.
    pub log_requests: bool,
    /// Admission bound: `verify` requests beyond this many *queued* jobs are
    /// shed with a typed `overloaded` reply (carrying `retry_after_ms`)
    /// instead of growing the queue without limit. `0` sheds everything —
    /// useful for drills; in-flight work is not counted against the bound.
    pub max_queue_depth: usize,
    /// Optional memory watchdog budget, in interner nodes (`types + terms`
    /// of `effpi::intern_stats()` — the daemon's dominant append-only
    /// allocation). At 90% the caches shed (LRU halving, store compaction);
    /// at 100% the server turns `degraded` and refuses requests asking for
    /// more than `default_max_states` with `overloaded`. `None` disables the
    /// watchdog.
    pub memory_budget: Option<u64>,
    /// Default per-request exploration memory budget, in bytes: past it, an
    /// exploration's cold frontier segments spill to disk and stream back in
    /// discovery order (see `lts::memory`). A request's own
    /// `options.memory_budget` overrides this default. Orthogonal to
    /// [`ServerConfig::memory_budget`]: the watchdog bounds the process-wide
    /// append-only interner and *sheds*, this knob bounds one exploration's
    /// transient working set and *spills* — reports stay byte-identical, so
    /// it never affects cache keys or verdicts. `None` keeps every frontier
    /// in memory.
    pub explore_memory_budget: Option<usize>,
    /// Deterministic fault injection (tests and chaos drills only; the
    /// default empty plan injects nothing).
    pub faults: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            jobs: 4,
            cache: CacheConfig::default(),
            default_max_states: 500_000,
            store: None,
            log_requests: false,
            max_queue_depth: 256,
            memory_budget: None,
            explore_memory_budget: None,
            faults: FaultPlan::default(),
        }
    }
}

impl ServerConfig {
    fn per_request_jobs(&self) -> usize {
        (self.jobs / self.workers.max(1)).max(1)
    }
}

/// Where a [`Server`] listens. At least one endpoint must be set.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Endpoints {
    /// A TCP bind address, e.g. `"127.0.0.1:7717"` (port `0` for ephemeral).
    pub tcp: Option<String>,
    /// A Unix-domain socket path (refused with an error off Unix).
    pub unix: Option<PathBuf>,
}

/// The verification service. [`Server::start`] spawns the acceptor and
/// worker threads and returns a [`ServerHandle`] to wait on or shut down.
pub struct Server;

impl Server {
    /// Starts the daemon on the given endpoints.
    ///
    /// # Errors
    ///
    /// Returns the bind error, `InvalidInput` when no endpoint is given, or
    /// the store-open error when `config.store` names an unusable path (a
    /// torn log recovers silently; only real I/O failures and foreign-format
    /// files refuse the start).
    pub fn start(endpoints: &Endpoints, config: ServerConfig) -> io::Result<ServerHandle> {
        if endpoints.tcp.is_none() && endpoints.unix.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no endpoint: set a TCP address and/or a Unix socket path",
            ));
        }
        // Every endpoint is bound *before* any thread is spawned: a failed
        // second bind must not leak a live acceptor (and its port) behind an
        // `Err` return that carries no handle to stop it.
        let mut tcp = None;
        if let Some(addr) = &endpoints.tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp = Some(listener);
        }
        let mut unix_path = None;
        #[cfg(unix)]
        let mut unix = None;
        if let Some(path) = &endpoints.unix {
            #[cfg(unix)]
            {
                // A stale socket file from a crashed daemon would fail the
                // bind — but only a *stale* one may be removed: if a live
                // daemon still answers on the path, starting a second one
                // must fail loudly (AddrInUse), not silently unlink the
                // first daemon's socket and hijack its traffic.
                if path.exists() {
                    if std::os::unix::net::UnixStream::connect(path).is_ok() {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("a daemon is already serving on {path:?}"),
                        ));
                    }
                    let _ = std::fs::remove_file(path);
                }
                let listener = std::os::unix::net::UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                unix_path = Some(path.clone());
                unix = Some(listener);
            }
            #[cfg(not(unix))]
            {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("Unix sockets are not available on this platform: {path:?}"),
                ));
            }
        }

        // The store tier opens before any thread spawns, for the same
        // leak-on-error reason as the binds: recovery of a torn log happens
        // here (inside `VerdictStore::open`), so by the time a worker runs,
        // the disk tier is a clean, serveable prefix.
        let disk = match &config.store {
            Some(tier) => Some(Mutex::new(VerdictStore::open(&tier.path, tier.bounds)?)),
            None => None,
        };

        let workers = config.workers.max(1);
        let tcp_addr = tcp.as_ref().map(TcpListener::local_addr).transpose()?;
        let mut handle = ServerHandle {
            shared: Arc::new(Shared::new(config, disk)),
            threads: Vec::new(),
            tcp_addr,
            unix_path,
        };
        // The workers and the housekeeper (which owns the time-driven duties
        // no request thread should block on: expiring deadlines and watching
        // memory pressure) start before any acceptor. A failed spawn stops
        // and joins the threads already started before the `Err` returns,
        // for the same leak-on-error reason as the binds.
        let mut spawn = |name: String, body: fn(&Arc<Shared>)| -> io::Result<()> {
            let shared = Arc::clone(&handle.shared);
            let thread = thread::Builder::new()
                .name(name)
                .spawn(move || body(&shared))?;
            handle.threads.push(thread);
            Ok(())
        };
        let spawned = (0..workers)
            .try_for_each(|worker| spawn(format!("effpi-serve-worker-{worker}"), worker_loop))
            .and_then(|()| spawn("effpi-serve-housekeeper".to_string(), housekeeper_loop));
        if let Err(e) = spawned {
            handle.shutdown();
            return Err(e);
        }

        if let Some(listener) = tcp {
            let shared = Arc::clone(&handle.shared);
            handle
                .threads
                .push(thread::spawn(move || accept_loop(&shared, &listener)));
        }
        #[cfg(unix)]
        if let Some(listener) = unix {
            let shared = Arc::clone(&handle.shared);
            handle
                .threads
                .push(thread::spawn(move || accept_loop(&shared, &listener)));
        }
        Ok(handle)
    }
}

/// A running server: the way to learn its ephemeral address, wait for a
/// client-initiated `shutdown`, or shut it down from the owning thread.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound TCP address (useful with port `0`).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Initiates a graceful shutdown and waits for every thread: in-flight
    /// and already-queued requests complete and their responses flush first.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.finish();
    }

    /// Blocks until some client sends a `shutdown` request (or another
    /// thread of this process calls [`ServerHandle::shutdown`] — but this
    /// method consumes the handle, so in-process that means waiting), then
    /// completes the same graceful drain.
    pub fn join(self) {
        {
            let mut down = self.shared.down.lock();
            while !*down {
                down = self.shared.down_cv.wait(down);
            }
        }
        self.finish();
    }

    fn finish(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
        loop {
            let Some(reader) = self.shared.readers.lock().pop() else {
                break;
            };
            let _ = reader.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

struct JobFlags {
    /// The cooperative cancellation hook, shared with the `Session` that
    /// runs the job: flipping it aborts an in-flight exploration.
    cancel: CancelToken,
    started: AtomicBool,
    /// Set by the housekeeper when the job's `deadline_ms` elapsed: the
    /// cancel token was flipped *because of the deadline*, so the refusal
    /// must say `deadline-exceeded`, not `cancelled`.
    deadline_exceeded: AtomicBool,
    /// Set once the job's response is sent; lets the housekeeper drop its
    /// deadline watch without racing the worker.
    finished: AtomicBool,
    /// The absolute expiry of the request's `deadline_ms`, fixed at
    /// admission (queue wait counts against the budget).
    deadline: Option<Instant>,
}

impl JobFlags {
    fn new(deadline: Option<Instant>) -> JobFlags {
        JobFlags {
            cancel: CancelToken::new(),
            started: AtomicBool::new(false),
            deadline_exceeded: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            deadline,
        }
    }
}

struct Job {
    conn: Arc<Conn>,
    id: u64,
    flags: Arc<JobFlags>,
    spec: String,
    options: VerifyOptions,
}

/// The live half of a [`FaultPlan`]: per-point pass counters, so the *n*-th
/// pass through each point is a well-defined, test-predictable index.
struct FaultHook {
    plan: FaultPlan,
    store_read: AtomicU64,
    store_write: AtomicU64,
    socket_write: AtomicU64,
    worker: AtomicU64,
}

impl FaultHook {
    fn new(plan: FaultPlan) -> Option<Arc<FaultHook>> {
        if plan.is_empty() {
            return None;
        }
        Some(Arc::new(FaultHook {
            plan,
            store_read: AtomicU64::new(0),
            store_write: AtomicU64::new(0),
            socket_write: AtomicU64::new(0),
            worker: AtomicU64::new(0),
        }))
    }

    /// Counts one pass through `point` and acts out its fault: sleeps
    /// through a `Delay`, panics on a `Panic`, and returns whether the
    /// operation fails. At `SocketWrite` a `Panic` is downgraded to failing:
    /// sends run on reader threads too, which carry no panic isolation, and
    /// a real failed write severs the connection exactly like this.
    #[expect(
        clippy::panic,
        reason = "an injected Panic exercises the worker's catch_unwind isolation"
    )]
    fn fails(&self, point: FaultPoint) -> bool {
        let counter = match point {
            FaultPoint::StoreRead => &self.store_read,
            FaultPoint::StoreWrite => &self.store_write,
            FaultPoint::SocketWrite => &self.socket_write,
            FaultPoint::Worker => &self.worker,
        };
        let pass = counter.fetch_add(1, Ordering::SeqCst);
        match self.plan.decide(point, pass) {
            None => false,
            Some(FaultAction::Delay { ms }) => {
                thread::sleep(Duration::from_millis(ms));
                false
            }
            Some(FaultAction::Error) => true,
            Some(FaultAction::Panic) if point == FaultPoint::SocketWrite => true,
            Some(FaultAction::Panic) => panic!("injected {point} fault"),
        }
    }
}

/// One client connection: the response writer and the cancellation registry
/// of its not-yet-completed `verify` requests.
struct Conn {
    writer: Mutex<BoxedWrite>,
    pending: Mutex<HashMap<u64, Arc<JobFlags>>>,
    /// Set on the first write failure (client vanished, or a write timeout
    /// cut a response mid-frame). A partially written frame desynchronises
    /// the line protocol, so nothing more may be sent on this connection —
    /// and the reader drops it, which closes the socket and lets the client
    /// observe a clean EOF instead of merged half-frames.
    dead: AtomicBool,
    /// The server's fault hook (`None` outside chaos drills): `send` is the
    /// socket-write injection point, and it runs on reader *and* worker
    /// threads, so the hook travels with the connection.
    faults: Option<Arc<FaultHook>>,
}

impl Conn {
    fn send(&self, line: &str) {
        // Injection decides before the writer lock is taken.
        if self
            .faults
            .as_ref()
            .is_some_and(|hook| hook.fails(FaultPoint::SocketWrite))
        {
            self.dead.store(true, Ordering::SeqCst);
            return;
        }
        let mut writer = self.writer.lock();
        if self.dead.load(Ordering::SeqCst) {
            return;
        }
        if write_frame(&mut *writer, line).is_err() {
            self.dead.store(true, Ordering::SeqCst);
        }
    }

    /// Removes `id` from the pending registry **only** if it still belongs
    /// to this job: a client that reuses an in-flight id overwrites the
    /// entry with the newer job's flags, and the older job's completion must
    /// not delete the newer job's cancellation handle.
    fn settle(&self, id: u64, flags: &Arc<JobFlags>) {
        let mut pending = self.pending.lock();
        if pending.get(&id).is_some_and(|f| Arc::ptr_eq(f, flags)) {
            pending.remove(&id);
        }
    }
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    in_flight: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    states_explored: AtomicU64,
    /// Disk-tier probes answered from `store.log` (each one also promoted
    /// the verdict into the LRU).
    disk_hits: AtomicU64,
    /// Disk-tier reads/writes that failed with an I/O error. The store is a
    /// cache: errors degrade to cold verification, never to a refused
    /// request — but they are accounted here so an operator can see a dying
    /// disk in `stats`.
    store_errors: AtomicU64,
    /// Requests refused with a typed `overloaded` reply (queue full, or
    /// degraded-mode large-job refusals). Every shed is an *answered*
    /// request — never a silent drop — so this equals the overloaded replies
    /// clients observed.
    shed: AtomicU64,
    /// Requests refused with `deadline-exceeded` (their `deadline_ms`
    /// elapsed while queued or executing).
    deadline_exceeded: AtomicU64,
    /// Requests refused with `shutting-down` (they arrived during the drain).
    shutting_down: AtomicU64,
    /// Verifications that panicked and were absorbed at the worker boundary
    /// (each one answered `internal-error`; the worker survived).
    panics_caught: AtomicU64,
}

impl Counters {
    /// Counts one answered `verify` in the one request bucket its reply
    /// lands in — the only place a bucket moves. `protocol` never answers a
    /// verify (a frame that fails to parse never becomes one); it sits with
    /// `failed` only to keep the map total.
    fn count(&self, verdict: &Verdict) {
        if let Verdict::Done {
            tier: Tier::Disk, ..
        } = verdict
        {
            self.disk_hits.fetch_add(1, Ordering::SeqCst);
        }
        let bucket = match verdict.kind() {
            None => &self.completed,
            Some(ErrorKind::Spec | ErrorKind::Internal | ErrorKind::Protocol) => &self.failed,
            Some(ErrorKind::Cancelled) => &self.cancelled,
            Some(ErrorKind::DeadlineExceeded) => &self.deadline_exceeded,
            Some(ErrorKind::Overloaded) => &self.shed,
            Some(ErrorKind::ShuttingDown) => &self.shutting_down,
        };
        bucket.fetch_add(1, Ordering::SeqCst);
    }
}

struct Shared {
    config: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    work_cv: Condvar,
    cache: Mutex<VerdictCache>,
    /// The persistent second tier, when `config.store` is set. Its mutex is
    /// **never held together with the LRU's**: the tiering protocol is
    /// probe-LRU → probe-disk → (verify) → fill-LRU → fill-disk, each step
    /// under its own lock, so slow disk I/O never serialises memory hits.
    store: Option<Mutex<VerdictStore>>,
    shutdown: AtomicBool,
    down: Mutex<bool>,
    down_cv: Condvar,
    readers: Mutex<Vec<thread::JoinHandle<()>>>,
    counters: Counters,
    /// The live fault-injection hook (`None` when `config.faults` is empty).
    faults: Option<Arc<FaultHook>>,
    /// Deadline watch list: the flags of admitted jobs that carry a
    /// `deadline_ms`, swept by the housekeeper every poll interval.
    deadlines: Mutex<Vec<Arc<JobFlags>>>,
    /// Sticky memory-pressure mode: once the interner crosses the budget,
    /// larger-than-default jobs are refused (the arenas are append-only, so
    /// there is no way back down short of a restart).
    degraded: AtomicBool,
}

impl Shared {
    fn new(config: ServerConfig, store: Option<Mutex<VerdictStore>>) -> Shared {
        let cache = Mutex::new(VerdictCache::new(config.cache));
        let faults = FaultHook::new(config.faults.clone());
        Shared {
            config,
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            cache,
            store,
            shutdown: AtomicBool::new(false),
            down: Mutex::new(false),
            down_cv: Condvar::new(),
            readers: Mutex::new(Vec::new()),
            counters: Counters::default(),
            faults,
            deadlines: Mutex::new(Vec::new()),
            degraded: AtomicBool::new(false),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// How soon a shed client should come back: the queue's expected drain
    /// time at one verification per `POLL_INTERVAL`-ish slot per worker,
    /// clamped to a sane band. Deterministic (no clock, no randomness), so
    /// chaos tests can pin it.
    fn retry_after_hint(&self, queued: usize) -> u64 {
        let workers = self.config.workers.max(1);
        (((queued / workers) as u64 + 1) * 25).clamp(25, 1_000)
    }

    fn begin_shutdown(&self) {
        // The flag flips *under the queue lock*: workers check it under the
        // same lock between their empty-pop and their cv wait, so the
        // notification below can never slip into that window and be missed
        // (the classic lost-wakeup), and readers enqueueing under the lock
        // see a consistent accept-or-refuse decision (no job can be pushed
        // after the workers were told to drain-and-exit).
        {
            let _queue = self.queue.lock();
            self.shutdown.store(true, Ordering::SeqCst);
        }
        // Wake every parked worker so the drain can finish...
        self.work_cv.notify_all();
        // ...and whoever is blocked in ServerHandle::join.
        *self.down.lock() = true;
        self.down_cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Accepting connections
// ---------------------------------------------------------------------------

/// One listener kind: yields ready connections, `None` when none is pending.
trait Acceptor {
    fn poll_accept(&self) -> io::Result<Option<(BoxedRead, BoxedWrite)>>;
}

impl Acceptor for TcpListener {
    fn poll_accept(&self) -> io::Result<Option<(BoxedRead, BoxedWrite)>> {
        match self.accept() {
            Ok((stream, _)) => Ok(Some(split_stream(stream, TcpStream::try_clone)?)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(unix)]
impl Acceptor for std::os::unix::net::UnixListener {
    fn poll_accept(&self) -> io::Result<Option<(BoxedRead, BoxedWrite)>> {
        use std::os::unix::net::UnixStream;
        match self.accept() {
            Ok((stream, _)) => Ok(Some(split_stream(stream, UnixStream::try_clone)?)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// How long a blocked response write may stall before it is abandoned. A
/// client that stops reading (full socket buffer) must not wedge the worker
/// delivering its verdict — and with it, every worker that later queues on
/// the same connection's writer lock — indefinitely; after the timeout the
/// write fails, the response is dropped, and the worker moves on.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Configures a freshly accepted stream (blocking reads with a short timeout
/// so readers can observe shutdown; bounded writes so a non-reading client
/// cannot wedge the worker pool) and splits it into its two halves.
fn split_stream<S, F>(stream: S, try_clone: F) -> io::Result<(BoxedRead, BoxedWrite)>
where
    S: Read + Write + Send + SetTimeouts + 'static,
    F: Fn(&S) -> io::Result<S>,
{
    stream.set_blocking_with_timeouts(POLL_INTERVAL, WRITE_TIMEOUT)?;
    let writer = try_clone(&stream)?;
    Ok((Box::new(stream), Box::new(writer)))
}

/// The socket knobs `split_stream` needs, unified across stream kinds.
trait SetTimeouts {
    fn set_blocking_with_timeouts(&self, read: Duration, write: Duration) -> io::Result<()>;
}

impl SetTimeouts for TcpStream {
    fn set_blocking_with_timeouts(&self, read: Duration, write: Duration) -> io::Result<()> {
        // Every response is one complete frame: send it at once rather than
        // waiting to coalesce it with bytes that are not coming.
        self.set_nodelay(true)?;
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(read))?;
        self.set_write_timeout(Some(write))
    }
}

#[cfg(unix)]
impl SetTimeouts for std::os::unix::net::UnixStream {
    fn set_blocking_with_timeouts(&self, read: Duration, write: Duration) -> io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_read_timeout(Some(read))?;
        self.set_write_timeout(Some(write))
    }
}

fn accept_loop<L: Acceptor>(shared: &Arc<Shared>, listener: &L) {
    while !shared.shutting_down() {
        match listener.poll_accept() {
            Ok(Some((reader, writer))) => {
                shared.counters.connections.fetch_add(1, Ordering::SeqCst);
                let conn = Arc::new(Conn {
                    writer: Mutex::new(writer),
                    pending: Mutex::new(HashMap::new()),
                    dead: AtomicBool::new(false),
                    faults: shared.faults.clone(),
                });
                let shared_for_reader = Arc::clone(shared);
                let handle = thread::spawn(move || reader_loop(&shared_for_reader, reader, &conn));
                // Reap finished readers as new connections arrive: a
                // long-running daemon must not grow its handle list with its
                // total (not concurrent) connection count.
                let mut readers = shared.readers.lock();
                let mut i = 0;
                while i < readers.len() {
                    if readers[i].is_finished() {
                        let _ = readers.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                readers.push(handle);
            }
            Ok(None) | Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

// ---------------------------------------------------------------------------
// Reading requests
// ---------------------------------------------------------------------------

/// The largest request line a connection may send. Far beyond any real spec
/// (the shipped ones are under a kilobyte), but a hard wall against a client
/// streaming an endless newline-free "frame" into server memory.
const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// How long a reader keeps consuming frames after shutdown began, so that
/// requests already in flight from the client get their typed
/// `shutting-down` refusal instead of a silent EOF. Bounded, so a client
/// that keeps frames flowing cannot postpone the shutdown indefinitely.
const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Reads frames with `fill_buf`/`consume` rather than `read_line`: the
/// accumulated frame is checked against [`MAX_FRAME_BYTES`] *between buffer
/// refills* (growth per iteration is one `BufReader` buffer), so a client
/// streaming an endless newline-free line is cut off instead of exhausting
/// server memory — `read_line` would only return (and let us check) at the
/// newline that never comes. Bytes are accumulated raw and UTF-8-validated
/// once per complete frame, so multi-byte characters split across refills
/// (µ, Π in spec texts) survive intact.
fn reader_loop(shared: &Arc<Shared>, reader: BoxedRead, conn: &Arc<Conn>) {
    let mut reader = BufReader::new(reader);
    let mut frame: Vec<u8> = Vec::new();
    let mut drain_deadline: Option<std::time::Instant> = None;
    loop {
        // A poisoned writer (vanished client, or a timed-out mid-frame
        // write) means no response can ever be delivered again: drop the
        // connection so the client sees a clean EOF.
        if conn.dead.load(Ordering::SeqCst) {
            break;
        }
        // Responses to already accepted work are delivered by the workers
        // through the writer half, which outlives this reader; the grace
        // window only governs how long refusals keep flowing.
        if shared.shutting_down() {
            let deadline =
                *drain_deadline.get_or_insert_with(|| std::time::Instant::now() + DRAIN_GRACE);
            if std::time::Instant::now() >= deadline {
                break;
            }
        }
        if frame.len() > MAX_FRAME_BYTES {
            // The rest of the stream could only be more of the same frame:
            // answer once and drop the connection.
            conn.send(&err_response(
                None,
                ErrorKind::Protocol,
                &format!("request line exceeds {MAX_FRAME_BYTES} bytes"),
            ));
            break;
        }
        let buffered = match reader.fill_buf() {
            Ok(buffered) => buffered,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Read timeout: the partial frame stays accumulated. The
                // top of the loop owns the shutdown decision (it gives
                // in-flight requests the DRAIN_GRACE window to arrive and
                // be refused in a typed way, instead of an abrupt EOF).
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if buffered.is_empty() {
            break; // client closed the connection (a trailing half-frame is dropped)
        }
        let (consumed, complete) = match buffered.iter().position(|&b| b == b'\n') {
            Some(at) => (at + 1, true),
            None => (buffered.len(), false),
        };
        frame.extend_from_slice(&buffered[..consumed]);
        reader.consume(consumed);
        if complete {
            match std::str::from_utf8(&frame) {
                Ok(text) => {
                    let text = text.trim();
                    if !text.is_empty() {
                        handle_frame(shared, conn, text);
                    }
                }
                Err(_) => conn.send(&err_response(
                    None,
                    ErrorKind::Protocol,
                    "request line is not valid UTF-8",
                )),
            }
            frame.clear();
        }
    }
}

fn handle_frame(shared: &Arc<Shared>, conn: &Arc<Conn>, frame: &str) {
    let request = match Request::parse(frame) {
        Ok(request) => request,
        Err((id, message)) => {
            conn.send(&err_response(id, ErrorKind::Protocol, &message));
            return;
        }
    };
    match request {
        Request::Verify { id, spec, options } => {
            let deadline = options
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            let flags = Arc::new(JobFlags::new(deadline));
            conn.pending.lock().insert(id, Arc::clone(&flags));
            let refusal = {
                // Accept-or-refuse is decided under the queue lock, where
                // `begin_shutdown` also flips the flag: a job can never be
                // pushed after the workers were told to drain-and-exit (it
                // would hang unanswered), and every job pushed before is
                // covered by the drain guarantee. Shedding decides here too,
                // so `queued` vs `max_queue_depth` is race-free.
                let mut queue = shared.queue.lock();
                if shared.shutting_down() {
                    Some(Verdict::refused(
                        ErrorKind::ShuttingDown,
                        "server is draining; no new work accepted",
                    ))
                } else if queue.len() >= shared.config.max_queue_depth {
                    Some(Verdict::Shed {
                        retry_after_ms: shared.retry_after_hint(queue.len()),
                        why: "admission queue is full",
                    })
                } else if shared.degraded.load(Ordering::SeqCst)
                    && options
                        .max_states
                        .is_some_and(|limit| limit > shared.config.default_max_states)
                {
                    // The degradation ladder's last rung: under memory
                    // pressure only larger-than-default jobs are refused;
                    // ordinary traffic keeps flowing.
                    Some(Verdict::Shed {
                        retry_after_ms: 5_000,
                        why: "server is degraded under memory pressure; \
                              large max_states jobs are refused",
                    })
                } else {
                    queue.push_back(Job {
                        conn: Arc::clone(conn),
                        id,
                        flags: Arc::clone(&flags),
                        spec,
                        options,
                    });
                    None
                }
            };
            match refusal {
                None => {
                    if deadline.is_some() {
                        shared.deadlines.lock().push(flags);
                    }
                    shared.work_cv.notify_one();
                }
                Some(verdict) => {
                    shared.counters.count(&verdict);
                    conn.settle(id, &flags);
                    conn.send(&verdict.reply(id, None));
                }
            }
        }
        Request::Stats { id } => conn.send(&ok_response(id, [("stats", stats_json(shared))])),
        Request::Metrics { id, format } => {
            // The registry's own metrics, with this server's stats values
            // added as `{section}_{field}` gauges.
            let mut snapshot = obs::global().snapshot();
            let values = stats_values(shared, &snapshot);
            snapshot.gauges.extend(values);
            match format {
                MetricsFormat::Json => {
                    conn.send(&metrics_response_line(id, &snapshot.to_json_text()));
                }
                MetricsFormat::Text => conn.send(&ok_response(
                    id,
                    [("metrics_text", Json::str(snapshot.to_prometheus_text()))],
                )),
            }
        }
        Request::Cancel { id, target } => {
            let flags = conn.pending.lock().get(&target).cloned();
            let honoured = match flags {
                Some(flags) => {
                    flags.cancel.cancel();
                    // `true` guarantees the job never runs at all; `false`
                    // means it already started (or finished) — a started job
                    // is aborted cooperatively at its next state expansion
                    // and answers `error.kind = "cancelled"`. Module docs.
                    !flags.started.load(Ordering::SeqCst)
                }
                None => false,
            };
            conn.send(&ok_response(id, [("cancelled", Json::Bool(honoured))]));
        }
        Request::Ping { id } => conn.send(&ok_response(id, [("pong", Json::Bool(true))])),
        Request::Shutdown { id } => {
            conn.send(&ok_response(id, [("shutting_down", Json::Bool(true))]));
            shared.begin_shutdown();
        }
    }
}

/// The shape of the `stats` reply: every section and every field it carries.
/// `stats_values` reads each field's value from the subsystem that owns it
/// (the server's counters and config, the verdict cache, the store, the
/// interner, the checker, the engine's `explore_*`/`spill_*` metrics) under
/// the name `{section}_{field}`. `stats_json` renders *exactly* this table
/// from those values, `metrics` adds the same values to its gauges, and the
/// serve end-to-end tests assert stats replies against this same table in
/// both directions — one source of truth for the stats shape.
pub const STATS_SCHEMA: &[(&str, &[&str])] = &[
    (
        "cache",
        &[
            "hits",
            "misses",
            "disk_hits",
            "insertions",
            "evictions",
            "uncacheable",
            "entries",
            "states",
            "capacity_entries",
            "capacity_states",
        ],
    ),
    (
        // The persistent tier's counters: rendered `null` when no `--store`
        // is configured, so a monitoring client can tell "no disk tier" from
        // "a disk tier that has seen no traffic".
        "store",
        &[
            "entries",
            "states",
            "file_bytes",
            "live_bytes",
            "hits",
            "misses",
            "insertions",
            "evictions",
            "corrupt_rejected",
            "recovered_bytes_dropped",
            "compactions",
            "last_compaction_unix_ms",
            "errors",
        ],
    ),
    (
        // `completed + failed + cancelled + shed + deadline_exceeded +
        // shutting_down` sums to the `verify` requests answered (see
        // `Counters::count`); `failed` includes the `internal-error` replies
        // of caught panics, which are additionally broken out in
        // `panics_caught`.
        "requests",
        &[
            "queued",
            "in_flight",
            "completed",
            "cancelled",
            "failed",
            "shed",
            "deadline_exceeded",
            "shutting_down",
            "panics_caught",
        ],
    ),
    (
        "engine",
        &[
            "workers",
            "jobs",
            "per_request_jobs",
            "states_explored",
            "connections",
            "queue_capacity",
            "degraded",
        ],
    ),
    (
        // The exploration memory layer (`lts::memory`): the engine publishes
        // these process-wide as it runs — `resident_bytes` is the last
        // reported working set (seen-set pages + in-RAM frontier), the
        // `spill_*` counters accumulate across every budgeted exploration
        // that pushed cold frontier segments to disk.
        "explore",
        &[
            "resident_bytes",
            "spill_segments",
            "spill_bytes",
            "spill_reloads",
        ],
    ),
    (
        // The hash-consing interner is process-wide and append-only, so a
        // long-running daemon's memory cost and memo efficiency are part of
        // its operational accounting. `types` and `terms` are the two
        // retained-id counters (the type- and term-side arenas).
        "interner",
        &[
            "types",
            "terms",
            "normalize_hits",
            "normalize_misses",
            "canonical_hits",
            "canonical_misses",
            "par_hits",
            "par_misses",
            "fv_hits",
            "fv_misses",
        ],
    ),
    (
        // The checker's id-keyed derivation caches (subtyping, ▷◁, typing):
        // process-wide hit/miss counters, the compounding second layer on
        // top of the interner.
        "checker",
        &[
            "subtype_hits",
            "subtype_misses",
            "interact_hits",
            "interact_misses",
            "typing_hits",
            "typing_misses",
        ],
    ),
];

/// Every `{section}_{field}` value of [`STATS_SCHEMA`], read from the
/// subsystem that owns it; `registry` supplies the engine's process-wide
/// `explore_*`/`spill_*` metrics. The `store` values are absent when no disk
/// tier is configured. Reads only: nothing here writes the global registry,
/// so several servers in one process never see each other's values.
fn stats_values(shared: &Shared, registry: &obs::Snapshot) -> BTreeMap<String, u64> {
    let mut values = BTreeMap::new();
    let mut section = |name: &str, fields: &[(&str, u64)]| {
        for (field, value) in fields {
            values.insert(format!("{name}_{field}"), *value);
        }
    };
    let load = |counter: &AtomicU64| counter.load(Ordering::SeqCst);
    let (config, counters) = (&shared.config, &shared.counters);

    let cache = shared.cache.lock().stats();
    section(
        "cache",
        &[
            ("hits", cache.hits),
            ("misses", cache.misses),
            ("disk_hits", load(&counters.disk_hits)),
            ("insertions", cache.insertions),
            ("evictions", cache.evictions),
            ("uncacheable", cache.uncacheable),
            ("entries", cache.entries as u64),
            ("states", cache.states as u64),
            ("capacity_entries", config.cache.max_entries as u64),
            ("capacity_states", config.cache.max_states as u64),
        ],
    );
    if let Some(disk) = &shared.store {
        let store = disk.lock().stats();
        section(
            "store",
            &[
                ("entries", store.entries as u64),
                ("states", store.states as u64),
                ("file_bytes", store.file_bytes),
                ("live_bytes", store.live_bytes),
                ("hits", store.hits),
                ("misses", store.misses),
                ("insertions", store.insertions),
                ("evictions", store.evictions),
                ("corrupt_rejected", store.corrupt_rejected),
                ("recovered_bytes_dropped", store.recovered_bytes_dropped),
                ("compactions", store.compactions),
                ("last_compaction_unix_ms", store.last_compaction_unix_ms),
                ("errors", load(&counters.store_errors)),
            ],
        );
    }
    section(
        "requests",
        &[
            ("queued", shared.queue.lock().len() as u64),
            ("in_flight", load(&counters.in_flight)),
            ("completed", load(&counters.completed)),
            ("cancelled", load(&counters.cancelled)),
            ("failed", load(&counters.failed)),
            ("shed", load(&counters.shed)),
            ("deadline_exceeded", load(&counters.deadline_exceeded)),
            ("shutting_down", load(&counters.shutting_down)),
            ("panics_caught", load(&counters.panics_caught)),
        ],
    );
    section(
        "engine",
        &[
            ("workers", config.workers as u64),
            ("jobs", config.jobs as u64),
            ("per_request_jobs", config.per_request_jobs() as u64),
            ("states_explored", load(&counters.states_explored)),
            ("connections", load(&counters.connections)),
            ("queue_capacity", config.max_queue_depth as u64),
            ("degraded", shared.degraded.load(Ordering::SeqCst).into()),
        ],
    );
    let gauge = |name: &str| registry.gauges.get(name).copied().unwrap_or(0);
    let counter = |name: &str| registry.counters.get(name).copied().unwrap_or(0);
    section(
        "explore",
        &[
            ("resident_bytes", gauge("explore_resident_bytes")),
            ("spill_segments", counter("spill_segments")),
            ("spill_bytes", counter("spill_bytes")),
            ("spill_reloads", counter("spill_reloads")),
        ],
    );
    let intern = effpi::intern_stats();
    section(
        "interner",
        &[
            ("types", intern.types as u64),
            ("terms", intern.terms as u64),
            ("normalize_hits", intern.normalize_hits),
            ("normalize_misses", intern.normalize_misses),
            ("canonical_hits", intern.canonical_hits),
            ("canonical_misses", intern.canonical_misses),
            ("par_hits", intern.par_hits),
            ("par_misses", intern.par_misses),
            ("fv_hits", intern.fv_hits),
            ("fv_misses", intern.fv_misses),
        ],
    );
    let checker = effpi::checker_stats();
    section(
        "checker",
        &[
            ("subtype_hits", checker.subtype_hits),
            ("subtype_misses", checker.subtype_misses),
            ("interact_hits", checker.interact_hits),
            ("interact_misses", checker.interact_misses),
            ("typing_hits", checker.typing_hits),
            ("typing_misses", checker.typing_misses),
        ],
    );
    values
}

fn stats_json(shared: &Shared) -> Json {
    let values = stats_values(shared, &obs::global().snapshot());
    Json::obj(STATS_SCHEMA.iter().map(|(section, fields)| {
        if *section == "store" && shared.store.is_none() {
            return (*section, Json::Null);
        }
        let field_json = |field: &'static str| {
            let value = values.get(&format!("{section}_{field}")).copied();
            (field, Json::Num(value.unwrap_or(0) as f64))
        };
        (*section, Json::obj(fields.iter().copied().map(field_json)))
    }))
}

// ---------------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock();
            loop {
                // Popping before the shutdown check is what makes shutdown a
                // *drain*: queued work always completes.
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutting_down() {
                    break None;
                }
                queue = shared.work_cv.wait(queue);
            }
        };
        let Some(job) = job else { break };
        process(shared, job);
    }
}

/// Sweeps deadlines and watches memory pressure, once per [`POLL_INTERVAL`]
/// until shutdown. Both duties are time-driven, not request-driven, so they
/// live on their own thread: a full worker pool cannot delay a deadline
/// firing, and the watchdog needs no traffic to notice pressure.
fn housekeeper_loop(shared: &Arc<Shared>) {
    // The 90% soft response fires once per crossing, not every tick: the
    // interner only grows, so repeated evict/compact cycles would thrash the
    // caches without reclaiming anything new.
    let mut soft_shed = false;
    while !shared.shutting_down() {
        thread::sleep(POLL_INTERVAL);

        {
            let now = Instant::now();
            let mut deadlines = shared.deadlines.lock();
            deadlines.retain(|flags| {
                if flags.finished.load(Ordering::SeqCst) {
                    return false; // answered in time; stop watching
                }
                if flags.deadline.is_some_and(|deadline| now >= deadline) {
                    // Order matters: the worker reads `deadline_exceeded`
                    // only after observing the cancel, so flag first.
                    flags.deadline_exceeded.store(true, Ordering::SeqCst);
                    flags.cancel.cancel();
                    return false;
                }
                true
            });
        }

        if let Some(budget) = shared.config.memory_budget {
            let intern = effpi::intern_stats();
            let nodes = intern.types as u64 + intern.terms as u64;
            // At 90%: shed what is re-derivable — halve the LRU, compact the
            // disk tier — before refusing anything.
            if !soft_shed && nodes.saturating_mul(10) >= budget.saturating_mul(9) {
                soft_shed = true;
                let bounds = shared.config.cache;
                shared
                    .cache
                    .lock()
                    .evict_to(bounds.max_entries / 2, bounds.max_states / 2);
                if let Some(disk) = &shared.store {
                    let _ = disk.lock().compact();
                }
            }
            // At 100%: degrade (sticky — the arenas are append-only) and let
            // admission refuse larger-than-default jobs.
            if nodes >= budget {
                shared.degraded.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// The cache tier that answered a `verify` (`cold` = a fresh verification).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tier {
    Lru,
    Disk,
    Cold,
}

impl Tier {
    fn as_str(self) -> &'static str {
        match self {
            Tier::Lru => "lru",
            Tier::Disk => "disk",
            Tier::Cold => "cold",
        }
    }
}

/// How one `verify` request was answered: the one value its reply frame, its
/// `--log-requests` line and its request bucket ([`Counters::count`]) are
/// all derived from.
enum Verdict {
    Done {
        tier: Tier,
        key: String,
        report: Arc<str>,
    },
    Refused {
        kind: ErrorKind,
        message: String,
    },
    /// A typed `overloaded` refusal with its backoff hint.
    Shed {
        why: &'static str,
        retry_after_ms: u64,
    },
}

impl Verdict {
    fn refused(kind: ErrorKind, message: impl Into<String>) -> Verdict {
        Verdict::Refused {
            kind,
            message: message.into(),
        }
    }

    /// The reply's `error.kind`; `None` for a verdict.
    fn kind(&self) -> Option<ErrorKind> {
        match self {
            Verdict::Done { .. } => None,
            Verdict::Refused { kind, .. } => Some(*kind),
            Verdict::Shed { .. } => Some(ErrorKind::Overloaded),
        }
    }

    /// The reply frame; `profiled` splices a verdict's phase breakdown in.
    fn reply(&self, id: u64, profiled: Option<&obs::phases::Phases>) -> String {
        match self {
            Verdict::Done { tier, key, report } => {
                let cached = *tier != Tier::Cold;
                match profiled {
                    Some(phases) => verify_response_line_profiled(
                        id,
                        cached,
                        key,
                        report,
                        &phases.to_json_text(),
                    ),
                    None => verify_response_line(id, cached, key, report),
                }
            }
            Verdict::Refused { kind, message } => err_response(Some(id), *kind, message),
            Verdict::Shed {
                why,
                retry_after_ms,
            } => overloaded_response(id, why, *retry_after_ms),
        }
    }
}

/// Runs one dequeued job and answers it: the only place a worker settles,
/// counts, logs and sends a `verify` reply.
fn process(shared: &Shared, job: Job) {
    let Job {
        conn,
        id,
        flags,
        spec,
        options,
    } = job;
    flags.started.store(true, Ordering::SeqCst);
    shared.counters.in_flight.fetch_add(1, Ordering::SeqCst);
    // Every span closed on this thread during the verification — parse,
    // fingerprint, cache probes, typecheck, explore, check, render — lands
    // in this request's breakdown. The whole collection runs under
    // `catch_unwind`: a panic anywhere in the engine is this request's
    // failure, not the daemon's — the worker survives, the client gets a
    // typed `internal-error`, and the event is counted. (The phase collector
    // unwinds cleanly — its thread-local stack pops via a drop guard — and
    // `obs::sync::Mutex` recovers poisoned guards, so an unwound lock
    // can never wedge later requests.)
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        obs::phases::collect(|| verify_response(shared, &spec, options, &flags))
    }));
    let (verdict, phases) = outcome.unwrap_or_else(|_| {
        shared.counters.panics_caught.fetch_add(1, Ordering::SeqCst);
        // Chaos-run traces must be debuggable: flush the span sink now, the
        // way a clean exit would.
        obs::global().flush_trace();
        (
            Verdict::refused(
                ErrorKind::Internal,
                "verification panicked; the worker survived and the daemon is healthy",
            ),
            obs::phases::Phases::default(),
        )
    });
    shared.counters.in_flight.fetch_sub(1, Ordering::SeqCst);
    flags.finished.store(true, Ordering::SeqCst);
    conn.settle(id, &flags);
    shared.counters.count(&verdict);
    if shared.config.log_requests {
        let (key, tier) = match &verdict {
            Verdict::Done { tier, key, .. } => (key.as_str(), tier.as_str()),
            _ => ("-", "-"),
        };
        let fragment = phases.to_log_fragment();
        eprintln!(
            "[effpi-serve] verify id={id} key={key} tier={tier} outcome={} total={}{}{}",
            verdict.kind().map_or("ok", ErrorKind::as_str),
            obs::phases::format_us(phases.total_us()),
            if fragment.is_empty() { "" } else { " " },
            fragment,
        );
    }
    conn.send(&verdict.reply(id, options.profile.then_some(&phases)));
}

/// The socket-free pipeline: what one `verify` of `spec` answers, from the
/// queue-level refusals through the cache tiers to a cold verification.
fn verify_response(
    shared: &Shared,
    spec: &str,
    options: VerifyOptions,
    flags: &JobFlags,
) -> Verdict {
    // A deadline that elapsed while the job sat in the queue (whether or not
    // the housekeeper already swept it) refuses before any work is spent.
    if flags.deadline.is_some_and(|d| Instant::now() >= d)
        || (flags.cancel.is_cancelled() && flags.deadline_exceeded.load(Ordering::SeqCst))
    {
        return Verdict::refused(
            ErrorKind::DeadlineExceeded,
            "deadline_ms elapsed before the request started",
        );
    }
    if flags.cancel.is_cancelled() {
        return Verdict::refused(ErrorKind::Cancelled, "request cancelled before it started");
    }
    let parsed = {
        let _span = obs::span("parse");
        parse_spec(spec)
    };
    let spec = match parsed {
        Ok(spec) => spec,
        Err(e) => return Verdict::refused(ErrorKind::Spec, e.to_string()),
    };
    let config = &shared.config;
    let mut builder = Session::builder()
        .max_states(options.max_states.unwrap_or(config.default_max_states))
        .parallelism(config.per_request_jobs())
        .cancel_token(flags.cancel.clone());
    if let Some(depth) = options.max_depth {
        builder = builder.max_depth(depth);
    }
    if let Some(unfold) = options.max_unfold {
        builder = builder.max_unfold(unfold);
    }
    if let Some(probe) = options.auto_probe {
        builder = builder.auto_probe(probe);
    }
    // Per-request budget wins over the server default. Operational only:
    // `Session::cache_key` excludes it (a budgeted run's report is
    // byte-identical to an unbudgeted one), so hits below stay valid
    // whatever budget the original verification ran under.
    if let Some(bytes) = options
        .memory_budget
        .map(|bytes| bytes as usize)
        .or(config.explore_memory_budget)
    {
        builder = builder.memory_budget(bytes);
    }
    let session = builder.build();
    let key = {
        let _span = obs::span("fingerprint");
        session.cache_key(&spec)
    };

    let lru_hit = {
        let _span = obs::span("lru_probe");
        shared.cache.lock().get(key)
    };
    if let Some(report) = lru_hit {
        return Verdict::Done {
            tier: Tier::Lru,
            key: key.to_string(),
            report,
        };
    }
    // LRU miss: probe the persistent tier. A disk hit is still a cache hit
    // on the wire (`cached: true` — the bytes replay a cold run verbatim),
    // and is promoted into the LRU so the next encounter never touches disk.
    if let Some(disk) = &shared.store {
        let from_disk = {
            let _span = obs::span("disk_probe");
            probe_disk(shared, disk, key)
        };
        if let Some((states, report)) = from_disk {
            let rendered: Arc<str> = Arc::from(report.as_str());
            shared
                .cache
                .lock()
                .insert(key, states, Arc::clone(&rendered));
            return Verdict::Done {
                tier: Tier::Disk,
                key: key.to_string(),
                report: rendered,
            };
        }
    }
    // The worker-boundary fault point: `Panic` exercises the catch_unwind
    // isolation in `process`, `Error` models an engine that failed without
    // unwinding. It sits *below* both cache probes — a cache hit replays
    // stored bytes and exercises no engine, so only cold verifications tick
    // the pass counter — and is decided while no lock is held.
    if shared
        .faults
        .as_ref()
        .is_some_and(|hook| hook.fails(FaultPoint::Worker))
    {
        return Verdict::refused(ErrorKind::Internal, "injected worker error");
    }
    // The cache lock is NOT held across the verification: concurrent misses
    // on one key may verify twice (the later insert refreshes in place) —
    // a deliberate trade against serialising every distinct request behind
    // the slowest one. (The deep phases — typecheck, explore, check — are
    // timed by the pipeline layers themselves.)
    let report = session.run_spec(&spec);
    if matches!(
        report.first_error(),
        Some(effpi::Error::Verify(effpi::VerifyError::Cancelled))
    ) {
        // Aborted mid-exploration: the partial result is discarded (never
        // cached — an aborted prefix is scheduling-dependent) and the verify
        // gets its typed refusal. The housekeeper flips the same token for
        // an elapsed deadline, which reports under its own name and bucket.
        if flags.deadline_exceeded.load(Ordering::SeqCst) {
            return Verdict::refused(
                ErrorKind::DeadlineExceeded,
                "deadline_ms elapsed during exploration",
            );
        }
        return Verdict::refused(ErrorKind::Cancelled, "request cancelled during exploration");
    }
    let states = report.states();
    shared
        .counters
        .states_explored
        .fetch_add(states as u64, Ordering::SeqCst);
    // Rendered once; the cache shares the text by refcount, and the miss
    // response splices the same bytes a future hit will replay.
    let rendered: Arc<str> = Arc::from(report.to_wire_json().to_string().as_str());
    shared
        .cache
        .lock()
        .insert(key, states, Arc::clone(&rendered));
    // Write-through to the persistent tier: a cold verdict survives the
    // daemon. A failed append degrades to a warm-memory-only entry — which
    // is exactly what an injected store-write `Error` models.
    if let Some(disk) = &shared.store {
        let injected = shared
            .faults
            .as_ref()
            .is_some_and(|hook| hook.fails(FaultPoint::StoreWrite));
        if injected || disk.lock().put(key, states, &rendered).is_err() {
            shared.counters.store_errors.fetch_add(1, Ordering::SeqCst);
        }
    }
    Verdict::Done {
        tier: Tier::Cold,
        key: key.to_string(),
        report: rendered,
    }
}

/// The disk-tier probe, in two phases so the store mutex is **never held
/// across the disk read**: resolve the key to a [`store::ReadPlan`] under
/// the lock (pure index work), release it, read and validate the bytes on a
/// private file handle, then settle the hit back under the lock. A plan that
/// went stale — a compaction renamed the log between the phases — fails
/// validation (checksums are per-record and carry the key) and falls back to
/// the classic locked [`VerdictStore::get`], which owns index repair.
///
/// Also the store-read fault point: an injected `Error` degrades to cold
/// verification exactly like a real I/O failure.
fn probe_disk(
    shared: &Shared,
    disk: &Mutex<VerdictStore>,
    key: effpi::CacheKey,
) -> Option<(usize, String)> {
    if shared
        .faults
        .as_ref()
        .is_some_and(|hook| hook.fails(FaultPoint::StoreRead))
    {
        shared.counters.store_errors.fetch_add(1, Ordering::SeqCst);
        return None;
    }
    let plan = disk.lock().plan_read(key)?;
    match plan.read(key) {
        Ok(Some(found)) => {
            disk.lock().note_hit(key);
            Some(found)
        }
        Ok(None) => {
            // Stale plan or rotted bytes: the locked read re-resolves against
            // the current log and repairs the index if the record is gone.
            match disk.lock().get(key) {
                Ok(found) => found,
                Err(_) => {
                    shared.counters.store_errors.fetch_add(1, Ordering::SeqCst);
                    None
                }
            }
        }
        Err(_) => {
            shared.counters.store_errors.fetch_add(1, Ordering::SeqCst);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    /// A writer that records every `write` call it receives.
    struct WriteLog(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_on_each_side() {
        let server_writes = Arc::new(Mutex::new(Vec::new()));
        let conn = Conn {
            writer: Mutex::new(Box::new(WriteLog(Arc::clone(&server_writes)))),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            faults: None,
        };
        let reply = ok_response(7, [("pong", Json::Bool(true))]);
        conn.send(&reply);
        assert_eq!(*server_writes.lock(), [format!("{reply}\n").into_bytes()]);

        let client_writes = Arc::new(Mutex::new(Vec::new()));
        let mut client = Client::from_halves(
            Box::new(io::empty()),
            Box::new(WriteLog(Arc::clone(&client_writes))),
        );
        let id = client
            .submit_verify("env x : cio[int]", VerifyOptions::default())
            .expect("a recorded write cannot fail");
        let request = Request::Verify {
            id,
            spec: "env x : cio[int]".to_string(),
            options: VerifyOptions::default(),
        };
        assert_eq!(
            *client_writes.lock(),
            [format!("{}\n", request.to_line()).into_bytes()]
        );
    }

    const SPEC: &str = "env x : cio[int]\ntype i[x, Pi(v: int) nil]\ncheck deadlock_free [x]";

    /// A server with no socket and no thread: jobs go straight to `process`.
    fn socket_free(faults: FaultPlan) -> Shared {
        let config = ServerConfig {
            workers: 1,
            jobs: 1,
            faults,
            ..ServerConfig::default()
        };
        Shared::new(config, None)
    }

    /// Answers one `verify` of `spec` through `process`; returns the reply.
    fn answer(shared: &Shared, spec: &str, flags: JobFlags) -> String {
        let writes = Arc::new(Mutex::new(Vec::new()));
        let conn = Arc::new(Conn {
            writer: Mutex::new(Box::new(WriteLog(Arc::clone(&writes)))),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            faults: None,
        });
        let job = Job {
            conn,
            id: 1,
            flags: Arc::new(flags),
            spec: spec.to_string(),
            options: VerifyOptions::default(),
        };
        process(shared, job);
        let frame = writes.lock().concat();
        String::from_utf8(frame).expect("replies are UTF-8")
    }

    /// `[completed, failed, cancelled, deadline_exceeded]`.
    fn buckets(shared: &Shared) -> [u64; 4] {
        let c = &shared.counters;
        [&c.completed, &c.failed, &c.cancelled, &c.deadline_exceeded]
            .map(|bucket| bucket.load(Ordering::SeqCst))
    }

    #[test]
    fn the_socket_free_pipeline_counts_each_reply_in_its_bucket() {
        let shared = socket_free(FaultPlan::default());
        let cold = answer(&shared, SPEC, JobFlags::new(None));
        assert!(cold.contains("\"cached\":false"), "{cold}");
        let hit = answer(&shared, SPEC, JobFlags::new(None));
        assert!(hit.contains("\"cached\":true"), "{hit}");
        assert_eq!(buckets(&shared), [2, 0, 0, 0]);

        let malformed = answer(&shared, "type i[", JobFlags::new(None));
        assert!(malformed.contains("\"kind\":\"spec\""), "{malformed}");
        assert_eq!(buckets(&shared), [2, 1, 0, 0]);

        let flags = JobFlags::new(None);
        flags.cancel.cancel();
        let cancelled = answer(&shared, SPEC, flags);
        assert!(cancelled.contains("\"kind\":\"cancelled\""), "{cancelled}");
        assert_eq!(buckets(&shared), [2, 1, 1, 0]);

        let expired = answer(&shared, SPEC, JobFlags::new(Some(Instant::now())));
        assert!(
            expired.contains("\"kind\":\"deadline-exceeded\""),
            "{expired}"
        );
        assert_eq!(buckets(&shared), [2, 1, 1, 1]);

        // `stats` reads the same counters.
        let stats = stats_json(&shared);
        let completed = stats.get("requests").and_then(|r| r.get("completed"));
        assert_eq!(completed.and_then(Json::as_usize), Some(2));

        let faulty = socket_free(FaultPlan::single(
            7,
            FaultPoint::Worker,
            FaultAction::Error,
            1,
        ));
        let injected = answer(&faulty, SPEC, JobFlags::new(None));
        assert!(
            injected.contains("\"kind\":\"internal-error\""),
            "{injected}"
        );
        assert_eq!(buckets(&faulty), [0, 1, 0, 0]);
    }
}
