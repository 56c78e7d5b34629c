//! State-space exploration: the one engine behind [`TypeLts::build`],
//! [`TermLts::build`] and any other exhaustive reachability pass over a
//! successor function.
//!
//! The paper's headline claim (§5, Fig. 9) is that type-level model checking
//! is fast enough to run inside a compiler, and LTS construction is the
//! dominant cost of every verification. There is exactly **one serial driver
//! and one parallel driver** here, generic over two small seams:
//!
//! * **The state table** (`StateTable`) — the seen-set, which also resolves a
//!   32-bit key back to its state. Two implementations: the *hash* table
//!   (any `S: Eq + Hash`; an [`Arena`] — the interner's sharded
//!   `value ↔ id` table — whose ids are drawn densely from the run's state
//!   counter) and the *bitmap* table (states whose identity is a dense
//!   interner id — `TyRef`/`TermRef`; ~1 bit per state in lazily allocated
//!   pages, the key is the id itself). See the `memory` module.
//! * **The frontier** — registered-but-unexpanded `(key, depth)` entries.
//!   Serially it is one FIFO that may spill to disk, so the serial driver
//!   is breadth-first. Under the workers it is one work-stealing deque per
//!   worker — owners push and pop the back (LIFO, for cache warmth), thieves
//!   steal the *oldest* entry from the front of a sibling — with the same
//!   spilling FIFO as the overflow for batches discovered over budget.
//!
//! **Selection is by what the code can observe, never by an option.** The
//! table follows the state type: the [`explore`] function below takes any
//! hashable state and uses the hash table; the `TypeLts` / `TermLts`
//! builders, whose states carry interner ids, run the same drivers on the
//! bitmap table. The driver follows [`ExploreConfig::parallelism`], and both
//! drivers spill their FIFO past [`ExploreConfig::memory_budget`].
//!
//! What every run guarantees, whatever was selected:
//!
//! * **Cooperative early exit** — the run ends as soon as the state bound
//!   trips (parallel; a serial run keeps expanding what it registered), or
//!   as soon as an external [`CancelToken`] is flipped (the abort hook behind
//!   `effpi-serve`'s `cancel` request); workers check between expansions
//!   instead of draining their queues.
//! * **Canonical renumbering** — discovery order under concurrency is not the
//!   breadth-first order, so after a parallel exploration the states are
//!   renumbered by a deterministic BFS over the recorded (deterministically
//!   ordered) transition lists. A complete run therefore yields an [`Lts`]
//!   **identical** — states, indices, transitions — for every worker count,
//!   table and memory budget. The serial driver discovers in canonical order
//!   already and skips the pass. Paths to a state of interest are read off
//!   the finished LTS ([`Lts::path_to`]).
//! * **Progress** — every 8192 expansions a driver publishes the run's vital
//!   signs to the process `obs` registry (see [`ExploreStats`] for the memory
//!   figures).
//!
//! [`TypeLts::build`]: crate::TypeLts::build
//! [`TermLts::build`]: crate::TermLts::build

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use lambdapi::intern::Arena;
use obs::sync::{Condvar, Mutex};

use crate::generic::Lts;
use crate::memory::{Entry, SpillFrontier, ENTRY_BYTES};

/// A shareable cooperative-cancellation flag for in-flight explorations.
///
/// Clones share one flag: hand one clone to [`ExploreConfig::with_cancel`]
/// and keep the other; calling [`CancelToken::cancel`] — from any thread —
/// makes every worker of the running exploration stop at its next state
/// expansion and the run return [`ExploreStatus::Aborted`]. This is the hook
/// `effpi-serve` uses to honour `cancel` requests against verifications that
/// are already executing (not merely queued).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(std::sync::Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Tokens compare by identity: two tokens are equal when they share the flag.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

// ---------------------------------------------------------------------------
// Configuration and results
// ---------------------------------------------------------------------------

/// How an exploration is run: worker count, state bound, memory budget, and
/// an optional external cancellation hook. Declared here
/// and nowhere else — the `TypeLts` / `TermLts` builders take one by
/// reference, and `mucalc::Verifier` / `effpi::Session` hand theirs down.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExploreConfig {
    /// Number of worker threads. `1` (the default) explores serially on the
    /// calling thread — no pool.
    pub parallelism: usize,
    /// Maximum number of states registered before the run is truncated.
    pub max_states: usize,
    /// When set, workers poll this flag between state expansions and abort
    /// the run ([`ExploreStatus::Aborted`]) as soon as it flips.
    pub cancel: Option<CancelToken>,
    /// Resident-memory budget in bytes for the exploration's frontier +
    /// state-table working set. `None` (the default) keeps everything in
    /// RAM; `Some(bytes)` makes a run spill cold frontier segments to disk
    /// once the working set trips the budget.
    pub memory_budget: Option<usize>,
    /// Where spilled frontier segments live. `None` (the default) uses a
    /// fresh per-run directory under [`std::env::temp_dir`]; either way the
    /// segments are transient and removed as they stream back (and the run
    /// directory is removed when the exploration finishes).
    pub spill_dir: Option<PathBuf>,
}

impl ExploreConfig {
    /// A serial exploration with the given state bound.
    pub fn serial(max_states: usize) -> Self {
        Self::new(1, max_states)
    }

    /// An exploration on `parallelism` workers with the given state bound.
    pub fn new(parallelism: usize, max_states: usize) -> Self {
        ExploreConfig {
            parallelism: parallelism.max(1),
            max_states,
            cancel: None,
            memory_budget: None,
            spill_dir: None,
        }
    }

    /// Attaches an external cancellation token (see [`CancelToken`]).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Sets the resident-memory budget in bytes (`None` keeps everything in
    /// RAM; see [`ExploreConfig::memory_budget`]).
    pub fn with_memory_budget(mut self, budget: Option<usize>) -> Self {
        self.memory_budget = budget;
        self
    }

    /// Sets where spilled frontier segments are written (default: a per-run
    /// directory under [`std::env::temp_dir`]).
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }
}

/// Expansions (per worker) between progress samples: rare enough that the
/// gauge stores and clock reads vanish against the cost of expanding 8192
/// states, frequent enough that a stuck run is visible within seconds.
const PROGRESS_EVERY: usize = 8192;

/// A driver's sampled progress reporter: every [`PROGRESS_EVERY`] expansions
/// it publishes the run's vital signs as process-wide gauges — `explore_states`
/// / `explore_frontier` / `explore_depth` / `explore_states_per_sec` /
/// `explore_resident_bytes` — and (when a trace sink is installed) one
/// `explore.progress` heartbeat event, so a 10⁸-state run is observable while
/// it happens. Off the sampling points the whole mechanism costs one
/// decrement-and-branch per expansion — nothing on the hot path allocates,
/// locks or reads a clock.
struct Progress {
    countdown: usize,
    last_us: u64,
    last_states: usize,
    states: obs::Gauge,
    frontier: obs::Gauge,
    depth: obs::Gauge,
    rate: obs::Gauge,
    resident: obs::Gauge,
    expansions: obs::Counter,
}

impl Progress {
    fn new() -> Progress {
        let registry = obs::global();
        Progress {
            countdown: PROGRESS_EVERY,
            last_us: registry.now_us(),
            last_states: 0,
            states: registry.gauge("explore_states"),
            frontier: registry.gauge("explore_frontier"),
            depth: registry.gauge("explore_depth"),
            rate: registry.gauge("explore_states_per_sec"),
            resident: registry.gauge("explore_resident_bytes"),
            expansions: registry.counter("explore_expansions_total"),
        }
    }

    /// Counts one expansion; `true` when a sample is due.
    #[inline]
    fn due(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = PROGRESS_EVERY;
            true
        } else {
            false
        }
    }

    /// Publishes one sample: registered states, pending frontier entries
    /// (resident or spilled), the depth of the state just expanded, and the
    /// resident working set. The states/sec figure is measured over the
    /// window since this reporter's previous sample (workers report the
    /// global registered-state count, so the rate approximates the whole
    /// run's, not one worker's share).
    fn report(&mut self, states: usize, frontier: usize, depth: u32, resident: usize) {
        let registry = obs::global();
        let now = registry.now_us();
        let window_us = now.saturating_sub(self.last_us).max(1);
        let delta = states.saturating_sub(self.last_states) as u128;
        let rate = (delta * 1_000_000 / u128::from(window_us)) as u64;
        self.states.set(states as u64);
        self.frontier.set(frontier as u64);
        self.depth.set(u64::from(depth));
        self.rate.set(rate);
        self.resident.set(resident as u64);
        self.expansions.add(PROGRESS_EVERY as u64);
        registry.trace_event(
            "explore.progress",
            &[
                ("depth", u64::from(depth)),
                ("frontier", frontier as u64),
                ("states", states as u64),
                ("states_per_sec", rate),
            ],
        );
        self.last_us = now;
        self.last_states = states;
    }

    /// Flushes the expansions counted since the last sample, so
    /// `explore_expansions_total` is exact for runs of any length.
    fn finish(self) {
        self.expansions
            .add((PROGRESS_EVERY - self.countdown) as u64);
    }
}

/// Why an exploration stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExploreStatus {
    /// Every reachable state was expanded.
    Complete,
    /// The state bound tripped; the LTS is a prefix of the real one.
    Truncated,
    /// An external [`CancelToken`] aborted the run; the LTS is a partial,
    /// scheduling-dependent prefix and carries no determinism guarantee.
    Aborted,
}

/// Memory accounting for one exploration.
///
/// The same figures are published process-wide as the
/// `explore_resident_bytes` gauge and the `spill_segments` / `spill_bytes` /
/// `spill_reloads` counters of the `obs` registry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExploreStats {
    /// Peak resident bytes of the frontier + state-table working set (the
    /// bitmap table counts its pages; the hash table estimates from its
    /// entry count).
    pub resident_peak_bytes: u64,
    /// Frontier segments spilled to disk.
    pub spill_segments: u64,
    /// Bytes of frontier records spilled to disk.
    pub spill_bytes: u64,
    /// Spilled segments streamed back into memory.
    pub spill_reloads: u64,
}

/// The result of an exploration: the (canonically numbered) LTS and how the
/// run ended.
#[derive(Clone, Debug)]
pub struct Exploration<S, L> {
    /// The explored transition system. Its `is_truncated` flag is set
    /// whenever the state bound tripped — including in a run whose `status`
    /// is [`ExploreStatus::Aborted`] because the abort arrived after the
    /// trip.
    pub lts: Lts<S, L>,
    /// How the run ended. An abort wins over truncation when both happened;
    /// check [`Lts::is_truncated`] for the bound.
    pub status: ExploreStatus,
    /// Memory accounting.
    pub stats: ExploreStats,
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Explores the LTS reachable from `initial`, using `config.parallelism`
/// worker threads and registering at most `config.max_states` states.
///
/// The successor function must be deterministic (same state, same transition
/// list in the same order); under that assumption a **complete** run returns
/// the same [`Lts`] regardless of the worker count. Truncated runs carry no
/// such guarantee: which prefix got explored depends on worker scheduling
/// (serial exploration keeps expanding every registered state, parallel
/// workers quit as soon as the bound trips), so only the bound itself — never
/// more than `max_states` registered states — is engine-independent.
pub fn explore<S, L, F>(initial: S, succ: F, config: &ExploreConfig) -> Exploration<S, L>
where
    S: Clone + Eq + Hash + Send + Sync,
    L: Clone + Send,
    F: Fn(&S) -> Vec<(L, S)> + Sync,
{
    run::<HashTable<S>, _, _, _>(initial, succ, config)
}

/// [`explore`] on the state table `T` — the one way into the drivers. The
/// public function above fixes `T` to the hash table, the `TypeLts` /
/// `TermLts` builders to the bitmap table of the `memory` module.
pub(crate) fn run<T, S, L, F>(initial: S, succ: F, config: &ExploreConfig) -> Exploration<S, L>
where
    T: StateTable<State = S>,
    S: Clone + Eq + Hash + Send + Sync,
    L: Clone + Send,
    F: Fn(&S) -> Vec<(L, S)> + Sync,
{
    let ctl = Control {
        // The initial state is always admitted, whatever the bound; keys are
        // 32 bits wide, so no run registers more than `u32::MAX` states.
        max_states: config.max_states.clamp(1, u32::MAX as usize),
        cancel: config.cancel.as_ref(),
        count: AtomicUsize::new(0),
        truncated: AtomicBool::new(false),
        aborted: AtomicBool::new(false),
    };
    if config.parallelism <= 1 {
        explore_serial::<T, _, _, _>(initial, &succ, config, &ctl)
    } else {
        explore_parallel::<T, _, _, _>(initial, &succ, config, &ctl)
    }
}

// ---------------------------------------------------------------------------
// The state-table seam
// ---------------------------------------------------------------------------

/// The seen-set of an exploration, which also resolves keys back to states —
/// the seam both drivers are generic over. A *key* is the 32-bit name a
/// frontier entry (in RAM or in a spilled segment) carries for its state.
///
/// Two implementations: [`HashTable`] for any hashable state, and the
/// `memory` module's bitmap `IdTable` for states that carry a dense interner
/// id. All methods take `&self`: the parallel driver shares one table among
/// its workers, and the serial driver pays an uncontended lock per call.
pub(crate) trait StateTable: Sync {
    /// The states this table registers.
    type State;
    /// An empty table for `workers` concurrent registrars (the bitmap table
    /// sizes its shards by it; the hash table's [`Arena`] has a fixed 64).
    fn new(workers: usize) -> Self;
    /// Looks `state` up, registering it when absent: its key, and whether
    /// this call discovered it. A state is only registered once `admit`
    /// grants it a slot under the state bound — called at most once, under
    /// the lock that makes lookup-then-insert atomic, and only for an absent
    /// state; `None` means `admit` refused (the caller drops the edge).
    fn register(
        &self,
        state: &Self::State,
        admit: impl FnOnce() -> Option<usize>,
    ) -> Option<(u32, bool)>;
    /// The state registered under `key`.
    fn state(&self, key: u32) -> Self::State;
    /// Bytes the table holds resident (for the memory budget).
    fn resident_bytes(&self) -> usize;
}

/// The hash implementation of [`StateTable`]: works for any `S: Eq + Hash`,
/// and is the reference the bitmap table is differentially tested against.
/// It is an [`Arena`] whose ids are the dense numbers `admit` draws from the
/// run's state counter.
pub(crate) struct HashTable<S> {
    arena: Arena<S>,
    registered: AtomicUsize,
}

impl<S> StateTable for HashTable<S>
where
    S: Clone + Eq + Hash + Send,
{
    type State = S;

    fn new(_workers: usize) -> Self {
        HashTable {
            arena: Arena::default(),
            registered: AtomicUsize::new(0),
        }
    }

    fn register(&self, state: &S, admit: impl FnOnce() -> Option<usize>) -> Option<(u32, bool)> {
        let alloc = || {
            let key = u32::try_from(admit()?).expect("the state bound is clamped to u32::MAX");
            self.registered.fetch_add(1, Ordering::Relaxed);
            Some((key, state.clone()))
        };
        self.arena.register(state, alloc, |_, key| key)
    }

    fn state(&self, key: u32) -> S {
        self.arena
            .resolve(key)
            .expect("every frontier key names a registered state")
    }

    fn resident_bytes(&self) -> usize {
        // An estimate: each state is held twice (map key, stripe slot).
        self.registered.load(Ordering::Relaxed)
            * (2 * std::mem::size_of::<S>() + std::mem::size_of::<u32>())
    }
}

// ---------------------------------------------------------------------------
// What both drivers share: the bound, the outcome, the final assembly
// ---------------------------------------------------------------------------

/// The run-wide state bound and outcome flags. Both drivers register through
/// [`Control::admit`] and report through [`Control::status`], so the bound
/// check and the status precedence exist once.
struct Control<'a> {
    max_states: usize,
    cancel: Option<&'a CancelToken>,
    /// Number of registered states. Never exceeds `max_states`.
    count: AtomicUsize,
    /// Whether the bound tripped somewhere.
    truncated: AtomicBool,
    /// Whether the external [`CancelToken`] aborted the run.
    aborted: AtomicBool,
}

impl Control<'_> {
    /// Draws the next dense registration number, or records the truncation
    /// and returns `None` when the bound is exhausted. CAS so `count` never
    /// exceeds the bound even under races between table shards.
    fn admit(&self) -> Option<usize> {
        loop {
            let n = self.count.load(Ordering::Relaxed);
            if n >= self.max_states {
                self.truncated.store(true, Ordering::Relaxed);
                return None;
            }
            if self
                .count
                .compare_exchange(n, n + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Some(n);
            }
        }
    }

    /// Polls the external cancel token, recording an abort when it flipped.
    fn abort_requested(&self) -> bool {
        let requested = self.cancel.is_some_and(CancelToken::is_cancelled);
        if requested {
            self.aborted.store(true, Ordering::Relaxed);
        }
        requested
    }

    /// External abort wins the status; a bound trip that already happened
    /// stays visible through the LTS's truncated flag.
    fn status(&self) -> ExploreStatus {
        if self.aborted.load(Ordering::Relaxed) {
            ExploreStatus::Aborted
        } else if self.truncated.load(Ordering::Relaxed) {
            ExploreStatus::Truncated
        } else {
            ExploreStatus::Complete
        }
    }
}

/// One expanded state, as recorded by the driver that expanded it: its key
/// and its transitions, targets as keys.
type Record<L> = (u32, Vec<(L, u32)>);

/// Turns a finished run into its [`Exploration`]: numbers the registered
/// states densely — `records` first, in expansion order, then the `leftover`
/// keys still pending at an early exit (which keep an empty transition list)
/// — resolves them through the table, and remaps transition targets from
/// keys. Every registered key is in exactly one of the two: registering and
/// enqueueing are never separated by an exit point in either driver.
///
/// The serial driver passes `canonical`: under its FIFO, expansion order
/// *is* discovery order *is* the canonical numbering, so the dense numbering
/// above is final. A parallel run is renumbered.
fn assemble<T, S, L>(
    table: &T,
    root: u32,
    records: Vec<Record<L>>,
    leftover: Vec<u32>,
    canonical: bool,
    ctl: &Control,
    stats: ExploreStats,
) -> Exploration<S, L>
where
    T: StateTable<State = S>,
    S: Clone + Eq + Hash,
    L: Clone,
{
    let mut dense: HashMap<u32, usize> = HashMap::with_capacity(records.len() + leftover.len());
    let mut states: Vec<S> = Vec::with_capacity(records.len() + leftover.len());
    for key in records.iter().map(|(key, _)| *key).chain(leftover) {
        let expanded_or_pending_twice = dense.insert(key, states.len()).is_some();
        assert!(
            !expanded_or_pending_twice,
            "state key {key} left the run twice"
        );
        states.push(table.state(key));
    }
    let mut transitions: Vec<Vec<(L, usize)>> = records
        .into_iter()
        .map(|(_, out)| {
            out.into_iter()
                .map(|(label, target)| (label, dense[&target]))
                .collect()
        })
        .collect();
    transitions.resize_with(states.len(), Vec::new);

    // The truncated flag is reported faithfully even when an abort won the
    // status race.
    let truncated = ctl.truncated.load(Ordering::Relaxed);
    let lts = if canonical {
        Lts::from_parts(states, transitions, truncated)
    } else {
        renumber(states, transitions, dense[&root], truncated)
    };
    Exploration {
        lts,
        status: ctl.status(),
        stats,
    }
}

// ---------------------------------------------------------------------------
// The serial driver: one thread, one FIFO — breadth-first.
// ---------------------------------------------------------------------------

fn explore_serial<T, S, L, F>(
    initial: S,
    succ: &F,
    config: &ExploreConfig,
    ctl: &Control,
) -> Exploration<S, L>
where
    T: StateTable<State = S>,
    S: Clone + Eq + Hash,
    L: Clone,
    F: Fn(&S) -> Vec<(L, S)>,
{
    let table = T::new(1);
    let mut frontier = SpillFrontier::new(config.memory_budget, config.spill_dir.clone());
    let mut records: Vec<Record<L>> = Vec::new();
    let mut progress = Progress::new();
    let mut resident_peak = 0usize;

    let (root, _) = table
        .register(&initial, || ctl.admit())
        .expect("max_states >= 1 admits the initial state");
    frontier.push((root, 0));

    while !ctl.abort_requested() {
        let Some((key, depth)) = frontier.pop() else {
            break;
        };
        let state = table.state(key);
        let mut out: Vec<(L, u32)> = Vec::new();
        for (label, next) in succ(&state) {
            // A refused registration is an edge to an unregistered state
            // beyond the bound: dropped. The serial driver keeps expanding
            // what it did register.
            if let Some((target, fresh)) = table.register(&next, || ctl.admit()) {
                if fresh {
                    frontier.push((target, depth + 1));
                }
                out.push((label, target));
            }
        }
        records.push((key, out));
        let table_resident = table.resident_bytes();
        frontier.relieve(table_resident);
        let resident = table_resident + frontier.resident_bytes();
        resident_peak = resident_peak.max(resident);
        if progress.due() {
            let states = ctl.count.load(Ordering::Relaxed);
            progress.report(states, frontier.len(), depth, resident);
        }
    }
    progress.finish();

    let leftover = std::iter::from_fn(|| frontier.pop())
        .map(|(key, _)| key)
        .collect();
    let stats = ExploreStats {
        resident_peak_bytes: resident_peak as u64,
        ..frontier.spill_stats()
    };
    assemble(&table, root, records, leftover, true, ctl, stats)
}

// ---------------------------------------------------------------------------
// The parallel driver: work-stealing deques over a shared table.
// ---------------------------------------------------------------------------

/// What the workers of one parallel run share: the table, the work-stealing
/// frontier with its spill overflow, and the parking lot.
struct Shared<'a, T> {
    table: T,
    ctl: &'a Control<'a>,
    /// States registered but not yet expanded (in a deque, in the overflow —
    /// resident or spilled — or in flight on a worker). Zero means the
    /// frontier is globally exhausted.
    pending: AtomicUsize,
    /// Cooperative early-exit flag: set on bound trip or external abort.
    stop: AtomicBool,
    /// One work deque per worker; owners push/pop the back, thieves the
    /// front.
    queues: Vec<Mutex<VecDeque<Entry>>>,
    /// Where batches discovered over budget go instead of a deque; dry
    /// workers stream it back a segment at a time.
    overflow: Mutex<SpillFrontier>,
    budget: Option<usize>,
    /// Frontier entries in RAM (worker deques + the overflow's unspilled
    /// part).
    resident_entries: AtomicUsize,
    /// High-water mark of the resident working set.
    resident_peak: AtomicUsize,
    /// Parking lot for workers that found no work after a short spin: the
    /// mutex only guards the right to wait, and every state change that can
    /// unblock a waiter (a push, the frontier draining, stop) notifies under
    /// it, so wakeups cannot be lost.
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// Number of workers currently parked (lets the hot path skip the
    /// notification lock when nobody is waiting).
    sleepers: AtomicUsize,
}

impl<T: StateTable> Shared<'_, T> {
    fn resident_bytes(&self) -> usize {
        self.table.resident_bytes() + self.resident_entries.load(Ordering::Relaxed) * ENTRY_BYTES
    }

    /// Publishes a batch of freshly registered entries: onto the worker's
    /// own deque, or — when that would put the working set over budget —
    /// onto the overflow, which spills full chunks to disk.
    fn enqueue(&self, me: usize, batch: Vec<Entry>) {
        let n = batch.len();
        self.pending.fetch_add(n, Ordering::SeqCst);
        self.resident_entries.fetch_add(n, Ordering::Relaxed);
        if self.budget.is_some_and(|b| self.resident_bytes() > b) {
            let spilled = self.overflow.lock().push_batch(batch);
            self.resident_entries.fetch_sub(spilled, Ordering::Relaxed);
        } else {
            self.queues[me].lock().extend(batch);
        }
        self.resident_peak
            .fetch_max(self.resident_bytes(), Ordering::Relaxed);
        self.wake_sleepers();
    }

    /// Pops work: the worker's own deque first (LIFO — newest task from the
    /// back, where `enqueue` pushes), then a sweep stealing the *oldest* task
    /// from the front of every sibling — the standard work-stealing
    /// discipline (owners stay cache-warm, thieves take the work most likely
    /// to fan out) — then the overflow's oldest batch.
    fn find_work(&self, me: usize) -> Option<Entry> {
        let own = self.queues[me].lock().pop_back();
        let task = own
            .or_else(|| {
                let n = self.queues.len();
                (1..n).find_map(|offset| self.queues[(me + offset) % n].lock().pop_front())
            })
            .or_else(|| {
                let (entries, from_disk) = self.overflow.lock().take_batch()?;
                // Unspilled entries were already counted resident; reloaded
                // ones re-enter RAM now. One stays out of the deque as our
                // task.
                self.resident_entries
                    .fetch_add(from_disk, Ordering::Relaxed);
                let mut queue = self.queues[me].lock();
                queue.extend(entries);
                queue.pop_back()
            })?;
        self.resident_entries.fetch_sub(1, Ordering::Relaxed);
        Some(task)
    }

    /// Ends the run early: every worker stops at its next loop head.
    fn halt(&self) {
        // SeqCst pairs with the SeqCst re-checks in `park`: a parking worker
        // either sees this store or its sleepers registration is seen by
        // `wake_sleepers` — never neither.
        self.stop.store(true, Ordering::SeqCst);
        self.wake_sleepers();
    }

    /// Wakes parked workers after a state change that could unblock them.
    /// Cheap when nobody sleeps (one atomic read).
    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.idle.lock();
            self.idle_cv.notify_all();
        }
    }

    /// Parks until there is work to return, or until the run is over (stop
    /// set or frontier drained), which returns `None` and sends the caller
    /// back to its main loop for the final check.
    ///
    /// The re-checks happen under the `idle` lock *after* registering as a
    /// sleeper, and every producer either notifies under the same lock or
    /// published its change before reading `sleepers == 0`, so a wakeup
    /// cannot slip through between the check and the wait.
    fn park(&self, me: usize) -> Option<Entry> {
        let mut guard = self.idle.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let found = loop {
            if self.stop.load(Ordering::SeqCst) || self.pending.load(Ordering::SeqCst) == 0 {
                break None;
            }
            if let Some(task) = self.find_work(me) {
                break Some(task);
            }
            guard = self.idle_cv.wait(guard);
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        found
    }
}

fn explore_parallel<T, S, L, F>(
    initial: S,
    succ: &F,
    config: &ExploreConfig,
    ctl: &Control,
) -> Exploration<S, L>
where
    T: StateTable<State = S>,
    S: Clone + Eq + Hash + Send + Sync,
    L: Clone + Send,
    F: Fn(&S) -> Vec<(L, S)> + Sync,
{
    let workers = config.parallelism;
    let shared = Shared {
        table: T::new(workers),
        ctl,
        pending: AtomicUsize::new(1),
        stop: AtomicBool::new(false),
        queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        // The workers decide when a batch is over budget; the overflow has
        // no budget of its own.
        overflow: Mutex::new(SpillFrontier::new(None, config.spill_dir.clone())),
        budget: config.memory_budget,
        resident_entries: AtomicUsize::new(1),
        resident_peak: AtomicUsize::new(0),
        idle: Mutex::new(()),
        idle_cv: Condvar::new(),
        sleepers: AtomicUsize::new(0),
    };
    let (root, _) = shared
        .table
        .register(&initial, || ctl.admit())
        .expect("max_states >= 1 admits the initial state");
    shared.queues[0].lock().push_back((root, 0));

    let mut records: Vec<Record<L>> = Vec::new();
    std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = (0..workers)
            .map(|me| scope.spawn(move || worker(me, shared, succ)))
            .collect();
        for handle in handles {
            records.extend(handle.join().expect("exploration worker panicked"));
        }
    });

    // Registered states still pending at the exit: whatever remains on the
    // worker deques and in the overflow (in RAM or on disk).
    let mut leftover: Vec<u32> = Vec::new();
    for queue in &shared.queues {
        leftover.extend(queue.lock().drain(..).map(|(key, _)| key));
    }
    let mut overflow = shared.overflow.lock();
    leftover.extend(std::iter::from_fn(|| overflow.pop()).map(|(key, _)| key));
    let stats = ExploreStats {
        resident_peak_bytes: shared.resident_peak.load(Ordering::Relaxed) as u64,
        ..overflow.spill_stats()
    };
    // Work stealing discovers in a scheduling-dependent order: canonical
    // renumbering erases it entirely.
    assemble(&shared.table, root, records, leftover, false, ctl, stats)
}

fn worker<T, S, L, F>(me: usize, shared: &Shared<T>, succ: &F) -> Vec<Record<L>>
where
    T: StateTable<State = S>,
    L: Clone,
    F: Fn(&S) -> Vec<(L, S)>,
{
    // How many empty sweeps a worker makes (yielding between them) before it
    // parks on the condvar: enough to ride out a momentary dry spell on a
    // busy graph, small enough that chain-shaped graphs do not burn cores.
    const IDLE_SPINS: usize = 32;

    let ctl = shared.ctl;
    let mut records = Vec::new();
    let mut spins = 0usize;
    let mut progress = Progress::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        if ctl.abort_requested() {
            shared.halt();
            break;
        }
        let Some((key, depth)) = shared.find_work(me).or_else(|| {
            if shared.pending.load(Ordering::Relaxed) == 0 {
                return None;
            }
            spins += 1;
            if spins < IDLE_SPINS {
                std::thread::yield_now();
                None
            } else {
                shared.park(me)
            }
        }) else {
            if shared.pending.load(Ordering::Relaxed) == 0 {
                break;
            }
            continue;
        };
        spins = 0;
        let state = shared.table.state(key);
        let mut out: Vec<(L, u32)> = Vec::new();
        let mut batch: Vec<Entry> = Vec::new();
        for (label, next) in succ(&state) {
            match shared.table.register(&next, || ctl.admit()) {
                Some((target, fresh)) => {
                    out.push((label, target));
                    if fresh {
                        batch.push((target, depth + 1));
                    }
                }
                // The bound is exhausted: the edge is dropped, like the
                // serial driver's, and the whole run winds down.
                None => shared.halt(),
            }
        }
        if !batch.is_empty() {
            shared.enqueue(me, batch);
        }
        records.push((key, out));
        if progress.due() {
            // Sampled from the shared atomics: registered states and the
            // global frontier, plus this worker's current task depth.
            progress.report(
                ctl.count.load(Ordering::Relaxed),
                shared.pending.load(Ordering::Relaxed),
                depth,
                shared.resident_bytes(),
            );
        }
        if shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Frontier drained: wake everyone for the final exit check.
            shared.wake_sleepers();
        }
    }
    progress.finish();
    records
}

/// Renumbers provisional indices into canonical ids by a deterministic BFS
/// from the root over the recorded transition lists, then rebuilds the state
/// and transition tables in canonical order. Since the successor function is
/// deterministic, this reproduces exactly the numbering a serial
/// breadth-first run assigns.
fn renumber<S, L>(
    state_of: Vec<S>,
    trans_of: Vec<Vec<(L, usize)>>,
    root: usize,
    truncated: bool,
) -> Lts<S, L>
where
    S: Clone + Eq + Hash,
    L: Clone,
{
    let n = state_of.len();
    let mut canon = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    canon[root] = 0;
    order.push(root);
    queue.push_back(root);
    while let Some(pid) = queue.pop_front() {
        for (_, target) in &trans_of[pid] {
            if canon[*target] == usize::MAX {
                canon[*target] = order.len();
                order.push(*target);
                queue.push_back(*target);
            }
        }
    }

    // Every registered state was discovered through a recorded edge, so the
    // BFS covers all of them — except when an early exit left a discoverer's
    // record unwritten. Append such orphans in provisional order; they only
    // occur on truncated/aborted runs, which carry no determinism guarantee.
    for (pid, c) in canon.iter_mut().enumerate() {
        if *c == usize::MAX {
            *c = order.len();
            order.push(pid);
        }
    }

    let mut states = Vec::with_capacity(n);
    let mut transitions = Vec::with_capacity(n);
    for &pid in &order {
        states.push(state_of[pid].clone());
        transitions.push(
            trans_of[pid]
                .iter()
                .map(|(label, target)| (label.clone(), canon[*target]))
                .collect(),
        );
    }
    Lts::from_parts(states, transitions, truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::IdTable;

    fn assert_same_exploration<S, L>(a: &Exploration<S, L>, b: &Exploration<S, L>, what: &str)
    where
        S: Clone + Eq + Hash + std::fmt::Debug,
        L: Clone + PartialEq + std::fmt::Debug,
    {
        assert_eq!(a.status, b.status, "{what}");
        assert_eq!(a.lts.is_truncated(), b.lts.is_truncated(), "{what}");
        assert_eq!(a.lts.states(), b.lts.states(), "{what}");
        for i in 0..a.lts.num_states() {
            assert_eq!(
                a.lts.transitions_from(i),
                b.lts.transitions_from(i),
                "state {i}, {what}"
            );
        }
    }

    /// Runs one exploration on the hash table and on the bitmap table (`u32`
    /// states are their own ids) and checks that the two are identical.
    /// Only meaningful for serial runs and for complete ones: early exits
    /// under workers are scheduling-dependent.
    fn on_both_tables<L, F>(initial: u32, succ: F, config: &ExploreConfig) -> Exploration<u32, L>
    where
        L: Clone + Send + PartialEq + std::fmt::Debug,
        F: Fn(&u32) -> Vec<(L, u32)> + Sync,
    {
        let hash = explore(initial, &succ, config);
        let bitmap = run::<IdTable<u32>, _, _, _>(initial, &succ, config);
        assert_same_exploration(&hash, &bitmap, "hash vs bitmap table");
        hash
    }

    /// A diamond-heavy graph: from `(a, b)` either coordinate can step down,
    /// so the same states are reachable along many interleavings — exactly
    /// the sharing pattern of parallel type compositions.
    fn grid(s: &(u32, u32)) -> Vec<(&'static str, (u32, u32))> {
        let mut out = Vec::new();
        if s.0 > 0 {
            out.push(("left", (s.0 - 1, s.1)));
        }
        if s.1 > 0 {
            out.push(("right", (s.0, s.1 - 1)));
        }
        out
    }

    #[test]
    fn parallel_run_matches_serial_lts_exactly() {
        let serial = Lts::build((12u32, 12u32), grid, 1_000_000);
        for workers in [2, 3, 4, 8] {
            let ex = explore(
                (12u32, 12u32),
                grid,
                &ExploreConfig::new(workers, 1_000_000),
            );
            assert_eq!(ex.status, ExploreStatus::Complete);
            assert_eq!(ex.lts.num_states(), serial.num_states());
            assert_eq!(ex.lts.num_transitions(), serial.num_transitions());
            assert_eq!(ex.lts.states(), serial.states(), "workers={workers}");
            for i in 0..serial.num_states() {
                assert_eq!(
                    ex.lts.transitions_from(i),
                    serial.transitions_from(i),
                    "state {i}, workers={workers}"
                );
            }
        }
    }

    #[test]
    fn serial_config_matches_lts_build() {
        let direct = Lts::build((5u32, 5u32), grid, 1_000_000);
        let ex = explore((5u32, 5u32), grid, &ExploreConfig::serial(1_000_000));
        assert_eq!(ex.status, ExploreStatus::Complete);
        assert_eq!(ex.lts.states(), direct.states());
        assert_eq!(ex.lts.num_transitions(), direct.num_transitions());
    }

    #[test]
    fn bound_trips_cooperatively_and_never_overshoots() {
        let chain = |s: &u64| vec![("inc", s + 1)];
        for workers in [1, 4] {
            let ex = explore(0u64, chain, &ExploreConfig::new(workers, 100));
            assert_eq!(ex.status, ExploreStatus::Truncated, "workers={workers}");
            assert!(ex.lts.is_truncated());
            assert!(
                ex.lts.num_states() <= 100,
                "bound overshot: {} states on {workers} workers",
                ex.lts.num_states()
            );
        }
        // A wide graph (every state fans out) must respect the bound too.
        let fan = |s: &u64| (0..16u64).map(|k| ("step", s * 16 + k + 1)).collect();
        let ex = explore(0u64, fan, &ExploreConfig::new(4, 50));
        assert_eq!(ex.status, ExploreStatus::Truncated);
        assert!(ex.lts.num_states() <= 50, "{}", ex.lts.num_states());
    }

    #[test]
    fn chain_graphs_complete_on_many_workers() {
        // One successor per state: the worst case for parallelism — three of
        // four workers have nothing to do and must park (not spin) until the
        // run drains. Completion within the test timeout is the assertion.
        let chain = |s: &u64| {
            if *s < 3_000 {
                vec![("inc", s + 1)]
            } else {
                vec![]
            }
        };
        let ex = explore(0u64, chain, &ExploreConfig::new(4, usize::MAX));
        assert_eq!(ex.status, ExploreStatus::Complete);
        assert_eq!(ex.lts.num_states(), 3_001);
    }

    #[test]
    fn a_pre_cancelled_token_aborts_before_any_expansion() {
        let chain = |s: &u64| vec![("inc", s + 1)];
        let token = CancelToken::new();
        token.cancel();
        for workers in [1, 4] {
            let ex = explore(
                0u64,
                chain,
                &ExploreConfig::new(workers, usize::MAX).with_cancel(token.clone()),
            );
            assert_eq!(ex.status, ExploreStatus::Aborted, "workers={workers}");
            // Only the initial state (and at most a worker's in-flight batch)
            // was registered.
            assert!(ex.lts.num_states() <= 2, "{}", ex.lts.num_states());
        }
    }

    #[test]
    fn cancelling_mid_run_aborts_an_unbounded_exploration() {
        // An infinite chain: without the token this run never terminates.
        let chain = |s: &u64| {
            std::thread::yield_now();
            vec![("inc", s + 1)]
        };
        for workers in [1, 4] {
            let token = CancelToken::new();
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    token.cancel();
                })
            };
            let ex = explore(
                0u64,
                chain,
                &ExploreConfig::new(workers, usize::MAX).with_cancel(token),
            );
            canceller.join().unwrap();
            assert_eq!(ex.status, ExploreStatus::Aborted, "workers={workers}");
            assert!(!ex.lts.is_truncated());
            assert!(ex.lts.num_states() >= 1);
        }
    }

    #[test]
    fn cancel_tokens_compare_by_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, CancelToken::new());
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn zero_and_one_state_bounds_are_handled() {
        let chain = |s: &u64| vec![("inc", s + 1)];
        let ex = explore(0u64, chain, &ExploreConfig::new(4, 1));
        assert_eq!(ex.status, ExploreStatus::Truncated);
        assert_eq!(ex.lts.num_states(), 1);
        // A zero bound still admits the initial state, like the serial engine.
        let ex = explore(0u64, chain, &ExploreConfig::new(4, 0));
        assert_eq!(ex.status, ExploreStatus::Truncated);
        assert_eq!(ex.lts.num_states(), 1);
    }

    #[test]
    fn every_worker_count_and_budget_matches_the_oracle_on_both_tables() {
        // The whole selection matrix against the independent `Lts::build`:
        // {serial, 4 workers} x {unbudgeted, a budget everything is over} x
        // {hash table, bitmap table}. Wide enough (a 10k-entry frontier)
        // that the budgeted FIFO really spills.
        let fan = |s: &u32| {
            if *s < 10_000 {
                vec![("l", 2 * *s + 1), ("r", 2 * *s + 2)]
            } else {
                Vec::new()
            }
        };
        let oracle = Lts::build(0u32, fan, 1_000_000);
        for workers in [1, 4] {
            for budget in [None, Some(0)] {
                let what = format!("workers={workers}, budget={budget:?}");
                let config = ExploreConfig::new(workers, 1_000_000).with_memory_budget(budget);
                let ex = on_both_tables(0, fan, &config);
                assert_eq!(ex.status, ExploreStatus::Complete, "{what}");
                assert_eq!(ex.lts.states(), oracle.states(), "{what}");
                for i in 0..oracle.num_states() {
                    assert_eq!(
                        ex.lts.transitions_from(i),
                        oracle.transitions_from(i),
                        "state {i}, {what}"
                    );
                }
                if workers == 1 {
                    assert_eq!(ex.stats.spill_segments > 0, budget.is_some(), "{what}");
                }
                assert_eq!(ex.stats.spill_reloads, ex.stats.spill_segments, "{what}");
            }
        }
    }

    #[test]
    fn expansions_total_counts_runs_shorter_than_a_sample_stride() {
        // The counter is process-wide and monotone, and concurrently running
        // tests only ever add to it: "grew by at least N" cannot flake.
        let counter = obs::global().counter("explore_expansions_total");
        let chain = |s: &u32| {
            if *s < 1_000 {
                vec![("inc", s + 1)]
            } else {
                vec![]
            }
        };
        for workers in [1, 4] {
            let before = counter.get();
            let ex = explore(0u32, chain, &ExploreConfig::new(workers, usize::MAX));
            assert_eq!(ex.status, ExploreStatus::Complete);
            assert!(ex.lts.num_states() < PROGRESS_EVERY);
            assert!(
                counter.get() - before >= ex.lts.num_states() as u64,
                "workers={workers}: {} expansions counted for {} states",
                counter.get() - before,
                ex.lts.num_states()
            );
        }
    }

    #[test]
    fn terminal_only_graph_completes_on_many_workers() {
        let ex = explore(
            42u8,
            |_: &u8| Vec::<((), u8)>::new(),
            &ExploreConfig::new(8, 10),
        );
        assert_eq!(ex.status, ExploreStatus::Complete);
        assert_eq!(ex.lts.num_states(), 1);
        assert_eq!(ex.lts.num_transitions(), 0);
    }
}
