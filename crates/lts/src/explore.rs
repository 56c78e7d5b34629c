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
//!   Serially it is a [`Strategy`]: the FIFO that may spill to disk
//!   (breadth-first) or an in-RAM discipline (depth-first, beam, random
//!   walk). Under the workers it is one work-stealing deque per worker —
//!   owners push and pop the back (LIFO, for cache warmth), thieves steal the
//!   *oldest* entry from the front of a sibling — with the same spilling FIFO
//!   as the overflow for batches discovered over budget.
//!
//! **Selection is by what the code can observe, never by an option.** The
//! table follows the state type: the [`explore`] family below takes any
//! hashable state and uses the hash table; the `TypeLts` / `TermLts`
//! builders, whose states carry interner ids, run the same drivers on the
//! bitmap table. The driver follows [`ExploreConfig::parallelism`] (and the
//! strategy: beam and random walk *are* their expansion order, so they always
//! run serially). The frontier follows [`ExploreConfig::strategy`] and
//! [`ExploreConfig::memory_budget`]: only a FIFO can spill — a spilled
//! segment cannot be reordered — so breadth-first runs spill past the budget
//! and the in-RAM disciplines ignore it; parallel runs spill under every
//! strategy they accept, since work stealing decides their order anyway.
//!
//! What every run guarantees, whatever was selected:
//!
//! * **Cooperative early exit** — the run ends as soon as the state bound
//!   trips (parallel; a serial run keeps expanding what it registered), as
//!   soon as an optional *monitor* decides the question being asked
//!   on-the-fly (see [`explore_guided`]), or as soon as an external
//!   [`CancelToken`] is flipped (the abort hook behind `effpi-serve`'s
//!   `cancel` request); workers check between expansions instead of draining
//!   their queues.
//! * **Canonical renumbering** — discovery order under concurrency (or under
//!   a non-FIFO discipline) is not the breadth-first order, so after
//!   exploration the states are renumbered by a deterministic BFS over the
//!   recorded (deterministically ordered) transition lists. A complete run
//!   therefore yields an [`Lts`] **identical** — states, indices, transitions
//!   — for every worker count, strategy, table and memory budget. Serial BFS
//!   discovers in canonical order already and skips the pass.
//! * **Predecessor edges** — every exploration records, per state, the edge
//!   that first discovered it ([`Exploration::parents`], in canonical
//!   numbering), so a state of interest can be turned into a replayable
//!   witness path from the initial state ([`Exploration::trace_to`]).
//! * **Progress** — every 8192 expansions a driver publishes the run's vital
//!   signs to the process `obs` registry (see [`ExploreStats`] for the memory
//!   figures).
//!
//! A strategy can only be observed on runs that end early — which is the
//! point: a directed order can hit a violating state after exploring a
//! fraction of the space.
//!
//! [`TypeLts::build`]: crate::TypeLts::build
//! [`TermLts::build`]: crate::TermLts::build

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use lambdapi::intern::Arena;
use obs::hash::SplitMix64;
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
// Frontier disciplines
// ---------------------------------------------------------------------------

/// The frontier discipline an exploration expands pending states with.
///
/// Thanks to canonical renumbering, a **complete** run produces an [`Lts`]
/// byte-identical to BFS under *every* strategy — the discipline can only be
/// observed on runs that end early (a state bound, a monitor decision, a
/// cancellation), where a directed order may surface a target state after
/// exploring a fraction of what breadth-first needs.
///
/// Parses from and renders to the textual form used by `effpi-cli
/// --strategy` and the serve protocol: `bfs`, `dfs`, `beam[:width]`,
/// `random[:seed]`.
///
/// ```
/// use lts::explore::Strategy;
///
/// assert_eq!("beam:32".parse(), Ok(Strategy::Beam { width: 32 }));
/// assert_eq!("random:7".parse(), Ok(Strategy::RandomWalk { seed: 7 }));
/// assert_eq!(Strategy::default(), Strategy::Bfs);
/// assert_eq!(Strategy::Beam { width: 32 }.to_string(), "beam:32");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Strategy {
    /// Breadth-first (the default): discovery order is the canonical
    /// numbering, and the first violation found lies on a shortest path.
    #[default]
    Bfs,
    /// Depth-first: dives along one branch before backtracking. Keeps the
    /// frontier small on deep spaces and reaches deep states long before BFS.
    Dfs,
    /// Heuristic-guided beam search: always expands the pending state with
    /// the *lowest* priority (see [`explore_guided`]); only the best `width`
    /// states are kept hot, the rest are parked — never discarded — so
    /// completeness is preserved.
    Beam {
        /// The beam width: how many best-priority states stay hot.
        width: usize,
    },
    /// A seeded uniform random walk over the pending set: each expansion
    /// picks a uniformly random frontier state. Deterministic per seed.
    RandomWalk {
        /// The PRNG seed; equal seeds reproduce equal runs exactly.
        seed: u64,
    },
}

impl Strategy {
    /// The beam width used when `beam` is requested without one.
    pub const DEFAULT_BEAM_WIDTH: usize = 64;

    /// The seed used when `random` is requested without one.
    pub const DEFAULT_RANDOM_SEED: u64 = 1;

    /// Parses the textual form: `bfs`, `dfs`, `beam`, `beam:WIDTH`, `random`,
    /// `random:SEED`.
    pub fn parse(text: &str) -> Result<Strategy, String> {
        let (head, arg) = match text.split_once(':') {
            Some((head, arg)) => (head, Some(arg)),
            None => (text, None),
        };
        match (head, arg) {
            ("bfs", None) => Ok(Strategy::Bfs),
            ("dfs", None) => Ok(Strategy::Dfs),
            ("beam", None) => Ok(Strategy::Beam {
                width: Self::DEFAULT_BEAM_WIDTH,
            }),
            ("beam", Some(w)) => match w.parse::<usize>() {
                Ok(width) if width > 0 => Ok(Strategy::Beam { width }),
                _ => Err(format!(
                    "invalid beam width {w:?} (want beam:<positive integer>)"
                )),
            },
            ("random", None) => Ok(Strategy::RandomWalk {
                seed: Self::DEFAULT_RANDOM_SEED,
            }),
            ("random", Some(s)) => s
                .parse::<u64>()
                .map(|seed| Strategy::RandomWalk { seed })
                .map_err(|_| format!("invalid random-walk seed {s:?} (want random:<integer>)")),
            _ => Err(format!(
                "unknown strategy {text:?} (want bfs, dfs, beam[:width] or random[:seed])"
            )),
        }
    }

    /// Builds the serial frontier implementing this discipline: the FIFO
    /// that spills past `memory_budget` for breadth-first, an in-RAM
    /// discipline (which ignores the budget) for everything else.
    pub(crate) fn frontier(
        self,
        memory_budget: Option<usize>,
        spill_dir: Option<PathBuf>,
    ) -> Box<dyn FrontierDiscipline> {
        match self {
            Strategy::Bfs => Box::new(SpillFrontier::new(memory_budget, spill_dir)),
            Strategy::Dfs => Box::new(DfsFrontier::default()),
            Strategy::Beam { width } => Box::new(BeamFrontier::new(width)),
            Strategy::RandomWalk { seed } => Box::new(RandomWalkFrontier::new(seed)),
        }
    }

    /// Disciplines whose expansion *order* is the product (beam priorities,
    /// the random walk's seeded schedule) run serially even when the config
    /// asks for workers: a work-stealing pool would reorder them
    /// nondeterministically. BFS and DFS keep the parallel driver — their
    /// complete runs are canonically renumbered anyway, and their early exits
    /// are explicitly scheduling-dependent.
    fn forces_serial(self) -> bool {
        matches!(self, Strategy::Beam { .. } | Strategy::RandomWalk { .. })
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Bfs => write!(f, "bfs"),
            Strategy::Dfs => write!(f, "dfs"),
            Strategy::Beam { width } => write!(f, "beam:{width}"),
            Strategy::RandomWalk { seed } => write!(f, "random:{seed}"),
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Strategy::parse(s)
    }
}

/// The serial driver's frontier: registered-but-unexpanded `(key, depth)`
/// entries. [`Strategy::frontier`] builds one; the driver pushes every
/// freshly discovered state with its heuristic `priority` (lower = expanded
/// sooner; only [`Strategy::Beam`] looks at it) and pops the next entry to
/// expand.
///
/// Implementations must be **lossless** — every pushed entry is eventually
/// popped — so that completeness never depends on the discipline; a
/// discipline is free to reorder, never to drop. Their order must be a pure
/// function of the push *sequence*, never of the keys: the same search then
/// expands in the same order on either state table.
pub(crate) trait FrontierDiscipline {
    /// Enqueues a discovered state with its heuristic priority.
    fn push(&mut self, entry: Entry, priority: u64);
    /// Dequeues the next state to expand, or `None` when drained.
    fn pop(&mut self) -> Option<Entry>;
    /// Registered, not yet expanded — wherever the entry lives (a spilled
    /// entry is still pending).
    fn len(&self) -> usize;
    /// Bytes of frontier entries held in RAM.
    fn resident_bytes(&self) -> usize {
        self.len() * ENTRY_BYTES
    }
    /// Called after each expansion with the state table's resident size, so
    /// a budgeted FIFO can spill its cold tail. The in-RAM disciplines order
    /// their whole pending set, which a spilled segment cannot do: they stay
    /// resident whatever the budget.
    fn relieve(&mut self, _table_resident: usize) {}
    /// Spill accounting so far (zeros for the in-RAM disciplines).
    fn spill_stats(&self) -> ExploreStats {
        ExploreStats::default()
    }
}

/// LIFO — depth-first order.
#[derive(Default)]
struct DfsFrontier(Vec<Entry>);

impl FrontierDiscipline for DfsFrontier {
    fn push(&mut self, entry: Entry, _priority: u64) {
        self.0.push(entry);
    }
    fn pop(&mut self) -> Option<Entry> {
        self.0.pop()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Best-first with a hot beam and a cold backlog. Pops always take the
/// lowest `(priority, push number)` pending in the hot heap; when the heap
/// outgrows `4 × width`, everything but the `width` best is parked on the
/// backlog, and a drained heap refills from it — the beam narrows
/// *attention*, it never discards reachability. Ties break on the push
/// number, so the order is a pure function of the push sequence.
struct BeamFrontier {
    width: usize,
    pushed: u64,
    hot: BinaryHeap<Reverse<(u64, u64, Entry)>>,
    cold: VecDeque<(u64, u64, Entry)>,
}

impl BeamFrontier {
    fn new(width: usize) -> Self {
        BeamFrontier {
            width: width.max(1),
            pushed: 0,
            hot: BinaryHeap::new(),
            cold: VecDeque::new(),
        }
    }
}

impl FrontierDiscipline for BeamFrontier {
    fn push(&mut self, entry: Entry, priority: u64) {
        self.hot.push(Reverse((priority, self.pushed, entry)));
        self.pushed += 1;
        if self.hot.len() > 4 * self.width {
            let keep: Vec<_> = (0..self.width).filter_map(|_| self.hot.pop()).collect();
            self.cold
                .extend(self.hot.drain().map(|Reverse(ranked)| ranked));
            self.hot.extend(keep);
        }
    }
    fn pop(&mut self) -> Option<Entry> {
        if self.hot.is_empty() {
            self.hot.extend(self.cold.drain(..).map(Reverse));
        }
        self.hot.pop().map(|Reverse((_, _, entry))| entry)
    }
    fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }
}

/// Uniform random choice from the pending pool, driven by a SplitMix64
/// stream — tiny, seedable and dependency-free. Equal seeds reproduce equal
/// pop sequences exactly.
struct RandomWalkFrontier {
    pool: Vec<Entry>,
    rng: SplitMix64,
}

impl RandomWalkFrontier {
    fn new(seed: u64) -> Self {
        RandomWalkFrontier {
            pool: Vec::new(),
            rng: SplitMix64::new(seed),
        }
    }
}

impl FrontierDiscipline for RandomWalkFrontier {
    fn push(&mut self, entry: Entry, _priority: u64) {
        self.pool.push(entry);
    }
    fn pop(&mut self) -> Option<Entry> {
        if self.pool.is_empty() {
            return None;
        }
        let k = self.rng.below(self.pool.len() as u64) as usize;
        Some(self.pool.swap_remove(k))
    }
    fn len(&self) -> usize {
        self.pool.len()
    }
}

// ---------------------------------------------------------------------------
// Configuration and results
// ---------------------------------------------------------------------------

/// How an exploration is run: worker count, state bound, frontier discipline,
/// memory budget, and an optional external cancellation hook. Declared here
/// and nowhere else — the `TypeLts` / `TermLts` builders take one by
/// reference, and `mucalc::Verifier` / `effpi::Session` hand theirs down.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExploreConfig {
    /// Number of worker threads. `1` (the default) explores serially on the
    /// calling thread — no pool. Strategies whose expansion order *is* the
    /// product ([`Strategy::Beam`], [`Strategy::RandomWalk`]) always run
    /// serially, whatever this says.
    pub parallelism: usize,
    /// Maximum number of states registered before the run is truncated.
    pub max_states: usize,
    /// The frontier discipline (default [`Strategy::Bfs`]).
    pub strategy: Strategy,
    /// When set, workers poll this flag between state expansions and abort
    /// the run ([`ExploreStatus::Aborted`]) as soon as it flips.
    pub cancel: Option<CancelToken>,
    /// Resident-memory budget in bytes for the exploration's frontier +
    /// state-table working set. `None` (the default) keeps everything in
    /// RAM; `Some(bytes)` makes a breadth-first or parallel run spill cold
    /// frontier segments to disk once the working set trips the budget.
    /// Ignored by the serial non-BFS disciplines, whose frontiers order
    /// their whole pending set and therefore stay resident.
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
            strategy: Strategy::default(),
            cancel: None,
            memory_budget: None,
            spill_dir: None,
        }
    }

    /// Selects the frontier discipline (see [`Strategy`]).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
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
    /// The monitor of [`explore_guided`] decided the question early.
    Cancelled,
    /// An external [`CancelToken`] aborted the run; the LTS is a partial,
    /// scheduling-dependent prefix and carries no determinism guarantee.
    Aborted,
}

/// A discovery tree: per state (in canonical numbering), the `(source,
/// label)` edge that first reached it, or `None` for the root / orphans.
pub type DiscoveryTree<L> = Vec<Option<(usize, L)>>;

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

/// The result of an exploration: the (canonically numbered) LTS, the
/// discovery tree, and how the run ended.
#[derive(Clone, Debug)]
pub struct Exploration<S, L> {
    /// The explored transition system. Its `is_truncated` flag is set
    /// whenever the state bound tripped — including in a run whose `status`
    /// is [`ExploreStatus::Cancelled`] because a monitor decision arrived
    /// after the trip.
    pub lts: Lts<S, L>,
    /// The discovery tree, in the final (canonical) numbering: `parents[i]`
    /// is the `(source, label)` edge that first reached state `i` in the
    /// canonical BFS over the recorded transitions — so following it back
    /// from any state yields a *shortest* path within the explored subgraph.
    /// `None` for the initial state, and for orphan states whose discoverer's
    /// expansion record was lost to an early exit.
    pub parents: DiscoveryTree<L>,
    /// How the run ended. Cancellation wins over truncation when both
    /// happened; check [`Lts::is_truncated`] for the bound.
    pub status: ExploreStatus,
    /// Memory accounting.
    pub stats: ExploreStats,
}

impl<S, L> Exploration<S, L>
where
    S: Clone + Eq + Hash,
    L: Clone,
{
    /// The witness path from the initial state to `target`, as
    /// `(source, label, target)` steps in canonical numbering, reconstructed
    /// from the recorded [`Exploration::parents`] edges. Every step is a real
    /// transition of [`Exploration::lts`], so the path replays. Returns
    /// `Some(vec![])` for the initial state itself, and `None` for an
    /// out-of-range or orphaned target.
    pub fn trace_to(&self, target: usize) -> Option<Vec<(usize, L, usize)>> {
        if target >= self.parents.len() {
            return None;
        }
        let mut steps = Vec::new();
        let mut cur = target;
        while let Some((from, label)) = &self.parents[cur] {
            steps.push((*from, label.clone(), cur));
            cur = *from;
        }
        if cur != self.lts.initial() {
            return None;
        }
        steps.reverse();
        Some(steps)
    }
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
    explore_until(initial, succ, config, |_: &S, _: &[(L, usize)]| false)
}

/// [`explore_guided`] without a heuristic (every priority is 0).
pub(crate) fn explore_until<S, L, F, M>(
    initial: S,
    succ: F,
    config: &ExploreConfig,
    monitor: M,
) -> Exploration<S, L>
where
    S: Clone + Eq + Hash + Send + Sync,
    L: Clone + Send,
    F: Fn(&S) -> Vec<(L, S)> + Sync,
    M: Fn(&S, &[(L, usize)]) -> bool + Sync,
{
    explore_guided(initial, succ, config, monitor, |_: &S| 0)
}

/// Like [`explore`], with an on-the-fly *monitor* and a *heuristic*.
///
/// After each state is expanded, `monitor(state, transitions)` may return
/// `true` to declare the question decided, which cooperatively stops every
/// worker ([`ExploreStatus::Cancelled`]). The monitor sees the expanded state
/// and its outgoing transitions (targets as provisional keys — useful for
/// counting, not for indexing). Because workers race, a cancelled run's state
/// *set* is nondeterministic; only complete runs carry the determinism
/// guarantee.
///
/// `heuristic(state)` assigns each discovered state a priority (lower =
/// expanded sooner), which [`Strategy::Beam`] uses to steer the frontier
/// toward likely-violating states. The other strategies ignore priorities;
/// the heuristic must be a pure function of the state.
///
/// This is the hook for on-the-fly property checking (e.g. a reachability
/// violation deciding non-usage the moment it is seen): combined with a
/// directed [`Strategy`] it is the engine's counterexample *search* mode. The
/// `mucalc` verifier evaluates its µ-calculus properties globally on the
/// finished LTS (several properties share one build), so its in-tree
/// exercisers are the engine tests and the determinism suite's hunt for a
/// seeded violation (`TypeLts::build_exploration_until` under a guided
/// beam).
///
/// ```
/// use lts::explore::{explore_guided, ExploreConfig, ExploreStatus, Strategy};
///
/// // Hunt state 900 on a long chain: the beam dives straight for it because
/// // the heuristic ranks states by their distance to the goal.
/// let succ = |s: &u64| if *s < 100_000 { vec![("inc", s + 1)] } else { vec![] };
/// let config = ExploreConfig::serial(usize::MAX)
///     .with_strategy(Strategy::Beam { width: 4 });
/// let ex = explore_guided(
///     0u64,
///     succ,
///     &config,
///     |s: &u64, _: &[(&str, usize)]| *s == 900,
///     |s: &u64| 900u64.saturating_sub(*s),
/// );
/// assert_eq!(ex.status, ExploreStatus::Cancelled);
/// assert!(ex.lts.num_states() < 1_000);
/// ```
pub fn explore_guided<S, L, F, M, H>(
    initial: S,
    succ: F,
    config: &ExploreConfig,
    monitor: M,
    heuristic: H,
) -> Exploration<S, L>
where
    S: Clone + Eq + Hash + Send + Sync,
    L: Clone + Send,
    F: Fn(&S) -> Vec<(L, S)> + Sync,
    M: Fn(&S, &[(L, usize)]) -> bool + Sync,
    H: Fn(&S) -> u64 + Sync,
{
    run::<HashTable<S>, _, _, _, _, _>(initial, succ, config, monitor, heuristic)
}

/// [`explore_guided`] on the state table `T` — the one way into the drivers.
/// The public family above fixes `T` to the hash table, the `TypeLts` /
/// `TermLts` builders to the bitmap table of the `memory` module.
pub(crate) fn run<T, S, L, F, M, H>(
    initial: S,
    succ: F,
    config: &ExploreConfig,
    monitor: M,
    heuristic: H,
) -> Exploration<S, L>
where
    T: StateTable<State = S>,
    S: Clone + Eq + Hash + Send + Sync,
    L: Clone + Send,
    F: Fn(&S) -> Vec<(L, S)> + Sync,
    M: Fn(&S, &[(L, usize)]) -> bool + Sync,
    H: Fn(&S) -> u64 + Sync,
{
    let ctl = Control {
        // The initial state is always admitted, whatever the bound; keys are
        // 32 bits wide, so no run registers more than `u32::MAX` states.
        max_states: config.max_states.clamp(1, u32::MAX as usize),
        cancel: config.cancel.as_ref(),
        count: AtomicUsize::new(0),
        truncated: AtomicBool::new(false),
        decided: AtomicBool::new(false),
        aborted: AtomicBool::new(false),
    };
    if config.parallelism <= 1 || config.strategy.forces_serial() {
        explore_serial::<T, _, _, _, _, _>(initial, &succ, config, &ctl, &monitor, &heuristic)
    } else {
        explore_parallel::<T, _, _, _, _>(initial, &succ, config, &ctl, &monitor)
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
    /// Whether a monitor decided the run early.
    decided: AtomicBool,
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

    /// External abort wins the status, then monitor cancellation; a bound
    /// trip that already happened stays visible through the LTS's truncated
    /// flag.
    fn status(&self) -> ExploreStatus {
        if self.aborted.load(Ordering::Relaxed) {
            ExploreStatus::Aborted
        } else if self.decided.load(Ordering::Relaxed) {
            ExploreStatus::Cancelled
        } else if self.truncated.load(Ordering::Relaxed) {
            ExploreStatus::Truncated
        } else {
            ExploreStatus::Complete
        }
    }
}

/// One expanded state, as recorded by the driver that expanded it: its key
/// and its transitions (targets as keys in `usize` dress, for the monitor).
type Record<L> = (u32, Vec<(L, usize)>);

/// Turns a finished run into its [`Exploration`]: numbers the registered
/// states densely — `records` first, in expansion order, then the `leftover`
/// keys still pending at an early exit (which keep an empty transition list)
/// — resolves them through the table, and remaps transition targets from
/// keys. Every registered key is in exactly one of the two: registering and
/// enqueueing are never separated by an exit point in either driver.
///
/// `fifo_parents` is the serial breadth-first driver's discovery tree: under
/// FIFO, expansion order *is* discovery order *is* the canonical numbering,
/// so the dense numbering above is final. Every other run passes `None` and
/// is renumbered.
fn assemble<T, S, L>(
    table: &T,
    root: u32,
    records: Vec<Record<L>>,
    leftover: Vec<u32>,
    fifo_parents: Option<DiscoveryTree<L>>,
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
                .map(|(label, target)| (label, dense[&(target as u32)]))
                .collect()
        })
        .collect();
    transitions.resize_with(states.len(), Vec::new);

    // The truncated flag is reported faithfully even when a monitor
    // cancellation won the status race.
    let truncated = ctl.truncated.load(Ordering::Relaxed);
    let (lts, parents) = match fifo_parents {
        Some(parents) => (Lts::from_parts(states, transitions, truncated), parents),
        None => renumber(states, transitions, dense[&root], truncated),
    };
    Exploration {
        lts,
        parents,
        status: ctl.status(),
        stats,
    }
}

// ---------------------------------------------------------------------------
// The serial driver: one thread, frontier order decided by the strategy.
// ---------------------------------------------------------------------------

fn explore_serial<T, S, L, F, M, H>(
    initial: S,
    succ: &F,
    config: &ExploreConfig,
    ctl: &Control,
    monitor: &M,
    heuristic: &H,
) -> Exploration<S, L>
where
    T: StateTable<State = S>,
    S: Clone + Eq + Hash,
    L: Clone,
    F: Fn(&S) -> Vec<(L, S)>,
    M: Fn(&S, &[(L, usize)]) -> bool,
    H: Fn(&S) -> u64,
{
    let table = T::new(1);
    let mut frontier = config
        .strategy
        .frontier(config.memory_budget, config.spill_dir.clone());
    let mut records: Vec<Record<L>> = Vec::new();
    // FIFO pops make discovery order canonical already (and these parents
    // the BFS tree), so a breadth-first run skips the renumbering pass; any
    // other discipline gets its shortest-path parents from `renumber`.
    let mut fifo_parents: Option<DiscoveryTree<L>> =
        (config.strategy == Strategy::Bfs).then(|| vec![None]);
    let mut progress = Progress::new();
    let mut resident_peak = 0usize;

    let (root, _) = table
        .register(&initial, || ctl.admit())
        .expect("max_states >= 1 admits the initial state");
    frontier.push((root, 0), heuristic(&initial));

    while !ctl.abort_requested() {
        let Some((key, depth)) = frontier.pop() else {
            break;
        };
        let state = table.state(key);
        let mut out: Vec<(L, usize)> = Vec::new();
        for (label, next) in succ(&state) {
            // A refused registration is an edge to an unregistered state
            // beyond the bound: dropped. The serial driver keeps expanding
            // what it did register.
            if let Some((target, fresh)) = table.register(&next, || ctl.admit()) {
                if fresh {
                    if let Some(parents) = fifo_parents.as_mut() {
                        parents.push(Some((records.len(), label.clone())));
                    }
                    frontier.push((target, depth + 1), heuristic(&next));
                }
                out.push((label, target as usize));
            }
        }
        let decided = monitor(&state, &out);
        records.push((key, out));
        let table_resident = table.resident_bytes();
        frontier.relieve(table_resident);
        let resident = table_resident + frontier.resident_bytes();
        resident_peak = resident_peak.max(resident);
        if progress.due() {
            let states = ctl.count.load(Ordering::Relaxed);
            progress.report(states, frontier.len(), depth, resident);
        }
        if decided {
            ctl.decided.store(true, Ordering::Relaxed);
            break;
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
    assemble(&table, root, records, leftover, fifo_parents, ctl, stats)
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
    /// Cooperative early-exit flag: set on bound trip, monitor decision or
    /// external abort.
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

fn explore_parallel<T, S, L, F, M>(
    initial: S,
    succ: &F,
    config: &ExploreConfig,
    ctl: &Control,
    monitor: &M,
) -> Exploration<S, L>
where
    T: StateTable<State = S>,
    S: Clone + Eq + Hash + Send + Sync,
    L: Clone + Send,
    F: Fn(&S) -> Vec<(L, S)> + Sync,
    M: Fn(&S, &[(L, usize)]) -> bool + Sync,
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
            .map(|me| scope.spawn(move || worker(me, shared, succ, monitor)))
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
    assemble(&shared.table, root, records, leftover, None, ctl, stats)
}

fn worker<T, S, L, F, M>(me: usize, shared: &Shared<T>, succ: &F, monitor: &M) -> Vec<Record<L>>
where
    T: StateTable<State = S>,
    L: Clone,
    F: Fn(&S) -> Vec<(L, S)>,
    M: Fn(&S, &[(L, usize)]) -> bool,
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
        let mut out: Vec<(L, usize)> = Vec::new();
        let mut batch: Vec<Entry> = Vec::new();
        for (label, next) in succ(&state) {
            match shared.table.register(&next, || ctl.admit()) {
                Some((target, fresh)) => {
                    out.push((label, target as usize));
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
        if monitor(&state, &out) {
            ctl.decided.store(true, Ordering::Relaxed);
            shared.halt();
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
/// breadth-first run assigns. The same BFS also yields the discovery tree
/// returned alongside (each state's first-reaching edge — a shortest path
/// within the explored subgraph).
fn renumber<S, L>(
    state_of: Vec<S>,
    trans_of: Vec<Vec<(L, usize)>>,
    root: usize,
    truncated: bool,
) -> (Lts<S, L>, DiscoveryTree<L>)
where
    S: Clone + Eq + Hash,
    L: Clone,
{
    let n = state_of.len();
    let mut canon = vec![usize::MAX; n];
    let mut parent: Vec<Option<(usize, L)>> = vec![None; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    canon[root] = 0;
    order.push(root);
    queue.push_back(root);
    while let Some(pid) = queue.pop_front() {
        for (label, target) in &trans_of[pid] {
            if canon[*target] == usize::MAX {
                canon[*target] = order.len();
                parent[*target] = Some((pid, label.clone()));
                order.push(*target);
                queue.push_back(*target);
            }
        }
    }

    // Every registered state was discovered through a recorded edge, so the
    // BFS covers all of them — except when an early exit left a discoverer's
    // record unwritten. Append such orphans in provisional order; they only
    // occur on truncated/cancelled runs, which carry no determinism guarantee
    // (their parent edge stays `None`).
    for (pid, c) in canon.iter_mut().enumerate() {
        if *c == usize::MAX {
            *c = order.len();
            order.push(pid);
        }
    }

    let mut states = Vec::with_capacity(n);
    let mut transitions = Vec::with_capacity(n);
    let mut parents = Vec::with_capacity(n);
    for &pid in &order {
        states.push(state_of[pid].clone());
        transitions.push(
            trans_of[pid]
                .iter()
                .map(|(label, target)| (label.clone(), canon[*target]))
                .collect(),
        );
        parents.push(
            parent[pid]
                .as_ref()
                .map(|(p, label)| (canon[*p], label.clone())),
        );
    }
    (Lts::from_parts(states, transitions, truncated), parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::IdTable;

    fn assert_same_exploration<S, L>(a: &Exploration<S, L>, b: &Exploration<S, L>, what: &str)
    where
        S: Clone + Eq + Hash + fmt::Debug,
        L: Clone + PartialEq + fmt::Debug,
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
        assert_eq!(a.parents, b.parents, "{what}");
    }

    /// Runs one search on the hash table and on the bitmap table (`u32`
    /// states are their own ids) and checks that the two explorations are
    /// identical — which, on a run that ends early, means the two expanded
    /// in exactly the same order. Only meaningful for serial runs and for
    /// complete ones: early exits under workers are scheduling-dependent.
    fn on_both_tables<L, F, M, H>(
        initial: u32,
        succ: F,
        config: &ExploreConfig,
        monitor: M,
        heuristic: H,
    ) -> Exploration<u32, L>
    where
        L: Clone + Send + PartialEq + fmt::Debug,
        F: Fn(&u32) -> Vec<(L, u32)> + Sync,
        M: Fn(&u32, &[(L, usize)]) -> bool + Sync,
        H: Fn(&u32) -> u64 + Sync,
    {
        let hash = explore_guided(initial, &succ, config, &monitor, &heuristic);
        let bitmap =
            run::<IdTable<u32>, _, _, _, _, _>(initial, &succ, config, &monitor, &heuristic);
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
    fn monitor_cancels_early() {
        // Search a long chain for a "goal" state; the monitor decides the
        // question long before the chain's end.
        let chain = |s: &u64| {
            if *s < 1_000_000 {
                vec![("inc", s + 1)]
            } else {
                vec![]
            }
        };
        for workers in [1, 4] {
            let ex = explore_until(
                0u64,
                chain,
                &ExploreConfig::new(workers, usize::MAX),
                |s: &u64, _: &[(&str, usize)]| *s == 500,
            );
            assert_eq!(ex.status, ExploreStatus::Cancelled, "workers={workers}");
            assert!(!ex.lts.is_truncated());
            assert!(
                ex.lts.num_states() < 1_000_000,
                "early exit explored {} states",
                ex.lts.num_states()
            );
        }
    }

    #[test]
    fn truncation_stays_visible_when_a_monitor_cancels_after_the_bound_trips() {
        // Chain 0 -> 1 -> 2 -> ..., bound 3: registering state 3 trips the
        // bound while expanding state 2, and the monitor then cancels on that
        // same state. The status reports the cancellation; the LTS still
        // reports the truncation.
        let chain = |s: &u64| vec![("inc", s + 1)];
        for workers in [1, 4] {
            let ex = explore_until(
                0u64,
                chain,
                &ExploreConfig::new(workers, 3),
                |s: &u64, _: &[(&str, usize)]| *s == 2,
            );
            assert_eq!(ex.status, ExploreStatus::Cancelled, "workers={workers}");
            assert!(
                ex.lts.is_truncated(),
                "the bound trip must stay visible (workers={workers})"
            );
        }
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
    fn every_strategy_yields_the_canonical_lts_on_complete_runs() {
        let serial = Lts::build((9u32, 9u32), grid, 1_000_000);
        let strategies = [
            Strategy::Bfs,
            Strategy::Dfs,
            Strategy::Beam { width: 3 },
            Strategy::RandomWalk { seed: 42 },
        ];
        for strategy in strategies {
            for workers in [1, 4] {
                let config = ExploreConfig::new(workers, 1_000_000).with_strategy(strategy);
                let ex = explore((9u32, 9u32), grid, &config);
                assert_eq!(ex.status, ExploreStatus::Complete, "{strategy}");
                assert_eq!(
                    ex.lts.states(),
                    serial.states(),
                    "{strategy}, workers={workers}"
                );
                for i in 0..serial.num_states() {
                    assert_eq!(
                        ex.lts.transitions_from(i),
                        serial.transitions_from(i),
                        "state {i}, {strategy}, workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn parents_replay_as_shortest_paths() {
        for workers in [1, 4] {
            let ex = explore((6u32, 6u32), grid, &ExploreConfig::new(workers, 1_000_000));
            assert_eq!(ex.status, ExploreStatus::Complete);
            for target in 0..ex.lts.num_states() {
                let trace = ex.trace_to(target).expect("complete runs orphan nothing");
                // Every step is a real transition of the LTS...
                let mut at = ex.lts.initial();
                for (from, label, to) in &trace {
                    assert_eq!(*from, at);
                    assert!(ex.lts.transitions_from(*from).contains(&(*label, *to)));
                    at = *to;
                }
                assert_eq!(at, target);
                // ...and the path is shortest: a grid state (a, b) lies
                // exactly (12 - a - b) steps below the (6, 6) root.
                let (a, b) = *ex.lts.state(target);
                assert_eq!(trace.len() as u32, 12 - a - b, "state ({a}, {b})");
            }
        }
    }

    #[test]
    fn guided_beam_finds_a_deep_needle_early() {
        // A needle chain of depth 600 hidden among 64 equally deep hay
        // chains: BFS must advance every chain in lock-step, the beam dives
        // straight down the needle because the heuristic prefers it. States
        // are `u32`s — the root 0, needle state n at NEEDLE + n, hay state n
        // (chain `n % 64`) at HAY + n — so the same search runs on both
        // state tables and must expand in the same order on each.
        const NEEDLE: u32 = 1_000_000;
        const HAY: u32 = 2_000_000;
        let succ = |s: &u32| match *s {
            // Root: the needle plus the heads of 64 hay chains.
            0 => {
                let mut out = vec![("needle", NEEDLE + 1)];
                out.extend((0..64).map(|k| ("hay", HAY + k)));
                out
            }
            // The needle: a single deep chain.
            s if (NEEDLE..HAY).contains(&s) && s - NEEDLE < 600 => vec![("needle", s + 1)],
            // Hay chain `n % 64`, also 600 states deep.
            s if s >= HAY && s - HAY < 64 * 600 => vec![("hay", s + 64)],
            _ => vec![],
        };
        let goal = |s: &u32, _: &[(&str, usize)]| *s == NEEDLE + 600;
        let bfs = on_both_tables(0, succ, &ExploreConfig::serial(usize::MAX), goal, |_| 0);
        assert_eq!(bfs.status, ExploreStatus::Cancelled);
        let beam = on_both_tables(
            0,
            succ,
            &ExploreConfig::serial(usize::MAX).with_strategy(Strategy::Beam { width: 4 }),
            goal,
            // Prefer needle states, deepest first.
            |s: &u32| {
                if (NEEDLE..HAY).contains(s) {
                    1_000 - u64::from(s - NEEDLE)
                } else {
                    10_000
                }
            },
        );
        assert_eq!(beam.status, ExploreStatus::Cancelled);
        assert!(
            beam.lts.num_states() * 10 <= bfs.lts.num_states(),
            "beam explored {} states, bfs {}",
            beam.lts.num_states(),
            bfs.lts.num_states()
        );
        // The witness trace replays from the root down the needle.
        let violating = (0..beam.lts.num_states())
            .find(|&i| *beam.lts.state(i) == NEEDLE + 600)
            .expect("the goal state was registered");
        let trace = beam.trace_to(violating).expect("goal has a recorded path");
        assert_eq!(trace.len(), 600);
        assert_eq!(trace[0].0, beam.lts.initial());
        assert_eq!(trace.last().unwrap().2, violating);
    }

    #[test]
    fn random_walk_is_deterministic_per_seed() {
        let fan = |s: &u32| {
            if *s < 4_000 {
                (1..=3u32).map(|k| ("step", s * 3 + k)).collect()
            } else {
                Vec::new()
            }
        };
        // A bounded (early-exit) run on each state table, serial whatever the
        // config asks for: the same seed walks the same prefix on both.
        let run = |seed: u64| {
            let config = ExploreConfig::new(4, 500).with_strategy(Strategy::RandomWalk { seed });
            on_both_tables(0, fan, &config, |_: &u32, _: &[(&str, usize)]| false, |_| 0)
        };
        let (a, b) = (run(7), run(7));
        assert_eq!(a.status, ExploreStatus::Truncated);
        assert_same_exploration(&a, &b, "same seed, same prefix");
        assert_ne!(
            a.lts.states(),
            run(8).lts.states(),
            "another seed walks another prefix"
        );
    }

    #[test]
    fn dfs_dives_in_the_same_order_on_both_tables() {
        // Depth-first search for a deep leaf of a binary fan: it ends early,
        // so the explored prefix is the dive itself.
        let fan = |s: &u32| {
            if *s < 50_000 {
                vec![("l", 2 * *s + 1), ("r", 2 * *s + 2)]
            } else {
                Vec::new()
            }
        };
        let dfs = on_both_tables(
            0,
            fan,
            &ExploreConfig::serial(usize::MAX).with_strategy(Strategy::Dfs),
            |s: &u32, _: &[(&str, usize)]| *s >= 50_000,
            |_| 0,
        );
        assert_eq!(dfs.status, ExploreStatus::Cancelled);
        assert!(dfs.lts.num_states() < 100, "{}", dfs.lts.num_states());
    }

    #[test]
    fn every_strategy_worker_count_and_budget_matches_the_oracle_on_both_tables() {
        // The whole selection matrix against the independent `Lts::build`:
        // strategy x {serial, 4 workers} x {unbudgeted, a budget everything
        // is over} x {hash table, bitmap table}. Wide enough (a 10k-entry
        // frontier) that the budgeted FIFO really spills.
        let fan = |s: &u32| {
            if *s < 10_000 {
                vec![("l", 2 * *s + 1), ("r", 2 * *s + 2)]
            } else {
                Vec::new()
            }
        };
        let oracle = Lts::build(0u32, fan, 1_000_000);
        let strategies = [
            Strategy::Bfs,
            Strategy::Dfs,
            Strategy::Beam { width: 3 },
            Strategy::RandomWalk { seed: 42 },
        ];
        for strategy in strategies {
            for workers in [1, 4] {
                for budget in [None, Some(0)] {
                    let what = format!("{strategy}, workers={workers}, budget={budget:?}");
                    let config = ExploreConfig::new(workers, 1_000_000)
                        .with_strategy(strategy)
                        .with_memory_budget(budget);
                    let ex = on_both_tables(
                        0,
                        fan,
                        &config,
                        |_: &u32, _: &[(&str, usize)]| false,
                        |_| 0,
                    );
                    assert_eq!(ex.status, ExploreStatus::Complete, "{what}");
                    assert_eq!(ex.lts.states(), oracle.states(), "{what}");
                    for i in 0..oracle.num_states() {
                        assert_eq!(
                            ex.lts.transitions_from(i),
                            oracle.transitions_from(i),
                            "state {i}, {what}"
                        );
                    }
                    for target in (0..oracle.num_states()).step_by(997) {
                        assert_eq!(ex.trace_to(target), oracle.path_to(target), "{what}");
                    }
                    // Only a FIFO spills serially; the in-RAM disciplines
                    // ignore the budget.
                    if workers == 1 {
                        let spills = budget.is_some() && strategy == Strategy::Bfs;
                        assert_eq!(ex.stats.spill_segments > 0, spills, "{what}");
                    }
                    assert_eq!(ex.stats.spill_reloads, ex.stats.spill_segments, "{what}");
                }
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
    fn strategy_parsing_round_trips() {
        for (text, strategy) in [
            ("bfs", Strategy::Bfs),
            ("dfs", Strategy::Dfs),
            ("beam:16", Strategy::Beam { width: 16 }),
            ("random:99", Strategy::RandomWalk { seed: 99 }),
        ] {
            assert_eq!(Strategy::parse(text), Ok(strategy));
            assert_eq!(strategy.to_string(), text);
        }
        assert_eq!(
            Strategy::parse("beam"),
            Ok(Strategy::Beam {
                width: Strategy::DEFAULT_BEAM_WIDTH
            })
        );
        assert_eq!(
            Strategy::parse("random"),
            Ok(Strategy::RandomWalk {
                seed: Strategy::DEFAULT_RANDOM_SEED
            })
        );
        for bad in ["", "bf", "beam:0", "beam:x", "random:-1", "bfs:2"] {
            assert!(Strategy::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn beam_frontier_is_lossless_under_overflow() {
        let mut beam = Strategy::Beam { width: 2 }.frontier(None, None);
        for key in 0..100 {
            beam.push((key, 0), 1_000 - u64::from(key));
        }
        assert_eq!(beam.len(), 100);
        let mut popped: Vec<u32> = std::iter::from_fn(|| beam.pop())
            .map(|(key, _)| key)
            .collect();
        assert_eq!(beam.len(), 0);
        popped.sort_unstable();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
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
