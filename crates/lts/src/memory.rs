//! The exploration engine's memory layer: the data structures that make
//! exploration out-of-core, and nothing else — the loops that drive them live
//! in [`mod@crate::explore`].
//!
//! The states the verifier explores are hash-consed interner references
//! (`TyRef`/`TermRef`) whose identity is a *dense 32-bit id* — density a hash
//! table wastes. This module exploits it, SPIN-style:
//!
//! * **[`IdBitmap`]** — a two-level bitmap: lazily allocated 8 KiB pages of
//!   `u64` words, one bit per id, 64Ki ids per page. Membership is one
//!   shift+mask instead of hash+probe, and memory drops from ~48 bytes per
//!   state (hash-map entry + handle) to ~1.03 bits per state on dense id
//!   ranges.
//! * **[`IdTable`]** — the bitmap implementation of the engine's
//!   [`StateTable`] seam for [`IndexedState`]s: seen-sets sharded by page
//!   index, so registrations of distant ids never contend on a lock. A
//!   state's key is its interner id, so the table stores no states at all.
//! * **[`SpillFrontier`]** — the FIFO frontier that may spill: under an
//!   `ExploreConfig::memory_budget`, cold frontier segments are serialized to
//!   disk (fixed-width `u32 key` + `u32 depth` little-endian records,
//!   FNV-1a-64-checksummed like `effpi-store`'s log) and streamed back
//!   oldest first. The serial driver pops it entry by entry, so BFS order —
//!   and with it determinism and witness minimality — is preserved exactly;
//!   the parallel driver parks over-budget batches on one behind a lock and
//!   hands dry workers a segment at a time. A truncated or corrupt segment
//!   fails the run loudly (a panic naming the segment) rather than silently
//!   dropping frontier states.
//!
//! Accounting is published two ways: per-run in `Exploration::stats`, and
//! process-wide through the `obs` registry (`explore_resident_bytes` gauge;
//! `spill_segments` / `spill_bytes` / `spill_reloads` counters).

use std::collections::VecDeque;
use std::fs;
use std::hash::Hash;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use lambdapi::intern::{Id, Internable, Interned};
use obs::hash::fnv64;
use obs::sync::Mutex;

use crate::explore::{ExploreStats, StateTable};

// ---------------------------------------------------------------------------
// Indexed states
// ---------------------------------------------------------------------------

/// A state whose identity is a dense 32-bit id that can be resolved back to
/// the state — the contract the bitmap
/// state table builds on.
///
/// Laws: `from_index_id(s.index_id()) == s` for every state that has been
/// constructed in this process, and `a == b ⇔ a.index_id() == b.index_id()`
/// (id equality *is* state equality, as for interner references). The id
/// values themselves are allocation-order artifacts and never leak into
/// anything observable — the engine renumbers canonically.
pub(crate) trait IndexedState: Clone + Eq + Hash {
    /// The state's dense id.
    fn index_id(&self) -> u32;
    /// Resolves an id back to its state.
    ///
    /// # Panics
    ///
    /// Panics when the id was never allocated in this process — an engine
    /// invariant violation (e.g. a foreign spill file), never expected in a
    /// real run.
    fn from_index_id(id: u32) -> Self;
}

/// Interner references — `TyRef` and `TermRef` alike — are indexed states:
/// the id is the interner's own, and the interner resolves it back.
impl<T: Internable> IndexedState for Interned<T> {
    fn index_id(&self) -> u32 {
        self.id().index()
    }
    fn from_index_id(id: u32) -> Self {
        Interned::from_id(Id::from_index(id))
            .expect("exploration frontier names an id the interner never allocated")
    }
}

// ---------------------------------------------------------------------------
// The bitmap seen-set
// ---------------------------------------------------------------------------

/// Ids per bitmap page (and per [`IdTable`] shard stripe).
const PAGE_IDS: usize = 1 << 16;
/// `u64` words per page.
const PAGE_WORDS: usize = PAGE_IDS / 64;
/// Bytes per page.
const PAGE_BYTES: usize = PAGE_WORDS * 8;

/// One lazily allocated bitmap page covering 64Ki consecutive ids.
type Page = Box<[u64; PAGE_WORDS]>;

fn new_page() -> Page {
    Box::new([0u64; PAGE_WORDS])
}

/// The id-indexed seen-set: a two-level bitmap over dense 32-bit ids.
///
/// Level one is a page directory indexed by `id >> 16`; level two is an
/// 8 KiB page of `u64` words, allocated the first time any id of its 64Ki
/// chunk is inserted. Membership is `pages[id >> 16][id >> 6 & 1023] >>
/// (id & 63) & 1` — one shift+mask, no hashing, no probing; ~1.03 bits per
/// state on the dense id ranges the interner produces.
#[derive(Default)]
pub(crate) struct IdBitmap {
    pages: Vec<Option<Page>>,
    resident_bytes: usize,
}

impl IdBitmap {
    /// An empty seen-set (no pages allocated).
    pub(crate) fn new() -> IdBitmap {
        IdBitmap::default()
    }

    /// Inserts an id; `true` when it was not yet present.
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let page_index = (id as usize) >> 16;
        if self.pages.len() <= page_index {
            self.pages.resize_with(page_index + 1, || None);
        }
        let page = self.pages[page_index].get_or_insert_with(|| {
            self.resident_bytes += PAGE_BYTES;
            new_page()
        });
        let word = ((id as usize) >> 6) & (PAGE_WORDS - 1);
        let bit = 1u64 << (id & 63);
        let fresh = page[word] & bit == 0;
        page[word] |= bit;
        fresh
    }

    /// Whether an id is present.
    pub(crate) fn contains(&self, id: u32) -> bool {
        let page_index = (id as usize) >> 16;
        match self.pages.get(page_index).and_then(Option::as_ref) {
            Some(page) => page[((id as usize) >> 6) & (PAGE_WORDS - 1)] & (1u64 << (id & 63)) != 0,
            None => false,
        }
    }

    /// Bytes of allocated bitmap pages.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }
}

/// The bitmap implementation of [`StateTable`], for states that carry a dense
/// interner id: the key *is* the id, membership is an [`IdBitmap`] bit, and
/// `state` is the interner's own lookup — the table stores no states.
pub(crate) struct IdTable<S> {
    /// Seen-sets sharded by page index (`shard = page & mask`, the shard's
    /// own page number is `page >> bits`): registrations of ids 64Ki apart
    /// never share a lock.
    shards: Vec<Mutex<IdBitmap>>,
    shard_bits: u32,
    /// Allocated bitmap bytes, summed over the shards.
    resident: AtomicUsize,
    state: std::marker::PhantomData<fn() -> S>,
}

impl<S: IndexedState> StateTable for IdTable<S> {
    type State = S;

    fn new(workers: usize) -> Self {
        let shard_count = (workers * 8).next_power_of_two();
        IdTable {
            shards: (0..shard_count)
                .map(|_| Mutex::new(IdBitmap::new()))
                .collect(),
            shard_bits: shard_count.trailing_zeros(),
            resident: AtomicUsize::new(0),
            state: std::marker::PhantomData,
        }
    }

    fn register(&self, state: &S, admit: impl FnOnce() -> Option<usize>) -> Option<(u32, bool)> {
        let id = state.index_id();
        let page = (id >> 16) as usize;
        // The id as its shard's set sees it: the shard-selecting low bits of
        // the page index are implied by the shard, so they are shifted out.
        let local = (((page >> self.shard_bits) as u32) << 16) | (id & 0xFFFF);
        let mut seen = self.shards[page & (self.shards.len() - 1)].lock();
        if seen.contains(local) {
            return Some((id, false));
        }
        admit()?;
        let before = seen.resident_bytes();
        seen.insert(local);
        self.resident
            .fetch_add(seen.resident_bytes() - before, Ordering::Relaxed);
        Some((id, true))
    }

    fn state(&self, key: u32) -> S {
        S::from_index_id(key)
    }

    fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Spill segments
// ---------------------------------------------------------------------------

/// Magic prefix of a spill segment file.
const SPILL_MAGIC: &[u8; 8] = b"EFSPILL1";
/// A frontier entry: a registered-but-unexpanded state's `(key, depth)`.
pub(crate) type Entry = (u32, u32);
/// Bytes per frontier record in a segment (`u32 key` + `u32 depth`, LE).
const SPILL_RECORD_BYTES: usize = 8;
/// Bytes of resident frontier accounting per in-memory entry.
pub(crate) const ENTRY_BYTES: usize = SPILL_RECORD_BYTES;
/// Entries per spilled segment: large enough that segment count stays small
/// (32 KiB of records each), small enough that a reloaded segment cannot
/// blow a budget by itself.
const SPILL_CHUNK: usize = 4096;

/// Writes one segment: `magic | u32 LE count | u64 LE FNV-1a(payload) |
/// payload` where payload is `count` fixed-width records. Returns the
/// payload size in bytes.
///
/// # Panics
///
/// Panics on any I/O error: a frontier segment that failed to persist means
/// pending states would be silently lost, which breaks the engine's
/// completeness contract — the run must die loudly instead.
fn write_segment(path: &Path, entries: &[Entry]) -> u64 {
    let mut payload = Vec::with_capacity(entries.len() * SPILL_RECORD_BYTES);
    for &(key, depth) in entries {
        payload.extend_from_slice(&key.to_le_bytes());
        payload.extend_from_slice(&depth.to_le_bytes());
    }
    let mut bytes = Vec::with_capacity(20 + payload.len());
    bytes.extend_from_slice(SPILL_MAGIC);
    bytes.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&fnv64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let mut file = fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create spill segment {}: {e}", path.display()));
    file.write_all(&bytes)
        .unwrap_or_else(|e| panic!("cannot write spill segment {}: {e}", path.display()));
    payload.len() as u64
}

/// Reads a segment back and deletes the file.
///
/// # Panics
///
/// Panics — naming the segment — on any I/O error, bad magic, truncation or
/// checksum mismatch: a segment that cannot be fully recovered means
/// frontier states would be silently dropped, so the run fails loudly (a
/// serving daemon turns the panic into a typed internal-error reply).
fn read_segment(path: &Path) -> Vec<Entry> {
    let mut bytes = Vec::new();
    fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .unwrap_or_else(|e| panic!("cannot read spill segment {}: {e}", path.display()));
    let corrupt = |what: &str| -> ! {
        panic!(
            "corrupt spill segment {} ({what}): refusing to drop frontier states",
            path.display()
        )
    };
    if bytes.len() < 20 || &bytes[..8] != SPILL_MAGIC {
        corrupt("bad magic or truncated header");
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let payload = &bytes[20..];
    if payload.len() != count * SPILL_RECORD_BYTES {
        corrupt("truncated payload");
    }
    if fnv64(payload) != checksum {
        corrupt("checksum mismatch");
    }
    let entries = payload
        .chunks_exact(SPILL_RECORD_BYTES)
        .map(|rec| {
            (
                u32::from_le_bytes(rec[..4].try_into().unwrap()),
                u32::from_le_bytes(rec[4..].try_into().unwrap()),
            )
        })
        .collect();
    let _ = fs::remove_file(path);
    entries
}

/// Distinguishes concurrent runs' spill directories within one process.
static SPILL_RUN: AtomicU64 = AtomicU64::new(0);

/// A per-run spill directory, created on first use and removed (with any
/// leftover segments) when the run ends.
struct SpillDir {
    base: PathBuf,
    dir: Option<PathBuf>,
    seq: u64,
}

impl SpillDir {
    fn new(base: Option<PathBuf>) -> SpillDir {
        SpillDir {
            base: base.unwrap_or_else(std::env::temp_dir),
            dir: None,
            seq: 0,
        }
    }

    /// The path for the next segment (creating the run directory on first
    /// call). Panics on I/O errors, like the segment codec.
    fn next_segment(&mut self) -> PathBuf {
        if self.dir.is_none() {
            let dir = self.base.join(format!(
                "effpi-spill-{}-{}",
                std::process::id(),
                SPILL_RUN.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("cannot create spill dir {}: {e}", dir.display()));
            self.dir = Some(dir);
        }
        let seq = self.seq;
        self.seq += 1;
        self.dir
            .as_ref()
            .expect("spill dir was just created")
            .join(format!("seg-{seq:08}.spill"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

// ---------------------------------------------------------------------------
// The FIFO frontier that may spill
// ---------------------------------------------------------------------------

/// The FIFO frontier with disk spilling, FIFO-exact: entries flow
/// `tail → (segment | direct) → head` strictly in push order, so pops see
/// precisely the order an all-in-RAM `VecDeque` would produce — which is
/// what keeps budgeted runs byte-identical to unbudgeted ones.
///
/// The serial driver's frontier is one ([`SpillFrontier::push`] /
/// [`SpillFrontier::pop`]); the parallel driver keeps one behind a lock as
/// the overflow of its work-stealing deques ([`SpillFrontier::push_batch`] /
/// [`SpillFrontier::take_batch`]).
pub(crate) struct SpillFrontier {
    /// Oldest resident entries (pops come from here).
    head: VecDeque<Entry>,
    /// Spilled segments, oldest first.
    segments: VecDeque<PathBuf>,
    /// Entries currently on disk, summed over `segments`.
    spilled: usize,
    /// Newest entries (pushes go here).
    tail: VecDeque<Entry>,
    dir: SpillDir,
    budget: Option<usize>,
    stats: ExploreStats,
    /// The process-wide `spill_segments` / `spill_bytes` / `spill_reloads`
    /// counters.
    segments_total: obs::Counter,
    bytes_total: obs::Counter,
    reloads_total: obs::Counter,
}

impl SpillFrontier {
    pub(crate) fn new(budget: Option<usize>, spill_dir: Option<PathBuf>) -> SpillFrontier {
        let registry = obs::global();
        SpillFrontier {
            head: VecDeque::new(),
            segments: VecDeque::new(),
            spilled: 0,
            tail: VecDeque::new(),
            dir: SpillDir::new(spill_dir),
            budget,
            stats: ExploreStats::default(),
            segments_total: registry.counter("spill_segments"),
            bytes_total: registry.counter("spill_bytes"),
            reloads_total: registry.counter("spill_reloads"),
        }
    }

    /// Spills the tail as a fresh segment when it is worth one; returns how
    /// many entries left RAM.
    fn flush_tail(&mut self) -> usize {
        if self.tail.len() < SPILL_CHUNK {
            return 0;
        }
        let entries: Vec<Entry> = self.tail.drain(..).collect();
        let path = self.dir.next_segment();
        let bytes = write_segment(&path, &entries);
        self.segments.push_back(path);
        self.spilled += entries.len();
        self.segments_total.inc();
        self.bytes_total.add(bytes);
        self.stats.spill_segments += 1;
        self.stats.spill_bytes += bytes;
        entries.len()
    }

    /// Makes the oldest pending entries resident when the head ran dry:
    /// streams the oldest spilled segment back in, else promotes the tail.
    fn refill_head(&mut self) {
        if !self.head.is_empty() {
            return;
        }
        if let Some(path) = self.segments.pop_front() {
            self.head.extend(read_segment(&path));
            self.spilled -= self.head.len();
            self.reloads_total.inc();
            self.stats.spill_reloads += 1;
        } else {
            std::mem::swap(&mut self.head, &mut self.tail);
        }
    }

    /// Parks a batch of entries (a worker found the run over budget),
    /// spilling the tail to disk once it fills a chunk — the caller has
    /// decided; this frontier's own budget is not consulted. Returns how many
    /// entries left RAM.
    pub(crate) fn push_batch(&mut self, batch: Vec<Entry>) -> usize {
        self.tail.extend(batch);
        self.flush_tail()
    }

    /// Hands a dry worker the oldest pending entries — one spilled segment,
    /// or the unspilled remainder — plus how many of them came back from
    /// disk (for resident accounting).
    pub(crate) fn take_batch(&mut self) -> Option<(Vec<Entry>, usize)> {
        let on_disk = self.spilled;
        self.refill_head();
        if self.head.is_empty() {
            return None;
        }
        Some((self.head.drain(..).collect(), on_disk - self.spilled))
    }

    /// Enqueues one entry (the serial driver).
    pub(crate) fn push(&mut self, entry: Entry) {
        self.tail.push_back(entry);
    }

    /// Pops the oldest pending entry, streaming the oldest spilled segment
    /// back in when the resident head runs dry.
    pub(crate) fn pop(&mut self) -> Option<Entry> {
        self.refill_head();
        self.head.pop_front()
    }

    /// Registered, not yet expanded — wherever the entry lives (a spilled
    /// entry is still pending).
    pub(crate) fn len(&self) -> usize {
        self.head.len() + self.spilled + self.tail.len()
    }

    /// Bytes of frontier entries held in RAM.
    pub(crate) fn resident_bytes(&self) -> usize {
        (self.head.len() + self.tail.len()) * ENTRY_BYTES
    }

    /// Called by the serial driver after each expansion: spills the tail
    /// when the working set (`table_resident` covers the state table) has
    /// outgrown the budget and the tail is worth a segment.
    pub(crate) fn relieve(&mut self, table_resident: usize) {
        if self
            .budget
            .is_some_and(|b| table_resident + self.resident_bytes() > b)
        {
            self.flush_tail();
        }
    }

    /// Spill accounting so far.
    pub(crate) fn spill_stats(&self) -> ExploreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, run, CancelToken, Exploration, ExploreConfig, ExploreStatus};

    /// `u32` chain/fan states are their own ids — the simplest lawful
    /// [`IndexedState`].
    impl IndexedState for u32 {
        fn index_id(&self) -> u32 {
            *self
        }
        fn from_index_id(id: u32) -> u32 {
            id
        }
    }

    /// The engine on the bitmap table (the public `explore` runs the
    /// same drivers on the hash table).
    fn on_bitmap<L, F>(initial: u32, succ: F, config: &ExploreConfig) -> Exploration<u32, L>
    where
        L: Clone + Send,
        F: Fn(&u32) -> Vec<(L, u32)> + Sync,
    {
        run::<IdTable<u32>, _, _, _>(initial, succ, config)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "effpi-memtest-{tag}-{}-{}",
            std::process::id(),
            SPILL_RUN.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A diamond-heavy fan: state n steps to 2n+1 and 2n+2 below a cap, so
    /// ids are dense-ish and states share many discovery paths.
    fn fan(cap: u32) -> impl Fn(&u32) -> Vec<(&'static str, u32)> {
        move |s: &u32| {
            if *s < cap {
                vec![("l", 2 * *s + 1), ("r", 2 * *s + 2)]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn bitmap_inserts_and_looks_up_across_pages() {
        let mut seen = IdBitmap::new();
        assert_eq!(seen.resident_bytes(), 0);
        for id in [0u32, 1, 63, 64, 65_535, 65_536, 1 << 20, u32::MAX] {
            assert!(!seen.contains(id));
            assert!(seen.insert(id), "{id} was fresh");
            assert!(!seen.insert(id), "{id} was already present");
            assert!(seen.contains(id));
        }
        // Pages allocate lazily: 8 distinct ids over 4 distinct 64Ki chunks
        // (ids 0..=65_535 share page 0).
        assert_eq!(seen.resident_bytes(), 4 * PAGE_BYTES);
        assert!(!seen.contains(2));
        assert!(!seen.contains(65_537));
    }

    #[test]
    fn spill_segments_round_trip() {
        let dir = tmp_dir("roundtrip");
        let entries: Vec<(u32, u32)> = (0..1000u32).map(|i| (i * 7, i)).collect();
        let path = dir.join("seg-00000000.spill");
        let bytes = write_segment(&path, &entries);
        assert_eq!(bytes as usize, entries.len() * SPILL_RECORD_BYTES);
        assert_eq!(read_segment(&path), entries);
        // The segment is consumed on read.
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_segment_format_is_pinned_byte_for_byte() {
        // Generated before the checksum moved to `obs::hash::fnv64`: a
        // changed magic, layout or hash would orphan segments mid-run.
        let dir = tmp_dir("golden");
        let path = dir.join("golden.spill");
        write_segment(&path, &[(1, 0), (0x0102_0304, 7), (u32::MAX, 65_536)]);
        #[rustfmt::skip]
        let golden: [u8; 44] = [
            b'E', b'F', b'S', b'P', b'I', b'L', b'L', b'1', // magic
            3, 0, 0, 0, // count
            10, 209, 50, 225, 250, 83, 123, 218, // FNV-1a-64 of the payload
            1, 0, 0, 0, 0, 0, 0, 0,
            4, 3, 2, 1, 7, 0, 0, 0,
            255, 255, 255, 255, 0, 0, 1, 0,
        ];
        assert_eq!(fs::read(&path).unwrap(), golden);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_corrupt_spill_segments_fail_loudly() {
        let dir = tmp_dir("corrupt");
        let entries: Vec<(u32, u32)> = (0..500u32).map(|i| (i, i / 3)).collect();
        let original = {
            let path = dir.join("seg-orig.spill");
            write_segment(&path, &entries);
            let bytes = fs::read(&path).unwrap();
            let _ = fs::remove_file(&path);
            bytes
        };
        // Every prefix truncation must be rejected, never partially decoded.
        for cut in [0, 7, 8, 19, 20, original.len() / 2, original.len() - 1] {
            let path = dir.join(format!("seg-cut-{cut}.spill"));
            fs::write(&path, &original[..cut]).unwrap();
            let err = std::panic::catch_unwind(|| read_segment(&path))
                .expect_err("truncation at {cut} must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("spill segment"),
                "panic names the segment: {msg}"
            );
        }
        // A flipped payload byte must fail the checksum.
        let mut flipped = original.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let path = dir.join("seg-flip.spill");
        fs::write(&path, &flipped).unwrap();
        let err =
            std::panic::catch_unwind(|| read_segment(&path)).expect_err("bit flip must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("checksum"),
            "bit flip fails the checksum: {msg}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupted_in_flight_segment_aborts_the_run_instead_of_dropping_states() {
        // Drive a real spilling frontier, then corrupt its oldest on-disk
        // segment out from under it: the pop that streams the segment back
        // must panic, not hand back a short frontier.
        let dir = tmp_dir("inflight");
        let mut frontier = SpillFrontier::new(Some(0), Some(dir.clone()));
        for i in 0..(SPILL_CHUNK as u32 * 2) {
            frontier.push((i, 0));
            frontier.relieve(0);
        }
        assert!(frontier.stats.spill_segments >= 1, "spill engaged");
        let segment = frontier
            .segments
            .front()
            .cloned()
            .expect("a segment is on disk");
        let mut bytes = fs::read(&segment).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&segment, &bytes).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            while frontier.pop().is_some() {}
        }))
        .expect_err("a corrupt segment must abort the drain");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("corrupt spill segment"), "{msg}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_pending_count_spans_resident_and_spilled_entries() {
        // `len` feeds the `explore_frontier` gauge: registered, not yet
        // expanded, wherever the entry lives — it must not shrink when
        // entries spill, nor jump when a segment streams back.
        let dir = tmp_dir("pending");
        let mut frontier = SpillFrontier::new(Some(0), Some(dir.clone()));
        let total = SPILL_CHUNK * 2 + 10;
        for pushed in 0..total {
            frontier.push((pushed as u32, 0));
            frontier.relieve(0);
            assert_eq!(frontier.len(), pushed + 1);
        }
        assert_eq!(frontier.stats.spill_segments, 2);
        assert_eq!(
            frontier.resident_bytes(),
            10 * ENTRY_BYTES,
            "only the tail is resident"
        );
        for popped in 0..total {
            assert_eq!(frontier.pop(), Some((popped as u32, 0)));
            assert_eq!(frontier.len(), total - popped - 1);
        }
        assert_eq!(frontier.stats.spill_reloads, 2);
        assert_eq!(frontier.pop(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serial_indexed_bfs_matches_the_hash_engine_exactly() {
        let succ = fan(2_000);
        let hash = explore(0u32, &succ, &ExploreConfig::serial(1_000_000));
        let indexed = on_bitmap(0u32, &succ, &ExploreConfig::serial(1_000_000));
        assert_eq!(indexed.status, ExploreStatus::Complete);
        assert_eq!(indexed.lts.states(), hash.lts.states());
        assert_eq!(indexed.lts.num_transitions(), hash.lts.num_transitions());
        for i in 0..hash.lts.num_states() {
            assert_eq!(
                indexed.lts.transitions_from(i),
                hash.lts.transitions_from(i)
            );
        }
        assert_eq!(indexed.stats.spill_segments, 0, "no budget, no spill");
    }

    #[test]
    fn budgeted_serial_runs_spill_and_stay_byte_identical() {
        let succ = fan(60_000);
        let free = on_bitmap(0u32, &succ, &ExploreConfig::serial(1_000_000));
        let dir = tmp_dir("serial-budget");
        let budgeted = on_bitmap(
            0u32,
            &succ,
            &ExploreConfig::serial(1_000_000)
                .with_memory_budget(Some(1))
                .with_spill_dir(dir.clone()),
        );
        assert_eq!(budgeted.status, ExploreStatus::Complete);
        assert!(
            budgeted.stats.spill_segments > 0,
            "a 1-byte budget must spill"
        );
        assert_eq!(
            budgeted.stats.spill_reloads, budgeted.stats.spill_segments,
            "every spilled segment streams back"
        );
        assert!(budgeted.stats.spill_bytes > 0);
        assert_eq!(budgeted.lts.states(), free.lts.states());
        for i in 0..free.lts.num_states() {
            assert_eq!(
                budgeted.lts.transitions_from(i),
                free.lts.transitions_from(i)
            );
        }
        // The run directory cleans up after itself (the configured base
        // stays, the per-run subdirectory and its segments are gone).
        let leftovers: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert!(leftovers.is_empty(), "spill dir drained: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_indexed_runs_match_serial_with_and_without_budget() {
        let succ = fan(30_000);
        let serial = on_bitmap(0u32, &succ, &ExploreConfig::serial(1_000_000));
        for budget in [None, Some(1)] {
            for workers in [2, 4] {
                let ex = on_bitmap(
                    0u32,
                    &succ,
                    &ExploreConfig::new(workers, 1_000_000).with_memory_budget(budget),
                );
                assert_eq!(ex.status, ExploreStatus::Complete);
                assert_eq!(
                    ex.lts.states(),
                    serial.lts.states(),
                    "workers={workers} budget={budget:?}"
                );
                for i in 0..serial.lts.num_states() {
                    assert_eq!(
                        ex.lts.transitions_from(i),
                        serial.lts.transitions_from(i),
                        "state {i}, workers={workers} budget={budget:?}"
                    );
                }
                if budget.is_some() {
                    assert!(
                        ex.stats.spill_segments > 0,
                        "workers={workers}: a 1-byte budget must spill"
                    );
                }
            }
        }
    }

    #[test]
    fn indexed_bound_trips_cooperatively_and_never_overshoots() {
        let succ = fan(u32::MAX / 4);
        for workers in [1, 4] {
            let ex = on_bitmap(
                0u32,
                &succ,
                &ExploreConfig::new(workers, 500).with_memory_budget(Some(1)),
            );
            assert_eq!(ex.status, ExploreStatus::Truncated, "workers={workers}");
            assert!(ex.lts.is_truncated());
            assert!(
                ex.lts.num_states() <= 500,
                "bound overshot: {} states on {workers} workers",
                ex.lts.num_states()
            );
        }
    }

    #[test]
    fn indexed_runs_abort_on_a_cancel_token() {
        let chain = |s: &u32| vec![("inc", s.wrapping_add(1))];
        let token = CancelToken::new();
        token.cancel();
        for workers in [1, 4] {
            let ex = on_bitmap(
                0u32,
                chain,
                &ExploreConfig::new(workers, usize::MAX).with_cancel(token.clone()),
            );
            assert_eq!(ex.status, ExploreStatus::Aborted, "workers={workers}");
        }
    }
}
