//! **effpi-store** — a crash-safe, content-addressed, on-disk verdict store.
//!
//! The `effpi-serve` daemon memoises verification verdicts in a bounded
//! in-memory LRU (the `serve` crate's `VerdictCache`); this crate is the durable tier
//! underneath it: verdicts keyed by [`CacheKey`] — `effpi`'s stable 128-bit
//! content address of the *normalised* request — survive the process, so a
//! restarted daemon answers previously-verified requests from request one,
//! byte-identically, without re-exploring a single state.
//!
//! ## On-disk format
//!
//! One append-only record log, `store.log`, inside the store directory:
//!
//! ```text
//! [ 15-byte magic  "effpi-store/v1\n" ]
//! [ record ]*
//!
//! record := u32 LE payload length
//!           u64 LE FNV-1a checksum of the payload
//!           payload
//! payload := 16-byte cache key (u128 LE)
//!            u64 LE explored-state count
//!            UTF-8 report text (the wire rendering the LRU also stores)
//! ```
//!
//! Appending a record is a single `write(2)`; nothing in the file is ever
//! updated in place. A key written twice is *shadowed*: the scan on open
//! keeps the later record, and the earlier one becomes dead weight that the
//! next compaction drops.
//!
//! ## Crash safety
//!
//! The contract is **prefix durability**: whatever prefix of `store.log`
//! reached the disk is recovered; a torn tail (a crash mid-append, a
//! truncated copy, flipped bits) is detected — short length field, length
//! running past EOF, checksum mismatch, non-UTF-8 report — and the file is
//! **truncated back to the last intact record** instead of failing the open.
//! Reads re-verify the checksum, so a record that rots *after* the open scan
//! is rejected (dropped from the index) rather than served. No code path
//! panics on file contents.
//!
//! ## Bounds and compaction
//!
//! The store is bounded the same two ways as the in-memory cache — by
//! **entries** and by **summed explored-state count** — but enforcement is
//! deferred to [`VerdictStore::compact`]: appends stay cheap and sequential,
//! and compaction rewrites the live, in-budget entries (least-recently-used
//! evicted first) to a fresh log that **atomically renames** over the old
//! one. [`VerdictStore::put`] triggers compaction itself once the live set
//! overshoots a bound or dead records dominate the file, so a long-running
//! daemon needs no maintenance cron.
//!
//! The store is not internally synchronised (the server wraps it in one
//! mutex, exactly like the LRU), and assumes a single process owns the
//! directory — it is a cache tier, not a database.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use obs::hash::{fnv64, CacheKey};

/// The file-format magic, written (and required) at offset 0 of `store.log`.
/// Bump the version whenever the record layout changes meaning.
pub const MAGIC: &[u8] = b"effpi-store/v1\n";

/// The log file name inside the store directory.
pub const LOG_NAME: &str = "store.log";

/// The advisory lock file name inside the store directory. [`VerdictStore::open`]
/// creates it (refusing a directory that already has one held by a live
/// process) and removes it on drop, so two processes — say, a serving daemon
/// and an offline `effpi-cli store compact` — can never interleave appends
/// and compaction renames on one log.
pub const LOCK_NAME: &str = "store.lock";

/// The largest payload a record may claim. A corrupt length field must not
/// make recovery allocate gigabytes before the checksum can reject it; real
/// reports are bounded by the server's 4 MiB frame cap anyway.
pub const MAX_PAYLOAD_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes of fixed framing per record (length + checksum).
const RECORD_HEADER: usize = 4 + 8;
/// Bytes of fixed payload prefix (key + state count).
const PAYLOAD_PREFIX: usize = 16 + 8;

/// Compaction is not worth a rewrite below this file size, whatever the
/// dead-byte ratio: rewriting a few kilobytes saves nothing.
const COMPACT_MIN_BYTES: u64 = 1024 * 1024;

/// Capacity bounds of a [`VerdictStore`], mirroring the in-memory cache's
/// `CacheConfig` — enforced at compaction, not per append.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreConfig {
    /// Maximum number of live entries after a compaction.
    pub max_entries: usize,
    /// Maximum *summed* explored-state count across live entries after a
    /// compaction.
    pub max_states: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        // A disk tier can afford to be much larger than the in-memory LRU:
        // entries are a few hundred bytes of JSON each.
        StoreConfig {
            max_entries: 65_536,
            max_states: 50_000_000,
        }
    }
}

/// Point-in-time counters of a [`VerdictStore`] (the `stats` request's
/// `store` section).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreStats {
    /// Live entries in the index.
    pub entries: usize,
    /// Summed explored-state count across live entries.
    pub states: usize,
    /// Total bytes of the log file (live + shadowed records + magic).
    pub file_bytes: u64,
    /// Bytes of the live records only.
    pub live_bytes: u64,
    /// Lookups that returned a report.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Records appended by this process.
    pub insertions: u64,
    /// Entries dropped by compactions to satisfy a capacity bound.
    pub evictions: u64,
    /// Records rejected by a checksum/format check *after* open — the entry
    /// rotted on disk and was dropped instead of served.
    pub corrupt_rejected: u64,
    /// Bytes of torn/corrupt tail discarded by recovery at open.
    pub recovered_bytes_dropped: u64,
    /// Compactions performed by this process.
    pub compactions: u64,
    /// Wall-clock time of the last compaction, milliseconds since the Unix
    /// epoch; `0` when this process has not compacted yet.
    pub last_compaction_unix_ms: u64,
}

/// What one [`VerdictStore::compact`] call did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CompactionOutcome {
    /// Entries evicted (LRU-first) to satisfy the capacity bounds.
    pub evicted_entries: usize,
    /// Entries surviving into the fresh log.
    pub live_entries: usize,
    /// File size before the rewrite.
    pub bytes_before: u64,
    /// File size after the rewrite.
    pub bytes_after: u64,
}

struct IndexEntry {
    /// Offset of the record (its length field) in `store.log`.
    offset: u64,
    /// Whole record length on disk (framing + payload).
    record_len: u64,
    /// Explored-state count the entry charges against the state budget.
    states: usize,
    /// Recency tick for LRU eviction at compaction. Survives a restart only
    /// as file order (the scan assigns ticks in append order, which
    /// compaction preserves oldest-first).
    tick: u64,
}

/// A crash-safe, content-addressed, on-disk verdict store (see the module
/// docs for the format and the recovery contract).
pub struct VerdictStore {
    dir: PathBuf,
    config: StoreConfig,
    /// Append handle, positioned at EOF.
    writer: File,
    /// Seek-and-read handle for lookups (independent cursor).
    reader: File,
    /// The held advisory lock — kept only for its `Drop`, which removes the
    /// lock file when the store closes.
    _lock: DirLock,
    index: HashMap<u128, IndexEntry>,
    tick: u64,
    states_sum: usize,
    file_bytes: u64,
    live_bytes: u64,
    stats: StoreStats,
}

/// A held `store.lock`: a file created with `create_new` carrying this
/// process's pid, deleted on drop. Advisory — it guards cooperating effpi
/// tools, not arbitrary writers.
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Claims `dir/store.lock`. A lock held by a live process is an
    /// `AddrInUse` error naming the pid and the file; a *stale* lock (its
    /// recorded pid is provably dead — checked via `/proc` where that
    /// exists) is reclaimed, since a crashed daemon must not brick its
    /// store directory.
    fn acquire(dir: &Path) -> io::Result<DirLock> {
        let path = dir.join(LOCK_NAME);
        for attempt in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(DirLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|text| text.trim().parse::<u32>().ok());
                    if attempt == 0 && holder.is_none_or(pid_is_dead) {
                        // Stale (dead holder or unreadable): reclaim once.
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    let pid = holder.map_or("unknown pid".to_string(), |p| format!("pid {p}"));
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!(
                            "store directory is locked by another process ({pid}): {} — \
                             is an effpi-serve daemon using this store?",
                            path.display()
                        ),
                    ));
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("second attempt either creates the lock or errors")
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether `pid` is provably dead. Only `/proc`-style systems can tell; where
/// there is no `/proc`, every recorded pid is conservatively presumed alive
/// (a stale lock then needs a manual `rm`, which the error message names).
fn pid_is_dead(pid: u32) -> bool {
    if Path::new("/proc").is_dir() {
        !Path::new(&format!("/proc/{pid}")).exists()
    } else {
        false
    }
}

impl VerdictStore {
    /// Opens (or creates) the store rooted at directory `dir`, scanning
    /// `store.log` to rebuild the index. A torn or corrupt tail is truncated
    /// away (prefix recovery); an empty or missing file is initialised with
    /// the magic.
    ///
    /// # Errors
    ///
    /// Returns I/O errors; `AddrInUse` when another live process holds the
    /// directory's advisory `store.lock` (single-owner contract — a stale
    /// lock left by a dead process is reclaimed silently); or `InvalidData`
    /// when the file starts with a complete magic line that is not this
    /// version's — a foreign or future-format log is refused, never silently
    /// wiped.
    pub fn open(dir: &Path, config: StoreConfig) -> io::Result<VerdictStore> {
        std::fs::create_dir_all(dir)?;
        let lock = DirLock::acquire(dir)?;
        let log = dir.join(LOG_NAME);
        let writer = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&log)?;
        let reader = File::open(&log)?;

        let mut store = VerdictStore {
            dir: dir.to_path_buf(),
            config,
            writer,
            reader,
            _lock: lock,
            index: HashMap::new(),
            tick: 0,
            states_sum: 0,
            file_bytes: 0,
            live_bytes: 0,
            stats: StoreStats::default(),
        };
        store.scan()?;
        // Re-borrow: scan may have truncated; append position must be EOF.
        store.writer.seek(SeekFrom::End(0))?;
        Ok(store)
    }

    /// The configured bounds.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Rebuilds the in-memory index from the log, truncating at the first
    /// torn or corrupt record.
    fn scan(&mut self) -> io::Result<()> {
        let file_len = self.writer.metadata()?.len();
        self.writer.seek(SeekFrom::Start(0))?;
        let mut reader = io::BufReader::new(&mut self.writer);

        // Magic: absent or torn (shorter than the magic, or a partial crash
        // left fewer bytes) means a fresh store; a *complete* different magic
        // line is a foreign format and refused.
        let mut magic = vec![0u8; MAGIC.len()];
        let valid_from = match read_exact_or_eof(&mut reader, &mut magic)? {
            n if n == MAGIC.len() && magic == MAGIC => MAGIC.len() as u64,
            n if n == MAGIC.len() => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} is not an effpi-store/v1 log (unrecognised magic)",
                        self.dir.join(LOG_NAME).display()
                    ),
                ));
            }
            _ => 0, // torn header: rewrite from scratch
        };

        let mut offset = valid_from;
        let mut good_until = valid_from;
        let mut entries: Vec<(u128, IndexEntry)> = Vec::new();
        if valid_from != 0 {
            loop {
                match read_record(&mut reader)? {
                    ScanStep::Record {
                        key,
                        states,
                        record_len,
                        ..
                    } => {
                        entries.push((
                            key,
                            IndexEntry {
                                offset,
                                record_len,
                                states,
                                tick: 0, // assigned below, in file order
                            },
                        ));
                        offset += record_len;
                        good_until = offset;
                    }
                    ScanStep::Eof => break,
                    ScanStep::Corrupt => break, // truncate from `good_until`
                }
            }
        }
        drop(reader);

        if valid_from == 0 {
            // Fresh (or torn-header) store: write the magic.
            self.stats.recovered_bytes_dropped += file_len;
            self.writer.set_len(0)?;
            self.writer.seek(SeekFrom::Start(0))?;
            self.writer.write_all(MAGIC)?;
            good_until = MAGIC.len() as u64;
        } else if good_until < file_len {
            self.stats.recovered_bytes_dropped += file_len - good_until;
            self.writer.set_len(good_until)?;
        }

        // Last write wins per key; ticks follow file order so the LRU order
        // of a freshly opened store is append order (oldest first).
        self.index.clear();
        self.states_sum = 0;
        self.live_bytes = 0;
        for (key, mut entry) in entries {
            self.tick += 1;
            entry.tick = self.tick;
            if let Some(old) = self.index.insert(key, entry) {
                self.states_sum -= old.states;
                self.live_bytes -= old.record_len;
            }
            let entry = &self.index[&key];
            self.states_sum += entry.states;
            self.live_bytes += entry.record_len;
        }
        self.file_bytes = good_until;
        Ok(())
    }

    /// Looks up a verdict, re-verifying the record's checksum before serving
    /// it: a report that rotted on disk after the open scan is dropped from
    /// the index (counted in `corrupt_rejected`) and reported as a miss. A
    /// hit refreshes the entry's compaction-LRU recency.
    ///
    /// # Errors
    ///
    /// Returns I/O errors of the read itself (not of corrupt content).
    pub fn get(&mut self, key: CacheKey) -> io::Result<Option<(usize, String)>> {
        let Some(entry) = self.index.get_mut(&key.0) else {
            self.stats.misses += 1;
            return Ok(None);
        };
        let offset = entry.offset;
        let record_len = entry.record_len;
        self.tick += 1;
        entry.tick = self.tick;

        self.reader.seek(SeekFrom::Start(offset))?;
        let mut raw = vec![0u8; record_len as usize];
        let complete = read_exact_or_eof(&mut self.reader, &mut raw)? == raw.len();
        match decode_record(&raw).filter(|_| complete) {
            Some((record_key, states, report)) if record_key == key.0 => {
                self.stats.hits += 1;
                Ok(Some((states, report.to_string())))
            }
            _ => {
                // The bytes under this entry no longer checksum (or no longer
                // carry this key): never serve them.
                let dead = self.index.remove(&key.0).expect("entry just found");
                self.states_sum -= dead.states;
                self.live_bytes -= dead.record_len;
                self.stats.corrupt_rejected += 1;
                self.stats.misses += 1;
                Ok(None)
            }
        }
    }

    /// The index half of a two-phase lookup: resolves `key` to a
    /// [`ReadPlan`] naming the bytes to fetch, **without touching the
    /// disk**. The caller performs [`ReadPlan::read`] with the store lock
    /// released (the plan opens its own file handle), then settles the
    /// outcome back: [`VerdictStore::note_hit`] on success, or a plain
    /// [`VerdictStore::get`] when the plan went stale — a compaction may
    /// rename the log between the two phases, in which case the planned
    /// offsets point into a file whose bytes no longer checksum under this
    /// key and the read safely reports "not found".
    ///
    /// An absent key is counted as a miss here; a present key is counted as
    /// a hit only once the caller settles it, so each two-phase probe still
    /// accounts exactly one hit or miss.
    pub fn plan_read(&mut self, key: CacheKey) -> Option<ReadPlan> {
        match self.index.get(&key.0) {
            Some(entry) => Some(ReadPlan {
                path: self.dir.join(LOG_NAME),
                offset: entry.offset,
                record_len: entry.record_len,
            }),
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Settles a successful [`ReadPlan::read`]: counts the hit and refreshes
    /// the entry's compaction-LRU recency. A key that vanished between the
    /// phases (evicted by a racing compaction) is counted as a miss — the
    /// caller already holds the verdict bytes either way.
    pub fn note_hit(&mut self, key: CacheKey) {
        match self.index.get_mut(&key.0) {
            Some(entry) => {
                self.tick += 1;
                entry.tick = self.tick;
                self.stats.hits += 1;
            }
            None => self.stats.misses += 1,
        }
    }

    /// Appends a verdict. An existing entry for `key` is shadowed (the new
    /// record wins immediately; the old bytes die at the next compaction).
    /// Triggers [`VerdictStore::compact`] when the live set overshoots a
    /// capacity bound or dead records dominate a non-trivial file.
    ///
    /// # Errors
    ///
    /// Returns I/O errors of the append (or of a triggered compaction).
    pub fn put(&mut self, key: CacheKey, states: usize, report: &str) -> io::Result<()> {
        let record = encode_record(key.0, states, report);
        let offset = self.file_bytes;
        // One write call: a crash can tear this record (recovery truncates
        // it) but never a previous one.
        self.writer.write_all(&record)?;
        self.file_bytes += record.len() as u64;
        self.tick += 1;
        let entry = IndexEntry {
            offset,
            record_len: record.len() as u64,
            states,
            tick: self.tick,
        };
        if let Some(old) = self.index.insert(key.0, entry) {
            self.states_sum -= old.states;
            self.live_bytes -= old.record_len;
        }
        self.states_sum += states;
        self.live_bytes += record.len() as u64;
        self.stats.insertions += 1;

        if self.needs_compaction() {
            self.compact()?;
        }
        Ok(())
    }

    /// Whether [`VerdictStore::put`] would compact now: a capacity bound is
    /// overshot, or dead bytes outweigh live ones in a file worth rewriting.
    pub fn needs_compaction(&self) -> bool {
        self.index.len() > self.config.max_entries
            || self.states_sum > self.config.max_states
            || (self.file_bytes > COMPACT_MIN_BYTES
                && (self.file_bytes - self.live_bytes) > self.live_bytes)
    }

    /// Rewrites the live, in-budget entries to a fresh log and atomically
    /// renames it over `store.log`. Capacity bounds are enforced here:
    /// least-recently-used entries are evicted until both hold. The new file
    /// is fsynced before the rename, so a crash anywhere leaves either the
    /// complete old log or the complete new one.
    ///
    /// # Errors
    ///
    /// Returns I/O errors; the old log stays in place on failure.
    pub fn compact(&mut self) -> io::Result<CompactionOutcome> {
        let bytes_before = self.file_bytes;

        // Decide the survivors: evict LRU-first until both bounds hold.
        let mut order: Vec<(u64, u128)> = self
            .index
            .iter()
            .map(|(&key, entry)| (entry.tick, key))
            .collect();
        order.sort_unstable();
        let mut entries = self.index.len();
        let mut states = self.states_sum;
        let mut evicted = 0usize;
        let mut survivors_from = 0usize;
        while entries > self.config.max_entries || states > self.config.max_states {
            let (_, key) = order[survivors_from];
            states -= self.index[&key].states;
            entries -= 1;
            survivors_from += 1;
            evicted += 1;
        }

        // Stream survivors (oldest tick first, so file order keeps encoding
        // recency for the next open) into a sibling temp file.
        let tmp_path = self.dir.join(format!("{LOG_NAME}.tmp"));
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(MAGIC)?;
        let mut new_entries: Vec<(u128, IndexEntry)> = Vec::with_capacity(entries);
        let mut new_offset = MAGIC.len() as u64;
        for &(tick, key) in &order[survivors_from..] {
            let entry = &self.index[&key];
            self.reader.seek(SeekFrom::Start(entry.offset))?;
            let mut raw = vec![0u8; entry.record_len as usize];
            let complete = read_exact_or_eof(&mut self.reader, &mut raw)? == raw.len();
            if !complete || decode_record(&raw).is_none_or(|(k, ..)| k != key) {
                // Rotted under us: drop it rather than persist garbage.
                self.stats.corrupt_rejected += 1;
                continue;
            }
            tmp.write_all(&raw)?;
            new_entries.push((
                key,
                IndexEntry {
                    offset: new_offset,
                    record_len: entry.record_len,
                    states: entry.states,
                    tick,
                },
            ));
            new_offset += entry.record_len;
        }
        tmp.sync_all()?;
        drop(tmp);

        // The atomic cutover, then best-effort directory sync so the rename
        // itself is durable.
        let log_path = self.dir.join(LOG_NAME);
        std::fs::rename(&tmp_path, &log_path)?;
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }

        // Point the handles at the new inode (the old ones still reference
        // the pre-rename file).
        self.writer = OpenOptions::new().read(true).append(true).open(&log_path)?;
        self.reader = File::open(&log_path)?;
        self.writer.seek(SeekFrom::End(0))?;

        self.index = new_entries.into_iter().collect();
        self.states_sum = self.index.values().map(|e| e.states).sum();
        self.file_bytes = new_offset;
        self.live_bytes = self.index.values().map(|e| e.record_len).sum::<u64>();
        self.stats.evictions += evicted as u64;
        self.stats.compactions += 1;
        self.stats.last_compaction_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);

        Ok(CompactionOutcome {
            evicted_entries: evicted,
            live_entries: self.index.len(),
            bytes_before,
            bytes_after: new_offset,
        })
    }

    /// Forces the log's bytes to disk (crash-window bound, not consistency —
    /// recovery handles torn tails either way). Called on graceful shutdown.
    ///
    /// # Errors
    ///
    /// Returns the sync error.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync_data()
    }

    /// The current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.index.len(),
            states: self.states_sum,
            file_bytes: self.file_bytes,
            live_bytes: self.live_bytes,
            ..self.stats
        }
    }
}

impl Drop for VerdictStore {
    fn drop(&mut self) {
        let _ = self.writer.sync_data();
    }
}

/// The disk half of a two-phase lookup (see [`VerdictStore::plan_read`]):
/// where the record's bytes live. Detached from the store — the read runs on
/// its own file handle with no lock held, so one slow disk read cannot
/// serialise every concurrent cache probe behind the store mutex.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReadPlan {
    path: PathBuf,
    offset: u64,
    record_len: u64,
}

impl ReadPlan {
    /// Fetches and validates the planned record. `Ok(None)` means the plan
    /// went stale (a compaction renamed the log, the bytes rotted, or the
    /// record no longer carries `key`) — the caller falls back to a locked
    /// [`VerdictStore::get`], which owns index repair and accounting.
    ///
    /// # Errors
    ///
    /// Returns I/O errors of the open/read themselves (not of corrupt
    /// content).
    pub fn read(&self, key: CacheKey) -> io::Result<Option<(usize, String)>> {
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(self.offset))?;
        let mut raw = vec![0u8; self.record_len as usize];
        let complete = read_exact_or_eof(&mut file, &mut raw)? == raw.len();
        match decode_record(&raw).filter(|_| complete) {
            Some((record_key, states, report)) if record_key == key.0 => {
                Ok(Some((states, report.to_string())))
            }
            _ => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// Assembles one on-disk record (framing + payload) for an append.
fn encode_record(key: u128, states: usize, report: &str) -> Vec<u8> {
    let payload_len = PAYLOAD_PREFIX + report.len();
    let mut record = Vec::with_capacity(RECORD_HEADER + payload_len);
    record.extend_from_slice(&(payload_len as u32).to_le_bytes());
    record.extend_from_slice(&[0u8; 8]); // checksum patched below
    record.extend_from_slice(&CacheKey(key).to_bytes());
    record.extend_from_slice(&(states as u64).to_le_bytes());
    record.extend_from_slice(report.as_bytes());
    let checksum = fnv64(&record[RECORD_HEADER..]);
    record[4..12].copy_from_slice(&checksum.to_le_bytes());
    record
}

/// Decodes a whole raw record (as laid out by [`encode_record`]); `None` on
/// any framing, checksum or UTF-8 violation.
fn decode_record(raw: &[u8]) -> Option<(u128, usize, &str)> {
    if raw.len() < RECORD_HEADER + PAYLOAD_PREFIX {
        return None;
    }
    let payload_len = u32::from_le_bytes(raw[0..4].try_into().ok()?) as usize;
    if payload_len != raw.len() - RECORD_HEADER || payload_len < PAYLOAD_PREFIX {
        return None;
    }
    let checksum = u64::from_le_bytes(raw[4..12].try_into().ok()?);
    let payload = &raw[RECORD_HEADER..];
    if fnv64(payload) != checksum {
        return None;
    }
    let key = CacheKey::from_bytes(payload[0..16].try_into().ok()?).0;
    let states = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    let report = std::str::from_utf8(&payload[24..]).ok()?;
    Some((key, usize::try_from(states).ok()?, report))
}

/// One step of the open-time scan.
enum ScanStep {
    /// An intact record.
    Record {
        key: u128,
        states: usize,
        record_len: u64,
    },
    /// Clean end of file at a record boundary.
    Eof,
    /// A torn or corrupt record: truncate here.
    Corrupt,
}

/// Reads the record at the reader's position, verifying framing and
/// checksum. I/O errors propagate; *content* problems are [`ScanStep::Corrupt`].
fn read_record<R: Read>(reader: &mut R) -> io::Result<ScanStep> {
    let mut header = [0u8; RECORD_HEADER];
    match read_exact_or_eof(reader, &mut header)? {
        0 => return Ok(ScanStep::Eof),
        n if n < RECORD_HEADER => return Ok(ScanStep::Corrupt),
        _ => {}
    }
    let payload_len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD_BYTES || (payload_len as usize) < PAYLOAD_PREFIX {
        return Ok(ScanStep::Corrupt);
    }
    let mut raw = vec![0u8; RECORD_HEADER + payload_len as usize];
    raw[..RECORD_HEADER].copy_from_slice(&header);
    if read_exact_or_eof(reader, &mut raw[RECORD_HEADER..])? < payload_len as usize {
        return Ok(ScanStep::Corrupt);
    }
    match decode_record(&raw) {
        Some((key, states, _)) => Ok(ScanStep::Record {
            key,
            states,
            record_len: raw.len() as u64,
        }),
        None => Ok(ScanStep::Corrupt),
    }
}

/// `read_exact` that reports a clean short read (EOF) as the byte count
/// instead of an error — the scanner needs to tell "torn tail" from "I/O
/// failure".
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("effpi-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u128) -> CacheKey {
        CacheKey(n)
    }

    fn big_config() -> StoreConfig {
        StoreConfig {
            max_entries: 1024,
            max_states: 1_000_000,
        }
    }

    #[test]
    fn the_record_format_is_pinned_byte_for_byte() {
        // Generated before the checksum and key moved to `obs::hash`: a
        // changed layout or hash would make every existing log unreadable.
        let record = encode_record(0x0123456789abcdef_fedcba9876543210, 42, "{\"passed\":true}");
        #[rustfmt::skip]
        let golden: [u8; 51] = [
            39, 0, 0, 0, // payload length
            101, 231, 13, 223, 136, 191, 131, 29, // FNV-1a-64 of the payload
            16, 50, 84, 118, 152, 186, 220, 254, 239, 205, 171, 137, 103, 69, 35, 1, // key
            42, 0, 0, 0, 0, 0, 0, 0, // states
            b'{', b'"', b'p', b'a', b's', b's', b'e', b'd', b'"', b':', b't', b'r', b'u', b'e', b'}',
        ];
        assert_eq!(record, golden);
        assert_eq!(
            decode_record(&golden),
            Some((0x0123456789abcdef_fedcba9876543210, 42, "{\"passed\":true}"))
        );
    }

    #[test]
    fn round_trips_across_a_reopen() {
        let dir = tmp_dir("roundtrip");
        {
            let mut store = VerdictStore::open(&dir, big_config()).unwrap();
            store.put(key(1), 10, "{\"passed\":true}").unwrap();
            store.put(key(2), 20, "{\"passed\":false}").unwrap();
            assert_eq!(
                store.get(key(1)).unwrap(),
                Some((10, "{\"passed\":true}".to_string()))
            );
            assert_eq!(store.get(key(3)).unwrap(), None);
            let s = store.stats();
            assert_eq!((s.entries, s.states, s.hits, s.misses), (2, 30, 1, 1));
        }
        // A fresh process sees everything the first one wrote.
        let mut store = VerdictStore::open(&dir, big_config()).unwrap();
        assert_eq!(
            store.get(key(2)).unwrap(),
            Some((20, "{\"passed\":false}".to_string()))
        );
        assert_eq!(store.stats().entries, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_phase_reads_match_locked_gets_and_survive_compaction() {
        let dir = tmp_dir("two-phase");
        let mut store = VerdictStore::open(&dir, big_config()).unwrap();
        store.put(key(1), 10, "{\"passed\":true}").unwrap();

        // The happy path: plan under the "lock", read outside it, settle.
        let plan = store.plan_read(key(1)).expect("indexed key plans");
        assert_eq!(
            plan.read(key(1)).unwrap(),
            Some((10, "{\"passed\":true}".to_string()))
        );
        store.note_hit(key(1));
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (1, 0));

        // An absent key is a miss at planning time.
        assert_eq!(store.plan_read(key(9)), None);
        assert_eq!(store.stats().misses, 1);

        // A plan held across a compaction goes stale, not wrong: the rename
        // moved the bytes, so the read reports "not found" and the caller
        // falls back to a locked get.
        let stale = store.plan_read(key(1)).expect("still indexed");
        store.put(key(1), 10, "{\"passed\":true,\"v\":2}").unwrap();
        store.compact().unwrap();
        let raced = stale.read(key(1)).unwrap();
        if let Some(found) = raced {
            // Offsets may coincide after the rewrite; if the read decodes at
            // all, it must have validated to *this key's* record.
            assert_eq!(found.0, 10);
        }
        assert_eq!(
            store.get(key(1)).unwrap(),
            Some((10, "{\"passed\":true,\"v\":2}".to_string()))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrites_shadow_older_records_until_compaction_drops_them() {
        let dir = tmp_dir("shadow");
        let mut store = VerdictStore::open(&dir, big_config()).unwrap();
        store.put(key(1), 10, "old").unwrap();
        let bytes_one = store.stats().file_bytes;
        store.put(key(1), 12, "new").unwrap();
        assert_eq!(store.get(key(1)).unwrap(), Some((12, "new".to_string())));
        let s = store.stats();
        assert_eq!((s.entries, s.states), (1, 12));
        assert!(s.file_bytes > bytes_one, "the old record is still on disk");
        assert!(s.live_bytes < s.file_bytes);

        let outcome = store.compact().unwrap();
        assert_eq!(outcome.live_entries, 1);
        assert!(outcome.bytes_after < outcome.bytes_before);
        assert_eq!(store.get(key(1)).unwrap(), Some((12, "new".to_string())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_enforces_both_bounds_lru_first() {
        let dir = tmp_dir("bounds");
        let mut store = VerdictStore::open(
            &dir,
            StoreConfig {
                max_entries: 2,
                max_states: 1_000,
            },
        )
        .unwrap();
        // Three entries exceed max_entries; put() auto-compacts and must
        // evict the least recently used.
        store.put(key(1), 1, "a").unwrap();
        store.put(key(2), 1, "b").unwrap();
        assert!(store.get(key(1)).unwrap().is_some()); // refresh 1: 2 is LRU
        store.put(key(3), 1, "c").unwrap();
        assert_eq!(store.get(key(2)).unwrap(), None, "LRU entry evicted");
        assert!(store.get(key(1)).unwrap().is_some());
        assert!(store.get(key(3)).unwrap().is_some());
        assert!(store.stats().evictions >= 1);

        // The state budget evicts too.
        let mut store2 = VerdictStore::open(
            &tmp_dir("bounds2"),
            StoreConfig {
                max_entries: 100,
                max_states: 100,
            },
        )
        .unwrap();
        store2.put(key(1), 60, "a").unwrap();
        store2.put(key(2), 30, "b").unwrap();
        store2.put(key(3), 50, "c").unwrap();
        assert_eq!(store2.get(key(1)).unwrap(), None);
        assert!(store2.get(key(2)).unwrap().is_some());
        assert!(store2.get(key(3)).unwrap().is_some());
        assert_eq!(store2.stats().states, 80);
        let _ = std::fs::remove_dir_all(store2.dir());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_order_survives_a_restart_as_file_order() {
        let dir = tmp_dir("lru-restart");
        {
            let mut store = VerdictStore::open(&dir, big_config()).unwrap();
            store.put(key(1), 1, "a").unwrap();
            store.put(key(2), 1, "b").unwrap();
            store.put(key(3), 1, "c").unwrap();
            // Touch 1 so it is the most recent; compaction rewrites the file
            // in recency order (2, 3, 1).
            assert!(store.get(key(1)).unwrap().is_some());
            store.compact().unwrap();
        }
        let mut store = VerdictStore::open(
            &dir,
            StoreConfig {
                max_entries: 2,
                max_states: 1_000,
            },
        )
        .unwrap();
        store.compact().unwrap();
        assert_eq!(store.get(key(2)).unwrap(), None, "oldest-by-recency goes");
        assert!(store.get(key(1)).unwrap().is_some());
        assert!(store.get(key(3)).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_foreign_magic_is_refused_not_wiped() {
        let dir = tmp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG_NAME), b"some-other-form\nwith content").unwrap();
        let err = match VerdictStore::open(&dir, big_config()) {
            Err(e) => e,
            Ok(_) => panic!("a foreign-format log must be refused"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The file is untouched.
        assert_eq!(
            std::fs::read(dir.join(LOG_NAME)).unwrap(),
            b"some-other-form\nwith content"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_header_recovers_as_a_fresh_store() {
        let dir = tmp_dir("torn-header");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG_NAME), &MAGIC[..7]).unwrap();
        let mut store = VerdictStore::open(&dir, big_config()).unwrap();
        assert_eq!(store.stats().entries, 0);
        assert!(store.stats().recovered_bytes_dropped > 0);
        store.put(key(1), 1, "a").unwrap();
        assert!(store.get(key(1)).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_absurd_length_field_is_corruption_not_an_allocation() {
        let dir = tmp_dir("absurd-len");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        std::fs::write(dir.join(LOG_NAME), &bytes).unwrap();
        let store = VerdictStore::open(&dir, big_config()).unwrap();
        assert_eq!(store.stats().entries, 0);
        assert_eq!(store.stats().file_bytes, MAGIC.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_that_rots_after_open_is_rejected_on_read() {
        let dir = tmp_dir("rot");
        let mut store = VerdictStore::open(&dir, big_config()).unwrap();
        store.put(key(1), 5, "precious").unwrap();
        // Flip a byte of the report in place, under the open store.
        let log = dir.join(LOG_NAME);
        let mut bytes = std::fs::read(&log).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0xff;
        std::fs::write(&log, &bytes).unwrap();
        assert_eq!(store.get(key(1)).unwrap(), None, "corrupt bytes not served");
        assert_eq!(store.stats().corrupt_rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_open_of_a_locked_dir_fails_with_a_clear_error() {
        let dir = tmp_dir("locked");
        let first = VerdictStore::open(&dir, big_config()).unwrap();
        let err = match VerdictStore::open(&dir, big_config()) {
            Err(e) => e,
            Ok(_) => panic!("a held lock must refuse a second owner"),
        };
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        let message = err.to_string();
        assert!(message.contains("locked by another process"), "{message}");
        assert!(
            message.contains(&format!("pid {}", std::process::id())),
            "{message}"
        );
        assert!(message.contains(LOCK_NAME), "{message}");
        drop(first);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_the_store_releases_the_lock() {
        let dir = tmp_dir("lock-release");
        {
            let mut store = VerdictStore::open(&dir, big_config()).unwrap();
            store.put(key(1), 1, "a").unwrap();
            assert!(dir.join(LOCK_NAME).exists());
        }
        assert!(!dir.join(LOCK_NAME).exists(), "lock removed on drop");
        let mut store = VerdictStore::open(&dir, big_config()).unwrap();
        assert!(store.get(key(1)).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_lock_from_a_dead_process_is_reclaimed() {
        if !Path::new("/proc").is_dir() {
            return; // liveness is only decidable on /proc systems
        }
        let dir = tmp_dir("stale-lock");
        std::fs::create_dir_all(&dir).unwrap();
        // No live process has this pid (pid_max is far below it).
        std::fs::write(dir.join(LOCK_NAME), "4294000001").unwrap();
        let store = VerdictStore::open(&dir, big_config()).unwrap();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unreadable_lock_is_treated_as_stale_once() {
        let dir = tmp_dir("garbage-lock");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOCK_NAME), "not a pid").unwrap();
        let store = VerdictStore::open(&dir, big_config()).unwrap();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_and_drop_do_not_error() {
        let dir = tmp_dir("sync");
        let mut store = VerdictStore::open(&dir, big_config()).unwrap();
        store.put(key(1), 1, "a").unwrap();
        store.sync().unwrap();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
