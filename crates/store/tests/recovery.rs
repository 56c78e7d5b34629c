//! Torn-write / corruption recovery fuzz for the verdict store — the
//! acceptance contract of crash safety.
//!
//! A reference log of several records is built once; then, **deterministically
//! and exhaustively over the last record**:
//!
//! * the file is truncated at *every byte boundary* of the last record
//!   (simulating a crash mid-append at each possible point), and `open()`
//!   must recover exactly the prefix records — never error, never panic;
//! * every byte of the last record is bit-flipped in turn (simulating media
//!   rot at each possible position), and the store must either reject the
//!   record (serving the intact prefix) or — only when the flip is provably
//!   invisible — serve bytes identical to the original;
//! * in every scenario, every report that *is* served must be byte-identical
//!   to what was stored: a checksum pass over corrupt content is the one
//!   unforgivable outcome.
//!
//! The whole suite is plain-input fuzzing: no randomness, every case
//! enumerable and re-runnable.

use std::path::{Path, PathBuf};

use obs::hash::CacheKey;
use store::{StoreConfig, VerdictStore, LOG_NAME, MAGIC};

/// A distinct temp directory per test (tests run concurrently).
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("effpi-store-fuzz-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> StoreConfig {
    StoreConfig {
        max_entries: 1024,
        max_states: 1_000_000,
    }
}

/// The reference records: realistic wire-report-shaped payloads of varied
/// length (including one with multi-byte UTF-8, which tears mid-character).
fn reference_records() -> Vec<(CacheKey, usize, String)> {
    (0u128..6)
        .map(|i| {
            (
                CacheKey(0x1000 + i * 7),
                (i as usize + 1) * 13,
                format!(
                    "{{\"stable_line\":\"name=\\\"µΠ-{i}\\\" passed=true states={}\",\"states\":{}}}",
                    i * 11,
                    i * 11
                ),
            )
        })
        .collect()
}

/// Writes the reference records into a fresh store and returns the raw log
/// bytes plus the offset where the last record starts.
fn build_reference(dir: &Path) -> (Vec<u8>, usize) {
    let records = reference_records();
    let mut last_start = 0;
    {
        let mut store = VerdictStore::open(dir, config()).unwrap();
        for (i, (key, states, report)) in records.iter().enumerate() {
            if i + 1 == records.len() {
                last_start = store.stats().file_bytes as usize;
            }
            store.put(*key, *states, report).unwrap();
        }
        store.sync().unwrap();
    }
    let bytes = std::fs::read(dir.join(LOG_NAME)).unwrap();
    assert!(last_start > MAGIC.len());
    (bytes, last_start)
}

/// Opens a store over `bytes` and checks the recovery invariants: it opens
/// without error, serves every record in `must_have` byte-identically, and
/// never serves anything that differs from the reference for its key.
/// Returns which of the reference records were served.
fn assert_recovers(tag: &str, case: usize, bytes: &[u8], must_have: usize) -> Vec<bool> {
    let dir = tmp_dir(&format!("{tag}-{case}"));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(LOG_NAME), bytes).unwrap();

    let records = reference_records();
    let mut store = VerdictStore::open(&dir, config())
        .unwrap_or_else(|e| panic!("{tag} case {case}: open must recover, got {e}"));
    let mut served = Vec::with_capacity(records.len());
    for (i, (key, states, report)) in records.iter().enumerate() {
        match store.get(*key).unwrap() {
            Some((got_states, got_report)) => {
                // The unforgivable outcome: serving bytes that differ from
                // what was stored under this key.
                assert_eq!(
                    (&got_report, got_states),
                    (report, *states),
                    "{tag} case {case}: record {i} served CORRUPT content"
                );
                served.push(true);
            }
            None => {
                assert!(
                    i >= must_have,
                    "{tag} case {case}: intact prefix record {i} was lost"
                );
                served.push(false);
            }
        }
    }

    // The recovered store must stay fully writable: recovery is a working
    // state, not a read-only salvage.
    store
        .put(CacheKey(0xdead_beef), 1, "{\"after\":\"recovery\"}")
        .unwrap();
    assert_eq!(
        store.get(CacheKey(0xdead_beef)).unwrap(),
        Some((1, "{\"after\":\"recovery\"}".to_string()))
    );

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    served
}

#[test]
fn truncation_at_every_byte_boundary_of_the_last_record_recovers_the_prefix() {
    let build_dir = tmp_dir("trunc-build");
    let (bytes, last_start) = build_reference(&build_dir);
    let records = reference_records();
    let prefix_records = records.len() - 1;

    for cut in last_start..bytes.len() {
        let served = assert_recovers("truncate", cut, &bytes[..cut], prefix_records);
        // A cut strictly inside the last record can never serve it.
        assert!(
            !served[records.len() - 1],
            "truncate case {cut}: a torn record was served"
        );
        // The prefix is exactly preserved (asserted inside assert_recovers
        // via must_have; double-check the count here).
        assert_eq!(
            served.iter().filter(|&&s| s).count(),
            prefix_records,
            "truncate case {cut}: prefix not exactly recovered"
        );
    }
    // Cutting at the exact end is the intact file: everything served.
    let served = assert_recovers("truncate-full", bytes.len(), &bytes, records.len());
    assert!(served.iter().all(|&s| s));
    let _ = std::fs::remove_dir_all(&build_dir);
}

#[test]
fn bit_flips_at_every_byte_of_the_last_record_never_serve_corrupt_reports() {
    let build_dir = tmp_dir("flip-build");
    let (bytes, last_start) = build_reference(&build_dir);
    let records = reference_records();
    let prefix_records = records.len() - 1;

    for at in last_start..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[at] ^= 0x01;
        // `assert_recovers` enforces the two hard invariants for every flip:
        // the intact prefix survives, and anything served is byte-identical
        // to the reference — so a flipped last record is either rejected
        // outright or (impossible for a 1-bit flip under the checksum, but
        // the assertion stands regardless) served unchanged.
        let served = assert_recovers("bitflip", at, &mutated, prefix_records);
        assert!(
            !served[records.len() - 1],
            "bitflip case {at}: a checksum-violating record was served"
        );
    }
    let _ = std::fs::remove_dir_all(&build_dir);
}

#[test]
fn bit_flips_in_the_magic_line_are_refused_or_recovered_never_panicking() {
    let build_dir = tmp_dir("magic-build");
    let (bytes, _) = build_reference(&build_dir);

    for at in 0..MAGIC.len() {
        let mut mutated = bytes.clone();
        mutated[at] ^= 0x01;
        let dir = tmp_dir(&format!("magic-{at}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG_NAME), &mutated).unwrap();
        // A corrupted magic is a foreign-format file: the open refuses it
        // (InvalidData) and leaves the bytes alone. What it must never do is
        // panic or serve records out of an unidentified file.
        match VerdictStore::open(&dir, config()) {
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "magic case {at}");
                assert_eq!(
                    std::fs::read(dir.join(LOG_NAME)).unwrap(),
                    mutated,
                    "magic case {at}: a refused file was modified"
                );
            }
            Ok(store) => panic!(
                "magic case {at}: opened a corrupt-magic file with {} entries",
                store.stats().entries
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&build_dir);
}

#[test]
fn double_records_torn_together_still_recover_the_prefix() {
    // A crash can also tear *several* trailing appends (writes reordered by
    // the kernel are out of scope, but a lost tail spanning two records is
    // not): cut inside the second-to-last record and both must go.
    let build_dir = tmp_dir("double-build");
    let (bytes, last_start) = build_reference(&build_dir);
    let records = reference_records();

    // Find the start of the second-to-last record by rebuilding offsets.
    let dir = tmp_dir("double-offsets");
    let mut second_last_start = 0;
    {
        let mut store = VerdictStore::open(&dir, config()).unwrap();
        for (i, (key, states, report)) in records.iter().enumerate() {
            if i + 2 == records.len() {
                second_last_start = store.stats().file_bytes as usize;
            }
            store.put(*key, *states, report).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(second_last_start > 0 && second_last_start < last_start);

    for cut in [second_last_start + 1, second_last_start + 5, last_start - 1] {
        let served = assert_recovers("double", cut, &bytes[..cut], records.len() - 2);
        assert_eq!(served.iter().filter(|&&s| s).count(), records.len() - 2);
    }
    let _ = std::fs::remove_dir_all(&build_dir);
}
