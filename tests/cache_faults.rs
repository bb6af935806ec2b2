//! Fault injection for the incremental result cache: whatever happens
//! to the record on disk — truncation at any byte, flipped bits, a
//! record seeded from a different sequence, a stale configuration key,
//! a record in a retired format version, or a re-signed record whose
//! counts or pattern order were forged — the loader must fail with
//! a **typed** `MineError` and `mine_incremental` must recover with a
//! cold mine whose answer is bit-identical to a healthy run. It must
//! never serve a wrong or partial pattern set. Concurrent writers to
//! one record path must all succeed.

use perigap::core::trace::NoopObserver;
use perigap::core::{
    load_result_cache, mine_incremental, write_result_cache, IncrementalMode, IncrementalOutcome,
};
use perigap::prelude::*;
use std::path::{Path, PathBuf};

fn cache_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("pginc-fault-{}-{name}.pgrc", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

// Small on purpose: the truncation test rewrites the record once per
// byte, so the subject is sized to keep the record at a few KB.
fn subject() -> (Sequence, GapRequirement, f64, Algorithm) {
    let seq = Sequence::dna(&"ACGTT".repeat(30)).unwrap();
    let gap = GapRequirement::new(1, 1).unwrap();
    (seq, gap, 0.02, Algorithm::Mpp { n: 4 })
}

fn run(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: &Algorithm,
    cache: &Path,
) -> IncrementalOutcome {
    mine_incremental(
        seq,
        gap,
        rho,
        *algorithm,
        &MppConfig::default(),
        cache,
        &mut NoopObserver,
    )
    .unwrap()
}

/// Seed a healthy record and return its bytes plus the healthy outcome.
fn seeded(cache: &Path) -> (Vec<u8>, MineOutcome) {
    let (seq, gap, rho, engine) = subject();
    let out = run(&seq, gap, rho, &engine, cache);
    assert_eq!(out.mode, IncrementalMode::Cold);
    (std::fs::read(cache).unwrap(), out.outcome)
}

/// A faulted run must record a typed fault, mine cold, and answer
/// exactly what the healthy run answered.
fn assert_recovers(cache: &Path, healthy: &MineOutcome, label: &str) {
    let (seq, gap, rho, engine) = subject();
    let out = run(&seq, gap, rho, &engine, cache);
    assert_eq!(out.mode, IncrementalMode::Cold, "{label}: recovery is cold");
    let fault = out
        .cache_fault
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: the fault must be recorded"));
    assert!(
        matches!(
            fault,
            MineError::CacheIo { .. } | MineError::CacheMismatch { .. }
        ),
        "{label}: expected a typed cache error, got {fault:?}"
    );
    assert_eq!(
        out.outcome.frequent, healthy.frequent,
        "{label}: a recovered run must not lie"
    );
    // Recovery reseeds the record: the next run serves it cleanly.
    let again = run(&seq, gap, rho, &engine, cache);
    assert_eq!(again.mode, IncrementalMode::Cached, "{label}: reseeded");
    assert_eq!(again.outcome.frequent, healthy.frequent);
}

/// Truncating the record at any byte is a typed `CacheIo`, never a
/// partial answer.
#[test]
fn truncation_at_every_byte_is_typed() {
    let cache = cache_path("truncate");
    let (bytes, healthy) = seeded(&cache);
    for keep in 0..bytes.len() {
        std::fs::write(&cache, &bytes[..keep]).unwrap();
        match load_result_cache(&cache) {
            Err(MineError::CacheIo { .. }) => {}
            Err(other) => panic!("truncated at {keep}: expected CacheIo, got {other:?}"),
            Ok(_) => panic!("truncated at {keep}: a short record must not decode"),
        }
    }
    // The full recovery path, spot-checked at the header, the payload
    // and just short of the checksum trailer.
    for keep in [0, 3, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&cache, &bytes[..keep]).unwrap();
        assert_recovers(&cache, &healthy, &format!("truncated at {keep}"));
    }
    let _ = std::fs::remove_file(&cache);
}

/// Any single flipped bit trips the checksum (or magic) — typed, and
/// recovered by a cold mine.
#[test]
fn flipped_bits_are_typed_and_recovered() {
    let cache = cache_path("bitflip");
    let (bytes, healthy) = seeded(&cache);
    // Every eighth byte keeps the sweep cheap while still crossing the
    // magic, header, payload and trailer regions.
    for pos in (0..bytes.len()).step_by(8).chain([bytes.len() - 1]) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        std::fs::write(&cache, &corrupt).unwrap();
        match load_result_cache(&cache) {
            Err(MineError::CacheIo { .. }) => {}
            Err(other) => panic!("flip at {pos}: expected CacheIo, got {other:?}"),
            Ok(_) => panic!("flip at {pos}: a corrupt record must not decode"),
        }
    }
    let mid = bytes.len() / 2;
    let mut corrupt = bytes.clone();
    corrupt[mid] ^= 0x10;
    std::fs::write(&cache, &corrupt).unwrap();
    assert_recovers(&cache, &healthy, "bit flip");
    let _ = std::fs::remove_file(&cache);
}

/// A record seeded from a *different* sequence of the same length is a
/// typed `CacheMismatch` on the prefix hash — the stale answer must not
/// be served, and must not poison the delta path.
#[test]
fn hash_mismatched_sequence_is_a_typed_mismatch() {
    let cache = cache_path("seqhash");
    let (_, _, rho, engine) = subject();
    let gap = GapRequirement::new(1, 1).unwrap();
    let other = Sequence::dna(&"TTGCA".repeat(30)).unwrap();
    let out = run(&other, gap, rho, &engine, &cache);
    assert_eq!(out.mode, IncrementalMode::Cold);

    let (seq, gap, rho, engine) = subject();
    let out = run(&seq, gap, rho, &engine, &cache);
    match &out.cache_fault {
        Some(MineError::CacheMismatch { field, .. }) => {
            assert!(
                field.contains("hash") || field.contains("prefix"),
                "wrong field: {field}"
            );
        }
        other => panic!("expected CacheMismatch, got {other:?}"),
    }
    let cold = mpp(&seq, gap, rho, 4, MppConfig::default()).unwrap();
    assert_eq!(out.outcome.frequent, cold.frequent, "must not lie");
    let _ = std::fs::remove_file(&cache);
}

/// Every configuration axis in the key invalidates independently: the
/// same sequence re-mined under a different gap, threshold, algorithm
/// or engine parameter is a typed `CacheMismatch` naming the drifted
/// field.
#[test]
fn stale_config_keys_name_the_drifted_field() {
    let cache = cache_path("stalekey");
    let (seq, gap, rho, engine) = subject();
    seeded(&cache);

    let reseed = |cache: &Path| {
        let _ = std::fs::remove_file(cache);
        let out = run(&seq, gap, rho, &engine, cache);
        assert_eq!(out.mode, IncrementalMode::Cold);
    };

    // Gap requirement.
    let out = run(
        &seq,
        GapRequirement::new(2, 2).unwrap(),
        rho,
        &engine,
        &cache,
    );
    match &out.cache_fault {
        Some(MineError::CacheMismatch { field, .. }) => assert_eq!(*field, "gap requirement"),
        other => panic!("gap: expected CacheMismatch, got {other:?}"),
    }

    // Support threshold.
    reseed(&cache);
    let out = run(&seq, gap, rho * 2.0, &engine, &cache);
    match &out.cache_fault {
        Some(MineError::CacheMismatch { field, .. }) => assert_eq!(*field, "support threshold"),
        other => panic!("rho: expected CacheMismatch, got {other:?}"),
    }

    // Algorithm (mpp -> mppm): the cold re-mine must answer exactly
    // what a plain MPPm mine does.
    reseed(&cache);
    let out = run(&seq, gap, rho, &Algorithm::Mppm { m: 4 }, &cache);
    match &out.cache_fault {
        Some(MineError::CacheMismatch { field, .. }) => assert_eq!(*field, "algorithm"),
        other => panic!("algorithm: expected CacheMismatch, got {other:?}"),
    }
    let cold_mppm = perigap::core::mppm::mppm(&seq, gap, rho, 4, MppConfig::default()).unwrap();
    assert_eq!(out.outcome.frequent, cold_mppm.frequent, "must not lie");

    // Engine parameter (n drift).
    reseed(&cache);
    let out = run(&seq, gap, rho, &Algorithm::Mpp { n: 5 }, &cache);
    match &out.cache_fault {
        Some(MineError::CacheMismatch { field, .. }) => assert_eq!(*field, "engine parameter"),
        other => panic!("param: expected CacheMismatch, got {other:?}"),
    }

    let _ = std::fs::remove_file(&cache);
}

/// 64-bit FNV-1a, the PGST record digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |state, &b| {
        (state ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Byte offsets into a version-3 record: the header (magic, version,
/// tag), then the key through the algorithm byte, then through the
/// engine parameter, then the outcome's pattern count (after the prune
/// flag, the level window, `n_used`, `e_m` and the saturation flag).
const VERSION_AT: usize = 4;
const ALGORITHM_END: usize = 4 + 4 + 1 + 8 + 8 + 4 + 4 + 4 + 8 + 1;
const PARAM_END: usize = ALGORITHM_END + 8;
const PATTERN_COUNT_AT: usize = PARAM_END + 1 + 4 + 8 + 8 + 8 + 1;

/// Rewrite a healthy version-3 record into an older layout: stamp
/// `version`, insert `engine` after the algorithm byte and `after_param`
/// after the engine parameter, and re-sign it.
fn older_record(bytes: &[u8], version: u32, after_param: &[u8]) -> Vec<u8> {
    let body = &bytes[..bytes.len() - 8];
    let mut old = body[..ALGORITHM_END].to_vec();
    old[VERSION_AT..VERSION_AT + 4].copy_from_slice(&version.to_le_bytes());
    old.push(1); // engine = dfs
    old.extend_from_slice(&body[ALGORITHM_END..PARAM_END]);
    old.extend_from_slice(after_param);
    old.extend_from_slice(&body[PARAM_END..]);
    let digest = fnv1a(&old);
    old.extend_from_slice(&digest.to_le_bytes());
    old
}

/// A version-1 record (the format that still carried the engine byte
/// and the PIL-layout and kernel key bytes) is refused as a typed
/// `CacheIo` naming the version, and recovered by a cold mine.
#[test]
fn version_one_record_is_refused_and_recovered() {
    let cache = cache_path("version1");
    let (bytes, healthy) = seeded(&cache);
    std::fs::write(&cache, older_record(&bytes, 1, &[0, 0])).unwrap();
    match load_result_cache(&cache) {
        Err(MineError::CacheIo { message, .. }) => {
            assert!(message.contains("unsupported version 1"), "{message}");
        }
        other => panic!("expected CacheIo for a version-1 record, got {other:?}"),
    }
    assert_recovers(&cache, &healthy, "version-1 record");
    let _ = std::fs::remove_file(&cache);
}

/// A version-2 record (the format whose key still carried the engine
/// byte) is refused as a typed `CacheIo` naming the version, and
/// recovered by a cold mine.
#[test]
fn version_two_record_is_refused_and_recovered() {
    let cache = cache_path("version2");
    let (bytes, healthy) = seeded(&cache);
    std::fs::write(&cache, older_record(&bytes, 2, &[])).unwrap();
    match load_result_cache(&cache) {
        Err(MineError::CacheIo { message, .. }) => {
            assert!(message.contains("unsupported version 2"), "{message}");
        }
        other => panic!("expected CacheIo for a version-2 record, got {other:?}"),
    }
    assert_recovers(&cache, &healthy, "version-2 record");
    let _ = std::fs::remove_file(&cache);
}

/// Byte offset of the level-map flag in a version-3 record: just past
/// the outcome.
fn level_flag_at(bytes: &[u8]) -> usize {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut at = PATTERN_COUNT_AT;
    let patterns = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    at += 8;
    for _ in 0..patterns {
        at += 4 + u32_at(at) as usize + 16 + 8;
    }
    at
}

/// Replace `bytes[at..at + cut]` with `insert` and re-sign the record.
fn resigned(bytes: &[u8], at: usize, cut: usize, insert: &[u8]) -> Vec<u8> {
    let body = &bytes[..bytes.len() - 8];
    let mut out = body[..at].to_vec();
    out.extend_from_slice(insert);
    out.extend_from_slice(&body[at + cut..]);
    let digest = fnv1a(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// A re-signed record whose level-map count claims `u32::MAX` levels is
/// refused as a typed `CacheIo` before anything is allocated for them,
/// and recovered by a cold mine.
#[test]
fn forged_level_count_is_refused_and_recovered() {
    let cache = cache_path("levelcount");
    let (bytes, healthy) = seeded(&cache);
    let flag = level_flag_at(&bytes);
    assert_eq!(bytes[flag], 1, "a rigid-gap record carries level maps");
    std::fs::write(
        &cache,
        resigned(&bytes, flag + 1, 4, &u32::MAX.to_le_bytes()),
    )
    .unwrap();
    match load_result_cache(&cache) {
        Err(MineError::CacheIo { message }) => {
            assert!(message.contains("level count"), "{message}");
        }
        other => panic!("expected CacheIo for a forged level count, got {other:?}"),
    }
    assert_recovers(&cache, &healthy, "forged level count");
    let _ = std::fs::remove_file(&cache);
}

/// A re-signed record that repeats an outcome pattern breaks the strict
/// (length, codes) order and is refused: merged, it would vote twice.
#[test]
fn repeated_outcome_pattern_is_refused_and_recovered() {
    let cache = cache_path("repeated");
    let (bytes, healthy) = seeded(&cache);
    let count_at = PATTERN_COUNT_AT;
    let first_at = count_at + 8;
    let first_len = u32::from_le_bytes(bytes[first_at..first_at + 4].try_into().unwrap());
    let first = &bytes[first_at..first_at + 4 + first_len as usize + 16 + 8];
    let count = u64::from_le_bytes(bytes[count_at..count_at + 8].try_into().unwrap());
    let mut forged = resigned(&bytes, first_at, 0, first);
    forged = resigned(&forged, count_at, 8, &(count + 1).to_le_bytes());
    std::fs::write(&cache, &forged).unwrap();
    match load_result_cache(&cache) {
        Err(MineError::CacheIo { message }) => {
            assert!(message.contains("order"), "{message}");
        }
        other => panic!("expected CacheIo for a repeated pattern, got {other:?}"),
    }
    assert_recovers(&cache, &healthy, "repeated pattern");
    let _ = std::fs::remove_file(&cache);
}

/// Writers racing on one record path — e.g. two incremental mines
/// sharing a cache — must all succeed, and the surviving record
/// must load whole. A barrier lines the writers up before every round so
/// their create/write/rename sequences overlap.
#[test]
fn concurrent_writers_to_one_path_all_succeed() {
    const WRITERS: usize = 4;
    let cache = cache_path("concurrent");
    seeded(&cache);
    let record = load_result_cache(&cache).unwrap();
    let barrier = std::sync::Barrier::new(WRITERS);
    // Failures are collected, not panicked on: a writer that stopped
    // early would leave the others waiting at the barrier forever.
    let failures: Vec<String> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                s.spawn(|| {
                    (0..200)
                        .filter_map(|round| {
                            barrier.wait();
                            write_result_cache(&cache, &record)
                                .err()
                                .map(|e| format!("round {round}: {e}"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        writers
            .into_iter()
            .flat_map(|w| w.join().expect("writer thread"))
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} of {} writes failed, first: {}",
        failures.len(),
        WRITERS * 200,
        failures[0]
    );
    assert_eq!(load_result_cache(&cache).unwrap(), record);
    let _ = std::fs::remove_file(&cache);
}
