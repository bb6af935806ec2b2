//! Differential battery for incremental re-mining: whatever path
//! `mine_incremental` takes — served from cache, suffix-window delta
//! merge, or a cold fall-back — the outcome must be **bit-identical**
//! to a cold mine of the same sequence: same patterns in the same
//! order, same supports, same ratio bits, same saturation flag.
//!
//! The matrix crosses algorithms (mpp/mppm), thread counts (1–4) and
//! append lengths (0, 1, and longer than the base sequence).

use perigap::core::trace::NoopObserver;
use perigap::core::{mine_incremental, IncrementalMode, IncrementalOutcome};
use perigap::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

/// Scratch cache path, cleared of any stale record from a previous run.
fn cache_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("pginc-prop-{}-{name}.pgrc", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The cold reference for one configuration, through the same dispatch
/// the incremental path falls back to.
fn cold_mine(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: &Algorithm,
    config: &MppConfig,
    threads: usize,
) -> MineOutcome {
    let config = MppConfig {
        threads,
        ..config.clone()
    };
    mine(seq, gap, rho, *algorithm, &config, &mut NoopObserver).unwrap()
}

fn incremental_mine(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: &Algorithm,
    config: &MppConfig,
    threads: usize,
    cache: &std::path::Path,
) -> IncrementalOutcome {
    let config = MppConfig {
        threads,
        ..config.clone()
    };
    mine_incremental(seq, gap, rho, *algorithm, &config, cache, &mut NoopObserver).unwrap()
}

/// Bit-identity: every field the paper's answer consists of.
fn assert_identical(label: &str, cold: &MineOutcome, inc: &MineOutcome) {
    assert_eq!(
        cold.frequent.len(),
        inc.frequent.len(),
        "{label}: pattern count"
    );
    for (c, i) in cold.frequent.iter().zip(inc.frequent.iter()) {
        assert_eq!(c.pattern.codes(), i.pattern.codes(), "{label}: rank order");
        assert_eq!(
            c.support,
            i.support,
            "{label}: support of {:?}",
            c.pattern.codes()
        );
        assert_eq!(
            c.ratio.to_bits(),
            i.ratio.to_bits(),
            "{label}: ratio bits of {:?}",
            c.pattern.codes()
        );
    }
    assert_eq!(
        cold.stats.support_saturated, inc.stats.support_saturated,
        "{label}: saturation flag"
    );
}

/// The full configuration matrix over a rigid gap: cold-seed the cache
/// on the base sequence, then re-mine each append length and compare
/// against a cold mine of the appended sequence.
#[test]
fn incremental_is_bit_identical_across_the_engine_matrix() {
    let base = "ACGTT".repeat(40); // 200 symbols
    let appends: [(&str, String); 3] = [
        ("append-0", String::new()),
        ("append-1", "G".to_string()),
        ("append-long", "TTACG".repeat(52)), // 260 > 200
    ];
    let gap = GapRequirement::new(2, 2).unwrap();
    let rho = 0.02;
    let engines = [Algorithm::Mpp { n: 6 }, Algorithm::Mppm { m: 3 }];
    let config = MppConfig::default();
    let mut combo = 0usize;
    for engine in &engines {
        for threads in 1usize..=4 {
            let cache = cache_path(&format!("matrix-{combo}"));
            combo += 1;
            let base_seq = Sequence::dna(&base).unwrap();
            let seeded = incremental_mine(&base_seq, gap, rho, engine, &config, threads, &cache);
            assert_eq!(seeded.mode, IncrementalMode::Cold, "first run seeds");
            let cold_base = cold_mine(&base_seq, gap, rho, engine, &config, threads);
            assert_identical("seed run", &cold_base, &seeded.outcome);

            for (name, suffix) in &appends {
                let grown = Sequence::dna(&format!("{base}{suffix}")).unwrap();
                let label = format!("{engine:?} threads={threads} {name}");
                let inc = incremental_mine(&grown, gap, rho, engine, &config, threads, &cache);
                let cold = cold_mine(&grown, gap, rho, engine, &config, threads);
                assert_identical(&label, &cold, &inc.outcome);
                if suffix.is_empty() {
                    assert_eq!(
                        inc.mode,
                        IncrementalMode::Cached,
                        "{label}: unchanged sequence serves the cache"
                    );
                } else {
                    // mpp with a pinned n must take the delta
                    // path; mppm may legitimately fall back when
                    // its estimated n drifts with the append.
                    match (engine, &inc.mode) {
                        (Algorithm::Mpp { .. }, mode) => {
                            assert_eq!(
                                *mode,
                                IncrementalMode::Incremental(suffix.len()),
                                "{label}: rigid-gap append delta-mines"
                            )
                        }
                        (_, IncrementalMode::Cold) => {
                            panic!("{label}: a valid cache must not read as missing")
                        }
                        _ => {}
                    }
                }
                // Every append re-runs against the *base* cache:
                // reseed so the next append length starts from
                // the same baseline.
                let reseed =
                    incremental_mine(&base_seq, gap, rho, engine, &config, threads, &cache);
                assert_identical("reseed", &cold_base, &reseed.outcome);
            }
            let _ = std::fs::remove_file(&cache);
        }
    }
}

/// Flexible gaps (W > 1) can extend old-region chains on append, so the
/// fast path must refuse and the fall-back must still be bit-identical.
#[test]
fn flexible_gap_appends_fall_back_cold_and_stay_identical() {
    let base = "ACGTT".repeat(40);
    let gap = GapRequirement::new(1, 3).unwrap();
    let rho = 0.02;
    let engine = Algorithm::Mpp { n: 6 };
    let config = MppConfig::default();
    let cache = cache_path("flexible");
    let base_seq = Sequence::dna(&base).unwrap();
    incremental_mine(&base_seq, gap, rho, &engine, &config, 1, &cache);
    let grown = Sequence::dna(&format!("{base}ACGTTACGTT")).unwrap();
    let inc = incremental_mine(&grown, gap, rho, &engine, &config, 1, &cache);
    assert_eq!(inc.mode.label(), "cold-fallback");
    let cold = cold_mine(&grown, gap, rho, &engine, &config, 1);
    assert_identical("flexible fall-back", &cold, &inc.outcome);
    // The diff against the cached baseline is still emitted.
    let diff = inc
        .diff
        .expect("fall-back still diffs against the baseline");
    assert_eq!(
        diff.stats.new + diff.stats.changed + diff.stats.unchanged,
        cold.frequent.len(),
        "every fresh pattern is accounted for"
    );
    let _ = std::fs::remove_file(&cache);
}

/// A support-threshold crossing in both directions across the append:
/// patterns leaving and entering the frequent set are exactly those a
/// cold mine reports.
#[test]
fn threshold_crossings_diff_exactly() {
    // 120 C's with seven spaced ACG triples worth of A's: appending a
    // long G run raises every N_l, pushing marginal patterns out while
    // pulling G-runs in.
    let mut base = vec![b'C'; 120];
    for k in 0..7 {
        base[k * 15] = b'T';
        base[k * 15 + 3] = b'T';
        base[k * 15 + 6] = b'T';
    }
    let base = String::from_utf8(base).unwrap();
    let gap = GapRequirement::new(2, 2).unwrap();
    let rho = 0.055;
    let engine = Algorithm::Mpp { n: 4 };
    let config = MppConfig::default();
    let cache = cache_path("crossing");
    let base_seq = Sequence::dna(&base).unwrap();
    incremental_mine(&base_seq, gap, rho, &engine, &config, 1, &cache);
    let grown = Sequence::dna(&format!("{}{}", base, "G".repeat(60))).unwrap();
    let inc = incremental_mine(&grown, gap, rho, &engine, &config, 1, &cache);
    assert_eq!(inc.mode, IncrementalMode::Incremental(60));
    let cold = cold_mine(&grown, gap, rho, &engine, &config, 1);
    assert_identical("threshold crossing", &cold, &inc.outcome);
    let diff = inc.diff.expect("delta path diffs against the baseline");
    assert!(diff.stats.new > 0, "G-runs must enter the frequent set");
    assert!(diff.stats.dropped > 0, "diluted patterns must leave");
    let _ = std::fs::remove_file(&cache);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized differential: any base sequence, any rigid gap, any
    /// append — the incremental outcome equals the cold one.
    #[test]
    fn random_rigid_appends_match_cold(
        (base, extra, stride, case) in (
            proptest::collection::vec(0u8..4, 20..120),
            proptest::collection::vec(0u8..4, 0..40),
            1usize..4,
            0usize..1_000_000,
        )
    ) {
        let gap = GapRequirement::new(stride, stride).unwrap();
        let rho = 0.03;
        let engine = Algorithm::Mpp { n: 5 };
        let config = MppConfig::default();
        let cache = cache_path(&format!("rand-{case}"));
        let base_seq = Sequence::from_codes(Alphabet::Dna, base.clone()).unwrap();
        incremental_mine(&base_seq, gap, rho, &engine, &config, 1, &cache);
        let mut grown_codes = base;
        grown_codes.extend_from_slice(&extra);
        let grown = Sequence::from_codes(Alphabet::Dna, grown_codes).unwrap();
        let inc = incremental_mine(&grown, gap, rho, &engine, &config, 1, &cache);
        let cold = cold_mine(&grown, gap, rho, &engine, &config, 1);
        prop_assert_eq!(&cold.frequent, &inc.outcome.frequent);
        prop_assert_eq!(
            cold.stats.support_saturated,
            inc.outcome.stats.support_saturated
        );
        if extra.is_empty() {
            prop_assert_eq!(inc.mode, IncrementalMode::Cached);
        } else {
            prop_assert_eq!(inc.mode, IncrementalMode::Incremental(extra.len()));
        }
        let _ = std::fs::remove_file(&cache);
    }
}
