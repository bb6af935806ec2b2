//! Differential property tests: the packed-key arena engine vs the
//! seed reference implementation, across random sequences, gap
//! requirements (including the degenerate `N == M`) and alphabets
//! (dense-table DNA, sparse-key protein, and an odd-sized custom set).

use perigap::core::naive::support_dp;
use perigap::core::pil::Pil;
use perigap::core::reference::{build_all_reference, mpp_reference};
use perigap::prelude::*;
use proptest::prelude::*;

/// Strategy: an alphabet whose size exercises all three seeding paths —
/// 4 (dense, 2 bits/symbol), 20 (dense at level 3, sparse higher), and
/// a 3-letter custom alphabet (non-power-of-two bit width).
fn alphabet() -> impl Strategy<Value = Alphabet> {
    (0u8..3).prop_map(|which| match which {
        0 => Alphabet::Dna,
        1 => Alphabet::Protein,
        _ => Alphabet::custom(b"xyz").unwrap(),
    })
}

/// Strategy: codes valid for any of the alphabets above (< 3 always).
fn codes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..3, 5..max_len)
}

/// Strategy: a gap requirement, biased to include `N == M`.
fn gap_req() -> impl Strategy<Value = (usize, usize)> {
    (0usize..4, 0usize..3).prop_map(|(n, w)| (n, n + w))
}

/// Strategy: one PIL entry count — mostly small, sometimes huge enough
/// that a handful of entries overflow `u64` when summed (the corner
/// where the join's running window sum saturates).
fn entry_count() -> impl Strategy<Value = u64> {
    (0u8..6, 1u64..1_000).prop_map(|(which, small)| match which {
        4 => u64::MAX / 3,
        5 => u64::MAX,
        _ => small,
    })
}

/// Strategy: arbitrary sorted-unique PIL entries over a narrow offset
/// range (so overlapping and disjoint windows both occur), including
/// empty.
fn pil_entries() -> impl Strategy<Value = Vec<(u32, u64)>> {
    collection::vec((0u32..300, entry_count()), 0..40).prop_map(|mut v| {
        v.sort_by_key(|&(x, _)| x);
        v.dedup_by_key(|e| e.0);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_seed_matches_reference(
        (alpha, codes, (n, m)) in (alphabet(), codes(60), gap_req())
    ) {
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        for level in 1..=4usize {
            let engine = Pil::build_all(&seq, gap, level);
            let reference = build_all_reference(&seq, gap, level);
            prop_assert_eq!(engine.len(), reference.len(), "level {}", level);
            for (pattern, pil) in &reference {
                prop_assert_eq!(engine.get(pattern), Some(pil), "level {}", level);
            }
        }
    }

    #[test]
    fn packed_seed_matches_dp_oracle(
        (alpha, codes, (n, m)) in (alphabet(), codes(40), gap_req())
    ) {
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        for level in 1..=3usize {
            for (pattern, pil) in &Pil::build_all(&seq, gap, level) {
                prop_assert_eq!(pil.support(), support_dp(&seq, gap, pattern));
            }
        }
    }

    #[test]
    fn degenerate_equal_gap_agrees(
        (alpha, codes, n) in (alphabet(), codes(50), 0usize..5)
    ) {
        // N == M: exactly one admissible step, so PILs collapse to
        // single-count entries and the join window has width one.
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, n).unwrap();
        let engine = Pil::build_all(&seq, gap, 3);
        let reference = build_all_reference(&seq, gap, 3);
        prop_assert_eq!(engine.len(), reference.len());
        for (pattern, pil) in &reference {
            prop_assert_eq!(engine.get(pattern), Some(pil));
        }
    }

    #[test]
    fn mined_frequent_sets_agree(
        (alpha, codes, (n, m), rho_scale, threads) in
            (alphabet(), codes(60), gap_req(), 1usize..40, 1usize..5)
    ) {
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let rho = rho_scale as f64 * 1e-4;
        let config = MppConfig::default();
        let old = mpp_reference(&seq, gap, rho, 8, config.clone(), threads);
        let new = mpp(&seq, gap, rho, 8, MppConfig { threads, ..config.clone() });
        // Sequences too short for a level-3 pattern under this gap are
        // rejected; both engines must agree on that too.
        prop_assert_eq!(old.is_ok(), new.is_ok());
        let Ok(old) = old else { return Ok(()) };
        let new = new.unwrap();
        prop_assert_eq!(old.frequent.len(), new.frequent.len());
        for (a, b) in old.frequent.iter().zip(&new.frequent) {
            prop_assert_eq!(&a.pattern, &b.pattern);
            prop_assert_eq!(a.support, b.support);
        }
        let serial = mpp(&seq, gap, rho, 8, config.clone()).unwrap();
        prop_assert_eq!(serial.frequent.len(), new.frequent.len());
        for (a, b) in serial.frequent.iter().zip(&new.frequent) {
            prop_assert_eq!(&a.pattern, &b.pattern);
            prop_assert_eq!(a.support, b.support);
        }
    }

    /// The join kernel against the paper's definition, summed
    /// directly: for each left offset `x`, the `u128` total of the
    /// suffix counts at offsets `x'` with `x' − x − 1 ∈ [N, M]`.
    #[test]
    fn join_matches_naive_window_sums(
        (a, partners, (n, m)) in (
            pil_entries(),
            collection::vec(pil_entries(), 1..6),
            gap_req(),
        )
    ) {
        let gap = GapRequirement::new(n, m).unwrap();
        let prefix = Pil::from_entries(a);
        for (j, b) in partners.into_iter().enumerate() {
            let oracle: Vec<(u32, u128)> = prefix
                .offsets()
                .iter()
                .map(|&x| {
                    let window = (x as u64 + n as u64 + 1)..=(x as u64 + m as u64 + 1);
                    let sum: u128 = b
                        .iter()
                        .filter(|&&(y, _)| window.contains(&(y as u64)))
                        .map(|&(_, c)| c as u128)
                        .sum();
                    (x, sum)
                })
                .filter(|&(_, sum)| sum > 0)
                .collect();
            let (joined, saturated) = Pil::join_checked(&prefix, &Pil::from_entries(b), gap);
            if oracle.iter().any(|&(_, sum)| sum > u64::MAX as u128) {
                prop_assert!(saturated, "partner {}: an overflowing window must raise the flag", j);
            }
            if !saturated {
                let got: Vec<(u32, u128)> =
                    joined.entries().map(|(x, y)| (x, y as u128)).collect();
                prop_assert_eq!(got, oracle, "partner {}", j);
            }
        }
    }

    /// The stats oracle: the engine at 1–4 threads against the
    /// breadth-first reference miner — frequent set, supports,
    /// `n_used`, saturation, and every level's candidate, frequent and
    /// extended counts.
    #[test]
    fn engine_agrees_with_reference_at_every_thread_count(
        (alpha, codes, (n, m), rho_scale, threads) in
            (alphabet(), codes(60), gap_req(), 1usize..40, 1usize..5)
    ) {
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let rho = rho_scale as f64 * 1e-4;
        let config = MppConfig::default();
        let reference = mpp_reference(&seq, gap, rho, 8, config.clone(), 1);
        let engine = mpp(&seq, gap, rho, 8, MppConfig { threads, ..config.clone() });
        prop_assert_eq!(reference.is_ok(), engine.is_ok());
        let Ok(reference) = reference else { return Ok(()) };
        let engine = engine.unwrap();
        prop_assert_eq!(reference.frequent.len(), engine.frequent.len());
        for (a, b) in reference.frequent.iter().zip(&engine.frequent) {
            prop_assert_eq!(&a.pattern, &b.pattern);
            prop_assert_eq!(a.support, b.support);
        }
        prop_assert_eq!(reference.stats.n_used, engine.stats.n_used);
        prop_assert_eq!(reference.stats.support_saturated, engine.stats.support_saturated);
        prop_assert_eq!(reference.stats.levels.len(), engine.stats.levels.len());
        for (a, b) in reference.stats.levels.iter().zip(&engine.stats.levels) {
            prop_assert_eq!(a.level, b.level);
            prop_assert_eq!(a.candidates, b.candidates, "level {}", a.level);
            prop_assert_eq!(a.frequent, b.frequent, "level {}", a.level);
            prop_assert_eq!(a.extended, b.extended, "level {}", a.level);
        }
    }
}

/// Everything observable except durations, arena bytes and the
/// physical diagnostics (spill and join counters) must be bit-identical
/// between two runs of the same mine — used by the spill differential.
fn assert_outcome_invariant(a: &MineOutcome, b: &MineOutcome, label: &str) {
    assert_eq!(a.frequent.len(), b.frequent.len(), "{label}");
    for (x, y) in a.frequent.iter().zip(&b.frequent) {
        assert_eq!(x.pattern, y.pattern, "{label}");
        assert_eq!(x.support, y.support, "{label}");
    }
    assert_eq!(a.stats.n_used, b.stats.n_used, "{label}");
    assert_eq!(a.stats.em, b.stats.em, "{label}");
    assert_eq!(
        a.stats.support_saturated, b.stats.support_saturated,
        "{label}"
    );
    assert_eq!(a.stats.levels.len(), b.stats.levels.len(), "{label}");
    for (x, y) in a.stats.levels.iter().zip(&b.stats.levels) {
        assert_eq!(x.level, y.level, "{label}");
        assert_eq!(x.candidates, y.candidates, "{label} level {}", x.level);
        assert_eq!(x.frequent, y.frequent, "{label} level {}", x.level);
        assert_eq!(x.extended, y.extended, "{label} level {}", x.level);
    }
}

/// A pruned outcome must carry exactly `expect` — patterns, supports,
/// and bit-identical ratios — in exactly the expected order.
fn assert_pruned_equal(
    expect: &[FrequentPattern],
    got: &MineOutcome,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(expect.len(), got.frequent.len(), "{}", label);
    for (x, y) in expect.iter().zip(&got.frequent) {
        prop_assert_eq!(&x.pattern, &y.pattern, "{}", label);
        prop_assert_eq!(x.support, y.support, "{}", label);
        prop_assert_eq!(x.ratio.to_bits(), y.ratio.to_bits(), "{}", label);
    }
    Ok(())
}

// The pruning differential runs a dozen mines per case (top-k and
// targeted, serial and pooled, with and without a spill ceiling),
// so it gets a small case budget. Pruned mining is an output
// contract: whatever the gap regime (rigid `W == 1`, where the
// rising floor prunes the search itself, or flexible `W > 1`, where
// only emission is gated), thread count, or memory ceiling,
// the outcome must be bit-identical to post-filtering the full mine.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn topk_and_targeted_pruning_match_post_filtering(
        (alpha, codes, (n, m), rho_scale, k, mask_bits) in (
            alphabet(),
            codes(60),
            gap_req(), // biased toward N == M: both floor regimes occur
            1usize..40,
            1usize..12,
            1u8..8, // symbol mask over codes {0, 1, 2}; never empty
        )
    ) {
        use perigap::core::mppm::mppm;
        use perigap::core::spill::{MemSpillIo, SpillIo};
        use perigap::core::{select_top_k, PruneMode, TargetSpec};
        use std::sync::Arc;

        let alpha_size = alpha.size();
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let rho = rho_scale as f64 * 1e-4;
        let cfg = MppConfig::default();

        // Top-k: every thread count must reproduce `select_top_k` over
        // the full mine — same rank order, same truncation, same ratios.
        let full = mpp(&seq, gap, rho, 8, cfg.clone());
        let topk_cfg = MppConfig {
            prune: PruneMode::top_k(k),
            ..cfg.clone()
        };
        let topk = mpp(&seq, gap, rho, 8, topk_cfg.clone());
        prop_assert_eq!(full.is_ok(), topk.is_ok());
        let Ok(full) = full else { return Ok(()) };
        let topk = topk.unwrap();
        prop_assert_eq!(topk.stats.top_k, Some(k));
        let expect_topk = select_top_k(&full.frequent, k);
        assert_pruned_equal(&expect_topk, &topk, "top-k serial")?;
        let par = mpp(&seq, gap, rho, 8, MppConfig { threads: 3, ..topk_cfg.clone() }).unwrap();
        assert_pruned_equal(&expect_topk, &par, "top-k parallel")?;

        // Under a memory ceiling the floor drops spilled components
        // outright instead of restoring them; the outcome must not
        // move.
        let spill_cfg = MppConfig {
            max_arena_bytes: Some(1 << 30),
            spill_watermark: 0.5,
            spill: Some(Arc::new(MemSpillIo::default()) as Arc<dyn SpillIo>),
            ..topk_cfg.clone()
        };
        let spilled = mpp(&seq, gap, rho, 8, MppConfig { threads: 2, ..spill_cfg }).unwrap();
        assert_pruned_equal(&expect_topk, &spilled, "top-k spill")?;

        // Prefix target: emission-filtered only (the self-join needs
        // every window), canonical order preserved.
        let target_cfg = |spec: &TargetSpec| MppConfig {
            prune: PruneMode::targeted(spec.clone()),
            ..cfg.clone()
        };
        let prefix_codes: Vec<u8> = full
            .frequent
            .first()
            .map(|f| f.pattern.codes()[..f.pattern.len().min(2)].to_vec())
            .unwrap_or_else(|| vec![0]);
        let prefix = TargetSpec::prefix(prefix_codes);
        let expect_prefix: Vec<FrequentPattern> = full
            .frequent
            .iter()
            .filter(|f| prefix.admits_pattern(f.pattern.codes()))
            .cloned()
            .collect();
        let run = mpp(&seq, gap, rho, 8, target_cfg(&prefix)).unwrap();
        assert_pruned_equal(&expect_prefix, &run, "prefix serial")?;
        let run = mpp(&seq, gap, rho, 8, MppConfig { threads: 2, ..target_cfg(&prefix) }).unwrap();
        assert_pruned_equal(&expect_prefix, &run, "prefix parallel")?;

        // Symbol-set target: window-closed, so whole cones are cut —
        // yet the mined set must still equal masking the full mine.
        let allowed: Vec<u8> = (0u8..3).filter(|c| mask_bits >> c & 1 == 1).collect();
        let symbols = TargetSpec::symbols(&allowed, alpha_size);
        let expect_sym: Vec<FrequentPattern> = full
            .frequent
            .iter()
            .filter(|f| symbols.admits_pattern(f.pattern.codes()))
            .cloned()
            .collect();
        let run = mpp(&seq, gap, rho, 8, target_cfg(&symbols)).unwrap();
        assert_pruned_equal(&expect_sym, &run, "symbols serial")?;
        let run = mpp(&seq, gap, rho, 8, MppConfig { threads: 3, ..target_cfg(&symbols) }).unwrap();
        assert_pruned_equal(&expect_sym, &run, "symbols parallel")?;

        // Combined: the floor only ever counts target-admitted
        // patterns, so target-then-top-k is the composition.
        let combined = MppConfig {
            prune: PruneMode {
                top_k: Some(k),
                target: Some(symbols.clone()),
            },
            ..cfg.clone()
        };
        let expect_combined = select_top_k(&expect_sym, k);
        let run = mpp(&seq, gap, rho, 8, combined).unwrap();
        assert_pruned_equal(&expect_combined, &run, "combined")?;

        // The multi-sequence-normalized engine honors the same
        // contract.
        let full_m = mppm(&seq, gap, rho, 4, cfg.clone());
        let topk_m = mppm(
            &seq,
            gap,
            rho,
            4,
            MppConfig {
                prune: PruneMode::top_k(k),
                ..cfg
            },
        );
        prop_assert_eq!(full_m.is_ok(), topk_m.is_ok());
        if let Ok(full_m) = full_m {
            let expect_m = select_top_k(&full_m.frequent, k);
            assert_pruned_equal(&expect_m, &topk_m.unwrap(), "top-k mppm")?;
        }
    }
}

// The spill differential runs three full mines per engine per case, so
// it gets its own smaller case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spilling_never_changes_the_mined_outcome(
        (alpha, codes, (n, m), rho_scale, watermark) in (
            alphabet(),
            codes(60),
            gap_req(),
            1usize..40,
            (0u8..3).prop_map(|w| match w {
                0 => 0.0f64,
                1 => 0.5,
                _ => 1.0,
            }),
        )
    ) {
        use perigap::core::spill::{MemSpillIo, SpillIo};
        use perigap::core::trace::MetricsObserver;
        use std::sync::Arc;

        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let rho = rho_scale as f64 * 1e-4;
        let unbounded_cfg = MppConfig::default();
        let spill_cfg = |cap: usize| MppConfig {
            max_arena_bytes: Some(cap),
            spill_watermark: watermark,
            spill: Some(Arc::new(MemSpillIo::default()) as Arc<dyn SpillIo>),
            ..MppConfig::default()
        };

        for threads in [1usize, 2] {
            let free = mpp(&seq, gap, rho, 8, MppConfig { threads, ..unbounded_cfg.clone() });
            let spill = mpp(&seq, gap, rho, 8, MppConfig { threads, ..spill_cfg(1 << 30) });
            prop_assert_eq!(free.is_ok(), spill.is_ok());
            if let Ok(free) = free {
                assert_outcome_invariant(&free, &spill.unwrap(), &format!("mpp {threads}t"));
            }

            let free_m = mppm(&seq, gap, rho, 4, MppConfig { threads, ..unbounded_cfg.clone() });
            let spill_m = mppm(&seq, gap, rho, 4, MppConfig { threads, ..spill_cfg(1 << 30) });
            prop_assert_eq!(free_m.is_ok(), spill_m.is_ok());
            if let Ok(free_m) = free_m {
                assert_outcome_invariant(&free_m, &spill_m.unwrap(), &format!("mppm {threads}t"));
            }
        }

        // Tiny cap: single-threaded, capped at exactly the peak the
        // spilling run itself reports — it must still complete, with
        // the same outcome.
        let mut metrics = MetricsObserver::new();
        let mpp8 = Algorithm::Mpp { n: 8 };
        let traced = mine(&seq, gap, rho, mpp8, &spill_cfg(1 << 30), &mut metrics);
        if let Ok(traced) = traced {
            let peak = metrics.complete.as_ref().unwrap().peak_arena_bytes.max(1);
            let tiny = mpp(&seq, gap, rho, 8, spill_cfg(peak)).unwrap();
            assert_outcome_invariant(&traced, &tiny, "tiny cap");
        }
    }
}
