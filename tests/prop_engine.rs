//! Differential property tests: the arena engine vs the seed reference
//! implementation, across random sequences, gap requirements (including
//! the degenerate `N == M`) and alphabets. The seed properties draw
//! every code of DNA, protein, a 3-letter and a 255-letter custom
//! alphabet; the mining properties draw codes 0..3 of each.

use perigap::core::naive::support_dp;
use perigap::core::pil::{Pil, WindowTable};
use perigap::core::reference::{build_all_reference, mpp_reference};
use perigap::prelude::*;
use proptest::prelude::*;

/// Strategy: DNA, protein, or a 3-letter custom alphabet.
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

/// Strategy: a sequence over the alphabets above or a 255-letter custom
/// one, drawing codes from the alphabet's whole range.
fn sequence(max_len: usize) -> impl Strategy<Value = Sequence> {
    let wide = Alphabet::custom(&(0..=254).collect::<Vec<u8>>()).unwrap();
    (0u8..4)
        .prop_map(move |which| match which {
            0 => Alphabet::Dna,
            1 => Alphabet::Protein,
            2 => Alphabet::custom(b"xyz").unwrap(),
            _ => wide.clone(),
        })
        .prop_flat_map(move |alpha| {
            let sigma = alpha.size() as u8;
            collection::vec(0..sigma, 5..max_len)
                .prop_map(move |codes| Sequence::from_codes(alpha.clone(), codes).unwrap())
        })
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
    fn seed_matches_reference((seq, (n, m)) in (sequence(60), gap_req())) {
        let gap = GapRequirement::new(n, m).unwrap();
        for level in 1..=5usize {
            let engine = Pil::build_all(&seq, gap, level);
            let reference = build_all_reference(&seq, gap, level);
            prop_assert_eq!(engine.len(), reference.len(), "level {}", level);
            for (pattern, pil) in &reference {
                prop_assert_eq!(engine.get(pattern), Some(pil), "level {}", level);
            }
        }
    }

    #[test]
    fn seed_matches_dp_oracle((seq, (n, m)) in (sequence(40), gap_req())) {
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
        let threaded = MppConfig { threads, ..config.clone() };
        let old = mpp_reference(&seq, gap, rho, 8, threaded.clone());
        let new = mpp(&seq, gap, rho, 8, threaded);
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
    /// suffix counts at offsets `x'` with `x' − x − 1 ∈ [N, M]`. Every
    /// offset with a nonzero total is kept, its count clamped at
    /// `u64::MAX`, and the flag is raised exactly when one clamps.
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
            let clamps = oracle.iter().any(|&(_, sum)| sum > u64::MAX as u128);
            prop_assert_eq!(saturated, clamps, "partner {}", j);
            let got: Vec<(u32, u128)> = joined.entries().map(|(x, y)| (x, y as u128)).collect();
            let clamped: Vec<(u32, u128)> = oracle
                .into_iter()
                .map(|(x, sum)| (x, sum.min(u64::MAX as u128)))
                .collect();
            prop_assert_eq!(got, clamped, "partner {}", j);
        }
    }

    /// Support before join: for `P = a·m`, the entries of `PIL(m)`
    /// dotted with row `a` of the sequence's window table give
    /// `sup(P)`, equal to the DP oracle and to the support of the join
    /// of `PIL(a·prefix(m))` with `PIL(m)`, for every symbol `a`.
    #[test]
    fn window_table_support_matches_dp_and_join(
        (alpha, codes, (n, m), tail) in
            (alphabet(), codes(60), gap_req(), collection::vec(0u8..3, 2..=5))
    ) {
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let table = WindowTable::new(&seq, gap);
        let pils = Pil::build_all(&seq, gap, tail.len());
        let empty = Pil::new();
        let pil_of =
            |codes: &[u8]| pils.get(&Pattern::from_codes(codes.to_vec())).unwrap_or(&empty);
        for a in 0..seq.alphabet().size() as u8 {
            let pattern: Vec<u8> = std::iter::once(a).chain(tail.iter().copied()).collect();
            let got = table.extension_support(a, pil_of(&tail));
            let dp = support_dp(&seq, gap, &Pattern::from_codes(pattern.clone()));
            prop_assert_eq!(got, dp, "a = {}", a);
            let left = pil_of(&pattern[..tail.len()]);
            let (joined, _) = Pil::join_checked(left, pil_of(&tail), gap);
            prop_assert_eq!(got, joined.support(), "a = {}", a);
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
        let reference = mpp_reference(&seq, gap, rho, 8, config.clone());
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

// The top-k differential runs half a dozen mines per case (serial
// and pooled, with and without a spill ceiling, MPP and MPPm), so it
// gets a small case budget. A top-k mine is an output contract:
// whatever the gap regime (rigid `W == 1`, where the rising floor
// prunes the search itself, or flexible `W > 1`, where only emission
// is gated), thread count, or memory ceiling, the outcome must be
// bit-identical to ranking the full mine. (A `--target` prefix is an
// output filter of `pgmine mine`, tested there.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn topk_and_targeted_pruning_match_post_filtering(
        (alpha, codes, (n, m), rho_scale, k) in (
            alphabet(),
            codes(60),
            gap_req(), // biased toward N == M: both floor regimes occur
            1usize..40,
            1usize..12,
        )
    ) {
        use perigap::core::mppm::mppm;
        use perigap::core::spill::{MemSpillIo, SpillIo};
        use perigap::core::trace::NoopObserver;
        use perigap::core::{mine_top_k, select_top_k};
        use std::sync::Arc;

        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let rho = rho_scale as f64 * 1e-4;
        let cfg = MppConfig::default();
        let top_k = |algorithm, config: &MppConfig| {
            mine_top_k(&seq, gap, rho, algorithm, k, config, &mut NoopObserver)
        };
        let mpp8 = Algorithm::Mpp { n: 8 };

        // Top-k: every thread count must reproduce `select_top_k` over
        // the full mine — same rank order, same truncation, same ratios.
        let full = mpp(&seq, gap, rho, 8, cfg.clone());
        let topk = top_k(mpp8, &cfg);
        prop_assert_eq!(full.is_ok(), topk.is_ok());
        let Ok(full) = full else { return Ok(()) };
        let topk = topk.unwrap();
        prop_assert_eq!(topk.stats.top_k, Some(k));
        let expect_topk = select_top_k(&full.frequent, k);
        assert_pruned_equal(&expect_topk, &topk, "top-k serial")?;
        let par = top_k(mpp8, &MppConfig { threads: 3, ..cfg.clone() }).unwrap();
        assert_pruned_equal(&expect_topk, &par, "top-k parallel")?;

        // Under a memory ceiling the floor drops spilled components
        // outright instead of restoring them; the outcome must not
        // move.
        let spill_cfg = MppConfig {
            max_arena_bytes: Some(1 << 30),
            spill_watermark: 0.5,
            spill: Some(Arc::new(MemSpillIo::default()) as Arc<dyn SpillIo>),
            threads: 2,
            ..cfg.clone()
        };
        let spilled = top_k(mpp8, &spill_cfg).unwrap();
        assert_pruned_equal(&expect_topk, &spilled, "top-k spill")?;

        // The multi-sequence-normalized engine honors the same
        // contract.
        let full_m = mppm(&seq, gap, rho, 4, cfg.clone());
        let topk_m = top_k(Algorithm::Mppm { m: 4 }, &cfg);
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
