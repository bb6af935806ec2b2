//! The MPPm algorithm (Section 5.2): MPP with the longest-pattern
//! estimate `n` derived automatically from the `e_m` statistic.
//!
//! After counting the supports of all start-level (length-3) patterns,
//! MPPm checks for every `k` up to `l1` whether *any* length-3 pattern
//! clears the Theorem 2 bound `λ′(k, k−3) · ρs · N_3`. If none does, no
//! length-`k` frequent pattern can exist; `n` is the largest `k` that
//! survives. From there the run is exactly MPP: [`crate::mpp::mine`]
//! with [`Algorithm::Mppm`] runs this module's prelude and then the
//! engine in [`crate::dfs`]. [`mppm`] is the paper's untraced call.

use crate::arena::PilSet;
use crate::counts::OffsetCounts;
use crate::em::compute_em;
use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::mpp::{mine, prepare, seed_level, Algorithm, MppConfig};
use crate::result::{MineOutcome, MineStats};
use crate::trace::{EmEvent, Event, MineObserver, NoopObserver};
use perigap_math::{BigRatio, BigUint};
use perigap_seq::Sequence;
use std::time::Instant;

/// Run MPPm with window parameter `m` (the paper uses `m = 8` or
/// `m = 10`).
///
/// ```
/// use perigap_core::mpp::MppConfig;
/// use perigap_core::mppm::mppm;
/// use perigap_core::GapRequirement;
/// use perigap_seq::Sequence;
///
/// let seq = Sequence::dna(&"ACGTT".repeat(50))?;
/// let gap = GapRequirement::new(1, 3)?;
/// let outcome = mppm(&seq, gap, 0.005, 4, MppConfig::default())?;
/// assert!(outcome.stats.em.is_some(), "MPPm computed e_m");
/// for f in &outcome.frequent {
///     assert!(f.ratio >= 0.005 * (1.0 - 1e-12));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn mppm(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    m: usize,
    config: MppConfig,
) -> Result<MineOutcome, MineError> {
    mine(
        seq,
        gap,
        rho,
        Algorithm::Mppm { m },
        &config,
        &mut NoopObserver,
    )
}

/// Everything the MPPm front half (validation, `e_m`, seed supports,
/// `n` estimation) hands to the engine that runs the level-wise back
/// half.
pub(crate) struct MppmPrelude {
    pub(crate) counts: OffsetCounts,
    pub(crate) rho_exact: BigRatio,
    pub(crate) n: usize,
    pub(crate) pils: PilSet,
    pub(crate) stats_seed: MineStats,
}

/// The MPPm front half. Emits the [`EmEvent`] and the seed event.
pub(crate) fn prelude<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    m: usize,
    config: &MppConfig,
    observer: &mut O,
) -> Result<MppmPrelude, MineError> {
    if m == 0 {
        return Err(MineError::InvalidM(0));
    }
    let (counts, rho_exact) = prepare(seq, gap, rho, config)?;

    // Phase 1: the e_m statistic.
    let em_started = Instant::now();
    // e_m = 0 means no length-(m+1) window fits; clamping to 1 only
    // loosens λ′ and is therefore sound.
    let em = compute_em(seq, gap, m).max(1);
    let em_elapsed = em_started.elapsed();
    observer.on(Event::Em(&EmEvent {
        m,
        em,
        elapsed: em_elapsed,
    }));

    // Phase 2: seed-level supports.
    let start = config.start_level;
    let pils = seed_level(seq, gap, start, observer);
    let max_sup = pils.max_support();

    // Phase 3: estimate n = max { k : some seed pattern clears
    // λ′(k, k−3)·ρs·N_3 }. Only the best-supported seed pattern matters,
    // since the bound is a fixed threshold per k.
    let n = theorem2_n(&counts, &rho_exact, start, m, em, max_sup);

    let stats_seed = MineStats {
        em: Some(em),
        em_elapsed,
        ..MineStats::default()
    };
    Ok(MppmPrelude {
        counts,
        rho_exact,
        n,
        pils,
        stats_seed,
    })
}

/// MPPm's `n`: the largest `k ≤ l1` at which `max_sup`, the best
/// start-level support, passes the Theorem 2 test
/// `sup·e_m^s·W^t ≥ ρ·N_k` (start level `a`, `d = k − a`, `s = ⌊d/m⌋`,
/// `t = d − s·m`), or `a` when no `k` does — "the value of n is taken
/// as the largest k such that length-k frequent patterns may exist".
///
/// For `k ≤ l1`, `2·N_k = W^(k−1)·C_k` with the word-sized `C_k` of
/// [`OffsetCounts::closed_form_c`]. With `ρ = p/q`, dividing the test by
/// `W^t` leaves `A ≥ B·C_k` for `A = 2·sup·q·e_m^s` and
/// `B = p·W^(a−1)·(W^m)^s`, which change only once per block of `m`
/// lengths. So the threshold on `sup`,
/// `ρ·C_k·W^(a−1)·(W^m/e_m)^s / 2`, is not monotone in `k` but a
/// sawtooth: it falls with `C_k` inside a block and jumps by `W^m/e_m`
/// at each block edge. Two facts keep the scan exact and short:
///
/// - `C_k` falls inside a block, so the block's last length passes
///   whenever any of its lengths does: one test decides the block.
/// - `e_m ≤ W^m`, since `e_m` counts one string among at most `W^m`
///   offset sequences, so `A/B` never rises from one block to the next,
///   and every `C_k ≥ C_{l1}`. Once `A < B·C_{l1}`, no later length can
///   pass and the scan stops. The stop is guarded on `e_m ≤ W^m`: if the
///   guard ever fails, the scan runs to `l1` and stays exact.
fn theorem2_n(
    counts: &OffsetCounts,
    rho: &BigRatio,
    start: usize,
    m: usize,
    em: u64,
    max_sup: u128,
) -> usize {
    debug_assert!(start >= 1 && m >= 1 && em >= 1);
    let l1 = counts.l1();
    let w = BigUint::from_u64(counts.gap().flexibility() as u64);
    let w_m = w.pow(m as u32);
    let may_stop = BigUint::from_u64(em) <= w_m;
    // Only A/B matters, so cancel g = gcd(e_m, W^m) from the per-block
    // factors: with e_m = W^m (a long enough single-symbol run) A and B
    // then keep their size however far the scan runs.
    let g = BigUint::from_u64(em)
        .gcd(&w_m)
        .to_u64()
        .expect("a divisor of e_m fits a word");
    let (em_step, w_m_step) = (em / g, w_m.div_rem_u64(g).0);
    let times = |big: &BigUint, c: u64| {
        let mut x = big.clone();
        x.mul_assign_u64(c);
        x
    };
    // `lhs` is A and `rhs` is B, both at block s.
    let mut lhs = BigUint::from_u128(max_sup).mul_ref(rho.denom());
    lhs.mul_assign_u64(2);
    let mut rhs = rho.numer().mul_ref(&w.pow((start - 1) as u32));
    let mut n = start;
    for s in 0usize.. {
        // Block s holds the lengths with d in [s·m, s·m + m − 1].
        let first = (start + s * m).max(start + 1);
        if first > l1 || (may_stop && lhs < times(&rhs, counts.closed_form_c(l1))) {
            break;
        }
        let last = (start + s * m + m - 1).min(l1);
        if last >= first && lhs >= times(&rhs, counts.closed_form_c(last)) {
            n = last;
        }
        lhs.mul_assign_u64(em_step);
        rhs = rhs.mul_ref(&w_m_step);
    }
    n
}

/// The `n` MPPm would estimate, without running the mining phase —
/// used by the harness to report the paper's "MPPm estimates n = 22"
/// style numbers.
pub fn estimate_n(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    m: usize,
    config: MppConfig,
) -> Result<(usize, u64), MineError> {
    let p = prelude(seq, gap, rho, m, &config, &mut NoopObserver)?;
    let em = p.stats_seed.em.expect("prelude always records e_m");
    Ok((p.n, em))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lambda::PruneBound;
    use crate::mpp::mpp;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    #[test]
    fn finds_same_patterns_as_mpp_worst_case() {
        let s = uniform(&mut StdRng::seed_from_u64(21), Alphabet::Dna, 150);
        let g = gap(2, 4);
        let rho = 0.0015;
        let worst = mpp(&s, g, rho, g.l1(150), MppConfig::default()).unwrap();
        let auto = mppm(&s, g, rho, 4, MppConfig::default()).unwrap();
        assert_eq!(worst.frequent.len(), auto.frequent.len());
        for f in &worst.frequent {
            let found = auto.get(&f.pattern).expect("MPPm must find every pattern");
            assert_eq!(found.support, f.support);
        }
    }

    #[test]
    fn estimated_n_is_sound() {
        // n must be at least the true longest frequent length no(rho):
        // Theorem 2 guarantees no length-k frequent pattern exists for
        // any k the estimate rejects.
        let s = uniform(&mut StdRng::seed_from_u64(22), Alphabet::Dna, 150);
        let g = gap(1, 2);
        let rho = 0.0005;
        let worst = mpp(&s, g, rho, g.l1(150), MppConfig::default()).unwrap();
        let no = worst.longest_len();
        let (n, em) = estimate_n(&s, g, rho, 5, MppConfig::default()).unwrap();
        assert!(n >= no, "estimated n = {n} below true longest {no}");
        assert!(em >= 1);
    }

    #[test]
    fn estimates_are_sound_and_bounded_for_every_m() {
        // For any m, the estimate must cover the true longest frequent
        // length and never exceed l1 (λ′ tightens differently per m, and
        // is not monotone in m when k − 3 < m, so only soundness and the
        // l1 cap are invariant).
        let s = uniform(&mut StdRng::seed_from_u64(23), Alphabet::Dna, 400);
        let g = gap(2, 4);
        let rho = 0.002;
        let no = mpp(&s, g, rho, g.l1(400), MppConfig::default())
            .unwrap()
            .longest_len();
        for m in [1, 2, 4, 6] {
            let (n, _) = estimate_n(&s, g, rho, m, MppConfig::default()).unwrap();
            assert!(n >= no.max(3), "m = {m}: n = {n} below longest {no}");
            assert!(n <= g.l1(400), "m = {m}: n = {n} above l1");
        }
    }

    #[test]
    fn stats_record_em() {
        let s = uniform(&mut StdRng::seed_from_u64(24), Alphabet::Dna, 150);
        let g = gap(1, 2);
        let outcome = mppm(&s, g, 0.001, 3, MppConfig::default()).unwrap();
        assert!(outcome.stats.em.is_some());
        assert!(outcome.stats.n_used >= 3);
    }

    #[test]
    fn dfs_engine_matches_bfs_engine() {
        // MPPm is MPP at the estimated n: the engine at every thread
        // count must mine exactly what the breadth-first reference
        // miner mines at that n.
        let s = uniform(&mut StdRng::seed_from_u64(26), Alphabet::Dna, 300);
        let g = gap(1, 3);
        let rho = 0.0008;
        let (n, em) = estimate_n(&s, g, rho, 4, MppConfig::default()).unwrap();
        let bfs = crate::reference::mpp_reference(&s, g, rho, n, MppConfig::default(), 1).unwrap();
        let serial = mppm(&s, g, rho, 4, MppConfig::default()).unwrap();
        for threads in [1usize, 4] {
            let config = MppConfig {
                threads,
                ..MppConfig::default()
            };
            let dfs = mppm(&s, g, rho, 4, config).unwrap();
            assert_eq!(serial.frequent, dfs.frequent, "threads = {threads}");
            assert_eq!(dfs.stats.n_used, n);
            assert_eq!(dfs.stats.em, Some(em));
            assert_eq!(bfs.frequent.len(), dfs.frequent.len());
            for (a, b) in bfs.frequent.iter().zip(&dfs.frequent) {
                assert_eq!((&a.pattern, a.support), (&b.pattern, b.support));
            }
        }
    }

    #[test]
    fn m_zero_is_rejected() {
        let s = uniform(&mut StdRng::seed_from_u64(25), Alphabet::Dna, 100);
        assert!(matches!(
            mppm(&s, gap(1, 2), 0.01, 0, MppConfig::default()),
            Err(MineError::InvalidM(0))
        ));
    }

    #[test]
    fn short_sequence_with_no_windows_still_mines() {
        // L admits length-3 patterns but no length-(m+1) e_m window:
        // e_m clamps to 1 and mining proceeds.
        let s = Sequence::dna("ACGTACGTACGTACG").unwrap(); // L = 15
        let g = gap(3, 4);
        // m = 4 needs span 1 + 5·4 = 21 > 15.
        let outcome = mppm(&s, g, 0.01, 4, MppConfig::default()).unwrap();
        assert_eq!(outcome.stats.em, Some(1));
    }

    /// The oracle for [`theorem2_n`]: every `k` in `(a, l1]` tested with
    /// its own freshly built Theorem 2 bound.
    fn theorem2_n_by_scan(
        counts: &OffsetCounts,
        rho: &BigRatio,
        start: usize,
        m: usize,
        em: u64,
        max_sup: u128,
    ) -> usize {
        let mut n = start;
        for k in (start + 1)..=counts.l1() {
            if PruneBound::theorem2(counts, rho, k, k - start, m, em).admits_u128(max_sup) {
                n = k;
            }
        }
        n
    }

    /// Every input of [`theorem2_n`].
    #[derive(Debug)]
    struct Theorem2Case {
        counts: OffsetCounts,
        rho: BigRatio,
        start: usize,
        m: usize,
        em: u64,
        max_sup: u128,
    }

    impl Theorem2Case {
        fn new(len: usize, g: (usize, usize), rho: f64, m: usize, em: u64, max_sup: u128) -> Self {
            Theorem2Case {
                counts: OffsetCounts::new(len, gap(g.0, g.1)),
                rho: BigRatio::from_f64_exact(rho),
                start: 3,
                m,
                em,
                max_sup,
            }
        }

        fn streamed(&self) -> usize {
            theorem2_n(
                &self.counts,
                &self.rho,
                self.start,
                self.m,
                self.em,
                self.max_sup,
            )
        }

        fn scanned(&self) -> usize {
            theorem2_n_by_scan(
                &self.counts,
                &self.rho,
                self.start,
                self.m,
                self.em,
                self.max_sup,
            )
        }

        fn passes(&self, k: usize) -> bool {
            PruneBound::theorem2(&self.counts, &self.rho, k, k - self.start, self.m, self.em)
                .admits_u128(self.max_sup)
        }
    }

    /// `L`, `N ≤ M`, the start level and `m` uniform; log-uniform
    /// `e_m ∈ [1, W^m]`, ρ in `[1e-6, 1]` (dyadic from an `f64`, or over
    /// an odd prime) and `max_sup ∈ [1, N_a]`, the largest support a
    /// start-level pattern can have.
    fn theorem2_case() -> impl Strategy<Value = Theorem2Case> {
        (
            (8usize..=300, 0usize..=4, 0usize..=4),
            (1usize..=5, 1usize..=6),
            (0f64..1.0, 0f64..1.0, 0f64..1.0, any::<bool>()),
        )
            .prop_map(
                |((len, min, extra), (start, m), (u_em, u_rho, u_sup, dyadic))| {
                    let counts = OffsetCounts::new(len, gap(min, min + extra));
                    let w_m = (extra as f64 + 1.0).powi(m as i32);
                    let rho = 10f64.powf(-6.0 * u_rho);
                    const Q: u64 = 999_983;
                    Theorem2Case {
                        rho: if dyadic {
                            BigRatio::from_f64_exact(rho)
                        } else {
                            BigRatio::from_u64s(((rho * Q as f64) as u64).max(1), Q)
                        },
                        start,
                        m,
                        em: (w_m.powf(u_em).round() as u64).clamp(1, w_m as u64),
                        max_sup: counts.n_f64(start).max(1.0).powf(u_sup) as u128,
                        counts,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn streamed_n_matches_the_per_k_scan(cases in collection::vec(theorem2_case(), 100..101)) {
            let mut interior = 0;
            for case in &cases {
                let n = case.streamed();
                prop_assert_eq!(n, case.scanned(), "{:?}", case);
                if n > case.start && n < case.counts.l1() {
                    interior += 1;
                }
            }
            // The sawtooth's inside, not only its a and l1 ends: about
            // a third of the draws land there.
            prop_assert!(interior >= 20, "{interior} of {} draws had a < n < l1", cases.len());
        }
    }

    #[test]
    fn streamed_n_fixed_cases() {
        let check = |case: &Theorem2Case| {
            let n = case.streamed();
            assert_eq!(n, case.scanned(), "{case:?}");
            n
        };
        // l1 ≤ a: nothing to scan (l1 = 3 and l1 = 2).
        for len in [12, 5] {
            let case = Theorem2Case::new(len, (2, 3), 1e-4, 2, 1, 1 << 20);
            assert!(case.counts.l1() <= 3);
            assert_eq!(check(&case), 3);
        }
        // W = 1: e_m = W^m = 1, so the test is 2·sup·q ≥ p·C_k and holds
        // from some k on: n is l1 (C_k ≤ 360 from k = 8) or the start
        // level (C_l1 = 4 > 2·sup/ρ).
        let rigid = Theorem2Case::new(200, (2, 2), 0.05, 3, 1, 9);
        assert!(!rigid.passes(4));
        assert_eq!(check(&rigid), rigid.counts.l1());
        assert_eq!(check(&Theorem2Case::new(200, (2, 2), 1.0, 3, 1, 1)), 3);
        // e_m = W^m: A/B never falls, and C_k does, so lengths pass only
        // from some k on (sup ≥ 0.045·C_k, from k = 64). The stop rule
        // must not fire at the early failures: n = l1.
        let flat = Theorem2Case::new(300, (1, 3), 0.01, 2, 9, 10);
        assert!(!flat.passes(4), "the early lengths must fail");
        assert_eq!(check(&flat), flat.counts.l1());
        // max_sup = 0 passes nowhere. Under ρ = 1 a block's last length k
        // needs sup ≥ 4.5·C_k·(81/14)^s: 2,000 passes nowhere (block 0
        // needs 4.5·C_6 = 2,565), u128::MAX everywhere, and 20,000 up to
        // block 1, which ends at k = 10.
        assert_eq!(check(&Theorem2Case::new(300, (1, 3), 1e-4, 4, 14, 0)), 3);
        let dense = |sup| check(&Theorem2Case::new(300, (1, 3), 1.0, 4, 14, sup));
        assert_eq!(dense(2_000), 3);
        assert_eq!(dense(u128::MAX), 75);
        assert_eq!(dense(20_000), 10);
        // Start levels other than 3.
        for start in [1, 2, 5] {
            let case = Theorem2Case {
                start,
                ..Theorem2Case::new(400, (0, 2), 1e-3, 3, 5, 700)
            };
            check(&case);
        }
        // An out-of-contract e_m = 7 > W^m = 4 lets A/B rise, by 7/4 per
        // block from 50, below C_l1 = 103 at the start: an unguarded stop
        // rule would return 3, but from block 4 on every length passes.
        let rising = Theorem2Case::new(200, (0, 1), 0.01, 2, 7, 1);
        assert_eq!(check(&rising), rising.counts.l1());
    }

    #[test]
    fn streamed_n_at_scale() {
        // l1 = 1,000,000: the per-k scan would build a million bignum
        // bounds; the streamed test stops a few blocks past n.
        let case = Theorem2Case::new(4_000_000, (1, 3), 1e-4, 4, 14, 1_000_000);
        assert_eq!(case.counts.l1(), 1_000_000);
        let n = case.streamed();
        assert!(n > 3 && n < 1_000_000, "n = {n}");
        assert!(case.passes(n), "n = {n} must pass Theorem 2");
        for k in (n + 1)..=(n + 3 * case.m) {
            assert!(!case.passes(k), "k = {k} past n = {n} passes");
        }
        // e_m = W^m = 81: the threshold on sup never rises across blocks
        // and stays below ρ·C_4·W^2/2 < 3,600 within them, so every
        // length passes and the scan runs all 250,000 blocks without
        // stopping. Cancelling gcd(e_m, W^m) keeps A and B one size, so
        // that stays linear in l1.
        let flat = Theorem2Case { em: 81, ..case };
        assert_eq!(flat.streamed(), 1_000_000);
    }
}
