//! The pruning factors λ and λ′ (Theorems 1 and 2).
//!
//! If a length-`l` pattern `P` is frequent, every length-(l−d)
//! sub-pattern `Q` must have support ratio at least `λ(l,d) · ρs` where
//! `λ(l,d) = N_l / (N_(l−d) · W^d)` (Theorem 1 / Equation 2). With the
//! sequence statistic `e_m` (Theorem 2) the factor tightens to
//! `λ′(l,d) = N_l / (N_(l−d) · e_m^s · W^t)` with `s = ⌊d/m⌋`,
//! `t = d − s·m` — but only for *leading* sub-patterns
//! `Q = P[1] … P[l−d]`.
//!
//! Rather than multiplying λ back into ρs with floats, the miner uses
//! the equivalent exact test on support counts:
//!
//! ```text
//! sup(Q) ≥ λ(l,d)·ρs·N_(l−d)  ⇔  sup(Q) · W^d ≥ ρs · N_l
//! ```
//!
//! [`PruneBound`] packages that comparison as the exact integer
//! threshold `⌈ρs · N_l / W^d⌉`, so threshold decisions can never flip
//! with rounding.

use crate::counts::OffsetCounts;
use perigap_math::{BigRatio, BigUint};

/// λ(l, d) as an exact rational: `N_l / (N_(l−d) · W^d)`.
///
/// Returns 0 when `N_l = 0` (no length-`l` offset sequences exist).
///
/// # Panics
/// Panics if `d > l` or `N_(l−d) = 0` while `N_l > 0` (impossible for
/// valid inputs).
pub fn lambda(counts: &OffsetCounts, l: usize, d: usize) -> BigRatio {
    assert!(d <= l, "λ(l,d) requires d ≤ l");
    let n_l = counts.n(l);
    if n_l.is_zero() {
        return BigRatio::zero();
    }
    let w = counts.gap().flexibility() as u64;
    let mut denom = counts.n(l - d);
    assert!(!denom.is_zero(), "N_(l-d) must be positive when N_l is");
    denom = denom.mul_ref(&BigUint::from_u64(w).pow(d as u32));
    BigRatio::new(n_l, denom)
}

/// λ′(l, d) under Theorem 2: `N_l / (N_(l−d) · e_m^s · W^t)`.
///
/// `em` is the sequence statistic for window size `m` (see
/// [`crate::em`]); `s = ⌊d/m⌋`, `t = d − s·m`.
pub fn lambda_prime(counts: &OffsetCounts, l: usize, d: usize, m: usize, em: u64) -> BigRatio {
    assert!(d <= l, "λ'(l,d) requires d ≤ l");
    assert!(m >= 1, "m must be ≥ 1");
    assert!(
        em >= 1,
        "e_m is a max over counts of non-empty sets, so ≥ 1"
    );
    let n_l = counts.n(l);
    if n_l.is_zero() {
        return BigRatio::zero();
    }
    let w = counts.gap().flexibility() as u64;
    let s = d / m;
    let t = d - s * m;
    let mut denom = counts.n(l - d);
    assert!(!denom.is_zero(), "N_(l-d) must be positive when N_l is");
    denom = denom.mul_ref(&BigUint::from_u64(em).pow(s as u32));
    denom = denom.mul_ref(&BigUint::from_u64(w).pow(t as u32));
    BigRatio::new(n_l, denom)
}

/// An exact threshold test for one pruning level: decides
/// `sup ≥ λ·ρs·N_(l−d)` (equivalently `sup · divisor ≥ ρs · N_l`)
/// without constructing λ explicitly.
///
/// Supports are integers, so the test is `sup ≥ ⌈ρs · N_l / divisor⌉`;
/// the bound keeps only that integer, computed once when it is built,
/// and every [`PruneBound::admits_u128`] is a single compare.
#[derive(Clone, Debug)]
pub struct PruneBound {
    /// The smallest passing support, `⌈ρs · N_l / divisor⌉` with divisor
    /// `W^d` (Theorem 1), `e_m^s · W^t` (Theorem 2) or 1; `None` when it
    /// exceeds every `u128`, so no support passes.
    min_support: Option<u128>,
}

impl PruneBound {
    /// The bound `sup · divisor ≥ ρ · N_l`.
    fn new(rho: &BigRatio, n_l: &BigUint, divisor: &BigUint) -> PruneBound {
        // ρ = p/q: ⌈p·N_l / (q·divisor)⌉. No reduction needed — the
        // ceiling of a fraction does not depend on its terms.
        let min = ceil_div(&rho.numer().mul_ref(n_l), &rho.denom().mul_ref(divisor));
        PruneBound {
            min_support: min.to_u128(),
        }
    }

    /// Theorem 1 bound for sub-patterns `d` characters shorter than a
    /// hypothetical frequent length-`l` pattern.
    pub fn theorem1(counts: &OffsetCounts, rho: &BigRatio, l: usize, d: usize) -> PruneBound {
        assert!(d <= l, "requires d ≤ l");
        let w = counts.gap().flexibility() as u64;
        PruneBound::new(rho, &counts.n(l), &BigUint::from_u64(w).pow(d as u32))
    }

    /// Theorem 2 bound (leading sub-patterns only), using `e_m`.
    pub fn theorem2(
        counts: &OffsetCounts,
        rho: &BigRatio,
        l: usize,
        d: usize,
        m: usize,
        em: u64,
    ) -> PruneBound {
        assert!(d <= l, "requires d ≤ l");
        assert!(m >= 1 && em >= 1, "need m ≥ 1 and e_m ≥ 1");
        let w = counts.gap().flexibility() as u64;
        let s = d / m;
        let t = d - s * m;
        let divisor = BigUint::from_u64(em)
            .pow(s as u32)
            .mul_ref(&BigUint::from_u64(w).pow(t as u32));
        PruneBound::new(rho, &counts.n(l), &divisor)
    }

    /// The plain frequency test `sup ≥ ρs · N_l` (divisor 1).
    pub fn exact(counts: &OffsetCounts, rho: &BigRatio, l: usize) -> PruneBound {
        PruneBound::new(rho, &counts.n(l), &BigUint::one())
    }

    /// Decide whether a support count passes the bound:
    /// `sup · divisor ≥ ρs · N_l`.
    pub fn admits(&self, sup: u64) -> bool {
        self.admits_u128(sup as u128)
    }

    /// [`PruneBound::admits`] for the full-width support counts the PIL
    /// machinery produces.
    pub fn admits_u128(&self, sup: u128) -> bool {
        self.min_support.is_some_and(|min| sup >= min)
    }

    /// The smallest integer support that passes the bound (useful for
    /// reporting thresholds in the harness); `None` when it exceeds
    /// every `u128`.
    pub fn min_support(&self) -> Option<u128> {
        self.min_support
    }
}

/// One level's worth of prune machinery: the exact frequency test, the
/// Theorem 1 look-ahead bound toward level `n`, and `N_l` as `f64` for
/// ratio reporting.
#[derive(Clone)]
pub(crate) struct BoundRow {
    /// `sup ≥ ρ·N_l` — decides frequency at this level.
    pub exact: PruneBound,
    /// `sup·W^(n−l) ≥ ρ·N_n` — decides extension toward level `n`
    /// (collapses to `exact` once `l ≥ n`).
    pub lhat: PruneBound,
    /// `N_l` as `f64`, the ratio denominator.
    pub n_f64: f64,
}

/// Lazily built per-level [`BoundRow`] table, shared by the engine's
/// prelude and its subtree tasks so each bound is constructed once per
/// depth instead of once per candidate. Every task consulting the same
/// rows is what keeps the keep/frequent decisions — and therefore the
/// stats — identical at every thread count.
pub(crate) struct BoundTable<'a> {
    counts: &'a OffsetCounts,
    rho: &'a BigRatio,
    n: usize,
    rows: Vec<Option<BoundRow>>,
}

impl<'a> BoundTable<'a> {
    /// A table for mining toward level `n` under threshold `rho`.
    pub fn new(counts: &'a OffsetCounts, rho: &'a BigRatio, n: usize) -> BoundTable<'a> {
        BoundTable {
            counts,
            rho,
            n,
            rows: Vec::new(),
        }
    }

    /// The bounds for `level`, built on first use.
    pub fn row(&mut self, level: usize) -> &BoundRow {
        if level >= self.rows.len() {
            self.rows.resize_with(level + 1, || None);
        }
        if self.rows[level].is_none() {
            let exact = PruneBound::exact(self.counts, self.rho, level);
            let lhat = if level < self.n {
                PruneBound::theorem1(self.counts, self.rho, self.n, self.n - level)
            } else {
                exact.clone()
            };
            self.rows[level] = Some(BoundRow {
                exact,
                lhat,
                n_f64: self.counts.n_f64(level),
            });
        }
        self.rows[level].as_ref().expect("row just built")
    }
}

/// `⌈a / b⌉` for big integers (b > 0) via shift-and-subtract long
/// division on the top bits.
fn ceil_div(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() {
        return BigUint::zero();
    }
    if let Some(small) = b.to_u64() {
        let (q, r) = a.div_rem_u64(small);
        return if r == 0 { q } else { &q + &BigUint::one() };
    }
    // Binary long division.
    let mut rem = a.clone();
    let mut quot = BigUint::zero();
    let shift_max = a.bit_len().saturating_sub(b.bit_len());
    for s in (0..=shift_max).rev() {
        let d = b.shl_bits(s);
        if let Some(next) = rem.checked_sub(&d) {
            rem = next;
            quot.add_assign_ref(&BigUint::one().shl_bits(s));
        }
    }
    if !rem.is_zero() {
        quot.add_assign_ref(&BigUint::one());
    }
    quot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap::GapRequirement;

    fn counts(seq_len: usize, n: usize, m: usize) -> OffsetCounts {
        OffsetCounts::new(seq_len, GapRequirement::new(n, m).unwrap())
    }

    #[test]
    fn lambda_closed_form_matches_equation4() {
        // For l ≤ l1: λ(l,d) = [L−(l−1)(c)]/[L−(l−d−1)(c)], c = (M+N)/2+1.
        let c = counts(1000, 9, 12);
        let cc = (12.0 + 9.0) / 2.0 + 1.0;
        for (l, d) in [(13, 3), (10, 2), (20, 10), (5, 4)] {
            let expected =
                (1000.0 - (l as f64 - 1.0) * cc) / (1000.0 - (l as f64 - d as f64 - 1.0) * cc);
            let got = lambda(&c, l, d).to_f64();
            assert!(
                (got - expected).abs() < 1e-12,
                "λ({l},{d}) = {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn lambda_is_at_most_one() {
        let c = counts(200, 3, 6);
        for l in 1..=c.l2() {
            // Theorem 1 concerns non-empty sub-patterns: d < l.
            for d in 0..l.min(6) {
                let v = lambda(&c, l, d);
                assert!(v <= BigRatio::one(), "λ({l},{d}) > 1");
            }
        }
    }

    #[test]
    fn lambda_transitivity_equation3() {
        // λ(l, d1+d2) = λ(l, d1) · λ(l−d1, d2).
        let c = counts(500, 4, 7);
        for (l, d1, d2) in [(12, 3, 4), (20, 5, 5), (8, 0, 3), (15, 7, 8)] {
            let lhs = lambda(&c, l, d1 + d2);
            let rhs = lambda(&c, l, d1).mul(&lambda(&c, l - d1, d2));
            assert_eq!(lhs, rhs, "transitivity fails at l={l}, d1={d1}, d2={d2}");
        }
    }

    #[test]
    fn lambda_zero_when_no_offset_sequences() {
        let c = counts(20, 9, 12);
        assert!(c.n(c.l2() + 1).is_zero());
        assert!(lambda(&c, c.l2() + 1, 2).is_zero());
    }

    #[test]
    fn lambda_prime_tightens_lambda() {
        let c = counts(1000, 9, 12);
        // W = 4, m = 3, e_m = 2 < W^m: λ′ multiplies λ by (W^m/e_m)^s ≥ 1.
        let base = lambda(&c, 13, 8);
        let tight = lambda_prime(&c, 13, 8, 3, 2);
        assert!(tight >= base, "λ′ must be ≥ λ");
        // s = ⌊8/3⌋ = 2, t = 2 → ratio = (W^3/e)^2 = (64/2)^2 = 1024.
        let ratio = tight.div(&base);
        assert_eq!(ratio, BigRatio::from_u64s(1024, 1));
    }

    #[test]
    fn lambda_prime_with_em_equal_wm_reduces_to_lambda() {
        let c = counts(1000, 9, 12);
        // e_m = W^m means Theorem 2 gives no improvement.
        let em = 4u64.pow(3);
        assert_eq!(lambda_prime(&c, 13, 9, 3, em), lambda(&c, 13, 9));
    }

    #[test]
    fn prune_bound_matches_lambda_rho() {
        let c = counts(1000, 9, 12);
        let rho = BigRatio::from_f64_exact(0.00003);
        let (l, d) = (13, 5);
        let bound = PruneBound::theorem1(&c, &rho, l, d);
        // Compare against the literal λ·ρs·N_(l−d) formulation.
        let literal = lambda(&c, l, d)
            .mul(&rho)
            .mul(&BigRatio::from_integer(c.n(l - d)));
        let t = bound.min_support().expect("threshold fits u128");
        // min_support is the smallest integer ≥ literal.
        let threshold = BigUint::from_u128(t);
        assert!(literal.cmp_integer(&threshold) != std::cmp::Ordering::Greater);
        let below = threshold.checked_sub(&BigUint::one()).unwrap();
        assert!(literal.cmp_integer(&below) == std::cmp::Ordering::Greater);
        // admits agrees with min_support.
        assert!(bound.admits_u128(t));
        assert!(!bound.admits_u128(t - 1));
    }

    #[test]
    fn admits_matches_the_cross_multiplied_test() {
        // An independent path: `ρ.le_scaled(sup·divisor, N_l)` decides
        // `sup·divisor ≥ ρ·N_l` by cross-multiplying, without the
        // bound's precomputed ceiling.
        let c = counts(1000, 9, 12);
        let w = BigUint::from_u64(4);
        for rho in [
            BigRatio::from_f64_exact(0.00003),
            BigRatio::from_f64_exact(1e-4),
            BigRatio::from_u64s(1, 3),
            BigRatio::one(),
        ] {
            for (l, d) in [(3, 0), (10, 2), (13, 7), (30, 5)] {
                let (m, em) = (3, 7);
                let (s, t) = (d / m, d % m);
                let cases = [
                    (PruneBound::exact(&c, &rho, l), BigUint::one()),
                    (PruneBound::theorem1(&c, &rho, l, d), w.pow(d as u32)),
                    (
                        PruneBound::theorem2(&c, &rho, l, d, m, em),
                        BigUint::from_u64(em)
                            .pow(s as u32)
                            .mul_ref(&w.pow(t as u32)),
                    ),
                ];
                for (bound, divisor) in cases {
                    let min = bound.min_support().expect("fits u128");
                    assert!(min > 0, "ρ·N_{l} > 0 needs a positive support");
                    for sup in [min - 1, min, min + 1] {
                        let scaled = BigUint::from_u128(sup).mul_ref(&divisor);
                        assert_eq!(
                            bound.admits_u128(sup),
                            rho.le_scaled(&scaled, &c.n(l)),
                            "ρ = {rho}, l = {l}, d = {d}, divisor = {divisor}, sup = {sup}"
                        );
                    }
                }
            }
        }
        // ρ·N_77 ≈ 2^157 here: no u128 support reaches the threshold.
        let rho = BigRatio::from_u64s(1, 2);
        let bound = PruneBound::exact(&c, &rho, 77);
        assert_eq!(bound.min_support(), None);
        assert!(!bound.admits_u128(u128::MAX));
        assert!(!rho.le_scaled(&BigUint::from_u128(u128::MAX), &c.n(77)));
    }

    #[test]
    fn exact_bound_is_plain_frequency_test() {
        let c = counts(100, 1, 2);
        let rho = BigRatio::from_u64s(1, 10);
        let bound = PruneBound::exact(&c, &rho, 2);
        let n2 = c.n(2).to_u64().unwrap();
        let threshold = n2.div_ceil(10);
        assert!(bound.admits(threshold));
        assert!(!bound.admits(threshold - 1));
    }

    #[test]
    fn theorem2_bound_is_no_looser() {
        let c = counts(1000, 9, 12);
        let rho = BigRatio::from_f64_exact(0.00003);
        let b1 = PruneBound::theorem1(&c, &rho, 13, 10);
        let b2 = PruneBound::theorem2(&c, &rho, 13, 10, 3, 2);
        // Theorem 2's divisor is smaller, so its minimum support is larger.
        assert!(b2.min_support().unwrap() >= b1.min_support().unwrap());
    }

    #[test]
    fn bound_table_rows_match_direct_construction() {
        let c = counts(500, 2, 5);
        let rho = BigRatio::from_f64_exact(0.001);
        let n = 8;
        let mut table = BoundTable::new(&c, &rho, n);
        for level in [3usize, 5, 8, 10, 3] {
            let row = table.row(level);
            let exact = PruneBound::exact(&c, &rho, level);
            assert_eq!(
                row.exact.min_support(),
                exact.min_support(),
                "level {level}"
            );
            let lhat = if level < n {
                PruneBound::theorem1(&c, &rho, n, n - level)
            } else {
                exact
            };
            assert_eq!(row.lhat.min_support(), lhat.min_support(), "level {level}");
            assert!((row.n_f64 - c.n_f64(level)).abs() <= row.n_f64.abs() * 1e-12);
        }
    }

    #[test]
    fn ceil_div_cases() {
        let a = BigUint::from_u64(10);
        assert_eq!(ceil_div(&a, &BigUint::from_u64(3)).to_u64(), Some(4));
        assert_eq!(ceil_div(&a, &BigUint::from_u64(5)).to_u64(), Some(2));
        assert_eq!(ceil_div(&BigUint::zero(), &a).to_u64(), Some(0));
        // Multi-word divisor path.
        let big = BigUint::from_u64(7).pow(60);
        let d = BigUint::from_u64(7).pow(30);
        assert_eq!(ceil_div(&big, &d), BigUint::from_u64(7).pow(30));
        let bigger = &big + &BigUint::one();
        assert_eq!(
            ceil_div(&bigger, &d),
            &BigUint::from_u64(7).pow(30) + &BigUint::one()
        );
    }
}
