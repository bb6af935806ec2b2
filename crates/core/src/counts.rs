//! Counting offset sequences: the paper's `N_l` analysis
//! (Section 4.1 and the Appendix).
//!
//! `N_l` — the number of distinct length-`l` offset sequences in a
//! length-`L` sequence under gap requirement `[N, M]` — is what turns a
//! support count into a support *ratio*. Three regimes:
//!
//! 1. `l > l2` — even the minimum span exceeds `L`: `N_l = 0`.
//! 2. `l ≤ l1` — even the maximum span fits (Theorem 4):
//!    `N_l = [L − (l−1)((M+N)/2 + 1)] · W^(l−1)`.
//! 3. `l1 < l ≤ l2` — the boundary band, computed from the recurrence
//!    `f(k+1, i) = Σ_{j=1..W} f(k, i−W+j)` (Equation 8) with
//!    `f(l, i) = W^(l−1)` for `i ≤ 0` and `f(l, i) = 0` for
//!    `i > (l−1)(W−1)` (Equations 6–7).
//!
//! All values are exact [`BigUint`]s — `N_l` overflows `u128` for quite
//! ordinary parameters — with `f64`/log views layered on top.

use crate::gap::GapRequirement;
use perigap_math::BigUint;
use std::cell::RefCell;

/// Lazily computed, cached table of `N_l` values for one `(L, [N,M])`
/// configuration.
///
/// ```
/// use perigap_core::{GapRequirement, OffsetCounts};
///
/// // Section 4.1's example: N_10 at L = 1000, gap [9,12].
/// let counts = OffsetCounts::new(1000, GapRequirement::new(9, 12)?);
/// assert_eq!(counts.n(10).to_u64(), Some(235_012_096));
/// assert!(counts.n(counts.l2() + 1).is_zero());
/// # Ok::<(), perigap_core::MineError>(())
/// ```
#[derive(Debug)]
pub struct OffsetCounts {
    seq_len: usize,
    gap: GapRequirement,
    /// `gap` with `M` clamped to `max(N, L − 2)`, the widest gap two
    /// offsets of the sequence can straddle. A wider step matches
    /// nothing, so `N_l` is the same under both, and counting under the
    /// clamp keeps the `f` rows at most `(l−1)·L` wide however wide the
    /// requested gap. `l1`, [`OffsetCounts::gap`] and with them λ and
    /// λ′ keep the requested gap.
    reach: GapRequirement,
    l1: usize,
    l2: usize,
    cache: RefCell<Vec<Option<BigUint>>>,
    /// Rows of the boundary recurrence: `f_rows[k - 1][i - 1] = f(k, i)`
    /// for `i` in the non-trivial band `1 ..= (k−1)(W−1)`. Built on
    /// demand, one prefix of rows at a time.
    f_rows: RefCell<Vec<Vec<BigUint>>>,
}

impl OffsetCounts {
    /// Create a count table for a sequence of length `seq_len` under
    /// `gap`.
    pub fn new(seq_len: usize, gap: GapRequirement) -> OffsetCounts {
        let l1 = gap.l1(seq_len);
        let l2 = gap.l2(seq_len);
        let widest = gap.min().max(seq_len.saturating_sub(2));
        let reach =
            GapRequirement::new(gap.min(), gap.max().min(widest)).expect("N ≤ the clamp ≤ M");
        OffsetCounts {
            seq_len,
            gap,
            reach,
            l1,
            l2,
            // Grown on demand: `l2` is O(L) under narrow gaps, and most
            // mines stop orders of magnitude earlier.
            cache: RefCell::new(Vec::new()),
            f_rows: RefCell::new(Vec::new()),
        }
    }

    /// A fresh table for the same `(L, [N,M])` configuration with empty
    /// caches. The interior-mutable caches make `OffsetCounts` `!Sync`,
    /// so concurrent subtree tasks each fork their own instead of
    /// sharing one behind a lock; the configuration copy is trivially
    /// cheap next to the first `n(l)` evaluation.
    pub fn fork(&self) -> OffsetCounts {
        OffsetCounts::new(self.seq_len, self.gap)
    }

    /// The subject sequence length `L`.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The gap requirement.
    pub fn gap(&self) -> GapRequirement {
        self.gap
    }

    /// `l1`: longest length whose maximum span fits in the sequence.
    pub fn l1(&self) -> usize {
        self.l1
    }

    /// `l2`: longest length whose minimum span fits in the sequence.
    pub fn l2(&self) -> usize {
        self.l2
    }

    /// Exact `N_l`. `N_0` is defined as 1 (the empty offset sequence),
    /// which makes the λ identities hold for `d = l`.
    pub fn n(&self, l: usize) -> BigUint {
        if l == 0 {
            return BigUint::one();
        }
        if l > self.l2 {
            return BigUint::zero();
        }
        if let Some(Some(cached)) = self.cache.borrow().get(l) {
            return cached.clone();
        }
        let value = if l <= self.l1 {
            self.n_closed_form(l)
        } else {
            self.n_boundary(l)
        };
        let mut cache = self.cache.borrow_mut();
        if cache.len() <= l {
            cache.resize(l + 1, None);
        }
        cache[l] = Some(value.clone());
        value
    }

    /// `N_l` as `f64` (may round; never overflows for `l ≤ l2`).
    pub fn n_f64(&self, l: usize) -> f64 {
        self.n(l).to_f64()
    }

    /// `ln(N_l)`; `-inf` when `N_l = 0`.
    pub fn ln_n(&self, l: usize) -> f64 {
        let n = self.n(l);
        if n.is_zero() {
            f64::NEG_INFINITY
        } else {
            n.ln()
        }
    }

    /// The word-sized factor of Theorem 4's closed form: for
    /// `1 ≤ l ≤ l1`, `2·N_l = W^(l−1)·C_l` with
    /// `C_l = 2(L − maxspan(l) + 1) + (l−1)(W−1)`. That is
    /// `2L − (l−1)(M+N+2)`: it falls by `M + N + 2` per length and is at
    /// least 2.
    ///
    /// # Panics
    /// Panics unless `1 ≤ l ≤ l1`.
    pub(crate) fn closed_form_c(&self, l: usize) -> u64 {
        assert!((1..=self.l1).contains(&l), "C_l needs 1 ≤ l ≤ l1");
        let w = self.gap.flexibility() as u64;
        let full_starts = (self.seq_len - self.gap.max_span(l) + 1) as u64;
        2 * full_starts + (l as u64 - 1) * (w - 1)
    }

    /// Theorem 4: `N_l = W^(l−1)·C_l / 2` (see [`OffsetCounts::closed_form_c`]),
    /// which equals the paper's `[L − (l−1)((M+N)/2 + 1)]·W^(l−1)` without
    /// needing fractional arithmetic.
    fn n_closed_form(&self, l: usize) -> BigUint {
        let w = self.gap.flexibility() as u64;
        let mut twice = BigUint::from_u64(w).pow((l - 1) as u32);
        twice.mul_assign_u64(self.closed_form_c(l));
        // Even: C_l is odd only when W is even and l ≥ 2, and then so is
        // W^(l−1).
        let (n, rem) = twice.div_rem_u64(2);
        debug_assert_eq!(rem, 0, "W^(l-1)·C_l = 2·N_l is even");
        n
    }

    /// Case 3: `N_l = Σ_{i = maxspan(l)−L}^{(l−1)(W−1)} f(l, i)`, under
    /// the clamped gap. The sum holds for any `l`; past the requested
    /// `l1`, `maxspan(l) − L` under the clamp is at least 0.
    fn n_boundary(&self, l: usize) -> BigUint {
        let w = self.reach.flexibility();
        let lo = self.reach.max_span(l) as i64 - self.seq_len as i64;
        let hi = ((l - 1) * (w - 1)) as i64;
        let mut total = BigUint::zero();
        for i in lo..=hi {
            total.add_assign_ref(&self.f(l, i));
        }
        total
    }

    /// `f(l, i)`: the number of length-`l` offset sequences starting at
    /// offset 1 in a sequence of length `maxspan(l) − i` (Appendix),
    /// under the gap with `M` clamped to the sequence (the same as the
    /// requested gap unless `M > L − 2`).
    pub fn f(&self, l: usize, i: i64) -> BigUint {
        assert!(l >= 1, "f(l, i) needs l ≥ 1");
        let w = self.reach.flexibility();
        if i <= 0 {
            return BigUint::from_u64(w as u64).pow((l - 1) as u32);
        }
        let band = ((l - 1) * (w - 1)) as i64;
        if i > band {
            return BigUint::zero();
        }
        self.ensure_f_rows(l);
        self.f_rows.borrow()[l - 1][(i - 1) as usize].clone()
    }

    /// Build `f` rows up to length `l` via the Equation 8 recurrence,
    /// using a sliding-window sum so each row costs `O(band)` additions.
    fn ensure_f_rows(&self, l: usize) {
        let mut rows = self.f_rows.borrow_mut();
        let w = self.reach.flexibility();
        while rows.len() < l {
            let k = rows.len() + 1; // building row for length k
            let band = (k - 1) * (w - 1);
            if k == 1 {
                rows.push(Vec::new());
                continue;
            }
            let prev_band = (k - 2) * (w - 1);
            // Closed-form lookup into row k−1 with out-of-band handling.
            let prev = |i: i64, rows: &Vec<Vec<BigUint>>| -> BigUint {
                if i <= 0 {
                    BigUint::from_u64(w as u64).pow((k - 2) as u32)
                } else if i as usize > prev_band {
                    BigUint::zero()
                } else {
                    rows[k - 2][(i - 1) as usize].clone()
                }
            };
            // f(k, i) = Σ_{m = i−W+1}^{i} f(k−1, m): maintain the window
            // sum incrementally.
            let mut row = Vec::with_capacity(band);
            // Seed the window with Σ f(k−1, m) for m in [2−W, 1].
            let mut window = BigUint::zero();
            for m in (1 - w as i64 + 1)..=1 {
                window.add_assign_ref(&prev(m, &rows));
            }
            for i in 1..=band as i64 {
                row.push(window.clone());
                // Slide to i+1: add f(k−1, i+1), drop f(k−1, i−W+1).
                window.add_assign_ref(&prev(i + 1, &rows));
                window.sub_assign_ref(&prev(i - w as i64 + 1, &rows));
            }
            rows.push(row);
        }
    }

    /// Theorem 3 check value: `Σ_{i=1}^{(l−1)(W−1)} f(l, i)` must equal
    /// `(l−1)/2 · (W−1) · W^(l−1)`. Exposed for tests and for the
    /// `repro counts` harness.
    pub fn theorem3_sum(&self, l: usize) -> (BigUint, BigUint) {
        let w = self.reach.flexibility();
        let band = (l - 1) * (w - 1);
        let mut sum = BigUint::zero();
        for i in 1..=band as i64 {
            sum.add_assign_ref(&self.f(l, i));
        }
        let mut expected = BigUint::from_u64(w as u64).pow((l - 1) as u32);
        expected.mul_assign_u64((l as u64 - 1) * (w as u64 - 1));
        let (expected, rem) = expected.div_rem_u64(2);
        debug_assert_eq!(rem, 0);
        (sum, expected)
    }
}

/// Reference `N_l` by dynamic programming over subject positions:
/// `O(L · l · W)` big-integer additions. Used as the test oracle for
/// the closed-form and boundary computations.
pub fn n_by_position_dp(seq_len: usize, gap: GapRequirement, l: usize) -> BigUint {
    if l == 0 {
        return BigUint::one();
    }
    if seq_len == 0 {
        return BigUint::zero();
    }
    // ways[c] = number of length-k offset sequences ending at offset c+1.
    let mut ways = vec![BigUint::one(); seq_len];
    for _k in 2..=l {
        let mut next = vec![BigUint::zero(); seq_len];
        for (c, w) in ways.iter().enumerate() {
            if w.is_zero() {
                continue;
            }
            for step in gap.steps() {
                let target = c + step;
                if target < seq_len {
                    next[target].add_assign_ref(w);
                } else {
                    break;
                }
            }
        }
        ways = next;
    }
    let mut total = BigUint::zero();
    for w in &ways {
        total.add_assign_ref(w);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(seq_len: usize, n: usize, m: usize) -> OffsetCounts {
        OffsetCounts::new(seq_len, GapRequirement::new(n, m).unwrap())
    }

    #[test]
    fn n1_is_sequence_length() {
        let c = counts(1000, 9, 12);
        assert_eq!(c.n(1).to_u64(), Some(1000));
    }

    #[test]
    fn n0_is_one_and_beyond_l2_is_zero() {
        let c = counts(100, 3, 5);
        assert_eq!(c.n(0), BigUint::one());
        assert!(c.n(c.l2() + 1).is_zero());
        assert!(c.n(c.l2() + 50).is_zero());
    }

    #[test]
    fn paper_n10_example() {
        // Section 4.1: L = 1000, [9, 12] → N_10 ≈ 235 million.
        // Exactly: (1000 − 9·11.5)·4^9 = 896.5·262144 = 235,012,096.
        let c = counts(1000, 9, 12);
        assert_eq!(c.n(10).to_u64(), Some(235_012_096));
    }

    #[test]
    fn closed_form_matches_dp_small() {
        let gap = GapRequirement::new(2, 4).unwrap();
        let c = OffsetCounts::new(40, gap);
        for l in 1..=c.l1() {
            assert_eq!(
                c.n(l),
                n_by_position_dp(40, gap, l),
                "N_{l} mismatch (closed form vs DP)"
            );
        }
    }

    #[test]
    fn closed_form_c_steps_down_by_m_plus_n_plus_2() {
        for (len, n, m) in [(40, 2, 4), (1000, 9, 12), (50, 4, 4), (7, 0, 0)] {
            let c = counts(len, n, m);
            let w = BigUint::from_u64(c.gap().flexibility() as u64);
            for l in 1..=c.l1() {
                let cl = c.closed_form_c(l);
                assert_eq!(cl, (2 * len - (l - 1) * (m + n + 2)) as u64, "C_{l}");
                assert!(cl >= 2, "C_{l} = {cl}");
                let mut twice = c.n(l);
                twice.mul_assign_u64(2);
                let mut factored = w.pow((l - 1) as u32);
                factored.mul_assign_u64(cl);
                assert_eq!(twice, factored, "2·N_{l} = W^(l-1)·C_{l}");
            }
        }
    }

    #[test]
    fn boundary_matches_dp_small() {
        let gap = GapRequirement::new(2, 4).unwrap();
        let c = OffsetCounts::new(40, gap);
        assert!(c.l2() > c.l1(), "test needs a non-empty boundary band");
        for l in (c.l1() + 1)..=c.l2() {
            assert_eq!(
                c.n(l),
                n_by_position_dp(40, gap, l),
                "N_{l} mismatch (boundary vs DP)"
            );
        }
    }

    #[test]
    fn boundary_matches_dp_various_gaps() {
        for (n, m, len) in [(1, 2, 25), (0, 3, 20), (3, 3, 30), (4, 7, 60)] {
            let gap = GapRequirement::new(n, m).unwrap();
            let c = OffsetCounts::new(len, gap);
            for l in 1..=(c.l2() + 1) {
                assert_eq!(
                    c.n(l),
                    n_by_position_dp(len, gap, l),
                    "N_{l} mismatch for L={len}, gap=[{n},{m}]"
                );
            }
        }
    }

    /// A gap wider than the sequence: the `f` rows are sized by the
    /// steps `L` admits, not by `W`, and `N_l` still matches the DP.
    #[test]
    fn gap_wider_than_the_sequence_matches_dp() {
        use crate::gap::MAX_GAP;
        for (n, m, len) in [(0, 22, 24), (0, 23, 24), (0, 100_000, 24), (3, MAX_GAP, 24)] {
            let gap = GapRequirement::new(n, m).unwrap();
            let c = OffsetCounts::new(len, gap);
            assert_eq!(c.l1(), gap.l1(len), "l1 keeps the requested gap");
            for l in 1..=(c.l2() + 1) {
                assert_eq!(
                    c.n(l),
                    n_by_position_dp(len, gap, l),
                    "N_{l} mismatch for L={len}, gap=[{n},{m}]"
                );
            }
            let widest = c.f_rows.borrow().iter().map(Vec::len).max().unwrap_or(0);
            assert!(
                widest <= c.l2() * len,
                "f rows {widest} wide for gap [{n},{m}]"
            );
        }
    }

    #[test]
    fn theorem3_holds() {
        let c = counts(1000, 9, 12);
        for l in 2..=12 {
            let (sum, expected) = c.theorem3_sum(l);
            assert_eq!(sum, expected, "Theorem 3 fails at l = {l}");
        }
        let c = counts(50, 1, 4);
        for l in 2..=10 {
            let (sum, expected) = c.theorem3_sum(l);
            assert_eq!(sum, expected, "Theorem 3 fails at l = {l} (wide W)");
        }
    }

    #[test]
    fn f_closed_forms() {
        let c = counts(100, 3, 5); // W = 3
                                   // i ≤ 0 → W^(l−1).
        assert_eq!(c.f(4, 0).to_u64(), Some(27));
        assert_eq!(c.f(4, -5).to_u64(), Some(27));
        // i beyond the band → 0.
        assert!(c.f(4, 7).is_zero());
        assert!(c.f(1, 1).is_zero());
        // f(2, i) = W − i inside the band (shown in the Appendix).
        for i in 1..=2 {
            assert_eq!(c.f(2, i).to_u64(), Some((3 - i) as u64), "f(2,{i})");
        }
    }

    #[test]
    fn rigid_gap_w_equals_one() {
        // W = 1: every pattern has exactly one gap layout; N_l = number
        // of admissible start positions = L − minspan(l) + 1.
        let c = counts(50, 4, 4);
        for l in 1..=c.l2() {
            let span = c.gap().min_span(l);
            assert_eq!(
                c.n(l).to_u64(),
                Some((50 - span + 1) as u64),
                "N_{l} under rigid gap"
            );
        }
    }

    #[test]
    fn n_grows_exponentially_then_dies() {
        let c = counts(1000, 9, 12);
        // Growth by ≈ W per level in the deep-fit regime.
        let n5 = c.n_f64(5);
        let n6 = c.n_f64(6);
        assert!(n6 / n5 > 3.9 && n6 / n5 < 4.0, "ratio {}", n6 / n5);
        // Decay to zero past l2.
        assert!(c.n(c.l2()) > BigUint::zero());
        assert!(c.n(c.l2() + 1).is_zero());
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let c = counts(1000, 9, 12);
        let n77 = c.n(77); // W^76 scale — far beyond u128.
        assert!(n77.bit_len() > 150);
        assert!(c.ln_n(77).is_finite());
        assert!(c.ln_n(101) == f64::NEG_INFINITY);
    }

    #[test]
    fn ln_matches_f64_for_moderate_l() {
        let c = counts(1000, 9, 12);
        for l in 1..=20 {
            let direct = c.n_f64(l).ln();
            assert!((c.ln_n(l) - direct).abs() < 1e-9, "l = {l}");
        }
    }
}
