//! Exact non-negative rational numbers over [`BigUint`].
//!
//! Frequency thresholds arrive as `f64` values (e.g. `ρs = 0.003% =
//! 0.00003`) but the frequent/infrequent decision `sup(P) ≥ ρs · N_l`
//! must be made exactly: `N_l` can exceed `f64` precision and a support
//! count sitting right on the threshold must not flip with rounding.
//! `BigRatio` converts the `f64` threshold to its exact binary rational
//! and compares by cross-multiplication.

use crate::biguint::BigUint;
use std::cmp::Ordering;
use std::fmt;

/// An exact non-negative rational number `num / den` (`den > 0`),
/// kept in lowest terms.
#[derive(Clone, PartialEq, Eq)]
pub struct BigRatio {
    num: BigUint,
    den: BigUint,
}

impl BigRatio {
    /// The value 0.
    pub fn zero() -> Self {
        BigRatio {
            num: BigUint::zero(),
            den: BigUint::one(),
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigRatio {
            num: BigUint::one(),
            den: BigUint::one(),
        }
    }

    /// Construct `num / den` and reduce to lowest terms.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: BigUint, den: BigUint) -> Self {
        assert!(!den.is_zero(), "BigRatio denominator must be non-zero");
        let mut r = BigRatio { num, den };
        r.reduce();
        r
    }

    /// Construct from machine integers.
    pub fn from_u64s(num: u64, den: u64) -> Self {
        Self::new(BigUint::from_u64(num), BigUint::from_u64(den))
    }

    /// Construct the integer `v`.
    pub fn from_integer(v: BigUint) -> Self {
        BigRatio {
            num: v,
            den: BigUint::one(),
        }
    }

    /// Exact conversion from a finite non-negative `f64`.
    ///
    /// Every finite `f64` is a dyadic rational `mant · 2^exp`; we decode
    /// the IEEE-754 representation directly so the conversion is exact.
    ///
    /// # Panics
    /// Panics on negative, NaN or infinite input.
    pub fn from_f64_exact(v: f64) -> Self {
        assert!(
            v.is_finite() && v >= 0.0,
            "need a finite non-negative f64, got {v}"
        );
        if v == 0.0 {
            return Self::zero();
        }
        let bits = v.to_bits();
        let raw_exp = ((bits >> 52) & 0x7ff) as i64;
        let raw_mant = bits & ((1u64 << 52) - 1);
        let (mant, exp) = if raw_exp == 0 {
            // Subnormal: value = mant · 2^(-1074)
            (raw_mant, -1074i64)
        } else {
            // Normal: value = (2^52 + mant) · 2^(exp - 1075)
            (raw_mant | (1u64 << 52), raw_exp - 1075)
        };
        let m = BigUint::from_u64(mant);
        if exp >= 0 {
            BigRatio::new(m.shl_bits(exp as u64), BigUint::one())
        } else {
            BigRatio::new(m, BigUint::one().shl_bits((-exp) as u64))
        }
    }

    fn reduce(&mut self) {
        if self.num.is_zero() {
            self.den = BigUint::one();
            return;
        }
        let g = self.num.gcd(&self.den);
        if g != BigUint::one() {
            self.num = exact_div(&self.num, &g);
            self.den = exact_div(&self.den, &g);
        }
    }

    /// Numerator (lowest terms).
    pub fn numer(&self) -> &BigUint {
        &self.num
    }

    /// Denominator (lowest terms).
    pub fn denom(&self) -> &BigUint {
        &self.den
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Exact multiplication.
    pub fn mul(&self, rhs: &BigRatio) -> BigRatio {
        BigRatio::new(self.num.mul_ref(&rhs.num), self.den.mul_ref(&rhs.den))
    }

    /// Exact division.
    ///
    /// # Panics
    /// Panics when dividing by zero.
    pub fn div(&self, rhs: &BigRatio) -> BigRatio {
        assert!(!rhs.is_zero(), "BigRatio division by zero");
        BigRatio::new(self.num.mul_ref(&rhs.den), self.den.mul_ref(&rhs.num))
    }

    /// Exact addition.
    pub fn add(&self, rhs: &BigRatio) -> BigRatio {
        let num = &self.num.mul_ref(&rhs.den) + &rhs.num.mul_ref(&self.den);
        BigRatio::new(num, self.den.mul_ref(&rhs.den))
    }

    /// Compare `self` with the integer `v` exactly: returns the ordering of
    /// `self` relative to `v`.
    pub fn cmp_integer(&self, v: &BigUint) -> Ordering {
        self.num.cmp(&v.mul_ref(&self.den))
    }

    /// Decide `count ≥ self · total` exactly — the frequent-pattern test
    /// with `self = ρs`, `count = sup(P)`, `total = N_l`.
    pub fn le_scaled(&self, count: &BigUint, total: &BigUint) -> bool {
        // count ≥ (num/den)·total  ⇔  count·den ≥ num·total
        count.mul_ref(&self.den) >= self.num.mul_ref(total)
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        if self.num.is_zero() {
            return 0.0;
        }
        let (nm, ne) = self.num.to_f64_parts();
        let (dm, de) = self.den.to_f64_parts();
        let shift = ne - de;
        if let Ok(shift) = i32::try_from(shift) {
            (nm / dm) * 2f64.powi(shift)
        } else if shift > 0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

/// Division known to be exact (divisor divides dividend).
///
/// We only have word division on `BigUint`; exact multi-word division is
/// done by repeated word division of the divisor when it fits, otherwise
/// by binary long division via shifts and subtraction.
fn exact_div(dividend: &BigUint, divisor: &BigUint) -> BigUint {
    if let Some(small) = divisor.to_u64() {
        let (q, r) = dividend.div_rem_u64(small);
        debug_assert_eq!(r, 0, "exact_div called with non-divisor");
        return q;
    }
    // Binary long division: subtract shifted divisors from high to low.
    let mut rem = dividend.clone();
    let mut quot = BigUint::zero();
    let shift_max = dividend.bit_len().saturating_sub(divisor.bit_len());
    for s in (0..=shift_max).rev() {
        let d = divisor.shl_bits(s);
        if let Some(next) = rem.checked_sub(&d) {
            rem = next;
            quot.add_assign_ref(&BigUint::one().shl_bits(s));
        }
    }
    debug_assert!(rem.is_zero(), "exact_div called with non-divisor");
    quot
}

impl PartialOrd for BigRatio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigRatio {
    fn cmp(&self, other: &Self) -> Ordering {
        self.num
            .mul_ref(&other.den)
            .cmp(&other.num.mul_ref(&self.den))
    }
}

impl fmt::Display for BigRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Debug for BigRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigRatio({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio(n: u64, d: u64) -> BigRatio {
        BigRatio::from_u64s(n, d)
    }

    #[test]
    fn reduces_to_lowest_terms() {
        let r = ratio(6, 8);
        assert_eq!(r.numer().to_u64(), Some(3));
        assert_eq!(r.denom().to_u64(), Some(4));
        assert_eq!(ratio(0, 5), BigRatio::zero());
    }

    #[test]
    fn arithmetic() {
        let a = ratio(1, 3);
        let b = ratio(1, 6);
        assert_eq!(a.add(&b), ratio(1, 2));
        assert_eq!(a.mul(&b), ratio(1, 18));
        assert_eq!(a.div(&b), ratio(2, 1));
    }

    #[test]
    fn ordering_cross_multiplies() {
        assert!(ratio(1, 3) < ratio(1, 2));
        assert!(ratio(2, 4) == ratio(1, 2));
        assert!(ratio(7, 8) > ratio(6, 7));
    }

    #[test]
    fn f64_conversion_is_exact_for_dyadics() {
        let r = BigRatio::from_f64_exact(0.375);
        assert_eq!(r, ratio(3, 8));
        let r = BigRatio::from_f64_exact(5.0);
        assert_eq!(r, ratio(5, 1));
        let r = BigRatio::from_f64_exact(0.0);
        assert!(r.is_zero());
    }

    #[test]
    fn f64_conversion_round_trips() {
        for &v in &[0.00003f64, 0.0015e-2, 1.5e-5, 123.456, 1e-300] {
            let r = BigRatio::from_f64_exact(v);
            assert_eq!(r.to_f64(), v, "round trip of {v}");
        }
    }

    #[test]
    fn threshold_test_le_scaled() {
        // rho = 1/4; N = 100 → threshold is 25.
        let rho = ratio(1, 4);
        let total = BigUint::from_u64(100);
        assert!(rho.le_scaled(&BigUint::from_u64(25), &total));
        assert!(rho.le_scaled(&BigUint::from_u64(26), &total));
        assert!(!rho.le_scaled(&BigUint::from_u64(24), &total));
    }

    #[test]
    fn threshold_exact_on_huge_totals() {
        // total = 4^80, rho = 1/4^40 → threshold exactly 4^40.
        let rho = BigRatio::new(BigUint::one(), BigUint::from_u64(4).pow(40));
        let total = BigUint::from_u64(4).pow(80);
        let thr = BigUint::from_u64(4).pow(40);
        assert!(rho.le_scaled(&thr, &total));
        assert!(!rho.le_scaled(&thr.checked_sub(&BigUint::one()).unwrap(), &total));
    }

    #[test]
    fn rho_times_a_huge_integer_reduces_exactly() {
        // 1e-4 is an odd 53-bit mantissa over 2^66. An odd factor keeps
        // that denominator; 2^70 more cancels it into an integer.
        let rho = BigRatio::from_f64_exact(1e-4);
        let two66 = BigUint::from_u64(2).pow(66);
        assert_eq!(*rho.denom(), two66);
        let odd = BigUint::from_u64(3).pow(4000);
        let kept = rho.mul(&BigRatio::from_integer(odd.clone()));
        assert_eq!(*kept.denom(), two66);
        assert_eq!(*kept.numer(), rho.numer().mul_ref(&odd));
        let even = odd.mul_ref(&BigUint::from_u64(2).pow(70));
        let whole = rho.mul(&BigRatio::from_integer(even));
        assert_eq!(*whole.denom(), BigUint::one());
        assert_eq!(
            *whole.numer(),
            rho.numer().mul_ref(&odd).mul_ref(&BigUint::from_u64(16))
        );
    }

    #[test]
    fn exact_div_multiword() {
        let a = BigUint::from_u64(7).pow(50);
        let b = BigUint::from_u64(7).pow(20);
        assert_eq!(super::exact_div(&a, &b), BigUint::from_u64(7).pow(30));
    }

    #[test]
    fn cmp_integer() {
        assert_eq!(
            ratio(9, 2).cmp_integer(&BigUint::from_u64(4)),
            Ordering::Greater
        );
        assert_eq!(
            ratio(8, 2).cmp_integer(&BigUint::from_u64(4)),
            Ordering::Equal
        );
        assert_eq!(
            ratio(7, 2).cmp_integer(&BigUint::from_u64(4)),
            Ordering::Less
        );
    }
}
