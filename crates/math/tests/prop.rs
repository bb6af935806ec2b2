//! Property-based tests for the numeric substrate: every operation is
//! checked against `u128` arithmetic on the range where both are defined,
//! and against algebraic laws beyond it.

use perigap_math::{BigRatio, BigUint};
use proptest::prelude::*;

fn big(v: u128) -> BigUint {
    BigUint::from_u128(v)
}

proptest! {
    #[test]
    fn add_matches_u128(a in 0u128..=u128::MAX / 2, b in 0u128..=u128::MAX / 2) {
        prop_assert_eq!((&big(a) + &big(b)).to_u128(), Some(a + b));
    }

    #[test]
    fn sub_matches_u128(a: u128, b: u128) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!((&big(hi) - &big(lo)).to_u128(), Some(hi - lo));
        if hi != lo {
            prop_assert!(big(lo).checked_sub(&big(hi)).is_none());
        }
    }

    #[test]
    fn mul_matches_u128(a in 0u128..=u64::MAX as u128, b in 0u128..=u64::MAX as u128) {
        prop_assert_eq!(big(a).mul_ref(&big(b)).to_u128(), Some(a * b));
    }

    #[test]
    fn mul_commutes_and_associates(a: u64, b: u64, c: u64) {
        let (a, b, c) = (big(a as u128), big(b as u128), big(c as u128));
        prop_assert_eq!(a.mul_ref(&b), b.mul_ref(&a));
        prop_assert_eq!(a.mul_ref(&b).mul_ref(&c), a.mul_ref(&b.mul_ref(&c)));
    }

    #[test]
    fn distributive_law(a: u64, b: u64, c: u64) {
        let (ab, bb, cb) = (big(a as u128), big(b as u128), big(c as u128));
        let lhs = ab.mul_ref(&(&bb + &cb));
        let rhs = &ab.mul_ref(&bb) + &ab.mul_ref(&cb);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn div_rem_reconstructs(a: u128, d in 1u64..=u64::MAX) {
        let (q, r) = big(a).div_rem_u64(d);
        prop_assert!(r < d);
        let mut back = q;
        back.mul_assign_u64(d);
        back.add_assign_ref(&BigUint::from_u64(r));
        prop_assert_eq!(back, big(a));
    }

    #[test]
    fn display_matches_u128(a: u128) {
        prop_assert_eq!(big(a).to_string(), a.to_string());
    }

    #[test]
    fn ordering_matches_u128(a: u128, b: u128) {
        prop_assert_eq!(big(a).cmp(&big(b)), a.cmp(&b));
    }

    #[test]
    fn pow_matches_checked(base in 0u64..=100, exp in 0u32..=20) {
        if let Some(expected) = (base as u128).checked_pow(exp) {
            prop_assert_eq!(big(base as u128).pow(exp).to_u128(), Some(expected));
        }
    }

    #[test]
    fn gcd_properties(a in 1u64..=1_000_000, b in 1u64..=1_000_000) {
        fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        let g = big(a as u128).gcd(&big(b as u128));
        prop_assert_eq!(g.to_u64(), Some(gcd_u64(a, b)));
    }

    #[test]
    fn shift_roundtrip(a in 1u128..=u128::MAX >> 1, bits in 0u64..=200) {
        let shifted = big(a).shl_bits(bits);
        prop_assert_eq!(shifted.bit_len(), big(a).bit_len() + bits);
        let mut back = shifted;
        for _ in 0..bits {
            back.shr1_assign();
        }
        prop_assert_eq!(back, big(a));
    }

    #[test]
    fn to_f64_relative_error(a in 1u128..=u128::MAX) {
        let approx = big(a).to_f64();
        let exact = a as f64;
        prop_assert!((approx - exact).abs() <= exact * 1e-12);
    }

    #[test]
    fn ln_matches_f64(a in 1u128..=u128::MAX) {
        prop_assert!((big(a).ln() - (a as f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn ratio_ordering_matches_f64(n1 in 1u64..10_000, d1 in 1u64..10_000,
                                  n2 in 1u64..10_000, d2 in 1u64..10_000) {
        let r1 = BigRatio::from_u64s(n1, d1);
        let r2 = BigRatio::from_u64s(n2, d2);
        // Cross-multiplication in u128 is exact here.
        let lhs = n1 as u128 * d2 as u128;
        let rhs = n2 as u128 * d1 as u128;
        prop_assert_eq!(r1.cmp(&r2), lhs.cmp(&rhs));
    }

    #[test]
    fn ratio_f64_exact_roundtrip(v in 0.0f64..1e9) {
        let r = BigRatio::from_f64_exact(v);
        prop_assert_eq!(r.to_f64(), v);
    }

    #[test]
    fn ratio_threshold_matches_integer_math(count in 0u64..1000, total in 1u64..1000,
                                            num in 0u64..100, den in 1u64..100) {
        let rho = BigRatio::from_u64s(num, den);
        let expected = count as u128 * den as u128 >= num as u128 * total as u128;
        prop_assert_eq!(
            rho.le_scaled(&BigUint::from_u64(count), &BigUint::from_u64(total)),
            expected
        );
    }
}
