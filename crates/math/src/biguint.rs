//! A minimal arbitrary-precision unsigned integer.
//!
//! The pattern-counting formulas of the paper produce values like
//! `N_l = Θ(L · W^(l-1))`: with `W = 4` and `l = l1 = 77` (the paper's
//! worst-case MPP configuration) this is on the order of `4^76 ≈ 5.7e45`,
//! far beyond `u128`. Rather than pulling in an external bignum crate we
//! implement the handful of operations the counting code needs: addition,
//! subtraction, multiplication, small division, exponentiation, exact
//! comparison, bit manipulation (for binary GCD) and lossy conversion to
//! `f64` / natural logarithm (for the pruning-threshold fast path).
//!
//! Representation: little-endian base-2^64 limbs, normalized so the most
//! significant limb is non-zero (zero is the empty limb vector).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Sub, SubAssign};

/// Arbitrary-precision unsigned integer (little-endian base-2^64 limbs).
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is even (0 is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// Lossy conversion to `u64`; returns `None` if the value does not fit.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Lossy conversion to `u128`; returns `None` if the value does not fit.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// In-place addition.
    pub fn add_assign_ref(&mut self, rhs: &BigUint) {
        let mut carry = 0u64;
        for i in 0..rhs.limbs.len().max(self.limbs.len()) {
            if i >= self.limbs.len() {
                self.limbs.push(0);
            }
            let r = rhs.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = self.limbs[i].overflowing_add(r);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// In-place subtraction; panics if `rhs > self`.
    pub fn sub_assign_ref(&mut self, rhs: &BigUint) {
        assert!(
            *self >= *rhs,
            "BigUint subtraction underflow: {self} - {rhs}"
        );
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let r = rhs.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(r);
            let (d2, b2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }

    /// Checked subtraction; `None` if `rhs > self`.
    pub fn checked_sub(&self, rhs: &BigUint) -> Option<BigUint> {
        if *self < *rhs {
            None
        } else {
            let mut out = self.clone();
            out.sub_assign_ref(rhs);
            Some(out)
        }
    }

    /// Multiplication by a machine word, in place.
    pub fn mul_assign_u64(&mut self, rhs: u64) {
        if rhs == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry = 0u128;
        for limb in &mut self.limbs {
            let prod = *limb as u128 * rhs as u128 + carry;
            *limb = prod as u64;
            carry = prod >> 64;
        }
        if carry != 0 {
            self.limbs.push(carry as u64);
        }
    }

    /// Schoolbook multiplication. Counting workloads multiply numbers of a
    /// few dozen limbs at most, so the quadratic algorithm is the right
    /// tool (Karatsuba's constant overhead would not pay off).
    pub fn mul_ref(&self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + rhs.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self^exp` by binary exponentiation.
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul_ref(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul_ref(&base);
            }
        }
        acc
    }

    /// Division by a machine word; returns `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics if `divisor == 0`.
    pub fn div_rem_u64(&self, divisor: u64) -> (BigUint, u64) {
        assert!(divisor != 0, "division by zero");
        let mut quot = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            quot[i] = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        let mut q = BigUint { limbs: quot };
        q.normalize();
        (q, rem as u64)
    }

    /// Right-shift by one bit, in place.
    pub fn shr1_assign(&mut self) {
        let mut carry = 0u64;
        for limb in self.limbs.iter_mut().rev() {
            let new_carry = *limb & 1;
            *limb = (*limb >> 1) | (carry << 63);
            carry = new_carry;
        }
        self.normalize();
    }

    /// Left-shift by `bits` bits.
    pub fn shl_bits(&self, bits: u64) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Number of trailing zero bits; `None` for the value 0.
    pub fn trailing_zeros(&self) -> Option<u64> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i as u64 * 64 + l.trailing_zeros() as u64);
            }
        }
        None
    }

    /// Greatest common divisor (binary/Stein algorithm — needs only
    /// shifts and subtraction, which keeps this type free of full
    /// multi-word division). Once either operand fits a word, one
    /// [`BigUint::div_rem_u64`] and word-sized Euclid finish the job.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        let mut a = self.clone();
        let mut b = other.clone();
        let za = a.trailing_zeros().expect("a is non-zero");
        let zb = b.trailing_zeros().expect("b is non-zero");
        let shift = za.min(zb);
        // Strip all factors of two, remembering the common ones.
        for _ in 0..za {
            a.shr1_assign();
        }
        for _ in 0..zb {
            b.shr1_assign();
        }
        loop {
            // Invariant: a and b are both odd. Against a one-word operand
            // the subtract-and-shift pass below sheds only about two bits
            // of the other per round, shifting every limb each time —
            // O(bits × limbs) for a ratio like ρ·N_l with ρ's 2^66
            // denominator — so reduce it with one word division instead.
            let word = match (a.to_u64(), b.to_u64()) {
                (Some(x), _) => Some((x, &b)),
                (None, Some(y)) => Some((y, &a)),
                (None, None) => None,
            };
            if let Some((x, big)) = word {
                let (_, r) = big.div_rem_u64(x);
                return BigUint::from_u64(gcd_u64(x, r)).shl_bits(shift);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b.sub_assign_ref(&a);
            if b.is_zero() {
                return a.shl_bits(shift);
            }
            let z = b.trailing_zeros().expect("b is non-zero");
            for _ in 0..z {
                b.shr1_assign();
            }
        }
    }

    /// Lossy conversion to `f64`. Values above `f64::MAX` become
    /// `f64::INFINITY`.
    pub fn to_f64(&self) -> f64 {
        match self.limbs.len() {
            0 => 0.0,
            1 => self.limbs[0] as f64,
            2 => self.to_u128().expect("two limbs fit in u128") as f64,
            n => {
                // Take the top 128 bits as the mantissa source and scale.
                let hi = self.limbs[n - 1] as u128;
                let mid = self.limbs[n - 2] as u128;
                let top = (hi << 64) | mid;
                let exp = (n as i32 - 2) * 64;
                (top as f64) * 2f64.powi(exp)
            }
        }
    }

    /// Decompose as `(mant, exp)` with the value equal to `mant · 2^exp`
    /// and `mant` holding the top (up to) 128 bits exactly. Unlike
    /// [`BigUint::to_f64`] this never overflows, so callers can form
    /// ratios of huge values without losing precision.
    pub fn to_f64_parts(&self) -> (f64, i64) {
        match self.limbs.len() {
            0 => (0.0, 0),
            1 => (self.limbs[0] as f64, 0),
            2 => (self.to_u128().expect("two limbs fit in u128") as f64, 0),
            n => {
                let hi = self.limbs[n - 1] as u128;
                let mid = self.limbs[n - 2] as u128;
                let top = (hi << 64) | mid;
                (top as f64, (n as i64 - 2) * 64)
            }
        }
    }

    /// Natural logarithm as `f64`. Accurate to f64 precision even for
    /// values whose `to_f64` would overflow.
    ///
    /// # Panics
    /// Panics if the value is 0.
    pub fn ln(&self) -> f64 {
        assert!(!self.is_zero(), "ln(0) is undefined");
        let n = self.limbs.len();
        if n <= 2 {
            return (self.to_u128().expect("fits") as f64).ln();
        }
        let hi = self.limbs[n - 1] as u128;
        let mid = self.limbs[n - 2] as u128;
        let top = (hi << 64) | mid;
        let exp = (n as f64 - 2.0) * 64.0;
        (top as f64).ln() + exp * std::f64::consts::LN_2
    }
}

/// Euclid's algorithm on machine words.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_u128(v)
    }
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.add_assign_ref(rhs);
        out
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        self.add_assign_ref(rhs);
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.sub_assign_ref(rhs);
        out
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        self.sub_assign_ref(rhs);
    }
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_ref(rhs)
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = self.mul_ref(rhs);
    }
}

/// Error returned when parsing a decimal string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError {
    /// The offending character, if any (empty input otherwise).
    pub bad_char: Option<char>,
}

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bad_char {
            Some(c) => write!(f, "invalid digit {c:?} in BigUint literal"),
            None => f.write_str("empty BigUint literal"),
        }
    }
}

impl std::error::Error for ParseBigUintError {}

impl std::str::FromStr for BigUint {
    type Err = ParseBigUintError;

    /// Parse a decimal literal; `_` separators are permitted
    /// (`"235_012_096"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut any = false;
        let mut acc = BigUint::zero();
        for ch in s.chars() {
            if ch == '_' {
                continue;
            }
            let digit = ch
                .to_digit(10)
                .ok_or(ParseBigUintError { bad_char: Some(ch) })?;
            acc.mul_assign_u64(10);
            acc.add_assign_ref(&BigUint::from_u64(digit as u64));
            any = true;
        }
        if !any {
            return Err(ParseBigUintError { bad_char: None });
        }
        Ok(acc)
    }
}

impl std::iter::Sum for BigUint {
    fn sum<I: Iterator<Item = BigUint>>(iter: I) -> BigUint {
        let mut acc = BigUint::zero();
        for v in iter {
            acc.add_assign_ref(&v);
        }
        acc
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Peel off base-10^19 chunks (the largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut s = chunks
            .pop()
            .expect("non-zero has at least one chunk")
            .to_string();
        for c in chunks.iter().rev() {
            s.push_str(&format!("{c:019}"));
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().to_u64(), Some(0));
        assert_eq!(BigUint::one().to_u64(), Some(1));
        assert_eq!(BigUint::from_u64(0), BigUint::zero());
    }

    #[test]
    fn add_with_carry() {
        let a = big(u128::MAX);
        let one = BigUint::one();
        let sum = &a + &one;
        assert_eq!(sum.to_string(), "340282366920938463463374607431768211456");
        assert_eq!(sum.bit_len(), 129);
    }

    #[test]
    fn sub_basic_and_underflow() {
        let a = big(1 << 70);
        let b = big((1 << 70) - 12345);
        assert_eq!((&a - &b).to_u64(), Some(12345));
        assert!(b.checked_sub(&a).is_none());
        assert_eq!(a.checked_sub(&a).unwrap(), BigUint::zero());
    }

    #[test]
    fn mul_matches_u128() {
        let a = 123_456_789_012_345u128;
        let b = 987_654_321_098u128;
        assert_eq!(big(a).mul_ref(&big(b)).to_u128(), Some(a * b));
    }

    #[test]
    fn mul_u64_inplace() {
        let mut a = big(u128::MAX / 7);
        a.mul_assign_u64(7);
        assert_eq!(a.to_u128(), Some((u128::MAX / 7) * 7));
        let mut z = big(123);
        z.mul_assign_u64(0);
        assert!(z.is_zero());
    }

    #[test]
    fn pow_small() {
        assert_eq!(big(2).pow(10).to_u64(), Some(1024));
        assert_eq!(big(4).pow(0).to_u64(), Some(1));
        assert_eq!(big(0).pow(5), BigUint::zero());
        assert_eq!(big(10).pow(19).to_string(), "10000000000000000000");
    }

    #[test]
    fn pow_large_bit_len() {
        // 4^76 has exactly 153 bits (2^152).
        assert_eq!(big(4).pow(76).bit_len(), 153);
    }

    #[test]
    fn div_rem_small() {
        let a = big(10).pow(30);
        let (q, r) = a.div_rem_u64(7);
        assert_eq!(r, 10u128.pow(15).pow(2).rem_euclid(7) as u64 % 7);
        let mut back = q;
        back.mul_assign_u64(7);
        back.add_assign_ref(&BigUint::from_u64(r));
        assert_eq!(back, big(10).pow(30));
    }

    #[test]
    fn display_round_trips_u128() {
        let v = 340282366920938463463374607431768211455u128;
        assert_eq!(big(v).to_string(), v.to_string());
        assert_eq!(big(0).to_string(), "0");
        assert_eq!(big(19).to_string(), "19");
    }

    #[test]
    fn ordering() {
        assert!(big(5) < big(6));
        assert!(big(u128::MAX) > big(u128::MAX - 1));
        assert!(big(2).pow(200) > big(2).pow(199));
        assert_eq!(big(42).cmp(&big(42)), Ordering::Equal);
    }

    #[test]
    fn to_f64_small_and_large() {
        assert_eq!(big(0).to_f64(), 0.0);
        assert_eq!(big(12345).to_f64(), 12345.0);
        let v = big(2).pow(200);
        let expected = 2f64.powi(200);
        assert!((v.to_f64() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn ln_large() {
        let v = big(4).pow(76);
        let expected = 76.0 * 4f64.ln();
        assert!((v.ln() - expected).abs() < 1e-9);
        assert!((big(1).ln() - 0.0).abs() < 1e-15);
    }

    #[test]
    fn from_str_decimal() {
        let v: BigUint = "235012096".parse().unwrap();
        assert_eq!(v.to_u64(), Some(235_012_096));
        let v: BigUint = "235_012_096".parse().unwrap();
        assert_eq!(v.to_u64(), Some(235_012_096));
        let v: BigUint = "0".parse().unwrap();
        assert!(v.is_zero());
        // Round-trip a 50-digit number through Display.
        let big = BigUint::from_u64(7).pow(60);
        let back: BigUint = big.to_string().parse().unwrap();
        assert_eq!(back, big);
        assert!("".parse::<BigUint>().is_err());
        assert!("12a4".parse::<BigUint>().is_err());
        assert!("-5".parse::<BigUint>().is_err());
    }

    #[test]
    fn sum_iterator() {
        let total: BigUint = (1..=100u64).map(BigUint::from_u64).sum();
        assert_eq!(total.to_u64(), Some(5050));
        let empty: BigUint = std::iter::empty().sum();
        assert!(empty.is_zero());
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(big(12).gcd(&big(18)).to_u64(), Some(6));
        assert_eq!(big(0).gcd(&big(5)).to_u64(), Some(5));
        assert_eq!(big(5).gcd(&big(0)).to_u64(), Some(5));
        assert_eq!(big(17).gcd(&big(13)).to_u64(), Some(1));
        let a = big(2).pow(100).mul_ref(&big(3).pow(5));
        let b = big(2).pow(90).mul_ref(&big(3).pow(7));
        assert_eq!(a.gcd(&b), big(2).pow(90).mul_ref(&big(3).pow(5)));
    }

    #[test]
    fn gcd_against_a_one_word_operand() {
        // 3^4000·2^5·7 (about 6,300 bits) against 2^66·7, which strips
        // to the one-word 7: the word-division path.
        let a = big(3).pow(4000).mul_ref(&big(2).pow(5)).mul_ref(&big(7));
        let b = big(2).pow(66).mul_ref(&big(7));
        assert_eq!(a.gcd(&b).to_u64(), Some(224));
        assert_eq!(b.gcd(&a).to_u64(), Some(224));
        assert_eq!(a.gcd(&BigUint::one()), BigUint::one());
        assert_eq!(BigUint::one().gcd(&a), BigUint::one());
        assert_eq!(big(2).pow(200).gcd(&big(2).pow(66)), big(2).pow(66));
        // Both operands multi-word until the subtraction loop shrinks one.
        let c = big(3).pow(90).mul_ref(&big(11));
        let d = big(3).pow(85).mul_ref(&big(13));
        assert_eq!(c.gcd(&d), big(3).pow(85));
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1).shl_bits(130).bit_len(), 131);
        let mut v = big(1).shl_bits(130);
        v.shr1_assign();
        assert_eq!(v.bit_len(), 130);
        assert_eq!(big(6).trailing_zeros(), Some(1));
        assert_eq!(BigUint::zero().trailing_zeros(), None);
        assert_eq!(big(1).shl_bits(64).trailing_zeros(), Some(64));
    }
}
