//! # perigap-math
//!
//! Numeric substrate for the *perigap* workspace — the Rust reproduction
//! of "Mining Periodic Patterns with Gap Requirement from Sequences"
//! (Zhang, Kao, Cheung, Yip; SIGMOD 2005).
//!
//! The paper's offset-sequence counts `N_l` grow as `Θ(L · W^(l-1))` and
//! overflow every machine integer for realistic parameters, while its
//! pruning thresholds are ratios of such counts. This crate provides the
//! numeric machinery required to handle both exactly and quickly:
//!
//! * [`BigUint`] — arbitrary-precision unsigned integers (exact counts),
//! * [`BigRatio`] — exact rationals (threshold comparisons that must not
//!   flip with floating-point rounding),
//! * [`combinatorics`] — factorials / binomials / powers for null models.

#![warn(missing_docs)]

pub mod biguint;
pub mod combinatorics;
pub mod rational;

pub use biguint::BigUint;
pub use rational::BigRatio;
