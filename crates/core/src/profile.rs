//! Per-position gap profiles — the generalized pattern form of the
//! paper's introduction.
//!
//! The introduction defines patterns `s_i s_(i+g1) s_(i+g1+g2) …` where
//! *each* `g_j` is its own range; the formal model then fixes one
//! `[N, M]` for every position. This module implements the general
//! form: a [`GapProfile`] assigns every step its own requirement, so a
//! protein miner can demand, say, 28–29 residues between repeats 1→2
//! but 26–28 between 2→3 (the porcine ribonuclease inhibitor's
//! alternating 29/28 unit from Section 1).
//!
//! PIL joins assume a shared gap and do not survive the
//! generalization; instead the miner grows patterns from the left with
//! **end-anchored index lists** (`EIL(P)(y)` = offset sequences of `P`
//! ending at `y`), which extend one character at a time under the
//! step-specific requirement. Pruning uses the Theorem 1 argument
//! verbatim with `W^d` replaced by the product of the trailing
//! flexibilities.

use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::mpp::{check_rho, SEED_LEVEL};
use crate::pattern::Pattern;
use crate::result::{FrequentPattern, LevelStats, MineOutcome, MineStats};
use perigap_math::{BigRatio, BigUint};
use perigap_seq::Sequence;
use std::collections::HashMap;
use std::time::Instant;

/// A per-step gap profile: `steps()[j]` constrains the wild-card run
/// between pattern characters `j+1` and `j+2` (1-based characters).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GapProfile {
    steps: Vec<GapRequirement>,
}

impl GapProfile {
    /// A profile from explicit per-step requirements; supports patterns
    /// up to `steps.len() + 1` characters.
    pub fn new(steps: Vec<GapRequirement>) -> Result<GapProfile, MineError> {
        if steps.is_empty() {
            return Err(MineError::InvalidConfig {
                setting: "steps",
                reason: "needs at least one gap requirement".into(),
            });
        }
        Ok(GapProfile { steps })
    }

    /// The paper's uniform model: the same `[N, M]` at every step, for
    /// patterns up to `max_len` characters.
    pub fn uniform(gap: GapRequirement, max_len: usize) -> GapProfile {
        GapProfile {
            steps: vec![gap; max_len.saturating_sub(1).max(1)],
        }
    }

    /// Per-step requirements.
    pub fn steps(&self) -> &[GapRequirement] {
        &self.steps
    }

    /// Longest pattern this profile can describe.
    pub fn max_pattern_len(&self) -> usize {
        self.steps.len() + 1
    }

    /// The requirement governing step `j` (0-based: between characters
    /// `j+1` and `j+2`).
    ///
    /// # Panics
    /// Panics when `j` is beyond the profile.
    pub fn gap_at(&self, j: usize) -> GapRequirement {
        self.steps[j]
    }

    /// Minimum span of a length-`l` pattern under this profile.
    pub fn min_span(&self, l: usize) -> usize {
        if l == 0 {
            return 0;
        }
        l + self.steps[..l - 1].iter().map(|g| g.min()).sum::<usize>()
    }

    /// Product of the flexibilities of steps `from..to` (0-based,
    /// exclusive `to`) — the Theorem 1 divisor for trailing
    /// perturbations.
    fn flexibility_product(&self, from: usize, to: usize) -> BigUint {
        let mut acc = BigUint::one();
        for g in &self.steps[from..to] {
            acc.mul_assign_u64(g.flexibility() as u64);
        }
        acc
    }
}

/// Number of length-`l` offset sequences under a profile, by position
/// DP (no closed form exists for heterogeneous steps).
pub fn profile_n(seq_len: usize, profile: &GapProfile, l: usize) -> BigUint {
    if l == 0 {
        return BigUint::one();
    }
    if l > profile.max_pattern_len() || seq_len == 0 {
        return BigUint::zero();
    }
    let mut ways = vec![BigUint::one(); seq_len];
    for step_idx in 0..l - 1 {
        let gap = profile.gap_at(step_idx);
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

/// Reference support of `pattern` under a profile (position DP oracle).
pub fn support_dp_profile(seq: &Sequence, profile: &GapProfile, pattern: &Pattern) -> u128 {
    if pattern.is_empty() || seq.is_empty() || pattern.len() > profile.max_pattern_len() {
        return 0;
    }
    let len = seq.len();
    let mut ways = vec![0u128; len + 1];
    for (slot, &code) in seq.codes().iter().enumerate() {
        if code == pattern.at1(1) {
            ways[slot + 1] = 1;
        }
    }
    for k in 2..=pattern.len() {
        let gap = profile.gap_at(k - 2);
        let target = pattern.at1(k);
        let mut next = vec![0u128; len + 1];
        for (c, &w) in ways.iter().enumerate().skip(1) {
            if w == 0 {
                continue;
            }
            for step in gap.steps() {
                let t = c + step;
                if t > len {
                    break;
                }
                if seq.at1(t) == target {
                    next[t] = next[t].saturating_add(w);
                }
            }
        }
        ways = next;
    }
    ways.iter().fold(0u128, |acc, &w| acc.saturating_add(w))
}

/// End-anchored index list: `(end offset, count)` ascending — the
/// left-to-right dual of [`crate::pil::Pil`].
type Eil = Vec<(u32, u128)>;

fn eil_support(eil: &Eil) -> u128 {
    eil.iter().fold(0u128, |acc, &(_, c)| acc.saturating_add(c))
}

/// Mine frequent patterns under a gap profile, complete for lengths up
/// to `n` (clamped to the profile's capacity). Like every mine, it
/// reports patterns from [`SEED_LEVEL`] on, or from the profile's
/// longest pattern if that is shorter.
///
/// `rho` is the usual support-ratio threshold against the profile's own
/// `N_l` ([`profile_n`]).
pub fn mine_with_profile(
    seq: &Sequence,
    profile: &GapProfile,
    rho: f64,
    n: usize,
) -> Result<MineOutcome, MineError> {
    check_rho(rho)?;
    let started = Instant::now();
    let max_len = profile.max_pattern_len();
    let start = SEED_LEVEL.min(max_len);
    if seq.len() < profile.min_span(start) {
        return Err(MineError::SequenceTooShort {
            len: seq.len(),
            needed: profile.min_span(start),
        });
    }
    let rho_exact = BigRatio::from_f64_exact(rho);
    let n = n.clamp(start, max_len);
    let sigma = seq.alphabet().size() as u8;

    // N_l table for every reachable level.
    let n_table: Vec<BigUint> = (0..=max_len)
        .map(|l| profile_n(seq.len(), profile, l))
        .collect();
    let n_n = n_table[n].clone();

    // Seed: EILs of every length-1 pattern.
    let mut current: HashMap<Pattern, Eil> = HashMap::new();
    for code in 0..sigma {
        let eil: Eil = seq
            .codes()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == code)
            .map(|(i, _)| ((i + 1) as u32, 1u128))
            .collect();
        if !eil.is_empty() {
            current.insert(Pattern::from_codes(vec![code]), eil);
        }
    }
    // Grow to the start level unconditionally (shorter patterns are not
    // reported, mirroring the paper's "start at length 3").
    let mut level = 1;
    while level < start {
        current = extend_all(seq, profile, current, level - 1, sigma);
        level += 1;
    }

    let mut stats = MineStats {
        n_used: n,
        ..MineStats::default()
    };
    let mut frequent = Vec::new();
    let mut candidates_at_level = (sigma as u128).saturating_pow(start as u32);

    while level <= max_len && !current.is_empty() {
        let level_started = Instant::now();
        let n_l = &n_table[level];
        if n_l.is_zero() {
            break;
        }
        // Thresholds: exact = ρ·N_l; relaxed = ρ·N_n / Π trailing W.
        let exact_rhs = rho_exact.mul(&BigRatio::from_integer(n_l.clone()));
        let relaxed_divisor = if level < n {
            profile.flexibility_product(level.saturating_sub(1), n - 1)
        } else {
            BigUint::one()
        };
        let relaxed_rhs = rho_exact.mul(&BigRatio::from_integer(n_n.clone()));

        let n_l_f64 = n_l.to_f64();
        let mut kept: HashMap<Pattern, Eil> = HashMap::new();
        let mut frequent_here = 0usize;
        for (pattern, eil) in current.drain() {
            let sup = eil_support(&eil);
            let sup_big = BigUint::from_u128(sup);
            if sup_big.mul_ref(exact_rhs.denom()) >= *exact_rhs.numer() {
                frequent.push(FrequentPattern {
                    pattern: pattern.clone(),
                    support: sup,
                    ratio: sup as f64 / n_l_f64,
                });
                frequent_here += 1;
            }
            let lhs = sup_big.mul_ref(&relaxed_divisor);
            let passes_relaxed = if level < n {
                lhs.mul_ref(relaxed_rhs.denom()) >= *relaxed_rhs.numer()
            } else {
                sup_big.mul_ref(exact_rhs.denom()) >= *exact_rhs.numer()
            };
            if passes_relaxed {
                kept.insert(pattern, eil);
            }
        }
        stats.levels.push(LevelStats {
            level,
            candidates: candidates_at_level,
            frequent: frequent_here,
            extended: kept.len(),
            elapsed: level_started.elapsed(),
        });
        if kept.is_empty() || level == max_len {
            break;
        }
        candidates_at_level = (kept.len() as u128).saturating_mul(sigma as u128);
        current = extend_all(seq, profile, kept, level - 1, sigma);
        level += 1;
    }

    stats.total_elapsed = started.elapsed();
    let mut outcome = MineOutcome { frequent, stats };
    outcome.sort();
    Ok(outcome)
}

/// Extend every pattern by every character under step `step_idx`.
fn extend_all(
    seq: &Sequence,
    profile: &GapProfile,
    current: HashMap<Pattern, Eil>,
    step_idx: usize,
    sigma: u8,
) -> HashMap<Pattern, Eil> {
    let gap = profile.gap_at(step_idx);
    let len = seq.len();
    let mut next: HashMap<Pattern, Eil> = HashMap::new();
    for (pattern, eil) in current {
        // Bucket successor ends per character, accumulating counts in
        // offset order via a dense scratch map.
        let mut buckets: Vec<HashMap<u32, u128>> = vec![HashMap::new(); sigma as usize];
        for &(y, count) in &eil {
            for step in gap.steps() {
                let target = y as usize + step;
                if target > len {
                    break;
                }
                let ch = seq.at1(target) as usize;
                *buckets[ch].entry(target as u32).or_insert(0) += count;
            }
        }
        for (ch, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut eil: Eil = bucket.into_iter().collect();
            eil.sort_unstable_by_key(|&(y, _)| y);
            let mut codes = pattern.codes().to_vec();
            codes.push(ch as u8);
            next.insert(Pattern::from_codes(codes), eil);
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::OffsetCounts;
    use crate::mpp::{mpp, MppConfig};
    use crate::naive::support_dp;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    #[test]
    fn uniform_profile_matches_mpp() {
        let seq = uniform(&mut StdRng::seed_from_u64(81), Alphabet::Dna, 120);
        let g = gap(1, 3);
        let rho = 0.002;
        let n = 10;
        let reference = mpp(&seq, g, rho, n, MppConfig::default()).unwrap();
        let profile = GapProfile::uniform(g, 15);
        let mined = mine_with_profile(&seq, &profile, rho, n).unwrap();
        assert_eq!(mined.frequent.len(), reference.frequent.len());
        for f in &reference.frequent {
            let found = mined.get(&f.pattern).expect("profile miner finds it");
            assert_eq!(found.support, f.support);
        }
    }

    #[test]
    fn profile_n_matches_uniform_counts() {
        let g = gap(2, 4);
        let counts = OffsetCounts::new(60, g);
        let profile = GapProfile::uniform(g, 12);
        for l in 0..=12 {
            assert_eq!(profile_n(60, &profile, l), counts.n(l), "l = {l}");
        }
    }

    #[test]
    fn support_oracle_matches_uniform_dp() {
        let seq = uniform(&mut StdRng::seed_from_u64(82), Alphabet::Dna, 80);
        let g = gap(1, 2);
        let profile = GapProfile::uniform(g, 8);
        for text in ["ACG", "TTTT", "GATC"] {
            let p = Pattern::parse(text, &Alphabet::Dna).unwrap();
            assert_eq!(
                support_dp_profile(&seq, &profile, &p),
                support_dp(&seq, g, &p),
                "pattern {text}"
            );
        }
    }

    #[test]
    fn heterogeneous_profile_counts_by_hand() {
        // S = ACGTA (L=5); profile: step0 gap [1,1] (step 2), step1 gap
        // [0,0] (step 1). Offset seqs of length 3: [c1, c1+2, c1+3] with
        // c1+3 ≤ 5 → c1 ∈ {1, 2}: N_3 = 2.
        let profile = GapProfile::new(vec![gap(1, 1), gap(0, 0)]).unwrap();
        assert_eq!(profile_n(5, &profile, 3).to_u64(), Some(2));
        assert_eq!(profile.max_pattern_len(), 3);
        assert_eq!(profile.min_span(3), 3 + 1);
        // Pattern AGT matches S=ACGTA at [1,3,4]: sup = 1.
        let seq = Sequence::dna("ACGTA").unwrap();
        let p = Pattern::parse("AGT", &Alphabet::Dna).unwrap();
        assert_eq!(support_dp_profile(&seq, &profile, &p), 1);
    }

    #[test]
    fn heterogeneous_mining_finds_planted_structure() {
        // Background of C; plant A .. A . A structures: gaps exactly 2
        // then 1.
        let mut codes = vec![1u8; 100];
        for start in (0..90).step_by(10) {
            codes[start] = 0;
            codes[start + 3] = 0;
            codes[start + 5] = 0;
        }
        let seq = Sequence::from_codes(Alphabet::Dna, codes).unwrap();
        let profile = GapProfile::new(vec![gap(2, 2), gap(1, 1)]).unwrap();
        let mined = mine_with_profile(&seq, &profile, 0.05, 3).unwrap();
        let aaa = Pattern::from_codes(vec![0, 0, 0]);
        let found = mined.get(&aaa).expect("planted AAA under the profile");
        assert_eq!(found.support, 9);
        // The same pattern under the *reversed* profile does not match.
        let reversed = GapProfile::new(vec![gap(1, 1), gap(2, 2)]).unwrap();
        assert_eq!(support_dp_profile(&seq, &reversed, &aaa), 0);
    }

    #[test]
    fn mined_supports_match_oracle() {
        let seq = uniform(&mut StdRng::seed_from_u64(83), Alphabet::Dna, 150);
        let profile =
            GapProfile::new(vec![gap(1, 2), gap(2, 3), gap(0, 1), gap(1, 1), gap(2, 2)]).unwrap();
        let mined = mine_with_profile(&seq, &profile, 0.003, 6).unwrap();
        assert!(!mined.frequent.is_empty());
        for f in &mined.frequent {
            assert_eq!(f.support, support_dp_profile(&seq, &profile, &f.pattern));
        }
    }

    #[test]
    fn completeness_against_brute_force() {
        let seq = uniform(&mut StdRng::seed_from_u64(84), Alphabet::Dna, 70);
        let profile = GapProfile::new(vec![gap(1, 2), gap(0, 2), gap(1, 3)]).unwrap();
        let rho = 0.01;
        let mined = mine_with_profile(&seq, &profile, rho, 4).unwrap();
        // Brute force every pattern of lengths 3..=4.
        let rho_exact = BigRatio::from_f64_exact(rho);
        for l in 3..=4usize {
            let n_l = profile_n(70, &profile, l);
            let mut stack = vec![0u8; l];
            loop {
                let p = Pattern::from_codes(stack.clone());
                let sup = support_dp_profile(&seq, &profile, &p);
                let is_frequent = BigUint::from_u128(sup).mul_ref(rho_exact.denom())
                    >= rho_exact.numer().mul_ref(&n_l);
                assert_eq!(
                    mined.get(&p).is_some(),
                    is_frequent,
                    "pattern {:?} at length {l}",
                    p.display(&Alphabet::Dna)
                );
                let mut i = l;
                loop {
                    if i == 0 {
                        break;
                    }
                    stack[i - 1] += 1;
                    if stack[i - 1] < 4 {
                        break;
                    }
                    stack[i - 1] = 0;
                    i -= 1;
                }
                if i == 0 {
                    break;
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let seq = Sequence::dna("ACGT").unwrap();
        let profile = GapProfile::uniform(gap(1, 2), 5);
        assert!(mine_with_profile(&seq, &profile, 0.0, 5).is_err());
        assert!(matches!(
            GapProfile::new(vec![]),
            Err(MineError::InvalidConfig {
                setting: "steps",
                ..
            })
        ));
        // Sequence too short for the start level.
        let tiny = Sequence::dna("AC").unwrap();
        assert!(matches!(
            mine_with_profile(&tiny, &profile, 0.1, 5),
            Err(MineError::SequenceTooShort { .. })
        ));
    }
}
