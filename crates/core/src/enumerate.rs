//! The enumeration baseline (the "Enumeration Algorithm" column of
//! Table 3).
//!
//! Because the Apriori property fails for this problem, a pruning-free
//! miner must count *every* `σ^l` pattern at every level. We store only
//! patterns with non-zero support (an empty PIL is support 0 — a longer
//! pattern with a zero-support leading sub-pattern can have no support
//! either, since offset projections preserve matches), but the
//! candidate accounting is the full `σ^l`, and so is the join work,
//! which is why the baseline is hopeless beyond small levels. A budget
//! guard turns runaway configurations into an error instead of an
//! endless run.

use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::lambda::PruneBound;
use crate::mpp::{prepare, MppConfig, SEED_LEVEL};
use crate::pil::Pil;
use crate::result::{FrequentPattern, LevelStats, MineOutcome, MineStats};
use std::collections::HashMap;
use std::time::Instant;

/// Run the enumeration baseline.
///
/// `candidate_budget` bounds the *cumulative* number of candidates
/// (`Σ σ^l`) the run may account for; exceeding it aborts with
/// [`MineError::EnumerationBudget`]. The paper's Table 3 runs the
/// budgetless equivalent up to `C_18` only because `l ≤ 13` patterns
/// stop occurring; reproduce that with a generous budget.
pub fn enumerate(
    seq: &perigap_seq::Sequence,
    gap: GapRequirement,
    rho: f64,
    config: MppConfig,
    candidate_budget: u128,
) -> Result<MineOutcome, MineError> {
    let started = Instant::now();
    let (counts, rho_exact) = prepare(seq, gap, rho, &config)?;
    let sigma = seq.alphabet().size() as u128;
    let start = SEED_LEVEL;
    let hard_cap = config.max_level.unwrap_or(usize::MAX).min(counts.l2());

    let mut stats = MineStats {
        n_used: 0,
        ..MineStats::default()
    };
    let mut frequent: Vec<FrequentPattern> = Vec::new();
    let mut spent: u128 = 0;

    // Patterns with non-zero support at the current level.
    let mut current: HashMap<crate::pattern::Pattern, Pil> = Pil::build_all(seq, gap, start);
    let mut level = start;

    while level <= hard_cap {
        let level_started = Instant::now();
        if counts.n(level).is_zero() {
            break;
        }
        let required = sigma.saturating_pow(level as u32);
        spent = spent.saturating_add(required);
        if spent > candidate_budget {
            return Err(MineError::EnumerationBudget {
                required: spent,
                budget: candidate_budget,
            });
        }
        let bound = PruneBound::exact(&counts, &rho_exact, level);
        let n_l_f64 = counts.n_f64(level);
        let mut frequent_here = 0usize;
        for (pattern, pil) in &current {
            let sup = pil.support();
            if bound.admits_u128(sup) {
                frequent.push(FrequentPattern {
                    pattern: pattern.clone(),
                    support: sup,
                    ratio: sup as f64 / n_l_f64,
                });
                frequent_here += 1;
            }
        }
        stats.levels.push(LevelStats {
            level,
            candidates: required,
            frequent: frequent_here,
            extended: current.len(),
            elapsed: level_started.elapsed(),
        });
        if current.is_empty() || level == hard_cap {
            break;
        }

        // Extend every supported pattern by every supported pattern with
        // matching overlap — the sparse equivalent of counting all
        // σ^(level+1) candidates.
        let mut by_prefix: HashMap<&[u8], Vec<&crate::pattern::Pattern>> = HashMap::new();
        for pattern in current.keys() {
            by_prefix
                .entry(&pattern.codes()[..pattern.len() - 1])
                .or_default()
                .push(pattern);
        }
        let mut next = HashMap::new();
        for (p1, pil1) in &current {
            if let Some(partners) = by_prefix.get(&p1.codes()[1..]) {
                for p2 in partners {
                    let pil2 = &current[*p2];
                    let pil = Pil::join(pil1, pil2, gap);
                    if !pil.is_empty() {
                        let candidate = p1.join(p2).expect("overlap holds");
                        next.insert(candidate, pil);
                    }
                }
            }
        }
        if next.is_empty() {
            // Record the empty continuation level the way the paper's
            // table shows trailing all-zero rows, then stop.
            current = next;
            level += 1;
            continue;
        }
        current = next;
        level += 1;
    }

    stats.total_elapsed = started.elapsed();
    let mut outcome = MineOutcome { frequent, stats };
    outcome.sort();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpp::{mpp, MppConfig};
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::{Alphabet, Sequence};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    /// Unpruned enumeration keeps *every* supported pattern at every
    /// level, so with a flexible gap the stored set grows toward σ^l —
    /// the explosion the paper's Table 3 documents. Tests must cap the
    /// depth to stay tractable.
    fn capped(max_level: usize) -> MppConfig {
        MppConfig {
            max_level: Some(max_level),
            ..MppConfig::default()
        }
    }

    #[test]
    fn agrees_with_mpp_worst_case() {
        let s = uniform(&mut StdRng::seed_from_u64(31), Alphabet::Dna, 100);
        let g = gap(1, 2);
        let rho = 0.001;
        let baseline = enumerate(&s, g, rho, capped(7), u128::MAX).unwrap();
        let worst = mpp(&s, g, rho, g.l1(100), capped(7)).unwrap();
        assert_eq!(baseline.frequent.len(), worst.frequent.len());
        for f in &baseline.frequent {
            assert_eq!(worst.get(&f.pattern).unwrap().support, f.support);
        }
    }

    #[test]
    fn candidate_accounting_is_sigma_to_the_l() {
        let s = uniform(&mut StdRng::seed_from_u64(32), Alphabet::Dna, 100);
        let outcome = enumerate(&s, gap(1, 2), 0.01, capped(6), u128::MAX).unwrap();
        for l in &outcome.stats.levels {
            assert_eq!(l.candidates, 4u128.pow(l.level as u32));
        }
    }

    #[test]
    fn budget_guard_fires() {
        let s = uniform(&mut StdRng::seed_from_u64(33), Alphabet::Dna, 200);
        let err = enumerate(&s, gap(1, 3), 1e-9, MppConfig::default(), 10_000).unwrap_err();
        assert!(matches!(err, MineError::EnumerationBudget { .. }));
    }

    #[test]
    fn stops_when_no_pattern_has_support() {
        // Rigid gap on a short sequence: support dies quickly.
        let s = Sequence::dna("ACGTACGTACGT").unwrap();
        let outcome = enumerate(&s, gap(3, 3), 0.5, MppConfig::default(), u128::MAX).unwrap();
        let max_level = outcome.stats.levels.last().unwrap().level;
        assert!(
            max_level <= 4,
            "rigid gap on 12 chars dies early, got {max_level}"
        );
    }
}
