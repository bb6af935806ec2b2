//! Positional localization of pattern occurrences.
//!
//! The case study distinguishes patterns that are "ubiquitous in the
//! genomes, not restricting to any specific regions" from ones whose
//! support concentrates in a few loci (like the planted G-runs in one
//! fragment of H. sapiens). This module quantifies that: bin the first
//! offsets of a pattern's matches, compare against the uniform
//! expectation, and summarize with a dispersion score.

use perigap_core::pil::Pil;
use perigap_core::{GapRequirement, Pattern};
use perigap_seq::Sequence;

/// Positional occupancy of one pattern's matches.
#[derive(Clone, Debug)]
pub struct Localization {
    /// Number of bins the sequence was divided into.
    pub bins: usize,
    /// Matching offset-sequence count per bin (by first offset).
    pub counts: Vec<u128>,
    /// Total support.
    pub support: u128,
}

impl Localization {
    /// The index of the densest bin and its share of the support
    /// (`None` when the pattern never matches).
    pub fn hottest_bin(&self) -> Option<(usize, f64)> {
        if self.support == 0 {
            return None;
        }
        self.counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, &c)| (i, c as f64 / self.support as f64))
    }

    /// A chi-square-style dispersion statistic against the uniform
    /// expectation: `Σ (observed − expected)² / expected`, normalized
    /// by the bin count. Near 0 for ubiquitous patterns; large for
    /// locus-concentrated ones.
    pub fn dispersion(&self) -> f64 {
        if self.support == 0 || self.bins == 0 {
            return 0.0;
        }
        let expected = self.support as f64 / self.bins as f64;
        self.counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum::<f64>()
            / self.bins as f64
    }

    /// True when one bin holds more than `share` of the support.
    pub fn is_localized(&self, share: f64) -> bool {
        self.hottest_bin().is_some_and(|(_, s)| s > share)
    }
}

/// Compute the localization of `pattern` in `seq` with `bins` bins.
///
/// # Panics
/// Panics if `bins == 0`.
pub fn localize(
    seq: &Sequence,
    gap: GapRequirement,
    pattern: &Pattern,
    bins: usize,
) -> Localization {
    assert!(bins > 0, "need at least one bin");
    // Build the pattern's PIL by chaining joins over its per-character
    // level-1 lists (exact, no mining needed).
    let pil = pattern_pil(seq, gap, pattern);
    let mut counts = vec![0u128; bins];
    let bin_width = (seq.len().max(1)).div_ceil(bins);
    for (offset, count) in pil.entries() {
        let bin = ((offset as usize - 1) / bin_width).min(bins - 1);
        counts[bin] = counts[bin].saturating_add(count as u128);
    }
    Localization {
        bins,
        counts,
        support: pil.support(),
    }
}

/// `PIL(P)` computed directly by right-to-left joins of single-character
/// lists — `O(|P| · L)`, no candidate generation.
pub fn pattern_pil(seq: &Sequence, gap: GapRequirement, pattern: &Pattern) -> Pil {
    if pattern.is_empty() {
        return Pil::new();
    }
    let codes = pattern.codes();
    let mut acc = Pil::build_level1(seq, codes[codes.len() - 1]);
    for &code in codes[..codes.len() - 1].iter().rev() {
        let head = Pil::build_level1(seq, code);
        acc = Pil::join(&head, &acc, gap);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigap_core::naive::support_dp;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pat(text: &str) -> Pattern {
        Pattern::parse(text, &Alphabet::Dna).unwrap()
    }

    #[test]
    fn pattern_pil_matches_dp() {
        let seq = uniform(&mut StdRng::seed_from_u64(91), Alphabet::Dna, 300);
        let gap = GapRequirement::new(1, 3).unwrap();
        for text in ["A", "AC", "ACGT", "TTAA", "GGG"] {
            assert_eq!(
                pattern_pil(&seq, gap, &pat(text)).support(),
                support_dp(&seq, gap, &pat(text)),
                "pattern {text}"
            );
        }
    }

    #[test]
    fn uniform_pattern_has_low_dispersion() {
        let seq = uniform(&mut StdRng::seed_from_u64(92), Alphabet::Dna, 8_000);
        let gap = GapRequirement::new(1, 2).unwrap();
        let loc = localize(&seq, gap, &pat("ACG"), 10);
        assert!(loc.support > 0);
        assert!(loc.dispersion() < 30.0, "dispersion {}", loc.dispersion());
        assert!(!loc.is_localized(0.5));
        // Counts spread over every bin.
        assert!(loc.counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn planted_block_is_detected_as_localized() {
        // G-rich block confined to the last tenth of the sequence.
        let mut codes = vec![0u8; 5_000];
        for c in codes.iter_mut().skip(4_500) {
            *c = 2;
        }
        let seq = Sequence::from_codes(Alphabet::Dna, codes).unwrap();
        let gap = GapRequirement::new(1, 2).unwrap();
        let loc = localize(&seq, gap, &pat("GGG"), 10);
        let (bin, share) = loc.hottest_bin().unwrap();
        assert_eq!(bin, 9);
        assert!(share > 0.95);
        assert!(loc.is_localized(0.5));
        assert!(loc.dispersion() > 100.0);
    }

    #[test]
    fn zero_support_pattern() {
        let seq = Sequence::dna(&"A".repeat(100)).unwrap();
        let gap = GapRequirement::new(1, 2).unwrap();
        let loc = localize(&seq, gap, &pat("GGG"), 5);
        assert_eq!(loc.support, 0);
        assert!(loc.hottest_bin().is_none());
        assert_eq!(loc.dispersion(), 0.0);
        assert!(!loc.is_localized(0.1));
    }

    #[test]
    fn bin_assignment_covers_all_offsets() {
        let seq = uniform(&mut StdRng::seed_from_u64(93), Alphabet::Dna, 997);
        let gap = GapRequirement::new(0, 1).unwrap();
        let loc = localize(&seq, gap, &pat("A"), 7);
        let total: u128 = loc.counts.iter().sum();
        assert_eq!(total, loc.support);
    }
}
