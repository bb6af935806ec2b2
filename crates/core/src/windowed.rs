//! The windowed mining model of the related work (Section 2), built
//! for comparison: Han et al. divide the sequence into non-overlapping
//! windows and call a pattern frequent when it occurs in enough
//! windows; Mannila et al. use sliding windows. Under either, the
//! Apriori property holds — which is why those models are easy to mine
//! — but "patterns that span multiple windows cannot be discovered",
//! the limitation the paper's within-sequence ratio model removes.
//!
//! [`windowed_mine`] implements the non-overlapping variant over the
//! same pattern/gap machinery, and
//! [`cross_window_loss`] quantifies the limitation by reporting
//! patterns the paper's model finds that the windowed model misses.

use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::mpp::{MppConfig, SEED_LEVEL};
use crate::pattern::Pattern;
use crate::pil::Pil;
use crate::result::MineOutcome;
use perigap_seq::fragment::fragments;
use perigap_seq::Sequence;
use std::collections::HashMap;

/// Maximum live patterns per level before [`windowed_mine`] aborts —
/// a backstop against the model's weak selectivity (see the function
/// docs).
pub const WINDOWED_PATTERN_BUDGET: usize = 2_000_000;

/// A pattern frequent under the windowed model.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowedPattern {
    /// The pattern.
    pub pattern: Pattern,
    /// Number of windows in which it occurs at least once.
    pub window_count: usize,
}

/// Outcome of a windowed mining run.
#[derive(Clone, Debug, Default)]
pub struct WindowedOutcome {
    /// Patterns occurring in at least the required number of windows,
    /// sorted by length then codes.
    pub patterns: Vec<WindowedPattern>,
    /// Number of windows examined.
    pub windows: usize,
}

impl WindowedOutcome {
    /// Look up a pattern.
    pub fn get(&self, pattern: &Pattern) -> Option<&WindowedPattern> {
        self.patterns.iter().find(|p| &p.pattern == pattern)
    }
}

/// Mine with the non-overlapping-window model: split `seq` into
/// `window` -character windows and report every pattern (with the
/// usual gap requirement) that *occurs* in at least `min_windows`
/// windows. Occurrence is binary per window — the windowed related
/// work counts windows, not offset sequences.
///
/// Level-wise with genuine Apriori pruning (valid in this model):
/// a pattern can only reach `min_windows` windows if both its prefix
/// and suffix do. **Beware**: binary occurrence is far less selective
/// than the paper's support-ratio threshold, so on genomic inputs the
/// live pattern set can grow toward `σ^l`; cap the depth with
/// `config.max_level`. As a backstop, the run aborts with
/// [`MineError::EnumerationBudget`] if more than [`WINDOWED_PATTERN_BUDGET`]
/// patterns are ever alive at one level.
pub fn windowed_mine(
    seq: &Sequence,
    gap: GapRequirement,
    window: usize,
    min_windows: usize,
    config: MppConfig,
) -> Result<WindowedOutcome, MineError> {
    config.check()?;
    if window == 0 {
        return Err(MineError::InvalidConfig {
            setting: "window",
            reason: "must be at least 1".into(),
        });
    }
    // Every pattern occurs in at least zero windows: there is no
    // answer to give.
    if min_windows == 0 {
        return Err(MineError::InvalidConfig {
            setting: "min_windows",
            reason: "must be at least 1".into(),
        });
    }
    let wins = fragments(seq, window, 1);
    let total = wins.len();
    if total == 0 || min_windows > total {
        return Ok(WindowedOutcome {
            patterns: Vec::new(),
            windows: total,
        });
    }
    let start = SEED_LEVEL;
    let hard_cap = config.max_level.unwrap_or(usize::MAX);

    // Per-window PILs at the seed level, reduced to window-occurrence
    // sets per pattern.
    let mut current: HashMap<Pattern, Vec<(usize, Pil)>> = HashMap::new();
    for win in &wins {
        if win.sequence.len() < gap.min_span(start) {
            continue;
        }
        for (pattern, pil) in Pil::build_all(&win.sequence, gap, start) {
            current.entry(pattern).or_default().push((win.index, pil));
        }
    }

    let mut out = Vec::new();
    let mut level = start;
    while level <= hard_cap && !current.is_empty() {
        if current.len() > WINDOWED_PATTERN_BUDGET {
            return Err(MineError::EnumerationBudget {
                required: current.len() as u128,
                budget: WINDOWED_PATTERN_BUDGET as u128,
            });
        }
        // Apriori filter: keep only patterns present in enough windows.
        current.retain(|_, occurrences| occurrences.len() >= min_windows);
        for (pattern, occurrences) in &current {
            out.push(WindowedPattern {
                pattern: pattern.clone(),
                window_count: occurrences.len(),
            });
        }
        if current.is_empty() || level == hard_cap {
            break;
        }

        let mut by_prefix: HashMap<Vec<u8>, Vec<&Pattern>> = HashMap::new();
        for pattern in current.keys() {
            by_prefix
                .entry(pattern.codes()[..pattern.len() - 1].to_vec())
                .or_default()
                .push(pattern);
        }
        let mut next: HashMap<Pattern, Vec<(usize, Pil)>> = HashMap::new();
        for (p1, occ1) in &current {
            let Some(partners) = by_prefix.get(&p1.codes()[1..]) else {
                continue;
            };
            for p2 in partners {
                let occ2 = &current[*p2];
                let candidate = p1.join(p2).expect("overlap holds");
                // Join window-aligned PILs.
                let mut joined = Vec::new();
                let mut i = 0;
                let mut j = 0;
                while i < occ1.len() && j < occ2.len() {
                    match occ1[i].0.cmp(&occ2[j].0) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            let pil = Pil::join(&occ1[i].1, &occ2[j].1, gap);
                            if !pil.is_empty() {
                                joined.push((occ1[i].0, pil));
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
                if !joined.is_empty() {
                    next.insert(candidate, joined);
                }
            }
        }
        current = next;
        level += 1;
    }

    out.sort_by(|a, b| {
        (a.pattern.len(), a.pattern.codes()).cmp(&(b.pattern.len(), b.pattern.codes()))
    });
    Ok(WindowedOutcome {
        patterns: out,
        windows: total,
    })
}

/// Patterns that the paper's whole-sequence model (`reference`) finds
/// but the windowed model misses at the same gap requirement — the
/// "patterns that span multiple windows cannot be discovered" effect.
pub fn cross_window_loss<'a>(
    reference: &'a MineOutcome,
    windowed: &WindowedOutcome,
) -> Vec<&'a Pattern> {
    reference
        .frequent
        .iter()
        .map(|f| &f.pattern)
        .filter(|p| windowed.get(p).is_none())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mppm::mppm;
    use crate::naive::support_dp;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    #[test]
    fn counts_windows_not_occurrences() {
        // Two windows, AACCAACC and AAGAACC; AAC occurs twice in the
        // first and five times in the second.
        let seq = Sequence::dna("AACCAACCAAGAACC").unwrap();
        let g = gap(1, 2);
        let config = MppConfig {
            max_level: Some(3),
            ..MppConfig::default()
        };
        let wins = fragments(&seq, 8, 1);
        let aac = Pattern::from_codes(vec![0, 0, 1]);
        let occurrences: Vec<u128> = wins
            .iter()
            .map(|w| support_dp(&w.sequence, g, &aac))
            .collect();
        assert_eq!(occurrences, [2, 5]);
        let outcome = windowed_mine(&seq, g, 8, 2, config.clone()).unwrap();
        let found = outcome.get(&aac).expect("AAC occurs in both windows");
        assert_eq!(found.window_count, 2);
    }

    #[test]
    fn min_windows_filters() {
        let seq = uniform(&mut StdRng::seed_from_u64(1), Alphabet::Dna, 300);
        let g = gap(1, 2);
        let config = MppConfig {
            max_level: Some(5),
            ..MppConfig::default()
        };
        let lax = windowed_mine(&seq, g, 60, 1, config.clone()).unwrap();
        let strict = windowed_mine(&seq, g, 60, 5, config.clone()).unwrap();
        assert_eq!(lax.windows, 5);
        assert!(strict.patterns.len() <= lax.patterns.len());
        for p in &strict.patterns {
            assert_eq!(p.window_count, 5);
        }
    }

    #[test]
    fn window_counts_are_correct() {
        let seq = uniform(&mut StdRng::seed_from_u64(2), Alphabet::Dna, 240);
        let g = gap(1, 3);
        let config = MppConfig {
            max_level: Some(4),
            ..MppConfig::default()
        };
        let outcome = windowed_mine(&seq, g, 80, 1, config.clone()).unwrap();
        let wins = fragments(&seq, 80, 1);
        for wp in &outcome.patterns {
            let expected = wins
                .iter()
                .filter(|w| support_dp(&w.sequence, g, &wp.pattern) > 0)
                .count();
            assert_eq!(wp.window_count, expected, "pattern {:?}", wp.pattern);
        }
    }

    #[test]
    fn spanning_pattern_is_lost_by_windows_found_by_paper_model() {
        // Plant a pattern whose occurrences all straddle a window
        // boundary: window model misses it, whole-sequence model finds it.
        let mut codes = vec![1u8; 120]; // all C background
                                        // Occurrences of A g(2,2) A g(2,2) A, every one straddling the
                                        // window boundary at offset 60 (start < 60 ≤ start + 6).
        for start in [54usize, 56, 58] {
            codes[start] = 0;
            codes[start + 3] = 0;
            codes[start + 6] = 0;
        }
        let seq = Sequence::from_codes(Alphabet::Dna, codes).unwrap();
        let g = gap(2, 2);
        let aaa = Pattern::from_codes(vec![0, 0, 0]);
        assert!(support_dp(&seq, g, &aaa) >= 3);

        let config = MppConfig {
            max_level: Some(3),
            ..MppConfig::default()
        };
        let windowed = windowed_mine(&seq, g, 60, 1, config.clone()).unwrap();
        assert!(
            windowed.get(&aaa).is_none(),
            "boundary-straddling AAA invisible to windows"
        );

        let reference = mppm(&seq, g, 0.0001, 2, config.clone()).unwrap();
        assert!(
            reference.get(&aaa).is_some(),
            "whole-sequence model finds AAA"
        );
        let lost = cross_window_loss(&reference, &windowed);
        assert!(lost.iter().any(|p| **p == aaa));
    }

    #[test]
    fn degenerate_inputs() {
        let seq = Sequence::dna("ACGTACGT").unwrap();
        let g = gap(1, 2);
        let config = MppConfig::default();
        assert!(matches!(
            windowed_mine(&seq, g, 0, 1, config.clone()),
            Err(MineError::InvalidConfig {
                setting: "window",
                ..
            })
        ));
        assert!(matches!(
            windowed_mine(&seq, g, 4, 0, config.clone()),
            Err(MineError::InvalidConfig {
                setting: "min_windows",
                ..
            })
        ));
        let out = windowed_mine(&seq, g, 4, 3, config.clone()).unwrap();
        assert!(out.patterns.is_empty(), "min_windows above window count");
        assert_eq!(out.windows, 2);
    }
}
