//! Rigid-wildcard pattern mining in the TEIRESIAS/Pratt style — the
//! other related-work baseline (Section 2).
//!
//! TEIRESIAS patterns are strings of solid characters and *rigid*
//! wild-cards (`A..T.C` means exactly two arbitrary characters, then
//! exactly one), subject to an ⟨L, W⟩ density constraint: every
//! sub-pattern containing `L` solid characters spans at most `W`
//! positions. Support is the number of occurrence positions. Because
//! the wild-cards are rigid, support *is* anti-monotone under
//! extension, so plain Apriori pruning is sound — exactly the property
//! the paper's flexible-gap model breaks.
//!
//! This implementation mines all ⟨L, W⟩ patterns with at least
//! `min_support` occurrences by level-wise rightward extension, and
//! flags the right-maximal ones (no single-step extension preserves
//! every occurrence). It exists as a comparator: the
//! `repro`-level experiments contrast what rigid patterns can and
//! cannot see against the paper's flexible gaps.

use crate::error::MineError;
use perigap_seq::Sequence;
use std::collections::HashMap;
use std::fmt;

/// A rigid pattern: solid characters at fixed relative positions.
/// `slots[i] = Some(code)` is a solid character, `None` a wild-card;
/// the first and last slots are always solid.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RigidPattern {
    slots: Vec<Option<u8>>,
}

impl RigidPattern {
    /// A single-character pattern.
    pub fn solid(code: u8) -> RigidPattern {
        RigidPattern {
            slots: vec![Some(code)],
        }
    }

    /// The slot vector.
    pub fn slots(&self) -> &[Option<u8>] {
        &self.slots
    }

    /// Total span in subject positions.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// Number of solid characters.
    pub fn solid_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Append `wildcards` wild-cards and a solid character.
    pub fn extend(&self, wildcards: usize, code: u8) -> RigidPattern {
        let mut slots = self.slots.clone();
        slots.resize(slots.len() + wildcards, None);
        slots.push(Some(code));
        RigidPattern { slots }
    }

    /// ⟨L, W⟩ density: every run of `l` consecutive solids spans ≤ `w`
    /// positions.
    pub fn is_dense(&self, l: usize, w: usize) -> bool {
        let solids: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|_| i))
            .collect();
        if solids.len() < l {
            return true;
        }
        solids.windows(l).all(|run| run[run.len() - 1] - run[0] < w)
    }

    /// Whether the pattern occurs at 0-based `start` in `seq`.
    pub fn matches_at(&self, seq: &Sequence, start: usize) -> bool {
        if start + self.span() > seq.len() {
            return false;
        }
        let codes = seq.codes();
        self.slots
            .iter()
            .enumerate()
            .all(|(i, slot)| slot.is_none_or(|c| codes[start + i] == c))
    }

    /// Render with `.` wild-cards, e.g. `"A..T.C"`.
    pub fn display(&self, alphabet: &perigap_seq::Alphabet) -> String {
        self.slots
            .iter()
            .map(|s| match s {
                Some(c) => alphabet.letter(*c) as char,
                None => '.',
            })
            .collect()
    }
}

impl fmt::Debug for RigidPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Alphabet-agnostic dot notation: digits for codes.
        let text: String = self
            .slots
            .iter()
            .map(|s| match s {
                Some(c) => (b'0' + *c) as char,
                None => '.',
            })
            .collect();
        write!(f, "RigidPattern({text})")
    }
}

/// One mined rigid pattern.
#[derive(Clone, Debug)]
pub struct RigidResult {
    /// The pattern.
    pub pattern: RigidPattern,
    /// Number of occurrence positions.
    pub support: usize,
    /// True when no single rightward extension keeps every occurrence.
    pub right_maximal: bool,
}

/// Configuration of a rigid mining run.
#[derive(Clone, Copy, Debug)]
pub struct RigidConfig {
    /// Density numerator `L`: every `density_l` solids…
    pub density_l: usize,
    /// …must span at most `density_w` positions.
    pub density_w: usize,
    /// Minimum occurrence count.
    pub min_support: usize,
    /// Minimum solid characters for a pattern to be reported.
    pub min_solids: usize,
    /// Hard cap on reported/extended solids (safety valve).
    pub max_solids: usize,
}

impl RigidConfig {
    fn validate(&self) -> Result<(), MineError> {
        let refuse = |setting, reason: String| Err(MineError::InvalidConfig { setting, reason });
        if self.density_l < 2 {
            return refuse("density_l", "must be at least 2".into());
        }
        if self.density_w < self.density_l {
            return refuse(
                "density_w",
                format!("must be at least density_l ({})", self.density_l),
            );
        }
        if self.min_support == 0 {
            return refuse("min_support", "must be at least 1".into());
        }
        Ok(())
    }

    /// Longest wild-card run an extension may insert: with `L` solids
    /// in `W` positions, two adjacent solids are at most `W − L + 1`
    /// apart, i.e. at most `W − L` wild-cards between them — wider
    /// runs could never be part of a dense pattern.
    fn max_gap(&self) -> usize {
        self.density_w - self.density_l
    }
}

/// Mine all ⟨L, W⟩-dense rigid patterns with support ≥ `min_support`.
pub fn rigid_mine(seq: &Sequence, config: RigidConfig) -> Result<Vec<RigidResult>, MineError> {
    config.validate()?;
    let sigma = seq.alphabet().size() as u8;
    // Occurrence lists per pattern: sorted start positions.
    let mut current: Vec<(RigidPattern, Vec<u32>)> = Vec::new();
    for code in 0..sigma {
        let occ: Vec<u32> = seq
            .codes()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == code)
            .map(|(i, _)| i as u32)
            .collect();
        if occ.len() >= config.min_support {
            current.push((RigidPattern::solid(code), occ));
        }
    }

    let mut out: Vec<RigidResult> = Vec::new();
    let mut solids = 1usize;
    while !current.is_empty() && solids < config.max_solids {
        let mut next: Vec<(RigidPattern, Vec<u32>)> = Vec::new();
        for (pattern, occ) in &current {
            let mut fully_preserved = false;
            for wildcards in 0..=config.max_gap() {
                // Bucket surviving occurrences per appended character.
                let mut buckets: HashMap<u8, Vec<u32>> = HashMap::new();
                let next_offset = pattern.span() + wildcards;
                for &start in occ {
                    let pos = start as usize + next_offset;
                    if pos < seq.len() {
                        buckets.entry(seq.codes()[pos]).or_default().push(start);
                    }
                }
                for (code, survivors) in buckets {
                    if survivors.len() < config.min_support {
                        continue;
                    }
                    let extended = pattern.extend(wildcards, code);
                    if !extended.is_dense(config.density_l, config.density_w) {
                        continue;
                    }
                    if survivors.len() == occ.len() {
                        fully_preserved = true;
                    }
                    next.push((extended, survivors));
                }
            }
            if pattern.solid_count() >= config.min_solids {
                out.push(RigidResult {
                    pattern: pattern.clone(),
                    support: occ.len(),
                    right_maximal: !fully_preserved,
                });
            }
        }
        current = next;
        solids += 1;
    }
    // Flush the final generation.
    for (pattern, occ) in current {
        if pattern.solid_count() >= config.min_solids {
            out.push(RigidResult {
                pattern,
                support: occ.len(),
                right_maximal: true,
            });
        }
    }
    out.sort_by(|a, b| {
        (a.pattern.solid_count(), a.pattern.span())
            .cmp(&(b.pattern.solid_count(), b.pattern.span()))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigap_seq::{Alphabet, Sequence};

    fn config(l: usize, w: usize, min_support: usize) -> RigidConfig {
        RigidConfig {
            density_l: l,
            density_w: w,
            min_support,
            min_solids: 2,
            max_solids: 10,
        }
    }

    /// Brute-force support: count matching start positions.
    fn brute_support(seq: &Sequence, pattern: &RigidPattern) -> usize {
        (0..seq.len())
            .filter(|&s| pattern.matches_at(seq, s))
            .count()
    }

    #[test]
    fn density_constraint() {
        // A..T.C : solids at 0, 3, 5.
        let p = RigidPattern::solid(0).extend(2, 3).extend(1, 1);
        assert_eq!(p.span(), 6);
        assert_eq!(p.solid_count(), 3);
        assert!(p.is_dense(2, 4)); // adjacent solids span ≤ 4
        assert!(!p.is_dense(2, 3)); // A..T spans 4 > 3
        assert!(p.is_dense(3, 6));
        assert!(!p.is_dense(3, 5));
    }

    #[test]
    fn display_uses_dots() {
        let p = RigidPattern::solid(0).extend(2, 3).extend(1, 1);
        assert_eq!(p.display(&Alphabet::Dna), "A..T.C");
    }

    #[test]
    fn mines_exact_repeats() {
        // "ACGT" four times: AC, A.G, CG … all with support 4.
        let seq = Sequence::dna(&"ACGT".repeat(4)).unwrap();
        let results = rigid_mine(&seq, config(2, 4, 4)).unwrap();
        assert!(!results.is_empty());
        for r in &results {
            assert_eq!(
                r.support,
                brute_support(&seq, &r.pattern),
                "{:?}",
                r.pattern
            );
            assert!(r.support >= 4);
            assert!(r.pattern.is_dense(2, 4));
        }
        // The literal AC must be among them.
        let ac = RigidPattern::solid(0).extend(0, 1);
        assert!(results.iter().any(|r| r.pattern == ac));
    }

    #[test]
    fn completeness_small_alphabet() {
        // Compare against brute force over all dense rigid patterns with
        // 2..=3 solids and span ≤ 5 on a small sequence.
        let seq = Sequence::dna("ACGTACGGTACGAACG").unwrap();
        let cfg = RigidConfig {
            density_l: 2,
            density_w: 3,
            min_support: 3,
            min_solids: 2,
            max_solids: 3,
        };
        let mined = rigid_mine(&seq, cfg).unwrap();
        // Enumerate candidates: spans from solid positions.
        let mut expected = 0usize;
        for a in 0..4u8 {
            for g1 in 0..=1usize {
                for b in 0..4u8 {
                    let p2 = RigidPattern::solid(a).extend(g1, b);
                    if brute_support(&seq, &p2) >= 3 {
                        expected += 1;
                    }
                    for g2 in 0..=1usize {
                        for c in 0..4u8 {
                            let p3 = p2.extend(g2, c);
                            if p3.is_dense(2, 3) && brute_support(&seq, &p3) >= 3 {
                                expected += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(mined.len(), expected);
        for r in &mined {
            assert_eq!(r.support, brute_support(&seq, &r.pattern));
        }
    }

    #[test]
    fn apriori_holds_for_rigid_patterns() {
        // Every mined pattern's leading sub-pattern has ≥ its support —
        // the property the paper shows fails for flexible gaps.
        let seq = Sequence::dna(&"ACGGTACGT".repeat(5)).unwrap();
        let results = rigid_mine(&seq, config(2, 4, 3)).unwrap();
        for r in results.iter().filter(|r| r.pattern.solid_count() >= 3) {
            // Drop the trailing solid (and any trailing wild-cards).
            let mut slots = r.pattern.slots().to_vec();
            slots.pop();
            while slots.last() == Some(&None) {
                slots.pop();
            }
            let parent = RigidPattern { slots };
            assert!(
                brute_support(&seq, &parent) >= r.support,
                "Apriori violated for {:?}",
                r.pattern
            );
        }
    }

    #[test]
    fn right_maximality_flags() {
        // "ACG" repeated with a trailing G: every AC is followed by G,
        // so AC extends to ACG at full support and is not right-maximal;
        // ACG itself loses its last occurrence on extension and is.
        let seq = Sequence::dna(&"ACG".repeat(10)).unwrap();
        let cfg = RigidConfig {
            density_l: 2,
            density_w: 2,
            min_support: 3,
            min_solids: 2,
            max_solids: 3,
        };
        let results = rigid_mine(&seq, cfg).unwrap();
        let ac = RigidPattern::solid(0).extend(0, 1);
        let found = results.iter().find(|r| r.pattern == ac).expect("AC mined");
        assert!(!found.right_maximal, "AC → ACG preserves every occurrence");
        let acg = ac.extend(0, 2);
        let found = results
            .iter()
            .find(|r| r.pattern == acg)
            .expect("ACG mined");
        assert!(found.right_maximal, "ACG → ACGA drops the final occurrence");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let seq = Sequence::dna("ACGT").unwrap();
        let refused = |config| match rigid_mine(&seq, config) {
            Err(MineError::InvalidConfig { setting, .. }) => setting,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        assert_eq!(refused(config(1, 4, 1)), "density_l");
        assert_eq!(
            refused(RigidConfig {
                density_l: 3,
                density_w: 2,
                min_support: 1,
                min_solids: 2,
                max_solids: 5,
            }),
            "density_w"
        );
        assert_eq!(
            refused(RigidConfig {
                density_l: 2,
                density_w: 4,
                min_support: 0,
                min_solids: 2,
                max_solids: 5,
            }),
            "min_support"
        );
    }
}
