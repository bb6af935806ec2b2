//! Gap requirements: the `[N, M]` wild-card range between consecutive
//! pattern characters.

use crate::error::MineError;

/// The widest gap `M` a requirement may name: the result cache records
/// each bound as a `u32`, and PIL offsets are `u32`, so no sequence a
/// mine can hold spans a wider one.
pub const MAX_GAP: usize = u32::MAX as usize;

/// A gap requirement `g(N, M)`: between two consecutive pattern
/// characters there must be between `N` and `M` wild-cards (inclusive).
///
/// In offset terms, consecutive offsets satisfy
/// `c(j+1) − c(j) − 1 ∈ [N, M]`, i.e. the *step* `c(j+1) − c(j)` lies in
/// `[N+1, M+1]`.
///
/// ```
/// use perigap_core::GapRequirement;
///
/// // The paper's standard configuration: one DNA helical turn.
/// let gap = GapRequirement::new(9, 12)?;
/// assert_eq!(gap.flexibility(), 4);           // W = M − N + 1
/// assert_eq!(gap.l1(1000), 77);               // longest fully-fitting length
/// assert_eq!(gap.min_span(3), 2 * 9 + 3);     // (l−1)·N + l
/// # Ok::<(), perigap_core::MineError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GapRequirement {
    min: usize,
    max: usize,
}

impl GapRequirement {
    /// Build a gap requirement `[N, M]`.
    ///
    /// `N ≤ M ≤` [`MAX_GAP`] is required; `N = M` (a rigid period) is
    /// allowed, as is `N = 0` (adjacent characters permitted). Anything
    /// else is [`MineError::InvalidGap`].
    pub fn new(min: usize, max: usize) -> Result<GapRequirement, MineError> {
        if min > max || max > MAX_GAP {
            return Err(MineError::InvalidGap { min, max });
        }
        Ok(GapRequirement { min, max })
    }

    /// The minimum gap size `N`.
    pub fn min(&self) -> usize {
        self.min
    }

    /// The maximum gap size `M`.
    pub fn max(&self) -> usize {
        self.max
    }

    /// The flexibility `W = M − N + 1` (Table 1).
    pub fn flexibility(&self) -> usize {
        self.max - self.min + 1
    }

    /// Smallest admissible offset step `N + 1`.
    pub fn min_step(&self) -> usize {
        self.min + 1
    }

    /// Largest admissible offset step `M + 1`.
    pub fn max_step(&self) -> usize {
        self.max + 1
    }

    /// Whether the gap between two 1-based offsets satisfies the
    /// requirement: `next − prev − 1 ∈ [N, M]`.
    pub fn admits(&self, prev: usize, next: usize) -> bool {
        next > prev && {
            let gap = next - prev - 1;
            gap >= self.min && gap <= self.max
        }
    }

    /// Iterate over the admissible steps `N+1 ..= M+1`.
    pub fn steps(&self) -> std::ops::RangeInclusive<usize> {
        self.min_step()..=self.max_step()
    }

    /// `minspan(l) = (l − 1)·N + l`: fewest subject positions a length-`l`
    /// pattern can span (Table 1).
    pub fn min_span(&self, l: usize) -> usize {
        if l == 0 {
            0
        } else {
            (l - 1) * self.min + l
        }
    }

    /// `maxspan(l) = (l − 1)·M + l`: most subject positions a length-`l`
    /// pattern can span (Table 1).
    pub fn max_span(&self, l: usize) -> usize {
        if l == 0 {
            0
        } else {
            (l - 1) * self.max + l
        }
    }

    /// `l1 = ⌊(L + M)/(M + 1)⌋`: length of the longest pattern whose
    /// *maximum* span fits in a length-`L` sequence (Table 1).
    pub fn l1(&self, sequence_len: usize) -> usize {
        (sequence_len + self.max) / (self.max + 1)
    }

    /// `l2 = ⌊(L + N)/(N + 1)⌋`: length of the longest pattern whose
    /// *minimum* span fits in a length-`L` sequence (Table 1).
    pub fn l2(&self, sequence_len: usize) -> usize {
        (sequence_len + self.min) / (self.min + 1)
    }
}

impl std::fmt::Display for GapRequirement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let g = GapRequirement::new(9, 12).unwrap();
        assert_eq!(g.min(), 9);
        assert_eq!(g.max(), 12);
        assert_eq!(g.flexibility(), 4);
        assert_eq!(g.to_string(), "[9, 12]");
        assert!(GapRequirement::new(5, 4).is_err());
        // The widest gap is u32::MAX; one past it (or usize::MAX, where
        // `M + 1` would wrap) is refused.
        assert_eq!(GapRequirement::new(0, MAX_GAP).unwrap().max(), MAX_GAP);
        for (min, max) in [(0, MAX_GAP + 1), (0, usize::MAX), (usize::MAX, usize::MAX)] {
            assert_eq!(
                GapRequirement::new(min, max),
                Err(MineError::InvalidGap { min, max })
            );
        }
        // Rigid gap is fine.
        assert_eq!(GapRequirement::new(3, 3).unwrap().flexibility(), 1);
    }

    #[test]
    fn paper_flexibility_example() {
        // Section 4: gap [4,6] has flexibility 3; first char at j allows
        // the next at j+5, j+6, j+7.
        let g = GapRequirement::new(4, 6).unwrap();
        assert_eq!(g.flexibility(), 3);
        let steps: Vec<usize> = g.steps().collect();
        assert_eq!(steps, vec![5, 6, 7]);
        assert!(g.admits(1, 6));
        assert!(g.admits(1, 8));
        assert!(!g.admits(1, 5));
        assert!(!g.admits(1, 9));
        assert!(!g.admits(6, 1));
    }

    #[test]
    fn span_formulas() {
        // Section 4: with gap [3,4] a length-3 pattern spans at least 9.
        let g = GapRequirement::new(3, 4).unwrap();
        assert_eq!(g.min_span(3), 9);
        assert_eq!(g.max_span(3), 11);
        assert_eq!(g.min_span(1), 1);
        assert_eq!(g.max_span(1), 1);
        assert_eq!(g.min_span(0), 0);
    }

    #[test]
    fn l1_l2_paper_values() {
        // L = 1000, [9,12]: l1 = ⌊1012/13⌋ = 77 (paper Section 6),
        // l2 = ⌊1009/10⌋ = 100.
        let g = GapRequirement::new(9, 12).unwrap();
        assert_eq!(g.l1(1000), 77);
        assert_eq!(g.l2(1000), 100);
        assert!(g.l2(1000) >= g.l1(1000));
    }

    #[test]
    fn l1_l2_are_maximal() {
        let g = GapRequirement::new(9, 12).unwrap();
        let l1 = g.l1(1000);
        assert!(g.max_span(l1) <= 1000);
        assert!(g.max_span(l1 + 1) > 1000);
        let l2 = g.l2(1000);
        assert!(g.min_span(l2) <= 1000);
        assert!(g.min_span(l2 + 1) > 1000);
    }

    #[test]
    fn zero_gap_allows_adjacent() {
        let g = GapRequirement::new(0, 2).unwrap();
        assert!(g.admits(1, 2));
        assert_eq!(g.min_span(3), 3);
    }
}
