//! The Partial Index List (PIL) — the paper's support-counting
//! structure (Section 5.1).
//!
//! `PIL(P)` is a list of `(x, y)` pairs meaning: exactly `y` offset
//! sequences of the form `[x, c2, …, cl]` match `P` against `S`. Two
//! properties make it the workhorse of the miner:
//!
//! 1. `sup(P)` is the sum of all `y` — no offset sequences are ever
//!    enumerated;
//! 2. `PIL(P)` is computable from `PIL(prefix(P))` and
//!    `PIL(suffix(P))` alone, so candidate supports come from joining
//!    their parents' lists instead of rescanning the sequence.
//!
//! The join here improves on the paper's quadratic pseudo-code with a
//! sliding-window sum over the sorted suffix list (`O(|A| + |B|)`).
//!
//! ## Performance notes
//!
//! This type is the public, per-pattern view. The miners do not
//! traverse `HashMap<Pattern, Pil>` internally: generations live in the
//! arena-backed [`crate::arena::PilSet`] (entry buffers shared by a
//! whole generation, patterns as packed integer keys during seeding — see
//! [`crate::packed::KeyCodec`]), and [`Pil::build_all`] is a conversion
//! shell over that engine. [`Pil::join`] short-circuits when either
//! side is empty and pre-reserves the output from the overlap span of
//! the two lists under the gap window (at most one entry per prefix
//! offset, and none for prefix offsets whose window cannot reach the
//! suffix range).

use crate::gap::GapRequirement;
use crate::pattern::Pattern;
use perigap_seq::Sequence;
use std::collections::HashMap;

/// Micro-counters for the join path, accumulated by every join kernel
/// into a caller-owned struct (plain `u64` adds — no atomics, no
/// overhead when the totals are discarded). The engines aggregate one
/// of these per level and surface it through
/// [`crate::trace::LevelEvent`], making the per-level join cost
/// attributable without an external profiler.
///
/// Semantics:
/// - `joins` — join kernel invocations (one per candidate, or one per
///   partner for the batched kernel).
/// - `probed` — probe positions scanned: left offsets examined after
///   overlap clipping (× partners for the batched kernel) plus suffix
///   entries absorbed into sliding windows.
/// - `reallocs` — output-buffer growth events observed across a kernel
///   call (a lower bound on the allocator's actual reallocations).
/// - `bytes_moved` — bytes of live buffer content at each observed
///   growth event (the payload a reallocation must copy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinCounters {
    /// Join kernel invocations.
    pub joins: u64,
    /// Probe positions scanned (see type docs for the exact rule).
    pub probed: u64,
    /// Observed output-buffer growth events.
    pub reallocs: u64,
    /// Bytes of live content at each observed growth event.
    pub bytes_moved: u64,
}

impl JoinCounters {
    /// Fold `other` into `self` (saturating — these are diagnostics).
    pub fn absorb(&mut self, other: &JoinCounters) {
        self.joins = self.joins.saturating_add(other.joins);
        self.probed = self.probed.saturating_add(other.probed);
        self.reallocs = self.reallocs.saturating_add(other.reallocs);
        self.bytes_moved = self.bytes_moved.saturating_add(other.bytes_moved);
    }

    /// Record a growth event on `out` if its capacity changed since
    /// `cap_before` was sampled.
    #[inline]
    pub(crate) fn note_growth(&mut self, out: &Vec<(u32, u64)>, cap_before: usize) {
        if out.capacity() != cap_before {
            self.reallocs += 1;
            self.bytes_moved = self
                .bytes_moved
                .saturating_add((out.len() * std::mem::size_of::<(u32, u64)>()) as u64);
        }
    }
}

/// Partial index list: `(first offset, count)` pairs, strictly
/// ascending in offset. Offsets are 1-based as in the paper.
///
/// Per-entry counts are `u64` (an entry counts offset sequences that
/// share a first offset — bounded by `W^(l-1)`, far below `u64::MAX`
/// for any minable configuration; the arithmetic saturates rather than
/// wraps in the adversarial corner). [`Pil::support`] widens to `u128`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Pil {
    entries: Vec<(u32, u64)>,
}

impl Pil {
    /// An empty list (support 0).
    pub fn new() -> Pil {
        Pil::default()
    }

    /// Build from raw entries.
    ///
    /// # Panics
    /// Panics if offsets are not strictly ascending or a count is zero.
    pub fn from_entries(entries: Vec<(u32, u64)>) -> Pil {
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "PIL offsets must be strictly ascending"
        );
        assert!(
            entries.iter().all(|&(_, y)| y > 0),
            "PIL counts must be positive"
        );
        Pil { entries }
    }

    /// Internal constructor for entries already known to be valid
    /// (produced by the scan or a join).
    pub(crate) fn from_raw(entries: Vec<(u32, u64)>) -> Pil {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries.iter().all(|&(_, y)| y > 0));
        Pil { entries }
    }

    /// The `(x, y)` pairs.
    pub fn entries(&self) -> &[(u32, u64)] {
        &self.entries
    }

    /// Number of distinct first offsets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the pattern has no matches.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Property 1: `sup(P)` is the sum of the counts.
    ///
    /// The fold widens to `u128` before summing, so it cannot clamp for
    /// any physically representable list (< 2³² entries of ≤ 2⁶⁴ each);
    /// the saturation risk lives in the per-entry `u64` counts, which
    /// the mining engines track via `MineStats::support_saturated`.
    pub fn support(&self) -> u128 {
        self.entries
            .iter()
            .fold(0u128, |acc, &(_, y)| acc.saturating_add(y as u128))
    }

    /// `PIL` of a single-character pattern: every occurrence position
    /// with count 1.
    pub fn build_level1(seq: &Sequence, code: u8) -> Pil {
        let entries = seq
            .codes()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == code)
            .map(|(i, _)| ((i + 1) as u32, 1u64))
            .collect();
        Pil { entries }
    }

    /// Property 2 (the paper's procedure, linear-time variant): compute
    /// `PIL(P)` from `PIL(prefix(P))` and `PIL(suffix(P))`.
    ///
    /// For each `(x, ·)` in the prefix list, `y = Σ y'` over suffix
    /// entries with `x' − x − 1 ∈ [N, M]`. Both lists are ascending, so
    /// the admissible window `[x+N+1, x+M+1]` advances monotonically and
    /// a running window sum suffices.
    ///
    /// ```
    /// use perigap_core::{GapRequirement, Pattern, Pil};
    /// use perigap_seq::{Alphabet, Sequence};
    ///
    /// // The paper's Section 5.1 example: S = AACCGTT, gap [1,2].
    /// let s = Sequence::dna("AACCGTT")?;
    /// let gap = GapRequirement::new(1, 2)?;
    /// let level2 = Pil::build_all(&s, gap, 2);
    /// let ac = Pattern::parse("AC", &Alphabet::Dna)?;
    /// let ct = Pattern::parse("CT", &Alphabet::Dna)?;
    /// let act = Pil::join(&level2[&ac], &level2[&ct], gap);
    /// assert_eq!(act.entries(), &[(1, 3), (2, 2)]);
    /// assert_eq!(act.support(), 5);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn join(prefix: &Pil, suffix: &Pil, gap: GapRequirement) -> Pil {
        Pil::join_checked(prefix, suffix, gap).0
    }

    /// [`Pil::join`] with the saturation flag surfaced: the second
    /// element is `true` when the running window sum clamped at
    /// `u64::MAX`, making the returned counts lower bounds rather than
    /// exact. Callers that compare supports (the reference engine, the
    /// verifiers) must check it instead of silently trusting clamped
    /// counts.
    pub fn join_checked(prefix: &Pil, suffix: &Pil, gap: GapRequirement) -> (Pil, bool) {
        if prefix.is_empty() || suffix.is_empty() {
            return (Pil::new(), false);
        }
        let mut out = Vec::with_capacity(overlap_reserve(&prefix.entries, &suffix.entries, gap));
        let saturated = join_into(
            &prefix.entries,
            &suffix.entries,
            gap,
            &mut out,
            &mut JoinCounters::default(),
        );
        (Pil { entries: out }, saturated)
    }

    /// Build `PIL(P)` for every length-`level` pattern that occurs in
    /// `seq` at all, by a single scan with `level − 1` nested gap steps
    /// (`O(L · W^(level−1))` work). Patterns with empty PILs are absent
    /// from the map.
    ///
    /// This is how the miner seeds level 3 ("scan S to compute the PILs
    /// of all patterns in C3", Figure 3 line 9).
    ///
    /// # Panics
    /// Panics if `level == 0`.
    pub fn build_all(seq: &Sequence, gap: GapRequirement, level: usize) -> HashMap<Pattern, Pil> {
        crate::arena::build_seed(seq, gap, level).into_pil_map()
    }
}

/// The contiguous run of prefix offsets whose gap window `[x + N + 1,
/// x + M + 1]` intersects the suffix's occupied offset range
/// `[b_first, b_last]` — only those can produce output. Offsets are
/// ascending, so the contributors form one run `a[from..to]`; every
/// join kernel clips its left scan to it (probing the smaller,
/// contributing side instead of the whole prefix list) and every
/// reserve derives from its length.
#[inline]
fn overlap_range(
    a: &[(u32, u64)],
    b_first: u64,
    b_last: u64,
    gap: GapRequirement,
) -> (usize, usize) {
    let min_step = gap.min_step() as u64;
    let max_step = gap.max_step() as u64;
    let from = a.partition_point(|&(x, _)| (x as u64) + max_step < b_first);
    let to = a.partition_point(|&(x, _)| (x as u64) + min_step <= b_last);
    (from, to.max(from))
}

/// Tight pre-reserve for a join: the length of the overlap run (see
/// [`overlap_range`]) — at most one output entry per contributing
/// prefix offset. Disjoint ranges reserve zero. Both lists must be
/// non-empty.
fn overlap_reserve(a: &[(u32, u64)], b: &[(u32, u64)], gap: GapRequirement) -> usize {
    let (from, to) = overlap_range(a, b[0].0 as u64, b[b.len() - 1].0 as u64, gap);
    to - from
}

/// The sliding-window join core, appending to a caller-owned buffer so
/// the arena engine can write a whole generation into one allocation.
/// See [`Pil::join`] for the algorithm.
///
/// Returns `true` when the running window sum hit `u64::MAX`: from that
/// point the emitted counts are lower bounds, not exact (and later
/// window subtractions can only drift further below the true value).
/// Callers that report supports must surface the flag — the arena
/// engine ORs it into [`crate::arena::PilSet`] and the miners raise
/// `MineStats::support_saturated`.
pub(crate) fn join_into(
    a: &[(u32, u64)],
    b: &[(u32, u64)],
    gap: GapRequirement,
    out: &mut Vec<(u32, u64)>,
    counters: &mut JoinCounters,
) -> bool {
    counters.joins += 1;
    if a.is_empty() || b.is_empty() {
        return false;
    }
    // Clip the left scan to the overlap run: offsets outside it have an
    // empty window and can only burn cycles.
    let (from, to) = overlap_range(a, b[0].0 as u64, b[b.len() - 1].0 as u64, gap);
    let a = &a[from..to];
    if a.is_empty() {
        return false;
    }
    let cap_before = out.capacity();
    let (mut lo, mut hi) = (0usize, 0usize); // window is b[lo..hi]
    let mut window: u64 = 0;
    let mut saturated = false;
    for &(x, _) in a {
        let min_pos = x as u64 + gap.min_step() as u64;
        let max_pos = x as u64 + gap.max_step() as u64;
        while hi < b.len() && (b[hi].0 as u64) <= max_pos {
            window = match window.checked_add(b[hi].1) {
                Some(w) => w,
                None => {
                    saturated = true;
                    u64::MAX
                }
            };
            hi += 1;
        }
        while lo < hi && (b[lo].0 as u64) < min_pos {
            // Saturating: once the window has clamped, the running sum
            // sits below the true total and an exact subtraction could
            // wrap through zero.
            window = window.saturating_sub(b[lo].1);
            lo += 1;
        }
        if window > 0 {
            out.push((x, window));
        }
    }
    counters.probed += (a.len() + hi) as u64;
    counters.note_growth(out, cap_before);
    saturated
}

/// Reusable cursor state for [`join_multi_into`]: per-partner window
/// bounds and running sums in struct-of-arrays layout so the inner
/// advance loop touches three dense arrays instead of scattered
/// per-partner structs.
#[derive(Default)]
pub struct MultiJoinScratch {
    lo: Vec<usize>,
    hi: Vec<usize>,
    window: Vec<u64>,
    /// Per-partner occupied ranges (`b_first`, `b_last`), so the shared
    /// left walk can skip a partner outside its own overlap run.
    first: Vec<u64>,
    last: Vec<u64>,
    /// Output capacities sampled at call entry, for realloc counting.
    caps: Vec<usize>,
    /// Per-partner saturation flags from the most recent call.
    pub saturated: Vec<bool>,
}

impl MultiJoinScratch {
    fn reset(&mut self, partners: usize) {
        self.lo.clear();
        self.lo.resize(partners, 0);
        self.hi.clear();
        self.hi.resize(partners, 0);
        self.window.clear();
        self.window.resize(partners, 0);
        self.first.clear();
        self.last.clear();
        self.caps.clear();
        self.saturated.clear();
        self.saturated.resize(partners, false);
    }
}

/// Batched multi-suffix join: one fixed left parent `a` joined against
/// every list in `partners` simultaneously. The left entries are walked
/// once; each partner keeps its own monotone window `[lo_j, hi_j)` over
/// its entries, so the left scan and the per-offset window arithmetic
/// are amortized across every candidate that shares the parent (the
/// run-local fan-out of the DFS engine). Output `j` is written into
/// `outs[j]` (cleared first) and `scratch.saturated[j]` carries the
/// same flag [`join_into`] returns. Results are entry-for-entry
/// identical to calling `join_into(a, partners[j], gap, ..)` per `j`.
pub fn join_multi_into(
    a: &[(u32, u64)],
    partners: &[&[(u32, u64)]],
    gap: GapRequirement,
    outs: &mut [Vec<(u32, u64)>],
    scratch: &mut MultiJoinScratch,
    counters: &mut JoinCounters,
) {
    debug_assert_eq!(partners.len(), outs.len());
    counters.joins += partners.len() as u64;
    scratch.reset(partners.len());
    scratch.caps.extend(outs.iter().map(|o| o.capacity()));
    for out in outs.iter_mut() {
        out.clear();
    }
    // Clip the shared left scan to the union of the partners' occupied
    // ranges; inside it, each partner is skipped while the current
    // offset sits outside its *own* overlap run. The skip is what keeps
    // this batched walk bit-identical to per-partner [`join_into`]
    // calls: an out-of-run offset's window is empty either way, but
    // letting it advance the window would absorb entries in a different
    // order and could saturate the running sum where the per-partner
    // clipped walk never does.
    let (b_first, b_last) = partners
        .iter()
        .filter(|b| !b.is_empty())
        .fold((u64::MAX, 0u64), |(lo, hi), b| {
            (lo.min(b[0].0 as u64), hi.max(b[b.len() - 1].0 as u64))
        });
    if a.is_empty() || b_first > b_last {
        return;
    }
    for b in partners {
        // Empty partners keep the impossible (MAX, 0) range, so the
        // skip test below rejects every offset for them.
        scratch
            .first
            .push(b.first().map_or(u64::MAX, |e| e.0 as u64));
        scratch.last.push(b.last().map_or(0, |e| e.0 as u64));
    }
    let (from, to) = overlap_range(a, b_first, b_last, gap);
    let a = &a[from..to];
    let min_step = gap.min_step() as u64;
    let max_step = gap.max_step() as u64;
    let mut scanned = 0u64;
    for &(x, _) in a {
        let min_pos = x as u64 + min_step;
        let max_pos = x as u64 + max_step;
        for (j, b) in partners.iter().enumerate() {
            if max_pos < scratch.first[j] || min_pos > scratch.last[j] {
                continue;
            }
            scanned += 1;
            let mut hi = scratch.hi[j];
            let mut lo = scratch.lo[j];
            let mut window = scratch.window[j];
            while hi < b.len() && (b[hi].0 as u64) <= max_pos {
                window = match window.checked_add(b[hi].1) {
                    Some(w) => w,
                    None => {
                        scratch.saturated[j] = true;
                        u64::MAX
                    }
                };
                hi += 1;
            }
            while lo < hi && (b[lo].0 as u64) < min_pos {
                // Saturating for the same reason as `join_into`: a
                // clamped window sits below the true total.
                window = window.saturating_sub(b[lo].1);
                lo += 1;
            }
            if window > 0 {
                outs[j].push((x, window));
            }
            scratch.hi[j] = hi;
            scratch.lo[j] = lo;
            scratch.window[j] = window;
        }
    }
    let absorbed: usize = scratch.hi.iter().sum();
    counters.probed += scanned + absorbed as u64;
    for (out, &cap) in outs.iter().zip(&scratch.caps) {
        if out.capacity() != cap {
            counters.reallocs += 1;
            counters.bytes_moved = counters
                .bytes_moved
                .saturating_add((out.len() * std::mem::size_of::<(u32, u64)>()) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::support_dp;
    use perigap_seq::Alphabet;

    fn pat(text: &str) -> Pattern {
        Pattern::parse(text, &Alphabet::Dna).unwrap()
    }

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    #[test]
    fn paper_pil_example() {
        // Section 5.1: S = AACCGTT, P = ACT, [N,M] = [1,2] →
        // PIL(P) = {(1,3), (2,2)}, sup(P) = 5.
        let s = Sequence::dna("AACCGTT").unwrap();
        let g = gap(1, 2);
        let pils = Pil::build_all(&s, g, 3);
        let pil = &pils[&pat("ACT")];
        assert_eq!(pil.entries(), &[(1, 3), (2, 2)]);
        assert_eq!(pil.support(), 5);
    }

    #[test]
    fn level1_lists_occurrences() {
        let s = Sequence::dna("ACAAC").unwrap();
        let pil = Pil::build_level1(&s, 0); // A
        assert_eq!(pil.entries(), &[(1, 1), (3, 1), (4, 1)]);
        assert_eq!(pil.support(), 3);
        let none = Pil::build_level1(&s, 3); // T
        assert!(none.is_empty());
    }

    #[test]
    fn join_reproduces_paper_procedure() {
        // Build PIL(ACT) from PIL(AC) and PIL(CT) on the paper's input.
        let s = Sequence::dna("AACCGTT").unwrap();
        let g = gap(1, 2);
        let level2 = Pil::build_all(&s, g, 2);
        let joined = Pil::join(&level2[&pat("AC")], &level2[&pat("CT")], g);
        let direct = &Pil::build_all(&s, g, 3)[&pat("ACT")];
        assert_eq!(&joined, direct);
    }

    #[test]
    fn join_chain_matches_dp_oracle() {
        use perigap_seq::gen::iid::uniform;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = uniform(&mut StdRng::seed_from_u64(3), Alphabet::Dna, 300);
        let g = gap(2, 5);
        let level3 = Pil::build_all(&s, g, 3);
        // Join up to length 5 two different ways and check against DP.
        for text in ["ACGTA", "AAAAA", "TGCAT", "CCCGG"] {
            let p = pat(text);
            let p123 = pat(&text[0..3]);
            let p234 = pat(&text[1..4]);
            let p345 = pat(&text[2..5]);
            let empty = Pil::new();
            let pil_1234 = Pil::join(
                level3.get(&p123).unwrap_or(&empty),
                level3.get(&p234).unwrap_or(&empty),
                g,
            );
            let pil_2345 = Pil::join(
                level3.get(&p234).unwrap_or(&empty),
                level3.get(&p345).unwrap_or(&empty),
                g,
            );
            let pil = Pil::join(&pil_1234, &pil_2345, g);
            assert_eq!(pil.support(), support_dp(&s, g, &p), "pattern {text}");
        }
    }

    #[test]
    fn build_all_matches_dp_for_every_pattern() {
        use perigap_seq::gen::iid::uniform;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = uniform(&mut StdRng::seed_from_u64(4), Alphabet::Dna, 150);
        let g = gap(1, 3);
        for level in 1..=3 {
            let pils = Pil::build_all(&s, g, level);
            let mut total_patterns = 0;
            for (p, pil) in &pils {
                assert_eq!(pil.support(), support_dp(&s, g, p), "level {level}");
                total_patterns += 1;
            }
            assert!(total_patterns <= 4usize.pow(level as u32));
        }
    }

    #[test]
    fn join_with_empty_is_empty() {
        let s = Sequence::dna("AACCGTT").unwrap();
        let g = gap(1, 2);
        let a = Pil::build_level1(&s, 0);
        assert!(Pil::join(&a, &Pil::new(), g).is_empty());
        assert!(Pil::join(&Pil::new(), &a, g).is_empty());
    }

    #[test]
    fn join_respects_gap_window() {
        // A at 1, C at 3 and 7; gap [1,2] admits only position 3.
        let s = Sequence::dna("ATCATTC").unwrap();
        let g = gap(1, 2);
        let a = Pil::build_level1(&s, 0);
        let c = Pil::build_level1(&s, 1);
        let ac = Pil::join(&a, &c, g);
        assert_eq!(ac.entries(), &[(1, 1), (4, 1)]);
    }

    #[test]
    fn from_entries_validates() {
        assert!(std::panic::catch_unwind(|| Pil::from_entries(vec![(3, 1), (2, 1)])).is_err());
        assert!(std::panic::catch_unwind(|| Pil::from_entries(vec![(1, 0)])).is_err());
        let ok = Pil::from_entries(vec![(1, 2), (5, 1)]);
        assert_eq!(ok.support(), 3);
    }

    #[test]
    fn support_sums_counts() {
        let pil = Pil::from_entries(vec![(1, 3), (2, 2)]);
        assert_eq!(pil.support(), 5);
        assert_eq!(Pil::new().support(), 0);
    }

    #[test]
    fn join_checked_surfaces_saturation() {
        // One left offset whose window spans two counts that overflow
        // u64 when summed: the count clamps and the flag must say so.
        let a = Pil::from_entries(vec![(1, 1)]);
        let b = Pil::from_entries(vec![(3, u64::MAX), (4, 5)]);
        let g = gap(1, 5);
        let (joined, saturated) = Pil::join_checked(&a, &b, g);
        assert!(saturated, "overflowing window sum must raise the flag");
        assert_eq!(joined.entries(), &[(1, u64::MAX)]);
        // Non-overflowing joins keep the flag clear.
        let c = Pil::from_entries(vec![(3, 7)]);
        let (joined, saturated) = Pil::join_checked(&a, &c, g);
        assert!(!saturated);
        assert_eq!(joined.support(), 7);
        // Pil::join stays the unchecked view of the same result.
        assert_eq!(Pil::join(&a, &b, g).entries(), &[(1, u64::MAX)]);
    }

    #[test]
    fn multi_join_matches_single_joins() {
        use perigap_seq::gen::iid::uniform;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // A shared-parent run: one left PIL joined against every
        // level-2 PIL of a random sequence, batched vs one-at-a-time.
        let s = uniform(&mut StdRng::seed_from_u64(11), Alphabet::Dna, 400);
        for (n, m) in [(0, 0), (1, 2), (2, 5), (0, 9)] {
            let g = gap(n, m);
            let level2 = Pil::build_all(&s, g, 2);
            let mut pils: Vec<&Pil> = level2.values().collect();
            pils.sort_by_key(|p| p.entries().first().copied());
            let left = pils[0];
            let partners: Vec<&[(u32, u64)]> = pils.iter().map(|p| p.entries()).collect();
            let mut outs = vec![Vec::new(); partners.len()];
            let mut scratch = MultiJoinScratch::default();
            let mut jc = JoinCounters::default();
            join_multi_into(
                left.entries(),
                &partners,
                g,
                &mut outs,
                &mut scratch,
                &mut jc,
            );
            assert_eq!(jc.joins, partners.len() as u64);
            for (j, b) in partners.iter().enumerate() {
                let mut expect = Vec::new();
                let saturated = join_into(
                    left.entries(),
                    b,
                    g,
                    &mut expect,
                    &mut JoinCounters::default(),
                );
                assert_eq!(outs[j], expect, "partner {j} under gap [{n}, {m}]");
                assert_eq!(scratch.saturated[j], saturated);
            }
        }
    }

    #[test]
    fn join_reserve_is_tight_on_disjoint_ranges() {
        // Prefix offsets far above the suffix range: no gap window can
        // reach back, so the join must not pre-allocate at all.
        let a = Pil::from_entries((1000..1100).map(|x| (x, 1u64)).collect());
        let b = Pil::from_entries(vec![(1, 5), (2, 3)]);
        let g = gap(1, 3);
        let (joined, saturated) = Pil::join_checked(&a, &b, g);
        assert!(joined.is_empty());
        assert!(!saturated);
        assert_eq!(joined.entries.capacity(), 0, "disjoint join over-allocated");
        // Suffix far above every prefix window: same result.
        let (joined, _) = Pil::join_checked(&b, &a, gap(0, 2));
        assert!(joined.is_empty());
        assert_eq!(joined.entries.capacity(), 0);
        // Partial overlap reserves only the contributing run, not the
        // whole prefix.
        let wide = Pil::from_entries((1..=100).map(|x| (x, 1u64)).collect());
        let narrow = Pil::from_entries(vec![(50, 1)]);
        let (joined, _) = Pil::join_checked(&wide, &narrow, gap(0, 1));
        assert_eq!(joined.entries(), &[(48, 1), (49, 1)]);
        assert!(
            joined.entries.capacity() < wide.len(),
            "overlap reserve must beat the prefix-length bound"
        );
    }

    #[test]
    fn counters_track_joins_probes_and_growth() {
        let a: Vec<(u32, u64)> = (1..=64).map(|x| (x, 1u64)).collect();
        let b: Vec<(u32, u64)> = (1..=64).map(|x| (x, 2u64)).collect();
        let g = gap(0, 4);
        let mut jc = JoinCounters::default();
        let mut out = Vec::new();
        join_into(&a, &b, g, &mut out, &mut jc);
        assert_eq!(jc.joins, 1);
        // Overlap clipping drops x = 64 (its window starts past the
        // suffix range), so 63 left offsets scan and all 64 suffix
        // entries are absorbed into the window.
        assert_eq!(jc.probed, 63 + 64);
        assert!(jc.reallocs >= 1, "unreserved output must grow");
        assert!(jc.bytes_moved > 0);
        // A pre-reserved output records no growth.
        let mut jc2 = JoinCounters::default();
        let mut out2 = Vec::with_capacity(64);
        join_into(&a, &b, g, &mut out2, &mut jc2);
        assert_eq!(jc2.reallocs, 0);
        assert_eq!(jc2.bytes_moved, 0);
        assert_eq!(out, out2);
        // absorb folds totals.
        jc.absorb(&jc2);
        assert_eq!(jc.joins, 2);
    }

    #[test]
    fn multi_join_saturation_is_per_partner() {
        let left: Vec<(u32, u64)> = vec![(1, 1), (2, 1)];
        let hot: Vec<(u32, u64)> = vec![(3, u64::MAX), (4, 2)];
        let cold: Vec<(u32, u64)> = vec![(3, 9)];
        let g = gap(0, 5);
        let mut outs = vec![Vec::new(), Vec::new()];
        let mut scratch = MultiJoinScratch::default();
        let mut jc = JoinCounters::default();
        join_multi_into(&left, &[&hot, &cold], g, &mut outs, &mut scratch, &mut jc);
        assert_eq!(scratch.saturated, vec![true, false]);
        assert_eq!(outs[1], vec![(1, 9), (2, 9)]);
        // Scratch reuse across calls must fully reset the cursors.
        join_multi_into(&left, &[&cold], g, &mut outs[..1], &mut scratch, &mut jc);
        assert_eq!(scratch.saturated, vec![false]);
        assert_eq!(outs[0], vec![(1, 9), (2, 9)]);
    }
}
