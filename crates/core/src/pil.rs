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
//! A support alone needs less than a join: [`WindowTable`] counts
//! `sup(a·m)` from `PIL(m)` and one per-sequence table, so the miner
//! joins only the candidates its bounds keep.
//!
//! ## Performance notes
//!
//! A list is stored as two parallel arrays, offsets (`u32`) and counts
//! (`u64`): 12 bytes an entry, where a `(u32, u64)` tuple pads to 16.
//! The join reads only the left parent's offsets, so its left walk
//! streams a third of the bytes a tuple walk would.
//!
//! This type is the public, per-pattern view. The miners do not
//! traverse `HashMap<Pattern, Pil>` internally: generations live in the
//! arena-backed `PilSet` (entry buffers shared by a whole generation,
//! seeded by one bucket refinement in code order), and
//! [`Pil::build_all`] is a conversion shell over that engine. Both run
//! the one join kernel, `join_into`. [`Pil::join`] short-circuits when
//! either side is empty and pre-reserves the output from the overlap
//! span of the two lists under the gap window (at most one entry per
//! prefix offset, and none for prefix offsets whose window cannot reach
//! the suffix range).

use crate::gap::GapRequirement;
use crate::pattern::Pattern;
use perigap_seq::Sequence;
use std::collections::HashMap;

/// Bytes one PIL entry occupies: a `u32` offset plus a `u64` count,
/// stored in parallel arrays.
pub(crate) const ENTRY_BYTES: usize = std::mem::size_of::<u32>() + std::mem::size_of::<u64>();

/// Micro-counters for the join path, accumulated by the join kernel
/// into a caller-owned struct (plain `u64` adds — no atomics, no
/// overhead when the totals are discarded). The engines aggregate one
/// of these per level and surface it through
/// [`crate::trace::LevelEvent`], making the per-level join cost
/// attributable without an external profiler.
///
/// Semantics:
/// - `joins` — join kernel invocations. The mining engine calls the
///   kernel only for a candidate its bounds keep, so this is the kept
///   count, not the candidate count.
/// - `probed` — positions read: in the kernel, left offsets examined
///   after overlap clipping plus suffix entries absorbed into the
///   sliding window; in the engine, also every partner entry a
///   [`WindowTable`] support count reads, one per entry per candidate.
/// - `reallocs` — output-buffer growth events observed across a kernel
///   call (a lower bound on the allocator's actual reallocations).
/// - `bytes_moved` — bytes of live buffer content, at 12 bytes an
///   entry, at each observed growth event (the payload a reallocation
///   must copy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinCounters {
    /// Join kernel invocations.
    pub joins: u64,
    /// Positions read (see type docs for the exact rule).
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

    /// Record a growth event on `out` if either array's capacity
    /// changed since `caps_before` was sampled.
    #[inline]
    fn note_growth(&mut self, out: &Pil, caps_before: (usize, usize)) {
        if out.capacities() != caps_before {
            self.reallocs += 1;
            self.bytes_moved = self
                .bytes_moved
                .saturating_add((out.len() * ENTRY_BYTES) as u64);
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
    offsets: Vec<u32>,
    /// `counts[k]` belongs to `offsets[k]`; the lengths are equal.
    counts: Vec<u64>,
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
        Pil::from_raw(entries)
    }

    /// Internal constructor for entries already known to be valid
    /// (produced by the scan or a join).
    pub(crate) fn from_raw(entries: Vec<(u32, u64)>) -> Pil {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries.iter().all(|&(_, y)| y > 0));
        let (offsets, counts) = entries.into_iter().unzip();
        Pil { offsets, counts }
    }

    /// Internal constructor from the two arrays of a valid list.
    pub(crate) fn from_parts(offsets: &[u32], counts: &[u64]) -> Pil {
        debug_assert_eq!(offsets.len(), counts.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(counts.iter().all(|&y| y > 0));
        Pil {
            offsets: offsets.to_vec(),
            counts: counts.to_vec(),
        }
    }

    /// The first offsets `x`, ascending.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The counts `y`, position for position with [`Pil::offsets`].
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `(x, y)` pairs, in ascending offset order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (u32, u64)> + '_ {
        self.offsets
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
    }

    /// Number of distinct first offsets.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True iff the pattern has no matches.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Property 1: `sup(P)` is the sum of the counts.
    ///
    /// The fold widens to `u128` before summing, so it cannot clamp for
    /// any physically representable list (< 2³² entries of ≤ 2⁶⁴ each);
    /// the saturation risk lives in the per-entry `u64` counts, which
    /// the mining engines track via `MineStats::support_saturated`.
    pub fn support(&self) -> u128 {
        support_of(&self.counts)
    }

    /// `PIL` of a single-character pattern: every occurrence position
    /// with count 1.
    pub fn build_level1(seq: &Sequence, code: u8) -> Pil {
        let offsets: Vec<u32> = seq
            .codes()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == code)
            .map(|(i, _)| (i + 1) as u32)
            .collect();
        let counts = vec![1u64; offsets.len()];
        Pil { offsets, counts }
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
    /// assert_eq!(act.entries().collect::<Vec<_>>(), [(1, 3), (2, 2)]);
    /// assert_eq!(act.support(), 5);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn join(prefix: &Pil, suffix: &Pil, gap: GapRequirement) -> Pil {
        Pil::join_checked(prefix, suffix, gap).0
    }

    /// [`Pil::join`] with the saturation flag surfaced: the second
    /// element is `true` when a window sum exceeded `u64::MAX` and its
    /// count was clamped there, making the returned counts lower bounds
    /// rather than exact. Every offset with a nonzero window is kept
    /// either way. Callers that compare supports (the reference engine,
    /// the verifiers) must check it instead of silently trusting
    /// clamped counts.
    pub fn join_checked(prefix: &Pil, suffix: &Pil, gap: GapRequirement) -> (Pil, bool) {
        if prefix.is_empty() || suffix.is_empty() {
            return (Pil::new(), false);
        }
        let (from, to) = overlap_range(&prefix.offsets, &suffix.offsets, gap);
        let mut out = Pil {
            offsets: Vec::with_capacity(to - from),
            counts: Vec::with_capacity(to - from),
        };
        let saturated = join_into(
            &prefix.offsets,
            &suffix.offsets,
            &suffix.counts,
            gap,
            &mut out,
            &mut JoinCounters::default(),
        );
        (out, saturated)
    }

    /// Build `PIL(P)` for every length-`level` pattern that occurs in
    /// `seq` at all, by one scan that extends every offset sequence one
    /// gap step at a time and groups them by the symbols they spell
    /// (`O(L · W^(level−1))` work, the same for every alphabet).
    /// Patterns with empty PILs are absent from the map.
    ///
    /// This is how the miner seeds level 3 ("scan S to compute the PILs
    /// of all patterns in C3", Figure 3 line 9).
    ///
    /// # Panics
    /// Panics if `level == 0`.
    pub fn build_all(seq: &Sequence, gap: GapRequirement, level: usize) -> HashMap<Pattern, Pil> {
        crate::arena::build_seed(seq, gap, level).into_pil_map()
    }

    /// Empty the list, keeping both arrays' allocations — the engine
    /// joins every kept candidate into one reused output list.
    pub(crate) fn clear(&mut self) {
        self.offsets.clear();
        self.counts.clear();
    }

    fn capacities(&self) -> (usize, usize) {
        (self.offsets.capacity(), self.counts.capacity())
    }
}

/// Property 1 over a count array: the sum, widened to `u128`.
pub(crate) fn support_of(counts: &[u64]) -> u128 {
    counts
        .iter()
        .fold(0u128, |acc, &y| acc.saturating_add(y as u128))
}

/// The contiguous run of prefix offsets whose gap window `[x + N + 1,
/// x + M + 1]` intersects the suffix's occupied offset range
/// `[b[0], b[last]]` — only those can produce output. Offsets are
/// ascending, so the contributors form one run `a[from..to]`; the join
/// kernel clips its left scan to it (probing the smaller, contributing
/// side instead of the whole prefix list) and [`Pil::join_checked`]
/// reserves its length. Both lists must be non-empty.
#[inline]
fn overlap_range(a: &[u32], b: &[u32], gap: GapRequirement) -> (usize, usize) {
    let b_first = b[0] as u64;
    let b_last = b[b.len() - 1] as u64;
    let min_step = gap.min_step() as u64;
    let max_step = gap.max_step() as u64;
    let from = a.partition_point(|&x| (x as u64) + max_step < b_first);
    let to = a.partition_point(|&x| (x as u64) + min_step <= b_last);
    (from, to.max(from))
}

/// The join kernel: `PIL(P)` from the left parent's offsets `a` and the
/// suffix list `(b, b_counts)`, appended to `out`. Every join in the
/// workspace runs here — the mining engine into one reused output list
/// per task, [`Pil::join_checked`] into a fresh one. See [`Pil::join`]
/// for the algorithm.
///
/// The window sum runs in `u64`; a join whose sum overflows is redone
/// in `u128`. Returns `true` when an emitted count exceeded `u64::MAX`
/// and was clamped there: that count is a lower bound, not exact.
/// Callers that report supports must surface the flag — the arena
/// engine ORs it into [`crate::arena::PilSet`] and the miners raise
/// `MineStats::support_saturated`.
pub(crate) fn join_into(
    a: &[u32],
    b: &[u32],
    b_counts: &[u64],
    gap: GapRequirement,
    out: &mut Pil,
    counters: &mut JoinCounters,
) -> bool {
    counters.joins += 1;
    if a.is_empty() || b.is_empty() {
        return false;
    }
    // Clip the left scan to the overlap run: offsets outside it have an
    // empty window and can only burn cycles.
    let (from, to) = overlap_range(a, b, gap);
    let a = &a[from..to];
    if a.is_empty() {
        return false;
    }
    let b_counts = &b_counts[..b.len()];
    let caps_before = out.capacities();
    let mark = out.len();
    let (absorbed, saturated) = window_join(a, b, b_counts, gap, out, u64::checked_add)
        .unwrap_or_else(|| {
            out.offsets.truncate(mark);
            out.counts.truncate(mark);
            // Fewer than 2³² entries of at most 2⁶⁴ each: no overflow.
            let add = |window: u128, count: u64| Some(window + u128::from(count));
            window_join(a, b, b_counts, gap, out, add).expect("a u128 window sum cannot overflow")
        });
    counters.probed += (a.len() + absorbed) as u64;
    counters.note_growth(out, caps_before);
    saturated
}

/// The kernel body over the clipped left run `a`, with the window sum
/// in `W`. Returns `None` as soon as `add` finds the sum does not fit;
/// otherwise the number of suffix entries absorbed into the window, and
/// whether an emitted count was clamped to `u64::MAX`.
#[inline(always)]
fn window_join<W>(
    a: &[u32],
    b: &[u32],
    b_counts: &[u64],
    gap: GapRequirement,
    out: &mut Pil,
    add: impl Fn(W, u64) -> Option<W>,
) -> Option<(usize, bool)>
where
    W: Copy + PartialEq + From<u64> + std::ops::Sub<Output = W>,
    u64: TryFrom<W>,
{
    let min_step = gap.min_step() as u64;
    let max_step = gap.max_step() as u64;
    let (mut lo, mut hi) = (0usize, 0usize); // window is b[lo..hi]
    let mut window = W::from(0);
    let mut clamped = false;
    for &x in a {
        let min_pos = x as u64 + min_step;
        let max_pos = x as u64 + max_step;
        while hi < b.len() && (b[hi] as u64) <= max_pos {
            window = add(window, b_counts[hi])?;
            hi += 1;
        }
        while lo < hi && (b[lo] as u64) < min_pos {
            window = window - W::from(b_counts[lo]);
            lo += 1;
        }
        if window != W::from(0) {
            out.offsets.push(x);
            out.counts.push(u64::try_from(window).unwrap_or_else(|_| {
                clamped = true;
                u64::MAX
            }));
        }
    }
    Some((hi, clamped))
}

/// Per-symbol window counts of one sequence under one gap: the support
/// of every front extension `a·m` from `PIL(m)` alone.
///
/// In the join, the left parent only filters. A match of `P = a·m` from
/// `x` is `S[x] = a` followed by a match of `m` from some `c` with
/// `c − x − 1 ∈ [N, M]`, so
/// `PIL(P)[x] = [S[x] = a] · Σ_{c ∈ [x+N+1, x+M+1]} PIL(m)[c]`.
/// Summed over `x`, `sup(P) = Σ_{(c, y) ∈ PIL(m)} y · occ_a(c)`, where
/// `occ_a(c) = #{x ∈ [c−M−1, c−N−1], x ≥ 1 : S[x] = a}` depends only on
/// `S` and the gap. The table holds `occ_a(c)` for every symbol `a` and
/// every `c ∈ 0..=L`, symbol-major: `σ·(L+1)` `u32` counts, built by one
/// sweep of `S` per symbol. A count is at most `L`, and offsets are
/// `u32`, so every count fits.
///
/// ```
/// use perigap_core::pil::WindowTable;
/// use perigap_core::{GapRequirement, Pattern, Pil};
/// use perigap_seq::{Alphabet, Sequence};
///
/// // The paper's Section 5.1 example: sup(ACT) from PIL(CT) alone.
/// let s = Sequence::dna("AACCGTT")?;
/// let gap = GapRequirement::new(1, 2)?;
/// let ct = Pattern::parse("CT", &Alphabet::Dna)?;
/// let table = WindowTable::new(&s, gap);
/// assert_eq!(table.extension_support(0, &Pil::build_all(&s, gap, 2)[&ct]), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct WindowTable {
    /// `L + 1`: the length of one symbol's row.
    stride: usize,
    /// Row `a` is `occ[a·stride .. (a+1)·stride]`.
    occ: Vec<u32>,
}

impl WindowTable {
    /// The table of `seq` under `gap`.
    pub fn new(seq: &Sequence, gap: GapRequirement) -> WindowTable {
        let codes = seq.codes();
        let stride = codes.len() + 1;
        let (lo, hi) = (gap.min_step(), gap.max_step());
        let mut occ = vec![0u32; seq.alphabet().size() * stride];
        for (a, row) in occ.chunks_exact_mut(stride).enumerate() {
            // First the prefix counts `#{x ≤ i : S[x] = a}` ...
            let mut seen = 0u32;
            for (i, &s) in codes.iter().enumerate() {
                seen += u32::from(usize::from(s) == a);
                row[i + 1] = seen;
            }
            // ... then each window as a difference of two of them,
            // descending: both reads sit below `c`, not yet overwritten.
            for c in (0..stride).rev() {
                row[c] = match c.checked_sub(lo) {
                    Some(top) => row[top] - row[c.saturating_sub(hi + 1)],
                    None => 0,
                };
            }
        }
        WindowTable { stride, occ }
    }

    /// `occ_a(c)` for every `c ∈ 0..=L`.
    pub(crate) fn row(&self, a: u8) -> &[u32] {
        let start = usize::from(a) * self.stride;
        &self.occ[start..start + self.stride]
    }

    /// `sup(a·m)` from `suffix = PIL(m)`, without joining.
    ///
    /// # Panics
    /// Panics if `a` is not a code of the sequence's alphabet, or if
    /// `suffix` holds an offset past the sequence's end (a list of
    /// another sequence).
    pub fn extension_support(&self, a: u8, suffix: &Pil) -> u128 {
        extension_support(self.row(a), &suffix.offsets, &suffix.counts)
    }
}

/// `Σ y · occ[c]` over the entries `(c, y)` of a list, in `u128`: fewer
/// than 2³² entries, each product below 2⁹⁶, so the sum cannot
/// overflow. `occ` is one [`WindowTable::row`].
#[inline]
pub(crate) fn extension_support(occ: &[u32], offsets: &[u32], counts: &[u64]) -> u128 {
    offsets.iter().zip(counts).fold(0u128, |acc, (&c, &y)| {
        acc + u128::from(y) * u128::from(occ[c as usize])
    })
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

    fn pairs(pil: &Pil) -> Vec<(u32, u64)> {
        pil.entries().collect()
    }

    #[test]
    fn paper_pil_example() {
        // Section 5.1: S = AACCGTT, P = ACT, [N,M] = [1,2] →
        // PIL(P) = {(1,3), (2,2)}, sup(P) = 5.
        let s = Sequence::dna("AACCGTT").unwrap();
        let g = gap(1, 2);
        let pils = Pil::build_all(&s, g, 3);
        let pil = &pils[&pat("ACT")];
        assert_eq!(pairs(pil), [(1, 3), (2, 2)]);
        assert_eq!(pil.support(), 5);
    }

    #[test]
    fn level1_lists_occurrences() {
        let s = Sequence::dna("ACAAC").unwrap();
        let pil = Pil::build_level1(&s, 0); // A
        assert_eq!(pairs(&pil), [(1, 1), (3, 1), (4, 1)]);
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
    fn window_table_counts_by_hand() {
        // S = AACCGTT, gap [1,2]: occ_A(c) counts the A's at
        // x ∈ [c − 3, c − 2], and S has A at 1 and 2.
        let s = Sequence::dna("AACCGTT").unwrap();
        let table = WindowTable::new(&s, gap(1, 2));
        assert_eq!(table.row(0), [0, 0, 0, 1, 2, 1, 0, 0]);
        // T at 6 and 7 is seen from c = 8 and 9 only, past the end.
        assert_eq!(table.row(3), [0; 8]);
        // sup(AC) from PIL(C) = {(3,1), (4,1)}: 1·1 + 1·2.
        assert_eq!(table.extension_support(0, &Pil::build_level1(&s, 1)), 3);
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
        assert_eq!(pairs(&ac), [(1, 1), (4, 1)]);
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
        assert_eq!(pairs(&joined), [(1, u64::MAX)]);
        // Non-overflowing joins keep the flag clear.
        let c = Pil::from_entries(vec![(3, 7)]);
        let (joined, saturated) = Pil::join_checked(&a, &c, g);
        assert!(!saturated);
        assert_eq!(joined.support(), 7);
        // Pil::join stays the unchecked view of the same result.
        assert_eq!(pairs(&Pil::join(&a, &b, g)), [(1, u64::MAX)]);
    }

    #[test]
    fn clamped_join_keeps_every_offset() {
        // At x = 2 the window is (u64::MAX) + 1 = 2⁶⁴: clamped, not
        // dropped, although a running u64 sum clamped at x = 1 would
        // read 0 once x = 1's first partner leaves the window.
        let a = Pil::from_entries(vec![(1, 1), (2, 1)]);
        let b = Pil::from_entries(vec![(2, u64::MAX), (3, u64::MAX), (4, 1)]);
        let (joined, saturated) = Pil::join_checked(&a, &b, gap(0, 1));
        assert!(saturated);
        assert_eq!(pairs(&joined), [(1, u64::MAX), (2, u64::MAX)]);
        // A running sum that overflows only between emissions: at x = 3
        // it reads u64::MAX + 1 before x = 1's partner leaves. Every
        // emitted window fits, so the join is exact and unflagged.
        let b = Pil::from_entries(vec![(2, u64::MAX), (4, 1)]);
        let a = Pil::from_entries(vec![(1, 1), (3, 1)]);
        let (joined, saturated) = Pil::join_checked(&a, &b, gap(0, 0));
        assert!(!saturated);
        assert_eq!(pairs(&joined), [(1, u64::MAX), (3, 1)]);
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
        assert_eq!(joined.capacities(), (0, 0), "disjoint join over-allocated");
        // Suffix far above every prefix window: same result.
        let (joined, _) = Pil::join_checked(&b, &a, gap(0, 2));
        assert!(joined.is_empty());
        assert_eq!(joined.capacities(), (0, 0));
        // Partial overlap reserves only the contributing run, not the
        // whole prefix.
        let wide = Pil::from_entries((1..=100).map(|x| (x, 1u64)).collect());
        let narrow = Pil::from_entries(vec![(50, 1)]);
        let (joined, _) = Pil::join_checked(&wide, &narrow, gap(0, 1));
        assert_eq!(pairs(&joined), [(48, 1), (49, 1)]);
        assert!(
            joined.offsets.capacity() < wide.len() && joined.counts.capacity() < wide.len(),
            "overlap reserve must beat the prefix-length bound"
        );
    }

    #[test]
    fn counters_track_joins_probes_and_growth() {
        let a = Pil::from_entries((1..=64).map(|x| (x, 1u64)).collect());
        let b = Pil::from_entries((1..=64).map(|x| (x, 2u64)).collect());
        let g = gap(0, 4);
        let mut jc = JoinCounters::default();
        let mut out = Pil::new();
        join_into(a.offsets(), b.offsets(), b.counts(), g, &mut out, &mut jc);
        assert_eq!(jc.joins, 1);
        // Overlap clipping drops x = 64 (its window starts past the
        // suffix range), so 63 left offsets scan and all 64 suffix
        // entries are absorbed into the window.
        assert_eq!(jc.probed, 63 + 64);
        assert!(jc.reallocs >= 1, "unreserved output must grow");
        // Growth is charged at 12 bytes an entry: both arrays, no
        // padding.
        assert_eq!(jc.bytes_moved, 12 * out.len() as u64);
        // A pre-reserved output records no growth.
        let mut jc2 = JoinCounters::default();
        let mut out2 = Pil {
            offsets: Vec::with_capacity(64),
            counts: Vec::with_capacity(64),
        };
        join_into(a.offsets(), b.offsets(), b.counts(), g, &mut out2, &mut jc2);
        assert_eq!(jc2.reallocs, 0);
        assert_eq!(jc2.bytes_moved, 0);
        assert_eq!(out, out2);
        // A cleared output keeps its allocation for the next join.
        out2.clear();
        assert!(out2.is_empty());
        join_into(a.offsets(), b.offsets(), b.counts(), g, &mut out2, &mut jc2);
        assert_eq!(jc2.reallocs, 0);
        assert_eq!(out, out2);
        // absorb folds totals.
        jc.absorb(&jc2);
        assert_eq!(jc.joins, 3);
    }
}
