//! The in-memory query index behind `pgmine serve`.
//!
//! A mined pattern set is useful at serving scale only if the four
//! query kinds the daemon exposes — exact support, top-k by support,
//! prefix enumeration, and region overlap — answer without rescanning
//! the sequence. [`PatternIndex`] precomputes exactly what each needs:
//!
//! * **support / prefix** — entries sorted lexicographically by code
//!   string, so an exact lookup is one binary search and a prefix query
//!   is a contiguous range scan bounded by the prefix's byte-successor;
//! * **top-k** — a rank array sorted by `(support desc, len asc,
//!   codes asc)`, so top-k is a slice of the first `k` ranks and ties
//!   break deterministically;
//! * **overlap** — an optional per-pattern occurrence summary computed
//!   from the subject sequence: the ascending list of 1-based start
//!   offsets together with each start's furthest reachable match end.
//!   That end never decreases as the start moves right (see
//!   `OccSummary::extend`), so a pattern has an occurrence
//!   overlapping `[a, b]` iff the last start `s ≤ b` reaches an end
//!   `≥ a`, which one binary search and one probe answer.
//!
//! The occurrence summary needs the subject sequence (PGST outcome
//! files persist supports, not offset lists); an index built from a
//! file alone serves the other three kinds and reports overlap queries
//! as unavailable.
//!
//! The summaries are built in one pass over the patterns in
//! reversed-code order, the shape of the paper's Section 5.1 PIL join: a
//! pattern's summary comes from its one-shorter suffix's summary and
//! the positions of its first symbol, and patterns that share a suffix
//! share its summaries on a stack. The pass costs `O(L/σ + |suffix|)`
//! per distinct suffix, where a dense dynamic program per pattern cost
//! `O(L·l·w)` and shared nothing.

use crate::LoadedOutcome;
use perigap_core::{GapRequirement, Pattern};
use perigap_seq::{Alphabet, Sequence};

/// One pattern in the index.
#[derive(Clone, Debug)]
pub struct IndexEntry {
    /// The pattern's code string.
    pub pattern: Pattern,
    /// Exact support from the mine.
    pub support: u128,
    /// `support / n` from the mine.
    pub ratio: f64,
    occ: Option<OccSummary>,
}

impl IndexEntry {
    /// Render the pattern under the index's alphabet.
    pub fn display(&self, alphabet: &Alphabet) -> String {
        self.pattern.display(alphabet)
    }
}

/// Per-pattern occurrence summary for overlap queries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct OccSummary {
    /// Ascending 1-based offsets where a match starts.
    starts: Vec<u32>,
    /// `ends[i]` = the furthest 1-based end offset of a match from
    /// `starts[i]`. Non-decreasing, so it is also the furthest end
    /// reachable from any start in `starts[..=i]`.
    ends: Vec<u32>,
}

impl OccSummary {
    /// Does any occurrence `[s, e]` satisfy `s ≤ b && e ≥ a`?
    fn overlaps(&self, a: u32, b: u32) -> bool {
        // Last start ≤ b.
        let idx = self.starts.partition_point(|&s| s <= b);
        idx > 0 && self.ends[idx - 1] >= a
    }

    /// The summary of a one-symbol pattern: each occurrence is its own
    /// start and end.
    fn symbol(positions: &[u32]) -> OccSummary {
        OccSummary {
            starts: positions.to_vec(),
            ends: positions.to_vec(),
        }
    }

    /// The summary of `a·m`, given the ascending `positions` of `a` and
    /// `suffix`, the summary of `m`. A match of `a·m` from `x` continues
    /// with a match of `m` from some start `c ∈ [x+N+1, x+M+1]`, so its
    /// furthest end is the largest `suffix` end in that window.
    ///
    /// The ends of `suffix` never decrease as its start moves right:
    /// true of a one-symbol summary, and kept by this step, since the
    /// window slides right with `x`. The largest end in a window is then
    /// the end of its last entry, and the furthest end from `x` is the
    /// end of the last `suffix` entry at or before `x+M+1`, if that
    /// entry starts at or after `x+N+1`. One two-pointer walk over both
    /// lists finds it for every `x`.
    fn extend(positions: &[u32], suffix: &OccSummary, gap: GapRequirement) -> OccSummary {
        // Steps in u64, saturated: a stored gap may be as wide as usize.
        let min_step = (gap.min() as u64).saturating_add(1);
        let max_step = (gap.max() as u64).saturating_add(1);
        let mut out = OccSummary {
            starts: Vec::with_capacity(positions.len()),
            ends: Vec::with_capacity(positions.len()),
        };
        // Suffix entries that start at or before x + M + 1.
        let mut reach = 0;
        for &x in positions {
            let x64 = u64::from(x);
            let last = x64.saturating_add(max_step);
            while reach < suffix.starts.len() && u64::from(suffix.starts[reach]) <= last {
                reach += 1;
            }
            match reach.checked_sub(1) {
                Some(k) if u64::from(suffix.starts[k]) >= x64.saturating_add(min_step) => {
                    out.starts.push(x);
                    out.ends.push(suffix.ends[k]);
                }
                // Every suffix entry is passed and starts too early for
                // this x, so for every later x too.
                _ if reach == suffix.starts.len() => break,
                _ => {}
            }
        }
        out
    }
}

/// The immutable in-memory index the serve daemon answers from.
#[derive(Clone, Debug)]
pub struct PatternIndex {
    /// Entries sorted lexicographically by code string.
    entries: Vec<IndexEntry>,
    /// Entry indices sorted by `(support desc, len asc, codes asc)`.
    by_support: Vec<u32>,
    alphabet: Alphabet,
    gap: GapRequirement,
    rho: f64,
    n_used: usize,
    has_occurrences: bool,
}

impl PatternIndex {
    /// Build an index over a loaded outcome. When `seq` is given, the
    /// per-pattern occurrence summaries are computed from it and
    /// overlap queries become available. A pattern code outside the
    /// sequence's alphabet never matches.
    pub fn build(
        loaded: &LoadedOutcome,
        alphabet: Alphabet,
        seq: Option<&Sequence>,
    ) -> PatternIndex {
        let gap = loaded.gap;
        let mut entries: Vec<IndexEntry> = loaded
            .outcome
            .frequent
            .iter()
            .map(|f| IndexEntry {
                pattern: f.pattern.clone(),
                support: f.support,
                ratio: f.ratio,
                occ: None,
            })
            .collect();
        entries.sort_by(|a, b| a.pattern.codes().cmp(b.pattern.codes()));
        entries.dedup_by(|a, b| a.pattern.codes() == b.pattern.codes());
        if let Some(seq) = seq {
            let codes: Vec<&[u8]> = entries.iter().map(|e| e.pattern.codes()).collect();
            let summaries = occurrence_summaries(seq, gap, &codes);
            for (entry, occ) in entries.iter_mut().zip(summaries) {
                entry.occ = Some(occ);
            }
        }
        let mut by_support: Vec<u32> = (0..entries.len() as u32).collect();
        by_support.sort_by(|&i, &j| {
            let (a, b) = (&entries[i as usize], &entries[j as usize]);
            b.support
                .cmp(&a.support)
                .then(a.pattern.len().cmp(&b.pattern.len()))
                .then(a.pattern.codes().cmp(b.pattern.codes()))
        });
        PatternIndex {
            entries,
            by_support,
            alphabet,
            gap,
            rho: loaded.rho,
            n_used: loaded.outcome.stats.n_used,
            has_occurrences: seq.is_some(),
        }
    }

    /// Number of indexed patterns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The alphabet patterns render under.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Gap requirement of the mine the index was built from.
    pub fn gap(&self) -> GapRequirement {
        self.gap
    }

    /// Support threshold of the mine.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The `n` the mine used (denominator of the support ratios).
    pub fn n_used(&self) -> usize {
        self.n_used
    }

    /// True when overlap queries are available (the index was built
    /// with the subject sequence).
    pub fn has_occurrences(&self) -> bool {
        self.has_occurrences
    }

    /// Exact-support lookup by code string.
    pub fn support(&self, codes: &[u8]) -> Option<&IndexEntry> {
        self.entries
            .binary_search_by(|e| e.pattern.codes().cmp(codes))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// The `k` highest-support patterns, ties broken by `(len, codes)`.
    pub fn top_k(&self, k: usize) -> impl Iterator<Item = &IndexEntry> {
        self.by_support
            .iter()
            .take(k)
            .map(|&i| &self.entries[i as usize])
    }

    /// Patterns whose code string starts with `prefix`, in lexicographic
    /// order: at most `limit` entries plus the total match count.
    pub fn prefix(&self, prefix: &[u8], limit: usize) -> (Vec<&IndexEntry>, usize) {
        let lo = self.entries.partition_point(|e| e.pattern.codes() < prefix);
        let matches = self.entries[lo..]
            .iter()
            .take_while(|e| e.pattern.codes().starts_with(prefix));
        let mut out = Vec::new();
        let mut total = 0usize;
        for e in matches {
            if out.len() < limit {
                out.push(e);
            }
            total += 1;
        }
        (out, total)
    }

    /// Patterns with an occurrence overlapping the 1-based offset range
    /// `[a, b]`, in `(support desc, len, codes)` order: at most `limit`
    /// entries plus the total match count. `None` when the index was
    /// built without the subject sequence.
    pub fn overlap(&self, a: u32, b: u32, limit: usize) -> Option<(Vec<&IndexEntry>, usize)> {
        if !self.has_occurrences {
            return None;
        }
        let mut out = Vec::new();
        let mut total = 0usize;
        for &i in &self.by_support {
            let e = &self.entries[i as usize];
            if e.occ.as_ref().is_some_and(|occ| occ.overlaps(a, b)) {
                if out.len() < limit {
                    out.push(e);
                }
                total += 1;
            }
        }
        Some((out, total))
    }
}

/// The occurrence summary of every pattern in `patterns` over `seq`, in
/// the order given, from one pass in reversed-code order. `stack[k]`
/// holds the summary of the current pattern's last `k + 1` codes; each
/// pattern pops the stack to the suffix it shares with the one before
/// and pushes only its new suffixes, each by one [`OccSummary::extend`].
fn occurrence_summaries(
    seq: &Sequence,
    gap: GapRequirement,
    patterns: &[&[u8]],
) -> Vec<OccSummary> {
    // positions[c]: the ascending 1-based offsets of symbol c. Offsets
    // are u32, as query ranges are, so symbols past u32::MAX are left out.
    let mut positions: Vec<Vec<u32>> = vec![Vec::new(); seq.alphabet().size()];
    for (at, &c) in (1..=u32::MAX).zip(seq.codes()) {
        positions[c as usize].push(at);
    }
    let positions_of = |c: u8| positions.get(c as usize).map_or(&[][..], Vec::as_slice);
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    order.sort_by(|&a, &b| patterns[a].iter().rev().cmp(patterns[b].iter().rev()));
    let mut summaries = vec![OccSummary::default(); patterns.len()];
    let mut stack: Vec<OccSummary> = Vec::new();
    let mut prev: &[u8] = &[];
    for i in order {
        let codes = patterns[i];
        let shared = codes
            .iter()
            .rev()
            .zip(prev.iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        stack.truncate(shared);
        for &c in codes.iter().rev().skip(shared) {
            let next = match stack.last() {
                None => OccSummary::symbol(positions_of(c)),
                Some(suffix) => OccSummary::extend(positions_of(c), suffix, gap),
            };
            stack.push(next);
        }
        if let Some(top) = stack.last() {
            summaries[i] = top.clone();
        }
        prev = codes;
    }
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigap_core::mpp::{mpp, MppConfig};
    use perigap_core::naive;
    use perigap_core::result::{MineOutcome, MineStats};
    use perigap_core::FrequentPattern;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference: a pattern's occurrence summary by a backward
    /// dynamic program. Walking pattern positions last-to-first, a
    /// position `i` matches pattern position `j` iff the codes agree
    /// and some position in the gap window `[i + min_step, i +
    /// max_step]` matches position `j + 1`; the furthest reachable end
    /// rides along, and the ends are reported as a running prefix
    /// maximum. `O(n · l · w)` per pattern.
    fn dp_summary(seq: &Sequence, gap: GapRequirement, codes: &[u8]) -> OccSummary {
        let n = seq.len();
        let l = codes.len();
        if l == 0 || n == 0 {
            return OccSummary::default();
        }
        let data = seq.codes();
        // reach[i] = Some(furthest 1-based end) when a match of the
        // current suffix of the pattern starts at 0-based position i.
        let mut reach: Vec<Option<u32>> = data
            .iter()
            .enumerate()
            .map(|(i, &c)| (c == codes[l - 1]).then_some(i as u32 + 1))
            .collect();
        let (lo_step, hi_step) = (gap.min_step(), gap.max_step());
        for &code in codes[..l - 1].iter().rev() {
            let mut next: Vec<Option<u32>> = vec![None; n];
            for i in 0..n {
                if data[i] != code {
                    continue;
                }
                let lo = i + lo_step;
                if lo >= n {
                    continue;
                }
                let hi = (i + hi_step).min(n - 1);
                next[i] = reach[lo..=hi].iter().flatten().copied().max();
            }
            reach = next;
        }
        let mut out = OccSummary::default();
        let mut running = 0u32;
        for (i, e) in reach.iter().enumerate() {
            if let Some(e) = e {
                out.starts.push(i as u32 + 1);
                running = running.max(*e);
                out.ends.push(running);
            }
        }
        out
    }

    fn loaded_from(outcome: MineOutcome, gap: GapRequirement, rho: f64) -> LoadedOutcome {
        LoadedOutcome { outcome, gap, rho }
    }

    fn mined() -> (Sequence, GapRequirement, f64, LoadedOutcome) {
        let seq = Sequence::dna(&format!("{}AACCGGTT", "ACGT".repeat(30))).unwrap();
        let gap = GapRequirement::new(0, 2).unwrap();
        let rho = 0.001;
        let outcome = mpp(&seq, gap, rho, 10, MppConfig::default()).unwrap();
        assert!(outcome.frequent.len() >= 4, "workload must mine patterns");
        let loaded = loaded_from(outcome, gap, rho);
        (seq, gap, rho, loaded)
    }

    #[test]
    fn support_lookup_matches_the_mined_set() {
        let (seq, _, _, loaded) = mined();
        let index = PatternIndex::build(&loaded, Alphabet::Dna, Some(&seq));
        assert_eq!(index.len(), loaded.outcome.frequent.len());
        for f in &loaded.outcome.frequent {
            let e = index.support(f.pattern.codes()).expect("indexed");
            assert_eq!(e.support, f.support);
            assert_eq!(e.ratio, f.ratio);
        }
        assert!(index.support(&[0, 0, 0, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn top_k_is_sorted_and_deterministic() {
        let (_, _, _, loaded) = mined();
        let index = PatternIndex::build(&loaded, Alphabet::Dna, None);
        let top: Vec<_> = index.top_k(5).collect();
        assert_eq!(top.len(), 5.min(index.len()));
        for pair in top.windows(2) {
            assert!(
                pair[0].support > pair[1].support
                    || (pair[0].support == pair[1].support
                        && (pair[0].pattern.len(), pair[0].pattern.codes())
                            < (pair[1].pattern.len(), pair[1].pattern.codes())),
                "rank order must be (support desc, len, codes)"
            );
        }
        // k beyond the set size returns everything.
        assert_eq!(index.top_k(usize::MAX).count(), index.len());
    }

    #[test]
    fn prefix_query_equals_post_filtering() {
        let (_, _, _, loaded) = mined();
        let index = PatternIndex::build(&loaded, Alphabet::Dna, None);
        for prefix in [&[0u8][..], &[1], &[0, 1], &[2, 3, 0], &[]] {
            let (got, total) = index.prefix(prefix, usize::MAX);
            let mut want: Vec<&[u8]> = loaded
                .outcome
                .frequent
                .iter()
                .map(|f| f.pattern.codes())
                .filter(|c| c.starts_with(prefix))
                .collect();
            want.sort();
            assert_eq!(total, want.len(), "prefix {prefix:?}");
            let got_codes: Vec<&[u8]> = got.iter().map(|e| e.pattern.codes()).collect();
            assert_eq!(got_codes, want, "prefix {prefix:?}");
        }
        // The limit caps rows but not the reported total.
        let (capped, total) = index.prefix(&[], 3);
        assert_eq!(capped.len(), 3.min(index.len()));
        assert_eq!(total, index.len());
    }

    #[test]
    fn overlap_matches_the_naive_match_enumerator() {
        let (seq, gap, _, loaded) = mined();
        let index = PatternIndex::build(&loaded, Alphabet::Dna, Some(&seq));
        assert!(index.has_occurrences());
        for f in &loaded.outcome.frequent {
            let matches = naive::enumerate_matches(&seq, gap, &f.pattern);
            for (a, b) in [
                (1u32, 4u32),
                (5, 8),
                (10, 10),
                (1, seq.len() as u32),
                (20, 24),
            ] {
                let (hits, _) = index.overlap(a, b, usize::MAX).unwrap();
                let served = hits.iter().any(|e| e.pattern == f.pattern);
                let oracle = matches.iter().any(|m| {
                    let (first, last) = (m[0] as u32, *m.last().unwrap() as u32);
                    first <= b && last >= a
                });
                assert_eq!(
                    served,
                    oracle,
                    "pattern {:?} over [{a}, {b}]",
                    f.pattern.codes()
                );
            }
        }
        // Without the sequence, overlap is unavailable.
        let blind = PatternIndex::build(&loaded, Alphabet::Dna, None);
        assert!(blind.overlap(1, 4, 8).is_none());
    }

    #[test]
    fn empty_and_degenerate_inputs_are_harmless() {
        let gap = GapRequirement::new(1, 2).unwrap();
        let empty = loaded_from(MineOutcome::default(), gap, 0.5);
        let index = PatternIndex::build(&empty, Alphabet::Dna, None);
        assert!(index.is_empty());
        assert_eq!(index.top_k(5).count(), 0);
        assert_eq!(index.prefix(&[0], 5).1, 0);
        assert!(index.support(&[0]).is_none());

        // A pattern whose span exceeds the sequence end never matches.
        let seq = Sequence::dna("ACG").unwrap();
        let outcome = MineOutcome {
            frequent: vec![FrequentPattern {
                pattern: Pattern::from_codes(vec![0, 1, 2]),
                support: 1,
                ratio: 0.5,
            }],
            stats: MineStats::default(),
        };
        let loaded = loaded_from(outcome, GapRequirement::new(3, 5).unwrap(), 0.5);
        let index = PatternIndex::build(&loaded, Alphabet::Dna, Some(&seq));
        let (hits, total) = index.overlap(1, 3, 8).unwrap();
        assert!(hits.is_empty());
        assert_eq!(total, 0);
    }

    /// A DNA or protein sequence of `len` uniform codes.
    fn random_sequence(rng: &mut StdRng, protein: bool, len: usize) -> Sequence {
        let alphabet = if protein {
            Alphabet::Protein
        } else {
            Alphabet::Dna
        };
        let sigma = alphabet.size() as u8;
        let codes = (0..len).map(|_| rng.gen_range(0..sigma)).collect();
        Sequence::from_codes(alphabet, codes).unwrap()
    }

    /// Up to `count` patterns of 1 to `max_len` codes over `seq`: walks
    /// through `seq` under `gap` (so they occur), earlier patterns
    /// behind a new front (shared suffixes), exact duplicates, patterns
    /// holding a code at or past σ, and uniform codes.
    fn pattern_set(
        rng: &mut StdRng,
        seq: &Sequence,
        gap: GapRequirement,
        count: usize,
        max_len: usize,
    ) -> Vec<Vec<u8>> {
        let sigma = seq.alphabet().size() as u8;
        let mut set: Vec<Vec<u8>> = Vec::new();
        for _ in 0..rng.gen_range(1..=count) {
            let len = rng.gen_range(1..=max_len);
            let uniform = |rng: &mut StdRng| -> Vec<u8> {
                (0..len).map(|_| rng.gen_range(0..sigma)).collect()
            };
            let pattern = match rng.gen_range(0..5) {
                0 if !seq.is_empty() => {
                    let mut at = rng.gen_range(0..seq.len());
                    let mut codes = vec![seq.codes()[at]];
                    while codes.len() < len {
                        at += rng.gen_range(gap.min_step()..=gap.max_step());
                        match seq.codes().get(at) {
                            Some(&c) => codes.push(c),
                            None => break,
                        }
                    }
                    codes
                }
                1 if !set.is_empty() => {
                    let base = &set[rng.gen_range(0..set.len())];
                    let mut codes: Vec<u8> = (0..rng.gen_range(1..=3))
                        .map(|_| rng.gen_range(0..sigma))
                        .collect();
                    codes.extend(base);
                    codes[codes.len().saturating_sub(max_len)..].to_vec()
                }
                2 if !set.is_empty() => set[rng.gen_range(0..set.len())].clone(),
                3 => {
                    let mut codes = uniform(rng);
                    codes[rng.gen_range(0..len)] = rng.gen_range(sigma..=u8::MAX);
                    codes
                }
                _ => uniform(rng),
            };
            set.push(pattern);
        }
        set
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass summaries equal the per-pattern DP entry for
        /// entry, over DNA and protein, rigid and wide gaps, and spans
        /// longer than the sequence.
        #[test]
        fn summaries_equal_the_dp(
            protein: bool,
            len in prop_oneof![0usize..12, 0usize..=400],
            min in 0usize..6,
            width in prop_oneof![Just(0usize), 1usize..4, 4usize..40, 40usize..400],
            seed: u64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let seq = random_sequence(&mut rng, protein, len);
            let gap = GapRequirement::new(min, min + width).unwrap();
            let set = pattern_set(&mut rng, &seq, gap, 24, 10);
            let codes: Vec<&[u8]> = set.iter().map(Vec::as_slice).collect();
            let got = occurrence_summaries(&seq, gap, &codes);
            prop_assert_eq!(got.len(), set.len());
            for (pattern, summary) in set.iter().zip(&got) {
                prop_assert_eq!(
                    summary,
                    &dp_summary(&seq, gap, pattern),
                    "pattern {:?} under {} over L = {}",
                    pattern,
                    gap,
                    seq.len()
                );
            }
        }

        /// Served overlap rows and totals equal the exponential match
        /// enumerator's on short inputs.
        #[test]
        fn overlap_equals_the_naive_enumerator(
            protein: bool,
            len in 0usize..=30,
            min in 0usize..3,
            width in prop_oneof![Just(0usize), 1usize..4],
            seed: u64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let seq = random_sequence(&mut rng, protein, len);
            let gap = GapRequirement::new(min, min + width).unwrap();
            let set = pattern_set(&mut rng, &seq, gap, 16, 5);
            let outcome = MineOutcome {
                frequent: set
                    .iter()
                    .enumerate()
                    .map(|(i, codes)| FrequentPattern {
                        pattern: Pattern::from_codes(codes.clone()),
                        support: (i % 3) as u128,
                        ratio: 0.5,
                    })
                    .collect(),
                stats: MineStats::default(),
            };
            let index = PatternIndex::build(&loaded_from(outcome, gap, 0.5), seq.alphabet().clone(), Some(&seq));
            // Each pattern in rank order, with the (first, last) offsets
            // of every match.
            let ranked: Vec<&[u8]> = index.top_k(usize::MAX).map(|e| e.pattern.codes()).collect();
            let spans: Vec<Vec<(u32, u32)>> = index
                .top_k(usize::MAX)
                .map(|e| {
                    naive::enumerate_matches(&seq, gap, &e.pattern)
                        .iter()
                        .map(|m| (m[0] as u32, *m.last().unwrap() as u32))
                        .collect()
                })
                .collect();
            for _ in 0..8 {
                let a = rng.gen_range(1..=len as u32 + 2);
                let b = rng.gen_range(a..=len as u32 + 2);
                let want: Vec<&[u8]> = ranked
                    .iter()
                    .zip(&spans)
                    .filter(|(_, spans)| spans.iter().any(|&(s, e)| s <= b && e >= a))
                    .map(|(codes, _)| *codes)
                    .collect();
                let (rows, total) = index.overlap(a, b, usize::MAX).unwrap();
                let rows: Vec<&[u8]> = rows.iter().map(|e| e.pattern.codes()).collect();
                prop_assert_eq!(&rows, &want, "[{}, {}] under {}", a, b, gap);
                prop_assert_eq!(total, want.len());
            }
        }
    }

    /// Every `(first, last)` offset pair of a match of `codes`, by
    /// trying every next offset under [`GapRequirement::admits`], which
    /// never forms a step and so holds for any gap.
    fn brute_spans(seq: &Sequence, gap: GapRequirement, codes: &[u8]) -> Vec<(u32, u32)> {
        fn walk(
            seq: &Sequence,
            gap: GapRequirement,
            rest: &[u8],
            first: usize,
            at: usize,
            out: &mut Vec<(u32, u32)>,
        ) {
            let Some((&code, rest)) = rest.split_first() else {
                return out.push((first as u32, at as u32));
            };
            for next in at + 1..=seq.len() {
                if gap.admits(at, next) && seq.at1(next) == code {
                    walk(seq, gap, rest, first, next, out);
                }
            }
        }
        let mut out = Vec::new();
        for start in 1..=seq.len() {
            if codes.first() == Some(&seq.at1(start)) {
                walk(seq, gap, &codes[1..], start, start, &mut out);
            }
        }
        out
    }

    /// A gap as wide as `usize` allows, and a code past the alphabet,
    /// neither overflow a step nor panic the build.
    #[test]
    fn extreme_gaps_and_foreign_codes_are_harmless() {
        let seq = Sequence::dna("ACGTTGCA").unwrap();
        let patterns = [
            vec![0u8],
            vec![0, 3],
            vec![1, 2, 0],
            vec![7],
            vec![0, 200, 1],
        ];
        for (min, max) in [(0, usize::MAX), (usize::MAX, usize::MAX), (3, usize::MAX)] {
            let gap = GapRequirement::new(min, max).unwrap();
            let outcome = MineOutcome {
                frequent: patterns
                    .iter()
                    .map(|codes| FrequentPattern {
                        pattern: Pattern::from_codes(codes.clone()),
                        support: 1,
                        ratio: 0.5,
                    })
                    .collect(),
                stats: MineStats::default(),
            };
            let index =
                PatternIndex::build(&loaded_from(outcome, gap, 0.5), Alphabet::Dna, Some(&seq));
            for (a, b) in [(1u32, 1u32), (1, 8), (4, 6), (8, 8), (9, u32::MAX)] {
                let (rows, _) = index.overlap(a, b, usize::MAX).unwrap();
                for codes in &patterns {
                    let oracle = brute_spans(&seq, gap, codes)
                        .iter()
                        .any(|&(s, e)| s <= b && e >= a);
                    let served = rows.iter().any(|e| e.pattern.codes() == &codes[..]);
                    assert_eq!(served, oracle, "{codes:?} over [{a}, {b}] under {gap}");
                }
            }
        }
    }
}
