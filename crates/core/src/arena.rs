//! Arena-backed generation storage for the level-wise miners.
//!
//! A mining level owns thousands of short PILs. Storing each as its own
//! `Vec` (and each pattern as its own heap string, keyed in a
//! `HashMap`) made the seed scan and the join fan-out allocation-bound.
//! This module replaces both with one structure per generation:
//!
//! - [`PilSet`] holds every pattern of a generation in flat arrays —
//!   concatenated pattern codes (stride = level), entry *segments*, and
//!   one span per pattern naming the slice of one segment that is its
//!   PIL. A segment stores its entries as two parallel arrays, offsets
//!   (`u32`) and counts (`u64`): 12 bytes an entry, where a
//!   `(u32, u64)` tuple pads to 16. Patterns are kept in lexicographic
//!   code order. A generation built in one pass is one segment; one
//!   merged from pooled chunks keeps each chunk's segment, so
//!   [`PilSet::concat`] moves buffers instead of copying entries.
//! - [`build_seed`] seeds a level directly into a [`PilSet`] using the
//!   packed keys of [`crate::packed::KeyCodec`]: for small alphabets a
//!   dense `σ`-ary table indexed by key absorbs every scan event with
//!   zero hashing and zero per-event allocation.
//! - Candidate generation exploits the sort order: all patterns sharing
//!   a `(level−1)`-prefix form a contiguous *run*, so the prefix-group
//!   `HashMap` of the old pipeline reduces to run detection
//!   ([`prefix_runs`]) plus one forward merge that finds each pattern's
//!   join partners ([`partner_runs`]). Candidates `p1 · last(p2)`
//!   inherit the order of `(p1, p2)`, so they come out already sorted
//!   and duplicate-free.
//!
//! Everything here is `pub(crate)`: the public API (`Pil::build_all`,
//! `mpp::mine` and its `mpp`/`mppm` wrappers) is a thin shell over
//! these types.

use crate::gap::GapRequirement;
use crate::packed::KeyCodec;
use crate::pattern::Pattern;
use crate::pil::{support_of, Pil, ENTRY_BYTES};
use perigap_seq::Sequence;
use std::collections::HashMap;

/// Above this many key bits the dense seed table would outgrow the
/// cache benefit (2^20 slots ≈ 48 MB of headers); fall back to hashing
/// the packed key.
const DENSE_KEY_BITS_MAX: u32 = 20;

/// One generation of patterns with their PILs, in lexicographic code
/// order, arena-backed.
#[derive(Clone, Debug, Default)]
pub(crate) struct PilSet {
    level: usize,
    /// Concatenated pattern codes; pattern `i` is
    /// `codes[i*level .. (i+1)*level]`.
    codes: Vec<u8>,
    /// Per pattern, where its PIL starts in which segment.
    spans: Vec<Span>,
    /// The PIL entries of the generation, in one buffer per part it was
    /// built from; [`push_pattern`](PilSet::push_pattern) appends to the
    /// last one. A segment holds exactly its patterns' PILs, in pattern
    /// order, so a PIL ends where the next pattern's begins or at its
    /// segment's end.
    segments: Vec<Entries>,
    /// True when any count in this generation clamped at `u64::MAX`
    /// during seeding or joining — supports are then lower bounds.
    saturated: bool,
}

/// Where one pattern's PIL begins: an index into one segment.
#[derive(Clone, Copy, Debug)]
struct Span {
    segment: usize,
    start: usize,
}

/// PIL entries in split layout: `offsets[k]` carries `counts[k]`. One
/// pattern's list while seeding, or a segment of concatenated lists.
#[derive(Clone, Debug, Default)]
struct Entries {
    offsets: Vec<u32>,
    counts: Vec<u64>,
}

impl Entries {
    fn len(&self) -> usize {
        self.offsets.len()
    }

    fn clear(&mut self) {
        self.offsets.clear();
        self.counts.clear();
    }

    /// Accumulate one scan event (an offset sequence starting at
    /// `start` matching the pattern). Returns `true` when the count was
    /// already at `u64::MAX` and the event was lost to saturation.
    #[inline(always)]
    fn bump(&mut self, start: u32) -> bool {
        if self.offsets.last() == Some(&start) {
            let last = self.counts.last_mut().expect("one count per offset");
            let saturated = *last == u64::MAX;
            *last = last.saturating_add(1);
            saturated
        } else {
            self.offsets.push(start);
            self.counts.push(1);
            false
        }
    }
}

/// Equal content, however the entries are split into segments.
impl PartialEq for PilSet {
    fn eq(&self, other: &PilSet) -> bool {
        self.level == other.level
            && self.saturated == other.saturated
            && self.codes == other.codes
            && self.len() == other.len()
            && (0..self.len()).all(|i| self.entries(i) == other.entries(i))
    }
}

impl Eq for PilSet {}

impl PilSet {
    pub(crate) fn new(level: usize) -> PilSet {
        PilSet {
            level,
            ..PilSet::default()
        }
    }

    /// True when any count in this generation hit the `u64` ceiling.
    pub(crate) fn saturated(&self) -> bool {
        self.saturated
    }

    /// Restore the saturation flag on a set rebuilt from parts —
    /// [`push_pattern`](PilSet::push_pattern) deliberately never sets
    /// it, so deserialization (see [`crate::spill`]) must carry it over
    /// explicitly.
    pub(crate) fn set_saturated(&mut self, saturated: bool) {
        self.saturated = saturated;
    }

    /// Total PIL entries across all patterns (the arena's payload size).
    pub(crate) fn entry_count(&self) -> usize {
        self.segments.iter().map(Entries::len).sum()
    }

    /// Approximate heap bytes held by the generation's buffers: codes,
    /// entries and the span table. It depends on the content only, not
    /// on how the entries are split into segments.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.codes.len()
            + self.entry_count() * ENTRY_BYTES
            + self.spans.len() * std::mem::size_of::<Span>()
    }

    pub(crate) fn level(&self) -> usize {
        self.level
    }

    /// Number of patterns stored.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Pattern `i`'s codes.
    pub(crate) fn pattern_codes(&self, i: usize) -> &[u8] {
        &self.codes[i * self.level..(i + 1) * self.level]
    }

    /// Pattern `i`'s PIL entries: its offsets and, position for
    /// position, their counts.
    pub(crate) fn entries(&self, i: usize) -> (&[u32], &[u64]) {
        let Span { segment, start } = self.spans[i];
        let buf = &self.segments[segment];
        let end = match self.spans.get(i + 1) {
            Some(next) if next.segment == segment => next.start,
            _ => buf.len(),
        };
        (&buf.offsets[start..end], &buf.counts[start..end])
    }

    /// `sup` of pattern `i` (Property 1: sum of counts).
    pub(crate) fn support(&self, i: usize) -> u128 {
        support_of(self.entries(i).1)
    }

    /// Largest support over all stored patterns (0 when empty).
    pub(crate) fn max_support(&self) -> u128 {
        (0..self.len()).map(|i| self.support(i)).max().unwrap_or(0)
    }

    /// Append a pattern with pre-built entries (offsets and their
    /// counts) to the last segment. Patterns must arrive in strictly
    /// ascending code order; callers uphold this.
    pub(crate) fn push_pattern(&mut self, codes: &[u8], (offsets, counts): (&[u32], &[u64])) {
        debug_assert_eq!(codes.len(), self.level);
        debug_assert_eq!(offsets.len(), counts.len());
        if self.segments.is_empty() {
            self.segments.push(Entries::default());
        }
        let segment = self.segments.len() - 1;
        let buf = &mut self.segments[segment];
        self.spans.push(Span {
            segment,
            start: buf.len(),
        });
        buf.offsets.extend_from_slice(offsets);
        buf.counts.extend_from_slice(counts);
        self.codes.extend_from_slice(codes);
    }

    /// Drop all patterns and every segment but the first, keeping the
    /// first segment's allocations, and set a new level — the engine's
    /// serial prelude reuses generation buffers this way.
    pub(crate) fn reset(&mut self, level: usize) {
        self.level = level;
        self.codes.clear();
        self.spans.clear();
        self.segments.truncate(1);
        if let Some(first) = self.segments.first_mut() {
            first.clear();
        }
        self.saturated = false;
    }

    /// Concatenate parts (in order) into one set, moving each part's
    /// segments rather than copying its entries: the cost is in the
    /// codes and spans, O(patterns). Parts must hold disjoint ascending
    /// code ranges — true for chunked candidate generation, where chunk
    /// `k` covers left-parent indices before chunk `k+1`'s.
    pub(crate) fn concat(level: usize, parts: impl IntoIterator<Item = PilSet>) -> PilSet {
        let mut out = PilSet::new(level);
        for part in parts {
            debug_assert_eq!(part.level, level);
            let base = out.segments.len();
            out.codes.extend_from_slice(&part.codes);
            out.spans.extend(part.spans.iter().map(|span| Span {
                segment: base + span.segment,
                ..*span
            }));
            out.segments.extend(part.segments);
            out.saturated |= part.saturated;
        }
        out
    }

    /// Convert to the public map form, omitting empty PILs (they only
    /// arise from joins, never from seeding).
    pub(crate) fn into_pil_map(self) -> HashMap<Pattern, Pil> {
        let mut map = HashMap::with_capacity(self.len());
        for i in 0..self.len() {
            let (offsets, counts) = self.entries(i);
            if offsets.is_empty() {
                continue;
            }
            map.insert(
                Pattern::from_codes(self.pattern_codes(i).to_vec()),
                Pil::from_parts(offsets, counts),
            );
        }
        map
    }
}

/// Build the PILs of every length-`level` pattern occurring in `seq` —
/// the engine behind [`Pil::build_all`] — as a sorted [`PilSet`].
///
/// Strategy by alphabet size `σ` and level:
/// - `level · ⌈log₂ σ⌉ ≤ 20` bits: dense table of `2^bits` slots
///   indexed by the packed key (DNA level 3 = 64 slots; protein
///   level 3 = 32768). No hashing, no per-event allocation.
/// - key fits a `u64`: hash the packed key (still allocation-free per
///   event).
/// - otherwise: hash the code string (the original pipeline's shape).
pub(crate) fn build_seed(seq: &Sequence, gap: GapRequirement, level: usize) -> PilSet {
    assert!(level >= 1, "level must be at least 1");
    let codec = KeyCodec::new(seq.alphabet().size());
    if codec.fits(level) {
        if codec.key_bits(level) <= DENSE_KEY_BITS_MAX {
            build_seed_dense(seq, gap, level, codec)
        } else {
            build_seed_sparse(seq, gap, level, codec)
        }
    } else {
        build_seed_bytes(seq, gap, level)
    }
}

fn build_seed_dense(seq: &Sequence, gap: GapRequirement, level: usize, codec: KeyCodec) -> PilSet {
    let mut slots: Vec<Entries> = vec![Entries::default(); 1usize << codec.key_bits(level)];
    let mut saturated = false;
    for start in 1..=seq.len() {
        let key0 = codec.push(0, seq.at1(start));
        scan_keys(seq, gap, start, key0, level - 1, codec, &mut |key| {
            saturated |= slots[key as usize].bump(start as u32);
        });
    }
    // Ascending slot index == ascending packed key == lexicographic
    // code order, so the set comes out sorted for free.
    let mut set = PilSet::new(level);
    let mut codes = Vec::with_capacity(level);
    for (key, entries) in slots.iter().enumerate() {
        if entries.offsets.is_empty() {
            continue;
        }
        codes.clear();
        codec.unpack_into(key as u64, level, &mut codes);
        set.push_pattern(&codes, (&entries.offsets, &entries.counts));
    }
    set.saturated = saturated;
    set
}

fn build_seed_sparse(seq: &Sequence, gap: GapRequirement, level: usize, codec: KeyCodec) -> PilSet {
    let mut map: HashMap<u64, Entries> = HashMap::new();
    let mut saturated = false;
    for start in 1..=seq.len() {
        let key0 = codec.push(0, seq.at1(start));
        scan_keys(seq, gap, start, key0, level - 1, codec, &mut |key| {
            saturated |= map.entry(key).or_default().bump(start as u32);
        });
    }
    let mut pairs: Vec<(u64, Entries)> = map.into_iter().collect();
    pairs.sort_unstable_by_key(|&(key, _)| key);
    let mut set = PilSet::new(level);
    let mut codes = Vec::with_capacity(level);
    for (key, entries) in pairs {
        codes.clear();
        codec.unpack_into(key, level, &mut codes);
        set.push_pattern(&codes, (&entries.offsets, &entries.counts));
    }
    set.saturated = saturated;
    set
}

fn build_seed_bytes(seq: &Sequence, gap: GapRequirement, level: usize) -> PilSet {
    let mut map: HashMap<Vec<u8>, Entries> = HashMap::new();
    let mut chars = Vec::with_capacity(level);
    let mut saturated = false;
    for start in 1..=seq.len() {
        chars.clear();
        chars.push(seq.at1(start));
        scan_codes(seq, gap, level, start, &mut chars, &mut |codes| {
            saturated |= map.entry(codes.to_vec()).or_default().bump(start as u32);
        });
    }
    let mut pairs: Vec<_> = map.into_iter().collect();
    pairs.sort_unstable_by(|a: &(Vec<u8>, _), b| a.0.cmp(&b.0));
    let mut set = PilSet::new(level);
    for (codes, entries) in pairs {
        set.push_pattern(&codes, (&entries.offsets, &entries.counts));
    }
    set.saturated = saturated;
    set
}

/// Depth-first scan over gap-admissible offset chains, carrying the
/// packed key of the characters seen so far. `remaining` counts the
/// symbols still to append.
fn scan_keys(
    seq: &Sequence,
    gap: GapRequirement,
    pos: usize,
    key: u64,
    remaining: usize,
    codec: KeyCodec,
    sink: &mut impl FnMut(u64),
) {
    if remaining == 0 {
        sink(key);
        return;
    }
    for step in gap.steps() {
        let next = pos + step;
        if next > seq.len() {
            break;
        }
        scan_keys(
            seq,
            gap,
            next,
            codec.push(key, seq.at1(next)),
            remaining - 1,
            codec,
            sink,
        );
    }
}

/// Byte-string twin of [`scan_keys`] for patterns too long to pack.
fn scan_codes(
    seq: &Sequence,
    gap: GapRequirement,
    level: usize,
    pos: usize,
    chars: &mut Vec<u8>,
    sink: &mut impl FnMut(&[u8]),
) {
    if chars.len() == level {
        sink(chars);
        return;
    }
    for step in gap.steps() {
        let next = pos + step;
        if next > seq.len() {
            break;
        }
        chars.push(seq.at1(next));
        scan_codes(seq, gap, level, next, chars, sink);
        chars.pop();
    }
}

/// Detect the runs of equal `(level−1)`-prefix over `kept` (positions
/// into `kept`, which itself holds ascending indices into `set`).
/// Because `set` is sorted, each prefix group is contiguous.
pub(crate) fn prefix_runs(set: &PilSet, kept: &[usize]) -> Vec<(usize, usize)> {
    let plen = set.level() - 1;
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for (k, &idx) in kept.iter().enumerate() {
        let prefix = &set.pattern_codes(idx)[..plen];
        match runs.last_mut() {
            Some(run) if &set.pattern_codes(kept[run.0])[..plen] == prefix => run.1 = k + 1,
            _ => runs.push((k, k + 1)),
        }
    }
    runs
}

/// No partner run: the pattern's suffix is no survivor's prefix.
pub(crate) const NO_PARTNER: u32 = u32::MAX;

/// For each position `k` of `members`, the index into `runs` of its
/// *partner run* — the prefix run keyed by `suffix(members[k])`, whose
/// members are its join partners — or [`NO_PARTNER`].
///
/// One lower-bound search per first symbol, then a forward walk:
/// members sharing a first symbol are contiguous and, being sorted,
/// have ascending suffixes, so the cursor over `runs` only moves
/// forward within the block.
pub(crate) fn partner_runs(set: &PilSet, members: &[usize], runs: &[(usize, usize)]) -> Vec<u32> {
    assert!(runs.len() < NO_PARTNER as usize, "run index overflows u32");
    let plen = set.level() - 1;
    let key = |r: usize| &set.pattern_codes(members[runs[r].0])[..plen];
    let mut partners = vec![NO_PARTNER; members.len()];
    let mut k = 0;
    while k < members.len() {
        let first = set.pattern_codes(members[k])[0];
        let suffix = &set.pattern_codes(members[k])[1..];
        let mut r = runs.partition_point(|&(s, _)| &set.pattern_codes(members[s])[..plen] < suffix);
        while k < members.len() && set.pattern_codes(members[k])[0] == first {
            let suffix = &set.pattern_codes(members[k])[1..];
            while r < runs.len() && key(r) < suffix {
                r += 1;
            }
            if r < runs.len() && key(r) == suffix {
                partners[k] = r as u32;
            }
            k += 1;
        }
    }
    partners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::support_dp;
    use perigap_seq::Sequence;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    fn dna(text: &str) -> Sequence {
        Sequence::dna(text).unwrap()
    }

    #[test]
    fn seed_is_sorted_and_matches_dp() {
        let s = dna("ACGTACGTTGCAACGT");
        let g = gap(1, 3);
        for level in 1..=3 {
            let set = build_seed(&s, g, level);
            for i in 1..set.len() {
                assert!(set.pattern_codes(i - 1) < set.pattern_codes(i), "sorted");
            }
            for i in 0..set.len() {
                let p = Pattern::from_codes(set.pattern_codes(i).to_vec());
                assert_eq!(set.support(i), support_dp(&s, g, &p), "level {level}");
                assert!(!set.entries(i).0.is_empty());
            }
        }
    }

    #[test]
    fn all_seed_strategies_agree() {
        // Force each strategy on the same data by varying the level so
        // the key width crosses the dense and u64 thresholds.
        let s = dna(&"ACGGTTA".repeat(30));
        let g = gap(0, 1);
        let dense = build_seed(&s, g, 3); // 6 key bits
        let sparse = build_seed_sparse(&s, g, 3, KeyCodec::new(4));
        let bytes = build_seed_bytes(&s, g, 3);
        assert_eq!(dense, sparse);
        assert_eq!(dense, bytes);
    }

    #[test]
    fn paper_example_via_pilset() {
        // S = AACCGTT, gap [1,2]: PIL(ACT) = {(1,3),(2,2)}.
        let s = dna("AACCGTT");
        let set = build_seed(&s, gap(1, 2), 3);
        let act: Vec<u8> = vec![0, 1, 3];
        let i = (0..set.len())
            .find(|&i| set.pattern_codes(i) == act)
            .unwrap();
        assert_eq!(set.entries(i), (&[1u32, 2][..], &[3u64, 2][..]));
        assert_eq!(set.support(i), 5);
        assert!(set.max_support() >= 5);
    }

    #[test]
    fn runs_group_shared_prefixes() {
        let s = dna("ACGTACGTACGT");
        let set = build_seed(&s, gap(0, 2), 2);
        let kept: Vec<usize> = (0..set.len()).collect();
        let runs = prefix_runs(&set, &kept);
        // Every pattern is in exactly one run and runs tile `kept`.
        assert_eq!(runs.first().unwrap().0, 0);
        assert_eq!(runs.last().unwrap().1, kept.len());
        for w in runs.windows(2) {
            assert_eq!(w[0].1, w[1].0, "runs tile without gaps");
        }
        for &(s_, e) in &runs {
            let p = &set.pattern_codes(kept[s_])[..1];
            for &k in &kept[s_..e] {
                assert_eq!(&set.pattern_codes(k)[..1], p);
            }
        }
    }

    /// Pattern `i`'s PIL, copied out of the arena.
    fn pil_of(set: &PilSet, i: usize) -> Pil {
        let (offsets, counts) = set.entries(i);
        Pil::from_parts(offsets, counts)
    }

    /// Every candidate `p1 · last(p2)` of `set`, generated through the
    /// partner runs: the engine's join order.
    fn candidates_via_partner_runs(set: &PilSet, g: GapRequirement) -> Vec<(Vec<u8>, Pil)> {
        let members: Vec<usize> = (0..set.len()).collect();
        let runs = prefix_runs(set, &members);
        let partners = partner_runs(set, &members, &runs);
        let mut out = Vec::new();
        for (k, &i) in members.iter().enumerate() {
            if partners[k] == NO_PARTNER {
                continue;
            }
            let (s, e) = runs[partners[k] as usize];
            for &j in &members[s..e] {
                let mut codes = set.pattern_codes(i).to_vec();
                codes.push(set.pattern_codes(j)[set.level() - 1]);
                let pil = Pil::join(&pil_of(set, i), &pil_of(set, j), g);
                out.push((codes, pil));
            }
        }
        out
    }

    #[test]
    fn candidates_match_naive_generation() {
        let s = dna("ACGTTGCAACGTTACG");
        let g = gap(1, 2);
        let set = build_seed(&s, g, 3);
        let out = candidates_via_partner_runs(&set, g);

        // Naive: every ordered pair with suffix(p1) == prefix(p2).
        let mut expected: Vec<(Vec<u8>, Pil)> = Vec::new();
        for i in 0..set.len() {
            for j in 0..set.len() {
                let (p1, p2) = (set.pattern_codes(i), set.pattern_codes(j));
                if p1[1..] == p2[..2] {
                    let mut codes = p1.to_vec();
                    codes.push(p2[2]);
                    let pil = Pil::join(&pil_of(&set, i), &pil_of(&set, j), g);
                    expected.push((codes, pil));
                }
            }
        }
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        // Same candidates, and already sorted by construction.
        assert_eq!(out, expected);
    }

    /// The lookup `partner_runs` replaced: one binary search over the
    /// prefix runs per member.
    fn partner_runs_by_search(
        set: &PilSet,
        members: &[usize],
        runs: &[(usize, usize)],
    ) -> Vec<u32> {
        let plen = set.level() - 1;
        members
            .iter()
            .map(|&m| {
                let suffix = &set.pattern_codes(m)[1..];
                runs.binary_search_by(|&(s, _)| set.pattern_codes(members[s])[..plen].cmp(suffix))
                    .map_or(NO_PARTNER, |r| r as u32)
            })
            .collect()
    }

    #[test]
    fn linear_partner_lookup_equals_binary_search() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut without_partner = 0usize;
        for case in 0..400 {
            // DNA and the protein alphabet; sparse draws leave many
            // members with no partner run.
            let sigma: u8 = if case % 2 == 0 { 4 } else { 20 };
            let level = rng.gen_range(1..=5usize);
            let count = rng.gen_range(0..200usize);
            let mut patterns: Vec<Vec<u8>> = (0..count)
                .map(|_| (0..level).map(|_| rng.gen_range(0..sigma)).collect())
                .collect();
            patterns.sort();
            patterns.dedup();
            let mut set = PilSet::new(level);
            for codes in &patterns {
                set.push_pattern(codes, (&[1], &[1]));
            }
            let members: Vec<usize> = (0..set.len()).filter(|_| rng.gen_bool(0.7)).collect();
            let runs = prefix_runs(&set, &members);
            let linear = partner_runs(&set, &members, &runs);
            assert_eq!(
                linear,
                partner_runs_by_search(&set, &members, &runs),
                "case {case}"
            );
            without_partner += linear.iter().filter(|&&r| r == NO_PARTNER).count();
        }
        assert!(without_partner > 0, "some members must lack a partner run");
    }

    /// `whole` split at `cuts` into parts, each built by `push_pattern`
    /// in one buffer of its own: a pooled level's chunk outputs.
    fn split_into_parts(whole: &PilSet, cuts: &[usize]) -> Vec<PilSet> {
        let mut bounds = vec![0];
        bounds.extend_from_slice(cuts);
        bounds.push(whole.len());
        bounds
            .windows(2)
            .map(|w| {
                let mut part = PilSet::new(whole.level());
                for i in w[0]..w[1] {
                    part.push_pattern(whole.pattern_codes(i), whole.entries(i));
                }
                part
            })
            .collect()
    }

    #[test]
    fn concat_preserves_chunked_generation() {
        let s = dna("ACGTTGCAACGTTACGGTCAAGCTTAGC");
        let whole = build_seed(&s, gap(0, 2), 3);
        let n = whole.len();
        assert!(n >= 8, "fixture needs a few patterns per part");
        // An empty part in the middle, as a chunk with no survivors: it
        // never allocated a segment, so it adds none.
        let merged = PilSet::concat(3, split_into_parts(&whole, &[n / 3, n / 3, 2 * n / 3]));
        assert_eq!(merged.segments.len(), 3);
        assert_eq!(merged, whole);
        assert_eq!(merged.len(), n);
        for i in 0..n {
            assert_eq!(merged.pattern_codes(i), whole.pattern_codes(i));
            assert_eq!(merged.entries(i), whole.entries(i), "pattern {i}");
            assert_eq!(merged.support(i), whole.support(i), "pattern {i}");
        }
        assert_eq!(merged.max_support(), whole.max_support());
        assert_eq!(merged.entry_count(), whole.entry_count());
        assert_eq!(merged.arena_bytes(), whole.arena_bytes());
        assert_eq!(merged.into_pil_map(), whole.into_pil_map());
    }

    #[test]
    fn concat_moves_segments_without_copying() {
        let s = dna("ACGTTGCAACGTTACGGTCAAGCTTAGC");
        let whole = build_seed(&s, gap(0, 2), 3);
        let parts = split_into_parts(&whole, &[whole.len() / 2]);
        let addresses = |set: &PilSet, k: usize| {
            let (offsets, counts) = set.entries(k);
            (offsets.as_ptr(), counts.as_ptr())
        };
        let before: Vec<(*const u32, *const u64)> = parts
            .iter()
            .flat_map(|part| (0..part.len()).map(move |k| addresses(part, k)))
            .collect();
        let merged = PilSet::concat(3, parts);
        for (i, &address) in before.iter().enumerate() {
            assert_eq!(addresses(&merged, i), address, "pattern {i} was copied");
        }
    }

    #[test]
    fn saturation_is_flagged_and_propagated() {
        // `bump` loses an event only at the ceiling — and says so.
        let mut entries = Entries {
            offsets: vec![1],
            counts: vec![u64::MAX - 1],
        };
        assert!(!entries.bump(1));
        assert!(entries.bump(1));
        assert_eq!((entries.offsets, entries.counts), (vec![1], vec![u64::MAX]));
        // A join whose window sum overflows says so too.
        let g = gap(1, 2);
        let mut joined = Pil::new();
        let mut jc = crate::pil::JoinCounters::default();
        assert!(crate::pil::join_into(
            &[1],
            &[3, 4],
            &[u64::MAX, 2],
            g,
            &mut joined,
            &mut jc
        ));
        let mut set = PilSet::new(3);
        set.push_pattern(&[0, 0, 0], (joined.offsets(), joined.counts()));
        set.set_saturated(true);
        assert!(set.saturated());
        assert!(set.entry_count() > 0);
        assert!(set.arena_bytes() > 0);
        // concat carries the flag; reset clears it.
        let clean = PilSet::new(3);
        assert!(!clean.saturated());
        let mut merged = PilSet::concat(3, [clean, set]);
        assert!(merged.saturated());
        merged.reset(4);
        assert!(!merged.saturated());
        // An ordinary seed never saturates.
        assert!(!build_seed(&dna("ACGTACGT"), g, 2).saturated());
    }

    #[test]
    fn reset_reuses_buffers() {
        let s = dna("ACGTACGT");
        let mut set = build_seed(&s, gap(0, 1), 2);
        assert!(set.len() > 0);
        let capacities = |set: &PilSet| {
            (
                set.segments[0].offsets.capacity(),
                set.segments[0].counts.capacity(),
            )
        };
        let caps = capacities(&set);
        set.reset(3);
        assert_eq!(set.len(), 0);
        assert_eq!(set.level(), 3);
        assert_eq!(capacities(&set), caps);

        // A pooled generation keeps only its first segment, and the
        // reused buffer takes the next generation as one segment.
        let whole = build_seed(&dna("ACGTTGCAACGTTACGGTCAAGCTTAGC"), gap(0, 2), 3);
        let parts = split_into_parts(&whole, &[whole.len() / 2]);
        let first_caps = capacities(&parts[0]);
        let mut merged = PilSet::concat(3, parts);
        assert_eq!(merged.segments.len(), 2);
        merged.reset(4);
        assert_eq!(merged.len(), 0);
        assert_eq!(merged.segments.len(), 1);
        assert_eq!(capacities(&merged), first_caps);
        merged.push_pattern(&[0, 1, 2, 3], (&[1], &[2]));
        assert_eq!(merged.entries(0), (&[1u32][..], &[2u64][..]));
        assert_eq!(merged.segments.len(), 1);
    }

    #[test]
    fn arena_bytes_counts_the_span_table() {
        let mut set = PilSet::new(2);
        assert_eq!(set.arena_bytes(), 0);
        set.push_pattern(&[0, 1], (&[1, 4], &[1, 2]));
        set.push_pattern(&[0, 2], (&[], &[]));
        // Split arrays: 12 bytes an entry, no tuple padding.
        let span = std::mem::size_of::<Span>();
        assert_eq!(set.arena_bytes(), 2 * 2 + 2 * 12 + 2 * span);
    }

    #[test]
    fn into_pil_map_round_trips() {
        let s = dna("AACCGTT");
        let g = gap(1, 2);
        let map = build_seed(&s, g, 3).into_pil_map();
        let direct = Pil::build_all(&s, g, 3);
        assert_eq!(map, direct);
    }
}
