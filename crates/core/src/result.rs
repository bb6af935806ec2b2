//! Result and statistics types shared by all mining algorithms.

use crate::pattern::Pattern;
use std::time::Duration;

/// One mined frequent pattern with its evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct FrequentPattern {
    /// The pattern (shorthand form).
    pub pattern: Pattern,
    /// `sup(P)`: distinct matching offset sequences.
    pub support: u128,
    /// `sup(P) / N_l` — the quantity compared against ρs.
    pub ratio: f64,
}

impl FrequentPattern {
    /// Pattern length `|P|`.
    pub fn len(&self) -> usize {
        self.pattern.len()
    }

    /// True iff the pattern has no characters (never produced by the
    /// miners; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.pattern.is_empty()
    }
}

/// Per-level counters: the raw material of the paper's Table 3.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LevelStats {
    /// Pattern length at this level.
    pub level: usize,
    /// `|C_level|`: candidates generated (for the seed level, all
    /// `σ^level` patterns, matching the paper's accounting).
    pub candidates: u128,
    /// `|L_level|`: candidates meeting the plain frequency threshold.
    pub frequent: usize,
    /// `|L̂_level|`: candidates meeting the λ-relaxed threshold and thus
    /// carried into candidate generation.
    pub extended: usize,
    /// Time spent producing this level: the generation that joined
    /// and evaluated its candidates, summed over the tasks that mined
    /// it (for the seed level, the seed filter).
    pub elapsed: Duration,
}

/// Run-wide statistics.
#[derive(Clone, Debug, Default)]
pub struct MineStats {
    /// Per-level counters in level order.
    pub levels: Vec<LevelStats>,
    /// The `n` the level-wise engine actually used (after clamping to
    /// `l1`, or as estimated by MPPm).
    pub n_used: usize,
    /// MPPm's `e_m` statistic, if one was computed.
    pub em: Option<u64>,
    /// Time spent computing `e_m` (zero for MPP).
    pub em_elapsed: Duration,
    /// Total wall-clock time of the run.
    pub total_elapsed: Duration,
    /// True when any PIL support counter hit its `u64` ceiling during
    /// the run: reported supports are then lower bounds, not exact
    /// counts. Surfaced by the CLI and by `trace::CompleteEvent`.
    pub support_saturated: bool,
    /// Spill records the engine wrote under the memory ceiling (see
    /// [`crate::spill`]); zero on unbounded runs. Like every other counter these are deterministic,
    /// but they describe the memory policy, not the mined output — the
    /// spill invariance tests compare stats *minus* these four fields.
    pub spilled_records: u64,
    /// Serialized bytes written across all spill records.
    pub spilled_bytes: u64,
    /// Spill records read back and mined (equals `spilled_records` on a
    /// completed run — every cold subtree is restored exactly once).
    pub restored_records: u64,
    /// Serialized bytes read back across all restores.
    pub restored_bytes: u64,
    /// Spill records whose backing file could not be removed after
    /// their subtree was mined (or during the abort sweep). Each one
    /// also surfaces as a `spill-cleanup` warning trace event; the mine
    /// itself still completes — a leftover file costs disk, not
    /// correctness.
    pub spill_cleanup_failures: u64,
    /// The `k` a top-k run was bounded to (`None` on full and targeted
    /// mines). When set, `frequent` holds the rank-ordered top k, which
    /// is smaller than the per-level `frequent` totals.
    pub top_k: Option<usize>,
    /// Times the shared top-k support floor actually rose. Like the
    /// spill counters this describes the search schedule, not the mined
    /// output — raise timing depends on thread interleaving, so the
    /// pruning invariance tests compare outputs, not these counters.
    pub floor_raises: u64,
    /// Patterns and join parents pruned by the rising support floor
    /// (schedule-dependent; see [`MineStats::floor_raises`]).
    pub pruned_by_floor: u64,
    /// Join parents, components, and post-verified results pruned by
    /// the [`crate::prune::TargetSpec`] of a targeted run.
    pub pruned_by_target: u64,
}

impl MineStats {
    /// Total candidates across all levels.
    pub fn total_candidates(&self) -> u128 {
        self.levels.iter().map(|l| l.candidates).sum()
    }

    /// Candidate count at one level, if the level was reached.
    pub fn candidates_at(&self, level: usize) -> Option<u128> {
        self.levels
            .iter()
            .find(|l| l.level == level)
            .map(|l| l.candidates)
    }
}

/// The outcome of a mining run: the frequent patterns (sorted by
/// length, then lexicographically by codes) plus run statistics.
#[derive(Clone, Debug, Default)]
pub struct MineOutcome {
    /// Every frequent pattern found.
    pub frequent: Vec<FrequentPattern>,
    /// Run statistics.
    pub stats: MineStats,
}

impl MineOutcome {
    /// Length of the longest frequent pattern (0 when none).
    pub fn longest_len(&self) -> usize {
        self.frequent.iter().map(|f| f.len()).max().unwrap_or(0)
    }

    /// All frequent patterns of one length.
    pub fn of_length(&self, len: usize) -> impl Iterator<Item = &FrequentPattern> {
        self.frequent.iter().filter(move |f| f.len() == len)
    }

    /// Number of frequent patterns of one length.
    pub fn count_of_length(&self, len: usize) -> usize {
        self.of_length(len).count()
    }

    /// Look up one pattern's result.
    pub fn get(&self, pattern: &Pattern) -> Option<&FrequentPattern> {
        self.frequent.iter().find(|f| &f.pattern == pattern)
    }

    /// Canonical ordering: by length, then by codes.
    pub fn sort(&mut self) {
        self.frequent
            .sort_by(|a, b| (a.len(), a.pattern.codes()).cmp(&(b.len(), b.pattern.codes())));
    }

    /// The closed subset of the frequent patterns, in the original
    /// order: a pattern is dropped iff some frequent pattern one
    /// symbol longer extends it (as prefix or suffix) with **equal**
    /// support, making the shorter pattern pure redundancy. Supports
    /// are not anti-monotone under flexible gaps, so this is a
    /// post-filter over the emitted set, never a search-side prune.
    pub fn closed_frequent(&self) -> Vec<FrequentPattern> {
        let by_codes: std::collections::HashMap<&[u8], u128> = self
            .frequent
            .iter()
            .map(|f| (f.pattern.codes(), f.support))
            .collect();
        let mut dropped = std::collections::HashSet::new();
        for f in &self.frequent {
            let codes = f.pattern.codes();
            if codes.len() < 2 {
                continue;
            }
            for sub in [&codes[..codes.len() - 1], &codes[1..]] {
                if by_codes.get(sub) == Some(&f.support) {
                    dropped.insert(sub.to_vec());
                }
            }
        }
        self.frequent
            .iter()
            .filter(|f| !dropped.contains(f.pattern.codes()))
            .cloned()
            .collect()
    }
}

/// Run-wide statistics of a sharded corpus mine (see
/// [`crate::corpus::mine_corpus`]). All counters are deterministic for
/// a given corpus + config + checkpoint state; which shards count as
/// `restored_shards` vs `mined_shards` depends on what the checkpoint
/// directory already held.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Shards (sequences) in the corpus.
    pub shards: usize,
    /// Shards mined fresh this run.
    pub mined_shards: usize,
    /// Shards restored from checkpoint records instead of mined.
    pub restored_shards: usize,
    /// Checkpoint records written this run (0 when checkpointing is
    /// off).
    pub checkpoint_records: u64,
    /// Serialized bytes written across those records.
    pub checkpoint_bytes: u64,
    /// Checkpoint records that existed but did not decode, or carried
    /// another key; each such shard was mined again and its record
    /// rewritten.
    pub checkpoint_faults: usize,
    /// Length in symbols of the longest shard — the straggler the
    /// longest-first schedule front-loads.
    pub longest_shard: usize,
    /// The corpus file's trailing FNV-1a hash.
    pub corpus_hash: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(text: &[u8], support: u128) -> FrequentPattern {
        FrequentPattern {
            pattern: Pattern::from_codes(text.to_vec()),
            support,
            ratio: 0.5,
        }
    }

    #[test]
    fn outcome_queries() {
        let mut outcome = MineOutcome {
            frequent: vec![fp(&[0, 1, 2], 10), fp(&[0, 1], 20), fp(&[3, 3], 5)],
            stats: MineStats::default(),
        };
        outcome.sort();
        assert_eq!(outcome.longest_len(), 3);
        assert_eq!(outcome.count_of_length(2), 2);
        assert_eq!(outcome.count_of_length(5), 0);
        // Sorted: [0,1] before [3,3] before [0,1,2].
        assert_eq!(outcome.frequent[0].pattern.codes(), &[0, 1]);
        assert_eq!(outcome.frequent[2].pattern.codes(), &[0, 1, 2]);
        assert!(outcome.get(&Pattern::from_codes(vec![3, 3])).is_some());
        assert!(outcome.get(&Pattern::from_codes(vec![9])).is_none());
    }

    #[test]
    fn stats_totals() {
        let stats = MineStats {
            levels: vec![
                LevelStats {
                    level: 3,
                    candidates: 64,
                    ..Default::default()
                },
                LevelStats {
                    level: 4,
                    candidates: 100,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(stats.total_candidates(), 164);
        assert_eq!(stats.candidates_at(4), Some(100));
        assert_eq!(stats.candidates_at(5), None);
    }

    #[test]
    fn empty_outcome() {
        let outcome = MineOutcome::default();
        assert_eq!(outcome.longest_len(), 0);
        assert_eq!(outcome.stats.total_candidates(), 0);
    }

    #[test]
    fn closed_filter_drops_absorbed_patterns() {
        // [0,1] extends to [0,1,2] at equal support -> dropped;
        // [1,2] is the suffix of [0,1,2] at equal support -> dropped;
        // [2,3] has a frequent extension but at lower support -> kept.
        let outcome = MineOutcome {
            frequent: vec![
                fp(&[0, 1], 10),
                fp(&[1, 2], 10),
                fp(&[2, 3], 12),
                fp(&[0, 1, 2], 10),
                fp(&[2, 3, 0], 7),
            ],
            stats: MineStats::default(),
        };
        let closed = outcome.closed_frequent();
        let codes: Vec<&[u8]> = closed.iter().map(|f| f.pattern.codes()).collect();
        assert_eq!(codes, vec![&[2u8, 3][..], &[0, 1, 2][..], &[2, 3, 0][..]]);
    }

    /// Differential oracle: the production hash-probe filter must agree
    /// with the obvious O(n²) scan over the full frequent set of a
    /// real mine.
    #[test]
    fn closed_filter_matches_naive_scan_on_mined_output() {
        use crate::gap::GapRequirement;
        use crate::mpp::{mpp, MppConfig};
        use perigap_seq::Sequence;

        let seq = Sequence::dna(&"ACGTT".repeat(60)).unwrap();
        let gap = GapRequirement::new(1, 3).unwrap();
        let outcome = mpp(&seq, gap, 0.005, 10, MppConfig::default()).unwrap();
        assert!(
            outcome.frequent.len() > 10,
            "fixture must mine a non-trivial set"
        );

        let naive: Vec<&FrequentPattern> = outcome
            .frequent
            .iter()
            .filter(|p| {
                !outcome.frequent.iter().any(|q| {
                    q.len() == p.len() + 1
                        && q.support == p.support
                        && (p.pattern.is_prefix_of(&q.pattern)
                            || q.pattern.codes()[1..] == *p.pattern.codes())
                })
            })
            .collect();
        let fast = outcome.closed_frequent();
        assert!(fast.len() < outcome.frequent.len(), "filter must bite");
        assert_eq!(fast.len(), naive.len());
        for (a, b) in fast.iter().zip(naive) {
            assert_eq!(a, b);
        }
    }
}
