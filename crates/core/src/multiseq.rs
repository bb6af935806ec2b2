//! Multi-sequence mining: periodic patterns frequent across a
//! *collection* of sequences.
//!
//! The paper mines within a single sequence and contrasts that with the
//! transactional sequence miners (GSP, SPADE, PrefixSpan) whose support
//! is the number of database sequences containing a pattern. This
//! module combines the two views, which is what a protein-family or
//! multi-genome study actually needs: a pattern is **collection-
//! frequent** when it is frequent — in the paper's within-sequence
//! ratio sense, threshold `ρs` — in at least `min_sequences` of the
//! input sequences.
//!
//! Pruning stays sound: Theorem 1 applies per sequence, so if `P` is
//! frequent in a given sequence, every sub-pattern of `P` passes that
//! sequence's relaxed bound. A candidate can therefore be dropped once
//! the number of sequences whose relaxed bound it passes falls below
//! `min_sequences`.

use crate::counts::OffsetCounts;
use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::lambda::PruneBound;
use crate::mpp::MppConfig;
use crate::pattern::Pattern;
use crate::pil::Pil;
use crate::trace::{CompleteEvent, Event, LevelEvent, MineObserver, NoopObserver};
use perigap_math::BigRatio;
use perigap_seq::Sequence;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One collection-frequent pattern with its per-sequence evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectionPattern {
    /// The pattern.
    pub pattern: Pattern,
    /// Indices of the sequences in which it is frequent.
    pub frequent_in: Vec<usize>,
    /// Per-sequence supports, indexed like the input collection
    /// (0 where the pattern never occurs).
    pub supports: Vec<u128>,
}

impl CollectionPattern {
    /// Number of sequences in which the pattern is frequent.
    pub fn sequence_count(&self) -> usize {
        self.frequent_in.len()
    }
}

/// Result of a collection mining run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CollectionOutcome {
    /// Collection-frequent patterns, sorted by length then codes.
    pub patterns: Vec<CollectionPattern>,
}

impl CollectionOutcome {
    /// Longest collection-frequent pattern length.
    pub fn longest_len(&self) -> usize {
        self.patterns
            .iter()
            .map(|p| p.pattern.len())
            .max()
            .unwrap_or(0)
    }

    /// Look up a pattern.
    pub fn get(&self, pattern: &Pattern) -> Option<&CollectionPattern> {
        self.patterns.iter().find(|p| &p.pattern == pattern)
    }

    /// The closed subset of the collection-frequent patterns, in the
    /// original order. The collection analogue of
    /// [`crate::result::MineOutcome::closed_frequent`]: a pattern is
    /// dropped iff some collection-frequent pattern one symbol longer
    /// extends it (as prefix or suffix) with an **identical**
    /// per-sequence support vector — the shorter pattern then carries
    /// no evidence of its own in any sequence.
    pub fn closed_patterns(&self) -> Vec<CollectionPattern> {
        let by_codes: HashMap<&[u8], &[u128]> = self
            .patterns
            .iter()
            .map(|p| (p.pattern.codes(), p.supports.as_slice()))
            .collect();
        let mut dropped = std::collections::HashSet::new();
        for p in &self.patterns {
            let codes = p.pattern.codes();
            if codes.len() < 2 {
                continue;
            }
            for sub in [&codes[..codes.len() - 1], &codes[1..]] {
                if by_codes.get(sub) == Some(&p.supports.as_slice()) {
                    dropped.insert(sub.to_vec());
                }
            }
        }
        self.patterns
            .iter()
            .filter(|p| !dropped.contains(p.pattern.codes()))
            .cloned()
            .collect()
    }
}

/// Mine patterns frequent (ratio ≥ `rho`) in at least `min_sequences`
/// of `sequences`, with Theorem 1 pruning driven by `n` per sequence.
///
/// All sequences must share one alphabet. Sequences too short to hold a
/// start-level pattern simply never vote.
///
/// Each sequence's verdicts are independent of the rest of the
/// collection: a pattern is reported frequent in sequence `j` exactly
/// when a standalone mine of `j` (same `gap`, `rho`, `n`, config)
/// would report it, so with `min_sequences == 1` the result is the
/// union of the per-sequence runs and with `min_sequences ==
/// sequences.len()` their intersection. This is also what makes
/// [`crate::corpus::mine_corpus`]'s shard-at-a-time fan-out merge
/// bit-identically with this function.
pub fn mine_collection(
    sequences: &[Sequence],
    gap: GapRequirement,
    rho: f64,
    min_sequences: usize,
    n: usize,
    config: MppConfig,
) -> Result<CollectionOutcome, MineError> {
    mine_collection_traced(
        sequences,
        gap,
        rho,
        min_sequences,
        n,
        config,
        &mut NoopObserver,
    )
}

/// [`mine_collection`] with a [`MineObserver`] attached.
///
/// The collection engine has no nominal candidate universe (patterns
/// are unioned across sequences), so each level event reports
/// `candidates == evaluated` — the number of patterns with at least one
/// non-empty per-sequence PIL — and `saturated` is always `false` (the
/// public [`Pil`] path clamps without a stats channel; see
/// [`Pil::join`]).
pub fn mine_collection_traced<O: MineObserver>(
    sequences: &[Sequence],
    gap: GapRequirement,
    rho: f64,
    min_sequences: usize,
    n: usize,
    config: MppConfig,
    observer: &mut O,
) -> Result<CollectionOutcome, MineError> {
    let started = Instant::now();
    if !(rho > 0.0 && rho <= 1.0) {
        return Err(MineError::InvalidThreshold(rho));
    }
    if sequences.is_empty() || min_sequences == 0 || min_sequences > sequences.len() {
        observer.on(Event::Complete(&CompleteEvent {
            n_used: n,
            total_elapsed: started.elapsed(),
            ..CompleteEvent::default()
        }));
        return Ok(CollectionOutcome::default());
    }
    let alphabet = sequences[0].alphabet();
    assert!(
        sequences.iter().all(|s| s.alphabet() == alphabet),
        "collection sequences must share an alphabet"
    );
    let rho_exact = BigRatio::from_f64_exact(rho);
    let start = config.start_level;

    // Per-sequence counting tables and clamped pruning targets.
    let counts: Vec<OffsetCounts> = sequences
        .iter()
        .map(|s| OffsetCounts::new(s.len(), gap))
        .collect();
    let targets: Vec<usize> = counts
        .iter()
        .map(|c| n.clamp(start, c.l1().max(start)))
        .collect();
    let hard_cap = config
        .max_level
        .unwrap_or(usize::MAX)
        .min(counts.iter().map(|c| c.l2()).max().unwrap_or(start));

    // Seed: per-sequence level-3 PILs, unioned across sequences.
    // current[pattern] = (PIL per sequence, alive flag per sequence).
    //
    // The alive flags keep each sequence's verdicts independent of the
    // rest of the collection: sequence `j`'s line for a pattern dies
    // the first time `j`'s own bound rejects it — exactly as a
    // standalone mine of `j` would prune it — even when another
    // sequence's vote keeps the joint pattern on the frontier. Without
    // them a deep pattern could be "resurrected" for `j` at a level
    // its own ancestors never survived (the per-level threshold
    // `ρ·N_l` falls with `l`, so support anti-monotonicity does not
    // protect us), and membership of `frequent_in` would depend on
    // which other sequences happen to share the corpus.
    let mut current: HashMap<Pattern, (Vec<Pil>, Vec<bool>)> = HashMap::new();
    for (j, seq) in sequences.iter().enumerate() {
        if seq.len() < gap.min_span(start) {
            continue;
        }
        for (pattern, pil) in Pil::build_all(seq, gap, start) {
            current
                .entry(pattern)
                .or_insert_with(|| {
                    (
                        vec![Pil::new(); sequences.len()],
                        vec![true; sequences.len()],
                    )
                })
                .0[j] = pil;
        }
    }

    let mut out = Vec::new();
    let mut level = start;
    let mut level_events = 0usize;
    let mut total_candidates: u128 = 0;
    while level <= hard_cap && !current.is_empty() {
        let level_started = Instant::now();
        // Per-sequence bounds at this level.
        let exact_bounds: Vec<PruneBound> = counts
            .iter()
            .map(|c| PruneBound::exact(c, &rho_exact, level))
            .collect();
        let lhat_bounds: Vec<PruneBound> = counts
            .iter()
            .zip(&targets)
            .map(|(c, &t)| {
                if level < t {
                    PruneBound::theorem1(c, &rho_exact, t, t - level)
                } else {
                    PruneBound::exact(c, &rho_exact, level)
                }
            })
            .collect();

        let evaluated = current.len();
        let mut kept: Vec<(Pattern, Vec<Pil>, Vec<bool>)> = Vec::new();
        let mut frequent_here = 0usize;
        for (pattern, (pils, alive)) in current.drain() {
            let mut frequent_in = Vec::new();
            let mut votes = 0usize;
            let mut alive_next = vec![false; pils.len()];
            for (j, pil) in pils.iter().enumerate() {
                if !alive[j] {
                    continue;
                }
                let sup = pil.support();
                if counts[j].n(level).is_zero() {
                    continue;
                }
                if exact_bounds[j].admits_u128(sup) {
                    frequent_in.push(j);
                }
                if lhat_bounds[j].admits_u128(sup) {
                    votes += 1;
                    alive_next[j] = true;
                }
            }
            if frequent_in.len() >= min_sequences {
                out.push(CollectionPattern {
                    pattern: pattern.clone(),
                    frequent_in,
                    supports: pils.iter().map(Pil::support).collect(),
                });
                frequent_here += 1;
            }
            if votes >= min_sequences {
                kept.push((pattern, pils, alive_next));
            }
        }
        let emit_level = |observer: &mut O, join_elapsed: Duration, elapsed: Duration| {
            observer.on(Event::Level(&LevelEvent {
                level,
                candidates: evaluated as u128,
                evaluated,
                frequent: frequent_here,
                kept: kept.len(),
                pruned_bound: evaluated - kept.len(),
                pruned_support: evaluated - frequent_here,
                join_elapsed,
                elapsed,
                ..LevelEvent::default()
            }));
        };
        level_events += 1;
        total_candidates += evaluated as u128;
        if kept.is_empty() || level == hard_cap {
            emit_level(observer, Duration::ZERO, level_started.elapsed());
            break;
        }

        // Join per the single-sequence engine, sequence by sequence.
        let join_started = Instant::now();
        let mut by_prefix: HashMap<&[u8], Vec<usize>> = HashMap::new();
        for (idx, (pattern, _, _)) in kept.iter().enumerate() {
            by_prefix
                .entry(&pattern.codes()[..pattern.len() - 1])
                .or_default()
                .push(idx);
        }
        let mut next: HashMap<Pattern, (Vec<Pil>, Vec<bool>)> = HashMap::new();
        for (p1, pils1, alive1) in &kept {
            if let Some(partners) = by_prefix.get(&p1.codes()[1..]) {
                for &idx in partners {
                    let (p2, pils2, alive2) = &kept[idx];
                    let candidate = p1.join(p2).expect("overlap holds by construction");
                    let joined: Vec<Pil> = pils1
                        .iter()
                        .zip(pils2)
                        .map(|(a, b)| Pil::join(a, b, gap))
                        .collect();
                    // A sequence's line survives the join only where it
                    // kept BOTH parents — the same condition a
                    // standalone mine of that sequence needs to form
                    // the candidate at all.
                    let alive: Vec<bool> =
                        alive1.iter().zip(alive2).map(|(&a, &b)| a && b).collect();
                    if joined.iter().any(|p| !p.is_empty()) {
                        next.insert(candidate, (joined, alive));
                    }
                }
            }
        }
        emit_level(observer, join_started.elapsed(), level_started.elapsed());
        current = next;
        level += 1;
    }

    out.sort_by(|a, b| {
        (a.pattern.len(), a.pattern.codes()).cmp(&(b.pattern.len(), b.pattern.codes()))
    });
    observer.on(Event::Complete(&CompleteEvent {
        frequent: out.len(),
        levels: level_events,
        total_candidates,
        n_used: n,
        total_elapsed: started.elapsed(),
        ..CompleteEvent::default()
    }));
    Ok(CollectionOutcome { patterns: out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mppm::mppm;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    fn random_seqs(n: usize, len: usize, base_seed: u64) -> Vec<Sequence> {
        (0..n)
            .map(|i| {
                uniform(
                    &mut StdRng::seed_from_u64(base_seed + i as u64),
                    Alphabet::Dna,
                    len,
                )
            })
            .collect()
    }

    #[test]
    fn min_sequences_one_is_union_of_single_runs() {
        let seqs = random_seqs(3, 100, 100);
        let g = gap(1, 2);
        let rho = 0.003;
        let collection = mine_collection(&seqs, g, rho, 1, 20, MppConfig::default()).unwrap();
        // Union of per-sequence frequent sets.
        let mut union: std::collections::HashSet<Pattern> = Default::default();
        for seq in &seqs {
            let outcome = mppm(seq, g, rho, 2, MppConfig::default()).unwrap();
            union.extend(outcome.frequent.into_iter().map(|f| f.pattern));
        }
        let mined: std::collections::HashSet<Pattern> = collection
            .patterns
            .iter()
            .map(|p| p.pattern.clone())
            .collect();
        assert_eq!(mined, union);
    }

    #[test]
    fn min_sequences_all_is_intersection() {
        let seqs = random_seqs(3, 100, 200);
        let g = gap(1, 2);
        let rho = 0.003;
        let collection = mine_collection(&seqs, g, rho, 3, 20, MppConfig::default()).unwrap();
        let mut per_seq: Vec<std::collections::HashSet<Pattern>> = Vec::new();
        for seq in &seqs {
            let outcome = mppm(seq, g, rho, 2, MppConfig::default()).unwrap();
            per_seq.push(outcome.frequent.into_iter().map(|f| f.pattern).collect());
        }
        let intersection: std::collections::HashSet<Pattern> = per_seq[0]
            .iter()
            .filter(|p| per_seq[1..].iter().all(|s| s.contains(*p)))
            .cloned()
            .collect();
        let mined: std::collections::HashSet<Pattern> = collection
            .patterns
            .iter()
            .map(|p| p.pattern.clone())
            .collect();
        assert_eq!(mined, intersection);
    }

    #[test]
    fn per_sequence_evidence_is_accurate() {
        let seqs = random_seqs(2, 120, 300);
        let g = gap(1, 3);
        let collection = mine_collection(&seqs, g, 0.002, 1, 15, MppConfig::default()).unwrap();
        assert!(!collection.patterns.is_empty());
        for cp in &collection.patterns {
            for (j, seq) in seqs.iter().enumerate() {
                assert_eq!(
                    cp.supports[j],
                    crate::naive::support_dp(seq, g, &cp.pattern),
                    "support in sequence {j}"
                );
            }
            assert!(!cp.frequent_in.is_empty());
            assert!(cp.sequence_count() <= seqs.len());
        }
    }

    #[test]
    fn shared_planted_motif_is_found_everywhere() {
        use perigap_seq::gen::periodic::{plant_periodic, PeriodicMotif};
        let mut seqs = random_seqs(4, 400, 400);
        let mut rng = StdRng::seed_from_u64(9);
        for seq in &mut seqs {
            let spec = PeriodicMotif {
                motif: vec![2, 1, 2],
                gap_min: 2,
                gap_max: 4,
                occurrences: 40,
            };
            plant_periodic(&mut rng, seq, &spec);
        }
        let g = gap(2, 4);
        let collection = mine_collection(&seqs, g, 0.002, 4, 10, MppConfig::default()).unwrap();
        let gcg = Pattern::from_codes(vec![2, 1, 2]);
        let found = collection
            .get(&gcg)
            .expect("planted GCG frequent in all four");
        assert_eq!(found.sequence_count(), 4);
    }

    #[test]
    fn degenerate_inputs() {
        let g = gap(1, 2);
        let empty: Vec<Sequence> = Vec::new();
        assert!(mine_collection(&empty, g, 0.01, 1, 5, MppConfig::default())
            .unwrap()
            .patterns
            .is_empty());
        let seqs = random_seqs(2, 50, 500);
        // min_sequences of 0 or more than the collection size → empty.
        assert!(mine_collection(&seqs, g, 0.01, 0, 5, MppConfig::default())
            .unwrap()
            .patterns
            .is_empty());
        assert!(mine_collection(&seqs, g, 0.01, 3, 5, MppConfig::default())
            .unwrap()
            .patterns
            .is_empty());
        assert!(mine_collection(&seqs, g, 0.0, 1, 5, MppConfig::default()).is_err());
    }

    /// Differential oracle for the collection closed filter: the
    /// hash-probe implementation must agree with the obvious O(n²)
    /// scan over the full collection-frequent set.
    #[test]
    fn closed_patterns_match_naive_scan() {
        let seqs = vec![
            Sequence::dna(&"ACGTT".repeat(50)).unwrap(),
            Sequence::dna(&"ACGTT".repeat(40)).unwrap(),
            Sequence::dna(&"ATGTT".repeat(45)).unwrap(),
        ];
        let g = gap(1, 3);
        let collection = mine_collection(&seqs, g, 0.005, 2, 10, MppConfig::default()).unwrap();
        assert!(
            collection.patterns.len() > 10,
            "fixture must mine a non-trivial set"
        );

        let naive: Vec<&CollectionPattern> = collection
            .patterns
            .iter()
            .filter(|p| {
                !collection.patterns.iter().any(|q| {
                    q.pattern.len() == p.pattern.len() + 1
                        && q.supports == p.supports
                        && (p.pattern.is_prefix_of(&q.pattern)
                            || q.pattern.codes()[1..] == *p.pattern.codes())
                })
            })
            .collect();
        let fast = collection.closed_patterns();
        assert!(
            fast.len() < collection.patterns.len(),
            "filter must bite on a repeat-heavy fixture"
        );
        assert_eq!(fast.len(), naive.len());
        for (a, b) in fast.iter().zip(naive) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn short_sequences_never_vote() {
        let mut seqs = random_seqs(2, 100, 600);
        seqs.push(Sequence::dna("ACG").unwrap()); // too short for level 3 spans
        let g = gap(2, 3);
        let collection = mine_collection(&seqs, g, 0.005, 1, 10, MppConfig::default()).unwrap();
        for cp in &collection.patterns {
            assert!(!cp.frequent_in.contains(&2), "tiny sequence cannot vote");
        }
    }
}
