//! The *seed* implementations of seeding and mining, preserved
//! verbatim in spirit: byte-vector pattern keys, a `HashMap` per
//! generation, a `Vec` allocated per candidate, and per-level thread
//! spawns.
//!
//! These are **not** used by the production engine
//! ([`crate::mpp::mine`] runs on the arena in `crate::arena`). They
//! exist so that
//!
//! 1. differential tests (`tests/prop_engine.rs`) can assert the new
//!    engine agrees with the historical one on arbitrary inputs, and
//! 2. the bench harness can print honest before/after numbers from a
//!    single binary.
//!
//! The one mechanical deviation from the seed: the per-level fan-out
//! uses `std::thread::scope` instead of `crossbeam::scope` (the
//! dependency was dropped), which does not change the work performed
//! per level — threads are still spawned and torn down at every level,
//! which is exactly the overhead the persistent pool removes.

use crate::counts::OffsetCounts;
use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::lambda::PruneBound;
use crate::mpp::{clamp_n, prepare, MppConfig, SEED_LEVEL};
use crate::pattern::Pattern;
use crate::pil::Pil;
use crate::result::{FrequentPattern, LevelStats, MineOutcome, MineStats};
use perigap_seq::Sequence;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Same threshold as the production engine, so the comparison isolates
/// engine structure rather than tuning.
const PARALLEL_THRESHOLD: usize = 256;

/// The seed `Pil::build_all`: scan every start offset, heap-allocating
/// a fresh `Vec<u8>` key per scan event and hashing it into a map.
pub fn build_all_reference(
    seq: &Sequence,
    gap: GapRequirement,
    level: usize,
) -> HashMap<Pattern, Pil> {
    assert!(level >= 1, "level must be at least 1");
    let mut map: HashMap<Vec<u8>, Vec<(u32, u64)>> = HashMap::new();
    let len = seq.len();
    let mut chars = Vec::with_capacity(level);
    for start in 1..=len {
        chars.clear();
        chars.push(seq.at1(start));
        scan_rec(seq, gap, level, start, &mut chars, &mut |codes| {
            let entries = map.entry(codes.to_vec()).or_default();
            match entries.last_mut() {
                Some(last) if last.0 == start as u32 => {
                    last.1 = last.1.saturating_add(1);
                }
                _ => entries.push((start as u32, 1)),
            }
        });
    }
    map.into_iter()
        .map(|(codes, entries)| (Pattern::from_codes(codes), Pil::from_raw(entries)))
        .collect()
}

fn scan_rec(
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
        scan_rec(seq, gap, level, next, chars, sink);
        chars.pop();
    }
}

/// The seed's threaded MPP on `config.threads` threads: `HashMap`
/// pipeline, per-candidate `Vec` allocation, and a fresh thread spawn
/// per level. Byte-identical output to [`crate::mpp::mine`] at any
/// thread count; slower machinery.
pub fn mpp_reference(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    n: usize,
    config: MppConfig,
) -> Result<MineOutcome, MineError> {
    let started = Instant::now();
    let (counts, rho_exact) = prepare(seq, gap, rho, &config)?;
    let pils = build_all_reference(seq, gap, SEED_LEVEL);
    let mut outcome = run_reference(seq, &counts, &rho_exact, n, &config, pils);
    outcome.stats.total_elapsed = started.elapsed();
    Ok(outcome)
}

fn run_reference(
    seq: &Sequence,
    counts: &OffsetCounts,
    rho: &perigap_math::BigRatio,
    n: usize,
    config: &MppConfig,
    seed_pils: HashMap<Pattern, Pil>,
) -> MineOutcome {
    let gap = counts.gap();
    let sigma = seq.alphabet().size() as u128;
    let start = SEED_LEVEL;
    let n = clamp_n(n, counts.l1());
    let hard_cap = config.max_level.unwrap_or(usize::MAX).min(counts.l2());

    let mut stats = MineStats {
        n_used: n,
        ..MineStats::default()
    };
    let mut frequent: Vec<FrequentPattern> = Vec::new();
    let mut current: Vec<(Pattern, Pil)> = seed_pils.into_iter().collect();
    // Deterministic processing order regardless of HashMap iteration.
    current.sort_by(|a, b| a.0.codes().cmp(b.0.codes()));
    let mut level = start;
    let mut candidates_at_level: u128 = sigma.saturating_pow(start as u32);
    // The join that produced `level`, charged to that level's row the
    // way the engine charges each generation to the level it produces
    // (DESIGN §8), so row `l` of both miners times the same work.
    let mut produced_in = Duration::ZERO;

    while level <= hard_cap {
        let filter_started = Instant::now();
        if counts.n(level).is_zero() {
            break;
        }
        let exact_bound = PruneBound::exact(counts, rho, level);
        let lhat_bound = if level < n {
            PruneBound::theorem1(counts, rho, n, n - level)
        } else {
            exact_bound.clone()
        };
        let n_l_f64 = counts.n_f64(level);

        let mut kept: Vec<(Pattern, Pil)> = Vec::new();
        let mut frequent_here = 0usize;
        for (pattern, pil) in current.drain(..) {
            let sup = pil.support();
            if exact_bound.admits_u128(sup) {
                frequent.push(FrequentPattern {
                    pattern: pattern.clone(),
                    support: sup,
                    ratio: sup as f64 / n_l_f64,
                });
                frequent_here += 1;
            }
            if lhat_bound.admits_u128(sup) {
                kept.push((pattern, pil));
            }
        }
        stats.levels.push(LevelStats {
            level,
            candidates: candidates_at_level,
            frequent: frequent_here,
            extended: kept.len(),
            elapsed: produced_in + filter_started.elapsed(),
        });
        if kept.is_empty() || level == hard_cap {
            break;
        }

        // Join phase, fanned out with a fresh spawn per level.
        let join_started = Instant::now();
        let mut by_prefix: HashMap<&[u8], Vec<usize>> = HashMap::new();
        for (idx, (pattern, _)) in kept.iter().enumerate() {
            by_prefix
                .entry(&pattern.codes()[..pattern.len() - 1])
                .or_default()
                .push(idx);
        }
        let (next, joins_saturated): (Vec<(Pattern, Pil)>, bool) =
            if config.threads <= 1 || kept.len() < PARALLEL_THRESHOLD {
                join_range(&kept, &by_prefix, gap, 0, kept.len())
            } else {
                let workers = config.threads.min(kept.len());
                let chunk = kept.len().div_ceil(workers);
                let kept_ref = &kept;
                let by_prefix_ref = &by_prefix;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|w| {
                            let lo = w * chunk;
                            let hi = ((w + 1) * chunk).min(kept_ref.len());
                            scope.spawn(move || join_range(kept_ref, by_prefix_ref, gap, lo, hi))
                        })
                        .collect();
                    let mut merged = Vec::new();
                    let mut saturated = false;
                    for h in handles {
                        let (part, s) = h.join().expect("join worker panicked");
                        merged.extend(part);
                        saturated |= s;
                    }
                    (merged, saturated)
                })
            };
        produced_in = join_started.elapsed();
        stats.support_saturated |= joins_saturated;
        candidates_at_level = next.len() as u128;
        if next.is_empty() {
            break;
        }
        current = next;
        level += 1;
    }

    let mut outcome = MineOutcome { frequent, stats };
    outcome.sort();
    outcome
}

/// Generate the candidates whose *left parent* index lies in
/// `lo..hi` — a disjoint partition of the join work. The second
/// element reports whether any join's window sum saturated
/// ([`Pil::join_checked`]), so comparisons against this engine know
/// when its supports are lower bounds.
fn join_range(
    kept: &[(Pattern, Pil)],
    by_prefix: &HashMap<&[u8], Vec<usize>>,
    gap: GapRequirement,
    lo: usize,
    hi: usize,
) -> (Vec<(Pattern, Pil)>, bool) {
    let mut out = Vec::new();
    let mut saturated = false;
    for (p1, pil1) in &kept[lo..hi] {
        if let Some(partners) = by_prefix.get(&p1.codes()[1..]) {
            for &idx in partners {
                let (p2, pil2) = &kept[idx];
                let candidate = p1.join(p2).expect("overlap holds by construction");
                let (pil, s) = Pil::join_checked(pil1, pil2, gap);
                saturated |= s;
                out.push((candidate, pil));
            }
        }
    }
    (out, saturated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpp::mpp;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    #[test]
    fn reference_build_all_matches_engine() {
        let seq = uniform(&mut StdRng::seed_from_u64(7), Alphabet::Dna, 300);
        let g = gap(0, 3);
        let reference = build_all_reference(&seq, g, 3);
        let engine = Pil::build_all(&seq, g, 3);
        assert_eq!(reference.len(), engine.len());
        for (pattern, pil) in &reference {
            assert_eq!(engine.get(pattern), Some(pil), "{pattern:?}");
        }
    }

    #[test]
    fn reference_miner_matches_engine() {
        let seq = uniform(&mut StdRng::seed_from_u64(8), Alphabet::Dna, 400);
        let g = gap(1, 3);
        let rho = 0.0008;
        for threads in [1usize, 4] {
            let config = MppConfig {
                threads,
                ..MppConfig::default()
            };
            let old = mpp_reference(&seq, g, rho, 12, config.clone()).unwrap();
            let new = mpp(&seq, g, rho, 12, config).unwrap();
            assert_eq!(old.frequent.len(), new.frequent.len());
            for (a, b) in old.frequent.iter().zip(&new.frequent) {
                assert_eq!(a.pattern, b.pattern);
                assert_eq!(a.support, b.support);
                assert!((a.ratio - b.ratio).abs() < 1e-12);
            }
        }
    }
}
