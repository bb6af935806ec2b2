//! The MPPm algorithm (Section 5.2): MPP with the longest-pattern
//! estimate `n` derived automatically from the `e_m` statistic.
//!
//! After counting the supports of all start-level (length-3) patterns,
//! MPPm checks for every `k` up to `l1` whether *any* length-3 pattern
//! clears the Theorem 2 bound `λ′(k, k−3) · ρs · N_3`. If none does, no
//! length-`k` frequent pattern can exist; `n` is the largest `k` that
//! survives. From there the run is exactly MPP — on either the
//! breadth-first engine ([`mppm`]) or the hybrid BFS→DFS engine
//! ([`mppm_dfs`], see [`crate::dfs`]).

use crate::arena::{build_seed, PilSet};
use crate::counts::OffsetCounts;
use crate::em::compute_em;
use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::lambda::PruneBound;
use crate::mpp::{prepare, run_levelwise, MppConfig};
use crate::parallel::PoolHooks;
use crate::result::{MineOutcome, MineStats};
use crate::trace::{AbortEvent, CompleteEvent, EmEvent, MineObserver, NoopObserver, SeedEvent};
use perigap_math::BigRatio;
use perigap_seq::Sequence;
use std::time::Instant;

/// Run MPPm with window parameter `m` (the paper uses `m = 8` or
/// `m = 10`).
///
/// ```
/// use perigap_core::mpp::MppConfig;
/// use perigap_core::mppm::mppm;
/// use perigap_core::GapRequirement;
/// use perigap_seq::Sequence;
///
/// let seq = Sequence::dna(&"ACGTT".repeat(50))?;
/// let gap = GapRequirement::new(1, 3)?;
/// let outcome = mppm(&seq, gap, 0.005, 4, MppConfig::default())?;
/// assert!(outcome.stats.em.is_some(), "MPPm computed e_m");
/// for f in &outcome.frequent {
///     assert!(f.ratio >= 0.005 * (1.0 - 1e-12));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn mppm(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    m: usize,
    config: MppConfig,
) -> Result<MineOutcome, MineError> {
    mppm_traced(seq, gap, rho, m, config, &mut NoopObserver)
}

/// Everything the MPPm front half (validation, `e_m`, seed supports,
/// `n` estimation) hands to whichever engine runs the level-wise back
/// half.
struct MppmPrelude {
    counts: OffsetCounts,
    rho_exact: BigRatio,
    n: usize,
    pils: PilSet,
    stats_seed: MineStats,
}

/// The shared MPPm front half. Emits the [`EmEvent`] and [`SeedEvent`]
/// so both engines produce identical trace preludes.
fn mppm_prelude<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    m: usize,
    config: &MppConfig,
    observer: &mut O,
) -> Result<MppmPrelude, MineError> {
    if m == 0 {
        return Err(MineError::InvalidM(0));
    }
    let (counts, rho_exact) = prepare(seq, gap, rho, config)?;

    // Phase 1: the e_m statistic.
    let em_started = Instant::now();
    // e_m = 0 means no length-(m+1) window fits; clamping to 1 only
    // loosens λ′ and is therefore sound.
    let em = compute_em(seq, gap, m).max(1);
    let em_elapsed = em_started.elapsed();
    observer.on_em(&EmEvent {
        m,
        em,
        elapsed: em_elapsed,
    });

    // Phase 2: seed-level supports.
    let start = config.start_level;
    let seed_started = Instant::now();
    let pils = build_seed(seq, gap, start);
    observer.on_seed(&SeedEvent {
        level: start,
        patterns: pils.len(),
        pil_entries: pils.entry_count(),
        arena_bytes: pils.arena_bytes(),
        elapsed: seed_started.elapsed(),
    });
    let max_sup = pils.max_support();

    // Phase 3: estimate n = max { k : some seed pattern clears
    // λ′(k, k−3)·ρs·N_3 }. Only the best-supported seed pattern matters,
    // since the bound is a fixed threshold per k.
    let l1 = counts.l1();
    let mut n = start;
    for k in (start + 1)..=l1.max(start) {
        let bound = PruneBound::theorem2(&counts, &rho_exact, k, k - start, m, em);
        if bound.admits_u128(max_sup) {
            n = k;
        }
        // Note: the bound is not monotone in k in general, so we keep
        // scanning to l1 rather than breaking at the first failure —
        // "the value of n is taken as the largest k such that length-k
        // frequent patterns may exist".
    }

    let stats_seed = MineStats {
        em: Some(em),
        em_elapsed,
        ..MineStats::default()
    };
    Ok(MppmPrelude {
        counts,
        rho_exact,
        n,
        pils,
        stats_seed,
    })
}

/// [`mppm`] with a [`MineObserver`] attached; see
/// [`crate::mpp::mpp_traced`] for the zero-cost argument.
pub fn mppm_traced<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    m: usize,
    config: MppConfig,
    observer: &mut O,
) -> Result<MineOutcome, MineError> {
    let started = Instant::now();
    let p = mppm_prelude(seq, gap, rho, m, &config, observer)?;
    let run = run_levelwise(
        seq,
        &p.counts,
        &p.rho_exact,
        p.n,
        &config,
        p.pils,
        Some(p.stats_seed),
        observer,
    );
    finish(run, started, observer)
}

/// [`mppm`] on the hybrid BFS→DFS engine: the same `n` estimate and
/// seed, mined by [`crate::dfs`] with `threads` workers.
pub fn mppm_dfs(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    m: usize,
    config: MppConfig,
    threads: usize,
) -> Result<MineOutcome, MineError> {
    mppm_dfs_traced(seq, gap, rho, m, config, threads, &mut NoopObserver)
}

/// [`mppm_dfs`] with a [`MineObserver`] attached.
pub fn mppm_dfs_traced<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    m: usize,
    config: MppConfig,
    threads: usize,
    observer: &mut O,
) -> Result<MineOutcome, MineError> {
    let started = Instant::now();
    let p = mppm_prelude(seq, gap, rho, m, &config, observer)?;
    let run = crate::dfs::run_hybrid(
        seq,
        &p.counts,
        &p.rho_exact,
        p.n,
        &config,
        p.pils,
        threads,
        PoolHooks::default(),
        Some(p.stats_seed),
        observer,
    );
    finish(run, started, observer)
}

/// Shared MPPm tail: stamp the total wall time and emit the terminal
/// trace event — [`CompleteEvent`] with the peak, or [`AbortEvent`] on
/// error.
fn finish<O: MineObserver>(
    run: Result<(MineOutcome, usize), MineError>,
    started: Instant,
    observer: &mut O,
) -> Result<MineOutcome, MineError> {
    let (mut outcome, peak) = match run {
        Ok(done) => done,
        Err(e) => {
            observer.on_abort(&AbortEvent {
                message: e.to_string(),
            });
            return Err(e);
        }
    };
    outcome.stats.total_elapsed = started.elapsed();
    observer.on_complete(&CompleteEvent::from_outcome(&outcome).with_peak_arena_bytes(peak));
    Ok(outcome)
}

/// The `n` MPPm would estimate, without running the mining phase —
/// used by the harness to report the paper's "MPPm estimates n = 22"
/// style numbers.
pub fn estimate_n(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    m: usize,
    config: MppConfig,
) -> Result<(usize, u64), MineError> {
    let p = mppm_prelude(seq, gap, rho, m, &config, &mut NoopObserver)?;
    let em = p.stats_seed.em.expect("prelude always records e_m");
    Ok((p.n, em))
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
    fn finds_same_patterns_as_mpp_worst_case() {
        let s = uniform(&mut StdRng::seed_from_u64(21), Alphabet::Dna, 150);
        let g = gap(2, 4);
        let rho = 0.0015;
        let worst = mpp(&s, g, rho, g.l1(150), MppConfig::default()).unwrap();
        let auto = mppm(&s, g, rho, 4, MppConfig::default()).unwrap();
        assert_eq!(worst.frequent.len(), auto.frequent.len());
        for f in &worst.frequent {
            let found = auto.get(&f.pattern).expect("MPPm must find every pattern");
            assert_eq!(found.support, f.support);
        }
    }

    #[test]
    fn estimated_n_is_sound() {
        // n must be at least the true longest frequent length no(rho):
        // Theorem 2 guarantees no length-k frequent pattern exists for
        // any k the estimate rejects.
        let s = uniform(&mut StdRng::seed_from_u64(22), Alphabet::Dna, 150);
        let g = gap(1, 2);
        let rho = 0.0005;
        let worst = mpp(&s, g, rho, g.l1(150), MppConfig::default()).unwrap();
        let no = worst.longest_len();
        let (n, em) = estimate_n(&s, g, rho, 5, MppConfig::default()).unwrap();
        assert!(n >= no, "estimated n = {n} below true longest {no}");
        assert!(em >= 1);
    }

    #[test]
    fn estimates_are_sound_and_bounded_for_every_m() {
        // For any m, the estimate must cover the true longest frequent
        // length and never exceed l1 (λ′ tightens differently per m, and
        // is not monotone in m when k − 3 < m, so only soundness and the
        // l1 cap are invariant).
        let s = uniform(&mut StdRng::seed_from_u64(23), Alphabet::Dna, 400);
        let g = gap(2, 4);
        let rho = 0.002;
        let no = mpp(&s, g, rho, g.l1(400), MppConfig::default())
            .unwrap()
            .longest_len();
        for m in [1, 2, 4, 6] {
            let (n, _) = estimate_n(&s, g, rho, m, MppConfig::default()).unwrap();
            assert!(n >= no.max(3), "m = {m}: n = {n} below longest {no}");
            assert!(n <= g.l1(400), "m = {m}: n = {n} above l1");
        }
    }

    #[test]
    fn stats_record_em() {
        let s = uniform(&mut StdRng::seed_from_u64(24), Alphabet::Dna, 150);
        let g = gap(1, 2);
        let outcome = mppm(&s, g, 0.001, 3, MppConfig::default()).unwrap();
        assert!(outcome.stats.em.is_some());
        assert!(outcome.stats.n_used >= 3);
    }

    #[test]
    fn dfs_engine_matches_bfs_engine() {
        let s = uniform(&mut StdRng::seed_from_u64(26), Alphabet::Dna, 300);
        let g = gap(1, 3);
        let rho = 0.0008;
        let bfs = mppm(&s, g, rho, 4, MppConfig::default()).unwrap();
        for threads in [1usize, 4] {
            let dfs = mppm_dfs(&s, g, rho, 4, MppConfig::default(), threads).unwrap();
            assert_eq!(bfs.frequent, dfs.frequent, "threads = {threads}");
            assert_eq!(bfs.stats.n_used, dfs.stats.n_used);
            assert_eq!(bfs.stats.em, dfs.stats.em);
        }
    }

    #[test]
    fn m_zero_is_rejected() {
        let s = uniform(&mut StdRng::seed_from_u64(25), Alphabet::Dna, 100);
        assert!(matches!(
            mppm(&s, gap(1, 2), 0.01, 0, MppConfig::default()),
            Err(MineError::InvalidM(0))
        ));
    }

    #[test]
    fn short_sequence_with_no_windows_still_mines() {
        // L admits length-3 patterns but no length-(m+1) e_m window:
        // e_m clamps to 1 and mining proceeds.
        let s = Sequence::dna("ACGTACGTACGTACG").unwrap(); // L = 15
        let g = gap(3, 4);
        // m = 4 needs span 1 + 5·4 = 21 > 15.
        let outcome = mppm(&s, g, 0.01, 4, MppConfig::default()).unwrap();
        assert_eq!(outcome.stats.em, Some(1));
    }
}
