//! The MPP algorithm (Figure 3), the one mining call shared by MPP and
//! MPPm, and the configuration every level-wise run takes.
//!
//! MPP takes a user estimate `n` of the longest frequent pattern
//! length. Below level `n` it prunes with the Theorem 1 factor
//! `λ(n, n−i)`; above it the factor degenerates to 1 (a plain
//! level-wise pass), making longer patterns best-effort. MPPm
//! ([`crate::mppm`]) is MPP at an `n` estimated from `e_m`. Both run
//! through [`mine`] on the engine in [`crate::dfs`]; the [`Algorithm`]
//! says how `n` is chosen, [`MppConfig::threads`] how many threads
//! mine, and the observer what is traced. [`mine_top_k`] is the same
//! mine keeping only the `k` best-supported patterns (see
//! [`crate::prune`]), and the crate-private `mine_recording` the same
//! mine returning the level maps a result-cache record holds (see
//! [`crate::incremental`]). [`mpp`] is the paper's untraced call.

use crate::arena::{build_seed, PilSet};
use crate::counts::OffsetCounts;
use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::incremental::CachedLevel;
use crate::parallel::PoolHooks;
use crate::result::MineOutcome;
use crate::trace::{Event, MineObserver, NoopObserver, SeedEvent};
use perigap_math::BigRatio;
use perigap_seq::Sequence;
use std::sync::Arc;
use std::time::Instant;

/// How a mine chooses `n`, the length Theorem 1 prunes toward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// MPP (Figure 3) at the user's `n`.
    Mpp {
        /// The target level `n`.
        n: usize,
    },
    /// MPPm (§5.2): MPP at the `n` that Theorem 2 estimates from `e_m`.
    Mppm {
        /// The sampling window `m`.
        m: usize,
    },
}

impl Algorithm {
    /// The result-cache key's algorithm byte: 0 for MPP, 1 for MPPm.
    pub(crate) fn id(&self) -> u8 {
        match self {
            Algorithm::Mpp { .. } => 0,
            Algorithm::Mppm { .. } => 1,
        }
    }

    /// `n` for MPP, `m` for MPPm.
    pub(crate) fn param(&self) -> usize {
        match *self {
            Algorithm::Mpp { n } => n,
            Algorithm::Mppm { m } => m,
        }
    }
}

/// The pattern length every mine seeds at: Figure 3 (line 9) starts
/// from `C_3`, because over a 4-letter alphabet shorter patterns are
/// always frequent and thus uninteresting.
pub const SEED_LEVEL: usize = 3;

/// The `n` a mine prunes toward. Figure 3 line 3: an `n` above `l1`
/// mines as `l1`. It never falls below the seed level either, since
/// the engine cannot prune toward patterns shorter than its seed.
pub(crate) fn clamp_n(n: usize, l1: usize) -> usize {
    n.clamp(SEED_LEVEL, l1.max(SEED_LEVEL))
}

/// Tuning knobs common to every level-wise run: how deep it mines, how
/// much memory it may hold and where it spills, and on how many
/// threads. A top-k mine is a call of its own ([`mine_top_k`]), not a
/// setting. [`MppConfig::check`] says which values a mine can honour;
/// every function that takes a config calls it first.
#[derive(Clone, Debug)]
pub struct MppConfig {
    /// Hard cap on the deepest level (safety valve; `None` runs to
    /// `l2`). At least [`SEED_LEVEL`].
    pub max_level: Option<usize>,
    /// Ceiling on live arena bytes (every surviving generation the
    /// engine holds at once). When mining would exceed it the run
    /// aborts with [`MineError::MemoryCeiling`] instead of thrashing;
    /// `None` is unlimited, and 0 is refused. With a spill backend the
    /// engine can finish under the ceiling anyway by spilling cold
    /// subtrees — see [`MppConfig::spill`].
    pub max_arena_bytes: Option<usize>,
    /// Backend for spill records (see [`crate::spill`]): `Some` arms
    /// spilling, and needs `max_arena_bytes` set. The CLI's
    /// `--spill-dir` is a [`crate::spill::FsSpillIo`]; mining results
    /// are identical for any correct backend.
    pub spill: Option<Arc<dyn crate::spill::SpillIo>>,
    /// Fraction of `max_arena_bytes` at which the engine starts
    /// spilling cold subtree arenas (`0.0` spills at every handoff,
    /// `1.0` only at the ceiling itself), in `[0.0, 1.0]`. Only
    /// consulted when a spill backend is configured. Default `0.5`.
    pub spill_watermark: f64,
    /// Threads that mine, counting the calling thread; at least 1, and
    /// `1` (the default) spawns no pool. Output is byte-identical at every
    /// thread count, so the result cache leaves it out of its key. A
    /// corpus mine fans its shards out this wide and mines each shard
    /// on one thread.
    pub threads: usize,
}

impl Default for MppConfig {
    fn default() -> Self {
        MppConfig {
            max_level: None,
            max_arena_bytes: None,
            spill: None,
            spill_watermark: 0.5,
            threads: 1,
        }
    }
}

impl MppConfig {
    /// The one rule set for a mine's settings: every function that
    /// takes a config calls this first, and every front end reports
    /// what it refuses. Refused, each as [`MineError::InvalidConfig`]
    /// naming the field: `threads` 0; a `max_level` below
    /// [`SEED_LEVEL`]; `max_arena_bytes` 0; a `spill` backend without
    /// `max_arena_bytes`; a `spill_watermark` outside `[0.0, 1.0]` (NaN
    /// included).
    pub fn check(&self) -> Result<(), MineError> {
        let refuse = |setting, reason: String| Err(MineError::InvalidConfig { setting, reason });
        if self.threads == 0 {
            return refuse("threads", "must be at least 1: no thread would mine".into());
        }
        if self.max_level.is_some_and(|l| l < SEED_LEVEL) {
            return refuse(
                "max_level",
                format!(
                    "must be at least {SEED_LEVEL}, the seed level: mining starts there, \
                     so a lower cap would mine nothing"
                ),
            );
        }
        if self.max_arena_bytes == Some(0) {
            return refuse(
                "max_arena_bytes",
                "must be at least 1: a zero ceiling would abort before the seed level \
                 allocates anything"
                    .into(),
            );
        }
        if self.spill.is_some() && self.max_arena_bytes.is_none() {
            return refuse(
                "spill",
                "needs an arena ceiling: without one there is nothing to spill under".into(),
            );
        }
        if !(0.0..=1.0).contains(&self.spill_watermark) {
            return refuse(
                "spill_watermark",
                format!("must be in [0.0, 1.0] (got {})", self.spill_watermark),
            );
        }
        Ok(())
    }
}

/// Run MPP: mine all patterns with support ratio ≥ `rho` (guaranteed
/// complete for lengths ≤ `n`; best-effort beyond).
///
/// `rho` is the support threshold as a fraction (the paper's
/// `ρs = 0.003%` is `0.00003`).
pub fn mpp(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    n: usize,
    config: MppConfig,
) -> Result<MineOutcome, MineError> {
    mine(
        seq,
        gap,
        rho,
        Algorithm::Mpp { n },
        &config,
        &mut NoopObserver,
    )
}

/// Mine every pattern with support ratio ≥ `rho`, choosing `n` as
/// `algorithm` says, on `config.threads` threads, with `observer`
/// attached. Every MPP and MPPm mine is this call. The observer is a
/// generic parameter, so a mine with [`NoopObserver`] monomorphizes to
/// the untraced hot path. Output is byte-identical at every thread
/// count; a pooled run also emits one [`crate::trace::PoolLevelEvent`]
/// per pooled job. Settings [`MppConfig::check`] refuses fail with
/// [`MineError::InvalidConfig`].
pub fn mine<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: Algorithm,
    config: &MppConfig,
    observer: &mut O,
) -> Result<MineOutcome, MineError> {
    mine_with(seq, gap, rho, algorithm, Request::Full, config, observer).map(|(outcome, _)| outcome)
}

/// [`mine`], keeping only the `k` best-supported frequent patterns, in
/// rank order (support descending, then length, then codes): exactly
/// [`crate::prune::select_top_k`] of the full mine, at every thread
/// count. A rising support floor gates emission, and under a rigid gap
/// (`N = M`) it also cuts the search. A `k` of 0 fails with
/// [`MineError::InvalidConfig`] naming `top_k`.
pub fn mine_top_k<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: Algorithm,
    k: usize,
    config: &MppConfig,
    observer: &mut O,
) -> Result<MineOutcome, MineError> {
    if k == 0 {
        return Err(MineError::InvalidConfig {
            setting: "top_k",
            reason: "must be at least 1: a zero budget keeps no patterns".into(),
        });
    }
    mine_with(seq, gap, rho, algorithm, Request::TopK(k), config, observer)
        .map(|(outcome, _)| outcome)
}

/// [`mine`], also returning each level's evaluated candidates with
/// non-zero support, in code order: the seed patterns, then every join
/// product the engine counted, each with its support. These are the
/// level maps of a rigid-gap result-cache record
/// ([`crate::incremental`]), and they are the same at every thread
/// count.
pub(crate) fn mine_recording<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: Algorithm,
    config: &MppConfig,
    observer: &mut O,
) -> Result<(MineOutcome, Vec<CachedLevel>), MineError> {
    mine_with(seq, gap, rho, algorithm, Request::Record, config, observer)
}

/// What one engine run returns beside its frequent set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Request {
    /// Every frequent pattern ([`mine`]).
    Full,
    /// The `k` best-supported frequent patterns ([`mine_top_k`]).
    TopK(usize),
    /// Every frequent pattern and each level's evaluated candidates
    /// ([`mine_recording`]).
    Record,
}

impl Request {
    /// The top-k budget, `None` for a full mine.
    pub(crate) fn top_k(self) -> Option<usize> {
        match self {
            Request::TopK(k) => Some(k),
            Request::Full | Request::Record => None,
        }
    }
}

/// The body of [`mine`], [`mine_top_k`] and [`mine_recording`]. The
/// level maps are empty unless `request` is [`Request::Record`].
fn mine_with<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: Algorithm,
    request: Request,
    config: &MppConfig,
    observer: &mut O,
) -> Result<(MineOutcome, Vec<CachedLevel>), MineError> {
    let started = Instant::now();
    let (counts, rho_exact, n, seed, stats_seed) = match algorithm {
        Algorithm::Mpp { n } => {
            let (counts, rho_exact) = prepare(seq, gap, rho, config)?;
            let seed = seed_level(seq, gap, observer);
            (counts, rho_exact, n, seed, None)
        }
        Algorithm::Mppm { m } => {
            let p = crate::mppm::prelude(seq, gap, rho, m, config, observer)?;
            (p.counts, p.rho_exact, p.n, p.pils, Some(p.stats_seed))
        }
    };
    let run = crate::dfs::run_hybrid(
        seq,
        &counts,
        &rho_exact,
        n,
        request,
        config,
        seed,
        PoolHooks::default(),
        stats_seed,
        observer,
    );
    crate::dfs::finish(run, started, observer)
}

/// Build the seed generation and emit its [`SeedEvent`].
pub(crate) fn seed_level<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    observer: &mut O,
) -> PilSet {
    let started = Instant::now();
    let pils = build_seed(seq, gap, SEED_LEVEL);
    observer.on(Event::Seed(&SeedEvent {
        level: SEED_LEVEL,
        patterns: pils.len(),
        pil_entries: pils.entry_count(),
        arena_bytes: pils.arena_bytes(),
        elapsed: started.elapsed(),
    }));
    pils
}

/// Fail with [`MineError::MemoryCeiling`] when `live` arena bytes
/// exceed the configured ceiling.
pub(crate) fn check_ceiling(limit: Option<usize>, live: usize) -> Result<(), MineError> {
    match limit {
        Some(cap) if live > cap => Err(MineError::MemoryCeiling {
            limit: cap,
            required: live,
        }),
        _ => Ok(()),
    }
}

/// Refuse a support threshold outside `(0, 1]`.
pub(crate) fn check_rho(rho: f64) -> Result<(), MineError> {
    if rho > 0.0 && rho <= 1.0 {
        Ok(())
    } else {
        Err(MineError::InvalidThreshold(rho))
    }
}

/// The input checks every mine makes before it counts anything: the
/// settings ([`MppConfig::check`]), `rho` in `(0, 1]`, and a sequence
/// long enough to hold one seed-level pattern.
pub(crate) fn check_inputs(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    config: &MppConfig,
) -> Result<(), MineError> {
    config.check()?;
    check_rho(rho)?;
    let needed = gap.min_span(SEED_LEVEL);
    if seq.len() < needed {
        return Err(MineError::SequenceTooShort {
            len: seq.len(),
            needed,
        });
    }
    Ok(())
}

/// Validate inputs and build the shared counting table.
pub(crate) fn prepare(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    config: &MppConfig,
) -> Result<(OffsetCounts, BigRatio), MineError> {
    check_inputs(seq, gap, rho, config)?;
    Ok((
        OffsetCounts::new(seq.len(), gap),
        BigRatio::from_f64_exact(rho),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lambda::PruneBound;
    use crate::naive::support_dp;
    use crate::pattern::Pattern;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    /// Brute-force frequent patterns of lengths `start..=max_len` by DP
    /// support counting over all σ^l patterns. Exponential in `max_len`
    /// — keep it small.
    fn brute_force(
        seq: &Sequence,
        g: GapRequirement,
        rho: f64,
        start: usize,
        max_len: usize,
    ) -> Vec<(Pattern, u128)> {
        let counts = OffsetCounts::new(seq.len(), g);
        let rho = BigRatio::from_f64_exact(rho);
        let sigma = seq.alphabet().size() as u8;
        let mut out = Vec::new();
        for l in start..=max_len {
            if counts.n(l).is_zero() {
                break;
            }
            let bound = PruneBound::exact(&counts, &rho, l);
            let mut stack = vec![0u8; l];
            // Odometer over all sigma^l patterns.
            loop {
                let p = Pattern::from_codes(stack.clone());
                let sup = support_dp(seq, g, &p);
                if bound.admits_u128(sup) {
                    out.push((p, sup));
                }
                // Increment odometer.
                let mut i = l;
                loop {
                    if i == 0 {
                        break;
                    }
                    stack[i - 1] += 1;
                    if stack[i - 1] < sigma {
                        break;
                    }
                    stack[i - 1] = 0;
                    i -= 1;
                }
                if i == 0 {
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_small() {
        let s = uniform(&mut StdRng::seed_from_u64(11), Alphabet::Dna, 60);
        let g = gap(1, 3);
        let rho = 0.001;
        const CAP: usize = 6;
        let expected = brute_force(&s, g, rho, 3, CAP);
        let outcome = mpp(&s, g, rho, 20, MppConfig::default()).unwrap();
        // n = 20 ≥ longest frequent, so the result must be complete:
        // compare both directions for lengths ≤ CAP.
        let mined_short: Vec<_> = outcome.frequent.iter().filter(|f| f.len() <= CAP).collect();
        assert_eq!(mined_short.len(), expected.len());
        for (p, sup) in &expected {
            let found = outcome
                .get(p)
                .unwrap_or_else(|| panic!("missing pattern {:?}", p.display(&Alphabet::Dna)));
            assert_eq!(found.support, *sup);
        }
    }

    #[test]
    fn complete_for_lengths_up_to_n() {
        let s = uniform(&mut StdRng::seed_from_u64(12), Alphabet::Dna, 80);
        let g = gap(1, 2);
        let rho = 0.002;
        const CAP: usize = 5;
        let expected = brute_force(&s, g, rho, 3, CAP);
        // Run MPP with n = CAP: completeness is guaranteed up to CAP.
        let outcome = mpp(&s, g, rho, CAP, MppConfig::default()).unwrap();
        for (p, _) in &expected {
            assert!(
                outcome.get(p).is_some(),
                "pattern {:?} of length {} missing with n = {CAP}",
                p.display(&Alphabet::Dna),
                p.len()
            );
        }
    }

    #[test]
    fn supports_and_ratios_are_correct() {
        let s = uniform(&mut StdRng::seed_from_u64(13), Alphabet::Dna, 120);
        let g = gap(2, 4);
        let outcome = mpp(&s, g, 0.005, 15, MppConfig::default()).unwrap();
        let counts = OffsetCounts::new(s.len(), g);
        assert!(!outcome.frequent.is_empty(), "something should be frequent");
        for f in &outcome.frequent {
            assert_eq!(f.support, support_dp(&s, g, &f.pattern));
            let expected_ratio = f.support as f64 / counts.n_f64(f.len());
            assert!((f.ratio - expected_ratio).abs() < 1e-12);
            assert!(
                f.ratio >= 0.005 * (1.0 - 1e-9),
                "ratio {} below rho",
                f.ratio
            );
        }
    }

    #[test]
    fn small_n_is_subset_of_large_n() {
        let s = uniform(&mut StdRng::seed_from_u64(14), Alphabet::Dna, 150);
        let g = gap(1, 3);
        let small = mpp(&s, g, 0.001, 3, MppConfig::default()).unwrap();
        let large = mpp(&s, g, 0.001, 30, MppConfig::default()).unwrap();
        for f in &small.frequent {
            let in_large = large.get(&f.pattern).expect("large-n run must contain it");
            assert_eq!(in_large.support, f.support);
        }
        assert!(small.frequent.len() <= large.frequent.len());
    }

    #[test]
    fn n_is_clamped_to_l1() {
        let s = uniform(&mut StdRng::seed_from_u64(15), Alphabet::Dna, 50);
        let g = gap(9, 12);
        let outcome = mpp(&s, g, 0.01, 500, MppConfig::default()).unwrap();
        let l1 = g.l1(50);
        assert_eq!(outcome.stats.n_used, l1.max(3));
    }

    #[test]
    fn stats_track_candidates() {
        let s = uniform(&mut StdRng::seed_from_u64(16), Alphabet::Dna, 200);
        let g = gap(1, 2);
        let outcome = mpp(&s, g, 0.0005, 10, MppConfig::default()).unwrap();
        let stats = &outcome.stats;
        assert_eq!(stats.levels[0].level, 3);
        assert_eq!(stats.levels[0].candidates, 64, "seed level counts σ^3");
        // L ⊆ L̂ at every level below n.
        for l in &stats.levels {
            assert!(l.frequent <= l.extended || l.level >= stats.n_used);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let s = Sequence::dna("ACGTACGTACGT").unwrap();
        let g = gap(1, 2);
        assert!(matches!(
            mpp(&s, g, 0.0, 5, MppConfig::default()),
            Err(MineError::InvalidThreshold(_))
        ));
        assert!(matches!(
            mpp(&s, g, 1.5, 5, MppConfig::default()),
            Err(MineError::InvalidThreshold(_))
        ));
        let tiny = Sequence::dna("ACG").unwrap();
        assert!(matches!(
            mpp(&tiny, gap(9, 12), 0.1, 5, MppConfig::default()),
            Err(MineError::SequenceTooShort { .. })
        ));
    }

    #[test]
    fn max_level_caps_depth() {
        let s = Sequence::dna(&"AT".repeat(100)).unwrap();
        let g = gap(1, 1);
        let config = MppConfig {
            max_level: Some(4),
            ..MppConfig::default()
        };
        let outcome = mpp(&s, g, 0.5, 10, config).unwrap();
        assert!(outcome.longest_len() <= 4);
        assert!(outcome.stats.levels.iter().all(|l| l.level <= 4));
    }

    #[test]
    fn check_ceiling_boundary_is_strictly_greater() {
        // The pinned semantics for every ceiling check in the
        // workspace (the engine's `MemGauge` calls this): a live
        // total exactly at the cap passes, one byte over aborts, and
        // the error reports both sides.
        assert!(check_ceiling(None, usize::MAX).is_ok());
        assert!(check_ceiling(Some(1024), 0).is_ok());
        assert!(
            check_ceiling(Some(1024), 1024).is_ok(),
            "live == cap passes"
        );
        match check_ceiling(Some(1024), 1025) {
            Err(MineError::MemoryCeiling { limit, required }) => {
                assert_eq!((limit, required), (1024, 1025));
            }
            other => panic!("expected MemoryCeiling, got {other:?}"),
        }
        assert!(check_ceiling(Some(0), 0).is_ok());
        assert!(check_ceiling(Some(0), 1).is_err());
    }

    #[test]
    fn arena_ceiling_aborts_mining() {
        let s = uniform(&mut StdRng::seed_from_u64(17), Alphabet::Dna, 400);
        let g = gap(0, 3);
        let config = MppConfig {
            max_arena_bytes: Some(64),
            ..MppConfig::default()
        };
        match mpp(&s, g, 0.0005, 10, config) {
            Err(MineError::MemoryCeiling { limit, required }) => {
                assert_eq!(limit, 64);
                assert!(required > 64);
            }
            other => panic!("expected MemoryCeiling, got {other:?}"),
        }
        // A generous ceiling leaves the result untouched.
        let roomy = MppConfig {
            max_arena_bytes: Some(usize::MAX),
            ..MppConfig::default()
        };
        let capped = mpp(&s, g, 0.0005, 10, roomy).unwrap();
        let free = mpp(&s, g, 0.0005, 10, MppConfig::default()).unwrap();
        assert_eq!(capped.frequent, free.frequent);
    }

    #[test]
    fn repetitive_sequence_mines_deep_patterns() {
        // ATATAT… with gap [1,1]: AAA…A and TTT…T are the only patterns
        // with support; everything of the form A^k is frequent at low rho.
        // Ratio of A^l here is exactly 0.5 (A occupies every odd start),
        // so rho = 0.4 keeps the homogeneous patterns frequent.
        let s = Sequence::dna(&"AT".repeat(50)).unwrap();
        let g = gap(1, 1);
        let outcome = mpp(&s, g, 0.4, 20, MppConfig::default()).unwrap();
        assert!(
            outcome.longest_len() >= 10,
            "longest = {}",
            outcome.longest_len()
        );
        for f in &outcome.frequent {
            let codes = f.pattern.codes();
            assert!(
                codes.iter().all(|&c| c == 0) || codes.iter().all(|&c| c == 3),
                "unexpected pattern {:?}",
                f.pattern.display(&Alphabet::Dna)
            );
        }
    }
}
