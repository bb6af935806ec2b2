//! Incremental re-mining: a content-addressed result cache, suffix-
//! window delta mining for rigid gaps, and baseline diffs.
//!
//! Real deployments re-mine the same growing sequence (a log stream, an
//! extending assembly) after every append. The paper's offset-chain
//! model makes the rigid-gap case (`W = M − N + 1 = 1`) exactly
//! incremental: every length-`l` offset chain steps by the fixed stride
//! `s = N + 1`, so a chain is uniquely determined by its **end**
//! position. Appending `d` symbols to a length-`L` sequence therefore
//! creates only the chains whose end lands in `(L, L + d]` — each
//! reaching back at most `(l − 1)·(M + 1)` positions across the
//! boundary — and destroys none. Supports only grow; what moves in both
//! directions is the threshold `ρ·N_l`, which rises with `N_l` as the
//! sequence lengthens, so cached patterns can both enter and leave the
//! frequent set.
//!
//! ## The cache
//!
//! [`write_result_cache`] persists one [`crate::wire`] record
//! ([`Frame::RESULT_CACHE`]: magic `PGST`, version 3, tag 6, trailing
//! FNV-1a) holding:
//!
//! - the **key**: sequence FNV-1a hash and length, alphabet size, gap,
//!   exact ρ bits, algorithm, the `n`/`m` parameter, a prune byte
//!   (always 0: only full mines are cached), start/max level;
//! - the **outcome**: every frequent pattern with its exact support and
//!   the bit-exact ratio, in the engine's (length, codes) emission
//!   order, plus `n_used`, `e_m` and the saturation flag;
//! - for rigid gaps, the **per-level evaluated-candidate maps**: every
//!   candidate the level-wise engine evaluated (the seed generation and
//!   each join product with non-zero support) with its exact support.
//!   These are what make the delta merge exact — see below. A cold mine
//!   records them as it counts them (`mpp::mine_recording`), so seeding
//!   the cache mines the sequence once; the delta merge then keeps them
//!   up to date.
//!
//! [`crate::corpus`] writes its per-shard checkpoints in this format
//! too, with no `e_m` and no level maps.
//!
//! Writes are atomic (unique tmp + rename). Every decode failure —
//! truncation, bit flips, a bad trailer, a count the remaining bytes
//! cannot hold, an outcome out of order — is a typed
//! [`MineError::CacheIo`]; a structurally valid record whose key does
//! not match the request (including a sequence that is *not* an append
//! of the cached one, detected by hashing the new sequence's first
//! `L_old` symbols against the cached hash) is a typed
//! [`MineError::CacheMismatch`]. [`mine_incremental`] records either
//! fault and falls back to a cold mine — it never serves a wrong or
//! partial pattern set.
//!
//! ## The delta merge
//!
//! For an append of `d ≥ 1` symbols under a rigid gap, the re-mine
//! replays the level-wise engine's exact loop (same `BoundTable`
//! thresholds, same break conditions, same candidate join) but computes
//! supports without touching the old region:
//!
//! - **window deltas**: for each level `l`, walk the ≤ `d` chains
//!   ending in the appended window — `O(d·l)` work independent of `L`;
//! - **merged supports**: a candidate whose join parents were both kept
//!   by the *old* mine was either evaluated then (its support is in the
//!   cached map) or had zero support (absent), so
//!   `sup_new = sup_old + delta` with no scan at all;
//! - **suspect scans**: a candidate with a newly-kept ("riser") parent
//!   may have old-region chains the cache never counted, so it gets an
//!   exact full-sequence chain scan. Risers need a window delta, so
//!   there are at most `d` per level; a deterministic work budget
//!   (`max(1 M, 16·L)` symbol comparisons) converts pathological cases
//!   into a cold fall-back instead of a slow "fast" path.
//!
//! Everything the replay cannot prove equivalent falls back cold:
//! flexible gaps (`W > 1`, where an append extends *old* chains and
//! per-offset counts change), an `n`/`e_m` estimate that drifted with
//! the sequence, a saturated cached run, or a blown suspect budget. The differential battery in
//! `tests/prop_incremental.rs` proves every path bit-identical to a
//! cold mine.

use crate::counts::OffsetCounts;
use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::lambda::BoundTable;
use crate::mpp::{check_inputs, clamp_n, mine, mine_recording, Algorithm, MppConfig, SEED_LEVEL};
use crate::pattern::Pattern;
use crate::result::{FrequentPattern, LevelStats, MineOutcome, MineStats};
use crate::trace::{
    CompleteEvent, EmEvent, Event, LevelEvent, MineObserver, SeedEvent, WarningEvent,
};
use crate::wire::{fnv1a, fnv1a_extend, Frame, Reader, WireError, Writer, FNV_OFFSET};
use perigap_math::BigRatio;
use perigap_seq::Sequence;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn cache_err(message: String) -> MineError {
    MineError::CacheIo { message }
}

fn mismatch(field: &'static str, cached: impl ToString, requested: impl ToString) -> MineError {
    MineError::CacheMismatch {
        field,
        cached: cached.to_string(),
        requested: requested.to_string(),
    }
}

// ---------------------------------------------------------------------
// Diff types.
// ---------------------------------------------------------------------

/// How one pattern's membership changed between the cached baseline and
/// the fresh result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKind {
    /// Frequent now, absent from the baseline.
    New,
    /// In the baseline, no longer frequent.
    Dropped,
    /// Frequent in both with a different support.
    Changed,
}

impl DiffKind {
    /// The JSONL discriminator (`"new"` / `"dropped"` / `"changed"`).
    pub fn label(&self) -> &'static str {
        match self {
            DiffKind::New => "new",
            DiffKind::Dropped => "dropped",
            DiffKind::Changed => "changed",
        }
    }
}

/// One pattern's baseline-vs-now delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffEntry {
    /// The pattern's symbol codes.
    pub codes: Vec<u8>,
    /// What happened to it.
    pub kind: DiffKind,
    /// Baseline support (`None` for [`DiffKind::New`]).
    pub old_support: Option<u128>,
    /// Fresh support (`None` for [`DiffKind::Dropped`]).
    pub new_support: Option<u128>,
}

/// Rollup of a baseline diff — what [`crate::trace::Event::Diff`] carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Patterns frequent now but not in the baseline.
    pub new: usize,
    /// Baseline patterns no longer frequent.
    pub dropped: usize,
    /// Patterns in both with a different support.
    pub changed: usize,
    /// Patterns in both at the same support.
    pub unchanged: usize,
}

/// A full baseline diff: per-pattern entries (new first, then dropped,
/// then changed, each in baseline/result order) plus the rollup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BaselineDiff {
    /// The per-pattern deltas (unchanged patterns are not listed).
    pub entries: Vec<DiffEntry>,
    /// The rollup.
    pub stats: DiffStats,
}

/// Which path [`mine_incremental`] took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IncrementalMode {
    /// No usable cache existed (missing file, corruption, or key
    /// mismatch — see [`IncrementalOutcome::cache_fault`]): mined cold.
    Cold,
    /// A valid cache matched, but equivalence could not be guaranteed
    /// (the contained reason says why): mined cold.
    ColdFallback(String),
    /// The sequence is byte-identical to the cached one: served the
    /// cached outcome without mining.
    Cached,
    /// The rigid-gap delta merge ran; the contained value is the number
    /// of appended symbols.
    Incremental(usize),
}

impl IncrementalMode {
    /// Stable machine-readable label (`"cold"` / `"cold-fallback"` /
    /// `"cached"` / `"incremental"`).
    pub fn label(&self) -> &'static str {
        match self {
            IncrementalMode::Cold => "cold",
            IncrementalMode::ColdFallback(_) => "cold-fallback",
            IncrementalMode::Cached => "cached",
            IncrementalMode::Incremental(_) => "incremental",
        }
    }
}

/// What an incremental mine produced beyond the plain outcome.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The mined result — bit-identical to a cold mine of the full
    /// sequence on every path.
    pub outcome: MineOutcome,
    /// The path taken.
    pub mode: IncrementalMode,
    /// The typed fault that invalidated the cache, when one did
    /// ([`IncrementalMode::Cold`] with a fault means "corrupt or
    /// mismatched cache, recovered by mining cold").
    pub cache_fault: Option<MineError>,
    /// Exact chain scans charged to riser-parent candidates (0 on
    /// every path but [`IncrementalMode::Incremental`]).
    pub suspect_scans: u64,
    /// The diff against the cached baseline, when a readable baseline
    /// existed.
    pub diff: Option<BaselineDiff>,
}

// ---------------------------------------------------------------------
// The cache record.
// ---------------------------------------------------------------------

/// The identity a cache record is addressed by. Two requests with equal
/// keys are guaranteed (by the engine-equivalence tests) to mine the
/// same outcome from the same sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// FNV-1a hash of the sequence's symbol codes.
    pub seq_hash: u64,
    /// Sequence length in symbols.
    pub seq_len: usize,
    /// Alphabet size σ.
    pub sigma: u32,
    /// Gap requirement `[N, M]`.
    pub gap: (usize, usize),
    /// Exact bits of the `ρ` the mine was invoked with.
    pub rho_bits: u64,
    /// 0 = MPP, 1 = MPPm.
    pub algorithm: u8,
    /// `n` (MPP) or `m` (MPPm).
    pub param: u64,
    /// `MppConfig::max_level` (`None` ⇒ mine to `l2`).
    pub max_level: Option<usize>,
}

/// One cached frequent pattern (codes, exact support, bit-exact ratio).
#[derive(Clone, Debug, PartialEq)]
pub struct CachedPattern {
    /// Symbol codes.
    pub codes: Vec<u8>,
    /// `sup(P)`.
    pub support: u128,
    /// `f64::to_bits` of the reported ratio.
    pub ratio_bits: u64,
}

/// One level's evaluated-candidate map: every candidate the engine
/// evaluated at this level with non-zero support, with that support.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedLevel {
    /// Pattern length at this level.
    pub level: usize,
    /// `(codes, support)` in lexicographic code order.
    pub candidates: Vec<(Vec<u8>, u128)>,
}

/// A decoded result-cache record.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultCache {
    /// The addressing key.
    pub key: CacheKey,
    /// The `n` the cached run actually mined toward.
    pub n_used: usize,
    /// The cached run's `e_m` (MPPm only).
    pub em: Option<u64>,
    /// The cached run's saturation flag.
    pub support_saturated: bool,
    /// The cached outcome in emission order.
    pub outcome: Vec<CachedPattern>,
    /// Per-level evaluated-candidate maps — present only for rigid-gap
    /// runs, where the delta merge can use them.
    pub levels: Option<Vec<CachedLevel>>,
}

fn encode_cache(cache: &ResultCache) -> Vec<u8> {
    let mut w = Writer::new(Frame::RESULT_CACHE);
    let k = &cache.key;
    w.u64(k.seq_hash);
    w.u64(k.seq_len as u64);
    w.u32(k.sigma);
    w.u32(k.gap.0 as u32);
    w.u32(k.gap.1 as u32);
    w.u64(k.rho_bits);
    w.u8(k.algorithm);
    w.u64(k.param);
    // The prune byte: only full mines are cached.
    w.u8(0);
    // The start-level field: every mine seeds at the same level.
    w.u32(SEED_LEVEL as u32);
    w.u64(k.max_level.map_or(u64::MAX, |l| l as u64));
    w.u64(cache.n_used as u64);
    w.u64(cache.em.unwrap_or(u64::MAX));
    w.u8(cache.support_saturated as u8);
    w.u64(cache.outcome.len() as u64);
    for p in &cache.outcome {
        w.u32(p.codes.len() as u32);
        w.bytes(&p.codes);
        w.u128(p.support);
        w.u64(p.ratio_bits);
    }
    match &cache.levels {
        None => w.u8(0),
        Some(levels) => {
            w.u8(1);
            w.u32(levels.len() as u32);
            for lv in levels {
                w.u32(lv.level as u32);
                w.u64(lv.candidates.len() as u64);
                for (codes, sup) in &lv.candidates {
                    // All codes at one level share its length.
                    w.bytes(codes);
                    w.u128(*sup);
                }
            }
        }
    }
    w.finish()
}

fn decode_cache(bytes: &[u8]) -> Result<ResultCache, MineError> {
    read_cache(bytes).map_err(|e| cache_err(e.to_string()))
}

fn read_cache(bytes: &[u8]) -> Result<ResultCache, WireError> {
    let mut r = Reader::new(bytes, Frame::RESULT_CACHE)?;
    r.section("cache key");
    let seq_hash = r.u64()?;
    let seq_len =
        usize::try_from(r.u64()?).map_err(|_| WireError::Corrupt("seq_len overflow".into()))?;
    let sigma = r.u32()?;
    let gap_min = r.u32()? as usize;
    let gap_max = r.u32()? as usize;
    if gap_min > gap_max {
        return Err(WireError::Corrupt(format!(
            "invalid gap [{gap_min}, {gap_max}]"
        )));
    }
    let rho_bits = r.u64()?;
    let algorithm = r.u8()?;
    if algorithm > 1 {
        return Err(WireError::Corrupt(format!(
            "unknown algorithm id {algorithm}"
        )));
    }
    let param = r.u64()?;
    let prune = r.u8()?;
    if prune != 0 {
        return Err(WireError::Corrupt(format!("unknown prune flag {prune}")));
    }
    let seed_level = r.u32()?;
    if seed_level != SEED_LEVEL as u32 {
        return Err(WireError::Corrupt(format!(
            "seed level {seed_level}: every mine seeds at {SEED_LEVEL}"
        )));
    }
    let max_level = match r.u64()? {
        u64::MAX => None,
        l => Some(usize::try_from(l).map_err(|_| WireError::Corrupt("max_level overflow".into()))?),
    };
    r.section("outcome");
    let n_used =
        usize::try_from(r.u64()?).map_err(|_| WireError::Corrupt("n_used overflow".into()))?;
    let em = match r.u64()? {
        u64::MAX => None,
        e => Some(e),
    };
    let support_saturated = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(WireError::Corrupt(format!("bad saturation flag {other}"))),
    };
    // Each outcome pattern takes at least 29 bytes (length, one code,
    // support, ratio), each level header 12, each candidate its codes
    // and a support.
    let pattern_count = r.u64()?;
    let pattern_count = r.count("pattern count", pattern_count, 29)?;
    let mut outcome: Vec<CachedPattern> = Vec::with_capacity(pattern_count);
    for _ in 0..pattern_count {
        let len = r.u32()? as usize;
        if len == 0 {
            return Err(WireError::Corrupt("empty pattern in outcome".into()));
        }
        let codes = r.bytes(len)?;
        if codes.iter().any(|&c| c as u32 >= sigma) {
            return Err(WireError::Corrupt(
                "pattern code outside the alphabet".into(),
            ));
        }
        // Unpruned mines (the only ones cached) emit in strictly
        // ascending (length, codes) order; a repeated pattern would
        // otherwise count twice wherever the outcome is merged.
        if let Some(prev) = outcome.last() {
            if (prev.codes.len(), prev.codes.as_slice()) >= (codes.len(), codes) {
                return Err(WireError::Corrupt(
                    "outcome patterns out of (length, codes) order".into(),
                ));
            }
        }
        let support = r.u128()?;
        if support == 0 {
            return Err(WireError::Corrupt("zero-support pattern in outcome".into()));
        }
        let ratio_bits = r.u64()?;
        outcome.push(CachedPattern {
            codes: codes.to_vec(),
            support,
            ratio_bits,
        });
    }
    r.section("level maps");
    let levels = match r.u8()? {
        0 => None,
        1 => {
            let level_count = r.u32()?;
            let level_count = r.count("level count", level_count.into(), 12)?;
            let mut levels = Vec::with_capacity(level_count);
            let mut prev_level = 0usize;
            for _ in 0..level_count {
                let level = r.u32()? as usize;
                if level == 0 || level <= prev_level {
                    return Err(WireError::Corrupt(format!(
                        "level {level} out of order after {prev_level}"
                    )));
                }
                prev_level = level;
                let count = r.u64()?;
                let count = r.count("candidate count", count, level.saturating_add(16))?;
                let mut candidates: Vec<(Vec<u8>, u128)> = Vec::with_capacity(count);
                for _ in 0..count {
                    let codes = r.bytes(level)?;
                    if codes.iter().any(|&c| c as u32 >= sigma) {
                        return Err(WireError::Corrupt(
                            "candidate code outside the alphabet".into(),
                        ));
                    }
                    if candidates
                        .last()
                        .is_some_and(|(p, _)| p.as_slice() >= codes)
                    {
                        return Err(WireError::Corrupt(format!(
                            "candidates out of order at level {level}"
                        )));
                    }
                    let sup = r.u128()?;
                    if sup == 0 {
                        return Err(WireError::Corrupt(format!(
                            "zero-support candidate at level {level}"
                        )));
                    }
                    candidates.push((codes.to_vec(), sup));
                }
                levels.push(CachedLevel { level, candidates });
            }
            Some(levels)
        }
        other => return Err(WireError::Corrupt(format!("bad level-map flag {other}"))),
    };
    r.finish()?;
    Ok(ResultCache {
        key: CacheKey {
            seq_hash,
            seq_len,
            sigma,
            gap: (gap_min, gap_max),
            rho_bits,
            algorithm,
            param,
            max_level,
        },
        n_used,
        em,
        support_saturated,
        outcome,
        levels,
    })
}

/// Load and fully validate a result-cache record. Every failure mode is
/// a typed [`MineError::CacheIo`] — including a missing file; callers
/// that treat "no cache yet" as a non-fault (as [`mine_incremental`]
/// does) should check for the path's existence first.
pub fn load_result_cache(path: &Path) -> Result<ResultCache, MineError> {
    let bytes =
        std::fs::read(path).map_err(|e| cache_err(format!("reading {}: {e}", path.display())))?;
    decode_cache(&bytes)
}

/// Atomically persist a result-cache record: encode, write to a unique
/// sibling tmp file, rename over `path`.
///
/// Deliberately no fsync: a record torn by power loss fails the
/// checksum on the next load, surfaces as a typed [`MineError::CacheIo`]
/// and is recovered by a cold mine — the cache never needs to be
/// durable, only never-wrong, and the fsync would otherwise dominate
/// the whole incremental path. The tmp+rename still guarantees a
/// concurrent reader sees either the old record or the new one whole.
pub fn write_result_cache(path: &Path, cache: &ResultCache) -> Result<(), MineError> {
    let bytes = encode_cache(cache);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let stem = path
        .file_name()
        .ok_or_else(|| cache_err(format!("{} has no file name", path.display())))?;
    // Unique per call, not just per process: concurrent writers in one
    // process (e.g. two serve queries on one cache path) must not share
    // a tmp file.
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp_name = format!(
        "{}.{:08x}.{seq}.tmp",
        stem.to_string_lossy(),
        std::process::id()
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let write = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(cache_err(format!("writing {}: {e}", path.display())));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Key construction and checking.
// ---------------------------------------------------------------------

/// The key of a request whose sequence hashes to `seq_hash` (FNV-1a
/// of its codes).
pub(crate) fn request_key(
    seq_hash: u64,
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: Algorithm,
    config: &MppConfig,
) -> CacheKey {
    CacheKey {
        seq_hash,
        seq_len: seq.len(),
        sigma: seq.alphabet().size() as u32,
        gap: (gap.min(), gap.max()),
        rho_bits: rho.to_bits(),
        algorithm: algorithm.id(),
        param: algorithm.param() as u64,
        max_level: config.max_level,
    }
}

/// Check a cached key against the request (all but its `seq_hash`).
/// The sequence check is the append test: the cached sequence must be a
/// *prefix* of the new one, verified by hashing the new sequence's
/// first `seq_len` codes.
fn check_key(cached: &CacheKey, requested: &CacheKey, seq: &Sequence) -> Result<(), MineError> {
    if cached.sigma != requested.sigma {
        return Err(mismatch("alphabet size", cached.sigma, requested.sigma));
    }
    if cached.gap != requested.gap {
        return Err(mismatch(
            "gap requirement",
            format!("{}:{}", cached.gap.0, cached.gap.1),
            format!("{}:{}", requested.gap.0, requested.gap.1),
        ));
    }
    if cached.rho_bits != requested.rho_bits {
        return Err(mismatch(
            "support threshold",
            f64::from_bits(cached.rho_bits),
            f64::from_bits(requested.rho_bits),
        ));
    }
    if cached.algorithm != requested.algorithm {
        return Err(mismatch(
            "algorithm",
            if cached.algorithm == 0 { "mpp" } else { "mppm" },
            if requested.algorithm == 0 {
                "mpp"
            } else {
                "mppm"
            },
        ));
    }
    if cached.param != requested.param {
        return Err(mismatch("engine parameter", cached.param, requested.param));
    }
    if cached.max_level != requested.max_level {
        return Err(mismatch(
            "max level",
            format!("{:?}", cached.max_level),
            format!("{:?}", requested.max_level),
        ));
    }
    if cached.seq_len > seq.len() {
        return Err(mismatch(
            "sequence length",
            cached.seq_len,
            format!("{} (shorter — not an append)", seq.len()),
        ));
    }
    let prefix_hash = fnv1a(&seq.codes()[..cached.seq_len]);
    if prefix_hash != cached.seq_hash {
        return Err(mismatch(
            "sequence prefix hash",
            format!("{:#018x}", cached.seq_hash),
            format!("{prefix_hash:#018x} (not an append of the cached sequence)"),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Diffing.
// ---------------------------------------------------------------------

/// Diff a cached baseline against a fresh result set (both in emission
/// order).
fn compute_diff(baseline: &[CachedPattern], fresh: &[FrequentPattern]) -> BaselineDiff {
    let old: HashMap<&[u8], u128> = baseline
        .iter()
        .map(|p| (p.codes.as_slice(), p.support))
        .collect();
    let new: HashMap<&[u8], u128> = fresh
        .iter()
        .map(|p| (p.pattern.codes(), p.support))
        .collect();
    let mut diff = BaselineDiff::default();
    for p in fresh {
        if !old.contains_key(p.pattern.codes()) {
            diff.stats.new += 1;
            diff.entries.push(DiffEntry {
                codes: p.pattern.codes().to_vec(),
                kind: DiffKind::New,
                old_support: None,
                new_support: Some(p.support),
            });
        }
    }
    for p in baseline {
        if !new.contains_key(p.codes.as_slice()) {
            diff.stats.dropped += 1;
            diff.entries.push(DiffEntry {
                codes: p.codes.clone(),
                kind: DiffKind::Dropped,
                old_support: Some(p.support),
                new_support: None,
            });
        }
    }
    for p in fresh {
        if let Some(&old_sup) = old.get(p.pattern.codes()) {
            if old_sup != p.support {
                diff.stats.changed += 1;
                diff.entries.push(DiffEntry {
                    codes: p.pattern.codes().to_vec(),
                    kind: DiffKind::Changed,
                    old_support: Some(old_sup),
                    new_support: Some(p.support),
                });
            } else {
                diff.stats.unchanged += 1;
            }
        }
    }
    diff
}

// ---------------------------------------------------------------------
// Rigid-gap chain arithmetic.
// ---------------------------------------------------------------------

/// The cascade replays the level-wise engine over rigid-gap chains.
/// With `W == 1` every admissible step is exactly `s = N + 1`, so the
/// length-`l` chain ending at 1-based position `e` visits
/// `e − (l−1)·s, …, e − s, e` and exists iff `e ≥ (l−1)·s + 1`.
struct RigidChains<'a> {
    codes: &'a [u8],
    stride: usize,
}

impl<'a> RigidChains<'a> {
    fn new(seq: &'a Sequence, gap: GapRequirement) -> RigidChains<'a> {
        debug_assert_eq!(gap.flexibility(), 1);
        RigidChains {
            codes: seq.codes(),
            stride: gap.min_step(),
        }
    }

    /// First admissible 1-based end position of a length-`level` chain.
    fn first_end(&self, level: usize) -> usize {
        (level - 1) * self.stride + 1
    }

    /// The pattern read by the chain ending at 1-based `end` (buffer
    /// reuse: `out` is cleared and filled).
    fn read_chain(&self, level: usize, end: usize, out: &mut Vec<u8>) {
        out.clear();
        let mut pos = end - (level - 1) * self.stride;
        for _ in 0..level {
            out.push(self.codes[pos - 1]);
            pos += self.stride;
        }
    }

    /// Per-pattern chain counts over ends in `lo ..= hi` (1-based,
    /// callers clamp `lo` to [`RigidChains::first_end`]).
    ///
    /// Runs of *adjacent equal chains* are collapsed before touching
    /// the map — in periodicity-rich regions (the data this miner is
    /// for) consecutive ends read the same pattern, so most ends cost
    /// one short memcmp instead of a map probe, and a pattern is only
    /// materialised once per run.
    fn window_deltas(&self, level: usize, lo: usize, hi: usize) -> BTreeMap<Vec<u8>, u128> {
        let mut deltas: BTreeMap<Vec<u8>, u128> = BTreeMap::new();
        let mut buf = Vec::with_capacity(level);
        let mut run: Vec<u8> = Vec::with_capacity(level);
        let mut run_count = 0u128;
        for end in lo..=hi {
            let chain: &[u8] = if self.stride == 1 {
                &self.codes[end - level..end]
            } else {
                self.read_chain(level, end, &mut buf);
                &buf
            };
            if run_count > 0 && chain == run.as_slice() {
                run_count += 1;
                continue;
            }
            if run_count > 0 {
                *deltas.entry(std::mem::take(&mut run)).or_insert(0) += run_count;
            }
            run.clear();
            run.extend_from_slice(chain);
            run_count = 1;
        }
        if run_count > 0 {
            *deltas.entry(run).or_insert(0) += run_count;
        }
        deltas
    }

    /// Next-level window counts for the join, which only ever probes
    /// the map: at stride 1 a chain is the plain subslice
    /// `codes[end-level..end]`, so the keys borrow straight out of the
    /// sequence and no pattern is materialised at all. Wider strides
    /// fall back to the owned map.
    ///
    /// `out` is refilled in place. The cascade threads one map through
    /// every level, so its table is allocated once, not once per level.
    fn window_counts(&self, level: usize, lo: usize, hi: usize, out: &mut WindowCounts<'a>) {
        if self.stride != 1 {
            *out = WindowCounts::Owned(self.window_deltas(level, lo, hi));
            return;
        }
        if !matches!(out, WindowCounts::Slices(_)) {
            *out = WindowCounts::Slices(HashMap::with_capacity_and_hasher(64, FnvBuild));
        }
        let WindowCounts::Slices(counts) = out else {
            unreachable!("set to the slice map just above")
        };
        counts.clear();
        // Uniform chains (`c^level`) — the bulk of any periodic region —
        // are recognised from the equal-symbol run ending at the chain's
        // end and tallied per symbol; only non-uniform chains pay for a
        // hash. The run is counted back from `lo − 1` at most `level`
        // symbols (all the test needs), then kept up to date as the
        // walk moves right, so the cost follows the window, not `L`.
        let codes = self.codes;
        let mut uniform = [0u128; 256];
        let mut uniform_end = [0usize; 256];
        let last = codes[lo - 1];
        let mut run = 1 + codes[lo - level..lo - 1]
            .iter()
            .rev()
            .take_while(|&&c| c == last)
            .count();
        for end in lo..=hi {
            if end > lo {
                run = if codes[end - 1] == codes[end - 2] {
                    run + 1
                } else {
                    1
                };
            }
            if run >= level {
                let c = codes[end - 1] as usize;
                uniform[c] += 1;
                uniform_end[c] = end;
            } else {
                *counts.entry(&codes[end - level..end]).or_insert(0) += 1;
            }
        }
        for (c, &n) in uniform.iter().enumerate() {
            if n > 0 {
                let end = uniform_end[c];
                *counts.entry(&self.codes[end - level..end]).or_insert(0) += n;
            }
        }
    }

    /// Exact support of `codes` by direct scan, with early exit per
    /// chain and one probe per candidate end charged against `budget`
    /// up front (the early exit makes that the cost's true order).
    /// `Err(())` means the budget ran dry.
    fn scan_support(&self, codes: &[u8], budget: &mut u64) -> Result<u128, ()> {
        let level = codes.len();
        let first = self.first_end(level);
        if self.codes.len() < first {
            return Ok(0);
        }
        let ends = (self.codes.len() - first + 1) as u64;
        if *budget < ends {
            *budget = 0;
            return Err(());
        }
        *budget -= ends;
        let span = (level - 1) * self.stride;
        let c0 = codes[0];
        let mut sup = 0u128;
        for start in 0..self.codes.len() - span {
            if self.codes[start] != c0 {
                continue;
            }
            if codes[1..]
                .iter()
                .enumerate()
                .all(|(i, &c)| self.codes[start + (i + 1) * self.stride] == c)
            {
                sup += 1;
            }
        }
        Ok(sup)
    }
}

/// FNV-1a as a `HashMap` hasher: window maps key on short code slices,
/// where SipHash's per-call setup dominates. The maps are transient and
/// never fed attacker-chosen keys, so HashDoS hardening buys nothing.
#[derive(Clone, Copy, Default)]
struct FnvBuild;

struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_extend(self.0, bytes);
    }
}

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = FnvHasher;
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(FNV_OFFSET)
    }
}

/// Per-pattern chain counts for one level's window, behind one `get`.
enum WindowCounts<'a> {
    /// Stride 1: keys are subslices of the sequence itself.
    Slices(HashMap<&'a [u8], u128, FnvBuild>),
    /// Wider strides: chains are gathered, so keys are owned.
    Owned(BTreeMap<Vec<u8>, u128>),
}

impl WindowCounts<'_> {
    /// Drop every count, keeping the allocation.
    fn clear(&mut self) {
        match self {
            WindowCounts::Slices(m) => m.clear(),
            WindowCounts::Owned(m) => m.clear(),
        }
    }

    fn get(&self, codes: &[u8]) -> u128 {
        match self {
            WindowCounts::Slices(m) => m.get(codes).copied().unwrap_or(0),
            WindowCounts::Owned(m) => m.get(codes).copied().unwrap_or(0),
        }
    }
}

// ---------------------------------------------------------------------
// The cascade: the level-wise loop replayed over merged supports.
// ---------------------------------------------------------------------

/// Why the cascade could not finish on the fast path.
enum CascadeBail {
    /// The suspect-scan budget ran dry.
    Budget,
}

struct CascadeResult {
    outcome: MineOutcome,
    levels: Vec<CachedLevel>,
    suspect_scans: u64,
}

/// Replay MPP's level-wise loop (Figure 3) over rigid-gap chains with
/// supports merged from `old` (the cached per-level candidate maps)
/// plus window deltas. With `old` `None` the window is the whole
/// sequence and every support is counted from scratch: that rebuild
/// mode is the test oracle for the level maps a cold mine records, and
/// no production path takes it. The thresholds, break conditions and
/// per-level counts mirror the engine's exactly, and the frequent set
/// comes out in the engine's sorted order; the equivalence argument
/// lives in DESIGN.md §16 and is enforced by `tests/prop_incremental.rs`.
#[allow(clippy::too_many_arguments)]
fn cascade(
    seq: &Sequence,
    gap: GapRequirement,
    rho_exact: &BigRatio,
    n_used: usize,
    config: &MppConfig,
    old: Option<&ResultCache>,
    old_len: usize,
    emit: &mut dyn FnMut(usize, &LevelStats, usize),
) -> Result<CascadeResult, CascadeBail> {
    let chains = RigidChains::new(seq, gap);
    let counts = OffsetCounts::new(seq.len(), gap);
    let mut bounds = BoundTable::new(&counts, rho_exact, n_used);
    // The old mine's thresholds, used to recompute which cached
    // candidates it *kept* (the cache stores supports; keep/frequent
    // membership is derived, so the record stays engine-shaped).
    let counts_old = OffsetCounts::new(old_len, gap);
    let mut bounds_old = BoundTable::new(&counts_old, rho_exact, n_used);
    let old_levels: HashMap<usize, &CachedLevel> = old
        .and_then(|c| c.levels.as_ref())
        .map(|ls| ls.iter().map(|l| (l.level, l)).collect())
        .unwrap_or_default();

    let start = SEED_LEVEL;
    let hard_cap = config.max_level.unwrap_or(usize::MAX).min(counts.l2());
    let sigma = seq.alphabet().size() as u128;
    let mut suspect_budget: u64 = 1_000_000u64.max(16 * seq.len() as u64);
    let mut suspect_scans = 0u64;

    let mut stats = MineStats {
        n_used,
        ..MineStats::default()
    };
    let mut frequent: Vec<FrequentPattern> = Vec::new();
    let mut out_levels: Vec<CachedLevel> = Vec::new();

    // Seed: the old seed map (every non-zero start-level pattern of the
    // old sequence) merged with the window chains. BTreeMap keeps the
    // lexicographic order the engine's sorted seed has.
    let mut seed: BTreeMap<Vec<u8>, u128> = BTreeMap::new();
    if let Some(lv) = old_levels.get(&start) {
        for (codes, sup) in &lv.candidates {
            seed.insert(codes.clone(), *sup);
        }
    }
    let first = chains.first_end(start);
    if seq.len() >= first {
        let lo = first.max(old_len + 1);
        if lo <= seq.len() {
            for (codes, d) in chains.window_deltas(start, lo, seq.len()) {
                *seed.entry(codes).or_insert(0) += d;
            }
        }
    }
    // Past the seed, every level is a lexicographically sorted vec: the
    // join below emits products in lex order, so no tree is needed and
    // the per-candidate cost stays a push.
    let mut current: Vec<(Vec<u8>, u128)> = seed.into_iter().collect();

    let mut level = start;
    let mut candidates_at_level: u128 = sigma.saturating_pow(start as u32);
    // The next level's window counts, refilled level by level.
    let mut deltas_next = WindowCounts::Owned(BTreeMap::new());

    while level <= hard_cap {
        let level_started = Instant::now();
        if counts.n(level).is_zero() {
            break;
        }
        let row = bounds.row(level).clone();
        let mut kept: Vec<&Vec<u8>> = Vec::new();
        let mut frequent_here = 0usize;
        for (codes, sup) in current.iter() {
            let sup = *sup;
            if row.exact.admits_u128(sup) {
                frequent.push(FrequentPattern {
                    pattern: Pattern::from_codes(codes.clone()),
                    support: sup,
                    ratio: sup as f64 / row.n_f64,
                });
                frequent_here += 1;
            }
            if row.lhat.admits_u128(sup) {
                kept.push(codes);
            }
        }
        let evaluated = current.len();
        let level_stats = LevelStats {
            level,
            candidates: candidates_at_level,
            frequent: frequent_here,
            extended: kept.len(),
            elapsed: level_started.elapsed(),
        };
        emit(evaluated, &level_stats, kept.len());
        stats.levels.push(level_stats);
        if kept.is_empty() || level == hard_cap {
            out_levels.push(CachedLevel {
                level,
                candidates: current,
            });
            break;
        }

        // Which of this level's candidates the *old* mine kept — the
        // parents whose join products the cached next level covers.
        let old_kept: HashSet<&[u8]> = match old_levels.get(&level) {
            Some(lv) if old_len > 0 => {
                let old_lhat = &bounds_old.row(level).lhat;
                lv.candidates
                    .iter()
                    .filter(|(_, sup)| old_lhat.admits_u128(*sup))
                    .map(|(codes, _)| codes.as_slice())
                    .collect()
            }
            _ => HashSet::new(),
        };
        let old_next: HashMap<&[u8], u128> = match old_levels.get(&(level + 1)) {
            Some(lv) => lv
                .candidates
                .iter()
                .map(|(codes, sup)| (codes.as_slice(), *sup))
                .collect(),
            None => HashMap::new(),
        };
        deltas_next.clear();
        let first = chains.first_end(level + 1);
        if seq.len() >= first {
            let lo = first.max(old_len + 1);
            if lo <= seq.len() {
                chains.window_counts(level + 1, lo, seq.len(), &mut deltas_next);
            }
        }

        // Gen(L̂): suffix(P1) = prefix(P2) joins over the kept set. The
        // kept list is lexicographically sorted, so iterating it as the
        // left parent and scanning its suffix-matched block emits
        // products in lexicographic order — the same order the engine's
        // run-detection join produces, which is why `next` can be a
        // plain push-ordered vec. Product codes are assembled in a
        // scratch buffer and only cloned into `next` when the support
        // is non-zero.
        let mut prefixes: HashSet<&[u8]> = HashSet::with_capacity(kept.len());
        for codes in &kept {
            prefixes.insert(&codes[..level - 1]);
        }
        let mut next: Vec<(Vec<u8>, u128)> = Vec::new();
        let mut codes = Vec::with_capacity(level + 1);
        for a in &kept {
            if !prefixes.contains(&a[1..]) {
                continue;
            }
            let a_old = old_len > 0 && old_kept.contains(a.as_slice());
            // Every kept b with prefix(b) = suffix(a) contributes the
            // candidate a ++ last(b); enumerate b through the sorted
            // kept list lazily via binary search bounds.
            let lo = kept.partition_point(|k| k.as_slice() < &a[1..]);
            for b in &kept[lo..] {
                if b[..level - 1] != a[1..] {
                    break;
                }
                codes.clear();
                codes.extend_from_slice(a);
                codes.push(b[level - 1]);
                let sup = if old_len == 0 {
                    // Rebuild (the test oracle): the window is the
                    // whole sequence, so the delta *is* the support.
                    deltas_next.get(&codes)
                } else if a_old && old_kept.contains(b.as_slice()) {
                    // Both parents kept by the old mine ⇒ the old
                    // engine evaluated this join; absence from the
                    // cached map means zero old support.
                    old_next.get(codes.as_slice()).copied().unwrap_or(0) + deltas_next.get(&codes)
                } else {
                    // A riser parent: the old region may hold chains
                    // the cache never counted. Exact scan, budgeted.
                    suspect_scans += 1;
                    match chains.scan_support(&codes, &mut suspect_budget) {
                        Ok(sup) => sup,
                        Err(()) => return Err(CascadeBail::Budget),
                    }
                };
                if sup > 0 {
                    next.push((codes.clone(), sup));
                }
            }
        }

        candidates_at_level = next.len() as u128;
        out_levels.push(CachedLevel {
            level,
            candidates: current,
        });
        if next.is_empty() {
            break;
        }
        current = next;
        level += 1;
    }

    let outcome = MineOutcome { frequent, stats };
    Ok(CascadeResult {
        outcome,
        levels: out_levels,
        suspect_scans,
    })
}

// ---------------------------------------------------------------------
// Observer adapters.
// ---------------------------------------------------------------------

/// Forwards every event except the terminal [`CompleteEvent`], which it
/// holds back so [`mine_incremental`] can slot the diff event in before
/// the summary (the trace schema requires `summary` to be last).
struct DeferComplete<'a, O: MineObserver> {
    inner: &'a mut O,
    complete: Option<CompleteEvent>,
}

impl<O: MineObserver> MineObserver for DeferComplete<'_, O> {
    fn on(&mut self, event: Event<'_>) {
        match event {
            Event::Complete(e) => self.complete = Some(e.clone()),
            other => self.inner.on(other),
        }
    }
}

// ---------------------------------------------------------------------
// The entry point.
// ---------------------------------------------------------------------

/// The `n` the level-wise engine will actually mine toward, given the
/// request — MPP clamps the user's `n`, MPPm estimates it from the new
/// sequence (so a drifted estimate is *detected*, not assumed away).
fn resolve_n_used(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: Algorithm,
    config: &MppConfig,
) -> Result<(usize, Option<u64>, Duration), MineError> {
    let (n, em, em_elapsed) = match algorithm {
        Algorithm::Mpp { n } => (n, None, Duration::ZERO),
        Algorithm::Mppm { m } => {
            let em_started = Instant::now();
            let (n_est, em) = crate::mppm::estimate_n(seq, gap, rho, m, config.clone())?;
            (n_est, Some(em), em_started.elapsed())
        }
    };
    Ok((clamp_n(n, gap.l1(seq.len())), em, em_elapsed))
}

fn cached_outcome(cache: &ResultCache) -> MineOutcome {
    let frequent: Vec<FrequentPattern> = cache
        .outcome
        .iter()
        .map(|p| FrequentPattern {
            pattern: Pattern::from_codes(p.codes.clone()),
            support: p.support,
            ratio: f64::from_bits(p.ratio_bits),
        })
        .collect();
    // Synthetic per-length level groups, so traces of a cache hit stay
    // schema-valid (`summary.frequent` must equal the level-event sum).
    // Like the spill counters, `levels` here describes the serving
    // path, not the original engine schedule.
    let mut levels: Vec<LevelStats> = Vec::new();
    for p in &frequent {
        let l = p.len();
        match levels.last_mut() {
            Some(last) if last.level == l => {
                last.frequent += 1;
                last.candidates += 1;
            }
            _ => levels.push(LevelStats {
                level: l,
                candidates: 1,
                frequent: 1,
                extended: 0,
                elapsed: Duration::ZERO,
            }),
        }
    }
    MineOutcome {
        frequent,
        stats: MineStats {
            levels,
            n_used: cache.n_used,
            em: cache.em,
            support_saturated: cache.support_saturated,
            ..MineStats::default()
        },
    }
}

/// Decide whether the fast path applies to a valid, matching cache;
/// `Err` carries the human-readable fall-back reason.
fn fast_path_eligible(cache: &ResultCache, gap: GapRequirement) -> Result<(), String> {
    if gap.flexibility() != 1 {
        return Err(format!(
            "flexible gap (W = {} > 1): appends extend old-region chains",
            gap.flexibility()
        ));
    }
    if cache.support_saturated {
        return Err("cached run saturated its support counters".into());
    }
    if cache.levels.is_none() {
        return Err("cache record carries no per-level candidate maps".into());
    }
    Ok(())
}

/// Mine `seq` with the cache at `cache_path` consulted and refreshed:
/// serve the cached outcome when the sequence is unchanged, delta-merge
/// when it grew under a rigid gap, mine cold otherwise — and in every
/// case leave a fresh cache behind and report the outcome bit-identical
/// to a cold mine. See the module docs for the full decision table.
///
/// The settings [`MppConfig::check`] refuses fail with
/// [`MineError::InvalidConfig`].
pub fn mine_incremental<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: Algorithm,
    config: &MppConfig,
    cache_path: &Path,
    observer: &mut O,
) -> Result<IncrementalOutcome, MineError> {
    config.check()?;
    // The sequence hash is filled in once the cache is read: an append
    // extends the hash of the prefix the append check has verified.
    let mut requested = request_key(0, seq, gap, rho, algorithm, config);

    // Read phase: a missing file is the expected first run, not a
    // fault; everything else wrong with the record is.
    let mut cache_fault: Option<MineError> = None;
    let cache: Option<ResultCache> = if cache_path.exists() {
        match load_result_cache(cache_path).and_then(|c| {
            check_key(&c.key, &requested, seq)?;
            Ok(c)
        }) {
            Ok(c) => Some(c),
            Err(fault) => {
                observer.on(Event::Warning(&WarningEvent {
                    kind: "cache-fault".into(),
                    message: fault.to_string(),
                }));
                cache_fault = Some(fault);
                None
            }
        }
    } else {
        None
    };
    let (hashed, state) = cache
        .as_ref()
        .map_or((0, FNV_OFFSET), |c| (c.key.seq_len, c.key.seq_hash));
    requested.seq_hash = fnv1a_extend(state, &seq.codes()[hashed..]);

    match cache {
        None => {
            // Cold: no usable cache. Mine, then seed the cache.
            let mut defer = DeferComplete {
                inner: observer,
                complete: None,
            };
            let (outcome, levels) = mine_cold(seq, gap, rho, algorithm, config, &mut defer)?;
            let complete = defer.complete.take();
            if let Some(c) = complete {
                observer.on(Event::Complete(&c));
            }
            let record = build_cache_record(&requested, &outcome, levels)?;
            write_result_cache(cache_path, &record)?;
            Ok(IncrementalOutcome {
                outcome,
                mode: IncrementalMode::Cold,
                cache_fault,
                suspect_scans: 0,
                diff: None,
            })
        }
        Some(cache) => {
            let appended = seq.len() - cache.key.seq_len;
            if appended == 0 {
                let started = Instant::now();
                let mut outcome = cached_outcome(&cache);
                outcome.stats.total_elapsed = started.elapsed();
                emit_synthetic_trace(&outcome, observer);
                let diff = compute_diff(&cache.outcome, &outcome.frequent);
                observer.on(Event::Diff(&diff.stats));
                observer.on(Event::Complete(&CompleteEvent::from_outcome(&outcome)));
                return Ok(IncrementalOutcome {
                    outcome,
                    mode: IncrementalMode::Cached,
                    cache_fault: None,
                    suspect_scans: 0,
                    diff: Some(diff),
                });
            }

            let fast = fast_path_eligible(&cache, gap).and_then(|()| {
                // The replay reproduces n-dependent thresholds, so the
                // new mine must target the same n the cache recorded.
                match resolve_n_used(seq, gap, rho, algorithm, config) {
                    Ok((n_new, em_new, em_elapsed)) => {
                        if n_new != cache.n_used {
                            Err(format!(
                                "n drifted with the append (cached {}, now {})",
                                cache.n_used, n_new
                            ))
                        } else {
                            Ok((n_new, em_new, em_elapsed))
                        }
                    }
                    Err(e) => Err(format!("re-estimating n failed: {e}")),
                }
            });

            match fast {
                Err(reason) => mine_cold_fallback(
                    seq, gap, rho, algorithm, config, cache_path, &requested, &cache, reason,
                    observer,
                ),
                Ok((n_used, em, em_elapsed)) => {
                    let started = Instant::now();
                    let rho_exact = BigRatio::from_f64_exact(rho);
                    // Validate exactly like the engine would, without
                    // paying for the offset-count table the cascade
                    // builds itself.
                    check_inputs(seq, gap, rho, config)?;
                    let mut seeded = false;
                    let mut emit = |evaluated: usize, stats: &LevelStats, kept: usize| {
                        if !seeded {
                            seeded = true;
                            if let Some(em) = em {
                                observer.on(Event::Em(&EmEvent {
                                    m: algorithm.param(),
                                    em,
                                    elapsed: em_elapsed,
                                }));
                            }
                            observer.on(Event::Seed(&SeedEvent {
                                level: SEED_LEVEL,
                                patterns: evaluated,
                                ..SeedEvent::default()
                            }));
                        }
                        observer.on(Event::Level(&LevelEvent {
                            level: stats.level,
                            candidates: stats.candidates,
                            evaluated,
                            frequent: stats.frequent,
                            kept,
                            pruned_bound: evaluated - kept,
                            pruned_support: evaluated - stats.frequent,
                            elapsed: stats.elapsed,
                            ..LevelEvent::default()
                        }));
                    };
                    let run = cascade(
                        seq,
                        gap,
                        &rho_exact,
                        n_used,
                        config,
                        Some(&cache),
                        cache.key.seq_len,
                        &mut emit,
                    );
                    match run {
                        Err(CascadeBail::Budget) => mine_cold_fallback(
                            seq,
                            gap,
                            rho,
                            algorithm,
                            config,
                            cache_path,
                            &requested,
                            &cache,
                            "suspect-scan budget exhausted".into(),
                            observer,
                        ),
                        Ok(mut run) => {
                            run.outcome.stats.em = em;
                            run.outcome.stats.em_elapsed = em_elapsed;
                            run.outcome.stats.total_elapsed = started.elapsed();
                            let diff = compute_diff(&cache.outcome, &run.outcome.frequent);
                            observer.on(Event::Diff(&diff.stats));
                            observer
                                .on(Event::Complete(&CompleteEvent::from_outcome(&run.outcome)));
                            let record = ResultCache {
                                key: requested,
                                n_used,
                                em,
                                support_saturated: false,
                                outcome: outcome_to_cached(&run.outcome),
                                levels: Some(run.levels),
                            };
                            write_result_cache(cache_path, &record)?;
                            Ok(IncrementalOutcome {
                                outcome: run.outcome,
                                mode: IncrementalMode::Incremental(appended),
                                cache_fault: None,
                                suspect_scans: run.suspect_scans,
                                diff: Some(diff),
                            })
                        }
                    }
                }
            }
        }
    }
}

/// Cold mine with a valid baseline in hand: diff against it, refresh
/// the cache, report the fall-back reason.
#[allow(clippy::too_many_arguments)]
fn mine_cold_fallback<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: Algorithm,
    config: &MppConfig,
    cache_path: &Path,
    requested: &CacheKey,
    cache: &ResultCache,
    reason: String,
    observer: &mut O,
) -> Result<IncrementalOutcome, MineError> {
    let mut defer = DeferComplete {
        inner: observer,
        complete: None,
    };
    let (outcome, levels) = mine_cold(seq, gap, rho, algorithm, config, &mut defer)?;
    let complete = defer.complete.take();
    let diff = compute_diff(&cache.outcome, &outcome.frequent);
    observer.on(Event::Diff(&diff.stats));
    if let Some(c) = complete {
        observer.on(Event::Complete(&c));
    }
    let record = build_cache_record(requested, &outcome, levels)?;
    write_result_cache(cache_path, &record)?;
    Ok(IncrementalOutcome {
        outcome,
        mode: IncrementalMode::ColdFallback(reason),
        cache_fault: None,
        suspect_scans: 0,
        diff: Some(diff),
    })
}

pub(crate) fn outcome_to_cached(outcome: &MineOutcome) -> Vec<CachedPattern> {
    outcome
        .frequent
        .iter()
        .map(|p| CachedPattern {
            codes: p.pattern.codes().to_vec(),
            support: p.support,
            ratio_bits: p.ratio.to_bits(),
        })
        .collect()
}

/// The cold mine behind every record this module writes. Under a rigid
/// gap the engine records the level maps the delta merge reads while it
/// mines (`mpp::mine_recording`); a flexible gap never takes the merge,
/// so its mine records nothing.
fn mine_cold<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    algorithm: Algorithm,
    config: &MppConfig,
    observer: &mut O,
) -> Result<(MineOutcome, Option<Vec<CachedLevel>>), MineError> {
    if gap.flexibility() == 1 {
        let (outcome, levels) = mine_recording(seq, gap, rho, algorithm, config, observer)?;
        Ok((outcome, Some(levels)))
    } else {
        Ok((mine(seq, gap, rho, algorithm, config, observer)?, None))
    }
}

/// Build the record a cold mine leaves behind from its outcome and the
/// level maps the engine recorded ([`mine_cold`]); a flexible-gap or
/// saturated run caches the outcome only. The maps are held to the
/// outcome first: every frequent pattern must sit in its recorded level
/// with the same support. A record that disagreed with its own outcome
/// would poison every later merge, so a mismatch fails as
/// [`MineError::CacheIo`] and no record is written.
fn build_cache_record(
    key: &CacheKey,
    outcome: &MineOutcome,
    levels: Option<Vec<CachedLevel>>,
) -> Result<ResultCache, MineError> {
    let levels = levels.filter(|_| !outcome.stats.support_saturated);
    if let Some(levels) = &levels {
        for p in &outcome.frequent {
            let codes = p.pattern.codes();
            let recorded = levels
                .iter()
                .find(|lv| lv.level == codes.len())
                .and_then(|lv| {
                    let i = lv
                        .candidates
                        .binary_search_by(|(c, _)| c.as_slice().cmp(codes))
                        .ok()?;
                    Some(lv.candidates[i].1)
                });
            if recorded != Some(p.support) {
                return Err(cache_err(format!(
                    "the recorded level maps disagree with the engine outcome \
                     (a length-{} pattern of support {})",
                    codes.len(),
                    p.support
                )));
            }
        }
    }
    Ok(ResultCache {
        key: key.clone(),
        n_used: outcome.stats.n_used,
        em: outcome.stats.em,
        support_saturated: outcome.stats.support_saturated,
        outcome: outcome_to_cached(outcome),
        levels,
    })
}

/// Emit the seed + level events a cache-served outcome synthesises (the
/// summary is emitted by the caller after the diff).
fn emit_synthetic_trace<O: MineObserver>(outcome: &MineOutcome, observer: &mut O) {
    observer.on(Event::Seed(&SeedEvent {
        level: SEED_LEVEL,
        ..SeedEvent::default()
    }));
    for l in &outcome.stats.levels {
        observer.on(Event::Level(&LevelEvent {
            level: l.level,
            candidates: l.candidates,
            evaluated: l.frequent,
            frequent: l.frequent,
            kept: l.extended,
            pruned_bound: l.frequent - l.extended,
            ..LevelEvent::default()
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpp::mpp;
    use crate::spill::MemSpillIo;
    use crate::trace::NoopObserver;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn dna(text: &str) -> Sequence {
        Sequence::dna(text).unwrap()
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pgcache-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.pgrc");
        let _ = std::fs::remove_file(&path);
        path
    }

    fn assert_same(a: &MineOutcome, b: &MineOutcome) {
        assert_eq!(a.frequent.len(), b.frequent.len(), "pattern count");
        for (x, y) in a.frequent.iter().zip(b.frequent.iter()) {
            assert_eq!(x.pattern, y.pattern);
            assert_eq!(x.support, y.support);
            assert_eq!(x.ratio.to_bits(), y.ratio.to_bits(), "{:?}", x.pattern);
        }
        assert_eq!(a.stats.support_saturated, b.stats.support_saturated);
    }

    fn run(
        seq: &Sequence,
        gap: GapRequirement,
        rho: f64,
        n: usize,
        path: &Path,
    ) -> IncrementalOutcome {
        mine_incremental(
            seq,
            gap,
            rho,
            Algorithm::Mpp { n },
            &MppConfig::default(),
            path,
            &mut NoopObserver,
        )
        .unwrap()
    }

    /// A record with an `e_m` and one level map.
    fn fixed_cache() -> ResultCache {
        ResultCache {
            key: CacheKey {
                seq_hash: 0xdead_beef,
                seq_len: 1000,
                sigma: 4,
                gap: (2, 2),
                rho_bits: 0.01f64.to_bits(),
                algorithm: 1,
                param: 5,
                max_level: Some(9),
            },
            n_used: 7,
            em: Some(3),
            support_saturated: false,
            outcome: vec![CachedPattern {
                codes: vec![0, 1, 2],
                support: 17,
                ratio_bits: 0.5f64.to_bits(),
            }],
            levels: Some(vec![CachedLevel {
                level: 3,
                candidates: vec![(vec![0, 1, 2], 17), (vec![0, 1, 3], 2)],
            }]),
        }
    }

    #[test]
    fn roundtrip_cache_record() {
        let cache = fixed_cache();
        let decoded = decode_cache(&encode_cache(&cache)).unwrap();
        assert_eq!(decoded, cache);
    }

    /// Byte length and FNV-1a digest of two fixed records, one with
    /// level maps and one without: any drift in the format fails here.
    #[test]
    fn cache_format_is_pinned() {
        let with_levels = encode_cache(&fixed_cache());
        assert_eq!(
            (with_levels.len(), fnv1a(&with_levels)),
            (186, 0x7c3b_f292_9789_723d)
        );
        let without = encode_cache(&ResultCache {
            key: CacheKey {
                algorithm: 0,
                max_level: None,
                ..fixed_cache().key
            },
            em: None,
            support_saturated: true,
            levels: None,
            ..fixed_cache()
        });
        assert_eq!(
            (without.len(), fnv1a(&without)),
            (132, 0x58ea_5238_cf54_3ec4)
        );
    }

    #[test]
    fn incremental_append_matches_cold_and_diffs() {
        // A base with a strong ACG signal, appended with more of it
        // plus noise.
        let base = "ACGTT".repeat(120);
        let full = format!("{base}{}", "ACGGT".repeat(8));
        let gap = GapRequirement::new(1, 1).unwrap();
        let (rho, n) = (0.01, 6);
        let path = tmp_path("append");

        let first = run(&dna(&base), gap, rho, n, &path);
        assert_eq!(first.mode, IncrementalMode::Cold);
        assert!(first.cache_fault.is_none() && first.diff.is_none());

        let full_seq = dna(&full);
        let second = run(&full_seq, gap, rho, n, &path);
        assert_eq!(
            second.mode,
            IncrementalMode::Incremental(full_seq.len() - base.len())
        );
        let cold = mpp(&full_seq, gap, rho, n, MppConfig::default()).unwrap();
        assert_same(&second.outcome, &cold);
        let diff = second.diff.expect("baseline existed");
        assert_eq!(
            diff.stats.new + diff.stats.changed + diff.stats.unchanged,
            cold.frequent.len(),
            "every fresh pattern is new, changed, or unchanged"
        );
        assert_eq!(
            diff.stats.dropped + diff.stats.changed + diff.stats.unchanged,
            first.outcome.frequent.len(),
            "every baseline pattern is dropped, changed, or unchanged"
        );
        assert!(
            diff.stats.changed + diff.stats.new + diff.stats.dropped > 0,
            "the appended signal must move something"
        );
    }

    #[test]
    fn appends_key_their_record_by_the_whole_sequence() {
        // A delta run's key extends the cached prefix's hash over the
        // tail: it must be the hash of the whole sequence, or the next
        // append would read as a mismatch and mine cold.
        let gap = GapRequirement::new(0, 0).unwrap();
        let path = tmp_path("chained");
        let mut text = "ACGTT".repeat(60);
        run(&dna(&text), gap, 0.01, 5, &path);
        for tail in ["GGGGACGTT", "TTTTTGGGA"] {
            text.push_str(tail);
            let seq = dna(&text);
            let out = run(&seq, gap, 0.01, 5, &path);
            assert_eq!(out.mode, IncrementalMode::Incremental(tail.len()), "{tail}");
            let key = load_result_cache(&path).unwrap().key;
            assert_eq!(key.seq_len, seq.len());
            assert_eq!(key.seq_hash, fnv1a(seq.codes()));
        }
    }

    #[test]
    fn unchanged_sequence_serves_cached_outcome() {
        let text = "ACGTT".repeat(100);
        let gap = GapRequirement::new(0, 0).unwrap();
        let path = tmp_path("cached");
        let seq = dna(&text);
        let first = run(&seq, gap, 0.01, 5, &path);
        let second = run(&seq, gap, 0.01, 5, &path);
        assert_eq!(second.mode, IncrementalMode::Cached);
        assert_same(&second.outcome, &first.outcome);
        let diff = second.diff.unwrap();
        assert_eq!(diff.stats.new + diff.stats.dropped + diff.stats.changed, 0);
        assert_eq!(diff.stats.unchanged, first.outcome.frequent.len());
    }

    /// The straddle case the window math must get right: with a rigid
    /// gap of stride `s = M + 1`, a level-`l` chain ending just past
    /// the boundary reaches back exactly `(l−1)·s` positions into the
    /// old region. A one-symbol append therefore creates chains built
    /// almost entirely from old symbols — the delta walk must read
    /// them.
    #[test]
    fn boundary_straddle_at_exact_lookback() {
        let gap = GapRequirement::new(2, 2).unwrap(); // stride 3
        let stride = gap.min_step();
        // Base engineered so appending one 'A' completes one extra
        // chain of "AAA" ending at the appended position: plant A's at
        // the two look-back positions.
        let mut codes = vec![1u8; 60]; // all C
        let end = 61usize; // the appended position (1-based)
        codes.push(0); // placeholder, replaced by the append below
        for back in 1..=2usize {
            codes[end - 1 - back * stride] = 0; // A at e−s, e−2s
        }
        let alphabet = perigap_seq::Alphabet::Dna;
        let base = Sequence::from_codes(alphabet.clone(), codes[..60].to_vec()).unwrap();
        let full = Sequence::from_codes(alphabet, codes).unwrap();
        let (rho, n) = (1e-6, 4);
        let path = tmp_path("straddle");

        let first = run(&base, gap, rho, n, &path);
        let aaa = Pattern::from_codes(vec![0, 0, 0]);
        let before = first.outcome.get(&aaa).map(|p| p.support).unwrap_or(0);
        let second = run(&full, gap, rho, n, &path);
        assert_eq!(second.mode, IncrementalMode::Incremental(1));
        let after = second.outcome.get(&aaa).expect("AAA must appear").support;
        assert_eq!(after, before + 1, "exactly the straddling chain is gained");
        let cold = mpp(&full, gap, rho, n, MppConfig::default()).unwrap();
        assert_same(&second.outcome, &cold);
    }

    /// `ρ·N_l` rises as the sequence grows, so a pattern whose support
    /// does not keep up drops out, while appended occurrences push
    /// others in. Both crossings must flow through the delta merge and
    /// show up in the diff with the right kinds.
    #[test]
    fn threshold_crossings_in_both_directions() {
        let gap = GapRequirement::new(0, 0).unwrap();
        // Base: a TTT block making TTT barely frequent, on an ACG
        // carpet. Append: a long GGG block — N_3 grows (TTT's ratio
        // falls below ρ) and GGG enters.
        let base = format!("{}{}", "ACG".repeat(40), "T".repeat(9));
        let full = format!("{base}{}", "G".repeat(60));
        let rho = 0.055; // TTT: sup 7 of N_3 = 127 ≈ 0.0551 — just in.
        let path = tmp_path("crossing");
        let first = run(&dna(&base), gap, rho, 3, &path);
        let ttt = Pattern::from_codes(vec![3, 3, 3]);
        let ggg = Pattern::from_codes(vec![2, 2, 2]);
        assert!(first.outcome.get(&ttt).is_some(), "TTT frequent in base");
        assert!(first.outcome.get(&ggg).is_none(), "GGG absent in base");

        let full_seq = dna(&full);
        let second = run(&full_seq, gap, rho, 3, &path);
        assert_eq!(second.mode, IncrementalMode::Incremental(60));
        let cold = mpp(&full_seq, gap, rho, 3, MppConfig::default()).unwrap();
        assert_same(&second.outcome, &cold);
        assert!(
            second.outcome.get(&ttt).is_none(),
            "TTT must drop: support static while ρ·N_3 rose"
        );
        assert!(
            second.outcome.get(&ggg).is_some(),
            "GGG must enter on appended support"
        );
        let diff = second.diff.unwrap();
        let kinds: Vec<(Vec<u8>, DiffKind)> = diff
            .entries
            .iter()
            .map(|e| (e.codes.clone(), e.kind))
            .collect();
        assert!(kinds.contains(&(vec![3, 3, 3], DiffKind::Dropped)));
        assert!(kinds.contains(&(vec![2, 2, 2], DiffKind::New)));
    }

    #[test]
    fn flexible_gap_always_falls_back_cold() {
        let gap = GapRequirement::new(0, 1).unwrap();
        let base = "ACGTT".repeat(80);
        let full = format!("{base}ACGTTACGTT");
        let path = tmp_path("flexible");
        let first = run(&dna(&base), gap, 0.01, 5, &path);
        assert_eq!(first.mode, IncrementalMode::Cold);
        let second = run(&dna(&full), gap, 0.01, 5, &path);
        match &second.mode {
            IncrementalMode::ColdFallback(reason) => {
                assert!(reason.contains("flexible gap"), "{reason}");
            }
            other => panic!("expected cold fall-back, got {other:?}"),
        }
        let cold = mpp(&dna(&full), gap, 0.01, 5, MppConfig::default()).unwrap();
        assert_same(&second.outcome, &cold);
        assert!(second.diff.is_some(), "a valid baseline still diffs");
    }

    #[test]
    fn non_append_sequence_is_a_typed_mismatch_then_cold() {
        let gap = GapRequirement::new(1, 1).unwrap();
        let path = tmp_path("mismatch");
        run(&dna(&"ACGTT".repeat(80)), gap, 0.01, 5, &path);
        // Same length prefix, different content: not an append.
        let other = dna(&"TTGCA".repeat(90));
        let second = run(&other, gap, 0.01, 5, &path);
        assert_eq!(second.mode, IncrementalMode::Cold);
        match second.cache_fault {
            Some(MineError::CacheMismatch { field, .. }) => {
                assert_eq!(field, "sequence prefix hash");
            }
            other => panic!("expected CacheMismatch, got {other:?}"),
        }
        let cold = mpp(&other, gap, 0.01, 5, MppConfig::default()).unwrap();
        assert_same(&second.outcome, &cold);
    }

    /// The record the whole-sequence cascade replay builds: the
    /// engine's `n_used`, `e_m` and saturation flag, and the replay's
    /// own outcome and level maps.
    fn replayed_record(
        seq: &Sequence,
        gap: GapRequirement,
        rho: f64,
        algorithm: Algorithm,
        config: &MppConfig,
    ) -> ResultCache {
        let engine = mine(seq, gap, rho, algorithm, config, &mut NoopObserver).unwrap();
        let rho_exact = BigRatio::from_f64_exact(rho);
        let Ok(run) = cascade(
            seq,
            gap,
            &rho_exact,
            engine.stats.n_used,
            config,
            None,
            0,
            &mut |_, _, _| {},
        ) else {
            panic!("the rebuild scans no suspects, so it has no budget to exhaust")
        };
        ResultCache {
            key: request_key(fnv1a(seq.codes()), seq, gap, rho, algorithm, config),
            n_used: engine.stats.n_used,
            em: engine.stats.em,
            support_saturated: engine.stats.support_saturated,
            outcome: outcome_to_cached(&run.outcome),
            levels: Some(run.levels),
        }
    }

    /// Hold the encoded record a cold mine writes, from the level maps
    /// the engine recorded, to the replay's, byte for byte, and return
    /// the engine's outcome.
    fn assert_recorded_matches_replay(
        seq: &Sequence,
        gap: GapRequirement,
        rho: f64,
        algorithm: Algorithm,
        config: &MppConfig,
    ) -> MineOutcome {
        let key = request_key(fnv1a(seq.codes()), seq, gap, rho, algorithm, config);
        let (outcome, levels) =
            mine_cold(seq, gap, rho, algorithm, config, &mut NoopObserver).unwrap();
        let recorded = build_cache_record(&key, &outcome, levels).unwrap();
        let replayed = replayed_record(seq, gap, rho, algorithm, config);
        assert!(recorded.levels.as_ref().is_some_and(|l| !l.is_empty()));
        if encode_cache(&recorded) != encode_cache(&replayed) {
            assert_eq!(recorded, replayed, "{algorithm:?} gap {gap} {config:?}");
            panic!("equal records encode differently");
        }
        outcome
    }

    /// A zero watermark spills at the first split; the ceiling is far
    /// above anything these inputs hold.
    fn spilling(config: MppConfig) -> MppConfig {
        MppConfig {
            max_arena_bytes: Some(1 << 30),
            spill_watermark: 0.0,
            spill: Some(Arc::new(MemSpillIo::default())),
            ..config
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The level maps a cold mine records are the ones the
        /// whole-sequence replay rebuilds: any rigid gap `N:N` with `N`
        /// in `0..4`, MPP or MPPm, on 1 or 2 threads, with or without a
        /// `max_level` cap and a spill backend. Half the cases are
        /// run-heavy: the sequence ends in a homopolymer run, as the
        /// bases of `tests/prop_incremental.rs` do.
        #[test]
        fn recorded_maps_match_the_replay(
            (mut codes, n, run, mppm, shape) in (
                proptest::collection::vec(0u8..4, 20..160),
                0usize..4,
                (any::<bool>(), 0u8..4, 1usize..24),
                any::<bool>(),
                (1usize..=2, (any::<bool>(), 3usize..8), any::<bool>()),
            )
        ) {
            let (run_heavy, symbol, length) = run;
            if run_heavy {
                codes.extend(std::iter::repeat_n(symbol, length));
            }
            let (threads, (capped, cap), spill) = shape;
            let max_level = capped.then_some(cap);
            let seq = Sequence::from_codes(perigap_seq::Alphabet::Dna, codes).unwrap();
            let gap = GapRequirement::new(n, n).unwrap();
            let algorithm = if mppm {
                Algorithm::Mppm { m: 2 }
            } else {
                Algorithm::Mpp { n: 5 }
            };
            let mut config = MppConfig {
                threads,
                max_level,
                ..MppConfig::default()
            };
            if spill {
                config = spilling(config);
            }
            assert_recorded_matches_replay(&seq, gap, 0.03, algorithm, &config);
        }
    }

    #[test]
    fn a_spilled_mine_records_the_replayed_maps() {
        // A and T never join under gap 1:1, so the survivors split at
        // the seed and each component spills.
        let seq = dna(&"AT".repeat(50));
        let gap = GapRequirement::new(1, 1).unwrap();
        for threads in [1, 2] {
            let config = spilling(MppConfig {
                threads,
                ..MppConfig::default()
            });
            let outcome =
                assert_recorded_matches_replay(&seq, gap, 0.4, Algorithm::Mpp { n: 20 }, &config);
            assert!(outcome.stats.spilled_records >= 2, "{threads} threads");
        }
    }

    #[test]
    fn maps_that_disagree_with_the_outcome_are_refused() {
        let seq = dna(&"ACGTT".repeat(60));
        let gap = GapRequirement::new(0, 0).unwrap();
        let (rho, algorithm, config) = (0.01, Algorithm::Mpp { n: 5 }, MppConfig::default());
        let key = request_key(fnv1a(seq.codes()), &seq, gap, rho, algorithm, &config);
        let (outcome, levels) =
            mine_cold(&seq, gap, rho, algorithm, &config, &mut NoopObserver).unwrap();
        let levels = levels.expect("a rigid gap records its maps");
        let frequent = outcome.frequent.last().expect("the fixture has patterns");
        let codes = frequent.pattern.codes();
        let l = levels.iter().position(|l| l.level == codes.len()).unwrap();
        let i = levels[l]
            .candidates
            .iter()
            .position(|(c, _)| c == codes)
            .unwrap();
        let mut bumped = levels.clone();
        bumped[l].candidates[i].1 += 1;
        let mut dropped = levels.clone();
        dropped[l].candidates.remove(i);
        for broken in [bumped, dropped] {
            match build_cache_record(&key, &outcome, Some(broken)) {
                Err(MineError::CacheIo { message }) => {
                    assert!(message.contains("disagree"), "{message}");
                }
                other => panic!("expected CacheIo, got {other:?}"),
            }
        }
        assert!(build_cache_record(&key, &outcome, Some(levels)).is_ok());
    }

    #[test]
    fn shrunk_sequence_is_a_typed_mismatch() {
        let gap = GapRequirement::new(1, 1).unwrap();
        let path = tmp_path("shrunk");
        run(&dna(&"ACGTT".repeat(80)), gap, 0.01, 5, &path);
        let shorter = dna(&"ACGTT".repeat(40));
        let second = run(&shorter, gap, 0.01, 5, &path);
        match second.cache_fault {
            Some(MineError::CacheMismatch { field, .. }) => {
                assert_eq!(field, "sequence length");
            }
            other => panic!("expected CacheMismatch, got {other:?}"),
        }
    }
}
