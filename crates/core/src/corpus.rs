//! Corpus-scale sharded mining: a packed corpus file, per-sequence
//! shard fan-out on the work-stealing pool, and per-shard checkpoints.
//!
//! [`multiseq::mine_collection`](crate::multiseq::mine_collection)
//! walks every sequence of a collection level by level over in-RAM
//! `Vec`s. That is faithful to the paper's MPP-M formulation but does
//! not scale to a corpus: N worker threads would hold N heap copies of
//! the input, and a killed long mine restarts from zero. This module
//! is the bridge from "one sequence in RAM" to "corpus under a memory
//! cap that survives a kill":
//!
//! 1. **The `PGCO` corpus file** packs every sequence at
//!    [`bits_per_symbol`] width, `⌈log₂ σ⌉` (2 bits/symbol for
//!    DNA, 5 for protein), behind one offset/ID directory and a
//!    trailing FNV-1a hash, framed by the one record codec
//!    ([`crate::wire`]). [`Corpus::open`] reads it into one heap
//!    buffer (it reads every byte anyway, to check the hash), and the
//!    pool shares that one `Arc<Corpus>` instead of per-thread copies;
//!    each worker decodes only the shard it actually mines.
//! 2. **Sharded mining** ([`mine_corpus`]) turns each sequence into a
//!    unit of work fanned out on the existing
//!    [`parallel`](crate::parallel) work-stealing pool,
//!    longest-shards-first so the straggler tail overlaps the small
//!    shards. Emission inside the engine is *exact* (a pattern is
//!    emitted iff the exact per-level bound admits it, and the λ̂
//!    schedule is sound), so per-shard frequent sets merge into the
//!    collection outcome bit-identically to `mine_collection`: a
//!    pattern is collection-frequent iff it is frequent in at least
//!    `min_sequences` shards, and per-sequence supports for the
//!    remaining shards are recounted exactly, sharing PIL join chains
//!    across patterns with a common suffix.
//! 3. **Checkpoints** are result-cache records
//!    ([`incremental`](crate::incremental)): each shard is a
//!    standalone MPP mine, so its record is keyed like any other
//!    (shard sequence hash and length, σ, gap, ρ bits, `n`, level
//!    window) and written atomically as `shard-{i:08}.pgrc`. Each pool
//!    job restores its shard when the record decodes under that key,
//!    and otherwise mines it and rewrites the record. A record that
//!    does not decode or carries another key is a counted, recovered
//!    fault; the merge never sees a record it could not verify.

use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::incremental::{
    load_result_cache, outcome_to_cached, request_key, write_result_cache, CachedPattern,
    ResultCache,
};
use crate::mpp::{check_rho, Algorithm, MppConfig, SEED_LEVEL};
use crate::multiseq::{check_min_sequences, CollectionOutcome, CollectionPattern};
use crate::naive::support_dp;
use crate::parallel::{PoolHooks, PoolJob, WorkerPool};
use crate::pattern::Pattern;
use crate::pil::Pil;
use crate::result::{CorpusStats, MineOutcome};
use crate::spill::ScopedSpillIo;
use crate::trace::NoopObserver;
use crate::wire::{Frame, Reader, WireError, Writer};
use perigap_seq::{bits_per_symbol, pack_codes, packed_len, unpack_codes, Alphabet, Sequence};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const ALPHABET_DNA: u8 = 0;
const ALPHABET_PROTEIN: u8 = 1;

fn corpus_err(message: impl Into<String>) -> MineError {
    MineError::CorpusIo {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// The corpus file
// ---------------------------------------------------------------------

/// One sequence's entry in the corpus directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    /// Sequence name (the FASTA record id at pack time).
    pub name: String,
    /// Sequence length in symbols.
    pub len: usize,
    /// Absolute byte offset of the packed payload inside the file.
    offset: usize,
}

/// An opened `PGCO` corpus: the whole file read into one buffer, with
/// its directory validated.
///
/// File layout, all integers little-endian:
///
/// ```text
/// "PGCO" | u32 version | u8 alphabet | u8 bits | u32 count
/// count × ( u32 name_len | name | u64 symbols | u64 payload_offset )
/// count × packed payload (bit stream, byte-aligned per sequence)
/// u64 FNV-1a over everything above   ← the "corpus hash"
/// ```
///
/// The file is one [`crate::wire`] frame ([`Frame::CORPUS`]). On open
/// the sequence count is checked against the bytes that remain, the bit
/// width must match the [`bits_per_symbol`] width of
/// the alphabet, payload offsets must tile the payload region exactly,
/// and the hash is checked last — anything else is
/// [`MineError::CorpusIo`].
pub struct Corpus {
    bytes: Vec<u8>,
    alphabet: Alphabet,
    bits: u32,
    entries: Vec<ShardEntry>,
    hash: u64,
}

impl std::fmt::Debug for Corpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Corpus")
            .field("alphabet", &self.alphabet)
            .field("bits", &self.bits)
            .field("sequences", &self.entries.len())
            .field("hash", &format_args!("{:#018x}", self.hash))
            .finish()
    }
}

impl Corpus {
    /// Pack `sequences` (all over one alphabet — DNA or protein) into
    /// a corpus file at `path`, written atomically (tmp + rename).
    /// Returns the corpus hash the file trails with.
    pub fn write(path: &Path, sequences: &[(String, Sequence)]) -> Result<u64, MineError> {
        if sequences.is_empty() {
            return Err(corpus_err("a corpus needs at least one sequence"));
        }
        let alphabet = sequences[0].1.alphabet().clone();
        let tag = match alphabet {
            Alphabet::Dna => ALPHABET_DNA,
            Alphabet::Protein => ALPHABET_PROTEIN,
            Alphabet::Custom(_) => {
                return Err(corpus_err(
                    "corpus files support the DNA and protein alphabets only",
                ))
            }
        };
        if sequences.len() > u32::MAX as usize {
            return Err(corpus_err("too many sequences for one corpus"));
        }
        let bits = bits_per_symbol(alphabet.size());
        let mut w = Writer::new(Frame::CORPUS);
        w.u8(tag);
        w.u8(bits as u8);
        w.u32(sequences.len() as u32);
        let dir_bytes: usize = sequences
            .iter()
            .map(|(name, _)| 4 + name.len() + 8 + 8)
            .sum();
        let payload_start = w.position() + dir_bytes;
        let mut offset = payload_start;
        for (name, seq) in sequences {
            if seq.alphabet() != &alphabet {
                return Err(corpus_err(format!(
                    "sequence {name:?} uses a different alphabet than the first sequence"
                )));
            }
            if name.len() > u32::MAX as usize {
                return Err(corpus_err(format!("sequence name of {} bytes", name.len())));
            }
            w.u32(name.len() as u32);
            w.bytes(name.as_bytes());
            w.u64(seq.len() as u64);
            w.u64(offset as u64);
            offset += packed_len(seq.len(), bits);
        }
        debug_assert_eq!(w.position(), payload_start);
        for (_, seq) in sequences {
            w.bytes(&pack_codes(seq.codes(), bits));
        }
        let buf = w.finish();
        let hash = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8-byte trailer"));
        let tmp = path.with_extension("pgco.tmp");
        fs::write(&tmp, &buf)
            .map_err(|e| corpus_err(format!("cannot write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, path)
            .map_err(|e| corpus_err(format!("cannot rename into {}: {e}", path.display())))?;
        Ok(hash)
    }

    /// Open a corpus: read the whole file into one buffer and validate
    /// the header, directory, payload tiling and trailing hash. The
    /// buffer is private, so a later change to the file (a truncation
    /// or an in-place overwrite) cannot reach a shard decode.
    pub fn open(path: &Path) -> Result<Corpus, MineError> {
        let bytes = fs::read(path)
            .map_err(|e| corpus_err(format!("cannot read {}: {e}", path.display())))?;
        let (alphabet, bits, entries, hash) =
            read_corpus(&bytes).map_err(|e| corpus_err(e.to_string()))?;
        Ok(Corpus {
            bytes,
            alphabet,
            bits,
            entries,
            hash,
        })
    }

    /// Number of sequences (= shards).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the corpus holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The directory entry of shard `i`.
    pub fn entry(&self, i: usize) -> &ShardEntry {
        &self.entries[i]
    }

    /// The corpus alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The trailing FNV-1a hash of the whole file.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Total symbols across all sequences.
    pub fn total_symbols(&self) -> usize {
        self.entries.iter().map(|e| e.len).sum()
    }

    /// Total bytes of the file image.
    pub fn file_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Decode shard `i` into a byte-coded [`Sequence`] — the only
    /// per-shard heap copy a worker holds.
    pub fn sequence(&self, i: usize) -> Result<Sequence, MineError> {
        let entry = &self.entries[i];
        let span = packed_len(entry.len, self.bits);
        let payload = &self.bytes[entry.offset..entry.offset + span];
        let codes = unpack_codes(payload, self.bits, entry.len);
        Sequence::from_codes(self.alphabet.clone(), codes).map_err(|e| {
            corpus_err(format!(
                "shard {i} payload decodes outside the {:?} alphabet: {e}",
                self.alphabet
            ))
        })
    }
}

/// Decode a corpus image: the header, the directory, and payloads
/// that tile the bytes between the directory and the trailer exactly,
/// in order.
fn read_corpus(bytes: &[u8]) -> Result<(Alphabet, u32, Vec<ShardEntry>, u64), WireError> {
    let mut r = Reader::new(bytes, Frame::CORPUS)?;
    let alphabet = match r.u8()? {
        ALPHABET_DNA => Alphabet::Dna,
        ALPHABET_PROTEIN => Alphabet::Protein,
        other => return Err(WireError::Corrupt(format!("unknown alphabet tag {other}"))),
    };
    let bits = r.u8()? as u32;
    let expected_bits = bits_per_symbol(alphabet.size());
    if bits != expected_bits {
        return Err(WireError::Corrupt(format!(
            "bit width {bits} does not match the {expected_bits}-bit pack width of {alphabet:?}"
        )));
    }
    // Each directory entry takes at least 20 bytes.
    let count = r.u32()?;
    let count = r.count("sequence count", count.into(), 20)?;
    r.section("directory");
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let name_len = r.u32()? as usize;
        let name = std::str::from_utf8(r.bytes(name_len)?)
            .map_err(|_| WireError::Corrupt(format!("sequence {i} name is not UTF-8")))?
            .to_string();
        let len = r.u64()? as usize;
        let offset = r.u64()? as usize;
        entries.push(ShardEntry { name, len, offset });
    }
    r.section("payloads");
    for (i, entry) in entries.iter().enumerate() {
        if entry.offset != r.position() {
            return Err(WireError::Corrupt(format!(
                "sequence {i} payload offset {} does not tile the payload region \
                 (expected {})",
                entry.offset,
                r.position()
            )));
        }
        // A forged length must not wrap the span back onto the bytes
        // that are there.
        let span = entry
            .len
            .checked_mul(bits as usize)
            .map(|b| b.div_ceil(8))
            .ok_or_else(|| {
                WireError::Corrupt(format!(
                    "sequence {i} length {} overflows its payload span",
                    entry.len
                ))
            })?;
        r.bytes(span)?;
    }
    let hash = r.finish()?;
    Ok((alphabet, bits, entries, hash))
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

/// Checkpointing knobs for [`mine_corpus`].
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory for the per-shard result-cache records (created if
    /// missing). A shard whose record decodes under a matching key is
    /// restored instead of mined; any other shard is mined and its
    /// record (re)written.
    pub dir: PathBuf,
    /// Stop (with [`MineError::CorpusPaused`]) once this many shards
    /// have been mined and checkpointed this run — the deterministic
    /// stand-in for a mid-run `SIGKILL` used by benchmarks and tests.
    /// Restored shards do not count. With one thread the pause point is
    /// exact; under a parallel fan-out, in-flight shards may still
    /// complete (and if every shard was claimed before the flag rose,
    /// the run simply finishes). At least 1.
    pub stop_after_shards: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpoint into, and restore from, `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            stop_after_shards: None,
        }
    }
}

fn shard_record_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:08}.pgrc"))
}

// ---------------------------------------------------------------------
// Sharded mining
// ---------------------------------------------------------------------

/// Configuration of a sharded corpus mine.
#[derive(Clone, Debug)]
pub struct CorpusMineConfig {
    /// The pruning target `n` driving Theorem 1, clamped per shard to
    /// that shard's `l1` exactly as `mine_collection` clamps it.
    pub n: usize,
    /// A pattern is corpus-frequent when frequent in at least this
    /// many shards; at least 1.
    pub min_sequences: usize,
    /// Per-shard engine configuration (levels, arena ceiling, spill).
    /// [`MppConfig::threads`] is the width of the shard fan-out
    /// (worker 0 is the calling thread); each shard mines on one
    /// thread, since parallelism comes from the fan-out itself. When a
    /// shard spills, it spills into [`MppConfig::spill`] under its own
    /// record namespace.
    pub mpp: MppConfig,
    /// Optional checkpoint directory.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for CorpusMineConfig {
    fn default() -> CorpusMineConfig {
        CorpusMineConfig {
            n: 10,
            min_sequences: 1,
            mpp: MppConfig::default(),
            checkpoint: None,
        }
    }
}

/// Outcome of a sharded corpus mine: the merged collection outcome
/// (bit-identical to `mine_collection` over the decoded sequences)
/// plus corpus-level statistics.
#[derive(Clone, Debug, Default)]
pub struct CorpusOutcome {
    /// The merged collection-frequent patterns.
    pub outcome: CollectionOutcome,
    /// Shard/checkpoint statistics.
    pub stats: CorpusStats,
}

/// What one finished shard carries back to the merge.
struct ShardResult {
    /// The shard's own frequent patterns in (length, codes) order.
    patterns: Vec<CachedPattern>,
    /// Served from a valid checkpoint record instead of mined.
    restored: bool,
    /// A record existed but failed to decode or carried another key.
    fault: bool,
    /// Size of the record written this run, if one was.
    record_bytes: Option<u64>,
}

/// The pool job: every shard in longest-first order, claimed off one
/// atomic cursor by the pool workers plus the calling thread.
struct ShardJob {
    corpus: Arc<Corpus>,
    /// Shard indices, longest sequence first.
    order: Vec<usize>,
    cursor: AtomicUsize,
    hooks: PoolHooks,
    gap: GapRequirement,
    rho: f64,
    /// How each shard is mined: MPP at the corpus `n`, on one thread.
    algorithm: Algorithm,
    mpp: MppConfig,
    checkpoint_dir: Option<PathBuf>,
    stop_after: Option<usize>,
    /// Shards mined and checkpointed this run (drives `stop_after`).
    done: AtomicUsize,
    /// Once set, remaining claims return `None` (paused).
    stop: AtomicBool,
}

impl ShardJob {
    fn mine(&self, shard: usize, seq: &Sequence) -> Result<MineOutcome, MineError> {
        // Too short to hold a seed-level pattern: never votes, same
        // as mine_collection's skip.
        if seq.len() < self.gap.min_span(SEED_LEVEL) {
            return Ok(MineOutcome::default());
        }
        let mut config = self.mpp.clone();
        if let Some(io) = config.spill.take() {
            // Shards mine at once over one backend: each gets its own
            // record namespace (a pack holds at most `u32::MAX` shards).
            let scope = u32::try_from(shard).expect("shard index fits the pack's u32 count");
            config.spill = Some(Arc::new(ScopedSpillIo::new(io, scope)));
        }
        crate::mpp::mine(
            seq,
            self.gap,
            self.rho,
            self.algorithm,
            &config,
            &mut NoopObserver,
        )
    }

    /// Restore `shard` from its checkpoint record when the record
    /// decodes under this shard's key; otherwise mine it and, when
    /// checkpointing, write its record.
    fn restore_or_mine(&self, shard: usize) -> Result<ShardResult, MineError> {
        let seq = self.corpus.sequence(shard)?;
        let checkpoint = self.checkpoint_dir.as_ref().map(|dir| {
            let key = request_key(&seq, self.gap, self.rho, self.algorithm, &self.mpp);
            (shard_record_path(dir, shard), key)
        });
        // A missing record is simply mined; a record that does not
        // decode, or was written for other data or settings, is a
        // recovered fault.
        let mut fault = false;
        if let Some((path, key)) = &checkpoint {
            if path.exists() {
                match load_result_cache(path) {
                    Ok(record) if record.key == *key => {
                        return Ok(ShardResult {
                            patterns: record.outcome,
                            restored: true,
                            fault: false,
                            record_bytes: None,
                        })
                    }
                    _ => fault = true,
                }
            }
        }
        let outcome = self.mine(shard, &seq)?;
        let mut patterns = outcome_to_cached(&outcome);
        let mut record_bytes = None;
        if let Some((path, key)) = checkpoint {
            let record = ResultCache {
                key,
                n_used: outcome.stats.n_used,
                em: None,
                support_saturated: outcome.stats.support_saturated,
                outcome: patterns,
                levels: None,
            };
            write_result_cache(&path, &record)?;
            patterns = record.outcome;
            record_bytes = Some(fs::metadata(&path).map_or(0, |m| m.len()));
            let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
            if self.stop_after.is_some_and(|limit| done >= limit) {
                self.stop.store(true, Ordering::SeqCst);
            }
        }
        Ok(ShardResult {
            patterns,
            restored: false,
            fault,
            record_bytes,
        })
    }
}

impl PoolJob for ShardJob {
    type Out = (usize, Result<Option<ShardResult>, MineError>);

    fn n_items(&self) -> usize {
        self.order.len()
    }

    fn cursor(&self) -> &AtomicUsize {
        &self.cursor
    }

    fn hooks(&self) -> &PoolHooks {
        &self.hooks
    }

    fn progress_level(&self) -> usize {
        0
    }

    fn process(&self, item: usize) -> Self::Out {
        let shard = self.order[item];
        if self.stop.load(Ordering::SeqCst) {
            return (shard, Ok(None));
        }
        (shard, self.restore_or_mine(shard).map(Some))
    }

    fn out_weight(out: &Self::Out) -> usize {
        match &out.1 {
            Ok(Some(result)) => result.patterns.len(),
            _ => 0,
        }
    }
}

/// Mine a packed corpus, sharded per sequence: every pattern frequent
/// (ratio ≥ `rho`) in at least `config.min_sequences` shards, with
/// per-shard supports — bit-identical to
/// [`mine_collection`](crate::multiseq::mine_collection) over the
/// decoded sequences, for every thread count and checkpoint state.
/// `min_sequences` 0, `stop_after_shards` 0 and the settings
/// [`MppConfig::check`] refuses fail with [`MineError::InvalidConfig`].
pub fn mine_corpus(
    corpus: &Arc<Corpus>,
    gap: GapRequirement,
    rho: f64,
    config: &CorpusMineConfig,
) -> Result<CorpusOutcome, MineError> {
    check_rho(rho)?;
    config.mpp.check()?;
    check_min_sequences(config.min_sequences)?;
    let stop_after = config
        .checkpoint
        .as_ref()
        .and_then(|ck| ck.stop_after_shards);
    if stop_after == Some(0) {
        return Err(MineError::InvalidConfig {
            setting: "stop_after_shards",
            reason: "must be at least 1: the pause is checked after a shard's checkpoint \
                     is written, so 0 would still mine one"
                .into(),
        });
    }
    let threads = config.mpp.threads;
    let n_shards = corpus.len();
    let mut stats = CorpusStats {
        shards: n_shards,
        longest_shard: corpus.entries.iter().map(|e| e.len).max().unwrap_or(0),
        corpus_hash: corpus.hash(),
        ..CorpusStats::default()
    };
    if n_shards == 0 || config.min_sequences > n_shards {
        return Ok(CorpusOutcome {
            outcome: CollectionOutcome::default(),
            stats,
        });
    }
    if let Some(ck) = &config.checkpoint {
        fs::create_dir_all(&ck.dir).map_err(|e| MineError::CacheIo {
            message: format!("cannot create {}: {e}", ck.dir.display()),
        })?;
    }

    // Longest first: the straggler starts immediately and the small
    // shards fill the tail. Restores fan out with the mines.
    let mut order: Vec<usize> = (0..n_shards).collect();
    order.sort_by_key(|&j| (usize::MAX - corpus.entry(j).len, j));
    let job = Arc::new(ShardJob {
        corpus: Arc::clone(corpus),
        order,
        cursor: AtomicUsize::new(0),
        hooks: PoolHooks::default(),
        gap,
        rho,
        algorithm: Algorithm::Mpp { n: config.n },
        mpp: MppConfig {
            threads: 1,
            ..config.mpp.clone()
        },
        checkpoint_dir: config.checkpoint.as_ref().map(|ck| ck.dir.clone()),
        stop_after,
        done: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    });

    let outs: Vec<<ShardJob as PoolJob>::Out> = if threads >= 2 && job.n_items() >= 2 {
        WorkerPool::new(threads - 1).run(Arc::clone(&job))?.0
    } else {
        (0..job.n_items()).map(|i| job.process(i)).collect()
    };

    let mut results: Vec<Option<ShardResult>> = (0..n_shards).map(|_| None).collect();
    for (shard, result) in outs {
        let Some(result) = result? else { continue };
        if result.restored {
            stats.restored_shards += 1;
        } else {
            stats.mined_shards += 1;
        }
        if result.fault {
            stats.checkpoint_faults += 1;
        }
        if let Some(bytes) = result.record_bytes {
            stats.checkpoint_records += 1;
            stats.checkpoint_bytes += bytes;
        }
        results[shard] = Some(result);
    }
    let Some(results) = results.into_iter().collect::<Option<Vec<ShardResult>>>() else {
        return Err(MineError::CorpusPaused {
            completed: stats.restored_shards + stats.checkpoint_records as usize,
            total: n_shards,
        });
    };

    let per_shard: Vec<Vec<CachedPattern>> = results.into_iter().map(|r| r.patterns).collect();
    let outcome = merge_shards(corpus, gap, &per_shard, config.min_sequences)?;
    Ok(CorpusOutcome { outcome, stats })
}

/// Merge per-shard frequent sets into the collection outcome:
/// frequency votes from shard membership, exact supports for
/// non-frequent shards from [`recount_supports`], canonical
/// (length, codes) order — exactly what `mine_collection` emits.
fn merge_shards(
    corpus: &Corpus,
    gap: GapRequirement,
    per_shard: &[Vec<CachedPattern>],
    min_sequences: usize,
) -> Result<CollectionOutcome, MineError> {
    let n = per_shard.len();
    let mut evidence: HashMap<&[u8], Vec<(usize, u128)>> = HashMap::new();
    for (j, shard) in per_shard.iter().enumerate() {
        for p in shard {
            evidence.entry(&p.codes).or_default().push((j, p.support));
        }
    }
    let mut patterns: Vec<CollectionPattern> = evidence
        .into_iter()
        .filter(|(_, ev)| ev.len() >= min_sequences)
        .map(|(codes, ev)| {
            let mut supports = vec![0u128; n];
            // `ev` was filled in ascending shard order.
            let frequent_in: Vec<usize> = ev
                .iter()
                .map(|&(j, support)| {
                    supports[j] = support;
                    j
                })
                .collect();
            CollectionPattern {
                pattern: Pattern::from_codes(codes.to_vec()),
                frequent_in,
                supports,
            }
        })
        .collect();
    for j in 0..n {
        let missing: Vec<usize> = (0..patterns.len())
            .filter(|&i| patterns[i].frequent_in.binary_search(&j).is_err())
            .collect();
        if missing.is_empty() {
            continue;
        }
        let seq = corpus.sequence(j)?;
        let queries: Vec<&Pattern> = missing.iter().map(|&i| &patterns[i].pattern).collect();
        let supports = recount_supports(&seq, gap, &queries);
        for (i, support) in missing.into_iter().zip(supports) {
            patterns[i].supports[j] = support;
        }
    }
    patterns.sort_by(|a, b| {
        (a.pattern.len(), a.pattern.codes()).cmp(&(b.pattern.len(), b.pattern.codes()))
    });
    Ok(CollectionOutcome { patterns })
}

/// Exact supports of `patterns` in `seq`, in input order. Each support
/// is the [`Pil::join_checked`] fold of
/// [`support_via_joins`](crate::verify::support_via_joins): level-1
/// PILs joined right to left. Patterns are visited in reversed-codes
/// order with a stack of suffix PILs, so patterns that share a suffix
/// share its join chain. A chain that saturates falls back to the
/// exact [`support_dp`].
fn recount_supports(seq: &Sequence, gap: GapRequirement, patterns: &[&Pattern]) -> Vec<u128> {
    let level1: Vec<Pil> = (0..seq.alphabet().size())
        .map(|c| Pil::build_level1(seq, c as u8))
        .collect();
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (patterns[a].codes(), patterns[b].codes());
        a.iter().rev().cmp(b.iter().rev())
    });
    let mut supports = vec![0u128; patterns.len()];
    // chain[k]: the PIL of the current pattern's last k + 1 codes, and
    // whether any join on the way to it saturated.
    let mut chain: Vec<(Pil, bool)> = Vec::new();
    let mut prev: &[u8] = &[];
    for i in order {
        let codes = patterns[i].codes();
        let shared = codes
            .iter()
            .rev()
            .zip(prev.iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        chain.truncate(shared);
        for &c in codes.iter().rev().skip(shared) {
            let head = &level1[c as usize];
            let link = match chain.last() {
                None => (head.clone(), false),
                Some((suffix, saturated)) => {
                    let (pil, s) = Pil::join_checked(head, suffix, gap);
                    (pil, s || *saturated)
                }
            };
            chain.push(link);
        }
        supports[i] = match chain.last() {
            None => 0,
            Some((pil, false)) => pil.support(),
            Some((_, true)) => support_dp(seq, gap, patterns[i]),
        };
        prev = codes;
    }
    supports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiseq::mine_collection;
    use perigap_seq::gen::iid::uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    fn tmp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "perigap-corpus-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Mixed-length DNA fixture with shared repeat structure so the
    /// merged set is non-trivial at every `min_sequences`.
    fn fixture_seqs(n: usize, base_seed: u64) -> Vec<(String, Sequence)> {
        (0..n)
            .map(|i| {
                let len = 80 + 40 * i;
                let mut seq = uniform(
                    &mut StdRng::seed_from_u64(base_seed + i as u64),
                    Alphabet::Dna,
                    len,
                );
                seq.extend_from(&Sequence::dna(&"ACGTT".repeat(12)).unwrap());
                (format!("seq-{i}"), seq)
            })
            .collect()
    }

    fn write_fixture(dir: &Path, n: usize, seed: u64) -> (PathBuf, Vec<Sequence>) {
        let seqs = fixture_seqs(n, seed);
        let path = dir.join("fixture.pgco");
        Corpus::write(&path, &seqs).unwrap();
        (path, seqs.into_iter().map(|(_, s)| s).collect())
    }

    #[test]
    fn roundtrip_dna_and_protein() {
        let dir = tmp_dir("roundtrip");
        for (label, seqs) in [
            (
                "dna",
                vec![
                    ("a".to_string(), Sequence::dna("ACGTACGTACG").unwrap()),
                    ("b".to_string(), Sequence::dna("TTTT").unwrap()),
                    ("empty".to_string(), Sequence::dna("").unwrap()),
                ],
            ),
            (
                "protein",
                vec![
                    (
                        "p1".to_string(),
                        Sequence::protein("ACDEFGHIKLMNPQRSTVWY").unwrap(),
                    ),
                    ("p2".to_string(), Sequence::protein("WYWYWYW").unwrap()),
                ],
            ),
        ] {
            let path = dir.join(format!("{label}.pgco"));
            let hash = Corpus::write(&path, &seqs).unwrap();
            let corpus = Corpus::open(&path).unwrap();
            assert_eq!(corpus.hash(), hash, "{label}");
            assert_eq!(corpus.len(), seqs.len(), "{label}");
            for (i, (name, seq)) in seqs.iter().enumerate() {
                assert_eq!(&corpus.entry(i).name, name, "{label}");
                assert_eq!(corpus.entry(i).len, seq.len(), "{label}");
                assert_eq!(&corpus.sequence(i).unwrap(), seq, "{label}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncating or overwriting a pack in place (`cp new.pgco
    /// old.pgco` does both) while it is open must not reach the open
    /// corpus: every shard still decodes to the sequence that was
    /// written. A corpus that mapped the file would die here with
    /// SIGBUS.
    #[test]
    fn truncating_an_open_pack_leaves_its_shards_intact() {
        let dir = tmp_dir("truncate-open");
        let path = dir.join("open.pgco");
        let mut seqs = fixture_seqs(3, 29);
        seqs.push((
            "long".to_string(),
            uniform(&mut StdRng::seed_from_u64(31), Alphabet::Dna, 200_000),
        ));
        Corpus::write(&path, &seqs).unwrap();
        let corpus = Corpus::open(&path).unwrap();
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(0)
            .unwrap();
        for (i, (_, seq)) in seqs.iter().enumerate() {
            assert_eq!(&corpus.sequence(i).unwrap(), seq, "shard {i}");
        }
        fs::write(&path, b"PGCO overwritten in place").unwrap();
        for (i, (_, seq)) in seqs.iter().enumerate() {
            assert_eq!(&corpus.sequence(i).unwrap(), seq, "shard {i}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Byte length and FNV-1a digest of a fixed pack (DNA, names of
    /// several lengths, one empty sequence): any drift in the format
    /// fails here.
    #[test]
    fn pack_format_is_pinned() {
        let dir = tmp_dir("pinned");
        let path = dir.join("pinned.pgco");
        let seqs = [
            (
                "a".to_string(),
                Sequence::dna("ACGTACGTACGTAAGGCCTTACGT").unwrap(),
            ),
            (
                "seq-b".to_string(),
                Sequence::dna("TTGACCAGTAGGCATACGATCAG").unwrap(),
            ),
            ("".to_string(), Sequence::dna("").unwrap()),
        ];
        let hash = Corpus::write(&path, &seqs).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(
            (bytes.len(), hash, crate::wire::fnv1a(&bytes)),
            (100, 0x0285_05d2_c690_fe4f, 0x32df_0c6b_b8cf_f5fa)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_rejects_bad_inputs() {
        let dir = tmp_dir("write-rejects");
        let path = dir.join("bad.pgco");
        assert!(matches!(
            Corpus::write(&path, &[]),
            Err(MineError::CorpusIo { .. })
        ));
        let mixed = vec![
            ("a".to_string(), Sequence::dna("ACGT").unwrap()),
            ("b".to_string(), Sequence::protein("ACDE").unwrap()),
        ];
        assert!(matches!(
            Corpus::write(&path, &mixed),
            Err(MineError::CorpusIo { .. })
        ));
        let custom = vec![(
            "c".to_string(),
            Sequence::from_codes(Alphabet::custom(b"xyz").unwrap(), vec![0, 1, 2]).unwrap(),
        )];
        assert!(matches!(
            Corpus::write(&path, &custom),
            Err(MineError::CorpusIo { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let dir = tmp_dir("truncation");
        let (path, _) = write_fixture(&dir, 3, 11);
        let bytes = fs::read(&path).unwrap();
        let cut = dir.join("cut.pgco");
        for keep in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            fs::write(&cut, &bytes[..keep]).unwrap();
            match Corpus::open(&cut) {
                Err(MineError::CorpusIo { .. }) => {}
                other => panic!("keep {keep}: expected CorpusIo, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A shard length forged so that its packed span wraps back to the
    /// real payload size, behind a recomputed hash, is refused by the
    /// open instead of panicking when the shard is decoded.
    #[test]
    fn forged_length_that_wraps_the_span_is_refused() {
        let dir = tmp_dir("forged-len");
        let path = dir.join("two.pgco");
        let seqs = [
            (
                "a".to_string(),
                Sequence::dna("ACGTACGTACGTAAGGCCTTACGT").unwrap(),
            ),
            (
                "b".to_string(),
                Sequence::dna("TTGACCAGTAGGCATACGATCAGT").unwrap(),
            ),
        ];
        Corpus::write(&path, &seqs).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Shard a's u64 length follows the 14-byte header, its name
        // length and its one-byte name.
        bytes[19..27].copy_from_slice(&((1u64 << 63) + 24).to_le_bytes());
        let body = bytes.len() - 8;
        let digest = crate::wire::fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&digest.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        match Corpus::open(&path) {
            Err(MineError::CorpusIo { message }) => {
                assert!(message.contains("overflows"), "{message}")
            }
            other => panic!("expected CorpusIo, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let dir = tmp_dir("bitflip");
        let (path, _) = write_fixture(&dir, 2, 13);
        let bytes = fs::read(&path).unwrap();
        let flipped = dir.join("flipped.pgco");
        let mut positions: Vec<usize> = (0..bytes.len()).step_by(11).collect();
        positions.push(bytes.len() - 1);
        for i in positions {
            let mut copy = bytes.clone();
            copy[i] ^= 0x10;
            fs::write(&flipped, &copy).unwrap();
            match Corpus::open(&flipped) {
                Err(MineError::CorpusIo { .. }) => {}
                other => panic!("flip at {i}: expected CorpusIo, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corpus_mine_matches_collection_all_engines_and_threads() {
        let dir = tmp_dir("matches-collection");
        let (path, seqs) = write_fixture(&dir, 4, 17);
        let corpus = Arc::new(Corpus::open(&path).unwrap());
        let g = gap(1, 3);
        let rho = 0.004;
        for min_sequences in [1, 2, 4] {
            let expected =
                mine_collection(&seqs, g, rho, min_sequences, 12, MppConfig::default()).unwrap();
            for threads in [1, 3] {
                let config = CorpusMineConfig {
                    n: 12,
                    min_sequences,
                    mpp: MppConfig {
                        threads,
                        ..MppConfig::default()
                    },
                    ..CorpusMineConfig::default()
                };
                let got = mine_corpus(&corpus, g, rho, &config).unwrap();
                assert_eq!(
                    got.outcome, expected,
                    "min_sequences {min_sequences} threads {threads}"
                );
                assert_eq!(got.stats.mined_shards, 4);
                assert_eq!(got.stats.restored_shards, 0);
            }
            assert!(
                !expected.patterns.is_empty() || min_sequences == 4,
                "fixture should mine patterns at min_sequences {min_sequences}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_pause_and_resume_is_bit_identical() {
        let dir = tmp_dir("pause-resume");
        let (path, _) = write_fixture(&dir, 5, 19);
        let corpus = Arc::new(Corpus::open(&path).unwrap());
        let g = gap(0, 2);
        let rho = 0.004;
        let cold = mine_corpus(
            &corpus,
            g,
            rho,
            &CorpusMineConfig {
                n: 10,
                min_sequences: 2,
                ..CorpusMineConfig::default()
            },
        )
        .unwrap();

        for threads in [1, 3] {
            let config = |checkpoint| CorpusMineConfig {
                n: 10,
                min_sequences: 2,
                mpp: MppConfig {
                    threads,
                    ..MppConfig::default()
                },
                checkpoint: Some(checkpoint),
            };
            for stop_after in [1, 3] {
                let ckpt_dir = dir.join(format!("ckpt-{threads}-{stop_after}"));
                let pausing = CheckpointConfig {
                    dir: ckpt_dir.clone(),
                    stop_after_shards: Some(stop_after),
                };
                let paused = mine_corpus(&corpus, g, rho, &config(pausing));
                match paused {
                    Err(MineError::CorpusPaused { completed, total }) => {
                        assert!(completed >= stop_after, "checkpointed at least the quota");
                        assert!(completed < total, "pause means unfinished shards remain");
                    }
                    Ok(full) => {
                        // Parallel claims can outrun the stop flag and
                        // finish every shard; the resume below is then
                        // a pure restore. Serial pause is exact.
                        assert!(threads > 1, "serial pause must be deterministic");
                        assert_eq!(full.outcome, cold.outcome);
                    }
                    Err(other) => panic!("expected CorpusPaused, got {other:?}"),
                }
                let resuming = config(CheckpointConfig::new(ckpt_dir));
                let resumed = mine_corpus(&corpus, g, rho, &resuming).unwrap();
                assert_eq!(
                    resumed.outcome, cold.outcome,
                    "threads {threads} stop_after {stop_after}"
                );
                assert!(resumed.stats.restored_shards >= stop_after);
                assert_eq!(
                    resumed.stats.restored_shards + resumed.stats.mined_shards,
                    5
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn completed_checkpoint_resumes_as_pure_restore() {
        let dir = tmp_dir("pure-restore");
        let (path, _) = write_fixture(&dir, 3, 23);
        let corpus = Arc::new(Corpus::open(&path).unwrap());
        let g = gap(1, 2);
        let ckpt_dir = dir.join("ckpt");
        let config = CorpusMineConfig {
            n: 10,
            min_sequences: 1,
            checkpoint: Some(CheckpointConfig::new(&ckpt_dir)),
            ..CorpusMineConfig::default()
        };
        let cold = mine_corpus(&corpus, g, 0.004, &config).unwrap();
        assert_eq!(cold.stats.checkpoint_records, 3);
        assert!(cold.stats.checkpoint_bytes > 0);
        let mut files: Vec<String> = fs::read_dir(&ckpt_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(
            files,
            [
                "shard-00000000.pgrc",
                "shard-00000001.pgrc",
                "shard-00000002.pgrc"
            ]
        );
        let resumed = mine_corpus(&corpus, g, 0.004, &config).unwrap();
        assert_eq!(resumed.outcome, cold.outcome);
        assert_eq!(resumed.stats.restored_shards, 3);
        assert_eq!(resumed.stats.mined_shards, 0);
        assert_eq!(resumed.stats.checkpoint_records, 0);
        assert_eq!(resumed.stats.checkpoint_faults, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_faults_are_recovered() {
        let dir = tmp_dir("checkpoint-faults");
        let (path, _) = write_fixture(&dir, 3, 29);
        let corpus = Arc::new(Corpus::open(&path).unwrap());
        let g = gap(1, 2);
        let ckpt_dir = dir.join("ckpt");
        let config = |min_sequences: usize, checkpoint: bool| CorpusMineConfig {
            n: 10,
            min_sequences,
            checkpoint: checkpoint.then(|| CheckpointConfig::new(&ckpt_dir)),
            ..CorpusMineConfig::default()
        };
        let cold = mine_corpus(&corpus, g, 0.004, &config(1, false)).unwrap();
        mine_corpus(&corpus, g, 0.004, &config(1, true)).unwrap();

        // A bit-flipped or truncated record: that shard alone is mined
        // again, counted as one fault, and its record rewritten.
        let record_path = shard_record_path(&ckpt_dir, 1);
        let record_bytes = fs::read(&record_path).unwrap();
        let mut flipped = record_bytes.clone();
        flipped[record_bytes.len() / 2] ^= 0x20;
        for damaged in [flipped, record_bytes[..record_bytes.len() - 3].to_vec()] {
            fs::write(&record_path, &damaged).unwrap();
            let got = mine_corpus(&corpus, g, 0.004, &config(1, true)).unwrap();
            assert_eq!(got.outcome, cold.outcome);
            assert_eq!(got.stats.checkpoint_faults, 1);
            assert_eq!(got.stats.mined_shards, 1);
            assert_eq!(got.stats.restored_shards, 2);
            assert_eq!(fs::read(&record_path).unwrap(), record_bytes);
        }

        // A changed ρ or gap: every key differs, so every shard is mined
        // again (and rewritten under the new key).
        for (g2, rho) in [(g, 0.005), (gap(1, 3), 0.004)] {
            let want = mine_corpus(&corpus, g2, rho, &config(1, false)).unwrap();
            let got = mine_corpus(&corpus, g2, rho, &config(1, true)).unwrap();
            assert_eq!(got.outcome, want.outcome);
            assert_eq!(got.stats.mined_shards, 3);
            assert_eq!(got.stats.checkpoint_faults, 3);
        }

        // Records written for another corpus: each shard's sequence hash
        // differs, so the other corpus is mined cold.
        mine_corpus(&corpus, g, 0.004, &config(1, true)).unwrap();
        let other_path = dir.join("other.pgco");
        Corpus::write(&other_path, &fixture_seqs(3, 31)).unwrap();
        let other = Arc::new(Corpus::open(&other_path).unwrap());
        let want = mine_corpus(&other, g, 0.004, &config(1, false)).unwrap();
        let got = mine_corpus(&other, g, 0.004, &config(1, true)).unwrap();
        assert_eq!(got.outcome, want.outcome);
        assert_eq!(got.stats.mined_shards, 3);
        assert_eq!(got.stats.checkpoint_faults, 3);

        // `min_sequences` is not part of the key: after mining at 1,
        // every record restores at 2 and the vote is applied afresh.
        mine_corpus(&corpus, g, 0.004, &config(1, true)).unwrap();
        let want = mine_corpus(&corpus, g, 0.004, &config(2, false)).unwrap();
        let got = mine_corpus(&corpus, g, 0.004, &config(2, true)).unwrap();
        assert_eq!(got.outcome, want.outcome);
        assert_ne!(got.outcome, cold.outcome, "the vote must change the set");
        assert_eq!(got.stats.restored_shards, 3);
        assert_eq!(got.stats.checkpoint_faults, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recount_matches_support_dp() {
        let mut rng = StdRng::seed_from_u64(43);
        for (len, n, m) in [(1, 0, 0), (60, 0, 2), (150, 1, 3), (200, 0, 9)] {
            let seq = uniform(&mut rng, Alphabet::Dna, len);
            let g = gap(n, m);
            let patterns: Vec<Pattern> = (0..200)
                .map(|i| {
                    let codes = uniform(&mut rng, Alphabet::Dna, 1 + i % 6);
                    Pattern::from_codes(codes.codes().to_vec())
                })
                .collect();
            let queries: Vec<&Pattern> = patterns.iter().collect();
            let got = recount_supports(&seq, g, &queries);
            for (p, support) in patterns.iter().zip(got) {
                assert_eq!(support, support_dp(&seq, g, p), "{p:?} in length {len}");
            }
        }
    }

    #[test]
    fn saturated_recount_falls_back_to_support_dp() {
        let seq = Sequence::dna(&"A".repeat(300)).unwrap();
        let g = gap(0, 9);
        let deep = Pattern::from_codes(vec![0; 25]);
        let shallow = Pattern::from_codes(vec![0; 3]);
        assert!(
            crate::verify::support_via_joins(&seq, g, &deep).1,
            "the join chain must saturate"
        );
        let exact = support_dp(&seq, g, &deep);
        assert!(exact > u64::MAX as u128);
        assert_eq!(
            recount_supports(&seq, g, &[&shallow, &deep]),
            [support_dp(&seq, g, &shallow), exact]
        );
    }

    #[test]
    fn degenerate_configs_mirror_mine_collection() {
        let dir = tmp_dir("degenerate");
        let (path, _) = write_fixture(&dir, 2, 41);
        let corpus = Arc::new(Corpus::open(&path).unwrap());
        let g = gap(1, 2);
        assert!(matches!(
            mine_corpus(&corpus, g, 0.0, &CorpusMineConfig::default()),
            Err(MineError::InvalidThreshold(_))
        ));
        let with_min = |min_sequences| CorpusMineConfig {
            min_sequences,
            ..CorpusMineConfig::default()
        };
        // Zero is refused by both; above the corpus size mines nothing.
        assert!(matches!(
            mine_corpus(&corpus, g, 0.01, &with_min(0)),
            Err(MineError::InvalidConfig {
                setting: "min_sequences",
                ..
            })
        ));
        let out = mine_corpus(&corpus, g, 0.01, &with_min(3)).unwrap();
        assert!(out.outcome.patterns.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
