//! Corpus-scale sharded mining: a memory-mapped packed corpus file,
//! per-sequence shard fan-out on the work-stealing pool, and per-shard
//! checkpoints.
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
//!    [`KeyCodec`](crate::packed::KeyCodec) width (2 bits/symbol for
//!    DNA, 5 for protein) behind one offset/ID directory and a
//!    trailing FNV-1a hash. [`Corpus::open`] memory-maps it read-only,
//!    so any number of worker threads share one kernel mapping instead
//!    of per-thread heap copies; each worker decodes only the shard it
//!    actually mines.
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
use crate::mpp::{Algorithm, MppConfig};
use crate::multiseq::{CollectionOutcome, CollectionPattern};
use crate::naive::support_dp;
use crate::packed::KeyCodec;
use crate::parallel::{PoolHooks, PoolJob, WorkerPool};
use crate::pattern::Pattern;
use crate::pil::Pil;
use crate::result::{CorpusStats, MineOutcome};
use crate::spill::{fnv1a, Take};
use crate::trace::NoopObserver;
use perigap_seq::{pack_codes, packed_len, unpack_codes, Alphabet, Sequence};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const CORPUS_MAGIC: &[u8; 4] = b"PGCO";
const CORPUS_VERSION: u32 = 1;
/// Fixed-size corpus header: magic + version + alphabet tag + bit
/// width + sequence count.
const CORPUS_HEADER: usize = 4 + 4 + 1 + 1 + 4;
const ALPHABET_DNA: u8 = 0;
const ALPHABET_PROTEIN: u8 = 1;
/// Size of the trailing corpus hash.
const TRAILER: usize = 8;

fn corpus_err(message: impl Into<String>) -> MineError {
    MineError::CorpusIo {
        message: message.into(),
    }
}

fn corpus_take_err(_record: u64, message: String) -> MineError {
    MineError::CorpusIo { message }
}

// ---------------------------------------------------------------------
// Read-only file mapping
// ---------------------------------------------------------------------

/// A read-only `mmap` of a whole file, declared raw (no libc crate —
/// the same idiom as the SIGINT shim in `perigap-serve`). The mapping
/// is immutable and lives as long as the [`Corpus`], so sharing it
/// across worker threads is sound.
#[cfg(unix)]
struct Mapping {
    ptr: *mut u8,
    len: usize,
}

#[cfg(unix)]
unsafe impl Send for Mapping {}
#[cfg(unix)]
unsafe impl Sync for Mapping {}

#[cfg(unix)]
impl Mapping {
    fn map(file: &fs::File, len: usize) -> Option<Mapping> {
        use std::os::unix::io::AsRawFd;
        extern "C" {
            fn mmap(
                addr: *mut u8,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut u8;
        }
        const PROT_READ: i32 = 1;
        const MAP_PRIVATE: i32 = 2;
        if len == 0 {
            return None;
        }
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            return None;
        }
        Some(Mapping { ptr, len })
    }

    fn bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        extern "C" {
            fn munmap(addr: *mut u8, len: usize) -> i32;
        }
        unsafe {
            munmap(self.ptr, self.len);
        }
    }
}

/// Where the corpus bytes live: a shared kernel mapping (the zero-copy
/// production path) or one heap buffer (the portable fallback and the
/// `open_buffered` test path).
enum Backing {
    #[cfg(unix)]
    Mapped(Mapping),
    Heap(Vec<u8>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped(m) => m.bytes(),
            Backing::Heap(v) => v,
        }
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

/// An opened `PGCO` corpus: validated directory over (usually) a
/// memory-mapped packed payload.
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
/// The hash is checked on open, payload offsets must tile the payload
/// region exactly, and the bit width must match the
/// [`KeyCodec`](crate::packed::KeyCodec) width of the alphabet —
/// anything else is [`MineError::CorpusIo`].
pub struct Corpus {
    backing: Backing,
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
            .field("mapped", &self.is_mapped())
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
        let bits = KeyCodec::new(alphabet.size()).bits();
        let mut buf = Vec::new();
        buf.extend_from_slice(CORPUS_MAGIC);
        buf.extend_from_slice(&CORPUS_VERSION.to_le_bytes());
        buf.push(tag);
        buf.push(bits as u8);
        buf.extend_from_slice(&(sequences.len() as u32).to_le_bytes());
        let dir_bytes: usize = sequences
            .iter()
            .map(|(name, _)| 4 + name.len() + 8 + 8)
            .sum();
        let mut offset = CORPUS_HEADER + dir_bytes;
        for (name, seq) in sequences {
            if seq.alphabet() != &alphabet {
                return Err(corpus_err(format!(
                    "sequence {name:?} uses a different alphabet than the first sequence"
                )));
            }
            if name.len() > u32::MAX as usize {
                return Err(corpus_err(format!("sequence name of {} bytes", name.len())));
            }
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&(seq.len() as u64).to_le_bytes());
            buf.extend_from_slice(&(offset as u64).to_le_bytes());
            offset += packed_len(seq.len(), bits);
        }
        debug_assert_eq!(buf.len(), CORPUS_HEADER + dir_bytes);
        for (_, seq) in sequences {
            buf.extend_from_slice(&pack_codes(seq.codes(), bits));
        }
        let hash = fnv1a(&buf);
        buf.extend_from_slice(&hash.to_le_bytes());
        let tmp = path.with_extension("pgco.tmp");
        fs::write(&tmp, &buf)
            .map_err(|e| corpus_err(format!("cannot write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, path)
            .map_err(|e| corpus_err(format!("cannot rename into {}: {e}", path.display())))?;
        Ok(hash)
    }

    /// Open a corpus zero-copy: memory-map the file read-only and
    /// validate the directory and trailing hash against the mapping.
    /// Falls back to one heap read where `mmap` is unavailable.
    pub fn open(path: &Path) -> Result<Corpus, MineError> {
        let file = fs::File::open(path)
            .map_err(|e| corpus_err(format!("cannot open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| corpus_err(format!("cannot stat {}: {e}", path.display())))?
            .len() as usize;
        #[cfg(unix)]
        if let Some(mapping) = Mapping::map(&file, len) {
            return Corpus::validate(Backing::Mapped(mapping));
        }
        drop(file);
        Corpus::open_buffered(path)
    }

    /// Open a corpus through one heap read instead of a mapping — the
    /// portable fallback, kept public so tests can pin the non-mmap
    /// path. Validation and mining behaviour are identical.
    pub fn open_buffered(path: &Path) -> Result<Corpus, MineError> {
        let bytes = fs::read(path)
            .map_err(|e| corpus_err(format!("cannot read {}: {e}", path.display())))?;
        Corpus::validate(Backing::Heap(bytes))
    }

    /// Validate the full file image: header, directory, payload
    /// tiling, trailing hash.
    fn validate(backing: Backing) -> Result<Corpus, MineError> {
        let bytes = backing.bytes();
        if bytes.len() < CORPUS_HEADER + TRAILER {
            return Err(corpus_err(format!(
                "file of {} bytes is shorter than a corpus header",
                bytes.len()
            )));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - TRAILER);
        let stored = u64::from_le_bytes(trailer.try_into().expect("exact length"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(corpus_err(format!(
                "hash mismatch: file says {stored:#018x}, contents hash to {computed:#018x} \
                 (truncated or corrupt corpus)"
            )));
        }
        let mut r = Take::new(body, 0, corpus_take_err);
        if r.bytes(4)? != CORPUS_MAGIC {
            return Err(corpus_err("bad magic (not a PGCO corpus file)"));
        }
        let version = r.u32()?;
        if version != CORPUS_VERSION {
            return Err(corpus_err(format!("unknown corpus version {version}")));
        }
        let alphabet = match r.u8()? {
            ALPHABET_DNA => Alphabet::Dna,
            ALPHABET_PROTEIN => Alphabet::Protein,
            other => return Err(corpus_err(format!("unknown alphabet tag {other}"))),
        };
        let bits = r.u8()? as u32;
        let expected_bits = KeyCodec::new(alphabet.size()).bits();
        if bits != expected_bits {
            return Err(corpus_err(format!(
                "bit width {bits} does not match the {expected_bits}-bit codec width of {alphabet:?}"
            )));
        }
        let count = r.u32()? as usize;
        // Each directory entry is ≥ 20 bytes; refuse nonsense counts
        // before allocating for them.
        if count > body.len() / 20 {
            return Err(corpus_err(format!(
                "sequence count {count} cannot fit in a {}-byte file",
                body.len()
            )));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let name_len = r.u32()? as usize;
            let name = std::str::from_utf8(r.bytes(name_len)?)
                .map_err(|_| corpus_err(format!("sequence {i} name is not UTF-8")))?
                .to_string();
            let len = r.u64()? as usize;
            let offset = r.u64()? as usize;
            entries.push(ShardEntry { name, len, offset });
        }
        // Payloads must tile the region between the directory and the
        // trailer exactly, in order.
        let mut expected = body.len() - r.remaining();
        for (i, entry) in entries.iter().enumerate() {
            if entry.offset != expected {
                return Err(corpus_err(format!(
                    "sequence {i} payload offset {} does not tile the payload region \
                     (expected {expected})",
                    entry.offset
                )));
            }
            expected += packed_len(entry.len, bits);
        }
        if expected != body.len() {
            return Err(corpus_err(format!(
                "payload region ends at {expected}, file body has {} bytes",
                body.len()
            )));
        }
        Ok(Corpus {
            backing,
            alphabet,
            bits,
            entries,
            hash: stored,
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

    /// Total bytes of the backing file image.
    pub fn file_bytes(&self) -> usize {
        self.backing.bytes().len()
    }

    /// True when the corpus is served from a kernel mapping rather
    /// than a heap buffer.
    pub fn is_mapped(&self) -> bool {
        match self.backing {
            #[cfg(unix)]
            Backing::Mapped(_) => true,
            Backing::Heap(_) => false,
        }
    }

    /// Decode shard `i` into a byte-coded [`Sequence`] — the only
    /// per-shard heap copy a worker holds.
    pub fn sequence(&self, i: usize) -> Result<Sequence, MineError> {
        let entry = &self.entries[i];
        let span = packed_len(entry.len, self.bits);
        let payload = &self.backing.bytes()[entry.offset..entry.offset + span];
        let codes = unpack_codes(payload, self.bits, entry.len);
        Sequence::from_codes(self.alphabet.clone(), codes).map_err(|e| {
            corpus_err(format!(
                "shard {i} payload decodes outside the {:?} alphabet: {e}",
                self.alphabet
            ))
        })
    }
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
    /// the run simply finishes).
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
    /// many shards.
    pub min_sequences: usize,
    /// Per-shard engine configuration (levels, arena ceiling, spill).
    /// [`MppConfig::threads`] is the width of the shard fan-out
    /// (worker 0 is the calling thread); each shard mines on one
    /// thread, since parallelism comes from the fan-out itself. When a
    /// shard spills, it spills under its own subdirectory of
    /// [`MppConfig::spill_dir`].
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
        // Too short to hold a start-level pattern: never votes, same
        // as mine_collection's skip.
        if seq.len() < self.gap.min_span(self.mpp.start_level) {
            return Ok(MineOutcome::default());
        }
        let mut config = self.mpp.clone();
        if let Some(dir) = &config.spill_dir {
            // Each shard gets its own spill namespace; record ids are
            // per-run counters and would collide in a shared directory.
            config.spill_dir = Some(dir.join(format!("shard-{shard:08}")));
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
pub fn mine_corpus(
    corpus: &Arc<Corpus>,
    gap: GapRequirement,
    rho: f64,
    config: &CorpusMineConfig,
) -> Result<CorpusOutcome, MineError> {
    if !(rho > 0.0 && rho <= 1.0) {
        return Err(MineError::InvalidThreshold(rho));
    }
    if config.mpp.start_level == 0 {
        return Err(MineError::InvalidM(0));
    }
    let threads = config.mpp.threads;
    assert!(threads >= 1, "need at least one thread");
    let n_shards = corpus.len();
    let mut stats = CorpusStats {
        shards: n_shards,
        longest_shard: corpus.entries.iter().map(|e| e.len).max().unwrap_or(0),
        corpus_hash: corpus.hash(),
        ..CorpusStats::default()
    };
    if n_shards == 0 || config.min_sequences == 0 || config.min_sequences > n_shards {
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
        stop_after: config
            .checkpoint
            .as_ref()
            .and_then(|ck| ck.stop_after_shards),
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
            for corpus in [
                Corpus::open(&path).unwrap(),
                Corpus::open_buffered(&path).unwrap(),
            ] {
                assert_eq!(corpus.hash(), hash, "{label}");
                assert_eq!(corpus.len(), seqs.len(), "{label}");
                for (i, (name, seq)) in seqs.iter().enumerate() {
                    assert_eq!(&corpus.entry(i).name, name, "{label}");
                    assert_eq!(corpus.entry(i).len, seq.len(), "{label}");
                    assert_eq!(&corpus.sequence(i).unwrap(), seq, "{label}");
                }
            }
            #[cfg(unix)]
            assert!(Corpus::open(&path).unwrap().is_mapped(), "{label}");
        }
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
            for result in [Corpus::open(&cut), Corpus::open_buffered(&cut)] {
                match result {
                    Err(MineError::CorpusIo { .. }) => {}
                    other => panic!("keep {keep}: expected CorpusIo, got {other:?}"),
                }
            }
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
        for min_sequences in [0, 3] {
            let out = mine_corpus(
                &corpus,
                g,
                0.01,
                &CorpusMineConfig {
                    min_sequences,
                    ..CorpusMineConfig::default()
                },
            )
            .unwrap();
            assert!(out.outcome.patterns.is_empty());
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
