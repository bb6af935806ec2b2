//! Corpus-scale sharded mining: a memory-mapped packed corpus file,
//! per-sequence shard fan-out on the work-stealing pool, and
//! checkpoint/resume.
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
//!    remaining shards are recovered with the exact DP oracle.
//! 3. **Checkpoint/resume** reuses the PGST wire conventions of
//!    [`spill`](crate::spill): every completed shard is serialized as
//!    one checksummed record under the checkpoint directory, a
//!    manifest pins (corpus hash, gap, ρs, n, engine config, completed
//!    shard set) and is atomically rewritten after each shard, and a
//!    resumed run validates the manifest, restores completed shards,
//!    and mines only the missing ones. Every corruption mode is a
//!    typed [`MineError`] — the merge never sees state it cannot
//!    verify.

use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::mpp::{mpp, MppConfig};
use crate::multiseq::{CollectionOutcome, CollectionPattern};
use crate::packed::KeyCodec;
use crate::parallel::{PoolHooks, PoolJob, WorkerPool};
use crate::pattern::Pattern;
use crate::result::CorpusStats;
use crate::spill::{fnv1a, Take};
use crate::trace::{CompleteEvent, MineObserver, NoopObserver, ShardEvent};
use perigap_seq::{pack_codes, packed_len, unpack_codes, Alphabet, Sequence};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CORPUS_MAGIC: &[u8; 4] = b"PGCO";
const CORPUS_VERSION: u32 = 1;
/// Fixed-size corpus header: magic + version + alphabet tag + bit
/// width + sequence count.
const CORPUS_HEADER: usize = 4 + 4 + 1 + 1 + 4;
const ALPHABET_DNA: u8 = 0;
const ALPHABET_PROTEIN: u8 = 1;

const PGST_MAGIC: &[u8; 4] = b"PGST";
const PGST_VERSION: u32 = 1;
/// Section tag for per-shard checkpoint records — mirrored as
/// `perigap_store::TAG_CORPUS_CHECKPOINT` (the store crate cannot be
/// imported from here without inverting the dependency).
const TAG_CORPUS_CHECKPOINT: u8 = 4;
/// Section tag for the checkpoint manifest — mirrored as
/// `perigap_store::TAG_CORPUS_MANIFEST`.
const TAG_CORPUS_MANIFEST: u8 = 5;
/// Record id the manifest reports errors under (no shard owns it).
const MANIFEST_RECORD: u64 = u64::MAX;
/// Trailing checksum size shared by every record in this module.
const TRAILER: usize = 8;

/// File name of the checkpoint manifest inside `--checkpoint-dir`.
pub const MANIFEST_FILE: &str = "manifest.pgcm";

fn corpus_err(message: impl Into<String>) -> MineError {
    MineError::CorpusIo {
        message: message.into(),
    }
}

fn corpus_take_err(_record: u64, message: String) -> MineError {
    MineError::CorpusIo { message }
}

fn ckpt_err(record: u64, message: String) -> MineError {
    MineError::CheckpointIo { record, message }
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

    /// The trailing FNV-1a hash — what checkpoint manifests pin.
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
// Checkpoint records and manifest
// ---------------------------------------------------------------------

/// Checkpointing knobs for [`mine_corpus`].
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory for per-shard records and the manifest (created if
    /// missing).
    pub dir: PathBuf,
    /// Resume from an existing manifest instead of starting fresh.
    /// The manifest must describe this corpus and these mining
    /// parameters exactly, or the run refuses with
    /// [`MineError::CheckpointMismatch`].
    pub resume: bool,
    /// Stop (with [`MineError::CorpusPaused`]) once this many shards
    /// have been checkpointed this run — the deterministic stand-in
    /// for a mid-run `SIGKILL` used by benchmarks and tests. With one
    /// thread the pause point is exact; under a parallel fan-out,
    /// in-flight shards may still complete (and if every shard was
    /// claimed before the flag rose, the run simply finishes).
    pub stop_after_shards: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpoint into `dir`, starting fresh.
    pub fn fresh(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            resume: false,
            stop_after_shards: None,
        }
    }

    /// Resume from the manifest in `dir`.
    pub fn resume(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            resume: true,
            stop_after_shards: None,
        }
    }
}

/// Everything a manifest pins about a run. Two runs may merge shard
/// results only when every field here matches.
#[derive(Clone, Debug, PartialEq)]
struct Manifest {
    corpus_hash: u64,
    gap_min: u64,
    gap_max: u64,
    rho_bits: u64,
    n: u64,
    min_sequences: u64,
    start_level: u64,
    /// `u64::MAX` encodes "no cap".
    max_level: u64,
    completed: Vec<bool>,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(PGST_MAGIC);
    buf.extend_from_slice(&PGST_VERSION.to_le_bytes());
    buf.push(TAG_CORPUS_MANIFEST);
    buf.extend_from_slice(&m.corpus_hash.to_le_bytes());
    buf.extend_from_slice(&m.gap_min.to_le_bytes());
    buf.extend_from_slice(&m.gap_max.to_le_bytes());
    buf.extend_from_slice(&m.rho_bits.to_le_bytes());
    buf.extend_from_slice(&m.n.to_le_bytes());
    buf.extend_from_slice(&m.min_sequences.to_le_bytes());
    buf.extend_from_slice(&m.start_level.to_le_bytes());
    buf.extend_from_slice(&m.max_level.to_le_bytes());
    buf.extend_from_slice(&(m.completed.len() as u32).to_le_bytes());
    let mut bitmap = vec![0u8; m.completed.len().div_ceil(8)];
    for (i, &done) in m.completed.iter().enumerate() {
        if done {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    buf.extend_from_slice(&bitmap);
    let digest = fnv1a(&buf);
    buf.extend_from_slice(&digest.to_le_bytes());
    buf
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, MineError> {
    let err = |m: String| ckpt_err(MANIFEST_RECORD, m);
    if bytes.len() < TRAILER {
        return Err(err(format!(
            "manifest of {} bytes is shorter than its checksum",
            bytes.len()
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER);
    let stored = u64::from_le_bytes(trailer.try_into().expect("exact length"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(err(format!(
            "checksum mismatch: manifest says {stored:#018x}, contents hash to {computed:#018x}"
        )));
    }
    let mut r = Take::new(body, MANIFEST_RECORD, ckpt_err);
    if r.bytes(4)? != PGST_MAGIC {
        return Err(err("bad magic".into()));
    }
    let version = r.u32()?;
    if version != PGST_VERSION {
        return Err(err(format!("unknown version {version}")));
    }
    let tag = r.u8()?;
    if tag != TAG_CORPUS_MANIFEST {
        return Err(err(format!("unexpected section tag {tag}")));
    }
    let corpus_hash = r.u64()?;
    let gap_min = r.u64()?;
    let gap_max = r.u64()?;
    let rho_bits = r.u64()?;
    let n = r.u64()?;
    let min_sequences = r.u64()?;
    let start_level = r.u64()?;
    let max_level = r.u64()?;
    // A manifest from before the engine byte was dropped is one byte
    // longer; the shard count then misreads and, for any run with at
    // least one shard, the bitmap length check below refuses it.
    let shards = r.u32()? as usize;
    let bitmap = r.bytes(shards.div_ceil(8))?;
    if r.remaining() != 0 {
        return Err(err(format!(
            "{} trailing bytes after the completed-shard bitmap",
            r.remaining()
        )));
    }
    let completed = (0..shards)
        .map(|i| bitmap[i / 8] >> (i % 8) & 1 == 1)
        .collect();
    Ok(Manifest {
        corpus_hash,
        gap_min,
        gap_max,
        rho_bits,
        n,
        min_sequences,
        start_level,
        max_level,
        completed,
    })
}

fn encode_shard_record(shard: u64, corpus_hash: u64, patterns: &[(Pattern, u128)]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(PGST_MAGIC);
    buf.extend_from_slice(&PGST_VERSION.to_le_bytes());
    buf.push(TAG_CORPUS_CHECKPOINT);
    buf.extend_from_slice(&shard.to_le_bytes());
    buf.extend_from_slice(&corpus_hash.to_le_bytes());
    buf.extend_from_slice(&(patterns.len() as u32).to_le_bytes());
    for (pattern, support) in patterns {
        buf.extend_from_slice(&(pattern.len() as u32).to_le_bytes());
        buf.extend_from_slice(pattern.codes());
        buf.extend_from_slice(&support.to_le_bytes());
    }
    let digest = fnv1a(&buf);
    buf.extend_from_slice(&digest.to_le_bytes());
    buf
}

/// Decode one shard record, validating framing, ownership (`shard`),
/// provenance (`corpus_hash`), alphabet range, and the canonical
/// (length, codes) order the engines emit in.
fn decode_shard_record(
    shard: u64,
    corpus_hash: u64,
    sigma: usize,
    bytes: &[u8],
) -> Result<Vec<(Pattern, u128)>, MineError> {
    let err = |m: String| ckpt_err(shard, m);
    if bytes.len() < TRAILER {
        return Err(err(format!(
            "record of {} bytes is shorter than its checksum",
            bytes.len()
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER);
    let stored = u64::from_le_bytes(trailer.try_into().expect("exact length"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(err(format!(
            "checksum mismatch: record says {stored:#018x}, contents hash to {computed:#018x}"
        )));
    }
    let mut r = Take::new(body, shard, ckpt_err);
    if r.bytes(4)? != PGST_MAGIC {
        return Err(err("bad magic".into()));
    }
    let version = r.u32()?;
    if version != PGST_VERSION {
        return Err(err(format!("unknown version {version}")));
    }
    let tag = r.u8()?;
    if tag != TAG_CORPUS_CHECKPOINT {
        return Err(err(format!("unexpected section tag {tag}")));
    }
    let stored_shard = r.u64()?;
    if stored_shard != shard {
        return Err(err(format!(
            "record belongs to shard {stored_shard}, expected {shard}"
        )));
    }
    let stored_hash = r.u64()?;
    if stored_hash != corpus_hash {
        return Err(MineError::CheckpointMismatch {
            field: "corpus hash",
            manifest: format!("{stored_hash:#018x}"),
            requested: format!("{corpus_hash:#018x}"),
        });
    }
    let count = r.u32()? as usize;
    if count > body.len() / 20 {
        return Err(err(format!(
            "pattern count {count} cannot fit in a {}-byte record",
            body.len()
        )));
    }
    let mut patterns: Vec<(Pattern, u128)> = Vec::with_capacity(count);
    for i in 0..count {
        let len = r.u32()? as usize;
        if len == 0 {
            return Err(err(format!("pattern {i} has length 0")));
        }
        let codes = r.bytes(len)?;
        if let Some(&bad) = codes.iter().find(|&&c| c as usize >= sigma) {
            return Err(err(format!(
                "pattern {i} symbol {bad} is outside the {sigma}-letter alphabet"
            )));
        }
        let support = r.u128()?;
        if support == 0 {
            return Err(err(format!("pattern {i} has support 0")));
        }
        let pattern = Pattern::from_codes(codes.to_vec());
        if let Some((prev, _)) = patterns.last() {
            if (prev.len(), prev.codes()) >= (pattern.len(), pattern.codes()) {
                return Err(err(format!(
                    "pattern {i} is out of canonical (length, codes) order"
                )));
            }
        }
        patterns.push((pattern, support));
    }
    if r.remaining() != 0 {
        return Err(err(format!(
            "{} trailing bytes after the last pattern",
            r.remaining()
        )));
    }
    Ok(patterns)
}

fn shard_record_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:08}.pgck"))
}

/// Write `bytes` to `path` atomically (unique tmp + rename), mapping
/// failures to [`MineError::CheckpointIo`] under `record`.
fn write_atomic(path: &Path, bytes: &[u8], record: u64) -> Result<(), MineError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)
        .map_err(|e| ckpt_err(record, format!("cannot write {}: {e}", tmp.display())))?;
    fs::rename(&tmp, path).map_err(|e| {
        ckpt_err(
            record,
            format!("cannot rename into {}: {e}", path.display()),
        )
    })?;
    Ok(())
}

/// Shared checkpoint state: the directory plus the manifest the
/// workers serialize their completion bits through.
struct CkptState {
    dir: PathBuf,
    corpus_hash: u64,
    manifest: Mutex<Manifest>,
}

impl CkptState {
    /// Persist one completed shard: write its record, then mark it in
    /// the manifest and rewrite the manifest atomically. Returns the
    /// record's byte size.
    fn commit(&self, shard: usize, patterns: &[(Pattern, u128)]) -> Result<u64, MineError> {
        let bytes = encode_shard_record(shard as u64, self.corpus_hash, patterns);
        write_atomic(&shard_record_path(&self.dir, shard), &bytes, shard as u64)?;
        let mut manifest = self.manifest.lock().expect("manifest lock");
        manifest.completed[shard] = true;
        write_atomic(
            &self.dir.join(MANIFEST_FILE),
            &encode_manifest(&manifest),
            MANIFEST_RECORD,
        )?;
        Ok(bytes.len() as u64)
    }

    fn completed_count(&self) -> usize {
        self.manifest
            .lock()
            .expect("manifest lock")
            .completed
            .iter()
            .filter(|&&c| c)
            .count()
    }
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
    /// Threads across shards (worker 0 is the calling thread). Each
    /// shard mines on one thread: parallelism comes from the shard
    /// fan-out itself.
    pub threads: usize,
    /// Per-shard engine configuration (`start_level`, arena ceiling,
    /// spill). When a shard spills, it spills under its own
    /// subdirectory of [`MppConfig::spill_dir`].
    pub mpp: MppConfig,
    /// Optional checkpoint/resume state.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for CorpusMineConfig {
    fn default() -> CorpusMineConfig {
        CorpusMineConfig {
            n: 10,
            min_sequences: 1,
            threads: 1,
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
struct MinedShard {
    patterns: Vec<(Pattern, u128)>,
    elapsed: Duration,
    record_bytes: u64,
}

/// The pool job: pending shards in longest-first order, claimed off
/// one atomic cursor by the pool workers plus the calling thread.
struct ShardJob {
    corpus: Arc<Corpus>,
    /// Pending shard indices, longest sequence first.
    order: Vec<usize>,
    cursor: AtomicUsize,
    hooks: PoolHooks,
    gap: GapRequirement,
    rho: f64,
    n: usize,
    mpp: MppConfig,
    ckpt: Option<Arc<CkptState>>,
    stop_after: Option<usize>,
    /// Shards checkpointed this run (drives `stop_after`).
    done: AtomicUsize,
    /// Once set, remaining claims return `None` (paused).
    stop: AtomicBool,
}

impl ShardJob {
    fn mine_one(&self, shard: usize) -> Result<Vec<(Pattern, u128)>, MineError> {
        let entry = self.corpus.entry(shard);
        // Too short to hold a start-level pattern: never votes, same
        // as mine_collection's skip.
        if entry.len < self.gap.min_span(self.mpp.start_level) {
            return Ok(Vec::new());
        }
        let seq = self.corpus.sequence(shard)?;
        let mut config = self.mpp.clone();
        if let Some(dir) = &config.spill_dir {
            // Each shard gets its own spill namespace; record ids are
            // per-run counters and would collide in a shared directory.
            config.spill_dir = Some(dir.join(format!("shard-{shard:08}")));
        }
        let outcome = mpp(&seq, self.gap, self.rho, self.n, config)?;
        Ok(outcome
            .frequent
            .into_iter()
            .map(|f| (f.pattern, f.support))
            .collect())
    }
}

impl PoolJob for ShardJob {
    type Out = (usize, Result<Option<MinedShard>, MineError>);

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
        let started = Instant::now();
        let patterns = match self.mine_one(shard) {
            Ok(p) => p,
            Err(e) => return (shard, Err(e)),
        };
        let mut record_bytes = 0;
        if let Some(ckpt) = &self.ckpt {
            record_bytes = match ckpt.commit(shard, &patterns) {
                Ok(b) => b,
                Err(e) => return (shard, Err(e)),
            };
            let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
            if self.stop_after.is_some_and(|limit| done >= limit) {
                self.stop.store(true, Ordering::SeqCst);
            }
        }
        (
            shard,
            Ok(Some(MinedShard {
                patterns,
                elapsed: started.elapsed(),
                record_bytes,
            })),
        )
    }

    fn out_weight(out: &Self::Out) -> usize {
        match &out.1 {
            Ok(Some(mined)) => mined.patterns.len(),
            _ => 0,
        }
    }
}

/// Mine a packed corpus, sharded per sequence: every pattern frequent
/// (ratio ≥ `rho`) in at least `config.min_sequences` shards, with
/// per-shard supports — bit-identical to
/// [`mine_collection`](crate::multiseq::mine_collection) over the
/// decoded sequences, for every thread count and checkpoint/resume
/// split.
pub fn mine_corpus(
    corpus: &Arc<Corpus>,
    gap: GapRequirement,
    rho: f64,
    config: &CorpusMineConfig,
) -> Result<CorpusOutcome, MineError> {
    mine_corpus_traced(corpus, gap, rho, config, &mut NoopObserver)
}

/// [`mine_corpus`] with a [`MineObserver`] attached. One
/// [`ShardEvent`] per shard is emitted in shard-index order after the
/// fan-out completes (so traces are deterministic), followed by the
/// completion event.
pub fn mine_corpus_traced<O: MineObserver>(
    corpus: &Arc<Corpus>,
    gap: GapRequirement,
    rho: f64,
    config: &CorpusMineConfig,
    observer: &mut O,
) -> Result<CorpusOutcome, MineError> {
    let started = Instant::now();
    if !(rho > 0.0 && rho <= 1.0) {
        return Err(MineError::InvalidThreshold(rho));
    }
    if config.mpp.start_level == 0 {
        return Err(MineError::InvalidM(0));
    }
    assert!(config.threads >= 1, "need at least one thread");
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

    // Checkpoint setup: restore completed shards on resume, or pin a
    // fresh manifest for this run.
    let mut results: Vec<Option<MinedShard>> = (0..n_shards).map(|_| None).collect();
    let mut restored = vec![false; n_shards];
    let ckpt: Option<Arc<CkptState>> = match &config.checkpoint {
        None => None,
        Some(ck) => {
            fs::create_dir_all(&ck.dir).map_err(|e| {
                ckpt_err(
                    MANIFEST_RECORD,
                    format!("cannot create {}: {e}", ck.dir.display()),
                )
            })?;
            let template = Manifest {
                corpus_hash: corpus.hash(),
                gap_min: gap.min() as u64,
                gap_max: gap.max() as u64,
                rho_bits: rho.to_bits(),
                n: config.n as u64,
                min_sequences: config.min_sequences as u64,
                start_level: config.mpp.start_level as u64,
                max_level: config.mpp.max_level.map_or(u64::MAX, |l| l as u64),
                completed: vec![false; n_shards],
            };
            let manifest_path = ck.dir.join(MANIFEST_FILE);
            let manifest = if ck.resume {
                let bytes = fs::read(&manifest_path).map_err(|e| {
                    ckpt_err(
                        MANIFEST_RECORD,
                        format!("cannot read {}: {e}", manifest_path.display()),
                    )
                })?;
                let found = decode_manifest(&bytes)?;
                check_manifest(&found, &template)?;
                for (shard, &done) in found.completed.iter().enumerate() {
                    if !done {
                        continue;
                    }
                    let restore_started = Instant::now();
                    let path = shard_record_path(&ck.dir, shard);
                    let bytes = fs::read(&path).map_err(|e| {
                        ckpt_err(
                            shard as u64,
                            format!(
                                "manifest marks the shard complete but {} is unreadable: {e}",
                                path.display()
                            ),
                        )
                    })?;
                    let patterns = decode_shard_record(
                        shard as u64,
                        corpus.hash(),
                        corpus.alphabet().size(),
                        &bytes,
                    )?;
                    results[shard] = Some(MinedShard {
                        patterns,
                        elapsed: restore_started.elapsed(),
                        record_bytes: 0,
                    });
                    restored[shard] = true;
                }
                found
            } else {
                write_atomic(&manifest_path, &encode_manifest(&template), MANIFEST_RECORD)?;
                template
            };
            Some(Arc::new(CkptState {
                dir: ck.dir.clone(),
                corpus_hash: corpus.hash(),
                manifest: Mutex::new(manifest),
            }))
        }
    };
    stats.restored_shards = restored.iter().filter(|&&r| r).count();

    // Pending shards, longest first: the straggler starts immediately
    // and the small shards fill the tail.
    let mut pending: Vec<usize> = (0..n_shards).filter(|&j| results[j].is_none()).collect();
    pending.sort_by_key(|&j| (usize::MAX - corpus.entry(j).len, j));
    let job = Arc::new(ShardJob {
        corpus: Arc::clone(corpus),
        order: pending,
        cursor: AtomicUsize::new(0),
        hooks: PoolHooks::default(),
        gap,
        rho,
        n: config.n,
        mpp: config.mpp.clone(),
        ckpt: ckpt.clone(),
        stop_after: config
            .checkpoint
            .as_ref()
            .and_then(|ck| ck.stop_after_shards),
        done: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    });

    let outs: Vec<<ShardJob as PoolJob>::Out> = if config.threads >= 2 && job.n_items() >= 2 {
        let pool = WorkerPool::new(config.threads - 1);
        let (outs, event) = pool.run(Arc::clone(&job))?;
        observer.on_pool(&event);
        outs
    } else {
        (0..job.n_items()).map(|i| job.process(i)).collect()
    };

    let mut skipped = 0usize;
    for (shard, result) in outs {
        match result? {
            Some(mined) => {
                stats.mined_shards += 1;
                if mined.record_bytes > 0 {
                    stats.checkpoint_records += 1;
                    stats.checkpoint_bytes += mined.record_bytes;
                }
                results[shard] = Some(mined);
            }
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        return Err(MineError::CorpusPaused {
            completed: ckpt.as_ref().map_or(0, |c| c.completed_count()),
            total: n_shards,
        });
    }

    for (shard, mined) in results.iter().enumerate() {
        let mined = mined.as_ref().expect("every shard mined or restored");
        observer.on_shard(&ShardEvent {
            shard,
            len: corpus.entry(shard).len,
            patterns: mined.patterns.len(),
            restored: restored[shard],
            elapsed: mined.elapsed,
        });
    }

    let per_shard: Vec<Vec<(Pattern, u128)>> = results
        .into_iter()
        .map(|r| r.expect("every shard mined or restored").patterns)
        .collect();
    let outcome = merge_shards(corpus, gap, &per_shard, config.min_sequences)?;
    observer.on_complete(&CompleteEvent {
        frequent: outcome.patterns.len(),
        levels: 0,
        total_candidates: 0,
        n_used: config.n,
        support_saturated: false,
        peak_arena_bytes: 0,
        top_k: None,
        floor_raises: 0,
        pruned_by_floor: 0,
        pruned_by_target: 0,
        total_elapsed: started.elapsed(),
    });
    Ok(CorpusOutcome { outcome, stats })
}

/// Refuse to resume under a manifest describing a different run.
fn check_manifest(found: &Manifest, wanted: &Manifest) -> Result<(), MineError> {
    let mismatch = |field: &'static str, manifest: String, requested: String| {
        Err(MineError::CheckpointMismatch {
            field,
            manifest,
            requested,
        })
    };
    if found.corpus_hash != wanted.corpus_hash {
        return mismatch(
            "corpus hash",
            format!("{:#018x}", found.corpus_hash),
            format!("{:#018x}", wanted.corpus_hash),
        );
    }
    if (found.gap_min, found.gap_max) != (wanted.gap_min, wanted.gap_max) {
        return mismatch(
            "gap requirement",
            format!("[{}, {}]", found.gap_min, found.gap_max),
            format!("[{}, {}]", wanted.gap_min, wanted.gap_max),
        );
    }
    if found.rho_bits != wanted.rho_bits {
        return mismatch(
            "support threshold",
            format!("{}", f64::from_bits(found.rho_bits)),
            format!("{}", f64::from_bits(wanted.rho_bits)),
        );
    }
    if found.n != wanted.n {
        return mismatch("n", found.n.to_string(), wanted.n.to_string());
    }
    if found.min_sequences != wanted.min_sequences {
        return mismatch(
            "min sequences",
            found.min_sequences.to_string(),
            wanted.min_sequences.to_string(),
        );
    }
    if found.start_level != wanted.start_level {
        return mismatch(
            "start level",
            found.start_level.to_string(),
            wanted.start_level.to_string(),
        );
    }
    if found.max_level != wanted.max_level {
        return mismatch(
            "max level",
            found.max_level.to_string(),
            wanted.max_level.to_string(),
        );
    }
    if found.completed.len() != wanted.completed.len() {
        return mismatch(
            "shard count",
            found.completed.len().to_string(),
            wanted.completed.len().to_string(),
        );
    }
    Ok(())
}

/// Merge per-shard frequent sets into the collection outcome:
/// frequency votes from shard membership, true supports for
/// non-frequent shards from the exact DP oracle, canonical
/// (length, codes) order — exactly what `mine_collection` emits.
fn merge_shards(
    corpus: &Corpus,
    gap: GapRequirement,
    per_shard: &[Vec<(Pattern, u128)>],
    min_sequences: usize,
) -> Result<CollectionOutcome, MineError> {
    let n = per_shard.len();
    let mut evidence: HashMap<&Pattern, Vec<(usize, u128)>> = HashMap::new();
    for (j, shard) in per_shard.iter().enumerate() {
        for (pattern, support) in shard {
            evidence.entry(pattern).or_default().push((j, *support));
        }
    }
    let mut patterns: Vec<CollectionPattern> = evidence
        .into_iter()
        .filter(|(_, ev)| ev.len() >= min_sequences)
        .map(|(pattern, ev)| {
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
                pattern: pattern.clone(),
                frequent_in,
                supports,
            }
        })
        .collect();
    for j in 0..n {
        if patterns
            .iter()
            .all(|cp| cp.frequent_in.binary_search(&j).is_ok())
        {
            continue;
        }
        let seq = corpus.sequence(j)?;
        for cp in &mut patterns {
            if cp.frequent_in.binary_search(&j).is_err() {
                cp.supports[j] = crate::naive::support_dp(&seq, gap, &cp.pattern);
            }
        }
    }
    patterns.sort_by(|a, b| {
        (a.pattern.len(), a.pattern.codes()).cmp(&(b.pattern.len(), b.pattern.codes()))
    });
    Ok(CollectionOutcome { patterns })
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
                    threads,
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
            for stop_after in [1, 3] {
                let ckpt_dir = dir.join(format!("ckpt-{threads}-{stop_after}"));
                let paused = mine_corpus(
                    &corpus,
                    g,
                    rho,
                    &CorpusMineConfig {
                        n: 10,
                        min_sequences: 2,
                        threads,
                        checkpoint: Some(CheckpointConfig {
                            dir: ckpt_dir.clone(),
                            resume: false,
                            stop_after_shards: Some(stop_after),
                        }),
                        ..CorpusMineConfig::default()
                    },
                );
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
                let resumed = mine_corpus(
                    &corpus,
                    g,
                    rho,
                    &CorpusMineConfig {
                        n: 10,
                        min_sequences: 2,
                        threads,
                        checkpoint: Some(CheckpointConfig::resume(ckpt_dir)),
                        ..CorpusMineConfig::default()
                    },
                )
                .unwrap();
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
            checkpoint: Some(CheckpointConfig::fresh(&ckpt_dir)),
            ..CorpusMineConfig::default()
        };
        let cold = mine_corpus(&corpus, g, 0.004, &config).unwrap();
        assert_eq!(cold.stats.checkpoint_records, 3);
        assert!(cold.stats.checkpoint_bytes > 0);
        let resumed = mine_corpus(
            &corpus,
            g,
            0.004,
            &CorpusMineConfig {
                checkpoint: Some(CheckpointConfig::resume(&ckpt_dir)),
                ..config
            },
        )
        .unwrap();
        assert_eq!(resumed.outcome, cold.outcome);
        assert_eq!(resumed.stats.restored_shards, 3);
        assert_eq!(resumed.stats.mined_shards, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_faults_are_typed() {
        let dir = tmp_dir("resume-faults");
        let (path, _) = write_fixture(&dir, 3, 29);
        let corpus = Arc::new(Corpus::open(&path).unwrap());
        let g = gap(1, 2);
        let ckpt_dir = dir.join("ckpt");
        let config = CorpusMineConfig {
            n: 10,
            min_sequences: 1,
            checkpoint: Some(CheckpointConfig::fresh(&ckpt_dir)),
            ..CorpusMineConfig::default()
        };
        mine_corpus(&corpus, g, 0.004, &config).unwrap();
        let resume_config = CorpusMineConfig {
            checkpoint: Some(CheckpointConfig::resume(&ckpt_dir)),
            ..config.clone()
        };

        // Missing manifest.
        let empty_dir = dir.join("empty-ckpt");
        fs::create_dir_all(&empty_dir).unwrap();
        match mine_corpus(
            &corpus,
            g,
            0.004,
            &CorpusMineConfig {
                checkpoint: Some(CheckpointConfig::resume(&empty_dir)),
                ..config.clone()
            },
        ) {
            Err(MineError::CheckpointIo { record, .. }) => assert_eq!(record, u64::MAX),
            other => panic!("expected CheckpointIo, got {other:?}"),
        }

        // Corrupt manifest: every sampled bit flip is a typed error.
        let manifest_path = ckpt_dir.join(MANIFEST_FILE);
        let manifest_bytes = fs::read(&manifest_path).unwrap();
        for i in (0..manifest_bytes.len()).step_by(5) {
            let mut copy = manifest_bytes.clone();
            copy[i] ^= 0x04;
            fs::write(&manifest_path, &copy).unwrap();
            match mine_corpus(&corpus, g, 0.004, &resume_config) {
                Err(MineError::CheckpointIo { .. }) | Err(MineError::CheckpointMismatch { .. }) => {
                }
                other => panic!("manifest flip at {i}: expected typed error, got {other:?}"),
            }
        }
        // A manifest in the layout that still carried an engine byte
        // after the max level, for either engine, is refused, not
        // misread.
        const ENGINE_AT: usize = 4 + 4 + 1 + 8 * 8;
        for engine in [0u8, 1] {
            let body = &manifest_bytes[..manifest_bytes.len() - TRAILER];
            let mut old = body[..ENGINE_AT].to_vec();
            old.push(engine);
            old.extend_from_slice(&body[ENGINE_AT..]);
            let digest = fnv1a(&old);
            old.extend_from_slice(&digest.to_le_bytes());
            fs::write(&manifest_path, &old).unwrap();
            match mine_corpus(&corpus, g, 0.004, &resume_config) {
                Err(MineError::CheckpointIo { record, .. }) => assert_eq!(record, u64::MAX),
                other => panic!("old-layout manifest: expected CheckpointIo, got {other:?}"),
            }
        }
        fs::write(&manifest_path, &manifest_bytes).unwrap();

        // Corrupt shard record.
        let record_path = shard_record_path(&ckpt_dir, 1);
        let record_bytes = fs::read(&record_path).unwrap();
        let mut torn = record_bytes.clone();
        let mid = torn.len() / 2;
        torn[mid] ^= 0x20;
        fs::write(&record_path, &torn).unwrap();
        match mine_corpus(&corpus, g, 0.004, &resume_config) {
            Err(MineError::CheckpointIo { record, .. }) => assert_eq!(record, 1),
            other => panic!("expected CheckpointIo for shard 1, got {other:?}"),
        }
        fs::write(&record_path, &record_bytes[..record_bytes.len() - 3]).unwrap();
        assert!(matches!(
            mine_corpus(&corpus, g, 0.004, &resume_config),
            Err(MineError::CheckpointIo { record: 1, .. })
        ));
        fs::remove_file(&record_path).unwrap();
        assert!(matches!(
            mine_corpus(&corpus, g, 0.004, &resume_config),
            Err(MineError::CheckpointIo { record: 1, .. })
        ));
        fs::write(&record_path, &record_bytes).unwrap();

        // Hash mismatch: resume against a different corpus.
        let other_path = dir.join("other.pgco");
        Corpus::write(&other_path, &fixture_seqs(3, 31)).unwrap();
        let other = Arc::new(Corpus::open(&other_path).unwrap());
        match mine_corpus(&other, g, 0.004, &resume_config) {
            Err(MineError::CheckpointMismatch { field, .. }) => assert_eq!(field, "corpus hash"),
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }

        // Parameter mismatches.
        match mine_corpus(&corpus, g, 0.005, &resume_config) {
            Err(MineError::CheckpointMismatch { field, .. }) => {
                assert_eq!(field, "support threshold")
            }
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
        match mine_corpus(&corpus, gap(1, 3), 0.004, &resume_config) {
            Err(MineError::CheckpointMismatch { field, .. }) => {
                assert_eq!(field, "gap requirement")
            }
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
        // After restoring everything, resume still works.
        assert!(mine_corpus(&corpus, g, 0.004, &resume_config).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_events_are_deterministic_and_complete() {
        #[derive(Default)]
        struct Collector {
            shards: Vec<(usize, bool, usize)>,
            completes: usize,
        }
        impl MineObserver for Collector {
            fn on_shard(&mut self, event: &ShardEvent) {
                self.shards.push((event.shard, event.restored, event.len));
            }
            fn on_complete(&mut self, _event: &CompleteEvent) {
                self.completes += 1;
            }
        }
        let dir = tmp_dir("events");
        let (path, seqs) = write_fixture(&dir, 3, 37);
        let corpus = Arc::new(Corpus::open(&path).unwrap());
        let g = gap(1, 2);
        let mut obs = Collector::default();
        mine_corpus_traced(
            &corpus,
            g,
            0.004,
            &CorpusMineConfig {
                threads: 2,
                ..CorpusMineConfig::default()
            },
            &mut obs,
        )
        .unwrap();
        assert_eq!(obs.completes, 1);
        assert_eq!(
            obs.shards,
            (0..3)
                .map(|j| (j, false, seqs[j].len()))
                .collect::<Vec<_>>()
        );
        fs::remove_dir_all(&dir).unwrap();
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
