//! # perigap-store
//!
//! Versioned binary persistence for the *perigap* workspace: save and
//! load subject sequences and mined outcomes. A mining run over a
//! genome can take minutes; its results should survive the process.
//!
//! Each file is one [`perigap_core::wire`] frame (all integers
//! little-endian):
//!
//! ```text
//! magic "PGST" | u32 version | u8 section tag | section payload … | u64 FNV-1a checksum
//! ```
//!
//! DNA sequences are stored 2-bit packed ([`perigap_seq::pack_codes`]);
//! other alphabets store raw codes. A load checks every length against
//! the bytes that remain and the checksum last, and returns nothing
//! from a truncated, corrupted or overlong file.

#![warn(missing_docs)]

pub mod index;

pub use index::{IndexEntry, PatternIndex};

use perigap_core::result::{FrequentPattern, MineOutcome, MineStats};
use perigap_core::wire::{Frame, Reader, WireError, Writer};
use perigap_core::{GapRequirement, Pattern};
use perigap_seq::{pack_codes, unpack_codes, Alphabet, Sequence};
use std::fmt;
use std::io::{Read, Write};

/// Sanity cap for on-disk blobs (1 GiB) — far above any real input,
/// low enough to refuse nonsense lengths from corrupt files.
const MAX_BLOB: u64 = 1 << 30;

/// Errors raised while saving or loading.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a perigap store or uses an unknown version.
    BadHeader(String),
    /// Structurally invalid contents.
    Corrupt(String),
    /// A length-prefixed blob claims more bytes than the caller's
    /// sanity limit allows — almost certainly a corrupt or hostile
    /// length field, refused before any allocation happens.
    BlobTooLarge {
        /// Length the file claims the blob has.
        len: u64,
        /// The sanity limit the caller imposed.
        max_len: u64,
    },
    /// The trailing checksum does not match.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum computed over the bytes actually read.
        computed: u64,
    },
    /// The file ended mid-read: a store cut short mid-section or
    /// mid-checksum, or a count that claims more than the bytes left.
    /// Distinguished from [`StoreError::Io`] so callers (and the serve
    /// daemon) can tell "partial file" from "disk trouble".
    Truncated {
        /// The section being read when the input ran out.
        section: String,
    },
    /// A stored pattern holds a code the alphabet has no letter for:
    /// the outcome was mined under a larger alphabet than the one it is
    /// read under.
    CodeOutsideAlphabet {
        /// The largest code the outcome holds.
        code: u8,
        /// The alphabet the outcome was read under.
        alphabet: Alphabet,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::BadHeader(msg) => write!(f, "bad store header: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::BlobTooLarge { len, max_len } => {
                write!(f, "blob length {len} exceeds the sanity limit {max_len}")
            }
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}"
            ),
            StoreError::Truncated { section } => {
                write!(f, "truncated store: input ended while reading {section}")
            }
            StoreError::CodeOutsideAlphabet { code, alphabet } => {
                let name = match alphabet {
                    Alphabet::Dna => "DNA",
                    Alphabet::Protein => "protein",
                    Alphabet::Custom(_) => "custom",
                };
                write!(
                    f,
                    "a stored pattern holds code {code}, but the {name} alphabet has {} letters",
                    alphabet.size()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Header(msg) => StoreError::BadHeader(msg),
            WireError::Truncated { section } | WireError::Count { section, .. } => {
                StoreError::Truncated {
                    section: section.to_string(),
                }
            }
            WireError::BlobTooLarge { len, max_len } => StoreError::BlobTooLarge { len, max_len },
            WireError::Checksum { stored, computed } => {
                StoreError::ChecksumMismatch { stored, computed }
            }
            WireError::Corrupt(msg) => StoreError::Corrupt(msg),
        }
    }
}

/// Read a whole store file into memory.
fn read_all<R: Read>(mut source: R) -> Result<Vec<u8>, StoreError> {
    let mut bytes = Vec::new();
    source.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Alphabet encoding on disk.
fn alphabet_code(alphabet: &Alphabet) -> (u8, Vec<u8>) {
    match alphabet {
        Alphabet::Dna => (0, Vec::new()),
        Alphabet::Protein => (1, Vec::new()),
        Alphabet::Custom(_) => (2, alphabet.letters().collect()),
    }
}

fn alphabet_from_code(code: u8, letters: &[u8]) -> Result<Alphabet, StoreError> {
    match code {
        0 => Ok(Alphabet::Dna),
        1 => Ok(Alphabet::Protein),
        2 => Alphabet::custom(letters)
            .map_err(|e| StoreError::Corrupt(format!("custom alphabet: {e}"))),
        other => Err(StoreError::Corrupt(format!(
            "unknown alphabet code {other}"
        ))),
    }
}

/// Save a sequence. DNA payloads are 2-bit packed.
pub fn save_sequence<W: Write>(mut sink: W, seq: &Sequence) -> Result<W, StoreError> {
    let mut w = Writer::new(Frame::SEQUENCE);
    let (code, letters) = alphabet_code(seq.alphabet());
    w.u8(code);
    w.blob(&letters);
    w.u64(seq.len() as u64);
    if *seq.alphabet() == Alphabet::Dna {
        w.blob(&pack_codes(seq.codes(), 2));
    } else {
        w.blob(seq.codes());
    }
    sink.write_all(&w.finish())?;
    Ok(sink)
}

/// Load a sequence saved by [`save_sequence`].
pub fn load_sequence<R: Read>(source: R) -> Result<Sequence, StoreError> {
    let bytes = read_all(source)?;
    let mut r = Reader::new(&bytes, Frame::SEQUENCE)?;
    r.section("alphabet");
    let code = r.u8()?;
    let letters = r.blob(256)?;
    let alphabet = alphabet_from_code(code, letters)?;
    r.section("sequence length");
    let len = r.u64()?;
    r.section("sequence payload");
    let payload = r.blob(MAX_BLOB)?;
    let codes = if alphabet == Alphabet::Dna {
        if payload.len() as u64 != len.div_ceil(4) {
            return Err(StoreError::Corrupt(format!(
                "packed payload holds {} bytes for {len} bases",
                payload.len()
            )));
        }
        unpack_codes(payload, 2, len as usize)
    } else {
        if payload.len() as u64 != len {
            return Err(StoreError::Corrupt(format!(
                "payload holds {} codes for stated length {len}",
                payload.len()
            )));
        }
        payload.to_vec()
    };
    let seq = Sequence::from_codes(alphabet, codes)
        .map_err(|e| StoreError::Corrupt(format!("invalid codes: {e}")))?;
    r.finish()?;
    Ok(seq)
}

/// Save a mined outcome together with the run parameters that produced
/// it (gap requirement and ρs), so a loaded file is self-describing.
pub fn save_outcome<W: Write>(
    mut sink: W,
    outcome: &MineOutcome,
    gap: GapRequirement,
    rho: f64,
) -> Result<W, StoreError> {
    let mut w = Writer::new(Frame::OUTCOME);
    w.u64(gap.min() as u64);
    w.u64(gap.max() as u64);
    w.f64(rho);
    w.u64(outcome.stats.n_used as u64);
    w.u64(outcome.frequent.len() as u64);
    for f in &outcome.frequent {
        w.blob(f.pattern.codes());
        w.u128(f.support);
        w.f64(f.ratio);
    }
    sink.write_all(&w.finish())?;
    Ok(sink)
}

/// A loaded outcome with its run parameters.
#[derive(Debug)]
pub struct LoadedOutcome {
    /// The mined patterns (stats are not persisted — only `n_used`).
    pub outcome: MineOutcome,
    /// Gap requirement of the original run.
    pub gap: GapRequirement,
    /// Support threshold of the original run.
    pub rho: f64,
}

impl LoadedOutcome {
    /// Check that every stored code has a letter in `alphabet`, so
    /// every pattern renders under it. Outcome files do not record the
    /// alphabet they were mined under; a reader names it, and this is
    /// the check that it named one large enough.
    pub fn check_alphabet(&self, alphabet: &Alphabet) -> Result<(), StoreError> {
        check_codes(self.outcome.frequent.iter().map(|f| &f.pattern), alphabet)
    }
}

/// Check that `alphabet` has a letter for every code of `patterns`, so
/// each renders under it; the error names the largest code.
pub fn check_codes<'a>(
    patterns: impl IntoIterator<Item = &'a Pattern>,
    alphabet: &Alphabet,
) -> Result<(), StoreError> {
    match patterns.into_iter().flat_map(|p| p.codes()).max() {
        Some(&code) if code as usize >= alphabet.size() => Err(StoreError::CodeOutsideAlphabet {
            code,
            alphabet: alphabet.clone(),
        }),
        _ => Ok(()),
    }
}

/// Load an outcome saved by [`save_outcome`].
pub fn load_outcome<R: Read>(source: R) -> Result<LoadedOutcome, StoreError> {
    let bytes = read_all(source)?;
    let mut r = Reader::new(&bytes, Frame::OUTCOME)?;
    r.section("run parameters");
    let gap_min = r.u64()? as usize;
    let gap_max = r.u64()? as usize;
    let gap = GapRequirement::new(gap_min, gap_max)
        .map_err(|e| StoreError::Corrupt(format!("gap requirement: {e}")))?;
    let rho = r.f64()?;
    if !(rho > 0.0 && rho <= 1.0) {
        return Err(StoreError::Corrupt(format!("threshold {rho} out of range")));
    }
    let n_used = r.u64()? as usize;
    r.section("pattern count");
    let count = r.u64()?;
    if count > 100_000_000 {
        return Err(StoreError::Corrupt(format!("absurd pattern count {count}")));
    }
    // Each pattern takes a blob length, at least one code, a support
    // and a ratio.
    r.section("pattern table");
    let count = r.count("pattern count", count, 8 + 1 + 16 + 8)?;
    let mut frequent = Vec::with_capacity(count);
    for _ in 0..count {
        let codes = r.blob(4096)?;
        if codes.is_empty() {
            return Err(StoreError::Corrupt("empty pattern".into()));
        }
        let support = r.u128()?;
        let ratio = r.f64()?;
        frequent.push(FrequentPattern {
            pattern: Pattern::from_codes(codes.to_vec()),
            support,
            ratio,
        });
    }
    r.finish()?;
    let outcome = MineOutcome {
        frequent,
        stats: MineStats {
            n_used,
            ..MineStats::default()
        },
    };
    Ok(LoadedOutcome { outcome, gap, rho })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigap_core::mpp::MppConfig;
    use perigap_core::mppm::mppm;
    use perigap_core::wire::fnv1a;
    use perigap_seq::gen::iid::uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dna(len: usize, seed: u64) -> Sequence {
        uniform(&mut StdRng::seed_from_u64(seed), Alphabet::Dna, len)
    }

    #[test]
    fn sequence_roundtrip_dna() {
        for len in [0usize, 1, 3, 4, 5, 257, 1000] {
            let seq = dna(len, 42 + len as u64);
            let buf = save_sequence(Vec::new(), &seq).unwrap();
            let back = load_sequence(&buf[..]).unwrap();
            assert_eq!(back, seq, "len {len}");
        }
    }

    #[test]
    fn sequence_roundtrip_protein_and_custom() {
        let protein = Sequence::protein("MKWVTFISLLLLFSSAYS").unwrap();
        let buf = save_sequence(Vec::new(), &protein).unwrap();
        assert_eq!(load_sequence(&buf[..]).unwrap(), protein);

        let alphabet = Alphabet::custom(b"01#").unwrap();
        let custom = Sequence::from_str_checked(alphabet, "0101##10").unwrap();
        let buf = save_sequence(Vec::new(), &custom).unwrap();
        assert_eq!(load_sequence(&buf[..]).unwrap(), custom);
    }

    #[test]
    fn dna_storage_is_packed() {
        let seq = dna(10_000, 7);
        let buf = save_sequence(Vec::new(), &seq).unwrap();
        // Header + packed payload + checksum: ~2,500 payload bytes, not 10,000.
        assert!(buf.len() < 2_700, "file is {} bytes", buf.len());
    }

    /// Byte length and FNV-1a digest of a fixed DNA and a fixed protein
    /// sequence file: any drift in the format fails here.
    #[test]
    fn sequence_format_is_pinned() {
        let dna = save_sequence(Vec::new(), &Sequence::dna("ACGTTGCAACGTTAC").unwrap()).unwrap();
        assert_eq!((dna.len(), fnv1a(&dna)), (46, 0x1388_4f73_afec_c145));
        let protein = Sequence::protein("MKWVTFISLLLLFSSAYS").unwrap();
        let protein = save_sequence(Vec::new(), &protein).unwrap();
        assert_eq!(
            (protein.len(), fnv1a(&protein)),
            (60, 0x42db_0cfd_ea81_c398)
        );
    }

    /// Byte length and FNV-1a digest of a fixed outcome file.
    #[test]
    fn outcome_format_is_pinned() {
        let pattern = |codes: &[u8], support: u128, ratio: f64| FrequentPattern {
            pattern: Pattern::from_codes(codes.to_vec()),
            support,
            ratio,
        };
        let outcome = MineOutcome {
            frequent: vec![
                pattern(&[0, 1, 2], 42, 0.25),
                pattern(&[3, 3, 0, 1], u128::MAX, 1.0),
            ],
            stats: MineStats {
                n_used: 9,
                ..MineStats::default()
            },
        };
        let gap = GapRequirement::new(1, 3).unwrap();
        let bytes = save_outcome(Vec::new(), &outcome, gap, 0.005).unwrap();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (128, 0x2970_f8ec_cb49_033d));
    }

    #[test]
    fn outcome_roundtrip() {
        let seq = dna(200, 9);
        let gap = GapRequirement::new(1, 3).unwrap();
        let rho = 0.001;
        let outcome = mppm(&seq, gap, rho, 3, MppConfig::default()).unwrap();
        assert!(!outcome.frequent.is_empty());
        let buf = save_outcome(Vec::new(), &outcome, gap, rho).unwrap();
        let loaded = load_outcome(&buf[..]).unwrap();
        assert_eq!(loaded.gap, gap);
        assert_eq!(loaded.rho, rho);
        assert_eq!(loaded.outcome.stats.n_used, outcome.stats.n_used);
        assert_eq!(loaded.outcome.frequent.len(), outcome.frequent.len());
        for (a, b) in loaded.outcome.frequent.iter().zip(&outcome.frequent) {
            assert_eq!(a.pattern, b.pattern);
            assert_eq!(a.support, b.support);
            assert_eq!(a.ratio, b.ratio);
        }
    }

    #[test]
    fn codes_outside_the_alphabet_are_a_typed_error() {
        let pattern = |codes: &[u8]| FrequentPattern {
            pattern: Pattern::from_codes(codes.to_vec()),
            support: 1,
            ratio: 0.5,
        };
        let loaded = |frequent| LoadedOutcome {
            outcome: MineOutcome {
                frequent,
                stats: MineStats::default(),
            },
            gap: GapRequirement::new(1, 1).unwrap(),
            rho: 0.5,
        };
        let protein = loaded(vec![pattern(&[0, 3]), pattern(&[7, 19, 2])]);
        match protein.check_alphabet(&Alphabet::Dna) {
            Err(e @ StoreError::CodeOutsideAlphabet { code: 19, .. }) => assert_eq!(
                e.to_string(),
                "a stored pattern holds code 19, but the DNA alphabet has 4 letters"
            ),
            other => panic!("expected CodeOutsideAlphabet(19), got {other:?}"),
        }
        protein.check_alphabet(&Alphabet::Protein).unwrap();
        loaded(vec![pattern(&[3, 3])])
            .check_alphabet(&Alphabet::Dna)
            .unwrap();
        loaded(Vec::new()).check_alphabet(&Alphabet::Dna).unwrap();
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let seq = dna(40, 3);
        let mut buf = save_sequence(Vec::new(), &seq).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            load_sequence(&buf[..]),
            Err(StoreError::BadHeader(_))
        ));

        let mut buf = save_sequence(Vec::new(), &seq).unwrap();
        buf[4] = 99; // version
        assert!(matches!(
            load_sequence(&buf[..]),
            Err(StoreError::BadHeader(_))
        ));
    }

    #[test]
    fn cross_section_loads_are_rejected() {
        let seq = dna(40, 4);
        let buf = save_sequence(Vec::new(), &seq).unwrap();
        assert!(matches!(
            load_outcome(&buf[..]),
            Err(StoreError::BadHeader(_))
        ));
    }

    #[test]
    fn bit_flip_is_detected() {
        let seq = dna(300, 5);
        let mut buf = save_sequence(Vec::new(), &seq).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        let result = load_sequence(&buf[..]);
        assert!(result.is_err(), "corruption must not load silently");
    }

    #[test]
    fn truncation_is_detected() {
        let seq = dna(300, 6);
        let buf = save_sequence(Vec::new(), &seq).unwrap();
        let result = load_sequence(&buf[..buf.len() - 3]);
        assert!(matches!(result, Err(StoreError::Truncated { .. })));
    }

    /// An outcome file cut at *any* byte — mid-header, mid-pattern,
    /// mid-checksum — must yield a typed error, never a partial
    /// `LoadedOutcome` and never a panic.
    #[test]
    fn outcome_truncated_at_every_byte_yields_a_typed_error() {
        let seq = dna(200, 10);
        let gap = GapRequirement::new(1, 3).unwrap();
        let outcome = mppm(&seq, gap, 0.001, 3, MppConfig::default()).unwrap();
        assert!(outcome.frequent.len() >= 2, "need a multi-pattern table");
        let buf = save_outcome(Vec::new(), &outcome, gap, 0.001).unwrap();
        for len in 0..buf.len() {
            match load_outcome(&buf[..len]) {
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::BadHeader(_)
                    | StoreError::Corrupt(_)
                    | StoreError::ChecksumMismatch { .. },
                ) => {}
                Err(other) => panic!("prefix of {len} bytes: untyped error {other:?}"),
                Ok(_) => panic!("prefix of {len} bytes loaded as a full outcome"),
            }
        }
        // The named section boundaries report truncation specifically.
        let boundaries = [
            (4, "file header"),     // mid-version
            (12, "run parameters"), // mid-gap
            (42, "pattern count"),  // one byte into the count
            (50, "pattern table"),  // mid-first-pattern
            (buf.len() - 3, "checksum trailer"),
        ];
        for (len, want) in boundaries {
            match load_outcome(&buf[..len]) {
                Err(StoreError::Truncated { section }) => {
                    assert_eq!(section, want, "cut at byte {len}");
                }
                other => panic!("cut at byte {len}: expected Truncated({want}), got {other:?}"),
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let seq = dna(500, 8);
        let path =
            std::env::temp_dir().join(format!("perigap-store-test-{}.pgst", std::process::id()));
        let file = std::fs::File::create(&path).unwrap();
        save_sequence(file, &seq).unwrap();
        let back = load_sequence(std::fs::File::open(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, seq);
    }

    /// Captures every record the engine spills, while serving reads
    /// from the real in-memory backend, so the raw bytes survive the
    /// engine's post-restore cleanup.
    #[derive(Debug, Default)]
    struct CapturingSpillIo {
        inner: perigap_core::spill::MemSpillIo,
        captured: std::sync::Mutex<Vec<(u64, Vec<u8>)>>,
    }

    impl perigap_core::spill::SpillIo for CapturingSpillIo {
        fn write(&self, record: u64, bytes: &[u8]) -> std::io::Result<()> {
            self.captured.lock().unwrap().push((record, bytes.to_vec()));
            self.inner.write(record, bytes)
        }

        fn read(&self, record: u64) -> std::io::Result<Vec<u8>> {
            self.inner.read(record)
        }

        fn remove(&self, record: u64) -> std::io::Result<()> {
            self.inner.remove(record)
        }
    }

    /// Spill records are written by `perigap_core::spill` through the
    /// same codec as this crate's files: a field-by-field walk with the
    /// codec's [`Reader`] pins their layout from outside core.
    #[test]
    fn spill_records_honor_the_store_wire_format() {
        use perigap_core::mpp::mpp;
        use std::sync::Arc;

        let seq = Sequence::dna(&"AT".repeat(50)).unwrap();
        let io = Arc::new(CapturingSpillIo::default());
        let config = MppConfig {
            max_arena_bytes: Some(1 << 20),
            spill_watermark: 0.0,
            spill: Some(Arc::clone(&io) as Arc<dyn perigap_core::spill::SpillIo>),
            ..MppConfig::default()
        };
        let gap = GapRequirement::new(1, 1).unwrap();
        let outcome = mpp(&seq, gap, 0.4, 20, config).unwrap();
        assert!(outcome.stats.spilled_records >= 2, "workload must spill");

        let captured = io.captured.lock().unwrap();
        assert_eq!(captured.len() as u64, outcome.stats.spilled_records);
        for (record, bytes) in captured.iter() {
            let mut r = Reader::new(bytes, Frame::SPILL).unwrap();
            assert_eq!(r.u64().unwrap(), *record);
            let level = r.u32().unwrap() as usize;
            assert!(level >= 1, "record {record}");
            assert!(r.u8().unwrap() <= 1, "record {record}: saturated flag");
            let n_patterns = r.u32().unwrap();
            assert!(n_patterns >= 1, "record {record}");
            for _ in 0..n_patterns {
                let _codes = r.bytes(level).unwrap();
                let n_entries = r.u32().unwrap();
                for _ in 0..n_entries {
                    let _offset = r.u32().unwrap();
                    let _count = r.u64().unwrap();
                }
            }
            r.finish().expect("digest must match");
        }
    }

    /// Corpus checkpoints are result-cache records written by
    /// `perigap_core::corpus`: every file a checkpointed mine leaves in
    /// its directory must be a `shard-*.pgrc` that reads as a
    /// [`Frame::RESULT_CACHE`] record with a valid trailing digest.
    #[test]
    fn corpus_checkpoints_honor_the_store_wire_format() {
        use perigap_core::corpus::{mine_corpus, CheckpointConfig, Corpus, CorpusMineConfig};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!(
            "perigap-store-corpus-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let seqs: Vec<(String, Sequence)> = (0..3)
            .map(|i| {
                (
                    format!("seq-{i}"),
                    Sequence::dna(&"ACGTT".repeat(30 + 10 * i)).unwrap(),
                )
            })
            .collect();
        let corpus_path = dir.join("corpus.pgco");
        Corpus::write(&corpus_path, &seqs).unwrap();
        let corpus = Arc::new(Corpus::open(&corpus_path).unwrap());
        let ckpt_dir = dir.join("ckpt");
        let gap = GapRequirement::new(1, 3).unwrap();
        let outcome = mine_corpus(
            &corpus,
            gap,
            0.005,
            &CorpusMineConfig {
                min_sequences: 2,
                checkpoint: Some(CheckpointConfig::new(&ckpt_dir)),
                ..CorpusMineConfig::default()
            },
        )
        .unwrap();
        assert!(!outcome.outcome.patterns.is_empty(), "fixture must mine");
        assert_eq!(outcome.stats.checkpoint_records, 3);

        let mut names = Vec::new();
        for entry in std::fs::read_dir(&ckpt_dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            assert!(
                name.starts_with("shard-") && name.ends_with(".pgrc"),
                "unexpected checkpoint file {name}"
            );
            let bytes = std::fs::read(&path).unwrap();
            let mut r = Reader::new(&bytes, Frame::RESULT_CACHE).expect(&name);
            r.bytes(bytes.len() - 9 - 8).unwrap(); // key and outcome
            r.finish().expect("record digest must match");
            names.push(name);
        }
        names.sort();
        assert_eq!(
            names,
            [
                "shard-00000000.pgrc",
                "shard-00000001.pgrc",
                "shard-00000002.pgrc"
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Incremental result-cache records are written by
    /// `perigap_core::incremental` through the same codec — a full walk
    /// (key, outcome, per-level candidate maps, trailing digest) with
    /// the codec's [`Reader`] pins their layout from outside core.
    #[test]
    fn result_cache_records_honor_the_store_wire_format() {
        use perigap_core::incremental::mine_incremental;
        use perigap_core::mpp::Algorithm;
        use perigap_core::trace::NoopObserver;

        let dir = std::env::temp_dir().join(format!(
            "perigap-store-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache_path = dir.join("cache.pgrc");
        let seq = Sequence::dna(&"ACGTT".repeat(60)).unwrap();
        let gap = GapRequirement::new(1, 1).unwrap();
        let run = mine_incremental(
            &seq,
            gap,
            0.01,
            Algorithm::Mpp { n: 6 },
            &MppConfig::default(),
            &cache_path,
            &mut NoopObserver,
        )
        .unwrap();
        assert!(!run.outcome.frequent.is_empty(), "fixture must mine");

        let bytes = std::fs::read(&cache_path).unwrap();
        let mut r = Reader::new(&bytes, Frame::RESULT_CACHE).unwrap();
        r.u64().unwrap(); // sequence hash
        assert_eq!(r.u64().unwrap(), seq.len() as u64);
        assert_eq!(r.u32().unwrap(), 4, "alphabet size");
        assert_eq!(r.u32().unwrap(), 1, "gap min");
        assert_eq!(r.u32().unwrap(), 1, "gap max");
        assert_eq!(r.u64().unwrap(), 0.01f64.to_bits(), "rho bits");
        assert_eq!(r.u8().unwrap(), 0, "algorithm = mpp");
        assert_eq!(r.u64().unwrap(), 6, "engine parameter");
        assert_eq!(r.u8().unwrap(), 0, "prune flag");
        r.u32().unwrap(); // start level
        r.u64().unwrap(); // max level (u64::MAX = none)
        let n_used = r.u64().unwrap();
        assert_eq!(n_used, run.outcome.stats.n_used as u64);
        assert_eq!(r.u64().unwrap(), u64::MAX, "no e_m on an MPP run");
        assert!(r.u8().unwrap() <= 1, "saturation flag");
        let n_patterns = r.u64().unwrap();
        assert_eq!(n_patterns as usize, run.outcome.frequent.len());
        for _ in 0..n_patterns {
            let len = r.u32().unwrap() as usize;
            let codes = r.bytes(len).unwrap();
            assert!(codes.iter().all(|&c| c < 4), "DNA codes");
            assert!(r.u128().unwrap() >= 1, "support");
            r.u64().unwrap(); // ratio bits
        }
        assert_eq!(r.u8().unwrap(), 1, "rigid-gap run carries level maps");
        let n_levels = r.u32().unwrap();
        assert!(n_levels >= 1);
        for _ in 0..n_levels {
            let level = r.u32().unwrap() as usize;
            assert!(level >= 1);
            let n_candidates = r.u64().unwrap();
            for _ in 0..n_candidates {
                let codes = r.bytes(level).unwrap();
                assert!(codes.iter().all(|&c| c < 4), "DNA codes");
                assert!(r.u128().unwrap() >= 1, "candidate support");
            }
        }
        r.finish().expect("record digest must match");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
