//! Generator-driven suite over every record decoder the codec
//! (`perigap::core::wire`) serves: spill restore (through an injected
//! [`SpillIo`], as `spill_faults` does), `load_result_cache`,
//! `Corpus::open` (and every shard decode of a corpus that opens),
//! `load_outcome` and `load_sequence`.
//!
//! Inputs come in two kinds: arbitrary bytes (half of them behind a
//! valid header and a recomputed trailer, so they reach the fields),
//! and valid records with one change — a 1-, 4- or 8-byte field
//! overwritten with 0, 1, the type's maximum or a value near its top
//! bit (2^63 for 8-byte fields), a truncation, or appended bytes. Every
//! mutation recomputes the trailer, so only the decoders' own checks
//! stand between the bytes and the caller. Each case asserts no panic,
//! and either a typed error or a successful decode. Case counts: 64
//! spill-mutation cases, 32 arbitrary spill cases, 256 mutation cases
//! for each file decoder, and 256 arbitrary-byte cases.

use perigap::core::corpus::Corpus;
use perigap::core::spill::{MemSpillIo, SpillIo};
use perigap::core::trace::NoopObserver;
use perigap::core::wire::fnv1a;
use perigap::core::{load_result_cache, mine_incremental};
use perigap::prelude::*;
use perigap::store::{load_outcome, load_sequence, save_outcome, save_sequence, StoreError};
use proptest::prelude::*;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// One change to a valid record.
#[derive(Clone, Debug)]
enum Mutation {
    /// Overwrite field `index % fields` with value `kind` (0, 1, all
    /// ones, or the top bit plus `delta`).
    Field { index: usize, kind: u8, delta: u8 },
    /// Keep `keep % body length` bytes of the body.
    Truncate { keep: usize },
    /// Append bytes to the body.
    Append { bytes: Vec<u8> },
}

/// Field overwrites are listed twice, so they make half of all cases.
fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 0u8..4, 0u8..32).prop_map(|(index, kind, delta)| Mutation::Field {
            index,
            kind,
            delta
        }),
        (any::<usize>(), 0u8..4, 0u8..32).prop_map(|(index, kind, delta)| Mutation::Field {
            index,
            kind,
            delta
        }),
        any::<usize>().prop_map(|keep| Mutation::Truncate { keep }),
        collection::vec(any::<u8>(), 1..24).prop_map(|bytes| Mutation::Append { bytes }),
    ]
}

/// `(offset, width)` of each field of a record, found by stepping over
/// its layout. Supports count as their low 8 bytes; runs of codes and
/// payload by their first byte.
struct Walk<'a> {
    bytes: &'a [u8],
    at: usize,
    fields: Vec<(usize, usize)>,
}

impl<'a> Walk<'a> {
    /// Step over a `tag`-less or tagged header.
    fn new(bytes: &'a [u8], tagged: bool) -> Walk<'a> {
        let mut w = Walk {
            bytes,
            at: 0,
            fields: Vec::new(),
        };
        w.field(4);
        w.field(4);
        if tagged {
            w.field(1);
        }
        w
    }

    /// Record a field of `width` bytes and return its value (low 8
    /// bytes, little-endian).
    fn field(&mut self, width: usize) -> usize {
        let mut le = [0u8; 8];
        let n = width.min(8);
        le[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.fields.push((self.at, n));
        self.at += width;
        u64::from_le_bytes(le) as usize
    }

    /// Step over `n` bytes, recording the first as a field.
    fn run(&mut self, n: usize) {
        if n > 0 {
            self.field(1);
            self.at += n - 1;
        }
    }

    /// The fields, once the walk has reached the trailer exactly.
    fn done(self) -> Vec<(usize, usize)> {
        assert_eq!(
            self.at,
            self.bytes.len() - 8,
            "walk must end at the trailer"
        );
        self.fields
    }
}

fn spill_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut w = Walk::new(bytes, true);
    w.field(8);
    let level = w.field(4);
    w.field(1);
    for _ in 0..w.field(4) {
        w.run(level);
        for _ in 0..w.field(4) {
            w.field(4);
            w.field(8);
        }
    }
    w.done()
}

fn cache_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut w = Walk::new(bytes, true);
    for width in [8, 8, 4, 4, 4, 8, 1, 8, 1, 4, 8, 8, 8, 1] {
        w.field(width);
    }
    for _ in 0..w.field(8) {
        let len = w.field(4);
        w.run(len);
        w.field(16);
        w.field(8);
    }
    if w.field(1) == 1 {
        for _ in 0..w.field(4) {
            let level = w.field(4);
            for _ in 0..w.field(8) {
                w.run(level);
                w.field(16);
            }
        }
    }
    w.done()
}

fn corpus_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut w = Walk::new(bytes, false);
    w.field(1);
    w.field(1);
    for _ in 0..w.field(4) {
        let name = w.field(4);
        w.run(name);
        w.field(8);
        w.field(8);
    }
    let payload = bytes.len() - 8 - w.at;
    w.run(payload);
    w.done()
}

fn outcome_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut w = Walk::new(bytes, true);
    for _ in 0..4 {
        w.field(8);
    }
    for _ in 0..w.field(8) {
        let len = w.field(8);
        w.run(len);
        w.field(16);
        w.field(8);
    }
    w.done()
}

fn sequence_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut w = Walk::new(bytes, true);
    w.field(1);
    let letters = w.field(8);
    w.run(letters);
    w.field(8);
    let payload = w.field(8);
    w.run(payload);
    w.done()
}

/// Apply `m` to a valid record whose fields are `fields`, and re-sign
/// the result with a fresh FNV-1a trailer.
fn mutate(record: &[u8], fields: &[(usize, usize)], m: &Mutation) -> Vec<u8> {
    let mut body = record[..record.len() - 8].to_vec();
    match m {
        Mutation::Field { index, kind, delta } => {
            let (at, width) = fields[index % fields.len()];
            let top = 1u64 << (8 * width - 1);
            let value = match kind {
                0 => 0,
                1 => 1,
                2 => u64::MAX,
                _ => top.wrapping_add(u64::from(*delta)).wrapping_sub(16),
            };
            body[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        }
        Mutation::Truncate { keep } => body.truncate(keep % body.len()),
        Mutation::Append { bytes } => body.extend_from_slice(bytes),
    }
    let digest = fnv1a(&body);
    body.extend_from_slice(&digest.to_le_bytes());
    body
}

/// Arbitrary bytes; when `framed`, behind the first 9 bytes of `like`
/// (a valid header) and with a recomputed trailer.
fn arbitrary(bytes: &[u8], framed: bool, like: &[u8]) -> Vec<u8> {
    if !framed {
        return bytes.to_vec();
    }
    let mut body = like[..9].to_vec();
    body.extend_from_slice(bytes);
    let digest = fnv1a(&body);
    body.extend_from_slice(&digest.to_le_bytes());
    body
}

/// A per-process scratch directory.
fn scratch() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("perigap-prop-decoders-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    })
}

/// Write `bytes` to a file unique to this test, returning its path.
fn file(name: &str, bytes: &[u8]) -> PathBuf {
    let path = scratch().join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Valid fixture records: result caches with and without level maps,
/// DNA and protein packs, an outcome, DNA, protein and custom-alphabet
/// sequences.
struct Fixtures {
    caches: Vec<Vec<u8>>,
    corpora: Vec<Vec<u8>>,
    outcome: Vec<u8>,
    sequences: Vec<Vec<u8>>,
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let seq = Sequence::dna(&"ACGTTGCAAC".repeat(8)).unwrap();
        let caches = [(2, 2), (1, 3)]
            .into_iter()
            .map(|(min, max)| {
                let path = scratch().join(format!("fixture-{min}-{max}.pgrc"));
                let gap = GapRequirement::new(min, max).unwrap();
                let run = mine_incremental(
                    &seq,
                    gap,
                    0.02,
                    Algorithm::Mpp { n: 5 },
                    &MppConfig::default(),
                    &path,
                    &mut NoopObserver,
                )
                .unwrap();
                assert!(!run.outcome.frequent.is_empty());
                std::fs::read(&path).unwrap()
            })
            .collect();
        let packs = [
            vec![
                ("a".to_string(), Sequence::dna("ACGTACGTACGTAAGG").unwrap()),
                ("bb".to_string(), Sequence::dna("TTGACCAGTAG").unwrap()),
                ("c".to_string(), Sequence::dna("").unwrap()),
            ],
            vec![("p".to_string(), Sequence::protein("MKWVTFISLLW").unwrap())],
        ];
        let corpora = packs
            .iter()
            .enumerate()
            .map(|(i, seqs)| {
                let path = scratch().join(format!("fixture-{i}.pgco"));
                Corpus::write(&path, seqs).unwrap();
                std::fs::read(&path).unwrap()
            })
            .collect();
        let gap = GapRequirement::new(1, 2).unwrap();
        let outcome = mpp(&seq, gap, 0.02, 5, MppConfig::default()).unwrap();
        let outcome = save_outcome(Vec::new(), &outcome, gap, 0.02).unwrap();
        let custom = Alphabet::custom(b"01#").unwrap();
        let sequences = [
            Sequence::dna("ACGTTGCAA").unwrap(),
            Sequence::protein("MKWVTF").unwrap(),
            Sequence::from_str_checked(custom, "01#10").unwrap(),
        ]
        .iter()
        .map(|s| save_sequence(Vec::new(), s).unwrap())
        .collect();
        Fixtures {
            caches,
            corpora,
            outcome,
            sequences,
        }
    })
}

fn check_cache(bytes: &[u8], name: &str) -> Result<(), TestCaseError> {
    match load_result_cache(&file(name, bytes)) {
        Ok(_) | Err(MineError::CacheIo { .. }) => Ok(()),
        Err(other) => Err(TestCaseError::fail(format!("untyped: {other:?}"))),
    }
}

/// The open fails typed, or every shard of the opened corpus decodes
/// to a sequence or fails typed.
fn check_corpus(bytes: &[u8], name: &str) -> Result<(), TestCaseError> {
    match Corpus::open(&file(name, bytes)) {
        Err(MineError::CorpusIo { .. }) => Ok(()),
        Ok(corpus) => {
            for i in 0..corpus.len() {
                match corpus.sequence(i) {
                    Ok(_) | Err(MineError::CorpusIo { .. }) => {}
                    Err(other) => {
                        return Err(TestCaseError::fail(format!("shard {i} untyped: {other:?}")))
                    }
                }
            }
            Ok(())
        }
        Err(other) => Err(TestCaseError::fail(format!("untyped: {other:?}"))),
    }
}

fn check_store<T: std::fmt::Debug>(result: Result<T, StoreError>) -> Result<(), TestCaseError> {
    match result {
        Err(StoreError::Io(e)) => Err(TestCaseError::fail(format!("I/O error from a slice: {e}"))),
        _ => Ok(()),
    }
}

/// Stores faithfully; on restore, applies one mutation to the record.
#[derive(Debug, Default)]
struct MutatingIo {
    inner: MemSpillIo,
    mutation: Option<Mutation>,
    arbitrary: Option<(Vec<u8>, bool)>,
}

impl SpillIo for MutatingIo {
    fn write(&self, record: u64, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(record, bytes)
    }
    fn read(&self, record: u64) -> io::Result<Vec<u8>> {
        let bytes = self.inner.read(record)?;
        let fields = spill_fields(&bytes);
        Ok(match (&self.mutation, &self.arbitrary) {
            (Some(m), _) => mutate(&bytes, &fields, m),
            (None, Some((random, framed))) => arbitrary(random, *framed, &bytes),
            (None, None) => bytes,
        })
    }
    fn remove(&self, record: u64) -> io::Result<()> {
        self.inner.remove(record)
    }
}

/// The `spill_faults` workload: `ATAT…` under gap `[1,1]` spills two
/// or more records at a zero watermark and restores each one.
fn mine_through(io: MutatingIo, threads: usize) -> Result<(), TestCaseError> {
    let seq = Sequence::dna(&"AT".repeat(50)).unwrap();
    let config = MppConfig {
        max_arena_bytes: Some(1 << 20),
        spill_watermark: 0.0,
        spill: Some(Arc::new(io)),
        threads,
        ..MppConfig::default()
    };
    match mpp(&seq, GapRequirement::new(1, 1).unwrap(), 0.4, 20, config) {
        Ok(outcome) => {
            prop_assert!(outcome.stats.spilled_records >= 2);
            Ok(())
        }
        Err(MineError::SpillIo { .. }) => Ok(()),
        Err(other) => Err(TestCaseError::fail(format!("untyped: {other:?}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn mutated_spill_records_restore_or_fail_typed(m in mutation(), threads in 1usize..3) {
        mine_through(MutatingIo { mutation: Some(m), ..MutatingIo::default() }, threads)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn arbitrary_spill_bytes_fail_typed(
        random in collection::vec(any::<u8>(), 0..256),
        framed: bool,
    ) {
        mine_through(
            MutatingIo { arbitrary: Some((random, framed)), ..MutatingIo::default() },
            1,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn mutated_result_caches_load_or_fail_typed(m in mutation(), which in 0usize..2) {
        let record = &fixtures().caches[which];
        check_cache(&mutate(record, &cache_fields(record), &m), "mutated.pgrc")?;
    }

    #[test]
    fn mutated_corpus_packs_open_or_fail_typed(m in mutation(), which in 0usize..2) {
        let pack = &fixtures().corpora[which];
        check_corpus(&mutate(pack, &corpus_fields(pack), &m), "mutated.pgco")?;
    }

    #[test]
    fn mutated_store_files_load_or_fail_typed(m in mutation(), which in 0usize..4) {
        let f = fixtures();
        if which == 3 {
            let bytes = mutate(&f.outcome, &outcome_fields(&f.outcome), &m);
            check_store(load_outcome(&bytes[..]))?;
        } else {
            let record = &f.sequences[which];
            let bytes = mutate(record, &sequence_fields(record), &m);
            check_store(load_sequence(&bytes[..]))?;
        }
    }

    #[test]
    fn arbitrary_bytes_fail_typed_in_every_file_decoder(
        random in collection::vec(any::<u8>(), 0..512),
        framed: bool,
    ) {
        let f = fixtures();
        check_cache(&arbitrary(&random, framed, &f.caches[0]), "arbitrary.pgrc")?;
        check_corpus(&arbitrary(&random, framed, &f.corpora[0]), "arbitrary.pgco")?;
        check_store(load_outcome(&arbitrary(&random, framed, &f.outcome)[..]))?;
        check_store(load_sequence(&arbitrary(&random, framed, &f.sequences[0])[..]))?;
    }
}

/// The fixtures decode, and each walker steps over its record exactly.
#[test]
fn fixtures_decode_and_walk_to_the_trailer() {
    let f = fixtures();
    for record in &f.caches {
        assert!(load_result_cache(&file("fixture-check.pgrc", record)).is_ok());
        cache_fields(record);
    }
    for pack in &f.corpora {
        assert!(Corpus::open(&file("fixture-check.pgco", pack)).is_ok());
        corpus_fields(pack);
    }
    assert!(load_outcome(&f.outcome[..]).is_ok());
    outcome_fields(&f.outcome);
    for record in &f.sequences {
        assert!(load_sequence(&record[..]).is_ok());
        sequence_fields(record);
    }
    // The healthy restore walks every spill record it reads.
    let seq = Sequence::dna(&"AT".repeat(50)).unwrap();
    let config = MppConfig {
        max_arena_bytes: Some(1 << 20),
        spill_watermark: 0.0,
        spill: Some(Arc::new(MutatingIo::default())),
        ..MppConfig::default()
    };
    let out = mpp(&seq, GapRequirement::new(1, 1).unwrap(), 0.4, 20, config).unwrap();
    assert!(out.stats.spilled_records >= 2);
}
