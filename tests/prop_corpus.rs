//! Differential property tests for corpus-scale sharded mining: the
//! per-sequence shard fan-out (with and without a
//! checkpoint pause and rerun in the middle) must agree bit-for-bit
//! with the in-process [`mine_collection`] reference across thread
//! counts and kill points — plus fault coverage: a truncated corpus
//! file is a typed error, while a corrupt shard record and a checkpoint
//! directory that belongs to a different corpus are mined again.

use perigap::core::corpus::{
    mine_corpus, CheckpointConfig, Corpus, CorpusMineConfig, CorpusOutcome,
};
use perigap::core::mpp::MppConfig;
use perigap::prelude::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Fresh per-case scratch directory, removed on drop. Proptest runs
/// many cases per test so each gets a unique suffix.
struct Scratch(PathBuf);

static CASE: AtomicUsize = AtomicUsize::new(0);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "perigap-prop-corpus-{label}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Strategy: a named collection of 2–5 sequences over DNA or protein
/// (the two corpus alphabets), drawn from a 3-code sub-alphabet so
/// frequent patterns actually occur, with lengths straddling the
/// shortest-mineable boundary (some sequences too short to vote).
fn collection() -> impl Strategy<Value = Vec<(String, Sequence)>> {
    (any::<bool>(), 2usize..=5).prop_flat_map(|(protein, count)| {
        proptest::collection::vec(proptest::collection::vec(0u8..3, 4..90), count).prop_map(
            move |all| {
                all.into_iter()
                    .enumerate()
                    .map(|(i, codes)| {
                        let alphabet = if protein {
                            Alphabet::Protein
                        } else {
                            Alphabet::Dna
                        };
                        (
                            format!("seq-{i}"),
                            Sequence::from_codes(alphabet, codes).unwrap(),
                        )
                    })
                    .collect::<Vec<(String, Sequence)>>()
            },
        )
    })
}

/// Strategy: a gap requirement including the degenerate `N == M`.
fn gap_req() -> impl Strategy<Value = GapRequirement> {
    (0usize..3, 0usize..3).prop_map(|(n, w)| GapRequirement::new(n, n + w).unwrap())
}

fn config_grid(
    threads: usize,
    min_sequences: usize,
    checkpoint: Option<CheckpointConfig>,
) -> CorpusMineConfig {
    CorpusMineConfig {
        n: 10,
        min_sequences,
        mpp: MppConfig {
            threads,
            ..MppConfig::default()
        },
        checkpoint,
    }
}

fn reference(
    seqs: &[(String, Sequence)],
    gap: GapRequirement,
    rho: f64,
    min_sequences: usize,
) -> CollectionOutcome {
    let bare: Vec<Sequence> = seqs.iter().map(|(_, s)| s.clone()).collect();
    mine_collection(&bare, gap, rho, min_sequences, 10, MppConfig::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sharded mine agrees with `mine_collection` at every
    /// thread count.
    #[test]
    fn corpus_agrees_with_multiseq(
        seqs in collection(),
        gap in gap_req(),
        rho in prop_oneof![Just(0.01), Just(0.05), Just(0.2)],
        min_sequences in 1usize..=3,
        threads in 1usize..=3,
    ) {
        let scratch = Scratch::new("agree");
        let path = scratch.path("c.pgco");
        Corpus::write(&path, &seqs).unwrap();
        let corpus = Arc::new(Corpus::open(&path).unwrap());
        let want = reference(&seqs, gap, rho, min_sequences);
        let config = config_grid(threads, min_sequences, None);
        let got = mine_corpus(&corpus, gap, rho, &config).unwrap();
        prop_assert_eq!(&got.outcome, &want);
        prop_assert_eq!(got.stats.shards, seqs.len());
        prop_assert_eq!(got.stats.restored_shards, 0);
    }

    /// Pausing after a random number of shards and rerunning over the
    /// same checkpoint directory (possibly under a different thread
    /// count) still reproduces the reference bit-for-bit, and the rerun
    /// restores rather than re-mines the completed shards.
    #[test]
    fn corpus_resume_after_kill_point_is_bit_identical(
        seqs in collection(),
        gap in gap_req(),
        rho in prop_oneof![Just(0.01), Just(0.1)],
        kill_after in 0usize..=4,
        resume_threads in 1usize..=3,
    ) {
        let scratch = Scratch::new("resume");
        let path = scratch.path("c.pgco");
        Corpus::write(&path, &seqs).unwrap();
        let corpus = Arc::new(Corpus::open(&path).unwrap());
        let want = reference(&seqs, gap, rho, 1);

        let ckpt = scratch.path("ckpt");
        let pausing = CheckpointConfig {
            stop_after_shards: Some(kill_after.min(seqs.len())),
            ..CheckpointConfig::new(&ckpt)
        };
        // Serial first leg so the pause point is exact.
        let first = config_grid(1, 1, Some(pausing));
        let paused = mine_corpus(&corpus, gap, rho, &first);
        let restored_floor = match paused {
            Err(MineError::CorpusPaused { completed, total }) => {
                prop_assert_eq!(total, seqs.len());
                completed
            }
            Ok(full) => {
                // stop_after >= shard count: the run simply finishes.
                prop_assert_eq!(&full.outcome, &want);
                full.stats.mined_shards
            }
            // A pause after zero shards is refused before anything is
            // mined, so the rerun starts cold.
            Err(MineError::InvalidConfig { setting: "stop_after_shards", .. }) if kill_after == 0 => 0,
            Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other}"))),
        };

        let second = config_grid(resume_threads, 1, Some(CheckpointConfig::new(&ckpt)));
        let resumed = mine_corpus(&corpus, gap, rho, &second).unwrap();
        prop_assert_eq!(&resumed.outcome, &want);
        prop_assert!(resumed.stats.restored_shards >= restored_floor);
        prop_assert_eq!(resumed.stats.checkpoint_faults, 0);
        prop_assert_eq!(
            resumed.stats.restored_shards + resumed.stats.mined_shards,
            seqs.len()
        );
    }
}

fn demo_corpus(scratch: &Scratch, name: &str) -> (PathBuf, Vec<(String, Sequence)>) {
    let seqs: Vec<(String, Sequence)> = (0..3)
        .map(|i| {
            (
                format!("s{i}"),
                Sequence::dna(&"ACGTT".repeat(20 + 5 * i)).unwrap(),
            )
        })
        .collect();
    let path = scratch.path(name);
    Corpus::write(&path, &seqs).unwrap();
    (path, seqs)
}

fn mine_at(path: &Path, checkpoint: Option<CheckpointConfig>) -> CorpusOutcome {
    let corpus = Arc::new(Corpus::open(path).unwrap());
    let gap = GapRequirement::new(1, 3).unwrap();
    let config = config_grid(1, 1, checkpoint);
    mine_corpus(&corpus, gap, 0.005, &config).unwrap()
}

/// A corpus file cut short anywhere — header, table, payload or
/// trailer — opens as a typed [`MineError::CorpusIo`], never a panic
/// or a silent partial corpus.
#[test]
fn truncated_corpus_is_a_typed_error() {
    let scratch = Scratch::new("truncate");
    let (path, _) = demo_corpus(&scratch, "c.pgco");
    let bytes = std::fs::read(&path).unwrap();
    let cut = scratch.path("cut.pgco");
    for keep in (0..bytes.len()).step_by(13).chain([bytes.len() - 1]) {
        std::fs::write(&cut, &bytes[..keep]).unwrap();
        match Corpus::open(&cut) {
            Err(MineError::CorpusIo { .. }) => {}
            other => panic!("truncation at {keep} gave {other:?}"),
        }
    }
}

/// Every sampled corruption of one shard record — a flipped bit at
/// every third byte, header, key, outcome and trailer alike — fails the
/// record's checksum or key check, so that shard is mined again (one
/// counted fault) and the output is identical to a cold mine.
#[test]
fn corrupt_shard_record_is_re_mined() {
    let scratch = Scratch::new("record");
    let (path, _) = demo_corpus(&scratch, "c.pgco");
    let ckpt = scratch.path("ckpt");
    let cold = mine_at(&path, None);
    mine_at(&path, Some(CheckpointConfig::new(&ckpt)));
    let record = ckpt.join("shard-00000001.pgrc");
    let clean = std::fs::read(&record).unwrap();
    for byte in (0..clean.len()).step_by(3) {
        let mut bad = clean.clone();
        bad[byte] ^= 0x04;
        std::fs::write(&record, &bad).unwrap();
        let got = mine_at(&path, Some(CheckpointConfig::new(&ckpt)));
        assert_eq!(got.outcome, cold.outcome, "flip at byte {byte}");
        assert_eq!(got.stats.checkpoint_faults, 1, "flip at byte {byte}");
        assert_eq!(got.stats.mined_shards, 1, "flip at byte {byte}");
        // The re-mine rewrote the record whole.
        assert_eq!(
            std::fs::read(&record).unwrap(),
            clean,
            "flip at byte {byte}"
        );
    }

    // A re-signed record whose level map claims u32::MAX levels passes
    // the checksum; the decoder's count bound must still refuse it
    // before allocating, and the shard is mined again.
    let body = &clean[..clean.len() - 8];
    assert_eq!(body.last(), Some(&0), "checkpoints carry no level maps");
    let mut forged = body[..body.len() - 1].to_vec();
    forged.push(1);
    forged.extend_from_slice(&u32::MAX.to_le_bytes());
    let digest = perigap::core::wire::fnv1a(&forged);
    forged.extend_from_slice(&digest.to_le_bytes());
    std::fs::write(&record, &forged).unwrap();
    let got = mine_at(&path, Some(CheckpointConfig::new(&ckpt)));
    assert_eq!(got.outcome, cold.outcome);
    assert_eq!(got.stats.checkpoint_faults, 1);
    assert_eq!(std::fs::read(&record).unwrap(), clean);
}

/// A checkpoint directory written for a *different* corpus cannot line
/// shard indices up with the wrong sequences: every record's key pins
/// its own shard's sequence hash, so each shard is mined again and the
/// output equals the new corpus's cold mine.
#[test]
fn checkpoint_dir_from_another_corpus_is_re_mined() {
    let scratch = Scratch::new("mismatch");
    let (path_a, _) = demo_corpus(&scratch, "a.pgco");
    let other: Vec<(String, Sequence)> = (0..3)
        .map(|i| {
            (
                format!("t{i}"),
                Sequence::dna(&"AACGT".repeat(18 + 4 * i)).unwrap(),
            )
        })
        .collect();
    let path_b = scratch.path("b.pgco");
    Corpus::write(&path_b, &other).unwrap();

    let ckpt = scratch.path("ckpt");
    mine_at(&path_a, Some(CheckpointConfig::new(&ckpt)));
    let cold_b = mine_at(&path_b, None);
    let got = mine_at(&path_b, Some(CheckpointConfig::new(&ckpt)));
    assert_eq!(got.outcome, cold_b.outcome);
    assert_eq!(got.stats.mined_shards, 3);
    assert_eq!(got.stats.restored_shards, 0);
    assert_eq!(got.stats.checkpoint_faults, 3);
}
