//! Fault injection for the spill-to-disk layer: whatever the backing
//! storage does — short writes, a full disk mid-record, torn reads,
//! flipped bits, or a panic inside a restore — the engine must either
//! return the correct pattern set or a typed error in bounded time.
//! It must never hang and never "succeed" with a wrong answer.
//!
//! Every injector wraps the real in-memory backend
//! ([`MemSpillIo`]) so the fault is the *only* difference from a
//! healthy run.

use perigap::core::spill::{MemSpillIo, SpillIo};
use perigap::prelude::*;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// The workload every test mines: `ATATAT…` under gap `[1,1]` splits
/// into two components at the seed level, so a zero watermark forces a
/// spill of (at least) two records followed by their restores.
fn mine_with(io: Arc<dyn SpillIo>, threads: usize) -> Result<MineOutcome, MineError> {
    let seq = Sequence::dna(&"AT".repeat(50)).unwrap();
    let gap = GapRequirement::new(1, 1).unwrap();
    let config = MppConfig {
        max_arena_bytes: Some(1 << 20),
        spill_watermark: 0.0,
        spill_io: Some(io),
        ..MppConfig::default()
    };
    mpp(&seq, gap, 0.4, 20, MppConfig { threads, ..config })
}

/// The healthy baseline the faulty runs are measured against.
fn healthy_outcome() -> MineOutcome {
    let out = mine_with(Arc::new(MemSpillIo::default()), 1).expect("healthy run mines");
    assert!(out.stats.spilled_records >= 2, "workload must spill");
    out
}

/// After any abort the engine sweeps the spill backend: no record may
/// survive an error exit. (The workload spills only a handful of
/// records; probing a fixed range past that is enough.)
fn assert_backend_empty(inner: &MemSpillIo, label: &str) {
    for record in 0..16u64 {
        assert!(
            inner.read(record).is_err(),
            "{label}: record {record} survived the abort sweep"
        );
    }
}

/// A faulty run may only ever fail with the typed spill error — and if
/// it somehow succeeds, the answer must be the correct one.
fn assert_fails_typed(result: Result<MineOutcome, MineError>, label: &str) {
    match result {
        Err(MineError::SpillIo { .. }) => {}
        Ok(out) => {
            assert_eq!(
                out.frequent,
                healthy_outcome().frequent,
                "{label}: a run that claims success must not lie"
            );
            panic!("{label}: the injected fault was never hit");
        }
        Err(other) => panic!("{label}: expected MineError::SpillIo, got {other:?}"),
    }
}

/// Drops the tail of every record on the way to storage.
#[derive(Debug, Default)]
struct ShortWriteIo {
    inner: MemSpillIo,
}

impl SpillIo for ShortWriteIo {
    fn write(&self, record: u64, bytes: &[u8]) -> io::Result<()> {
        let keep = bytes.len().saturating_sub(7);
        self.inner.write(record, &bytes[..keep])
    }
    fn read(&self, record: u64) -> io::Result<Vec<u8>> {
        self.inner.read(record)
    }
    fn remove(&self, record: u64) -> io::Result<()> {
        self.inner.remove(record)
    }
}

/// Accepts the first record, then the disk is full.
#[derive(Debug, Default)]
struct FullDiskIo {
    inner: MemSpillIo,
}

impl SpillIo for FullDiskIo {
    fn write(&self, record: u64, bytes: &[u8]) -> io::Result<()> {
        if record >= 1 {
            return Err(io::Error::other("ENOSPC: no space left on device"));
        }
        self.inner.write(record, bytes)
    }
    fn read(&self, record: u64) -> io::Result<Vec<u8>> {
        self.inner.read(record)
    }
    fn remove(&self, record: u64) -> io::Result<()> {
        self.inner.remove(record)
    }
}

/// Stores faithfully, returns only the first half on restore.
#[derive(Debug, Default)]
struct TornReadIo {
    inner: MemSpillIo,
}

impl SpillIo for TornReadIo {
    fn write(&self, record: u64, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(record, bytes)
    }
    fn read(&self, record: u64) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(record)?;
        bytes.truncate(bytes.len() / 2);
        Ok(bytes)
    }
    fn remove(&self, record: u64) -> io::Result<()> {
        self.inner.remove(record)
    }
}

/// Stores faithfully; on restore, forges the first pattern's PIL entry
/// count to `u32::MAX` and re-signs the record, so only the count check
/// (not the checksum) can catch it.
#[derive(Debug, Default)]
struct ForgedCountIo {
    inner: MemSpillIo,
}

impl SpillIo for ForgedCountIo {
    fn write(&self, record: u64, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(record, bytes)
    }
    fn read(&self, record: u64) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(record)?;
        // magic, version, tag, record id, then the level and the
        // saturation flag ahead of the pattern count.
        let level = u32::from_le_bytes(bytes[17..21].try_into().unwrap()) as usize;
        let count_at = 4 + 4 + 1 + 8 + 4 + 1 + 4 + level;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let body = bytes.len() - 8;
        let digest = bytes[..body]
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            });
        bytes[body..].copy_from_slice(&digest.to_le_bytes());
        Ok(bytes)
    }
    fn remove(&self, record: u64) -> io::Result<()> {
        self.inner.remove(record)
    }
}

/// Stores faithfully, flips one payload bit on restore.
#[derive(Debug, Default)]
struct BitFlipIo {
    inner: MemSpillIo,
}

impl SpillIo for BitFlipIo {
    fn write(&self, record: u64, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(record, bytes)
    }
    fn read(&self, record: u64) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(record)?;
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        Ok(bytes)
    }
    fn remove(&self, record: u64) -> io::Result<()> {
        self.inner.remove(record)
    }
}

#[test]
fn short_writes_are_caught_on_restore() {
    for threads in [1usize, 2] {
        let io = Arc::new(ShortWriteIo::default());
        let label = format!("short write, {threads} threads");
        assert_fails_typed(mine_with(Arc::clone(&io) as _, threads), &label);
        assert_backend_empty(&io.inner, &label);
    }
}

#[test]
fn full_disk_mid_spill_fails_typed_and_cleans_up() {
    let io = Arc::new(FullDiskIo::default());
    assert_fails_typed(mine_with(Arc::clone(&io) as _, 1), "full disk");
    // The record written before the disk filled up was removed again:
    // a failed spill leaves nothing behind.
    assert_backend_empty(&io.inner, "full disk");
}

#[test]
fn torn_reads_are_caught_on_restore() {
    for threads in [1usize, 2] {
        let io = Arc::new(TornReadIo::default());
        let label = format!("torn read, {threads} threads");
        assert_fails_typed(mine_with(Arc::clone(&io) as _, threads), &label);
        assert_backend_empty(&io.inner, &label);
    }
}

/// A forged entry count is refused before anything is reserved for it:
/// a typed error, never an allocation abort.
#[test]
fn forged_entry_count_is_caught_on_restore() {
    for threads in [1usize, 2] {
        let io = Arc::new(ForgedCountIo::default());
        let label = format!("forged count, {threads} threads");
        match mine_with(Arc::clone(&io) as _, threads) {
            Err(MineError::SpillIo { message, .. }) => {
                assert!(message.contains("entry count"), "{label}: {message}");
            }
            other => panic!("{label}: expected MineError::SpillIo, got {other:?}"),
        }
        assert_backend_empty(&io.inner, &label);
    }
}

#[test]
fn flipped_bits_are_caught_on_restore() {
    for threads in [1usize, 2] {
        let io = Arc::new(BitFlipIo::default());
        let label = format!("bit flip, {threads} threads");
        assert_fails_typed(mine_with(Arc::clone(&io) as _, threads), &label);
        assert_backend_empty(&io.inner, &label);
    }
}

/// Stores and restores faithfully, but every removal fails as if the
/// directory had been made read-only mid-run.
#[derive(Debug, Default)]
struct StickyRemoveIo {
    inner: MemSpillIo,
}

impl SpillIo for StickyRemoveIo {
    fn write(&self, record: u64, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(record, bytes)
    }
    fn read(&self, record: u64) -> io::Result<Vec<u8>> {
        self.inner.read(record)
    }
    fn remove(&self, _record: u64) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            "EACCES: spill dir went read-only",
        ))
    }
}

/// A backend that cannot delete its records must not fail the mine —
/// the run completes with the correct patterns, counts every failed
/// removal in `spill_cleanup_failures`, and emits one `spill-cleanup`
/// warning trace event per record.
#[test]
fn failed_cleanup_is_a_warning_not_an_error() {
    use perigap::core::trace::MetricsObserver;

    let seq = Sequence::dna(&"AT".repeat(50)).unwrap();
    let gap = GapRequirement::new(1, 1).unwrap();
    let config = MppConfig {
        max_arena_bytes: Some(1 << 20),
        spill_watermark: 0.0,
        spill_io: Some(Arc::new(StickyRemoveIo::default())),
        ..MppConfig::default()
    };
    let mut metrics = MetricsObserver::new();
    let algorithm = Algorithm::Mpp { n: 20 };
    let out = mine(&seq, gap, 0.4, algorithm, &config, &mut metrics)
        .expect("cleanup failures must not abort the mine");
    assert_eq!(out.frequent, healthy_outcome().frequent);
    assert!(
        out.stats.spill_cleanup_failures >= 2,
        "every failed removal is counted, got {}",
        out.stats.spill_cleanup_failures
    );
    assert_eq!(
        metrics.warnings.len() as u64,
        out.stats.spill_cleanup_failures,
        "one warning per failed removal"
    );
    assert!(metrics.warnings.iter().all(|w| w.kind == "spill-cleanup"));
}

/// Panics inside [`SpillIo::read`], but only on pool worker threads
/// (named `pgmine-worker-<id>`); on the mining thread it first parks
/// long enough for a worker to wake up and claim the other record,
/// then restores normally.
#[derive(Debug, Default)]
struct PanicOnWorkerIo {
    inner: MemSpillIo,
}

impl SpillIo for PanicOnWorkerIo {
    fn write(&self, record: u64, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(record, bytes)
    }
    fn read(&self, record: u64) -> io::Result<Vec<u8>> {
        let on_worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("pgmine-worker"));
        if on_worker {
            panic!("injected restore panic");
        }
        std::thread::sleep(Duration::from_millis(100));
        self.inner.read(record)
    }
    fn remove(&self, record: u64) -> io::Result<()> {
        self.inner.remove(record)
    }
}

/// A worker dying mid-restore must surface as [`MineError::WorkerFailed`]
/// through the pool's liveness fallback — in bounded time, never as a
/// hang waiting on the dead worker's result.
#[test]
fn panic_during_restore_drains_the_pool_instead_of_hanging() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(mine_with(Arc::new(PanicOnWorkerIo::default()), 4));
    });
    let result = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("mine must finish in bounded time, not deadlock");
    match result {
        Err(MineError::WorkerFailed { message, .. }) => {
            assert!(message.contains("injected"), "unexpected message {message}");
        }
        Ok(_) => panic!("a worker died mid-restore; the run cannot have drained cleanly"),
        Err(other) => panic!("expected WorkerFailed, got {other:?}"),
    }
}
