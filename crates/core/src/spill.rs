//! Spill-to-disk for the engine's cold subtree arenas.
//!
//! When [`crate::mpp::MppConfig::max_arena_bytes`] is set, the engine
//! ([`crate::dfs`]) no longer has to abort the moment the live arena
//! gauge fills up: at the component handoff it can serialize the
//! not-yet-scheduled component arenas through a [`SpillIo`] backend,
//! free them from the gauge, and restore each one on the worker that
//! pops its subtree task. Only the *hot* working set — one restored
//! component plus its deepest descend chain — has to fit under the
//! ceiling; [`crate::MineError::MemoryCeiling`] is reserved for runs
//! where even that fails.
//!
//! ## On-disk record layout
//!
//! Spill records reuse the `perigap-store` PGST wire conventions
//! (little-endian integers, magic, version, one tag byte, trailing
//! unhashed FNV-1a checksum). The store crate depends on this one, so
//! the conventions are duplicated here rather than imported; the store
//! reserves the tag (`perigap_store::TAG_SPILL`) and its compat test
//! decodes a record written here with its own `wire::Reader`.
//!
//! ```text
//! magic "PGST" | u32 version | u8 tag=3 | u64 record id
//! | u32 level | u8 saturated | u32 pattern count
//! | per pattern: codes (level bytes) | u32 entry count | (u32, u64)…
//! | u64 FNV-1a checksum of every preceding byte
//! ```
//!
//! The record id is stored inside the record, so a backend that hands
//! back the wrong file — or a torn file whose tail belongs to another
//! record — fails the id check or the checksum instead of silently
//! mining the wrong subtree. Decoding re-validates every structural
//! invariant the arena relies on (strictly ascending pattern codes,
//! strictly ascending PIL offsets) so corruption surfaces as a typed
//! [`crate::MineError::SpillIo`], never as a wrong pattern set.

use crate::arena::PilSet;
use crate::error::MineError;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 4] = b"PGST";
const VERSION: u32 = 1;
/// Section tag for spill records — mirrored as
/// `perigap_store::TAG_SPILL` (the store crate cannot be imported from
/// here without inverting the dependency).
const TAG_SPILL: u8 = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over `bytes` — the digest every PGST-framed record in this
/// crate trails with (spill records here, corpus checkpoint records and
/// manifests in [`crate::corpus`]).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut state = FNV_OFFSET;
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Storage backend for spill records.
///
/// The engine writes each cold component as one record, reads it
/// back exactly once when its subtree is scheduled, and removes it
/// afterwards. [`FsSpillIo`] is the production backend; the trait is
/// public so tests (and the fault-injection suite) can substitute
/// in-memory or misbehaving implementations via
/// [`crate::mpp::MppConfig::spill_io`].
///
/// Implementations must be safe to call from multiple worker threads
/// at once, but the engine never reads a record it has not finished
/// writing and never reads the same record twice.
pub trait SpillIo: Send + Sync + std::fmt::Debug {
    /// Persist the encoded bytes of one record.
    fn write(&self, record: u64, bytes: &[u8]) -> io::Result<()>;
    /// Read a record's bytes back, exactly as written.
    fn read(&self, record: u64) -> io::Result<Vec<u8>>;
    /// Remove a record that is no longer needed. A failure costs disk,
    /// not correctness — the engine surfaces it as a `spill-cleanup`
    /// warning trace event and counts it in
    /// [`crate::MineStats::spill_cleanup_failures`] rather than
    /// aborting the mine. Removing a record that no longer exists is
    /// not an error.
    fn remove(&self, record: u64) -> io::Result<()>;
}

/// The production [`SpillIo`]: one file per record under a spill
/// directory, named `spill-<record>.pgsp`.
#[derive(Debug)]
pub struct FsSpillIo {
    dir: PathBuf,
}

impl FsSpillIo {
    /// A backend writing into `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> FsSpillIo {
        FsSpillIo { dir: dir.into() }
    }

    fn path(&self, record: u64) -> PathBuf {
        self.dir.join(format!("spill-{record:08}.pgsp"))
    }
}

impl SpillIo for FsSpillIo {
    fn write(&self, record: u64, bytes: &[u8]) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        std::fs::write(self.path(record), bytes)
    }

    fn read(&self, record: u64) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(record))
    }

    fn remove(&self, record: u64) -> io::Result<()> {
        match std::fs::remove_file(self.path(record)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// An in-memory [`SpillIo`] for tests and benchmarks: behaves exactly
/// like a well-behaved disk without touching the filesystem.
#[derive(Debug, Default)]
pub struct MemSpillIo {
    records: Mutex<HashMap<u64, Vec<u8>>>,
}

impl SpillIo for MemSpillIo {
    fn write(&self, record: u64, bytes: &[u8]) -> io::Result<()> {
        self.records
            .lock()
            .expect("spill map lock")
            .insert(record, bytes.to_vec());
        Ok(())
    }

    fn read(&self, record: u64) -> io::Result<Vec<u8>> {
        self.records
            .lock()
            .expect("spill map lock")
            .get(&record)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("record {record}")))
    }

    fn remove(&self, record: u64) -> io::Result<()> {
        self.records.lock().expect("spill map lock").remove(&record);
        Ok(())
    }
}

/// Shared restore bookkeeping for one pool run: the backend plus a
/// taken-flag per record guaranteeing no two workers restore the same
/// record (a second taker is a scheduling bug and surfaces as a typed
/// error rather than double-charging the gauge).
#[derive(Debug)]
pub(crate) struct SpillState {
    pub(crate) io: Arc<dyn SpillIo>,
    taken: Vec<AtomicBool>,
}

impl SpillState {
    pub(crate) fn new(io: Arc<dyn SpillIo>, records: usize) -> SpillState {
        SpillState {
            io,
            taken: (0..records).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Claim `record` for restore. Errors if another worker already
    /// holds it.
    pub(crate) fn claim(&self, record: u64) -> Result<(), MineError> {
        let slot = self
            .taken
            .get(record as usize)
            .ok_or_else(|| spill_err(record, "unknown record id".into()))?;
        if slot.swap(true, Ordering::AcqRel) {
            return Err(spill_err(record, "restored twice".into()));
        }
        Ok(())
    }
}

pub(crate) fn spill_err(record: u64, message: String) -> MineError {
    MineError::SpillIo { record, message }
}

/// Serialize the `members` of `set` (ascending indices) as one spill
/// record. The members form a standalone generation: decoding yields a
/// compact [`PilSet`] holding exactly those patterns in order.
pub(crate) fn encode_record(record: u64, set: &PilSet, members: &[usize]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(TAG_SPILL);
    buf.extend_from_slice(&record.to_le_bytes());
    buf.extend_from_slice(&(set.level() as u32).to_le_bytes());
    buf.push(set.saturated() as u8);
    buf.extend_from_slice(&(members.len() as u32).to_le_bytes());
    for &i in members {
        buf.extend_from_slice(set.pattern_codes(i));
        let (offsets, counts) = set.entries(i);
        buf.extend_from_slice(&(offsets.len() as u32).to_le_bytes());
        for (offset, count) in offsets.iter().zip(counts) {
            buf.extend_from_slice(&offset.to_le_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
        }
    }
    let digest = fnv1a(&buf);
    buf.extend_from_slice(&digest.to_le_bytes());
    buf
}

/// A cursor over record bytes that turns every overrun into a typed
/// truncation error. The error constructor is injected so spill
/// records report [`MineError::SpillIo`] while corpus files and
/// result-cache records report their own variants from the same
/// cursor.
pub(crate) struct Take<'a> {
    bytes: &'a [u8],
    record: u64,
    err: fn(u64, String) -> MineError,
}

impl<'a> Take<'a> {
    pub(crate) fn new(bytes: &'a [u8], record: u64, err: fn(u64, String) -> MineError) -> Take<'a> {
        Take { bytes, record, err }
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], MineError> {
        if self.bytes.len() < n {
            return Err((self.err)(
                self.record,
                format!(
                    "truncated record: needed {n} more bytes, {} left",
                    self.bytes.len()
                ),
            ));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, MineError> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, MineError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("exact length"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, MineError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("exact length"),
        ))
    }

    pub(crate) fn u128(&mut self) -> Result<u128, MineError> {
        Ok(u128::from_le_bytes(
            self.bytes(16)?.try_into().expect("exact length"),
        ))
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len()
    }
}

/// Decode and fully validate a spill record written by
/// [`encode_record`]. Every failure mode — truncation, bit flips, the
/// wrong record handed back, structural nonsense — is a typed
/// [`MineError::SpillIo`]; a successfully decoded set upholds all
/// arena invariants.
pub(crate) fn decode_record(record: u64, bytes: &[u8]) -> Result<PilSet, MineError> {
    const TRAILER: usize = 8;
    if bytes.len() < TRAILER {
        return Err(spill_err(
            record,
            format!(
                "record of {} bytes is shorter than its checksum",
                bytes.len()
            ),
        ));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER);
    let stored = u64::from_le_bytes(trailer.try_into().expect("exact length"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(spill_err(
            record,
            format!(
                "checksum mismatch: record says {stored:#018x}, contents hash to {computed:#018x}"
            ),
        ));
    }
    let mut r = Take::new(body, record, spill_err);
    if r.bytes(4)? != MAGIC {
        return Err(spill_err(record, "bad magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(spill_err(record, format!("unknown version {version}")));
    }
    let tag = r.u8()?;
    if tag != TAG_SPILL {
        return Err(spill_err(record, format!("unexpected section tag {tag}")));
    }
    let stored_id = r.u64()?;
    if stored_id != record {
        return Err(spill_err(
            record,
            format!("record claims to be id {stored_id}"),
        ));
    }
    let level = r.u32()? as usize;
    if level == 0 {
        return Err(spill_err(record, "level 0 pattern set".into()));
    }
    let saturated = match r.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(spill_err(
                record,
                format!("saturation flag {other} is neither 0 nor 1"),
            ))
        }
    };
    let count = r.u32()? as usize;
    let mut set = PilSet::new(level);
    let mut offsets: Vec<u32> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut prev_codes: Option<&[u8]> = None;
    for _ in 0..count {
        let codes = r.bytes(level)?;
        if let Some(prev) = prev_codes {
            if prev >= codes {
                return Err(spill_err(
                    record,
                    "pattern codes are not strictly ascending".into(),
                ));
            }
        }
        prev_codes = Some(codes);
        let n_entries = r.u32()? as usize;
        // Each entry is 12 bytes; refuse a count the record cannot
        // hold before reserving for it.
        if n_entries > r.remaining() / 12 {
            return Err(spill_err(
                record,
                format!("PIL entry count {n_entries} exceeds the record size"),
            ));
        }
        offsets.clear();
        offsets.reserve(n_entries);
        counts.clear();
        counts.reserve(n_entries);
        for _ in 0..n_entries {
            let offset = r.u32()?;
            let count = r.u64()?;
            if offsets.last().is_some_and(|&p| p >= offset) {
                return Err(spill_err(
                    record,
                    "PIL offsets are not strictly ascending".into(),
                ));
            }
            offsets.push(offset);
            counts.push(count);
        }
        set.push_pattern(codes, (&offsets, &counts));
    }
    if !r.bytes.is_empty() {
        return Err(spill_err(
            record,
            format!("{} trailing bytes after the last pattern", r.bytes.len()),
        ));
    }
    set.set_saturated(saturated);
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::build_seed;
    use crate::gap::GapRequirement;
    use perigap_seq::Sequence;

    fn sample_set(saturated: bool) -> PilSet {
        let seq = Sequence::dna("ACGTTGCAACGTTACG").unwrap();
        let mut set = build_seed(&seq, GapRequirement::new(1, 3).unwrap(), 3);
        set.set_saturated(saturated);
        set
    }

    #[test]
    fn round_trip_is_identical() {
        for saturated in [false, true] {
            let set = sample_set(saturated);
            let members: Vec<usize> = (0..set.len()).collect();
            let bytes = encode_record(7, &set, &members);
            let back = decode_record(7, &bytes).unwrap();
            assert_eq!(back, set);
            assert_eq!(back.saturated(), saturated);

            // A pooled generation, whose chunk outputs were merged by
            // moving their buffers, writes the same record.
            let mid = set.len() / 2;
            let mut parts = [PilSet::new(set.level()), PilSet::new(set.level())];
            for i in 0..set.len() {
                parts[usize::from(i >= mid)].push_pattern(set.pattern_codes(i), set.entries(i));
            }
            let mut merged = PilSet::concat(set.level(), parts);
            merged.set_saturated(saturated);
            assert_eq!(encode_record(7, &merged, &members), bytes);
            assert_eq!(decode_record(7, &bytes).unwrap(), merged);
        }
    }

    #[test]
    fn member_subset_round_trips_compactly() {
        let set = sample_set(false);
        assert!(set.len() >= 4, "sample needs a few patterns");
        let members: Vec<usize> = (0..set.len()).step_by(2).collect();
        let bytes = encode_record(0, &set, &members);
        let back = decode_record(0, &bytes).unwrap();
        assert_eq!(back.len(), members.len());
        for (compact, &orig) in members.iter().enumerate() {
            assert_eq!(back.pattern_codes(compact), set.pattern_codes(orig));
            assert_eq!(back.entries(compact), set.entries(orig));
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let set = sample_set(false);
        let members: Vec<usize> = (0..set.len()).collect();
        let bytes = encode_record(3, &set, &members);
        // Flip one bit at a spread of positions, including the trailer.
        for pos in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x20;
            let err = decode_record(3, &corrupt)
                .expect_err(&format!("flip at byte {pos} must not decode"));
            assert!(matches!(err, MineError::SpillIo { record: 3, .. }));
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let set = sample_set(false);
        let members: Vec<usize> = (0..set.len()).collect();
        let bytes = encode_record(1, &set, &members);
        for len in 0..bytes.len() {
            let err = decode_record(1, &bytes[..len])
                .expect_err(&format!("prefix of {len} bytes must not decode"));
            assert!(matches!(err, MineError::SpillIo { record: 1, .. }));
        }
    }

    #[test]
    fn wrong_record_id_is_rejected() {
        let set = sample_set(false);
        let members: Vec<usize> = (0..set.len()).collect();
        let bytes = encode_record(5, &set, &members);
        let err = decode_record(6, &bytes).unwrap_err();
        assert!(
            err.to_string().contains("id 5"),
            "the error names the imposter: {err}"
        );
    }

    #[test]
    fn structural_nonsense_is_rejected_even_with_valid_checksum() {
        // Non-ascending pattern codes with a correct trailer: the
        // decoder must catch what the checksum cannot.
        let mut set = PilSet::new(2);
        set.push_pattern(&[1, 0], (&[1], &[1]));
        let one = encode_record(0, &set, &[0]);
        // Two copies of the same pattern => equal codes, not ascending.
        let mut body = one[..one.len() - 8].to_vec();
        let pattern_bytes = &one[26..one.len() - 8]; // codes + entry block
        body.extend_from_slice(pattern_bytes);
        body[22..26].copy_from_slice(&2u32.to_le_bytes()); // pattern count
        let digest = fnv1a(&body);
        body.extend_from_slice(&digest.to_le_bytes());
        let err = decode_record(0, &body).unwrap_err();
        assert!(
            err.to_string().contains("ascending"),
            "expected an ordering error, got: {err}"
        );
    }

    #[test]
    fn fs_backend_round_trips_and_removes() {
        let dir = std::env::temp_dir().join(format!("perigap-spill-test-{}", std::process::id()));
        let io = FsSpillIo::new(&dir);
        io.write(2, b"payload").unwrap();
        assert_eq!(io.read(2).unwrap(), b"payload");
        io.remove(2).unwrap();
        assert!(io.read(2).is_err());
        // Removing an already-gone record is not an error...
        io.remove(2).unwrap();
        // ...but a record trapped in an unreadable location is.
        let nested = FsSpillIo::new(dir.join("not-a-dir"));
        std::fs::write(dir.join("not-a-dir"), b"file, not dir").unwrap();
        assert!(nested.remove(0).is_err(), "ENOTDIR must surface");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_backend_round_trips_and_removes() {
        let io = MemSpillIo::default();
        io.write(9, b"abc").unwrap();
        assert_eq!(io.read(9).unwrap(), b"abc");
        io.remove(9).unwrap();
        assert!(io.read(9).is_err());
    }

    #[test]
    fn claim_admits_each_record_once() {
        let state = SpillState::new(Arc::new(MemSpillIo::default()), 2);
        state.claim(1).unwrap();
        assert!(state.claim(1).is_err(), "second claim must fail");
        state.claim(0).unwrap();
        assert!(state.claim(7).is_err(), "out-of-range id must fail");
    }
}
