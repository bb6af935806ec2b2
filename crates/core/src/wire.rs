//! The one record codec. Everything the miner writes to disk is one
//! frame:
//!
//! ```text
//! magic | u32 version | [u8 tag] | fields … | u64 FNV-1a of every preceding byte
//! ```
//!
//! That covers the spill records of [`crate::spill`], the result-cache
//! records of [`crate::incremental`] (corpus checkpoints are the same
//! records), the packed corpus of [`crate::corpus`] (magic `PGCO`, no
//! tag byte), and the sequence and outcome files of `perigap-store`.
//! All integers are little-endian. Each record kind is one [`Frame`]
//! constant here, so the magic, version and tag of every format live in
//! one place.
//!
//! [`Writer`] builds a frame in memory and appends the digest.
//! [`Reader`] walks one:
//!
//! - [`Reader::new`] checks the header;
//! - [`Reader::section`] names the part being read, so a truncation says
//!   where the input ended;
//! - [`Reader::count`] refuses any count the remaining bytes cannot
//!   hold, before the caller allocates for it;
//! - [`Reader::finish`] checks that exactly the 8-byte trailer is left
//!   and that it matches the digest of everything before it.
//!
//! Both hash as they go, so the serial FNV-1a chain overlaps the field
//! work. A decoder calls `finish` before it returns anything it
//! decoded. The digest comes last on purpose: FNV-1a detects corruption but does
//! not authenticate (anyone who edits a record can recompute it), so it
//! protects no decoder from hostile bytes; the count bounds do.

use std::fmt;

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Fold `bytes` into an FNV-1a state.
#[inline]
pub fn fnv1a_extend(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// 64-bit FNV-1a of `bytes`: the record trailer, and the hash that
/// addresses a result-cache record's sequence.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

const PGST: &[u8; 4] = b"PGST";
const PGCO: &[u8; 4] = b"PGCO";
const TAG_SEQUENCE: u8 = 1;
const TAG_OUTCOME: u8 = 2;
const TAG_SPILL: u8 = 3;
const TAG_RESULT_CACHE: u8 = 6;

/// The header of one record kind: magic, version and, for PGST
/// records, the section tag.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    magic: &'static [u8; 4],
    version: u32,
    tag: Option<u8>,
}

impl Frame {
    /// A subject sequence saved by `perigap_store::save_sequence`.
    pub const SEQUENCE: Frame = Frame::pgst(1, TAG_SEQUENCE);
    /// A mined outcome saved by `perigap_store::save_outcome`.
    pub const OUTCOME: Frame = Frame::pgst(1, TAG_OUTCOME);
    /// One spilled component arena ([`crate::spill`]).
    pub const SPILL: Frame = Frame::pgst(1, TAG_SPILL);
    /// A result-cache record ([`crate::incremental`]). Version 3
    /// dropped the engine byte from the key; any other version is
    /// refused and re-mined cold.
    pub const RESULT_CACHE: Frame = Frame::pgst(3, TAG_RESULT_CACHE);
    /// A packed corpus ([`crate::corpus`]): its own magic, no tag byte.
    pub const CORPUS: Frame = Frame {
        magic: PGCO,
        version: 1,
        tag: None,
    };

    const fn pgst(version: u32, tag: u8) -> Frame {
        Frame {
            magic: PGST,
            version,
            tag: Some(tag),
        }
    }
}

/// Why a record did not decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Wrong magic, version or tag: not a record of the kind asked for.
    Header(String),
    /// The input ended while reading `section`.
    Truncated {
        /// The section being read.
        section: &'static str,
    },
    /// A count claims more items than the bytes left can hold.
    Count {
        /// The section being read.
        section: &'static str,
        /// The field that holds the count.
        field: &'static str,
        /// The count as stored.
        count: u64,
        /// Bytes left after the count.
        left: usize,
    },
    /// A length-prefixed blob claims more bytes than the caller allows.
    BlobTooLarge {
        /// The stored length.
        len: u64,
        /// The caller's limit.
        max_len: u64,
    },
    /// The trailer is not the digest of the bytes before it.
    Checksum {
        /// The trailer as stored.
        stored: u64,
        /// The digest of the bytes read.
        computed: u64,
    },
    /// A decoded value breaks a rule of the record.
    Corrupt(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Header(message) | WireError::Corrupt(message) => f.write_str(message),
            WireError::Truncated { section } => {
                write!(f, "truncated: input ended while reading {section}")
            }
            WireError::Count {
                section,
                field,
                count,
                left,
            } => write!(
                f,
                "{field} {count} exceeds the {left} bytes left in {section}"
            ),
            WireError::BlobTooLarge { len, max_len } => {
                write!(f, "blob length {len} exceeds the sanity limit {max_len}")
            }
            WireError::Checksum { stored, computed } => write!(
                f,
                "checksum mismatch: trailer says {stored:#018x}, contents hash to {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Builds one framed record in memory, hashing as it writes.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
    hash: u64,
}

impl Writer {
    /// Start a record of kind `frame`: writes its header.
    pub fn new(frame: Frame) -> Writer {
        let mut w = Writer {
            buf: Vec::new(),
            hash: FNV_OFFSET,
        };
        w.bytes(frame.magic);
        w.u32(frame.version);
        if let Some(tag) = frame.tag {
            w.u8(tag);
        }
        w
    }

    /// Bytes written so far, header included: the file offset of the
    /// next field.
    pub fn position(&self) -> usize {
        self.buf.len()
    }

    /// Raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        // Hashing here rather than in one pass at the end lets the
        // serial FNV-1a chain overlap the caller's other work.
        self.hash = fnv1a_extend(self.hash, b);
        self.buf.extend_from_slice(b);
    }

    /// A `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A little-endian `u128`.
    #[inline]
    pub fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64` by bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `u64` length, then the bytes.
    pub fn blob(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.bytes(b);
    }

    /// Append the digest of everything written and return the record.
    pub fn finish(mut self) -> Vec<u8> {
        let digest = self.hash;
        self.u64(digest);
        self.buf
    }
}

/// Walks one framed record held in memory, hashing as it reads.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    hash: u64,
    section: &'static str,
}

impl<'a> Reader<'a> {
    /// Start reading `bytes` as a record of kind `frame`: checks the
    /// magic, the version and the tag.
    pub fn new(bytes: &'a [u8], frame: Frame) -> Result<Reader<'a>, WireError> {
        let mut r = Reader {
            bytes,
            pos: 0,
            hash: FNV_OFFSET,
            section: "file header",
        };
        let magic = r.bytes(4)?;
        if magic != frame.magic {
            return Err(WireError::Header(format!("bad magic {magic:02x?}")));
        }
        let version = r.u32()?;
        if version != frame.version {
            return Err(WireError::Header(format!(
                "unsupported version {version} (this build reads {})",
                frame.version
            )));
        }
        if let Some(tag) = frame.tag {
            let found = r.u8()?;
            if found != tag {
                return Err(WireError::Header(format!(
                    "section tag {found} where {tag} was expected"
                )));
            }
        }
        r.section = "record body";
        Ok(r)
    }

    /// Name the section about to be read, for truncation errors.
    pub fn section(&mut self, name: &'static str) {
        self.section = name;
    }

    /// Bytes consumed so far, header included: the file offset of the
    /// next field.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.bytes.len() - self.pos {
            return Err(WireError::Truncated {
                section: self.section,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        self.hash = fnv1a_extend(self.hash, out);
        Ok(out)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.bytes(N)?.try_into().expect("exact length"))
    }

    /// A `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `u128`.
    #[inline]
    pub fn u128(&mut self) -> Result<u128, WireError> {
        self.array().map(u128::from_le_bytes)
    }

    /// An `f64` by bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.u64().map(f64::from_bits)
    }

    /// A blob written by [`Writer::blob`], refused when its length
    /// exceeds `max_len`.
    pub fn blob(&mut self, max_len: u64) -> Result<&'a [u8], WireError> {
        let len = self.u64()?;
        if len > max_len {
            return Err(WireError::BlobTooLarge { len, max_len });
        }
        self.bytes(len as usize)
    }

    /// Check a count read from `field`: the bytes left must hold `n`
    /// items of at least `min_bytes_each` bytes. Returns the count as a
    /// `usize` that is safe to allocate for.
    pub fn count(
        &mut self,
        field: &'static str,
        n: u64,
        min_bytes_each: usize,
    ) -> Result<usize, WireError> {
        let left = self.bytes.len() - self.pos;
        match usize::try_from(n) {
            Ok(count) if count.checked_mul(min_bytes_each).is_some_and(|b| b <= left) => Ok(count),
            _ => Err(WireError::Count {
                section: self.section,
                field,
                count: n,
                left,
            }),
        }
    }

    /// Read the trailer: exactly 8 bytes must be left, and they must be
    /// the digest of every byte before them. Returns the digest.
    pub fn finish(mut self) -> Result<u64, WireError> {
        let computed = self.hash;
        self.section = "checksum trailer";
        let stored = self.u64()?;
        if self.pos != self.bytes.len() {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after the trailer",
                self.bytes.len() - self.pos
            )));
        }
        if stored != computed {
            return Err(WireError::Checksum { stored, computed });
        }
        Ok(stored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new(Frame::OUTCOME);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.u128(u128::MAX / 3);
        w.f64(0.12345);
        w.blob(b"hello");
        let buf = w.finish();

        let mut r = Reader::new(&buf, Frame::OUTCOME).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.f64().unwrap(), 0.12345);
        assert_eq!(r.blob(1024).unwrap(), b"hello");
        assert_eq!(r.finish().unwrap(), fnv1a(&buf[..buf.len() - 8]));
    }

    #[test]
    fn corruption_is_detected() {
        let mut w = Writer::new(Frame::OUTCOME);
        w.blob(b"payload");
        let mut buf = w.finish();
        // Flip one payload bit.
        buf[18] ^= 1;
        let mut r = Reader::new(&buf, Frame::OUTCOME).unwrap();
        let _ = r.blob(1024).unwrap();
        assert!(matches!(r.finish(), Err(WireError::Checksum { .. })));
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new(Frame::OUTCOME);
        w.u64(42);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..13], Frame::OUTCOME).unwrap();
        r.section("the answer");
        assert_eq!(
            r.u64(),
            Err(WireError::Truncated {
                section: "the answer"
            })
        );

        // Cut mid-checksum: the trailer read reports its own section.
        let mut r = Reader::new(&buf[..buf.len() - 3], Frame::OUTCOME).unwrap();
        let _ = r.u64().unwrap();
        assert_eq!(
            r.finish(),
            Err(WireError::Truncated {
                section: "checksum trailer"
            })
        );

        // Cut mid-header.
        assert_eq!(
            Reader::new(&buf[..6], Frame::OUTCOME).unwrap_err(),
            WireError::Truncated {
                section: "file header"
            }
        );
    }

    #[test]
    fn absurd_length_on_a_short_source_fails_without_a_giant_allocation() {
        // A length field claiming ~1 GiB over a short record fails on
        // the bytes that exist; nothing is sized by the claim.
        let mut w = Writer::new(Frame::OUTCOME);
        w.u64((1 << 30) - 1); // blob length prefix
        w.u64(0xFEED); // the only actual payload bytes
        let buf = w.finish();
        let mut r = Reader::new(&buf, Frame::OUTCOME).unwrap();
        assert!(matches!(r.blob(1 << 30), Err(WireError::Truncated { .. })));
        // The same holds for a count: refused before any allocation.
        let mut r = Reader::new(&buf, Frame::OUTCOME).unwrap();
        let n = r.u64().unwrap();
        assert_eq!(
            r.count("entry count", n, 1),
            Err(WireError::Count {
                section: "record body",
                field: "entry count",
                count: (1 << 30) - 1,
                left: 16,
            })
        );
        let mut r = Reader::new(&buf, Frame::OUTCOME).unwrap();
        r.u64().unwrap();
        assert_eq!(r.count("entry count", 2, 8), Ok(2));
        assert!(r.count("entry count", 3, 8).is_err());
        assert!(r.count("entry count", u64::MAX, 2).is_err());
    }

    #[test]
    fn oversized_blob_is_refused() {
        let mut w = Writer::new(Frame::OUTCOME);
        w.blob(&[0u8; 100]);
        let buf = w.finish();
        let mut r = Reader::new(&buf, Frame::OUTCOME).unwrap();
        assert_eq!(
            r.blob(10),
            Err(WireError::BlobTooLarge {
                len: 100,
                max_len: 10
            })
        );
    }

    #[test]
    fn oversized_blob_error_displays_both_lengths() {
        let mut w = Writer::new(Frame::OUTCOME);
        w.blob(&[0u8; 100]);
        let buf = w.finish();
        let mut r = Reader::new(&buf, Frame::OUTCOME).unwrap();
        let text = r.blob(10).unwrap_err().to_string();
        assert!(
            text.contains("100") && text.contains("10"),
            "display must carry the claimed length and the limit: {text}"
        );
    }

    #[test]
    fn fnv_vectors() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_extend(fnv1a(b"fo"), b"o"), fnv1a(b"foo"));
    }

    #[test]
    fn headers_of_other_kinds_and_trailing_bytes_are_refused() {
        let buf = Writer::new(Frame::SPILL).finish();
        Reader::new(&buf, Frame::SPILL).unwrap().finish().unwrap();
        for other in [Frame::SEQUENCE, Frame::RESULT_CACHE, Frame::CORPUS] {
            assert!(matches!(
                Reader::new(&buf, other),
                Err(WireError::Header(_))
            ));
        }
        let mut long = buf.clone();
        long.push(0);
        assert_eq!(
            Reader::new(&long, Frame::SPILL).unwrap().finish(),
            Err(WireError::Corrupt(
                "1 trailing bytes after the trailer".into()
            ))
        );
        // A corpus frame has no tag byte: 8 header bytes, then fields.
        let corpus = Writer::new(Frame::CORPUS);
        assert_eq!(corpus.position(), 8);
        assert_eq!(&corpus.finish()[..4], b"PGCO");
    }
}
