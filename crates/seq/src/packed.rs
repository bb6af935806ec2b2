//! 2-bit packed storage for DNA sequences.
//!
//! Whole genomes run to megabases; storing one base per byte wastes 4×
//! the memory actually needed for a 4-letter alphabet. `PackedDna` packs
//! four bases per byte and converts losslessly to and from [`Sequence`].
//! The mining algorithms operate on byte-coded sequences (random access
//! is hotter than footprint there); the packed form is the at-rest and
//! I/O representation for large inputs.
//!
//! [`pack_codes`] is the same bit stream for any alphabet, at
//! [`bits_per_symbol`] bits a symbol: the store and the corpus pack use it.

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use crate::sequence::Sequence;

/// A DNA sequence packed at 2 bits per base (4 bases per byte).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PackedDna {
    /// Packed payload; base `i` lives in byte `i / 4`, bits `2·(i % 4)`.
    bytes: Vec<u8>,
    len: usize,
}

impl PackedDna {
    /// An empty packed sequence.
    pub fn new() -> Self {
        PackedDna::default()
    }

    /// Pack a byte-coded DNA sequence.
    ///
    /// # Panics
    /// Panics if the sequence is not over [`Alphabet::Dna`].
    pub fn from_sequence(seq: &Sequence) -> PackedDna {
        assert!(
            *seq.alphabet() == Alphabet::Dna,
            "PackedDna requires a DNA sequence"
        );
        let mut packed = PackedDna::with_capacity(seq.len());
        for &code in seq.codes() {
            packed.push(code);
        }
        packed
    }

    /// Pack from text (delegates validation to [`Sequence::dna`]).
    pub fn from_text(text: &str) -> Result<PackedDna, SeqError> {
        Ok(Self::from_sequence(&Sequence::dna(text)?))
    }

    /// Pre-allocate room for `bases` bases.
    pub fn with_capacity(bases: usize) -> PackedDna {
        PackedDna {
            bytes: Vec::with_capacity(bases.div_ceil(4)),
            len: 0,
        }
    }

    /// Number of bases stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no bases are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of heap payload used (for footprint assertions).
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Append one base code (0..4).
    ///
    /// # Panics
    /// Panics if `code >= 4`.
    pub fn push(&mut self, code: u8) {
        assert!(code < 4, "DNA code must be 0..4, got {code}");
        let slot = self.len % 4;
        if slot == 0 {
            self.bytes.push(0);
        }
        let byte = self.bytes.last_mut().expect("byte was just ensured");
        *byte |= code << (2 * slot);
        self.len += 1;
    }

    /// The base code at 0-based index `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> u8 {
        assert!(
            i < self.len,
            "index {i} out of range for {} bases",
            self.len
        );
        (self.bytes[i / 4] >> (2 * (i % 4))) & 0b11
    }

    /// Overwrite the base code at 0-based index `i`.
    ///
    /// # Panics
    /// Panics if `i >= len` or `code >= 4`.
    pub fn set(&mut self, i: usize, code: u8) {
        assert!(
            i < self.len,
            "index {i} out of range for {} bases",
            self.len
        );
        assert!(code < 4, "DNA code must be 0..4, got {code}");
        let shift = 2 * (i % 4);
        let byte = &mut self.bytes[i / 4];
        *byte = (*byte & !(0b11 << shift)) | (code << shift);
    }

    /// Iterate over the base codes.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Unpack into a byte-coded [`Sequence`].
    pub fn to_sequence(&self) -> Sequence {
        let codes: Vec<u8> = self.iter().collect();
        Sequence::from_codes(Alphabet::Dna, codes).expect("packed codes are always valid")
    }
}

/// Bits per symbol that pack an alphabet of `sigma` symbols:
/// `⌈log₂ σ⌉`, at least 1 (2 for DNA, 5 for protein).
///
/// # Panics
/// Panics if `sigma` is 0.
pub fn bits_per_symbol(sigma: usize) -> u32 {
    assert!(sigma > 0, "alphabet cannot be empty");
    (usize::BITS - (sigma - 1).leading_zeros()).max(1)
}

/// Bytes needed to pack `len` symbols at `bits` bits per symbol.
pub fn packed_len(len: usize, bits: u32) -> usize {
    (len * bits as usize).div_ceil(8)
}

/// Pack byte codes into a little-endian bit stream at `bits` bits per
/// symbol: symbol `i` occupies bits `i·bits .. (i+1)·bits` of the
/// stream, least-significant bit of each byte first. For `bits == 2`
/// the layout is identical to [`PackedDna`]; wider alphabets (protein
/// at 5 bits) straddle byte boundaries.
///
/// # Panics
/// Panics if `bits` is outside `1..=8` or any code needs more than
/// `bits` bits.
pub fn pack_codes(codes: &[u8], bits: u32) -> Vec<u8> {
    assert!((1..=8).contains(&bits), "bits must be 1..=8, got {bits}");
    let mut bytes = vec![0u8; packed_len(codes.len(), bits)];
    for (i, &code) in codes.iter().enumerate() {
        assert!(
            (code as u32) < (1 << bits),
            "code {code} does not fit in {bits} bits"
        );
        let bit = i * bits as usize;
        let spread = (code as u16) << (bit % 8);
        bytes[bit / 8] |= spread as u8;
        if spread > 0xff {
            bytes[bit / 8 + 1] |= (spread >> 8) as u8;
        }
    }
    bytes
}

/// Inverse of [`pack_codes`]: recover `len` symbol codes from a
/// little-endian bit stream at `bits` bits per symbol.
///
/// # Panics
/// Panics if `bits` is outside `1..=8` or `bytes` is shorter than
/// [`packed_len`]`(len, bits)`.
pub fn unpack_codes(bytes: &[u8], bits: u32, len: usize) -> Vec<u8> {
    assert!((1..=8).contains(&bits), "bits must be 1..=8, got {bits}");
    assert!(
        bytes.len() >= packed_len(len, bits),
        "need {} packed bytes for {len} symbols at {bits} bits, got {}",
        packed_len(len, bits),
        bytes.len()
    );
    let mask = (1u16 << bits) - 1;
    (0..len)
        .map(|i| {
            let bit = i * bits as usize;
            let mut word = bytes[bit / 8] as u16;
            if bit % 8 + bits as usize > 8 {
                word |= (bytes[bit / 8 + 1] as u16) << 8;
            }
            ((word >> (bit % 8)) & mask) as u8
        })
        .collect()
}

impl FromIterator<u8> for PackedDna {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        let mut packed = PackedDna::new();
        for code in iter {
            packed.push(code);
        }
        packed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_text() {
        let p = PackedDna::from_text("ACGTACGTAC").unwrap();
        assert_eq!(p.len(), 10);
        assert_eq!(p.to_sequence().to_text(), "ACGTACGTAC");
    }

    #[test]
    fn packs_four_bases_per_byte() {
        let p = PackedDna::from_text("ACGTACGT").unwrap();
        assert_eq!(p.payload_bytes(), 2);
        let p = PackedDna::from_text("ACGTA").unwrap();
        assert_eq!(p.payload_bytes(), 2);
        let p = PackedDna::from_text("ACGT").unwrap();
        assert_eq!(p.payload_bytes(), 1);
    }

    #[test]
    fn get_and_set() {
        let mut p = PackedDna::from_text("AAAA").unwrap();
        p.set(2, 3);
        assert_eq!(p.get(2), 3);
        assert_eq!(p.to_sequence().to_text(), "AATA");
        // Neighbours untouched.
        assert_eq!(p.get(1), 0);
        assert_eq!(p.get(3), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let p = PackedDna::from_text("ACG").unwrap();
        let _ = p.get(3);
    }

    #[test]
    #[should_panic(expected = "DNA code")]
    fn push_invalid_code_panics() {
        let mut p = PackedDna::new();
        p.push(4);
    }

    #[test]
    fn from_iterator() {
        let p: PackedDna = [0u8, 1, 2, 3, 3, 2, 1, 0].into_iter().collect();
        assert_eq!(p.to_sequence().to_text(), "ACGTTGCA");
    }

    #[test]
    fn empty() {
        let p = PackedDna::new();
        assert!(p.is_empty());
        assert_eq!(p.to_sequence().len(), 0);
        assert_eq!(p.payload_bytes(), 0);
    }

    #[test]
    fn bits_cover_the_alphabet() {
        assert_eq!(bits_per_symbol(1), 1);
        assert_eq!(bits_per_symbol(2), 1);
        assert_eq!(bits_per_symbol(4), 2);
        assert_eq!(bits_per_symbol(5), 3);
        assert_eq!(bits_per_symbol(20), 5);
        assert_eq!(bits_per_symbol(256), 8);
    }

    #[test]
    fn pack_codes_matches_packed_dna_at_two_bits() {
        let codes = [0u8, 1, 2, 3, 3, 2, 1, 0, 2];
        let dna: PackedDna = codes.iter().copied().collect();
        let packed = pack_codes(&codes, 2);
        assert_eq!(packed.len(), dna.payload_bytes());
        assert_eq!(unpack_codes(&packed, 2, codes.len()), codes.to_vec());
        for (i, &code) in codes.iter().enumerate() {
            assert_eq!((packed[i / 4] >> (2 * (i % 4))) & 0b11, code);
        }
    }

    #[test]
    fn pack_codes_roundtrips_every_width() {
        for bits in 1..=8u32 {
            let max = 1u16 << bits;
            let codes: Vec<u8> = (0..200u16).map(|i| ((i * 7 + 3) % max) as u8).collect();
            let packed = pack_codes(&codes, bits);
            assert_eq!(packed.len(), packed_len(codes.len(), bits), "bits {bits}");
            assert_eq!(
                unpack_codes(&packed, bits, codes.len()),
                codes,
                "bits {bits}"
            );
        }
    }

    #[test]
    fn pack_codes_straddles_byte_boundaries() {
        // 5-bit protein-width codes: symbol 1 spans bytes 0 and 1.
        let codes = [0b10101u8, 0b11011, 0b00110];
        let packed = pack_codes(&codes, 5);
        assert_eq!(packed.len(), 2);
        assert_eq!(unpack_codes(&packed, 5, 3), codes.to_vec());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_codes_rejects_wide_code() {
        pack_codes(&[4], 2);
    }

    #[test]
    fn pack_codes_empty() {
        assert!(pack_codes(&[], 5).is_empty());
        assert!(unpack_codes(&[], 5, 0).is_empty());
    }
}
