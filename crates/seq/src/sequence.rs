//! Code-mapped subject sequences.
//!
//! A [`Sequence`] stores the alphabet codes of its characters (one byte
//! per character), which is what the mining algorithms consume. The
//! paper indexes sequences 1-based (`S[1]` is the first character);
//! [`Sequence::at1`] mirrors that convention while the storage itself is
//! the usual 0-based slice.

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use std::fmt;

/// A subject sequence over a finite alphabet, stored as dense codes.
#[derive(Clone, PartialEq, Eq)]
pub struct Sequence {
    alphabet: Alphabet,
    codes: Vec<u8>,
}

impl Sequence {
    /// Encode a text into a sequence. ASCII whitespace is skipped (FASTA
    /// bodies are line wrapped); any other character must belong to the
    /// alphabet.
    pub fn from_text(alphabet: Alphabet, text: &[u8]) -> Result<Sequence, SeqError> {
        let mut codes = Vec::with_capacity(text.len());
        for (pos, &ch) in text.iter().enumerate() {
            if ch.is_ascii_whitespace() {
                continue;
            }
            codes.push(alphabet.encode_char(ch, pos)?);
        }
        Ok(Sequence { alphabet, codes })
    }

    /// Convenience constructor from a `&str`.
    pub fn from_str_checked(alphabet: Alphabet, text: &str) -> Result<Sequence, SeqError> {
        Self::from_text(alphabet, text.as_bytes())
    }

    /// Build directly from codes, validating them against the alphabet.
    pub fn from_codes(alphabet: Alphabet, codes: Vec<u8>) -> Result<Sequence, SeqError> {
        let size = alphabet.size() as u8;
        for (pos, &c) in codes.iter().enumerate() {
            if c >= size {
                return Err(SeqError::UnknownLetter {
                    letter: char::from(c),
                    pos,
                });
            }
        }
        Ok(Sequence { alphabet, codes })
    }

    /// A DNA sequence from text — the common case in this workspace.
    pub fn dna(text: &str) -> Result<Sequence, SeqError> {
        Self::from_str_checked(Alphabet::Dna, text)
    }

    /// A protein sequence from text.
    pub fn protein(text: &str) -> Result<Sequence, SeqError> {
        Self::from_str_checked(Alphabet::Protein, text)
    }

    /// The alphabet this sequence is defined over.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of characters (the paper's `L`).
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True iff the sequence has no characters.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The raw code slice (0-based).
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// 1-based character access matching the paper's `S[i]` notation.
    ///
    /// # Panics
    /// Panics if `i` is 0 or exceeds the length.
    pub fn at1(&self, i: usize) -> u8 {
        assert!(
            i >= 1 && i <= self.codes.len(),
            "S[{i}] out of range 1..={}",
            self.codes.len()
        );
        self.codes[i - 1]
    }

    /// The character (letter) at 1-based position `i`.
    pub fn letter_at1(&self, i: usize) -> u8 {
        self.alphabet.letter(self.at1(i))
    }

    /// A contiguous sub-sequence covering 0-based `range`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Sequence {
        Sequence {
            alphabet: self.alphabet.clone(),
            codes: self.codes[range].to_vec(),
        }
    }

    /// Append another sequence over the same alphabet.
    ///
    /// # Panics
    /// Panics if the alphabets differ.
    pub fn extend_from(&mut self, other: &Sequence) {
        assert!(
            self.alphabet == other.alphabet,
            "cannot concatenate sequences over different alphabets"
        );
        self.codes.extend_from_slice(&other.codes);
    }

    /// Decode back to text.
    pub fn to_text(&self) -> String {
        self.codes
            .iter()
            .map(|&c| self.alphabet.letter(c) as char)
            .collect()
    }

    /// Per-code occurrence counts (length `alphabet.size()`).
    pub fn code_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.alphabet.size()];
        for &c in &self.codes {
            counts[c as usize] += 1;
        }
        counts
    }

    /// The reverse complement of a DNA sequence (A↔T, C↔G, reversed).
    /// Mining both strands means mining `S` and `S.reverse_complement()`.
    ///
    /// # Panics
    /// Panics if the sequence is not over [`Alphabet::Dna`].
    pub fn reverse_complement(&self) -> Sequence {
        assert!(
            self.alphabet == Alphabet::Dna,
            "reverse_complement is defined for DNA sequences"
        );
        // Codes: A=0, C=1, G=2, T=3 — complement is 3 − code.
        let codes = self.codes.iter().rev().map(|&c| 3 - c).collect();
        Sequence {
            alphabet: Alphabet::Dna,
            codes,
        }
    }

    /// Per-code occurrence frequencies summing to 1 (all zeros for an
    /// empty sequence).
    pub fn code_frequencies(&self) -> Vec<f64> {
        let counts = self.code_counts();
        let total = self.codes.len() as f64;
        if total == 0.0 {
            return vec![0.0; self.alphabet.size()];
        }
        counts.into_iter().map(|c| c as f64 / total).collect()
    }
}

impl fmt::Display for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One char a symbol, but a custom letter from 0x80 up takes two
        // bytes: cut after the 40th char, not the 40th byte.
        let text = self.to_text();
        match text.char_indices().nth(40) {
            None => write!(f, "Sequence({text:?})"),
            Some((cut, _)) => write!(f, "Sequence({:?}… len={})", &text[..cut], self.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_and_decodes() {
        let s = Sequence::dna("ACGTA").unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.codes(), &[0, 1, 2, 3, 0]);
        assert_eq!(s.to_text(), "ACGTA");
    }

    #[test]
    fn one_based_indexing_matches_paper() {
        // Paper Section 3: if S = ACGTA then S[1] = A, S[2] = C.
        let s = Sequence::dna("ACGTA").unwrap();
        assert_eq!(s.letter_at1(1), b'A');
        assert_eq!(s.letter_at1(2), b'C');
        assert_eq!(s.letter_at1(5), b'A');
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn at1_zero_panics() {
        let s = Sequence::dna("ACGT").unwrap();
        let _ = s.at1(0);
    }

    #[test]
    fn whitespace_is_skipped() {
        let s = Sequence::dna("AC\nGT\n  A").unwrap();
        assert_eq!(s.to_text(), "ACGTA");
    }

    #[test]
    fn lowercase_accepted() {
        let s = Sequence::dna("acgt").unwrap();
        assert_eq!(s.to_text(), "ACGT");
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = Sequence::dna("ACGN").unwrap_err();
        assert!(matches!(
            err,
            SeqError::UnknownLetter {
                letter: 'N',
                pos: 3
            }
        ));
    }

    #[test]
    fn from_codes_validates() {
        assert!(Sequence::from_codes(Alphabet::Dna, vec![0, 1, 2, 3]).is_ok());
        assert!(Sequence::from_codes(Alphabet::Dna, vec![0, 4]).is_err());
    }

    #[test]
    fn debug_cuts_long_text_after_forty_symbols() {
        let s = Sequence::dna(&"ACGT".repeat(11)).unwrap();
        assert_eq!(
            format!("{s:?}"),
            format!("Sequence({:?}… len=44)", "ACGT".repeat(10))
        );
        // Letters from 0x80 up print as two-byte chars.
        let wide = Alphabet::custom(&[b'A', 0xE9]).unwrap();
        let s = Sequence::from_codes(wide, [0, 1].repeat(30)).unwrap();
        assert_eq!(
            format!("{s:?}"),
            format!("Sequence({:?}… len=60)", "Aé".repeat(20))
        );
    }

    #[test]
    fn slicing_and_concat() {
        let s = Sequence::dna("ACGTACGT").unwrap();
        let mid = s.slice(2..6);
        assert_eq!(mid.to_text(), "GTAC");
        let mut a = s.slice(0..4);
        a.extend_from(&s.slice(4..8));
        assert_eq!(a, s);
    }

    #[test]
    fn counts_and_frequencies() {
        let s = Sequence::dna("AACCCCGT").unwrap();
        assert_eq!(s.code_counts(), vec![2, 4, 1, 1]);
        let f = s.code_frequencies();
        assert!((f[1] - 0.5).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let empty = Sequence::dna("").unwrap();
        assert_eq!(empty.code_frequencies(), vec![0.0; 4]);
    }

    #[test]
    fn reverse_complement_basic() {
        let s = Sequence::dna("AACGT").unwrap();
        assert_eq!(s.reverse_complement().to_text(), "ACGTT");
        // Involution: rc(rc(S)) = S.
        assert_eq!(s.reverse_complement().reverse_complement(), s);
        // Palindromic site (EcoRI): GAATTC is its own reverse complement.
        let eco = Sequence::dna("GAATTC").unwrap();
        assert_eq!(eco.reverse_complement(), eco);
        assert_eq!(Sequence::dna("").unwrap().reverse_complement().len(), 0);
    }

    #[test]
    #[should_panic(expected = "DNA")]
    fn reverse_complement_needs_dna() {
        let p = Sequence::protein("MKWV").unwrap();
        let _ = p.reverse_complement();
    }

    #[test]
    fn protein_rejects_nonstandard_codes() {
        let err = Sequence::protein("MKXVT").unwrap_err();
        assert!(matches!(
            err,
            SeqError::UnknownLetter {
                letter: 'X',
                pos: 2
            }
        ));
    }

    #[test]
    fn protein_sequences_roundtrip() {
        let s = Sequence::protein("ACDEFGHIKLMNPQRSTVWY").unwrap();
        assert_eq!(s.len(), 20);
        assert_eq!(s.to_text(), "ACDEFGHIKLMNPQRSTVWY");
    }
}
