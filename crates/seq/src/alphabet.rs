//! Finite alphabets over which subject sequences and patterns are defined.
//!
//! The paper works with the DNA alphabet `{A, C, G, T}` and the 20-letter
//! amino-acid alphabet; the mining algorithms themselves only require a
//! finite alphabet, so a custom variant is provided too. Characters are
//! mapped to dense small codes (`0..size`) so sequences can be stored and
//! compared as byte slices.
//!
//! Every variant decodes through one 256-entry byte → code table: const
//! tables for DNA and protein (lowercase letters included) and the custom
//! alphabet's own. [`Alphabet::code`] is one lookup, and
//! `Alphabet::encode` decodes a whole text through the table in one
//! pass; `Sequence::from_text` and the FASTA reader both go through it.

use crate::error::SeqError;
use std::fmt;
use std::sync::Arc;

/// The 20 standard amino-acid one-letter codes, alphabetically ordered.
pub const AMINO_ACIDS: &[u8; 20] = b"ACDEFGHIKLMNPQRSTVWY";

/// The DNA nucleotide letters in the conventional order.
pub const DNA_BASES: &[u8; 4] = b"ACGT";

/// A code table's entry for a byte that is not a letter of the alphabet.
const ABSENT: u8 = u8::MAX;

/// The byte → code table of `letters`, each letter's lowercase form
/// included.
const fn folded_table(letters: &[u8]) -> [u8; 256] {
    let mut codes = [ABSENT; 256];
    let mut i = 0;
    while i < letters.len() {
        codes[letters[i] as usize] = i as u8;
        codes[letters[i].to_ascii_lowercase() as usize] = i as u8;
        i += 1;
    }
    codes
}

const DNA_CODES: [u8; 256] = folded_table(DNA_BASES);
const PROTEIN_CODES: [u8; 256] = folded_table(AMINO_ACIDS);

/// A finite alphabet: a bijection between characters and dense codes.
///
/// Cloning is cheap — custom alphabets share their tables via [`Arc`].
#[derive(Clone, PartialEq, Eq)]
pub enum Alphabet {
    /// `{A, C, G, T}` with codes 0..4.
    Dna,
    /// The 20 standard amino acids with codes 0..20.
    Protein,
    /// An arbitrary user-supplied character set.
    Custom(Arc<CustomAlphabet>),
}

/// Backing tables for [`Alphabet::Custom`].
#[derive(Clone, PartialEq, Eq)]
pub struct CustomAlphabet {
    letters: Vec<u8>,
    /// 256-entry reverse map; `u8::MAX` marks characters not in the set.
    codes: [u8; 256],
}

impl Alphabet {
    /// Build a custom alphabet from its character set.
    ///
    /// Characters must be distinct; at most 255 characters are supported
    /// (code `255` is reserved as the "absent" marker).
    pub fn custom(letters: &[u8]) -> Result<Alphabet, SeqError> {
        if letters.is_empty() {
            return Err(SeqError::EmptyAlphabet);
        }
        if letters.len() > 255 {
            return Err(SeqError::AlphabetTooLarge(letters.len()));
        }
        let mut codes = [ABSENT; 256];
        for (i, &ch) in letters.iter().enumerate() {
            if codes[ch as usize] != ABSENT {
                return Err(SeqError::DuplicateLetter(ch as char));
            }
            codes[ch as usize] = i as u8;
        }
        Ok(Alphabet::Custom(Arc::new(CustomAlphabet {
            letters: letters.to_vec(),
            codes,
        })))
    }

    /// Number of characters in the alphabet.
    pub fn size(&self) -> usize {
        match self {
            Alphabet::Dna => 4,
            Alphabet::Protein => 20,
            Alphabet::Custom(c) => c.letters.len(),
        }
    }

    /// The character for a code.
    ///
    /// # Panics
    /// Panics if `code >= self.size()`.
    pub fn letter(&self, code: u8) -> u8 {
        match self {
            Alphabet::Dna => DNA_BASES[code as usize],
            Alphabet::Protein => AMINO_ACIDS[code as usize],
            Alphabet::Custom(c) => c.letters[code as usize],
        }
    }

    /// The byte → code table: entry `b` is the code of byte `b`, or
    /// `u8::MAX` when `b` is not a letter of the alphabet.
    fn table(&self) -> &[u8; 256] {
        match self {
            Alphabet::Dna => &DNA_CODES,
            Alphabet::Protein => &PROTEIN_CODES,
            Alphabet::Custom(c) => &c.codes,
        }
    }

    /// The code for a character, or `None` if the character is not in the
    /// alphabet. DNA and protein lookups accept lowercase letters.
    pub fn code(&self, letter: u8) -> Option<u8> {
        let code = self.table()[letter as usize];
        (code != ABSENT).then_some(code)
    }

    /// Append the codes of `text` to `codes`, skipping ASCII whitespace
    /// (which wins over a custom alphabet's whitespace letter).
    ///
    /// The first other byte outside the alphabet fails as
    /// [`SeqError::UnknownLetter`] at `offset` plus its index in `text`.
    /// The error names the character that byte begins when `text` holds
    /// a whole UTF-8 character there, and the byte itself otherwise
    /// (only a custom alphabet holding bytes from `0x80` up can stop
    /// inside a character).
    pub(crate) fn encode(
        &self,
        text: &[u8],
        offset: usize,
        codes: &mut Vec<u8>,
    ) -> Result<(), SeqError> {
        let table = self.table();
        codes.reserve(text.len());
        for (i, &byte) in text.iter().enumerate() {
            if byte.is_ascii_whitespace() {
                continue;
            }
            match table[byte as usize] {
                ABSENT => {
                    return Err(SeqError::UnknownLetter {
                        letter: char_at(text, i),
                        pos: offset + i,
                    })
                }
                code => codes.push(code),
            }
        }
        Ok(())
    }

    /// Iterate over all codes `0..size`.
    pub fn codes(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.size() as u8).collect::<Vec<_>>().into_iter()
    }

    /// Iterate over all characters of the alphabet.
    pub fn letters(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.size() as u8).map(move |c| self.letter(c))
    }
}

/// The character that begins at `text[i]`, or that byte read as a
/// `char` when no whole UTF-8 character begins there.
fn char_at(text: &[u8], i: usize) -> char {
    text[i..text.len().min(i + 4)]
        .utf8_chunks()
        .next()
        .and_then(|chunk| chunk.valid().chars().next())
        .unwrap_or(char::from(text[i]))
}

impl fmt::Debug for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Alphabet::Dna => f.write_str("Alphabet::Dna"),
            Alphabet::Protein => f.write_str("Alphabet::Protein"),
            Alphabet::Custom(c) => write!(
                f,
                "Alphabet::Custom({:?})",
                String::from_utf8_lossy(&c.letters)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dna_bijection() {
        let a = Alphabet::Dna;
        assert_eq!(a.size(), 4);
        for code in 0..4u8 {
            assert_eq!(a.code(a.letter(code)), Some(code));
        }
        assert_eq!(a.code(b'a'), Some(0));
        assert_eq!(a.code(b't'), Some(3));
        assert_eq!(a.code(b'N'), None);
    }

    #[test]
    fn protein_bijection() {
        let a = Alphabet::Protein;
        assert_eq!(a.size(), 20);
        for code in 0..20u8 {
            assert_eq!(a.code(a.letter(code)), Some(code));
        }
        // B, J, O, U, X, Z are not standard amino acids.
        for ch in [b'B', b'J', b'O', b'U', b'X', b'Z'] {
            assert_eq!(a.code(ch), None, "{}", ch as char);
        }
    }

    #[test]
    fn custom_roundtrip() {
        let a = Alphabet::custom(b"01").unwrap();
        assert_eq!(a.size(), 2);
        assert_eq!(a.code(b'0'), Some(0));
        assert_eq!(a.code(b'1'), Some(1));
        assert_eq!(a.code(b'2'), None);
        assert_eq!(a.letter(1), b'1');
    }

    #[test]
    fn custom_rejects_bad_inputs() {
        assert!(matches!(
            Alphabet::custom(b""),
            Err(SeqError::EmptyAlphabet)
        ));
        assert!(matches!(
            Alphabet::custom(b"AA"),
            Err(SeqError::DuplicateLetter('A'))
        ));
        let too_many: Vec<u8> = (0..=255u8).collect();
        assert!(matches!(
            Alphabet::custom(&too_many),
            Err(SeqError::AlphabetTooLarge(256))
        ));
    }

    #[test]
    fn encode_reports_the_first_bad_letter() {
        let mut codes = Vec::new();
        Alphabet::Dna.encode(b"ac\r\n GT", 0, &mut codes).unwrap();
        assert_eq!(codes, [0, 1, 2, 3]);
        let err = |alphabet: &Alphabet, text: &[u8]| {
            alphabet.encode(text, 17, &mut Vec::new()).unwrap_err()
        };
        let unknown = |letter, pos| SeqError::UnknownLetter { letter, pos };
        assert_eq!(err(&Alphabet::Dna, b"ACXGN"), unknown('X', 19));
        // A non-ASCII letter is named as the character the text holds.
        assert_eq!(err(&Alphabet::Dna, "ACGÑT".as_bytes()), unknown('Ñ', 20));
        assert_eq!(err(&Alphabet::Protein, "A✓".as_bytes()), unknown('✓', 18));
        // A byte that begins no whole character is named as itself.
        assert_eq!(err(&Alphabet::Dna, b"A\xC3"), unknown('\u{C3}', 18));
        assert_eq!(err(&Alphabet::Dna, b"A\x91C"), unknown('\u{91}', 18));
        // Inside a character a custom letter begins, the next byte is
        // not a character's start.
        let wide = Alphabet::custom(&[b'A', 0xC3]).unwrap();
        assert_eq!(err(&wide, "AÑ".as_bytes()), unknown('\u{91}', 19));
        // ASCII whitespace is skipped even when the alphabet holds it.
        let spaced = Alphabet::custom(b" A").unwrap();
        let mut codes = Vec::new();
        spaced.encode(b"A A", 0, &mut codes).unwrap();
        assert_eq!(codes, [1, 1]);
    }

    #[test]
    fn tables_match_the_letters() {
        // DNA and protein fold lowercase onto their letters; a custom
        // alphabet takes its bytes as they are.
        for (alphabet, fold) in [
            (Alphabet::Dna, true),
            (Alphabet::Protein, true),
            (Alphabet::custom(b"01#a").unwrap(), false),
        ] {
            for byte in 0..=255u8 {
                let key = if fold {
                    byte.to_ascii_uppercase()
                } else {
                    byte
                };
                let want = alphabet.letters().position(|l| l == key);
                assert_eq!(
                    alphabet.code(byte),
                    want.map(|i| i as u8),
                    "{alphabet:?} byte {byte}"
                );
            }
        }
    }

    #[test]
    fn letters_iterator() {
        let dna: Vec<u8> = Alphabet::Dna.letters().collect();
        assert_eq!(dna, b"ACGT");
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = Alphabet::custom(b"xyz").unwrap();
        let b = a.clone();
        assert_eq!(a, b);
    }
}
