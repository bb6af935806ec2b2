//! Minimal FASTA reader/writer.
//!
//! Supports multi-record files, `>` headers with free-text descriptions,
//! `;` comment lines (the older FASTA dialect) and wrapped sequence
//! lines. This is the on-disk format the examples and the benchmark
//! harness use to exchange subject sequences.
//!
//! The reader makes one pass over the input. Each line is read into one
//! reused byte buffer, checked to be UTF-8 and trimmed of Unicode
//! whitespace; a sequence line is then decoded through the alphabet's
//! code table (`Alphabet::encode`) straight into its record's codes.
//! Positions in errors count bytes of the record's body: its trimmed
//! sequence lines, concatenated. A letter outside the alphabet is held
//! until the record ends, so an unreadable line further down the same
//! record is reported first.

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use crate::sequence::Sequence;
use std::io::{BufRead, Write};

/// One FASTA record: identifier, optional description, and the sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct FastaRecord {
    /// The token following `>` up to the first whitespace.
    pub id: String,
    /// The remainder of the header line, if any.
    pub description: Option<String>,
    /// The decoded sequence.
    pub sequence: Sequence,
}

/// The record being read: its header, the codes decoded so far, the
/// body bytes seen, and the first letter outside the alphabet.
struct OpenRecord {
    id: String,
    description: Option<String>,
    codes: Vec<u8>,
    body_len: usize,
    bad_letter: Option<SeqError>,
}

impl OpenRecord {
    fn new(header: &str) -> OpenRecord {
        let mut parts = header.splitn(2, char::is_whitespace);
        let id = parts.next().unwrap_or("").to_string();
        let description = parts
            .next()
            .map(str::trim)
            .filter(|d| !d.is_empty())
            .map(String::from);
        OpenRecord {
            id,
            description,
            codes: Vec::new(),
            body_len: 0,
            bad_letter: None,
        }
    }

    fn push_line(&mut self, line: &str, alphabet: &Alphabet) {
        if self.bad_letter.is_none() {
            if let Err(e) = alphabet.encode(line.as_bytes(), self.body_len, &mut self.codes) {
                self.bad_letter = Some(e);
            }
        }
        self.body_len += line.len();
    }

    fn finish(self, alphabet: &Alphabet) -> Result<FastaRecord, SeqError> {
        if self.body_len == 0 {
            return Err(SeqError::FastaEmptyRecord { id: self.id });
        }
        if let Some(e) = self.bad_letter {
            return Err(e);
        }
        Ok(FastaRecord {
            id: self.id,
            description: self.description,
            sequence: Sequence::from_encoded(alphabet.clone(), self.codes),
        })
    }
}

/// Parse every record from a FASTA reader.
///
/// Characters in sequence lines must belong to `alphabet` (whitespace is
/// ignored). Empty records and a missing leading header are errors, and
/// so is a line that is not UTF-8.
pub fn read_fasta<R: BufRead>(
    mut reader: R,
    alphabet: &Alphabet,
) -> Result<Vec<FastaRecord>, SeqError> {
    let mut records = Vec::new();
    let mut open: Option<OpenRecord> = None;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        // The message `BufRead::lines` gives for the same line.
        let line = std::str::from_utf8(&buf)
            .map_err(|_| SeqError::Io("stream did not contain valid UTF-8".into()))?
            .trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            if let Some(record) = open.take() {
                records.push(record.finish(alphabet)?);
            }
            open = Some(OpenRecord::new(header));
        } else {
            open.as_mut()
                .ok_or(SeqError::FastaMissingHeader)?
                .push_line(line, alphabet);
        }
    }
    if let Some(record) = open {
        records.push(record.finish(alphabet)?);
    }
    Ok(records)
}

/// Parse FASTA from an in-memory string.
pub fn parse_fasta(text: &str, alphabet: &Alphabet) -> Result<Vec<FastaRecord>, SeqError> {
    read_fasta(text.as_bytes(), alphabet)
}

/// Write records in FASTA format with lines wrapped at `width` characters.
///
/// # Panics
/// Panics if `width` is 0.
pub fn write_fasta<W: Write>(
    writer: &mut W,
    records: &[FastaRecord],
    width: usize,
) -> Result<(), SeqError> {
    assert!(width > 0, "FASTA line width must be positive");
    for rec in records {
        match &rec.description {
            Some(d) => writeln!(writer, ">{} {}", rec.id, d)?,
            None => writeln!(writer, ">{}", rec.id)?,
        }
        let text = rec.sequence.to_text();
        for chunk in text.as_bytes().chunks(width) {
            writer.write_all(chunk)?;
            writer.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Render records to a FASTA string.
pub fn format_fasta(records: &[FastaRecord], width: usize) -> String {
    let mut buf = Vec::new();
    write_fasta(&mut buf, records, width).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("FASTA output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_record() {
        let recs = parse_fasta(">chr1 test fragment\nACGT\nACGT\n", &Alphabet::Dna).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, "chr1");
        assert_eq!(recs[0].description.as_deref(), Some("test fragment"));
        assert_eq!(recs[0].sequence.to_text(), "ACGTACGT");
    }

    #[test]
    fn parses_multiple_records_and_comments() {
        let text = "; a legacy comment\n>a\nAC\nGT\n\n>b no-desc-is-none\nTTTT\n";
        let recs = parse_fasta(text, &Alphabet::Dna).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].sequence.to_text(), "ACGT");
        assert_eq!(recs[1].id, "b");
        assert_eq!(recs[1].description.as_deref(), Some("no-desc-is-none"));
        assert_eq!(recs[1].sequence.to_text(), "TTTT");
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(matches!(
            parse_fasta("ACGT\n", &Alphabet::Dna),
            Err(SeqError::FastaMissingHeader)
        ));
    }

    #[test]
    fn empty_record_is_an_error() {
        assert!(matches!(
            parse_fasta(">empty\n>b\nACGT\n", &Alphabet::Dna),
            Err(SeqError::FastaEmptyRecord { .. })
        ));
        assert!(matches!(
            parse_fasta(">only-header\n", &Alphabet::Dna),
            Err(SeqError::FastaEmptyRecord { .. })
        ));
    }

    #[test]
    fn invalid_characters_propagate() {
        assert!(matches!(
            parse_fasta(">x\nACGN\n", &Alphabet::Dna),
            Err(SeqError::UnknownLetter { letter: 'N', .. })
        ));
    }

    #[test]
    fn a_bad_letter_is_named_as_the_file_writes_it() {
        // 'Ñ' is the two bytes C3 91; the error names the character, not
        // the first byte read as Latin-1 ('Ã').
        assert_eq!(
            parse_fasta(">x\nACGÑT\n", &Alphabet::Dna),
            Err(SeqError::UnknownLetter {
                letter: 'Ñ',
                pos: 3
            })
        );
        // Positions count the record's trimmed lines, concatenated.
        assert_eq!(
            parse_fasta(">x\r\n  AC \r\nGT✓A\n", &Alphabet::Dna),
            Err(SeqError::UnknownLetter {
                letter: '✓',
                pos: 4
            })
        );
    }

    #[test]
    fn errors_come_in_file_order() {
        let io = || Err(SeqError::Io("stream did not contain valid UTF-8".into()));
        // A bad letter waits for its record to end: an unreadable line in
        // the same record is reported first, one in a later record not.
        assert_eq!(
            read_fasta(&b">x\nAN\nA\xFF\n>y\nA\n"[..], &Alphabet::Dna),
            io()
        );
        assert_eq!(
            read_fasta(&b">x\nAN\n>y\nA\xFF\n"[..], &Alphabet::Dna),
            Err(SeqError::UnknownLetter {
                letter: 'N',
                pos: 1
            })
        );
        assert_eq!(
            parse_fasta(">x\nAN\n>\n", &Alphabet::Dna),
            Err(SeqError::UnknownLetter {
                letter: 'N',
                pos: 1
            })
        );
    }

    #[test]
    fn roundtrip_with_wrapping() {
        let recs = vec![FastaRecord {
            id: "frag".into(),
            description: Some("roundtrip".into()),
            sequence: Sequence::dna(&"ACGT".repeat(20)).unwrap(),
        }];
        let text = format_fasta(&recs, 10);
        // 80 bases wrapped at 10 → 8 body lines.
        assert_eq!(text.lines().count(), 9);
        let back = parse_fasta(&text, &Alphabet::Dna).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn protein_fasta() {
        let recs = parse_fasta(">p\nMKWVT\nFISLL\n", &Alphabet::Protein).unwrap();
        assert_eq!(recs[0].sequence.to_text(), "MKWVTFISLL");
    }
}
