//! Minimal GenBank flat-file reader.
//!
//! The paper's inputs are NCBI entries (AX829174 et al.), which ship in
//! GenBank format. This reader extracts what mining needs — the locus
//! name, the stated length, and the `ORIGIN` sequence block — and
//! ignores the annotation sections. Multi-record files (separated by
//! `//`) are supported.

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use crate::sequence::Sequence;
use std::io::BufRead;

/// One parsed GenBank record.
#[derive(Clone, Debug, PartialEq)]
pub struct GenBankRecord {
    /// The locus name (first token of the LOCUS line).
    pub locus: String,
    /// The length stated on the LOCUS line, when present.
    pub stated_len: Option<usize>,
    /// The decoded ORIGIN sequence.
    pub sequence: Sequence,
}

/// Parse every record from a GenBank reader.
///
/// Errors on records with no `ORIGIN` data, on an `ORIGIN` block that
/// no `LOCUS` line opened, on characters outside the alphabet, and on a
/// stated length that contradicts the ORIGIN block (truncated downloads
/// are a real failure mode worth catching).
pub fn read_genbank<R: BufRead>(
    reader: R,
    alphabet: &Alphabet,
) -> Result<Vec<GenBankRecord>, SeqError> {
    let mut records = Vec::new();
    let mut locus: Option<(String, Option<usize>)> = None;
    let mut in_origin = false;
    let mut body = String::new();

    let flush = |locus: &mut Option<(String, Option<usize>)>,
                 body: &mut String,
                 records: &mut Vec<GenBankRecord>|
     -> Result<(), SeqError> {
        if let Some((name, stated_len)) = locus.take() {
            if body.is_empty() {
                return Err(SeqError::FastaEmptyRecord { id: name });
            }
            let sequence = Sequence::from_text(alphabet.clone(), body.as_bytes())?;
            if let Some(expected) = stated_len {
                if sequence.len() != expected {
                    return Err(SeqError::Io(format!(
                        "GenBank record {name}: LOCUS states {expected} bp but ORIGIN holds {}",
                        sequence.len()
                    )));
                }
            }
            records.push(GenBankRecord {
                locus: name,
                stated_len,
                sequence,
            });
            body.clear();
        }
        Ok(())
    };

    for line in reader.lines() {
        let line = line?;
        if let Some(rest) = line.strip_prefix("LOCUS") {
            flush(&mut locus, &mut body, &mut records)?;
            in_origin = false;
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("unnamed").to_string();
            // The length is the token immediately before a "bp"/"aa" unit.
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            let stated_len = tokens
                .windows(2)
                .find(|w| w[1] == "bp" || w[1] == "aa")
                .and_then(|w| w[0].parse().ok());
            locus = Some((name, stated_len));
        } else if line.starts_with("ORIGIN") {
            // Sequence data outside a record would otherwise be
            // prepended to the next record's ORIGIN block.
            if locus.is_none() {
                return Err(SeqError::Io(
                    "GenBank ORIGIN block outside a record (no LOCUS line opened one)".into(),
                ));
            }
            in_origin = true;
        } else if line.trim_start().starts_with("//") {
            in_origin = false;
            flush(&mut locus, &mut body, &mut records)?;
        } else if in_origin {
            // ORIGIN lines look like "        1 acgtac gtacgt …":
            // strip position numbers and whitespace, keep the letters.
            for ch in line.chars() {
                if ch.is_ascii_alphabetic() {
                    body.push(ch);
                }
            }
        }
    }
    flush(&mut locus, &mut body, &mut records)?;
    Ok(records)
}

/// Parse GenBank text from memory.
pub fn parse_genbank(text: &str, alphabet: &Alphabet) -> Result<Vec<GenBankRecord>, SeqError> {
    read_genbank(text.as_bytes(), alphabet)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
LOCUS       AX829174              40 bp    DNA     linear   PAT 14-OCT-2003
DEFINITION  Sequence 5 from Patent EP1308459.
ACCESSION   AX829174
FEATURES             Location/Qualifiers
     source          1..40
ORIGIN
        1 acgtacgtac gtacgtacgt acgtacgtac gtacgtacgt
//
";

    #[test]
    fn parses_single_record() {
        let recs = parse_genbank(SAMPLE, &Alphabet::Dna).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].locus, "AX829174");
        assert_eq!(recs[0].stated_len, Some(40));
        assert_eq!(recs[0].sequence.len(), 40);
        assert_eq!(recs[0].sequence.to_text(), "ACGT".repeat(10));
    }

    #[test]
    fn parses_multiple_records() {
        let two = format!(
            "{SAMPLE}{}",
            "LOCUS       TINY                   8 bp    DNA\nORIGIN\n        1 aattccgg\n//\n"
        );
        let recs = parse_genbank(&two, &Alphabet::Dna).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].locus, "TINY");
        assert_eq!(recs[1].sequence.to_text(), "AATTCCGG");
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let bad = SAMPLE.replace("40 bp", "39 bp");
        let err = parse_genbank(&bad, &Alphabet::Dna).unwrap_err();
        assert!(matches!(err, SeqError::Io(msg) if msg.contains("39")));
    }

    #[test]
    fn missing_origin_is_an_error() {
        let bad = "LOCUS  X  4 bp DNA\n//\n";
        assert!(matches!(
            parse_genbank(bad, &Alphabet::Dna),
            Err(SeqError::FastaEmptyRecord { .. })
        ));
    }

    #[test]
    fn annotation_sections_are_ignored() {
        let with_features = SAMPLE.replace(
            "FEATURES             Location/Qualifiers",
            "FEATURES             Location/Qualifiers\n     gene            1..40\n                     /gene=\"acgt\"",
        );
        let recs = parse_genbank(&with_features, &Alphabet::Dna).unwrap();
        assert_eq!(recs[0].sequence.len(), 40);
    }

    #[test]
    fn no_stated_length_is_fine() {
        let text = "LOCUS  ANON\nORIGIN\n        1 acgt\n//\n";
        let recs = parse_genbank(text, &Alphabet::Dna).unwrap();
        assert_eq!(recs[0].stated_len, None);
        assert_eq!(recs[0].sequence.len(), 4);
    }

    /// ORIGIN letters outside a record must not reach the next one:
    /// without the check this input parses as one record `x` of length
    /// 8, `AAAACGCG`.
    #[test]
    fn origin_outside_a_record_is_an_error() {
        let text = "ORIGIN\n        1 aaaa\n//\nLOCUS       x\nORIGIN\n        1 cgcg\n//\n";
        let err = parse_genbank(text, &Alphabet::Dna).unwrap_err();
        assert!(
            matches!(&err, SeqError::Io(msg) if msg.contains("outside a record")),
            "{err:?}"
        );
        // After a record closes, a stray ORIGIN block is refused too.
        let after = format!("{SAMPLE}ORIGIN\n        1 acgt\n//\n");
        assert!(parse_genbank(&after, &Alphabet::Dna).is_err());
    }
}
