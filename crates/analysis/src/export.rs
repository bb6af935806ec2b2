//! Tab-separated export of mining results.
//!
//! Mined pattern sets feed downstream toolchains (R, pandas,
//! spreadsheets); TSV is the lingua franca and needs no dependencies.
//! Columns are stable and documented here so scripts can rely on them.

use perigap_core::result::{MineOutcome, MineStats};
use perigap_core::GapRequirement;
use perigap_seq::Alphabet;
use std::fmt::Write as _;

/// Render an outcome as TSV with the header
/// `pattern  length  support  ratio  gapped_form`.
/// The gapped form is [`perigap_core::Pattern::display_with_gaps`],
/// with the gap token formatted once per export.
pub fn outcome_to_tsv(outcome: &MineOutcome, alphabet: &Alphabet, gap: GapRequirement) -> String {
    let token = format!("g({},{})", gap.min(), gap.max());
    let mut out = String::from("pattern\tlength\tsupport\tratio\tgapped_form\n");
    for f in &outcome.frequent {
        let letters = f.pattern.display(alphabet);
        write!(
            out,
            "{letters}\t{}\t{}\t{:.9}\t",
            f.len(),
            f.support,
            f.ratio
        )
        .expect("writing to String cannot fail");
        for (i, letter) in letters.chars().enumerate() {
            if i > 0 {
                out.push_str(&token);
            }
            out.push(letter);
        }
        out.push('\n');
    }
    out
}

/// Render per-level run statistics as TSV with the header
/// `level  candidates  frequent  extended  millis`.
pub fn stats_to_tsv(stats: &MineStats) -> String {
    let mut out = String::from("level\tcandidates\tfrequent\textended\tmillis\n");
    for l in &stats.levels {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{:.3}",
            l.level,
            l.candidates,
            l.frequent,
            l.extended,
            l.elapsed.as_secs_f64() * 1_000.0
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Parse a TSV produced by [`outcome_to_tsv`] back into
/// `(pattern_text, support, ratio)` rows — round-trip support for
/// pipelines that post-process and re-ingest results.
pub fn parse_outcome_tsv(text: &str) -> Result<Vec<(String, u128, f64)>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty TSV")?;
    if !header.starts_with("pattern\t") {
        return Err(format!("unexpected header {header:?}"));
    }
    let mut out = Vec::new();
    for (idx, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 4 {
            return Err(format!(
                "row {}: expected ≥4 fields, got {}",
                idx + 2,
                fields.len()
            ));
        }
        let support: u128 = fields[2]
            .parse()
            .map_err(|e| format!("row {}: bad support: {e}", idx + 2))?;
        let ratio: f64 = fields[3]
            .parse()
            .map_err(|e| format!("row {}: bad ratio: {e}", idx + 2))?;
        out.push((fields[0].to_string(), support, ratio));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigap_core::mpp::MppConfig;
    use perigap_core::mppm::mppm;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Sequence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mined() -> (Sequence, GapRequirement, MineOutcome) {
        let seq = uniform(&mut StdRng::seed_from_u64(71), Alphabet::Dna, 150);
        let gap = GapRequirement::new(1, 2).unwrap();
        let outcome = mppm(&seq, gap, 0.002, 3, MppConfig::default()).unwrap();
        (seq, gap, outcome)
    }

    #[test]
    fn tsv_has_one_row_per_pattern() {
        let (seq, gap, outcome) = mined();
        let tsv = outcome_to_tsv(&outcome, seq.alphabet(), gap);
        assert_eq!(tsv.lines().count(), outcome.frequent.len() + 1);
        assert!(tsv.starts_with("pattern\tlength\tsupport\tratio\tgapped_form\n"));
        assert!(tsv.contains("g(1,2)"), "gapped form rendered");
    }

    #[test]
    fn tsv_roundtrip() {
        let (seq, gap, outcome) = mined();
        let tsv = outcome_to_tsv(&outcome, seq.alphabet(), gap);
        let rows = parse_outcome_tsv(&tsv).unwrap();
        assert_eq!(rows.len(), outcome.frequent.len());
        for (row, f) in rows.iter().zip(&outcome.frequent) {
            assert_eq!(row.0, f.pattern.display(seq.alphabet()));
            assert_eq!(row.1, f.support);
            assert!((row.2 - f.ratio).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_tsv_lists_levels() {
        let (_, _, outcome) = mined();
        let tsv = stats_to_tsv(&outcome.stats);
        assert_eq!(tsv.lines().count(), outcome.stats.levels.len() + 1);
        assert!(
            tsv.lines().nth(1).unwrap().starts_with('3'),
            "first level is 3"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_outcome_tsv("").is_err());
        assert!(parse_outcome_tsv("wrong\theader\n").is_err());
        assert!(
            parse_outcome_tsv("pattern\tlength\tsupport\tratio\nACG\t3\tnot-a-number\t0.5\n")
                .is_err()
        );
        assert!(parse_outcome_tsv("pattern\tlength\tsupport\tratio\nACG\t3\n").is_err());
    }
}
