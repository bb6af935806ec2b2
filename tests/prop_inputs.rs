//! Generator-driven suite over the text front ends: the FASTA and
//! GenBank readers, and `pgmine serve` request lines.
//!
//! Reader inputs are arbitrary bytes (invalid UTF-8 goes through the
//! streaming `read_fasta` and `read_genbank`; valid UTF-8 through
//! `parse_fasta` and `parse_genbank` too) and valid files with one
//! mutation: a byte overwritten, a span deleted or repeated, a
//! truncation, or a keyword line inserted. Each case asserts no panic,
//! and either records consistent with the input rules or a typed
//! `SeqError`.
//!
//! Request lines are arbitrary strings (random bytes, and random runs
//! of JSON tokens), every request kind with each field in turn missing,
//! of the wrong JSON type, 0, 1, `u32::MAX + 1`, `u64::MAX`,
//! `u128::MAX` and beyond, negative, fractional or a 10,000-character
//! string, nesting just under and just over the JSON parser's 64-level
//! cap, and batches of those. They are served through `serve_line` and through a
//! `ServeContext` that holds a response cache. Each case asserts no
//! panic, and that the answer is one JSON object with a boolean `"ok"`
//! field (for a batch, an array of such objects, one per element).
//!
//! Case counts: 256 arbitrary-byte and 256 mutated-file cases for each
//! reader, 256 arbitrary request lines, all 399 field mutations (every
//! kind, each field and an added `id`, each set to each of 19 values),
//! 64 nesting cases and 64 batches.

use perigap::core::mpp::{mpp, MppConfig};
use perigap::core::trace::Json;
use perigap::core::GapRequirement;
use perigap::seq::fasta::{parse_fasta, read_fasta};
use perigap::seq::genbank::{parse_genbank, read_genbank};
use perigap::seq::{Alphabet, SeqError, Sequence};
use perigap::serve::{
    batch_response, serve_line, serve_request_line, LineOutcome, ResponseCache, ServeContext,
    Served,
};
use perigap::store::{LoadedOutcome, PatternIndex};
use proptest::collection;
use proptest::prelude::*;
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------

fn alphabet(which: usize) -> Alphabet {
    if which == 0 {
        Alphabet::Dna
    } else {
        Alphabet::Protein
    }
}

/// `len` letters of `alphabet` drawn from `seed`, in mixed case.
fn letters(alphabet: &Alphabet, seed: u64, len: usize) -> String {
    let symbols: &[u8] = match alphabet {
        Alphabet::Dna => b"ACGTacgt",
        _ => b"ACDEFGHIKLMNPQRSTVWYacdefghiklmnpqrstvwy",
    };
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            symbols[(state % symbols.len() as u64) as usize] as char
        })
        .collect()
}

/// A valid FASTA file: one record per length, with a comment line and
/// wrapped sequence lines.
fn fasta_file(alphabet: &Alphabet, seed: u64, lens: &[usize]) -> Vec<u8> {
    let mut text = String::from("; generated\n");
    for (i, &len) in lens.iter().enumerate() {
        text.push_str(&format!(">rec{i} description {i}\n"));
        let body = letters(alphabet, seed + i as u64, len);
        for line in body.as_bytes().chunks(60) {
            text.push_str(std::str::from_utf8(line).unwrap());
            text.push('\n');
        }
    }
    text.into_bytes()
}

/// A valid GenBank file: LOCUS with the stated length, annotation
/// lines, and a numbered ORIGIN block in groups of ten.
fn genbank_file(alphabet: &Alphabet, seed: u64, lens: &[usize]) -> Vec<u8> {
    let unit = if matches!(alphabet, Alphabet::Dna) {
        "bp"
    } else {
        "aa"
    };
    let mut text = String::new();
    for (i, &len) in lens.iter().enumerate() {
        text.push_str(&format!(
            "LOCUS       REC{i}              {len} {unit}    DNA     linear   SYN 01-JAN-2000\n"
        ));
        text.push_str("DEFINITION  generated.\nFEATURES             Location/Qualifiers\n");
        text.push_str(&format!("     source          1..{len}\nORIGIN\n"));
        let body = letters(alphabet, seed + i as u64, len);
        for (row, line) in body.as_bytes().chunks(60).enumerate() {
            text.push_str(&format!("{:>9}", row * 60 + 1));
            for group in line.chunks(10) {
                text.push(' ');
                text.push_str(std::str::from_utf8(group).unwrap());
            }
            text.push('\n');
        }
        text.push_str("//\n");
    }
    text.into_bytes()
}

/// Lines a mutation may insert: record and block keywords of both
/// formats, blank and comment lines, and bytes that are not letters.
const INSERTED_LINES: &[&str] = &[
    ">",
    ">x",
    "; note",
    "",
    "\r",
    "LOCUS       X 4 bp",
    "LOCUS",
    "ORIGIN",
    "//",
    "        1 acgt",
    "acgtn",
    "\u{0}\u{7f}",
    "é✓",
];

#[derive(Clone, Debug)]
enum FileMutation {
    Overwrite { at: usize, byte: u8 },
    Delete { at: usize, len: usize },
    Repeat { at: usize, len: usize },
    Truncate { keep: usize },
    Insert { at: usize, line: usize },
}

fn file_mutation() -> impl Strategy<Value = FileMutation> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| FileMutation::Overwrite { at, byte }),
        (any::<usize>(), 1usize..80).prop_map(|(at, len)| FileMutation::Delete { at, len }),
        (any::<usize>(), 1usize..80).prop_map(|(at, len)| FileMutation::Repeat { at, len }),
        any::<usize>().prop_map(|keep| FileMutation::Truncate { keep }),
        (any::<usize>(), 0..INSERTED_LINES.len())
            .prop_map(|(at, line)| FileMutation::Insert { at, line }),
    ]
}

fn mutate_file(file: &[u8], m: &FileMutation) -> Vec<u8> {
    let mut out = file.to_vec();
    let n = out.len();
    match *m {
        FileMutation::Overwrite { at, byte } => out[at % n] = byte,
        FileMutation::Delete { at, len } => {
            let at = at % n;
            out.drain(at..(at + len).min(n));
        }
        FileMutation::Repeat { at, len } => {
            let at = at % n;
            let span = out[at..(at + len).min(n)].to_vec();
            out.splice(at..at, span);
        }
        FileMutation::Truncate { keep } => out.truncate(keep % n),
        FileMutation::Insert { at, line } => {
            // Insert at a line start, so the line is seen as one.
            let at = at % n;
            let at = out[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            let line = format!("{}\n", INSERTED_LINES[line]);
            out.splice(at..at, line.into_bytes());
        }
    }
    out
}

/// A reader's answer: records that obey the format's rules, or a typed
/// error whose message renders.
fn check_fasta(bytes: &[u8], alphabet: &Alphabet) -> Result<(), TestCaseError> {
    let result = read_fasta(bytes, alphabet);
    if let Ok(text) = std::str::from_utf8(bytes) {
        prop_assert_eq!(&parse_fasta(text, alphabet), &result);
    }
    match result {
        Ok(records) => {
            for r in &records {
                check_record(&r.sequence, alphabet)?;
            }
        }
        Err(e) => check_error(&e)?,
    }
    Ok(())
}

fn check_genbank(bytes: &[u8], alphabet: &Alphabet) -> Result<(), TestCaseError> {
    let result = read_genbank(bytes, alphabet);
    if let Ok(text) = std::str::from_utf8(bytes) {
        prop_assert_eq!(&parse_genbank(text, alphabet), &result);
    }
    match result {
        Ok(records) => {
            for r in &records {
                check_record(&r.sequence, alphabet)?;
                if let Some(stated) = r.stated_len {
                    prop_assert_eq!(stated, r.sequence.len());
                }
            }
        }
        Err(e) => check_error(&e)?,
    }
    Ok(())
}

/// A record holds at least one symbol, every one inside the alphabet.
fn check_record(seq: &Sequence, alphabet: &Alphabet) -> Result<(), TestCaseError> {
    prop_assert!(!seq.is_empty());
    prop_assert!(seq.codes().iter().all(|&c| (c as usize) < alphabet.size()));
    Ok(())
}

fn check_error(e: &SeqError) -> Result<(), TestCaseError> {
    prop_assert!(!e.to_string().is_empty());
    Ok(())
}

/// The unmutated files parse to the records they were written from, so
/// the mutation suites start from inputs the readers accept.
#[test]
fn generated_files_parse() {
    for which in 0..2 {
        let alphabet = alphabet(which);
        let lens = [1, 59, 60, 61, 250];
        let fasta = read_fasta(&fasta_file(&alphabet, 7, &lens)[..], &alphabet).unwrap();
        let genbank = read_genbank(&genbank_file(&alphabet, 7, &lens)[..], &alphabet).unwrap();
        for (i, &len) in lens.iter().enumerate() {
            let want = Sequence::from_text(
                alphabet.clone(),
                letters(&alphabet, 7 + i as u64, len).as_bytes(),
            )
            .unwrap();
            assert_eq!(fasta[i].sequence, want);
            assert_eq!(genbank[i].sequence, want);
            assert_eq!(genbank[i].stated_len, Some(len));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_read_or_fail_typed(
        random in collection::vec(any::<u8>(), 0..512),
        which in 0usize..2,
    ) {
        let alphabet = alphabet(which);
        check_fasta(&random, &alphabet)?;
        check_genbank(&random, &alphabet)?;
    }

    #[test]
    fn mutated_fasta_files_read_or_fail_typed(
        m in file_mutation(),
        lens in collection::vec(1usize..200, 1..4),
        seed: u64,
        which in 0usize..2,
    ) {
        let alphabet = alphabet(which);
        check_fasta(&mutate_file(&fasta_file(&alphabet, seed, &lens), &m), &alphabet)?;
    }

    #[test]
    fn mutated_genbank_files_read_or_fail_typed(
        m in file_mutation(),
        lens in collection::vec(1usize..200, 1..4),
        seed: u64,
        which in 0usize..2,
    ) {
        let alphabet = alphabet(which);
        check_genbank(&mutate_file(&genbank_file(&alphabet, seed, &lens), &m), &alphabet)?;
    }
}

// ---------------------------------------------------------------------
// Serve request lines
// ---------------------------------------------------------------------

struct Daemon {
    index: PatternIndex,
    cache: ResponseCache,
}

/// A small mined index over its own subject sequence, and a response
/// cache shared by every case.
fn daemon() -> &'static Daemon {
    static DAEMON: OnceLock<Daemon> = OnceLock::new();
    DAEMON.get_or_init(|| {
        let seq = Sequence::dna(&format!("{}AACCGGTT", "ACGTTG".repeat(20))).unwrap();
        let gap = GapRequirement::new(0, 2).unwrap();
        let rho = 0.001;
        let outcome = mpp(&seq, gap, rho, 8, MppConfig::default()).unwrap();
        assert!(!outcome.frequent.is_empty());
        let loaded = LoadedOutcome { outcome, gap, rho };
        Daemon {
            index: PatternIndex::build(&loaded, Alphabet::Dna, Some(&seq)),
            cache: ResponseCache::new(64),
        }
    })
}

/// One answer must be one JSON object with a boolean `"ok"` that
/// agrees with the answer's own flag.
fn check_answer(served: &Served) -> Result<(), TestCaseError> {
    let value = Json::parse(&served.response)
        .map_err(|e| TestCaseError::fail(format!("{e}: {}", served.response)))?;
    prop_assert!(matches!(value, Json::Obj(_)), "{}", served.response);
    prop_assert_eq!(value.get("ok").and_then(Json::as_bool), Some(served.ok));
    Ok(())
}

/// The daemon's context: the index and the shared response cache.
fn cached_ctx(d: &Daemon) -> ServeContext<'_> {
    ServeContext {
        index: &d.index,
        backend: "test",
        queries: 0,
        cache: Some(&d.cache),
    }
}

/// Serve `line` through `serve_line` (no cache) and through the
/// daemon's context, and check every answer.
fn check_line(line: &str) -> Result<(), TestCaseError> {
    let d = daemon();
    check_answer(&serve_line(&d.index, "test", 0, line))?;
    match serve_request_line(&cached_ctx(d), line) {
        LineOutcome::Single(served) => check_answer(&served)?,
        LineOutcome::Batch(served) => {
            prop_assert!(!served.is_empty());
            let joined = batch_response(&served);
            let value = Json::parse(&joined).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(value.as_arr().map(<[Json]>::len), Some(served.len()));
            for s in &served {
                check_answer(s)?;
            }
        }
    }
    Ok(())
}

/// Every request kind with valid fields, as `(key, JSON value)` pairs.
fn base_requests() -> Vec<Vec<(&'static str, String)>> {
    let q = |kind: &str| ("q", format!("\"{kind}\""));
    vec![
        vec![q("support"), ("pattern", "\"ACGT\"".into())],
        vec![q("topk"), ("k", "5".into())],
        vec![
            q("prefix"),
            ("prefix", "\"AC\"".into()),
            ("limit", "3".into()),
        ],
        vec![
            q("overlap"),
            ("a", "2".into()),
            ("b", "9".into()),
            ("limit", "4".into()),
        ],
        vec![q("stats"), ("id", "7".into())],
        vec![q("shutdown"), ("id", "\"s\"".into())],
    ]
}

fn render(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Values a mutation puts in a field; `None` removes the field.
fn replacements() -> Vec<Option<String>> {
    let mut values: Vec<Option<String>> = [
        "\"text\"",
        "\"\"",
        "true",
        "null",
        "[]",
        "{}",
        "0",
        "1",
        "4294967296",
        "18446744073709551615",
        "340282366920938463463374607431768211455",
        "340282366920938463463374607431768211456",
        "-1",
        "1.5",
        "1e400",
        "\"ACGTACGTACGTACGTACGT\"",
        "\"é\\u0000\"",
    ]
    .iter()
    .map(|v| Some(v.to_string()))
    .collect();
    values.push(Some(format!("\"{}\"", "A".repeat(10_000))));
    values.push(None);
    values
}

/// A request of one kind with one field replaced or removed, or, for
/// `field == fields.len()`, with an `id` of that value added.
fn mutated_request(kind: usize, field: usize, value: Option<String>) -> String {
    let mut fields = base_requests().swap_remove(kind);
    match (field == fields.len(), value) {
        (true, Some(v)) => fields.push(("id", v)),
        (true, None) => {}
        (false, Some(v)) => fields[field].1 = v,
        (false, None) => {
            fields.remove(field);
        }
    }
    render(&fields)
}

/// Every request kind with each field in turn, and an added `id`, set
/// to each replacement value: 21 positions × 19 values = 399 lines.
#[test]
fn every_field_mutation_answers_json() {
    let mut lines = 0;
    for (kind, fields) in base_requests().iter().enumerate() {
        for field in 0..=fields.len() {
            for value in replacements() {
                check_line(&mutated_request(kind, field, value)).unwrap();
                lines += 1;
            }
        }
    }
    assert_eq!(lines, 399);
}

/// JSON fragments for the token-soup strategy.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\"",
    "\\",
    "\"q\"",
    "\"k\"",
    "\"support\"",
    "\"topk\"",
    "\"mine_topk\"",
    "\"pattern\"",
    "\"limit\"",
    "0",
    "1",
    "-",
    ".",
    "e",
    "9",
    "true",
    "null",
    "\"ACGT\"",
    "\\u00",
    "é",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_request_lines_answer_json(
        random in collection::vec(any::<u8>(), 0..256),
        tokens in collection::vec(0..TOKENS.len(), 0..48),
    ) {
        check_line(&String::from_utf8_lossy(&random))?;
        let soup: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        check_line(&soup)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Nesting under and over the 64-level cap, as a batch of arrays,
    /// as a field value, and as the `id`.
    #[test]
    fn nesting_around_the_cap_answers_json(depth in 60usize..70, kind in 0usize..6) {
        let open = "[".repeat(depth);
        let close = "]".repeat(depth);
        check_line(&format!("{open}{{\"q\": \"stats\"}}{close}"))?;
        let nested = format!("{}1{}", "{\"a\": ".repeat(depth), "}".repeat(depth));
        let mut fields = base_requests().swap_remove(kind);
        fields.push(("id", nested.clone()));
        check_line(&render(&fields))?;
        let last = fields.len() - 2;
        fields[last].1 = format!("{open}1{close}");
        check_line(&render(&fields))?;
    }

    #[test]
    fn batches_answer_json(
        parts in collection::vec((0usize..6, any::<usize>(), 0usize..19, 0usize..6), 0..8),
    ) {
        let items: Vec<String> = parts
            .iter()
            .map(|&(k, f, v, shape)| match shape {
                0 => "1".to_string(),
                1 => "[]".to_string(),
                2 => "\"stats\"".to_string(),
                _ => {
                    let field = f % (base_requests()[k].len() + 1);
                    mutated_request(k, field, replacements().swap_remove(v))
                }
            })
            .collect();
        check_line(&format!("[{}]", items.join(", ")))?;
    }
}

/// Every unmutated request kind answers `"ok": true` through the
/// daemon's context, so the mutation suites start from lines the daemon
/// serves.
#[test]
fn base_requests_answer_ok() {
    let d = daemon();
    for fields in base_requests() {
        let line = render(&fields);
        let LineOutcome::Single(served) = serve_request_line(&cached_ctx(d), &line) else {
            panic!("{line} is not a batch");
        };
        assert!(served.ok, "{line} -> {}", served.response);
        check_answer(&served).unwrap();
    }
    // A line of 200,000 `[` is refused, not a stack overflow.
    check_line(&"[".repeat(200_000)).unwrap();
}
