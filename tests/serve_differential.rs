//! Differential tests for the `pgmine serve` query path: every served
//! answer must be bit-identical to post-filtering the mined pattern set
//! directly, and must not depend on the thread count that mined that
//! set.
//!
//! Three layers of agreement are checked:
//!
//! 1. the mined sets themselves are identical on one thread and on the
//!    worker pool;
//! 2. the protocol transcript (raw response lines for a fixed workload)
//!    is byte-identical no matter which variant built the index;
//! 3. the reference transcript agrees field-by-field with answers
//!    recomputed from the raw mined set (supports, top-k ordering,
//!    prefix filtering, and the exponential naive match enumerator for
//!    overlap).
//!
//! A live TCP daemon is also driven over the same workload to pin the
//! socket path to the in-process `serve_line` results.

use perigap::core::mpp::{mpp, MppConfig};
use perigap::core::naive;
use perigap::core::trace::{Json, NoopObserver};
use perigap::core::{GapRequirement, MineOutcome, Pattern};
use perigap::seq::{Alphabet, Sequence};
use perigap::serve::{serve_line, Client};
use perigap::store::{LoadedOutcome, PatternIndex};
use std::sync::Arc;
use std::time::Duration;

const RHO: f64 = 0.001;
const N: usize = 10;

fn workload_input() -> (Sequence, GapRequirement) {
    let seq = Sequence::dna(&format!("{}AACCGGTT", "ACGT".repeat(30))).unwrap();
    let gap = GapRequirement::new(0, 2).unwrap();
    (seq, gap)
}

/// Every mining schedule under test, with a label for failure messages.
fn mine_variants(seq: &Sequence, gap: GapRequirement) -> Vec<(String, MineOutcome)> {
    [1, 2]
        .map(|threads| {
            let config = MppConfig {
                threads,
                ..MppConfig::default()
            };
            let outcome = mpp(seq, gap, RHO, N, config).expect("mine");
            (format!("threads = {threads}"), outcome)
        })
        .into()
}

/// Canonical form of a mined set for cross-engine comparison: sorted by
/// code string, ratios compared exactly (by bits).
fn canonical(outcome: &MineOutcome) -> Vec<(Vec<u8>, u128, u64)> {
    let mut rows: Vec<(Vec<u8>, u128, u64)> = outcome
        .frequent
        .iter()
        .map(|f| (f.pattern.codes().to_vec(), f.support, f.ratio.to_bits()))
        .collect();
    rows.sort();
    rows
}

fn build_index(outcome: &MineOutcome, gap: GapRequirement, seq: &Sequence) -> PatternIndex {
    let loaded = LoadedOutcome {
        outcome: outcome.clone(),
        gap,
        rho: RHO,
    };
    PatternIndex::build(&loaded, Alphabet::Dna, Some(seq))
}

/// The fixed query workload: one support probe per mined pattern, one
/// miss probe, top-k at several depths, prefix filters with and without
/// a row cap, and overlap ranges spanning start, middle, and full
/// sequence. Excludes `stats` (its `queries` counter is daemon state,
/// not index state) so transcripts stay comparable across variants.
fn workload(outcome: &MineOutcome, seq_len: usize) -> Vec<String> {
    let alphabet = Alphabet::Dna;
    let mut lines = Vec::new();
    for f in &outcome.frequent {
        lines.push(format!(
            "{{\"q\": \"support\", \"pattern\": \"{}\"}}",
            f.pattern.display(&alphabet)
        ));
    }
    // Longer than the mined `n`, so guaranteed absent.
    lines.push(format!(
        "{{\"q\": \"support\", \"pattern\": \"{}\"}}",
        "A".repeat(N + 1)
    ));
    for k in [1usize, 3, 1_000] {
        lines.push(format!("{{\"q\": \"topk\", \"k\": {k}}}"));
    }
    for prefix in ["", "A", "AC", "GT", "TTT"] {
        lines.push(format!(
            "{{\"q\": \"prefix\", \"prefix\": \"{prefix}\", \"limit\": 1000000}}"
        ));
    }
    lines.push("{\"q\": \"prefix\", \"prefix\": \"\", \"limit\": 2}".to_string());
    for (a, b) in [(1usize, 4), (5, 8), (10, 10), (1, seq_len), (20, 24)] {
        lines.push(format!(
            "{{\"q\": \"overlap\", \"a\": {a}, \"b\": {b}, \"limit\": 1000000}}"
        ));
    }
    lines
}

fn transcript(index: &PatternIndex, lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|line| {
            let served = serve_line(index, "memory:differential", 0, line);
            assert!(
                served.ok,
                "workload line must serve: {line} -> {}",
                served.response
            );
            served.response
        })
        .collect()
}

/// Parse a rows response (`topk`/`prefix`/`overlap`) into
/// `(total, [(codes, support, ratio_bits)])`.
fn parse_rows(response: &str) -> (usize, Vec<(Vec<u8>, u128, u64)>) {
    let json = Json::parse(response).expect("valid response JSON");
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
    let total = json
        .get("total")
        .and_then(Json::as_usize)
        .expect("total field");
    let rows = json
        .get("patterns")
        .and_then(Json::as_arr)
        .expect("patterns array")
        .iter()
        .map(|row| {
            let text = row.get("pattern").and_then(Json::as_str).expect("pattern");
            let codes = Pattern::parse(text, &Alphabet::Dna)
                .expect("served pattern parses")
                .codes()
                .to_vec();
            let support = row.get("support").and_then(Json::as_u128).expect("support");
            let ratio = row.get("ratio").and_then(Json::as_f64).expect("ratio");
            (codes, support, ratio.to_bits())
        })
        .collect();
    (total, rows)
}

/// Mined set sorted the way `topk`/`overlap` rank rows:
/// `(support desc, len asc, codes asc)`.
fn by_support(outcome: &MineOutcome) -> Vec<(Vec<u8>, u128, u64)> {
    let mut rows: Vec<(Vec<u8>, u128, u64)> = canonical(outcome);
    rows.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then(a.0.len().cmp(&b.0.len()))
            .then(a.0.cmp(&b.0))
    });
    rows
}

#[test]
fn engines_mine_identical_sets() {
    let (seq, gap) = workload_input();
    let variants = mine_variants(&seq, gap);
    let reference = canonical(&variants[0].1);
    assert!(
        reference.len() >= 4,
        "workload must mine a non-trivial set, got {}",
        reference.len()
    );
    for (label, outcome) in &variants[1..] {
        assert_eq!(
            canonical(outcome),
            reference,
            "variant {label} mined a different set than {}",
            variants[0].0
        );
    }
}

#[test]
fn every_variant_serves_a_byte_identical_transcript() {
    let (seq, gap) = workload_input();
    let variants = mine_variants(&seq, gap);
    let lines = workload(&variants[0].1, seq.len());
    let reference = transcript(&build_index(&variants[0].1, gap, &seq), &lines);
    for (label, outcome) in &variants[1..] {
        let got = transcript(&build_index(outcome, gap, &seq), &lines);
        for (line, (want, have)) in lines.iter().zip(reference.iter().zip(&got)) {
            assert_eq!(have, want, "variant {label} diverged on {line}");
        }
    }
}

#[test]
fn served_support_and_topk_and_prefix_equal_post_filtering() {
    let (seq, gap) = workload_input();
    let outcome = mpp(&seq, gap, RHO, N, MppConfig::default()).expect("mine");
    let index = build_index(&outcome, gap, &seq);
    let alphabet = Alphabet::Dna;

    // Support: every mined pattern answers with its exact support and
    // ratio; an absent pattern answers found=false.
    for f in &outcome.frequent {
        let line = format!(
            "{{\"q\": \"support\", \"pattern\": \"{}\"}}",
            f.pattern.display(&alphabet)
        );
        let json = Json::parse(&serve_line(&index, "b", 0, &line).response).unwrap();
        assert_eq!(json.get("found").and_then(Json::as_bool), Some(true));
        assert_eq!(
            json.get("support").and_then(Json::as_u128),
            Some(f.support),
            "support mismatch for {:?}",
            f.pattern.codes()
        );
        let ratio = json.get("ratio").and_then(Json::as_f64).expect("ratio");
        assert_eq!(ratio.to_bits(), f.ratio.to_bits());
    }
    let miss = format!(
        "{{\"q\": \"support\", \"pattern\": \"{}\"}}",
        "A".repeat(N + 1)
    );
    let json = Json::parse(&serve_line(&index, "b", 0, &miss).response).unwrap();
    assert_eq!(json.get("found").and_then(Json::as_bool), Some(false));

    // Top-k: the first k of the mined set under the rank order, with
    // total reporting the row count actually returned.
    let ranked = by_support(&outcome);
    for k in [1usize, 3, ranked.len(), ranked.len() + 10] {
        let line = format!("{{\"q\": \"topk\", \"k\": {k}}}");
        let (total, rows) = parse_rows(&serve_line(&index, "b", 0, &line).response);
        let want: Vec<_> = ranked.iter().take(k).cloned().collect();
        assert_eq!(rows, want, "topk k={k}");
        assert_eq!(total, want.len(), "topk k={k} total");
    }

    // Prefix: lexicographic post-filter of the mined set; a row cap
    // truncates rows but never the total.
    let lex = canonical(&outcome);
    for prefix in ["", "A", "AC", "GT", "TTT"] {
        let codes = if prefix.is_empty() {
            Vec::new()
        } else {
            Pattern::parse(prefix, &alphabet).unwrap().codes().to_vec()
        };
        let line = format!("{{\"q\": \"prefix\", \"prefix\": \"{prefix}\", \"limit\": 1000000}}");
        let (total, rows) = parse_rows(&serve_line(&index, "b", 0, &line).response);
        let want: Vec<_> = lex
            .iter()
            .filter(|(c, _, _)| c.starts_with(&codes))
            .cloned()
            .collect();
        assert_eq!(rows, want, "prefix {prefix:?}");
        assert_eq!(total, want.len(), "prefix {prefix:?} total");
    }
    let capped = "{\"q\": \"prefix\", \"prefix\": \"\", \"limit\": 2}";
    let (total, rows) = parse_rows(&serve_line(&index, "b", 0, capped).response);
    assert_eq!(rows, lex.iter().take(2).cloned().collect::<Vec<_>>());
    assert_eq!(total, lex.len());
}

#[test]
fn served_overlap_equals_the_naive_match_enumerator() {
    let (seq, gap) = workload_input();
    let outcome = mpp(&seq, gap, RHO, N, MppConfig::default()).expect("mine");
    let index = build_index(&outcome, gap, &seq);

    // Oracle: a pattern overlaps [a, b] iff the exponential enumerator
    // finds a match whose [first, last] offset window intersects it.
    let ranked = by_support(&outcome);
    let matches: Vec<(Vec<u8>, Vec<Vec<usize>>)> = outcome
        .frequent
        .iter()
        .map(|f| {
            (
                f.pattern.codes().to_vec(),
                naive::enumerate_matches(&seq, gap, &f.pattern),
            )
        })
        .collect();
    for (a, b) in [(1usize, 4), (5, 8), (10, 10), (1, seq.len()), (20, 24)] {
        let line = format!("{{\"q\": \"overlap\", \"a\": {a}, \"b\": {b}, \"limit\": 1000000}}");
        let (total, rows) = parse_rows(&serve_line(&index, "b", 0, &line).response);
        let want: Vec<_> = ranked
            .iter()
            .filter(|(codes, _, _)| {
                let occs = &matches
                    .iter()
                    .find(|(c, _)| c == codes)
                    .expect("pattern enumerated")
                    .1;
                occs.iter().any(|m| {
                    let (first, last) = (m[0], *m.last().unwrap());
                    first <= b && last >= a
                })
            })
            .cloned()
            .collect();
        assert_eq!(rows, want, "overlap [{a}, {b}]");
        assert_eq!(total, want.len(), "overlap [{a}, {b}] total");
    }
}

#[test]
fn tcp_daemon_matches_in_process_serving() {
    let (seq, gap) = workload_input();
    let outcome = mpp(&seq, gap, RHO, N, MppConfig::default()).expect("mine");
    let index = build_index(&outcome, gap, &seq);
    let lines = workload(&outcome, seq.len());
    let want = transcript(&index, &lines);

    let handle = perigap::serve::serve(
        Arc::new(index),
        "memory:differential".to_string(),
        "127.0.0.1:0",
        NoopObserver,
    )
    .expect("daemon binds loopback");
    let mut client =
        Client::connect(handle.addr(), Duration::from_secs(10)).expect("client connects");
    for (line, want) in lines.iter().zip(&want) {
        let got = client.roundtrip(line).expect("roundtrip");
        assert_eq!(&got, want, "socket answer diverged on {line}");
    }
    let bye = client
        .roundtrip("{\"q\": \"shutdown\"}")
        .expect("shutdown roundtrip");
    assert!(bye.contains("\"stopping\": true"), "{bye}");
    handle.shutdown();
}
