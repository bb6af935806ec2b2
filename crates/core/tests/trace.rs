//! Integration tests for the observability layer: the JSONL trace a
//! mine emits must agree *exactly* with the engine's own
//! `MineOutcome::stats`, across every traced engine (serial MPP,
//! parallel MPP, MPPm, and the multi-sequence miner).

use perigap_core::mpp::{mine, Algorithm, MppConfig};
use perigap_core::multiseq::mine_collection_traced;
use perigap_core::result::MineOutcome;
use perigap_core::trace::{validate_trace, Json, JsonlObserver, MetricsObserver};
use perigap_core::GapRequirement;
use perigap_seq::gen::iid::uniform;
use perigap_seq::{Alphabet, Sequence};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn gap(n: usize, m: usize) -> GapRequirement {
    GapRequirement::new(n, m).unwrap()
}

/// Parse the JSONL text and return the per-level
/// `(level, candidates, frequent, kept)` rows.
fn level_rows(text: &str) -> Vec<(usize, u128, usize, usize)> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).expect("trace line parses"))
        .filter(|v| v.get("event").and_then(Json::as_str) == Some("level"))
        .map(|v| {
            (
                v.get("level").unwrap().as_usize().unwrap(),
                v.get("candidates").unwrap().as_u128().unwrap(),
                v.get("frequent").unwrap().as_usize().unwrap(),
                v.get("kept").unwrap().as_usize().unwrap(),
            )
        })
        .collect()
}

/// Assert that a trace's level events reproduce `outcome.stats.levels`
/// exactly, and that the trace validates against the schema.
fn assert_trace_matches(text: &str, outcome: &MineOutcome, label: &str) {
    let report = validate_trace(text).unwrap_or_else(|e| panic!("{label}: invalid trace: {e}"));
    assert_eq!(
        report.frequent,
        outcome.frequent.len(),
        "{label}: summary frequent"
    );
    assert_eq!(
        report.total_candidates,
        outcome.stats.total_candidates(),
        "{label}: summary candidates"
    );
    let rows = level_rows(text);
    assert_eq!(
        rows.len(),
        outcome.stats.levels.len(),
        "{label}: level count"
    );
    for (row, stat) in rows.iter().zip(&outcome.stats.levels) {
        assert_eq!(row.0, stat.level, "{label}: level id");
        assert_eq!(
            row.1, stat.candidates,
            "{label}: level {} candidates",
            stat.level
        );
        assert_eq!(
            row.2, stat.frequent,
            "{label}: level {} frequent",
            stat.level
        );
        assert_eq!(row.3, stat.extended, "{label}: level {} kept", stat.level);
    }
}

#[test]
fn jsonl_totals_match_stats_across_engines() {
    let seq = uniform(&mut StdRng::seed_from_u64(77), Alphabet::Dna, 600);
    let g = gap(1, 3);
    let rho = 0.0008;
    let config = MppConfig::default();

    let mut serial_sink = JsonlObserver::new(Vec::new());
    let (mpp, mppm) = (Algorithm::Mpp { n: 12 }, Algorithm::Mppm { m: 4 });
    let serial = mine(&seq, g, rho, mpp, &config, &mut serial_sink).unwrap();
    let serial_text = String::from_utf8(serial_sink.finish().unwrap()).unwrap();
    assert_trace_matches(&serial_text, &serial, "mpp");

    let mut parallel_sink = JsonlObserver::new(Vec::new());
    let pooled = MppConfig {
        threads: 4,
        ..config.clone()
    };
    let parallel = mine(&seq, g, rho, mpp, &pooled, &mut parallel_sink).unwrap();
    let parallel_text = String::from_utf8(parallel_sink.finish().unwrap()).unwrap();
    assert_trace_matches(&parallel_text, &parallel, "mpp on 4 threads");

    let mut mppm_sink = JsonlObserver::new(Vec::new());
    let auto = mine(&seq, g, rho, mppm, &config, &mut mppm_sink).unwrap();
    let mppm_text = String::from_utf8(mppm_sink.finish().unwrap()).unwrap();
    assert_trace_matches(&mppm_text, &auto, "mppm");
    assert!(
        mppm_text.contains("\"event\": \"em\""),
        "MPPm trace must carry the e_m event"
    );

    // Serial and parallel mine the same patterns, so their level series
    // must agree row for row.
    assert_eq!(level_rows(&serial_text), level_rows(&parallel_text));
}

#[test]
fn parallel_trace_engages_pool_with_consistent_worker_totals() {
    // A protein alphabet seeds 20^3 patterns — enough kept candidates
    // to cross the pool's engagement threshold.
    let seq = uniform(&mut StdRng::seed_from_u64(78), Alphabet::Protein, 3_000);
    let mut sink = (JsonlObserver::new(Vec::new()), MetricsObserver::new());
    let pooled = MppConfig {
        threads: 4,
        ..MppConfig::default()
    };
    let outcome = mine(
        &seq,
        gap(0, 2),
        1e-6,
        Algorithm::Mpp { n: 6 },
        &pooled,
        &mut sink,
    );
    let outcome = outcome.unwrap();
    let (jsonl, metrics) = sink;
    let text = String::from_utf8(jsonl.finish().unwrap()).unwrap();
    assert_trace_matches(&text, &outcome, "pooled mpp");

    // Pool events are present in both sinks and internally consistent.
    let pool_lines: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap())
        .filter(|v| v.get("event").and_then(Json::as_str) == Some("pool"))
        .collect();
    assert!(!pool_lines.is_empty(), "pool must engage on this input");
    assert_eq!(pool_lines.len(), metrics.pool.len());
    for (line, event) in pool_lines.iter().zip(&metrics.pool) {
        let chunks = line.get("chunks").unwrap().as_usize().unwrap();
        assert_eq!(chunks, event.chunks);
        let workers = line.get("workers").unwrap().as_arr().unwrap();
        let claimed: usize = workers
            .iter()
            .map(|w| w.get("chunks").unwrap().as_usize().unwrap())
            .sum();
        assert_eq!(claimed, chunks, "every chunk claimed exactly once");
    }
}

#[test]
fn multiseq_trace_matches_outcome() {
    let seqs: Vec<Sequence> = (0..6)
        .map(|i| uniform(&mut StdRng::seed_from_u64(200 + i), Alphabet::Dna, 120))
        .collect();
    let config = MppConfig::default();
    let mut sink = JsonlObserver::new(Vec::new());
    let outcome =
        mine_collection_traced(&seqs, gap(1, 2), 0.002, 3, 8, config.clone(), &mut sink).unwrap();
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    let report = validate_trace(&text).unwrap();
    assert_eq!(report.frequent, outcome.patterns.len());

    // Degenerate input still produces a valid (summary-only) trace.
    let mut empty_sink = JsonlObserver::new(Vec::new());
    let none: Vec<Sequence> = Vec::new();
    let empty = mine_collection_traced(
        &none,
        gap(1, 2),
        0.002,
        3,
        8,
        config.clone(),
        &mut empty_sink,
    )
    .unwrap();
    assert!(empty.patterns.is_empty());
    let empty_text = String::from_utf8(empty_sink.finish().unwrap()).unwrap();
    validate_trace(&empty_text).unwrap();
}

#[test]
fn noop_and_traced_runs_agree() {
    // Attaching an observer must not change what is mined.
    let seq = uniform(&mut StdRng::seed_from_u64(79), Alphabet::Dna, 400);
    let g = gap(2, 4);
    let plain = perigap_core::mpp::mpp(&seq, g, 0.001, 10, MppConfig::default()).unwrap();
    let mut metrics = MetricsObserver::new();
    let mpp = Algorithm::Mpp { n: 10 };
    let traced = mine(&seq, g, 0.001, mpp, &MppConfig::default(), &mut metrics).unwrap();
    assert_eq!(plain.frequent.len(), traced.frequent.len());
    for (a, b) in plain.frequent.iter().zip(&traced.frequent) {
        assert_eq!(a.pattern, b.pattern);
        assert_eq!(a.support, b.support);
    }
    assert_eq!(
        metrics.total_candidates(),
        traced.stats.total_candidates(),
        "observer candidates == engine candidates"
    );
    assert!(metrics.seed.is_some());
    assert_eq!(
        metrics.complete.as_ref().unwrap().frequent,
        traced.frequent.len()
    );
}
