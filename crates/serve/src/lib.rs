//! `pgmine serve`: a pattern-store daemon over mined outcomes.
//!
//! A mined pattern set — fresh from the engine or loaded back from a
//! PGST store file with [`perigap_store::load_outcome`] — is indexed
//! once ([`perigap_store::PatternIndex`]) and served to concurrent
//! clients over a line-delimited JSON protocol on a TCP socket:
//!
//! ```text
//! -> {"q": "support", "pattern": "ACG"}
//! <- {"ok": true, "found": true, "pattern": "ACG", "support": 42, "ratio": 0.013}
//! ```
//!
//! [`protocol`] defines the wire format, [`server`] the daemon, and
//! [`client`] a small blocking client. Every served request is a
//! [`perigap_core::trace::QueryEvent`] through the observer the daemon
//! was started with, so latency counters land in the same metrics
//! sinks the miner uses.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::ResponseCache;
pub use client::Client;
pub use protocol::{
    batch_response, parse_request, serve_line, serve_request_line, Envelope, LineOutcome, Request,
    ServeContext, Served, DEFAULT_LIMIT,
};
pub use server::{serve, serve_with, ServerHandle};

use std::sync::atomic::{AtomicBool, Ordering};

static SIGINT_FLAG: AtomicBool = AtomicBool::new(false);

/// Install a SIGINT handler that flips a process-wide flag, and return
/// the flag. The handler only stores an atomic (async-signal-safe);
/// callers poll the flag and stop their server. Installing twice is
/// harmless. Unix only; on other targets the flag simply never flips.
pub fn install_sigint_flag() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_sigint(_signum: i32) {
            SIGINT_FLAG.store(true, Ordering::SeqCst);
        }
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
    &SIGINT_FLAG
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigap_core::mpp::{mpp, MppConfig};
    use perigap_core::trace::{Json, MetricsObserver};
    use perigap_core::GapRequirement;
    use perigap_seq::{Alphabet, Sequence};
    use perigap_store::{LoadedOutcome, PatternIndex};
    use std::sync::Arc;
    use std::time::Duration;

    fn served_index() -> Arc<PatternIndex> {
        let seq = Sequence::dna(&"ACGT".repeat(25)).unwrap();
        let gap = GapRequirement::new(0, 2).unwrap();
        let outcome = mpp(&seq, gap, 0.001, 8, MppConfig::default()).unwrap();
        assert!(!outcome.frequent.is_empty());
        let loaded = LoadedOutcome {
            outcome,
            gap,
            rho: 0.001,
        };
        Arc::new(PatternIndex::build(&loaded, Alphabet::Dna, Some(&seq)))
    }

    #[test]
    fn daemon_answers_every_query_kind_and_counts_them() {
        let index = served_index();
        let handle = serve(
            Arc::clone(&index),
            "memory:test".to_string(),
            "127.0.0.1:0",
            MetricsObserver::new(),
        )
        .unwrap();
        let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();

        for line in [
            r#"{"q": "support", "pattern": "ACG"}"#,
            r#"{"q": "topk", "k": 3}"#,
            r#"{"q": "prefix", "prefix": "AC"}"#,
            r#"{"q": "overlap", "a": 1, "b": 12}"#,
            r#"{"q": "stats"}"#,
        ] {
            let response = client.roundtrip(line).unwrap();
            let parsed = Json::parse(&response).unwrap();
            assert_eq!(
                parsed.get("ok").and_then(Json::as_bool),
                Some(true),
                "{line} -> {response}"
            );
        }
        // Garbage gets an error response, not a dropped connection.
        let response = client.roundtrip("not json at all").unwrap();
        assert!(response.contains("\"ok\": false"));

        let metrics = handle.shutdown();
        let total: u64 = metrics.queries.values().map(|s| s.count).sum();
        assert_eq!(total, 6);
        assert_eq!(metrics.queries["invalid"].errors, 1);
        assert_eq!(metrics.queries["support"].count, 1);
    }

    #[test]
    fn batch_lines_and_cache_flow_through_the_daemon() {
        let seq = Sequence::dna(&"ACGT".repeat(25)).unwrap();
        let gap = GapRequirement::new(0, 2).unwrap();
        let outcome = mpp(&seq, gap, 0.001, 8, MppConfig::default()).unwrap();
        let loaded = LoadedOutcome {
            outcome,
            gap,
            rho: 0.001,
        };
        let index = Arc::new(PatternIndex::build(&loaded, Alphabet::Dna, Some(&seq)));
        let handle = serve_with(
            Arc::clone(&index),
            "memory:test".to_string(),
            Some(seq),
            "127.0.0.1:0",
            MetricsObserver::new(),
        )
        .unwrap();
        let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();

        // A batch line answers with an array in request order, ids
        // echoed per element.
        let batch = r#"[{"q": "topk", "k": 2, "id": 1}, {"q": "mine_topk", "k": 3, "id": 2}, {"q": "nope", "id": 3}]"#;
        let response = client.roundtrip(batch).unwrap();
        let parsed = Json::parse(&response).unwrap();
        let rows = parsed.as_arr().expect("array response");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("id").and_then(Json::as_usize), Some(1));
        assert_eq!(rows[1].get("id").and_then(Json::as_usize), Some(2));
        assert_eq!(rows[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(rows[1].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(rows[2].get("ok").and_then(Json::as_bool), Some(false));
        // mine_topk ranks like the index (same parameters, same rank
        // order).
        let want: Vec<String> = index.top_k(3).map(|e| e.display(&Alphabet::Dna)).collect();
        let got: Vec<&str> = rows[1]
            .get("patterns")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|p| p.get("pattern").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(got, want);

        // Repeats hit the response cache; stats reports the counters.
        let first = client.roundtrip(r#"{"q": "topk", "k": 2}"#).unwrap();
        assert_eq!(first, rows_without_id(&rows[0]));
        let stats = client.roundtrip(r#"{"q": "stats"}"#).unwrap();
        let stats = Json::parse(&stats).unwrap();
        let hits = stats.get("cache_hits").and_then(Json::as_u128).unwrap();
        let misses = stats.get("cache_misses").and_then(Json::as_u128).unwrap();
        assert_eq!(hits, 1, "repeated topk answered from cache");
        assert!(misses >= 2);
        // Every batch element and the two singles were counted.
        assert_eq!(handle.queries_served(), 5);

        let metrics = handle.shutdown();
        assert_eq!(metrics.queries["topk"].count, 2);
        assert_eq!(metrics.queries["topk"].cache_hits, 1);
        assert_eq!(metrics.queries["topk"].cache_misses, 1);
        assert_eq!(metrics.queries["mine_topk"].count, 1);
        assert_eq!(metrics.queries["invalid"].errors, 1);
    }

    /// Re-render a parsed `topk` response without its `id` field, in
    /// the daemon's own field order, for comparing a batch element
    /// against a later single-line answer.
    fn rows_without_id(row: &Json) -> String {
        let total = row.get("total").and_then(Json::as_usize).unwrap();
        let patterns: Vec<String> = row
            .get("patterns")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|p| {
                format!(
                    "{{\"pattern\": \"{}\", \"support\": {}, \"ratio\": {}}}",
                    p.get("pattern").and_then(Json::as_str).unwrap(),
                    p.get("support").and_then(Json::as_u128).unwrap(),
                    p.get("ratio").and_then(Json::as_f64).unwrap()
                )
            })
            .collect();
        format!(
            "{{\"ok\": true, \"total\": {total}, \"patterns\": [{}]}}",
            patterns.join(", ")
        )
    }

    /// One line of 200,000 `[` is under the line cap but far over the
    /// parser's nesting cap: it gets an error response, and the same
    /// daemon answers the next request.
    #[test]
    fn deeply_nested_line_is_refused_and_the_daemon_keeps_serving() {
        let handle = serve(
            served_index(),
            "memory:test".to_string(),
            "127.0.0.1:0",
            MetricsObserver::new(),
        )
        .unwrap();
        let mut client = Client::connect(handle.addr(), Duration::from_secs(30)).unwrap();
        let response = client.roundtrip(&"[".repeat(200_000)).unwrap();
        assert!(response.contains("\"ok\": false"), "{response}");
        let stats = client.roundtrip(r#"{"q": "stats"}"#).unwrap();
        let stats = Json::parse(&stats).unwrap();
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        let metrics = handle.shutdown();
        assert_eq!(metrics.queries["invalid"].errors, 1);
    }

    #[test]
    fn shutdown_request_stops_the_daemon() {
        let handle = serve(
            served_index(),
            "memory:test".to_string(),
            "127.0.0.1:0",
            MetricsObserver::new(),
        )
        .unwrap();
        let addr = handle.addr();
        let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
        let response = client.roundtrip(r#"{"q": "shutdown", "id": 9}"#).unwrap();
        assert!(response.contains("\"stopping\": true"));
        assert!(response.contains("\"id\": 9"));
        // The accept loop winds down; the handle observes the stop.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !handle.stop_requested() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(handle.stop_requested());
        handle.shutdown();
    }

    #[test]
    fn sixteen_concurrent_clients_are_served() {
        let index = served_index();
        let expect_top: Vec<String> = index.top_k(5).map(|e| e.display(&Alphabet::Dna)).collect();
        let handle = serve(
            index,
            "memory:test".to_string(),
            "127.0.0.1:0",
            MetricsObserver::new(),
        )
        .unwrap();
        let addr = handle.addr();
        let workers: Vec<_> = (0..16)
            .map(|w| {
                let expect = expect_top.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
                    for i in 0..25 {
                        let response = client
                            .roundtrip(&format!(
                                "{{\"q\": \"topk\", \"k\": 5, \"id\": {}}}",
                                w * 100 + i
                            ))
                            .unwrap();
                        let parsed = Json::parse(&response).unwrap();
                        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
                        assert_eq!(
                            parsed.get("id").and_then(Json::as_usize),
                            Some(w * 100 + i),
                            "pipelined responses must match their requests"
                        );
                        let got: Vec<&str> = parsed
                            .get("patterns")
                            .and_then(Json::as_arr)
                            .unwrap()
                            .iter()
                            .map(|p| p.get("pattern").and_then(Json::as_str).unwrap())
                            .collect();
                        assert_eq!(got, expect, "every client sees the same ranking");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client worker must not panic");
        }
        let metrics = handle.shutdown();
        assert_eq!(metrics.queries["topk"].count, 16 * 25);
        assert_eq!(metrics.queries["topk"].errors, 0);
    }
}
