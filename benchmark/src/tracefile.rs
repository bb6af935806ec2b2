//! Reader for the JSONL a `pgmine ... --trace <file>` run writes (the
//! schema is documented in `perigap_core::trace`). Only the fields the
//! per-layer metrics need are read: unknown events and unknown fields are
//! skipped, so the program may add to its trace without breaking the
//! benchmark, and a missing `em` event (MPP computes no `e_m`) is simply
//! absent.

use perigap_core::trace::Json;

/// Layer totals over one or more traces (see [`LayerTrace::absorb`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTrace {
    pub em_s: f64,
    pub seed_s: f64,
    pub seed_pil_entries: u64,
    pub join_s: f64,
    /// Level wall time outside the join fan-out.
    pub filter_s: f64,
    /// The slowest single level's wall time.
    pub level_max_s: f64,
    pub candidates: f64,
    pub frequent: f64,
    pub probed: f64,
    pub bytes_moved: f64,
    pub reallocs: f64,
    pub pool_busy_s: f64,
    pub pool_idle_s: f64,
    pub peak_arena_bytes: u64,
    /// Engine wall time from the `summary` line.
    pub total_s: f64,
    /// Per-query service times from a `pgmine serve --trace` run.
    pub queries: Vec<Query>,
}

/// One query a daemon answered.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    pub kind: String,
    pub ok: bool,
    pub latency_s: f64,
}

fn num(event: &Json, key: &str) -> f64 {
    event.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn secs(event: &Json, key: &str) -> f64 {
    num(event, key) / 1e3
}

impl LayerTrace {
    /// Read one trace file's text.
    pub fn parse(text: &str) -> Result<LayerTrace, String> {
        let mut t = LayerTrace::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = Json::parse(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
            match event.get("event").and_then(Json::as_str) {
                Some("em") => t.em_s += secs(&event, "elapsed_ms"),
                Some("seed") => {
                    t.seed_s += secs(&event, "elapsed_ms");
                    t.seed_pil_entries += num(&event, "pil_entries") as u64;
                }
                Some("level") => {
                    let (join, total) = (secs(&event, "join_ms"), secs(&event, "elapsed_ms"));
                    t.join_s += join;
                    t.filter_s += (total - join).max(0.0);
                    t.level_max_s = t.level_max_s.max(total);
                    t.candidates += num(&event, "candidates");
                    t.frequent += num(&event, "frequent");
                    t.probed += num(&event, "probed");
                    t.bytes_moved += num(&event, "bytes_moved");
                    t.reallocs += num(&event, "reallocs");
                }
                Some("pool") => {
                    for worker in event.get("workers").and_then(Json::as_arr).unwrap_or(&[]) {
                        t.pool_busy_s += secs(worker, "busy_ms");
                        t.pool_idle_s += secs(worker, "idle_ms");
                    }
                }
                Some("query") => t.queries.push(Query {
                    kind: event
                        .get("kind")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    ok: event.get("ok").and_then(Json::as_bool).unwrap_or(false),
                    latency_s: secs(&event, "latency_ms"),
                }),
                Some("summary") => {
                    t.total_s += secs(&event, "total_ms");
                    t.peak_arena_bytes = num(&event, "peak_arena_bytes") as u64;
                }
                _ => {}
            }
        }
        Ok(t)
    }

    /// Add another trace's totals to these; the peak arena is the larger
    /// of the two.
    pub fn absorb(&mut self, other: LayerTrace) {
        self.em_s += other.em_s;
        self.seed_s += other.seed_s;
        self.seed_pil_entries += other.seed_pil_entries;
        self.join_s += other.join_s;
        self.filter_s += other.filter_s;
        self.level_max_s = self.level_max_s.max(other.level_max_s);
        self.candidates += other.candidates;
        self.frequent += other.frequent;
        self.probed += other.probed;
        self.bytes_moved += other.bytes_moved;
        self.reallocs += other.reallocs;
        self.pool_busy_s += other.pool_busy_s;
        self.pool_idle_s += other.pool_idle_s;
        self.peak_arena_bytes = self.peak_arena_bytes.max(other.peak_arena_bytes);
        self.total_s += other.total_s;
        self.queries.extend(other.queries);
    }

    /// Engine time outside `e_m`, the seed scan and the levels: input
    /// validation, the `N_l` and λ/λ′ tables and MPPm's `n` estimate.
    pub fn prelude_s(&self) -> f64 {
        self.total_s - self.em_s - self.seed_s - self.join_s - self.filter_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ignores_unknown_events_and_fields_and_tolerates_a_missing_em() {
        // An MPP trace (no `em` line) with an event and fields this reader
        // has never heard of.
        let text = r#"{"event": "seed", "level": 3, "patterns": 64, "pil_entries": 500, "elapsed_ms": 2.000, "novel": [1, 2]}
{"event": "level", "level": 3, "candidates": 64, "evaluated": 64, "frequent": 60, "probed": 1000, "reallocs": 2, "bytes_moved": 64, "join_ms": 3.000, "elapsed_ms": 5.000}
{"event": "phase", "name": "sort", "elapsed_ms": 9.0}
{"event": "level", "level": 4, "candidates": 256, "evaluated": 200, "frequent": 10, "join_ms": 0.000, "elapsed_ms": 1.000}
{"event": "pool", "level": 4, "chunks": 2, "workers": [{"worker": 0, "busy_ms": 1.5, "idle_ms": 0.5, "extra": true}]}

{"event": "summary", "frequent": 70, "peak_arena_bytes": 4096, "kernel": "simd", "total_ms": 10.000}
"#;
        let t = LayerTrace::parse(text).unwrap();
        assert_eq!(t.em_s, 0.0);
        assert_eq!((t.seed_s, t.seed_pil_entries), (0.002, 500));
        assert!((t.join_s - 0.003).abs() < 1e-12);
        assert!((t.filter_s - 0.003).abs() < 1e-12);
        assert_eq!(t.level_max_s, 0.005);
        assert_eq!((t.candidates, t.frequent), (320.0, 70.0));
        assert_eq!((t.probed, t.reallocs, t.bytes_moved), (1000.0, 2.0, 64.0));
        assert_eq!((t.pool_busy_s, t.pool_idle_s), (0.0015, 0.0005));
        assert_eq!((t.peak_arena_bytes, t.total_s), (4096, 0.010));
        assert!((t.prelude_s() - 0.002).abs() < 1e-12);

        let mut both = t.clone();
        both.absorb(
            LayerTrace::parse(r#"{"event": "em", "m": 4, "em": 9, "elapsed_ms": 1.0}"#).unwrap(),
        );
        assert_eq!((both.em_s, both.seed_s), (0.001, 0.002));

        assert!(LayerTrace::parse("{not json").is_err());
    }
}
