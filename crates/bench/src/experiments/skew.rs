//! `skew` — per-worker utilization from a `--trace` JSONL file.
//!
//! The worker pool emits one `pool` event per parallel level with a
//! per-worker breakdown (`{worker, chunks, candidates, busy_ms,
//! idle_ms}`; see `perigap_core::trace`). This experiment sums those
//! across the whole run and renders a utilization table so load
//! imbalance — one worker dragging a level while the rest idle — is
//! visible without replaying the mine. A worker whose total busy time
//! exceeds twice the median is flagged `SKEW`.
//!
//! Each `level` event also carries the join-path micro-counters
//! (`joins`, `probed`, `reallocs`, `bytes_moved`, `join_ms`); those are
//! rendered as a second table so a skewed level can be tied to its
//! join work — many reallocs on one level points at reserve trouble,
//! a high probed/joins ratio at overlap-heavy fan-out.

use perigap_analysis::report::TextTable;
use perigap_core::trace::Json;

/// Per-worker totals accumulated over every `pool` event in a trace.
#[derive(Clone, Debug, Default, PartialEq)]
struct WorkerTotals {
    chunks: u128,
    candidates: u128,
    busy_ms: f64,
    idle_ms: f64,
}

/// Read `trace_path`, render the utilization table, print it.
pub fn run(trace_path: &str) {
    let text = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("skew: cannot read {trace_path:?}: {e}");
            std::process::exit(2);
        }
    };
    match render(&text) {
        Ok(table) => println!("{table}"),
        Err(e) => {
            eprintln!("skew: {trace_path:?}: {e}");
            std::process::exit(2);
        }
    }
}

/// Aggregate the `pool` events of a JSONL trace into the utilization
/// table. Errors on unparsable lines; a trace without pool events (a
/// serial run) renders a note instead of an empty table.
pub fn render(text: &str) -> Result<String, String> {
    let mut totals: Vec<WorkerTotals> = Vec::new();
    let mut pool_events = 0usize;
    let mut join_rows: Vec<JoinRow> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if value.get("event").and_then(Json::as_str) == Some("level") {
            if let Some(row) = JoinRow::from_event(&value) {
                join_rows.push(row);
            }
            continue;
        }
        if value.get("event").and_then(Json::as_str) != Some("pool") {
            continue;
        }
        pool_events += 1;
        let workers = value
            .get("workers")
            .and_then(Json::as_arr)
            .ok_or(format!("line {}: pool event without workers", i + 1))?;
        for w in workers {
            let field = |key: &str| {
                w.get(key)
                    .ok_or(format!("line {}: worker entry without {key}", i + 1))
            };
            let id = field("worker")?
                .as_usize()
                .ok_or(format!("line {}: bad worker id", i + 1))?;
            if totals.len() <= id {
                totals.resize(id + 1, WorkerTotals::default());
            }
            let t = &mut totals[id];
            t.chunks += field("chunks")?.as_u128().unwrap_or(0);
            t.candidates += field("candidates")?.as_u128().unwrap_or(0);
            t.busy_ms += field("busy_ms")?.as_f64().unwrap_or(0.0);
            t.idle_ms += field("idle_ms")?.as_f64().unwrap_or(0.0);
        }
    }
    if pool_events == 0 {
        let mut out = "no pool events in trace (serial run, or no level crossed the \
                   parallel threshold); nothing to skew-check\n"
            .to_string();
        out.push_str(&render_join_rows(&join_rows));
        return Ok(out);
    }

    // Flag threshold: twice the median total busy time. With an even
    // worker count the lower-middle element is the (conservative) pick.
    let mut busy: Vec<f64> = totals.iter().map(|t| t.busy_ms).collect();
    busy.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    let median = busy[(busy.len() - 1) / 2];
    let threshold = 2.0 * median;

    let mut out = format!(
        "worker utilization over {pool_events} pool event{} (flag: busy > 2x median {median:.3} ms)\n\n",
        if pool_events == 1 { "" } else { "s" }
    );
    let mut table = TextTable::new(&[
        "worker",
        "chunks",
        "candidates",
        "busy ms",
        "idle ms",
        "util %",
        "",
    ]);
    let mut flagged = 0usize;
    for (id, t) in totals.iter().enumerate() {
        let wall = t.busy_ms + t.idle_ms;
        let util = if wall > 0.0 {
            100.0 * t.busy_ms / wall
        } else {
            0.0
        };
        let skewed = t.busy_ms > threshold;
        flagged += skewed as usize;
        table.row(&[
            // Worker 0 is the main thread (it steals between recvs).
            if id == 0 {
                "0 (main)".to_string()
            } else {
                id.to_string()
            },
            t.chunks.to_string(),
            t.candidates.to_string(),
            format!("{:.3}", t.busy_ms),
            format!("{:.3}", t.idle_ms),
            format!("{util:.1}"),
            if skewed {
                "SKEW".to_string()
            } else {
                String::new()
            },
        ]);
    }
    out.push_str(&table.render());
    if flagged > 0 {
        out.push_str(&format!(
            "\n{flagged} worker{} above 2x the median busy time — chunk sizes may be \
             too coarse for this workload\n",
            if flagged == 1 { "" } else { "s" }
        ));
    }
    out.push_str(&render_join_rows(&join_rows));
    Ok(out)
}

/// Join-path micro-counters lifted from one `level` event.
struct JoinRow {
    level: usize,
    joins: u128,
    probed: u128,
    reallocs: u128,
    bytes_moved: u128,
    join_ms: f64,
}

impl JoinRow {
    fn from_event(value: &Json) -> Option<JoinRow> {
        Some(JoinRow {
            level: value.get("level")?.as_usize()?,
            joins: value.get("joins")?.as_u128()?,
            probed: value.get("probed")?.as_u128()?,
            reallocs: value.get("reallocs")?.as_u128()?,
            bytes_moved: value.get("bytes_moved")?.as_u128()?,
            join_ms: value.get("join_ms")?.as_f64()?,
        })
    }
}

/// The per-level join-counter table. Empty input (a trace predating the
/// counters, or one with no level events) renders nothing rather than
/// an empty table.
fn render_join_rows(rows: &[JoinRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = "\njoin-path counters per level\n\n".to_string();
    let mut table = TextTable::new(&[
        "level",
        "joins",
        "probed",
        "probed/join",
        "reallocs",
        "moved bytes",
        "join ms",
    ]);
    for r in rows {
        let per_join = if r.joins > 0 {
            format!("{:.1}", r.probed as f64 / r.joins as f64)
        } else {
            "-".to_string()
        };
        table.row(&[
            r.level.to_string(),
            r.joins.to_string(),
            r.probed.to_string(),
            per_join,
            r.reallocs.to_string(),
            r.bytes_moved.to_string(),
            format!("{:.3}", r.join_ms),
        ]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = r#"{"event": "seed", "level": 3, "patterns": 64, "pil_entries": 10, "arena_bytes": 100, "elapsed_ms": 1.0}
{"event": "level", "level": 4, "candidates": 12, "evaluated": 12, "frequent": 6, "kept": 6, "pruned_bound": 0, "pruned_support": 6, "arena_bytes": 200, "joins": 4, "probed": 120, "reallocs": 1, "bytes_moved": 96, "join_ms": 0.5, "elapsed_ms": 2.0, "saturated": false}
{"event": "pool", "level": 4, "chunks": 8, "workers": [{"worker": 0, "chunks": 2, "candidates": 100, "busy_ms": 1.0, "idle_ms": 3.0}, {"worker": 1, "chunks": 6, "candidates": 300, "busy_ms": 9.0, "idle_ms": 0.5}]}
{"event": "pool", "level": 5, "chunks": 8, "workers": [{"worker": 0, "chunks": 4, "candidates": 200, "busy_ms": 1.5, "idle_ms": 1.0}, {"worker": 1, "chunks": 4, "candidates": 200, "busy_ms": 2.0, "idle_ms": 0.0}]}
"#;

    #[test]
    fn aggregates_and_flags_skewed_workers() {
        let out = render(TRACE).unwrap();
        assert!(out.contains("2 pool events"), "{out}");
        // Worker 1: busy 11.0 ms vs median 2.5 (sorted lower-middle) — flagged.
        assert!(out.contains("SKEW"), "{out}");
        assert!(out.contains("0 (main)"), "{out}");
        assert!(out.contains("500"), "worker 1 candidate total: {out}");
        assert!(out.contains("1 worker above"), "{out}");
        // The level event's join counters land in the second table.
        assert!(out.contains("join-path counters"), "{out}");
        assert!(out.contains("30.0"), "probed/join ratio 120/4: {out}");
    }

    #[test]
    fn serial_trace_renders_note() {
        let out = render("{\"event\": \"seed\", \"level\": 3}\n").unwrap();
        assert!(out.contains("no pool events"), "{out}");
        assert!(
            !out.contains("join-path counters"),
            "no level events, no join table: {out}"
        );
    }

    #[test]
    fn serial_trace_with_levels_still_renders_join_counters() {
        let text: String = TRACE
            .lines()
            .filter(|l| !l.contains("\"pool\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let out = render(&text).unwrap();
        assert!(out.contains("no pool events"), "{out}");
        assert!(out.contains("join-path counters"), "{out}");
        assert!(out.contains("120"), "{out}");
    }

    #[test]
    fn garbage_line_is_an_error() {
        assert!(render("not json\n").is_err());
    }

    #[test]
    fn real_parallel_trace_round_trips() {
        use perigap_core::mpp::{mine, Algorithm, MppConfig};
        use perigap_core::trace::JsonlObserver;
        use perigap_core::GapRequirement;
        let seq = crate::data::scaling_sequence(4_000);
        let gap = GapRequirement::new(0, 9).unwrap();
        let mut sink = JsonlObserver::new(Vec::new());
        let config = MppConfig {
            threads: 4,
            ..MppConfig::default()
        };
        let mpp = Algorithm::Mpp { n: 8 };
        mine(&seq, gap, 0.003e-2, mpp, &config, &mut sink).unwrap();
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let out = render(&text).unwrap();
        assert!(
            out.contains("worker utilization") || out.contains("no pool events"),
            "{out}"
        );
    }
}
