//! Observability for the mining engines — zero-cost when off.
//!
//! The paper's whole evaluation is about *pruning power*: how many
//! candidates survive each level under the λ (Theorem 1) and λ′
//! (Theorem 2) bounds. This module makes those series — plus seed
//! construction cost, worker-pool behaviour and the `e_m` computation —
//! first-class outputs of every mine, without touching the hot path
//! when nobody is listening.
//!
//! ## Design
//!
//! [`MineObserver`] is a trait with one method, `on`, which receives
//! every [`Event`]: a `Copy` enum with one variant per event kind,
//! each borrowing the struct that carries the event's fields. The
//! miners (`dfs::run_hybrid`, `mine_collection`) are generic over
//! `O: MineObserver`, so a run with [`NoopObserver`] monomorphizes
//! every emission to an empty inlined body: the compiled hot loop is
//! identical to the pre-observability one. Every MPP and MPPm mine is
//! one call, [`crate::mpp::mine`], which takes the observer; the
//! paper's `mpp` and `mppm` pass [`NoopObserver`], so attaching a real
//! observer is opt-in.
//!
//! Two sinks ship with the crate:
//!
//! - [`JsonlObserver`] streams one JSON object per event to any
//!   `io::Write` (the `pgmine mine --trace <path>` file);
//! - [`MetricsObserver`] aggregates the events in memory and renders a
//!   human-readable summary (`pgmine mine --metrics`).
//!
//! Observers compose: `(A, B)` fans every event out to both, and
//! `Option<O>` is a no-op when `None`.
//!
//! ## JSONL schema
//!
//! Every line is a flat JSON object with an `"event"` discriminator:
//!
//! | event | fields |
//! |---|---|
//! | `seed` | `level`, `patterns`, `pil_entries`, `arena_bytes`, `elapsed_ms` |
//! | `level` | `level`, `candidates`, `evaluated`, `frequent`, `kept`, `pruned_bound`, `pruned_support`, `arena_bytes`, `joins`, `probed`, `reallocs`, `bytes_moved`, `join_ms`, `elapsed_ms`, `saturated` |
//! | `pool` | `level`, `chunks`, `workers` (array of `{worker, chunks, candidates, busy_ms, idle_ms}`) |
//! | `subtree` | `index`, `level`, `patterns`, `deepest`, `evaluated`, `frequent`, `peak_arena_bytes`, `elapsed_ms` |
//! | `em` | `m`, `em`, `elapsed_ms` |
//! | `spill` | `level`, `records`, `bytes`, `live_bytes`, `watermark_bytes`, `elapsed_ms` |
//! | `restore` | `record`, `bytes`, `patterns`, `elapsed_ms` |
//! | `warning` | `kind`, `message` |
//! | `query` | `kind`, `ok`, `results`, `latency_ms` |
//! | `diff` | `new`, `dropped`, `changed`, `unchanged` |
//! | `abort` | `message` |
//! | `summary` | `frequent`, `levels`, `total_candidates`, `n_used`, `support_saturated`, `peak_arena_bytes`, `total_ms` |
//!
//! `level` events appear in strictly increasing level order and the
//! `summary` line is last; [`validate_trace`] checks both plus the
//! totals-vs-levels consistency, and backs the `pgmine trace-check`
//! command and the CI smoke job. A trace that ends in an `abort` line
//! (a mine cut short by e.g. [`crate::MineError::MemoryCeiling`])
//! carries no `summary`; the abort must then be the final line.

use crate::result::MineOutcome;
use std::fmt::Write as _;
use std::io;
use std::time::Duration;

/// Seed construction: the level-`start` scan that feeds the level-wise
/// engine.
#[derive(Clone, Debug, Default)]
pub struct SeedEvent {
    /// The start level (pattern length of the seed generation).
    pub level: usize,
    /// Patterns with non-empty PILs in the seed generation.
    pub patterns: usize,
    /// Total PIL entries across the generation.
    pub pil_entries: usize,
    /// Approximate bytes held by the generation's arena buffers.
    pub arena_bytes: usize,
    /// Wall-clock time of the seed scan.
    pub elapsed: Duration,
}

/// One level of the mine: the paper's pruning-power counters
/// (Figures 4–5, Table 3) plus timings.
#[derive(Clone, Debug, Default)]
pub struct LevelEvent {
    /// Pattern length at this level.
    pub level: usize,
    /// Nominal candidates at this level (`σ^start` for the seed level,
    /// generated-candidate count afterwards) — `LevelStats::candidates`.
    pub candidates: u128,
    /// Patterns evaluated against the bounds: the seed patterns that
    /// occur in the sequence, then every generated candidate.
    pub evaluated: usize,
    /// Patterns meeting the exact frequency threshold
    /// (`LevelStats::frequent`).
    pub frequent: usize,
    /// Patterns meeting the relaxed λ/λ′ bound and carried into
    /// candidate generation (`LevelStats::extended`).
    pub kept: usize,
    /// `evaluated − kept`: pruned by the λ/λ′ bound.
    pub pruned_bound: usize,
    /// `evaluated − frequent`: below the exact support threshold.
    pub pruned_support: usize,
    /// Approximate bytes of this level's surviving arenas, summed over
    /// every task that mined the level (the seed level: the whole seed).
    pub arena_bytes: usize,
    /// Join-kernel invocations in the fan-out that generated this
    /// level's members (zero for the seed level, whose PILs come from
    /// the sequence scan): one per candidate. Physical diagnostics:
    /// `joins` and `probed` are fixed by the candidates, while
    /// `reallocs` and `bytes_moved` depend on how each task's reused
    /// output list grew, so they vary with the schedule. None of the
    /// four is part of `MineStats`.
    pub joins: u64,
    /// Probe positions scanned across those joins (left offsets walked
    /// plus right entries absorbed by the sliding windows).
    pub probed: u64,
    /// Output-buffer reallocations the joins triggered.
    pub reallocs: u64,
    /// Bytes copied by those reallocations.
    pub bytes_moved: u64,
    /// Time spent generating and evaluating this level's candidates,
    /// summed over the tasks that mined it (zero for the seed level).
    pub join_elapsed: Duration,
    /// This level's time: the generation that produced it, or for the
    /// seed level the seed filter.
    pub elapsed: Duration,
    /// True when a support counter in this generation saturated — the
    /// reported counts are lower bounds (see `MineStats::support_saturated`).
    pub saturated: bool,
}

/// One worker's share of a level's chunk stealing. Worker 0 is the
/// main thread; ids 1.. are pool threads.
#[derive(Clone, Debug)]
pub struct WorkerLevelStats {
    /// Worker id (0 = the calling thread).
    pub worker: usize,
    /// Chunks this worker claimed.
    pub chunks: usize,
    /// Candidates this worker produced.
    pub candidates: usize,
    /// Time spent processing chunks.
    pub busy: Duration,
    /// Level wall-clock minus busy time.
    pub idle: Duration,
}

/// Worker-pool activity for one parallel level.
#[derive(Clone, Debug)]
pub struct PoolLevelEvent {
    /// The level being *generated* (parents are at `level − 1`).
    pub level: usize,
    /// Number of stolen chunks.
    pub chunks: usize,
    /// Per-worker breakdown, main thread first.
    pub workers: Vec<WorkerLevelStats>,
}

/// The `e_m` computation of MPPm (Theorem 2).
#[derive(Clone, Debug)]
pub struct EmEvent {
    /// The window parameter `m`.
    pub m: usize,
    /// The computed statistic (clamped to ≥ 1 as used by λ′).
    pub em: u64,
    /// Wall-clock time of the computation.
    pub elapsed: Duration,
}

/// One depth-first subtree task of the engine ([`crate::dfs`]): a
/// connected component of the prefix-run graph
/// mined to exhaustion by a single worker.
#[derive(Clone, Debug)]
pub struct SubtreeEvent {
    /// Task index within the handoff batch.
    pub index: usize,
    /// Level of the parent generation the task started from.
    pub level: usize,
    /// Kept parent patterns handed to the task.
    pub patterns: usize,
    /// Deepest level the task generated (equals `level` when the
    /// component produced no candidates at all).
    pub deepest: usize,
    /// Candidates evaluated across the whole subtree.
    pub evaluated: usize,
    /// Frequent patterns the subtree contributed.
    pub frequent: usize,
    /// Peak arena bytes attributed to this task's double buffer.
    pub peak_arena_bytes: usize,
    /// Wall-clock time of the task.
    pub elapsed: Duration,
}

/// The engine spilled the cold subtree arenas to disk at the component
/// handoff because the live gauge crossed the spill watermark
/// (see [`crate::spill`]): one event per handoff batch.
#[derive(Clone, Debug)]
pub struct SpillEvent {
    /// Level of the parent generation whose components were spilled.
    pub level: usize,
    /// Spill records written (one per cold component).
    pub records: u64,
    /// Serialized bytes written across those records.
    pub bytes: u64,
    /// Live arena bytes at the moment the spill decision was taken.
    pub live_bytes: usize,
    /// The watermark in bytes (`max_arena_bytes × spill_watermark`)
    /// the live gauge crossed.
    pub watermark_bytes: usize,
    /// Wall-clock time spent encoding and writing the records.
    pub elapsed: Duration,
}

/// One spill record read back and decoded on the worker that popped
/// its subtree task. A completed spilling run emits exactly one
/// restore per spill record.
#[derive(Clone, Debug)]
pub struct RestoreEvent {
    /// The spill record id.
    pub record: u64,
    /// Serialized bytes read back.
    pub bytes: u64,
    /// Patterns in the restored component.
    pub patterns: usize,
    /// Wall-clock time spent reading and decoding the record.
    pub elapsed: Duration,
}

/// A mine cut short by an error after events were already emitted —
/// e.g. [`crate::MineError::MemoryCeiling`]. Terminal: no `summary`
/// follows.
#[derive(Clone, Debug)]
pub struct AbortEvent {
    /// Human-readable reason (the error's `Display`).
    pub message: String,
}

/// A non-fatal anomaly the run survived but the operator should know
/// about — e.g. a spill record that could not be removed after its
/// subtree was mined (`kind = "spill-cleanup"`). Warnings may appear
/// anywhere before the terminal `summary`/`abort` line.
#[derive(Clone, Debug)]
pub struct WarningEvent {
    /// Stable machine-readable category (`"spill-cleanup"`, ...).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

/// One pattern-store query answered by `pgmine serve` — the daemon
/// shares this trace layer so query counters flow through the same
/// JSONL/metrics sinks as mining events.
#[derive(Clone, Debug)]
pub struct QueryEvent {
    /// Query kind (`"support"`, `"topk"`, `"prefix"`, `"overlap"`,
    /// `"stats"`).
    pub kind: String,
    /// False when the query was rejected (bad pattern, bad arguments).
    pub ok: bool,
    /// Result rows returned (0 for errors and scalar answers).
    pub results: usize,
    /// Wall-clock service time.
    pub latency: Duration,
    /// Whether the rendered response came out of the daemon's response
    /// cache (`Some(true)` hit, `Some(false)` miss, `None` for query
    /// kinds the cache never holds — e.g. `stats`, `shutdown`).
    pub cache: Option<bool>,
}

/// An incremental re-mine compared its result against the cached
/// baseline (see [`crate::incremental`]): the [`crate::DiffStats`]
/// rollup of the per-pattern diff. Emitted once, before the completion
/// event, and only when a usable baseline existed.
#[derive(Clone, Debug)]
pub struct DiffEvent {
    /// Patterns frequent now but not in the baseline.
    pub new: usize,
    /// Baseline patterns no longer frequent.
    pub dropped: usize,
    /// Patterns frequent in both with a different support.
    pub changed: usize,
    /// Patterns frequent in both at the same support.
    pub unchanged: usize,
}

/// Mine completion: run-wide totals.
#[derive(Clone, Debug, Default)]
pub struct CompleteEvent {
    /// Frequent patterns found.
    pub frequent: usize,
    /// Levels visited.
    pub levels: usize,
    /// Candidates summed over all levels.
    pub total_candidates: u128,
    /// The `n` the engine actually used.
    pub n_used: usize,
    /// True when any support counter saturated during the run.
    pub support_saturated: bool,
    /// Peak arena bytes observed across the run (0 when the engine
    /// predates the gauge).
    pub peak_arena_bytes: usize,
    /// The `k` of a top-k run; `None` on full and targeted mines. When
    /// set, `frequent` is the truncated top-k count, smaller than the
    /// per-level totals (`trace-check` relaxes its sum check on this).
    pub top_k: Option<usize>,
    /// Times the top-k support floor rose (0 outside top-k runs).
    pub floor_raises: u64,
    /// Patterns and join parents pruned by the support floor.
    pub pruned_by_floor: u64,
    /// Patterns, parents, and components pruned by the mining target.
    pub pruned_by_target: u64,
    /// Total wall-clock time.
    pub total_elapsed: Duration,
}

impl CompleteEvent {
    /// Build the completion event from a finished outcome.
    pub fn from_outcome(outcome: &MineOutcome) -> CompleteEvent {
        CompleteEvent {
            frequent: outcome.frequent.len(),
            levels: outcome.stats.levels.len(),
            total_candidates: outcome.stats.total_candidates(),
            n_used: outcome.stats.n_used,
            support_saturated: outcome.stats.support_saturated,
            peak_arena_bytes: 0,
            top_k: outcome.stats.top_k,
            floor_raises: outcome.stats.floor_raises,
            pruned_by_floor: outcome.stats.pruned_by_floor,
            pruned_by_target: outcome.stats.pruned_by_target,
            total_elapsed: outcome.stats.total_elapsed,
        }
    }

    /// Attach the engine's peak arena gauge reading.
    pub fn with_peak_arena_bytes(mut self, peak: usize) -> CompleteEvent {
        self.peak_arena_bytes = peak;
        self
    }
}

/// One event of a mine, borrowed from its emitter: what
/// [`MineObserver::on`] receives. Each variant holds the event struct
/// that carries its fields.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a> {
    /// The seed generation was built.
    Seed(&'a SeedEvent),
    /// A level finished.
    Level(&'a LevelEvent),
    /// A parallel level's worker-pool breakdown.
    Pool(&'a PoolLevelEvent),
    /// A depth-first subtree task completed.
    Subtree(&'a SubtreeEvent),
    /// MPPm computed `e_m`.
    Em(&'a EmEvent),
    /// Cold subtree arenas were spilled at the component handoff.
    Spill(&'a SpillEvent),
    /// A spill record was restored and mined.
    Restore(&'a RestoreEvent),
    /// A non-fatal anomaly was survived (e.g. spill cleanup failure).
    Warning(&'a WarningEvent),
    /// A pattern-store query was served (`pgmine serve` only).
    Query(&'a QueryEvent),
    /// An incremental re-mine diffed its result against the cached
    /// baseline (incremental mines only).
    Diff(&'a DiffEvent),
    /// The mine aborted after partial progress (terminal).
    Abort(&'a AbortEvent),
    /// The mine finished (terminal).
    Complete(&'a CompleteEvent),
}

/// Receiver of mining events: one call per [`Event`]. An observer
/// matches on the variants it cares about, and [`NoopObserver`]
/// monomorphizes to nothing at all.
pub trait MineObserver {
    /// Receive one event.
    fn on(&mut self, event: Event<'_>);
}

/// The do-nothing observer: the default for every untraced mine.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl MineObserver for NoopObserver {
    #[inline]
    fn on(&mut self, _event: Event<'_>) {}
}

impl<O: MineObserver + ?Sized> MineObserver for &mut O {
    fn on(&mut self, event: Event<'_>) {
        (**self).on(event);
    }
}

impl<A: MineObserver, B: MineObserver> MineObserver for (A, B) {
    fn on(&mut self, event: Event<'_>) {
        self.0.on(event);
        self.1.on(event);
    }
}

impl<O: MineObserver> MineObserver for Option<O> {
    fn on(&mut self, event: Event<'_>) {
        if let Some(o) = self {
            o.on(event);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Minimal JSON string escape for the few free-text fields (abort
/// messages carry panic payloads, which may contain anything). Public
/// so the serve protocol can emit the same escaping the sinks use.
pub fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Streams every event as one JSON line (the schema in the module
/// docs). Write errors are sticky: the first one stops further output
/// and surfaces from [`JsonlObserver::finish`].
pub struct JsonlObserver<W: io::Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlObserver<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> JsonlObserver<W> {
        JsonlObserver { out, error: None }
    }

    /// Flush and return the writer, or the first write error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }
}

impl<W: io::Write> MineObserver for JsonlObserver<W> {
    fn on(&mut self, event: Event<'_>) {
        let line = match event {
            Event::Seed(e) => format!(
                "{{\"event\": \"seed\", \"level\": {}, \"patterns\": {}, \"pil_entries\": {}, \"arena_bytes\": {}, \"elapsed_ms\": {:.3}}}",
                e.level, e.patterns, e.pil_entries, e.arena_bytes, ms(e.elapsed)
            ),
            Event::Level(e) => format!(
                "{{\"event\": \"level\", \"level\": {}, \"candidates\": {}, \"evaluated\": {}, \"frequent\": {}, \"kept\": {}, \"pruned_bound\": {}, \"pruned_support\": {}, \"arena_bytes\": {}, \"joins\": {}, \"probed\": {}, \"reallocs\": {}, \"bytes_moved\": {}, \"join_ms\": {:.3}, \"elapsed_ms\": {:.3}, \"saturated\": {}}}",
                e.level,
                e.candidates,
                e.evaluated,
                e.frequent,
                e.kept,
                e.pruned_bound,
                e.pruned_support,
                e.arena_bytes,
                e.joins,
                e.probed,
                e.reallocs,
                e.bytes_moved,
                ms(e.join_elapsed),
                ms(e.elapsed),
                e.saturated
            ),
            Event::Pool(e) => {
                let mut workers = String::from("[");
                for (i, w) in e.workers.iter().enumerate() {
                    if i > 0 {
                        workers.push_str(", ");
                    }
                    let _ = write!(
                        workers,
                        "{{\"worker\": {}, \"chunks\": {}, \"candidates\": {}, \"busy_ms\": {:.3}, \"idle_ms\": {:.3}}}",
                        w.worker,
                        w.chunks,
                        w.candidates,
                        ms(w.busy),
                        ms(w.idle)
                    );
                }
                workers.push(']');
                format!(
                    "{{\"event\": \"pool\", \"level\": {}, \"chunks\": {}, \"workers\": {workers}}}",
                    e.level, e.chunks
                )
            }
            Event::Subtree(e) => format!(
                "{{\"event\": \"subtree\", \"index\": {}, \"level\": {}, \"patterns\": {}, \"deepest\": {}, \"evaluated\": {}, \"frequent\": {}, \"peak_arena_bytes\": {}, \"elapsed_ms\": {:.3}}}",
                e.index,
                e.level,
                e.patterns,
                e.deepest,
                e.evaluated,
                e.frequent,
                e.peak_arena_bytes,
                ms(e.elapsed)
            ),
            Event::Em(e) => format!(
                "{{\"event\": \"em\", \"m\": {}, \"em\": {}, \"elapsed_ms\": {:.3}}}",
                e.m,
                e.em,
                ms(e.elapsed)
            ),
            Event::Spill(e) => format!(
                "{{\"event\": \"spill\", \"level\": {}, \"records\": {}, \"bytes\": {}, \"live_bytes\": {}, \"watermark_bytes\": {}, \"elapsed_ms\": {:.3}}}",
                e.level,
                e.records,
                e.bytes,
                e.live_bytes,
                e.watermark_bytes,
                ms(e.elapsed)
            ),
            Event::Restore(e) => format!(
                "{{\"event\": \"restore\", \"record\": {}, \"bytes\": {}, \"patterns\": {}, \"elapsed_ms\": {:.3}}}",
                e.record,
                e.bytes,
                e.patterns,
                ms(e.elapsed)
            ),
            Event::Warning(e) => format!(
                "{{\"event\": \"warning\", \"kind\": \"{}\", \"message\": \"{}\"}}",
                escape_json(&e.kind),
                escape_json(&e.message)
            ),
            Event::Query(e) => {
                let cache = match e.cache {
                    Some(hit) => format!(", \"cache_hit\": {hit}"),
                    None => String::new(),
                };
                format!(
                    "{{\"event\": \"query\", \"kind\": \"{}\", \"ok\": {}, \"results\": {}, \"latency_ms\": {:.3}{}}}",
                    escape_json(&e.kind),
                    e.ok,
                    e.results,
                    ms(e.latency),
                    cache
                )
            }
            Event::Diff(e) => format!(
                "{{\"event\": \"diff\", \"new\": {}, \"dropped\": {}, \"changed\": {}, \"unchanged\": {}}}",
                e.new, e.dropped, e.changed, e.unchanged
            ),
            Event::Abort(e) => format!(
                "{{\"event\": \"abort\", \"message\": \"{}\"}}",
                escape_json(&e.message)
            ),
            Event::Complete(e) => {
                // Pruning fields appear only on runs that used them,
                // keeping full-mine traces byte-stable.
                let mut prune = String::new();
                if let Some(k) = e.top_k {
                    let _ = write!(
                        prune,
                        ", \"top_k\": {}, \"floor_raises\": {}, \"pruned_by_floor\": {}",
                        k, e.floor_raises, e.pruned_by_floor
                    );
                }
                if e.pruned_by_target > 0 {
                    let _ = write!(prune, ", \"pruned_by_target\": {}", e.pruned_by_target);
                }
                format!(
                    "{{\"event\": \"summary\", \"frequent\": {}, \"levels\": {}, \"total_candidates\": {}, \"n_used\": {}, \"support_saturated\": {}, \"peak_arena_bytes\": {}{}, \"total_ms\": {:.3}}}",
                    e.frequent,
                    e.levels,
                    e.total_candidates,
                    e.n_used,
                    e.support_saturated,
                    e.peak_arena_bytes,
                    prune,
                    ms(e.total_elapsed)
                )
            }
        };
        self.write_line(&line);
    }
}

/// Aggregates every event in memory — the `--metrics` sink and the
/// bench harness's source for the pruning-power series.
#[derive(Debug, Default)]
pub struct MetricsObserver {
    /// The seed event, if one fired.
    pub seed: Option<SeedEvent>,
    /// Level events in arrival (= level) order.
    pub levels: Vec<LevelEvent>,
    /// Pool events in arrival order.
    pub pool: Vec<PoolLevelEvent>,
    /// Subtree events in arrival (= handoff task) order.
    pub subtrees: Vec<SubtreeEvent>,
    /// The `e_m` event, if the mine was MPPm.
    pub em: Option<EmEvent>,
    /// Spill events in arrival order (at most one per handoff).
    pub spills: Vec<SpillEvent>,
    /// Restore events in record order.
    pub restores: Vec<RestoreEvent>,
    /// Warnings in arrival order.
    pub warnings: Vec<WarningEvent>,
    /// Per-kind query aggregates, sorted by kind (serve runs only).
    pub queries: std::collections::BTreeMap<String, QueryStats>,
    /// The baseline diff rollup, if the mine was incremental and had a
    /// usable baseline.
    pub diff: Option<DiffEvent>,
    /// The abort event, if the mine was cut short.
    pub abort: Option<AbortEvent>,
    /// The completion event.
    pub complete: Option<CompleteEvent>,
}

/// Aggregated service counters for one query kind (the
/// [`MetricsObserver`] rollup of [`QueryEvent`]s).
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Queries served.
    pub count: u64,
    /// Queries rejected (`ok = false`).
    pub errors: u64,
    /// Result rows summed over the kind.
    pub results: u64,
    /// Service time summed over the kind.
    pub total_latency: Duration,
    /// Worst single-query service time.
    pub max_latency: Duration,
    /// Responses served from the daemon's response cache.
    pub cache_hits: u64,
    /// Responses rendered fresh for a cacheable query kind.
    pub cache_misses: u64,
}

impl MetricsObserver {
    /// An empty aggregator.
    pub fn new() -> MetricsObserver {
        MetricsObserver::default()
    }

    /// Candidates summed over observed levels.
    pub fn total_candidates(&self) -> u128 {
        self.levels.iter().map(|l| l.candidates).sum()
    }

    /// Render the human-readable summary printed by `pgmine mine
    /// --metrics`.
    pub fn render(&self) -> String {
        let mut out = String::from("mining metrics\n");
        if let Some(s) = &self.seed {
            let _ = writeln!(
                out,
                "  seed: level {} | {} patterns | {} PIL entries | {} arena bytes | {:.3} ms",
                s.level,
                s.patterns,
                s.pil_entries,
                s.arena_bytes,
                ms(s.elapsed)
            );
        }
        if let Some(e) = &self.em {
            let _ = writeln!(
                out,
                "  e_m: m = {} -> e_m = {} in {:.3} ms",
                e.m,
                e.em,
                ms(e.elapsed)
            );
        }
        out.push_str(
            "  level | candidates | evaluated | frequent | kept | pruned_bound | pruned_support | joins | probed | reallocs | moved_bytes | join_ms | total_ms\n",
        );
        for l in &self.levels {
            let _ = writeln!(
                out,
                "  {:>5} | {:>10} | {:>9} | {:>8} | {:>4} | {:>12} | {:>14} | {:>5} | {:>6} | {:>8} | {:>11} | {:>7.3} | {:>8.3}{}",
                l.level,
                l.candidates,
                l.evaluated,
                l.frequent,
                l.kept,
                l.pruned_bound,
                l.pruned_support,
                l.joins,
                l.probed,
                l.reallocs,
                l.bytes_moved,
                ms(l.join_elapsed),
                ms(l.elapsed),
                if l.saturated { "  [saturated]" } else { "" }
            );
        }
        for p in &self.pool {
            let _ = writeln!(out, "  pool @ level {}: {} chunks", p.level, p.chunks);
            for w in &p.workers {
                let _ = writeln!(
                    out,
                    "    worker {:>2}: {:>4} chunks | {:>8} candidates | busy {:>8.3} ms | idle {:>8.3} ms",
                    w.worker,
                    w.chunks,
                    w.candidates,
                    ms(w.busy),
                    ms(w.idle)
                );
            }
        }
        for s in &self.subtrees {
            let _ = writeln!(
                out,
                "  subtree {:>3} @ level {}: {} parents -> depth {} | {} evaluated | {} frequent | peak {} bytes | {:.3} ms",
                s.index,
                s.level,
                s.patterns,
                s.deepest,
                s.evaluated,
                s.frequent,
                s.peak_arena_bytes,
                ms(s.elapsed)
            );
        }
        for s in &self.spills {
            let _ = writeln!(
                out,
                "  spill @ level {}: {} records | {} bytes | live {} over watermark {} | {:.3} ms",
                s.level,
                s.records,
                s.bytes,
                s.live_bytes,
                s.watermark_bytes,
                ms(s.elapsed)
            );
        }
        for r in &self.restores {
            let _ = writeln!(
                out,
                "  restore record {}: {} bytes | {} patterns | {:.3} ms",
                r.record,
                r.bytes,
                r.patterns,
                ms(r.elapsed)
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "  warning [{}]: {}", w.kind, w.message);
        }
        for (kind, q) in &self.queries {
            let mean = if q.count > 0 {
                ms(q.total_latency) / q.count as f64
            } else {
                0.0
            };
            let cache = if q.cache_hits + q.cache_misses > 0 {
                format!(" | cache {} hit / {} miss", q.cache_hits, q.cache_misses)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "  query {kind}: {} served | {} errors | {} rows | mean {:.3} ms | max {:.3} ms{}",
                q.count,
                q.errors,
                q.results,
                mean,
                ms(q.max_latency),
                cache
            );
        }
        if let Some(d) = &self.diff {
            let _ = writeln!(
                out,
                "  baseline diff: {} new | {} dropped | {} changed | {} unchanged",
                d.new, d.dropped, d.changed, d.unchanged
            );
        }
        if let Some(a) = &self.abort {
            let _ = writeln!(out, "  ABORTED: {}", a.message);
        }
        if let Some(c) = &self.complete {
            let _ = writeln!(
                out,
                "  total: {} frequent over {} levels | {} candidates | n = {} | peak {} arena bytes | {:.3} ms{}",
                c.frequent,
                c.levels,
                c.total_candidates,
                c.n_used,
                c.peak_arena_bytes,
                ms(c.total_elapsed),
                if c.support_saturated {
                    " | SUPPORT SATURATED"
                } else {
                    ""
                }
            );
            if c.top_k.is_some() || c.pruned_by_target > 0 {
                let k = c
                    .top_k
                    .map(|k| k.to_string())
                    .unwrap_or_else(|| "-".to_string());
                let _ = writeln!(
                    out,
                    "  pruning: top_k {} | floor_raises {} | pruned_by_floor {} | pruned_by_target {}",
                    k, c.floor_raises, c.pruned_by_floor, c.pruned_by_target
                );
            }
        }
        out
    }
}

impl MineObserver for MetricsObserver {
    fn on(&mut self, event: Event<'_>) {
        match event {
            Event::Seed(e) => self.seed = Some(e.clone()),
            Event::Level(e) => self.levels.push(e.clone()),
            Event::Pool(e) => self.pool.push(e.clone()),
            Event::Subtree(e) => self.subtrees.push(e.clone()),
            Event::Em(e) => self.em = Some(e.clone()),
            Event::Spill(e) => self.spills.push(e.clone()),
            Event::Restore(e) => self.restores.push(e.clone()),
            Event::Warning(e) => self.warnings.push(e.clone()),
            Event::Query(e) => {
                let q = self.queries.entry(e.kind.clone()).or_default();
                q.count += 1;
                if !e.ok {
                    q.errors += 1;
                }
                q.results += e.results as u64;
                q.total_latency += e.latency;
                q.max_latency = q.max_latency.max(e.latency);
                match e.cache {
                    Some(true) => q.cache_hits += 1,
                    Some(false) => q.cache_misses += 1,
                    None => {}
                }
            }
            Event::Diff(e) => self.diff = Some(e.clone()),
            Event::Abort(e) => self.abort = Some(e.clone()),
            Event::Complete(e) => self.complete = Some(e.clone()),
        }
    }
}

// ---------------------------------------------------------------------
// JSONL validation (pgmine trace-check, CI smoke, integration tests).
// The workspace carries no serde, so this is a minimal hand-rolled JSON
// reader covering exactly what the sinks emit.
// ---------------------------------------------------------------------

/// A parsed JSON value (just enough for the trace schema).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer without fraction or exponent (kept exact — candidate
    /// counts exceed `f64` precision).
    Int(u128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// Deepest nesting [`Json::parse`] accepts. The deepest document the
/// workspace reads has three levels; the cap keeps one hostile line
/// from recursing the parser off its thread's stack.
const MAX_JSON_DEPTH: usize = 64;

impl Json {
    /// Parse one JSON document (must consume the whole input). Nesting
    /// deeper than 64 arrays or objects is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Look up an object field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u128().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", b as char, *pos))
    }
}

/// Parse the value at `pos`, which sits inside `depth` arrays or
/// objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at offset {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at offset {}", *pos))?;
                        // The sinks only emit BMP scalars (control chars);
                        // surrogate halves are rejected.
                        let ch = char::from_u32(hex)
                            .ok_or_else(|| format!("non-scalar \\u escape at offset {}", *pos))?;
                        out.push(ch);
                        *pos += 4;
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                }
                *pos += 1;
            }
            _ => {
                // Copy the run of plain characters in one step. The run
                // ends at an ASCII quote or backslash, or at the end of
                // the input, so it is whole UTF-8.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("bad number at offset {start}"));
    }
    if !fractional && !text.starts_with('-') {
        if let Ok(v) = text.parse::<u128>() {
            return Ok(Json::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?}"))
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        out.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

/// What [`validate_trace`] found in a well-formed trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// Non-empty lines in the file.
    pub lines: usize,
    /// Level events.
    pub level_events: usize,
    /// The summary line's frequent-pattern total.
    pub frequent: usize,
    /// The summary line's candidate total.
    pub total_candidates: u128,
    /// True when the trace ends in an `abort` line instead of a
    /// `summary` (the mine was cut short; totals are partial).
    pub aborted: bool,
    /// Query events (a `pgmine serve --trace` file holds these).
    pub queries: usize,
}

/// A `pool` event's worker breakdown accounts for the job: the
/// workers' `chunks` sum to the event's, and every worker reports a
/// non-negative `busy_ms` and `idle_ms`.
fn check_pool(value: &Json) -> Result<(), String> {
    let chunks = value
        .get("chunks")
        .and_then(Json::as_usize)
        .ok_or("without chunks")?;
    let workers = value
        .get("workers")
        .and_then(Json::as_arr)
        .ok_or("without workers")?;
    let mut claimed = 0usize;
    for (w, worker) in workers.iter().enumerate() {
        let mine = worker
            .get("chunks")
            .and_then(Json::as_usize)
            .ok_or(format!("worker {w} without chunks"))?;
        claimed = claimed
            .checked_add(mine)
            .ok_or("worker chunks overflow a count")?;
        for key in ["busy_ms", "idle_ms"] {
            let ms = worker
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("worker {w} without {key}"))?;
            if ms < 0.0 {
                return Err(format!("worker {w} {key} {ms} is negative"));
            }
        }
    }
    if claimed != chunks {
        return Err(format!(
            "workers claim {claimed} chunks, the event says {chunks}"
        ));
    }
    Ok(())
}

/// Validate a JSONL trace against the schema: every line parses as an
/// object with an `"event"` field; `level` events are strictly
/// increasing in level; every `pool` event's workers account for its
/// chunks; every `query` event carries its `kind`, `ok` and
/// `latency_ms`; exactly one `summary` line exists, comes last, and its
/// totals match the level events. A mine's trace may instead end in one
/// `abort` line (and then carries no `summary`). A serve trace holds
/// only `query` and `warning` lines, at least one of them a query, and
/// no summary.
pub fn validate_trace(text: &str) -> Result<TraceReport, String> {
    let mut report = TraceReport::default();
    let mut last_level: Option<usize> = None;
    let mut level_frequent = 0usize;
    let mut level_candidates = 0u128;
    let mut summary: Option<(usize, Json)> = None;
    let mut aborted = false;
    // Every line so far is a `query` or `warning` event.
    let mut serve_only = true;

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        report.lines += 1;
        let value = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let event = value
            .get("event")
            .and_then(Json::as_str)
            .ok_or(format!("line {lineno}: missing \"event\" field"))?
            .to_string();
        if summary.is_some() {
            return Err(format!("line {lineno}: events after the summary line"));
        }
        if aborted {
            return Err(format!("line {lineno}: events after the abort line"));
        }
        serve_only &= matches!(event.as_str(), "query" | "warning");
        match event.as_str() {
            "level" => {
                let level = value
                    .get("level")
                    .and_then(Json::as_usize)
                    .ok_or(format!("line {lineno}: level event without level"))?;
                if let Some(prev) = last_level {
                    if level <= prev {
                        return Err(format!(
                            "line {lineno}: level {level} not above previous {prev}"
                        ));
                    }
                }
                last_level = Some(level);
                report.level_events += 1;
                level_frequent += value
                    .get("frequent")
                    .and_then(Json::as_usize)
                    .ok_or(format!("line {lineno}: level event without frequent"))?;
                level_candidates += value
                    .get("candidates")
                    .and_then(Json::as_u128)
                    .ok_or(format!("line {lineno}: level event without candidates"))?;
            }
            "summary" => summary = Some((lineno, value)),
            "abort" => {
                value
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {lineno}: abort event without message"))?;
                aborted = true;
            }
            "warning" => {
                value
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {lineno}: warning event without kind"))?;
                value
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {lineno}: warning event without message"))?;
            }
            "pool" => check_pool(&value).map_err(|e| format!("line {lineno}: pool event {e}"))?,
            "query" => {
                value
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {lineno}: query event without kind"))?;
                value
                    .get("ok")
                    .and_then(Json::as_bool)
                    .ok_or(format!("line {lineno}: query event without ok"))?;
                value
                    .get("latency_ms")
                    .and_then(Json::as_f64)
                    .ok_or(format!("line {lineno}: query event without latency_ms"))?;
                report.queries += 1;
            }
            "seed" | "subtree" | "em" | "spill" | "restore" | "diff" => {}
            other => return Err(format!("line {lineno}: unknown event {other:?}")),
        }
    }

    if aborted {
        // A cut-short mine: no summary, partial totals from the level
        // events that did make it out.
        report.frequent = level_frequent;
        report.total_candidates = level_candidates;
        report.aborted = true;
        return Ok(report);
    }
    if summary.is_none() && serve_only && report.queries > 0 {
        return Ok(report);
    }
    let (lineno, summary) = summary.ok_or("trace has no summary line")?;
    let frequent = summary
        .get("frequent")
        .and_then(Json::as_usize)
        .ok_or(format!("line {lineno}: summary without frequent"))?;
    let total_candidates = summary
        .get("total_candidates")
        .and_then(Json::as_u128)
        .ok_or(format!("line {lineno}: summary without total_candidates"))?;
    let levels = summary
        .get("levels")
        .and_then(Json::as_usize)
        .ok_or(format!("line {lineno}: summary without levels"))?;
    // Under a top-k floor the summary reports the truncated result set,
    // while level events count every pattern that was frequent when its
    // level ran — so the sum is only an upper bound there.
    let top_k_run = summary.get("top_k").is_some();
    if top_k_run {
        if frequent > level_frequent {
            return Err(format!(
                "summary frequent {frequent} > {level_frequent} summed over level events in a top-k run"
            ));
        }
    } else if frequent != level_frequent {
        return Err(format!(
            "summary frequent {frequent} != {level_frequent} summed over level events"
        ));
    }
    if total_candidates != level_candidates {
        return Err(format!(
            "summary total_candidates {total_candidates} != {level_candidates} summed over level events"
        ));
    }
    if levels != report.level_events {
        return Err(format!(
            "summary levels {levels} != {} level events",
            report.level_events
        ));
    }
    report.frequent = frequent;
    report.total_candidates = total_candidates;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level_event(level: usize) -> LevelEvent {
        LevelEvent {
            level,
            candidates: 64,
            evaluated: 60,
            frequent: 10,
            kept: 20,
            pruned_bound: 40,
            pruned_support: 50,
            arena_bytes: 4096,
            joins: 60,
            probed: 1200,
            reallocs: 3,
            bytes_moved: 768,
            join_elapsed: Duration::from_micros(500),
            elapsed: Duration::from_millis(1),
            saturated: false,
        }
    }

    fn complete_event(levels: usize) -> CompleteEvent {
        CompleteEvent {
            frequent: 10 * levels,
            levels,
            total_candidates: 64 * levels as u128,
            n_used: 8,
            support_saturated: false,
            peak_arena_bytes: 8192,
            top_k: None,
            floor_raises: 0,
            pruned_by_floor: 0,
            pruned_by_target: 0,
            total_elapsed: Duration::from_millis(3),
        }
    }

    fn subtree_event(index: usize) -> SubtreeEvent {
        SubtreeEvent {
            index,
            level: 4,
            patterns: 7,
            deepest: 9,
            evaluated: 120,
            frequent: 5,
            peak_arena_bytes: 2048,
            elapsed: Duration::from_millis(2),
        }
    }

    /// One fixed instance of every event kind, plus the optional
    /// branches: a query with and without a cache flag, and a summary
    /// with and without the pruning fields.
    fn feed_pinned_events<O: MineObserver>(o: &mut O) {
        o.on(Event::Seed(&SeedEvent {
            level: 3,
            patterns: 64,
            pil_entries: 12_345,
            arena_bytes: 98_304,
            elapsed: Duration::from_micros(1_234),
        }));
        o.on(Event::Em(&EmEvent {
            m: 4,
            em: 17,
            elapsed: Duration::from_micros(2_500),
        }));
        o.on(Event::Level(&LevelEvent {
            level: 3,
            candidates: 64,
            evaluated: 60,
            frequent: 10,
            kept: 20,
            pruned_bound: 40,
            pruned_support: 50,
            arena_bytes: 4_096,
            elapsed: Duration::from_micros(750),
            ..LevelEvent::default()
        }));
        o.on(Event::Level(&LevelEvent {
            level: 4,
            candidates: 80,
            evaluated: 80,
            frequent: 7,
            kept: 9,
            pruned_bound: 71,
            pruned_support: 73,
            arena_bytes: 2_048,
            joins: 80,
            probed: 1_600,
            reallocs: 3,
            bytes_moved: 768,
            join_elapsed: Duration::from_micros(1_500),
            elapsed: Duration::from_micros(1_999),
            saturated: true,
        }));
        o.on(Event::Pool(&PoolLevelEvent {
            level: 4,
            chunks: 5,
            workers: vec![
                WorkerLevelStats {
                    worker: 0,
                    chunks: 3,
                    candidates: 50,
                    busy: Duration::from_micros(900),
                    idle: Duration::from_micros(100),
                },
                WorkerLevelStats {
                    worker: 1,
                    chunks: 2,
                    candidates: 30,
                    busy: Duration::from_micros(600),
                    idle: Duration::from_micros(400),
                },
            ],
        }));
        o.on(Event::Subtree(&SubtreeEvent {
            index: 0,
            level: 4,
            patterns: 9,
            deepest: 7,
            evaluated: 120,
            frequent: 5,
            peak_arena_bytes: 2_048,
            elapsed: Duration::from_micros(3_003),
        }));
        o.on(Event::Spill(&SpillEvent {
            level: 4,
            records: 2,
            bytes: 640,
            live_bytes: 900,
            watermark_bytes: 512,
            elapsed: Duration::from_micros(1_001),
        }));
        o.on(Event::Restore(&RestoreEvent {
            record: 1,
            bytes: 320,
            patterns: 4,
            elapsed: Duration::from_micros(100),
        }));
        o.on(Event::Warning(&WarningEvent {
            kind: "spill-cleanup".into(),
            message: "record \"1\"\n\tnot removed \u{1}".into(),
        }));
        for (kind, ok, results, micros, cache) in [
            ("topk", true, 5, 420, Some(false)),
            ("support", false, 0, 80, None),
            ("support", true, 1, 120, Some(true)),
        ] {
            o.on(Event::Query(&QueryEvent {
                kind: kind.into(),
                ok,
                results,
                latency: Duration::from_micros(micros),
                cache,
            }));
        }
        o.on(Event::Diff(&DiffEvent {
            new: 3,
            dropped: 1,
            changed: 2,
            unchanged: 11,
        }));
        o.on(Event::Abort(&AbortEvent {
            message: "arena memory ceiling of 10 bytes exceeded".into(),
        }));
        let plain = CompleteEvent {
            frequent: 17,
            levels: 2,
            total_candidates: 144,
            n_used: 8,
            peak_arena_bytes: 8_192,
            total_elapsed: Duration::from_micros(5_678),
            ..CompleteEvent::default()
        };
        o.on(Event::Complete(&plain));
        o.on(Event::Complete(&CompleteEvent {
            frequent: 5,
            support_saturated: true,
            top_k: Some(5),
            floor_raises: 2,
            pruned_by_floor: 6,
            pruned_by_target: 4,
            ..plain
        }));
    }

    /// The exact JSONL text of every event kind. The benchmark reads
    /// trace fields by name, so a change here is a schema change.
    #[test]
    fn jsonl_format_is_pinned() {
        let mut sink = JsonlObserver::new(Vec::new());
        feed_pinned_events(&mut sink);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let want = [
            r#"{"event": "seed", "level": 3, "patterns": 64, "pil_entries": 12345, "arena_bytes": 98304, "elapsed_ms": 1.234}"#,
            r#"{"event": "em", "m": 4, "em": 17, "elapsed_ms": 2.500}"#,
            r#"{"event": "level", "level": 3, "candidates": 64, "evaluated": 60, "frequent": 10, "kept": 20, "pruned_bound": 40, "pruned_support": 50, "arena_bytes": 4096, "joins": 0, "probed": 0, "reallocs": 0, "bytes_moved": 0, "join_ms": 0.000, "elapsed_ms": 0.750, "saturated": false}"#,
            r#"{"event": "level", "level": 4, "candidates": 80, "evaluated": 80, "frequent": 7, "kept": 9, "pruned_bound": 71, "pruned_support": 73, "arena_bytes": 2048, "joins": 80, "probed": 1600, "reallocs": 3, "bytes_moved": 768, "join_ms": 1.500, "elapsed_ms": 1.999, "saturated": true}"#,
            r#"{"event": "pool", "level": 4, "chunks": 5, "workers": [{"worker": 0, "chunks": 3, "candidates": 50, "busy_ms": 0.900, "idle_ms": 0.100}, {"worker": 1, "chunks": 2, "candidates": 30, "busy_ms": 0.600, "idle_ms": 0.400}]}"#,
            r#"{"event": "subtree", "index": 0, "level": 4, "patterns": 9, "deepest": 7, "evaluated": 120, "frequent": 5, "peak_arena_bytes": 2048, "elapsed_ms": 3.003}"#,
            r#"{"event": "spill", "level": 4, "records": 2, "bytes": 640, "live_bytes": 900, "watermark_bytes": 512, "elapsed_ms": 1.001}"#,
            r#"{"event": "restore", "record": 1, "bytes": 320, "patterns": 4, "elapsed_ms": 0.100}"#,
            r#"{"event": "warning", "kind": "spill-cleanup", "message": "record \"1\"\n\tnot removed \u0001"}"#,
            r#"{"event": "query", "kind": "topk", "ok": true, "results": 5, "latency_ms": 0.420, "cache_hit": false}"#,
            r#"{"event": "query", "kind": "support", "ok": false, "results": 0, "latency_ms": 0.080}"#,
            r#"{"event": "query", "kind": "support", "ok": true, "results": 1, "latency_ms": 0.120, "cache_hit": true}"#,
            r#"{"event": "diff", "new": 3, "dropped": 1, "changed": 2, "unchanged": 11}"#,
            r#"{"event": "abort", "message": "arena memory ceiling of 10 bytes exceeded"}"#,
            r#"{"event": "summary", "frequent": 17, "levels": 2, "total_candidates": 144, "n_used": 8, "support_saturated": false, "peak_arena_bytes": 8192, "total_ms": 5.678}"#,
            r#"{"event": "summary", "frequent": 5, "levels": 2, "total_candidates": 144, "n_used": 8, "support_saturated": true, "peak_arena_bytes": 8192, "top_k": 5, "floor_raises": 2, "pruned_by_floor": 6, "pruned_by_target": 4, "total_ms": 5.678}"#,
        ];
        let got: Vec<&str> = text.lines().collect();
        assert_eq!(got.len(), want.len(), "{text}");
        for (got, want) in got.iter().zip(want) {
            assert_eq!(*got, want);
        }
        assert!(text.ends_with('\n'));
    }

    /// The exact `--metrics` text for the same events.
    #[test]
    fn metrics_render_is_pinned() {
        let mut m = MetricsObserver::new();
        feed_pinned_events(&mut m);
        let want = "mining metrics
  seed: level 3 | 64 patterns | 12345 PIL entries | 98304 arena bytes | 1.234 ms
  e_m: m = 4 -> e_m = 17 in 2.500 ms
  level | candidates | evaluated | frequent | kept | pruned_bound | pruned_support | joins | probed | reallocs | moved_bytes | join_ms | total_ms
      3 |         64 |        60 |       10 |   20 |           40 |             50 |     0 |      0 |        0 |           0 |   0.000 |    0.750
      4 |         80 |        80 |        7 |    9 |           71 |             73 |    80 |   1600 |        3 |         768 |   1.500 |    1.999  [saturated]
  pool @ level 4: 5 chunks
    worker  0:    3 chunks |       50 candidates | busy    0.900 ms | idle    0.100 ms
    worker  1:    2 chunks |       30 candidates | busy    0.600 ms | idle    0.400 ms
  subtree   0 @ level 4: 9 parents -> depth 7 | 120 evaluated | 5 frequent | peak 2048 bytes | 3.003 ms
  spill @ level 4: 2 records | 640 bytes | live 900 over watermark 512 | 1.001 ms
  restore record 1: 320 bytes | 4 patterns | 0.100 ms
  warning [spill-cleanup]: record \"1\"\n\tnot removed \u{1}
  query support: 2 served | 1 errors | 1 rows | mean 0.100 ms | max 0.120 ms | cache 1 hit / 0 miss
  query topk: 1 served | 0 errors | 5 rows | mean 0.420 ms | max 0.420 ms | cache 0 hit / 1 miss
  baseline diff: 3 new | 1 dropped | 2 changed | 11 unchanged
  ABORTED: arena memory ceiling of 10 bytes exceeded
  total: 5 frequent over 2 levels | 144 candidates | n = 8 | peak 8192 arena bytes | 5.678 ms | SUPPORT SATURATED
  pruning: top_k 5 | floor_raises 2 | pruned_by_floor 6 | pruned_by_target 4
";
        assert_eq!(m.render(), want);
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let mut sink = JsonlObserver::new(Vec::new());
        sink.on(Event::Seed(&SeedEvent {
            level: 3,
            patterns: 64,
            pil_entries: 1000,
            arena_bytes: 16_192,
            elapsed: Duration::from_millis(2),
        }));
        sink.on(Event::Level(&level_event(3)));
        sink.on(Event::Pool(&PoolLevelEvent {
            level: 4,
            chunks: 8,
            workers: vec![WorkerLevelStats {
                worker: 0,
                chunks: 8,
                candidates: 100,
                busy: Duration::from_millis(1),
                idle: Duration::ZERO,
            }],
        }));
        sink.on(Event::Level(&level_event(4)));
        sink.on(Event::Subtree(&subtree_event(0)));
        sink.on(Event::Em(&EmEvent {
            m: 8,
            em: 12,
            elapsed: Duration::from_millis(1),
        }));
        sink.on(Event::Spill(&SpillEvent {
            level: 4,
            records: 3,
            bytes: 900,
            live_bytes: 5000,
            watermark_bytes: 4096,
            elapsed: Duration::from_millis(1),
        }));
        sink.on(Event::Restore(&RestoreEvent {
            record: 2,
            bytes: 300,
            patterns: 7,
            elapsed: Duration::from_micros(200),
        }));
        sink.on(Event::Complete(&complete_event(2)));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(text.contains("\"arena_bytes\": 4096"), "{text}");
        assert!(text.contains("\"peak_arena_bytes\": 8192"), "{text}");
        assert!(
            text.contains("\"joins\": 60, \"probed\": 1200, \"reallocs\": 3, \"bytes_moved\": 768"),
            "{text}"
        );
        assert!(
            text.contains("\"event\": \"spill\", \"level\": 4, \"records\": 3"),
            "{text}"
        );
        assert!(
            text.contains("\"event\": \"restore\", \"record\": 2, \"bytes\": 300"),
            "{text}"
        );
        let report = validate_trace(&text).unwrap();
        assert_eq!(report.level_events, 2);
        assert_eq!(report.frequent, 20);
        assert_eq!(report.total_candidates, 128);
        assert_eq!(report.lines, 9);
        assert!(!report.aborted);
    }

    #[test]
    fn aborted_trace_validates_without_summary() {
        let mut sink = JsonlObserver::new(Vec::new());
        sink.on(Event::Level(&level_event(3)));
        sink.on(Event::Abort(&AbortEvent {
            message: "arena memory ceiling of 10 bytes exceeded: \"boom\"\n".into(),
        }));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let report = validate_trace(&text).unwrap();
        assert!(report.aborted);
        assert_eq!(report.level_events, 1);
        assert_eq!(report.frequent, 10);

        // Nothing may follow the abort line.
        let mut sink = JsonlObserver::new(Vec::new());
        sink.on(Event::Abort(&AbortEvent {
            message: "x".into(),
        }));
        sink.on(Event::Level(&level_event(3)));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let err = validate_trace(&text).unwrap_err();
        assert!(err.contains("after the abort"), "{err}");
    }

    #[test]
    fn serve_trace_validates_without_summary() {
        let query = |kind: &str, ok: bool| QueryEvent {
            kind: kind.into(),
            ok,
            results: 1,
            latency: Duration::from_micros(120),
            cache: Some(false),
        };
        let mut sink = JsonlObserver::new(Vec::new());
        sink.on(Event::Query(&query("support", true)));
        sink.on(Event::Warning(&WarningEvent {
            kind: "serve".into(),
            message: "client went away".into(),
        }));
        sink.on(Event::Query(&query("topk", false)));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let report = validate_trace(&text).unwrap();
        assert_eq!((report.lines, report.queries), (3, 2));
        assert_eq!(report.level_events, 0);
        assert!(!report.aborted);

        // Each query line carries its kind, ok and latency.
        for (field, line) in [
            (
                "kind",
                r#"{"event": "query", "ok": true, "latency_ms": 0.1}"#,
            ),
            (
                "ok",
                r#"{"event": "query", "kind": "topk", "latency_ms": 0.1}"#,
            ),
            (
                "ok",
                r#"{"event": "query", "kind": "topk", "ok": 1, "latency_ms": 0.1}"#,
            ),
            (
                "latency_ms",
                r#"{"event": "query", "kind": "topk", "ok": true}"#,
            ),
        ] {
            let err = validate_trace(&format!("{line}\n")).unwrap_err();
            assert!(
                err.contains(&format!("query event without {field}")),
                "{err}"
            );
        }

        // A mine's trace without its summary is still an error, query
        // lines or not; so is a trace of warnings alone, or no lines.
        let mut sink = JsonlObserver::new(Vec::new());
        sink.on(Event::Level(&level_event(3)));
        sink.on(Event::Query(&query("support", true)));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let err = validate_trace(&text).unwrap_err();
        assert!(err.contains("no summary"), "{err}");
        let warning = r#"{"event": "warning", "kind": "serve", "message": "x"}"#;
        assert!(validate_trace(&format!("{warning}\n")).is_err());
        assert!(validate_trace("").is_err());
    }

    #[test]
    fn warning_and_query_events_flow_through_sinks_and_validator() {
        let mut sink = JsonlObserver::new(Vec::new());
        sink.on(Event::Level(&level_event(3)));
        sink.on(Event::Warning(&WarningEvent {
            kind: "spill-cleanup".into(),
            message: "failed to remove \"spill-00000001.pgsp\"".into(),
        }));
        sink.on(Event::Query(&QueryEvent {
            kind: "topk".into(),
            ok: true,
            results: 5,
            latency: Duration::from_micros(420),
            cache: None,
        }));
        sink.on(Event::Complete(&complete_event(1)));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(
            text.contains("\"event\": \"warning\", \"kind\": \"spill-cleanup\""),
            "{text}"
        );
        assert!(
            text.contains("\"event\": \"query\", \"kind\": \"topk\", \"ok\": true, \"results\": 5"),
            "{text}"
        );
        let report = validate_trace(&text).unwrap();
        assert_eq!(report.lines, 4);

        // A warning without its fields is rejected.
        assert!(validate_trace("{\"event\": \"warning\"}\n").is_err());

        let mut m = MetricsObserver::new();
        m.on(Event::Warning(&WarningEvent {
            kind: "spill-cleanup".into(),
            message: "orphan".into(),
        }));
        for ok in [true, true, false] {
            m.on(Event::Query(&QueryEvent {
                kind: "support".into(),
                ok,
                results: usize::from(ok),
                latency: Duration::from_micros(100),
                cache: Some(ok),
            }));
        }
        let stats = &m.queries["support"];
        assert_eq!((stats.count, stats.errors, stats.results), (3, 1, 2));
        let rendered = m.render();
        assert!(
            rendered.contains("warning [spill-cleanup]: orphan"),
            "{rendered}"
        );
        assert!(
            rendered.contains("query support: 3 served | 1 errors"),
            "{rendered}"
        );
    }

    #[test]
    fn validator_checks_pool_events() {
        let good = r#"{"event": "pool", "level": 4, "chunks": 3, "workers": [{"worker": 0, "chunks": 1, "busy_ms": 1.0, "idle_ms": 0.5}, {"worker": 1, "chunks": 2, "busy_ms": 1.5, "idle_ms": 0}]}"#;
        let summary = r#"{"event": "summary", "frequent": 0, "total_candidates": 0, "levels": 0}"#;
        validate_trace(&format!("{good}\n{summary}\n")).unwrap();
        let bad = [
            (
                r#"{"event": "pool", "level": 4, "workers": [{"worker": 0, "chunks": 1, "busy_ms": 1.0, "idle_ms": 0.5}]}"#,
                "without chunks",
            ),
            (
                r#"{"event": "pool", "level": 4, "chunks": 2, "workers": [{"worker": 0, "chunks": 1, "busy_ms": 1.0, "idle_ms": 0.5}]}"#,
                "claim 1 chunks",
            ),
            (
                r#"{"event": "pool", "level": 4, "chunks": 1, "workers": [{"worker": 0, "busy_ms": 1.0, "idle_ms": 0.5}]}"#,
                "worker 0 without chunks",
            ),
            (
                r#"{"event": "pool", "level": 4, "chunks": 1, "workers": [{"worker": 0, "chunks": 18446744073709551615, "busy_ms": 1.0, "idle_ms": 0.5}, {"worker": 1, "chunks": 2, "busy_ms": 1.0, "idle_ms": 0.5}]}"#,
                "overflow",
            ),
            (
                r#"{"event": "pool", "level": 4, "chunks": 1, "workers": [{"worker": 0, "chunks": 1, "idle_ms": 0.5}]}"#,
                "without busy_ms",
            ),
            (
                r#"{"event": "pool", "level": 4, "chunks": 1, "workers": [{"worker": 0, "chunks": 1, "busy_ms": 1.0}]}"#,
                "without idle_ms",
            ),
            (
                r#"{"event": "pool", "level": 4, "chunks": 1, "workers": [{"worker": 0, "chunks": 1, "busy_ms": -1.0, "idle_ms": 0.5}]}"#,
                "busy_ms -1 is negative",
            ),
            (
                r#"{"event": "pool", "level": 4, "chunks": 1, "workers": [{"worker": 0, "chunks": 1, "busy_ms": 1.0, "idle_ms": -0.5}]}"#,
                "idle_ms -0.5 is negative",
            ),
        ];
        for (line, want) in bad {
            let err = validate_trace(&format!("{line}\n{summary}\n")).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
            assert!(err.starts_with("line 1: pool event"), "{err}");
        }
    }

    #[test]
    fn validator_rejects_non_monotone_levels() {
        let mut sink = JsonlObserver::new(Vec::new());
        sink.on(Event::Level(&level_event(4)));
        sink.on(Event::Level(&level_event(3)));
        sink.on(Event::Complete(&complete_event(2)));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let err = validate_trace(&text).unwrap_err();
        assert!(err.contains("not above"), "{err}");
    }

    #[test]
    fn validator_rejects_mismatched_totals() {
        let mut sink = JsonlObserver::new(Vec::new());
        sink.on(Event::Level(&level_event(3)));
        let mut complete = complete_event(1);
        complete.frequent = 999;
        sink.on(Event::Complete(&complete));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let err = validate_trace(&text).unwrap_err();
        assert!(err.contains("frequent"), "{err}");
    }

    #[test]
    fn validator_requires_summary_last() {
        let mut sink = JsonlObserver::new(Vec::new());
        sink.on(Event::Complete(&complete_event(0)));
        sink.on(Event::Level(&level_event(3)));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(validate_trace(&text).is_err());
        assert!(validate_trace("").is_err(), "no summary at all");
        assert!(validate_trace("not json\n").is_err());
        assert!(validate_trace("{\"no_event\": 1}\n").is_err());
    }

    #[test]
    fn json_parser_handles_trace_shapes() {
        let v = Json::parse(
            "{\"a\": 1, \"b\": -2.5, \"c\": true, \"d\": \"x\", \"e\": [1, 2], \"f\": {}, \"g\": null}",
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_u128(), Some(1));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-2.5));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("e").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("f"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("g"), Some(&Json::Null));
        // Exact huge integers survive (beyond f64 precision).
        let big = Json::parse("{\"n\": 340282366920938463463374607431768211455}").unwrap();
        assert_eq!(big.get("n").unwrap().as_u128(), Some(u128::MAX));
        // Malformed inputs fail loudly.
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2] trailing").is_err());
    }

    /// Nesting is capped at 64 levels: a document at the cap parses,
    /// one level deeper is an error, and a 200,000-bracket line fails
    /// the same way instead of overflowing the stack.
    #[test]
    fn json_nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let deep = Json::parse(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(deep.contains("nesting deeper than 64"), "{deep}");
        let objects = format!(
            "{}1{}",
            "{\"a\": ".repeat(MAX_JSON_DEPTH + 1),
            "}".repeat(MAX_JSON_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    /// Multibyte and escaped strings parse as they did one character at
    /// a time; a string near the serve line cap parses in one pass.
    #[test]
    fn json_strings_keep_multibyte_and_escapes() {
        let v = Json::parse(r#"["héllo ✓ 𝄞", "a\"b\\c\/d\ne\tf\u0041g", "", "x\u00e9"]"#).unwrap();
        let strings: Vec<&str> = v
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(strings, ["héllo ✓ 𝄞", "a\"b\\c/d\ne\tfAg", "", "xé"]);
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse(r#""bad \q escape""#).is_err());
        let long = "é".repeat(500_000);
        assert_eq!(
            Json::parse(&format!("\"{long}\"")).unwrap().as_str(),
            Some(long.as_str())
        );
    }

    #[test]
    fn composed_observers_fan_out() {
        let mut pair = (MetricsObserver::new(), Some(MetricsObserver::new()));
        pair.on(Event::Level(&level_event(3)));
        pair.on(Event::Complete(&complete_event(1)));
        assert_eq!(pair.0.levels.len(), 1);
        assert_eq!(pair.1.as_ref().unwrap().levels.len(), 1);
        assert!(pair.0.complete.is_some());
        let mut none: Option<MetricsObserver> = None;
        none.on(Event::Level(&level_event(3))); // no-op, must not panic
        let mut by_ref = MetricsObserver::new();
        {
            let r = &mut by_ref;
            fn takes_observer<O: MineObserver>(o: &mut O, e: &LevelEvent) {
                o.on(Event::Level(e));
            }
            takes_observer(&mut &mut *r, &level_event(3));
        }
        assert_eq!(by_ref.levels.len(), 1);
    }

    #[test]
    fn metrics_render_mentions_key_numbers() {
        let mut m = MetricsObserver::new();
        m.on(Event::Em(&EmEvent {
            m: 8,
            em: 42,
            elapsed: Duration::from_millis(1),
        }));
        m.on(Event::Level(&level_event(3)));
        m.on(Event::Spill(&SpillEvent {
            level: 3,
            records: 2,
            bytes: 640,
            live_bytes: 900,
            watermark_bytes: 512,
            elapsed: Duration::from_millis(1),
        }));
        m.on(Event::Restore(&RestoreEvent {
            record: 0,
            bytes: 320,
            patterns: 4,
            elapsed: Duration::from_micros(100),
        }));
        m.on(Event::Complete(&complete_event(1)));
        let text = m.render();
        assert!(text.contains("e_m = 42"), "{text}");
        assert!(text.contains("10 frequent"), "{text}");
        assert!(
            text.contains("spill @ level 3: 2 records | 640 bytes"),
            "{text}"
        );
        assert!(
            text.contains("restore record 0: 320 bytes | 4 patterns"),
            "{text}"
        );
        assert_eq!(m.total_candidates(), 64);
    }
}
