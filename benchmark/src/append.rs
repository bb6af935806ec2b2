//! `append_remine`: the write side of the result store. Each cycle starts
//! with a cold `--incremental` mine of a 400,000-symbol G-run sequence,
//! which seeds the result cache (the workload's set-up). Then up to 200
//! appends of 200 symbols each are re-mined incrementally under a rigid
//! gap, one `pgmine` process per append, each waiting for the previous
//! one (a closed loop). Cycles repeat until the run's time is up, so the
//! cost of an append does not drift with the run's length, and set-up is
//! sampled across the whole run.

use crate::harness::{op_metrics, put, put1, Ctx, Metrics};
use crate::layers::{self, LayerInputs};
use crate::proc::Exit;
use crate::stats::{median, Stat};
use crate::tracefile::LayerTrace;
use crate::workloads::{check_pinned, put_trace};
use perigap_seq::Alphabet;
use std::io::Write as _;
use std::time::{Duration, Instant};

const ARGS: &[&str] = &[
    "--gap",
    "0",
    "--rho",
    "0.8%",
    "--algorithm",
    "mpp",
    "--n",
    "8",
];
/// Cycles a run makes even when `--seconds` has run out: each gives one
/// set-up sample.
const MIN_CYCLES: usize = 3;
/// Appends in each half of the per-layer pass.
const TRACE_APPENDS: usize = 100;

fn mine(input: &str, extra: &[&str]) -> Vec<String> {
    ["mine", "--input", input]
        .iter()
        .chain(ARGS)
        .chain(extra)
        .map(|s| s.to_string())
        .collect()
}

fn incremental(input: &str, extra: &[&str]) -> Vec<String> {
    let mut args = mine(input, &["--incremental", "--cache-path", "cache.pgrc"]);
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

pub fn run(ctx: &mut Ctx, trace: bool) -> Metrics {
    let mut metrics = Metrics::new();
    let appends: Vec<String> = std::fs::read_to_string(ctx.path("appends.txt"))
        .unwrap_or_default()
        .lines()
        .map(str::to_string)
        .collect();
    if trace {
        trace_appends(ctx, &appends, &mut metrics);
        return metrics;
    }

    let (mut setup, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + ctx.seconds;
    while setup.len() < MIN_CYCLES || Instant::now() < deadline {
        let c = cycle(ctx, &appends, Some(deadline), false);
        let Some(seeding) = c.seeding else {
            break;
        };
        setup.push(seeding);
        check_last(ctx, c.walls.len() == appends.len());
        walls.extend(c.walls);
        rss.extend(c.rss);
    }
    if let Some(s) = Stat::of(&setup) {
        put(&mut metrics, "setup_s", s);
    }
    let busy = walls.iter().sum::<f64>();
    op_metrics(&mut metrics, &walls, &rss, Duration::from_secs_f64(busy));
    metrics
}

/// What one cycle saw.
#[derive(Default)]
struct Cycle {
    /// Seconds of the cold mine that seeded the cache; `None` if it failed.
    seeding: Option<f64>,
    walls: Vec<f64>,
    rss: Vec<f64>,
    /// Appends the program re-mined through the delta path rather than
    /// falling back to a cold mine.
    delta: usize,
    baseline_bytes: Vec<f64>,
    /// The appends' traces, when traced.
    trace: LayerTrace,
}

/// Seed the cache from the base sequence, then append and re-mine chunk
/// by chunk until `deadline`. Traced, the seeding mine writes
/// `seed.jsonl` and each append `append.jsonl`.
fn cycle(ctx: &mut Ctx, appends: &[String], deadline: Option<Instant>, traced: bool) -> Cycle {
    let mut c = Cycle::default();
    let _ = std::fs::remove_file(ctx.path("cache.pgrc"));
    if let Err(e) = std::fs::copy(ctx.path("base.fa"), ctx.path("cur.fa")) {
        ctx.gate
            .record(false, || format!("cannot restore the base: {e}"));
        return c;
    }
    let mut seed = vec!["--top", "0"];
    if traced {
        seed.extend(["--trace", "seed.jsonl"]);
    }
    c.seeding = ctx
        .pgmine(
            "setup.seed_cache",
            &incremental("cur.fa", &seed),
            "seed.out",
        )
        .filter(Exit::ok)
        .map(|e| e.wall.as_secs_f64());
    if c.seeding.is_none() {
        return c;
    }

    let mut extra = vec!["--baseline", "diff.jsonl", "--top", "0"];
    if traced {
        extra.extend(["--trace", "append.jsonl"]);
    }
    let args = incremental("cur.fa", &extra);
    for chunk in appends {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let appended = std::fs::OpenOptions::new()
            .append(true)
            .open(ctx.path("cur.fa"))
            .and_then(|mut f| writeln!(f, "{chunk}"));
        if let Err(e) = appended {
            ctx.gate.record(false, || format!("cannot append: {e}"));
            break;
        }
        let Some(exit) = ctx.pgmine("append", &args, "append.out") else {
            break;
        };
        if !exit.ok() {
            continue;
        }
        c.walls.push(exit.wall.as_secs_f64());
        c.rss.push(exit.rss_mb());
        let report = std::fs::read_to_string(ctx.path("append.out")).unwrap_or_default();
        c.delta += usize::from(report.contains("incremental: incremental ("));
        let diff = std::fs::metadata(ctx.path("diff.jsonl")).map_or(0, |m| m.len());
        c.baseline_bytes.push(diff as f64);
        if traced {
            let text = std::fs::read_to_string(ctx.path("append.jsonl")).unwrap_or_default();
            match LayerTrace::parse(&text) {
                Ok(t) => c.trace.absorb(t),
                Err(e) => ctx.gate.record(false, || format!("append.jsonl: {e}")),
            }
        }
    }
    c
}

/// The cache the last append left must hold exactly what a cold mine of
/// the same sequence finds.
fn check_last(ctx: &mut Ctx, full_cycle: bool) {
    ctx.pgmine(
        "check.cached",
        &incremental("cur.fa", &["--format", "tsv"]),
        "cached.tsv",
    );
    ctx.pgmine(
        "check.cold",
        &mine("cur.fa", &["--format", "tsv"]),
        "cold.tsv",
    );
    let (cached, cold) = (ctx.digest("cached.tsv"), ctx.digest("cold.tsv"));
    ctx.gate.record(cached == cold && cold != 0, || {
        "the incremental result differs from a cold mine".into()
    });
    if full_cycle {
        check_pinned(ctx, "append_remine", "cold.tsv");
    }
}

/// The per-layer pass: one cycle of appends untraced, then the same cycle
/// traced, seeding mine included.
fn trace_appends(ctx: &mut Ctx, appends: &[String], metrics: &mut Metrics) {
    let few = &appends[..appends.len().min(TRACE_APPENDS)];
    let untraced = cycle(ctx, few, None, false);
    let traced = cycle(ctx, few, None, true);
    check_last(ctx, false);
    let seed_text = std::fs::read_to_string(ctx.path("seed.jsonl")).unwrap_or_default();
    let mut t = match LayerTrace::parse(&seed_text) {
        Ok(t) => t,
        Err(e) => return ctx.gate.record(false, || format!("seed.jsonl: {e}")),
    };
    let n = traced.walls.len().max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    put1(
        metrics,
        "trace.overhead_ratio",
        median(&traced.walls) / median(&untraced.walls),
    );
    put1(
        metrics,
        "core.incremental.delta_ratio",
        traced.delta as f64 / n,
    );
    put1(
        metrics,
        "core.incremental.baseline_bytes",
        mean(&traced.baseline_bytes),
    );
    put1(metrics, "serve.cache_hit_ratio", 0.0);
    let appends_engine = traced.trace.total_s;
    t.absorb(traced.trace);
    put_trace(metrics, &t);

    // The cache now holds the last append's result; a cached-mode run
    // saves it for the layers.
    let layer = incremental("cur.fa", &["--save", "layer.pgst", "--format", "tsv"]);
    ctx.pgmine("mine.layer_files", &layer, "layer.tsv");
    let inputs = LayerInputs {
        fasta: "cur.fa",
        alphabet: Alphabet::Dna,
        outcome: "layer.pgst",
        cache: "cache.pgrc",
        mppm: false,
    };
    if layers::measure(ctx, &inputs, metrics).is_some() {
        // An append prints a two-line report, not the pattern table, so
        // only the FASTA parse is taken out of its time outside the engine.
        let outside = (traced.walls.iter().sum::<f64>() - appends_engine) / n;
        put1(
            metrics,
            "cli.residual_s",
            outside - metrics["seq.read_fasta_s"].value,
        );
    }
}
