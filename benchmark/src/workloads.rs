//! The five workloads: their inputs, their pinned seed-1 outputs, and the
//! three that time `pgmine mine` on one FASTA file. `serve_zipf` and
//! `append_remine` live in their own modules.

use crate::gen::{blocked_dna, fasta, g_runs, protein, SplitMix64};
use crate::harness::{op_metrics, put, put1, Ctx, Metrics};
use crate::layers::{self, LayerInputs};
use crate::proc::Exit;
use crate::stats::{median, Stat};
use crate::tracefile::LayerTrace;
use perigap_seq::Alphabet;
use std::time::{Duration, Instant};

/// Timed runs a mine workload makes even when `--seconds` has run out.
const MIN_RUNS: usize = 5;
/// Untraced/traced pairs of the per-layer pass.
const TRACE_PAIRS: usize = 3;

const DNA_FLEX_LEN: usize = 3_000;
const PROTEIN_LEN: usize = 16_000;
const SERVE_LEN: usize = 1_500;
const APPEND_BASE_LEN: usize = 400_000;
const APPENDS: usize = 200;
const APPEND_LEN: usize = 200;

/// Every input file `workload` reads, by name, for `seed`. The program
/// sees only these bytes.
pub fn inputs(workload: &str, seed: u64) -> Vec<(&'static str, String)> {
    match workload {
        "dna_flex" | "dna_flex_par" => {
            let dna = blocked_dna(&mut SplitMix64::new(seed, 1), DNA_FLEX_LEN);
            vec![("input.fa", fasta("dna_flex", &dna))]
        }
        "protein_shallow" => {
            let aa = protein(&mut SplitMix64::new(seed, 2), PROTEIN_LEN);
            vec![("input.fa", fasta("protein_shallow", &aa))]
        }
        "serve_zipf" => {
            let dna = blocked_dna(&mut SplitMix64::new(seed, 3), SERVE_LEN);
            vec![("store.fa", fasta("serve_zipf", &dna))]
        }
        "append_remine" => {
            let total = APPEND_BASE_LEN + APPENDS * APPEND_LEN;
            let dna = g_runs(&mut SplitMix64::new(seed, 4), total);
            let (base, tail) = dna.split_at(APPEND_BASE_LEN);
            let appends: String = tail
                .chunks(APPEND_LEN)
                .map(|c| format!("{}\n", String::from_utf8_lossy(c)))
                .collect();
            vec![
                ("base.fa", fasta("append_remine", base)),
                ("appends.txt", appends),
            ]
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// Seed-1 outputs: (workload, patterns, FNV-1a of the TSV). `dna_flex_par`
/// is held to `dna_flex`'s; `serve_zipf` pins the store it serves and
/// `append_remine` the cold mine after one full cycle of appends.
const PINNED: [(&str, usize, u64); 4] = [
    ("dna_flex", 7627, 4998673315518716872),
    ("protein_shallow", 3773, 625635558619651579),
    ("serve_zipf", 7578, 18017184900994197176),
    ("append_remine", 101, 1738860031833408513),
];

/// On seed 1, check the TSV in `file` against the pinned output.
pub fn check_pinned(ctx: &mut Ctx, pin: &str, file: &str) {
    if ctx.seed != 1 {
        return;
    }
    let text = std::fs::read_to_string(ctx.path(file)).unwrap_or_default();
    let got = (
        text.lines().count().saturating_sub(1),
        crate::gen::fnv1a(text.as_bytes()),
    );
    let want = PINNED
        .iter()
        .find(|p| p.0 == pin)
        .map(|p| (p.1, p.2))
        .expect("every pin is listed");
    ctx.gate.record(got == want, || {
        format!("{pin}: seed-1 output is {got:?} (patterns, digest), pinned {want:?}")
    });
}

/// The per-layer metrics read from the program's own trace events.
pub fn put_trace(metrics: &mut Metrics, t: &LayerTrace) {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    put1(metrics, "core.prelude_s", t.prelude_s());
    put1(metrics, "core.seed_s", t.seed_s);
    put1(metrics, "core.seed.pil_entries", t.seed_pil_entries as f64);
    put1(metrics, "core.level.join_s", t.join_s);
    put1(metrics, "core.level.filter_s", t.filter_s);
    put1(metrics, "core.level.max_s", t.level_max_s);
    put1(metrics, "core.level.candidates", t.candidates);
    put1(
        metrics,
        "core.level.useful_ratio",
        ratio(t.frequent, t.candidates),
    );
    put1(metrics, "core.level.probed", t.probed);
    put1(metrics, "core.level.bytes_moved", t.bytes_moved);
    put1(metrics, "core.level.reallocs", t.reallocs);
    put1(metrics, "core.peak_arena_bytes", t.peak_arena_bytes as f64);
    put1(
        metrics,
        "core.parallel.idle_ratio",
        ratio(t.pool_idle_s, t.pool_busy_s + t.pool_idle_s),
    );
    put1(metrics, "core.engine_s", t.total_s);
}

/// A workload that times `pgmine mine` on one FASTA file.
struct Mine {
    /// Pin of its output.
    pin: &'static str,
    alphabet: Alphabet,
    args: &'static [&'static str],
    /// Run first, untimed, as the reference every timed output must equal.
    reference: &'static [&'static str],
}

const DNA_FLEX_ARGS: &[&str] = &["--gap", "0:9", "--rho", "0.01%"];
const PROTEIN_ARGS: &[&str] = &["--alphabet", "protein", "--gap", "1:3", "--rho", "0.01%"];

fn mine_workload(name: &str) -> Mine {
    match name {
        "dna_flex" => Mine {
            pin: "dna_flex",
            alphabet: Alphabet::Dna,
            args: DNA_FLEX_ARGS,
            reference: DNA_FLEX_ARGS,
        },
        "dna_flex_par" => Mine {
            pin: "dna_flex",
            alphabet: Alphabet::Dna,
            args: &[
                "--gap",
                "0:9",
                "--rho",
                "0.01%",
                "--algorithm",
                "mpp",
                "--n",
                "8",
                "--threads",
                "2",
            ],
            reference: DNA_FLEX_ARGS,
        },
        "protein_shallow" => Mine {
            pin: "protein_shallow",
            alphabet: Alphabet::Protein,
            args: PROTEIN_ARGS,
            reference: PROTEIN_ARGS,
        },
        other => panic!("{other:?} is not a mine workload"),
    }
}

fn mine_args(args: &[&str], extra: &[&str]) -> Vec<String> {
    ["mine", "--input", "input.fa"]
        .iter()
        .chain(args)
        .chain(&["--format", "tsv"])
        .chain(extra)
        .map(|s| s.to_string())
        .collect()
}

/// Run one of `dna_flex`, `dna_flex_par`, `protein_shallow`.
pub fn run_mine(name: &str, ctx: &mut Ctx, trace: bool) -> Metrics {
    let w = mine_workload(name);
    let mut metrics = Metrics::new();
    // The reference run doubles as the discarded warm-up.
    ctx.pgmine(
        "mine.reference",
        &mine_args(w.reference, &[]),
        "reference.tsv",
    );
    check_pinned(ctx, w.pin, "reference.tsv");
    let want = ctx.digest("reference.tsv");
    if trace {
        trace_mine(&w, ctx, want, &mut metrics);
        return metrics;
    }

    let args = mine_args(w.args, &[]);
    let mut stats = vec!["stats", "--input", "input.fa"];
    if w.alphabet == Alphabet::Protein {
        stats.extend(["--alphabet", "protein"]);
    }
    let (mut setup, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.len() < MIN_RUNS || started.elapsed() < ctx.seconds {
        // Set-up (loading the input) is sampled before every mine, so its
        // median spans the whole run rather than one moment of it.
        if let Some(e) = ctx
            .pgmine("setup.stats", &stats, "stats.txt")
            .filter(Exit::ok)
        {
            setup.push(e.wall.as_secs_f64());
        }
        let Some(exit) = ctx.pgmine("mine", &args, "out.tsv") else {
            break;
        };
        if exit.ok() {
            walls.push(exit.wall.as_secs_f64());
            rss.push(exit.rss_mb());
        }
        let same = ctx.digest("out.tsv") == want;
        ctx.gate.record(same, || {
            format!("{name}: output differs from the reference run")
        });
        if !exit.ok() && walls.is_empty() {
            break;
        }
    }
    if let Some(s) = Stat::of(&setup) {
        put(&mut metrics, "setup_s", s);
    }
    let busy = walls.iter().sum::<f64>();
    op_metrics(&mut metrics, &walls, &rss, Duration::from_secs_f64(busy));
    metrics
}

/// The per-layer pass of a mine workload.
fn trace_mine(w: &Mine, ctx: &mut Ctx, want: u64, metrics: &mut Metrics) {
    let plain = mine_args(w.args, &[]);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for i in 0..TRACE_PAIRS {
        if let Some(e) = ctx.pgmine("mine", &plain, "out.tsv").filter(Exit::ok) {
            untraced.push(e.wall.as_secs_f64());
        }
        let file = format!("trace{i}.jsonl");
        let args = mine_args(w.args, &["--trace", &file]);
        if let Some(e) = ctx.pgmine("mine.traced", &args, "out.tsv").filter(Exit::ok) {
            traced.push((e.wall.as_secs_f64(), file));
        }
        let same = ctx.digest("out.tsv") == want;
        ctx.gate.record(same, || {
            "traced output differs from the reference run".into()
        });
    }
    traced.sort_by(|a, b| a.0.total_cmp(&b.0));
    let Some((wall, file)) = traced.get(traced.len() / 2).cloned() else {
        return;
    };
    let text = std::fs::read_to_string(ctx.path(&file)).unwrap_or_default();
    let t = match LayerTrace::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            ctx.gate.record(false, || format!("{file}: {e}"));
            return;
        }
    };
    put_trace(metrics, &t);
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.0).collect();
    put1(
        metrics,
        "trace.overhead_ratio",
        median(&traced_walls) / median(&untraced),
    );

    // One more run leaves the result and a cache record for the layers.
    let layer = mine_args(
        w.args,
        &[
            "--incremental",
            "--cache-path",
            "layer.pgrc",
            "--save",
            "layer.pgst",
        ],
    );
    ctx.pgmine("mine.layer_files", &layer, "layer.tsv");
    let same = ctx.digest("layer.tsv") == want;
    ctx.gate.record(same, || {
        "the --save run's output differs from the reference".into()
    });
    let inputs = LayerInputs {
        fasta: "input.fa",
        alphabet: w.alphabet.clone(),
        outcome: "layer.pgst",
        cache: "layer.pgrc",
        mppm: !w.args.contains(&"mpp"),
    };
    if layers::measure(ctx, &inputs, metrics).is_some() {
        let outside = metrics["seq.read_fasta_s"].value + metrics["analysis.export_tsv_s"].value;
        put1(metrics, "cli.residual_s", wall - t.total_s - outside);
    }
    for idle in [
        "serve.cache_hit_ratio",
        "core.incremental.delta_ratio",
        "core.incremental.baseline_bytes",
    ] {
        put1(metrics, idle, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::fnv1a;

    #[test]
    fn seed_one_inputs_are_pinned() {
        let mut got = Vec::new();
        for workload in crate::spec::Spec::load().workloads {
            for (file, text) in inputs(&workload, 1) {
                got.push((workload.clone(), file, fnv1a(text.as_bytes())));
            }
        }
        let want = [
            ("dna_flex", "input.fa", 3603463156624922388u64),
            ("dna_flex_par", "input.fa", 3603463156624922388),
            ("protein_shallow", "input.fa", 9794531022333329543),
            ("serve_zipf", "store.fa", 2092155113101435335),
            ("append_remine", "base.fa", 6660027954310330904),
            ("append_remine", "appends.txt", 11357721133823155887),
        ];
        let want: Vec<_> = want
            .iter()
            .map(|&(w, f, d)| (w.to_string(), f, d))
            .collect();
        assert_eq!(got, want);
        // Another seed gives other bytes.
        assert_ne!(inputs("dna_flex", 2), inputs("dna_flex", 1));
    }
}
