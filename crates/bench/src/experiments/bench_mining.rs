//! `bench` — the engine's perf baseline, written to `BENCH_mining.json`.
//!
//! The measurements, all on deterministic synthetic DNA:
//!
//! 1. **level-3 seeding**: the seed byte-key `build_all`
//!    ([`perigap_core::reference::build_all_reference`]) vs the arena
//!    seed's bucket refinement behind [`Pil::build_all`], DNA, L = 100 000,
//!    gap `[0, 9]` — the ISSUE-1 acceptance config (≥ 2× required);
//! 2. **end-to-end mining**: `mpp` at 8 threads (persistent
//!    pool) vs the seed per-level-spawn miner
//!    ([`perigap_core::reference::mpp_reference`]) on the same config,
//!    with per-level wall-clock from both engines;
//! 3. **a size matrix**: per-level wall-clock of the new engine over a
//!    fixed seed/size grid, so later PRs can diff trajectories;
//! 4. **single thread**: the serial arena engine vs the seed
//!    reference at one thread on L = 50 000 (the ISSUE-6 parity row),
//!    with per-level wall-clock from both so a late-level regression
//!    is visible individually;
//! 5. **query throughput**: the `pgmine serve` daemon over the mined
//!    pattern set, hammered by 1 / 4 / 16 concurrent clients with a
//!    mixed support/topk/prefix/overlap workload — queries/sec per
//!    client count, every response checked `"ok": true`;
//! 6. **top-k pruning**: `mine_top_k` vs a full mine +
//!    [`select_top_k`] post-filter at k ∈ {10, 100, 1000}, in both gap
//!    regimes — the flexible acceptance gap `[0, 9]` (`W = 10`:
//!    support is not anti-monotone, the floor gates emission only, so
//!    the honest win is modest) and a rigid gap `0:0` (`W = 1`: the
//!    rising floor prunes the search tree itself; ≥ 5× required at
//!    k = 100 on the full-size run). Every pruned outcome is checked
//!    bit-identical to the post-filter oracle before its timing is
//!    trusted.
//! 7. **incremental speedup**: `mine_incremental` re-mining after an
//!    append of 0.1% / 1% / 10% of L under a rigid gap, against a cold
//!    mine of the grown sequence (≥ 5× required at the 1% append on
//!    the full-size run). The record is rewound to the base-sequence
//!    state before every timed rep, and every incremental outcome is
//!    checked bit-identical to the cold one before its timing is
//!    trusted.
//! 8. **corpus scale**: the sharded corpus miner
//!    ([`perigap_core::corpus::mine_corpus`]) under an arena ceiling —
//!    cold wall-clock and peak RSS (`VmHWM`), then a controlled kill at
//!    ~50% of shards followed by a rerun over the same checkpoint
//!    directory, with the restart delta (resume / cold wall-clock) and
//!    checkpoint footprint; the resumed outcome is checked
//!    bit-identical to the cold mine before any timing is trusted.
//!
//! Thread counts are capped at the CPUs the run actually has, so no
//! row measures oversubscription.
//!
//! The JSON is hand-rolled (the workspace carries no serde); the format
//! is flat enough to eyeball and to parse with anything.

use super::timed;
use crate::data::scaling_sequence;
use perigap_core::mpp::{mine, mine_top_k, mpp, Algorithm, MppConfig};
use perigap_core::pil::Pil;
use perigap_core::reference::{build_all_reference, mpp_reference};
use perigap_core::result::MineOutcome;
use perigap_core::spill::FsSpillIo;
use perigap_core::trace::{LevelEvent, MetricsObserver, NoopObserver};
use perigap_core::{select_top_k, GapRequirement};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// The acceptance configuration: DNA, gap `[0, 9]`, ρs = 0.003%.
const GAP: (usize, usize) = (0, 9);
const RHO: f64 = 0.003e-2;
const N: usize = 8;

/// Pool threads for the mining rows: 8, capped at the available CPUs.
fn threads() -> usize {
    8.min(cpus())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Best-of-`reps` wall-clock for `f`, discarding the results.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..reps {
        let (o, d) = timed(&mut f);
        if d < best {
            best = d;
            out = o;
        }
    }
    (out, best)
}

/// The pruning-power series (the paper's Figure 4/5 axes): per-level
/// candidate counts and what each bound discarded, from the observer's
/// level events.
fn pruning_json(levels: &[LevelEvent]) -> String {
    let mut s = String::from("[");
    for (i, l) in levels.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{{\"level\": {}, \"candidates\": {}, \"evaluated\": {}, \"kept\": {}, \"pruned_bound\": {}, \"frequent\": {}}}",
            l.level, l.candidates, l.evaluated, l.kept, l.pruned_bound, l.frequent
        );
    }
    s.push(']');
    s
}

fn level_json(outcome: &MineOutcome) -> String {
    let mut s = String::from("[");
    for (i, l) in outcome.stats.levels.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{{\"level\": {}, \"candidates\": {}, \"frequent\": {}, \"extended\": {}, \"elapsed_ms\": {:.3}}}",
            l.level,
            l.candidates,
            l.frequent,
            l.extended,
            ms(l.elapsed)
        );
    }
    s.push(']');
    s
}

/// Run the baseline and write `BENCH_mining.json` into the current
/// directory. `--quick` shrinks lengths so CI smoke runs stay fast;
/// the acceptance numbers come from the full run.
pub fn run(quick: bool) {
    let threads = threads();
    let gap = GapRequirement::new(GAP.0, GAP.1).unwrap();
    let seed_len = if quick { 10_000 } else { 100_000 };
    let e2e_len = seed_len;
    let matrix_lens: &[usize] = if quick {
        &[5_000, 10_000]
    } else {
        &[25_000, 50_000, 100_000]
    };
    let reps = if quick { 2 } else { 3 };

    println!(
        "bench: level-3 seeding, DNA, L = {seed_len}, gap [{}, {}]",
        GAP.0, GAP.1
    );
    let seq = scaling_sequence(seed_len);
    let (reference_pils, seed_ref) = best_of(reps, || build_all_reference(&seq, gap, 3));
    let (packed_pils, seed_new) = best_of(reps, || Pil::build_all(&seq, gap, 3));
    assert_eq!(reference_pils.len(), packed_pils.len(), "engines disagree");
    let seed_speedup = seed_ref.as_secs_f64() / seed_new.as_secs_f64();
    println!(
        "  reference {:.1} ms | packed {:.1} ms | speedup {:.2}x",
        ms(seed_ref),
        ms(seed_new),
        seed_speedup
    );

    let end_to_end = end_to_end(quick);
    let corpus_scale = corpus_scale(quick);
    let e2e_seq = scaling_sequence(e2e_len);
    let config = MppConfig::default();
    let pooled = MppConfig {
        threads,
        ..MppConfig::default()
    };

    let mut matrix = String::from("[");
    for (i, &len) in matrix_lens.iter().enumerate() {
        let seq = scaling_sequence(len);
        let (outcome, total) = timed(|| mpp(&seq, gap, RHO, N, pooled.clone()).unwrap());
        println!(
            "bench: matrix L = {len}: {:.1} ms over {} levels",
            ms(total),
            outcome.stats.levels.len()
        );
        if i > 0 {
            matrix.push_str(", ");
        }
        let _ = write!(
            matrix,
            "{{\"length\": {}, \"gap\": [{}, {}], \"total_ms\": {:.3}, \"levels\": {}}}",
            len,
            GAP.0,
            GAP.1,
            ms(total),
            level_json(&outcome)
        );
    }
    matrix.push(']');

    // Pruning power (Figures 4–5): per-level candidate counts under the
    // Theorem 1 bound (mpp with fixed n, λ) vs the Theorem 2 bound
    // (mppm with e_m-estimated n, λ′). The frequent sets must agree —
    // the bounds only change how much survives *between* levels.
    let pp_len = if quick { 5_000 } else { 10_000 };
    let pp_m = 8;
    let pp_seq = scaling_sequence(pp_len);
    let mut lambda_metrics = MetricsObserver::new();
    let lambda = mine(
        &pp_seq,
        gap,
        RHO,
        Algorithm::Mpp { n: N },
        &config,
        &mut lambda_metrics,
    );
    let lambda = lambda.unwrap();
    let mut lambda_prime_metrics = MetricsObserver::new();
    let lambda_prime = mine(
        &pp_seq,
        gap,
        RHO,
        Algorithm::Mppm { m: pp_m },
        &config,
        &mut lambda_prime_metrics,
    )
    .unwrap();
    assert_eq!(
        lambda.frequent.len(),
        lambda_prime.frequent.len(),
        "λ and λ′ runs must find the same patterns"
    );
    let em = lambda_prime.stats.em.unwrap_or(0);
    println!(
        "bench: pruning power L = {pp_len}: λ kept {} vs λ′ kept {} (n {} vs {}, e_{pp_m} = {em})",
        lambda_metrics.levels.iter().map(|l| l.kept).sum::<usize>(),
        lambda_prime_metrics
            .levels
            .iter()
            .map(|l| l.kept)
            .sum::<usize>(),
        lambda.stats.n_used,
        lambda_prime.stats.n_used,
    );
    let pruning_power = format!(
        "{{\"length\": {pp_len}, \"m\": {pp_m}, \"em\": {em}, \"n_lambda\": {}, \"n_lambda_prime\": {}, \"frequent\": {},\n    \"lambda_levels\": {},\n    \"lambda_prime_levels\": {}}}",
        lambda.stats.n_used,
        lambda_prime.stats.n_used,
        lambda.frequent.len(),
        pruning_json(&lambda_metrics.levels),
        pruning_json(&lambda_prime_metrics.levels)
    );

    let spill = spill_overhead(&e2e_seq, gap, reps);
    let single_thread = single_thread(if quick { 10_000 } else { 50_000 }, gap, reps);
    let query_throughput = query_throughput(gap, quick);
    let top_k_pruning = top_k_pruning(quick);
    let incremental_speedup = incremental_speedup(quick);

    let json = format!(
        "{{\n  \"config\": {{\"alphabet\": \"DNA\", \"gap\": [{}, {}], \"rho\": {RHO}, \"n\": {N}, \"threads\": {threads}, \"quick\": {quick}}},\n  \"seeding_level3\": {{\"length\": {seed_len}, \"patterns\": {}, \"reference_ms\": {:.3}, \"packed_ms\": {:.3}, \"speedup\": {:.3}}},\n  \"end_to_end\": {end_to_end},\n  \"corpus_scale\": {corpus_scale},\n  \"matrix\": {},\n  \"spill\": {spill},\n  \"single_thread\": {single_thread},\n  \"query_throughput\": {query_throughput},\n  \"top_k_pruning\": {top_k_pruning},\n  \"incremental_speedup\": {incremental_speedup},\n  \"pruning_power\": {}\n}}\n",
        GAP.0,
        GAP.1,
        packed_pils.len(),
        ms(seed_ref),
        ms(seed_new),
        seed_speedup,
        matrix,
        pruning_power
    );
    std::fs::write("BENCH_mining.json", &json).expect("write BENCH_mining.json");
    println!("bench: wrote BENCH_mining.json");
}

/// End-to-end mining on the acceptance config: `mpp` at 8 threads,
/// capped at the available CPUs (persistent pool), vs the seed per-level-spawn
/// reference miner, per-level wall-clock from both. Returns the JSON
/// fragment for the `end_to_end` key.
pub fn end_to_end(quick: bool) -> String {
    let threads = threads();
    let gap = GapRequirement::new(GAP.0, GAP.1).unwrap();
    let e2e_len = if quick { 10_000 } else { 100_000 };
    let reps = if quick { 2 } else { 3 };
    println!("bench: end-to-end mpp, {threads} threads, L = {e2e_len}, rho = {RHO}");
    let e2e_seq = scaling_sequence(e2e_len);
    let config = MppConfig {
        threads,
        ..MppConfig::default()
    };
    let (old_outcome, e2e_ref) = best_of(reps.min(2), || {
        mpp_reference(&e2e_seq, gap, RHO, N, config.clone()).unwrap()
    });
    let (new_outcome, e2e_new) = best_of(reps.min(2), || {
        mpp(&e2e_seq, gap, RHO, N, config.clone()).unwrap()
    });
    assert_eq!(
        old_outcome.frequent.len(),
        new_outcome.frequent.len(),
        "engines disagree"
    );
    let e2e_speedup = e2e_ref.as_secs_f64() / e2e_new.as_secs_f64();
    println!(
        "  reference {:.1} ms | engine {:.1} ms | speedup {:.2}x | {} frequent",
        ms(e2e_ref),
        ms(e2e_new),
        e2e_speedup,
        new_outcome.frequent.len()
    );
    format!(
        "{{\"length\": {e2e_len}, \"threads\": {threads}, \"cpus\": {}, \"frequent\": {}, \"reference_ms\": {:.3}, \"engine_ms\": {:.3}, \"speedup\": {:.3},\n    \"reference_levels\": {},\n    \"engine_levels\": {}}}",
        cpus(),
        new_outcome.frequent.len(),
        ms(e2e_ref),
        ms(e2e_new),
        e2e_speedup,
        level_json(&old_outcome),
        level_json(&new_outcome)
    )
}

/// Hardware parallelism actually available to the run — the context
/// that makes a `threads > cpus` speedup below 1.0 legible.
fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident-set high-water mark from `/proc/self/status`, in KiB.
/// Returns 0 where the procfs gauge is unavailable (non-Linux).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Reset the `VmHWM` high-water mark so the next [`vm_hwm_kb`] read
/// reflects only the work since this call. Best-effort (needs Linux).
fn reset_vm_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Corpus-scale sharded mining: pack a multi-sequence corpus, open it
/// (one heap read of the whole pack, shared by every worker), mine it
/// cold through the shard fan-out under a DFS arena ceiling, then
/// replay the checkpoint story — pause at ~50% of shards, resume, and
/// report the restart delta. Peak RSS (VmHWM) brackets each leg and
/// includes the pack's buffer.
/// Returns the JSON fragment for the `corpus_scale` key.
pub fn corpus_scale(quick: bool) -> String {
    use perigap_core::corpus::{mine_corpus, CheckpointConfig, Corpus, CorpusMineConfig};

    let gap = GapRequirement::new(GAP.0, GAP.1).unwrap();
    let shards = if quick { 4 } else { 8 };
    let base = if quick { 2_000 } else { 10_000 };
    let step = if quick { 500 } else { 2_000 };
    let threads = engine_threads();

    let seqs: Vec<(String, perigap_seq::Sequence)> = (0..shards)
        .map(|i| (format!("shard-{i}"), scaling_sequence(base + step * i)))
        .collect();
    let total_symbols: usize = seqs.iter().map(|(_, s)| s.len()).sum();
    let scratch = std::env::temp_dir().join(format!("perigap-bench-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create corpus scratch dir");
    let path = scratch.join("bench.pgco");
    Corpus::write(&path, &seqs).expect("pack bench corpus");
    let corpus = Arc::new(Corpus::open(&path).expect("open bench corpus"));

    // Derive the arena ceiling from the longest shard's measured
    // unbounded peak. Under the wide acceptance gap the unspillable
    // breadth-first levels alone need most of that peak, so the
    // ceiling sits AT the peak: every shard completes, the zero
    // watermark still forces real spill traffic on each DFS handoff,
    // and the ceiling caps what any one shard may hold live.
    let longest = seqs
        .iter()
        .map(|(_, s)| s)
        .max_by_key(|s| s.len())
        .expect("non-empty corpus");
    let mut peak_metrics = MetricsObserver::new();
    mine(
        longest,
        gap,
        RHO,
        Algorithm::Mpp { n: N },
        &MppConfig::default(),
        &mut peak_metrics,
    )
    .expect("unbounded peak probe");
    let unbounded_peak = peak_metrics.complete.as_ref().unwrap().peak_arena_bytes;
    let ceiling = unbounded_peak.max(1);
    println!(
        "bench: corpus scale, {shards} shards / {total_symbols} symbols, {threads} threads, ceiling {ceiling} B (longest-shard peak)",
    );

    let config = |checkpoint: Option<CheckpointConfig>, threads: usize| CorpusMineConfig {
        n: N,
        min_sequences: 1,
        mpp: MppConfig {
            max_arena_bytes: Some(ceiling),
            spill: Some(Arc::new(FsSpillIo::new(scratch.join("spill")))),
            spill_watermark: 0.0,
            threads,
            ..MppConfig::default()
        },
        checkpoint,
    };

    reset_vm_hwm();
    let (cold, cold_wall) = timed(|| mine_corpus(&corpus, gap, RHO, &config(None, threads)));
    let cold = cold.expect("cold corpus mine");
    let cold_peak_kb = vm_hwm_kb();
    println!(
        "  cold {:.1} ms | {} patterns | peak RSS {cold_peak_kb} KiB",
        ms(cold_wall),
        cold.outcome.patterns.len()
    );

    // Controlled kill at ~50% of shards: the serial leg stops exactly
    // after `shards / 2` checkpoint commits (the CI smoke job does the
    // same with a real SIGKILL).
    let ckpt = scratch.join("ckpt");
    let pausing = CheckpointConfig {
        stop_after_shards: Some(shards / 2),
        ..CheckpointConfig::new(&ckpt)
    };
    let (paused, pause_wall) = timed(|| mine_corpus(&corpus, gap, RHO, &config(Some(pausing), 1)));
    let paused_shards = match paused {
        Err(perigap_core::MineError::CorpusPaused { completed, .. }) => completed,
        other => panic!("expected a pause, got {other:?}"),
    };

    reset_vm_hwm();
    let (resumed, resume_wall) = timed(|| {
        mine_corpus(
            &corpus,
            gap,
            RHO,
            &config(Some(CheckpointConfig::new(&ckpt)), threads),
        )
    });
    let resumed = resumed.expect("resumed corpus mine");
    let resume_peak_kb = vm_hwm_kb();
    assert_eq!(
        resumed.outcome, cold.outcome,
        "resumed corpus mine must be bit-identical to the cold mine"
    );
    let restart_delta = resume_wall.as_secs_f64() / cold_wall.as_secs_f64();
    println!(
        "  paused after {paused_shards} shards ({:.1} ms) | resume {:.1} ms | restart delta {restart_delta:.2} | {} ckpt records / {} B",
        ms(pause_wall),
        ms(resume_wall),
        resumed.stats.checkpoint_records,
        resumed.stats.checkpoint_bytes
    );
    let _ = std::fs::remove_dir_all(&scratch);

    format!(
        "{{\"shards\": {shards}, \"total_symbols\": {total_symbols}, \"threads\": {threads}, \"cpus\": {}, \"ceiling_bytes\": {ceiling}, \"patterns\": {}, \"cold_ms\": {:.3}, \"cold_peak_rss_kb\": {cold_peak_kb}, \"paused_shards\": {paused_shards}, \"pause_ms\": {:.3}, \"resume_ms\": {:.3}, \"restart_delta\": {restart_delta:.3}, \"resume_peak_rss_kb\": {resume_peak_kb}, \"restored_shards\": {}, \"checkpoint_records\": {}, \"checkpoint_bytes\": {}}}",
        cpus(),
        cold.outcome.patterns.len(),
        ms(cold_wall),
        ms(pause_wall),
        ms(resume_wall),
        resumed.stats.restored_shards,
        resumed.stats.checkpoint_records,
        resumed.stats.checkpoint_bytes
    )
}

/// Engine threads for the spill rows: 4, capped at the available CPUs.
fn engine_threads() -> usize {
    4.min(cpus())
}

/// Spill-to-disk overhead on the acceptance config: the engine
/// unbounded vs under 2–3 arena ceilings derived from its own measured
/// peak, spilling to a temp dir with a zero watermark (spill on every
/// handoff). A ceiling whose hot working set genuinely does not fit is
/// reported as `completed: false` rather than papered over. Returns
/// the JSON fragment.
fn spill_overhead(seq: &perigap_seq::Sequence, gap: GapRequirement, reps: usize) -> String {
    let engine_threads = engine_threads();
    println!(
        "bench: spill overhead, {engine_threads} threads, L = {}",
        seq.len()
    );
    let unbounded = MppConfig {
        threads: engine_threads,
        ..MppConfig::default()
    };
    let mut metrics = MetricsObserver::new();
    let base = mine(
        seq,
        gap,
        RHO,
        Algorithm::Mpp { n: N },
        &unbounded,
        &mut metrics,
    )
    .unwrap();
    let peak = metrics.complete.as_ref().unwrap().peak_arena_bytes;
    let (_, unbounded_wall) = best_of(reps, || mpp(seq, gap, RHO, N, unbounded.clone()).unwrap());
    let dir = std::env::temp_dir().join(format!("perigap-bench-spill-{}", std::process::id()));
    let mut rows = Vec::new();
    for pct in [150usize, 100, 75] {
        let cap = (peak * pct / 100).max(1);
        let config = MppConfig {
            max_arena_bytes: Some(cap),
            spill: Some(Arc::new(FsSpillIo::new(&dir))),
            spill_watermark: 0.0,
            ..unbounded.clone()
        };
        match mpp(seq, gap, RHO, N, config.clone()) {
            Ok(outcome) => {
                assert_eq!(
                    outcome.frequent, base.frequent,
                    "spilling changed the pattern set at {pct}% ceiling"
                );
                let (_, wall) = best_of(reps, || mpp(seq, gap, RHO, N, config.clone()).unwrap());
                let overhead = wall.as_secs_f64() / unbounded_wall.as_secs_f64();
                println!(
                    "  ceiling {pct}% ({cap} B): {:.1} ms ({overhead:.2}x) | {} records / {} B spilled",
                    ms(wall),
                    outcome.stats.spilled_records,
                    outcome.stats.spilled_bytes
                );
                rows.push(format!(
                    "{{\"ceiling_pct\": {pct}, \"cap_bytes\": {cap}, \"completed\": true, \"wall_ms\": {:.3}, \"overhead\": {overhead:.3}, \"spilled_records\": {}, \"spilled_bytes\": {}, \"restored_records\": {}, \"restored_bytes\": {}}}",
                    ms(wall),
                    outcome.stats.spilled_records,
                    outcome.stats.spilled_bytes,
                    outcome.stats.restored_records,
                    outcome.stats.restored_bytes
                ));
            }
            Err(e) => {
                println!("  ceiling {pct}% ({cap} B): aborted ({e})");
                rows.push(format!(
                    "{{\"ceiling_pct\": {pct}, \"cap_bytes\": {cap}, \"completed\": false, \"error\": \"{e}\"}}"
                ));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    format!(
        "{{\"length\": {}, \"threads\": {engine_threads}, \"unbounded_ms\": {:.3}, \"unbounded_peak_arena_bytes\": {peak}, \"ceilings\": [{}]}}",
        seq.len(),
        ms(unbounded_wall),
        rows.join(", ")
    )
}

/// Single-thread end-to-end parity (the ISSUE-6 acceptance row): the
/// serial packed engine vs the seed reference at one thread, with
/// per-level wall-clock from both runs so a late-level regression is
/// visible individually, not averaged away. `late_levels_no_slower`
/// checks levels ≥ 7 at a 10% timing-noise tolerance. Returns the JSON
/// fragment.
fn single_thread(len: usize, gap: GapRequirement, reps: usize) -> String {
    let seq = scaling_sequence(len);
    let config = MppConfig::default();
    println!("bench: single-thread parity, L = {len}");
    let (ref_outcome, ref_wall) = best_of(reps, || {
        mpp_reference(&seq, gap, RHO, N, config.clone()).unwrap()
    });
    let (new_outcome, new_wall) = best_of(reps, || mpp(&seq, gap, RHO, N, config.clone()).unwrap());
    assert_eq!(
        ref_outcome.frequent.len(),
        new_outcome.frequent.len(),
        "engines disagree"
    );
    let speedup = ref_wall.as_secs_f64() / new_wall.as_secs_f64();
    let late_levels_no_slower = new_outcome
        .stats
        .levels
        .iter()
        .zip(&ref_outcome.stats.levels)
        .filter(|(l, _)| l.level >= 7)
        .all(|(new, old)| new.elapsed.as_secs_f64() <= old.elapsed.as_secs_f64() * 1.10);
    println!(
        "  reference {:.1} ms | packed {:.1} ms | speedup {:.2}x | late levels no slower: {late_levels_no_slower}",
        ms(ref_wall),
        ms(new_wall),
        speedup
    );
    format!(
        "{{\"length\": {len}, \"threads\": 1, \"frequent\": {}, \"reference_ms\": {:.3}, \"engine_ms\": {:.3}, \"speedup\": {:.3}, \"late_levels_no_slower\": {late_levels_no_slower},\n    \"reference_levels\": {},\n    \"engine_levels\": {}}}",
        new_outcome.frequent.len(),
        ms(ref_wall),
        ms(new_wall),
        speedup,
        level_json(&ref_outcome),
        level_json(&new_outcome)
    )
}

/// Query throughput of the `pgmine serve` daemon over the mined
/// pattern set, at 1 / 4 / 16 concurrent clients. Each client replays a
/// mixed workload (support, topk, prefix, overlap in rotation) for a
/// fixed query count; every response is checked `"ok": true`, so a
/// regression that breaks answers cannot masquerade as a fast one.
/// Returns the JSON fragment.
fn query_throughput(gap: GapRequirement, quick: bool) -> String {
    use perigap_serve::Client;
    use perigap_store::{LoadedOutcome, PatternIndex};

    // A bounded mine of its own: every pattern holds an occurrence
    // summary of about L/σ starts and every overlap query scans every
    // pattern, so the throughput section caps the pattern set with a
    // tighter rho instead of indexing the huge acceptance-config set.
    let len = if quick { 5_000 } else { 20_000 };
    let seq = scaling_sequence(len);
    let rho = 0.005;
    let outcome = mpp(&seq, gap, rho, N, MppConfig::default()).expect("throughput mine");
    let seq = &seq;
    let loaded = LoadedOutcome { outcome, gap, rho };
    let index = Arc::new(PatternIndex::build(
        &loaded,
        seq.alphabet().clone(),
        Some(seq),
    ));
    println!(
        "bench: query throughput, {} patterns indexed, L = {}",
        index.len(),
        seq.len()
    );

    // The mixed workload: one request line per indexed pattern kind,
    // derived from the top of the support ranking so every lookup hits.
    let mut workload: Vec<String> = Vec::new();
    for entry in index.top_k(8) {
        let text = entry.display(seq.alphabet());
        workload.push(format!("{{\"q\": \"support\", \"pattern\": \"{text}\"}}"));
        let prefix: String = text.chars().take(2).collect();
        workload.push(format!(
            "{{\"q\": \"prefix\", \"prefix\": \"{prefix}\", \"limit\": 16}}"
        ));
    }
    workload.push("{\"q\": \"topk\", \"k\": 10}".to_string());
    workload.push(format!(
        "{{\"q\": \"overlap\", \"a\": 1, \"b\": {}, \"limit\": 16}}",
        (seq.len() / 4).max(1)
    ));

    let per_client = if quick { 200 } else { 1_000 };
    let handle = perigap_serve::serve(
        Arc::clone(&index),
        "bench:memory".to_string(),
        "127.0.0.1:0",
        NoopObserver,
    )
    .expect("bench server binds loopback");
    let addr = handle.addr();

    let mut rows = Vec::new();
    for clients in [1usize, 4, 16] {
        let workload = Arc::new(workload.clone());
        let (_, wall) = timed(|| {
            let workers: Vec<_> = (0..clients)
                .map(|w| {
                    let workload = Arc::clone(&workload);
                    std::thread::spawn(move || {
                        let mut client = Client::connect(addr, Duration::from_secs(60))
                            .expect("bench client connects");
                        for i in 0..per_client {
                            let line = &workload[(w + i) % workload.len()];
                            let response = client.roundtrip(line).expect("bench query answers");
                            assert!(
                                response.contains("\"ok\": true"),
                                "bench query failed: {line} -> {response}"
                            );
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().expect("bench client finishes");
            }
        });
        let total = (clients * per_client) as f64;
        let qps = total / wall.as_secs_f64();
        println!(
            "  {clients:>2} clients x {per_client} queries: {:.1} ms | {qps:.0} qps",
            ms(wall)
        );
        rows.push(format!(
            "{{\"clients\": {clients}, \"queries_per_client\": {per_client}, \"wall_ms\": {:.3}, \"qps\": {qps:.1}}}",
            ms(wall)
        ));
    }
    handle.shutdown();
    format!(
        "{{\"length\": {}, \"patterns\": {}, \"workload_kinds\": [\"support\", \"topk\", \"prefix\", \"overlap\"], \"rows\": [{}]}}",
        seq.len(),
        index.len(),
        rows.join(", ")
    )
}

/// Top-k pruning vs full mine + post-filter, both gap regimes. The
/// flexible regime (`[0, 9]`, the acceptance gap) can only gate
/// emission — a child's support may exceed its parent's by up to
/// `W = M − N + 1`, so no subtree can be cut and the honest win is
/// bounded. The rigid regime (`0:0`, `W = 1`) has anti-monotone
/// support, so the rising floor prunes whole subtrees; `--top-k 100`
/// is required ≥ 5× there on the full-size run. Every pruned outcome
/// is compared bit-for-bit (patterns, supports, ratio bits, order)
/// against [`select_top_k`] over the full mine before its timing is
/// recorded. Each mine is timed best of 3 at both sizes: the quick
/// size's mines take a few milliseconds, so one sample a side lets a
/// single slow run swing the ratio several-fold. Returns the JSON
/// fragment.
pub fn top_k_pruning(quick: bool) -> String {
    top_k_pruning_at(if quick { 10_000 } else { 50_000 }, 3)
}

fn top_k_pruning_at(len: usize, reps: usize) -> String {
    let threads = threads();
    let seq = scaling_sequence(len);
    let ks: [usize; 3] = [10, 100, 1000];
    let mut regimes = Vec::new();
    // The rigid regime needs its own support threshold: at W = 1 a
    // pattern's occurrences are exact substring chains, so the
    // scaling sequence's RHO (tuned for flexible-gap counts) lands at
    // min_sup ≈ 1 and the full mine enumerates every distinct
    // substring — unbounded. Pinning min_sup ≈ 3 keeps the full mine
    // finite while leaving a long low-support tail for the floor to
    // prune.
    let rigid_rho = 3.0 / len as f64;
    for (regime, gap, rho) in [
        ("flexible", GapRequirement::new(GAP.0, GAP.1).unwrap(), RHO),
        ("rigid", GapRequirement::new(0, 0).unwrap(), rigid_rho),
    ] {
        println!(
            "bench: top-k pruning, {regime} gap [{}, {}], L = {len}, rho = {rho}",
            gap.min(),
            gap.max()
        );
        let config = MppConfig {
            threads,
            ..MppConfig::default()
        };
        let (full, full_wall) = best_of(reps, || mpp(&seq, gap, rho, N, config.clone()).unwrap());
        let mut rows = Vec::new();
        for k in ks {
            let (pruned, topk_wall) = best_of(reps, || {
                let n = Algorithm::Mpp { n: N };
                mine_top_k(&seq, gap, rho, n, k, &config, &mut NoopObserver).unwrap()
            });
            // The oracle: post-filter the full mine. Its cost counts
            // toward the baseline the pruned run is up against.
            let (oracle, filter_wall) = best_of(reps, || select_top_k(&full.frequent, k));
            assert_eq!(oracle.len(), pruned.frequent.len(), "top-{k} disagrees");
            for (want, got) in oracle.iter().zip(&pruned.frequent) {
                assert_eq!(want.pattern, got.pattern, "top-{k} pattern order");
                assert_eq!(want.support, got.support, "top-{k} support");
                assert_eq!(
                    want.ratio.to_bits(),
                    got.ratio.to_bits(),
                    "top-{k} ratio bits"
                );
            }
            let baseline = full_wall + filter_wall;
            let speedup = baseline.as_secs_f64() / topk_wall.as_secs_f64();
            println!(
                "  k = {k:>4}: full+filter {:.1} ms | top-k {:.1} ms | speedup {speedup:.2}x | floor raises {} | pruned by floor {}",
                ms(baseline),
                ms(topk_wall),
                pruned.stats.floor_raises,
                pruned.stats.pruned_by_floor
            );
            rows.push(format!(
                "{{\"k\": {k}, \"kept\": {}, \"full_filter_ms\": {:.3}, \"topk_ms\": {:.3}, \"speedup\": {speedup:.3}, \"floor_raises\": {}, \"pruned_by_floor\": {}, \"identical\": true}}",
                pruned.frequent.len(),
                ms(baseline),
                ms(topk_wall),
                pruned.stats.floor_raises,
                pruned.stats.pruned_by_floor
            ));
        }
        regimes.push(format!(
            "{{\"regime\": \"{regime}\", \"gap\": [{}, {}], \"rho\": {rho}, \"frequent\": {}, \"full_ms\": {:.3}, \"rows\": [{}]}}",
            gap.min(),
            gap.max(),
            full.frequent.len(),
            ms(full_wall),
            rows.join(", ")
        ));
    }
    format!(
        "{{\"length\": {len}, \"n\": {N}, \"regimes\": [{}]}}",
        regimes.join(",\n    ")
    )
}

/// Incremental re-mining vs a cold mine of the grown sequence, at
/// append fractions of 0.1% / 1% / 10% of L under a rigid gap (the
/// suffix-window delta path). The cache is seeded from the base
/// sequence once; before every timed rep the record is rewound to that
/// base state so each rep measures the same append, and each
/// incremental outcome is checked bit-identical to the cold mine
/// before its timing is trusted. Returns the JSON fragment for the
/// `incremental_speedup` key.
pub fn incremental_speedup(quick: bool) -> String {
    incremental_speedup_at(
        if quick { 10_000 } else { 50_000 },
        if quick { 2 } else { 3 },
        !quick,
    )
}

fn incremental_speedup_at(len: usize, reps: usize, enforce: bool) -> String {
    use perigap_core::{mine_incremental, IncrementalMode};

    // Rigid gap: the delta path needs W = 1. The workload is the
    // paper's eukaryote-fragment finding made rigid — a Markov
    // background with planted G-runs (isochore-style), so G-only
    // patterns stay frequent nearly thirty levels deep. The cold
    // engine walks occurrence lists at every one of those levels while
    // the cached candidate maps stay tiny, which is exactly the regime
    // incremental re-mining exists for. The threshold is a fixed ratio
    // (min_sup ≈ 0.8% of L) so the mined depth is length-invariant and
    // the Markov background dies out by level 4.
    let gap = GapRequirement::new(0, 0).unwrap();
    let rho = 0.008;
    let algorithm = Algorithm::Mpp { n: N };
    let config = MppConfig::default();
    println!("bench: incremental speedup, rigid gap [0, 0], L = {len}, rho = {rho}, n = {N}");

    // One master sequence; base and grown views are prefix slices, so
    // every grown sequence is a true append of the base. The G-runs
    // are planted at absolute positions (period 32, lengths cycling
    // 23..=29), keeping every prefix a true prefix of the master.
    let max_append = len / 10;
    let master = {
        let seq = scaling_sequence(len + max_append);
        let mut codes = seq.codes().to_vec();
        let total = codes.len();
        for (i, start) in (0..total).step_by(32).enumerate() {
            let run = 23 + (i % 7);
            let end = (start + run).min(total);
            for c in &mut codes[start..end] {
                *c = 2; // G
            }
        }
        perigap_seq::Sequence::from_codes(seq.alphabet().clone(), codes).unwrap()
    };
    let slice = |l: usize| {
        perigap_seq::Sequence::from_codes(master.alphabet().clone(), master.codes()[..l].to_vec())
            .unwrap()
    };
    let base = slice(len);
    let scratch = std::env::temp_dir().join(format!("perigap-bench-incr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create incremental scratch dir");
    let cache = scratch.join("base.pgrc");
    let seeded = mine_incremental(
        &base,
        gap,
        rho,
        algorithm,
        &config,
        &cache,
        &mut NoopObserver,
    )
    .expect("seed the result cache");
    assert_eq!(seeded.mode, IncrementalMode::Cold, "first run seeds");
    let base_record = std::fs::read(&cache).expect("read the seeded record");
    println!(
        "  seeded {} patterns, record {} B",
        seeded.outcome.frequent.len(),
        base_record.len()
    );

    let mut rows = Vec::new();
    for permille in [1usize, 10, 100] {
        let appended = (len * permille / 1000).max(1);
        let grown = slice(len + appended);
        let (cold, cold_wall) = best_of(reps, || mpp(&grown, gap, rho, N, config.clone()).unwrap());
        // Rewind the record to the base state before each timed rep:
        // the delta path consumes the base record and writes a grown
        // one, so without the rewind only the first rep would delta.
        let mut incremental = None;
        let mut inc_wall = Duration::MAX;
        for _ in 0..reps {
            std::fs::write(&cache, &base_record).expect("rewind the record");
            let (out, wall) = timed(|| {
                mine_incremental(
                    &grown,
                    gap,
                    rho,
                    algorithm,
                    &config,
                    &cache,
                    &mut NoopObserver,
                )
                .unwrap()
            });
            inc_wall = inc_wall.min(wall);
            incremental = Some(out);
        }
        let incremental = incremental.unwrap();
        assert_eq!(
            incremental.mode,
            IncrementalMode::Incremental(appended),
            "the append must take the delta path"
        );
        assert_eq!(
            cold.frequent, incremental.outcome.frequent,
            "incremental must be bit-identical to cold at +{appended}"
        );
        let speedup = cold_wall.as_secs_f64() / inc_wall.as_secs_f64();
        let diff = incremental.diff.as_ref().expect("delta path diffs");
        println!(
            "  append {appended} ({}%): cold {:.1} ms | incremental {:.1} ms | speedup {speedup:.2}x | {} suspect scans | diff +{} -{} ~{}",
            permille as f64 / 10.0,
            ms(cold_wall),
            ms(inc_wall),
            incremental.suspect_scans,
            diff.stats.new,
            diff.stats.dropped,
            diff.stats.changed
        );
        if enforce && permille == 10 {
            assert!(
                speedup >= 5.0,
                "a 1% append must re-mine at least 5x faster than cold (got {speedup:.2}x)"
            );
        }
        rows.push(format!(
            "{{\"appended\": {appended}, \"append_permille\": {permille}, \"frequent\": {}, \"cold_ms\": {:.3}, \"incremental_ms\": {:.3}, \"speedup\": {speedup:.3}, \"suspect_scans\": {}, \"diff_new\": {}, \"diff_dropped\": {}, \"diff_changed\": {}, \"identical\": true}}",
            cold.frequent.len(),
            ms(cold_wall),
            ms(inc_wall),
            incremental.suspect_scans,
            diff.stats.new,
            diff.stats.dropped,
            diff.stats.changed
        ));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    format!(
        "{{\"length\": {len}, \"gap\": [0, 0], \"rho\": {rho}, \"n\": {N}, \"engine\": \"mpp\", \"record_bytes\": {}, \"rows\": [{}]}}",
        base_record.len(),
        rows.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_returns_a_result() {
        let (v, d) = best_of(3, || 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() < 1_000_000_000);
    }

    #[test]
    fn incremental_speedup_fragment_shape() {
        let json = incremental_speedup_at(3_000, 1, false);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"rows\": ["), "{json}");
        assert!(json.contains("\"append_permille\": 10"), "{json}");
        assert!(json.contains("\"identical\": true"), "{json}");
    }

    #[test]
    fn pruning_json_matches_engine_stats() {
        let seq = scaling_sequence(2_000);
        let gap = GapRequirement::new(0, 2).unwrap();
        let mut metrics = MetricsObserver::new();
        let outcome = mine(
            &seq,
            gap,
            0.001,
            Algorithm::Mpp { n: 5 },
            &MppConfig::default(),
            &mut metrics,
        )
        .unwrap();
        assert_eq!(metrics.levels.len(), outcome.stats.levels.len());
        let json = pruning_json(&metrics.levels);
        assert!(json.contains("\"pruned_bound\""), "{json}");
        assert!(json.contains("\"level\": 3"), "{json}");
    }

    #[test]
    fn single_thread_fragment_shape() {
        let gap = GapRequirement::new(0, 2).unwrap();
        let json = single_thread(2_000, gap, 1);
        assert!(json.contains("\"threads\": 1"), "{json}");
        assert!(json.contains("\"late_levels_no_slower\""), "{json}");
        assert!(json.contains("\"engine_levels\""), "{json}");
    }

    #[test]
    fn query_throughput_fragment_shape() {
        let gap = GapRequirement::new(0, 2).unwrap();
        let json = query_throughput(gap, true);
        assert!(json.contains("\"workload_kinds\""), "{json}");
        assert!(json.contains("\"clients\": 16"), "{json}");
        assert!(json.contains("\"qps\""), "{json}");
    }

    #[test]
    fn top_k_pruning_fragment_shape() {
        let json = top_k_pruning_at(3_000, 1);
        assert!(json.contains("\"regime\": \"flexible\""), "{json}");
        assert!(json.contains("\"regime\": \"rigid\""), "{json}");
        assert!(json.contains("\"k\": 1000"), "{json}");
        assert!(json.contains("\"identical\": true"), "{json}");
        assert!(json.contains("\"pruned_by_floor\""), "{json}");
    }

    #[test]
    fn level_json_shape() {
        let seq = scaling_sequence(2_000);
        let gap = GapRequirement::new(0, 2).unwrap();
        let outcome = mpp(
            &seq,
            gap,
            0.001,
            5,
            MppConfig {
                threads: 2,
                ..MppConfig::default()
            },
        )
        .unwrap();
        let json = level_json(&outcome);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"level\": 3"));
        assert!(json.contains("elapsed_ms"));
    }
}
