//! In-process timings of each layer's stable public functions, on the
//! workload's own input, result and cache record. They explain the
//! end-to-end numbers; they are not end-to-end numbers themselves.

use crate::gen::SplitMix64;
use crate::harness::{put1, Ctx, Metrics};
use perigap_analysis::export::outcome_to_tsv;
use perigap_core::em::compute_em;
use perigap_core::incremental::{load_result_cache, write_result_cache};
use perigap_core::mpp::MppConfig;
use perigap_core::mppm::estimate_n;
use perigap_core::verify::verify_outcome;
use perigap_seq::fasta::read_fasta;
use perigap_seq::{Alphabet, Sequence};
use perigap_store::{load_outcome, save_outcome, LoadedOutcome, PatternIndex};
use std::io::BufReader;

/// The `m` of `pgmine mine`'s default MPPm run.
const M: usize = 4;

/// What one workload's layers are timed on, as work-directory file names.
pub struct LayerInputs<'a> {
    /// The FASTA the program read.
    pub fasta: &'a str,
    pub alphabet: Alphabet,
    /// A `--save` file of the workload's result; it also carries the gap
    /// and threshold the result was mined with.
    pub outcome: &'a str,
    /// A result-cache record (`--cache-path`) of the same result.
    pub cache: &'a str,
    /// The workload mines with MPPm, whose prelude estimates `n`. (MPP
    /// does not, and on the 400,000-symbol append input the estimate
    /// alone would take minutes.)
    pub mppm: bool,
}

/// Time every layer on `inputs`, and check the result with
/// `verify_outcome`. Returns the sequence and the loaded result.
pub fn measure(
    ctx: &mut Ctx,
    inputs: &LayerInputs,
    metrics: &mut Metrics,
) -> Option<(Sequence, LoadedOutcome)> {
    let fasta = ctx.path(inputs.fasta);
    let (secs, records) = ctx.repeat("seq.read_fasta", || {
        let file = std::fs::File::open(&fasta).ok()?;
        read_fasta(BufReader::new(file), &inputs.alphabet).ok()
    });
    put1(metrics, "seq.read_fasta_s", secs);
    let Some(seq) = records
        .and_then(|r| r.into_iter().next())
        .map(|r| r.sequence)
    else {
        ctx.gate
            .record(false, || format!("cannot read {}", fasta.display()));
        return None;
    };

    let saved = ctx.path(inputs.outcome);
    let (secs, loaded) = ctx.repeat("store.load", || {
        load_outcome(BufReader::new(std::fs::File::open(&saved).ok()?)).ok()
    });
    put1(metrics, "store.load_s", secs);
    let Some(loaded) = loaded else {
        ctx.gate
            .record(false, || format!("cannot load {}", saved.display()));
        return None;
    };
    let (outcome, gap, rho) = (&loaded.outcome, loaded.gap, loaded.rho);
    let (secs, bytes) = ctx.repeat("store.save", || {
        save_outcome(Vec::new(), outcome, gap, rho).map_or(0, |b| b.len())
    });
    put1(metrics, "store.save_s", secs);
    put1(metrics, "store.bytes", bytes as f64);
    let (secs, _) = ctx.repeat("analysis.export_tsv", || {
        outcome_to_tsv(outcome, &inputs.alphabet, gap)
    });
    put1(metrics, "analysis.export_tsv_s", secs);

    let (secs, _) = ctx.repeat("core.em", || compute_em(&seq, gap, M));
    put1(metrics, "core.em_s", secs);
    if inputs.mppm {
        let (secs, _) = ctx.repeat("core.estimate_n", || {
            estimate_n(&seq, gap, rho, M, MppConfig::default()).ok()
        });
        put1(metrics, "core.estimate_n_s", secs);
    }

    let (problems, _) = ctx.spans.time("core.verify_outcome", || {
        verify_outcome(&seq, gap, rho, outcome)
    });
    ctx.gate.record(problems.is_empty(), || {
        format!("verify_outcome: {} discrepancies", problems.len())
    });

    let (secs, index) = ctx.repeat("store.index_build", || {
        PatternIndex::build(&loaded, inputs.alphabet.clone(), Some(&seq))
    });
    put1(metrics, "store.index_build_s", secs);
    index_queries(ctx, &index, &loaded, seq.len(), metrics);

    let cache = ctx.path(inputs.cache);
    let (secs, record) = ctx.repeat("core.incremental.load_cache", || {
        load_result_cache(&cache).ok()
    });
    put1(metrics, "core.incremental.load_cache_s", secs);
    put1(
        metrics,
        "core.incremental.record_bytes",
        std::fs::metadata(&cache).map_or(0.0, |m| m.len() as f64),
    );
    let Some(record) = record else {
        ctx.gate
            .record(false, || format!("cannot load {}", cache.display()));
        return None;
    };
    let rewrite = ctx.path("rewrite.pgrc");
    let (secs, _) = ctx.repeat("core.incremental.write_cache", || {
        write_result_cache(&rewrite, &record).is_ok()
    });
    put1(metrics, "core.incremental.write_cache_s", secs);
    Some((seq, loaded))
}

/// Microseconds per call of each index query kind, over keys drawn from
/// the result itself.
fn index_queries(
    ctx: &mut Ctx,
    index: &PatternIndex,
    loaded: &LoadedOutcome,
    len: usize,
    metrics: &mut Metrics,
) {
    let frequent = &loaded.outcome.frequent;
    let mut rng = SplitMix64::new(ctx.seed, 0x1a7e);
    let keys: Vec<&[u8]> = (0..256)
        .filter_map(|_| frequent.get(rng.below(frequent.len().max(1) as u64) as usize))
        .map(|f| f.pattern.codes())
        .collect();
    let ranges: Vec<(u32, u32)> = (0..16)
        .map(|_| {
            let a = 1 + rng.below(len.saturating_sub(20).max(1) as u64) as u32;
            (a, a + 10)
        })
        .collect();
    let per_call = |secs: f64, calls: usize| secs * 1e6 / calls.max(1) as f64;

    let (secs, _) = ctx.repeat("store.index.support", || {
        keys.iter().filter(|k| index.support(k).is_some()).count()
    });
    put1(
        metrics,
        "store.index.support_us",
        per_call(secs, keys.len()),
    );
    let (secs, _) = ctx.repeat("store.index.prefix", || {
        keys.iter()
            .map(|k| index.prefix(&k[..k.len().min(3)], 10).1)
            .sum::<usize>()
    });
    put1(metrics, "store.index.prefix_us", per_call(secs, keys.len()));
    let (secs, _) = ctx.repeat("store.index.topk", || {
        (0..keys.len())
            .map(|_| index.top_k(10).map(|e| e.support).sum::<u128>())
            .sum::<u128>()
    });
    put1(metrics, "store.index.topk_us", per_call(secs, keys.len()));
    let (secs, _) = ctx.repeat("store.index.overlap", || {
        ranges
            .iter()
            .map(|&(a, b)| index.overlap(a, b, 10).map_or(0, |r| r.1))
            .sum::<usize>()
    });
    put1(
        metrics,
        "store.index.overlap_us",
        per_call(secs, ranges.len()),
    );
}
