//! Ablation benchmarks for the design choices called out in
//! DESIGN.md §5:
//!
//! 1. λ-pruning (MPP with a good `n`) vs none (`n` at the start level,
//!    which degenerates to a plain level-wise pass with ρs thresholds);
//! 2. PIL join vs recounting a candidate's support from scratch with
//!    the position DP.
//!
//! The exact `e_m` search is timed in `primitives.rs` (`em/exact`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use perigap_bench::data::ax_fragment;
use perigap_core::mpp::{mpp, MppConfig};
use perigap_core::naive::support_dp;
use perigap_core::pil::Pil;
use perigap_core::{GapRequirement, Pattern};

const RHO: f64 = 0.003e-2;

fn gap() -> GapRequirement {
    GapRequirement::new(9, 12).expect("static gap")
}

fn ablate_lambda_pruning(c: &mut Criterion) {
    let seq = ax_fragment(500);
    let mut group = c.benchmark_group("lambda_pruning");
    group.sample_size(10);
    // Tuned n: Theorem 1 pruning active at every level.
    group.bench_function("with_lambda_n15", |b| {
        b.iter(|| mpp(black_box(&seq), gap(), RHO, 15, MppConfig::default()).expect("runs"));
    });
    // n = l1: λ so small early on that pruning barely bites — the
    // paper's worst case.
    let l1 = gap().l1(500);
    group.bench_function("worst_case_n_l1", |b| {
        b.iter(|| mpp(black_box(&seq), gap(), RHO, l1, MppConfig::default()).expect("runs"));
    });
    group.finish();
}

fn ablate_pil_vs_recount(c: &mut Criterion) {
    // Computing one level-6 candidate's support: join two level-5 PILs
    // vs recount from the sequence with the DP.
    let seq = ax_fragment(1_000);
    let g = gap();
    let pattern = Pattern::parse("ATATAT", &perigap_seq::Alphabet::Dna).expect("static pattern");
    let prefix = pattern.prefix();
    let suffix = pattern.suffix();
    let pil5 = Pil::build_all(&seq, g, 5);
    let empty = Pil::new();
    let p_pil = pil5.get(&prefix).unwrap_or(&empty);
    let s_pil = pil5.get(&suffix).unwrap_or(&empty);

    let mut group = c.benchmark_group("support_of_candidate");
    group.bench_function("pil_join", |b| {
        b.iter(|| Pil::join(black_box(p_pil), black_box(s_pil), g).support());
    });
    group.bench_function("dp_recount", |b| {
        b.iter(|| support_dp(black_box(&seq), g, black_box(&pattern)));
    });
    group.finish();
}

criterion_group!(benches, ablate_lambda_pruning, ablate_pil_vs_recount);
criterion_main!(benches);
