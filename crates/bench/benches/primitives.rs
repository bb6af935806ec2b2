//! Micro-benchmarks of the mining primitives: PIL construction and
//! joins, offset-sequence counting, and the e_m statistic.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use perigap_bench::data::ax_fragment;
use perigap_core::counts::OffsetCounts;
use perigap_core::em::compute_em;
use perigap_core::pil::Pil;
use perigap_core::{GapRequirement, Pattern};

fn gap() -> GapRequirement {
    GapRequirement::new(9, 12).expect("static gap")
}

fn bench_pil_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("pil_build_level3");
    for len in [500usize, 1_000, 2_000] {
        let seq = ax_fragment(len);
        group.bench_with_input(BenchmarkId::from_parameter(len), &seq, |b, seq| {
            b.iter(|| Pil::build_all(black_box(seq), gap(), 3));
        });
    }
    group.finish();
}

fn bench_pil_join(c: &mut Criterion) {
    let seq = ax_fragment(1_000);
    let level3 = Pil::build_all(&seq, gap(), 3);
    // Join the best-populated pattern with an overlapping partner.
    let mut best: Option<(&Pattern, &Pil)> = None;
    for (p, pil) in &level3 {
        if best.is_none_or(|(_, bp)| pil.support() > bp.support()) {
            best = Some((p, pil));
        }
    }
    let (p1, pil1) = best.expect("non-empty level 3");
    let suffix = p1.suffix();
    let partner = level3
        .iter()
        .find(|(p, _)| suffix.is_prefix_of(p))
        .map(|(_, pil)| pil)
        .unwrap_or(pil1);
    c.bench_function("pil_join", |b| {
        b.iter(|| Pil::join(black_box(pil1), black_box(partner), gap()));
    });
}

fn bench_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("n_l");
    group.bench_function("exact_l13", |b| {
        b.iter(|| {
            // Fresh table each iteration: measures the computation, not
            // the cache.
            let counts = OffsetCounts::new(1_000, gap());
            black_box(counts.n(13))
        });
    });
    group.bench_function("boundary_l90", |b| {
        b.iter(|| {
            let counts = OffsetCounts::new(1_000, gap());
            black_box(counts.n(90))
        });
    });
    group.finish();
}

fn bench_em(c: &mut Criterion) {
    let mut group = c.benchmark_group("em");
    group.sample_size(10);
    let seq = ax_fragment(1_000);
    for m in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("exact", m), &m, |b, &m| {
            b.iter(|| compute_em(black_box(&seq), gap(), m));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pil_build,
    bench_pil_join,
    bench_counts,
    bench_em
);
criterion_main!(benches);
