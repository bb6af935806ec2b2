//! End-to-end mining benchmarks: the per-figure workloads at reduced
//! scale (criterion needs many iterations; the full-scale runs live in
//! the `repro` binary).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use perigap_bench::data::ax_fragment;
use perigap_core::mpp::{mpp, MppConfig};
use perigap_core::mppm::mppm;
use perigap_core::pil::Pil;
use perigap_core::profile::{mine_with_profile, GapProfile};
use perigap_core::GapRequirement;

const RHO: f64 = 0.003e-2;

fn gap() -> GapRequirement {
    GapRequirement::new(9, 12).expect("static gap")
}

fn bench_mpp_by_n(c: &mut Criterion) {
    // The Figure 5 effect in miniature: worse n estimates cost more.
    let seq = ax_fragment(500);
    let mut group = c.benchmark_group("mpp_by_n");
    group.sample_size(10);
    for n in [10usize, 20, 39] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| mpp(black_box(&seq), gap(), RHO, n, MppConfig::default()).expect("runs"));
        });
    }
    group.finish();
}

fn bench_mppm_by_len(c: &mut Criterion) {
    // The Figure 8 effect in miniature: linear scaling in L.
    let mut group = c.benchmark_group("mppm_by_len");
    group.sample_size(10);
    for len in [250usize, 500, 1_000] {
        let seq = ax_fragment(len);
        group.bench_with_input(BenchmarkId::from_parameter(len), &seq, |b, seq| {
            b.iter(|| mppm(black_box(seq), gap(), RHO, 6, MppConfig::default()).expect("runs"));
        });
    }
    group.finish();
}

fn bench_mppm_by_w(c: &mut Criterion) {
    // The Figure 6 effect in miniature: cost grows with flexibility.
    let seq = ax_fragment(500);
    let mut group = c.benchmark_group("mppm_by_w");
    group.sample_size(10);
    for w in [2usize, 4, 6] {
        let g = GapRequirement::new(9, 9 + w - 1).expect("sweep gap");
        group.bench_with_input(BenchmarkId::from_parameter(w), &g, |b, &g| {
            b.iter(|| mppm(black_box(&seq), g, RHO, 6, MppConfig::default()).expect("runs"));
        });
    }
    group.finish();
}

fn bench_parallel_threads(c: &mut Criterion) {
    // The crossbeam executor vs the serial engine on a join-heavy run.
    let seq = ax_fragment(1_000);
    let mut group = c.benchmark_group("mpp_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let config = MppConfig {
            threads,
            ..MppConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &config,
            |b, config| {
                b.iter(|| mpp(black_box(&seq), gap(), RHO, 30, config.clone()).expect("runs"));
            },
        );
    }
    group.finish();
}

fn bench_profile_vs_uniform(c: &mut Criterion) {
    // The end-anchored profile miner against the PIL-join engine on the
    // same (uniform) requirement — the cost of generality.
    let seq = ax_fragment(500);
    let mut group = c.benchmark_group("profile_engine");
    group.sample_size(10);
    group.bench_function("pil_join_uniform", |b| {
        b.iter(|| mpp(black_box(&seq), gap(), RHO, 12, MppConfig::default()).expect("runs"));
    });
    group.bench_function("eil_profile_uniform", |b| {
        let profile = GapProfile::uniform(gap(), 12);
        b.iter(|| mine_with_profile(black_box(&seq), &profile, RHO, 12).expect("runs"));
    });
    group.finish();
}

fn bench_join_kernel(c: &mut Criterion) {
    // One left parent joined against its whole suffix fan-out, one
    // `join_checked` call per candidate.
    let seq = ax_fragment(2_000);
    let g = gap();
    let pils: Vec<(Vec<u8>, Pil)> = Pil::build_all(&seq, g, 3)
        .into_iter()
        .map(|(p, pil)| (p.codes().to_vec(), pil))
        .collect();
    let (left_codes, left) = pils
        .iter()
        .max_by_key(|(_, pil)| pil.len())
        .expect("seed patterns exist");
    let partners: Vec<&Pil> = pils
        .iter()
        .filter(|(codes, _)| codes[..2] == left_codes[1..])
        .map(|(_, pil)| pil)
        .collect();
    assert!(!partners.is_empty());
    let mut group = c.benchmark_group("join_kernel");
    group.bench_function("per_candidate", |b| {
        b.iter(|| {
            for p in &partners {
                black_box(Pil::join_checked(black_box(left), p, g));
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mpp_by_n,
    bench_mppm_by_len,
    bench_mppm_by_w,
    bench_parallel_threads,
    bench_profile_vs_uniform,
    bench_join_kernel
);
criterion_main!(benches);
