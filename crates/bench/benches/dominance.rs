//! Micro-benchmarks of the dominance primitive — the inner loop every
//! skyline kernel and the cluster cost model are built on.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use skyline_algos::dominance::{compare, dominates};
use skyline_algos::point::Point;

fn random_points(n: usize, d: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            Point::new(
                i as u64,
                (0..d).map(|_| rng.gen_range(0.0..1.0)).collect::<Vec<_>>(),
            )
        })
        .collect()
}

fn bench_dominates(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominates");
    for d in [2usize, 6, 10] {
        let pts = random_points(1024, d, 1);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| {
                let mut wins = 0u32;
                for pair in pts.chunks_exact(2) {
                    if dominates(black_box(&pair[0]), black_box(&pair[1])) {
                        wins += 1;
                    }
                }
                wins
            });
        });
    }
    group.finish();
}

fn bench_compare(c: &mut Criterion) {
    let mut group = c.benchmark_group("compare_classify");
    for d in [2usize, 10] {
        let pts = random_points(1024, d, 2);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| {
                let mut acc = 0u32;
                for pair in pts.chunks_exact(2) {
                    acc = acc.wrapping_add(compare(black_box(&pair[0]), &pair[1]) as u32);
                }
                acc
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dominates, bench_compare);
criterion_main!(benches);
