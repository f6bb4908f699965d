//! Filter-broadcast shoot-out: what the map-side filter sweep buys on the
//! shuffle, measured on the paper's worst case — anti-correlated data,
//! where nearly every row survives its local skyline and the shuffle is
//! the bottleneck.
//!
//! Runs the full MR-Angle pipeline at n=100k for d ∈ {2, 4, 6} with the
//! broadcast filter + witness pruning on (the defaults) and off, and
//! compares end-to-end wall time, shuffled rows, and shuffle bytes.
//!
//! A second group times filter-point *selection* alone on 500k QWS-like
//! rows at d=6 (the `qws-500k-d6` workload's shape), the map-side step that
//! runs before Job 1 on every query.
//!
//! Outside `--test` smoke runs the guard *asserts* that filtering cuts the
//! d=4 shuffle-candidate count by at least 2× and writes the numbers to
//! `BENCH_filter.json` at the workspace root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mr_skyline::{AlgoConfig, Algorithm, SkylineJob, SkylineRunReport};
use qws_data::{
    generate_qws, generate_synthetic, Dataset, Distribution, QwsConfig, SyntheticConfig,
};
use skyline_algos::filter::select_filter_points;
use std::time::Instant;

const N: usize = 100_000;
const SERVERS: usize = 8;

/// Minimum shuffle-row reduction the filter must deliver at d=4.
const MIN_SHUFFLE_REDUCTION: f64 = 2.0;

fn dataset(d: usize) -> Dataset {
    generate_synthetic(&SyntheticConfig::new(N, d, Distribution::AntiCorrelated))
}

/// The pipeline defaults: auto-sized broadcast filter + witness pruning.
fn filtered() -> AlgoConfig {
    AlgoConfig::default()
}

/// The plain pipeline: every row is shuffled.
fn unfiltered() -> AlgoConfig {
    AlgoConfig {
        filter_k: Some(0),
        sector_prune: false,
        ..AlgoConfig::default()
    }
}

fn run(data: &Dataset, config: AlgoConfig) -> SkylineRunReport {
    SkylineJob::new(Algorithm::MrAngle, SERVERS)
        .with_config(config)
        .run(data)
}

/// Rows that actually enter the shuffle: everything the filter let through.
fn shuffled_rows(report: &SkylineRunReport) -> u64 {
    N as u64 - report.rows_filtered
}

fn median_wall_ns(samples: usize, mut f: impl FnMut() -> usize) -> f64 {
    f(); // warm-up
    let mut v: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn bench_filter(c: &mut Criterion) {
    for d in [2usize, 4, 6] {
        let data = dataset(d);
        let mut group = c.benchmark_group(format!("filter/anti_n{N}_d{d}"));
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("unfiltered", N), &data, |b, data| {
            b.iter(|| run(data, unfiltered()).global_skyline.len());
        });
        group.bench_with_input(BenchmarkId::new("filtered", N), &data, |b, data| {
            b.iter(|| run(data, filtered()).global_skyline.len());
        });
        group.finish();
    }

    let qws = generate_qws(&QwsConfig::new(5 * N, 6));
    let k = AlgoConfig::default().filter_points_for(6);
    let mut group = c.benchmark_group(format!("filter/select_qws_n{}_d6", 5 * N));
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("select_filter_points", k),
        &qws,
        |b, qws| {
            b.iter(|| select_filter_points(qws.block(), k).len());
        },
    );
    group.finish();

    if std::env::args().any(|a| a == "--test") {
        return;
    }

    let mut rows = String::new();
    let mut d4_reduction = 0.0f64;
    for d in [2usize, 4, 6] {
        let data = dataset(d);
        let plain = run(&data, unfiltered());
        let fast = run(&data, filtered());
        assert_eq!(
            plain.global_skyline.len(),
            fast.global_skyline.len(),
            "filtering changed the d={d} skyline"
        );
        let plain_ns = median_wall_ns(3, || run(&data, unfiltered()).global_skyline.len());
        let fast_ns = median_wall_ns(3, || run(&data, filtered()).global_skyline.len());
        let reduction = shuffled_rows(&plain) as f64 / shuffled_rows(&fast) as f64;
        if d == 4 {
            d4_reduction = reduction;
        }
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"d\": {d}, \"skyline\": {}, \"shuffled_rows_unfiltered\": {}, \
             \"shuffled_rows_filtered\": {}, \"shuffle_row_reduction\": {reduction:.2}, \
             \"shuffle_bytes_unfiltered\": {}, \"shuffle_bytes_filtered\": {}, \
             \"sector_pruned_partitions\": {}, \"wall_ns_unfiltered\": {plain_ns:.0}, \
             \"wall_ns_filtered\": {fast_ns:.0}}}",
            fast.global_skyline.len(),
            shuffled_rows(&plain),
            shuffled_rows(&fast),
            plain.metrics.shuffle_bytes,
            fast.metrics.shuffle_bytes,
            fast.sector_pruned_partitions,
        ));
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_filter.json");
    let json = format!(
        "{{\n  \"bench\": \"filter/mr_angle_broadcast_filter\",\n  \"distribution\": \
         \"anti-correlated\",\n  \"n\": {N},\n  \"servers\": {SERVERS},\n  \
         \"min_shuffle_reduction_d4\": {MIN_SHUFFLE_REDUCTION},\n  \"dims\": [\n{rows}\n  ]\n}}\n"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} (d=4 shuffle-row reduction {d4_reduction:.2}x)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    assert!(
        d4_reduction >= MIN_SHUFFLE_REDUCTION,
        "broadcast filter only cut the d=4 shuffle by {d4_reduction:.2}x \
         (needs {MIN_SHUFFLE_REDUCTION}x)\n{json}"
    );
}

criterion_group!(benches, bench_filter);
criterion_main!(benches);
