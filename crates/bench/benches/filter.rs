//! Filter-broadcast shoot-out: what the map-side filter sweep buys on the
//! shuffle, measured on the paper's worst case — anti-correlated data,
//! where nearly every row survives its local skyline and the shuffle is
//! the bottleneck.
//!
//! Runs the full MR-Angle pipeline at n=100k for d ∈ {2, 4, 6} with the
//! broadcast filter + witness pruning on (the defaults) and off, and
//! compares end-to-end wall time, shuffled rows, and shuffle bytes.
//!
//! A second group times the map-side steps that run before Job 1 on every
//! query, on 500k QWS-like rows at d=6 (the `qws-500k-d6` workload's
//! shape): filter-point *selection* alone, and MR-Angle's sector lookup,
//! fit as the pipeline fits it. The lookup runs three ways: `assign_rows`
//! (the production path: a branch-free sweep over 8-row lane batches,
//! `partition_of_row` only for rows a bracket cannot tell) over the
//! partition profile's 16,384-row ranges, `partition_of_row` row by row
//! (tangent brackets, `atan2` only near a boundary), and the `atan2`
//! definition both must agree with, `sector_index` then row-major
//! linearisation.
//!
//! Outside `--test` smoke runs the guard *asserts* that filtering cuts the
//! d=4 shuffle-candidate count by at least 2× and writes the numbers to
//! `BENCH_filter.json` at the workspace root, with `assign_rows`'s
//! `assign_speedup` over the definition and the partition-profile pass's
//! wall time per row (the `pipeline.partition_profile` span of a traced
//! query, which also gathers the filter points).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mr_skyline::algorithms::build_partitioner;
use mr_skyline::{AlgoConfig, Algorithm, SkylineJob, SkylineRunReport};
use mrsky_trace::{EpochClock, RunModel, Tracer, VecSink};
use qws_data::{
    generate_qws, generate_synthetic, Dataset, Distribution, QwsConfig, SyntheticConfig,
};
use skyline_algos::filter::select_filter_points;
use skyline_algos::partition::{AnglePartitioner, SpacePartitioner};
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

/// MR-Angle's partitioner for `data`, fit as the pipeline fits it. The
/// pipeline holds it as a trait object; the bench needs the concrete type
/// for `sector_index`, so it refits from the pipeline's inputs (the
/// quantile fit reads every `len / 10_000`-th row) and checks that the
/// boundaries agree.
fn angle_partitioner(data: &Dataset) -> AnglePartitioner {
    let config = AlgoConfig::default();
    let fitted = build_partitioner(Algorithm::MrAngle, &config, data, SERVERS).expect("fit");
    let np = config.partitions_for(SERVERS);
    let part = if config.angle_quantile {
        let block = data.block();
        let stride = (block.len() / 10_000).max(1);
        let sample: Vec<_> = (0..block.len())
            .step_by(stride)
            .map(|i| block.point(i))
            .collect();
        AnglePartitioner::fit_quantile(&sample, np)
    } else {
        AnglePartitioner::fit(data.bounds(), np)
    }
    .expect("fit");
    assert_eq!(part.boundary_profile(), fitted.boundary_profile());
    part
}

/// Rows per `assign_rows` batch: the partition profile's range size.
const ASSIGN_ROWS: usize = 16_384;

/// Every row's sector through `assign_rows` over [`ASSIGN_ROWS`]-row
/// ranges, summed.
fn assign_batched(part: &AnglePartitioner, data: &Dataset) -> usize {
    let block = data.block();
    let d = block.dim();
    let mut out = vec![0usize; ASSIGN_ROWS];
    let mut sum = 0;
    for lo in (0..block.len()).step_by(ASSIGN_ROWS) {
        let hi = (lo + ASSIGN_ROWS).min(block.len());
        let out = &mut out[..hi - lo];
        part.assign_rows(&block.ids()[lo..hi], &block.coords()[lo * d..hi * d], out);
        sum += out.iter().sum::<usize>();
    }
    sum
}

/// Every row's sector through `partition_of_row`, summed.
fn assign_row_by_row(part: &AnglePartitioner, data: &Dataset) -> usize {
    data.block()
        .iter()
        .map(|(id, row)| part.partition_of_row(id, row))
        .sum()
}

/// Every row's sector through the `atan2` definition, summed.
fn assign_by_definition(part: &AnglePartitioner, data: &Dataset) -> usize {
    data.points()
        .iter()
        .map(|p| {
            let index = part.sector_index(p);
            index
                .iter()
                .zip(part.splits())
                .fold(0, |linear, (&ix, &split)| linear * split + ix)
        })
        .sum()
}

/// Microseconds since the clock was made, so a traced query's span
/// durations are wall time.
struct WallClock(Instant);

impl EpochClock for WallClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Wall nanoseconds per row of the `pipeline.partition_profile` span of
/// one traced MR-Angle query over `data`.
fn profile_ns_per_row(data: &Dataset) -> f64 {
    let tracer = Tracer::with_clock(
        Box::new(VecSink::new()),
        Box::new(WallClock(Instant::now())),
    );
    let report = SkylineJob::new(Algorithm::MrAngle, SERVERS)
        .with_tracer(tracer.clone())
        .run(data);
    assert!(!report.global_skyline.is_empty());
    let model = RunModel::from_events(&tracer.drain());
    model.spans["pipeline.partition_profile"] as f64 * 1e3 / data.len() as f64
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
    let angle = angle_partitioner(&qws);
    let definition = assign_by_definition(&angle, &qws);
    assert_eq!(
        assign_row_by_row(&angle, &qws),
        definition,
        "the bracketed lookup left the atan2 definition"
    );
    assert_eq!(
        assign_batched(&angle, &qws),
        definition,
        "the batched lookup left the atan2 definition"
    );
    group.bench_with_input(BenchmarkId::new("assign", "assign_rows"), &qws, |b, qws| {
        b.iter(|| assign_batched(&angle, qws));
    });
    group.bench_with_input(
        BenchmarkId::new("assign", "partition_of_row"),
        &qws,
        |b, qws| {
            b.iter(|| assign_row_by_row(&angle, qws));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("assign", "sector_index"),
        &qws,
        |b, qws| {
            b.iter(|| assign_by_definition(&angle, qws));
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

    // Interleaved rounds, so a shared host's drift hits every lookup alike;
    // the speedup is the median of the per-round ratios.
    let wall_ns = |f: &dyn Fn() -> usize| {
        let t = Instant::now();
        std::hint::black_box(f());
        t.elapsed().as_nanos() as f64
    };
    wall_ns(&|| {
        assign_batched(&angle, &qws)
            + assign_row_by_row(&angle, &qws)
            + assign_by_definition(&angle, &qws)
    });
    let (mut batched, mut lookup, mut definition, mut ratios) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..11 {
        let b = wall_ns(&|| assign_batched(&angle, &qws));
        let r = wall_ns(&|| assign_row_by_row(&angle, &qws));
        let a = wall_ns(&|| assign_by_definition(&angle, &qws));
        batched.push(b);
        lookup.push(r);
        definition.push(a);
        ratios.push(a / b);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (batched_ns, rows_ns, definition_ns) =
        (median(batched), median(lookup), median(definition));
    let assign_speedup = median(ratios);
    let profile_ns = median((0..5).map(|_| profile_ns_per_row(&qws)).collect());
    let n_qws = qws.len();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_filter.json");
    let json = format!(
        "{{\n  \"bench\": \"filter/mr_angle_broadcast_filter\",\n  \"distribution\": \
         \"anti-correlated\",\n  \"n\": {N},\n  \"servers\": {SERVERS},\n  \
         \"min_shuffle_reduction_d4\": {MIN_SHUFFLE_REDUCTION},\n  \"dims\": [\n{rows}\n  ],\n  \
         \"assign\": {{\"data\": \"qws\", \"n\": {n_qws}, \"d\": 6, \
         \"assign_rows_ns\": {batched_ns:.0}, \"partition_of_row_ns\": {rows_ns:.0}, \
         \"sector_index_ns\": {definition_ns:.0}}},\n  \
         \"assign_speedup\": {assign_speedup:.2},\n  \
         \"profile_ns_per_row\": {profile_ns:.1}\n}}\n"
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
