//! Criterion ablations for the design choices DESIGN.md calls out:
//! partition policy, local kernel, grid pruning, angle split strategy, and
//! the incremental-vs-batch maintenance trade.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mr_skyline::prelude::*;
use mr_skyline_bench::master_dataset;
use qws_data::dataset::update_stream;
use skyline_algos::select::BlockKernel;

const BENCH_N: usize = 6000;

fn bench_partition_policy(c: &mut Criterion) {
    let data = master_dataset(BENCH_N).project(6);
    let mut group = c.benchmark_group("ablation_partitions_per_node");
    group.sample_size(10);
    for k in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &data, |b, data| {
            let mut job = SkylineJob::new(Algorithm::MrAngle, 8);
            job.config.partitions_per_node = k;
            b.iter(|| job.run(data).metrics.sim_total);
        });
    }
    group.finish();
}

fn bench_local_kernel(c: &mut Criterion) {
    let data = master_dataset(BENCH_N).project(6);
    let mut group = c.benchmark_group("ablation_local_kernel");
    group.sample_size(10);
    for (name, kernel) in [("bnl", BlockKernel::Bnl), ("sfs", BlockKernel::Sfs)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &data, |b, data| {
            let mut job = SkylineJob::new(Algorithm::MrAngle, 8);
            job.config.kernel = Some(kernel);
            b.iter(|| job.run(data).global_skyline.len());
        });
    }
    group.finish();
}

fn bench_grid_pruning(c: &mut Criterion) {
    let data = master_dataset(BENCH_N).project(2); // pruning sound at d=2
    let mut group = c.benchmark_group("ablation_grid_pruning");
    group.sample_size(10);
    for (name, pruning) in [("on", true), ("off", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &data, |b, data| {
            let mut job = SkylineJob::new(Algorithm::MrGrid, 8);
            job.config.grid_pruning = pruning;
            b.iter(|| job.run(data).metrics.reduce.work_units);
        });
    }
    group.finish();
}

fn bench_angle_split(c: &mut Criterion) {
    let data = master_dataset(BENCH_N).project(6);
    let mut group = c.benchmark_group("ablation_angle_split");
    group.sample_size(10);
    for (name, quantile) in [("quantile", true), ("equal_width", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &data, |b, data| {
            let mut job = SkylineJob::new(Algorithm::MrAngle, 8);
            job.config.angle_quantile = quantile;
            b.iter(|| job.run(data).load_balance.cv);
        });
    }
    group.finish();
}

fn bench_incremental_vs_batch(c: &mut Criterion) {
    let data = master_dataset(2000).project(4);
    let updates = update_stream(&data, 100, 0.7, 0.05, 3);
    let mut group = c.benchmark_group("ablation_churn");
    group.sample_size(10);
    group.bench_function("incremental_stream", |b| {
        b.iter(|| {
            let mut reg = MaintainedRegistry::bootstrap(Algorithm::MrAngle, 8, &data)
                .expect("partitioner fit");
            for u in &updates {
                reg.apply(u);
            }
            reg.skyline().len()
        });
    });
    group.bench_function("batch_recompute_each_event", |b| {
        use skyline_algos::block::PointBlock;
        use skyline_algos::kernel::{block_bnl, BnlConfig};
        b.iter(|| {
            // replay the stream, recomputing the skyline from scratch after
            // every event — the "traditional approach" of the paper's Sec. II
            let mut live = data.points().to_vec();
            let mut total = 0usize;
            for u in &updates {
                match u {
                    qws_data::dataset::Update::Add(p) => live.push(p.clone()),
                    qws_data::dataset::Update::Remove(id) => {
                        if let Some(pos) = live.iter().position(|p| p.id() == *id) {
                            live.swap_remove(pos);
                        }
                    }
                }
                let block = PointBlock::from_points(&live).expect("non-empty live set");
                total += block_bnl(&block, &BnlConfig::default()).len();
            }
            total
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_partition_policy,
    bench_local_kernel,
    bench_grid_pruning,
    bench_angle_split,
    bench_incremental_vs_batch
);
criterion_main!(benches);
