//! Raw-scale shoot-out for the 10M-row machinery: the zero-copy block
//! shuffle vs the seed row-per-value shuffle, reduce-input spilling vs
//! resident reduce inputs, the work-stealing pool under skew, and one
//! honest end-to-end run at n=10M anti-correlated d=4.
//!
//! Outside `--test` smoke runs, the guard *asserts* the two structural
//! wins this PR claims —
//!
//! * the block shuffle moves the same bytes at least 2× faster than
//!   shipping one row per shuffled value (the per-value allocation,
//!   routing, and re-concatenation overhead this PR removes), and
//! * spilling reduce inputs to disk strictly lowers the peak resident
//!   reduce-input gauge while leaving the skyline bit-identical —
//!
//! and *records* the executor-skew and end-to-end numbers. Rebalancing is
//! proven structurally rather than by wall clock, which says nothing on a
//! single hardware thread: the straggler chunk's tasks must really execute
//! on several workers. Results land in `BENCH_scale.json` at the workspace
//! root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mini_mapreduce::pool::run_indexed;
use mini_mapreduce::shuffle::{shuffle_with, KeyRouter};
use mini_mapreduce::OwnedMergeFn;
use mr_skyline::{AlgoConfig, Algorithm, SkylineJob, SkylineRunReport};
use qws_data::{generate_synthetic, Dataset, Distribution, SyntheticConfig};
use skyline_algos::block::PointBlock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rows for the shuffle-phase and peak-memory comparisons.
const N_SHUFFLE: usize = 1_000_000;
/// Rows for the end-to-end completion run (the ISSUE's headline scale).
const N_END2END: usize = 10_000_000;
const D: usize = 4;
const SERVERS: usize = 8;
/// Logical partitions (shuffle keys) — the pipeline's `2 × servers`.
const PARTITIONS: usize = 16;
/// Rows per simulated map task, and rows per emitted block — the
/// runtime's `BLOCK_ROWS` granularity.
const SPLIT_ROWS: usize = 4_096;
const BLOCK_ROWS: usize = 256;

/// Minimum shuffle-phase speedup of blocks over row-per-value.
const MIN_SHUFFLE_SPEEDUP: f64 = 2.0;

fn dataset(n: usize) -> Dataset {
    generate_synthetic(&SyntheticConfig::new(n, D, Distribution::AntiCorrelated))
}

fn router() -> KeyRouter<u64> {
    Arc::new(|k: &u64, reducers: usize| (*k as usize) % reducers)
}

fn merge_fn() -> OwnedMergeFn<PointBlock> {
    Arc::new(|acc: &mut PointBlock, next: PointBlock| {
        if acc.dim() == next.dim() {
            acc.append_owned(next).expect("dims match");
            None
        } else {
            Some(next)
        }
    })
}

/// The partition a row lands in — a cheap stand-in for the real angular
/// router so the bench isolates shuffle mechanics from trigonometry.
fn partition_of(row: usize) -> u64 {
    (row % PARTITIONS) as u64
}

/// Seed semantics: every row crosses the shuffle as its own single-row
/// `PointBlock` value, and the reducer re-concatenates the shard list.
/// Returns total rows regrouped (the anti-elision checksum).
fn shuffle_rows(block: &PointBlock) -> usize {
    let map_outputs: Vec<(Vec<(u64, PointBlock)>, u64)> = (0..block.len())
        .step_by(SPLIT_ROWS)
        .map(|start| {
            let end = (start + SPLIT_ROWS).min(block.len());
            let mut pairs = Vec::with_capacity(end - start);
            let mut bytes = 0u64;
            for i in start..end {
                let mut one = PointBlock::with_capacity(D, 1);
                one.push_row_from(block, i);
                bytes += one.wire_size() as u64;
                pairs.push((partition_of(i), one));
            }
            (pairs, bytes)
        })
        .collect();
    regroup(shuffle_with(map_outputs, SERVERS, &router(), None))
}

/// This PR's semantics: rows are packed into `BLOCK_ROWS` blocks map-side
/// and concatenated by ownership transfer *during* the shuffle.
fn shuffle_blocks(block: &PointBlock) -> usize {
    let merge = merge_fn();
    let map_outputs: Vec<(Vec<(u64, PointBlock)>, u64)> = (0..block.len())
        .step_by(SPLIT_ROWS)
        .map(|start| {
            let end = (start + SPLIT_ROWS).min(block.len());
            let mut open: BTreeMap<u64, PointBlock> = BTreeMap::new();
            let mut pairs = Vec::new();
            let mut bytes = 0u64;
            for i in start..end {
                let pid = partition_of(i);
                let b = open
                    .entry(pid)
                    .or_insert_with(|| PointBlock::with_capacity(D, BLOCK_ROWS));
                b.push_row_from(block, i);
                if b.len() >= BLOCK_ROWS {
                    let full = open.remove(&pid).expect("just inserted");
                    bytes += full.wire_size() as u64;
                    pairs.push((pid, full));
                }
            }
            for (pid, b) in open {
                bytes += b.wire_size() as u64;
                pairs.push((pid, b));
            }
            (pairs, bytes)
        })
        .collect();
    regroup(shuffle_with(map_outputs, SERVERS, &router(), Some(&merge)))
}

/// The reducer-side concatenation both variants pay: fold every key group
/// into one block (a no-op move when the shuffle already merged).
fn regroup(inputs: Vec<mini_mapreduce::shuffle::ReduceInput<u64, PointBlock>>) -> usize {
    let mut total = 0usize;
    for input in inputs {
        for (_key, values) in input.groups {
            let mut acc = PointBlock::new(D);
            for v in values {
                acc.append_owned(v).expect("same dim");
            }
            total += acc.len();
        }
    }
    total
}

fn run(data: &Dataset, config: AlgoConfig) -> SkylineRunReport {
    SkylineJob::new(Algorithm::MrAngle, SERVERS)
        .with_config(config)
        .run(data)
}

fn seed_config() -> AlgoConfig {
    AlgoConfig {
        owned_shuffle: false,
        ..AlgoConfig::default()
    }
}

fn spilled_config(dir: &std::path::Path) -> AlgoConfig {
    AlgoConfig {
        // Well under the ~900 KB each of the 16 reducer inputs carries at
        // n=1M, so every partition-job input really takes the disk path.
        spill_budget_bytes: Some(1 << 18),
        spill_dir: Some(dir.to_path_buf()),
        ..AlgoConfig::default()
    }
}

fn fingerprint(report: &SkylineRunReport) -> Vec<u64> {
    let mut ids: Vec<u64> = report
        .global_skyline
        .iter()
        .map(skyline_algos::Point::id)
        .collect();
    ids.sort_unstable();
    ids
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

/// Skewed pool workload: the first contiguous chunk owns all the heavy
/// tasks. Returns (wall seconds, distinct workers that ran heavy tasks).
fn skewed_pool_run() -> (f64, usize) {
    const TASKS: usize = 64;
    const THREADS: usize = 4;
    const HEAVY: usize = TASKS / THREADS; // exactly worker 0's seeded range
    let heavy_workers: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
    let sink = AtomicU64::new(0);
    let spin = |iters: u64| {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        sink.fetch_xor(acc, Ordering::Relaxed);
    };
    let t = Instant::now();
    run_indexed(TASKS, THREADS, |i| {
        if i < HEAVY {
            let me = std::thread::current().id();
            let mut seen = heavy_workers.lock().expect("poisoned");
            if !seen.contains(&me) {
                seen.push(me);
            }
            spin(3_000_000);
        } else {
            spin(10_000);
        }
    });
    let wall = t.elapsed().as_secs_f64();
    let workers = heavy_workers.lock().expect("poisoned").len();
    (wall, workers)
}

fn bench_scale(c: &mut Criterion) {
    // Criterion smoke at a size the harness can iterate comfortably.
    let small = PointBlock::from_points(dataset(100_000).points()).expect("uniform dims");
    let mut group = c.benchmark_group("scale/shuffle_n100k_d4");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("row_per_value", 100_000),
        &small,
        |b, d| {
            b.iter(|| shuffle_rows(d));
        },
    );
    group.bench_with_input(BenchmarkId::new("block_owned", 100_000), &small, |b, d| {
        b.iter(|| shuffle_blocks(d));
    });
    group.finish();

    if std::env::args().any(|a| a == "--test") {
        return;
    }

    // --- Shuffle phase: blocks + owned merge vs row-per-value, n=1M ---
    let data = dataset(N_SHUFFLE);
    let rows = PointBlock::from_points(data.points()).expect("uniform dims");
    assert_eq!(
        shuffle_rows(&rows),
        shuffle_blocks(&rows),
        "shuffle variants disagree on regrouped row count"
    );
    let row_ns = median_wall_ns(3, || shuffle_rows(&rows));
    let block_ns = median_wall_ns(3, || shuffle_blocks(&rows));
    let shuffle_speedup = row_ns / block_ns;

    // --- Peak reduce-input memory: resident vs spilled, n=1M pipeline ---
    let spill_dir = std::env::temp_dir().join(format!("mrsky-bench-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill_dir);
    let t = Instant::now();
    let resident = run(&data, AlgoConfig::default());
    let resident_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let spilled = run(&data, spilled_config(&spill_dir));
    let spilled_s = t.elapsed().as_secs_f64();
    assert_eq!(
        fingerprint(&resident),
        fingerprint(&spilled),
        "spilling changed the n=1M skyline"
    );
    let spilled_inputs = spilled
        .metrics
        .reduce
        .counters
        .get("spilled_inputs")
        .copied()
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&spill_dir);

    // --- Executor skew: the stealing pool spreads a straggler chunk ---
    let (steal_wall, steal_workers) = skewed_pool_run();
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    // --- End-to-end completion at n=10M, scaled vs seed semantics ---
    drop(rows);
    drop(data);
    let big = dataset(N_END2END);
    // One untimed warm-up, then *alternating* timed runs with a per-config
    // minimum: the first 10M-row runs pay allocator page-faulting for
    // multi-GB working sets that later runs recycle, so successive runs of
    // the *same* config drift faster by 2× — ordering the configs
    // back-to-back would attribute that drift to whichever ran first.
    let _ = run(&big, AlgoConfig::default());
    let mut scaled_s = f64::INFINITY;
    let mut seed_s = f64::INFINITY;
    let mut scaled = None;
    let mut seed = None;
    for _ in 0..3 {
        let t = Instant::now();
        scaled = Some(run(&big, AlgoConfig::default()));
        scaled_s = scaled_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        seed = Some(run(&big, seed_config()));
        seed_s = seed_s.min(t.elapsed().as_secs_f64());
    }
    let scaled = scaled.expect("three timed rounds ran");
    let seed = seed.expect("three timed rounds ran");
    assert_eq!(
        fingerprint(&scaled),
        fingerprint(&seed),
        "scaled pipeline changed the n=10M skyline"
    );

    let json = format!(
        "{{\n  \"bench\": \"scale/raw_scale_machinery\",\n  \"distribution\": \"anti-correlated\",\n  \
         \"d\": {D},\n  \"servers\": {SERVERS},\n  \"host_threads\": {host_threads},\n  \
         \"shuffle_phase\": {{\n    \"n\": {N_SHUFFLE},\n    \"wall_ns_row_per_value\": {row_ns:.0},\n    \
         \"wall_ns_block_owned\": {block_ns:.0},\n    \"block_speedup\": {shuffle_speedup:.2},\n    \
         \"min_block_speedup\": {MIN_SHUFFLE_SPEEDUP}\n  }},\n  \
         \"peak_memory\": {{\n    \"n\": {N_SHUFFLE},\n    \
         \"peak_reduce_in_resident_bytes\": {},\n    \"peak_reduce_in_spilled_bytes\": {},\n    \
         \"spilled_inputs\": {spilled_inputs},\n    \"wall_s_resident\": {resident_s:.2},\n    \
         \"wall_s_spilled\": {spilled_s:.2}\n  }},\n  \
         \"executor_skew\": {{\n    \"wall_s_stealing\": {steal_wall:.3},\n    \
         \"heavy_chunk_workers_stealing\": {steal_workers}\n  }},\n  \
         \"end_to_end\": {{\n    \"n\": {N_END2END},\n    \"skyline\": {},\n    \
         \"merge_candidates\": {},\n    \"shuffle_bytes\": {},\n    \
         \"peak_map_out_bytes\": {},\n    \"peak_reduce_in_bytes\": {},\n    \
         \"wall_s_scaled\": {scaled_s:.2},\n    \"wall_s_seed\": {seed_s:.2}\n  }}\n}}\n",
        resident.peak_reduce_in_bytes(),
        spilled.peak_reduce_in_bytes(),
        scaled.global_skyline.len(),
        scaled.merge_candidates(),
        scaled.metrics.shuffle_bytes,
        scaled.peak_map_out_bytes(),
        scaled.peak_reduce_in_bytes(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "wrote {path} (shuffle speedup {shuffle_speedup:.2}x, \
             reduce-in peak {} -> {} B)",
            resident.peak_reduce_in_bytes(),
            spilled.peak_reduce_in_bytes()
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    assert!(
        shuffle_speedup >= MIN_SHUFFLE_SPEEDUP,
        "block shuffle only {shuffle_speedup:.2}x over row-per-value \
         (needs {MIN_SHUFFLE_SPEEDUP}x)\n{json}"
    );
    assert!(spilled_inputs > 0, "spill path never fired at n=1M\n{json}");
    assert!(
        spilled.peak_reduce_in_bytes() < resident.peak_reduce_in_bytes(),
        "spilling did not lower the peak reduce-input gauge\n{json}"
    );
    assert!(
        steal_workers >= 2,
        "work stealing left the straggler chunk on one worker\n{json}"
    );
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
