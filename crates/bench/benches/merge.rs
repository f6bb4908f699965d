//! Merge-stage shoot-out: the L1-presorting single-pass merge kernel vs a
//! plain BNL pass over the same candidate block.
//!
//! The candidate set mimics what the pipeline's merge reducer actually
//! receives: the concatenation of per-chunk local skylines. On such input a
//! BNL window churns (every candidate is locally optimal, so few die
//! early), while the presorted kernel never evicts an accepted row: its
//! presort puts every dominator before the rows it dominates, so one
//! filtering pass suffices.
//!
//! The anti n=10k d=6 cell's medians, their ratio and both kernels'
//! comparison counts land in `BENCH_merge.json` at the workspace root
//! (skipped in `--test` smoke runs so the committed baseline survives).
//! Beside them, the presort merge's block-synchronous pass on
//! [`PARALLEL_THREADS`] threads is timed against its one-thread run on the
//! anti n=100k d=6 cell, whose 43.5k candidates are the size of the
//! `anti-100k-d6` benchmark workload's merge: enough 1024-row blocks for
//! the parallel phase to show. The two runs alternate over
//! [`PARALLEL_ROUNDS`] rounds and the recorded ratio is the median of the
//! per-round ratios.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qws_data::{generate_synthetic, Distribution, SyntheticConfig};
use skyline_algos::block::PointBlock;
use skyline_algos::kernel::{
    block_bnl, block_bnl_stats, presort_merge, presort_merge_stats, BnlConfig,
};
use std::time::Instant;

/// The recorded cell: anti-correlated, n=10k, d=6, 16 chunks.
const RECORD_N: usize = 10_000;
const RECORD_D: usize = 6;
const CHUNKS: usize = 16;
const RECORD_SAMPLES: usize = 11;
/// Threads of the recorded parallel merge.
const PARALLEL_THREADS: usize = 2;
/// Rows of the cell the parallel merge is recorded on (anti, d=6, 16
/// chunks).
const PARALLEL_N: usize = 100_000;
/// Alternating one-thread/parallel rounds of the parallel recording.
const PARALLEL_ROUNDS: usize = 15;

/// Concatenated per-chunk local skylines of an anti-correlated dataset —
/// the pipeline merge reducer's input shape.
fn merge_candidates(n: usize, d: usize, chunks: usize) -> PointBlock {
    let pts = generate_synthetic(&SyntheticConfig::new(n, d, Distribution::AntiCorrelated))
        .points()
        .to_vec();
    let block = PointBlock::from_points(&pts).expect("uniform dims");
    let mut out = PointBlock::new(d);
    let rows = n.div_ceil(chunks);
    for lo in (0..block.len()).step_by(rows) {
        let chunk = block.slice(lo, (lo + rows).min(block.len()));
        out.extend_from_block(&block_bnl(&chunk, &BnlConfig::default()));
    }
    out
}

fn bench_merge_kernels(c: &mut Criterion) {
    for (n, d) in [(20_000usize, 4usize), (RECORD_N, RECORD_D)] {
        let cands = merge_candidates(n, d, CHUNKS);
        let mut group = c.benchmark_group(format!("merge/anti_n{n}_d{d}"));
        group.sample_size(10);
        group.bench_with_input(
            BenchmarkId::new("bnl_merge", cands.len()),
            &cands,
            |b, cands| {
                b.iter(|| block_bnl(cands, &BnlConfig::default()).len());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("presort_merge", cands.len()),
            &cands,
            |b, cands| {
                b.iter(|| presort_merge(cands).len());
            },
        );
        group.finish();
    }
}

fn wall_ns(f: impl FnOnce() -> usize) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn median_wall_ns(mut f: impl FnMut() -> usize) -> f64 {
    black_box(f()); // warm-up
    median((0..RECORD_SAMPLES).map(|_| wall_ns(&mut f)).collect())
}

/// The parallel merge on [`PARALLEL_THREADS`] threads against the
/// one-thread merge of the same `cands`, alternating over
/// [`PARALLEL_ROUNDS`] rounds: the median one-thread and parallel times
/// and the median per-round ratio.
fn interleaved_parallel_speedup(cands: &PointBlock) -> (f64, f64, f64) {
    let serial = || presort_merge_stats(cands, 1).0.len();
    let parallel = || presort_merge_stats(cands, PARALLEL_THREADS).0.len();
    black_box((serial(), parallel())); // warm-up
    let rounds: Vec<(f64, f64)> = (0..PARALLEL_ROUNDS)
        .map(|_| (wall_ns(serial), wall_ns(parallel)))
        .collect();
    (
        median(rounds.iter().map(|r| r.0).collect()),
        median(rounds.iter().map(|r| r.1).collect()),
        median(rounds.iter().map(|r| r.0 / r.1).collect()),
    )
}

/// Whether the host can take the merge's AVX-512 lane scan.
fn host_avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

fn record_merge_cell(_c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let cands = merge_candidates(RECORD_N, RECORD_D, CHUNKS);
    let cfg = BnlConfig::default();
    let (sky, presort_stats) = presort_merge_stats(&cands, 1);
    let (bnl_sky, bnl_stats) = block_bnl_stats(&cands, &cfg);
    assert_eq!(sky.len(), bnl_sky.len(), "merge kernels disagree");
    let presort_ns = median_wall_ns(|| presort_merge(&cands).len());
    let bnl_ns = median_wall_ns(|| block_bnl(&cands, &cfg).len());
    let speedup = bnl_ns / presort_ns;

    let par_cands = merge_candidates(PARALLEL_N, RECORD_D, CHUNKS);
    let (serial_sky, serial_stats) = presort_merge_stats(&par_cands, 1);
    let (par_sky, par_stats) = presort_merge_stats(&par_cands, PARALLEL_THREADS);
    assert_eq!(
        par_sky.ids(),
        serial_sky.ids(),
        "parallel merge changed the skyline"
    );
    assert_eq!(
        par_stats.comparisons, serial_stats.comparisons,
        "parallel merge changed the comparison count"
    );
    let (serial_ns, parallel_ns, parallel_speedup) = interleaved_parallel_speedup(&par_cands);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_merge.json");
    let json = format!(
        "{{\n  \"bench\": \"merge/anti_n{RECORD_N}_d{RECORD_D}\",\n  \"distribution\": \"anti-correlated\",\n  \"n\": {RECORD_N},\n  \"d\": {RECORD_D},\n  \"chunks\": {CHUNKS},\n  \"candidates\": {},\n  \"skyline\": {},\n  \"samples\": {RECORD_SAMPLES},\n  \"presort_merge_ns\": {presort_ns:.0},\n  \"bnl_merge_ns\": {bnl_ns:.0},\n  \"speedup\": {speedup:.2},\n  \"presort_merge_comparisons\": {},\n  \"bnl_merge_comparisons\": {},\n  \"threads\": {PARALLEL_THREADS},\n  \"parallel_n\": {PARALLEL_N},\n  \"parallel_candidates\": {},\n  \"parallel_skyline\": {},\n  \"parallel_rounds\": {PARALLEL_ROUNDS},\n  \"presort_merge_serial_ns\": {serial_ns:.0},\n  \"presort_merge_parallel_ns\": {parallel_ns:.0},\n  \"parallel_speedup\": {parallel_speedup:.2},\n  \"presort_merge_parallel_comparisons\": {},\n  \"avx512f\": {}\n}}\n",
        cands.len(),
        sky.len(),
        presort_stats.comparisons,
        bnl_stats.comparisons,
        par_cands.len(),
        par_sky.len(),
        par_stats.comparisons,
        host_avx512f(),
    );
    match std::fs::write(path, json) {
        Ok(()) => println!(
            "wrote {path} (presort merge {speedup:.2}x over a BNL pass, \
             {parallel_speedup:.2}x on {PARALLEL_THREADS} threads)"
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_merge_kernels, record_merge_cell);
criterion_main!(benches);
