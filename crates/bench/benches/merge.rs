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

/// Concatenated per-chunk local skylines of an anti-correlated dataset —
/// the pipeline merge reducer's input shape.
fn merge_candidates(n: usize, d: usize, chunks: usize) -> PointBlock {
    let pts = generate_synthetic(&SyntheticConfig::new(n, d, Distribution::AntiCorrelated))
        .points()
        .to_vec();
    let block = PointBlock::from_points(&pts).expect("uniform dims");
    let mut out = PointBlock::new(d);
    for chunk in block.chunks(n.div_ceil(chunks)) {
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

fn median_wall_ns(mut f: impl FnMut() -> usize) -> f64 {
    black_box(f()); // warm-up
    let mut v: Vec<f64> = (0..RECORD_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
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
    let (sky, presort_stats) = presort_merge_stats(&cands);
    let (bnl_sky, bnl_stats) = block_bnl_stats(&cands, &cfg);
    assert_eq!(sky.len(), bnl_sky.len(), "merge kernels disagree");
    let presort_ns = median_wall_ns(|| presort_merge(&cands).len());
    let bnl_ns = median_wall_ns(|| block_bnl(&cands, &cfg).len());
    let speedup = bnl_ns / presort_ns;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_merge.json");
    let json = format!(
        "{{\n  \"bench\": \"merge/anti_n{RECORD_N}_d{RECORD_D}\",\n  \"distribution\": \"anti-correlated\",\n  \"n\": {RECORD_N},\n  \"d\": {RECORD_D},\n  \"chunks\": {CHUNKS},\n  \"candidates\": {},\n  \"skyline\": {},\n  \"samples\": {RECORD_SAMPLES},\n  \"presort_merge_ns\": {presort_ns:.0},\n  \"bnl_merge_ns\": {bnl_ns:.0},\n  \"speedup\": {speedup:.2},\n  \"presort_merge_comparisons\": {},\n  \"bnl_merge_comparisons\": {},\n  \"avx512f\": {}\n}}\n",
        cands.len(),
        sky.len(),
        presort_stats.comparisons,
        bnl_stats.comparisons,
        host_avx512f(),
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path} (presort merge {speedup:.2}x over a BNL pass)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_merge_kernels, record_merge_cell);
criterion_main!(benches);
