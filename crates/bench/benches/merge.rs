//! Merge-stage shoot-out: the L1-presorting single-pass merge kernel vs a
//! plain BNL pass over the same candidate block.
//!
//! The candidate set mimics what the pipeline's merge reducer actually
//! receives: the concatenation of per-chunk local skylines. On such input a
//! BNL window churns (every candidate is locally optimal, so few die
//! early), while the presorted kernel never evicts an accepted row — if `p`
//! dominates `q` then `l1(p) < l1(q)`, so sorting by L1 norm makes one
//! filtering pass sufficient.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qws_data::{generate_synthetic, Distribution, SyntheticConfig};
use skyline_algos::block::PointBlock;
use skyline_algos::kernel::{block_bnl, presort_merge, BnlConfig};

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
    for (n, d) in [(20_000usize, 4usize), (10_000, 6)] {
        let cands = merge_candidates(n, d, 16);
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

criterion_group!(benches, bench_merge_kernels);
criterion_main!(benches);
