//! Property-based equivalence of the columnar kernels against the naive
//! oracle: `block_bnl` (any window size), every configurable kernel and
//! auto's pick, and `presort_merge` must return exactly the skyline id-set
//! of `naive_skyline_ids` over `&[Point]` for arbitrary datasets —
//! including duplicated coordinates, fully equal rows and `-0.0`/`0.0`
//! pairs, which small integer grids force constantly. CI runs this file with `--features strict-invariants` so
//! every kernel call additionally self-checks minimality and completeness.
//!
//! The three presort kernels (`presort_merge_stats`, `block_sfs_stats`,
//! `block_salsa_stats`) are also checked against a row-by-row reference
//! model of their documented contract (presort order, stop bound,
//! watermark, emission order and exact comparison counts), so whichever
//! scan the host dispatches to — the AVX-512 lane scan or the portable
//! row-wise one — must reproduce it.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use skyline_algos::block::PointBlock;
use skyline_algos::kernel::{
    block_bnl, block_sfs_stats, dominates_row, presort_merge, presort_merge_stats,
    presort_merge_stats_in_blocks, BnlConfig, KernelStats,
};
use skyline_algos::point::Point;
use skyline_algos::salsa::block_salsa_stats;
use skyline_algos::select::{select_for_block, BlockKernel};
use skyline_algos::seq::naive_skyline_ids;
use std::cmp::Ordering;

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    (1usize..=6).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(0u8..7, d), 1..130).prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, row)| {
                    // 6 encodes -0.0, which ties with 0.0 on every kernel
                    let coord = |v: u8| if v == 6 { -0.0 } else { f64::from(v) };
                    Point::new(i as u64, row.iter().map(|&v| coord(v)).collect::<Vec<_>>())
                })
                .collect()
        })
    })
}

/// Merge-shaped inputs: d ∈ {1, 2, 3, 6, 16}, n ∈ 0..200, a 5-value grid
/// with signed zeros; `anti` pins the L1 norm of most rows (the last
/// coordinate balances the rest), which keeps them incomparable so the
/// accepted set crosses the 64-row lane blocks, and makes most presort
/// decisions an L1 tie.
fn arb_merge_block() -> impl Strategy<Value = PointBlock> {
    (0usize..5, 0u8..2).prop_flat_map(|(di, anti)| {
        let d = [1usize, 2, 3, 6, 16][di];
        let anti = anti == 1;
        proptest::collection::vec(proptest::collection::vec(0u8..6, d), 0..200).prop_map(
            move |rows| {
                let mut block = PointBlock::new(d);
                for (i, row) in rows.iter().enumerate() {
                    // 5 encodes -0.0, which ties with 0.0 on every kernel
                    let mut coords: Vec<f64> = row
                        .iter()
                        .map(|&v| if v == 5 { -0.0 } else { f64::from(v) })
                        .collect();
                    if anti && d > 1 {
                        // every third row sits one step off the level set,
                        // behind (and often dominated by) the rest
                        let level = 4.0 * (d - 1) as f64 + f64::from(u8::from(i % 3 == 0));
                        coords[d - 1] = level - coords[..d - 1].iter().sum::<f64>();
                    }
                    block.push(i as u64, &coords).unwrap();
                }
                block
            },
        )
    })
}

/// A presort kernel's contract, row by row: sort by (`key`, coordinates,
/// id), all compared numerically; then compare each candidate with the
/// earlier survivors, stopping before the first whose `stop` key exceeds
/// the candidate's, and accept it when none dominates it, counting one
/// comparison per survivor visited. With `watermark`, the pass ends (and
/// counts the rest as skipped) at the first candidate whose `stop` key
/// exceeds the smallest max-coordinate of any survivor.
///
/// The `stop` bound is the published SFS and SaLSa scan's. The kernels
/// have none: each sorts by the key its bound would test, so the bound
/// never cuts a scan short, and matching this model's comparison counts
/// checks exactly that.
struct Spec {
    key: fn(&PointBlock, usize) -> Vec<f64>,
    stop: Option<fn(&PointBlock, usize) -> f64>,
    watermark: bool,
    kernel: fn(&PointBlock) -> (PointBlock, KernelStats),
}

const SPECS: [(&str, Spec); 3] = [
    (
        "merge",
        Spec {
            key: |b, i| vec![b.l1_norm(i)],
            stop: None,
            watermark: false,
            kernel: |b| presort_merge_stats(b, 1),
        },
    ),
    (
        "sfs",
        Spec {
            key: |b, i| vec![b.entropy_score(i)],
            stop: Some(PointBlock::entropy_score),
            watermark: false,
            kernel: block_sfs_stats,
        },
    ),
    (
        "salsa",
        Spec {
            key: |b, i| vec![b.min_coord(i), b.l1_norm(i)],
            stop: Some(PointBlock::min_coord),
            watermark: true,
            kernel: block_salsa_stats,
        },
    ),
];

/// The ids, coordinate bits, comparisons and skipped rows `spec`'s
/// contract gives on `block`.
fn reference_scan(block: &PointBlock, spec: &Spec) -> (Vec<u64>, Vec<u64>, u64, u64) {
    let num = |a: f64, b: f64| a.partial_cmp(&b).unwrap();
    let mut order: Vec<usize> = (0..block.len()).collect();
    order.sort_by(|&a, &b| {
        let keys = (spec.key)(block, a).into_iter().zip((spec.key)(block, b));
        keys.map(|(x, y)| num(x, y))
            .chain(
                block
                    .row(a)
                    .iter()
                    .zip(block.row(b))
                    .map(|(&x, &y)| num(x, y)),
            )
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
            .then_with(|| block.id(a).cmp(&block.id(b)))
    });
    let mut accepted: Vec<usize> = Vec::new();
    let mut comparisons = 0u64;
    let mut skipped = 0u64;
    let mut watermark = f64::INFINITY;
    for (rank, &i) in order.iter().enumerate() {
        let bound = spec.stop.map(|stop| stop(block, i));
        if spec.watermark && bound.unwrap() > watermark {
            skipped = (order.len() - rank) as u64;
            break;
        }
        let mut dominated = false;
        for &s in &accepted {
            if let (Some(stop), Some(bound)) = (spec.stop, bound) {
                if stop(block, s) > bound {
                    break;
                }
            }
            comparisons += 1;
            if dominates_row(block.row(s), block.row(i)) {
                dominated = true;
                break;
            }
        }
        if !dominated {
            accepted.push(i);
            watermark = watermark.min(block.max_coord(i));
        }
    }
    let ids = accepted.iter().map(|&i| block.id(i)).collect();
    let bits = accepted
        .iter()
        .flat_map(|&i| block.row(i).iter().map(|c| c.to_bits()))
        .collect();
    (ids, bits, comparisons, skipped)
}

fn block_ids(b: &PointBlock) -> Vec<u64> {
    let mut ids = b.ids().to_vec();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `block_bnl` at any window, and every kernel a job can configure
    /// (and the one auto selects) through `BlockKernel::run` at that
    /// window, return the naive oracle's skyline.
    #[test]
    fn block_bnl_matches_naive_oracle(pts in arb_points(), window in 0usize..20) {
        let block = PointBlock::from_points(&pts).unwrap();
        let oracle = naive_skyline_ids(&pts);
        // window 0 means unbounded; small windows force multi-pass
        // overflow, and 63/64/65 straddle a 64-row window
        for w in [window, 63, 64, 65] {
            let cfg = if w == 0 {
                BnlConfig::unbounded()
            } else {
                BnlConfig::with_window(w)
            };
            let sky = block_bnl(&block, &cfg);
            prop_assert_eq!(block_ids(&sky), oracle.clone());
            for kernel in BlockKernel::ALL.into_iter().chain([select_for_block(&block)]) {
                let (sky, _) = kernel.run(&block, &cfg);
                prop_assert_eq!(block_ids(&sky), oracle.clone(), "{}", kernel.name());
            }
        }
    }

    #[test]
    fn presort_merge_matches_naive_oracle(pts in arb_points()) {
        let block = PointBlock::from_points(&pts).unwrap();
        let sky = presort_merge(&block);
        prop_assert_eq!(block_ids(&sky), naive_skyline_ids(&pts));
    }

    /// Every presort kernel against its contract; the merge also on 1 to 3
    /// threads with block boundaries anywhere in the input (a block of
    /// 200 rows holds any input whole).
    #[test]
    fn presort_merge_matches_its_row_wise_reference(
        block in arb_merge_block(),
        threads in 1usize..=3,
        block_rows in 1usize..=200,
    ) {
        let mut oracle = naive_skyline_ids(&block.to_points());
        oracle.sort_unstable();
        let in_blocks = presort_merge_stats_in_blocks(&block, threads, block_rows);
        let runs = SPECS
            .iter()
            .map(|(name, spec)| (*name, spec, (spec.kernel)(&block)))
            .chain([("merge in blocks", &SPECS[0].1, in_blocks)]);
        for (name, spec, (sky, stats)) in runs {
            let (ids, bits, comparisons, skipped) = reference_scan(&block, spec);
            prop_assert_eq!(sky.ids(), &ids[..], "{}", name);
            let sky_bits: Vec<u64> = sky.coords().iter().map(|c| c.to_bits()).collect();
            prop_assert_eq!(sky_bits, bits, "{}", name);
            prop_assert_eq!(stats.comparisons, comparisons, "{}", name);
            prop_assert_eq!(stats.dim_weighted, comparisons * block.dim() as u64, "{}", name);
            prop_assert_eq!(stats.skipped, skipped, "{}", name);
            prop_assert_eq!(block_ids(&sky), oracle.clone(), "{}", name);
        }
    }

    #[test]
    fn block_round_trip_is_lossless(pts in arb_points()) {
        let block = PointBlock::from_points(&pts).unwrap();
        prop_assert_eq!(block.to_points(), pts);
    }
}

/// `n` merge-shaped rows drawn like [`arb_merge_block`]'s anti blocks:
/// a 5-value grid with signed zeros, most rows on one L1 level set.
fn anti_grid_block(n: usize, d: usize, seed: u64) -> PointBlock {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut block = PointBlock::new(d);
    for i in 0..n {
        let mut coords: Vec<f64> = (0..d)
            .map(|_| match rng.gen_range(0..6u32) {
                5 => -0.0,
                v => f64::from(v),
            })
            .collect();
        if d > 1 {
            let level = 4.0 * (d - 1) as f64 + f64::from(u8::from(i % 3 == 0));
            coords[d - 1] = level - coords[..d - 1].iter().sum::<f64>();
        }
        block.push(i as u64, &coords).unwrap();
    }
    block
}

/// Inputs large enough for the lane scan to split the accepted rows into
/// pivot-mask buckets (`log2(n / 64)` masked dimensions, at most `d`, once
/// the accepted set is large): from none (n = 127) to every dimension
/// (n = 900, d = 3; n = 2100, d = 4), against each kernel's row-wise
/// reference; the merge also at 1, 2, 64 and 1024 rows per block on 1 to 3
/// threads.
#[test]
fn presort_kernels_match_their_reference_over_mask_buckets() {
    for (n, d, seed) in [
        (127usize, 3usize, 1u64),
        (128, 2, 2),
        (900, 3, 3),
        (1100, 2, 4),
        (1100, 6, 5),
        (2100, 4, 6),
        (600, 16, 7),
        (300, 1, 8),
    ] {
        let block = anti_grid_block(n, d, seed);
        let mut runs: Vec<(String, &Spec, (PointBlock, KernelStats))> = SPECS
            .iter()
            .map(|(name, spec)| (name.to_string(), spec, (spec.kernel)(&block)))
            .collect();
        for block_rows in [1, 2, 64, 1024] {
            for threads in 1..=3 {
                runs.push((
                    format!("merge B={block_rows} threads={threads}"),
                    &SPECS[0].1,
                    presort_merge_stats_in_blocks(&block, threads, block_rows),
                ));
            }
        }
        for (name, spec, (sky, stats)) in runs {
            let what = format!("n={n} d={d} {name}");
            let (ids, bits, comparisons, skipped) = reference_scan(&block, spec);
            assert_eq!(sky.ids(), &ids[..], "{what}");
            let sky_bits: Vec<u64> = sky.coords().iter().map(|c| c.to_bits()).collect();
            assert_eq!(sky_bits, bits, "{what}");
            assert_eq!(stats.comparisons, comparisons, "{what}");
            assert_eq!(stats.dim_weighted, comparisons * d as u64, "{what}");
            assert_eq!(stats.skipped, skipped, "{what}");
        }
    }
}

#[test]
fn exact_duplicates_all_survive_every_kernel() {
    let pts: Vec<Point> = (0..5).map(|i| Point::new(i, vec![1.0, 2.0])).collect();
    let block = PointBlock::from_points(&pts).unwrap();
    assert_eq!(
        block_ids(&block_bnl(&block, &BnlConfig::default())).len(),
        5
    );
    assert_eq!(block_ids(&presort_merge(&block)).len(), 5);
    assert_eq!(naive_skyline_ids(&pts).len(), 5);
}
