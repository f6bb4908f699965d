//! Property-based equivalence of the columnar kernels against the naive
//! oracle: `block_bnl` (any window size) and `presort_merge` must return
//! exactly the skyline id-set of `naive_skyline_ids` over `&[Point]` for
//! arbitrary datasets — including duplicated coordinates, fully equal
//! rows and `-0.0`/`0.0` pairs, which small integer grids force
//! constantly. CI runs this file with `--features strict-invariants` so
//! every kernel call additionally self-checks minimality and completeness.
//!
//! `presort_merge_stats` is also checked against a row-by-row reference
//! model of its documented contract (presort order, emission order and
//! exact comparison counts), so whichever scan the host dispatches to —
//! the AVX-512 lane scan or the portable row-wise one — must reproduce it.

use proptest::prelude::*;
use skyline_algos::block::PointBlock;
use skyline_algos::kernel::{
    block_bnl, dominates_row, presort_merge, presort_merge_stats, BnlConfig,
};
use skyline_algos::point::Point;
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

/// The merge's contract, row by row: sort by (L1, coordinates, id), all
/// compared numerically, then accept each candidate that no earlier
/// survivor dominates, counting one comparison per survivor visited.
fn reference_merge(block: &PointBlock) -> (Vec<u64>, Vec<u64>, u64) {
    let num = |a: f64, b: f64| a.partial_cmp(&b).unwrap();
    let mut order: Vec<usize> = (0..block.len()).collect();
    order.sort_by(|&a, &b| {
        num(block.l1_norm(a), block.l1_norm(b))
            .then_with(|| {
                let pairs = block.row(a).iter().zip(block.row(b));
                pairs
                    .map(|(&x, &y)| num(x, y))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            })
            .then_with(|| block.id(a).cmp(&block.id(b)))
    });
    let mut accepted: Vec<usize> = Vec::new();
    let mut comparisons = 0u64;
    for i in order {
        let mut dominated = false;
        for &s in &accepted {
            comparisons += 1;
            if dominates_row(block.row(s), block.row(i)) {
                dominated = true;
                break;
            }
        }
        if !dominated {
            accepted.push(i);
        }
    }
    let ids = accepted.iter().map(|&i| block.id(i)).collect();
    let bits = accepted
        .iter()
        .flat_map(|&i| block.row(i).iter().map(|c| c.to_bits()))
        .collect();
    (ids, bits, comparisons)
}

fn block_ids(b: &PointBlock) -> Vec<u64> {
    let mut ids = b.ids().to_vec();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
        }
    }

    #[test]
    fn presort_merge_matches_naive_oracle(pts in arb_points()) {
        let block = PointBlock::from_points(&pts).unwrap();
        let sky = presort_merge(&block);
        prop_assert_eq!(block_ids(&sky), naive_skyline_ids(&pts));
    }

    #[test]
    fn presort_merge_matches_its_row_wise_reference(block in arb_merge_block()) {
        let (ids, bits, comparisons) = reference_merge(&block);
        let (sky, stats) = presort_merge_stats(&block);
        prop_assert_eq!(sky.ids(), &ids[..]);
        let sky_bits: Vec<u64> = sky.coords().iter().map(|c| c.to_bits()).collect();
        prop_assert_eq!(sky_bits, bits);
        prop_assert_eq!(stats.comparisons, comparisons);
        prop_assert_eq!(stats.dim_weighted, comparisons * block.dim() as u64);
        let mut oracle = naive_skyline_ids(&block.to_points());
        oracle.sort_unstable();
        prop_assert_eq!(block_ids(&sky), oracle);
    }

    #[test]
    fn block_round_trip_is_lossless(pts in arb_points()) {
        let block = PointBlock::from_points(&pts).unwrap();
        prop_assert_eq!(block.to_points(), pts);
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
