//! Property-based equivalence of the columnar kernels against the naive
//! oracle: `block_bnl` (any window size) and `presort_merge` must return
//! exactly the skyline id-set of `naive_skyline_ids` over `&[Point]` for
//! arbitrary datasets — including duplicated coordinates, fully equal
//! rows and `-0.0`/`0.0` pairs, which small integer grids force
//! constantly. CI runs this file with `--features strict-invariants` so
//! every kernel call additionally self-checks minimality and completeness.

use proptest::prelude::*;
use skyline_algos::block::PointBlock;
use skyline_algos::kernel::{block_bnl, presort_merge, BnlConfig};
use skyline_algos::point::Point;
use skyline_algos::seq::naive_skyline_ids;

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
