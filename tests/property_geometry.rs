//! Property-based tests of the geometric substrate: dominance axioms, the
//! hyperspherical transform, partitioner totality and invariances.

use mr_skyline_suite::skyline::block::PointBlock;
use mr_skyline_suite::skyline::dominance::{compare, dominates, DomRelation};
use mr_skyline_suite::skyline::hypersphere::{to_cartesian, to_hyperspherical};
use mr_skyline_suite::skyline::kernel::{block_bnl, BnlConfig};
use mr_skyline_suite::skyline::partition::{
    AnglePartitioner, Bounds, DimPartitioner, GridPartitioner, RandomPartitioner, SpacePartitioner,
};
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::skyline::seq::naive_skyline_ids;
use proptest::prelude::*;

fn arb_coords(d: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..100.0, d)
}

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    (1usize..=6).prop_flat_map(|d| {
        proptest::collection::vec(arb_coords(d), 1..80).prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, c)| Point::new(i as u64, c))
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dominance_is_a_strict_partial_order(pts in arb_points()) {
        for p in &pts {
            prop_assert!(!dominates(p, p), "irreflexive");
        }
        for p in &pts {
            for q in &pts {
                prop_assert!(!(dominates(p, q) && dominates(q, p)), "asymmetric");
                for r in &pts {
                    if dominates(p, q) && dominates(q, r) {
                        prop_assert!(dominates(p, r), "transitive");
                    }
                }
            }
        }
    }

    #[test]
    fn compare_is_antisymmetric(a in arb_coords(4), b in arb_coords(4)) {
        let p = Point::new(0, a);
        let q = Point::new(1, b);
        let expected = match compare(&p, &q) {
            DomRelation::LeftDominates => DomRelation::RightDominates,
            DomRelation::RightDominates => DomRelation::LeftDominates,
            other => other,
        };
        prop_assert_eq!(compare(&q, &p), expected);
    }

    #[test]
    fn skyline_is_sound_and_complete(pts in arb_points()) {
        let block = PointBlock::from_points(&pts).unwrap();
        let sky = block_bnl(&block, &BnlConfig::default()).to_points();
        // soundness: no skyline member dominated by any input point
        for s in &sky {
            prop_assert!(!pts.iter().any(|q| dominates(q, s)));
        }
        // completeness: every excluded point dominated by a skyline member
        let ids: std::collections::HashSet<u64> = sky.iter().map(Point::id).collect();
        for p in &pts {
            if !ids.contains(&p.id()) {
                prop_assert!(sky.iter().any(|s| dominates(s, p)));
            }
        }
        // minimality: equals the reference implementation
        prop_assert_eq!(sky.len(), naive_skyline_ids(&pts).len());
    }

    #[test]
    fn hypersphere_round_trip(coords in (2usize..=8).prop_flat_map(arb_coords)) {
        let p = Point::new(7, coords);
        let h = to_hyperspherical(&p);
        prop_assert!(h.r >= 0.0);
        for &a in h.angles.iter() {
            prop_assert!((0.0..=std::f64::consts::FRAC_PI_2 + 1e-9).contains(&a));
        }
        let back = to_cartesian(&h);
        for i in 0..p.dim() {
            let err = (back.coord(i) - p.coord(i)).abs();
            prop_assert!(err < 1e-7 * (1.0 + p.coord(i)), "dim {}: {}", i, err);
        }
    }

    #[test]
    fn radius_scaling_preserves_angles(coords in (2usize..=6).prop_flat_map(arb_coords), k in 0.1f64..50.0) {
        let p = Point::new(0, coords.clone());
        let scaled = Point::new(1, coords.iter().map(|v| v * k).collect::<Vec<_>>());
        let hp = to_hyperspherical(&p);
        let hs = to_hyperspherical(&scaled);
        if hp.r > 1e-9 {
            for (a, b) in hp.angles.iter().zip(hs.angles.iter()) {
                prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn partitioners_are_total_and_in_range(pts in arb_points(), np in 1usize..20) {
        let bounds = Bounds::from_points(&pts).unwrap();
        let d = bounds.dim();
        let parts: Vec<Box<dyn SpacePartitioner>> = vec![
            Box::new(DimPartitioner::fit(&bounds, np).unwrap()),
            Box::new(DimPartitioner::fit_quantile(&pts, np).unwrap()),
            Box::new(GridPartitioner::fit(&bounds, np).unwrap()),
            Box::new(GridPartitioner::fit_on_dims(&bounds, np, 2.min(d)).unwrap()),
            Box::new(GridPartitioner::fit_quantile(&pts, np, 2.min(d)).unwrap()),
            Box::new(AnglePartitioner::fit(&bounds, np).unwrap()),
            Box::new(AnglePartitioner::fit_quantile(&pts, np).unwrap()),
            Box::new(RandomPartitioner::new(d, np).unwrap()),
        ];
        for part in &parts {
            for p in &pts {
                let idx = part.partition_of(p);
                prop_assert!(idx < part.num_partitions(), "{}", part.name());
            }
        }
    }

    #[test]
    fn partition_assignment_is_stable(pts in arb_points(), np in 1usize..10) {
        // the same point always lands in the same partition — required for
        // incremental maintenance
        let part = AnglePartitioner::fit_quantile(&pts, np).unwrap();
        for p in &pts {
            prop_assert_eq!(part.partition_of(p), part.partition_of(p));
        }
    }

    #[test]
    fn bnl_window_size_is_semantically_invisible(pts in arb_points(), w in 1usize..50) {
        let block = PointBlock::from_points(&pts).unwrap();
        let oracle = naive_skyline_ids(&pts);
        for cfg in [BnlConfig::default(), BnlConfig::with_window(w)] {
            let mut ids = block_bnl(&block, &cfg).ids().to_vec();
            ids.sort_unstable();
            prop_assert_eq!(ids, oracle.clone());
        }
    }
}
