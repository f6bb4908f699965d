//! Property-based tests: the MapReduce pipelines compute the true skyline
//! for *arbitrary* inputs, regardless of algorithm, window, kernel, cluster
//! size, or injected chaos faults.

use mr_skyline_suite::chaos::FaultPlan;
use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::mr::SkylineJob;
use mr_skyline_suite::qws::Dataset;
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::skyline::select::BlockKernel;
use mr_skyline_suite::skyline::seq::naive_skyline_ids;
use proptest::prelude::*;

/// Arbitrary small datasets: 1–120 points, 1–5 dimensions, coords in
/// [0, 16) quantised to .5 steps so duplicates and ties happen often.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..=5).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(0u8..32, d), 1..120).prop_map(
            move |rows| {
                let points: Vec<Point> = rows
                    .iter()
                    .enumerate()
                    .map(|(i, row)| {
                        Point::new(
                            i as u64,
                            row.iter().map(|&v| f64::from(v) * 0.5).collect::<Vec<_>>(),
                        )
                    })
                    .collect();
                Dataset::new("prop", points)
            },
        )
    })
}

fn sky_ids(report: &SkylineRunReport) -> Vec<u64> {
    let mut ids: Vec<u64> = report.global_skyline.iter().map(Point::id).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mr_angle_equals_oracle(data in arb_dataset(), servers in 1usize..6) {
        let report = SkylineJob::new(Algorithm::MrAngle, servers).run(&data);
        prop_assert_eq!(sky_ids(&report), naive_skyline_ids(data.points()));
    }

    #[test]
    fn mr_dim_and_grid_equal_oracle(data in arb_dataset()) {
        let oracle = naive_skyline_ids(data.points());
        for alg in [Algorithm::MrDim, Algorithm::MrGrid] {
            let report = SkylineJob::new(alg, 3).run(&data);
            prop_assert_eq!(sky_ids(&report), oracle.clone(), "{}", alg);
        }
    }

    #[test]
    fn kernels_and_windows_agree(data in arb_dataset(), window in 1usize..40) {
        let oracle = naive_skyline_ids(data.points());
        for kernel in [Some(BlockKernel::Bnl), Some(BlockKernel::Sfs), Some(BlockKernel::Salsa), None] {
            let mut job = SkylineJob::new(Algorithm::MrAngle, 2);
            job.config.kernel = kernel;
            job.config.bnl_window = Some(window);
            let report = job.run(&data);
            prop_assert_eq!(sky_ids(&report), oracle.clone(), "{:?} w={}", kernel, window);
        }
    }

    #[test]
    fn failure_injection_never_changes_the_answer(
        data in arb_dataset(),
        profile in 0u8..2,
        seed in 0u64..1000,
    ) {
        let plan = if profile == 0 { FaultPlan::light(seed) } else { FaultPlan::heavy(seed) };
        let flaky = SkylineJob::new(Algorithm::MrGrid, 3).with_chaos(plan).run(&data);
        prop_assert_eq!(sky_ids(&flaky), naive_skyline_ids(data.points()));
    }

    #[test]
    fn equal_width_angle_also_correct(data in arb_dataset()) {
        // the paper's Figure 3(c) split strategy (no quantile balancing)
        let mut job = SkylineJob::new(Algorithm::MrAngle, 3);
        job.config.angle_quantile = false;
        let report = job.run(&data);
        prop_assert_eq!(sky_ids(&report), naive_skyline_ids(data.points()));
    }

    #[test]
    fn quantile_baselines_also_correct(data in arb_dataset()) {
        let oracle = naive_skyline_ids(data.points());
        for alg in [Algorithm::MrDim, Algorithm::MrGrid] {
            let mut job = SkylineJob::new(alg, 3);
            job.config.baseline_quantile = true;
            let report = job.run(&data);
            prop_assert_eq!(sky_ids(&report), oracle.clone(), "{} quantile", alg);
        }
    }

    #[test]
    fn grid_pruning_is_lossless(data in arb_dataset()) {
        let mut with = SkylineJob::new(Algorithm::MrGrid, 4);
        with.config.grid_dims = 0; // grid all dims so pruning can fire
        let mut without = with.clone();
        without.config.grid_pruning = false;
        let a = with.run(&data);
        let b = without.run(&data);
        prop_assert_eq!(sky_ids(&a), sky_ids(&b));
        prop_assert!(a.metrics.reduce.work_units <= b.metrics.reduce.work_units);
    }

    #[test]
    fn more_servers_never_changes_results(data in arb_dataset()) {
        let small = SkylineJob::new(Algorithm::MrAngle, 1).run(&data);
        let large = SkylineJob::new(Algorithm::MrAngle, 16).run(&data);
        prop_assert_eq!(sky_ids(&small), sky_ids(&large));
    }
}
