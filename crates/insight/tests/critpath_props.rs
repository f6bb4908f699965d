//! Property tests over arbitrary scheduled DAGs: the extracted critical
//! path must be at least as long as any single task and must never exceed
//! (in fact must equal) the job's simulated wall time.

use mrsky_insight::critpath::critical_path;
use mrsky_insight::testutil::{job_events, SimJob};
use mrsky_trace::RunModel;
use proptest::prelude::*;

fn durations() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..50.0, 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn critical_path_bounds_hold_on_arbitrary_dags(
        map in durations(),
        reduce in durations(),
        slots in 1usize..7,
        overhead in 0.0f64..5.0,
    ) {
        let mut job = SimJob::uniform("p", slots, &map, &reduce);
        job.overhead = overhead;
        let events = job_events(&job, 0);
        prop_assert!(mrsky_trace::validate_events(&events).is_empty());
        let run = RunModel::from_events(&events);
        let cp = critical_path(&run);

        // Lower bound: no single task can be shorter than the whole path.
        let longest_task = map
            .iter()
            .chain(reduce.iter())
            .copied()
            .fold(0.0f64, f64::max);
        prop_assert!(
            cp.total >= longest_task - 1e-9,
            "path {} shorter than longest task {longest_task}", cp.total
        );

        // Upper bound: the path cannot exceed the simulated wall time; with
        // gap-tiling it equals it exactly.
        let wall = run.total_sim();
        prop_assert!(cp.total <= wall + 1e-6, "path {} > wall {wall}", cp.total);
        prop_assert!(
            (cp.total - wall).abs() <= 1e-6 * (1.0 + wall),
            "blame {} != wall {wall}", cp.total
        );

        // Blame decomposition is conservative: the per-phase map sums back
        // to the total.
        let blamed: f64 = cp.phase_blame.values().sum();
        prop_assert!((blamed - cp.total).abs() <= 1e-6 * (1.0 + cp.total));

        // Segments are chronological and non-overlapping within the run.
        for w in cp.segments.windows(2) {
            prop_assert!(w[1].start >= w[0].start - 1e-9);
        }
    }

    #[test]
    fn chained_jobs_keep_the_bounds(
        a_map in durations(),
        b_reduce in durations(),
        slots in 1usize..5,
    ) {
        let a = SimJob::uniform("a", slots, &a_map, &[1.0]);
        let b = SimJob::uniform("b", slots, &[1.0], &b_reduce);
        let mut events = job_events(&a, 0);
        let n = events.len() as u64;
        events.extend(job_events(&b, n));
        let run = RunModel::from_events(&events);
        let cp = critical_path(&run);
        let wall = run.total_sim();
        prop_assert!((cp.total - wall).abs() <= 1e-6 * (1.0 + wall));
    }
}
