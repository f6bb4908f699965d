//! Model checks of the real `SharedStreamingMerge` absorb path.
//! Compiled only with `RUSTFLAGS="--cfg mrsky_model"` (the CI
//! `model-check` job), where the sync facade is instrumented.
#![cfg(mrsky_model)]

use mrsky_model::{check_opts, CheckOptions};
use skyline_algos::block::PointBlock;
use skyline_algos::incremental::{SharedStreamingMerge, StreamingMerge};
use skyline_algos::point::Point;
use std::collections::BTreeSet;
use std::sync::Mutex as StdMutex;

fn opts() -> CheckOptions {
    CheckOptions {
        preemption_bound: 2,
        random_walks: 8,
        max_iterations: 5_000,
        ..CheckOptions::default()
    }
}

fn block(rows: &[(u64, [f64; 2])]) -> PointBlock {
    let points: Vec<Point> = rows
        .iter()
        .map(|(id, coords)| Point::new(*id, coords.to_vec()))
        .collect();
    PointBlock::from_points(&points).expect("uniform dims")
}

/// Racing absorbers feeding overlapping local skylines (a chaos retry
/// re-delivers id 1): the final skyline must be bit-identical across
/// every explored schedule and each id credited exactly once.
#[test]
fn model_streaming_merge_absorption_is_schedule_invariant() {
    let outcomes = StdMutex::new(BTreeSet::new());
    check_opts(&opts(), || {
        let merge = SharedStreamingMerge::new(StreamingMerge::new(2));
        let a = block(&[(0, [1.0, 4.0]), (1, [2.0, 2.0])]);
        let b = block(&[(1, [2.0, 2.0]), (2, [4.0, 1.0])]);
        let credited = mrsky_model::sync::scope(|s| {
            let h = s.spawn(|| merge.absorb_block(&a));
            let mine = merge.absorb_block(&b);
            let theirs = h.join().unwrap_or(0);
            mine + theirs
        });
        assert_eq!(credited, 3, "id 1 double- or un-credited");
        assert_eq!(merge.absorbed(), 3);
        let mut ids = merge.into_skyline().ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        outcomes.lock().unwrap().insert(ids);
    });
    assert_eq!(
        outcomes.lock().unwrap().len(),
        1,
        "skyline must be bit-identical across schedules"
    );
}
