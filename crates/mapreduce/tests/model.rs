//! Model checks of the real `pool::run_indexed` deque handoff.
//! Compiled only with `RUSTFLAGS="--cfg mrsky_model"` (the CI
//! `model-check` job), where the sync facade is instrumented.
#![cfg(mrsky_model)]

use mini_mapreduce::pool::run_indexed;
use mrsky_model::{check_opts, CheckOptions};

fn opts() -> CheckOptions {
    CheckOptions {
        preemption_bound: 2,
        random_walks: 8,
        max_iterations: 5_000,
        ..CheckOptions::default()
    }
}

/// Every task index must be handed out exactly once and land in its
/// own slot, in order, on every explored schedule.
#[test]
fn model_pool_handoff_no_lost_results_no_double_execution() {
    let report = check_opts(&opts(), || {
        let executed = [
            mrsky_model::sync::AtomicUsize::new(0),
            mrsky_model::sync::AtomicUsize::new(0),
            mrsky_model::sync::AtomicUsize::new(0),
        ];
        let out = run_indexed(3, 2, |i| {
            executed[i].fetch_add(1, mrsky_model::sync::Ordering::Relaxed);
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20], "results lost or misplaced");
        for (i, count) in executed.iter().enumerate() {
            assert_eq!(
                count.load(mrsky_model::sync::Ordering::Relaxed),
                1,
                "task {i} must run exactly once"
            );
        }
    });
    assert!(report.executions > 1, "the pool really branched");
}

/// The work-stealing deques under an uneven seed: 4 tasks on 3 workers
/// leaves worker 0 with two tasks, so some schedules make workers 1/2 go
/// dry and steal from worker 0's back while it pops its own front. No
/// interleaving may lose a task, run one twice, or misplace a slot.
#[test]
fn model_stealing_deque_no_lost_or_duplicated_tasks() {
    let report = check_opts(&opts(), || {
        let executed: Vec<mrsky_model::sync::AtomicUsize> = (0..4)
            .map(|_| mrsky_model::sync::AtomicUsize::new(0))
            .collect();
        let out = run_indexed(4, 3, |i| {
            executed[i].fetch_add(1, mrsky_model::sync::Ordering::Relaxed);
            i + 100
        });
        assert_eq!(out, vec![100, 101, 102, 103], "results lost or misplaced");
        for (i, count) in executed.iter().enumerate() {
            assert_eq!(
                count.load(mrsky_model::sync::Ordering::Relaxed),
                1,
                "task {i} must run exactly once"
            );
        }
    });
    assert!(report.executions > 1, "the stealing pool really branched");
}
