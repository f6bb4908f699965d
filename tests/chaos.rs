//! Chaos and kill/resume: seeded fault injection, bounded retries and
//! checkpoint/resume across the execution stack, none of which may change
//! a single output bit.
//!
//! `tests/differential.rs` draws the `light` and `heavy` fault profiles
//! and kill points together with every other knob. This suite keeps what
//! that draw does not reach: fault plans with arbitrary per-site rates
//! and retry budgets, a pinned corpus of schedules that must really
//! inject, and the trace-level proofs that a resumed run restores, and
//! does not recompute, a finished partition.

use mr_skyline_suite::chaos::{FaultKind, FaultPlan, FaultSite, SiteRule};
use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{generate_qws, Dataset, QwsConfig};
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::skyline::verify::verify_skyline;
use mr_skyline_suite::trace::{EventKind, TraceEvent, Tracer};
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;
use common::{fingerprint, quiet_chaos_panics, unique_dir};

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::MrAngle,
    Algorithm::MrDim,
    Algorithm::MrGrid,
    Algorithm::MrRandom,
    Algorithm::Sequential,
];

/// Small datasets, quantised so ties and duplicates happen.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..=4).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(0u8..32, d), 1..90).prop_map(
            move |rows| {
                let points = rows.iter().enumerate().map(|(i, row)| {
                    Point::new(
                        i as u64,
                        row.iter().map(|&v| f64::from(v) * 0.5).collect::<Vec<_>>(),
                    )
                });
                Dataset::new("prop", points.collect()).unwrap()
            },
        )
    })
}

/// Fault plans over every execution-path site with their own rates (up
/// to 40%) and a retry budget the decision function converges within;
/// the named profiles fix both.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    ((0u64..u64::MAX, 3u32..7), (0u32..400, 0u32..400, 0u32..400)).prop_map(
        |((seed, max_attempts), (map, fetch, dfs))| {
            let rule = |site, kind, permille| SiteRule {
                site,
                kind,
                permille,
            };
            FaultPlan {
                seed,
                max_attempts,
                rules: vec![
                    rule(FaultSite::MapTask, FaultKind::Panic, map),
                    rule(FaultSite::ShuffleFetch, FaultKind::DropRecord, fetch),
                    rule(FaultSite::DfsRead, FaultKind::TransientError, dfs),
                ],
                ..FaultPlan::off()
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any dataset, algorithm, cluster size and fault plan within its
    /// retry budget, the chaos run's skyline passes the verifier and
    /// equals the fault-free run bit for bit.
    #[test]
    fn any_fault_plan_yields_the_exact_skyline(
        data in arb_dataset(),
        plan in arb_plan(),
        algorithm in 0usize..5,
        servers in 1usize..6,
    ) {
        quiet_chaos_panics();
        let algorithm = ALGORITHMS[algorithm];
        let clean = SkylineJob::new(algorithm, servers).run(&data);
        let chaotic = SkylineJob::new(algorithm, servers).with_chaos(plan).run(&data);
        prop_assert!(verify_skyline(data.block(), &chaotic.global_skyline).is_ok());
        prop_assert_eq!(fingerprint(&chaotic), fingerprint(&clean));
    }

    /// Persisting every partition's local skyline on the way through a
    /// chaos run changes nothing.
    #[test]
    fn checkpointed_chaos_run_is_still_exact(
        data in arb_dataset(),
        seed in 0u64..u64::MAX,
    ) {
        quiet_chaos_panics();
        let dir = unique_dir("prop");
        let clean = SkylineJob::new(Algorithm::MrAngle, 4).run(&data);
        let chaotic = SkylineJob::new(Algorithm::MrAngle, 4)
            .with_chaos(FaultPlan::light(seed))
            .with_checkpoints(&dir)
            .run(&data);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(fingerprint(&chaotic), fingerprint(&clean));
    }
}

/// Failure schedules that once exercised real recovery paths, pinned;
/// the heavy ones must really inject. `(profile, seed, n, dims, servers)`.
const CORPUS: &[(&str, u64, usize, usize, usize)] = &[
    ("light", 1, 300, 4, 4),
    ("light", 7, 500, 5, 8),
    ("light", 42, 200, 2, 2),
    ("heavy", 2, 250, 3, 3),
    ("heavy", 11, 400, 6, 6),
    ("heavy", 0xDEAD_BEEF, 350, 4, 5),
];

#[test]
fn seeded_regression_corpus_is_exact_and_really_injects() {
    quiet_chaos_panics();
    for &(profile, seed, n, dims, servers) in CORPUS {
        let data = generate_qws(&QwsConfig::new(n, dims));
        let clean = SkylineJob::new(Algorithm::MrAngle, servers).run(&data);
        let tracer = Tracer::in_memory();
        let chaotic = SkylineJob::new(Algorithm::MrAngle, servers)
            .with_chaos(FaultPlan::profile(profile, seed).unwrap())
            .with_tracer(tracer.clone())
            .run(&data);
        let what = format!("{profile} seed {seed}");
        assert_eq!(fingerprint(&chaotic), fingerprint(&clean), "{what}");
        let events = tracer.drain();
        let injected = events
            .iter()
            .any(|e| matches!(e.kind, EventKind::FaultInjected { .. }));
        assert!(profile != "heavy" || injected, "{what} injected nothing");
    }
}

/// The restored and the recomputed partitions after the trace's
/// `RunResumed` marker (or in the whole trace).
fn resumed_partitions(events: &[TraceEvent]) -> (BTreeSet<u64>, BTreeSet<u64>) {
    let from = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::RunResumed { .. }))
        .unwrap_or(0);
    let (mut restored, mut recomputed) = (BTreeSet::new(), BTreeSet::new());
    for e in &events[from..] {
        match e.kind {
            EventKind::CheckpointRestored { partition, .. } => restored.insert(partition),
            EventKind::PartitionLocalSkyline { partition, .. } => recomputed.insert(partition),
            _ => false,
        };
    }
    (restored, recomputed)
}

/// The kill switch crashes the run mid-reduce, the resilient driver
/// resumes from checkpoints, the finished partitions are restored, not
/// recomputed, and the skyline equals a run that never crashed.
#[test]
fn killed_run_resumes_without_recomputing_finished_partitions() {
    quiet_chaos_panics();
    let data = generate_qws(&QwsConfig::new(800, 4));
    let clean = SkylineJob::new(Algorithm::MrAngle, 8).run(&data);
    let dir = unique_dir("kill");
    let mut plan = FaultPlan::light(3);
    plan.kill_after_checkpoints = Some(4);
    let tracer = Tracer::in_memory();
    let survived = SkylineJob::new(Algorithm::MrAngle, 8)
        .with_chaos(plan)
        .with_checkpoints(&dir)
        .with_tracer(tracer.clone())
        .run_resilient(&data)
        .expect("plan audit is clean");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fingerprint(&survived), fingerprint(&clean));
    let events = tracer.drain();
    let (restored, recomputed) = resumed_partitions(&events);
    // the kill came after 4 checkpoints; none of them may be recomputed
    let resumed = restored.len() >= 4 && restored.is_disjoint(&recomputed);
    assert!(resumed, "restored {restored:?}, recomputed {recomputed:?}");
    assert!(mr_skyline_suite::trace::validate_events(&events).is_empty());
}

/// Resuming a *finished* run restores every partition and recomputes
/// none.
#[test]
fn resuming_a_finished_run_recomputes_nothing() {
    let data = generate_qws(&QwsConfig::new(600, 4));
    let dir = unique_dir("resume");
    let job = SkylineJob::new(Algorithm::MrAngle, 6).with_checkpoints(&dir);
    let first = job.run(&data);
    let tracer = Tracer::in_memory();
    let second = job.with_resume(true).with_tracer(tracer.clone()).run(&data);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fingerprint(&second), fingerprint(&first));
    let (restored, recomputed) = resumed_partitions(&tracer.drain());
    assert!(
        !restored.is_empty() && recomputed.is_empty(),
        "{restored:?} / {recomputed:?}"
    );
}
