//! Chaos integration: seeded fault injection, bounded retries, and
//! checkpoint/resume across the whole execution stack — with the headline
//! property that none of it changes a single output bit.
//!
//! Injected faults are *real*: map tasks panic and re-run, shuffle
//! segments drop and re-fetch, parallel chunks die and are re-executed by
//! surviving workers, and the kill switch crashes a run mid-reduce so the
//! resilient driver resumes it from checkpoints. Every test compares the
//! survivor against a fault-free oracle, bit for bit.

use mr_skyline_suite::chaos::{FaultKind, FaultPlan, FaultSite, SiteRule};
use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{generate_qws, Dataset, QwsConfig};
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::trace::{EventKind, Tracer};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Once;

/// Chaos faults abort tasks by panicking on purpose, and every one of
/// them is caught and retried. Keep those expected panics out of the test
/// output (the default hook would print a report per injection) while
/// leaving real panics loud.
fn quiet_chaos_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let text = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !(text.starts_with("chaos:") || text.starts_with("mrsky-chaos:")) {
                default_hook(info);
            }
        }));
    });
}

/// The skyline as sorted `(id, coordinate bit patterns)` rows — equality
/// on this is bit-for-bit equality, not approximate.
fn fingerprint(report: &SkylineRunReport) -> Vec<(u64, Vec<u64>)> {
    let mut rows: Vec<(u64, Vec<u64>)> = report
        .global_skyline
        .iter()
        .map(|p| (p.id(), p.coords().iter().map(|c| c.to_bits()).collect()))
        .collect();
    rows.sort();
    rows
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mrsky-chaos-it-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Arbitrary small datasets, quantised so ties and duplicates happen.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..=4).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(0u8..32, d), 1..90).prop_map(
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

/// Arbitrary fault plans over every execution-path site, with rates up to
/// 40% and a retry budget the decision function converges within.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    ((0u64..u64::MAX, 3u32..7), (0u32..400, 0u32..400, 0u32..400)).prop_map(
        |((seed, max_attempts), (map, fetch, dfs))| FaultPlan {
            seed,
            max_attempts,
            rules: vec![
                SiteRule {
                    site: FaultSite::MapTask,
                    kind: FaultKind::Panic,
                    permille: map,
                },
                SiteRule {
                    site: FaultSite::ShuffleFetch,
                    kind: FaultKind::DropRecord,
                    permille: fetch,
                },
                SiteRule {
                    site: FaultSite::DfsRead,
                    kind: FaultKind::TransientError,
                    permille: dfs,
                },
            ],
            ..FaultPlan::off()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: for any dataset, any seeded fault plan
    /// within its retry budget, and any cluster size, the chaos run's
    /// skyline equals the fault-free oracle bit for bit.
    #[test]
    fn any_fault_plan_yields_the_exact_skyline(
        data in arb_dataset(),
        plan in arb_plan(),
        servers in 1usize..6,
    ) {
        quiet_chaos_panics();
        let clean = SkylineJob::new(Algorithm::MrAngle, servers).run(&data);
        let chaotic = SkylineJob::new(Algorithm::MrAngle, servers)
            .with_chaos(plan)
            .run(&data);
        prop_assert_eq!(fingerprint(&chaotic), fingerprint(&clean));
    }

    /// Same property through the checkpointing writer: persisting every
    /// partition's local skyline on the way changes nothing.
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
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(fingerprint(&chaotic), fingerprint(&clean));
    }
}

/// Seeded regression corpus: failure schedules that once exercised real
/// recovery paths, pinned so they re-run forever. Each entry is
/// `(profile, chaos seed, n, dims, servers)`.
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
        let plan = FaultPlan::profile(profile, seed).unwrap();
        let clean = SkylineJob::new(Algorithm::MrAngle, servers).run(&data);
        let tracer = Tracer::in_memory();
        let chaotic = SkylineJob::new(Algorithm::MrAngle, servers)
            .with_chaos(plan)
            .with_tracer(tracer.clone())
            .run(&data);
        assert_eq!(
            fingerprint(&chaotic),
            fingerprint(&clean),
            "{profile} seed {seed} diverged from the oracle"
        );
        let injected = tracer
            .drain()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
            .count();
        if profile == "heavy" {
            assert!(
                injected > 0,
                "{profile} seed {seed} injected nothing — the corpus entry is dead"
            );
        }
    }
}

/// Splits a trace at the `RunResumed` marker and returns, for the resumed
/// segment, the restored partition set and the recomputed partition set.
fn resumed_segment_partitions(
    events: &[mr_skyline_suite::trace::TraceEvent],
) -> (BTreeSet<u64>, BTreeSet<u64>) {
    let resume_at = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::RunResumed { .. }))
        .expect("trace has a run_resumed marker");
    let mut restored = BTreeSet::new();
    let mut recomputed = BTreeSet::new();
    for e in &events[resume_at..] {
        match e.kind {
            EventKind::CheckpointRestored { partition, .. } => {
                restored.insert(partition);
            }
            EventKind::PartitionLocalSkyline { partition, .. } => {
                recomputed.insert(partition);
            }
            _ => {}
        }
    }
    (restored, recomputed)
}

/// The `--chaos-kill-after` scenario end to end: the kill switch crashes
/// the run mid-reduce, the resilient driver resumes from checkpoints, the
/// finished partitions are restored rather than recomputed, and the final
/// skyline is bit-identical to a run that never crashed.
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
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(fingerprint(&survived), fingerprint(&clean));
    let events = tracer.drain();
    let (restored, recomputed) = resumed_segment_partitions(&events);
    assert!(
        restored.len() >= 4,
        "the killed run checkpointed at least 4 partitions; restored {restored:?}"
    );
    assert!(
        restored.is_disjoint(&recomputed),
        "a restored partition was recomputed: {:?}",
        restored.intersection(&recomputed).collect::<Vec<_>>()
    );
    // the resumed trace passes schema validation, crash and all
    assert!(
        mr_skyline_suite::trace::validate_events(&events).is_empty(),
        "resumed trace violates the event schema"
    );
}

/// Resuming a *finished* run restores every partition and recomputes
/// none: the second run does no local-skyline work at all.
#[test]
fn resuming_a_finished_run_recomputes_nothing() {
    let data = generate_qws(&QwsConfig::new(600, 4));
    let dir = unique_dir("resume");
    let first = SkylineJob::new(Algorithm::MrAngle, 6)
        .with_checkpoints(&dir)
        .run(&data);
    let tracer = Tracer::in_memory();
    let second = SkylineJob::new(Algorithm::MrAngle, 6)
        .with_checkpoints(&dir)
        .with_resume(true)
        .with_tracer(tracer.clone())
        .run(&data);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(fingerprint(&second), fingerprint(&first));
    let events = tracer.drain();
    let restored = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CheckpointRestored { .. }))
        .count();
    let recomputed = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PartitionLocalSkyline { .. }))
        .count();
    assert!(restored > 0, "resume restored nothing");
    assert_eq!(recomputed, 0, "resume recomputed {recomputed} partitions");
}
