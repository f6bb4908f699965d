//! Model checks of the runtime's three sync protocols, expressed as
//! faithful in-crate replicas (the real components run these same
//! shapes through the facade; their own `tests/model.rs` suites — built
//! with `--cfg mrsky_model` — check the actual code).
//!
//! - registry: sharded counter merge is linearizable (no lost `incr`);
//! - pool: cursor/slot handoff neither loses nor double-executes tasks;
//! - kill switch: the threshold fires exactly once across racing writers.

use mrsky_model::checked::{scope, AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};
use mrsky_model::{check_opts, CheckOptions};

fn opts() -> CheckOptions {
    CheckOptions {
        preemption_bound: 3,
        random_walks: 16,
        ..CheckOptions::default()
    }
}

/// `trace::registry` shape: per-thread shard selection, mutexed shard
/// counters, snapshot folds shards with saturating adds. Writers on
/// different shards plus a fold must never lose an increment.
#[test]
fn registry_shard_merge_is_linearizable() {
    let report = check_opts(&opts(), || {
        let enabled = AtomicBool::new(true);
        let shards = [Mutex::new(0u64), Mutex::new(0u64)];
        let incr = |shard: usize, delta: u64| {
            if !enabled.load(Ordering::Relaxed) {
                return;
            }
            let mut guard = shards[shard].lock();
            *guard = guard.saturating_add(delta);
        };
        scope(|s| {
            let writer = s.spawn(|| {
                incr(1, 2);
                incr(1, 3);
            });
            incr(0, 1);
            let _ = writer.join();
        });
        let snapshot: u64 = shards.iter().map(|m| *m.lock()).sum();
        assert_eq!(snapshot, 6, "shard merge lost an increment");
    });
    assert!(report.executions > 1);
}

/// `mapreduce::pool::run` shape: a shared cursor hands out task
/// indices, each worker writes its result into a dedicated slot. Every
/// task must run exactly once and every slot must be filled.
#[test]
fn pool_handoff_loses_nothing_and_runs_once() {
    const TASKS: usize = 3;
    let report = check_opts(&opts(), || {
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<usize>>> = (0..TASKS).map(|_| Mutex::new(None)).collect();
        let executions: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
        let worker = || loop {
            let task = cursor.fetch_add(1, Ordering::Relaxed);
            if task >= TASKS {
                break;
            }
            executions[task].fetch_add(1, Ordering::Relaxed);
            *slots[task].lock() = Some(task * 10);
        };
        scope(|s| {
            let h = s.spawn(worker);
            worker();
            let _ = h.join();
        });
        for (task, slot) in slots.into_iter().enumerate() {
            assert_eq!(slot.into_inner(), Some(task * 10), "slot {task} lost");
        }
        for (task, count) in executions.into_iter().enumerate() {
            assert_eq!(
                count.into_inner(),
                1,
                "task {task} ran a wrong number of times"
            );
        }
    });
    assert!(report.executions > 1);
}

/// `chaos::KillSwitch` shape: racing writers pass the threshold, but
/// `swap` on the fired flag admits exactly one kill.
#[test]
fn kill_switch_fires_exactly_once() {
    let report = check_opts(&opts(), || {
        let after = 2u64;
        let written = AtomicU64::new(0);
        let fired = AtomicBool::new(false);
        let kills = AtomicUsize::new(0);
        let record_write = || {
            let total = written.fetch_add(1, Ordering::SeqCst) + 1;
            if total >= after && !fired.swap(true, Ordering::SeqCst) {
                kills.fetch_add(1, Ordering::SeqCst);
            }
        };
        scope(|s| {
            let h = s.spawn(|| {
                record_write();
                record_write();
            });
            record_write();
            let _ = h.join();
        });
        assert_eq!(written.into_inner(), 3);
        assert_eq!(kills.into_inner(), 1, "kill switch must fire exactly once");
    });
    assert!(report.executions > 1);
}
