//! A work-stealing task pool on scoped threads.
//!
//! The runtime's real execution needs exactly one primitive: run `n`
//! independent tasks on up to `threads` OS threads and collect their results
//! in task order. Each worker owns a deque seeded with a contiguous range of
//! task indices; the owner pops from the front, and a worker whose deque
//! runs dry steals from the *back* of a victim's deque (Chase-Lev style:
//! owner and thieves work opposite ends, so they contend only on the last
//! task of a range). Stealing moves one task at a time and executes it
//! immediately, so a task is only ever "in flight" while it is actually
//! running — a worker that finds every deque empty can exit knowing all
//! remaining work is already being executed by someone else. No channels, no
//! dynamic spawning, no unsafe.
//!
//! All synchronization goes through the `mrsky-model` facade, so the
//! deque handoff is model-checked under `--cfg mrsky_model`
//! (`tests/model.rs`): no task is lost, none runs twice, and a worker
//! panic cannot strand the scope.
//!
//! This is the repository's only task executor: the MapReduce runtime's
//! map and reduce waves run on it. A straggler range is redistributed by
//! stealing instead of gating completion.

use mrsky_model::sync::{scope, AtomicUsize, Mutex, Ordering};
use std::collections::VecDeque;

/// Runs `count` tasks with `worker(i)` on up to `threads` threads and
/// returns the results ordered by task index, using the work-stealing
/// executor.
///
/// `worker` must not panic: a panicking task aborts the whole run (the
/// scoped-thread join propagates it), which is the desired behaviour —
/// *injected* failures are modelled above this layer, real bugs should
/// crash loudly.
pub fn run_indexed<R, F>(count: usize, threads: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Send + Sync,
{
    run_indexed_observed(count, threads, None, worker)
}

/// Observer invoked at each successful steal as `(thief, victim, task)`,
/// where `thief`/`victim` are worker indices in `0..threads` and `task` is
/// the stolen task index. Called from worker threads, concurrently.
pub type StealObserver<'a> = &'a (dyn Fn(usize, usize, usize) + Sync);

/// [`run_indexed`] with an optional steal observer, so the runtime can
/// surface rebalancing decisions as trace events without the executor
/// knowing anything about tracing. The observer fires on the thief's thread
/// immediately after it pops a task from a victim's deque, before the task
/// runs.
pub fn run_indexed_observed<R, F>(
    count: usize,
    threads: usize,
    on_steal: Option<StealObserver<'_>>,
    worker: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Send + Sync,
{
    assert!(threads >= 1, "need at least one worker thread");
    if count == 0 {
        return Vec::new();
    }
    let threads = threads.min(count);
    if threads == 1 {
        return (0..count).map(worker).collect();
    }

    // Seed each worker's deque with a contiguous range, so with zero steals
    // each worker touches one contiguous run of task indices.
    let deques: Vec<Mutex<VecDeque<usize>>> = chunk_ranges(count, threads)
        .into_iter()
        .map(|(lo, hi)| Mutex::new((lo..hi).collect()))
        .collect();
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();

    // A panicking worker unwinds through the scope at join, which is the
    // desired crash-loudly behaviour documented above.
    scope(|s| {
        for w in 0..threads {
            let deques = &deques;
            let slots = &slots;
            let worker = &worker;
            s.spawn(move || loop {
                // Own deque first: pop the front (task order, cache-warm).
                let mut task = deques[w].lock().pop_front();
                if task.is_none() {
                    // Dry: steal one task from the back of the first
                    // non-empty victim, scanning round-robin from w+1.
                    for k in 1..threads {
                        let v = (w + k) % threads;
                        task = deques[v].lock().pop_back();
                        if let Some(i) = task {
                            if let Some(observe) = on_steal {
                                observe(w, v, i);
                            }
                            break;
                        }
                    }
                }
                match task {
                    Some(i) => {
                        let result = worker(i);
                        *slots[i].lock() = Some(result);
                    }
                    // Every deque is empty: all remaining tasks are already
                    // executing on other workers. Nothing left to help with.
                    None => break,
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("every task index visited exactly once")
        })
        .collect()
}

/// Typed rejection from a bounded submission: accepting the batch would
/// have pushed the pool's outstanding-task count past its capacity. The
/// caller decides whether to shed, retry later, or run degraded —
/// nothing queues unboundedly inside the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolOverloaded {
    /// Outstanding tasks observed at the rejection.
    pub pending: usize,
    /// The limit's capacity.
    pub capacity: usize,
    /// Size of the rejected batch.
    pub rejected: usize,
}

impl std::fmt::Display for PoolOverloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool overloaded: batch of {} rejected at {}/{} outstanding tasks",
            self.rejected, self.pending, self.capacity
        )
    }
}

impl std::error::Error for PoolOverloaded {}

/// A shared cap on outstanding submitted tasks. [`run_indexed_bounded`]
/// reserves the batch size up front and rejects with [`PoolOverloaded`]
/// when the reservation would exceed capacity; the reservation is
/// released when the batch finishes (or is rejected), so the limit
/// tracks live work, not history.
pub struct PoolLimit {
    capacity: usize,
    pending: AtomicUsize,
}

impl PoolLimit {
    /// Creates a limit allowing `capacity` outstanding tasks.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            pending: AtomicUsize::new(0),
        }
    }

    /// Outstanding reserved tasks.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// The limit's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn try_reserve(&self, n: usize) -> Result<(), PoolOverloaded> {
        let mut cur = self.pending.load(Ordering::Acquire);
        loop {
            if cur + n > self.capacity {
                return Err(PoolOverloaded {
                    pending: cur,
                    capacity: self.capacity,
                    rejected: n,
                });
            }
            match self
                .pending
                .compare_exchange(cur, cur + n, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    fn release(&self, n: usize) {
        self.pending.fetch_sub(n, Ordering::Release);
    }
}

/// [`run_indexed`] behind a bounded submission gate: the whole batch is
/// admitted against `limit` or rejected with a typed error before any
/// task runs.
///
/// # Errors
///
/// [`PoolOverloaded`] when `count` outstanding-task reservations do not
/// fit under the limit's capacity.
pub fn run_indexed_bounded<R, F>(
    count: usize,
    threads: usize,
    limit: &PoolLimit,
    worker: F,
) -> Result<Vec<R>, PoolOverloaded>
where
    R: Send,
    F: Fn(usize) -> R + Send + Sync,
{
    limit.try_reserve(count)?;
    // Release even if a worker panics and unwinds through the scope.
    struct Release<'a>(&'a PoolLimit, usize);
    impl Drop for Release<'_> {
        fn drop(&mut self) {
            self.0.release(self.1);
        }
    }
    let _release = Release(limit, count);
    Ok(run_indexed(count, threads, worker))
}

/// Cuts `count` task indices into `threads` contiguous near-equal ranges.
fn chunk_ranges(count: usize, threads: usize) -> Vec<(usize, usize)> {
    let base = count / threads;
    let extra = count % threads;
    let mut out = Vec::with_capacity(threads);
    let mut lo = 0;
    for t in 0..threads {
        let size = base + usize::from(t < extra);
        out.push((lo, lo + size));
        lo += size;
    }
    out
}

/// Default worker-thread count: the `MRSKY_THREADS` environment variable
/// when set to a positive integer (so benches and CI can pin parallelism),
/// otherwise the host's available parallelism.
pub fn default_threads() -> usize {
    let fallback = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(4);
    threads_from(std::env::var("MRSKY_THREADS").ok().as_deref(), fallback)
}

/// Resolves the thread count from an optional `MRSKY_THREADS` value:
/// a parseable positive integer wins (clamped to ≥ 1), anything else —
/// unset, empty, garbage, or zero — falls back to `fallback`.
fn threads_from(var: Option<&str>, fallback: usize) -> usize {
    match var.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => fallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_are_in_task_order() {
        let out = run_indexed(100, 8, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks() {
        let out: Vec<u32> = run_indexed(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_path() {
        let out = run_indexed(10, 1, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let _ = run_indexed(1000, 16, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = run_indexed(3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = run_indexed(1, 0, |i| i);
    }

    #[test]
    fn stealing_rebalances_a_straggler_chunk() {
        // All the slow tasks sit in worker 0's seeded range; with stealing,
        // other workers must pick some of them up. Scheduling is not
        // deterministic, so retry a bounded number of times until the slow
        // range demonstrably spreads over more than one worker thread.
        let ran_by_thief = AtomicU64::new(0);
        for _ in 0..20 {
            let ids = run_indexed(40, 4, |i| {
                if i < 10 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                std::thread::current().id()
            });
            let slow_workers: std::collections::HashSet<_> = ids[..10].iter().collect();
            if slow_workers.len() > 1 {
                ran_by_thief.store(1, Ordering::Relaxed);
                break;
            }
        }
        assert_eq!(
            ran_by_thief.load(Ordering::Relaxed),
            1,
            "stealing never redistributed the straggler chunk"
        );
    }

    #[test]
    fn steal_observer_reports_thief_victim_and_task() {
        // Same straggler setup as above: worker 0's seeded range is slow, so
        // someone must steal. Scheduling is nondeterministic — retry a
        // bounded number of times until at least one steal is observed, then
        // check every report is well-formed.
        let mut saw_steal = false;
        for _ in 0..20 {
            let steals = Mutex::new(Vec::new());
            let observer = |thief: usize, victim: usize, task: usize| {
                steals.lock().push((thief, victim, task));
            };
            let out = run_indexed_observed(40, 4, Some(&observer), |i| {
                if i < 10 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i
            });
            assert_eq!(out, (0..40).collect::<Vec<_>>());
            let steals = steals.into_inner();
            if steals.is_empty() {
                continue;
            }
            for &(thief, victim, task) in &steals {
                assert!(thief < 4, "thief {thief} out of range");
                assert!(victim < 4, "victim {victim} out of range");
                assert_ne!(thief, victim, "a worker cannot steal from itself");
                assert!(task < 40, "task {task} out of range");
            }
            saw_steal = true;
            break;
        }
        assert!(saw_steal, "observer never saw a steal in 20 attempts");
    }

    #[test]
    fn bounded_submission_rejects_over_capacity_with_typed_error() {
        let limit = PoolLimit::new(10);
        let err = run_indexed_bounded(11, 2, &limit, |i| i).expect_err("over capacity");
        assert_eq!(
            err,
            PoolOverloaded {
                pending: 0,
                capacity: 10,
                rejected: 11,
            }
        );
        assert_eq!(limit.pending(), 0, "rejected batch reserves nothing");
        // an admitted batch runs normally and releases its reservation
        let out = run_indexed_bounded(10, 2, &limit, |i| i * 2).expect("fits");
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(limit.pending(), 0, "reservation released after the run");
    }

    #[test]
    fn bounded_submission_tracks_live_work_across_nested_batches() {
        let limit = PoolLimit::new(8);
        // From inside a running batch, the remaining headroom is what a
        // nested submission sees: 8 - 6 = 2, so 3 must be rejected.
        let out = run_indexed_bounded(6, 2, &limit, |i| {
            if i == 0 {
                let err = run_indexed_bounded(3, 1, &limit, |j| j).expect_err("no headroom");
                assert_eq!(err.capacity, 8);
                assert_eq!(err.rejected, 3);
                assert!(err.pending >= 6);
                let nested = run_indexed_bounded(2, 1, &limit, |j| j).expect("2 fit");
                assert_eq!(nested, vec![0, 1]);
            }
            i
        })
        .expect("outer batch fits");
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        assert_eq!(limit.pending(), 0);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for count in [1usize, 2, 7, 100] {
            for threads in [1usize, 2, 3, 8] {
                let ranges = chunk_ranges(count, threads);
                assert_eq!(ranges.len(), threads);
                let mut lo = 0;
                for &(a, b) in &ranges {
                    assert_eq!(a, lo);
                    assert!(b >= a);
                    lo = b;
                }
                assert_eq!(lo, count);
            }
        }
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn threads_from_honors_override() {
        assert_eq!(threads_from(Some("6"), 4), 6);
        assert_eq!(threads_from(Some(" 12 "), 4), 12);
        assert_eq!(threads_from(Some("1"), 4), 1);
    }

    #[test]
    fn threads_from_falls_back_and_clamps() {
        assert_eq!(threads_from(None, 4), 4, "unset: host parallelism");
        assert_eq!(threads_from(Some(""), 4), 4, "empty: host parallelism");
        assert_eq!(threads_from(Some("zero"), 4), 4, "garbage: fallback");
        assert_eq!(threads_from(Some("0"), 4), 4, "zero clamps to fallback");
        assert_eq!(threads_from(Some("-3"), 4), 4, "negative: fallback");
    }
}
