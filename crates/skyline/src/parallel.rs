//! Shared-memory parallel skyline — the multi-core analogue of the paper's
//! cluster pipeline.
//!
//! The same partition → local skyline → merge structure that the paper runs
//! on Hadoop works on one machine with threads: split the input into chunks
//! (optionally by a geometric [`SpacePartitioner`] instead of blindly), have
//! each thread compute its chunk's skyline with the blocked BNL kernel, then
//! merge the local skylines with the L1-presorting merge. Input is converted
//! to a columnar [`PointBlock`] once up front, so workers scan contiguous
//! rows instead of chasing per-point boxes, and `std` scoped threads keep it
//! allocation-light and borrow-checked — no `Arc` cloning of the input.
//!
//! Failure handling is per *chunk*, not per worker: every chunk attempt
//! runs under `catch_unwind`, so a panicking kernel costs one attempt of
//! one chunk while the surviving workers keep draining the queue. With a
//! chaos context ([`ChaosContext`]) each chunk gets the plan's bounded
//! retry budget — injected panics and transient errors are genuinely
//! re-executed — and only a chunk that exhausts its budget aborts the run,
//! surfacing as [`SkylineError::WorkerPanic`] with the chunk index,
//! attempts consumed, and how many local skylines had completed.
//!
//! Two chunking strategies are exposed because they reproduce, in
//! microcosm, the paper's whole point:
//!
//! * [`parallel_skyline`] — block chunking (thread `t` takes the `t`-th
//!   slice): balanced, but every local skyline is a random sample's skyline,
//!   so the merge sees many globally dominated candidates;
//! * [`parallel_skyline_partitioned`] — chunk by a geometric partitioner
//!   (e.g. [`AnglePartitioner`](crate::partition::AnglePartitioner)): local
//!   winners are likelier global winners and the merge input shrinks.

use crate::block::PointBlock;
use crate::error::SkylineError;
use crate::kernel::{self, BnlConfig, KernelStats};
use crate::partition::SpacePartitioner;
use crate::point::Point;
use mrsky_chaos::{FaultKind, FaultPlan, FaultSite};
use mrsky_trace::{EventKind, Tracer};

/// Statistics of a parallel skyline run.
#[derive(Debug, Default, Clone)]
pub struct ParallelStats {
    /// Threads actually used.
    pub threads: usize,
    /// Total dominance comparisons across local passes.
    pub local_comparisons: u64,
    /// Candidates entering the merge.
    pub merge_candidates: u64,
    /// Comparisons spent in the merge pass.
    pub merge_comparisons: u64,
    /// Chunk attempts that failed and were re-executed.
    pub retries: u64,
    /// Chaos faults injected into chunk tasks.
    pub faults_injected: u64,
}

/// Chaos wiring for a parallel run: the seeded plan deciding which chunk
/// attempts fault, the scope its hash is keyed on, and a tracer receiving
/// [`EventKind::FaultInjected`] / [`EventKind::TaskRetryExhausted`].
#[derive(Clone, Copy)]
pub struct ChaosContext<'a> {
    /// The plan; its `max_attempts` is also the per-chunk retry budget.
    pub plan: &'a FaultPlan,
    /// Scope string folded into every injection decision (e.g. job name).
    pub scope: &'a str,
    /// Event sink; pass [`Tracer::disabled`] to record nothing.
    pub tracer: &'a Tracer,
}

/// Merges local skylines: concatenate into one block, then run the
/// L1-presorting merge kernel — monotone score, so one filtering pass
/// replaces the full BNL the id-ordered merge used to need.
fn merge_locals(
    locals: Vec<PointBlock>,
    dim: usize,
    stats: &mut ParallelStats,
) -> Result<PointBlock, SkylineError> {
    let total: usize = locals.iter().map(PointBlock::len).sum();
    let registry = mrsky_trace::metrics();
    if registry.is_enabled() {
        for local in &locals {
            registry.observe("skyline.parallel.local_skyline_size", local.len() as u64);
        }
        registry.incr("skyline.parallel.merge_candidates", total as u64);
        registry.incr("skyline.parallel.merges", 1);
    }
    let mut candidates = PointBlock::with_capacity(dim, total);
    for local in &locals {
        candidates.append(local)?;
    }
    stats.merge_candidates = candidates.len() as u64;
    let (sky, merge_stats) = kernel::presort_merge_stats(&candidates);
    stats.merge_comparisons = merge_stats.comparisons;
    Ok(sky)
}

/// Renders a payload caught from a panicking worker thread.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
fn run_chunks(
    chunks: &[PointBlock],
    threads: usize,
) -> Result<(Vec<PointBlock>, KernelStats), SkylineError> {
    run_chunks_with(chunks, threads, |chunk| {
        kernel::block_bnl_stats(chunk, &BnlConfig::default())
    })
}

#[cfg(test)]
fn run_chunks_with<F>(
    chunks: &[PointBlock],
    threads: usize,
    work: F,
) -> Result<(Vec<PointBlock>, KernelStats), SkylineError>
where
    F: Fn(&PointBlock) -> (PointBlock, KernelStats) + Sync,
{
    run_chunks_engine(chunks, threads, None, work).map(|(locals, stats, _)| (locals, stats))
}

/// One chunk task that failed every attempt it was granted.
struct ChunkFailure {
    chunk: usize,
    attempts: u32,
    message: String,
}

/// Fault/retry counters accumulated by one engine run.
#[derive(Debug, Default, Clone, Copy)]
struct ChaosCounters {
    retries: u64,
    faults: u64,
}

/// Fans `chunks` out over at most `threads` scoped worker threads pulling
/// work from a shared cursor, and collects per-chunk results in order.
///
/// Every chunk *attempt* runs under `catch_unwind`, so a panicking kernel
/// (real or chaos-injected) costs one attempt of one chunk and the worker
/// survives to keep draining the queue. Without a chaos context the budget
/// is one attempt; with one, each chunk retries up to the plan's
/// `max_attempts`. Only a chunk that exhausts its budget fails the run —
/// and even then the remaining chunks are drained first, so the returned
/// [`SkylineError::WorkerPanic`] reports an accurate completed count.
fn run_chunks_engine<F>(
    chunks: &[PointBlock],
    threads: usize,
    chaos: Option<ChaosContext<'_>>,
    work: F,
) -> Result<(Vec<PointBlock>, KernelStats, ChaosCounters), SkylineError>
where
    F: Fn(&PointBlock) -> (PointBlock, KernelStats) + Sync,
{
    let n = chunks.len();
    let workers = threads.min(n).max(1);
    let budget = chaos.map_or(1, |c| c.plan.max_attempts.max(1));
    let cursor = mrsky_model::sync::AtomicUsize::new(0);
    let work = &work;
    mrsky_model::sync::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, PointBlock, KernelStats)> = Vec::new();
                    let mut failures: Vec<ChunkFailure> = Vec::new();
                    let mut counters = ChaosCounters::default();
                    loop {
                        // ORDERING: Relaxed — pure ticket dispenser; results
                        // travel through each worker's return value, not
                        // through memory ordered by the cursor.
                        let i = cursor.fetch_add(1, mrsky_model::sync::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match run_one_chunk(&chunks[i], i, budget, chaos, &mut counters, work) {
                            Ok((sky, stats)) => done.push((i, sky, stats)),
                            Err(failure) => failures.push(failure),
                        }
                    }
                    (done, failures, counters)
                })
            })
            .collect();

        let mut locals: Vec<Option<PointBlock>> = vec![None; n];
        let mut stats = KernelStats::default();
        let mut failures: Vec<ChunkFailure> = Vec::new();
        let mut counters = ChaosCounters::default();
        for handle in handles {
            match handle.join() {
                Ok((done, worker_failures, worker_counters)) => {
                    for (i, sky, chunk_stats) in done {
                        stats.merge(&chunk_stats);
                        locals[i] = Some(sky);
                    }
                    failures.extend(worker_failures);
                    counters.retries += worker_counters.retries;
                    counters.faults += worker_counters.faults;
                }
                // Per-attempt catch_unwind means a worker closure can only
                // panic in its own bookkeeping; report it against chunk `n`
                // (one past the last real index) rather than losing it.
                Err(payload) => failures.push(ChunkFailure {
                    chunk: n,
                    attempts: 0,
                    message: panic_message(payload),
                }),
            }
        }
        if let Some(first) = failures.into_iter().min_by_key(|f| f.chunk) {
            let completed = locals.iter().filter(|l| l.is_some()).count();
            return Err(SkylineError::WorkerPanic {
                chunk: first.chunk,
                attempts: first.attempts,
                completed,
                message: first.message,
            });
        }
        // No chunk failed, so the cursor handed out every index and every
        // slot is filled.
        Ok((locals.into_iter().flatten().collect(), stats, counters))
    })
}

/// Runs one chunk task with its bounded retry budget.
fn run_one_chunk<F>(
    chunk: &PointBlock,
    index: usize,
    budget: u32,
    chaos: Option<ChaosContext<'_>>,
    counters: &mut ChaosCounters,
    work: &F,
) -> Result<(PointBlock, KernelStats), ChunkFailure>
where
    F: Fn(&PointBlock) -> (PointBlock, KernelStats) + Sync,
{
    let registry = mrsky_trace::metrics();
    let mut attempt = 0u32;
    loop {
        let injected = chaos.and_then(|c| {
            c.plan
                .decide(FaultSite::ParallelChunk, c.scope, index as u64, attempt)
        });
        if let (Some(kind), Some(c)) = (injected, chaos) {
            counters.faults += 1;
            if registry.is_enabled() {
                registry.incr("chaos.parallel.faults_injected", 1);
            }
            c.tracer.emit(|| EventKind::FaultInjected {
                site: FaultSite::ParallelChunk.as_str().into(),
                fault: kind.as_str().into(),
                scope: c.scope.into(),
                index: index as u64,
                attempt: u64::from(attempt),
            });
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match injected {
            Some(FaultKind::Panic) => {
                panic!("chaos: injected panic in chunk {index} (attempt {attempt})")
            }
            Some(kind) => Err(format!(
                "chaos: injected {kind} in chunk {index} (attempt {attempt})"
            )),
            None => Ok(work(chunk)),
        }));
        let message = match outcome {
            Ok(Ok(result)) => return Ok(result),
            Ok(Err(message)) => message,
            Err(payload) => panic_message(payload),
        };
        if attempt + 1 >= budget {
            if let Some(c) = chaos {
                c.tracer.emit(|| EventKind::TaskRetryExhausted {
                    site: FaultSite::ParallelChunk.as_str().into(),
                    scope: c.scope.into(),
                    index: index as u64,
                    attempts: u64::from(attempt + 1),
                });
            }
            if registry.is_enabled() {
                registry.incr("chaos.parallel.retry_exhausted", 1);
            }
            return Err(ChunkFailure {
                chunk: index,
                attempts: attempt + 1,
                message,
            });
        }
        counters.retries += 1;
        if registry.is_enabled() {
            registry.incr("chaos.parallel.retries", 1);
        }
        attempt += 1;
    }
}

/// Computes the skyline of `points` on `threads` threads with block
/// chunking. `threads = 0` uses the host's available parallelism.
///
/// # Errors
///
/// Returns [`SkylineError::WorkerPanic`] if a worker thread panicked.
///
/// # Examples
///
/// ```
/// use skyline_algos::parallel::parallel_skyline;
/// use skyline_algos::point::Point;
///
/// let pts: Vec<Point> = (0..1000)
///     .map(|i| Point::new(i, vec![(i % 37) as f64, (i % 11) as f64]))
///     .collect();
/// let sky = parallel_skyline(&pts, 4).unwrap();
/// assert!(!sky.is_empty());
/// ```
pub fn parallel_skyline(points: &[Point], threads: usize) -> Result<Vec<Point>, SkylineError> {
    Ok(parallel_skyline_stats(points, threads)?.0)
}

/// Like [`parallel_skyline`] but returns statistics.
pub fn parallel_skyline_stats(
    points: &[Point],
    threads: usize,
) -> Result<(Vec<Point>, ParallelStats), SkylineError> {
    parallel_skyline_inner(points, threads, None)
}

/// Like [`parallel_skyline_stats`] but with chaos faults injected into
/// chunk tasks per `chaos.plan` — and recovered from, within the plan's
/// retry budget. Within that budget the result is bit-identical to the
/// fault-free run.
///
/// # Errors
///
/// Returns [`SkylineError::WorkerPanic`] if a chunk exhausted its budget.
pub fn parallel_skyline_chaos(
    points: &[Point],
    threads: usize,
    chaos: ChaosContext<'_>,
) -> Result<(Vec<Point>, ParallelStats), SkylineError> {
    parallel_skyline_inner(points, threads, Some(chaos))
}

fn parallel_skyline_inner(
    points: &[Point],
    threads: usize,
    chaos: Option<ChaosContext<'_>>,
) -> Result<(Vec<Point>, ParallelStats), SkylineError> {
    let threads = effective_threads(threads);
    let mut stats = ParallelStats {
        threads,
        ..ParallelStats::default()
    };
    if points.is_empty() {
        return Ok((Vec::new(), stats));
    }
    let block = PointBlock::from_points(points)?;
    let chunks = block.chunks(block.len().div_ceil(threads));
    let (locals, counter, counters) = run_chunks_engine(&chunks, threads, chaos, |chunk| {
        kernel::block_bnl_stats(chunk, &BnlConfig::default())
    })?;
    stats.local_comparisons = counter.comparisons;
    stats.retries = counters.retries;
    stats.faults_injected = counters.faults;
    let sky_block = merge_locals(locals, block.dim(), &mut stats)?;
    crate::invariants::check_skyline_block("parallel", &block, &sky_block);
    Ok((sky_block.to_points(), stats))
}

/// Computes the skyline with chunks defined by `partitioner` (one chunk per
/// partition), processed on `threads` threads.
///
/// # Errors
///
/// Returns [`SkylineError::WorkerPanic`] if a worker thread panicked.
pub fn parallel_skyline_partitioned(
    points: &[Point],
    partitioner: &dyn SpacePartitioner,
    threads: usize,
) -> Result<(Vec<Point>, ParallelStats), SkylineError> {
    parallel_skyline_partitioned_inner(points, partitioner, threads, None)
}

/// Like [`parallel_skyline_partitioned`] but with chaos faults injected
/// into the per-partition chunk tasks, recovered within the plan's budget.
///
/// # Errors
///
/// Returns [`SkylineError::WorkerPanic`] if a chunk exhausted its budget.
pub fn parallel_skyline_partitioned_chaos(
    points: &[Point],
    partitioner: &dyn SpacePartitioner,
    threads: usize,
    chaos: ChaosContext<'_>,
) -> Result<(Vec<Point>, ParallelStats), SkylineError> {
    parallel_skyline_partitioned_inner(points, partitioner, threads, Some(chaos))
}

fn parallel_skyline_partitioned_inner(
    points: &[Point],
    partitioner: &dyn SpacePartitioner,
    threads: usize,
    chaos: Option<ChaosContext<'_>>,
) -> Result<(Vec<Point>, ParallelStats), SkylineError> {
    let threads = effective_threads(threads);
    let mut stats = ParallelStats {
        threads,
        ..ParallelStats::default()
    };
    if points.is_empty() {
        return Ok((Vec::new(), stats));
    }
    let dim = points[0].dim();
    let mut chunks: Vec<PointBlock> = (0..partitioner.num_partitions())
        .map(|_| PointBlock::new(dim))
        .collect();
    for p in points {
        chunks[partitioner.partition_of(p)].push_point(p);
    }
    chunks.retain(|c| !c.is_empty());
    let (locals, counter, counters) = run_chunks_engine(&chunks, threads, chaos, |chunk| {
        kernel::block_bnl_stats(chunk, &BnlConfig::default())
    })?;
    stats.local_comparisons = counter.comparisons;
    stats.retries = counters.retries;
    stats.faults_injected = counters.faults;
    let sky_block = merge_locals(locals, dim, &mut stats)?;
    #[cfg(feature = "strict-invariants")]
    {
        let input = PointBlock::from_points(points)?;
        crate::invariants::check_skyline_block("parallel-partitioned", &input, &sky_block);
    }
    Ok((sky_block.to_points(), stats))
}

fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        threads_from_env(std::env::var("MRSKY_THREADS").ok().as_deref())
    } else {
        threads
    }
}

/// Resolves the auto (`threads == 0`) worker count: an `MRSKY_THREADS`
/// override (clamped to at least 1) wins over detected parallelism, so a
/// whole run can be pinned from the environment. Pure in its argument so
/// tests never have to mutate process env.
fn threads_from_env(var: Option<&str>) -> usize {
    if let Some(v) = var {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::AnglePartitioner;
    use crate::seq::naive_skyline_ids;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    (0..d).map(|_| rng.gen_range(0.0..8.0)).collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    fn ids(v: &[Point]) -> Vec<u64> {
        let mut out: Vec<u64> = v.iter().map(Point::id).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn empty_and_single() {
        assert!(parallel_skyline(&[], 4).unwrap().is_empty());
        let one = vec![Point::new(0, vec![1.0])];
        assert_eq!(ids(&parallel_skyline(&one, 4).unwrap()), vec![0]);
    }

    #[test]
    fn matches_oracle_across_thread_counts() {
        let pts = random_points(700, 3, 71);
        let oracle = naive_skyline_ids(&pts);
        for threads in [1usize, 2, 4, 16] {
            assert_eq!(
                ids(&parallel_skyline(&pts, threads).unwrap()),
                oracle,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn partitioned_variant_matches_oracle() {
        let pts = random_points(700, 3, 72);
        let oracle = naive_skyline_ids(&pts);
        let part = AnglePartitioner::fit_quantile(&pts, 8).unwrap();
        let (sky, stats) = parallel_skyline_partitioned(&pts, &part, 4).unwrap();
        assert_eq!(ids(&sky), oracle);
        assert!(stats.merge_candidates >= oracle.len() as u64);
    }

    #[test]
    fn geometric_chunking_ships_fewer_candidates() {
        // the paper's claim in shared-memory form: angular chunks produce
        // fewer merge candidates than blind block chunks (here, with the
        // same number of chunks)
        let pts = random_points(4000, 3, 73);
        let np = 8;
        let part = AnglePartitioner::fit_quantile(&pts, np).unwrap();
        let (_, angular) = parallel_skyline_partitioned(&pts, &part, 4).unwrap();
        // block chunking with the same chunk count
        let block = PointBlock::from_points(&pts).unwrap();
        let blocks = block.chunks(pts.len().div_ceil(np));
        let mut block_stats = ParallelStats::default();
        let (locals, _) = run_chunks(&blocks, 4).unwrap();
        let _ = merge_locals(locals, block.dim(), &mut block_stats).unwrap();
        assert!(
            angular.merge_candidates < block_stats.merge_candidates,
            "angular {} vs block {}",
            angular.merge_candidates,
            block_stats.merge_candidates
        );
    }

    #[test]
    fn threads_from_env_override_wins_and_clamps() {
        assert_eq!(threads_from_env(Some("6")), 6);
        assert_eq!(threads_from_env(Some(" 2 ")), 2);
        // zero clamps up to one worker rather than deadlocking
        assert_eq!(threads_from_env(Some("0")), 1);
        // garbage falls back to detected parallelism
        assert!(threads_from_env(Some("lots")) >= 1);
        assert!(threads_from_env(None) >= 1);
    }

    #[test]
    fn zero_threads_means_auto() {
        let pts = random_points(100, 2, 74);
        let (sky, stats) = parallel_skyline_stats(&pts, 0).unwrap();
        assert_eq!(ids(&sky), naive_skyline_ids(&pts));
        assert!(stats.threads >= 1);
    }

    #[test]
    fn stats_are_populated() {
        let pts = random_points(500, 3, 75);
        let (_, stats) = parallel_skyline_stats(&pts, 4).unwrap();
        assert!(stats.local_comparisons > 0);
        assert!(stats.merge_candidates > 0);
        assert!(stats.merge_comparisons > 0);
    }

    #[test]
    fn merge_records_local_skyline_sizes() {
        let m = mrsky_trace::metrics();
        m.set_enabled(true);
        let before = m
            .snapshot()
            .histograms
            .get("skyline.parallel.local_skyline_size")
            .map_or(0, mrsky_trace::Histogram::count);
        let pts = random_points(400, 3, 77);
        let part = AnglePartitioner::fit_quantile(&pts, 4).unwrap();
        let _ = parallel_skyline_partitioned(&pts, &part, 2).unwrap();
        let after = m
            .snapshot()
            .histograms
            .get("skyline.parallel.local_skyline_size")
            .map_or(0, mrsky_trace::Histogram::count);
        m.set_enabled(false);
        assert!(
            after >= before + 2,
            "one observation per non-empty partition: {before} -> {after}"
        );
    }

    #[test]
    fn worker_panic_surfaces_as_error() {
        let block = PointBlock::from_points(&random_points(64, 2, 76)).unwrap();
        let chunks = block.chunks(8);
        assert_eq!(chunks.len(), 8);
        let result = run_chunks_with(&chunks, 4, |chunk| {
            // deterministic victim: the chunk whose first id is 16 (chunk 2)
            if chunk.ids().first() == Some(&16) {
                panic!("injected worker failure");
            }
            kernel::block_bnl_stats(chunk, &BnlConfig::default())
        });
        match result {
            Err(SkylineError::WorkerPanic {
                chunk,
                attempts,
                completed,
                message,
            }) => {
                assert_eq!(chunk, 2);
                assert_eq!(attempts, 1);
                // the surviving workers drained every other chunk first
                assert_eq!(completed, 7);
                assert!(message.contains("injected worker failure"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn chaos_transient_errors_are_retried_to_the_exact_skyline() {
        let pts = random_points(900, 3, 81);
        let oracle = naive_skyline_ids(&pts);
        let plan = mrsky_chaos::FaultPlan {
            rules: vec![mrsky_chaos::SiteRule {
                site: FaultSite::ParallelChunk,
                kind: FaultKind::TransientError,
                permille: 400,
            }],
            max_attempts: 6,
            ..mrsky_chaos::FaultPlan::off()
        };
        let tracer = Tracer::in_memory();
        let mut saw_faults = false;
        for seed in 0..6u64 {
            let plan = mrsky_chaos::FaultPlan {
                seed,
                ..plan.clone()
            };
            let (sky, stats) = parallel_skyline_chaos(
                &pts,
                4,
                ChaosContext {
                    plan: &plan,
                    scope: "unit",
                    tracer: &tracer,
                },
            )
            .unwrap();
            assert_eq!(ids(&sky), oracle, "seed {seed}");
            assert_eq!(stats.retries, stats.faults_injected, "seed {seed}");
            saw_faults |= stats.faults_injected > 0;
        }
        assert!(saw_faults, "40% transient rate never fired across 6 seeds");
        let events = tracer.drain();
        assert!(events.iter().any(
            |e| matches!(&e.kind, EventKind::FaultInjected { site, .. } if site == "parallel-chunk")
        ));
    }

    #[test]
    fn chaos_injected_panics_are_contained_and_retried() {
        let pts = random_points(600, 3, 82);
        let oracle = naive_skyline_ids(&pts);
        let plan = mrsky_chaos::FaultPlan {
            seed: 11,
            rules: vec![mrsky_chaos::SiteRule {
                site: FaultSite::ParallelChunk,
                kind: FaultKind::Panic,
                permille: 500,
            }],
            max_attempts: 8,
            ..mrsky_chaos::FaultPlan::off()
        };
        let (sky, stats) = parallel_skyline_chaos(
            &pts,
            3,
            ChaosContext {
                plan: &plan,
                scope: "unit-panics",
                tracer: &Tracer::disabled(),
            },
        )
        .unwrap();
        assert_eq!(ids(&sky), oracle);
        assert!(stats.faults_injected > 0, "50% panic rate never fired");
    }

    #[test]
    fn exhausted_budget_emits_trace_and_reports_attempts() {
        // real (non-injected) failure that outlives the chaos budget: the
        // victim chunk panics on every attempt
        let block = PointBlock::from_points(&random_points(64, 2, 83)).unwrap();
        let chunks = block.chunks(8);
        let plan = mrsky_chaos::FaultPlan {
            max_attempts: 3,
            ..mrsky_chaos::FaultPlan::off()
        };
        let tracer = Tracer::in_memory();
        let result = run_chunks_engine(
            &chunks,
            2,
            Some(ChaosContext {
                plan: &plan,
                scope: "unit-exhaust",
                tracer: &tracer,
            }),
            |chunk| {
                if chunk.ids().first() == Some(&24) {
                    panic!("chaos: persistent hardware fault");
                }
                kernel::block_bnl_stats(chunk, &BnlConfig::default())
            },
        );
        match result {
            Err(SkylineError::WorkerPanic {
                chunk,
                attempts,
                completed,
                ..
            }) => {
                assert_eq!(chunk, 3);
                assert_eq!(attempts, 3);
                assert_eq!(completed, 7);
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        let events = tracer.drain();
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::TaskRetryExhausted {
                index: 3,
                attempts: 3,
                ..
            }
        )));
    }

    #[test]
    fn merge_is_l1_presorted_not_id_sorted() {
        // two "local skylines" whose union needs filtering: the merge must
        // keep exactly the global skyline regardless of id order
        let a = PointBlock::from_points(&[
            Point::new(10, vec![1.0, 5.0]),
            Point::new(11, vec![5.0, 1.0]),
        ])
        .unwrap();
        let b = PointBlock::from_points(&[
            Point::new(2, vec![2.0, 6.0]), // dominated by id 10
            Point::new(3, vec![0.5, 6.0]),
        ])
        .unwrap();
        let mut stats = ParallelStats::default();
        let sky = merge_locals(vec![a, b], 2, &mut stats).unwrap();
        let mut got = sky.ids().to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![3, 10, 11]);
        assert_eq!(stats.merge_candidates, 4);
        // output rows ascend in L1 norm — the presort contract
        for i in 1..sky.len() {
            assert!(sky.l1_norm(i - 1) <= sky.l1_norm(i));
        }
    }
}
