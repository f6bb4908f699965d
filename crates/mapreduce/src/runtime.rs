//! Job execution: real parallel map/reduce plus simulated cluster timing.
//!
//! A job runs in the standard phases:
//!
//! 1. the input is cut into `num_map_tasks` contiguous splits;
//! 2. map tasks run in parallel on the host thread pool; each task maps its
//!    records and reports counters;
//! 3. the shuffle routes pairs to `num_reducers` reduce tasks and groups by
//!    key (sorted);
//! 4. reduce tasks run in parallel and emit outputs;
//! 5. the per-task simulated durations (from the [`CostModel`]) are placed
//!    onto the simulated cluster's map and reduce slots by the
//!    discrete-event scheduler, giving the Map/Reduce phase spans that the
//!    paper's Figure 6 reports.
//!
//! Faults come from one source, a chaos [`FaultPlan`] on [`JobSpec::chaos`],
//! and make real paths re-execute: map attempts genuinely re-run
//! (discarding the failed attempt's partial output) on injected DFS-read or
//! map-task faults, and reduce tasks re-fetch dropped/corrupted shuffle
//! segments. Every re-executed attempt, re-fetched segment and the plan's
//! deterministic backoff are charged to the sim clock. Because the plan
//! never faults the final attempt of its budget, `run_job` stays infallible
//! under any plan.

use crate::cost::CostModel;
use crate::dfs::{SpillReader, SpillStore};
use crate::mapper::Mapper;
use crate::metrics::{JobMetrics, PeakMemBytes, PhaseMetrics};
use crate::pool;
use crate::reducer::Reducer;
use crate::scheduler::schedule_phase;
use crate::shuffle::{default_router, shuffle_with, KeyRouter, OwnedMergeFn};
use crate::types::{DataT, Emitter, KeyT, KvSizer, TaskContext};
use mrsky_chaos::{FaultKind, FaultPlan, FaultSite};
use mrsky_model::sync::{AtomicU64, Mutex, Ordering};
use mrsky_trace::{EventKind, PhaseKind, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// The simulated cluster: how many servers, and how many concurrent task
/// slots each server offers per phase (Hadoop 0.20 defaulted to 2 map and
/// 2 reduce slots per TaskTracker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of worker servers.
    pub servers: usize,
    /// Concurrent map tasks per server.
    pub map_slots_per_server: usize,
    /// Concurrent reduce tasks per server.
    pub reduce_slots_per_server: usize,
}

impl ClusterConfig {
    /// A cluster of `servers` workers with Hadoop-default 2+2 slots.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers >= 1, "cluster needs at least one server");
        Self {
            servers,
            map_slots_per_server: 2,
            reduce_slots_per_server: 2,
        }
    }

    /// Total map slots.
    pub fn map_slots(&self) -> usize {
        self.servers * self.map_slots_per_server
    }

    /// Total reduce slots.
    pub fn reduce_slots(&self) -> usize {
        self.servers * self.reduce_slots_per_server
    }

    /// Checks that the cluster can make progress at all: at least one
    /// server and at least one slot of each kind. Returns every problem
    /// found, so plan-time analysis can report them together instead of
    /// panicking on the first one mid-run.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.servers == 0 {
            problems.push("cluster has zero servers".to_string());
        }
        if self.map_slots_per_server == 0 {
            problems.push("cluster has zero map slots per server".to_string());
        }
        if self.reduce_slots_per_server == 0 {
            problems.push("cluster has zero reduce slots per server".to_string());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

/// Everything that configures a job apart from the user code.
pub struct JobSpec<K, V> {
    /// Job name, used in reports and in the chaos fault hash.
    pub name: String,
    /// Number of map tasks; `0` means auto: one split per
    /// [`RECORDS_PER_SPLIT`] input records, the way Hadoop derives splits
    /// from input size (not from cluster size) — so small clusters process
    /// the same splits in more waves.
    pub num_map_tasks: usize,
    /// Number of reduce tasks (≥ 1).
    pub num_reducers: usize,
    /// Simulated cluster.
    pub cluster: ClusterConfig,
    /// Cost model for simulated durations.
    pub cost: CostModel,
    /// Host threads for real execution; `0` means all available cores.
    pub threads: usize,
    /// Key→reducer routing; `None` uses the hash router.
    pub router: Option<KeyRouter<K>>,
    /// Wire-size estimator for shuffle byte accounting; `None` uses
    /// `size_of`.
    pub sizer: Option<KvSizer<K, V>>,
    /// Structured trace destination; [`Tracer::disabled`] (the default)
    /// costs one branch per emission site.
    pub tracer: Tracer,
    /// Chaos fault plan driving *real* re-execution of map attempts and
    /// shuffle fetches; [`FaultPlan::off`] (the default) injects nothing.
    pub chaos: FaultPlan,
    /// Ownership-transfer merge applied during the shuffle; `None` (the
    /// default) keeps the row shuffle's per-pair value lists. The skyline
    /// pipeline installs a `PointBlock`-appending merge so reduce inputs
    /// arrive as single concatenated buffers.
    pub owned_merge: Option<OwnedMergeFn<V>>,
    /// Spill policy for oversized reduce inputs; `None` keeps everything in
    /// memory.
    pub spill: Option<SpillConfig<V>>,
}

/// Disk-spill policy for reduce inputs: any reduce task whose shuffled input
/// exceeds `budget_bytes` is serialized to `dir` (via the
/// [`SpillStore`](crate::dfs::SpillStore) frame format) right after the
/// shuffle, dropped from memory, and re-read value-by-value when its reduce
/// task runs. The encode/decode pair is supplied by the job because the
/// runtime is generic over `V`; the skyline pipeline installs a flat
/// little-endian `PointBlock` codec.
pub struct SpillConfig<V> {
    /// Reduce inputs above this many (wire-accounted) bytes spill to disk.
    pub budget_bytes: u64,
    /// Directory the spill files are written to.
    pub dir: PathBuf,
    /// Serializes one value into a spill frame.
    pub encode: SpillEncodeFn<V>,
    /// Reconstructs a value from a spill frame. Must be the exact inverse
    /// of `encode` — reduce outputs are bit-compared against unspilled runs.
    pub decode: SpillDecodeFn<V>,
}

/// Serializer for one spilled value (see [`SpillConfig::encode`]).
pub type SpillEncodeFn<V> = Arc<dyn Fn(&V) -> Vec<u8> + Send + Sync>;

/// Deserializer for one spill frame (see [`SpillConfig::decode`]).
pub type SpillDecodeFn<V> = Arc<dyn Fn(&[u8]) -> V + Send + Sync>;

impl<V> Clone for SpillConfig<V> {
    fn clone(&self) -> Self {
        Self {
            budget_bytes: self.budget_bytes,
            dir: self.dir.clone(),
            encode: Arc::clone(&self.encode),
            decode: Arc::clone(&self.decode),
        }
    }
}

/// Auto split sizing: records per map split (≈ a small HDFS block of
/// 100-byte records). Input-derived, cluster-independent.
pub const RECORDS_PER_SPLIT: usize = 1600;

impl<K: KeyT, V: DataT> JobSpec<K, V> {
    /// A job named `name` on `cluster` with one reducer and defaults
    /// everywhere else.
    pub fn new(name: impl Into<String>, cluster: ClusterConfig) -> Self {
        Self {
            name: name.into(),
            num_map_tasks: 0,
            num_reducers: 1,
            cluster,
            cost: CostModel::default(),
            threads: 0,
            router: None,
            sizer: None,
            tracer: Tracer::disabled(),
            chaos: FaultPlan::off(),
            owned_merge: None,
            spill: None,
        }
    }

    /// Sets the structured trace destination (builder style).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Installs an ownership-transfer shuffle merge (builder style).
    pub fn with_owned_merge(mut self, merge: OwnedMergeFn<V>) -> Self {
        self.owned_merge = Some(merge);
        self
    }

    /// Installs a reduce-input spill policy (builder style).
    pub fn with_spill(mut self, spill: SpillConfig<V>) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Sets the chaos fault plan (builder style).
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Sets the reducer count (builder style).
    pub fn with_reducers(mut self, n: usize) -> Self {
        assert!(n >= 1, "jobs need at least one reducer");
        self.num_reducers = n;
        self
    }

    /// Sets an explicit map-task count (builder style).
    pub fn with_map_tasks(mut self, n: usize) -> Self {
        self.num_map_tasks = n;
        self
    }

    fn effective_map_tasks(&self, input_len: usize) -> usize {
        let requested = if self.num_map_tasks == 0 {
            input_len.div_ceil(RECORDS_PER_SPLIT)
        } else {
            self.num_map_tasks
        };
        requested.clamp(1, input_len.max(1))
    }
}

/// The result of a job: outputs grouped per key (sorted within each reduce
/// task, reduce tasks in index order) plus metrics.
pub struct JobResult<K, O> {
    /// `(key, outputs-for-key)` in deterministic order.
    pub groups: Vec<(K, Vec<O>)>,
    /// Job metrics (counters + simulated and wall times).
    pub metrics: JobMetrics,
}

impl<K, O> JobResult<K, O> {
    /// All outputs flattened in deterministic order.
    pub fn into_outputs(self) -> Vec<O> {
        self.groups.into_iter().flat_map(|(_, o)| o).collect()
    }
}

struct MapTaskOut<K, V> {
    pairs: Vec<(K, V)>,
    bytes: u64,
    records_in: u64,
    records_out: u64,
    work_units: u64,
    duration: f64,
    attempts: u32,
    counters: std::collections::BTreeMap<&'static str, u64>,
}

/// Outcome of the (possibly re-executed) real run of one map task.
struct MapAttemptRun<K, V> {
    ctx: TaskContext,
    emitter: Emitter<K, V>,
    /// Chaos re-executions (each one a genuinely discarded attempt).
    retries: u32,
    /// Simulated backoff charged between attempts.
    backoff_seconds: f64,
}

/// Really executes map task `t`, re-running the whole attempt on injected
/// DFS-read or map-task faults: the failed attempt's context and partial
/// emitter are dropped, so retried work is recomputed from the split, not
/// patched up. A panic that was *not* injected propagates unchanged.
fn run_map_attempts<I, K, V, M>(
    spec: &JobSpec<K, V>,
    t: usize,
    records: &[I],
    mapper: &M,
) -> MapAttemptRun<K, V>
where
    I: DataT,
    K: KeyT,
    V: DataT,
    M: Mapper<I, K, V>,
{
    let budget = spec.chaos.max_attempts.max(1);
    let mut retries = 0u32;
    let mut faults = 0u64;
    let mut backoff_seconds = 0.0f64;
    loop {
        let attempt = retries;
        let dfs_fault = spec
            .chaos
            .decide(FaultSite::DfsRead, &spec.name, t as u64, attempt);
        let map_fault = if dfs_fault.is_none() {
            spec.chaos
                .decide(FaultSite::MapTask, &spec.name, t as u64, attempt)
        } else {
            None
        };
        let injected = dfs_fault
            .map(|k| (FaultSite::DfsRead, k))
            .or_else(|| map_fault.map(|k| (FaultSite::MapTask, k)));
        if let Some((site, kind)) = injected {
            faults += 1;
            spec.tracer.emit(|| EventKind::FaultInjected {
                site: site.as_str().into(),
                fault: kind.as_str().into(),
                scope: spec.name.clone(),
                index: t as u64,
                attempt: u64::from(attempt),
            });
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(kind) = dfs_fault {
                // the block read fails before the mapper sees any record
                return Err(format!("chaos: injected {kind} reading split {t}"));
            }
            let mut ctx = TaskContext::new(t, retries);
            let mut emitter = Emitter::new(spec.sizer.clone());
            let mid = records.len() / 2;
            for (idx, record) in records.iter().enumerate() {
                if idx == mid {
                    if let Some(kind) = map_fault {
                        // mid-split, so the partial emitter really is lost
                        match kind {
                            FaultKind::Panic => {
                                panic!("chaos: injected panic in map task {t}")
                            }
                            other => {
                                return Err(format!("chaos: injected {other} in map task {t}"))
                            }
                        }
                    }
                }
                ctx.add_records_in(1);
                mapper.map(record, &mut ctx, &mut emitter);
            }
            if records.is_empty() {
                if let Some(kind) = map_fault {
                    return Err(format!("chaos: injected {kind} in map task {t}"));
                }
            }
            Ok((ctx, emitter))
        }));
        match outcome {
            Ok(Ok((mut ctx, emitter))) => {
                if faults > 0 {
                    ctx.incr("chaos_faults_injected", faults);
                    ctx.incr("chaos_map_retries", u64::from(retries));
                }
                return MapAttemptRun {
                    ctx,
                    emitter,
                    retries,
                    backoff_seconds,
                };
            }
            // injected failures retry below; anything else propagates
            Ok(Err(_)) if injected.is_some() => {}
            Err(_) if matches!(injected, Some((_, FaultKind::Panic))) => {}
            Ok(Err(message)) => panic!("map task {t} failed without an injected fault: {message}"),
            Err(payload) => std::panic::resume_unwind(payload),
        }
        backoff_seconds += spec.chaos.backoff.delay_seconds(attempt);
        retries += 1;
        // the plan never faults the final budgeted attempt, so only a plan
        // with a budget larger than its own max_attempts could land here
        if retries >= budget {
            spec.tracer.emit(|| EventKind::TaskRetryExhausted {
                site: FaultSite::MapTask.as_str().into(),
                scope: spec.name.clone(),
                index: t as u64,
                attempts: u64::from(retries),
            });
            panic!("chaos: map task {t} exhausted its {budget}-attempt budget");
        }
    }
}

/// Concurrent high-water gauge over logical resident bytes: workers
/// `acquire` when data becomes resident and `release` when it is dropped or
/// spilled; `peak` is the largest concurrent total seen.
struct MemTracker {
    current: AtomicU64,
    peak: AtomicU64,
}

impl MemTracker {
    fn new() -> Self {
        Self {
            current: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn acquire(&self, bytes: u64) {
        // ORDERING: Relaxed — the gauge is advisory accounting, never used
        // for synchronization; the CAS loop only needs atomicity of the max.
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let mut seen = self.peak.load(Ordering::Relaxed);
        while now > seen {
            // ORDERING: Relaxed CAS — monotonic max, atomicity is enough.
            match self
                .peak
                .compare_exchange(seen, now, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => seen = actual,
            }
        }
    }

    fn release(&self, bytes: u64) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }

    fn peak(&self) -> u64 {
        // ORDERING: Relaxed — read after the phase's threads have joined.
        self.peak.load(Ordering::Relaxed)
    }
}

/// Where one reduce task's shuffled input lives between the shuffle and the
/// task's execution: in memory, or spilled to a frame file with only the
/// keys and per-key value counts retained.
enum ReduceSource<K, V> {
    Mem(Vec<(K, Vec<V>)>),
    Spilled {
        file: SpillFile,
        keys: Vec<(K, usize)>,
    },
}

/// Owns a spill file and removes it on drop, so a spilled input leaves no
/// file behind whether its task consumed it or a kill or panic unwound the
/// reduce phase first.
struct SpillFile(PathBuf);

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs a complete MapReduce job. See the module docs for the phase
/// structure and timing semantics.
pub fn run_job<I, K, V, O, M, R>(
    spec: &JobSpec<K, V>,
    input: &[I],
    mapper: &M,
    reducer: &R,
) -> JobResult<K, O>
where
    I: DataT,
    K: KeyT,
    V: DataT,
    O: DataT,
    M: Mapper<I, K, V>,
    R: Reducer<K, V, O>,
{
    // Durations come from the tracer's epoch clock (deterministic
    // SimClock unless the caller injected a wall clock), keeping job
    // metrics byte-reproducible under checkpoint/resume.
    let wall_start_us = spec.tracer.now_us();
    let threads = if spec.threads == 0 {
        pool::default_threads()
    } else {
        spec.threads
    };
    spec.tracer.emit(|| EventKind::JobStarted {
        job: spec.name.clone(),
    });

    // Logical resident-byte gauges for the two in-flight data plateaus:
    // buffered map output (held until the shuffle consumes it) and shuffled
    // reduce input (held until its reduce task finishes or it spills).
    let map_mem = MemTracker::new();
    let reduce_mem = MemTracker::new();

    // ---- Map phase (real execution) ----
    let num_map_tasks = spec.effective_map_tasks(input.len());
    let splits = split_ranges(input.len(), num_map_tasks);
    // Surface executor rebalancing as causal trace events: the observer
    // fires on the thief's thread the moment it pops a victim's task.
    let on_map_steal = |thief: usize, victim: usize, task: usize| {
        spec.tracer.emit(|| EventKind::TaskStolen {
            job: spec.name.clone(),
            phase: PhaseKind::Map,
            task: task as u64,
            thief: thief as u64,
            victim: victim as u64,
        });
    };
    let map_results: Vec<MapTaskOut<K, V>> = pool::run_indexed_observed(
        num_map_tasks,
        threads,
        spec.tracer
            .is_enabled()
            .then_some(&on_map_steal as pool::StealObserver<'_>),
        |t| {
            let (lo, hi) = splits[t];
            let MapAttemptRun {
                mut ctx,
                emitter,
                retries,
                backoff_seconds,
            } = run_map_attempts(spec, t, &input[lo..hi], mapper);
            let records_out = emitter.len() as u64;
            ctx.add_records_out(records_out);
            let (pairs, bytes) = emitter.into_parts();
            ctx.add_bytes_out(bytes);
            let single =
                spec.cost
                    .task_duration(ctx.records_in(), ctx.records_out(), ctx.work_units());
            // The task's buffered output becomes resident now and stays resident
            // until the shuffle has consumed every map buffer.
            map_mem.acquire(bytes);
            // every chaos re-execution really re-ran the whole split
            let attempts = 1 + retries;
            MapTaskOut {
                pairs,
                bytes,
                records_in: ctx.records_in(),
                records_out,
                work_units: ctx.work_units(),
                duration: single * f64::from(attempts) + backoff_seconds,
                attempts,
                counters: ctx.counters().clone(),
            }
        },
    );

    let map_durations: Vec<f64> = map_results.iter().map(|m| m.duration).collect();
    let map_schedule = schedule_phase(&map_durations, spec.cluster.map_slots(), 0.0);
    let map_attempts: Vec<u32> = map_results.iter().map(|m| m.attempts).collect();
    emit_phase_trace(
        &spec.tracer,
        &spec.name,
        PhaseKind::Map,
        &map_schedule,
        &map_attempts,
    );

    let mut map_metrics = PhaseMetrics {
        tasks: num_map_tasks,
        attempts: map_results.iter().map(|m| m.attempts).sum(),
        records_in: map_results.iter().map(|m| m.records_in).sum(),
        records_out: map_results.iter().map(|m| m.records_out).sum(),
        bytes_out: map_results.iter().map(|m| m.bytes).sum(),
        work_units: map_results.iter().map(|m| m.work_units).sum(),
        sim_start: 0.0,
        sim_end: map_schedule.end,
        task_durations: map_durations,
        counters: Default::default(),
    };
    for m in &map_results {
        map_metrics.merge_counters(&m.counters);
    }
    map_metrics.sim_end = map_schedule.end;

    // ---- Shuffle ----
    let router = spec.router.clone().unwrap_or_else(default_router);
    let map_outputs: Vec<(Vec<(K, V)>, u64)> = map_results
        .into_iter()
        .map(|m| (m.pairs, m.bytes))
        .collect();
    let map_out_bytes: u64 = map_outputs.iter().map(|(_, b)| *b).sum();
    let reduce_inputs = shuffle_with(
        map_outputs,
        spec.num_reducers,
        &router,
        spec.owned_merge.as_ref(),
    );
    map_mem.release(map_out_bytes);
    let shuffle_bytes: u64 = reduce_inputs.iter().map(|r| r.bytes).sum();
    if spec.tracer.is_enabled() {
        for (r, rin) in reduce_inputs.iter().enumerate() {
            spec.tracer.emit(|| EventKind::ShufflePartition {
                job: spec.name.clone(),
                reducer: r as u64,
                bytes: rin.bytes,
                records: rin.records,
                segments: rin.segments,
            });
            // One causal shuffle edge per contributing map task, so the
            // analyzer (and Perfetto's flow arrows) can see exactly which
            // map outputs each reduce task waited on.
            for &m in &rin.sources {
                spec.tracer.emit(|| EventKind::CausalEdge {
                    edge: "shuffle".into(),
                    src: format!("task:{}/map/{m}", spec.name),
                    dst: format!("task:{}/reduce/{r}", spec.name),
                });
            }
        }
        // The reduce phase cannot start before every map task has finished:
        // the shuffle barrier, as an explicit happens-before edge.
        spec.tracer.emit(|| EventKind::CausalEdge {
            edge: "barrier".into(),
            src: format!("phase:{}/map", spec.name),
            dst: format!("phase:{}/reduce", spec.name),
        });
    }

    // Convert each reduce input into a consume-once source, spilling any
    // input over the memory budget to disk right away (its bytes leave the
    // resident gauge; only the keys and per-key counts stay in memory).
    struct ReduceTaskMeta {
        bytes: u64,
        segments: u64,
    }
    let mut spill_write_errors = 0u64;
    let spill_store = spec.spill.as_ref().and_then(|cfg| {
        SpillStore::create(&cfg.dir)
            .map_err(|_| spill_write_errors += 1)
            .ok()
    });
    let mut task_meta: Vec<ReduceTaskMeta> = Vec::with_capacity(reduce_inputs.len());
    let sources: Vec<Mutex<Option<ReduceSource<K, V>>>> = reduce_inputs
        .into_iter()
        .enumerate()
        .map(|(r, rin)| {
            task_meta.push(ReduceTaskMeta {
                bytes: rin.bytes,
                segments: rin.segments,
            });
            reduce_mem.acquire(rin.bytes);
            let groups = rin.groups;
            let source = match (&spec.spill, &spill_store) {
                (Some(cfg), Some(store)) if rin.bytes > cfg.budget_bytes => {
                    let keys: Vec<(K, usize)> =
                        groups.iter().map(|(k, vs)| (k.clone(), vs.len())).collect();
                    let frames = groups
                        .iter()
                        .flat_map(|(_, vs)| vs.iter())
                        .map(|v| (cfg.encode)(v));
                    match store.write_frames(&spec.name, r, frames) {
                        Ok(path) => {
                            reduce_mem.release(rin.bytes);
                            ReduceSource::Spilled {
                                file: SpillFile(path),
                                keys,
                            }
                        }
                        // A failed spill falls back to memory: correctness
                        // over the budget, with the failure counted.
                        Err(_) => {
                            spill_write_errors += 1;
                            ReduceSource::Mem(groups)
                        }
                    }
                }
                _ => ReduceSource::Mem(groups),
            };
            Mutex::new(Some(source))
        })
        .collect();

    // ---- Reduce phase (real execution) ----
    struct ReduceTaskOut<K, O> {
        groups: Vec<(K, Vec<O>)>,
        records_in: u64,
        records_out: u64,
        work_units: u64,
        duration: f64,
        counters: std::collections::BTreeMap<&'static str, u64>,
    }
    let on_reduce_steal = |thief: usize, victim: usize, task: usize| {
        spec.tracer.emit(|| EventKind::TaskStolen {
            job: spec.name.clone(),
            phase: PhaseKind::Reduce,
            task: task as u64,
            thief: thief as u64,
            victim: victim as u64,
        });
    };
    let reduce_results: Vec<ReduceTaskOut<K, O>> = pool::run_indexed_observed(
        sources.len(),
        threads,
        spec.tracer
            .is_enabled()
            .then_some(&on_reduce_steal as pool::StealObserver<'_>),
        |t| {
            let meta = &task_meta[t];
            let mut ctx = TaskContext::new(t, 0);

            // Chaos: every map-output segment must be fetched intact before
            // the reducer runs; a dropped or corrupted segment is really
            // re-fetched (the retry loop gates delivery) with backoff
            // charged to the sim clock.
            let fetch_scope = format!("{}/r{t}", spec.name);
            let mut refetches = 0u32;
            let mut fetch_faults = 0u64;
            let mut fetch_backoff = 0.0f64;
            for seg in 0..meta.segments {
                let mut attempt = 0u32;
                while let Some(kind) =
                    spec.chaos
                        .decide(FaultSite::ShuffleFetch, &fetch_scope, seg, attempt)
                {
                    fetch_faults += 1;
                    spec.tracer.emit(|| EventKind::FaultInjected {
                        site: FaultSite::ShuffleFetch.as_str().into(),
                        fault: kind.as_str().into(),
                        scope: fetch_scope.clone(),
                        index: seg,
                        attempt: u64::from(attempt),
                    });
                    fetch_backoff += spec.chaos.backoff.delay_seconds(attempt);
                    refetches += 1;
                    attempt += 1;
                }
            }
            if fetch_faults > 0 {
                ctx.incr("chaos_faults_injected", fetch_faults);
                ctx.incr("chaos_shuffle_refetches", u64::from(refetches));
            }

            // Take ownership of this task's input (each source is consumed
            // exactly once), reloading spilled inputs just in time so only
            // the currently-reducing spilled inputs are resident.
            let source = sources[t]
                .lock()
                .take()
                .expect("each reduce input is consumed exactly once");
            let owned_groups: Vec<(K, Vec<V>)> = match source {
                ReduceSource::Mem(groups) => groups,
                ReduceSource::Spilled { file, keys } => {
                    let path = &file.0;
                    ctx.incr("spilled_inputs", 1);
                    reduce_mem.acquire(meta.bytes);
                    let cfg = spec
                        .spill
                        .as_ref()
                        .expect("spilled input implies a spill config");
                    let mut reader = SpillReader::open(path)
                        .unwrap_or_else(|e| panic!("open spill {}: {e}", path.display()));
                    let mut groups: Vec<(K, Vec<V>)> = Vec::with_capacity(keys.len());
                    for (k, n) in keys {
                        let mut vs: Vec<V> = Vec::with_capacity(n);
                        for _ in 0..n {
                            let frame = reader
                                .next_frame()
                                .unwrap_or_else(|e| panic!("read spill {}: {e}", path.display()))
                                .unwrap_or_else(|| panic!("spill {} truncated", path.display()));
                            vs.push((cfg.decode)(&frame));
                        }
                        groups.push((k, vs));
                    }
                    groups
                }
            };

            let mut groups: Vec<(K, Vec<O>)> = Vec::with_capacity(owned_groups.len());
            for (k, vs) in owned_groups {
                ctx.add_records_in(vs.len() as u64);
                let mut out: Vec<O> = Vec::new();
                reducer.reduce(&k, vs, &mut ctx, &mut out);
                ctx.add_records_out(out.len() as u64);
                groups.push((k, out));
            }
            reduce_mem.release(meta.bytes);
            let compute =
                spec.cost
                    .task_duration(ctx.records_in(), ctx.records_out(), ctx.work_units());
            let fetch = spec.cost.shuffle_duration(meta.bytes, meta.segments);
            let per_segment = if meta.segments > 0 {
                fetch / meta.segments as f64
            } else {
                0.0
            };
            ReduceTaskOut {
                groups,
                records_in: ctx.records_in(),
                records_out: ctx.records_out(),
                work_units: ctx.work_units(),
                duration: compute + fetch + per_segment * f64::from(refetches) + fetch_backoff,
                counters: ctx.counters().clone(),
            }
        },
    );

    let reduce_durations: Vec<f64> = reduce_results.iter().map(|r| r.duration).collect();
    let reduce_schedule = schedule_phase(
        &reduce_durations,
        spec.cluster.reduce_slots(),
        map_schedule.end,
    );
    // reduce tasks run once: a faulted shuffle fetch re-fetches a segment,
    // it does not re-run the task
    emit_phase_trace(
        &spec.tracer,
        &spec.name,
        PhaseKind::Reduce,
        &reduce_schedule,
        &[],
    );

    let mut reduce_metrics = PhaseMetrics {
        tasks: reduce_results.len(),
        attempts: reduce_results.len() as u32,
        records_in: reduce_results.iter().map(|r| r.records_in).sum(),
        records_out: reduce_results.iter().map(|r| r.records_out).sum(),
        bytes_out: 0,
        work_units: reduce_results.iter().map(|r| r.work_units).sum(),
        sim_start: map_schedule.end,
        sim_end: reduce_schedule.end,
        task_durations: reduce_durations,
        counters: Default::default(),
    };
    for r in &reduce_results {
        reduce_metrics.merge_counters(&r.counters);
    }
    if spill_write_errors > 0 {
        let errs: BTreeMap<&'static str, u64> = [("spill_write_errors", spill_write_errors)]
            .into_iter()
            .collect();
        reduce_metrics.merge_counters(&errs);
    }

    let groups: Vec<(K, Vec<O>)> = reduce_results.into_iter().flat_map(|r| r.groups).collect();

    let peak_mem = PeakMemBytes {
        map_out: map_mem.peak(),
        reduce_in: reduce_mem.peak(),
    };
    spec.tracer.emit(|| EventKind::PhasePeakMemory {
        job: spec.name.clone(),
        phase: PhaseKind::Map,
        peak_bytes: peak_mem.map_out,
    });
    spec.tracer.emit(|| EventKind::PhasePeakMemory {
        job: spec.name.clone(),
        phase: PhaseKind::Reduce,
        peak_bytes: peak_mem.reduce_in,
    });
    // Global gauges for dashboard scrapes (no-ops while the registry is
    // disabled); gauge_max so chained jobs report the run-wide high water.
    let registry = mrsky_trace::metrics();
    registry.gauge_max("mapreduce.peak_mem.map_out_bytes", peak_mem.map_out as f64);
    registry.gauge_max(
        "mapreduce.peak_mem.reduce_in_bytes",
        peak_mem.reduce_in as f64,
    );

    let sim_total = spec.cost.job_overhead + reduce_schedule.end;
    let metrics = JobMetrics {
        name: spec.name.clone(),
        map: map_metrics,
        reduce: reduce_metrics,
        shuffle_bytes,
        job_overhead: spec.cost.job_overhead,
        sim_total,
        wall_seconds: spec.tracer.now_us().saturating_sub(wall_start_us) as f64 / 1e6,
        peak_mem,
    };
    spec.tracer.emit(|| EventKind::JobFinished {
        job: spec.name.clone(),
        sim_total: metrics.sim_total,
        wall_seconds: metrics.wall_seconds,
    });

    JobResult { groups, metrics }
}

/// Emits the task-lifecycle trace of one scheduled phase: the phase
/// announcement, each task's retries and completion, and the phase close.
/// `attempts[t]` is the total attempt count of task `t` (1 = no retries); a
/// task past the end of `attempts` ran once.
fn emit_phase_trace(
    tracer: &Tracer,
    job: &str,
    phase: PhaseKind,
    schedule: &crate::scheduler::PhaseSchedule,
    attempts: &[u32],
) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.emit(|| EventKind::PhaseStarted {
        job: job.to_string(),
        phase,
        tasks: schedule.timeline.len() as u64,
        sim: schedule.start,
    });
    for ts in &schedule.timeline {
        let task = ts.task as u64;
        for attempt in 1..attempts.get(ts.task).copied().unwrap_or(1) {
            tracer.emit(|| EventKind::TaskRetried {
                job: job.to_string(),
                phase,
                task,
                attempt: u64::from(attempt),
            });
        }
        tracer.emit(|| EventKind::TaskFinished {
            job: job.to_string(),
            phase,
            task,
            slot: ts.slot as u64,
            sim_start: ts.start,
            sim_end: ts.end,
        });
    }
    // Causal edges for slot occupancy: the first task launched on each slot
    // is dispatched by the phase start; every later task on that slot waits
    // for its predecessor to release the slot. Together with the barrier and
    // shuffle edges these tile the whole schedule, so the critical-path
    // analyzer can walk end-to-start without gaps.
    let mut by_slot: BTreeMap<usize, Vec<&crate::scheduler::TaskSlot>> = BTreeMap::new();
    for ts in &schedule.timeline {
        by_slot.entry(ts.slot).or_default().push(ts);
    }
    for spans in by_slot.values_mut() {
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        let mut prev: Option<usize> = None;
        for ts in spans {
            let dst = format!("task:{job}/{}/{}", phase.as_str(), ts.task);
            let (edge, src) = match prev {
                None => ("dispatch", format!("phase:{job}/{}", phase.as_str())),
                Some(p) => ("slot", format!("task:{job}/{}/{p}", phase.as_str())),
            };
            tracer.emit(|| EventKind::CausalEdge {
                edge: edge.into(),
                src: src.clone(),
                dst: dst.clone(),
            });
            prev = Some(ts.task);
        }
    }
    tracer.emit(|| EventKind::PhaseFinished {
        job: job.to_string(),
        phase,
        sim: schedule.end,
    });
}

/// Cuts `len` records into `tasks` contiguous near-equal ranges.
fn split_ranges(len: usize, tasks: usize) -> Vec<(usize, usize)> {
    assert!(tasks >= 1);
    let base = len / tasks;
    let extra = len % tasks;
    let mut out = Vec::with_capacity(tasks);
    let mut lo = 0;
    for t in 0..tasks {
        let size = base + usize::from(t < extra);
        out.push((lo, lo + size));
        lo += size;
    }
    debug_assert_eq!(lo, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn word_count_spec(servers: usize) -> JobSpec<String, u64> {
        JobSpec::new("wordcount", ClusterConfig::new(servers)).with_reducers(2)
    }

    fn run_word_count(
        spec: &JobSpec<String, u64>,
        docs: &[String],
    ) -> JobResult<String, (String, u64)> {
        let mapper = |doc: &String, ctx: &mut TaskContext, out: &mut Emitter<String, u64>| {
            for w in doc.split_whitespace() {
                ctx.add_work(1);
                out.emit(w.to_string(), 1);
            }
        };
        let reducer =
            |k: &String, vs: Vec<u64>, ctx: &mut TaskContext, out: &mut Vec<(String, u64)>| {
                ctx.add_work(vs.len() as u64);
                out.push((k.clone(), vs.iter().sum()));
            };
        run_job(spec, docs, &mapper, &reducer)
    }

    fn docs() -> Vec<String> {
        vec![
            "the quick brown fox".to_string(),
            "the lazy dog".to_string(),
            "the quick dog barks".to_string(),
            "fox and dog".to_string(),
        ]
    }

    fn counts(result: JobResult<String, (String, u64)>) -> BTreeMap<String, u64> {
        result.into_outputs().into_iter().collect()
    }

    #[test]
    fn word_count_end_to_end() {
        let out = counts(run_word_count(&word_count_spec(2), &docs()));
        assert_eq!(out["the"], 3);
        assert_eq!(out["dog"], 3);
        assert_eq!(out["quick"], 2);
        assert_eq!(out["barks"], 1);
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let mut spec = word_count_spec(3);
        let a = counts(run_word_count(&spec, &docs()));
        spec.threads = 1;
        let b = counts(run_word_count(&spec, &docs()));
        spec.threads = 8;
        let c = counts(run_word_count(&spec, &docs()));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn more_servers_reduce_simulated_time() {
        // enough records that the map phase has real work per task
        let docs: Vec<String> = (0..2000)
            .map(|i| format!("w{} w{} common", i % 50, i % 7))
            .collect();
        let small = run_word_count(&word_count_spec(2).with_map_tasks(32), &docs);
        let large = run_word_count(&word_count_spec(16).with_map_tasks(32), &docs);
        assert!(
            large.metrics.sim_total < small.metrics.sim_total,
            "16 servers {} should beat 2 servers {}",
            large.metrics.sim_total,
            small.metrics.sim_total
        );
    }

    #[test]
    fn sim_time_decomposes() {
        let r = run_word_count(&word_count_spec(2), &docs());
        let m = &r.metrics;
        assert!((m.sim_total - (m.job_overhead + m.map_time() + m.reduce_time())).abs() < 1e-9);
        assert!(m.map_time() > 0.0);
        assert!(m.reduce_time() > 0.0);
        assert!(m.wall_seconds >= 0.0);
    }

    #[test]
    fn custom_router_controls_placement() {
        let mut spec: JobSpec<u64, u64> =
            JobSpec::new("routed", ClusterConfig::new(2)).with_reducers(4);
        spec.router = Some(Arc::new(|k: &u64, r: usize| (*k as usize) % r));
        let input: Vec<u64> = (0..100).collect();
        let mapper = |x: &u64, _ctx: &mut TaskContext, out: &mut Emitter<u64, u64>| {
            out.emit(x % 4, *x);
        };
        let reducer =
            |k: &u64, vs: Vec<u64>, _ctx: &mut TaskContext, out: &mut Vec<(u64, usize)>| {
                out.push((*k, vs.len()));
            };
        let result = run_job(&spec, &input, &mapper, &reducer);
        let by_key: BTreeMap<u64, usize> = result.into_outputs().into_iter().collect();
        assert_eq!(by_key.len(), 4);
        assert!(by_key.values().all(|&n| n == 25));
    }

    #[test]
    fn empty_input_completes() {
        let spec: JobSpec<u64, u64> = JobSpec::new("empty", ClusterConfig::new(1));
        let mapper = |_x: &u64, _c: &mut TaskContext, _o: &mut Emitter<u64, u64>| {};
        let reducer =
            |_k: &u64, _v: Vec<u64>, _c: &mut TaskContext, _o: &mut Vec<u64>| unreachable!();
        let result: JobResult<u64, u64> = run_job(&spec, &[], &mapper, &reducer);
        assert!(result.groups.is_empty());
        assert_eq!(result.metrics.map.records_in, 0);
    }

    #[test]
    fn split_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 100] {
            for tasks in [1usize, 2, 3, 8] {
                let ranges = split_ranges(len, tasks);
                assert_eq!(ranges.len(), tasks);
                let mut expected_lo = 0;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, expected_lo);
                    assert!(hi >= lo);
                    expected_lo = hi;
                }
                assert_eq!(expected_lo, len);
                // near-equal: sizes differ by at most 1
                let sizes: Vec<usize> = ranges.iter().map(|&(l, h)| h - l).collect();
                let mx = sizes.iter().max().unwrap();
                let mn = sizes.iter().min().unwrap();
                assert!(mx - mn <= 1);
            }
        }
    }

    #[test]
    fn map_task_auto_count_follows_input_size() {
        let spec: JobSpec<u64, u64> = JobSpec::new("auto", ClusterConfig::new(3));
        assert_eq!(spec.effective_map_tasks(1000), 1, "one small split");
        assert_eq!(
            spec.effective_map_tasks(100_000),
            63,
            "input-derived splits"
        );
        assert_eq!(spec.effective_map_tasks(5), 1, "one split for tiny input");
        assert_eq!(spec.effective_map_tasks(0), 1);
        // explicit task counts are still capped by the input size
        let explicit: JobSpec<u64, u64> =
            JobSpec::new("explicit", ClusterConfig::new(3)).with_map_tasks(10);
        assert_eq!(explicit.effective_map_tasks(5), 5);
        // split count does not depend on the cluster
        let big: JobSpec<u64, u64> = JobSpec::new("auto", ClusterConfig::new(32));
        assert_eq!(big.effective_map_tasks(100_000), 63);
    }

    #[test]
    fn tracer_records_a_schema_valid_stream() {
        use mrsky_chaos::{FaultKind, SiteRule};
        let mut plan = FaultPlan::off();
        plan.seed = 7;
        plan.max_attempts = 4;
        plan.rules = vec![SiteRule {
            site: FaultSite::MapTask,
            kind: FaultKind::TransientError,
            permille: 400,
        }];
        let mut spec = word_count_spec(2).with_map_tasks(4).with_chaos(plan);
        let tracer = Tracer::in_memory();
        spec.tracer = tracer.clone();
        let result = run_word_count(&spec, &docs());
        let events = tracer.drain();
        let problems = mrsky_trace::validate_events(&events);
        assert!(problems.is_empty(), "{problems:?}");
        // Retry events mirror the metrics' extra attempts exactly.
        let retries = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskRetried { .. }))
            .count();
        let extra_attempts = (result.metrics.map.attempts as usize - result.metrics.map.tasks)
            + (result.metrics.reduce.attempts as usize - result.metrics.reduce.tasks);
        assert!(extra_attempts > 0, "map-task faults must retry something");
        assert_eq!(retries, extra_attempts);
        // One shuffle record per reducer.
        let shuffles = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ShufflePartition { .. }))
            .count();
        assert_eq!(shuffles, spec.num_reducers);
    }

    #[test]
    fn disabled_tracer_leaves_results_unchanged() {
        let spec = word_count_spec(2);
        let traced = {
            let mut s = word_count_spec(2);
            s.tracer = Tracer::in_memory();
            s
        };
        assert_eq!(
            counts(run_word_count(&spec, &docs())),
            counts(run_word_count(&traced, &docs()))
        );
    }

    #[test]
    fn chaos_map_faults_are_really_retried_to_identical_output() {
        use mrsky_chaos::{FaultKind, FaultPlan, FaultSite, SiteRule};
        let docs: Vec<String> = (0..200)
            .map(|i| format!("w{} w{}", i % 13, i % 7))
            .collect();
        let clean = counts(run_word_count(&word_count_spec(2).with_map_tasks(8), &docs));
        for seed in [3u64, 17, 99] {
            let mut plan = FaultPlan::off();
            plan.seed = seed;
            plan.max_attempts = 6;
            plan.rules = vec![
                SiteRule {
                    site: FaultSite::MapTask,
                    kind: FaultKind::TransientError,
                    permille: 350,
                },
                SiteRule {
                    site: FaultSite::MapTask,
                    kind: FaultKind::Panic,
                    permille: 200,
                },
                SiteRule {
                    site: FaultSite::DfsRead,
                    kind: FaultKind::TransientError,
                    permille: 250,
                },
            ];
            let tracer = Tracer::in_memory();
            let mut spec = word_count_spec(2).with_map_tasks(8).with_chaos(plan);
            spec.tracer = tracer.clone();
            let faulty = run_word_count(&spec, &docs);
            let injected: u64 = faulty
                .metrics
                .map
                .counters
                .get("chaos_faults_injected")
                .copied()
                .unwrap_or(0);
            let retries: u64 = faulty
                .metrics
                .map
                .counters
                .get("chaos_map_retries")
                .copied()
                .unwrap_or(0);
            assert!(injected > 0, "seed {seed} must inject at least one fault");
            assert_eq!(
                retries, injected,
                "every injected map fault forces one real re-execution"
            );
            let events = tracer.drain();
            let problems = mrsky_trace::validate_events(&events);
            assert!(problems.is_empty(), "{problems:?}");
            let event_faults = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
                .count() as u64;
            assert_eq!(event_faults, injected);
            assert_eq!(counts(faulty), clean, "seed {seed}: chaos changed output");
        }
    }

    #[test]
    fn chaos_retries_charge_sim_time() {
        use mrsky_chaos::{FaultKind, FaultPlan, FaultSite, SiteRule};
        let docs: Vec<String> = (0..200).map(|i| format!("w{}", i % 11)).collect();
        let mut plan = FaultPlan::off();
        plan.seed = 5;
        plan.max_attempts = 6;
        plan.rules = vec![SiteRule {
            site: FaultSite::MapTask,
            kind: FaultKind::TransientError,
            permille: 500,
        }];
        let clean = run_word_count(&word_count_spec(2).with_map_tasks(8), &docs);
        let chaotic = run_word_count(
            &word_count_spec(2).with_map_tasks(8).with_chaos(plan),
            &docs,
        );
        assert!(
            chaotic.metrics.map.attempts > clean.metrics.map.attempts,
            "retries must show up as extra attempts"
        );
        assert!(
            chaotic.metrics.map.sim_span() > clean.metrics.map.sim_span(),
            "re-execution and backoff must cost simulated time"
        );
        assert_eq!(counts(chaotic), counts(clean));
    }

    #[test]
    fn chaos_shuffle_drops_force_refetches() {
        use mrsky_chaos::{FaultKind, FaultPlan, FaultSite, SiteRule};
        let docs: Vec<String> = (0..400)
            .map(|i| format!("w{} w{}", i % 19, i % 5))
            .collect();
        let mut plan = FaultPlan::off();
        plan.seed = 21;
        plan.max_attempts = 8;
        plan.rules = vec![SiteRule {
            site: FaultSite::ShuffleFetch,
            kind: FaultKind::DropRecord,
            permille: 400,
        }];
        let clean = run_word_count(&word_count_spec(2).with_map_tasks(8), &docs);
        let tracer = Tracer::in_memory();
        let mut spec = word_count_spec(2).with_map_tasks(8).with_chaos(plan);
        spec.tracer = tracer.clone();
        let chaotic = run_word_count(&spec, &docs);
        let refetches = chaotic
            .metrics
            .reduce
            .counters
            .get("chaos_shuffle_refetches")
            .copied()
            .unwrap_or(0);
        assert!(refetches > 0, "40% drop rate must force some re-fetch");
        assert!(
            chaotic.metrics.reduce.sim_span() > clean.metrics.reduce.sim_span(),
            "re-fetched segments must cost simulated reduce time"
        );
        let events = tracer.drain();
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::FaultInjected { site, .. } if site == "shuffle-fetch"
        )));
        assert!(mrsky_trace::validate_events(&events).is_empty());
        assert_eq!(counts(chaotic), counts(clean));
    }

    #[test]
    fn owned_merge_matches_row_shuffle_output() {
        let docs: Vec<String> = (0..300)
            .map(|i| format!("w{} w{} w{}", i % 23, i % 7, i % 3))
            .collect();
        let row = run_word_count(&word_count_spec(2).with_map_tasks(6), &docs);
        let merged_spec = word_count_spec(2)
            .with_map_tasks(6)
            .with_owned_merge(Arc::new(|acc: &mut u64, v: u64| {
                *acc += v;
                None
            }));
        let merged = run_word_count(&merged_spec, &docs);
        assert_eq!(
            merged.metrics.shuffle_bytes, row.metrics.shuffle_bytes,
            "merge must not change byte attribution"
        );
        // A full-absorption merge hands the reducer one value per key, so
        // its records_in shrinks to the distinct-key count (callers that
        // need routed-pair counts read the ShufflePartition trace events).
        assert!(
            merged.metrics.reduce.records_in < row.metrics.reduce.records_in,
            "merge must shrink the values the reducer touches"
        );
        assert_eq!(counts(row), counts(merged));
    }

    #[test]
    fn peak_mem_gauges_are_populated() {
        let r = run_word_count(&word_count_spec(2), &docs());
        assert!(r.metrics.peak_mem.map_out > 0, "map output was buffered");
        assert!(
            r.metrics.peak_mem.reduce_in > 0,
            "reduce input was resident"
        );
        // the shuffle conserves bytes, so both plateaus match total shuffle
        assert_eq!(r.metrics.peak_mem.map_out, r.metrics.shuffle_bytes);
    }

    fn u64_spill(dir: std::path::PathBuf, budget: u64) -> SpillConfig<u64> {
        SpillConfig {
            budget_bytes: budget,
            dir,
            encode: Arc::new(|v: &u64| v.to_le_bytes().to_vec()),
            decode: Arc::new(|b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte frame"))),
        }
    }

    #[test]
    fn spilled_reduce_inputs_round_trip_and_lower_peak() {
        let dir = std::env::temp_dir().join(format!("mrsky-rt-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let docs: Vec<String> = (0..500)
            .map(|i| format!("w{} w{}", i % 29, i % 11))
            .collect();
        let clean = run_word_count(&word_count_spec(2).with_map_tasks(8), &docs);
        let mut spec = word_count_spec(2).with_map_tasks(8);
        // budget 0: every reduce input spills
        spec = spec.with_spill(u64_spill(dir.clone(), 0));
        let spilled = run_word_count(&spec, &docs);
        assert_eq!(
            spilled
                .metrics
                .reduce
                .counters
                .get("spilled_inputs")
                .copied()
                .unwrap_or(0),
            spec.num_reducers as u64,
            "a zero budget spills every reducer's input"
        );
        assert_eq!(counts(clean), counts(spilled), "spill must be lossless");
        // consumed spill files are deleted by the reduce tasks
        let leftovers = std::fs::read_dir(&dir)
            .map(|d| d.filter_map(Result::ok).count())
            .unwrap_or(0);
        assert_eq!(leftovers, 0, "reduce tasks remove consumed spill files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_budget_gates_which_inputs_spill() {
        let dir = std::env::temp_dir().join(format!("mrsky-rt-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let docs: Vec<String> = (0..200).map(|i| format!("w{}", i % 13)).collect();
        // an enormous budget spills nothing
        let mut spec = word_count_spec(2).with_map_tasks(4);
        spec = spec.with_spill(u64_spill(dir.clone(), u64::MAX));
        let r = run_word_count(&spec, &docs);
        assert_eq!(
            r.metrics.reduce.counters.get("spilled_inputs"),
            None,
            "inputs under budget stay in memory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peak_memory_events_are_emitted_and_schema_valid() {
        let tracer = Tracer::in_memory();
        let mut spec = word_count_spec(2);
        spec.tracer = tracer.clone();
        let r = run_word_count(&spec, &docs());
        let events = tracer.drain();
        assert!(mrsky_trace::validate_events(&events).is_empty());
        let peaks: Vec<u64> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::PhasePeakMemory { peak_bytes, .. } => Some(*peak_bytes),
                _ => None,
            })
            .collect();
        assert_eq!(peaks.len(), 2, "one event per phase");
        assert_eq!(peaks[0], r.metrics.peak_mem.map_out);
        assert_eq!(peaks[1], r.metrics.peak_mem.reduce_in);
    }

    #[test]
    fn chaos_with_owned_merge_and_spill_still_exact() {
        use mrsky_chaos::FaultPlan;
        let dir = std::env::temp_dir().join(format!("mrsky-rt-chaos-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let docs: Vec<String> = (0..300)
            .map(|i| format!("w{} w{}", i % 17, i % 5))
            .collect();
        let clean = counts(run_word_count(&word_count_spec(2).with_map_tasks(6), &docs));
        let mut spec = word_count_spec(2)
            .with_map_tasks(6)
            .with_chaos(FaultPlan::heavy(7))
            .with_owned_merge(Arc::new(|acc: &mut u64, v: u64| {
                *acc += v;
                None
            }));
        spec = spec.with_spill(u64_spill(dir.clone(), 0));
        let stressed = run_word_count(&spec, &docs);
        assert_eq!(counts(stressed), clean, "merge+spill+chaos stays exact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_is_deterministic_for_a_fixed_seed() {
        use mrsky_chaos::FaultPlan;
        let docs: Vec<String> = (0..150).map(|i| format!("w{}", i % 9)).collect();
        let spec = || {
            word_count_spec(2)
                .with_map_tasks(6)
                .with_chaos(FaultPlan::heavy(42))
        };
        let a = run_word_count(&spec(), &docs);
        let b = run_word_count(&spec(), &docs);
        assert_eq!(a.metrics.map.attempts, b.metrics.map.attempts);
        assert_eq!(
            a.metrics.map.counters.get("chaos_faults_injected"),
            b.metrics.map.counters.get("chaos_faults_injected")
        );
        assert_eq!(counts(a), counts(b));
    }
}
