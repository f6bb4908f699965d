//! The shared two-job pipeline (paper Algorithm 1).
//!
//! **Job 1 — partitioning job.** Map: compute each service's partition id
//! (lines 2–6 of Algorithm 1; for MR-Angle this includes the hyperspherical
//! transform) and emit `(partition, service)`. Reduce: per partition, run
//! the local-skyline kernel (lines 7–10) and emit the survivors. MR-Grid's
//! dominated-cell pruning empties pruned partitions before the kernel runs.
//!
//! **Job 2 — merging job.** Map: rekey every local-skyline service under
//! the single key `0` (lines 12–14, the paper's `output(null, s)`), Reduce:
//! one task merges everything with a final kernel pass into the global
//! skyline (line 15).
//!
//! # Record layout
//!
//! Both jobs move columnar [`PointBlock`] batches instead of one `Point`
//! per record: a map record is a `(lo, hi)` range of at most
//! [`BLOCK_ROWS`] rows of the block the job borrows, the mapper shards the
//! range's rows by partition id with zero per-point allocations, and
//! reducers concatenate their value blocks into one flat buffer before
//! running a kernel from `skyline_algos::kernel`. Metric semantics:
//! `records_in` stays *point-weighted* (every task tops the counter up to
//! one record per service, keeping record counts comparable with the
//! paper's per-record accounting), while `records_out` counts the shuffled
//! block records — batching genuinely cuts per-record overhead and the
//! simulated cost model sees that. Shuffle bytes are unchanged in spirit:
//! the sizer charges per row, plus one 8-byte key per block.

use crate::checkpoint::CheckpointStore;
use crate::config::AlgoConfig;
use mini_mapreduce::pool;
use mini_mapreduce::prelude::*;
use mini_mapreduce::runtime::{SpillConfig, RECORDS_PER_SPLIT};
use mini_mapreduce::OwnedMergeFn;
use mrsky_chaos::{FaultPlan, KillSwitch, KILL_PAYLOAD};
use mrsky_trace::{EventKind, Tracer};
use qws_data::Dataset;
use skyline_algos::block::PointBlock;
use skyline_algos::filter::{filtered_out, FilterCandidates};
use skyline_algos::kernel::{presort_merge_stats, BnlConfig, KernelStats};
use skyline_algos::partition::{witness_prunable, SpacePartitioner};
use skyline_algos::point::Point;
use skyline_algos::select::{select_for_block, BlockKernel};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Rows per map record: a map record's row range, and so each block a
/// mapper emits, holds at most this many services.
const BLOCK_ROWS: usize = 256;

/// Shared wire-size estimator for `(partition id, service block)` pairs.
type BlockSizer = Arc<dyn Fn(&u64, &PointBlock) -> usize + Send + Sync>;

/// Everything the pipeline needs beyond the dataset and the partitioner.
#[derive(Clone)]
pub struct PipelineOptions {
    /// Display name prefix for the two jobs (e.g. `"MR-Angle"`).
    pub name: String,
    /// Simulated cluster.
    pub cluster: ClusterConfig,
    /// Cost model.
    pub cost: CostModel,
    /// Host execution threads (`0` = all cores).
    pub threads: usize,
    /// Algorithm knobs (kernel, window, pruning).
    pub config: AlgoConfig,
    /// Map-stage work units charged per input point (partition-assignment
    /// cost; see [`crate::algorithms::map_work_per_point`]).
    pub map_work_per_point: u64,
    /// Structured-event tracer, threaded into both simulated jobs and the
    /// reduce-side kernels. [`Tracer::disabled`] costs one branch per site.
    pub tracer: Tracer,
    /// Seeded fault-injection plan, threaded into every simulated job
    /// (map re-execution, DFS read faults, shuffle re-fetches).
    pub chaos: FaultPlan,
    /// Per-partition local-skyline checkpoint store. When set, Job 1
    /// durably records each finished partition.
    pub checkpoints: Option<Arc<CheckpointStore>>,
    /// Finished partitions' local skylines, read back from `checkpoints`
    /// by a resumed run (empty for a fresh one): they are restored
    /// verbatim, their points dropped from Job 1's input, and only what
    /// never completed is recomputed. The caller reads them and validates
    /// the manifest (see `SkylineJob::run_resilient`).
    pub restored: BTreeMap<u64, Vec<Point>>,
    /// Crash simulator: when armed, Job 1 dies ([`KILL_PAYLOAD`]) after
    /// the switch's checkpoint-write budget (see [`KillSwitch`]).
    pub kill: Option<Arc<KillSwitch>>,
}

/// Everything the pipeline produces.
pub struct PipelineOutput {
    /// Per-partition local skylines, sorted by partition id. Pruned and
    /// empty partitions appear with empty skylines only if they received
    /// points.
    pub local_skylines: Vec<(u64, Vec<Point>)>,
    /// The global skyline.
    pub global_skyline: Vec<Point>,
    /// Combined metrics of both jobs (map/reduce spans concatenated).
    pub metrics: JobMetrics,
    /// Point count per partition (length = partitioner's partition count).
    pub partition_counts: Vec<usize>,
    /// Number of partitions whose local-skyline work was skipped, by
    /// dominated-cell pruning or sector-witness pruning combined.
    pub pruned_partitions: usize,
    /// Rows dropped map-side by the broadcast filter before the shuffle.
    pub rows_filtered: u64,
    /// Partitions pruned by the sector-witness argument alone (i.e. beyond
    /// what dominated-cell pruning already caught).
    pub sector_pruned_partitions: usize,
}

/// Map-task count preserving the runtime's "one split per
/// [`RECORDS_PER_SPLIT`] records" rule in *services*, not row ranges
/// (range records are ~256× denser, so auto-splitting on them would
/// collapse the map wave structure the paper's figures depend on).
fn point_splits(points: usize) -> usize {
    points.div_ceil(RECORDS_PER_SPLIT).max(1)
}

/// Concatenates shuffle value blocks into one flat batch.
fn concat_blocks(dim: usize, blocks: &[PointBlock]) -> PointBlock {
    let rows = blocks.iter().map(PointBlock::len).sum();
    let mut out = PointBlock::with_capacity(dim, rows);
    for b in blocks {
        out.extend_from_block(b);
    }
    out
}

/// Concatenates owned shuffle value blocks without copying the first one:
/// the first block is moved out wholesale and the rest are drained into it
/// (`append_owned`). Under the zero-copy shuffle a reducer receives one
/// already-concatenated block per key, making this a pure move.
fn concat_owned(dim: usize, blocks: Vec<PointBlock>) -> PointBlock {
    let mut it = blocks.into_iter();
    let mut out = it.next().unwrap_or_else(|| PointBlock::new(dim));
    for b in it {
        out.append_owned(b)
            .expect("same-job blocks share dimension");
    }
    out
}

/// Ownership-transfer merge for the shuffle: same-key blocks concatenate
/// in place during routing, so the reducer sees one flat block per key and
/// no value is ever cloned. Blocks of mismatched dimension (impossible
/// within one job, but the merge must be total) stay separate.
fn owned_block_merge() -> OwnedMergeFn<PointBlock> {
    Arc::new(|acc: &mut PointBlock, b: PointBlock| {
        if acc.dim() == b.dim() {
            acc.append_owned(b).expect("dimensions checked");
            None
        } else {
            Some(b)
        }
    })
}

/// Flat little-endian spill frame for one block:
/// `dim:u32, len:u32, ids:[u64], coord bits:[u64]`.
fn encode_block(b: &PointBlock) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + b.len() * 8 + b.coords().len() * 8);
    out.extend_from_slice(&(b.dim() as u32).to_le_bytes());
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    for id in b.ids() {
        out.extend_from_slice(&id.to_le_bytes());
    }
    for c in b.coords() {
        out.extend_from_slice(&c.to_bits().to_le_bytes());
    }
    out
}

/// Inverse of [`encode_block`]. Panics on a malformed frame — spill files
/// are written and read within one run, so corruption is a bug, not input.
fn decode_block(bytes: &[u8]) -> PointBlock {
    let dim = u32::from_le_bytes(bytes[0..4].try_into().expect("frame header")) as usize;
    let len = u32::from_le_bytes(bytes[4..8].try_into().expect("frame header")) as usize;
    let mut b = PointBlock::with_capacity(dim, len);
    let ids = &bytes[8..8 + len * 8];
    let coords = &bytes[8 + len * 8..];
    assert_eq!(coords.len(), len * dim * 8, "torn spill frame");
    let mut row = vec![0.0f64; dim];
    for i in 0..len {
        let id = u64::from_le_bytes(ids[i * 8..(i + 1) * 8].try_into().expect("id"));
        for (j, slot) in row.iter_mut().enumerate() {
            let at = (i * dim + j) * 8;
            *slot = f64::from_bits(u64::from_le_bytes(
                coords[at..at + 8].try_into().expect("coord"),
            ));
        }
        b.push(id, &row)
            .expect("spilled rows were valid when written");
    }
    b
}

/// Resolves the configured spill policy into a runtime [`SpillConfig`]
/// with the block codec attached.
fn spill_config(cfg: &AlgoConfig) -> Option<SpillConfig<PointBlock>> {
    cfg.spill_budget_bytes.map(|budget_bytes| SpillConfig {
        budget_bytes,
        dir: cfg.spill_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("mrsky-spill-{}", std::process::id()))
        }),
        encode: Arc::new(encode_block),
        decode: Arc::new(decode_block),
    })
}

/// Re-packs an AoS kernel result into a block.
fn repack(dim: usize, points: &[Point]) -> PointBlock {
    let mut out = PointBlock::with_capacity(dim, points.len());
    for p in points {
        out.push_point(p);
    }
    out
}

/// What one kernel invocation produced: the skyline block, the dim-weighted
/// work units the cost model charges, and the raw figures the trace's
/// [`EventKind::KernelRun`] events report.
struct KernelOutcome {
    sky: PointBlock,
    work: u64,
    comparisons: u64,
    passes: u64,
    /// Name of the kernel that actually ran — under automatic selection
    /// this is the per-partition choice, not "auto".
    kernel: &'static str,
}

impl KernelOutcome {
    /// Emits a [`EventKind::KernelRun`] for this invocation over `input`
    /// points, `elapsed_us` of tracer-clock time after it finished. One
    /// branch when the tracer is disabled.
    fn trace(&self, tracer: &Tracer, input: u64, elapsed_us: u64) {
        tracer.emit(|| EventKind::KernelRun {
            kernel: self.kernel.to_string(),
            input,
            output: self.sky.len() as u64,
            comparisons: self.comparisons,
            passes: self.passes,
            elapsed_us,
        });
    }
}

impl From<(PointBlock, KernelStats, &'static str)> for KernelOutcome {
    fn from((sky, stats, kernel): (PointBlock, KernelStats, &'static str)) -> Self {
        // Sort-based local kernels front-load an O(n log n) presort that the
        // dominance counters never see; charge it to the cost model so the
        // simulated timeline doesn't credit avoided comparisons for free.
        // (`presort-merge` predates this accounting and keeps the seed
        // cost shape: every scheme's merge runs the same kernel, so merge
        // costs compare candidate *counts* either way.)
        let sort_work = match kernel {
            "sfs" | "salsa" => CostModel::presort_work_units(stats.input_len),
            _ => 0,
        };
        KernelOutcome {
            sky,
            work: stats.dim_weighted + sort_work,
            comparisons: stats.comparisons,
            passes: u64::from(stats.passes),
            kernel,
        }
    }
}

/// Runs the configured local-skyline kernel over one block, natively on
/// the columnar layout (see DESIGN.md "Data layout & kernels" and "Local
/// kernel selection"). `None` resolves to a concrete kernel per block via
/// [`select_for_block`], and the returned outcome names the kernel that
/// actually ran.
fn run_local_kernel(
    block: &PointBlock,
    kernel: Option<BlockKernel>,
    window: Option<usize>,
) -> KernelOutcome {
    let bnl_cfg = window.map_or_else(BnlConfig::unbounded, BnlConfig::with_window);
    let kernel = kernel.unwrap_or_else(|| select_for_block(block));
    let (sky, stats) = kernel.run(block, &bnl_cfg);
    (sky, stats, kernel.name()).into()
}

/// Runs the merge-stage kernel: candidates are presorted by L1 norm so one
/// filtering pass suffices ([`presort_merge_stats`]), independent of which
/// local kernel is configured. Every scheme's merge gets the same kernel,
/// so merge cost differences between schemes reflect candidate *counts*,
/// not candidate order. The pass runs on `threads` host threads (see
/// [`host_threads`]); its output and counts do not depend on them.
fn run_merge_kernel(block: &PointBlock, threads: usize) -> KernelOutcome {
    let (sky, stats) = presort_merge_stats(block, host_threads(threads));
    (sky, stats, "presort-merge").into()
}

/// The host threads a [`PipelineOptions::threads`] value asks for: `0`
/// resolves to [`pool::default_threads`].
fn host_threads(threads: usize) -> usize {
    if threads == 0 {
        pool::default_threads()
    } else {
        threads
    }
}

/// The `(lo, hi)` row ranges of at most [`BLOCK_ROWS`] rows that both jobs
/// take as map records. The mappers read a range's rows from the block the
/// job borrows, so no split is copied out of it before the job starts.
fn row_ranges(rows: usize) -> Vec<(usize, usize)> {
    (0..rows)
        .step_by(BLOCK_ROWS)
        .map(|lo| (lo, (lo + BLOCK_ROWS).min(rows)))
        .collect()
}

/// The partition of every row in `range` of `block`, in row order, through
/// the batched [`SpacePartitioner::assign_rows`].
fn assign_range(
    partitioner: &dyn SpacePartitioner,
    block: &PointBlock,
    range: std::ops::Range<usize>,
) -> Vec<usize> {
    let d = block.dim();
    let mut pids = vec![0usize; range.len()];
    partitioner.assign_rows(
        &block.ids()[range.clone()],
        &block.coords()[range.start * d..range.end * d],
        &mut pids,
    );
    pids
}

/// Rows per partition-profile task. Fixed, so the ranges and the order
/// they are folded in do not depend on the thread count.
const PROFILE_ROWS: usize = 16_384;

/// What one pass over the input tells the pipeline before Job 1.
struct Profile {
    /// Rows per partition.
    counts: Vec<usize>,
    /// Observed coordinate minima per partition (`None` for a partition no
    /// row reaches).
    observed_min: Vec<Option<Vec<f64>>>,
    /// The broadcast filter block:
    /// [`select_filter_points`](skyline_algos::filter::select_filter_points)
    /// of the input.
    filter_points: PointBlock,
}

/// Per-partition row counts and observed minima, and the `filter_k`
/// filter points, computed over fixed row ranges of `block` on the pool
/// and folded in range order.
fn partition_profile(
    partitioner: &dyn SpacePartitioner,
    block: &PointBlock,
    threads: usize,
    filter_k: usize,
) -> Profile {
    let np = partitioner.num_partitions();
    let d = block.dim();
    let threads = host_threads(threads);
    let ranges = pool::run_indexed(block.len().div_ceil(PROFILE_ROWS), threads, |r| {
        let mut counts = vec![0usize; np];
        let mut mins = vec![f64::INFINITY; np * d];
        let mut candidates = FilterCandidates::new(filter_k);
        let (lo, hi) = (r * PROFILE_ROWS, ((r + 1) * PROFILE_ROWS).min(block.len()));
        for (i, p) in (lo..hi).zip(assign_range(partitioner, block, lo..hi)) {
            let (id, row) = (block.id(i), block.row(i));
            counts[p] += 1;
            for (m, &v) in mins[p * d..(p + 1) * d].iter_mut().zip(row) {
                *m = m.min(v);
            }
            candidates.push(i, id, row);
        }
        (counts, mins, candidates)
    });
    let mut counts = vec![0usize; np];
    let mut mins = vec![f64::INFINITY; np * d];
    let mut candidates = FilterCandidates::new(filter_k);
    for (range_counts, range_mins, range_candidates) in ranges {
        for (c, rc) in counts.iter_mut().zip(range_counts) {
            *c += rc;
        }
        for (m, rm) in mins.iter_mut().zip(range_mins) {
            *m = m.min(rm);
        }
        candidates.merge(range_candidates);
    }
    let observed_min = counts
        .iter()
        .zip(mins.chunks_exact(d))
        .map(|(&c, m)| (c > 0).then(|| m.to_vec()))
        .collect();
    Profile {
        counts,
        observed_min,
        filter_points: candidates.select(block),
    }
}

/// Runs the two-job chain of `partitioner` over `dataset`.
pub fn run_two_job_pipeline(
    partitioner: Arc<dyn SpacePartitioner>,
    dataset: &Dataset,
    opts: &PipelineOptions,
) -> PipelineOutput {
    let num_partitions = partitioner.num_partitions();
    // The dataset's own columnar rows; map splits are slices of them.
    let input_block = dataset.block();
    let dim = input_block.dim();
    let sizer: BlockSizer = Arc::new(|_k: &u64, b: &PointBlock| 8 + b.wire_size());

    // Broadcast filter points (per-dimension minima + smallest-L1 fillers).
    // `filter_k == 0` disables map-side filtering, but the same candidates
    // still serve as pruning witnesses below, so selection falls back to
    // the automatic size in that case.
    let filter_k = opts.config.filter_points_for(dim);
    let witness_k = if filter_k > 0 {
        filter_k
    } else {
        crate::config::auto_filter_points(dim)
    };

    // Partition profile: per-partition counts and per-partition observed
    // coordinate minima, computed up front (the Hadoop analogue is a
    // counter pass / sampling job published via the distributed cache) and
    // used for grid pruning, witness pruning, and load metrics; the same
    // pass gathers the filter points' candidates.
    let Profile {
        counts: partition_counts,
        observed_min,
        filter_points,
    } = opts.tracer.span("pipeline.partition_profile", || {
        partition_profile(partitioner.as_ref(), input_block, opts.threads, witness_k)
    });
    let filter_points = Arc::new(filter_points);
    let map_filter: Option<Arc<PointBlock>> =
        (filter_k > 0 && !filter_points.is_empty()).then(|| Arc::clone(&filter_points));

    // Sector-witness pruning: a partition whose best possible corner (its
    // sector envelope tightened by observed minima) is dominated by a
    // filter point living in another partition cannot contribute a single
    // skyline point, so its local-skyline task is skipped outright.
    let mut prunable_vec = if opts.config.grid_pruning {
        partitioner.prunable(&partition_counts)
    } else {
        vec![false; num_partitions]
    };
    let mut sector_pruned_partitions = 0usize;
    if opts.config.sector_prune && num_partitions > 0 {
        let witnesses: Vec<(usize, Vec<f64>)> = filter_points
            .iter()
            .map(|(id, row)| (partitioner.partition_of_row(id, row), row.to_vec()))
            .collect();
        let witness_mask = witness_prunable(partitioner.as_ref(), &observed_min, &witnesses);
        for (h, hit) in witness_mask.iter().enumerate() {
            if *hit && !prunable_vec[h] {
                sector_pruned_partitions += 1;
                prunable_vec[h] = true;
                let points = partition_counts[h] as u64;
                opts.tracer.emit(|| EventKind::SectorPruned {
                    partition: h as u64,
                    points,
                });
            }
        }
    }
    let prunable: Arc<Vec<bool>> = Arc::new(prunable_vec);
    let pruned_partitions = prunable.iter().filter(|&&p| p).count();

    // ---- Checkpoint restore ----
    // A resumed run trusts every completed checkpoint: those partitions'
    // local skylines are restored verbatim and their points never enter
    // Job 1 (no recomputation — the trace validator enforces it).
    let restored = &opts.restored;
    for (p, sky) in restored {
        opts.tracer.emit(|| EventKind::CheckpointRestored {
            partition: *p,
            points: sky.len() as u64,
        });
    }
    // Rows of restored partitions skip Job 1, so the broadcast filter
    // never meets them there; they are counted here instead, which keeps
    // `rows_filtered` equal to a fresh run's whatever the kill point.
    let mut restored_rows_filtered = 0u64;
    let job1_input: Cow<'_, PointBlock> = if restored.is_empty() {
        Cow::Borrowed(input_block)
    } else {
        let mut b = PointBlock::with_capacity(dim, input_block.len());
        let pids = assign_range(partitioner.as_ref(), input_block, 0..input_block.len());
        for (i, pid) in pids.into_iter().enumerate() {
            let row = input_block.row(i);
            if !restored.contains_key(&(pid as u64)) {
                b.push_row_from(input_block, i);
            } else if map_filter.as_ref().is_some_and(|f| filtered_out(f, row)) {
                restored_rows_filtered += 1;
            }
        }
        Cow::Owned(b)
    };

    // ---- Scale plumbing shared by every job in the chain ----
    let owned_merge: Option<OwnedMergeFn<PointBlock>> =
        opts.config.owned_shuffle.then(owned_block_merge);
    let spill = spill_config(&opts.config);

    // ---- Job 1: partition + local skylines ----
    // One reduce task per partition, as a Hadoop job would configure for a
    // partition-keyed reduce; the cluster's reduce slots bound *concurrency*
    // (waves), not the task count.
    let mut spec1: JobSpec<u64, PointBlock> =
        JobSpec::new(format!("{}-partition", opts.name), opts.cluster.clone())
            .with_reducers(num_partitions.max(1))
            .with_map_tasks(point_splits(job1_input.len()));
    spec1.owned_merge = owned_merge.clone();
    spec1.spill = spill.clone();
    spec1.cost = opts.cost.clone();
    spec1.threads = opts.threads;
    spec1.sizer = Some(sizer.clone());
    spec1.router = Some(Arc::new(|k: &u64, r: usize| (*k % r as u64) as usize));
    spec1.tracer = opts.tracer.clone();
    spec1.chaos = opts.chaos.clone();

    let part = Arc::clone(&partitioner);
    let map_work = opts.map_work_per_point;
    let block1: &PointBlock = &job1_input;
    let mapper1 = move |&(lo, hi): &(usize, usize),
                        ctx: &mut TaskContext,
                        out: &mut Emitter<u64, PointBlock>| {
        // The runtime charges one record per range; top up so records
        // stay point-weighted. The top-up uses the *unfiltered* range
        // length and filtered rows are never charged again downstream,
        // so `records_in` counts every input service exactly once no
        // matter how many the broadcast filter drops.
        let rows = hi - lo;
        ctx.add_records_in(rows.saturating_sub(1) as u64);
        ctx.add_work(map_work * rows as u64);
        let survivors: Vec<usize> = (lo..hi)
            .filter(|&i| {
                !map_filter
                    .as_ref()
                    .is_some_and(|f| filtered_out(f, block1.row(i)))
            })
            .collect();
        let dropped = (rows - survivors.len()) as u64;
        // The survivors' sectors in one batch: the range itself when the
        // filter dropped nothing, else a copy of the rows it kept.
        let kept;
        let (src, range) = if dropped == 0 {
            (block1, lo..hi)
        } else {
            let mut b = PointBlock::with_capacity(dim, survivors.len());
            for &i in &survivors {
                b.push_row_from(block1, i);
            }
            kept = b;
            (&kept, 0..kept.len())
        };
        let mut shards: Vec<PointBlock> = vec![PointBlock::new(dim); num_partitions.max(1)];
        for (i, pid) in range.clone().zip(assign_range(part.as_ref(), src, range)) {
            shards[pid].push_row_from(src, i);
        }
        if let Some(f) = &map_filter {
            // the broadcast sweep costs at most one dominance test per
            // (row, filter point) pair
            ctx.add_work((f.len() * rows) as u64);
            if dropped > 0 {
                ctx.incr("rows_filtered", dropped);
            }
        }
        for (pid, shard) in shards.into_iter().enumerate() {
            if !shard.is_empty() {
                out.emit(pid as u64, shard);
            }
        }
    };
    let kernel = opts.config.kernel;
    let window = opts.config.bnl_window;
    let prune_mask = Arc::clone(&prunable);
    // Reducers run on pool threads; the tracer clone shares one sink behind
    // a mutex, so events from concurrent partitions interleave but keep
    // globally ordered sequence numbers.
    let tracer1 = opts.tracer.clone();
    let ckpt_store = opts.checkpoints.clone();
    let kill_switch = opts.kill.clone();
    let ckpt_tracer = opts.tracer.clone();
    // Durably records a finished partition and trips the crash simulator
    // once its write budget is crossed. No-op without a store.
    let write_checkpoint = move |ctx: &mut TaskContext, partition: u64, sky: &[Point]| {
        let Some(store) = &ckpt_store else { return };
        store
            .write_partition(partition, sky)
            .unwrap_or_else(|e| panic!("checkpoint write for partition {partition} failed: {e}"));
        ctx.incr("checkpoints_written", 1);
        ckpt_tracer.emit(|| EventKind::CheckpointWritten {
            partition,
            points: sky.len() as u64,
        });
        if let Some(k) = &kill_switch {
            if k.record_write() {
                panic!("{KILL_PAYLOAD}");
            }
        }
    };
    let kill1 = opts.kill.clone();
    let reducer1 = move |key: &u64,
                         values: Vec<PointBlock>,
                         ctx: &mut TaskContext,
                         out: &mut Vec<(u64, PointBlock)>| {
        // A fired kill switch means the simulated crash is in progress:
        // everything scheduled after it dies without leaving any state.
        if let Some(k) = &kill1 {
            if k.should_abort() {
                panic!("{KILL_PAYLOAD}");
            }
        }
        let points: u64 = values.iter().map(|b| b.len() as u64).sum();
        ctx.add_records_in(points.saturating_sub(values.len() as u64));
        let pruned = usize::try_from(*key)
            .ok()
            .and_then(|cell| prune_mask.get(cell).copied())
            .unwrap_or(false);
        if pruned {
            // Dominated cell: emit nothing, spend nothing (Section III-B).
            ctx.incr("partitions_pruned", 1);
            ctx.incr("points_pruned", points);
            tracer1.emit(|| EventKind::PartitionLocalSkyline {
                partition: *key,
                input: points,
                output: 0,
                pruned: true,
                kernel: "pruned".to_string(),
            });
            // An empty checkpoint: pruning this partition is finished work.
            write_checkpoint(ctx, *key, &[]);
            return;
        }
        let started_us = tracer1.now_us();
        let outcome = run_local_kernel(&concat_owned(dim, values), kernel, window);
        let elapsed_us = tracer1.now_us().saturating_sub(started_us);
        ctx.add_work(outcome.work);
        ctx.incr("local_skyline_points", outcome.sky.len() as u64);
        outcome.trace(&tracer1, points, elapsed_us);
        tracer1.emit(|| EventKind::PartitionLocalSkyline {
            partition: *key,
            input: points,
            output: outcome.sky.len() as u64,
            pruned: false,
            kernel: outcome.kernel.to_string(),
        });
        write_checkpoint(ctx, *key, &outcome.sky.to_points());
        out.push((*key, outcome.sky));
    };

    let job1: JobResult<u64, (u64, PointBlock)> =
        run_job(&spec1, &row_ranges(job1_input.len()), &mapper1, &reducer1);
    let metrics1 = job1.metrics.clone();

    // The per-task counter sums to the exact map-side drop count (counters
    // come from each task's last successful attempt only).
    let rows_filtered = metrics1
        .map
        .counters
        .get("rows_filtered")
        .copied()
        .unwrap_or(0)
        + restored_rows_filtered;
    if rows_filtered > 0 {
        let input = input_block.len() as u64;
        opts.tracer.emit(|| EventKind::RowsFiltered {
            input,
            filtered: rows_filtered,
        });
    }

    // Local skylines sorted by partition id, points by service id.
    // Restored partitions join the computed ones here — downstream merge
    // stages cannot tell a restored local skyline from a fresh one.
    let mut flat: Vec<(u64, PointBlock)> = job1.into_outputs();
    for (p, sky) in restored {
        if !sky.is_empty() {
            flat.push((*p, repack(dim, sky)));
        }
    }
    flat.sort_by_key(|(k, _)| *k);
    let local_skylines: Vec<(u64, Vec<Point>)> = flat
        .iter()
        .map(|(k, b)| {
            let mut v = b.to_points();
            v.sort_by_key(Point::id);
            (*k, v)
        })
        .collect();

    // Candidate order: by service id, i.e. the registry's original (random)
    // order — what a real shuffle's map-completion order would roughly
    // carry. The merge kernel presorts by L1 norm internally, so candidate
    // order no longer changes merge cost; the id sort keeps the record and
    // byte accounting deterministic.
    let mut merge_block = PointBlock::with_capacity(dim, flat.iter().map(|(_, b)| b.len()).sum());
    for (_, sky) in &flat {
        merge_block.extend_from_block(sky);
    }
    merge_block.sort_by_id();
    // ---- Job 2: merge ----
    let mut spec2: JobSpec<u64, PointBlock> =
        JobSpec::new(format!("{}-merge", opts.name), opts.cluster.clone())
            .with_reducers(1)
            .with_map_tasks(point_splits(merge_block.len()));
    spec2.owned_merge = owned_merge;
    spec2.spill = spill;
    spec2.cost = opts.cost.clone();
    spec2.threads = opts.threads;
    spec2.sizer = Some(sizer);
    spec2.tracer = opts.tracer.clone();
    spec2.chaos = opts.chaos.clone();

    let mapper2 =
        |&(lo, hi): &(usize, usize), ctx: &mut TaskContext, out: &mut Emitter<u64, PointBlock>| {
            ctx.add_records_in((hi - lo).saturating_sub(1) as u64);
            out.emit(0u64, merge_block.slice(lo, hi));
        };
    let tracer2 = opts.tracer.clone();
    let merge_threads = opts.threads;
    let reducer2 = move |_key: &u64,
                         values: Vec<PointBlock>,
                         ctx: &mut TaskContext,
                         out: &mut Vec<PointBlock>| {
        let points: u64 = values.iter().map(|b| b.len() as u64).sum();
        ctx.add_records_in(points.saturating_sub(values.len() as u64));
        let started_us = tracer2.now_us();
        let outcome = run_merge_kernel(&concat_owned(dim, values), merge_threads);
        let elapsed_us = tracer2.now_us().saturating_sub(started_us);
        ctx.add_work(outcome.work);
        outcome.trace(&tracer2, points, elapsed_us);
        out.push(outcome.sky);
    };

    let job2: JobResult<u64, PointBlock> =
        run_job(&spec2, &row_ranges(merge_block.len()), &mapper2, &reducer2);
    let metrics2 = job2.metrics.clone();
    opts.tracer.emit(|| EventKind::CausalEdge {
        edge: "chain".into(),
        src: format!("job:{}-partition", opts.name),
        dst: format!("job:{}-merge", opts.name),
    });
    let mut global_block = concat_blocks(dim, &job2.into_outputs());
    global_block.sort_by_id();
    let global_skyline = global_block.to_points();

    PipelineOutput {
        local_skylines,
        global_skyline,
        metrics: metrics1.chain(&metrics2),
        partition_counts,
        pruned_partitions,
        rows_filtered,
        sector_pruned_partitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{build_partitioner, map_work_per_point};
    use crate::config::Algorithm;
    use mrsky_trace::PhaseKind;
    use qws_data::{generate_qws, QwsConfig};
    use skyline_algos::seq::naive_skyline_ids;

    fn options(name: &str, servers: usize) -> PipelineOptions {
        PipelineOptions {
            name: name.into(),
            cluster: ClusterConfig::new(servers),
            cost: CostModel::default(),
            threads: 0,
            config: AlgoConfig::default(),
            map_work_per_point: 1,
            tracer: Tracer::disabled(),
            chaos: FaultPlan::off(),
            checkpoints: None,
            restored: BTreeMap::new(),
            kill: None,
        }
    }

    fn run(algorithm: Algorithm, data: &Dataset, servers: usize) -> PipelineOutput {
        let cfg = AlgoConfig::default();
        let part = build_partitioner(algorithm, &cfg, data, servers).expect("fit");
        let mut opts = options(algorithm.name(), servers);
        opts.map_work_per_point = map_work_per_point(algorithm, data.dim());
        run_two_job_pipeline(part, data, &opts)
    }

    fn sky_ids(points: &[Point]) -> Vec<u64> {
        let mut v: Vec<u64> = points.iter().map(Point::id).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn all_algorithms_agree_with_oracle() {
        let data = generate_qws(&QwsConfig::new(600, 3));
        let oracle = naive_skyline_ids(data.points());
        for alg in [
            Algorithm::MrDim,
            Algorithm::MrGrid,
            Algorithm::MrAngle,
            Algorithm::MrRandom,
            Algorithm::Sequential,
        ] {
            let out = run(alg, &data, 4);
            assert_eq!(sky_ids(&out.global_skyline), oracle, "{alg}");
        }
    }

    #[test]
    fn partition_counts_cover_dataset() {
        let data = generate_qws(&QwsConfig::new(300, 2));
        let out = run(Algorithm::MrAngle, &data, 4);
        assert_eq!(out.partition_counts.iter().sum::<usize>(), 300);
    }

    #[test]
    fn local_skylines_contain_global() {
        let data = generate_qws(&QwsConfig::new(400, 3));
        let out = run(Algorithm::MrGrid, &data, 4);
        let local_union: std::collections::HashSet<u64> = out
            .local_skylines
            .iter()
            .flat_map(|(_, v)| v.iter().map(Point::id))
            .collect();
        for p in &out.global_skyline {
            assert!(
                local_union.contains(&p.id()),
                "global point {} missing locally",
                p.id()
            );
        }
    }

    #[test]
    fn grid_pruning_skips_partitions_but_preserves_result() {
        let data = generate_qws(&QwsConfig::new(800, 2));
        let with = run(Algorithm::MrGrid, &data, 8);
        let cfg = AlgoConfig {
            grid_pruning: false,
            sector_prune: false,
            ..AlgoConfig::default()
        };
        let part = build_partitioner(Algorithm::MrGrid, &cfg, &data, 8).expect("fit");
        let mut opts = options("MR-Grid-noprune", 8);
        opts.config = cfg;
        let without = run_two_job_pipeline(part, &data, &opts);
        assert_eq!(
            sky_ids(&with.global_skyline),
            sky_ids(&without.global_skyline)
        );
        assert!(
            with.pruned_partitions > 0,
            "2-D grid with 16 cells must prune"
        );
        assert_eq!(without.pruned_partitions, 0);
        assert!(
            with.metrics.reduce.work_units <= without.metrics.reduce.work_units,
            "pruning must not add reduce work"
        );
    }

    #[test]
    fn sfs_kernel_agrees_with_bnl() {
        let data = generate_qws(&QwsConfig::new(500, 4));
        let bnl = run(Algorithm::MrAngle, &data, 4);
        let cfg = AlgoConfig {
            kernel: Some(BlockKernel::Sfs),
            ..AlgoConfig::default()
        };
        let part = build_partitioner(Algorithm::MrAngle, &cfg, &data, 4).expect("fit");
        let mut opts = options("MR-Angle-sfs", 4);
        opts.config = cfg;
        let sfs = run_two_job_pipeline(part, &data, &opts);
        assert_eq!(sky_ids(&bnl.global_skyline), sky_ids(&sfs.global_skyline));
    }

    #[test]
    fn bounded_window_preserves_result() {
        let data = generate_qws(&QwsConfig::new(500, 3));
        let unbounded = run(Algorithm::MrAngle, &data, 4);
        let cfg = AlgoConfig {
            bnl_window: Some(8),
            ..AlgoConfig::default()
        };
        let part = build_partitioner(Algorithm::MrAngle, &cfg, &data, 4).expect("fit");
        let mut opts = options("MR-Angle-w8", 4);
        opts.config = cfg;
        let windowed = run_two_job_pipeline(part, &data, &opts);
        assert_eq!(
            sky_ids(&unbounded.global_skyline),
            sky_ids(&windowed.global_skyline)
        );
    }

    #[test]
    fn named_counters_surface_in_metrics() {
        let data = generate_qws(&QwsConfig::new(800, 2));
        // Filtering off: with it on, a partition can lose *all* its rows
        // map-side, never reach a reduce call, and so never bump the
        // counter — which would break the reconstruction below.
        let cfg = AlgoConfig {
            filter_k: Some(0),
            ..AlgoConfig::default()
        };
        let part = build_partitioner(Algorithm::MrGrid, &cfg, &data, 8).expect("fit");
        let mut opts = options("MR-Grid-counters", 8);
        opts.config = cfg;
        let out = run_two_job_pipeline(part, &data, &opts);
        let counters = &out.metrics.reduce.counters;
        assert!(counters.contains_key("local_skyline_points"));
        // the counter sees only pruned partitions that actually received
        // points (empty ones never reach a reduce call)
        let pruned_nonempty = out
            .partition_counts
            .iter()
            .zip(part_prunable(&out))
            .filter(|&(&c, p)| c > 0 && p)
            .count() as u64;
        assert_eq!(
            counters.get("partitions_pruned").copied().unwrap_or(0),
            pruned_nonempty
        );
    }

    fn part_prunable(out: &PipelineOutput) -> Vec<bool> {
        // reconstruct which partitions were prunable from the counts and
        // pruned total: partitions with points but no local skyline output
        let mut mask = vec![false; out.partition_counts.len()];
        let with_output: std::collections::HashSet<u64> =
            out.local_skylines.iter().map(|(k, _)| *k).collect();
        for (i, &c) in out.partition_counts.iter().enumerate() {
            if c > 0 && !with_output.contains(&(i as u64)) {
                mask[i] = true;
            }
        }
        mask
    }

    #[test]
    fn metrics_cover_both_jobs() {
        let data = generate_qws(&QwsConfig::new(300, 3));
        let out = run(Algorithm::MrAngle, &data, 4);
        assert!(out.metrics.name.contains("partition"));
        assert!(out.metrics.name.contains("merge"));
        assert!(out.metrics.sim_total > 0.0);
        assert_eq!(out.metrics.map.records_in as usize, 300 + merge_in(&out));
        assert!(out.metrics.shuffle_bytes > 0);
    }

    fn merge_in(out: &PipelineOutput) -> usize {
        out.local_skylines.iter().map(|(_, v)| v.len()).sum()
    }

    #[test]
    fn traced_pipeline_emits_a_schema_valid_stream() {
        let data = generate_qws(&QwsConfig::new(800, 3));
        let part =
            build_partitioner(Algorithm::MrAngle, &AlgoConfig::default(), &data, 4).expect("fit");
        let mut opts = options("MR-Angle-traced", 4);
        opts.tracer = Tracer::in_memory();
        let out = run_two_job_pipeline(part, &data, &opts);
        let events = opts.tracer.drain();
        let problems = mrsky_trace::validate_events(&events);
        assert!(problems.is_empty(), "{problems:?}");

        // one PartitionLocalSkyline per non-empty partition, sizes matching
        // the pipeline's own local_skylines output
        let mut traced_sizes = std::collections::BTreeMap::new();
        let mut kernel_runs = 0usize;
        let mut jobs = 0usize;
        for e in &events {
            match &e.kind {
                EventKind::PartitionLocalSkyline {
                    partition,
                    output,
                    pruned: false,
                    ..
                } => {
                    traced_sizes.insert(*partition, *output);
                }
                EventKind::KernelRun { .. } => kernel_runs += 1,
                EventKind::JobStarted { .. } => jobs += 1,
                _ => {}
            }
        }
        assert_eq!(traced_sizes.len(), out.local_skylines.len());
        for (k, v) in &out.local_skylines {
            assert_eq!(traced_sizes.get(k).copied(), Some(v.len() as u64), "{k}");
        }
        // at least one local kernel per partition plus the final merge
        assert!(kernel_runs > out.local_skylines.len());
        assert_eq!(jobs, 2, "partition + merge jobs");
        // the partition-profile span bookends survive validation implicitly,
        // but assert presence so a dropped span is a loud failure
        assert!(events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::SpanBegin { name } if name == "pipeline.partition_profile")));
    }

    #[test]
    fn traced_pruned_partitions_are_reported() {
        let data = generate_qws(&QwsConfig::new(800, 2));
        // Filtering off so pruned cells still receive rows (and hence a
        // reduce call that emits the pruned-partition event).
        let cfg = AlgoConfig {
            filter_k: Some(0),
            ..AlgoConfig::default()
        };
        let part = build_partitioner(Algorithm::MrGrid, &cfg, &data, 8).expect("fit");
        let mut opts = options("MR-Grid-traced", 8);
        opts.config = cfg;
        opts.tracer = Tracer::in_memory();
        let out = run_two_job_pipeline(part, &data, &opts);
        assert!(out.pruned_partitions > 0, "2-D grid must prune");
        let events = opts.tracer.drain();
        let pruned_events = events
            .iter()
            .filter(
                |e| matches!(&e.kind, EventKind::PartitionLocalSkyline { pruned: true, output, .. } if *output == 0),
            )
            .count();
        // only pruned partitions that received points reach a reduce call
        assert!(pruned_events > 0 && pruned_events <= out.pruned_partitions);
    }

    #[test]
    fn filtering_cuts_shuffle_and_preserves_result() {
        use qws_data::{generate_synthetic, Distribution, SyntheticConfig};
        let data = generate_synthetic(&SyntheticConfig::new(2000, 4, Distribution::AntiCorrelated));
        let filtered = run(Algorithm::MrAngle, &data, 4);
        let cfg = AlgoConfig {
            filter_k: Some(0),
            ..AlgoConfig::default()
        };
        let part = build_partitioner(Algorithm::MrAngle, &cfg, &data, 4).expect("fit");
        let mut opts = options("MR-Angle-nofilter", 4);
        opts.config = cfg;
        let plain = run_two_job_pipeline(part, &data, &opts);
        assert_eq!(
            sky_ids(&filtered.global_skyline),
            sky_ids(&plain.global_skyline),
            "filtering must not change the skyline"
        );
        assert!(filtered.rows_filtered > 0, "filter must drop something");
        assert_eq!(plain.rows_filtered, 0);
        assert!(
            filtered.metrics.reduce.records_in < plain.metrics.reduce.records_in,
            "dropped rows must not be shuffled"
        );
        assert!(filtered.metrics.shuffle_bytes < plain.metrics.shuffle_bytes);
    }

    #[test]
    fn filtering_keeps_point_weighted_accounting_honest() {
        // Map-side filtered rows are charged exactly once: as Job 1 map
        // input. They never reappear in reduce or merge record counts.
        let data = generate_qws(&QwsConfig::new(600, 3));
        let out = run(Algorithm::MrAngle, &data, 4);
        let candidates: u64 = out.local_skylines.iter().map(|(_, v)| v.len() as u64).sum();
        assert_eq!(out.metrics.map.records_in, 600 + candidates);
        assert_eq!(
            out.metrics.reduce.records_in,
            (600 - out.rows_filtered) + candidates,
            "reduce must see only unfiltered rows plus merge candidates"
        );
    }

    #[test]
    fn sector_pruning_skips_partitions_on_any_scheme() {
        use qws_data::{generate_synthetic, Distribution, SyntheticConfig};
        // Correlated data: one good point dominates almost everything, so
        // most grid cells' corners fall to a filter-point witness even with
        // MR-Grid's own dominated-cell pruning switched off.
        let data = generate_synthetic(&SyntheticConfig::new(2000, 2, Distribution::Correlated));
        let cfg = AlgoConfig {
            grid_pruning: false,
            ..AlgoConfig::default()
        };
        let part = build_partitioner(Algorithm::MrGrid, &cfg, &data, 8).expect("fit");
        let mut opts = options("MR-Grid-witness", 8);
        opts.config = cfg.clone();
        let pruned = run_two_job_pipeline(Arc::clone(&part), &data, &opts);
        assert!(
            pruned.sector_pruned_partitions > 0,
            "witness pruning must fire on correlated data"
        );
        assert_eq!(pruned.pruned_partitions, pruned.sector_pruned_partitions);
        let off = AlgoConfig {
            sector_prune: false,
            ..cfg
        };
        let part2 = build_partitioner(Algorithm::MrGrid, &off, &data, 8).expect("fit");
        let mut opts2 = options("MR-Grid-nowitness", 8);
        opts2.config = off;
        let plain = run_two_job_pipeline(part2, &data, &opts2);
        assert_eq!(plain.sector_pruned_partitions, 0);
        assert_eq!(
            sky_ids(&pruned.global_skyline),
            sky_ids(&plain.global_skyline),
            "witness pruning must not change the skyline"
        );
    }

    #[test]
    fn owned_shuffle_matches_seed_row_shuffle_bit_for_bit() {
        let data = generate_qws(&QwsConfig::new(1500, 4));
        let owned = run(Algorithm::MrAngle, &data, 4);
        let cfg = AlgoConfig {
            owned_shuffle: false,
            ..AlgoConfig::default()
        };
        let part = build_partitioner(Algorithm::MrAngle, &cfg, &data, 4).expect("fit");
        let mut opts = options("MR-Angle-seed", 4);
        opts.config = cfg;
        let seed = run_two_job_pipeline(part, &data, &opts);
        // not just the same set — the same points in the same order
        assert_eq!(owned.global_skyline, seed.global_skyline);
        assert_eq!(owned.local_skylines, seed.local_skylines);
        // the wire is the same size either way: concatenation transfers
        // bytes, it does not invent or drop them
        assert_eq!(owned.metrics.shuffle_bytes, seed.metrics.shuffle_bytes);
    }

    #[test]
    fn spilled_pipeline_is_exact_and_lowers_reduce_peak() {
        let data = generate_qws(&QwsConfig::new(1200, 4));
        let plain = run(Algorithm::MrAngle, &data, 4);
        let dir = std::env::temp_dir().join(format!("mrsky-pipe-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = AlgoConfig {
            spill_budget_bytes: Some(0), // spill every reduce input
            spill_dir: Some(dir.clone()),
            ..AlgoConfig::default()
        };
        let part = build_partitioner(Algorithm::MrAngle, &cfg, &data, 4).expect("fit");
        let mut opts = options("MR-Angle-spill", 4);
        opts.config = cfg;
        let spilled = run_two_job_pipeline(part, &data, &opts);
        assert_eq!(plain.global_skyline, spilled.global_skyline);
        assert_eq!(plain.local_skylines, spilled.local_skylines);
        // every reduce input went through the disk round-trip
        let spilled_inputs: u64 = spilled
            .metrics
            .reduce
            .counters
            .get("spilled_inputs")
            .copied()
            .unwrap_or(0);
        assert!(spilled_inputs > 0, "budget 0 must spill something");
        assert_eq!(
            spilled
                .metrics
                .reduce
                .counters
                .get("spill_write_errors")
                .copied()
                .unwrap_or(0),
            0
        );
        // consumed spill files are deleted
        if dir.exists() {
            let leftovers: Vec<_> = walk_files(&dir);
            assert!(
                leftovers.is_empty(),
                "spill files must be cleaned up: {leftovers:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn walk_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut out = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            if let Ok(entries) = std::fs::read_dir(&d) {
                for e in entries.flatten() {
                    let p = e.path();
                    if p.is_dir() {
                        stack.push(p);
                    } else {
                        out.push(p);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn spill_frame_codec_round_trips() {
        let data = generate_qws(&QwsConfig::new(97, 5));
        let mut b = PointBlock::with_capacity(5, data.len());
        for p in data.points() {
            b.push_point(p);
        }
        let decoded = decode_block(&encode_block(&b));
        assert_eq!(decoded.to_points(), b.to_points());
        // empty block round-trips too
        let empty = PointBlock::new(3);
        assert_eq!(decode_block(&encode_block(&empty)).len(), 0);
    }

    #[test]
    fn pipeline_reports_peak_memory_gauges() {
        let data = generate_qws(&QwsConfig::new(800, 3));
        let out = run(Algorithm::MrAngle, &data, 4);
        assert!(out.metrics.peak_mem.map_out > 0);
        assert!(out.metrics.peak_mem.reduce_in > 0);
        // chained metrics keep the element-wise max across both jobs, so
        // the plateau is at least Job 2's single-reducer input
        assert!(out.metrics.peak_mem.map_out <= out.metrics.shuffle_bytes);
    }

    #[test]
    fn chaos_with_scale_knobs_stays_exact() {
        let data = generate_qws(&QwsConfig::new(700, 4));
        let clean = run(Algorithm::MrAngle, &data, 4);
        let dir =
            std::env::temp_dir().join(format!("mrsky-pipe-chaos-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for seed in [5u64, 9] {
            let cfg = AlgoConfig {
                spill_budget_bytes: Some(0),
                spill_dir: Some(dir.clone()),
                ..AlgoConfig::default()
            };
            let part = build_partitioner(Algorithm::MrAngle, &cfg, &data, 4).expect("fit");
            let mut opts = options("MR-Angle-chaos-scale", 4);
            opts.config = cfg;
            opts.chaos = FaultPlan::heavy(seed);
            let chaotic = run_two_job_pipeline(part, &data, &opts);
            assert_eq!(
                clean.global_skyline, chaotic.global_skyline,
                "seed {seed}: chaos + owned shuffle + spill changed the skyline"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partition_profile_does_not_depend_on_thread_count() {
        // Enough rows for several profile ranges, so the fold order matters.
        let data = generate_qws(&QwsConfig::new(3 * PROFILE_ROWS + 123, 4));
        let part =
            build_partitioner(Algorithm::MrAngle, &AlgoConfig::default(), &data, 4).expect("fit");
        let block = data.block();
        let mut counts = vec![0usize; part.num_partitions()];
        let mut mins: Vec<Option<Vec<f64>>> = vec![None; part.num_partitions()];
        for (id, row) in block.iter() {
            let p = part.partition_of_row(id, row);
            counts[p] += 1;
            let m = mins[p].get_or_insert_with(|| row.to_vec());
            for (mi, &v) in m.iter_mut().zip(row) {
                *mi = mi.min(v);
            }
        }
        let k = crate::config::auto_filter_points(4);
        let filter = skyline_algos::filter::select_filter_points(block, k);
        assert_eq!(filter.len(), k);
        for threads in [1, 2, 3, 8] {
            let profile = partition_profile(part.as_ref(), block, threads, k);
            assert_eq!(profile.counts, counts, "{threads} threads");
            assert_eq!(profile.observed_min, mins, "{threads} threads");
            assert_eq!(profile.filter_points, filter, "{threads} threads");
        }
    }

    #[test]
    fn resumed_run_reports_the_fresh_rows_filtered() {
        let data = generate_qws(&QwsConfig::new(1500, 4));
        let fresh = run(Algorithm::MrAngle, &data, 4);
        assert!(fresh.rows_filtered > 0, "the filter must drop something");
        let dir = std::env::temp_dir().join(format!("mrsky-pipe-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(CheckpointStore::open(&dir).unwrap());
        // Restore every other finished partition, then all of them: the
        // count must not depend on which partitions the resume skipped.
        for step in [2, 1] {
            store.clear().unwrap();
            for (p, sky) in fresh.local_skylines.iter().step_by(step) {
                store.write_partition(*p, sky).unwrap();
            }
            let part = build_partitioner(Algorithm::MrAngle, &AlgoConfig::default(), &data, 4)
                .expect("fit");
            let mut opts = options("MR-Angle", 4);
            opts.map_work_per_point = map_work_per_point(Algorithm::MrAngle, data.dim());
            opts.checkpoints = Some(Arc::clone(&store));
            opts.restored = store.restore().unwrap();
            opts.tracer = Tracer::in_memory();
            let resumed = run_two_job_pipeline(part, &data, &opts);
            assert_eq!(resumed.global_skyline, fresh.global_skyline);
            assert_eq!(resumed.rows_filtered, fresh.rows_filtered, "step {step}");
            let event = opts.tracer.drain().into_iter().find_map(|e| match e.kind {
                EventKind::RowsFiltered { input, filtered } => Some((input, filtered)),
                _ => None,
            });
            assert_eq!(event, Some((1500, fresh.rows_filtered)), "step {step}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipeline_emits_rows_filtered_event() {
        let data = generate_qws(&QwsConfig::new(800, 3));
        let part =
            build_partitioner(Algorithm::MrAngle, &AlgoConfig::default(), &data, 4).expect("fit");
        let mut opts = options("MR-Angle-filtertrace", 4);
        opts.tracer = Tracer::in_memory();
        let out = run_two_job_pipeline(part, &data, &opts);
        let events = opts.tracer.drain();
        let filtered = events.iter().find_map(|e| match &e.kind {
            EventKind::RowsFiltered { input, filtered } => Some((*input, *filtered)),
            _ => None,
        });
        if out.rows_filtered > 0 {
            let (input, filtered) = filtered.expect("RowsFiltered event present");
            assert_eq!(input, 800);
            assert_eq!(filtered, out.rows_filtered);
        } else {
            assert!(filtered.is_none());
        }
    }

    /// Per-job map tasks and shuffle bytes (from the trace), then the
    /// chained map and reduce `records_in`, the map's `records_out`,
    /// `rows_filtered`, the total shuffle bytes and the simulated total's
    /// bits, of one `algorithm` run over `n` QWS rows at d=6. `resume`
    /// restores every other non-empty partition of a fresh run first, so
    /// Job 1's input is the owned copy without their rows.
    fn map_side_figures(algorithm: Algorithm, n: usize, resume: bool) -> Vec<u64> {
        let data = generate_qws(&QwsConfig::new(n, 6));
        let cfg = AlgoConfig::default();
        let part = build_partitioner(algorithm, &cfg, &data, 4).expect("fit");
        let mut opts = options(algorithm.name(), 4);
        opts.map_work_per_point = map_work_per_point(algorithm, data.dim());
        if resume {
            let fresh = run_two_job_pipeline(Arc::clone(&part), &data, &opts);
            opts.restored = fresh.local_skylines.into_iter().step_by(2).collect();
            assert!(!opts.restored.is_empty());
        }
        opts.tracer = Tracer::in_memory();
        let out = run_two_job_pipeline(part, &data, &opts);
        let (mut tasks, mut bytes) = ([0u64; 2], [0u64; 2]);
        let slot = |job: &str| usize::from(job.ends_with("-merge"));
        for e in opts.tracer.drain() {
            match e.kind {
                EventKind::TaskFinished {
                    job,
                    phase: PhaseKind::Map,
                    ..
                } => tasks[slot(&job)] += 1,
                EventKind::ShufflePartition { job, bytes: b, .. } => bytes[slot(&job)] += b,
                _ => {}
            }
        }
        let m = &out.metrics;
        vec![
            tasks[0],
            tasks[1],
            bytes[0],
            bytes[1],
            m.map.records_in,
            m.reduce.records_in,
            m.map.records_out,
            out.rows_filtered,
            m.shuffle_bytes,
            m.sim_total.to_bits(),
        ]
    }

    #[test]
    fn row_range_map_records_keep_every_map_side_figure() {
        // the figures of the build whose map records were 256-row blocks
        // copied out of the input before Job 1, and cloned by Job 2's mapper
        let pinned = "\
MrAngle 1 fresh: 1 1 64 64 2 2 2 0 128 4630829136066116998
MrAngle 255 fresh: 1 1 1680 1520 282 56 8 226 3200 4630830547637792454
MrAngle 257 fresh: 1 1 1680 1520 284 56 8 228 3200 4630830557207941662
MrAngle 100001 fresh: 63 1 266434 10592 100190 4731 1510 95459 277026 4635551048468628402
MrGrid 257 fresh: 1 1 1640 1296 280 52 3 228 2936 4630830521257957637
MrAngle 257 resumed: 1 1 471 1520 155 35 4 228 1991 4630829918846619856
MrAngle 100001 resumed: 32 1 124937 10592 50271 2363 400 95459 135529 4633444435696211886
";
        let mut got = String::new();
        for (algorithm, n, resume) in [
            (Algorithm::MrAngle, 1, false),
            (Algorithm::MrAngle, 255, false),
            (Algorithm::MrAngle, 257, false),
            (Algorithm::MrAngle, 100_001, false),
            (Algorithm::MrGrid, 257, false),
            (Algorithm::MrAngle, 257, true),
            (Algorithm::MrAngle, 100_001, true),
        ] {
            let figures = map_side_figures(algorithm, n, resume);
            let mode = if resume { "resumed" } else { "fresh" };
            let figures: Vec<String> = figures.iter().map(u64::to_string).collect();
            got.push_str(&format!(
                "{algorithm:?} {n} {mode}: {}\n",
                figures.join(" ")
            ));
        }
        assert_eq!(got, pinned);
    }
}
