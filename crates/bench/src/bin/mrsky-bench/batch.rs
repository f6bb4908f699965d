//! Batch workloads. One query is `Dataset::load_csv` of a workload CSV,
//! then `SkylineJob::run`, timed from outside with tracing off. A traced
//! pass afterwards runs each query once more with the engine's own tracer
//! on a wall clock and cuts the job into its stages at the events the
//! engine emits.

use crate::reference::{at_reference, Reference};
use crate::report::{median, peak_rss_mib, percentile, process_cpu_s, tail, Outcome, Res, Spans};
use crate::verify::{same_points, verify_skyline};
use crate::RunOpts;
use mr_skyline::algorithms::build_partitioner;
use mr_skyline::{Algorithm, SkylineJob, SkylineRunReport};
use mrsky_trace::{EpochClock, EventKind, PhaseKind, TraceEvent, Tracer, VecSink};
use qws_data::{
    generate_qws, generate_synthetic, Dataset, Distribution, QwsConfig, SyntheticConfig,
};
use skyline_algos::point::Point;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Simulated cluster of every query: 8 servers, so 16 partitions.
pub const SERVERS: usize = 8;
/// Host threads of every query, traced or not.
pub const THREADS: usize = 2;
/// Dataset variants per run, generated from `seed`, `seed + 1`, ….
const VARIANTS: usize = 3;
const QUICK_ROWS: usize = 5_000;
const QUICK_SAMPLES: usize = 2;

pub enum Data {
    /// `generate_qws`: QWS-like services.
    Qws,
    /// `generate_synthetic` with the anti-correlated distribution.
    Anti,
}

pub struct BatchSpec {
    pub name: &'static str,
    pub data: Data,
    pub rows: usize,
    pub dims: usize,
    /// Each sample runs every one of these once, on one variant.
    pub algorithms: &'static [Algorithm],
}

struct Variant {
    path: PathBuf,
    skyline: Vec<Point>,
}

fn generate(spec: &BatchSpec, rows: usize, seed: u64) -> Dataset {
    match spec.data {
        Data::Qws => generate_qws(&QwsConfig::new(rows, spec.dims).with_seed(seed)),
        Data::Anti => generate_synthetic(
            &SyntheticConfig::new(rows, spec.dims, Distribution::AntiCorrelated).with_seed(seed),
        ),
    }
}

fn job(algorithm: Algorithm) -> SkylineJob {
    let mut job = SkylineJob::new(algorithm, SERVERS);
    job.threads = THREADS;
    job
}

/// One timed query. Everything it allocates is freed before it returns,
/// so the timing covers load, run and release.
fn query(path: &Path, job: &SkylineJob) -> Result<Vec<Point>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let data = Dataset::load_csv("bench", path).map_err(|e| e.to_string())?;
        job.run_checked(&data)
            .map(|report| report.global_skyline)
            .map_err(|audit| audit.render_text())
    }))
    .unwrap_or_else(|_| Err("the query panicked".to_string()))
}

pub fn run(spec: &BatchSpec, opts: &RunOpts, out: &mut Outcome) -> Res<()> {
    let rows = if opts.quick {
        spec.rows.min(QUICK_ROWS)
    } else {
        spec.rows
    };
    let mut spans = Spans::new(opts.epoch);
    let reference = Reference::new();

    // Set-up, once per variant: generate, write the CSV, one warm-up
    // query, with the reference work timed before and after. The
    // warm-up's answer is verified against the dataset as loaded (outside
    // set-up time) and every later query must match it.
    let mut variants = Vec::new();
    let (mut setup_s, mut verify_s) = (Vec::new(), Vec::new());
    for v in 0..VARIANTS {
        let before = reference.time();
        let started = Instant::now();
        let path = opts.dir.join(format!("{}-{v}.csv", spec.name));
        generate(spec, rows, opts.seed + v as u64).save_csv(&path)?;
        let algorithm = spec.algorithms[v % spec.algorithms.len()];
        let warm = query(&path, &job(algorithm));
        let took = started.elapsed().as_secs_f64();
        setup_s.push(at_reference(took, (before + reference.time()) / 2.0));

        let loaded = Dataset::load_csv("verify", &path)?;
        let label = format!("{}/setup/v{v}", spec.name);
        let id = spans.begin("verify", &label);
        let verdict =
            warm.and_then(|sky| verify_skyline(loaded.points(), &sky, THREADS).map(|()| sky));
        spans.end(id);
        verify_s.push(spans.duration(id));
        let skyline = verdict.unwrap_or_else(|e| {
            out.problem(format!("{label}: warm-up answer failed verification: {e}"));
            Vec::new()
        });
        variants.push(Variant { path, skyline });
    }

    // Timed loop: one sample runs every algorithm once on one variant, right
    // after one run of the reference work; variants round-robin, whole
    // rounds only, until the run length has passed. A sample with a failed
    // query is not timed.
    let jobs: Vec<SkylineJob> = spec.algorithms.iter().map(|&a| job(a)).collect();
    let (mut times, mut references) = (Vec::new(), Vec::new());
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    let setup_total_s = opts.epoch.elapsed().as_secs_f64();
    out.series.insert("setup_total_s", vec![setup_total_s]);
    for i in 0.. {
        let finished = if opts.quick {
            i >= QUICK_SAMPLES
        } else {
            i > 0 && i % variants.len() == 0 && t0.elapsed().as_secs_f64() >= opts.seconds
        };
        if finished {
            break;
        }
        let v = i % variants.len();
        let reference_s = reference.time();
        let (mut sample, mut ok) = (0.0, true);
        for job in &jobs {
            let started = Instant::now();
            let answer = query(&variants[v].path, job);
            sample += started.elapsed().as_secs_f64();
            out.attempted += 1;
            let problem = match answer {
                Ok(sky) if same_points(&sky, &variants[v].skyline) => continue,
                Ok(_) => format!(
                    "sample {i} ({}, variant {v}) differs from the verified skyline",
                    job.algorithm
                ),
                Err(e) => format!("sample {i} ({}) failed: {e}", job.algorithm),
            };
            out.fail(problem);
            ok = false;
        }
        if ok {
            times.push(sample);
            references.push(reference_s);
        }
    }
    let (wall, cpu) = (t0.elapsed().as_secs_f64(), process_cpu_s() - cpu0);

    // Mean sample time at the reference speed: all sample time over all
    // reference time. A ratio of sums, not a median of per-sample ratios:
    // across runs of the same code it spread less (README.md).
    let latency_s = at_reference(times.iter().sum(), references.iter().sum());
    out.e2e.insert("latency_ms", latency_s * 1e3);
    let rows_per_sample = (rows * jobs.len()) as f64;
    let throughput = if latency_s > 0.0 {
        rows_per_sample / latency_s
    } else {
        0.0
    };
    out.e2e.insert("throughput_per_s", throughput);
    out.e2e.insert("setup_s", median(&setup_s));
    out.layers
        .insert("query.median_ms", percentile(&times, 0.5) * 1e3);
    out.layers.insert("query.tail_ms", tail(&times) * 1e3);
    out.layers
        .insert("host.reference_ms", median(&references) * 1e3);
    out.layers.insert("process.peak_rss_mb", peak_rss_mib());
    for name in [
        "latency_ms",
        "throughput_per_s",
        "query.median_ms",
        "query.tail_ms",
        "host.reference_ms",
    ] {
        out.samples.insert(name, times.len());
    }
    out.samples.insert("setup_s", setup_s.len());
    out.series.insert("setup_s", setup_s);
    out.series.insert("sample_s", times);
    out.series.insert("reference_s", references);
    let skyline_rows = variants.iter().map(|v| v.skyline.len() as f64).collect();
    out.series.insert("skyline_rows", skyline_rows);
    out.layers
        .insert("executor.cpu_util", cpu / (wall * THREADS as f64));
    out.layers.insert("oracle.verify_s", median(&verify_s));

    if opts.trace {
        let mut traced = Vec::new();
        for (v, variant) in variants.iter().enumerate() {
            for &algorithm in spec.algorithms {
                let q = format!("{}/{algorithm}/v{v}", spec.name);
                match traced_query(&q, variant, &job(algorithm), &mut spans) {
                    Ok(layers) => traced.push(layers),
                    Err(e) => out.problem(format!("{q}: {e}")),
                }
            }
        }
        for name in traced
            .first()
            .map(|t| t.keys().copied().collect::<Vec<_>>())
            .unwrap_or_default()
        {
            let values: Vec<f64> = traced.iter().filter_map(|t| t.get(name).copied()).collect();
            out.layers.insert(name, median(&values));
        }
        out.samples.insert("traced_queries", traced.len());
    }
    out.spans = spans.list;
    Ok(())
}

/// The engine tracer's clock: wall-clock microseconds since the run's
/// epoch, so engine events and the benchmark's spans share one time base.
struct WallClock(Instant);

impl EpochClock for WallClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// The stages of a traced job in pipeline order, each running from one
/// mark of [`EngineTrace`] to another. Whatever lies between them (the
/// simulator's schedule, trace emission, report assembly) is the job
/// span's self time, `driver.residual_s`.
const STAGES: [(&str, &str, &str); 8] = [
    // build_partitioner, the plan audit, the checkpoint store
    ("plan", "start", "run"),
    // the columnar copy of the dataset
    ("to_block", "run", "profile"),
    // partition_of_row over every row: counts and minima
    ("profile", "profile", "profiled"),
    // select_filter_points, prunable, witness_prunable
    ("filter", "profiled", "job1"),
    // Job 1's map tasks on the pool
    ("map", "job1", "mapped"),
    // shuffle_with
    ("shuffle", "map_traced", "shuffled"),
    // Job 1's reduce tasks: one local kernel per partition
    ("kernel", "barrier", "reduced"),
    // candidate assembly, then Job 2 with its presort merge
    ("merge", "job1_done", "job2_done"),
];

/// One traced `SkylineJob` run as its events tell it: the times at which
/// each stage started or ended (µs on [`WallClock`]) and the counts the
/// events carry.
#[derive(Default)]
struct EngineTrace {
    marks: BTreeMap<&'static str, u64>,
    kernel_us: Vec<u64>,
    kernel_comparisons: u64,
    candidates: u64,
    merge_us: u64,
    merge_comparisons: u64,
    merge_output: u64,
    rows_filtered: u64,
    /// Rows that reached a Job-1 reducer, and pruned partitions among them.
    routed: u64,
    pruned: u64,
    /// A partition whose reducer saw more rows than the profile counted.
    overfull: bool,
    shuffle_records: u64,
    shuffle_bytes: u64,
    /// Both jobs' shuffle bytes, as the report sums them.
    all_shuffle_bytes: u64,
}

impl EngineTrace {
    fn read(events: &[TraceEvent], algorithm: Algorithm, counts: &[usize]) -> Self {
        let job1 = format!("{}-partition", algorithm.name());
        let job2 = format!("{}-merge", algorithm.name());
        let barrier = format!("phase:{job1}/map");
        let mut t = EngineTrace::default();
        for e in events {
            let mut mark = |name| {
                t.marks.entry(name).or_insert(e.wall_us);
            };
            match &e.kind {
                EventKind::SpanBegin { name } if name == "driver.run" => mark("run"),
                EventKind::SpanBegin { name } if name == "pipeline.partition_profile" => {
                    mark("profile");
                }
                EventKind::SpanEnd { name } if name == "pipeline.partition_profile" => {
                    mark("profiled");
                }
                EventKind::JobStarted { job } if *job == job1 => mark("job1"),
                EventKind::PhaseStarted { job, phase, .. } if *job == job1 => match phase {
                    PhaseKind::Map => mark("mapped"),
                    PhaseKind::Reduce => mark("reduced"),
                },
                EventKind::PhaseFinished {
                    job,
                    phase: PhaseKind::Map,
                    ..
                } if *job == job1 => mark("map_traced"),
                EventKind::CausalEdge { edge, src, .. } if edge == "barrier" && *src == barrier => {
                    mark("barrier");
                }
                EventKind::JobFinished { job, .. } if *job == job1 => mark("job1_done"),
                EventKind::JobFinished { job, .. } if *job == job2 => mark("job2_done"),
                EventKind::ShufflePartition {
                    job,
                    bytes,
                    records,
                    ..
                } => {
                    if *job == job1 {
                        mark("shuffled");
                        t.shuffle_bytes += bytes;
                        t.shuffle_records += records;
                    }
                    t.all_shuffle_bytes += bytes;
                }
                EventKind::KernelRun {
                    kernel,
                    output,
                    comparisons,
                    elapsed_us,
                    ..
                } => {
                    if kernel == "presort-merge" {
                        t.merge_us += elapsed_us;
                        t.merge_comparisons += comparisons;
                        t.merge_output += output;
                    } else {
                        t.kernel_us.push(*elapsed_us);
                        t.kernel_comparisons += comparisons;
                        t.candidates += output;
                    }
                }
                EventKind::PartitionLocalSkyline {
                    partition,
                    input,
                    pruned,
                    ..
                } => {
                    t.routed += input;
                    t.pruned += u64::from(*pruned);
                    let counted = usize::try_from(*partition)
                        .ok()
                        .and_then(|p| counts.get(p))
                        .map_or(0, |&c| c as u64);
                    t.overfull |= *input > counted;
                }
                EventKind::RowsFiltered { filtered, .. } => t.rows_filtered += filtered,
                _ => {}
            }
        }
        t
    }

    /// `(name, start µs, end µs)` of every stage, or the first mark the
    /// trace lacks.
    fn stages(&self) -> Result<Vec<(&'static str, u64, u64)>, String> {
        let at = |mark: &str| {
            self.marks
                .get(mark)
                .copied()
                .ok_or(format!("the engine trace has no `{mark}` mark"))
        };
        STAGES
            .iter()
            .map(|&(name, from, to)| {
                let (start, end) = (at(from)?, at(to)?);
                if start > end {
                    return Err(format!("stage `{name}` ends before it starts"));
                }
                Ok((name, start, end))
            })
            .collect()
    }
}

/// The trace must account for the report: the same filtered rows, local
/// candidates, shuffle bytes and skyline size, every unfiltered row at a
/// reducer, and no more pruned partitions than the report counts.
fn fidelity(t: &EngineTrace, report: &SkylineRunReport) -> Result<(), String> {
    let rows = report.cardinality as u64;
    let checks = [
        ("rows_filtered", t.rows_filtered == report.rows_filtered),
        (
            "merge_candidates",
            t.candidates == report.merge_candidates() as u64,
        ),
        (
            "rows at the reducers",
            t.routed == rows.saturating_sub(report.rows_filtered),
        ),
        ("partition_counts", !t.overfull),
        (
            "pruned_partitions",
            t.pruned <= report.pruned_partitions as u64,
        ),
        (
            "shuffle_bytes",
            t.all_shuffle_bytes == report.metrics.shuffle_bytes,
        ),
        (
            "skyline size",
            t.merge_output == report.global_skyline.len() as u64,
        ),
    ];
    match checks.iter().find(|(_, ok)| !ok) {
        Some((what, _)) => Err(format!("trace fidelity: {what} differs from the report")),
        None => Ok(()),
    }
}

/// One traced query: an `ingest` span around `load_csv`, then a `job`
/// span around `SkylineJob::run_checked` with a wall-clock tracer, cut
/// into the [`STAGES`] at the engine's own events. A `fit` span times
/// `build_partitioner` on its own afterwards. Returns the query's
/// per-layer numbers.
fn traced_query(
    q: &str,
    variant: &Variant,
    job: &SkylineJob,
    spans: &mut Spans,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let ingest = spans.begin("ingest", q);
    let data = Dataset::load_csv("traced", &variant.path);
    spans.end(ingest);
    let data = data.map_err(|e| e.to_string())?;

    let tracer = Tracer::with_clock(Box::new(VecSink::new()), Box::new(WallClock(spans.epoch())));
    let traced = job.clone().with_tracer(tracer.clone());
    let start_us = tracer.now_us();
    let report = catch_unwind(AssertUnwindSafe(|| traced.run_checked(&data)));
    let end_us = tracer.now_us();
    let report = match report {
        Ok(Ok(report)) => report,
        Ok(Err(audit)) => return Err(audit.render_text()),
        Err(_) => return Err("the job panicked".to_string()),
    };
    if !same_points(&report.global_skyline, &variant.skyline) {
        return Err("the traced job differs from the verified skyline".to_string());
    }
    let mut trace = EngineTrace::read(&tracer.drain(), job.algorithm, &report.partition_counts);
    trace.marks.insert("start", start_us);
    fidelity(&trace, &report)?;
    let secs = |us: u64| us as f64 / 1e6;
    let job_span = spans.record("job", q, None, secs(start_us), secs(end_us));
    for (name, start, end) in trace.stages()? {
        spans.record(name, q, Some(job_span), secs(start), secs(end));
    }
    let fit = spans.begin("fit", q);
    let fitted = build_partitioner(job.algorithm, &job.config, &data, job.cluster.servers);
    spans.end(fit);
    fitted.map_err(|e| e.to_string())?;

    let rows = data.len() as f64;
    let stage = |name| spans.child_self(job_span, name);
    let ingest_s = spans.self_time(ingest) + stage("to_block");
    let job_s = spans.duration(job_span);
    let max_count = report.partition_counts.iter().max().copied().unwrap_or(0);
    Ok(BTreeMap::from([
        ("ingest.s", ingest_s),
        ("ingest.rows_per_s", rows / ingest_s),
        ("partition.fit_s", spans.duration(fit)),
        ("partition.assign_s", stage("profile")),
        ("partition.load_cv", report.load_balance.cv),
        ("partition.max_share", max_count as f64 / rows),
        ("filter.s", stage("filter")),
        ("filter.drop_frac", report.rows_filtered as f64 / rows),
        (
            "prune.frac",
            report.pruned_partitions as f64 / report.partitions.max(1) as f64,
        ),
        ("map.s", stage("map")),
        ("shuffle.s", stage("shuffle")),
        ("shuffle.records", trace.shuffle_records as f64),
        ("shuffle.bytes", trace.shuffle_bytes as f64),
        ("kernel.s", stage("kernel")),
        ("kernel.cpu_s", secs(trace.kernel_us.iter().sum())),
        (
            "kernel.max_partition_s",
            secs(trace.kernel_us.iter().copied().max().unwrap_or(0)),
        ),
        ("kernel.comparisons", trace.kernel_comparisons as f64),
        ("kernel.candidates", trace.candidates as f64),
        ("merge.s", stage("merge")),
        ("merge.kernel_s", secs(trace.merge_us)),
        ("merge.comparisons", trace.merge_comparisons as f64),
        ("merge.lso", report.optimality),
        ("driver.plan_s", stage("plan")),
        ("driver.residual_s", spans.self_time(job_span)),
        ("sim.total_s", report.metrics.sim_total),
        ("sim.map_s", report.map_time()),
        ("sim.reduce_s", report.reduce_time()),
        ("sim.over_wall", report.metrics.sim_total / job_s),
    ]))
}
