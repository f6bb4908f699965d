//! The one fold of a recorded event stream: [`RunModel`].
//!
//! Every reader of a recorded trace reads this model: the `mrsky trace
//! --summary` table ([`RunModel::summary`]), the Chrome export
//! ([`to_chrome_trace`](crate::to_chrome_trace)) and `mrsky insight`'s
//! critical path, stragglers and skew. It keeps one [`JobRun`] per
//! `job_started`, in start order, so a job name that runs again (a sweep
//! reruns every job per cluster size; a killed run restarts after
//! `run_resumed`) gets a record of its own.
//!
//! Each job's sim clock starts at 0. A run's [`JobRun::offset`] is the
//! summed `sim_total` of the runs that finished before it began, which
//! lays sequential jobs out on one run-global sim timeline.

use crate::event::{EventKind, PhaseKind, TraceEvent};
use std::collections::BTreeMap;

/// One task execution, in job-local sim seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRec {
    /// Task index within its phase.
    pub task: u64,
    /// Simulated cluster slot the task ran on.
    pub slot: u64,
    /// Sim start, job-local.
    pub start: f64,
    /// Sim end, job-local.
    pub end: f64,
}

impl TaskRec {
    /// Task duration in sim seconds.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// One executor steal observed during a phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealRec {
    /// The stolen task index.
    pub task: u64,
    /// Worker that took the task.
    pub thief: u64,
    /// Worker it was taken from.
    pub victim: u64,
}

/// One phase (map or reduce) of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRec {
    /// Which phase this is.
    pub kind: PhaseKind,
    /// Tasks announced by `phase_started` (`None` before it arrives).
    pub announced: Option<u64>,
    /// Phase start in job-local sim seconds.
    pub start: f64,
    /// Phase end in job-local sim seconds (0 until `phase_finished`).
    pub end: f64,
    /// Whether `phase_finished` arrived.
    pub finished: bool,
    /// Finished tasks, in event order.
    pub tasks: Vec<TaskRec>,
    /// Steals the executor performed while running this phase.
    pub steals: Vec<StealRec>,
    /// Retry attempts.
    pub retries: u64,
}

impl PhaseRec {
    fn new(kind: PhaseKind) -> Self {
        PhaseRec {
            kind,
            announced: None,
            start: 0.0,
            end: 0.0,
            finished: false,
            tasks: Vec::new(),
            steals: Vec::new(),
            retries: 0,
        }
    }

    /// Whether any event of this phase arrived.
    pub fn seen(&self) -> bool {
        self.announced.is_some()
            || self.finished
            || self.retries > 0
            || !self.tasks.is_empty()
            || !self.steals.is_empty()
    }

    /// Simulated phase span in seconds.
    pub fn span(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    /// Median task duration (0 for an empty phase).
    pub fn median_duration(&self) -> f64 {
        let mut d: Vec<f64> = self.tasks.iter().map(TaskRec::duration).collect();
        if d.is_empty() {
            return 0.0;
        }
        d.sort_by(f64::total_cmp);
        let mid = d.len() / 2;
        if d.len() % 2 == 1 {
            d[mid]
        } else {
            (d[mid - 1] + d[mid]) / 2.0
        }
    }
}

/// Shuffle accounting for one reduce task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleRec {
    /// Receiving reduce task index.
    pub reducer: u64,
    /// Bytes fetched.
    pub bytes: u64,
    /// Records routed (pre-merge).
    pub records: u64,
    /// Contributing map-output segments.
    pub segments: u64,
    /// Tracer-clock time of the report.
    pub wall_us: u64,
}

/// One `phase_peak_memory` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeakMemRec {
    /// The phase it measured (map = buffered map output, reduce =
    /// shuffled reduce input).
    pub phase: PhaseKind,
    /// Peak resident bytes.
    pub peak_bytes: u64,
    /// Tracer-clock time of the report.
    pub wall_us: u64,
}

/// One run of a job: the events between one `job_started` and its
/// `job_finished`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRun {
    /// Job name.
    pub name: String,
    /// Run-global sim second at which this run's local clock zero sits.
    pub offset: f64,
    /// The map phase.
    pub map: PhaseRec,
    /// The reduce phase.
    pub reduce: PhaseRec,
    /// Per-reducer shuffle accounting.
    pub shuffle: Vec<ShuffleRec>,
    /// Peak-memory reports.
    pub peak_mem: Vec<PeakMemRec>,
    /// `(sim_total, wall_seconds)` from `job_finished`.
    pub finished: Option<(f64, f64)>,
    /// Left open by a killed run (a later `run_resumed` closed it).
    pub abandoned: bool,
}

impl JobRun {
    fn new(name: &str, offset: f64) -> Self {
        JobRun {
            name: name.to_string(),
            offset,
            map: PhaseRec::new(PhaseKind::Map),
            reduce: PhaseRec::new(PhaseKind::Reduce),
            shuffle: Vec::new(),
            peak_mem: Vec::new(),
            finished: None,
            abandoned: false,
        }
    }

    fn phase_mut(&mut self, kind: PhaseKind) -> &mut PhaseRec {
        match kind {
            PhaseKind::Map => &mut self.map,
            PhaseKind::Reduce => &mut self.reduce,
        }
    }

    /// Total simulated job time (0 for a run that never finished).
    pub fn sim_total(&self) -> f64 {
        self.finished.map_or(0.0, |(sim, _)| sim)
    }

    /// Job overhead: the slice of `sim_total` not covered by the phases.
    pub fn overhead(&self) -> f64 {
        (self.sim_total() - self.reduce.end).max(0.0)
    }
}

/// Per-partition local-skyline accounting (emitted by the partition job's
/// reducers; the reduce task index equals the partition id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionRec {
    /// The partition-job run (index into [`RunModel::runs`]) the record
    /// was emitted in: the latest `-partition` run started before it.
    pub run: Option<usize>,
    /// Partition id.
    pub partition: u64,
    /// Input rows routed to the partition.
    pub input: u64,
    /// Local-skyline rows it produced.
    pub output: u64,
    /// Whether the partition was pruned without running a kernel.
    pub pruned: bool,
    /// Local kernel that processed the partition (`"pruned"` for skipped
    /// partitions, empty for pre-schema traces).
    pub kernel: String,
}

/// A causal edge from the trace, verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeRec {
    /// Edge kind (`dispatch`, `slot`, `barrier`, `shuffle`, `chain`).
    pub edge: String,
    /// Source node id.
    pub src: String,
    /// Destination node id.
    pub dst: String,
    /// Runs started before the edge was emitted: each of its nodes belongs
    /// to the latest of them that has the node's job name.
    pub runs_started: usize,
}

/// The job a causal node id names: `job:{job}`, `phase:{job}/{phase}` or
/// `task:{job}/{phase}/{index}` (see `EventKind::CausalEdge`).
fn node_job(node: &str) -> Option<&str> {
    if let Some(job) = node.strip_prefix("job:") {
        Some(job)
    } else if let Some(rest) = node.strip_prefix("phase:") {
        rest.rsplit_once('/').map(|(job, _)| job)
    } else {
        let rest = node.strip_prefix("task:")?;
        let (job_phase, _) = rest.rsplit_once('/')?;
        job_phase.rsplit_once('/').map(|(job, _)| job)
    }
}

/// One kernel's invocations, summed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct KernelAgg {
    /// Total input points.
    pub input: u64,
    /// Total output points.
    pub output: u64,
    /// Total passes over the input.
    pub passes: u64,
    /// Total tracer-clock kernel time in microseconds.
    pub elapsed_us: u64,
    /// Dominance comparisons, one value per invocation.
    pub comparisons: Vec<u64>,
}

/// Everything a recorded trace says, folded once.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunModel {
    /// One record per `job_started`, in start order.
    pub runs: Vec<JobRun>,
    /// All causal edges, in emission order.
    pub edges: Vec<EdgeRec>,
    /// Per-partition accounting, by partition id (event order within one
    /// id).
    pub partitions: Vec<PartitionRec>,
    /// Per-kernel aggregates.
    pub kernels: BTreeMap<String, KernelAgg>,
    /// Driver span wall durations in microseconds, by name.
    pub spans: BTreeMap<String, u64>,
    /// Injected faults by `site/kind` wire names.
    pub faults: BTreeMap<String, u64>,
    /// Operations that ran out of their retry budget.
    pub retries_exhausted: u64,
    /// Partition checkpoints written / restored.
    pub checkpoints: (u64, u64),
    /// Map-side filter sweep totals: (rows entering, rows dropped).
    pub filtered: (u64, u64),
    /// Witness-based sector pruning: (partitions skipped, points skipped).
    pub sectors_pruned: (u64, u64),
    /// Crash-recovery resumes observed (`run_resumed` markers).
    pub resumes: u64,
    /// Serving layer: completed requests by `op/outcome` wire names.
    pub requests: BTreeMap<String, u64>,
    /// Simulated request latencies in seconds, by op.
    pub request_latency: BTreeMap<String, Vec<f64>>,
    /// Circuit-breaker transitions by `op: from->to`.
    pub breaker_transitions: BTreeMap<String, u64>,
    /// Requests shed by admission control, by reason.
    pub sheds: BTreeMap<String, u64>,
    /// Skyband deletion repairs: (from-buffer, underflow recomputes,
    /// candidates promoted).
    pub skyband_repairs: (u64, u64, u64),
    /// Stale snapshot serves by reason.
    pub stale_served: BTreeMap<String, u64>,
    /// Total events consumed.
    pub events: u64,
    /// The job of the first job-scoped event that arrived while no run of
    /// that name was open; such events belong to no run.
    pub orphan: Option<String>,
}

/// The job a job-scoped event belongs to (`job_started` opens a run and is
/// not looked up).
fn job_of(kind: &EventKind) -> Option<&str> {
    match kind {
        EventKind::JobFinished { job, .. }
        | EventKind::PhaseStarted { job, .. }
        | EventKind::PhaseFinished { job, .. }
        | EventKind::TaskRetried { job, .. }
        | EventKind::TaskFinished { job, .. }
        | EventKind::TaskStolen { job, .. }
        | EventKind::ShufflePartition { job, .. }
        | EventKind::PhasePeakMemory { job, .. } => Some(job),
        _ => None,
    }
}

fn bump(map: &mut BTreeMap<String, u64>, key: String) {
    *map.entry(key).or_insert(0) += 1;
}

impl RunModel {
    /// Folds an event stream. Job-scoped events go to the open run of
    /// their name; one with no open run is recorded in
    /// [`RunModel::orphan`] and otherwise skipped. A `run_resumed` marks
    /// every open run abandoned.
    pub fn from_events(events: &[TraceEvent]) -> RunModel {
        let mut m = RunModel {
            events: events.len() as u64,
            ..RunModel::default()
        };
        let mut open: BTreeMap<String, usize> = BTreeMap::new();
        let mut sim_cursor = 0.0f64;
        let mut span_opens: BTreeMap<String, Vec<u64>> = BTreeMap::new();

        for ev in events {
            let run = match job_of(&ev.kind) {
                None => None,
                Some(job) => match open.get(job) {
                    Some(&i) => m.runs.get_mut(i),
                    None => {
                        m.orphan.get_or_insert_with(|| job.to_string());
                        continue;
                    }
                },
            };
            match (&ev.kind, run) {
                (EventKind::JobStarted { job }, _) => {
                    open.insert(job.clone(), m.runs.len());
                    m.runs.push(JobRun::new(job, sim_cursor));
                }
                (
                    EventKind::JobFinished {
                        job,
                        sim_total,
                        wall_seconds,
                    },
                    Some(run),
                ) => {
                    run.finished = Some((*sim_total, *wall_seconds));
                    sim_cursor += sim_total;
                    open.remove(job);
                }
                (
                    EventKind::PhaseStarted {
                        phase, tasks, sim, ..
                    },
                    Some(run),
                ) => {
                    let p = run.phase_mut(*phase);
                    p.announced = Some(*tasks);
                    p.start = *sim;
                }
                (EventKind::PhaseFinished { phase, sim, .. }, Some(run)) => {
                    let p = run.phase_mut(*phase);
                    p.end = *sim;
                    p.finished = true;
                }
                (EventKind::TaskRetried { phase, .. }, Some(run)) => {
                    run.phase_mut(*phase).retries += 1;
                }
                (
                    EventKind::TaskFinished {
                        phase,
                        task,
                        slot,
                        sim_start,
                        sim_end,
                        ..
                    },
                    Some(run),
                ) => run.phase_mut(*phase).tasks.push(TaskRec {
                    task: *task,
                    slot: *slot,
                    start: *sim_start,
                    end: *sim_end,
                }),
                (
                    EventKind::TaskStolen {
                        phase,
                        task,
                        thief,
                        victim,
                        ..
                    },
                    Some(run),
                ) => run.phase_mut(*phase).steals.push(StealRec {
                    task: *task,
                    thief: *thief,
                    victim: *victim,
                }),
                (
                    EventKind::ShufflePartition {
                        reducer,
                        bytes,
                        records,
                        segments,
                        ..
                    },
                    Some(run),
                ) => run.shuffle.push(ShuffleRec {
                    reducer: *reducer,
                    bytes: *bytes,
                    records: *records,
                    segments: *segments,
                    wall_us: ev.wall_us,
                }),
                (
                    EventKind::PhasePeakMemory {
                        phase, peak_bytes, ..
                    },
                    Some(run),
                ) => run.peak_mem.push(PeakMemRec {
                    phase: *phase,
                    peak_bytes: *peak_bytes,
                    wall_us: ev.wall_us,
                }),
                (EventKind::RunResumed { .. }, _) => {
                    m.resumes += 1;
                    for i in std::mem::take(&mut open).into_values() {
                        if let Some(run) = m.runs.get_mut(i) {
                            run.abandoned = true;
                        }
                    }
                }
                (EventKind::CausalEdge { edge, src, dst }, _) => m.edges.push(EdgeRec {
                    edge: edge.clone(),
                    src: src.clone(),
                    dst: dst.clone(),
                    runs_started: m.runs.len(),
                }),
                (
                    EventKind::KernelRun {
                        kernel,
                        input,
                        output,
                        comparisons,
                        passes,
                        elapsed_us,
                    },
                    _,
                ) => {
                    let k = m.kernels.entry(kernel.clone()).or_default();
                    k.input += input;
                    k.output += output;
                    k.passes += passes;
                    k.elapsed_us += elapsed_us;
                    k.comparisons.push(*comparisons);
                }
                (
                    EventKind::PartitionLocalSkyline {
                        partition,
                        input,
                        output,
                        pruned,
                        kernel,
                    },
                    _,
                ) => m.partitions.push(PartitionRec {
                    run: m.latest_run(m.runs.len(), |job| job.ends_with("-partition")),
                    partition: *partition,
                    input: *input,
                    output: *output,
                    pruned: *pruned,
                    kernel: kernel.clone(),
                }),
                (EventKind::SpanBegin { name }, _) => {
                    span_opens.entry(name.clone()).or_default().push(ev.wall_us);
                }
                (EventKind::SpanEnd { name }, _) => {
                    if let Some(begin) = span_opens.get_mut(name).and_then(Vec::pop) {
                        let slot = m.spans.entry(name.clone()).or_insert(0);
                        *slot = slot.saturating_add(ev.wall_us.saturating_sub(begin));
                    }
                }
                (EventKind::FaultInjected { site, fault, .. }, _) => {
                    bump(&mut m.faults, format!("{site}/{fault}"));
                }
                (EventKind::TaskRetryExhausted { .. }, _) => m.retries_exhausted += 1,
                (EventKind::CheckpointWritten { .. }, _) => m.checkpoints.0 += 1,
                (EventKind::CheckpointRestored { .. }, _) => m.checkpoints.1 += 1,
                (EventKind::RowsFiltered { input, filtered }, _) => {
                    m.filtered.0 += input;
                    m.filtered.1 += filtered;
                }
                (EventKind::SectorPruned { points, .. }, _) => {
                    m.sectors_pruned.0 += 1;
                    m.sectors_pruned.1 += points;
                }
                (
                    EventKind::Request {
                        op,
                        outcome,
                        sim_latency,
                        ..
                    },
                    _,
                ) => {
                    bump(&mut m.requests, format!("{op}/{outcome}"));
                    m.request_latency
                        .entry(op.clone())
                        .or_default()
                        .push(sim_latency.max(0.0));
                }
                (EventKind::BreakerTransition { op, from, to, .. }, _) => {
                    bump(&mut m.breaker_transitions, format!("{op}: {from}->{to}"));
                }
                (EventKind::Shed { reason, .. }, _) => bump(&mut m.sheds, reason.clone()),
                (
                    EventKind::SkybandRepair {
                        promoted,
                        underflow,
                        ..
                    },
                    _,
                ) => {
                    if *underflow {
                        m.skyband_repairs.1 += 1;
                    } else {
                        m.skyband_repairs.0 += 1;
                    }
                    m.skyband_repairs.2 += promoted;
                }
                (EventKind::StaleServed { reason, .. }, _) => {
                    bump(&mut m.stale_served, reason.clone());
                }
                _ => {}
            }
        }
        m.partitions.sort_by_key(|p| p.partition);
        m
    }

    /// The run a node of `edge` belongs to: the latest run of the node's
    /// job that started before the edge was emitted, so a job name that
    /// runs again does not take over its earlier runs' edges.
    pub(crate) fn run_of(&self, edge: &EdgeRec, node: &str) -> Option<usize> {
        let job = node_job(node)?;
        self.latest_run(edge.runs_started, |name| name == job)
    }

    /// The latest of the first `started` runs whose job name `job` accepts.
    fn latest_run(&self, started: usize, job: impl Fn(&str) -> bool) -> Option<usize> {
        self.runs[..started.min(self.runs.len())]
            .iter()
            .rposition(|r| job(&r.name))
    }

    /// How reports name run `i`: its job name, followed by `(run k of n)`
    /// when the name started more than once.
    pub fn run_label(&self, i: usize) -> String {
        let name = &self.runs[i].name;
        let n = self.runs.iter().filter(|r| &r.name == name).count();
        if n > 1 {
            let k = self.runs[..=i].iter().filter(|r| &r.name == name).count();
            format!("{name} (run {k} of {n})")
        } else {
            name.clone()
        }
    }

    /// The runs that finished, in start order.
    pub fn finished_runs(&self) -> impl Iterator<Item = &JobRun> {
        self.runs.iter().filter(|r| r.finished.is_some())
    }

    /// Total simulated run time: every finished run's `sim_total`, chained.
    pub fn total_sim(&self) -> f64 {
        self.finished_runs().map(JobRun::sim_total).sum()
    }

    /// Causal-edge counts by kind, sorted by kind.
    pub fn edge_counts(&self) -> BTreeMap<&str, u64> {
        let mut out = BTreeMap::new();
        for e in &self.edges {
            *out.entry(e.edge.as_str()).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EventKind::*;

    /// One finished job: a one-task map phase of `map` sim seconds, a
    /// one-task reduce phase of `reduce`, and a 0.5 s overhead.
    fn job(name: &str, map: f64, reduce: f64) -> Vec<EventKind> {
        let task = |phase, start: f64, end: f64| TaskFinished {
            job: name.into(),
            phase,
            task: 0,
            slot: 0,
            sim_start: start,
            sim_end: end,
        };
        let started = |phase, sim| PhaseStarted {
            job: name.into(),
            phase,
            tasks: 1,
            sim,
        };
        let finished = |phase, sim| PhaseFinished {
            job: name.into(),
            phase,
            sim,
        };
        vec![
            JobStarted { job: name.into() },
            started(PhaseKind::Map, 0.0),
            task(PhaseKind::Map, 0.0, map),
            finished(PhaseKind::Map, map),
            started(PhaseKind::Reduce, map),
            task(PhaseKind::Reduce, map, map + reduce),
            finished(PhaseKind::Reduce, map + reduce),
            JobFinished {
                job: name.into(),
                sim_total: map + reduce + 0.5,
                wall_seconds: 0.01,
            },
        ]
    }

    fn stream(kinds: Vec<EventKind>) -> Vec<TraceEvent> {
        (0u64..)
            .zip(kinds)
            .map(|(seq, kind)| TraceEvent {
                seq,
                wall_us: seq,
                kind,
            })
            .collect()
    }

    #[test]
    fn rebases_chained_jobs_onto_one_timeline() {
        let run = RunModel::from_events(&stream([job("a", 1.0, 2.0), job("b", 0.5, 0.5)].concat()));
        assert_eq!(run.runs.len(), 2);
        assert_eq!(run.runs[0].offset, 0.0);
        assert_eq!(run.runs[1].offset, run.runs[0].sim_total());
        assert_eq!(run.total_sim(), 3.5 + 1.5);
        assert_eq!(run.runs[0].overhead(), 0.5);
        assert_eq!(run.orphan, None);
    }

    #[test]
    fn task_event_before_job_started_is_an_error() {
        let mut kinds = vec![PhaseStarted {
            job: "ghost".into(),
            phase: PhaseKind::Map,
            tasks: 1,
            sim: 0.0,
        }];
        kinds.extend(job("a", 1.0, 1.0));
        let run = RunModel::from_events(&stream(kinds));
        assert_eq!(run.orphan.as_deref(), Some("ghost"));
        assert_eq!(run.runs.len(), 1, "the orphan event opens no run");
    }

    #[test]
    fn a_name_that_runs_twice_gets_a_run_each() {
        let run = RunModel::from_events(&stream([job("j", 1.0, 2.0), job("j", 4.0, 8.0)].concat()));
        assert_eq!(run.runs.len(), 2);
        for r in &run.runs {
            assert_eq!(r.map.tasks.len(), 1, "each run counts its own tasks");
            assert_eq!(r.reduce.announced, Some(1));
        }
        assert_eq!(run.runs[1].offset, 3.5);
        assert_eq!(run.runs[1].reduce.span(), 8.0);
        let text = run.summary();
        assert!(text.contains("job j (run 1 of 2): sim 3.50s"), "{text}");
        assert!(text.contains("job j (run 2 of 2): sim 12.50s"), "{text}");
        assert!(!text.contains("finished=2"), "{text}");
    }

    #[test]
    fn a_partition_record_belongs_to_the_partition_run_it_was_emitted_in() {
        let local = |partition| PartitionLocalSkyline {
            partition,
            input: 10,
            output: 2,
            pruned: false,
            kernel: "bnl".into(),
        };
        // one record before any partition run, one inside each run (the
        // second after an unrelated job started)
        let mut kinds = vec![local(9)];
        let mut first = job("x-partition", 1.0, 2.0);
        first.insert(5, local(0));
        kinds.extend(first);
        kinds.extend(job("x-merge", 1.0, 1.0));
        let mut second = job("x-partition", 1.0, 2.0);
        second.insert(5, local(1));
        kinds.extend(second);
        kinds.extend(job("x-merge", 1.0, 1.0));
        let m = RunModel::from_events(&stream(kinds));
        let runs: Vec<_> = m.partitions.iter().map(|p| (p.partition, p.run)).collect();
        assert_eq!(runs, [(0, Some(0)), (1, Some(2)), (9, None)]);
        assert_eq!(m.run_label(0), "x-partition (run 1 of 2)");
        assert_eq!(m.run_label(2), "x-partition (run 2 of 2)");
        let single = RunModel::from_events(&stream(job("y", 1.0, 1.0)));
        assert_eq!(single.run_label(0), "y");
    }

    #[test]
    fn an_edge_resolves_on_the_run_it_was_emitted_in() {
        let shuffle = || CausalEdge {
            edge: "shuffle".into(),
            src: "task:j/map/0".into(),
            dst: "task:j/reduce/0".into(),
        };
        // each run's edge sits between its map and its reduce phase
        let mut kinds = job("j", 1.0, 2.0);
        kinds.insert(4, shuffle());
        let mut rerun = job("j", 4.0, 8.0);
        rerun.insert(4, shuffle());
        kinds.extend(rerun);
        kinds.push(CausalEdge {
            edge: "chain".into(),
            src: "job:j".into(),
            dst: "job:never".into(),
        });
        let m = RunModel::from_events(&stream(kinds));
        let runs: Vec<_> = m
            .edges
            .iter()
            .map(|e| (m.run_of(e, &e.src), m.run_of(e, &e.dst)))
            .collect();
        assert_eq!(
            runs,
            [(Some(0), Some(0)), (Some(1), Some(1)), (Some(1), None)]
        );
        assert_eq!(node_job("phase:a/b/map"), Some("a/b"));
        assert_eq!(node_job("task:a/b/reduce/3"), Some("a/b"));
        assert_eq!(node_job("task:j"), None);
        assert_eq!(node_job("slot:j"), None);
    }

    #[test]
    fn a_killed_then_resumed_run_is_abandoned() {
        // The killed run finishes its map phase and dies in reduce.
        let mut kinds = job("j", 1.0, 2.0)[..5].to_vec();
        kinds.push(RunResumed { run: 2 });
        kinds.extend(job("j", 1.0, 2.0));
        let run = RunModel::from_events(&stream(kinds));
        assert_eq!(run.runs.len(), 2);
        assert!(run.runs[0].abandoned && run.runs[0].finished.is_none());
        assert!(!run.runs[1].abandoned);
        assert_eq!(run.runs[1].offset, 0.0, "the killed run finished nothing");
        assert_eq!(run.finished_runs().count(), 1);
        assert_eq!(run.orphan, None);
        let text = run.summary();
        assert!(text.contains("job j (run 1 of 2): abandoned"), "{text}");
        assert!(text.contains("job j (run 2 of 2): sim 3.50s"), "{text}");
    }

    #[test]
    fn median_duration_handles_even_and_odd() {
        let mut p = PhaseRec::new(PhaseKind::Map);
        for (i, d) in [1.0, 3.0, 2.0].iter().enumerate() {
            p.tasks.push(TaskRec {
                task: i as u64,
                slot: 0,
                start: 0.0,
                end: *d,
            });
        }
        assert_eq!(p.median_duration(), 2.0);
        p.tasks.pop();
        assert_eq!(p.median_duration(), 2.0);
    }
}
