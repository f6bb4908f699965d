//! Reconstructing a run model from a JSONL trace stream.
//!
//! The tracer writes each job's timing in that job's own sim clock
//! (starting at 0); chained jobs restart the clock. The model rebases
//! every job onto one run-global timeline by accumulating the finished
//! jobs' `sim_total`s — the same rebasing the Chrome exporter performs —
//! so downstream analyses (critical path, stragglers, skew) can reason
//! about one monotonic clock.

use mrsky_trace::{EventKind, PhaseKind, TraceEvent};
use std::collections::BTreeMap;

/// One task execution, in job-local sim seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRec {
    /// Task index within its phase.
    pub task: u64,
    /// Slot (simulated cluster-wide execution slot) the task ran on.
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

/// One phase (map or reduce) of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRec {
    /// Which phase this is.
    pub kind: PhaseKind,
    /// Phase start in job-local sim seconds.
    pub start: f64,
    /// Phase end in job-local sim seconds.
    pub end: f64,
    /// Per-task spans, in event order (task index order).
    pub tasks: Vec<TaskRec>,
    /// Steals the executor performed while running this phase.
    pub steals: Vec<StealRec>,
}

impl PhaseRec {
    fn new(kind: PhaseKind) -> Self {
        PhaseRec {
            kind,
            start: 0.0,
            end: 0.0,
            tasks: Vec::new(),
            steals: Vec::new(),
        }
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
}

/// Per-partition local-skyline accounting (emitted by the partition job's
/// reducers; the reduce task index equals the partition id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionRec {
    /// Partition id.
    pub partition: u64,
    /// Input rows routed to the partition.
    pub input: u64,
    /// Local-skyline rows it produced.
    pub output: u64,
    /// Whether the partition was pruned without running a kernel.
    pub pruned: bool,
    /// Resolved local kernel that processed the partition (`"pruned"` for
    /// skipped partitions, empty for pre-schema traces).
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
}

/// One finished job, rebased onto the run-global timeline via [`JobRec::offset`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobRec {
    /// Job name.
    pub name: String,
    /// Run-global sim second at which this job's local clock zero sits.
    pub offset: f64,
    /// Total simulated job time (overhead + reduce end).
    pub sim_total: f64,
    /// The map phase.
    pub map: PhaseRec,
    /// The reduce phase.
    pub reduce: PhaseRec,
    /// Per-reducer shuffle accounting.
    pub shuffle: Vec<ShuffleRec>,
}

impl JobRec {
    /// The phase record for `kind`.
    pub fn phase(&self, kind: PhaseKind) -> &PhaseRec {
        match kind {
            PhaseKind::Map => &self.map,
            PhaseKind::Reduce => &self.reduce,
        }
    }

    /// Job overhead: the slice of `sim_total` not covered by the phases.
    pub fn overhead(&self) -> f64 {
        (self.sim_total - self.reduce.end).max(0.0)
    }
}

/// The reconstructed run: every finished job in completion order, plus the
/// run-wide causal edges and partition accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunModel {
    /// Finished jobs in completion order.
    pub jobs: Vec<JobRec>,
    /// All causal edges, in emission order.
    pub edges: Vec<EdgeRec>,
    /// Per-partition accounting from the partition job's reducers.
    pub partitions: Vec<PartitionRec>,
}

impl RunModel {
    /// Builds the model from a parsed event stream.
    ///
    /// # Errors
    ///
    /// Reports task/phase events for jobs that never started, or a stream
    /// with no finished job.
    pub fn from_events(events: &[TraceEvent]) -> Result<RunModel, String> {
        let mut open: BTreeMap<String, JobRec> = BTreeMap::new();
        let mut model = RunModel::default();
        let mut sim_cursor = 0.0f64;

        let lookup = |open: &mut BTreeMap<String, JobRec>, job: &str| -> Result<JobRec, String> {
            open.remove(job)
                .ok_or_else(|| format!("event for job `{job}` before its job_started"))
        };

        for ev in events {
            match &ev.kind {
                EventKind::JobStarted { job } => {
                    open.insert(
                        job.clone(),
                        JobRec {
                            name: job.clone(),
                            offset: 0.0,
                            sim_total: 0.0,
                            map: PhaseRec::new(PhaseKind::Map),
                            reduce: PhaseRec::new(PhaseKind::Reduce),
                            shuffle: Vec::new(),
                        },
                    );
                }
                EventKind::JobFinished { job, sim_total, .. } => {
                    let mut rec = lookup(&mut open, job)?;
                    rec.sim_total = *sim_total;
                    rec.offset = sim_cursor;
                    sim_cursor += *sim_total;
                    model.jobs.push(rec);
                }
                EventKind::PhaseStarted {
                    job, phase, sim, ..
                } => {
                    let mut rec = lookup(&mut open, job)?;
                    rec.phase_mut(*phase).start = *sim;
                    open.insert(job.clone(), rec);
                }
                EventKind::PhaseFinished {
                    job, phase, sim, ..
                } => {
                    let mut rec = lookup(&mut open, job)?;
                    rec.phase_mut(*phase).end = *sim;
                    open.insert(job.clone(), rec);
                }
                EventKind::TaskFinished {
                    job,
                    phase,
                    task,
                    slot,
                    sim_start,
                    sim_end,
                } => {
                    let mut rec = lookup(&mut open, job)?;
                    rec.phase_mut(*phase).tasks.push(TaskRec {
                        task: *task,
                        slot: *slot,
                        start: *sim_start,
                        end: *sim_end,
                    });
                    open.insert(job.clone(), rec);
                }
                EventKind::TaskStolen {
                    job,
                    phase,
                    task,
                    thief,
                    victim,
                } => {
                    let mut rec = lookup(&mut open, job)?;
                    rec.phase_mut(*phase).steals.push(StealRec {
                        task: *task,
                        thief: *thief,
                        victim: *victim,
                    });
                    open.insert(job.clone(), rec);
                }
                EventKind::ShufflePartition {
                    job,
                    reducer,
                    bytes,
                    records,
                    segments,
                } => {
                    let mut rec = lookup(&mut open, job)?;
                    rec.shuffle.push(ShuffleRec {
                        reducer: *reducer,
                        bytes: *bytes,
                        records: *records,
                        segments: *segments,
                    });
                    open.insert(job.clone(), rec);
                }
                EventKind::CausalEdge { edge, src, dst } => {
                    model.edges.push(EdgeRec {
                        edge: edge.clone(),
                        src: src.clone(),
                        dst: dst.clone(),
                    });
                }
                EventKind::PartitionLocalSkyline {
                    partition,
                    input,
                    output,
                    pruned,
                    kernel,
                } => {
                    model.partitions.push(PartitionRec {
                        partition: *partition,
                        input: *input,
                        output: *output,
                        pruned: *pruned,
                        kernel: kernel.clone(),
                    });
                }
                _ => {}
            }
        }

        if model.jobs.is_empty() {
            return Err("trace contains no finished job".into());
        }
        model.partitions.sort_by_key(|p| p.partition);
        Ok(model)
    }

    /// The job whose name carries `suffix` (`-partition`, `-merge`, ...).
    pub fn job_with_suffix(&self, suffix: &str) -> Option<&JobRec> {
        self.jobs.iter().find(|j| j.name.ends_with(suffix))
    }

    /// Total simulated run time: every job's `sim_total`, chained.
    pub fn total_sim(&self) -> f64 {
        self.jobs.iter().map(|j| j.sim_total).sum()
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

impl JobRec {
    fn phase_mut(&mut self, kind: PhaseKind) -> &mut PhaseRec {
        match kind {
            PhaseKind::Map => &mut self.map,
            PhaseKind::Reduce => &mut self.reduce,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{job_events, SimJob};

    #[test]
    fn rebases_chained_jobs_onto_one_timeline() {
        let mut events = job_events(&SimJob::uniform("a", 2, &[1.0, 1.0], &[2.0]), 0);
        let next_seq = events.len() as u64;
        events.extend(job_events(
            &SimJob::uniform("b", 1, &[0.5], &[0.5]),
            next_seq,
        ));
        let run = RunModel::from_events(&events).unwrap();
        assert_eq!(run.jobs.len(), 2);
        assert_eq!(run.jobs[0].offset, 0.0);
        assert!((run.jobs[1].offset - run.jobs[0].sim_total).abs() < 1e-9);
        assert!((run.total_sim() - (run.jobs[0].sim_total + run.jobs[1].sim_total)).abs() < 1e-9);
    }

    #[test]
    fn task_event_before_job_started_is_an_error() {
        let ev = TraceEvent {
            seq: 0,
            wall_us: 0,
            kind: EventKind::PhaseStarted {
                job: "ghost".into(),
                phase: PhaseKind::Map,
                tasks: 1,
                sim: 0.0,
            },
        };
        let err = RunModel::from_events(&[ev]).unwrap_err();
        assert!(err.contains("ghost"), "{err}");
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
        assert!((p.median_duration() - 2.0).abs() < 1e-12);
        p.tasks.pop();
        assert!((p.median_duration() - 2.0).abs() < 1e-12);
    }
}
