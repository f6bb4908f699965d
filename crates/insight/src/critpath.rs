//! Critical-path extraction over the reconstructed run model.
//!
//! In FIFO list scheduling every task starts either at its phase's start or
//! exactly when its slot's previous task ends, so the longest chain can be
//! recovered by walking backwards from the phase's last-finishing task:
//! follow the same-slot task whose end matches the current task's start
//! until the chain reaches the phase start, then cross the shuffle barrier
//! into the previous phase. The resulting segments *tile* each job's
//! `[0, sim_total]` interval exactly — task segments, explicit wait
//! segments for any scheduling gaps, and one overhead segment — so the
//! per-phase blame always sums to the reported simulated wall time.

use mrsky_trace::model::{JobRun, PhaseRec};
use mrsky_trace::PhaseKind;
use mrsky_trace::RunModel;
use std::collections::BTreeMap;

/// What one critical-path segment spent its time on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentKind {
    /// Fixed job overhead (startup, scheduling).
    Overhead,
    /// Idle time on the critical slot — no task end lines up exactly.
    Wait {
        /// Phase the gap occurred in.
        phase: PhaseKind,
    },
    /// A task execution on the critical chain.
    Task {
        /// Phase the task belongs to.
        phase: PhaseKind,
        /// Task index (for a partition job's reduce phase this *is* the
        /// partition id).
        task: u64,
        /// Slot the task ran on.
        slot: u64,
    },
}

/// One tile of the critical path, in run-global sim seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The job run the segment belongs to (index into [`RunModel::runs`]).
    pub run: usize,
    /// What the time was spent on.
    pub kind: SegmentKind,
    /// Run-global start.
    pub start: f64,
    /// Run-global end.
    pub end: f64,
}

impl Segment {
    /// Segment duration in sim seconds.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// The extracted critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Chronological segments tiling the whole run.
    pub segments: Vec<Segment>,
    /// Sum of segment durations — equals the chained simulated wall time.
    pub total: f64,
    /// Blame per `{run}/{map|reduce|overhead}`, summing to `total`; a run
    /// is named by [`RunModel::run_label`], so a rerun job name gets a key
    /// per run.
    pub phase_blame: BTreeMap<String, f64>,
}

fn approx(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + scale.abs())
}

/// Walks one phase backwards from its last-finishing task and returns the
/// chronological chain of task indices (into `phase.tasks`).
fn phase_chain(phase: &PhaseRec) -> Vec<usize> {
    let scale = phase.end;
    let Some(tail) = (0..phase.tasks.len()).max_by(|&a, &b| {
        phase.tasks[a]
            .end
            .total_cmp(&phase.tasks[b].end)
            .then(phase.tasks[b].task.cmp(&phase.tasks[a].task))
    }) else {
        return Vec::new();
    };
    let mut chain = vec![tail];
    let mut visited = vec![false; phase.tasks.len()];
    visited[tail] = true;
    let mut cur = tail;
    while phase.tasks[cur].start > phase.start + 1e-9 * (1.0 + scale.abs()) {
        let cur_start = phase.tasks[cur].start;
        let cur_slot = phase.tasks[cur].slot;
        let candidates = || {
            (0..phase.tasks.len()).filter(|&i| {
                !visited[i] && phase.tasks[i].end <= cur_start + 1e-9 * (1.0 + scale.abs())
            })
        };
        // Same-slot exact predecessor first (the FIFO invariant), then any
        // exact end match, then the latest earlier finisher (gap -> wait).
        let pred = candidates()
            .find(|&i| {
                phase.tasks[i].slot == cur_slot && approx(phase.tasks[i].end, cur_start, scale)
            })
            .or_else(|| candidates().find(|&i| approx(phase.tasks[i].end, cur_start, scale)))
            .or_else(|| {
                candidates().max_by(|&a, &b| phase.tasks[a].end.total_cmp(&phase.tasks[b].end))
            });
        let Some(p) = pred else { break };
        visited[p] = true;
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    chain
}

/// Tiles `[phase.start, phase.end]` with the phase's critical chain,
/// inserting explicit wait segments for any gaps.
fn phase_segments(run: usize, job: &JobRun, phase: &PhaseRec, out: &mut Vec<Segment>) {
    let scale = phase.end;
    let mut t0 = phase.start;
    for i in phase_chain(phase) {
        let t = &phase.tasks[i];
        if t.start > t0 + 1e-9 * (1.0 + scale.abs()) {
            out.push(Segment {
                run,
                kind: SegmentKind::Wait { phase: phase.kind },
                start: job.offset + t0,
                end: job.offset + t.start,
            });
            t0 = t.start;
        }
        out.push(Segment {
            run,
            kind: SegmentKind::Task {
                phase: phase.kind,
                task: t.task,
                slot: t.slot,
            },
            start: job.offset + t0,
            end: job.offset + t.end.max(t0),
        });
        t0 = t.end.max(t0);
    }
    if phase.end > t0 + 1e-9 * (1.0 + scale.abs()) {
        out.push(Segment {
            run,
            kind: SegmentKind::Wait { phase: phase.kind },
            start: job.offset + t0,
            end: job.offset + phase.end,
        });
    }
}

/// Extracts the run's critical path. Jobs are chained in completion order;
/// within a job the path crosses the shuffle barrier from the reduce chain
/// into the map chain, and the fixed job overhead gets its own segment.
pub fn critical_path(run: &RunModel) -> CriticalPath {
    let mut segments = Vec::new();
    for (i, job) in run.runs.iter().enumerate() {
        if job.finished.is_none() {
            continue;
        }
        phase_segments(i, job, &job.map, &mut segments);
        phase_segments(i, job, &job.reduce, &mut segments);
        let overhead = job.overhead();
        if overhead > 0.0 {
            segments.push(Segment {
                run: i,
                kind: SegmentKind::Overhead,
                start: job.offset + job.reduce.end,
                end: job.offset + job.reduce.end + overhead,
            });
        }
    }
    let mut phase_blame: BTreeMap<String, f64> = BTreeMap::new();
    let mut total = 0.0;
    for s in &segments {
        let label = run.run_label(s.run);
        let key = match &s.kind {
            SegmentKind::Overhead => format!("{label}/overhead"),
            SegmentKind::Wait { phase } | SegmentKind::Task { phase, .. } => {
                format!("{label}/{}", phase.as_str())
            }
        };
        *phase_blame.entry(key).or_insert(0.0) += s.duration();
        total += s.duration();
    }
    CriticalPath {
        segments,
        total,
        phase_blame,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{job_events, SimJob};

    fn run(job: &SimJob) -> RunModel {
        RunModel::from_events(&job_events(job, 0))
    }

    #[test]
    fn blame_sums_exactly_to_sim_total() {
        let job = SimJob::uniform("j", 3, &[1.0, 4.0, 2.0, 1.5, 0.5], &[2.0, 1.0]);
        let model = run(&job);
        let cp = critical_path(&model);
        assert!(
            (cp.total - model.total_sim()).abs() < 1e-9,
            "{} vs {}",
            cp.total,
            model.total_sim()
        );
        let blamed: f64 = cp.phase_blame.values().sum();
        assert!((blamed - cp.total).abs() < 1e-9);
    }

    #[test]
    fn path_includes_the_longest_map_task() {
        let job = SimJob::uniform("j", 4, &[0.1, 9.0, 0.1, 0.1], &[0.5]);
        let cp = critical_path(&run(&job));
        assert!(cp.segments.iter().any(|s| matches!(
            s.kind,
            SegmentKind::Task {
                phase: PhaseKind::Map,
                task: 1,
                ..
            }
        )));
    }

    #[test]
    fn segments_are_contiguous_within_each_job() {
        let job = SimJob::uniform("j", 2, &[1.0, 2.0, 3.0, 0.5], &[1.0, 2.5]);
        let cp = critical_path(&run(&job));
        for w in cp.segments.windows(2) {
            if w[0].run == w[1].run && !matches!(w[1].kind, SegmentKind::Overhead) {
                assert!((w[0].end - w[1].start).abs() < 1e-9, "gap between {w:?}");
            }
        }
    }

    #[test]
    fn chained_jobs_concatenate() {
        let a = SimJob::uniform("a", 2, &[1.0, 2.0], &[1.0]);
        let b = SimJob::uniform("b", 2, &[0.5], &[0.25]);
        let mut events = job_events(&a, 0);
        let n = events.len() as u64;
        events.extend(job_events(&b, n));
        let model = RunModel::from_events(&events);
        let cp = critical_path(&model);
        assert!((cp.total - model.total_sim()).abs() < 1e-9);
        assert!(cp.phase_blame.keys().any(|k| k.starts_with("a/")));
        assert!(cp.phase_blame.keys().any(|k| k.starts_with("b/")));
    }

    #[test]
    fn empty_phase_becomes_a_wait_segment() {
        let job = SimJob::uniform("j", 2, &[], &[1.0]);
        let model = run(&job);
        let cp = critical_path(&model);
        // Map phase is empty (0 tasks, start == end == 0): nothing to tile.
        assert!((cp.total - model.total_sim()).abs() < 1e-9);
    }
}
