//! Synthetic trace generation: turns declared phase durations into the
//! schema-valid event stream a real run would emit, via a FIFO list
//! scheduler that mirrors the runtime's. Shared by this crate's unit tests
//! and the property tests; public so downstream tests can build fixtures.

use mrsky_trace::model::TaskRec;
use mrsky_trace::{EventKind, PhaseKind, TraceEvent};

/// A declarative job: per-task durations for both phases plus the slot
/// count and fixed job overhead.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Job name.
    pub name: String,
    /// Simulated slots available to both phases.
    pub slots: usize,
    /// Map-task durations, indexed by task.
    pub map_durations: Vec<f64>,
    /// Reduce-task durations, indexed by task.
    pub reduce_durations: Vec<f64>,
    /// Fixed per-job overhead added to `sim_total`.
    pub overhead: f64,
}

impl SimJob {
    /// A job with the given durations and a 0.1 s overhead.
    pub fn uniform(name: &str, slots: usize, map: &[f64], reduce: &[f64]) -> SimJob {
        SimJob {
            name: name.to_string(),
            slots,
            map_durations: map.to_vec(),
            reduce_durations: reduce.to_vec(),
            overhead: 0.1,
        }
    }
}

/// List-schedules `durations` (indexed by task) onto `slots` slots starting
/// at sim second `start`, by the runtime scheduler's core rule: tasks are
/// assigned in task-index order, each to the slot that frees up earliest,
/// and start at `max(phase start, slot free time)`. Returns the per-task
/// spans and the phase end.
fn fifo_schedule(durations: &[f64], slots: usize, start: f64) -> (Vec<TaskRec>, f64) {
    assert!(slots >= 1, "need at least one slot");
    let mut free = vec![start; slots];
    let mut tasks = Vec::with_capacity(durations.len());
    for (i, &d) in durations.iter().enumerate() {
        let slot = (0..slots)
            .min_by(|&a, &b| free[a].total_cmp(&free[b]))
            .unwrap_or(0);
        let t0 = free[slot];
        let t1 = t0 + d.max(0.0);
        free[slot] = t1;
        tasks.push(TaskRec {
            task: i as u64,
            slot: slot as u64,
            start: t0,
            end: t1,
        });
    }
    let end = tasks.iter().map(|t| t.end).fold(start, f64::max);
    (tasks, end)
}

/// Emits the full event stream of one simulated job, with sequence numbers
/// starting at `seq0`. The stream passes `validate_events` and models the
/// runtime's emission order: job start, map phase, reduce phase, job finish.
pub fn job_events(job: &SimJob, seq0: u64) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    let mut seq = seq0;
    let mut push = |out: &mut Vec<TraceEvent>, kind: EventKind| {
        out.push(TraceEvent {
            seq,
            wall_us: seq,
            kind,
        });
        seq += 1;
    };

    push(
        &mut out,
        EventKind::JobStarted {
            job: job.name.clone(),
        },
    );
    let (map_tasks, map_end) = fifo_schedule(&job.map_durations, job.slots, 0.0);
    let (reduce_tasks, reduce_end) = fifo_schedule(&job.reduce_durations, job.slots, map_end);
    for (kind, start, end, tasks) in [
        (PhaseKind::Map, 0.0, map_end, &map_tasks),
        (PhaseKind::Reduce, map_end, reduce_end, &reduce_tasks),
    ] {
        push(
            &mut out,
            EventKind::PhaseStarted {
                job: job.name.clone(),
                phase: kind,
                tasks: tasks.len() as u64,
                sim: start,
            },
        );
        for t in tasks.iter() {
            push(
                &mut out,
                EventKind::TaskFinished {
                    job: job.name.clone(),
                    phase: kind,
                    task: t.task,
                    slot: t.slot,
                    sim_start: t.start,
                    sim_end: t.end,
                },
            );
        }
        push(
            &mut out,
            EventKind::PhaseFinished {
                job: job.name.clone(),
                phase: kind,
                sim: end,
            },
        );
    }
    push(
        &mut out,
        EventKind::JobFinished {
            job: job.name.clone(),
            sim_total: job.overhead + reduce_end,
            wall_seconds: 0.0,
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_stream_is_schema_valid() {
        let events = job_events(&SimJob::uniform("j", 2, &[1.0, 2.0, 0.5], &[1.0]), 0);
        let problems = mrsky_trace::validate_events(&events);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn single_slot_serializes() {
        let (tasks, end) = fifo_schedule(&[1.0, 2.0, 3.0], 1, 0.0);
        assert_eq!(tasks[1].start, 1.0);
        assert_eq!(tasks[2].start, 3.0);
        assert_eq!(end, 6.0);
    }

    #[test]
    fn two_slots_overlap() {
        let (tasks, end) = fifo_schedule(&[2.0, 1.0, 1.0], 2, 5.0);
        assert_eq!(tasks[0].slot, 0);
        assert_eq!(tasks[1].slot, 1);
        // task 2 goes to the slot that frees first (slot 1 at t=6)
        assert_eq!(tasks[2].slot, 1);
        assert_eq!(end, 7.0);
    }

    #[test]
    fn empty_phase_ends_at_start() {
        let (tasks, end) = fifo_schedule(&[], 3, 2.5);
        assert!(tasks.is_empty());
        assert_eq!(end, 2.5);
    }
}
