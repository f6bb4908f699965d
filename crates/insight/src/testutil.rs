//! Synthetic trace generation: turns declared phase durations into the
//! schema-valid event stream a real run would emit, via the same FIFO
//! scheduler the what-if analysis uses. Shared by this crate's unit tests
//! and the property tests; public so downstream tests can build fixtures.

use crate::sim::fifo_schedule;
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
}
