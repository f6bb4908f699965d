//! Straggler attribution: tasks that ran long relative to their phase's
//! median, with work-stealing rescue accounting.

use mrsky_trace::PhaseKind;
use mrsky_trace::RunModel;

/// Default flagging threshold: a task is a straggler when it ran at least
/// this many times the phase median.
pub const DEFAULT_THRESHOLD: f64 = 1.5;

/// One flagged straggler.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Job the task ran in.
    pub job: String,
    /// Phase the task ran in.
    pub phase: PhaseKind,
    /// Task index (equals the partition id for a partition job's reducers).
    pub task: u64,
    /// Slot it occupied.
    pub slot: u64,
    /// Task duration in sim seconds.
    pub duration: f64,
    /// Phase median duration.
    pub median: f64,
    /// `duration / median`.
    pub ratio: f64,
    /// Whether the work-stealing executor moved this task off its seeded
    /// worker (a steal both rebalances and *marks* the heavy range).
    pub stolen: bool,
}

/// Flags every task whose duration is at least `threshold` times its
/// phase's median, slowest first. Phases with fewer than two tasks are
/// skipped — a single task is trivially "the whole phase", not a straggler.
pub fn stragglers(run: &RunModel, threshold: f64) -> Vec<Straggler> {
    let mut out = Vec::new();
    for job in run.finished_runs() {
        for phase in [&job.map, &job.reduce] {
            if phase.tasks.len() < 2 {
                continue;
            }
            let median = phase.median_duration();
            if median <= 0.0 {
                continue;
            }
            for t in &phase.tasks {
                let ratio = t.duration() / median;
                if ratio >= threshold {
                    out.push(Straggler {
                        job: job.name.clone(),
                        phase: phase.kind,
                        task: t.task,
                        slot: t.slot,
                        duration: t.duration(),
                        median,
                        ratio,
                        stolen: phase.steals.iter().any(|s| s.task == t.task),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{job_events, SimJob};
    use mrsky_trace::model::StealRec;

    #[test]
    fn flags_the_slow_task_and_orders_by_ratio() {
        let job = SimJob::uniform("j", 4, &[1.0, 1.0, 8.0, 1.0], &[1.0, 4.0, 1.0, 1.0]);
        let run = RunModel::from_events(&job_events(&job, 0));
        let s = stragglers(&run, DEFAULT_THRESHOLD);
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].phase, s[0].task), (PhaseKind::Map, 2));
        assert_eq!((s[1].phase, s[1].task), (PhaseKind::Reduce, 1));
        assert!(s[0].ratio > s[1].ratio);
    }

    #[test]
    fn uniform_phases_produce_no_stragglers() {
        let job = SimJob::uniform("j", 2, &[1.0, 1.0, 1.0], &[2.0, 2.0]);
        let run = RunModel::from_events(&job_events(&job, 0));
        assert!(stragglers(&run, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn steal_on_the_straggler_is_reported_as_rescue() {
        let job = SimJob::uniform("j", 2, &[1.0, 5.0, 1.0], &[1.0]);
        let mut run = RunModel::from_events(&job_events(&job, 0));
        run.runs[0].map.steals.push(StealRec {
            task: 1,
            thief: 0,
            victim: 1,
        });
        let s = stragglers(&run, DEFAULT_THRESHOLD);
        assert_eq!(s.len(), 1);
        assert!(s[0].stolen);
    }
}
