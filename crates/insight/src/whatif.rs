//! What-if analysis: how much wall time would perfect speculation have
//! saved? For each phase we re-run the FIFO list scheduler twice — once
//! with the observed task durations, once with the slowest task clamped to
//! the phase median (what a perfectly timed backup copy would achieve) —
//! and report the difference. Both walls come from the same simulator, so
//! the comparison is apples-to-apples whatever scheduler wrote the trace.

use crate::model::RunModel;
use crate::sim::fifo_schedule;
use mrsky_trace::PhaseKind;

/// What-if result for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    /// Job name.
    pub job: String,
    /// Phase analyzed.
    pub phase: PhaseKind,
    /// The slowest task (the one speculation would back up).
    pub slowest_task: u64,
    /// Its observed duration.
    pub slowest_duration: f64,
    /// Phase wall with observed durations (re-simulated).
    pub baseline_wall: f64,
    /// Phase wall with the slowest task clamped to the median.
    pub speculative_wall: f64,
}

impl WhatIf {
    /// Wall seconds perfect speculation would have saved on this phase.
    pub fn saved(&self) -> f64 {
        (self.baseline_wall - self.speculative_wall).max(0.0)
    }
}

/// Runs the what-if analysis over every phase with at least two tasks,
/// biggest saving first.
pub fn what_if_speculation(run: &RunModel) -> Vec<WhatIf> {
    let mut out = Vec::new();
    for job in &run.jobs {
        for phase in [&job.map, &job.reduce] {
            if phase.tasks.len() < 2 {
                continue;
            }
            let slots = phase
                .tasks
                .iter()
                .map(|t| t.slot as usize)
                .max()
                .unwrap_or(0)
                + 1;
            let mut durations = vec![0.0f64; phase.tasks.len()];
            for t in &phase.tasks {
                let i = t.task as usize;
                if i < durations.len() {
                    durations[i] = t.duration();
                }
            }
            let Some(slowest) =
                (0..durations.len()).max_by(|&a, &b| durations[a].total_cmp(&durations[b]))
            else {
                continue;
            };
            let median = phase.median_duration();
            if durations[slowest] <= median {
                continue;
            }
            let (_, baseline) = fifo_schedule(&durations, slots, 0.0);
            let mut clamped = durations.clone();
            clamped[slowest] = median;
            let (_, speculative) = fifo_schedule(&clamped, slots, 0.0);
            out.push(WhatIf {
                job: job.name.clone(),
                phase: phase.kind,
                slowest_task: slowest as u64,
                slowest_duration: durations[slowest],
                baseline_wall: baseline,
                speculative_wall: speculative,
            });
        }
    }
    out.sort_by(|a, b| b.saved().total_cmp(&a.saved()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RunModel;
    use crate::testutil::{job_events, SimJob};

    #[test]
    fn clamping_the_straggler_saves_wall_time() {
        let job = SimJob::uniform("j", 4, &[1.0, 1.0, 10.0, 1.0], &[1.0, 1.0]);
        let run = RunModel::from_events(&job_events(&job, 0)).unwrap();
        let res = what_if_speculation(&run);
        let map = res
            .iter()
            .find(|w| w.phase == PhaseKind::Map)
            .expect("map analyzed");
        assert_eq!(map.slowest_task, 2);
        assert!(map.saved() > 8.0, "saved {}", map.saved());
        assert!(map.speculative_wall >= 1.0);
    }

    #[test]
    fn uniform_phase_saves_nothing() {
        let job = SimJob::uniform("j", 2, &[1.0, 1.0, 1.0, 1.0], &[1.0]);
        let run = RunModel::from_events(&job_events(&job, 0)).unwrap();
        assert!(what_if_speculation(&run).is_empty());
    }
}
