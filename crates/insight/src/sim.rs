//! A tiny FIFO list scheduler, shared by the what-if analysis and the
//! synthetic-trace generators in tests.
//!
//! This mirrors the runtime scheduler's core rule: tasks are assigned in
//! task-index order, each to the slot that frees up earliest, and start at
//! `max(phase start, slot free time)`. It is the *counterfactual* baseline
//! the what-if analysis re-runs with altered durations.

use crate::model::TaskRec;

/// List-schedules `durations` (indexed by task) onto `slots` slots starting
/// at sim second `start`. Returns the per-task spans and the phase end.
pub fn fifo_schedule(durations: &[f64], slots: usize, start: f64) -> (Vec<TaskRec>, f64) {
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

#[cfg(test)]
mod tests {
    use super::*;

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
