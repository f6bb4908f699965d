//! Discrete-event cluster scheduler.
//!
//! Given the simulated durations of a phase's tasks, places them FIFO onto
//! the cluster's slots (`servers × slots_per_server`), exactly like Hadoop's
//! JobTracker handing map/reduce slots to queued tasks, and returns the
//! per-task timeline plus the phase span. This is what decouples the
//! *simulated* cluster size (4–32 servers in Figure 6) from the host
//! machine's core count: durations are computed from instrumented counters,
//! and the schedule is pure arithmetic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ordered-float wrapper so slot availability times can live in a heap.
#[derive(PartialEq, PartialOrd)]
struct F(f64);
impl Eq for F {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for F {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One scheduled task attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSlot {
    /// Task index within the phase.
    pub task: usize,
    /// Slot (0-based, `server * slots_per_server + slot`) the task ran on.
    pub slot: usize,
    /// Simulated start time (seconds).
    pub start: f64,
    /// Simulated end time (seconds).
    pub end: f64,
}

/// The schedule of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSchedule {
    /// Per-task timeline, indexed by task.
    pub timeline: Vec<TaskSlot>,
    /// Phase start (the `start` argument).
    pub start: f64,
    /// Phase end: max task end, or `start` for an empty phase.
    pub end: f64,
}

impl PhaseSchedule {
    /// Phase span in simulated seconds.
    pub fn span(&self) -> f64 {
        self.end - self.start
    }
}

/// Schedules `durations` FIFO onto `slots` parallel slots beginning at
/// `start`. Tasks are assigned in index order to the earliest-free slot.
///
/// # Panics
///
/// Panics if `slots == 0` or any duration is negative/non-finite.
pub fn schedule_phase(durations: &[f64], slots: usize, start: f64) -> PhaseSchedule {
    assert!(slots >= 1, "cluster must expose at least one slot");
    for (i, &d) in durations.iter().enumerate() {
        assert!(
            d.is_finite() && d >= 0.0,
            "task {i} has invalid duration {d}"
        );
    }
    if durations.is_empty() {
        return PhaseSchedule {
            timeline: Vec::new(),
            start,
            end: start,
        };
    }

    // min-heap of (available_time, slot_id)
    let mut heap: BinaryHeap<Reverse<(F, usize)>> =
        (0..slots).map(|s| Reverse((F(start), s))).collect();
    let mut timeline = Vec::with_capacity(durations.len());
    for (task, &dur) in durations.iter().enumerate() {
        let Reverse((F(avail), slot)) = heap.pop().expect("slots >= 1");
        let end = avail + dur;
        timeline.push(TaskSlot {
            task,
            slot,
            start: avail,
            end,
        });
        heap.push(Reverse((F(end), slot)));
    }

    let end = timeline.iter().map(|t| t.end).fold(start, f64::max);
    PhaseSchedule {
        timeline,
        start,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_phase_has_zero_span() {
        let s = schedule_phase(&[], 4, 10.0);
        assert_eq!(s.span(), 0.0);
        assert_eq!(s.end, 10.0);
    }

    #[test]
    fn single_slot_serializes_tasks() {
        let s = schedule_phase(&[1.0, 2.0, 3.0], 1, 0.0);
        assert_eq!(s.span(), 6.0);
        assert_eq!(s.timeline[2].start, 3.0);
        assert_eq!(s.timeline[2].end, 6.0);
    }

    #[test]
    fn equal_tasks_divide_evenly() {
        // 8 unit tasks on 4 slots → 2 waves
        let s = schedule_phase(&[1.0; 8], 4, 0.0);
        assert!((s.span() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn more_slots_never_hurt() {
        let durations: Vec<f64> = (0..40).map(|i| 1.0 + f64::from(i % 7)).collect();
        let mut prev = f64::INFINITY;
        for slots in [1, 2, 4, 8, 16, 64] {
            let s = schedule_phase(&durations, slots, 0.0);
            assert!(s.span() <= prev + 1e-12, "slots={slots}");
            prev = s.span();
        }
    }

    #[test]
    fn span_lower_bounds_hold() {
        let durations = [5.0, 1.0, 1.0, 1.0];
        let s = schedule_phase(&durations, 2, 0.0);
        let total: f64 = durations.iter().sum();
        assert!(s.span() >= total / 2.0 - 1e-12, "work bound");
        assert!(s.span() >= 5.0 - 1e-12, "critical-path bound");
    }

    #[test]
    fn fifo_assigns_in_task_order() {
        let s = schedule_phase(&[3.0, 1.0, 1.0], 2, 0.0);
        // task0 → slot A at t=0; task1 → slot B at t=0; task2 reuses B at t=1
        assert_eq!(s.timeline[0].start, 0.0);
        assert_eq!(s.timeline[1].start, 0.0);
        assert_eq!(s.timeline[2].start, 1.0);
        assert_eq!(s.timeline[2].slot, s.timeline[1].slot);
    }

    #[test]
    fn start_offset_shifts_everything() {
        let a = schedule_phase(&[1.0, 2.0], 2, 0.0);
        let b = schedule_phase(&[1.0, 2.0], 2, 100.0);
        assert_eq!(b.span(), a.span());
        assert_eq!(b.timeline[0].start, 100.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_durations() -> impl Strategy<Value = Vec<f64>> {
            proptest::collection::vec(0.0f64..50.0, 1..60)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn span_respects_work_and_critical_path_bounds(
                durations in arb_durations(),
                slots in 1usize..16,
            ) {
                let s = schedule_phase(&durations, slots, 0.0);
                let total: f64 = durations.iter().sum();
                let longest = durations.iter().copied().fold(0.0, f64::max);
                prop_assert!(s.span() + 1e-9 >= total / slots as f64, "work bound");
                prop_assert!(s.span() + 1e-9 >= longest, "critical path bound");
                prop_assert!(s.span() <= total + 1e-9, "never worse than serial");
            }

            #[test]
            fn more_slots_never_slower(durations in arb_durations(), slots in 1usize..8) {
                let a = schedule_phase(&durations, slots, 0.0);
                let b = schedule_phase(&durations, slots + 1, 0.0);
                prop_assert!(b.span() <= a.span() + 1e-9);
            }

            #[test]
            fn tasks_never_overlap_on_a_slot(durations in arb_durations(), slots in 1usize..8) {
                let s = schedule_phase(&durations, slots, 0.0);
                let mut by_slot: std::collections::BTreeMap<usize, Vec<(f64, f64)>> =
                    Default::default();
                for t in &s.timeline {
                    by_slot.entry(t.slot).or_default().push((t.start, t.end));
                }
                for intervals in by_slot.values_mut() {
                    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                    for w in intervals.windows(2) {
                        prop_assert!(w[0].1 <= w[1].0 + 1e-9, "overlap: {:?}", w);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = schedule_phase(&[1.0], 0, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_rejected() {
        let _ = schedule_phase(&[-1.0], 1, 0.0);
    }
}
