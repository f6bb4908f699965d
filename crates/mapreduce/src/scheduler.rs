//! Discrete-event cluster scheduler.
//!
//! Given the simulated durations of a phase's tasks, places them FIFO onto
//! the cluster's slots (`servers × slots_per_server`), exactly like Hadoop's
//! JobTracker handing map/reduce slots to queued tasks, and returns the
//! per-task timeline plus the phase span. This is what decouples the
//! *simulated* cluster size (4–32 servers in Figure 6) from the host
//! machine's core count: durations are computed from instrumented counters,
//! and the schedule is pure arithmetic.
//!
//! Speculative execution (Hadoop's straggler mitigation) is modelled
//! optionally: when a task's duration exceeds `threshold ×` the phase
//! median, a backup copy is launched once a slot frees up and the task
//! completes at the earlier of the two attempts — an intentionally
//! simplified but monotone model (speculation never lengthens the span).

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
    /// `true` if this completion came from a speculative backup attempt.
    pub speculative: bool,
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
    /// Number of speculative backups that won their race.
    pub speculative_wins: usize,
}

impl PhaseSchedule {
    /// Phase span in simulated seconds.
    pub fn span(&self) -> f64 {
        self.end - self.start
    }
}

/// Speculative-execution policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationConfig {
    /// Enable speculative backups.
    pub enabled: bool,
    /// A task is a straggler when `duration > threshold × median`.
    pub threshold: f64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            threshold: 1.5,
        }
    }
}

impl SpeculationConfig {
    /// Hadoop-style defaults, enabled.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            threshold: 1.5,
        }
    }

    /// Checks the straggler threshold is usable: finite and at least 1.0
    /// (below 1.0 every task beats the "median × threshold" bar and the
    /// scheduler would speculate on everything).
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if !self.threshold.is_finite() {
            return Err(format!(
                "speculation threshold {} is not finite",
                self.threshold
            ));
        }
        if self.threshold < 1.0 {
            return Err(format!(
                "speculation threshold {} < 1.0 would mark every task a straggler",
                self.threshold
            ));
        }
        Ok(())
    }
}

/// Schedules `durations` FIFO onto `slots` parallel slots beginning at
/// `start`. Tasks are assigned in index order to the earliest-free slot.
///
/// # Panics
///
/// Panics if `slots == 0` or any duration is negative/non-finite.
pub fn schedule_phase(
    durations: &[f64],
    slots: usize,
    start: f64,
    speculation: &SpeculationConfig,
) -> PhaseSchedule {
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
            speculative_wins: 0,
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
            speculative: false,
        });
        heap.push(Reverse((F(end), slot)));
    }

    let speculative_wins = apply_speculation(&mut timeline, durations, speculation);

    let end = timeline.iter().map(|t| t.end).fold(start, f64::max);
    PhaseSchedule {
        timeline,
        start,
        end,
        speculative_wins,
    }
}

/// Post-pass modelling Hadoop's speculative execution: a task whose duration
/// exceeds `threshold ×` the phase median gets a backup copy launched at its
/// detection time; it completes at the earlier of the two attempts. Slots
/// free up at the phase's tentative end of non-stragglers; the simplified
/// model launches the backup at detection (`start + cutoff`) and gives it
/// the median duration — monotone: speculation never lengthens the span.
fn apply_speculation(
    timeline: &mut [TaskSlot],
    durations: &[f64],
    speculation: &SpeculationConfig,
) -> usize {
    if !speculation.enabled || durations.len() < 2 {
        return 0;
    }
    let mut sorted = durations.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    if median <= 0.0 {
        return 0;
    }
    let cutoff = speculation.threshold * median;
    let mut wins = 0;
    for ts in timeline.iter_mut() {
        let dur = ts.end - ts.start;
        if dur > cutoff {
            let backup_start = ts.start + cutoff;
            let backup_end = backup_start + median;
            if backup_end < ts.end {
                ts.end = backup_end;
                ts.speculative = true;
                wins += 1;
            }
        }
    }
    wins
}

/// Schedules map tasks with data locality: task `t` reads split `t`, whose
/// replicas live where `blocks` put them. Each task goes to the
/// earliest-available slot, except that among slots that free up at the same
/// time a slot on a replica-holding server is preferred (a one-level
/// approximation of Hadoop's delay scheduling). A task placed on a
/// non-replica server pays `remote_penalty` extra seconds (the remote block
/// read).
///
/// Returns the schedule plus the number of tasks that ran data-local.
///
/// # Panics
///
/// As [`schedule_phase`]; additionally requires `blocks.splits() >=
/// durations.len()` and `slots_per_server >= 1`.
pub fn schedule_phase_with_locality(
    durations: &[f64],
    servers: usize,
    slots_per_server: usize,
    start: f64,
    blocks: &crate::dfs::BlockStore,
    remote_penalty: f64,
    speculation: &SpeculationConfig,
) -> (PhaseSchedule, usize) {
    assert!(
        servers >= 1 && slots_per_server >= 1,
        "cluster must have slots"
    );
    assert!(
        blocks.splits() >= durations.len(),
        "every task needs a placed split"
    );
    assert!(remote_penalty >= 0.0 && remote_penalty.is_finite());
    for (i, &d) in durations.iter().enumerate() {
        assert!(
            d.is_finite() && d >= 0.0,
            "task {i} has invalid duration {d}"
        );
    }
    let slots = servers * slots_per_server;
    if durations.is_empty() {
        return (
            PhaseSchedule {
                timeline: Vec::new(),
                start,
                end: start,
                speculative_wins: 0,
            },
            0,
        );
    }

    let mut heap: BinaryHeap<Reverse<(F, usize)>> =
        (0..slots).map(|s| Reverse((F(start), s))).collect();
    let mut timeline = Vec::with_capacity(durations.len());
    let mut local_tasks = 0usize;
    for (task, &dur) in durations.iter().enumerate() {
        // pop every slot tied at the earliest availability
        let Reverse((F(avail), first)) = heap.pop().expect("slots >= 1");
        let mut ties = vec![first];
        while let Some(&Reverse((F(a), _))) = heap.peek() {
            if a > avail {
                break;
            }
            let Reverse((_, s)) = heap.pop().expect("peeked");
            ties.push(s);
        }
        // prefer a local slot among the ties
        let pick_pos = ties
            .iter()
            .position(|&slot| blocks.is_local(task, slot / slots_per_server))
            .unwrap_or(0);
        let slot = ties.swap_remove(pick_pos);
        for other in ties {
            heap.push(Reverse((F(avail), other)));
        }
        let local = blocks.is_local(task, slot / slots_per_server);
        local_tasks += usize::from(local);
        let effective = dur + if local { 0.0 } else { remote_penalty };
        let end = avail + effective;
        timeline.push(TaskSlot {
            task,
            slot,
            start: avail,
            end,
            speculative: false,
        });
        heap.push(Reverse((F(end), slot)));
    }

    // effective durations (with remote penalties) drive straggler detection
    let effective: Vec<f64> = timeline.iter().map(|t| t.end - t.start).collect();
    let speculative_wins = apply_speculation(&mut timeline, &effective, speculation);
    let end = timeline.iter().map(|t| t.end).fold(start, f64::max);
    (
        PhaseSchedule {
            timeline,
            start,
            end,
            speculative_wins,
        },
        local_tasks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::BlockStore;

    const NO_SPEC: SpeculationConfig = SpeculationConfig {
        enabled: false,
        threshold: 1.5,
    };

    #[test]
    fn empty_phase_has_zero_span() {
        let s = schedule_phase(&[], 4, 10.0, &NO_SPEC);
        assert_eq!(s.span(), 0.0);
        assert_eq!(s.end, 10.0);
    }

    #[test]
    fn single_slot_serializes_tasks() {
        let s = schedule_phase(&[1.0, 2.0, 3.0], 1, 0.0, &NO_SPEC);
        assert_eq!(s.span(), 6.0);
        assert_eq!(s.timeline[2].start, 3.0);
        assert_eq!(s.timeline[2].end, 6.0);
    }

    #[test]
    fn equal_tasks_divide_evenly() {
        // 8 unit tasks on 4 slots → 2 waves
        let s = schedule_phase(&[1.0; 8], 4, 0.0, &NO_SPEC);
        assert!((s.span() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn more_slots_never_hurt() {
        let durations: Vec<f64> = (0..40).map(|i| 1.0 + f64::from(i % 7)).collect();
        let mut prev = f64::INFINITY;
        for slots in [1, 2, 4, 8, 16, 64] {
            let s = schedule_phase(&durations, slots, 0.0, &NO_SPEC);
            assert!(s.span() <= prev + 1e-12, "slots={slots}");
            prev = s.span();
        }
    }

    #[test]
    fn span_lower_bounds_hold() {
        let durations = [5.0, 1.0, 1.0, 1.0];
        let s = schedule_phase(&durations, 2, 0.0, &NO_SPEC);
        let total: f64 = durations.iter().sum();
        assert!(s.span() >= total / 2.0 - 1e-12, "work bound");
        assert!(s.span() >= 5.0 - 1e-12, "critical-path bound");
    }

    #[test]
    fn fifo_assigns_in_task_order() {
        let s = schedule_phase(&[3.0, 1.0, 1.0], 2, 0.0, &NO_SPEC);
        // task0 → slot A at t=0; task1 → slot B at t=0; task2 reuses B at t=1
        assert_eq!(s.timeline[0].start, 0.0);
        assert_eq!(s.timeline[1].start, 0.0);
        assert_eq!(s.timeline[2].start, 1.0);
        assert_eq!(s.timeline[2].slot, s.timeline[1].slot);
    }

    #[test]
    fn start_offset_shifts_everything() {
        let a = schedule_phase(&[1.0, 2.0], 2, 0.0, &NO_SPEC);
        let b = schedule_phase(&[1.0, 2.0], 2, 100.0, &NO_SPEC);
        assert_eq!(b.span(), a.span());
        assert_eq!(b.timeline[0].start, 100.0);
    }

    #[test]
    fn speculation_caps_stragglers() {
        // 7 unit tasks + one 10× straggler on plenty of slots.
        let mut durations = vec![1.0; 7];
        durations.push(10.0);
        let plain = schedule_phase(&durations, 8, 0.0, &NO_SPEC);
        assert_eq!(plain.span(), 10.0);
        let spec = schedule_phase(&durations, 8, 0.0, &SpeculationConfig::enabled());
        // backup launches at 1.5, finishes at 2.5
        assert!((spec.span() - 2.5).abs() < 1e-12, "{}", spec.span());
        assert_eq!(spec.speculative_wins, 1);
        assert!(spec.timeline[7].speculative);
    }

    #[test]
    fn speculation_never_lengthens() {
        let durations: Vec<f64> = (0..30).map(|i| 1.0 + f64::from(i % 5)).collect();
        let plain = schedule_phase(&durations, 6, 0.0, &NO_SPEC);
        let spec = schedule_phase(&durations, 6, 0.0, &SpeculationConfig::enabled());
        assert!(spec.end <= plain.end + 1e-12);
    }

    #[test]
    fn speculation_ignores_zero_median() {
        let s = schedule_phase(&[0.0, 0.0, 5.0], 2, 0.0, &SpeculationConfig::enabled());
        assert_eq!(s.speculative_wins, 0);
        assert_eq!(s.span(), 5.0);
    }

    #[test]
    fn locality_prefers_replica_holders() {
        // 4 servers x 1 slot, all free at t=0: every task should land local
        // when its replica set is reachable among the ties.
        let blocks = BlockStore::place(4, 4, 4, 0); // replicated everywhere
        let (sched, local) =
            schedule_phase_with_locality(&[1.0; 4], 4, 1, 0.0, &blocks, 10.0, &NO_SPEC);
        assert_eq!(local, 4, "full replication makes everything local");
        assert!((sched.span() - 1.0).abs() < 1e-12, "no remote penalty paid");
    }

    #[test]
    fn remote_tasks_pay_the_penalty() {
        // 2 servers, 1 slot each; both splits replicated only on server 0:
        // one task must run remote and pay the penalty.
        let blocks = BlockStore::place(2, 2, 1, 3);
        // find a seed-independent check: force both splits onto server 0 by
        // checking which placement happened, then assert accordingly.
        let (sched, local) =
            schedule_phase_with_locality(&[1.0, 1.0], 2, 1, 0.0, &blocks, 5.0, &NO_SPEC);
        // both tasks start at t=0 on distinct servers; a task whose single
        // replica is elsewhere pays 5s
        let expected_remote = (0..2)
            .filter(|&t| {
                let slot = sched.timeline[t].slot;
                !blocks.is_local(t, slot)
            })
            .count();
        assert_eq!(local, 2 - expected_remote);
        for ts in &sched.timeline {
            let dur = ts.end - ts.start;
            if blocks.is_local(ts.task, ts.slot) {
                assert!((dur - 1.0).abs() < 1e-12);
            } else {
                assert!((dur - 6.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn locality_never_beats_free_scheduling_when_penalty_zero() {
        let blocks = BlockStore::place(10, 3, 1, 9);
        let durations: Vec<f64> = (0..10).map(|i| 1.0 + f64::from(i % 3)).collect();
        let plain = schedule_phase(&durations, 3, 0.0, &NO_SPEC);
        let (with_locality, _) =
            schedule_phase_with_locality(&durations, 3, 1, 0.0, &blocks, 0.0, &NO_SPEC);
        assert!((with_locality.span() - plain.span()).abs() < 1e-9);
    }

    #[test]
    fn locality_fraction_improves_with_replication() {
        let durations = vec![1.0; 64];
        let mut prev_local = 0usize;
        for r in [1usize, 2, 4, 8] {
            let blocks = BlockStore::place(64, 8, r, 5);
            let (_, local) =
                schedule_phase_with_locality(&durations, 8, 2, 0.0, &blocks, 2.0, &NO_SPEC);
            assert!(
                local >= prev_local,
                "replication {r}: locality {local} regressed below {prev_local}"
            );
            prev_local = local;
        }
        assert_eq!(prev_local, 64, "full replication = full locality");
    }

    #[test]
    fn locality_scheduler_speculates_on_stragglers() {
        let blocks = BlockStore::place(8, 8, 8, 0); // fully replicated: all local
        let mut durations = vec![1.0; 7];
        durations.push(20.0);
        let (sched, _) = schedule_phase_with_locality(
            &durations,
            8,
            1,
            0.0,
            &blocks,
            0.0,
            &SpeculationConfig::enabled(),
        );
        assert_eq!(sched.speculative_wins, 1);
        assert!(sched.span() < 20.0, "straggler capped: {}", sched.span());
    }

    #[test]
    fn locality_empty_phase() {
        let blocks = BlockStore::place(0, 2, 1, 0);
        let (sched, local) = schedule_phase_with_locality(&[], 2, 1, 5.0, &blocks, 1.0, &NO_SPEC);
        assert_eq!(sched.span(), 0.0);
        assert_eq!(local, 0);
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
                let s = schedule_phase(&durations, slots, 0.0, &NO_SPEC);
                let total: f64 = durations.iter().sum();
                let longest = durations.iter().copied().fold(0.0, f64::max);
                prop_assert!(s.span() + 1e-9 >= total / slots as f64, "work bound");
                prop_assert!(s.span() + 1e-9 >= longest, "critical path bound");
                prop_assert!(s.span() <= total + 1e-9, "never worse than serial");
            }

            #[test]
            fn more_slots_never_slower(durations in arb_durations(), slots in 1usize..8) {
                let a = schedule_phase(&durations, slots, 0.0, &NO_SPEC);
                let b = schedule_phase(&durations, slots + 1, 0.0, &NO_SPEC);
                prop_assert!(b.span() <= a.span() + 1e-9);
            }

            #[test]
            fn speculation_is_monotone(durations in arb_durations(), slots in 1usize..8) {
                let plain = schedule_phase(&durations, slots, 0.0, &NO_SPEC);
                let spec = schedule_phase(&durations, slots, 0.0, &SpeculationConfig::enabled());
                prop_assert!(spec.span() <= plain.span() + 1e-9);
            }

            #[test]
            fn tasks_never_overlap_on_a_slot(durations in arb_durations(), slots in 1usize..8) {
                let s = schedule_phase(&durations, slots, 0.0, &NO_SPEC);
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

            #[test]
            fn locality_penalty_zero_matches_plain_span(
                durations in arb_durations(),
                servers in 1usize..6,
                replication in 1usize..4,
            ) {
                let blocks = crate::dfs::BlockStore::place(
                    durations.len(), servers, replication, 7,
                );
                let plain = schedule_phase(&durations, servers * 2, 0.0, &NO_SPEC);
                let (local, n_local) = schedule_phase_with_locality(
                    &durations, servers, 2, 0.0, &blocks, 0.0, &NO_SPEC,
                );
                prop_assert!((local.span() - plain.span()).abs() < 1e-9);
                prop_assert!(n_local <= durations.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = schedule_phase(&[1.0], 0, 0.0, &NO_SPEC);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_rejected() {
        let _ = schedule_phase(&[-1.0], 1, 0.0, &NO_SPEC);
    }
}
