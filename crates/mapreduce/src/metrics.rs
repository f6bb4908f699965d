//! Job- and phase-level metrics.

use std::collections::BTreeMap;

/// Aggregated counters and simulated timing of one phase (map or reduce).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseMetrics {
    /// Number of tasks in the phase.
    pub tasks: usize,
    /// Total task attempts including failed ones.
    pub attempts: u32,
    /// Input records across tasks.
    pub records_in: u64,
    /// Output records across tasks.
    pub records_out: u64,
    /// Output bytes across tasks (map phase: shuffle bytes produced).
    pub bytes_out: u64,
    /// Algorithm work units across tasks.
    pub work_units: u64,
    /// Simulated phase start (seconds since job submission).
    pub sim_start: f64,
    /// Simulated phase end.
    pub sim_end: f64,
    /// Per-task simulated durations (successful attempt, including retries'
    /// wasted time folded into the task's duration).
    pub task_durations: Vec<f64>,
    /// Named user counters summed across the phase's tasks.
    pub counters: BTreeMap<String, u64>,
}

impl PhaseMetrics {
    /// Simulated span of the phase.
    pub fn sim_span(&self) -> f64 {
        self.sim_end - self.sim_start
    }

    /// Folds another counter map into this phase's counters. Counters are
    /// monotonic, so additions saturate instead of wrapping — a counter
    /// pinned at `u64::MAX` is visibly wrong, an overflowed one silently
    /// small.
    pub fn merge_counters(&mut self, task_counters: &BTreeMap<&'static str, u64>) {
        for (&name, &value) in task_counters {
            let slot = self.counters.entry(name.to_string()).or_insert(0);
            *slot = slot.saturating_add(value);
        }
    }
}

/// High-water marks of the job's resident intermediate data, in logical
/// (wire-accounted) bytes. `map_out` is the peak of buffered map output
/// awaiting the shuffle; `reduce_in` is the peak of shuffled reduce input
/// resident in memory (spilled inputs leave this gauge while they sit on
/// disk and re-enter only while their reduce task runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeakMemBytes {
    /// Peak resident map-output bytes.
    pub map_out: u64,
    /// Peak resident reduce-input bytes.
    pub reduce_in: u64,
}

impl PeakMemBytes {
    /// Element-wise maximum — the correct combination for jobs that run
    /// back to back (the plateaus do not coexist).
    pub fn max(self, other: PeakMemBytes) -> PeakMemBytes {
        PeakMemBytes {
            map_out: self.map_out.max(other.map_out),
            reduce_in: self.reduce_in.max(other.reduce_in),
        }
    }
}

/// Metrics of a completed job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobMetrics {
    /// Job name (for reports).
    pub name: String,
    /// Map-phase metrics.
    pub map: PhaseMetrics,
    /// Reduce-phase metrics (shuffle time folded into `sim_start`..`sim_end`
    /// via per-task durations, matching Hadoop's copy+sort+reduce reporting).
    pub reduce: PhaseMetrics,
    /// Bytes that crossed the shuffle.
    pub shuffle_bytes: u64,
    /// Fixed job overhead charged by the cost model.
    pub job_overhead: f64,
    /// Simulated end-to-end job time (overhead + map span + reduce span).
    pub sim_total: f64,
    /// Real wall-clock seconds the host spent executing the job.
    pub wall_seconds: f64,
    /// Peak resident intermediate bytes observed during real execution.
    pub peak_mem: PeakMemBytes,
}

impl JobMetrics {
    /// Adds another job's metrics (for job chains), concatenating phase
    /// spans: the chained job starts when this one ends.
    ///
    /// # Inter-job gap convention
    ///
    /// The chained result keeps *this* job's `sim_start` on both phases and
    /// extends each `sim_end` by `next`'s phase span, so the second job's
    /// own clock (which restarts at 0) and any inter-job gap — the second
    /// job's submission overhead, and reduce-to-map turnaround — are **not**
    /// represented inside the phase windows. The gap is carried only by
    /// `sim_total`, which sums both jobs' overhead-inclusive totals; phase
    /// windows answer "how much time was spent mapping/reducing", not
    /// "when". Consequently `sim_span` is additive:
    /// `chained.map.sim_span() == a.map.sim_span() + b.map.sim_span()`
    /// (and likewise for reduce) — asserted by a property test below.
    pub fn chain(&self, next: &JobMetrics) -> JobMetrics {
        let mut out = self.clone();
        out.name = format!("{}+{}", self.name, next.name);
        out.map.tasks += next.map.tasks;
        out.map.attempts += next.map.attempts;
        out.map.records_in += next.map.records_in;
        out.map.records_out += next.map.records_out;
        out.map.bytes_out += next.map.bytes_out;
        out.map.work_units += next.map.work_units;
        out.map.sim_end += next.map.sim_span();
        out.map
            .task_durations
            .extend_from_slice(&next.map.task_durations);
        for (name, value) in &next.map.counters {
            let slot = out.map.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*value);
        }
        out.reduce.tasks += next.reduce.tasks;
        out.reduce.attempts += next.reduce.attempts;
        out.reduce.records_in += next.reduce.records_in;
        out.reduce.records_out += next.reduce.records_out;
        out.reduce.bytes_out += next.reduce.bytes_out;
        out.reduce.work_units += next.reduce.work_units;
        out.reduce.sim_end += next.reduce.sim_span();
        out.reduce
            .task_durations
            .extend_from_slice(&next.reduce.task_durations);
        for (name, value) in &next.reduce.counters {
            let slot = out.reduce.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*value);
        }
        out.shuffle_bytes += next.shuffle_bytes;
        out.job_overhead += next.job_overhead;
        out.sim_total += next.sim_total;
        out.wall_seconds += next.wall_seconds;
        out.peak_mem = out.peak_mem.max(next.peak_mem);
        out
    }

    /// Total simulated time attributed to the Map side of the pipeline
    /// (the "Map Time" bars of Figure 6).
    pub fn map_time(&self) -> f64 {
        self.map.sim_span()
    }

    /// Total simulated time attributed to the Reduce side (shuffle + merge —
    /// the "Reduce Time" bars of Figure 6).
    pub fn reduce_time(&self) -> f64 {
        self.reduce.sim_span()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(span: f64, tasks: usize) -> PhaseMetrics {
        PhaseMetrics {
            tasks,
            attempts: tasks as u32,
            records_in: 10,
            records_out: 5,
            bytes_out: 100,
            work_units: 50,
            sim_start: 0.0,
            sim_end: span,
            task_durations: vec![span / tasks.max(1) as f64; tasks],
            counters: BTreeMap::new(),
        }
    }

    #[test]
    fn spans() {
        let p = phase(4.0, 2);
        assert_eq!(p.sim_span(), 4.0);
    }

    #[test]
    fn chain_adds_components() {
        let a = JobMetrics {
            name: "first".into(),
            map: phase(2.0, 2),
            reduce: phase(3.0, 1),
            shuffle_bytes: 100,
            job_overhead: 4.0,
            sim_total: 9.0,
            wall_seconds: 0.1,
            peak_mem: PeakMemBytes {
                map_out: 10,
                reduce_in: 30,
            },
        };
        let b = JobMetrics {
            name: "second".into(),
            map: phase(1.0, 1),
            reduce: phase(1.5, 1),
            shuffle_bytes: 50,
            job_overhead: 4.0,
            sim_total: 6.5,
            wall_seconds: 0.2,
            peak_mem: PeakMemBytes {
                map_out: 20,
                reduce_in: 15,
            },
        };
        let c = a.chain(&b);
        assert_eq!(c.name, "first+second");
        assert_eq!(c.map.tasks, 3);
        assert!((c.map_time() - 3.0).abs() < 1e-12);
        assert!((c.reduce_time() - 4.5).abs() < 1e-12);
        assert_eq!(c.shuffle_bytes, 150);
        assert!((c.sim_total - 15.5).abs() < 1e-12);
        assert!((c.wall_seconds - 0.3).abs() < 1e-12);
        assert_eq!(c.map.task_durations.len(), 3);
        // sequential jobs: peaks combine element-wise by max, not by sum
        assert_eq!(
            c.peak_mem,
            PeakMemBytes {
                map_out: 20,
                reduce_in: 30
            }
        );
    }

    #[test]
    fn merge_counters_empty_is_identity() {
        let mut p = phase(1.0, 1);
        p.counters.insert("kept".into(), 7);
        let before = p.counters.clone();
        p.merge_counters(&BTreeMap::new());
        assert_eq!(p.counters, before);
    }

    #[test]
    fn merge_counters_overlapping_and_new_keys() {
        let mut p = phase(1.0, 1);
        p.counters.insert("shared".into(), 10);
        let mut task: BTreeMap<&'static str, u64> = BTreeMap::new();
        task.insert("shared", 5);
        task.insert("fresh", 2);
        p.merge_counters(&task);
        assert_eq!(p.counters["shared"], 15);
        assert_eq!(p.counters["fresh"], 2);
        // merging twice keeps accumulating
        p.merge_counters(&task);
        assert_eq!(p.counters["shared"], 20);
        assert_eq!(p.counters["fresh"], 4);
    }

    #[test]
    fn merge_counters_saturates_instead_of_wrapping() {
        let mut p = phase(1.0, 1);
        p.counters.insert("big".into(), u64::MAX - 1);
        let mut task: BTreeMap<&'static str, u64> = BTreeMap::new();
        task.insert("big", 100);
        p.merge_counters(&task);
        assert_eq!(p.counters["big"], u64::MAX);
    }

    #[test]
    fn chain_counters_saturate() {
        let mut a = JobMetrics {
            name: "a".into(),
            map: phase(1.0, 1),
            reduce: phase(1.0, 1),
            shuffle_bytes: 0,
            job_overhead: 0.0,
            sim_total: 2.0,
            wall_seconds: 0.0,
            peak_mem: PeakMemBytes::default(),
        };
        a.map.counters.insert("c".into(), u64::MAX);
        let mut b = a.clone();
        b.map.counters.insert("c".into(), 1);
        let chained = a.chain(&b);
        assert_eq!(chained.map.counters["c"], u64::MAX);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_phase() -> impl Strategy<Value = PhaseMetrics> {
            (0.0f64..1000.0, 0.0f64..500.0, 1usize..20).prop_map(|(start, span, tasks)| {
                PhaseMetrics {
                    tasks,
                    attempts: tasks as u32,
                    records_in: 1,
                    records_out: 1,
                    bytes_out: 1,
                    work_units: 1,
                    sim_start: start,
                    sim_end: start + span,
                    task_durations: vec![span / tasks as f64; tasks],
                    counters: BTreeMap::new(),
                }
            })
        }

        fn arb_job(name: &'static str) -> impl Strategy<Value = JobMetrics> {
            (arb_phase(), arb_phase(), 0.0f64..10.0).prop_map(move |(map, reduce, overhead)| {
                let sim_total = overhead + map.sim_span() + reduce.sim_span();
                JobMetrics {
                    name: name.to_string(),
                    map,
                    reduce,
                    shuffle_bytes: 10,
                    job_overhead: overhead,
                    sim_total,
                    wall_seconds: 0.0,
                    peak_mem: PeakMemBytes::default(),
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // The documented inter-job gap convention: phase windows absorb
            // only the next job's *span*, so sim_span is exactly additive
            // regardless of either job's sim_start offsets or overheads.
            #[test]
            fn chain_sim_span_is_additive(a in arb_job("a"), b in arb_job("b")) {
                let c = a.chain(&b);
                prop_assert!(
                    (c.map.sim_span() - (a.map.sim_span() + b.map.sim_span())).abs() < 1e-9
                );
                prop_assert!(
                    (c.reduce.sim_span() - (a.reduce.sim_span() + b.reduce.sim_span())).abs()
                        < 1e-9
                );
                // sim_start stays the first job's; the gap lives in sim_total only.
                prop_assert_eq!(c.map.sim_start, a.map.sim_start);
                prop_assert!((c.sim_total - (a.sim_total + b.sim_total)).abs() < 1e-9);
            }
        }
    }
}
