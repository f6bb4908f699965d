//! The calibrated cluster cost model.
//!
//! Converts instrumented task counters into **simulated seconds** on the
//! paper's hardware class (Hadoop 0.20.2, Intel Core 2 Duo E7400 @ 2.99 GHz,
//! 3.25 GB RAM, 1 GB JVM heap, commodity Ethernet). The constants are set
//! once to era-plausible magnitudes and shared by *every* experiment in the
//! suite — reproducing the paper's curve shapes with a single model, rather
//! than tuning constants per figure, is the point of the exercise.
//!
//! | constant | value | rationale |
//! |---|---|---|
//! | `task_startup` | 6.0 s | JVM spawn (no task-JVM reuse in 0.20 defaults), 3 s TaskTracker heartbeats, sort/spill setup — the folklore \"a Hadoop task costs ~10 s even if it does nothing\" overhead |
//! | `job_overhead` | 8.0 s | job submission, setup/cleanup tasks, HDFS staging |
//! | `record_in_cost` | 4 µs | read + deserialize one record from HDFS-ish storage |
//! | `record_out_cost` | 2 µs | serialize + write one record |
//! | `work_unit_cost` | 500 ns | one coordinate visit of a dominance comparison in Hadoop-era Java (boxed `Double` compares, `Writable` deserialization amortised per visited coordinate) |
//! | `shuffle_byte_cost` | 10 ns/B | ~100 MB/s effective copy rate |
//! | `shuffle_segment_latency` | 10 ms | per map×reduce fetch (connection + seek, amortised over Hadoop's 5 parallel copier threads) |

/// Cost constants; see the module docs for the calibration table.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed per-task-attempt overhead in seconds (JVM start, scheduling).
    pub task_startup: f64,
    /// Fixed per-job overhead in seconds (submission, setup/cleanup).
    pub job_overhead: f64,
    /// Seconds per input record read by a task.
    pub record_in_cost: f64,
    /// Seconds per output record written by a task.
    pub record_out_cost: f64,
    /// Seconds per algorithm work unit (dimension-weighted comparison step).
    pub work_unit_cost: f64,
    /// Seconds per byte crossing the shuffle.
    pub shuffle_byte_cost: f64,
    /// Seconds of latency per (map task → reduce task) fetch segment.
    pub shuffle_segment_latency: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            task_startup: 6.0,
            job_overhead: 8.0,
            record_in_cost: 4e-6,
            record_out_cost: 2e-6,
            work_unit_cost: 5e-7,
            shuffle_byte_cost: 1e-8,
            shuffle_segment_latency: 0.01,
        }
    }
}

impl CostModel {
    /// A model with all overheads zeroed — useful in unit tests where only
    /// one component should influence a duration.
    pub fn zero() -> Self {
        Self {
            task_startup: 0.0,
            job_overhead: 0.0,
            record_in_cost: 0.0,
            record_out_cost: 0.0,
            work_unit_cost: 0.0,
            shuffle_byte_cost: 0.0,
            shuffle_segment_latency: 0.0,
        }
    }

    /// Checks that every constant is finite and non-negative — a negative
    /// or NaN cost silently corrupts every schedule and report downstream,
    /// so plan-time analysis rejects such models up front.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let fields = [
            ("task_startup", self.task_startup),
            ("job_overhead", self.job_overhead),
            ("record_in_cost", self.record_in_cost),
            ("record_out_cost", self.record_out_cost),
            ("work_unit_cost", self.work_unit_cost),
            ("shuffle_byte_cost", self.shuffle_byte_cost),
            ("shuffle_segment_latency", self.shuffle_segment_latency),
        ];
        let problems: Vec<String> = fields
            .iter()
            .filter(|(_, v)| !(v.is_finite() && *v >= 0.0))
            .map(|(name, v)| format!("cost model field {name} = {v} (must be finite and >= 0)"))
            .collect();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// Simulated duration of one task attempt given its counters.
    pub fn task_duration(&self, records_in: u64, records_out: u64, work_units: u64) -> f64 {
        self.task_startup
            + records_in as f64 * self.record_in_cost
            + records_out as f64 * self.record_out_cost
            + work_units as f64 * self.work_unit_cost
    }

    /// Simulated time for one reduce task to fetch its shuffle input:
    /// `segments` fetches (one per contributing map task) of `bytes` total.
    pub fn shuffle_duration(&self, bytes: u64, segments: u64) -> f64 {
        bytes as f64 * self.shuffle_byte_cost + segments as f64 * self.shuffle_segment_latency
    }

    /// Work units equivalent to an `n`-row presort — charged by tasks that
    /// run a sort-based skyline kernel (SFS, SaLSa), so the simulated
    /// timeline pays for the `O(n log n)` sort those kernels front-load
    /// instead of crediting them with dominance tests avoided for free.
    ///
    /// One sort-key comparison is half a work unit: a key compare is a
    /// single boxed-`Double` compare in the Hadoop-era frame, against the
    /// work unit's full dominance *coordinate visit* (compare + branch +
    /// `Writable` amortisation) — same era, roughly half the work.
    pub fn presort_work_units(rows: u64) -> u64 {
        if rows < 2 {
            return 0;
        }
        let comparisons = rows as f64 * (rows as f64).log2();
        (comparisons / 2.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_hadoop_magnitude() {
        let m = CostModel::default();
        // a trivial task is dominated by startup
        let d = m.task_duration(0, 0, 0);
        assert!((d - 6.0).abs() < 1e-12);
        // a million-record scan takes seconds, not micro- or kilo-seconds
        let d = m.task_duration(1_000_000, 0, 0);
        assert!(d > 4.0 && d < 12.0, "{d}");
    }

    #[test]
    fn duration_is_monotone_in_every_counter() {
        let m = CostModel::default();
        let base = m.task_duration(100, 100, 100);
        assert!(m.task_duration(200, 100, 100) > base);
        assert!(m.task_duration(100, 200, 100) > base);
        assert!(m.task_duration(100, 100, 200) > base);
    }

    #[test]
    fn presort_units_are_n_log_n_shaped() {
        assert_eq!(CostModel::presort_work_units(0), 0);
        assert_eq!(CostModel::presort_work_units(1), 0);
        // n·log2(n)/2 exactly at a power of two
        assert_eq!(CostModel::presort_work_units(1024), 1024 * 10 / 2);
        // superlinear but far below quadratic
        let small = CostModel::presort_work_units(1_000);
        let big = CostModel::presort_work_units(10_000);
        assert!(big > 10 * small, "{big} vs {small}");
        assert!(big < 100 * small, "{big} vs {small}");
    }

    #[test]
    fn shuffle_charges_bytes_and_latency() {
        let m = CostModel::default();
        let d = m.shuffle_duration(100_000_000, 10);
        // 1 s of bytes + 0.1 s of latency
        assert!((d - 1.1).abs() < 1e-9, "{d}");
        assert_eq!(CostModel::zero().shuffle_duration(1 << 30, 100), 0.0);
    }

    #[test]
    fn zero_model_charges_nothing() {
        let m = CostModel::zero();
        assert_eq!(m.task_duration(1000, 1000, 1000), 0.0);
    }

    #[test]
    fn clone_and_eq_derives_work() {
        let m = CostModel::default();
        assert_eq!(m.clone(), m);
        assert_ne!(CostModel::zero(), m);
    }
}
