//! Partitioner skew scoring: row-count and kernel-time Gini coefficients
//! per sector, plus hot-partition identification, for each run of a
//! partition job (a `sweep` or a rerun runs one job name more than once).
//!
//! The partition job routes key `k` to reduce task `k % reducers` with
//! `reducers == num_partitions`, so *reduce task index equals partition
//! id* — the reduce-task durations are a faithful per-partition kernel-time
//! proxy without any extra instrumentation.

use mrsky_trace::model::TaskRec;
use mrsky_trace::RunModel;

/// Skew report over one run of a partition job.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewReport {
    /// The run's label (see [`RunModel::run_label`]); `None` for records
    /// emitted outside any partition-job run.
    pub run: Option<String>,
    /// `(partition, input rows)` sorted by partition id.
    pub rows: Vec<(u64, u64)>,
    /// Gini coefficient of the per-partition input row counts (0 =
    /// perfectly even, →1 = one partition holds everything).
    pub row_gini: f64,
    /// Gini coefficient of the run's reduce-task durations.
    pub time_gini: f64,
    /// The partition with the most input rows.
    pub hot_partition: u64,
    /// Its row count.
    pub hot_rows: u64,
    /// The local kernel that processed the hot partition (`"pruned"` if it
    /// was skipped, empty for pre-schema traces).
    pub hot_kernel: String,
    /// Mean rows per partition.
    pub mean_rows: f64,
    /// Partitions pruned without running a kernel.
    pub pruned: u64,
}

/// Gini coefficient of a non-negative sample. 0 for empty/all-zero input.
pub fn gini(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mut v: Vec<f64> = values.iter().map(|x| x.max(0.0)).collect();
    v.sort_by(f64::total_cmp);
    let sum: f64 = v.iter().sum();
    if sum <= 0.0 {
        return 0.0;
    }
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted / (n as f64 * sum)) - (n as f64 + 1.0) / n as f64
}

/// Builds one skew report per partition-job run with per-partition
/// accounting, in start order (records outside any run first). Empty when
/// the trace has none (e.g. a plain word-count trace).
pub fn skew(model: &RunModel) -> Vec<SkewReport> {
    let mut owners: Vec<Option<usize>> = model.partitions.iter().map(|p| p.run).collect();
    owners.sort_unstable();
    owners.dedup();
    owners
        .into_iter()
        .filter_map(|owner| run_skew(model, owner))
        .collect()
}

/// The skew report over the partition records `owner` emitted, with the
/// kernel-time Gini from that run's reduce tasks.
fn run_skew(model: &RunModel, owner: Option<usize>) -> Option<SkewReport> {
    let partitions: Vec<_> = model.partitions.iter().filter(|p| p.run == owner).collect();
    let rows: Vec<(u64, u64)> = partitions.iter().map(|p| (p.partition, p.input)).collect();
    let row_values: Vec<f64> = rows.iter().map(|&(_, r)| r as f64).collect();
    let tasks = owner.map_or(&[][..], |i| &model.runs[i].reduce.tasks[..]);
    let time_values: Vec<f64> = tasks.iter().map(TaskRec::duration).collect();
    let (hot_partition, hot_rows) = rows
        .iter()
        .copied()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?;
    let hot_kernel = partitions
        .iter()
        .find(|p| p.partition == hot_partition)
        .map(|p| p.kernel.clone())
        .unwrap_or_default();
    Some(SkewReport {
        run: owner.map(|i| model.run_label(i)),
        row_gini: gini(&row_values),
        time_gini: gini(&time_values),
        hot_partition,
        hot_rows,
        hot_kernel,
        mean_rows: row_values.iter().sum::<f64>() / row_values.len() as f64,
        pruned: partitions.iter().filter(|p| p.pruned).count() as u64,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsky_trace::model::PartitionRec;

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-12, "even split");
        let concentrated = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!(concentrated > 0.7, "{concentrated}");
        assert!(gini(&[1.0, 2.0, 3.0]) > 0.0);
    }

    #[test]
    fn hot_partition_is_the_row_argmax() {
        let mut run = RunModel::default();
        for (p, input, kernel) in [(0u64, 100u64, "bnl"), (1, 900, "salsa"), (2, 50, "bnl")] {
            run.partitions.push(PartitionRec {
                run: None,
                partition: p,
                input,
                output: input / 10,
                pruned: false,
                kernel: kernel.to_string(),
            });
        }
        let reports = skew(&run);
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.run, None);
        assert_eq!(report.hot_partition, 1);
        assert_eq!(report.hot_rows, 900);
        assert_eq!(report.hot_kernel, "salsa", "blame names the kernel");
        assert!(report.row_gini > 0.3);
        assert_eq!(report.time_gini, 0.0, "no partition job in this model");
    }

    #[test]
    fn no_partition_events_means_no_report() {
        assert!(skew(&RunModel::default()).is_empty());
    }
}
