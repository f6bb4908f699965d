//! The run report: everything a figure harness or a downstream service
//! selector needs from one algorithm execution.

use crate::config::Algorithm;
use mini_mapreduce::metrics::JobMetrics;
use mrsky_trace::json::{array, JsonObject};
use skyline_algos::metrics::LoadBalance;
use skyline_algos::point::Point;

/// Result of running one MapReduce skyline algorithm over one dataset on one
/// simulated cluster.
#[derive(Debug, Clone)]
pub struct SkylineRunReport {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// Dataset provenance string.
    pub dataset: String,
    /// Number of services evaluated.
    pub cardinality: usize,
    /// Attribute dimensionality.
    pub dimensions: usize,
    /// Simulated cluster size (servers).
    pub servers: usize,
    /// Partitions actually used (grid/angle may round the `2 × nodes`
    /// request up to a full lattice).
    pub partitions: usize,
    /// The global skyline (sorted by service id).
    pub global_skyline: Vec<Point>,
    /// Per-partition local skylines (partition id, survivors).
    pub local_skylines: Vec<(u64, Vec<Point>)>,
    /// Point count per partition.
    pub partition_counts: Vec<usize>,
    /// Partitions whose local-skyline work was skipped — dominated-cell
    /// pruning (MR-Grid) plus sector-witness pruning (any scheme).
    pub pruned_partitions: usize,
    /// Rows dropped map-side by the broadcast filter before the shuffle.
    pub rows_filtered: u64,
    /// Partitions pruned by the sector-witness argument alone.
    pub sector_pruned_partitions: usize,
    /// Local skyline optimality — paper Eq. (5).
    pub optimality: f64,
    /// Load-balance statistics of the partition assignment.
    pub load_balance: LoadBalance,
    /// Combined metrics of the two-job chain.
    pub metrics: JobMetrics,
}

impl SkylineRunReport {
    /// Total simulated processing time (the y-axis of Figure 5).
    pub fn processing_time(&self) -> f64 {
        self.metrics.sim_total
    }

    /// Simulated Map time (Figure 6 lower bars).
    pub fn map_time(&self) -> f64 {
        self.metrics.map_time()
    }

    /// Simulated Reduce time, including shuffle (Figure 6 upper bars).
    pub fn reduce_time(&self) -> f64 {
        self.metrics.reduce_time()
    }

    /// Total local-skyline candidates shipped to the merge job — the
    /// quantity the paper's Reduce-time argument hinges on.
    pub fn merge_candidates(&self) -> usize {
        self.local_skylines.iter().map(|(_, v)| v.len()).sum()
    }

    /// Peak bytes of map output held across the shuffle, maximized over the
    /// job chain (the map-side memory plateau of the run).
    pub fn peak_map_out_bytes(&self) -> u64 {
        self.metrics.peak_mem.map_out
    }

    /// Peak bytes of materialized reduce input, maximized over the job
    /// chain. Spilling reduce inputs to disk lowers this number.
    pub fn peak_reduce_in_bytes(&self) -> u64 {
        self.metrics.peak_mem.reduce_in
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<10} n={:<7} d={:<2} servers={:<2} | sky={:<5} cand={:<6} filt={:<6} prune={:<3} | sim {:>7.1}s (map {:>6.1}s, reduce {:>6.1}s) | LSO {:.3}",
            self.algorithm.name(),
            self.cardinality,
            self.dimensions,
            self.servers,
            self.global_skyline.len(),
            self.merge_candidates(),
            self.rows_filtered,
            self.pruned_partitions,
            self.processing_time(),
            self.map_time(),
            self.reduce_time(),
            self.optimality,
        )
    }

    /// Serialises the report's summary quantities (not the full point sets)
    /// as a single JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("algorithm", self.algorithm.name())
            .string("dataset", &self.dataset)
            .int("cardinality", self.cardinality as u64)
            .int("dimensions", self.dimensions as u64)
            .int("servers", self.servers as u64)
            .int("partitions", self.partitions as u64)
            .int("skyline_size", self.global_skyline.len() as u64)
            .int("merge_candidates", self.merge_candidates() as u64)
            .int("pruned_partitions", self.pruned_partitions as u64)
            .int("rows_filtered", self.rows_filtered)
            .int(
                "sector_pruned_partitions",
                self.sector_pruned_partitions as u64,
            )
            .num("optimality", self.optimality)
            .num("processing_time_s", self.processing_time())
            .num("map_time_s", self.map_time())
            .num("reduce_time_s", self.reduce_time())
            .num("wall_seconds", self.metrics.wall_seconds)
            .int("shuffle_bytes", self.metrics.shuffle_bytes)
            .int("map_work_units", self.metrics.map.work_units)
            .int("reduce_work_units", self.metrics.reduce.work_units)
            .raw(
                "load_balance",
                JsonObject::new()
                    .num("cv", self.load_balance.cv)
                    .int("max", self.load_balance.max as u64)
                    .int("min", self.load_balance.min as u64)
                    .int("empty", self.load_balance.empty as u64)
                    .finish(),
            )
            .raw(
                "skyline_ids",
                array(self.global_skyline.iter().map(|p| p.id().to_string())),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_mapreduce::metrics::PhaseMetrics;

    fn dummy() -> SkylineRunReport {
        SkylineRunReport {
            algorithm: Algorithm::MrAngle,
            dataset: "test".into(),
            cardinality: 10,
            dimensions: 2,
            servers: 4,
            partitions: 8,
            global_skyline: vec![Point::new(0, vec![1.0, 1.0])],
            local_skylines: vec![(0, vec![Point::new(0, vec![1.0, 1.0])]), (1, vec![])],
            partition_counts: vec![5, 5],
            pruned_partitions: 0,
            rows_filtered: 3,
            sector_pruned_partitions: 0,
            optimality: 0.5,
            load_balance: skyline_algos::metrics::load_balance(&[5, 5]),
            metrics: JobMetrics {
                name: "t".into(),
                map: PhaseMetrics {
                    sim_start: 0.0,
                    sim_end: 2.0,
                    ..PhaseMetrics::default()
                },
                reduce: PhaseMetrics {
                    sim_start: 2.0,
                    sim_end: 5.0,
                    ..PhaseMetrics::default()
                },
                shuffle_bytes: 0,
                job_overhead: 4.0,
                sim_total: 9.0,
                wall_seconds: 0.0,
                peak_mem: mini_mapreduce::PeakMemBytes {
                    map_out: 512,
                    reduce_in: 256,
                },
            },
        }
    }

    #[test]
    fn derived_times() {
        let r = dummy();
        assert_eq!(r.processing_time(), 9.0);
        assert_eq!(r.map_time(), 2.0);
        assert_eq!(r.reduce_time(), 3.0);
        assert_eq!(r.merge_candidates(), 1);
        assert_eq!(r.peak_map_out_bytes(), 512);
        assert_eq!(r.peak_reduce_in_bytes(), 256);
    }

    #[test]
    fn report_to_json_is_valid_and_complete() {
        use crate::driver::SkylineJob;
        use mrsky_trace::json::{parse, JsonValue};
        use qws_data::{generate_qws, QwsConfig};

        let data = generate_qws(&QwsConfig::new(300, 3));
        let report = SkylineJob::new(Algorithm::MrAngle, 4).run(&data);
        let json = report.to_json();
        let v = parse(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
        assert_eq!(
            v.get("algorithm").and_then(JsonValue::as_str),
            Some("MR-Angle")
        );
        assert_eq!(v.get("cardinality").and_then(JsonValue::as_u64), Some(300));
        for key in ["skyline_size", "processing_time_s", "load_balance"] {
            assert!(v.get(key).is_some(), "missing {key} in {json}");
        }
        let Some(JsonValue::Arr(ids)) = v.get("skyline_ids") else {
            panic!("skyline_ids is not an array in {json}");
        };
        let ids: Vec<u64> = ids.iter().filter_map(JsonValue::as_u64).collect();
        let expected: Vec<u64> = report.global_skyline.iter().map(Point::id).collect();
        assert!(!expected.is_empty());
        assert_eq!(ids, expected);
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let s = dummy().summary();
        assert!(s.contains("MR-Angle"));
        assert!(s.contains("n=10"));
        assert!(s.contains("LSO 0.500"));
    }
}
