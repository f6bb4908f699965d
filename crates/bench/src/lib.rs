//! # mr-skyline-bench
//!
//! Figure/table regeneration harnesses and shared experiment plumbing for
//! the IPDPSW'12 reproduction. One binary per figure:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig4_dominance` | Fig. 4 + Theorems 1–2 (dominance ability) |
//! | `fig5_processing_time` | Fig. 5(a)/(b) (processing time vs. dimension) |
//! | `fig6_scalability` | Fig. 6 (Map/Reduce breakdown vs. servers) |
//! | `fig7_optimality` | Fig. 7(a)/(b) (local skyline optimality) |
//! | `ablations` | design-choice ablations beyond the paper |
//! | `cardinality_scaling` | the abstract's cardinality-scaling claim |
//! | `fig1_fig3_illustrations` | ASCII renderings of the illustrative figures |
//! | `probe` | internal cost-model calibration probe (raw counters for one cell) |
//!
//! Criterion micro/meso benches live under `benches/`.

use mr_skyline::prelude::*;
use qws_data::{generate_qws, QwsConfig};

/// The dimension sweep of Figures 5 and 7.
pub const PAPER_DIMENSIONS: [usize; 5] = [2, 4, 6, 8, 10];

/// The server sweep of Figure 6.
pub const PAPER_SERVERS: [usize; 8] = [4, 8, 12, 16, 20, 24, 28, 32];

/// Cluster size used for the Figure 5/7 dimension sweeps (the paper does
/// not state it; 8 servers sits inside its Figure 6 range and reproduces
/// the reported ratios).
pub const SWEEP_SERVERS: usize = 8;

/// Seed shared by all figure harnesses.
pub const SEED: u64 = 42;

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Algorithm that produced it.
    pub algorithm: Algorithm,
    /// Dataset cardinality.
    pub cardinality: usize,
    /// Dimensionality.
    pub dimensions: usize,
    /// Simulated servers.
    pub servers: usize,
    /// Simulated total processing time (s).
    pub processing_time: f64,
    /// Simulated map time (s).
    pub map_time: f64,
    /// Simulated reduce time (s).
    pub reduce_time: f64,
    /// Local skyline optimality (Eq. 5).
    pub optimality: f64,
    /// Global skyline size.
    pub skyline_size: usize,
    /// Candidates shipped into the merge job.
    pub merge_candidates: usize,
}

impl From<&SkylineRunReport> for SweepPoint {
    fn from(r: &SkylineRunReport) -> Self {
        SweepPoint {
            algorithm: r.algorithm,
            cardinality: r.cardinality,
            dimensions: r.dimensions,
            servers: r.servers,
            processing_time: r.processing_time(),
            map_time: r.map_time(),
            reduce_time: r.reduce_time(),
            optimality: r.optimality,
            skyline_size: r.global_skyline.len(),
            merge_candidates: r.merge_candidates(),
        }
    }
}

/// Generates the master QWS-like dataset once at full width (10 attributes)
/// and projects it down per sweep point, exactly as the paper evaluates the
/// same services at d ∈ {2,…,10}.
///
/// Cardinalities beyond the 10,000-service QWS base are reached by scaling
/// the marginal model directly rather than by the paper's jittered
/// resampling ([`qws_data::generator::extend_qws`]): multiplicative jitter
/// on a 10-D point is almost never dominated by its template (each copy
/// must lose on all ten dimensions at once), so resampling *inflates*
/// high-dimensional skylines instead of preserving the distribution —
/// see EXPERIMENTS.md for the measurement.
pub fn master_dataset(cardinality: usize) -> qws_data::Dataset {
    generate_qws(&QwsConfig::new(cardinality, 10).with_seed(SEED))
}

/// Runs `algorithm` over `dataset` on `servers` simulated servers with
/// default knobs and returns the sweep point.
pub fn run_one(algorithm: Algorithm, dataset: &qws_data::Dataset, servers: usize) -> SweepPoint {
    let report = SkylineJob::new(algorithm, servers).run(dataset);
    SweepPoint::from(&report)
}

/// Runs the Figure 5/7 sweep: the paper trio × [`PAPER_DIMENSIONS`] at a
/// fixed cardinality on [`SWEEP_SERVERS`] servers.
pub fn dimension_sweep(cardinality: usize) -> Vec<SweepPoint> {
    let master = master_dataset(cardinality);
    let mut out = Vec::new();
    for &d in &PAPER_DIMENSIONS {
        let data = master.project(d);
        for alg in Algorithm::paper_trio() {
            out.push(run_one(alg, &data, SWEEP_SERVERS));
        }
    }
    out
}

/// Runs the Figure 6 sweep: MR-Angle at `cardinality`×`dims` across
/// [`PAPER_SERVERS`].
///
/// Follows the paper's `2 × nodes` partition policy at every cluster size:
/// small clusters process few, large partitions (expensive local skylines),
/// large clusters process many small ones, while the single-reducer merge
/// grows slowly with the sector count — producing the sub-linear,
/// saturating speedup the paper reports beyond ~24 servers.
pub fn server_sweep(cardinality: usize, dims: usize) -> Vec<SweepPoint> {
    let master = master_dataset(cardinality);
    let data = master.project(dims);
    PAPER_SERVERS
        .iter()
        .map(|&s| run_one(Algorithm::MrAngle, &data, s))
        .collect()
}

/// Renders a fixed-width table of sweep points grouped the way the paper
/// plots them: one row per dimension, one column per algorithm.
pub fn format_by_dimension(
    points: &[SweepPoint],
    value: impl Fn(&SweepPoint) -> f64,
    header: &str,
) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<6} {:>12} {:>12} {:>12}\n",
        header, "MR-Dim", "MR-Grid", "MR-Angle"
    ));
    for &d in &PAPER_DIMENSIONS {
        let get = |alg: Algorithm| {
            points
                .iter()
                .find(|p| p.dimensions == d && p.algorithm == alg)
                .map(&value)
        };
        if let (Some(dim), Some(grid), Some(angle)) = (
            get(Algorithm::MrDim),
            get(Algorithm::MrGrid),
            get(Algorithm::MrAngle),
        ) {
            s.push_str(&format!("{d:<6} {dim:>12.3} {grid:>12.3} {angle:>12.3}\n"));
        }
    }
    s
}

/// Renders a sweep point as a JSON object (for `--json` harness output).
pub fn sweep_point_json(p: &SweepPoint) -> String {
    mrsky_trace::json::JsonObject::new()
        .string("algorithm", p.algorithm.name())
        .int("cardinality", p.cardinality as u64)
        .int("dimensions", p.dimensions as u64)
        .int("servers", p.servers as u64)
        .num("processing_time_s", p.processing_time)
        .num("map_time_s", p.map_time)
        .num("reduce_time_s", p.reduce_time)
        .num("optimality", p.optimality)
        .int("skyline_size", p.skyline_size as u64)
        .int("merge_candidates", p.merge_candidates as u64)
        .finish()
}

/// Emits every sweep point as one JSON object per line when `--json` is in
/// `args`.
pub fn maybe_emit_json(args: &[String], points: &[SweepPoint]) {
    if args.iter().any(|a| a == "--json") {
        println!();
        for p in points {
            println!("{}", sweep_point_json(p));
        }
    }
}

/// Parses a `--flag value` style argument list (tiny, dependency-free).
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses `--flag <usize>` with a default.
pub fn arg_usize(args: &[String], flag: &str, default: usize) -> usize {
    arg_value(args, flag)
        .map(|v| {
            v.replace('_', "")
                .parse()
                .unwrap_or_else(|_| panic!("{flag} expects an integer, got {v}"))
        })
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--cardinality", "100_000", "--dims", "10"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(arg_usize(&args, "--cardinality", 1), 100_000);
        assert_eq!(arg_usize(&args, "--dims", 1), 10);
        assert_eq!(arg_usize(&args, "--servers", 8), 8);
        assert_eq!(arg_value(&args, "--missing"), None);
    }

    #[test]
    fn run_one_produces_consistent_point() {
        let data = master_dataset(300).project(3);
        let p = run_one(Algorithm::MrAngle, &data, 4);
        assert_eq!(p.cardinality, 300);
        assert_eq!(p.dimensions, 3);
        assert_eq!(p.servers, 4);
        assert!(p.processing_time > 0.0);
        assert!(p.map_time + p.reduce_time <= p.processing_time);
        assert!(p.merge_candidates >= p.skyline_size);
    }

    #[test]
    fn format_table_has_all_rows() {
        let master = master_dataset(200);
        let mut points = Vec::new();
        for &d in &PAPER_DIMENSIONS {
            let data = master.project(d);
            for alg in Algorithm::paper_trio() {
                points.push(run_one(alg, &data, 2));
            }
        }
        let table = format_by_dimension(&points, |p| p.processing_time, "dim");
        assert_eq!(table.lines().count(), 6);
        assert!(table.contains("MR-Angle"));
    }
}
