//! Algorithm assembly: partitioner construction plus the shared two-job
//! MapReduce pipeline.

pub mod pipeline;

pub use pipeline::{run_two_job_pipeline, PipelineOptions, PipelineOutput};

use crate::config::{AlgoConfig, Algorithm};
use qws_data::Dataset;
use skyline_algos::partition::{
    AnglePartitioner, DimPartitioner, GridPartitioner, RandomPartitioner, SpacePartitioner,
};
use skyline_algos::SkylineError;
use std::sync::Arc;

/// Builds the partitioner an algorithm uses over `dataset`'s bounds for a
/// cluster of `servers`, following the paper's `2 × nodes` partition policy
/// (see [`AlgoConfig::partitions_for`]).
///
/// # Errors
///
/// Propagates the fit error when the derived partition count or split
/// dimensions are unusable for `dataset` (e.g. an empty sample for a
/// quantile fit).
pub fn build_partitioner(
    algorithm: Algorithm,
    config: &AlgoConfig,
    dataset: &Dataset,
    servers: usize,
) -> Result<Arc<dyn SpacePartitioner>, SkylineError> {
    let np = config.partitions_for(servers);
    let bounds = dataset.bounds();
    Ok(match algorithm {
        Algorithm::MrDim => {
            if config.baseline_quantile {
                let sample = stride_sample(dataset);
                Arc::new(DimPartitioner::fit_quantile(&sample, np)?)
            } else {
                Arc::new(DimPartitioner::fit(bounds, np)?)
            }
        }
        Algorithm::MrGrid => {
            let split_dims = if config.grid_dims == 0 {
                dataset.dim()
            } else {
                config.grid_dims.min(dataset.dim())
            };
            if config.baseline_quantile {
                let sample = stride_sample(dataset);
                Arc::new(GridPartitioner::fit_quantile(&sample, np, split_dims)?)
            } else {
                Arc::new(GridPartitioner::fit_on_dims(bounds, np, split_dims)?)
            }
        }
        Algorithm::MrAngle => {
            if config.angle_quantile {
                let sample = stride_sample(dataset);
                Arc::new(AnglePartitioner::fit_quantile(&sample, np)?)
            } else {
                Arc::new(AnglePartitioner::fit(bounds, np)?)
            }
        }
        Algorithm::MrRandom => Arc::new(RandomPartitioner::new(dataset.dim(), np)?),
        Algorithm::Sequential => Arc::new(RandomPartitioner::new(dataset.dim(), 1)?),
    })
}

/// Deterministic stride sample of up to ~10k points for quantile fitting —
/// the Hadoop analogue is a sampling pre-pass like `TotalOrderPartitioner`'s.
/// Reads the block, so a query never builds the dataset's AoS view.
fn stride_sample(dataset: &Dataset) -> Vec<skyline_algos::point::Point> {
    let block = dataset.block();
    let stride = (block.len() / 10_000).max(1);
    (0..block.len())
        .step_by(stride)
        .map(|i| block.point(i))
        .collect()
}

/// Per-point Map-stage CPU work (in cost-model work units) of computing the
/// partition assignment, by scheme:
///
/// * `dim` reads one coordinate;
/// * `grid` reads all `d` coordinates;
/// * `angle` additionally performs the hyperspherical transform of Eq. (1)
///   (suffix square sums + one `atan2` per angle ≈ 2 passes);
/// * `random` hashes the id.
///
/// This is the "the original Cartesian coordinate-based data should be
/// transformed into hyperspherical coordinate-based data in MR-Angle" cost
/// that makes MR-Angle's *Map* phase slightly dearer than the others while
/// its Reduce phase wins big.
pub fn map_work_per_point(algorithm: Algorithm, dim: usize) -> u64 {
    match algorithm {
        Algorithm::MrDim => 1,
        Algorithm::MrGrid => dim as u64,
        Algorithm::MrAngle => 2 * dim as u64,
        Algorithm::MrRandom | Algorithm::Sequential => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qws_data::{generate_qws, QwsConfig};
    use skyline_algos::point::Point;

    fn data() -> Dataset {
        generate_qws(&QwsConfig::new(200, 3))
    }

    #[test]
    fn partitioner_kind_matches_algorithm() {
        let d = data();
        let cfg = AlgoConfig::default();
        assert_eq!(
            build_partitioner(Algorithm::MrDim, &cfg, &d, 4)
                .unwrap()
                .name(),
            "dim"
        );
        assert_eq!(
            build_partitioner(Algorithm::MrGrid, &cfg, &d, 4)
                .unwrap()
                .name(),
            "grid"
        );
        assert_eq!(
            build_partitioner(Algorithm::MrAngle, &cfg, &d, 4)
                .unwrap()
                .name(),
            "angle"
        );
        assert_eq!(
            build_partitioner(Algorithm::MrRandom, &cfg, &d, 4)
                .unwrap()
                .name(),
            "random"
        );
    }

    #[test]
    fn sequential_uses_one_partition() {
        let p =
            build_partitioner(Algorithm::Sequential, &AlgoConfig::default(), &data(), 8).unwrap();
        assert_eq!(p.num_partitions(), 1);
    }

    #[test]
    fn partition_counts_follow_policy() {
        let d = data();
        let cfg = AlgoConfig::default();
        let p = build_partitioner(Algorithm::MrDim, &cfg, &d, 8).unwrap();
        assert_eq!(p.num_partitions(), 16);
        // grid/angle may round up to a full lattice
        let g = build_partitioner(Algorithm::MrGrid, &cfg, &d, 8).unwrap();
        assert!(g.num_partitions() >= 16);
    }

    #[test]
    fn stride_sample_rows_are_pinned() {
        // Quantile fits read these rows, so moving the sample moves every
        // fitted boundary. Ids are scrambled so the pin checks rows, not
        // just a stride over `0..n`.
        let base = generate_qws(&QwsConfig::new(25_003, 4).with_seed(3));
        let points = base
            .points()
            .iter()
            .map(|p| {
                Point::new(
                    p.id().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20,
                    p.coords().to_vec(),
                )
            })
            .collect();
        let sample = stride_sample(&Dataset::new("scrambled", points).unwrap());
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in &sample {
            for word in std::iter::once(p.id()).chain(p.coords().iter().map(|c| c.to_bits())) {
                h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(sample.len(), 12_502);
        assert_eq!(
            sample.iter().take(3).map(Point::id).collect::<Vec<_>>(),
            [0, 4_152_951_779_305, 8_305_903_558_610]
        );
        assert_eq!(h, 0x17ec_2826_acc3_92ee);
    }

    #[test]
    fn map_work_ordering() {
        // angle > grid > dim: the paper's Map-side cost ranking
        let d = 10;
        assert!(
            map_work_per_point(Algorithm::MrAngle, d) > map_work_per_point(Algorithm::MrGrid, d)
        );
        assert!(map_work_per_point(Algorithm::MrGrid, d) > map_work_per_point(Algorithm::MrDim, d));
    }
}
