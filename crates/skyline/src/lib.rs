//! # skyline-algos
//!
//! Skyline (Pareto-front) computation kernels, data-space partitioners, and
//! quality metrics.
//!
//! This crate is the algorithmic substrate for the reproduction of
//! *"MapReduce Skyline Query Processing with a New Angular Partitioning
//! Approach"* (Chen, Hwang, Wu — IEEE IPDPSW 2012). It contains everything
//! that is independent of the MapReduce execution model:
//!
//! * [`point`] — the `d`-dimensional [`Point`] type (lower is better on every
//!   dimension, as in the paper's QoS convention).
//! * [`dominance`] — the dominance relation over [`Point`]s.
//! * [`block`] — the columnar [`PointBlock`] batch type (SoA layout: flat
//!   coordinate buffer + parallel id vector), the transport and compute
//!   representation of the hot paths.
//! * [`kernel`] — the one implementation of each skyline kernel, over
//!   [`PointBlock`]s: branchless row compares, the Block-Nested-Loops
//!   skyline (Börzsönyi et al., ICDE 2001) with a bounded self-organising
//!   window and multi-pass overflow handling — the paper uses BNL for both
//!   local and global skylines — the columnar SFS, and the L1-presorting
//!   merge.
//! * [`salsa`] — the SaLSa kernel (min-coordinate presort with an
//!   early-stop watermark).
//! * [`select`] — runtime kernel selection: [`BlockKernel`] dispatch and
//!   the [`select_for_block`] cost heuristic over a sampled correlation
//!   estimate.
//! * [`filter`] — deterministic filter-point selection for shuffle-side early
//!   pruning (drop dominated rows before they are shuffled).
//! * [`seq`] — a trivial quadratic reference implementation that tests
//!   compare kernels against.
//! * [`verify`] — the one skyline checker, an exact certificate.
//! * [`hypersphere`] — the Cartesian → hyperspherical transform of the paper's
//!   Eq. (1)/(2), which underlies angular partitioning.
//! * [`partition`] — the [`SpacePartitioner`] trait and the three partitioners
//!   the paper evaluates (dimensional, grid, angular) plus a random baseline.
//! * [`metrics`] — local-skyline optimality (paper Eq. 5), dominance-ability
//!   formulas (Theorems 1 and 2), and load-balance statistics.
//! * [`incremental`] — incremental skyline maintenance when services are added
//!   or removed (the paper's Section II motivation); the one live-skyline
//!   engine.
//!
//! ## Quick example
//!
//! ```
//! use skyline_algos::prelude::*;
//!
//! let points = vec![
//!     Point::new(0, vec![1.0, 4.0]),
//!     Point::new(1, vec![2.0, 2.0]),
//!     Point::new(2, vec![4.0, 1.0]),
//!     Point::new(3, vec![3.0, 3.0]), // dominated by point 1
//! ];
//! let block = PointBlock::from_points(&points).unwrap();
//! let sky = block_bnl(&block, &BnlConfig::default());
//! let mut ids = sky.ids().to_vec();
//! ids.sort_unstable();
//! assert_eq!(ids, vec![0, 1, 2]);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod dominance;
pub mod error;
pub mod filter;
pub mod hypersphere;
pub mod incremental;
pub mod invariants;
pub mod kernel;
pub mod metrics;
pub mod partition;
pub mod point;
pub mod ranking;
pub mod representative;
pub mod salsa;
pub mod select;
pub mod seq;
pub mod skyband;
pub mod verify;

pub use block::PointBlock;
pub use dominance::{dominates, strictly_dominates, DomRelation};
pub use error::SkylineError;
pub use filter::{filtered_out, select_filter_points};
pub use hypersphere::{to_hyperspherical, to_hyperspherical_into, HyperPoint};
pub use kernel::{
    block_bnl, block_bnl_stats, block_sfs, block_sfs_stats, compare_rows, dominated_count,
    dominates_row, presort_merge, presort_merge_stats, BnlConfig, KernelStats,
};
pub use partition::{
    witness_prunable, AnglePartitioner, AxisProfile, BoundaryProfile, Bounds, DimPartitioner,
    GridPartitioner, PartitionSpace, RandomPartitioner, SpacePartitioner,
};
pub use point::Point;
pub use ranking::WeightedScore;
pub use representative::{distance_based_representatives, max_dominance_representatives};
pub use salsa::{block_salsa, block_salsa_stats};
pub use select::{correlation_estimate, select_for_block, BlockKernel};
pub use seq::naive_skyline;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::block::PointBlock;
    pub use crate::dominance::{dominates, strictly_dominates, DomRelation};
    pub use crate::hypersphere::{to_hyperspherical, HyperPoint};
    pub use crate::kernel::{block_bnl, block_sfs, dominates_row, presort_merge, BnlConfig};
    pub use crate::metrics::local_skyline_optimality;
    pub use crate::partition::{
        AnglePartitioner, AxisProfile, BoundaryProfile, Bounds, DimPartitioner, GridPartitioner,
        PartitionSpace, RandomPartitioner, SpacePartitioner,
    };
    pub use crate::point::Point;
    pub use crate::ranking::WeightedScore;
    pub use crate::representative::{
        distance_based_representatives, max_dominance_representatives,
    };
    pub use crate::salsa::block_salsa;
    pub use crate::select::BlockKernel;
    pub use crate::seq::naive_skyline;
}
