//! # mr-skyline
//!
//! The paper's contribution: **MR-Dim**, **MR-Grid** and **MR-Angle** —
//! MapReduce skyline query processing under three data-space partitionings
//! (Chen, Hwang, Wu — IEEE IPDPSW 2012), plus a random-partitioning ablation
//! and a sequential baseline, all running on the [`mini_mapreduce`] runtime
//! over [`qws_data`] datasets.
//!
//! Every algorithm is the same two-job chain (the paper's Algorithm 1):
//!
//! 1. **Partitioning job** — Map assigns each service to a partition
//!    (`(partition id, service)` pairs); Reduce computes each partition's
//!    local skyline with BNL. MR-Grid additionally skips partitions whose
//!    entire contents are dominated by another non-empty cell.
//! 2. **Merging job** — Map rekeys every local-skyline service under a
//!    single key; the lone Reduce merges them with a final BNL pass into the
//!    global skyline.
//!
//! The only difference between the algorithms is the
//! [`SpacePartitioner`](skyline_algos::partition::SpacePartitioner) plugged
//! into job 1 — which is exactly the paper's claim: partitioning choice
//! alone drives the Reduce-stage savings.
//!
//! ## Entry point
//!
//! ```
//! use mr_skyline::prelude::*;
//! use qws_data::{generate_qws, QwsConfig};
//!
//! let data = generate_qws(&QwsConfig::new(500, 4));
//! let job = SkylineJob::new(Algorithm::MrAngle, 4); // 4 servers
//! let report = job.run(&data);
//! assert!(!report.global_skyline.is_empty());
//! println!(
//!     "{} skyline points, simulated {:.1}s (map {:.1}s / reduce {:.1}s), optimality {:.2}",
//!     report.global_skyline.len(),
//!     report.metrics.sim_total,
//!     report.metrics.map_time(),
//!     report.metrics.reduce_time(),
//!     report.optimality,
//! );
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod checkpoint;
pub mod config;
pub mod driver;
pub mod maintain;
pub mod report;
pub mod selection;

pub use checkpoint::{dataset_fingerprint, CheckpointStore, Manifest};
pub use config::{AlgoConfig, Algorithm};
pub use driver::{RunError, SkylineJob};
pub use maintain::MaintainedRegistry;
pub use report::SkylineRunReport;
pub use selection::{SelectionRequest, SelectionResult, ServiceSelector, Summary};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::config::{AlgoConfig, Algorithm};
    pub use crate::driver::{RunError, SkylineJob};
    pub use crate::maintain::MaintainedRegistry;
    pub use crate::report::SkylineRunReport;
    pub use crate::selection::{SelectionRequest, SelectionResult, ServiceSelector, Summary};
    pub use mini_mapreduce::runtime::ClusterConfig;
}
