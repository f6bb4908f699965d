//! # mini-mapreduce
//!
//! A from-scratch MapReduce runtime with a deterministic discrete-event
//! cluster simulator — the stand-in for the Hadoop 0.20.2 cluster of the
//! IPDPSW 2012 paper this workspace reproduces.
//!
//! ## Why a simulator
//!
//! The paper's measurements (Figures 5 and 6) come from a physical cluster of
//! 4–32 servers. What those figures actually encode, however, is *work
//! distribution*: how many records each task touches, how many dominance
//! comparisons each stage performs, and how many bytes cross the shuffle.
//! This runtime therefore does two things at once:
//!
//! 1. **Really executes** user map/combine/reduce code in parallel on a
//!    work-stealing pool of `std` scoped threads ([`pool`]), producing real
//!    outputs; and
//! 2. **Accounts simulated time** for every task from instrumented counters
//!    via a calibrated [`cost::CostModel`], then schedules those task
//!    durations onto `N` simulated servers with a discrete-event
//!    [`scheduler`], yielding Map/Shuffle/Reduce phase spans for any cluster
//!    size — including clusters far larger than the host machine.
//!
//! The cost model's constants are Hadoop-era magnitudes (JVM task startup,
//! disk-rate record I/O, LAN-rate shuffle) fixed once in [`cost`] and never
//! tuned per experiment.
//!
//! ## Programming model
//!
//! The classic triple, plus the paper's "middle process":
//!
//! * [`Mapper`](mapper::Mapper) — `record → (key, value)*`
//! * [`Combiner`](mapper::Combiner) — per-map-task, per-key aggregation (how
//!   the paper's *local skyline computation* step slots between Map and
//!   Reduce when run map-side)
//! * [`Reducer`](reducer::Reducer) — `(key, values) → output*`
//!
//! Jobs are described by a [`JobSpec`](runtime::JobSpec) and executed with
//! [`run_job`](runtime::run_job); [`run_job_chain`](runtime::run_job_chain)
//! feeds one job's output into the next and chains their metrics.
//!
//! ```
//! use mini_mapreduce::prelude::*;
//!
//! // word count on a simulated 4-server cluster
//! let docs: Vec<String> = vec![
//!     "angular partitioning of the skyline".into(),
//!     "the skyline of the data space".into(),
//! ];
//! let spec: JobSpec<String, u64> =
//!     JobSpec::new("wordcount", ClusterConfig::new(4)).with_reducers(2);
//! let mapper = |doc: &String, _ctx: &mut TaskContext, out: &mut Emitter<String, u64>| {
//!     for word in doc.split_whitespace() {
//!         out.emit(word.to_string(), 1);
//!     }
//! };
//! let reducer = |word: &String, counts: Vec<u64>, _ctx: &mut TaskContext,
//!                out: &mut Vec<(String, u64)>| {
//!     out.push((word.clone(), counts.iter().sum()));
//! };
//! let result = run_job(&spec, &docs, &mapper, None, &reducer);
//! let totals: std::collections::HashMap<String, u64> =
//!     result.into_outputs().into_iter().collect();
//! assert_eq!(totals["the"], 3);
//! assert_eq!(totals["skyline"], 2);
//! ```
//!
//! ## Fault tolerance
//!
//! Deterministic failure injection ([`task::FailureConfig`]) re-runs failed
//! attempts up to a retry budget (charging simulated time for the wasted
//! attempts), and the scheduler models Hadoop-style speculative execution of
//! straggler tasks.

#![warn(missing_docs)]

pub mod cost;
pub mod dfs;
pub mod mapper;
pub mod metrics;
pub mod pool;
pub mod reducer;
pub mod runtime;
pub mod scheduler;
pub mod shuffle;
pub mod task;
pub mod timeline;
pub mod types;

pub use cost::CostModel;
pub use dfs::{BlockStore, SpillReader, SpillStore};
pub use mapper::{Combiner, Mapper};
pub use metrics::{JobMetrics, PeakMemBytes, PhaseMetrics};
pub use pool::{PoolLimit, PoolOverloaded};
pub use reducer::Reducer;
pub use runtime::{run_job, ClusterConfig, JobResult, JobSpec, LocalityConfig, SpillConfig};
pub use scheduler::{
    schedule_phase, schedule_phase_with_locality, PhaseSchedule, SpeculationConfig,
};
pub use shuffle::OwnedMergeFn;
pub use task::FailureConfig;
pub use timeline::render_timeline;
pub use types::{Emitter, TaskContext};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cost::CostModel;
    pub use crate::mapper::{Combiner, Mapper};
    pub use crate::metrics::{JobMetrics, PhaseMetrics};
    pub use crate::reducer::Reducer;
    pub use crate::runtime::{run_job, ClusterConfig, JobResult, JobSpec, LocalityConfig};
    pub use crate::task::FailureConfig;
    pub use crate::types::{Emitter, TaskContext};
}
