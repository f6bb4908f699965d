//! `mrsky-insight`: offline analysis over recorded trace streams.
//!
//! The runtime's tracer (see `mrsky-trace`) records what happened; this
//! crate explains *why it took that long*. Every analysis reads
//! `mrsky-trace`'s [`RunModel`](mrsky_trace::RunModel), the one fold of a recorded stream, and
//! [`check`] refuses a model the analyses cannot use.
//!
//! - **Critical path** ([`critpath`]): the longest weighted chain through
//!   the run, tiled so per-phase blame sums exactly to the simulated wall
//!   time.
//! - **Stragglers** ([`stragglers`]): tasks slow relative to their phase
//!   median, with work-stealing rescue accounting.
//! - **Skew** ([`skew`]): row-count and kernel-time Gini per partitioner
//!   sector, and the hot partition.
//! - **Gate** ([`gate`]): the `bench-gate` regression check comparing
//!   current `BENCH_*.json` artifacts against committed baselines.
//!
//! Everything is hand-rolled on the standard library plus `mrsky-trace`;
//! no external dependencies.

#![warn(missing_docs)]

pub mod critpath;
pub mod gate;
pub mod report;
pub mod skew;
pub mod stragglers;
pub mod testutil;

pub use critpath::{critical_path, CriticalPath, Segment, SegmentKind};
pub use gate::{evaluate, parse_baselines, BaselineMetric, Direction, GateOutcome};
pub use skew::{gini, skew, SkewReport};
pub use stragglers::{stragglers, Straggler, DEFAULT_THRESHOLD};

/// Refuses a model the analyses cannot read: one holding an event for a
/// job that was not running, or one with no finished run.
///
/// # Errors
///
/// Names the job of the first such event, or says no job finished.
pub fn check(run: &mrsky_trace::RunModel) -> Result<(), String> {
    if let Some(job) = &run.orphan {
        return Err(format!("event for job `{job}` before its job_started"));
    }
    if run.finished_runs().next().is_none() {
        return Err("trace contains no finished job".into());
    }
    Ok(())
}
