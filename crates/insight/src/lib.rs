//! `mrsky-insight`: offline analysis over recorded trace streams.
//!
//! The runtime's tracer (see `mrsky-trace`) records what happened; this
//! crate explains *why it took that long*:
//!
//! - **Model** ([`model`]): rebuilds jobs, phases, tasks, steals, shuffle
//!   accounting, and the causal-edge DAG from a JSONL trace, rebased onto
//!   one run-global sim timeline.
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
pub mod model;
pub mod report;
pub mod skew;
pub mod stragglers;
pub mod testutil;

pub use critpath::{critical_path, CriticalPath, Segment, SegmentKind};
pub use gate::{evaluate, parse_baselines, BaselineMetric, Direction, GateOutcome};
pub use model::{JobRec, PhaseRec, RunModel, TaskRec};
pub use skew::{gini, skew, SkewReport};
pub use stragglers::{stragglers, Straggler, DEFAULT_THRESHOLD};
