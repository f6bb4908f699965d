//! # mr-skyline-suite
//!
//! Umbrella crate for the reproduction of *"MapReduce Skyline Query
//! Processing with a New Angular Partitioning Approach"* (Chen, Hwang, Wu —
//! IEEE IPDPSW 2012).
//!
//! Re-exports the four workspace crates so examples and downstream users can
//! depend on a single crate:
//!
//! * [`skyline`] ([`skyline_algos`]) — skyline kernels, partitioners, metrics;
//! * [`mapreduce`] ([`mini_mapreduce`]) — the MapReduce runtime + cluster simulator;
//! * [`qws`] ([`qws_data`]) — QWS-like and synthetic dataset generators;
//! * [`mr`] ([`mr_skyline`]) — the MR-Dim / MR-Grid / MR-Angle algorithms;
//! * [`audit`] ([`mrsky_audit`]) — plan-time static analysis and the
//!   workspace lint pass;
//! * [`trace`] ([`mrsky_trace`]) — structured tracing, the metrics
//!   registry, and the Chrome/Prometheus exporters;
//! * [`chaos`] ([`mrsky_chaos`]) — seeded fault injection, bounded
//!   retries, and the quarantine/kill-switch machinery behind
//!   checkpoint/resume;
//! * [`insight`] ([`mrsky_insight`]) — causal critical-path analysis,
//!   straggler/skew attribution, and the bench regression gate;
//! * [`serve`] ([`mrsky_serve`]) — the fault-hardened online incremental
//!   skyline service: partitioned incremental maintenance, circuit breakers,
//!   admission control, and dead-lettering on the request path.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use mini_mapreduce as mapreduce;
pub use mr_skyline as mr;
pub use mrsky_audit as audit;
pub use mrsky_chaos as chaos;
pub use mrsky_insight as insight;
pub use mrsky_serve as serve;
pub use mrsky_trace as trace;
pub use qws_data as qws;
pub use skyline_algos as skyline;
