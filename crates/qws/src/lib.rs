//! # qws-data
//!
//! Dataset substrate for the IPDPSW 2012 skyline reproduction: a synthetic
//! re-creation of the **QWS dataset** (Al-Masri & Mahmoud — measurements of
//! nine QoS attributes over ~10,000 real web services) plus the three
//! standard skyline benchmark distributions of Börzsönyi et al.
//!
//! ## The substitution, stated plainly
//!
//! The paper evaluates on QWS *extended by the authors themselves to 100,000
//! services with 10 attributes by "randomly generating QoS values … following
//! the distribution of the QWS dataset"*. The original file is not
//! redistributable here, so this crate regenerates services from the
//! **published per-attribute summary statistics** of QWS v2 (mean, spread,
//! range, direction), with a controllable quality correlation between
//! attributes — the same resampling methodology the authors used, applied
//! one step earlier. Skyline sizes and partition behaviour depend on the
//! marginal ranges and the correlation structure, both of which are
//! preserved.
//!
//! * [`attributes`] — the nine QWS attributes + a price attribute, their
//!   published statistics, units and directions.
//! * [`generator`] — the QWS-like sampler ([`QwsConfig`], [`generate_qws`]).
//! * [`synthetic`] — independent / correlated / anti-correlated benchmark
//!   generators.
//! * [`dataset`] — the [`Dataset`] container, CSV persistence, and an update
//!   stream for incremental experiments.
//! * [`ingest`] — the strict loader for the real QWS v2 file
//!   ([`load_qws_file`]).
//! * [`rng`] — small self-contained normal/log-normal samplers (the `rand`
//!   crate's distributions live in `rand_distr`, which is outside this
//!   workspace's dependency budget).
//!
//! All generators are seeded and fully deterministic.

#![warn(missing_docs)]

pub mod attributes;
pub mod dataset;
pub mod drift;
pub mod generator;
pub mod ingest;
pub mod rng;
pub mod synthetic;

pub use attributes::{AttributeSpec, Direction, QWS_ATTRIBUTES};
pub use dataset::Dataset;
pub use drift::{DriftConfig, DriftModel};
pub use generator::{extend_qws, generate_qws, QwsConfig};
pub use ingest::load_qws_file;
pub use synthetic::{generate_synthetic, Distribution, SyntheticConfig};
