//! mrsky-serve: a fault-hardened online incremental skyline service.
//!
//! The serving layer for the reproduction suite: long-running,
//! multi-tenant, and hardened end to end on the request path. Each
//! tenant's live skyline is the paper's partitioned incremental
//! maintenance (`skyline_algos::incremental`): an insert meets only its
//! partition's local skyline and the global one, and a deletion
//! recomputes one partition only when it removes a local-skyline member.
//! Around it, this crate
//! layers admission control, seeded-jitter retries with deadline
//! budgets, per-tenant/operation circuit breakers, dead-lettering for
//! poison mutations, graceful degradation to stale snapshots, and
//! checkpoint/restore with replay-skip high-water marks.
//!
//! Module map:
//!
//! - [`service`] — the [`SkylineService`] request path (the heart of
//!   the crate; its module docs spell out the decision order);
//! - [`breaker`] — the deterministic circuit breaker;
//! - [`admission`] — the bounded admission gate;
//! - [`error`] — typed rejections ([`ServeError`]); nothing on the
//!   request path fails silently;
//! - [`loadgen`] — seeded open-loop load generator plus the
//!   acknowledged-mutation oracle used by the chaos suites and CI.
//!
//! Everything is deterministic: faults come from a
//! `mrsky_chaos::FaultPlan`, time is a simulated microsecond counter,
//! and all synchronization goes through the `mrsky_model::sync` facade
//! so the protocols are model-checkable under `--cfg mrsky_model`.

pub mod admission;
pub mod breaker;
pub mod error;
pub mod loadgen;
pub mod service;

pub use admission::{AdmissionConfig, AdmissionGate, Permit, ShedReason};
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker, Transition};
pub use error::ServeError;
pub use loadgen::{
    run as run_load, script as load_script, LoadReport, LoadRunner, LoadgenConfig, Op,
};
pub use service::{
    Mutation, MutationReceipt, QueryResponse, ServeConfig, ServeStats, SkylineService,
};
