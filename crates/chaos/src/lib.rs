//! # mrsky-chaos — deterministic fault injection and recovery primitives
//!
//! The paper's premise is that MapReduce gives skyline queries fault
//! tolerance for free: failed tasks re-execute and the job still returns
//! the exact skyline. This crate supplies the machinery that lets the
//! rest of the workspace *prove* that, not just price it:
//!
//! - [`FaultPlan`] — a seeded, serializable plan that decides, as a pure
//!   function of `(site, scope, index, attempt)`, whether a fault fires
//!   and of which [`FaultKind`]. Same plan ⇒ same fault pattern, which is
//!   what makes chaos runs replayable (`mrsky chaos replay`) and
//!   property-testable (any plan within retry budgets must produce the
//!   bit-exact oracle skyline).
//! - [`BackoffPolicy`] / [`with_retries`] — bounded retries with
//!   deterministic exponential backoff, charged to the *simulated* clock
//!   so recovery cost shows up in run metrics without slowing tests.
//! - [`DeadLetter`] — a bounded quarantine for poisoned records, backing
//!   the serving layer's dead-letter queue of rejected mutations: it keeps
//!   the latest records up to its budget and counts the rest.
//! - [`KillSwitch`] — a crash simulator that kills the run after N
//!   checkpoint writes, for exercising checkpoint/resume paths.
//!
//! The convergence convention: the final attempt of a plan's budget
//! never faults, so any retry loop granted the plan's `max_attempts`
//! terminates successfully. Exhaustion is still reachable
//! (and traced as `TaskRetryExhausted`) when an executor runs with a
//! smaller budget than the plan assumes.

mod kill;
mod plan;
mod quarantine;
mod retry;

pub use kill::{KillSwitch, KILL_PAYLOAD};
pub use plan::{FaultKind, FaultPlan, FaultSite, SiteRule};
pub use quarantine::DeadLetter;
pub use retry::{with_retries, with_retries_seeded, BackoffPolicy, RetryStats};
