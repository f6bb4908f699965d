//! **mrsky-model** — bounded model checking for the MR-skyline runtime.
//!
//! The distributed-skyline correctness argument leans on a handful of
//! shared-state steps being linearizable: metrics-shard merges, the
//! work pool's cursor/slot handoff, and the chaos kill switch's
//! exactly-once firing. Ordinary tests only observe
//! the schedules the OS happens to pick; this crate explores the
//! schedule space deliberately, in the style of loom/CHESS, with zero
//! dependencies (per the workspace's vendored-shim policy).
//!
//! # How it works
//!
//! Runtime crates import [`sync`] instead of `std::sync`. In normal
//! builds that facade is a zero-cost `std` passthrough; compiled with
//! `RUSTFLAGS="--cfg mrsky_model"` it swaps in instrumented primitives
//! ([`checked`]) where every atomic access, lock operation, spawn, and
//! join is a *decision point* for a deterministic cooperative scheduler.
//! [`check`] then runs the test body repeatedly, enumerating
//! interleavings by depth-first search over decision prefixes up to a
//! preemption bound, plus seeded random walks past the bound. It fails
//! on panics (assertion violations), deadlocks, and lock-order
//! inversions, and every failure carries a [`Schedule`] string that
//! [`replay`] reproduces deterministically:
//!
//! ```text
//! panic: assertion failed: lost update
//!   schedule: "0.0.1.1.0"
//!   replay:   mrsky_model::replay("0.0.1.1.0", || { ... })
//! ```
//!
//! # Writing a model test
//!
//! Component crates import [`sync`] (so production builds pay nothing);
//! the checker's own tests can use [`checked`] directly, which is
//! always instrumented:
//!
//! ```
//! use mrsky_model::checked::{scope, AtomicUsize, Ordering};
//!
//! let report = mrsky_model::check(|| {
//!     let counter = AtomicUsize::new(0);
//!     scope(|s| {
//!         let h = s.spawn(|| counter.fetch_add(1, Ordering::Relaxed));
//!         counter.fetch_add(1, Ordering::Relaxed);
//!         let _ = h.join();
//!     });
//!     assert_eq!(counter.into_inner(), 2);
//! });
//! assert!(report.executions > 1, "several interleavings explored");
//! ```
//!
//! The body must be deterministic apart from scheduling: no wall clock,
//! no OS randomness, no I/O races — the same constraint the runtime
//! crates already observe (enforced by `mrsky-audit lint`).

pub mod checked;
mod scheduler;
pub mod sync;

pub use scheduler::{CheckOptions, Failure, FailureKind, Report, Schedule};

/// Explores interleavings of `body` with [`CheckOptions::default`] and
/// panics (with the failing schedule) on the first failure.
///
/// # Panics
///
/// Panics with a rendered [`Failure`] — kind, schedule string, and a
/// replay hint — when any explored interleaving panics, deadlocks, or
/// inverts a lock order.
pub fn check<F: Fn() + Send + Sync>(body: F) -> Report {
    check_opts(&CheckOptions::default(), body)
}

/// [`check`] with explicit options.
///
/// # Panics
///
/// As [`check`].
pub fn check_opts<F: Fn() + Send + Sync>(opts: &CheckOptions, body: F) -> Report {
    match scheduler::explore(opts, body) {
        Ok(report) => report,
        Err(failure) => std::panic::panic_any(format!("model check failed: {failure}")),
    }
}

/// Explores interleavings of `body`, returning the failure instead of
/// panicking — for tests that assert a race IS caught.
///
/// # Errors
///
/// The first failing interleaving found, with its schedule.
pub fn check_result<F: Fn() + Send + Sync>(
    opts: &CheckOptions,
    body: F,
) -> Result<Report, Failure> {
    scheduler::explore(opts, body)
}

/// Replays one schedule string (as printed by a [`Failure`]) against
/// `body`, returning the failure it reproduces, if any.
///
/// Decisions past the end of the schedule fall back to the
/// no-preemption choice, so a prefix is enough to steer the body back
/// into a failing region.
///
/// # Errors
///
/// The reproduced failure. A malformed schedule string is reported as a
/// [`FailureKind::Panic`] with an empty schedule.
pub fn replay<F: Fn() + Send + Sync>(schedule: &str, body: F) -> Result<Report, Failure> {
    let parsed = match Schedule::parse(schedule) {
        Ok(parsed) => parsed,
        Err(err) => {
            return Err(Failure {
                kind: FailureKind::Panic(err),
                schedule: Schedule::default(),
            })
        }
    };
    scheduler::replay_schedule(&parsed, &CheckOptions::default(), body)
}
