//! The fault-hardened multi-tenant skyline service.
//!
//! One [`SkylineService`] owns an [`IncrementalSkyline`] per tenant, built
//! at the tenant's first insert over one [`RandomPartitioner`] partition (a
//! live stream has no bounds to fit), plus the hardening layers around the
//! request path:
//!
//! - **admission control** — a bounded [`AdmissionGate`] sheds mutations
//!   with a typed [`ServeError::Overloaded`] instead of queueing;
//! - **retries** — transient faults (driven by the [`FaultPlan`]) are
//!   retried with seeded, jittered exponential backoff, every delay
//!   charged against a simulated clock and a per-request deadline;
//! - **circuit breakers** — per tenant and operation class; an open
//!   mutation breaker rejects with [`ServeError::BreakerOpen`], an open
//!   query breaker degrades queries to the last consistent snapshot with
//!   a staleness marker instead of failing them;
//! - **dead-lettering** — poison mutations (non-finite payloads, or
//!   injected `PoisonRow` faults) divert to a bounded [`DeadLetter`]
//!   queue and return [`ServeError::PoisonMutation`];
//! - **checkpointing** — every `checkpoint_every` applied mutations the
//!   tenant's live store is written through a [`CheckpointStore`], with
//!   the applied-sequence high-water mark in a sidecar, so a killed
//!   service resumes by replaying only unacknowledged mutations.
//!
//! Time is fully simulated: the service owns a microsecond counter that
//! requests advance (service ticks + backoff charges), so latencies,
//! breaker windows, and deadline enforcement are deterministic for a
//! given plan/seed. Every decision on the path emits a trace event
//! (`request`, `shed`, `breaker_transition`, `repair`, `stale_served`).

use crate::admission::{AdmissionConfig, AdmissionGate, ShedReason};
use crate::breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker, Transition};
use crate::error::ServeError;
use mr_skyline::checkpoint::CheckpointStore;
use mrsky_chaos::{DeadLetter, FaultKind, FaultPlan, FaultSite, KillSwitch, KILL_PAYLOAD};
use mrsky_model::sync::{AtomicBool, AtomicU64, Mutex, Ordering};
use mrsky_trace::{EventKind, Tracer};
use skyline_algos::incremental::IncrementalSkyline;
use skyline_algos::partition::RandomPartitioner;
use skyline_algos::point::Point;
use skyline_algos::skyband::SkybandStats;
use skyline_algos::SkylineError;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Arc;

/// Simulated microseconds one execution attempt costs on the request
/// path, before any backoff charges.
const SERVICE_TICK_US: u64 = 100;

/// A tenant's live-skyline engine.
type Engine = IncrementalSkyline<RandomPartitioner>;

/// An engine for `dim`-dimensional points on one partition, loaded with
/// `points`.
fn engine(dim: usize, points: &[Point]) -> Result<Engine, SkylineError> {
    RandomPartitioner::new(dim, 1).and_then(|part| IncrementalSkyline::from_points(part, points))
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Read only by the benchmark, which replays a k-skyband buffer at
    /// this depth beside the service; the service itself ignores it. Goes
    /// with the next benchmark change.
    pub skyband_k: usize,
    /// Per-request deadline in simulated seconds; backoff charges count
    /// against it.
    pub deadline_seconds: f64,
    /// Service-side retry budget (0 = use the fault plan's
    /// `max_attempts`). A budget *below* the plan's makes
    /// retries-exhausted reachable — the plan only guarantees
    /// convergence within its own budget.
    pub max_attempts: u32,
    /// Circuit-breaker tuning, shared by every tenant/operation breaker.
    pub breaker: BreakerConfig,
    /// Admission limits for the mutation path.
    pub admission: AdmissionConfig,
    /// Most dead-lettered mutations the queue keeps: past it the oldest
    /// are dropped and counted in its report
    /// ([`SkylineService::dead_letter_report`]);
    /// [`ServeStats::dead_lettered`] counts every one.
    pub max_dead_letters: usize,
    /// Applied mutations between checkpoints (0 disables checkpointing
    /// even when a store is attached).
    pub checkpoint_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            skyband_k: 4,
            deadline_seconds: 30.0,
            max_attempts: 0,
            breaker: BreakerConfig::default(),
            admission: AdmissionConfig::default(),
            max_dead_letters: 64,
            checkpoint_every: 8,
        }
    }
}

/// One mutation on a tenant's live set. Inserts are idempotent by id;
/// deleting an id that is not live is an acknowledged no-op, which is
/// what makes at-least-once replay after a crash safe.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Add (or re-add, a no-op) a point.
    Insert {
        /// Point id, unique per tenant.
        id: u64,
        /// Coordinates; non-finite values dead-letter the mutation.
        coords: Vec<f64>,
    },
    /// Remove a point by id.
    Delete {
        /// Point id to remove.
        id: u64,
    },
}

impl Mutation {
    fn op(&self) -> &'static str {
        match self {
            Mutation::Insert { .. } => "insert",
            Mutation::Delete { .. } => "delete",
        }
    }
}

/// Acknowledgement for an applied mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationReceipt {
    /// Attempts consumed (0 when the mutation was a replay skip).
    pub attempts: u32,
    /// The mutation's sequence number was at or below the tenant's
    /// applied high-water mark, so it was skipped (already applied
    /// before a crash).
    pub replayed: bool,
    /// Points promoted into the skyline by a deletion repair.
    pub promoted: u64,
}

/// A served skyline query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The skyline, sorted by point id.
    pub skyline: Vec<Point>,
    /// True when this is the last consistent snapshot rather than a
    /// fresh read (breaker open, or a repair in flight).
    pub stale: bool,
    /// Mutations applied since the served snapshot was taken (0 for
    /// fresh reads).
    pub lag: u64,
}

/// Aggregate counters for smoke checks and CI assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Mutations acknowledged (including replay skips).
    pub mutations_ok: u64,
    /// Queries answered fresh.
    pub queries_fresh: u64,
    /// Queries served from a stale snapshot.
    pub queries_stale: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests rejected by an open breaker.
    pub breaker_rejected: u64,
    /// Breaker trips (closed -> open transitions).
    pub breaker_opens: u64,
    /// Mutations diverted to the dead-letter queue.
    pub dead_lettered: u64,
    /// Requests that exhausted their retry budget.
    pub retries_exhausted: u64,
    /// Requests that blew their deadline budget.
    pub deadline_exceeded: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Deletions of a local-skyline member, each repaired by recomputing
    /// its partition.
    pub repairs: u64,
    /// For the benchmark only: `repairs_from_buffer` is
    /// [`ServeStats::repairs`], the other counters are 0. Goes with the
    /// next benchmark change.
    pub skyband: SkybandStats,
}

struct Snapshot {
    points: Vec<Point>,
    /// Applied-mutation count when the snapshot was taken.
    version: u64,
}

/// Per-request context threaded through the rejection helpers.
struct ReqCtx<'a> {
    tenant: &'a str,
    op: &'a str,
    seq: u64,
    start_us: u64,
    probe: bool,
}

struct TenantCell {
    index: u64,
    /// `None` until the tenant's first insert fixes its dimensionality.
    engine: Mutex<Option<Engine>>,
    snapshot: Mutex<Snapshot>,
    repairing: AtomicBool,
    mutation_breaker: CircuitBreaker,
    query_breaker: CircuitBreaker,
    /// Highest mutation sequence applied (0 = none).
    applied_seq: AtomicU64,
    /// Total mutations applied (snapshot lag is measured against this).
    applied_count: AtomicU64,
    since_checkpoint: AtomicU64,
    query_seq: AtomicU64,
}

/// The service. See the module docs for the request-path contract.
pub struct SkylineService {
    cfg: ServeConfig,
    plan: FaultPlan,
    tracer: Tracer,
    sim_us: AtomicU64,
    gate: AdmissionGate,
    dlq: Mutex<DeadLetter>,
    tenants: Mutex<BTreeMap<String, Arc<TenantCell>>>,
    next_index: AtomicU64,
    store: Option<CheckpointStore>,
    kill: Option<Arc<KillSwitch>>,
    mutations_ok: AtomicU64,
    queries_fresh: AtomicU64,
    queries_stale: AtomicU64,
    breaker_rejected: AtomicU64,
    breaker_opens: AtomicU64,
    dead_lettered: AtomicU64,
    retries_exhausted: AtomicU64,
    deadline_exceeded: AtomicU64,
    checkpoints: AtomicU64,
    repairs: AtomicU64,
}

impl SkylineService {
    /// Creates a service with no checkpoint store.
    pub fn new(cfg: ServeConfig, plan: FaultPlan, tracer: Tracer) -> Self {
        let max_dl = cfg.max_dead_letters;
        let admission = cfg.admission;
        Self {
            cfg,
            plan,
            tracer,
            sim_us: AtomicU64::new(0),
            gate: AdmissionGate::new(admission),
            dlq: Mutex::new(DeadLetter::with_budget(max_dl)),
            tenants: Mutex::new(BTreeMap::new()),
            next_index: AtomicU64::new(0),
            store: None,
            kill: None,
            mutations_ok: AtomicU64::new(0),
            queries_fresh: AtomicU64::new(0),
            queries_stale: AtomicU64::new(0),
            breaker_rejected: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            dead_lettered: AtomicU64::new(0),
            retries_exhausted: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
        }
    }

    /// Attaches a checkpoint store and restores any prior state from it:
    /// each checkpointed tenant comes back with its full live store and
    /// applied-sequence high-water mark, so the driver can replay its
    /// mutation log and have already-applied entries skip as no-ops.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the store; a tenant whose checkpointed
    /// points disagree on dimensionality is `InvalidData`.
    pub fn with_store(mut self, store: CheckpointStore) -> std::io::Result<Self> {
        let restored = store.restore()?;
        let marks = read_tenant_marks(store.dir());
        let mut tenants = BTreeMap::new();
        let mut max_index = 0u64;
        for (index, points) in restored {
            let Some((name, applied_seq, applied_count)) = marks.get(&index).cloned() else {
                continue;
            };
            max_index = max_index.max(index + 1);
            let engine = points
                .first()
                .map(|p| engine(p.dim(), &points))
                .transpose()
                .map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("tenant `{name}`: {e}"),
                    )
                })?;
            let snapshot = Snapshot {
                points: engine
                    .as_ref()
                    .map_or_else(Vec::new, |e| e.global_skyline().to_vec()),
                version: applied_count,
            };
            let cell = Arc::new(TenantCell {
                index,
                engine: Mutex::new(engine),
                snapshot: Mutex::new(snapshot),
                repairing: AtomicBool::new(false),
                mutation_breaker: CircuitBreaker::new(self.cfg.breaker),
                query_breaker: CircuitBreaker::new(self.cfg.breaker),
                applied_seq: AtomicU64::new(applied_seq),
                applied_count: AtomicU64::new(applied_count),
                since_checkpoint: AtomicU64::new(0),
                query_seq: AtomicU64::new(0),
            });
            tenants.insert(name, cell);
        }
        *self.tenants.lock() = tenants;
        self.next_index = AtomicU64::new(max_index);
        self.store = Some(store);
        Ok(self)
    }

    /// Whether `dir` holds the tenant marks a serving run writes beside its
    /// checkpoints, so that [`SkylineService::with_store`] would restore
    /// tenants from it.
    pub fn holds_tenant_marks(dir: &std::path::Path) -> bool {
        !read_tenant_marks(dir).is_empty()
    }

    /// Arms a crash simulator: the service panics with
    /// [`KILL_PAYLOAD`] after the switch's checkpoint-write budget.
    #[must_use]
    pub fn with_kill_switch(mut self, kill: Arc<KillSwitch>) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Current simulated time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.sim_us.load(Ordering::Acquire)
    }

    /// The tracer the service emits request-path events into (so a
    /// driver can drain recorded events, including after a simulated
    /// crash).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The dead-letter queue's rendered report.
    pub fn dead_letter_report(&self) -> String {
        self.dlq.lock().render()
    }

    /// Number of dead-lettered mutations the queue keeps (at most
    /// [`ServeConfig::max_dead_letters`]).
    pub fn dead_letter_len(&self) -> usize {
        self.dlq.lock().len()
    }

    /// Aggregate counters (see [`ServeStats`]).
    pub fn stats(&self) -> ServeStats {
        let repairs = self.repairs.load(Ordering::Acquire);
        ServeStats {
            mutations_ok: self.mutations_ok.load(Ordering::Acquire),
            queries_fresh: self.queries_fresh.load(Ordering::Acquire),
            queries_stale: self.queries_stale.load(Ordering::Acquire),
            shed: self.gate.shed_total(),
            breaker_rejected: self.breaker_rejected.load(Ordering::Acquire),
            breaker_opens: self.breaker_opens.load(Ordering::Acquire),
            dead_lettered: self.dead_lettered.load(Ordering::Acquire),
            retries_exhausted: self.retries_exhausted.load(Ordering::Acquire),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Acquire),
            checkpoints: self.checkpoints.load(Ordering::Acquire),
            repairs,
            skyband: SkybandStats {
                repairs_from_buffer: repairs,
                ..SkybandStats::default()
            },
        }
    }

    /// Tenant names currently known to the service.
    pub fn tenants(&self) -> Vec<String> {
        self.tenants.lock().keys().cloned().collect()
    }

    fn retry_budget(&self) -> u32 {
        if self.cfg.max_attempts == 0 {
            self.plan.max_attempts
        } else {
            self.cfg.max_attempts
        }
    }

    fn tick(&self, us: u64) -> u64 {
        self.sim_us.fetch_add(us, Ordering::AcqRel) + us
    }

    fn cell(&self, tenant: &str) -> Arc<TenantCell> {
        let mut g = self.tenants.lock();
        if let Some(c) = g.get(tenant) {
            return Arc::clone(c);
        }
        let index = self.next_index.fetch_add(1, Ordering::AcqRel);
        let cell = Arc::new(TenantCell {
            index,
            engine: Mutex::new(None),
            snapshot: Mutex::new(Snapshot {
                points: Vec::new(),
                version: 0,
            }),
            repairing: AtomicBool::new(false),
            mutation_breaker: CircuitBreaker::new(self.cfg.breaker),
            query_breaker: CircuitBreaker::new(self.cfg.breaker),
            applied_seq: AtomicU64::new(0),
            applied_count: AtomicU64::new(0),
            since_checkpoint: AtomicU64::new(0),
            query_seq: AtomicU64::new(0),
        });
        g.insert(tenant.to_string(), Arc::clone(&cell));
        cell
    }

    fn trace_transition(&self, tenant: &str, op: &str, t: Transition) {
        if t.to == BreakerState::Open {
            self.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
        let (tenant, op) = (tenant.to_string(), op.to_string());
        self.tracer.emit(move || EventKind::BreakerTransition {
            tenant,
            op,
            from: t.from.as_str().to_string(),
            to: t.to.as_str().to_string(),
        });
    }

    fn trace_request(&self, tenant: &str, op: &str, outcome: &str, start_us: u64, attempts: u32) {
        let lat = (self.now_us().saturating_sub(start_us)) as f64 / 1e6;
        let (tenant, op, outcome) = (tenant.to_string(), op.to_string(), outcome.to_string());
        self.tracer.emit(move || EventKind::Request {
            tenant,
            op,
            outcome,
            sim_latency: lat,
            attempts: u64::from(attempts),
        });
    }

    /// Applies one mutation. `seq` is the caller's monotonically
    /// increasing per-tenant sequence number; replays (`seq` at or below
    /// the applied high-water mark) acknowledge without re-executing.
    ///
    /// # Errors
    ///
    /// Every rejection is a typed [`ServeError`]; see the module docs
    /// for the full decision path.
    ///
    /// # Panics
    ///
    /// With an armed kill switch, panics with [`KILL_PAYLOAD`] when the
    /// checkpoint-write budget is exhausted (the simulated crash).
    pub fn apply(
        &self,
        tenant: &str,
        seq: u64,
        mutation: &Mutation,
    ) -> Result<MutationReceipt, ServeError> {
        let op = mutation.op();
        let start_us = self.now_us();

        // Admission first: an overloaded service must shed before doing
        // any per-request work, or the gate is not protecting anything.
        let permit = match self.gate.try_acquire() {
            Ok(p) => p,
            Err(ShedReason::QueueDepth { depth }) => {
                let (t, o) = (tenant.to_string(), op.to_string());
                self.tracer.emit(move || EventKind::Shed {
                    tenant: t,
                    op: o,
                    reason: "queue-depth".to_string(),
                    depth,
                });
                self.trace_request(tenant, op, "rejected-overloaded", start_us, 0);
                return Err(ServeError::Overloaded {
                    tenant: tenant.to_string(),
                    op: "mutation".to_string(),
                    depth,
                });
            }
        };
        let _permit = permit;

        let cell = self.cell(tenant);
        if seq <= cell.applied_seq.load(Ordering::Acquire) {
            self.mutations_ok.fetch_add(1, Ordering::Relaxed);
            self.trace_request(tenant, op, "replayed", start_us, 0);
            return Ok(MutationReceipt {
                attempts: 0,
                replayed: true,
                promoted: 0,
            });
        }

        let now = self.now_us();
        let (admission, transition) = cell.mutation_breaker.try_admit(now);
        if let Some(t) = transition {
            self.trace_transition(tenant, "mutation", t);
        }
        let probe = match admission {
            Admission::Reject => {
                self.breaker_rejected.fetch_add(1, Ordering::Relaxed);
                self.trace_request(tenant, op, "rejected-breaker", start_us, 0);
                return Err(ServeError::BreakerOpen {
                    tenant: tenant.to_string(),
                    op: "mutation".to_string(),
                });
            }
            Admission::Probe => true,
            Admission::Allow => false,
        };

        let ctx = ReqCtx {
            tenant,
            op,
            seq,
            start_us,
            probe,
        };

        // Payload validation: a non-finite coordinate is poison from the
        // client, not a service fault — dead-letter it without charging
        // the breaker (the request path itself worked).
        let point = match mutation {
            Mutation::Insert { id, coords } => match Point::try_new(*id, coords.clone()) {
                Ok(p) => Some(p),
                Err(e) => return self.dead_letter(&cell, &ctx, e.to_string()),
            },
            Mutation::Delete { .. } => None,
        };

        // Retry loop: the fault plan decides, backoff charges sim time,
        // the deadline budget bounds the whole request.
        let mut attempts = 0u32;
        loop {
            let attempt = attempts;
            attempts += 1;
            self.tick(SERVICE_TICK_US);
            match self
                .plan
                .decide(FaultSite::ServeMutation, tenant, seq, attempt)
            {
                None => break,
                Some(FaultKind::PoisonRow) => {
                    return self.dead_letter(&cell, &ctx, "injected poison-row fault".to_string());
                }
                Some(_) => {
                    if attempts >= self.retry_budget() {
                        if let Some(t) = cell.mutation_breaker.on_failure(self.now_us(), probe) {
                            self.trace_transition(tenant, "mutation", t);
                        }
                        self.retries_exhausted.fetch_add(1, Ordering::Relaxed);
                        self.trace_request(tenant, op, "rejected-retries", start_us, attempts);
                        return Err(ServeError::RetriesExhausted {
                            tenant: tenant.to_string(),
                            op: "mutation".to_string(),
                            attempts,
                        });
                    }
                    let seed = self.plan.seed ^ fold(tenant) ^ seq;
                    let delay = self.plan.backoff.jittered_delay_seconds(attempt, seed);
                    self.tick((delay * 1e6) as u64);
                    let elapsed = (self.now_us().saturating_sub(start_us)) as f64 / 1e6;
                    if elapsed > self.cfg.deadline_seconds {
                        if let Some(t) = cell.mutation_breaker.on_failure(self.now_us(), probe) {
                            self.trace_transition(tenant, "mutation", t);
                        }
                        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        self.trace_request(tenant, op, "rejected-deadline", start_us, attempts);
                        return Err(ServeError::DeadlineExceeded {
                            tenant: tenant.to_string(),
                            op: "mutation".to_string(),
                            budget_seconds: self.cfg.deadline_seconds,
                        });
                    }
                }
            }
        }

        // Execute against the engine. Deletions flip the repairing flag so
        // concurrent queries degrade to the snapshot instead of blocking on
        // a repair. The snapshot is refreshed under the engine lock, so
        // snapshots follow the engine's order of mutations.
        let promoted = {
            let mut slot = cell.engine.lock();
            let result = match (mutation, point) {
                (Mutation::Insert { .. }, Some(p)) => {
                    let inserted = match slot.as_mut() {
                        Some(engine) => engine.insert(p),
                        None => engine(p.dim(), &[]).and_then(|e| slot.insert(e).insert(p)),
                    };
                    inserted.map(|changed| (0, changed))
                }
                // Inserts always carry a point past validation; reaching
                // here without one is a payload defect, not a reason to
                // abort the service — divert it like any poison row.
                (Mutation::Insert { .. }, None) => {
                    drop(slot);
                    return self.dead_letter(
                        &cell,
                        &ctx,
                        "insert payload missing after validation".to_string(),
                    );
                }
                (Mutation::Delete { id }, _) => {
                    cell.repairing.store(true, Ordering::Release);
                    let removal = slot.as_mut().and_then(|engine| engine.remove(*id));
                    cell.repairing.store(false, Ordering::Release);
                    let repaired = removal.filter(|r| r.repaired);
                    if let Some(r) = &repaired {
                        self.repairs.fetch_add(1, Ordering::Relaxed);
                        let (t, n) = (tenant.to_string(), r.promoted.len() as u64);
                        self.tracer.emit(move || EventKind::Repair {
                            tenant: t,
                            promoted: n,
                        });
                    }
                    Ok(repaired.map_or((0, false), |r| (r.promoted.len() as u64, true)))
                }
            };
            match result {
                Ok((promoted, changed)) => {
                    let applied = cell.applied_count.fetch_add(1, Ordering::AcqRel) + 1;
                    cell.applied_seq.store(seq, Ordering::Release);
                    let mut snap = cell.snapshot.lock();
                    if let (true, Some(engine)) = (changed, slot.as_ref()) {
                        snap.points = engine.global_skyline().to_vec();
                    }
                    snap.version = applied;
                    promoted
                }
                Err(e) => {
                    drop(slot);
                    // Invalid payload (e.g. dimension mismatch): typed
                    // rejection; the service itself worked, so the
                    // breaker records a success.
                    if let Some(t) = cell.mutation_breaker.on_success(probe) {
                        self.trace_transition(tenant, "mutation", t);
                    }
                    self.trace_request(tenant, op, "rejected-invalid", start_us, attempts);
                    return Err(e.into());
                }
            }
        };
        if let Some(t) = cell.mutation_breaker.on_success(probe) {
            self.trace_transition(tenant, "mutation", t);
        }
        self.maybe_checkpoint(&cell);
        self.mutations_ok.fetch_add(1, Ordering::Relaxed);
        self.trace_request(tenant, op, "ok", start_us, attempts);
        Ok(MutationReceipt {
            attempts,
            replayed: false,
            promoted,
        })
    }

    fn dead_letter(
        &self,
        cell: &TenantCell,
        ctx: &ReqCtx<'_>,
        reason: String,
    ) -> Result<MutationReceipt, ServeError> {
        self.dlq.lock().push(ctx.tenant, ctx.seq, reason.clone());
        self.dead_lettered.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = cell.mutation_breaker.on_success(ctx.probe) {
            self.trace_transition(ctx.tenant, "mutation", t);
        }
        self.trace_request(ctx.tenant, ctx.op, "dead-letter", ctx.start_us, 1);
        Err(ServeError::PoisonMutation {
            tenant: ctx.tenant.to_string(),
            reason,
        })
    }

    fn maybe_checkpoint(&self, cell: &TenantCell) {
        if self.cfg.checkpoint_every == 0 {
            return;
        }
        let Some(store) = &self.store else { return };
        let since = cell.since_checkpoint.fetch_add(1, Ordering::AcqRel) + 1;
        if since < self.cfg.checkpoint_every {
            return;
        }
        cell.since_checkpoint.store(0, Ordering::Release);
        // A checkpoint is a *global* consistency point: the sidecar
        // records every tenant's applied-seq mark, so every tenant's
        // live store must be durable before the marks are — otherwise a
        // crash here would replay-skip mutations whose data was lost.
        let cells: Vec<Arc<TenantCell>> = self.tenants.lock().values().cloned().collect();
        for c in &cells {
            c.since_checkpoint.store(0, Ordering::Release);
            let live = c
                .engine
                .lock()
                .as_ref()
                .map_or_else(Vec::new, Engine::live_points);
            if store.write_partition(c.index, &live).is_err() {
                return;
            }
        }
        self.write_tenant_marks(store);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        if let Some(kill) = &self.kill {
            if kill.record_write() {
                panic!("{KILL_PAYLOAD}");
            }
        }
    }

    fn write_tenant_marks(&self, store: &CheckpointStore) {
        let g = self.tenants.lock();
        let mut body = String::new();
        for (name, cell) in g.iter() {
            body.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                cell.index,
                name,
                cell.applied_seq.load(Ordering::Acquire),
                cell.applied_count.load(Ordering::Acquire),
            ));
        }
        drop(g);
        let tmp = store.dir().join("tenants.tsv.tmp");
        let dst = store.dir().join("tenants.tsv");
        let ok = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(body.as_bytes()).and_then(|()| f.sync_all()))
            .and_then(|()| std::fs::rename(&tmp, &dst));
        let _ = ok;
    }

    fn stale_serve(
        &self,
        cell: &TenantCell,
        tenant: &str,
        reason: &str,
        start_us: u64,
    ) -> QueryResponse {
        // Stale serves still cost a tick: simulated time must advance or
        // an open breaker's window would never elapse under a pure
        // query load.
        self.tick(SERVICE_TICK_US);
        let snap = cell.snapshot.lock();
        let lag = cell
            .applied_count
            .load(Ordering::Acquire)
            .saturating_sub(snap.version);
        let resp = QueryResponse {
            skyline: snap.points.clone(),
            stale: true,
            lag,
        };
        drop(snap);
        self.queries_stale.fetch_add(1, Ordering::Relaxed);
        let (t, r) = (tenant.to_string(), reason.to_string());
        self.tracer.emit(move || EventKind::StaleServed {
            tenant: t,
            reason: r,
            lag,
        });
        self.trace_request(tenant, "query", "stale", start_us, 0);
        resp
    }

    /// Serves the tenant's skyline. Fresh when the path is healthy;
    /// degrades to the last consistent snapshot (marked `stale`) when
    /// the query breaker is open or a deletion repair is in flight.
    ///
    /// # Errors
    ///
    /// [`ServeError::RetriesExhausted`] or
    /// [`ServeError::DeadlineExceeded`] when transient faults outlast
    /// the budgets *and* no snapshot degradation applies.
    pub fn query(&self, tenant: &str) -> Result<QueryResponse, ServeError> {
        let start_us = self.now_us();
        let cell = {
            let g = self.tenants.lock();
            g.get(tenant).map(Arc::clone)
        };
        let Some(cell) = cell else {
            // Unknown tenant: an empty skyline is a correct fresh answer.
            self.queries_fresh.fetch_add(1, Ordering::Relaxed);
            self.tick(SERVICE_TICK_US);
            self.trace_request(tenant, "query", "ok", start_us, 1);
            return Ok(QueryResponse {
                skyline: Vec::new(),
                stale: false,
                lag: 0,
            });
        };

        if cell.repairing.load(Ordering::Acquire) {
            return Ok(self.stale_serve(&cell, tenant, "repair-in-flight", start_us));
        }

        let now = self.now_us();
        let (admission, transition) = cell.query_breaker.try_admit(now);
        if let Some(t) = transition {
            self.trace_transition(tenant, "query", t);
        }
        let probe = match admission {
            Admission::Reject => {
                self.breaker_rejected.fetch_add(1, Ordering::Relaxed);
                return Ok(self.stale_serve(&cell, tenant, "breaker-open", start_us));
            }
            Admission::Probe => true,
            Admission::Allow => false,
        };

        let qseq = cell.query_seq.fetch_add(1, Ordering::AcqRel);
        let mut attempts = 0u32;
        loop {
            let attempt = attempts;
            attempts += 1;
            self.tick(SERVICE_TICK_US);
            match self
                .plan
                .decide(FaultSite::ServeQuery, tenant, qseq, attempt)
            {
                None => break,
                Some(_) => {
                    if attempts >= self.retry_budget() {
                        if let Some(t) = cell.query_breaker.on_failure(self.now_us(), probe) {
                            self.trace_transition(tenant, "query", t);
                        }
                        self.retries_exhausted.fetch_add(1, Ordering::Relaxed);
                        self.trace_request(tenant, "query", "rejected-retries", start_us, attempts);
                        return Err(ServeError::RetriesExhausted {
                            tenant: tenant.to_string(),
                            op: "query".to_string(),
                            attempts,
                        });
                    }
                    let seed = self.plan.seed ^ fold(tenant) ^ qseq ^ 0x71_75_65_72_79;
                    let delay = self.plan.backoff.jittered_delay_seconds(attempt, seed);
                    self.tick((delay * 1e6) as u64);
                    let elapsed = (self.now_us().saturating_sub(start_us)) as f64 / 1e6;
                    if elapsed > self.cfg.deadline_seconds {
                        if let Some(t) = cell.query_breaker.on_failure(self.now_us(), probe) {
                            self.trace_transition(tenant, "query", t);
                        }
                        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        self.trace_request(
                            tenant,
                            "query",
                            "rejected-deadline",
                            start_us,
                            attempts,
                        );
                        return Err(ServeError::DeadlineExceeded {
                            tenant: tenant.to_string(),
                            op: "query".to_string(),
                            budget_seconds: self.cfg.deadline_seconds,
                        });
                    }
                }
            }
        }

        let applied = cell.applied_count.load(Ordering::Acquire);
        let skyline = {
            let engine = cell.engine.lock();
            let sky = engine
                .as_ref()
                .map_or_else(Vec::new, |e| e.global_skyline().to_vec());
            let mut snap = cell.snapshot.lock();
            snap.points = sky.clone();
            snap.version = applied;
            sky
        };
        if let Some(t) = cell.query_breaker.on_success(probe) {
            self.trace_transition(tenant, "query", t);
        }
        self.queries_fresh.fetch_add(1, Ordering::Relaxed);
        self.trace_request(tenant, "query", "ok", start_us, attempts);
        Ok(QueryResponse {
            skyline,
            stale: false,
            lag: 0,
        })
    }
}

/// FNV-folds a tenant name into a jitter-seed contribution.
fn fold(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Reads `tenants.tsv` sidecar marks: `index -> (name, applied_seq,
/// applied_count)`. Missing or malformed files yield an empty map (a
/// fresh service).
fn read_tenant_marks(dir: &std::path::Path) -> BTreeMap<u64, (String, u64, u64)> {
    let Ok(text) = std::fs::read_to_string(dir.join("tenants.tsv")) else {
        return BTreeMap::new();
    };
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split('\t');
        let (Some(idx), Some(name), Some(seq), Some(count)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let (Ok(idx), Ok(seq), Ok(count)) =
            (idx.parse::<u64>(), seq.parse::<u64>(), count.parse::<u64>())
        else {
            continue;
        };
        out.insert(idx, (name.to_string(), seq, count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsky_chaos::SiteRule;

    fn svc(plan: FaultPlan) -> SkylineService {
        SkylineService::new(ServeConfig::default(), plan, Tracer::in_memory())
    }

    fn insert(id: u64, coords: &[f64]) -> Mutation {
        Mutation::Insert {
            id,
            coords: coords.to_vec(),
        }
    }

    #[test]
    fn inserts_deletes_and_queries_flow_fault_free() {
        let s = svc(FaultPlan::off());
        s.apply("acme", 1, &insert(1, &[1.0, 5.0])).expect("insert");
        s.apply("acme", 2, &insert(2, &[5.0, 1.0])).expect("insert");
        s.apply("acme", 3, &insert(3, &[4.0, 6.0])).expect("insert");
        let q = s.query("acme").expect("query");
        assert!(!q.stale);
        let ids: Vec<u64> = q.skyline.iter().map(Point::id).collect();
        assert_eq!(ids, vec![1, 2]);
        // deleting a skyline point recomputes its partition
        let r = s
            .apply("acme", 4, &Mutation::Delete { id: 1 })
            .expect("delete");
        assert_eq!(r.promoted, 1, "point 3 promoted by the repair");
        let ids: Vec<u64> = s
            .query("acme")
            .expect("query")
            .skyline
            .iter()
            .map(Point::id)
            .collect();
        assert_eq!(ids, vec![2, 3]);
        let stats = s.stats();
        assert_eq!(stats.mutations_ok, 4);
        assert_eq!(stats.repairs, 1);
        assert_eq!(stats.skyband.repairs_from_buffer, 1);
    }

    #[test]
    fn replayed_sequence_numbers_are_skipped() {
        let s = svc(FaultPlan::off());
        s.apply("t", 1, &insert(1, &[1.0, 1.0])).expect("insert");
        let r = s
            .apply("t", 1, &insert(1, &[9.0, 9.0]))
            .expect("replay ack");
        assert!(r.replayed);
        // the replay did not overwrite the original point
        let q = s.query("t").expect("query");
        assert_eq!(q.skyline[0].coords(), &[1.0, 1.0]);
    }

    #[test]
    fn poison_payload_dead_letters_with_typed_error() {
        let s = svc(FaultPlan::off());
        let err = s
            .apply("t", 1, &insert(1, &[f64::NAN, 1.0]))
            .expect_err("NaN payload must dead-letter");
        assert!(matches!(err, ServeError::PoisonMutation { .. }));
        assert_eq!(s.dead_letter_len(), 1);
        assert_eq!(s.stats().dead_lettered, 1);
        // the tenant's live set is untouched
        assert!(s.query("t").expect("query").skyline.is_empty());
    }

    #[test]
    fn dead_letter_queue_keeps_at_most_its_budget() {
        let cfg = ServeConfig {
            max_dead_letters: 3,
            ..ServeConfig::default()
        };
        let s = SkylineService::new(cfg, FaultPlan::off(), Tracer::in_memory());
        for seq in 1..=9 {
            let err = s
                .apply("t", seq, &insert(seq, &[f64::NAN, 1.0]))
                .expect_err("NaN payload must dead-letter");
            assert!(matches!(err, ServeError::PoisonMutation { .. }));
            assert!(s.dead_letter_len() <= 3, "seq {seq}");
        }
        assert_eq!(s.dead_letter_len(), 3);
        assert_eq!(s.stats().dead_lettered, 9);
        let report = s.dead_letter_report();
        assert!(
            report.starts_with(
                "dead-letter report: 9 record(s) quarantined (budget 3), 6 oldest dropped\n"
            ),
            "{report}"
        );
        assert!(report.contains("  t:9: "), "{report}");
        assert!(!report.contains("  t:6: "), "{report}");
    }

    #[test]
    fn injected_poison_row_fault_dead_letters() {
        let mut plan = FaultPlan::off();
        plan.max_attempts = 4;
        plan.rules.push(SiteRule {
            site: FaultSite::ServeMutation,
            kind: FaultKind::PoisonRow,
            permille: 1000,
        });
        let s = svc(plan);
        let err = s
            .apply("t", 1, &insert(1, &[1.0, 1.0]))
            .expect_err("poisoned");
        assert!(matches!(err, ServeError::PoisonMutation { .. }));
        assert_eq!(s.dead_letter_len(), 1);
    }

    #[test]
    fn transient_faults_retry_to_success_and_charge_backoff() {
        let mut plan = FaultPlan::off();
        plan.max_attempts = 6;
        plan.rules.push(SiteRule {
            site: FaultSite::ServeMutation,
            kind: FaultKind::TransientError,
            permille: 400,
        });
        let s = svc(plan);
        let mut retried = 0u32;
        for seq in 1..=40u64 {
            let r = s
                .apply("t", seq, &insert(seq, &[seq as f64, 41.0 - seq as f64]))
                .expect("plan converges within its budget");
            retried += u32::from(r.attempts > 1);
        }
        assert!(retried > 0, "some mutation should have retried");
        assert!(
            s.now_us() > 40 * SERVICE_TICK_US,
            "backoff charged sim time"
        );
        assert_eq!(s.stats().mutations_ok, 40);
    }

    #[test]
    fn breaker_opens_under_sustained_faults_then_recovers() {
        // Every query attempt faults, and one 10s backoff charge blows
        // the 5s deadline — so each query fails, two failures trip the
        // breaker, and subsequent queries degrade to the snapshot.
        let mut plan = FaultPlan::off();
        plan.max_attempts = 8;
        plan.backoff.base_seconds = 10.0;
        plan.rules.push(SiteRule {
            site: FaultSite::ServeQuery,
            kind: FaultKind::TransientError,
            permille: 1000,
        });
        let cfg = ServeConfig {
            deadline_seconds: 5.0,
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_seconds: 1.0,
                half_open_probes: 1,
            },
            ..ServeConfig::default()
        };
        let s = SkylineService::new(cfg, plan, Tracer::in_memory());
        s.apply("t", 1, &insert(1, &[1.0, 2.0])).expect("insert ok");
        // two failing queries trip the query breaker
        for _ in 0..2 {
            let err = s.query("t").expect_err("faults blow the deadline");
            assert!(matches!(err, ServeError::DeadlineExceeded { .. }));
        }
        assert_eq!(s.stats().breaker_opens, 1);
        // while open, queries degrade to the stale snapshot
        let q = s.query("t").expect("degraded");
        assert!(q.stale);
        assert_eq!(q.skyline.len(), 1, "last consistent snapshot served");
        assert!(s.stats().queries_stale >= 1);
    }

    #[test]
    fn admission_gate_sheds_with_typed_overloaded() {
        let cfg = ServeConfig {
            admission: AdmissionConfig {
                max_in_flight: 0,
                max_queue_depth: 0,
            },
            ..ServeConfig::default()
        };
        let s = SkylineService::new(cfg, FaultPlan::off(), Tracer::in_memory());
        let err = s.apply("t", 1, &insert(1, &[1.0])).expect_err("gate full");
        assert!(matches!(err, ServeError::Overloaded { .. }));
        assert_eq!(s.stats().shed, 1);
    }

    #[test]
    fn checkpoint_restore_resumes_with_replay_skips() {
        let dir = std::env::temp_dir().join(format!(
            "mrsky-serve-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            checkpoint_every: 2,
            ..ServeConfig::default()
        };
        let store = CheckpointStore::open(&dir).expect("open store");
        let s = SkylineService::new(cfg.clone(), FaultPlan::off(), Tracer::in_memory())
            .with_store(store)
            .expect("attach store");
        for seq in 1..=6u64 {
            s.apply("t", seq, &insert(seq, &[seq as f64, 7.0 - seq as f64]))
                .expect("insert");
        }
        assert!(s.stats().checkpoints >= 3);
        let before = s.query("t").expect("query").skyline;
        drop(s);

        // "crash": rebuild from the store, replay the whole log
        let store = CheckpointStore::open(&dir).expect("reopen store");
        let s2 = SkylineService::new(cfg, FaultPlan::off(), Tracer::in_memory())
            .with_store(store)
            .expect("restore");
        let mut replays = 0;
        for seq in 1..=6u64 {
            let r = s2
                .apply("t", seq, &insert(seq, &[seq as f64, 7.0 - seq as f64]))
                .expect("replay");
            replays += u64::from(r.replayed);
        }
        assert_eq!(replays, 6, "every checkpointed mutation skips on replay");
        let after = s2.query("t").expect("query").skyline;
        assert_eq!(before, after, "restored skyline is bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_ragged_tenant_checkpoint_is_invalid_data() {
        let dir = std::env::temp_dir().join(format!("mrsky-serve-ragged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open store");
        let ragged = [Point::new(1, vec![1.0, 2.0]), Point::new(2, vec![1.0])];
        store.write_partition(0, &ragged).expect("write");
        std::fs::write(dir.join("tenants.tsv"), "0\tt\t2\t2\n").expect("marks");
        let restored = SkylineService::new(
            ServeConfig::default(),
            FaultPlan::off(),
            Tracer::in_memory(),
        )
        .with_store(store);
        assert!(matches!(restored, Err(e) if e.kind() == std::io::ErrorKind::InvalidData));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dimension_mismatch_is_a_typed_invalid_rejection() {
        let s = svc(FaultPlan::off());
        s.apply("t", 1, &insert(1, &[1.0, 2.0])).expect("insert");
        let err = s.apply("t", 2, &insert(2, &[1.0])).expect_err("bad dim");
        assert!(matches!(err, ServeError::Skyline(_)));
        assert_eq!(err.outcome(), "rejected-invalid");
    }
}
