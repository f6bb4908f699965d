//! The structured event model: typed [`TraceEvent`]s with monotonic
//! sequence numbers and both wall-clock and sim-clock timestamps.
//!
//! Every event serializes to one flat JSON object (one line of a JSONL
//! trace) with a `type` discriminant, and parses back losslessly — the
//! round-trip is what the CI schema check and the `mrsky trace` replay
//! subcommand rely on. The taxonomy mirrors the layers it instruments:
//!
//! | family | events |
//! |---|---|
//! | job | `job_started`, `job_finished` |
//! | phase | `phase_started`, `phase_finished` |
//! | task lifecycle | `task_retried`, `task_finished`, `task_stolen` |
//! | shuffle / memory | `shuffle_partition`, `phase_peak_memory` |
//! | causality | `causal_edge` |
//! | skyline | `kernel_run`, `partition_local_skyline` |
//! | early pruning | `rows_filtered`, `sector_pruned` |
//! | chaos / recovery | `fault_injected`, `task_retry_exhausted`, `checkpoint_written`, `checkpoint_restored`, `run_resumed` |
//! | generic spans | `span_begin`, `span_end` |
//!
//! Types the schema no longer emits are listed in [`RETIRED_EVENT_TYPES`];
//! [`parse_jsonl`](crate::parse_jsonl) skips their lines, and unknown extra
//! fields on live types are ignored, so older traces still load.

use crate::json::{self, JsonValue};
use std::fmt::Write as _;

/// Which of the two MapReduce phases an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhaseKind {
    /// The map phase.
    Map,
    /// The reduce phase (shuffle folded in, Hadoop-style).
    Reduce,
}

impl PhaseKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            PhaseKind::Map => "map",
            PhaseKind::Reduce => "reduce",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<PhaseKind> {
        match s {
            "map" => Some(PhaseKind::Map),
            "reduce" => Some(PhaseKind::Reduce),
            _ => None,
        }
    }
}

impl std::fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One trace event, stamped by the [`Tracer`](crate::Tracer).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number (strictly increasing within one trace).
    pub seq: u64,
    /// Wall-clock microseconds since the tracer's epoch.
    pub wall_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The typed payload of a [`TraceEvent`].
///
/// Simulated timestamps (`sim*` fields) are in simulated seconds on the
/// emitting job's clock, which starts at 0 per job; the Chrome exporter
/// re-bases chained jobs onto one global axis.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A MapReduce job was submitted.
    JobStarted {
        /// Job name.
        job: String,
    },
    /// A MapReduce job completed.
    JobFinished {
        /// Job name.
        job: String,
        /// Simulated end-to-end seconds (overhead + phases).
        sim_total: f64,
        /// Host wall-clock seconds spent executing.
        wall_seconds: f64,
    },
    /// A phase's schedule was fixed.
    PhaseStarted {
        /// Job name.
        job: String,
        /// Which phase.
        phase: PhaseKind,
        /// Task count in the phase.
        tasks: u64,
        /// Simulated phase start.
        sim: f64,
    },
    /// A phase's last task finished.
    PhaseFinished {
        /// Job name.
        job: String,
        /// Which phase.
        phase: PhaseKind,
        /// Simulated phase end.
        sim: f64,
    },
    /// A task attempt failed and was re-run (injected failure model).
    TaskRetried {
        /// Job name.
        job: String,
        /// Which phase.
        phase: PhaseKind,
        /// Task index within the phase.
        task: u64,
        /// 1-based retry number (first retry = 1).
        attempt: u64,
    },
    /// A task completed (at its last attempt's end).
    TaskFinished {
        /// Job name.
        job: String,
        /// Which phase.
        phase: PhaseKind,
        /// Task index within the phase.
        task: u64,
        /// Cluster slot the task ran on.
        slot: u64,
        /// Simulated start.
        sim_start: f64,
        /// Simulated end.
        sim_end: f64,
    },
    /// A work-stealing handoff during real execution: a dry worker stole a
    /// task from the back of a victim worker's deque and ran it itself.
    /// Worker ids are host-pool thread indices, not simulated slots.
    TaskStolen {
        /// Job name.
        job: String,
        /// Which phase.
        phase: PhaseKind,
        /// Task index within the phase.
        task: u64,
        /// Worker thread that stole and executed the task.
        thief: u64,
        /// Worker thread whose deque the task was seeded into.
        victim: u64,
    },
    /// An explicit happens-before edge between two nodes of the causal DAG.
    ///
    /// Node ids follow a stable grammar: `job:{name}`,
    /// `phase:{job}/{map|reduce}`, and `task:{job}/{phase}/{index}`. Edge
    /// kinds: `dispatch` (phase start → first task on a slot), `slot` (a
    /// slot's previous task → its next), `barrier` (map phase → reduce
    /// phase), `shuffle` (contributing map task → reduce task), and
    /// `chain` (job → the next job in a chained pipeline).
    CausalEdge {
        /// Edge kind (`dispatch`, `slot`, `barrier`, `shuffle`, `chain`).
        edge: String,
        /// Source node id (the happens-before side).
        src: String,
        /// Destination node id (the happens-after side).
        dst: String,
    },
    /// One reduce task's shuffle fetch summary.
    ShufflePartition {
        /// Job name.
        job: String,
        /// Reduce task index.
        reducer: u64,
        /// Bytes fetched.
        bytes: u64,
        /// Records fetched.
        records: u64,
        /// Map-output segments fetched (contributing map tasks).
        segments: u64,
    },
    /// High-water mark of one phase's resident data during real execution:
    /// buffered map output for the map phase, shuffled reduce input for the
    /// reduce phase (wire-accounted logical bytes, not allocator bytes).
    PhasePeakMemory {
        /// Job name.
        job: String,
        /// Which phase's plateau.
        phase: PhaseKind,
        /// Peak concurrent resident bytes.
        peak_bytes: u64,
    },
    /// One skyline kernel invocation (local computation or merge).
    KernelRun {
        /// Kernel name (`bnl`, `sfs`, `salsa`, `presort-merge`).
        /// Under `--kernel auto` this is the kernel the selector chose for
        /// the block, never the literal `auto`.
        kernel: String,
        /// Input cardinality.
        input: u64,
        /// Output (skyline) cardinality.
        output: u64,
        /// Pairwise dominance comparisons performed.
        comparisons: u64,
        /// Passes over the input (BNL window overflow model).
        passes: u64,
        /// Tracer-clock time the kernel took, in microseconds (`0` in
        /// traces written before this field existed, and under simulated
        /// clocks that do not advance inside a task).
        elapsed_us: u64,
    },
    /// A partition's local skyline was computed (or the partition pruned).
    PartitionLocalSkyline {
        /// Partition id.
        partition: u64,
        /// Points routed into the partition.
        input: u64,
        /// Local skyline size (0 for pruned partitions).
        output: u64,
        /// Whether dominated-cell pruning skipped the kernel entirely.
        pruned: bool,
        /// Name of the kernel that computed this partition (`pruned` when
        /// the partition was skipped; empty in traces written before this
        /// field existed).
        kernel: String,
    },
    /// Map-side filter-point sweep summary: how many shuffle candidates the
    /// broadcast filter block absorbed before they were shuffled.
    RowsFiltered {
        /// Rows entering the map-side sweep.
        input: u64,
        /// Rows dropped because a filter point dominates them.
        filtered: u64,
    },
    /// A partition was skipped by witness-based sector pruning (its best
    /// reachable corner is dominated by a filter point living elsewhere).
    SectorPruned {
        /// Partition id.
        partition: u64,
        /// Points routed into the pruned partition.
        points: u64,
    },
    /// A chaos fault fired at a named injection site.
    FaultInjected {
        /// Injection site wire name (`map-task`, `dfs-read`, ...).
        site: String,
        /// Fault kind wire name (`panic`, `transient-error`, ...).
        fault: String,
        /// Scope the fault fired in (job name, file path, ...).
        scope: String,
        /// Operation index within the scope (chunk, task, row, ...).
        index: u64,
        /// 0-based attempt the fault hit.
        attempt: u64,
    },
    /// A retried operation ran out of its retry budget.
    TaskRetryExhausted {
        /// Injection site wire name.
        site: String,
        /// Scope the operation ran in.
        scope: String,
        /// Operation index within the scope.
        index: u64,
        /// Attempts consumed before giving up.
        attempts: u64,
    },
    /// A partition's local skyline was checkpointed to durable storage.
    CheckpointWritten {
        /// Partition id.
        partition: u64,
        /// Local skyline cardinality persisted.
        points: u64,
    },
    /// A resumed run restored a partition's local skyline from a
    /// checkpoint instead of recomputing it.
    CheckpointRestored {
        /// Partition id.
        partition: u64,
        /// Local skyline cardinality restored.
        points: u64,
    },
    /// One serving-layer request (mutation or query) completed with a
    /// definite outcome — every request emits exactly one of these, so
    /// the summary's request accounting is total (no silent drops).
    Request {
        /// Tenant the request targeted.
        tenant: String,
        /// Operation wire name (`insert`, `delete`, `query`).
        op: String,
        /// Outcome wire name (`ok`, `stale`, `rejected`, `dead-letter`).
        outcome: String,
        /// Simulated seconds spent serving, including retry backoff.
        sim_latency: f64,
        /// Attempts consumed (1 = first try succeeded).
        attempts: u64,
    },
    /// A per-tenant/operation circuit breaker changed state.
    BreakerTransition {
        /// Tenant whose breaker moved.
        tenant: String,
        /// Operation class guarded (`mutation`, `query`).
        op: String,
        /// State left (`closed`, `open`, `half-open`).
        from: String,
        /// State entered.
        to: String,
    },
    /// Admission control shed a request instead of queueing it unbounded.
    Shed {
        /// Tenant whose request was shed.
        tenant: String,
        /// Operation class (`mutation`, `query`).
        op: String,
        /// Why it was shed (`in-flight-limit`, `queue-depth`).
        reason: String,
        /// Queue depth observed at the shed decision.
        depth: u64,
    },
    /// A deletion of a local-skyline member recomputed its partition and
    /// re-merged the tenant's live skyline.
    Repair {
        /// Tenant whose skyline was repaired.
        tenant: String,
        /// Points promoted into the skyline by this repair.
        promoted: u64,
    },
    /// A snapshot query was answered from the last consistent skyline
    /// while the breaker was open or a repair was in flight.
    StaleServed {
        /// Tenant served stale.
        tenant: String,
        /// Why the live skyline was unavailable (`breaker-open`,
        /// `repair-in-flight`).
        reason: String,
        /// Mutations accepted since the served snapshot was taken.
        lag: u64,
    },
    /// A resilient driver recovered from a simulated crash and is
    /// re-running with resume semantics. Everything left open by the
    /// killed run (jobs, phases, spans) is abandoned; the validator
    /// resets its accounting at this marker.
    RunResumed {
        /// 1-based retry attempt this resume starts.
        run: u64,
    },
    /// Generic span open (driver-level stages: fit, audit, pipeline...).
    SpanBegin {
        /// Span name; must match the closing [`EventKind::SpanEnd`].
        name: String,
    },
    /// Generic span close.
    SpanEnd {
        /// Span name.
        name: String,
    },
}

impl EventKind {
    /// The stable `type` discriminant used on the wire.
    pub fn type_name(&self) -> &'static str {
        match self {
            EventKind::JobStarted { .. } => "job_started",
            EventKind::JobFinished { .. } => "job_finished",
            EventKind::PhaseStarted { .. } => "phase_started",
            EventKind::PhaseFinished { .. } => "phase_finished",
            EventKind::TaskRetried { .. } => "task_retried",
            EventKind::TaskFinished { .. } => "task_finished",
            EventKind::TaskStolen { .. } => "task_stolen",
            EventKind::CausalEdge { .. } => "causal_edge",
            EventKind::ShufflePartition { .. } => "shuffle_partition",
            EventKind::PhasePeakMemory { .. } => "phase_peak_memory",
            EventKind::KernelRun { .. } => "kernel_run",
            EventKind::PartitionLocalSkyline { .. } => "partition_local_skyline",
            EventKind::RowsFiltered { .. } => "rows_filtered",
            EventKind::SectorPruned { .. } => "sector_pruned",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::TaskRetryExhausted { .. } => "task_retry_exhausted",
            EventKind::CheckpointWritten { .. } => "checkpoint_written",
            EventKind::CheckpointRestored { .. } => "checkpoint_restored",
            EventKind::Request { .. } => "request",
            EventKind::BreakerTransition { .. } => "breaker_transition",
            EventKind::Shed { .. } => "shed",
            EventKind::Repair { .. } => "repair",
            EventKind::StaleServed { .. } => "stale_served",
            EventKind::RunResumed { .. } => "run_resumed",
            EventKind::SpanBegin { .. } => "span_begin",
            EventKind::SpanEnd { .. } => "span_end",
        }
    }
}

/// Wire names of event types the schema no longer emits: the FIFO
/// scheduler's queue and launch markers (`task_finished` carries the slot
/// and start), the speculation and data-locality simulator modes' events,
/// the deleted streaming merge's overlap credit, the traced and
/// quarantining QWS loaders' ingest markers, and the k-skyband buffer's
/// repair marker (`repair` replaced it). Traces written before
/// their retirement still load because [`parse_jsonl`](crate::parse_jsonl)
/// skips these lines.
pub const RETIRED_EVENT_TYPES: &[&str] = &[
    "task_scheduled",
    "task_launched",
    "task_speculated",
    "dfs_block_read",
    "merge_overlap",
    "ingest_started",
    "ingest_finished",
    "record_quarantined",
    "skyband_repair",
];

/// One serialized field value.
enum Field {
    U(u64),
    F(f64),
    B(bool),
    S(String),
}

impl Field {
    fn render(&self) -> String {
        match self {
            Field::U(v) => format!("{v}"),
            Field::F(v) => json::number(*v),
            Field::B(v) => format!("{v}"),
            Field::S(v) => format!("\"{}\"", json::escape(v)),
        }
    }
}

fn fields_of(kind: &EventKind) -> Vec<(&'static str, Field)> {
    use EventKind::*;
    use Field::*;
    match kind {
        JobStarted { job } => vec![("job", S(job.clone()))],
        JobFinished {
            job,
            sim_total,
            wall_seconds,
        } => vec![
            ("job", S(job.clone())),
            ("sim_total", F(*sim_total)),
            ("wall_seconds", F(*wall_seconds)),
        ],
        PhaseStarted {
            job,
            phase,
            tasks,
            sim,
        } => vec![
            ("job", S(job.clone())),
            ("phase", S(phase.as_str().into())),
            ("tasks", U(*tasks)),
            ("sim", F(*sim)),
        ],
        PhaseFinished { job, phase, sim } => vec![
            ("job", S(job.clone())),
            ("phase", S(phase.as_str().into())),
            ("sim", F(*sim)),
        ],
        TaskRetried {
            job,
            phase,
            task,
            attempt,
        } => vec![
            ("job", S(job.clone())),
            ("phase", S(phase.as_str().into())),
            ("task", U(*task)),
            ("attempt", U(*attempt)),
        ],
        TaskFinished {
            job,
            phase,
            task,
            slot,
            sim_start,
            sim_end,
        } => vec![
            ("job", S(job.clone())),
            ("phase", S(phase.as_str().into())),
            ("task", U(*task)),
            ("slot", U(*slot)),
            ("sim_start", F(*sim_start)),
            ("sim_end", F(*sim_end)),
        ],
        TaskStolen {
            job,
            phase,
            task,
            thief,
            victim,
        } => vec![
            ("job", S(job.clone())),
            ("phase", S(phase.as_str().into())),
            ("task", U(*task)),
            ("thief", U(*thief)),
            ("victim", U(*victim)),
        ],
        CausalEdge { edge, src, dst } => vec![
            ("edge", S(edge.clone())),
            ("src", S(src.clone())),
            ("dst", S(dst.clone())),
        ],
        ShufflePartition {
            job,
            reducer,
            bytes,
            records,
            segments,
        } => vec![
            ("job", S(job.clone())),
            ("reducer", U(*reducer)),
            ("bytes", U(*bytes)),
            ("records", U(*records)),
            ("segments", U(*segments)),
        ],
        PhasePeakMemory {
            job,
            phase,
            peak_bytes,
        } => vec![
            ("job", S(job.clone())),
            ("phase", S(phase.as_str().into())),
            ("peak_bytes", U(*peak_bytes)),
        ],
        KernelRun {
            kernel,
            input,
            output,
            comparisons,
            passes,
            elapsed_us,
        } => vec![
            ("kernel", S(kernel.clone())),
            ("input", U(*input)),
            ("output", U(*output)),
            ("comparisons", U(*comparisons)),
            ("passes", U(*passes)),
            ("elapsed_us", U(*elapsed_us)),
        ],
        PartitionLocalSkyline {
            partition,
            input,
            output,
            pruned,
            kernel,
        } => vec![
            ("partition", U(*partition)),
            ("input", U(*input)),
            ("output", U(*output)),
            ("pruned", B(*pruned)),
            ("kernel", S(kernel.clone())),
        ],
        RowsFiltered { input, filtered } => {
            vec![("input", U(*input)), ("filtered", U(*filtered))]
        }
        SectorPruned { partition, points } => {
            vec![("partition", U(*partition)), ("points", U(*points))]
        }
        FaultInjected {
            site,
            fault,
            scope,
            index,
            attempt,
        } => vec![
            ("site", S(site.clone())),
            ("fault", S(fault.clone())),
            ("scope", S(scope.clone())),
            ("index", U(*index)),
            ("attempt", U(*attempt)),
        ],
        TaskRetryExhausted {
            site,
            scope,
            index,
            attempts,
        } => vec![
            ("site", S(site.clone())),
            ("scope", S(scope.clone())),
            ("index", U(*index)),
            ("attempts", U(*attempts)),
        ],
        CheckpointWritten { partition, points } => {
            vec![("partition", U(*partition)), ("points", U(*points))]
        }
        CheckpointRestored { partition, points } => {
            vec![("partition", U(*partition)), ("points", U(*points))]
        }
        Request {
            tenant,
            op,
            outcome,
            sim_latency,
            attempts,
        } => vec![
            ("tenant", S(tenant.clone())),
            ("op", S(op.clone())),
            ("outcome", S(outcome.clone())),
            ("sim_latency", F(*sim_latency)),
            ("attempts", U(*attempts)),
        ],
        BreakerTransition {
            tenant,
            op,
            from,
            to,
        } => vec![
            ("tenant", S(tenant.clone())),
            ("op", S(op.clone())),
            ("from", S(from.clone())),
            ("to", S(to.clone())),
        ],
        Shed {
            tenant,
            op,
            reason,
            depth,
        } => vec![
            ("tenant", S(tenant.clone())),
            ("op", S(op.clone())),
            ("reason", S(reason.clone())),
            ("depth", U(*depth)),
        ],
        Repair { tenant, promoted } => {
            vec![("tenant", S(tenant.clone())), ("promoted", U(*promoted))]
        }
        StaleServed {
            tenant,
            reason,
            lag,
        } => vec![
            ("tenant", S(tenant.clone())),
            ("reason", S(reason.clone())),
            ("lag", U(*lag)),
        ],
        RunResumed { run } => vec![("run", U(*run))],
        SpanBegin { name } => vec![("name", S(name.clone()))],
        SpanEnd { name } => vec![("name", S(name.clone()))],
    }
}

impl TraceEvent {
    /// Serializes the event as one flat JSON object (one JSONL line, no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"wall_us\":{},\"type\":\"{}\"",
            self.seq,
            self.wall_us,
            self.kind.type_name()
        );
        for (key, value) in fields_of(&self.kind) {
            let _ = write!(out, ",\"{}\":{}", key, value.render());
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line produced by [`TraceEvent::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation: malformed JSON,
    /// a missing/badly-typed field, or an unknown or retired `type`.
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        Self::from_json_or_retired(line)?.ok_or_else(|| "retired event type".to_string())
    }

    /// As [`TraceEvent::from_json`], but a well-formed line whose `type` is
    /// in [`RETIRED_EVENT_TYPES`] yields `Ok(None)` instead of an error.
    pub(crate) fn from_json_or_retired(line: &str) -> Result<Option<TraceEvent>, String> {
        let value = json::parse(line).map_err(|e| e.to_string())?;
        let seq = req_u64(&value, "seq")?;
        let wall_us = req_u64(&value, "wall_us")?;
        let ty = req_str(&value, "type")?;
        if RETIRED_EVENT_TYPES.contains(&ty.as_str()) {
            return Ok(None);
        }
        let kind = kind_from(&value, &ty)?;
        Ok(Some(TraceEvent { seq, wall_us, kind }))
    }
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn req_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
}

fn req_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("missing or non-boolean field `{key}`"))
}

fn req_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

/// Optional integer field with a default — for fields added to the schema
/// after traces in the wild were written. A *present but mistyped* value is
/// still a schema violation.
fn opt_u64(v: &JsonValue, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(_) => req_u64(v, key),
    }
}

/// Optional string field with a default; present-but-mistyped still errors.
fn opt_str(v: &JsonValue, key: &str, default: &str) -> Result<String, String> {
    match v.get(key) {
        None => Ok(default.to_string()),
        Some(_) => req_str(v, key),
    }
}

fn req_phase(v: &JsonValue, key: &str) -> Result<PhaseKind, String> {
    let s = req_str(v, key)?;
    PhaseKind::parse(&s).ok_or_else(|| format!("unknown phase `{s}`"))
}

fn kind_from(v: &JsonValue, ty: &str) -> Result<EventKind, String> {
    use EventKind::*;
    Ok(match ty {
        "job_started" => JobStarted {
            job: req_str(v, "job")?,
        },
        "job_finished" => JobFinished {
            job: req_str(v, "job")?,
            sim_total: req_f64(v, "sim_total")?,
            wall_seconds: req_f64(v, "wall_seconds")?,
        },
        "phase_started" => PhaseStarted {
            job: req_str(v, "job")?,
            phase: req_phase(v, "phase")?,
            tasks: req_u64(v, "tasks")?,
            sim: req_f64(v, "sim")?,
        },
        "phase_finished" => PhaseFinished {
            job: req_str(v, "job")?,
            phase: req_phase(v, "phase")?,
            sim: req_f64(v, "sim")?,
        },
        "task_retried" => TaskRetried {
            job: req_str(v, "job")?,
            phase: req_phase(v, "phase")?,
            task: req_u64(v, "task")?,
            attempt: req_u64(v, "attempt")?,
        },
        "task_finished" => TaskFinished {
            job: req_str(v, "job")?,
            phase: req_phase(v, "phase")?,
            task: req_u64(v, "task")?,
            slot: req_u64(v, "slot")?,
            sim_start: req_f64(v, "sim_start")?,
            sim_end: req_f64(v, "sim_end")?,
        },
        "task_stolen" => TaskStolen {
            job: req_str(v, "job")?,
            phase: req_phase(v, "phase")?,
            task: req_u64(v, "task")?,
            thief: req_u64(v, "thief")?,
            victim: req_u64(v, "victim")?,
        },
        "causal_edge" => CausalEdge {
            edge: req_str(v, "edge")?,
            src: req_str(v, "src")?,
            dst: req_str(v, "dst")?,
        },
        "shuffle_partition" => ShufflePartition {
            job: req_str(v, "job")?,
            reducer: req_u64(v, "reducer")?,
            bytes: req_u64(v, "bytes")?,
            records: req_u64(v, "records")?,
            segments: req_u64(v, "segments")?,
        },
        "phase_peak_memory" => PhasePeakMemory {
            job: req_str(v, "job")?,
            phase: req_phase(v, "phase")?,
            peak_bytes: req_u64(v, "peak_bytes")?,
        },
        "kernel_run" => KernelRun {
            kernel: req_str(v, "kernel")?,
            input: req_u64(v, "input")?,
            output: req_u64(v, "output")?,
            comparisons: req_u64(v, "comparisons")?,
            passes: req_u64(v, "passes")?,
            elapsed_us: opt_u64(v, "elapsed_us", 0)?,
        },
        "partition_local_skyline" => PartitionLocalSkyline {
            partition: req_u64(v, "partition")?,
            input: req_u64(v, "input")?,
            output: req_u64(v, "output")?,
            pruned: req_bool(v, "pruned")?,
            kernel: opt_str(v, "kernel", "")?,
        },
        "rows_filtered" => RowsFiltered {
            input: req_u64(v, "input")?,
            filtered: req_u64(v, "filtered")?,
        },
        "sector_pruned" => SectorPruned {
            partition: req_u64(v, "partition")?,
            points: req_u64(v, "points")?,
        },
        "fault_injected" => FaultInjected {
            site: req_str(v, "site")?,
            fault: req_str(v, "fault")?,
            scope: req_str(v, "scope")?,
            index: req_u64(v, "index")?,
            attempt: req_u64(v, "attempt")?,
        },
        "task_retry_exhausted" => TaskRetryExhausted {
            site: req_str(v, "site")?,
            scope: req_str(v, "scope")?,
            index: req_u64(v, "index")?,
            attempts: req_u64(v, "attempts")?,
        },
        "checkpoint_written" => CheckpointWritten {
            partition: req_u64(v, "partition")?,
            points: req_u64(v, "points")?,
        },
        "checkpoint_restored" => CheckpointRestored {
            partition: req_u64(v, "partition")?,
            points: req_u64(v, "points")?,
        },
        "request" => Request {
            tenant: req_str(v, "tenant")?,
            op: req_str(v, "op")?,
            outcome: req_str(v, "outcome")?,
            sim_latency: req_f64(v, "sim_latency")?,
            attempts: req_u64(v, "attempts")?,
        },
        "breaker_transition" => BreakerTransition {
            tenant: req_str(v, "tenant")?,
            op: req_str(v, "op")?,
            from: req_str(v, "from")?,
            to: req_str(v, "to")?,
        },
        "shed" => Shed {
            tenant: req_str(v, "tenant")?,
            op: req_str(v, "op")?,
            reason: req_str(v, "reason")?,
            depth: req_u64(v, "depth")?,
        },
        "repair" => Repair {
            tenant: req_str(v, "tenant")?,
            promoted: req_u64(v, "promoted")?,
        },
        "stale_served" => StaleServed {
            tenant: req_str(v, "tenant")?,
            reason: req_str(v, "reason")?,
            lag: req_u64(v, "lag")?,
        },
        "run_resumed" => RunResumed {
            run: req_u64(v, "run")?,
        },
        "span_begin" => SpanBegin {
            name: req_str(v, "name")?,
        },
        "span_end" => SpanEnd {
            name: req_str(v, "name")?,
        },
        other => return Err(format!("unknown event type `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<EventKind> {
        use EventKind::*;
        vec![
            JobStarted { job: "j1".into() },
            JobFinished {
                job: "j1".into(),
                sim_total: 12.5,
                wall_seconds: 0.25,
            },
            PhaseStarted {
                job: "j1".into(),
                phase: PhaseKind::Map,
                tasks: 8,
                sim: 0.0,
            },
            PhaseFinished {
                job: "j1".into(),
                phase: PhaseKind::Reduce,
                sim: 9.0,
            },
            TaskRetried {
                job: "j1".into(),
                phase: PhaseKind::Reduce,
                task: 0,
                attempt: 2,
            },
            TaskFinished {
                job: "j\"quoted\"".into(),
                phase: PhaseKind::Map,
                task: 3,
                slot: 5,
                sim_start: 1.5,
                sim_end: 2.75,
            },
            TaskStolen {
                job: "j1".into(),
                phase: PhaseKind::Map,
                task: 9,
                thief: 2,
                victim: 0,
            },
            CausalEdge {
                edge: "shuffle".into(),
                src: "task:j1/map/3".into(),
                dst: "task:j1/reduce/0".into(),
            },
            ShufflePartition {
                job: "j1".into(),
                reducer: 2,
                bytes: 1024,
                records: 77,
                segments: 4,
            },
            PhasePeakMemory {
                job: "j1".into(),
                phase: PhaseKind::Reduce,
                peak_bytes: 1_048_576,
            },
            KernelRun {
                kernel: "bnl".into(),
                input: 100,
                output: 12,
                comparisons: 4321,
                passes: 2,
                elapsed_us: 750,
            },
            PartitionLocalSkyline {
                partition: 9,
                input: 50,
                output: 6,
                pruned: false,
                kernel: "salsa".into(),
            },
            RowsFiltered {
                input: 1600,
                filtered: 900,
            },
            SectorPruned {
                partition: 5,
                points: 120,
            },
            FaultInjected {
                site: "map-task".into(),
                fault: "panic".into(),
                scope: "local-skylines".into(),
                index: 4,
                attempt: 1,
            },
            TaskRetryExhausted {
                site: "shuffle-fetch".into(),
                scope: "merge".into(),
                index: 2,
                attempts: 4,
            },
            CheckpointWritten {
                partition: 11,
                points: 42,
            },
            CheckpointRestored {
                partition: 11,
                points: 42,
            },
            Request {
                tenant: "t0".into(),
                op: "insert".into(),
                outcome: "ok".into(),
                sim_latency: 0.125,
                attempts: 2,
            },
            BreakerTransition {
                tenant: "t0".into(),
                op: "mutation".into(),
                from: "closed".into(),
                to: "open".into(),
            },
            Shed {
                tenant: "t1".into(),
                op: "mutation".into(),
                reason: "queue-depth".into(),
                depth: 64,
            },
            Repair {
                tenant: "t0".into(),
                promoted: 3,
            },
            StaleServed {
                tenant: "t0".into(),
                reason: "breaker-open".into(),
                lag: 5,
            },
            RunResumed { run: 2 },
            SpanBegin { name: "fit".into() },
            SpanEnd { name: "fit".into() },
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        for (i, kind) in samples().into_iter().enumerate() {
            let ev = TraceEvent {
                seq: i as u64,
                wall_us: 1000 + i as u64,
                kind,
            };
            let line = ev.to_json();
            let back = TraceEvent::from_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn parse_rejects_missing_fields() {
        assert!(TraceEvent::from_json(r#"{"seq":0,"wall_us":0,"type":"task_finished"}"#).is_err());
        assert!(TraceEvent::from_json(r#"{"seq":0,"type":"job_started","job":"x"}"#).is_err());
        assert!(TraceEvent::from_json(r#"{"seq":0,"wall_us":0,"type":"nope"}"#).is_err());
        assert!(TraceEvent::from_json("not json").is_err());
    }

    #[test]
    fn parse_accepts_pre_kernel_schema_traces() {
        // Traces written before `elapsed_us` / `kernel` existed must still
        // parse, with the documented defaults.
        let kr = TraceEvent::from_json(
            r#"{"seq":0,"wall_us":0,"type":"kernel_run","kernel":"bnl","input":9,"output":3,"comparisons":12,"passes":1}"#,
        )
        .unwrap();
        assert!(
            matches!(kr.kind, EventKind::KernelRun { elapsed_us: 0, .. }),
            "{kr:?}"
        );
        let pls = TraceEvent::from_json(
            r#"{"seq":1,"wall_us":0,"type":"partition_local_skyline","partition":2,"input":9,"output":3,"pruned":false}"#,
        )
        .unwrap();
        assert!(
            matches!(&pls.kind, EventKind::PartitionLocalSkyline { kernel, .. } if kernel.is_empty()),
            "{pls:?}"
        );
        // present-but-mistyped is still a schema violation
        assert!(TraceEvent::from_json(
            r#"{"seq":2,"wall_us":0,"type":"kernel_run","kernel":"bnl","input":9,"output":3,"comparisons":12,"passes":1,"elapsed_us":"fast"}"#,
        )
        .is_err());
    }

    #[test]
    fn parse_rejects_bad_phase() {
        let line = r#"{"seq":0,"wall_us":0,"type":"task_retried","job":"j","phase":"combine","task":0,"attempt":1}"#;
        assert!(TraceEvent::from_json(line).is_err());
    }

    #[test]
    fn json_is_flat_single_line() {
        let ev = TraceEvent {
            seq: 1,
            wall_us: 2,
            kind: EventKind::JobStarted {
                job: "multi\nline".into(),
            },
        };
        assert!(!ev.to_json().contains('\n'));
    }
}
