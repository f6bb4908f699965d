//! Post-hoc trace analysis: schema validation for recorded streams and a
//! human-readable [`TraceSummary`] table (`mrsky trace --summary`).

use crate::event::{EventKind, PhaseKind, TraceEvent};
use crate::registry::Histogram;
use crate::sketch::QuantileSketch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Validates a recorded event stream against the schema invariants the
/// tracer guarantees:
///
/// 1. sequence numbers strictly increase,
/// 2. jobs and phases finish only after they start (and at most once),
/// 3. every generic span closes a matching open,
/// 4. each phase finishes exactly the task count it announced,
/// 5. a partition restored from a checkpoint is never *also* recomputed:
///    no `partition_local_skyline` may share a partition id with a
///    `checkpoint_restored` in the same run (this is how the resume
///    path proves it skipped finished partitions).
///
/// A `run_resumed` marker means a simulated crash tore the stream: every
/// job, phase, and span the killed run left open is considered abandoned
/// (not a violation), and the restored/recomputed bookkeeping restarts —
/// the killed run legitimately computed partitions the resumed run then
/// restores.
///
/// Returns every violation found (empty = valid).
pub fn validate_events(events: &[TraceEvent]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut last_seq: Option<u64> = None;
    let mut open_jobs: BTreeMap<String, ()> = BTreeMap::new();
    let mut open_phases: BTreeMap<(String, PhaseKind), u64> = BTreeMap::new();
    let mut finished_tasks: BTreeMap<(String, PhaseKind), u64> = BTreeMap::new();
    let mut open_spans: BTreeMap<String, u64> = BTreeMap::new();
    let mut restored_partitions: BTreeMap<u64, ()> = BTreeMap::new();
    let mut computed_partitions: BTreeMap<u64, ()> = BTreeMap::new();

    for ev in events {
        if let Some(prev) = last_seq {
            if ev.seq <= prev {
                errors.push(format!(
                    "seq not strictly increasing: {} after {}",
                    ev.seq, prev
                ));
            }
        }
        last_seq = Some(ev.seq);

        match &ev.kind {
            // side effects in the guards are intentional: the map updates
            // every time, the arm body only on the violation
            EventKind::JobStarted { job } if open_jobs.insert(job.clone(), ()).is_some() => {
                errors.push(format!("job `{job}` started twice (seq {})", ev.seq));
            }
            EventKind::JobFinished { job, .. } if open_jobs.remove(job).is_none() => {
                errors.push(format!(
                    "job `{job}` finished without starting (seq {})",
                    ev.seq
                ));
            }
            EventKind::PhaseStarted {
                job, phase, tasks, ..
            } => {
                if !open_jobs.contains_key(job) {
                    errors.push(format!(
                        "phase {phase} of `{job}` started outside its job (seq {})",
                        ev.seq
                    ));
                }
                if open_phases.insert((job.clone(), *phase), *tasks).is_some() {
                    errors.push(format!(
                        "phase {phase} of `{job}` started twice (seq {})",
                        ev.seq
                    ));
                }
            }
            EventKind::PhaseFinished { job, phase, .. } => {
                let key = (job.clone(), *phase);
                match open_phases.remove(&key) {
                    None => errors.push(format!(
                        "phase {phase} of `{job}` finished without starting (seq {})",
                        ev.seq
                    )),
                    Some(expected) => {
                        let finished = finished_tasks.get(&key).copied().unwrap_or(0);
                        if finished != expected {
                            errors.push(format!(
                                "phase {phase} of `{job}` announced {expected} tasks but finished {finished}"
                            ));
                        }
                    }
                }
            }
            EventKind::TaskFinished { job, phase, .. } => {
                let slot = finished_tasks.entry((job.clone(), *phase)).or_insert(0);
                *slot += 1;
            }
            EventKind::SpanBegin { name } => {
                *open_spans.entry(name.clone()).or_insert(0) += 1;
            }
            EventKind::SpanEnd { name } => match open_spans.get_mut(name) {
                Some(depth) if *depth > 0 => *depth -= 1,
                _ => errors.push(format!(
                    "span `{name}` closed without opening (seq {})",
                    ev.seq
                )),
            },
            EventKind::PartitionLocalSkyline { partition, .. } => {
                computed_partitions.insert(*partition, ());
            }
            EventKind::CheckpointRestored { partition, .. } => {
                restored_partitions.insert(*partition, ());
            }
            EventKind::RunResumed { .. } => {
                // Crash recovery: the killed run's open state is abandoned,
                // and its computed partitions are exactly what the resumed
                // run restores — reset instead of reporting them.
                open_jobs.clear();
                open_phases.clear();
                finished_tasks.clear();
                open_spans.clear();
                computed_partitions.clear();
                restored_partitions.clear();
            }
            EventKind::RowsFiltered { input, filtered } if filtered > input => {
                errors.push(format!(
                    "rows_filtered dropped {filtered} of only {input} rows (seq {})",
                    ev.seq
                ));
            }
            EventKind::MergeOverlap { seconds, .. } if !seconds.is_finite() || *seconds < 0.0 => {
                errors.push(format!(
                    "merge_overlap span {seconds} is not a non-negative finite duration (seq {})",
                    ev.seq
                ));
            }
            EventKind::CausalEdge { edge, src, dst } => {
                if edge.is_empty() || src.is_empty() || dst.is_empty() {
                    errors.push(format!("causal_edge with empty field (seq {})", ev.seq));
                } else if src == dst {
                    errors.push(format!(
                        "causal_edge `{edge}` is a self-loop on `{src}` (seq {})",
                        ev.seq
                    ));
                }
            }
            EventKind::TaskStolen { thief, victim, .. } if thief == victim => {
                errors.push(format!(
                    "task_stolen reports worker {thief} stealing from itself (seq {})",
                    ev.seq
                ));
            }
            _ => {}
        }
    }

    for partition in restored_partitions.keys() {
        if computed_partitions.contains_key(partition) {
            errors.push(format!(
                "partition {partition} was restored from a checkpoint but also recomputed"
            ));
        }
    }

    for job in open_jobs.keys() {
        errors.push(format!("job `{job}` never finished"));
    }
    for (job, phase) in open_phases.keys() {
        errors.push(format!("phase {phase} of `{job}` never finished"));
    }
    for (name, depth) in &open_spans {
        if *depth > 0 {
            errors.push(format!("span `{name}` left open {depth} time(s)"));
        }
    }
    errors
}

/// Aggregate view of one job's phase, built from task lifecycle events.
#[derive(Debug, Default, Clone)]
pub struct PhaseSummary {
    /// Tasks announced by `phase_started`.
    pub tasks: u64,
    /// `task_finished` events observed.
    pub finished: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Speculative backups that won.
    pub speculative_wins: u64,
    /// Tasks rebalanced by work stealing during real execution.
    pub steals: u64,
    /// Simulated phase span in seconds.
    pub sim_span: f64,
}

/// Aggregate view of one job.
#[derive(Debug, Default, Clone)]
pub struct JobSummary {
    /// Per-phase aggregates.
    pub phases: BTreeMap<PhaseKind, PhaseSummary>,
    /// Shuffle totals: bytes, records, segments.
    pub shuffle: (u64, u64, u64),
    /// Per-phase peak resident bytes (map = buffered map output, reduce =
    /// shuffled reduce input), maxed across `phase_peak_memory` events.
    pub peak_mem: BTreeMap<PhaseKind, u64>,
    /// DFS block reads: (local, remote).
    pub dfs_reads: (u64, u64),
    /// Simulated end-to-end seconds.
    pub sim_total: f64,
    /// Host wall-clock seconds.
    pub wall_seconds: f64,
}

/// Aggregate view of one kernel across all its invocations.
#[derive(Debug, Default, Clone)]
pub struct KernelSummary {
    /// Invocation count.
    pub calls: u64,
    /// Total input points.
    pub input: u64,
    /// Total output points.
    pub output: u64,
    /// Total passes over the input.
    pub passes: u64,
    /// Total tracer-clock kernel time in microseconds (0 for traces
    /// predating the `elapsed_us` field or simulated clocks).
    pub elapsed_us: u64,
    /// Dominance comparisons per invocation, log₂-bucketed.
    pub comparisons: Histogram,
}

/// Everything `mrsky trace --summary` reports, built from a trace stream.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    /// Per-job aggregates, in first-seen order semantics (BTreeMap by name).
    pub jobs: BTreeMap<String, JobSummary>,
    /// Per-kernel aggregates.
    pub kernels: BTreeMap<String, KernelSummary>,
    /// Per-partition `(input, local-skyline size, pruned, kernel)` rows.
    /// `kernel` names the kernel that computed the partition (`pruned`
    /// when skipped, empty for pre-schema traces).
    pub partitions: BTreeMap<u64, (u64, u64, bool, String)>,
    /// Ingest totals: (services, rejected).
    pub ingest: Option<(u64, u64)>,
    /// Driver span wall durations in microseconds, by name.
    pub spans: BTreeMap<String, u64>,
    /// Injected faults by `site/kind` wire names.
    pub faults: BTreeMap<String, u64>,
    /// Operations that ran out of their retry budget.
    pub retries_exhausted: u64,
    /// Partition checkpoints written / restored.
    pub checkpoints: (u64, u64),
    /// Map-side filter sweep totals: (rows entering, rows dropped).
    pub filtered: (u64, u64),
    /// Witness-based sector pruning: (partitions skipped, points skipped).
    pub sectors_pruned: (u64, u64),
    /// Streaming-merge overlap: (seconds concurrent with reduce, candidates
    /// absorbed), summed across `merge_overlap` events.
    pub merge_overlap: (f64, u64),
    /// Records quarantined to the dead-letter report.
    pub quarantined: u64,
    /// Crash-recovery resumes observed (`run_resumed` markers).
    pub resumes: u64,
    /// Serving layer: completed requests by `op/outcome` wire names.
    pub requests: BTreeMap<String, u64>,
    /// Circuit-breaker transitions by `op: from->to`.
    pub breaker_transitions: BTreeMap<String, u64>,
    /// Requests shed by admission control, by reason.
    pub sheds: BTreeMap<String, u64>,
    /// Skyband deletion repairs: (from-buffer, underflow recomputes,
    /// candidates promoted).
    pub skyband_repairs: (u64, u64, u64),
    /// Stale snapshot serves by reason.
    pub stale_served: BTreeMap<String, u64>,
    /// Causal edges by edge kind (`dispatch`, `slot`, `barrier`, ...).
    pub causal_edges: BTreeMap<String, u64>,
    /// Latency quantile sketches derived from the stream: simulated task
    /// durations per phase, kernel comparison counts, and per-reducer
    /// shuffle bytes, keyed by a stable row label.
    pub latency: BTreeMap<String, QuantileSketch>,
    /// Total events consumed.
    pub events: u64,
}

/// Rank-error target for the summary's latency sketches: a single
/// (unmerged) sketch per row, so the reporting budget of 0.01 holds with
/// headroom.
const SUMMARY_EPSILON: f64 = 0.005;

impl TraceSummary {
    /// Folds an event stream into aggregates.
    pub fn from_events(events: &[TraceEvent]) -> TraceSummary {
        let mut summary = TraceSummary {
            events: events.len() as u64,
            ..TraceSummary::default()
        };
        let mut phase_starts: BTreeMap<(String, PhaseKind), f64> = BTreeMap::new();
        let mut span_opens: BTreeMap<String, Vec<u64>> = BTreeMap::new();

        for ev in events {
            match &ev.kind {
                EventKind::JobStarted { job } => {
                    summary.jobs.entry(job.clone()).or_default();
                }
                EventKind::JobFinished {
                    job,
                    sim_total,
                    wall_seconds,
                } => {
                    let entry = summary.jobs.entry(job.clone()).or_default();
                    entry.sim_total = *sim_total;
                    entry.wall_seconds = *wall_seconds;
                }
                EventKind::PhaseStarted {
                    job,
                    phase,
                    tasks,
                    sim,
                } => {
                    phase_starts.insert((job.clone(), *phase), *sim);
                    let entry = summary.jobs.entry(job.clone()).or_default();
                    entry.phases.entry(*phase).or_default().tasks = *tasks;
                }
                EventKind::PhaseFinished {
                    job,
                    phase,
                    sim,
                    speculative_wins,
                } => {
                    let start = phase_starts.remove(&(job.clone(), *phase)).unwrap_or(0.0);
                    let entry = summary.jobs.entry(job.clone()).or_default();
                    let p = entry.phases.entry(*phase).or_default();
                    p.sim_span = (sim - start).max(0.0);
                    p.speculative_wins = *speculative_wins;
                }
                EventKind::TaskRetried { job, phase, .. } => {
                    let entry = summary.jobs.entry(job.clone()).or_default();
                    entry.phases.entry(*phase).or_default().retries += 1;
                }
                EventKind::TaskFinished {
                    job,
                    phase,
                    sim_start,
                    sim_end,
                    ..
                } => {
                    let entry = summary.jobs.entry(job.clone()).or_default();
                    entry.phases.entry(*phase).or_default().finished += 1;
                    summary
                        .latency
                        .entry(format!("task seconds ({phase})"))
                        .or_insert_with(|| QuantileSketch::new(SUMMARY_EPSILON))
                        .observe((sim_end - sim_start).max(0.0));
                }
                EventKind::TaskStolen { job, phase, .. } => {
                    let entry = summary.jobs.entry(job.clone()).or_default();
                    entry.phases.entry(*phase).or_default().steals += 1;
                }
                EventKind::CausalEdge { edge, .. } => {
                    *summary.causal_edges.entry(edge.clone()).or_insert(0) += 1;
                }
                EventKind::ShufflePartition {
                    job,
                    bytes,
                    records,
                    segments,
                    ..
                } => {
                    let entry = summary.jobs.entry(job.clone()).or_default();
                    entry.shuffle.0 += bytes;
                    entry.shuffle.1 += records;
                    entry.shuffle.2 += segments;
                    summary
                        .latency
                        .entry("shuffle bytes (per reducer)".into())
                        .or_insert_with(|| QuantileSketch::new(SUMMARY_EPSILON))
                        .observe(*bytes as f64);
                }
                EventKind::PhasePeakMemory {
                    job,
                    phase,
                    peak_bytes,
                } => {
                    let entry = summary.jobs.entry(job.clone()).or_default();
                    let slot = entry.peak_mem.entry(*phase).or_insert(0);
                    *slot = (*slot).max(*peak_bytes);
                }
                EventKind::DfsBlockRead { job, local, .. } => {
                    let entry = summary.jobs.entry(job.clone()).or_default();
                    if *local {
                        entry.dfs_reads.0 += 1;
                    } else {
                        entry.dfs_reads.1 += 1;
                    }
                }
                EventKind::KernelRun {
                    kernel,
                    input,
                    output,
                    comparisons,
                    passes,
                    elapsed_us,
                } => {
                    let entry = summary.kernels.entry(kernel.clone()).or_default();
                    entry.calls += 1;
                    entry.input += input;
                    entry.output += output;
                    entry.passes += passes;
                    entry.elapsed_us += elapsed_us;
                    entry.comparisons.record(*comparisons);
                    summary
                        .latency
                        .entry("kernel comparisons".into())
                        .or_insert_with(|| QuantileSketch::new(SUMMARY_EPSILON))
                        .observe(*comparisons as f64);
                }
                EventKind::PartitionLocalSkyline {
                    partition,
                    input,
                    output,
                    pruned,
                    kernel,
                } => {
                    summary
                        .partitions
                        .insert(*partition, (*input, *output, *pruned, kernel.clone()));
                }
                EventKind::IngestFinished { services, rejected } => {
                    summary.ingest = Some((*services, *rejected));
                }
                EventKind::SpanBegin { name } => {
                    span_opens.entry(name.clone()).or_default().push(ev.wall_us);
                }
                EventKind::SpanEnd { name } => {
                    if let Some(begin) = span_opens.get_mut(name).and_then(Vec::pop) {
                        let dur = ev.wall_us.saturating_sub(begin);
                        let slot = summary.spans.entry(name.clone()).or_insert(0);
                        *slot = slot.saturating_add(dur);
                    }
                }
                EventKind::FaultInjected { site, fault, .. } => {
                    *summary.faults.entry(format!("{site}/{fault}")).or_insert(0) += 1;
                }
                EventKind::TaskRetryExhausted { .. } => {
                    summary.retries_exhausted += 1;
                }
                EventKind::CheckpointWritten { .. } => {
                    summary.checkpoints.0 += 1;
                }
                EventKind::CheckpointRestored { .. } => {
                    summary.checkpoints.1 += 1;
                }
                EventKind::RowsFiltered { input, filtered } => {
                    summary.filtered.0 += input;
                    summary.filtered.1 += filtered;
                }
                EventKind::SectorPruned { points, .. } => {
                    summary.sectors_pruned.0 += 1;
                    summary.sectors_pruned.1 += points;
                }
                EventKind::MergeOverlap {
                    seconds,
                    candidates,
                } => {
                    summary.merge_overlap.0 += seconds;
                    summary.merge_overlap.1 += candidates;
                }
                EventKind::RecordQuarantined { .. } => {
                    summary.quarantined += 1;
                }
                EventKind::RunResumed { .. } => {
                    summary.resumes += 1;
                }
                EventKind::Request {
                    op,
                    outcome,
                    sim_latency,
                    ..
                } => {
                    *summary
                        .requests
                        .entry(format!("{op}/{outcome}"))
                        .or_insert(0) += 1;
                    summary
                        .latency
                        .entry(format!("request seconds ({op})"))
                        .or_insert_with(|| QuantileSketch::new(SUMMARY_EPSILON))
                        .observe(sim_latency.max(0.0));
                }
                EventKind::BreakerTransition { op, from, to, .. } => {
                    *summary
                        .breaker_transitions
                        .entry(format!("{op}: {from}->{to}"))
                        .or_insert(0) += 1;
                }
                EventKind::Shed { reason, .. } => {
                    *summary.sheds.entry(reason.clone()).or_insert(0) += 1;
                }
                EventKind::SkybandRepair {
                    promoted,
                    underflow,
                    ..
                } => {
                    if *underflow {
                        summary.skyband_repairs.1 += 1;
                    } else {
                        summary.skyband_repairs.0 += 1;
                    }
                    summary.skyband_repairs.2 += promoted;
                }
                EventKind::StaleServed { reason, .. } => {
                    *summary.stale_served.entry(reason.clone()).or_insert(0) += 1;
                }
                EventKind::TaskScheduled { .. }
                | EventKind::TaskLaunched { .. }
                | EventKind::TaskSpeculated { .. }
                | EventKind::IngestStarted { .. } => {}
            }
        }
        summary
    }

    /// Renders the fixed-width report table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace summary ({} events)", self.events);

        if let Some((services, rejected)) = self.ingest {
            let _ = writeln!(out, "  ingest: {services} services, {rejected} rejected");
        }

        for (job, js) in &self.jobs {
            let _ = writeln!(
                out,
                "  job {job}: sim {:.2}s, wall {:.3}s",
                js.sim_total, js.wall_seconds
            );
            for (phase, p) in &js.phases {
                let _ = writeln!(
                    out,
                    "    {phase:<6} tasks={} finished={} retries={} spec_wins={} span={:.2}s",
                    p.tasks, p.finished, p.retries, p.speculative_wins, p.sim_span
                );
            }
            if js.shuffle != (0, 0, 0) {
                let _ = writeln!(
                    out,
                    "    shuffle: {} bytes, {} records, {} segments",
                    js.shuffle.0, js.shuffle.1, js.shuffle.2
                );
            }
            if js.dfs_reads != (0, 0) {
                let _ = writeln!(
                    out,
                    "    dfs reads: {} local, {} remote",
                    js.dfs_reads.0, js.dfs_reads.1
                );
            }
            if !js.peak_mem.is_empty() {
                let _ = write!(out, "    peak memory:");
                for (phase, bytes) in &js.peak_mem {
                    let _ = write!(out, " {phase}={bytes}B");
                }
                out.push('\n');
            }
            let steals: u64 = js.phases.values().map(|p| p.steals).sum();
            if steals > 0 {
                let _ = writeln!(out, "    work-stealing: {steals} task(s) rebalanced");
            }
        }

        if !self.partitions.is_empty() {
            let computed: Vec<_> = self
                .partitions
                .iter()
                .filter(|(_, (_, _, pruned, _))| !pruned)
                .collect();
            let pruned = self.partitions.len() - computed.len();
            let _ = writeln!(
                out,
                "  partitions: {} computed, {pruned} pruned",
                computed.len()
            );
            for (id, (input, output, _, kernel)) in &computed {
                let _ = writeln!(
                    out,
                    "    p{id:<4} in={input:<8} local_skyline={output:<8} kernel={}",
                    if kernel.is_empty() { "?" } else { kernel }
                );
            }
        }

        for (kernel, ks) in &self.kernels {
            let _ = writeln!(
                out,
                "  kernel {kernel}: calls={} in={} out={} passes={} time={}us comparisons(sum={}, mean={:.0})",
                ks.calls,
                ks.input,
                ks.output,
                ks.passes,
                ks.elapsed_us,
                ks.comparisons.sum(),
                ks.comparisons.mean()
            );
            let buckets = ks.comparisons.nonzero_buckets();
            if !buckets.is_empty() {
                let _ = write!(out, "    comparisons histogram:");
                for (le, count) in buckets {
                    let _ = write!(out, " le{le}:{count}");
                }
                out.push('\n');
            }
        }

        if !self.faults.is_empty() || self.retries_exhausted > 0 {
            let total: u64 = self.faults.values().sum();
            let _ = writeln!(
                out,
                "  chaos: {total} fault(s) injected, {} retry budget(s) exhausted",
                self.retries_exhausted
            );
            for (key, count) in &self.faults {
                let _ = writeln!(out, "    {key:<28} {count}");
            }
        }
        if self.filtered.1 > 0 {
            let _ = writeln!(
                out,
                "  filter points: {} of {} rows dropped map-side",
                self.filtered.1, self.filtered.0
            );
        }
        if self.sectors_pruned.0 > 0 {
            let _ = writeln!(
                out,
                "  sector pruning: {} partition(s) skipped ({} points)",
                self.sectors_pruned.0, self.sectors_pruned.1
            );
        }
        if self.merge_overlap.1 > 0 {
            let _ = writeln!(
                out,
                "  streaming merge: {:.2}s overlapped with reduce ({} candidates)",
                self.merge_overlap.0, self.merge_overlap.1
            );
        }
        if self.checkpoints != (0, 0) {
            let _ = writeln!(
                out,
                "  checkpoints: {} written, {} restored",
                self.checkpoints.0, self.checkpoints.1
            );
        }
        if self.quarantined > 0 {
            let _ = writeln!(out, "  quarantined records: {}", self.quarantined);
        }
        if self.resumes > 0 {
            let _ = writeln!(out, "  crash recoveries: {} resume(s)", self.resumes);
        }

        if !self.requests.is_empty() {
            let total: u64 = self.requests.values().sum();
            let _ = writeln!(out, "  serve requests: {total}");
            for (key, count) in &self.requests {
                let _ = writeln!(out, "    {key:<28} {count}");
            }
        }
        if !self.breaker_transitions.is_empty() {
            let _ = writeln!(out, "  breaker transitions:");
            for (key, count) in &self.breaker_transitions {
                let _ = writeln!(out, "    {key:<28} {count}");
            }
        }
        if !self.sheds.is_empty() {
            let total: u64 = self.sheds.values().sum();
            let _ = write!(out, "  load shed: {total} request(s)");
            for (reason, count) in &self.sheds {
                let _ = write!(out, " {reason}={count}");
            }
            out.push('\n');
        }
        if self.skyband_repairs != (0, 0, 0) {
            let _ = writeln!(
                out,
                "  skyband repairs: {} from buffer, {} underflow recompute(s), {} promoted",
                self.skyband_repairs.0, self.skyband_repairs.1, self.skyband_repairs.2
            );
        }
        if !self.stale_served.is_empty() {
            let total: u64 = self.stale_served.values().sum();
            let _ = write!(out, "  stale serves: {total}");
            for (reason, count) in &self.stale_served {
                let _ = write!(out, " {reason}={count}");
            }
            out.push('\n');
        }

        if !self.causal_edges.is_empty() {
            let _ = write!(out, "  causal edges:");
            for (edge, count) in &self.causal_edges {
                let _ = write!(out, " {edge}={count}");
            }
            out.push('\n');
        }

        if !self.latency.is_empty() {
            let _ = writeln!(out, "  latency quantiles (p50 / p95 / p99 / p999):");
            for (label, sketch) in &self.latency {
                let qs: Vec<String> = QuantileSketch::REPORTED
                    .iter()
                    .map(|&(_, q)| fmt_quantile(sketch.quantile(q).unwrap_or(0.0)))
                    .collect();
                let _ = writeln!(out, "    {label:<28} {}", qs.join(" / "));
            }
        }

        if !self.spans.is_empty() {
            let _ = writeln!(out, "  driver spans (wall):");
            for (name, us) in &self.spans {
                let _ = writeln!(out, "    {name:<20} {:.3}s", *us as f64 / 1e6);
            }
        }
        out
    }
}

/// Compact quantile formatting: integral values print without a fraction
/// (comparison counts, byte sizes), fractional ones with four decimals
/// (simulated seconds).
fn fmt_quantile(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, wall_us: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { seq, wall_us, kind }
    }

    fn valid_stream() -> Vec<TraceEvent> {
        use EventKind::*;
        vec![
            ev(0, 0, SpanBegin { name: "run".into() }),
            ev(1, 5, JobStarted { job: "j".into() }),
            ev(
                2,
                6,
                PhaseStarted {
                    job: "j".into(),
                    phase: PhaseKind::Map,
                    tasks: 2,
                    sim: 0.0,
                },
            ),
            ev(
                3,
                7,
                TaskFinished {
                    job: "j".into(),
                    phase: PhaseKind::Map,
                    task: 0,
                    slot: 0,
                    sim_start: 0.0,
                    sim_end: 1.0,
                    speculative: false,
                },
            ),
            ev(
                4,
                8,
                TaskRetried {
                    job: "j".into(),
                    phase: PhaseKind::Map,
                    task: 1,
                    attempt: 1,
                },
            ),
            ev(
                5,
                9,
                TaskFinished {
                    job: "j".into(),
                    phase: PhaseKind::Map,
                    task: 1,
                    slot: 1,
                    sim_start: 0.0,
                    sim_end: 2.0,
                    speculative: true,
                },
            ),
            ev(
                6,
                10,
                PhaseFinished {
                    job: "j".into(),
                    phase: PhaseKind::Map,
                    sim: 2.0,
                    speculative_wins: 1,
                },
            ),
            ev(
                7,
                11,
                KernelRun {
                    kernel: "bnl".into(),
                    input: 100,
                    output: 10,
                    comparisons: 500,
                    passes: 1,
                    elapsed_us: 40,
                },
            ),
            ev(
                8,
                12,
                PartitionLocalSkyline {
                    partition: 3,
                    input: 100,
                    output: 10,
                    pruned: false,
                    kernel: "bnl".into(),
                },
            ),
            ev(
                9,
                13,
                JobFinished {
                    job: "j".into(),
                    sim_total: 2.5,
                    wall_seconds: 0.01,
                },
            ),
            ev(10, 20, SpanEnd { name: "run".into() }),
        ]
    }

    #[test]
    fn valid_stream_passes() {
        assert!(validate_events(&valid_stream()).is_empty());
    }

    #[test]
    fn validator_flags_each_violation() {
        use EventKind::*;
        let mut dup_seq = valid_stream();
        dup_seq[3].seq = dup_seq[2].seq;
        assert!(validate_events(&dup_seq)
            .iter()
            .any(|e| e.contains("strictly increasing")));

        let orphan_end = vec![ev(0, 0, SpanEnd { name: "x".into() })];
        assert!(validate_events(&orphan_end)
            .iter()
            .any(|e| e.contains("closed without opening")));

        let unclosed = vec![ev(0, 0, JobStarted { job: "j".into() })];
        assert!(validate_events(&unclosed)
            .iter()
            .any(|e| e.contains("never finished")));

        let mut wrong_count = valid_stream();
        wrong_count.remove(3); // drop one task_finished
        assert!(validate_events(&wrong_count)
            .iter()
            .any(|e| e.contains("announced 2 tasks but finished 1")));
    }

    #[test]
    fn validator_rejects_restored_and_recomputed_partition() {
        use EventKind::*;
        let stream = vec![
            ev(
                0,
                0,
                CheckpointRestored {
                    partition: 3,
                    points: 10,
                },
            ),
            ev(
                1,
                1,
                PartitionLocalSkyline {
                    partition: 3,
                    input: 100,
                    output: 10,
                    pruned: false,
                    kernel: "bnl".into(),
                },
            ),
        ];
        assert!(validate_events(&stream)
            .iter()
            .any(|e| e.contains("restored from a checkpoint but also recomputed")));

        // distinct partitions are fine
        let ok = vec![
            ev(
                0,
                0,
                CheckpointRestored {
                    partition: 3,
                    points: 10,
                },
            ),
            ev(
                1,
                1,
                PartitionLocalSkyline {
                    partition: 4,
                    input: 100,
                    output: 10,
                    pruned: false,
                    kernel: "bnl".into(),
                },
            ),
        ];
        assert!(validate_events(&ok).is_empty());
    }

    #[test]
    fn run_resumed_absolves_the_killed_runs_torn_state() {
        use EventKind::*;
        // A killed run: job and span left open, partition 3 computed —
        // then the resumed run restores partition 3 and completes cleanly.
        let stream = vec![
            ev(0, 0, JobStarted { job: "j1".into() }),
            ev(1, 1, SpanBegin { name: "run".into() }),
            ev(
                2,
                2,
                PartitionLocalSkyline {
                    partition: 3,
                    input: 100,
                    output: 10,
                    pruned: false,
                    kernel: "bnl".into(),
                },
            ),
            ev(3, 3, RunResumed { run: 2 }),
            ev(
                4,
                4,
                CheckpointRestored {
                    partition: 3,
                    points: 10,
                },
            ),
            ev(5, 5, JobStarted { job: "j1".into() }),
            ev(
                6,
                6,
                JobFinished {
                    job: "j1".into(),
                    sim_total: 1.0,
                    wall_seconds: 0.1,
                },
            ),
        ];
        assert!(
            validate_events(&stream).is_empty(),
            "{:?}",
            validate_events(&stream)
        );

        // Without the marker, the same stream is torn *and* recomputes a
        // restored partition.
        let torn: Vec<TraceEvent> = stream
            .iter()
            .filter(|e| !matches!(e.kind, RunResumed { .. }))
            .cloned()
            .collect();
        let problems = validate_events(&torn);
        assert!(
            problems.iter().any(|e| e.contains("restored")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|e| e.contains("never finished") || e.contains("left open")),
            "{problems:?}"
        );
    }

    #[test]
    fn summary_aggregates_chaos_events() {
        use EventKind::*;
        let stream = vec![
            ev(
                0,
                0,
                FaultInjected {
                    site: "map-task".into(),
                    fault: "panic".into(),
                    scope: "locals".into(),
                    index: 2,
                    attempt: 0,
                },
            ),
            ev(
                1,
                1,
                FaultInjected {
                    site: "map-task".into(),
                    fault: "panic".into(),
                    scope: "locals".into(),
                    index: 5,
                    attempt: 1,
                },
            ),
            ev(
                2,
                2,
                TaskRetryExhausted {
                    site: "shuffle-fetch".into(),
                    scope: "merge".into(),
                    index: 0,
                    attempts: 4,
                },
            ),
            ev(
                3,
                3,
                CheckpointWritten {
                    partition: 1,
                    points: 9,
                },
            ),
            ev(
                4,
                4,
                CheckpointRestored {
                    partition: 1,
                    points: 9,
                },
            ),
            ev(
                5,
                5,
                RecordQuarantined {
                    source: "qws.txt".into(),
                    line: 8,
                    reason: "bad".into(),
                },
            ),
        ];
        let summary = TraceSummary::from_events(&stream);
        assert_eq!(summary.faults.get("map-task/panic"), Some(&2));
        assert_eq!(summary.retries_exhausted, 1);
        assert_eq!(summary.checkpoints, (1, 1));
        assert_eq!(summary.quarantined, 1);
        let text = summary.render();
        assert!(text.contains("2 fault(s) injected"));
        assert!(text.contains("1 retry budget(s) exhausted"));
        assert!(text.contains("checkpoints: 1 written, 1 restored"));
        assert!(text.contains("quarantined records: 1"));
    }

    #[test]
    fn validator_checks_pruning_event_sanity() {
        use EventKind::*;
        let bad_filter = vec![ev(
            0,
            0,
            RowsFiltered {
                input: 10,
                filtered: 11,
            },
        )];
        assert!(validate_events(&bad_filter)
            .iter()
            .any(|e| e.contains("rows_filtered")));

        let bad_overlap = vec![ev(
            0,
            0,
            MergeOverlap {
                seconds: -1.0,
                candidates: 5,
            },
        )];
        assert!(validate_events(&bad_overlap)
            .iter()
            .any(|e| e.contains("merge_overlap")));

        let fine = vec![
            ev(
                0,
                0,
                RowsFiltered {
                    input: 10,
                    filtered: 10,
                },
            ),
            ev(
                1,
                1,
                SectorPruned {
                    partition: 2,
                    points: 30,
                },
            ),
            ev(
                2,
                2,
                MergeOverlap {
                    seconds: 0.0,
                    candidates: 0,
                },
            ),
        ];
        assert!(validate_events(&fine).is_empty());
    }

    #[test]
    fn summary_aggregates_pruning_events() {
        use EventKind::*;
        let stream = vec![
            ev(
                0,
                0,
                RowsFiltered {
                    input: 800,
                    filtered: 500,
                },
            ),
            ev(
                1,
                1,
                RowsFiltered {
                    input: 800,
                    filtered: 300,
                },
            ),
            ev(
                2,
                2,
                SectorPruned {
                    partition: 4,
                    points: 120,
                },
            ),
            ev(
                3,
                3,
                MergeOverlap {
                    seconds: 2.5,
                    candidates: 64,
                },
            ),
        ];
        let summary = TraceSummary::from_events(&stream);
        assert_eq!(summary.filtered, (1600, 800));
        assert_eq!(summary.sectors_pruned, (1, 120));
        assert_eq!(summary.merge_overlap, (2.5, 64));
        let text = summary.render();
        assert!(text.contains("filter points: 800 of 1600 rows dropped map-side"));
        assert!(text.contains("sector pruning: 1 partition(s) skipped (120 points)"));
        assert!(text.contains("streaming merge: 2.50s overlapped with reduce (64 candidates)"));
    }

    #[test]
    fn peak_memory_events_validate_and_aggregate() {
        use EventKind::*;
        let stream = vec![
            ev(0, 0, JobStarted { job: "j".into() }),
            ev(
                1,
                1,
                PhasePeakMemory {
                    job: "j".into(),
                    phase: PhaseKind::Map,
                    peak_bytes: 4096,
                },
            ),
            ev(
                2,
                2,
                PhasePeakMemory {
                    job: "j".into(),
                    phase: PhaseKind::Reduce,
                    peak_bytes: 1024,
                },
            ),
            // a second report for the same phase keeps the max
            ev(
                3,
                3,
                PhasePeakMemory {
                    job: "j".into(),
                    phase: PhaseKind::Reduce,
                    peak_bytes: 512,
                },
            ),
            ev(
                4,
                4,
                JobFinished {
                    job: "j".into(),
                    sim_total: 1.0,
                    wall_seconds: 0.1,
                },
            ),
        ];
        assert!(validate_events(&stream).is_empty());
        let summary = TraceSummary::from_events(&stream);
        let job = summary.jobs.get("j").unwrap();
        assert_eq!(job.peak_mem.get(&PhaseKind::Map), Some(&4096));
        assert_eq!(job.peak_mem.get(&PhaseKind::Reduce), Some(&1024));
        let text = summary.render();
        assert!(text.contains("peak memory: map=4096B reduce=1024B"));
    }

    #[test]
    fn summary_aggregates_the_stream() {
        let summary = TraceSummary::from_events(&valid_stream());
        let job = summary.jobs.get("j").unwrap();
        assert_eq!(job.sim_total, 2.5);
        let map = job.phases.get(&PhaseKind::Map).unwrap();
        assert_eq!(map.tasks, 2);
        assert_eq!(map.finished, 2);
        assert_eq!(map.retries, 1);
        assert_eq!(map.speculative_wins, 1);
        assert_eq!(map.sim_span, 2.0);
        let bnl = summary.kernels.get("bnl").unwrap();
        assert_eq!(bnl.calls, 1);
        assert_eq!(bnl.comparisons.sum(), 500);
        assert_eq!(
            summary.partitions.get(&3),
            Some(&(100, 10, false, "bnl".to_string()))
        );
        assert_eq!(summary.spans.get("run"), Some(&20));
    }

    #[test]
    fn validator_checks_causal_events() {
        use EventKind::*;
        let self_loop = vec![ev(
            0,
            0,
            CausalEdge {
                edge: "slot".into(),
                src: "task:j/map/1".into(),
                dst: "task:j/map/1".into(),
            },
        )];
        assert!(validate_events(&self_loop)
            .iter()
            .any(|e| e.contains("self-loop")));

        let empty_field = vec![ev(
            0,
            0,
            CausalEdge {
                edge: String::new(),
                src: "a".into(),
                dst: "b".into(),
            },
        )];
        assert!(validate_events(&empty_field)
            .iter()
            .any(|e| e.contains("empty field")));

        let self_steal = vec![ev(
            0,
            0,
            TaskStolen {
                job: "j".into(),
                phase: PhaseKind::Map,
                task: 1,
                thief: 2,
                victim: 2,
            },
        )];
        assert!(validate_events(&self_steal)
            .iter()
            .any(|e| e.contains("stealing from itself")));

        let fine = vec![
            ev(
                0,
                0,
                CausalEdge {
                    edge: "shuffle".into(),
                    src: "task:j/map/0".into(),
                    dst: "task:j/reduce/1".into(),
                },
            ),
            ev(
                1,
                1,
                TaskStolen {
                    job: "j".into(),
                    phase: PhaseKind::Map,
                    task: 1,
                    thief: 2,
                    victim: 0,
                },
            ),
        ];
        assert!(validate_events(&fine).is_empty());
    }

    #[test]
    fn summary_aggregates_causal_events_and_latency() {
        use EventKind::*;
        let mut stream = valid_stream();
        let next = stream.len() as u64;
        stream.push(ev(
            next,
            100,
            CausalEdge {
                edge: "slot".into(),
                src: "task:j/map/0".into(),
                dst: "task:j/map/1".into(),
            },
        ));
        stream.push(ev(
            next + 1,
            101,
            TaskStolen {
                job: "j".into(),
                phase: PhaseKind::Map,
                task: 1,
                thief: 3,
                victim: 0,
            },
        ));
        let summary = TraceSummary::from_events(&stream);
        assert_eq!(summary.causal_edges.get("slot"), Some(&1));
        let map = summary.jobs.get("j").unwrap().phases[&PhaseKind::Map].clone();
        assert_eq!(map.steals, 1);
        let tasks = summary.latency.get("task seconds (map)").unwrap();
        assert_eq!(tasks.count(), 2);
        let text = summary.render();
        assert!(text.contains("causal edges: slot=1"));
        assert!(text.contains("work-stealing: 1 task(s) rebalanced"));
        assert!(text.contains("latency quantiles (p50 / p95 / p99 / p999):"));
        assert!(text.contains("task seconds (map)"));
        assert!(text.contains("kernel comparisons"));
    }

    #[test]
    fn two_runs_render_byte_identical_summaries() {
        // The determinism guarantee: rendering is a pure function of the
        // trace (all row containers are ordered maps), so parsing and
        // summarizing the same JSONL twice yields identical bytes.
        let stream = valid_stream();
        let text: String = stream
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        let run = |input: &str| {
            let events = crate::parse_jsonl(input).unwrap();
            TraceSummary::from_events(&events).render()
        };
        let first = run(&text);
        let second = run(&text);
        assert!(!first.is_empty());
        assert_eq!(first.as_bytes(), second.as_bytes());
    }

    #[test]
    fn summary_rows_are_sorted_regardless_of_event_order() {
        use EventKind::*;
        // Jobs and kernels arrive in reverse name order; the rendered
        // tables must still list them sorted.
        let stream = vec![
            ev(0, 0, JobStarted { job: "zeta".into() }),
            ev(
                1,
                1,
                JobFinished {
                    job: "zeta".into(),
                    sim_total: 1.0,
                    wall_seconds: 0.1,
                },
            ),
            ev(
                2,
                2,
                JobStarted {
                    job: "alpha".into(),
                },
            ),
            ev(
                3,
                3,
                JobFinished {
                    job: "alpha".into(),
                    sim_total: 1.0,
                    wall_seconds: 0.1,
                },
            ),
        ];
        let text = TraceSummary::from_events(&stream).render();
        let alpha = text.find("job alpha").expect("alpha row");
        let zeta = text.find("job zeta").expect("zeta row");
        assert!(alpha < zeta, "rows not sorted by job name:\n{text}");
    }

    #[test]
    fn render_mentions_the_headline_numbers() {
        let text = TraceSummary::from_events(&valid_stream()).render();
        assert!(text.contains("job j"));
        assert!(text.contains("tasks=2"));
        assert!(text.contains("retries=1"));
        assert!(text.contains("spec_wins=1"));
        assert!(text.contains("kernel bnl"));
        assert!(text.contains("local_skyline=10"));
        assert!(text.contains("comparisons histogram:"));
    }

    #[test]
    fn serve_events_fold_into_request_aggregates() {
        use EventKind::*;
        let stream = vec![
            ev(
                0,
                0,
                Request {
                    tenant: "t0".into(),
                    op: "insert".into(),
                    outcome: "ok".into(),
                    sim_latency: 0.2,
                    attempts: 1,
                },
            ),
            ev(
                1,
                1,
                Request {
                    tenant: "t0".into(),
                    op: "query".into(),
                    outcome: "stale".into(),
                    sim_latency: 0.1,
                    attempts: 1,
                },
            ),
            ev(
                2,
                2,
                BreakerTransition {
                    tenant: "t0".into(),
                    op: "mutation".into(),
                    from: "closed".into(),
                    to: "open".into(),
                },
            ),
            ev(
                3,
                3,
                Shed {
                    tenant: "t1".into(),
                    op: "mutation".into(),
                    reason: "queue-depth".into(),
                    depth: 8,
                },
            ),
            ev(
                4,
                4,
                SkybandRepair {
                    tenant: "t0".into(),
                    promoted: 2,
                    underflow: false,
                },
            ),
            ev(
                5,
                5,
                SkybandRepair {
                    tenant: "t0".into(),
                    promoted: 0,
                    underflow: true,
                },
            ),
            ev(
                6,
                6,
                StaleServed {
                    tenant: "t0".into(),
                    reason: "breaker-open".into(),
                    lag: 3,
                },
            ),
        ];
        assert!(validate_events(&stream).is_empty());
        let summary = TraceSummary::from_events(&stream);
        assert_eq!(summary.requests.get("insert/ok"), Some(&1));
        assert_eq!(summary.requests.get("query/stale"), Some(&1));
        assert_eq!(
            summary.breaker_transitions.get("mutation: closed->open"),
            Some(&1)
        );
        assert_eq!(summary.sheds.get("queue-depth"), Some(&1));
        assert_eq!(summary.skyband_repairs, (1, 1, 2));
        assert_eq!(summary.stale_served.get("breaker-open"), Some(&1));
        assert!(summary.latency.contains_key("request seconds (insert)"));

        let text = summary.render();
        assert!(text.contains("serve requests: 2"), "{text}");
        assert!(text.contains("breaker transitions:"), "{text}");
        assert!(text.contains("load shed: 1"), "{text}");
        assert!(
            text.contains("skyband repairs: 1 from buffer, 1 underflow"),
            "{text}"
        );
        assert!(text.contains("stale serves: 1"), "{text}");
    }
}
