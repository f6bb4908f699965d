//! Post-hoc trace analysis: schema validation for recorded streams and
//! the human-readable `mrsky trace --summary` table, rendered from the
//! [`RunModel`].

use crate::event::{EventKind, PhaseKind, TraceEvent};
use crate::model::{PartitionRec, RunModel, ShuffleRec};
use crate::registry::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Validates a recorded event stream against the schema invariants the
/// tracer guarantees:
///
/// 1. sequence numbers strictly increase,
/// 2. jobs and phases finish only after they start (and at most once),
/// 3. every generic span closes a matching open,
/// 4. each phase finishes exactly the task count it announced (counted
///    per run, so a job name that runs again starts from zero),
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
                // A job name can run again later (a sweep reruns every job
                // per cluster size): each run counts its own tasks.
                finished_tasks.insert((job.clone(), *phase), 0);
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

/// The quantiles each latency row of the summary reports.
const REPORTED: [f64; 4] = [0.5, 0.95, 0.99, 0.999];

/// The exact nearest-rank `q`-quantile of `values`: the value of rank
/// `⌈q·n⌉` (clamped to `[1, n]`) in `total_cmp` order. Non-finite values
/// are skipped; `None` when no finite value is left.
pub fn nearest_rank(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).copied()
}

impl RunModel {
    /// Renders the `mrsky trace --summary` table. Runs are listed by job
    /// name; a name that started more than once renders one block per run,
    /// in start order, and a run a crash cut short is labelled abandoned.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace summary ({} events)", self.events);

        let mut order: Vec<usize> = (0..self.runs.len()).collect();
        order.sort_by(|&a, &b| self.runs[a].name.cmp(&self.runs[b].name));
        for i in order {
            let run = &self.runs[i];
            let label = self.run_label(i);
            let (sim, wall) = run.finished.unwrap_or((0.0, 0.0));
            if run.abandoned {
                let _ = writeln!(out, "  job {label}: abandoned");
            } else {
                let _ = writeln!(out, "  job {label}: sim {sim:.2}s, wall {wall:.3}s");
            }
            for p in [&run.map, &run.reduce].into_iter().filter(|p| p.seen()) {
                let _ = writeln!(
                    out,
                    "    {:<6} tasks={} finished={} retries={} span={:.2}s",
                    p.kind,
                    p.announced.unwrap_or(0),
                    p.tasks.len(),
                    p.retries,
                    p.span()
                );
            }
            let sum = |f: fn(&ShuffleRec) -> u64| run.shuffle.iter().map(f).sum::<u64>();
            let shuffle = (sum(|s| s.bytes), sum(|s| s.records), sum(|s| s.segments));
            if shuffle != (0, 0, 0) {
                let _ = writeln!(
                    out,
                    "    shuffle: {} bytes, {} records, {} segments",
                    shuffle.0, shuffle.1, shuffle.2
                );
            }
            let mut peak: BTreeMap<PhaseKind, u64> = BTreeMap::new();
            for m in &run.peak_mem {
                let slot = peak.entry(m.phase).or_insert(0);
                *slot = (*slot).max(m.peak_bytes);
            }
            if !peak.is_empty() {
                let _ = write!(out, "    peak memory:");
                for (phase, bytes) in &peak {
                    let _ = write!(out, " {phase}={bytes}B");
                }
                out.push('\n');
            }
            let steals = run.map.steals.len() + run.reduce.steals.len();
            if steals > 0 {
                let _ = writeln!(out, "    work-stealing: {steals} task(s) rebalanced");
            }
        }
        if let Some(job) = &self.orphan {
            let _ = writeln!(
                out,
                "  unattributed: events for job `{job}` arrived while no run of it was open"
            );
        }

        // one row per partition id: the last report wins
        let partitions: BTreeMap<u64, &PartitionRec> =
            self.partitions.iter().map(|p| (p.partition, p)).collect();
        if !partitions.is_empty() {
            let computed: Vec<&PartitionRec> =
                partitions.values().copied().filter(|p| !p.pruned).collect();
            let pruned = partitions.len() - computed.len();
            let _ = writeln!(
                out,
                "  partitions: {} computed, {pruned} pruned",
                computed.len()
            );
            for p in &computed {
                let _ = writeln!(
                    out,
                    "    p{:<4} in={:<8} local_skyline={:<8} kernel={}",
                    p.partition,
                    p.input,
                    p.output,
                    if p.kernel.is_empty() { "?" } else { &p.kernel }
                );
            }
        }

        for (kernel, k) in &self.kernels {
            let mut comparisons = Histogram::new();
            for &c in &k.comparisons {
                comparisons.record(c);
            }
            let _ = writeln!(
                out,
                "  kernel {kernel}: calls={} in={} out={} passes={} time={}us comparisons(sum={}, mean={:.0})",
                comparisons.count(),
                k.input,
                k.output,
                k.passes,
                k.elapsed_us,
                comparisons.sum(),
                comparisons.mean()
            );
            let buckets = comparisons.nonzero_buckets();
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
        if self.checkpoints != (0, 0) {
            let _ = writeln!(
                out,
                "  checkpoints: {} written, {} restored",
                self.checkpoints.0, self.checkpoints.1
            );
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

        let counts = self.edge_counts();
        if !counts.is_empty() {
            let _ = write!(out, "  causal edges:");
            for (edge, count) in counts {
                let _ = write!(out, " {edge}={count}");
            }
            out.push('\n');
        }

        let latency = self.latency_rows();
        if !latency.is_empty() {
            let _ = writeln!(out, "  latency quantiles (p50 / p95 / p99 / p999):");
            for (label, values) in &latency {
                let qs: Vec<String> = REPORTED
                    .iter()
                    .map(|&q| fmt_quantile(nearest_rank(values, q).unwrap_or(0.0)))
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

    /// The values behind each latency-quantile row, by row label:
    /// simulated task durations per phase, per-reducer shuffle bytes,
    /// kernel comparison counts, and simulated request latencies per op.
    fn latency_rows(&self) -> BTreeMap<String, Vec<f64>> {
        let mut rows: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for run in &self.runs {
            for p in [&run.map, &run.reduce] {
                for t in &p.tasks {
                    rows.entry(format!("task seconds ({})", p.kind))
                        .or_default()
                        .push(t.duration());
                }
            }
            for s in &run.shuffle {
                rows.entry("shuffle bytes (per reducer)".into())
                    .or_default()
                    .push(s.bytes as f64);
            }
        }
        for k in self.kernels.values() {
            rows.entry("kernel comparisons".into())
                .or_default()
                .extend(k.comparisons.iter().map(|&c| c as f64));
        }
        for (op, values) in &self.request_latency {
            rows.insert(format!("request seconds ({op})"), values.clone());
        }
        rows
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
                },
            ),
            ev(
                6,
                10,
                PhaseFinished {
                    job: "j".into(),
                    phase: PhaseKind::Map,
                    sim: 2.0,
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
    fn nearest_rank_is_exact() {
        // 1..=1000 in a scrambled order, plus values the rule skips
        let mut values: Vec<f64> = (1..=1000)
            .map(|i| f64::from((i * 337) % 1000 + 1))
            .collect();
        values.extend([f64::NAN, f64::INFINITY]);
        assert_eq!(nearest_rank(&values, 0.5), Some(500.0));
        assert_eq!(nearest_rank(&values, 0.99), Some(990.0));
        assert_eq!(nearest_rank(&values, 0.999), Some(999.0));
        assert_eq!(nearest_rank(&values, 0.0), Some(1.0), "rank clamps to 1");
        assert_eq!(nearest_rank(&values, 1.0), Some(1000.0));
        assert_eq!(nearest_rank(&[7.0], 0.95), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[f64::NAN], 0.5), None);
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
    fn a_job_that_runs_twice_counts_each_run_on_its_own() {
        // The job's events without the enclosing span, run back to back
        // under the same name (what `mrsky sweep` does per cluster size).
        let job_run: Vec<TraceEvent> = valid_stream()[1..10].to_vec();
        let rerun = |runs: [&[TraceEvent]; 2]| -> Vec<TraceEvent> {
            runs.concat()
                .into_iter()
                .enumerate()
                .map(|(i, e)| ev(i as u64, i as u64, e.kind))
                .collect()
        };
        assert!(validate_events(&rerun([&job_run, &job_run])).is_empty());

        // the reset must not hide a short second run
        let mut short = job_run.clone();
        short.remove(2); // drop one task_finished
        assert!(validate_events(&rerun([&job_run, &short]))
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
        ];
        let summary = RunModel::from_events(&stream);
        assert_eq!(summary.faults.get("map-task/panic"), Some(&2));
        assert_eq!(summary.retries_exhausted, 1);
        assert_eq!(summary.checkpoints, (1, 1));
        let text = summary.summary();
        assert!(text.contains("2 fault(s) injected"));
        assert!(text.contains("1 retry budget(s) exhausted"));
        assert!(text.contains("checkpoints: 1 written, 1 restored"));
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
        ];
        let summary = RunModel::from_events(&stream);
        assert_eq!(summary.filtered, (1600, 800));
        assert_eq!(summary.sectors_pruned, (1, 120));
        let text = summary.summary();
        assert!(text.contains("filter points: 800 of 1600 rows dropped map-side"));
        assert!(text.contains("sector pruning: 1 partition(s) skipped (120 points)"));
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
        let summary = RunModel::from_events(&stream);
        assert_eq!(summary.runs[0].peak_mem.len(), 3);
        let text = summary.summary();
        assert!(text.contains("peak memory: map=4096B reduce=1024B"));
    }

    #[test]
    fn summary_aggregates_the_stream() {
        let summary = RunModel::from_events(&valid_stream());
        let job = &summary.runs[0];
        assert_eq!(job.sim_total(), 2.5);
        let map = &job.map;
        assert_eq!(map.announced, Some(2));
        assert_eq!(map.tasks.len(), 2);
        assert_eq!(map.retries, 1);
        assert_eq!(map.span(), 2.0);
        let bnl = summary.kernels.get("bnl").unwrap();
        assert_eq!(bnl.comparisons, vec![500]);
        assert_eq!(
            summary.partitions,
            vec![PartitionRec {
                run: None,
                partition: 3,
                input: 100,
                output: 10,
                pruned: false,
                kernel: "bnl".into(),
            }]
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
        // Both arrive while the job runs, before its `job_finished`.
        let mut stream = valid_stream();
        stream.insert(
            9,
            ev(
                0,
                0,
                CausalEdge {
                    edge: "slot".into(),
                    src: "task:j/map/0".into(),
                    dst: "task:j/map/1".into(),
                },
            ),
        );
        stream.insert(
            10,
            ev(
                0,
                0,
                TaskStolen {
                    job: "j".into(),
                    phase: PhaseKind::Map,
                    task: 1,
                    thief: 3,
                    victim: 0,
                },
            ),
        );
        for (i, e) in stream.iter_mut().enumerate() {
            e.seq = i as u64;
            e.wall_us = i as u64;
        }
        assert!(validate_events(&stream).is_empty());
        let summary = RunModel::from_events(&stream);
        assert_eq!(summary.edge_counts().get("slot"), Some(&1));
        assert_eq!(summary.runs[0].map.steals.len(), 1);
        assert_eq!(summary.latency_rows()["task seconds (map)"], vec![1.0, 2.0]);
        let text = summary.summary();
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
            RunModel::from_events(&events).summary()
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
        let text = RunModel::from_events(&stream).summary();
        let alpha = text.find("job alpha").expect("alpha row");
        let zeta = text.find("job zeta").expect("zeta row");
        assert!(alpha < zeta, "rows not sorted by job name:\n{text}");
    }

    #[test]
    fn render_mentions_the_headline_numbers() {
        let text = RunModel::from_events(&valid_stream()).summary();
        assert!(text.contains("job j"));
        assert!(text.contains("tasks=2"));
        assert!(text.contains("retries=1"));
        assert!(text.contains("span=2.00s"));
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
        let summary = RunModel::from_events(&stream);
        assert_eq!(summary.requests.get("insert/ok"), Some(&1));
        assert_eq!(summary.requests.get("query/stale"), Some(&1));
        assert_eq!(
            summary.breaker_transitions.get("mutation: closed->open"),
            Some(&1)
        );
        assert_eq!(summary.sheds.get("queue-depth"), Some(&1));
        assert_eq!(summary.skyband_repairs, (1, 1, 2));
        assert_eq!(summary.stale_served.get("breaker-open"), Some(&1));
        assert_eq!(summary.request_latency["insert"], vec![0.2]);

        let text = summary.summary();
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
