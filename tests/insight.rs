//! Integration of the insight analyzer against real pipeline traces: on a
//! seeded skewed dataset the analyzer must name the actual hot partition,
//! and the critical path's phase blame must sum to the reported simulated
//! wall time within 1%.

use mr_skyline_suite::insight;
use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{generate_synthetic, Distribution, SyntheticConfig};
use mr_skyline_suite::trace::{EventKind, RunModel, Tracer};

/// Runs MR-Angle on seeded anti-correlated data (large skylines survive the
/// map-side filter, and the angular sectors load unevenly) and returns the
/// recorded events plus the reported sim total.
fn skewed_trace() -> (Vec<mr_skyline_suite::trace::TraceEvent>, f64) {
    let data = generate_synthetic(&SyntheticConfig::new(4000, 4, Distribution::AntiCorrelated));
    let tracer = Tracer::in_memory();
    let report = SkylineJob::new(Algorithm::MrAngle, 8)
        .with_tracer(tracer.clone())
        .run(&data);
    (tracer.drain(), report.metrics.sim_total)
}

#[test]
fn analyzer_names_the_hot_partition_and_blame_sums_to_wall_time() {
    let (events, reported_sim) = skewed_trace();
    assert!(
        mr_skyline_suite::trace::validate_events(&events).is_empty(),
        "trace must stay schema-valid with causal events"
    );

    // Ground truth straight from the runtime's own partition accounting,
    // independent of the analyzer's model building.
    let mut truth: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::PartitionLocalSkyline {
                partition, input, ..
            } => Some((*partition, *input)),
            _ => None,
        })
        .collect();
    assert!(
        !truth.is_empty(),
        "pipeline emitted no partition accounting"
    );
    truth.sort_by_key(|a| a.1);
    let (true_hot, true_rows) = *truth.last().unwrap();

    let run = RunModel::from_events(&events);
    assert_eq!(insight::check(&run), Ok(()));
    let reports = insight::skew(&run);
    assert_eq!(reports.len(), 1, "one partition-job run");
    let skew = &reports[0];
    assert_eq!(skew.hot_partition, true_hot, "wrong hot partition");
    assert_eq!(skew.hot_rows, true_rows);
    assert!(skew.row_gini > 0.0, "skewed data must show row skew");
    assert_eq!(
        skew.hot_kernel, "bnl",
        "hot-partition blame must name the (default) kernel that ran it"
    );

    // Critical path: blame tiles the run exactly, so it reproduces the
    // reported simulated wall time within the 1% acceptance bound (it is
    // exact by construction; 1% is the contract's slack).
    let cp = insight::critical_path(&run);
    let blamed: f64 = cp.phase_blame.values().sum();
    assert!(
        (blamed - reported_sim).abs() <= 0.01 * reported_sim,
        "blame {blamed} vs reported {reported_sim}"
    );
    assert!((cp.total - run.total_sim()).abs() < 1e-6 * (1.0 + cp.total));

    // The rendered reports name the hot partition for the operator.
    let cp_text = insight::report::render_critical_path(&run, &cp);
    assert!(cp_text.contains("phase blame"), "{cp_text}");
    let skew_text = insight::report::render_skew(&reports);
    assert!(
        skew_text.contains(&format!("hot partition: {true_hot} ")),
        "{skew_text}"
    );
}

#[test]
fn causal_edges_cover_every_runtime_layer() {
    let (events, _) = skewed_trace();
    let run = RunModel::from_events(&events);
    let counts = run.edge_counts();
    for kind in ["dispatch", "barrier", "shuffle", "chain"] {
        assert!(
            counts.get(kind).copied().unwrap_or(0) > 0,
            "missing `{kind}` edges: {counts:?}"
        );
    }
    // Every edge endpoint follows the node-id grammar.
    for e in &run.edges {
        for node in [&e.src, &e.dst] {
            assert!(
                node.starts_with("job:") || node.starts_with("phase:") || node.starts_with("task:"),
                "bad node id {node}"
            );
        }
    }
}

#[test]
fn stragglers_run_on_real_traces() {
    let (events, _) = skewed_trace();
    let run = RunModel::from_events(&events);
    // Flags depend on the data, but each one must be internally consistent.
    for s in insight::stragglers(&run, insight::DEFAULT_THRESHOLD) {
        assert!(s.ratio >= insight::DEFAULT_THRESHOLD);
        assert!(s.duration > s.median);
    }
}

/// A job name that runs twice (`mrsky sweep --servers 4,8`) gets a skew
/// report and a blame key per run, each read from that run's events only.
#[test]
fn rerun_traces_are_analyzed_per_run() {
    let data = generate_synthetic(&SyntheticConfig::new(4000, 4, Distribution::AntiCorrelated));
    let tracer = Tracer::in_memory();
    let mut sims = Vec::new();
    for servers in [4, 8] {
        let report = SkylineJob::new(Algorithm::MrAngle, servers)
            .with_tracer(tracer.clone())
            .run(&data);
        sims.push(report.metrics.sim_total);
    }
    let events = tracer.drain();

    // Ground truth per run, cut at each start of the partition job.
    let mut rows: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut reduce_durations: Vec<Vec<f64>> = Vec::new();
    for e in &events {
        match &e.kind {
            EventKind::JobStarted { job } if job == "MR-Angle-partition" => {
                rows.push(Vec::new());
                reduce_durations.push(Vec::new());
            }
            EventKind::PartitionLocalSkyline {
                partition, input, ..
            } => rows.last_mut().unwrap().push((*partition, *input)),
            EventKind::TaskFinished {
                job,
                phase: mr_skyline_suite::trace::PhaseKind::Reduce,
                sim_start,
                sim_end,
                ..
            } if job == "MR-Angle-partition" => {
                reduce_durations
                    .last_mut()
                    .unwrap()
                    .push(sim_end - sim_start);
            }
            _ => {}
        }
    }
    assert_eq!(rows.len(), 2);

    let run = RunModel::from_events(&events);
    let reports = insight::skew(&run);
    assert_eq!(reports.len(), 2, "one skew report per partition-job run");
    for (k, report) in reports.iter().enumerate() {
        let mut want = rows[k].clone();
        want.sort_unstable();
        assert_eq!(report.rows, want, "run {k}");
        let label = format!("MR-Angle-partition (run {} of 2)", k + 1);
        assert_eq!(report.run.as_deref(), Some(label.as_str()));
        let want_gini = insight::gini(&reduce_durations[k]);
        assert!((report.time_gini - want_gini).abs() < 1e-12, "run {k}");
    }
    assert_ne!(reports[0].rows.len(), reports[1].rows.len());
    let text = insight::report::render_skew(&reports);
    assert!(
        text.contains(&format!(
            "partition skew of MR-Angle-partition (run 2 of 2) ({} partitions):",
            rows[1].len()
        )),
        "{text}"
    );

    // Blame: each run of each job has its own keys, and each run's keys
    // sum to that run's share of the simulated wall time.
    let cp = insight::critical_path(&run);
    for (k, sim) in sims.iter().enumerate() {
        let blamed: f64 = cp
            .phase_blame
            .iter()
            .filter(|(key, _)| key.contains(&format!("(run {} of 2)/", k + 1)))
            .map(|(_, v)| v)
            .sum();
        assert!(
            (blamed - sim).abs() <= 1e-9 * (1.0 + sim),
            "run {k}: {blamed} vs {sim}"
        );
    }
    assert!(
        cp.phase_blame.keys().all(|key| key.contains(" of 2)/")),
        "{:?}",
        cp.phase_blame.keys()
    );
}
