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
    let skew = insight::skew(&run).expect("partition job present");
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
    let skew_text = insight::report::render_skew(&skew);
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
