//! End-to-end integration: every algorithm, every dataset family, checked
//! against independent oracles, at reduced scale.

use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{
    generate_qws, generate_synthetic, Distribution, QwsConfig, SyntheticConfig,
};
use mr_skyline_suite::skyline::seq::naive_skyline_ids;
use mr_skyline_suite::skyline::verify::verify_skyline;

fn sky_ids(report: &SkylineRunReport) -> Vec<u64> {
    let mut ids: Vec<u64> = report
        .global_skyline
        .iter()
        .map(mr_skyline_suite::skyline::point::Point::id)
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn all_algorithms_all_distributions_match_oracle() {
    let datasets = vec![
        generate_qws(&QwsConfig::new(800, 4)),
        generate_synthetic(&SyntheticConfig::new(800, 3, Distribution::Independent)),
        generate_synthetic(&SyntheticConfig::new(800, 3, Distribution::Correlated)),
        generate_synthetic(&SyntheticConfig::new(400, 2, Distribution::AntiCorrelated)),
    ];
    for data in &datasets {
        let oracle = naive_skyline_ids(data.points());
        for alg in [
            Algorithm::MrDim,
            Algorithm::MrGrid,
            Algorithm::MrAngle,
            Algorithm::MrRandom,
            Algorithm::Sequential,
        ] {
            let report = SkylineJob::new(alg, 4).run(data);
            assert_eq!(sky_ids(&report), oracle, "{alg} on {}", data.name);
            verify_skyline(data.block(), &report.global_skyline)
                .unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
    }
}

#[test]
fn dimension_projection_pipeline() {
    // the figure harness workflow: one master dataset, projected per d
    let master = generate_qws(&QwsConfig::new(600, 10));
    for d in [2usize, 5, 10] {
        let data = master.project(d);
        let report = SkylineJob::new(Algorithm::MrAngle, 4).run(&data);
        assert_eq!(report.dimensions, d);
        assert_eq!(sky_ids(&report), naive_skyline_ids(data.points()), "d={d}");
    }
}

#[test]
fn runs_are_bitwise_deterministic() {
    let data = generate_qws(&QwsConfig::new(500, 5));
    for alg in Algorithm::paper_trio() {
        let a = SkylineJob::new(alg, 8).run(&data);
        let b = SkylineJob::new(alg, 8).run(&data);
        assert_eq!(sky_ids(&a), sky_ids(&b));
        assert_eq!(a.metrics.sim_total, b.metrics.sim_total, "{alg}");
        assert_eq!(a.optimality, b.optimality);
        assert_eq!(a.partition_counts, b.partition_counts);
    }
}

#[test]
fn host_thread_count_does_not_change_results() {
    let data = generate_qws(&QwsConfig::new(400, 4));
    let mut single = SkylineJob::new(Algorithm::MrAngle, 8);
    single.threads = 1;
    let mut many = SkylineJob::new(Algorithm::MrAngle, 8);
    many.threads = 8;
    let a = single.run(&data);
    let b = many.run(&data);
    assert_eq!(sky_ids(&a), sky_ids(&b));
    assert_eq!(a.metrics.sim_total, b.metrics.sim_total);
}

#[test]
fn report_quantities_are_consistent() {
    let data = generate_qws(&QwsConfig::new(700, 4));
    let report = SkylineJob::new(Algorithm::MrAngle, 4).run(&data);
    assert_eq!(report.cardinality, 700);
    assert_eq!(report.servers, 4);
    assert_eq!(report.partition_counts.iter().sum::<usize>(), 700);
    assert_eq!(report.partition_counts.len(), report.partitions);
    assert!((0.0..=1.0).contains(&report.optimality));
    assert!(report.merge_candidates() >= report.global_skyline.len());
    assert!(report.processing_time() >= report.map_time() + report.reduce_time());
    assert!(report.metrics.shuffle_bytes > 0);
    // local skylines cover the global skyline
    let local: std::collections::HashSet<u64> = report
        .local_skylines
        .iter()
        .flat_map(|(_, v)| v.iter().map(mr_skyline_suite::skyline::point::Point::id))
        .collect();
    assert!(report
        .global_skyline
        .iter()
        .all(|p| local.contains(&p.id())));
}

#[test]
fn sequential_baseline_is_slower_than_parallel() {
    let data = generate_qws(&QwsConfig::new(20_000, 6));
    let seq = SkylineJob::new(Algorithm::Sequential, 1).run(&data);
    let par = SkylineJob::new(Algorithm::MrAngle, 8).run(&data);
    assert!(
        seq.processing_time() > par.processing_time(),
        "sequential {:.1}s should exceed 8-server {:.1}s",
        seq.processing_time(),
        par.processing_time()
    );
    assert_eq!(sky_ids(&seq), sky_ids(&par));
}

#[test]
fn paper_headline_effects_at_scale() {
    // a mid-size version of the Fig.5(b)/Fig.7(b) cells: at d=8+ the angular
    // method must beat both baselines on simulated time and optimality
    let data = generate_qws(&QwsConfig::new(20_000, 8));
    let dim = SkylineJob::new(Algorithm::MrDim, 8).run(&data);
    let grid = SkylineJob::new(Algorithm::MrGrid, 8).run(&data);
    let angle = SkylineJob::new(Algorithm::MrAngle, 8).run(&data);
    assert!(
        angle.processing_time() <= dim.processing_time(),
        "angle {:.1}s vs dim {:.1}s",
        angle.processing_time(),
        dim.processing_time()
    );
    assert!(
        angle.processing_time() <= grid.processing_time(),
        "angle {:.1}s vs grid {:.1}s",
        angle.processing_time(),
        grid.processing_time()
    );
    assert!(angle.optimality > dim.optimality);
    assert!(angle.optimality > grid.optimality);
    // and the angular partitioning balances load best
    assert!(angle.load_balance.cv < dim.load_balance.cv);
    assert!(angle.load_balance.cv < grid.load_balance.cv);
}
