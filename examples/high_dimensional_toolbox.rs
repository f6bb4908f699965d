//! What to do when the skyline itself explodes: at 10 QoS attributes the
//! paper measures thousands of "optimal" services. This example runs the
//! post-processing toolbox on one dataset:
//!
//! * the skyline under hash (MR-Random) vs angular (MR-Angle) partitioning,
//!   both checked against the sequential oracle,
//! * k-dominant skylines (services good on at least k of d attributes),
//! * top-k dominating services,
//! * k representatives (coverage + diversity).
//!
//! ```text
//! cargo run --release --example high_dimensional_toolbox
//! ```

use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{generate_qws, QwsConfig};
use mr_skyline_suite::skyline::kdominant::k_dominant_skyline;
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::skyline::representative::{
    distance_based_representatives, max_dominance_representatives,
};
use mr_skyline_suite::skyline::seq::naive_skyline_ids;
use mr_skyline_suite::skyline::topk::top_k_dominating;

fn main() {
    let d = 8;
    let registry = generate_qws(&QwsConfig::new(30_000, d));
    println!("{} services x {d} attributes\n", registry.len());

    // --- the skyline job, two partitioning schemes ---
    let oracle = naive_skyline_ids(registry.points());
    let mut reports = Vec::new();
    for algorithm in [Algorithm::MrRandom, Algorithm::MrAngle] {
        let t0 = std::time::Instant::now();
        let report = SkylineJob::new(algorithm, 8).run(&registry);
        let wall = t0.elapsed().as_secs_f64();
        let ids: Vec<u64> = report.global_skyline.iter().map(Point::id).collect();
        assert_eq!(
            ids,
            oracle,
            "{} disagrees with the oracle",
            algorithm.name()
        );
        reports.push((report, wall));
    }
    let skyline = &reports[0].0.global_skyline;
    println!(
        "skyline: {} services ({:.1}% of the registry)",
        skyline.len(),
        100.0 * skyline.len() as f64 / registry.len() as f64
    );
    for (report, wall) in &reports {
        println!(
            "  {:<9} {:>8} merge candidates, {:.3}s wall",
            report.algorithm.name(),
            report.merge_candidates(),
            wall
        );
    }

    // --- k-dominant skylines shrink the answer ---
    println!(
        "\nk-dominant skylines (within the {}-point skyline):",
        skyline.len()
    );
    for k in (d - 3..=d).rev() {
        let kd = k_dominant_skyline(skyline, k);
        println!("  k = {k:>2}: {:>6} services survive", kd.len());
    }

    // --- top dominators ---
    println!("\ntop-5 dominating services (how much of the registry each beats):");
    for entry in top_k_dominating(registry.points(), 5) {
        println!(
            "  service {:<6} dominates {:>6} services ({:.1}%)",
            entry.point.id(),
            entry.dominated,
            100.0 * entry.dominated as f64 / registry.len() as f64
        );
    }

    // --- representatives ---
    let covering = max_dominance_representatives(skyline, registry.points(), 5);
    let diverse = distance_based_representatives(skyline, 5);
    println!(
        "\n5 covering representatives: {:?}",
        covering.iter().map(Point::id).collect::<Vec<_>>()
    );
    println!(
        "5 diverse representatives:  {:?}",
        diverse.iter().map(Point::id).collect::<Vec<_>>()
    );
}
