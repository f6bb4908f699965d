//! Dynamic registries: services come and go (the paper's UDDI churn
//! scenario, Section II). A [`MaintainedRegistry`] keeps the skyline live by
//! touching only the affected partition per event, and this example measures
//! how much cheaper that is than recomputing from scratch.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::dataset::{update_stream, Update};
use mr_skyline_suite::qws::{generate_qws, QwsConfig};
use mr_skyline_suite::skyline::block::PointBlock;
use mr_skyline_suite::skyline::kernel::{block_bnl_stats, BnlConfig};
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::skyline::seq::naive_skyline_ids;

fn main() {
    let registry_data = generate_qws(&QwsConfig::new(10_000, 4));
    let events = update_stream(&registry_data, 500, 0.6, 0.08, 42);

    // --- incremental maintenance ---
    let mut registry = MaintainedRegistry::bootstrap(Algorithm::MrAngle, 8, &registry_data)
        .expect("partitioner fit");
    let bootstrap_comparisons = registry.comparisons();
    println!(
        "bootstrapped {} services, skyline {} ({} comparisons)\n",
        registry.len(),
        registry.skyline().len(),
        bootstrap_comparisons
    );

    let mut skyline_changes = 0usize;
    for event in &events {
        if registry.apply(event) {
            skyline_changes += 1;
        }
    }
    let incremental_comparisons = registry.comparisons() - bootstrap_comparisons;
    let (adds, removals, _) = registry.churn_stats();
    println!(
        "applied {} events ({adds} adds, {removals} removals); skyline changed {skyline_changes} times",
        events.len()
    );
    println!(
        "incremental cost: {incremental_comparisons} comparisons ({} per event)\n",
        incremental_comparisons / events.len() as u64
    );

    // --- the "traditional approach": recompute after every event ---
    let mut live = registry_data.points().to_vec();
    let mut batch_comparisons = 0u64;
    for event in &events {
        match event {
            Update::Add(p) => live.push(p.clone()),
            Update::Remove(id) => {
                if let Some(pos) = live.iter().position(|p| p.id() == *id) {
                    live.swap_remove(pos);
                }
            }
        }
        let block = PointBlock::from_points(&live).expect("the registry never drains");
        let (_, stats) = block_bnl_stats(&block, &BnlConfig::default());
        batch_comparisons += stats.comparisons;
    }
    println!(
        "batch recomputation cost: {batch_comparisons} comparisons ({} per event)",
        batch_comparisons / events.len() as u64
    );
    println!(
        "\nincremental maintenance is {:.0}x cheaper per event",
        batch_comparisons as f64 / incremental_comparisons as f64
    );

    // Consistency check: the maintained skyline equals the oracle skyline.
    let mut maintained: Vec<u64> = registry.skyline().iter().map(Point::id).collect();
    maintained.sort_unstable();
    assert_eq!(
        maintained,
        naive_skyline_ids(&live),
        "maintained skyline must equal the oracle skyline"
    );
    println!("consistency check passed: maintained skyline == oracle skyline");
}
