//! Scalability study in miniature (the paper's Figure 6): how the MR-Angle
//! processing time decomposes into Map and Reduce as the simulated cluster
//! grows — including the saturation past ~24 servers the paper reports.
//!
//! The cluster is *simulated*: task durations come from instrumented
//! counters and a Hadoop-era cost model, so you can "rent" 32 servers on a
//! laptop. The computation itself runs for real on your cores.
//!
//! ```text
//! cargo run --release --example cluster_scalability
//! ```

use mr_skyline_suite::mapreduce::scheduler::schedule_phase;
use mr_skyline_suite::mapreduce::timeline::render_timeline;
use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{generate_qws, QwsConfig};

fn bar(len: f64, scale: f64, ch: char) -> String {
    std::iter::repeat_n(ch, (len * scale) as usize).collect()
}

fn main() {
    let registry = generate_qws(&QwsConfig::new(50_000, 10));
    println!(
        "MR-Angle over {} services x {} attributes; partitions = 2 x servers\n",
        registry.len(),
        registry.dim()
    );
    println!(
        "{:<8} {:>9} {:>9} {:>9}   (m = map, r = reduce)",
        "servers", "map", "reduce", "total"
    );

    let mut first_total = None;
    for servers in [4usize, 8, 12, 16, 20, 24, 28, 32] {
        let report = SkylineJob::new(Algorithm::MrAngle, servers).run(&registry);
        let (m, r, t) = (
            report.map_time(),
            report.reduce_time(),
            report.processing_time(),
        );
        let scale = 0.35;
        println!(
            "{:<8} {:>8.1}s {:>8.1}s {:>8.1}s   {}{}",
            servers,
            m,
            r,
            t,
            bar(m, scale, 'm'),
            bar(r, scale, 'r'),
        );
        first_total.get_or_insert(t);
    }

    let report4 = SkylineJob::new(Algorithm::MrAngle, 4).run(&registry);
    let report32 = SkylineJob::new(Algorithm::MrAngle, 32).run(&registry);

    // Gantt view of the 4-server map phase: the same task durations the
    // simulator scheduled, re-placed deterministically for display. Each row
    // is a map slot; digits are task indices; waves are visible as columns.
    println!(
        "
map-phase Gantt at 4 servers (8 slots, digits = task index mod 10):"
    );
    let schedule = schedule_phase(&report4.metrics.map.task_durations, 4 * 2, 0.0);
    print!("{}", render_timeline(&schedule, 64));
    println!(
        "\n4 -> 32 servers: {:.1}s -> {:.1}s ({:.0}% faster). The Map waves shrink",
        report4.processing_time(),
        report32.processing_time(),
        100.0 * (1.0 - report32.processing_time() / report4.processing_time()),
    );
    println!("with the cluster while the single-reducer merge does not — which is");
    println!("exactly the saturation the paper observes beyond ~24 servers.");
}
