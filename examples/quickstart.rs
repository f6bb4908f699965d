//! Five-minute tour: generate a QWS-like service registry, run the paper's
//! three MapReduce skyline algorithms on a simulated 8-server cluster, and
//! compare them on processing time and local skyline optimality.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{generate_qws, QwsConfig};
use mr_skyline_suite::skyline::verify::verify_skyline;

fn main() {
    // 5,000 web services with 6 QoS attributes (response time, price,
    // latency, availability, throughput, successability), oriented so lower
    // is better on every axis.
    let registry = generate_qws(&QwsConfig::new(5_000, 6));
    println!(
        "registry: {} services x {} attributes ({})\n",
        registry.len(),
        registry.dim(),
        registry.name
    );

    let servers = 8;
    println!("running MR-Dim / MR-Grid / MR-Angle on {servers} simulated servers...\n");
    for algorithm in Algorithm::paper_trio() {
        let report = SkylineJob::new(algorithm, servers).run(&registry);
        println!("{}", report.summary());

        // Every algorithm must produce the same skyline — only the cost of
        // getting there differs. Verify against an independent oracle.
        verify_skyline(registry.block(), &report.global_skyline)
            .expect("skyline must match the oracle");
    }

    println!("\nAll three algorithms agree with the sequential oracle.");
    println!("Note MR-Angle's highest local skyline optimality (LSO): its local");
    println!("winners are most likely to be globally optimal, which is the paper's");
    println!("headline quality effect. The time gaps widen with cardinality and");
    println!("dimensionality — see the fig5/fig6 harnesses in mr-skyline-bench.");
}
