//! Design-choice ablations beyond the paper, over the DESIGN.md list:
//!
//! 1. partition-count policy (`k × nodes` for k ∈ {1, 2, 4, 8});
//! 2. local-skyline kernel (BNL vs SFS);
//! 3. MR-Grid dominated-cell pruning on/off (at d = 2, where it is sound);
//! 4. MR-Angle split strategy (quantile vs equal-width);
//! 5. random-partitioning baseline vs the geometric schemes (the `shufMB`
//!    column gives the shuffle volume of each scheme);
//! 6. BNL window size;
//! 7. fairness: quantile-balanced MR-Dim/MR-Grid baselines.
//!
//! The merge stage is always Algorithm 1's single reducer.
//!
//! ```text
//! cargo run --release -p mr-skyline-bench --bin ablations -- --cardinality 20000 --dims 6
//! ```

use mr_skyline::prelude::*;
use mr_skyline_bench::{arg_usize, master_dataset, SWEEP_SERVERS};
use skyline_algos::select::BlockKernel;

fn line(tag: &str, r: &SkylineRunReport) {
    println!(
        "{:<34} sim {:>7.1}s (map {:>6.1} red {:>6.1}) cand {:>6} LSO {:>5.3} shufMB {:>6.2}",
        tag,
        r.processing_time(),
        r.map_time(),
        r.reduce_time(),
        r.merge_candidates(),
        r.optimality,
        r.metrics.shuffle_bytes as f64 / 1e6,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg_usize(&args, "--cardinality", 20_000);
    let d = arg_usize(&args, "--dims", 6);
    let servers = arg_usize(&args, "--servers", SWEEP_SERVERS);
    let data = master_dataset(n).project(d);
    println!("=== Ablations on qws(n={n}, d={d}), {servers} servers ===\n");

    println!("--- 1. partition-count policy (MR-Angle, partitions = k x nodes) ---");
    for k in [1usize, 2, 4, 8] {
        let mut job = SkylineJob::new(Algorithm::MrAngle, servers);
        job.config.partitions_per_node = k;
        line(&format!("partitions_per_node={k}"), &job.run(&data));
    }

    println!("\n--- 2. local kernel (MR-Angle) ---");
    for (name, kernel) in [("BNL (paper)", BlockKernel::Bnl), ("SFS", BlockKernel::Sfs)] {
        let mut job = SkylineJob::new(Algorithm::MrAngle, servers);
        job.config.kernel = Some(kernel);
        line(name, &job.run(&data));
    }

    println!("\n--- 3. MR-Grid dominated-cell pruning (at d=2, all dims split) ---");
    let data2 = master_dataset(n).project(2);
    for (name, pruning) in [("pruning ON (paper)", true), ("pruning OFF", false)] {
        let mut job = SkylineJob::new(Algorithm::MrGrid, servers);
        job.config.grid_pruning = pruning;
        let r = job.run(&data2);
        println!(
            "{:<34} sim {:>7.1}s reduce_work {:>10} pruned {:>2}/{:<3}",
            name,
            r.processing_time(),
            r.metrics.reduce.work_units,
            r.pruned_partitions,
            r.partitions
        );
    }

    println!("\n--- 4. MR-Angle split strategy ---");
    for (name, quantile) in [
        ("quantile (default)", true),
        ("equal-width (Fig. 3c)", false),
    ] {
        let mut job = SkylineJob::new(Algorithm::MrAngle, servers);
        job.config.angle_quantile = quantile;
        let r = job.run(&data);
        println!(
            "{:<34} sim {:>7.1}s load CV {:>5.2} max {:>6} LSO {:>5.3}",
            name,
            r.processing_time(),
            r.load_balance.cv,
            r.load_balance.max,
            r.optimality
        );
    }

    println!("\n--- 5. geometric vs random partitioning ---");
    for alg in [
        Algorithm::MrDim,
        Algorithm::MrGrid,
        Algorithm::MrAngle,
        Algorithm::MrRandom,
        Algorithm::Sequential,
    ] {
        line(alg.name(), &SkylineJob::new(alg, servers).run(&data));
    }

    println!("\n--- 6. BNL window size (MR-Angle) ---");
    for window in [None, Some(4096), Some(512), Some(64)] {
        let mut job = SkylineJob::new(Algorithm::MrAngle, servers);
        job.config.bnl_window = window;
        let tag = match window {
            None => "window = unbounded".to_string(),
            Some(w) => format!("window = {w}"),
        };
        line(&tag, &job.run(&data));
    }

    println!("\n--- 7. fairness: quantile-balanced baselines ---");
    for (name, alg, quantile) in [
        ("MR-Dim equal-width (paper)", Algorithm::MrDim, false),
        ("MR-Dim quantile slabs", Algorithm::MrDim, true),
        ("MR-Grid equal-width (paper)", Algorithm::MrGrid, false),
        ("MR-Grid quantile cells", Algorithm::MrGrid, true),
        ("MR-Angle quantile (reference)", Algorithm::MrAngle, false),
    ] {
        let mut job = SkylineJob::new(alg, servers);
        job.config.baseline_quantile = quantile;
        let r = job.run(&data);
        println!(
            "{:<34} sim {:>7.1}s load CV {:>5.2} cand {:>6} LSO {:>5.3}",
            name,
            r.processing_time(),
            r.load_balance.cv,
            r.merge_candidates(),
            r.optimality
        );
    }

    println!("\ndone.");
}
