//! CLI front-end for the audit layers.
//!
//! ```text
//! mrsky-audit lint [--root DIR] [--allowlist FILE] [--print-baseline]
//!                  [--enforce-ratchet] [--json]
//! mrsky-audit plan --scheme dim|grid|angle|random [--dims N] [--partitions N]
//!                  [--servers N] [--reducers N] [--grid-pruning]
//!                  [--filter-k N] [--sector-prune] [--json]
//! mrsky-audit codes
//! ```
//!
//! Exit code 0 when clean, 1 on violations/error diagnostics, 2 on usage
//! errors — so CI can gate directly on the process status.

use mini_mapreduce::{ClusterConfig, CostModel};
use mrsky_audit::diag::Code;
use mrsky_audit::lint::{run_lint, LintConfig};
use mrsky_audit::plan::{audit_plan, PlanSpec};
use skyline_algos::partition::{
    AnglePartitioner, Bounds, DimPartitioner, GridPartitioner, RandomPartitioner,
};
use skyline_algos::SpacePartitioner;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("codes") => cmd_codes(),
        _ => {
            eprintln!("usage: mrsky-audit <lint|plan|codes> [options]");
            ExitCode::from(2)
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let root = PathBuf::from(flag_value(args, "--root").unwrap_or("."));
    let print_baseline = flag_present(args, "--print-baseline");
    // Baseline regeneration wants the raw findings, so it runs with no
    // allowances. Every other mode resolves an allowlist — explicit or
    // the workspace default — and a missing file is a hard usage error
    // inside run_lint, never a silent zero-allowance pass.
    let allowlist = if print_baseline {
        None
    } else {
        Some(
            flag_value(args, "--allowlist")
                .map(PathBuf::from)
                .unwrap_or_else(|| root.join("lint-baseline.txt")),
        )
    };
    let config = LintConfig { root, allowlist };
    let report = match run_lint(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint failed: {e}");
            return ExitCode::from(2);
        }
    };
    if print_baseline {
        print!("{}", report.baseline());
        return ExitCode::SUCCESS;
    }
    print!("{}", report.render_text());
    let clean = if flag_present(args, "--enforce-ratchet") {
        report.is_clean_strict()
    } else {
        report.is_clean()
    };
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_plan(args: &[String]) -> ExitCode {
    let scheme = flag_value(args, "--scheme").unwrap_or("angle");
    let dims: usize = flag_value(args, "--dims")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let partitions: usize = flag_value(args, "--partitions")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let servers: usize = flag_value(args, "--servers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let bounds = Bounds::zero_to(100.0, dims.max(1));

    let partitioner: Box<dyn SpacePartitioner> = match scheme {
        "dim" => match DimPartitioner::fit(&bounds, partitions) {
            Ok(p) => Box::new(p),
            Err(e) => return fit_error(e),
        },
        "grid" => match GridPartitioner::fit(&bounds, partitions) {
            Ok(p) => Box::new(p),
            Err(e) => return fit_error(e),
        },
        "angle" => match AnglePartitioner::fit(&bounds, partitions) {
            Ok(p) => Box::new(p),
            Err(e) => return fit_error(e),
        },
        "random" => match RandomPartitioner::new(dims.max(1), partitions) {
            Ok(p) => Box::new(p),
            Err(e) => return fit_error(e),
        },
        other => {
            eprintln!("unknown scheme `{other}` (expected dim|grid|angle|random)");
            return ExitCode::from(2);
        }
    };

    let cluster = ClusterConfig::new(servers.max(1));
    let cost = CostModel::default();
    let reducers = flag_value(args, "--reducers")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| partitioner.num_partitions());
    let spec = PlanSpec {
        partitioner: partitioner.as_ref(),
        bounds: &bounds,
        cluster: &cluster,
        cost: &cost,
        reducers_job1: reducers,
        grid_pruning: flag_present(args, "--grid-pruning"),
        filter_k: flag_value(args, "--filter-k")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        sector_prune: flag_present(args, "--sector-prune"),
        threads: 2,
        bnl_window: None,
    };
    let report = audit_plan(&spec);
    if flag_present(args, "--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn fit_error(e: skyline_algos::SkylineError) -> ExitCode {
    eprintln!("partitioner fit failed: {e}");
    ExitCode::FAILURE
}

fn cmd_codes() -> ExitCode {
    println!("{:<8} description", "code");
    for c in Code::all() {
        println!("{:<8} {}", c.as_str(), c.description());
    }
    ExitCode::SUCCESS
}
