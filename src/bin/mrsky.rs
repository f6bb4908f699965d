//! `mrsky` — command-line front end for the MapReduce skyline suite.
//!
//! ```text
//! mrsky generate --out services.csv --n 10000 --dims 6 [--dist qws|indep|corr|anti] [--seed 42]
//! mrsky skyline  --data services.csv [--algorithm angle|dim|grid|random|seq] [--servers 8] [--force]
//! mrsky compare  --data services.csv [--servers 8]
//! mrsky select   --data services.csv --weights 1,2,0.5 [--top 5] [--diverse K | --covering K]
//! ```
//!
//! Run any subcommand with `--help` for its flags. All randomness is seeded;
//! identical invocations produce identical output, with two exceptions:
//! wall-clock fields (a trace's `wall_us` and `wall_seconds` and what is
//! computed from them), and, at more than one thread
//! (`MRSKY_THREADS` ≠ 1), the `task_stolen` events a trace records, since
//! which tasks work stealing moves depends on thread timing.

use mr_skyline_suite::chaos::{FaultPlan, KillSwitch};
use mr_skyline_suite::mr::checkpoint::CheckpointStore;
use mr_skyline_suite::mr::dataset_fingerprint;
use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{
    generate_qws, generate_synthetic, Dataset, Distribution, QwsConfig, SyntheticConfig,
    QWS_ATTRIBUTES,
};
use mr_skyline_suite::serve::{
    load_script, LoadRunner, LoadgenConfig, Mutation, Op, ServeConfig, SkylineService,
};
use mr_skyline_suite::skyline::select::BlockKernel;
use mr_skyline_suite::skyline::verify::verify_skyline;
use mr_skyline_suite::trace::{self, EpochClock, RunModel, Tracer, VecSink};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Real wall-clock timestamps for interactive CLI runs. The runtime
/// crates themselves never read the wall clock (the `no-wall-clock`
/// lint enforces it); the CLI, as the outermost real-time consumer,
/// injects this clock into the tracer it owns.
struct WallClock {
    epoch: std::time::Instant,
}

impl EpochClock for WallClock {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

fn main() -> ExitCode {
    // The chaos kill switch aborts a run by panicking, and the resilient
    // driver catches it and resumes — an expected, recovered event. Print
    // one line for it instead of the default panic report; everything
    // else keeps the default hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let simulated = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("mrsky-chaos:"));
        if simulated {
            eprintln!("simulated crash: kill switch tripped; resuming from checkpoints");
        } else {
            default_hook(info);
        }
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let rest = &args[1..];
    let result = match command {
        "generate" => cmd_generate(rest),
        "skyline" => cmd_skyline(rest),
        "compare" => cmd_compare(rest),
        "select" => cmd_select(rest),
        "sweep" => cmd_sweep(rest),
        "trace" => cmd_trace(rest),
        "insight" => cmd_insight(rest),
        "chaos" => cmd_chaos(rest),
        "serve" => cmd_serve(rest),
        "loadgen" => cmd_loadgen(rest),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "mrsky — MapReduce skyline query processing (IPDPSW'12 reproduction)

USAGE:
  mrsky generate --out FILE [--n 10000] [--dims 6] [--dist qws|indep|corr|anti] [--seed 42]
  mrsky skyline  --data FILE [--algorithm angle|dim|grid|random|seq] [--servers 8] [--force]
  mrsky compare  --data FILE [--servers 8]
  mrsky select   --data FILE --weights W1,W2,... [--top 5] [--diverse K | --covering K]
                 [--algorithm angle] [--servers 8]
  mrsky sweep    --data FILE --servers 4,8,16,32 [--algorithm angle] [--json]
  mrsky trace    --summary FILE | --validate FILE | --chrome OUT FILE
  mrsky insight  [--critical-path] [--stragglers] [--skew] FILE
  mrsky chaos    plan --profile light|heavy [--seed 42] [--kill-after N] [--out FILE]
  mrsky chaos    replay --plan FILE --data FILE [--algorithm angle] [--servers 8]
  mrsky loadgen  [--seed 7] [--tenants 3] [--ops 400] [--dim 3] [--out FILE]
  mrsky serve    [--ops 400] [--seed 7] [--tenants 3] [--dim 3]
                 [--max-attempts N] [--breaker-threshold 3]
                 [--chaos-profile off|light|heavy] [--chaos-seed 42]
                 [--checkpoint-dir DIR] [--kill-after N] [--trace FILE] [--json]

Any command accepting --data FILE also accepts --qws-file FILE to read the
original QWS v2 dataset file (9 QoS columns + name + WSDL).

Pruning knobs (skyline / compare / sweep):
  --kernel NAME           local-skyline kernel: bnl (default), sfs, salsa,
                          or auto (per-partition cost-model selection)
  --filter-k N            broadcast N filter points to the map tasks and drop
                          dominated rows before the shuffle (default: 8*dims,
                          at least 16)
  --no-filter             disable the map-side filter sweep
  --no-sector-prune       disable witness-based partition pruning

Scale knobs (skyline / compare / sweep):
  --row-shuffle           disable the zero-copy block shuffle and ship every
                          routed block as a separate value (seed semantics)
  --spill-budget BYTES    spill reduce inputs larger than BYTES to disk after
                          the shuffle and reload them just-in-time
  --spill-dir DIR         directory for spill files (default: system temp)

Observability (skyline / compare / sweep):
  --trace FILE            record a structured event trace of the run
  --trace-format FORMAT   jsonl (replayable, default) or chrome
                          (load in Perfetto / chrome://tracing)
  --metrics               print Prometheus-format counters and histograms
                          (dominance tests, window overflows, SIMD dispatch,
                          local-skyline sizes) after the run

Fault injection & recovery (skyline):
  --chaos-profile NAME    arm a seeded fault plan: off (default), light, heavy
  --chaos-seed N          seed folded into every injection decision (default 42)
  --chaos-kill-after N    simulate a crash after N partition checkpoints, then
                          auto-resume (requires --checkpoint-dir)
  --checkpoint-dir DIR    persist per-partition local skylines for resume
  --resume                restore finished partitions from --checkpoint-dir
                          instead of recomputing them

`mrsky trace` replays a recorded JSONL trace: --summary renders per-phase
task/retry tables, --chrome converts to a Perfetto-loadable JSON file,
--validate checks event-schema invariants.

`mrsky insight` analyzes a recorded JSONL trace: --critical-path extracts
the longest weighted chain with per-phase blame summing to the simulated
wall time, --stragglers flags tasks slow against their phase median (with
steal-rescue marks), --skew scores per-partition row and kernel-time Gini
and names the hot partition. With no section flags, all sections print.

`mrsky chaos plan` writes a fault plan as JSON; `mrsky chaos replay` re-runs
a skyline job under a recorded plan and verifies the result against the
fault-free oracle — the exactness-under-failure contract, on demand.

`mrsky loadgen` prints a seeded, deterministic op script (tenant inserts,
deletes, poison payloads, queries) for the serving layer. `mrsky serve`
boots the fault-hardened incremental skyline service, drives that same
seeded workload through it (optionally under a chaos profile, optionally
crashing and resuming from --checkpoint-dir when --kill-after is set),
verifies every fresh response and the final quiesced skylines against a
recompute oracle, and reports request-path stats; --json emits the report
as one machine-readable JSON object for CI.

Every subcommand refuses a `--` argument it does not read.";

/// Input flags of every command that reads a dataset.
const DATA_FLAGS: &[&str] = &["--data", "--qws-file"];
/// Flags read by [`pruning_opts`].
const PRUNING_FLAGS: &[&str] = &[
    "--kernel",
    "--filter-k",
    "--no-filter",
    "--no-sector-prune",
    "--row-shuffle",
    "--spill-budget",
    "--spill-dir",
];
/// Flags read by [`trace_opts`].
const TRACE_FLAGS: &[&str] = &["--trace", "--trace-format", "--metrics"];
/// Flags read by [`chaos_opts`].
const CHAOS_FLAGS: &[&str] = &["--chaos-profile", "--chaos-seed", "--chaos-kill-after"];
/// Flags read by [`loadgen_opts`].
const LOADGEN_FLAGS: &[&str] = &["--seed", "--tenants", "--ops", "--dim"];

/// Refuses the first `--` argument that is in none of `known`, so a
/// misspelt or retired flag is an error instead of a silent no-op.
fn check_flags(args: &[String], known: &[&[&str]]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.iter().any(|set| set.contains(&a.as_str())))
    {
        Some(unknown) => Err(format!("unknown flag {unknown}")),
        None => Ok(()),
    }
}

/// The value after `name`, or `None` when `name` is absent. A value flag
/// given last, or followed by another `--` argument, is an error rather
/// than a silent default or a flag swallowed as the value.
fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        _ => Err(format!("{name} needs a value")),
    }
}

fn flag_usize(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(v) => v
            .replace('_', "")
            .parse()
            .map_err(|_| format!("{name} expects an integer, got `{v}`")),
    }
}

/// The simulated cluster cannot exist with zero servers; refuse up front
/// instead of letting `ClusterConfig` abort.
fn flag_servers(args: &[String]) -> Result<usize, String> {
    let servers = flag_usize(args, "--servers", 8)?;
    if servers == 0 {
        return Err("--servers must be at least 1".into());
    }
    Ok(servers)
}

/// Parses `--chaos-profile`, `--chaos-seed`, and `--chaos-kill-after` into
/// a [`FaultPlan`] (the plan is `off` when no chaos flag is given).
fn chaos_opts(args: &[String]) -> Result<FaultPlan, String> {
    let profile = flag(args, "--chaos-profile")?.unwrap_or_else(|| "off".into());
    let seed = flag_usize(args, "--chaos-seed", 42)? as u64;
    let mut plan = FaultPlan::profile(&profile, seed)
        .ok_or_else(|| format!("unknown chaos profile `{profile}` (expected off|light|heavy)"))?;
    if let Some(n) = flag(args, "--chaos-kill-after")? {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("--chaos-kill-after expects an integer, got `{n}`"))?;
        plan.kill_after_checkpoints = Some(n);
    }
    Ok(plan)
}

/// Parses the pruning knobs shared by `skyline`, `compare`, and `sweep`
/// into an [`AlgoConfig`]: `--filter-k N` pins the broadcast filter size,
/// `--no-filter` disables the map-side filter sweep, `--no-sector-prune`
/// disables witness-based partition pruning.
fn pruning_opts(args: &[String]) -> Result<AlgoConfig, String> {
    let mut config = AlgoConfig::default();
    if let Some(k) = flag(args, "--kernel")? {
        config.kernel = match k.as_str() {
            "auto" => None,
            _ => Some(
                BlockKernel::parse(&k)
                    .ok_or_else(|| format!("unknown kernel `{k}` (expected bnl|sfs|salsa|auto)"))?,
            ),
        };
    }
    if let Some(k) = flag(args, "--filter-k")? {
        let k: usize = k
            .parse()
            .map_err(|_| format!("--filter-k expects an integer, got `{k}`"))?;
        config.filter_k = Some(k);
    }
    if args.iter().any(|a| a == "--no-filter") {
        config.filter_k = Some(0);
    }
    if args.iter().any(|a| a == "--no-sector-prune") {
        config.sector_prune = false;
    }
    if args.iter().any(|a| a == "--row-shuffle") {
        config.owned_shuffle = false;
    }
    if let Some(b) = flag(args, "--spill-budget")? {
        let b: u64 = b
            .replace('_', "")
            .parse()
            .map_err(|_| format!("--spill-budget expects a byte count, got `{b}`"))?;
        config.spill_budget_bytes = Some(b);
    }
    if let Some(dir) = flag(args, "--spill-dir")? {
        if config.spill_budget_bytes.is_none() {
            return Err("--spill-dir needs --spill-budget BYTES".into());
        }
        config.spill_dir = Some(PathBuf::from(dir));
    }
    Ok(config)
}

fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    match s {
        "angle" => Ok(Algorithm::MrAngle),
        "dim" => Ok(Algorithm::MrDim),
        "grid" => Ok(Algorithm::MrGrid),
        "random" => Ok(Algorithm::MrRandom),
        "seq" | "sequential" => Ok(Algorithm::Sequential),
        other => Err(format!(
            "unknown algorithm `{other}` (expected angle|dim|grid|random|seq)"
        )),
    }
}

fn load_data(args: &[String]) -> Result<Dataset, String> {
    if let Some(path) = flag(args, "--qws-file")? {
        // the real QWS v2 distribution file
        return mr_skyline_suite::qws::load_qws_file(PathBuf::from(&path).as_path())
            .map_err(|e| format!("cannot load QWS file `{path}`: {e}"));
    }
    let path = flag(args, "--data")?.ok_or("--data FILE (or --qws-file FILE) is required")?;
    let path_buf = PathBuf::from(&path);
    // Named by its file name, so the checkpoint fingerprint (which hashes
    // the name) does not depend on how the path was typed.
    let name = path_buf
        .file_name()
        .map_or_else(|| path.clone(), |n| n.to_string_lossy().into_owned());
    Dataset::load_csv(name, path_buf.as_path()).map_err(|e| format!("cannot load `{path}`: {e}"))
}

/// The message for a run that did not run: the audit's findings with the
/// `--force` hint, or the checkpoint directory's fault.
fn run_error_text(e: &RunError) -> String {
    match e {
        RunError::Audit(audit) => format!(
            "plan audit found error-level diagnostics (re-run with --force to override):\n{}",
            audit.render_text()
        ),
        RunError::Checkpoint { .. } => e.render_text(),
    }
}

/// Observability flags shared by `skyline`, `compare`, and `sweep`.
struct TraceOpts {
    tracer: Tracer,
    out: Option<(PathBuf, String)>,
    metrics: bool,
}

/// Parses `--trace FILE`, `--trace-format jsonl|chrome`, and `--metrics`.
/// Enables the process-global metrics registry when `--metrics` is given so
/// kernels record before the run starts.
fn trace_opts(args: &[String]) -> Result<TraceOpts, String> {
    let metrics = args.iter().any(|a| a == "--metrics");
    if metrics {
        trace::metrics().set_enabled(true);
    }
    let out = match flag(args, "--trace")? {
        None => None,
        Some(path) => {
            let format = flag(args, "--trace-format")?.unwrap_or_else(|| "jsonl".into());
            if format != "jsonl" && format != "chrome" {
                return Err(format!(
                    "--trace-format expects jsonl or chrome, got `{format}`"
                ));
            }
            Some((PathBuf::from(path), format))
        }
    };
    let tracer = if out.is_some() {
        Tracer::with_clock(
            Box::new(VecSink::new()),
            Box::new(WallClock {
                epoch: std::time::Instant::now(),
            }),
        )
    } else {
        Tracer::disabled()
    };
    Ok(TraceOpts {
        tracer,
        out,
        metrics,
    })
}

impl TraceOpts {
    /// Writes the recorded trace (if any) and prints the metrics exposition
    /// (if enabled). Call once, after the instrumented run.
    fn finish(&self) -> Result<(), String> {
        if let Some((path, format)) = &self.out {
            let events = self.tracer.drain();
            let text = if format == "chrome" {
                trace::to_chrome_trace(&events)
            } else {
                let mut s = String::with_capacity(events.len() * 96);
                for e in &events {
                    s.push_str(&e.to_json());
                    s.push('\n');
                }
                s
            };
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write trace to `{}`: {e}", path.display()))?;
            eprintln!(
                "wrote {} trace events to {} ({format})",
                events.len(),
                path.display()
            );
        }
        if self.metrics {
            print!("{}", trace::metrics().snapshot().to_prometheus());
        }
        Ok(())
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    check_flags(args, &[&["--out", "--n", "--dims", "--seed", "--dist"]])?;
    let out = flag(args, "--out")?.ok_or("--out FILE is required")?;
    let n = flag_usize(args, "--n", 10_000)?;
    let dims = flag_usize(args, "--dims", 6)?;
    let seed = flag_usize(args, "--seed", 42)? as u64;
    let dist = flag(args, "--dist")?.unwrap_or_else(|| "qws".to_string());
    check_generate_shape(n, dims, &dist)?;
    let data = match dist.as_str() {
        "qws" => generate_qws(&QwsConfig::new(n, dims).with_seed(seed)),
        "indep" => generate_synthetic(
            &SyntheticConfig::new(n, dims, Distribution::Independent).with_seed(seed),
        ),
        "corr" => generate_synthetic(
            &SyntheticConfig::new(n, dims, Distribution::Correlated).with_seed(seed),
        ),
        "anti" => generate_synthetic(
            &SyntheticConfig::new(n, dims, Distribution::AntiCorrelated).with_seed(seed),
        ),
        other => return Err(format!("unknown distribution `{other}`")),
    };
    data.save_csv(PathBuf::from(&out).as_path())
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!(
        "wrote {} services x {} attributes to {out} ({})",
        data.len(),
        data.dim(),
        data.name
    );
    Ok(())
}

/// Rejects sizes the generators cannot produce: at least one row and one
/// attribute, and at most as many attributes as QWS defines for `qws`.
fn check_generate_shape(n: usize, dims: usize, dist: &str) -> Result<(), String> {
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    if dims == 0 {
        return Err("--dims must be at least 1".into());
    }
    if dist == "qws" && dims > QWS_ATTRIBUTES.len() {
        return Err(format!(
            "--dims must be at most {} for --dist qws, got {dims}",
            QWS_ATTRIBUTES.len()
        ));
    }
    Ok(())
}

fn cmd_skyline(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            DATA_FLAGS,
            PRUNING_FLAGS,
            TRACE_FLAGS,
            CHAOS_FLAGS,
            &[
                "--algorithm",
                "--servers",
                "--force",
                "--checkpoint-dir",
                "--resume",
            ],
        ],
    )?;
    let data = load_data(args)?;
    let algorithm = parse_algorithm(&flag(args, "--algorithm")?.unwrap_or_else(|| "angle".into()))?;
    let servers = flag_servers(args)?;
    let force = args.iter().any(|a| a == "--force");
    let topts = trace_opts(args)?;
    let chaos = chaos_opts(args)?;
    let checkpoint_dir = flag(args, "--checkpoint-dir")?;
    let resume = args.iter().any(|a| a == "--resume");
    if chaos.kill_after_checkpoints.is_some() && checkpoint_dir.is_none() {
        return Err("--chaos-kill-after needs --checkpoint-dir DIR to resume from".into());
    }
    if resume && checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir DIR".into());
    }
    if chaos.is_active() {
        eprintln!(
            "chaos armed: seed {}, {} rule(s), retry budget {}{}",
            chaos.seed,
            chaos.rules.len(),
            chaos.max_attempts,
            match chaos.kill_after_checkpoints {
                Some(n) => format!(", kill after {n} checkpoint(s)"),
                None => String::new(),
            }
        );
    }
    let mut job = SkylineJob::new(algorithm, servers)
        .with_config(pruning_opts(args)?)
        .with_force(force)
        .with_tracer(topts.tracer.clone())
        .with_chaos(chaos)
        .with_resume(resume);
    if let Some(dir) = checkpoint_dir {
        job = job.with_checkpoints(dir);
    }
    // resilient run: identical to run_checked without chaos, and
    // kill/resume-aware with it
    let report = job.run_resilient(&data).map_err(|e| run_error_text(&e))?;
    println!("{}", report.summary());
    println!(
        "partitions: {} (load CV {:.2}, largest {}), pruned: {}, rows filtered: {}",
        report.partitions,
        report.load_balance.cv,
        report.load_balance.max,
        report.pruned_partitions,
        report.rows_filtered
    );
    println!(
        "peak memory: map-out {} B, reduce-in {} B",
        report.peak_map_out_bytes(),
        report.peak_reduce_in_bytes()
    );
    println!("input fingerprint: {:016x}", dataset_fingerprint(&data));
    topts
        .tracer
        .span("validate", || {
            verify_skyline(data.block(), &report.global_skyline)
        })
        .map_err(|e| format!("result failed validation: {e}"))?;
    println!("validated against the independent oracle.");
    topts.finish()
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[DATA_FLAGS, PRUNING_FLAGS, TRACE_FLAGS, &["--servers"]],
    )?;
    let data = load_data(args)?;
    let servers = flag_servers(args)?;
    let topts = trace_opts(args)?;
    let config = pruning_opts(args)?;
    for algorithm in Algorithm::paper_trio() {
        let report = SkylineJob::new(algorithm, servers)
            .with_config(config.clone())
            .with_tracer(topts.tracer.clone())
            .run(&data);
        println!("{}", report.summary());
    }
    topts.finish()
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            DATA_FLAGS,
            PRUNING_FLAGS,
            TRACE_FLAGS,
            &["--algorithm", "--servers", "--json"],
        ],
    )?;
    let data = load_data(args)?;
    let algorithm = parse_algorithm(&flag(args, "--algorithm")?.unwrap_or_else(|| "angle".into()))?;
    let servers: Vec<usize> = flag(args, "--servers")?
        .unwrap_or_else(|| "4,8,16,32".into())
        .split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(0) | Err(_) => Err(format!("bad server count `{s}` (must be at least 1)")),
            Ok(n) => Ok(n),
        })
        .collect::<Result<_, _>>()?;
    let json = args.iter().any(|a| a == "--json");
    let config = pruning_opts(args)?;
    let topts = trace_opts(args)?;
    if !json {
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>8}",
            "servers", "map (s)", "reduce (s)", "total (s)", "skyline"
        );
    }
    for &n in &servers {
        let report = SkylineJob::new(algorithm, n)
            .with_config(config.clone())
            .with_tracer(topts.tracer.clone())
            .run(&data);
        if json {
            println!("{}", report.to_json());
        } else {
            println!(
                "{:<8} {:>10.1} {:>10.1} {:>10.1} {:>8}",
                n,
                report.map_time(),
                report.reduce_time(),
                report.processing_time(),
                report.global_skyline.len()
            );
        }
    }
    topts.finish()
}

/// Replays a recorded JSONL trace: summary table, Chrome conversion, or
/// schema validation.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    check_flags(args, &[&["--summary", "--validate", "--chrome"]])?;
    let chrome_out = flag(args, "--chrome")?;
    let validate = args.iter().any(|a| a == "--validate");
    // the input file is the last operand that is neither a flag nor the
    // --chrome output path
    let input = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && args.get(i.wrapping_sub(1)).map(String::as_str) != Some("--chrome")
        })
        .map(|(_, a)| a.clone())
        .next_back()
        .ok_or("usage: mrsky trace --summary FILE | --validate FILE | --chrome OUT FILE")?;
    let text =
        std::fs::read_to_string(&input).map_err(|e| format!("cannot read trace `{input}`: {e}"))?;
    let events = trace::parse_jsonl(&text).map_err(|e| format!("`{input}`: {e}"))?;

    if validate {
        let problems = trace::validate_events(&events);
        if !problems.is_empty() {
            for p in &problems {
                eprintln!("invalid: {p}");
            }
            return Err(format!(
                "{} schema violation(s) in {} events",
                problems.len(),
                events.len()
            ));
        }
        println!("{} events, schema valid", events.len());
        return Ok(());
    }
    if let Some(out) = chrome_out {
        let json = trace::to_chrome_trace(&events);
        std::fs::write(&out, json).map_err(|e| format!("cannot write `{out}`: {e}"))?;
        println!(
            "wrote Chrome trace for {} events to {out} (open in Perfetto or chrome://tracing)",
            events.len()
        );
        return Ok(());
    }
    // default (and --summary): the human-readable report
    print!("{}", RunModel::from_events(&events).summary());
    Ok(())
}

/// Analyzes a recorded JSONL trace: critical path, stragglers and
/// partition skew. Section flags select sections; with none given, all
/// sections print.
fn cmd_insight(args: &[String]) -> Result<(), String> {
    use mr_skyline_suite::insight;
    check_flags(args, &[&["--critical-path", "--stragglers", "--skew"]])?;
    let want_cp = args.iter().any(|a| a == "--critical-path");
    let want_stragglers = args.iter().any(|a| a == "--stragglers");
    let want_skew = args.iter().any(|a| a == "--skew");
    let all = !(want_cp || want_stragglers || want_skew);
    let input = args
        .iter()
        .rfind(|a| !a.starts_with("--"))
        .ok_or("usage: mrsky insight [--critical-path] [--stragglers] [--skew] FILE")?;
    let text =
        std::fs::read_to_string(input).map_err(|e| format!("cannot read trace `{input}`: {e}"))?;
    let events = trace::parse_jsonl(&text).map_err(|e| format!("`{input}`: {e}"))?;
    let run = RunModel::from_events(&events);
    insight::check(&run).map_err(|e| format!("`{input}`: {e}"))?;
    if all || want_cp {
        let cp = insight::critical_path(&run);
        print!("{}", insight::report::render_critical_path(&run, &cp));
    }
    if all || want_stragglers {
        let list = insight::stragglers(&run, insight::DEFAULT_THRESHOLD);
        print!("{}", insight::report::render_stragglers(&list));
    }
    if all || want_skew {
        print!("{}", insight::report::render_skew(&insight::skew(&run)));
    }
    Ok(())
}

/// `mrsky chaos plan` writes a seeded fault plan as JSON; `mrsky chaos
/// replay` re-runs a skyline job under a recorded plan and verifies the
/// result against the fault-free oracle.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let usage = "usage: mrsky chaos plan --profile light|heavy [--seed 42] [--kill-after N] \
                 [--out FILE]\n       mrsky chaos replay --plan FILE --data FILE \
                 [--algorithm angle] [--servers 8] [--checkpoint-dir DIR]";
    match args.first().map(String::as_str) {
        Some("plan") => {
            let rest = &args[1..];
            check_flags(rest, &[&["--profile", "--seed", "--kill-after", "--out"]])?;
            let profile = flag(rest, "--profile")?.unwrap_or_else(|| "light".into());
            let seed = flag_usize(rest, "--seed", 42)? as u64;
            let mut plan = FaultPlan::profile(&profile, seed).ok_or_else(|| {
                format!("unknown chaos profile `{profile}` (expected off|light|heavy)")
            })?;
            if let Some(n) = flag(rest, "--kill-after")? {
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("--kill-after expects an integer, got `{n}`"))?;
                plan.kill_after_checkpoints = Some(n);
            }
            let json = plan.to_json();
            match flag(rest, "--out")? {
                Some(out) => {
                    std::fs::write(&out, format!("{json}\n"))
                        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
                    eprintln!("wrote {profile} fault plan (seed {seed}) to {out}");
                }
                None => println!("{json}"),
            }
            Ok(())
        }
        Some("replay") => {
            let rest = &args[1..];
            check_flags(
                rest,
                &[
                    DATA_FLAGS,
                    &["--plan", "--algorithm", "--servers", "--checkpoint-dir"],
                ],
            )?;
            let plan_path = flag(rest, "--plan")?.ok_or("--plan FILE is required")?;
            let text = std::fs::read_to_string(&plan_path)
                .map_err(|e| format!("cannot read plan `{plan_path}`: {e}"))?;
            let plan =
                FaultPlan::from_json(text.trim()).map_err(|e| format!("`{plan_path}`: {e}"))?;
            let data = load_data(rest)?;
            let algorithm =
                parse_algorithm(&flag(rest, "--algorithm")?.unwrap_or_else(|| "angle".into()))?;
            let servers = flag_servers(rest)?;
            let checkpoint_dir = flag(rest, "--checkpoint-dir")?;
            if plan.kill_after_checkpoints.is_some() && checkpoint_dir.is_none() {
                return Err(
                    "the plan kills the run after checkpoints; replay needs --checkpoint-dir DIR"
                        .into(),
                );
            }
            eprintln!(
                "replaying fault plan from {plan_path}: seed {}, {} rule(s), retry budget {}",
                plan.seed,
                plan.rules.len(),
                plan.max_attempts
            );
            let mut job = SkylineJob::new(algorithm, servers).with_chaos(plan);
            if let Some(dir) = checkpoint_dir {
                job = job.with_checkpoints(dir);
            }
            let report = job.run_resilient(&data).map_err(|e| run_error_text(&e))?;
            println!("{}", report.summary());
            verify_skyline(data.block(), &report.global_skyline)
                .map_err(|e| format!("chaos run diverged from the fault-free oracle: {e}"))?;
            println!("chaos run matches the fault-free oracle exactly.");
            Ok(())
        }
        _ => Err(usage.into()),
    }
}

/// Parses the workload-shape flags shared by `serve` and `loadgen`.
fn loadgen_opts(args: &[String]) -> Result<LoadgenConfig, String> {
    Ok(LoadgenConfig {
        seed: flag_usize(args, "--seed", 7)? as u64,
        tenants: flag_usize(args, "--tenants", 3)?.max(1),
        operations: flag_usize(args, "--ops", 400)? as u64,
        dim: flag_usize(args, "--dim", 3)?.max(1),
        ..LoadgenConfig::default()
    })
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    check_flags(args, &[LOADGEN_FLAGS, &["--out"]])?;
    let cfg = loadgen_opts(args)?;
    let ops = load_script(&cfg);
    let mut text = String::new();
    for op in &ops {
        match op {
            Op::Query { tenant } => text.push_str(&format!("query {tenant}\n")),
            Op::Mutate {
                tenant,
                seq,
                mutation: Mutation::Insert { id, coords },
            } => {
                let coords = coords
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                text.push_str(&format!("insert {tenant} {seq} {id} {coords}\n"));
            }
            Op::Mutate {
                tenant,
                seq,
                mutation: Mutation::Delete { id },
            } => text.push_str(&format!("delete {tenant} {seq} {id}\n")),
        }
    }
    match flag(args, "--out")? {
        Some(out) => {
            std::fs::write(&out, text).map_err(|e| format!("cannot write `{out}`: {e}"))?;
            eprintln!(
                "wrote {} ops (seed {}, {} tenant(s)) to {out}",
                ops.len(),
                cfg.seed,
                cfg.tenants
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    check_flags(
        args,
        &[
            LOADGEN_FLAGS,
            CHAOS_FLAGS,
            &[
                "--max-attempts",
                "--breaker-threshold",
                "--checkpoint-dir",
                "--kill-after",
                "--trace",
                "--json",
            ],
        ],
    )?;
    let load_cfg = loadgen_opts(args)?;
    let plan = chaos_opts(args)?;
    let mut serve_cfg = ServeConfig {
        max_attempts: flag_usize(args, "--max-attempts", 0)? as u32,
        ..ServeConfig::default()
    };
    serve_cfg.breaker.failure_threshold = flag_usize(args, "--breaker-threshold", 3)?.max(1) as u32;
    let checkpoint_dir = flag(args, "--checkpoint-dir")?;
    let kill_after = match flag(args, "--kill-after")? {
        None => None,
        Some(n) => Some(
            n.parse::<u64>()
                .map_err(|_| format!("--kill-after expects an integer, got `{n}`"))?,
        ),
    };
    if kill_after.is_some() && checkpoint_dir.is_none() {
        return Err("--kill-after needs --checkpoint-dir DIR to resume from".into());
    }
    let trace_out = flag(args, "--trace")?;
    let json = args.iter().any(|a| a == "--json");

    let build = |kill: Option<Arc<KillSwitch>>| -> Result<SkylineService, String> {
        let tracer = if trace_out.is_some() {
            Tracer::in_memory()
        } else {
            Tracer::disabled()
        };
        let mut service = SkylineService::new(serve_cfg.clone(), plan.clone(), tracer);
        if let Some(dir) = &checkpoint_dir {
            let store = CheckpointStore::open(dir)
                .map_err(|e| format!("cannot open checkpoint dir `{dir}`: {e}"))?;
            service = service
                .with_store(store)
                .map_err(|e| format!("cannot restore from `{dir}`: {e}"))?;
        }
        if let Some(kill) = kill {
            service = service.with_kill_switch(kill);
        }
        Ok(service)
    };

    let ops = load_script(&load_cfg);
    let mut runner = LoadRunner::new(ops);
    let mut events = Vec::new();
    let mut crashes = 0u64;
    // Arm the kill switch for the first boot only: the simulated crash
    // fires once, and the resumed service runs the log to completion.
    let mut kill = kill_after.map(|n| Arc::new(KillSwitch::new(n)));
    let (report, stats) = loop {
        let service = build(kill.take())?;
        let outcome = catch_unwind(AssertUnwindSafe(|| runner.drive(&service)));
        events.extend(service.tracer().drain());
        match outcome {
            Ok(()) => {
                let stats = service.stats();
                let report = runner.finish(&service);
                events.extend(service.tracer().drain());
                if service.dead_letter_len() > 0 && !json {
                    eprint!("{}", service.dead_letter_report());
                }
                break (report, stats);
            }
            Err(payload) => {
                let simulated = payload
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.starts_with("mrsky-chaos:"));
                if !simulated {
                    resume_unwind(payload);
                }
                // The runner is still positioned at the interrupted op;
                // the next iteration rebuilds the service from its
                // checkpoints and re-drives from there.
                crashes += 1;
            }
        }
    };

    if let Some(path) = trace_out {
        let mut text = String::with_capacity(events.len() * 96);
        for e in &events {
            text.push_str(&e.to_json());
            text.push('\n');
        }
        std::fs::write(&path, text).map_err(|e| format!("cannot write trace to `{path}`: {e}"))?;
        eprintln!("wrote {} trace events to {path}", events.len());
    }

    let rejections: u64 = report.rejections.values().sum();
    if json {
        let rej = report
            .rejections
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{{\"ops\":{},\"mutations_ok\":{},\"queries_fresh\":{},\"queries_stale\":{},\
             \"incorrect\":{},\"final_mismatches\":{},\"rejections\":{{{rej}}},\
             \"shed\":{},\"breaker_opens\":{},\"dead_lettered\":{},\"retries_exhausted\":{},\
             \"deadline_exceeded\":{},\"checkpoints\":{},\"repairs\":{},\"crashes\":{crashes}}}",
            report.ops,
            report.mutations_ok,
            report.queries_fresh,
            report.queries_stale,
            report.incorrect,
            report.final_mismatches,
            stats.shed,
            stats.breaker_opens,
            stats.dead_lettered,
            stats.retries_exhausted,
            stats.deadline_exceeded,
            stats.checkpoints,
            stats.repairs,
        );
    } else {
        println!(
            "served {} op(s) across {} tenant(s): {} mutation(s) ok, {} fresh / {} stale quer(ies), \
             {} typed rejection(s)",
            report.ops, load_cfg.tenants, report.mutations_ok, report.queries_fresh,
            report.queries_stale, rejections
        );
        for (outcome, n) in &report.rejections {
            println!("  rejected {n} as {outcome}");
        }
        println!(
            "hardening: {} shed, {} breaker open(s), {} dead-letter(s), {} retries-exhausted, \
             {} deadline-exceeded, {} checkpoint(s), {} crash(es)",
            stats.shed,
            stats.breaker_opens,
            stats.dead_lettered,
            stats.retries_exhausted,
            stats.deadline_exceeded,
            stats.checkpoints,
            crashes
        );
        println!(
            "repairs: {} deletion(s) recomputed a local skyline",
            stats.repairs
        );
    }
    if report.incorrect > 0 || report.final_mismatches > 0 {
        return Err(format!(
            "correctness violation: {} incorrect fresh response(s), {} final mismatch(es)",
            report.incorrect, report.final_mismatches
        ));
    }
    if !json {
        println!("every fresh response and final skyline matched the recompute oracle.");
    }
    Ok(())
}

fn cmd_select(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            DATA_FLAGS,
            &[
                "--servers",
                "--algorithm",
                "--weights",
                "--top",
                "--diverse",
                "--covering",
            ],
        ],
    )?;
    let data = load_data(args)?;
    let servers = flag_servers(args)?;
    let algorithm = parse_algorithm(&flag(args, "--algorithm")?.unwrap_or_else(|| "angle".into()))?;
    let weights = parse_weights(
        &flag(args, "--weights")?.ok_or("--weights W1,W2,... is required")?,
        data.dim(),
    )?;
    let top = flag_usize(args, "--top", 5)?;
    let summary = if let Some(k) = flag(args, "--diverse")? {
        Summary::Diverse(k.parse().map_err(|_| "--diverse expects an integer")?)
    } else if let Some(k) = flag(args, "--covering")? {
        Summary::MaxDominance(k.parse().map_err(|_| "--covering expects an integer")?)
    } else {
        Summary::Full
    };
    let request = SelectionRequest {
        weights,
        top_k: top,
        summary,
    };
    let result = ServiceSelector::new(algorithm, servers).select(&data, &request);
    println!(
        "skyline: {} of {} services; showing {}:",
        result.skyline_size,
        data.len(),
        result.ranked.len()
    );
    for (rank, (service, score)) in result.ranked.iter().enumerate() {
        let coords: Vec<String> = service.coords().iter().map(|v| format!("{v:.2}")).collect();
        println!(
            "  #{:<2} service {:<8} score {:.4}  [{}]",
            rank + 1,
            service.id(),
            score,
            coords.join(", ")
        );
    }
    Ok(())
}

/// Parses `--weights W1,W2,...`: one finite, non-negative weight per
/// attribute of the dataset.
fn parse_weights(spec: &str, dims: usize) -> Result<Vec<f64>, String> {
    let weights: Vec<f64> = spec
        .split(',')
        .map(|w| {
            let w = w.trim();
            match w.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
                Ok(_) => Err(format!("weight `{w}` must be finite and non-negative")),
                Err(_) => Err(format!("bad weight `{w}`")),
            }
        })
        .collect::<Result<_, _>>()?;
    if weights.len() != dims {
        return Err(format!(
            "{} weights given but the dataset has {dims} attributes",
            weights.len()
        ));
    }
    Ok(weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_rejects_zero_rows() {
        let err = check_generate_shape(0, 6, "qws").unwrap_err();
        assert!(err.contains("--n"), "{err}");
    }

    #[test]
    fn generate_rejects_zero_dims_for_every_distribution() {
        for dist in ["qws", "indep", "corr", "anti"] {
            let err = check_generate_shape(100, 0, dist).unwrap_err();
            assert!(err.contains("--dims"), "{dist}: {err}");
        }
    }

    #[test]
    fn generate_caps_qws_dims_at_the_attribute_count() {
        let max = QWS_ATTRIBUTES.len();
        assert!(check_generate_shape(100, max, "qws").is_ok());
        let err = check_generate_shape(100, max + 1, "qws").unwrap_err();
        assert!(err.contains(&format!("at most {max}")), "{err}");
        assert!(check_generate_shape(100, max + 1, "indep").is_ok());
    }

    #[test]
    fn data_is_named_by_its_file_name_however_the_path_is_typed() {
        let dir = std::env::temp_dir().join(format!("mrsky-cli-name-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        generate_qws(&QwsConfig::new(50, 3))
            .save_csv(&dir.join("small.csv"))
            .unwrap();
        let load = |path: PathBuf| {
            let args = vec!["--data".to_string(), path.to_string_lossy().into_owned()];
            load_data(&args).unwrap()
        };
        let plain = load(dir.join("small.csv"));
        let dotted = load(dir.join(".").join("small.csv"));
        assert_eq!(plain.name, "small.csv");
        assert_eq!(dotted.name, "small.csv");
        assert_eq!(dataset_fingerprint(&plain), dataset_fingerprint(&dotted));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        let args = |v: &[&str]| v.iter().map(ToString::to_string).collect::<Vec<_>>();
        let known: &[&[&str]] = &[DATA_FLAGS, &["--servers"]];
        assert!(check_flags(&args(&["--data", "f.csv", "--servers", "2"]), known).is_ok());
        assert_eq!(
            check_flags(&args(&["--data", "f.csv", "--serverz", "2"]), known),
            Err("unknown flag --serverz".to_string())
        );
        assert_eq!(
            check_flags(&args(&["--filter_k", "0"]), &[PRUNING_FLAGS]),
            Err("unknown flag --filter_k".to_string())
        );
    }

    #[test]
    fn value_flags_refuse_a_missing_value() {
        let args = |v: &[&str]| v.iter().map(ToString::to_string).collect::<Vec<_>>();
        let given = args(&["--trace", "--data", "f.csv", "--servers"]);
        assert_eq!(flag(&given, "--data"), Ok(Some("f.csv".to_string())));
        assert_eq!(flag(&given, "--algorithm"), Ok(None));
        assert_eq!(
            flag(&given, "--servers"),
            Err("--servers needs a value".to_string())
        );
        assert_eq!(
            flag(&given, "--trace"),
            Err("--trace needs a value".to_string())
        );
        assert_eq!(
            flag_servers(&given),
            Err("--servers needs a value".to_string())
        );
    }

    #[test]
    fn weights_must_be_finite_and_non_negative() {
        for spec in ["NaN,1,1", "-1,1,1", "inf,1,1"] {
            let err = parse_weights(spec, 3).unwrap_err();
            assert!(err.contains("finite and non-negative"), "{spec}: {err}");
        }
        assert_eq!(parse_weights("0, 1.5,2", 3), Ok(vec![0.0, 1.5, 2.0]));
        assert!(parse_weights("x,1,1", 3)
            .unwrap_err()
            .contains("bad weight"));
        assert!(parse_weights("1,1", 3).unwrap_err().contains("2 weights"));
    }
}
