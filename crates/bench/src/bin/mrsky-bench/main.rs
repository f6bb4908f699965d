//! `mrsky-bench`: the wall-clock benchmark of the MapReduce skyline engine
//! and its online service, end to end and layer by layer. README.md beside
//! this file has the metric glossary, the workloads and how to run and
//! compare.
//!
//! ```text
//! mrsky-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--results FILE] [--quick]
//! mrsky-bench [--seed N] [--seconds S] [--runs R] [--out FILE] [--quick]
//! mrsky-bench --compare BASE.json NEW.json
//! ```
//!
//! The first form runs one workload and prints every metric, then one JSON
//! line with the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). The second runs every workload, each in a child process
//! of its own, `R` times, and writes the result set. The third compares
//! two result sets.

mod batch;
mod compare;
mod reference;
mod report;
mod serve;
mod verify;

use batch::{BatchSpec, Data};
use mr_skyline::Algorithm;
use report::{file_hash, git_commit, host, Outcome, Res};
use serve::ServeSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Measured seconds per run unless `--seconds` says otherwise; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

enum Workload {
    Batch(BatchSpec),
    Serve(ServeSpec),
}

impl Workload {
    fn name(&self) -> &'static str {
        match self {
            Workload::Batch(b) => b.name,
            Workload::Serve(s) => s.name,
        }
    }
}

/// The four workloads; README.md says why each exists.
const WORKLOADS: [Workload; 4] = [
    Workload::Batch(BatchSpec {
        name: "qws-500k-d6",
        data: Data::Qws,
        rows: 500_000,
        dims: 6,
        algorithms: &[Algorithm::MrAngle],
    }),
    Workload::Batch(BatchSpec {
        name: "anti-100k-d6",
        data: Data::Anti,
        rows: 100_000,
        dims: 6,
        algorithms: &[Algorithm::MrAngle],
    }),
    Workload::Batch(BatchSpec {
        name: "fig5b-qws-100k-d10",
        data: Data::Qws,
        rows: 100_000,
        dims: 10,
        algorithms: &[Algorithm::MrDim, Algorithm::MrGrid, Algorithm::MrAngle],
    }),
    Workload::Serve(ServeSpec {
        name: "serve-churn-12k",
        ops: 12_000,
        tenants: 3,
        dims: 4,
        query_permille: 300,
        delete_permille: 250,
        rate: 2000.0,
        ladder: &[3000.0, 4000.0, 6000.0],
    }),
];

/// Settings of one workload run.
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Scratch directory for the workload's CSV files; removed afterwards.
    pub dir: PathBuf,
    pub epoch: Instant,
}

fn run_workload(name: &str, opts: &RunOpts) -> Res<Outcome> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    std::fs::create_dir_all(&opts.dir)?;
    let mut out = Outcome::default();
    let result = match workload {
        Workload::Batch(spec) => batch::run(spec, opts, &mut out),
        Workload::Serve(spec) => {
            serve::run(spec, opts, &mut out);
            Ok(())
        }
    };
    remove_work_dir(&opts.dir);
    result.map(|()| out)
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
    results: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        seconds: DEFAULT_SECONDS,
        runs: 1,
        ..Args::default()
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--runs" => {
                let v = value()?;
                args.runs = v.parse().map_err(|_| bad(&v))?;
            }
            "--results" => args.results = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--quick" => args.quick = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

/// Scratch space inside the working directory (the benchmark writes only
/// inside its checkout).
fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()))
}

/// Removes a scratch directory, and its parent once that is empty.
fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Runs one workload in this process and prints its metrics; the last line
/// is the JSON result.
fn child(name: &str, args: &Args) -> Res<bool> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        dir: work_dir(name),
        epoch: Instant::now(),
    };
    let out = run_workload(name, &opts)?;
    println!(
        "mrsky-bench {name} seed={} seconds={} trace={} quick={} threads={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        batch::THREADS
    );
    print!("{}", out.table());
    if let Some(path) = &args.results {
        std::fs::write(path, out.to_json(name, args.seed, args.seconds, args.quick))?;
    }
    println!("{}", out.result_line(args.trace));
    Ok(out.correct())
}

/// Runs every workload `runs` times, each in a child process, and writes
/// the result set.
fn all(args: &Args) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let dir = work_dir("all");
    std::fs::create_dir_all(&dir)?;
    let mut records = Vec::new();
    let mut correct = true;
    for r in 0..args.runs {
        // Variants use seed, seed + 1, seed + 2: keep runs apart.
        let seed = args.seed + 10 * r as u64;
        for w in &WORKLOADS {
            let results = dir.join(format!("{}-{r}.json", w.name()));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", "1"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--results")
                .arg(&results);
            if args.quick {
                cmd.arg("--quick");
            }
            let output = cmd.stderr(Stdio::inherit()).output()?;
            print!("{}", String::from_utf8_lossy(&output.stdout));
            correct &= output.status.success();
            match std::fs::read_to_string(&results) {
                Ok(text) => records.push(text),
                Err(e) => return Err(format!("{} wrote no results: {e}", w.name()).into()),
            }
        }
    }
    remove_work_dir(&dir);
    let h = host();
    let doc = format!(
        "{{\"meta\": {{\"nproc\": {}, \"cpu_model\": \"{}\", \"avx512f\": {}, \"threads\": {}, \
         \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"runs\": {}, \"benchmark_hash\": \"{}\", \
         \"git_commit\": \"{}\"}},\n\"runs\": [\n{}\n]}}\n",
        h.nproc,
        mrsky_trace::json::escape(&h.cpu_model),
        h.avx512f,
        batch::THREADS,
        args.seed,
        mrsky_trace::json::number(args.seconds),
        args.quick,
        args.runs,
        file_hash(Path::new("BENCHMARK.json")),
        git_commit(Path::new(".")),
        records.join(",\n")
    );
    let parsed = mrsky_trace::json::parse(&doc)?;
    print!("{}", compare::summary(&parsed));
    if let Some(path) = &args.out {
        std::fs::write(path, doc)?;
        println!("wrote {}", path.display());
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mrsky-bench: {e}\nsee the usage in README.md");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.compare, &args.workload) {
        (Some((base, new)), _) => compare::compare(base, new, Path::new("BENCHMARK.json")),
        (None, Some(name)) => child(name, &args),
        (None, None) => all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mrsky-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{E2E, LAYERS};
    use mrsky_trace::json::{parse, JsonValue};

    /// `--quick` on every workload, traced: every code path, the verifier
    /// and the trace and replay fidelity checks, in seconds.
    #[test]
    fn quick_mode_runs_every_workload_correctly() {
        for w in &WORKLOADS {
            let opts = RunOpts {
                seed: 7,
                seconds: 0.0,
                trace: true,
                quick: true,
                dir: std::env::temp_dir().join(format!(
                    "mrsky-bench-quick-{}-{}",
                    w.name(),
                    std::process::id()
                )),
                epoch: Instant::now(),
            };
            let out = run_workload(w.name(), &opts).unwrap();
            assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
            assert!(out.attempted > 0);
            for m in &E2E {
                assert!(
                    out.e2e[m.name] > 0.0,
                    "{}: {} is not positive",
                    w.name(),
                    m.name
                );
            }
            assert!(!out.spans.is_empty());
            let line = parse(&out.result_line(true)).unwrap();
            let JsonValue::Obj(metrics) = line.get("metrics").unwrap() else {
                panic!("metrics is not an object");
            };
            assert_eq!(metrics.len(), LAYERS.len());
        }
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the package");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let spec = parse(&text).unwrap();
        let list = |key: &str| match spec.get(key) {
            Some(JsonValue::Arr(items)) => items.clone(),
            _ => panic!("{key} is not a list"),
        };
        let names = |key: &str| -> Vec<String> {
            list(key)
                .iter()
                .map(|i| {
                    i.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(Workload::name).collect();
        assert_eq!(names("workloads"), workloads);
        for (key, defs) in [("end_to_end", &E2E[..]), ("per_layer", &LAYERS[..])] {
            let items = list(key);
            assert_eq!(items.len(), defs.len(), "{key}");
            for (item, def) in items.iter().zip(defs) {
                assert_eq!(item.get("name").and_then(JsonValue::as_str), Some(def.name));
                assert_eq!(item.get("unit").and_then(JsonValue::as_str), Some(def.unit));
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(item.get("better").and_then(JsonValue::as_str), Some(better));
            }
        }
        assert_eq!(
            spec.get("run_seconds").and_then(JsonValue::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload qws-500k-d6 --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("qws-500k-d6"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }
}
