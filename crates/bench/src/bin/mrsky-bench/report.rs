//! Metric tables, per-run outcome, statistics, JSON output and the host
//! probes (`/proc`) every workload shares.

use mrsky_trace::json::{escape, number};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric: its name, unit and which direction is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics, measured with tracing off and put at the reference
/// speed (`reference.rs`). Every workload reports every one of them;
/// README.md defines each per workload kind.
pub const E2E: [MetricDef; 3] = [
    lower("latency_ms", "ms"),
    higher("throughput_per_s", "1/s"),
    lower("setup_s", "s"),
];

/// Per-layer metrics from the traced pass. A layer that does not run on a
/// workload (serve layers on a batch query and the other way round)
/// reports 0.
pub const LAYERS: [MetricDef; 53] = [
    lower("query.median_ms", "ms"),
    lower("query.tail_ms", "ms"),
    lower("host.reference_ms", "ms"),
    lower("ingest.s", "s"),
    higher("ingest.rows_per_s", "1/s"),
    lower("partition.fit_s", "s"),
    lower("partition.assign_s", "s"),
    lower("partition.load_cv", "ratio"),
    lower("partition.max_share", "ratio"),
    lower("filter.s", "s"),
    higher("filter.drop_frac", "ratio"),
    higher("prune.frac", "ratio"),
    lower("map.s", "s"),
    lower("shuffle.s", "s"),
    lower("shuffle.records", "count"),
    lower("shuffle.bytes", "bytes"),
    lower("kernel.s", "s"),
    lower("kernel.cpu_s", "s"),
    lower("kernel.max_partition_s", "s"),
    lower("kernel.comparisons", "count"),
    lower("kernel.candidates", "count"),
    lower("merge.s", "s"),
    lower("merge.kernel_s", "s"),
    lower("merge.comparisons", "count"),
    higher("merge.lso", "ratio"),
    lower("driver.plan_s", "s"),
    lower("driver.residual_s", "s"),
    higher("executor.cpu_util", "ratio"),
    lower("process.peak_rss_mb", "MiB"),
    lower("sim.total_s", "sim_s"),
    lower("sim.map_s", "sim_s"),
    lower("sim.reduce_s", "sim_s"),
    higher("sim.over_wall", "ratio"),
    lower("oracle.verify_s", "s"),
    lower("serve.mutation_ms_p50", "ms"),
    lower("serve.mutation_ms_p99", "ms"),
    lower("serve.read_ms_p50", "ms"),
    lower("serve.read_ms_p99", "ms"),
    lower("serve.insert_ms_p50", "ms"),
    lower("serve.delete_ms_p99", "ms"),
    lower("serve.snapshot_points", "count"),
    lower("serve.stale_reads", "count"),
    lower("admission.shed", "count"),
    lower("breaker.rejected", "count"),
    lower("skyband.insert_us_p50", "us"),
    lower("skyband.delete_us_p99", "us"),
    lower("skyband.rebuilds", "count"),
    higher("skyband.repairs", "count"),
    lower("skyband.rebuild_frac", "ratio"),
    lower("serve.overhead_us_p50", "us"),
    lower("loadgen.late_ms_max", "ms"),
    lower("loadgen.backlog_ms", "ms"),
    higher("loadgen.max_rate_ops", "ops/s"),
];

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// One span of the traced pass: a call into one layer.
pub struct Span {
    pub name: &'static str,
    /// Spans of one traced query share this id.
    pub query: String,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// Records spans in memory, timed against the process epoch.
pub struct Spans {
    epoch: Instant,
    pub list: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            list: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn begin(&mut self, name: &'static str, query: &str) -> usize {
        let now = self.epoch.elapsed().as_secs_f64();
        self.list.push(Span {
            name,
            query: query.to_string(),
            parent: self.open.last().copied(),
            start_s: now,
            end_s: now,
        });
        self.open.push(self.list.len() - 1);
        self.list.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.epoch.elapsed().as_secs_f64();
        if let Some(s) = self.list.get_mut(id) {
            s.end_s = now;
        }
        // Closing a span closes any child left open by an unwind.
        if let Some(at) = self.open.iter().position(|&o| o == id) {
            self.open.truncate(at);
        }
    }

    /// Adds a span timed elsewhere (seconds since the epoch).
    pub fn record(
        &mut self,
        name: &'static str,
        query: &str,
        parent: Option<usize>,
        start_s: f64,
        end_s: f64,
    ) -> usize {
        self.list.push(Span {
            name,
            query: query.to_string(),
            parent,
            start_s,
            end_s,
        });
        self.list.len() - 1
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, query: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, query);
        let out = f();
        self.end(id);
        out
    }

    pub fn duration(&self, id: usize) -> f64 {
        self.list.get(id).map_or(0.0, |s| s.end_s - s.start_s)
    }

    /// Duration minus the time the span's direct children cover (children
    /// of one span never overlap: parallel work is one span).
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .list
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id))
            .map(|(i, _)| self.duration(i))
            .sum();
        self.duration(id) - children
    }

    /// The self time of the span named `name` under `parent`, or 0.
    pub fn child_self(&self, parent: usize, name: &str) -> f64 {
        self.list
            .iter()
            .position(|s| s.parent == Some(parent) && s.name == name)
            .map_or(0.0, |i| self.self_time(i))
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample count behind each percentile or median.
    pub samples: BTreeMap<&'static str, usize>,
    pub spans: Vec<Span>,
    /// Raw measurements in the order taken, for offline analysis.
    pub series: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    /// Counts one failed operation and keeps its description.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// A failed check that is not an operation (verification, fidelity).
    pub fn problem(&mut self, problem: String) {
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Nothing failed and something was tried.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    /// The one-line result the benchmark prints last.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            metrics_json(&LAYERS, &self.layers)
        } else {
            metrics_json(&E2E, &self.e2e)
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.correct(),
            self.attempted,
            self.failed,
        )
    }

    /// Human-readable table of every metric with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (title, defs, values) in [
            ("end-to-end", &E2E[..], &self.e2e),
            ("per-layer", &LAYERS[..], &self.layers),
        ] {
            let _ = writeln!(out, "  {title}:");
            for m in defs {
                let v = values.get(m.name).copied().unwrap_or(0.0);
                let n = self
                    .samples
                    .get(m.name)
                    .map(|n| format!("  (n={n})"))
                    .unwrap_or_default();
                let _ = writeln!(out, "    {:<26} {:>14.6} {:<6}{n}", m.name, v, m.unit);
            }
        }
        for p in &self.problems {
            let _ = writeln!(out, "  PROBLEM: {p}");
        }
        out
    }

    /// Full record of the run, written by `--results`.
    pub fn to_json(&self, workload: &str, seed: u64, seconds: f64, quick: bool) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let series: Vec<String> = self
            .series
            .iter()
            .map(|(k, v)| {
                let v: Vec<String> = v.iter().map(|x| number(*x)).collect();
                format!("\"{k}\": [{}]", v.join(", "))
            })
            .collect();
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", escape(p)))
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"query\": \"{}\", \"parent\": {}, \"start_s\": {}, \"end_s\": {}}}",
                    s.name,
                    escape(&s.query),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    number(s.start_s),
                    number(s.end_s)
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {}, \"quick\": {quick}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \
             \"e2e\": {}, \"layers\": {}, \"samples\": {{{}}}, \"series\": {{{}}}, \
             \"spans\": [{}]}}",
            escape(workload),
            number(seconds),
            self.correct(),
            self.attempted,
            self.failed,
            problems.join(", "),
            metrics_json(&E2E, &self.e2e),
            metrics_json(&LAYERS, &self.layers),
            samples.join(", "),
            series.join(", "),
            spans.join(",\n  ")
        )
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for every metric in `defs`;
/// a metric the run did not measure reads 0.
fn metrics_json(defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) -> String {
    let items: Vec<String> = defs
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(values.get(m.name).copied().unwrap_or(0.0)),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted values; 0 when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.saturating_sub(1).min(v.len().saturating_sub(1)))
        .copied()
        .unwrap_or(0.0)
}

/// The highest nearest-rank percentile that has at least ten samples
/// beyond it: the `(n - 10)`-th smallest of `n` values, or the median when
/// there are fewer than twenty.
pub fn tail(values: &[f64]) -> f64 {
    if values.len() < 20 {
        return median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() - 11]
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, which the benchmark's acceptance
/// rule uses. One value gives three equal quartiles; none gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            // Python clamps the rank to 1..=n-1 and extrapolates past it.
            let m = n as i64 + 1;
            let at = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = usize::try_from(j).unwrap_or(1);
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`; 0 where the file is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// `sysconf(_SC_CLK_TCK)` on every Linux target the benchmark runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host facts a comparison must hold fixed.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub avx512f: bool,
}

pub fn host() -> Host {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    Host {
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        cpu_model: field("model name").unwrap_or_else(|| "unknown".to_string()),
        avx512f: field("flags").is_some_and(|f| f.split_whitespace().any(|x| x == "avx512f")),
    }
}

/// FNV-1a 64 of a file's bytes, as `fnv64:<hex>`, or `none` when absent.
pub fn file_hash(path: &std::path::Path) -> String {
    match std::fs::read(path) {
        Ok(bytes) => {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            format!("fnv64:{h:016x}")
        }
        Err(_) => "none".to_string(),
    }
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `unknown` outside a repository.
pub fn git_commit(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(tail(&v), 20.0);
        // 30 down to 11: ten values, 21 to 30, lie beyond 20.
        assert_eq!(tail(&v[..20]), 20.0);
        assert_eq!(tail(&v[..19]), median(&v[..19]));
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut spans = Spans::new(Instant::now());
        let root = spans.begin("root", "q");
        let child = spans.begin("child", "q");
        spans.end(child);
        spans.end(root);
        spans.list[root].start_s = 0.0;
        spans.list[root].end_s = 1.0;
        spans.list[child].start_s = 0.25;
        spans.list[child].end_s = 0.75;
        assert_eq!(spans.list[child].parent, Some(root));
        assert!((spans.self_time(root) - 0.5).abs() < 1e-12);
        assert!((spans.child_self(root, "child") - 0.5).abs() < 1e-12);
    }
}
