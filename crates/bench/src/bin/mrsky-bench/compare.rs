//! `--compare BASE.json NEW.json`: per workload, the failures on both
//! sides, then each end-to-end metric's median and quartiles on both sides
//! and a verdict under the bounds in `BENCHMARK.json`. A time gained by
//! failing does not count: more failures, or an incorrect run, on the new
//! side is a regression whatever the times say.

use crate::report::{file_hash, quartiles, MetricDef, Res, E2E};
use mrsky_trace::json::{parse, JsonValue};
use std::fmt::Write as _;
use std::path::Path;

/// Meta fields two result sets must share before their numbers compare.
const MUST_MATCH: [&str; 9] = [
    "nproc",
    "cpu_model",
    "avx512f",
    "threads",
    "seed",
    "seconds",
    "quick",
    "runs",
    "benchmark_hash",
];

/// How a metric moved from one side to the other.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound, or the new side has
    /// fewer values than the base.
    Unresolved,
}

/// Applies the benchmark's rule to one metric. `bound` is the share of the
/// base median by which the new median may be worse. Runs pair by index.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, def: &MetricDef) -> Verdict {
    if base.is_empty() || new.len() < base.len() {
        return Verdict::Unresolved;
    }
    let (bq1, bm, bq3) = quartiles(base);
    let (nq1, nm, nq3) = quartiles(new);
    // `worse(a, b)`: `a` is worse than `b` in this metric's direction.
    let worse = |a: f64, b: f64| if def.higher_is_better { a < b } else { a > b };
    let spread = |q1: f64, m: f64, q3: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let every_new_better = new.iter().all(|&n| base.iter().all(|&b| worse(b, n)));
    if spread(bq1, bm, bq3) > bound || spread(nq1, nm, nq3) > bound {
        return if every_new_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let change = if def.higher_is_better {
        bm - nm
    } else {
        nm - bm
    };
    if bm != 0.0 && change / bm.abs() > bound {
        return Verdict::Regressed;
    }
    let pairs = base.len().min(new.len());
    let wins = base.iter().zip(new).filter(|(&b, &n)| worse(b, n)).count();
    if -change > bq3 - bq1 && pairs > 0 && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Res<JsonValue> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

fn runs(doc: &JsonValue) -> &[JsonValue] {
    match doc.get("runs") {
        Some(JsonValue::Arr(runs)) => runs,
        _ => &[],
    }
}

/// Workload names in first-seen order, over every document given.
fn workloads(docs: &[&JsonValue]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for run in docs.iter().flat_map(|d| runs(d)) {
        if let Some(w) = run.get("workload").and_then(JsonValue::as_str) {
            if !names.iter().any(|n| n == w) {
                names.push(w.to_string());
            }
        }
    }
    names
}

/// What one side did on one workload: runs, operations attempted and
/// failed, and runs whose checks did not all hold.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    pub runs: u64,
    pub attempted: u64,
    pub failed: u64,
    pub incorrect: u64,
}

fn failures(doc: &JsonValue, workload: &str) -> Failures {
    let mut f = Failures::default();
    for r in runs(doc)
        .iter()
        .filter(|r| r.get("workload").and_then(JsonValue::as_str) == Some(workload))
    {
        let count = |key| r.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        f.runs += 1;
        f.attempted += count("attempted");
        f.failed += count("failed");
        f.incorrect += u64::from(r.get("correct").and_then(JsonValue::as_bool) != Some(true));
    }
    f
}

/// The new side regressed if it ran less, failed more, or has any
/// incorrect run; it is unresolved if the base itself has one.
pub fn failure_verdict(base: &Failures, new: &Failures) -> Verdict {
    if new.runs < base.runs || new.incorrect > 0 || new.failed > base.failed {
        Verdict::Regressed
    } else if base.runs == 0 || base.incorrect > 0 {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// The values of one end-to-end metric across a workload's runs.
fn values(doc: &JsonValue, workload: &str, metric: &str) -> Vec<f64> {
    runs(doc)
        .iter()
        .filter(|r| r.get("workload").and_then(JsonValue::as_str) == Some(workload))
        .filter_map(|r| r.get("e2e")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Median and quartiles of each end-to-end metric of a result set.
pub fn summary(doc: &JsonValue) -> String {
    let mut out = String::new();
    for w in workloads(&[doc]) {
        let f = failures(doc, &w);
        let _ = writeln!(
            out,
            "{w}: {} failed of {} attempted, {} incorrect of {} runs",
            f.failed, f.attempted, f.incorrect, f.runs
        );
        for m in &E2E {
            let v = values(doc, &w, m.name);
            let (q1, med, q3) = quartiles(&v);
            let _ = writeln!(
                out,
                "  {:<18} median {:>14.6} {:<4} [q1 {:.6}, q3 {:.6}] over {} runs",
                m.name,
                med,
                m.unit,
                q1,
                q3,
                v.len()
            );
        }
    }
    out
}

/// Compares two result sets; `Ok(true)` when nothing regressed.
pub fn compare(base_path: &Path, new_path: &Path, benchmark: &Path) -> Res<bool> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let meta = |doc: &JsonValue, key: &str| doc.get("meta").and_then(|m| m.get(key)).cloned();
    for key in MUST_MATCH {
        let (b, n) = (meta(&base, key), meta(&new, key));
        if b.is_none() || b != n {
            return Err(format!("refusing to compare: `{key}` differs ({b:?} vs {n:?})").into());
        }
    }
    let hash = file_hash(benchmark);
    if meta(&base, "benchmark_hash")
        .as_ref()
        .and_then(JsonValue::as_str)
        != Some(hash.as_str())
    {
        return Err(format!(
            "refusing to compare: {} is not the BENCHMARK.json the runs used",
            benchmark.display()
        )
        .into());
    }
    let spec = load(benchmark)?;
    let bound = |name: &str| match spec.get("end_to_end") {
        Some(JsonValue::Arr(items)) => items
            .iter()
            .find(|i| i.get("name").and_then(JsonValue::as_str) == Some(name))
            .and_then(|i| i.get("bound")?.as_f64()),
        _ => None,
    };

    let mut clean = true;
    for w in workloads(&[&base, &new]) {
        println!("{w}:");
        let (bf, nf) = (failures(&base, &w), failures(&new, &w));
        let v = failure_verdict(&bf, &nf);
        clean &= v != Verdict::Regressed;
        println!(
            "  {:<18} base {} of {} failed, {} of {} runs incorrect  new {} of {} failed, {} of {} runs incorrect  {v:?}",
            "failures",
            bf.failed,
            bf.attempted,
            bf.incorrect,
            bf.runs,
            nf.failed,
            nf.attempted,
            nf.incorrect,
            nf.runs
        );
        for m in &E2E {
            let bound =
                bound(m.name).ok_or(format!("BENCHMARK.json has no bound for {}", m.name))?;
            let (b, n) = (values(&base, &w, m.name), values(&new, &w, m.name));
            let v = verdict(&b, &n, bound, m);
            clean &= v != Verdict::Regressed;
            let (bq1, bm, bq3) = quartiles(&b);
            let (nq1, nm, nq3) = quartiles(&n);
            let change = if bm == 0.0 {
                0.0
            } else {
                (nm - bm) / bm.abs() * 100.0
            };
            println!(
                "  {:<18} base {bm:>12.4} [{bq1:.4}, {bq3:.4}]  new {nm:>12.4} [{nq1:.4}, {nq3:.4}] {:<4} {change:>+7.2}%  bound {:>4.1}%  {:?}",
                m.name,
                m.unit,
                bound * 100.0,
                v
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::E2E;

    fn latency() -> &'static MetricDef {
        &E2E[0]
    }

    fn throughput() -> &'static MetricDef {
        &E2E[1]
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 100.1, 99.9, 100.0, 100.3,
        ];
        let same = base.map(|v| v + 0.1);
        assert_eq!(verdict(&base, &same, 0.1, latency()), Verdict::Unchanged);
        let slower = base.map(|v| v * 1.2);
        assert_eq!(verdict(&base, &slower, 0.1, latency()), Verdict::Regressed);
        let faster = base.map(|v| v * 0.8);
        assert_eq!(verdict(&base, &faster, 0.1, latency()), Verdict::Improved);
        // Higher is better: the same move reads the other way round.
        assert_eq!(
            verdict(&base, &faster, 0.1, throughput()),
            Verdict::Regressed
        );
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 90.0,
        ];
        assert_eq!(verdict(&base, &noisy, 0.1, latency()), Verdict::Unresolved);
        // Missing runs on the new side resolve nothing.
        assert_eq!(verdict(&base, &[], 0.1, latency()), Verdict::Unresolved);
        assert_eq!(
            verdict(&base, &faster[..5], 0.1, latency()),
            Verdict::Unresolved
        );
    }

    #[test]
    fn failing_faster_is_a_regression() {
        let clean = Failures {
            runs: 10,
            attempted: 400,
            failed: 0,
            incorrect: 0,
        };
        assert_eq!(failure_verdict(&clean, &clean), Verdict::Unchanged);
        let failing = Failures {
            failed: 3,
            incorrect: 1,
            ..clean
        };
        assert_eq!(failure_verdict(&clean, &failing), Verdict::Regressed);
        let fewer_runs = Failures { runs: 9, ..clean };
        assert_eq!(failure_verdict(&clean, &fewer_runs), Verdict::Regressed);
        assert_eq!(failure_verdict(&failing, &clean), Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_failures_from_the_result_sets() {
        let doc = parse(
            r#"{"runs": [
                {"workload": "w", "correct": true, "attempted": 40, "failed": 0},
                {"workload": "w", "correct": false, "attempted": 38, "failed": 2},
                {"workload": "v", "correct": true, "attempted": 5, "failed": 0}
            ]}"#,
        )
        .unwrap();
        let want = Failures {
            runs: 2,
            attempted: 78,
            failed: 2,
            incorrect: 1,
        };
        assert_eq!(failures(&doc, "w"), want);
        assert_eq!(workloads(&[&doc]), ["w", "v"]);
    }
}
