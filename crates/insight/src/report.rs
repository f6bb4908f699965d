//! Plain-text rendering of the analyses for `mrsky insight`.

use crate::critpath::{CriticalPath, Segment, SegmentKind};
use crate::skew::SkewReport;
use crate::stragglers::Straggler;
use mrsky_trace::RunModel;
use std::fmt::Write as _;

fn secs(v: f64) -> String {
    format!("{v:.3}s")
}

/// Renders the critical path: phase blame first, then the top segments.
pub fn render_critical_path(run: &RunModel, cp: &CriticalPath) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "critical path ({} total)", secs(cp.total));
    let _ = writeln!(out, "  phase blame:");
    for (key, blame) in &cp.phase_blame {
        let pct = if cp.total > 0.0 {
            blame / cp.total * 100.0
        } else {
            0.0
        };
        let _ = writeln!(out, "    {key:<28} {:>10}  {pct:5.1}%", secs(*blame));
    }
    let mut tasks: Vec<&Segment> = cp
        .segments
        .iter()
        .filter(|s| matches!(s.kind, SegmentKind::Task { .. }))
        .collect();
    tasks.sort_by(|a, b| b.duration().total_cmp(&a.duration()));
    let _ = writeln!(out, "  longest segments:");
    for s in tasks.iter().take(8) {
        let SegmentKind::Task { phase, task, slot } = &s.kind else {
            continue;
        };
        let job = &run.runs[s.run].name;
        let partition = if job.ends_with("-partition") && *phase == mrsky_trace::PhaseKind::Reduce {
            format!("  (partition {task})")
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "    {:<28} {:>10}  slot {slot}{partition}",
            format!("{}/{}/{task}", run.run_label(s.run), phase.as_str()),
            secs(s.duration()),
        );
    }
    let counts = run.edge_counts();
    if !counts.is_empty() {
        let joined: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "  causal edges: {}", joined.join(" "));
    }
    out
}

/// Renders the straggler table.
pub fn render_stragglers(list: &[Straggler]) -> String {
    let mut out = String::new();
    if list.is_empty() {
        let _ = writeln!(
            out,
            "stragglers: none (no task ran >=1.5x its phase median)"
        );
        return out;
    }
    let _ = writeln!(out, "stragglers ({} flagged):", list.len());
    for s in list {
        let partition =
            if s.job.ends_with("-partition") && s.phase == mrsky_trace::PhaseKind::Reduce {
                format!("  partition {}", s.task)
            } else {
                String::new()
            };
        let rescue = if s.stolen { "  [stolen]" } else { "" };
        let _ = writeln!(
            out,
            "  {:<28} {:>10} vs median {:>10}  ({:.2}x){partition}{rescue}",
            format!("{}/{}/{}", s.job, s.phase.as_str(), s.task),
            secs(s.duration),
            secs(s.median),
            s.ratio,
        );
    }
    out
}

/// Renders the skew reports, one block per partition-job run; a block
/// names its run only when there is more than one.
pub fn render_skew(reports: &[SkewReport]) -> String {
    let mut out = String::new();
    if reports.is_empty() {
        let _ = writeln!(out, "partition skew: no partition accounting in this trace");
    }
    for report in reports {
        render_run_skew(report, reports.len() > 1, &mut out);
    }
    out
}

fn render_run_skew(report: &SkewReport, named: bool, out: &mut String) {
    let of = match &report.run {
        Some(label) if named => format!(" of {label}"),
        _ => String::new(),
    };
    let _ = writeln!(
        out,
        "partition skew{of} ({} partitions):",
        report.rows.len()
    );
    let _ = writeln!(
        out,
        "  rows:   gini {:.3}  mean {:.1} rows/partition",
        report.row_gini, report.mean_rows
    );
    let _ = writeln!(
        out,
        "  kernel: gini {:.3} (reduce-task durations)",
        report.time_gini
    );
    let _ = writeln!(
        out,
        "  hot partition: {} with {} rows ({:.2}x mean){}",
        report.hot_partition,
        report.hot_rows,
        if report.mean_rows > 0.0 {
            report.hot_rows as f64 / report.mean_rows
        } else {
            0.0
        },
        if report.hot_kernel.is_empty() {
            String::new()
        } else {
            format!(", kernel {}", report.hot_kernel)
        }
    );
    if report.pruned > 0 {
        let _ = writeln!(out, "  pruned partitions: {}", report.pruned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::critical_path;
    use crate::stragglers::{stragglers, DEFAULT_THRESHOLD};
    use crate::testutil::{job_events, SimJob};

    fn skewed_run() -> RunModel {
        let job = SimJob::uniform(
            "qws-partition",
            4,
            &[1.0, 1.0, 1.0, 1.0],
            &[1.0, 9.0, 1.0, 1.0],
        );
        RunModel::from_events(&job_events(&job, 0))
    }

    #[test]
    fn critical_path_report_names_the_hot_reduce_partition() {
        let run = skewed_run();
        let text = render_critical_path(&run, &critical_path(&run));
        assert!(text.contains("(partition 1)"), "{text}");
        assert!(text.contains("phase blame"), "{text}");
    }

    #[test]
    fn straggler_report_marks_partitions() {
        let run = skewed_run();
        let text = render_stragglers(&stragglers(&run, DEFAULT_THRESHOLD));
        assert!(text.contains("partition 1"), "{text}");
    }
}
