//! Structured diagnostics with stable codes.
//!
//! Every check in the audit emits [`Diagnostic`]s carrying a stable
//! [`Code`] (`MRA001`…), a [`Severity`], and a human-readable message, so
//! that CI can gate on exact codes and the allowlist can reference them
//! without string-matching messages. The full code table is in
//! `DESIGN.md` and printed by `mrsky-audit codes`.

use mrsky_trace::json::{array, JsonObject};
use std::fmt;

/// Stable diagnostic codes. Never renumber — retire codes instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// A probe point mapped to no partition or to an out-of-range id.
    PartitionNotTotal,
    /// A partition id can never be produced for any point of the domain.
    UnreachablePartition,
    /// Axis boundaries are out of order (not monotonically increasing).
    NonMonotonicBoundaries,
    /// An axis boundary lies outside the axis domain.
    BoundaryOutsideDomain,
    /// Cell-index linearization can overflow `usize`, or the boundary
    /// lattice disagrees with the partitioner's own partition count.
    IndexOverflow,
    /// The dominance-based cell-pruning mask is not conservative.
    UnsoundPruning,
    /// Reducer count is zero or wastes reduce slots against the partition
    /// count.
    ReducerMismatch,
    /// The simulated cluster or cost model cannot make progress (zero
    /// slots, zero host threads, negative or non-finite costs).
    ZeroCapacityCluster,
    /// Two partitions both claim a boundary point (ownership at a
    /// boundary disagrees with the right-closed convention).
    DisjointnessViolation,
    /// An axis has a zero-width interval (duplicate boundaries or a
    /// boundary pinned to the domain edge): some partitions will be empty.
    DegenerateAxis,
    /// Far more partitions than reduce slots: the reduce phase runs in
    /// many waves and per-task startup dominates.
    ExcessPartitionWaves,
    /// Grid pruning was requested but the fitted partitioner can never
    /// prune (prefix grid or non-grid scheme) — silently disabled.
    PruningUnavailable,
    /// The filter/witness-pruning configuration would drop a true skyline
    /// point (or the filter is configured off while pruning depends on it).
    UnsoundFilter,
}

impl Code {
    /// The stable wire identifier, e.g. `MRA003`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::PartitionNotTotal => "MRA001",
            Code::UnreachablePartition => "MRA002",
            Code::NonMonotonicBoundaries => "MRA003",
            Code::BoundaryOutsideDomain => "MRA004",
            Code::IndexOverflow => "MRA005",
            Code::UnsoundPruning => "MRA006",
            Code::ReducerMismatch => "MRA007",
            Code::ZeroCapacityCluster => "MRA008",
            Code::DisjointnessViolation => "MRA009",
            Code::DegenerateAxis => "MRA010",
            Code::ExcessPartitionWaves => "MRA011",
            Code::PruningUnavailable => "MRA012",
            Code::UnsoundFilter => "MRA013",
        }
    }

    /// One-line description for `mrsky-audit codes` and the docs table.
    pub fn description(self) -> &'static str {
        match self {
            Code::PartitionNotTotal => {
                "partition function is not total: a probe point maps to no in-range partition"
            }
            Code::UnreachablePartition => "a partition id is unreachable for every domain point",
            Code::NonMonotonicBoundaries => "axis boundaries are not monotonically increasing",
            Code::BoundaryOutsideDomain => "an axis boundary lies outside its domain",
            Code::IndexOverflow => {
                "cell-index linearization overflows usize or disagrees with the partition count"
            }
            Code::UnsoundPruning => "dominance-based cell pruning would drop undominated cells",
            Code::ReducerMismatch => "reducer count is zero or mismatched with the partition count",
            Code::ZeroCapacityCluster => "cluster/scheduler/cost configuration cannot run any task",
            Code::DisjointnessViolation => {
                "boundary ownership violates the right-closed interval convention"
            }
            Code::DegenerateAxis => "an axis interval has zero width: its partitions stay empty",
            Code::ExcessPartitionWaves => "partition count far exceeds reduce slots (many waves)",
            Code::PruningUnavailable => "grid pruning requested but unavailable for this fit",
            Code::UnsoundFilter => {
                "filter/witness-pruning configuration would drop a true skyline point"
            }
        }
    }

    /// Every defined code, in numeric order.
    pub fn all() -> &'static [Code] {
        &[
            Code::PartitionNotTotal,
            Code::UnreachablePartition,
            Code::NonMonotonicBoundaries,
            Code::BoundaryOutsideDomain,
            Code::IndexOverflow,
            Code::UnsoundPruning,
            Code::ReducerMismatch,
            Code::ZeroCapacityCluster,
            Code::DisjointnessViolation,
            Code::DegenerateAxis,
            Code::ExcessPartitionWaves,
            Code::PruningUnavailable,
            Code::UnsoundFilter,
        ]
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a finding is. `Error` findings make [`AuditReport::has_errors`]
/// true and block `SkylineJob::run` unless forced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Plan is unsound or cannot run: refuse to execute.
    Error,
    /// Plan runs but wastes resources or hides a likely mistake.
    Warning,
    /// Observation that may help tuning.
    Info,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the plan validator.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    /// Human-readable explanation with the offending values inlined.
    pub message: String,
    /// What the finding is about, e.g. `axis 1` or `partition 7`.
    pub subject: String,
}

impl Diagnostic {
    pub fn new(
        code: Code,
        severity: Severity,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            severity,
            message: message.into(),
            subject: subject.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.subject, self.message
        )
    }
}

/// The full result of auditing one plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    pub diagnostics: Vec<Diagnostic>,
    /// Number of probe points exercised while proving totality/disjointness.
    pub probes: usize,
    /// Scheme name of the audited partitioner.
    pub scheme: String,
}

impl AuditReport {
    /// `true` if any finding has [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Findings with the given code, in emission order.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Sorts findings by severity (errors first), then code.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| a.severity.cmp(&b.severity).then(a.code.cmp(&b.code)));
    }

    /// Multi-line human rendering, one finding per line.
    pub fn render_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "audit of `{}` plan: {} finding(s) over {} probe point(s)",
            self.scheme,
            self.diagnostics.len(),
            self.probes
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        if self.diagnostics.is_empty() {
            out.push_str("  plan is clean\n");
        }
        out
    }

    /// Machine-readable rendering.
    pub fn to_json(&self) -> String {
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let diagnostics = self.diagnostics.iter().map(|d| {
            JsonObject::new()
                .string("code", d.code.as_str())
                .string("severity", d.severity.as_str())
                .string("subject", &d.subject)
                .string("message", &d.message)
                .finish()
        });
        JsonObject::new()
            .string("scheme", &self.scheme)
            .int("probes", self.probes as u64)
            .int("errors", errors as u64)
            .raw("diagnostics", array(diagnostics))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let all = Code::all();
        let mut seen = std::collections::BTreeSet::new();
        for c in all {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().starts_with("MRA"));
            assert!(!c.description().is_empty());
        }
        assert_eq!(Code::PartitionNotTotal.as_str(), "MRA001");
        assert_eq!(Code::PruningUnavailable.as_str(), "MRA012");
        assert_eq!(Code::UnsoundFilter.as_str(), "MRA013");
    }

    #[test]
    fn report_error_detection_and_render() {
        let mut r = AuditReport {
            scheme: "angle".into(),
            probes: 42,
            ..AuditReport::default()
        };
        assert!(!r.has_errors());
        r.diagnostics.push(Diagnostic::new(
            Code::DegenerateAxis,
            Severity::Warning,
            "axis 0",
            "duplicate boundary 0.5",
        ));
        assert!(!r.has_errors());
        r.diagnostics.push(Diagnostic::new(
            Code::PartitionNotTotal,
            Severity::Error,
            "probe (0.1, 0.2)",
            "mapped to id 9 of 4",
        ));
        assert!(r.has_errors());
        r.sort();
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        let text = r.render_text();
        assert!(text.contains("MRA001"));
        assert!(text.contains("MRA010"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let r = AuditReport {
            scheme: "grid".into(),
            probes: 1,
            diagnostics: vec![Diagnostic::new(
                Code::IndexOverflow,
                Severity::Error,
                "lattice",
                "says \"too big\"\n",
            )],
        };
        let j = r.to_json();
        assert!(j.contains("\"errors\":1"));
        assert!(j.contains("\\\"too big\\\"\\n"));
        assert!(j.contains("\"code\":\"MRA005\""));
    }
}
