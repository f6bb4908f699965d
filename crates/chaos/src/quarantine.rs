//! Quarantine / dead-letter collection for poisoned records.

/// One quarantined record with enough context to find it in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// Source name (file path, job name, …).
    pub source: String,
    /// 1-based line number within the source.
    pub line: u64,
    /// Human-readable reason the record was rejected.
    pub reason: String,
}

/// A bounded dead-letter collector: accepts quarantined records up to
/// `max_bad_records`, then reports the budget as blown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeadLetter {
    /// Maximum tolerated bad records; 0 means strict (first bad record
    /// blows the budget).
    pub max_bad_records: usize,
    records: Vec<QuarantinedRecord>,
}

impl DeadLetter {
    /// A collector tolerating up to `max_bad_records` quarantined rows.
    pub fn with_budget(max_bad_records: usize) -> Self {
        Self {
            max_bad_records,
            records: Vec::new(),
        }
    }

    /// Records one bad row. Returns `true` while the budget holds,
    /// `false` once this record exceeds it (the record is still logged
    /// so the report names the offender).
    pub fn push(&mut self, source: &str, line: u64, reason: impl Into<String>) -> bool {
        self.records.push(QuarantinedRecord {
            source: source.to_string(),
            line,
            reason: reason.into(),
        });
        self.records.len() <= self.max_bad_records
    }

    /// Number of quarantined records so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been quarantined.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether the budget has been exceeded.
    pub fn over_budget(&self) -> bool {
        self.records.len() > self.max_bad_records
    }

    /// The quarantined records, in encounter order.
    pub fn records(&self) -> &[QuarantinedRecord] {
        &self.records
    }

    /// Renders a human-readable dead-letter report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "dead-letter report: {} record(s) quarantined (budget {})\n",
            self.records.len(),
            self.max_bad_records
        );
        for r in &self.records {
            let _ = writeln!(out, "  {}:{}: {}", r.source, r.line, r.reason);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_collector_is_within_budget() {
        let dl = DeadLetter::with_budget(0);
        assert!(dl.is_empty());
        assert!(!dl.over_budget());
    }

    #[test]
    fn budget_zero_rejects_first_record() {
        let mut dl = DeadLetter::with_budget(0);
        assert!(!dl.push("qws.txt", 12, "non-finite value"));
        assert!(dl.over_budget());
        assert_eq!(dl.len(), 1);
    }

    #[test]
    fn budget_holds_then_blows() {
        let mut dl = DeadLetter::with_budget(2);
        assert!(dl.push("f", 1, "a"));
        assert!(dl.push("f", 2, "b"));
        assert!(!dl.push("f", 3, "c"));
        assert!(dl.over_budget());
        assert_eq!(dl.records().len(), 3);
        assert_eq!(dl.records()[2].line, 3);
    }

    #[test]
    fn report_names_every_offender() {
        let mut dl = DeadLetter::with_budget(5);
        dl.push("qws.txt", 7, "expected 10 columns, got 3");
        dl.push("qws.txt", 9, "non-finite value in column 2");
        let report = dl.render();
        assert!(report.contains("qws.txt:7: expected 10 columns, got 3"));
        assert!(report.contains("qws.txt:9: non-finite value in column 2"));
        assert!(report.contains("2 record(s)"));
    }
}
