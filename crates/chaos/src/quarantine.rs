//! Quarantine / dead-letter collection for poisoned records.

use std::collections::VecDeque;

/// One quarantined record with enough context to find it in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
struct QuarantinedRecord {
    /// Source name (file path, job name, …).
    source: String,
    /// 1-based line number within the source.
    line: u64,
    /// Human-readable reason the record was rejected.
    reason: String,
}

/// A bounded dead-letter collector: it keeps the latest `max_bad_records`
/// quarantined records and counts the older ones it drops to stay within
/// them, so its memory is bounded however many records arrive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeadLetter {
    /// Most records kept; 0 keeps none and only counts them.
    pub max_bad_records: usize,
    records: VecDeque<QuarantinedRecord>,
    /// Records dropped, oldest first, to stay within the budget.
    dropped: u64,
}

impl DeadLetter {
    /// A collector keeping up to `max_bad_records` quarantined rows.
    pub fn with_budget(max_bad_records: usize) -> Self {
        Self {
            max_bad_records,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Records one bad row. With the budget full, the oldest kept record
    /// is dropped to make room, and counted.
    pub fn push(&mut self, source: &str, line: u64, reason: impl Into<String>) {
        if self.records.len() == self.max_bad_records {
            self.dropped += 1;
            if self.records.pop_front().is_none() {
                return;
            }
        }
        self.records.push_back(QuarantinedRecord {
            source: source.to_string(),
            line,
            reason: reason.into(),
        });
    }

    /// Number of quarantined records kept (at most the budget).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no quarantined record is kept.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders a human-readable dead-letter report: every record
    /// quarantined, how many of the oldest were dropped, and the kept ones
    /// in encounter order.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let total = self.records.len() as u64 + self.dropped;
        let mut out = format!(
            "dead-letter report: {total} record(s) quarantined (budget {})",
            self.max_bad_records
        );
        if self.dropped > 0 {
            let _ = write!(out, ", {} oldest dropped", self.dropped);
        }
        out.push('\n');
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
    fn empty_collector_keeps_nothing() {
        let dl = DeadLetter::with_budget(0);
        assert!(dl.is_empty());
        assert_eq!(
            dl.render(),
            "dead-letter report: 0 record(s) quarantined (budget 0)\n"
        );
    }

    #[test]
    fn budget_zero_only_counts() {
        let mut dl = DeadLetter::with_budget(0);
        dl.push("qws.txt", 12, "non-finite value");
        dl.push("qws.txt", 13, "non-finite value");
        assert!(dl.is_empty());
        assert_eq!(
            dl.render(),
            "dead-letter report: 2 record(s) quarantined (budget 0), 2 oldest dropped\n"
        );
    }

    #[test]
    fn pushing_three_times_the_budget_keeps_the_latest_within_it() {
        let budget = 5;
        let mut dl = DeadLetter::with_budget(budget);
        for line in 1..=3 * budget as u64 {
            dl.push("serve", line, format!("poison {line}"));
            assert!(dl.len() <= budget, "line {line}");
        }
        assert_eq!(dl.len(), budget);
        assert!(
            dl.records.capacity() < 2 * budget,
            "{}",
            dl.records.capacity()
        );
        let lines: Vec<u64> = dl.records.iter().map(|r| r.line).collect();
        assert_eq!(lines, [11, 12, 13, 14, 15]);
        let report = dl.render();
        assert!(
            report.starts_with(
                "dead-letter report: 15 record(s) quarantined (budget 5), 10 oldest dropped\n"
            ),
            "{report}"
        );
        assert!(report.contains("serve:11: poison 11"), "{report}");
        assert!(!report.contains("serve:10:"), "{report}");
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
        assert!(!report.contains("dropped"));
    }
}
