//! Process-wide metrics registry: named monotonic counters, gauges, and
//! log₂-bucketed histograms.
//!
//! Kernel hot paths (`skyline::kernel`, `skyline::salsa`) take only a
//! `&PointBlock` and cannot thread a handle, so recording goes through a
//! process-global registry ([`metrics`]). Three properties keep that safe
//! and cheap:
//!
//! - **Off by default.** Every recording call first checks one relaxed
//!   atomic; when disabled (the default) nothing is touched. The
//!   `trace_overhead` bench holds this under 5% on `block_bnl`.
//! - **Sharded.** Recording locks one of [`SHARDS`] mutexes chosen by a
//!   per-thread round-robin ticket, so thread-pool workers recording
//!   dominance-test counts don't contend on one lock.
//! - **Snapshot-merge.** Readers call [`MetricsRegistry::snapshot`], which
//!   folds all shards into one [`MetricsSnapshot`] with saturating adds.

use crate::sketch::QuantileSketch;
use mrsky_model::sync::{AtomicBool, AtomicUsize, Mutex, Ordering};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Number of independently locked shards.
pub const SHARDS: usize = 16;

/// A log₂-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. 64 buckets cover the whole `u64` range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }
}

/// Index of the bucket a value falls in.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        // floor(log2(value)) + 1, capped at the last bucket.
        (64 - value.leading_zeros() as usize).min(63)
    }
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the last).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 63 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Folds another histogram into this one (saturating).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs —
    /// the compact form used by summaries and sparklines.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
            .collect()
    }
}

#[derive(Default)]
struct Shard {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    sketches: BTreeMap<String, QuantileSketch>,
}

/// The sharded registry. Use the process-global one via [`metrics`]; tests
/// may build private instances with [`MetricsRegistry::new`].
pub struct MetricsRegistry {
    enabled: AtomicBool,
    shards: Vec<Mutex<Shard>>,
    // Gauges are rare (set once per run, not per point), so they live
    // behind a single lock rather than sharded last-write-wins ambiguity.
    gauges: Mutex<BTreeMap<String, f64>>,
}

static SHARD_TICKET: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: usize = SHARD_TICKET.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates a disabled registry with [`SHARDS`] shards.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: AtomicBool::new(false),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            gauges: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        // ORDERING: Relaxed — the flag only gates best-effort recording;
        // a stale read drops or admits a few samples around the toggle,
        // never corrupts shard state (that is the mutexes' job).
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording calls currently do anything.
    pub fn is_enabled(&self) -> bool {
        // ORDERING: Relaxed — see `set_enabled`.
        self.enabled.load(Ordering::Relaxed)
    }

    fn shard(&self) -> &Mutex<Shard> {
        let idx = MY_SHARD.with(|s| *s);
        &self.shards[idx]
    }

    /// Adds to a named monotonic counter (no-op while disabled).
    pub fn incr(&self, name: &str, delta: u64) {
        if !self.is_enabled() || delta == 0 {
            return;
        }
        let mut shard = self.shard().lock();
        let slot = shard.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Records one observation into a named histogram (no-op while
    /// disabled).
    pub fn observe(&self, name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut shard = self.shard().lock();
        shard
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Records one observation into a named quantile sketch (no-op while
    /// disabled). Sketches complement [`MetricsRegistry::observe`]'s log₂
    /// histograms with ε-approximate percentiles (p50/p95/p99/p999);
    /// non-finite values are dropped.
    pub fn observe_quantile(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut shard = self.shard().lock();
        shard
            .sketches
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Sets a named gauge to a value (last write wins; no-op while
    /// disabled).
    pub fn gauge(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut gauges = self.gauges.lock();
        gauges.insert(name.to_string(), value);
    }

    /// Raises a named gauge to `value` if it exceeds the current reading
    /// (high-water-mark semantics, so concurrent reporters never lower it;
    /// no-op while disabled).
    pub fn gauge_max(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut gauges = self.gauges.lock();
        let slot = gauges.entry(name.to_string()).or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    }

    /// Folds every shard into one consistent-enough snapshot. (Each shard
    /// is locked in turn, so concurrent writers may land between shards —
    /// fine for post-run reporting, which is the only consumer.)
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            let guard = shard.lock();
            for (name, value) in &guard.counters {
                let slot = snap.counters.entry(name.clone()).or_insert(0);
                *slot = slot.saturating_add(*value);
            }
            for (name, hist) in &guard.histograms {
                snap.histograms.entry(name.clone()).or_default().merge(hist);
            }
            for (name, sketch) in &guard.sketches {
                snap.sketches
                    .entry(name.clone())
                    .or_default()
                    .merge_from(sketch);
            }
        }
        let gauges = self.gauges.lock();
        snap.gauges = gauges.clone();
        snap
    }

    /// Clears every shard and gauge (the enabled flag is untouched).
    pub fn reset(&self) {
        for shard in &self.shards {
            let mut guard = shard.lock();
            guard.counters.clear();
            guard.histograms.clear();
            guard.sketches.clear();
        }
        let mut gauges = self.gauges.lock();
        gauges.clear();
    }
}

/// The process-global registry used by kernel instrumentation.
pub fn metrics() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// A merged, read-only view of a registry at one point in time.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name (last write wins).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Quantile sketches by name.
    pub sketches: BTreeMap<String, QuantileSketch>,
}

impl MetricsSnapshot {
    /// Folds another snapshot into this one. Counters and histogram
    /// buckets add saturatingly; gauges take the other side's value.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*value);
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
        for (name, sketch) in &other.sketches {
            self.sketches
                .entry(name.clone())
                .or_default()
                .merge_from(sketch);
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): every series gets `# HELP` and `# TYPE` comments;
    /// counters and gauges render as single samples, histograms as
    /// cumulative `_bucket{le=...}` series plus `_sum`/`_count`, and
    /// quantile sketches as `summary` series with
    /// `{quantile="0.5|0.95|0.99|0.999"}` samples. Label values are
    /// escaped per the exposition grammar. Series are ordered by family
    /// (counters, gauges, histograms, summaries), then by name — the
    /// maps are `BTreeMap`s, so rendering the same snapshot twice is
    /// byte-identical.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let help = help_text(name);
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let help = help_text(name);
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, hist) in &self.histograms {
            let help = help_text(name);
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &count) in hist.buckets().iter().enumerate() {
                if count == 0 {
                    continue;
                }
                cumulative = cumulative.saturating_add(count);
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    escape_label_value(&bucket_upper_bound(i).to_string())
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{name}_sum {}", hist.sum());
            let _ = writeln!(out, "{name}_count {}", hist.count());
        }
        for (name, sketch) in &self.sketches {
            let help = help_text(name);
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} summary");
            for (label, q) in QuantileSketch::REPORTED {
                if let Some(value) = sketch.quantile(q) {
                    let _ = writeln!(
                        out,
                        "{name}{{quantile=\"{}\"}} {value}",
                        escape_label_value(label)
                    );
                }
            }
            let _ = writeln!(out, "{name}_sum {}", sketch.sum());
            let _ = writeln!(out, "{name}_count {}", sketch.count());
        }
        out
    }
}

/// Escapes a label value per the Prometheus text exposition grammar:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// One-line `# HELP` text for a metric, by longest-known-prefix; the
/// fallback keeps the exposition self-describing for ad-hoc metrics.
fn help_text(name: &str) -> &'static str {
    const HELP: &[(&str, &str)] = &[
        (
            "mapreduce.task_seconds",
            "Simulated task durations in seconds, by phase",
        ),
        (
            "mapreduce.shuffle_fetch_seconds",
            "Simulated per-reduce-task shuffle fetch durations in seconds",
        ),
        (
            "mapreduce.peak_mem",
            "Peak resident bytes observed during real execution",
        ),
        (
            "skyline.kernel_comparisons",
            "Dominance comparisons per skyline kernel invocation",
        ),
        ("dominance", "Pairwise dominance tests"),
        ("kernel", "Skyline kernel instrumentation"),
    ];
    for (prefix, help) in HELP {
        if name.starts_with(prefix) {
            return help;
        }
    }
    "Metric recorded by the mrsky metrics registry"
}

/// Maps an internal metric name (dots and slashes allowed) onto the
/// Prometheus grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        out.push(if ok { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
        // Every value sits at or below its bucket's upper bound.
        for v in [0u64, 1, 5, 100, 1 << 40, u64::MAX] {
            assert!(v <= bucket_upper_bound(bucket_index(v)));
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::new();
        reg.incr("a", 5);
        reg.observe("h", 10);
        reg.gauge("g", 1.0);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.gauges.is_empty());
    }

    #[test]
    fn enabled_registry_round_trips() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.incr("dominance.tests", 100);
        reg.incr("dominance.tests", 50);
        reg.observe("local.skyline", 7);
        reg.observe("local.skyline", 9);
        reg.gauge("partitions", 16.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("dominance.tests"), Some(&150));
        let hist = snap.histograms.get("local.skyline").unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum(), 16);
        assert_eq!(snap.gauges.get("partitions"), Some(&16.0));
        reg.reset();
        assert!(reg.snapshot().counters.is_empty());
        assert!(reg.is_enabled(), "reset keeps the enabled flag");
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.gauge_max("peak", 10.0);
        reg.gauge_max("peak", 4.0);
        assert_eq!(reg.snapshot().gauges.get("peak"), Some(&10.0));
        reg.gauge_max("peak", 25.0);
        assert_eq!(reg.snapshot().gauges.get("peak"), Some(&25.0));
        // plain gauge() still overwrites unconditionally
        reg.gauge("peak", 1.0);
        assert_eq!(reg.snapshot().gauges.get("peak"), Some(&1.0));
    }

    #[test]
    fn counters_merge_across_threads_and_shards() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        reg.set_enabled(true);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        reg.incr("spread", 1);
                        reg.observe("obs", 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("spread"), Some(&8000));
        assert_eq!(snap.histograms.get("obs").unwrap().count(), 8000);
    }

    #[test]
    fn snapshot_merge_is_saturating() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("c".into(), u64::MAX - 1);
        let mut b = MetricsSnapshot::default();
        b.counters.insert("c".into(), 10);
        b.counters.insert("only_b".into(), 3);
        a.merge(&b);
        assert_eq!(a.counters.get("c"), Some(&u64::MAX));
        assert_eq!(a.counters.get("only_b"), Some(&3));

        // Empty merge is the identity.
        let before = a.clone();
        a.merge(&MetricsSnapshot::default());
        assert_eq!(a, before);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut h1 = Histogram::new();
        h1.record(0);
        h1.record(5);
        let mut h2 = Histogram::new();
        h2.record(5);
        h2.record(1 << 20);
        h1.merge(&h2);
        assert_eq!(h1.count(), 4);
        assert_eq!(h1.sum(), 10 + (1 << 20));
        assert_eq!(h1.buckets()[bucket_index(5)], 2);
        assert_eq!(h1.buckets()[0], 1);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.incr("skyline/bnl.calls", 2);
        reg.observe("cmp", 3);
        reg.observe("cmp", 900);
        reg.gauge("g.x", 2.5);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE skyline_bnl_calls counter"));
        assert!(text.contains("skyline_bnl_calls 2"));
        assert!(text.contains("# TYPE g_x gauge"));
        assert!(text.contains("g_x 2.5"));
        assert!(text.contains("# TYPE cmp histogram"));
        assert!(text.contains("cmp_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("cmp_sum 903"));
        assert!(text.contains("cmp_count 2"));
        // Cumulative: the le="1023" bucket includes the le="3" one.
        assert!(text.contains("cmp_bucket{le=\"3\"} 1"));
        assert!(text.contains("cmp_bucket{le=\"1023\"} 2"));
    }

    #[test]
    fn sketches_record_and_merge_across_shards() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        reg.set_enabled(true);
        // Spread a known uniform stream over 8 threads (hence several
        // shards); the snapshot folds all shard sketches together.
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        reg.observe_quantile("lat", (i * 8 + t) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        let sketch = snap.sketches.get("lat").expect("sketch present");
        assert_eq!(sketch.count(), 16_000);
        // Values are exactly 0..16000, so the p99 target rank is 15841;
        // allow the 0.01 reporting rank-error budget.
        let p99 = sketch.quantile(0.99).unwrap();
        assert!(
            (p99 - 15_840.0).abs() <= 160.0,
            "p99 = {p99}, expected ~15840 ± 160"
        );
    }

    #[test]
    fn disabled_registry_drops_quantile_observations() {
        let reg = MetricsRegistry::new();
        reg.observe_quantile("lat", 1.0);
        assert!(reg.snapshot().sketches.is_empty());
    }

    #[test]
    fn prometheus_summary_series_for_sketches() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        for i in 0..1000 {
            reg.observe_quantile("mapreduce.task_seconds.map", f64::from(i));
        }
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# HELP mapreduce_task_seconds_map Simulated task durations"));
        assert!(text.contains("# TYPE mapreduce_task_seconds_map summary"));
        assert!(text.contains("mapreduce_task_seconds_map{quantile=\"0.5\"}"));
        assert!(text.contains("mapreduce_task_seconds_map{quantile=\"0.999\"}"));
        assert!(text.contains("mapreduce_task_seconds_map_count 1000"));
    }

    #[test]
    fn prometheus_every_series_has_help_and_type() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(true);
        reg.incr("c", 1);
        reg.gauge("g", 1.0);
        reg.observe("h", 1);
        reg.observe_quantile("s", 1.0);
        let text = reg.snapshot().to_prometheus();
        let helps = text.lines().filter(|l| l.starts_with("# HELP ")).count();
        let types = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!(helps, 4, "one HELP per series family:\n{text}");
        assert_eq!(types, 4, "one TYPE per series family:\n{text}");
        // HELP must precede TYPE for each series.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.starts_with("# TYPE ") {
                assert!(
                    lines[i - 1].starts_with("# HELP "),
                    "TYPE without HELP: {line}"
                );
            }
        }
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
    }

    #[test]
    fn sanitize_rewrites_bad_chars() {
        assert_eq!(sanitize_metric_name("a.b/c-d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lead"), "_lead");
        assert_eq!(sanitize_metric_name(""), "_");
    }
}
