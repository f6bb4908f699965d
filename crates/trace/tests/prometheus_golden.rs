//! Golden-file test for the Prometheus text exposition: the full output
//! for a fixed registry state is pinned byte-for-byte, so `# HELP`/`# TYPE`
//! comments, label escaping and series ordering cannot drift silently.
//! Regenerate with
//! `MRSKY_BLESS=1 cargo test -p mrsky-trace --test prometheus_golden`.

use mrsky_trace::MetricsRegistry;

/// A fixed registry state exercising every series family. Everything is
/// recorded from this one thread, so all writes land in one shard and the
/// exposition is fully deterministic.
fn exposition() -> String {
    let reg = MetricsRegistry::new();
    reg.set_enabled(true);
    reg.incr("dominance.tests", 12345);
    reg.incr("skyline/bnl.calls", 7);
    reg.gauge("partitions", 32.0);
    reg.gauge("mapreduce.peak_mem.reduce_in_bytes", 1500000.0);
    for v in [0u64, 1, 3, 900, 40000] {
        reg.observe("cmp", v);
    }
    reg.snapshot().to_prometheus()
}

#[test]
fn exposition_matches_golden_file() {
    let got = exposition();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_prometheus.txt");
    if std::env::var_os("MRSKY_BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
    }
    let want =
        std::fs::read_to_string(path).expect("golden file missing; regenerate with MRSKY_BLESS=1");
    assert_eq!(
        got, want,
        "Prometheus exposition drifted from the golden file; \
         regenerate with MRSKY_BLESS=1 if the change is intentional"
    );
}

#[test]
fn exposition_is_stable_across_repeated_snapshots() {
    let a = exposition();
    let b = exposition();
    assert_eq!(a.as_bytes(), b.as_bytes());
}
