//! Helpers shared by the exactness suites (`differential`, `chaos`).

use mr_skyline_suite::mr::prelude::*;
use std::path::PathBuf;
use std::sync::Once;

/// Chaos faults abort tasks by panicking on purpose, and every one of
/// them is caught and retried; a kill inside a pool thread reaches the
/// driver as the scope's own panic. Keep those out of the test output
/// while leaving real panics loud (a real one in a pool thread still
/// prints its own message first).
pub fn quiet_chaos_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let text = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            let expected = text.starts_with("chaos:")
                || text.starts_with("mrsky-chaos:")
                || text == "a scoped thread panicked";
            if !expected {
                default_hook(info);
            }
        }));
    });
}

/// The skyline as sorted `(id, coordinate bit patterns)` rows.
pub fn fingerprint(report: &SkylineRunReport) -> Vec<(u64, Vec<u64>)> {
    let mut rows: Vec<(u64, Vec<u64>)> = report
        .global_skyline
        .iter()
        .map(|p| (p.id(), p.coords().iter().map(|c| c.to_bits()).collect()))
        .collect();
    rows.sort();
    rows
}

/// A fresh path under the system temp dir.
pub fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mrsky-diff-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
