//! Golden-file test for the simulated figures: the `sweep_point_json`
//! lines of the Figure 5(a)/7 dimension sweep at N = 1,000 and of the
//! Figure 6 server sweep at N = 5,000, d = 10 are pinned byte-for-byte, so
//! a refactor of the simulated cluster cannot move a simulated second, an
//! optimality ratio or a skyline size silently. Regenerate with
//! `MRSKY_BLESS=1 cargo test -p mr-skyline-bench --test figures_golden`.

use mr_skyline_bench::{dimension_sweep, server_sweep, sweep_point_json};

fn figure_lines() -> String {
    let mut out = String::new();
    for p in dimension_sweep(1000).iter().chain(&server_sweep(5000, 10)) {
        out.push_str(&sweep_point_json(p));
        out.push('\n');
    }
    out
}

#[test]
fn figures_match_golden_file() {
    let got = figure_lines();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_figures.jsonl");
    if std::env::var_os("MRSKY_BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
    }
    let want =
        std::fs::read_to_string(path).expect("golden file missing; regenerate with MRSKY_BLESS=1");
    assert_eq!(
        got, want,
        "simulated figures drifted from the golden file; \
         regenerate with MRSKY_BLESS=1 if the change is intentional"
    );
}
