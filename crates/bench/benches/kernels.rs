//! Skyline kernel shoot-out: BNL (the paper's choice) vs SFS, across the
//! three classic data distributions.
//!
//! This is the evidence behind DESIGN.md's "local kernel" ablation: on
//! correlated (QWS-like) data the kernels are close; on anti-correlated data
//! BNL's quadratic window behaviour shows, which is why bounding the window
//! matters for the memory model even though the paper picked BNL "for its
//! simplicity".

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qws_data::{generate_synthetic, Distribution, SyntheticConfig};
use skyline_algos::block::PointBlock;
use skyline_algos::dominance::dominates;
use skyline_algos::kernel::{
    block_bnl, block_bnl_stats, block_sfs, block_sfs_stats, dominated_count, BnlConfig,
};
use skyline_algos::parallel::{parallel_skyline, parallel_skyline_partitioned};
use skyline_algos::partition::AnglePartitioner;
use skyline_algos::point::Point;
use skyline_algos::salsa::block_salsa_stats;
use skyline_algos::select::{correlation_estimate, select_for_block};
use std::fmt::Write as _;
use std::time::Instant;

fn dataset(dist: Distribution, n: usize, d: usize) -> Vec<Point> {
    generate_synthetic(&SyntheticConfig::new(n, d, dist))
        .points()
        .to_vec()
}

fn bench_kernels(c: &mut Criterion) {
    let n = 4000;
    let d = 4;
    for dist in [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::AntiCorrelated,
    ] {
        let block = PointBlock::from_points(&dataset(dist, n, d)).expect("uniform dims");
        let mut group = c.benchmark_group(format!("kernel/{}", dist.name()));
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("bnl", n), &block, |b, block| {
            b.iter(|| block_bnl(block, &BnlConfig::default()).len());
        });
        group.bench_with_input(BenchmarkId::new("bnl_w256", n), &block, |b, block| {
            b.iter(|| block_bnl(block, &BnlConfig::with_window(256)).len());
        });
        group.bench_with_input(BenchmarkId::new("sfs", n), &block, |b, block| {
            b.iter(|| block_sfs(block).len());
        });
        group.finish();
    }
}

fn bench_bnl_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("bnl_scaling_qws");
    group.sample_size(10);
    for n in [1000usize, 4000, 16000] {
        let data = qws_data::generate_qws(&qws_data::QwsConfig::new(n, 6));
        let block = PointBlock::from_points(data.points()).expect("uniform dims");
        group.bench_with_input(BenchmarkId::from_parameter(n), &block, |b, block| {
            b.iter(|| block_bnl(block, &BnlConfig::default()).len());
        });
    }
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let pts = qws_data::generate_qws(&qws_data::QwsConfig::new(30_000, 6))
        .points()
        .to_vec();
    let block = PointBlock::from_points(&pts).expect("uniform dims");
    let mut group = c.benchmark_group("parallel_skyline");
    group.sample_size(10);
    group.bench_function("single_thread", |b| {
        b.iter(|| block_bnl(&block, &BnlConfig::default()).len());
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("block_chunks", threads),
            &threads,
            |b, &t| b.iter(|| parallel_skyline(&pts, t).expect("parallel skyline").len()),
        );
    }
    let part = AnglePartitioner::fit_quantile(&pts, 16).unwrap();
    group.bench_function("angular_chunks_8t", |b| {
        b.iter(|| {
            parallel_skyline_partitioned(&pts, &part, 8)
                .expect("partitioned skyline")
                .0
                .len()
        });
    });
    group.finish();
}

// ---- columnar vs AoS dominance sweep (the PointBlock tentpole) ----
//
// One dominance sweep — count how many of `n` candidates a fixed window
// dominates — at d=6 over 100k anti-correlated services. The AoS baseline
// chases one heap pointer per point; the block kernel streams one flat
// buffer. Median wall times land in `BENCH_kernels.json` at the workspace
// root (skipped in `--test` smoke runs so the committed baseline survives).

const SWEEP_N: usize = 100_000;
const SWEEP_D: usize = 6;
const SWEEP_WINDOW: usize = 512;

fn aos_sweep(window: &[Point], candidates: &[Point]) -> usize {
    candidates
        .iter()
        .filter(|c| window.iter().any(|w| dominates(w, c)))
        .count()
}

fn median_wall_ns(samples: usize, mut f: impl FnMut() -> usize) -> f64 {
    black_box(f()); // warm-up
    let mut v: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn bench_block_vs_aos(c: &mut Criterion) {
    let pts = dataset(Distribution::AntiCorrelated, SWEEP_N, SWEEP_D);
    let window: Vec<Point> = pts.iter().take(SWEEP_WINDOW).cloned().collect();
    let block = PointBlock::from_points(&pts).expect("uniform dims");
    let window_block = PointBlock::from_points(&window).expect("uniform dims");

    let mut group = c.benchmark_group(format!("block_vs_aos/anti_d{SWEEP_D}_n{SWEEP_N}"));
    group.sample_size(10);
    group.bench_function("aos_dominance_sweep", |b| {
        b.iter(|| aos_sweep(&window, &pts));
    });
    group.bench_function("block_dominance_sweep", |b| {
        b.iter(|| dominated_count(&block, &window_block));
    });
    group.finish();
}

// ---- kernel-selection matrix (the pluggable-kernel tentpole) ----
//
// Every local kernel — BNL, SFS, SaLSa, and the auto selector — timed on
// every cell of distribution × d ∈ {2,4,6,8} × n ∈ {10k,100k,1M}. This is
// the evidence behind `select`'s calibrated boundaries and the data
// the bench gate pins: sort-based kernels must beat BNL on large
// anti-correlated cells, and auto must land within tolerance of the best
// fixed kernel on *every* cell. Results go to `BENCH_kernels.json`
// (skipped in `--test` smoke runs, which instead exercise a reduced n=10k
// matrix so the code path stays compiled and run in CI).

const MATRIX_N: [usize; 3] = [10_000, 100_000, 1_000_000];
const MATRIX_D: [usize; 4] = [2, 4, 6, 8];
const MATRIX_DISTS: [Distribution; 3] = [
    Distribution::Correlated,
    Distribution::Independent,
    Distribution::AntiCorrelated,
];

/// BNL's effective cost is ~`n × |skyline|` dominance tests; past this
/// budget (~60 s on the reference host) the cell records BNL as skipped —
/// loudly, in the JSON and on stdout — instead of stalling the run.
const BNL_COMPARISON_BUDGET: u128 = 40_000_000_000;

/// Auto selection must stay within 5% of the best fixed kernel per cell, with a
/// 25 ms absolute floor: crossover cells (anti d=4, small correlated
/// blocks) have sub-25 ms margins that flip run to run, and no selector —
/// or repeated measurement of the *same* kernel — resolves below that.
const AUTO_TOLERANCE_PCT: f64 = 5.0;
const AUTO_TOLERANCE_FLOOR_MS: f64 = 25.0;

/// First timed run under this many ms → the cell is cheap enough to repeat;
/// above it a single sample stands (those cells run seconds-to-minutes and
/// their margins are far above run-to-run noise).
const ADAPTIVE_CUTOFF_MS: f64 = 5_000.0;

/// Times `f` once; cheap runs get three more samples (the first acting as
/// warmup) and report their median, expensive runs keep the single sample.
/// This is what keeps the 1 M-row crossover cells honest: their BNL-vs-SFS
/// margins are ~5–20%, inside single-shot cold-cache variance.
fn adaptive_wall_ms(mut f: impl FnMut() -> usize) -> f64 {
    let t = Instant::now();
    black_box(f());
    let first = t.elapsed().as_secs_f64() * 1e3;
    if first >= ADAPTIVE_CUTOFF_MS {
        return first;
    }
    wall_ms(3, false, f)
}

fn timed(quick: bool, f: impl FnMut() -> usize) -> f64 {
    if quick {
        wall_ms(1, false, f)
    } else {
        adaptive_wall_ms(f)
    }
}

fn wall_ms(samples: usize, warmup: bool, mut f: impl FnMut() -> usize) -> f64 {
    if warmup {
        black_box(f());
    }
    let mut v: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

struct MatrixCell {
    key: String,
    dist: &'static str,
    n: usize,
    d: usize,
    rho: f64,
    skyline: usize,
    bnl_ms: Option<f64>,
    sfs_ms: f64,
    salsa_ms: f64,
    auto_ms: f64,
    auto_kernel: &'static str,
}

impl MatrixCell {
    fn best(&self) -> (&'static str, f64) {
        let mut best = ("sfs", self.sfs_ms);
        if self.salsa_ms < best.1 {
            best = ("salsa", self.salsa_ms);
        }
        if let Some(b) = self.bnl_ms {
            if b < best.1 {
                best = ("bnl", b);
            }
        }
        best
    }

    fn auto_within_tolerance(&self) -> bool {
        let (_, best) = self.best();
        self.auto_ms <= best * (1.0 + AUTO_TOLERANCE_PCT / 100.0) + AUTO_TOLERANCE_FLOOR_MS
    }
}

fn measure_cell(dist: Distribution, n: usize, d: usize, quick: bool) -> MatrixCell {
    let pts = dataset(dist, n, d);
    let block = PointBlock::from_points(&pts).expect("uniform dims");
    let cfg = BnlConfig::default();
    let rho = correlation_estimate(&block);
    let skyline = block_sfs_stats(&block).0.len();
    let sfs_ms = timed(quick, || block_sfs_stats(&block).0.len());
    let salsa_ms = timed(quick, || block_salsa_stats(&block).0.len());
    let bnl_ms = if (n as u128) * (skyline as u128) < BNL_COMPARISON_BUDGET {
        Some(timed(quick, || block_bnl_stats(&block, &cfg).0.len()))
    } else {
        None
    };
    let auto_kernel = select_for_block(&block);
    let auto_ms = timed(quick, || select_for_block(&block).run(&block, &cfg).0.len());
    MatrixCell {
        key: format!("{}_d{d}_n{n}", dist.name()),
        dist: dist.name(),
        n,
        d,
        rho,
        skyline,
        bnl_ms,
        sfs_ms,
        salsa_ms,
        auto_ms,
        auto_kernel: auto_kernel.name(),
    }
}

fn bench_kernel_matrix(_c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        // CI smoke: run the full kernel set once on the cheapest row of the
        // matrix so every dispatch path executes, but write nothing.
        for dist in MATRIX_DISTS {
            for d in MATRIX_D {
                let cell = measure_cell(dist, 10_000, d, true);
                println!(
                    "matrix smoke {}: auto={} within_tolerance={}",
                    cell.key,
                    cell.auto_kernel,
                    cell.auto_within_tolerance()
                );
            }
        }
        return;
    }

    // The pinned block-vs-AoS sweep (PR 2's tentpole) stays in the same
    // artifact, same shape, so its baseline entry keeps resolving.
    let pts = dataset(Distribution::AntiCorrelated, SWEEP_N, SWEEP_D);
    let window: Vec<Point> = pts.iter().take(SWEEP_WINDOW).cloned().collect();
    let block = PointBlock::from_points(&pts).expect("uniform dims");
    let window_block = PointBlock::from_points(&window).expect("uniform dims");
    let aos_ns = median_wall_ns(5, || aos_sweep(&window, &pts));
    let block_ns = median_wall_ns(5, || dominated_count(&block, &window_block));
    drop((pts, window, block, window_block));

    let mut cells = Vec::new();
    for dist in MATRIX_DISTS {
        for n in MATRIX_N {
            for d in MATRIX_D {
                let cell = measure_cell(dist, n, d, false);
                println!(
                    "matrix {}: sky={} bnl={} sfs={:.1}ms salsa={:.1}ms auto={:.1}ms ({})",
                    cell.key,
                    cell.skyline,
                    cell.bnl_ms
                        .map_or("skipped".to_string(), |b| format!("{b:.1}ms")),
                    cell.sfs_ms,
                    cell.salsa_ms,
                    cell.auto_ms,
                    cell.auto_kernel,
                );
                cells.push(cell);
            }
        }
    }

    let mut matrix = String::new();
    let mut skipped = Vec::new();
    let mut max_penalty_pct = 0.0f64;
    let mut all_within = true;
    for (i, cell) in cells.iter().enumerate() {
        let (best_kernel, best_ms) = cell.best();
        if cell.bnl_ms.is_none() {
            skipped.push(format!("\"{}\"", cell.key));
        }
        let penalty_pct = ((cell.auto_ms - best_ms) / best_ms * 100.0).max(0.0);
        max_penalty_pct = max_penalty_pct.max(penalty_pct);
        all_within &= cell.auto_within_tolerance();
        let bnl = cell
            .bnl_ms
            .map_or("null".to_string(), |b| format!("{b:.2}"));
        let bnl_over_best = cell
            .bnl_ms
            .map_or("null".to_string(), |b| format!("{:.2}", b / best_ms));
        let _ = write!(
            matrix,
            "{}    \"{}\": {{\"distribution\": \"{}\", \"n\": {}, \"d\": {}, \"rho\": {:.2}, \"skyline\": {}, \"bnl_ms\": {}, \"sfs_ms\": {:.2}, \"salsa_ms\": {:.2}, \"auto_ms\": {:.2}, \"auto_kernel\": \"{}\", \"best_kernel\": \"{}\", \"bnl_over_best\": {}, \"auto_penalty_pct\": {:.2}}}",
            if i == 0 { "" } else { ",\n" },
            cell.key,
            cell.dist,
            cell.n,
            cell.d,
            cell.rho,
            cell.skyline,
            bnl,
            cell.sfs_ms,
            cell.salsa_ms,
            cell.auto_ms,
            cell.auto_kernel,
            best_kernel,
            bnl_over_best,
            penalty_pct,
        );
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let json = format!(
        "{{\n  \"bench\": \"kernels/block_vs_aos\",\n  \"distribution\": \"anti-correlated\",\n  \"n\": {SWEEP_N},\n  \"d\": {SWEEP_D},\n  \"window\": {SWEEP_WINDOW},\n  \"aos_sweep_ns\": {aos_ns:.0},\n  \"block_sweep_ns\": {block_ns:.0},\n  \"speedup\": {:.2},\n  \"matrix_bench\": \"kernels/selection_matrix\",\n  \"auto_tolerance\": {{\"pct\": {AUTO_TOLERANCE_PCT}, \"floor_ms\": {AUTO_TOLERANCE_FLOOR_MS}}},\n  \"bnl_comparison_budget\": {BNL_COMPARISON_BUDGET},\n  \"bnl_skipped_cells\": [{}],\n  \"max_auto_penalty_pct\": {max_penalty_pct:.2},\n  \"auto_all_within_tolerance\": {all_within},\n  \"matrix\": {{\n{matrix}\n  }}\n}}\n",
        aos_ns / block_ns,
        skipped.join(", "),
    );
    match std::fs::write(path, json) {
        Ok(()) => println!(
            "wrote {path} (block speedup {:.2}x, max auto penalty {max_penalty_pct:.2}%, auto within tolerance: {all_within})",
            aos_ns / block_ns
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    if !skipped.is_empty() {
        println!(
            "note: BNL skipped on {} cells past the {BNL_COMPARISON_BUDGET}-comparison budget: {}",
            skipped.len(),
            skipped.join(", ")
        );
    }
}

criterion_group!(
    benches,
    bench_block_vs_aos,
    bench_kernel_matrix,
    bench_kernels,
    bench_bnl_scaling,
    bench_parallel
);
criterion_main!(benches);
