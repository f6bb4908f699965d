//! Ingest throughput: what each loader costs per row.
//!
//! The first group generates a synthetic QWS catalogue CSV (9 QoS fields
//! and a service name, the layout `load_qws_file` parses) in the temp dir
//! once, then measures `load_qws_file`, the strict line-by-line loader
//! behind `mrsky --qws-file`, which reuses one line buffer for the whole
//! file and builds one `Dataset`.
//!
//! A second group measures `Dataset::load_csv` on a generic
//! `id,coord0,…` file written by `save_csv` (QWS-like rows, d = 6, about
//! 5.6 MB): the loader every batch query of `mrsky` starts with. It cuts
//! the file into 1 MiB byte-range splits, parses them on the task pool
//! (`MRSKY_THREADS` pins the thread count) each into its own columnar
//! block, and appends the blocks in file order, so the round trip is
//! asserted across split seams. Beside it, [`reference_load`] reads the
//! same file with the loader's line loop from before its number scanner.
//!
//! The recording (skipped in `--test` smoke runs so the committed baseline
//! survives) writes `BENCH_ingest.json` at the workspace root: on the
//! `qws-500k-d6` benchmark workload's file (500k QWS-like rows, d = 6,
//! about 56 MB), `load_csv` at one thread (`MRSKY_THREADS=1`) and the
//! reference alternate over [`RECORD_ROUNDS`] rounds. `parse_speedup` is
//! the median per-round ratio of the reference's time to `load_csv`'s.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qws_data::{generate_qws, load_qws_file, Dataset, QwsConfig};
use skyline_algos::block::PointBlock;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rows in the generated catalogue — large enough that per-line
/// allocation shows up, small enough for criterion's sample loop.
const ROWS: usize = 50_000;

/// Rows and dimensions of the recorded file: the `qws-500k-d6` workload.
const RECORD_ROWS: usize = 500_000;
const RECORD_DIMS: usize = 6;
/// Alternating reference/`load_csv` rounds of the recording.
const RECORD_ROUNDS: usize = 11;

/// The loader's line loop before its number scanner, kept as a fixed
/// reference: the file read and UTF-8 checked whole, then each line cut by
/// `split(',')`, every field trimmed and parsed by `str::parse`, and the
/// rows pushed into one block. It reads only `save_csv` files and panics
/// on anything else.
fn reference_load(path: &Path) -> PointBlock {
    let bytes = std::fs::read(path).expect("read CSV");
    let text = std::str::from_utf8(&bytes).expect("UTF-8 CSV");
    let mut block: Option<PointBlock> = None;
    let mut row = Vec::new();
    for line in text.split_terminator('\n') {
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let id: u64 = fields
            .next()
            .and_then(|s| s.trim().parse().ok())
            .expect("id");
        row.clear();
        for field in fields {
            row.push(field.trim().parse::<f64>().expect("coordinate"));
        }
        block
            .get_or_insert_with(|| {
                PointBlock::with_capacity(row.len(), bytes.len() / (line.len() + 1) + 1)
            })
            .push(id, &row)
            .expect("row");
    }
    block.expect("rows")
}

/// Writes a deterministic QWS-shaped CSV: 9 in-range QoS fields plus a
/// service name per line, with the comment/blank noise real files carry.
fn write_catalogue() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrsky-bench-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("qws_{ROWS}.csv"));
    let mut text = String::with_capacity(ROWS * 96);
    text.push_str("# synthetic QWS catalogue for the ingest bench\n");
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for row in 0..ROWS {
        if row % 1000 == 0 {
            text.push('\n'); // blank-line noise the reader must skip
        }
        // response, availability, throughput, successability, reliability,
        // compliance, best practices, latency, documentation, name
        let _ = writeln!(
            text,
            "{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},Service{row}",
            20.0 + 4000.0 * unit(),
            7.0 + 93.0 * unit(),
            0.1 + 43.0 * unit(),
            8.0 + 92.0 * unit(),
            33.0 + 56.0 * unit(),
            33.0 + 67.0 * unit(),
            5.0 + 90.0 * unit(),
            0.1 + 4989.0 * unit(),
            1.0 + 95.0 * unit(),
        );
    }
    std::fs::write(&path, text).expect("write catalogue");
    path
}

fn bench_ingest(c: &mut Criterion) {
    let path = write_catalogue();
    let whole = load_qws_file(&path).expect("whole-file load");
    assert_eq!(whole.len(), ROWS, "generator row count");

    let mut group = c.benchmark_group(format!("ingest/qws_n{ROWS}"));
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("whole_file", ROWS), &path, |b, path| {
        b.iter(|| load_qws_file(path).expect("load").len());
    });
    group.finish();

    // The generic CSV loader, on the same row count.
    let csv = path.with_file_name(format!("generic_{ROWS}.csv"));
    let data = generate_qws(&QwsConfig::new(ROWS, 6));
    data.save_csv(&csv).expect("write generic CSV");
    let loaded = Dataset::load_csv("bench", &csv).expect("generic load");
    assert_eq!(
        loaded.block(),
        data.block(),
        "load_csv must round-trip save_csv"
    );
    let mut group = c.benchmark_group(format!("ingest/generic_n{ROWS}_d6"));
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("load_csv", ROWS), &csv, |b, csv| {
        b.iter(|| Dataset::load_csv("bench", csv).expect("load").len());
    });
    assert_eq!(&reference_load(&csv), data.block(), "reference loop");
    group.bench_with_input(BenchmarkId::new("reference_loop", ROWS), &csv, |b, csv| {
        b.iter(|| reference_load(csv).len());
    });
    group.finish();

    let _ = std::fs::remove_dir_all(path.parent().expect("bench dir"));
}

fn wall_ns(f: impl FnOnce() -> usize) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn record_parse_speedup(_c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    // one thread parses every split, so the ratio is the parser's alone
    std::env::set_var("MRSKY_THREADS", "1");
    let dir = std::env::temp_dir().join(format!("mrsky-bench-ingest-rec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("qws_{RECORD_ROWS}_d{RECORD_DIMS}.csv"));
    let data = generate_qws(&QwsConfig::new(RECORD_ROWS, RECORD_DIMS));
    data.save_csv(&path).expect("write CSV");
    let bytes = std::fs::metadata(&path).expect("CSV size").len();
    let load = || Dataset::load_csv("bench", &path).expect("load").len();
    let reference = || reference_load(&path).len();
    assert_eq!(
        Dataset::load_csv("bench", &path).expect("load").block(),
        data.block(),
        "load_csv must round-trip save_csv"
    );
    assert_eq!(&reference_load(&path), data.block(), "reference loop");
    let rounds: Vec<(f64, f64)> = (0..RECORD_ROUNDS)
        .map(|_| (wall_ns(reference), wall_ns(load)))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let reference_ns = median(rounds.iter().map(|r| r.0).collect());
    let load_ns = median(rounds.iter().map(|r| r.1).collect());
    let parse_speedup = median(rounds.iter().map(|r| r.0 / r.1).collect());
    let fields = (RECORD_ROWS * RECORD_DIMS) as f64;
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    let json = format!(
        "{{\n  \"bench\": \"ingest/load_csv_qws_n{RECORD_ROWS}_d{RECORD_DIMS}\",\n  \"n\": {RECORD_ROWS},\n  \"d\": {RECORD_DIMS},\n  \"bytes\": {bytes},\n  \"threads\": 1,\n  \"rounds\": {RECORD_ROUNDS},\n  \"load_csv_ns\": {load_ns:.0},\n  \"reference_loop_ns\": {reference_ns:.0},\n  \"parse_speedup\": {parse_speedup:.2},\n  \"load_csv_ns_per_field\": {:.1},\n  \"reference_loop_ns_per_field\": {:.1}\n}}\n",
        load_ns / fields,
        reference_ns / fields,
    );
    match std::fs::write(out, json) {
        Ok(()) => println!("wrote {out} (load_csv {parse_speedup:.2}x the reference loop)"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}

criterion_group!(benches, bench_ingest, record_parse_speedup);
criterion_main!(benches);
