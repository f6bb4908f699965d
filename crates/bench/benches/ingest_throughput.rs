//! Ingest throughput: what the buffer-reusing line reader and the chunked
//! streaming loader cost per row on a realistic QWS-shaped CSV.
//!
//! The seed reader allocated a fresh `String` for every line of the file;
//! this PR's `ingest_rows` pump reuses one line buffer for the whole file
//! and backs both the whole-file and the chunked loaders. The bench
//! generates a synthetic QWS catalogue CSV (9 QoS fields + a service
//! name, the WSDL column shape `load_qws_file` parses) in the temp dir
//! once, then measures:
//!
//! * `whole_file` — `load_qws_file`, one `Dataset` for the whole file;
//! * `chunked_4k` — `load_qws_file_chunked` with 4096-row chunks, the
//!   bounded-memory streaming path a 10M-row ingest rides.
//!
//! Both must agree on the row count; the chunked path holds at most one
//! chunk of rows resident.
//!
//! A second group measures `Dataset::load_csv` on a generic
//! `id,coord0,…` file written by `save_csv` (QWS-like rows, d = 6, about
//! 5.6 MB): the loader every batch query of `mrsky` starts with. It cuts
//! the file into 1 MiB byte-range splits, parses them on the task pool
//! (`MRSKY_THREADS` pins the thread count) each into its own columnar
//! block, and appends the blocks in file order, so the round trip is
//! asserted across split seams.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrsky_trace::Tracer;
use qws_data::ingest::IngestOptions;
use qws_data::{generate_qws, load_qws_file, load_qws_file_chunked, Dataset, QwsConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Rows in the generated catalogue — large enough that per-line
/// allocation shows up, small enough for criterion's sample loop.
const ROWS: usize = 50_000;
const CHUNK_ROWS: usize = 4_096;

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
    let tracer = Tracer::disabled();
    let opts = IngestOptions::default();

    let whole = load_qws_file(&path).expect("whole-file load").0;
    let mut chunked_rows = 0usize;
    let mut max_resident = 0usize;
    load_qws_file_chunked(&path, &tracer, &opts, CHUNK_ROWS, &mut |chunk| {
        chunked_rows += chunk.block.len();
        max_resident = max_resident.max(chunk.block.len());
    })
    .expect("chunked load");
    assert_eq!(whole.len(), ROWS, "generator row count");
    assert_eq!(chunked_rows, ROWS, "chunked loader dropped rows");
    assert!(
        max_resident <= CHUNK_ROWS,
        "a chunk exceeded its row bound: {max_resident}"
    );

    let mut group = c.benchmark_group(format!("ingest/qws_n{ROWS}"));
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("whole_file", ROWS), &path, |b, path| {
        b.iter(|| load_qws_file(path).expect("load").0.len());
    });
    group.bench_with_input(BenchmarkId::new("chunked_4k", ROWS), &path, |b, path| {
        b.iter(|| {
            let mut rows = 0usize;
            load_qws_file_chunked(path, &tracer, &opts, CHUNK_ROWS, &mut |chunk| {
                rows += chunk.block.len();
            })
            .expect("load");
            rows
        });
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
    group.finish();

    let _ = std::fs::remove_dir_all(path.parent().expect("bench dir"));
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
