//! Ingestion of the **real QWS dataset file** for users who have it.
//!
//! The QWS v2 distribution (Al-Masri & Mahmoud) is a CSV with one service
//! per line:
//!
//! ```text
//! Response Time, Availability, Throughput, Successability, Reliability,
//! Compliance, Best Practices, Latency, Documentation, Service Name, WSDL Address
//! ```
//!
//! [`load_qws_file`] parses that layout, **orients** every attribute to the
//! workspace's lower-is-better convention via the catalogue in
//! [`attributes`](crate::attributes), and reorders columns to the canonical
//! attribute order (response time first, latency second…). The real file has
//! no price column, so the loaded dataset has the nine QWS attributes; the
//! synthetic generator's `price` axis is simply absent.
//!
//! Lines starting with `#` and blank lines are skipped. Every other line
//! needs at least ten fields: the nine QoS values and the service name (the
//! name, the WSDL address and any later field are not read). A malformed
//! line is an error naming its 1-based line number, since silently dropping
//! services would bias every measurement. Finite values outside the
//! catalogue range are clamped into it; `NaN`, `inf` and a literal that
//! overflows `f64` (`1e400`) are errors, as in `Dataset::load_csv`, and so
//! is a line that is not UTF-8.

use crate::attributes::{AttributeSpec, QWS_ATTRIBUTES};
use crate::dataset::Dataset;
use skyline_algos::block::PointBlock;
use std::io::BufRead;
use std::path::Path;

/// Column order of the raw QWS v2 file.
const QWS_FILE_COLUMNS: [&str; 9] = [
    "response_time",
    "availability",
    "throughput",
    "successability",
    "reliability",
    "compliance",
    "best_practices",
    "latency",
    "documentation",
];

/// The canonical attribute order of datasets produced by [`load_qws_file`]
/// (the workspace order minus the synthetic `price` axis).
pub const LOADED_ATTRIBUTE_ORDER: [&str; 9] = [
    "response_time",
    "latency",
    "availability",
    "throughput",
    "successability",
    "reliability",
    "compliance",
    "best_practices",
    "documentation",
];

/// Loads a QWS-format CSV file into an oriented [`Dataset`]. Point ids are
/// 0-based service positions in file order.
///
/// # Errors
///
/// I/O errors, the first line that is not UTF-8, malformed or not finite,
/// and a file with no services are errors.
pub fn load_qws_file(path: &Path) -> std::io::Result<Dataset> {
    // for each output column: where it sits in the file, and its spec
    let columns: Vec<(usize, &AttributeSpec)> = LOADED_ATTRIBUTE_ORDER
        .iter()
        .map(|name| {
            let file_col = QWS_FILE_COLUMNS
                .iter()
                .position(|c| c == name)
                .expect("orders cover the same attributes");
            let spec = QWS_ATTRIBUTES
                .iter()
                .find(|a| a.name == *name)
                .expect("catalogue covers every QWS column");
            (file_col, spec)
        })
        .collect();
    // Services accumulate straight into one columnar block; the reader
    // reuses one line buffer for the whole file.
    let mut block = PointBlock::new(LOADED_ATTRIBUTE_ORDER.len());
    let mut reader = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut buf = Vec::with_capacity(256);
    let mut lineno = 0usize;
    let invalid = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = std::str::from_utf8(&buf)
            .map_err(|_| invalid(format!("QWS line {lineno} is not valid UTF-8")))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let coords = parse_row(trimmed, &columns)
            .map_err(|what| invalid(format!("malformed QWS line {lineno}: {what}")))?;
        block
            .push(block.len() as u64, &coords)
            .expect("parse_row validated dimension and finiteness");
    }
    let n = block.len();
    // an empty block is the one error
    Dataset::from_block(format!("qws-file(n={n})"), block)
        .map_err(|_| invalid("QWS file contains no services".to_string()))
}

/// Parses, clamps, orients and reorders one CSV row; `Err` is why the row
/// is malformed.
fn parse_row(trimmed: &str, columns: &[(usize, &AttributeSpec)]) -> Result<[f64; 9], &'static str> {
    let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
    if fields.len() < 10 {
        return Err("fewer than 10 fields");
    }
    let mut raw = [0.0f64; 9];
    for (slot, field) in raw.iter_mut().zip(&fields) {
        *slot = field.parse::<f64>().map_err(|_| "non-numeric QoS field")?;
        // "NaN", "inf" and "1e400" parse as legal f64s; checked before
        // the clamp, which would turn an infinity into a range bound
        if !slot.is_finite() {
            return Err("non-finite QoS field");
        }
    }
    let mut coords = [0.0f64; 9];
    for (slot, &(file_col, spec)) in coords.iter_mut().zip(columns) {
        // clamp into the catalogue range: the real file has a handful of
        // out-of-range artefacts
        *slot = spec.orient(raw[file_col].clamp(spec.range.0, spec.range.1));
    }
    Ok(coords)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `body` to a temporary file named `file` and loads it.
    fn load_text(file: &str, body: impl AsRef<[u8]>) -> std::io::Result<Dataset> {
        let dir = std::env::temp_dir().join("qws-ingest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{file}", std::process::id()));
        std::fs::write(&path, body).unwrap();
        let loaded = load_qws_file(&path);
        std::fs::remove_file(&path).unwrap();
        loaded
    }

    /// Loads `lines`, each ended by `\n`.
    fn load_lines(file: &str, lines: &[&str]) -> std::io::Result<Dataset> {
        load_text(
            file,
            lines.iter().map(|l| format!("{l}\n")).collect::<String>(),
        )
    }

    // RT, Avail, Thr, Succ, Rel, Compl, BP, Lat, Doc, Name, WSDL
    const GOOD: &str =
        "120.5, 95.0, 10.2, 96.0, 73.0, 80.0, 60.0, 30.5, 50.0, FastWeather, http://x/a?wsdl";
    const SLOW: &str =
        "2500.0, 40.0, 1.0, 45.0, 40.0, 50.0, 40.0, 900.0, 10.0, SlowWeather, http://x/b?wsdl";

    #[test]
    fn loads_orients_and_reorders() {
        let data = load_lines("orients.csv", &["# header comment", GOOD, "", SLOW]).unwrap();
        assert_eq!(data.len(), 2);
        assert_eq!(data.dim(), 9);
        // column 0 = oriented response time = raw - 37
        assert!((data.points()[0].coord(0) - (120.5 - 37.0)).abs() < 1e-9);
        // column 2 = oriented availability = 100 - raw
        assert!((data.points()[0].coord(2) - (100.0 - 95.0)).abs() < 1e-9);
        // the fast service dominates the slow one on every axis
        assert!(skyline_algos::dominance::dominates(
            &data.points()[0],
            &data.points()[1]
        ));
    }

    #[test]
    fn attribute_order_matches_catalogue_names() {
        for name in LOADED_ATTRIBUTE_ORDER {
            assert!(
                QWS_ATTRIBUTES.iter().any(|a| a.name == name),
                "{name} missing from catalogue"
            );
        }
    }

    #[test]
    fn out_of_range_values_are_clamped() {
        let line = "10.0, 150.0, 10.0, 96.0, 73.0, 80.0, 60.0, 30.0, 50.0, Weird, http://x?wsdl";
        let data = load_lines("clamped.csv", &[line]).unwrap();
        // availability clamped to 100 → oriented 0; response time clamped to 37 → 0
        assert_eq!(data.points()[0].coord(2), 0.0);
        assert_eq!(data.points()[0].coord(0), 0.0);
    }

    #[test]
    fn malformed_lines_are_errors() {
        for bad in [
            "1,2,3",                                                  // too few fields
            "a, 95, 10, 96, 73, 80, 60, 30, 50, Name, http://x?wsdl", // non-numeric
        ] {
            assert!(load_lines("malformed.csv", &[GOOD, bad]).is_err(), "{bad}");
        }
    }

    #[test]
    fn non_finite_values_are_errors() {
        let line = "NaN, 95.0, 10.0, 96.0, 73.0, 80.0, 60.0, 30.0, 50.0, NanSvc, http://x?wsdl";
        let err = load_lines("nan.csv", &[GOOD, line]).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn ids_are_stable_across_block_round_trip() {
        let data = load_lines("ids.csv", &[GOOD, SLOW, GOOD, SLOW]).unwrap();
        // ids are 0-based file order and survive a block round-trip verbatim
        let block = PointBlock::from_points(data.points()).unwrap();
        assert_eq!(block.ids(), &[0, 1, 2, 3]);
        assert_eq!(block.to_points(), data.points());
        for (i, p) in data.points().iter().enumerate() {
            assert_eq!(p.id(), i as u64);
        }
    }

    #[test]
    fn empty_file_is_an_error() {
        assert!(load_lines("empty.csv", &["# only a comment"]).is_err());
    }

    #[test]
    fn loaded_data_runs_through_the_skyline_stack() {
        use skyline_algos::seq::naive_skyline_ids;
        let lines: Vec<String> = (0..40)
            .map(|i| {
                format!(
                    "{}, {}, 5.0, 80.0, 60.0, 70.0, 55.0, {}, 40.0, Svc{}, http://x/{i}?wsdl",
                    100.0 + 70.0 * f64::from(i % 7),
                    60.0 + 4.0 * f64::from(i % 9),
                    10.0 + 30.0 * f64::from(i % 5),
                    i
                )
            })
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let data = load_lines("stack.csv", &refs).unwrap();
        let sky = naive_skyline_ids(data.points());
        assert!(!sky.is_empty() && sky.len() < data.len());
    }

    /// Hostile QWS inputs and the exact result of each: what the loader
    /// with the lenient, chunked and traced entry points beside it gave,
    /// except that an infinity, an overflowing literal and a line that is
    /// not UTF-8 are now errors that name their line.
    const HOSTILE_QWS: &[(&str, &[u8], &str)] = &[
        (
            "comments-blanks-and-whitespace",
            b"# header\n\n   \n\t\n  # indented comment\n120.5,95,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl\n#\n",
            "ok qws-file(n=1) 0:[83.5, 30.24, 5.0, 32.900000000000006, 4.0, 16.0, 20.0, 35.0, 46.0]",
        ),
        (
            "crlf",
            b"120.5,95,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl\r\n2500,40,1,45,40,50,40,900,10,B,http://x/b?wsdl\r\n",
            "ok qws-file(n=2) 0:[83.5, 30.24, 5.0, 32.900000000000006, 4.0, 16.0, 20.0, 35.0, 46.0] 1:[2463.0, 899.74, 60.0, 42.1, 55.0, 49.0, 50.0, 55.0, 86.0]",
        ),
        (
            "no-final-newline",
            b"120.5,95,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl",
            "ok qws-file(n=1) 0:[83.5, 30.24, 5.0, 32.900000000000006, 4.0, 16.0, 20.0, 35.0, 46.0]",
        ),
        (
            "spaces-around-fields",
            b" 120.5 ,\t95, 10.2,96,73,80,60,30.5,50 , A , http://x/a?wsdl \n",
            "ok qws-file(n=1) 0:[83.5, 30.24, 5.0, 32.900000000000006, 4.0, 16.0, 20.0, 35.0, 46.0]",
        ),
        (
            "nine-fields",
            b"120.5,95,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl\n120.5,95,10.2,96,73,80,60,30.5,50\n",
            "err InvalidData: malformed QWS line 2: fewer than 10 fields",
        ),
        (
            "ten-fields",
            b"120.5,95,10.2,96,73,80,60,30.5,50,NoWsdl\n",
            "ok qws-file(n=1) 0:[83.5, 30.24, 5.0, 32.900000000000006, 4.0, 16.0, 20.0, 35.0, 46.0]",
        ),
        (
            "twelve-fields",
            b"120.5,95,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl,extra\n",
            "ok qws-file(n=1) 0:[83.5, 30.24, 5.0, 32.900000000000006, 4.0, 16.0, 20.0, 35.0, 46.0]",
        ),
        (
            "empty-name",
            b"120.5,95,10.2,96,73,80,60,30.5,50,\n",
            "ok qws-file(n=1) 0:[83.5, 30.24, 5.0, 32.900000000000006, 4.0, 16.0, 20.0, 35.0, 46.0]",
        ),
        (
            "non-numeric",
            b"120.5,95,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl\n120.5,95,x,96,73,80,60,30.5,50,B,http://x/b?wsdl\n",
            "err InvalidData: malformed QWS line 2: non-numeric QoS field",
        ),
        (
            "empty-numeric-field",
            b"120.5,,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl\n",
            "err InvalidData: malformed QWS line 1: non-numeric QoS field",
        ),
        (
            "byte-order-mark",
            b"\xef\xbb\xbf120.5,95,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl\n",
            "err InvalidData: malformed QWS line 1: non-numeric QoS field",
        ),
        (
            "nan",
            b"120.5,95,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl\n120.5,95,10.2,NaN,73,80,60,30.5,50,B,http://x/b?wsdl\n",
            "err InvalidData: malformed QWS line 2: non-finite QoS field",
        ),
        (
            "inf",
            b"inf,95,10.2,96,73,80,60,-inf,50,A,http://x/a?wsdl\n",
            "err InvalidData: malformed QWS line 1: non-finite QoS field",
        ),
        (
            "overflow-literal",
            b"1e400,95,10.2,96,73,80,60,30.5,-1e400,A,http://x/a?wsdl\n",
            "err InvalidData: malformed QWS line 1: non-finite QoS field",
        ),
        (
            "minus-inf-only",
            b"120.5,95,10.2,96,73,80,60,-inf,50,A,http://x/a?wsdl\n",
            "err InvalidData: malformed QWS line 1: non-finite QoS field",
        ),
        (
            "negative-overflow-only",
            b"120.5,95,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl\n120.5,95,10.2,96,73,80,60,30.5,-1e400,B,http://x/b?wsdl\n",
            "err InvalidData: malformed QWS line 2: non-finite QoS field",
        ),
        (
            "out-of-range-clamps",
            b"12.5,104,50,7,99,20,100,0.1,0,A,http://x/a?wsdl\n5000,0,0,0,0,0,0,9999,200,B,http://x/b?wsdl\n",
            "ok qws-file(n=2) 0:[0.0, 0.0, 0.0, 0.0, 92.0, 0.0, 67.0, 0.0, 95.0] 1:[4952.0, 4139.74, 93.0, 43.0, 92.0, 56.0, 67.0, 62.0, 0.0]",
        ),
        (
            "signed-zero",
            b"-0.0,100,0.0,-0,89,100,95,-0,-0.0,A,http://x/a?wsdl\n",
            "ok qws-file(n=1) 0:[0.0, 0.0, 0.0, 43.0, 92.0, 0.0, 0.0, 0.0, 95.0]",
        ),
        (
            "invalid-utf8-before-malformed",
            b"120.5,95,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl\n120.5,95,10.2,96,73,80,60,30.5,50,\xff,http://x/b?wsdl\n1,2,3\n",
            "err InvalidData: QWS line 2 is not valid UTF-8",
        ),
        (
            "invalid-utf8-after-malformed",
            b"120.5,95,10.2,96,73,80,60,30.5,50,A,http://x/a?wsdl\n1,2,3\n120.5,95,10.2,96,73,80,60,30.5,50,\xff,http://x/b?wsdl\n",
            "err InvalidData: malformed QWS line 2: fewer than 10 fields",
        ),
        ("empty", b"", "err InvalidData: QWS file contains no services"),
        ("comment-only", b"# only\n# comments\n", "err InvalidData: QWS file contains no services"),
        ("blank-only", b"\n  \n\r\n", "err InvalidData: QWS file contains no services"),
    ];

    /// The loaded services as `id:[coords]`, or the error kind and text.
    fn describe(loaded: &std::io::Result<Dataset>) -> String {
        match loaded {
            Err(e) => format!("err {:?}: {e}", e.kind()),
            Ok(d) => {
                let rows: Vec<String> = d
                    .points()
                    .iter()
                    .map(|p| format!("{}:{:?}", p.id(), p.coords()))
                    .collect();
                format!("ok {} {}", d.name, rows.join(" "))
            }
        }
    }

    #[test]
    fn hostile_inputs_load_exactly_as_before() {
        for (file, body, want) in HOSTILE_QWS {
            let got = describe(&load_text(&format!("hostile-{file}.txt"), body));
            assert_eq!(&got, want, "{file}");
        }
    }
}
