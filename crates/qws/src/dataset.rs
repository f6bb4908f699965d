//! The [`Dataset`] container, CSV persistence and an update stream for the
//! incremental-maintenance experiments.

use crate::decimal;
use mini_mapreduce::pool;
use rand::{rngs::StdRng, Rng, SeedableRng};
use skyline_algos::block::PointBlock;
use skyline_algos::partition::Bounds;
use skyline_algos::point::Point;
use skyline_algos::SkylineError;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::OnceLock;

/// A named collection of points with cached bounds.
///
/// The rows live in one columnar [`PointBlock`], the layout the pipeline
/// maps over. [`Dataset::points`] is an AoS view for API callers (examples,
/// tests), built on its first call and kept.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable provenance, e.g. `"qws(n=100000,d=10,seed=42)"`.
    pub name: String,
    block: PointBlock,
    bounds: Bounds,
    points: OnceLock<Vec<Point>>,
}

impl Dataset {
    /// Wraps points into a dataset, computing bounds.
    ///
    /// # Errors
    ///
    /// [`SkylineError::EmptyDataset`] if `points` is empty and
    /// [`SkylineError::DimensionMismatch`] if it mixes dimensionalities.
    pub fn new(name: impl Into<String>, points: Vec<Point>) -> Result<Self, SkylineError> {
        Self::from_block(name, PointBlock::from_points(&points)?)
    }

    /// Wraps a block into a dataset, computing bounds.
    ///
    /// # Errors
    ///
    /// [`SkylineError::EmptyDataset`] if `block` is empty.
    pub fn from_block(name: impl Into<String>, block: PointBlock) -> Result<Self, SkylineError> {
        let bounds = Bounds::from_block(&block)?;
        Ok(Self {
            name: name.into(),
            block,
            bounds,
            points: OnceLock::new(),
        })
    }

    /// [`Dataset::from_block`] for a block this crate built with at least
    /// one row: a generator's, whose cardinality is asserted positive, or
    /// the prefix [`Dataset::take`] cuts.
    pub(crate) fn from_built(name: impl Into<String>, block: PointBlock) -> Self {
        Self::from_block(name, block).expect("a built block has at least one row")
    }

    /// The rows, columnar.
    pub fn block(&self) -> &PointBlock {
        &self.block
    }

    /// The rows as points, in block order. The first call copies the block.
    pub fn points(&self) -> &[Point] {
        self.points.get_or_init(|| self.block.to_points())
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// `true` if the dataset holds no points (unreachable by construction,
    /// present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.block.dim()
    }

    /// Cached bounding box.
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// Projects every point onto its first `d` dimensions — the paper's
    /// dimensionality sweeps evaluate the *same* services at d ∈ {2,…,10}.
    pub fn project(&self, d: usize) -> Dataset {
        Dataset {
            name: format!("{}|d={d}", self.name),
            block: self.block.project(d),
            bounds: self.bounds.project(d),
            points: OnceLock::new(),
        }
    }

    /// Takes the first `n` services (datasets are generated in random order,
    /// so a prefix is an unbiased subsample).
    pub fn take(&self, n: usize) -> Dataset {
        assert!(n >= 1 && n <= self.len(), "invalid subsample size {n}");
        Dataset::from_built(format!("{}|n={n}", self.name), self.block.slice(0, n))
    }

    /// Writes `id,coord0,coord1,…` rows.
    pub fn save_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, row) in self.block.iter() {
            write!(w, "{id}")?;
            for v in row {
                write!(w, ",{v}")?;
            }
            writeln!(w)?;
        }
        w.flush()
    }

    /// Reads a file written by [`Dataset::save_csv`].
    ///
    /// Input the pipeline cannot run on is an [`std::io::ErrorKind::InvalidData`]
    /// error, never a panic: a line that is not UTF-8, a malformed or
    /// non-finite field, a row whose width differs from the first row's, a
    /// repeated id, an empty file, and a column whose span `max - min`
    /// overflows f64 (every partitioner scales by it). The first such line
    /// in the file is the one named.
    ///
    /// The file is read as fixed 1 MiB byte ranges, Hadoop-style splits that
    /// each own the lines whose first byte they hold. The splits are parsed
    /// on the task pool, each into its own block, and the blocks are
    /// concatenated in file order, so the dataset and its errors do not
    /// depend on the thread count.
    pub fn load_csv(name: impl Into<String>, path: &Path) -> io::Result<Self> {
        load_csv_split(name, path, SPLIT_BYTES, pool::default_threads())
    }
}

/// The byte length of one [`Dataset::load_csv`] input split.
const SPLIT_BYTES: u64 = 1 << 20;

/// Bytes a split buffer keeps free past its range, for the rest of the
/// line that crosses the range's end and the scanner's padding.
const TAIL_ROOM: usize = 4096;

/// [`Dataset::load_csv`] with `split_bytes`-long splits on `threads` threads.
///
/// A clean file is parsed once, in parallel. A split that fails, rows of
/// different widths in different splits, or a repeated id send the load to
/// [`walk_splits`], which finds the first error in file order.
fn load_csv_split(
    name: impl Into<String>,
    path: &Path,
    split_bytes: u64,
    threads: usize,
) -> io::Result<Dataset> {
    let meta = std::fs::metadata(path)?;
    // A pipe has no byte ranges to split.
    if !meta.is_file() {
        return Err(invalid_data(format!(
            "{} is not a regular file",
            path.display()
        )));
    }
    let len = meta.len();
    let splits = usize::try_from(len.div_ceil(split_bytes)).map_err(|_| too_large(len))?;
    let clean = parse_parallel(path, len, split_bytes, splits, threads)
        .filter(|rows| rows.as_ref().is_none_or(Rows::unique_ids));
    let rows = match clean {
        Some(rows) => rows,
        None => walk_splits(path, len, split_bytes, splits)?,
    };
    let Some(Rows {
        block, min, max, ..
    }) = rows
    else {
        return Err(invalid_data("CSV contains no points".to_string()));
    };
    let dataset = Dataset {
        name: name.into(),
        block,
        bounds: Bounds::new(min, max),
        points: OnceLock::new(),
    };
    let bounds = dataset.bounds();
    if let Some(i) = (0..bounds.dim()).find(|&i| !bounds.width(i).is_finite()) {
        return Err(invalid_data(format!(
            "CSV coordinate {i} spans [{:e}, {:e}], a width that overflows f64",
            bounds.min(i),
            bounds.max(i)
        )));
    }
    Ok(dataset)
}

/// Rows parsed from consecutive splits, with the bounds and the id order
/// the loader folds across split seams instead of rescanning the block.
struct Rows {
    block: PointBlock,
    /// Per-column minima and maxima, folded in row order with `f64::min`
    /// and `f64::max` as [`Bounds::from_block`] folds them, so they have
    /// its bits (signed zeros included).
    min: Vec<f64>,
    max: Vec<f64>,
    /// Whether the ids strictly ascend.
    ascending: bool,
}

impl Rows {
    fn with_capacity(dim: usize, rows: usize) -> Self {
        Self {
            block: PointBlock::with_capacity(dim, rows),
            min: vec![f64::INFINITY; dim],
            max: vec![f64::NEG_INFINITY; dim],
            ascending: true,
        }
    }

    /// Appends one row, checked by [`PointBlock::push`].
    fn push(&mut self, id: u64, row: &[f64]) -> Result<(), SkylineError> {
        let last = self.block.ids().last().copied();
        self.block.push(id, row)?;
        self.ascending &= last.is_none_or(|last| last < id);
        self.fold(row, row);
        Ok(())
    }

    /// Appends the rows that follow these in the file.
    fn append(&mut self, next: &Rows) -> Result<(), SkylineError> {
        let seam = match (self.block.ids().last(), next.block.ids().first()) {
            (Some(last), Some(first)) => last < first,
            _ => true,
        };
        self.block.append(&next.block)?;
        self.ascending &= seam && next.ascending;
        self.fold(&next.min, &next.max);
        Ok(())
    }

    fn fold(&mut self, min: &[f64], max: &[f64]) {
        for (lo, &v) in self.min.iter_mut().zip(min) {
            *lo = lo.min(v);
        }
        for (hi, &v) in self.max.iter_mut().zip(max) {
            *hi = hi.max(v);
        }
    }

    /// Whether the ids are distinct. The skyline validator matches rows by
    /// id, so a repeated id could hide a dropped row. Ascending ids (every
    /// `save_csv` file) were checked row by row as they were parsed;
    /// others take a set.
    fn unique_ids(&self) -> bool {
        self.ascending || {
            let ids = self.block.ids();
            let mut seen = HashSet::with_capacity(ids.len());
            ids.iter().all(|&id| seen.insert(id))
        }
    }
}

/// Reads split `k` of a `len`-byte file cut into `split_bytes`-long byte
/// ranges, returning its bytes and the offset of its first owned line.
///
/// A split owns every line whose first byte lies in its range, as Hadoop's
/// `TextInputFormat` has it: it skips the partial line at its head unless
/// the byte before its start is `\n`, and reads past its end only to
/// finish a line that started inside it. The range and the byte before it
/// take one `read_exact`. Owned bytes start at the offset and run to the
/// end; a split holding no line start owns none. The buffer has room for
/// the tail of a line shorter than [`TAIL_ROOM`] and the scanner's
/// [`decimal::PADDING`] after it, so neither reallocates it.
fn read_split(path: &Path, len: u64, split_bytes: u64, k: usize) -> io::Result<(Vec<u8>, usize)> {
    let start = u64::try_from(k).map_err(|_| too_large(len))? * split_bytes;
    let end = start.saturating_add(split_bytes).min(len);
    let from = start.saturating_sub(1);
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(from))?;
    let n = usize::try_from(end - from).map_err(|_| too_large(len))?;
    let mut bytes = Vec::with_capacity(n + TAIL_ROOM);
    bytes.resize(n, 0);
    file.read_exact(&mut bytes)?;
    let head = if start == 0 {
        0
    } else {
        bytes
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |nl| nl + 1)
    };
    if head < bytes.len() && end < len && bytes.last() != Some(&b'\n') {
        BufReader::new(file).read_until(b'\n', &mut bytes)?;
    }
    Ok((bytes, head))
}

/// Reads split `k` (see [`read_split`]) and parses the lines it owns with
/// [`parse_split`].
fn load_split(
    path: &Path,
    len: u64,
    split_bytes: u64,
    k: usize,
    first_line: usize,
    width: Option<usize>,
    check_id: &mut impl FnMut(u64, usize) -> io::Result<()>,
) -> io::Result<(Option<Rows>, usize)> {
    let (mut bytes, head) = read_split(path, len, split_bytes, k)?;
    bytes.resize(bytes.len() + decimal::PADDING, 0);
    parse_split(&bytes[head..], first_line, width, check_id)
}

/// Parses the lines of one split, `split` being its owned bytes and then
/// [`decimal::PADDING`] zero bytes. `first_line` is the 0-based file line
/// number of its first line; `width` is the row width, or `None` to take
/// it from the split's first row; `check_id(id, line)` sees each id before
/// the row is kept. Returns the rows (`None` when the split holds none)
/// and the number of lines, blank ones included.
///
/// This is the loader's one line parser. The exact number scanner
/// (`decimal::scan_row`) walks the buffer and reads each line of the shape
/// `save_csv` writes, which is ASCII. A line it refuses, blank or hostile,
/// is cut at its `\n`, checked for UTF-8 (a line that is not is the error)
/// and goes to [`parse_fields`], so errors and the values of what it
/// accepts are unchanged. Lines are taken in order, so an earlier error
/// wins.
fn parse_split(
    split: &[u8],
    first_line: usize,
    mut width: Option<usize>,
    check_id: &mut impl FnMut(u64, usize) -> io::Result<()>,
) -> io::Result<(Option<Rows>, usize)> {
    let end = split.len() - decimal::PADDING;
    let mut rows: Option<Rows> = None;
    let mut row: Vec<f64> = Vec::new();
    let (mut at, mut lines) = (0, 0);
    while at < end {
        let (start, line_no) = (at, first_line + lines);
        lines += 1;
        row.clear();
        let id = match decimal::scan_row(split, at, end, &mut row) {
            Some((id, next)) => {
                at = next;
                check_id(id, line_no)?;
                id
            }
            None => {
                let line_end = split[at..end]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(end, |nl| at + nl);
                at = end.min(line_end + 1);
                let line = std::str::from_utf8(&split[start..line_end]).map_err(|_| {
                    invalid_data(format!("CSV line {} is not valid UTF-8", line_no + 1))
                })?;
                if line.trim().is_empty() {
                    continue;
                }
                parse_fields(line, line_no, &mut row, check_id)?
            }
        };
        // An id-only first row is malformed; a later one is ragged.
        if width.is_none() && row.is_empty() {
            return Err(bad_line(line_no));
        }
        let dim = *width.get_or_insert(row.len());
        // Room for the split's rows if they are no shorter than its first,
        // and an eighth more; capacity no row touches is never resident.
        let r =
            rows.get_or_insert_with(|| Rows::with_capacity(dim, end * 9 / (8 * (at - start)) + 1));
        r.push(id, &row).map_err(|e| match e {
            SkylineError::DimensionMismatch { expected, actual } => invalid_data(format!(
                "ragged CSV line {}: {actual} coordinates where the first row has {expected}",
                line_no + 1
            )),
            _ => bad_line(line_no),
        })?;
    }
    Ok((rows, lines))
}

/// Parses a line the number scanner refused: `id` and coordinates by
/// `split(',')`, `trim` and `str::parse`, so a `\r`, spaces, a `+` or an
/// exponent are read and any other field is named malformed. `check_id`
/// sees the id before the coordinates are parsed into `row`.
fn parse_fields(
    line: &str,
    at: usize,
    row: &mut Vec<f64>,
    check_id: &mut impl FnMut(u64, usize) -> io::Result<()>,
) -> io::Result<u64> {
    let mut fields = line.split(',');
    let id: u64 = fields
        .next()
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| bad_line(at))?;
    check_id(id, at)?;
    row.clear();
    for field in fields {
        row.push(field.trim().parse::<f64>().map_err(|_| bad_line(at))?);
    }
    Ok(id)
}

/// Parses the splits in file order on one thread, carrying the line number,
/// the row width and the first line of every id across each seam, so the
/// error it returns is the first in the file, named by its line. It holds
/// one split's bytes at a time.
fn walk_splits(path: &Path, len: u64, split_bytes: u64, splits: usize) -> io::Result<Option<Rows>> {
    let mut first_lines: HashMap<u64, usize> = HashMap::new();
    let mut check_id = |id: u64, at: usize| match first_lines.entry(id) {
        Entry::Occupied(first) => Err(invalid_data(format!(
            "duplicate id {id} on CSV lines {} and {}",
            first.get() + 1,
            at + 1
        ))),
        Entry::Vacant(slot) => {
            slot.insert(at);
            Ok(())
        }
    };
    let mut line = 0;
    let mut width = None;
    let mut out = None;
    for k in 0..splits {
        let (rows, lines) = load_split(path, len, split_bytes, k, line, width, &mut check_id)?;
        line += lines;
        if let Some(rows) = rows {
            width = Some(rows.block.dim());
            append(&mut out, &rows, splits).map_err(|e| invalid_data(e.to_string()))?;
        }
    }
    Ok(out)
}

/// Parses the splits on `threads` threads, a wave of `8 * threads` at a
/// time, and appends each wave's rows to the result in file order, so at
/// most one wave of split blocks is alive beside it. `None` when a split
/// fails or two splits disagree on the row width; `Some(None)` when the
/// file holds no row.
fn parse_parallel(
    path: &Path,
    len: u64,
    split_bytes: u64,
    splits: usize,
    threads: usize,
) -> Option<Option<Rows>> {
    let wave = threads.saturating_mul(8);
    let mut out = None;
    for first in (0..splits).step_by(wave) {
        let parsed = pool::run_indexed(wave.min(splits - first), threads, |i| {
            load_split(path, len, split_bytes, first + i, 0, None, &mut |_, _| {
                Ok(())
            })
            .map(|(rows, _)| rows)
        });
        for rows in parsed {
            if let Some(rows) = rows.ok()? {
                append(&mut out, &rows, splits).ok()?;
            }
        }
    }
    Some(out)
}

/// Appends `rows`, one split's of `splits`, to `out`. The first split
/// starts `out` with room for as many rows in every split, so a file of
/// even lines is assembled without a reallocation.
fn append(out: &mut Option<Rows>, rows: &Rows, splits: usize) -> Result<(), SkylineError> {
    out.get_or_insert_with(|| Rows::with_capacity(rows.block.dim(), rows.block.len() * splits))
        .append(rows)
}

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn bad_line(lineno: usize) -> io::Error {
    invalid_data(format!("malformed CSV line {}", lineno + 1))
}

fn too_large(len: u64) -> io::Error {
    invalid_data(format!("a {len}-byte CSV does not fit in memory"))
}

/// One event in a registry churn stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// A new service appears.
    Add(Point),
    /// The service with this id disappears.
    Remove(u64),
}

/// Generates a deterministic churn stream against `base`: `steps` events,
/// with probability `add_prob` of an add (drawn by cloning a random template
/// from `base` and jittering it by ±`jitter` relative) and otherwise a
/// removal of a random still-live service. Used by the incremental example
/// and the churn integration tests.
pub fn update_stream(
    base: &Dataset,
    steps: usize,
    add_prob: f64,
    jitter: f64,
    seed: u64,
) -> Vec<Update> {
    assert!(
        (0.0..=1.0).contains(&add_prob),
        "add_prob must be a probability"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<u64> = base.points().iter().map(Point::id).collect();
    let mut next_id = live.iter().max().map(|m| m + 1).unwrap_or(0);
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        if live.is_empty() || rng.gen_bool(add_prob) {
            let template = &base.points()[rng.gen_range(0..base.len())];
            let coords: Vec<f64> = template
                .coords()
                .iter()
                .map(|&v| {
                    let f = 1.0 + rng.gen_range(-jitter..=jitter);
                    (v * f).max(0.0)
                })
                .collect();
            let p = Point::new(next_id, coords);
            live.push(next_id);
            next_id += 1;
            out.push(Update::Add(p));
        } else {
            let k = rng.gen_range(0..live.len());
            out.push(Update::Remove(live.swap_remove(k)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::new(
            "tiny",
            vec![
                Point::new(0, vec![1.0, 2.0, 3.0]),
                Point::new(1, vec![4.0, 5.0, 6.0]),
                Point::new(2, vec![0.5, 9.0, 1.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.bounds().min(0), 0.5);
        assert_eq!(d.bounds().max(1), 9.0);
    }

    #[test]
    fn project_truncates_coords_and_bounds() {
        let p = tiny().project(2);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.len(), 3);
        assert_eq!(p.bounds().dim(), 2);
        assert_eq!(p.points()[0].coords(), &[1.0, 2.0]);
    }

    #[test]
    fn take_prefix() {
        let t = tiny().take(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.points()[1].id(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid subsample")]
    fn take_zero_rejected() {
        let _ = tiny().take(0);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("qws-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.csv");
        let d = tiny();
        d.save_csv(&path).unwrap();
        let back = Dataset::load_csv("tiny", &path).unwrap();
        assert_eq!(back.len(), d.len());
        for (a, b) in back.points().iter().zip(d.points()) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.coords(), b.coords());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("qws-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "not,a,number\n").unwrap();
        assert!(Dataset::load_csv("bad", &path).is_err());
        std::fs::write(&path, "").unwrap();
        assert!(Dataset::load_csv("empty", &path).is_err());
        std::fs::remove_file(&path).unwrap();
        // splits are byte ranges, so only a regular file can be read
        let err = Dataset::load_csv("dir", &dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("is not a regular file"), "{err}");
    }

    /// Writes `body` to a temporary CSV, runs `check` on its path, removes
    /// the file and returns what `check` returned.
    fn with_csv<R>(file: &str, body: &[u8], check: impl FnOnce(&Path) -> R) -> R {
        let dir = std::env::temp_dir().join("qws-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        std::fs::write(&path, body).unwrap();
        let result = check(&path);
        std::fs::remove_file(&path).unwrap();
        result
    }

    /// Writes `body` to a temporary CSV and loads it.
    fn load_text(file: &str, body: impl AsRef<[u8]>) -> std::io::Result<Dataset> {
        with_csv(file, body.as_ref(), |path| Dataset::load_csv(file, path))
    }

    #[test]
    fn load_rejects_ragged_rows() {
        let err = load_text("ragged.csv", "0,1,2\n1,2\n").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("ragged CSV line 2"), "{err}");
    }

    #[test]
    fn load_rejects_duplicate_ids() {
        let err = load_text("dup.csv", "0,1,2\n7,2,1\n7,3,0\n").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("duplicate id 7 on CSV lines 2 and 3"),
            "{err}"
        );
        // after the first non-increasing id the set check still catches
        // a repeat of an id from the ascending prefix, blank lines counted
        let err = load_text("dup-late.csv", "3,1,1\n5,2,2\n\n4,0,9\n3,9,0\n").unwrap_err();
        assert!(
            err.to_string()
                .contains("duplicate id 3 on CSV lines 1 and 5"),
            "{err}"
        );
        // unique ids in any order load as written
        let ok = load_text("shuffled.csv", "5,1,1\n3,2,2\n9,0,3\n").unwrap();
        let ids: Vec<u64> = ok.points().iter().map(Point::id).collect();
        assert_eq!(ids, vec![5, 3, 9]);
    }

    #[test]
    fn load_rejects_a_span_that_overflows_f64() {
        let err = load_text("span.csv", "0,1e308,1e308\n1,-1e308,1e308\n").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("coordinate 0 spans"), "{err}");
        // huge magnitudes whose span stays finite are fine
        let ok = load_text("wide.csv", "0,1e300,-1e300\n1,-1e300,1e300\n").unwrap();
        assert_eq!(ok.bounds().width(0), 2e300);
    }

    /// A load result as text: the error string, or every row's id and
    /// coordinates plus the bounds, in `{:?}` form (round-trip exact, and
    /// it tells `-0.0` from `0.0`).
    fn describe(loaded: &std::io::Result<Dataset>) -> String {
        match loaded {
            Err(e) => format!("err {:?}: {e}", e.kind()),
            Ok(d) => {
                let rows: Vec<String> = d
                    .points()
                    .iter()
                    .map(|p| format!("{}:{:?}", p.id(), p.coords()))
                    .collect();
                let b = d.bounds();
                let mins: Vec<f64> = (0..b.dim()).map(|i| b.min(i)).collect();
                let maxs: Vec<f64> = (0..b.dim()).map(|i| b.max(i)).collect();
                format!("ok {} min={mins:?} max={maxs:?}", rows.join(" "))
            }
        }
    }

    /// Hostile CSV inputs and the exact result the `Vec<Point>` loader
    /// (before the block-direct one) gave for each.
    const HOSTILE: &[(&str, &[u8], &str)] = &[
        (
            "crlf",
            b"0,1,2\r\n1,2,1\r\n",
            "ok 0:[1.0, 2.0] 1:[2.0, 1.0] min=[1.0, 1.0] max=[2.0, 2.0]",
        ),
        (
            "crlf-no-final-newline",
            b"0,1,2\r\n1,2,1",
            "ok 0:[1.0, 2.0] 1:[2.0, 1.0] min=[1.0, 1.0] max=[2.0, 2.0]",
        ),
        (
            "blank-lines",
            b"0,1,2\n\n   \n1,2,1\n\t\n\n",
            "ok 0:[1.0, 2.0] 1:[2.0, 1.0] min=[1.0, 1.0] max=[2.0, 2.0]",
        ),
        (
            "spaces",
            b" 0 , 1 ,\t2 \n1,  2,1  \n",
            "ok 0:[1.0, 2.0] 1:[2.0, 1.0] min=[1.0, 1.0] max=[2.0, 2.0]",
        ),
        (
            "id-only-after-row",
            b"0,1,2\n1\n",
            "err InvalidData: ragged CSV line 2: 0 coordinates where the first row has 2",
        ),
        (
            "id-only-first",
            b"1\n2\n",
            "err InvalidData: malformed CSV line 1",
        ),
        (
            "nan",
            b"0,1,2\n1,NaN,1\n",
            "err InvalidData: malformed CSV line 2",
        ),
        ("inf", b"0,inf,2\n", "err InvalidData: malformed CSV line 1"),
        (
            "neg-inf",
            b"0,1,2\n1,-inf,1\n",
            "err InvalidData: malformed CSV line 2",
        ),
        (
            "overflow-literal",
            b"0,1,2\n1,1e400,1\n",
            "err InvalidData: malformed CSV line 2",
        ),
        (
            "ragged-wide",
            b"0,1,2\n1,2,3,4\n",
            "err InvalidData: ragged CSV line 2: 3 coordinates where the first row has 2",
        ),
        (
            "ragged-narrow",
            b"0,1,2\n1,2\n",
            "err InvalidData: ragged CSV line 2: 1 coordinates where the first row has 2",
        ),
        (
            "trailing-comma",
            b"0,1,2,\n",
            "err InvalidData: malformed CSV line 1",
        ),
        (
            "empty-field",
            b"0,,2\n",
            "err InvalidData: malformed CSV line 1",
        ),
        (
            "bad-id",
            b"x,1,2\n",
            "err InvalidData: malformed CSV line 1",
        ),
        (
            "negative-id",
            b"-1,1,2\n",
            "err InvalidData: malformed CSV line 1",
        ),
        (
            "descending-then-dup",
            b"9,1,1\n7,2,2\n5,3,3\n8,4,4\n7,5,5\n",
            "err InvalidData: duplicate id 7 on CSV lines 2 and 5",
        ),
        (
            "ascending-dup",
            b"1,1,1\n2,2,2\n2,3,3\n",
            "err InvalidData: duplicate id 2 on CSV lines 2 and 3",
        ),
        ("empty", b"", "err InvalidData: CSV contains no points"),
        (
            "whitespace-only",
            b"  \n\t\n \n",
            "err InvalidData: CSV contains no points",
        ),
        (
            "neg-zero",
            b"0,-0.0,1\n1,0.0,-0.0\n2,-0,0\n",
            "ok 0:[-0.0, 1.0] 1:[0.0, -0.0] 2:[-0.0, 0.0] min=[-0.0, -0.0] max=[-0.0, 1.0]",
        ),
        (
            "single-row",
            b"42,3.5,-1e-300\n",
            "ok 42:[3.5, -1e-300] min=[3.5, -1e-300] max=[3.5, -1e-300]",
        ),
        (
            "span-overflow",
            b"0,1e308,1\n1,-1e308,2\n",
            "err InvalidData: CSV coordinate 0 spans [-1e308, 1e308], a width that overflows f64",
        ),
        (
            "hex-and-plus",
            b"0,+1.5,2E1\n1,.5,5.\n",
            "ok 0:[1.5, 20.0] 1:[0.5, 5.0] min=[0.5, 5.0] max=[1.5, 20.0]",
        ),
        (
            "invalid-utf8",
            b"0,1,2\n1,\xff,1\n",
            "err InvalidData: CSV line 2 is not valid UTF-8",
        ),
        (
            "malformed-before-invalid-utf8",
            b"0,1,2\n1,x,1\n2,\xff,1\n",
            "err InvalidData: malformed CSV line 2",
        ),
        // The rows below were recorded with the line parser alone, before
        // the number scanner took the lines of `save_csv`'s shape.
        (
            "id-19-digits",
            b"9999999999999999999,1,2\n",
            "ok 9999999999999999999:[1.0, 2.0] min=[1.0, 2.0] max=[1.0, 2.0]",
        ),
        (
            "id-u64-max",
            b"18446744073709551615,1,2\n",
            "ok 18446744073709551615:[1.0, 2.0] min=[1.0, 2.0] max=[1.0, 2.0]",
        ),
        (
            "id-u64-max-plus-one",
            b"18446744073709551616,1,2\n",
            "err InvalidData: malformed CSV line 1",
        ),
        (
            "id-leading-zeros",
            b"007,1,2\n",
            "ok 7:[1.0, 2.0] min=[1.0, 2.0] max=[1.0, 2.0]",
        ),
        (
            "mantissa-20-digits",
            b"0,12345678901234567890,1\n1,1.2345678901234567891,2\n",
            "ok 0:[1.2345678901234567e19, 1.0] 1:[1.2345678901234567, 2.0] \
             min=[1.2345678901234567, 1.0] max=[1.2345678901234567e19, 2.0]",
        ),
        (
            "space-before-comma",
            b"0,1 ,2\n",
            "ok 0:[1.0, 2.0] min=[1.0, 2.0] max=[1.0, 2.0]",
        ),
        (
            "exponent",
            b"0,1.5e3,2\n",
            "ok 0:[1500.0, 2.0] min=[1500.0, 2.0] max=[1500.0, 2.0]",
        ),
        (
            "minus-zero-field",
            b"0,-0,1\n1,1,-0\n",
            "ok 0:[-0.0, 1.0] 1:[1.0, -0.0] min=[-0.0, -0.0] max=[1.0, 1.0]",
        ),
        (
            "crlf-between-fast-lines",
            b"0,1,2\n1,2.5,1\r\n2,3,0.5\n",
            "ok 0:[1.0, 2.0] 1:[2.5, 1.0] 2:[3.0, 0.5] min=[1.0, 0.5] max=[3.0, 2.0]",
        ),
        (
            "bare-minus",
            b"0,-,1\n",
            "err InvalidData: malformed CSV line 1",
        ),
        (
            "minus-dot",
            b"0,-.5,1\n",
            "ok 0:[-0.5, 1.0] min=[-0.5, 1.0] max=[-0.5, 1.0]",
        ),
        (
            "halfway-ties-to-even",
            b"0,9007199254740993,1\n1,4503599627370497.5,2\n",
            "ok 0:[9007199254740992.0, 1.0] 1:[4503599627370498.0, 2.0] \
             min=[4503599627370498.0, 1.0] max=[9007199254740992.0, 2.0]",
        ),
        (
            "long-fraction",
            b"0,0.1234567890123456789012345678,1\n1,0.000000000000000000000000001,2\n",
            "ok 0:[0.12345678901234568, 1.0] 1:[1e-27, 2.0] \
             min=[1e-27, 1.0] max=[0.12345678901234568, 2.0]",
        ),
        (
            "leading-zero-value",
            b"0,007.50,1\n",
            "ok 0:[7.5, 1.0] min=[7.5, 1.0] max=[7.5, 1.0]",
        ),
    ];

    #[test]
    fn hostile_inputs_load_exactly_as_before() {
        for (file, body, want) in HOSTILE {
            let got = describe(&load_text(&format!("hostile-{file}.csv"), body));
            assert_eq!(&got, want, "{file}");
        }
    }

    /// The bytes every split owns, in split order.
    fn owned_bytes(path: &Path, split_bytes: u64) -> Vec<u8> {
        let len = std::fs::metadata(path).unwrap().len();
        let splits = usize::try_from(len.div_ceil(split_bytes)).unwrap();
        let mut out = Vec::new();
        for k in 0..splits {
            let (bytes, head) = read_split(path, len, split_bytes, k).unwrap();
            out.extend_from_slice(&bytes[head..]);
        }
        out
    }

    /// Asserts that `body` owns each line once and loads to the same
    /// result at every split size from 1 byte to `len + 1`, at 1, 2 and
    /// 3 threads. Returns that result.
    fn assert_split_invariant(file: &str, body: &[u8]) -> String {
        with_csv(file, body, |path| {
            let want = describe(&load_csv_split(file, path, SPLIT_BYTES, 1));
            for split_bytes in 1..=body.len() as u64 + 1 {
                assert_eq!(
                    owned_bytes(path, split_bytes),
                    body,
                    "{file} @ {split_bytes}"
                );
                for threads in 1..=3 {
                    let got = describe(&load_csv_split(file, path, split_bytes, threads));
                    assert_eq!(got, want, "{file} @ {split_bytes} bytes, {threads} threads");
                }
            }
            want
        })
    }

    #[test]
    fn hostile_inputs_load_alike_at_every_split_layout() {
        for (file, body, want) in HOSTILE {
            assert_eq!(
                &assert_split_invariant(&format!("layout-{file}.csv"), body),
                want,
                "{file}"
            );
        }
    }

    /// Signed zeros tie under `f64::min` and `f64::max`, so which one a
    /// bound holds depends on the order rows are folded in. Each split's
    /// fold, folded in file order, must give `Bounds::from_block`'s bits
    /// wherever the seams fall. In every column the first tying zero and
    /// the last differ in sign, so a fold that keeps the later one shows.
    #[test]
    fn signed_zero_bounds_fold_across_split_seams_like_from_block() {
        let body: &[u8] = b"0,0.0,-0.0,1\n1,-0.0,0.0,-0\n2,-0,0,0.0\n3,0,-0.0,2\n4,-0.0,0.0,0\n";
        with_csv("signed-zeros.csv", body, |path| {
            for split_bytes in 1..=body.len() as u64 {
                for threads in 1..=3 {
                    let loaded = load_csv_split("z", path, split_bytes, threads).unwrap();
                    let want = Bounds::from_block(loaded.block()).unwrap();
                    let got = loaded.bounds();
                    for i in 0..got.dim() {
                        let at = format!("column {i} @ {split_bytes} bytes, {threads} threads");
                        assert_eq!(got.min(i).to_bits(), want.min(i).to_bits(), "{at}");
                        assert_eq!(got.max(i).to_bits(), want.max(i).to_bits(), "{at}");
                    }
                }
            }
        });
    }

    /// Boundaries on the spots a byte-range reader gets wrong. Each case is
    /// a body, a split size that puts a boundary on the spot, and the bytes
    /// each split owns.
    #[test]
    fn split_boundaries_on_the_hard_spots() {
        type Case<'a> = (&'a str, &'a [u8], u64, &'a [&'a [u8]]);
        let cases: &[Case] = &[
            // a boundary on a line start: the split starting there owns it
            (
                "at-line-start",
                b"0,1,2\n1,2,1\n",
                6,
                &[b"0,1,2\n", b"1,2,1\n"],
            ),
            // on the `\r` of a CRLF: the split before finishes the line
            (
                "on-crlf-r",
                b"0,1,2\r\n1,2,1\r\n",
                5,
                &[b"0,1,2\r\n", b"1,2,1\r\n", b""],
            ),
            // inside an id: the split starting there skips the partial line
            (
                "inside-id",
                b"0,1,2\n123,2,1\n5,3,3\n",
                8,
                &[b"0,1,2\n123,2,1\n", b"5,3,3\n", b""],
            ),
            // on a blank line: the split starting there owns the blank line
            (
                "on-blank-line",
                b"0,1,2\n\n1,2,1\n",
                6,
                &[b"0,1,2\n", b"\n1,2,1\n", b""],
            ),
            // splits with no line start in them own nothing
            (
                "no-line-start",
                b"0,1.000000000,2\n1,2,1\n",
                4,
                &[b"0,1.000000000,2\n", b"", b"", b"", b"1,2,1\n", b""],
            ),
        ];
        for (file, body, split_bytes, owned) in cases {
            let file = format!("spot-{file}.csv");
            with_csv(&file, body, |path| {
                let len = body.len() as u64;
                let got: Vec<Vec<u8>> = (0..owned.len())
                    .map(|k| {
                        let (bytes, head) = read_split(path, len, *split_bytes, k).unwrap();
                        bytes[head..].to_vec()
                    })
                    .collect();
                assert_eq!(&got, owned, "{file}");
            });
            let loaded = assert_split_invariant(&file, body);
            assert!(loaded.starts_with("ok "), "{file}: {loaded}");
        }
        // a range that ends in `\n` reads nothing past its end
        with_csv("spot-ends-in-newline.csv", b"0,1,2\n1,2,1\n", |path| {
            let (bytes, head) = read_split(path, 12, 6, 0).unwrap();
            assert_eq!((head, bytes.len()), (0, 6));
        });
    }

    /// One random CSV line: mostly valid rows, and every kind of line the
    /// loader must skip or reject. `next` is the running ascending id.
    fn random_line(kind: u8, x: u64, next: &mut u64) -> Vec<u8> {
        *next += 1 + x % 3;
        let id = *next;
        let line = match kind {
            0 => "\n".to_string(),
            1 => " \t \n".to_string(),
            2 => format!("{id},{x}.5,-{x}e-3\r\n"),
            3 => format!("{id}\n"),
            4 => format!("{id},NaN,1\n"),
            5 => format!("{id},1,-inf\n"),
            6 => format!("{id},1,2,3\n"),
            7 => format!("{x},1,1\n"),
            8 => format!("{},{x},0\n", 100 - x),
            9 => return [format!("{id},").as_bytes(), b"\xff\xfe,1\n"].concat(),
            10 => format!("{id},\u{e9},1\n"),
            11 => format!("{id},-0.0,{x}\n"),
            _ => format!("{id},{x},{}\n", 9 - x),
        };
        line.into_bytes()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn split_layout_never_changes_the_load(
            lines in proptest::collection::vec((0u8..40, 0u64..10), 0..12),
            final_newline in 0u8..2,
        ) {
            let mut next = 0;
            let mut body: Vec<u8> = lines
                .iter()
                .flat_map(|&(kind, x)| random_line(kind, x, &mut next))
                .collect();
            if final_newline == 0 && body.last() == Some(&b'\n') {
                body.pop();
            }
            assert_split_invariant("layout-random.csv", &body);
        }
    }

    /// At the benchmark's sizes a load spans dozens of splits; it must
    /// give the generator's block back bit for bit at 1 and 2 threads.
    /// The files are the three batch workloads': QWS-like 500k×6 and
    /// 100k×10, and anti-correlated 100k×6.
    #[test]
    fn generated_files_load_bit_identically_across_many_splits() {
        use crate::{generate_qws, generate_synthetic, Distribution, QwsConfig, SyntheticConfig};
        let anti = SyntheticConfig::new(100_000, 6, Distribution::AntiCorrelated);
        let files = [
            ("qws", generate_qws(&QwsConfig::new(500_000, 6))),
            ("qws", generate_qws(&QwsConfig::new(100_000, 10))),
            ("anti", generate_synthetic(&anti)),
        ];
        for (kind, data) in files {
            let (n, d) = (data.len(), data.dim());
            let dir = std::env::temp_dir().join("qws-data-test");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("generated-{kind}-{n}-{d}.csv"));
            data.save_csv(&path).unwrap();
            assert!(std::fs::metadata(&path).unwrap().len() > 8 * SPLIT_BYTES);
            for threads in [1, 2] {
                let loaded = load_csv_split("generated", &path, SPLIT_BYTES, threads).unwrap();
                let bits = |b: &PointBlock| -> Vec<u64> {
                    b.coords().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(
                    loaded.block().ids(),
                    data.block().ids(),
                    "{n}x{d} @ {threads}"
                );
                assert_eq!(
                    bits(loaded.block()),
                    bits(data.block()),
                    "{n}x{d} @ {threads}"
                );
                for i in 0..d {
                    let (got, want) = (loaded.bounds(), data.bounds());
                    assert_eq!(got.min(i).to_bits(), want.min(i).to_bits());
                    assert_eq!(got.max(i).to_bits(), want.max(i).to_bits());
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn update_stream_is_deterministic_and_consistent() {
        let d = tiny();
        let a = update_stream(&d, 50, 0.6, 0.1, 7);
        let b = update_stream(&d, 50, 0.6, 0.1, 7);
        assert_eq!(a, b);
        // removals only target live ids; replaying must never remove twice
        let mut live: std::collections::HashSet<u64> = d.points().iter().map(Point::id).collect();
        for u in &a {
            match u {
                Update::Add(p) => {
                    assert!(live.insert(p.id()), "duplicate id {}", p.id());
                    assert!(p.coords().iter().all(|&v| v >= 0.0));
                }
                Update::Remove(id) => {
                    assert!(live.remove(id), "removing dead id {id}");
                }
            }
        }
    }

    #[test]
    fn update_stream_all_adds() {
        let d = tiny();
        let s = update_stream(&d, 20, 1.0, 0.05, 1);
        assert!(s.iter().all(|u| matches!(u, Update::Add(_))));
    }
}
