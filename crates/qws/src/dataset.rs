//! The [`Dataset`] container, CSV persistence and an update stream for the
//! incremental-maintenance experiments.

use rand::{rngs::StdRng, Rng, SeedableRng};
use skyline_algos::block::PointBlock;
use skyline_algos::partition::Bounds;
use skyline_algos::point::Point;
use skyline_algos::SkylineError;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::OnceLock;

/// A named collection of points with cached bounds.
///
/// The rows live in one columnar [`PointBlock`], the layout the pipeline
/// maps over. [`Dataset::points`] is an AoS view for API callers (oracles,
/// examples, tests), built on its first call and kept.
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
    /// # Panics
    ///
    /// Panics if `points` is empty or mixes dimensionalities.
    pub fn new(name: impl Into<String>, points: Vec<Point>) -> Self {
        let mut block =
            PointBlock::with_capacity(points.first().map_or(1, Point::dim), points.len());
        for p in &points {
            block.push_point(p);
        }
        Self::from_block(name, block)
    }

    /// Wraps a block into a dataset, computing bounds.
    ///
    /// # Panics
    ///
    /// Panics if `block` is empty.
    pub fn from_block(name: impl Into<String>, block: PointBlock) -> Self {
        let bounds = Bounds::from_block(&block).expect("dataset must be non-empty");
        Self {
            name: name.into(),
            block,
            bounds,
            points: OnceLock::new(),
        }
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
        Dataset::from_block(format!("{}|n={n}", self.name), self.block.slice(0, n))
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
    /// error, never a panic: a malformed or non-finite field, a row whose
    /// width differs from the first row's, a repeated id, an empty file, and
    /// a column whose span `max - min` overflows f64 (every partitioner
    /// scales by it).
    ///
    /// Rows are parsed straight into the dataset's block through one
    /// reused line buffer and one reused row buffer, so a row costs no
    /// allocation of its own.
    pub fn load_csv(name: impl Into<String>, path: &Path) -> std::io::Result<Self> {
        let mut reader = BufReader::new(std::fs::File::open(path)?);
        let mut line = String::new();
        let mut row: Vec<f64> = Vec::new();
        // The block is created by the first row, which fixes the width.
        let mut block: Option<PointBlock> = None;
        // Ids must be unique: the skyline validator matches rows by id, so a
        // repeated id could hide a dropped row. Ascending ids (every
        // `save_csv` file) cost one comparison per row; the first
        // non-increasing id switches to a set of every id seen.
        let mut seen: Option<HashSet<u64>> = None;
        for at in 0usize.. {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            // Every field is trimmed, so the line ending needs no stripping.
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            let id: u64 = fields
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| bad_line(at))?;
            let ids = block.as_ref().map_or(&[][..], PointBlock::ids);
            let fresh = match &mut seen {
                Some(set) => set.insert(id),
                None if ids.last().is_none_or(|&last| last < id) => true,
                None => {
                    let mut set: HashSet<u64> = ids.iter().copied().collect();
                    let fresh = set.insert(id);
                    seen = Some(set);
                    fresh
                }
            };
            if !fresh {
                return Err(duplicate_id(path, id, at));
            }
            row.clear();
            for field in fields {
                row.push(field.trim().parse::<f64>().map_err(|_| bad_line(at))?);
            }
            // An id-only first row is malformed; a later one is ragged.
            if block.is_none() && row.is_empty() {
                return Err(bad_line(at));
            }
            let b = block.get_or_insert_with(|| PointBlock::new(row.len()));
            b.push(id, &row).map_err(|e| match e {
                SkylineError::DimensionMismatch { expected, actual } => invalid_data(format!(
                    "ragged CSV line {}: {actual} coordinates where the first row has {expected}",
                    at + 1
                )),
                _ => bad_line(at),
            })?;
        }
        let Some(block) = block else {
            return Err(invalid_data("CSV contains no points".to_string()));
        };
        let dataset = Self::from_block(name, block);
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
}

fn invalid_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn bad_line(lineno: usize) -> std::io::Error {
    invalid_data(format!("malformed CSV line {}", lineno + 1))
}

/// The error for `id` repeated on 0-based line `lineno`. Only this error
/// path re-reads the file, to name the line of the id's first occurrence.
fn duplicate_id(path: &Path, id: u64, lineno: usize) -> std::io::Error {
    let first = std::fs::File::open(path).ok().and_then(|f| {
        BufReader::new(f)
            .lines()
            .map_while(Result::ok)
            .position(|l| l.split(',').next().and_then(|s| s.trim().parse().ok()) == Some(id))
    });
    invalid_data(match first {
        Some(first) => format!(
            "duplicate id {id} on CSV lines {} and {}",
            first + 1,
            lineno + 1
        ),
        None => format!("duplicate id {id} on CSV line {}", lineno + 1),
    })
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
    }

    /// Writes `body` to a temporary CSV and loads it.
    fn load_text(file: &str, body: &str) -> std::io::Result<Dataset> {
        let dir = std::env::temp_dir().join("qws-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        std::fs::write(&path, body).unwrap();
        let loaded = Dataset::load_csv(file, &path);
        std::fs::remove_file(&path).unwrap();
        loaded
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
    const HOSTILE: &[(&str, &str, &str)] = &[
        (
            "crlf",
            "0,1,2\r\n1,2,1\r\n",
            "ok 0:[1.0, 2.0] 1:[2.0, 1.0] min=[1.0, 1.0] max=[2.0, 2.0]",
        ),
        (
            "crlf-no-final-newline",
            "0,1,2\r\n1,2,1",
            "ok 0:[1.0, 2.0] 1:[2.0, 1.0] min=[1.0, 1.0] max=[2.0, 2.0]",
        ),
        (
            "blank-lines",
            "0,1,2\n\n   \n1,2,1\n\t\n\n",
            "ok 0:[1.0, 2.0] 1:[2.0, 1.0] min=[1.0, 1.0] max=[2.0, 2.0]",
        ),
        (
            "spaces",
            " 0 , 1 ,\t2 \n1,  2,1  \n",
            "ok 0:[1.0, 2.0] 1:[2.0, 1.0] min=[1.0, 1.0] max=[2.0, 2.0]",
        ),
        (
            "id-only-after-row",
            "0,1,2\n1\n",
            "err InvalidData: ragged CSV line 2: 0 coordinates where the first row has 2",
        ),
        (
            "id-only-first",
            "1\n2\n",
            "err InvalidData: malformed CSV line 1",
        ),
        (
            "nan",
            "0,1,2\n1,NaN,1\n",
            "err InvalidData: malformed CSV line 2",
        ),
        ("inf", "0,inf,2\n", "err InvalidData: malformed CSV line 1"),
        (
            "neg-inf",
            "0,1,2\n1,-inf,1\n",
            "err InvalidData: malformed CSV line 2",
        ),
        (
            "overflow-literal",
            "0,1,2\n1,1e400,1\n",
            "err InvalidData: malformed CSV line 2",
        ),
        (
            "ragged-wide",
            "0,1,2\n1,2,3,4\n",
            "err InvalidData: ragged CSV line 2: 3 coordinates where the first row has 2",
        ),
        (
            "ragged-narrow",
            "0,1,2\n1,2\n",
            "err InvalidData: ragged CSV line 2: 1 coordinates where the first row has 2",
        ),
        (
            "trailing-comma",
            "0,1,2,\n",
            "err InvalidData: malformed CSV line 1",
        ),
        (
            "empty-field",
            "0,,2\n",
            "err InvalidData: malformed CSV line 1",
        ),
        ("bad-id", "x,1,2\n", "err InvalidData: malformed CSV line 1"),
        (
            "negative-id",
            "-1,1,2\n",
            "err InvalidData: malformed CSV line 1",
        ),
        (
            "descending-then-dup",
            "9,1,1\n7,2,2\n5,3,3\n8,4,4\n7,5,5\n",
            "err InvalidData: duplicate id 7 on CSV lines 2 and 5",
        ),
        (
            "ascending-dup",
            "1,1,1\n2,2,2\n2,3,3\n",
            "err InvalidData: duplicate id 2 on CSV lines 2 and 3",
        ),
        ("empty", "", "err InvalidData: CSV contains no points"),
        (
            "whitespace-only",
            "  \n\t\n \n",
            "err InvalidData: CSV contains no points",
        ),
        (
            "neg-zero",
            "0,-0.0,1\n1,0.0,-0.0\n2,-0,0\n",
            "ok 0:[-0.0, 1.0] 1:[0.0, -0.0] 2:[-0.0, 0.0] min=[-0.0, -0.0] max=[-0.0, 1.0]",
        ),
        (
            "single-row",
            "42,3.5,-1e-300\n",
            "ok 42:[3.5, -1e-300] min=[3.5, -1e-300] max=[3.5, -1e-300]",
        ),
        (
            "span-overflow",
            "0,1e308,1\n1,-1e308,2\n",
            "err InvalidData: CSV coordinate 0 spans [-1e308, 1e308], a width that overflows f64",
        ),
        (
            "hex-and-plus",
            "0,+1.5,2E1\n1,.5,5.\n",
            "ok 0:[1.5, 20.0] 1:[0.5, 5.0] min=[0.5, 5.0] max=[1.5, 20.0]",
        ),
    ];

    #[test]
    fn hostile_inputs_load_exactly_as_before() {
        for (file, body, want) in HOSTILE {
            let got = describe(&load_text(&format!("hostile-{file}.csv"), body));
            assert_eq!(&got, want, "{file}");
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
