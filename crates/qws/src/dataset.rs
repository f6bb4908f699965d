//! The [`Dataset`] container, CSV persistence and an update stream for the
//! incremental-maintenance experiments.

use rand::{rngs::StdRng, Rng, SeedableRng};
use skyline_algos::partition::Bounds;
use skyline_algos::point::Point;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// A named collection of points with cached bounds.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable provenance, e.g. `"qws(n=100000,d=10,seed=42)"`.
    pub name: String,
    points: Vec<Point>,
    bounds: Bounds,
}

impl Dataset {
    /// Wraps points into a dataset, computing bounds.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or mixes dimensionalities.
    pub fn new(name: impl Into<String>, points: Vec<Point>) -> Self {
        let bounds = Bounds::from_points(&points).expect("dataset must be non-empty and uniform");
        Self {
            name: name.into(),
            points,
            bounds,
        }
    }

    /// The points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the dataset holds no points (unreachable by construction,
    /// present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.points[0].dim()
    }

    /// Cached bounding box.
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// Projects every point onto its first `d` dimensions — the paper's
    /// dimensionality sweeps evaluate the *same* services at d ∈ {2,…,10}.
    pub fn project(&self, d: usize) -> Dataset {
        let points: Vec<Point> = self.points.iter().map(|p| p.project(d)).collect();
        Dataset {
            name: format!("{}|d={d}", self.name),
            bounds: self.bounds.project(d),
            points,
        }
    }

    /// Takes the first `n` services (datasets are generated in random order,
    /// so a prefix is an unbiased subsample).
    pub fn take(&self, n: usize) -> Dataset {
        assert!(n >= 1 && n <= self.len(), "invalid subsample size {n}");
        Dataset::new(format!("{}|n={n}", self.name), self.points[..n].to_vec())
    }

    /// Writes `id,coord0,coord1,…` rows.
    pub fn save_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for p in &self.points {
            write!(w, "{}", p.id())?;
            for i in 0..p.dim() {
                write!(w, ",{}", p.coord(i))?;
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
    pub fn load_csv(name: impl Into<String>, path: &Path) -> std::io::Result<Self> {
        let f = std::fs::File::open(path)?;
        let mut points: Vec<Point> = Vec::new();
        // Ids must be unique: the skyline validator matches rows by id, so a
        // repeated id could hide a dropped row. Ascending ids (every
        // `save_csv` file) cost one comparison per row; the first
        // non-increasing id switches to a set of every id seen.
        let mut seen: Option<HashSet<u64>> = None;
        for (lineno, line) in BufReader::new(f).lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            let id: u64 = fields
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| bad_line(lineno))?;
            let fresh = match &mut seen {
                Some(ids) => ids.insert(id),
                None if points.last().is_none_or(|p| p.id() < id) => true,
                None => {
                    let mut ids: HashSet<u64> = points.iter().map(Point::id).collect();
                    let fresh = ids.insert(id);
                    seen = Some(ids);
                    fresh
                }
            };
            if !fresh {
                return Err(duplicate_id(path, id, lineno));
            }
            let coords: Result<Vec<f64>, _> = fields.map(|s| s.trim().parse::<f64>()).collect();
            let coords = coords.map_err(|_| bad_line(lineno))?;
            if let Some(first) = points.first() {
                if coords.len() != first.dim() {
                    return Err(invalid_data(format!(
                        "ragged CSV line {}: {} coordinates where the first row has {}",
                        lineno + 1,
                        coords.len(),
                        first.dim()
                    )));
                }
            }
            points.push(Point::try_new(id, coords).map_err(|_| bad_line(lineno))?);
        }
        if points.is_empty() {
            return Err(invalid_data("CSV contains no points".to_string()));
        }
        // The bounds `Dataset::new` computes, built once here so the span
        // check costs no second pass over the rows.
        let bounds = Bounds::from_points(&points).map_err(|e| invalid_data(e.to_string()))?;
        if let Some(i) = (0..bounds.dim()).find(|&i| !bounds.width(i).is_finite()) {
            return Err(invalid_data(format!(
                "CSV coordinate {i} spans [{:e}, {:e}], a width that overflows f64",
                bounds.min(i),
                bounds.max(i)
            )));
        }
        Ok(Self {
            name: name.into(),
            points,
            bounds,
        })
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
