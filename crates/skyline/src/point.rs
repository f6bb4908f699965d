//! The `d`-dimensional data point type shared by every algorithm in the suite.
//!
//! Following the paper's QoS convention (Section II), **lower values are
//! better on every dimension**: attribute values are normalised so that the
//! skyline is the contour towards the origin. A [`Point`] carries a stable
//! `u64` identifier so that skylines computed by different algorithms (and on
//! different partitions of the same dataset) can be compared set-wise.

use std::fmt;

/// A point in a `d`-dimensional QoS data space.
///
/// Coordinates are stored as a boxed slice: two words on the stack instead of
/// a `Vec`'s three, which matters because skyline windows copy points around.
///
/// Invariants enforced by construction:
/// * at least one dimension,
/// * every coordinate is finite (NaN/±∞ would break the dominance relation's
///   partial-order axioms).
#[derive(Clone, PartialEq)]
pub struct Point {
    id: u64,
    coords: Box<[f64]>,
}

impl Point {
    /// Creates a point with identifier `id` and the given coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty or contains a non-finite value.
    pub fn new(id: u64, coords: impl Into<Box<[f64]>>) -> Self {
        let coords = coords.into();
        assert!(!coords.is_empty(), "Point must have at least one dimension");
        assert!(
            coords.iter().all(|v| v.is_finite()),
            "Point coordinates must be finite (id={id})"
        );
        Self { id, coords }
    }

    /// Fallible constructor used when ingesting untrusted data.
    pub fn try_new(id: u64, coords: impl Into<Box<[f64]>>) -> Result<Self, crate::SkylineError> {
        let coords = coords.into();
        if coords.is_empty() {
            return Err(crate::SkylineError::EmptyPoint { id });
        }
        if let Some(i) = coords.iter().position(|v| !v.is_finite()) {
            return Err(crate::SkylineError::NonFiniteCoordinate { id, dim: i });
        }
        Ok(Self { id, coords })
    }

    /// The stable identifier of this point (e.g. a web-service id).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of dimensions `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The coordinate on dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn coord(&self, i: usize) -> f64 {
        self.coords[i]
    }

    /// All coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Euclidean distance from the origin (the radial coordinate `r` of the
    /// paper's Eq. (1)).
    pub fn radius(&self) -> f64 {
        self.coords.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Sum of coordinates — a cheap monotone scoring function: if
    /// `p.l1_norm() < q.l1_norm()` then `q` cannot dominate `p`. Used by the
    /// SFS presort.
    pub fn l1_norm(&self) -> f64 {
        self.coords.iter().sum()
    }

    /// The entropy score `Σ ln(1 + v_i)` of Chomicki et al., also monotone
    /// with respect to dominance for non-negative coordinates.
    pub fn entropy_score(&self) -> f64 {
        self.coords.iter().map(|v| (1.0 + v.max(0.0)).ln()).sum()
    }

    /// Projects the point onto the first `d` dimensions, keeping the id.
    ///
    /// Used by the dimensionality sweeps of Figures 5 and 7, where the same
    /// dataset is evaluated at d ∈ {2, 4, 6, 8, 10}.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `d > self.dim()`.
    pub fn project(&self, d: usize) -> Point {
        assert!(
            d >= 1 && d <= self.dim(),
            "invalid projection dimension {d}"
        );
        Point {
            id: self.id,
            coords: self.coords[..d].into(),
        }
    }

    /// Approximate serialized size in bytes, used by the shuffle-volume
    /// accounting of the MapReduce cost model (8 bytes per coordinate plus
    /// the 8-byte id).
    #[inline]
    pub fn wire_size(&self) -> usize {
        8 + 8 * self.dim()
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}{:?}", self.id, &self.coords[..])
    }
}

/// Builds points from rows of coordinates, assigning sequential ids.
///
/// Convenience for tests and examples:
///
/// ```
/// use skyline_algos::point::points_from_rows;
/// let pts = points_from_rows(&[vec![1.0, 2.0], vec![3.0, 0.5]]);
/// assert_eq!(pts[1].id(), 1);
/// ```
pub fn points_from_rows(rows: &[Vec<f64>]) -> Vec<Point> {
    rows.iter()
        .enumerate()
        .map(|(i, r)| Point::new(i as u64, r.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_stores_id_and_coords() {
        let p = Point::new(7, vec![1.0, 2.0, 3.0]);
        assert_eq!(p.id(), 7);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coord(1), 2.0);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn new_rejects_empty() {
        let _ = Point::new(0, vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn new_rejects_nan() {
        let _ = Point::new(0, vec![1.0, f64::NAN]);
    }

    #[test]
    fn try_new_reports_bad_dimension() {
        let err = Point::try_new(3, vec![1.0, f64::INFINITY]).unwrap_err();
        match err {
            crate::SkylineError::NonFiniteCoordinate { id, dim } => {
                assert_eq!((id, dim), (3, 1));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(matches!(
            Point::try_new(9, Vec::<f64>::new()).unwrap_err(),
            crate::SkylineError::EmptyPoint { id: 9 }
        ));
    }

    #[test]
    fn radius_matches_euclidean_norm() {
        let p = Point::new(0, vec![3.0, 4.0]);
        assert!((p.radius() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn l1_and_entropy_scores() {
        let p = Point::new(0, vec![1.0, 2.0]);
        assert!((p.l1_norm() - 3.0).abs() < 1e-12);
        let expected = (2.0f64).ln() + (3.0f64).ln();
        assert!((p.entropy_score() - expected).abs() < 1e-12);
    }

    #[test]
    fn project_keeps_prefix_and_id() {
        let p = Point::new(5, vec![1.0, 2.0, 3.0, 4.0]);
        let q = p.project(2);
        assert_eq!(q.id(), 5);
        assert_eq!(q.coords(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn project_rejects_zero() {
        let p = Point::new(0, vec![1.0]);
        let _ = p.project(0);
    }

    #[test]
    fn wire_size_counts_id_plus_coords() {
        let p = Point::new(0, vec![0.0; 10]);
        assert_eq!(p.wire_size(), 88);
    }

    #[test]
    fn points_from_rows_assigns_sequential_ids() {
        let pts = points_from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        assert_eq!(pts.iter().map(Point::id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
