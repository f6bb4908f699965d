//! Columnar (structure-of-arrays) point batches.
//!
//! The AoS [`Point`] type pays a pointer chase per dominance test: each
//! point's coordinates live in their own heap allocation, so a BNL window
//! scan hops around the heap. [`PointBlock`] stores a batch of points as one
//! flat `Vec<f64>` with stride `d` plus a parallel `Vec<u64>` of ids — zero
//! per-point allocations, rows contiguous in memory, and dominance kernels
//! (see [`crate::kernel`]) become tight loops over adjacent cache lines that
//! the compiler can auto-vectorize.
//!
//! `Point` remains the public API type; a block is the *transport and
//! compute* representation. The bridges [`PointBlock::from_points`] /
//! [`PointBlock::to_points`] are lossless (ids and coordinates are copied
//! verbatim, order preserved), so any algorithm that still wants `&[Point]`
//! can convert at the boundary.

use crate::error::SkylineError;
use crate::point::Point;

/// A batch of `d`-dimensional points in columnar (SoA) layout.
///
/// Invariants maintained by construction:
/// * `dim >= 1`,
/// * `coords.len() == ids.len() * dim`,
/// * every coordinate is finite (checked on every ingest path, same as
///   [`Point`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PointBlock {
    dim: usize,
    ids: Vec<u64>,
    coords: Vec<f64>,
}

impl PointBlock {
    /// Creates an empty block for `dim`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` — a zero-dimensional point space has no
    /// dominance relation.
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(dim, 0)
    }

    /// Creates an empty block with room for `rows` points.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        assert!(dim >= 1, "PointBlock needs at least one dimension");
        Self {
            dim,
            ids: Vec::with_capacity(rows),
            coords: Vec::with_capacity(rows * dim),
        }
    }

    /// Builds a block from a slice of points (lossless: ids and coordinate
    /// order are preserved).
    ///
    /// Errors on an empty slice (the block's dimensionality would be
    /// undefined) and on ragged dimensionality.
    pub fn from_points(points: &[Point]) -> Result<Self, SkylineError> {
        let first = points.first().ok_or(SkylineError::EmptyDataset)?;
        let mut block = Self::with_capacity(first.dim(), points.len());
        for p in points {
            if p.dim() != block.dim {
                return Err(SkylineError::DimensionMismatch {
                    expected: block.dim,
                    actual: p.dim(),
                });
            }
            block.ids.push(p.id());
            block.coords.extend_from_slice(p.coords());
        }
        Ok(block)
    }

    /// Converts the block back to owned points, preserving order and ids.
    pub fn to_points(&self) -> Vec<Point> {
        (0..self.len()).map(|i| self.point(i)).collect()
    }

    /// Number of points in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality `d` of every row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Appends a point given as a raw row, validating dimensionality and
    /// finiteness (the ingest path for untrusted data).
    pub fn push(&mut self, id: u64, row: &[f64]) -> Result<(), SkylineError> {
        if row.len() != self.dim {
            return Err(SkylineError::DimensionMismatch {
                expected: self.dim,
                actual: row.len(),
            });
        }
        if let Some(i) = row.iter().position(|v| !v.is_finite()) {
            return Err(SkylineError::NonFiniteCoordinate { id, dim: i });
        }
        self.ids.push(id);
        self.coords.extend_from_slice(row);
        Ok(())
    }

    /// Appends an already-validated [`Point`].
    ///
    /// # Panics
    ///
    /// Panics if the point's dimensionality differs from the block's.
    #[inline]
    pub fn push_point(&mut self, p: &Point) {
        assert_eq!(p.dim(), self.dim, "point dimensionality mismatch");
        self.ids.push(p.id());
        self.coords.extend_from_slice(p.coords());
    }

    /// Appends a row that is already known to be valid (right width, finite)
    /// because it came out of another block or a validated point — the
    /// kernels' emission fast path.
    #[inline]
    pub(crate) fn push_trusted(&mut self, id: u64, row: &[f64]) {
        debug_assert_eq!(row.len(), self.dim, "trusted row has wrong width");
        self.ids.push(id);
        self.coords.extend_from_slice(row);
    }

    /// Appends a row copied from another block (same-representation fast
    /// path; no re-validation needed because blocks only hold finite rows).
    ///
    /// # Panics
    ///
    /// Panics if the blocks disagree on dimensionality or `i` is out of
    /// range.
    #[inline]
    pub fn push_row_from(&mut self, other: &PointBlock, i: usize) {
        assert_eq!(other.dim, self.dim, "block dimensionality mismatch");
        self.ids.push(other.ids[i]);
        self.coords.extend_from_slice(other.row(i));
    }

    /// Appends every row of `other` — the infallible sibling of
    /// [`PointBlock::append`] for call sites that already know both blocks
    /// share a dimensionality (e.g. shuffle values of one reduce key).
    ///
    /// # Panics
    ///
    /// Panics if the blocks disagree on dimensionality.
    #[inline]
    pub fn extend_from_block(&mut self, other: &PointBlock) {
        assert_eq!(other.dim, self.dim, "block dimensionality mismatch");
        self.ids.extend_from_slice(&other.ids);
        self.coords.extend_from_slice(&other.coords);
    }

    /// Appends every row of `other`, validating dimensionality once.
    pub fn append(&mut self, other: &PointBlock) -> Result<(), SkylineError> {
        if other.dim != self.dim {
            return Err(SkylineError::DimensionMismatch {
                expected: self.dim,
                actual: other.dim,
            });
        }
        self.ids.extend_from_slice(&other.ids);
        self.coords.extend_from_slice(&other.coords);
        Ok(())
    }

    /// Appends every row of `other`, consuming it. When `self` is empty
    /// this is a pure buffer handoff — `other`'s flat vectors are taken
    /// wholesale with no copy — which is what the zero-copy shuffle path
    /// relies on when a key routes to a single block. Otherwise the flat
    /// vectors are drained into `self` and `other`'s allocations dropped.
    pub fn append_owned(&mut self, mut other: PointBlock) -> Result<(), SkylineError> {
        if other.dim != self.dim {
            return Err(SkylineError::DimensionMismatch {
                expected: self.dim,
                actual: other.dim,
            });
        }
        if self.ids.is_empty() {
            self.ids = std::mem::take(&mut other.ids);
            self.coords = std::mem::take(&mut other.coords);
        } else {
            self.ids.append(&mut other.ids);
            self.coords.append(&mut other.coords);
        }
        Ok(())
    }

    /// The coordinate row of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// The id of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// All ids, in row order.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The flat coordinate buffer (`len * dim` values, stride `dim`).
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Materialises point `i` as an owned [`Point`].
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.ids[i], self.row(i).to_vec())
    }

    /// Iterates over `(id, row)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[f64])> + '_ {
        self.ids
            .iter()
            .zip(self.coords.chunks_exact(self.dim))
            .map(|(&id, row)| (id, row))
    }

    /// Copies the row range `[start, end)` into a new block.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> PointBlock {
        assert!(start <= end && end <= self.len(), "row range out of bounds");
        PointBlock {
            dim: self.dim,
            ids: self.ids[start..end].to_vec(),
            coords: self.coords[start * self.dim..end * self.dim].to_vec(),
        }
    }

    /// Keeps the first `d` coordinates of every row, like
    /// [`Point::project`] does for one point.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= d <= self.dim()`.
    pub fn project(&self, d: usize) -> PointBlock {
        assert!(d >= 1 && d <= self.dim, "invalid projection dimension {d}");
        let mut coords = Vec::with_capacity(self.len() * d);
        for row in self.coords.chunks_exact(self.dim) {
            coords.extend_from_slice(&row[..d]);
        }
        PointBlock {
            dim: d,
            ids: self.ids.clone(),
            coords,
        }
    }

    /// Splits the block into chunks of at most `rows` points each (the last
    /// chunk may be shorter). `rows == 0` yields a single chunk.
    pub fn chunks(&self, rows: usize) -> Vec<PointBlock> {
        if self.is_empty() {
            return Vec::new();
        }
        let rows = if rows == 0 { self.len() } else { rows };
        (0..self.len())
            .step_by(rows)
            .map(|lo| self.slice(lo, (lo + rows).min(self.len())))
            .collect()
    }

    /// L1 norm (coordinate sum) of row `i` — the presort score of the
    /// merge kernel. Monotone under dominance, but only weakly: if `p`
    /// dominates `q` then `l1(p) <= l1(q)`, and f64 rounding can make the
    /// two equal (see [`crate::kernel::presort_merge`]).
    #[inline]
    pub fn l1_norm(&self, i: usize) -> f64 {
        self.row(i).iter().sum()
    }

    /// Entropy score `Σ ln(1 + v_k)` of row `i` (Chomicki et al.), the SFS
    /// presort key. Matches [`Point::entropy_score`] bit-for-bit (negative
    /// coordinates clamp to zero), so the AoS bridge sorts identically.
    /// Weakly monotone under dominance: rounding and the clamp make ties
    /// between a dominator and its victim possible.
    #[inline]
    pub fn entropy_score(&self, i: usize) -> f64 {
        self.row(i).iter().map(|v| (1.0 + v.max(0.0)).ln()).sum()
    }

    /// Smallest coordinate of row `i` — the SaLSa sort key.
    #[inline]
    pub fn min_coord(&self, i: usize) -> f64 {
        self.row(i).iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest coordinate of row `i` — the SaLSa stop-watermark statistic.
    #[inline]
    pub fn max_coord(&self, i: usize) -> f64 {
        self.row(i)
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Approximate serialized size in bytes, mirroring
    /// [`Point::wire_size`]: 8 bytes of id plus 8 per coordinate, per row.
    #[inline]
    pub fn wire_size(&self) -> usize {
        self.len() * (8 + 8 * self.dim)
    }

    /// Reorders rows in place so ids ascend (stable tie-break is moot: the
    /// permutation is a sort by id). Used at report boundaries where
    /// deterministic output order matters.
    pub fn sort_by_id(&mut self) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| self.ids[i]);
        let mut ids = Vec::with_capacity(self.len());
        let mut coords = Vec::with_capacity(self.coords.len());
        for &i in &order {
            ids.push(self.ids[i]);
            coords.extend_from_slice(self.row(i));
        }
        self.ids = ids;
        self.coords = coords;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(rows: &[&[f64]]) -> Vec<Point> {
        rows.iter()
            .enumerate()
            .map(|(i, r)| Point::new(i as u64, r.to_vec()))
            .collect()
    }

    #[test]
    fn round_trip_preserves_ids_and_coords() {
        let points = pts(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let block = PointBlock::from_points(&points).unwrap();
        assert_eq!(block.len(), 3);
        assert_eq!(block.dim(), 2);
        assert_eq!(block.row(1), &[3.0, 4.0]);
        assert_eq!(block.id(2), 2);
        assert_eq!(block.to_points(), points);
    }

    #[test]
    fn append_owned_hands_off_or_concatenates() {
        let a = PointBlock::from_points(&pts(&[&[1.0, 2.0], &[3.0, 4.0]])).unwrap();
        let b = PointBlock::from_points(&pts(&[&[5.0, 6.0]])).unwrap();
        // empty receiver: pure buffer handoff
        let mut acc = PointBlock::new(2);
        acc.append_owned(a.clone()).unwrap();
        assert_eq!(acc.to_points(), a.to_points());
        // non-empty receiver: drained concat, same result as append()
        let mut by_ref = a.clone();
        by_ref.append(&b).unwrap();
        acc.append_owned(b).unwrap();
        assert_eq!(acc.to_points(), by_ref.to_points());
        // dimension mismatch still rejected
        let bad = PointBlock::from_points(&pts(&[&[1.0]])).unwrap();
        assert!(matches!(
            acc.append_owned(bad),
            Err(SkylineError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn from_points_rejects_empty_and_ragged() {
        assert!(matches!(
            PointBlock::from_points(&[]),
            Err(SkylineError::EmptyDataset)
        ));
        let ragged = vec![Point::new(0, vec![1.0, 2.0]), Point::new(1, vec![1.0])];
        assert!(matches!(
            PointBlock::from_points(&ragged),
            Err(SkylineError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn push_validates_rows() {
        let mut b = PointBlock::new(2);
        b.push(7, &[1.0, 2.0]).unwrap();
        assert_eq!(b.len(), 1);
        assert!(matches!(
            b.push(8, &[1.0]),
            Err(SkylineError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            b.push(9, &[1.0, f64::NAN]),
            Err(SkylineError::NonFiniteCoordinate { id: 9, dim: 1 })
        ));
        // failed pushes must not corrupt the block
        assert_eq!(b.len(), 1);
        assert_eq!(b.coords().len(), 2);
    }

    #[test]
    fn append_and_push_row_from() {
        let a = PointBlock::from_points(&pts(&[&[1.0], &[2.0]])).unwrap();
        let mut b = PointBlock::new(1);
        b.append(&a).unwrap();
        b.push_row_from(&a, 0);
        assert_eq!(b.ids(), &[0, 1, 0]);
        assert_eq!(b.coords(), &[1.0, 2.0, 1.0]);
        b.extend_from_block(&a);
        assert_eq!(b.ids(), &[0, 1, 0, 0, 1]);
        let wrong_dim = PointBlock::new(3);
        assert!(b.append(&wrong_dim).is_err());
    }

    #[test]
    fn slice_and_chunks_cover_all_rows() {
        let points = pts(&[&[0.0], &[1.0], &[2.0], &[3.0], &[4.0]]);
        let block = PointBlock::from_points(&points).unwrap();
        let s = block.slice(1, 4);
        assert_eq!(s.ids(), &[1, 2, 3]);
        let chunks = block.chunks(2);
        assert_eq!(chunks.len(), 3);
        assert_eq!(
            chunks.iter().map(PointBlock::len).sum::<usize>(),
            block.len()
        );
        assert_eq!(chunks[2].ids(), &[4]);
        // rows == 0 means one chunk
        assert_eq!(block.chunks(0).len(), 1);
        assert!(PointBlock::new(2).chunks(4).is_empty());
    }

    #[test]
    fn l1_norm_and_wire_size() {
        let block = PointBlock::from_points(&pts(&[&[1.0, 2.0, 3.0]])).unwrap();
        assert!((block.l1_norm(0) - 6.0).abs() < 1e-12);
        assert_eq!(block.wire_size(), 8 + 24);
    }

    #[test]
    fn sort_by_id_reorders_rows_together() {
        let mut b = PointBlock::new(2);
        b.push(5, &[5.0, 50.0]).unwrap();
        b.push(1, &[1.0, 10.0]).unwrap();
        b.push(3, &[3.0, 30.0]).unwrap();
        b.sort_by_id();
        assert_eq!(b.ids(), &[1, 3, 5]);
        assert_eq!(b.row(0), &[1.0, 10.0]);
        assert_eq!(b.row(2), &[5.0, 50.0]);
    }

    #[test]
    fn iter_yields_id_row_pairs() {
        let b = PointBlock::from_points(&pts(&[&[1.0, 2.0], &[3.0, 4.0]])).unwrap();
        let got: Vec<(u64, Vec<f64>)> = b.iter().map(|(id, r)| (id, r.to_vec())).collect();
        assert_eq!(got, vec![(0, vec![1.0, 2.0]), (1, vec![3.0, 4.0])]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dim_rejected() {
        let _ = PointBlock::new(0);
    }
}
