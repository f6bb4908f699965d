//! Angular partitioning — MR-Angle, the paper's contribution (Section III-C).
//!
//! Each point is first mapped to hyperspherical coordinates (Eq. 1); the
//! radial coordinate is discarded and the `(d − 1)`-dimensional **angle
//! space** `[0, π/2]^{d−1}` is grid-partitioned ("we modify the grid
//! partitioning over the n−1 subspaces defined in Eq. (1)"). A partition is
//! therefore an angular *sector* that stretches from near the origin outward.
//!
//! Why this wins (paper Sections III-C and IV): every sector touches the
//! skyline contour near the origin, so (a) local skylines are small and
//! contain mostly globally optimal points — less redundant dominance work in
//! the Reduce stage — and (b) load is balanced because each sector contains
//! both high- and low-quality points. Theorem 2 formalises the advantage via
//! dominance ability.
//!
//! ## Split strategies
//!
//! The paper's Figure 3(c) draws **equal-width** angular boundaries, which
//! is what [`AnglePartitioner::fit`] produces. Real QoS data is far from
//! angle-uniform (attributes pile up near their best values), so equal
//! widths can leave most services in one sector; the angle-partitioning
//! literature (Vlachou et al., SIGMOD'08 — the technique this paper adapts)
//! therefore splits at **quantiles** of the empirical angle distribution.
//! [`AnglePartitioner::fit_quantile`] implements that: boundaries are the
//! per-angular-dimension sample quantiles, preserving the angular geometry
//! while balancing sector populations.

use super::{
    lattice_splits, AxisProfile, BoundaryProfile, Bounds, PartitionSpace, SpacePartitioner,
};
use crate::error::SkylineError;
use crate::hypersphere::to_hyperspherical_into;
use crate::point::Point;
use std::f64::consts::FRAC_PI_2;

/// Half-width δ = 2⁻³⁰ of the band around each boundary angle inside which
/// [`AnglePartitioner::partition_of_row`] calls `atan2`.
///
/// Outside the band the lookup compares `y` with `v · tan(b ± δ)` instead,
/// and the answer is the one `atan2(y, v)` gives:
///
/// - `y` and `v` are the doubles `atan2` would get. A double above the
///   rounded product `v · t` is above the exact product too (rounding to
///   nearest cannot skip a double), and one below it is below, so the
///   product's rounding changes nothing, underflow and overflow included.
/// - `tan` of the rounded `b ± δ` is within an ulp of the exact tangent,
///   which moves the bracket's angle by ~1e-16 rad, and `atan2` is within
///   a few ulps of the exact angle. Both are far inside δ ≈ 9.3e-10, so
///   `y > v · tan(b + δ)` puts `atan2(y, v)` above `b`, and
///   `y < v · tan(b − δ)` puts it below.
///
/// A quantile boundary is a sample row's own `atan2` value, so a row
/// sitting on a boundary falls in its band and calls `atan2`. So do
/// `y = v = 0`, a `-0.0` `v` with `y = 0`, and infinite `y` and `v`.
const BRACKET_DELTA: f64 = 1.0 / (1u64 << 30) as f64;

/// The tangents `(tan(b − δ), tan(b + δ))` that bracket boundary `b`.
/// Past π/2 the tangent turns negative, so `+∞` stands in for `tan(b + δ)`
/// there: no row is above it. A negative `tan(b − δ)` (below 0 or past
/// π/2) needs no such guard, as no row is below it.
fn tangent_bracket(b: f64) -> (f64, f64) {
    let hi = if b + BRACKET_DELTA < FRAC_PI_2 {
        (b + BRACKET_DELTA).tan()
    } else {
        f64::INFINITY
    };
    ((b - BRACKET_DELTA).tan(), hi)
}

/// How many boundaries lie at or below `atan2(y, v)`, read off their
/// tangent brackets (ascending, as the boundaries are), or `None` when one
/// of them cannot tell and the row must call `atan2`.
#[inline]
fn bracket_count(brackets: &[(f64, f64)], y: f64, v: f64) -> Option<usize> {
    let mut below = 0;
    for &(lo, hi) in brackets {
        if y > v * hi {
            below += 1;
        } else if y < v * lo {
            return Some(below);
        } else {
            return None;
        }
    }
    Some(below)
}

/// Rows per batch of [`AnglePartitioner::assign_rows`]'s lane sweep: the
/// rows of a batch are swept together, one array lane each, so the
/// compiler can keep them in vector registers.
const LANES: usize = 8;

/// Angular-sector partitioner.
#[derive(Debug, Clone)]
pub struct AnglePartitioner {
    dim: usize,
    /// Translation applied before the transform so the data's minimum corner
    /// sits at the origin (Eq. 1 assumes the non-negative orthant anchored
    /// at the origin).
    origin: Vec<f64>,
    splits: Vec<usize>,
    /// Interior sector boundaries per angular dimension, ascending
    /// (`boundaries[i].len() == splits[i] - 1`). Equal-width ones lie
    /// strictly inside `(0, π/2)`; quantile ones can land on 0 or π/2.
    boundaries: Vec<Vec<f64>>,
    /// [`tangent_bracket`] of every boundary, in the same layout.
    brackets: Vec<Vec<(f64, f64)>>,
    sectors: usize,
}

impl AnglePartitioner {
    /// Fits an **equal-width** angular partitioner with at least
    /// `partitions` sectors — the paper's Figure 3(c) layout.
    ///
    /// For 1-dimensional data there is no angle space; a single sector is
    /// produced (the skyline of 1-D data is just the minimum).
    pub fn fit(bounds: &Bounds, partitions: usize) -> Result<Self, SkylineError> {
        if partitions == 0 {
            return Err(SkylineError::ZeroPartitions);
        }
        let d = bounds.dim();
        let origin: Vec<f64> = (0..d).map(|i| bounds.min(i)).collect();
        if d == 1 {
            return Ok(Self::single_sector(origin));
        }
        let splits = lattice_splits(d - 1, partitions);
        let boundaries = splits
            .iter()
            .map(|&s| {
                (1..s)
                    .map(|k| FRAC_PI_2 * k as f64 / s as f64)
                    .collect::<Vec<f64>>()
            })
            .collect::<Vec<_>>();
        Ok(Self::from_boundaries(d, origin, splits, boundaries))
    }

    /// Fits a **quantile-split** angular partitioner on `sample`: sector
    /// boundaries sit at the empirical per-angular-dimension quantiles, so
    /// sector populations are near-equal on data distributed like the
    /// sample.
    ///
    /// # Panics / Errors
    ///
    /// Errors on an empty sample or zero partitions.
    pub fn fit_quantile(sample: &[Point], partitions: usize) -> Result<Self, SkylineError> {
        if partitions == 0 {
            return Err(SkylineError::ZeroPartitions);
        }
        let bounds = Bounds::from_points(sample)?;
        let d = bounds.dim();
        let origin: Vec<f64> = (0..d).map(|i| bounds.min(i)).collect();
        if d == 1 {
            return Ok(Self::single_sector(origin));
        }
        let splits = lattice_splits(d - 1, partitions);

        // Angle matrix of the sample, one column per angular dimension.
        let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(sample.len()); d - 1];
        let mut angles = vec![0.0; d - 1];
        for p in sample {
            let shifted = shift_to_origin(p, &origin);
            to_hyperspherical_into(&shifted, &mut angles);
            for (col, &a) in columns.iter_mut().zip(angles.iter()) {
                col.push(a);
            }
        }
        let boundaries = splits
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let col = &mut columns[i];
                col.sort_by(f64::total_cmp);
                (1..s)
                    .map(|k| {
                        let idx = (k * col.len()) / s;
                        col[idx.min(col.len() - 1)]
                    })
                    .collect::<Vec<f64>>()
            })
            .collect::<Vec<_>>();
        Ok(Self::from_boundaries(d, origin, splits, boundaries))
    }

    fn single_sector(origin: Vec<f64>) -> Self {
        Self {
            dim: origin.len(),
            origin,
            splits: vec![],
            boundaries: vec![],
            brackets: vec![],
            sectors: 1,
        }
    }

    fn from_boundaries(
        dim: usize,
        origin: Vec<f64>,
        splits: Vec<usize>,
        boundaries: Vec<Vec<f64>>,
    ) -> Self {
        debug_assert_eq!(splits.len(), boundaries.len());
        for (s, b) in splits.iter().zip(&boundaries) {
            debug_assert_eq!(b.len(), s - 1);
        }
        let sectors = splits.iter().product();
        let brackets = boundaries
            .iter()
            .map(|bs| bs.iter().map(|&b| tangent_bracket(b)).collect())
            .collect();
        Self {
            dim,
            origin,
            splits,
            boundaries,
            brackets,
            sectors,
        }
    }

    /// Per-angular-dimension split counts.
    pub fn splits(&self) -> &[usize] {
        &self.splits
    }

    /// Interior sector boundaries per angular dimension, ascending.
    pub fn boundaries(&self) -> &[Vec<f64>] {
        &self.boundaries
    }

    /// The translation applied before the hyperspherical transform (the
    /// fitted data's minimum corner).
    pub fn origin(&self) -> &[f64] {
        &self.origin
    }

    /// The angular multi-index of `p` (empty for 1-D data).
    pub fn sector_index(&self, p: &Point) -> Vec<usize> {
        assert_eq!(p.dim(), self.dim, "point dimensionality mismatch");
        if self.dim == 1 {
            return vec![];
        }
        let shifted = shift_to_origin(p, &self.origin);
        let mut angles = vec![0.0; self.dim - 1];
        let _r = to_hyperspherical_into(&shifted, &mut angles);
        angles
            .iter()
            .zip(&self.boundaries)
            .map(|(&a, bs)| bs.partition_point(|&b| b <= a))
            .collect()
    }

    /// Sweeps the [`LANES`] rows of `rows` (row-major) backward like
    /// `partition_of_row`, with the same `v`, `y` and `sumsq` arithmetic
    /// in the same order, writing each row's bracket count to `out` and
    /// returning which rows some bracket could not tell.
    #[inline]
    fn sweep_lanes(&self, rows: &[f64], out: &mut [usize]) -> [bool; LANES] {
        let d = self.dim;
        let mut sumsq = [0.0f64; LANES];
        let mut index = [0usize; LANES];
        let mut ambiguous = [false; LANES];
        let mut stride = 1usize;
        for i in (0..d).rev() {
            let origin = self.origin[i];
            let v: [f64; LANES] = std::array::from_fn(|l| (rows[l * d + i] - origin).max(0.0));
            if i < d - 1 {
                let y: [f64; LANES] = std::array::from_fn(|l| sumsq[l].sqrt());
                for &(lo, hi) in &self.brackets[i] {
                    for l in 0..LANES {
                        let above = y[l] > v[l] * hi;
                        let below = y[l] < v[l] * lo;
                        index[l] += if above { stride } else { 0 };
                        ambiguous[l] |= !above & !below;
                    }
                }
                stride *= self.splits[i];
            }
            for l in 0..LANES {
                sumsq[l] += v[l] * v[l];
            }
        }
        out.copy_from_slice(&index);
        ambiguous
    }
}

fn shift_to_origin(p: &Point, origin: &[f64]) -> Point {
    Point::new(
        p.id(),
        p.coords()
            .iter()
            .zip(origin)
            .map(|(&v, &o)| (v - o).max(0.0))
            .collect::<Vec<_>>(),
    )
}

impl SpacePartitioner for AnglePartitioner {
    fn name(&self) -> &'static str {
        "angle"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn num_partitions(&self) -> usize {
        self.sectors
    }

    fn partition_of(&self, p: &Point) -> usize {
        assert_eq!(p.dim(), self.dim, "point dimensionality mismatch");
        self.partition_of_row(p.id(), p.coords())
    }

    fn partition_of_row(&self, _id: u64, coords: &[f64]) -> usize {
        assert_eq!(coords.len(), self.dim, "row dimensionality mismatch");
        if self.dim == 1 {
            return 0;
        }
        // Eq. (1) over the row translated to the fitted origin, fused with
        // the sector lookup: one backward sweep keeps the running suffix
        // sum of squares (`angles_of_row`'s arithmetic, in its order) and
        // linearises the multi-index row-major from its last axis, so no
        // shifted row, angle buffer or multi-index is allocated. Each axis
        // compares `y` with its boundaries' tangent brackets and calls
        // `atan2(y, v)` only when a bracket cannot tell (`BRACKET_DELTA`).
        let mut sumsq = 0.0f64;
        let mut out = 0usize;
        let mut stride = 1usize;
        for i in (0..self.dim).rev() {
            let v = (coords[i] - self.origin[i]).max(0.0);
            if i < self.dim - 1 {
                let y = sumsq.sqrt();
                let below = bracket_count(&self.brackets[i], y, v).unwrap_or_else(|| {
                    let a = y.atan2(v);
                    self.boundaries[i].partition_point(|&b| b <= a)
                });
                out += stride * below;
                stride *= self.splits[i];
            }
            sumsq += v * v;
        }
        out
    }

    /// `partition_of_row`'s sweep over [`LANES`] rows at a time, with no
    /// data-dependent branch: per boundary each row adds
    /// `y > v · tan(b + δ)` to its count. A row for which some bracket
    /// cannot tell (`!(y > v · hi) && !(y < v · lo)`) is ambiguous and
    /// takes `partition_of_row`, which stays the one exact definition; so
    /// do the rows after the last whole batch. On every other row the
    /// count is `bracket_count`'s: a row below bracket `j` (`y < v · lo_j`,
    /// so `v > 0`) is below every later one too, since the brackets ascend
    /// and multiplying by `v > 0` keeps their order.
    fn assign_rows(&self, ids: &[u64], coords: &[f64], out: &mut [usize]) {
        let d = self.dim;
        assert_eq!(coords.len(), ids.len() * d, "row batch shape mismatch");
        assert_eq!(out.len(), ids.len(), "output length mismatch");
        if d == 1 {
            out.fill(0);
            return;
        }
        let whole = ids.len() / LANES * LANES;
        let batches = coords[..whole * d]
            .chunks_exact(LANES * d)
            .zip(out[..whole].chunks_exact_mut(LANES))
            .zip(ids[..whole].chunks_exact(LANES));
        for ((rows, slots), batch_ids) in batches {
            let ambiguous = self.sweep_lanes(rows, slots);
            // nearly every batch is all clear; testing that first skips the
            // per-lane walk (8.2 vs 10.2 ns a row on the 500k×6 QWS block)
            if ambiguous.contains(&true) {
                for (l, _) in ambiguous.iter().enumerate().filter(|(_, &a)| a) {
                    slots[l] = self.partition_of_row(batch_ids[l], &rows[l * d..(l + 1) * d]);
                }
            }
        }
        for k in whole..ids.len() {
            out[k] = self.partition_of_row(ids[k], &coords[k * d..(k + 1) * d]);
        }
    }

    fn boundary_profile(&self) -> BoundaryProfile {
        BoundaryProfile {
            scheme: self.name(),
            space: PartitionSpace::Angular,
            axes: self
                .boundaries
                .iter()
                .enumerate()
                .map(|(i, bs)| AxisProfile {
                    coord: i,
                    domain: (0.0, FRAC_PI_2),
                    boundaries: bs.clone(),
                })
                .collect(),
            origin: Some(self.origin.clone()),
        }
    }

    /// Angular sectors are radially unbounded, and the pre-transform clamp
    /// lets raw coordinates sit below the fitted origin, so no finite
    /// per-axis envelope exists. Returning an all-unbounded envelope (rather
    /// than `None`) still unlocks witness pruning: the observed per-sector
    /// minima supply the real corner.
    fn sector_bounds(&self, partition: usize) -> Option<Vec<(f64, f64)>> {
        assert!(partition < self.sectors, "partition index out of range");
        Some(vec![(f64::NEG_INFINITY, f64::INFINITY); self.dim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_d_four_sectors_split_by_slope() {
        // 4 sectors over φ ∈ [0, π/2] → boundaries at π/8, π/4, 3π/8,
        // i.e. slopes tan(π/8)≈0.414, 1, tan(3π/8)≈2.414.
        let part = AnglePartitioner::fit(&Bounds::zero_to(10.0, 2), 4).unwrap();
        assert_eq!(part.num_partitions(), 4);
        assert_eq!(part.partition_of(&Point::new(0, vec![10.0, 1.0])), 0); // slope 0.1
        assert_eq!(part.partition_of(&Point::new(1, vec![10.0, 6.0])), 1); // slope 0.6
        assert_eq!(part.partition_of(&Point::new(2, vec![6.0, 10.0])), 2); // slope 1.67
        assert_eq!(part.partition_of(&Point::new(3, vec![1.0, 10.0])), 3); // slope 10
    }

    #[test]
    fn sector_is_radius_invariant() {
        // Scaling a point away from the origin must not change its sector —
        // the defining property of angular partitioning.
        let part = AnglePartitioner::fit(&Bounds::zero_to(100.0, 3), 8).unwrap();
        let base = Point::new(0, vec![1.0, 2.0, 0.5]);
        let sector = part.partition_of(&base);
        for scale in [2.0, 5.0, 40.0] {
            let scaled = Point::new(
                1,
                base.coords().iter().map(|v| v * scale).collect::<Vec<_>>(),
            );
            assert_eq!(part.partition_of(&scaled), sector, "scale {scale}");
        }
    }

    #[test]
    fn every_sector_reachable_2d() {
        let np = 6;
        let part = AnglePartitioner::fit(&Bounds::zero_to(1.0, 2), np).unwrap();
        let mut seen = vec![false; part.num_partitions()];
        for k in 0..=200 {
            let angle = FRAC_PI_2 * f64::from(k) / 200.0;
            let p = Point::new(k as u64, vec![angle.cos(), angle.sin()]);
            seen[part.partition_of(&p)] = true;
        }
        assert!(seen.iter().all(|&s| s), "unreached sectors: {seen:?}");
    }

    #[test]
    fn one_dimensional_data_single_sector() {
        let part = AnglePartitioner::fit(&Bounds::zero_to(5.0, 1), 8).unwrap();
        assert_eq!(part.num_partitions(), 1);
        assert_eq!(part.partition_of(&Point::new(0, vec![3.0])), 0);
    }

    #[test]
    fn origin_point_lands_in_first_sector() {
        let part = AnglePartitioner::fit(&Bounds::zero_to(1.0, 2), 4).unwrap();
        assert_eq!(part.partition_of(&Point::new(0, vec![0.0, 0.0])), 0);
    }

    #[test]
    fn nonzero_origin_is_translated() {
        // Data living in [10, 20]^2: angles must be computed relative to the
        // data's own min corner, not the global origin, otherwise every point
        // collapses into a narrow angular band around the diagonal.
        let b = Bounds::new(vec![10.0, 10.0], vec![20.0, 20.0]);
        let part = AnglePartitioner::fit(&b, 4).unwrap();
        let near_x_axis = part.partition_of(&Point::new(0, vec![19.0, 10.5]));
        let near_y_axis = part.partition_of(&Point::new(1, vec![10.5, 19.0]));
        assert_eq!(near_x_axis, 0);
        assert_eq!(near_y_axis, 3);
    }

    #[test]
    fn high_dimensional_sector_count() {
        let part = AnglePartitioner::fit(&Bounds::zero_to(1.0, 10), 16).unwrap();
        // 9 angular dims, lattice with product >= 16
        assert!(part.num_partitions() >= 16);
        assert_eq!(part.splits().len(), 9);
        // assignment total over random points
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..100 {
            let p = Point::new(
                i,
                (0..10).map(|_| rng.gen_range(0.0..1.0)).collect::<Vec<_>>(),
            );
            let s = part.partition_of(&p);
            assert!(s < part.num_partitions());
        }
    }

    #[test]
    fn row_assignment_matches_the_transform_and_lookup() {
        // `partition_of_row` fuses the shift, Eq. (1) and the lookup into
        // one sweep; `sector_index` still runs them one after another.
        // Rows include values below the origin, ±0.0 and constant columns.
        use super::super::linearize;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for d in [2usize, 3, 6, 10] {
            let b = Bounds::new(vec![0.25; d], vec![4.0; d]);
            let sample: Vec<Point> = (0..300)
                .map(|i| {
                    Point::new(
                        i,
                        (0..d).map(|_| rng.gen_range(0.0..4.0)).collect::<Vec<_>>(),
                    )
                })
                .collect();
            for part in [
                AnglePartitioner::fit(&b, 16).unwrap(),
                AnglePartitioner::fit_quantile(&sample, 16).unwrap(),
            ] {
                for i in 0..500u64 {
                    let coords: Vec<f64> = (0..d)
                        .map(|k| match (i + k as u64) % 5 {
                            0 => 0.0,
                            1 => -0.0,
                            2 => 0.25,
                            _ => rng.gen_range(-1.0..5.0),
                        })
                        .collect();
                    let p = Point::new(i, coords);
                    assert_eq!(
                        part.partition_of_row(i, p.coords()),
                        linearize(&part.sector_index(&p), part.splits()),
                        "d={d} row {:?}",
                        p.coords()
                    );
                }
            }
        }
    }

    /// Asserts that the bracketed lookup agrees with the `atan2`
    /// definition (`sector_index`, then `linearize`) on `coords`.
    fn assert_lookup_exact(part: &AnglePartitioner, coords: Vec<f64>) {
        use super::super::linearize;
        let p = Point::new(0, coords);
        assert_eq!(
            part.partition_of_row(0, p.coords()),
            linearize(&part.sector_index(&p), part.splits()),
            "boundaries {:?} row {:?}",
            part.boundaries(),
            p.coords()
        );
    }

    #[test]
    fn bracketed_lookup_matches_atan2_at_the_boundaries() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for d in [2usize, 3, 6, 10] {
            // every fit has its origin at 0, so a row's shifted
            // coordinates are its own, bit for bit
            let uniform: Vec<Point> = (0..300)
                .map(|i| {
                    let row = (0..d).map(|_| rng.gen_range(0.0..4.0)).collect::<Vec<_>>();
                    Point::new(i, row)
                })
                .chain([Point::new(300, vec![0.0; d])])
                .collect();
            // samples piled on the first axis and on the last: their
            // quantile boundaries land on 0 and on π/2
            let mut piled = |axis: usize| -> Vec<Point> {
                (0..300u64)
                    .map(|i| {
                        let mut row = vec![0.0; d];
                        if i % 5 < 3 {
                            row[axis] = rng.gen_range(0.5..4.0);
                        } else {
                            row.iter_mut().for_each(|v| *v = rng.gen_range(0.5..4.0));
                        }
                        Point::new(i, row)
                    })
                    .chain([Point::new(300, vec![0.0; d])])
                    .collect()
            };
            let (first, last) = (piled(0), piled(d - 1));
            let parts = [
                AnglePartitioner::fit(&Bounds::new(vec![0.0; d], vec![4.0; d]), 16).unwrap(),
                AnglePartitioner::fit_quantile(&uniform, 16).unwrap(),
                AnglePartitioner::fit_quantile(&first, 16).unwrap(),
                AnglePartitioner::fit_quantile(&last, 16).unwrap(),
            ];
            let lands_on = |part: &AnglePartitioner, at: f64| {
                part.boundaries().iter().flatten().any(|&b| b == at)
            };
            assert!(
                lands_on(&parts[2], 0.0),
                "d={d}: {:?}",
                parts[2].boundaries()
            );
            assert!(
                lands_on(&parts[3], FRAC_PI_2),
                "d={d}: {:?}",
                parts[3].boundaries()
            );
            for part in &parts {
                assert!(part.origin().iter().all(|&o| o == 0.0));
                // rows 1..4 ulps either side of every boundary's slope:
                // `v` on axis i, `y` on axis i + 1, zeros elsewhere
                for (i, bs) in part.boundaries().iter().enumerate() {
                    for &b in bs {
                        for v in [1e-300, 0.1, 0.75, 3.0, 1e150, rng.gen_range(0.0..4.0)] {
                            let y0 = v * b.tan();
                            if !(y0.is_finite() && y0 >= 0.0) {
                                continue;
                            }
                            let (mut up, mut down) = (y0, y0);
                            for _ in 0..4 {
                                up = up.next_up();
                                down = down.next_down().max(0.0);
                                for y in [up, down] {
                                    let mut row = vec![0.0; d];
                                    row[i] = v;
                                    row[i + 1] = y;
                                    assert_lookup_exact(part, row);
                                }
                            }
                        }
                    }
                }
                // signed zeros and the origin
                for mask in 0..1u32 << d.min(6) {
                    let row = (0..d)
                        .map(|k| if mask >> k & 1 == 1 { -0.0 } else { 0.0 })
                        .collect();
                    assert_lookup_exact(part, row);
                }
                // magnitudes where `v · v` underflows or overflows
                for scale in [1e-300, 1e300, f64::MAX] {
                    for _ in 0..50 {
                        let row = (0..d)
                            .map(|_| match rng.gen_range(0..4) {
                                0 => 0.0,
                                _ => scale * rng.gen_range(0.0..1.0),
                            })
                            .collect();
                        assert_lookup_exact(part, row);
                    }
                }
            }
        }
    }

    #[test]
    fn zero_partitions_rejected() {
        assert!(matches!(
            AnglePartitioner::fit(&Bounds::unit(2), 0),
            Err(SkylineError::ZeroPartitions)
        ));
        assert!(matches!(
            AnglePartitioner::fit_quantile(&[Point::new(0, vec![1.0, 1.0])], 0),
            Err(SkylineError::ZeroPartitions)
        ));
    }

    #[test]
    fn quantile_fit_rejects_empty_sample() {
        assert!(AnglePartitioner::fit_quantile(&[], 4).is_err());
    }

    #[test]
    fn sectors_balance_uniform_data() {
        // Smoke-check the paper's load-balancing claim: with uniform 2-D
        // data, angular sectors should all be non-empty.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<Point> = (0..2000)
            .map(|i| Point::new(i, vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]))
            .collect();
        let part = AnglePartitioner::fit(&Bounds::unit(2), 8).unwrap();
        let mut counts = vec![0usize; part.num_partitions()];
        for p in &pts {
            counts[part.partition_of(p)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "empty sector: {counts:?}");
    }

    #[test]
    fn quantile_splits_balance_skewed_data() {
        // Heavily skewed 2-D data: most points hug the x-axis. Equal-width
        // sectors pile everything into sector 0; quantile sectors balance.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let pts: Vec<Point> = (0..4000)
            .map(|i| {
                let x = rng.gen_range(0.5..1.0);
                let y = rng.gen_range(0.0..0.05);
                Point::new(i, vec![x, y])
            })
            .collect();
        let np = 4;
        let equal = AnglePartitioner::fit(&Bounds::from_points(&pts).unwrap(), np).unwrap();
        let quant = AnglePartitioner::fit_quantile(&pts, np).unwrap();
        let count = |part: &AnglePartitioner| {
            let mut c = vec![0usize; part.num_partitions()];
            for p in &pts {
                c[part.partition_of(p)] += 1;
            }
            c
        };
        let ce = count(&equal);
        let cq = count(&quant);
        let max_e = *ce.iter().max().unwrap();
        let max_q = *cq.iter().max().unwrap();
        assert!(
            max_q < max_e,
            "quantile max {max_q} should beat equal-width max {max_e} ({ce:?} vs {cq:?})"
        );
        assert!(
            max_q <= 4000 * 2 / np,
            "quantile sectors roughly balanced: {cq:?}"
        );
    }

    #[test]
    fn quantile_sector_still_radius_invariant() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        let pts: Vec<Point> = (0..500)
            .map(|i| {
                Point::new(
                    i,
                    vec![
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                    ],
                )
            })
            .collect();
        let part = AnglePartitioner::fit_quantile(&pts, 8).unwrap();
        let base = Point::new(1000, vec![0.4, 0.2, 0.6]);
        let sector = part.partition_of(&base);
        for scale in [0.5, 2.0, 10.0] {
            let scaled = Point::new(
                1001,
                base.coords().iter().map(|v| v * scale).collect::<Vec<_>>(),
            );
            assert_eq!(part.partition_of(&scaled), sector, "scale {scale}");
        }
    }

    #[test]
    fn quantile_and_equal_agree_on_uniform_angles() {
        // Points spread uniformly in angle: quantile boundaries ≈ equal ones,
        // so assignments should mostly coincide.
        let pts: Vec<Point> = (0..=400)
            .map(|k| {
                let a = FRAC_PI_2 * f64::from(k) / 400.0;
                Point::new(k as u64, vec![a.cos(), a.sin()])
            })
            .collect();
        let equal = AnglePartitioner::fit(&Bounds::from_points(&pts).unwrap(), 4).unwrap();
        let quant = AnglePartitioner::fit_quantile(&pts, 4).unwrap();
        let agree = pts
            .iter()
            .filter(|p| equal.partition_of(p) == quant.partition_of(p))
            .count();
        assert!(
            agree * 10 >= pts.len() * 9,
            "only {agree}/{} agree",
            pts.len()
        );
    }
}
