//! Data-space partitioners — the heart of the paper (Section III).
//!
//! The MapReduce skyline pipeline assigns each service to exactly one
//! partition in the Map stage; partitions are then processed independently.
//! The paper evaluates three schemes, all implemented here behind one trait:
//!
//! * [`DimPartitioner`] — one-dimensional range partitioning (MR-Dim),
//! * [`GridPartitioner`] — multi-dimensional grid with dominated-cell pruning
//!   (MR-Grid),
//! * [`AnglePartitioner`] — the paper's angular partitioning (MR-Angle),
//!
//! plus [`RandomPartitioner`], an ablation baseline that ignores geometry.
//!
//! A partitioner is *fit* against dataset [`Bounds`] (the paper assumes the
//! range `[0, Vmax]` per attribute) and then maps points to partition indices
//! `0 .. num_partitions()`. Points outside the fitted bounds are clamped into
//! the nearest boundary cell so that dynamically added services never fail.

mod angle;
mod dim;
mod grid;
mod random;

pub use angle::AnglePartitioner;
pub use dim::DimPartitioner;
pub use grid::GridPartitioner;
pub use random::RandomPartitioner;

use crate::block::PointBlock;
use crate::error::SkylineError;
use crate::point::Point;

/// Axis-aligned bounding box of a dataset; the domain a partitioner is fit on.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    min: Box<[f64]>,
    max: Box<[f64]>,
}

impl Bounds {
    /// Bounds with explicit per-dimension minima and maxima.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are empty, or `min > max`
    /// anywhere.
    pub fn new(min: impl Into<Box<[f64]>>, max: impl Into<Box<[f64]>>) -> Self {
        let (min, max) = (min.into(), max.into());
        assert_eq!(min.len(), max.len(), "min/max dimensionality mismatch");
        assert!(!min.is_empty(), "bounds need at least one dimension");
        for i in 0..min.len() {
            assert!(
                min[i] <= max[i] && min[i].is_finite() && max[i].is_finite(),
                "invalid bounds on dimension {i}: [{}, {}]",
                min[i],
                max[i]
            );
        }
        Self { min, max }
    }

    /// The `[0, vmax]^d` box the paper uses (`Vmax` per dimension).
    pub fn zero_to(vmax: f64, d: usize) -> Self {
        Self::new(vec![0.0; d], vec![vmax; d])
    }

    /// The unit box `[0, 1]^d`.
    pub fn unit(d: usize) -> Self {
        Self::zero_to(1.0, d)
    }

    /// Tight bounds of a point set.
    pub fn from_points(points: &[Point]) -> Result<Self, SkylineError> {
        let first = points.first().ok_or(SkylineError::EmptyDataset)?;
        let d = first.dim();
        let mut min = vec![f64::INFINITY; d];
        let mut max = vec![f64::NEG_INFINITY; d];
        for p in points {
            if p.dim() != d {
                return Err(SkylineError::DimensionMismatch {
                    expected: d,
                    actual: p.dim(),
                });
            }
            for i in 0..d {
                min[i] = min[i].min(p.coord(i));
                max[i] = max[i].max(p.coord(i));
            }
        }
        Ok(Self::new(min, max))
    }

    /// Tight bounds of a block's rows, folded in row order exactly like
    /// [`Bounds::from_points`], so both give the same bits.
    pub fn from_block(block: &PointBlock) -> Result<Self, SkylineError> {
        if block.is_empty() {
            return Err(SkylineError::EmptyDataset);
        }
        let d = block.dim();
        let mut min = vec![f64::INFINITY; d];
        let mut max = vec![f64::NEG_INFINITY; d];
        for (_, row) in block.iter() {
            for i in 0..d {
                min[i] = min[i].min(row[i]);
                max[i] = max[i].max(row[i]);
            }
        }
        Ok(Self::new(min, max))
    }

    /// Number of dimensions.
    #[inline]
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Lower bound on dimension `i`.
    #[inline]
    pub fn min(&self, i: usize) -> f64 {
        self.min[i]
    }

    /// Upper bound on dimension `i`.
    #[inline]
    pub fn max(&self, i: usize) -> f64 {
        self.max[i]
    }

    /// Width of dimension `i` (may be zero for degenerate data).
    #[inline]
    pub fn width(&self, i: usize) -> f64 {
        self.max[i] - self.min[i]
    }

    /// Restricts the bounds to the first `d` dimensions.
    pub fn project(&self, d: usize) -> Bounds {
        assert!(d >= 1 && d <= self.dim());
        Bounds::new(&self.min[..d], &self.max[..d])
    }
}

/// One partitioned axis of a fitted partitioner, exposed for static
/// analysis: the closed domain the axis covers, and the interior boundaries
/// cutting it into `boundaries.len() + 1` intervals (each interval is closed
/// on the left — a point exactly on a boundary belongs to the interval
/// *above* it, matching `partition_point(|b| b <= v)` everywhere).
#[derive(Debug, Clone, PartialEq)]
pub struct AxisProfile {
    /// Which coordinate the axis cuts: a data dimension for Cartesian
    /// profiles, an angular index (Eq. 1 ordering) for angular ones.
    pub coord: usize,
    /// Closed domain `[lo, hi]` this axis partitions. For angular axes this
    /// is `[0, π/2]`; for coordinate axes, the fitted bounds.
    pub domain: (f64, f64),
    /// Interior boundaries, expected strictly increasing and interior to
    /// the domain. `len + 1` intervals.
    pub boundaries: Vec<f64>,
}

impl AxisProfile {
    /// Number of intervals this axis is cut into.
    pub fn intervals(&self) -> usize {
        self.boundaries.len() + 1
    }
}

/// Static description of a fitted partition function, consumed by the
/// `mrsky-audit` plan validator to prove totality/disjointness and check
/// boundary sanity *before* a job runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryProfile {
    /// Scheme name, mirrors [`SpacePartitioner::name`].
    pub scheme: &'static str,
    /// Coordinate space the axes live in.
    pub space: PartitionSpace,
    /// The partitioned axes, row-major: partition id is the linearisation
    /// of the per-axis interval indices. Empty for opaque (non-geometric)
    /// schemes, where only `num_partitions` constrains the id range.
    pub axes: Vec<AxisProfile>,
    /// For angular profiles, the translation applied to data points before
    /// the hyperspherical transform (the fitted minimum corner). `None`
    /// elsewhere.
    pub origin: Option<Vec<f64>>,
}

/// Which space a [`BoundaryProfile`]'s axes cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionSpace {
    /// Axis `i` cuts data coordinate `i` (MR-Dim cuts one axis, MR-Grid a
    /// prefix of them).
    Cartesian,
    /// Axes cut the `(d−1)` hyperspherical angles of Eq. (1) (MR-Angle).
    Angular,
    /// No geometric structure (hash partitioning): every id in range is
    /// legal for any point.
    Opaque,
}

impl BoundaryProfile {
    /// Profile of a partitioner with no geometric structure.
    pub fn opaque(scheme: &'static str) -> Self {
        Self {
            scheme,
            space: PartitionSpace::Opaque,
            axes: Vec::new(),
            origin: None,
        }
    }

    /// Product of per-axis interval counts as a u128 (overflow-proof), the
    /// partition count this profile implies. `None` for opaque profiles.
    pub fn implied_partitions(&self) -> Option<u128> {
        if self.space == PartitionSpace::Opaque {
            return None;
        }
        Some(
            self.axes
                .iter()
                .map(|a| a.intervals() as u128)
                .product::<u128>(),
        )
    }
}

/// A scheme that maps every point of a `d`-dimensional space to one of
/// `num_partitions()` partitions.
///
/// Implementations must be pure functions of the point (given the fitted
/// state), so that the Map stage can assign points in parallel and so that a
/// later lookup for an incrementally added service lands in the same
/// partition.
pub trait SpacePartitioner: Send + Sync {
    /// Human-readable scheme name (`"dim"`, `"grid"`, `"angle"`, `"random"`).
    fn name(&self) -> &'static str;

    /// Dimensionality of points this partitioner accepts.
    fn dim(&self) -> usize;

    /// Total number of partitions (≥ 1).
    fn num_partitions(&self) -> usize;

    /// The partition index of `p`, in `0..num_partitions()`.
    ///
    /// # Panics
    ///
    /// May panic if `p.dim() != self.dim()`.
    fn partition_of(&self, p: &Point) -> usize;

    /// The partition index of a raw `(id, coordinate-row)` pair — the
    /// columnar hot path used when mapping [`crate::block::PointBlock`]
    /// rows, equivalent to `partition_of` on a `Point` with the same id and
    /// coordinates. The default materialises a `Point` (correct for any
    /// implementation); the built-in partitioners override it with
    /// allocation-free versions.
    ///
    /// # Panics
    ///
    /// May panic if `coords.len() != self.dim()` or a coordinate is
    /// non-finite.
    fn partition_of_row(&self, id: u64, coords: &[f64]) -> usize {
        self.partition_of(&Point::new(id, coords.to_vec()))
    }

    /// Given per-partition point counts, returns a mask of partitions whose
    /// **entire contents** are guaranteed dominated by points of other
    /// non-empty partitions and can therefore skip local-skyline computation
    /// (the MR-Grid optimisation of Section III-B). The default is "nothing
    /// prunable", which is correct for all schemes.
    fn prunable(&self, counts: &[usize]) -> Vec<bool> {
        let _ = counts;
        vec![false; self.num_partitions()]
    }

    /// Static description of the fitted partition function for plan-time
    /// analysis. The default is an opaque profile (no geometric structure),
    /// which is correct for hash-style schemes; geometric schemes override
    /// this to expose their boundary lattice.
    fn boundary_profile(&self) -> BoundaryProfile {
        BoundaryProfile::opaque(self.name())
    }

    /// Per-dimension `(lower, upper)` coordinate bounds of everything that
    /// can be assigned to `partition` — the geometric envelope of the sector,
    /// used for witness-based partition pruning. `±∞` entries are legal and
    /// mean "unbounded on that side" (e.g. edge cells absorb clamped
    /// out-of-domain points, angular sectors are radially unbounded).
    /// `None` — the default, correct for any scheme — means the envelope is
    /// unknown and the partition can never be pruned geometrically.
    fn sector_bounds(&self, partition: usize) -> Option<Vec<(f64, f64)>> {
        let _ = partition;
        None
    }
}

impl SpacePartitioner for std::sync::Arc<dyn SpacePartitioner> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn num_partitions(&self) -> usize {
        (**self).num_partitions()
    }
    fn partition_of(&self, p: &Point) -> usize {
        (**self).partition_of(p)
    }
    fn partition_of_row(&self, id: u64, coords: &[f64]) -> usize {
        (**self).partition_of_row(id, coords)
    }
    fn prunable(&self, counts: &[usize]) -> Vec<bool> {
        (**self).prunable(counts)
    }
    fn boundary_profile(&self) -> BoundaryProfile {
        (**self).boundary_profile()
    }
    fn sector_bounds(&self, partition: usize) -> Option<Vec<(f64, f64)>> {
        (**self).sector_bounds(partition)
    }
}

/// Witness-based partition pruning, sound for **any** partitioner exposing
/// [`SpacePartitioner::sector_bounds`]: partition `h` can skip its
/// local-skyline task iff some data point `w` assigned to a *different*
/// partition dominates `h`'s best reachable corner — every point of `h` is
/// then transitively dominated by `w`, which survives into `w`'s own local
/// skyline (or is itself dominated by a surviving point there).
///
/// The corner of `h` is the componentwise **max** of the sector's geometric
/// lower bounds and the observed per-partition coordinate minima
/// (`observed_min[h]`, `None` for empty partitions): observed minima tighten
/// unbounded (`−∞`) sector edges to something a witness can actually beat,
/// while the geometric bound covers points a retry might re-route into the
/// sector. Strict-somewhere dominance plus "witness lives elsewhere" makes
/// mutual pruning impossible (antisymmetry), so applying the whole mask at
/// once is sound.
///
/// `witnesses` are `(partition, coords)` pairs — in the pipeline, the
/// broadcast filter points. Returns one flag per partition; empty partitions
/// are never flagged (there is nothing to skip).
pub fn witness_prunable(
    partitioner: &dyn SpacePartitioner,
    observed_min: &[Option<Vec<f64>>],
    witnesses: &[(usize, Vec<f64>)],
) -> Vec<bool> {
    let n = partitioner.num_partitions();
    let d = partitioner.dim();
    assert_eq!(
        observed_min.len(),
        n,
        "one observed-minima row per partition"
    );
    let mut mask = vec![false; n];
    'parts: for (h, slot) in observed_min.iter().enumerate() {
        let Some(mins) = slot else { continue }; // empty partition
        let Some(sector) = partitioner.sector_bounds(h) else {
            continue;
        };
        debug_assert_eq!(sector.len(), d);
        let corner: Vec<f64> = (0..d).map(|i| sector[i].0.max(mins[i])).collect();
        for (wp, w) in witnesses {
            if *wp == h {
                continue;
            }
            // w dominates the corner: w ≤ corner everywhere, < somewhere.
            let mut any_lt = false;
            let mut all_le = true;
            for i in 0..d {
                all_le &= w[i] <= corner[i];
                any_lt |= w[i] < corner[i];
            }
            if all_le && any_lt {
                mask[h] = true;
                continue 'parts;
            }
        }
    }
    mask
}

/// Assigns every point to its partition index.
pub fn assign_all(partitioner: &dyn SpacePartitioner, points: &[Point]) -> Vec<usize> {
    points.iter().map(|p| partitioner.partition_of(p)).collect()
}

/// Splits `points` into per-partition buckets (the "Map" step in miniature,
/// used by tests and by the sequential reference pipeline).
pub fn partition_points(partitioner: &dyn SpacePartitioner, points: &[Point]) -> Vec<Vec<Point>> {
    let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); partitioner.num_partitions()];
    for p in points {
        buckets[partitioner.partition_of(p)].push(p.clone());
    }
    buckets
}

/// Computes per-dimension split counts whose product is **exactly**
/// `target`, as balanced as the integer factorisation allows, larger
/// factors first.
///
/// This is how both the grid and the angular partitioner turn a requested
/// partition count into a `d`-dimensional (or `(d−1)`-dimensional) lattice.
/// Exactness matters operationally: the partition count equals the reduce
/// task count of the partitioning job, and a lattice that rounds `2 × nodes`
/// up past the cluster's reduce slots schedules a nearly-empty extra task
/// wave, charging a full task startup for a handful of points. For the
/// paper's 2-D, 4-partition example this yields `[2, 2]`.
///
/// Balancing rule: at each step take the smallest divisor of the remaining
/// product that is at least its (remaining-dimensions)-th root. Awkward
/// factorisations degrade gracefully (`target` prime → `[target, 1, …]`).
pub(crate) fn lattice_splits(dims: usize, target: usize) -> Vec<usize> {
    assert!(dims >= 1, "lattice needs at least one dimension");
    assert!(target >= 1, "target must be at least 1");
    let mut splits = Vec::with_capacity(dims);
    let mut remaining = target;
    for k in (1..=dims).rev() {
        if k == 1 {
            splits.push(remaining);
            break;
        }
        let root = (remaining as f64).powf(1.0 / k as f64);
        let floor = root.ceil() as usize;
        let d = (floor.max(1)..=remaining)
            .find(|d| remaining.is_multiple_of(*d))
            .unwrap_or(remaining);
        splits.push(d);
        remaining /= d;
    }
    debug_assert_eq!(splits.iter().product::<usize>(), target);
    splits
}

/// Row-major linearisation of a multi-index over `splits`.
pub(crate) fn linearize(index: &[usize], splits: &[usize]) -> usize {
    debug_assert_eq!(index.len(), splits.len());
    let mut out = 0usize;
    for (i, &ix) in index.iter().enumerate() {
        debug_assert!(ix < splits[i]);
        out = out * splits[i] + ix;
    }
    out
}

/// Inverse of [`linearize`].
pub(crate) fn delinearize(mut linear: usize, splits: &[usize]) -> Vec<usize> {
    let mut out = vec![0usize; splits.len()];
    for i in (0..splits.len()).rev() {
        out[i] = linear % splits[i];
        linear /= splits[i];
    }
    debug_assert_eq!(linear, 0, "linear index out of range");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_from_points_tight() {
        let pts = vec![
            Point::new(0, vec![1.0, 5.0]),
            Point::new(1, vec![3.0, 2.0]),
            Point::new(2, vec![2.0, 9.0]),
        ];
        let b = Bounds::from_points(&pts).unwrap();
        assert_eq!((b.min(0), b.max(0)), (1.0, 3.0));
        assert_eq!((b.min(1), b.max(1)), (2.0, 9.0));
        assert_eq!(b.width(1), 7.0);
    }

    #[test]
    fn bounds_from_points_errors() {
        assert!(matches!(
            Bounds::from_points(&[]),
            Err(SkylineError::EmptyDataset)
        ));
        let pts = vec![Point::new(0, vec![1.0, 2.0]), Point::new(1, vec![1.0])];
        assert!(matches!(
            Bounds::from_points(&pts),
            Err(SkylineError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn bounds_project() {
        let b = Bounds::new(vec![0.0, 1.0, 2.0], vec![10.0, 11.0, 12.0]);
        let p = b.project(2);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.max(1), 11.0);
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn bounds_reject_inverted() {
        let _ = Bounds::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn lattice_splits_matches_paper_example() {
        assert_eq!(lattice_splits(2, 4), vec![2, 2]);
        assert_eq!(lattice_splits(1, 8), vec![8]);
        assert_eq!(lattice_splits(3, 8), vec![2, 2, 2]);
        assert_eq!(lattice_splits(3, 16), vec![4, 2, 2], "exact, not 3x3x2=18");
        assert_eq!(lattice_splits(2, 12), vec![4, 3]);
    }

    #[test]
    fn lattice_splits_product_is_exact() {
        for dims in 1..=9 {
            for target in 1..=72 {
                let s = lattice_splits(dims, target);
                assert_eq!(s.len(), dims);
                let prod: usize = s.iter().product();
                assert_eq!(prod, target, "dims={dims} target={target} splits={s:?}");
            }
        }
    }

    #[test]
    fn lattice_splits_prime_degrades_gracefully() {
        assert_eq!(lattice_splits(3, 13), vec![13, 1, 1]);
        assert_eq!(lattice_splits(2, 14), vec![7, 2]);
    }

    #[test]
    fn linearize_round_trip() {
        let splits = vec![3usize, 2, 4];
        let total: usize = splits.iter().product();
        for lin in 0..total {
            let idx = delinearize(lin, &splits);
            assert_eq!(linearize(&idx, &splits), lin);
        }
    }

    #[test]
    fn partition_of_row_agrees_with_partition_of() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let pts: Vec<Point> = (0..300)
            .map(|i| {
                Point::new(
                    i,
                    (0..3).map(|_| rng.gen_range(0.0..9.0)).collect::<Vec<_>>(),
                )
            })
            .collect();
        let bounds = Bounds::from_points(&pts).unwrap();
        let parts: Vec<Box<dyn SpacePartitioner>> = vec![
            Box::new(DimPartitioner::fit(&bounds, 6).unwrap()),
            Box::new(GridPartitioner::fit(&bounds, 8).unwrap()),
            Box::new(AnglePartitioner::fit(&bounds, 8).unwrap()),
            Box::new(AnglePartitioner::fit_quantile(&pts, 8).unwrap()),
            Box::new(RandomPartitioner::new(3, 5).unwrap()),
        ];
        for part in &parts {
            for p in &pts {
                assert_eq!(
                    part.partition_of_row(p.id(), p.coords()),
                    part.partition_of(p),
                    "scheme {} point {p:?}",
                    part.name()
                );
            }
        }
    }

    #[test]
    fn partition_of_row_default_materialises_a_point() {
        struct ByFirstCoord;
        impl SpacePartitioner for ByFirstCoord {
            fn name(&self) -> &'static str {
                "by-first"
            }
            fn dim(&self) -> usize {
                2
            }
            fn num_partitions(&self) -> usize {
                2
            }
            fn partition_of(&self, p: &Point) -> usize {
                usize::from(p.coord(0) >= 1.0)
            }
        }
        let part = ByFirstCoord;
        assert_eq!(part.partition_of_row(9, &[0.5, 3.0]), 0);
        assert_eq!(part.partition_of_row(9, &[1.5, 3.0]), 1);
    }

    #[test]
    fn sector_bounds_contain_assigned_points() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(47);
        let pts: Vec<Point> = (0..400)
            .map(|i| {
                Point::new(
                    i,
                    (0..3).map(|_| rng.gen_range(0.0..9.0)).collect::<Vec<_>>(),
                )
            })
            .collect();
        let bounds = Bounds::from_points(&pts).unwrap();
        let parts: Vec<Box<dyn SpacePartitioner>> = vec![
            Box::new(DimPartitioner::fit(&bounds, 6).unwrap()),
            Box::new(GridPartitioner::fit(&bounds, 8).unwrap()),
            Box::new(GridPartitioner::fit_on_dims(&bounds, 4, 2).unwrap()),
            Box::new(AnglePartitioner::fit(&bounds, 8).unwrap()),
        ];
        for part in &parts {
            for p in &pts {
                let h = part.partition_of(p);
                let sector = part
                    .sector_bounds(h)
                    .unwrap_or_else(|| panic!("{} exposes no envelope", part.name()));
                assert_eq!(sector.len(), part.dim());
                for (i, &(lo, hi)) in sector.iter().enumerate() {
                    assert!(
                        lo <= p.coord(i) && p.coord(i) <= hi,
                        "{}: point {p:?} escapes partition {h} on dim {i} [{lo}, {hi}]",
                        part.name()
                    );
                }
            }
        }
    }

    #[test]
    fn random_partitioner_exposes_no_envelope() {
        let part = RandomPartitioner::new(3, 5).unwrap();
        assert!(part.sector_bounds(0).is_none());
    }

    #[test]
    fn witness_prunes_dominated_grid_corner() {
        let g = GridPartitioner::fit(&Bounds::zero_to(2.0, 2), 4).unwrap();
        let bl = g.partition_of_row(0, &[0.5, 0.5]);
        let tr = g.partition_of_row(1, &[1.5, 1.5]);
        let mut observed = vec![None; g.num_partitions()];
        observed[bl] = Some(vec![0.5, 0.5]);
        observed[tr] = Some(vec![1.5, 1.5]);
        let mask = witness_prunable(&g, &observed, &[(bl, vec![0.5, 0.5])]);
        assert!(mask[tr], "top-right corner is dominated by the witness");
        assert!(!mask[bl], "the witness's own cell survives");
    }

    #[test]
    fn witness_prunes_angular_sector_via_observed_minima() {
        // The angular envelope is all-unbounded; pruning must come entirely
        // from the observed per-sector minima.
        let a = AnglePartitioner::fit(&Bounds::zero_to(10.0, 2), 4).unwrap();
        let w = vec![0.5, 0.4];
        let wp = a.partition_of_row(0, &w);
        let victim = (wp + 1) % a.num_partitions();
        let mut observed = vec![None; a.num_partitions()];
        observed[wp] = Some(w.clone());
        observed[victim] = Some(vec![5.0, 6.0]); // strictly worse everywhere
        let mask = witness_prunable(&a, &observed, &[(wp, w)]);
        assert!(mask[victim]);
        assert!(!mask[wp]);
    }

    #[test]
    fn witness_in_same_partition_prunes_nothing() {
        let a = AnglePartitioner::fit(&Bounds::zero_to(10.0, 2), 4).unwrap();
        let w = vec![0.5, 0.4];
        let wp = a.partition_of_row(0, &w);
        let mut observed = vec![None; a.num_partitions()];
        observed[wp] = Some(vec![5.0, 6.0]);
        let mask = witness_prunable(&a, &observed, &[(wp, w)]);
        assert!(!mask[wp], "a witness cannot prune its own partition");
    }

    #[test]
    fn witness_pruning_never_drops_a_skyline_point() {
        use crate::filter::select_filter_points;
        use crate::seq::naive_skyline_ids;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(53);
        for trial in 0..5 {
            let d = 2 + trial % 3;
            let pts: Vec<Point> = (0..400)
                .map(|i| {
                    Point::new(
                        i,
                        (0..d).map(|_| rng.gen_range(0.0..1.0)).collect::<Vec<_>>(),
                    )
                })
                .collect();
            let bounds = Bounds::from_points(&pts).unwrap();
            let parts: Vec<Box<dyn SpacePartitioner>> = vec![
                Box::new(DimPartitioner::fit(&bounds, 8).unwrap()),
                Box::new(GridPartitioner::fit(&bounds, 8).unwrap()),
                Box::new(AnglePartitioner::fit(&bounds, 8).unwrap()),
            ];
            let block = crate::block::PointBlock::from_points(&pts).unwrap();
            let filter = select_filter_points(&block, 8);
            for part in &parts {
                let n = part.num_partitions();
                let mut observed: Vec<Option<Vec<f64>>> = vec![None; n];
                for p in &pts {
                    let h = part.partition_of(p);
                    let mins = observed[h].get_or_insert_with(|| p.coords().to_vec());
                    for (m, &v) in mins.iter_mut().zip(p.coords()) {
                        *m = m.min(v);
                    }
                }
                let witnesses: Vec<(usize, Vec<f64>)> = filter
                    .iter()
                    .map(|(id, c)| (part.partition_of_row(id, c), c.to_vec()))
                    .collect();
                let mask = witness_prunable(part.as_ref(), &observed, &witnesses);
                let sky = naive_skyline_ids(&pts);
                for p in &pts {
                    if mask[part.partition_of(p)] {
                        assert!(
                            !sky.contains(&p.id()),
                            "{}: skyline point {} in pruned partition (trial {trial})",
                            part.name(),
                            p.id()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partition_points_covers_every_point_once() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new(i, vec![(i % 10) as f64, (i / 10) as f64]))
            .collect();
        let b = Bounds::from_points(&pts).unwrap();
        let part = GridPartitioner::fit(&b, 4).unwrap();
        let buckets = partition_points(&part, &pts);
        let total: usize = buckets.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
    }
}
