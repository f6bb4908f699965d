//! Cartesian → hyperspherical transform — the paper's Eq. (1) and Eq. (2).
//!
//! A service `s = (v₁, …, vₙ)` with non-negative QoS coordinates maps to a
//! radial coordinate and `n − 1` angular coordinates:
//!
//! ```text
//! r        = sqrt(v₁² + … + vₙ²)
//! tan(φ₁)  = sqrt(v₂² + … + vₙ²) / v₁
//! …
//! tan(φᵢ)  = sqrt(vᵢ₊₁² + … + vₙ²) / vᵢ
//! …
//! tan(φₙ₋₁)= vₙ / vₙ₋₁
//! ```
//!
//! For points in the non-negative orthant every angle lies in `[0, π/2]`.
//! The angles alone determine which angular sector a point belongs to — the
//! radial coordinate deliberately plays no role in partitioning, which is
//! exactly why each sector spans from near the origin outward and contains
//! both high- and low-quality points (the load-balance argument of
//! Section III-C).
//!
//! Implementation notes: the nested square roots are computed with a single
//! backward sweep of suffix sums of squares, so the transform is `O(d)` per
//! point with no allocation when using [`to_hyperspherical_into`]. `atan2` is
//! used instead of `atan(·/·)` so that `vᵢ = 0` is handled without division
//! by zero (`atan2(x, 0) = π/2` for `x > 0`, and `atan2(0, 0) = 0` — the
//! conventional angle for the all-zero suffix).

use crate::point::Point;

/// A point expressed in hyperspherical coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperPoint {
    /// Identifier carried over from the Cartesian [`Point`].
    pub id: u64,
    /// Radial coordinate `r ≥ 0`.
    pub r: f64,
    /// The `n − 1` angular coordinates, each in `[0, π/2]` for points in the
    /// non-negative orthant. Empty for 1-dimensional points.
    pub angles: Box<[f64]>,
}

/// Transforms `p` into hyperspherical coordinates per Eq. (1).
///
/// Coordinates are clamped at zero first: QoS data in this suite is
/// normalised to the non-negative orthant, and tiny negative values from
/// floating-point noise must not flip an angle out of `[0, π/2]`.
///
/// # Examples
///
/// ```
/// use skyline_algos::hypersphere::to_hyperspherical;
/// use skyline_algos::point::Point;
///
/// let h = to_hyperspherical(&Point::new(0, vec![1.0, 1.0]));
/// assert!((h.r - 2.0_f64.sqrt()).abs() < 1e-12);
/// assert!((h.angles[0] - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
/// ```
pub fn to_hyperspherical(p: &Point) -> HyperPoint {
    let mut angles = vec![0.0; p.dim().saturating_sub(1)];
    let r = to_hyperspherical_into(p, &mut angles);
    HyperPoint {
        id: p.id(),
        r,
        angles: angles.into(),
    }
}

/// Allocation-free variant: writes the `d − 1` angles into `angles` and
/// returns the radial coordinate.
///
/// # Panics
///
/// Panics if `angles.len() != p.dim() - 1`.
pub fn to_hyperspherical_into(p: &Point, angles: &mut [f64]) -> f64 {
    angles_of_row(p.coords(), angles)
}

/// Row-slice variant of [`to_hyperspherical_into`] for columnar batches
/// ([`crate::block::PointBlock`] rows): writes the `d − 1` angles into
/// `angles` and returns the radial coordinate, with no `Point` needed.
///
/// # Panics
///
/// Panics if `angles.len() != c.len() - 1`.
pub fn angles_of_row(c: &[f64], angles: &mut [f64]) -> f64 {
    let d = c.len();
    assert_eq!(
        angles.len(),
        d - 1,
        "angle buffer must have d-1 = {} slots",
        d - 1
    );
    // suffix[i] = sqrt(c[i]^2 + ... + c[d-1]^2), computed backwards.
    // We only need it incrementally, so keep the running sum of squares.
    let mut sumsq = 0.0f64;
    // Walk backwards; angle i (0-based) = atan2(sqrt(sum_{j>i} c_j^2), c_i).
    for i in (0..d).rev() {
        let v = c[i].max(0.0);
        if i < d - 1 {
            angles[i] = sumsq.sqrt().atan2(v);
        }
        sumsq += v * v;
    }
    sumsq.sqrt()
}

/// Inverse transform: reconstructs Cartesian coordinates from `(r, angles)`.
///
/// `v₁ = r·cos φ₁`, `v₂ = r·sin φ₁·cos φ₂`, …, `vₙ = r·sin φ₁ ⋯ sin φₙ₋₁`.
/// Exposed mainly for tests (round-trip property) and documentation, since
/// Algorithm 1 only ever uses the forward direction.
pub fn to_cartesian(h: &HyperPoint) -> Point {
    let d = h.angles.len() + 1;
    let mut coords = vec![0.0; d];
    let mut sin_prod = h.r;
    for (c, angle) in coords.iter_mut().zip(h.angles.iter()) {
        *c = sin_prod * angle.cos();
        sin_prod *= angle.sin();
    }
    coords[d - 1] = sin_prod;
    // floating-point cleanup: the forward transform clamps at 0
    for v in coords.iter_mut() {
        if *v < 0.0 && *v > -1e-12 {
            *v = 0.0;
        }
    }
    Point::new(h.id, coords)
}

/// The inclusive range every angle falls into for non-negative data.
pub const ANGLE_RANGE: (f64, f64) = (0.0, std::f64::consts::FRAC_PI_2);

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    #[test]
    fn two_d_matches_eq2() {
        // Eq. (2): r = sqrt(x² + y²), tan φ = y/x.
        let p = Point::new(0, vec![1.0, 1.0]);
        let h = to_hyperspherical(&p);
        assert!((h.r - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(h.angles.len(), 1);
        assert!((h.angles[0] - FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn axis_points_hit_angle_extremes() {
        let on_x = to_hyperspherical(&Point::new(0, vec![3.0, 0.0]));
        assert!((on_x.angles[0] - 0.0).abs() < 1e-12, "y=0 → φ=0");
        let on_y = to_hyperspherical(&Point::new(1, vec![0.0, 3.0]));
        assert!((on_y.angles[0] - FRAC_PI_2).abs() < 1e-12, "x=0 → φ=π/2");
    }

    #[test]
    fn origin_maps_to_zero_angles() {
        let h = to_hyperspherical(&Point::new(0, vec![0.0, 0.0, 0.0]));
        assert_eq!(h.r, 0.0);
        assert!(h.angles.iter().all(|&a| a == 0.0));
    }

    #[test]
    fn one_dimensional_point_has_no_angles() {
        let h = to_hyperspherical(&Point::new(0, vec![5.0]));
        assert!((h.r - 5.0).abs() < 1e-12);
        assert!(h.angles.is_empty());
    }

    #[test]
    fn angles_stay_in_first_orthant_range() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let d = rng.gen_range(2..12);
            let p = Point::new(
                0,
                (0..d)
                    .map(|_| rng.gen_range(0.0..100.0))
                    .collect::<Vec<_>>(),
            );
            let h = to_hyperspherical(&p);
            for &a in h.angles.iter() {
                assert!(
                    (0.0..=FRAC_PI_2 + 1e-12).contains(&a),
                    "angle {a} out of range"
                );
            }
        }
    }

    #[test]
    fn last_angle_matches_eq1_final_row() {
        // tan(φ_{n-1}) = v_n / v_{n-1}
        let p = Point::new(0, vec![5.0, 2.0, 2.0]);
        let h = to_hyperspherical(&p);
        let expected = (2.0f64 / 2.0).atan();
        assert!((h.angles[1] - expected).abs() < 1e-12);
    }

    #[test]
    fn first_angle_matches_eq1_first_row() {
        let p = Point::new(0, vec![3.0, 4.0, 0.0]);
        let h = to_hyperspherical(&p);
        let expected = ((4.0f64 * 4.0 + 0.0).sqrt() / 3.0).atan();
        assert!((h.angles[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn round_trip_reconstructs_coordinates() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..100 {
            let d = rng.gen_range(2..10);
            let p = Point::new(
                42,
                (0..d).map(|_| rng.gen_range(0.0..50.0)).collect::<Vec<_>>(),
            );
            let back = to_cartesian(&to_hyperspherical(&p));
            assert_eq!(back.id(), 42);
            for i in 0..d {
                assert!(
                    (back.coord(i) - p.coord(i)).abs() < 1e-9 * (1.0 + p.coord(i)),
                    "dim {i}: {} vs {}",
                    back.coord(i),
                    p.coord(i)
                );
            }
        }
    }

    #[test]
    fn into_variant_requires_correct_buffer() {
        let p = Point::new(0, vec![1.0, 2.0, 3.0]);
        let mut buf = vec![0.0; 2];
        let r = to_hyperspherical_into(&p, &mut buf);
        let h = to_hyperspherical(&p);
        assert_eq!(r, h.r);
        assert_eq!(&buf[..], &h.angles[..]);
    }

    #[test]
    #[should_panic(expected = "d-1")]
    fn into_variant_panics_on_wrong_buffer() {
        let p = Point::new(0, vec![1.0, 2.0, 3.0]);
        let mut buf = vec![0.0; 3];
        let _ = to_hyperspherical_into(&p, &mut buf);
    }

    #[test]
    fn negative_noise_is_clamped() {
        let p = Point::new(0, vec![-1e-15, 1.0]);
        let h = to_hyperspherical(&p);
        assert!((h.angles[0] - FRAC_PI_2).abs() < 1e-9);
    }
}
