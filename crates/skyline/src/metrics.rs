//! Quality metrics: local skyline optimality (paper Eq. 5), dominance
//! ability (Section IV, Theorems 1–2), and load-balance statistics.

use crate::dominance::dominates;
use crate::partition::SpacePartitioner;
use crate::point::Point;
use std::collections::HashSet;

/// Local skyline optimality — paper Eq. (5):
///
/// ```text
/// LSO = (1/N) Σ_i |sky_i ∩ sky_global| / |sky_i|
/// ```
///
/// the mean, over partitions, of the fraction of each partition's local
/// skyline that is also globally optimal. Higher is better: it measures how
/// little redundant work the Reduce (merge) stage must undo, and — the
/// paper's QoS argument — how likely a locally selected service is to be a
/// globally optimal choice.
///
/// Partitions with an empty local skyline (i.e. empty partitions) are skipped
/// in the average, matching the paper's "average value of each partition"
/// reading; a ratio for an empty set is undefined.
pub fn local_skyline_optimality(local_skylines: &[Vec<Point>], global_skyline: &[Point]) -> f64 {
    let global_ids: HashSet<u64> = global_skyline.iter().map(Point::id).collect();
    let mut sum = 0.0;
    let mut parts = 0usize;
    for local in local_skylines {
        if local.is_empty() {
            continue;
        }
        let hits = local
            .iter()
            .filter(|p| global_ids.contains(&p.id()))
            .count();
        sum += hits as f64 / local.len() as f64;
        parts += 1;
    }
    if parts == 0 {
        0.0
    } else {
        sum / parts as f64
    }
}

/// Exact dominance ability of a skyline point `s = (x, y)` under **angular**
/// partitioning — paper Theorem 1.
///
/// Setting: a square data space of side `2L` divided into 4 partitions, with
/// `s` in the sector adjacent to the x-axis (so `y ≤ x/2` within that
/// sector, tan(π/8)-style simplification the paper makes: the sector below
/// the `y = x/2` line). The dominance region of `s` inside its own partition
/// has area `L² − x²/4 − (2L − x)·y`, hence:
///
/// ```text
/// D_angle = (L² − x²/4 − (2L−x)·y) / L²
/// ```
pub fn dominance_ability_angle(x: f64, y: f64, l: f64) -> f64 {
    assert!(l > 0.0, "half-side L must be positive");
    (l * l - x * x / 4.0 - (2.0 * l - x) * y) / (l * l)
}

/// Exact dominance ability of `s = (x, y)` under **grid** partitioning in the
/// same setting (used inside the proof of Theorem 2):
///
/// ```text
/// D_grid = (L − x)(L − y) / L²
/// ```
pub fn dominance_ability_grid(x: f64, y: f64, l: f64) -> f64 {
    assert!(l > 0.0, "half-side L must be positive");
    (l - x) * (l - y) / (l * l)
}

/// Theorem 2's lower bound on the advantage of angular over grid
/// partitioning:
///
/// ```text
/// ΔD = D_angle − D_grid ≥ x/(2L²) · (L − x/2)
/// ```
///
/// valid for points with `y ≤ x/2` (the paper's sector condition).
pub fn dominance_gap_lower_bound(x: f64, l: f64) -> f64 {
    assert!(l > 0.0, "half-side L must be positive");
    x / (2.0 * l * l) * (l - x / 2.0)
}

/// Empirical dominance ability of `s` within its own partition, estimated by
/// Monte-Carlo over `samples` uniform points of the `bounds_side`-sided
/// square anchored at the origin: the fraction of same-partition samples that
/// `s` dominates (the paper's `D = Num_s / Num_all` definition, restricted to
/// the partition, matching its `Area_s / Area_all` continuous version).
///
/// Works for any dimensionality and any partitioner, so it is the tool that
/// lets the Fig. 4 bench verify the closed-form 2-D theorems *and* probe the
/// high-dimensional case the paper only asserts.
pub fn empirical_dominance_ability<R: rand::Rng>(
    s: &Point,
    partitioner: &dyn SpacePartitioner,
    bounds_side: f64,
    samples: usize,
    rng: &mut R,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let d = s.dim();
    let own = partitioner.partition_of(s);
    let mut in_partition = 0usize;
    let mut dominated = 0usize;
    let mut coords = vec![0.0; d];
    for i in 0..samples {
        for c in coords.iter_mut() {
            *c = rng.gen_range(0.0..bounds_side);
        }
        let q = Point::new(i as u64, coords.clone());
        if partitioner.partition_of(&q) == own {
            in_partition += 1;
            if dominates(s, &q) {
                dominated += 1;
            }
        }
    }
    if in_partition == 0 {
        0.0
    } else {
        dominated as f64 / in_partition as f64
    }
}

/// Load-balance statistics over per-partition point counts.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalance {
    /// Mean points per partition.
    pub mean: f64,
    /// Population standard deviation of the counts.
    pub std_dev: f64,
    /// Coefficient of variation `std_dev / mean` (0 = perfectly balanced).
    pub cv: f64,
    /// Largest partition.
    pub max: usize,
    /// Smallest partition.
    pub min: usize,
    /// Number of empty partitions.
    pub empty: usize,
}

/// Computes [`LoadBalance`] from partition sizes.
///
/// # Panics
///
/// Panics if `counts` is empty.
pub fn load_balance(counts: &[usize]) -> LoadBalance {
    assert!(
        !counts.is_empty(),
        "load balance needs at least one partition"
    );
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<usize>() as f64 / n;
    let var = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    let std_dev = var.sqrt();
    LoadBalance {
        mean,
        std_dev,
        cv: if mean > 0.0 { std_dev / mean } else { 0.0 },
        max: counts.iter().max().copied().unwrap_or(0),
        min: counts.iter().min().copied().unwrap_or(0),
        empty: counts.iter().filter(|&&c| c == 0).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{AnglePartitioner, Bounds, GridPartitioner};

    fn p(id: u64, c: &[f64]) -> Point {
        Point::new(id, c.to_vec())
    }

    #[test]
    fn optimality_all_global() {
        let global = vec![p(0, &[1.0]), p(1, &[1.0])];
        let locals = vec![vec![p(0, &[1.0])], vec![p(1, &[1.0])]];
        assert_eq!(local_skyline_optimality(&locals, &global), 1.0);
    }

    #[test]
    fn optimality_none_global() {
        let global = vec![p(9, &[0.0])];
        let locals = vec![vec![p(0, &[1.0])], vec![p(1, &[2.0])]];
        assert_eq!(local_skyline_optimality(&locals, &global), 0.0);
    }

    #[test]
    fn optimality_mixed_partitions() {
        let global = vec![p(0, &[1.0]), p(2, &[1.0])];
        // partition A: 1 of 2 global; partition B: 1 of 1 global → mean 0.75
        let locals = vec![vec![p(0, &[1.0]), p(1, &[1.0])], vec![p(2, &[1.0])]];
        assert!((local_skyline_optimality(&locals, &global) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn optimality_skips_empty_partitions() {
        let global = vec![p(0, &[1.0])];
        let locals = vec![vec![p(0, &[1.0])], vec![]];
        assert_eq!(local_skyline_optimality(&locals, &global), 1.0);
        assert_eq!(local_skyline_optimality(&[], &global), 0.0);
    }

    #[test]
    fn theorem1_formula_at_origin() {
        // s at the origin dominates its entire partition: D = 1.
        assert!((dominance_ability_angle(0.0, 0.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn theorem2_gap_nonnegative_in_sector() {
        // For any (x, y) with 0 ≤ y ≤ x/2 ≤ L, ΔD ≥ bound ≥ 0.
        let l = 1.0;
        for xi in 0..=20 {
            let x = 2.0 * l * f64::from(xi) / 20.0; // x ∈ [0, 2L]
            if x > 2.0 * l {
                continue;
            }
            for yi in 0..=10 {
                let y = (x / 2.0) * f64::from(yi) / 10.0;
                let gap = dominance_ability_angle(x, y, l) - dominance_ability_grid(x, y, l);
                let bound = dominance_gap_lower_bound(x, l);
                assert!(
                    gap >= bound - 1e-9,
                    "x={x} y={y}: gap {gap} < bound {bound}"
                );
                assert!(bound >= -1e-12);
            }
        }
    }

    #[test]
    fn theorem2_algebra_identity() {
        // ΔD = (−x²/4 − yL + xL)/L² exactly, per the proof's middle line.
        let (x, y, l) = (0.6, 0.2, 1.3);
        let gap = dominance_ability_angle(x, y, l) - dominance_ability_grid(x, y, l);
        let direct = (-x * x / 4.0 - y * l + x * l) / (l * l);
        assert!((gap - direct).abs() < 1e-12);
    }

    #[test]
    fn empirical_matches_theorem1_2d() {
        use rand::{rngs::StdRng, SeedableRng};
        let l = 1.0;
        let side = 2.0 * l;
        // Point in the sector adjacent to the x-axis with y ≤ x/2·tan-ish
        // condition; pick (0.8, 0.15) which lies in the lowest of 4 sectors
        // (slope 0.1875 < tan(π/8) ≈ 0.414).
        let s = p(u64::MAX, &[0.8, 0.15]);
        let part = AnglePartitioner::fit(&Bounds::zero_to(side, 2), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let est = empirical_dominance_ability(&s, &part, side, 200_000, &mut rng);
        // Theorem 1's formula describes a 4-sector partition bounded by the
        // line y = x/2 rather than the equal-angle π/8 line, so allow a few
        // percent of modelling slack on top of Monte-Carlo noise.
        let exact = dominance_ability_angle(0.8, 0.15, l);
        assert!(
            (est - exact).abs() < 0.08,
            "Monte-Carlo {est} vs Theorem 1 {exact}"
        );
    }

    #[test]
    fn empirical_matches_grid_formula_2d() {
        use rand::{rngs::StdRng, SeedableRng};
        let l = 1.0;
        let side = 2.0 * l;
        let s = p(u64::MAX, &[0.8, 0.15]); // bottom-left cell of the 2×2 grid
        let part = GridPartitioner::fit(&Bounds::zero_to(side, 2), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let est = empirical_dominance_ability(&s, &part, side, 200_000, &mut rng);
        let exact = dominance_ability_grid(0.8, 0.15, l);
        assert!(
            (est - exact).abs() < 0.02,
            "Monte-Carlo {est} vs formula {exact}"
        );
    }

    #[test]
    fn load_balance_statistics() {
        let lb = load_balance(&[10, 10, 10, 10]);
        assert_eq!(lb.cv, 0.0);
        assert_eq!(lb.empty, 0);
        let lb = load_balance(&[0, 20]);
        assert_eq!(lb.mean, 10.0);
        assert_eq!(lb.max, 20);
        assert_eq!(lb.min, 0);
        assert_eq!(lb.empty, 1);
        assert!((lb.cv - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn load_balance_rejects_empty() {
        let _ = load_balance(&[]);
    }
}
