//! Naive O(n²) reference skyline, the reference tests compare kernels
//! against.
//!
//! Deliberately the most literal transcription of the definition in the
//! paper's Section II: a point is in the skyline iff no other point dominates
//! it. Kept separate from the production kernels so that a bug in BNL/SFS
//! cannot hide behind a shared helper. It computes a skyline; checking a
//! claimed one is [`crate::verify`]'s job.

use crate::dominance::dominates;
use crate::point::Point;

/// Returns the skyline of `points` by checking every point against every
/// other point. Quadratic; only for tests, tiny inputs, and cross-checks.
pub fn naive_skyline(points: &[Point]) -> Vec<Point> {
    points
        .iter()
        .filter(|p| !points.iter().any(|q| dominates(q, p)))
        .cloned()
        .collect()
}

/// Returns the ids of the skyline points, sorted — the canonical comparison
/// form used throughout the test suite.
pub fn naive_skyline_ids(points: &[Point]) -> Vec<u64> {
    let mut ids: Vec<u64> = naive_skyline(points).iter().map(Point::id).collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        assert!(naive_skyline(&[]).is_empty());
        let p = vec![Point::new(0, vec![1.0])];
        assert_eq!(naive_skyline(&p).len(), 1);
    }

    #[test]
    fn totally_ordered_chain_keeps_minimum() {
        let p: Vec<Point> = (0..10)
            .map(|i| Point::new(i, vec![i as f64, i as f64]))
            .collect();
        assert_eq!(naive_skyline_ids(&p), vec![0]);
    }

    #[test]
    fn antichain_keeps_everything() {
        let p: Vec<Point> = (0..10)
            .map(|i| Point::new(i, vec![i as f64, 9.0 - i as f64]))
            .collect();
        assert_eq!(naive_skyline_ids(&p), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn skyline_points_are_not_dominated_and_others_are() {
        let p: Vec<Point> = vec![
            Point::new(0, vec![2.0, 2.0]),
            Point::new(1, vec![1.0, 3.0]),
            Point::new(2, vec![3.0, 3.0]),
            Point::new(3, vec![2.5, 1.0]),
        ];
        let sky = naive_skyline(&p);
        let sky_ids = naive_skyline_ids(&p);
        assert_eq!(sky_ids, vec![0, 1, 3]);
        // completeness: every excluded point dominated by some skyline point
        for q in &p {
            if !sky_ids.contains(&q.id()) {
                assert!(sky.iter().any(|s| crate::dominance::dominates(s, q)));
            }
        }
    }
}
