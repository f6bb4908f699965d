//! The dominance relation (paper Section II).
//!
//! With lower-is-better semantics, point `p` **dominates** `q` iff `p` is
//! less than or equal to `q` on every dimension and strictly less on at least
//! one. Dominance is a strict partial order: irreflexive, asymmetric, and
//! transitive. The skyline of a set is exactly its set of non-dominated
//! points (the minimal elements of the order).
//!
//! These are the early-exit one-pair forms over [`Point`]. The kernels in
//! [`crate::kernel`] use the branchless row forms over a
//! [`PointBlock`](crate::block::PointBlock) and count their own comparisons
//! into [`KernelStats`](crate::kernel::KernelStats), which the cluster cost
//! model converts into simulated CPU time.

use crate::point::Point;

/// Result of comparing two points under the dominance order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomRelation {
    /// The left point dominates the right one.
    LeftDominates,
    /// The right point dominates the left one.
    RightDominates,
    /// The points are equal on every dimension.
    Equal,
    /// Neither point dominates the other (and they are not equal).
    Incomparable,
}

/// Returns `true` iff `p` dominates `q`: `p ≤ q` on all dimensions and
/// `p < q` on at least one.
///
/// # Panics
///
/// Panics in debug builds if the points have different dimensionality.
#[inline]
pub fn dominates(p: &Point, q: &Point) -> bool {
    debug_assert_eq!(p.dim(), q.dim(), "dominance requires equal dimensionality");
    dominates_coords(p.coords(), q.coords())
}

/// [`dominates`] over two coordinate rows of equal length.
#[inline]
pub fn dominates_coords(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "dominance requires equal dimensionality");
    let mut strictly_less = false;
    for i in 0..a.len() {
        if a[i] > b[i] {
            return false;
        }
        if a[i] < b[i] {
            strictly_less = true;
        }
    }
    strictly_less
}

/// Returns `true` iff `p` is strictly smaller than `q` on **every** dimension.
///
/// Strict dominance is what grid-cell pruning needs: if cell A's worst corner
/// strictly dominates cell B's best corner, every point of A dominates every
/// point of B.
#[inline]
pub fn strictly_dominates(p: &Point, q: &Point) -> bool {
    debug_assert_eq!(p.dim(), q.dim(), "dominance requires equal dimensionality");
    p.coords().iter().zip(q.coords()).all(|(a, b)| a < b)
}

/// Classifies the pair `(p, q)` in a single pass over the coordinates.
#[inline]
pub fn compare(p: &Point, q: &Point) -> DomRelation {
    debug_assert_eq!(p.dim(), q.dim(), "dominance requires equal dimensionality");
    let (a, b) = (p.coords(), q.coords());
    let mut p_better = false;
    let mut q_better = false;
    for i in 0..a.len() {
        if a[i] < b[i] {
            p_better = true;
        } else if a[i] > b[i] {
            q_better = true;
        }
        if p_better && q_better {
            return DomRelation::Incomparable;
        }
    }
    match (p_better, q_better) {
        (true, false) => DomRelation::LeftDominates,
        (false, true) => DomRelation::RightDominates,
        (false, false) => DomRelation::Equal,
        (true, true) => unreachable!("early return above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(id: u64, c: &[f64]) -> Point {
        Point::new(id, c.to_vec())
    }

    #[test]
    fn dominates_requires_strict_improvement_somewhere() {
        let a = p(0, &[1.0, 2.0]);
        let b = p(1, &[1.0, 2.0]);
        assert!(!dominates(&a, &b), "equal points do not dominate");
        let c = p(2, &[1.0, 1.5]);
        assert!(dominates(&c, &a));
        assert!(!dominates(&a, &c));
    }

    #[test]
    fn dominates_fails_on_any_worse_dimension() {
        let a = p(0, &[1.0, 3.0]);
        let b = p(1, &[2.0, 2.0]);
        assert!(!dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }

    #[test]
    fn dominance_is_irreflexive() {
        let a = p(0, &[0.3, 0.7, 0.1]);
        assert!(!dominates(&a, &a));
    }

    #[test]
    fn dominance_is_transitive_spot_check() {
        let a = p(0, &[1.0, 1.0]);
        let b = p(1, &[2.0, 2.0]);
        let c = p(2, &[3.0, 2.0]);
        assert!(dominates(&a, &b) && dominates(&b, &c) && dominates(&a, &c));
    }

    #[test]
    fn strict_dominance_needs_all_dims() {
        let a = p(0, &[1.0, 2.0]);
        let b = p(1, &[2.0, 2.5]);
        assert!(strictly_dominates(&a, &b));
        let c = p(2, &[1.0, 2.5]); // ties on dim 0
        assert!(dominates(&a, &c));
        assert!(!strictly_dominates(&a, &c));
    }

    #[test]
    fn compare_classifies_all_four_cases() {
        let a = p(0, &[1.0, 1.0]);
        let b = p(1, &[2.0, 2.0]);
        let c = p(2, &[0.0, 3.0]);
        let a2 = p(3, &[1.0, 1.0]);
        assert_eq!(compare(&a, &b), DomRelation::LeftDominates);
        assert_eq!(compare(&b, &a), DomRelation::RightDominates);
        assert_eq!(compare(&a, &a2), DomRelation::Equal);
        assert_eq!(compare(&a, &c), DomRelation::Incomparable);
    }

    #[test]
    fn compare_agrees_with_dominates() {
        // Exhaustive over a small 2-D integer grid.
        let vals = [0.0, 1.0, 2.0];
        let mut id = 0;
        let mut pts = Vec::new();
        for &x in &vals {
            for &y in &vals {
                pts.push(p(id, &[x, y]));
                id += 1;
            }
        }
        for a in &pts {
            for b in &pts {
                let rel = compare(a, b);
                assert_eq!(rel == DomRelation::LeftDominates, dominates(a, b));
                assert_eq!(rel == DomRelation::RightDominates, dominates(b, a));
            }
        }
    }
}
