//! Incremental skyline maintenance under dynamic service churn.
//!
//! Section II of the paper motivates the partitioned design with dynamism:
//! *"Given a new service which is added into UDDI, traditional approach has
//! to compute the global skyline again. With the MapReduce approach, the new
//! service is first mapped into a group and added into the local skyline
//! computation"* — i.e. an insert touches one partition's local skyline plus
//! the (small) global merge, never the full dataset.
//!
//! [`IncrementalSkyline`] maintains exactly that state: each partition's
//! live rows and local skyline as [`PointBlock`]s, the global skyline, and
//! one id → (partition, row) index. It is the one live-skyline engine: the
//! core crate's registry and every tenant of the serving layer run on it.
//!
//! - An insert meets only its partition's local skyline and the global
//!   skyline.
//! - Deleting a dominated point costs an index lookup and an `O(d)` row
//!   move. Deleting a local-skyline member recomputes that partition with
//!   [`presort_merge_stats`] and re-merges the local skylines.
//! - Re-inserting a live id is a no-op, deleting a dead id changes nothing,
//!   and a point of the wrong dimensionality is a typed
//!   [`SkylineError::DimensionMismatch`].
//! - The global skyline and [`IncrementalSkyline::live_points`] come back
//!   sorted by id.
//!
//! Dominance comparisons are counted so examples and benches can show the
//! savings over recomputation from scratch.

use crate::block::PointBlock;
use crate::dominance::DomRelation;
use crate::error::SkylineError;
use crate::kernel::{compare_rows, presort_merge_stats};
use crate::partition::SpacePartitioner;
use crate::point::Point;
use std::collections::HashMap;

/// What [`IncrementalSkyline::remove`] did with a live point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Removal {
    /// The point was in its partition's local skyline, so the partition
    /// was recomputed and the local skylines re-merged.
    pub repaired: bool,
    /// Ids the removal promoted into the global skyline, ascending.
    pub promoted: Vec<u64>,
}

/// A dynamically maintained, partitioned skyline.
pub struct IncrementalSkyline<P: SpacePartitioner> {
    partitioner: P,
    /// Live rows of each partition (the "UDDI registry" contents).
    rows: Vec<PointBlock>,
    /// Local skyline of each partition.
    local: Vec<PointBlock>,
    /// Global skyline (skyline of the union of local skylines), by id.
    global: Vec<Point>,
    /// Where each live id sits: (partition, row).
    at: HashMap<u64, (usize, usize)>,
    comparisons: u64,
}

impl<P: SpacePartitioner> IncrementalSkyline<P> {
    /// Creates an empty maintained skyline over `partitioner`'s space.
    ///
    /// # Panics
    ///
    /// Panics if the partitioner's dimensionality is 0.
    pub fn new(partitioner: P) -> Self {
        let empty = PointBlock::new(partitioner.dim());
        let n = partitioner.num_partitions();
        Self {
            partitioner,
            rows: vec![empty.clone(); n],
            local: vec![empty; n],
            global: Vec::new(),
            at: HashMap::new(),
            comparisons: 0,
        }
    }

    /// Bulk-loads `points`: each partition's local skyline is computed
    /// once, then merged. A repeated id keeps its first point.
    ///
    /// # Errors
    ///
    /// [`SkylineError::DimensionMismatch`] when a point's dimensionality
    /// differs from the partitioner's.
    pub fn from_points(partitioner: P, points: &[Point]) -> Result<Self, SkylineError> {
        let mut s = Self::new(partitioner);
        for p in points {
            s.check_dim(p)?;
            if !s.at.contains_key(&p.id()) {
                s.push_row(p);
            }
        }
        for part in 0..s.rows.len() {
            s.recompute(part);
        }
        s.merge();
        Ok(s)
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// `true` if no points are live.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// The current global skyline, sorted by id.
    pub fn global_skyline(&self) -> &[Point] {
        &self.global
    }

    /// Every live point, sorted by id: the state a checkpoint keeps, since
    /// [`IncrementalSkyline::from_points`] rebuilds the rest from it.
    pub fn live_points(&self) -> Vec<Point> {
        let mut out: Vec<Point> = self.rows.iter().flat_map(PointBlock::to_points).collect();
        out.sort_unstable_by_key(Point::id);
        out
    }

    /// Total dominance comparisons spent on maintenance so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Inserts a service. Returns `Ok(true)` iff the global skyline
    /// changed, and `Ok(false)` for a dominated point or a live id (the
    /// re-insert is ignored).
    ///
    /// Cost: `O(|local skyline| + |global skyline|)` comparisons — the
    /// paper's "we only need to compare the new service with the services in
    /// a subdivided group".
    ///
    /// # Errors
    ///
    /// [`SkylineError::DimensionMismatch`] when `p`'s dimensionality
    /// differs from the partitioner's.
    pub fn insert(&mut self, p: Point) -> Result<bool, SkylineError> {
        self.check_dim(&p)?;
        if self.at.contains_key(&p.id()) {
            return Ok(false);
        }
        let part = self.push_row(&p);

        // p only needs to meet the current local skyline members
        // (transitivity covers dominated non-members).
        let local = &mut self.local[part];
        let mut i = 0;
        while i < local.len() {
            self.comparisons += 1;
            match compare_rows(local.row(i), p.coords()) {
                DomRelation::LeftDominates => return Ok(false),
                DomRelation::RightDominates => local.swap_remove(i),
                DomRelation::Equal | DomRelation::Incomparable => i += 1,
            }
        }
        local.push_point(&p);

        // The global skyline is an antichain, so a dominated p evicts
        // nothing: whatever p dominates, p's dominator would dominate too.
        // Survivors are compacted in place to keep the id order.
        let mut kept = 0;
        for i in 0..self.global.len() {
            self.comparisons += 1;
            match compare_rows(self.global[i].coords(), p.coords()) {
                DomRelation::LeftDominates => return Ok(false),
                DomRelation::RightDominates => {}
                DomRelation::Equal | DomRelation::Incomparable => {
                    self.global.swap(kept, i);
                    kept += 1;
                }
            }
        }
        self.global.truncate(kept);
        let at = self.global.partition_point(|g| g.id() < p.id());
        self.global.insert(at, p);
        Ok(true)
    }

    /// Removes the service with identifier `id`; `None` when it is not
    /// live. Removing a dominated point moves one row and does no skyline
    /// work; removing a local-skyline member recomputes its partition and
    /// re-merges the local skylines.
    pub fn remove(&mut self, id: u64) -> Option<Removal> {
        let (part, row) = self.at.remove(&id)?;
        let rows = &mut self.rows[part];
        rows.swap_remove(row);
        if row < rows.len() {
            self.at.insert(rows.id(row), (part, row));
        }
        if !self.local[part].ids().contains(&id) {
            return Some(Removal {
                repaired: false,
                promoted: Vec::new(),
            });
        }
        let before: Vec<u64> = self.global.iter().map(Point::id).collect();
        self.recompute(part);
        self.merge();
        let promoted = self
            .global
            .iter()
            .map(Point::id)
            .filter(|g| before.binary_search(g).is_err())
            .collect();
        Some(Removal {
            repaired: true,
            promoted,
        })
    }

    fn check_dim(&self, p: &Point) -> Result<(), SkylineError> {
        let expected = self.partitioner.dim();
        if p.dim() == expected {
            Ok(())
        } else {
            Err(SkylineError::DimensionMismatch {
                expected,
                actual: p.dim(),
            })
        }
    }

    /// Stores `p` as a live row of its partition and returns the partition.
    fn push_row(&mut self, p: &Point) -> usize {
        let part = self.partitioner.partition_of(p);
        self.at.insert(p.id(), (part, self.rows[part].len()));
        self.rows[part].push_point(p);
        part
    }

    /// Recomputes partition `part`'s local skyline from its live rows.
    fn recompute(&mut self, part: usize) {
        let (sky, stats) = presort_merge_stats(&self.rows[part], 1);
        self.comparisons += stats.comparisons;
        self.local[part] = sky;
    }

    /// Rebuilds the global skyline from the local skylines.
    fn merge(&mut self) {
        let mut union = PointBlock::new(self.partitioner.dim());
        for local in &self.local {
            union.extend_from_block(local);
        }
        let (sky, stats) = presort_merge_stats(&union, 1);
        self.comparisons += stats.comparisons;
        self.global = sky.to_points();
        self.global.sort_unstable_by_key(Point::id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{AnglePartitioner, Bounds};
    use crate::seq::naive_skyline_ids;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn ids(sky: &[Point]) -> Vec<u64> {
        let mut v: Vec<u64> = sky.iter().map(Point::id).collect();
        v.sort_unstable();
        v
    }

    fn partitioner() -> AnglePartitioner {
        AnglePartitioner::fit(&Bounds::zero_to(10.0, 2), 4).unwrap()
    }

    #[test]
    fn insert_matches_batch_oracle() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut inc = IncrementalSkyline::new(partitioner());
        let mut all = Vec::new();
        for i in 0..400u64 {
            let p = Point::new(i, vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]);
            all.push(p.clone());
            inc.insert(p).unwrap();
            if i % 50 == 49 {
                assert_eq!(
                    ids(inc.global_skyline()),
                    naive_skyline_ids(&all),
                    "after {i}"
                );
            }
        }
        assert_eq!(inc.len(), 400);
    }

    #[test]
    fn bulk_load_matches_insert_by_insert() {
        let mut rng = StdRng::seed_from_u64(18);
        let points: Vec<Point> = (0..200)
            .map(|i| Point::new(i, vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]))
            .collect();
        let bulk = IncrementalSkyline::from_points(partitioner(), &points).unwrap();
        let mut one_by_one = IncrementalSkyline::new(partitioner());
        for p in &points {
            one_by_one.insert(p.clone()).unwrap();
        }
        assert_eq!(ids(bulk.global_skyline()), ids(one_by_one.global_skyline()));
        assert_eq!(bulk.len(), one_by_one.len());
    }

    #[test]
    fn insert_reports_global_change() {
        let mut inc = IncrementalSkyline::new(partitioner());
        assert!(
            inc.insert(Point::new(0, vec![5.0, 5.0])).unwrap(),
            "first point joins"
        );
        assert!(
            !inc.insert(Point::new(1, vec![6.0, 6.0])).unwrap(),
            "dominated point changes nothing"
        );
        assert!(
            inc.insert(Point::new(2, vec![1.0, 1.0])).unwrap(),
            "dominating point evicts"
        );
        assert_eq!(ids(inc.global_skyline()), vec![2]);
    }

    #[test]
    fn dominated_insert_is_cheap() {
        let mut inc = IncrementalSkyline::new(partitioner());
        for i in 0..100u64 {
            // a tight cluster near the origin in one sector
            inc.insert(Point::new(i, vec![1.0 + (i as f64) * 1e-3, 0.1]))
                .unwrap();
        }
        let before = inc.comparisons();
        // deep in the dominated region of the same sector
        inc.insert(Point::new(1000, vec![9.0, 0.5])).unwrap();
        let spent = inc.comparisons() - before;
        assert!(
            spent <= (inc.local.iter().map(PointBlock::len).sum::<usize>() as u64) + 2,
            "dominated insert cost {spent} should be bounded by local skyline size"
        );
    }

    #[test]
    fn remove_non_skyline_point_keeps_global() {
        let mut inc = IncrementalSkyline::new(partitioner());
        inc.insert(Point::new(0, vec![1.0, 1.0])).unwrap();
        inc.insert(Point::new(1, vec![5.0, 5.0])).unwrap(); // dominated
        let before = ids(inc.global_skyline());
        let removal = inc.remove(1).expect("live");
        assert!(!removal.repaired && removal.promoted.is_empty());
        assert_eq!(ids(inc.global_skyline()), before);
        assert_eq!(inc.len(), 1);
    }

    #[test]
    fn remove_skyline_point_promotes_successor() {
        let mut inc = IncrementalSkyline::new(partitioner());
        inc.insert(Point::new(0, vec![1.0, 1.0])).unwrap();
        inc.insert(Point::new(1, vec![2.0, 2.0])).unwrap(); // shadowed by 0
        assert_eq!(ids(inc.global_skyline()), vec![0]);
        let removal = inc.remove(0).expect("live");
        assert!(removal.repaired);
        assert_eq!(removal.promoted, vec![1]);
        assert_eq!(ids(inc.global_skyline()), vec![1]);
    }

    #[test]
    fn remove_missing_id_is_noop() {
        let mut inc = IncrementalSkyline::new(partitioner());
        inc.insert(Point::new(0, vec![1.0, 1.0])).unwrap();
        assert_eq!(inc.remove(99), None);
        assert_eq!(inc.len(), 1);
    }

    #[test]
    fn churn_stays_consistent_with_oracle() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut inc = IncrementalSkyline::new(partitioner());
        let mut live: Vec<Point> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..300 {
            if live.is_empty() || rng.gen_bool(0.7) {
                let p = Point::new(
                    next_id,
                    vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)],
                );
                next_id += 1;
                live.push(p.clone());
                inc.insert(p).unwrap();
            } else {
                let k = rng.gen_range(0..live.len());
                let victim = live.swap_remove(k);
                assert!(inc.remove(victim.id()).is_some());
            }
            if step % 37 == 0 {
                assert_eq!(ids(inc.global_skyline()), naive_skyline_ids(&live));
            }
        }
        assert_eq!(inc.len(), live.len());
        assert_eq!(ids(inc.global_skyline()), naive_skyline_ids(&live));
    }

    #[test]
    fn contract_the_serving_layer_relies_on() {
        let mut inc = IncrementalSkyline::new(partitioner());
        inc.insert(Point::new(5, vec![1.0, 4.0])).unwrap();
        inc.insert(Point::new(2, vec![4.0, 1.0])).unwrap();
        inc.insert(Point::new(9, vec![2.0, 2.0])).unwrap();
        // a live id is an acknowledged no-op, even with other coordinates
        assert!(!inc.insert(Point::new(9, vec![0.0, 0.0])).unwrap());
        assert_eq!(inc.len(), 3);
        // the wrong dimensionality is typed
        assert_eq!(
            inc.insert(Point::new(7, vec![1.0])),
            Err(SkylineError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
        // skyline and live points come back sorted by id
        assert_eq!(ids(inc.global_skyline()), vec![2, 5, 9]);
        let sky: Vec<u64> = inc.global_skyline().iter().map(Point::id).collect();
        assert_eq!(sky, vec![2, 5, 9]);
        let live: Vec<u64> = inc.live_points().iter().map(Point::id).collect();
        assert_eq!(live, vec![2, 5, 9]);
        // ±0.0 tie: neither dominates the other
        inc.insert(Point::new(11, vec![0.0, 3.0])).unwrap();
        inc.insert(Point::new(12, vec![-0.0, 3.0])).unwrap();
        assert_eq!(ids(inc.global_skyline()), vec![2, 9, 11, 12]);
    }
}
