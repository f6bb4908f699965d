//! Incremental skyline maintenance under dynamic service churn.
//!
//! Section II of the paper motivates the partitioned design with dynamism:
//! *"Given a new service which is added into UDDI, traditional approach has
//! to compute the global skyline again. With the MapReduce approach, the new
//! service is first mapped into a group and added into the local skyline
//! computation"* — i.e. an insert touches one partition's local skyline plus
//! the (small) global merge, never the full dataset.
//!
//! [`IncrementalSkyline`] maintains exactly that state: per-partition point
//! stores, per-partition local skylines, and the global skyline, with
//! instrumented comparison counts so examples and benches can demonstrate
//! the savings versus recomputation from scratch.

use crate::block::PointBlock;
use crate::dominance::{compare, DomRelation};
use crate::kernel::{block_bnl_stats, BnlConfig};
use crate::partition::SpacePartitioner;
use crate::point::Point;

/// A dynamically maintained, partitioned skyline.
pub struct IncrementalSkyline<P: SpacePartitioner> {
    partitioner: P,
    /// All points, bucketed by partition (the "UDDI registry" contents).
    partitions: Vec<Vec<Point>>,
    /// Local skyline of each partition.
    local_skylines: Vec<Vec<Point>>,
    /// Global skyline (skyline of the union of local skylines).
    global: Vec<Point>,
    comparisons: u64,
    len: usize,
}

impl<P: SpacePartitioner> IncrementalSkyline<P> {
    /// Creates an empty maintained skyline over `partitioner`'s space.
    pub fn new(partitioner: P) -> Self {
        let n = partitioner.num_partitions();
        Self {
            partitioner,
            partitions: vec![Vec::new(); n],
            local_skylines: vec![Vec::new(); n],
            global: Vec::new(),
            comparisons: 0,
            len: 0,
        }
    }

    /// Bulk-loads `points` (batch BNL per partition, then a global merge).
    pub fn from_points(partitioner: P, points: &[Point]) -> Self {
        let mut s = Self::new(partitioner);
        for p in points {
            s.partitions[s.partitioner.partition_of(p)].push(p.clone());
        }
        s.len = points.len();
        for i in 0..s.partitions.len() {
            s.local_skylines[i] = batch_skyline(&s.partitions[i], &mut s.comparisons);
        }
        s.rebuild_global();
        s
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current global skyline.
    pub fn global_skyline(&self) -> &[Point] {
        &self.global
    }

    /// The current local skylines, one per partition.
    pub fn local_skylines(&self) -> &[Vec<Point>] {
        &self.local_skylines
    }

    /// Total dominance comparisons spent on maintenance so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Inserts a service. Returns `true` iff the global skyline changed.
    ///
    /// Cost: `O(|local skyline| + |global skyline|)` comparisons — the
    /// paper's "we only need to compare the new service with the services in
    /// a subdivided group".
    pub fn insert(&mut self, p: Point) -> bool {
        let part = self.partitioner.partition_of(&p);
        self.partitions[part].push(p.clone());
        self.len += 1;

        // Update the local skyline: p only needs to meet current local
        // skyline members (transitivity covers dominated non-members).
        let local = &mut self.local_skylines[part];
        let mut i = 0;
        while i < local.len() {
            self.comparisons += 1;
            match compare(&local[i], &p) {
                DomRelation::LeftDominates => return false, // locally dominated
                DomRelation::RightDominates => {
                    local.swap_remove(i);
                }
                DomRelation::Equal | DomRelation::Incomparable => i += 1,
            }
        }
        local.push(p.clone());

        // Update the global skyline. Evicted local members need no explicit
        // global removal scan of their own: anything p evicted locally is
        // dominated by p, and p is about to sweep the global set too.
        let mut changed = false;
        let mut i = 0;
        let mut dominated_globally = false;
        while i < self.global.len() {
            self.comparisons += 1;
            match compare(&self.global[i], &p) {
                DomRelation::LeftDominates => {
                    dominated_globally = true;
                    break;
                }
                DomRelation::RightDominates => {
                    self.global.swap_remove(i);
                    changed = true;
                }
                DomRelation::Equal | DomRelation::Incomparable => i += 1,
            }
        }
        if !dominated_globally {
            self.global.push(p);
            changed = true;
        }
        changed
    }

    /// Removes the service with identifier `id`. Returns `true` iff a point
    /// was removed. Removal of a local-skyline member triggers recomputation
    /// of that partition's local skyline and a rebuild of the global merge;
    /// removal of a dominated point is O(partition scan) with no skyline
    /// work.
    pub fn remove(&mut self, id: u64) -> bool {
        for part in 0..self.partitions.len() {
            if let Some(pos) = self.partitions[part].iter().position(|p| p.id() == id) {
                self.partitions[part].swap_remove(pos);
                self.len -= 1;
                let was_local = self.local_skylines[part].iter().any(|p| p.id() == id);
                if was_local {
                    self.local_skylines[part] =
                        batch_skyline(&self.partitions[part], &mut self.comparisons);
                    self.rebuild_global();
                }
                return true;
            }
        }
        false
    }

    fn rebuild_global(&mut self) {
        let union: Vec<Point> = self
            .local_skylines
            .iter()
            .flat_map(|s| s.iter().cloned())
            .collect();
        self.global = batch_skyline(&union, &mut self.comparisons);
    }
}

/// Batch BNL over `points`, adding the comparisons it spent to
/// `comparisons`.
fn batch_skyline(points: &[Point], comparisons: &mut u64) -> Vec<Point> {
    let Some(first) = points.first() else {
        return Vec::new();
    };
    let mut block = PointBlock::with_capacity(first.dim(), points.len());
    for p in points {
        block.push_point(p);
    }
    let (sky, stats) = block_bnl_stats(&block, &BnlConfig::default());
    *comparisons += stats.comparisons;
    sky.to_points()
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
            inc.insert(p);
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
        let bulk = IncrementalSkyline::from_points(partitioner(), &points);
        let mut one_by_one = IncrementalSkyline::new(partitioner());
        for p in &points {
            one_by_one.insert(p.clone());
        }
        assert_eq!(ids(bulk.global_skyline()), ids(one_by_one.global_skyline()));
        assert_eq!(bulk.len(), one_by_one.len());
    }

    #[test]
    fn insert_reports_global_change() {
        let mut inc = IncrementalSkyline::new(partitioner());
        assert!(
            inc.insert(Point::new(0, vec![5.0, 5.0])),
            "first point joins"
        );
        assert!(
            !inc.insert(Point::new(1, vec![6.0, 6.0])),
            "dominated point changes nothing"
        );
        assert!(
            inc.insert(Point::new(2, vec![1.0, 1.0])),
            "dominating point evicts"
        );
        assert_eq!(ids(inc.global_skyline()), vec![2]);
    }

    #[test]
    fn dominated_insert_is_cheap() {
        let mut inc = IncrementalSkyline::new(partitioner());
        for i in 0..100u64 {
            // a tight cluster near the origin in one sector
            inc.insert(Point::new(i, vec![1.0 + (i as f64) * 1e-3, 0.1]));
        }
        let before = inc.comparisons();
        // deep in the dominated region of the same sector
        inc.insert(Point::new(1000, vec![9.0, 0.5]));
        let spent = inc.comparisons() - before;
        assert!(
            spent <= (inc.local_skylines().iter().map(Vec::len).sum::<usize>() as u64) + 2,
            "dominated insert cost {spent} should be bounded by local skyline size"
        );
    }

    #[test]
    fn remove_non_skyline_point_keeps_global() {
        let mut inc = IncrementalSkyline::new(partitioner());
        inc.insert(Point::new(0, vec![1.0, 1.0]));
        inc.insert(Point::new(1, vec![5.0, 5.0])); // dominated
        let before = ids(inc.global_skyline());
        assert!(inc.remove(1));
        assert_eq!(ids(inc.global_skyline()), before);
        assert_eq!(inc.len(), 1);
    }

    #[test]
    fn remove_skyline_point_promotes_successor() {
        let mut inc = IncrementalSkyline::new(partitioner());
        inc.insert(Point::new(0, vec![1.0, 1.0]));
        inc.insert(Point::new(1, vec![2.0, 2.0])); // shadowed by 0
        assert_eq!(ids(inc.global_skyline()), vec![0]);
        assert!(inc.remove(0));
        assert_eq!(ids(inc.global_skyline()), vec![1]);
    }

    #[test]
    fn remove_missing_id_is_noop() {
        let mut inc = IncrementalSkyline::new(partitioner());
        inc.insert(Point::new(0, vec![1.0, 1.0]));
        assert!(!inc.remove(99));
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
                inc.insert(p);
            } else {
                let k = rng.gen_range(0..live.len());
                let victim = live.swap_remove(k);
                assert!(inc.remove(victim.id()));
            }
            if step % 37 == 0 {
                assert_eq!(ids(inc.global_skyline()), naive_skyline_ids(&live));
            }
        }
        assert_eq!(inc.len(), live.len());
        assert_eq!(ids(inc.global_skyline()), naive_skyline_ids(&live));
    }
}
