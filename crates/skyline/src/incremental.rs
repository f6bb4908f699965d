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
use crate::kernel::{block_bnl_stats, compare_rows, BnlConfig};
use crate::partition::SpacePartitioner;
use crate::point::Point;
use std::collections::HashSet;

/// A barrier-free global merge: local-skyline blocks are absorbed as their
/// reduce tasks complete, maintaining the running skyline incrementally
/// instead of collecting everything and running one final BNL.
///
/// Absorption is **idempotent per id** — a `seen` set drops rows whose id
/// was already absorbed — so retried or speculatively duplicated reduce
/// outputs (the `mrsky-chaos` failure modes) cannot corrupt the result, and
/// the final skyline is independent of completion order (the skyline of a
/// union is order-insensitive).
pub struct StreamingMerge {
    dim: usize,
    sky: PointBlock,
    seen: HashSet<u64>,
    absorbed: u64,
    comparisons: u64,
}

impl StreamingMerge {
    /// An empty merge over `dim`-dimensional rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            sky: PointBlock::new(dim),
            seen: HashSet::new(),
            absorbed: 0,
            comparisons: 0,
        }
    }

    /// Absorbs one local-skyline block, updating the running global skyline.
    /// Rows with an already-seen id are skipped (retry/speculation dedup).
    /// Returns the number of *new* rows absorbed.
    ///
    /// # Panics
    ///
    /// Panics if `block` has a different dimensionality (unless empty).
    pub fn absorb_block(&mut self, block: &PointBlock) -> usize {
        let mut fresh = 0usize;
        for idx in 0..block.len() {
            if !self.seen.insert(block.id(idx)) {
                continue;
            }
            fresh += 1;
            self.absorbed += 1;
            self.insert_row(block, idx);
        }
        fresh
    }

    fn insert_row(&mut self, block: &PointBlock, idx: usize) {
        let row = block.row(idx);
        debug_assert_eq!(row.len(), self.dim);
        // One sweep decides the row's fate. An incumbent dominating `row`
        // and another dominated by it cannot coexist (the running skyline is
        // mutually non-dominating), so returning early on the first
        // dominator never forgets a pending eviction.
        let mut evicted: Vec<usize> = Vec::new();
        for i in 0..self.sky.len() {
            self.comparisons += 1;
            match compare_rows(self.sky.row(i), row) {
                DomRelation::LeftDominates => return,
                DomRelation::RightDominates => evicted.push(i),
                DomRelation::Equal | DomRelation::Incomparable => {}
            }
        }
        if !evicted.is_empty() {
            let mut survivors = PointBlock::with_capacity(self.dim, self.sky.len());
            let mut next_evicted = 0usize;
            for i in 0..self.sky.len() {
                if next_evicted < evicted.len() && evicted[next_evicted] == i {
                    next_evicted += 1;
                    continue;
                }
                survivors.push_row_from(&self.sky, i);
            }
            self.sky = survivors;
        }
        self.sky.push_row_from(block, idx);
    }

    /// The running global skyline, in absorption order.
    pub fn skyline(&self) -> &PointBlock {
        &self.sky
    }

    /// Consumes the merge and returns the skyline block.
    pub fn into_skyline(self) -> PointBlock {
        self.sky
    }

    /// Total distinct rows absorbed so far (the merge's candidate volume).
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Dominance comparisons spent so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

/// A [`StreamingMerge`] shareable across reduce workers: the merge
/// state sits behind the `mrsky-model` sync facade's mutex, so the
/// absorb path is model-checked under `--cfg mrsky_model`
/// (`tests/model.rs`) — racing absorbers must converge to the same
/// skyline with each id credited exactly once.
///
/// Each [`absorb_block`](SharedStreamingMerge::absorb_block) holds the
/// lock for the whole block, so the seen-check and the skyline update
/// are atomic together — the linearization point the exactness
/// argument needs.
pub struct SharedStreamingMerge {
    inner: mrsky_model::sync::Mutex<StreamingMerge>,
}

impl SharedStreamingMerge {
    /// Wraps a merge for shared use.
    pub fn new(merge: StreamingMerge) -> Self {
        Self {
            inner: mrsky_model::sync::Mutex::new(merge),
        }
    }

    /// Absorbs one local-skyline block (see [`StreamingMerge::absorb_block`]).
    pub fn absorb_block(&self, block: &PointBlock) -> usize {
        self.inner.lock().absorb_block(block)
    }

    /// Total distinct rows absorbed so far.
    pub fn absorbed(&self) -> u64 {
        self.inner.lock().absorbed()
    }

    /// Dominance comparisons spent so far.
    pub fn comparisons(&self) -> u64 {
        self.inner.lock().comparisons()
    }

    /// A clone of the current running skyline.
    pub fn skyline_snapshot(&self) -> PointBlock {
        self.inner.lock().skyline().clone()
    }

    /// Consumes the wrapper and returns the final skyline block.
    pub fn into_skyline(self) -> PointBlock {
        self.inner.into_inner().into_skyline()
    }
}

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
    fn streaming_merge_matches_batch_oracle_in_any_order() {
        let mut rng = StdRng::seed_from_u64(23);
        let points: Vec<Point> = (0..600)
            .map(|i| {
                Point::new(
                    i,
                    vec![
                        rng.gen_range(0.0..10.0),
                        rng.gen_range(0.0..10.0),
                        rng.gen_range(0.0..10.0),
                    ],
                )
            })
            .collect();
        let oracle = naive_skyline_ids(&points);
        // split into blocks and absorb in two different orders
        let all = PointBlock::from_points(&points).unwrap();
        let chunks = all.chunks(64);
        for reversed in [false, true] {
            let mut merge = StreamingMerge::new(3);
            let order: Vec<&PointBlock> = if reversed {
                chunks.iter().rev().collect()
            } else {
                chunks.iter().collect()
            };
            for c in order {
                merge.absorb_block(c);
            }
            let mut got: Vec<u64> = merge.skyline().ids().to_vec();
            got.sort_unstable();
            assert_eq!(got, oracle, "reversed={reversed}");
            assert_eq!(merge.absorbed(), 600);
        }
    }

    #[test]
    fn streaming_merge_dedups_replayed_blocks() {
        let points = vec![
            Point::new(0, vec![1.0, 4.0]),
            Point::new(1, vec![2.0, 2.0]),
            Point::new(2, vec![4.0, 1.0]),
            Point::new(3, vec![3.0, 3.0]),
        ];
        let block = PointBlock::from_points(&points).unwrap();
        let mut merge = StreamingMerge::new(2);
        assert_eq!(merge.absorb_block(&block), 4);
        // a chaos retry re-delivers the same output: nothing new absorbed
        assert_eq!(merge.absorb_block(&block), 0);
        assert_eq!(merge.absorbed(), 4);
        let mut got: Vec<u64> = merge.into_skyline().ids().to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn streaming_merge_keeps_equal_rows_with_distinct_ids() {
        // matches BNL semantics: coordinate ties never dominate
        let points = vec![Point::new(0, vec![1.0, 1.0]), Point::new(1, vec![1.0, 1.0])];
        let block = PointBlock::from_points(&points).unwrap();
        let mut merge = StreamingMerge::new(2);
        merge.absorb_block(&block);
        assert_eq!(merge.skyline().len(), 2);
    }

    #[test]
    fn streaming_merge_counts_comparisons() {
        let points = vec![
            Point::new(0, vec![1.0, 4.0]),
            Point::new(1, vec![2.0, 2.0]),
            Point::new(2, vec![0.5, 5.0]), // evicts nothing, joins
        ];
        let block = PointBlock::from_points(&points).unwrap();
        let mut merge = StreamingMerge::new(2);
        merge.absorb_block(&block);
        assert!(merge.comparisons() > 0);
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
