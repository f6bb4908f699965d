//! The k-skyband retention buffer that makes deletions repairable.
//!
//! A skyline maintained incrementally (e.g. by
//! [`IncrementalSkyline`](crate::incremental::IncrementalSkyline))
//! handles inserts cheaply but pays a recompute on every deletion of a
//! skyline member, because the points the deletion would promote were
//! thrown away. The classical fix is to retain the **k-skyband** — the
//! points dominated by fewer than `k` others — so a deletion promotes
//! candidates straight out of the buffer.
//!
//! [`SkybandBuffer`] keeps three things: the full live store (needed
//! anyway for the underflow rebuild), the band itself, and a per-entry
//! *conservative* dominator count. The count discipline is chosen so a
//! point is discarded from the band only when it provably has at least
//! `k` **live** dominators at discard time:
//!
//! - at insert, a point starts with the number of band points dominating
//!   it (all live);
//! - every later insert dominating it increments the count (the
//!   dominator is live);
//! - every deletion whose point dominates it decrements the count
//!   (saturating — decrements for never-counted dominators undercount,
//!   which only keeps points longer than necessary).
//!
//! Counts therefore never overcount live dominators, and the following
//! invariant holds between rebuilds: **every live point missing from the
//! band had ≥ k live dominators when it was discarded**. Since at most
//! `d` deletions happened since, it still has ≥ `k − d` live dominators;
//! taking a minimal one under the (strict, transitive) dominance order
//! yields a live dominator with no live dominator of its own — which the
//! count discipline can never have discarded, so it sits in the band.
//! Hence while `d < k`, the skyline of the band equals the skyline of
//! the live set, and [`SkybandBuffer::skyline`] is exact. The `k`-th
//! deletion triggers the **underflow rebuild**: an exact k-skyband
//! recompute from the live store, after which the budget resets.
//!
//! Deleting a point that was already discarded from the band never
//! changes the band's skyline (the point was dominated, and anything it
//! dominated is outside the band too), but it still consumes deletion
//! budget — the conservative rule keeps the proof one paragraph long.

use crate::dominance::dominates;
use crate::point::Point;
use std::collections::HashMap;

/// How a deletion was absorbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The id was not live; nothing changed.
    NotLive,
    /// The deleted point had already been discarded from the band; the
    /// served skyline is unchanged.
    Discarded,
    /// The deletion was repaired from the retention buffer. `promoted`
    /// holds the ids that entered the skyline as a result (empty when
    /// the deleted point was not a skyline member).
    FromBuffer {
        /// Ids promoted into the skyline by this repair.
        promoted: Vec<u64>,
    },
    /// The deletion exhausted the buffer's budget and forced an exact
    /// k-skyband rebuild from the live store.
    UnderflowRebuild {
        /// Ids promoted into the skyline by this repair.
        promoted: Vec<u64>,
    },
}

/// Lifetime counters for observability; mirrored into trace events by
/// the serving layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkybandStats {
    /// Deletions repaired from the retention buffer.
    pub repairs_from_buffer: u64,
    /// Deletions that forced a full rebuild (budget exhausted).
    pub underflow_rebuilds: u64,
    /// Inserts discarded on arrival (≥ k band dominators).
    pub discarded_inserts: u64,
    /// Band entries evicted because their dominator count reached k.
    pub evictions: u64,
}

struct BandEntry {
    point: Point,
    /// Conservative live-dominator count; never overcounts (see module
    /// docs), so `dominators >= k` is a sound discard condition.
    dominators: usize,
}

/// A k-skyband retention buffer over a live point set (see module docs).
pub struct SkybandBuffer {
    k: usize,
    dim: Option<usize>,
    live: HashMap<u64, Point>,
    band: Vec<BandEntry>,
    deletions_since_rebuild: usize,
    stats: SkybandStats,
}

impl SkybandBuffer {
    /// Creates a buffer retaining points with fewer than `k` dominators.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` — a 0-skyband retains nothing and cannot even
    /// hold the skyline.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "skyband depth k must be at least 1");
        Self {
            k,
            dim: None,
            live: HashMap::new(),
            band: Vec::new(),
            deletions_since_rebuild: 0,
            stats: SkybandStats::default(),
        }
    }

    /// The retention depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Live points currently stored.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Points currently retained in the band.
    pub fn band_len(&self) -> usize {
        self.band.len()
    }

    /// Deletions absorbed since the last exact rebuild.
    pub fn deletions_since_rebuild(&self) -> usize {
        self.deletions_since_rebuild
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SkybandStats {
        self.stats
    }

    /// Inserts a live point. Returns `Err` on dimensionality mismatch
    /// with the buffer's first point, `Ok(false)` when the id is already
    /// live (idempotent re-insert, ignored), `Ok(true)` otherwise.
    ///
    /// # Errors
    ///
    /// [`crate::SkylineError::DimensionMismatch`] when `p`'s
    /// dimensionality differs from the buffer's.
    pub fn insert(&mut self, p: Point) -> Result<bool, crate::SkylineError> {
        match self.dim {
            None => self.dim = Some(p.dim()),
            Some(d) if d != p.dim() => {
                return Err(crate::SkylineError::DimensionMismatch {
                    expected: d,
                    actual: p.dim(),
                })
            }
            Some(_) => {}
        }
        if self.live.contains_key(&p.id()) {
            return Ok(false);
        }
        self.live.insert(p.id(), p.clone());

        let mut my_dominators = 0usize;
        for e in &mut self.band {
            if dominates(&e.point, &p) {
                my_dominators += 1;
            } else if dominates(&p, &e.point) {
                e.dominators += 1;
            }
        }
        let k = self.k;
        let before = self.band.len();
        self.band.retain(|e| e.dominators < k);
        self.stats.evictions += (before - self.band.len()) as u64;
        if my_dominators < k {
            self.band.push(BandEntry {
                point: p,
                dominators: my_dominators,
            });
        } else {
            self.stats.discarded_inserts += 1;
        }
        Ok(true)
    }

    /// Deletes a live point by id and repairs the skyline, from the
    /// buffer when the deletion budget allows it and by an exact rebuild
    /// otherwise.
    pub fn delete(&mut self, id: u64) -> DeleteOutcome {
        let Some(gone) = self.live.remove(&id) else {
            return DeleteOutcome::NotLive;
        };
        self.deletions_since_rebuild += 1;
        let was_banded = self.band.iter().any(|e| e.point.id() == id);
        let needs_diff = was_banded || self.deletions_since_rebuild >= self.k;
        let before: Vec<u64> = if needs_diff {
            self.skyline_ids()
        } else {
            Vec::new()
        };
        if was_banded {
            self.band.retain(|e| e.point.id() != id);
        }
        for e in &mut self.band {
            if dominates(&gone, &e.point) {
                e.dominators = e.dominators.saturating_sub(1);
            }
        }

        if self.deletions_since_rebuild >= self.k {
            self.rebuild();
            self.stats.underflow_rebuilds += 1;
            let promoted = self
                .skyline_ids()
                .into_iter()
                .filter(|sid| !before.contains(sid))
                .collect();
            return DeleteOutcome::UnderflowRebuild { promoted };
        }
        if !was_banded {
            return DeleteOutcome::Discarded;
        }
        self.stats.repairs_from_buffer += 1;
        let promoted = self
            .skyline_ids()
            .into_iter()
            .filter(|sid| !before.contains(sid))
            .collect();
        DeleteOutcome::FromBuffer { promoted }
    }

    /// Recomputes the exact k-skyband from the live store and resets the
    /// deletion budget. `O(n²)` dominance scan — this is the slow path
    /// the buffer exists to avoid.
    pub fn rebuild(&mut self) {
        let mut pts: Vec<&Point> = self.live.values().collect();
        pts.sort_unstable_by_key(|p| p.id());
        let mut band = Vec::new();
        for p in &pts {
            let mut c = 0usize;
            for q in &pts {
                if q.id() != p.id() && dominates(q, p) {
                    c += 1;
                    if c >= self.k {
                        break;
                    }
                }
            }
            if c < self.k {
                band.push(BandEntry {
                    point: (*p).clone(),
                    dominators: c,
                });
            }
        }
        self.band = band;
        self.deletions_since_rebuild = 0;
    }

    /// The current skyline, sorted by id. Exact whenever the buffer's
    /// invariant holds (always, between the rebuilds it forces itself).
    pub fn skyline(&self) -> Vec<Point> {
        let mut out: Vec<Point> = self
            .band
            .iter()
            .filter(|e| {
                self.band
                    .iter()
                    .all(|o| o.point.id() == e.point.id() || !dominates(&o.point, &e.point))
            })
            .map(|e| e.point.clone())
            .collect();
        out.sort_unstable_by_key(Point::id);
        out
    }

    fn skyline_ids(&self) -> Vec<u64> {
        self.skyline().iter().map(Point::id).collect()
    }

    /// Every live point, sorted by id. This is the full checkpointable
    /// state: re-inserting these into a fresh buffer reproduces the
    /// exact band (counts are recomputed conservatively on the way in).
    pub fn live_points(&self) -> Vec<Point> {
        let mut out: Vec<Point> = self.live.values().cloned().collect();
        out.sort_unstable_by_key(Point::id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::naive_skyline_ids;

    fn sky_ids(b: &SkybandBuffer) -> Vec<u64> {
        b.skyline().iter().map(Point::id).collect()
    }

    #[test]
    fn deletion_of_skyline_member_promotes_from_buffer() {
        let mut b = SkybandBuffer::new(3);
        // p0 dominates p1 dominates p2; p3 incomparable to all
        b.insert(Point::new(0, vec![1.0, 1.0])).unwrap();
        b.insert(Point::new(1, vec![2.0, 2.0])).unwrap();
        b.insert(Point::new(2, vec![3.0, 3.0])).unwrap();
        b.insert(Point::new(3, vec![0.5, 9.0])).unwrap();
        assert_eq!(sky_ids(&b), vec![0, 3]);
        match b.delete(0) {
            DeleteOutcome::FromBuffer { promoted } => assert_eq!(promoted, vec![1]),
            other => panic!("expected buffer repair, got {other:?}"),
        }
        assert_eq!(sky_ids(&b), vec![1, 3]);
        assert_eq!(b.stats().repairs_from_buffer, 1);
        assert_eq!(b.stats().underflow_rebuilds, 0);
    }

    #[test]
    fn kth_deletion_forces_underflow_rebuild() {
        let mut b = SkybandBuffer::new(2);
        for i in 0..6u64 {
            let v = 1.0 + i as f64;
            b.insert(Point::new(i, vec![v, 7.0 - v])).unwrap();
        }
        // all incomparable (anti-correlated diagonal): everything banded
        assert_eq!(b.band_len(), 6);
        assert!(matches!(b.delete(0), DeleteOutcome::FromBuffer { .. }));
        match b.delete(1) {
            DeleteOutcome::UnderflowRebuild { .. } => {}
            other => panic!("expected underflow rebuild, got {other:?}"),
        }
        assert_eq!(b.deletions_since_rebuild(), 0);
        assert_eq!(b.stats().underflow_rebuilds, 1);
        let live: Vec<Point> = (2..6u64)
            .map(|i| {
                let v = 1.0 + i as f64;
                Point::new(i, vec![v, 7.0 - v])
            })
            .collect();
        assert_eq!(sky_ids(&b), naive_skyline_ids(&live));
    }

    #[test]
    fn deleting_a_discarded_point_is_free_of_repair() {
        let mut b = SkybandBuffer::new(1);
        b.insert(Point::new(0, vec![1.0, 1.0])).unwrap();
        // dominated once = discarded at k=1
        b.insert(Point::new(1, vec![2.0, 2.0])).unwrap();
        assert_eq!(b.band_len(), 1);
        assert_eq!(b.stats().discarded_inserts, 1);
        match b.delete(1) {
            // budget k=1 means even this free deletion triggers the
            // conservative rebuild — but the skyline never changed
            DeleteOutcome::UnderflowRebuild { promoted } => assert!(promoted.is_empty()),
            other => panic!("{other:?}"),
        }
        assert_eq!(sky_ids(&b), vec![0]);
    }

    #[test]
    fn duplicate_insert_is_idempotent_and_missing_delete_is_not_live() {
        let mut b = SkybandBuffer::new(2);
        assert!(b.insert(Point::new(7, vec![1.0])).unwrap());
        assert!(!b.insert(Point::new(7, vec![5.0])).unwrap());
        assert_eq!(b.live_len(), 1);
        assert_eq!(b.delete(99), DeleteOutcome::NotLive);
        assert_eq!(b.deletions_since_rebuild(), 0);
    }

    #[test]
    fn dimension_mismatch_is_typed() {
        let mut b = SkybandBuffer::new(2);
        b.insert(Point::new(0, vec![1.0, 2.0])).unwrap();
        let err = b.insert(Point::new(1, vec![1.0])).unwrap_err();
        assert!(matches!(
            err,
            crate::SkylineError::DimensionMismatch {
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn band_stays_within_the_k_skyband_bound() {
        // ties and duplicates: equal rows never dominate each other, so
        // every copy stays banded; dominated chains are cut at depth k.
        let mut b = SkybandBuffer::new(2);
        for i in 0..5u64 {
            b.insert(Point::new(i, vec![1.0 + i as f64])).unwrap();
        }
        // 1-d chain: point i has i dominators; band keeps i < 2
        assert_eq!(b.band_len(), 2);
        assert_eq!(sky_ids(&b), vec![0]);
        assert_eq!(b.stats().discarded_inserts, 3);
    }

    #[test]
    fn long_interleaving_matches_recompute_oracle() {
        // deterministic LCG-driven churn, cross-checked against a full
        // recompute after every operation
        let mut b = SkybandBuffer::new(4);
        let mut live: Vec<Point> = Vec::new();
        let mut state = 0x9E37_79B9u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut next_id = 0u64;
        for _ in 0..400 {
            let r = next();
            if r % 3 != 0 || live.is_empty() {
                let c0 = (next() % 16) as f64;
                let c1 = (next() % 16) as f64;
                let p = Point::new(next_id, vec![c0, c1]);
                next_id += 1;
                live.push(p.clone());
                b.insert(p).unwrap();
            } else {
                let victim = live.remove((next() as usize) % live.len());
                assert_ne!(b.delete(victim.id()), DeleteOutcome::NotLive);
            }
            assert_eq!(sky_ids(&b), naive_skyline_ids(&live), "after {next_id} ops");
        }
        assert!(b.stats().repairs_from_buffer > 0, "{:?}", b.stats());
        assert!(b.stats().underflow_rebuilds > 0, "{:?}", b.stats());
    }
}
