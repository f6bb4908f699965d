//! Dynamic registry maintenance — the paper's Section II churn scenario.
//!
//! *"Given a new service which is added into UDDI, traditional approach has
//! to compute the global skyline again. With the MapReduce approach, the new
//! service is first mapped into a group and added into the local skyline
//! computation."*
//!
//! [`MaintainedRegistry`] keeps the partitioned skyline of a live registry
//! up to date under adds and removals, using the same partitioner the batch
//! algorithms use, and tracks how many dominance comparisons maintenance
//! has cost versus periodic from-scratch recomputation.

use crate::algorithms::build_partitioner;
use crate::config::{AlgoConfig, Algorithm};
use qws_data::dataset::Update;
use qws_data::Dataset;
use skyline_algos::incremental::IncrementalSkyline;
use skyline_algos::partition::SpacePartitioner;
use skyline_algos::point::Point;
use std::sync::Arc;

/// A live service registry with an incrementally maintained skyline.
pub struct MaintainedRegistry {
    inner: IncrementalSkyline<Arc<dyn SpacePartitioner>>,
    adds: u64,
    removals: u64,
    global_changes: u64,
}

impl MaintainedRegistry {
    /// Bootstraps the registry from `dataset`, partitioned as `algorithm`
    /// would partition it on a cluster of `servers`.
    ///
    /// # Errors
    ///
    /// Propagates the partitioner fit error (see
    /// [`build_partitioner`](crate::algorithms::build_partitioner)).
    pub fn bootstrap(
        algorithm: Algorithm,
        servers: usize,
        dataset: &Dataset,
    ) -> Result<Self, skyline_algos::SkylineError> {
        let partitioner = build_partitioner(algorithm, &AlgoConfig::default(), dataset, servers)?;
        Ok(Self {
            inner: IncrementalSkyline::from_points(partitioner, dataset.points())?,
            adds: 0,
            removals: 0,
            global_changes: 0,
        })
    }

    /// Applies one churn event. Returns `true` iff the global skyline
    /// changed. An add of another dimensionality, or of a live id, is
    /// ignored.
    pub fn apply(&mut self, update: &Update) -> bool {
        match update {
            Update::Add(p) => {
                self.adds += 1;
                let changed = self.inner.insert(p.clone()).unwrap_or(false);
                self.global_changes += u64::from(changed);
                changed
            }
            Update::Remove(id) => {
                self.removals += 1;
                // the skyline is sorted by id, and it changes exactly when
                // one of its members leaves
                let changed = self.skyline().binary_search_by_key(id, Point::id).is_ok();
                self.inner.remove(*id);
                self.global_changes += u64::from(changed);
                changed
            }
        }
    }

    /// The current global skyline, sorted by id.
    pub fn skyline(&self) -> &[Point] {
        self.inner.global_skyline()
    }

    /// Number of live services.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` when no services are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Dominance comparisons spent on maintenance so far (bootstrap
    /// included).
    pub fn comparisons(&self) -> u64 {
        self.inner.comparisons()
    }

    /// `(adds, removals, events that changed the global skyline)`.
    pub fn churn_stats(&self) -> (u64, u64, u64) {
        (self.adds, self.removals, self.global_changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qws_data::dataset::update_stream;
    use qws_data::{generate_qws, QwsConfig};
    use skyline_algos::seq::naive_skyline_ids;

    #[test]
    fn bootstrap_matches_batch_skyline() {
        let data = generate_qws(&QwsConfig::new(400, 3));
        let reg =
            MaintainedRegistry::bootstrap(Algorithm::MrAngle, 4, &data).expect("partitioner fit");
        let mut ids: Vec<u64> = reg.skyline().iter().map(Point::id).collect();
        ids.sort_unstable();
        assert_eq!(ids, naive_skyline_ids(data.points()));
        assert_eq!(reg.len(), 400);
        assert!(!reg.is_empty());
    }

    #[test]
    fn churn_stream_stays_consistent() {
        let data = generate_qws(&QwsConfig::new(300, 3));
        let mut reg =
            MaintainedRegistry::bootstrap(Algorithm::MrAngle, 4, &data).expect("partitioner fit");
        let mut live: Vec<Point> = data.points().to_vec();
        for (step, u) in update_stream(&data, 200, 0.6, 0.1, 5).iter().enumerate() {
            reg.apply(u);
            match u {
                Update::Add(p) => live.push(p.clone()),
                Update::Remove(id) => {
                    let pos = live.iter().position(|p| p.id() == *id).expect("live id");
                    live.swap_remove(pos);
                }
            }
            if step % 29 == 0 {
                let mut ids: Vec<u64> = reg.skyline().iter().map(Point::id).collect();
                ids.sort_unstable();
                assert_eq!(ids, naive_skyline_ids(&live), "step {step}");
            }
        }
        let (adds, removals, changes) = reg.churn_stats();
        assert_eq!(adds + removals, 200);
        assert!(changes > 0, "200 churn events should move the skyline");
    }

    #[test]
    fn removing_unknown_id_is_a_noop() {
        let data = generate_qws(&QwsConfig::new(50, 2));
        let mut reg =
            MaintainedRegistry::bootstrap(Algorithm::MrGrid, 2, &data).expect("partitioner fit");
        let before = reg.len();
        assert!(!reg.apply(&Update::Remove(9_999_999)));
        assert_eq!(reg.len(), before);
    }

    #[test]
    fn incremental_cheaper_than_recompute_per_event() {
        let data = generate_qws(&QwsConfig::new(2000, 3));
        let mut reg =
            MaintainedRegistry::bootstrap(Algorithm::MrAngle, 8, &data).expect("partitioner fit");
        let bootstrap_cost = reg.comparisons();
        let stream = update_stream(&data, 50, 1.0, 0.05, 9);
        for u in &stream {
            reg.apply(u);
        }
        let per_event = (reg.comparisons() - bootstrap_cost) / 50;
        // recomputing from scratch costs at least one comparison per point;
        // incremental inserts should be far below that
        assert!(
            per_event < 2000 / 4,
            "incremental insert cost {per_event} comparisons per event"
        );
    }
}
