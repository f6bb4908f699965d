//! Property-based validation of the live-skyline engines: for arbitrary
//! insert/delete interleavings (small integer grids with ±0.0 force heavy
//! dominance, duplicates, and ties) each engine's served skyline must equal
//! a recompute-from-scratch over the surviving live set after *every*
//! operation — across deletion repairs, idempotent re-inserts of live ids,
//! and re-insertions of previously deleted ids.
//!
//! Every property runs against each engine: the k-skyband buffer the
//! benchmark still replays, and the one product engine,
//! [`IncrementalSkyline`], at one partition (as the serving layer runs it)
//! and at four hash partitions.

use proptest::prelude::*;
use skyline_algos::incremental::IncrementalSkyline;
use skyline_algos::partition::RandomPartitioner;
use skyline_algos::point::Point;
use skyline_algos::seq::naive_skyline_ids;
use skyline_algos::skyband::SkybandBuffer;
use std::collections::BTreeMap;

/// One engine under test.
enum Engine {
    Band(SkybandBuffer),
    Partitioned(IncrementalSkyline<RandomPartitioner>),
}

impl Engine {
    /// `which` 0 is the k-skyband buffer at depth `k`, 1 the engine at one
    /// partition and 2 the engine at four.
    fn new(which: u8, k: usize, dim: usize) -> Self {
        let partitioned = |n| {
            let partitioner = RandomPartitioner::new(dim, n).expect("n >= 1");
            Engine::Partitioned(IncrementalSkyline::new(partitioner))
        };
        match which {
            0 => Engine::Band(SkybandBuffer::new(k)),
            1 => partitioned(1),
            _ => partitioned(4),
        }
    }

    /// Inserts `p`; `false` when the id was already live.
    fn insert(&mut self, p: Point) -> bool {
        match self {
            Engine::Band(b) => b.insert(p).expect("finite grid coords"),
            Engine::Partitioned(e) => {
                let before = e.len();
                e.insert(p).expect("matching dimensionality");
                e.len() > before
            }
        }
    }

    fn delete(&mut self, id: u64) {
        match self {
            Engine::Band(b) => {
                b.delete(id);
            }
            Engine::Partitioned(e) => {
                e.remove(id);
            }
        }
    }

    /// The served skyline's ids, in served order.
    fn skyline(&self) -> Vec<u64> {
        let sky = match self {
            Engine::Band(b) => b.skyline(),
            Engine::Partitioned(e) => e.global_skyline().to_vec(),
        };
        sky.iter().map(Point::id).collect()
    }

    fn live(&self) -> Vec<Point> {
        match self {
            Engine::Band(b) => b.live_points(),
            Engine::Partitioned(e) => e.live_points(),
        }
    }
}

/// Grid value 5 is -0.0, which ties with 0.0 under dominance.
fn coord(v: u8) -> f64 {
    if v == 5 {
        -0.0
    } else {
        f64::from(v)
    }
}

fn point(id: u64, coords: &[u8]) -> Point {
    Point::new(id, coords.iter().map(|&v| coord(v)).collect::<Vec<_>>())
}

/// One scripted operation, encoded as `(weight, coords, index)`:
/// `weight < 3` inserts a point with the grid coords, `weight == 3`
/// re-inserts the live id at `index % live.len()` with the grid coords
/// (an acknowledged no-op), anything else deletes that live id.
type RawOp = (u8, Vec<u8>, usize);

fn arb_script() -> impl Strategy<Value = (u8, usize, Vec<RawOp>)> {
    // engine, k in 1..=5, dim fixed per script, 1..120 ops biased toward churn
    (0u8..3, 1usize..=5, 1usize..=4).prop_flat_map(|(which, k, d)| {
        let op = (0u8..6, proptest::collection::vec(0u8..6, d), 0usize..64);
        (Just(which), Just(k), proptest::collection::vec(op, 1..120))
    })
}

fn oracle_ids(live: &BTreeMap<u64, Point>) -> Vec<u64> {
    let pts: Vec<Point> = live.values().cloned().collect();
    naive_skyline_ids(&pts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn skyband_matches_recompute_after_every_op((which, k, script) in arb_script()) {
        let dim = script[0].1.len();
        let mut engine = Engine::new(which, k, dim);
        let mut live: BTreeMap<u64, Point> = BTreeMap::new();
        let mut next_id = 1u64;
        for (weight, coords, index) in &script {
            if *weight < 3 || live.is_empty() {
                let p = point(next_id, coords);
                next_id += 1;
                prop_assert!(engine.insert(p.clone()), "a fresh id is inserted");
                live.insert(p.id(), p);
            } else {
                let id = *live.keys().nth(index % live.len()).expect("non-empty");
                if *weight == 3 {
                    prop_assert!(!engine.insert(point(id, coords)), "re-insert of live {}", id);
                } else {
                    live.remove(&id);
                    engine.delete(id);
                }
            }
            prop_assert_eq!(
                engine.skyline(),
                oracle_ids(&live),
                "skyline diverged from recompute (engine={}, k={}, live={})",
                which,
                k,
                live.len()
            );
        }
        // the live store itself never drifts, and a re-insert kept the
        // first coordinates
        let want: Vec<Point> = live.into_values().collect();
        prop_assert_eq!(engine.live(), want);
    }

    #[test]
    fn skyband_reinsertion_of_deleted_ids_is_sound(
        which in 0u8..3,
        k in 1usize..=4,
        rounds in proptest::collection::vec(proptest::collection::vec(0u8..6, 2), 2..30)
    ) {
        // Insert/delete/re-insert the SAME id with evolving coordinates:
        // stale entries for a dead generation must never leak into the
        // skyline.
        let mut engine = Engine::new(which, k, 2);
        let mut live: BTreeMap<u64, Point> = BTreeMap::new();
        for (i, coords) in rounds.iter().enumerate() {
            let id = (i as u64 % 3) + 1;
            if live.contains_key(&id) {
                engine.delete(id);
                live.remove(&id);
            }
            let p = point(id, coords);
            prop_assert!(engine.insert(p.clone()));
            live.insert(id, p);
            prop_assert_eq!(engine.skyline(), oracle_ids(&live));
        }
    }
}
