//! Property-based validation of the k-skyband retention buffer: for
//! arbitrary insert/delete interleavings (small integer grids force
//! heavy dominance, duplicates, and ties) the buffer's served skyline
//! must equal a recompute-from-scratch over the surviving live set
//! after *every* operation — across the repair-from-buffer path, the
//! underflow rebuild path, and re-insertions of previously deleted ids.

use proptest::prelude::*;
use skyline_algos::point::Point;
use skyline_algos::seq::naive_skyline_ids;
use skyline_algos::skyband::SkybandBuffer;
use std::collections::BTreeMap;

/// One scripted operation, encoded as `(weight, coords, index)`:
/// `weight < 3` inserts a point with the grid coords, anything else
/// deletes the live id at `index % live.len()` (no-op when empty).
type RawOp = (u8, Vec<u8>, usize);

fn arb_script() -> impl Strategy<Value = (usize, Vec<RawOp>)> {
    // k in 1..=5, dim fixed per script, 1..120 ops biased toward churn
    (1usize..=5, 1usize..=4).prop_flat_map(|(k, d)| {
        let op = (0u8..5, proptest::collection::vec(0u8..5, d), 0usize..64);
        (Just(k), proptest::collection::vec(op, 1..120))
    })
}

fn oracle_ids(live: &BTreeMap<u64, Point>) -> Vec<u64> {
    let pts: Vec<Point> = live.values().cloned().collect();
    naive_skyline_ids(&pts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn skyband_matches_recompute_after_every_op((k, script) in arb_script()) {
        let mut band = SkybandBuffer::new(k);
        let mut live: BTreeMap<u64, Point> = BTreeMap::new();
        let mut next_id = 1u64;
        for (weight, coords, index) in &script {
            if *weight < 3 || live.is_empty() {
                let p = Point::new(
                    next_id,
                    coords.iter().map(|&v| f64::from(v)).collect::<Vec<_>>(),
                );
                next_id += 1;
                band.insert(p.clone()).expect("finite grid coords");
                live.insert(p.id(), p);
            } else {
                let id = *live.keys().nth(index % live.len()).expect("non-empty");
                live.remove(&id);
                band.delete(id);
            }
            let got: Vec<u64> = band.skyline().iter().map(Point::id).collect();
            prop_assert_eq!(
                &got,
                &oracle_ids(&live),
                "skyline diverged from recompute (k={}, live={})",
                k,
                live.len()
            );
        }
        // the live store itself never drifts
        let mut band_live: Vec<u64> = band.live_points().iter().map(Point::id).collect();
        band_live.sort_unstable();
        let want: Vec<u64> = live.keys().copied().collect();
        prop_assert_eq!(band_live, want);
    }

    #[test]
    fn skyband_reinsertion_of_deleted_ids_is_sound(
        k in 1usize..=4,
        rounds in proptest::collection::vec(proptest::collection::vec(0u8..4, 2), 2..30)
    ) {
        // Insert/delete/re-insert the SAME id with evolving coordinates:
        // stale band entries for a dead generation must never leak into
        // the skyline.
        let mut band = SkybandBuffer::new(k);
        let mut live: BTreeMap<u64, Point> = BTreeMap::new();
        for (i, coords) in rounds.iter().enumerate() {
            let id = (i as u64 % 3) + 1;
            if live.contains_key(&id) {
                band.delete(id);
                live.remove(&id);
            }
            let p = Point::new(id, coords.iter().map(|&v| f64::from(v)).collect::<Vec<_>>());
            band.insert(p.clone()).expect("finite");
            live.insert(id, p);
            let got: Vec<u64> = band.skyline().iter().map(Point::id).collect();
            prop_assert_eq!(&got, &oracle_ids(&live));
        }
    }
}
