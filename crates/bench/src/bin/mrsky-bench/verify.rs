//! The oracle: an exact check that a claimed skyline is the skyline of a
//! dataset, fast enough to run on every dataset variant of a run.
//!
//! A claimed set `S` is the skyline of `D` exactly when every member of
//! `S` is a row of `D` with identical coordinate bits, and for every
//! `p ∈ D`, `p ∈ S` holds exactly when no `s ∈ S` dominates `p`. (If some
//! `q ∈ D` dominated a member `p` of `S`, then either `q ∈ S`, or some
//! `s ∈ S` dominates `q` and so `p`; both contradict the second rule.)
//! This needs `|D| × |S|` dominance tests at worst, against `|D|²` for the
//! naive oracle, and the scan is cut further: a dominator's coordinate sum
//! is never larger than its victim's (float addition is monotone), so
//! only the members whose sum is at most `p`'s are scanned, smallest
//! first.

use mini_mapreduce::pool::run_indexed;
use skyline_algos::kernel::dominates_row;
use skyline_algos::point::Point;
use std::collections::HashMap;

/// Inputs below this many rows are checked on one thread.
const PARALLEL_ROWS: usize = 20_000;

/// `Ok` when `claimed` is exactly the skyline of `data` (ids and coordinate
/// bits); otherwise the first discrepancy found. Uses up to `threads`
/// threads on large inputs.
pub fn verify_skyline(data: &[Point], claimed: &[Point], threads: usize) -> Result<(), String> {
    let mut by_id: HashMap<u64, usize> = HashMap::with_capacity(claimed.len());
    for (i, s) in claimed.iter().enumerate() {
        if by_id.insert(s.id(), i).is_some() {
            return Err(format!("skyline lists id {} twice", s.id()));
        }
    }
    let l1 = |c: &[f64]| c.iter().sum::<f64>();
    let mut order: Vec<usize> = (0..claimed.len()).collect();
    order.sort_by(|&a, &b| l1(claimed[a].coords()).total_cmp(&l1(claimed[b].coords())));
    let sums: Vec<f64> = order.iter().map(|&i| l1(claimed[i].coords())).collect();

    let chunk = PARALLEL_ROWS.min(data.len().max(1));
    let chunks = data.len().div_ceil(chunk);
    let threads = if data.len() < PARALLEL_ROWS {
        1
    } else {
        threads
    };
    let results = run_indexed(chunks, threads.max(1), |c| {
        let rows = data.get(c * chunk..((c + 1) * chunk).min(data.len()));
        let mut matched = Vec::new();
        for p in rows.unwrap_or_default() {
            let member = match by_id.get(&p.id()) {
                Some(&i) if bits_equal(claimed[i].coords(), p.coords()) => {
                    matched.push(i);
                    true
                }
                Some(_) => {
                    return Err(format!(
                        "skyline point {} has coordinates that differ from the dataset",
                        p.id()
                    ));
                }
                None => false,
            };
            let bound = sums.partition_point(|&s| s <= l1(p.coords()));
            let dominator = order[..bound]
                .iter()
                .find(|&&i| dominates_row(claimed[i].coords(), p.coords()));
            match (member, dominator) {
                (true, Some(&i)) => {
                    return Err(format!(
                        "skyline point {} is dominated by {}",
                        p.id(),
                        claimed[i].id()
                    ));
                }
                (false, None) => {
                    return Err(format!("point {} is missing from the skyline", p.id()));
                }
                _ => {}
            }
        }
        Ok(matched)
    });
    let mut seen = vec![false; claimed.len()];
    for r in results {
        for i in r? {
            seen[i] = true;
        }
    }
    match seen.iter().position(|&s| !s) {
        Some(i) => Err(format!(
            "skyline point {} is not a row of the dataset",
            claimed[i].id()
        )),
        None => Ok(()),
    }
}

/// Bit-for-bit equality of two coordinate rows (`-0.0` differs from `0.0`).
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bit-for-bit equality of two point lists, in order.
pub fn same_points(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id() == y.id() && bits_equal(x.coords(), y.coords()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_algos::seq::{naive_skyline, naive_skyline_ids};

    fn pts(rows: &[&[f64]]) -> Vec<Point> {
        rows.iter()
            .enumerate()
            .map(|(i, r)| Point::new(i as u64, r.to_vec()))
            .collect()
    }

    /// The verifier accepts the naive oracle's answer and agrees with it on
    /// which ids form the skyline.
    fn agrees(data: &[Point]) {
        let sky = naive_skyline(data);
        assert_eq!(verify_skyline(data, &sky, 2), Ok(()), "{data:?}");
        let mut ids: Vec<u64> = sky.iter().map(Point::id).collect();
        ids.sort_unstable();
        assert_eq!(ids, naive_skyline_ids(data));
    }

    /// `k` mutually incomparable rows on the anti-diagonal plus `k` rows each
    /// dominated by one of them: a skyline of exactly `k` rows.
    fn diagonal(k: usize) -> Vec<Point> {
        let mut rows = Vec::new();
        for i in 0..k {
            rows.push(vec![i as f64, (k - i) as f64]);
        }
        for i in 0..k {
            rows.push(vec![i as f64 + 0.5, (k - i) as f64 + 0.5]);
        }
        rows.iter()
            .enumerate()
            .map(|(i, r)| Point::new(i as u64, r.clone()))
            .collect()
    }

    #[test]
    fn agrees_with_naive_on_adversarial_inputs() {
        agrees(&pts(&[&[1.0, 2.0], &[1.0, 2.0], &[2.0, 1.0], &[3.0, 3.0]])); // duplicates
        agrees(&pts(&[&[1.0, 5.0], &[1.0, 4.0], &[2.0, 4.0], &[0.5, 9.0]])); // ties
        agrees(&pts(&[
            &[0.0, 1.0],
            &[-0.0, 1.0],
            &[-0.0, 0.0],
            &[0.0, -0.0],
        ])); // ±0.0
        agrees(&pts(&[&[7.0, 1.0], &[7.0, 2.0], &[7.0, 0.5], &[7.0, 0.5]])); // constant column
        agrees(&[]);
        agrees(&pts(&[&[3.0, 4.0]]));
        agrees(&pts(&[&[3.0], &[1.0], &[1.0], &[2.0]])); // d = 1
        for k in [63, 64, 65] {
            let data = diagonal(k);
            assert_eq!(naive_skyline_ids(&data).len(), k);
            agrees(&data);
        }
    }

    #[test]
    fn agrees_with_naive_on_random_inputs() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % 8) as f64
        };
        for d in 1..=4 {
            let data: Vec<Point> = (0..300u64)
                .map(|i| Point::new(i, (0..d).map(|_| next()).collect::<Vec<_>>()))
                .collect();
            agrees(&data);
        }
    }

    #[test]
    fn rejects_wrong_skylines() {
        let data = diagonal(64);
        let sky = naive_skyline(&data);

        let dropped = &sky[1..];
        assert!(verify_skyline(&data, dropped, 2).is_err_and(|e| e.contains("missing")));

        let mut added = sky.clone();
        added.push(data[64].clone()); // dominated by row 0
        assert!(verify_skyline(&data, &added, 2).is_err_and(|e| e.contains("dominated")));

        let mut perturbed = sky.clone();
        let mut coords = perturbed[3].coords().to_vec();
        coords[0] = f64::from_bits(coords[0].to_bits() + 1);
        perturbed[3] = Point::new(perturbed[3].id(), coords);
        assert!(verify_skyline(&data, &perturbed, 2).is_err_and(|e| e.contains("differ")));

        let mut foreign = sky;
        foreign.push(Point::new(10_000, vec![-1.0, -1.0]));
        assert!(verify_skyline(&data, &foreign, 2).is_err());
    }

    #[test]
    fn sign_of_zero_counts_as_a_perturbation() {
        let data = pts(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let flipped = vec![Point::new(0, vec![-0.0, 1.0]), data[1].clone()];
        assert!(verify_skyline(&data, &flipped, 1).is_err());
    }
}
