//! Filter-point selection for shuffle-side early pruning.
//!
//! Ciaccia & Martinenghi's parallel-skyline optimisation: pick a handful of
//! *strong* points before the partitioning job, broadcast them to every map
//! task, and drop any row one of them dominates before it is shuffled. A
//! point that is dominated by anything is not in the skyline, so discarding
//! dominated rows map-side is exact — the only question is how much of the
//! shuffle the chosen filter points can absorb.
//!
//! Selection here is deterministic (no sampling): the per-dimension minima
//! are unbeatable on their own axis and fence in the skyline contour, and
//! the smallest-L1 points sit near the origin where dominance regions are
//! widest. Ties break by L1 norm then id, so two runs over the same data
//! always broadcast the same block — a requirement for `mrsky-chaos` replay
//! and checkpoint resume.

use crate::block::PointBlock;
use crate::kernel::dominates_row;
use std::cmp::Ordering;

/// A row's selection key: its L1 norm (`+ 0.0` folds -0.0 into 0.0, so on
/// finite rows `total_cmp` orders exactly as `<` and `==` do), its id,
/// then its row index, so two rows that tie on both keep their row order.
#[derive(Debug, Clone, Copy)]
struct Key {
    l1: f64,
    id: u64,
    row: usize,
}

fn key_cmp(a: &Key, b: &Key) -> Ordering {
    a.l1.total_cmp(&b.l1)
        .then(a.id.cmp(&b.id))
        .then(a.row.cmp(&b.row))
}

/// Makes `(v, key)` a dimension's best row if it comes first by value,
/// then by key.
#[inline]
fn keep_min(best: &mut (f64, Key), v: f64, key: Key) {
    if v < best.0 || (v == best.0 && key_cmp(&key, &best.1).is_lt()) {
        *best = (v, key);
    }
}

/// Filter-point candidates of a range of rows.
///
/// It keeps each dimension's best row, ordered by (value, L1, id, row),
/// and a superset of the `k` smallest (L1, id, row) keys: at `2k` keys it
/// cuts back to the `k` smallest and from then on skips a row whose L1 is
/// above the `k`-th. Ranges are folded with [`merge`](Self::merge), and
/// [`select`](Self::select) reads the filter block off the result. Row
/// indices make both orders total, so how the rows are split into ranges
/// never changes the selection.
#[derive(Debug, Clone)]
pub struct FilterCandidates {
    k: usize,
    /// Per dimension, the best value and its row's key; empty until the
    /// first row.
    minima: Vec<(f64, Key)>,
    /// Fewer than `2k` keys, among them the `k` smallest seen.
    smallest: Vec<Key>,
    /// The L1 of the `k`-th smallest key at the last cut.
    cut: f64,
}

impl FilterCandidates {
    /// An empty accumulator for a selection of `k` filter points.
    pub fn new(k: usize) -> Self {
        FilterCandidates {
            k,
            minima: Vec::new(),
            smallest: Vec::with_capacity(2 * k),
            cut: f64::INFINITY,
        }
    }

    /// Adds row `row` of the block the selection reads, with its id and
    /// coordinates.
    #[inline]
    pub fn push(&mut self, row: usize, id: u64, coords: &[f64]) {
        if self.k == 0 {
            return;
        }
        let key = Key {
            l1: coords.iter().sum::<f64>() + 0.0,
            id,
            row,
        };
        if self.minima.is_empty() {
            self.minima = coords.iter().map(|&v| (v, key)).collect();
        } else {
            for (best, &v) in self.minima.iter_mut().zip(coords) {
                keep_min(best, v, key);
            }
        }
        self.offer(key);
    }

    /// Keeps `key` if it can still be among the `k` smallest.
    #[inline]
    fn offer(&mut self, key: Key) {
        if key.l1 > self.cut {
            return;
        }
        self.smallest.push(key);
        if self.smallest.len() == 2 * self.k {
            let k = self.k;
            self.smallest.select_nth_unstable_by(k - 1, key_cmp);
            self.smallest.truncate(k);
            self.cut = self.smallest[k - 1].l1;
        }
    }

    /// Folds in the candidates of another range of the same block.
    pub fn merge(&mut self, later: FilterCandidates) {
        if self.minima.is_empty() {
            self.minima = later.minima;
        } else {
            for (best, (v, key)) in self.minima.iter_mut().zip(later.minima) {
                keep_min(best, v, key);
            }
        }
        for key in later.smallest {
            self.offer(key);
        }
    }

    /// The filter block: first the per-dimension minima, then the remaining
    /// slots filled with the smallest-(L1, id, row) rows not already
    /// chosen, in ascending-id order. `block` is the block whose row
    /// indices were pushed.
    pub fn select(&self, block: &PointBlock) -> PointBlock {
        let mut out = PointBlock::new(block.dim());
        let k = self.k;
        if k == 0 || self.minima.is_empty() {
            return out;
        }
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for (_, key) in &self.minima {
            if chosen.len() == k {
                break;
            }
            if !chosen.contains(&key.row) {
                chosen.push(key.row);
            }
        }
        if chosen.len() < k {
            // The fillers are the first `k - c` keys that are not among
            // the `c` minima already chosen, so all of them sit in the
            // order's first `k` entries, which `smallest` holds.
            let mut by_l1 = self.smallest.clone();
            by_l1.sort_unstable_by(key_cmp);
            for key in by_l1 {
                if chosen.len() == k {
                    break;
                }
                if !chosen.contains(&key.row) {
                    chosen.push(key.row);
                }
            }
        }
        chosen.sort_by_key(|&i| block.id(i));
        for i in chosen {
            out.push_row_from(block, i);
        }
        out
    }
}

/// Selects up to `k` filter points from `block`: first the per-dimension
/// minima (tie-break: smaller L1 norm, then smaller id), then the remaining
/// slots filled with the smallest-L1 rows not already chosen (same
/// tie-break). Returns a block in ascending-id order, so the selection is a
/// pure function of the data. `k = 0` or an empty input yields an empty
/// block. One [`FilterCandidates`] over every row.
pub fn select_filter_points(block: &PointBlock, k: usize) -> PointBlock {
    let mut candidates = FilterCandidates::new(k);
    for (i, (id, row)) in block.iter().enumerate() {
        candidates.push(i, id, row);
    }
    candidates.select(block)
}

/// `true` iff some filter row strictly dominates `coords` — the map-side
/// drop predicate. Equal rows never dominate, so a broadcast filter point is
/// never dropped by its own copy.
pub fn filtered_out(filter: &PointBlock, coords: &[f64]) -> bool {
    filter.iter().any(|(_, f)| dominates_row(f, coords))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn block(rows: &[(u64, &[f64])]) -> PointBlock {
        let pts: Vec<Point> = rows
            .iter()
            .map(|(id, c)| Point::new(*id, c.to_vec()))
            .collect();
        PointBlock::from_points(&pts).unwrap()
    }

    #[test]
    fn per_dimension_minima_always_selected() {
        let b = block(&[
            (0, &[0.1, 9.0]),
            (1, &[9.0, 0.1]),
            (2, &[5.0, 5.0]),
            (3, &[8.0, 8.0]),
        ]);
        let f = select_filter_points(&b, 2);
        assert_eq!(f.ids(), &[0, 1], "both axis minima chosen first");
    }

    #[test]
    fn fillers_are_smallest_l1() {
        let b = block(&[
            (0, &[0.1, 9.0]),
            (1, &[9.0, 0.1]),
            (2, &[1.0, 1.0]), // L1 = 2, the strongest filler
            (3, &[8.0, 8.0]),
        ]);
        let f = select_filter_points(&b, 3);
        assert_eq!(f.ids(), &[0, 1, 2]);
    }

    #[test]
    fn zero_k_and_empty_input_yield_empty_block() {
        let b = block(&[(0, &[1.0, 2.0])]);
        assert!(select_filter_points(&b, 0).is_empty());
        assert!(select_filter_points(&PointBlock::new(2), 4).is_empty());
    }

    #[test]
    fn k_larger_than_input_returns_everything() {
        let b = block(&[(7, &[1.0, 2.0]), (3, &[2.0, 1.0])]);
        let f = select_filter_points(&b, 10);
        assert_eq!(f.ids(), &[3, 7], "ascending id order");
    }

    #[test]
    fn selection_is_deterministic_under_ties() {
        // identical coordinates: the smaller id must win every time
        let b = block(&[(5, &[1.0, 1.0]), (2, &[1.0, 1.0]), (9, &[1.0, 1.0])]);
        for _ in 0..3 {
            let f = select_filter_points(&b, 1);
            assert_eq!(f.ids(), &[2]);
        }
    }

    /// The serial selection the accumulator replaced: `d + 1` passes over
    /// the block, then a selection of the first `k` (L1, id, row) keys.
    fn serial_reference(block: &PointBlock, k: usize) -> PointBlock {
        let mut out = PointBlock::new(block.dim());
        if k == 0 || block.is_empty() {
            return out;
        }
        let n = block.len();
        let l1: Vec<f64> = (0..n).map(|i| block.l1_norm(i) + 0.0).collect();
        let key = |i: usize| (l1[i], block.id(i));
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for dim in 0..block.dim() {
            if chosen.len() == k {
                break;
            }
            let mut best = 0usize;
            for i in 1..n {
                let (vb, vi) = (block.row(best)[dim], block.row(i)[dim]);
                if vi < vb || (vi == vb && key(i) < key(best)) {
                    best = i;
                }
            }
            if !chosen.contains(&best) {
                chosen.push(best);
            }
        }
        if chosen.len() < k {
            let order = |a: &usize, b: &usize| {
                l1[*a]
                    .total_cmp(&l1[*b])
                    .then(block.id(*a).cmp(&block.id(*b)))
                    .then(a.cmp(b))
            };
            let mut by_l1: Vec<usize> = (0..n).collect();
            if k < n {
                by_l1.select_nth_unstable_by(k - 1, order);
                by_l1.truncate(k);
            }
            by_l1.sort_unstable_by(order);
            for i in by_l1 {
                if chosen.len() == k {
                    break;
                }
                if !chosen.contains(&i) {
                    chosen.push(i);
                }
            }
        }
        chosen.sort_by_key(|&i| block.id(i));
        for i in chosen {
            out.push_row_from(block, i);
        }
        out
    }

    /// The accumulator run over ranges of `range` rows, folded in order.
    fn folded(block: &PointBlock, k: usize, range: usize) -> PointBlock {
        let mut all = FilterCandidates::new(k);
        for start in (0..block.len()).step_by(range) {
            let mut part = FilterCandidates::new(k);
            for i in start..(start + range).min(block.len()) {
                part.push(i, block.id(i), block.row(i));
            }
            all.merge(part);
        }
        all.select(block)
    }

    /// The selection as first written: a stable sort of every row by
    /// (L1, id), recomputing both norms in the comparator.
    fn full_sort_reference(block: &PointBlock, k: usize) -> PointBlock {
        let mut out = PointBlock::new(block.dim());
        if k == 0 || block.is_empty() {
            return out;
        }
        let key = |i: usize| (block.l1_norm(i), block.id(i));
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for dim in 0..block.dim() {
            if chosen.len() == k {
                break;
            }
            let mut best = 0usize;
            for i in 1..block.len() {
                let (vb, vi) = (block.row(best)[dim], block.row(i)[dim]);
                if vi < vb || (vi == vb && key(i) < key(best)) {
                    best = i;
                }
            }
            if !chosen.contains(&best) {
                chosen.push(best);
            }
        }
        let mut by_l1: Vec<usize> = (0..block.len()).collect();
        by_l1.sort_by(|&a, &b| {
            key(a)
                .partial_cmp(&key(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for i in by_l1 {
            if chosen.len() == k {
                break;
            }
            if !chosen.contains(&i) {
                chosen.push(i);
            }
        }
        chosen.sort_by_key(|&i| block.id(i));
        for i in chosen {
            out.push_row_from(block, i);
        }
        out
    }

    #[test]
    fn selection_matches_the_full_sort_on_adversarial_blocks() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut blocks: Vec<PointBlock> = Vec::new();
        for d in [1usize, 2, 3, 6] {
            // permutations of one coordinate vector: every L1 norm ties
            let base: Vec<f64> = (0..d).map(|i| i as f64 * 0.5).collect();
            let mut b = PointBlock::new(d);
            for _ in 0..60 {
                let mut row = base.clone();
                for i in (1..d).rev() {
                    row.swap(i, rng.gen_range(0..=i));
                }
                b.push(rng.gen_range(0..20), &row).unwrap();
            }
            blocks.push(b);
            // repeated ids, ±0.0, a constant column, a handful of values
            let mut b = PointBlock::new(d);
            for id in 0..80u64 {
                let row: Vec<f64> = (0..d)
                    .map(|i| match (i, rng.gen_range(0..4)) {
                        (0, _) => 7.0,
                        (_, 0) => -0.0,
                        (_, 1) => 0.0,
                        (_, v) => f64::from(v),
                    })
                    .collect();
                b.push(id % 9, &row).unwrap();
            }
            blocks.push(b);
            // distinct random rows
            let mut b = PointBlock::new(d);
            for id in 0..200u64 {
                let row: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
                b.push(id, &row).unwrap();
            }
            blocks.push(b);
            // duplicate rows under one id and under several, and rows
            // whose L1 norms tie with distinct ids
            let mut b = PointBlock::new(d);
            for id in 0..90u64 {
                let row: Vec<f64> = match id % 3 {
                    0 => vec![0.5; d],
                    1 => (0..d)
                        .map(|i| f64::from((id as u32 + i as u32) % 4))
                        .collect(),
                    _ => (0..d).map(|_| f64::from(rng.gen_range(0..3u8))).collect(),
                };
                b.push(if id % 2 == 0 { 4 } else { id }, &row).unwrap();
            }
            blocks.push(b);
        }
        // more rows than one 16,384-row range, on a handful of values
        let mut b = PointBlock::new(3);
        for id in 0..2 * 16_384 + 77u64 {
            let row: Vec<f64> = (0..3).map(|_| f64::from(rng.gen_range(1..6u8))).collect();
            b.push(id % 1000, &row).unwrap();
        }
        blocks.push(b);
        for b in &blocks {
            let (n, d) = (b.len(), b.dim());
            // `chosen.contains` makes a `k` near `n` quadratic: the large
            // block takes the pipeline's sizes only
            let ks = if n > 1000 {
                vec![0, 1, d, 8 * d]
            } else {
                vec![0, 1, d, 8 * d, n - 1, n, n + 5]
            };
            for k in ks {
                // whole rows, not just ids: ids repeat, so only the
                // coordinates show which of two tied rows was taken
                let want = full_sort_reference(b, k);
                assert_eq!(serial_reference(b, k), want, "n={n} d={d} k={k}");
                assert_eq!(select_filter_points(b, k), want, "n={n} d={d} k={k}");
                for range in [1, 2, 63, 64, 16_384, n] {
                    assert_eq!(folded(b, k, range), want, "n={n} d={d} k={k} range={range}");
                }
            }
        }
    }

    #[test]
    fn filter_never_drops_a_skyline_point() {
        let mut rng = StdRng::seed_from_u64(41);
        let pts: Vec<Point> = (0..500)
            .map(|i| {
                Point::new(
                    i,
                    (0..3).map(|_| rng.gen_range(0.0..1.0)).collect::<Vec<_>>(),
                )
            })
            .collect();
        let b = PointBlock::from_points(&pts).unwrap();
        let f = select_filter_points(&b, 8);
        let sky = crate::seq::naive_skyline_ids(&pts);
        for (id, coords) in b.iter() {
            if filtered_out(&f, coords) {
                assert!(!sky.contains(&id), "skyline point {id} was filtered");
            }
        }
        // and the filter points themselves survive the sweep
        for (id, coords) in f.iter() {
            assert!(!filtered_out(&f, coords), "filter point {id} self-dropped");
        }
    }

    #[test]
    fn anti_correlated_data_filters_a_large_fraction() {
        // Anti-correlated band around x + y = 1: minima + small-L1 points
        // dominate most of the band's interior.
        let mut rng = StdRng::seed_from_u64(42);
        let pts: Vec<Point> = (0..2000)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..1.0);
                let noise: f64 = rng.gen_range(0.0..0.3);
                Point::new(i, vec![x, (1.0 - x) + noise])
            })
            .collect();
        let b = PointBlock::from_points(&pts).unwrap();
        let f = select_filter_points(&b, 8);
        let dropped = b.iter().filter(|(_, c)| filtered_out(&f, c)).count();
        assert!(
            dropped * 3 >= b.len(),
            "expected at least a third dropped, got {dropped}/{}",
            b.len()
        );
    }
}
