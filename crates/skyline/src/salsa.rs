//! SaLSa — Sort and Limit Skyline algorithm (Bartolini, Ciaccia, Patella,
//! CIKM 2006), on the columnar [`PointBlock`] layout.
//!
//! Like SFS, SaLSa presorts by a monotone score and filters in a single
//! pass. Its key addition is an **early-stop watermark**: sorting by the
//! *minimum coordinate* lets the scan prove, part-way through, that every
//! remaining candidate is dominated — and terminate without looking at
//! them.
//!
//! The sort key is `(minC, L1)`, then the coordinates in numeric
//! lexicographic order, then `id` ([`presort_order`]):
//!
//! * `minC` alone is only *weakly* monotone — if `p` dominates `q` then
//!   `min(p) <= min(q)`, with equality possible — and a weakly monotone key
//!   would let a dominator sort *after* its victim inside a tie group,
//!   breaking the single-pass argument.
//! * The L1 norm places most dominators first inside a `minC` tie group,
//!   but it is weakly monotone too once f64 rounding is counted:
//!   `l1((1e16, 1e16)) == l1((1e16, 1e16 + 2))`.
//! * The coordinate tiebreak settles the rest: inside a `(minC, L1)` tie,
//!   the first coordinate where a dominator differs from its victim is
//!   strictly smaller, so a dominator always sorts strictly earlier.
//! * `id` makes the order (and hence the emission order) deterministic
//!   among rows equal on every coordinate.
//!
//! **Stop condition.** While scanning, track the accepted point `p_stop`
//! with the smallest maximum coordinate seen so far. If the current
//! candidate `c` has `min(c) > max(p_stop)`, then every coordinate of `c`
//! is `>= min(c) > max(p_stop) >=` every coordinate of `p_stop`, so
//! `p_stop` *strictly* dominates `c` — and because candidates arrive in
//! ascending `minC` order, the same holds for every remaining candidate.
//! The scan stops; the skipped tail is counted in
//! [`KernelStats::skipped`]. The comparison is strict (`>`, not `>=`) so
//! that duplicates of `p_stop` itself — which tie on every coordinate and
//! are *not* dominated — are never skipped.
//!
//! On correlated inputs a point with a small maximum coordinate appears
//! almost immediately and the watermark prunes nearly the whole block; on
//! anti-correlated inputs the watermark rarely fires and SaLSa degrades to
//! an SFS with a slightly weaker sort key.

use crate::block::PointBlock;
use crate::kernel::{dominates_row, num_cmp, presort_order, KernelStats};

/// Computes the skyline of `block` with the SaLSa kernel.
pub fn block_salsa(block: &PointBlock) -> PointBlock {
    block_salsa_stats(block).0
}

/// Like [`block_salsa`] but also returns execution statistics.
pub fn block_salsa_stats(block: &PointBlock) -> (PointBlock, KernelStats) {
    let d = block.dim();
    let n = block.len();
    let mut stats = KernelStats {
        input_len: n as u64,
        ..KernelStats::default()
    };
    let mut skyline = PointBlock::with_capacity(d, 0);
    if n == 0 {
        return (skyline, stats);
    }
    stats.passes = 1;

    let min_keys: Vec<f64> = (0..n).map(|i| block.min_coord(i)).collect();
    let l1_keys: Vec<f64> = (0..n).map(|i| block.l1_norm(i)).collect();
    let order = presort_order(block, |a, b| {
        num_cmp(min_keys[a], min_keys[b]).then_with(|| num_cmp(l1_keys[a], l1_keys[b]))
    });

    // `minC` of each accepted row (ascending, parallel to `skyline`): the
    // inner scan stops at the first accepted row whose minC exceeds the
    // candidate's, because a dominator sorts strictly earlier in the
    // presort order and rows past that bound have strictly larger minC.
    let mut accepted_min: Vec<f64> = Vec::new();
    // The global watermark: smallest max-coordinate over accepted rows.
    let mut stop_max = f64::INFINITY;

    for (rank, &i) in order.iter().enumerate() {
        let cand = block.row(i);
        let cand_min = min_keys[i];
        if cand_min > stop_max {
            stats.skipped = (n - rank) as u64;
            break;
        }
        let mut dominated = false;
        for (srow, &smin) in skyline.coords().chunks_exact(d).zip(&accepted_min) {
            if smin > cand_min {
                break;
            }
            stats.comparisons += 1;
            stats.dim_weighted += d as u64;
            if dominates_row(srow, cand) {
                dominated = true;
                break;
            }
        }
        if !dominated {
            skyline.push_trusted(block.id(i), cand);
            accepted_min.push(cand_min);
            stop_max = stop_max.min(block.max_coord(i));
        }
    }

    crate::invariants::check_skyline_block("block-salsa", block, &skyline);
    stats.output_len = skyline.len() as u64;
    crate::kernel::record_kernel_metrics("salsa", &stats);
    (skyline, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::naive_skyline_ids;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_block(n: usize, d: usize, seed: u64, grid: u32) -> PointBlock {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = PointBlock::with_capacity(d, n);
        for i in 0..n {
            let row: Vec<f64> = (0..d).map(|_| f64::from(rng.gen_range(0..grid))).collect();
            b.push(i as u64, &row).unwrap();
        }
        b
    }

    fn sorted_ids(block: &PointBlock) -> Vec<u64> {
        let mut out = block.ids().to_vec();
        out.sort_unstable();
        out
    }

    #[test]
    fn matches_oracle_on_random_grids() {
        for seed in 0..15 {
            let block = random_block(180, 4, seed, 6);
            let (sky, stats) = block_salsa_stats(&block);
            assert_eq!(
                sorted_ids(&sky),
                naive_skyline_ids(&block.to_points()),
                "seed {seed}"
            );
            assert_eq!(stats.passes, 1);
            assert_eq!(stats.overflowed, 0);
            assert_eq!(stats.output_len, sky.len() as u64);
        }
    }

    #[test]
    fn early_stop_fires_on_correlated_diagonal() {
        // Strongly correlated: point i is (i, i, i). The origin-most point
        // has max-coordinate 0, so the watermark stops the scan after the
        // first few rows and everything else is skipped unexamined.
        let mut b = PointBlock::new(3);
        for i in 0..1000u64 {
            let v = i as f64;
            b.push(i, &[v, v, v]).unwrap();
        }
        let (sky, stats) = block_salsa_stats(&b);
        assert_eq!(sorted_ids(&sky), vec![0]);
        assert!(stats.skipped >= 990, "skipped only {}", stats.skipped);
    }

    #[test]
    fn duplicates_of_the_stop_point_survive() {
        // Both copies of the all-zero point tie on every coordinate; the
        // strict `>` in the stop test must keep the second copy.
        let mut b = PointBlock::new(2);
        b.push(0, &[0.0, 0.0]).unwrap();
        b.push(1, &[0.0, 0.0]).unwrap();
        b.push(2, &[1.0, 1.0]).unwrap();
        let (sky, stats) = block_salsa_stats(&b);
        assert_eq!(sorted_ids(&sky), vec![0, 1]);
        assert_eq!(stats.skipped, 1, "the dominated tail is skipped");
    }

    #[test]
    fn constant_vectors_all_survive() {
        // Every point equal: nothing dominates anything; no skipping.
        let mut b = PointBlock::new(2);
        for i in 0..8u64 {
            b.push(i, &[2.0, 2.0]).unwrap();
        }
        let (sky, stats) = block_salsa_stats(&b);
        assert_eq!(sky.len(), 8);
        assert_eq!(stats.skipped, 0);
    }

    #[test]
    fn min_coord_tie_groups_are_ordered_by_l1() {
        // p=(0,1) dominates q=(0,2); both have minC=0, so the L1 tie-break
        // must put p first or q would be wrongly accepted.
        let mut b = PointBlock::new(2);
        b.push(7, &[0.0, 2.0]).unwrap();
        b.push(8, &[0.0, 1.0]).unwrap();
        let sky = block_salsa(&b);
        assert_eq!(sorted_ids(&sky), vec![8]);
    }

    #[test]
    fn anti_correlated_diagonal_keeps_everything() {
        let mut b = PointBlock::new(2);
        for i in 0..64u64 {
            b.push(i, &[i as f64, 63.0 - i as f64]).unwrap();
        }
        let (sky, stats) = block_salsa_stats(&b);
        assert_eq!(sky.len(), 64);
        assert_eq!(stats.skipped, 0);
    }

    #[test]
    fn empty_input() {
        let (sky, stats) = block_salsa_stats(&PointBlock::new(3));
        assert!(sky.is_empty());
        assert_eq!(stats.passes, 0);
    }
}
