//! Block-based dominance kernels over [`PointBlock`] batches.
//!
//! These are the hot loops of the suite, written against the columnar
//! layout so the compiler sees contiguous `f64` rows with a known stride:
//!
//! * [`dominates_row`] / [`compare_rows`] — branchless row comparisons. The
//!   AoS [`crate::dominance`] versions early-exit, which is right for one
//!   comparison but defeats vectorization; the branchless forms trade a few
//!   redundant flops for straight-line SIMD-friendly code.
//! * [`block_bnl`] — Block-Nested-Loops (Börzsönyi et al., ICDE 2001), the
//!   kernel the paper runs for both the local skylines and the global merge,
//!   with a bounded self-organising window in one flat buffer and
//!   multi-pass overflow handling.
//! * [`block_sfs`] — columnar Sort-Filter-Skyline: entropy-score presort,
//!   one stop-aware filtering pass, no evictions. The local-kernel sibling
//!   of the merge below (see also [`crate::salsa`] and [`crate::select`]).
//! * [`presort_merge`] — the SFS-style merge: candidates are presorted by
//!   L1 norm (a monotone score: if `p` dominates `q` then
//!   `l1(p) < l1(q)`), after which a *single* filtering pass suffices —
//!   an accepted point can never be evicted by a later candidate, so the
//!   merge does no window bookkeeping at all.
//! * [`dominated_count`] — the bulk dominance sweep used by benchmarks and
//!   pruning heuristics: how many candidate rows are dominated by at least
//!   one window row. Runtime-dispatches to an AVX-512 mask-register lane
//!   kernel over a column-major window transpose where the host supports
//!   it, falling back to the portable row-wise scan otherwise.

use crate::block::PointBlock;
use crate::dominance::DomRelation;

/// Configuration for a [`block_bnl`] run.
#[derive(Debug, Clone, Default)]
pub struct BnlConfig {
    /// Maximum number of points held in the in-memory window; `None` means
    /// unbounded (single pass, no overflow). The paper's Hadoop setting
    /// bounds worker memory at 1 GB, which we model with a finite window.
    pub window_size: Option<usize>,
}

impl BnlConfig {
    /// Unbounded window.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Window bounded to `n` points (multi-pass BNL).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`: a zero-size window cannot make progress.
    pub fn with_window(n: usize) -> Self {
        assert!(n > 0, "BNL window must hold at least one point");
        Self {
            window_size: Some(n),
        }
    }
}

/// Execution statistics of a block kernel run, the fields the cluster cost
/// model consumes. Fields are public so callers can fold them into their
/// own accounting without an intermediate counter object.
#[derive(Debug, Default, Clone)]
pub struct KernelStats {
    /// Pairwise dominance comparisons performed.
    pub comparisons: u64,
    /// Comparisons weighted by dimensionality (`Σ d`), the quantity the
    /// cost model converts to CPU seconds.
    pub dim_weighted: u64,
    /// Passes over (remaining) input — always 1 for the presorting merge.
    pub passes: u32,
    /// Points spilled to the overflow buffer across all passes.
    pub overflowed: u64,
    /// Rows discarded without a single comparison by a sort-order bound
    /// (the SaLSa early-stop watermark); zero for kernels without one.
    pub skipped: u64,
    /// Input cardinality.
    pub input_len: u64,
    /// Output (skyline) cardinality.
    pub output_len: u64,
}

impl KernelStats {
    /// Folds another stats record into this one (chunk → run aggregation).
    pub fn merge(&mut self, other: &KernelStats) {
        self.comparisons += other.comparisons;
        self.dim_weighted += other.dim_weighted;
        self.passes = self.passes.max(other.passes);
        self.overflowed += other.overflowed;
        self.skipped += other.skipped;
        self.input_len += other.input_len;
        self.output_len += other.output_len;
    }
}

/// Records a kernel run into the process-global metrics registry under the
/// `skyline.<name>.*` namespace. One relaxed-atomic branch when metrics are
/// disabled (the default), so the hot kernels can call it unconditionally.
pub(crate) fn record_kernel_metrics(name: &str, stats: &KernelStats) {
    let m = mrsky_trace::metrics();
    if !m.is_enabled() {
        return;
    }
    m.incr(&format!("skyline.{name}.calls"), 1);
    m.incr(&format!("skyline.{name}.comparisons"), stats.comparisons);
    m.incr(&format!("skyline.{name}.passes"), u64::from(stats.passes));
    m.incr(&format!("skyline.{name}.overflowed"), stats.overflowed);
    m.incr(&format!("skyline.{name}.skipped"), stats.skipped);
    m.observe(
        &format!("skyline.{name}.comparisons_per_call"),
        stats.comparisons,
    );
    m.observe(&format!("skyline.{name}.output_len"), stats.output_len);
}

/// Returns `true` iff row `a` dominates row `b`: `a ≤ b` on all dimensions
/// and `a < b` on at least one.
///
/// Branchless on purpose: both flags are accumulated over the full row with
/// no early exit, so the loop auto-vectorizes over contiguous rows of a
/// [`PointBlock`].
#[inline]
pub fn dominates_row(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "dominance requires equal width rows");
    let mut all_le = true;
    let mut any_lt = false;
    for (&x, &y) in a.iter().zip(b) {
        all_le &= x <= y;
        any_lt |= x < y;
    }
    all_le && any_lt
}

/// Branchless classification of a row pair under the dominance order;
/// agrees with [`crate::dominance::compare`] on validated (finite) rows.
#[inline]
pub fn compare_rows(a: &[f64], b: &[f64]) -> DomRelation {
    debug_assert_eq!(a.len(), b.len(), "dominance requires equal width rows");
    let mut a_better = false;
    let mut b_better = false;
    for (&x, &y) in a.iter().zip(b) {
        a_better |= x < y;
        b_better |= x > y;
    }
    match (a_better, b_better) {
        (true, false) => DomRelation::LeftDominates,
        (false, true) => DomRelation::RightDominates,
        (false, false) => DomRelation::Equal,
        (true, true) => DomRelation::Incomparable,
    }
}

/// Counts the candidate rows dominated by at least one window row.
///
/// Dispatches at runtime: on x86-64 with AVX-512 the sweep runs a
/// mask-register lane kernel (window transposed to column-major, 64 window
/// rows compared per dimension as one vector op — see [`lane_sweep`]);
/// everywhere else it falls back to the row-wise scan, whose per-row early
/// exit is the better trade-off when the compiler only has 2-wide SSE2.
///
/// # Panics
///
/// Panics if the blocks disagree on dimensionality.
pub fn dominated_count(candidates: &PointBlock, window: &PointBlock) -> usize {
    assert_eq!(
        candidates.dim(),
        window.dim(),
        "block dimensionality mismatch"
    );
    if window.is_empty() || candidates.is_empty() {
        return 0;
    }
    #[cfg(target_arch = "x86_64")]
    if let Some(count) = simd::try_lane_sweep(candidates, window) {
        mrsky_trace::metrics().incr("skyline.sweep.dispatch.lane", 1);
        return count;
    }
    mrsky_trace::metrics().incr("skyline.sweep.dispatch.scalar", 1);
    scalar_sweep(candidates, window)
}

/// Portable dominance sweep: per candidate, scan window rows with the
/// branchless [`dominates_row`] and early-exit on the first witness.
fn scalar_sweep(candidates: &PointBlock, window: &PointBlock) -> usize {
    let d = candidates.dim();
    let wrows = window.coords();
    let mut count = 0usize;
    for cand in candidates.coords().chunks_exact(d) {
        let mut dominated = false;
        for wrow in wrows.chunks_exact(d) {
            if dominates_row(wrow, cand) {
                dominated = true;
                break;
            }
        }
        count += usize::from(dominated);
    }
    count
}

/// Lane-parallel dominance sweep: the window is transposed once into
/// column-major order and padded to a multiple of 64 rows with `+inf`
/// (infinity is never `<=` a finite coordinate, so pad rows cannot witness
/// dominance). For each candidate, each dimension then compares 64
/// contiguous window values against one broadcast coordinate, accumulating
/// `all_le`/`any_lt` as `u64` bitmasks — on AVX-512 each 64-row block is a
/// handful of vector compares straight into mask registers. The candidate
/// loop still early-exits, at 64-row-block granularity.
///
/// Only profitable when the surrounding function is compiled with wide
/// vector ISAs, hence `#[inline(always)]`: the body must inline into the
/// `#[target_feature]` wrapper below to be codegenned with AVX-512 enabled.
#[inline(always)]
fn lane_sweep(candidates: &PointBlock, window: &PointBlock) -> usize {
    const LANES: usize = 64;
    let d = candidates.dim();
    let wlen = window.len();
    let padded = wlen.div_ceil(LANES) * LANES;
    let mut cols = vec![f64::INFINITY; padded * d];
    for (j, row) in window.coords().chunks_exact(d).enumerate() {
        for (k, &v) in row.iter().enumerate() {
            cols[k * padded + j] = v;
        }
    }
    let mut count = 0usize;
    for cand in candidates.coords().chunks_exact(d) {
        let mut dominated = false;
        let mut j0 = 0;
        while j0 < padded {
            let mut le_mask = !0u64;
            let mut lt_mask = 0u64;
            for (k, &ck) in cand.iter().enumerate() {
                let col = &cols[k * padded + j0..k * padded + j0 + LANES];
                let mut le = 0u64;
                let mut lt = 0u64;
                for (j, &w) in col.iter().enumerate() {
                    le |= u64::from(w <= ck) << j;
                    lt |= u64::from(w < ck) << j;
                }
                le_mask &= le;
                lt_mask |= lt;
            }
            if le_mask & lt_mask != 0 {
                dominated = true;
                break;
            }
            j0 += LANES;
        }
        count += usize::from(dominated);
    }
    count
}

/// Runtime-dispatched SIMD entry points. The workspace denies `unsafe`
/// by default; this module is the one sanctioned exception, and every
/// `unsafe` block here is a `#[target_feature]` call guarded by the
/// matching `is_x86_feature_detected!` check.
#[cfg(target_arch = "x86_64")]
mod simd {
    #![allow(unsafe_code)]

    use super::PointBlock;

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn lane_sweep_avx512(candidates: &PointBlock, window: &PointBlock) -> usize {
        super::lane_sweep(candidates, window)
    }

    /// Runs the lane sweep with AVX-512 codegen when the host supports it;
    /// `None` tells the caller to take the portable path.
    pub(super) fn try_lane_sweep(candidates: &PointBlock, window: &PointBlock) -> Option<usize> {
        let supported = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl");
        if !supported {
            return None;
        }
        // SAFETY: every feature named in `lane_sweep_avx512`'s
        // `#[target_feature]` list was just verified at runtime.
        Some(unsafe { lane_sweep_avx512(candidates, window) })
    }
}

/// Self-organising BNL window in one flat buffer: coordinates, ids and
/// entry timestamps are parallel arrays, so a window scan walks one
/// contiguous `f64` run instead of chasing per-point boxes.
struct FlatWindow {
    dim: usize,
    coords: Vec<f64>,
    ids: Vec<u64>,
    entered: Vec<u64>,
}

impl FlatWindow {
    fn new(dim: usize) -> Self {
        Self {
            dim,
            coords: Vec::new(),
            ids: Vec::new(),
            entered: Vec::new(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    #[inline]
    fn push(&mut self, id: u64, row: &[f64], ts: u64) {
        self.coords.extend_from_slice(row);
        self.ids.push(id);
        self.entered.push(ts);
    }

    /// Swaps rows `i` and `j` (the move-to-front self-organisation).
    fn swap(&mut self, i: usize, j: usize) {
        for k in 0..self.dim {
            self.coords.swap(i * self.dim + k, j * self.dim + k);
        }
        self.ids.swap(i, j);
        self.entered.swap(i, j);
    }

    /// Removes row `i` by moving the last row into its place (order is not
    /// preserved, exactly like `Vec::swap_remove`).
    fn swap_remove(&mut self, i: usize) {
        let last = self.len() - 1;
        if i != last {
            let (head, tail) = self.coords.split_at_mut(last * self.dim);
            head[i * self.dim..(i + 1) * self.dim].copy_from_slice(&tail[..self.dim]);
        }
        self.coords.truncate(last * self.dim);
        self.ids.swap_remove(i);
        self.entered.swap_remove(i);
    }
}

/// Computes the skyline of `block` with the blocked BNL kernel.
///
/// BNL streams the input once per *pass*, keeping a **window** of
/// incomparable candidate rows:
///
/// * an incoming row dominated by any window row is discarded;
/// * window rows dominated by the incoming row are evicted;
/// * otherwise the row joins the window, or — if the window is full — is
///   written to an *overflow* buffer to be processed in the next pass.
///
/// With a bounded window, a window row can only be emitted as a confirmed
/// skyline point once it has been compared against **every** overflowed
/// row. The classic timestamp argument: a row entering the window at
/// (global) time `t_w` has been compared with every row read after `t_w`,
/// so at the end of a pass it can be emitted iff `t_w` precedes the time the
/// first row of that pass overflowed. All later window entries are retained
/// for the next pass.
///
/// The window is self-organising: whenever a window row kills an incoming
/// row it is moved to the front, so aggressive dominators are met early.
/// Rows with equal coordinates never dominate each other, so duplicates
/// are all retained.
///
/// # Examples
///
/// ```
/// use skyline_algos::kernel::{block_bnl, BnlConfig};
/// use skyline_algos::point::Point;
/// use skyline_algos::PointBlock;
///
/// let services = PointBlock::from_points(&[
///     Point::new(0, vec![100.0, 5.0]), // fast but pricey
///     Point::new(1, vec![900.0, 1.0]), // slow but cheap
///     Point::new(2, vec![950.0, 6.0]), // slow AND pricey: dominated
/// ])
/// .unwrap();
/// let sky = block_bnl(&services, &BnlConfig::default());
/// assert_eq!(sky.ids(), &[0, 1]);
/// ```
pub fn block_bnl(block: &PointBlock, cfg: &BnlConfig) -> PointBlock {
    block_bnl_stats(block, cfg).0
}

/// Like [`block_bnl`] but also returns execution statistics.
pub fn block_bnl_stats(block: &PointBlock, cfg: &BnlConfig) -> (PointBlock, KernelStats) {
    let d = block.dim();
    let mut stats = KernelStats {
        input_len: block.len() as u64,
        ..KernelStats::default()
    };
    let mut skyline = PointBlock::with_capacity(d, 0);
    if block.is_empty() {
        return (skyline, stats);
    }

    let window_cap = cfg.window_size.unwrap_or(usize::MAX);
    let mut window = FlatWindow::new(d);
    let mut input = block.clone();
    let mut clock = block.len() as u64;

    while !input.is_empty() {
        stats.passes += 1;
        let mut overflow = PointBlock::with_capacity(d, 0);
        // Timestamp of the first point overflowed in this pass; window rows
        // that entered before it have met every remaining candidate.
        let mut first_overflow_ts: Option<u64> = None;

        for idx in 0..input.len() {
            let ts = clock;
            clock += 1;
            let mut dominated = false;
            let mut i = 0;
            while i < window.len() {
                stats.comparisons += 1;
                stats.dim_weighted += d as u64;
                match compare_rows(window.row(i), input.row(idx)) {
                    DomRelation::LeftDominates => {
                        dominated = true;
                        // move to front; a no-op when `i == 0`
                        window.swap(0, i);
                        break;
                    }
                    DomRelation::RightDominates => {
                        window.swap_remove(i);
                        // re-examine the row swapped into position i
                    }
                    // Distinct points with equal rows are mutually
                    // non-dominating: both stay.
                    DomRelation::Equal | DomRelation::Incomparable => {
                        i += 1;
                    }
                }
            }
            if dominated {
                continue;
            }
            if window.len() < window_cap {
                window.push(input.id(idx), input.row(idx), ts);
            } else {
                if first_overflow_ts.is_none() {
                    first_overflow_ts = Some(ts);
                }
                stats.overflowed += 1;
                overflow.push_row_from(&input, idx);
            }
        }

        // Emit confirmed window rows; retain the rest for the next pass.
        match first_overflow_ts {
            None => {
                for i in 0..window.len() {
                    skyline.push_trusted(window.ids[i], window.row(i));
                }
                window = FlatWindow::new(d);
            }
            Some(cut) => {
                let mut retained = FlatWindow::new(d);
                for i in 0..window.len() {
                    if window.entered[i] < cut {
                        skyline.push_trusted(window.ids[i], window.row(i));
                    } else {
                        retained.push(window.ids[i], window.row(i), window.entered[i]);
                    }
                }
                window = retained;
            }
        }
        input = overflow;
    }
    for i in 0..window.len() {
        skyline.push_trusted(window.ids[i], window.row(i));
    }

    crate::invariants::check_skyline_block("block-bnl", block, &skyline);
    stats.output_len = skyline.len() as u64;
    record_kernel_metrics("bnl", &stats);
    (skyline, stats)
}

/// Computes the skyline of `block` with the presorting merge kernel.
pub fn presort_merge(block: &PointBlock) -> PointBlock {
    presort_merge_stats(block).0
}

/// SFS-style merge: sorts candidates by ascending L1 norm (ties broken by
/// id for determinism), then filters in one pass.
///
/// Why a single pass is enough: the L1 norm is strictly monotone under
/// dominance — if `p` dominates `q` then `p ≤ q` everywhere and `p < q`
/// somewhere, so `l1(p) < l1(q)`. After the ascending sort a candidate can
/// only be dominated by an *earlier* row, so a survivor is final the moment
/// it is accepted and equal-norm rows (including exact duplicates, which
/// never dominate each other) all survive. This is the kernel the reduce-
/// side merge and `parallel::merge_locals` use: merge inputs are unions of
/// local skylines, mostly undominated, so the `O(n log n)` sort buys a
/// filtering pass that does near-zero evictions.
pub fn presort_merge_stats(block: &PointBlock) -> (PointBlock, KernelStats) {
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

    let scores: Vec<f64> = (0..n).map(|i| block.l1_norm(i)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .total_cmp(&scores[b])
            .then_with(|| block.id(a).cmp(&block.id(b)))
    });

    for &i in &order {
        let cand = block.row(i);
        let mut dominated = false;
        for srow in skyline.coords().chunks_exact(d) {
            stats.comparisons += 1;
            stats.dim_weighted += d as u64;
            if dominates_row(srow, cand) {
                dominated = true;
                break;
            }
        }
        if !dominated {
            skyline.push_trusted(block.id(i), cand);
        }
    }

    crate::invariants::check_skyline_block("presort-merge", block, &skyline);
    stats.output_len = skyline.len() as u64;
    record_kernel_metrics("merge", &stats);
    (skyline, stats)
}

/// Computes the skyline of `block` with the columnar SFS kernel.
pub fn block_sfs(block: &PointBlock) -> PointBlock {
    block_sfs_stats(block).0
}

/// Columnar Sort-Filter-Skyline (Chomicki et al., ICDE 2003): candidates
/// are presorted by ascending entropy score `Σ ln(1 + v_k)` (ties broken by
/// id), then filtered in one pass against the accepted skyline.
///
/// The entropy score is *strictly* monotone under dominance on non-negative
/// coordinates — if `p` dominates `q` then `score(p) < score(q)` — which
/// buys two structural guarantees over BNL:
///
/// * **no evictions, one pass**: a candidate can only be dominated by an
///   *earlier* (lower-score) row, so an accepted point is final immediately
///   and no overflow/multi-pass machinery is needed;
/// * **a stop-aware window scan**: the accepted skyline is itself in
///   ascending score order, so the inner scan terminates at the first
///   accepted row whose score is `>=` the candidate's — rows at or past
///   that bound can never dominate it. On correlated inputs this keeps the
///   effective window a small prefix regardless of skyline size.
///
/// Exact duplicates tie on score and never dominate each other, so all
/// survive, matching the other kernels bit-for-bit.
pub fn block_sfs_stats(block: &PointBlock) -> (PointBlock, KernelStats) {
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

    let scores: Vec<f64> = (0..n).map(|i| block.entropy_score(i)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .total_cmp(&scores[b])
            .then_with(|| block.id(a).cmp(&block.id(b)))
    });

    // Scores of accepted rows, parallel to `skyline` and ascending — the
    // stop bound for the inner scan.
    let mut accepted_scores: Vec<f64> = Vec::new();
    for &i in &order {
        let cand = block.row(i);
        let score = scores[i];
        let mut dominated = false;
        for (srow, &sscore) in skyline.coords().chunks_exact(d).zip(&accepted_scores) {
            if sscore >= score {
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
            accepted_scores.push(score);
        }
    }

    crate::invariants::check_skyline_block("block-sfs", block, &skyline);
    stats.output_len = skyline.len() as u64;
    record_kernel_metrics("sfs", &stats);
    (skyline, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{compare, dominates};
    use crate::point::Point;
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
    fn row_comparisons_agree_with_aos() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..500 {
            let d = rng.gen_range(1..7);
            let a: Vec<f64> = (0..d).map(|_| f64::from(rng.gen_range(0..4))).collect();
            let b: Vec<f64> = (0..d).map(|_| f64::from(rng.gen_range(0..4))).collect();
            let pa = Point::new(0, a.clone());
            let pb = Point::new(1, b.clone());
            assert_eq!(dominates_row(&a, &b), dominates(&pa, &pb), "{a:?} vs {b:?}");
            assert_eq!(compare_rows(&a, &b), compare(&pa, &pb), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn block_bnl_matches_naive_oracle() {
        for seed in 0..10 {
            let block = random_block(200, 3, seed, 8);
            let oracle = naive_skyline_ids(&block.to_points());
            for cfg in [
                BnlConfig::unbounded(),
                BnlConfig::with_window(1),
                BnlConfig::with_window(4),
                BnlConfig::with_window(7),
                BnlConfig::with_window(16),
            ] {
                let (sky, stats) = block_bnl_stats(&block, &cfg);
                assert_eq!(sorted_ids(&sky), oracle, "seed {seed} cfg {cfg:?}");
                assert_eq!(stats.input_len, 200);
                assert_eq!(stats.output_len, sky.len() as u64);
                assert!(stats.comparisons > 0);
                if cfg.window_size.is_none() {
                    assert_eq!((stats.passes, stats.overflowed), (1, 0));
                }
            }
        }
    }

    /// Builds a block whose row `i` gets id `i`.
    fn block_of(rows: &[&[f64]]) -> PointBlock {
        let mut b = PointBlock::new(rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            b.push(i as u64, row).unwrap();
        }
        b
    }

    /// A named input (row `i` gets id `i`) and its expected skyline ids.
    type Case = (&'static str, &'static [&'static [f64]], &'static [u64]);

    #[test]
    fn kernels_return_the_expected_skyline_on_hand_built_inputs() {
        let cases: [Case; 5] = [
            ("single point", &[&[1.0, 2.0]], &[0]),
            (
                // the paper's Figure 1: s8 dominated, s1..s7 on the contour
                "figure 1 contour",
                &[
                    &[1.0, 9.0],
                    &[2.0, 7.0],
                    &[3.0, 5.0],
                    &[4.5, 3.5],
                    &[6.0, 2.5],
                    &[7.5, 2.0],
                    &[9.0, 1.0],
                    &[7.0, 6.0],
                ],
                &[0, 1, 2, 3, 4, 5, 6],
            ),
            (
                "duplicates are all kept",
                &[&[1.0, 1.0], &[1.0, 1.0], &[2.0, 2.0]],
                &[0, 1],
            ),
            (
                "dominated duplicate cluster is removed",
                &[&[2.0, 2.0], &[2.0, 2.0], &[1.0, 1.0]],
                &[2],
            ),
            (
                "d=1 ties at the minimum",
                &[&[5.0], &[3.0], &[9.0], &[3.0]],
                &[1, 3],
            ),
        ];
        for (name, rows, want) in cases {
            let block = block_of(rows);
            assert_eq!(
                naive_skyline_ids(&block.to_points()),
                want,
                "{name}: oracle"
            );
            for cfg in [
                BnlConfig::unbounded(),
                BnlConfig::with_window(1),
                BnlConfig::with_window(2),
            ] {
                let sky = block_bnl(&block, &cfg);
                assert_eq!(sorted_ids(&sky), want, "{name}: bnl {cfg:?}");
            }
            assert_eq!(sorted_ids(&block_sfs(&block)), want, "{name}: sfs");
            assert_eq!(sorted_ids(&presort_merge(&block)), want, "{name}: merge");
        }
    }

    #[test]
    fn block_bnl_tiny_window_multi_pass() {
        // anti-correlated diagonal: everything survives, maximal overflow
        let mut b = PointBlock::with_capacity(2, 50);
        for i in 0..50u64 {
            b.push(i, &[i as f64, 49.0 - i as f64]).unwrap();
        }
        for w in 1..50 {
            let (sky, stats) = block_bnl_stats(&b, &BnlConfig::with_window(w));
            assert_eq!(sky.len(), 50, "window {w}");
            assert!(stats.passes >= 2, "window {w} must overflow");
            assert!(stats.overflowed > 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn zero_window_rejected() {
        let _ = BnlConfig::with_window(0);
    }

    #[test]
    fn block_bnl_empty_input() {
        let (sky, stats) = block_bnl_stats(&PointBlock::new(3), &BnlConfig::default());
        assert!(sky.is_empty());
        assert_eq!(stats.passes, 0);
    }

    #[test]
    fn presort_merge_matches_oracle() {
        for seed in 20..30 {
            let block = random_block(150, 4, seed, 6);
            let points = block.to_points();
            let (sky, stats) = presort_merge_stats(&block);
            assert_eq!(sorted_ids(&sky), naive_skyline_ids(&points), "seed {seed}");
            assert_eq!(stats.passes, 1);
            assert_eq!(stats.overflowed, 0);
        }
    }

    #[test]
    fn presort_merge_keeps_duplicates() {
        let mut b = PointBlock::new(2);
        b.push(0, &[1.0, 1.0]).unwrap();
        b.push(1, &[1.0, 1.0]).unwrap();
        b.push(2, &[2.0, 2.0]).unwrap();
        // ties in L1 that are incomparable must also both survive
        b.push(3, &[0.0, 2.0]).unwrap();
        let sky = presort_merge(&b);
        assert_eq!(sorted_ids(&sky), vec![0, 1, 3]);
    }

    #[test]
    fn presort_merge_output_is_l1_sorted() {
        let block = random_block(100, 3, 99, 10);
        let sky = presort_merge(&block);
        for i in 1..sky.len() {
            assert!(sky.l1_norm(i - 1) <= sky.l1_norm(i));
        }
    }

    #[test]
    fn presort_merge_empty() {
        let (sky, stats) = presort_merge_stats(&PointBlock::new(2));
        assert!(sky.is_empty());
        assert_eq!(stats.passes, 0);
    }

    #[test]
    fn block_sfs_matches_oracle() {
        for seed in 40..50 {
            let block = random_block(170, 4, seed, 6);
            let (sky, stats) = block_sfs_stats(&block);
            assert_eq!(
                sorted_ids(&sky),
                naive_skyline_ids(&block.to_points()),
                "seed {seed}"
            );
            assert_eq!(stats.input_len, 170);
            assert_eq!(stats.output_len, sky.len() as u64);
            assert_eq!(stats.passes, 1);
            assert_eq!(stats.overflowed, 0);
            assert_eq!(stats.skipped, 0, "SFS has no early-stop skip");
        }
    }

    #[test]
    fn block_sfs_keeps_duplicates_and_score_ties() {
        let mut b = PointBlock::new(2);
        b.push(0, &[1.0, 1.0]).unwrap();
        b.push(1, &[1.0, 1.0]).unwrap();
        b.push(2, &[2.0, 2.0]).unwrap();
        // entropy tie with row 0/1? No — but incomparable pair must survive
        b.push(3, &[0.0, 2.5]).unwrap();
        let sky = block_sfs(&b);
        assert_eq!(sorted_ids(&sky), vec![0, 1, 3]);
    }

    #[test]
    fn block_sfs_output_is_entropy_sorted() {
        let block = random_block(140, 3, 77, 9);
        let sky = block_sfs(&block);
        for i in 1..sky.len() {
            assert!(sky.entropy_score(i - 1) <= sky.entropy_score(i));
        }
    }

    #[test]
    fn block_sfs_stop_bound_cuts_comparisons_on_correlated_input() {
        // correlated diagonal: singleton skyline; every candidate compares
        // against exactly one accepted row
        for n in [200u64, 300] {
            let mut b = PointBlock::new(2);
            for i in 0..n {
                b.push(i, &[i as f64, i as f64 + 0.5]).unwrap();
            }
            let (sky, stats) = block_sfs_stats(&b);
            assert_eq!(sky.len(), 1);
            assert_eq!(stats.output_len, 1);
            assert!(stats.comparisons <= (n - 1) * 2);
            assert!(stats.comparisons < n * n / 2, "n={n}: below quadratic");
        }
    }

    #[test]
    fn block_sfs_empty() {
        let (sky, stats) = block_sfs_stats(&PointBlock::new(4));
        assert!(sky.is_empty());
        assert_eq!(stats.passes, 0);
    }

    #[test]
    fn dominated_count_matches_aos_sweep() {
        let cands = random_block(300, 4, 5, 10);
        let window = random_block(40, 4, 6, 10);
        let expected = cands
            .to_points()
            .iter()
            .filter(|c| window.to_points().iter().any(|w| dominates(w, c)))
            .count();
        assert_eq!(dominated_count(&cands, &window), expected);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dominated_count_rejects_mixed_dims() {
        let _ = dominated_count(&PointBlock::new(2), &PointBlock::new(3));
    }

    #[test]
    fn kernels_record_into_the_global_registry() {
        let m = mrsky_trace::metrics();
        m.set_enabled(true);
        let before = m.snapshot();
        let block = random_block(100, 3, 42, 8);
        let (_, stats) = block_bnl_stats(&block, &BnlConfig::default());
        let _ = dominated_count(&block, &block);
        let after = m.snapshot();
        m.set_enabled(false);
        // Other tests may record concurrently while the flag is up, so the
        // deltas are lower bounds.
        let delta = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        assert!(delta("skyline.bnl.calls") >= 1);
        assert!(delta("skyline.bnl.comparisons") >= stats.comparisons);
        assert!(
            delta("skyline.sweep.dispatch.lane") + delta("skyline.sweep.dispatch.scalar") >= 1,
            "one dispatch path must be taken"
        );
        let hist = after
            .histograms
            .get("skyline.bnl.comparisons_per_call")
            .unwrap();
        assert!(hist.count() >= 1);
    }

    #[test]
    fn lane_sweep_agrees_with_scalar_sweep() {
        // Window sizes straddle the 64-lane padding boundary so the +inf
        // pad rows are exercised; equal rows check the strictness bit.
        for (seed, wlen) in [(1u64, 1usize), (2, 63), (3, 64), (4, 65), (5, 130)] {
            let cands = random_block(257, 5, seed, 4);
            let window = random_block(wlen, 5, seed.wrapping_add(100), 4);
            assert_eq!(
                lane_sweep(&cands, &window),
                scalar_sweep(&cands, &window),
                "wlen={wlen}"
            );
        }
        let dup = random_block(50, 3, 9, 2);
        assert_eq!(lane_sweep(&dup, &dup), scalar_sweep(&dup, &dup));
    }
}
