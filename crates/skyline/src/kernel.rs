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
//!   kernel the paper runs for the local skylines, with a bounded
//!   self-organising window and multi-pass overflow handling. The passes
//!   are written once over two window bodies: a row body that scans a flat
//!   row-major window row by row, and, on x86-64 hosts with AVX-512, a lane
//!   body that keeps the window in [`LaneColumns`] and finds a candidate's
//!   first dominator, or else every window row it dominates, with one
//!   two-sided lane scan. Both keep the same window order and count exactly
//!   the same comparisons (see [`LaneWindow`]).
//! * the presort kernels — [`presort_merge`] (the global merge, L1 key),
//!   [`block_sfs`] (Sort-Filter-Skyline, entropy key) and
//!   [`crate::salsa::block_salsa`] (minC key) — are one algorithm: sort by
//!   the key, then by numeric lexicographic coordinate order, then by id,
//!   which puts every dominator strictly before the rows it dominates (see
//!   [`presort_order`]); then make one filtering pass that stops at each
//!   candidate's first dominator among the accepted rows. Each kernel is a
//!   key, plus SaLSa's watermark, for that pass. The pass is
//!   block-synchronous: given more than one thread, each block of
//!   candidates is first scanned against the accepted rows frozen at its
//!   start on the task pool, then its survivors are tested against each
//!   other on the calling thread (see `filter_pass`). On x86-64 hosts
//!   with AVX-512 the pass runs as a first-dominator lane scan over
//!   column-major copies of the accepted rows, split by pivot mask so a
//!   candidate skips the rows that cannot dominate it (see `LaneBody`),
//!   dispatched once per call; every other host runs the row-wise scan.
//!   Every body and every thread count returns the same rows in the same
//!   order and counts exactly the same comparisons.
//! * [`dominated_count`] — the bulk dominance sweep used by benchmarks and
//!   pruning heuristics: how many candidate rows are dominated by at least
//!   one window row. Same dispatch and the same two bodies as the pass.

use crate::block::PointBlock;
use crate::dominance::DomRelation;
use mini_mapreduce::pool;
use std::borrow::Cow;
use std::cmp::Ordering;

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

/// Registry keys of one kernel's `skyline.<name>.*` metrics, spelled out
/// at compile time so an enabled recording call formats no key string.
pub(crate) struct KernelMetricKeys {
    name: &'static str,
    calls: &'static str,
    comparisons: &'static str,
    passes: &'static str,
    overflowed: &'static str,
    skipped: &'static str,
    comparisons_per_call: &'static str,
    output_len: &'static str,
}

macro_rules! kernel_metric_keys {
    ($name:literal) => {
        KernelMetricKeys {
            name: $name,
            calls: concat!("skyline.", $name, ".calls"),
            comparisons: concat!("skyline.", $name, ".comparisons"),
            passes: concat!("skyline.", $name, ".passes"),
            overflowed: concat!("skyline.", $name, ".overflowed"),
            skipped: concat!("skyline.", $name, ".skipped"),
            comparisons_per_call: concat!("skyline.", $name, ".comparisons_per_call"),
            output_len: concat!("skyline.", $name, ".output_len"),
        }
    };
}

const BNL_METRICS: KernelMetricKeys = kernel_metric_keys!("bnl");
const MERGE_METRICS: KernelMetricKeys = kernel_metric_keys!("merge");
const SFS_METRICS: KernelMetricKeys = kernel_metric_keys!("sfs");
pub(crate) const SALSA_METRICS: KernelMetricKeys = kernel_metric_keys!("salsa");

/// Records a kernel run into the process-global metrics registry under
/// `keys`. One relaxed-atomic branch when metrics are disabled (the
/// default), so the hot kernels can call it unconditionally.
fn record_kernel_metrics(keys: &KernelMetricKeys, stats: &KernelStats) {
    let m = mrsky_trace::metrics();
    if !m.is_enabled() {
        return;
    }
    m.incr(keys.calls, 1);
    m.incr(keys.comparisons, stats.comparisons);
    m.incr(keys.passes, u64::from(stats.passes));
    m.incr(keys.overflowed, stats.overflowed);
    m.incr(keys.skipped, stats.skipped);
    m.observe(keys.comparisons_per_call, stats.comparisons);
    m.observe(keys.output_len, stats.output_len);
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
/// Dispatches at runtime: on x86-64 with AVX-512 the sweep runs the lane
/// scan of [`LaneColumns`] over a column-major copy of the window (64
/// window rows compared per dimension as one vector op — see
/// [`lane_sweep`]); everywhere else it falls back to the row-wise scan,
/// whose per-row early exit is the better trade-off when the compiler only
/// has 2-wide SSE2.
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

/// Portable dominance sweep: each candidate runs the row body over the
/// whole window.
fn scalar_sweep(candidates: &PointBlock, window: &PointBlock) -> usize {
    candidates
        .coords()
        .chunks_exact(window.dim())
        .filter(|cand| row_first_dominator(window, cand, 0, window.len()).is_some())
        .count()
}

/// Lane-parallel dominance sweep: the window is transposed once into
/// [`LaneColumns`] and each candidate asks for its first dominator.
///
/// Only profitable when the surrounding function is compiled with wide
/// vector ISAs, hence `#[inline(always)]`: the body must inline into the
/// `#[target_feature]` wrapper in [`simd`] to be codegenned with AVX-512.
#[inline(always)]
fn lane_sweep(candidates: &PointBlock, window: &PointBlock) -> usize {
    let mut cols = LaneColumns::new(window.dim());
    cols.catch_up(window);
    candidates
        .coords()
        .chunks_exact(window.dim())
        .filter(|cand| cols.first_dominator(cand, 0, cols.len).is_some())
        .count()
}

/// Rows per lane block: one `u64` mask bit per row.
const LANES: usize = 64;

/// Column-major copy of a row set, the operand of the lane scans. Column
/// `k` holds coordinate `k` of every row and is padded with `+inf` to a
/// multiple of [`LANES`] rows; infinity is never `<=` a finite coordinate,
/// so pad rows can never witness dominance. Every lane past `len` is pad:
/// [`LaneColumns::swap_remove`] refills the lane it frees. The columns
/// double their padded length whenever a push finds them full.
struct LaneColumns {
    dim: usize,
    /// Padded rows per column (a multiple of [`LANES`]).
    stride: usize,
    len: usize,
    cols: Vec<f64>,
}

impl LaneColumns {
    fn new(dim: usize) -> Self {
        Self {
            dim,
            stride: 0,
            len: 0,
            cols: Vec::new(),
        }
    }

    #[inline(always)]
    fn push(&mut self, row: &[f64]) {
        if self.len == self.stride {
            self.grow();
        }
        for (k, &v) in row.iter().enumerate() {
            self.cols[k * self.stride + self.len] = v;
        }
        self.len += 1;
    }

    /// Doubles the padded rows per column (to at least one lane block),
    /// keeping the rows already pushed.
    #[cold]
    fn grow(&mut self) {
        let stride = (2 * self.stride).max(LANES);
        let mut cols = vec![f64::INFINITY; stride * self.dim];
        for k in 0..self.dim {
            let (old, new) = (k * self.stride, k * stride);
            cols[new..new + self.len].copy_from_slice(&self.cols[old..old + self.len]);
        }
        self.stride = stride;
        self.cols = cols;
    }

    /// Appends the rows of `rows` past the ones already copied.
    #[inline(always)]
    fn catch_up(&mut self, rows: &PointBlock) {
        while self.len < rows.len() {
            self.push(rows.row(self.len));
        }
    }

    /// Swaps rows `i` and `j`.
    #[inline(always)]
    fn swap(&mut self, i: usize, j: usize) {
        for k in 0..self.dim {
            self.cols.swap(k * self.stride + i, k * self.stride + j);
        }
    }

    /// Removes row `i` by moving the last row into its place, like
    /// `Vec::swap_remove`, and refills the freed lane with `+inf` so that
    /// it is pad again.
    #[inline(always)]
    fn swap_remove(&mut self, i: usize) {
        self.len -= 1;
        let last = self.len;
        for k in 0..self.dim {
            let col = &mut self.cols[k * self.stride..];
            col[i] = col[last];
            col[last] = f64::INFINITY;
        }
    }

    /// Writes row `i` into `out`.
    #[inline(always)]
    fn copy_row(&self, i: usize, out: &mut [f64]) {
        for (k, v) in out.iter_mut().enumerate() {
            *v = self.cols[k * self.stride + i];
        }
    }

    /// Whether row `j` dominates `cand`, tested on that row alone like
    /// [`dominates_row`].
    #[inline(always)]
    fn row_dominates(&self, j: usize, cand: &[f64]) -> bool {
        let mut all_le = true;
        let mut any_lt = false;
        for (k, &c) in cand.iter().enumerate() {
            let w = self.cols[k * self.stride + j];
            all_le &= w <= c;
            any_lt |= w < c;
        }
        all_le && any_lt
    }

    /// The `(w <= cand, w < cand)` masks of the 64 rows from `j0` on: bit
    /// `j` of the first is set when row `j0 + j` is `<=` `cand` on every
    /// coordinate, bit `j` of the second when it is `<` on at least one.
    ///
    /// Each dimension compares one broadcast candidate coordinate against
    /// 64 contiguous column values — on AVX-512 a handful of vector
    /// compares straight into mask registers.
    #[inline(always)]
    fn lane_masks(&self, cand: &[f64], j0: usize) -> (u64, u64) {
        let mut le_mask = !0u64;
        let mut lt_mask = 0u64;
        for (k, &ck) in cand.iter().enumerate() {
            let start = k * self.stride + j0;
            let mut le = 0u64;
            let mut lt = 0u64;
            for (j, &w) in self.cols[start..start + LANES].iter().enumerate() {
                le |= u64::from(w <= ck) << j;
                lt |= u64::from(w < ck) << j;
            }
            le_mask &= le;
            lt_mask |= lt;
        }
        (le_mask, lt_mask)
    }

    /// The rows among the 64 from `j0` on that dominate `cand`, as a mask:
    /// `le & lt` of [`LaneColumns::lane_masks`]. A row that dominates is
    /// `<=` everywhere, so the `<=` masks come first, dimension by
    /// dimension, and the scan stops once none is left; the `<` masks are
    /// only taken for the rows still `<=` everywhere, which are rare when
    /// `cand` is not dominated.
    #[inline(always)]
    fn dominators(&self, cand: &[f64], j0: usize) -> u64 {
        let mut le_mask = !0u64;
        for (k, &ck) in cand.iter().enumerate() {
            le_mask &= self.column_mask(k, j0, |w| w <= ck);
            if le_mask == 0 {
                return 0;
            }
        }
        let mut lt_mask = 0u64;
        for (k, &ck) in cand.iter().enumerate() {
            lt_mask |= self.column_mask(k, j0, |w| w < ck);
        }
        le_mask & lt_mask
    }

    /// Bit `j` set iff `test` holds for coordinate `k` of row `j0 + j`.
    #[inline(always)]
    fn column_mask(&self, k: usize, j0: usize, test: impl Fn(f64) -> bool) -> u64 {
        let start = k * self.stride + j0;
        let mut mask = 0u64;
        for (j, &w) in self.cols[start..start + LANES].iter().enumerate() {
            mask |= u64::from(test(w)) << j;
        }
        mask
    }

    /// Index of the first row of `[start, stop)` that dominates `cand`, or
    /// `None`.
    ///
    /// The lowest set bit of [`LaneColumns::dominators`] is the first
    /// dominator in a lane block, so the scan stops exactly
    /// where a row-by-row scan would. The scan begins at the lane block
    /// holding `start`, with the bits of the rows below `start` masked out.
    #[inline(always)]
    fn first_dominator(&self, cand: &[f64], start: usize, stop: usize) -> Option<usize> {
        let mut j0 = start - start % LANES;
        let mut from = !0u64 << (start % LANES);
        while j0 < stop.min(self.len) {
            let hits = self.dominators(cand, j0) & from;
            if hits != 0 {
                let j = j0 + hits.trailing_zeros() as usize;
                return (j < stop).then_some(j);
            }
            from = !0;
            j0 += LANES;
        }
        None
    }

    /// The two-sided scan of the BNL lane body: the index of the first row
    /// that dominates `cand`, or else `None`, with `victims` set to one
    /// mask word per lane block marking the rows `cand` dominates.
    ///
    /// A row is dominated by `cand` when it is nowhere `<` `cand` and
    /// somewhere not `<=` it, so both answers come out of the same two
    /// masks. A pad row (`+inf`) reads as dominated, so the lanes past
    /// `len` are masked off.
    #[inline(always)]
    fn dominator_or_victims(&self, cand: &[f64], victims: &mut Vec<u64>) -> Option<usize> {
        victims.clear();
        let mut j0 = 0;
        while j0 < self.len {
            let (le_mask, lt_mask) = self.lane_masks(cand, j0);
            let hits = le_mask & lt_mask;
            if hits != 0 {
                return Some(j0 + hits.trailing_zeros() as usize);
            }
            let live = self.len - j0;
            let live_mask = if live >= LANES { !0 } else { !(!0u64 << live) };
            victims.push(!(le_mask | lt_mask) & live_mask);
            j0 += LANES;
        }
        None
    }
}

/// Runtime-dispatched SIMD entry points. The workspace denies `unsafe`
/// by default; this module is the one sanctioned exception, and every
/// `unsafe` block here is a `#[target_feature]` call guarded by
/// [`simd::lane_isa_detected`], directly or through a body type built only
/// after it passed.
#[cfg(target_arch = "x86_64")]
mod simd {
    #![allow(unsafe_code)]

    use super::{KernelStats, LaneBody, LaneWindow, PointBlock, Scan, ScanBody};

    /// `true` iff the host supports every feature the wrappers below enable.
    fn lane_isa_detected() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn lane_sweep_avx512(candidates: &PointBlock, window: &PointBlock) -> usize {
        super::lane_sweep(candidates, window)
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn lane_scan_avx512(
        block: &PointBlock,
        order: &[usize],
        watermark_keys: Option<&[f64]>,
        scan: Scan,
        stats: &mut KernelStats,
    ) -> PointBlock {
        let mut body = Avx512Lanes(LaneBody::new(block));
        super::filter_pass(block, order, watermark_keys, scan, stats, &mut body)
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn lane_bnl_avx512(
        block: &PointBlock,
        window_cap: usize,
        stats: &mut KernelStats,
    ) -> PointBlock {
        super::bnl_passes::<LaneWindow>(block, window_cap, stats)
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn prefix_task_avx512(
        body: &LaneBody<'_>,
        accepted: &PointBlock,
        block: &PointBlock,
        rows: &[usize],
    ) -> Vec<Option<usize>> {
        body.prefix_task(accepted, block, rows)
    }

    /// The lane body, built only once the host has passed
    /// [`lane_isa_detected`]. The serial phase inlines into
    /// [`lane_scan_avx512`]; the parallel phase's tasks run on pool
    /// workers, outside that function, so they enter AVX-512 codegen
    /// through [`prefix_task_avx512`].
    struct Avx512Lanes<'a>(LaneBody<'a>);

    impl ScanBody for Avx512Lanes<'_> {
        #[inline(always)]
        fn catch_up(&mut self, accepted: &PointBlock) {
            self.0.catch_up(accepted);
        }

        #[inline(always)]
        fn first_dominator(
            &self,
            accepted: &PointBlock,
            cand: &[f64],
            start: usize,
        ) -> Option<usize> {
            self.0.first_dominator(accepted, cand, start)
        }

        fn prefix_task(
            &self,
            accepted: &PointBlock,
            block: &PointBlock,
            rows: &[usize],
        ) -> Vec<Option<usize>> {
            // SAFETY: an `Avx512Lanes` is only built inside
            // `lane_scan_avx512`, which `try_lane_scan` calls after
            // verifying every feature of the `#[target_feature]` list at
            // runtime; CPU features are the same on every thread.
            unsafe { prefix_task_avx512(&self.0, accepted, block, rows) }
        }
    }

    /// Runs the lane sweep with AVX-512 codegen when the host supports it;
    /// `None` tells the caller to take the portable path.
    pub(super) fn try_lane_sweep(candidates: &PointBlock, window: &PointBlock) -> Option<usize> {
        if !lane_isa_detected() {
            return None;
        }
        // SAFETY: every feature named in `lane_sweep_avx512`'s
        // `#[target_feature]` list was just verified at runtime.
        Some(unsafe { lane_sweep_avx512(candidates, window) })
    }

    /// Runs the presort filtering pass as a lane scan with AVX-512 codegen
    /// when the host supports it; `None` (with `stats` untouched) tells the
    /// caller to take the row-wise path.
    pub(super) fn try_lane_scan(
        block: &PointBlock,
        order: &[usize],
        watermark_keys: Option<&[f64]>,
        scan: Scan,
        stats: &mut KernelStats,
    ) -> Option<PointBlock> {
        if !lane_isa_detected() {
            return None;
        }
        // SAFETY: every feature named in `lane_scan_avx512`'s
        // `#[target_feature]` list was just verified at runtime.
        Some(unsafe { lane_scan_avx512(block, order, watermark_keys, scan, stats) })
    }

    /// Runs the BNL passes over the lane window with AVX-512 codegen when
    /// the host supports it; `None` (with `stats` untouched) tells the
    /// caller to take the row-wise path.
    pub(super) fn try_lane_bnl(
        block: &PointBlock,
        window_cap: usize,
        stats: &mut KernelStats,
    ) -> Option<PointBlock> {
        if !lane_isa_detected() {
            return None;
        }
        // SAFETY: every feature named in `lane_bnl_avx512`'s
        // `#[target_feature]` list was just verified at runtime.
        Some(unsafe { lane_bnl_avx512(block, window_cap, stats) })
    }
}

/// A BNL window body: the self-organising window the passes of
/// [`bnl_passes`] keep, with each row's id and entry timestamp.
trait BnlWindow {
    fn new(dim: usize) -> Self;

    fn len(&self) -> usize;

    fn push(&mut self, id: u64, row: &[f64], ts: u64);

    fn id(&self, i: usize) -> u64;

    /// Entry timestamp of row `i`.
    fn entered(&self, i: usize) -> u64;

    /// Writes row `i` into `out`.
    fn copy_row(&self, i: usize, out: &mut [f64]);

    /// Tests `cand` against the window as the row scan of
    /// [`FlatWindow::offer`] does: a window row that dominates `cand` is
    /// moved to the front, and the window rows `cand` dominates are
    /// evicted. Returns the comparisons the row scan makes and whether
    /// `cand` is dominated.
    fn offer(&mut self, cand: &[f64]) -> (u64, bool);
}

/// Row body: the window in one flat row-major buffer, with coordinates,
/// ids and entry timestamps as parallel arrays, so a window scan walks one
/// contiguous `f64` run. The portable path, and the reference the lane
/// body is tested against.
struct FlatWindow {
    dim: usize,
    coords: Vec<f64>,
    ids: Vec<u64>,
    entered: Vec<u64>,
}

impl FlatWindow {
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
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

impl BnlWindow for FlatWindow {
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
    fn push(&mut self, id: u64, row: &[f64], ts: u64) {
        self.coords.extend_from_slice(row);
        self.ids.push(id);
        self.entered.push(ts);
    }

    fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    fn entered(&self, i: usize) -> u64 {
        self.entered[i]
    }

    fn copy_row(&self, i: usize, out: &mut [f64]) {
        out.copy_from_slice(self.row(i));
    }

    /// The row scan: each window row in turn, one comparison each. A
    /// dominator ends the scan and moves to the front; an evicted row's
    /// place is taken by the last row, which is examined next.
    fn offer(&mut self, cand: &[f64]) -> (u64, bool) {
        let mut comparisons = 0;
        let mut i = 0;
        while i < self.len() {
            comparisons += 1;
            match compare_rows(self.row(i), cand) {
                DomRelation::LeftDominates => {
                    // move to front; a no-op when `i == 0`
                    self.swap(0, i);
                    return (comparisons, true);
                }
                DomRelation::RightDominates => {
                    self.swap_remove(i);
                    // re-examine the row swapped into position i
                }
                // Distinct points with equal rows are mutually
                // non-dominating: both stay.
                DomRelation::Equal | DomRelation::Incomparable => {
                    i += 1;
                }
            }
        }
        (comparisons, false)
    }
}

/// Lane body: the window in [`LaneColumns`], ids and entry timestamps
/// beside it, and the victim masks of the last scan.
///
/// The window is an antichain, so a candidate with a dominator in it
/// dominates no window row: if row `j` dominates the candidate and the
/// candidate dominated row `i`, row `j` would dominate row `i`. The row
/// scan therefore either stops at the first dominator `j` having evicted
/// nothing, after `j + 1` comparisons, or visits every row once, evicting
/// as it goes. [`LaneWindow::offer`] does the same from one
/// [`LaneColumns::dominator_or_victims`] scan: it moves row `j` to the
/// front, or it evicts the victims in the row scan's order
/// ([`LaneWindow::evict_victims`]) and charges the window length.
///
/// Only profitable compiled with wide vector ISAs, hence the
/// `#[inline(always)]` methods: the passes must inline into the
/// `#[target_feature]` wrapper in [`simd`].
struct LaneWindow {
    cols: LaneColumns,
    ids: Vec<u64>,
    entered: Vec<u64>,
    victims: Vec<u64>,
}

impl LaneWindow {
    #[inline(always)]
    fn swap(&mut self, i: usize, j: usize) {
        self.cols.swap(i, j);
        self.ids.swap(i, j);
        self.entered.swap(i, j);
    }

    #[inline(always)]
    fn swap_remove(&mut self, i: usize) {
        self.cols.swap_remove(i);
        self.ids.swap_remove(i);
        self.entered.swap_remove(i);
    }

    /// Removes the rows marked in `victims` in the order the row scan's
    /// `swap_remove`s take them: the lowest marked position first, and the
    /// row moved into a freed position, carrying its own mark, is examined
    /// there before any later position. Marks only ever move down into the
    /// word being walked, so one walk over the words finds them all.
    #[inline(always)]
    fn evict_victims(&mut self) {
        let mut w = 0;
        while w < self.victims.len() {
            let bits = self.victims[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            let i = w * LANES + bits.trailing_zeros() as usize;
            let last = self.cols.len - 1;
            let (lw, lb) = (last / LANES, last % LANES);
            let moved = if i == last {
                0
            } else {
                (self.victims[lw] >> lb) & 1
            };
            self.victims[lw] &= !(1u64 << lb);
            let ib = i % LANES;
            self.victims[w] = (self.victims[w] & !(1u64 << ib)) | (moved << ib);
            self.swap_remove(i);
        }
    }
}

impl BnlWindow for LaneWindow {
    fn new(dim: usize) -> Self {
        Self {
            cols: LaneColumns::new(dim),
            ids: Vec::new(),
            entered: Vec::new(),
            victims: Vec::new(),
        }
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline(always)]
    fn push(&mut self, id: u64, row: &[f64], ts: u64) {
        self.cols.push(row);
        self.ids.push(id);
        self.entered.push(ts);
    }

    #[inline(always)]
    fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    #[inline(always)]
    fn entered(&self, i: usize) -> u64 {
        self.entered[i]
    }

    #[inline(always)]
    fn copy_row(&self, i: usize, out: &mut [f64]) {
        self.cols.copy_row(i, out);
    }

    /// Tests the front row on its own first: move-to-front puts the last
    /// killer there, and on correlated input it kills nearly every
    /// candidate, for less than a lane block costs.
    #[inline(always)]
    fn offer(&mut self, cand: &[f64]) -> (u64, bool) {
        let n = self.len();
        if n == 0 {
            return (0, false);
        }
        if self.cols.row_dominates(0, cand) {
            return (1, true);
        }
        if let Some(j) = self.cols.dominator_or_victims(cand, &mut self.victims) {
            self.swap(0, j);
            return (j as u64 + 1, true);
        }
        self.evict_victims();
        (n as u64, false)
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
///
/// Runs on the fastest window body the host supports: the AVX-512 lane
/// body ([`LaneWindow`]) where the host has it, the row body
/// ([`FlatWindow`]) everywhere else. Both return the same rows in the same
/// order with the same [`KernelStats`].
///
/// # Panics
///
/// Panics if `cfg.window_size` is `Some(0)`: every pass would overflow
/// its whole input, forever.
pub fn block_bnl_stats(block: &PointBlock, cfg: &BnlConfig) -> (PointBlock, KernelStats) {
    let mut stats = KernelStats {
        input_len: block.len() as u64,
        ..KernelStats::default()
    };
    let window_cap = cfg.window_size.unwrap_or(usize::MAX);
    assert!(window_cap > 0, "BNL window must hold at least one point");
    let skyline = bnl_scan(block, window_cap, &mut stats);
    crate::invariants::check_skyline("block-bnl", block, &skyline);
    stats.output_len = skyline.len() as u64;
    record_kernel_metrics(&BNL_METRICS, &stats);
    (skyline, stats)
}

fn bnl_scan(block: &PointBlock, window_cap: usize, stats: &mut KernelStats) -> PointBlock {
    #[cfg(target_arch = "x86_64")]
    if let Some(skyline) = simd::try_lane_bnl(block, window_cap, stats) {
        return skyline;
    }
    bnl_passes::<FlatWindow>(block, window_cap, stats)
}

/// The BNL passes over window body `W`, holding at most `window_cap` rows:
/// the overflow, timestamp and emission logic of [`block_bnl`], with every
/// window test left to [`BnlWindow::offer`].
#[inline(always)]
fn bnl_passes<W: BnlWindow>(
    block: &PointBlock,
    window_cap: usize,
    stats: &mut KernelStats,
) -> PointBlock {
    let d = block.dim();
    let mut skyline = PointBlock::with_capacity(d, 0);
    let mut window = W::new(d);
    let mut input = Cow::Borrowed(block);
    let mut clock = block.len() as u64;
    let mut row = vec![0.0; d];

    while !input.is_empty() {
        stats.passes += 1;
        let mut overflow = PointBlock::with_capacity(d, 0);
        // Timestamp of the first point overflowed in this pass; window rows
        // that entered before it have met every remaining candidate.
        let mut first_overflow_ts: Option<u64> = None;

        for idx in 0..input.len() {
            let ts = clock;
            clock += 1;
            let cand = input.row(idx);
            let (comparisons, dominated) = window.offer(cand);
            stats.comparisons += comparisons;
            stats.dim_weighted += comparisons * d as u64;
            if dominated {
                continue;
            }
            if window.len() < window_cap {
                window.push(input.id(idx), cand, ts);
            } else {
                if first_overflow_ts.is_none() {
                    first_overflow_ts = Some(ts);
                }
                stats.overflowed += 1;
                overflow.push_row_from(&input, idx);
            }
        }

        // Emit confirmed window rows; retain the rest for the next pass.
        // A pass without overflow confirms the whole window and ends the
        // run.
        let mut retained = W::new(d);
        for i in 0..window.len() {
            window.copy_row(i, &mut row);
            if first_overflow_ts.is_none_or(|cut| window.entered(i) < cut) {
                skyline.push_trusted(window.id(i), &row);
            } else {
                retained.push(window.id(i), &row, window.entered(i));
            }
        }
        window = retained;
        input = Cow::Owned(overflow);
    }
    skyline
}

/// Numeric order on non-NaN values. Unlike [`f64::total_cmp`] it has
/// `-0.0 == 0.0`, the equality [`dominates_row`] uses. Presort keys are
/// never NaN: coordinates are finite, and a sum of finite values can
/// overflow to `±inf` but cannot reach `inf - inf`.
#[inline]
pub(crate) fn num_cmp(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// The presort order of the single-pass kernels ([`presort_merge`],
/// [`block_sfs`], [`crate::salsa::block_salsa`]): row indices of `block`
/// sorted by `key`, then by the coordinates in numeric lexicographic order,
/// then by id.
///
/// Each kernel's key is only *weakly* monotone under dominance: if `p`
/// dominates `q` then `key(p) <= key(q)`, and equality is possible. f64
/// sums round (`l1((1e16, 1e16)) == l1((1e16, 1e16 + 2)) == 2e16`), the
/// entropy score clamps negative coordinates to zero (`(-2, 1)` and
/// `(-1, 1)` tie), and a minimum coordinate ties whenever two rows share
/// it. The coordinate tiebreak restores strictness: inside a key tie, the
/// first coordinate where a dominator differs from its victim is strictly
/// smaller. It compares numerically, so `(0.0, 1e16, 1e16)` still sorts
/// before the row it dominates, `(-0.0, 1e16, 1e16 + 2)`. A dominator
/// therefore always sorts strictly before every row it dominates, and
/// rows that tie on every coordinate (never dominating each other) fall
/// back to id order for determinism.
pub(crate) fn presort_order(
    block: &PointBlock,
    key: impl Fn(usize, usize) -> Ordering,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..block.len()).collect();
    order.sort_by(|&a, &b| {
        key(a, b)
            .then_with(|| {
                block
                    .row(a)
                    .iter()
                    .zip(block.row(b))
                    .map(|(&x, &y)| num_cmp(x, y))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            })
            .then_with(|| block.id(a).cmp(&block.id(b)))
    });
    order
}

/// Runs one presort kernel: sorts `block` with [`presort_order`] under
/// `key`, makes the single filtering pass with `scan`, checks the result
/// and records the run under `metrics`. `watermark_keys` (SaLSa's minC keys,
/// indexed by input row) arm the max-coordinate watermark of
/// [`crate::salsa`].
pub(crate) fn presort_kernel(
    metrics: &KernelMetricKeys,
    block: &PointBlock,
    key: impl Fn(usize, usize) -> Ordering,
    watermark_keys: Option<&[f64]>,
    scan: Scan,
) -> (PointBlock, KernelStats) {
    let mut stats = KernelStats {
        input_len: block.len() as u64,
        ..KernelStats::default()
    };
    if block.is_empty() {
        return (PointBlock::with_capacity(block.dim(), 0), stats);
    }
    stats.passes = 1;
    let order = presort_order(block, key);
    let skyline = presort_scan(block, &order, watermark_keys, scan, &mut stats);
    crate::invariants::check_skyline(metrics.name, block, &skyline);
    stats.output_len = skyline.len() as u64;
    record_kernel_metrics(metrics, &stats);
    (skyline, stats)
}

/// Candidates per block of the block-synchronous filtering pass.
const SCAN_BLOCK: usize = 1024;

/// Candidates per parallel-phase task.
const SCAN_TASK: usize = 64;

/// How a filtering pass is cut up: candidates per block and the threads
/// the parallel phase may use.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scan {
    block_rows: usize,
    threads: usize,
}

impl Scan {
    /// The production pass on `threads` threads (`1` = the serial scan).
    pub(crate) fn on(threads: usize) -> Self {
        Self::blocked(SCAN_BLOCK, threads)
    }

    fn blocked(block_rows: usize, threads: usize) -> Self {
        assert!(
            block_rows > 0 && threads > 0,
            "a scan needs rows and threads"
        );
        Self {
            block_rows,
            threads,
        }
    }
}

/// The presort kernels' filtering pass over `block` in `order`, on the
/// fastest body the host supports: the AVX-512 lane body ([`LaneBody`])
/// where the host has it, the row body ([`RowBody`]) everywhere else.
/// Both return the same rows in the same order with the same
/// [`KernelStats`].
fn presort_scan(
    block: &PointBlock,
    order: &[usize],
    watermark_keys: Option<&[f64]>,
    scan: Scan,
    stats: &mut KernelStats,
) -> PointBlock {
    #[cfg(target_arch = "x86_64")]
    if let Some(skyline) = simd::try_lane_scan(block, order, watermark_keys, scan, stats) {
        return skyline;
    }
    filter_pass(block, order, watermark_keys, scan, stats, &mut RowBody)
}

/// How the filtering pass finds a candidate's first dominator among the
/// accepted rows.
trait ScanBody: Sync {
    /// Brings any copy of the accepted rows the body keeps up to
    /// `accepted`.
    fn catch_up(&mut self, accepted: &PointBlock);

    /// Index of the first of the rows `[start, accepted.len())` of
    /// `accepted` that dominates `cand`, or `None`. Reads only the rows
    /// the body has caught up to.
    fn first_dominator(&self, accepted: &PointBlock, cand: &[f64], start: usize) -> Option<usize>;

    /// One task of the parallel phase: the first dominator among all of
    /// `accepted` of each row of `block` listed in `rows`.
    #[inline(always)]
    fn prefix_task(
        &self,
        accepted: &PointBlock,
        block: &PointBlock,
        rows: &[usize],
    ) -> Vec<Option<usize>> {
        let mut hits = Vec::with_capacity(rows.len());
        for &i in rows {
            hits.push(self.first_dominator(accepted, block.row(i), 0));
        }
        hits
    }
}

/// The one filtering pass. Each candidate, in `order`, gets its first
/// dominator among the accepted rows, and is accepted when there is none.
/// A first dominator at row `j` counts `j + 1` comparisons and none counts
/// the accepted-set size: exactly the rows a row-by-row scan visits, so
/// every body reports the same [`KernelStats`].
///
/// The pass is block-synchronous. The candidates are taken in blocks of
/// `scan.block_rows`. In the parallel phase every row of a block is
/// scanned on the task pool against the accepted rows frozen at the
/// block's start, the prefix. In the serial phase the calling thread
/// walks the block in order and tests each row that no prefix row
/// dominates against the rows accepted since the block started. In
/// presort order a dominator always precedes its victim, so the rows
/// accepted before a candidate are exactly the prefix plus the block's
/// earlier survivors; the first dominator found, and so every count, is
/// the serial scan's. The parallel phase is skipped on one thread and on
/// an empty prefix (always the first block), where the serial phase scans
/// from row 0: a pass over at most one block never touches the pool.
///
/// There is no per-candidate stop bound. Every kernel sorts by the key
/// such a bound would test (SFS's entropy score, SaLSa's leading minC),
/// so each accepted row's key is already `<=` the candidate's and the
/// bound would always be the whole accepted set.
#[inline(always)]
fn filter_pass<B: ScanBody>(
    block: &PointBlock,
    order: &[usize],
    watermark_keys: Option<&[f64]>,
    scan: Scan,
    stats: &mut KernelStats,
    body: &mut B,
) -> PointBlock {
    let d = block.dim();
    let mut skyline = PointBlock::with_capacity(d, 0);
    // SaLSa's watermark: the smallest max-coordinate over accepted rows.
    let mut watermark = f64::INFINITY;
    let mut comparisons = 0u64;
    'blocks: for (b, rows) in order.chunks(scan.block_rows).enumerate() {
        let prefix = if scan.threads > 1 { skyline.len() } else { 0 };
        let prefix_hits: Vec<Option<usize>> = if prefix == 0 {
            Vec::new()
        } else {
            body.catch_up(&skyline);
            let (body, accepted) = (&*body, &skyline);
            pool::run_indexed(rows.len().div_ceil(SCAN_TASK), scan.threads, |t| {
                let task = &rows[t * SCAN_TASK..rows.len().min((t + 1) * SCAN_TASK)];
                body.prefix_task(accepted, block, task)
            })
            .concat()
        };
        for (k, &i) in rows.iter().enumerate() {
            if watermark_keys.is_some_and(|keys| keys[i] > watermark) {
                stats.skipped = (order.len() - b * scan.block_rows - k) as u64;
                break 'blocks;
            }
            let cand = block.row(i);
            let first = match prefix_hits.get(k).copied().flatten() {
                Some(j) => Some(j),
                None => {
                    body.catch_up(&skyline);
                    body.first_dominator(&skyline, cand, prefix)
                }
            };
            if let Some(j) = first {
                comparisons += j as u64 + 1;
                continue;
            }
            comparisons += skyline.len() as u64;
            skyline.push_trusted(block.id(i), cand);
            watermark = watermark.min(block.max_coord(i));
        }
    }
    stats.comparisons += comparisons;
    stats.dim_weighted += comparisons * d as u64;
    skyline
}

/// The first of the rows `[start, stop)` of `accepted` that dominates
/// `cand`, tested row by row with the branchless [`dominates_row`].
#[inline]
fn row_first_dominator(
    accepted: &PointBlock,
    cand: &[f64],
    start: usize,
    stop: usize,
) -> Option<usize> {
    let d = accepted.dim();
    accepted.coords()[start * d..stop * d]
        .chunks_exact(d)
        .position(|row| dominates_row(row, cand))
        .map(|j| start + j)
}

/// Row body: [`row_first_dominator`] over the accepted rows themselves.
/// The portable path, and the reference the lane body is tested against.
struct RowBody;

impl ScanBody for RowBody {
    fn catch_up(&mut self, _accepted: &PointBlock) {}

    #[inline]
    fn first_dominator(&self, accepted: &PointBlock, cand: &[f64], start: usize) -> Option<usize> {
        row_first_dominator(accepted, cand, start, accepted.len())
    }
}

/// Accepted rows the lane body still tests row by row before it goes to
/// the lanes. On correlated inputs nearly every candidate falls to the
/// first accepted row, and sweeping a whole 64-row lane block for it costs
/// more than one row test; a longer prefix measured no better there and
/// slower on anti-correlated merges, where most candidates get past it.
const ROW_PREFIX: usize = 1;

/// Lane body: the first [`ROW_PREFIX`] accepted rows are tested row by
/// row, the rest through [`LaneColumns`] copies of the accepted rows: a
/// flat one, and, once the accepted set is large, one per pivot-mask
/// bucket for the rows past a flat prefix.
///
/// The pivot `v` is the per-dimension median of the pass's candidates
/// ([`median_pivot`]) on the first `bits` dimensions ([`mask_bits`]), and
/// a row's mask has bit `k` set iff `r[k] >= v[k]`. If `p` dominates `q`
/// then `p[k] <= q[k]` everywhere, so every bit of `mask(p)` is also set
/// in `mask(q)`: a candidate only scans the buckets whose mask is a
/// submask of its own (BSkyTree's pivot-region lattice, Lee & Hwang, EDBT
/// 2010).
/// Each bucket holds its rows in accepted order with their accepted
/// indices, so its first hit is its earliest dominator, and the earliest
/// over all scanned buckets is the row scan's first dominator.
///
/// A bucketed scan tests at least one lane block per bucket it visits,
/// `(3/2)^bits` of them for a random mask, where the flat scan tests one
/// block per 64 rows, and a bucket's lane block spans far more accepted
/// indices than a flat one. So the first [`flat_prefix`] accepted rows,
/// where most dominated candidates meet their first dominator (every
/// kernel sorts by a key monotone under dominance), are always scanned
/// flat, and the buckets, and the pivot, are only built once as many rows
/// lie past that prefix; correlated data, whose accepted sets stay small,
/// never builds them. A scan from a later start (the serial phase of a
/// block-synchronous pass, which only tests the rows accepted since the
/// block began) goes through the flat copy alone, from the start row on.
///
/// Only profitable compiled with wide vector ISAs, hence the
/// `#[inline(always)]` methods: like [`lane_sweep`], the serial phase must
/// inline into a `#[target_feature]` wrapper in [`simd`].
struct LaneBody<'a> {
    /// The pass's candidates, whose median is the pivot.
    candidates: &'a PointBlock,
    /// Masked dimensions: the first `bits`.
    bits: usize,
    /// Accepted rows scanned flat before the buckets; the buckets are
    /// built once as many accepted rows lie past them.
    flat_rows: usize,
    /// Every accepted row, in accepted order.
    flat: LaneColumns,
    /// Pivot coordinates of the masked dimensions, once found.
    pivot: Vec<f64>,
    /// One bucket per mask, indexed by the mask, holding the accepted rows
    /// past the flat prefix; none until the body builds them.
    buckets: Vec<Bucket>,
    /// Masks of the non-empty buckets, in the order they filled.
    occupied: Vec<usize>,
}

/// The accepted rows of one pivot mask, in accepted order.
struct Bucket {
    cols: LaneColumns,
    /// Accepted index of each row, ascending.
    rows: Vec<usize>,
}

/// Accepted-index span of the first round of a bucketed scan; each later
/// round doubles it.
const ROUND_ROWS: usize = 1024;

/// Buckets one bucketed scan walks side by side.
const SCAN_BUCKETS: usize = 64;

/// Mask bits of a pass over `n` candidates of dimension `d`: `log2(n / 64)`
/// rounded down, so that the `2^bits` buckets hold about a lane block of
/// rows each or more, and at most `d`.
fn mask_bits(n: usize, d: usize) -> usize {
    (n / LANES).checked_ilog2().map_or(0, |b| d.min(b as usize))
}

/// Accepted rows a body with `bits` mask bits scans flat before its
/// buckets: a lane block per submask of a random mask, `64 * (3/2)^bits`.
fn flat_prefix(bits: usize) -> usize {
    let submasks = 3usize.saturating_pow(bits as u32) >> bits;
    LANES.saturating_mul(submasks.max(1))
}

/// Candidates the pivot is taken from, at most: an evenly spaced sample.
const PIVOT_SAMPLE: usize = 1024;

/// The per-dimension median, under [`num_cmp`], of `block`'s first `bits`
/// columns over an evenly spaced sample of at most [`PIVOT_SAMPLE`] rows
/// (every row of a smaller block). Any pivot keeps the scan exact; the
/// sample keeps the select's cost off small passes.
fn median_pivot(block: &PointBlock, bits: usize) -> Vec<f64> {
    let d = block.dim();
    let step = block.len().div_ceil(PIVOT_SAMPLE).max(1);
    let mut column = Vec::with_capacity(PIVOT_SAMPLE.min(block.len()));
    (0..bits)
        .map(|k| {
            column.clear();
            column.extend(block.coords().iter().skip(k).step_by(d * step));
            let mid = column.len() / 2;
            *column.select_nth_unstable_by(mid, |a, b| num_cmp(*a, *b)).1
        })
        .collect()
}

impl<'a> LaneBody<'a> {
    /// The body of a pass over `candidates`, with [`mask_bits`] masked
    /// dimensions.
    fn new(candidates: &'a PointBlock) -> Self {
        let bits = mask_bits(candidates.len(), candidates.dim());
        Self {
            candidates,
            bits,
            flat_rows: flat_prefix(bits),
            flat: LaneColumns::new(candidates.dim()),
            pivot: Vec::new(),
            buckets: Vec::new(),
            occupied: Vec::new(),
        }
    }

    /// A body masking `pivot.len()` dimensions against `pivot` that scans
    /// only the row prefix flat, so it builds its buckets at the second
    /// accepted row.
    #[cfg(test)]
    fn with_pivot(candidates: &'a PointBlock, pivot: Vec<f64>) -> Self {
        Self {
            bits: pivot.len(),
            flat_rows: ROW_PREFIX,
            pivot,
            ..Self::new(candidates)
        }
    }

    /// Finds the pivot, unless given, makes the buckets and fills them with
    /// the accepted rows past the flat prefix.
    #[cold]
    fn build_buckets(&mut self, accepted: &PointBlock) {
        if self.pivot.is_empty() {
            self.pivot = median_pivot(self.candidates, self.bits);
        }
        let dim = self.candidates.dim();
        self.buckets = (0..1usize << self.bits)
            .map(|_| Bucket {
                cols: LaneColumns::new(dim),
                rows: Vec::new(),
            })
            .collect();
        for j in self.flat_rows..self.flat.len {
            self.bucket(j, accepted.row(j));
        }
    }

    /// Appends accepted row `j` to its bucket.
    #[inline(always)]
    fn bucket(&mut self, j: usize, row: &[f64]) {
        let mask = self.mask(row);
        let bucket = &mut self.buckets[mask];
        if bucket.rows.is_empty() {
            self.occupied.push(mask);
        }
        bucket.cols.push(row);
        bucket.rows.push(j);
    }

    /// The pivot mask of `row`: bit `k` set iff `row[k] >= pivot[k]`.
    #[inline(always)]
    fn mask(&self, row: &[f64]) -> usize {
        self.pivot
            .iter()
            .zip(row)
            .enumerate()
            .fold(0, |m, (k, (&v, &r))| m | (usize::from(r >= v) << k))
    }

    /// The earliest accepted row past the flat prefix that dominates
    /// `cand`, through the buckets whose mask is a submask of `cand`'s.
    /// They are found by enumerating the submasks or by filtering the
    /// non-empty buckets, whichever is fewer, and walked side by side, up
    /// to [`SCAN_BUCKETS`] at a time (see [`LaneBody::scan_side_by_side`]).
    ///
    /// No closure here or in the scan: the body must inline whole into the
    /// `#[target_feature]` wrappers in [`simd`].
    #[inline(always)]
    fn bucketed_first_dominator(&self, cand: &[f64]) -> Option<usize> {
        let mask = self.mask(cand);
        let filter = self.occupied.len() < 1 << mask.count_ones();
        // the next filled bucket to test, or the next submask
        let (mut next, mut sub, mut submasks_left) = (0, mask, true);
        let mut best = usize::MAX;
        // (bucket mask, next position) of the buckets walked side by side
        let mut group = [(0usize, 0usize); SCAN_BUCKETS];
        let mut len = 0;
        loop {
            let b = if filter {
                let Some(&b) = self.occupied.get(next) else {
                    break;
                };
                next += 1;
                if b & !mask != 0 {
                    continue;
                }
                b
            } else {
                if !submasks_left {
                    break;
                }
                let b = sub;
                submasks_left = sub != 0;
                sub = sub.wrapping_sub(1) & mask;
                b
            };
            if self.buckets[b].rows.is_empty() {
                continue;
            }
            group[len] = (b, 0);
            len += 1;
            if len == SCAN_BUCKETS {
                best = self.scan_side_by_side(cand, &mut group, best);
                len = 0;
            }
        }
        best = self.scan_side_by_side(cand, &mut group[..len], best);
        (best < usize::MAX).then_some(best)
    }

    /// Scans the buckets of `group`, each from its position, and returns
    /// the smaller of `best` and the earliest accepted index among them
    /// that dominates `cand`; `usize::MAX` is none.
    ///
    /// The buckets advance side by side in rounds over a growing span of
    /// accepted indices: round `r` scans each bucket's lane blocks whose
    /// first row lies below `ROUND_ROWS * (2^(r+1) - 1)` and below `best`,
    /// so a dominated candidate stops near its first dominator as the
    /// flat scan does. A bucket leaves the group at its first hit, which
    /// is its earliest dominator, or at its end.
    #[inline(always)]
    fn scan_side_by_side(
        &self,
        cand: &[f64],
        group: &mut [(usize, usize)],
        mut best: usize,
    ) -> usize {
        let mut live = group.len();
        let mut end = 0usize;
        let mut span = ROUND_ROWS;
        while live > 0 && end < best {
            end = end.saturating_add(span);
            span = span.saturating_mul(2);
            let mut i = 0;
            while i < live {
                let (b, mut pos) = group[i];
                let Bucket { cols, rows } = &self.buckets[b];
                let mut hit = false;
                while pos < rows.len() && rows[pos] < end.min(best) {
                    let hits = cols.dominators(cand, pos);
                    if hits != 0 {
                        let first = pos + hits.trailing_zeros() as usize;
                        best = best.min(rows[first]);
                        hit = true;
                        break;
                    }
                    pos += LANES;
                }
                if hit || pos >= rows.len() {
                    live -= 1;
                    group.swap(i, live);
                } else {
                    group[i].1 = pos;
                    i += 1;
                }
            }
        }
        best
    }
}

impl ScanBody for LaneBody<'_> {
    #[inline(always)]
    fn catch_up(&mut self, accepted: &PointBlock) {
        while self.flat.len < accepted.len() {
            let (j, row) = (self.flat.len, accepted.row(self.flat.len));
            self.flat.push(row);
            if !self.buckets.is_empty() {
                self.bucket(j, row);
            }
        }
        if self.buckets.is_empty() && self.bits > 0 && self.flat.len >= 2 * self.flat_rows {
            self.build_buckets(accepted);
        }
    }

    #[inline(always)]
    fn first_dominator(&self, accepted: &PointBlock, cand: &[f64], start: usize) -> Option<usize> {
        let head = ROW_PREFIX.min(accepted.len());
        if start < head {
            if let Some(j) = row_first_dominator(accepted, cand, start, head) {
                return Some(j);
            }
        }
        if start > head || self.buckets.is_empty() {
            return self.flat.first_dominator(cand, start.max(head), usize::MAX);
        }
        if let Some(j) = self.flat.first_dominator(cand, head, self.flat_rows) {
            return Some(j);
        }
        self.bucketed_first_dominator(cand)
    }
}

/// Computes the skyline of `block` with the presorting merge kernel, on
/// one thread.
pub fn presort_merge(block: &PointBlock) -> PointBlock {
    presort_merge_stats(block, 1).0
}

/// SFS-style merge: sorts candidates by ascending L1 norm (ties broken by
/// coordinates, then id — see [`presort_order`]), then filters in one pass
/// against every accepted row.
///
/// Why a single pass is enough: after the sort a candidate can only be
/// dominated by an *earlier* row, so a survivor is final the moment it is
/// accepted, and rows with equal coordinates (including exact duplicates,
/// which never dominate each other) all survive. This is the kernel the
/// reduce-side merge uses: merge inputs are unions of local skylines,
/// mostly undominated, so the `O(n log n)` sort buys a filtering pass that
/// does near-zero evictions.
///
/// The pass runs block-synchronously on up to `threads` threads; the
/// skyline and every statistic are the same for any thread count.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn presort_merge_stats(block: &PointBlock, threads: usize) -> (PointBlock, KernelStats) {
    presort_merge_stats_in_blocks(block, threads, SCAN_BLOCK)
}

/// [`presort_merge_stats`] with `block_rows` candidates per block of the
/// pass instead of the production block size, so that tests outside this
/// crate can put block boundaries inside small inputs.
///
/// # Panics
///
/// Panics if `threads == 0` or `block_rows == 0`.
#[doc(hidden)]
pub fn presort_merge_stats_in_blocks(
    block: &PointBlock,
    threads: usize,
    block_rows: usize,
) -> (PointBlock, KernelStats) {
    let l1: Vec<f64> = (0..block.len()).map(|i| block.l1_norm(i)).collect();
    presort_kernel(
        &MERGE_METRICS,
        block,
        |a, b| num_cmp(l1[a], l1[b]),
        None,
        Scan::blocked(block_rows, threads),
    )
}

/// Computes the skyline of `block` with the columnar SFS kernel.
pub fn block_sfs(block: &PointBlock) -> PointBlock {
    block_sfs_stats(block).0
}

/// Columnar Sort-Filter-Skyline (Chomicki et al., ICDE 2003): candidates
/// are presorted by ascending entropy score `Σ ln(1 + v_k)` (ties broken by
/// coordinates, then id — see [`presort_order`]), then filtered in one pass
/// against the accepted skyline.
///
/// The entropy score is monotone under dominance — if `p` dominates `q`
/// then `score(p) <= score(q)` — and the presort's tiebreak puts every
/// dominator strictly first, so a candidate can only be dominated by an
/// *earlier* row: an accepted point is final immediately, with no
/// evictions and no overflow/multi-pass machinery. Exact duplicates never
/// dominate each other, so all survive, matching the other kernels
/// bit-for-bit.
pub fn block_sfs_stats(block: &PointBlock) -> (PointBlock, KernelStats) {
    let scores: Vec<f64> = (0..block.len()).map(|i| block.entropy_score(i)).collect();
    presort_kernel(
        &SFS_METRICS,
        block,
        |a, b| num_cmp(scores[a], scores[b]),
        None,
        Scan::on(1),
    )
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
    #[should_panic(expected = "at least one point")]
    fn zero_window_field_rejected() {
        let cfg = BnlConfig {
            window_size: Some(0),
        };
        let _ = block_bnl(&block_of(&[&[1.0, 2.0]]), &cfg);
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
            let (sky, stats) = presort_merge_stats(&block, 1);
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
        let (sky, stats) = presort_merge_stats(&PointBlock::new(2), 2);
        assert!(sky.is_empty());
        assert_eq!(stats.passes, 0);
    }

    /// Score ties between a dominator `p` and its victim `q`, with `q`
    /// given the smaller id so an id tiebreak would put it first: an L1
    /// tie from f64 rounding, an entropy tie from the clamp at zero, and
    /// the rounding tie again behind a `0.0`/`-0.0` pair that only a
    /// numeric (not `total_cmp`) coordinate order treats as equal.
    const SCORE_TIES: [(&str, &[f64], &[f64]); 3] = [
        ("l1 rounding tie", &[1e16, 1e16], &[1e16, 1e16 + 2.0]),
        ("entropy clamp tie", &[-2.0, 1.0], &[-1.0, 1.0]),
        (
            "signed zero behind a rounding tie",
            &[0.0, 1e16, 1e16],
            &[-0.0, 1e16, 1e16 + 2.0],
        ),
    ];

    /// 200 anti-diagonal L1 rounding-tie pairs `(1e16 + 4i, 1e16 − 4i)`
    /// under `(1e16 + 4i, 1e16 − 4i + 2)`, every victim id below its
    /// dominator's.
    fn score_tie_block() -> PointBlock {
        let mut block = PointBlock::new(2);
        for i in 0..200u64 {
            let x = 1e16 + 4.0 * i as f64;
            block.push(i, &[x, 1e16 - 4.0 * i as f64 + 2.0]).unwrap();
        }
        for i in 0..200u64 {
            let x = 1e16 + 4.0 * i as f64;
            block.push(200 + i, &[x, 1e16 - 4.0 * i as f64]).unwrap();
        }
        block
    }

    /// Runs `kernel` on every [`SCORE_TIES`] pair, alone and inside a
    /// 400-row block of 200 such pairs, and checks the oracle's answer.
    fn assert_score_ties_resolved(name: &str, kernel: impl Fn(&PointBlock) -> PointBlock) {
        for (case, p, q) in SCORE_TIES {
            let mut pair = PointBlock::new(p.len());
            pair.push(0, q).unwrap();
            pair.push(1, p).unwrap();
            assert_eq!(sorted_ids(&kernel(&pair)), vec![1], "{name}: {case}");
        }
        let block = score_tie_block();
        let want = naive_skyline_ids(&block.to_points());
        assert_eq!(want, (200..400).collect::<Vec<u64>>());
        assert_eq!(sorted_ids(&kernel(&block)), want, "{name}: 400-row ties");
    }

    #[test]
    fn presort_merge_breaks_score_ties_by_coordinates() {
        assert_score_ties_resolved("merge", presort_merge);
    }

    #[test]
    fn block_sfs_breaks_score_ties_by_coordinates() {
        assert_score_ties_resolved("sfs", block_sfs);
    }

    #[test]
    fn block_salsa_breaks_score_ties_by_coordinates() {
        assert_score_ties_resolved("salsa", crate::salsa::block_salsa);
    }

    #[test]
    fn block_bnl_is_exact_on_score_ties() {
        assert_score_ties_resolved("bnl", |b| block_bnl(b, &BnlConfig::default()));
    }

    /// What the scans must agree on: ids, row order, coordinate bits,
    /// `comparisons`, `dim_weighted` and `skipped`.
    type Fingerprint = (Vec<u64>, Vec<u64>, u64, u64, u64);

    fn fingerprint(sky: &PointBlock, stats: &KernelStats) -> Fingerprint {
        let bits: Vec<u64> = sky.coords().iter().map(|c| c.to_bits()).collect();
        (
            sky.ids().to_vec(),
            bits,
            stats.comparisons,
            stats.dim_weighted,
            stats.skipped,
        )
    }

    /// The serial pass written out row by row, independent of
    /// [`filter_pass`]: each candidate in `order` against every accepted
    /// row from row 0 with [`row_first_dominator`].
    fn reference_pass(
        block: &PointBlock,
        order: &[usize],
        watermark_keys: Option<&[f64]>,
    ) -> Fingerprint {
        let mut sky = PointBlock::new(block.dim());
        let mut stats = KernelStats::default();
        let mut watermark = f64::INFINITY;
        for (rank, &i) in order.iter().enumerate() {
            if watermark_keys.is_some_and(|keys| keys[i] > watermark) {
                stats.skipped = (order.len() - rank) as u64;
                break;
            }
            match row_first_dominator(&sky, block.row(i), 0, sky.len()) {
                Some(j) => stats.comparisons += j as u64 + 1,
                None => {
                    stats.comparisons += sky.len() as u64;
                    sky.push_trusted(block.id(i), block.row(i));
                    watermark = watermark.min(block.max_coord(i));
                }
            }
        }
        stats.dim_weighted = stats.comparisons * block.dim() as u64;
        fingerprint(&sky, &stats)
    }

    /// What one block-synchronous pass with `body` returns.
    fn pass<B: ScanBody>(
        block: &PointBlock,
        order: &[usize],
        watermark_keys: Option<&[f64]>,
        scan: Scan,
        body: &mut B,
    ) -> Fingerprint {
        let mut stats = KernelStats::default();
        let sky = filter_pass(block, order, watermark_keys, scan, &mut stats, body);
        fingerprint(&sky, &stats)
    }

    /// A lane body masking every dimension of `block` (up to 16) against
    /// its median, the most buckets any input can get,
    /// and no flat prefix past the row prefix.
    fn all_bits_body(block: &PointBlock) -> LaneBody<'_> {
        let bits = if block.is_empty() {
            0
        } else {
            block.dim().min(16)
        };
        LaneBody::with_pivot(block, median_pivot(block, bits))
    }

    /// Runs the block-synchronous pass with the row body, the lane body
    /// compiled for the baseline ISA (with the production mask bits and
    /// with every dimension masked) and (where the host has AVX-512) the
    /// dispatched lane body on `block` in `order`, at one and two rows per
    /// block, either side of a lane block, 1024 rows and the whole input
    /// per block, each on 1, 2 and 3 threads; all must match
    /// [`reference_pass`], which is returned.
    fn assert_scans_agree(
        block: &PointBlock,
        order: &[usize],
        watermark_keys: Option<&[f64]>,
        what: &str,
    ) -> Fingerprint {
        let want = reference_pass(block, order, watermark_keys);
        for block_rows in [1, 2, 63, 64, 65, 1024, block.len().max(1)] {
            for threads in 1..=3 {
                let scan = Scan::blocked(block_rows, threads);
                let what = format!("{what} B={block_rows} threads={threads}");
                let row = pass(block, order, watermark_keys, scan, &mut RowBody);
                assert_eq!(row, want, "{what}: row body");
                let mut lanes = LaneBody::new(block);
                let lane = pass(block, order, watermark_keys, scan, &mut lanes);
                assert_eq!(lane, want, "{what}: lane body");
                let lane = pass(
                    block,
                    order,
                    watermark_keys,
                    scan,
                    &mut all_bits_body(block),
                );
                assert_eq!(lane, want, "{what}: lane body, every dimension masked");
                #[cfg(target_arch = "x86_64")]
                {
                    let mut stats = KernelStats::default();
                    if let Some(sky) =
                        simd::try_lane_scan(block, order, watermark_keys, scan, &mut stats)
                    {
                        assert_eq!(fingerprint(&sky, &stats), want, "{what}: avx-512");
                    }
                }
            }
        }
        want
    }

    /// Runs [`assert_scans_agree`] on the merge, SFS and SaLSa specs of
    /// `block`, and checks each dispatched kernel against the row body.
    fn assert_specs_agree(block: &PointBlock, what: &str) {
        let keys =
            |f: fn(&PointBlock, usize) -> f64| (0..block.len()).map(|i| f(block, i)).collect();
        let l1: Vec<f64> = keys(PointBlock::l1_norm);
        let entropy: Vec<f64> = keys(PointBlock::entropy_score);
        let min_c: Vec<f64> = keys(PointBlock::min_coord);
        let check = |name: &str,
                     order: Vec<usize>,
                     watermark_keys: Option<&[f64]>,
                     kernel: fn(&PointBlock) -> (PointBlock, KernelStats)| {
            let what = format!("{what} {name}");
            let want = assert_scans_agree(block, &order, watermark_keys, &what);
            let (sky, stats) = kernel(block);
            assert_eq!(fingerprint(&sky, &stats), want, "{what}: dispatched");
        };
        let merge_order = presort_order(block, |a, b| num_cmp(l1[a], l1[b]));
        check("merge", merge_order, None, |b| presort_merge_stats(b, 2));
        let sfs_order = presort_order(block, |a, b| num_cmp(entropy[a], entropy[b]));
        check("sfs", sfs_order, None, block_sfs_stats);
        let salsa_order = presort_order(block, |a, b| {
            num_cmp(min_c[a], min_c[b]).then_with(|| num_cmp(l1[a], l1[b]))
        });
        check(
            "salsa",
            salsa_order,
            Some(&min_c),
            crate::salsa::block_salsa_stats,
        );
    }

    /// `m` mutually incomparable rows (an anti-diagonal on the first two
    /// coordinates, zeros elsewhere), then rows dominated by accepted rows
    /// at the head, the block boundaries and the tail, exact duplicates,
    /// and one late survivor with its own dominated shadow.
    fn accepted_set_of(m: usize, d: usize) -> PointBlock {
        let mut b = PointBlock::new(d);
        let mut row = |i: usize, a: f64, c: f64| {
            let mut r = vec![0.0; d];
            r[0] = a;
            r[1] = c;
            b.push(i as u64, &r).unwrap();
        };
        for i in 0..m {
            row(i, i as f64, (m - i) as f64);
        }
        let mut next = m;
        for j in [0, 1, 62, 63, 64, 65, m / 2, m - 2, m - 1] {
            if j < m {
                row(next, j as f64 + 0.5, (m - j) as f64);
                row(next + 1, j as f64, (m - j) as f64);
                next += 2;
            }
        }
        row(next, -1.0, 1e6);
        row(next + 1, -1.0, 1e6 + 1.0);
        b
    }

    #[test]
    fn first_dominator_honours_its_start_row() {
        // m incomparable rows (an anti-diagonal), every third replaced by
        // a dominator of `cand`, so each start row has its own answer
        for (m, d) in [
            (1usize, 2usize),
            (63, 2),
            (64, 6),
            (65, 3),
            (130, 6),
            (200, 16),
        ] {
            let mut accepted = PointBlock::new(d);
            for i in 0..m {
                let mut row = vec![0.0; d];
                row[0] = i as f64;
                row[1] = if i % 3 == 1 {
                    0.0
                } else {
                    (m - i) as f64 + 1.0
                };
                accepted.push(i as u64, &row).unwrap();
            }
            let mut cand = vec![1.0; d];
            cand[0] = m as f64;
            let mut bodies = [LaneBody::new(&accepted), all_bits_body(&accepted)];
            for body in &mut bodies {
                body.catch_up(&accepted);
            }
            for start in 0..=m {
                let want = row_first_dominator(&accepted, &cand, start, m);
                assert_eq!(want.map(|j| j % 3), want.map(|_| 1), "m={m} start={start}");
                let row = RowBody.first_dominator(&accepted, &cand, start);
                assert_eq!(row, want, "m={m} d={d} start={start}: row body");
                for (b, body) in bodies.iter().enumerate() {
                    let lane = body.first_dominator(&accepted, &cand, start);
                    assert_eq!(lane, want, "m={m} d={d} start={start}: lane body {b}");
                }
            }
        }
    }

    #[test]
    fn mask_bits_and_flat_prefix_follow_the_lane_block() {
        for (n, d, bits) in [
            (0usize, 6usize, 0usize),
            (127, 6, 0),
            (128, 6, 1),
            (255, 6, 1),
            (256, 6, 2),
            (4_111, 10, 6),
            (18_912, 6, 6),
            (76_000, 10, 10),
            (1 << 20, 3, 3),
            (1 << 20, 1, 1),
        ] {
            assert_eq!(mask_bits(n, d), bits, "n={n} d={d}");
        }
        for (bits, rows) in [(0, 64), (1, 64), (2, 128), (4, 320), (6, 704), (10, 3648)] {
            assert_eq!(flat_prefix(bits), rows, "bits={bits}");
        }
    }

    /// Rows per bucket of `body`, indexed by mask.
    fn bucket_sizes(body: &LaneBody<'_>) -> Vec<usize> {
        body.buckets.iter().map(|b| b.rows.len()).collect()
    }

    #[test]
    fn rows_on_the_pivot_set_their_mask_bit() {
        // every row on the pivot: all land in the all-ones bucket
        let on: Vec<&[f64]> = vec![&[2.0, -0.0, 5.0]; 300];
        let block = block_of(&on);
        let mut body = all_bits_body(&block);
        assert_eq!(body.pivot.len(), 3);
        body.catch_up(&block);
        let mut want = vec![0; 8];
        want[7] = 299; // row 0 is the row prefix
        assert_eq!(bucket_sizes(&body), want);
        // ±0.0 on a zero pivot: both signs are >= the pivot
        let mut signed = PointBlock::new(2);
        for i in 0..400u64 {
            let z = if i % 2 == 0 { 0.0 } else { -0.0 };
            let v = [[z, 1.0], [-1.0, z], [z, z], [1.0, -1.0]][(i % 4) as usize];
            signed.push(i, &v).unwrap();
        }
        let mut body = all_bits_body(&signed);
        assert_eq!(body.pivot, [0.0, 0.0]);
        body.catch_up(&signed);
        // masks: [z, 1] -> 0b11, [-1, z] -> 0b10, [z, z] -> 0b11,
        // [1, -1] -> 0b01; row 0 is the row prefix
        assert_eq!(bucket_sizes(&body), [0, 100, 100, 199]);
        assert_specs_agree(&signed, "signed zeros on the pivot");
        // a constant column is on the pivot everywhere
        let mut constant = PointBlock::new(3);
        for i in 0..200u32 {
            let row = [f64::from(i), 4.0, f64::from(200 - i)];
            constant.push(u64::from(i), &row).unwrap();
        }
        let mut body = all_bits_body(&constant);
        assert_eq!(body.pivot, [100.0, 4.0, 101.0]);
        body.catch_up(&constant);
        // i >= 100 -> 0b011, i <= 99 -> 0b110; row 0 is the row prefix
        assert_eq!(bucket_sizes(&body), [0, 0, 0, 100, 0, 0, 99, 0]);
        assert_specs_agree(&constant, "constant column");
    }

    /// `2k + 1` rows on an anti-diagonal (incomparable), then `shadows`
    /// dominated rows placed in mirrored pairs so that the median of either
    /// coordinate stays on the middle row: with both dimensions masked, the
    /// rows below the middle fill one bucket and those above another, `k`
    /// accepted rows each (less the row prefix in the first).
    fn mirrored_buckets(k: usize, shadows: &[usize]) -> PointBlock {
        let top = 2 * k as u32;
        let mut b = PointBlock::new(2);
        for i in 0..=top {
            b.push(u64::from(i), &[f64::from(i), f64::from(top - i)])
                .unwrap();
        }
        let mut id = u64::from(top) + 1;
        for &j in shadows {
            let j = j as u32;
            b.push(id, &[f64::from(j) + 0.5, f64::from(top - j)])
                .unwrap();
            let m = top - j;
            b.push(id + 1, &[f64::from(m), f64::from(j) + 0.5]).unwrap();
            id += 2;
        }
        b
    }

    #[test]
    fn presort_scans_agree_on_buckets_either_side_of_a_lane_block() {
        for k in [63usize, 64, 65] {
            let block = mirrored_buckets(k, &[0, 1, 31, 62, k - 1]);
            let mut body = all_bits_body(&block);
            assert_eq!(body.pivot, [k as f64, k as f64], "k={k}");
            body.catch_up(&reference_skyline(&block));
            // below the middle row 0b10 (less the row prefix), above it 0b01
            assert_eq!(bucket_sizes(&body), [0, k, k - 1, 1], "k={k}");
            assert_specs_agree(&block, &format!("buckets of {k} rows"));
        }
    }

    /// The presort merge's skyline of `block`, in accepted order.
    fn reference_skyline(block: &PointBlock) -> PointBlock {
        let l1: Vec<f64> = (0..block.len()).map(|i| block.l1_norm(i)).collect();
        let order = presort_order(block, |a, b| num_cmp(l1[a], l1[b]));
        let mut stats = KernelStats::default();
        filter_pass(block, &order, None, Scan::on(1), &mut stats, &mut RowBody)
    }

    #[test]
    fn first_dominator_is_the_earliest_over_all_buckets() {
        // the later dominator's bucket is walked first, by the submask
        // enumeration (every bucket filled) and by the filled-bucket list
        // (fewer filled buckets than submasks)
        let submasks: &[&[f64]] = &[
            &[100.0, 0.0],
            &[0.0, 100.0],
            &[1.0, 1.0],
            &[100.0, 100.0],
            &[5.5, 5.5],
            &[100.0, 0.0],
        ];
        let filled: &[&[f64]] = &[
            &[100.0, 0.0, 0.0],
            &[100.0, 100.0, 100.0],
            &[1.0, 1.0, 1.0],
            &[5.5, 5.5, 5.5],
        ];
        for (rows, occupied, later) in [
            (submasks, &[0b10, 0b00, 0b11, 0b01][..], 4),
            (filled, &[0b111, 0b000][..], 3),
        ] {
            let d = rows[0].len();
            let accepted = block_of(rows);
            let cand = vec![6.0; d];
            let mut body = LaneBody::with_pivot(&accepted, vec![5.0; d]);
            body.catch_up(&accepted);
            assert_eq!(body.occupied, occupied, "d={d}");
            for start in 0..3 {
                let got = body.first_dominator(&accepted, &cand, start);
                assert_eq!(got, Some(2), "d={d} start={start}");
            }
            let got = body.first_dominator(&accepted, &cand, 3);
            assert_eq!(got, Some(later), "d={d}");
        }
    }

    #[test]
    fn presort_scans_agree_at_the_lane_boundaries() {
        for m in [63, 64, 65, 127, 128, 129] {
            for d in [2, 6, 16] {
                assert_specs_agree(&accepted_set_of(m, d), &format!("m={m} d={d}"));
            }
        }
    }

    #[test]
    fn presort_scans_agree_on_hostile_inputs() {
        assert_specs_agree(&PointBlock::new(3), "n=0");
        assert_specs_agree(&block_of(&[&[1.0, -0.0]]), "n=1");
        let identical: Vec<&[f64]> = vec![&[2.0, -0.0, 5.0]; 130];
        assert_specs_agree(&block_of(&identical), "all identical");
        for seed in 0..6u64 {
            for (d, n) in [(1usize, 150usize), (3, 200), (16, 200)] {
                // small grid: duplicates and ties everywhere; 0 drawn as a
                // signed zero; column 0 held constant
                let mut rng = StdRng::seed_from_u64(seed);
                let mut b = PointBlock::new(d);
                for i in 0..n {
                    let row: Vec<f64> = (0..d)
                        .map(|k| match (k, rng.gen_range(0..5u32)) {
                            (0, _) if d > 1 => 7.0,
                            (_, 0) if rng.gen_bool(0.5) => -0.0,
                            (_, v) => f64::from(v),
                        })
                        .collect();
                    b.push(i as u64, &row).unwrap();
                }
                assert_specs_agree(&b, &format!("grid seed={seed} d={d}"));
            }
        }
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
    fn block_sfs_comparisons_stay_linear_on_correlated_input() {
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

    /// The BNL windows the body tests run: one row, two, either side of a
    /// lane block, two lane blocks, and unbounded.
    const BNL_WINDOWS: [Option<usize>; 7] = [
        Some(1),
        Some(2),
        Some(63),
        Some(64),
        Some(65),
        Some(128),
        None,
    ];

    /// What the BNL bodies must agree on: ids in order, coordinate bits,
    /// and every [`KernelStats`] field.
    type BnlFingerprint = (Vec<u64>, Vec<u64>, [u64; 7]);

    fn bnl_fingerprint(sky: &PointBlock, stats: &KernelStats) -> BnlFingerprint {
        let bits = sky.coords().iter().map(|c| c.to_bits()).collect();
        let fields = [
            stats.comparisons,
            stats.dim_weighted,
            u64::from(stats.passes),
            stats.overflowed,
            stats.skipped,
            stats.input_len,
            stats.output_len,
        ];
        (sky.ids().to_vec(), bits, fields)
    }

    /// The BNL passes over window body `W`, outside any dispatch.
    fn bnl_with<W: BnlWindow>(block: &PointBlock, window: Option<usize>) -> BnlFingerprint {
        let mut stats = KernelStats {
            input_len: block.len() as u64,
            ..KernelStats::default()
        };
        let sky = bnl_passes::<W>(block, window.unwrap_or(usize::MAX), &mut stats);
        stats.output_len = sky.len() as u64;
        bnl_fingerprint(&sky, &stats)
    }

    /// Runs BNL on `block` at every [`BNL_WINDOWS`] window with the row
    /// body, the lane body compiled for the baseline ISA, the AVX-512 lane
    /// body where the host has it and the dispatched kernel; all must match
    /// the row body, whose skyline must be the oracle's.
    fn assert_bnl_bodies_agree(block: &PointBlock, what: &str) {
        let oracle = naive_skyline_ids(&block.to_points());
        for window in BNL_WINDOWS {
            let what = format!("{what} window={window:?}");
            let want = bnl_with::<FlatWindow>(block, window);
            let mut ids = want.0.clone();
            ids.sort_unstable();
            assert_eq!(ids, oracle, "{what}: row body");
            assert_eq!(
                bnl_with::<LaneWindow>(block, window),
                want,
                "{what}: lane body"
            );
            #[cfg(target_arch = "x86_64")]
            {
                let mut stats = KernelStats {
                    input_len: block.len() as u64,
                    ..KernelStats::default()
                };
                let cap = window.unwrap_or(usize::MAX);
                if let Some(sky) = simd::try_lane_bnl(block, cap, &mut stats) {
                    stats.output_len = sky.len() as u64;
                    assert_eq!(bnl_fingerprint(&sky, &stats), want, "{what}: avx-512");
                }
            }
            let cfg = BnlConfig {
                window_size: window,
            };
            let (sky, stats) = block_bnl_stats(block, &cfg);
            assert_eq!(bnl_fingerprint(&sky, &stats), want, "{what}: dispatched");
        }
    }

    /// `n` rows near the anti-diagonal `Σ x = (d − 1)·grid`: the first
    /// `d − 1` coordinates on a grid, the last closing the sum plus up to
    /// `noise` more, so most rows are incomparable (windows of hundreds of
    /// rows) and the noise makes candidates evict several rows at once.
    fn anti_block(n: usize, d: usize, seed: u64, grid: u32, noise: u32) -> PointBlock {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = PointBlock::new(d);
        for i in 0..n {
            let mut row: Vec<f64> = (1..d).map(|_| f64::from(rng.gen_range(0..grid))).collect();
            let sum: f64 = row.iter().sum();
            let last = f64::from(grid) * (d - 1) as f64 - sum;
            row.push(last + f64::from(rng.gen_range(0..=noise)));
            b.push(i as u64, &row).unwrap();
        }
        b
    }

    #[test]
    fn bnl_bodies_agree_across_the_lane_boundary() {
        for (d, n, grid, noise) in [
            (2usize, 300usize, 2000u32, 20u32),
            (3, 300, 40, 4),
            (4, 300, 12, 3),
        ] {
            for seed in 0..2 {
                let block = anti_block(n, d, seed, grid, noise);
                let (sky, _) = block_bnl_stats(&block, &BnlConfig::unbounded());
                assert!(sky.len() > 2 * LANES, "d={d} seed={seed}: window too short");
                assert_bnl_bodies_agree(&block, &format!("anti d={d} seed={seed}"));
            }
        }
        // correlated: the front row kills nearly every candidate
        assert_bnl_bodies_agree(&random_block(300, 4, 3, 6), "grid d=4");
    }

    #[test]
    fn bnl_bodies_agree_on_hostile_inputs() {
        assert_bnl_bodies_agree(&PointBlock::new(3), "n=0");
        assert_bnl_bodies_agree(&block_of(&[&[1.0, -0.0]]), "n=1");
        let identical: Vec<&[f64]> = vec![&[2.0, -0.0, 5.0]; 130];
        assert_bnl_bodies_agree(&block_of(&identical), "all identical");
        assert_bnl_bodies_agree(&score_tie_block(), "score ties");
        // every anti-diagonal row three times over, in three rounds
        let base = anti_block(150, 3, 7, 30, 2);
        let mut dups = PointBlock::new(3);
        for round in 0..3u64 {
            for i in 0..base.len() {
                dups.push(round * 1000 + i as u64, base.row(i)).unwrap();
            }
        }
        assert_bnl_bodies_agree(&dups, "exact duplicates");
        for seed in 0..4u64 {
            for (d, n) in [(1usize, 200usize), (2, 300), (3, 300), (6, 300)] {
                // small grid: partial ties everywhere; 0 drawn as a signed
                // zero; column 0 held constant
                let mut rng = StdRng::seed_from_u64(seed);
                let mut b = PointBlock::new(d);
                for i in 0..n {
                    let row: Vec<f64> = (0..d)
                        .map(|k| match (k, rng.gen_range(0..5u32)) {
                            (0, _) if d > 1 => 7.0,
                            (_, 0) if rng.gen_bool(0.5) => -0.0,
                            (_, v) => f64::from(v),
                        })
                        .collect();
                    b.push(i as u64, &row).unwrap();
                }
                assert_bnl_bodies_agree(&b, &format!("grid seed={seed} d={d}"));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn bnl_bodies_agree_on_random_blocks(
            (n, d, seed) in (0usize..300, 1usize..7, 0u64..1 << 32),
            (grid, noise, window) in (2u32..60, 0u32..5, 1usize..140),
        ) {
            let block = if d == 1 {
                random_block(n, 1, seed, grid)
            } else {
                anti_block(n, d, seed, grid, noise)
            };
            let what = format!("n={n} d={d} seed={seed} grid={grid} noise={noise}");
            assert_bnl_bodies_agree(&block, &what);
            let cfg = BnlConfig::with_window(window);
            let want = bnl_with::<FlatWindow>(&block, Some(window));
            let (sky, stats) = block_bnl_stats(&block, &cfg);
            proptest::prop_assert_eq!(bnl_fingerprint(&sky, &stats), want);
        }
    }

    #[test]
    fn lane_columns_swap_remove_refills_the_freed_lane() {
        // 70 incomparable rows, the last of which alone dominates `cand`
        let mut cols = LaneColumns::new(2);
        for i in 0..70 {
            cols.push(&[f64::from(i), f64::from(100 - i)]);
        }
        let cand = [69.5, 31.0];
        assert_eq!(cols.first_dominator(&cand, 0, cols.len), Some(69));
        cols.swap_remove(69);
        assert_eq!(
            cols.first_dominator(&cand, 0, cols.len),
            None,
            "freed last lane"
        );
        // remove row 3: row 68 moves into its place and its lane is freed
        cols.swap_remove(3);
        let mut row = [0.0; 2];
        cols.copy_row(3, &mut row);
        assert_eq!(row, [68.0, 32.0]);
        cols.copy_row(68, &mut row);
        assert_eq!(row, [f64::INFINITY; 2], "freed inner lane");
        let mut victims = Vec::new();
        assert_eq!(cols.dominator_or_victims(&[-1.0, -1.0], &mut victims), None);
        assert_eq!(victims, vec![!0, (1 << 4) - 1], "every live row, no pad");
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
