//! The plan validator: proves partition soundness before a job runs.
//!
//! Given a fitted [`SpacePartitioner`] plus the runtime configuration it
//! will execute under, [`audit_plan`] emits structured diagnostics for
//! every soundness or sanity violation it can find *statically* — i.e.
//! without touching the dataset:
//!
//! - **interval reasoning** over the partitioner's [`BoundaryProfile`]:
//!   boundaries must be strictly monotonic and interior to their domain
//!   (`MRA003`, `MRA004`, `MRA010`), and the implied cell lattice must
//!   agree with the partitioner's own partition count without overflowing
//!   `usize` (`MRA005`);
//! - **exhaustive probing of the boundary lattice**: probe points are
//!   constructed on sector edges, on the `±ε` shoulders of every boundary,
//!   at interval midpoints, at domain corners, and outside the fitted
//!   domain, and the observed assignment is compared against an
//!   independently computed prediction from the profile (`MRA001`,
//!   `MRA002`, `MRA009`). For angular schemes the probes are built in
//!   angle space and pushed through the inverse hyperspherical transform,
//!   which also lets the audit verify radius invariance;
//! - **pruning conservativeness**: the dominance-based cell-pruning mask
//!   is re-derived geometrically from cell corners and any cell the
//!   partitioner would prune without a geometric dominator is flagged
//!   (`MRA006`, `MRA012`);
//! - **runtime cross-checks**: reducers vs partitions, cluster slot
//!   capacity, cost-model finiteness, a zero-row BNL window, reduce-wave
//!   explosion (`MRA007`, `MRA008`, `MRA011`).

use crate::diag::{AuditReport, Code, Diagnostic, Severity};
use mini_mapreduce::{ClusterConfig, CostModel};
use skyline_algos::hypersphere::{angles_of_row, to_cartesian, HyperPoint};
use skyline_algos::partition::{AxisProfile, BoundaryProfile, Bounds, PartitionSpace};
use skyline_algos::point::Point;
use skyline_algos::SpacePartitioner;
use std::borrow::Cow;

/// Everything the validator needs to know about a planned run.
pub struct PlanSpec<'a> {
    /// The fitted partition function job 1 will use.
    pub partitioner: &'a dyn SpacePartitioner,
    /// The data bounds the partitioner was fitted on.
    pub bounds: &'a Bounds,
    /// The simulated cluster the job runs on.
    pub cluster: &'a ClusterConfig,
    /// The calibrated cost model.
    pub cost: &'a CostModel,
    /// Reducer count for job 1 (the pipeline uses one per partition).
    pub reducers_job1: usize,
    /// Whether MR-Grid dominance-based cell pruning is requested.
    pub grid_pruning: bool,
    /// Resolved filter-point broadcast size for this run (`0` = map-side
    /// filtering off).
    pub filter_k: usize,
    /// Whether sector-witness partition pruning is requested.
    pub sector_prune: bool,
    /// Host threads driving the simulation.
    pub threads: usize,
    /// The local BNL window bound (`None` = unbounded).
    pub bnl_window: Option<usize>,
}

/// Hard cap on lattice probe combinations; beyond it the combinations are
/// deterministically subsampled (and the report says so via `probes`).
const PROBE_CAP: usize = 4096;
/// Cap on per-partition reachability probes.
const REACH_CAP: usize = 4096;
/// Cap on repeated diagnostics per code before summarising.
const EMIT_CAP: usize = 5;
/// Angular probes are kept this far from both hypersphere poles: at angle 0
/// the inverse transform collapses every later angle to 0, and at pi/2 the
/// cos factor underflows beneath the origin's ulp after translation into
/// data space — exact-pole probes cannot round-trip.
const ANGULAR_POLE_MARGIN: f64 = 1e-4;

/// Runs every check against `spec` and returns the findings.
pub fn audit_plan(spec: &PlanSpec<'_>) -> AuditReport {
    let mut report = AuditReport {
        scheme: spec.partitioner.name().to_string(),
        ..AuditReport::default()
    };
    let profile = spec.partitioner.boundary_profile();

    check_axes(&profile, &mut report);
    check_lattice(&profile, spec.partitioner, &mut report);
    check_runtime(spec, &mut report);
    check_pruning(spec, &profile, &mut report);
    check_filter(spec, &mut report);
    // Probing a lattice whose own description is inconsistent would drown
    // the report in derived mismatches; fix the profile errors first.
    if !report.has_errors() || profile.space == PartitionSpace::Opaque {
        probe_assignment(spec, &profile, &mut report);
    }
    report.sort();
    report
}

// ---------------------------------------------------------------- axes --

fn check_axes(profile: &BoundaryProfile, report: &mut AuditReport) {
    for (ai, axis) in profile.axes.iter().enumerate() {
        let subject = format!("axis {ai} (coord {})", axis.coord);
        let (lo, hi) = axis.domain;
        if !(lo.is_finite() && hi.is_finite()) || lo > hi {
            report.diagnostics.push(Diagnostic::new(
                Code::BoundaryOutsideDomain,
                Severity::Error,
                subject.clone(),
                format!("axis domain [{lo}, {hi}] is not a finite interval"),
            ));
            continue;
        }
        if lo == hi && !axis.boundaries.is_empty() {
            report.diagnostics.push(Diagnostic::new(
                Code::DegenerateAxis,
                Severity::Warning,
                subject.clone(),
                format!(
                    "domain is the single value {lo} but the axis is cut {} times",
                    axis.boundaries.len()
                ),
            ));
        }
        for (k, &b) in axis.boundaries.iter().enumerate() {
            if !b.is_finite() {
                report.diagnostics.push(Diagnostic::new(
                    Code::BoundaryOutsideDomain,
                    Severity::Error,
                    subject.clone(),
                    format!("boundary {k} is {b}"),
                ));
            } else if b < lo || b > hi {
                report.diagnostics.push(Diagnostic::new(
                    Code::BoundaryOutsideDomain,
                    Severity::Error,
                    subject.clone(),
                    format!("boundary {k} = {b} lies outside the domain [{lo}, {hi}]"),
                ));
            } else if b == lo || b == hi {
                report.diagnostics.push(Diagnostic::new(
                    Code::DegenerateAxis,
                    Severity::Warning,
                    subject.clone(),
                    format!(
                        "boundary {k} = {b} sits on the domain edge: an edge interval is empty"
                    ),
                ));
            }
        }
        for (k, w) in axis.boundaries.windows(2).enumerate() {
            if w[1] < w[0] {
                report.diagnostics.push(Diagnostic::new(
                    Code::NonMonotonicBoundaries,
                    Severity::Error,
                    subject.clone(),
                    format!(
                        "boundaries {k} and {} are out of order: {} > {}",
                        k + 1,
                        w[0],
                        w[1]
                    ),
                ));
            } else if w[1] == w[0] {
                report.diagnostics.push(Diagnostic::new(
                    Code::DegenerateAxis,
                    Severity::Warning,
                    subject.clone(),
                    format!(
                        "boundaries {k} and {} coincide at {}: the interval between them is empty",
                        k + 1,
                        w[0]
                    ),
                ));
            }
        }
    }
}

// ------------------------------------------------------------- lattice --

fn check_lattice(
    profile: &BoundaryProfile,
    partitioner: &dyn SpacePartitioner,
    report: &mut AuditReport,
) {
    let Some(implied) = profile.implied_partitions() else {
        return; // opaque: nothing to cross-check
    };
    if implied > usize::MAX as u128 {
        report.diagnostics.push(Diagnostic::new(
            Code::IndexOverflow,
            Severity::Error,
            "lattice",
            format!(
                "cell-index linearization needs {implied} cells, which overflows usize (max {})",
                usize::MAX
            ),
        ));
        return;
    }
    let actual = partitioner.num_partitions();
    if implied as usize != actual {
        report.diagnostics.push(Diagnostic::new(
            Code::IndexOverflow,
            Severity::Error,
            "lattice",
            format!(
                "boundary lattice implies {implied} partitions but the partitioner reports {actual}"
            ),
        ));
    }
}

// ------------------------------------------------------------- runtime --

fn check_runtime(spec: &PlanSpec<'_>, report: &mut AuditReport) {
    let np = spec.partitioner.num_partitions();
    if np == 0 {
        report.diagnostics.push(Diagnostic::new(
            Code::PartitionNotTotal,
            Severity::Error,
            "partitioner",
            "partitioner reports zero partitions: no point can be assigned",
        ));
    }
    if spec.reducers_job1 == 0 {
        report.diagnostics.push(Diagnostic::new(
            Code::ReducerMismatch,
            Severity::Error,
            "job 1",
            "zero reducers: the shuffle has nowhere to deliver partitions",
        ));
    } else if spec.reducers_job1 > np.max(1) {
        report.diagnostics.push(Diagnostic::new(
            Code::ReducerMismatch,
            Severity::Warning,
            "job 1",
            format!(
                "{} reducers for {np} partitions: {} reducers receive no input",
                spec.reducers_job1,
                spec.reducers_job1 - np
            ),
        ));
    }
    if let Err(problems) = spec.cluster.validate() {
        for p in problems {
            report.diagnostics.push(Diagnostic::new(
                Code::ZeroCapacityCluster,
                Severity::Error,
                "cluster",
                p,
            ));
        }
    }
    if let Err(problems) = spec.cost.validate() {
        for p in problems {
            report.diagnostics.push(Diagnostic::new(
                Code::ZeroCapacityCluster,
                Severity::Error,
                "cost model",
                p,
            ));
        }
    }
    if spec.threads == 0 {
        report.diagnostics.push(Diagnostic::new(
            Code::ZeroCapacityCluster,
            Severity::Error,
            "driver",
            "zero host threads: the simulation pool cannot run",
        ));
    }
    if spec.bnl_window == Some(0) {
        report.diagnostics.push(Diagnostic::new(
            Code::ZeroCapacityCluster,
            Severity::Error,
            "job 1",
            "zero-row BNL window: a local skyline cannot hold a single point",
        ));
    }
    let reduce_slots = spec.cluster.reduce_slots();
    if reduce_slots > 0 && np > 4 * reduce_slots {
        report.diagnostics.push(Diagnostic::new(
            Code::ExcessPartitionWaves,
            Severity::Warning,
            "job 1",
            format!(
                "{np} partitions on {reduce_slots} reduce slots runs {} reduce waves; \
                 per-task startup will dominate (paper policy is 2 × nodes)",
                np.div_ceil(reduce_slots)
            ),
        ));
    }
}

// ------------------------------------------------------------- pruning --

/// Interval `[inf, sup)` of cell `k` on an axis, extended to ±∞ at the
/// edges because out-of-domain points clamp into the edge cells.
fn cell_interval(axis: &AxisProfile, k: usize) -> (f64, f64) {
    let inf = if k == 0 {
        f64::NEG_INFINITY
    } else {
        axis.boundaries[k - 1]
    };
    let sup = if k == axis.boundaries.len() {
        f64::INFINITY
    } else {
        axis.boundaries[k]
    };
    (inf, sup)
}

fn check_pruning(spec: &PlanSpec<'_>, profile: &BoundaryProfile, report: &mut AuditReport) {
    let np = spec.partitioner.num_partitions();
    if np == 0 {
        return;
    }
    let splits: Vec<usize> = profile.axes.iter().map(AxisProfile::intervals).collect();
    let geometric_full = profile.space == PartitionSpace::Cartesian
        && !profile.axes.is_empty()
        && profile.axes.len() == spec.partitioner.dim()
        && splits.iter().product::<usize>() == np;

    // Scenario A: every cell populated. Scenario B: only cell 0 populated —
    // checks that the mask respects emptiness, not just geometry.
    let all_ones = vec![1usize; np];
    let mut only_first = vec![0usize; np];
    only_first[0] = 1;

    for (scenario, counts) in [
        ("all cells populated", &all_ones),
        ("only cell 0 populated", &only_first),
    ] {
        let mask = spec.partitioner.prunable(counts);
        if mask.len() != np {
            report.diagnostics.push(Diagnostic::new(
                Code::UnsoundPruning,
                Severity::Error,
                "prunable()",
                format!("mask has {} entries for {np} partitions", mask.len()),
            ));
            return;
        }
        let pruned: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| p.then_some(i))
            .collect();
        if pruned.is_empty() {
            continue;
        }
        if !geometric_full {
            report.diagnostics.push(Diagnostic::new(
                Code::UnsoundPruning,
                Severity::Error,
                format!("scenario: {scenario}"),
                format!(
                    "partitioner prunes {} cell(s) but exposes no full-dimension Cartesian \
                     lattice to justify dominance",
                    pruned.len()
                ),
            ));
            continue;
        }
        for h in pruned {
            let h_idx = delinearize(h, &splits);
            let dominated = (0..np).any(|g| {
                if g == h || counts[g] == 0 {
                    return false;
                }
                let g_idx = delinearize(g, &splits);
                profile.axes.iter().enumerate().all(|(a, axis)| {
                    let (_, g_sup) = cell_interval(axis, g_idx[a]);
                    let (h_inf, _) = cell_interval(axis, h_idx[a]);
                    g_sup <= h_inf
                })
            });
            if !dominated {
                report.diagnostics.push(Diagnostic::new(
                    Code::UnsoundPruning,
                    Severity::Error,
                    format!("cell {h} (scenario: {scenario})"),
                    "cell is pruned but no populated cell strictly dominates its every point"
                        .to_string(),
                ));
            }
        }
    }

    if spec.grid_pruning {
        let mask = spec.partitioner.prunable(&all_ones);
        if mask.iter().all(|&p| !p) {
            report.diagnostics.push(Diagnostic::new(
                Code::PruningUnavailable,
                Severity::Warning,
                "job 1",
                format!(
                    "grid pruning requested but the `{}` fit can never prune a cell \
                     (non-grid scheme or prefix grid with unconstrained dimensions)",
                    profile.scheme
                ),
            ));
        }
    }
}

// -------------------------------------------------------------- filter --

/// Number of deterministic probe points for the filter soundness check.
const FILTER_PROBES: usize = 256;

/// `a` strictly dominates `b`: the validator's own dominance oracle,
/// deliberately independent of the kernels the pipeline runs.
fn strictly_dominates(a: &[f64], b: &[f64]) -> bool {
    let mut any_lt = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        any_lt |= x < y;
    }
    any_lt
}

/// Dynamically proves, on a deterministic probe cloud inside the fitted
/// bounds, that the filter/witness-pruning configuration cannot drop a
/// true skyline point: no skyline probe may be dominated by a selected
/// filter point (the filter is *exact*, not approximate), and no skyline
/// probe may sit in a witness-pruned partition. Violations are `MRA013`
/// errors — they mean the run would silently return a wrong skyline.
fn check_filter(spec: &PlanSpec<'_>, report: &mut AuditReport) {
    if spec.filter_k == 0 && !spec.sector_prune {
        return;
    }
    let d = spec.partitioner.dim();
    let np = spec.partitioner.num_partitions();
    if d == 0 || np == 0 || spec.bounds.dim() < d {
        return;
    }
    if spec.sector_prune && spec.filter_k == 0 {
        report.diagnostics.push(Diagnostic::new(
            Code::UnsoundFilter,
            Severity::Warning,
            "job 1",
            "witness pruning is on while map-side filtering is off: the pipeline \
             falls back to automatically selected witness points",
        ));
    }

    // Deterministic probe cloud inside the fitted bounds (the same
    // SplitMix64 hash the lattice subsampler uses).
    let mut points: Vec<Point> = Vec::with_capacity(FILTER_PROBES);
    for id in 0..FILTER_PROBES {
        let coords: Vec<f64> = (0..d)
            .map(|i| {
                let h = splitmix64(0x5eed_f11e ^ ((id as u64) << 16) ^ i as u64);
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                spec.bounds.min(i) + u * spec.bounds.width(i)
            })
            .collect();
        points.push(Point::new(id as u64, coords));
    }
    let Ok(block) = skyline_algos::block::PointBlock::from_points(&points) else {
        return;
    };
    // The validator's own skyline of the probe cloud.
    let skyline: Vec<&Point> = points
        .iter()
        .filter(|p| {
            !points
                .iter()
                .any(|q| strictly_dominates(q.coords(), p.coords()))
        })
        .collect();

    // Mirrors the pipeline's fallback: with the filter off it still picks
    // `auto_filter_points(d)` witnesses for sector pruning.
    let witness_k = if spec.filter_k > 0 {
        spec.filter_k
    } else {
        (8 * d).max(16)
    };
    let filter = skyline_algos::filter::select_filter_points(&block, witness_k);

    if spec.filter_k > 0 {
        let mut emitted = 0usize;
        for p in &skyline {
            if skyline_algos::filter::filtered_out(&filter, p.coords()) && emitted < EMIT_CAP {
                emitted += 1;
                report.diagnostics.push(Diagnostic::new(
                    Code::UnsoundFilter,
                    Severity::Error,
                    format!("probe {}", p.id()),
                    format!(
                        "skyline probe {:?} is dropped by a broadcast filter point",
                        p.coords()
                    ),
                ));
            }
        }
    }

    if spec.sector_prune {
        let mut observed_min: Vec<Option<Vec<f64>>> = vec![None; np];
        for p in &points {
            let h = spec.partitioner.partition_of(p);
            match &mut observed_min[h] {
                Some(m) => {
                    for (mi, &v) in m.iter_mut().zip(p.coords()) {
                        *mi = mi.min(v);
                    }
                }
                None => observed_min[h] = Some(p.coords().to_vec()),
            }
        }
        let witnesses: Vec<(usize, Vec<f64>)> = filter
            .iter()
            .map(|(id, row)| (spec.partitioner.partition_of_row(id, row), row.to_vec()))
            .collect();
        let mask =
            skyline_algos::partition::witness_prunable(spec.partitioner, &observed_min, &witnesses);
        let mut emitted = 0usize;
        for p in &skyline {
            let h = spec.partitioner.partition_of(p);
            if mask.get(h).copied().unwrap_or(false) && emitted < EMIT_CAP {
                emitted += 1;
                report.diagnostics.push(Diagnostic::new(
                    Code::UnsoundFilter,
                    Severity::Error,
                    format!("partition {h}"),
                    format!(
                        "skyline probe {:?} sits in a witness-pruned partition",
                        p.coords()
                    ),
                ));
            }
        }
    }
    report.probes += FILTER_PROBES;
}

// ------------------------------------------------------------- probing --

/// One probe value on an axis with its independently predicted interval.
#[derive(Clone, Copy)]
struct ProbeValue {
    v: f64,
    /// `true` when the value sits on (or within ε of) a boundary: assignment
    /// mismatches become `MRA009` instead of `MRA001`, and for angular axes
    /// the prediction tolerates either side of the boundary.
    on_boundary: bool,
}

/// Predicted interval for `v` by the right-closed convention, computed from
/// the profile alone (independent of `partition_point`).
fn predicted_interval(axis: &AxisProfile, v: f64) -> usize {
    axis.boundaries.iter().filter(|&&b| b <= v).count()
}

fn axis_probe_values(axis: &AxisProfile, angular: bool) -> Vec<ProbeValue> {
    let (lo, hi) = axis.domain;
    let width = (hi - lo).abs().max(1e-9);
    let mut out = Vec::new();
    // Domain corners and, for data axes, out-of-domain clamp probes.
    out.push(ProbeValue {
        v: lo,
        on_boundary: false,
    });
    out.push(ProbeValue {
        v: hi,
        on_boundary: false,
    });
    if !angular {
        out.push(ProbeValue {
            v: lo - 0.1 * width,
            on_boundary: false,
        });
        out.push(ProbeValue {
            v: hi + 0.1 * width,
            on_boundary: false,
        });
    }
    // Interval midpoints (lattice interior).
    let mut cuts = Vec::with_capacity(axis.boundaries.len() + 2);
    cuts.push(lo);
    cuts.extend_from_slice(&axis.boundaries);
    cuts.push(hi);
    for w in cuts.windows(2) {
        if w[1] > w[0] {
            out.push(ProbeValue {
                v: 0.5 * (w[0] + w[1]),
                on_boundary: false,
            });
        }
    }
    // The boundary lattice itself plus ±ε shoulders. The angular ε is
    // coarser because probes round-trip through the hyperspherical
    // transform (atan2 of products of sines) before being re-assigned.
    for &b in &axis.boundaries {
        let eps = if angular {
            1e-6
        } else {
            (b.abs() * 1e-9).max(1e-12)
        };
        out.push(ProbeValue {
            v: b,
            on_boundary: true,
        });
        out.push(ProbeValue {
            v: b - eps,
            on_boundary: true,
        });
        out.push(ProbeValue {
            v: b + eps,
            on_boundary: true,
        });
    }
    if angular {
        // Both hypersphere poles are unrecoverable through the transform
        // round-trip: at angle 0 every later angle collapses to 0 in the
        // inverse transform, and at angle pi/2 the cos factor (~6e-17)
        // underflows beneath the origin's ulp once the probe is translated
        // into data space. Nudge all angular probes off both poles; the
        // prediction is computed on the nudged value, so this stays exact.
        for pv in &mut out {
            pv.v = pv.v.clamp(
                ANGULAR_POLE_MARGIN,
                std::f64::consts::FRAC_PI_2 - ANGULAR_POLE_MARGIN,
            );
        }
    }
    out
}

/// Row-major linearisation matching the partition lattice convention.
fn linearize(index: &[usize], splits: &[usize]) -> usize {
    let mut out = 0usize;
    for (&ix, &s) in index.iter().zip(splits) {
        out = out * s + ix;
    }
    out
}

fn delinearize(mut linear: usize, splits: &[usize]) -> Vec<usize> {
    let mut out = vec![0usize; splits.len()];
    for i in (0..splits.len()).rev() {
        out[i] = linear % splits[i];
        linear /= splits[i];
    }
    out
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Caps diagnostics of one code, appending a summary line once exceeded.
struct Emitter2<'r> {
    report: &'r mut AuditReport,
    emitted: std::collections::BTreeMap<Code, usize>,
}

impl Emitter2<'_> {
    fn emit(&mut self, d: Diagnostic) {
        let n = self.emitted.entry(d.code).or_insert(0);
        *n += 1;
        match (*n).cmp(&(EMIT_CAP + 1)) {
            std::cmp::Ordering::Less => self.report.diagnostics.push(d),
            std::cmp::Ordering::Equal => self.report.diagnostics.push(Diagnostic::new(
                d.code,
                d.severity,
                "…",
                format!("further {} findings suppressed", d.code),
            )),
            std::cmp::Ordering::Greater => {}
        }
    }
}

fn probe_assignment(spec: &PlanSpec<'_>, profile: &BoundaryProfile, report: &mut AuditReport) {
    let np = spec.partitioner.num_partitions();
    if np == 0 {
        return;
    }
    let d = spec.partitioner.dim();
    if spec.bounds.dim() != d {
        report.diagnostics.push(Diagnostic::new(
            Code::PartitionNotTotal,
            Severity::Error,
            "plan",
            format!(
                "bounds are {}-dimensional but the partitioner expects {d} dimensions",
                spec.bounds.dim()
            ),
        ));
        return;
    }
    let mut seen = vec![false; np];
    let mut probes = 0usize;
    {
        let mut emitter = Emitter2 {
            report,
            emitted: std::collections::BTreeMap::new(),
        };
        match profile.space {
            PartitionSpace::Opaque => {
                probes += probe_opaque(spec, np, &mut seen, &mut emitter);
            }
            PartitionSpace::Cartesian | PartitionSpace::Angular => {
                probes += probe_lattice(spec, profile, np, &mut seen, &mut emitter);
            }
        }
        let unreachable: Vec<usize> = seen
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| (!s).then_some(i))
            .collect();
        if !unreachable.is_empty() {
            emitter.emit(Diagnostic::new(
                Code::UnreachablePartition,
                Severity::Warning,
                "partition ids",
                format!(
                    "{} of {np} partition ids were never produced by any probe \
                     (first few: {:?}); those reducers will idle",
                    unreachable.len(),
                    &unreachable[..unreachable.len().min(8)]
                ),
            ));
        }
    }
    report.probes += probes;
}

fn probe_opaque(
    spec: &PlanSpec<'_>,
    np: usize,
    seen: &mut [bool],
    emitter: &mut Emitter2<'_>,
) -> usize {
    let d = spec.partitioner.dim();
    let n_probes = (64usize.saturating_mul(np)).clamp(1024, 65_536);
    for k in 0..n_probes {
        let coords: Vec<f64> = (0..d)
            .map(|i| {
                let u = splitmix64(k as u64 ^ ((i as u64) << 32)) as f64 / u64::MAX as f64;
                let (lo, hi) = (spec.bounds.min(i), spec.bounds.max(i));
                lo + (hi - lo) * u
            })
            .collect();
        let p = Point::new(k as u64, coords);
        let id = spec.partitioner.partition_of(&p);
        if id >= np {
            emitter.emit(Diagnostic::new(
                Code::PartitionNotTotal,
                Severity::Error,
                format!("probe {k}"),
                format!(
                    "point {:?} mapped to partition {id}, outside 0..{np}",
                    p.coords()
                ),
            ));
        } else {
            seen[id] = true;
        }
    }
    n_probes
}

#[allow(clippy::too_many_lines)]
fn probe_lattice(
    spec: &PlanSpec<'_>,
    profile: &BoundaryProfile,
    np: usize,
    seen: &mut [bool],
    emitter: &mut Emitter2<'_>,
) -> usize {
    let angular = profile.space == PartitionSpace::Angular;
    let splits: Vec<usize> = profile.axes.iter().map(AxisProfile::intervals).collect();
    let values: Vec<Vec<ProbeValue>> = profile
        .axes
        .iter()
        .map(|a| axis_probe_values(a, angular))
        .collect();

    // Assigns one probe, checking the observed partition id against the
    // profile's prediction.
    #[allow(clippy::too_many_arguments)] // plumbing fn local to probe_lattice
    fn run_probe(
        spec: &PlanSpec<'_>,
        profile: &BoundaryProfile,
        splits: &[usize],
        np: usize,
        combo: &[ProbeValue],
        label: &str,
        seen: &mut [bool],
        scale: &mut ProbeScale,
        emitter: &mut Emitter2<'_>,
    ) {
        let angular = profile.space == PartitionSpace::Angular;
        let per_axis: Vec<usize> = combo
            .iter()
            .zip(&profile.axes)
            .map(|(pv, axis)| predicted_interval(axis, pv.v))
            .collect();
        let point = build_probe_point(spec, profile, combo, scale.radius);
        let id = spec.partitioner.partition_of(&point);
        if id >= np {
            emitter.emit(Diagnostic::new(
                Code::PartitionNotTotal,
                Severity::Error,
                format!("probe {label}"),
                format!(
                    "point {:?} mapped to partition {id}, outside 0..{np}",
                    point.coords()
                ),
            ));
            return;
        }
        seen[id] = true;
        let on_boundary = combo.iter().any(|pv| pv.on_boundary);
        let predicted = linearize(&per_axis, splits);
        let acceptable = if angular {
            // The transform round-trip can move an angle by ~1 ulp, so a
            // probe sitting exactly on a boundary may legitimately land on
            // either side — and with *coincident* boundaries, several cells
            // away. Accept any cell adjacent to a boundary value within
            // tolerance of the probed angle: `BOUNDARY_TOL` at boundary
            // values, and at every probe twice the distance its point
            // really lies from the angles it was built for.
            let actual = delinearize(id, splits);
            // `drift` is empty before it is measured.
            let within = |drift: &[f64]| {
                actual
                    .iter()
                    .zip(&per_axis)
                    .zip(combo.iter().zip(&profile.axes))
                    .enumerate()
                    .all(|(i, ((&a, &p), (pv, axis)))| {
                        let drift = drift.get(i).copied().unwrap_or(0.0);
                        let tol = if pv.on_boundary { BOUNDARY_TOL } else { 0.0 } + 2.0 * drift;
                        let below = a.checked_sub(1).and_then(|j| axis.boundaries.get(j));
                        let above = axis.boundaries.get(a);
                        a == p
                            || below.is_some_and(|b| (b - pv.v).abs() <= tol)
                            || above.is_some_and(|b| (b - pv.v).abs() <= tol)
                    })
            };
            // The drift is measured only when the exact check fails, so a
            // clean plan pays nothing for it.
            within(&[]) || {
                let drift = angular_drift(spec, profile, combo, &point);
                within(&drift) && scale.accept(&drift)
            }
        } else {
            id == predicted
        };
        if !acceptable {
            let (code, what) = if on_boundary {
                (
                    Code::DisjointnessViolation,
                    "boundary ownership disagrees with the right-closed convention",
                )
            } else {
                (
                    Code::PartitionNotTotal,
                    "interior probe lands outside its lattice cell",
                )
            };
            emitter.emit(Diagnostic::new(
                code,
                Severity::Error,
                format!("probe {label}"),
                format!(
                    "{what}: point {:?} mapped to partition {id}, lattice predicts {predicted}",
                    point.coords()
                ),
            ));
        }
        // Angular partitioning must be radius-invariant: re-probe the same
        // angles at a different radius. A boundary between the angles the
        // two points really carry explains a split.
        if angular && !on_boundary {
            let far_radius = FAR_RADIUS * scale.radius;
            let far = build_probe_point(spec, profile, combo, far_radius);
            let far_id = spec.partitioner.partition_of(&far);
            let mut split_by_drift = || {
                let drift: Vec<f64> = angular_drift(spec, profile, combo, &point)
                    .iter()
                    .zip(angular_drift(spec, profile, combo, &far))
                    .map(|(&near, far)| near.max(far))
                    .collect();
                let straddled =
                    combo
                        .iter()
                        .zip(&profile.axes)
                        .zip(&drift)
                        .any(|((pv, axis), &drift)| {
                            axis.boundaries
                                .iter()
                                .any(|b| (b - pv.v).abs() <= 2.0 * drift)
                        });
                straddled && scale.accept(&drift)
            };
            if far_id != id && !split_by_drift() {
                emitter.emit(Diagnostic::new(
                    Code::DisjointnessViolation,
                    Severity::Error,
                    format!("probe {label}"),
                    format!(
                        "sector assignment is not radius-invariant: r={:.6e} maps to {id}, \
                         r={far_radius:.6e} maps to {far_id}",
                        scale.radius
                    ),
                ));
            }
        }
    }

    let mut probes = 0usize;
    let mut scale = ProbeScale::new(spec, profile);

    // Phase 1: the boundary-lattice product (capped, deterministic).
    if !values.is_empty() {
        let combos: u128 = values.iter().map(|v| v.len() as u128).product();
        let radices: Vec<usize> = values.iter().map(Vec::len).collect();
        let take = combos.min(PROBE_CAP as u128) as usize;
        for k in 0..take {
            let mut idx = if combos <= PROBE_CAP as u128 {
                k as u128
            } else {
                u128::from(splitmix64(k as u64)) % combos
            };
            let combo: Vec<ProbeValue> = radices
                .iter()
                .zip(&values)
                .rev()
                .map(|(&r, vals)| {
                    let i = (idx % r as u128) as usize;
                    idx /= r as u128;
                    vals[i]
                })
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            run_probe(
                spec,
                profile,
                &splits,
                np,
                &combo,
                &format!("lattice#{k}"),
                seen,
                &mut scale,
                emitter,
            );
            probes += 1;
        }
    } else {
        // No axes (1-D angular data): a couple of plain probes.
        let mid: Vec<f64> = (0..spec.partitioner.dim())
            .map(|i| 0.5 * (spec.bounds.min(i) + spec.bounds.max(i)))
            .collect();
        let id = spec.partitioner.partition_of(&Point::new(0, mid));
        if id >= np {
            emitter.emit(Diagnostic::new(
                Code::PartitionNotTotal,
                Severity::Error,
                "probe mid",
                format!("midpoint mapped to partition {id}, outside 0..{np}"),
            ));
        } else {
            seen[id] = true;
        }
        probes += 1;
    }

    // Phase 2: one midpoint probe per cell, so reachability is decided by
    // construction rather than by luck of the subsample.
    if !values.is_empty() && np <= REACH_CAP {
        for cell in 0..np {
            let cell_idx = delinearize(cell, &splits);
            let combo: Vec<ProbeValue> = cell_idx
                .iter()
                .zip(&profile.axes)
                .map(|(&k, axis)| {
                    let (inf, sup) = cell_interval(axis, k);
                    let (lo, hi) = axis.domain;
                    let inf = inf.max(lo);
                    let sup = sup.min(hi);
                    // An empty cell (coincident boundaries, or a boundary on
                    // the domain edge) has no interior: its "midpoint" sits
                    // on a boundary, so it needs boundary tolerance and no
                    // radius-invariance check.
                    let degenerate = sup - inf <= 1e-9 * (hi - lo).abs().max(1.0);
                    let mut v = 0.5 * (inf + sup);
                    if angular && hi - lo > 2.0 * ANGULAR_POLE_MARGIN {
                        v = v.clamp(lo + ANGULAR_POLE_MARGIN, hi - ANGULAR_POLE_MARGIN);
                    }
                    let near_boundary = axis.boundaries.iter().any(|&b| (b - v).abs() <= 1e-6);
                    ProbeValue {
                        v,
                        on_boundary: degenerate || near_boundary,
                    }
                })
                .collect();
            run_probe(
                spec,
                profile,
                &splits,
                np,
                &combo,
                &format!("cell#{cell}"),
                seen,
                &mut scale,
                emitter,
            );
            probes += 1;
        }
    }

    scale.report(profile, emitter);
    probes
}

/// Acceptance tolerance, in radians, for an angular probe built on or
/// next to a boundary.
const BOUNDARY_TOL: f64 = 2e-6;
/// Radius of the radius-invariance re-probe, in units of the probe radius.
const FAR_RADIUS: f64 = 37.5;

/// The scale angular probes are built at, and what they could not
/// resolve there.
///
/// A probe at radius `r` around an origin `o` lands on a data-space grid
/// of spacing `ulp(|o| + r)`, so its angles can move by about that over
/// `r`. Built at radius 1, a probe around an origin at 1e16 collapses onto
/// the origin; so the radius is the profiled data's own extent. What is
/// still left unresolved (a boundary closer to a probe than the probe's
/// rounding) is accepted and reported once per axis as a warning.
struct ProbeScale {
    /// Probe radius: the data's largest extent from the fitted origin.
    radius: f64,
    /// Per angular axis, the largest drift a probe was accepted at.
    drift: Vec<f64>,
    /// Probes accepted only at their measured drift.
    rescued: usize,
}

impl ProbeScale {
    fn new(spec: &PlanSpec<'_>, profile: &BoundaryProfile) -> Self {
        let origin = probe_origin(spec, profile);
        let radius = origin
            .iter()
            .enumerate()
            .map(|(i, &o)| spec.bounds.max(i) - o)
            .fold(0.0, f64::max);
        Self {
            radius: if radius.is_finite() && radius > 0.0 {
                radius
            } else {
                1.0
            },
            drift: vec![0.0; profile.axes.len()],
            rescued: 0,
        }
    }

    /// Records a probe accepted at `drift`; always `true`.
    fn accept(&mut self, drift: &[f64]) -> bool {
        for (max, &d) in self.drift.iter_mut().zip(drift) {
            *max = max.max(d);
        }
        self.rescued += 1;
        true
    }

    fn report(&self, profile: &BoundaryProfile, emitter: &mut Emitter2<'_>) {
        for (axis, &drift) in profile.axes.iter().zip(&self.drift) {
            if drift == 0.0 {
                continue;
            }
            let narrow = axis
                .boundaries
                .windows(2)
                .filter(|w| w[1] > w[0] && w[1] - w[0] <= 2.0 * drift)
                .count();
            emitter.emit(Diagnostic::new(
                Code::DegenerateAxis,
                Severity::Warning,
                format!("axis {} (angle)", axis.coord),
                format!(
                    "at this data's scale (probe radius {:.3e}) a probe's angles move by up \
                     to {drift:.1e} rad: {} probe(s) straddled a boundary that close and \
                     were accepted, and {narrow} boundary gap(s) are narrower than a probe \
                     resolves",
                    self.radius, self.rescued
                ),
            ));
        }
    }
}

/// The origin angular probes are translated by: the profile's fitted
/// origin, else the bounds' minimum corner.
fn probe_origin<'p>(spec: &PlanSpec<'_>, profile: &'p BoundaryProfile) -> Cow<'p, [f64]> {
    match &profile.origin {
        Some(origin) => Cow::Borrowed(origin),
        None => Cow::Owned(
            (0..spec.partitioner.dim())
                .map(|i| spec.bounds.min(i))
                .collect(),
        ),
    }
}

/// Per angular axis, how far the angles `point` really carries (Eq. 1
/// over the point translated to the probe origin) lie from the angles
/// `combo` built it for.
fn angular_drift(
    spec: &PlanSpec<'_>,
    profile: &BoundaryProfile,
    combo: &[ProbeValue],
    point: &Point,
) -> Vec<f64> {
    let shifted: Vec<f64> = point
        .coords()
        .iter()
        .zip(probe_origin(spec, profile).iter())
        .map(|(&c, &o)| c - o)
        .collect();
    let mut angles = vec![0.0; combo.len()];
    angles_of_row(&shifted, &mut angles);
    angles
        .iter()
        .zip(combo)
        .map(|(&a, pv)| (a - pv.v).abs())
        .collect()
}

/// Materialises a probe from per-axis values: directly as coordinates for
/// Cartesian profiles, through the inverse hyperspherical transform (at
/// radius `r`, translated back by the fitted origin) for angular ones.
fn build_probe_point(
    spec: &PlanSpec<'_>,
    profile: &BoundaryProfile,
    combo: &[ProbeValue],
    r: f64,
) -> Point {
    let d = spec.partitioner.dim();
    match profile.space {
        PartitionSpace::Angular => {
            let angles: Vec<f64> = combo
                .iter()
                .map(|pv| pv.v.clamp(0.0, std::f64::consts::FRAC_PI_2))
                .collect();
            debug_assert_eq!(angles.len(), d - 1);
            let h = HyperPoint {
                id: 0,
                r,
                angles: angles.into_boxed_slice(),
            };
            let cart = to_cartesian(&h);
            let coords: Vec<f64> = cart
                .coords()
                .iter()
                .zip(probe_origin(spec, profile).iter())
                .map(|(&c, &o)| c + o)
                .collect();
            Point::new(0, coords)
        }
        _ => {
            // Unprofiled dimensions sit at the bounds midpoint; they must
            // not influence the assignment.
            let mut coords: Vec<f64> = (0..d)
                .map(|i| 0.5 * (spec.bounds.min(i) + spec.bounds.max(i)))
                .collect();
            for (pv, axis) in combo.iter().zip(&profile.axes) {
                coords[axis.coord] = pv.v;
            }
            Point::new(0, coords)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_algos::partition::{
        AnglePartitioner, DimPartitioner, GridPartitioner, RandomPartitioner,
    };

    fn spec_for<'a>(
        partitioner: &'a dyn SpacePartitioner,
        bounds: &'a Bounds,
        cluster: &'a ClusterConfig,
        cost: &'a CostModel,
    ) -> PlanSpec<'a> {
        PlanSpec {
            partitioner,
            bounds,
            cluster,
            cost,
            reducers_job1: partitioner.num_partitions(),
            grid_pruning: false,
            filter_k: 0,
            sector_prune: false,
            threads: 2,
            bnl_window: None,
        }
    }

    fn audit_default(partitioner: &dyn SpacePartitioner, bounds: &Bounds) -> AuditReport {
        let cluster = ClusterConfig::new(4);
        let cost = CostModel::default();
        audit_plan(&spec_for(partitioner, bounds, &cluster, &cost))
    }

    #[test]
    fn all_four_schemes_pass_clean_on_valid_fits() {
        let bounds = Bounds::zero_to(10.0, 3);
        let dim = DimPartitioner::fit(&bounds, 8).unwrap();
        let grid = GridPartitioner::fit(&bounds, 8).unwrap();
        let angle = AnglePartitioner::fit(&bounds, 8).unwrap();
        let random = RandomPartitioner::with_seed(3, 8, 42).unwrap();
        for (name, report) in [
            ("dim", audit_default(&dim, &bounds)),
            ("grid", audit_default(&grid, &bounds)),
            ("angle", audit_default(&angle, &bounds)),
            ("random", audit_default(&random, &bounds)),
        ] {
            assert!(
                !report.has_errors(),
                "{name} fit should audit clean:\n{}",
                report.render_text()
            );
            assert!(report.probes > 0, "{name} audit must actually probe");
        }
    }

    #[test]
    fn filter_and_witness_pruning_audit_clean_on_every_scheme() {
        let bounds = Bounds::zero_to(10.0, 3);
        let dim = DimPartitioner::fit(&bounds, 8).unwrap();
        let grid = GridPartitioner::fit(&bounds, 8).unwrap();
        let angle = AnglePartitioner::fit(&bounds, 8).unwrap();
        let random = RandomPartitioner::with_seed(3, 8, 42).unwrap();
        let cluster = ClusterConfig::new(4);
        let cost = CostModel::default();
        for (name, p) in [
            ("dim", &dim as &dyn SpacePartitioner),
            ("grid", &grid),
            ("angle", &angle),
            ("random", &random),
        ] {
            let mut spec = spec_for(p, &bounds, &cluster, &cost);
            spec.filter_k = 8;
            spec.sector_prune = true;
            let report = audit_plan(&spec);
            assert!(
                report.with_code(Code::UnsoundFilter).is_empty(),
                "{name}: exact filter + witness pruning must audit clean:\n{}",
                report.render_text()
            );
            assert!(!report.has_errors(), "{name}:\n{}", report.render_text());
        }
    }

    #[test]
    fn witness_pruning_without_filter_warns() {
        let bounds = Bounds::zero_to(10.0, 3);
        let grid = GridPartitioner::fit(&bounds, 8).unwrap();
        let cluster = ClusterConfig::new(4);
        let cost = CostModel::default();
        let mut spec = spec_for(&grid, &bounds, &cluster, &cost);
        spec.filter_k = 0;
        spec.sector_prune = true;
        let report = audit_plan(&spec);
        let hits = report.with_code(Code::UnsoundFilter);
        assert_eq!(hits.len(), 1, "{}", report.render_text());
        assert_eq!(hits[0].severity, Severity::Warning);
        assert!(!report.has_errors());
    }

    #[test]
    fn reducer_and_cluster_misconfigurations_are_flagged() {
        let bounds = Bounds::zero_to(1.0, 2);
        let grid = GridPartitioner::fit(&bounds, 4).unwrap();
        let mut cluster = ClusterConfig::new(2);
        cluster.reduce_slots_per_server = 0;
        let cost = CostModel {
            task_startup: f64::NAN,
            ..CostModel::default()
        };
        let mut spec = spec_for(&grid, &bounds, &cluster, &cost);
        spec.reducers_job1 = 0;
        spec.threads = 0;
        let report = audit_plan(&spec);
        assert!(!report.with_code(Code::ReducerMismatch).is_empty());
        assert!(report.with_code(Code::ZeroCapacityCluster).len() >= 3);
        assert!(report.has_errors());
    }

    #[test]
    fn excess_partitions_warn_about_reduce_waves() {
        let bounds = Bounds::zero_to(1.0, 2);
        let grid = GridPartitioner::fit(&bounds, 256).unwrap();
        let report = audit_default(&grid, &bounds);
        assert!(!report.with_code(Code::ExcessPartitionWaves).is_empty());
        assert!(!report.has_errors(), "waves are a warning, not an error");
    }

    #[test]
    fn prefix_grid_with_pruning_requested_warns_unavailable() {
        let bounds = Bounds::zero_to(1.0, 4);
        let grid = GridPartitioner::fit_on_dims(&bounds, 4, 2).unwrap();
        let cluster = ClusterConfig::new(4);
        let cost = CostModel::default();
        let mut spec = spec_for(&grid, &bounds, &cluster, &cost);
        spec.grid_pruning = true;
        let report = audit_plan(&spec);
        assert!(!report.with_code(Code::PruningUnavailable).is_empty());
        assert!(!report.has_errors());
    }

    /// The score-tie family: 200 L1 pairs on an anti-diagonal at 1e16,
    /// where one data-space ulp is 2.
    fn score_tie_points() -> Vec<Point> {
        (0..400u64)
            .map(|i| {
                let k = (i % 200) as f64;
                let lift = if i < 200 { 2.0 } else { 0.0 };
                Point::new(i, vec![1e16 + 4.0 * k, 1e16 - 4.0 * k + lift])
            })
            .collect()
    }

    #[test]
    fn angle_fits_at_1e16_scale_audit_clean() {
        // Probes built at radius 1 collapsed onto the origin here and
        // refused every one of these exact plans.
        let pts = score_tie_points();
        let bounds = Bounds::from_points(&pts).unwrap();
        for partitions in [2, 8, 16, 64] {
            for angle in [
                AnglePartitioner::fit_quantile(&pts, partitions).unwrap(),
                AnglePartitioner::fit(&bounds, partitions).unwrap(),
            ] {
                let report = audit_default(&angle, &bounds);
                assert!(
                    !report.has_errors(),
                    "{partitions} sectors:\n{}",
                    report.render_text()
                );
            }
        }
    }

    #[test]
    fn boundaries_closer_than_a_probe_resolves_only_warn() {
        // Two boundaries 1e-4 rad apart around an origin at 1e16 with a
        // data extent of 800: a probe's angles round by about 2/800 rad,
        // so the cell between them cannot be hit on purpose.
        struct TwoDSectors {
            origin: Vec<f64>,
            boundaries: Vec<f64>,
        }
        impl SpacePartitioner for TwoDSectors {
            fn name(&self) -> &'static str {
                "two-d-sectors"
            }
            fn dim(&self) -> usize {
                2
            }
            fn num_partitions(&self) -> usize {
                self.boundaries.len() + 1
            }
            fn partition_of(&self, p: &Point) -> usize {
                let x = (p.coord(0) - self.origin[0]).max(0.0);
                let y = (p.coord(1) - self.origin[1]).max(0.0);
                let a = y.atan2(x);
                self.boundaries.partition_point(|&b| b <= a)
            }
            fn boundary_profile(&self) -> BoundaryProfile {
                BoundaryProfile {
                    scheme: self.name(),
                    space: PartitionSpace::Angular,
                    axes: vec![AxisProfile {
                        coord: 0,
                        domain: (0.0, std::f64::consts::FRAC_PI_2),
                        boundaries: self.boundaries.clone(),
                    }],
                    origin: Some(self.origin.clone()),
                }
            }
        }
        let pts = score_tie_points();
        let bounds = Bounds::from_points(&pts).unwrap();
        let sectors = TwoDSectors {
            origin: vec![bounds.min(0), bounds.min(1)],
            boundaries: vec![0.4, 0.8, 0.8 + 1e-4],
        };
        let report = audit_default(&sectors, &bounds);
        assert!(!report.has_errors(), "{}", report.render_text());
        let warned = report.with_code(Code::DegenerateAxis);
        assert!(
            warned
                .iter()
                .any(|d| d.message.contains("narrower than a probe")),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn quantile_fits_audit_clean_on_skewed_data() {
        // Quantile boundaries on skewed data exercise the degenerate-axis
        // warnings without ever producing errors.
        let pts: Vec<Point> = (0..500)
            .map(|i| {
                let x = if i % 7 == 0 { 50.0 } else { f64::from(i % 13) };
                Point::new(i as u64, vec![x, f64::from(i % 11), 1.0 + f64::from(i % 3)])
            })
            .collect();
        let bounds = Bounds::from_points(&pts).unwrap();
        let angle = AnglePartitioner::fit_quantile(&pts, 8).unwrap();
        let grid = GridPartitioner::fit_quantile(&pts, 8, 3).unwrap();
        for (name, report) in [
            ("angle", audit_default(&angle, &bounds)),
            ("grid", audit_default(&grid, &bounds)),
        ] {
            assert!(
                !report.has_errors(),
                "{name} quantile fit should audit clean:\n{}",
                report.render_text()
            );
        }
    }
}
