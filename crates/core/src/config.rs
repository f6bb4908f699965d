//! Algorithm selection and tuning knobs.

use skyline_algos::select::BlockKernel;

/// Which MapReduce skyline algorithm to run (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// One-dimensional range partitioning (Section III-A).
    MrDim,
    /// Multi-dimensional grid partitioning with dominated-cell pruning
    /// (Section III-B).
    MrGrid,
    /// The paper's angular partitioning (Section III-C, Algorithm 1).
    MrAngle,
    /// Hash partitioning — ablation baseline, not in the paper.
    MrRandom,
    /// Single-partition, single-server run through the same pipeline — the
    /// "conventional computer" baseline of the introduction.
    Sequential,
}

impl Algorithm {
    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::MrDim => "MR-Dim",
            Algorithm::MrGrid => "MR-Grid",
            Algorithm::MrAngle => "MR-Angle",
            Algorithm::MrRandom => "MR-Random",
            Algorithm::Sequential => "Sequential",
        }
    }

    /// The three algorithms the paper evaluates, in its plotting order.
    pub fn paper_trio() -> [Algorithm; 3] {
        [Algorithm::MrDim, Algorithm::MrGrid, Algorithm::MrAngle]
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs shared by all algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoConfig {
    /// Partition-count policy: `partitions = partitions_per_node × servers`
    /// (the paper: "the number of partitions is set as (2 × number of
    /// nodes)"). Overridden by `partitions_override`.
    pub partitions_per_node: usize,
    /// Explicit partition count, if set.
    pub partitions_override: Option<usize>,
    /// BNL window bound; `None` = unbounded (fits the 1 GB-heap model for
    /// the paper's dataset sizes).
    pub bnl_window: Option<usize>,
    /// Local-skyline kernel. `None` picks the cheapest kernel per
    /// partition at runtime from its cardinality, dimensionality and a
    /// sampled correlation estimate (see
    /// [`select_for_block`](skyline_algos::select::select_for_block)).
    /// Default `Some(Bnl)`, the paper's choice ("for its simplicity").
    pub kernel: Option<BlockKernel>,
    /// Enable MR-Grid's dominated-cell pruning (on by default; the ablation
    /// bench switches it off to measure its contribution).
    pub grid_pruning: bool,
    /// How many leading dimensions MR-Grid's lattice cuts; `0` means all.
    /// Default `2`, the paper's described "simplest case" grid (response
    /// time × cost). Cell pruning is only sound when all dimensions are cut,
    /// so values `< d` disable it implicitly.
    pub grid_dims: usize,
    /// Place MR-Angle's sector boundaries at empirical angle quantiles
    /// (load-balanced, the Vlachou et al. practice) instead of equal widths
    /// (the paper's Figure 3(c) drawing). Default `true`; the ablation bench
    /// measures the difference.
    pub angle_quantile: bool,
    /// Give MR-Dim and MR-Grid quantile-balanced splits (like MR-Angle's
    /// default) instead of the paper's equal-width ranges. Off by default —
    /// the paper's baselines are equal-width — and exercised by the fairness
    /// ablation: balanced baselines fix stragglers but still ship globally
    /// dominated candidates.
    pub baseline_quantile: bool,
    /// Hierarchical merge: when set, local-skyline candidates are first
    /// pre-merged by `fan_in`-way partial-merge jobs (parallel reducers)
    /// until at most `fan_in × threshold` candidates remain, and only then
    /// by the single-reducer merge of Algorithm 1. Attacks the serial-merge
    /// bottleneck the Figure-6 analysis exposes; not in the paper.
    pub merge_fan_in: Option<usize>,
    /// Run a map-side combiner in the merging job (each merge-map task
    /// pre-merges its slice of candidates before the single reducer). Not in
    /// the paper's Algorithm 1 — default `false` — but a strict improvement
    /// that parallelises the serial merge bottleneck; the ablation bench
    /// quantifies it.
    pub merge_combiner: bool,
    /// Filter-point broadcast: select this many strong candidates (the
    /// per-dimension minima plus smallest-L1 fillers) before the partitioning
    /// job, broadcast them to every map task, and drop any row one of them
    /// dominates before it is shuffled (the Ciaccia & Martinenghi
    /// "representative filter points" optimisation). `None` picks
    /// `max(8 × d, 16)` automatically (see [`auto_filter_points`]);
    /// `Some(0)` disables filtering.
    pub filter_k: Option<usize>,
    /// Witness-based partition pruning for *all* geometric schemes: a
    /// partition whose best reachable corner (sector lower bounds tightened
    /// by observed per-partition minima) is strictly dominated by a filter
    /// point living elsewhere skips its local-skyline task entirely.
    /// Generalises MR-Grid's dominated-cell pruning to angular sectors.
    pub sector_prune: bool,
    /// Streaming, barrier-free global merge: local skylines feed an
    /// incremental merge as reduce tasks complete instead of waiting for the
    /// reduce barrier, and the simulated timeline credits the overlap. The
    /// final result is bit-identical either way; off by default to preserve
    /// the paper's two-phase cost model.
    pub streaming_merge: bool,
    /// Zero-copy block shuffle: same-key value blocks are concatenated by
    /// ownership transfer *during* the shuffle (no clone, no second concat
    /// in the reducer). Bit-identical output; on by default. The seed
    /// semantics — one value per routed block — are restored by switching
    /// this off.
    pub owned_shuffle: bool,
    /// Reduce-input spill budget in (wire-accounted) bytes: any reduce
    /// input larger than this is spilled to disk right after the shuffle
    /// and reloaded just-in-time by its reduce task. `None` (default)
    /// keeps everything in memory.
    pub spill_budget_bytes: Option<u64>,
    /// Directory for spill files. `None` (default) uses a per-process
    /// directory under the system temp dir; set it explicitly when several
    /// jobs with identical names spill concurrently in one process.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        Self {
            partitions_per_node: 2,
            partitions_override: None,
            bnl_window: None,
            kernel: Some(BlockKernel::Bnl),
            grid_pruning: true,
            grid_dims: 2,
            angle_quantile: true,
            baseline_quantile: false,
            merge_fan_in: None,
            merge_combiner: false,
            filter_k: None,
            sector_prune: true,
            streaming_merge: false,
            owned_shuffle: true,
            spill_budget_bytes: None,
            spill_dir: None,
        }
    }
}

impl AlgoConfig {
    /// Partition count for a cluster of `servers`.
    pub fn partitions_for(&self, servers: usize) -> usize {
        self.partitions_override
            .unwrap_or(self.partitions_per_node * servers)
            .max(1)
    }

    /// Resolved filter-point count for a `d`-dimensional dataset: the
    /// explicit `filter_k` if set, otherwise `max(8 × d, 16)`. `0` means
    /// filtering is off.
    pub fn filter_points_for(&self, dims: usize) -> usize {
        self.filter_k.unwrap_or_else(|| auto_filter_points(dims))
    }
}

/// Automatic filter-point count for a `dims`-dimensional dataset:
/// `max(8 × d, 16)` — every per-dimension minimum plus enough low-L1
/// fillers that the sweep halves an anti-correlated shuffle, while still
/// a trivially small broadcast (the sweep costs `k` vectorized dominance
/// tests per input row; going much past this saturates: the extra fillers
/// are dominated regions the first few already cover).
pub fn auto_filter_points(dims: usize) -> usize {
    (8 * dims).max(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(Algorithm::MrDim.to_string(), "MR-Dim");
        assert_eq!(Algorithm::MrGrid.to_string(), "MR-Grid");
        assert_eq!(Algorithm::MrAngle.to_string(), "MR-Angle");
        assert_eq!(
            Algorithm::paper_trio().map(super::Algorithm::name),
            ["MR-Dim", "MR-Grid", "MR-Angle"]
        );
    }

    #[test]
    fn partition_policy_is_twice_nodes() {
        let cfg = AlgoConfig::default();
        assert_eq!(cfg.partitions_for(8), 16);
        assert_eq!(cfg.partitions_for(1), 2);
    }

    #[test]
    fn filter_k_defaults_scale_with_dimension() {
        let cfg = AlgoConfig::default();
        assert_eq!(cfg.filter_points_for(2), 16, "floor of 16");
        assert_eq!(cfg.filter_points_for(6), 48, "8 × d above the floor");
        let off = AlgoConfig {
            filter_k: Some(0),
            ..AlgoConfig::default()
        };
        assert_eq!(off.filter_points_for(6), 0, "explicit 0 disables");
        let fixed = AlgoConfig {
            filter_k: Some(3),
            ..AlgoConfig::default()
        };
        assert_eq!(fixed.filter_points_for(6), 3);
    }

    #[test]
    fn scale_knob_defaults() {
        let cfg = AlgoConfig::default();
        assert!(cfg.owned_shuffle, "owned shuffle defaults on");
        assert_eq!(cfg.spill_budget_bytes, None, "spilling defaults off");
        assert_eq!(cfg.spill_dir, None);
    }

    #[test]
    fn partition_override_wins() {
        let cfg = AlgoConfig {
            partitions_override: Some(5),
            ..AlgoConfig::default()
        };
        assert_eq!(cfg.partitions_for(8), 5);
        let zero = AlgoConfig {
            partitions_override: Some(0),
            ..AlgoConfig::default()
        };
        assert_eq!(zero.partitions_for(8), 1, "clamped to at least 1");
    }
}
