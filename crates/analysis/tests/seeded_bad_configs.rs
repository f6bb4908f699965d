//! Each seeded-bad configuration must trigger its documented diagnostic
//! code — the audit's regression suite against silent soundness rot.

use mini_mapreduce::{ClusterConfig, CostModel};
use mrsky_audit::plan::{audit_plan, PlanSpec};
use mrsky_audit::{Code, Severity};
use skyline_algos::partition::{
    AnglePartitioner, AxisProfile, BoundaryProfile, Bounds, GridPartitioner, PartitionSpace,
    SpacePartitioner,
};
use skyline_algos::point::Point;

/// A partitioner that claims 4 partitions but maps some points to id 7.
struct NotTotal;

impl SpacePartitioner for NotTotal {
    fn name(&self) -> &'static str {
        "bad-total"
    }
    fn dim(&self) -> usize {
        2
    }
    fn num_partitions(&self) -> usize {
        4
    }
    fn partition_of(&self, p: &Point) -> usize {
        if p.coord(0) > 50.0 {
            7
        } else {
            0
        }
    }
}

/// A partitioner publishing out-of-order boundaries.
struct BadBoundaries {
    boundaries: Vec<f64>,
    domain: (f64, f64),
    claimed: usize,
}

impl SpacePartitioner for BadBoundaries {
    fn name(&self) -> &'static str {
        "bad-bounds"
    }
    fn dim(&self) -> usize {
        2
    }
    fn num_partitions(&self) -> usize {
        self.claimed
    }
    fn partition_of(&self, p: &Point) -> usize {
        (self.boundaries.iter().filter(|&&b| b <= p.coord(0)).count()).min(self.claimed - 1)
    }
    fn boundary_profile(&self) -> BoundaryProfile {
        BoundaryProfile {
            scheme: self.name(),
            space: PartitionSpace::Cartesian,
            axes: vec![AxisProfile {
                coord: 0,
                domain: self.domain,
                boundaries: self.boundaries.clone(),
            }],
            origin: None,
        }
    }
}

/// Delegates to a sound grid fit but prunes cells it must not prune.
struct OverzealousPruner(GridPartitioner);

impl SpacePartitioner for OverzealousPruner {
    fn name(&self) -> &'static str {
        "bad-pruner"
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn num_partitions(&self) -> usize {
        self.0.num_partitions()
    }
    fn partition_of(&self, p: &Point) -> usize {
        self.0.partition_of(p)
    }
    fn prunable(&self, counts: &[usize]) -> Vec<bool> {
        // Prune the origin cell — the one cell that can never be dominated.
        let mut mask = vec![false; counts.len()];
        if let Some(m) = mask.first_mut() {
            *m = true;
        }
        mask
    }
    fn boundary_profile(&self) -> BoundaryProfile {
        self.0.boundary_profile()
    }
}

/// Delegates to a sound angular fit but sends sector 3's points to
/// sector 4.
struct StraySector(AnglePartitioner);

impl SpacePartitioner for StraySector {
    fn name(&self) -> &'static str {
        "bad-sector"
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn num_partitions(&self) -> usize {
        self.0.num_partitions()
    }
    fn partition_of(&self, p: &Point) -> usize {
        match self.0.partition_of(p) {
            3 => 4,
            id => id,
        }
    }
    fn boundary_profile(&self) -> BoundaryProfile {
        self.0.boundary_profile()
    }
}

fn spec_for<'a>(
    part: &'a dyn SpacePartitioner,
    bounds: &'a Bounds,
    cluster: &'a ClusterConfig,
    cost: &'a CostModel,
) -> PlanSpec<'a> {
    PlanSpec {
        partitioner: part,
        bounds,
        cluster,
        cost,
        reducers_job1: part.num_partitions(),
        grid_pruning: false,
        filter_k: 0,
        sector_prune: false,
        threads: 2,
        bnl_window: None,
    }
}

struct Fixture {
    bounds: Bounds,
    cluster: ClusterConfig,
    cost: CostModel,
}

impl Fixture {
    fn new() -> Self {
        Self {
            bounds: Bounds::zero_to(100.0, 2),
            cluster: ClusterConfig::new(4),
            cost: CostModel::default(),
        }
    }
}

fn assert_error_code(report: &mrsky_audit::AuditReport, code: Code) {
    let hits = report.with_code(code);
    assert!(
        !hits.is_empty(),
        "expected {code} in:\n{}",
        report.render_text()
    );
    assert!(
        hits.iter().any(|d| d.severity == Severity::Error),
        "{code} should be error-level:\n{}",
        report.render_text()
    );
}

#[test]
fn non_total_partitioner_triggers_mra001() {
    let f = Fixture::new();
    let part = NotTotal;
    let report = audit_plan(&spec_for(&part, &f.bounds, &f.cluster, &f.cost));
    assert_error_code(&report, Code::PartitionNotTotal);
}

#[test]
fn stray_sector_at_1e16_scale_triggers_mra001() {
    // The angular probes are built at the data's own scale, so a plan
    // whose coordinates sit at 1e16 (one ulp is 2) is still checked, not
    // waved through as unresolvable.
    let f = Fixture::new();
    let bounds = Bounds::new(vec![1e16, 1e16 - 800.0], vec![1e16 + 800.0, 1e16]);
    let part = StraySector(AnglePartitioner::fit(&bounds, 8).expect("angle fit"));
    let report = audit_plan(&spec_for(&part, &bounds, &f.cluster, &f.cost));
    assert_error_code(&report, Code::PartitionNotTotal);
    let sound = AnglePartitioner::fit(&bounds, 8).expect("angle fit");
    let report = audit_plan(&spec_for(&sound, &bounds, &f.cluster, &f.cost));
    assert!(!report.has_errors(), "{}", report.render_text());
}

#[test]
fn decreasing_boundaries_trigger_mra003() {
    let f = Fixture::new();
    let part = BadBoundaries {
        boundaries: vec![60.0, 30.0, 80.0],
        domain: (0.0, 100.0),
        claimed: 4,
    };
    let report = audit_plan(&spec_for(&part, &f.bounds, &f.cluster, &f.cost));
    assert_error_code(&report, Code::NonMonotonicBoundaries);
}

#[test]
fn out_of_domain_boundary_triggers_mra004() {
    let f = Fixture::new();
    let part = BadBoundaries {
        boundaries: vec![50.0, 130.0],
        domain: (0.0, 100.0),
        claimed: 3,
    };
    let report = audit_plan(&spec_for(&part, &f.bounds, &f.cluster, &f.cost));
    assert_error_code(&report, Code::BoundaryOutsideDomain);
}

#[test]
fn lattice_partition_count_mismatch_triggers_mra005() {
    let f = Fixture::new();
    // 3 boundaries → 4 lattice cells, but the partitioner claims 9.
    let part = BadBoundaries {
        boundaries: vec![25.0, 50.0, 75.0],
        domain: (0.0, 100.0),
        claimed: 9,
    };
    let report = audit_plan(&spec_for(&part, &f.bounds, &f.cluster, &f.cost));
    assert_error_code(&report, Code::IndexOverflow);
}

#[test]
fn unsound_pruning_triggers_mra006() {
    let f = Fixture::new();
    let grid = GridPartitioner::fit(&f.bounds, 4).expect("grid fit");
    let part = OverzealousPruner(grid);
    let mut spec = spec_for(&part, &f.bounds, &f.cluster, &f.cost);
    spec.grid_pruning = true;
    let report = audit_plan(&spec);
    assert_error_code(&report, Code::UnsoundPruning);
}

#[test]
fn zero_reducers_trigger_mra007() {
    let f = Fixture::new();
    let grid = GridPartitioner::fit(&f.bounds, 4).expect("grid fit");
    let mut spec = spec_for(&grid, &f.bounds, &f.cluster, &f.cost);
    spec.reducers_job1 = 0;
    let report = audit_plan(&spec);
    assert_error_code(&report, Code::ReducerMismatch);
}

#[test]
fn zero_slot_cluster_triggers_mra008() {
    let mut f = Fixture::new();
    f.cluster.map_slots_per_server = 0;
    let grid = GridPartitioner::fit(&f.bounds, 4).expect("grid fit");
    let report = audit_plan(&spec_for(&grid, &f.bounds, &f.cluster, &f.cost));
    assert_error_code(&report, Code::ZeroCapacityCluster);
}

#[test]
fn negative_cost_triggers_mra008() {
    let mut f = Fixture::new();
    f.cost.work_unit_cost = -1.0;
    let grid = GridPartitioner::fit(&f.bounds, 4).expect("grid fit");
    let report = audit_plan(&spec_for(&grid, &f.bounds, &f.cluster, &f.cost));
    assert_error_code(&report, Code::ZeroCapacityCluster);
}

#[test]
fn zero_bnl_window_triggers_mra008() {
    let f = Fixture::new();
    let grid = GridPartitioner::fit(&f.bounds, 4).expect("grid fit");
    let mut spec = spec_for(&grid, &f.bounds, &f.cluster, &f.cost);
    spec.bnl_window = Some(0);
    let report = audit_plan(&spec);
    assert_error_code(&report, Code::ZeroCapacityCluster);
    spec.bnl_window = Some(1);
    assert!(audit_plan(&spec)
        .with_code(Code::ZeroCapacityCluster)
        .is_empty());
}

#[test]
fn duplicate_boundaries_warn_mra010_without_blocking() {
    let f = Fixture::new();
    let part = BadBoundaries {
        boundaries: vec![50.0, 50.0, 75.0],
        domain: (0.0, 100.0),
        claimed: 4,
    };
    let report = audit_plan(&spec_for(&part, &f.bounds, &f.cluster, &f.cost));
    let hits = report.with_code(Code::DegenerateAxis);
    assert!(
        !hits.is_empty(),
        "expected MRA010:\n{}",
        report.render_text()
    );
    assert!(hits.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn excess_partitions_warn_mra011() {
    let f = Fixture::new();
    // 256 partitions against 4 servers × 2 reduce slots = 32 waves.
    let grid = GridPartitioner::fit(&f.bounds, 256).expect("grid fit");
    let report = audit_plan(&spec_for(&grid, &f.bounds, &f.cluster, &f.cost));
    assert!(
        !report.with_code(Code::ExcessPartitionWaves).is_empty(),
        "expected MRA011:\n{}",
        report.render_text()
    );
}
