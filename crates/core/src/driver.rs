//! The [`SkylineJob`] façade: algorithm + cluster + knobs → one call.

use crate::algorithms::{
    build_partitioner, map_work_per_point, run_two_job_pipeline, PipelineOptions,
};
use crate::checkpoint::{dataset_fingerprint, CheckpointStore, Manifest};
use crate::config::{AlgoConfig, Algorithm};
use crate::report::SkylineRunReport;
use mini_mapreduce::cost::CostModel;
use mini_mapreduce::runtime::ClusterConfig;
use mrsky_audit::plan::{audit_plan, PlanSpec};
use mrsky_audit::AuditReport;
use mrsky_chaos::{FaultPlan, KillSwitch};
use mrsky_trace::Tracer;
use qws_data::Dataset;
use skyline_algos::metrics::{load_balance, local_skyline_optimality};
use skyline_algos::point::Point;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// Why a checked run did not run: the plan failed its audit, or the
/// checkpoint directory cannot serve the run.
#[derive(Debug)]
pub enum RunError {
    /// The plan audit found error-level diagnostics (and
    /// [`SkylineJob::force`] is off), or the partitioner could not be
    /// fitted.
    Audit(AuditReport),
    /// The checkpoint directory cannot be opened, read or written, or it
    /// was written by a different run.
    Checkpoint {
        /// The directory.
        dir: PathBuf,
        /// What went wrong, naming the directory.
        message: String,
    },
}

impl RunError {
    /// Multi-line human rendering: the audit report's own text, or one
    /// line naming the checkpoint directory and its fault.
    pub fn render_text(&self) -> String {
        match self {
            RunError::Audit(report) => report.render_text(),
            RunError::Checkpoint { message, .. } => message.clone(),
        }
    }
}

/// Finished partitions' local skylines read back from checkpoints, by
/// partition id.
type Restored = BTreeMap<u64, Vec<Point>>;

/// A configured skyline-selection job, reusable across datasets.
#[derive(Clone)]
pub struct SkylineJob {
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Simulated cluster.
    pub cluster: ClusterConfig,
    /// Algorithm knobs.
    pub config: AlgoConfig,
    /// Cost model (leave default for paper-comparable timings).
    pub cost: CostModel,
    /// Host threads for real execution (`0` = all cores).
    pub threads: usize,
    /// Run even when the plan audit reports error-level diagnostics.
    pub force: bool,
    /// Structured-event tracer threaded through the whole pipeline
    /// (simulator lifecycle, kernels, partition skylines). Disabled by
    /// default; see [`SkylineJob::with_tracer`].
    pub tracer: Tracer,
    /// Seeded fault-injection plan ([`FaultPlan::off`] by default). Faults
    /// genuinely re-execute work; `kill_after_checkpoints` simulates a
    /// driver crash that [`SkylineJob::run_resilient`] recovers from.
    pub chaos: FaultPlan,
    /// Directory for per-partition local-skyline checkpoints. `None`
    /// (default) disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from `checkpoint_dir`: restore finished partitions instead
    /// of recomputing them. Requires a matching manifest (same algorithm,
    /// dataset, and partition count) — anything else is refused loudly.
    pub resume: bool,
}

impl SkylineJob {
    /// A job for `algorithm` on a cluster of `servers` with default knobs.
    /// `Sequential` forces a single server regardless of the argument.
    pub fn new(algorithm: Algorithm, servers: usize) -> Self {
        let servers = if algorithm == Algorithm::Sequential {
            1
        } else {
            servers
        };
        Self {
            algorithm,
            cluster: ClusterConfig::new(servers),
            config: AlgoConfig::default(),
            cost: CostModel::default(),
            threads: 0,
            force: false,
            tracer: Tracer::disabled(),
            chaos: FaultPlan::off(),
            checkpoint_dir: None,
            resume: false,
        }
    }

    /// Builder: overrides the algorithm knobs.
    pub fn with_config(mut self, config: AlgoConfig) -> Self {
        self.config = config;
        self
    }

    /// Builder: runs even when the plan audit reports errors.
    pub fn with_force(mut self, force: bool) -> Self {
        self.force = force;
        self
    }

    /// Builder: attaches a structured-event tracer. Every simulated job,
    /// kernel invocation, and partition skyline of subsequent runs emits
    /// into it.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Builder: arms a seeded fault-injection plan. Chaos faults make real
    /// code paths panic, error, and re-execute.
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Builder: enables per-partition local-skyline checkpoints in `dir`.
    pub fn with_checkpoints(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Builder: resume the next run from the checkpoint directory.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Audits the plan this job would execute over `dataset` — the fitted
    /// partitioner's totality/disjointness, pruning soundness, and the
    /// cluster/scheduler/cost configuration — without running anything.
    pub fn audit(&self, dataset: &Dataset) -> AuditReport {
        let partitioner =
            match build_partitioner(self.algorithm, &self.config, dataset, self.cluster.servers) {
                Ok(p) => p,
                Err(e) => return self.fit_failure_report(&e),
            };
        self.audit_with(&partitioner, dataset)
    }

    /// A fit failure means there is no partition function at all — report it
    /// as the (vacuous) totality violation so callers see one shape.
    fn fit_failure_report(&self, e: &skyline_algos::SkylineError) -> AuditReport {
        AuditReport {
            scheme: self.algorithm.name().to_string(),
            probes: 0,
            diagnostics: vec![mrsky_audit::Diagnostic::new(
                mrsky_audit::Code::PartitionNotTotal,
                mrsky_audit::Severity::Error,
                "partitioner fit",
                format!("partitioner could not be fitted: {e}"),
            )],
        }
    }

    fn audit_with(
        &self,
        partitioner: &std::sync::Arc<dyn skyline_algos::SpacePartitioner>,
        dataset: &Dataset,
    ) -> AuditReport {
        let bounds = dataset.bounds();
        let spec = PlanSpec {
            partitioner: partitioner.as_ref(),
            bounds,
            cluster: &self.cluster,
            cost: &self.cost,
            // Job 1 configures one reduce task per partition (see
            // `run_two_job_pipeline`).
            reducers_job1: partitioner.num_partitions(),
            grid_pruning: self.config.grid_pruning && self.algorithm == Algorithm::MrGrid,
            filter_k: self.config.filter_points_for(dataset.dim()),
            sector_prune: self.config.sector_prune,
            threads: self.threads.max(1),
            bnl_window: self.config.bnl_window,
        };
        audit_plan(&spec)
    }

    /// Audits the plan first and only runs it when no error-level
    /// diagnostics were found (or [`SkylineJob::force`] is set). The failed
    /// audit, or a checkpoint directory that cannot serve the run, comes
    /// back in `Err` for inspection/rendering.
    pub fn run_checked(&self, dataset: &Dataset) -> Result<SkylineRunReport, Box<RunError>> {
        let kill = self
            .chaos
            .kill_after_checkpoints
            .map(|n| Arc::new(KillSwitch::new(n)));
        self.run_checked_with(dataset, kill)
    }

    fn run_checked_with(
        &self,
        dataset: &Dataset,
        kill: Option<Arc<KillSwitch>>,
    ) -> Result<SkylineRunReport, Box<RunError>> {
        let partitioner =
            match build_partitioner(self.algorithm, &self.config, dataset, self.cluster.servers) {
                Ok(p) => p,
                // A failed fit cannot be forced past: there is nothing to run.
                Err(e) => return Err(Box::new(RunError::Audit(self.fit_failure_report(&e)))),
            };
        let report = self.audit_with(&partitioner, dataset);
        if report.has_errors() && !self.force {
            return Err(Box::new(RunError::Audit(report)));
        }
        self.run_with(partitioner, dataset, kill)
    }

    /// Runs the job surviving the chaos plan's simulated driver crash:
    /// when `chaos.kill_after_checkpoints` fires mid-run, the unwind is
    /// caught here and the job re-runs with `--resume` semantics, restoring
    /// every checkpointed partition instead of recomputing it. Panics that
    /// are *not* the simulated crash propagate unchanged — a real bug still
    /// crashes loudly.
    pub fn run_resilient(&self, dataset: &Dataset) -> Result<SkylineRunReport, Box<RunError>> {
        let kill = self
            .chaos
            .kill_after_checkpoints
            .map(|n| Arc::new(KillSwitch::new(n)));
        let mut job = self.clone();
        let mut run = 1u64;
        loop {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                job.run_checked_with(dataset, kill.clone())
            }));
            match outcome {
                Ok(result) => return result,
                // The kill switch fires at most once per arm, so the resumed
                // iteration always completes (or fails for a real reason).
                Err(payload) => match &kill {
                    Some(k) if k.should_abort() => {
                        k.disarm();
                        job.resume = true;
                        run += 1;
                        // the marker tells trace consumers the torn stream
                        // before it was a simulated crash, not a schema bug
                        self.tracer
                            .emit(|| mrsky_trace::EventKind::RunResumed { run });
                    }
                    _ => resume_unwind(payload),
                },
            }
        }
    }

    /// Runs the job over `dataset`, producing a full report.
    ///
    /// # Panics
    ///
    /// Panics when the plan audit finds error-level diagnostics and
    /// [`SkylineJob::force`] is not set, or when the checkpoint directory
    /// cannot serve the run; use [`SkylineJob::run_checked`] to handle
    /// those cases without unwinding.
    pub fn run(&self, dataset: &Dataset) -> SkylineRunReport {
        match self.run_checked(dataset) {
            Ok(report) => report,
            Err(e) => panic!(
                "refusing to run (set force to override an unsound plan):\n{}",
                e.render_text()
            ),
        }
    }

    /// Opens, validates, and (for fresh runs) resets the checkpoint store,
    /// and reads back a resumed run's finished partitions. Checkpoints
    /// from a different algorithm/dataset/partitioning are refused on
    /// resume — restoring them would corrupt the result.
    fn open_checkpoints(
        &self,
        partitioner: &std::sync::Arc<dyn skyline_algos::SpacePartitioner>,
        dataset: &Dataset,
    ) -> Result<(Option<Arc<CheckpointStore>>, Restored), Box<RunError>> {
        let Some(dir) = self.checkpoint_dir.as_ref() else {
            return Ok((None, BTreeMap::new()));
        };
        let fault = |what: &str, e: std::io::Error| {
            Box::new(RunError::Checkpoint {
                dir: dir.clone(),
                message: format!("checkpoint directory {}: {what}{e}", dir.display()),
            })
        };
        let store = CheckpointStore::open(dir).map_err(|e| fault("cannot open: ", e))?;
        let manifest = Manifest {
            algorithm: self.algorithm.name().to_string(),
            fingerprint: dataset_fingerprint(dataset),
            partitions: partitioner.num_partitions() as u64,
        };
        let restored = if self.resume {
            // the mismatch message names the directory itself
            store.validate(&manifest).map_err(|e| {
                Box::new(RunError::Checkpoint {
                    dir: dir.clone(),
                    message: e.to_string(),
                })
            })?;
            store
                .restore()
                .map_err(|e| fault("cannot resume from it: ", e))?
        } else {
            store.clear().map_err(|e| fault("cannot clear: ", e))?;
            BTreeMap::new()
        };
        store
            .write_manifest(&manifest)
            .map_err(|e| fault("cannot write the manifest: ", e))?;
        Ok((Some(Arc::new(store)), restored))
    }

    fn run_with(
        &self,
        partitioner: std::sync::Arc<dyn skyline_algos::SpacePartitioner>,
        dataset: &Dataset,
        kill: Option<Arc<KillSwitch>>,
    ) -> Result<SkylineRunReport, Box<RunError>> {
        let (checkpoints, restored) = self.open_checkpoints(&partitioner, dataset)?;
        let opts = PipelineOptions {
            name: self.algorithm.name().to_string(),
            cluster: self.cluster.clone(),
            cost: self.cost.clone(),
            threads: self.threads,
            config: self.config.clone(),
            map_work_per_point: map_work_per_point(self.algorithm, dataset.dim()),
            tracer: self.tracer.clone(),
            chaos: self.chaos.clone(),
            checkpoints,
            restored,
            kill,
        };
        let out = self.tracer.span("driver.run", || {
            run_two_job_pipeline(partitioner.clone(), dataset, &opts)
        });

        let locals: Vec<Vec<skyline_algos::point::Point>> =
            out.local_skylines.iter().map(|(_, v)| v.clone()).collect();
        let optimality = local_skyline_optimality(&locals, &out.global_skyline);

        Ok(SkylineRunReport {
            algorithm: self.algorithm,
            dataset: dataset.name.clone(),
            cardinality: dataset.len(),
            dimensions: dataset.dim(),
            servers: self.cluster.servers,
            partitions: partitioner.num_partitions(),
            global_skyline: out.global_skyline,
            local_skylines: out.local_skylines,
            load_balance: load_balance(&out.partition_counts),
            partition_counts: out.partition_counts,
            pruned_partitions: out.pruned_partitions,
            rows_filtered: out.rows_filtered,
            sector_pruned_partitions: out.sector_pruned_partitions,
            optimality,
            metrics: out.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qws_data::{generate_qws, QwsConfig};
    use skyline_algos::seq::naive_skyline_ids;

    #[test]
    fn quickstart_shape() {
        let data = generate_qws(&QwsConfig::new(400, 3));
        let report = SkylineJob::new(Algorithm::MrAngle, 4).run(&data);
        assert_eq!(report.cardinality, 400);
        assert_eq!(report.dimensions, 3);
        assert_eq!(report.servers, 4);
        assert!(report.partitions >= 8);
        assert!((0.0..=1.0).contains(&report.optimality));
        assert!(report.processing_time() > 0.0);
        let ids: Vec<u64> = report
            .global_skyline
            .iter()
            .map(skyline_algos::Point::id)
            .collect();
        assert_eq!(ids, naive_skyline_ids(data.points()));
    }

    #[test]
    fn audit_is_clean_for_every_algorithm() {
        let data = generate_qws(&QwsConfig::new(300, 3));
        for alg in [
            Algorithm::MrAngle,
            Algorithm::MrDim,
            Algorithm::MrGrid,
            Algorithm::MrRandom,
            Algorithm::Sequential,
        ] {
            let report = SkylineJob::new(alg, 4).audit(&data);
            assert!(
                !report.has_errors(),
                "{alg} plan should audit clean:\n{}",
                report.render_text()
            );
        }
    }

    #[test]
    fn run_checked_refuses_zero_slot_cluster() {
        let data = generate_qws(&QwsConfig::new(100, 3));
        let mut job = SkylineJob::new(Algorithm::MrDim, 2);
        job.cluster.reduce_slots_per_server = 0;
        let err = job
            .run_checked(&data)
            .expect_err("zero reduce slots must be refused");
        let RunError::Audit(err) = *err else {
            panic!("the audit refuses it")
        };
        assert!(err.has_errors());
        assert!(!err
            .with_code(mrsky_audit::Code::ZeroCapacityCluster)
            .is_empty());
    }

    #[test]
    fn run_checked_refuses_a_zero_bnl_window() {
        let data = generate_qws(&QwsConfig::new(500, 3));
        let mut job = SkylineJob::new(Algorithm::MrAngle, 4);
        job.config.bnl_window = Some(0);
        let err = job
            .run_checked(&data)
            .expect_err("a zero BNL window must be refused");
        let RunError::Audit(err) = *err else {
            panic!("the audit refuses it")
        };
        assert!(!err
            .with_code(mrsky_audit::Code::ZeroCapacityCluster)
            .is_empty());
    }

    #[test]
    fn force_bypasses_the_audit_gate() {
        let data = generate_qws(&QwsConfig::new(100, 3));
        // A negative job overhead is an error-level MRA008 (a non-finite or
        // negative cost) but the simulator still completes, so it exercises
        // the force path end to end.
        let mut job = SkylineJob::new(Algorithm::MrDim, 2);
        job.cost.job_overhead = -1.0;
        let err = job
            .run_checked(&data)
            .expect_err("a negative cost must be refused");
        let RunError::Audit(err) = *err else {
            panic!("the audit refuses it")
        };
        assert!(!err
            .with_code(mrsky_audit::Code::ZeroCapacityCluster)
            .is_empty());
        let report = job
            .with_force(true)
            .run_checked(&data)
            .expect("forced run proceeds");
        assert_eq!(report.cardinality, 100);
    }

    #[test]
    fn with_tracer_records_the_full_run() {
        let data = generate_qws(&QwsConfig::new(300, 3));
        let tracer = Tracer::in_memory();
        let report = SkylineJob::new(Algorithm::MrAngle, 4)
            .with_tracer(tracer.clone())
            .run(&data);
        let events = tracer.drain();
        let problems = mrsky_trace::validate_events(&events);
        assert!(problems.is_empty(), "{problems:?}");
        // the driver.run span wraps everything after the audit
        assert!(matches!(
            events.first().map(|e| &e.kind),
            Some(mrsky_trace::EventKind::SpanBegin { name }) if name == "driver.run"
        ));
        assert!(matches!(
            events.last().map(|e| &e.kind),
            Some(mrsky_trace::EventKind::SpanEnd { name }) if name == "driver.run"
        ));
        // traced partition skylines agree with the report
        let traced: usize = events
            .iter()
            .filter(|e| {
                matches!(
                    &e.kind,
                    mrsky_trace::EventKind::PartitionLocalSkyline { pruned: false, .. }
                )
            })
            .count();
        assert_eq!(traced, report.local_skylines.len());
    }

    #[test]
    fn sequential_forces_one_server() {
        let j = SkylineJob::new(Algorithm::Sequential, 16);
        assert_eq!(j.cluster.servers, 1);
    }

    #[test]
    fn reports_are_deterministic() {
        let data = generate_qws(&QwsConfig::new(300, 4));
        let a = SkylineJob::new(Algorithm::MrGrid, 4).run(&data);
        let b = SkylineJob::new(Algorithm::MrGrid, 4).run(&data);
        assert_eq!(a.global_skyline.len(), b.global_skyline.len());
        assert_eq!(a.metrics.sim_total, b.metrics.sim_total);
        assert_eq!(a.optimality, b.optimality);
    }

    #[test]
    fn angle_beats_dim_on_merge_candidates() {
        // The paper's central mechanism: angular partitions ship fewer,
        // better local-skyline candidates into the merge job. The broadcast
        // filter and witness pruning are switched off on both sides — they
        // compress candidates orthogonally to the partitioning scheme under
        // comparison.
        let data = generate_qws(&QwsConfig::new(4000, 4));
        let cfg = AlgoConfig {
            filter_k: Some(0),
            sector_prune: false,
            ..AlgoConfig::default()
        };
        let angle = SkylineJob::new(Algorithm::MrAngle, 8)
            .with_config(cfg.clone())
            .run(&data);
        let dim = SkylineJob::new(Algorithm::MrDim, 8)
            .with_config(cfg)
            .run(&data);
        assert!(
            angle.merge_candidates() < dim.merge_candidates(),
            "angle {} vs dim {}",
            angle.merge_candidates(),
            dim.merge_candidates()
        );
        assert!(
            angle.optimality > dim.optimality,
            "angle LSO {} vs dim LSO {}",
            angle.optimality,
            dim.optimality
        );
    }

    #[test]
    fn checkpointed_run_round_trips_and_resume_skips_everything() {
        let data = generate_qws(&QwsConfig::new(500, 3));
        let dir = std::env::temp_dir().join(format!("mrsky-drv-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = SkylineJob::new(Algorithm::MrAngle, 4).with_checkpoints(&dir);
        let first = base.run(&data);
        // Every partition that received points is checkpointed.
        let store = crate::checkpoint::CheckpointStore::open(&dir).unwrap();
        let completed = store.completed().unwrap();
        assert_eq!(completed.len(), first.local_skylines.len());
        // A resume of the *finished* run restores everything and recomputes
        // nothing — the trace proves it.
        let tracer = Tracer::in_memory();
        let resumed = base
            .clone()
            .with_resume(true)
            .with_tracer(tracer.clone())
            .run(&data);
        assert_eq!(
            first.global_skyline, resumed.global_skyline,
            "restored skyline must be bit-for-bit identical"
        );
        let events = tracer.drain();
        let problems = mrsky_trace::validate_events(&events);
        assert!(problems.is_empty(), "{problems:?}");
        let restored = events
            .iter()
            .filter(|e| matches!(e.kind, mrsky_trace::EventKind::CheckpointRestored { .. }))
            .count();
        let recomputed = events
            .iter()
            .filter(|e| matches!(e.kind, mrsky_trace::EventKind::PartitionLocalSkyline { .. }))
            .count();
        assert_eq!(restored, completed.len());
        assert_eq!(recomputed, 0, "a full resume recomputes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_run_resumes_from_checkpoints_without_recompute() {
        let data = generate_qws(&QwsConfig::new(600, 3));
        let oracle = naive_skyline_ids(data.points());
        let dir = std::env::temp_dir().join(format!("mrsky-drv-kill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Tracer::in_memory();
        let mut plan = mrsky_chaos::FaultPlan::off();
        plan.kill_after_checkpoints = Some(4);
        let report = SkylineJob::new(Algorithm::MrAngle, 4)
            .with_chaos(plan)
            .with_checkpoints(&dir)
            .with_tracer(tracer.clone())
            .run_resilient(&data)
            .expect("audit clean");
        let ids: Vec<u64> = report
            .global_skyline
            .iter()
            .map(skyline_algos::Point::id)
            .collect();
        assert_eq!(ids, oracle, "crash + resume must not change the skyline");

        let events = tracer.drain();
        let problems = mrsky_trace::validate_events(&events);
        assert!(problems.is_empty(), "{problems:?}");
        // The crash actually happened and was recovered from.
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, mrsky_trace::EventKind::RunResumed { .. })));
        // The resumed run restored at least the kill budget's worth of
        // checkpoints and recomputed none of them (validated above, but
        // assert the restore volume explicitly).
        let resume_at = events
            .iter()
            .position(|e| matches!(e.kind, mrsky_trace::EventKind::RunResumed { .. }))
            .unwrap();
        let restored: std::collections::BTreeSet<u64> = events[resume_at..]
            .iter()
            .filter_map(|e| match e.kind {
                mrsky_trace::EventKind::CheckpointRestored { partition, .. } => Some(partition),
                _ => None,
            })
            .collect();
        let recomputed: std::collections::BTreeSet<u64> = events[resume_at..]
            .iter()
            .filter_map(|e| match e.kind {
                mrsky_trace::EventKind::PartitionLocalSkyline { partition, .. } => Some(partition),
                _ => None,
            })
            .collect();
        assert!(restored.len() >= 4, "kill budget was 4 writes");
        assert!(
            restored.is_disjoint(&recomputed),
            "restored partitions must not be recomputed: {restored:?} vs {recomputed:?}"
        );
        assert!(
            !recomputed.is_empty(),
            "the kill must leave unfinished partitions for the resume to compute"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_resilient_without_chaos_is_plain_run() {
        let data = generate_qws(&QwsConfig::new(200, 3));
        let plain = SkylineJob::new(Algorithm::MrDim, 2).run(&data);
        let resilient = SkylineJob::new(Algorithm::MrDim, 2)
            .run_resilient(&data)
            .expect("clean");
        assert_eq!(plain.global_skyline, resilient.global_skyline);
    }

    #[test]
    fn resume_refuses_a_mismatched_checkpoint_directory() {
        let data = generate_qws(&QwsConfig::new(200, 3));
        let other = generate_qws(&QwsConfig::new(200, 3).with_seed(7));
        let dir = std::env::temp_dir().join(format!("mrsky-drv-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SkylineJob::new(Algorithm::MrAngle, 4)
            .with_checkpoints(&dir)
            .run(&data);
        let resume_other = SkylineJob::new(Algorithm::MrAngle, 4)
            .with_checkpoints(&dir)
            .with_resume(true)
            .run_resilient(&other)
            .expect_err("resuming against a different dataset must be refused");
        assert!(matches!(*resume_other, RunError::Checkpoint { .. }));
        let text = resume_other.render_text();
        assert!(text.contains("written by a different run"), "{text}");
        // the refused resume leaves the other run's checkpoints in place
        assert!(SkylineJob::new(Algorithm::MrAngle, 4)
            .with_checkpoints(&dir)
            .with_resume(true)
            .run_checked(&data)
            .is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unopenable_checkpoint_directory_is_a_typed_error() {
        let data = generate_qws(&QwsConfig::new(100, 3));
        let file = std::env::temp_dir().join(format!("mrsky-drv-notadir-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let err = SkylineJob::new(Algorithm::MrDim, 2)
            .with_checkpoints(&file)
            .run_checked(&data)
            .expect_err("a plain file cannot hold checkpoints");
        assert!(
            matches!(&*err, RunError::Checkpoint { dir, .. } if *dir == file),
            "{}",
            err.render_text()
        );
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn chaos_run_matches_clean_run_exactly() {
        let data = generate_qws(&QwsConfig::new(500, 4));
        let clean = SkylineJob::new(Algorithm::MrAngle, 4).run(&data);
        for seed in [1u64, 2, 3] {
            let chaotic = SkylineJob::new(Algorithm::MrAngle, 4)
                .with_chaos(mrsky_chaos::FaultPlan::heavy(seed))
                .run(&data);
            assert_eq!(
                clean.global_skyline, chaotic.global_skyline,
                "seed {seed}: chaos changed the skyline"
            );
        }
    }

    #[test]
    fn all_reports_share_global_skyline() {
        let data = generate_qws(&QwsConfig::new(500, 5));
        let oracle = naive_skyline_ids(data.points());
        for alg in Algorithm::paper_trio() {
            let r = SkylineJob::new(alg, 4).run(&data);
            let ids: Vec<u64> = r
                .global_skyline
                .iter()
                .map(skyline_algos::Point::id)
                .collect();
            assert_eq!(ids, oracle, "{alg}");
        }
    }
}
