//! One differential harness over the whole configuration space.
//!
//! A partitioning scheme changes *where* the skyline work happens, never
//! *what* the answer is, and the knobs interact (filter points and
//! partitioning do, per Ciaccia & Martinenghi), so none is proved exact
//! alone. Each case draws, from one seed, a dataset (a paper family or an
//! adversarial generator), an algorithm, `servers`, threads, every
//! `AlgoConfig` knob, a chaos plan, checkpoints and a kill point. It must
//! pass the plan audit (`run_resilient`, `force = false`), pass
//! `verify_skyline`, equal the default-config run bit for bit, and keep
//! the report's deterministic fields when a twin flips a knob documented
//! as invisible to it (`owned_shuffle`, or the thread count).
//!
//! The draw does not shrink: a failing case prints all it drew, a
//! `MRSKY_DIFF_CASE=…` line that re-runs only it and, when every drawn
//! knob has a CLI flag, the `mrsky` lines that replay it.
//! `MRSKY_DIFF_CASES=N` draws N cases per test. The deterministic checks
//! at the end are the ones a random draw cannot make non-vacuous; the
//! chaos and kill/resume ones sit in `tests/chaos.rs`.

use mr_skyline_suite::chaos::FaultPlan;
use mr_skyline_suite::mapreduce::runtime::RECORDS_PER_SPLIT;
use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{
    generate_qws, generate_synthetic, Dataset, Distribution, QwsConfig, SyntheticConfig,
};
use mr_skyline_suite::skyline::block::PointBlock;
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::skyline::select::{select_for_block, BlockKernel};
use mr_skyline_suite::skyline::verify::verify_skyline;
use mr_skyline_suite::trace::{EventKind, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;

mod common;
use common::{fingerprint, quiet_chaos_panics, unique_dir};

fn files_in(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, Iterator::count)
}

// ------------------------------------------------------------ datasets --

/// A dataset generator: the paper's four families (`mrsky generate`
/// draws them), then the adversarial ones.
#[derive(Clone, Copy, Debug)]
enum Family {
    Anti,
    Corr,
    Indep,
    Qws,
    /// Each dimension on its own grid (2, 4 or 32 values, or continuous).
    Ties,
    /// A few rows, each repeated under distinct ids.
    Duplicates,
    /// L1 score ties `(1e16+4i, 1e16−4i[+2])`, the entropy-clamp pair
    /// and the `±0.0` pair; each victim has the smaller id.
    ScoreTies,
    /// Some (or all) columns constant.
    ConstantColumns,
    /// `n = 1` or `d = 1`.
    Tiny,
    /// `d` from 7 to 12.
    HighD,
    /// An anti-diagonal skyline of 63, 64 or 65 rows, each with a
    /// dominated copy: the lane kernels' block tails.
    LaneTails,
}

const PAPER_FAMILIES: [Family; 4] = [Family::Anti, Family::Corr, Family::Indep, Family::Qws];
const ADVERSARIAL_FAMILIES: [Family; 7] = [
    Family::Ties,
    Family::Duplicates,
    Family::ScoreTies,
    Family::ConstantColumns,
    Family::Tiny,
    Family::HighD,
    Family::LaneTails,
];

// --------------------------------------------------------------- cases --

/// Every algorithm, with its `mrsky --algorithm` name.
const ALGORITHMS: [(Algorithm, &str); 5] = [
    (Algorithm::MrAngle, "angle"),
    (Algorithm::MrDim, "dim"),
    (Algorithm::MrGrid, "grid"),
    (Algorithm::MrRandom, "random"),
    (Algorithm::Sequential, "seq"),
];

/// A knob documented as invisible to the report, flipped in a twin run:
/// `owned_shuffle` (the same bytes cross the shuffle), or one thread
/// against several (the same simulated schedule).
#[derive(Clone, Copy, Debug)]
enum Twin {
    OwnedShuffle,
    Threads,
}

/// Everything one case draws. The spill and checkpoint dirs are fresh
/// per run.
#[derive(Debug)]
struct Case {
    family: Family,
    n: usize,
    d: usize,
    data_seed: u64,
    algorithm: (Algorithm, &'static str),
    servers: usize,
    threads: usize,
    config: AlgoConfig,
    /// `"light"` or `"heavy"`, with its seed.
    chaos: Option<(&'static str, u64)>,
    checkpoints: bool,
    kill_after: Option<u64>,
    twin: Twin,
}

impl Case {
    fn draw(seed: u64, families: &[Family]) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let family = families[rng.gen_range(0..families.len())];
        let (n, d) = match family {
            // one case in eight spans several map splits, so the shuffle
            // merges blocks from different map tasks
            Family::Anti | Family::Corr | Family::Indep | Family::Qws if rng.gen_bool(0.125) => (
                rng.gen_range(RECORDS_PER_SPLIT + 1..3 * RECORDS_PER_SPLIT),
                rng.gen_range(2..=6),
            ),
            Family::Anti | Family::Corr | Family::Indep | Family::Qws => {
                (rng.gen_range(40..240), rng.gen_range(2..=6))
            }
            Family::Ties | Family::Duplicates | Family::ConstantColumns => {
                (rng.gen_range(1..160), rng.gen_range(1..=5))
            }
            Family::ScoreTies => (rng.gen_range(1..=200), 2), // n: L1 pairs
            Family::Tiny if rng.gen_bool(0.5) => (1, rng.gen_range(1..=6)),
            Family::Tiny => (rng.gen_range(1..120), 1),
            Family::HighD => (rng.gen_range(30..150), rng.gen_range(7..=12)),
            Family::LaneTails => (rng.gen_range(63..=65), rng.gen_range(2..=4)),
        };
        // Knobs without a CLI flag keep their default three times in
        // four, so most paper-family cases print a replayable command.
        let mut rare = || rng.gen_bool(0.25);
        let (window, no_grid_pruning, grid_dims, equal_width, baseline_quantile) =
            (rare(), rare(), rare(), rare(), rare());
        let checkpoints = rng.gen_bool(0.4);
        Self {
            family,
            n,
            d,
            data_seed: rng.gen_range(0..1u64 << 32),
            algorithm: ALGORITHMS[rng.gen_range(0..ALGORITHMS.len())],
            servers: rng.gen_range(1..=6),
            threads: [1, 2, 4][rng.gen_range(0..3usize)],
            config: AlgoConfig {
                bnl_window: window.then(|| rng.gen_range(1..40)),
                // index 3 is `None`: auto
                kernel: BlockKernel::ALL.get(rng.gen_range(0..4usize)).copied(),
                grid_pruning: !no_grid_pruning,
                grid_dims: [2, [0, 1, 3][rng.gen_range(0..3usize)]][usize::from(grid_dims)],
                angle_quantile: !equal_width,
                baseline_quantile,
                filter_k: [Some(0), None, Some(rng.gen_range(1..=24))][rng.gen_range(0..3usize)],
                sector_prune: rng.gen_bool(0.5),
                owned_shuffle: rng.gen_bool(0.5),
                spill_budget_bytes: [None, Some(0), Some(rng.gen_range(0..4096))]
                    [rng.gen_range(0..3usize)],
                ..AlgoConfig::default()
            },
            chaos: [None, Some("light"), Some("heavy")][rng.gen_range(0..3usize)]
                .map(|profile| (profile, rng.gen_range(0..1u64 << 16))),
            checkpoints,
            kill_after: (checkpoints && rng.gen_bool(0.7)).then(|| rng.gen_range(1..6)),
            twin: [Twin::OwnedShuffle, Twin::Threads][rng.gen_range(0..2usize)],
        }
    }

    fn dataset(&self) -> Dataset {
        let (n, d, seed) = (self.n, self.d, self.data_seed);
        let synthetic =
            |dist| generate_synthetic(&SyntheticConfig::new(n, d, dist).with_seed(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = match self.family {
            Family::Anti => return synthetic(Distribution::AntiCorrelated),
            Family::Corr => return synthetic(Distribution::Correlated),
            Family::Indep | Family::Tiny => return synthetic(Distribution::Independent),
            Family::HighD if seed % 2 == 0 => return synthetic(Distribution::Independent),
            Family::HighD => return synthetic(Distribution::AntiCorrelated),
            Family::Qws => return generate_qws(&QwsConfig::new(n, d).with_seed(seed)),
            Family::Ties => {
                let grids: Vec<u32> = (0..d)
                    .map(|_| [2, 4, 32, 0][rng.gen_range(0..4usize)])
                    .collect();
                let mut value = |g: u32| match g {
                    0 => rng.gen::<f64>(),
                    g => f64::from(rng.gen_range(0..g)) * 0.5,
                };
                (0..n)
                    .map(|_| grids.iter().map(|&g| value(g)).collect())
                    .collect()
            }
            Family::Duplicates => {
                let base: Vec<Vec<f64>> = (0..rng.gen_range(1..=30))
                    .map(|_| (0..d).map(|_| f64::from(rng.gen_range(0..8u32))).collect())
                    .collect();
                (0..n)
                    .map(|_| base[rng.gen_range(0..base.len())].clone())
                    .collect()
            }
            Family::ScoreTies => match seed % 4 {
                0 => (0..2 * n)
                    .map(|i| {
                        let (k, lift) = ((i % n) as f64, if i < n { 2.0 } else { 0.0 });
                        vec![1e16 + 4.0 * k, 1e16 - 4.0 * k + lift]
                    })
                    .collect(),
                1 => vec![vec![1e16, 1e16 + 2.0], vec![1e16, 1e16]],
                2 => vec![vec![-1.0, 1.0], vec![-2.0, 1.0]],
                _ => vec![vec![-0.0, 1e16, 1e16 + 2.0], vec![0.0, 1e16, 1e16]],
            },
            Family::ConstantColumns => {
                let constant: Vec<bool> = (0..d).map(|_| rng.gen_bool(0.5)).collect();
                let mut value = |c: bool| if c { 7.0 } else { rng.gen::<f64>() };
                (0..n)
                    .map(|_| constant.iter().map(|&c| value(c)).collect())
                    .collect()
            }
            Family::LaneTails => {
                let row = |i: usize, lift: f64| -> Vec<f64> {
                    let mut r = vec![i as f64, (n - i) as f64];
                    r.extend((2..d).map(|j| ((i * (j + 3)) % 5) as f64));
                    r.iter().map(|v| v + lift).collect()
                };
                (0..2 * n)
                    .map(|i| row(i % n, if i < n { 0.0 } else { 0.5 }))
                    .collect()
            }
        };
        let points = rows
            .into_iter()
            .enumerate()
            .map(|(i, r)| Point::new(i as u64, r));
        Dataset::new(format!("{:?}", self.family), points.collect())
    }

    /// The drawn job, spilling to `spill` and checkpointing to `ckpt`.
    fn job(&self, spill: &Path, ckpt: &Path) -> SkylineJob {
        let mut config = self.config.clone();
        config.spill_dir = config.spill_budget_bytes.map(|_| spill.to_path_buf());
        let mut plan = self.chaos.map_or_else(FaultPlan::off, |(profile, seed)| {
            FaultPlan::profile(profile, seed).expect("known profile")
        });
        plan.kill_after_checkpoints = self.kill_after;
        let mut job = SkylineJob::new(self.algorithm.0, self.servers)
            .with_config(config)
            .with_chaos(plan);
        job.threads = self.threads;
        if self.checkpoints {
            job = job.with_checkpoints(ckpt);
        }
        job
    }

    /// The `mrsky` lines that replay this case's drawn run (when every
    /// drawn knob has a flag) and its default-config run.
    fn cli(&self) -> String {
        let c = &self.config;
        let dist = match self.family {
            Family::Anti => "anti",
            Family::Corr => "corr",
            Family::Indep => "indep",
            Family::Qws => "qws",
            _ => return "none (the generator has no flag)".into(),
        };
        let flags = [
            Some(format!(
                "--kernel {}",
                c.kernel.map_or("auto", BlockKernel::name)
            )),
            c.filter_k.map(|k| match k {
                0 => "--no-filter".into(),
                k => format!("--filter-k {k}"),
            }),
            (!c.sector_prune).then(|| "--no-sector-prune".into()),
            (!c.owned_shuffle).then(|| "--row-shuffle".into()),
            c.spill_budget_bytes
                .map(|b| format!("--spill-budget {b} --spill-dir spill")),
            self.chaos
                .map(|(p, s)| format!("--chaos-profile {p} --chaos-seed {s}")),
            self.kill_after.map(|k| format!("--chaos-kill-after {k}")),
            self.checkpoints.then(|| "--checkpoint-dir ck".into()),
        ];
        let flagged = AlgoConfig {
            kernel: c.kernel,
            filter_k: c.filter_k,
            sector_prune: c.sector_prune,
            owned_shuffle: c.owned_shuffle,
            spill_budget_bytes: c.spill_budget_bytes,
            ..AlgoConfig::default()
        };
        let skyline = format!(
            "mrsky skyline --data case.csv --algorithm {} --servers {}",
            self.algorithm.1, self.servers
        );
        let flags: Vec<String> = flags.into_iter().flatten().collect();
        let drawn = if flagged == *c {
            format!(
                "MRSKY_THREADS={} {skyline} {}",
                self.threads,
                flags.join(" ")
            )
        } else {
            "none (a drawn knob has no flag)".into()
        };
        format!(
            "mrsky generate --out case.csv --n {} --dims {} --dist {dist} --seed {}\n    \
             drawn run: {drawn}\n    default run: {skyline}",
            self.n, self.d, self.data_seed
        )
    }
}

/// The report's fields that do not depend on the host. After a kill the
/// resumed run's metrics count only the partitions that had not yet
/// checkpointed, and which those were depends on thread timing
/// (a known gap of kill/resume), so only the skyline side is compared then.
fn deterministic_fields(r: &SkylineRunReport, killed: bool) -> Vec<String> {
    let m = &r.metrics;
    let locals: Vec<Vec<u64>> = r
        .local_skylines
        .iter()
        .map(|(_, s)| s.iter().map(Point::id).collect())
        .collect();
    let mut fields = vec![
        format!("skyline={:?}", fingerprint(r)),
        format!("local_skylines={locals:?}"),
        format!("partition_counts={:?}", r.partition_counts),
        format!(
            "pruned={} sector_pruned={}",
            r.pruned_partitions, r.sector_pruned_partitions
        ),
        format!("rows_filtered={}", r.rows_filtered),
    ];
    if !killed {
        let reduce = (m.reduce.records_in, m.reduce.work_units);
        fields.push(format!(
            "shuffle_bytes={} sim_total={} reduce={reduce:?}",
            m.shuffle_bytes, m.sim_total
        ));
    }
    fields
}

/// Runs one case and returns the first fault it finds.
fn check(case: &Case) -> Result<(), String> {
    let data = case.dataset();
    let (spill, ckpt) = (unique_dir("spill"), unique_dir("ckpt"));
    let run = |job: &SkylineJob, what: &str| {
        let report = job
            .run_resilient(&data)
            .map_err(|e| format!("the {what} was refused:\n{}", e.render_text()))?;
        verify_skyline(data.block(), &report.global_skyline)
            .map_err(|e| format!("verify_skyline on the {what}: {e}"))?;
        Ok::<_, String>(report)
    };
    let report = run(&case.job(&spill, &ckpt), "drawn run")?;
    let reference = run(
        &SkylineJob::new(case.algorithm.0, case.servers),
        "default run",
    )?;
    if fingerprint(&report) != fingerprint(&reference) {
        return Err("the skyline differs from the default-config run's".into());
    }
    // Killed or not, a run must leave no spill file behind.
    if files_in(&spill) != 0 {
        return Err(format!("{} spill file(s) left behind", files_in(&spill)));
    }
    let mut twin = case.job(&spill, &ckpt);
    match case.twin {
        Twin::OwnedShuffle => twin.config.owned_shuffle = !twin.config.owned_shuffle,
        Twin::Threads => twin.threads = if case.threads == 1 { 4 } else { 1 },
    }
    let twin = run(&twin, "twin run")?;
    let killed = case.kill_after.is_some();
    let fields = deterministic_fields(&report, killed);
    for (a, b) in fields.iter().zip(deterministic_fields(&twin, killed)) {
        if *a != b {
            let short = |v: &str| v.chars().take(160).collect::<String>();
            return Err(format!("the twin changed {} to {}", short(a), short(&b)));
        }
    }
    let _ = std::fs::remove_dir_all(&spill);
    let _ = std::fs::remove_dir_all(&ckpt);
    Ok(())
}

/// Draws and checks `cases` cases over `families` (only the one that
/// `MRSKY_DIFF_CASE` names, if set), panicking with the whole case on the
/// first fault.
fn run_cases(test: &str, families: &[Family], stream: u64, cases: u64) {
    quiet_chaos_panics();
    let parse = |v: String| {
        let v = v.trim();
        v.strip_prefix("0x")
            .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16))
            .unwrap_or_else(|_| panic!("cannot parse `{v}` as a case seed"))
    };
    let seeds: Vec<u64> = match std::env::var("MRSKY_DIFF_CASE") {
        Ok(v) => vec![parse(v)],
        Err(_) => {
            let cases = std::env::var("MRSKY_DIFF_CASES").map_or(cases, parse);
            (0..cases).map(|i| stream << 32 | i).collect()
        }
    };
    for seed in seeds {
        let case = Case::draw(seed, families);
        let describe = || {
            let cli = case.cli();
            format!(
                "differential case {seed:#x}\n  replay: MRSKY_DIFF_CASE={seed:#x} cargo test \
                 --test differential {test}\n  cli:\n    {cli}\n  {case:#?}"
            )
        };
        match catch_unwind(AssertUnwindSafe(|| check(&case))) {
            Ok(Ok(())) => {}
            Ok(Err(fault)) => panic!("{}\n  fault: {fault}", describe()),
            Err(payload) => {
                eprintln!("{}\n  fault: the case panicked", describe());
                resume_unwind(payload)
            }
        }
    }
}

#[test]
fn paper_families_are_exact_under_any_configuration() {
    let test = "paper_families_are_exact_under_any_configuration";
    run_cases(test, &PAPER_FAMILIES, 0xd1ff_0001, 48);
}

#[test]
fn adversarial_families_are_exact_under_any_configuration() {
    let test = "adversarial_families_are_exact_under_any_configuration";
    run_cases(test, &ADVERSARIAL_FAMILIES, 0xd1ff_0002, 56);
}

// ------------------------------------------------------- deterministic --

/// MR-Angle on 8 servers over a 4000×4 anti-correlated input.
fn anti_4000(config: AlgoConfig) -> SkylineRunReport {
    let data = generate_synthetic(
        &SyntheticConfig::new(4000, 4, Distribution::AntiCorrelated).with_seed(7),
    );
    SkylineJob::new(Algorithm::MrAngle, 8)
        .with_config(config)
        .run(&data)
}

/// The filter must actually drop rows while the answer stays exact.
#[test]
fn filter_really_fires_and_stays_exact() {
    let fast = anti_4000(AlgoConfig::default());
    let plain = anti_4000(AlgoConfig {
        filter_k: Some(0),
        sector_prune: false,
        ..AlgoConfig::default()
    });
    assert!(fast.rows_filtered > 0 && plain.rows_filtered == 0);
    assert_eq!(fingerprint(&fast), fingerprint(&plain));
}

/// The spill must actually fire while the answer stays exact, and leave
/// no file once every input is consumed.
#[test]
fn spill_really_fires_and_stays_exact() {
    let dir = unique_dir("spot");
    let spilled = anti_4000(AlgoConfig {
        spill_budget_bytes: Some(0),
        spill_dir: Some(dir.clone()),
        ..AlgoConfig::default()
    });
    let spilled_inputs = spilled.metrics.reduce.counters.get("spilled_inputs");
    assert!(spilled_inputs.is_some_and(|&n| n > 0), "spill never fired");
    assert_eq!(
        fingerprint(&spilled),
        fingerprint(&anti_4000(AlgoConfig::default()))
    );
    assert_eq!(files_in(&dir), 0, "spill files left behind");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill that unwinds the reduce phase must not leave the spill files of
/// the inputs it never consumed. The filter and sector pruning are off so
/// that every partition checkpoints and the fourth checkpoint's kill fires
/// with spilled inputs still unread.
#[test]
fn killed_spilling_run_leaves_no_spill_file() {
    quiet_chaos_panics();
    let data = generate_qws(&QwsConfig::new(125, 6));
    let (spill, ckpt) = (unique_dir("kill-spill"), unique_dir("kill-ckpt"));
    let mut plan = FaultPlan::off();
    plan.kill_after_checkpoints = Some(4);
    let tracer = Tracer::in_memory();
    let mut job = SkylineJob::new(Algorithm::MrGrid, 6)
        .with_config(AlgoConfig {
            spill_budget_bytes: Some(921),
            spill_dir: Some(spill.clone()),
            filter_k: Some(0),
            sector_prune: false,
            ..AlgoConfig::default()
        })
        .with_chaos(plan)
        .with_checkpoints(&ckpt)
        .with_tracer(tracer.clone());
    job.threads = 1;
    let report = job.run_resilient(&data).expect("the plan passes the audit");
    verify_skyline(data.block(), &report.global_skyline).expect("exact after the kill");
    let resumed = tracer
        .drain()
        .iter()
        .any(|e| matches!(e.kind, EventKind::RunResumed { .. }));
    assert!(resumed, "the kill never fired");
    assert_eq!(files_in(&spill), 0, "spill files left behind by the kill");
    let _ = std::fs::remove_dir_all(&spill);
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// MR-Grid's dominated-cell pruning must actually skip cells, and so
/// reduce work, while the answer stays exact.
#[test]
fn grid_pruning_really_fires_and_stays_exact() {
    let data =
        generate_synthetic(&SyntheticConfig::new(3000, 3, Distribution::Correlated).with_seed(5));
    let config = AlgoConfig {
        grid_dims: 0,
        filter_k: Some(0),
        sector_prune: false,
        ..AlgoConfig::default()
    };
    let mut pruned = SkylineJob::new(Algorithm::MrGrid, 4).with_config(config);
    pruned.threads = 1;
    let mut unpruned = pruned.clone();
    unpruned.config.grid_pruning = false;
    let (a, b) = (pruned.run(&data), unpruned.run(&data));
    assert!(a.pruned_partitions > 0 && b.pruned_partitions == 0);
    assert!(a.metrics.reduce.work_units < b.metrics.reduce.work_units);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

/// On anti-correlated d=6 data auto must pick a sort-based kernel (the
/// workload the cost model exists for), and stay exact.
#[test]
fn auto_picks_a_sort_kernel_on_anti_correlated_data() {
    let data = generate_synthetic(
        &SyntheticConfig::new(20_000, 6, Distribution::AntiCorrelated).with_seed(42),
    );
    let choice = select_for_block(&PointBlock::from_points(data.points()).expect("uniform dims"));
    assert!(
        matches!(choice, BlockKernel::Sfs | BlockKernel::Salsa),
        "expected a sort-based kernel on anti d=6 n=20k, got {}",
        choice.name()
    );
    let auto = SkylineJob::new(Algorithm::MrAngle, 8)
        .with_config(AlgoConfig {
            kernel: None,
            ..AlgoConfig::default()
        })
        .run(&data);
    verify_skyline(data.block(), &auto.global_skyline).expect("auto is exact");
}
