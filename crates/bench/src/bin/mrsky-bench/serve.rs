//! The serve workload: one client thread replays seeded scripts against
//! `SkylineService::{apply, query}`, each replay on a fresh service. The
//! timed part is closed loop: a repetition replays one script back to
//! back, so the process stays busy and a request's time is the service's
//! own. The traced pass adds one open-loop step on a fixed schedule, where
//! latency counts from each request's scheduled send time (so a stall also
//! delays the requests queued behind it), and a ladder of higher rates.

use crate::reference::{at_reference, Reference};
use crate::report::{median, peak_rss_mib, percentile, process_cpu_s, Outcome, Spans};
use crate::verify::{same_points, verify_skyline};
use crate::RunOpts;
use mrsky_chaos::FaultPlan;
use mrsky_serve::{
    load_script, LoadgenConfig, Mutation, Op, ServeConfig, ServeStats, SkylineService,
};
use mrsky_trace::Tracer;
use skyline_algos::point::Point;
use skyline_algos::skyband::SkybandBuffer;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub struct ServeSpec {
    pub name: &'static str,
    /// Operations per script.
    pub ops: u64,
    pub tenants: usize,
    pub dims: usize,
    pub query_permille: u32,
    pub delete_permille: u32,
    /// The rate of the traced open-loop step, in requests per second.
    pub rate: f64,
    /// Higher rates tried by the traced pass for `loadgen.max_rate_ops`.
    pub ladder: &'static [f64],
}

/// Scripts per run, generated from `seed`, `seed + 1`, …. A script's time
/// per request varies by about a tenth with its seed, so a run averages
/// over six.
const SCRIPTS: usize = 6;
/// Requests replayed from each script during set-up, to warm the process.
const WARM_OPS: usize = 1_000;
/// A rate passes the ladder when the p99 of all its requests is at most
/// this and the step ends within `BACKLOG_LIMIT` of its schedule.
const P99_LIMIT_S: f64 = 0.010;
const BACKLOG_LIMIT: f64 = 0.05;
const QUICK_OPS: u64 = 600;
const QUICK_RATE: f64 = 500.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    Delete,
    Query,
}

fn is_mutation(k: Kind) -> bool {
    k != Kind::Query
}

fn is_query(k: Kind) -> bool {
    k == Kind::Query
}

fn is_insert(k: Kind) -> bool {
    k == Kind::Insert
}

fn is_delete(k: Kind) -> bool {
    k == Kind::Delete
}

/// A per-layer latency metric: name, percentile, which requests count.
type LatencyMetric = (&'static str, f64, fn(Kind) -> bool);

/// Everything one replay of a script observed.
struct Step {
    latency_s: Vec<f64>,
    service_s: Vec<f64>,
    kinds: Vec<Kind>,
    acked: Vec<bool>,
    /// Fresh query answers by op index.
    fresh: Vec<(usize, Vec<Point>)>,
    stale: u64,
    errors: Vec<String>,
    late_max_s: f64,
    /// Completion of the last request past its scheduled send time.
    backlog_s: f64,
    /// First send to last completion.
    elapsed_s: f64,
    stats: ServeStats,
    /// Each tenant's final read, taken after the step: `None` unless fresh.
    finals: Vec<(String, Option<Vec<Point>>)>,
}

impl Step {
    fn latencies(&self, pick: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.kinds
            .iter()
            .zip(&self.latency_s)
            .filter(|(k, _)| pick(**k))
            .map(|(_, l)| *l)
            .collect()
    }

    fn passes(&self, scheduled_s: f64) -> bool {
        percentile(&self.latency_s, 0.99) <= P99_LIMIT_S
            && self.backlog_s <= BACKLOG_LIMIT * scheduled_s
    }

    /// Why this replay's answers differ from `reference`, the first replay
    /// of the same script on a fresh service, whose answers are verified.
    fn differs_from(&self, reference: &Step) -> Option<&'static str> {
        let same_fresh = self.fresh.len() == reference.fresh.len()
            && self
                .fresh
                .iter()
                .zip(&reference.fresh)
                .all(|((i, a), (j, b))| i == j && same_points(a, b));
        let same_finals = self.finals.len() == reference.finals.len()
            && self
                .finals
                .iter()
                .zip(&reference.finals)
                .all(|((s, a), (t, b))| {
                    s == t && matches!((a, b), (Some(a), Some(b)) if same_points(a, b))
                });
        if self.acked != reference.acked {
            Some("acknowledged other mutations")
        } else if !same_fresh {
            Some("answered a query differently")
        } else if !same_finals {
            Some("ended with a different final read")
        } else {
            None
        }
    }
}

fn script(spec: &ServeSpec, ops: u64, seed: u64) -> Vec<Op> {
    load_script(&LoadgenConfig {
        seed,
        tenants: spec.tenants,
        operations: ops,
        dim: spec.dims,
        poison_permille: 0,
        delete_permille: spec.delete_permille,
        query_permille: spec.query_permille,
    })
}

fn fresh_service() -> SkylineService {
    SkylineService::new(ServeConfig::default(), FaultPlan::off(), Tracer::disabled())
}

/// Sleeps most of the way, then spins, so requests leave on time.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Replays `ops` against `service`: at `rate` requests per second (open
/// loop), or back to back when `rate` is `None` (closed loop).
fn run_step(service: &SkylineService, ops: &[Op], rate: Option<f64>) -> Step {
    let n = ops.len();
    let mut step = Step {
        latency_s: Vec::with_capacity(n),
        service_s: Vec::with_capacity(n),
        kinds: Vec::with_capacity(n),
        acked: vec![false; n],
        fresh: Vec::new(),
        stale: 0,
        errors: Vec::new(),
        late_max_s: 0.0,
        backlog_s: 0.0,
        elapsed_s: 0.0,
        stats: ServeStats::default(),
        finals: Vec::new(),
    };
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let due = match rate {
            Some(rate) => {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                wait_until(due);
                due
            }
            None => Instant::now(),
        };
        let sent = Instant::now();
        let (kind, answer) = match op {
            Op::Mutate {
                tenant,
                seq,
                mutation,
            } => {
                let kind = match mutation {
                    Mutation::Insert { .. } => Kind::Insert,
                    Mutation::Delete { .. } => Kind::Delete,
                };
                (kind, service.apply(tenant, *seq, mutation).map(|_| None))
            }
            Op::Query { tenant } => (Kind::Query, service.query(tenant).map(Some)),
        };
        let done = Instant::now();
        step.late_max_s = step.late_max_s.max((sent - due).as_secs_f64());
        step.backlog_s = (done - due).as_secs_f64();
        step.elapsed_s = (done - start).as_secs_f64();
        match answer {
            Ok(None) => step.acked[i] = true,
            Ok(Some(r)) if r.stale => step.stale += 1,
            Ok(Some(r)) => step.fresh.push((i, r.skyline)),
            // A failed request is counted, not timed.
            Err(e) => {
                step.errors.push(format!("op {i}: {e}"));
                continue;
            }
        }
        step.latency_s.push((done - due).as_secs_f64());
        step.service_s.push((done - sent).as_secs_f64());
        step.kinds.push(kind);
    }
    step.stats = service.stats();
    for tenant in service.tenants() {
        let fresh = service.query(&tenant).ok().filter(|r| !r.stale);
        step.finals.push((tenant, fresh.map(|r| r.skyline)));
    }
    step
}

/// One tenant's live set, as the acknowledged mutations left it.
#[derive(Default)]
struct Live {
    points: Vec<Point>,
    at: HashMap<u64, usize>,
}

impl Live {
    fn apply(&mut self, mutation: &Mutation) {
        match mutation {
            Mutation::Insert { id, coords } => {
                if let (false, Ok(p)) = (
                    self.at.contains_key(id),
                    Point::try_new(*id, coords.clone()),
                ) {
                    self.at.insert(*id, self.points.len());
                    self.points.push(p);
                }
            }
            Mutation::Delete { id } => {
                if let Some(i) = self.at.remove(id) {
                    self.points.swap_remove(i);
                    if let Some(moved) = self.points.get(i) {
                        self.at.insert(moved.id(), i);
                    }
                }
            }
        }
    }
}

/// Replays the acknowledged mutations and checks every fresh answer, and
/// each tenant's final read, against the live set at that point.
fn verify_step(ops: &[Op], step: &Step, out: &mut Outcome) {
    let mut live: BTreeMap<&str, Live> = BTreeMap::new();
    let mut fresh = step.fresh.iter().peekable();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Mutate {
                tenant, mutation, ..
            } => {
                if step.acked[i] {
                    live.entry(tenant.as_str()).or_default().apply(mutation);
                }
            }
            Op::Query { tenant } => {
                if let Some((_, sky)) = fresh.next_if(|(at, _)| *at == i) {
                    let points = live
                        .get(tenant.as_str())
                        .map_or(&[][..], |l| l.points.as_slice());
                    if let Err(e) = verify_skyline(points, sky, 1) {
                        out.fail(format!("op {i} ({tenant}): wrong fresh answer: {e}"));
                    }
                }
            }
        }
    }
    for (tenant, answer) in &step.finals {
        out.attempted += 1;
        let points = live
            .get(tenant.as_str())
            .map_or(&[][..], |l| l.points.as_slice());
        match answer {
            Some(sky) => {
                if let Err(e) = verify_skyline(points, sky, 1) {
                    out.fail(format!("final read of {tenant}: {e}"));
                }
            }
            None => out.fail(format!("final read of {tenant} was not fresh")),
        }
    }
    for e in &step.errors {
        out.fail(e.clone());
    }
}

/// Per-operation times of the skyband layer alone: the script's
/// acknowledged mutations replayed closed-loop on per-tenant buffers, each
/// followed by the `skyline()` the service takes for its snapshot.
struct BandReplay {
    insert_s: Vec<f64>,
    delete_s: Vec<f64>,
    finals: BTreeMap<String, Vec<Point>>,
}

fn skyband_replay(ops: &[Op], acked: &[bool]) -> BandReplay {
    let k = ServeConfig::default().skyband_k;
    let mut bands: BTreeMap<String, SkybandBuffer> = BTreeMap::new();
    let (mut insert_s, mut delete_s) = (Vec::new(), Vec::new());
    for (op, _) in ops.iter().zip(acked).filter(|(_, a)| **a) {
        let Op::Mutate {
            tenant, mutation, ..
        } = op
        else {
            continue;
        };
        let band = bands
            .entry(tenant.clone())
            .or_insert_with(|| SkybandBuffer::new(k));
        let started = Instant::now();
        match mutation {
            Mutation::Insert { id, coords } => {
                if let Ok(p) = Point::try_new(*id, coords.clone()) {
                    let _ = black_box(band.insert(p));
                }
                black_box(band.skyline());
                insert_s.push(started.elapsed().as_secs_f64());
            }
            Mutation::Delete { id } => {
                black_box(band.delete(*id));
                black_box(band.skyline());
                delete_s.push(started.elapsed().as_secs_f64());
            }
        }
    }
    BandReplay {
        insert_s,
        delete_s,
        finals: bands.into_iter().map(|(t, b)| (t, b.skyline())).collect(),
    }
}

/// A script, its first timed replay and the time of its clean replays.
struct Script {
    ops: Vec<Op>,
    /// Verified after the timed loop; every later replay must give the
    /// same answers.
    first: Option<Step>,
    /// Summed wall time of the clean replays, and of the reference work
    /// timed right before each.
    replay_s: f64,
    reference_s: f64,
}

pub fn run(spec: &ServeSpec, opts: &RunOpts, out: &mut Outcome) {
    let (ops_per_script, rate) = if opts.quick {
        (QUICK_OPS, QUICK_RATE)
    } else {
        (spec.ops, spec.rate)
    };
    let mut spans = Spans::new(opts.epoch);
    let reference_work = Reference::new();

    // Set-up, once per script: generate it, then replay its first
    // `WARM_OPS` requests on a throwaway service, with the reference work
    // timed before and after. The warm-up's answers are verified outside
    // set-up time.
    let (mut setup_s, mut verify_s) = (Vec::new(), Vec::new());
    let mut scripts = Vec::new();
    for v in 0..SCRIPTS {
        let before = reference_work.time();
        let started = Instant::now();
        let ops = script(spec, ops_per_script, opts.seed + v as u64);
        let warm_ops = &ops[..WARM_OPS.min(ops.len())];
        let warm = run_step(&fresh_service(), warm_ops, None);
        let took = started.elapsed().as_secs_f64();
        setup_s.push(at_reference(took, (before + reference_work.time()) / 2.0));

        let id = spans.begin("verify", &format!("{}/setup/s{v}", spec.name));
        out.attempted += warm_ops.len() as u64;
        verify_step(warm_ops, &warm, out);
        spans.end(id);
        verify_s.push(spans.duration(id));
        scripts.push(Script {
            ops,
            first: None,
            replay_s: 0.0,
            reference_s: 0.0,
        });
    }

    // Timed loop: each repetition replays one whole script, closed loop, on
    // a fresh service, right after one run of the reference work; scripts
    // round-robin until every script has been replayed and the run length
    // has passed. A repetition that failed is not timed.
    let (mut series, mut references, mut service) = (Vec::new(), Vec::new(), Vec::new());
    let mut replayed = Vec::new();
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    for i in 0.. {
        let finished =
            i >= scripts.len() && (opts.quick || t0.elapsed().as_secs_f64() >= opts.seconds);
        if finished {
            break;
        }
        let v = i % scripts.len();
        let s = &mut scripts[v];
        let reference_s = reference_work.time();
        let step = run_step(&fresh_service(), &s.ops, None);
        out.attempted += s.ops.len() as u64;
        // The first replay's errors and answers are checked by
        // `verify_step` below.
        let clean = match &s.first {
            None => step.errors.is_empty(),
            Some(first) => {
                let differs = step.differs_from(first);
                if let Some(why) = differs {
                    out.fail(format!("repetition {i} (script {v}) {why}"));
                }
                for e in &step.errors {
                    out.fail(e.clone());
                }
                differs.is_none() && step.errors.is_empty()
            }
        };
        if clean {
            s.replay_s += step.elapsed_s;
            s.reference_s += reference_s;
            series.push(step.elapsed_s / s.ops.len() as f64);
            references.push(reference_s);
            replayed.push(v as f64);
            service.extend_from_slice(&step.service_s);
        }
        if s.first.is_none() {
            s.first = Some(step);
        }
    }
    let (wall, cpu) = (t0.elapsed().as_secs_f64(), process_cpu_s() - cpu0);
    for (v, s) in scripts.iter().enumerate() {
        if let Some(first) = &s.first {
            let id = spans.begin("verify", &format!("{}/first/s{v}", spec.name));
            verify_step(&s.ops, first, out);
            spans.end(id);
            verify_s.push(spans.duration(id));
        }
    }

    // Time per request at the reference speed: each script's replay time
    // over its reference time, averaged over the scripts, so that each
    // script counts once however often it was replayed.
    let per_script: Vec<f64> = scripts
        .iter()
        .filter(|s| s.reference_s > 0.0)
        .map(|s| at_reference(s.replay_s, s.reference_s) / s.ops.len() as f64)
        .collect();
    let per_op = per_script.iter().sum::<f64>() / per_script.len().max(1) as f64;
    out.e2e.insert("latency_ms", per_op * 1e3);
    out.e2e.insert(
        "throughput_per_s",
        if per_op > 0.0 { 1.0 / per_op } else { 0.0 },
    );
    out.e2e.insert("setup_s", median(&setup_s));
    out.layers
        .insert("query.median_ms", percentile(&service, 0.5) * 1e3);
    out.layers
        .insert("query.tail_ms", percentile(&service, 0.99) * 1e3);
    out.layers
        .insert("host.reference_ms", median(&references) * 1e3);
    out.layers.insert("process.peak_rss_mb", peak_rss_mib());
    for name in ["latency_ms", "throughput_per_s", "host.reference_ms"] {
        out.samples.insert(name, series.len());
    }
    for name in ["query.median_ms", "query.tail_ms"] {
        out.samples.insert(name, service.len());
    }
    out.samples.insert("setup_s", setup_s.len());
    out.series.insert("setup_s", setup_s);
    out.series.insert("repetition_per_op_s", series);
    out.series.insert("reference_s", references);
    out.series.insert("repetition_script", replayed);
    out.layers.insert(
        "executor.cpu_util",
        cpu / (wall * crate::batch::THREADS as f64),
    );

    if let (true, Some(first)) = (opts.trace, scripts.first()) {
        traced(spec, opts, &first.ops, rate, &mut spans, &mut verify_s, out);
    }
    out.layers.insert("oracle.verify_s", median(&verify_s));
    out.spans = spans.list;
}

/// The traced pass: one open-loop step at `rate` on a fresh service, the
/// skyband replay of its acknowledged mutations, then the rate ladder.
fn traced(
    spec: &ServeSpec,
    opts: &RunOpts,
    ops: &[Op],
    rate: f64,
    spans: &mut Spans,
    verify_s: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let q = format!("{}/open", spec.name);
    let step = spans.time("step", &q, || run_step(&fresh_service(), ops, Some(rate)));
    out.attempted += ops.len() as u64;
    let id = spans.begin("verify", &q);
    verify_step(ops, &step, out);
    spans.end(id);
    verify_s.push(spans.duration(id));

    let layer_latencies: [LatencyMetric; 6] = [
        ("serve.mutation_ms_p50", 0.5, is_mutation),
        ("serve.mutation_ms_p99", 0.99, is_mutation),
        ("serve.read_ms_p50", 0.5, is_query),
        ("serve.read_ms_p99", 0.99, is_query),
        ("serve.insert_ms_p50", 0.5, is_insert),
        ("serve.delete_ms_p99", 0.99, is_delete),
    ];
    for (name, q, pick) in layer_latencies {
        let latencies = step.latencies(pick);
        out.layers.insert(name, percentile(&latencies, q) * 1e3);
        out.samples.insert(name, latencies.len());
    }
    let fresh: Vec<f64> = step.fresh.iter().map(|(_, sky)| sky.len() as f64).collect();
    out.layers.insert(
        "serve.snapshot_points",
        fresh.iter().sum::<f64>() / fresh.len().max(1) as f64,
    );
    let stats = &step.stats;
    let deletes = step.latencies(is_delete).len().max(1) as f64;
    for (name, value) in [
        ("serve.stale_reads", step.stale as f64),
        ("admission.shed", stats.shed as f64),
        ("breaker.rejected", stats.breaker_rejected as f64),
        ("skyband.rebuilds", stats.skyband.underflow_rebuilds as f64),
        ("skyband.repairs", stats.skyband.repairs_from_buffer as f64),
        (
            "skyband.rebuild_frac",
            stats.skyband.underflow_rebuilds as f64 / deletes,
        ),
        ("loadgen.late_ms_max", step.late_max_s * 1e3),
        ("loadgen.backlog_ms", step.backlog_s * 1e3),
    ] {
        out.layers.insert(name, value);
    }

    let band = spans.time("skyband_replay", &q, || skyband_replay(ops, &step.acked));
    for (tenant, answer) in &step.finals {
        let same = match (answer, band.finals.get(tenant)) {
            (Some(a), Some(b)) => same_points(a, b),
            _ => false,
        };
        if !same {
            out.problem(format!(
                "skyband replay fidelity: {tenant} ends with a different skyline"
            ));
        }
    }
    let band_ops: Vec<f64> = band
        .insert_s
        .iter()
        .chain(&band.delete_s)
        .copied()
        .collect();
    let served: Vec<f64> = step
        .kinds
        .iter()
        .zip(&step.service_s)
        .filter(|(k, _)| is_mutation(**k))
        .map(|(_, s)| *s)
        .collect();
    out.layers.insert(
        "skyband.insert_us_p50",
        percentile(&band.insert_s, 0.5) * 1e6,
    );
    out.layers.insert(
        "skyband.delete_us_p99",
        percentile(&band.delete_s, 0.99) * 1e6,
    );
    out.layers.insert(
        "serve.overhead_us_p50",
        (percentile(&served, 0.5) - percentile(&band_ops, 0.5)) * 1e6,
    );

    // The rate ladder: fresh service per rate, highest passing rate wins.
    let mut max_rate = if step.passes(ops.len() as f64 / rate) {
        rate
    } else {
        0.0
    };
    if max_rate > 0.0 && !opts.quick {
        for &r in spec.ladder {
            let lq = format!("{}/ladder{r}", spec.name);
            let step = spans.time("ladder", &lq, || run_step(&fresh_service(), ops, Some(r)));
            out.attempted += ops.len() as u64;
            verify_step(ops, &step, out);
            if !step.passes(ops.len() as f64 / r) {
                break;
            }
            max_rate = r;
        }
    }
    out.layers.insert("loadgen.max_rate_ops", max_rate);
}
