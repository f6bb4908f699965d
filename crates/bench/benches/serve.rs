//! Serving-layer latency: simulated request latency quantiles for the
//! `mrsky-serve` request path, fault-free and under heavy chaos.
//!
//! The service runs on a simulated microsecond clock — every attempt
//! ticks a fixed service cost and every retry charges its jittered
//! backoff — so per-request `sim_latency` is *deterministic* for a
//! given workload seed and fault plan. That makes the p50/p99 written
//! to `BENCH_serve.json` machine-independent: they measure protocol
//! cost (retries, backoff, breaker windows), not host speed, and are
//! pinned in `benches/bench-baselines.json` for the bench gate.
//!
//! The quantiles are exact nearest-rank ones ([`nearest_rank`], the
//! rule the trace summary's latency rows use). Criterion separately
//! times wall-clock throughput of the full drive-and-verify loop
//! (machine-dependent, not gated).

use criterion::{criterion_group, criterion_main, Criterion};
use mrsky_chaos::FaultPlan;
use mrsky_serve::{load_script, run_load, LoadgenConfig, ServeConfig, SkylineService};
use mrsky_trace::{nearest_rank, EventKind, Tracer};

const OPS: u64 = 800;
const SEED: u64 = 7;

/// Drives the seeded workload against a fresh service and returns
/// (mutation latencies, query latencies, ok-mutation count) of simulated
/// request latencies in seconds, taken from the `request` trace
/// events (one per request, by construction).
fn latencies(plan: FaultPlan) -> (Vec<f64>, Vec<f64>, u64) {
    let tracer = Tracer::in_memory();
    let service = SkylineService::new(ServeConfig::default(), plan, tracer);
    let ops = load_script(&LoadgenConfig {
        seed: SEED,
        operations: OPS,
        ..LoadgenConfig::default()
    });
    let report = run_load(&service, &ops);
    assert_eq!(
        report.incorrect, 0,
        "bench run served an incorrect response"
    );
    assert_eq!(report.final_mismatches, 0, "bench run failed to converge");
    let mut mutations = Vec::new();
    let mut queries = Vec::new();
    for event in service.tracer().drain() {
        if let EventKind::Request {
            op, sim_latency, ..
        } = &event.kind
        {
            if op == "query" {
                queries.push(*sim_latency);
            } else {
                mutations.push(*sim_latency);
            }
        }
    }
    (mutations, queries, report.mutations_ok)
}

fn quantile_ms(latencies: &[f64], q: f64) -> f64 {
    nearest_rank(latencies, q).unwrap_or(0.0) * 1e3
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("serve/load_n{OPS}"));
    group.sample_size(10);
    group.bench_function("fault_free", |b| {
        b.iter(|| {
            let service =
                SkylineService::new(ServeConfig::default(), FaultPlan::off(), Tracer::disabled());
            let ops = load_script(&LoadgenConfig {
                seed: SEED,
                operations: OPS,
                ..LoadgenConfig::default()
            });
            run_load(&service, &ops).mutations_ok
        });
    });
    group.bench_function("heavy_chaos", |b| {
        b.iter(|| {
            let service = SkylineService::new(
                ServeConfig::default(),
                FaultPlan::heavy(SEED),
                Tracer::disabled(),
            );
            let ops = load_script(&LoadgenConfig {
                seed: SEED,
                operations: OPS,
                ..LoadgenConfig::default()
            });
            run_load(&service, &ops).mutations_ok
        });
    });
    group.finish();

    if std::env::args().any(|a| a == "--test") {
        return;
    }

    let (free_mut, free_q, free_ok) = latencies(FaultPlan::off());
    let (chaos_mut, chaos_q, chaos_ok) = latencies(FaultPlan::heavy(SEED));

    let json = format!(
        "{{\n  \"bench\": \"serve/load\",\n  \"seed\": {SEED},\n  \"operations\": {OPS},\n  \
         \"fault_free\": {{\n    \"mutations_ok\": {free_ok},\n    \
         \"mutation_p50_ms\": {:.4},\n    \"mutation_p99_ms\": {:.4},\n    \
         \"query_p50_ms\": {:.4},\n    \"query_p99_ms\": {:.4}\n  }},\n  \
         \"heavy_chaos\": {{\n    \"mutations_ok\": {chaos_ok},\n    \
         \"mutation_p50_ms\": {:.4},\n    \"mutation_p99_ms\": {:.4},\n    \
         \"query_p50_ms\": {:.4},\n    \"query_p99_ms\": {:.4}\n  }}\n}}\n",
        quantile_ms(&free_mut, 0.5),
        quantile_ms(&free_mut, 0.99),
        quantile_ms(&free_q, 0.5),
        quantile_ms(&free_q, 0.99),
        quantile_ms(&chaos_mut, 0.5),
        quantile_ms(&chaos_mut, 0.99),
        quantile_ms(&chaos_q, 0.5),
        quantile_ms(&chaos_q, 0.99),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
