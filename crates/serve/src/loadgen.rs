//! Seeded open-loop load generator and correctness oracle.
//!
//! [`script`] expands a [`LoadgenConfig`] into a deterministic sequence
//! of tenant mutations and queries (the same seed always yields the
//! same workload, including which inserts carry poisoned payloads).
//! [`run`] drives a [`SkylineService`] through a script while keeping the
//! live set of every *acknowledged* mutation per tenant, and checks each
//! fresh (non-stale) query response against it with the skyline verifier
//! — a service under chaos may reject or degrade, but it must never serve
//! a fresh answer that disagrees with the mutations it acknowledged.

use crate::service::{Mutation, QueryResponse, SkylineService};
use skyline_algos::block::PointBlock;
use skyline_algos::verify::verify_skyline;
use std::collections::BTreeMap;

/// Workload shape knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Seed for the whole workload.
    pub seed: u64,
    /// Number of tenants, named `tenant-0..`.
    pub tenants: usize,
    /// Total operations to generate across all tenants.
    pub operations: u64,
    /// Coordinate dimensionality.
    pub dim: usize,
    /// Permille of inserts whose payload is poisoned (NaN coordinate).
    pub poison_permille: u32,
    /// Permille of mutations that are deletions of a previously
    /// inserted id.
    pub delete_permille: u32,
    /// Permille of operations that are queries.
    pub query_permille: u32,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            tenants: 3,
            operations: 400,
            dim: 3,
            poison_permille: 30,
            delete_permille: 250,
            query_permille: 300,
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Apply a mutation with the given per-tenant sequence number.
    Mutate {
        /// Target tenant.
        tenant: String,
        /// Per-tenant sequence number (1-based, monotone).
        seq: u64,
        /// The mutation payload.
        mutation: Mutation,
    },
    /// Query the tenant's skyline.
    Query {
        /// Target tenant.
        tenant: String,
    },
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn permille(&mut self) -> u32 {
        (self.next() % 1000) as u32
    }
}

/// Expands a config into a deterministic operation script.
pub fn script(cfg: &LoadgenConfig) -> Vec<Op> {
    let mut rng = Lcg(cfg.seed ^ 0x006c_6f61_6467_656e);
    let mut ops = Vec::with_capacity(cfg.operations as usize);
    let mut next_seq = vec![0u64; cfg.tenants.max(1)];
    let mut live_ids: Vec<Vec<u64>> = vec![Vec::new(); cfg.tenants.max(1)];
    let mut next_id = 1u64;
    for _ in 0..cfg.operations {
        let t = (rng.next() as usize) % cfg.tenants.max(1);
        let tenant = format!("tenant-{t}");
        if rng.permille() < cfg.query_permille {
            ops.push(Op::Query { tenant });
            continue;
        }
        next_seq[t] += 1;
        let seq = next_seq[t];
        let deletable = !live_ids[t].is_empty();
        if deletable && rng.permille() < cfg.delete_permille {
            let pick = (rng.next() as usize) % live_ids[t].len();
            let id = live_ids[t].swap_remove(pick);
            ops.push(Op::Mutate {
                tenant,
                seq,
                mutation: Mutation::Delete { id },
            });
            continue;
        }
        let id = next_id;
        next_id += 1;
        let poison = rng.permille() < cfg.poison_permille;
        let coords: Vec<f64> = (0..cfg.dim.max(1))
            .map(|d| {
                if poison && d == 0 {
                    f64::NAN
                } else {
                    (rng.next() % 64) as f64
                }
            })
            .collect();
        if !poison {
            live_ids[t].push(id);
        }
        ops.push(Op::Mutate {
            tenant,
            seq,
            mutation: Mutation::Insert { id, coords },
        });
    }
    ops
}

/// What a load run observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Operations driven.
    pub ops: u64,
    /// Mutations the service acknowledged.
    pub mutations_ok: u64,
    /// Typed rejections, keyed by `ServeError::outcome()`.
    pub rejections: BTreeMap<String, u64>,
    /// Fresh query responses.
    pub queries_fresh: u64,
    /// Stale-marked query responses.
    pub queries_stale: u64,
    /// Fresh responses that disagreed with the oracle. Must be zero —
    /// stale-marked responses are allowed to lag, fresh ones are not.
    pub incorrect: u64,
    /// Tenants whose final quiesced skyline mismatched the oracle.
    pub final_mismatches: u64,
}

/// Whether a response carries exactly the skyline of the live set: ids
/// strictly ascending, and [`verify_skyline`]'s exact check, which compares
/// coordinate bits (`-0.0` is not the `0.0` that was inserted) as
/// `mrsky skyline` checks a batch answer.
fn matches_oracle(resp: &QueryResponse, live: &BTreeMap<u64, Vec<f64>>) -> bool {
    let mut block = PointBlock::new(live.values().next().map_or(1, Vec::len));
    live.iter()
        .try_for_each(|(&id, c)| block.push(id, c))
        .is_ok()
        && resp.skyline.windows(2).all(|w| w[0].id() < w[1].id())
        && verify_skyline(&block, &resp.skyline).is_ok()
}

/// A resumable load run. [`LoadRunner::drive`] advances through the
/// script one operation at a time, recording outcomes and the oracle
/// *after* each service call returns — so a kill-switch panic mid-op
/// leaves the runner positioned at that op, and re-driving against a
/// recovered service replays it (the service's applied-sequence mark
/// makes the retry an acknowledged no-op if it had committed).
pub struct LoadRunner {
    ops: Vec<Op>,
    pos: usize,
    oracle: BTreeMap<String, BTreeMap<u64, Vec<f64>>>,
    report: LoadReport,
}

impl LoadRunner {
    /// Wraps a script for (possibly interrupted) execution.
    pub fn new(ops: Vec<Op>) -> Self {
        Self {
            ops,
            pos: 0,
            oracle: BTreeMap::new(),
            report: LoadReport::default(),
        }
    }

    /// Next op index to execute.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether every scripted op has completed.
    pub fn done(&self) -> bool {
        self.pos >= self.ops.len()
    }

    /// Drives the remaining ops against `service`. A panic (the armed
    /// kill switch) propagates with the runner still positioned at the
    /// interrupted op; catch it, recover the service from its
    /// checkpoint store, and call `drive` again.
    pub fn drive(&mut self, service: &SkylineService) {
        while self.pos < self.ops.len() {
            let op = self.ops[self.pos].clone();
            match &op {
                Op::Mutate {
                    tenant,
                    seq,
                    mutation,
                } => match service.apply(tenant, *seq, mutation) {
                    Ok(_) => {
                        self.report.mutations_ok += 1;
                        let live = self.oracle.entry(tenant.clone()).or_default();
                        match mutation {
                            Mutation::Insert { id, coords } => {
                                live.entry(*id).or_insert_with(|| coords.clone());
                            }
                            Mutation::Delete { id } => {
                                live.remove(id);
                            }
                        }
                    }
                    Err(e) => {
                        *self
                            .report
                            .rejections
                            .entry(e.outcome().to_string())
                            .or_insert(0) += 1;
                    }
                },
                Op::Query { tenant } => match service.query(tenant) {
                    Ok(resp) if resp.stale => self.report.queries_stale += 1,
                    Ok(resp) => {
                        self.report.queries_fresh += 1;
                        let live = self.oracle.entry(tenant.clone()).or_default();
                        if !matches_oracle(&resp, live) {
                            self.report.incorrect += 1;
                        }
                    }
                    Err(e) => {
                        *self
                            .report
                            .rejections
                            .entry(e.outcome().to_string())
                            .or_insert(0) += 1;
                    }
                },
            }
            self.report.ops += 1;
            self.pos += 1;
        }
    }

    /// Quiesces every tenant (repeated queries until a fresh response,
    /// bounded — the sim clock ticks forward on each, so open breaker
    /// windows elapse) and verifies the final skyline is bit-identical
    /// to the acknowledged-mutation oracle's. Returns the report.
    pub fn finish(mut self, service: &SkylineService) -> LoadReport {
        for (tenant, live) in &self.oracle {
            let mut fresh = None;
            // Each stale serve ticks the sim clock 100us, so outlasting
            // an open breaker's 5s window takes ~50k queries; the bound
            // covers several reopen cycles from failed probes.
            for _ in 0..500_000 {
                match service.query(tenant) {
                    Ok(resp) if !resp.stale => {
                        fresh = Some(resp);
                        break;
                    }
                    Ok(_) | Err(_) => {}
                }
            }
            match fresh {
                Some(resp) if matches_oracle(&resp, live) => {}
                _ => self.report.final_mismatches += 1,
            }
        }
        self.report
    }
}

/// Drives `service` through `ops` start to finish (no kill/resume) and
/// returns the verified report. See [`LoadRunner`] for interruptible
/// runs.
pub fn run(service: &SkylineService, ops: &[Op]) -> LoadReport {
    let mut runner = LoadRunner::new(ops.to_vec());
    runner.drive(service);
    runner.finish(service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use mrsky_chaos::FaultPlan;
    use mrsky_trace::Tracer;
    use skyline_algos::point::Point;

    #[test]
    fn script_is_deterministic_and_seeded() {
        let cfg = LoadgenConfig::default();
        let a = script(&cfg);
        let b = script(&cfg);
        // NaN payloads make Op's PartialEq reflexively false; compare
        // the debug renderings instead (NaN formats stably).
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = script(&LoadgenConfig {
            seed: 8,
            ..LoadgenConfig::default()
        });
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        assert!(a.iter().any(|o| matches!(o, Op::Query { .. })));
        assert!(a.iter().any(|o| matches!(
            o,
            Op::Mutate {
                mutation: Mutation::Delete { .. },
                ..
            }
        )));
    }

    #[test]
    fn oracle_compares_coordinate_bits() {
        let live = BTreeMap::from([(1, vec![0.0, 1.0]), (2, vec![1.0, 0.0])]);
        let response = |first: f64| QueryResponse {
            skyline: vec![
                Point::new(1, vec![first, 1.0]),
                Point::new(2, vec![1.0, 0.0]),
            ],
            stale: false,
            lag: 0,
        };
        assert!(matches_oracle(&response(0.0), &live));
        assert!(
            !matches_oracle(&response(-0.0), &live),
            "-0.0 is not the 0.0 the insert carried"
        );
    }

    #[test]
    fn fault_free_run_is_fully_correct() {
        let s = SkylineService::new(
            ServeConfig::default(),
            FaultPlan::off(),
            Tracer::in_memory(),
        );
        let ops = script(&LoadgenConfig::default());
        let report = run(&s, &ops);
        assert_eq!(report.incorrect, 0);
        assert_eq!(report.final_mismatches, 0);
        assert!(report.mutations_ok > 0);
        assert!(report.queries_fresh > 0);
        // the only rejections a fault-free run may see are poison payloads
        for outcome in report.rejections.keys() {
            assert_eq!(outcome, "dead-letter");
        }
    }

    #[test]
    fn heavy_chaos_run_never_serves_an_incorrect_fresh_response() {
        let s = SkylineService::new(
            ServeConfig::default(),
            FaultPlan::heavy(11),
            Tracer::in_memory(),
        );
        let ops = script(&LoadgenConfig {
            operations: 600,
            ..LoadgenConfig::default()
        });
        let report = run(&s, &ops);
        assert_eq!(report.incorrect, 0, "fresh responses must match the oracle");
        assert_eq!(
            report.final_mismatches, 0,
            "quiesced skylines must converge"
        );
        assert!(
            !report.rejections.is_empty(),
            "heavy chaos should reject something, and every rejection is typed"
        );
    }
}
