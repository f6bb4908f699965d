//! Property-based exactness proofs for the early-pruning pipeline: the
//! filter-point broadcast and witness-based sector pruning must be
//! *bit-identical* to the plain pipeline — across all
//! four partitioning schemes, all data distributions, arbitrary filter
//! sizes, and chaos fault interleavings. These optimisations may only drop
//! work, never answers.

use mr_skyline_suite::chaos::FaultPlan;
use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{
    generate_qws, generate_synthetic, Dataset, Distribution, QwsConfig, SyntheticConfig,
};
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::skyline::seq::naive_skyline_ids;
use proptest::prelude::*;
use std::sync::Once;

/// Chaos faults abort tasks by panicking on purpose, and every one of them
/// is caught and retried. Keep those expected panics out of the test
/// output while leaving real panics loud.
fn quiet_chaos_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let text = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !(text.starts_with("chaos:") || text.starts_with("mrsky-chaos:")) {
                default_hook(info);
            }
        }));
    });
}

/// The skyline as sorted `(id, coordinate bit patterns)` rows — equality
/// on this is bit-for-bit equality, not approximate.
fn fingerprint(report: &SkylineRunReport) -> Vec<(u64, Vec<u64>)> {
    let mut rows: Vec<(u64, Vec<u64>)> = report
        .global_skyline
        .iter()
        .map(|p| (p.id(), p.coords().iter().map(|c| c.to_bits()).collect()))
        .collect();
    rows.sort();
    rows
}

const ALL_SCHEMES: [Algorithm; 4] = [
    Algorithm::MrAngle,
    Algorithm::MrDim,
    Algorithm::MrGrid,
    Algorithm::MrRandom,
];

/// Datasets from every distribution family the paper benchmarks:
/// anti-correlated (huge skylines), correlated (tiny skylines), uniform
/// independent, and the QWS-like quality-of-service generator.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    let shape = (40usize..240, 2usize..5, 0u64..1u64 << 32);
    (0usize..4, shape).prop_map(|(family, (n, d, seed))| match family {
        0 => generate_synthetic(
            &SyntheticConfig::new(n, d, Distribution::AntiCorrelated).with_seed(seed),
        ),
        1 => generate_synthetic(
            &SyntheticConfig::new(n, d, Distribution::Correlated).with_seed(seed),
        ),
        2 => generate_synthetic(
            &SyntheticConfig::new(n, d, Distribution::Independent).with_seed(seed),
        ),
        _ => generate_qws(&QwsConfig::new(n, d).with_seed(seed)),
    })
}

/// The pipeline with every early-pruning optimisation armed.
fn optimised(filter_k: Option<usize>) -> AlgoConfig {
    AlgoConfig {
        filter_k,
        sector_prune: true,
        ..AlgoConfig::default()
    }
}

/// The plain pipeline: no filter, no witness pruning.
fn plain() -> AlgoConfig {
    AlgoConfig {
        filter_k: Some(0),
        sector_prune: false,
        ..AlgoConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Filter + sector pruning returns bit-identical
    /// skylines to the plain pipeline on every partitioning scheme, and
    /// both match the independent sequential oracle.
    #[test]
    fn optimised_pipeline_is_bit_identical_on_every_scheme(
        data in arb_dataset(),
        servers in 1usize..6,
        filter_raw in 0usize..24,
    ) {
        // 0 means "auto-sized filter" here, not "filter off" — the plain
        // baseline is the only run with the filter disabled.
        let filter_k = (filter_raw > 0).then_some(filter_raw);
        let oracle = naive_skyline_ids(data.points());
        for alg in ALL_SCHEMES {
            let fast = SkylineJob::new(alg, servers)
                .with_config(optimised(filter_k))
                .run(&data);
            let base = SkylineJob::new(alg, servers)
                .with_config(plain())
                .run(&data);
            prop_assert_eq!(fingerprint(&fast), fingerprint(&base), "{}", alg);
            let mut ids: Vec<u64> = fast.global_skyline.iter().map(Point::id).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, oracle.clone(), "{} vs oracle", alg);
        }
    }

    /// Same property with chaos interleaved: injected task faults, retries,
    /// and shuffle disruption must not interact with filtering (the
    /// `rows_filtered` ledger only ever sees each task's last successful
    /// attempt).
    #[test]
    fn optimised_pipeline_survives_chaos_exactly(
        data in arb_dataset(),
        seed in 0u64..1u64 << 16,
        heavy_bit in 0u8..2,
    ) {
        quiet_chaos_panics();
        let plan = if heavy_bit == 1 { FaultPlan::heavy(seed) } else { FaultPlan::light(seed) };
        for alg in ALL_SCHEMES {
            let chaotic = SkylineJob::new(alg, 4)
                .with_config(optimised(None))
                .with_chaos(plan.clone())
                .run(&data);
            let calm = SkylineJob::new(alg, 4)
                .with_config(plain())
                .run(&data);
            prop_assert_eq!(fingerprint(&chaotic), fingerprint(&calm), "{}", alg);
        }
    }
}

/// Deterministic spot check on a larger anti-correlated input (the worst
/// case for skyline size): the filter must actually drop rows while the
/// answer stays exact — guarding against a silently disabled filter
/// passing the equivalence properties vacuously.
#[test]
fn filter_really_fires_and_stays_exact() {
    let data = generate_synthetic(
        &SyntheticConfig::new(4000, 4, Distribution::AntiCorrelated).with_seed(7),
    );
    let fast = SkylineJob::new(Algorithm::MrAngle, 8)
        .with_config(optimised(None))
        .run(&data);
    let base = SkylineJob::new(Algorithm::MrAngle, 8)
        .with_config(plain())
        .run(&data);
    assert!(fast.rows_filtered > 0, "filter sweep never dropped a row");
    assert_eq!(fingerprint(&fast), fingerprint(&base));
}
