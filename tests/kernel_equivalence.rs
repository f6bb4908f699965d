//! Property-based exactness proofs for the pluggable local kernels: SFS,
//! SaLSa, and automatic selection must return *bit-identical* global
//! skylines to the BNL oracle — across all four distribution families,
//! every partitioning scheme, and chaos fault interleavings. A kernel may
//! only reorder or skip comparisons, never change the answer.

use mr_skyline_suite::chaos::FaultPlan;
use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{
    generate_qws, generate_synthetic, Dataset, Distribution, QwsConfig, SyntheticConfig,
};
use mr_skyline_suite::skyline::block::PointBlock;
use mr_skyline_suite::skyline::kernel::{block_bnl, block_sfs, BnlConfig};
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::skyline::salsa::block_salsa;
use mr_skyline_suite::skyline::select::{select_for_block, BlockKernel};
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

/// A block's skyline as sorted `(id, bit patterns)` rows.
fn block_fingerprint(block: &PointBlock) -> Vec<(u64, Vec<u64>)> {
    let mut rows: Vec<(u64, Vec<u64>)> = (0..block.len())
        .map(|i| {
            (
                block.id(i),
                block.row(i).iter().map(|c| c.to_bits()).collect(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// Every configurable kernel; `None` selects one per partition.
const ALL_KERNELS: [Option<BlockKernel>; 4] = [
    Some(BlockKernel::Bnl),
    Some(BlockKernel::Sfs),
    Some(BlockKernel::Salsa),
    None,
];

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

fn with_kernel(kernel: Option<BlockKernel>) -> AlgoConfig {
    AlgoConfig {
        kernel,
        ..AlgoConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At the block level every sort-based kernel — and whatever the
    /// selector picks — returns the same point set as `block_bnl`.
    #[test]
    fn block_kernels_match_the_bnl_oracle(data in arb_dataset()) {
        let block = PointBlock::from_points(data.points()).expect("generated data is uniform");
        let cfg = BnlConfig::default();
        let oracle = block_fingerprint(&block_bnl(&block, &cfg));
        prop_assert_eq!(
            block_fingerprint(&block_sfs(&block)), oracle.clone(), "sfs");
        prop_assert_eq!(
            block_fingerprint(&block_salsa(&block)), oracle.clone(), "salsa");
        for kernel in BlockKernel::ALL {
            let (sky, _) = kernel.run(&block, &cfg);
            prop_assert_eq!(block_fingerprint(&sky), oracle.clone(), "{}", kernel.name());
        }
        let auto = select_for_block(&block);
        let (sky, _) = auto.run(&block, &cfg);
        prop_assert_eq!(block_fingerprint(&sky), oracle, "auto -> {}", auto.name());
    }

    /// End-to-end: every kernel (and automatic selection) produces a bit-identical
    /// global skyline on every partitioning scheme.
    #[test]
    fn every_kernel_is_bit_identical_on_every_scheme(
        data in arb_dataset(),
        servers in 1usize..6,
    ) {
        for alg in ALL_SCHEMES {
            let oracle = fingerprint(
                &SkylineJob::new(alg, servers)
                    .with_config(with_kernel(Some(BlockKernel::Bnl)))
                    .run(&data),
            );
            for kernel in ALL_KERNELS {
                let run = SkylineJob::new(alg, servers)
                    .with_config(with_kernel(kernel))
                    .run(&data);
                prop_assert_eq!(
                    fingerprint(&run), oracle.clone(), "{} / {:?}", alg, kernel);
            }
        }
    }

    /// Same property with chaos interleaved: injected task faults, retries,
    /// and shuffle disruption must not interact with kernel choice (each
    /// retry re-runs the same deterministic kernel on the same block).
    #[test]
    fn kernels_survive_chaos_exactly(
        data in arb_dataset(),
        seed in 0u64..1u64 << 16,
        heavy_bit in 0u8..2,
    ) {
        quiet_chaos_panics();
        let plan = if heavy_bit == 1 { FaultPlan::heavy(seed) } else { FaultPlan::light(seed) };
        let calm = fingerprint(
            &SkylineJob::new(Algorithm::MrAngle, 4)
                .with_config(with_kernel(Some(BlockKernel::Bnl)))
                .run(&data),
        );
        for kernel in ALL_KERNELS {
            let chaotic = SkylineJob::new(Algorithm::MrAngle, 4)
                .with_config(with_kernel(kernel))
                .with_chaos(plan.clone())
                .run(&data);
            prop_assert_eq!(fingerprint(&chaotic), calm.clone(), "{:?}", kernel);
        }
    }
}

/// Deterministic spot check: on seeded anti-correlated d=6 data the
/// automatic selector must actually pick a sort-based kernel (the workload the cost
/// model exists for), and the answer must stay exact — guarding against a
/// selector that silently degenerates to BNL and passes the equivalence
/// properties vacuously.
#[test]
fn auto_picks_a_sort_kernel_on_anti_correlated_data() {
    let data = generate_synthetic(
        &SyntheticConfig::new(20_000, 6, Distribution::AntiCorrelated).with_seed(42),
    );
    let block = PointBlock::from_points(data.points()).expect("uniform dims");
    let choice = select_for_block(&block);
    assert!(
        matches!(choice, BlockKernel::Sfs | BlockKernel::Salsa),
        "expected a sort-based kernel on anti d=6 n=20k, got {}",
        choice.name()
    );
    let auto = SkylineJob::new(Algorithm::MrAngle, 8)
        .with_config(with_kernel(None))
        .run(&data);
    let base = SkylineJob::new(Algorithm::MrAngle, 8)
        .with_config(with_kernel(Some(BlockKernel::Bnl)))
        .run(&data);
    assert_eq!(fingerprint(&auto), fingerprint(&base));
}

/// Score ties between a dominator and its victim, end to end: rows whose
/// L1 norms round equal (`(1e16, 1e16)` over `(1e16, 1e16 + 2)`), whose
/// entropy scores tie at the clamp (`(-2, 1)` over `(-1, 1)`), and the
/// rounding tie behind a `0.0`/`-0.0` pair. Each victim has the smaller
/// id, so an id tiebreak would accept it. The 400-row file is 200 such
/// L1 pairs on an anti-diagonal. Every scheme × kernel must return the
/// oracle's skyline. The plan audit flags MR-Angle's probe lattice at
/// 1e16-scale coordinates; the runs are forced past it because any
/// partitioning, sound or not, must still yield the exact skyline.
#[test]
fn score_ties_give_the_oracle_skyline_on_every_scheme_and_kernel() {
    let pair = |p: &[f64], q: &[f64]| {
        Dataset::new(
            "tie pair",
            vec![Point::new(0, q.to_vec()), Point::new(1, p.to_vec())],
        )
    };
    let mut rows: Vec<Point> = (0..200)
        .map(|i| Point::new(i, vec![1e16 + 4.0 * i as f64, 1e16 - 4.0 * i as f64 + 2.0]))
        .collect();
    rows.extend(
        (0..200).map(|i| Point::new(200 + i, vec![1e16 + 4.0 * i as f64, 1e16 - 4.0 * i as f64])),
    );
    let datasets = [
        Dataset::new("400-row l1 ties", rows),
        pair(&[1e16, 1e16], &[1e16, 1e16 + 2.0]),
        pair(&[-2.0, 1.0], &[-1.0, 1.0]),
        pair(&[0.0, 1e16, 1e16], &[-0.0, 1e16, 1e16 + 2.0]),
    ];
    for data in &datasets {
        let oracle = naive_skyline_ids(data.points());
        for alg in ALL_SCHEMES.into_iter().chain([Algorithm::Sequential]) {
            for kernel in ALL_KERNELS {
                for filter_k in [Some(0), None] {
                    let config = AlgoConfig {
                        filter_k,
                        ..with_kernel(kernel)
                    };
                    let report = SkylineJob::new(alg, 4)
                        .with_config(config)
                        .with_force(true)
                        .run(data);
                    let mut ids: Vec<u64> = report.global_skyline.iter().map(Point::id).collect();
                    ids.sort_unstable();
                    assert_eq!(
                        ids, oracle,
                        "{} / {alg} / {kernel:?} / filter {filter_k:?}",
                        data.name
                    );
                    validate_report(&report, data).unwrap_or_else(|e| panic!("{alg}: {e}"));
                }
            }
        }
    }
}
