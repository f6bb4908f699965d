//! Integration + property tests of the extension operators (k-dominance,
//! top-k dominating, representatives) and the service registry, exercised
//! together across crates.

use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{generate_qws, Category, QwsConfig, Registry};
use mr_skyline_suite::skyline::dominance::dominates;
use mr_skyline_suite::skyline::kdominant::{k_dominant_skyline, k_dominates};
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::skyline::representative::{
    distance_based_representatives, max_dominance_representatives,
};
use mr_skyline_suite::skyline::seq::naive_skyline_ids;
use mr_skyline_suite::skyline::topk::top_k_dominating;
use proptest::prelude::*;

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    (2usize..=5).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(0u8..24, d), 1..100).prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, row)| {
                    Point::new(
                        i as u64,
                        row.iter().map(|&v| f64::from(v)).collect::<Vec<_>>(),
                    )
                })
                .collect()
        })
    })
}

fn ids(v: &[Point]) -> Vec<u64> {
    let mut out: Vec<u64> = v.iter().map(Point::id).collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn k_dominant_members_satisfy_definition(pts in arb_points()) {
        let d = pts[0].dim();
        for k in (d.saturating_sub(2).max(1))..=d {
            let kd = k_dominant_skyline(&pts, k);
            for m in &kd {
                prop_assert!(
                    !pts.iter().any(|q| q.id() != m.id() && k_dominates(q, m, k)),
                    "k={} member {} is k-dominated", k, m.id()
                );
            }
            // every excluded point IS k-dominated by someone
            let kd_ids: std::collections::HashSet<u64> = kd.iter().map(Point::id).collect();
            for p in &pts {
                if !kd_ids.contains(&p.id()) {
                    prop_assert!(
                        pts.iter().any(|q| q.id() != p.id() && k_dominates(q, p, k)),
                        "k={} excluded {} but nobody k-dominates it", k, p.id()
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_counts_are_correct_and_sorted(pts in arb_points(), k in 1usize..8) {
        let top = top_k_dominating(&pts, k);
        prop_assert!(top.len() <= k);
        for entry in &top {
            let expected = pts.iter().filter(|q| dominates(&entry.point, q)).count();
            prop_assert_eq!(entry.dominated, expected);
        }
        for w in top.windows(2) {
            prop_assert!(w[0].dominated >= w[1].dominated);
        }
    }

    #[test]
    fn representatives_are_always_skyline_members(pts in arb_points(), k in 1usize..6) {
        let report = SkylineJob::new(Algorithm::MrAngle, 2).run(
            &mr_skyline_suite::qws::Dataset::new("prop", pts.clone()),
        );
        let sky = &report.global_skyline;
        let sky_ids: std::collections::HashSet<u64> = sky.iter().map(Point::id).collect();
        for rep in max_dominance_representatives(sky, &pts, k) {
            prop_assert!(sky_ids.contains(&rep.id()));
        }
        for rep in distance_based_representatives(sky, k) {
            prop_assert!(sky_ids.contains(&rep.id()));
        }
    }
}

#[test]
fn registry_category_skylines_partition_the_work() {
    let registry = Registry::synthetic(3000, 4, 11);
    let mut per_category_total = 0usize;
    for category in Category::ALL {
        let data = registry.category_dataset(category).expect("populated");
        per_category_total += data.len();
        let report = SkylineJob::new(Algorithm::MrGrid, 4).run(&data);
        validate_report(&report, &data).expect("category skyline valid");
        // every winner belongs to the right category
        for p in &report.global_skyline {
            assert_eq!(registry.get(p.id()).expect("resolves").category, category);
        }
    }
    assert_eq!(per_category_total, registry.len());
}

#[test]
fn registry_churn_flows_into_maintained_skyline() {
    let mut registry = Registry::synthetic(400, 3, 5);
    let data = registry.full_dataset();
    let mut maintained =
        MaintainedRegistry::bootstrap(Algorithm::MrAngle, 4, &data).expect("partitioner fit");

    // register a dominator of everything
    let id = registry.register("flawless", "acme", Category::Sms, vec![0.0, 0.0, 0.0]);
    maintained.apply(&mr_skyline_suite::qws::dataset::Update::Add(
        registry.get(id).unwrap().qos.clone(),
    ));
    assert_eq!(maintained.skyline().len(), 1);
    assert_eq!(maintained.skyline()[0].id(), id);

    // deregister it again: the old skyline must come back
    registry.deregister(id);
    maintained.apply(&mr_skyline_suite::qws::dataset::Update::Remove(id));
    assert_eq!(
        ids(maintained.skyline()),
        naive_skyline_ids(registry.full_dataset().points())
    );
}

#[test]
fn toolbox_composes_on_one_dataset() {
    let data = generate_qws(&QwsConfig::new(2500, 6));
    let report = SkylineJob::new(Algorithm::MrAngle, 4).run(&data);
    let sky = &report.global_skyline;

    // the MR result agrees with the sequential oracle
    assert_eq!(ids(sky), naive_skyline_ids(data.points()));

    // k-dominant shrinks within the skyline
    let k5 = k_dominant_skyline(sky, 5);
    let k6 = k_dominant_skyline(sky, 6);
    assert!(k5.len() <= k6.len());
    assert_eq!(k6.len(), sky.len(), "k=d keeps the whole skyline");

    // top dominator is a skyline member
    let top = top_k_dominating(data.points(), 1);
    assert!(ids(sky).contains(&top[0].point.id()));
}
