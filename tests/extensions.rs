//! Integration + property tests of the representative operators and the
//! maintained skyline, exercised together across crates.

use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::dataset::Update;
use mr_skyline_suite::qws::{generate_qws, QwsConfig};
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::skyline::representative::{
    distance_based_representatives, max_dominance_representatives,
};
use mr_skyline_suite::skyline::seq::naive_skyline_ids;
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
    fn representatives_are_always_skyline_members(pts in arb_points(), k in 1usize..6) {
        let report = SkylineJob::new(Algorithm::MrAngle, 2).run(
            &mr_skyline_suite::qws::Dataset::new("prop", pts.clone()).unwrap(),
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
fn registry_churn_flows_into_maintained_skyline() {
    let data = generate_qws(&QwsConfig::new(400, 3).with_seed(5));
    let mut maintained =
        MaintainedRegistry::bootstrap(Algorithm::MrAngle, 4, &data).expect("partitioner fit");

    // register a dominator of everything
    let id = data.len() as u64;
    maintained.apply(&Update::Add(Point::new(id, vec![0.0, 0.0, 0.0])));
    assert_eq!(maintained.skyline().len(), 1);
    assert_eq!(maintained.skyline()[0].id(), id);

    // deregister it again: the old skyline must come back
    maintained.apply(&Update::Remove(id));
    assert_eq!(ids(maintained.skyline()), naive_skyline_ids(data.points()));
}

#[test]
fn toolbox_composes_on_one_dataset() {
    let data = generate_qws(&QwsConfig::new(2500, 6));
    let report = SkylineJob::new(Algorithm::MrAngle, 4).run(&data);
    let sky = &report.global_skyline;

    // the MR result agrees with the sequential oracle
    assert_eq!(ids(sky), naive_skyline_ids(data.points()));
}
