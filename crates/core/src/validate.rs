//! Cross-checking MR results against the dominance definition: adapters
//! from a [`Dataset`] and a [`SkylineRunReport`] to the one skyline
//! checker, [`skyline_algos::verify::verify_skyline`], which runs no
//! skyline kernel, so a kernel defect cannot hide behind a shared path.

use crate::report::SkylineRunReport;
use qws_data::Dataset;
use skyline_algos::point::Point;
use skyline_algos::verify::verify_skyline;
pub use skyline_algos::verify::ValidationError;

/// Checks that `skyline` is exactly the dataset's skyline, ids and
/// coordinate bits ([`verify_skyline`]).
pub fn validate_against_oracle(
    skyline: &[Point],
    dataset: &Dataset,
) -> Result<(), ValidationError> {
    verify_skyline(dataset.block(), skyline)
}

/// Validates a full run report against its dataset.
pub fn validate_report(
    report: &SkylineRunReport,
    dataset: &Dataset,
) -> Result<(), ValidationError> {
    verify_skyline(dataset.block(), &report.global_skyline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::driver::SkylineJob;
    use qws_data::{generate_qws, QwsConfig};
    use std::collections::HashSet;

    #[test]
    fn valid_report_passes() {
        let data = generate_qws(&QwsConfig::new(300, 3));
        let report = SkylineJob::new(Algorithm::MrAngle, 4).run(&data);
        assert_eq!(validate_report(&report, &data), Ok(()));
    }

    #[test]
    fn detects_missing_point() {
        let data = generate_qws(&QwsConfig::new(200, 2));
        let mut report = SkylineJob::new(Algorithm::MrDim, 2).run(&data);
        let removed = report.global_skyline.pop().expect("non-empty skyline");
        let err = validate_report(&report, &data).unwrap_err();
        assert_eq!(err, ValidationError::MissingPoint { id: removed.id() });

        // The missing skyline point 1 dominates point 0, which comes first
        // and which no reported point dominates: the error must still name
        // the true skyline member, not its dominated neighbour.
        let data = Dataset::new(
            "climb",
            vec![
                Point::new(0, vec![2.0, 2.0]),
                Point::new(1, vec![1.0, 1.0]),
                Point::new(2, vec![0.0, 5.0]),
            ],
        );
        let reported = vec![Point::new(2, vec![0.0, 5.0])];
        assert_eq!(
            validate_against_oracle(&reported, &data),
            Err(ValidationError::MissingPoint { id: 1 })
        );
    }

    #[test]
    fn detects_dominated_point() {
        let data = generate_qws(&QwsConfig::new(200, 2));
        let mut report = SkylineJob::new(Algorithm::MrDim, 2).run(&data);
        // graft a clearly dominated dataset point into the result
        let sky_ids: HashSet<u64> = report.global_skyline.iter().map(Point::id).collect();
        let dominated = data
            .points()
            .iter()
            .find(|p| !sky_ids.contains(&p.id()))
            .expect("some non-skyline point exists")
            .clone();
        report.global_skyline.push(dominated);
        assert!(matches!(
            validate_report(&report, &data).unwrap_err(),
            ValidationError::DominatedPoint { .. }
        ));
    }

    #[test]
    fn detects_unknown_point() {
        let data = generate_qws(&QwsConfig::new(100, 2));
        let mut report = SkylineJob::new(Algorithm::MrDim, 2).run(&data);
        report
            .global_skyline
            .push(Point::new(9_999_999, vec![0.0, 0.0]));
        assert_eq!(
            validate_report(&report, &data).unwrap_err(),
            ValidationError::UnknownPoint { id: 9_999_999 }
        );
    }

    /// `{0:(2,2), 1:(1,3), 2:(3,1)}`: every point is on the skyline.
    fn three_point_front() -> Dataset {
        Dataset::new(
            "front",
            vec![
                Point::new(0, vec![2.0, 2.0]),
                Point::new(1, vec![1.0, 3.0]),
                Point::new(2, vec![3.0, 1.0]),
            ],
        )
    }

    #[test]
    fn detects_forged_coordinates() {
        let data = three_point_front();
        // a member that dominates every row would otherwise pass both the
        // soundness and the completeness check
        let forged = vec![Point::new(0, vec![0.0, 0.0])];
        assert_eq!(
            validate_against_oracle(&forged, &data),
            Err(ValidationError::ForgedCoordinates { id: 0 })
        );
        // a sign flip on a zero coordinate is a different row too
        let data = Dataset::new("zero", vec![Point::new(0, vec![0.0, 1.0])]);
        assert_eq!(
            validate_against_oracle(&[Point::new(0, vec![-0.0, 1.0])], &data),
            Err(ValidationError::ForgedCoordinates { id: 0 })
        );
        assert_eq!(
            validate_against_oracle(&[Point::new(0, vec![0.0, 1.0])], &data),
            Ok(())
        );
    }

    #[test]
    fn detects_duplicate_point() {
        let data = three_point_front();
        let mut reported: Vec<Point> = data.points().to_vec();
        assert_eq!(validate_against_oracle(&reported, &data), Ok(()));
        reported.push(Point::new(1, vec![1.0, 3.0]));
        assert_eq!(
            validate_against_oracle(&reported, &data),
            Err(ValidationError::DuplicatePoint { id: 1 })
        );
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert!(ValidationError::MissingPoint { id: 3 }
            .to_string()
            .contains("missing"));
        assert!(ValidationError::DominatedPoint {
            id: 1,
            dominated_by: 2
        }
        .to_string()
        .contains("dominated by 2"));
        assert!(ValidationError::UnknownPoint { id: 7 }
            .to_string()
            .contains("not exist"));
        assert!(ValidationError::ForgedCoordinates { id: 7 }
            .to_string()
            .contains("coordinates"));
        assert!(ValidationError::DuplicatePoint { id: 7 }
            .to_string()
            .contains("more than once"));
    }
}
