//! Cross-checking MR results against the dominance definition.
//!
//! Used by integration tests and available to users who want belt-and-braces
//! verification of a production run. The check runs no skyline kernel at
//! all — only the pairwise [`dominates`] primitive — so a defect in any
//! production kernel cannot hide behind a shared code path.

use crate::report::SkylineRunReport;
use qws_data::Dataset;
use skyline_algos::dominance::dominates;
use skyline_algos::point::Point;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// Ways a report can fail validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The reported skyline misses a true skyline point.
    MissingPoint {
        /// Id of the missing service.
        id: u64,
    },
    /// The reported skyline contains a dominated point.
    DominatedPoint {
        /// Id of the dominated service.
        id: u64,
        /// Id of a dominating service.
        dominated_by: u64,
    },
    /// A reported skyline id does not exist in the dataset.
    UnknownPoint {
        /// The foreign id.
        id: u64,
    },
    /// A reported skyline point's coordinates are not its dataset row's,
    /// bit for bit.
    ForgedCoordinates {
        /// Id of the forged member.
        id: u64,
    },
    /// A reported skyline id appears more than once.
    DuplicatePoint {
        /// The repeated id.
        id: u64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::MissingPoint { id } => {
                write!(f, "true skyline point {id} missing from result")
            }
            ValidationError::DominatedPoint { id, dominated_by } => {
                write!(f, "result point {id} is dominated by {dominated_by}")
            }
            ValidationError::UnknownPoint { id } => {
                write!(f, "result point {id} does not exist in the dataset")
            }
            ValidationError::ForgedCoordinates { id } => {
                write!(
                    f,
                    "result point {id} does not carry its dataset coordinates"
                )
            }
            ValidationError::DuplicatePoint { id } => {
                write!(f, "result point {id} is reported more than once")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks `skyline` against the dataset from first principles. Each
/// member must be a dataset row, reported once and with that row's exact
/// coordinate bits; then soundness (no member dominated by any dataset
/// point) and completeness (every non-member dominated by some member).
/// O(n·|skyline|).
pub fn validate_against_oracle(
    skyline: &[Point],
    dataset: &Dataset,
) -> Result<(), ValidationError> {
    let rows: BTreeMap<u64, &[f64]> = dataset
        .points()
        .iter()
        .map(|q| (q.id(), q.coords()))
        .collect();
    let mut ids = HashSet::with_capacity(skyline.len());
    for p in skyline {
        let Some(row) = rows.get(&p.id()) else {
            return Err(ValidationError::UnknownPoint { id: p.id() });
        };
        if !ids.insert(p.id()) {
            return Err(ValidationError::DuplicatePoint { id: p.id() });
        }
        let same_bits = row.len() == p.dim()
            && row
                .iter()
                .zip(p.coords())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_bits {
            return Err(ValidationError::ForgedCoordinates { id: p.id() });
        }
    }
    // soundness
    for p in skyline {
        for q in dataset.points() {
            if dominates(q, p) {
                return Err(ValidationError::DominatedPoint {
                    id: p.id(),
                    dominated_by: q.id(),
                });
            }
        }
    }
    // completeness: with every member undominated, a non-member that no
    // member dominates is either a missed skyline point itself or is
    // dominated only by missed ones
    for q in dataset.points() {
        if ids.contains(&q.id()) || skyline.iter().any(|s| dominates(s, q)) {
            continue;
        }
        return Err(ValidationError::MissingPoint {
            id: undominated_dominator(q, dataset.points()).id(),
        });
    }
    Ok(())
}

/// Climbs from `q` to a dominator of it that no point of `points`
/// dominates — a true skyline member — or returns `q` itself if nothing
/// dominates it. Terminates because dominance is a strict partial order.
fn undominated_dominator<'a>(mut q: &'a Point, points: &'a [Point]) -> &'a Point {
    while let Some(p) = points.iter().find(|p| dominates(p, q)) {
        q = p;
    }
    q
}

/// Validates a full run report against its dataset.
pub fn validate_report(
    report: &SkylineRunReport,
    dataset: &Dataset,
) -> Result<(), ValidationError> {
    validate_against_oracle(&report.global_skyline, dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::driver::SkylineJob;
    use qws_data::{generate_qws, QwsConfig};

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
