//! The skyline verifier: the one check that a claimed skyline is exactly
//! the skyline of a data block (DESIGN §7).
//!
//! `S` is the skyline of `D` exactly when every member is a row of `D`
//! with identical bits and a row is a member iff no member dominates it.
//! A dominator's coordinate sum is never larger than its victim's (float
//! addition is monotone), so a row scans only the members whose sum is at
//! most its own. Only [`dominates_coords`] is shared with the rest of the
//! crate, never a kernel. When the certificate fails, or the data repeats
//! an id, a full search names the first fault.

use crate::block::PointBlock;
use crate::dominance::dominates_coords;
use crate::point::Point;
use mini_mapreduce::pool::{default_threads, run_indexed};
use std::fmt;

/// Inputs of more rows than this are checked on the pool.
const PARALLEL_ROWS: usize = 20_000;

/// Rows per pool task.
const CHUNK_ROWS: usize = 4096;

/// Ways a claimed skyline can fail verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The claimed skyline misses a true skyline point.
    MissingPoint {
        /// Id of the missing row.
        id: u64,
    },
    /// The claimed skyline contains a dominated point.
    DominatedPoint {
        /// Id of the dominated row.
        id: u64,
        /// Id of a dominating row.
        dominated_by: u64,
    },
    /// A claimed id does not exist in the data.
    UnknownPoint {
        /// The foreign id.
        id: u64,
    },
    /// A claimed point's coordinates are not its data row's, bit for bit.
    ForgedCoordinates {
        /// Id of the forged member.
        id: u64,
    },
    /// A claimed id appears more than once.
    DuplicatePoint {
        /// The repeated id.
        id: u64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingPoint { id } => write!(f, "true skyline point {id} missing from result"),
            Self::DominatedPoint { id, dominated_by } => {
                write!(f, "result point {id} is dominated by {dominated_by}")
            }
            Self::UnknownPoint { id } => {
                write!(f, "result point {id} does not exist in the dataset")
            }
            Self::ForgedCoordinates { id } => {
                write!(
                    f,
                    "result point {id} does not carry its dataset coordinates"
                )
            }
            Self::DuplicatePoint { id } => {
                write!(f, "result point {id} is reported more than once")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks that `claimed` is exactly the skyline of `data`: each member a
/// row of `data`, claimed once, with that row's coordinate bits (`-0.0` is
/// not `0.0`); no row dominating a member; a member dominating every other
/// row. Returns the first fault: identity in claimed order, then
/// soundness in claimed order, then completeness in data order. Runs on
/// the pool ([`default_threads`]) above 20,000 rows.
pub fn verify_skyline(data: &PointBlock, claimed: &[Point]) -> Result<(), ValidationError> {
    let mut by_id: Vec<(u64, usize)> = data.ids().iter().copied().zip(0..).collect();
    by_id.sort_unstable();
    // sorted, not hashed (DESIGN §7); an id maps to its last row
    let row_of = |id: u64| match by_id.partition_point(|&(x, _)| x <= id) {
        0 => None,
        k => (by_id[k - 1].0 == id).then_some(by_id[k - 1].1),
    };
    let mut is_member = vec![false; data.len()];
    for p in claimed {
        let Some(row) = row_of(p.id()) else {
            return Err(ValidationError::UnknownPoint { id: p.id() });
        };
        if std::mem::replace(&mut is_member[row], true) {
            return Err(ValidationError::DuplicatePoint { id: p.id() });
        }
        let same_bits = data.row(row).len() == p.dim()
            && data
                .row(row)
                .iter()
                .zip(p.coords())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_bits {
            return Err(ValidationError::ForgedCoordinates { id: p.id() });
        }
    }
    let unique = by_id.windows(2).all(|w| w[0].0 != w[1].0);
    if unique && certificate(data, &is_member) {
        return Ok(());
    }
    // a row is claimed when its id is: the row that id maps to is a member
    let claimed_id = |q: usize| row_of(data.id(q)).is_some_and(|r| is_member[r]);
    first_fault(data, claimed, claimed_id)
}

/// Coordinate sum of a row, the cut's key.
fn sum(row: &[f64]) -> f64 {
    row.iter().sum()
}

/// Whether the member rows are exactly the rows that no member dominates.
fn certificate(data: &PointBlock, is_member: &[bool]) -> bool {
    let d = data.dim();
    let mut order: Vec<usize> = (0..data.len()).filter(|&i| is_member[i]).collect();
    order.sort_by(|&a, &b| sum(data.row(a)).total_cmp(&sum(data.row(b))));
    let sums: Vec<f64> = order.iter().map(|&i| sum(data.row(i))).collect();
    let flat: Vec<f64> = order.iter().flat_map(|&i| data.row(i)).copied().collect();
    let threads = (data.len() > PARALLEL_ROWS)
        .then(default_threads)
        .unwrap_or(1);
    run_indexed(data.len().div_ceil(CHUNK_ROWS), threads, |c| {
        (c * CHUNK_ROWS..data.len().min((c + 1) * CHUNK_ROWS)).all(|i| {
            let row = data.row(i);
            let cut = sums.partition_point(|&s| s <= sum(row));
            let dominated = flat[..cut * d]
                .chunks_exact(d)
                .any(|m| dominates_coords(m, row));
            dominated != is_member[i]
        })
    })
    .into_iter()
    .all(|ok| ok)
}

/// The first fault of a claimed skyline that passed the identity checks:
/// a member some row dominates (claimed order), then a row whose id is
/// unclaimed and that no member dominates (data order), named by the
/// undominated row its first dominators lead to.
fn first_fault(
    data: &PointBlock,
    claimed: &[Point],
    claimed_id: impl Fn(usize) -> bool,
) -> Result<(), ValidationError> {
    let dominator = |row: &[f64]| (0..data.len()).find(|&q| dominates_coords(data.row(q), row));
    for p in claimed {
        if let Some(q) = dominator(p.coords()) {
            return Err(ValidationError::DominatedPoint {
                id: p.id(),
                dominated_by: data.id(q),
            });
        }
    }
    for mut q in 0..data.len() {
        if claimed_id(q)
            || claimed
                .iter()
                .any(|s| dominates_coords(s.coords(), data.row(q)))
        {
            continue;
        }
        // terminates: dominance is a strict partial order
        while let Some(p) = dominator(data.row(q)) {
            q = p;
        }
        return Err(ValidationError::MissingPoint { id: data.id(q) });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{naive_skyline, naive_skyline_ids};

    fn pts(rows: &[&[f64]]) -> Vec<Point> {
        rows.iter()
            .enumerate()
            .map(|(i, r)| Point::new(i as u64, r.to_vec()))
            .collect()
    }

    fn block(points: &[Point]) -> PointBlock {
        let mut b = PointBlock::new(points.first().map_or(1, Point::dim));
        for p in points {
            b.push_point(p);
        }
        b
    }

    fn verify(data: &[Point], claimed: &[Point]) -> Result<(), ValidationError> {
        verify_skyline(&block(data), claimed)
    }

    /// The verifier accepts the naive skyline, and the naive skyline's ids
    /// are the certificate's members.
    fn agrees(data: &[Point]) {
        let sky = naive_skyline(data);
        assert_eq!(verify(data, &sky), Ok(()), "{data:?}");
        let mut ids: Vec<u64> = sky.iter().map(Point::id).collect();
        ids.sort_unstable();
        assert_eq!(ids, naive_skyline_ids(data));
    }

    /// `k` mutually incomparable rows on the anti-diagonal, then `copies`
    /// rows above each of them in turn: a skyline of exactly rows `0..k`.
    fn diagonal(k: usize, copies: usize) -> Vec<Point> {
        let mut rows = Vec::new();
        for i in 0..k {
            rows.push(vec![i as f64, (k - i) as f64]);
        }
        for c in 0..copies {
            for i in 0..k {
                let lift = 0.5 + c as f64;
                rows.push(vec![i as f64 + lift, (k - i) as f64 + 0.5]);
            }
        }
        rows.into_iter()
            .enumerate()
            .map(|(i, r)| Point::new(i as u64, r))
            .collect()
    }

    #[test]
    fn agrees_with_naive_on_adversarial_inputs() {
        agrees(&pts(&[&[1.0, 2.0], &[1.0, 2.0], &[2.0, 1.0], &[3.0, 3.0]])); // duplicates
        agrees(&pts(&[&[1.0, 5.0], &[1.0, 4.0], &[2.0, 4.0], &[0.5, 9.0]])); // ties
        agrees(&pts(&[
            &[0.0, 1.0],
            &[-0.0, 1.0],
            &[-0.0, 0.0],
            &[0.0, -0.0],
        ])); // ±0.0
        agrees(&pts(&[&[7.0, 1.0], &[7.0, 2.0], &[7.0, 0.5], &[7.0, 0.5]])); // constant column
        agrees(&[]);
        agrees(&pts(&[&[3.0, 4.0]]));
        agrees(&pts(&[&[3.0], &[1.0], &[1.0], &[2.0]])); // d = 1
        for k in [63, 64, 65] {
            let data = diagonal(k, 1);
            assert_eq!(naive_skyline_ids(&data).len(), k);
            agrees(&data);
        }
    }

    #[test]
    fn agrees_with_naive_on_random_inputs() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % 8) as f64
        };
        for d in 1..=4 {
            let data: Vec<Point> = (0..300u64)
                .map(|i| Point::new(i, (0..d).map(|_| next()).collect::<Vec<_>>()))
                .collect();
            agrees(&data);
        }
    }

    #[test]
    fn rejects_wrong_skylines() {
        let data = diagonal(64, 1);
        let sky = naive_skyline(&data);

        assert_eq!(
            verify(&data, &sky[1..]),
            Err(ValidationError::MissingPoint { id: 0 })
        );

        let mut added = sky.clone();
        added.push(data[64].clone()); // dominated by row 0
        assert_eq!(
            verify(&data, &added),
            Err(ValidationError::DominatedPoint {
                id: 64,
                dominated_by: 0
            })
        );

        let mut perturbed = sky.clone();
        let mut coords = perturbed[3].coords().to_vec();
        coords[0] = f64::from_bits(coords[0].to_bits() + 1);
        perturbed[3] = Point::new(perturbed[3].id(), coords);
        assert_eq!(
            verify(&data, &perturbed),
            Err(ValidationError::ForgedCoordinates { id: 3 })
        );

        let mut foreign = sky.clone();
        foreign.push(Point::new(10_000, vec![-1.0, -1.0]));
        assert_eq!(
            verify(&data, &foreign),
            Err(ValidationError::UnknownPoint { id: 10_000 })
        );

        let mut twice = sky;
        twice.push(data[5].clone());
        assert_eq!(
            verify(&data, &twice),
            Err(ValidationError::DuplicatePoint { id: 5 })
        );
    }

    /// The missing skyline point 1 dominates point 0, which comes first
    /// and which no claimed point dominates: the fault must still name
    /// the true skyline member, not its dominated neighbour.
    #[test]
    fn a_missing_member_is_named_not_its_dominated_neighbour() {
        let data = pts(&[&[2.0, 2.0], &[1.0, 1.0], &[0.0, 5.0]]);
        assert_eq!(
            verify(&data, &data[2..]),
            Err(ValidationError::MissingPoint { id: 1 })
        );
    }

    #[test]
    fn error_messages_are_descriptive() {
        let text = |e: ValidationError| e.to_string();
        assert!(text(ValidationError::MissingPoint { id: 3 }).contains("missing"));
        assert!(text(ValidationError::DominatedPoint {
            id: 1,
            dominated_by: 2
        })
        .contains("dominated by 2"));
        assert!(text(ValidationError::UnknownPoint { id: 7 }).contains("not exist"));
        assert!(text(ValidationError::ForgedCoordinates { id: 7 }).contains("coordinates"));
        assert!(text(ValidationError::DuplicatePoint { id: 7 }).contains("more than once"));
    }

    #[test]
    fn sign_of_zero_counts_as_a_perturbation() {
        let data = pts(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let flipped = vec![Point::new(0, vec![-0.0, 1.0]), data[1].clone()];
        assert_eq!(
            verify(&data, &flipped),
            Err(ValidationError::ForgedCoordinates { id: 0 })
        );
        assert_eq!(verify(&data, &data), Ok(()));
    }

    /// `(1e16, 1)` is dominated by `(1e16, 0)`, and both sums round to
    /// `1e16`: the cut must scan members whose sum equals the row's.
    #[test]
    fn a_dominator_with_an_equal_sum_is_scanned() {
        let data = pts(&[&[1e16, 0.0], &[1e16, 1.0]]);
        assert_eq!(sum(data[0].coords()), sum(data[1].coords()));
        assert_eq!(
            verify(&data, &data),
            Err(ValidationError::DominatedPoint {
                id: 1,
                dominated_by: 0
            })
        );
        assert_eq!(verify(&data, &data[..1]), Ok(()));
    }

    /// A repeated data id makes membership by id ambiguous; the search
    /// decides, so a member shadowed by its own id's other row fails.
    #[test]
    fn repeated_data_ids_are_searched() {
        let data = vec![Point::new(0, vec![1.0, 1.0]), Point::new(0, vec![2.0, 2.0])];
        assert_eq!(
            verify(&data, &data[1..]),
            Err(ValidationError::DominatedPoint {
                id: 0,
                dominated_by: 0
            })
        );
    }

    /// Above 20,000 rows the rows are checked in chunks on the pool: the
    /// verdicts, and the faults the search names, stay the same.
    #[test]
    fn large_inputs_are_checked_on_the_pool() {
        let data = diagonal(100, 210);
        assert!(data.len() > PARALLEL_ROWS);
        let sky = &data[..100];
        assert_eq!(verify(&data, sky), Ok(()));
        assert_eq!(
            verify(&data, &sky[..99]),
            Err(ValidationError::MissingPoint { id: 99 })
        );
        let mut added = sky.to_vec();
        added.push(data[data.len() - 1].clone());
        assert_eq!(
            verify(&data, &added),
            Err(ValidationError::DominatedPoint {
                id: data.len() as u64 - 1,
                dominated_by: 99
            })
        );
    }
}
