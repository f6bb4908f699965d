//! Error type for the skyline substrate.

use std::fmt;

/// Errors produced while constructing points or configuring partitioners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkylineError {
    /// A point was constructed with zero dimensions.
    EmptyPoint {
        /// Identifier of the offending point.
        id: u64,
    },
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate {
        /// Identifier of the offending point.
        id: u64,
        /// Index of the offending dimension.
        dim: usize,
    },
    /// Two points (or a point and a partitioner) disagree on dimensionality.
    DimensionMismatch {
        /// Expected number of dimensions.
        expected: usize,
        /// Number of dimensions actually seen.
        actual: usize,
    },
    /// A partitioner was asked for zero partitions.
    ZeroPartitions,
    /// A dataset required by an operation was empty.
    EmptyDataset,
}

impl fmt::Display for SkylineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkylineError::EmptyPoint { id } => {
                write!(f, "point {id} has no dimensions")
            }
            SkylineError::NonFiniteCoordinate { id, dim } => {
                write!(
                    f,
                    "point {id} has a non-finite coordinate on dimension {dim}"
                )
            }
            SkylineError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            SkylineError::ZeroPartitions => write!(f, "partition count must be at least 1"),
            SkylineError::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
        }
    }
}

impl std::error::Error for SkylineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = SkylineError::DimensionMismatch {
            expected: 4,
            actual: 2,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 4, got 2");
        assert!(SkylineError::ZeroPartitions
            .to_string()
            .contains("at least 1"));
        assert!(SkylineError::EmptyDataset.to_string().contains("non-empty"));
        assert!(SkylineError::EmptyPoint { id: 2 }.to_string().contains("2"));
        let nf = SkylineError::NonFiniteCoordinate { id: 1, dim: 3 };
        assert!(nf.to_string().contains("dimension 3"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<SkylineError>();
    }
}
