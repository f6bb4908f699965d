//! Feature-gated kernel invariant checks (`strict-invariants`).
//!
//! Every skyline kernel funnels its result through [`check_skyline`]
//! before returning. With the `strict-invariants` cargo feature **off** (the
//! default) the call compiles to nothing; with it **on**, the result goes
//! through [`verify_skyline`](crate::verify::verify_skyline). Release
//! benchmarks and large sweeps must not pay for that, but
//! `cargo test --features strict-invariants` turns every existing test into
//! a soundness proof of the kernel that produced its result.

use crate::block::PointBlock;

/// Asserts that `skyline` is exactly the skyline of `input`.
///
/// # Panics
///
/// Panics with `strict-invariants[{kernel}]: {fault}` when it is not.
#[cfg(feature = "strict-invariants")]
pub fn check_skyline(kernel: &'static str, input: &PointBlock, skyline: &PointBlock) {
    let fault = crate::verify::verify_skyline(input, &skyline.to_points()).err();
    assert!(
        fault.is_none(),
        "strict-invariants[{kernel}]: {}",
        fault.map(|e| e.to_string()).unwrap_or_default()
    );
}

/// No-op stand-in compiled when `strict-invariants` is disabled.
#[cfg(not(feature = "strict-invariants"))]
#[inline(always)]
pub fn check_skyline(_kernel: &'static str, _input: &PointBlock, _skyline: &PointBlock) {}

#[cfg(all(test, feature = "strict-invariants"))]
mod tests {
    use super::*;
    use crate::point::Point;

    fn block(points: &[Point]) -> PointBlock {
        PointBlock::from_points(points).unwrap()
    }

    fn p(id: u64, coords: Vec<f64>) -> Point {
        Point::new(id, coords)
    }

    #[test]
    fn accepts_a_correct_skyline() {
        let input = vec![
            p(0, vec![1.0, 2.0]),
            p(1, vec![2.0, 1.0]),
            p(2, vec![3.0, 3.0]),
        ];
        check_skyline("test", &block(&input), &block(&input[..2]));
    }

    #[test]
    #[should_panic(expected = "strict-invariants[test]: result point 1 is dominated by 0")]
    fn rejects_a_dominated_member() {
        let input = vec![p(0, vec![1.0, 1.0]), p(1, vec![2.0, 2.0])];
        check_skyline("test", &block(&input), &block(&input));
    }

    #[test]
    #[should_panic(expected = "strict-invariants[test]: true skyline point 1 missing")]
    fn rejects_unsound_pruning() {
        let input = vec![p(0, vec![1.0, 2.0]), p(1, vec![2.0, 1.0])];
        check_skyline("test", &block(&input), &block(&input[..1]));
    }

    #[test]
    #[should_panic(expected = "strict-invariants[test]: result point 7 does not exist")]
    fn rejects_fabricated_members() {
        let input = vec![p(0, vec![1.0, 2.0])];
        let skyline = vec![p(7, vec![0.5, 0.5])];
        check_skyline("test", &block(&input), &block(&skyline));
    }
}
