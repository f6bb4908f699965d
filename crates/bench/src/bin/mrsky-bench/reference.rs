//! The reference work: a fixed computation, owned by this benchmark and
//! sharing no code with the engine, timed next to every measured sample.
//!
//! The benchmark runs on a virtual machine that shares its host, and the
//! host's speed drifts: a query runs up to 1.7× slower for stretches of
//! seconds to minutes, with no steal time recorded, while a plain CPU loop
//! slows by a tenth. The reference work is built like a query (parse CSV
//! text into floats, then block-nested-loop skylines over uniform and
//! anti-correlated rows), so the drift slows it about as much. End-to-end
//! times are reported at the reference speed: measured time ×
//! `REFERENCE_S` / the reference time measured next to it. A change to the
//! engine cannot move the reference work; a change to the build profile or
//! the allocator can, which hides part of its effect.

use std::hint::black_box;
use std::time::Instant;

/// What the reference work is taken to take; the scale of every end-to-end
/// time. It took 45–60 ms on the 2-vCPU host the bounds were set on.
pub const REFERENCE_S: f64 = 0.050;

const DIMS: usize = 6;
const TEXT_ROWS: usize = 15_000;
const ANTI_ROWS: usize = 1_500;

/// The fixed inputs of the reference work, made once per process.
pub struct Reference {
    /// `TEXT_ROWS` uniform rows as CSV text.
    text: String,
    /// `ANTI_ROWS` anti-correlated rows, flat.
    anti: Vec<f64>,
}

/// xorshift64: a fixed stream, so every process does the same work.
fn next_unit(x: &mut u64) -> f64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    (*x >> 11) as f64 / (1u64 << 53) as f64
}

impl Reference {
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D;
        let mut text = String::new();
        for i in 0..TEXT_ROWS * DIMS {
            text.push_str(&format!("{:.4}", next_unit(&mut x) * 1000.0));
            text.push(if i % DIMS == DIMS - 1 { '\n' } else { ',' });
        }
        // Rows near the plane where the coordinates sum to 3: most of them
        // are in the skyline, as on the anti-correlated workload.
        let mut anti = Vec::with_capacity(ANTI_ROWS * DIMS);
        for _ in 0..ANTI_ROWS {
            let row: Vec<f64> = (0..DIMS).map(|_| next_unit(&mut x)).collect();
            let sum: f64 = row.iter().sum();
            let target = 3.0 + (next_unit(&mut x) - 0.5) * 0.3;
            anti.extend(row.iter().map(|c| c * target / sum));
        }
        Self { text, anti }
    }

    /// Runs the reference work once and returns its wall time in seconds.
    pub fn time(&self) -> f64 {
        let started = Instant::now();
        let mut parsed = Vec::with_capacity(TEXT_ROWS * DIMS);
        for field in self.text.split([',', '\n']) {
            if let Ok(v) = field.parse::<f64>() {
                parsed.push(v);
            }
        }
        black_box(skyline_size(&parsed));
        black_box(skyline_size(&self.anti));
        started.elapsed().as_secs_f64()
    }
}

/// `measured_s` at the reference speed, given the reference time measured
/// next to it.
pub fn at_reference(measured_s: f64, reference_s: f64) -> f64 {
    if reference_s > 0.0 {
        measured_s * REFERENCE_S / reference_s
    } else {
        0.0
    }
}

/// Smaller is better in every coordinate.
fn dominates(a: &[f64], b: &[f64]) -> bool {
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        strictly |= x < y;
    }
    strictly
}

/// Block-nested-loop skyline of flat `DIMS`-wide rows; its size.
fn skyline_size(flat: &[f64]) -> usize {
    let mut window: Vec<&[f64]> = Vec::new();
    for row in flat.chunks_exact(DIMS) {
        if window.iter().any(|w| dominates(w, row)) {
            continue;
        }
        window.retain(|w| !dominates(row, w));
        window.push(row);
    }
    window.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed_and_nontrivial() {
        let (a, b) = (Reference::new(), Reference::new());
        assert_eq!(a.text, b.text);
        assert_eq!(a.anti, b.anti);
        assert_eq!(a.text.lines().count(), TEXT_ROWS);
        // Most anti-correlated rows are in their skyline, so the window
        // grows and the work is dominance tests, as in the merge.
        assert!(skyline_size(&a.anti) > ANTI_ROWS / 2);
        assert!(a.time() > 0.0);
        // Twice the reference time, whatever the host: twice REFERENCE_S.
        assert!((at_reference(0.5, 0.25) - 2.0 * REFERENCE_S).abs() < 1e-12);
        assert_eq!(at_reference(1.0, 0.0), 0.0);
    }
}
