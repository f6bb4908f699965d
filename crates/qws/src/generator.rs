//! The QWS-like service generator.
//!
//! Each service draws a latent *quality factor* `q ~ N(0,1)`; every
//! attribute then samples its marginal with a standard-normal input
//! correlated to `q` by the attribute's `quality_loading`. This reproduces
//! the structure of real QWS data: a good service tends to be good across
//! response time, availability and reliability at once, while price pulls
//! mildly the other way — which is exactly what keeps skylines non-trivial
//! (pure independence inflates the skyline, perfect correlation collapses
//! it to a handful of points).
//!
//! Raw values are then **oriented** (lower-is-better, minimum at 0, see
//! [`AttributeSpec::orient`]) so the points feed directly into the skyline
//! kernels and the angular transform of paper Eq. (1).

use crate::attributes::{AttributeSpec, Marginal, QWS_ATTRIBUTES};
use crate::dataset::Dataset;
use crate::rng::{correlate, standard_normal};
use rand::{rngs::StdRng, SeedableRng};
use skyline_algos::block::PointBlock;
use skyline_algos::point::Point;

/// Configuration of a QWS-like dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct QwsConfig {
    /// Number of services (paper: 1,000 / 10,000 / 100,000).
    pub cardinality: usize,
    /// Number of attributes, 1–10 (paper sweeps 2–10).
    pub dimensions: usize,
    /// RNG seed.
    pub seed: u64,
    /// Strength multiplier on each attribute's quality loading: `1.0` keeps
    /// the catalogue's realistic correlation, `0.0` makes attributes
    /// independent.
    pub correlation_scale: f64,
}

impl Default for QwsConfig {
    fn default() -> Self {
        Self {
            cardinality: 10_000,
            dimensions: 10,
            seed: 42,
            correlation_scale: 1.0,
        }
    }
}

impl QwsConfig {
    /// Convenience constructor for the common (n, d) sweep.
    pub fn new(cardinality: usize, dimensions: usize) -> Self {
        Self {
            cardinality,
            dimensions,
            ..Self::default()
        }
    }

    /// Builder: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn sample_raw(spec: &AttributeSpec, z: f64) -> f64 {
    // Feed the correlated standard normal through the marginal by reusing
    // the samplers with the pre-drawn z (they expect an RNG, so inline the
    // location/scale maths here instead).
    match spec.marginal {
        Marginal::Normal { mean, sd } => (mean + sd * z).clamp(spec.range.0, spec.range.1),
        Marginal::LogNormal { mu, sigma } => {
            (mu + sigma * z).exp().clamp(spec.range.0, spec.range.1)
        }
    }
}

/// Generates an oriented QWS-like dataset.
///
/// # Panics
///
/// Panics if `cardinality == 0` or `dimensions` is outside `1..=10`.
///
/// # Examples
///
/// ```
/// use qws_data::{generate_qws, QwsConfig};
///
/// let data = generate_qws(&QwsConfig::new(1000, 6).with_seed(7));
/// assert_eq!(data.len(), 1000);
/// assert_eq!(data.dim(), 6);
/// // lower-is-better orientation: all coordinates non-negative
/// assert!(data.points().iter().all(|p| p.coords().iter().all(|&v| v >= 0.0)));
/// ```
pub fn generate_qws(cfg: &QwsConfig) -> Dataset {
    assert!(cfg.cardinality >= 1, "cardinality must be positive");
    assert!(
        (1..=QWS_ATTRIBUTES.len()).contains(&cfg.dimensions),
        "dimensions must be 1..={}",
        QWS_ATTRIBUTES.len()
    );
    assert!(
        (0.0..=1.0).contains(&cfg.correlation_scale),
        "correlation_scale must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let specs = &QWS_ATTRIBUTES[..cfg.dimensions];
    let mut block = PointBlock::with_capacity(cfg.dimensions, cfg.cardinality);
    for id in 0..cfg.cardinality {
        let q = standard_normal(&mut rng);
        let coords: Vec<f64> = specs
            .iter()
            .map(|spec| {
                let z = standard_normal(&mut rng);
                // positive loading = good services get *better* raw values;
                // for LowerIsBetter that means a *negative* shift of the raw
                // marginal, handled by flipping the sign of the loading.
                let sign = match spec.direction {
                    crate::attributes::Direction::LowerIsBetter => -1.0,
                    crate::attributes::Direction::HigherIsBetter => 1.0,
                };
                let rho = (spec.quality_loading * cfg.correlation_scale * sign).clamp(-0.99, 0.99);
                let zc = correlate(q, z, rho);
                spec.orient(sample_raw(spec, zc))
            })
            .collect();
        block.push_point(&Point::new(id as u64, coords));
    }
    Dataset::from_built(
        format!(
            "qws(n={},d={},seed={})",
            cfg.cardinality, cfg.dimensions, cfg.seed
        ),
        block,
    )
}

/// Extends a base dataset to `cardinality` points the way the paper extended
/// QWS to 100,000 services: *"randomly generating QoS values which are
/// limited to a narrow range following the distribution of the QWS
/// dataset"* — each synthetic service is a jittered copy of a uniformly
/// drawn real service, with every coordinate scaled by
/// `1 ± U(0, jitter)` and clamped non-negative.
///
/// The base points are kept verbatim (with their ids); synthetic points get
/// fresh sequential ids.
///
/// # Panics
///
/// Panics if `cardinality < base.len()` or `jitter` is not in `[0, 1)`.
pub fn extend_qws(base: &Dataset, cardinality: usize, jitter: f64, seed: u64) -> Dataset {
    assert!(
        cardinality >= base.len(),
        "extension target {cardinality} below base size {}",
        base.len()
    );
    assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut block = base.block().clone();
    let mut next_id = base.points().iter().map(Point::id).max().unwrap_or(0) + 1;
    while block.len() < cardinality {
        let template = &base.points()[rng.gen_range(0..base.len())];
        let coords: Vec<f64> = template
            .coords()
            .iter()
            .map(|&v| {
                let f = 1.0 + rng.gen_range(-jitter..=jitter);
                (v * f).max(0.0)
            })
            .collect();
        block.push_point(&Point::new(next_id, coords));
        next_id += 1;
    }
    Dataset::from_built(
        format!("{}+ext(n={cardinality},j={jitter},seed={seed})", base.name),
        block,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let d = generate_qws(&QwsConfig::new(500, 6));
        assert_eq!(d.len(), 500);
        assert_eq!(d.dim(), 6);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_qws(&QwsConfig::new(100, 4).with_seed(9));
        let b = generate_qws(&QwsConfig::new(100, 4).with_seed(9));
        let c = generate_qws(&QwsConfig::new(100, 4).with_seed(10));
        for (x, y) in a.points().iter().zip(b.points()) {
            assert_eq!(x.coords(), y.coords());
        }
        assert_ne!(
            a.points()[0].coords(),
            c.points()[0].coords(),
            "different seeds should differ"
        );
    }

    #[test]
    fn oriented_values_nonnegative_and_within_width() {
        let d = generate_qws(&QwsConfig::new(2000, 10));
        for p in d.points() {
            for (i, spec) in QWS_ATTRIBUTES.iter().enumerate() {
                let v = p.coord(i);
                assert!(v >= 0.0, "{} negative: {v}", spec.name);
                assert!(
                    v <= spec.oriented_width() + 1e-9,
                    "{} out of range: {v}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn quality_correlation_present() {
        // response_time (dim 0) and availability (dim 3) share the latent
        // quality factor; their oriented values must correlate positively.
        let d = generate_qws(&QwsConfig::new(20_000, 4));
        let xs: Vec<f64> = d.points().iter().map(|p| p.coord(0)).collect();
        let ys: Vec<f64> = d.points().iter().map(|p| p.coord(3)).collect();
        let r = pearson(&xs, &ys);
        assert!(r > 0.15, "expected positive correlation, got {r}");
    }

    #[test]
    fn correlation_scale_zero_decorrelates() {
        let mut cfg = QwsConfig::new(20_000, 4);
        cfg.correlation_scale = 0.0;
        let d = generate_qws(&cfg);
        let xs: Vec<f64> = d.points().iter().map(|p| p.coord(0)).collect();
        let ys: Vec<f64> = d.points().iter().map(|p| p.coord(3)).collect();
        let r = pearson(&xs, &ys);
        assert!(r.abs() < 0.05, "expected ~0 correlation, got {r}");
    }

    #[test]
    fn skyline_is_nontrivial_fraction() {
        use skyline_algos::seq::naive_skyline_ids;
        let d = generate_qws(&QwsConfig::new(2000, 4));
        let sky = naive_skyline_ids(d.points());
        assert!(
            sky.len() > 3 && sky.len() < d.len() / 2,
            "skyline size {} of {}",
            sky.len(),
            d.len()
        );
    }

    #[test]
    fn marginal_statistics_track_the_catalogue() {
        // generated (de-oriented) marginals should land near the catalogue's
        // location parameters — a guard against silently breaking the QWS
        // reconstruction when tuning correlations
        let d = generate_qws(&QwsConfig::new(30_000, 10));
        for (i, spec) in QWS_ATTRIBUTES.iter().enumerate() {
            let raws: Vec<f64> = d
                .points()
                .iter()
                .map(|p| match spec.direction {
                    crate::attributes::Direction::LowerIsBetter => p.coord(i) + spec.range.0,
                    crate::attributes::Direction::HigherIsBetter => spec.range.1 - p.coord(i),
                })
                .collect();
            let mean = raws.iter().sum::<f64>() / raws.len() as f64;
            match spec.marginal {
                crate::attributes::Marginal::Normal { mean: m, sd } => {
                    assert!(
                        (mean - m).abs() < sd,
                        "{}: sample mean {mean:.1} vs model {m}±{sd}",
                        spec.name
                    );
                }
                crate::attributes::Marginal::LogNormal { mu, sigma } => {
                    // compare medians (robust for clamped log-normals)
                    let mut sorted = raws.clone();
                    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let median = sorted[sorted.len() / 2];
                    let model_median = mu.exp();
                    assert!(
                        median > model_median / (1.0 + sigma)
                            && median < model_median * (1.0 + sigma) * 1.5,
                        "{}: sample median {median:.1} vs model {model_median:.1}",
                        spec.name
                    );
                }
            }
            // all values inside the catalogue range
            assert!(raws
                .iter()
                .all(|&v| v >= spec.range.0 - 1e-9 && v <= spec.range.1 + 1e-9));
        }
    }

    #[test]
    fn extend_keeps_base_and_jitters_rest() {
        let base = generate_qws(&QwsConfig::new(100, 4));
        let ext = extend_qws(&base, 350, 0.05, 7);
        assert_eq!(ext.len(), 350);
        // base points kept verbatim
        for (a, b) in ext.points()[..100].iter().zip(base.points()) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.coords(), b.coords());
        }
        // synthetic points stay near some template and non-negative
        for p in &ext.points()[100..] {
            assert!(p.coords().iter().all(|&v| v >= 0.0));
        }
        // deterministic
        let ext2 = extend_qws(&base, 350, 0.05, 7);
        assert_eq!(ext.points()[349].coords(), ext2.points()[349].coords());
    }

    #[test]
    fn extension_inflates_high_dimensional_skylines() {
        // The reason the figure harnesses do NOT use jittered resampling for
        // big cardinalities: a multiplicative-jitter copy of a d-dimensional
        // template is dominated by it only when it loses on every dimension
        // at once (probability ~2^-d), so most copies of skyline templates
        // join the skyline themselves.
        use skyline_algos::seq::naive_skyline_ids;
        let base = generate_qws(&QwsConfig::new(500, 6));
        let ext = extend_qws(&base, 5000, 0.05, 1);
        let sky_base = naive_skyline_ids(base.points()).len();
        let sky_ext = naive_skyline_ids(ext.points()).len();
        assert!(
            sky_ext > sky_base * 2,
            "expected skyline inflation under 10x jittered extension, got {sky_base} -> {sky_ext}"
        );
    }

    #[test]
    #[should_panic(expected = "below base size")]
    fn extend_rejects_shrinking() {
        let base = generate_qws(&QwsConfig::new(10, 2));
        let _ = extend_qws(&base, 5, 0.05, 1);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn rejects_eleven_dimensions() {
        let _ = generate_qws(&QwsConfig::new(10, 11));
    }

    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov = xs
            .iter()
            .zip(ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / n;
        let sx = (xs.iter().map(|x| (x - mx).powi(2)).sum::<f64>() / n).sqrt();
        let sy = (ys.iter().map(|y| (y - my).powi(2)).sum::<f64>() / n).sqrt();
        cov / (sx * sy)
    }
}
