//! Time-varying QoS — the paper's second motivating problem.
//!
//! Section I: *"The QoS of selected service may get degraded rapidly, when
//! the Internet traffic becomes saturated or jammed with bottlenecks. This
//! may prevent the skyline solution from achieving the desired level of
//! QoS."* A skyline computed once is a snapshot; services drift.
//!
//! [`DriftModel`] evolves a dataset through discrete epochs: every epoch,
//! each service's *load-sensitive* attributes (times and throughput-style
//! axes) are scaled by a mean-reverting congestion factor, occasionally
//! spiked (a saturation event). Epochs are deterministic given the seed, and
//! each epoch is deliverable as a batch of `Remove` + `Add` updates so a
//! `mr_skyline::MaintainedRegistry` can track the moving
//! skyline incrementally.

use crate::dataset::{Dataset, Update};
use crate::rng::standard_normal;
use rand::{rngs::StdRng, Rng, SeedableRng};
use skyline_algos::point::Point;

/// Configuration of the congestion drift process.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// Indices of the load-sensitive attributes to drift (for QWS-ordered
    /// data: 0 = response time, 2 = latency…). Others stay fixed.
    pub drifting_dims: Vec<usize>,
    /// Mean-reversion strength per epoch (0 = random walk, 1 = memoryless).
    pub reversion: f64,
    /// Per-epoch volatility of the log-congestion factor.
    pub volatility: f64,
    /// Probability of a saturation spike per service per epoch.
    pub spike_prob: f64,
    /// Multiplier applied during a spike.
    pub spike_factor: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            drifting_dims: vec![0],
            reversion: 0.3,
            volatility: 0.15,
            spike_prob: 0.01,
            spike_factor: 6.0,
            seed: 42,
        }
    }
}

/// Evolving registry state: base QoS plus a per-service log-congestion level.
pub struct DriftModel {
    base: Vec<Point>,
    /// Current log-congestion per service (0 = nominal).
    log_congestion: Vec<f64>,
    cfg: DriftConfig,
    rng: StdRng,
    epoch: u64,
}

impl DriftModel {
    /// Starts a drift process over `dataset` (epoch 0 = nominal QoS).
    ///
    /// # Panics
    ///
    /// Panics if a drifting dimension is out of range or parameters are
    /// outside their domains.
    pub fn new(dataset: &Dataset, cfg: DriftConfig) -> Self {
        assert!(
            cfg.drifting_dims.iter().all(|&d| d < dataset.dim()),
            "drifting dimension out of range"
        );
        assert!((0.0..=1.0).contains(&cfg.reversion), "reversion in [0,1]");
        assert!(cfg.volatility >= 0.0 && cfg.spike_prob >= 0.0 && cfg.spike_prob <= 1.0);
        assert!(cfg.spike_factor >= 1.0);
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            log_congestion: vec![0.0; dataset.len()],
            base: dataset.points().to_vec(),
            cfg,
            rng,
            epoch: 0,
        }
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current QoS vector of service index `i`.
    fn current_point(&self, i: usize, spiked: bool) -> Point {
        let base = &self.base[i];
        let factor =
            self.log_congestion[i].exp() * if spiked { self.cfg.spike_factor } else { 1.0 };
        let coords: Vec<f64> = (0..base.dim())
            .map(|d| {
                if self.cfg.drifting_dims.contains(&d) {
                    base.coord(d) * factor
                } else {
                    base.coord(d)
                }
            })
            .collect();
        Point::new(base.id(), coords)
    }

    /// Advances one epoch and returns the dataset snapshot plus the update
    /// batch (`Remove` old + `Add` new per changed service) for incremental
    /// maintenance.
    pub fn step(&mut self) -> (Dataset, Vec<Update>) {
        self.epoch += 1;
        let mut updates = Vec::new();
        let mut points = Vec::with_capacity(self.base.len());
        for i in 0..self.base.len() {
            // Ornstein-Uhlenbeck-style mean-reverting log congestion
            let z = standard_normal(&mut self.rng);
            self.log_congestion[i] =
                (1.0 - self.cfg.reversion) * self.log_congestion[i] + self.cfg.volatility * z;
            let spiked = self.rng.gen_bool(self.cfg.spike_prob);
            let next = self.current_point(i, spiked);
            let changed = self
                .cfg
                .drifting_dims
                .iter()
                .any(|&d| (next.coord(d) - self.base[i].coord(d)).abs() > 0.0)
                || spiked;
            if changed {
                updates.push(Update::Remove(next.id()));
                updates.push(Update::Add(next.clone()));
            }
            points.push(next);
        }
        (
            Dataset::new(format!("drift(epoch={})", self.epoch), points),
            updates,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_qws, QwsConfig};

    fn model() -> DriftModel {
        let data = generate_qws(&QwsConfig::new(200, 4));
        DriftModel::new(&data, DriftConfig::default())
    }

    #[test]
    fn epochs_advance_and_are_deterministic() {
        let mut a = model();
        let mut b = model();
        for _ in 0..5 {
            let (da, ua) = a.step();
            let (db, ub) = b.step();
            assert_eq!(da.points().len(), db.points().len());
            for (x, y) in da.points().iter().zip(db.points()) {
                assert_eq!(x.coords(), y.coords());
            }
            assert_eq!(ua.len(), ub.len());
        }
        assert_eq!(a.epoch(), 5);
    }

    #[test]
    fn non_drifting_dims_never_change() {
        let data = generate_qws(&QwsConfig::new(100, 4));
        let mut m = DriftModel::new(&data, DriftConfig::default());
        for _ in 0..10 {
            let (snapshot, _) = m.step();
            for (orig, now) in data.points().iter().zip(snapshot.points()) {
                for d in 1..4 {
                    assert_eq!(orig.coord(d), now.coord(d), "dim {d} must be fixed");
                }
                assert!(now.coord(0) >= 0.0);
            }
        }
    }

    #[test]
    fn congestion_is_mean_reverting() {
        // with reversion, the average |log congestion| stays bounded over
        // many epochs rather than growing like a random walk
        let data = generate_qws(&QwsConfig::new(50, 2));
        let mut m = DriftModel::new(
            &data,
            DriftConfig {
                reversion: 0.5,
                volatility: 0.2,
                spike_prob: 0.0,
                ..DriftConfig::default()
            },
        );
        let mut max_mean_drift = 0.0f64;
        for _ in 0..200 {
            m.step();
            let mean_abs: f64 = m.log_congestion.iter().map(|v| v.abs()).sum::<f64>()
                / m.log_congestion.len() as f64;
            max_mean_drift = max_mean_drift.max(mean_abs);
        }
        // stationary sd = volatility / sqrt(1-(1-r)^2) ≈ 0.23; far below a
        // 200-step random walk's ~2.8
        assert!(max_mean_drift < 1.0, "drift diverged: {max_mean_drift}");
    }

    #[test]
    fn updates_replay_to_the_snapshot() {
        use std::collections::HashMap;
        let data = generate_qws(&QwsConfig::new(80, 3));
        let mut m = DriftModel::new(&data, DriftConfig::default());
        let mut live: HashMap<u64, Point> =
            data.points().iter().map(|p| (p.id(), p.clone())).collect();
        for _ in 0..5 {
            let (snapshot, updates) = m.step();
            for u in updates {
                match u {
                    Update::Remove(id) => {
                        live.remove(&id);
                    }
                    Update::Add(p) => {
                        live.insert(p.id(), p);
                    }
                }
            }
            for p in snapshot.points() {
                let l = &live[&p.id()];
                assert_eq!(l.coords(), p.coords());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_drifting_dim_rejected() {
        let data = generate_qws(&QwsConfig::new(10, 2));
        let _ = DriftModel::new(
            &data,
            DriftConfig {
                drifting_dims: vec![5],
                ..DriftConfig::default()
            },
        );
    }
}
