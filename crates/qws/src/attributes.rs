//! The QWS attribute catalogue.
//!
//! QWS v2 (Al-Masri & Mahmoud, WWW'07/ICCCN'07) publishes nine QoS
//! attributes measured over ~10,000 real web services. The summary
//! statistics below are modelled on the published dataset description —
//! heavy-tailed timing attributes, percentage attributes piling up near
//! their maxima — and drive the marginal distributions of the generator.
//! The paper's experiments "selected 10 QoS attributes"; the tenth here is a
//! service price, the cost axis of the paper's own Figure 1.
//!
//! Attribute order is chosen so that a `d`-dimensional projection takes the
//! first `d` attributes and `d = 2` reproduces Figure 1's axes
//! (response time, cost).

/// Whether larger raw values are better or worse for the consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller raw value is better (times, cost).
    LowerIsBetter,
    /// Larger raw value is better (availability, reliability, …).
    HigherIsBetter,
}

/// Which marginal distribution family an attribute follows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Marginal {
    /// Clamped log-normal with underlying `N(mu, sigma²)` — heavy-tailed
    /// timing/cost attributes.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Clamped normal — percentage-style attributes.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        sd: f64,
    },
}

/// Static description of one QoS attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeSpec {
    /// Attribute name as in the QWS documentation.
    pub name: &'static str,
    /// Measurement unit.
    pub unit: &'static str,
    /// Better-direction of the raw value.
    pub direction: Direction,
    /// Hard range of raw values `[lo, hi]`.
    pub range: (f64, f64),
    /// Marginal distribution of raw values.
    pub marginal: Marginal,
    /// How strongly this attribute tracks the latent service-quality factor
    /// (sign: positive means good services score *better* on it).
    pub quality_loading: f64,
}

/// The 10-attribute catalogue: nine QWS attributes plus price.
pub const QWS_ATTRIBUTES: [AttributeSpec; 10] = [
    AttributeSpec {
        name: "response_time",
        unit: "ms",
        direction: Direction::LowerIsBetter,
        range: (37.0, 4989.0),
        // median ≈ 430 ms, long right tail
        marginal: Marginal::LogNormal {
            mu: 6.1,
            sigma: 0.8,
        },
        quality_loading: 0.68,
    },
    AttributeSpec {
        name: "price",
        unit: "USD/1k-calls",
        direction: Direction::LowerIsBetter,
        range: (0.1, 500.0),
        marginal: Marginal::LogNormal {
            mu: 2.3,
            sigma: 1.0,
        },
        quality_loading: -0.22, // better services tend to charge more
    },
    AttributeSpec {
        name: "latency",
        unit: "ms",
        direction: Direction::LowerIsBetter,
        range: (0.26, 4140.0),
        marginal: Marginal::LogNormal {
            mu: 3.4,
            sigma: 1.1,
        },
        // latency is a component of response time: nearly the same signal
        quality_loading: 0.68,
    },
    AttributeSpec {
        name: "availability",
        unit: "%",
        direction: Direction::HigherIsBetter,
        range: (7.0, 100.0),
        marginal: Marginal::Normal {
            mean: 82.0,
            sd: 16.0,
        },
        quality_loading: 0.78,
    },
    AttributeSpec {
        name: "throughput",
        unit: "req/s",
        direction: Direction::HigherIsBetter,
        range: (0.1, 43.1),
        marginal: Marginal::LogNormal {
            mu: 1.8,
            sigma: 0.8,
        },
        quality_loading: 0.58,
    },
    AttributeSpec {
        name: "successability",
        unit: "%",
        direction: Direction::HigherIsBetter,
        range: (8.0, 100.0),
        // successability is availability measured at the operation level
        marginal: Marginal::Normal {
            mean: 83.0,
            sd: 15.0,
        },
        quality_loading: 0.78,
    },
    AttributeSpec {
        name: "reliability",
        unit: "%",
        direction: Direction::HigherIsBetter,
        range: (33.0, 89.0),
        marginal: Marginal::Normal {
            mean: 65.0,
            sd: 9.0,
        },
        quality_loading: 0.68,
    },
    AttributeSpec {
        name: "compliance",
        unit: "%",
        direction: Direction::HigherIsBetter,
        range: (33.0, 100.0),
        marginal: Marginal::Normal {
            mean: 75.0,
            sd: 12.0,
        },
        quality_loading: 0.4,
    },
    AttributeSpec {
        name: "best_practices",
        unit: "%",
        direction: Direction::HigherIsBetter,
        range: (33.0, 95.0),
        marginal: Marginal::Normal {
            mean: 72.0,
            sd: 10.0,
        },
        quality_loading: 0.4,
    },
    AttributeSpec {
        name: "documentation",
        unit: "%",
        direction: Direction::HigherIsBetter,
        range: (1.0, 96.0),
        marginal: Marginal::Normal {
            mean: 32.0,
            sd: 21.0,
        },
        quality_loading: 0.28,
    },
];

impl AttributeSpec {
    /// Orients a raw attribute value so that **lower is better**, the
    /// convention every skyline kernel in this workspace assumes: raw values
    /// of `HigherIsBetter` attributes are reflected about the range maximum.
    /// The result is additionally shifted so the oriented range starts at 0,
    /// which anchors the angular transform at the origin (paper Eq. 1).
    pub fn orient(&self, raw: f64) -> f64 {
        let (lo, hi) = self.range;
        match self.direction {
            Direction::LowerIsBetter => raw - lo,
            Direction::HigherIsBetter => hi - raw,
        }
    }

    /// The oriented value range `[0, width]`.
    pub fn oriented_width(&self) -> f64 {
        self.range.1 - self.range.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_ten_distinct_attributes() {
        let mut names: Vec<&str> = QWS_ATTRIBUTES.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn figure_one_axes_come_first() {
        assert_eq!(QWS_ATTRIBUTES[0].name, "response_time");
        assert_eq!(QWS_ATTRIBUTES[1].name, "price");
    }

    #[test]
    fn ranges_are_well_formed() {
        for a in &QWS_ATTRIBUTES {
            assert!(a.range.0 < a.range.1, "{}", a.name);
            assert!(a.oriented_width() > 0.0);
        }
    }

    #[test]
    fn orient_lower_is_better_shifts_to_zero() {
        let rt = &QWS_ATTRIBUTES[0]; // response_time, lower is better
        assert_eq!(rt.orient(37.0), 0.0, "best raw value maps to 0");
        assert_eq!(rt.orient(4989.0), rt.oriented_width());
    }

    #[test]
    fn orient_higher_is_better_reflects() {
        let av = QWS_ATTRIBUTES
            .iter()
            .find(|a| a.name == "availability")
            .unwrap();
        assert_eq!(av.orient(100.0), 0.0, "perfect availability maps to 0");
        assert_eq!(av.orient(7.0), av.oriented_width());
        // better raw availability → smaller oriented value
        assert!(av.orient(95.0) < av.orient(50.0));
    }

    #[test]
    fn oriented_values_are_nonnegative_over_range() {
        for a in &QWS_ATTRIBUTES {
            for t in 0..=10 {
                let raw = a.range.0 + (a.range.1 - a.range.0) * f64::from(t) / 10.0;
                assert!(a.orient(raw) >= 0.0, "{} at {raw}", a.name);
                assert!(a.orient(raw) <= a.oriented_width() + 1e-9);
            }
        }
    }
}
