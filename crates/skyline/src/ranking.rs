//! Utility-based ranking of skyline services.
//!
//! The skyline answers "which services are *not obviously worse* than some
//! other service"; a user still has to pick one. The standard QoS-selection
//! practice (Zeng et al., TSE 2004 — reference [32] of the paper) scores
//! each candidate with a weighted sum of range-normalised attributes and
//! ranks. Because every attribute in this workspace is oriented
//! lower-is-better, the best service minimises the weighted score.
//!
//! A key property ties this to the skyline: for any non-negative weight
//! vector, **some skyline point minimises the score** — so ranking the
//! skyline (a few hundred points) is as good as ranking the whole registry
//! (100,000 points), which is precisely why fast skyline extraction matters
//! for selection latency.

use crate::point::Point;

/// A weighted-sum scoring function over range-normalised attributes.
#[derive(Debug, Clone)]
pub struct WeightedScore {
    weights: Vec<f64>,
    min: Vec<f64>,
    width: Vec<f64>,
}

impl WeightedScore {
    /// Builds a scorer with the given per-attribute weights, normalising
    /// each attribute over the ranges observed in `reference`.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is empty, weights are negative/non-finite, or
    /// the weight count does not match the dimensionality.
    pub fn fit(weights: &[f64], reference: &[Point]) -> Self {
        assert!(
            !reference.is_empty(),
            "need reference points for normalisation"
        );
        let d = reference[0].dim();
        assert_eq!(weights.len(), d, "one weight per attribute required");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative and finite"
        );
        let mut min = vec![f64::INFINITY; d];
        let mut max = vec![f64::NEG_INFINITY; d];
        for p in reference {
            assert_eq!(p.dim(), d, "mixed dimensionality in reference set");
            for i in 0..d {
                min[i] = min[i].min(p.coord(i));
                max[i] = max[i].max(p.coord(i));
            }
        }
        let width = (0..d).map(|i| max[i] - min[i]).collect();
        Self {
            weights: weights.to_vec(),
            min,
            width,
        }
    }

    /// Equal weights over all `d` attributes of `reference`.
    pub fn uniform(reference: &[Point]) -> Self {
        let d = reference
            .first()
            .expect("need reference points for normalisation")
            .dim();
        Self::fit(&vec![1.0; d], reference)
    }

    /// The (lower-is-better) score of `p`.
    pub fn score(&self, p: &Point) -> f64 {
        assert_eq!(p.dim(), self.weights.len(), "dimensionality mismatch");
        (0..p.dim())
            .map(|i| {
                let norm = if self.width[i] > 0.0 {
                    (p.coord(i) - self.min[i]) / self.width[i]
                } else {
                    0.0
                };
                self.weights[i] * norm
            })
            .sum()
    }

    /// Ranks `candidates` ascending by score (best first), ties broken by
    /// service id for determinism. Returns `(point, score)` pairs.
    pub fn rank(&self, candidates: &[Point]) -> Vec<(Point, f64)> {
        let mut scored: Vec<(Point, f64)> = candidates
            .iter()
            .map(|p| (p.clone(), self.score(p)))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.id().cmp(&b.0.id())));
        scored
    }

    /// The single best candidate (lowest score), if any.
    pub fn best(&self, candidates: &[Point]) -> Option<(Point, f64)> {
        self.rank(candidates).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::naive_skyline;

    fn pts(rows: &[&[f64]]) -> Vec<Point> {
        rows.iter()
            .enumerate()
            .map(|(i, r)| Point::new(i as u64, r.to_vec()))
            .collect()
    }

    #[test]
    fn ranks_by_weighted_normalised_sum() {
        let candidates = pts(&[&[0.0, 10.0], &[10.0, 0.0], &[5.0, 5.0]]);
        // weight dim0 heavily: point 0 (best dim0) must win
        let scorer = WeightedScore::fit(&[10.0, 1.0], &candidates);
        let ranked = scorer.rank(&candidates);
        assert_eq!(ranked[0].0.id(), 0);
        // weight dim1 heavily: point 1 wins
        let scorer = WeightedScore::fit(&[1.0, 10.0], &candidates);
        assert_eq!(scorer.best(&candidates).unwrap().0.id(), 1);
    }

    #[test]
    fn uniform_prefers_the_balanced_point_here() {
        let candidates = pts(&[&[0.0, 10.0], &[10.0, 0.0], &[4.0, 4.0]]);
        let scorer = WeightedScore::uniform(&candidates);
        assert_eq!(scorer.best(&candidates).unwrap().0.id(), 2);
    }

    #[test]
    fn degenerate_dimension_contributes_zero() {
        let candidates = pts(&[&[3.0, 1.0], &[3.0, 2.0]]);
        let scorer = WeightedScore::uniform(&candidates);
        assert_eq!(scorer.score(&candidates[0]), 0.0);
        assert_eq!(scorer.score(&candidates[1]), 1.0);
    }

    #[test]
    fn some_skyline_point_is_globally_optimal_for_any_weights() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let dataset: Vec<Point> = (0..300)
            .map(|i| {
                Point::new(
                    i,
                    vec![
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                        rng.gen_range(0.0..1.0),
                    ],
                )
            })
            .collect();
        let sky = naive_skyline(&dataset);
        for _ in 0..10 {
            let w = vec![
                rng.gen_range(0.0..2.0),
                rng.gen_range(0.0..2.0),
                rng.gen_range(0.0..2.0),
            ];
            let scorer = WeightedScore::fit(&w, &dataset);
            let global_best = scorer.best(&dataset).unwrap().1;
            let sky_best = scorer.best(&sky).unwrap().1;
            assert!(
                (sky_best - global_best).abs() < 1e-12,
                "weights {w:?}: skyline best {sky_best} vs global {global_best}"
            );
        }
    }

    #[test]
    fn rank_is_deterministic_on_ties() {
        let candidates = pts(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]);
        let scorer = WeightedScore::uniform(&candidates);
        let ranked = scorer.rank(&candidates);
        let ids: Vec<u64> = ranked.iter().map(|(p, _)| p.id()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "one weight per attribute")]
    fn weight_count_must_match() {
        let candidates = pts(&[&[1.0, 1.0]]);
        let _ = WeightedScore::fit(&[1.0], &candidates);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let candidates = pts(&[&[1.0, 1.0]]);
        let _ = WeightedScore::fit(&[1.0, -1.0], &candidates);
    }
}
