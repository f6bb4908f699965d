//! Bounded retries with deterministic, sim-clock-aware backoff.

/// Deterministic exponential backoff: attempt `a` (0-based) waits
/// `base_seconds * factor^a` simulated seconds before retrying, spread
/// by up to `jitter` of itself when a caller supplies a seed.
///
/// Jitter is *seeded*, never sampled from ambient randomness — chaos
/// runs must be bit-reproducible, so the spread for `(seed, attempt)`
/// is a pure hash. `jitter = 0.0` (the default) reproduces the
/// historical unjittered schedule exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, in simulated seconds.
    pub base_seconds: f64,
    /// Multiplier applied per additional failed attempt.
    pub factor: f64,
    /// Maximum fractional spread added on top of the exponential delay
    /// (0.0 = none, 0.5 = up to +50%). Applied only through
    /// [`BackoffPolicy::jittered_delay_seconds`], scaled by a unit draw
    /// that is a pure hash of `(seed, attempt)`.
    pub jitter: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            base_seconds: 0.05,
            factor: 2.0,
            jitter: 0.0,
        }
    }
}

impl BackoffPolicy {
    /// Simulated delay charged before retrying after failed attempt
    /// `attempt` (0-based), without jitter.
    pub fn delay_seconds(&self, attempt: u32) -> f64 {
        self.base_seconds * self.factor.powi(attempt.min(30) as i32)
    }

    /// Simulated delay for failed attempt `attempt`, spread by the
    /// seeded jitter draw: `delay * (1 + jitter * unit(seed, attempt))`
    /// with `unit` uniform in `[0, 1)`. The same `(seed, attempt)` pair
    /// always yields the same delay, so retry schedules replay exactly.
    pub fn jittered_delay_seconds(&self, attempt: u32, seed: u64) -> f64 {
        let delay = self.delay_seconds(attempt);
        if self.jitter <= 0.0 {
            return delay;
        }
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for x in [u64::from(attempt), 0x6a69_7474_6572] {
            h = (h ^ x).wrapping_mul(0x1000_0000_01b3);
            h ^= h >> 29;
        }
        let unit = (h % (1 << 53)) as f64 / (1u64 << 53) as f64;
        delay * (1.0 + self.jitter * unit)
    }

    /// Total simulated delay charged across `failed_attempts` failures,
    /// without jitter.
    pub fn total_delay_seconds(&self, failed_attempts: u32) -> f64 {
        (0..failed_attempts).map(|a| self.delay_seconds(a)).sum()
    }
}

/// Outcome statistics for one retried operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetryStats {
    /// Attempts executed, including the successful one (≥ 1 on success).
    pub attempts: u32,
    /// Total simulated backoff charged between attempts, in seconds.
    pub backoff_seconds: f64,
}

/// Runs `op` up to `max_attempts` times, charging `backoff` between
/// attempts, and returns the first success together with [`RetryStats`].
///
/// `op` receives the 0-based attempt number. On exhaustion the *last*
/// error is returned alongside the stats.
///
/// # Errors
///
/// The final attempt's error when every attempt fails.
pub fn with_retries<T, E>(
    max_attempts: u32,
    backoff: &BackoffPolicy,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> (Result<T, E>, RetryStats) {
    let budget = max_attempts.max(1);
    let mut stats = RetryStats::default();
    let mut attempt = 0;
    loop {
        stats.attempts = attempt + 1;
        match op(attempt) {
            Ok(v) => return (Ok(v), stats),
            Err(e) => {
                if attempt + 1 >= budget {
                    return (Err(e), stats);
                }
                stats.backoff_seconds += backoff.delay_seconds(attempt);
                attempt += 1;
            }
        }
    }
}

/// Like [`with_retries`], but charges the *seeded jittered* delay
/// between attempts so concurrent retry storms de-synchronize while the
/// schedule stays replayable from `(policy, seed)`.
///
/// # Errors
///
/// The final attempt's error when every attempt fails.
pub fn with_retries_seeded<T, E>(
    max_attempts: u32,
    backoff: &BackoffPolicy,
    seed: u64,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> (Result<T, E>, RetryStats) {
    let budget = max_attempts.max(1);
    let mut stats = RetryStats::default();
    let mut attempt = 0;
    loop {
        stats.attempts = attempt + 1;
        match op(attempt) {
            Ok(v) => return (Ok(v), stats),
            Err(e) => {
                if attempt + 1 >= budget {
                    return (Err(e), stats);
                }
                stats.backoff_seconds += backoff.jittered_delay_seconds(attempt, seed);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_charges_nothing() {
        let (res, stats) = with_retries(4, &BackoffPolicy::default(), |_| Ok::<_, ()>(7));
        assert_eq!(res, Ok(7));
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.backoff_seconds, 0.0);
    }

    #[test]
    fn retries_until_success_and_charges_backoff() {
        let backoff = BackoffPolicy {
            base_seconds: 1.0,
            factor: 2.0,
            jitter: 0.0,
        };
        let (res, stats) = with_retries(5, &backoff, |a| if a < 2 { Err("boom") } else { Ok(a) });
        assert_eq!(res, Ok(2));
        assert_eq!(stats.attempts, 3);
        // failed attempts 0 and 1: 1.0 + 2.0
        assert_eq!(stats.backoff_seconds, 3.0);
    }

    #[test]
    fn exhaustion_returns_last_error() {
        let (res, stats) = with_retries(3, &BackoffPolicy::default(), |a| {
            Err::<(), _>(format!("e{a}"))
        });
        assert_eq!(res, Err("e2".to_string()));
        assert_eq!(stats.attempts, 3);
    }

    #[test]
    fn zero_budget_still_runs_once() {
        let mut calls = 0;
        let (res, stats) = with_retries(0, &BackoffPolicy::default(), |_| {
            calls += 1;
            Ok::<_, ()>(())
        });
        assert_eq!(res, Ok(()));
        assert_eq!(calls, 1);
        assert_eq!(stats.attempts, 1);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let b = BackoffPolicy {
            base_seconds: 0.5,
            factor: 2.0,
            jitter: 0.0,
        };
        assert_eq!(b.delay_seconds(0), 0.5);
        assert_eq!(b.delay_seconds(1), 1.0);
        assert_eq!(b.delay_seconds(3), 4.0);
        assert_eq!(b.total_delay_seconds(3), 3.5);
        // exponent is clamped so huge attempt counts don't overflow to inf
        assert!(b.delay_seconds(200).is_finite());
    }

    #[test]
    fn jitter_is_seeded_deterministic_and_bounded() {
        let b = BackoffPolicy {
            base_seconds: 1.0,
            factor: 2.0,
            jitter: 0.5,
        };
        for attempt in 0..8 {
            for seed in [0u64, 1, 42, u64::MAX] {
                let d = b.jittered_delay_seconds(attempt, seed);
                assert_eq!(d, b.jittered_delay_seconds(attempt, seed), "replayable");
                let plain = b.delay_seconds(attempt);
                assert!(d >= plain && d < plain * 1.5, "seed {seed}: {d} vs {plain}");
            }
        }
        // different seeds spread differently somewhere in the schedule
        let spread: Vec<f64> = (0..16).map(|s| b.jittered_delay_seconds(0, s)).collect();
        assert!(spread.windows(2).any(|w| w[0] != w[1]), "{spread:?}");
    }

    #[test]
    fn zero_jitter_matches_unjittered_schedule() {
        let b = BackoffPolicy::default();
        for attempt in 0..6 {
            assert_eq!(
                b.jittered_delay_seconds(attempt, 99),
                b.delay_seconds(attempt)
            );
        }
    }

    #[test]
    fn seeded_retries_charge_jittered_backoff() {
        let b = BackoffPolicy {
            base_seconds: 1.0,
            factor: 2.0,
            jitter: 0.25,
        };
        let (res, stats) = with_retries_seeded(5, &b, 7, |a| if a < 2 { Err(()) } else { Ok(a) });
        assert_eq!(res, Ok(2));
        let expect = b.jittered_delay_seconds(0, 7) + b.jittered_delay_seconds(1, 7);
        assert_eq!(stats.backoff_seconds, expect);
        // and the whole thing replays bit-identically
        let (_, again) = with_retries_seeded(5, &b, 7, |a| if a < 2 { Err(()) } else { Ok(a) });
        assert_eq!(again, stats);
    }
}
