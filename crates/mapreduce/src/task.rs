//! Task attempt bookkeeping and deterministic failure injection.
//!
//! Hadoop tolerates task failures by re-running attempts on other nodes.
//! This runtime models the same behaviour *deterministically*: whether
//! attempt `a` of task `t` in phase `p` of job `j` fails is a pure function
//! of `(j, p, t, a)` and the configured failure rate, so tests can assert
//! both that failures occurred and that the job output is unchanged.

/// Phase discriminator used in the failure hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Map tasks.
    Map,
    /// Reduce tasks.
    Reduce,
}

/// Failure-injection configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureConfig {
    /// Probability (in permille, 0–1000) that any given task attempt fails.
    pub fail_permille: u32,
    /// Maximum attempts per task before the job aborts (Hadoop default: 4).
    pub max_attempts: u32,
    /// Probability (in permille) that a task is a *straggler* — it runs but
    /// `straggler_factor`× slower (degraded disk, swapping JVM, noisy
    /// neighbour). Stragglers are what speculative execution exists for.
    pub straggler_permille: u32,
    /// Slow-down multiplier applied to straggler tasks (≥ 1).
    pub straggler_factor: f64,
    /// Seed folded into the failure hash so different tests can draw
    /// different failure patterns.
    pub seed: u64,
}

impl Default for FailureConfig {
    fn default() -> Self {
        Self::none()
    }
}

impl FailureConfig {
    /// No injected failures.
    pub fn none() -> Self {
        Self {
            fail_permille: 0,
            max_attempts: 4,
            straggler_permille: 0,
            straggler_factor: 1.0,
            seed: 0,
        }
    }

    /// Fails roughly `permille`/1000 of attempts, with up to 4 attempts.
    pub fn with_rate(permille: u32, seed: u64) -> Self {
        assert!(permille < 1000, "a rate of 1000 permille can never succeed");
        Self {
            fail_permille: permille,
            ..Self::none()
        }
        .seeded(seed)
    }

    /// Makes roughly `permille`/1000 of tasks run `factor`× slower.
    pub fn with_stragglers(permille: u32, factor: f64, seed: u64) -> Self {
        assert!(permille <= 1000, "permille is at most 1000");
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "stragglers are slower, not faster"
        );
        Self {
            straggler_permille: permille,
            straggler_factor: factor,
            ..Self::none()
        }
        .seeded(seed)
    }

    fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The slow-down multiplier of task `task` (1.0 for healthy tasks).
    pub fn straggler_multiplier(&self, job: &str, phase: Phase, task: usize) -> f64 {
        if self.straggler_permille == 0 {
            return 1.0;
        }
        let mut h = self.seed ^ 0x51AC_C01D_F00D_BEEF;
        for b in job.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        let tag = match phase {
            Phase::Map => 0x6d61_7001u64,
            Phase::Reduce => 0x7265_6401u64,
        };
        for x in [tag, task as u64] {
            h = (h ^ x).wrapping_mul(0x1000_0000_01b3);
            h ^= h >> 29;
        }
        if (h % 1000) < u64::from(self.straggler_permille) {
            self.straggler_factor
        } else {
            1.0
        }
    }

    /// Deterministically decides whether this attempt fails.
    pub fn attempt_fails(&self, job: &str, phase: Phase, task: usize, attempt: u32) -> bool {
        if self.fail_permille == 0 {
            return false;
        }
        // Final attempts are allowed to succeed unconditionally so a finite
        // retry budget always converges; real Hadoop kills the job instead,
        // which would make every failure-injection test flaky by design.
        if attempt + 1 >= self.max_attempts {
            return false;
        }
        let mut h = self.seed ^ 0xcbf2_9ce4_8422_2325;
        for b in job.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        let tag = match phase {
            Phase::Map => 0x6d61_7000u64,
            Phase::Reduce => 0x7265_6400u64,
        };
        for x in [tag, task as u64, u64::from(attempt)] {
            h = (h ^ x).wrapping_mul(0x1000_0000_01b3);
            h ^= h >> 29;
        }
        (h % 1000) < u64::from(self.fail_permille)
    }

    /// Number of attempts task `task` will use under this configuration
    /// (at least 1, at most `max_attempts`).
    pub fn attempts_used(&self, job: &str, phase: Phase, task: usize) -> u32 {
        let mut attempt = 0;
        while self.attempt_fails(job, phase, task, attempt) {
            attempt += 1;
        }
        attempt + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fails() {
        let f = FailureConfig::none();
        for t in 0..100 {
            assert!(!f.attempt_fails("job", Phase::Map, t, 0));
            assert_eq!(f.attempts_used("job", Phase::Map, t), 1);
        }
    }

    #[test]
    fn decision_is_deterministic() {
        let f = FailureConfig::with_rate(300, 42);
        for t in 0..50 {
            for a in 0..4 {
                assert_eq!(
                    f.attempt_fails("j", Phase::Reduce, t, a),
                    f.attempt_fails("j", Phase::Reduce, t, a)
                );
            }
        }
    }

    #[test]
    fn rate_is_roughly_respected() {
        let f = FailureConfig::with_rate(300, 7);
        let failures = (0..10_000)
            .filter(|&t| f.attempt_fails("j", Phase::Map, t, 0))
            .count();
        assert!(
            (2400..3600).contains(&failures),
            "expected ~3000 failures, got {failures}"
        );
    }

    #[test]
    fn attempts_bounded_by_budget() {
        let f = FailureConfig {
            fail_permille: 900,
            max_attempts: 4,
            seed: 1,
            ..FailureConfig::none()
        };
        for t in 0..1000 {
            let used = f.attempts_used("j", Phase::Map, t);
            assert!((1..=4).contains(&used), "task {t} used {used}");
        }
    }

    #[test]
    fn final_attempt_always_succeeds() {
        let f = FailureConfig {
            fail_permille: 999,
            max_attempts: 2,
            seed: 3,
            ..FailureConfig::none()
        };
        for t in 0..100 {
            assert!(!f.attempt_fails("j", Phase::Map, t, 1));
        }
    }

    #[test]
    fn phases_and_jobs_draw_independently() {
        let f = FailureConfig::with_rate(500, 9);
        let map_pattern: Vec<bool> = (0..200)
            .map(|t| f.attempt_fails("a", Phase::Map, t, 0))
            .collect();
        let red_pattern: Vec<bool> = (0..200)
            .map(|t| f.attempt_fails("a", Phase::Reduce, t, 0))
            .collect();
        let other_job: Vec<bool> = (0..200)
            .map(|t| f.attempt_fails("b", Phase::Map, t, 0))
            .collect();
        assert_ne!(map_pattern, red_pattern);
        assert_ne!(map_pattern, other_job);
    }

    #[test]
    #[should_panic(expected = "never succeed")]
    fn full_rate_rejected() {
        let _ = FailureConfig::with_rate(1000, 0);
    }

    #[test]
    fn straggler_multiplier_is_deterministic_and_rate_bound() {
        let f = FailureConfig::with_stragglers(250, 8.0, 13);
        let slowed = (0..10_000)
            .filter(|&t| f.straggler_multiplier("j", Phase::Map, t) > 1.0)
            .count();
        assert!((2000..3100).contains(&slowed), "got {slowed}");
        for t in 0..100 {
            assert_eq!(
                f.straggler_multiplier("j", Phase::Map, t),
                f.straggler_multiplier("j", Phase::Map, t)
            );
        }
        // healthy config never slows
        let none = FailureConfig::none();
        assert_eq!(none.straggler_multiplier("j", Phase::Reduce, 5), 1.0);
    }

    #[test]
    #[should_panic(expected = "slower, not faster")]
    fn straggler_factor_below_one_rejected() {
        let _ = FailureConfig::with_stragglers(100, 0.5, 0);
    }
}
