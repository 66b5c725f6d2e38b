//! Durable, lease-based background job queue for the serving index.
//!
//! Re-clustering a drifted index is background work, not a synchronous
//! call: this crate turns "re-cluster the index" into a **job** that
//! survives crashes and is handed to another worker when its holder dies.
//! Shots themselves are indexed by the durable, fenced ingest path of
//! `medvid-serve`, not through this queue. The design reuses the
//! `medvid-store` WAL machinery:
//!
//! * a **checksummed append-only jobs log** — every state transition
//!   (submitted / leased / heartbeat / completed / failed) is one
//!   CRC-framed [`JobLogRecord`] on the store's framed log
//!   (`medvid_store::wal`). The scanner and writer are the WAL's own, so
//!   torn tails, torn headers and foreign files are handled exactly as
//!   the store handles them; [`log`] holds only the record types;
//! * **TTL leases** ([`queue`]) — a worker claims a job for a bounded
//!   window and must heartbeat to keep it; if the worker dies the lease
//!   expires and the next claim hands the job to someone else, who runs
//!   it again from the start;
//! * **bounded retries with seeded-jitter backoff** ([`BackoffPolicy`]) —
//!   [`backoff_delay`] is the one formula, shared with
//!   `medvid_serve::RetryPolicy`, so a failed job's retry schedule is
//!   deterministic under a pinned seed.
//!
//! Everything is std-only and single-threaded at this layer: the queue
//! takes the caller's clock (`now_ms`) on every call, which makes TTL
//! expiry, backoff schedules and chaos tests fully deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod queue;

pub use log::{JobKind, JobLogRecord, JobOp, JOB_LOG_FILE, JOB_MAGIC};
pub use queue::{
    JobError, JobId, JobPhase, JobQueue, JobRecovery, JobStatusView, LeasedJob, QueueConfig,
    QueueStats,
};

/// Bounded-retry schedule with deterministic decorrelation jitter: the
/// [`backoff_delay`] formula in milliseconds, so retrying workers do not
/// thundering-herd the same instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Total attempts before the job is failed terminally (first try
    /// included).
    pub max_attempts: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on the exponential delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Jitter amplitude as a fraction of the capped delay (0 disables).
    pub jitter: f64,
    /// Seed for the jitter stream; fixed by default so tests reproduce.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_attempts: 4,
            base_delay_ms: 50,
            max_delay_ms: 2_000,
            jitter: 0.25,
            seed: 0x2003_1CDE,
        }
    }
}

impl BackoffPolicy {
    /// Delay in milliseconds before retry attempt `attempt` (1-based; the
    /// failed attempt count). Attempt 0 and a zero base both mean "no
    /// wait".
    #[must_use]
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let (base, max) = (self.base_delay_ms as f64, self.max_delay_ms as f64);
        backoff_delay(base, max, self.jitter, self.seed, attempt).round() as u64
    }
}

/// Capped exponential backoff with seeded jitter, in the unit of `base`
/// and `max`: attempt `n > 0` waits `base * 2^(n-1)`, capped at `max`,
/// then scaled by a factor in `[1 - jitter, 1 + jitter]` drawn from
/// `(seed, n)` alone. Attempt 0, a zero base and a negative result all
/// give 0; `jitter <= 0` disables the scaling.
#[must_use]
pub fn backoff_delay(base: f64, max: f64, jitter: f64, seed: u64, attempt: u32) -> f64 {
    if attempt == 0 || base == 0.0 {
        return 0.0;
    }
    let capped = (base * 2f64.powi(attempt as i32 - 1)).min(max).max(0.0);
    if jitter <= 0.0 {
        return capped;
    }
    // Uniform in [0, 1) from the top 53 bits of one SplitMix64 output.
    let u = (splitmix64(seed ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64;
    (capped * (1.0 + jitter * (2.0 * u - 1.0))).max(0.0)
}

/// One SplitMix64 output for `state`.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_zero_and_zero_base_wait_nothing() {
        let p = BackoffPolicy::default();
        assert_eq!(p.delay_ms(0), 0);
        let zero = BackoffPolicy {
            base_delay_ms: 0,
            ..p
        };
        assert_eq!(zero.delay_ms(3), 0);
    }

    #[test]
    fn delays_grow_exponentially_within_jitter_band() {
        let p = BackoffPolicy::default();
        for attempt in 1..=6u32 {
            let nominal = (p.base_delay_ms as f64 * 2f64.powi(attempt as i32 - 1))
                .min(p.max_delay_ms as f64);
            let lo = nominal * (1.0 - p.jitter) - 1.0;
            let hi = nominal * (1.0 + p.jitter) + 1.0;
            let d = p.delay_ms(attempt) as f64;
            assert!(d >= lo && d <= hi, "attempt {attempt}: {d} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn jitterless_schedule_is_the_exact_exponential() {
        let p = BackoffPolicy {
            jitter: 0.0,
            ..BackoffPolicy::default()
        };
        assert_eq!(p.delay_ms(1), 50);
        assert_eq!(p.delay_ms(2), 100);
        assert_eq!(p.delay_ms(3), 200);
        assert_eq!(p.delay_ms(7), 2_000); // capped
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let p = BackoffPolicy::default();
        let a: Vec<u64> = (1..6).map(|n| p.delay_ms(n)).collect();
        let b: Vec<u64> = (1..6).map(|n| p.delay_ms(n)).collect();
        assert_eq!(a, b);
        let other = BackoffPolicy {
            seed: 0xDEAD_BEEF,
            ..p
        };
        let c: Vec<u64> = (1..6).map(|n| other.delay_ms(n)).collect();
        assert_ne!(a, c, "different seeds should draw different jitter");
    }
}
