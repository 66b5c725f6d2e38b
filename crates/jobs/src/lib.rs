//! Durable, lease-based background job queue for the mining pipeline.
//!
//! Mining a new clinical video is schedulable background work, not a
//! synchronous call: this crate turns "ingest these shots" and "re-cluster
//! the index" into **jobs** that survive crashes and resume where they
//! stopped. The design reuses the `medvid-store` WAL machinery:
//!
//! * a **checksummed append-only jobs log** — every state transition
//!   (submitted / leased / heartbeat / step checkpoint / completed /
//!   failed) is one CRC-framed [`JobLogRecord`] on the store's framed log
//!   (`medvid_store::wal`). The scanner and writer are the WAL's own, so
//!   torn tails, torn headers and foreign files are handled exactly as
//!   the store handles them; [`log`] holds only the record types;
//! * **TTL leases** ([`queue`]) — a worker claims a job for a bounded
//!   window and must heartbeat to keep it; if the worker dies the lease
//!   expires and the next claim hands the job to someone else, resuming
//!   from the last durable step checkpoint;
//! * **bounded retries with seeded-jitter backoff** ([`BackoffPolicy`]) —
//!   the same decorrelation math as `medvid_serve::RetryPolicy`, so a
//!   failed job's retry schedule is deterministic under a pinned seed;
//! * a **pipeline version** stamped on every submitted job — recovery
//!   discards step checkpoints written by an older pipeline so stale
//!   intermediate results are never resumed into new code.
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

/// Bounded-retry schedule with deterministic decorrelation jitter.
///
/// Mirrors `medvid_serve::RetryPolicy::delay_before` exactly (in
/// milliseconds rather than `Duration`): attempt `n` waits
/// `base * 2^(n-1)`, capped at `max_delay_ms`, then scaled by a seeded
/// jitter factor in `[1 - jitter, 1 + jitter]` so retrying workers do not
/// thundering-herd the same instant. A cross-crate test in `medvid-serve`
/// pins the two implementations together.
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
        if attempt == 0 || self.base_delay_ms == 0 {
            return 0;
        }
        let exp = self.base_delay_ms as f64 * 2f64.powi(attempt as i32 - 1);
        let capped = exp.min(self.max_delay_ms as f64).max(0.0);
        if self.jitter <= 0.0 {
            return capped.round() as u64;
        }
        let u = (splitmix64(self.seed ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64;
        (capped * (1.0 + self.jitter * (2.0 * u - 1.0)))
            .max(0.0)
            .round() as u64
    }
}

/// SplitMix64 — the same generator `medvid_serve::retry` uses, so both
/// crates draw identical jitter for identical `(seed, attempt)` pairs.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
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
