//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! The serving layer sheds load with typed `Overloaded` rejections and a
//! flaky network surfaces as transport errors; both are transient, and
//! the correct client reaction is the same: reconnect if needed, back
//! off, try again — a bounded number of times. [`RetryPolicy`] describes
//! the schedule, [`RetryingClient`] applies it around the plain
//! [`Client`], and [`ClientError::RetriesExhausted`] is the typed
//! terminal failure.
//!
//! Jitter is drawn from a seeded SplitMix64 stream keyed by the attempt
//! number, never from ambient entropy: the delay before attempt `k` is a
//! pure function of `(policy.seed, k)`, so tests replay schedules
//! bit-for-bit.

use crate::client::Client;
use crate::protocol::{ErrorKind, QueryRequest, Request, Response};
use medvid_jobs::backoff_delay;
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// Backoff schedule: `max_attempts` tries, exponentially growing delays
/// with deterministic multiplicative jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 0 is treated as 1.
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles each retry after that.
    pub base_delay: Duration,
    /// Ceiling on any single delay (applied before jitter).
    pub max_delay: Duration,
    /// Jitter amplitude as a fraction of the delay: the delay is scaled
    /// by a factor in `[1 - jitter, 1 + jitter]`. 0 disables jitter.
    pub jitter: f64,
    /// Seed of the jitter stream; the delay before attempt `k` depends
    /// only on `(seed, k)`.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter: 0.25,
            seed: 0x2003_1CDE,
        }
    }
}

impl RetryPolicy {
    /// A zero-delay schedule of `max_attempts` tries — for tests, where
    /// backing off only slows the suite down.
    pub fn no_delay(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// The effective attempt budget (at least 1).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// The delay before attempt `attempt` (0-based). Attempt 0 is
    /// immediate; attempt `k > 0` waits `base * 2^(k-1)`, capped at
    /// `max_delay`, scaled by the jitter factor for `k`
    /// ([`medvid_jobs::backoff_delay`] in seconds).
    pub fn delay_before(&self, attempt: u32) -> Duration {
        let (base, max) = (self.base_delay.as_secs_f64(), self.max_delay.as_secs_f64());
        Duration::from_secs_f64(backoff_delay(base, max, self.jitter, self.seed, attempt))
    }
}

/// What a retrying wrapper does after one failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryAction {
    /// Keep the connection (when the failure left one alive), back off
    /// per the policy, and try again. For transport failures the socket
    /// is suspect regardless, so `Backoff` still reconnects.
    Backoff,
    /// Tear the connection down and retry on a fresh one.
    Reconnect,
    /// Stop immediately and hand the failure to the caller: a typed
    /// `Overloaded` response is returned as-is, a connect or transport
    /// error surfaces as [`ClientError::RetriesExhausted`] carrying the
    /// attempts actually spent. The cluster coordinator uses this to
    /// fail over to a replica instead of burning its deadline retrying a
    /// dead primary.
    Fail,
}

/// Maps each failure kind a retried request can hit to a
/// [`RetryAction`]. The default reproduces the classic client
/// behaviour: overload backs off in place (the server shed load, the
/// socket is fine), connection trouble reconnects and retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryClassifier {
    /// Reaction to a typed `Overloaded` response.
    pub on_overloaded: RetryAction,
    /// Reaction to a failed `connect`.
    pub on_connect: RetryAction,
    /// Reaction to a transport error on an established connection.
    pub on_transport: RetryAction,
}

impl Default for RetryClassifier {
    fn default() -> Self {
        RetryClassifier {
            on_overloaded: RetryAction::Backoff,
            on_connect: RetryAction::Reconnect,
            on_transport: RetryAction::Reconnect,
        }
    }
}

impl RetryClassifier {
    /// Fail-over posture: connection-level trouble aborts on the first
    /// failure (the caller moves to a replica), overload still backs off
    /// in place — a loaded server is alive, its replica is no idler.
    pub fn fail_fast() -> Self {
        RetryClassifier {
            on_overloaded: RetryAction::Backoff,
            on_connect: RetryAction::Fail,
            on_transport: RetryAction::Fail,
        }
    }
}

/// Typed failure of a retried operation.
#[derive(Debug)]
pub enum ClientError {
    /// Every attempt the policy allowed failed; carries the budget that
    /// was spent and the error of the final attempt.
    RetriesExhausted {
        /// Attempts performed (== the policy's budget).
        attempts: u32,
        /// The last attempt's failure.
        last: io::Error,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::RetriesExhausted { last, .. } => Some(last),
        }
    }
}

/// Connects with the policy's schedule applied to connection failures.
///
/// # Errors
/// [`ClientError::RetriesExhausted`] when every attempt failed.
pub fn connect_with_retry(
    addr: SocketAddr,
    timeout: Duration,
    policy: &RetryPolicy,
) -> Result<Client, ClientError> {
    let mut last: Option<io::Error> = None;
    for attempt in 0..policy.attempts() {
        let delay = policy.delay_before(attempt);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        match Client::connect(addr, timeout) {
            Ok(c) => return Ok(c),
            Err(e) => last = Some(e),
        }
    }
    Err(ClientError::RetriesExhausted {
        attempts: policy.attempts(),
        last: last.unwrap_or_else(|| io::Error::other("no attempt was made")),
    })
}

/// A [`Client`] wrapper that reconnects and retries under a
/// [`RetryPolicy`], with per-failure-kind reactions decided by a
/// [`RetryClassifier`].
///
/// Under the default classifier, transport errors tear the connection
/// down and retry on a fresh one; typed `Overloaded` responses retry on
/// the same connection (the server shed load, the socket is fine). All
/// other responses — including other typed errors like `BadRequest` —
/// are returned to the caller: retrying a request the server rejected
/// as malformed cannot succeed.
///
/// Requests are retried whole, so non-idempotent requests (ingest) get
/// at-least-once semantics under this wrapper; queries are idempotent
/// and safe.
pub struct RetryingClient {
    addr: SocketAddr,
    timeout: Duration,
    policy: RetryPolicy,
    classifier: RetryClassifier,
    conn: Option<Client>,
    last_attempts: u32,
}

impl RetryingClient {
    /// A lazy client of `addr` with the default classifier: the first
    /// request connects.
    pub fn new(addr: SocketAddr, timeout: Duration, policy: RetryPolicy) -> Self {
        Self::with_classifier(addr, timeout, policy, RetryClassifier::default())
    }

    /// A lazy client whose retry reactions follow `classifier`.
    pub fn with_classifier(
        addr: SocketAddr,
        timeout: Duration,
        policy: RetryPolicy,
        classifier: RetryClassifier,
    ) -> Self {
        RetryingClient {
            addr,
            timeout,
            policy,
            classifier,
            conn: None,
            last_attempts: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The active classifier.
    pub fn classifier(&self) -> RetryClassifier {
        self.classifier
    }

    /// How many attempts the most recent [`Self::request`] spent
    /// (1 = first try succeeded).
    pub fn last_attempts(&self) -> u32 {
        self.last_attempts
    }

    /// Sends `request`, retrying per the policy with reactions decided
    /// by the classifier.
    ///
    /// # Errors
    /// [`ClientError::RetriesExhausted`] once the attempt budget is
    /// spent — or immediately, with the attempts actually spent, when
    /// the classifier says [`RetryAction::Fail`]; the final attempt's
    /// transport error (or a synthesised `Overloaded` description) is
    /// carried inside. An `Overloaded` response under
    /// `on_overloaded: Fail` is returned as `Ok` — the typed response
    /// itself is what the caller wants to inspect.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut last: Option<io::Error> = None;
        for attempt in 0..self.policy.attempts() {
            let delay = self.policy.delay_before(attempt);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            self.last_attempts = attempt + 1;
            if self.conn.is_none() {
                match Client::connect(self.addr, self.timeout) {
                    Ok(c) => self.conn = Some(c),
                    Err(e) => {
                        last = Some(e);
                        if self.classifier.on_connect == RetryAction::Fail {
                            break;
                        }
                        continue;
                    }
                }
            }
            let conn = self.conn.as_mut().expect("connection established above");
            match conn.request(request) {
                Ok(
                    resp @ Response::Error {
                        kind: ErrorKind::Overloaded,
                        ..
                    },
                ) => {
                    if self.classifier.on_overloaded == RetryAction::Fail {
                        return Ok(resp);
                    }
                    // Load shedding: the server is alive. Reconnect only
                    // if the classifier insists; the socket is fine.
                    if self.classifier.on_overloaded == RetryAction::Reconnect {
                        self.conn = None;
                    }
                    let Response::Error { message, .. } = resp else {
                        unreachable!("matched an error above")
                    };
                    last = Some(io::Error::other(format!("server overloaded: {message}")));
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    // Transport failure: this connection is suspect no
                    // matter the classifier's reaction.
                    self.conn = None;
                    last = Some(e);
                    if self.classifier.on_transport == RetryAction::Fail {
                        break;
                    }
                }
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts: self.last_attempts.max(1),
            last: last.unwrap_or_else(|| io::Error::other("no attempt was made")),
        })
    }

    /// Runs a query with retries.
    ///
    /// # Errors
    /// See [`Self::request`].
    pub fn query(&mut self, query: QueryRequest) -> Result<Response, ClientError> {
        self.request(&Request::Query(query))
    }

    /// Fetches server statistics with retries.
    ///
    /// # Errors
    /// See [`Self::request`].
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            jitter: 0.5,
            seed: 42,
        };
        for attempt in 0..6 {
            let a = policy.delay_before(attempt);
            let b = policy.delay_before(attempt);
            assert_eq!(a, b, "jitter must be a pure function of (seed, attempt)");
            let cap = policy.max_delay.as_secs_f64() * (1.0 + policy.jitter);
            assert!(a.as_secs_f64() <= cap + 1e-9, "attempt {attempt}: {a:?}");
        }
        assert_eq!(policy.delay_before(0), Duration::ZERO);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let base = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            jitter: 0.5,
            seed: 1,
        };
        let other = RetryPolicy {
            seed: 2,
            ..base.clone()
        };
        let differs = (1..4).any(|k| base.delay_before(k) != other.delay_before(k));
        assert!(differs, "jitter seed must matter");
    }

    #[test]
    fn no_delay_policy_never_sleeps() {
        let policy = RetryPolicy::no_delay(5);
        for attempt in 0..5 {
            assert_eq!(policy.delay_before(attempt), Duration::ZERO);
        }
        assert_eq!(policy.attempts(), 5);
    }

    #[test]
    fn exhausted_connect_is_typed() {
        // A port nothing listens on: loopback with an ephemeral port we
        // bind and immediately drop.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = connect_with_retry(addr, Duration::from_millis(200), &RetryPolicy::no_delay(3))
            .expect_err("nothing is listening");
        let ClientError::RetriesExhausted { attempts, .. } = err;
        assert_eq!(attempts, 3);
    }

    #[test]
    fn zero_attempt_policy_still_tries_once() {
        assert_eq!(RetryPolicy::no_delay(0).attempts(), 1);
    }

    /// A loopback address with nothing listening on it.
    fn dead_addr() -> SocketAddr {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }

    #[test]
    fn default_classifier_spends_the_whole_budget_on_connect_errors() {
        let mut client =
            RetryingClient::new(dead_addr(), Duration::from_millis(200), RetryPolicy::no_delay(3));
        let ClientError::RetriesExhausted { attempts, .. } =
            client.stats().expect_err("nothing is listening");
        assert_eq!(attempts, 3, "default posture retries to exhaustion");
    }

    #[test]
    fn fail_fast_classifier_aborts_on_the_first_connect_error() {
        let mut client = RetryingClient::with_classifier(
            dead_addr(),
            Duration::from_millis(200),
            RetryPolicy::no_delay(3),
            RetryClassifier::fail_fast(),
        );
        let ClientError::RetriesExhausted { attempts, .. } =
            client.stats().expect_err("nothing is listening");
        assert_eq!(
            attempts, 1,
            "fail-fast must not burn the budget on a dead primary"
        );
        assert_eq!(client.last_attempts(), 1);
    }

    /// Offline builds may link a type-check-only serde_json stub whose
    /// runtime errors on every call; wire tests need the real one.
    fn serde_runtime_available() -> bool {
        serde_json::to_vec(&0u8).is_ok()
    }

    #[test]
    fn overloaded_fail_returns_the_typed_response_untouched() {
        if !serde_runtime_available() {
            return;
        }
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _req: Request = crate::protocol::recv_message(&mut s).unwrap();
            let resp = Response::error(ErrorKind::Overloaded, "queue full");
            crate::protocol::send_message(&mut s, &resp).unwrap();
        });
        let mut client = RetryingClient::with_classifier(
            addr,
            Duration::from_secs(2),
            RetryPolicy::no_delay(4),
            RetryClassifier {
                on_overloaded: RetryAction::Fail,
                ..RetryClassifier::default()
            },
        );
        let resp = client.stats().expect("the typed response is the answer");
        assert!(
            matches!(
                resp,
                Response::Error {
                    kind: ErrorKind::Overloaded,
                    ..
                }
            ),
            "got {resp:?}"
        );
        assert_eq!(client.last_attempts(), 1, "no retry under Fail");
        server.join().unwrap();
    }
}
