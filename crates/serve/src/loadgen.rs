//! Concurrent load generator for a serve instance.
//!
//! Drives N client threads against one server, each issuing a stream of
//! queries drawn round-robin from a vector pool, and reports throughput
//! plus latency quantiles from a merged [`LogHistogram`] — the same
//! histogram primitive the server's own telemetry uses, so the two sides
//! of a load test speak the same units.

use crate::client::Client;
use crate::protocol::{QueryRequest, Response, WireStrategy};
use medvid_obs::LogHistogram;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Retrieval path under test.
    pub strategy: WireStrategy,
    /// Per-query result limit.
    pub limit: usize,
    /// Query vectors, assigned round-robin across all requests. Empty runs
    /// pure semantic queries (no vector).
    pub vector_pool: Vec<Vec<f32>>,
    /// Connection/socket timeout per client.
    pub timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 4,
            requests_per_client: 50,
            strategy: WireStrategy::Hierarchical,
            limit: 10,
            vector_pool: Vec::new(),
            timeout: Duration::from_secs(10),
        }
    }
}

/// Aggregated outcome of one load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Successful result responses.
    pub ok: usize,
    /// Responses served from the result cache.
    pub cached: usize,
    /// Structured rejections (overload or deadline).
    pub rejected: usize,
    /// Transport or unexpected-response failures.
    pub errors: usize,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Per-request latency distribution.
    pub latency: LogHistogram,
}

impl LoadReport {
    /// Completed requests per second (ok + rejected both count — a
    /// structured rejection is the server working as designed).
    pub fn throughput_rps(&self) -> f64 {
        let done = (self.ok + self.rejected) as f64;
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            done / secs
        } else {
            0.0
        }
    }

    /// Latency quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.latency.quantile_nanos(q) as f64 / 1e6
    }
}

/// Runs the load: spawns the clients, waits for them, merges their stats.
///
/// # Errors
/// Fails only when a client cannot connect at all; per-request failures are
/// counted in the report instead.
pub fn run(addr: SocketAddr, config: &LoadConfig) -> io::Result<LoadReport> {
    let clients = config.clients.max(1);
    // Connect up front so a dead server fails fast instead of producing a
    // report full of transport errors.
    let connections: Vec<Client> = (0..clients)
        .map(|_| Client::connect(addr, config.timeout))
        .collect::<io::Result<_>>()?;
    let started = Instant::now();
    let threads: Vec<_> = connections
        .into_iter()
        .enumerate()
        .map(|(ci, mut client)| {
            let config = config.clone();
            std::thread::spawn(move || {
                let mut latency = LogHistogram::new();
                let (mut ok, mut cached, mut rejected, mut errors) =
                    (0usize, 0usize, 0usize, 0usize);
                for i in 0..config.requests_per_client {
                    let vector = if config.vector_pool.is_empty() {
                        None
                    } else {
                        let idx = (ci * config.requests_per_client + i) % config.vector_pool.len();
                        Some(config.vector_pool[idx].clone())
                    };
                    let request = QueryRequest {
                        vector,
                        limit: Some(config.limit),
                        strategy: Some(config.strategy),
                        ..QueryRequest::default()
                    };
                    let t0 = Instant::now();
                    match client.query(request) {
                        Ok(Response::Results {
                            cached: was_cached, ..
                        }) => {
                            latency
                                .record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                            ok += 1;
                            if was_cached {
                                cached += 1;
                            }
                        }
                        Ok(Response::Error { .. }) => rejected += 1,
                        Ok(_) => errors += 1,
                        Err(_) => errors += 1,
                    }
                }
                (latency, ok, cached, rejected, errors)
            })
        })
        .collect();
    let mut report = LoadReport {
        ok: 0,
        cached: 0,
        rejected: 0,
        errors: 0,
        elapsed: Duration::ZERO,
        latency: LogHistogram::new(),
    };
    for t in threads {
        let (latency, ok, cached, rejected, errors) =
            t.join().unwrap_or((LogHistogram::new(), 0, 0, 0, 0));
        report.latency.merge(&latency);
        report.ok += ok;
        report.cached += cached;
        report.rejected += rejected;
        report.errors += errors;
    }
    report.elapsed = started.elapsed();
    Ok(report)
}
