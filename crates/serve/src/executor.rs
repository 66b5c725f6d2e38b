//! Admission-controlled worker pool.
//!
//! Requests enter a bounded queue; a full queue rejects immediately
//! (load shedding) instead of letting latency grow without bound. Each job
//! carries an optional deadline checked when a worker dequeues it — work
//! that already missed its deadline is abandoned via its `expired` callback
//! rather than executed for a client that has stopped waiting.

use medvid_obs::{counters, values, Recorder};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::time::Instant;

struct Job {
    deadline: Option<Instant>,
    work: Box<dyn FnOnce() + Send>,
    expired: Box<dyn FnOnce() + Send>,
}

#[derive(Default)]
struct Counters {
    /// Admitted jobs no worker has dequeued yet.
    queued: AtomicUsize,
    executed: AtomicU64,
    rejected: AtomicU64,
    deadline_misses: AtomicU64,
}

/// Fixed worker pool over a bounded admission queue.
pub struct Executor {
    tx: Option<SyncSender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    queue_capacity: usize,
    counters: Arc<Counters>,
    recorder: Recorder,
}

/// The queue was full; the job was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected;

impl Executor {
    /// Spawns `workers` threads servicing a queue of `queue_capacity`
    /// pending jobs (both forced to at least 1).
    pub fn new(workers: usize, queue_capacity: usize, recorder: Recorder) -> Self {
        let workers = workers.max(1);
        let queue_capacity = queue_capacity.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        let counters = Arc::new(Counters::default());
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let counters = Arc::clone(&counters);
                let recorder = recorder.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || loop {
                        // The guard lives only for `recv`, so the next
                        // worker can wait while this one runs the job.
                        let Ok(job) = rx.lock().recv() else { break };
                        counters.queued.fetch_sub(1, Ordering::Relaxed);
                        let overdue = job.deadline.is_some_and(|d| Instant::now() > d);
                        if overdue {
                            counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
                            recorder.incr(counters::SERVE_DEADLINE_MISSES, 1);
                            (job.expired)();
                        } else {
                            (job.work)();
                            counters.executed.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        Executor {
            tx: Some(tx),
            workers: handles,
            queue_capacity,
            counters,
            recorder,
        }
    }

    /// Admits a job, or sheds it if the queue is full. `expired` runs (on a
    /// worker) instead of `work` when the deadline passes while queued.
    ///
    /// # Errors
    /// [`Rejected`] when the queue is at capacity.
    pub fn submit(
        &self,
        deadline: Option<Instant>,
        work: Box<dyn FnOnce() + Send>,
        expired: Box<dyn FnOnce() + Send>,
    ) -> Result<(), Rejected> {
        let tx = self.tx.as_ref().expect("executor not shut down");
        let depth = self.counters.queued.fetch_add(1, Ordering::Relaxed);
        self.recorder
            .record_value(values::SERVE_QUEUE_DEPTH, depth as u64);
        match tx.try_send(Job {
            deadline,
            work,
            expired,
        }) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.counters.queued.fetch_sub(1, Ordering::Relaxed);
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                self.recorder.incr(counters::SERVE_REJECTED, 1);
                Err(Rejected)
            }
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> crate::protocol::ExecutorStats {
        crate::protocol::ExecutorStats {
            workers: self.workers.len(),
            queue_capacity: self.queue_capacity,
            queue_depth: self.counters.queued.load(Ordering::Relaxed),
            executed: self.counters.executed.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            deadline_misses: self.counters.deadline_misses.load(Ordering::Relaxed),
        }
    }

    /// Drains the queue: already-admitted jobs run to completion, then the
    /// workers exit and are joined.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        drop(self.tx.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let ex = Executor::new(2, 8, Recorder::disabled());
        let (tx, rx) = mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            ex.submit(
                None,
                Box::new(move || tx.send(i).unwrap()),
                Box::new(|| panic!("no deadline set")),
            )
            .unwrap();
        }
        let mut got: Vec<i32> = (0..8).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        ex.shutdown();
    }

    #[test]
    fn full_queue_sheds_load() {
        // One worker blocked on a gate, queue of one: the third submit must
        // be rejected deterministically.
        let ex = Executor::new(1, 1, Recorder::disabled());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        ex.submit(
            None,
            Box::new(move || {
                let _ = gate_rx.recv_timeout(Duration::from_secs(10));
            }),
            Box::new(|| {}),
        )
        .unwrap();
        // Give the worker a moment to pick up the gated job, so the queue
        // slot is free for exactly one more.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if ex.submit(None, Box::new(|| {}), Box::new(|| {})).is_ok() {
                break;
            }
            assert!(Instant::now() < deadline, "worker never dequeued");
            std::thread::yield_now();
        }
        assert_eq!(
            ex.submit(None, Box::new(|| {}), Box::new(|| {})),
            Err(Rejected),
            "queue of one with a busy worker must shed the next job"
        );
        assert!(ex.stats().rejected >= 1);
        gate_tx.send(()).unwrap();
        ex.shutdown();
    }

    #[test]
    fn queue_depth_counts_waiting_jobs_and_shutdown_drains_them() {
        // One worker held on a gate, capacity 4: four jobs queue behind the
        // gated one and the fifth is shed.
        let ex = Executor::new(1, 4, Recorder::disabled());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let ran = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&ran);
        ex.submit(
            None,
            Box::new(move || {
                started_tx.send(()).unwrap();
                let _ = gate_rx.recv_timeout(Duration::from_secs(10));
                counted.fetch_add(1, Ordering::Relaxed);
            }),
            Box::new(|| {}),
        )
        .unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker never dequeued the gated job");
        for _ in 0..4 {
            let counted = Arc::clone(&ran);
            let work = move || {
                counted.fetch_add(1, Ordering::Relaxed);
            };
            ex.submit(None, Box::new(work), Box::new(|| {})).unwrap();
        }
        assert_eq!(
            ex.submit(None, Box::new(|| {}), Box::new(|| {})),
            Err(Rejected)
        );
        let stats = ex.stats();
        assert_eq!((stats.queue_depth, stats.rejected), (4, 1));
        gate_tx.send(()).unwrap();
        ex.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 5, "shutdown drains the queue");
    }

    #[test]
    fn overdue_jobs_are_abandoned() {
        let ex = Executor::new(1, 4, Recorder::disabled());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (out_tx, out_rx) = mpsc::channel::<&'static str>();
        ex.submit(
            None,
            Box::new(move || {
                let _ = gate_rx.recv_timeout(Duration::from_secs(10));
            }),
            Box::new(|| {}),
        )
        .unwrap();
        let out = out_tx.clone();
        ex.submit(
            Some(Instant::now() - Duration::from_millis(1)),
            Box::new(move || out.send("ran").unwrap()),
            Box::new(move || out_tx.send("expired").unwrap()),
        )
        .unwrap();
        gate_tx.send(()).unwrap();
        assert_eq!(
            out_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "expired"
        );
        assert_eq!(ex.stats().deadline_misses, 1);
        ex.shutdown();
    }
}
