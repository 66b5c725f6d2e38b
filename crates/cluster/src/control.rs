//! The cluster control plane: health-checked auto-failover, replica
//! promotion, fencing of deposed primaries, and hash-range resharding.
//!
//! A [`ControlPlane`] owns a clone of the coordinator's
//! [`SharedTopology`] and drives it through epoch-numbered successors.
//! Each [`ControlPlane::tick`] is deterministic given the cluster's
//! state — probe every node, score strikes, promote where a primary is
//! down, deliver outstanding fences, and flag outgrown shards — which is
//! what lets the chaos suite single-step the control loop under a seeded
//! fault schedule instead of racing a wall-clock thread. Production use
//! wraps the same `tick` in [`ControlPlane::spawn`].
//!
//! The three state transitions, and their safety arguments:
//!
//! * **Promotion.** A primary with [`ControlPlaneConfig::down_after`]
//!   consecutive failed probes (connection refusals, transport timeouts,
//!   *and* typed `DeadlineExceeded` answers — a hung node is evidence,
//!   not an answer) is declared down. The most-caught-up registered
//!   replica (highest `applied_seq`) is promoted: its tailer stops, its
//!   mirrored WAL is reopened through the ordinary crash-recovery path,
//!   and the topology epoch bumps. Because leaders only acknowledge
//!   durable appends and followers apply a prefix of that durable
//!   history, the promoted leader holds every write the old primary both
//!   acked *and shipped*; the replicated-ack coordinator mode closes the
//!   remaining window by only acking clients once a follower confirms.
//! * **Fencing.** The bumped epoch is pushed to the deposed primary as a
//!   [`Request::Fence`] — retried every tick until the node (possibly
//!   resurrected much later) acknowledges. Ingest batches stamp their
//!   routing epoch, so even before the explicit fence arrives, a write
//!   routed under the *new* topology to the old primary would raise its
//!   fence in passing; and once fenced, old-epoch acks are refused with
//!   [`ErrorKind::Fenced`] rather than silently accepted into a log
//!   nobody reads.
//! * **Splitting.** [`ControlPlane::split_shard`] halves an outgrown
//!   shard's hash range: a new node clones the donor through the same
//!   checkpoint + `FetchLog` suffix shipping replication uses, is
//!   promoted over its mirror, the donor is fenced at the new epoch
//!   (cutting off old-epoch stragglers), the donor's final suffix is
//!   drained — records now owned by the new range are forwarded — and
//!   only then does the split topology publish. The donor keeps its
//!   (now out-of-range) records; the coordinator's merge collapses
//!   identical `(video, shot)` entries, so nothing is lost and nothing
//!   is double-counted.

use crate::replica::{PromotedNode, Replica, ReplicaConfig};
use crate::topology::{ClusterTopology, SharedTopology};
use medvid_obs::{counters, Recorder};
use medvid_serve::protocol::{ErrorKind, IngestShot, MetricsSnapshot, Request, Response};
use medvid_serve::Client;
use medvid_store::{WalOp, WalRecord};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Control-plane tuning knobs.
#[derive(Debug, Clone)]
pub struct ControlPlaneConfig {
    /// Socket timeout for each health probe and fence delivery.
    pub probe_timeout: Duration,
    /// Consecutive failed probes before a node is declared down (and, for
    /// a primary, failover begins).
    pub down_after: u32,
    /// Cadence of the background loop in [`ControlPlane::spawn`] mode.
    pub tick_interval: Duration,
    /// Flag a shard as a split candidate when its record count exceeds
    /// this floor *and* [`Self::split_imbalance`] times the mean of its
    /// peers. `None` disables split detection.
    pub split_records_threshold: Option<usize>,
    /// How far above the per-shard mean a shard's record count or
    /// windowed QPS must be before it counts as outgrowing its peers.
    pub split_imbalance: f64,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            probe_timeout: Duration::from_millis(250),
            down_after: 3,
            tick_interval: Duration::from_millis(100),
            split_records_threshold: None,
            split_imbalance: 2.0,
        }
    }
}

/// Health verdict for one node, derived from consecutive probe strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Last probe answered.
    Healthy,
    /// Missed at least one probe, fewer than `down_after`.
    Suspect,
    /// Missed `down_after` or more consecutive probes.
    Down,
}

/// One row of the control plane's health board.
#[derive(Debug, Clone)]
pub struct NodeHealth {
    /// The probed node.
    pub addr: SocketAddr,
    /// The shard it belongs to.
    pub shard: u32,
    /// `"primary"` or `"replica"` under the current topology.
    pub role: &'static str,
    /// Consecutive failed probes (0 = answering).
    pub strikes: u32,
    /// Derived verdict.
    pub state: NodeState,
}

/// What one [`ControlPlane::tick`] did.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Topology epoch after the tick.
    pub epoch: u64,
    /// Probes sent.
    pub probes: usize,
    /// Probes that failed (connection, transport, or deadline).
    pub strikes: usize,
    /// `(shard, new primary)` promotions performed this tick.
    pub promoted: Vec<(u32, SocketAddr)>,
    /// Outstanding fences acknowledged this tick.
    pub fences_delivered: usize,
    /// Fences still owed to unreachable deposed primaries.
    pub fences_pending: usize,
    /// Shards whose record count or windowed QPS outgrows their peers
    /// (per [`ControlPlaneConfig::split_records_threshold`]).
    pub split_candidates: Vec<u32>,
}

/// Byte/record accounting for one completed [`ControlPlane::split_shard`].
#[derive(Debug, Clone)]
pub struct SplitReport {
    /// The donor shard (keeps the lower half of its range).
    pub shard: u32,
    /// The new shard's id (owns the upper half).
    pub new_shard: u32,
    /// The new shard's primary address.
    pub new_primary: SocketAddr,
    /// Topology epoch after the split.
    pub epoch: u64,
    /// Donor's durable watermark when shipping began.
    pub donor_seq: u64,
    /// Sequence the clone had applied when it was promoted.
    pub shipped_seq: u64,
    /// Donor-WAL records drained after the fence and re-ingested on the
    /// new shard because the new range owns them.
    pub stragglers_forwarded: usize,
    /// Records the new shard's index holds after the cutover.
    pub new_node_records: usize,
}

/// Health-checking, promoting, fencing, splitting control loop.
pub struct ControlPlane {
    shared: SharedTopology,
    config: ControlPlaneConfig,
    recorder: Recorder,
    /// Promotable replica pool, by serving address. The control plane
    /// owns these nodes' lifecycles; promotion moves one to `promoted`.
    replicas: HashMap<SocketAddr, Replica>,
    /// Promoted leaders kept alive for the cluster's lifetime.
    promoted: Vec<PromotedNode>,
    strikes: HashMap<SocketAddr, u32>,
    pending_fences: Vec<(SocketAddr, u64)>,
    events: Vec<String>,
}

impl ControlPlane {
    /// A control plane over the same shared topology the coordinator
    /// routes with.
    pub fn new(shared: SharedTopology, config: ControlPlaneConfig, recorder: Recorder) -> Self {
        ControlPlane {
            shared,
            config,
            recorder,
            replicas: HashMap::new(),
            promoted: Vec::new(),
            strikes: HashMap::new(),
            pending_fences: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Hands a running replica to the control plane's promotable pool.
    /// Its address must already be registered as a topology replica of
    /// its shard (via [`ClusterTopology::add_replica`]).
    pub fn register_replica(&mut self, replica: Replica) {
        self.replicas.insert(replica.addr(), replica);
    }

    /// The topology currently in force.
    pub fn topology(&self) -> Arc<ClusterTopology> {
        self.shared.load()
    }

    /// Everything the control plane has done, oldest first.
    pub fn events(&self) -> &[String] {
        &self.events
    }

    /// The health board: every node of every shard with its strike count
    /// and verdict, in shard order (primary first).
    pub fn health(&self) -> Vec<NodeHealth> {
        let topo = self.shared.load();
        let mut board = Vec::new();
        for spec in topo.shards() {
            for (addr, role) in std::iter::once((spec.primary, "primary"))
                .chain(spec.replicas.iter().map(|&a| (a, "replica")))
            {
                let strikes = self.strikes.get(&addr).copied().unwrap_or(0);
                board.push(NodeHealth {
                    addr,
                    shard: spec.id,
                    role,
                    strikes,
                    state: self.verdict(strikes),
                });
            }
        }
        board
    }

    fn verdict(&self, strikes: u32) -> NodeState {
        if strikes == 0 {
            NodeState::Healthy
        } else if strikes < self.config.down_after {
            NodeState::Suspect
        } else {
            NodeState::Down
        }
    }

    /// One deterministic control-loop step: probe every node, promote
    /// where a primary is down and a replica is promotable, deliver owed
    /// fences, and detect outgrown shards.
    pub fn tick(&mut self) -> TickReport {
        let topo = self.shared.load();
        let mut report = TickReport::default();
        let mut snapshots: HashMap<SocketAddr, MetricsSnapshot> = HashMap::new();

        for spec in topo.shards() {
            for addr in std::iter::once(spec.primary).chain(spec.replicas.iter().copied()) {
                report.probes += 1;
                self.recorder.incr(counters::CLUSTER_PROBES, 1);
                match probe(addr, self.config.probe_timeout) {
                    Ok(snap) => {
                        self.strikes.insert(addr, 0);
                        snapshots.insert(addr, snap);
                    }
                    Err(_) => {
                        *self.strikes.entry(addr).or_insert(0) += 1;
                        report.strikes += 1;
                        self.recorder.incr(counters::CLUSTER_PROBE_STRIKES, 1);
                    }
                }
            }
        }

        for spec in topo.shards() {
            let strikes = self.strikes.get(&spec.primary).copied().unwrap_or(0);
            if strikes >= self.config.down_after && !spec.replicas.is_empty() {
                match self.promote_shard(spec.id) {
                    Ok((new_primary, _epoch)) => report.promoted.push((spec.id, new_primary)),
                    Err(e) => self
                        .events
                        .push(format!("shard {} failover blocked: {e}", spec.id)),
                }
            }
        }

        let timeout = self.config.probe_timeout;
        let mut delivered = 0usize;
        self.pending_fences.retain(|&(addr, epoch)| {
            if deliver_fence(addr, epoch, timeout) {
                delivered += 1;
                false
            } else {
                true
            }
        });
        report.fences_delivered = delivered;
        if delivered > 0 {
            self.events
                .push(format!("delivered {delivered} outstanding fence(s)"));
        }
        report.fences_pending = self.pending_fences.len();

        report.split_candidates = self.split_candidates(&topo, &snapshots);
        report.epoch = self.shared.load().epoch();
        report
    }

    /// Shards whose primary's record count (or windowed QPS) exceeds both
    /// the configured floor and `split_imbalance` × the mean of all
    /// shards that answered this tick.
    fn split_candidates(
        &self,
        topo: &ClusterTopology,
        snapshots: &HashMap<SocketAddr, MetricsSnapshot>,
    ) -> Vec<u32> {
        let Some(floor) = self.config.split_records_threshold else {
            return Vec::new();
        };
        let loads: Vec<(u32, usize, f64)> = topo
            .shards()
            .iter()
            .filter_map(|s| {
                snapshots
                    .get(&s.primary)
                    .map(|m| (s.id, m.records, m.window.qps))
            })
            .collect();
        if loads.len() < 2 {
            return Vec::new();
        }
        let mean_records = loads.iter().map(|&(_, r, _)| r).sum::<usize>() as f64
            / loads.len() as f64;
        let mean_qps = loads.iter().map(|&(_, _, q)| q).sum::<f64>() / loads.len() as f64;
        loads
            .iter()
            .filter(|&&(_, records, qps)| {
                records >= floor
                    && (records as f64 > self.config.split_imbalance * mean_records
                        || (mean_qps > 0.0 && qps > self.config.split_imbalance * mean_qps))
            })
            .map(|&(id, _, _)| id)
            .collect()
    }

    /// Promotes the most-caught-up promotable replica of `shard` to its
    /// primary, publishes the bumped topology, and queues a fence for the
    /// deposed primary. Usually driven by [`Self::tick`]; callable
    /// directly for planned maintenance failover.
    ///
    /// # Errors
    /// When the shard is unknown, has no promotable registered replica,
    /// or the chosen replica's mirror does not recover (the replica is
    /// consumed — it no longer tails a leader the topology may be about
    /// to depose).
    pub fn promote_shard(&mut self, shard: u32) -> Result<(SocketAddr, u64), String> {
        let topo = self.shared.load();
        let spec = topo
            .spec(shard)
            .ok_or_else(|| format!("unknown shard {shard}"))?;
        let old_primary = spec.primary;
        let mut best: Option<(SocketAddr, u64)> = None;
        for &addr in &spec.replicas {
            if let Some(r) = self.replicas.get(&addr) {
                if !r.is_promotable() {
                    continue;
                }
                let applied = r.status().applied_seq;
                if best.is_none_or(|(_, b)| applied > b) {
                    best = Some((addr, applied));
                }
            }
        }
        let (addr, applied) =
            best.ok_or_else(|| format!("shard {shard} has no promotable replica"))?;
        let next = topo.promoted(shard, addr)?;
        let epoch = next.epoch();
        let replica = self.replicas.remove(&addr).expect("chosen from the pool");
        let node = replica.promote(epoch)?;
        let recovered = node.last_seq;
        self.promoted.push(node);
        self.shared.publish(next);
        self.pending_fences.push((old_primary, epoch));
        self.strikes.remove(&old_primary);
        self.events.push(format!(
            "epoch {epoch}: promoted {addr} to primary of shard {shard} \
             (applied through seq {applied}, recovered to seq {recovered}); \
             fencing deposed primary {old_primary}"
        ));
        Ok((addr, epoch))
    }

    /// Splits `shard`'s hash range in half onto a new node: clone the
    /// donor through checkpoint + `FetchLog` suffix shipping into
    /// `replica_config.store_dir` (required), promote the clone over its
    /// mirror, **fence the donor first**, drain the donor's post-fence
    /// suffix — forwarding records the new range owns — and only then
    /// publish the split topology. `catchup` bounds the whole handoff.
    ///
    /// The donor keeps serving the lower half at the new epoch (its fence
    /// refuses only *older* epochs); its physical copies of moved records
    /// collapse against the new shard's in the coordinator's merge.
    ///
    /// # Errors
    /// When the shard is unknown or unsplittable, no `store_dir` was
    /// provided, catch-up does not reach the donor's watermark within
    /// `catchup`, or the donor cannot be fenced (without the fence, a
    /// straggler write could land after the final drain and be owned by
    /// a shard that never saw it). Nothing is published on error — the
    /// topology in force is unchanged.
    pub fn split_shard(
        &mut self,
        shard: u32,
        mut replica_config: ReplicaConfig,
        catchup: Duration,
    ) -> Result<SplitReport, String> {
        let topo = self.shared.load();
        let spec = topo
            .spec(shard)
            .ok_or_else(|| format!("unknown shard {shard}"))?
            .clone();
        if replica_config.store_dir.is_none() {
            return Err("split needs a store_dir for the new shard's WAL".to_string());
        }
        let new_id = topo.len() as u32;
        replica_config.shard = new_id;
        let deadline = Instant::now() + catchup;

        // 1. Clone the donor: checkpoint + suffix shipping, mirrored
        //    durably, exactly as an ordinary replica.
        let donor_seq = donor_last_seq(spec.primary, self.config.probe_timeout, deadline)?;
        let clone = Replica::spawn(
            spec.primary,
            medvid_index::VideoDatabase::medical(),
            replica_config,
            self.recorder.clone(),
        )
        .map_err(|e| format!("split clone failed to spawn: {e}"))?;
        loop {
            let st = clone.status();
            if st.applied_seq >= donor_seq {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "split catch-up stalled at seq {} of {donor_seq}",
                    st.applied_seq
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }

        // 2. Cut over: compute the successor, promote the clone over its
        //    mirror, and fence the donor at the new epoch *before* the
        //    final drain, so nothing can land on the donor afterwards
        //    under the old epoch.
        let (next, new_shard) = topo.split(shard, clone.addr())?;
        debug_assert_eq!(new_shard, new_id);
        let epoch = next.epoch();
        let node = clone.promote(epoch)?;
        let new_primary = node.addr;
        // Drain from the *recovered* watermark, not a pre-promotion status
        // read: the tailer can apply more records between a status read and
        // its stop, and re-forwarding those would collide on the new node.
        let shipped_seq = node.last_seq;
        self.promoted.push(node);
        let fence_deadline = deadline.max(Instant::now() + self.config.probe_timeout);
        let mut fenced = false;
        while Instant::now() < fence_deadline {
            if deliver_fence(spec.primary, epoch, self.config.probe_timeout) {
                fenced = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if !fenced {
            return Err(format!(
                "donor {} would not accept the fence at epoch {epoch}; split aborted unpublished",
                spec.primary
            ));
        }

        // 3. Final drain: everything the donor durably accepted after the
        //    clone's watermark, forwarded when the new range owns it.
        let stragglers = drain_stragglers(
            spec.primary,
            shipped_seq,
            &next,
            new_id,
            new_primary,
            epoch,
            self.config.probe_timeout,
            deadline,
        )?;

        // 4. Publish: routing flips atomically with the epoch bump.
        self.shared.publish(next);
        self.recorder.incr(counters::CLUSTER_SPLITS, 1);
        let new_node_records = probe(new_primary, self.config.probe_timeout)
            .map(|m| m.records)
            .unwrap_or(0);
        self.recorder
            .incr(counters::CLUSTER_MOVED_RECORDS, new_node_records as u64);
        self.events.push(format!(
            "epoch {epoch}: split shard {shard} — new shard {new_id} at {new_primary} \
             (shipped through seq {shipped_seq} of {donor_seq}, {stragglers} straggler(s) \
             forwarded, {new_node_records} records on the new node)"
        ));
        Ok(SplitReport {
            shard,
            new_shard: new_id,
            new_primary,
            epoch,
            donor_seq,
            shipped_seq,
            stragglers_forwarded: stragglers,
            new_node_records,
        })
    }

    /// Runs the control loop on a background thread at
    /// [`ControlPlaneConfig::tick_interval`] until the returned handle is
    /// stopped or dropped.
    pub fn spawn(mut self) -> ControlPlaneHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let interval = self.config.tick_interval;
        let thread = std::thread::Builder::new()
            .name("cluster-control".to_string())
            .spawn(move || {
                while !thread_stop.load(Ordering::SeqCst) {
                    self.tick();
                    std::thread::sleep(interval);
                }
                self
            })
            .expect("control-plane thread spawns");
        ControlPlaneHandle {
            stop,
            thread: Some(thread),
        }
    }
}

/// Handle to a background control loop started by [`ControlPlane::spawn`].
pub struct ControlPlaneHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<ControlPlane>>,
}

impl ControlPlaneHandle {
    /// Stops the loop and returns the control plane (with its event log
    /// and promoted-node registry intact).
    pub fn stop(mut self) -> ControlPlane {
        self.stop.store(true, Ordering::SeqCst);
        self.thread
            .take()
            .expect("stopped once")
            .join()
            .expect("control-plane thread exits cleanly")
    }
}

impl Drop for ControlPlaneHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One health probe: connect, ask for `Metrics`, demand a timely answer.
/// A typed `DeadlineExceeded` is a failure — the node is alive but not
/// serving, which is exactly what failover exists for.
fn probe(addr: SocketAddr, timeout: Duration) -> Result<MetricsSnapshot, String> {
    let mut client = Client::connect(addr, timeout).map_err(|e| e.to_string())?;
    match client.metrics() {
        Ok(Response::Metrics { snapshot }) => Ok(snapshot),
        Ok(Response::Error {
            kind: ErrorKind::DeadlineExceeded,
            message,
            ..
        }) => Err(format!("probe deadline exceeded: {message}")),
        Ok(other) => Err(format!("unusable probe answer: {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Delivers one fence; true when the node acknowledged it.
fn deliver_fence(addr: SocketAddr, epoch: u64, timeout: Duration) -> bool {
    let Ok(mut client) = Client::connect(addr, timeout) else {
        return false;
    };
    matches!(
        client.request(&Request::Fence { epoch }),
        Ok(Response::Fenced { .. })
    )
}

/// The donor's current durable watermark, retried until `deadline`.
fn donor_last_seq(
    addr: SocketAddr,
    timeout: Duration,
    deadline: Instant,
) -> Result<u64, String> {
    loop {
        if let Ok(mut client) = Client::connect(addr, timeout) {
            if let Ok(Response::LogSegment { last_seq, .. }) = client.request(&Request::FetchLog {
                from_seq: u64::MAX,
                max_records: Some(1),
            }) {
                return Ok(last_seq);
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("donor {addr} will not report its watermark"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Drains the donor's WAL past `from_seq` and re-ingests (at the new
/// epoch) every record the new shard's range owns. Returns how many
/// records were forwarded.
#[allow(clippy::too_many_arguments)]
fn drain_stragglers(
    donor: SocketAddr,
    from_seq: u64,
    next: &ClusterTopology,
    new_id: u32,
    new_primary: SocketAddr,
    epoch: u64,
    timeout: Duration,
    deadline: Instant,
) -> Result<usize, String> {
    let mut applied = from_seq;
    let mut forwarded = 0usize;
    loop {
        if Instant::now() >= deadline {
            return Err("straggler drain ran out of time".to_string());
        }
        let mut client = Client::connect(donor, timeout).map_err(|e| e.to_string())?;
        let resp = client
            .request(&Request::FetchLog {
                from_seq: applied,
                max_records: None,
            })
            .map_err(|e| e.to_string())?;
        let Response::LogSegment {
            last_seq,
            snapshot,
            records,
            ..
        } = resp
        else {
            return Err("donor answered the drain with something other than a log segment".into());
        };
        if let Some(ckpt) = snapshot {
            // The donor checkpointed mid-drain: records past `applied` but
            // at or under its new checkpoint live only in the checkpoint
            // document now. Forward its owned shots one at a time,
            // tolerating duplicate rejections for the (vast) majority the
            // clone already shipped.
            for rec in &ckpt.snapshot.records {
                if next.shard_of(rec.shot.video) != new_id {
                    continue;
                }
                let shot = IngestShot {
                    video: rec.shot.video,
                    shot: rec.shot.shot,
                    features: rec.features.clone(),
                    event: rec.event,
                    scene_node: rec.scene_node,
                };
                if forward_one(new_primary, shot, epoch, timeout)? {
                    forwarded += 1;
                }
            }
            applied = applied.max(ckpt.last_seq);
        }
        let moved: Vec<IngestShot> = records
            .iter()
            .flat_map(|r: &WalRecord| wal_shots(&r.op))
            .filter(|s| next.shard_of(s.video) == new_id)
            .cloned()
            .collect();
        applied = records.iter().map(|r| r.seq).max().unwrap_or(applied).max(applied);
        if !moved.is_empty() {
            forwarded += moved.len();
            let mut target = Client::connect(new_primary, timeout).map_err(|e| e.to_string())?;
            match target
                .request(&Request::Ingest {
                    shots: moved,
                    trace_id: None,
                    trace: false,
                    topology_epoch: Some(epoch),
                })
                .map_err(|e| e.to_string())?
            {
                Response::Ingested { .. } => {}
                other => {
                    return Err(format!(
                        "new shard refused forwarded stragglers: {other:?}"
                    ))
                }
            }
        }
        if applied >= last_seq {
            return Ok(forwarded);
        }
    }
}

/// The ingest shots carried by one WAL operation (checkpoint markers
/// carry none).
fn wal_shots(op: &WalOp) -> &[IngestShot] {
    match op {
        WalOp::IngestShot { shot } => std::slice::from_ref(shot),
        WalOp::IngestVideo { shots } => shots,
        // The serving tier never logs removals (there is no wire verb for
        // them), so a drained suffix cannot carry one.
        WalOp::RemoveVideo { .. } | WalOp::Checkpoint { .. } => &[],
    }
}

/// Forwards one shot, treating a duplicate rejection as already-present.
/// Returns whether the shot was newly accepted.
fn forward_one(
    new_primary: SocketAddr,
    shot: IngestShot,
    epoch: u64,
    timeout: Duration,
) -> Result<bool, String> {
    let mut client = Client::connect(new_primary, timeout).map_err(|e| e.to_string())?;
    match client
        .request(&Request::Ingest {
            shots: vec![shot],
            trace_id: None,
            trace: false,
            topology_epoch: Some(epoch),
        })
        .map_err(|e| e.to_string())?
    {
        Response::Ingested { .. } => Ok(true),
        Response::Error {
            kind: ErrorKind::BadRequest,
            ..
        } => Ok(false),
        other => Err(format!("new shard refused a forwarded shot: {other:?}")),
    }
}
