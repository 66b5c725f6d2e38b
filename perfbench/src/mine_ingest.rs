//! `mine_ingest`: the paper's mining pipeline plus the archive's write path,
//! closed loop with one client. Each operation takes one encoded programme
//! through `decode_video` → `ClassMiner::mine` → `IngestShot`s →
//! `Client::ingest` on a persistent connection to a durable node.

use crate::corpus::{self, to_ingest};
use crate::layers::{emit_end_to_end, emit_layers, self_time_ms, trace_stage_ms};
use crate::stats::{mean, median, percentile, LatencyLog, Outcome, RunReport};
use crate::{tail_percentiles, Args};
use medvid::codec::{decode_video, encode_video, EncoderConfig};
use medvid::index::VideoDatabase;
use medvid::obs::Recorder;
use medvid::serve::{spawn_durable, trace, Client, Response, ServerConfig, ServerHandle};
use medvid::store::StoreConfig;
use medvid::types::{AudioTrack, Video, VideoId};
use medvid::{ClassMiner, ClassMinerConfig, MinedVideo};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Mining stages whose self-times the traced run reports, by
/// `medvid-obs` stage name.
const STAGES: [(&str, &str); 7] = [
    ("shot_detect", "structure.shot_detect_ms"),
    ("group_mine", "structure.group_mine_ms"),
    ("scene_merge", "structure.scene_merge_ms"),
    ("pcs_cluster", "structure.pcs_cluster_ms"),
    ("audio_bic", "audio.audio_bic_ms"),
    ("visual_cues", "vision.visual_cues_ms"),
    ("event_rules", "events.event_rules_ms"),
];

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// One encoded programme. The audio track travels beside the bitstream
/// (the codec carries frames only) and is moved into each decoded video.
struct Programme {
    title: String,
    bits: Vec<u8>,
    audio: Option<AudioTrack>,
    fps: f64,
    /// Structure-and-events digest of the first pass.
    digest: Option<u64>,
}

/// FNV-1a over the debug rendering of the mined structure and events:
/// every field, floats included at full precision.
fn digest(mined: &MinedVideo) -> u64 {
    let text = format!("{:?}{:?}", mined.structure, mined.events);
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per-layer numbers from one traced operation.
#[derive(Default)]
struct OpTrace {
    decode_ms: f64,
    stages: BTreeMap<&'static str, f64>,
    unattributed_ms: f64,
    ingest_wire_ms: f64,
    writer_wait_ms: f64,
    append_ms: f64,
    store_ms: f64,
    /// The server's stage sum stayed within its `total_micros`.
    stage_sum_ok: bool,
}

struct OpResult {
    outcome: Outcome,
    latency_ms: f64,
    write_ms: f64,
    acked: usize,
    trace: Option<OpTrace>,
}

impl OpResult {
    /// A failed or refused operation: nothing acknowledged, and its
    /// latency misses every limit.
    fn lost(outcome: Outcome) -> Self {
        OpResult {
            outcome,
            latency_ms: f64::INFINITY,
            write_ms: f64::INFINITY,
            acked: 0,
            trace: None,
        }
    }
}

struct Node {
    handle: ServerHandle,
    client: Client,
    miner: ClassMiner,
}

/// Program set-up: miner training, durable node spawn and recovery, and
/// the client connection.
fn setup(args: &Args, rep: usize) -> Node {
    let miner =
        ClassMiner::new(ClassMinerConfig::default(), args.seed).expect("speech classifier trains");
    let (handle, _recovery) = spawn_durable(
        args.work.join(format!("node-{rep}")),
        StoreConfig::default(),
        VideoDatabase::medical(),
        ServerConfig::default(),
        Recorder::disabled(),
    )
    .expect("durable node spawns");
    let client = Client::connect(handle.addr(), CLIENT_TIMEOUT).expect("client connects");
    Node {
        handle,
        client,
        miner,
    }
}

fn run_op(
    node: &mut Node,
    programme: &mut Programme,
    video: VideoId,
    taxonomy: &VideoDatabase,
    traced: bool,
    report: &mut RunReport,
) -> OpResult {
    let t0 = Instant::now();
    let frames = match decode_video(&programme.bits) {
        Ok(f) => f,
        Err(_) => return OpResult::lost(Outcome::Failed),
    };
    let decode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let video_in = Video {
        id: video,
        title: programme.title.clone(),
        frames,
        audio: programme
            .audio
            .take()
            .expect("audio is returned after every op"),
        fps: programme.fps,
        truth: None,
    };
    let mut trace = traced.then(OpTrace::default);
    let mined = match trace.as_mut() {
        Some(t) => {
            let rec = Recorder::new();
            let m0 = Instant::now();
            let mined = node.miner.mine_observed(&video_in, &rec);
            let wall_ms = m0.elapsed().as_secs_f64() * 1e3;
            let mining = rec.report();
            let mut attributed = 0.0;
            for s in mining.stages.values() {
                attributed += s.self_secs * 1e3;
            }
            for (stage, metric) in STAGES {
                t.stages.insert(metric, self_time_ms(&mining, stage));
            }
            t.unattributed_ms = wall_ms - attributed;
            t.decode_ms = decode_ms;
            mined
        }
        None => node.miner.mine(&video_in),
    };
    programme.audio = Some(video_in.audio);
    let shots = to_ingest(video, &mined, taxonomy);
    let expected = shots.len();
    let w0 = Instant::now();
    let response = if traced {
        node.client.ingest_traced(shots, None)
    } else {
        node.client.ingest(shots)
    };
    let write_ms = w0.elapsed().as_secs_f64() * 1e3;
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;

    let d = digest(&mined);
    match programme.digest {
        None => programme.digest = Some(d),
        Some(first) if first != d => report.gate(
            "mine_ingest.digest_stable",
            false,
            format!(
                "programme {} mined to {d:x}, first pass {first:x}",
                programme.title
            ),
        ),
        Some(_) => {}
    }

    match response {
        Ok(Response::Ingested {
            accepted, trace: t, ..
        }) if accepted == expected => {
            if let (Some(op), Some(t)) = (trace.as_mut(), t) {
                let stage = |name: &str| trace_stage_ms(&t, name).unwrap_or(0.0);
                let staged: u64 = t.stages.iter().map(|s| s.micros).sum();
                op.stage_sum_ok = staged <= t.total_micros;
                op.ingest_wire_ms = write_ms - t.total_micros as f64 / 1e3;
                op.writer_wait_ms = stage(trace::STAGE_WRITER_WAIT);
                op.append_ms = stage(trace::STAGE_BUILD);
                op.store_ms = stage(trace::STAGE_STORE_APPEND);
            }
            OpResult {
                outcome: Outcome::Ok,
                latency_ms,
                write_ms,
                acked: accepted,
                trace,
            }
        }
        Ok(Response::Error { .. }) => OpResult::lost(Outcome::Refused),
        Ok(_) => OpResult::lost(Outcome::Failed),
        Err(_) => {
            // The persistent connection is gone: count the failure and
            // reconnect for the next operation.
            if let Ok(c) = Client::connect(node.handle.addr(), CLIENT_TIMEOUT) {
                node.client = c;
            }
            OpResult::lost(Outcome::Failed)
        }
    }
}

pub fn run(args: &Args) -> RunReport {
    let mut report = RunReport::default();
    let (videos, gen_s) = corpus::corpus(args.scale, args.seed);
    let e0 = Instant::now();
    let frames: usize = videos.iter().map(|v| v.frames.len()).sum();
    let mut programmes: Vec<Programme> = videos
        .into_iter()
        .map(|v| Programme {
            bits: encode_video(&v.frames, &EncoderConfig::default()).expect("corpus frames encode"),
            title: v.title,
            audio: Some(v.audio),
            fps: v.fps,
            digest: None,
        })
        .collect();
    let bytes: usize = programmes.iter().map(|p| p.bits.len()).sum();
    report.fact("corpus_scale", format!("{:?}", args.scale.corpus));
    report.fact("corpus_frames", frames);
    report.fact("bitstream_bytes", bytes);
    report.fact("harness_corpus_s", format!("{:.3}", gen_s));
    report.fact(
        "harness_encode_s",
        format!("{:.3}", e0.elapsed().as_secs_f64()),
    );
    report.fact("records_preloaded", 0);
    report.fact("write_rate", "closed loop, 1 client");

    let mut setups = Vec::new();
    let mut node: Option<Node> = None;
    for rep in 0..args.scale.setup_reps {
        let s0 = Instant::now();
        let fresh = setup(args, rep);
        setups.push(s0.elapsed().as_secs_f64());
        if let Some(old) = node.replace(fresh) {
            drop(old.client);
            old.handle.shutdown();
            old.handle.join();
        }
    }
    let mut node = node.expect("at least one set-up");
    let taxonomy = VideoDatabase::medical();

    let mut acked_total = 0usize;
    let mut next_id = 0usize;
    // Warm-up: one untimed pass over the first programme.
    let warm = run_op(
        &mut node,
        &mut programmes[0],
        VideoId(next_id),
        &taxonomy,
        false,
        &mut report,
    );
    next_id += 1;
    acked_total += warm.acked;
    if warm.outcome != Outcome::Ok {
        report.gate("mine_ingest.warmup", false, "the warm-up operation failed");
    }

    let mut ops = LatencyLog::default();
    let mut writes = Vec::new();
    let mut traces = Vec::new();
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        let op = ops.latencies.len();
        let traced = args.trace && op.is_multiple_of(2);
        let p = (op + 1) % programmes.len();
        let r = run_op(
            &mut node,
            &mut programmes[p],
            VideoId(next_id),
            &taxonomy,
            traced,
            &mut report,
        );
        next_id += 1;
        ops.record(r.outcome, r.latency_ms, traced);
        acked_total += r.acked;
        writes.push(r.write_ms);
        traces.extend(r.trace);
    }
    let window_s = start.elapsed().as_secs_f64();

    match node.client.stats() {
        Ok(Response::Stats { records, .. }) => report.gate(
            "mine_ingest.records_match_acks",
            records == acked_total,
            format!("node holds {records} records, {acked_total} shots acknowledged"),
        ),
        other => report.gate(
            "mine_ingest.records_match_acks",
            false,
            format!("stats request failed: {other:?}"),
        ),
    }
    if !report
        .gates
        .iter()
        .any(|g| g.name == "mine_ingest.digest_stable")
    {
        report.gate(
            "mine_ingest.digest_stable",
            true,
            format!(
                "{} programmes, {} passes, one digest each",
                programmes.len(),
                next_id
            ),
        );
    }
    drop(node.client);
    node.handle.shutdown();
    node.handle.join();

    report.tally("write", &ops.tally);
    report.fact("samples", ops.latencies.len());
    let (tail, write_tail) = tail_percentiles("mine_ingest");
    if args.trace {
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        let avg = |f: &dyn Fn(&OpTrace) -> f64| mean(traces.iter().map(f));
        m.insert("codec.decode_ms", avg(&|t| t.decode_ms));
        for (_, metric) in STAGES {
            m.insert(metric, avg(&|t| t.stages[metric]));
        }
        let min_unattributed = traces
            .iter()
            .map(|t| t.unattributed_ms)
            .fold(f64::INFINITY, f64::min);
        report.gate(
            "mine_ingest.server_stage_sum",
            traces.iter().all(|t| t.stage_sum_ok),
            format!("{} traced ingests checked", traces.len()),
        );
        report.gate(
            "mine_ingest.unattributed_nonnegative",
            traces.is_empty() || min_unattributed >= 0.0,
            format!("smallest per-video unattributed time {min_unattributed:.4} ms"),
        );
        m.insert("mine.unattributed_ms", avg(&|t| t.unattributed_ms));
        m.insert("serve.ingest_wire_ms", avg(&|t| t.ingest_wire_ms));
        m.insert("serve.writer_wait_ms", avg(&|t| t.writer_wait_ms));
        m.insert("index.append_ms", avg(&|t| t.append_ms));
        m.insert("store.append_ms", avg(&|t| t.store_ms));
        if let Some(pct) = ops.overhead_pct() {
            m.insert("trace.overhead_pct", pct);
        }
        emit_layers(&mut report, &m);
    } else {
        emit_end_to_end(
            &mut report,
            [
                ("ops_per_s", ops.tally.succeeded as f64 / window_s),
                ("p50_ms", ops.percentile(50.0)),
                ("tail_ms", ops.percentile(tail)),
                ("write_p50_ms", percentile(&writes, 50.0)),
                ("write_tail_ms", percentile(&writes, write_tail)),
                ("setup_s", median(&setups)),
            ],
        );
    }
    report
}
