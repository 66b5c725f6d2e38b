//! Harness inputs, all derived from `--seed`: the synthetic corpus, the
//! pool of real mined shot features, the preloaded records built from it,
//! and the read mix clients send.

use crate::stats::Rng;
use medvid::index::{NodeId, VideoDatabase};
use medvid::serve::{IngestShot, QueryRequest, WireStrategy};
use medvid::synth::{standard_corpus, CorpusScale};
use medvid::types::{EventKind, ShotId, Video, VideoId};
use medvid::MinedVideo;
use std::time::Instant;

/// Shots per synthetic preload video and per open-loop write: about one
/// mined programme's worth.
pub const SHOTS_PER_VIDEO: usize = 50;
/// First video id handed to writes made during a run, far above every
/// preloaded id so the two never collide.
pub const WRITE_VIDEO_BASE: usize = 1_000_000;

/// Size knobs. `Small` is what the benchmark measures; `Tiny` only keeps the
/// smoke test fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    pub corpus: CorpusScale,
    /// Shot records preloaded before a read workload starts.
    pub preload: usize,
    /// Independent set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Writes made on the persistent client connection after the `query`
    /// read window.
    pub query_write_probe: usize,
}

impl Scale {
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "small" => Some(Scale {
                name: "small",
                corpus: CorpusScale::Small,
                preload: 20_000,
                setup_reps: 3,
                query_write_probe: 40,
            }),
            "tiny" => Some(Scale {
                name: "tiny",
                corpus: CorpusScale::Tiny,
                preload: 1_000,
                setup_reps: 1,
                query_write_probe: 4,
            }),
            _ => None,
        }
    }
}

/// Generates `standard_corpus(scale, seed)`, returning it with the harness
/// seconds it took (never counted as set-up: it is input generation).
pub fn corpus(scale: Scale, seed: u64) -> (Vec<Video>, f64) {
    let t0 = Instant::now();
    let videos = standard_corpus(scale.corpus, seed);
    (videos, t0.elapsed().as_secs_f64())
}

/// The scene node a mined scene's shots are filed under: the node of the
/// scene's event beneath the database's default subcluster — the same
/// placement `VideoDatabase::insert_video` makes.
pub fn to_ingest(video: VideoId, mined: &MinedVideo, db: &VideoDatabase) -> Vec<IngestShot> {
    let subcluster = db.default_subcluster();
    let mut shots = Vec::new();
    for scene in &mined.structure.scenes {
        let event = mined
            .events
            .iter()
            .find(|e| e.scene == scene.id)
            .map(|e| e.event)
            .unwrap_or(EventKind::Undetermined);
        let scene_node = db
            .hierarchy()
            .scene_for_event(subcluster, event)
            .expect("every subcluster of the medical hierarchy has a node per event");
        for sid in mined.structure.scene_shots(scene.id) {
            shots.push(IngestShot {
                video,
                shot: sid,
                features: mined.structure.shot(sid).features.concat(),
                event,
                scene_node,
            });
        }
    }
    shots
}

/// One real mined shot: the template preloaded records perturb.
#[derive(Debug, Clone)]
pub struct PoolShot {
    pub features: Vec<f32>,
    pub event: EventKind,
    pub scene_node: NodeId,
}

/// Every indexed shot the corpus mines to.
pub fn feature_pool(mined: &[MinedVideo], db: &VideoDatabase) -> Vec<PoolShot> {
    mined
        .iter()
        .enumerate()
        .flat_map(|(i, m)| to_ingest(VideoId(i), m, db))
        .map(|s| PoolShot {
            features: s.features,
            event: s.event,
            scene_node: s.scene_node,
        })
        .collect()
}

/// A seeded perturbation of a real feature vector: every component scaled
/// by up to ±5%, so records stay in the corpus's feature distribution yet
/// no two share a vector.
pub fn perturb(base: &[f32], rng: &mut Rng) -> Vec<f32> {
    base.iter()
        .map(|&x| x * (0.95 + 0.1 * rng.unit() as f32))
        .collect()
}

/// `count` shots of one synthetic video, perturbed from random pool shots.
pub fn video_batch(
    pool: &[PoolShot],
    video: usize,
    count: usize,
    rng: &mut Rng,
) -> Vec<IngestShot> {
    (0..count)
        .map(|s| {
            let base = &pool[rng.below(pool.len())];
            IngestShot {
                video: VideoId(video),
                shot: ShotId(s),
                features: perturb(&base.features, rng),
                event: base.event,
                scene_node: base.scene_node,
            }
        })
        .collect()
}

/// The preloaded records: `n` perturbed pool shots in videos of
/// [`SHOTS_PER_VIDEO`].
pub fn preload_records(pool: &[PoolShot], n: usize, seed: u64) -> Vec<IngestShot> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::with_capacity(n);
    let mut video = 0;
    while out.len() < n {
        let count = SHOTS_PER_VIDEO.min(n - out.len());
        out.extend(video_batch(pool, video, count, &mut rng));
        video += 1;
    }
    out
}

/// A database holding `records`, unbuilt: its flat search is the scalar
/// f32 scan, the reference every served answer must equal.
pub fn unbuilt_db(records: &[IngestShot]) -> VideoDatabase {
    let mut db = VideoDatabase::medical();
    for r in records {
        db.insert_shot(
            medvid::index::ShotRef {
                video: r.video,
                shot: r.shot,
            },
            r.features.clone(),
            r.event,
            r.scene_node,
        );
    }
    db
}

/// Program set-up work: index the preloaded records.
pub fn built_db(records: &[IngestShot]) -> VideoDatabase {
    let mut db = unbuilt_db(records);
    db.build();
    db
}

/// Distinct hot requests: together they fit the 256-entry result cache.
const HOT_REQUESTS: usize = 96;
/// Share of reads drawn from the hot pool; the rest carry a fresh vector
/// the cache has never seen.
const HOT_SHARE: f64 = 0.5;

/// The read mix: default-strategy kNN plus `Flat` and `Planned` shares,
/// `event`/`under`/`clearance` filters, and a hot pool beside unique
/// vectors.
pub struct QueryMix {
    pool: Vec<PoolShot>,
    hot: Vec<QueryRequest>,
    rng: Rng,
}

impl QueryMix {
    /// A mix whose hot pool depends on `seed` only; `client` picks the
    /// client's own stream through it.
    pub fn new(pool: &[PoolShot], seed: u64, client: u64) -> Self {
        let mut hot_rng = Rng::new(seed, 2);
        let hot = (0..HOT_REQUESTS)
            .map(|_| random_request(pool, &mut hot_rng))
            .collect();
        QueryMix {
            pool: pool.to_vec(),
            hot,
            rng: Rng::new(seed, 100 + client),
        }
    }

    pub fn next_request(&mut self) -> QueryRequest {
        if self.rng.unit() < HOT_SHARE {
            self.hot[self.rng.below(self.hot.len())].clone()
        } else {
            random_request(&self.pool, &mut self.rng)
        }
    }

    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

fn random_request(pool: &[PoolShot], rng: &mut Rng) -> QueryRequest {
    let base = &pool[rng.below(pool.len())];
    let strategy = match rng.unit() {
        u if u < 0.6 => None,
        u if u < 0.8 => Some(WireStrategy::Flat),
        _ => Some(WireStrategy::Planned),
    };
    let event = (rng.unit() < 0.15).then_some(base.event);
    let under = (rng.unit() < 0.15).then_some(base.scene_node);
    let clearance = (rng.unit() < 0.1).then(|| rng.below(3) as u8);
    QueryRequest {
        vector: Some(perturb(&base.features, rng)),
        event,
        under,
        clearance,
        limit: Some(10),
        strategy,
        ..QueryRequest::default()
    }
}

/// Whether a request's exact answer is the plain flat top-k: an exact
/// strategy and no filters.
pub fn checkable(req: &QueryRequest) -> bool {
    matches!(
        req.strategy,
        Some(WireStrategy::Flat) | Some(WireStrategy::Planned)
    ) && req.event.is_none()
        && req.under.is_none()
        && req.clearance.is_none()
}

/// `(distance bits, video, shot)` of every hit, the bit-exact comparison
/// key of the answer gates.
pub type AnswerKey = Vec<(u32, usize, usize)>;

pub fn served_key(hits: &[medvid::serve::Hit]) -> AnswerKey {
    hits.iter()
        .map(|h| (h.distance.to_bits(), h.video.0, h.shot.0))
        .collect()
}

/// The reference answer: the unbuilt database's scalar flat scan.
pub fn reference_key(reference: &VideoDatabase, req: &QueryRequest) -> AnswerKey {
    let vector = req
        .vector
        .as_deref()
        .expect("every mix request carries a vector");
    let (hits, _) = reference.flat_search(vector, req.limit.unwrap_or(10), None);
    hits.iter()
        .map(|h| (h.distance.to_bits(), h.shot.video.0, h.shot.shot.0))
        .collect()
}
