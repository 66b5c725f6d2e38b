//! Scene-detection comparison: Method A (ours) vs Methods B and C
//! (Figs. 12–13), plus the qualitative per-scene listing of Fig. 8.

use crate::metrics::{scene_precision, unit_of_shot, SceneJudgement};
use medvid_baselines::{
    lin_zhang_scenes, rui_scenes, stg_scenes, LinZhangConfig, RuiConfig, StgConfig,
};
use medvid_obs::{counters, MetricsRegistry, Recorder, Stage};
use medvid_structure::group::{detect_groups, GroupConfig};
use medvid_structure::scene::{detect_scenes, SceneConfig};
use medvid_structure::shot::{detect_shots, ShotDetectorConfig};
use medvid_structure::similarity::SimilarityWeights;
use medvid_types::{ShotId, Video};
use serde::Serialize;

/// The three compared methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Method {
    /// The paper's method (Sec. 3).
    A,
    /// Rui et al. table-of-content construction.
    B,
    /// Lin–Zhang shot grouping.
    C,
    /// Yeung–Yeo scene transition graph (extra baseline, not in the paper's
    /// Figs. 12–13).
    D,
}

impl Method {
    /// The paper's compared methods, in reporting order.
    pub const ALL: [Method; 3] = [Method::A, Method::B, Method::C];
    /// All implemented methods including the extra STG baseline.
    pub const EXTENDED: [Method; 4] = [Method::A, Method::B, Method::C, Method::D];
}

/// Result of one method over the corpus.
#[derive(Debug, Clone, Serialize)]
pub struct MethodResult {
    /// Which method.
    pub method: Method,
    /// Pooled judgement across the corpus.
    pub judgement: SceneJudgement,
    /// Eq. 20 precision.
    pub precision: f64,
    /// Eq. 21 compression-rate factor.
    pub crf: f64,
}

/// Detects scenes with one method on pre-detected shots, timing Method A's
/// group and scene stages through `rec` (the baseline methods are not
/// instrumented).
pub fn scenes_with_method(
    method: Method,
    shots: &[medvid_types::Shot],
    w: SimilarityWeights,
    rec: &Recorder,
) -> Vec<Vec<ShotId>> {
    match method {
        Method::A => method_a_scenes(shots, w, &GroupConfig::default(), rec),
        Method::B => rui_scenes(shots, w, &RuiConfig::default()),
        Method::C => lin_zhang_scenes(shots, w, &LinZhangConfig::default()),
        Method::D => stg_scenes(shots, w, &StgConfig::default()),
    }
}

/// Method A on pre-detected shots under explicit group thresholds, as
/// sorted shot ids per scene; the group and scene stages are timed through
/// `rec`. The ablations call it with non-default thresholds and weights.
pub fn method_a_scenes(
    shots: &[medvid_types::Shot],
    w: SimilarityWeights,
    group: &GroupConfig,
    rec: &Recorder,
) -> Vec<Vec<ShotId>> {
    let groups = {
        let _span = rec.span(Stage::GroupMine);
        detect_groups(shots, w, group).groups
    };
    rec.incr(counters::GROUPS_FORMED, groups.len() as u64);
    let det = {
        let _span = rec.span(Stage::SceneMerge);
        detect_scenes(&groups, shots, w, &SceneConfig::default())
    };
    rec.incr(counters::SCENES_DETECTED, det.scenes.len() as u64);
    rec.incr(counters::SCENES_DROPPED, det.dropped as u64);
    det.scenes
        .iter()
        .map(|scene| {
            let mut out: Vec<ShotId> = scene
                .groups
                .iter()
                .flat_map(|&g| groups[g.index()].shots.clone())
                .collect();
            out.sort_unstable();
            out
        })
        .collect()
}

/// Runs the Figs. 12–13 comparison across a corpus (videos processed in
/// parallel).
pub fn run_comparison(corpus: &[Video]) -> Vec<MethodResult> {
    run_comparison_observed(corpus, &MetricsRegistry::new())
}

/// Like [`run_comparison`], merging per-worker telemetry (shot detection and
/// Method A's group/scene stages) into `registry`.
pub fn run_comparison_observed(corpus: &[Video], registry: &MetricsRegistry) -> Vec<MethodResult> {
    let w = SimilarityWeights::default();
    let shot_cfg = ShotDetectorConfig::default();
    let per_video = crate::parallel::map_videos_observed(corpus, registry, |video, rec| {
        let truth = video
            .truth
            .as_ref()
            .expect("evaluation corpus carries ground truth");
        let detection = {
            let _span = rec.span(Stage::ShotDetect);
            detect_shots(video, &shot_cfg)
        };
        rec.incr(counters::SHOTS_DETECTED, detection.shots.len() as u64);
        Method::EXTENDED.map(|method| {
            let scenes = scenes_with_method(method, &detection.shots, w, rec);
            scene_precision(&scenes, &detection.shots, truth)
        })
    });
    let mut pooled = [SceneJudgement::zero(); 4];
    for judgements in per_video {
        for (p, j) in pooled.iter_mut().zip(judgements) {
            p.add(j);
        }
    }
    Method::EXTENDED
        .iter()
        .zip(pooled.iter())
        .map(|(&method, &judgement)| MethodResult {
            method,
            judgement,
            precision: judgement.precision(),
            crf: judgement.crf(),
        })
        .collect()
}

/// One row of the Fig. 8-style qualitative listing: a detected scene with
/// its dominant ground-truth label.
#[derive(Debug, Clone, Serialize)]
pub struct SceneListing {
    /// Scene index.
    pub scene: usize,
    /// Member shots.
    pub shots: Vec<usize>,
    /// Dominant ground-truth topic of the scene's shots.
    pub dominant_topic: String,
    /// Whether all shots share one semantic unit.
    pub pure: bool,
}

/// Produces the qualitative listing for one video (Fig. 8).
pub fn run_listing(video: &Video) -> Vec<SceneListing> {
    let truth = video.truth.as_ref().expect("ground truth required");
    let w = SimilarityWeights::default();
    let detection = detect_shots(video, &ShotDetectorConfig::default());
    let rec = Recorder::disabled();
    let scenes = method_a_scenes(&detection.shots, w, &GroupConfig::default(), &rec);
    scenes
        .iter()
        .enumerate()
        .map(|(i, scene)| {
            let units: Vec<Option<usize>> = scene
                .iter()
                .map(|&s| unit_of_shot(&detection.shots[s.index()], truth))
                .collect();
            let dominant = dominant_unit(&units);
            let topic = dominant
                .map(|u| truth.semantic_units[u].topic.clone())
                .unwrap_or_else(|| "(uncovered)".to_string());
            let pure = units.iter().all(|&u| u.is_some() && u == units[0]);
            SceneListing {
                scene: i,
                shots: scene.iter().map(|s| s.index()).collect(),
                dominant_topic: topic,
                pure,
            }
        })
        .collect()
}

fn dominant_unit(units: &[Option<usize>]) -> Option<usize> {
    let mut counts = std::collections::HashMap::new();
    for u in units.iter().flatten() {
        *counts.entry(*u).or_insert(0usize) += 1;
    }
    counts.into_iter().max_by_key(|&(_, c)| c).map(|(u, _)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{evaluation_corpus, EvalScale};

    #[test]
    fn comparison_produces_all_methods() {
        let corpus = evaluation_corpus(EvalScale::Tiny);
        let results = run_comparison(&corpus);
        assert_eq!(results.len(), Method::EXTENDED.len());
        for r in &results {
            assert!(r.precision >= 0.0 && r.precision <= 1.0);
            assert!(r.crf > 0.0 && r.crf <= 1.0);
            assert!(r.judgement.detected > 0);
        }
    }

    #[test]
    fn method_a_precision_is_competitive() {
        let corpus = evaluation_corpus(EvalScale::Tiny);
        let results = run_comparison(&corpus);
        let a = &results[0];
        let b = &results[1];
        let c = &results[2];
        // The paper's headline ordering (A best) is asserted at the full
        // corpus scale in EXPERIMENTS.md; at the tiny smoke-test scale we
        // only require A to stay competitive.
        assert!(
            a.precision >= b.precision - 0.2 && a.precision >= c.precision - 0.2,
            "A={:.3} B={:.3} C={:.3}",
            a.precision,
            b.precision,
            c.precision
        );
    }

    #[test]
    fn listing_covers_all_scenes() {
        let corpus = evaluation_corpus(EvalScale::Tiny);
        let listing = run_listing(&corpus[0]);
        assert!(!listing.is_empty());
        for l in &listing {
            assert!(!l.shots.is_empty());
            assert!(!l.dominant_topic.is_empty());
        }
    }
}
