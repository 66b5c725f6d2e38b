//! Ablations of the paper's design choices — entropy-automatic thresholds,
//! the `WC=0.7/WT=0.3` similarity weights, seedless PCS clustering — plus
//! the codec quality and BIC λ operating points (EXPERIMENTS.md
//! §Ablations).
//!
//! The thresholds and features rows pool Method A's scene judgements over
//! the whole corpus, as [`crate::scenedet::run_comparison`] does, and keep
//! each programme's precision: a pooled figure can hide a setting that
//! fails on one programme.

use crate::metrics::{scene_precision, SceneJudgement};
use crate::parallel::map_videos;
use crate::scenedet::method_a_scenes;
use medvid_audio::bic::{bic_speaker_change, voiced_frames, BicConfig};
use medvid_codec::{decode_video, encode_video, psnr, EncoderConfig, Quality};
use medvid_obs::Recorder;
use medvid_signal::kmeans::kmeans;
use medvid_signal::mel::MfccExtractor;
use medvid_structure::cluster::{cluster_scenes, ClusterConfig};
use medvid_structure::group::GroupConfig;
use medvid_structure::similarity::SimilarityWeights;
use medvid_structure::{mine_structure, MiningConfig};
use medvid_synth::voice::{synth_speech, voice_for_speaker};
use medvid_types::{ContentStructure, Video};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::HashSet;

/// One setting of the thresholds or features ablation.
#[derive(Debug, Clone, Serialize)]
pub struct SceneAblationRow {
    /// The setting, as printed.
    pub setting: String,
    /// Judgement pooled across the corpus.
    pub judgement: SceneJudgement,
    /// Eq. 20 precision of the pooled judgement.
    pub precision: f64,
    /// Eq. 21 compression-rate factor of the pooled judgement.
    pub crf: f64,
    /// Precision per programme, in corpus order.
    pub per_video_precision: Vec<f64>,
}

/// One programme of the clustering ablation.
#[derive(Debug, Clone, Serialize)]
pub struct ClusteringRow {
    /// Scenes PCS starts from.
    pub scenes: usize,
    /// Clusters PCS keeps when cluster validity picks the count.
    pub pcs_clusters: usize,
    /// Whether a second PCS run returned the identical partition.
    pub pcs_repeatable: bool,
    /// Clusters under a fixed 40 % reduction.
    pub fixed_clusters: usize,
    /// Distinct k-means partitions (k = the PCS count) over 5 seeds.
    pub kmeans_partitions: usize,
}

/// One quality of the codec sweep.
#[derive(Debug, Clone, Serialize)]
pub struct CodecRow {
    /// Quantisation quality.
    pub quality: u8,
    /// Bitstream size.
    pub bytes: usize,
    /// Bits per pixel.
    pub bpp: f64,
    /// PSNR of the worst decoded frame, dB.
    pub min_psnr_db: f64,
}

/// One penalty factor of the BIC sweep.
#[derive(Debug, Clone, Serialize)]
pub struct BicRow {
    /// Penalty factor λ.
    pub lambda: f64,
    /// Pairs judged correctly.
    pub correct: usize,
    /// Pairs judged (half same-speaker, half different).
    pub pairs: usize,
}

/// All five ablations.
#[derive(Debug, Clone, Serialize)]
pub struct Ablations {
    /// Automatic vs fixed group thresholds.
    pub thresholds: Vec<SceneAblationRow>,
    /// Similarity weights.
    pub features: Vec<SceneAblationRow>,
    /// Per programme, in corpus order.
    pub clustering: Vec<ClusteringRow>,
    /// Codec quality sweep over the first programme's opening frames.
    pub codec: Vec<CodecRow>,
    /// BIC penalty sweep over synthetic speech pairs.
    pub bic: Vec<BicRow>,
}

/// A labelled Method A configuration.
type Setting = (String, SimilarityWeights, GroupConfig);

fn threshold_settings() -> Vec<Setting> {
    let w = SimilarityWeights::default();
    let mut out = vec![("auto entropy".to_string(), w, GroupConfig::default())];
    out.extend([0.3f32, 0.5, 0.7, 0.9].map(|t2| {
        let fixed = GroupConfig {
            t1: Some(1.2),
            t2: Some(t2),
            th: None,
        };
        (format!("fixed T2={t2}"), w, fixed)
    }));
    out
}

fn feature_settings() -> Vec<Setting> {
    let texture_heavy = SimilarityWeights {
        color: 0.3,
        texture: 0.7,
    };
    [
        ("paper WC=0.7/WT=0.3", SimilarityWeights::default()),
        ("colour only", SimilarityWeights::color_only()),
        ("texture heavy WC=0.3/WT=0.7", texture_heavy),
    ]
    .map(|(name, w)| (name.to_string(), w, GroupConfig::default()))
    .to_vec()
}

/// Runs every ablation over `corpus` (which must carry ground truth).
pub fn run_ablations(corpus: &[Video]) -> Ablations {
    let mut settings = threshold_settings();
    let thresholds = settings.len();
    settings.extend(feature_settings());
    let per_video = map_videos(corpus, |video| {
        let truth = video
            .truth
            .as_ref()
            .expect("evaluation corpus carries ground truth");
        let structure = mine_structure(video, &MiningConfig::default());
        let shots = &structure.shots;
        let judgements: Vec<SceneJudgement> = settings
            .iter()
            .map(|(_, w, group)| {
                let scenes = method_a_scenes(shots, *w, group, &Recorder::disabled());
                scene_precision(&scenes, shots, truth)
            })
            .collect();
        (judgements, clustering_row(&structure))
    });
    // Each setting's judgements summed over the programmes.
    let mut rows: Vec<SceneAblationRow> = settings
        .into_iter()
        .enumerate()
        .map(|(i, (setting, _, _))| {
            let mut judgement = SceneJudgement::zero();
            per_video.iter().for_each(|v| judgement.add(v.0[i]));
            SceneAblationRow {
                setting,
                judgement,
                precision: judgement.precision(),
                crf: judgement.crf(),
                per_video_precision: per_video.iter().map(|v| v.0[i].precision()).collect(),
            }
        })
        .collect();
    let first = corpus.first().expect("non-empty corpus");
    Ablations {
        features: rows.split_off(thresholds),
        thresholds: rows,
        clustering: per_video.into_iter().map(|v| v.1).collect(),
        codec: codec_rows(&first.frames[..first.frames.len().min(60)]),
        bic: bic_rows(),
    }
}

fn clustering_row(cs: &ContentStructure) -> ClusteringRow {
    let w = SimilarityWeights::default();
    let pcs = |config: &ClusterConfig| cluster_scenes(&cs.scenes, &cs.groups, &cs.shots, w, config);
    // `mine_structure` already ran PCS under the default config; this is
    // the second run.
    let validity = pcs(&ClusterConfig::default());
    let fixed = pcs(&ClusterConfig {
        target: Some((cs.scenes.len() as f64 * 0.6) as usize),
        ..ClusterConfig::default()
    });
    // k-means over the scenes' representative-shot features: its seed
    // sensitivity, the paper's reason for PCS, shows as distinct partitions.
    let points: Vec<Vec<f64>> = cs
        .scenes
        .iter()
        .map(|scene| {
            let g = &cs.groups[scene.representative_group.index()];
            let s = &cs.shots[g.representative_shots[0].index()];
            s.features.concat().iter().map(|&x| x as f64).collect()
        })
        .collect();
    let k = validity.len().min(points.len().max(1));
    let partitions: HashSet<Vec<usize>> = (0..5u64)
        .filter_map(|seed| kmeans(&points, k, 30, &mut StdRng::seed_from_u64(seed)))
        .map(|km| km.assignments)
        .collect();
    ClusteringRow {
        scenes: cs.scenes.len(),
        pcs_clusters: validity.len(),
        pcs_repeatable: validity == cs.clustered_scenes,
        fixed_clusters: fixed.len(),
        kmeans_partitions: partitions.len(),
    }
}

fn codec_rows(frames: &[medvid_types::Image]) -> Vec<CodecRow> {
    let pixels: usize = frames.iter().map(|f| f.pixel_count()).sum();
    [25u8, 75]
        .map(|quality| {
            let config = EncoderConfig {
                quality: Quality::new(quality).expect("quality within 1..=100"),
                ..EncoderConfig::default()
            };
            let bits = encode_video(frames, &config).expect("synthetic frames encode");
            let decoded = decode_video(&bits).expect("a fresh bitstream decodes");
            CodecRow {
                quality,
                bytes: bits.len(),
                bpp: bits.len() as f64 * 8.0 / pixels.max(1) as f64,
                min_psnr_db: frames
                    .iter()
                    .zip(&decoded)
                    .map(|(a, b)| psnr(a, b))
                    .fold(f64::INFINITY, f64::min),
            }
        })
        .to_vec()
}

/// 10 same-speaker and 10 different-speaker pairs of 2 s synthetic speech
/// at 8 kHz, judged at λ ∈ {0.5, 1, 2, 4}.
fn bic_rows() -> Vec<BicRow> {
    const SR: u32 = 8000;
    let extractor = MfccExtractor::paper_default(SR);
    let clip = |speaker: u32, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let wave = synth_speech(&voice_for_speaker(speaker), 16000, 0, SR, &mut rng);
        voiced_frames(&extractor.extract(&wave))
    };
    let pairs: Vec<_> = (0..10u64)
        .flat_map(|i| {
            let speaker = 1 + (i % 5) as u32;
            let a = clip(speaker, i);
            [
                (a.clone(), clip(speaker, 100 + i), false),
                (a, clip(speaker + 5, 200 + i), true),
            ]
        })
        .collect();
    [0.5, 1.0, 2.0, 4.0]
        .map(|lambda| {
            let config = BicConfig { lambda };
            let correct = pairs
                .iter()
                .filter(|(a, b, change)| {
                    let outcome = bic_speaker_change(a, b, &config)
                        .expect("2 s speech clips carry enough voiced frames");
                    outcome.speaker_change == *change
                })
                .count();
            BicRow {
                lambda,
                correct,
                pairs: pairs.len(),
            }
        })
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{evaluation_corpus, EvalScale};

    #[test]
    fn ablations_run_on_the_tiny_corpus() {
        let corpus = evaluation_corpus(EvalScale::Tiny);
        let a = run_ablations(&corpus);
        assert_eq!((a.thresholds.len(), a.features.len()), (5, 3));
        for row in a.thresholds.iter().chain(&a.features) {
            let unit = 0.0..=1.0;
            assert!(
                unit.contains(&row.precision) && unit.contains(&row.crf),
                "{row:?}"
            );
            assert_eq!(row.per_video_precision.len(), corpus.len());
        }
        assert_eq!(a.clustering.len(), corpus.len());
        for row in &a.clustering {
            assert!(row.pcs_repeatable, "PCS is seedless: {row:?}");
        }
        let (q25, q75) = (&a.codec[0], &a.codec[1]);
        assert!(q75.bytes > q25.bytes, "{q25:?} vs {q75:?}");
        assert!(q75.min_psnr_db > q25.min_psnr_db, "{q25:?} vs {q75:?}");
        assert_eq!(a.bic.len(), 4);
        for row in &a.bic {
            assert!(row.pairs == 20 && row.correct <= 20, "{row:?}");
        }
    }
}
