//! Per-shot audio analysis: representative clips, speech flags and the
//! speaker-change test the event rules consume.

use crate::bic::{bic_speaker_change, BicConfig, BicOutcome};
use crate::classifier::SpeechClassifier;
use crate::clips::shot_clips;
use medvid_obs::{counters, Recorder, Stage};
use medvid_signal::mel::MfccExtractor;
use medvid_types::{AudioClip, Shot, Video};

/// The audio summary of one shot.
#[derive(Debug, Clone)]
pub struct ShotAudio {
    /// The representative (most speech-like) clip, if the shot was long
    /// enough to carry one.
    pub representative_clip: Option<AudioClip>,
    /// Whether the representative clip classifies as clean speech.
    pub is_speech: bool,
    /// MFCC sequence of the representative clip.
    pub mfcc: Vec<Vec<f64>>,
}

impl ShotAudio {
    /// An empty summary for shots without usable audio.
    pub fn silent() -> Self {
        Self {
            representative_clip: None,
            is_speech: false,
            mfcc: Vec::new(),
        }
    }
}

/// The audio mining front-end: a trained speech classifier plus the MFCC
/// extractor and BIC configuration.
#[derive(Debug, Clone)]
pub struct AudioMiner {
    classifier: SpeechClassifier,
    mfcc: MfccExtractor,
    bic: BicConfig,
}

impl AudioMiner {
    /// Builds a miner around a trained classifier.
    pub fn new(classifier: SpeechClassifier, bic: BicConfig) -> Self {
        let mfcc = MfccExtractor::paper_default(classifier.sample_rate());
        Self {
            classifier,
            mfcc,
            bic,
        }
    }

    /// Analyses every shot of a video: cuts clips, selects the most
    /// speech-like clip per shot, classifies it and extracts its MFCCs.
    pub fn analyze_shots(&self, video: &Video, shots: &[Shot]) -> Vec<ShotAudio> {
        self.analyze_shots_observed(video, shots, &Recorder::disabled())
    }

    /// Like [`Self::analyze_shots`], timing the pass under the `audio_bic`
    /// stage and counting speech vs non-speech representative clips (plus
    /// shots too short to carry one) through `rec`.
    ///
    /// Shots are analysed in parallel (each shot's clip scoring and MFCC
    /// extraction is independent); results keep shot order and the counters
    /// are tallied from the ordered results, so output and telemetry are
    /// identical at any thread count.
    pub fn analyze_shots_observed(
        &self,
        video: &Video,
        shots: &[Shot],
        rec: &Recorder,
    ) -> Vec<ShotAudio> {
        let _span = rec.span(Stage::AudioBic);
        let analyses: Vec<ShotAudio> = medvid_par::par_map_indexed(shots.len(), |i| {
            let shot = &shots[i];
            let (s0, s1) = video.frame_range_to_samples(shot.start_frame, shot.end_frame);
            let clips = shot_clips(&video.audio, s0, s1);
            // Representative clip: highest speech score (paper: "select
            // the clip most like the speech clip").
            let best = clips
                .iter()
                .filter_map(|&c| {
                    self.classifier
                        .speech_score(video.audio.clip_samples(c))
                        .map(|score| (c, score))
                })
                .max_by(|a, b| a.1.total_cmp(&b.1));
            match best {
                Some((clip, score)) => {
                    let samples = video.audio.clip_samples(clip);
                    ShotAudio {
                        representative_clip: Some(clip),
                        is_speech: score > 0.0,
                        mfcc: crate::bic::voiced_frames(&self.mfcc.extract(samples)),
                    }
                }
                None => ShotAudio::silent(),
            }
        });
        let silent = analyses
            .iter()
            .filter(|a| a.representative_clip.is_none())
            .count() as u64;
        let speech = analyses.iter().filter(|a| a.is_speech).count() as u64;
        let nonspeech = analyses.len() as u64 - silent - speech;
        rec.incr(counters::SPEECH_CLIPS, speech);
        rec.incr(counters::NONSPEECH_CLIPS, nonspeech);
        rec.incr(counters::SILENT_SHOTS, silent);
        analyses
    }

    /// BIC speaker-change test between two shots' audio summaries.
    ///
    /// Per the paper's rules, a change can only hold between two shots that
    /// both carry speech; anything else returns `None` ("no change
    /// observable").
    pub fn speaker_change(&self, a: &ShotAudio, b: &ShotAudio) -> Option<BicOutcome> {
        if !a.is_speech || !b.is_speech {
            return None;
        }
        bic_speaker_change(&a.mfcc, &b.mfcc, &self.bic).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvid_synth::generate::speech_training_clips;
    use medvid_synth::palette::{LocationId, PersonId};
    use medvid_synth::script::{SceneScript, ShotContent, ShotScript, VideoSpec};
    use medvid_types::{EventKind, VideoId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SR: u32 = 8000;

    fn miner(seed: u64) -> AudioMiner {
        let mut rng = StdRng::seed_from_u64(seed);
        let (sp, ns) = speech_training_clips(SR, 2.0, 24, &mut rng);
        let clf = SpeechClassifier::train(&sp, &ns, SR, 2, &mut rng).unwrap();
        AudioMiner::new(clf, BicConfig::default())
    }

    /// A dialog video: shots alternate speakers 1 and 2; a final silent shot.
    fn dialog_video() -> Video {
        let shots = vec![
            ShotScript {
                content: ShotContent::FaceCloseUp {
                    person: PersonId(1),
                    location: LocationId(0),
                },
                frames: 30,
                speaker: Some(PersonId(1)),
            },
            ShotScript {
                content: ShotContent::FaceCloseUp {
                    person: PersonId(2),
                    location: LocationId(0),
                },
                frames: 30,
                speaker: Some(PersonId(2)),
            },
            ShotScript {
                content: ShotContent::Equipment {
                    location: LocationId(1),
                },
                frames: 30,
                speaker: None,
            },
        ];
        let spec = VideoSpec {
            title: "dialog".into(),
            width: 40,
            height: 30,
            fps: 10.0,
            sample_rate: SR,
            locations: 2,
            persons: 3,
            scenes: vec![SceneScript {
                topic: "d".into(),
                event: Some(EventKind::Dialog),
                shots,
            }],
        };
        medvid_synth::generate_video(VideoId(0), &spec, 77)
    }

    fn true_shots(video: &Video) -> Vec<Shot> {
        let cuts = video.truth.as_ref().unwrap().shot_cuts.clone();
        medvid_structure::shot::build_shots(&video.frames, &cuts)
    }

    #[test]
    fn speech_shots_classified_and_silent_shot_not() {
        let video = dialog_video();
        let shots = true_shots(&video);
        let analysis = miner(1).analyze_shots(&video, &shots);
        assert_eq!(analysis.len(), 3);
        assert!(analysis[0].is_speech, "shot 0 speaks");
        assert!(analysis[1].is_speech, "shot 1 speaks");
        assert!(!analysis[2].is_speech, "shot 2 is ambient");
        assert!(analysis[0].representative_clip.is_some());
        assert!(!analysis[0].mfcc.is_empty());
    }

    #[test]
    fn speaker_change_detected_between_different_speakers() {
        let video = dialog_video();
        let shots = true_shots(&video);
        let m = miner(2);
        let analysis = m.analyze_shots(&video, &shots);
        let change = m.speaker_change(&analysis[0], &analysis[1]).unwrap();
        assert!(change.speaker_change, "dBIC {}", change.delta_bic);
    }

    #[test]
    fn no_change_against_silent_shot() {
        let video = dialog_video();
        let shots = true_shots(&video);
        let m = miner(3);
        let analysis = m.analyze_shots(&video, &shots);
        assert!(m.speaker_change(&analysis[0], &analysis[2]).is_none());
    }
}
