//! Video assembly: renders a [`VideoSpec`] into a [`Video`] with ground truth.

use crate::palette::{location_style, person_style, Location, Person};
use crate::render::ShotRenderer;
use crate::script::{ShotContent, VideoSpec};
use crate::voice::{synth_ambient, synth_speech, voice_for_speaker};
use medvid_types::{
    AudioTrack, GroundTruth, Image, SemanticUnit, SpeakerSegment, SpecialFrameKind, SpecialSpan,
    Video, VideoId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a video from its spec, deterministically for a given seed.
///
/// The returned [`Video`] carries complete [`GroundTruth`].
pub fn generate_video(id: VideoId, spec: &VideoSpec, seed: u64) -> Video {
    let mut rng = StdRng::seed_from_u64(seed ^ (id.index() as u64).wrapping_mul(0x9E37_79B9));
    let locations: Vec<Location> = (0..spec.locations.max(1))
        .map(|_| location_style(&mut rng))
        .collect();
    let persons: Vec<Person> = (0..spec.persons.max(1))
        .map(|_| person_style(&mut rng))
        .collect();

    let mut frames: Vec<Image> = Vec::with_capacity(spec.frame_count());
    let mut audio = AudioTrack::empty(spec.sample_rate);
    let mut truth = GroundTruth::default();

    for scene in &spec.scenes {
        let scene_start = frames.len();
        for shot in &scene.shots {
            let shot_start = frames.len();
            if shot_start > 0 {
                truth.shot_cuts.push(shot_start);
            }
            // Render frames.
            let mut renderer = ShotRenderer::new(spec.width, spec.height, &mut rng);
            for _ in 0..shot.frames {
                frames.push(renderer.render(shot.content, &locations, &persons, &mut rng));
            }
            let shot_end = frames.len();
            // Audio for the shot's time span, boundary-aligned to avoid
            // cumulative rounding drift.
            let s0 = sample_of(shot_start, spec);
            let s1 = sample_of(shot_end, spec);
            let n = s1 - s0;
            let samples = match shot.speaker {
                Some(p) => {
                    truth.speakers.push(SpeakerSegment {
                        start_sample: s0,
                        end_sample: s1,
                        speaker: p.0,
                    });
                    let voice = voice_for_speaker(p.0);
                    synth_speech(&voice, n, s0, spec.sample_rate, &mut rng)
                }
                None => synth_ambient(n, s0, spec.sample_rate, &mut rng),
            };
            audio
                .extend(&samples)
                .expect("synthesised samples are finite");
            // Special-frame spans.
            for kind in content_kinds(shot.content) {
                truth.special_spans.push(SpecialSpan {
                    start_frame: shot_start,
                    end_frame: shot_end,
                    kind,
                });
            }
        }
        truth.semantic_units.push(SemanticUnit {
            start_frame: scene_start,
            end_frame: frames.len(),
            topic: scene.topic.clone(),
            event: scene.event,
        });
    }

    debug_assert!(truth.validate().is_ok());
    Video {
        id,
        title: spec.title.clone(),
        frames,
        audio,
        fps: spec.fps,
        truth: Some(truth),
    }
}

fn sample_of(frame: usize, spec: &VideoSpec) -> usize {
    ((frame as f64 / spec.fps) * spec.sample_rate as f64).round() as usize
}

/// Ground-truth annotation kinds implied by a shot's content.
fn content_kinds(content: ShotContent) -> Vec<SpecialFrameKind> {
    match content {
        ShotContent::Black => vec![SpecialFrameKind::Black],
        ShotContent::Slide => vec![SpecialFrameKind::Slide],
        ShotContent::ClipArt => vec![SpecialFrameKind::ClipArt],
        ShotContent::Sketch => vec![SpecialFrameKind::Sketch],
        ShotContent::FaceCloseUp { .. } => vec![
            SpecialFrameKind::FaceCloseUp,
            SpecialFrameKind::Face,
            SpecialFrameKind::Skin,
        ],
        ShotContent::PersonWide { .. } => {
            vec![SpecialFrameKind::Face, SpecialFrameKind::Skin]
        }
        ShotContent::SkinCloseUp { .. } => {
            vec![SpecialFrameKind::SkinCloseUp, SpecialFrameKind::Skin]
        }
        ShotContent::SurgicalField { .. } => vec![
            SpecialFrameKind::SkinCloseUp,
            SpecialFrameKind::Skin,
            SpecialFrameKind::BloodRed,
        ],
        ShotContent::OrganPicture => vec![SpecialFrameKind::BloodRed],
        ShotContent::Equipment { .. } => vec![],
    }
}

/// Convenience used by tests and examples: synthesises labelled clips for
/// training the speech/non-speech GMM classifier. Returns
/// `(speech_clips, nonspeech_clips)`, each clip `secs` long.
pub fn speech_training_clips<R: Rng + ?Sized>(
    sample_rate: u32,
    clip_secs: f64,
    per_class: usize,
    rng: &mut R,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let n = (clip_secs * sample_rate as f64) as usize;
    let speech = (0..per_class)
        .map(|i| {
            let voice = voice_for_speaker(1 + (i % 12) as u32);
            let t0 = rng.gen_range(0..sample_rate as usize * 30);
            synth_speech(&voice, n, t0, sample_rate, rng)
        })
        .collect();
    let nonspeech = (0..per_class)
        .map(|i| {
            let t0 = rng.gen_range(0..sample_rate as usize * 30);
            if i % 3 == 0 {
                crate::voice::synth_music(n, t0, sample_rate, rng)
            } else {
                synth_ambient(n, t0, sample_rate, rng)
            }
        })
        .collect();
    (speech, nonspeech)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::palette::{LocationId, PersonId};
    use crate::script::{SceneScript, ShotScript};
    use medvid_types::EventKind;

    fn tiny_spec() -> VideoSpec {
        VideoSpec {
            title: "tiny".into(),
            width: 40,
            height: 30,
            fps: 10.0,
            sample_rate: 8000,
            locations: 2,
            persons: 2,
            scenes: vec![
                SceneScript {
                    topic: "intro".into(),
                    event: Some(EventKind::Presentation),
                    shots: vec![
                        ShotScript {
                            content: ShotContent::FaceCloseUp {
                                person: PersonId(1),
                                location: LocationId(0),
                            },
                            frames: 12,
                            speaker: Some(PersonId(1)),
                        },
                        ShotScript {
                            content: ShotContent::Slide,
                            frames: 10,
                            speaker: Some(PersonId(1)),
                        },
                    ],
                },
                SceneScript {
                    topic: "exam".into(),
                    event: Some(EventKind::ClinicalOperation),
                    shots: vec![ShotScript {
                        content: ShotContent::SkinCloseUp {
                            location: LocationId(1),
                        },
                        frames: 15,
                        speaker: None,
                    }],
                },
            ],
        }
    }

    #[test]
    fn generates_expected_frame_count() {
        let v = generate_video(VideoId(0), &tiny_spec(), 42);
        assert_eq!(v.frame_count(), 37);
        assert_eq!(v.fps, 10.0);
    }

    #[test]
    fn audio_aligned_with_frames() {
        let v = generate_video(VideoId(0), &tiny_spec(), 42);
        let expected = ((37.0 / 10.0) * 8000.0f64).round() as usize;
        assert_eq!(v.audio.len(), expected);
    }

    #[test]
    fn ground_truth_records_cuts_and_units() {
        let v = generate_video(VideoId(0), &tiny_spec(), 42);
        let gt = v.truth.as_ref().unwrap();
        assert_eq!(gt.shot_cuts, vec![12, 22]);
        assert_eq!(gt.semantic_units.len(), 2);
        assert_eq!(gt.semantic_units[0].topic, "intro");
        assert_eq!(gt.semantic_units[1].event, Some(EventKind::ClinicalOperation));
        assert!(gt.validate().is_ok());
    }

    #[test]
    fn speaker_segments_cover_speech_shots() {
        let v = generate_video(VideoId(0), &tiny_spec(), 42);
        let gt = v.truth.as_ref().unwrap();
        assert_eq!(gt.speakers.len(), 2);
        assert!(gt.speakers.iter().all(|s| s.speaker == 1));
        // First segment starts at sample 0.
        assert_eq!(gt.speakers[0].start_sample, 0);
    }

    #[test]
    fn special_spans_cover_slides_and_skin() {
        let v = generate_video(VideoId(0), &tiny_spec(), 42);
        let gt = v.truth.as_ref().unwrap();
        assert!(gt
            .special_spans
            .iter()
            .any(|s| s.kind == SpecialFrameKind::Slide));
        assert!(gt
            .special_spans
            .iter()
            .any(|s| s.kind == SpecialFrameKind::SkinCloseUp));
        assert!(gt
            .special_spans
            .iter()
            .any(|s| s.kind == SpecialFrameKind::FaceCloseUp));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_video(VideoId(3), &tiny_spec(), 7);
        let b = generate_video(VideoId(3), &tiny_spec(), 7);
        assert_eq!(a.frames[0], b.frames[0]);
        assert_eq!(a.audio, b.audio);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_video(VideoId(3), &tiny_spec(), 7);
        let b = generate_video(VideoId(3), &tiny_spec(), 8);
        assert_ne!(a.frames[0], b.frames[0]);
    }

    #[test]
    fn training_clips_have_requested_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let (sp, ns) = speech_training_clips(8000, 0.5, 4, &mut rng);
        assert_eq!(sp.len(), 4);
        assert_eq!(ns.len(), 4);
        assert!(sp.iter().all(|c| c.len() == 4000));
    }
}
