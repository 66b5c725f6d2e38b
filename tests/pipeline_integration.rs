//! End-to-end pipeline integration: corpus -> codec -> mining -> events ->
//! database, all through the public API.

use medvid::codec::{decode_video, encode_video, EncoderConfig};
use medvid::synth::{standard_corpus, CorpusScale};
use medvid::types::Video;
use medvid::{ClassMiner, ClassMinerConfig};

fn miner(seed: u64) -> ClassMiner {
    ClassMiner::new(ClassMinerConfig::default(), seed).expect("synthetic training data")
}

#[test]
fn full_pipeline_on_tiny_corpus() {
    let corpus = standard_corpus(CorpusScale::Tiny, 100);
    let m = miner(100);
    let (db, mined) = m.index_corpus(&corpus);
    assert_eq!(mined.len(), corpus.len());
    assert!(!db.is_empty());
    for mv in &mined {
        assert_eq!(mv.structure.validate(), Ok(()));
        assert_eq!(mv.events.len(), mv.structure.scenes.len());
        assert!(mv.structure.shots.len() >= 10);
    }
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let corpus = standard_corpus(CorpusScale::Tiny, 101);
    let a = miner(101).mine(&corpus[0]);
    let b = miner(101).mine(&corpus[0]);
    assert_eq!(a.structure, b.structure);
    assert_eq!(a.events, b.events);
}

#[test]
fn mining_audio_with_non_finite_samples_does_not_panic() {
    // `AudioTrack::new` rejects NaN and infinite samples, but a track
    // deserialised from JSON bypasses it. Infinities of both signs also
    // breed NaN inside the clip features (inf - inf).
    let corpus = standard_corpus(CorpusScale::Tiny, 104);
    let mut video = corpus[0].clone();
    let samples: Vec<String> = video
        .audio
        .samples()
        .iter()
        .enumerate()
        .map(|(i, s)| match i % 997 {
            0 => "1e999".to_string(),
            1 => "-1e999".to_string(),
            _ => format!("{s:?}"),
        })
        .collect();
    let json = format!(
        r#"{{"sample_rate":{},"samples":[{}]}}"#,
        video.audio.sample_rate(),
        samples.join(",")
    );
    video.audio = serde_json::from_str(&json).expect("track deserialises");
    assert!(video.audio.samples().iter().any(|s| s.is_infinite()));
    let mined = miner(104).mine(&video);
    assert_eq!(mined.structure.validate(), Ok(()));
    assert_eq!(mined.events.len(), mined.structure.scenes.len());
}

#[test]
fn mining_survives_codec_round_trip() {
    // The paper's pipeline ingests compressed video; mining the decoded
    // frames must find (nearly) the same shot structure.
    let corpus = standard_corpus(CorpusScale::Tiny, 102);
    let video = &corpus[0];
    let bits = encode_video(&video.frames, &EncoderConfig::default()).unwrap();
    let decoded = Video {
        frames: decode_video(&bits).unwrap(),
        ..video.clone()
    };
    let m = miner(102);
    let original = m.mine(video);
    let roundtrip = m.mine(&decoded);
    let orig_shots = original.structure.shots.len() as f64;
    let rt_shots = roundtrip.structure.shots.len() as f64;
    assert!(
        (orig_shots - rt_shots).abs() / orig_shots < 0.15,
        "shot counts diverge: {orig_shots} vs {rt_shots}"
    );
}

#[test]
fn mined_structure_tracks_ground_truth_shot_count() {
    let corpus = standard_corpus(CorpusScale::Tiny, 103);
    let m = miner(103);
    for video in &corpus {
        let truth = video.truth.as_ref().unwrap();
        let mined = m.mine(video);
        let detected = mined.structure.shots.len() as f64;
        let actual = truth.shot_count() as f64;
        assert!(
            (detected - actual).abs() / actual < 0.15,
            "'{}': detected {detected} vs true {actual}",
            video.title
        );
    }
}
