//! Property-based tests on the audio pipeline.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_audio::bic::voiced_frames;
use medvid_audio::clips::segment_clips;
use medvid_audio::features::{clip_features, CLIP_FEATURE_DIMS};
use medvid_testkit::{forall_with, require, Config};

/// The environment's configuration, never below this suite's 64 cases.
fn config() -> Config {
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.max(64);
    cfg
}

#[test]
fn clips_partition_their_span() {
    forall_with(
        &config(),
        "clips tile their span with 2-4 s clips",
        |rng| {
            let mut u = |lo, hi| rng.usize_in(lo, hi);
            (u(0, 99_999), u(0, 199_999), u(4_000, 47_999))
        },
        |&(start, len, sr)| {
            if sr < 4_000 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let clips = segment_clips(start, start + len, sr as u32);
            let clip_len = (2.0 * sr as f64) as usize;
            if len < clip_len {
                require!(clips.is_empty(), "clips in a span shorter than one");
                return Ok(());
            }
            let (first, last) = (clips.first().unwrap(), clips.last().unwrap());
            require!(first.start == start, "first clip starts late");
            require!(last.end == start + len, "last clip ends early");
            for w in clips.windows(2) {
                require!(w[0].end == w[1].start, "gap or overlap at {}", w[0].end);
            }
            for c in &clips {
                let n = c.len();
                require!(n >= clip_len && n < 2 * clip_len, "clip of {n} samples");
            }
            Ok(())
        },
    );
}

#[test]
fn clip_features_always_14_finite_dims() {
    forall_with(
        &config(),
        "clip features have 14 finite dimensions",
        |rng| {
            let n = rng.usize_in(240, 3_999);
            (0..n).map(|_| rng.f32_in(-1.0, 1.0)).collect::<Vec<_>>()
        },
        |samples| {
            if samples.len() < 240 {
                return Ok(()); // a shrunk candidate left the domain
            }
            if let Some(f) = clip_features(samples, 8000) {
                require!(f.len() == CLIP_FEATURE_DIMS, "{} dims", f.len());
                require!(f.iter().all(|v| v.is_finite()), "{f:?}");
            }
            Ok(())
        },
    );
}

#[test]
fn voiced_frames_is_subset_preserving_dims() {
    forall_with(
        &config(),
        "voiced_frames keeps a non-empty subset of 14-dim frames",
        |rng| {
            let n = rng.usize_in(0, 59);
            let mut frame = || (0..14).map(|_| rng.f64_in(-10.0, 10.0)).collect::<Vec<_>>();
            (0..n).map(|_| frame()).collect::<Vec<_>>()
        },
        |frames| {
            if frames.iter().any(|f| f.len() != 14) {
                return Ok(()); // a shrunk candidate left the domain
            }
            let kept = voiced_frames(frames);
            require!(kept.len() <= frames.len(), "kept more frames than given");
            for f in &kept {
                require!(f.len() == 14 && frames.contains(f), "new frame");
            }
            require!(frames.is_empty() || !kept.is_empty(), "kept none");
            Ok(())
        },
    );
}
