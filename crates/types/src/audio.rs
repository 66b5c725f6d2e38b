//! PCM audio containers.
//!
//! The paper's audio pipeline (Sec. 4.2) operates on the video's mono audio
//! track: it cuts each shot's audio into ~2-second clips, extracts clip-level
//! features, and compares speaker models across shots. [`AudioTrack`] is the
//! whole-video track; [`AudioClip`] is a half-open sample range into it.

use crate::error::TypeError;
use serde::{Deserialize, Serialize};

/// A mono PCM audio track with `f32` samples in `-1.0..=1.0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AudioTrack {
    sample_rate: u32,
    samples: Vec<f32>,
}

impl AudioTrack {
    /// Creates a track from raw samples.
    ///
    /// # Errors
    /// Returns [`TypeError::ZeroSampleRate`] if `sample_rate == 0`, or
    /// [`TypeError::NonFiniteSample`] if any sample is NaN or infinite.
    pub fn new(sample_rate: u32, samples: Vec<f32>) -> Result<Self, TypeError> {
        if sample_rate == 0 {
            return Err(TypeError::ZeroSampleRate);
        }
        check_finite(&samples)?;
        Ok(Self {
            sample_rate,
            samples,
        })
    }

    /// Creates an empty track at the given rate.
    ///
    /// # Panics
    /// Panics if `sample_rate == 0`.
    pub fn empty(sample_rate: u32) -> Self {
        Self::new(sample_rate, Vec::new()).expect("non-zero sample rate")
    }

    /// Samples per second.
    #[inline]
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// All samples.
    #[inline]
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the track has no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Track duration in seconds.
    #[inline]
    pub fn duration_secs(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate as f64
    }

    /// Appends samples to the track.
    ///
    /// # Errors
    /// Returns [`TypeError::NonFiniteSample`] (and leaves the track as it
    /// was) if any sample is NaN or infinite.
    pub fn extend(&mut self, samples: &[f32]) -> Result<(), TypeError> {
        check_finite(samples)?;
        self.samples.extend_from_slice(samples);
        Ok(())
    }

    /// Returns the samples of a clip, clamped to the track bounds.
    pub fn clip_samples(&self, clip: AudioClip) -> &[f32] {
        let start = clip.start.min(self.samples.len());
        let end = clip.end.min(self.samples.len());
        &self.samples[start..end]
    }

    /// Converts a time in seconds to a sample index (saturating).
    #[inline]
    pub fn sample_at(&self, secs: f64) -> usize {
        (secs * self.sample_rate as f64).round().max(0.0) as usize
    }
}

fn check_finite(samples: &[f32]) -> Result<(), TypeError> {
    match samples.iter().position(|s| !s.is_finite()) {
        Some(index) => Err(TypeError::NonFiniteSample { index }),
        None => Ok(()),
    }
}

/// A half-open `[start, end)` sample range into an [`AudioTrack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AudioClip {
    /// First sample (inclusive).
    pub start: usize,
    /// One past the last sample.
    pub end: usize,
}

impl AudioClip {
    /// Creates a clip.
    ///
    /// # Errors
    /// Returns [`TypeError::EmptyRange`] if `start >= end`.
    pub fn new(start: usize, end: usize) -> Result<Self, TypeError> {
        if start >= end {
            return Err(TypeError::EmptyRange {
                what: "audio clip",
                start,
                end,
            });
        }
        Ok(Self { start, end })
    }

    /// Number of samples covered.
    #[inline]
    pub fn len(self) -> usize {
        self.end - self.start
    }

    /// Clips are non-empty by construction; always `false`.
    #[inline]
    pub fn is_empty(self) -> bool {
        false
    }

    /// Duration in seconds at the given sample rate.
    #[inline]
    pub fn duration_secs(self, sample_rate: u32) -> f64 {
        self.len() as f64 / sample_rate as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_duration_follows_rate() {
        let t = AudioTrack::new(8000, vec![0.0; 16000]).unwrap();
        assert_eq!(t.duration_secs(), 2.0);
        assert_eq!(t.len(), 16000);
        assert!(!t.is_empty());
    }

    #[test]
    fn zero_rate_rejected() {
        assert!(matches!(
            AudioTrack::new(0, vec![]),
            Err(TypeError::ZeroSampleRate)
        ));
    }

    #[test]
    fn clip_rejects_empty_range() {
        assert!(AudioClip::new(5, 5).is_err());
        assert!(AudioClip::new(6, 5).is_err());
        let c = AudioClip::new(5, 9).unwrap();
        assert_eq!(c.len(), 4);
        assert!((c.duration_secs(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_samples_clamps_to_track() {
        let t = AudioTrack::new(100, (0..10).map(|i| i as f32).collect()).unwrap();
        let c = AudioClip::new(8, 20).unwrap();
        assert_eq!(t.clip_samples(c), &[8.0, 9.0]);
        let c2 = AudioClip::new(50, 60).unwrap();
        assert!(t.clip_samples(c2).is_empty());
    }

    #[test]
    fn sample_at_converts_seconds() {
        let t = AudioTrack::empty(8000);
        assert_eq!(t.sample_at(1.0), 8000);
        assert_eq!(t.sample_at(0.5), 4000);
        assert_eq!(t.sample_at(-1.0), 0);
    }

    #[test]
    fn extend_appends() {
        let mut t = AudioTrack::empty(8000);
        t.extend(&[0.1, 0.2]).unwrap();
        t.extend(&[0.3]).unwrap();
        assert_eq!(t.samples(), &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn non_finite_samples_rejected() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(
                AudioTrack::new(8000, vec![0.0, 0.5, bad, 0.1]),
                Err(TypeError::NonFiniteSample { index: 2 })
            );
            let mut t = AudioTrack::new(8000, vec![0.25]).unwrap();
            assert_eq!(
                t.extend(&[bad, 0.0]),
                Err(TypeError::NonFiniteSample { index: 0 })
            );
            assert_eq!(t.samples(), &[0.25], "a rejected extend appends nothing");
        }
    }
}
