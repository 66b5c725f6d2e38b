//! The 14 clip-level audio features (paper Sec. 4.2, after Liu & Huang \[22\]).
//!
//! Each ~2-second clip is framed at 30 ms / 10 ms hop; frame-level
//! measurements are aggregated into exactly [`CLIP_FEATURE_DIMS`] = 14
//! clip-level features chosen to separate clean speech from music, noise and
//! silence:
//!
//!  0. mean frame RMS energy
//!  1. std of frame RMS (speech is strongly amplitude-modulated)
//!  2. silence-frame ratio (speech has inter-word pauses)
//!  3. mean zero-crossing rate
//!  4. std of zero-crossing rate
//!  5. mean spectral centroid (normalised to Nyquist)
//!  6. std of spectral centroid
//!  7. mean spectral roll-off (85%)
//!  8. mean spectral flux
//!  9. sub-band energy ratio 0–500 Hz
//! 10. sub-band energy ratio 500–1000 Hz
//! 11. sub-band energy ratio 1–2 kHz
//! 12. sub-band energy ratio 2–4 kHz
//! 13. pitch strength (autocorrelation peak in the 80–320 Hz lag range)

use medvid_signal::fft::{next_pow2, Complex, FftPlan};
use medvid_signal::stats::{mean, rms, std_dev, zero_crossing_rate};
use medvid_signal::window::{apply_window_into, frames, hamming};

/// Number of clip-level features.
pub const CLIP_FEATURE_DIMS: usize = 14;

/// A reusable clip-feature extractor: the Hamming analysis window and the
/// [`FftPlan`] are built once and amortised across every clip (previously
/// both were rebuilt per [`clip_features`] call), and the per-frame window /
/// spectrum buffers are reused across frames.
///
/// The extractor is immutable and `Sync`, so shots can be featurised in
/// parallel against one shared instance. Output is numerically identical to
/// the historical free-function path (the plan's FFT is bit-identical to the
/// one it replaces).
#[derive(Debug, Clone)]
pub struct ClipFeatureExtractor {
    sample_rate: u32,
    frame_len: usize,
    hop: usize,
    window: Vec<f64>,
    plan: FftPlan,
}

impl ClipFeatureExtractor {
    /// Builds an extractor with the paper's framing (30 ms window, 10 ms hop)
    /// at `sample_rate`.
    pub fn new(sample_rate: u32) -> Self {
        let frame_len = (0.030 * sample_rate as f64).round() as usize;
        let hop = (0.010 * sample_rate as f64).round() as usize;
        Self {
            sample_rate,
            frame_len,
            hop,
            window: hamming(frame_len),
            plan: FftPlan::new(next_pow2(frame_len)),
        }
    }

    /// The sample rate the extractor frames at.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Extracts the 14 clip features from a waveform.
    ///
    /// Returns `None` for clips shorter than one analysis frame.
    pub fn extract(&self, signal: &[f32]) -> Option<Vec<f64>> {
        let (frame_len, hop) = (self.frame_len, self.hop);
        if signal.len() < frame_len || frame_len == 0 || hop == 0 {
            return None;
        }
        let nyquist = self.sample_rate as f64 / 2.0;

        let mut energies = Vec::new();
        let mut zcrs = Vec::new();
        let mut centroids = Vec::new();
        let mut rolloffs = Vec::new();
        let mut fluxes = Vec::new();
        let mut band_energy = [0.0f64; 4];
        let mut total_energy = 0.0f64;
        // Reused across frames: the windowed frame, FFT scratch, and the
        // current / previous power spectra (swapped, never reallocated).
        let mut windowed = Vec::with_capacity(frame_len);
        let mut scratch: Vec<Complex> = Vec::new();
        let mut power: Vec<f64> = Vec::new();
        let mut prev: Vec<f64> = Vec::new();
        let mut has_prev = false;

        for frame in frames(signal, frame_len, hop) {
            energies.push(rms(frame));
            zcrs.push(zero_crossing_rate(frame));
            apply_window_into(frame, &self.window, &mut windowed);
            self.plan
                .power_spectrum_into(&windowed, &mut scratch, &mut power);
            let bins = power.len();
            let bin_hz = nyquist / (bins - 1).max(1) as f64;
            let total: f64 = power.iter().sum();
            if total > 1e-12 {
                // Centroid.
                let centroid: f64 = power
                    .iter()
                    .enumerate()
                    .map(|(k, &p)| k as f64 * bin_hz * p)
                    .sum::<f64>()
                    / total;
                centroids.push(centroid / nyquist);
                // Roll-off at 85%.
                let mut acc = 0.0;
                let mut roll = 0usize;
                for (k, &p) in power.iter().enumerate() {
                    acc += p;
                    if acc >= 0.85 * total {
                        roll = k;
                        break;
                    }
                }
                rolloffs.push(roll as f64 * bin_hz / nyquist);
            } else {
                centroids.push(0.0);
                rolloffs.push(0.0);
            }
            // Flux.
            if has_prev {
                let flux: f64 = power
                    .iter()
                    .zip(prev.iter())
                    .map(|(&a, &b)| (a.sqrt() - b.sqrt()).abs())
                    .sum::<f64>()
                    / bins as f64;
                fluxes.push(flux);
            }
            // Sub-bands: 0-500, 500-1000, 1000-2000, 2000-4000 Hz.
            for (k, &p) in power.iter().enumerate() {
                let hz = k as f64 * bin_hz;
                let band = if hz < 500.0 {
                    0
                } else if hz < 1000.0 {
                    1
                } else if hz < 2000.0 {
                    2
                } else {
                    3
                };
                band_energy[band] += p;
                total_energy += p;
            }
            std::mem::swap(&mut prev, &mut power);
            has_prev = true;
        }

        let peak = energies.iter().copied().fold(0.0f64, f64::max);
        let silence_thresh = (peak * 0.1).max(1e-4);
        let silence_ratio =
            energies.iter().filter(|&&e| e < silence_thresh).count() as f64 / energies.len() as f64;

        let mut out = Vec::with_capacity(CLIP_FEATURE_DIMS);
        out.push(mean(&energies));
        out.push(std_dev(&energies));
        out.push(silence_ratio);
        out.push(mean(&zcrs));
        out.push(std_dev(&zcrs));
        out.push(mean(&centroids));
        out.push(std_dev(&centroids));
        out.push(mean(&rolloffs));
        out.push(mean(&fluxes));
        for band in band_energy {
            out.push(if total_energy > 1e-12 {
                band / total_energy
            } else {
                0.0
            });
        }
        out.push(pitch_strength(signal, self.sample_rate));
        debug_assert_eq!(out.len(), CLIP_FEATURE_DIMS);
        Some(out)
    }
}

/// Extracts the 14 clip features from a waveform at `sample_rate`.
///
/// One-shot convenience over [`ClipFeatureExtractor`]; batch callers should
/// build the extractor once and reuse it across clips.
///
/// Returns `None` for clips shorter than one analysis frame.
pub fn clip_features(signal: &[f32], sample_rate: u32) -> Option<Vec<f64>> {
    ClipFeatureExtractor::new(sample_rate).extract(signal)
}

/// Pitch strength: the median, over the clip's highest-energy analysis
/// frames, of the normalised autocorrelation peak in the 80–320 Hz
/// fundamental range. High for voiced speech; low for noise (even coloured
/// noise, whose correlation decays monotonically rather than peaking at a
/// period).
pub fn pitch_strength(signal: &[f32], sample_rate: u32) -> f64 {
    let sr = sample_rate as f64;
    let min_lag = (sr / 320.0) as usize;
    let max_lag = (sr / 80.0) as usize;
    let frame_len = max_lag * 3; // three fundamental periods at the low end
    if signal.len() < frame_len || min_lag == 0 {
        return 0.0;
    }
    // Rank frames by energy; analyse the top third (the voiced parts).
    let hop = frame_len / 2;
    let mut frames_by_energy: Vec<(f64, usize)> = (0..)
        .map(|i| i * hop)
        .take_while(|&s| s + frame_len <= signal.len())
        .map(|s| {
            let e: f64 = signal[s..s + frame_len]
                .iter()
                .map(|&x| (x as f64) * (x as f64))
                .sum();
            (e, s)
        })
        .collect();
    if frames_by_energy.is_empty() {
        return 0.0;
    }
    // `total_cmp`, not `partial_cmp`: a track deserialised without
    // `AudioTrack::new`'s check can still carry NaN samples.
    frames_by_energy.sort_by(|a, b| b.0.total_cmp(&a.0));
    let take = (frames_by_energy.len() / 3).max(1);
    let mut peaks: Vec<f64> = Vec::with_capacity(take);
    // Reused across frames: the mean-removed frame and its running energy.
    let mut seg: Vec<f64> = Vec::with_capacity(frame_len);
    let mut energy_prefix: Vec<f64> = Vec::with_capacity(frame_len + 1);
    for &(energy, start) in frames_by_energy.iter().take(take) {
        if energy < 1e-9 {
            peaks.push(0.0);
            continue;
        }
        seg.clear();
        seg.extend(signal[start..start + frame_len].iter().map(|&s| s as f64));
        let mean = seg.iter().sum::<f64>() / seg.len() as f64;
        for s in seg.iter_mut() {
            *s -= mean;
        }
        let n = seg.len();
        // Each sum below adds the same terms in the same order as a
        // per-lag `.sum()` would, starting from `.sum()`'s -0.0, so the
        // result is bit-identical to summing afresh for every lag. The
        // leading-window energy `ea(lag)` is a prefix of one running sum.
        energy_prefix.clear();
        energy_prefix.push(-0.0);
        let mut acc = -0.0;
        for x in &seg {
            acc += x * x;
            energy_prefix.push(acc);
        }
        let mut best = 0.0f64;
        for lag in min_lag..=max_lag.min(n - 1) {
            let (a, b) = (&seg[..n - lag], &seg[lag..]);
            // The trailing-window energy is a suffix, so it is summed
            // afresh, fused with the correlation into one pass.
            let (mut corr, mut eb) = (-0.0, -0.0);
            for (x, y) in a.iter().zip(b) {
                corr += x * y;
                eb += y * y;
            }
            let ea = energy_prefix[n - lag];
            let denom = (ea * eb).sqrt();
            if denom > 1e-12 {
                best = best.max(corr / denom);
            }
        }
        peaks.push(best);
    }
    peaks.sort_by(f64::total_cmp);
    peaks[peaks.len() / 2].clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvid_synth::voice::{synth_ambient, synth_music, synth_speech, voice_for_speaker};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SR: u32 = 8000;

    fn two_secs_speech(seed: u64, speaker: u32) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        synth_speech(&voice_for_speaker(speaker), 16000, 0, SR, &mut rng)
    }

    #[test]
    fn features_have_14_dims() {
        let f = clip_features(&two_secs_speech(1, 1), SR).unwrap();
        assert_eq!(f.len(), CLIP_FEATURE_DIMS);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn too_short_clip_is_none() {
        assert!(clip_features(&[0.0; 100], SR).is_none());
        assert!(clip_features(&[], SR).is_none());
    }

    #[test]
    fn speech_has_higher_pitch_strength_than_noise() {
        let mut rng = StdRng::seed_from_u64(2);
        let speech = two_secs_speech(2, 1);
        let noise = synth_ambient(16000, 0, SR, &mut rng);
        let ps_speech = pitch_strength(&speech, SR);
        let ps_noise = pitch_strength(&noise, SR);
        assert!(
            ps_speech > ps_noise + 0.2,
            "speech {ps_speech} vs noise {ps_noise}"
        );
    }

    #[test]
    fn speech_has_higher_energy_modulation_than_music() {
        let mut rng = StdRng::seed_from_u64(3);
        let speech = clip_features(&two_secs_speech(3, 2), SR).unwrap();
        let music = clip_features(&synth_music(16000, 0, SR, &mut rng), SR).unwrap();
        // Feature 1 is the std of frame RMS; feature 2 the silence ratio.
        assert!(
            speech[1] > music[1],
            "speech RMS std {} vs music {}",
            speech[1],
            music[1]
        );
        assert!(
            speech[2] > music[2],
            "speech silence {} vs music {}",
            speech[2],
            music[2]
        );
    }

    #[test]
    fn silence_clip_features_are_degenerate() {
        let f = clip_features(&vec![0.0f32; 16000], SR).unwrap();
        assert!(f[0] < 1e-9, "zero energy");
        assert_eq!(f[13], 0.0, "no pitch");
    }

    #[test]
    fn extractor_reuse_matches_one_shot_path() {
        let ex = ClipFeatureExtractor::new(SR);
        // Reuse the same extractor (and its internal buffers) across clips:
        // each result must equal the stateless free-function output exactly.
        for seed in [7u64, 8, 9] {
            let clip = two_secs_speech(seed, seed as u32);
            assert_eq!(ex.extract(&clip), clip_features(&clip, SR), "seed {seed}");
        }
        assert!(ex.extract(&[0.0; 100]).is_none());
    }

    /// `pitch_strength` as first written: both window energies and the
    /// correlation summed afresh for every lag.
    fn pitch_strength_per_lag(signal: &[f32], sample_rate: u32) -> f64 {
        let sr = sample_rate as f64;
        let min_lag = (sr / 320.0) as usize;
        let max_lag = (sr / 80.0) as usize;
        let frame_len = max_lag * 3;
        if signal.len() < frame_len || min_lag == 0 {
            return 0.0;
        }
        let hop = frame_len / 2;
        let mut frames_by_energy: Vec<(f64, usize)> = (0..)
            .map(|i| i * hop)
            .take_while(|&s| s + frame_len <= signal.len())
            .map(|s| {
                let e: f64 = signal[s..s + frame_len]
                    .iter()
                    .map(|&x| (x as f64) * (x as f64))
                    .sum();
                (e, s)
            })
            .collect();
        frames_by_energy.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite energy"));
        let take = (frames_by_energy.len() / 3).max(1);
        let mut peaks = Vec::new();
        for &(energy, start) in frames_by_energy.iter().take(take) {
            if energy < 1e-9 {
                peaks.push(0.0);
                continue;
            }
            let seg: Vec<f64> = signal[start..start + frame_len]
                .iter()
                .map(|&s| s as f64)
                .collect();
            let mean = seg.iter().sum::<f64>() / seg.len() as f64;
            let seg: Vec<f64> = seg.iter().map(|s| s - mean).collect();
            let mut best = 0.0f64;
            for lag in min_lag..=max_lag.min(seg.len() - 1) {
                let (a, b) = (&seg[..seg.len() - lag], &seg[lag..]);
                let corr: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
                let ea: f64 = a.iter().map(|x| x * x).sum();
                let eb: f64 = b.iter().map(|x| x * x).sum();
                let denom = (ea * eb).sqrt();
                if denom > 1e-12 {
                    best = best.max(corr / denom);
                }
            }
            peaks.push(best);
        }
        peaks.sort_by(|a, b| a.partial_cmp(b).expect("finite peak"));
        peaks[peaks.len() / 2].clamp(0.0, 1.0)
    }

    #[test]
    fn pitch_strength_matches_per_lag_sums_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut clips = vec![vec![0.0f32; 16000], vec![0.0f32; 299], vec![1e-6f32; 900]];
        for seed in 0..4 {
            clips.push(two_secs_speech(seed, seed as u32 + 1));
            clips.push(synth_music(16000, 0, SR, &mut rng));
            clips.push(synth_ambient(16000, 0, SR, &mut rng));
            // A clip that is half silence, half speech.
            let mut half = vec![0.0f32; 8000];
            half.extend_from_slice(&two_secs_speech(seed + 10, 3)[..8000]);
            clips.push(half);
        }
        for (i, clip) in clips.iter().enumerate() {
            for sr in [SR, 16000] {
                let got = pitch_strength(clip, sr);
                let want = pitch_strength_per_lag(clip, sr);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "clip {i} at {sr} Hz: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn non_finite_samples_do_not_panic_feature_extraction() {
        let mut clip = two_secs_speech(5, 1);
        for (i, s) in clip.iter_mut().enumerate() {
            if i % 997 == 0 {
                *s = if i % 2 == 0 { f32::NAN } else { f32::INFINITY };
            }
        }
        let _ = pitch_strength(&clip, SR);
        assert_eq!(
            clip_features(&clip, SR).map(|f| f.len()),
            Some(CLIP_FEATURE_DIMS)
        );
    }

    #[test]
    fn subband_ratios_sum_to_one_for_nonsilent() {
        let f = clip_features(&two_secs_speech(4, 3), SR).unwrap();
        let sum: f64 = f[9..13].iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "band ratios sum {sum}");
    }
}
