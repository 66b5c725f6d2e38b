//! Audio cue mining (paper Sec. 4.2).
//!
//! The audio chain answers one question for the event miner: *do two shots
//! share a speaker?* It proceeds exactly as the paper does:
//!
//! 1. [`clips`] — each shot's audio is cut into ~2-second clips (shots
//!    shorter than 2 s are discarded);
//! 2. [`features`] — 14 clip-level features in the style of Liu & Huang
//!    (energy, zero-crossing, silence, spectral shape, sub-bands, pitch);
//! 3. [`classifier`] — a GMM classifier separates clean speech from
//!    non-clean-speech clips and picks each shot's most speech-like clip as
//!    its representative;
//! 4. [`bic`] — 14-dim MFCCs over 30 ms/10 ms frames of the representative
//!    clips feed the Bayesian Information Criterion hypothesis test
//!    (Eqs. 17–19) for speaker change between shots;
//! 5. [`pipeline`] — the per-shot [`pipeline::ShotAudio`] summary and the
//!    [`pipeline::AudioMiner`] front-end used by the event rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bic;
pub mod classifier;
pub mod clips;
pub mod features;
pub mod pipeline;

pub use classifier::SpeechClassifier;
pub use pipeline::{AudioMiner, ShotAudio};
