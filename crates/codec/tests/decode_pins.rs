//! Decoded-frame pins: the default-config encodings of the tiny corpus
//! decode to frames whose FNV-1a digest is fixed, at one thread and at
//! two. A change to the decoder that moves a single output byte, or that
//! makes the output depend on the thread count, fails here.

use medvid_codec::{decode_video, encode_video, EncoderConfig};
use medvid_par::with_threads;
use medvid_synth::{standard_corpus, CorpusScale};
use medvid_types::Image;

/// `(corpus seed, programme, FNV-1a of every decoded frame's raw RGB)`.
const PINS: [(u64, usize, u64); 4] = [
    (1, 0, 0xa4d9_98bf_d82a_4486),
    (1, 1, 0x231a_8826_374a_727c),
    (2, 0, 0x2d20_831a_1220_e582),
    (2, 1, 0x1025_f0a5_bb1d_6fb7),
];

fn fnv1a(frames: &[Image]) -> u64 {
    frames
        .iter()
        .flat_map(|f| f.raw())
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn tiny_corpus_decodes_to_pinned_frames_at_one_and_two_threads() {
    for seed in [1, 2] {
        let corpus = standard_corpus(CorpusScale::Tiny, seed);
        for (programme, video) in corpus.iter().enumerate() {
            let bits = encode_video(&video.frames, &EncoderConfig::default()).unwrap();
            let (_, _, pin) = PINS
                .iter()
                .find(|p| p.0 == seed && p.1 == programme)
                .copied()
                .expect("every tiny programme is pinned");
            for threads in [1, 2] {
                let frames = with_threads(threads, || decode_video(&bits)).unwrap();
                assert_eq!(frames.len(), video.frames.len());
                assert_eq!(
                    fnv1a(&frames),
                    pin,
                    "seed {seed} programme {programme} at {threads} threads"
                );
            }
        }
    }
}
