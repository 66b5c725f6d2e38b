//! Decoder robustness fuzzing driven by medvid-testkit.
//!
//! The decoder is the one component fed bytes it did not produce, so the
//! contract is: any input yields `Ok` or a typed [`DecodeError`] — never a
//! panic, never an allocation proportional to a lying header field.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_codec::bitio::{write_ivarint, write_uvarint};
use medvid_codec::{decode_video, encode_video, DecodeError, EncoderConfig};
use medvid_par::with_threads;
use medvid_testkit::{forall, require, NoShrink, TkRng};
use medvid_types::{Image, Rgb};

/// The codec magic (crate-private constant, restated here as the on-wire
/// bytes a fuzzer would learn from any valid stream).
const MAGIC: [u8; 4] = *b"MVC1";

/// A small valid bitstream to mutate: a few frames of seeded blocks.
fn valid_stream(rng: &mut TkRng, n_frames: usize) -> Vec<u8> {
    let frames: Vec<Image> = (0..n_frames)
        .map(|_| {
            let mut img = Image::filled(
                16,
                16,
                Rgb::new(
                    rng.usize_in(0, 255) as u8,
                    rng.usize_in(0, 255) as u8,
                    rng.usize_in(0, 255) as u8,
                ),
            );
            img.fill_rect(
                rng.usize_in(0, 8),
                rng.usize_in(0, 8),
                8,
                8,
                Rgb::new(rng.usize_in(0, 255) as u8, 40, 200),
            );
            img
        })
        .collect();
    encode_video(&frames, &EncoderConfig::default()).expect("valid frames encode")
}

/// A hand-built valid stream whose frame types are drawn at random, so
/// I-frames sit at irregular positions whatever the header's GOP claims,
/// and frame 0 is a P-frame (predicting from zero planes) about half the
/// time.
fn irregular_gop_stream(rng: &mut TkRng) -> Vec<u8> {
    let (width, height) = (rng.usize_in(1, 30), rng.usize_in(1, 30));
    let n_frames = rng.usize_in(1, 16);
    let blocks = width.div_ceil(8) * height.div_ceil(8);
    let mut out = MAGIC.to_vec();
    write_uvarint(&mut out, width as u64);
    write_uvarint(&mut out, height as u64);
    write_uvarint(&mut out, n_frames as u64);
    out.push(rng.usize_in(1, 100) as u8); // quality
    write_uvarint(&mut out, rng.u64_in(1, 12)); // GOP: a claim only
    for frame in 0..n_frames {
        let intra = rng.bool_p(if frame == 0 { 0.5 } else { 0.25 });
        out.push(if intra { 0 } else { 1 });
        for _ in 0..blocks {
            if !intra {
                write_ivarint(&mut out, rng.i64_in(-12, 12));
                write_ivarint(&mut out, rng.i64_in(-12, 12));
            }
            for _plane in 0..3 {
                // At most 5 symbols with runs under 11 stay inside a block.
                let n_sym = rng.usize_in(0, 5);
                write_uvarint(&mut out, n_sym as u64);
                for _ in 0..n_sym {
                    write_uvarint(&mut out, rng.u64_in(0, 10));
                    write_ivarint(&mut out, rng.i64_in(-60, 60));
                }
            }
        }
    }
    out
}

#[test]
fn irregular_gops_decode_identically_at_one_and_two_threads() {
    forall(
        "decode_video(irregular I-frame positions) is Ok and thread-count invariant",
        |rng| NoShrink(irregular_gop_stream(rng)),
        |stream| {
            let one = with_threads(1, || decode_video(&stream.0));
            let two = with_threads(2, || decode_video(&stream.0));
            require!(one.is_ok(), "valid stream rejected: {:?}", one.err());
            require!(one == two, "1 and 2 threads disagree");
            Ok(())
        },
    );
}

#[test]
fn corrupted_irregular_gops_fail_identically_at_one_and_two_threads() {
    forall(
        "decode_video(corrupted irregular stream) gives one Result at 1 and 2 threads",
        |rng| {
            let mut stream = irregular_gop_stream(rng);
            for _ in 0..rng.usize_in(1, 4) {
                let pos = rng.usize_in(0, stream.len() - 1);
                stream[pos] ^= 1 << rng.usize_in(0, 7);
            }
            if rng.bool_p(0.3) {
                let cut = rng.usize_in(0, stream.len());
                stream.truncate(cut);
            }
            NoShrink(stream)
        },
        |stream| {
            let one = with_threads(1, || decode_video(&stream.0));
            let two = with_threads(2, || decode_video(&stream.0));
            require!(
                one == two,
                "1 thread gave {:?}, 2 threads {:?}",
                one.as_ref().err(),
                two.as_ref().err()
            );
            Ok(())
        },
    );
}

#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    forall(
        "decode_video(arbitrary bytes) returns, never panics",
        |rng| {
            let len = rng.usize_in(0, 2048);
            let mut bytes = rng.bytes(len);
            // Half the cases lead with the magic so fuzzing reaches the
            // header and frame parsers instead of dying at byte 0.
            if rng.bool_p(0.5) && bytes.len() >= MAGIC.len() {
                bytes[..MAGIC.len()].copy_from_slice(&MAGIC);
            }
            bytes
        },
        |bytes| {
            match decode_video(bytes) {
                Ok(frames) => {
                    // A garbage input that happens to parse must still have
                    // been bounded by the header sanity caps.
                    for f in &frames {
                        require!(
                            (f.width() as u64) * (f.height() as u64) <= 1 << 24,
                            "decoded {}x{} frame from fuzz input",
                            f.width(),
                            f.height()
                        );
                    }
                }
                Err(
                    DecodeError::BadMagic
                    | DecodeError::Bitstream(_)
                    | DecodeError::BadFrameType(_)
                    | DecodeError::BlockOverflow
                    | DecodeError::BadHeader,
                ) => {}
            }
            Ok(())
        },
    );
}

#[test]
fn truncated_valid_streams_error_cleanly() {
    forall(
        "every proper prefix of a valid stream is Err, not a panic",
        |rng| {
            let frames = rng.usize_in(1, 3);
            let stream = valid_stream(rng, frames);
            let cut = rng.usize_in(0, stream.len().saturating_sub(1));
            (NoShrink(stream), cut)
        },
        |(stream, cut)| {
            let stream = &stream.0;
            if *cut >= stream.len() {
                return Ok(()); // a shrunk candidate left the domain
            }
            let truncated = &stream[..*cut];
            require!(
                decode_video(truncated).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                stream.len()
            );
            Ok(())
        },
    );
}

#[test]
fn bit_flipped_streams_never_panic() {
    forall(
        "decode_video(bit-flipped valid stream) returns Ok or typed Err",
        |rng| {
            let frames = rng.usize_in(1, 3);
            let stream = valid_stream(rng, frames);
            let flips: Vec<(usize, u8)> = (0..rng.usize_in(1, 8))
                .map(|_| (rng.usize_in(0, stream.len() - 1), 1u8 << rng.usize_in(0, 7)))
                .collect();
            (NoShrink(stream), flips)
        },
        |(stream, flips)| {
            let mut bytes = stream.0.clone();
            for &(pos, mask) in flips {
                if let Some(b) = bytes.get_mut(pos) {
                    *b ^= mask;
                }
            }
            // Either outcome is acceptable; reaching this line at all is
            // the property (catch_unwind in the runner converts panics).
            let _ = decode_video(&bytes);
            Ok(())
        },
    );
}

#[test]
fn lying_frame_count_cannot_force_a_huge_allocation() {
    forall(
        "header n_frames beyond the buffer cannot preallocate beyond it",
        |rng| {
            // Hand-built header: magic, tiny dims, an absurd frame count,
            // then a handful of garbage body bytes.
            let mut bytes = MAGIC.to_vec();
            bytes.push(16); // width varint
            bytes.push(16); // height varint
                            // n_frames varint: ~2^21 frames claimed.
            bytes.extend_from_slice(&[0xFF, 0xFF, 0x7F]);
            bytes.push(75); // quality
            bytes.push(12); // gop varint
            let body = rng.usize_in(0, 64);
            bytes.extend(rng.bytes(body));
            bytes
        },
        |bytes| {
            // The claim exceeds the body by orders of magnitude; decode
            // must fail on the missing data without allocating frame slots
            // for the lie (with_capacity is clamped to remaining bytes —
            // observable here as the call returning promptly at all).
            require!(
                decode_video(bytes).is_err(),
                "decoder accepted a stream claiming 2^21 frames in {} bytes",
                bytes.len()
            );
            Ok(())
        },
    );
}
