//! Property-based tests on the codec.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_codec::bitio::{write_ivarint, write_uvarint, Reader};
use medvid_codec::{decode_video, encode_video, psnr, EncoderConfig, Quality};
use medvid_testkit::{forall_with, require, Config};
use medvid_types::{Image, Rgb};

/// The environment's configuration, never below this suite's 32 cases.
fn config() -> Config {
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.max(32);
    cfg
}

#[test]
fn varint_roundtrip() {
    forall_with(
        &config(),
        "signed varints round-trip",
        |rng| {
            let n = rng.usize_in(0, 49);
            (0..n).map(|_| rng.next_u64() as i64).collect::<Vec<_>>()
        },
        |values| {
            let mut buf = Vec::new();
            for &v in values {
                write_ivarint(&mut buf, v);
            }
            let mut r = Reader::new(&buf);
            for &v in values {
                let got = r.read_ivarint().unwrap();
                require!(got == v, "wrote {v}, read {got}");
            }
            require!(r.is_at_end(), "bytes left after the last varint");
            Ok(())
        },
    );
}

#[test]
fn uvarint_roundtrip() {
    forall_with(
        &config(),
        "unsigned varints round-trip",
        |rng| {
            let n = rng.usize_in(0, 49);
            (0..n).map(|_| rng.next_u64()).collect::<Vec<_>>()
        },
        |values| {
            let mut buf = Vec::new();
            for &v in values {
                write_uvarint(&mut buf, v);
            }
            let mut r = Reader::new(&buf);
            for &v in values {
                let got = r.read_uvarint().unwrap();
                require!(got == v, "wrote {v}, read {got}");
            }
            Ok(())
        },
    );
}

#[test]
fn codec_roundtrip_arbitrary_frames() {
    forall_with(
        &config(),
        "encode/decode keeps shape and PSNR > 20 dB",
        |rng| {
            let mut u = |lo, hi| rng.usize_in(lo, hi);
            ((u(1, 39), u(1, 31), u(1, 3)), u(20, 94), u(0, 999))
        },
        |&((w, h, n), quality, seed)| {
            if w == 0 || h == 0 || n == 0 || quality < 20 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let mut s = seed as u64;
            let frames: Vec<Image> = (0..n)
                .map(|_| {
                    let mut img = Image::filled(w, h, Rgb::new(100, 120, 140));
                    for byte in img.raw_mut() {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        // Smooth-ish content: limited deviation.
                        *byte =
                            (*byte as i16 + ((s >> 33) as u8 % 32) as i16 - 16).clamp(0, 255) as u8;
                    }
                    img
                })
                .collect();
            let cfg = EncoderConfig {
                quality: Quality::new(quality as u8).unwrap(),
                ..Default::default()
            };
            let bits = encode_video(&frames, &cfg).unwrap();
            let out = decode_video(&bits).unwrap();
            require!(out.len() == n, "decoded {} of {n} frames", out.len());
            for (orig, dec) in frames.iter().zip(out.iter()) {
                let shape = (dec.width(), dec.height());
                require!(shape == (w, h), "decoded {shape:?}");
                let p = psnr(orig, dec);
                require!(p > 20.0, "PSNR {p} too low at quality {quality}");
            }
            Ok(())
        },
    );
}

#[test]
fn decoder_never_panics_on_garbage() {
    forall_with(
        &config(),
        "decoding garbage returns instead of panicking",
        |rng| {
            let n = rng.usize_in(0, 299);
            rng.bytes(n)
        },
        |bytes| {
            let _ = decode_video(bytes); // must return Err, never panic
            Ok(())
        },
    );
}

#[test]
fn decoder_never_panics_on_truncation() {
    forall_with(
        &config(),
        "decoding a truncated stream returns instead of panicking",
        |rng| {
            let mut u = |lo, hi| rng.usize_in(lo, hi);
            (u(1, 23), u(1, 23), u(0, 399))
        },
        |&(w, h, cut)| {
            if w == 0 || h == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let frames = vec![Image::filled(w, h, Rgb::new(30, 60, 90)); 2];
            let bits = encode_video(&frames, &EncoderConfig::default()).unwrap();
            let _ = decode_video(&bits[..cut.min(bits.len())]);
            Ok(())
        },
    );
}
