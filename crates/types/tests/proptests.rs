//! Property-based tests on the shared data types.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_testkit::{forall_with, require, Config};
use medvid_types::{AudioClip, ColorHistogram, FrameFeatures, Image, Rgb, Shot, ShotId};

/// The environment's configuration, never below this suite's 64 cases.
fn config() -> Config {
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.max(64);
    cfg
}

#[test]
fn image_fill_rect_never_panics() {
    forall_with(
        &config(),
        "fill_rect keeps the pixel count",
        |rng| {
            let mut u = |lo, hi| rng.usize_in(lo, hi);
            let (size, from, to) = (
                (u(1, 31), u(1, 31)),
                (u(0, 39), u(0, 39)),
                (u(0, 79), u(0, 79)),
            );
            (size, from, to, rng.next_u64() as u32)
        },
        |&((w, h), (x0, y0), (x1, y1), rgb)| {
            if w == 0 || h == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let [r, g, b, _] = rgb.to_le_bytes();
            let mut img = Image::black(w, h);
            img.fill_rect(x0, y0, x1, y1, Rgb::new(r, g, b));
            require!(img.pixel_count() == w * h, "pixel count changed");
            Ok(())
        },
    );
}

#[test]
fn mean_abs_diff_is_symmetric_and_bounded() {
    forall_with(
        &config(),
        "mean_abs_diff is symmetric and within [0, 255]",
        |rng| {
            let mut u = |lo, hi| rng.usize_in(lo, hi);
            (u(1, 15), u(1, 15), u(0, 999))
        },
        |&(w, h, seed)| {
            if w == 0 || h == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let mut a = Image::black(w, h);
            let mut b = Image::black(w, h);
            let mut s = seed as u64;
            for byte in a.raw_mut().iter_mut().chain(b.raw_mut()) {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                *byte = (s >> 33) as u8;
            }
            let (d1, d2) = (a.mean_abs_diff(&b), b.mean_abs_diff(&a));
            require!((d1 - d2).abs() < 1e-6, "asymmetric: {d1} vs {d2}");
            require!((0.0..=255.0).contains(&d1), "{d1} outside [0, 255]");
            require!(a.mean_abs_diff(&a.clone()) == 0.0, "self distance is not 0");
            Ok(())
        },
    );
}

#[test]
fn histogram_l1_distance_triangle() {
    forall_with(
        &config(),
        "histogram L1 distance obeys the triangle inequality",
        |rng| {
            let mut bin = || rng.usize_in(0, 255);
            (bin(), bin(), bin())
        },
        |&(b1, b2, b3)| {
            let h = |bin: usize| {
                let mut v = vec![0.0f32; 256];
                v[bin] = 1.0;
                ColorHistogram::new(v).unwrap()
            };
            let (x, y, z) = (h(b1), h(b2), h(b3));
            let (xz, xy, yz) = (x.l1_distance(&z), x.l1_distance(&y), y.l1_distance(&z));
            require!(xz <= xy + yz + 1e-6, "{xz} > {xy} + {yz}");
            Ok(())
        },
    );
}

#[test]
fn shot_rep_frame_is_inside_shot() {
    forall_with(
        &config(),
        "a shot's representative frame lies inside it",
        |rng| (rng.usize_in(0, 9_999), rng.usize_in(1, 499)),
        |&(start, len)| {
            if len == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let s = Shot::new(ShotId(0), start, start + len, FrameFeatures::zeros()).unwrap();
            let rep = s.rep_frame;
            require!((s.start_frame..s.end_frame).contains(&rep), "{rep}");
            Ok(())
        },
    );
}

#[test]
fn audio_clip_len_consistent() {
    forall_with(
        &config(),
        "audio clip length and duration agree",
        |rng| (rng.usize_in(0, 99_999), rng.usize_in(1, 99_999)),
        |&(start, len)| {
            if len == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let c = AudioClip::new(start, start + len).unwrap();
            let secs = c.duration_secs(8000);
            require!(c.len() == len, "len {} != {len}", c.len());
            require!((secs - len as f64 / 8000.0).abs() < 1e-12, "{secs} s");
            Ok(())
        },
    );
}
