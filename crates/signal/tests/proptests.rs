//! Property-based tests on the signal substrate.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_signal::dct::{dct2, dct3};
use medvid_signal::entropy::entropy_threshold;
use medvid_signal::fft::{fft_real, ifft};
use medvid_signal::kmeans::kmeans;
use medvid_signal::matrix::Matrix;
use medvid_testkit::{forall_with, require, Config};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The environment's configuration, never below this suite's 64 cases.
fn config() -> Config {
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.max(64);
    cfg
}

#[test]
fn fft_ifft_recovers_signal() {
    forall_with(
        &config(),
        "ifft(fft(x)) == x",
        |rng| {
            let n = rng.usize_in(1, 199);
            (0..n).map(|_| rng.f64_in(-1.0, 1.0)).collect::<Vec<_>>()
        },
        |sig| {
            if sig.is_empty() {
                return Ok(()); // a shrunk candidate left the domain
            }
            let back = ifft(&fft_real(sig));
            for (i, (orig, rec)) in sig.iter().zip(back.iter()).enumerate() {
                require!((orig - rec.re).abs() < 1e-8, "sample {i}: {rec:?}");
            }
            Ok(())
        },
    );
}

#[test]
fn dct_roundtrip() {
    forall_with(
        &config(),
        "dct3(dct2(x)) == x",
        |rng| {
            let n = rng.usize_in(1, 99);
            (0..n).map(|_| rng.f64_in(-10.0, 10.0)).collect::<Vec<_>>()
        },
        |sig| {
            if sig.is_empty() {
                return Ok(()); // a shrunk candidate left the domain
            }
            let back = dct3(&dct2(sig));
            for (i, (a, b)) in sig.iter().zip(back.iter()).enumerate() {
                require!((a - b).abs() < 1e-8, "sample {i}: {a} vs {b}");
            }
            Ok(())
        },
    );
}

#[test]
fn entropy_threshold_within_range() {
    forall_with(
        &config(),
        "the entropy threshold lies within the values' range",
        |rng| {
            let n = rng.usize_in(1, 299);
            (0..n).map(|_| rng.f32_in(0.0, 100.0)).collect::<Vec<_>>()
        },
        |values| {
            if values.is_empty() {
                return Ok(()); // a shrunk candidate left the domain
            }
            let t = entropy_threshold(values);
            let min = values.iter().copied().fold(f32::INFINITY, f32::min);
            let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            require!(t >= min - 1e-6 && t <= max + 1e-6, "t={t}");
            Ok(())
        },
    );
}

#[test]
fn kmeans_assignments_are_valid() {
    forall_with(
        &config(),
        "k-means assigns every point to one of k clusters",
        |rng| (rng.usize_in(2, 39), rng.usize_in(1, 4), rng.u64_in(0, 99)),
        |&(n, k, seed)| {
            if n < 2 || k == 0 || k > n {
                return Ok(()); // outside the domain (k <= n), or shrunk out of it
            }
            let points: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![(i % 7) as f64, (i % 3) as f64])
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let km = kmeans(&points, k, 20, &mut rng).unwrap();
            require!(km.assignments.len() == n, "assignments != {n}");
            require!(km.assignments.iter().all(|&a| a < k), "cluster id >= {k}");
            require!(km.inertia >= 0.0, "inertia {}", km.inertia);
            Ok(())
        },
    );
}

#[test]
fn spd_logdet_matches_cholesky() {
    forall_with(
        &config(),
        "2x2 SPD log-determinant matches the closed form",
        |rng| {
            let mut f = |lo, hi| rng.f64_in(lo, hi);
            (f(0.1, 10.0), f(0.1, 10.0), f(-0.9, 0.9))
        },
        |&(d0, d1, c)| {
            if d0 < 0.1 || d1 < 0.1 {
                return Ok(()); // a shrunk candidate left the domain
            }
            // 2x2 SPD matrix via correlation parameterisation.
            let cov = c * (d0 * d1).sqrt();
            let m = Matrix::from_rows(2, 2, vec![d0, cov, cov, d1]);
            let ld = m.log_det_spd().unwrap();
            let expected = (d0 * d1 - cov * cov).ln();
            require!((ld - expected).abs() < 1e-6, "{ld} vs {expected}");
            Ok(())
        },
    );
}
