//! Property-based tests on content-structure mining invariants.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_structure::group::{detect_groups, GroupConfig};
use medvid_structure::scene::{detect_scenes, SceneConfig};
use medvid_structure::similarity::{shot_similarity, SimilarityWeights};
use medvid_testkit::{forall_with, require, Config, TkRng};
use medvid_types::{ColorHistogram, FrameFeatures, Shot, ShotId, TamuraTexture};

/// The environment's configuration, never below this suite's 64 cases.
fn config() -> Config {
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.max(64);
    cfg
}

/// `min_len..=max_len` bins, each in `0..=hi`.
fn bins(rng: &mut TkRng, hi: usize, min_len: usize, max_len: usize) -> Vec<usize> {
    let n = rng.usize_in(min_len, max_len);
    (0..n).map(|_| rng.usize_in(0, hi)).collect()
}

fn shot_from_bin(i: usize, bin: usize, len: usize) -> Shot {
    let mut hist = vec![0.0f32; 256];
    hist[bin % 256] = 1.0;
    let mut tex = vec![0.0f32; 10];
    tex[bin % 10] = 1.0;
    Shot::new(
        ShotId(i),
        i * 100,
        i * 100 + len.max(1),
        FrameFeatures {
            color: ColorHistogram::new(hist).unwrap(),
            texture: TamuraTexture::new(tex).unwrap(),
        },
    )
    .unwrap()
}

#[test]
fn similarity_is_symmetric_bounded() {
    forall_with(
        &config(),
        "shot similarity is symmetric, in [0, 1] and 1 on itself",
        |rng| {
            let mut bin = || rng.usize_in(0, 255);
            (bin(), bin(), rng.f32_in(0.0, 1.0))
        },
        |&(b1, b2, wc)| {
            let w = SimilarityWeights {
                color: wc,
                texture: 1.0 - wc,
            };
            let a = shot_from_bin(0, b1, 10);
            let b = shot_from_bin(1, b2, 10);
            let s1 = shot_similarity(&a, &b, w);
            let s2 = shot_similarity(&b, &a, w);
            require!((s1 - s2).abs() < 1e-6, "asymmetric: {s1} vs {s2}");
            require!((-1e-6..=1.0 + 1e-6).contains(&s1), "{s1} outside [0, 1]");
            let self_sim = shot_similarity(&a, &a, w);
            require!((self_sim - 1.0).abs() < 1e-5, "self similarity {self_sim}");
            Ok(())
        },
    );
}

#[test]
fn groups_partition_shots_for_any_bin_sequence() {
    forall_with(
        &config(),
        "groups partition the shots into contiguous runs",
        |rng| bins(rng, 7, 1, 39),
        |bins| {
            if bins.is_empty() {
                return Ok(()); // a shrunk candidate left the domain
            }
            // Spread bins so that distinct values are visually distinct.
            let shots: Vec<Shot> = bins
                .iter()
                .enumerate()
                .map(|(i, &b)| shot_from_bin(i, b * 30, 10 + i % 20))
                .collect();
            let det = detect_groups(
                &shots,
                SimilarityWeights::default(),
                &GroupConfig::default(),
            );
            let mut all: Vec<ShotId> = det.groups.iter().flat_map(|g| g.shots.clone()).collect();
            all.sort_unstable();
            let expected: Vec<ShotId> = (0..shots.len()).map(ShotId).collect();
            require!(all == expected, "groups cover {all:?}, not every shot once");
            // Groups are contiguous in time.
            for g in &det.groups {
                for w2 in g.shots.windows(2) {
                    require!(w2[1].index() == w2[0].index() + 1, "gap");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn scenes_use_each_group_at_most_once() {
    forall_with(
        &config(),
        "scenes use each group at most once and meet the shot minimum",
        |rng| (bins(rng, 5, 2, 29), rng.usize_in(1, 3)),
        |(bins, min_shots)| {
            let min_shots = *min_shots;
            if bins.len() < 2 || min_shots == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let shots: Vec<Shot> = bins
                .iter()
                .enumerate()
                .map(|(i, &b)| shot_from_bin(i, b * 40, 12))
                .collect();
            let w = SimilarityWeights::default();
            let groups = detect_groups(&shots, w, &GroupConfig::default()).groups;
            let det = detect_scenes(
                &groups,
                &shots,
                w,
                &SceneConfig {
                    merge_threshold: None,
                    min_scene_shots: min_shots,
                },
            );
            let mut seen = std::collections::HashSet::new();
            for scene in &det.scenes {
                let rep = scene.representative_group;
                require!(scene.groups.contains(&rep), "{rep:?} outside");
                for g in &scene.groups {
                    require!(seen.insert(*g), "group used twice");
                }
                let shot_count: usize = scene.groups.iter().map(|&g| groups[g.index()].len()).sum();
                require!(shot_count >= min_shots, "{shot_count} shots < {min_shots}");
            }
            Ok(())
        },
    );
}

#[test]
fn rep_shots_always_members() {
    forall_with(
        &config(),
        "representative shots are members and clusters partition the group",
        |rng| bins(rng, 4, 1, 24),
        |bins| {
            if bins.is_empty() {
                return Ok(()); // a shrunk candidate left the domain
            }
            let shots: Vec<Shot> = bins
                .iter()
                .enumerate()
                .map(|(i, &b)| shot_from_bin(i, b * 50, 10))
                .collect();
            let det = detect_groups(
                &shots,
                SimilarityWeights::default(),
                &GroupConfig::default(),
            );
            for g in &det.groups {
                require!(!g.representative_shots.is_empty(), "no rep");
                for r in &g.representative_shots {
                    require!(g.shots.contains(r), "representative {r:?} not a member");
                }
                // Clusters partition the group's shots.
                let mut cluster_shots: Vec<ShotId> =
                    g.shot_clusters.iter().flatten().copied().collect();
                cluster_shots.sort_unstable();
                let mut members = g.shots.clone();
                members.sort_unstable();
                require!(cluster_shots == members, "{cluster_shots:?}");
            }
            Ok(())
        },
    );
}
