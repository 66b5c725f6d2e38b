//! Property-based tests on skim construction.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_skim::{build_skim, frame_compression_ratio, SkimLevel};
use medvid_testkit::{forall_with, require, Config};
use medvid_types::{
    ClusterId, ClusteredScene, ColorHistogram, ContentStructure, FrameFeatures, Group, GroupId,
    GroupKind, Scene, SceneId, Shot, ShotId, TamuraTexture,
};

/// Builds a random-but-valid hierarchy: shots partitioned into groups,
/// groups into scenes, scenes into clusters; a pure function of its
/// arguments, so a failing case shrinks on `(n_shots, seed)`.
fn structure(n_shots: usize, seed: u64) -> ContentStructure {
    let feat = || FrameFeatures {
        color: ColorHistogram::zeros(),
        texture: TamuraTexture::zeros(),
    };
    let mut s = seed;
    let mut next = move |m: usize| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((s >> 33) as usize % m.max(1)) + 1
    };
    let shots: Vec<Shot> = (0..n_shots)
        .map(|i| Shot::new(ShotId(i), i * 20, (i + 1) * 20, feat()).unwrap())
        .collect();
    // Partition shots into groups of random sizes.
    let mut groups: Vec<Group> = Vec::new();
    let mut i = 0usize;
    while i < n_shots {
        let take = next(4).min(n_shots - i);
        let members: Vec<ShotId> = (i..i + take).map(ShotId).collect();
        groups.push(Group {
            id: GroupId(groups.len()),
            representative_shots: vec![members[0]],
            shot_clusters: vec![members.clone()],
            shots: members,
            kind: GroupKind::SpatiallyRelated,
        });
        i += take;
    }
    // Partition groups into scenes.
    let mut scenes: Vec<Scene> = Vec::new();
    let mut g = 0usize;
    while g < groups.len() {
        let take = next(3).min(groups.len() - g);
        let members: Vec<GroupId> = (g..g + take).map(GroupId).collect();
        scenes.push(Scene {
            id: SceneId(scenes.len()),
            representative_group: members[0],
            groups: members,
        });
        g += take;
    }
    // Partition scenes into clusters.
    let mut clusters: Vec<ClusteredScene> = Vec::new();
    let mut c = 0usize;
    while c < scenes.len() {
        let take = next(3).min(scenes.len() - c);
        let members: Vec<SceneId> = (c..c + take).map(SceneId).collect();
        let centroid = scenes[members[0].index()].representative_group;
        clusters.push(ClusteredScene {
            id: ClusterId(clusters.len()),
            scenes: members,
            centroid_group: centroid,
        });
        c += take;
    }
    ContentStructure {
        shots,
        groups,
        scenes,
        clustered_scenes: clusters,
    }
}

#[test]
fn skim_sizes_and_fcr_are_monotone() {
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.max(64);
    forall_with(
        &cfg,
        "skim length and FCR grow with the level",
        |rng| (rng.usize_in(2, 39), rng.next_u64()),
        |&(n_shots, seed)| {
            if n_shots < 2 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let cs = structure(n_shots, seed);
            require!(cs.validate().is_ok(), "{:?}", cs.validate());
            let mut prev_len = 0usize;
            let mut prev_fcr = 0.0f64;
            for level in SkimLevel::ALL {
                let skim = build_skim(&cs, level);
                let fcr = frame_compression_ratio(&cs, &skim);
                require!(skim.len() >= prev_len, "level {} shrank", level.number());
                require!(fcr >= prev_fcr - 1e-12, "FCR fell to {fcr}");
                require!((0.0..=1.0 + 1e-12).contains(&fcr), "FCR {fcr}");
                // Every skim shot exists and appears once.
                for w in skim.shots.windows(2) {
                    require!(w[0] < w[1], "skim shots out of order: {:?}", skim.shots);
                }
                prev_len = skim.len();
                prev_fcr = fcr;
            }
            require!((prev_fcr - 1.0).abs() < 1e-12, "level 1 shows all frames");
            Ok(())
        },
    );
}
