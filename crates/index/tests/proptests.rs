//! Property-based tests on the database index.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_index::db::{IndexConfig, ShotRef, VideoDatabase};
use medvid_index::features::Subspace;
use medvid_index::{AccessPolicy, Clearance, ConceptHierarchy, UserContext};
use medvid_testkit::{forall_with, require, Config, TkRng};
use medvid_types::{EventKind, ShotId, VideoId};

/// The environment's configuration, never below this suite's 24 cases.
fn config() -> Config {
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.max(24);
    cfg
}

fn unit_vec(rng: &mut TkRng) -> Vec<f32> {
    (0..16).map(|_| rng.f32_in(0.0, 1.0)).collect()
}

#[test]
fn subspace_distance_is_metric_like() {
    forall_with(
        &config(),
        "subspace distance is symmetric, non-negative and 0 on itself",
        |rng| (unit_vec(rng), unit_vec(rng), rng.usize_in(1, 15)),
        |(a, b, k)| {
            if a.len() != 16 || b.len() != 16 || *k == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let refs = [a.as_slice(), b.as_slice()];
            let s = Subspace::top_variance(&refs, *k);
            let dab = s.sq_distance(a, b);
            let dba = s.sq_distance(b, a);
            require!((dab - dba).abs() < 1e-6, "asymmetric: {dab} vs {dba}");
            require!(dab >= 0.0, "negative distance {dab}");
            require!(s.sq_distance(a, a) == 0.0, "self distance is not 0");
            require!(s.len() <= (*k).max(1), "{} dims for k = {k}", s.len());
            Ok(())
        },
    );
}

#[test]
fn flat_search_ranks_by_distance() {
    forall_with(
        &config(),
        "flat search compares every record and ranks by distance",
        |rng| {
            let n = rng.usize_in(4, 19);
            (0..n).map(|_| rng.u64_in(0, 999)).collect::<Vec<_>>()
        },
        |seeds| {
            if seeds.len() < 4 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let mut db = VideoDatabase::new(ConceptHierarchy::medical(), IndexConfig::default());
            let scenes = db.hierarchy().scene_nodes();
            for (i, &s) in seeds.iter().enumerate() {
                let mut f = vec![0.0f32; 266];
                f[(s % 200) as usize] = 1.0;
                f[200 + (s % 60) as usize] = 0.5;
                db.insert_shot(
                    ShotRef {
                        video: VideoId(0),
                        shot: ShotId(i),
                    },
                    f,
                    EventKind::Dialog,
                    scenes[i % scenes.len()],
                );
            }
            db.build();
            let q = vec![0.1f32; 266];
            let (hits, stats) = db.flat_search(&q, seeds.len(), None);
            let compared = stats.comparisons;
            require!(compared == seeds.len(), "{compared} comparisons");
            for w in hits.windows(2) {
                require!(w[0].distance <= w[1].distance, "hits out of distance order");
            }
            Ok(())
        },
    );
}

#[test]
fn access_filtering_is_monotone_in_clearance() {
    forall_with(
        &config(),
        "higher clearance sees at least as many hits",
        |rng| (rng.usize_in(4, 19), rng.u64_in(1, 3) as u8),
        |&(n, protected_level)| {
            if n < 4 || protected_level == 0 {
                return Ok(()); // a shrunk candidate left the domain
            }
            let mut db = VideoDatabase::new(ConceptHierarchy::medical(), IndexConfig::default());
            let scenes = db.hierarchy().scene_nodes();
            for i in 0..n {
                let mut f = vec![0.0f32; 266];
                f[i % 266] = 1.0;
                db.insert_shot(
                    ShotRef {
                        video: VideoId(0),
                        shot: ShotId(i),
                    },
                    f,
                    EventKind::DETERMINATE[i % 3],
                    scenes[i % scenes.len()],
                );
            }
            let mut policy = AccessPolicy::allow_all();
            policy.require_event(EventKind::ClinicalOperation, Clearance(protected_level));
            db.set_policy(policy);
            db.build();
            let q = vec![0.0f32; 266];
            let mut prev = 0usize;
            for c in 0..4u8 {
                let user = UserContext::new(Clearance(c));
                let (hits, _) = db.flat_search(&q, n, Some(&user));
                require!(hits.len() >= prev, "clearance {c} sees less");
                prev = hits.len();
            }
            require!(prev == n, "top clearance sees {prev} of {n}");
            Ok(())
        },
    );
}
