//! Property-based tests on the event decision rules.
//!
//! Failures print a one-line reproduction; replay with
//! `MEDVID_TESTKIT_SEED=<seed> MEDVID_TESTKIT_CASES=<case + 1>`.

use medvid_events::rules::{classify_scene, SceneEvidence, ShotEvidence};
use medvid_testkit::{forall_with, require, Config, NoShrink, TkRng};
use medvid_types::EventKind;

fn shot(rng: &mut TkRng) -> ShotEvidence {
    let mut bit = || rng.next_u64() & 1 == 1;
    let (face, skin) = (bit(), bit());
    ShotEvidence {
        slide_or_clipart: bit(),
        face,
        face_close_up: bit() && face,
        skin,
        skin_close_up: bit() && skin,
        blood_red: bit(),
        speech: bit(),
    }
}

/// 1–9 shots of random cues with a symmetric speaker-change matrix.
fn evidence(rng: &mut TkRng) -> NoShrink<SceneEvidence> {
    let n = rng.usize_in(1, 9);
    let shots: Vec<ShotEvidence> = (0..n).map(|_| shot(rng)).collect();
    let mut matrix = vec![vec![None; n]; n];
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for j in i + 1..n {
            let v = match rng.next_u64() >> 62 {
                0 => Some(true),
                1 => Some(false),
                _ => None,
            };
            matrix[i][j] = v;
            matrix[j][i] = v;
        }
    }
    NoShrink(SceneEvidence {
        shots,
        any_temporally_related_group: rng.next_u64() & 1 == 1,
        any_spatially_related_group: rng.next_u64() & 1 == 1,
        speaker_change: matrix,
    })
}

/// Checks `prop` on the environment's configuration, never below this
/// suite's 64 cases.
fn check(name: &str, prop: impl Fn(&SceneEvidence) -> Result<(), String>) {
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.max(64);
    forall_with(&cfg, name, evidence, |ev| prop(&ev.0));
}

/// Whether some adjacent pair of shots has a speaker change.
fn adjacent_change(ev: &SceneEvidence) -> bool {
    (0..ev.shots.len().saturating_sub(1)).any(|i| ev.speaker_change[i][i + 1] == Some(true))
}

#[test]
fn classify_never_panics_and_is_deterministic() {
    check("classify_scene is deterministic", |ev| {
        let (a, b) = (classify_scene(ev), classify_scene(ev));
        require!(a == b, "{a:?} then {b:?}");
        Ok(())
    });
}

#[test]
fn presentation_requires_its_cues() {
    check("presentation needs its cues", |ev| {
        if classify_scene(ev) == EventKind::Presentation {
            require!(ev.shots.iter().any(|s| s.slide_or_clipart), "no slide");
            require!(ev.shots.iter().any(|s| s.face_close_up), "no face close-up");
            require!(ev.any_temporally_related_group, "no temporal group");
        }
        Ok(())
    });
}

#[test]
fn dialog_requires_faces_and_change() {
    check("dialog needs faces and a change", |ev| {
        if classify_scene(ev) == EventKind::Dialog {
            let faces = ev.shots.windows(2).any(|w| w[0].face && w[1].face);
            require!(faces, "no adjacent faces");
            require!(adjacent_change(ev), "no adjacent speaker change");
            require!(ev.any_spatially_related_group, "no spatial group");
        }
        Ok(())
    });
}

#[test]
fn clinical_requires_skin_or_blood_and_no_change() {
    check("clinical needs skin or blood", |ev| {
        if classify_scene(ev) == EventKind::ClinicalOperation {
            require!(!adjacent_change(ev), "adjacent speaker change");
            let has_cue = ev.shots.iter().any(|s| s.skin_close_up || s.blood_red)
                || ev.shots.iter().filter(|s| s.skin).count() * 2 > ev.shots.len();
            require!(has_cue, "no skin or blood cue");
        }
        Ok(())
    });
}
