//! Cross-thread behaviour of the metrics layer: the contract
//! `medvid-eval`'s `map_videos` fan-out relies on.

use medvid_obs::{counters, CorpusReport, MetricsRegistry, MiningReport, Recorder, Stage};
use std::sync::Arc;
use std::time::Duration;

/// Concurrent increments against one shared registry sum exactly.
#[test]
fn concurrent_counter_increments_sum_exactly() {
    let shared = Arc::new(MetricsRegistry::new());
    let threads = 8;
    let per_thread = 1000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                let rec = Recorder::with_registry(shared);
                for i in 0..per_thread {
                    rec.incr(counters::SHOTS_DETECTED, 1);
                    if i % 2 == 0 {
                        rec.incr(counters::BIC_TESTS_RUN, t as u64);
                    }
                }
            });
        }
    });
    assert_eq!(
        shared.counter(counters::SHOTS_DETECTED),
        threads as u64 * per_thread
    );
    // sum over t of t * per_thread/2 = (0+1+..+7) * 500
    assert_eq!(shared.counter(counters::BIC_TESTS_RUN), 28 * per_thread / 2);
}

/// The map_videos pattern: per-worker local registries merged once at the
/// end produce the same totals as a single shared registry.
#[test]
fn per_thread_registries_merge_to_exact_totals() {
    let target = Recorder::new();
    let workers = 6;
    let videos_per_worker = 25u64;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let target = &target;
            scope.spawn(move || {
                let local = Recorder::new();
                for _ in 0..videos_per_worker {
                    let _span = local.span(Stage::ShotDetect);
                    local.incr(counters::SHOTS_DETECTED, 3);
                }
                local.merge_into(target);
            });
        }
    });
    let reg = target.registry().unwrap();
    assert_eq!(
        reg.counter(counters::SHOTS_DETECTED),
        workers as u64 * videos_per_worker * 3
    );
    let shot = reg.stage(Stage::ShotDetect).unwrap();
    assert_eq!(shot.total.count(), workers as u64 * videos_per_worker);
    assert_eq!(shot.self_time.count(), shot.total.count());
}

/// Nested spans attribute child wall-clock time to the child stage; the
/// parent keeps only its self time. Nesting is tracked per thread, so
/// parallel workers do not see each other's stacks. The child sleeps 25×
/// longer than the parent's own sleeps, so sleep overshoot on a loaded
/// host cannot lift the parent's self time past the child's total.
#[test]
fn nested_spans_attribute_child_time_across_threads() {
    const PARENT_SLEEP: Duration = Duration::from_millis(1);
    const CHILD_SLEEP: Duration = Duration::from_millis(50);
    let shared = Arc::new(MetricsRegistry::new());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                let rec = Recorder::with_registry(shared);
                let _mine = rec.span(Stage::EventRules);
                std::thread::sleep(PARENT_SLEEP);
                {
                    let _audio = rec.span(Stage::AudioBic);
                    std::thread::sleep(CHILD_SLEEP);
                }
                std::thread::sleep(PARENT_SLEEP);
            });
        }
    });
    let rules = shared.stage(Stage::EventRules).unwrap();
    let audio = shared.stage(Stage::AudioBic).unwrap();
    assert_eq!(rules.total.count(), 4);
    assert_eq!(audio.total.count(), 4);
    // Every parent span slept at least 2 ms outside the child; the child
    // slept at least 50 ms. Self time must exclude the child entirely.
    assert_eq!(
        rules.total.sum_nanos() - rules.self_time.sum_nanos(),
        audio.total.sum_nanos(),
        "parent total minus self must equal child total"
    );
    assert!(
        rules.self_time.sum_nanos() < audio.total.sum_nanos(),
        "parent self ({}) must be below child total ({})",
        rules.self_time.sum_nanos(),
        audio.total.sum_nanos()
    );
    // `sleep` never returns early, so each span is at least its sleeps.
    assert!(audio.total.sum_nanos() >= 4 * CHILD_SLEEP.as_nanos() as u64);
    assert!(rules.self_time.sum_nanos() >= 4 * 2 * PARENT_SLEEP.as_nanos() as u64);
}

/// A labelled mining report survives a serde_json round trip bit-for-bit.
#[test]
fn mining_report_round_trips_through_serde_json() {
    let rec = Recorder::new();
    {
        let _s = rec.span(Stage::ShotDetect);
        rec.incr(counters::SHOTS_DETECTED, 17);
    }
    {
        let _q = rec.span(Stage::Query);
        rec.incr(counters::INDEX_COMPARISONS, 123);
        rec.incr(counters::INDEX_PRUNED_SUBTREES, 4);
    }
    let report = rec.report().for_video("V7", "thoracic surgery tape");
    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: MiningReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    assert_eq!(back.counter(counters::SHOTS_DETECTED), 17);
    assert_eq!(back.video.as_deref(), Some("V7"));
    assert!(back.stages["shot_detect"].calls == 1);

    let corpus = CorpusReport::new(vec![report.clone()], report);
    let json = serde_json::to_string(&corpus).unwrap();
    let back: CorpusReport = serde_json::from_str(&json).unwrap();
    assert_eq!(corpus, back);
}
