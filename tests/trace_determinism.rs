//! The trace stream's determinism contract: for the same case and seed,
//! the explorer emits byte-identical event streams once volatile
//! host-time fields are dropped (`stable_json`), and tracing never changes
//! what the search does.

use anduril::failures::{all_cases, case_by_id, FailureCase};
use anduril::trace::{Json, TraceEvent, VecTracer};
use anduril::{
    explore, explore_traced, ExplorerConfig, FeedbackConfig, FeedbackStrategy, SearchContext,
};

/// Runs one traced sequential exploration and returns the raw event
/// stream, including context-preparation events.
fn traced_run(case: &FailureCase) -> Vec<TraceEvent> {
    let failure_log = case.failure_log().expect("failure log");
    let gt = case.ground_truth().expect("ground truth");
    let tracer = VecTracer::new();
    let ctx = SearchContext::prepare_traced(case.scenario.clone(), &failure_log, 1_000, &tracer)
        .expect("context");
    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    explore_traced(
        &ctx,
        &case.oracle,
        &mut s,
        &ExplorerConfig::default(),
        Some(gt.site),
        &tracer,
    )
    .expect("explore");
    tracer.take()
}

/// The deterministic serialization of a stream (volatile fields omitted).
fn stable_lines(events: &[TraceEvent]) -> Vec<String> {
    events.iter().map(TraceEvent::stable_json).collect()
}

/// Re-running the same sequential search twice gives the same stream on
/// every paper case — the stream itself is a pure function of (case,
/// seed).
#[test]
fn sequential_stream_is_reproducible() {
    for case in all_cases() {
        let a = stable_lines(&traced_run(&case));
        assert!(!a.is_empty(), "{}: stream is non-empty", case.id);
        let b = stable_lines(&traced_run(&case));
        assert_eq!(a.len(), b.len(), "{}: stream lengths differ", case.id);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x, y, "{}: stream diverges at event {i}", case.id);
        }
    }
}

/// Tracing is observation only: on every paper case, traced and untraced
/// explorations return the same rounds and the same script.
#[test]
fn traced_and_untraced_explore_agree() {
    for case in all_cases() {
        let failure_log = case.failure_log().expect("failure log");
        let gt = case.ground_truth().expect("ground truth");
        let ctx =
            SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000).expect("context");
        let cfg = ExplorerConfig::default();
        let mut s = FeedbackStrategy::new(FeedbackConfig::full());
        let plain = explore(&ctx, &case.oracle, &mut s, &cfg, Some(gt.site)).expect("explore");
        let tracer = VecTracer::new();
        let mut s = FeedbackStrategy::new(FeedbackConfig::full());
        let traced = explore_traced(&ctx, &case.oracle, &mut s, &cfg, Some(gt.site), &tracer)
            .expect("explore_traced");
        assert!(plain.success, "{}: expected reproduction", case.id);
        assert_eq!(
            plain.rounds, traced.rounds,
            "{}: round counts differ",
            case.id
        );
        assert_eq!(plain.script, traced.script, "{}: scripts differ", case.id);
        assert_eq!(
            plain.sim_time_total, traced.sim_time_total,
            "{}: simulated time differs",
            case.id
        );
    }
}

/// Every line of the volatile serialization — what `FileTracer` writes —
/// parses back through the bundled JSON reader with an `ev` kind.
#[test]
fn every_emitted_line_is_valid_jsonl() {
    let case = case_by_id("f3").expect("case");
    for ev in traced_run(&case) {
        for line in [ev.to_json(), ev.stable_json()] {
            let v = Json::parse(&line).unwrap_or_else(|| panic!("f3: unparseable line: {line}"));
            assert!(
                v.get("ev").and_then(Json::as_str).is_some(),
                "f3: line without `ev`: {line}"
            );
        }
    }
}
