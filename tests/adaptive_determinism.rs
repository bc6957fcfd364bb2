//! Adaptive observable promotion's determinism contract: with adaptation
//! on, repeated explorations emit byte-identical stable trace streams —
//! promotions included — and with adaptation off (the default) the stream
//! is byte-identical to a run that has no adaptive layer in play at all.
//!
//! A search also starts from the prepared observable table, so several
//! searches can share one context.
//!
//! The stall-prone context is manufactured the same way the
//! `anduril-bench` adaptive ablation does: strip the nearest (strongest
//! guidance) observable's entries from the failure log before
//! preparation, simulating log rotation/rate limiting around the failure.

mod common;

use anduril::trace::{TraceEvent, VecTracer};
use anduril::{
    explore_traced, ExplorerConfig, FeedbackConfig, FeedbackStrategy, Oracle, Scenario,
    SearchContext,
};
use common::degraded_inputs;

/// One traced exploration over a freshly prepared context.
fn traced_run(
    scenario: &Scenario,
    oracle: &Oracle,
    log: &str,
    cfg: &ExplorerConfig,
) -> Vec<TraceEvent> {
    let ctx = SearchContext::prepare(scenario.clone(), log, 1_000).expect("context");
    traced_run_on(&ctx, oracle, cfg)
}

/// One traced exploration over `ctx`.
fn traced_run_on(ctx: &SearchContext, oracle: &Oracle, cfg: &ExplorerConfig) -> Vec<TraceEvent> {
    let tracer = VecTracer::new();
    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    explore_traced(ctx, oracle, &mut s, cfg, None, &tracer).expect("explore");
    tracer.take()
}

fn stable_lines(events: &[TraceEvent]) -> Vec<String> {
    events.iter().map(TraceEvent::stable_json).collect()
}

fn promotion_count(lines: &[String]) -> usize {
    lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"promoted\""))
        .count()
}

/// With adaptation on, a stall-prone degraded case promotes — and two
/// runs over freshly prepared contexts stay byte-identical, promotion
/// events and all post-promotion planning included.
#[test]
fn adaptive_streams_are_reproducible() {
    let (scenario, oracle, degraded) = degraded_inputs("f18");
    let mut cfg = ExplorerConfig {
        max_rounds: 300,
        verify_replay: false,
        ..ExplorerConfig::default()
    };
    cfg.adaptive.enabled = true;

    let first = stable_lines(&traced_run(&scenario, &oracle, &degraded, &cfg));
    assert!(
        promotion_count(&first) > 0,
        "f18-degraded: the adaptive run must actually promote"
    );
    let second = stable_lines(&traced_run(&scenario, &oracle, &degraded, &cfg));
    assert_eq!(
        first.len(),
        second.len(),
        "f18-degraded: stream lengths differ"
    );
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "f18-degraded: stream diverges at event {i}");
    }
}

/// Adaptation rescues the degraded case the frozen observable set cannot
/// reproduce within the same round budget.
#[test]
fn adaptive_rescues_degraded_case() {
    let (scenario, oracle, degraded) = degraded_inputs("f18");
    let cfg = ExplorerConfig {
        max_rounds: 300,
        verify_replay: false,
        ..ExplorerConfig::default()
    };

    let fixed = traced_run(&scenario, &oracle, &degraded, &cfg);
    let fixed_success = fixed
        .iter()
        .any(|e| matches!(e, TraceEvent::RoundEnd { oracle: true, .. }));
    assert!(
        !fixed_success,
        "f18-degraded: the frozen set should not reproduce (else this test's premise is stale)"
    );

    let mut adaptive_cfg = cfg;
    adaptive_cfg.adaptive.enabled = true;
    let adaptive = traced_run(&scenario, &oracle, &degraded, &adaptive_cfg);
    assert!(
        adaptive
            .iter()
            .any(|e| matches!(e, TraceEvent::RoundEnd { oracle: true, .. }),),
        "f18-degraded: adaptation must rescue the search"
    );

    // The promoted observable grows the `I_k` vector: feedback events
    // after the promotion carry the longer vector.
    let mut promoted_at = None;
    for (i, e) in adaptive.iter().enumerate() {
        match e {
            TraceEvent::ObservablePromoted { k, .. } => {
                promoted_at = Some((i, *k));
            }
            TraceEvent::Feedback { i_k, .. } => {
                if let Some((at, k)) = promoted_at {
                    assert!(
                        i_k.len() > k,
                        "feedback after promotion (event {at}) must carry the grown I_k vector"
                    );
                }
            }
            _ => {}
        }
    }
    assert!(promoted_at.is_some(), "adaptive run must promote");
}

/// `adaptive.enabled = false` (the default) is inert: switching it off
/// explicitly emits exactly the default stream, with no promotion events.
#[test]
fn adaptive_off_is_byte_identical() {
    let (scenario, oracle, degraded) = degraded_inputs("f18");
    let base = ExplorerConfig {
        max_rounds: 100,
        verify_replay: false,
        ..ExplorerConfig::default()
    };
    let mut off = base.clone();
    off.adaptive.enabled = false;

    let a = stable_lines(&traced_run(&scenario, &oracle, &degraded, &base));
    let b = stable_lines(&traced_run(&scenario, &oracle, &degraded, &off));
    assert_eq!(a, b, "adaptation off must emit the default stream");
    assert_eq!(promotion_count(&a), 0, "no promotions with adaptation off");
}

/// Promotions belong to the search that made them: on a context an
/// adaptive search has already grown, a fixed search emits exactly the
/// stream it emits on a freshly prepared context.
#[test]
fn a_search_on_a_shared_context_starts_from_the_prepared_table() {
    for id in ["f5", "f11", "f18", "f22"] {
        let (scenario, oracle, degraded) = degraded_inputs(id);
        let fixed = ExplorerConfig {
            max_rounds: 300,
            verify_replay: false,
            ..ExplorerConfig::default()
        };
        let mut adaptive = fixed.clone();
        adaptive.adaptive.enabled = true;

        let fresh = stable_lines(&traced_run(&scenario, &oracle, &degraded, &fixed));
        let ctx = SearchContext::prepare(scenario, &degraded, 1_000).expect("context");
        let grown = stable_lines(&traced_run_on(&ctx, &oracle, &adaptive));
        assert!(
            promotion_count(&grown) > 0,
            "{id}-degraded: the adaptive run must promote"
        );
        let shared = stable_lines(&traced_run_on(&ctx, &oracle, &fixed));
        let first_difference = shared.iter().zip(&fresh).position(|(a, b)| a != b);
        assert!(
            shared.len() == fresh.len() && first_difference.is_none(),
            "{id}-degraded: a fixed search after an adaptive one on the same context \
             diverges ({} vs {} events, first difference at {first_difference:?})",
            shared.len(),
            fresh.len(),
        );
    }
}
