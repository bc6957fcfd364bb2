//! Inputs shared by the root integration tests.

use anduril::failures::case_by_id;
use anduril::{Oracle, Scenario, SearchContext};

/// The degraded failure log of a case: the prepared context's nearest
/// observable stripped by the same helper the `anduril-bench` adaptive
/// ablation uses to simulate log rotation or rate limiting around the
/// failure. The result is a stall-prone context.
pub fn degraded_inputs(id: &str) -> (Scenario, Oracle, String) {
    let case = case_by_id(id).expect("case");
    let failure_log = case.failure_log().expect("failure log");
    let ctx = SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000).expect("context");
    let degraded =
        anduril_bench::strip_nearest_observable(&ctx, &failure_log).expect("an observable");
    (case.scenario.clone(), case.oracle.clone(), degraded)
}
