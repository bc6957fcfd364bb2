//! Inputs shared by the root integration tests.

use anduril::failures::case_by_id;
use anduril::{Oracle, Scenario, SearchContext};

/// The degraded failure log of a case: every entry (line plus
/// continuation lines) of the prepared context's nearest observable
/// stripped, the way the `anduril-bench` adaptive ablation simulates log
/// rotation or rate limiting around the failure. The result is a
/// stall-prone context.
pub fn degraded_inputs(id: &str) -> (Scenario, Oracle, String) {
    let case = case_by_id(id).expect("case");
    let failure_log = case.failure_log().expect("failure log");
    let ctx = SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000).expect("context");
    let nearest = (0..ctx.observables.len())
        .filter_map(|k| ctx.distances[k].values().min().map(|&d| (d, k)))
        .min()
        .map(|(_, k)| k)
        .expect("at least one observable");
    let template = &ctx.scenario.program.templates[ctx.observables[nearest].template.index()];
    let mut degraded = String::new();
    let mut drop = false;
    for line in failure_log.lines() {
        let is_entry = line.len() > 9
            && line.as_bytes()[..8].iter().all(u8::is_ascii_digit)
            && line.as_bytes()[8] == b' ';
        if is_entry {
            drop = line
                .split_once(" - ")
                .map(|(_, body)| template.matches(body))
                .unwrap_or(false);
        }
        if !drop {
            degraded.push_str(line);
            degraded.push('\n');
        }
    }
    (case.scenario.clone(), case.oracle.clone(), degraded)
}
