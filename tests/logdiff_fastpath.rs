//! The per-round observable presence the explorer hands to strategies —
//! a per-thread diff over the simulator's structured entries and interned
//! `u32` tokens — equals a reference computed from the text a production
//! log would hold: every round log rendered, re-parsed, and diffed by
//! `(level, body)` string keys with logdiff's `compare_with`, plus a
//! `(level, body)` scan for the witness rows the adaptive layer appends.
//!
//! A wrapper strategy checks the presence of every round of real
//! explorations, then forwards the round to the feedback strategy, so the
//! search itself is unchanged.

mod common;

use std::collections::HashSet;

use anduril::failures::case_by_id;
use anduril::logdiff::{compare_with, parse_log, GroupedLog};
use anduril::sim::{Candidate, InjectionPlan, RunResult};
use anduril::{
    explore, Explanation, ExplorerConfig, FaultUnit, FeedbackConfig, FeedbackStrategy, Oracle,
    PlanProvenance, Reproduction, RoundOutcome, SearchContext, Strategy, StrategyNote,
};
use common::degraded_inputs;

/// Presence from the text round trip and string-keyed diffs.
fn reference_present(ctx: &SearchContext, result: &RunResult) -> Vec<usize> {
    let parsed = parse_log(&result.log_text());
    let missing: HashSet<usize> =
        compare_with(&parsed, &ctx.failure, &GroupedLog::new(&ctx.failure))
            .missing
            .into_iter()
            .collect();
    (0..ctx.observable_count())
        .filter(|&k| {
            let o = ctx.observable(k).expect("row in range");
            match o.witness {
                None => o.positions.iter().any(|p| !missing.contains(p)),
                Some(level) => {
                    let body = &ctx.scenario.program.templates[o.template.index()].text;
                    parsed.iter().any(|e| e.level == level && &e.body == body)
                }
            }
        })
        .collect()
}

/// [`FeedbackStrategy`] with every round's presence checked against
/// [`reference_present`].
struct Checked {
    inner: FeedbackStrategy,
    id: String,
    /// Rounds checked while the table had appended rows.
    rounds_with_appended: usize,
    /// Rounds in which some appended row was present.
    appended_present: usize,
}

impl Checked {
    fn new(id: &str) -> Self {
        Checked {
            inner: FeedbackStrategy::new(FeedbackConfig::full()),
            id: id.to_string(),
            rounds_with_appended: 0,
            appended_present: 0,
        }
    }
}

impl Strategy for Checked {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn init(&mut self, ctx: &SearchContext) {
        self.inner.init(ctx)
    }
    fn plan_round(&mut self, ctx: &SearchContext, round: usize) -> Vec<Candidate> {
        self.inner.plan_round(ctx, round)
    }
    fn plan_injection(&mut self, ctx: &SearchContext, round: usize) -> Option<InjectionPlan> {
        self.inner.plan_injection(ctx, round)
    }
    fn feedback(&mut self, ctx: &SearchContext, outcome: &RoundOutcome) {
        let reference = reference_present(ctx, &outcome.result);
        assert_eq!(outcome.present, reference, "{}: round presence", self.id);
        let prepared = ctx.observables.len();
        if ctx.observable_count() > prepared {
            self.rounds_with_appended += 1;
            self.appended_present += usize::from(reference.iter().any(|&k| k >= prepared));
        }
        self.inner.feedback(ctx, outcome)
    }
    fn site_rank(&self, site: anduril::ir::SiteId) -> Option<usize> {
        self.inner.site_rank(site)
    }
    fn provenance(&self) -> Option<PlanProvenance> {
        self.inner.provenance()
    }
    fn explain_unit(&self, ctx: &SearchContext, unit: FaultUnit) -> Option<Explanation> {
        self.inner.explain_unit(ctx, unit)
    }
    fn feedback_view(&self) -> Option<(f64, Vec<f64>)> {
        self.inner.feedback_view()
    }
    fn drain_notes(&mut self) -> Vec<StrategyNote> {
        self.inner.drain_notes()
    }
    fn ranked_sites(&self) -> Vec<anduril::ir::SiteId> {
        self.inner.ranked_sites()
    }
    fn observables_appended(&mut self, ctx: &SearchContext, total: usize) {
        self.inner.observables_appended(ctx, total)
    }
}

/// Explores `ctx` with a [`Checked`] feedback strategy, returning the
/// strategy for its counters.
fn checked_run(
    id: &str,
    ctx: &SearchContext,
    oracle: &Oracle,
    cfg: &ExplorerConfig,
) -> (Reproduction, Checked) {
    let mut strategy = Checked::new(id);
    let r = explore(ctx, oracle, &mut strategy, cfg, None).expect("explore");
    (r, strategy)
}

/// All 22 cases with the paper's frozen observable set.
#[test]
fn fast_path_matches_text_baseline() {
    for i in 1..=22 {
        let id = format!("f{i}");
        let case = case_by_id(&id).expect("case");
        let failure_log = case.failure_log().expect("failure log");
        let ctx =
            SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000).expect("context");
        let (r, _) = checked_run(&id, &ctx, &case.oracle, &ExplorerConfig::default());
        assert!(r.success, "{id}: must reproduce");
    }
}

/// The four degraded stall cases with adaptation on, so rounds run with
/// appended witness rows in the table.
#[test]
fn appended_rows_match_witness_scan() {
    let mut rounds_with_appended = 0;
    let mut appended_present = 0;
    for id in ["f5", "f11", "f18", "f22"] {
        let (scenario, oracle, degraded) = degraded_inputs(id);
        let ctx = SearchContext::prepare(scenario, &degraded, 1_000).expect("context");
        let mut cfg = ExplorerConfig {
            max_rounds: 600,
            verify_replay: false,
            ..ExplorerConfig::default()
        };
        cfg.adaptive.enabled = true;
        let (r, strategy) = checked_run(id, &ctx, &oracle, &cfg);
        assert!(
            r.success,
            "{id}-degraded: adaptation must rescue the search"
        );
        assert!(
            strategy.rounds_with_appended > 0,
            "{id}-degraded: no round ran with appended rows"
        );
        rounds_with_appended += strategy.rounds_with_appended;
        appended_present += strategy.appended_present;
    }
    eprintln!(
        "{rounds_with_appended} rounds with appended rows, {appended_present} with one present"
    );
    assert!(appended_present > 0, "no appended witness was ever present");
}
