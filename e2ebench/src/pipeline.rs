//! One case, from its input to a verified repro script: untraced through
//! the library's own `explore`, or traced by driving the same public round
//! calls `explore` makes and timing each layer from outside.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use anduril_core::{
    explore, AdaptiveState, ExplorerConfig, FaultUnit, FeedbackConfig, FeedbackStrategy, Oracle,
    ReproScript, RoundOutcome, Scenario, SearchContext, Strategy, StrategyNote, TraceEvent,
    VecTracer,
};
use anduril_failures::case_by_id;
use anduril_ir::SiteId;
use anduril_sim::InjectionPlan;

use crate::workloads::{elapsed_ns, CaseInput, Source};

/// What one case run produced. Two runs of the same case must agree on
/// every field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Injection rounds executed.
    pub rounds: usize,
    /// Simulated ticks: the normal run plus every round.
    pub sim_ticks: u64,
    /// Whether a round satisfied the oracle.
    pub success: bool,
    /// Whether the explorer's own replay of the script satisfied the oracle.
    pub replay_verified: bool,
    /// The emitted script, as text.
    pub script: Option<String>,
}

/// Context-preparation phases as `prepare_traced` names them, with the
/// metric each is reported under.
pub const PHASES: [(&str, &str); 9] = [
    ("sim.compile", "context.compile_ms"),
    ("normal_run", "context.normal_run_ms"),
    ("parse_logs", "context.parse_ms"),
    ("diff", "context.diff_ms"),
    ("observables", "context.observables_ms"),
    ("graph", "context.graph_ms"),
    ("distances", "context.distances_ms"),
    ("alignment", "context.alignment_ms"),
    ("pruning", "context.pruning_ms"),
];

/// Layer time (host nanoseconds) and work counts accumulated over the
/// cases of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Whole-case time, from case input to verified script.
    pub case_ns: u64,
    /// `case_by_id`.
    pub case_lookup_ns: u64,
    /// `FailureCase::ground_truth`.
    pub ground_truth_ns: u64,
    /// `FailureCase::failure_log`.
    pub failure_log_ns: u64,
    /// `SearchContext::prepare_traced`, including the scenario clone it
    /// consumes.
    pub prepare_ns: u64,
    /// Per-phase preparation time, indexed like [`PHASES`].
    pub phase_ns: [u64; PHASES.len()],
    /// Prepared observables.
    pub observables: u64,
    /// Prepared fault units.
    pub units: u64,
    /// Causal-graph nodes.
    pub graph_nodes: u64,
    /// Strategy `init`, `plan_injection` and `site_rank`.
    pub plan_ns: u64,
    /// Note draining and `AdaptiveState::on_stall`.
    pub stall_ns: u64,
    /// `SearchContext::run_round` for search rounds.
    pub round_ns: u64,
    /// `Oracle::check` on round results.
    pub oracle_ns: u64,
    /// Strategy `explain_unit` and `feedback`.
    pub update_ns: u64,
    /// `RoundOutcome::new`: the per-round log diff.
    pub diff_ns: u64,
    /// The explorer's replay of the emitted script.
    pub verify_ns: u64,
    /// Rounds run.
    pub rounds: u64,
    /// Rounds in which a fault fired.
    pub injected_rounds: u64,
    /// Candidates armed, summed over rounds.
    pub armed: u64,
    /// Simulator steps over search rounds.
    pub steps: u64,
    /// Log entries emitted over search rounds.
    pub log_entries: u64,
    /// Stall signals (retry passes).
    pub stalls: u64,
    /// Observables promoted by the adaptive layer.
    pub promotions: u64,
}

impl Layers {
    /// Time covered by some layer.
    pub fn attributed_ns(&self) -> u64 {
        self.case_lookup_ns
            + self.ground_truth_ns
            + self.failure_log_ns
            + self.prepare_ns
            + self.plan_ns
            + self.stall_ns
            + self.round_ns
            + self.oracle_ns
            + self.update_ns
            + self.diff_ns
            + self.verify_ns
    }
}

/// Runs `f`, turning a panic into an error so it counts as a failed case.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

/// Runs one case along the `anduril reproduce` path, untraced.
pub fn run_case(input: &CaseInput, cfg: &ExplorerConfig) -> Result<Outcome, String> {
    guarded(|| match &input.source {
        Source::Registry(id) => {
            let case = case_by_id(id).ok_or_else(|| format!("no case {id}"))?;
            let gt = case.ground_truth().map_err(|e| e.to_string())?;
            let log = case.failure_log().map_err(|e| e.to_string())?;
            search(&case.scenario, &log, &case.oracle, cfg, Some(gt.site))
        }
        Source::Prepared {
            case,
            failure_log,
            ground_truth,
        } => search(
            &case.scenario,
            failure_log,
            &case.oracle,
            cfg,
            *ground_truth,
        ),
    })
}

fn search(
    scenario: &Scenario,
    failure_log: &str,
    oracle: &Oracle,
    cfg: &ExplorerConfig,
    ground_truth: Option<SiteId>,
) -> Result<Outcome, String> {
    let ctx = SearchContext::prepare(scenario.clone(), failure_log, cfg.base_seed)
        .map_err(|e| format!("context: {e}"))?;
    let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
    let r = explore(&ctx, oracle, &mut strategy, cfg, ground_truth)
        .map_err(|e| format!("explore: {e}"))?;
    Ok(Outcome {
        rounds: r.rounds,
        sim_ticks: r.sim_time_total,
        success: r.success,
        replay_verified: r.replay_verified,
        script: r.script.map(|s| s.to_text()),
    })
}

/// Runs one case with every layer timed from outside, adding into `layers`.
pub fn run_case_traced(
    input: &CaseInput,
    cfg: &ExplorerConfig,
    layers: &mut Layers,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let out = guarded(|| match &input.source {
        Source::Registry(id) => {
            let t = Instant::now();
            let case = case_by_id(id).ok_or_else(|| format!("no case {id}"))?;
            layers.case_lookup_ns += elapsed_ns(t);
            let t = Instant::now();
            let gt = case.ground_truth().map_err(|e| e.to_string())?;
            layers.ground_truth_ns += elapsed_ns(t);
            let t = Instant::now();
            let log = case.failure_log().map_err(|e| e.to_string())?;
            layers.failure_log_ns += elapsed_ns(t);
            search_traced(
                &case.scenario,
                &log,
                &case.oracle,
                cfg,
                Some(gt.site),
                layers,
            )
        }
        Source::Prepared {
            case,
            failure_log,
            ground_truth,
        } => search_traced(
            &case.scenario,
            failure_log,
            &case.oracle,
            cfg,
            *ground_truth,
            layers,
        ),
    });
    layers.case_ns += elapsed_ns(start);
    out
}

fn search_traced(
    scenario: &Scenario,
    failure_log: &str,
    oracle: &Oracle,
    cfg: &ExplorerConfig,
    ground_truth: Option<SiteId>,
    layers: &mut Layers,
) -> Result<Outcome, String> {
    let tracer = VecTracer::new();
    let t = Instant::now();
    let ctx = SearchContext::prepare_traced(scenario.clone(), failure_log, cfg.base_seed, &tracer)
        .map_err(|e| format!("context: {e}"))?;
    layers.prepare_ns += elapsed_ns(t);
    for event in tracer.take() {
        match event {
            TraceEvent::ContextPhase { phase, ns, .. } => {
                if let Some(i) = PHASES.iter().position(|&(p, _)| p == phase) {
                    layers.phase_ns[i] += ns;
                }
            }
            TraceEvent::ContextReady {
                observables,
                units,
                graph_nodes,
                ..
            } => {
                layers.observables += observables as u64;
                layers.units += units as u64;
                layers.graph_nodes += graph_nodes as u64;
            }
            _ => {}
        }
    }
    explore_by_layer(&ctx, oracle, cfg, ground_truth, layers)
}

/// The sequential explorer's round loop, rebuilt from the public calls it
/// makes, in the same order, so that it takes the same search path.
fn explore_by_layer(
    ctx: &SearchContext,
    oracle: &Oracle,
    cfg: &ExplorerConfig,
    ground_truth: Option<SiteId>,
    layers: &mut Layers,
) -> Result<Outcome, String> {
    assert_eq!(
        cfg.extra_feedback_runs, 0,
        "extra feedback runs are not traced"
    );
    let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
    let mut adaptive = AdaptiveState::default();
    let t = Instant::now();
    strategy.init(ctx);
    layers.plan_ns += elapsed_ns(t);
    let mut sim_ticks = ctx.normal.end_time;
    let mut rounds = 0;
    for round in 0..cfg.max_rounds {
        let t = Instant::now();
        let plan = strategy.plan_injection(ctx, round);
        let _rank = ground_truth.and_then(|s| strategy.site_rank(s));
        layers.plan_ns += elapsed_ns(t);
        let Some(plan) = plan else {
            drain_notes(ctx, cfg, &mut strategy, &mut adaptive, round, layers);
            break;
        };
        layers.armed += (plan.candidates.len() + usize::from(plan.crash_at.is_some())) as u64;
        drain_notes(ctx, cfg, &mut strategy, &mut adaptive, round, layers);

        let seed = cfg.base_seed + 1 + round as u64;
        let t = Instant::now();
        let result = ctx
            .run_round(seed, plan)
            .map_err(|e| format!("round {round}: {e}"))?;
        layers.round_ns += elapsed_ns(t);
        rounds += 1;
        sim_ticks += result.end_time;
        layers.rounds += 1;
        layers.steps += result.steps;
        layers.log_entries += result.log.len() as u64;
        let injected = result
            .injected
            .as_ref()
            .map(|r| (r.candidate.site, r.occurrence, r.candidate.exc));
        layers.injected_rounds += u64::from(injected.is_some());

        let t = Instant::now();
        let satisfied = oracle.check(&result) && (injected.is_some() || result.crashed);
        layers.oracle_ns += elapsed_ns(t);
        let t = Instant::now();
        let _k_star =
            injected.and_then(|(site, _, exc)| strategy.explain_unit(ctx, FaultUnit { site, exc }));
        layers.update_ns += elapsed_ns(t);

        if satisfied {
            let Some((site, occurrence, exc)) = injected else {
                return Ok(Outcome {
                    rounds,
                    sim_ticks,
                    success: true,
                    replay_verified: false,
                    script: None,
                });
            };
            let script = ReproScript {
                seed,
                site,
                occurrence,
                exc,
                desc: ctx.scenario.program.sites[site.index()].desc.clone(),
            };
            let t = Instant::now();
            let replay_verified = cfg.verify_replay
                && ctx
                    .run_round(seed, InjectionPlan::exact(site, occurrence, exc))
                    .map(|r| oracle.check(&r))
                    .unwrap_or(false);
            layers.verify_ns += elapsed_ns(t);
            return Ok(Outcome {
                rounds,
                sim_ticks,
                success: true,
                replay_verified,
                script: Some(script.to_text()),
            });
        }

        let t = Instant::now();
        let outcome = RoundOutcome::new(ctx, result);
        layers.diff_ns += elapsed_ns(t);
        let t = Instant::now();
        strategy.feedback(ctx, &outcome);
        layers.update_ns += elapsed_ns(t);
        drain_notes(ctx, cfg, &mut strategy, &mut adaptive, round, layers);
    }
    Ok(Outcome {
        rounds,
        sim_ticks,
        success: false,
        replay_verified: false,
        script: None,
    })
}

/// Drains the strategy's notes and lets the adaptive layer react to each
/// stall, as the explorer does between rounds.
fn drain_notes(
    ctx: &SearchContext,
    cfg: &ExplorerConfig,
    strategy: &mut FeedbackStrategy,
    adaptive: &mut AdaptiveState,
    round: usize,
    layers: &mut Layers,
) {
    let t = Instant::now();
    for note in strategy.drain_notes() {
        if let StrategyNote::RetryPass { pass } = note {
            layers.stalls += 1;
            let events = adaptive.on_stall(&cfg.adaptive, ctx, strategy, round, pass);
            layers.promotions += events
                .iter()
                .filter(|e| matches!(e, TraceEvent::ObservablePromoted { .. }))
                .count() as u64;
        }
    }
    layers.stall_ns += elapsed_ns(t);
}

/// The correctness gate: the emitted script, replayed through
/// `ReproScript::replay` on the case's own scenario, satisfies the oracle.
pub fn script_replays(input: &CaseInput, script: &str) -> Result<bool, String> {
    let script = ReproScript::parse(script).ok_or("script does not parse")?;
    guarded(|| {
        let owned;
        let case = match &input.source {
            Source::Registry(id) => {
                owned = case_by_id(id).ok_or_else(|| format!("no case {id}"))?;
                &owned
            }
            Source::Prepared { case, .. } => case,
        };
        let r = script
            .replay(&case.scenario)
            .map_err(|e| format!("replay: {e}"))?;
        Ok(case.oracle.check(&r))
    })
}
