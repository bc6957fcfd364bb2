//! Adaptive observable promotion — co-evolving the observable set with
//! the search.
//!
//! The paper fixes the observable set once at context preparation (§5.1),
//! which stalls when the failure log is too sparse to connect the true
//! root cause: the causal graph built from the prepared observables never
//! reaches the neighbourhood of the fault, so the responsible sites are
//! either invisible to planning entirely (not graph sources, hence not
//! fault units) or share one coarse `F_i` and the search degenerates to
//! sweeping. This module makes instrumentation itself a search variable
//! (ROADMAP item 4), in the spirit of "Box of Pain" (tracing and fault
//! injection co-evolve) and Lumos (provenance-guided selection of *which*
//! program points to observe next): when the feedback strategy signals a
//! stall — the [`StrategyNote::RetryPass`](crate::trace::StrategyNote)
//! queued on the §6 window-exhaustion path — it promotes synthetic
//! observables and folds them into the live search without re-preparing
//! the context.
//!
//! Promotion is two-tier, worst blindness first:
//!
//! - **Coverage** ([`AdaptiveState::on_stall`] tier 1): a reachable
//!   candidate site with *no* fault unit has effectively infinite `F_i` —
//!   prioritized planning cannot arm it at all. The layer picks a
//!   hole-free witness log statement in the site's own function, runs one
//!   *scoped* causal build over just that witness
//!   ([`anduril_causal::build_graph`] with a single-observable set), and
//!   promotes it together with every fault unit the scoped graph newly
//!   connects.
//! - **Refinement** (tier 2): when every site is covered but the search
//!   still stalls, interior condition/invocation nodes of the *prepared*
//!   graph nearest the worst-ranked (highest finite `F_i`) sites are
//!   scored ([`anduril_causal::CausalGraph::promotion_candidates`]) and
//!   promoted when their directed distance table reaches the focus site
//!   strictly closer than any existing observable.
//!
//! Either way a promotion is a handful of incremental appends (see
//! DESIGN.md §15): one BFS for the new distance table, one witness row
//! appended to the context's observable table
//! ([`SearchContext::promote_observable`]), an optional fault-unit append
//! (coverage only), and one neutral extension of the strategy's `I_k`
//! vector ([`Strategy::observables_appended`]). No phase of
//! [`SearchContext::prepare`] reruns, and the next exploration on the same
//! context starts from the prepared table again.
//!
//! Determinism: promotion runs at one program point, the explorer's
//! note-drain between rounds, whether or not tracing is on, and every
//! input (unit list, ranking, graphs, normal-run template set) is itself
//! deterministic. Traced and untraced explorations therefore take the
//! same search path, and repeated runs emit byte-identical streams with
//! adaptation on.

use std::collections::HashSet;

use anduril_causal::{build_graph, Observable};
use anduril_ir::{BlockId, FuncId, Level, SiteId, Stmt, TemplateId};

use crate::context::{FaultUnit, SearchContext};
use crate::strategy::Strategy;
use crate::trace::TraceEvent;

/// Total promotions allowed over one exploration (caps the `I_k` growth
/// and keeps late passes comparable to early ones).
const MAX_PROMOTIONS: usize = 8;

/// Refinement (tier 2) promotions attempted per stall signal. Coverage
/// (tier 1) promotions are deliberately *not* rationed per stall: an
/// uncovered site is invisible to planning, and stalls grow rarer as
/// promotions lengthen passes, so trickling coverage out one stall at a
/// time can starve the sites found last. Only `MAX_PROMOTIONS` bounds
/// tier 1.
const PER_STALL: usize = 1;

/// How many worst-ranked sites tier 2 scores candidates around.
const FOCUS_SITES: usize = 3;

/// Configuration of the adaptive promotion layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveConfig {
    /// Master switch. Off by default: baselines and the paper-faithful
    /// pipeline keep the frozen observable set, bit for bit.
    pub enabled: bool,
}

/// Per-exploration promotion bookkeeping, owned by the explorer state.
#[derive(Debug, Default)]
pub struct AdaptiveState {
    promotions: usize,
}

impl AdaptiveState {
    /// Reacts to a stall surfaced at `round` (the retry that starts pass
    /// `pass`): promotes up to `PER_STALL` synthetic
    /// observables — coverage promotions for candidate sites no fault
    /// unit spans, then refinement promotions near the worst-ranked
    /// covered sites — into the context and the strategy, and returns one
    /// [`TraceEvent::ObservablePromoted`] per promotion for the caller to
    /// record.
    ///
    /// A candidate is only promoted when its focus site actually appears
    /// in the new distance table with a smaller `L` than the site's best
    /// existing one (an uncovered site counts as `L = ∞`) — a promotion
    /// that cannot move any `F_i` is skipped, so adaptation never spends
    /// its budget on no-ops.
    pub fn on_stall(
        &mut self,
        cfg: &AdaptiveConfig,
        ctx: &SearchContext,
        strategy: &mut dyn Strategy,
        round: usize,
        pass: usize,
    ) -> Vec<TraceEvent> {
        if !cfg.enabled || self.promotions >= MAX_PROMOTIONS {
            return Vec::new();
        }

        // Existing observable templates (prepared and already promoted)
        // are never promoted again.
        let mut exclude: HashSet<TemplateId> = (0..ctx.observable_count())
            .filter_map(|k| ctx.observable(k).map(|o| o.template))
            .collect();
        // Templates the fault-free run already emits make weak witnesses
        // (they fire every round); they are last-resort fallbacks only.
        let common: HashSet<TemplateId> = ctx.normal.log.iter().map(|e| e.template).collect();

        let mut events = Vec::new();
        self.promote_coverage(
            ctx,
            strategy,
            round,
            pass,
            &mut exclude,
            &common,
            &mut events,
        );
        self.promote_refinement(ctx, strategy, round, pass, &exclude, &common, &mut events);
        events
    }

    /// Tier 1: coverage expansion. A reachable candidate site without a
    /// fault unit is invisible to planning — the prepared observables'
    /// causal graph never reached it, so it is not a graph source. One
    /// scoped causal build over a witness in the site's own function both
    /// yields the new distance table and discovers the fault units the
    /// sparse preparation missed.
    #[allow(clippy::too_many_arguments)]
    fn promote_coverage(
        &mut self,
        ctx: &SearchContext,
        strategy: &mut dyn Strategy,
        round: usize,
        pass: usize,
        exclude: &mut HashSet<TemplateId>,
        common: &HashSet<TemplateId>,
        events: &mut Vec<TraceEvent>,
    ) {
        let program = &ctx.scenario.program;
        let mut unit_sites: HashSet<SiteId> = ctx.all_units().iter().map(|u| u.site).collect();

        let uncovered: Vec<SiteId> = ctx
            .candidate_sites
            .iter()
            .copied()
            .filter(|s| !unit_sites.contains(s) && !program.sites[s.index()].exceptions.is_empty())
            .collect();

        let mut scratch = Vec::new();
        for site in uncovered {
            if self.promotions >= MAX_PROMOTIONS {
                return;
            }
            // A later coverage promotion in this same loop may have
            // connected the site already.
            if unit_sites.contains(&site) {
                continue;
            }
            let func = program.sites[site.index()].func;
            let Some((template, level, witness_desc)) =
                coverage_witness(program, func, exclude, common)
            else {
                continue;
            };
            let (g, _timings) =
                build_graph(program, &[Observable { template }], &ctx.scenario.roots());
            let distances = g.distances_into(0, &mut scratch);
            let Some(&l_new) = distances.get(&site) else {
                continue;
            };
            let mut l_old = u32::MAX;
            ctx.for_each_distance(|_, d| {
                if let Some(&l) = d.get(&site) {
                    l_old = l_old.min(l);
                }
            });
            if l_new >= l_old {
                continue;
            }
            // Every reachable site the scoped graph connects that planning
            // could not arm before becomes a fault unit.
            let mut new_units = Vec::new();
            for s in g.sources() {
                if unit_sites.contains(&s) || !ctx.candidate_sites.contains(&s) {
                    continue;
                }
                for &exc in &program.sites[s.index()].exceptions {
                    new_units.push(FaultUnit { site: s, exc });
                }
            }
            let units_added = new_units.len();
            for u in &new_units {
                unit_sites.insert(u.site);
            }
            let node = g.sinks[0].first().copied().unwrap_or(0);
            exclude.insert(template);
            let k = ctx.promote_observable(template, level, distances, new_units);
            strategy.observables_appended(ctx, ctx.observable_count());
            self.promotions += 1;
            events.push(TraceEvent::ObservablePromoted {
                round,
                k,
                template: program.templates[template.index()].text.clone(),
                site,
                node,
                node_desc: witness_desc,
                pass,
                l_new,
                l_old,
                units_added,
            });
        }
    }

    /// Tier 2: refinement. Scores interior condition/invocation nodes of
    /// the prepared graph nearest the strategy's worst-ranked sites and
    /// promotes those whose directed distance table reaches the focus
    /// site strictly closer than any existing observable.
    #[allow(clippy::too_many_arguments)]
    fn promote_refinement(
        &mut self,
        ctx: &SearchContext,
        strategy: &mut dyn Strategy,
        round: usize,
        pass: usize,
        exclude: &HashSet<TemplateId>,
        common: &HashSet<TemplateId>,
        events: &mut Vec<TraceEvent>,
    ) {
        if events.len() >= PER_STALL || self.promotions >= MAX_PROMOTIONS {
            return;
        }
        // Worst coverage first: the tail of the strategy's own ranking is
        // the highest finite `F_i` — the sites the current observables
        // guide least.
        let ranked = strategy.ranked_sites();
        let sites: Vec<SiteId> = ranked.iter().rev().copied().take(FOCUS_SITES).collect();
        if sites.is_empty() {
            return;
        }

        let program = &ctx.scenario.program;
        let candidates = ctx
            .graph
            .promotion_candidates(program, &sites, exclude, common);

        let mut scratch = Vec::new();
        for cand in candidates {
            if events.len() >= PER_STALL || self.promotions >= MAX_PROMOTIONS {
                break;
            }
            let distances = ctx
                .graph
                .distances_from_nodes_into(&[cand.node], &mut scratch);
            // The directed distance table must reach the focus site, and
            // strictly closer than any existing observable does — that is
            // what re-shapes `F_i` around the stalled neighbourhood.
            let Some(&l_new) = distances.get(&cand.site) else {
                continue;
            };
            let mut l_old = u32::MAX;
            ctx.for_each_distance(|_, d| {
                if let Some(&l) = d.get(&cand.site) {
                    l_old = l_old.min(l);
                }
            });
            if l_new >= l_old {
                continue;
            }
            let k = ctx.promote_observable(cand.template, cand.level, distances, Vec::new());
            strategy.observables_appended(ctx, ctx.observable_count());
            self.promotions += 1;
            events.push(TraceEvent::ObservablePromoted {
                round,
                k,
                template: program.templates[cand.template.index()].text.clone(),
                site: cand.site,
                node: cand.node,
                node_desc: node_desc(program, cand.node_key),
                pass,
                l_new,
                l_old,
                units_added: 0,
            });
        }
    }
}

/// A hole-free witness log statement in `func` for a coverage promotion:
/// the first (block, statement) — in block order — whose template is not
/// already an observable, preferring templates the fault-free run never
/// emits (a failure-indicating witness gives presence feedback real
/// signal; a common one only contributes distance).
fn coverage_witness(
    program: &anduril_ir::Program,
    func: FuncId,
    exclude: &HashSet<TemplateId>,
    common: &HashSet<TemplateId>,
) -> Option<(TemplateId, Level, String)> {
    let mut fallback = None;
    for (bidx, stmts) in program.blocks.iter().enumerate() {
        let b = BlockId(bidx as u32);
        if program.func_of_block(b) != func {
            continue;
        }
        for (idx, stmt) in stmts.iter().enumerate() {
            let Stmt::Log {
                level,
                template,
                args,
                ..
            } = stmt
            else {
                continue;
            };
            if !args.is_empty() || exclude.contains(template) {
                continue;
            }
            let desc = format!(
                "log @ b{bidx}:{idx} in {}",
                program.funcs[func.index()].name
            );
            if common.contains(template) {
                if fallback.is_none() {
                    fallback = Some((*template, *level, desc));
                }
                continue;
            }
            return Some((*template, *level, desc));
        }
    }
    fallback
}

/// Human-readable description of a causal-graph interior node.
fn node_desc(program: &anduril_ir::Program, key: anduril_causal::NodeKey) -> String {
    match key {
        anduril_causal::NodeKey::Condition(sref) => {
            format!("condition @ b{}:{}", sref.block.0, sref.idx)
        }
        anduril_causal::NodeKey::Invocation(f) => {
            format!("invocation of {}", program.funcs[f.index()].name)
        }
        other => format!("{other:?}"),
    }
}
