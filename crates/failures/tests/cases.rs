//! Per-case invariants for the 22 failure definitions.

use anduril_failures::{all_cases, case_by_id, CaseError};
use anduril_logdiff::parse_log;
use anduril_sim::InjectionPlan;

#[test]
fn lookup_by_id_and_ticket() {
    assert!(case_by_id("f1").is_some());
    assert!(case_by_id("ZK-2247").is_some());
    assert!(
        case_by_id("hb-25905").is_some(),
        "ticket lookup is case-insensitive"
    );
    assert!(case_by_id("f23").is_none());
    assert!(case_by_id("NOPE-1").is_none());

    // The registry's id/ticket columns agree with the cases its
    // constructors build, and the table is in paper order.
    let cases = all_cases();
    let ids: Vec<&str> = cases.iter().map(|c| c.id).collect();
    let expected: Vec<String> = (1..=22).map(|n| format!("f{n}")).collect();
    assert_eq!(ids, expected, "all_cases() is f1..f22 in paper order");
    let mut tickets: Vec<&str> = cases.iter().map(|c| c.ticket).collect();
    tickets.sort_unstable();
    tickets.dedup();
    assert_eq!(tickets.len(), cases.len(), "duplicate ticket");
    for case in &cases {
        for key in [case.id.to_string(), case.ticket.to_lowercase()] {
            let found = case_by_id(&key).unwrap_or_else(|| panic!("`{key}` not found"));
            assert_eq!(
                (found.id, found.ticket),
                (case.id, case.ticket),
                "`{key}` resolves to the wrong case"
            );
        }
    }
}

#[test]
fn failure_logs_parse_and_differ_from_normal_runs() {
    for case in all_cases() {
        let failure_text = case.failure_log().expect("failure log renders");
        let parsed = parse_log(&failure_text);
        assert!(
            parsed.len() >= 10,
            "{}: failure log suspiciously short ({} entries)",
            case.id,
            parsed.len()
        );
        // The failure log must be discriminative: it differs from a
        // fault-free run under the same seed (the paper's assumption that
        // logging distinguishes faulty and non-faulty executions).
        let normal = case
            .scenario
            .run(case.failure_seed, InjectionPlan::none())
            .expect("normal run");
        assert_ne!(
            normal.log_text(),
            failure_text,
            "{}: failure log identical to a fault-free run",
            case.id
        );
    }
}

/// The pinned root occurrence is ticket data that replaced a runtime
/// scan: on every case, the scan still derives exactly the pin.
#[test]
fn pin_equals_scan_on_every_case() {
    for case in all_cases() {
        let scanned = case
            .scan_root_occurrence()
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        assert_eq!(
            scanned, case.root_occurrence,
            "{}: the scan derives occurrence {scanned}, the registry pins {}",
            case.id, case.root_occurrence
        );
    }
}

/// `failure_log` keeps the correctness check the scan used to make: a pin
/// whose plan fires without satisfying the oracle (the occurrence before a
/// nonzero pin), or never fires at all, is not reproducible.
#[test]
fn pin_that_does_not_reproduce_is_rejected() {
    let mut fired_without_failing = 0;
    for case in all_cases() {
        let mut misses = vec![u32::MAX];
        if case.root_occurrence > 0 {
            misses.push(case.root_occurrence - 1);
            fired_without_failing += 1;
        }
        for occurrence in misses {
            let mut wrong = case.clone();
            wrong.root_occurrence = occurrence;
            assert!(
                matches!(wrong.failure_log(), Err(CaseError::NotReproducible(_))),
                "{}: occurrence {occurrence} renders a failure log",
                case.id
            );
        }
    }
    assert_eq!(fired_without_failing, 8, "cases pinned past occurrence 0");
}

#[test]
fn ground_truth_occurrence_is_within_observed_instances() {
    for case in all_cases() {
        let gt = case.ground_truth().expect("resolvable");
        let normal = case
            .scenario
            .run(case.failure_seed, InjectionPlan::none())
            .expect("normal run");
        let total = normal.site_occurrences[gt.site.index()];
        assert!(
            gt.occurrence < total,
            "{}: ground-truth occurrence {} outside observed range {}",
            case.id,
            gt.occurrence,
            total
        );
    }
}

#[test]
fn injecting_at_a_wrong_site_does_not_satisfy_timing_pinned_oracles() {
    // For the timing-pinned cases, a different occurrence of the root site
    // must NOT satisfy the oracle — the timing is part of the failure.
    for id in ["f1", "f13", "f20"] {
        let case = case_by_id(id).expect("case");
        let gt = case.ground_truth().expect("gt");
        let wrong_occ = if gt.occurrence == 0 {
            1
        } else {
            gt.occurrence - 1
        };
        let r = case
            .scenario
            .run(
                case.failure_seed,
                InjectionPlan::exact(gt.site, wrong_occ, gt.exc),
            )
            .expect("run");
        assert!(
            !case.oracle.check(&r),
            "{id}: occurrence {wrong_occ} also satisfies — timing is not pinned"
        );
    }
}

#[test]
fn ground_truth_sites_survive_static_pruning() {
    // The reachability pruner and the causal graph may only remove noise:
    // for every case the known root-cause site must remain (a) statically
    // reachable, (b) a causal-graph source, and (c) present among the
    // candidate units with its ground-truth exception type.
    for case in all_cases() {
        let gt = case.ground_truth().expect("resolvable");
        let failure_log = case.failure_log().expect("failure log");
        let ctx = anduril_core::SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000)
            .expect("context");
        assert!(
            ctx.candidate_sites.contains(&gt.site),
            "{}: root-cause site pruned as unreachable",
            case.id
        );
        assert!(
            ctx.graph.sources().contains(&gt.site),
            "{}: root-cause site not a causal-graph source",
            case.id
        );
        assert!(
            ctx.units
                .iter()
                .any(|u| u.site == gt.site && u.exc == gt.exc),
            "{}: ground-truth (site, exception) unit missing after pruning",
            case.id
        );
        // (d) The static occurrence bounds must leave the ground truth
        // alive: the site is not dead and the exact occurrence is feasible.
        let bound = ctx.site_bound(gt.site);
        assert!(
            !bound.is_dead(),
            "{}: root-cause site statically dead ({bound})",
            case.id
        );
        assert!(
            ctx.occurrence_feasible(gt.site, Some(gt.occurrence)),
            "{}: ground-truth occurrence {} infeasible under bound {bound}",
            case.id,
            gt.occurrence
        );
    }
}

#[test]
fn descriptions_match_paper_table5_tickets() {
    let expected: &[(&str, &str)] = &[
        ("f1", "ZK-2247"),
        ("f2", "ZK-3157"),
        ("f3", "ZK-4203"),
        ("f4", "ZK-3006"),
        ("f5", "HD-4233"),
        ("f6", "HD-12248"),
        ("f7", "HD-12070"),
        ("f8", "HD-13039"),
        ("f9", "HD-16332"),
        ("f10", "HD-14333"),
        ("f11", "HD-15032"),
        ("f12", "HB-18137"),
        ("f13", "HB-19608"),
        ("f14", "HB-19876"),
        ("f15", "HB-20583"),
        ("f16", "HB-16144"),
        ("f17", "HB-25905"),
        ("f18", "KA-12508"),
        ("f19", "KA-9374"),
        ("f20", "KA-10048"),
        ("f21", "C*-17663"),
        ("f22", "C*-6415"),
    ];
    let cases = all_cases();
    for (id, ticket) in expected {
        let case = cases.iter().find(|c| c.id == *id).expect("present");
        assert_eq!(&case.ticket, ticket);
    }
}

#[test]
fn injected_fault_types_match_paper_table5() {
    use anduril_ir::ExceptionType::*;
    for case in all_cases() {
        let expected = match case.id {
            "f5" => FileNotFound,
            "f6" => Interrupted,
            "f11" => Socket,
            _ => Io,
        };
        assert_eq!(case.root_exc, expected, "{}", case.id);
    }
}
