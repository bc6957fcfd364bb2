//! Workload sensitivity (paper §8, "Workload generation"): the same
//! failure reproduces under different driving workloads, as long as they
//! exercise the affected code path.

use anduril_bench::TextTable;
use anduril_core::{explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, SearchContext};
use anduril_failures::case_by_id;
use anduril_ir::Value;

fn main() {
    // Cases whose oracles describe the symptom independent of workload
    // volume, swept across three volumes each.
    let sweeps: &[(&str, &str, &[i64])] = &[
        ("f17", "client", &[48, 64, 96]),
        ("f21", "client", &[4, 5, 8]),
        ("f13", "client", &[6, 8, 12]),
    ];
    let mut t = TextTable::new(&["Case", "Workload arg", "GT occurrence", "Rounds", "Success"]);
    for &(id, node_name, args) in sweeps {
        for &arg in args {
            let mut case = case_by_id(id).expect("case");
            for node in &mut case.scenario.topology.nodes {
                if node.name == node_name {
                    node.args = vec![Value::Int(arg)];
                }
            }
            // New inputs, so the pin is re-derived.
            match case.scan_root_occurrence() {
                Ok(occurrence) => {
                    case.root_occurrence = occurrence;
                    let gt = case.ground_truth().expect("root site");
                    let failure_log = case.failure_log().expect("failure log");
                    let ctx = SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000)
                        .expect("context");
                    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
                    let r = explore(
                        &ctx,
                        &case.oracle,
                        &mut s,
                        &ExplorerConfig::default(),
                        Some(gt.site),
                    )
                    .expect("explore");
                    t.row(vec![
                        id.to_string(),
                        arg.to_string(),
                        gt.occurrence.to_string(),
                        r.rounds.to_string(),
                        r.success.to_string(),
                    ]);
                }
                Err(_) => {
                    t.row(vec![
                        id.to_string(),
                        arg.to_string(),
                        "-".into(),
                        "-".into(),
                        "workload misses the fault state".into(),
                    ]);
                }
            }
        }
    }
    println!("Workload sensitivity: same failure, different driving workloads\n");
    println!("{}", t.render());
}
