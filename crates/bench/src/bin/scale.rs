//! Scale stress: selected failures with 10-15x workloads, pushing dynamic
//! instance counts toward the paper's regime (its motivating example has
//! 1K+ instances of the root-cause site, only ~2 satisfying the oracle).
//! At this scale the gap between feedback-driven search and the
//! coverage-oriented strategies becomes the paper's headline gap.

use anduril_bench::{scaled, TextTable, SCALED_CASES};
use anduril_core::{
    explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, SearchContext, Strategy,
};
use anduril_sim::InjectionPlan;

fn main() {
    let mut t = TextTable::new(&[
        "Case",
        "Dyn. instances",
        "Root instances",
        "Satisfying",
        "full-feedback",
        "exhaustive",
        "fate",
    ]);
    for id in SCALED_CASES {
        let mut case = scaled(id).expect("scaled configuration");
        // New inputs, so the pin is re-derived.
        case.root_occurrence = case.scan_root_occurrence().expect("scaled ground truth");
        let gt = case.ground_truth().expect("root site");
        let normal = case
            .scenario
            .run(case.failure_seed, InjectionPlan::none())
            .expect("normal run");
        let root_instances = normal.site_occurrences[gt.site.index()];
        let total: u32 = normal.site_occurrences.iter().sum();
        // How selective is the oracle over the root site's occurrences?
        let mut satisfying = 0;
        for occ in 0..root_instances {
            let r = case
                .scenario
                .run(
                    case.failure_seed,
                    InjectionPlan::exact(gt.site, occ, gt.exc),
                )
                .expect("run");
            if r.injected.is_some() && case.oracle.check(&r) {
                satisfying += 1;
            }
        }
        let failure_log = case.failure_log().expect("failure log");
        let ctx =
            SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000).expect("context");
        let cfg = ExplorerConfig {
            max_rounds: 4_000,
            ..ExplorerConfig::default()
        };
        let mut cells = Vec::new();
        let strategies: Vec<Box<dyn Strategy>> = vec![
            Box::new(FeedbackStrategy::new(FeedbackConfig::full())),
            Box::new(FeedbackStrategy::new(FeedbackConfig::exhaustive())),
            Box::new(anduril_baselines::Fate::new()),
        ];
        for mut s in strategies {
            let r = explore(&ctx, &case.oracle, s.as_mut(), &cfg, Some(gt.site)).expect("explore");
            cells.push(if r.success {
                format!("{} rnd / {}ms", r.rounds, r.wall.as_millis())
            } else {
                "-".to_string()
            });
        }
        t.row(vec![
            id.to_string(),
            total.to_string(),
            root_instances.to_string(),
            satisfying.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);

        eprintln!("done: {id}");
    }
    println!("Scale stress: 10-15x workloads (round cap 4000)\n");
    println!("{}", t.render());
}
