//! Differential tests: the register VM against the tree-walk oracle.
//!
//! Both executors must be *byte-identical*: same log entries, same
//! fault-site trace and occurrence counters, same RNG draw order, same
//! final thread/node snapshots, same step counts. These tests pin that
//! property over all 22 failure cases (faulty and fault-free runs), over
//! whole explorations, and over the lowering pass's structural edge cases.
//!
//! Named with a `differential_` prefix so CI can verify the suite was not
//! silently filtered out.

use anduril_core::{
    explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, Reproduction, SearchContext,
};
use anduril_failures::all_cases;
use anduril_ir::builder::ProgramBuilder;
use anduril_ir::{expr as e, ExceptionType, Level, Program, Value};
use anduril_sim::{run, Engine, InjectionPlan, NodeSpec, RunResult, SimConfig, SimError, Topology};

/// Asserts every deterministic field of two run results is identical.
/// (`wall` and `decision_ns` are host-time metrics and excluded.)
fn assert_identical(tag: &str, vm: &RunResult, ast: &RunResult) {
    assert_eq!(vm.log, ast.log, "{tag}: log streams differ");
    assert_eq!(vm.trace, ast.trace, "{tag}: fault-site traces differ");
    assert_eq!(vm.injected, ast.injected, "{tag}: injected records differ");
    assert_eq!(
        vm.injected_all, ast.injected_all,
        "{tag}: injection histories differ"
    );
    assert_eq!(vm.crashed, ast.crashed, "{tag}: crash flags differ");
    assert_eq!(
        vm.site_occurrences, ast.site_occurrences,
        "{tag}: occurrence counters differ"
    );
    assert_eq!(vm.threads, ast.threads, "{tag}: thread snapshots differ");
    assert_eq!(vm.nodes, ast.nodes, "{tag}: node snapshots differ");
    assert_eq!(vm.end_time, ast.end_time, "{tag}: end times differ");
    assert_eq!(vm.steps, ast.steps, "{tag}: step counts differ");
    assert_eq!(
        vm.injection_requests, ast.injection_requests,
        "{tag}: injection request counts differ"
    );
}

/// Runs a program under both engines with the same seed and plan, and
/// asserts the results are identical. Returns the VM result.
fn run_both(
    tag: &str,
    program: &Program,
    topo: &Topology,
    cfg: &SimConfig,
    plan: InjectionPlan,
) -> RunResult {
    let vm_cfg = SimConfig {
        engine: Engine::Vm,
        ..cfg.clone()
    };
    let ast_cfg = SimConfig {
        engine: Engine::TreeWalk,
        ..cfg.clone()
    };
    let vm = run(program, topo, &vm_cfg, plan.clone()).expect("vm run");
    let ast = run(program, topo, &ast_cfg, plan).expect("tree-walk run");
    assert_identical(tag, &vm, &ast);
    vm
}

#[test]
fn differential_all_cases_byte_identical() {
    for case in all_cases() {
        let gt = case.ground_truth().expect("ground truth resolves");
        // Fault-free run.
        run_both(
            &format!("{} fault-free", case.id),
            &case.scenario.program,
            &case.scenario.topology,
            &case.scenario.config.with_seed(case.failure_seed),
            InjectionPlan::none(),
        );
        // Ground-truth injection run (the failure itself).
        run_both(
            &format!("{} ground-truth injection", case.id),
            &case.scenario.program,
            &case.scenario.topology,
            &case.scenario.config.with_seed(gt.seed),
            InjectionPlan::exact(gt.site, gt.occurrence, gt.exc),
        );
    }
}

/// Asserts the deterministic parts of two explorations agree (wall-clock
/// and decision-time metrics excluded).
fn assert_repro_agrees(tag: &str, a: &Reproduction, b: &Reproduction) {
    assert_eq!(a.success, b.success, "{tag}: success differs");
    assert_eq!(a.rounds, b.rounds, "{tag}: round counts differ");
    assert_eq!(a.script, b.script, "{tag}: reproduction scripts differ");
    assert_eq!(
        a.sim_time_total, b.sim_time_total,
        "{tag}: simulated time differs"
    );
    assert_eq!(
        a.injection_requests, b.injection_requests,
        "{tag}: injection requests differ"
    );
}

fn explore_with_engine(case_id: &str, engine: Engine) -> Reproduction {
    let case = anduril_failures::case_by_id(case_id).expect("case");
    let mut scenario = case.scenario.clone();
    scenario.config.engine = engine;
    let failure_log = case.failure_log().expect("failure log");
    let ctx = SearchContext::prepare(scenario, &failure_log, 1_000).expect("context");
    let cfg = ExplorerConfig::default();
    let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
    explore(&ctx, &case.oracle, &mut strategy, &cfg, None).expect("explore")
}

#[test]
fn differential_exploration_vm_matches_tree_walk() {
    // Whole-search agreement: the engines must produce the same round
    // sequence and the same reproduction script.
    for case_id in ["f3", "f17"] {
        let vm = explore_with_engine(case_id, Engine::Vm);
        let ast = explore_with_engine(case_id, Engine::TreeWalk);
        assert_repro_agrees(case_id, &vm, &ast);
        assert!(vm.success, "{case_id}: expected reproduction");
    }
}

// ---- lowering edge cases ---------------------------------------------------

fn one_node(program: Program, main: anduril_ir::FuncId) -> (Program, Topology) {
    let topo = Topology::new(vec![NodeSpec::new("n1", main, vec![])]);
    (program, topo)
}

#[test]
fn differential_empty_function() {
    let mut pb = ProgramBuilder::new("empty");
    let noop = pb.declare("noop", 0);
    pb.body(noop, |_| {});
    let main = pb.declare("main", 0);
    pb.body(main, |b| {
        b.call(noop, vec![]);
        b.log(Level::Info, "after empty call", vec![]);
    });
    let (program, topo) = one_node(pb.finish().unwrap(), main);
    let r = run_both(
        "empty function",
        &program,
        &topo,
        &SimConfig::default(),
        InjectionPlan::none(),
    );
    assert!(r.has_log("after empty call"));
}

#[test]
fn differential_fault_site_only_function() {
    // A function whose only statement is a fault site: the lowered block
    // is a single `External` instruction.
    let mut pb = ProgramBuilder::new("site-only");
    let touch = pb.declare("touch", 0);
    pb.body(touch, |b| {
        b.external("disk.touch", &[ExceptionType::Io]);
    });
    let main = pb.declare("main", 0);
    pb.body(main, |b| {
        b.try_catch(
            |b| {
                b.call(touch, vec![]);
                b.log(Level::Info, "touch ok", vec![]);
            },
            ExceptionType::Io,
            |b| {
                b.log(Level::Warn, "touch failed", vec![]);
            },
        );
    });
    let (program, topo) = one_node(pb.finish().unwrap(), main);
    let ok = run_both(
        "site-only fault-free",
        &program,
        &topo,
        &SimConfig::default(),
        InjectionPlan::none(),
    );
    assert!(ok.has_log("touch ok"));
    let faulty = run_both(
        "site-only injected",
        &program,
        &topo,
        &SimConfig::default(),
        InjectionPlan::exact(anduril_ir::SiteId(0), 0, ExceptionType::Io),
    );
    assert!(faulty.has_log("touch failed"));
}

#[test]
fn differential_zero_arg_templates() {
    // Zero-argument templates take the VM's pre-rendered fast path; holed
    // templates go through the segment renderer. (The builder rejects
    // hole/arg arity mismatches, so the `?` fallback is unreachable here.)
    let mut pb = ProgramBuilder::new("templates");
    let main = pb.declare("main", 0);
    pb.body(main, |b| {
        b.log(Level::Info, "plain text, no holes", vec![]);
        b.log(Level::Warn, "{}", vec![e::str_("bare hole")]);
        b.log(
            Level::Info,
            "{} leading and trailing {}",
            vec![e::int(1), e::int(2)],
        );
        b.log(
            Level::Info,
            "x={} y={} list={}",
            vec![
                e::int(-7),
                e::bool_(true),
                e::list(vec![e::int(1), e::str_("two")]),
            ],
        );
    });
    let (program, topo) = one_node(pb.finish().unwrap(), main);
    let r = run_both(
        "zero-arg templates",
        &program,
        &topo,
        &SimConfig::default(),
        InjectionPlan::none(),
    );
    assert!(r.has_log("plain text, no holes"));
    assert!(r.has_log("bare hole"));
    assert!(r.has_log("1 leading and trailing 2"));
    assert!(r.has_log("x=-7 y=true list=[1, two]"));
}

#[test]
fn differential_cross_thread_submit_await_chain() {
    // A Submit/Await chain across an executor, with a fault site inside
    // the task: exercises worker-thread naming, future completion, and
    // cross-thread exception propagation in both engines.
    let mut pb = ProgramBuilder::new("chain");
    let pool = pb.executor("pool");
    let work = pb.declare("work", 1);
    pb.body(work, |b| {
        let x = b.param(0);
        b.external("net.fetch", &[ExceptionType::Io]);
        b.ret(Some(e::add(e::var(x), e::int(1))));
    });
    let main = pb.declare("main", 0);
    pb.body(main, |b| {
        let f1 = b.local();
        let f2 = b.local();
        let v = b.local();
        b.submit(pool, work, vec![e::int(10)], f1);
        b.submit(pool, work, vec![e::int(20)], f2);
        b.try_catch(
            |b| {
                b.await_(f1, None, Some(v));
                b.log(Level::Info, "first task -> {}", vec![e::var(v)]);
                b.await_(f2, None, Some(v));
                b.log(Level::Info, "second task -> {}", vec![e::var(v)]);
            },
            ExceptionType::Execution,
            |b| {
                b.log_exc(Level::Error, "task failed", vec![]);
            },
        );
    });
    let (program, topo) = one_node(pb.finish().unwrap(), main);
    let ok = run_both(
        "submit/await fault-free",
        &program,
        &topo,
        &SimConfig::default(),
        InjectionPlan::none(),
    );
    assert!(ok.has_log("first task -> 11"));
    assert!(ok.has_log("second task -> 21"));
    let faulty = run_both(
        "submit/await injected",
        &program,
        &topo,
        &SimConfig::default(),
        InjectionPlan::exact(anduril_ir::SiteId(0), 1, ExceptionType::Io),
    );
    assert!(faulty.has_log("task failed"));
}

#[test]
fn differential_tree_walk_unavailable_without_oracle() {
    // The default build rejects Engine::TreeWalk with a clear error when
    // the oracle is compiled out; with the feature (as here) it runs.
    let mut pb = ProgramBuilder::new("t");
    let main = pb.declare("main", 0);
    pb.body(main, |b| {
        b.log(Level::Info, "hi", vec![]);
    });
    let (program, topo) = one_node(pb.finish().unwrap(), main);
    let cfg = SimConfig {
        engine: Engine::TreeWalk,
        ..SimConfig::default()
    };
    let r: Result<RunResult, SimError> = run(&program, &topo, &cfg, InjectionPlan::none());
    assert!(r.is_ok(), "oracle feature is enabled for this test target");
    // Seeds must round-trip through `with_seed` without losing the engine.
    assert_eq!(cfg.with_seed(7).engine, Engine::TreeWalk);
    let _ = Value::Unit; // silence unused-import pedantry if builders change
}
