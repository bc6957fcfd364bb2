//! Simulation-engine microbench: the bytecode register VM against the
//! tree-walking AST interpreter on the round-execution hot loop.
//!
//! For each failure case the program is compiled once (as `SearchContext`
//! does), then both engines replay the same seed/plan schedule — half
//! fault-free rounds, half ground-truth injection rounds — through
//! `run_compiled`. Before timing, one round per case is cross-checked for
//! byte-identical results, so the numbers compare equal work.
//!
//! Emits `BENCH_sim.json` (per-case rounds/sec, ns/step, speedup, plus a
//! top-level `vm_slower_than_ast_cases` count CI can grep) and prints a
//! summary table. `--smoke` runs a reduced matrix; `--out PATH` overrides
//! the output path.

use std::time::Instant;

use anduril_bench::{median, write_report, TextTable};
use anduril_core::trace::Json;
use anduril_failures::all_cases;
use anduril_ir::lower::compile;
use anduril_sim::{run_compiled, Engine, InjectionPlan, SimConfig};

struct CaseResult {
    id: &'static str,
    rounds: usize,
    steps_per_round: u64,
    vm_ns_median: u64,
    ast_ns_median: u64,
    vm_rounds_per_sec: u64,
    ast_rounds_per_sec: u64,
    vm_ns_per_step: u64,
    ast_ns_per_step: u64,
    compile_ns: u64,
    speedup: f64,
}

fn per_sec(rounds: usize, total_ns: u64) -> u64 {
    if total_ns == 0 {
        0
    } else {
        (rounds as u128 * 1_000_000_000 / total_ns as u128) as u64
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_sim.json")
        .to_string();
    let rounds_per_engine: usize = if smoke { 40 } else { 400 };

    let mut results = Vec::new();
    let mut table = TextTable::new(&[
        "case",
        "steps/round",
        "ast (median)",
        "vm (median)",
        "vm rounds/s",
        "vm ns/step",
        "speedup",
    ]);

    for case in all_cases() {
        let gt = case.ground_truth().expect("ground truth resolves");
        let program = &case.scenario.program;
        let topo = &case.scenario.topology;

        let t = Instant::now();
        let compiled = compile(program);
        let compile_ns = t.elapsed().as_nanos() as u64;

        // The per-round schedule both engines replay: alternating
        // fault-free and ground-truth-injection rounds over rolling seeds,
        // matching the mix a feedback search actually executes.
        let schedule: Vec<(u64, InjectionPlan)> = (0..rounds_per_engine)
            .map(|i| {
                let seed = case.failure_seed + i as u64;
                let plan = if i % 2 == 0 {
                    InjectionPlan::none()
                } else {
                    InjectionPlan::exact(gt.site, gt.occurrence, gt.exc)
                };
                (seed, plan)
            })
            .collect();

        let cfg_for = |engine: Engine, seed: u64| SimConfig {
            engine,
            ..case.scenario.config.with_seed(seed)
        };

        // Untimed cross-check: the engines must agree before we compare
        // their speed.
        {
            let (seed, plan) = &schedule[0];
            let vm = run_compiled(
                program,
                &compiled,
                topo,
                &cfg_for(Engine::Vm, *seed),
                plan.clone(),
            )
            .expect("vm run");
            let ast = run_compiled(
                program,
                &compiled,
                topo,
                &cfg_for(Engine::TreeWalk, *seed),
                plan.clone(),
            )
            .expect("tree-walk run");
            assert_eq!(vm.log, ast.log, "{}: engines diverged", case.id);
            assert_eq!(vm.steps, ast.steps, "{}: engines diverged", case.id);
        }

        let time_engine = |engine: Engine| -> (Vec<u64>, u64) {
            let mut ns = Vec::with_capacity(schedule.len());
            let mut steps = 0u64;
            for (seed, plan) in &schedule {
                let cfg = cfg_for(engine, *seed);
                let t = Instant::now();
                let r = run_compiled(program, &compiled, topo, &cfg, plan.clone()).expect("run");
                ns.push(t.elapsed().as_nanos() as u64);
                steps += r.steps;
                std::hint::black_box(r);
            }
            (ns, steps)
        };

        // Warm-up pass, then interleave whole sweeps so cache and frequency
        // effects hit both engines alike.
        let _ = time_engine(Engine::Vm);
        let (mut vm_ns, vm_steps) = time_engine(Engine::Vm);
        let (mut ast_ns, ast_steps) = time_engine(Engine::TreeWalk);
        assert_eq!(vm_steps, ast_steps, "{}: step totals diverged", case.id);

        let vm_total: u64 = vm_ns.iter().sum();
        let ast_total: u64 = ast_ns.iter().sum();
        let vm_ns_median = median(&mut vm_ns);
        let ast_ns_median = median(&mut ast_ns);
        let r = CaseResult {
            id: case.id,
            rounds: schedule.len(),
            steps_per_round: vm_steps / schedule.len() as u64,
            vm_ns_median,
            ast_ns_median,
            vm_rounds_per_sec: per_sec(schedule.len(), vm_total),
            ast_rounds_per_sec: per_sec(schedule.len(), ast_total),
            vm_ns_per_step: vm_total / vm_steps.max(1),
            ast_ns_per_step: ast_total / ast_steps.max(1),
            compile_ns,
            speedup: ast_ns_median as f64 / vm_ns_median.max(1) as f64,
        };
        table.row(vec![
            r.id.to_string(),
            r.steps_per_round.to_string(),
            format!("{:.1}us", r.ast_ns_median as f64 / 1e3),
            format!("{:.1}us", r.vm_ns_median as f64 / 1e3),
            r.vm_rounds_per_sec.to_string(),
            r.vm_ns_per_step.to_string(),
            format!("{:.2}x", r.speedup),
        ]);
        results.push(r);
    }

    let slower = results.iter().filter(|r| r.speedup < 1.0).count();
    let at_2x = results.iter().filter(|r| r.speedup >= 2.0).count();

    let per_case = results.iter().map(|r| {
        Json::obj([
            ("case", r.id.into()),
            ("rounds", r.rounds.into()),
            ("steps_per_round", r.steps_per_round.into()),
            ("compile_ns", r.compile_ns.into()),
            ("vm_ns_median", r.vm_ns_median.into()),
            ("ast_ns_median", r.ast_ns_median.into()),
            ("vm_rounds_per_sec", r.vm_rounds_per_sec.into()),
            ("ast_rounds_per_sec", r.ast_rounds_per_sec.into()),
            ("vm_ns_per_step", r.vm_ns_per_step.into()),
            ("ast_ns_per_step", r.ast_ns_per_step.into()),
            ("speedup", Json::rounded(r.speedup, 3)),
        ])
    });
    let report = Json::obj([
        ("bench", "sim".into()),
        ("mode", if smoke { "smoke" } else { "full" }.into()),
        ("rounds_per_engine", rounds_per_engine.into()),
        ("cases", results.len().into()),
        ("cases_at_2x_or_better", at_2x.into()),
        ("vm_slower_than_ast_cases", slower.into()),
        ("per_case", per_case.collect()),
    ]);
    write_report(&out_path, &report);

    println!("{}", table.render());
    println!(
        "{at_2x}/{} cases at >= 2x; {slower} cases where the VM is slower than tree-walk",
        results.len()
    );
    println!("wrote {out_path}");
}
