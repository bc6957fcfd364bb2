//! Table 7: static-analysis time breakdown per failure.
//!
//! Timings are sourced from the search-trace stream's `graph.*` context
//! phases (see `anduril-core::trace`) rather than from `ctx.timings`, so
//! the table exercises the same spans `anduril trace --summary` reports.

use anduril_bench::{phase_ns, TextTable};
use anduril_core::trace::VecTracer;
use anduril_core::SearchContext;
use anduril_failures::all_cases;

fn main() {
    let mut t = TextTable::new(&[
        "Failure",
        "LOC (IR stmts)",
        "Exception",
        "Slicing",
        "Chaining",
        "Total",
    ]);
    for case in all_cases() {
        let failure_log = case
            .failure_log()
            .unwrap_or_else(|e| panic!("{}: failure log: {e}", case.id));
        let tracer = VecTracer::new();
        SearchContext::prepare_traced(case.scenario.clone(), &failure_log, 1_000, &tracer)
            .unwrap_or_else(|e| panic!("{}: context: {e}", case.id));
        let trace = tracer.take();
        let us = |name: &str| format!("{:.1} us", phase_ns(&trace, name) as f64 / 1e3);
        t.row(vec![
            format!("{} ({})", case.ticket, case.id),
            case.scenario.program.stmt_count().to_string(),
            us("graph.exception"),
            us("graph.slicing"),
            us("graph.chaining"),
            us("graph"),
        ]);
    }
    println!("Table 7: static causal-graph analysis time breakdown\n");
    println!("{}", t.render());
}
