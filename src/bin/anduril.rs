//! The `anduril` command-line tool: inspect and reproduce the bundled
//! failure cases.
//!
//! ```console
//! $ anduril list
//! $ anduril show f17
//! $ anduril log f17 | head
//! $ anduril reproduce f17 [--strategy full|exhaustive|site-distance|...]
//! ```

use anduril::baselines::{CrashTuner, Fate, StacktraceInjector};
use anduril::failures::{all_cases, case_by_id, FailureCase};
use anduril::trace::{json_escape, FileTracer, Json, NoopTracer, Tracer};
use anduril::{
    explore_traced, ExplorerConfig, FeedbackConfig, FeedbackStrategy, SearchContext, Strategy,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  anduril list\n  anduril show <case>\n  anduril log <case>\n  \
         anduril analyze [<case>|<system>|all] [--json FILE]\n  \
         anduril reproduce <case> [--strategy NAME] [--max-rounds N] [--emit-script FILE]\n  \
         {0:21}[--trace FILE] [--engine vm|ast] [--adaptive on|off]\n  \
         anduril trace <file> [--summary | --round N | --promotions | --json]\n  \
         anduril replay <case> <script-file>\n  \
         anduril explain <case>\n  \
         anduril generate [--seed S] [--count N] [--size small|medium|large]\n  \
         {0:21}[--multi-fault] [--reproduce]\n\n\
         strategies: full (default), exhaustive, site-distance, site-distance-limit3,\n\
         site-feedback, multiply, sum-aggregate, order-distance, global-diff,\n\
         fate, crashtuner, crashtuner-meta-exc, stacktrace\n\n\
         --trace FILE records the structured search-trace stream (context\n\
         phases, per-round decisions with priority provenance, feedback)\n\
         as JSONL; `anduril trace FILE` renders it\n\n\
         --engine selects the simulator executor: vm (default, bytecode\n\
         register VM) or ast (tree-walking oracle); both are byte-identical\n\n\
         --adaptive on promotes synthetic observables from causal-graph\n\
         interior nodes when the search stalls (a retry pass begins),\n\
         re-shaping priorities around the top-ranked sites; off (default)\n\
         keeps the paper's frozen observable set. Feedback-strategy\n\
         variants only\n\n\
         trace --promotions lists each promoted observable with its\n\
         provenance (source graph node, trigger pass, distance delta)\n\n\
         analyze prints the static-analysis report (site reduction, graph\n\
         size, phase timings, per-observable distances) and writes the same\n\
         data as JSON (default results/analyze.json; `--json -` for stdout)\n\n\
         generate synthesizes random well-formed scenarios with a planted\n\
         root-cause fault (ground truth correct by construction), verifies\n\
         each is sound, and with --reproduce runs the feedback explorer on\n\
         single-fault cases; --multi-fault plants a two-fault cascade",
        ""
    );
    std::process::exit(2);
}

/// Prints an error to stderr and exits nonzero. Every runtime failure path
/// (missing case, unreadable file, simulator error) funnels through here so
/// no subcommand can fail with exit 0.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("anduril: {msg}");
    std::process::exit(1);
}

/// Sorts `explain` rows by ascending priority `F_i`.
///
/// `total_cmp`, not `partial_cmp().unwrap()`: `F_i` is a sum of graph and
/// temporal terms that can degenerate to NaN (e.g. `inf - inf` when an
/// observable has no positions), and a diagnostic subcommand must render
/// such a unit — ordered after every finite priority — rather than panic.
fn sort_explanations(explanations: &mut [anduril::Explanation]) {
    explanations.sort_by(|a, b| a.f_i.total_cmp(&b.f_i));
}

/// Resolves a `<case>` argument or exits nonzero with a clear message.
fn resolve_case(arg: Option<&String>) -> FailureCase {
    let Some(id) = arg else { usage() };
    case_by_id(id).unwrap_or_else(|| {
        eprintln!("anduril: no case matches `{id}` (run `anduril list`)");
        std::process::exit(2);
    })
}

/// Per-case static-analysis report data for `anduril analyze`.
struct AnalyzeRow {
    id: &'static str,
    ticket: &'static str,
    system: &'static str,
    sites_total: usize,
    sites_reachable: usize,
    sites_bounded: usize,
    sites_inferred: usize,
    units: usize,
    nodes: usize,
    edges: usize,
    /// Fraction of the a-priori `(site, occurrence, exception)` plan space
    /// the static occurrence bounds prove infeasible.
    pruned_ratio: f64,
    /// `(site id, desc, lo, hi)` static occurrence interval per candidate site.
    site_bounds: Vec<(u32, String, u64, Option<u64>)>,
    /// Whether the ground-truth root-cause site is statically dead (`hi == 0`)
    /// — always `false` if the bounds are sound.
    gt_dead: bool,
    /// `(template text, min distance over inferred sites)` per observable.
    observables: Vec<(String, Option<u32>)>,
    timings: anduril::causal::BuildTimings,
    lints: Vec<String>,
}

fn analyze_case(case: &anduril::failures::FailureCase) -> AnalyzeRow {
    let failure_log = case
        .failure_log()
        .unwrap_or_else(|e| fail(format!("{}: failure log: {e}", case.id)));
    let ctx = SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000)
        .unwrap_or_else(|e| fail(format!("{}: context preparation: {e}", case.id)));
    let program = &ctx.scenario.program;
    let observables = ctx
        .observables
        .iter()
        .enumerate()
        .map(|(k, o)| {
            let text = program.templates[o.template.index()].text.clone();
            let min = ctx.distances[k].values().min().copied();
            (text, min)
        })
        .collect();
    let site_bounds: Vec<(u32, String, u64, Option<u64>)> = ctx
        .candidate_sites
        .iter()
        .map(|&sid| {
            let b = ctx.site_bound(sid);
            (sid.0, program.sites[sid.index()].desc.clone(), b.lo, b.hi)
        })
        .collect();
    let sites_bounded = site_bounds
        .iter()
        .filter(|(_, _, _, hi)| *hi != Some(0))
        .count();
    let gt_dead = case
        .root_site()
        .map(|sid| ctx.site_bound(sid).is_dead())
        .unwrap_or(true);
    AnalyzeRow {
        id: case.id,
        ticket: case.ticket,
        system: case.system,
        sites_total: program.sites.len(),
        sites_reachable: ctx.candidate_sites.len(),
        sites_bounded,
        sites_inferred: ctx.graph.sources().len(),
        units: ctx.units.len(),
        nodes: ctx.graph.node_count(),
        edges: ctx.graph.edge_count(),
        pruned_ratio: ctx.pruned_plan_ratio(),
        site_bounds,
        gt_dead,
        observables,
        timings: ctx.timings,
        lints: program
            .lints_with_bounds(&ctx.bounds.site_his())
            .iter()
            .map(|w| w.to_string())
            .collect(),
    }
}

fn analyze_json(rows: &[AnalyzeRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"cases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"id\": \"{}\", \"ticket\": \"{}\", \"system\": \"{}\", \
             \"sites_total\": {}, \"sites_reachable\": {}, \"sites_bounded\": {}, \
             \"sites_inferred\": {}, \
             \"units\": {}, \"nodes\": {}, \"edges\": {}, \
             \"pruned_plan_ratio\": {:.4}, \"gt_dead\": {}, \
             \"timings_ns\": {{\"exception\": {}, \"slicing\": {}, \"chaining\": {}, \"total\": {}}}, \
             \"site_bounds\": [",
            json_escape(r.id),
            json_escape(r.ticket),
            json_escape(r.system),
            r.sites_total,
            r.sites_reachable,
            r.sites_bounded,
            r.sites_inferred,
            r.units,
            r.nodes,
            r.edges,
            r.pruned_ratio,
            r.gt_dead,
            r.timings.exception_ns,
            r.timings.slicing_ns,
            r.timings.chaining_ns,
            r.timings.total_ns,
        );
        for (j, (site, desc, lo, hi)) in r.site_bounds.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"site\": {site}, \"desc\": \"{}\", \"lo\": {lo}, \"hi\": {}}}",
                if j > 0 { ", " } else { "" },
                json_escape(desc),
                hi.map(|h| h.to_string()).unwrap_or_else(|| "null".into()),
            );
        }
        out.push_str("], \"observables\": [");
        for (j, (text, min)) in r.observables.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"template\": \"{}\", \"min_distance\": {}}}",
                if j > 0 { ", " } else { "" },
                json_escape(text),
                min.map(|d| d.to_string()).unwrap_or_else(|| "null".into()),
            );
        }
        out.push_str("], \"lints\": [");
        for (j, l) in r.lints.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\"",
                if j > 0 { ", " } else { "" },
                json_escape(l)
            );
        }
        out.push_str("]}");
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `ev` kind of a parsed trace line (`"?"` when absent).
fn ev_kind(v: &Json) -> &str {
    v.get("ev").and_then(Json::as_str).unwrap_or("?")
}

fn junum(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn jstr<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("-")
}

fn jbool(v: &Json, key: &str) -> Option<bool> {
    v.get(key).and_then(Json::as_bool)
}

fn fmt_opt_f(v: Option<f64>) -> String {
    match v {
        None => "-".into(),
        Some(x) if x.fract() == 0.0 && x.abs() < 1e15 => format!("{}", x as i64),
        Some(x) => format!("{x:.2}"),
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Renders the priority provenance object of a `decision` line as a
/// compact `site#N Exc[@occ]` label.
fn fmt_candidate(p: &Json) -> String {
    format!(
        "site#{} {}{}",
        junum(p, "site"),
        jstr(p, "exc"),
        p.get("occ")
            .and_then(Json::as_u64)
            .map(|o| format!("@{o}"))
            .unwrap_or_default()
    )
}

/// Per-round aggregate built from `round_start`/`decision`/`round_end`
/// lines for the `--summary` narrative table.
#[derive(Default)]
struct TraceRoundRow {
    seed: Option<u64>,
    window: Option<u64>,
    armed: Option<u64>,
    top: Option<String>,
    f_i: Option<f64>,
    k_star: Option<u64>,
    l: Option<u64>,
    i_k: Option<f64>,
    injected: Option<String>,
    oracle: Option<bool>,
    log_entries: Option<u64>,
    init_ns: u64,
    workload_ns: u64,
}

fn collect_rounds(events: &[(String, Json)]) -> std::collections::BTreeMap<u64, TraceRoundRow> {
    let mut rounds: std::collections::BTreeMap<u64, TraceRoundRow> =
        std::collections::BTreeMap::new();
    for (_, v) in events {
        let Some(r) = v.get("round").and_then(Json::as_u64) else {
            continue;
        };
        match ev_kind(v) {
            "round_start" => {
                rounds.entry(r).or_default().seed = v.get("seed").and_then(Json::as_u64);
            }
            "decision" => {
                let row = rounds.entry(r).or_default();
                row.window = v.get("window").and_then(Json::as_u64);
                row.armed = v.get("armed").and_then(Json::as_u64);
                row.init_ns = junum(v, "init_ns");
                if let Some(p @ Json::Obj(_)) = v.get("provenance") {
                    row.top = Some(fmt_candidate(p));
                    row.f_i = p.get("f").and_then(Json::as_f64);
                    row.k_star = p.get("k").and_then(Json::as_u64);
                    row.l = p.get("l").and_then(Json::as_u64);
                    row.i_k = p.get("ik").and_then(Json::as_f64);
                }
            }
            "round_end" => {
                let row = rounds.entry(r).or_default();
                row.oracle = jbool(v, "oracle");
                row.log_entries = v.get("log_entries").and_then(Json::as_u64);
                row.workload_ns = junum(v, "workload_ns");
                row.injected = Some(match v.get("injected") {
                    Some(i @ Json::Obj(_)) => {
                        format!(
                            "site#{}@{} {}",
                            junum(i, "site"),
                            junum(i, "occ"),
                            jstr(i, "exc")
                        )
                    }
                    _ => "-".to_string(),
                });
            }
            _ => {}
        }
    }
    rounds
}

/// Picks at most `head + tail` keys, marking an elision in the middle.
fn sample_keys(keys: &[u64], head: usize, tail: usize) -> (Vec<u64>, bool) {
    if keys.len() <= head + tail {
        (keys.to_vec(), false)
    } else {
        let mut out = keys[..head].to_vec();
        out.extend_from_slice(&keys[keys.len() - tail..]);
        (out, true)
    }
}

/// `anduril trace <file> --summary`: the human-readable search narrative.
fn render_trace_summary(path: &str, events: &[(String, Json)]) {
    let find = |kind: &str| events.iter().map(|(_, v)| v).find(|v| ev_kind(v) == kind);
    let find_last = |kind: &str| {
        events
            .iter()
            .map(|(_, v)| v)
            .rev()
            .find(|v| ev_kind(v) == kind)
    };

    println!("Search trace {path} ({} events)", events.len());
    if let Some(s) = find("explore_start") {
        println!(
            "strategy: {} (max {} rounds, base seed {})",
            jstr(s, "strategy"),
            junum(s, "max_rounds"),
            junum(s, "base_seed")
        );
    }
    if let Some(c) = find("context") {
        println!(
            "context: {} observables, {} candidate units; {}/{} sites reachable; \
             causal graph {}v/{}e",
            junum(c, "observables"),
            junum(c, "units"),
            junum(c, "sites_reachable"),
            junum(c, "sites_total"),
            junum(c, "graph_nodes"),
            junum(c, "graph_edges"),
        );
    }
    match find_last("explore_end") {
        Some(e) if jbool(e, "success") == Some(true) => println!(
            "outcome: reproduced in {} rounds (replay verified: {}, wall {})",
            junum(e, "rounds"),
            jbool(e, "replay_verified").unwrap_or(false),
            fmt_ns(junum(e, "wall_ns")),
        ),
        Some(e) => println!(
            "outcome: NOT reproduced within {} rounds (wall {})",
            junum(e, "rounds"),
            fmt_ns(junum(e, "wall_ns")),
        ),
        None => println!("outcome: trace ends mid-search (no explore_end event)"),
    }

    let phases: Vec<&Json> = events
        .iter()
        .map(|(_, v)| v)
        .filter(|v| ev_kind(v) == "phase")
        .collect();
    let context_ns: u64 = phases
        .iter()
        .filter(|p| !jstr(p, "phase").starts_with("graph."))
        .map(|p| junum(p, "ns"))
        .sum();
    if !phases.is_empty() {
        println!("\nContext preparation");
        let mut t = anduril_bench::TextTable::new(&["Phase", "Items", "Time"]);
        for p in &phases {
            t.row(vec![
                jstr(p, "phase").to_string(),
                junum(p, "items").to_string(),
                fmt_ns(junum(p, "ns")),
            ]);
        }
        print!("{}", t.render());
    }

    let rounds = collect_rounds(events);
    let planning_ns: u64 = rounds.values().map(|r| r.init_ns).sum();
    let workload_ns: u64 = rounds.values().map(|r| r.workload_ns).sum();
    if !rounds.is_empty() {
        println!("\nSearch narrative (per-round decision, injection, verdict)");
        let mut t = anduril_bench::TextTable::new(&[
            "Round",
            "Seed",
            "Win",
            "Armed",
            "Top candidate",
            "F_i",
            "k*",
            "L",
            "I_k",
            "Injected",
            "Repro",
            "Log",
        ]);
        let keys: Vec<u64> = rounds.keys().copied().collect();
        let (shown, elided) = sample_keys(&keys, 12, 12);
        let mut prev: Option<u64> = None;
        for r in shown {
            if let Some(p) = prev {
                if r != p + 1 {
                    let mut gap = vec![String::new(); 12];
                    gap[0] = "...".into();
                    t.row(gap);
                }
            }
            prev = Some(r);
            let row = &rounds[&r];
            let opt_u = |x: Option<u64>| x.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
            t.row(vec![
                r.to_string(),
                opt_u(row.seed),
                opt_u(row.window),
                opt_u(row.armed),
                row.top.clone().unwrap_or_else(|| "-".into()),
                fmt_opt_f(row.f_i),
                opt_u(row.k_star),
                opt_u(row.l),
                fmt_opt_f(row.i_k),
                row.injected.clone().unwrap_or_else(|| "-".into()),
                row.oracle
                    .map(|b| if b { "YES" } else { "no" }.to_string())
                    .unwrap_or_else(|| "-".into()),
                opt_u(row.log_entries),
            ]);
        }
        print!("{}", t.render());
        if elided {
            println!("(middle rounds elided; {} rounds total)", keys.len());
        }
    }

    let feedback: Vec<&Json> = events
        .iter()
        .map(|(_, v)| v)
        .filter(|v| ev_kind(v) == "feedback")
        .collect();
    if !feedback.is_empty() {
        println!("\nObservable feedback (I_k evolution, Algorithm 2)");
        let mut t = anduril_bench::TextTable::new(&["Round", "Adjust", "Present", "I_k"]);
        let keys: Vec<u64> = (0..feedback.len() as u64).collect();
        let (shown, elided) = sample_keys(&keys, 6, 6);
        let mut prev: Option<u64> = None;
        for i in shown {
            if let Some(p) = prev {
                if i != p + 1 {
                    let mut gap = vec![String::new(); 4];
                    gap[0] = "...".into();
                    t.row(gap);
                }
            }
            prev = Some(i);
            let v = feedback[i as usize];
            let present = v
                .get("present")
                .and_then(Json::as_arr)
                .map(|xs| {
                    let body: Vec<String> = xs
                        .iter()
                        .filter_map(Json::as_u64)
                        .map(|x| x.to_string())
                        .collect();
                    format!("[{}]", body.join(","))
                })
                .unwrap_or_else(|| "-".into());
            let ik = v
                .get("ik")
                .and_then(Json::as_arr)
                .map(|xs| {
                    let body: Vec<String> = xs.iter().map(|x| fmt_opt_f(x.as_f64())).collect();
                    format!("[{}]", body.join(", "))
                })
                .unwrap_or_else(|| "-".into());
            t.row(vec![
                junum(v, "round").to_string(),
                fmt_opt_f(v.get("adjust").and_then(Json::as_f64)),
                present,
                ik,
            ]);
        }
        print!("{}", t.render());
        if elided {
            println!("(middle adjustments elided; {} total)", feedback.len());
        }
    }

    println!("\nTiming");
    let n = rounds.len().max(1) as u64;
    println!("  context prep : {}", fmt_ns(context_ns));
    println!(
        "  planning     : {} total, {} / round",
        fmt_ns(planning_ns),
        fmt_ns(planning_ns / n)
    );
    println!(
        "  workload     : {} total, {} / round",
        fmt_ns(workload_ns),
        fmt_ns(workload_ns / n)
    );

    let notes: Vec<&Json> = events
        .iter()
        .map(|(_, v)| v)
        .filter(|v| ev_kind(v) == "note")
        .collect();
    if !notes.is_empty() {
        let retry = notes
            .iter()
            .filter(|v| jstr(v, "note") == "retry_pass")
            .count();
        let exhausted = notes
            .iter()
            .filter(|v| jstr(v, "note") == "window_exhausted")
            .count();
        let grew: Vec<u64> = notes
            .iter()
            .filter(|v| jstr(v, "note") == "window_grew")
            .map(|v| junum(v, "window"))
            .collect();
        let retired = notes
            .iter()
            .filter(|v| jstr(v, "note") == "retired")
            .count();
        let bound_pruned: u64 = notes
            .iter()
            .filter(|v| jstr(v, "note") == "bound_pruned")
            .map(|v| junum(v, "count"))
            .sum();
        println!(
            "\nLifecycle: {} windows exhausted, {} retry passes, {} window growths{}, \
             {} candidates retired, {} plans bound-pruned",
            exhausted,
            retry,
            grew.len(),
            grew.iter()
                .max()
                .map(|w| format!(" (max window {w})"))
                .unwrap_or_default(),
            retired,
            bound_pruned
        );
    }

    let promos: Vec<&Json> = events
        .iter()
        .map(|(_, v)| v)
        .filter(|v| ev_kind(v) == "promoted")
        .collect();
    if !promos.is_empty() {
        println!(
            "\nAdaptive promotions ({}; `--promotions` for detail)",
            promos.len()
        );
        for p in &promos {
            println!(
                "  round {} pass {}: k = {} \"{}\" from {} (L {} -> {} at site#{})",
                junum(p, "round"),
                junum(p, "pass"),
                junum(p, "k"),
                jstr(p, "template"),
                jstr(p, "node_desc"),
                junum(p, "l_old"),
                junum(p, "l_new"),
                junum(p, "site"),
            );
        }
    }

    if let Some(p) = find_last("provenance") {
        println!("\nProvenance chain");
        println!(
            "  round {} (seed {}): injected {} at `{}` occurrence {}",
            junum(p, "round"),
            junum(p, "seed"),
            jstr(p, "exc"),
            jstr(p, "desc"),
            junum(p, "occ")
        );
        println!(
            "  prioritized by observable k* = {} \"{}\"",
            junum(p, "k"),
            jstr(p, "observable")
        );
        println!(
            "  L = {}, I_k = {}, F_i = {}, T = {}",
            junum(p, "l"),
            fmt_opt_f(p.get("ik").and_then(Json::as_f64)),
            fmt_opt_f(p.get("f").and_then(Json::as_f64)),
            fmt_opt_f(p.get("t").and_then(Json::as_f64)),
        );
    }
}

/// `anduril trace <file> --round N`: every event of one round, rendered.
fn render_trace_round(events: &[(String, Json)], n: u64) {
    let mut found = false;
    for (_, v) in events {
        if v.get("round").and_then(Json::as_u64) != Some(n) {
            continue;
        }
        found = true;
        match ev_kind(v) {
            "round_start" => println!("round {n} starts (seed {})", junum(v, "seed")),
            "decision" => {
                let prov = match v.get("provenance") {
                    Some(p @ Json::Obj(_)) => format!(
                        "; top {} — F_i = {} via k* = {} (L = {}, I_k = {}), T = {}",
                        fmt_candidate(p),
                        fmt_opt_f(p.get("f").and_then(Json::as_f64)),
                        junum(p, "k"),
                        junum(p, "l"),
                        fmt_opt_f(p.get("ik").and_then(Json::as_f64)),
                        fmt_opt_f(p.get("t").and_then(Json::as_f64)),
                    ),
                    _ => String::new(),
                };
                println!(
                    "  decision: window {}, {} armed{prov} [planned in {}]",
                    junum(v, "window"),
                    junum(v, "armed"),
                    fmt_ns(junum(v, "init_ns"))
                );
            }
            "note" => match jstr(v, "note") {
                "retry_pass" => println!("  note: retry pass {} begins", junum(v, "pass")),
                "window_exhausted" => println!(
                    "  note: window of {} exhausted in pass {}",
                    junum(v, "window"),
                    junum(v, "pass")
                ),
                "window_grew" => println!("  note: window grew to {}", junum(v, "window")),
                "retired" => println!(
                    "  note: retired site#{} {}",
                    junum(v, "site"),
                    jstr(v, "exc")
                ),
                "bound_pruned" => println!(
                    "  note: {} plans pruned by static occurrence bounds",
                    junum(v, "count")
                ),
                other => println!("  note: {other}"),
            },
            "promoted" => println!(
                "  promoted: k = {} \"{}\" from node #{} ({}) — L {} -> {} at site#{} \
                 [stall in pass {}]",
                junum(v, "k"),
                jstr(v, "template"),
                junum(v, "node"),
                jstr(v, "node_desc"),
                junum(v, "l_old"),
                junum(v, "l_new"),
                junum(v, "site"),
                junum(v, "pass")
            ),
            "round_end" => {
                let inj = match v.get("injected") {
                    Some(i @ Json::Obj(_)) => format!(
                        "injected site#{} occ {} {}",
                        junum(i, "site"),
                        junum(i, "occ"),
                        jstr(i, "exc")
                    ),
                    _ => "no injection".to_string(),
                };
                println!(
                    "  end: {inj}; failure reproduced = {}; {} ticks, {} steps, {} log \
                     entries, {} injection requests [workload {}]",
                    jbool(v, "oracle").unwrap_or(false),
                    junum(v, "ticks"),
                    junum(v, "steps"),
                    junum(v, "log_entries"),
                    junum(v, "injection_requests"),
                    fmt_ns(junum(v, "workload_ns"))
                );
            }
            "feedback" => {
                let present = v
                    .get("present")
                    .and_then(Json::as_arr)
                    .map(|xs| {
                        let body: Vec<String> = xs
                            .iter()
                            .filter_map(Json::as_u64)
                            .map(|x| x.to_string())
                            .collect();
                        body.join(", ")
                    })
                    .unwrap_or_default();
                let ik = v
                    .get("ik")
                    .and_then(Json::as_arr)
                    .map(|xs| {
                        let body: Vec<String> = xs.iter().map(|x| fmt_opt_f(x.as_f64())).collect();
                        body.join(", ")
                    })
                    .unwrap_or_default();
                println!(
                    "  feedback: adjust {} on present observables [{present}]; I_k now [{ik}]",
                    fmt_opt_f(v.get("adjust").and_then(Json::as_f64))
                );
            }
            "provenance" => println!(
                "  provenance: {} at `{}` occurrence {} — observable k* = {} \"{}\", \
                 L = {}, I_k = {}, F_i = {}",
                jstr(v, "exc"),
                jstr(v, "desc"),
                junum(v, "occ"),
                junum(v, "k"),
                jstr(v, "observable"),
                junum(v, "l"),
                fmt_opt_f(v.get("ik").and_then(Json::as_f64)),
                fmt_opt_f(v.get("f").and_then(Json::as_f64))
            ),
            _ => {}
        }
    }
    if !found {
        fail(format!("no events for round {n} in the trace"));
    }
}

/// `anduril trace <file> --promotions`: every adaptive observable
/// promotion with its full provenance.
fn render_trace_promotions(events: &[(String, Json)]) {
    let promos: Vec<&Json> = events
        .iter()
        .map(|(_, v)| v)
        .filter(|v| ev_kind(v) == "promoted")
        .collect();
    if promos.is_empty() {
        println!("no observable promotions in the trace (run with --adaptive on)");
        return;
    }
    println!("Adaptive observable promotions ({})", promos.len());
    let mut t = anduril_bench::TextTable::new(&[
        "Round",
        "Pass",
        "k",
        "Template",
        "Source node",
        "Site",
        "L_new",
        "L_old",
        "Delta",
        "Units",
    ]);
    for p in &promos {
        t.row(vec![
            junum(p, "round").to_string(),
            junum(p, "pass").to_string(),
            junum(p, "k").to_string(),
            format!("\"{}\"", jstr(p, "template")),
            format!("#{} {}", junum(p, "node"), jstr(p, "node_desc")),
            format!("site#{}", junum(p, "site")),
            junum(p, "l_new").to_string(),
            junum(p, "l_old").to_string(),
            p.get("delta")
                .and_then(Json::as_f64)
                .map(|d| format!("{}", d as i64))
                .unwrap_or_else(|| "-".into()),
            format!("+{}", junum(p, "units_added")),
        ]);
    }
    print!("{}", t.render());
    println!(
        "(promotion at round R reshapes priorities from round R+1 on; \
         Delta = L_old - L_new at the focus site; Units = fault units the \
         promotion's scoped causal build newly connected)"
    );
}

/// `anduril trace <file> --json`: the aggregate summary as one JSON
/// document (raw event objects embedded verbatim where useful).
fn trace_report_json(events: &[(String, Json)]) -> String {
    use std::fmt::Write as _;
    let find_raw = |kind: &str| {
        events
            .iter()
            .find(|(_, v)| ev_kind(v) == kind)
            .map(|(raw, _)| raw.trim().to_string())
            .unwrap_or_else(|| "null".into())
    };
    let rounds = collect_rounds(events);
    let planning_ns: u64 = rounds.values().map(|r| r.init_ns).sum();
    let workload_ns: u64 = rounds.values().map(|r| r.workload_ns).sum();
    let note_count = |name: &str| {
        events
            .iter()
            .filter(|(_, v)| ev_kind(v) == "note" && jstr(v, "note") == name)
            .count()
    };
    let phases: Vec<String> = events
        .iter()
        .filter(|(_, v)| ev_kind(v) == "phase")
        .map(|(raw, _)| raw.trim().to_string())
        .collect();

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"events\": {},", events.len());
    let _ = writeln!(out, "  \"explore_start\": {},", find_raw("explore_start"));
    let _ = writeln!(out, "  \"context\": {},", find_raw("context"));
    let _ = writeln!(out, "  \"phases\": [{}],", phases.join(", "));
    let _ = writeln!(out, "  \"rounds\": {},", rounds.len());
    let _ = writeln!(out, "  \"planning_ns_total\": {planning_ns},");
    let _ = writeln!(out, "  \"workload_ns_total\": {workload_ns},");
    let bound_pruned: u64 = events
        .iter()
        .map(|(_, v)| v)
        .filter(|v| ev_kind(v) == "note" && jstr(v, "note") == "bound_pruned")
        .map(|v| junum(v, "count"))
        .sum();
    let _ = writeln!(
        out,
        "  \"notes\": {{\"retry_passes\": {}, \"windows_exhausted\": {}, \"window_growths\": {}, \"retired\": {}, \"bound_pruned_plans\": {bound_pruned}}},",
        note_count("retry_pass"),
        note_count("window_exhausted"),
        note_count("window_grew"),
        note_count("retired")
    );
    let promotions: Vec<String> = events
        .iter()
        .filter(|(_, v)| ev_kind(v) == "promoted")
        .map(|(raw, _)| raw.trim().to_string())
        .collect();
    let _ = writeln!(out, "  \"promotions\": [{}],", promotions.join(", "));
    let _ = writeln!(out, "  \"provenance\": {},", find_raw("provenance"));
    let _ = writeln!(out, "  \"explore_end\": {}", find_raw("explore_end"));
    out.push_str("}\n");
    out
}

fn feedback_config_by_name(name: &str) -> Option<FeedbackConfig> {
    Some(match name {
        "full" => FeedbackConfig::full(),
        "exhaustive" => FeedbackConfig::exhaustive(),
        "site-distance" => FeedbackConfig::site_distance(),
        "site-distance-limit3" => FeedbackConfig::site_distance_limited(),
        "site-feedback" => FeedbackConfig::site_feedback(),
        "multiply" => FeedbackConfig::multiply(),
        "sum-aggregate" => FeedbackConfig::sum_aggregate(),
        "order-distance" => FeedbackConfig::order_distance(),
        "global-diff" => FeedbackConfig::global_diff(),
        _ => return None,
    })
}

fn strategy_by_name(name: &str) -> Option<Box<dyn Strategy>> {
    if let Some(cfg) = feedback_config_by_name(name) {
        return Some(Box::new(FeedbackStrategy::new(cfg)));
    }
    Some(match name {
        "fate" => Box::new(Fate::new()),
        "crashtuner" => Box::new(CrashTuner::crashes()),
        "crashtuner-meta-exc" => Box::new(CrashTuner::meta_exceptions()),
        "stacktrace" => Box::new(StacktraceInjector::new()),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("{:4} {:10} {:10} description", "id", "ticket", "system");
            for c in all_cases() {
                println!(
                    "{:4} {:10} {:10} {}",
                    c.id, c.ticket, c.system, c.description
                );
            }
        }
        Some("show") => {
            let case = resolve_case(args.get(1));
            println!("{} ({}) on {}", case.ticket, case.id, case.system);
            println!("  {}", case.description);
            println!("  root cause : {} ({})", case.root_site_desc, case.root_exc);
            match case.ground_truth() {
                Ok(gt) => println!(
                    "  ground truth: occurrence {} under seed {}",
                    gt.occurrence, gt.seed
                ),
                Err(e) => println!("  ground truth: UNRESOLVABLE ({e})"),
            }
            for d in &case.deeper_causes {
                println!("  deeper cause: {} ({}) — {}", d.site_desc, d.exc, d.note);
            }
        }
        Some("log") => {
            let case = resolve_case(args.get(1));
            match case.failure_log() {
                Ok(log) => print!("{log}"),
                Err(e) => fail(format!("{}: failure log: {e}", case.id)),
            }
        }
        Some("analyze") => {
            let mut selector = "all".to_string();
            let mut json_path: Option<String> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--json" => {
                        json_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                        i += 2;
                    }
                    s if i == 1 => {
                        selector = s.to_string();
                        i += 1;
                    }
                    _ => usage(),
                }
            }
            // A case id or ticket builds just that case; otherwise the
            // selector names a system or `all`.
            let cases: Vec<_> = match case_by_id(&selector.to_ascii_lowercase()) {
                Some(case) => vec![case],
                None => all_cases()
                    .into_iter()
                    .filter(|c| {
                        selector.eq_ignore_ascii_case("all")
                            || c.system.eq_ignore_ascii_case(&selector)
                    })
                    .collect(),
            };
            if cases.is_empty() {
                eprintln!("no case or system matches `{selector}`");
                std::process::exit(2);
            }
            let rows: Vec<AnalyzeRow> = cases.iter().map(analyze_case).collect();

            // With `--json -` the machine-readable document owns stdout, so
            // the human-readable report moves to stderr and stays pipeable.
            let json_stdout = json_path.as_deref() == Some("-");
            let mut report = String::new();
            use std::fmt::Write as _;

            writeln!(
                report,
                "Static analysis report (fault-site reduction and causal-graph shape)\n"
            )
            .unwrap_or_else(|e| fail(format!("analyze: cannot format report: {e}")));
            let mut t = anduril_bench::TextTable::new(&[
                "Case", "Ticket", "System", "Sites", "Reach", "Bound", "Inferred", "Units",
                "Nodes", "Edges", "Pruned%", "Obs", "MinDist", "Exc us", "Slice us", "Chain us",
                "Total us",
            ]);
            let mut last_system = "";
            for r in &rows {
                let mindist = r
                    .observables
                    .iter()
                    .map(|(_, m)| m.map(|d| d.to_string()).unwrap_or_else(|| "-".into()))
                    .collect::<Vec<_>>()
                    .join("/");
                t.row(vec![
                    r.id.to_string(),
                    r.ticket.to_string(),
                    if r.system == last_system {
                        String::new()
                    } else {
                        r.system.to_string()
                    },
                    r.sites_total.to_string(),
                    r.sites_reachable.to_string(),
                    r.sites_bounded.to_string(),
                    r.sites_inferred.to_string(),
                    r.units.to_string(),
                    r.nodes.to_string(),
                    r.edges.to_string(),
                    format!("{:.1}", 100.0 * r.pruned_ratio),
                    r.observables.len().to_string(),
                    mindist,
                    (r.timings.exception_ns / 1_000).to_string(),
                    (r.timings.slicing_ns / 1_000).to_string(),
                    (r.timings.chaining_ns / 1_000).to_string(),
                    (r.timings.total_ns / 1_000).to_string(),
                ]);
                last_system = r.system;
            }
            write!(report, "{}", t.render())
                .unwrap_or_else(|e| fail(format!("analyze: cannot format report: {e}")));
            writeln!(
                report,
                "\nSites = static fault sites; Reach = reachable from the workload \
                 roots; Bound = reachable sites the occurrence bounds leave alive \
                 (hi != 0); Inferred = causal-graph sources; Units = (site, exception) \
                 candidates after pruning; Pruned% = plan-space fraction the static \
                 occurrence bounds prove infeasible; MinDist = per-observable minimum \
                 source distance."
            )
            .unwrap_or_else(|e| fail(format!("analyze: cannot format report: {e}")));
            for r in &rows {
                for l in &r.lints {
                    writeln!(report, "lint [{}]: {}", r.id, l)
                        .unwrap_or_else(|e| fail(format!("analyze: cannot format report: {e}")));
                }
            }
            if json_stdout {
                eprint!("{report}");
            } else {
                print!("{report}");
            }

            let json = analyze_json(&rows);
            match json_path.as_deref() {
                Some("-") => print!("{json}"),
                Some(path) => {
                    std::fs::write(path, &json)
                        .unwrap_or_else(|e| fail(format!("cannot write `{path}`: {e}")));
                    println!("\nJSON written to {path}");
                }
                None => {
                    std::fs::create_dir_all("results")
                        .unwrap_or_else(|e| fail(format!("cannot create results dir: {e}")));
                    std::fs::write("results/analyze.json", &json)
                        .unwrap_or_else(|e| fail(format!("cannot write analyze.json: {e}")));
                    println!("\nJSON written to results/analyze.json");
                }
            }
        }
        Some("reproduce") => {
            let case = resolve_case(args.get(1));
            let mut strategy_name = "full".to_string();
            let mut max_rounds = 2_000usize;
            let mut emit_script: Option<String> = None;
            let mut trace_path: Option<String> = None;
            let mut engine: Option<anduril::sim::Engine> = None;
            let mut adaptive = false;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--strategy" => {
                        strategy_name = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--max-rounds" => {
                        max_rounds = args
                            .get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--emit-script" => {
                        emit_script = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                        i += 2;
                    }
                    "--trace" => {
                        trace_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                        i += 2;
                    }
                    "--engine" => {
                        engine = Some(
                            args.get(i + 1)
                                .and_then(|s| anduril::sim::Engine::parse(s))
                                .unwrap_or_else(|| usage()),
                        );
                        i += 2;
                    }
                    "--adaptive" => {
                        adaptive = match args.get(i + 1).map(String::as_str) {
                            Some("on") => true,
                            Some("off") => false,
                            _ => usage(),
                        };
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            let file_tracer = trace_path.as_deref().map(|path| {
                FileTracer::create(path)
                    .unwrap_or_else(|e| fail(format!("cannot create trace file `{path}`: {e}")))
            });
            let tracer: &dyn Tracer = match &file_tracer {
                Some(t) => t,
                None => &NoopTracer,
            };
            let gt = case
                .ground_truth()
                .unwrap_or_else(|e| fail(format!("{}: ground truth: {e}", case.id)));
            let failure_log = case
                .failure_log_for(&gt)
                .unwrap_or_else(|e| fail(format!("{}: failure log: {e}", case.id)));
            let mut scenario = case.scenario.clone();
            if let Some(e) = engine {
                scenario.config.engine = e;
            }
            let ctx = SearchContext::prepare_traced(scenario, &failure_log, 1_000, tracer)
                .unwrap_or_else(|e| fail(format!("{}: context preparation: {e}", case.id)));
            eprintln!(
                "{}: {} observables, {} candidate units, causal graph {}v/{}e",
                case.id,
                ctx.observables.len(),
                ctx.units.len(),
                ctx.graph.node_count(),
                ctx.graph.edge_count()
            );
            let mut cfg = ExplorerConfig {
                max_rounds,
                ..ExplorerConfig::default()
            };
            cfg.adaptive.enabled = adaptive;
            let mut strategy = strategy_by_name(&strategy_name).unwrap_or_else(|| usage());
            let r = explore_traced(
                &ctx,
                &case.oracle,
                strategy.as_mut(),
                &cfg,
                Some(gt.site),
                tracer,
            )
            .unwrap_or_else(|e| fail(format!("{}: exploration: {e}", case.id)));
            if let Some(path) = &trace_path {
                tracer.flush();
                eprintln!("trace written to {path}");
            }
            if r.success {
                println!(
                    "reproduced in {} rounds ({} sim ticks, {:?} wall) with {}",
                    r.rounds, r.sim_time_total, r.wall, r.strategy
                );
                if let Some(s) = r.script {
                    println!(
                        "script: seed {} inject {} at `{}` occurrence {} (replay verified: {})",
                        s.seed, s.exc, s.desc, s.occurrence, r.replay_verified
                    );
                    if let Some(path) = emit_script {
                        std::fs::write(&path, s.to_text())
                            .unwrap_or_else(|e| fail(format!("cannot write `{path}`: {e}")));
                        println!("script written to {path}");
                    }
                }
            } else {
                println!(
                    "NOT reproduced within {} rounds with {}",
                    r.rounds, r.strategy
                );
                std::process::exit(1);
            }
        }
        Some("trace") => {
            let Some(path) = args.get(1) else { usage() };
            enum Mode {
                Summary,
                Round(u64),
                Promotions,
                Json,
            }
            let mut mode = Mode::Summary;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--summary" => {
                        mode = Mode::Summary;
                        i += 1;
                    }
                    "--round" => {
                        let n = args
                            .get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                        mode = Mode::Round(n);
                        i += 2;
                    }
                    "--promotions" => {
                        mode = Mode::Promotions;
                        i += 1;
                    }
                    "--json" => {
                        mode = Mode::Json;
                        i += 1;
                    }
                    _ => usage(),
                }
            }
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read `{path}`: {e}")));
            let mut events: Vec<(String, Json)> = Vec::new();
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let v = Json::parse(line)
                    .unwrap_or_else(|| fail(format!("{path}:{}: malformed JSON", lineno + 1)));
                if v.get("ev").and_then(Json::as_str).is_none() {
                    fail(format!(
                        "{path}:{}: not a trace event (no `ev` key)",
                        lineno + 1
                    ));
                }
                events.push((line.to_string(), v));
            }
            if events.is_empty() {
                fail(format!("`{path}` contains no trace events"));
            }
            match mode {
                Mode::Summary => render_trace_summary(path, &events),
                Mode::Round(n) => render_trace_round(&events, n),
                Mode::Promotions => render_trace_promotions(&events),
                Mode::Json => print!("{}", trace_report_json(&events)),
            }
        }
        Some("explain") => {
            let case = resolve_case(args.get(1));
            let failure_log = case
                .failure_log()
                .unwrap_or_else(|e| fail(format!("{}: failure log: {e}", case.id)));
            let ctx = SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000)
                .unwrap_or_else(|e| fail(format!("{}: context preparation: {e}", case.id)));
            let mut s = FeedbackStrategy::new(FeedbackConfig::full());
            s.init(&ctx);
            let _ = s.plan_round(&ctx, 0);
            println!(
                "{}: initial priority breakdown (F_i = L + I via argmin observable k*)",
                case.id
            );
            println!(
                "{:32} {:>5} {:>4} {:>5} {:>5} {:>10} {:>6}",
                "site", "F_i", "k*", "L", "I_k", "best occ", "T"
            );
            let mut explanations: Vec<_> = ctx
                .units
                .iter()
                .filter_map(|&u| s.explain(&ctx, u))
                .collect();
            sort_explanations(&mut explanations);
            for ex in explanations {
                let (occ, t) = ex
                    .best_instance
                    .map(|(o, t)| (format!("{o:?}"), format!("{t:.1}")))
                    .unwrap_or(("-".into(), "-".into()));
                println!(
                    "{:32} {:>5} {:>4} {:>5} {:>5} {:>10} {:>6}",
                    ctx.scenario.program.sites[ex.unit.site.index()].desc,
                    ex.f_i,
                    ex.k_star,
                    ex.l,
                    ex.i_k,
                    occ,
                    t
                );
            }
        }
        Some("generate") => {
            let mut seed = 1u64;
            let mut count = 10usize;
            let mut size = anduril::gen::SizeClass::Small;
            let mut multi_fault = false;
            let mut reproduce = false;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--seed" => {
                        seed = args
                            .get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--count" => {
                        count = args
                            .get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--size" => {
                        size = args
                            .get(i + 1)
                            .and_then(|s| anduril::gen::SizeClass::parse(s))
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--multi-fault" => {
                        multi_fault = true;
                        i += 1;
                    }
                    "--reproduce" => {
                        reproduce = true;
                        i += 1;
                    }
                    _ => usage(),
                }
            }
            let cfg = anduril::gen::GenConfig {
                seed,
                size,
                multi_fault,
            };
            println!(
                "{:8} {:>5} {:>5} {:>5} {:>6} {:24} {:7} sound",
                "id", "nodes", "funcs", "sites", "stmts", "planted", "seed"
            );
            for idx in 0..count {
                let gc = anduril::gen::generate_one(&cfg, idx)
                    .unwrap_or_else(|e| fail(format!("case {idx}: {e}")));
                let planted = gc
                    .plant
                    .iter()
                    .map(|f| {
                        let desc = &gc.case.scenario.program.sites[f.site.index()].desc;
                        format!("{desc}@{}", f.occurrence)
                    })
                    .collect::<Vec<_>>()
                    .join(" + ");
                let sound = match anduril::gen::verify_sound(&gc) {
                    Ok(()) => "yes".to_string(),
                    Err(e) => format!("NO ({e})"),
                };
                println!(
                    "{:8} {:>5} {:>5} {:>5} {:>6} {:24} {:7} {}",
                    gc.case.id,
                    gc.nodes,
                    gc.funcs,
                    gc.sites,
                    gc.stmts,
                    planted,
                    gc.case.failure_seed,
                    sound
                );
                if reproduce && !gc.is_multi_fault() {
                    let ctx =
                        SearchContext::prepare(gc.case.scenario.clone(), &gc.failure_log, 1_000)
                            .unwrap_or_else(|e| fail(format!("{}: context: {e}", gc.case.id)));
                    let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
                    let repro = explore_traced(
                        &ctx,
                        &gc.case.oracle,
                        &mut strategy,
                        &ExplorerConfig::default(),
                        None,
                        &NoopTracer,
                    )
                    .unwrap_or_else(|e| fail(format!("{}: explore: {e}", gc.case.id)));
                    println!(
                        "         rediscovered = {} in {} rounds",
                        repro.success, repro.rounds
                    );
                }
            }
        }
        Some("replay") => {
            let case = resolve_case(args.get(1));
            let path = args.get(2).unwrap_or_else(|| usage());
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read `{path}`: {e}")));
            let script = anduril::ReproScript::parse(&text)
                .unwrap_or_else(|| fail(format!("malformed script `{path}`")));
            let r = script
                .replay(&case.scenario)
                .unwrap_or_else(|e| fail(format!("replay failed: {e}")));
            println!(
                "replayed {}: oracle satisfied = {}",
                case.id,
                case.oracle.check(&r)
            );
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::sort_explanations;
    use anduril::ir::{ExceptionType, SiteId};
    use anduril::{Explanation, FaultUnit};

    fn row(site: u32, f_i: f64) -> Explanation {
        Explanation {
            unit: FaultUnit {
                site: SiteId(site),
                exc: ExceptionType::Io,
            },
            f_i,
            k_star: 0,
            l: 0,
            i_k: 0.0,
            best_instance: None,
            rank: None,
        }
    }

    /// A NaN priority (possible when an observable's temporal term
    /// degenerates) must sort after every finite row, not panic the
    /// subcommand like the old `partial_cmp().unwrap()` did.
    #[test]
    fn explain_sort_survives_nan_priorities() {
        let mut rows = vec![
            row(0, 2.0),
            row(1, f64::NAN),
            row(2, 1.0),
            row(3, f64::INFINITY),
            row(4, -1.0),
        ];
        sort_explanations(&mut rows);
        let order: Vec<u32> = rows.iter().map(|e| e.unit.site.0).collect();
        assert_eq!(order, vec![4, 2, 0, 3, 1]);
        assert!(rows.last().unwrap().f_i.is_nan());
    }
}
