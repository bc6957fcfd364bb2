//! End-to-end reproduce benchmark: the time from a failure case to a
//! verified repro script, over one workload, in one process on one thread.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper22 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced passes with traced ones and reports the per-layer metrics.
//! Times are scaled to a nominal host speed (see [`probe`]). The last line
//! of standard output is the result object; the line before it records
//! host, revision, workload, seed, sample counts and raw wall times. See
//! `README.md` in this directory.

mod pipeline;
mod probe;
mod report;
mod stats;
mod workloads;

use std::time::{Duration, Instant};

use pipeline::{run_case, run_case_traced, script_replays, Layers, Outcome, PHASES};
use probe::{factor, probe_ms};
use report::{git_rev, host, json_str, peak_rss_mb, result_line, Metric};
use stats::{median, percentile, quartiles};
use workloads::{elapsed_ns, setup, Corpus, SetupLayers, Size, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("corpus_ms", "ms"),
    ("case_ms_p50", "ms"),
    ("case_ms_p90", "ms"),
    ("rounds", "count"),
    ("sim_ticks", "ticks"),
    ("reproduced_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

const USAGE: &str =
    "usage: e2ebench --workload paper22|scaled|degraded|generated --seed N --seconds N --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// One pass over the corpus.
struct Pass {
    /// Raw wall time of each case.
    case_ns: Vec<u64>,
    /// Each case's time scaled to the nominal host speed, in ms.
    case_ms: Vec<f64>,
    outcomes: Vec<Result<Outcome, String>>,
    layers: Option<Layers>,
    /// Time-weighted scale factor of the pass, applied to its layer times.
    scale: f64,
}

impl Pass {
    fn raw_ms(&self) -> f64 {
        ms(self.case_ns.iter().sum())
    }

    /// The pass time scaled to the nominal host speed.
    fn scaled_ms(&self) -> f64 {
        self.case_ms.iter().sum()
    }
}

/// Runs every case once, each between two host-speed probes.
fn run_pass(corpus: &Corpus, traced: bool) -> Pass {
    let mut layers = Layers::default();
    let n = corpus.cases.len();
    let (mut case_ns, mut case_ms, mut outcomes) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut before = probe_ms();
    for case in &corpus.cases {
        let t = Instant::now();
        outcomes.push(if traced {
            run_case_traced(case, &corpus.cfg, &mut layers)
        } else {
            run_case(case, &corpus.cfg)
        });
        let ns = elapsed_ns(t);
        let after = probe_ms();
        case_ns.push(ns);
        case_ms.push(ms(ns) * factor(before, after));
        before = after;
    }
    let mut pass = Pass {
        case_ns,
        case_ms,
        outcomes,
        layers: traced.then_some(layers),
        scale: 1.0,
    };
    pass.scale = pass.scaled_ms() / pass.raw_ms();
    pass
}

/// One set-up of the workload, timed.
struct Setup {
    secs: f64,
    layers: SetupLayers,
    scale: f64,
}

/// The reference pass's outcomes plus, per case, whether it counts as
/// reproduced: the search succeeded, its own replay verified, and the
/// script replays to the oracle through `ReproScript::replay`.
struct Reference {
    outcomes: Vec<Result<Outcome, String>>,
    reproduced: Vec<bool>,
    /// Verified scripts that the replay gate rejected.
    errors: Vec<String>,
}

fn reference(corpus: &Corpus) -> Reference {
    let outcomes = run_pass(corpus, false).outcomes;
    let mut errors = Vec::new();
    let mut reproduced = Vec::with_capacity(outcomes.len());
    for (case, outcome) in corpus.cases.iter().zip(&outcomes) {
        reproduced.push(match outcome {
            Ok(Outcome {
                success: true,
                replay_verified: true,
                script: Some(script),
                ..
            }) => match script_replays(case, script) {
                Ok(true) => true,
                Ok(false) => {
                    errors.push(format!("{}: script does not replay to the oracle", case.id));
                    false
                }
                Err(e) => {
                    errors.push(format!("{}: replay gate: {e}", case.id));
                    false
                }
            },
            Ok(o) => {
                eprintln!("{}: not reproduced: {o:?}", case.id);
                false
            }
            Err(e) => {
                eprintln!("{}: {e}", case.id);
                false
            }
        });
    }
    Reference {
        outcomes,
        reproduced,
        errors,
    }
}

/// Per-case mismatches of a pass against the reference (same rounds, same
/// script text, same ticks), as messages.
fn mismatches(corpus: &Corpus, reference: &Reference, pass: &Pass) -> Vec<String> {
    corpus
        .cases
        .iter()
        .zip(&reference.outcomes)
        .zip(&pass.outcomes)
        .filter(|((_, want), got)| want != got)
        .map(|((case, want), got)| {
            let kind = if pass.layers.is_some() {
                "traced"
            } else {
                "untraced"
            };
            format!("{}: {kind} pass gave {got:?}, reference {want:?}", case.id)
        })
        .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median over passes of a per-pass quantity.
fn med<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(
    corpus: &Corpus,
    reference: &Reference,
    passes: &[Pass],
    setups: &[Setup],
) -> Result<Vec<Metric>, String> {
    let cases: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.case_ms.iter().copied())
        .collect();
    let total = |f: fn(&Outcome) -> u64| {
        reference
            .outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .map(f)
            .sum::<u64>() as f64
    };
    let reproduced = reference.reproduced.iter().filter(|&&r| r).count();
    let values = [
        med(passes, Pass::scaled_ms),
        median(&cases),
        percentile(&cases, 90.0),
        total(|o| o.rounds as u64),
        total(|o| o.sim_ticks),
        reproduced as f64 / corpus.cases.len() as f64,
        med(setups, |s| s.secs * s.scale),
        peak_rss_mb()?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect())
}

fn per_layer(untraced: &[Pass], traced: &[Pass], setups: &[Setup]) -> Vec<Metric> {
    let layers: Vec<(&Layers, f64)> = traced
        .iter()
        .filter_map(|p| Some((p.layers.as_ref()?, p.scale)))
        .collect();
    let lm = |f: fn(&Layers) -> u64| med(&layers, |&(l, scale)| ms(f(l)) * scale);
    let lc = |f: fn(&Layers) -> u64| med(&layers, |(l, _)| f(l) as f64);
    let lr = |num: fn(&Layers) -> u64, den: fn(&Layers) -> u64| {
        med(&layers, |(l, _)| num(l) as f64 / den(l).max(1) as f64)
    };
    let sm = |f: fn(&SetupLayers) -> u64| med(setups, |s| ms(f(&s.layers)) * s.scale);
    let mut out = vec![
        // Paper cases derive in the timed pass; other workloads in set-up.
        (
            "failures.case_lookup_ms",
            "ms",
            lm(|l| l.case_lookup_ns) + sm(|s| s.case_lookup_ns),
        ),
        (
            "failures.ground_truth_ms",
            "ms",
            lm(|l| l.ground_truth_ns) + sm(|s| s.ground_truth_ns),
        ),
        (
            "failures.failure_log_ms",
            "ms",
            lm(|l| l.failure_log_ns) + sm(|s| s.failure_log_ns),
        ),
        ("context.prepare_ms", "ms", lm(|l| l.prepare_ns)),
    ];
    for (i, &(_, name)) in PHASES.iter().enumerate() {
        out.push((
            name,
            "ms",
            med(&layers, |&(l, scale)| ms(l.phase_ns[i]) * scale),
        ));
    }
    out.extend([
        ("context.observables", "count", lc(|l| l.observables)),
        ("context.units", "count", lc(|l| l.units)),
        ("context.graph_nodes", "count", lc(|l| l.graph_nodes)),
        ("sim.round_ms", "ms", lm(|l| l.round_ns)),
        ("sim.steps", "count", lc(|l| l.steps)),
        (
            "sim.ns_per_step",
            "ns",
            med(&layers, |&(l, scale)| {
                l.round_ns as f64 * scale / l.steps.max(1) as f64
            }),
        ),
        ("sim.log_entries", "count", lc(|l| l.log_entries)),
        ("sim.verify_ms", "ms", lm(|l| l.verify_ns)),
        ("logdiff.round_diff_ms", "ms", lm(|l| l.diff_ns)),
        ("feedback.plan_ms", "ms", lm(|l| l.plan_ns)),
        ("feedback.update_ms", "ms", lm(|l| l.update_ns)),
        (
            "feedback.armed_mean",
            "count",
            lr(|l| l.armed, |l| l.rounds),
        ),
        (
            "feedback.inject_rate",
            "ratio",
            lr(|l| l.injected_rounds, |l| l.rounds),
        ),
        ("oracle.check_ms", "ms", lm(|l| l.oracle_ns)),
        ("adaptive.stall_ms", "ms", lm(|l| l.stall_ns)),
        ("adaptive.stalls", "count", lc(|l| l.stalls)),
        ("adaptive.promotions", "count", lc(|l| l.promotions)),
        ("gen.generate_ms", "ms", sm(|s| s.generate_ns)),
        ("gen.verify_sound_ms", "ms", sm(|s| s.verify_sound_ns)),
        (
            "trace.unattributed_pct",
            "%",
            med(&layers, |(l, _)| {
                100.0 * l.case_ns.saturating_sub(l.attributed_ns()) as f64 / l.case_ns.max(1) as f64
            }),
        ),
        (
            "trace.overhead_pct",
            "%",
            100.0 * (med(traced, Pass::scaled_ms) / med(untraced, Pass::scaled_ms) - 1.0),
        ),
    ]);
    out.into_iter()
        .map(|(name, unit, value)| Metric { name, unit, value })
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut corpus = None;
    probe_ms(); // warm-up: the first probe pays for page faults
    for _ in 0..SETUP_REPS {
        let before = probe_ms();
        let t = Instant::now();
        let c = setup(args.workload, Size::Full, args.seed)?;
        let secs = t.elapsed().as_secs_f64();
        setups.push(Setup {
            secs,
            layers: c.setup.clone(),
            scale: factor(before, probe_ms()),
        });
        corpus = Some(c);
    }
    let corpus = corpus.expect("at least one set-up");

    // The reference pass doubles as warm-up: caches fill before timing.
    let reference = reference(&corpus);
    let mut errors = reference.errors.clone();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while untraced.is_empty() || Instant::now() < deadline {
        let pass = run_pass(&corpus, false);
        errors.extend(mismatches(&corpus, &reference, &pass));
        untraced.push(pass);
        if args.trace {
            let pass = run_pass(&corpus, true);
            errors.extend(mismatches(&corpus, &reference, &pass));
            traced.push(pass);
        }
    }
    for e in errors.iter().take(20) {
        eprintln!("mismatch: {e}");
    }

    let n = corpus.cases.len() as u64;
    let attempted = n * (untraced.len() + traced.len()) as u64;
    let failed_per_pass = reference.reproduced.iter().filter(|&&r| !r).count() as u64;
    let failed = failed_per_pass * (untraced.len() + traced.len()) as u64;
    let metrics = if args.trace {
        per_layer(&untraced, &traced, &setups)
    } else {
        end_to_end(&corpus, &reference, &untraced, &setups)?
    };

    let (cores, cpu) = host();
    let scaled_walls: Vec<f64> = untraced.iter().map(Pass::scaled_ms).collect();
    let (q1, q3) = quartiles(&scaled_walls);
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cases\": {n}, \"passes\": {}, \"traced_passes\": {}, \"case_samples\": {}, \
         \"setup_reps\": {SETUP_REPS}, \"corpus_ms_q1\": {q1}, \"corpus_ms_q3\": {q3}, \
         \"raw_corpus_ms\": {}, \"raw_setup_s\": {}, \"probe_ms\": {}, \"mismatches\": {}, \
         \"host\": {{\"cores\": {cores}, \"cpu\": {}}}, \"git_rev\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        untraced.len(),
        traced.len(),
        n * untraced.len() as u64,
        med(&untraced, Pass::raw_ms),
        med(&setups, |s| s.secs),
        med(&untraced, |p| probe::PROBE_NOMINAL_MS / p.scale),
        errors.len(),
        json_str(&cpu),
        json_str(&git_rev()),
    );
    let correct = errors.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("e2ebench: correctness mismatch");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny corpus of each workload reproduces every case, passes the
    /// replay gate, and gives the same outcomes traced and untraced.
    #[test]
    fn smoke_pass_of_each_workload_passes_the_gate() {
        for workload in Workload::ALL {
            let corpus = setup(workload, Size::Smoke, 3).expect("set-up");
            let reference = reference(&corpus);
            assert!(
                reference.reproduced.iter().all(|&r| r) && reference.errors.is_empty(),
                "{}: {:?}",
                workload.name(),
                reference.outcomes
            );
            let untraced = run_pass(&corpus, false);
            let traced = run_pass(&corpus, true);
            assert!(mismatches(&corpus, &reference, &untraced).is_empty());
            assert!(mismatches(&corpus, &reference, &traced).is_empty());
            let layers = traced.layers.as_ref().expect("traced layers");
            assert!(layers.rounds > 0 && layers.prepare_ns > 0);
            assert!(layers.attributed_ns() <= layers.case_ns);
            if workload == Workload::Degraded {
                assert!(layers.stalls > 0, "the degraded smoke case stalls");
            }

            let setups = [Setup {
                secs: 0.5,
                layers: corpus.setup.clone(),
                scale: 1.0,
            }];
            let metrics = end_to_end(&corpus, &reference, &[untraced], &setups).expect("metrics");
            let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
            assert_eq!(names, expected);
            assert!(metrics.iter().all(|m| m.value > 0.0), "{metrics:?}");
            let untraced = run_pass(&corpus, false);
            let layer_metrics = per_layer(&[untraced], &[traced], &setups);
            assert_eq!(layer_metrics.len(), 34);
            result_line(true, 1, 0, &metrics);
            result_line(true, 1, 0, &layer_metrics);
        }
    }

    /// Every metric the benchmark emits is declared in `BENCHMARK.json`.
    #[test]
    fn emitted_metrics_are_declared() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let corpus = setup(Workload::Paper22, Size::Smoke, 1).expect("set-up");
        let pass = run_pass(&corpus, true);
        let declared = |name: &str| spec.contains(&format!("\"name\": \"{name}\""));
        for &(name, _) in &END_TO_END {
            assert!(declared(name), "{name}");
        }
        let untraced = run_pass(&corpus, false);
        let setups = [Setup {
            secs: 0.5,
            layers: corpus.setup.clone(),
            scale: 1.0,
        }];
        for m in per_layer(&[untraced], &[pass], &setups) {
            assert!(declared(m.name), "{}", m.name);
        }
        for w in Workload::ALL {
            assert!(declared(w.name()), "{}", w.name());
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload scaled --seed 4 --seconds 10 --trace 1")).expect("ok");
        assert_eq!(a.workload, Workload::Scaled);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10, true));
        for bad in [
            "--workload hit --seed 1 --seconds 1",
            "--workload paper22 --seed x --seconds 1",
            "--workload paper22 --seconds 1",
            "--workload paper22 --seed 1 --seconds 1 --trace 2",
            "--workload paper22 --seed 1 --seconds",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
