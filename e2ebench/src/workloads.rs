//! The four workloads and their set-up: which cases a pass runs, and what
//! is built before the first timed pass.

use std::time::Instant;

use anduril_core::{ExplorerConfig, SearchContext};
use anduril_failures::{all_cases, case_by_id, FailureCase};
use anduril_gen::{generate_one, verify_sound, GenConfig, SizeClass};
use anduril_ir::{LogTemplate, SiteId, Value};

/// A named set of inputs the benchmark runs, each stressing one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 22 paper cases, each run along the CLI path from case lookup on.
    Paper22,
    /// f17, f1 and f16 at 10–15× topologies; failure logs derived in set-up.
    Scaled,
    /// The 22 cases with their nearest observable stripped from the failure
    /// log, explored with adaptive promotion on.
    Degraded,
    /// Fifteen large generated single-fault cases with planted failure logs.
    Generated,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper22,
        Workload::Scaled,
        Workload::Degraded,
        Workload::Generated,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper22 => "paper22",
            Workload::Scaled => "scaled",
            Workload::Degraded => "degraded",
            Workload::Generated => "generated",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much of a workload to build: the full corpus, or a few cases for
/// the test suite's smoke pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured corpus.
    Full,
    /// A tiny corpus that still exercises every layer of the workload.
    Smoke,
}

/// The `generated` corpus: what `anduril generate --size large --count 15`
/// prints with its default generator seed. With fifteen cases the 90th
/// percentile of case times falls mid-way through the second-slowest
/// case's samples; with the default ten it falls on the edge between the
/// two slowest cases and jumps between them from run to run.
const GENERATED_SEED: u64 = 1;
const GENERATED_CASES: usize = 15;

/// Where a case's failure log comes from.
pub enum Source {
    /// The `anduril reproduce` path: the timed pass looks the case up,
    /// resolves its ground truth and derives its failure log.
    Registry(&'static str),
    /// The case and its failure log were built during set-up; the timed
    /// pass starts at context preparation.
    Prepared {
        /// The (possibly scaled or generated) case.
        case: Box<FailureCase>,
        /// The failure log handed to context preparation.
        failure_log: String,
        /// Root-cause site, passed to the explorer for its rank trace only.
        ground_truth: Option<SiteId>,
    },
}

/// One case of a corpus.
pub struct CaseInput {
    /// Case id, for messages.
    pub id: String,
    /// Its inputs.
    pub source: Source,
}

/// Time spent in set-up in layers that also have per-pass metrics.
#[derive(Debug, Clone, Default)]
pub struct SetupLayers {
    /// `case_by_id` / `all_cases` registry builds.
    pub case_lookup_ns: u64,
    /// `FailureCase::ground_truth` occurrence scans.
    pub ground_truth_ns: u64,
    /// `FailureCase::failure_log` derivations.
    pub failure_log_ns: u64,
    /// `anduril_gen::generate_one` calls.
    pub generate_ns: u64,
    /// `anduril_gen::verify_sound` calls.
    pub verify_sound_ns: u64,
}

/// A workload's built inputs.
pub struct Corpus {
    /// Cases in the order every pass runs them.
    pub cases: Vec<CaseInput>,
    /// Explorer configuration shared by every case.
    pub cfg: ExplorerConfig,
    /// Layer time spent building the corpus.
    pub setup: SetupLayers,
}

/// Builds a workload's corpus from the workload seed.
///
/// Every workload runs a fixed case set, so rounds and simulated ticks
/// repeat exactly from run to run; the seed fixes the order in which the
/// cases run within a pass.
pub fn setup(workload: Workload, size: Size, seed: u64) -> Result<Corpus, String> {
    let mut layers = SetupLayers::default();
    let mut cfg = ExplorerConfig::default();
    let mut cases = match workload {
        Workload::Paper22 => {
            let ids: Vec<&'static str> = match size {
                Size::Full => all_cases().iter().map(|c| c.id).collect(),
                Size::Smoke => vec!["f3", "f2"],
            };
            ids.into_iter()
                .map(|id| CaseInput {
                    id: id.to_string(),
                    source: Source::Registry(id),
                })
                .collect()
        }
        Workload::Scaled => {
            let ids: &[&str] = match size {
                Size::Full => &["f17", "f1", "f16"],
                Size::Smoke => &["f1"],
            };
            let mut out = Vec::new();
            for &id in ids {
                let t = Instant::now();
                let case = case_by_id(id).ok_or_else(|| format!("no case {id}"))?;
                layers.case_lookup_ns += elapsed_ns(t);
                let case = scaled(case)?;
                let (gt, failure_log) = derive(&case, &mut layers)?;
                out.push(prepared(case, failure_log, Some(gt)));
            }
            out
        }
        Workload::Degraded => {
            cfg.adaptive.enabled = true;
            let t = Instant::now();
            let mut all = all_cases();
            layers.case_lookup_ns += elapsed_ns(t);
            if size == Size::Smoke {
                all.retain(|c| ["f18", "f3"].contains(&c.id));
            }
            let mut out = Vec::new();
            for case in all {
                let (_, failure_log) = derive(&case, &mut layers)?;
                let failure_log = degrade(&case, failure_log)?;
                // As in the adaptive ablation: no rank trace on degraded logs.
                out.push(prepared(case, failure_log, None));
            }
            out
        }
        Workload::Generated => {
            let gen = GenConfig {
                seed: GENERATED_SEED,
                size: match size {
                    Size::Full => SizeClass::Large,
                    Size::Smoke => SizeClass::Small,
                },
                multi_fault: false,
            };
            let count = match size {
                Size::Full => GENERATED_CASES,
                Size::Smoke => 1,
            };
            let mut out = Vec::new();
            for index in 0..count {
                let t = Instant::now();
                let gc = generate_one(&gen, index).map_err(|e| format!("generate {index}: {e}"))?;
                layers.generate_ns += elapsed_ns(t);
                let t = Instant::now();
                verify_sound(&gc).map_err(|e| format!("{}: unsound: {e}", gc.case.id))?;
                layers.verify_sound_ns += elapsed_ns(t);
                out.push(prepared(gc.case, gc.failure_log, None));
            }
            out
        }
    };
    shuffle(&mut cases, seed);
    Ok(Corpus {
        cases,
        cfg,
        setup: layers,
    })
}

/// Resolves a case's ground truth site and failure log during set-up.
fn derive(case: &FailureCase, layers: &mut SetupLayers) -> Result<(SiteId, String), String> {
    let t = Instant::now();
    let gt = case
        .ground_truth()
        .map_err(|e| format!("{}: ground truth: {e}", case.id))?;
    layers.ground_truth_ns += elapsed_ns(t);
    let t = Instant::now();
    let failure_log = case
        .failure_log()
        .map_err(|e| format!("{}: failure log: {e}", case.id))?;
    layers.failure_log_ns += elapsed_ns(t);
    Ok((gt.site, failure_log))
}

fn prepared(case: FailureCase, failure_log: String, ground_truth: Option<SiteId>) -> CaseInput {
    CaseInput {
        id: case.id.to_string(),
        source: Source::Prepared {
            case: Box::new(case),
            failure_log,
            ground_truth,
        },
    }
}

/// Strips the prepared observable nearest any candidate site from the
/// failure log, simulating rotation that drops the most telling messages.
/// A case with a single observable keeps its log: the search needs some
/// failure-only signal.
fn degrade(case: &FailureCase, failure_log: String) -> Result<String, String> {
    let ctx = SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000)
        .map_err(|e| format!("{}: context: {e}", case.id))?;
    if ctx.observables.len() < 2 {
        return Ok(failure_log);
    }
    let nearest = (0..ctx.observables.len())
        .filter_map(|k| ctx.distances[k].values().min().map(|&d| (d, k)))
        .min()
        .map(|(_, k)| k);
    Ok(match nearest {
        Some(k) => {
            let template = &ctx.scenario.program.templates[ctx.observables[k].template.index()];
            strip_template(&failure_log, template)
        }
        None => failure_log,
    })
}

/// Drops every entry of a rendered log whose body matches `template`,
/// together with its continuation lines (exception name, `at` frames).
pub fn strip_template(text: &str, template: &LogTemplate) -> String {
    let mut out = String::new();
    let mut keep = true;
    for line in text.lines() {
        let bytes = line.as_bytes();
        let starts_entry =
            bytes.len() > 9 && bytes[..8].iter().all(u8::is_ascii_digit) && bytes[8] == b' ';
        if starts_entry {
            keep = !line
                .split_once(" - ")
                .is_some_and(|(_, body)| template.matches(body));
        }
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The 10–15× topology of a case, as the `scale` bench configures it.
pub fn scaled(mut case: FailureCase) -> Result<FailureCase, String> {
    let set_args = |case: &mut FailureCase, node: &str, args: Vec<Value>| {
        for n in &mut case.scenario.topology.nodes {
            if n.name == node {
                n.args = args.clone();
            }
        }
    };
    match case.id {
        "f17" => {
            set_args(&mut case, "client", vec![Value::Int(900)]);
            set_args(
                &mut case,
                "rs1",
                vec![Value::Int(40), Value::Int(0), Value::Int(1_500)],
            );
        }
        "f1" => set_args(&mut case, "client", vec![Value::Int(150)]),
        "f16" => set_args(&mut case, "client", vec![Value::Int(60)]),
        id => return Err(format!("no scaled configuration for {id}")),
    }
    case.scenario.config.max_time = 90_000;
    Ok(case)
}

/// Seeded Fisher–Yates shuffle (splitmix64 stream).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use anduril_ir::log::render_log;
    use anduril_sim::InjectionPlan;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..22).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..22).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..22).collect::<Vec<_>>());
    }

    /// Degradation removes exactly the entries of one observable's
    /// template, with their continuation lines: the degraded log equals the
    /// failure run's structured log rendered without those entries.
    #[test]
    fn degradation_removes_exactly_the_template_lines() {
        let case = case_by_id("f18").expect("f18");
        let gt = case.ground_truth().expect("ground truth");
        let run = case
            .scenario
            .run(
                gt.seed,
                InjectionPlan::exact(gt.site, gt.occurrence, gt.exc),
            )
            .expect("failure run");
        let log = run.log_text();
        let degraded = degrade(&case, log.clone()).expect("degrade");

        let ctx = SearchContext::prepare(case.scenario.clone(), &log, 1_000).expect("context");
        let templates: Vec<_> = ctx
            .observables
            .iter()
            .map(|o| &ctx.scenario.program.templates[o.template.index()])
            .collect();
        let expected = |t: &LogTemplate| {
            let kept: Vec<_> = run
                .log
                .iter()
                .filter(|e| !t.matches(&e.body))
                .cloned()
                .collect();
            (render_log(&kept), run.log.len() - kept.len())
        };
        let hits: Vec<usize> = templates
            .iter()
            .filter_map(|t| {
                let (text, removed) = expected(t);
                (text == degraded).then_some(removed)
            })
            .collect();
        assert_eq!(hits.len(), 1, "exactly one observable's entries are gone");
        assert!(hits[0] > 0);
        assert!(
            run.log.iter().any(|e| !e.stack.is_empty()),
            "continuation lines exercised"
        );
    }

    /// Each scaled configuration executes the root-cause site more often
    /// than the paper configuration does.
    #[test]
    fn scaled_configs_raise_root_site_instances() {
        for id in ["f17", "f1", "f16"] {
            let base = case_by_id(id).expect("case");
            let big = scaled(base.clone()).expect("scaled");
            let site = base.root_site().expect("root site");
            let count = |c: &FailureCase| {
                c.scenario
                    .run(c.failure_seed, InjectionPlan::none())
                    .expect("normal run")
                    .site_occurrences[site.index()]
            };
            let (small, large) = (count(&base), count(&big));
            assert!(large > small, "{id}: {large} root instances vs {small}");
        }
        assert!(scaled(case_by_id("f2").expect("f2")).is_err());
    }
}
