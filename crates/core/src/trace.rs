//! Structured search-trace layer: a zero-dependency typed event stream
//! for the whole reproduction pipeline.
//!
//! ANDURIL's value is its feedback loop — observable priorities `I_k`,
//! fault-site priorities `F_i = min_k (L_{i,k} + I_k)`, temporal distances
//! `T_{i,j,k}` — and this module makes that loop observable. Every layer
//! of the pipeline emits typed [`TraceEvent`]s into a [`Tracer`]:
//!
//! - **context prep** ([`crate::SearchContext::prepare_traced`]): one
//!   [`TraceEvent::ContextPhase`] per phase (normal run, log parse, diff,
//!   graph build with its §4.1 sub-phases, distances, alignment, pruning)
//!   with durations and sizes, then a [`TraceEvent::ContextReady`] summary;
//! - **per round** ([`crate::explorer::explore_traced`]): the strategy
//!   decision with its priority provenance (the winning unit's `F_i`, the
//!   observable `k*` and `L + I_k` that attained the min, the
//!   temporal-distance pick), simulator counters, the oracle verdict, and
//!   the `I_k` feedback applied;
//! - **lifecycle**: retry-pass starts, candidate retirements and window
//!   growth (queued by the strategy as [`StrategyNote`]s);
//! - **on success**: a final [`TraceEvent::ProvenanceChain`] linking the
//!   reproducing injection back through the observable and graph distance
//!   that prioritized it.
//!
//! # Determinism
//!
//! The stream is deterministic: for the same case and seed, two runs emit
//! identical events modulo host-time fields (`ns`-suffixed, excluded by
//! [`TraceEvent::stable_json`]). `tests/trace_determinism.rs` asserts this
//! byte for byte on every paper case.
//!
//! # Overhead
//!
//! The untraced entry points delegate to the traced ones with
//! [`NoopTracer`], whose `enabled()` returns `false`; every emission site
//! is guarded on `enabled()`, so no event is ever constructed and the cost
//! is one trivial virtual call per site per round — unmeasurable next to a
//! simulation run.
//!
//! # Format
//!
//! [`FileTracer`] writes one compact [`Json`] object per line, which the
//! same type parses back and the `anduril trace` subcommand renders.

use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;

use anduril_ir::{ExceptionType, SiteId};

/// Priority provenance of the top-ranked candidate of a planning pass —
/// *why* the strategy put this unit first, in the paper's §5.2 terms.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProvenance {
    /// The winning fault site.
    pub site: SiteId,
    /// The exception type of the winning unit.
    pub exc: ExceptionType,
    /// The armed occurrence (`None` = any-occurrence candidate).
    pub occurrence: Option<u32>,
    /// The site-level priority `F_i` that won.
    pub f_i: f64,
    /// The observable `k*` attaining the min in `F_i`.
    pub k_star: usize,
    /// Spatial distance `L_{i,k*}`.
    pub l: u32,
    /// Observable feedback `I_{k*}` at planning time.
    pub i_k: f64,
    /// Temporal distance `T` of the armed instance.
    pub temporal: f64,
}

/// A lifecycle note queued by a strategy during planning or feedback and
/// drained by the explorer (which owns the tracer) via
/// [`crate::Strategy::drain_notes`].
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyNote {
    /// The prioritized space was exhausted and a fresh retry pass started
    /// (the §6 per-seed retry; `pass` counts completed passes).
    RetryPass {
        /// Completed passes so far.
        pass: usize,
    },
    /// The flexible window doubled after a no-injection round (§5.2.5).
    WindowGrew {
        /// The new window size.
        window: usize,
    },
    /// An armed any-occurrence candidate was retired because nothing in
    /// its window fired.
    Retired {
        /// The retired candidate's site.
        site: SiteId,
        /// The retired candidate's exception type.
        exc: ExceptionType,
    },
    /// Plans were skipped this round because their occurrence index
    /// exceeds the site's static `hi` bound (the dataflow pruning pass).
    BoundPruned {
        /// How many candidate plans the bounds proved infeasible.
        count: usize,
    },
    /// The prioritized space ran dry — queued immediately before the
    /// retry-pass reset, so stall onset is visible in traces independently
    /// of whether the adaptive layer reacts to it.
    WindowExhausted {
        /// The flexible-window size at exhaustion.
        window: usize,
        /// The pass that just ran dry (0-based; `RetryPass` then reports
        /// `pass + 1` completed passes).
        pass: usize,
    },
}

/// One typed event in the search-trace stream.
///
/// See DESIGN.md §10 for the full schema table (kind → fields → emitter).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One timed context-preparation phase (`ev: "phase"`).
    ContextPhase {
        /// Phase name (`normal_run`, `parse_failure_log`, `diff`,
        /// `observables`, `graph`, `graph.exception`, `graph.slicing`,
        /// `graph.chaining`, `distances`, `alignment`, `pruning`).
        phase: &'static str,
        /// Phase-specific size (entries, nodes, sites, …).
        items: u64,
        /// Host nanoseconds spent (volatile).
        ns: u64,
    },
    /// Context-preparation summary (`ev: "context"`).
    ContextReady {
        /// Relevant observables identified by the diff.
        observables: usize,
        /// Static fault candidates after pruning.
        units: usize,
        /// Total static fault sites in the program.
        sites_total: usize,
        /// Sites statically reachable from the workload roots.
        sites_reachable: usize,
        /// Reachable candidate sites the occurrence bounds leave alive
        /// (`hi != 0`).
        sites_bounded: usize,
        /// Causal-graph node count.
        graph_nodes: usize,
        /// Causal-graph edge count.
        graph_edges: usize,
    },
    /// Exploration started (`ev: "explore_start"`).
    ExploreStart {
        /// Strategy name.
        strategy: String,
        /// Round budget.
        max_rounds: usize,
        /// Seed of the normal run (round `r` uses `base_seed + 1 + r`).
        base_seed: u64,
    },
    /// A round was planned and is about to execute (`ev: "round_start"`).
    RoundStart {
        /// Round number (0-based).
        round: usize,
        /// Simulation seed of the round.
        seed: u64,
    },
    /// The strategy's decision for a round (`ev: "decision"`).
    Decision {
        /// Round number.
        round: usize,
        /// Flexible-window size used.
        window: usize,
        /// Candidates armed (incl. a crash point, if any).
        armed: usize,
        /// Priority provenance of the top-ranked candidate, when the
        /// strategy ranks (baselines emit `null`).
        provenance: Option<PlanProvenance>,
        /// Host nanoseconds spent planning (volatile).
        init_ns: u64,
    },
    /// A strategy lifecycle note (`ev: "note"`).
    Note {
        /// Round the note surfaced at.
        round: usize,
        /// The note.
        note: StrategyNote,
    },
    /// A round finished executing (`ev: "round_end"`).
    RoundEnd {
        /// Round number.
        round: usize,
        /// What injected, if anything.
        injected: Option<(SiteId, u32, ExceptionType)>,
        /// Oracle verdict.
        oracle: bool,
        /// Simulated ticks the run covered.
        ticks: u64,
        /// Statements executed.
        steps: u64,
        /// Log messages delivered (the paper's message-count clock).
        log_entries: usize,
        /// `FIR.throwIfEnabled` requests served.
        injection_requests: u64,
        /// Host nanoseconds executing the workload (volatile).
        workload_ns: u64,
    },
    /// Observable feedback applied after an unsuccessful round
    /// (`ev: "feedback"`): each present observable's `I_k` moved by
    /// `adjust` (Algorithm 2).
    Feedback {
        /// Round number.
        round: usize,
        /// Observables present in the round's log (post §6 union).
        present: Vec<usize>,
        /// The per-observable adjustment `s` applied.
        adjust: f64,
        /// The full `I_k` vector *after* this round's adjustment.
        i_k: Vec<f64>,
    },
    /// A synthetic observable was promoted into the live search
    /// (`ev: "promoted"`): the adaptive layer reacted to a stall by
    /// instrumenting a causal-graph interior node near the current
    /// top-ranked fault sites. Carries full provenance — the source graph
    /// node, the retry pass that triggered it, and the spatial-distance
    /// delta the focus site gained.
    ObservablePromoted {
        /// Round the promotion took effect at (it influences planning from
        /// the next round on).
        round: usize,
        /// Index the new observable occupies in the grown observable set.
        k: usize,
        /// The witness log template's text.
        template: String,
        /// The focus fault site the interior node was selected near.
        site: SiteId,
        /// Causal-graph node id of the promoted interior node.
        node: u32,
        /// Human-readable description of the interior node.
        node_desc: String,
        /// The retry pass whose stall triggered the promotion.
        pass: usize,
        /// Spatial distance `L` from the focus site to the new observable.
        l_new: u32,
        /// The focus site's best spatial distance over the pre-existing
        /// observables.
        l_old: u32,
        /// Fault units the promotion's scoped causal build newly connected
        /// (zero for refinement promotions over the prepared graph).
        units_added: usize,
    },
    /// The final provenance chain on success (`ev: "provenance"`): from
    /// the reproducing injection back through the observable and graph
    /// distance that prioritized it.
    ProvenanceChain {
        /// The reproducing round.
        round: usize,
        /// The reproducing seed.
        seed: u64,
        /// Root-cause fault site.
        site: SiteId,
        /// Human-readable site description.
        desc: String,
        /// The occurrence that fired.
        occurrence: u32,
        /// The injected exception type.
        exc: ExceptionType,
        /// The argmin observable's log-template text.
        observable: String,
        /// The argmin observable index `k*`.
        k_star: usize,
        /// Spatial distance `L_{i,k*}`.
        l: u32,
        /// Observable feedback `I_{k*}` at the end.
        i_k: f64,
        /// Site priority `F_i` at the end.
        f_i: f64,
        /// Temporal distance of the best remaining instance, if any.
        temporal: Option<f64>,
    },
    /// Exploration finished (`ev: "explore_end"`).
    ExploreEnd {
        /// Whether the failure was reproduced.
        success: bool,
        /// Rounds executed.
        rounds: usize,
        /// Whether the script replayed successfully.
        replay_verified: bool,
        /// Wall-clock nanoseconds of the whole exploration (volatile).
        wall_ns: u64,
    },
}

impl PlanProvenance {
    fn to_value(&self) -> Json {
        Json::obj([
            ("site", self.site.0.into()),
            ("exc", self.exc.name().into()),
            ("occ", self.occurrence.into()),
            ("f", self.f_i.into()),
            ("k", self.k_star.into()),
            ("l", self.l.into()),
            ("ik", self.i_k.into()),
            ("t", self.temporal.into()),
        ])
    }
}

impl StrategyNote {
    /// The note's `note` name and its fields, in line order.
    fn fields(&self) -> Vec<(&'static str, Json)> {
        match self {
            StrategyNote::RetryPass { pass } => {
                vec![("note", "retry_pass".into()), ("pass", (*pass).into())]
            }
            StrategyNote::WindowGrew { window } => {
                vec![("note", "window_grew".into()), ("window", (*window).into())]
            }
            StrategyNote::Retired { site, exc } => vec![
                ("note", "retired".into()),
                ("site", site.0.into()),
                ("exc", exc.name().into()),
            ],
            StrategyNote::BoundPruned { count } => {
                vec![("note", "bound_pruned".into()), ("count", (*count).into())]
            }
            StrategyNote::WindowExhausted { window, pass } => vec![
                ("note", "window_exhausted".into()),
                ("window", (*window).into()),
                ("pass", (*pass).into()),
            ],
        }
    }
}

impl TraceEvent {
    /// Serializes the event as one JSONL line (no trailing newline),
    /// including the volatile host-time fields.
    pub fn to_json(&self) -> String {
        self.to_value(true).to_string()
    }

    /// The deterministic serialization: identical across repeated runs of
    /// the same search (volatile `*_ns` fields omitted).
    pub fn stable_json(&self) -> String {
        self.to_value(false).to_string()
    }

    /// The event as a JSON object; `volatile` keeps the host-time `*_ns`
    /// field, which is always the last.
    fn to_value(&self, volatile: bool) -> Json {
        let timed = |mut fields: Vec<(&str, Json)>, key, ns: u64| {
            if volatile {
                fields.push((key, ns.into()));
            }
            Json::obj(fields)
        };
        match self {
            TraceEvent::ContextPhase { phase, items, ns } => timed(
                vec![
                    ("ev", "phase".into()),
                    ("phase", (*phase).into()),
                    ("items", (*items).into()),
                ],
                "ns",
                *ns,
            ),
            TraceEvent::ContextReady {
                observables,
                units,
                sites_total,
                sites_reachable,
                sites_bounded,
                graph_nodes,
                graph_edges,
            } => Json::obj([
                ("ev", "context".into()),
                ("observables", (*observables).into()),
                ("units", (*units).into()),
                ("sites_total", (*sites_total).into()),
                ("sites_reachable", (*sites_reachable).into()),
                ("sites_bounded", (*sites_bounded).into()),
                ("graph_nodes", (*graph_nodes).into()),
                ("graph_edges", (*graph_edges).into()),
            ]),
            TraceEvent::ExploreStart {
                strategy,
                max_rounds,
                base_seed,
            } => Json::obj([
                ("ev", "explore_start".into()),
                ("strategy", strategy.as_str().into()),
                ("max_rounds", (*max_rounds).into()),
                ("base_seed", (*base_seed).into()),
            ]),
            TraceEvent::RoundStart { round, seed } => Json::obj([
                ("ev", "round_start".into()),
                ("round", (*round).into()),
                ("seed", (*seed).into()),
            ]),
            TraceEvent::Decision {
                round,
                window,
                armed,
                provenance,
                init_ns,
            } => timed(
                vec![
                    ("ev", "decision".into()),
                    ("round", (*round).into()),
                    ("window", (*window).into()),
                    ("armed", (*armed).into()),
                    (
                        "provenance",
                        provenance.as_ref().map(PlanProvenance::to_value).into(),
                    ),
                ],
                "init_ns",
                *init_ns,
            ),
            TraceEvent::Note { round, note } => {
                let mut fields = vec![("ev", "note".into()), ("round", (*round).into())];
                fields.extend(note.fields());
                Json::obj(fields)
            }
            TraceEvent::ObservablePromoted {
                round,
                k,
                template,
                site,
                node,
                node_desc,
                pass,
                l_new,
                l_old,
                units_added,
            } => Json::obj([
                ("ev", "promoted".into()),
                ("round", (*round).into()),
                ("k", (*k).into()),
                ("template", template.as_str().into()),
                ("site", site.0.into()),
                ("node", (*node).into()),
                ("node_desc", node_desc.as_str().into()),
                ("pass", (*pass).into()),
                ("l_new", (*l_new).into()),
                ("l_old", (*l_old).into()),
                ("delta", (f64::from(*l_old) - f64::from(*l_new)).into()),
                ("units_added", (*units_added).into()),
            ]),
            TraceEvent::RoundEnd {
                round,
                injected,
                oracle,
                ticks,
                steps,
                log_entries,
                injection_requests,
                workload_ns,
            } => {
                let injected = injected.map(|(site, occ, exc)| {
                    Json::obj([
                        ("site", site.0.into()),
                        ("occ", occ.into()),
                        ("exc", exc.name().into()),
                    ])
                });
                timed(
                    vec![
                        ("ev", "round_end".into()),
                        ("round", (*round).into()),
                        ("injected", injected.into()),
                        ("oracle", (*oracle).into()),
                        ("ticks", (*ticks).into()),
                        ("steps", (*steps).into()),
                        ("log_entries", (*log_entries).into()),
                        ("injection_requests", (*injection_requests).into()),
                    ],
                    "workload_ns",
                    *workload_ns,
                )
            }
            TraceEvent::Feedback {
                round,
                present,
                adjust,
                i_k,
            } => Json::obj([
                ("ev", "feedback".into()),
                ("round", (*round).into()),
                ("present", present.iter().copied().collect()),
                ("adjust", (*adjust).into()),
                ("ik", i_k.iter().copied().collect()),
            ]),
            TraceEvent::ProvenanceChain {
                round,
                seed,
                site,
                desc,
                occurrence,
                exc,
                observable,
                k_star,
                l,
                i_k,
                f_i,
                temporal,
            } => Json::obj([
                ("ev", "provenance".into()),
                ("round", (*round).into()),
                ("seed", (*seed).into()),
                ("site", site.0.into()),
                ("desc", desc.as_str().into()),
                ("occ", (*occurrence).into()),
                ("exc", exc.name().into()),
                ("observable", observable.as_str().into()),
                ("k", (*k_star).into()),
                ("l", (*l).into()),
                ("ik", (*i_k).into()),
                ("f", (*f_i).into()),
                ("t", (*temporal).into()),
            ]),
            TraceEvent::ExploreEnd {
                success,
                rounds,
                replay_verified,
                wall_ns,
            } => timed(
                vec![
                    ("ev", "explore_end".into()),
                    ("success", (*success).into()),
                    ("rounds", (*rounds).into()),
                    ("replay_verified", (*replay_verified).into()),
                ],
                "wall_ns",
                *wall_ns,
            ),
        }
    }
}

/// A sink for [`TraceEvent`]s.
///
/// Implementations take `&self` (interior mutability) so one tracer can be
/// shared by the context and the explorer without threading `&mut`
/// through every layer.
pub trait Tracer: Send + Sync {
    /// Whether events will be recorded. Emission sites guard on this, so a
    /// disabled tracer never pays for event construction.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&self, ev: TraceEvent);

    /// Flushes buffered output (no-op for unbuffered tracers).
    fn flush(&self) {}
}

/// The disabled tracer: `enabled()` is `false` and `record` does nothing.
/// The untraced entry points (`explore`, `reproduce`, …) use this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&self, _ev: TraceEvent) {}
}

/// An in-memory tracer collecting events into a vector; the test and
/// bench harnesses read it back with [`VecTracer::events`].
#[derive(Debug, Default)]
pub struct VecTracer {
    events: Mutex<Vec<TraceEvent>>,
}

impl VecTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        VecTracer::default()
    }

    /// A snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("tracer poisoned").clone()
    }

    /// Takes the recorded events, leaving the tracer empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("tracer poisoned"))
    }
}

impl Tracer for VecTracer {
    fn record(&self, ev: TraceEvent) {
        self.events.lock().expect("tracer poisoned").push(ev);
    }
}

/// A buffered JSONL file tracer: one [`TraceEvent::to_json`] line per
/// event, flushed on [`Tracer::flush`] and on drop.
#[derive(Debug)]
pub struct FileTracer {
    out: Mutex<BufWriter<File>>,
}

impl FileTracer {
    /// Creates (truncating) the trace file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<FileTracer> {
        Ok(FileTracer {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Tracer for FileTracer {
    fn record(&self, ev: TraceEvent) {
        let mut out = self.out.lock().expect("tracer poisoned");
        let _ = writeln!(out, "{}", ev.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("tracer poisoned").flush();
    }
}

impl Drop for FileTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A minimal JSON value: the one reader and the one printer behind every
/// JSON document the project writes or reads back — trace lines, the
/// `anduril analyze` and `anduril trace --json` reports, and the bench
/// files. No external dependency.
///
/// `{}` ([`Display`](fmt::Display)) prints the compact form, one JSONL
/// line; `{:#}` prints an indented document, two spaces per level with
/// `"key": value`, every non-empty array and object broken one element
/// per line.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, printed exactly over the whole `u64` range (the
    /// parser reads every plain digit string that fits into this variant).
    UInt(u64),
    /// Any other number. Non-finite values print as `null`; integral values
    /// below `1e15` in magnitude print in integer form.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, kept in the given order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `v` rounded to `places` decimals, the precision a report commits to.
    pub fn rounded(v: f64, places: usize) -> Json {
        Json::Num(format!("{v:.places$}").parse().unwrap_or(v))
    }

    /// Parses one JSON document; `None` on any syntax error or trailing
    /// garbage.
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Prints the value; `indent` is the current depth's indentation in the
    /// document layout, `None` in the compact one.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Num(v) if !v.is_finite() => f.write_str("null"),
            Json::Num(v) if v.fract() == 0.0 && v.abs() < 1e15 => write!(f, "{}", *v as i64),
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => write_seq(f, indent, ['[', ']'], items, |f, item, inner| {
                item.write(f, inner)
            }),
            Json::Obj(fields) => write_seq(f, indent, ['{', '}'], fields, |f, (k, v), inner| {
                write_escaped(f, k)?;
                f.write_str(if inner.is_some() { ": " } else { ":" })?;
                v.write(f, inner)
            }),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

/// Prints a bracketed, comma-separated sequence, one element per line
/// when `indent` is set.
fn write_seq<T>(
    f: &mut fmt::Formatter<'_>,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    item: impl Fn(&mut fmt::Formatter<'_>, &T, Option<usize>) -> fmt::Result,
) -> fmt::Result {
    let inner = indent.map(|n| n + 2);
    f.write_char(open)?;
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            f.write_char(',')?;
        }
        if let Some(n) = inner {
            write!(f, "\n{:n$}", "")?;
        }
        item(f, x, inner)?;
    }
    match indent {
        Some(n) if !items.is_empty() => write!(f, "\n{:n$}{close}", ""),
        _ => f.write_char(close),
    }
}

/// Prints `s` as a JSON string: quotes, backslashes and control characters
/// escaped, everything else verbatim.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::UInt(n.into())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match b.get(*pos)? {
        b'{' => parse_obj(b, pos),
        b'[' => parse_arr(b, pos),
        b'"' => parse_str(b, pos).map(Json::Str),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        _ => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Option<Json> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(v)
    } else {
        None
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if matches!(b.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).ok()?;
    match text.parse::<u64>() {
        Ok(n) => Some(Json::UInt(n)),
        Err(_) => text.parse::<f64>().ok().map(Json::Num),
    }
}

fn parse_str(b: &[u8], pos: &mut usize) -> Option<String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unchanged).
                let rest = std::str::from_utf8(&b[*pos..]).ok()?;
                let c = rest.chars().next()?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return None;
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(fields));
            }
            _ => return None,
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}
