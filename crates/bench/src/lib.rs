//! Shared harness for regenerating every table and figure of the paper's
//! evaluation.
//!
//! Each `table*` / `figure6` binary in `src/bin` prints one artifact; the
//! `all` binary runs the full evaluation and writes the outputs under
//! `results/`. Absolute numbers differ from the paper (the substrate is a
//! discrete-event simulator, not a 20-core testbed); the *shape* — who
//! reproduces what, in how many rounds, and where the orderings cross — is
//! the reproduction target.

use std::fmt::Write as _;

use anduril_core::trace::{Json, TraceEvent};
use anduril_core::{explore, ExplorerConfig, Reproduction, SearchContext, Strategy};
use anduril_failures::{case_by_id, FailureCase, GroundTruth};
use anduril_ir::Value;

/// A failure case prepared for exploration: failure log generated, context
/// (normal run + causal graph) built, ground truth resolved.
pub struct PreparedCase {
    /// The case definition.
    pub case: FailureCase,
    /// The rendered "production" failure log.
    pub failure_log: String,
    /// The prepared search context.
    pub ctx: SearchContext,
    /// The known root cause.
    pub gt: GroundTruth,
}

/// Prepares a case end to end.
///
/// # Panics
///
/// Panics if the case's ground truth cannot be resolved — that is a bug in
/// the failure definition, not an expected runtime condition.
pub fn prepare(case: FailureCase) -> PreparedCase {
    let gt = case
        .ground_truth()
        .unwrap_or_else(|e| panic!("{}: ground truth: {e}", case.id));
    let failure_log = case
        .failure_log()
        .unwrap_or_else(|e| panic!("{}: failure log: {e}", case.id));
    let ctx = SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000)
        .unwrap_or_else(|e| panic!("{}: context: {e}", case.id));
    PreparedCase {
        case,
        failure_log,
        ctx,
        gt,
    }
}

/// The cases the scale stress runs at a 10–15× topology.
pub const SCALED_CASES: [&str; 3] = ["f17", "f1", "f16"];

/// A case at its 10–15× topology: the registry case with larger workload
/// arguments and a longer time limit. `None` for a case with no scaled
/// configuration.
///
/// The case keeps its registry pin. `scaled_topologies_keep_the_registry_pins`
/// checks that the scan derives the same occurrence at these topologies, so
/// the scaled failure log is the registry case's failure plan.
pub fn scaled(id: &str) -> Option<FailureCase> {
    let args: &[(&str, &[i64])] = match id {
        "f17" => &[("client", &[900]), ("rs1", &[40, 0, 1_500])],
        "f1" => &[("client", &[150])],
        "f16" => &[("client", &[60])],
        _ => return None,
    };
    let mut case = case_by_id(id)?;
    for node in &mut case.scenario.topology.nodes {
        if let Some((_, values)) = args.iter().find(|(name, _)| *name == node.name) {
            node.args = values.iter().map(|&v| Value::Int(v)).collect();
        }
    }
    case.scenario.config.max_time = 90_000;
    Some(case)
}

/// `failure_log` with every entry (line plus continuation lines) of
/// `ctx`'s nearest observable stripped: the prepared observable whose
/// minimum graph distance over candidate sites is smallest, the strongest
/// guidance signal. This simulates log rotation or rate limiting dropping
/// the messages around a failure, and yields a stall-prone context.
/// `None` when no observable reaches a candidate site.
pub fn strip_nearest_observable(ctx: &SearchContext, failure_log: &str) -> Option<String> {
    let (_, nearest) = (0..ctx.observables.len())
        .filter_map(|k| ctx.distances[k].values().min().map(|&d| (d, k)))
        .min()?;
    let template = &ctx.scenario.program.templates[ctx.observables[nearest].template.index()];
    let mut degraded = String::new();
    let mut drop = false;
    for line in failure_log.lines() {
        // An entry opens with an eight-digit timestamp; its continuation
        // lines (exception name, `at` frames) share its fate.
        let is_entry = line.len() > 9
            && line.as_bytes()[..8].iter().all(u8::is_ascii_digit)
            && line.as_bytes()[8] == b' ';
        if is_entry {
            drop = line
                .split_once(" - ")
                .is_some_and(|(_, body)| template.matches(body));
        }
        if !drop {
            degraded.push_str(line);
            degraded.push('\n');
        }
    }
    Some(degraded)
}

/// Writes a bench report to `path` as an indented JSON document.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_report(path: &str, report: &Json) {
    std::fs::write(path, format!("{report:#}\n"))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// Sums the host-nanosecond spans of the named context phase in a trace
/// (0 when the phase never ran).
pub fn phase_ns(events: &[TraceEvent], name: &str) -> u64 {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ContextPhase { phase, ns, .. } if *phase == name => Some(*ns),
            _ => None,
        })
        .sum()
}

/// Runs one strategy against a prepared case with a round cap.
pub fn run_strategy(
    prepared: &PreparedCase,
    strategy: &mut dyn Strategy,
    max_rounds: usize,
) -> Reproduction {
    let cfg = ExplorerConfig {
        max_rounds,
        ..ExplorerConfig::default()
    };
    explore(
        &prepared.ctx,
        &prepared.case.oracle,
        strategy,
        &cfg,
        Some(prepared.gt.site),
    )
    .expect("exploration runs do not hit simulator errors")
}

/// Formats rounds + time for one table cell; `-` when not reproduced.
pub fn cell(r: &Reproduction) -> String {
    if r.success {
        format!(
            "{} / {}kt / {}ms",
            r.rounds,
            r.sim_time_total / 1_000,
            r.wall.as_millis()
        )
    } else {
        "-".to_string()
    }
}

/// A minimal fixed-width text table writer.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < cols {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(
                    out,
                    "{:width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(0)
                );
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Median of a slice (0 if empty); the slice is sorted in place.
pub fn median(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[values.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns_columns() {
        let mut t = TextTable::new(&["id", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-id".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("id"));
        assert!(lines[2].starts_with("a      "));
    }

    /// The scaled topologies change the root site's occurrence counts, yet
    /// the scan still derives each registry pin there, so a scaled case
    /// that keeps its pin replays the same failure plan.
    #[test]
    fn scaled_topologies_keep_the_registry_pins() {
        let pins = SCALED_CASES.map(|id| {
            let case = scaled(id).expect("scaled configuration");
            let scanned = case.scan_root_occurrence().expect("scaled scan");
            assert_eq!(scanned, case.root_occurrence, "{id}");
            (id, scanned)
        });
        assert_eq!(pins, [("f17", 4), ("f1", 3), ("f16", 0)]);
        assert!(scaled("f2").is_none());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3, 1, 2]), 2);
        assert_eq!(median(&mut [4, 1, 3, 2]), 3);
        assert_eq!(median(&mut []), 0);
    }
}
