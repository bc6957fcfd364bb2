//! Result lines: metric JSON, and the host facts that let runs of two
//! commits be paired.

use std::fmt::Write as _;

use crate::stats::valid_metric_name;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit, e.g. `ms`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Renders the final result line the benchmark contract requires.
///
/// # Panics
///
/// Panics on an illegal metric name or a non-finite value: both are bugs
/// in this benchmark, not measurement outcomes.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_metric_name(m.name), "illegal metric name {}", m.name);
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Usable cores and CPU model of the host.
pub fn host() -> (usize, String) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (cores, cpu)
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, r) = l.split_once(' ')?;
                (r == name).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("proc status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric {
                    name: "corpus_ms",
                    unit: "ms",
                    value: 1.25,
                },
                Metric {
                    name: "rounds",
                    unit: "count",
                    value: 7.0,
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"corpus_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"rounds\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn result_line_rejects_illegal_names() {
        result_line(
            true,
            1,
            0,
            &[Metric {
                name: "p90 ms",
                unit: "ms",
                value: 1.0,
            }],
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
