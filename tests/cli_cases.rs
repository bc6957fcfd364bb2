//! Case resolution at the CLI surface: ids and tickets resolve the same
//! way for every subcommand, and unknown cases exit 2. A recorded trace
//! renders in every `anduril trace` mode.

use std::process::{Command, Output};

use anduril::trace::Json;

fn anduril(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_anduril"))
        .args(args)
        .output()
        .expect("anduril runs")
}

#[test]
fn analyze_accepts_a_ticket_and_reports_one_case() {
    let out = anduril(&["analyze", "hb-25905", "--json", "-"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).expect("utf-8 JSON");
    assert_eq!(json.matches("\"id\":").count(), 1, "one case: {json}");
    assert!(json.contains("\"id\": \"f17\""), "the case is f17: {json}");
}

#[test]
fn show_accepts_a_ticket() {
    let out = anduril(&["show", "HB-25905"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn reproduce_of_an_unknown_case_exits_2() {
    let out = anduril(&["reproduce", "f23"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no case matches"), "stderr: {stderr}");
}

#[test]
fn a_recorded_trace_renders_in_every_mode() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-trace-f3.jsonl");
    let path = path.to_str().expect("utf-8 path");
    let out = anduril(&["reproduce", "f3", "--trace", path]);
    assert_eq!(out.status.code(), Some(0), "reproduce f3 --trace");

    let text = std::fs::read_to_string(path).expect("trace written");
    let explore_end = text
        .lines()
        .filter_map(Json::parse)
        .find(|v| v.get("ev").and_then(Json::as_str) == Some("explore_end"))
        .expect("explore_end event");
    let rounds = explore_end.get("rounds").and_then(Json::as_u64);
    assert!(rounds.is_some_and(|r| r > 0), "{explore_end:?}");

    let out = anduril(&["trace", path, "--json"]);
    assert_eq!(out.status.code(), Some(0), "trace --json");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 JSON");
    let report = Json::parse(&stdout).unwrap_or_else(|| panic!("unparseable report: {stdout}"));
    assert_eq!(report.get("rounds").and_then(Json::as_u64), rounds);
    assert_eq!(report.get("explore_end"), Some(&explore_end));

    for mode in [&["--summary"][..], &["--round", "0"], &["--promotions"]] {
        let args: Vec<&str> = ["trace", path].iter().chain(mode).copied().collect();
        let out = anduril(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "trace {mode:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
