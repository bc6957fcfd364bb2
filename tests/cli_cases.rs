//! Case resolution at the CLI surface: ids and tickets resolve the same
//! way for every subcommand, and unknown cases exit 2.

use std::process::{Command, Output};

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
