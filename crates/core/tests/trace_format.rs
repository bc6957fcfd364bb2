//! The trace wire format and the `Json` printer and parser behind it.

use anduril_core::trace::{Json, PlanProvenance, StrategyNote, TraceEvent};
use anduril_ir::{ExceptionType, SiteId};

/// A string that needs every kind of escape: a quote, a tab and a control
/// character.
const NASTY: &str = "say \"hi\"\tthen\u{1}stop";

/// One instance of every event and note variant, with a string that
/// needs escaping, non-finite and fractional floats, a negative delta
/// and `u64::MAX`.
fn golden_events() -> Vec<TraceEvent> {
    let note = |round, note| TraceEvent::Note { round, note };
    vec![
        TraceEvent::ContextPhase {
            phase: "graph.slicing",
            items: 42,
            ns: 1234,
        },
        TraceEvent::ContextReady {
            observables: 2,
            units: 14,
            sites_total: 40,
            sites_reachable: 30,
            sites_bounded: 28,
            graph_nodes: 120,
            graph_edges: 240,
        },
        TraceEvent::ExploreStart {
            strategy: NASTY.into(),
            max_rounds: 2000,
            base_seed: u64::MAX,
        },
        TraceEvent::RoundStart {
            round: 0,
            seed: u64::MAX - 1,
        },
        TraceEvent::Decision {
            round: 0,
            window: 10,
            armed: 6,
            provenance: Some(PlanProvenance {
                site: SiteId(3),
                exc: ExceptionType::Io,
                occurrence: Some(5),
                f_i: 2.5,
                k_star: 1,
                l: 2,
                i_k: 0.1,
                temporal: f64::INFINITY,
            }),
            init_ns: 77,
        },
        TraceEvent::Decision {
            round: 1,
            window: 0,
            armed: 0,
            provenance: Some(PlanProvenance {
                site: SiteId(4),
                exc: ExceptionType::Timeout,
                occurrence: None,
                f_i: f64::NAN,
                k_star: 0,
                l: 0,
                i_k: -1.0,
                temporal: 1e16,
            }),
            init_ns: 0,
        },
        TraceEvent::Decision {
            round: 2,
            window: 0,
            armed: 0,
            provenance: None,
            init_ns: 5,
        },
        note(3, StrategyNote::RetryPass { pass: 1 }),
        note(4, StrategyNote::WindowGrew { window: 20 }),
        note(
            5,
            StrategyNote::Retired {
                site: SiteId(4),
                exc: ExceptionType::Socket,
            },
        ),
        note(6, StrategyNote::BoundPruned { count: 6 }),
        note(
            7,
            StrategyNote::WindowExhausted {
                window: 40,
                pass: 0,
            },
        ),
        TraceEvent::RoundEnd {
            round: 0,
            injected: Some((SiteId(3), 5, ExceptionType::Io)),
            oracle: false,
            ticks: 5000,
            steps: u64::MAX,
            log_entries: 55,
            injection_requests: 12,
            workload_ns: 1,
        },
        TraceEvent::RoundEnd {
            round: 1,
            injected: None,
            oracle: true,
            ticks: 0,
            steps: 0,
            log_entries: 0,
            injection_requests: 0,
            workload_ns: 0,
        },
        TraceEvent::Feedback {
            round: 0,
            present: vec![0, 2],
            adjust: -0.25,
            i_k: vec![1.0, f64::NEG_INFINITY, 1.5, -0.0],
        },
        TraceEvent::Feedback {
            round: 1,
            present: vec![],
            adjust: 1.0,
            i_k: vec![],
        },
        TraceEvent::ObservablePromoted {
            round: 14,
            k: 3,
            template: NASTY.into(),
            site: SiteId(3),
            node: 17,
            node_desc: NASTY.into(),
            pass: 1,
            l_new: 4,
            l_old: 1,
            units_added: 2,
        },
        TraceEvent::ProvenanceChain {
            round: 17,
            seed: 1018,
            site: SiteId(3),
            desc: NASTY.into(),
            occurrence: 5,
            exc: ExceptionType::Corruption,
            observable: NASTY.into(),
            k_star: 0,
            l: 2,
            i_k: 3.0,
            f_i: 5.125,
            temporal: Some(4.5),
        },
        TraceEvent::ProvenanceChain {
            round: 0,
            seed: 0,
            site: SiteId(0),
            desc: String::new(),
            occurrence: 0,
            exc: ExceptionType::Io,
            observable: String::new(),
            k_star: 0,
            l: 0,
            i_k: 0.0,
            f_i: f64::INFINITY,
            temporal: None,
        },
        TraceEvent::ExploreEnd {
            success: true,
            rounds: 18,
            replay_verified: false,
            wall_ns: u64::MAX,
        },
    ]
}

/// The exact bytes of every event kind, both serializations: the trace
/// format is a compatibility surface (recorded traces are rendered by
/// later builds), so any change to it must show up here.
#[test]
fn golden_trace_bytes() {
    let mut got = String::new();
    for ev in golden_events() {
        got.push_str(&ev.to_json());
        got.push('\n');
        got.push_str(&ev.stable_json());
        got.push('\n');
    }
    let expected = r#"{"ev":"phase","phase":"graph.slicing","items":42,"ns":1234}
{"ev":"phase","phase":"graph.slicing","items":42}
{"ev":"context","observables":2,"units":14,"sites_total":40,"sites_reachable":30,"sites_bounded":28,"graph_nodes":120,"graph_edges":240}
{"ev":"context","observables":2,"units":14,"sites_total":40,"sites_reachable":30,"sites_bounded":28,"graph_nodes":120,"graph_edges":240}
{"ev":"explore_start","strategy":"say \"hi\"\tthen\u0001stop","max_rounds":2000,"base_seed":18446744073709551615}
{"ev":"explore_start","strategy":"say \"hi\"\tthen\u0001stop","max_rounds":2000,"base_seed":18446744073709551615}
{"ev":"round_start","round":0,"seed":18446744073709551614}
{"ev":"round_start","round":0,"seed":18446744073709551614}
{"ev":"decision","round":0,"window":10,"armed":6,"provenance":{"site":3,"exc":"IOException","occ":5,"f":2.5,"k":1,"l":2,"ik":0.1,"t":null},"init_ns":77}
{"ev":"decision","round":0,"window":10,"armed":6,"provenance":{"site":3,"exc":"IOException","occ":5,"f":2.5,"k":1,"l":2,"ik":0.1,"t":null}}
{"ev":"decision","round":1,"window":0,"armed":0,"provenance":{"site":4,"exc":"TimeoutIOException","occ":null,"f":null,"k":0,"l":0,"ik":-1,"t":10000000000000000},"init_ns":0}
{"ev":"decision","round":1,"window":0,"armed":0,"provenance":{"site":4,"exc":"TimeoutIOException","occ":null,"f":null,"k":0,"l":0,"ik":-1,"t":10000000000000000}}
{"ev":"decision","round":2,"window":0,"armed":0,"provenance":null,"init_ns":5}
{"ev":"decision","round":2,"window":0,"armed":0,"provenance":null}
{"ev":"note","round":3,"note":"retry_pass","pass":1}
{"ev":"note","round":3,"note":"retry_pass","pass":1}
{"ev":"note","round":4,"note":"window_grew","window":20}
{"ev":"note","round":4,"note":"window_grew","window":20}
{"ev":"note","round":5,"note":"retired","site":4,"exc":"SocketException"}
{"ev":"note","round":5,"note":"retired","site":4,"exc":"SocketException"}
{"ev":"note","round":6,"note":"bound_pruned","count":6}
{"ev":"note","round":6,"note":"bound_pruned","count":6}
{"ev":"note","round":7,"note":"window_exhausted","window":40,"pass":0}
{"ev":"note","round":7,"note":"window_exhausted","window":40,"pass":0}
{"ev":"round_end","round":0,"injected":{"site":3,"occ":5,"exc":"IOException"},"oracle":false,"ticks":5000,"steps":18446744073709551615,"log_entries":55,"injection_requests":12,"workload_ns":1}
{"ev":"round_end","round":0,"injected":{"site":3,"occ":5,"exc":"IOException"},"oracle":false,"ticks":5000,"steps":18446744073709551615,"log_entries":55,"injection_requests":12}
{"ev":"round_end","round":1,"injected":null,"oracle":true,"ticks":0,"steps":0,"log_entries":0,"injection_requests":0,"workload_ns":0}
{"ev":"round_end","round":1,"injected":null,"oracle":true,"ticks":0,"steps":0,"log_entries":0,"injection_requests":0}
{"ev":"feedback","round":0,"present":[0,2],"adjust":-0.25,"ik":[1,null,1.5,0]}
{"ev":"feedback","round":0,"present":[0,2],"adjust":-0.25,"ik":[1,null,1.5,0]}
{"ev":"feedback","round":1,"present":[],"adjust":1,"ik":[]}
{"ev":"feedback","round":1,"present":[],"adjust":1,"ik":[]}
{"ev":"promoted","round":14,"k":3,"template":"say \"hi\"\tthen\u0001stop","site":3,"node":17,"node_desc":"say \"hi\"\tthen\u0001stop","pass":1,"l_new":4,"l_old":1,"delta":-3,"units_added":2}
{"ev":"promoted","round":14,"k":3,"template":"say \"hi\"\tthen\u0001stop","site":3,"node":17,"node_desc":"say \"hi\"\tthen\u0001stop","pass":1,"l_new":4,"l_old":1,"delta":-3,"units_added":2}
{"ev":"provenance","round":17,"seed":1018,"site":3,"desc":"say \"hi\"\tthen\u0001stop","occ":5,"exc":"CorruptionException","observable":"say \"hi\"\tthen\u0001stop","k":0,"l":2,"ik":3,"f":5.125,"t":4.5}
{"ev":"provenance","round":17,"seed":1018,"site":3,"desc":"say \"hi\"\tthen\u0001stop","occ":5,"exc":"CorruptionException","observable":"say \"hi\"\tthen\u0001stop","k":0,"l":2,"ik":3,"f":5.125,"t":4.5}
{"ev":"provenance","round":0,"seed":0,"site":0,"desc":"","occ":0,"exc":"IOException","observable":"","k":0,"l":0,"ik":0,"f":null,"t":null}
{"ev":"provenance","round":0,"seed":0,"site":0,"desc":"","occ":0,"exc":"IOException","observable":"","k":0,"l":0,"ik":0,"f":null,"t":null}
{"ev":"explore_end","success":true,"rounds":18,"replay_verified":false,"wall_ns":18446744073709551615}
{"ev":"explore_end","success":true,"rounds":18,"replay_verified":false}
"#;
    for (i, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(g, e, "line {i}");
    }
    assert_eq!(got, expected);
}

/// Every event parses back from both serializations with its `ev` kind;
/// volatile fields appear only in `to_json`; escaped strings survive.
#[test]
fn every_event_round_trips_through_the_parser() {
    let events = golden_events();
    for ev in &events {
        for line in [ev.to_json(), ev.stable_json()] {
            let v = Json::parse(&line).unwrap_or_else(|| panic!("unparseable line: {line}"));
            assert!(v.get("ev").and_then(Json::as_str).is_some(), "{line}");
        }
    }
    let end = events.last().unwrap();
    assert!(end.to_json().contains("wall_ns"));
    assert!(!end.stable_json().contains("wall_ns"));
    let chain = events
        .iter()
        .find(|e| matches!(e, TraceEvent::ProvenanceChain { .. }))
        .unwrap();
    let v = Json::parse(&chain.to_json()).unwrap();
    assert_eq!(v.get("desc").and_then(Json::as_str), Some(NASTY));
    assert_eq!(v.get("seed").and_then(Json::as_u64), Some(1018));
    let start = Json::parse(&events[2].to_json()).unwrap();
    assert_eq!(
        start.get("base_seed").and_then(Json::as_u64),
        Some(u64::MAX)
    );
}

#[test]
fn json_parser_handles_escapes_and_nesting() {
    let v = Json::parse("{\"a\": [1, -2.5, \"x\\ny\", null, true], \"b\": {\"c\": \"\\u0041\"}}")
        .expect("parse");
    assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
    assert_eq!(
        v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
        Some("x\ny")
    );
    assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("A"));
    assert_eq!(Json::parse("{"), None);
    assert_eq!(Json::parse("12 trailing"), None);
}

#[test]
fn document_layout_indents_and_round_trips() {
    let doc = Json::obj([
        ("seed", u64::MAX.into()),
        ("ratio", Json::rounded(2.0 / 3.0, 4)),
        ("empty", Json::Arr(Vec::new())),
        (
            "rows",
            [Json::obj([("ok", true.into())]), Json::Null]
                .into_iter()
                .collect(),
        ),
        ("none", Json::obj([])),
    ]);
    let text = format!("{doc:#}");
    assert_eq!(
        text,
        "{\n  \"seed\": 18446744073709551615,\n  \"ratio\": 0.6667,\n  \"empty\": [],\n  \
         \"rows\": [\n    {\n      \"ok\": true\n    },\n    null\n  ],\n  \"none\": {}\n}"
    );
    assert_eq!(Json::parse(&text), Some(doc.clone()));
    assert_eq!(Json::parse(&doc.to_string()), Some(doc));
    assert_eq!(Json::parse("-3").and_then(|v| v.as_f64()), Some(-3.0));
    assert_eq!(Json::parse("7").and_then(|v| v.as_u64()), Some(7));
}

#[test]
fn non_finite_numbers_serialize_as_null() {
    let ev = TraceEvent::Feedback {
        round: 0,
        present: vec![],
        adjust: f64::INFINITY,
        i_k: vec![f64::NAN],
    };
    let line = ev.to_json();
    assert!(Json::parse(&line).is_some(), "{line}");
    assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
}
