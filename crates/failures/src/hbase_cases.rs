//! The six HBase failures (f12–f17).

use anduril_core::{Oracle, Scenario};
use anduril_ir::{ExceptionType, Value};
use anduril_sim::{NodeSpec, SimConfig, Topology};
use anduril_targets::hbase::{self, names};

use crate::case::{DeeperCause, FailureCase};

fn scenario(
    name: &str,
    wl: &str,
    wl_args: Vec<Value>,
    rs1_args: (i64, i64, i64),
    with_rs2: bool,
    max_time: u64,
) -> Scenario {
    let program = hbase::build();
    let mut nodes = vec![
        NodeSpec::new(
            "master",
            program.func_named(names::MASTER_MAIN).expect("master main"),
            vec![Value::Int(1_500)],
        ),
        NodeSpec::new(
            "rs1",
            program.func_named(names::RS_MAIN).expect("rs main"),
            vec![
                Value::Int(rs1_args.0),
                Value::Int(rs1_args.1),
                Value::Int(rs1_args.2),
            ],
        ),
    ];
    if with_rs2 {
        nodes.push(NodeSpec::new(
            "rs2",
            program.func_named(names::RS_MAIN).expect("rs main"),
            vec![Value::Int(0), Value::Int(0), Value::Int(1_200)],
        ));
    }
    nodes.push(NodeSpec::new(
        "client",
        program.func_named(wl).expect("workload"),
        wl_args,
    ));
    Scenario {
        name: name.to_string(),
        program,
        topology: Topology::new(nodes),
        config: SimConfig {
            max_time,
            ..SimConfig::default()
        },
    }
}

/// f12 — HB-18137: an empty WAL file wedges replication.
pub fn f12() -> FailureCase {
    FailureCase {
        id: "f12",
        ticket: "HB-18137",
        system: "HBase",
        description: "Empty WAL file causes Replication to get stuck",
        scenario: scenario(
            "HB-18137",
            names::WL_F12,
            vec![Value::Int(30)],
            (6, 40, 1_000),
            false,
            20_000,
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Replication made no progress".into()),
            Oracle::GlobalEquals {
                node: "rs1".into(),
                global: "replStalled".into(),
                value: Value::Bool(true),
            },
        ]),
        root_site_desc: names::SITE_F12,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![DeeperCause {
            site_desc: "zk.addReplicationPeer",
            exc: ExceptionType::Io,
            note: "HB-28014 analog: an underlying fault adding the \
                   replication peer also wedges replication behind the \
                   same no-progress symptom",
        }],
    }
}

/// f13 — HB-19608: a failed procedure store update wrongly poisons the
/// whole executor.
pub fn f13() -> FailureCase {
    FailureCase {
        id: "f13",
        ticket: "HB-19608",
        system: "HBase",
        description: "Interrupted procedure mistakenly causes a failed state flag",
        scenario: scenario(
            "HB-19608",
            names::WL_F13,
            vec![Value::Int(8)],
            (0, 0, 800),
            false,
            15_000,
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Procedure blocked by failed-state flag".into()),
            // Timing pin: exactly three procedures completed first.
            Oracle::GlobalEquals {
                node: "master".into(),
                global: "proceduresDone".into(),
                value: Value::Int(3),
            },
        ]),
        root_site_desc: names::SITE_F13,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f14 — HB-19876: a conversion exception desynchronizes the CellScanner.
pub fn f14() -> FailureCase {
    FailureCase {
        id: "f14",
        ticket: "HB-19876",
        system: "HBase",
        description: "The exception happening in converting pb mutation messes up the CellScanner",
        scenario: scenario(
            "HB-19876",
            names::WL_F14,
            vec![Value::Int(6)],
            (0, 0, 800),
            false,
            15_000,
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Malformed cell data written to region".into()),
            Oracle::GlobalAtLeast {
                node: "rs1".into(),
                global: "corruptRows".into(),
                min: 1,
            },
        ]),
        root_site_desc: names::SITE_F14,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f15 — HB-20583: a split failure resubmits a different (already
/// completed) split task.
pub fn f15() -> FailureCase {
    FailureCase {
        id: "f15",
        ticket: "HB-20583",
        system: "HBase",
        description:
            "The failure during splitting log causes resubmit of another failed splitting task",
        scenario: scenario(
            "HB-20583",
            names::WL_F15,
            vec![Value::Int(6)],
            (0, 0, 1_200),
            false,
            20_000,
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("executed twice".into()),
            Oracle::GlobalAtLeast {
                node: "rs1".into(),
                global: "doubleSplitTasks".into(),
                min: 1,
            },
        ]),
        root_site_desc: names::SITE_F15,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f16 — HB-16144: the replication-queue lock leaks when the region server
/// holding it aborts.
pub fn f16() -> FailureCase {
    FailureCase {
        id: "f16",
        ticket: "HB-16144",
        system: "HBase",
        description: "Replication queue's lock will live forever if regionserver acquiring the lock has died prematurely",
        scenario: scenario(
            "HB-16144",
            names::WL_F16,
            vec![Value::Int(6)],
            (0, 0, 1_600),
            true,
            25_000,
        ),
        oracle: Oracle::And(vec![
            Oracle::NodeAborted("rs1".into()),
            Oracle::LogContains("Could not claim replication queue".into()),
            Oracle::GlobalEquals {
                node: "master".into(),
                global: "replLockHolder".into(),
                value: Value::str("rs1"),
            },
        ]),
        root_site_desc: names::SITE_F16,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f17 — HB-25905: the motivating example; a transient HDFS fault wedges
/// the WAL at `waitForSafePoint`.
pub fn f17() -> FailureCase {
    FailureCase {
        id: "f17",
        ticket: "HB-25905",
        system: "HBase",
        description: "Transient namenode failure in HDFS causes WAL services in HBase to stop making any progress",
        scenario: scenario(
            "HB-25905",
            names::WL_F17,
            vec![Value::Int(64)],
            (6, 0, 900),
            false,
            12_000,
        ),
        oracle: Oracle::And(vec![
            Oracle::LogCountAtLeast("Failed to get sync result".into(), 3),
            Oracle::Not(Box::new(Oracle::ThreadDone("LogRoller".into()))),
            Oracle::GlobalAtLeast {
                node: "rs1".into(),
                global: "unackedAppends".into(),
                min: 1,
            },
        ]),
        root_site_desc: names::SITE_F17,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}
