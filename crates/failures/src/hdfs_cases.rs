//! The seven HDFS failures (f5–f11).

use anduril_core::{Oracle, Scenario};
use anduril_ir::{ExceptionType, Value};
use anduril_sim::{NodeSpec, SimConfig, Topology};
use anduril_targets::hdfs::{self, names};

use crate::case::{DeeperCause, FailureCase};

struct TopoOpts {
    wl: Option<(&'static str, i64)>,
    snn_rounds: i64,
    balancer_nns: i64,
    nn_image_saves: i64,
    max_time: u64,
}

impl Default for TopoOpts {
    fn default() -> Self {
        TopoOpts {
            wl: None,
            snn_rounds: 0,
            balancer_nns: 0,
            nn_image_saves: 0,
            max_time: 25_000,
        }
    }
}

fn scenario(name: &str, opts: TopoOpts) -> Scenario {
    let program = hdfs::build();
    let mut nodes = vec![
        NodeSpec::new(
            "nn",
            program.func_named(names::NN_MAIN).expect("nn main"),
            vec![Value::Int(opts.nn_image_saves), Value::Int(1_500)],
        ),
        NodeSpec::new(
            "dn1",
            program.func_named(names::DN_MAIN).expect("dn main"),
            vec![Value::Int(1_000)],
        ),
        NodeSpec::new(
            "dn2",
            program.func_named(names::DN_MAIN).expect("dn main"),
            vec![Value::Int(1_000)],
        ),
    ];
    if opts.snn_rounds > 0 {
        nodes.push(NodeSpec::new(
            "snn",
            program.func_named(names::SNN_MAIN).expect("snn main"),
            vec![Value::Int(opts.snn_rounds)],
        ));
    }
    if opts.balancer_nns > 0 {
        nodes.push(NodeSpec::new(
            "balancer",
            program.func_named(names::BALANCER_MAIN).expect("balancer"),
            vec![Value::Int(opts.balancer_nns)],
        ));
    }
    if let Some((wl, arg)) = opts.wl {
        nodes.push(NodeSpec::new(
            "client",
            program.func_named(wl).expect("workload"),
            vec![Value::Int(arg)],
        ));
    }
    Scenario {
        name: name.to_string(),
        program,
        topology: Topology::new(nodes),
        config: SimConfig {
            max_time: opts.max_time,
            ..SimConfig::default()
        },
    }
}

/// f5 — HD-4233: rolling backup fails but the namenode keeps serving.
pub fn f5() -> FailureCase {
    FailureCase {
        id: "f5",
        ticket: "HD-4233",
        system: "HDFS",
        description: "Rolling backup fails but the server keep serving",
        scenario: scenario(
            "HD-4233",
            TopoOpts {
                wl: Some((names::WL_F5, 8)),
                nn_image_saves: 4,
                ..TopoOpts::default()
            },
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Rolling upgrade image backup failed".into()),
            Oracle::NodeAlive("nn".into()),
            // Service keeps working: every file closed despite the failed
            // backup.
            Oracle::GlobalEquals {
                node: "nn".into(),
                global: "openFiles".into(),
                value: Value::Int(0),
            },
            Oracle::LogContains("workload finished".into()),
        ]),
        root_site_desc: names::SITE_F5,
        root_exc: ExceptionType::FileNotFound,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f6 — HD-12248: the interrupted image transfer makes checkpointing skip
/// the image backup.
pub fn f6() -> FailureCase {
    FailureCase {
        id: "f6",
        ticket: "HD-12248",
        system: "HDFS",
        description: "Exception when transferring file system image to namenode causes the namenode checkpointing to ignore the image backup",
        scenario: scenario(
            "HD-12248",
            TopoOpts {
                wl: Some((names::WL_F6, 5)),
                snn_rounds: 3,
                ..TopoOpts::default()
            },
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Checkpoint completed without image backup".into()),
            // All three checkpoints "done" but only two images uploaded.
            Oracle::GlobalEquals {
                node: "snn".into(),
                global: "checkpointsDone".into(),
                value: Value::Int(3),
            },
            Oracle::GlobalEquals {
                node: "nn".into(),
                global: "backupImages".into(),
                value: Value::Int(2),
            },
        ]),
        root_site_desc: names::SITE_F6,
        root_exc: ExceptionType::Interrupted,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f7 — HD-12070: failed block recovery leaves files open indefinitely.
pub fn f7() -> FailureCase {
    FailureCase {
        id: "f7",
        ticket: "HD-12070",
        system: "HDFS",
        description: "Files will remain open indefinitely if block recovery fails which creates a high risk of data loss",
        scenario: scenario(
            "HD-12070",
            TopoOpts {
                wl: Some((names::WL_F7, 10)),
                ..TopoOpts::default()
            },
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Block recovery failed, file remains open".into()),
            Oracle::GlobalAtLeast {
                node: "nn".into(),
                global: "openFiles".into(),
                min: 1,
            },
            Oracle::LogContains("workload finished".into()),
        ]),
        root_site_desc: names::SITE_F7,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![DeeperCause {
            site_desc: names::SITE_F7_DEEPER,
            exc: ExceptionType::Socket,
            note: "HD-17157 analog: a network fault in the second stage of \
                   block recovery (no commitBlockSync response) leaves the \
                   file open just the same",
        }],
    }
}

/// f8 — HD-13039: block creation leaks a socket on the exception path.
pub fn f8() -> FailureCase {
    FailureCase {
        id: "f8",
        ticket: "HD-13039",
        system: "HDFS",
        description: "Data block creation leaks socket on exception",
        scenario: scenario(
            "HD-13039",
            TopoOpts {
                wl: Some((names::WL_F8, 10)),
                ..TopoOpts::default()
            },
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Block creation failed".into()),
            Oracle::GlobalAtLeast {
                node: "dn1".into(),
                global: "leakedSockets".into(),
                min: 1,
            },
            // Timing pin: four blocks were written before the leak.
            Oracle::GlobalEquals {
                node: "dn1".into(),
                global: "blocksWritten".into(),
                value: Value::Int(9),
            },
        ]),
        root_site_desc: names::SITE_F8,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f9 — HD-16332: an expired block token makes reads slow.
pub fn f9() -> FailureCase {
    FailureCase {
        id: "f9",
        ticket: "HD-16332",
        system: "HDFS",
        description: "Missing handling of expired block token causes slow read",
        scenario: scenario(
            "HD-16332",
            TopoOpts {
                wl: Some((names::WL_F9, 6)),
                ..TopoOpts::default()
            },
        ),
        oracle: Oracle::And(vec![
            Oracle::LogCountAtLeast("Retrying read after block token error".into(), 3),
            Oracle::LogContains("Block token could not be verified".into()),
            // All reads do complete — the failure is slowness, not loss.
            Oracle::GlobalEquals {
                node: "client".into(),
                global: "readsCompleted".into(),
                value: Value::Int(6),
            },
        ]),
        root_site_desc: names::SITE_F9,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f10 — HD-14333: a disk error during storage init keeps the datanode
/// from starting.
pub fn f10() -> FailureCase {
    FailureCase {
        id: "f10",
        ticket: "HD-14333",
        system: "HDFS",
        description: "Disk error during namenode registration causes datanodes fail to start",
        scenario: scenario(
            "HD-14333",
            TopoOpts {
                wl: Some((names::WL_F10, 6)),
                ..TopoOpts::default()
            },
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Failed to initialize storage directory".into()),
            Oracle::LogContains("Uncaught exception IOException".into()),
            Oracle::GlobalEquals {
                node: "dn1".into(),
                global: "dnStarted".into(),
                value: Value::Bool(false),
            },
            Oracle::GlobalEquals {
                node: "dn2".into(),
                global: "dnStarted".into(),
                value: Value::Bool(true),
            },
        ]),
        root_site_desc: names::SITE_F10,
        root_exc: ExceptionType::Io,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}

/// f11 — HD-15032: the balancer crashes contacting an unavailable
/// namenode.
pub fn f11() -> FailureCase {
    FailureCase {
        id: "f11",
        ticket: "HD-15032",
        system: "HDFS",
        description: "Balancer crashes when it fails to contact an unavailable namenode",
        scenario: scenario(
            "HD-15032",
            TopoOpts {
                wl: Some((names::WL_F5, 4)),
                balancer_nns: 2,
                ..TopoOpts::default()
            },
        ),
        oracle: Oracle::And(vec![
            Oracle::LogContains("Uncaught exception SocketException".into()),
            Oracle::LogAbsent("Balancing round complete".into()),
            // The crash happened while contacting the *second* namenode.
            Oracle::GlobalEquals {
                node: "balancer".into(),
                global: "balancerRounds".into(),
                value: Value::Int(1),
            },
        ]),
        root_site_desc: names::SITE_F11,
        root_exc: ExceptionType::Socket,
        failure_seed: 2_024,
        deeper_causes: vec![],
    }
}
