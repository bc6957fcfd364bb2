//! The 22 real-world failure scenarios (f1–f22) the paper evaluates on,
//! recreated on the mini target systems.
//!
//! Each [`FailureCase`] carries a [`anduril_core::Scenario`] (system +
//! workload), a failure [`anduril_core::Oracle`], and the known root cause.
//! The "production" failure log is produced by replaying the ground truth
//! — mirroring the paper's setup for tickets that ship without a log file.

#![warn(missing_docs)]

pub mod case;
pub mod cassandra_cases;
pub mod hbase_cases;
pub mod hdfs_cases;
pub mod kafka_cases;
pub mod zookeeper_cases;

pub use case::{CaseError, DeeperCause, FailureCase, GroundTruth};

use cassandra_cases as c;
use hbase_cases as hb;
use hdfs_cases as hd;
use kafka_cases as ka;
use zookeeper_cases as zk;

/// One registry row: `(id, ticket, constructor)`.
type Entry = (&'static str, &'static str, fn() -> FailureCase);

/// The case registry, in paper order. Looking a case up builds only that
/// case's target program.
const REGISTRY: [Entry; 22] = [
    ("f1", "ZK-2247", zk::f1),
    ("f2", "ZK-3157", zk::f2),
    ("f3", "ZK-4203", zk::f3),
    ("f4", "ZK-3006", zk::f4),
    ("f5", "HD-4233", hd::f5),
    ("f6", "HD-12248", hd::f6),
    ("f7", "HD-12070", hd::f7),
    ("f8", "HD-13039", hd::f8),
    ("f9", "HD-16332", hd::f9),
    ("f10", "HD-14333", hd::f10),
    ("f11", "HD-15032", hd::f11),
    ("f12", "HB-18137", hb::f12),
    ("f13", "HB-19608", hb::f13),
    ("f14", "HB-19876", hb::f14),
    ("f15", "HB-20583", hb::f15),
    ("f16", "HB-16144", hb::f16),
    ("f17", "HB-25905", hb::f17),
    ("f18", "KA-12508", ka::f18),
    ("f19", "KA-9374", ka::f19),
    ("f20", "KA-10048", ka::f20),
    ("f21", "C*-17663", c::f21),
    ("f22", "C*-6415", c::f22),
];

/// Every implemented failure case, in paper order.
pub fn all_cases() -> Vec<FailureCase> {
    REGISTRY.iter().map(|(_, _, build)| build()).collect()
}

/// Looks up a case by its paper id (`"f17"`) or ticket (`"HB-25905"`).
pub fn case_by_id(id: &str) -> Option<FailureCase> {
    REGISTRY
        .iter()
        .find(|(case_id, ticket, _)| *case_id == id || ticket.eq_ignore_ascii_case(id))
        .map(|(_, _, build)| build())
}
