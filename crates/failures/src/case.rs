//! The failure-case model: scenario + oracle + ground truth.

use anduril_core::{Oracle, Scenario};
use anduril_ir::{ExceptionType, SiteId};
use anduril_sim::InjectionPlan;

/// The known root cause of a failure, resolved to a concrete dynamic
/// instance under the failure seed.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Root-cause fault site.
    pub site: SiteId,
    /// Dynamic occurrence to inject at.
    pub occurrence: u32,
    /// Exception type to inject.
    pub exc: ExceptionType,
    /// Seed of the "production" run.
    pub seed: u64,
}

/// An additional, deeper root cause that also satisfies the oracle
/// (Table 6's "new root cause" discoveries).
#[derive(Debug, Clone)]
pub struct DeeperCause {
    /// Description of the alternative root-cause site.
    pub site_desc: &'static str,
    /// Exception type to inject there.
    pub exc: ExceptionType,
    /// The analog ticket from the paper's Table 6 and what it teaches.
    pub note: &'static str,
}

/// One of the 22 evaluated failures.
#[derive(Debug, Clone)]
pub struct FailureCase {
    /// Paper id, `f1`..`f22`.
    pub id: &'static str,
    /// Ticket name, e.g. `HB-25905`.
    pub ticket: &'static str,
    /// Target system name.
    pub system: &'static str,
    /// One-line description (Table 5).
    pub description: &'static str,
    /// Target + workload.
    pub scenario: Scenario,
    /// The failure oracle.
    pub oracle: Oracle,
    /// Description string of the root-cause site in the target program.
    pub root_site_desc: &'static str,
    /// Exception the root cause throws (Table 5's "Injected Fault").
    pub root_exc: ExceptionType,
    /// Seed of the production failure run.
    pub failure_seed: u64,
    /// Alternative deeper causes (empty for most cases).
    pub deeper_causes: Vec<DeeperCause>,
}

/// Errors from ground-truth resolution.
#[derive(Debug, Clone)]
pub enum CaseError {
    /// The named root site does not exist in the program.
    NoSuchSite(String),
    /// No occurrence of the root site satisfies the oracle.
    NotReproducible(String),
    /// The simulator failed.
    Sim(String),
}

impl std::fmt::Display for CaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaseError::NoSuchSite(s) => write!(f, "no such site: {s}"),
            CaseError::NotReproducible(s) => write!(f, "not reproducible: {s}"),
            CaseError::Sim(s) => write!(f, "simulation error: {s}"),
        }
    }
}

impl std::error::Error for CaseError {}

impl FailureCase {
    /// Resolves the root-cause site id from its description.
    pub fn root_site(&self) -> Result<SiteId, CaseError> {
        self.scenario
            .program
            .sites
            .iter()
            .find(|s| s.desc == self.root_site_desc)
            .map(|s| s.id)
            .ok_or_else(|| CaseError::NoSuchSite(self.root_site_desc.to_string()))
    }

    /// Resolves the ground truth: scans the root site's dynamic occurrences
    /// under the failure seed for one that satisfies the oracle.
    ///
    /// This mirrors the paper's setup: the tickets are resolved, so the
    /// root-cause *site* is known, and the failure log is obtained "by
    /// manually reproducing the failure first based on the ground truth".
    pub fn ground_truth(&self) -> Result<GroundTruth, CaseError> {
        let site = self.root_site()?;
        let normal = self
            .scenario
            .run(self.failure_seed, InjectionPlan::none())
            .map_err(|e| CaseError::Sim(e.to_string()))?;
        let total = normal.site_occurrences[site.index()];
        for occurrence in 0..total.max(1) {
            let r = self
                .scenario
                .run(
                    self.failure_seed,
                    InjectionPlan::exact(site, occurrence, self.root_exc),
                )
                .map_err(|e| CaseError::Sim(e.to_string()))?;
            if r.injected.is_some() && self.oracle.check(&r) {
                return Ok(GroundTruth {
                    site,
                    occurrence,
                    exc: self.root_exc,
                    seed: self.failure_seed,
                });
            }
        }
        Err(CaseError::NotReproducible(format!(
            "{}: no occurrence of {} (of {total}) satisfies the oracle",
            self.id, self.root_site_desc
        )))
    }

    /// Renders the "production" failure log for this case.
    pub fn failure_log(&self) -> Result<String, CaseError> {
        self.failure_log_for(&self.ground_truth()?)
    }

    /// Renders the failure log for an already-resolved ground truth: one
    /// run of its plan, without repeating the occurrence scan.
    pub fn failure_log_for(&self, gt: &GroundTruth) -> Result<String, CaseError> {
        let r = self
            .scenario
            .run(
                gt.seed,
                InjectionPlan::exact(gt.site, gt.occurrence, gt.exc),
            )
            .map_err(|e| CaseError::Sim(e.to_string()))?;
        Ok(r.log_text())
    }

    /// Checks that the workload alone (no injection) does **not** satisfy
    /// the oracle — the defining property of a fault-induced failure.
    pub fn fault_free_run_is_healthy(&self) -> Result<bool, CaseError> {
        let r = self
            .scenario
            .run(self.failure_seed, InjectionPlan::none())
            .map_err(|e| CaseError::Sim(e.to_string()))?;
        Ok(!self.oracle.check(&r))
    }
}
