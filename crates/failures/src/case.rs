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
    /// Dynamic occurrence of the root site the fault hits under
    /// `failure_seed`: ticket data, like the site. A caller that changes
    /// the case's inputs re-derives it with
    /// [`FailureCase::scan_root_occurrence`].
    pub root_occurrence: u32,
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

    /// The ground truth: the pinned root occurrence of the root site under
    /// the failure seed. A lookup; nothing is simulated.
    pub fn ground_truth(&self) -> Result<GroundTruth, CaseError> {
        Ok(GroundTruth {
            site: self.root_site()?,
            occurrence: self.root_occurrence,
            exc: self.root_exc,
            seed: self.failure_seed,
        })
    }

    /// Renders the "production" failure log: one run of the ground truth's
    /// plan. This mirrors the paper's setup, where the failure log is
    /// obtained "by manually reproducing the failure first based on the
    /// ground truth"; a pin that does not fire or does not satisfy the
    /// oracle is [`CaseError::NotReproducible`].
    pub fn failure_log(&self) -> Result<String, CaseError> {
        let gt = self.ground_truth()?;
        let r = self
            .scenario
            .run(
                gt.seed,
                InjectionPlan::exact(gt.site, gt.occurrence, gt.exc),
            )
            .map_err(|e| CaseError::Sim(e.to_string()))?;
        if r.injected.is_some() && self.oracle.check(&r) {
            Ok(r.log_text())
        } else {
            Err(CaseError::NotReproducible(format!(
                "{}: occurrence {} of {} does not reproduce the failure",
                self.id, gt.occurrence, self.root_site_desc
            )))
        }
    }

    /// Derives the root occurrence from the case's inputs: the first
    /// occurrence of the root site whose exact injection fires and satisfies
    /// the oracle under the failure seed. A plan fires exactly when the
    /// site runs that often, and a run whose plan never fires equals the
    /// fault-free run, so the scan stops at the first occurrence that does
    /// not fire: the fault-free occurrence count.
    pub fn scan_root_occurrence(&self) -> Result<u32, CaseError> {
        let site = self.root_site()?;
        let compiled = anduril_ir::lower::compile(&self.scenario.program);
        let mut occurrence = 0;
        loop {
            let r = self
                .scenario
                .run_compiled(
                    &compiled,
                    self.failure_seed,
                    InjectionPlan::exact(site, occurrence, self.root_exc),
                )
                .map_err(|e| CaseError::Sim(e.to_string()))?;
            if r.injected.is_none() {
                return Err(CaseError::NotReproducible(format!(
                    "{}: no occurrence of {} (of {occurrence}) satisfies the oracle",
                    self.id, self.root_site_desc
                )));
            }
            if self.oracle.check(&r) {
                return Ok(occurrence);
            }
            occurrence += 1;
        }
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
