//! The static service components, packaged as proxy pipeline filters.
//!
//! Each service crate exposes its transformation over a
//! [`RewriteUnit`]; this module adapts them to the proxy's stackable
//! [`Filter`] API and aggregates the service statistics the experiments
//! report (static check counts for Figure 8, instrumentation counts,
//! etc.).

use std::sync::Arc;

use parking_lot::Mutex;

use dvm_bytecode::RewriteUnit;
use dvm_classfile::ClassFile;
use dvm_monitor::{ProfileMode, SiteTable};
use dvm_proxy::{Filter, FilterError, RequestContext};
use dvm_security::{Policy, SecurityId};
use dvm_verifier::StaticVerifier;

/// A static service that edits a [`RewriteUnit`] in place, so services
/// stacked on one unit share each body's single decode and encode. The
/// [`Filter`] form is a wrapper: a unit of its own, one service, and an
/// encode of what that service edited.
///
/// A service sees the class and nothing of the request: the proxy caches
/// one rewrite per URL and serves it to every client.
pub trait UnitFilter: Filter {
    /// Transforms one class in place.
    fn apply_unit(&self, unit: &mut RewriteUnit) -> Result<(), FilterError>;
}

/// `filter`'s error `e` as a [`FilterError`].
pub(crate) fn filter_error(filter: &str, e: impl std::fmt::Display) -> FilterError {
    FilterError {
        filter: filter.into(),
        reason: e.to_string(),
    }
}

/// [`Filter::apply`] of a [`UnitFilter`].
fn apply_via_unit(filter: &dyn UnitFilter, class: ClassFile) -> Result<ClassFile, FilterError> {
    let mut unit = RewriteUnit::new(class);
    filter.apply_unit(&mut unit)?;
    unit.finish().map_err(|e| filter_error(filter.name(), e))
}

/// Aggregated static-service statistics across all processed classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticServiceStats {
    /// Verifier: checks performed statically.
    pub static_checks: u64,
    /// Verifier: runtime checks injected.
    pub dynamic_checks_injected: u64,
    /// Verifier: classes replaced due to verification failure.
    pub replacements: u64,
    /// Security: access checks inserted.
    pub security_checks_inserted: u64,
    /// Audit: probes inserted.
    pub audit_probes: u64,
    /// Profile: probes inserted.
    pub profile_probes: u64,
    /// Total instructions examined by rewriting services.
    pub instructions_examined: u64,
}

/// The verification service as a filter (static phases + Figure 3 split).
pub struct VerifierFilter {
    verifier: Mutex<StaticVerifier>,
    stats: Arc<Mutex<StaticServiceStats>>,
}

impl VerifierFilter {
    /// Creates the filter around a verifier and a shared stats sink.
    pub fn new(verifier: StaticVerifier, stats: Arc<Mutex<StaticServiceStats>>) -> Self {
        VerifierFilter {
            verifier: Mutex::new(verifier),
            stats,
        }
    }
}

impl Filter for VerifierFilter {
    fn name(&self) -> &str {
        "verifier"
    }

    fn apply(&self, class: ClassFile, _: &RequestContext) -> Result<ClassFile, FilterError> {
        apply_via_unit(self, class)
    }
}

impl UnitFilter for VerifierFilter {
    fn apply_unit(&self, unit: &mut RewriteUnit) -> Result<(), FilterError> {
        let mut v = self.verifier.lock();
        // The proxy sees every class of the organization flow through it;
        // learning signatures lets later classes discharge more statically.
        v.learn(&unit.class);
        let report = v.verify_or_replace(unit);
        drop(v);
        // §4.3 reflection service: ship a self-describing digest so
        // injected checks avoid the slow client reflection path.
        let _ = dvm_verifier::attach_self_describing(&mut unit.class);
        let mut s = self.stats.lock();
        s.static_checks += report.static_checks;
        s.dynamic_checks_injected += report.dynamic_checks_injected;
        if report.static_checks == 0 {
            s.replacements += 1;
        }
        Ok(())
    }
}

/// The security service as a filter: it inserts `Enforcer.check(perm)`
/// before every protected call, naming no principal.
pub struct SecurityFilter {
    policy: Arc<Mutex<Policy>>,
    stats: Arc<Mutex<StaticServiceStats>>,
}

impl SecurityFilter {
    /// Creates the filter over the organization's shared `policy`.
    ///
    /// `_default_sid` is ignored: the rewrite no longer depends on who
    /// asks for a class. The parameter stays only because the frozen
    /// benchmark replay (`repro_e2e/src/replay.rs`) still passes it;
    /// ROADMAP item 24 removes it.
    pub fn new(
        policy: Arc<Mutex<Policy>>,
        _default_sid: SecurityId,
        stats: Arc<Mutex<StaticServiceStats>>,
    ) -> Self {
        SecurityFilter { policy, stats }
    }
}

impl Filter for SecurityFilter {
    fn name(&self) -> &str {
        "security"
    }

    fn apply(&self, class: ClassFile, _: &RequestContext) -> Result<ClassFile, FilterError> {
        apply_via_unit(self, class)
    }
}

impl UnitFilter for SecurityFilter {
    fn apply_unit(&self, unit: &mut RewriteUnit) -> Result<(), FilterError> {
        let rw = dvm_security::secure_class(unit, &self.policy.lock())
            .map_err(|e| filter_error("security", e))?;
        let mut s = self.stats.lock();
        s.security_checks_inserted += rw.checks_inserted;
        s.instructions_examined += rw.instructions_examined;
        Ok(())
    }
}

/// Methods below this body size are not audit-instrumented (tiny leaf
/// accessors are not noteworthy events; every instruction is still
/// examined statically).
pub const AUDIT_MIN_INSNS: usize = 20;

/// The audit instrumentation service as a filter.
pub struct AuditFilter {
    sites: Arc<Mutex<SiteTable>>,
    stats: Arc<Mutex<StaticServiceStats>>,
}

impl AuditFilter {
    /// Creates the filter around the shared site table.
    pub fn new(sites: Arc<Mutex<SiteTable>>, stats: Arc<Mutex<StaticServiceStats>>) -> Self {
        AuditFilter { sites, stats }
    }
}

impl Filter for AuditFilter {
    fn name(&self) -> &str {
        "audit"
    }

    fn apply(&self, class: ClassFile, _: &RequestContext) -> Result<ClassFile, FilterError> {
        apply_via_unit(self, class)
    }
}

impl UnitFilter for AuditFilter {
    fn apply_unit(&self, unit: &mut RewriteUnit) -> Result<(), FilterError> {
        let st = dvm_monitor::audit_class_filtered(unit, &mut self.sites.lock(), AUDIT_MIN_INSNS)
            .map_err(|e| filter_error("audit", e))?;
        let mut s = self.stats.lock();
        s.audit_probes += st.probes;
        s.instructions_examined += st.instructions_examined;
        Ok(())
    }
}

/// The profiling instrumentation service as a filter.
pub struct ProfileFilter {
    sites: Arc<Mutex<SiteTable>>,
    mode: ProfileMode,
    stats: Arc<Mutex<StaticServiceStats>>,
}

impl ProfileFilter {
    /// Creates the filter.
    pub fn new(
        sites: Arc<Mutex<SiteTable>>,
        mode: ProfileMode,
        stats: Arc<Mutex<StaticServiceStats>>,
    ) -> Self {
        ProfileFilter { sites, mode, stats }
    }
}

impl Filter for ProfileFilter {
    fn name(&self) -> &str {
        "profiler"
    }

    fn apply(&self, class: ClassFile, _: &RequestContext) -> Result<ClassFile, FilterError> {
        apply_via_unit(self, class)
    }
}

impl UnitFilter for ProfileFilter {
    fn apply_unit(&self, unit: &mut RewriteUnit) -> Result<(), FilterError> {
        let st = dvm_monitor::profile_class(unit, &mut self.sites.lock(), self.mode)
            .map_err(|e| filter_error("profiler", e))?;
        let mut s = self.stats.lock();
        s.profile_probes += st.probes;
        s.instructions_examined += st.instructions_examined;
        Ok(())
    }
}
