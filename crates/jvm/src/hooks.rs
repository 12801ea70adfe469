//! Client-side hooks for the DVM's dynamic service components.
//!
//! Injected service calls (`dvm/rt/Enforcer.check`, `dvm/rt/Audit.*`,
//! `dvm/rt/Profiler.*`) terminate in these hooks. The VM itself stays
//! service-agnostic: the enforcement manager, audit forwarder, and profiler
//! live in their service crates and are plugged in by `dvm-core`.

/// Result of an access-control check performed by the enforcement manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityDecision {
    /// Access granted; `cost_cycles` models where the answer came from
    /// (warm client cache vs. a policy download from the security server).
    Allow {
        /// Simulated cycles the check consumed.
        cost_cycles: u64,
    },
    /// Access denied; the VM throws `java/lang/SecurityException`.
    Deny {
        /// Simulated cycles the check consumed.
        cost_cycles: u64,
    },
}

/// The client-resident dynamic service components.
///
/// All methods have no-op defaults so a bare VM (monolithic configuration
/// with services disabled, as in the paper's DVM measurements on the Sun
/// JDK client) runs unmodified applications.
pub trait DynamicServices: Send {
    /// `dvm/rt/Enforcer.check(perm)` — ask the enforcement manager
    /// whether this client's session may use `perm`. The code names only
    /// the permission; the manager supplies the session's SID.
    fn security_check(&mut self, _perm: i32) -> SecurityDecision {
        SecurityDecision::Allow { cost_cycles: 0 }
    }

    /// `dvm/rt/Audit.enter/exit/event(site)` — forward an audit event.
    fn audit_event(&mut self, _site: i32, _kind: AuditKind) {}

    /// `dvm/rt/Profiler.count(site)` — bump an execution counter.
    fn profile_count(&mut self, _site: i32) {}

    /// `dvm/rt/Profiler.firstUse(site)` — record first execution of a
    /// method (drives the §5 repartitioning first-use graph).
    fn first_use(&mut self, _site: i32) {}

    /// Delivers whatever the components buffered (batched audit events).
    /// The VM calls it before every class fetch that reaches its
    /// provider, so no event waits behind newly fetched code.
    fn flush(&mut self) {}
}

/// Kinds of audit events emitted by instrumented code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// Method or constructor entry.
    Enter,
    /// Method or constructor exit.
    Exit,
    /// A generic noteworthy event.
    Event,
}

/// Per-operation check costs for the *monolithic* security model.
///
/// Sun's JDK hardwires security checks at the library sites its developers
/// anticipated (property access, file open, thread operations); file
/// *reads* have no check at all — the paper's Figure 9 marks that row
/// "N/A". A monolithic client configures the cycle cost of each
/// anticipated check here (computed from the stack-introspection model);
/// the DVM client leaves everything `None` and relies on injected
/// enforcement calls instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuiltinChecks {
    /// `System.getProperty` check cost, if checked.
    pub get_property: Option<u64>,
    /// `FileInputStream.<init>` (open) check cost, if checked.
    pub open_file: Option<u64>,
    /// `Thread.setPriority` check cost, if checked.
    pub set_priority: Option<u64>,
    /// `FileInputStream.read` check cost — `None` in the JDK model (the
    /// unanticipated operation).
    pub read_file: Option<u64>,
}

/// The default hook set: everything is a no-op and all checks allow.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoServices;

impl DynamicServices for NoServices {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_allow_everything() {
        let mut s = NoServices;
        assert_eq!(
            s.security_check(2),
            SecurityDecision::Allow { cost_cycles: 0 }
        );
        s.audit_event(0, AuditKind::Enter);
        s.profile_count(0);
        s.first_use(0);
        s.flush();
    }
}
