//! The DVM verification service (§3.1 of the paper).
//!
//! Java verification has four phases: (1) class-file internal consistency,
//! (2) instruction integrity, (3) type safety, and (4) link-time interface
//! checks. In the distributed configuration the first three run statically
//! on a network server; phase 4 is partially discharged against the
//! server's signature environment and the remainder is compiled into the
//! application as self-verifying runtime checks (Figure 3). In the
//! monolithic configuration all four phases run on the client.
//!
//! # Examples
//!
//! ```
//! use dvm_verifier::{StaticVerifier, MapEnvironment};
//! use dvm_classfile::ClassBuilder;
//!
//! let verifier = StaticVerifier::new(MapEnvironment::with_bootstrap());
//! let class = ClassBuilder::new("demo/Empty").build();
//! let (verified, report) = verifier.verify(class).unwrap();
//! assert!(report.static_checks > 0);
//! assert_eq!(verified.name().unwrap(), "demo/Empty");
//! ```

pub mod assumptions;
pub mod env;
pub mod error;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod reflection;
pub mod replacement;
pub mod rewrite;
pub mod types;

pub use assumptions::{Assumption, Scope, ScopedAssumption};
pub use env::{EmptyEnvironment, MapEnvironment, SignatureEnvironment};
pub use error::{Result, VerifyFailure};
pub use reflection::{attach_self_describing, digest_has_member, self_description};
pub use replacement::replacement_class;
pub use types::VType;

use dvm_bytecode::{Bodies, RewriteUnit};
use dvm_classfile::ClassFile;

/// Outcome statistics of a verification run (the data behind Figure 8).
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Checks performed statically (phases 1–3 plus discharged link
    /// assumptions).
    pub static_checks: u64,
    /// Runtime checks injected into the application (the dynamic
    /// component's workload).
    pub dynamic_checks_injected: u64,
    /// Link assumptions proven against the environment.
    pub discharged_assumptions: u64,
    /// All assumptions collected by phase 3.
    pub assumptions: Vec<ScopedAssumption>,
}

/// The static verification service: phases 1–3 plus the phase-4 split.
#[derive(Debug, Default)]
pub struct StaticVerifier {
    env: MapEnvironment,
}

impl StaticVerifier {
    /// Creates a verifier with the given signature environment.
    pub fn new(env: MapEnvironment) -> StaticVerifier {
        StaticVerifier { env }
    }

    /// Adds a class's signatures to the environment (the proxy does this
    /// for every class it processes, growing what it can discharge).
    pub fn learn(&mut self, cf: &ClassFile) {
        self.env.add(cf);
    }

    /// Read access to the environment.
    pub fn environment(&self) -> &MapEnvironment {
        &self.env
    }

    /// Verifies `cf`, producing the (possibly rewritten, self-verifying)
    /// class and a report.
    pub fn verify(&self, cf: ClassFile) -> Result<(ClassFile, VerifyReport)> {
        let mut unit = RewriteUnit::new(cf);
        let report = self.verify_unit(&mut unit)?;
        Ok((unit.finish()?, report))
    }

    /// [`StaticVerifier::verify`] in place: phase 2 decodes each body
    /// into `unit` once, phase 3 reads those bodies, and the phase-4
    /// split edits them.
    pub fn verify_unit(&self, unit: &mut RewriteUnit) -> Result<VerifyReport> {
        let cf = &unit.class;
        let mut report = VerifyReport::default();
        report.static_checks += phase1::check(cf)?;
        report.static_checks += phase2::check(cf, &mut unit.bodies)?;
        let p3 = phase3::check(cf, &mut unit.bodies)?;
        report.static_checks += p3.checks;
        let out = rewrite::split_and_rewrite(unit, &p3.assumptions, &self.env)?;
        report.assumptions = p3.assumptions;
        dvm_fuzz::cov!("verify.ok");
        report.static_checks += out.discharged;
        report.discharged_assumptions = out.discharged;
        report.dynamic_checks_injected = out.injected_checks;
        Ok(report)
    }

    /// Like [`StaticVerifier::verify_unit`], but converts failures into
    /// the paper's replacement-class mechanism instead of an error: a
    /// class that fails verification is swapped for its replacement
    /// inside `unit`.
    pub fn verify_or_replace(&self, unit: &mut RewriteUnit) -> VerifyReport {
        match self.verify_unit(unit) {
            Ok(report) => report,
            Err(e) => {
                // A failure leaves at most synthetic members, pool
                // entries and injected prologues behind, and the
                // replacement keeps only the other method signatures, so
                // a class the split had begun to edit is replaced like
                // the original.
                let cf = &unit.class;
                let name = cf.name().unwrap_or("invalid/Class");
                unit.replace(replacement_class(name, &e.to_string(), Some(cf)));
                VerifyReport::default()
            }
        }
    }
}

/// Monolithic verification: all four phases at the client against its full
/// local namespace. Returns the total number of checks performed locally.
pub fn monolithic_verify(cf: &ClassFile, env: &dyn SignatureEnvironment) -> Result<u64> {
    let mut checks = phase1::check(cf)?;
    let mut bodies = Bodies::new();
    checks += phase2::check(cf, &mut bodies)?;
    let p3 = phase3::check(cf, &mut bodies)?;
    checks += p3.checks;
    for sa in &p3.assumptions {
        checks += 1;
        if env.check(&sa.assumption) == Some(false) {
            return Err(VerifyFailure {
                phase: 4,
                class: cf.name()?.to_owned(),
                method: sa.method.as_ref().map(|(n, _)| n.clone()),
                at: None,
                reason: format!("link check failed: {:?}", sa.assumption),
            });
        }
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_bytecode::asm::Asm;
    use dvm_classfile::attributes::CodeAttribute;
    use dvm_classfile::{AccessFlags, Attribute, ClassBuilder, MemberInfo};

    fn hello() -> ClassFile {
        let mut cf = ClassBuilder::new("t/Hello").build();
        let out = cf
            .pool
            .fieldref("java/lang/System", "out", "Ljava/io/PrintStream;")
            .unwrap();
        let println = cf
            .pool
            .methodref("java/io/PrintStream", "println", "(Ljava/lang/String;)V")
            .unwrap();
        let msg = cf.pool.string("hello world").unwrap();
        let mut a = Asm::new(0);
        a.getstatic(out).ldc(msg).invokevirtual(println).ret();
        let attr = a.finish().unwrap().encode(&cf.pool).unwrap();
        let n = cf.pool.utf8("main").unwrap();
        let d = cf.pool.utf8("()V").unwrap();
        cf.methods.push(MemberInfo {
            access: AccessFlags::PUBLIC | AccessFlags::STATIC,
            name_index: n,
            descriptor_index: d,
            attributes: vec![Attribute::Code(attr)],
        });
        cf
    }

    #[test]
    fn hello_world_verifies_with_bootstrap_environment() {
        let v = StaticVerifier::new(MapEnvironment::with_bootstrap());
        let (out, report) = v.verify(hello()).unwrap();
        assert!(report.static_checks > 10);
        assert_eq!(report.dynamic_checks_injected, 0);
        assert_eq!(report.discharged_assumptions, 2);
        assert_eq!(out.name().unwrap(), "t/Hello");
    }

    #[test]
    fn hello_world_gets_runtime_checks_without_environment() {
        let v = StaticVerifier::new(MapEnvironment::new());
        let (out, report) = v.verify(hello()).unwrap();
        assert_eq!(report.dynamic_checks_injected, 2);
        // The rewritten main carries the Figure 3 prologue.
        let m = out.find_method("main", "()V").unwrap();
        assert!(m.code().unwrap().code.len() > 10);
    }

    #[test]
    fn type_error_is_rejected_in_phase3() {
        // Pushes a float, returns it as int.
        let mut cf = ClassBuilder::new("t/Bad").build();
        let mut a = Asm::new(0);
        a.raw(dvm_bytecode::Insn::FConst(1.0));
        a.ret_val(dvm_bytecode::Kind::Int);
        let attr = a.finish().unwrap().encode(&cf.pool).unwrap();
        let n = cf.pool.utf8("f").unwrap();
        let d = cf.pool.utf8("()I").unwrap();
        cf.methods.push(MemberInfo {
            access: AccessFlags::PUBLIC | AccessFlags::STATIC,
            name_index: n,
            descriptor_index: d,
            attributes: vec![Attribute::Code(attr)],
        });
        let v = StaticVerifier::default();
        let err = v.verify(cf).unwrap_err();
        assert_eq!(err.phase, 3);
    }

    #[test]
    fn verify_or_replace_produces_replacement() {
        // Hand-craft a body that underflows the stack: pop; return.
        let mut cf = ClassBuilder::new("t/Bad2").build();
        let attr = CodeAttribute {
            max_stack: 1,
            max_locals: 0,
            code: vec![0x57, 0xB1],
            ..Default::default()
        };
        let n = cf.pool.utf8("f").unwrap();
        let d = cf.pool.utf8("()V").unwrap();
        cf.methods.push(MemberInfo {
            access: AccessFlags::PUBLIC | AccessFlags::STATIC,
            name_index: n,
            descriptor_index: d,
            attributes: vec![Attribute::Code(attr)],
        });
        let v = StaticVerifier::default();
        let mut unit = RewriteUnit::new(cf);
        let report = v.verify_or_replace(&mut unit);
        let out = unit.finish().unwrap();
        assert_eq!(out.name().unwrap(), "t/Bad2");
        assert_eq!(report.static_checks, 0);
        assert!(out.find_method("<clinit>", "()V").is_some());
    }

    #[test]
    fn monolithic_verify_counts_checks() {
        let env = MapEnvironment::with_bootstrap();
        let checks = monolithic_verify(&hello(), &env).unwrap();
        assert!(checks > 10);
    }
}
