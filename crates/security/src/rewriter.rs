//! The security rewriter: the static component of the security service.
//!
//! Given the organization policy, the rewriter scans every method body for
//! call sites that match a policy operation and inserts
//! `dvm/rt/Enforcer.check(perm)` immediately before them (§3.2: "inserting
//! calls to the enforcement manager at method and constructor boundaries so
//! that resource accesses are preceded by the appropriate access checks").
//! The served code names only the permission: the client's enforcement
//! manager decides each check under its own session's SID, so one rewrite
//! serves every principal.

use dvm_bytecode::insn::Insn;
use dvm_bytecode::{CodeEditor, RewriteUnit};

use crate::policy::Policy;

/// Statistics from a rewriting pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecurityRewriteStats {
    /// Call sites instrumented.
    pub checks_inserted: u64,
    /// Methods whose bodies were modified.
    pub methods_instrumented: u64,
    /// Instructions examined (the policy in §4.1 "forces the DVM services
    /// to parse every class and examine every instruction").
    pub instructions_examined: u64,
}

/// Error from the rewriting pass (malformed method bodies).
pub type RewriteError = dvm_bytecode::BytecodeError;

/// Rewrites `unit` so that every protected call site checks its
/// permission first. Only bodies that gain a check are marked dirty.
pub fn secure_class(
    unit: &mut RewriteUnit,
    policy: &Policy,
) -> Result<SecurityRewriteStats, RewriteError> {
    let mut stats = SecurityRewriteStats::default();
    let cf = &mut unit.class;
    let enforcer = cf.pool.methodref("dvm/rt/Enforcer", "check", "(I)V")?;

    // Pre-resolve the member refs of instrumentable call sites once per
    // class: map pool index -> required permission.
    let mut protected: Vec<(u16, u32)> = Vec::new();
    for (idx, _) in cf.pool.iter() {
        if let Ok((class, name, _)) = cf.pool.get_member_ref(idx) {
            if let Some(perm) = policy.operation_permission(class, name) {
                protected.push((idx, perm.0));
            }
        }
    }
    let permission = |insn: &Insn| match insn {
        Insn::InvokeVirtual(i)
        | Insn::InvokeSpecial(i)
        | Insn::InvokeStatic(i)
        | Insn::InvokeInterface(i) => protected
            .iter()
            .find(|(p, _)| p == i)
            .map(|(_, perm)| *perm),
        _ => None,
    };

    for m in 0..unit.class.methods.len() {
        let Some(code) = unit.body(m)? else { continue };
        stats.instructions_examined += code.insns.len() as u64;
        let inserted = code
            .insns
            .iter()
            .filter(|insn| permission(insn).is_some())
            .count() as u64;
        if inserted == 0 {
            continue;
        }
        let code = unit.body_mut(m)?.expect("decoded above");
        CodeEditor::new(code).insert_before_matching(
            |insn| permission(insn).is_some(),
            |_, insn| {
                let perm = permission(insn).expect("matched above");
                vec![Insn::IConst(perm as i32), Insn::InvokeStatic(enforcer)]
            },
        );
        stats.checks_inserted += inserted;
        stats.methods_instrumented += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::example_policy;
    use dvm_bytecode::asm::Asm;
    use dvm_bytecode::Code;
    use dvm_classfile::{AccessFlags, Attribute, ClassBuilder, ClassFile, MemberInfo};

    fn app() -> ClassFile {
        let mut cf = ClassBuilder::new("t/App").build();
        let getprop = cf
            .pool
            .methodref(
                "java/lang/System",
                "getProperty",
                "(Ljava/lang/String;)Ljava/lang/String;",
            )
            .unwrap();
        let key = cf.pool.string("os.name").unwrap();
        let mut a = Asm::new(0);
        a.ldc(key).invokestatic(getprop).pop().ret();
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
    fn protected_call_sites_get_checks() {
        let policy = Policy::parse(example_policy()).unwrap();
        let mut unit = RewriteUnit::new(app());
        let stats = secure_class(&mut unit, &policy).unwrap();
        let cf = unit.finish().unwrap();
        assert_eq!(stats.checks_inserted, 1);
        assert_eq!(stats.methods_instrumented, 1);
        let m = cf.find_method("main", "()V").unwrap();
        let code = Code::decode(m.code().unwrap()).unwrap();
        // Original: [ldc, invokestatic getprop, pop, return]
        // Rewritten: [ldc, iconst perm, check, getprop, pop, return] — the
        // check sits immediately before the protected call and names no
        // principal.
        assert_eq!(code.insns.len(), 6);
        assert!(matches!(code.insns[0], Insn::Ldc(_)));
        assert_eq!(code.insns[1], Insn::IConst(10));
        let Insn::InvokeStatic(check) = code.insns[2] else {
            panic!("expected the enforcer call, got {:?}", code.insns[2]);
        };
        assert_eq!(
            cf.pool.get_member_ref(check).unwrap(),
            ("dvm/rt/Enforcer", "check", "(I)V")
        );
    }

    #[test]
    fn unprotected_classes_are_untouched() {
        let policy = Policy::parse(example_policy()).unwrap();
        let mut cf = ClassBuilder::new("t/Plain").build();
        let mut a = Asm::new(0);
        a.ret();
        let attr = a.finish().unwrap().encode(&cf.pool).unwrap();
        let n = cf.pool.utf8("f").unwrap();
        let d = cf.pool.utf8("()V").unwrap();
        cf.methods.push(MemberInfo {
            access: AccessFlags::PUBLIC | AccessFlags::STATIC,
            name_index: n,
            descriptor_index: d,
            attributes: vec![Attribute::Code(attr)],
        });
        let mut unit = RewriteUnit::new(cf);
        let stats = secure_class(&mut unit, &policy).unwrap();
        assert_eq!(stats.checks_inserted, 0);
        assert_eq!(unit.bodies.decoded(), 1);
        assert_eq!(unit.bodies.encode_dirty(&mut unit.class).unwrap(), 0);
        assert_eq!(stats.methods_instrumented, 0);
        assert!(stats.instructions_examined > 0);
    }
}
