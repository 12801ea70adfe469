//! Phase 4 static/dynamic split: discharge assumptions against the
//! environment and compile the rest into injected runtime checks.
//!
//! This is the Figure 3 transformation: each instrumented method gets a
//! synthetic `__dvmChecked$N` flag and a prologue that runs the deferred
//! `dvm/rt/RTVerifier` checks exactly once; class-scope assumptions go into
//! `<clinit>` so they run before any use of the class.

use dvm_bytecode::insn::{ICond, Insn};
use dvm_bytecode::{Code, CodeEditor, RewriteUnit};
use dvm_classfile::{AccessFlags, Attribute, ClassFile, MemberInfo};

use crate::assumptions::{Assumption, Scope, ScopedAssumption};
use crate::env::SignatureEnvironment;
use crate::error::{Result, VerifyFailure};

/// Result of the split.
#[derive(Debug)]
pub struct RewriteOutput {
    /// Runtime checks injected (the dynamic side of Figure 8).
    pub injected_checks: u64,
    /// Assumptions proven statically against the environment.
    pub discharged: u64,
}

const RT: &str = "dvm/rt/RTVerifier";
const CHECK_MEMBER_DESC: &str = "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V";
const CHECK_CLASS_DESC: &str = "(Ljava/lang/String;Ljava/lang/String;)V";

/// Splits `assumptions` into statically-discharged and runtime-deferred
/// sets, rewriting `unit` in place to carry the deferred checks. Nothing
/// is edited when an assumption is violated.
pub fn split_and_rewrite(
    unit: &mut RewriteUnit,
    assumptions: &[ScopedAssumption],
    env: &dyn SignatureEnvironment,
) -> Result<RewriteOutput> {
    let class_name = unit.class.name()?.to_owned();
    let mut discharged = 0u64;
    let mut deferred_class: Vec<Assumption> = Vec::new();
    let mut deferred_method: Vec<(String, String, Assumption)> = Vec::new();

    for sa in assumptions {
        match env.check(&sa.assumption) {
            Some(true) => discharged += 1,
            Some(false) => {
                return Err(VerifyFailure {
                    phase: 4,
                    class: class_name,
                    method: sa.method.as_ref().map(|(n, _)| n.clone()),
                    at: None,
                    reason: format!("link assumption violated: {:?}", sa.assumption),
                });
            }
            None => match (&sa.scope, &sa.method) {
                (Scope::Class, _) | (_, None) => deferred_class.push(sa.assumption.clone()),
                (Scope::Method, Some((n, d))) => {
                    deferred_method.push((n.clone(), d.clone(), sa.assumption.clone()))
                }
            },
        }
    }

    let mut injected = 0u64;

    // Class-scope checks go into <clinit> (created if missing).
    if !deferred_class.is_empty() {
        injected += deferred_class.len() as u64;
        inject_clinit_checks(unit, &deferred_class)?;
    }

    // Method-scope checks get a guarded prologue.
    let mut flag_counter = 0usize;
    // Group assumptions per method.
    let mut grouped: Vec<((String, String), Vec<Assumption>)> = Vec::new();
    for (n, d, a) in deferred_method {
        match grouped
            .iter_mut()
            .find(|((gn, gd), _)| gn == &n && gd == &d)
        {
            Some((_, v)) => v.push(a),
            None => grouped.push(((n, d), vec![a])),
        }
    }
    for ((mname, mdesc), checks) in grouped {
        injected += checks.len() as u64;
        inject_method_checks(unit, &mname, &mdesc, &checks, &mut flag_counter)?;
    }

    Ok(RewriteOutput {
        injected_checks: injected,
        discharged,
    })
}

/// Builds the instruction block performing `checks`, with pool interning.
fn check_block(cf: &mut ClassFile, checks: &[Assumption]) -> Result<Vec<Insn>> {
    let check_member = |cf: &mut ClassFile, which: &str| -> Result<u16> {
        Ok(cf.pool.methodref(RT, which, CHECK_MEMBER_DESC)?)
    };
    let mut insns = Vec::new();
    for a in checks {
        match a {
            Assumption::FieldExists {
                class,
                name,
                descriptor,
            } => {
                let c = cf.pool.string(class)?;
                let n = cf.pool.string(name)?;
                let d = cf.pool.string(descriptor)?;
                let m = check_member(cf, "checkField")?;
                insns.extend([
                    Insn::Ldc(c),
                    Insn::Ldc(n),
                    Insn::Ldc(d),
                    Insn::InvokeStatic(m),
                ]);
            }
            Assumption::MethodExists {
                class,
                name,
                descriptor,
            } => {
                let c = cf.pool.string(class)?;
                let n = cf.pool.string(name)?;
                let d = cf.pool.string(descriptor)?;
                let m = check_member(cf, "checkMethod")?;
                insns.extend([
                    Insn::Ldc(c),
                    Insn::Ldc(n),
                    Insn::Ldc(d),
                    Insn::InvokeStatic(m),
                ]);
            }
            Assumption::Extends { class, superclass } => {
                let c = cf.pool.string(class)?;
                let s = cf.pool.string(superclass)?;
                let m = cf.pool.methodref(RT, "checkClass", CHECK_CLASS_DESC)?;
                insns.extend([Insn::Ldc(c), Insn::Ldc(s), Insn::InvokeStatic(m)]);
            }
        }
    }
    Ok(insns)
}

fn inject_clinit_checks(unit: &mut RewriteUnit, checks: &[Assumption]) -> Result<()> {
    let block = check_block(&mut unit.class, checks)?;
    match unit.class.method_index("<clinit>", "()V") {
        Some(clinit) => {
            let code = unit.body_mut(clinit)?.ok_or_else(|| VerifyFailure {
                phase: 4,
                class: String::new(),
                method: Some("<clinit>".into()),
                at: None,
                reason: "initializer without code".into(),
            })?;
            CodeEditor::new(code).insert_prologue(block);
        }
        None => {
            let mut insns = block;
            insns.push(Insn::Return(None));
            let code = Code {
                insns,
                handlers: vec![],
                max_locals: 0,
            };
            unit.push_method(
                AccessFlags::STATIC | AccessFlags::SYNTHETIC,
                "<clinit>",
                "()V",
                code,
            )?;
        }
    }
    Ok(())
}

fn inject_method_checks(
    unit: &mut RewriteUnit,
    mname: &str,
    mdesc: &str,
    checks: &[Assumption],
    flag_counter: &mut usize,
) -> Result<()> {
    let cf = &mut unit.class;
    // Synthetic guard flag.
    let flag_name = format!("__dvmChecked${flag_counter}");
    *flag_counter += 1;
    let class_name = cf.name()?.to_owned();
    push_field(
        cf,
        AccessFlags::STATIC | AccessFlags::SYNTHETIC,
        &flag_name,
        "Z",
    )?;
    let flag_ref = cf.pool.fieldref(&class_name, &flag_name, "Z")?;

    let mut block = vec![Insn::GetStatic(flag_ref), Insn::If(ICond::Ne, 0)];
    block.extend(check_block(cf, checks)?);
    block.push(Insn::IConst(1));
    block.push(Insn::PutStatic(flag_ref));
    // The guard skips to the first original instruction, i.e. just past the
    // injected block.
    let skip_to = block.len();
    if let Insn::If(_, t) = &mut block[1] {
        *t = skip_to;
    }

    let m = cf.method_index(mname, mdesc).ok_or_else(|| VerifyFailure {
        phase: 4,
        class: class_name.clone(),
        method: Some(mname.to_owned()),
        at: None,
        reason: "instrumented method disappeared".into(),
    })?;
    let code = unit.body_mut(m)?.ok_or_else(|| VerifyFailure {
        phase: 4,
        class: class_name,
        method: Some(mname.to_owned()),
        at: None,
        reason: "cannot instrument a bodyless method".into(),
    })?;
    CodeEditor::new(code).insert_prologue(block);
    Ok(())
}

fn push_field(cf: &mut ClassFile, access: AccessFlags, name: &str, descriptor: &str) -> Result<()> {
    let name_index = cf.pool.utf8(name)?;
    let descriptor_index = cf.pool.utf8(descriptor)?;
    cf.fields.push(MemberInfo {
        access,
        name_index,
        descriptor_index,
        attributes: vec![Attribute::Synthetic],
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EmptyEnvironment;

    fn sample_class() -> ClassFile {
        use dvm_bytecode::asm::Asm;
        let mut cf = dvm_classfile::ClassBuilder::new("t/Hello").build();
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

    fn split(
        cf: ClassFile,
        assumptions: &[ScopedAssumption],
        env: &dyn SignatureEnvironment,
    ) -> Result<(RewriteOutput, ClassFile)> {
        let mut unit = RewriteUnit::new(cf);
        let out = split_and_rewrite(&mut unit, assumptions, env)?;
        Ok((out, unit.finish()?))
    }

    fn hello_assumptions() -> Vec<ScopedAssumption> {
        vec![
            ScopedAssumption {
                assumption: Assumption::FieldExists {
                    class: "java/lang/System".into(),
                    name: "out".into(),
                    descriptor: "Ljava/io/PrintStream;".into(),
                },
                scope: Scope::Method,
                method: Some(("main".into(), "()V".into())),
            },
            ScopedAssumption {
                assumption: Assumption::MethodExists {
                    class: "java/io/PrintStream".into(),
                    name: "println".into(),
                    descriptor: "(Ljava/lang/String;)V".into(),
                },
                scope: Scope::Method,
                method: Some(("main".into(), "()V".into())),
            },
        ]
    }

    #[test]
    fn unknown_environment_defers_all_checks_figure3() {
        let (out, cf) = split(sample_class(), &hello_assumptions(), &EmptyEnvironment).unwrap();
        assert_eq!(out.injected_checks, 2);
        assert_eq!(out.discharged, 0);
        // The rewritten class has the guard flag and a longer main.
        assert!(cf.find_field("__dvmChecked$0").is_some());
        let m = cf.find_method("main", "()V").unwrap();
        let code = Code::decode(m.code().unwrap()).unwrap();
        // Prologue: getstatic, ifne, 2 checks * 4 insns, iconst_1, putstatic
        // = 12 injected + 4 original.
        assert_eq!(code.insns.len(), 16);
        assert!(matches!(code.insns[0], Insn::GetStatic(_)));
        assert!(matches!(code.insns[1], Insn::If(ICond::Ne, 12)));
    }

    #[test]
    fn bootstrap_environment_discharges_hello_world() {
        let env = crate::env::MapEnvironment::with_bootstrap();
        let (out, cf) = split(sample_class(), &hello_assumptions(), &env).unwrap();
        assert_eq!(out.injected_checks, 0);
        assert_eq!(out.discharged, 2);
        // No rewriting needed.
        let m = cf.find_method("main", "()V").unwrap();
        let code = Code::decode(m.code().unwrap()).unwrap();
        assert_eq!(code.insns.len(), 4);
    }

    #[test]
    fn violated_assumption_fails_phase4() {
        let env = crate::env::MapEnvironment::with_bootstrap();
        let bad = vec![ScopedAssumption {
            assumption: Assumption::MethodExists {
                class: "java/io/PrintStream".into(),
                name: "noSuchMethod".into(),
                descriptor: "()V".into(),
            },
            scope: Scope::Method,
            method: Some(("main".into(), "()V".into())),
        }];
        let err = split(sample_class(), &bad, &env).unwrap_err();
        assert_eq!(err.phase, 4);
    }

    #[test]
    fn class_scope_checks_create_clinit() {
        let deferred = vec![ScopedAssumption {
            assumption: Assumption::Extends {
                class: "ext/Base".into(),
                superclass: "java/lang/Object".into(),
            },
            scope: Scope::Class,
            method: None,
        }];
        let (out, cf) = split(sample_class(), &deferred, &EmptyEnvironment).unwrap();
        assert_eq!(out.injected_checks, 1);
        let clinit = cf.find_method("<clinit>", "()V").unwrap();
        let code = Code::decode(clinit.code().unwrap()).unwrap();
        // ldc, ldc, invokestatic, return
        assert_eq!(code.insns.len(), 4);
    }
}
