//! Phase 2: instruction integrity.
//!
//! Decodes every method body (which already validates opcode well-formedness
//! and branch alignment), then checks local-variable bounds, constant-pool
//! operand kinds, exception-table sanity, and operand-stack depth
//! consistency.

use dvm_bytecode::insn::Insn;
use dvm_bytecode::Bodies;
use dvm_classfile::pool::Constant;
use dvm_classfile::ClassFile;

use crate::error::{Result, VerifyFailure};

fn fail(class: &str, method: &str, at: Option<usize>, reason: String) -> VerifyFailure {
    dvm_fuzz::cov!("verify.phase2.fail");
    VerifyFailure {
        phase: 2,
        class: class.to_owned(),
        method: Some(method.to_owned()),
        at,
        reason,
    }
}

/// Runs phase 2 over every method with a body, decoding each into
/// `bodies` (phase 3 and the rewriting services reuse the decode).
/// Returns the checks performed.
pub fn check(cf: &ClassFile, bodies: &mut Bodies) -> Result<u64> {
    dvm_fuzz::cov!("verify.phase2");
    let class = cf.name()?.to_owned();
    let mut checks = 0u64;

    for (mi, m) in cf.methods.iter().enumerate() {
        let Some(attr) = m.code() else { continue };
        let mname = m.name(&cf.pool)?.to_owned();

        // Decode validates opcodes, operand lengths, branch alignment.
        let code = bodies
            .body(cf, mi)
            .map_err(|e| fail(&class, &mname, None, e.to_string()))?
            .expect("the method has a Code attribute");
        checks += code.insns.len() as u64;

        // Per-instruction operand validation.
        for (i, insn) in code.insns.iter().enumerate() {
            match insn {
                Insn::Load(kind, slot) | Insn::Store(kind, slot) => {
                    checks += 1;
                    let width = kind.width();
                    if *slot as u32 + width as u32 > attr.max_locals as u32 {
                        return Err(fail(
                            &class,
                            &mname,
                            Some(i),
                            format!("local {slot} exceeds max_locals {}", attr.max_locals),
                        ));
                    }
                }
                Insn::IInc(slot, _) | Insn::Ret(slot) => {
                    checks += 1;
                    if *slot >= attr.max_locals {
                        return Err(fail(
                            &class,
                            &mname,
                            Some(i),
                            format!("local {slot} exceeds max_locals {}", attr.max_locals),
                        ));
                    }
                }
                Insn::Ldc(idx) => {
                    checks += 1;
                    match cf.pool.get(*idx) {
                        Ok(Constant::Integer(_) | Constant::Float(_) | Constant::String { .. }) => {
                        }
                        Ok(other) => {
                            return Err(fail(
                                &class,
                                &mname,
                                Some(i),
                                format!("ldc of {} constant", other.kind()),
                            ))
                        }
                        Err(e) => return Err(fail(&class, &mname, Some(i), e.to_string())),
                    }
                }
                Insn::Ldc2(idx) => {
                    checks += 1;
                    match cf.pool.get(*idx) {
                        Ok(Constant::Long(_) | Constant::Double(_)) => {}
                        Ok(other) => {
                            return Err(fail(
                                &class,
                                &mname,
                                Some(i),
                                format!("ldc2_w of {} constant", other.kind()),
                            ))
                        }
                        Err(e) => return Err(fail(&class, &mname, Some(i), e.to_string())),
                    }
                }
                Insn::GetStatic(idx)
                | Insn::PutStatic(idx)
                | Insn::GetField(idx)
                | Insn::PutField(idx) => {
                    checks += 1;
                    let (_, _, d) = cf
                        .pool
                        .get_member_ref(*idx)
                        .map_err(|e| fail(&class, &mname, Some(i), e.to_string()))?;
                    dvm_classfile::FieldType::slot_width_of(d)
                        .map_err(|e| fail(&class, &mname, Some(i), e.to_string()))?;
                }
                Insn::InvokeVirtual(idx)
                | Insn::InvokeSpecial(idx)
                | Insn::InvokeStatic(idx)
                | Insn::InvokeInterface(idx) => {
                    checks += 1;
                    let (_, n, d) = cf
                        .pool
                        .get_member_ref(*idx)
                        .map_err(|e| fail(&class, &mname, Some(i), e.to_string()))?;
                    dvm_classfile::MethodDescriptor::arity(d)
                        .map_err(|e| fail(&class, &mname, Some(i), e.to_string()))?;
                    if n == "<init>" && !matches!(insn, Insn::InvokeSpecial(_)) {
                        return Err(fail(
                            &class,
                            &mname,
                            Some(i),
                            "constructors may only be invoked via invokespecial".into(),
                        ));
                    }
                }
                Insn::New(idx)
                | Insn::ANewArray(idx)
                | Insn::CheckCast(idx)
                | Insn::InstanceOf(idx)
                | Insn::MultiANewArray(idx, _) => {
                    checks += 1;
                    cf.pool
                        .get_class_name(*idx)
                        .map_err(|e| fail(&class, &mname, Some(i), e.to_string()))?;
                    if let Insn::MultiANewArray(_, dims) = insn {
                        if *dims == 0 {
                            return Err(fail(
                                &class,
                                &mname,
                                Some(i),
                                "multianewarray with zero dimensions".into(),
                            ));
                        }
                    }
                }
                _ => {}
            }
        }

        // Exception-table sanity (index form after decode).
        for h in &code.handlers {
            checks += 1;
            if h.start >= h.end {
                return Err(fail(
                    &class,
                    &mname,
                    None,
                    format!("empty handler range [{}, {})", h.start, h.end),
                ));
            }
            if h.catch_type != 0 {
                cf.pool
                    .get_class_name(h.catch_type)
                    .map_err(|e| fail(&class, &mname, None, e.to_string()))?;
            }
        }

        // Stack-depth dataflow (underflow + merge consistency + max_stack).
        checks += 1;
        let computed = code
            .compute_max_stack(&cf.pool)
            .map_err(|e| fail(&class, &mname, None, e.to_string()))?;
        if computed > attr.max_stack {
            return Err(fail(
                &class,
                &mname,
                None,
                format!("max_stack {} but depth reaches {computed}", attr.max_stack),
            ));
        }

        // The last instruction must not fall off the end.
        checks += 1;
        if let Some(last) = code.insns.last() {
            if last.can_fall_through() {
                return Err(fail(&class, &mname, None, "code falls off the end".into()));
            }
        } else {
            return Err(fail(&class, &mname, None, "empty code".into()));
        }
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_classfile::attributes::CodeAttribute;
    use dvm_classfile::{AccessFlags, ClassBuilder};

    fn ps() -> AccessFlags {
        AccessFlags::PUBLIC | AccessFlags::STATIC
    }

    #[test]
    fn accepts_simple_method() {
        let cf = ClassBuilder::new("t/Ok")
            .method(
                ps(),
                "f",
                "()I",
                CodeAttribute {
                    max_stack: 1,
                    code: vec![0x03, 0xAC],
                    ..Default::default()
                },
            )
            .build();
        let mut bodies = Bodies::new();
        let checks = check(&cf, &mut bodies).unwrap();
        assert!(checks > 0);
        assert_eq!(bodies.decoded(), 1);
    }

    #[test]
    fn rejects_local_out_of_range() {
        // iload 9 with max_locals 1.
        let cf = ClassBuilder::new("t/Bad")
            .method(
                ps(),
                "f",
                "()I",
                CodeAttribute {
                    max_stack: 1,
                    max_locals: 1,
                    code: vec![0x15, 9, 0xAC],
                    ..Default::default()
                },
            )
            .build();
        let err = check(&cf, &mut Bodies::new()).unwrap_err();
        assert_eq!(err.phase, 2);
        assert!(err.reason.contains("max_locals"));
    }

    #[test]
    fn rejects_understated_max_stack() {
        // Two pushes with declared max_stack 1.
        let cf = ClassBuilder::new("t/Deep")
            .method(
                ps(),
                "f",
                "()I",
                CodeAttribute {
                    max_stack: 1,
                    code: vec![0x03, 0x04, 0x60, 0xAC], // iconst_0 iconst_1 iadd ireturn
                    ..Default::default()
                },
            )
            .build();
        let err = check(&cf, &mut Bodies::new()).unwrap_err();
        assert!(err.reason.contains("max_stack"));
    }

    #[test]
    fn rejects_falling_off_the_end() {
        let cf = ClassBuilder::new("t/Fall")
            .method(
                ps(),
                "f",
                "()V",
                CodeAttribute {
                    max_stack: 1,
                    code: vec![0x03, 0x57],
                    ..Default::default()
                },
            )
            .build();
        let err = check(&cf, &mut Bodies::new()).unwrap_err();
        assert!(err.reason.contains("falls off"));
    }

    #[test]
    fn rejects_truncated_instruction() {
        let cf = ClassBuilder::new("t/Trunc")
            .method(
                ps(),
                "f",
                "()V",
                CodeAttribute {
                    max_stack: 1,
                    code: vec![0x10],
                    ..Default::default()
                },
            )
            .build();
        let err = check(&cf, &mut Bodies::new()).unwrap_err();
        assert!(err.reason.contains("truncated"));
    }

    #[test]
    fn rejects_invokevirtual_of_constructor() {
        let mut cf = ClassBuilder::new("t/CtorCall").build();
        let m = cf.pool.methodref("t/X", "<init>", "()V").unwrap();
        let mut code = vec![0xB6]; // invokevirtual
        code.extend_from_slice(&m.to_be_bytes());
        code.push(0xB1); // return
        let attr = CodeAttribute {
            max_stack: 1,
            max_locals: 1,
            code,
            ..Default::default()
        };
        let n = cf.pool.utf8("f").unwrap();
        let d = cf.pool.utf8("()V").unwrap();
        cf.methods.push(dvm_classfile::MemberInfo {
            access: ps(),
            name_index: n,
            descriptor_index: d,
            attributes: vec![dvm_classfile::Attribute::Code(attr)],
        });
        let err = check(&cf, &mut Bodies::new()).unwrap_err();
        assert!(err.reason.contains("invokespecial"));
    }
}
