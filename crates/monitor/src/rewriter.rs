//! The monitoring rewriters: the static components of the remote
//! monitoring and profiling services.
//!
//! [`audit_class`] inserts `dvm/rt/Audit.enter/exit` at method and
//! constructor boundaries (§3.3). [`profile_class`] inserts
//! `dvm/rt/Profiler` calls for call-graph construction, execution counts,
//! and the first-use graph that drives the §5 repartitioning service.

use dvm_bytecode::insn::Insn;
use dvm_bytecode::{CodeEditor, RewriteUnit};
use dvm_classfile::ConstPool;

use crate::sites::{SiteId, SiteTable};

/// Statistics from an instrumentation pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrumentStats {
    /// Methods instrumented.
    pub methods: u64,
    /// Call sites injected.
    pub probes: u64,
    /// Instructions examined.
    pub instructions_examined: u64,
}

/// Profiling granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMode {
    /// One counter per method entry (call counts + first-use order).
    Method,
    /// Method entry plus every branch target (basic-block level counts;
    /// the paper's "instruction-level profiling" resolution).
    Block,
}

/// Error type shared with the bytecode layer.
pub type RewriteError = dvm_bytecode::BytecodeError;

/// The instruction that pushes `site`'s id: `sipush` range inline, and
/// past it an `ldc` of a pool `Integer` (a long-running proxy interns
/// more than 32 767 sites).
fn push_site(pool: &mut ConstPool, site: SiteId) -> Result<Insn, RewriteError> {
    if i16::try_from(site.0).is_ok() {
        return Ok(Insn::IConst(site.0));
    }
    Ok(Insn::Ldc(pool.integer(site.0)?))
}

/// Inserts audit events at entry to and exit from every method and
/// constructor.
pub fn audit_class(
    unit: &mut RewriteUnit,
    sites: &mut SiteTable,
) -> Result<InstrumentStats, RewriteError> {
    audit_class_filtered(unit, sites, 0)
}

/// Like [`audit_class`], but only instruments methods whose bodies have at
/// least `min_insns` instructions (constructors and initializers are
/// always instrumented).
///
/// Audit specifications target *noteworthy* operations; instrumenting
/// every three-instruction leaf accessor would swamp the client with
/// events the administrator never wanted. Every instruction of every
/// method is still examined (the §4.1 requirement on the static service).
pub fn audit_class_filtered(
    unit: &mut RewriteUnit,
    sites: &mut SiteTable,
    min_insns: usize,
) -> Result<InstrumentStats, RewriteError> {
    let cf = &mut unit.class;
    let class_name = cf.name()?.to_owned();
    let enter = cf.pool.methodref("dvm/rt/Audit", "enter", "(I)V")?;
    let exit = cf.pool.methodref("dvm/rt/Audit", "exit", "(I)V")?;
    let mut stats = InstrumentStats::default();

    for m in 0..unit.class.methods.len() {
        let mname = unit.class.methods[m].name(&unit.class.pool)?.to_owned();
        let Some(code) = unit.body(m)? else { continue };
        stats.instructions_examined += code.insns.len() as u64;
        let significant = code.insns.len() >= min_insns || mname == "<init>" || mname == "<clinit>";
        if !significant {
            continue;
        }
        let site = push_site(&mut unit.class.pool, sites.intern(&class_name, &mname))?;
        let mut ed = CodeEditor::new(unit.body_mut(m)?.expect("decoded above"));
        // Exit probes first (so entry insertion indexes stay simple).
        ed.insert_before_returns(|| vec![site.clone(), Insn::InvokeStatic(exit)]);
        ed.insert_prologue(vec![site, Insn::InvokeStatic(enter)]);
        stats.probes += 2;
        stats.methods += 1;
    }
    Ok(stats)
}

/// Inserts profiling probes.
pub fn profile_class(
    unit: &mut RewriteUnit,
    sites: &mut SiteTable,
    mode: ProfileMode,
) -> Result<InstrumentStats, RewriteError> {
    let cf = &mut unit.class;
    let class_name = cf.name()?.to_owned();
    let count = cf.pool.methodref("dvm/rt/Profiler", "count", "(I)V")?;
    let first_use = cf.pool.methodref("dvm/rt/Profiler", "firstUse", "(I)V")?;
    let mut stats = InstrumentStats::default();

    for m in 0..unit.class.methods.len() {
        let cf = &mut unit.class;
        let mname = cf.methods[m].name(&cf.pool)?.to_owned();
        if cf.methods[m].code().is_none() {
            continue;
        }
        let site = push_site(&mut cf.pool, sites.intern(&class_name, &mname))?;
        let code = unit.body(m)?.expect("checked above");
        stats.instructions_examined += code.insns.len() as u64;
        let mut probes = 2u64;
        // Block mode instruments every branch target (block heads) with a
        // counter.
        let mut blocks = Vec::new();
        if mode == ProfileMode::Block {
            let mut targets: Vec<usize> =
                code.insns.iter().flat_map(Insn::branch_targets).collect();
            targets.sort_unstable();
            targets.dedup();
            for &t in targets.iter().rev() {
                let block_site = sites.intern(&class_name, &format!("{mname}@{t}"));
                blocks.push((t, push_site(&mut unit.class.pool, block_site)?));
                probes += 1;
            }
        }

        let mut ed = CodeEditor::new(unit.body_mut(m)?.expect("decoded above"));
        for (t, push) in blocks {
            ed.insert(t, vec![push, Insn::InvokeStatic(count)]);
        }
        ed.insert_prologue(vec![
            site.clone(),
            Insn::InvokeStatic(first_use),
            site,
            Insn::InvokeStatic(count),
        ]);
        stats.probes += probes;
        stats.methods += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_bytecode::asm::Asm;
    use dvm_bytecode::Code;
    use dvm_classfile::{AccessFlags, Attribute, ClassBuilder, ClassFile, MemberInfo};

    fn two_method_class() -> ClassFile {
        let mut cf = ClassBuilder::new("t/Mon").build();
        for (name, ret) in [("f", true), ("g", false)] {
            let mut a = Asm::new(1);
            if ret {
                a.iconst(7).ret_val(dvm_bytecode::Kind::Int);
            } else {
                a.ret();
            }
            let attr = a.finish().unwrap().encode(&cf.pool).unwrap();
            let n = cf.pool.utf8(name).unwrap();
            let d = cf.pool.utf8(if ret { "()I" } else { "()V" }).unwrap();
            cf.methods.push(MemberInfo {
                access: AccessFlags::PUBLIC | AccessFlags::STATIC,
                name_index: n,
                descriptor_index: d,
                attributes: vec![Attribute::Code(attr)],
            });
        }
        cf
    }

    #[test]
    fn audit_inserts_enter_and_exit() {
        let mut unit = RewriteUnit::new(two_method_class());
        let mut sites = SiteTable::new();
        let stats = audit_class(&mut unit, &mut sites).unwrap();
        let cf = unit.finish().unwrap();
        assert_eq!(stats.methods, 2);
        assert_eq!(stats.probes, 4);
        assert_eq!(sites.len(), 2);
        let m = cf.find_method("f", "()I").unwrap();
        let code = Code::decode(m.code().unwrap()).unwrap();
        // enter(site), iconst 7, exit(site), ireturn
        assert_eq!(code.insns.len(), 6);
        assert_eq!(code.insns[0], Insn::IConst(0));
        assert!(matches!(code.insns[1], Insn::InvokeStatic(_)));
        assert!(matches!(code.insns[5], Insn::Return(Some(_))));
    }

    #[test]
    fn method_profile_inserts_first_use_and_count() {
        let mut unit = RewriteUnit::new(two_method_class());
        let mut sites = SiteTable::new();
        let stats = profile_class(&mut unit, &mut sites, ProfileMode::Method).unwrap();
        let cf = unit.finish().unwrap();
        assert_eq!(stats.methods, 2);
        assert_eq!(stats.probes, 4);
        let m = cf.find_method("g", "()V").unwrap();
        let code = Code::decode(m.code().unwrap()).unwrap();
        assert_eq!(code.insns.len(), 5); // 4 probe insns + return
    }

    #[test]
    fn block_profile_instruments_branch_targets() {
        // A loop: branch targets get block counters.
        let mut cf = ClassBuilder::new("t/Loop").build();
        let mut a = Asm::new(2);
        let top = a.new_label();
        let done = a.new_label();
        a.iconst(0).istore(1);
        a.place(top);
        a.iload(1).iconst(10).if_icmp(dvm_bytecode::ICond::Ge, done);
        a.iinc(1, 1).goto(top);
        a.place(done);
        a.ret();
        let attr = a.finish().unwrap().encode(&cf.pool).unwrap();
        let n = cf.pool.utf8("spin").unwrap();
        let d = cf.pool.utf8("()V").unwrap();
        cf.methods.push(MemberInfo {
            access: AccessFlags::PUBLIC | AccessFlags::STATIC,
            name_index: n,
            descriptor_index: d,
            attributes: vec![Attribute::Code(attr)],
        });
        let mut sites = SiteTable::new();
        let mut unit = RewriteUnit::new(cf);
        let stats = profile_class(&mut unit, &mut sites, ProfileMode::Block).unwrap();
        let cf = unit.finish().unwrap();
        // Two branch targets (loop head, exit) plus the method site.
        assert_eq!(stats.probes, 4);
        assert!(sites.len() >= 3);
        // The instrumented body still encodes (and targets remain valid).
        let m = cf.find_method("spin", "()V").unwrap();
        assert!(Code::decode(m.code().unwrap()).is_ok());
    }
}
