//! dvm-exec — the optimizing execution tier.
//!
//! The paper's pitch is that factoring compilation out of clients and
//! into the proxy lets clients run *better* code than they could produce
//! locally. This crate is that better code: it lowers verified stack
//! bytecode into a register IR ([`ir`]), optimizes it with a real pass
//! pipeline ([`passes`] — service-stub inlining, constant folding, copy
//! propagation, liveness dead-code elimination), and serializes the
//! result into cacheable packages ([`encode`](mod@encode)) that the
//! proxy keys by rewrite signature and ships to clients alongside the
//! rewritten class.
//!
//! The executor itself lives in `dvm-jvm` (it needs the heap, the class
//! registry, and the dynamic services); this crate is deliberately
//! independent of the runtime so the proxy can compile without linking
//! a VM. Methods that use constructs the tier does not support lower to
//! a typed [`ExecError`] and simply stay on the interpreter tier — the
//! fallback contract that keeps the tier optional everywhere.

#![warn(missing_docs)]

pub mod encode;
pub mod error;
pub mod ir;
pub mod lower;
pub mod passes;

pub use encode::{decode, encode};
pub use error::{ExecError, Result};
pub use ir::{
    ClassIr, CmpKind, Function, InvokeKind, RConst, RHandler, RInsn, SOp, ServiceKind, VReg,
};
pub use lower::{lower, Lowerer};
pub use passes::{optimize, Optimizer, PassStats};

use dvm_bytecode::Bodies;
use dvm_classfile::ClassFile;

/// What [`compile_class`] did, for telemetry and the bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Methods successfully lowered.
    pub lowered: usize,
    /// Methods left on the interpreter tier (no code, or lowering
    /// declined with a typed error).
    pub skipped: usize,
    /// Aggregate pass-pipeline work across all lowered methods.
    pub passes: PassStats,
}

/// Lowers and optimizes every method of a parsed class.
///
/// Individual methods that fail to lower are skipped — the executor
/// falls back to the interpreter per method — so this only errors when
/// the class itself is unusable (no name).
pub fn compile_class(cf: &ClassFile) -> Result<(ClassIr, CompileStats)> {
    compile_bodies(cf, &mut Bodies::new())
}

/// [`compile_class`] over bodies another pass already decoded: the proxy
/// lowers a rewritten class from the bodies its services edited, and
/// decodes only those no service read.
pub fn compile_bodies(cf: &ClassFile, bodies: &mut Bodies) -> Result<(ClassIr, CompileStats)> {
    let class = cf.name()?.to_owned();
    let mut stats = CompileStats::default();
    let mut methods = Vec::with_capacity(cf.methods.len());
    // One lowering and one optimizer per class: their buffers and the
    // class's call shapes serve every method.
    let mut lowerer = lower::Lowerer::new(&cf.pool);
    let mut optimizer = passes::Optimizer::default();
    for (mi, m) in cf.methods.iter().enumerate() {
        let (Ok(name), Ok(descriptor)) = (m.name(&cf.pool), m.descriptor(&cf.pool)) else {
            stats.skipped += 1;
            continue;
        };
        let lowered = match bodies.body(cf, mi) {
            Ok(None) => {
                stats.skipped += 1; // native or abstract
                continue;
            }
            Ok(Some(code)) => lowerer.lower(code, name, descriptor),
            Err(e) => Err(e.into()),
        };
        match lowered {
            Ok(mut func) => {
                stats
                    .passes
                    .absorb(&optimizer.optimize(&mut func, &cf.pool));
                stats.lowered += 1;
                methods.push(func);
            }
            Err(_) => stats.skipped += 1,
        }
    }
    Ok((ClassIr { class, methods }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_bytecode::asm::Asm;
    use dvm_bytecode::insn::Kind;
    use dvm_classfile::{AccessFlags, ClassBuilder, ConstPool};

    #[test]
    fn compiles_a_synthesized_class_end_to_end() {
        let mut a = Asm::new(2);
        a.iload(0).iload(1).iadd().ret_val(Kind::Int);
        let attr = a.finish().unwrap().encode(&ConstPool::new()).unwrap();
        let cf = ClassBuilder::new("t/Calc")
            .method(
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                "add",
                "(II)I",
                attr,
            )
            .build();
        let (ir, stats) = compile_class(&cf).unwrap();
        assert_eq!(ir.class, "t/Calc");
        assert_eq!(stats.lowered, 1);
        let f = ir.methods.iter().find(|m| m.name == "add").unwrap();
        // Optimized form: the two moves die, the add reads args directly.
        assert_eq!(f.insns.len(), 2);
        // And the package round-trips through the wire format.
        let decoded = decode(&encode(&ir)).unwrap();
        assert_eq!(decoded, ir);
    }
}
