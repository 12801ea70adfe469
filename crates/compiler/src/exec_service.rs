//! The network compiler service: the optimizing execution tier's
//! proxy side.
//!
//! It parses a served class, lowers and optimizes every method onto the
//! portable register-IR tier (`dvm-exec`), and returns the wire-encoded
//! IR package the client VM installs next to the class. Results are
//! cached per rewrite signature — the MD5 the proxy already computes over
//! the signed served payload — so one compilation is amortized across
//! every client in the organization that fetches the same rewrite.

use std::collections::HashMap;
use std::sync::Arc;

use dvm_classfile::ClassFile;
use dvm_exec::{compile_class, encode, PassStats};

use crate::error::{CompileError, Result};

/// Simulated cycles charged per emitted IR instruction: lowering plus
/// the pass pipeline, with no register allocation or instruction
/// scheduling, since the client executes the IR rather than native code.
pub const IR_COMPILE_CYCLES_PER_INSN: u64 = 600;

/// A compiled IR package, ready to serve alongside its class.
#[derive(Debug, Clone)]
pub struct IrPackage {
    /// Class internal name.
    pub class: String,
    /// Rewrite signature (MD5 hex of the signed served payload) the
    /// package is keyed under.
    pub signature: String,
    /// Wire-encoded IR (`dvm_exec::encode` format).
    pub bytes: Vec<u8>,
    /// Methods lowered onto the optimizing tier.
    pub methods_compiled: usize,
    /// Methods left to the interpreter (native, abstract, or declined).
    pub methods_skipped: usize,
    /// Aggregate pass-pipeline work.
    pub passes: PassStats,
    /// Simulated cycles the compilation cost (charged to the proxy).
    pub compile_cycles: u64,
}

/// Statistics for the IR compilation service.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCompilerStats {
    /// Signatures compiled (cache misses).
    pub compilations: u64,
    /// Requests served from the signature cache.
    pub cache_hits: u64,
    /// Total simulated compile cycles spent.
    pub cycles_spent: u64,
    /// Methods lowered across all compilations.
    pub methods_compiled: u64,
    /// Methods declined across all compilations.
    pub methods_skipped: u64,
}

/// The proxy-resident IR compiler with its per-signature cache.
#[derive(Debug, Default)]
pub struct ExecCompiler {
    cache: HashMap<String, Arc<IrPackage>>,
    /// Statistics.
    pub stats: ExecCompilerStats,
}

impl ExecCompiler {
    /// Creates an empty service.
    pub fn new() -> ExecCompiler {
        ExecCompiler::default()
    }

    /// Compiles the class in `class_bytes` under rewrite signature
    /// `signature`, serving repeats from the cache.
    pub fn compile(&mut self, signature: &str, class_bytes: &[u8]) -> Result<Arc<IrPackage>> {
        if let Some(pkg) = self.cache.get(signature) {
            self.stats.cache_hits += 1;
            return Ok(pkg.clone());
        }
        let cf = ClassFile::parse(class_bytes)?;
        let (ir, cs) = compile_class(&cf)
            .map_err(|e| CompileError::Unsupported(format!("IR lowering failed: {e}")))?;
        let ir_insns: usize = ir.methods.iter().map(|f| f.insns.len()).sum();
        let compile_cycles = ir_insns as u64 * IR_COMPILE_CYCLES_PER_INSN;
        let pkg = Arc::new(IrPackage {
            class: ir.class.clone(),
            signature: signature.to_owned(),
            bytes: encode(&ir),
            methods_compiled: cs.lowered,
            methods_skipped: cs.skipped,
            passes: cs.passes,
            compile_cycles,
        });
        self.stats.compilations += 1;
        self.stats.cycles_spent += compile_cycles;
        self.stats.methods_compiled += cs.lowered as u64;
        self.stats.methods_skipped += cs.skipped as u64;
        self.cache.insert(signature.to_owned(), pkg.clone());
        Ok(pkg)
    }

    /// Seeds the cache with a package recovered from the persistent tier
    /// (warm restart): no compile cycles are charged.
    pub fn seed(&mut self, pkg: IrPackage) {
        self.cache
            .entry(pkg.signature.clone())
            .or_insert_with(|| Arc::new(pkg));
    }

    /// Number of cached packages.
    pub fn cache_size(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_bytecode::asm::Asm;
    use dvm_bytecode::insn::Kind;
    use dvm_classfile::{AccessFlags, Attribute, ClassBuilder, MemberInfo};
    use dvm_exec::decode;

    fn sample_bytes() -> Vec<u8> {
        let mut cf = ClassBuilder::new("t/Calc").build();
        let mut a = Asm::new(2);
        a.iconst(2)
            .iconst(3)
            .iadd()
            .iload(0)
            .iadd()
            .ret_val(Kind::Int);
        let attr = a.finish().unwrap().encode(&cf.pool).unwrap();
        let n = cf.pool.utf8("f").unwrap();
        let d = cf.pool.utf8("(I)I").unwrap();
        cf.methods.push(MemberInfo {
            access: AccessFlags::PUBLIC | AccessFlags::STATIC,
            name_index: n,
            descriptor_index: d,
            attributes: vec![Attribute::Code(attr)],
        });
        cf.to_bytes().unwrap()
    }

    #[test]
    fn compiles_encodes_and_caches_by_signature() {
        let mut svc = ExecCompiler::new();
        let bytes = sample_bytes();
        let pkg = svc.compile("sig-1", &bytes).unwrap();
        assert_eq!(pkg.class, "t/Calc");
        assert_eq!(pkg.methods_compiled, 1);
        assert!(pkg.compile_cycles > 0);
        assert!(pkg.passes.folded >= 1, "2+3 should fold");

        // The wire bytes round-trip into installable IR.
        let ir = decode(&pkg.bytes).unwrap();
        assert_eq!(ir.class, "t/Calc");
        assert_eq!(ir.methods.len(), 1);

        // Same signature: amortized; different signature: recompiled.
        let again = svc.compile("sig-1", &bytes).unwrap();
        assert_eq!(again.signature, "sig-1");
        assert_eq!(svc.stats.compilations, 1);
        assert_eq!(svc.stats.cache_hits, 1);
        let _ = svc.compile("sig-2", &bytes).unwrap();
        assert_eq!(svc.stats.compilations, 2);
        assert_eq!(svc.cache_size(), 2);
    }

    #[test]
    fn seeded_packages_serve_without_compiling() {
        let mut svc = ExecCompiler::new();
        let bytes = sample_bytes();
        let pkg = svc.compile("warm", &bytes).unwrap();
        let recovered = (*pkg).clone();

        let mut restarted = ExecCompiler::new();
        restarted.seed(recovered);
        assert_eq!(restarted.cache_size(), 1);
        let served = restarted.compile("warm", &bytes).unwrap();
        assert_eq!(served.bytes, pkg.bytes);
        assert_eq!(restarted.stats.compilations, 0);
        assert_eq!(restarted.stats.cache_hits, 1);
    }

    #[test]
    fn malformed_classes_error_instead_of_panicking() {
        let mut svc = ExecCompiler::new();
        assert!(svc.compile("bad", &[0xde, 0xad, 0xbe, 0xef]).is_err());
        assert_eq!(svc.cache_size(), 0);
    }
}
