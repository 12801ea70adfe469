//! The DVM's centralized network compiler (§3.4).
//!
//! Client-side JIT compilers work under time and memory pressure and
//! "typically do not perform aggressive optimizations"; the DVM moves
//! compilation into the network, where it is performed once per served
//! class and amortized across the organization via a cache.
//!
//! The compiler is the IR tier: `dvm-exec` lowers each method of a
//! rewritten class to a register IR and runs its pass pipeline (service
//! inlining, constant folding, copy propagation, dead-code elimination);
//! [`ExecCompiler`] wraps that in a per-signature cache and serves the
//! wire-encoded result as the class's `ir://` package. The client's
//! native format, learned from the monitoring handshake, is recorded by
//! the console but not consumed: every client runs the same portable IR.

pub mod error;
pub mod exec_service;

pub use error::{CompileError, Result};
pub use exec_service::{ExecCompiler, ExecCompilerStats, IrPackage, IR_COMPILE_CYCLES_PER_INSN};
