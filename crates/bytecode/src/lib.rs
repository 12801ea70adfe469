//! JVM instruction set: decoding, encoding, editing, and assembly.
//!
//! The paper's services are implemented by *binary rewriting* (§2): the
//! proxy parses incoming class files once, each service transforms the
//! instruction stream, and a single code-generation step emits the modified
//! binary. This crate supplies that machinery:
//!
//! - [`code::Code`] — a method body in label form (branch targets are
//!   instruction indices), with byte-exact decode/encode.
//! - [`editor::CodeEditor`] — splice instrumentation into a body with
//!   automatic branch/handler fix-up.
//! - [`asm::Asm`] — a label-based assembler for synthesizing bodies.
//! - [`disasm`] — human-readable rendering for the admin console.
//! - [`unit::RewriteUnit`] — a class in flight through the rewriting
//!   services, each body decoded once and each edited body encoded once.

pub mod asm;
pub mod code;
pub mod disasm;
pub mod editor;
pub mod error;
pub mod insn;
pub mod opcode;
pub mod unit;

pub use asm::{Asm, Label};
pub use code::{Code, Handler};
pub use editor::CodeEditor;
pub use error::{BytecodeError, Result};
pub use insn::{AKind, ArithOp, ICond, Insn, Kind, LogicOp, NumKind, NumType, ShiftOp};
pub use unit::{Bodies, RewriteUnit};
