//! Compiler error type.

use std::fmt;

use dvm_classfile::ClassFileError;

/// Errors raised by [`crate::ExecCompiler::compile`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A class the IR tier could not lower.
    Unsupported(String),
    /// Underlying class-file error.
    ClassFile(ClassFileError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
            CompileError::ClassFile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ClassFileError> for CompileError {
    fn from(e: ClassFileError) -> Self {
        CompileError::ClassFile(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, CompileError>;
