//! Java class-file format: parsing, serialization, and a builder API.
//!
//! This crate is the substrate every DVM service stands on. The paper's
//! proxy "parses JVM bytecodes and generates the instrumented program in the
//! appropriate binary format" exactly once for all static services (§3);
//! [`ClassFile::parse`] and [`ClassFile::to_bytes`] are that parse and
//! generate step, and [`builder::ClassBuilder`] is how services and the
//! workload generator synthesize new classes.
//!
//! # Examples
//!
//! ```
//! use dvm_classfile::access::AccessFlags;
//! use dvm_classfile::attributes::CodeAttribute;
//! use dvm_classfile::builder::ClassBuilder;
//! use dvm_classfile::class::ClassFile;
//!
//! let mut class = ClassBuilder::new("hello/Hello")
//!     .method(
//!         AccessFlags::PUBLIC | AccessFlags::STATIC,
//!         "zero",
//!         "()I",
//!         CodeAttribute {
//!             max_stack: 1,
//!             max_locals: 0,
//!             code: vec![0x03, 0xAC], // iconst_0; ireturn
//!             ..Default::default()
//!         },
//!     )
//!     .build();
//! let bytes = class.to_bytes().unwrap();
//! let parsed = ClassFile::parse(&bytes).unwrap();
//! assert_eq!(parsed.name().unwrap(), "hello/Hello");
//! ```

pub mod access;
pub mod attributes;
pub mod builder;
pub mod class;
pub mod descriptor;
pub mod error;
pub mod member;
pub mod pool;
pub mod reader;
pub mod writer;

pub use access::AccessFlags;
pub use attributes::{Attribute, CodeAttribute, ExceptionTableEntry};
pub use builder::ClassBuilder;
pub use class::ClassFile;
pub use descriptor::{Arity, FieldType, MethodDescriptor};
pub use error::{ClassFileError, Result};
pub use member::MemberInfo;
pub use pool::{ConstPool, Constant};
