//! The top-level class-file structure.

use crate::access::AccessFlags;
use crate::attributes::{parse_attributes, write_attributes, Attribute};
use crate::error::{ClassFileError, Result};
use crate::member::MemberInfo;
use crate::pool::ConstPool;
use crate::reader::Reader;
use crate::writer::Writer;

/// The class-file magic number.
pub const MAGIC: u32 = 0xCAFE_BABE;

/// Default major version we emit (45 = JDK 1.0.2/1.1 era, 46 = 1.2).
pub const MAJOR_VERSION: u16 = 46;

/// Default minor version we emit.
pub const MINOR_VERSION: u16 = 0;

/// A parsed (or synthesized) Java class file.
#[derive(Debug, Clone)]
pub struct ClassFile {
    /// Minor version from the header.
    pub minor_version: u16,
    /// Major version from the header.
    pub major_version: u16,
    /// The constant pool.
    pub pool: ConstPool,
    /// Class-level access flags.
    pub access: AccessFlags,
    /// Constant-pool index of this class's `Class` entry.
    pub this_class: u16,
    /// Constant-pool index of the superclass's `Class` entry (0 only for
    /// `java/lang/Object`).
    pub super_class: u16,
    /// Constant-pool indices of implemented interfaces.
    pub interfaces: Vec<u16>,
    /// Declared fields.
    pub fields: Vec<MemberInfo>,
    /// Declared methods.
    pub methods: Vec<MemberInfo>,
    /// Class-level attributes.
    pub attributes: Vec<Attribute>,
}

impl ClassFile {
    /// Parses a class file from raw bytes.
    ///
    /// Rejects bad magic, truncated input, and trailing garbage; accepts
    /// major versions 45–48 (the 1.0–1.4 era covered by the paper).
    pub fn parse(bytes: &[u8]) -> Result<ClassFile> {
        let mut r = Reader::new(bytes);
        let magic = r.u32("magic")?;
        if magic != MAGIC {
            dvm_fuzz::cov!("classfile.bad_magic");
            return Err(ClassFileError::BadMagic(magic));
        }
        dvm_fuzz::cov!("classfile.magic_ok");
        let minor_version = r.u16("minor version")?;
        let major_version = r.u16("major version")?;
        if !(45..=48).contains(&major_version) {
            dvm_fuzz::cov!("classfile.bad_version");
            return Err(ClassFileError::UnsupportedVersion {
                major: major_version,
                minor: minor_version,
            });
        }
        dvm_fuzz::cov!("classfile.version_ok");
        let pool = ConstPool::parse(&mut r)?;
        let access = AccessFlags(r.u16("class access flags")?);
        let this_class = r.u16("this_class")?;
        let super_class = r.u16("super_class")?;
        dvm_fuzz::cov!("classfile.pool_ok");
        let n_ifaces = r.u16("interface count")?;
        let mut interfaces = Vec::with_capacity(n_ifaces as usize);
        for _ in 0..n_ifaces {
            interfaces.push(r.u16("interface index")?);
        }
        let n_fields = r.u16("field count")?;
        let mut fields = Vec::with_capacity(n_fields as usize);
        for _ in 0..n_fields {
            fields.push(MemberInfo::parse(&mut r, &pool)?);
        }
        let n_methods = r.u16("method count")?;
        let mut methods = Vec::with_capacity(n_methods as usize);
        for _ in 0..n_methods {
            methods.push(MemberInfo::parse(&mut r, &pool)?);
        }
        dvm_fuzz::cov!("classfile.members_ok");
        let attributes = parse_attributes(&mut r, &pool)?;
        if !r.is_empty() {
            dvm_fuzz::cov!("classfile.trailing");
            return Err(ClassFileError::Malformed(format!(
                "{} trailing bytes after class file",
                r.remaining()
            )));
        }
        dvm_fuzz::cov!("classfile.parse_ok");
        Ok(ClassFile {
            minor_version,
            major_version,
            pool,
            access,
            this_class,
            super_class,
            interfaces,
            fields,
            methods,
            attributes,
        })
    }

    /// Serializes the class file to bytes.
    ///
    /// Serialization may intern additional `Utf8` constants (attribute
    /// names), which is why it takes `&mut self`.
    pub fn to_bytes(&mut self) -> Result<Vec<u8>> {
        // Attribute names must be interned before the pool is written, so
        // serialize the tail (everything after the pool) into a side buffer
        // first, then assemble header + pool + tail.
        let mut tail = Writer::new();
        tail.u16(self.access.0);
        tail.u16(self.this_class);
        tail.u16(self.super_class);
        tail.u16(self.interfaces.len() as u16);
        for i in &self.interfaces {
            tail.u16(*i);
        }
        tail.u16(self.fields.len() as u16);
        for f in &self.fields {
            f.write(&mut tail, &mut self.pool)?;
        }
        tail.u16(self.methods.len() as u16);
        for m in &self.methods {
            m.write(&mut tail, &mut self.pool)?;
        }
        write_attributes(&self.attributes, &mut tail, &mut self.pool)?;

        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u16(self.minor_version);
        w.u16(self.major_version);
        self.pool.write(&mut w);
        w.bytes(&tail.into_bytes());
        Ok(w.into_bytes())
    }

    /// Returns this class's internal name (e.g. `java/lang/String`).
    pub fn name(&self) -> Result<&str> {
        self.pool.get_class_name(this_index(self)?)
    }

    /// Returns the superclass's internal name, or `None` for
    /// `java/lang/Object`.
    pub fn super_name(&self) -> Result<Option<&str>> {
        if self.super_class == 0 {
            Ok(None)
        } else {
            Ok(Some(self.pool.get_class_name(self.super_class)?))
        }
    }

    /// Returns the internal names of implemented interfaces.
    pub fn interface_names(&self) -> Result<Vec<&str>> {
        self.interfaces
            .iter()
            .map(|&i| self.pool.get_class_name(i))
            .collect()
    }

    /// The index in [`ClassFile::methods`] of a declared method, by name
    /// and descriptor.
    pub fn method_index(&self, name: &str, descriptor: &str) -> Option<usize> {
        let pool = &self.pool;
        self.methods.iter().position(|m| {
            m.name(pool).map(|n| n == name).unwrap_or(false)
                && m.descriptor(pool).map(|d| d == descriptor).unwrap_or(false)
        })
    }

    /// Finds a declared method by name and descriptor.
    pub fn find_method(&self, name: &str, descriptor: &str) -> Option<&MemberInfo> {
        Some(&self.methods[self.method_index(name, descriptor)?])
    }

    /// Finds a declared method mutably by name and descriptor.
    pub fn find_method_mut(&mut self, name: &str, descriptor: &str) -> Option<&mut MemberInfo> {
        let idx = self.method_index(name, descriptor)?;
        Some(&mut self.methods[idx])
    }

    /// Finds a declared field by name.
    pub fn find_field(&self, name: &str) -> Option<&MemberInfo> {
        self.fields
            .iter()
            .find(|f| f.name(&self.pool).map(|n| n == name).unwrap_or(false))
    }

    /// Returns the class-level attribute with the given name, if present.
    pub fn attribute(&self, name: &str) -> Option<&Attribute> {
        self.attributes.iter().find(|a| a.name() == name)
    }
}

fn this_index(c: &ClassFile) -> Result<u16> {
    if c.this_class == 0 {
        Err(ClassFileError::Malformed("this_class is zero".into()))
    } else {
        Ok(c.this_class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClassBuilder;

    #[test]
    fn build_parse_round_trip() {
        let mut cf = ClassBuilder::new("demo/Widget")
            .super_class("java/lang/Object")
            .access(AccessFlags::PUBLIC)
            .build();
        let bytes = cf.to_bytes().unwrap();
        let parsed = ClassFile::parse(&bytes).unwrap();
        assert_eq!(parsed.name().unwrap(), "demo/Widget");
        assert_eq!(parsed.super_name().unwrap(), Some("java/lang/Object"));
        assert!(parsed.access.is_public());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bytes = vec![0u8; 16];
        assert!(matches!(
            ClassFile::parse(&bytes),
            Err(ClassFileError::BadMagic(0))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut cf = ClassBuilder::new("demo/T").build();
        let mut bytes = cf.to_bytes().unwrap();
        bytes.push(0xFF);
        assert!(matches!(
            ClassFile::parse(&bytes),
            Err(ClassFileError::Malformed(_))
        ));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut cf = ClassBuilder::new("demo/T").build();
        cf.major_version = 99;
        let bytes = cf.to_bytes().unwrap();
        assert!(matches!(
            ClassFile::parse(&bytes),
            Err(ClassFileError::UnsupportedVersion { major: 99, .. })
        ));
    }
}
