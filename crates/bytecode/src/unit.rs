//! One class on its way through the rewriting services, with each method
//! body decoded at most once.
//!
//! §3: "Parsing and code generation are performed only once for all
//! static services." A [`RewriteUnit`] carries that promise down to the
//! method bodies: the verifier, the security and audit rewriters and the
//! IR compiler all read and edit the same decoded [`Code`], and each body
//! a service edited is encoded once, against the final constant pool,
//! just before the class is serialized. A body no service edits keeps
//! its original `Code` attribute, byte for byte.
//!
//! Encoding against the final pool gives the bytes an encode at edit time
//! would have given: services only append to the pool, so every index a
//! body refers to means the same constant at both moments.

use dvm_classfile::attributes::CodeAttribute;
use dvm_classfile::{AccessFlags, Attribute, ClassFile, MemberInfo};

use crate::code::Code;
use crate::error::Result;

/// One method's body slot.
#[derive(Debug, Default)]
enum Slot {
    /// Not decoded yet: the class's `Code` attribute is the body.
    #[default]
    Encoded,
    /// Decoded; `dirty` once a service edited it, so the class's `Code`
    /// attribute is stale until [`Bodies::encode_dirty`].
    Decoded { code: Code, dirty: bool },
}

/// The decoded method bodies of one class, by method index, decoded on
/// first use.
///
/// A `Bodies` does not own its class: every call names the class it
/// belongs to, so read-only passes (verifier phases 2–3, IR lowering) can
/// use one over a borrowed [`ClassFile`]. The class's methods may be
/// appended to while bodies are held, never removed or reordered.
#[derive(Debug, Default)]
pub struct Bodies {
    slots: Vec<Slot>,
    decoded: u64,
    encoded: u64,
}

impl Bodies {
    /// No body decoded yet.
    pub fn new() -> Bodies {
        Bodies::default()
    }

    fn slot(&mut self, class: &ClassFile, method: usize) -> Result<Option<&mut Slot>> {
        if class.methods[method].code().is_none() {
            return Ok(None);
        }
        if self.slots.len() <= method {
            self.slots.resize_with(method + 1, Slot::default);
        }
        let slot = &mut self.slots[method];
        if let Slot::Encoded = slot {
            let attr = class.methods[method].code().expect("checked above");
            *slot = Slot::Decoded {
                code: Code::decode(attr)?,
                dirty: false,
            };
            self.decoded += 1;
        }
        Ok(Some(slot))
    }

    /// Method `method`'s body, decoded from `class` on first use; `None`
    /// for a method without code.
    pub fn body(&mut self, class: &ClassFile, method: usize) -> Result<Option<&Code>> {
        Ok(self.slot(class, method)?.map(|slot| match slot {
            Slot::Decoded { code, .. } => &*code,
            Slot::Encoded => unreachable!("slot() decodes"),
        }))
    }

    /// [`Bodies::body`] for editing: the body is marked dirty, so
    /// [`Bodies::encode_dirty`] writes it back into the class.
    pub fn body_mut(&mut self, class: &ClassFile, method: usize) -> Result<Option<&mut Code>> {
        Ok(self.slot(class, method)?.map(|slot| match slot {
            Slot::Decoded { code, dirty } => {
                *dirty = true;
                code
            }
            Slot::Encoded => unreachable!("slot() decodes"),
        }))
    }

    /// Encodes every dirty body into `class` against its current pool and
    /// marks it clean. Returns how many were encoded.
    pub fn encode_dirty(&mut self, class: &mut ClassFile) -> Result<usize> {
        let mut n = 0;
        for (method, slot) in self.slots.iter_mut().enumerate() {
            if let Slot::Decoded { code, dirty } = slot {
                if *dirty {
                    class.methods[method].set_code(code.encode(&class.pool)?);
                    *dirty = false;
                    n += 1;
                }
            }
        }
        self.encoded += n as u64;
        Ok(n)
    }

    /// Bodies decoded so far (a body a service created is not counted).
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Bodies encoded so far.
    pub fn encoded(&self) -> u64 {
        self.encoded
    }
}

/// A class being rewritten: the parsed class plus its lazily decoded
/// method bodies.
#[derive(Debug)]
pub struct RewriteUnit {
    /// The class. A method's `Code` attribute is stale while its body is
    /// dirty; [`Bodies::encode_dirty`] and [`RewriteUnit::finish`]
    /// bring it up to date. Append methods with
    /// [`RewriteUnit::push_method`].
    pub class: ClassFile,
    /// The class's method bodies.
    pub bodies: Bodies,
}

impl RewriteUnit {
    /// Wraps a parsed class; no body is decoded yet.
    pub fn new(class: ClassFile) -> RewriteUnit {
        RewriteUnit {
            class,
            bodies: Bodies::new(),
        }
    }

    /// Method `method`'s body, decoded on first use.
    pub fn body(&mut self, method: usize) -> Result<Option<&Code>> {
        self.bodies.body(&self.class, method)
    }

    /// Method `method`'s body for editing (marked dirty).
    pub fn body_mut(&mut self, method: usize) -> Result<Option<&mut Code>> {
        self.bodies.body_mut(&self.class, method)
    }

    /// Appends a method whose body is `code` (dirty: it is encoded with
    /// the others).
    pub fn push_method(
        &mut self,
        access: AccessFlags,
        name: &str,
        descriptor: &str,
        code: Code,
    ) -> Result<()> {
        let name_index = self.class.pool.utf8(name)?;
        let descriptor_index = self.class.pool.utf8(descriptor)?;
        self.class.methods.push(MemberInfo {
            access,
            name_index,
            descriptor_index,
            attributes: vec![Attribute::Code(CodeAttribute::default())],
        });
        let method = self.class.methods.len() - 1;
        let slots = &mut self.bodies.slots;
        slots.resize_with(method + 1, Slot::default);
        slots[method] = Slot::Decoded { code, dirty: true };
        Ok(())
    }

    /// Swaps in a different class (the verifier's replacement for one that
    /// failed), dropping the bodies decoded from the old one. The decode
    /// and encode counts carry over.
    pub fn replace(&mut self, class: ClassFile) {
        self.class = class;
        self.bodies.slots.clear();
    }

    /// Encodes the dirty bodies and returns the class.
    pub fn finish(mut self) -> Result<ClassFile> {
        self.bodies.encode_dirty(&mut self.class)?;
        Ok(self.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::Insn;
    use dvm_classfile::ClassBuilder;

    fn two_methods() -> ClassFile {
        let mut cf = ClassBuilder::new("t/Unit").build();
        for name in ["f", "g"] {
            let mut a = Asm::new(0);
            a.ret();
            let mut attr = a.finish().unwrap().encode(&cf.pool).unwrap();
            attr.max_stack = 3; // an original quirk a re-encode would drop
            let n = cf.pool.utf8(name).unwrap();
            let d = cf.pool.utf8("()V").unwrap();
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
    fn bodies_decode_once_and_only_dirty_ones_encode() {
        let mut unit = RewriteUnit::new(two_methods());
        for _ in 0..3 {
            assert_eq!(unit.body(0).unwrap().unwrap().insns.len(), 1);
        }
        unit.body(1).unwrap();
        assert_eq!(unit.bodies.decoded(), 2);
        unit.body_mut(1)
            .unwrap()
            .unwrap()
            .insns
            .insert(0, Insn::Nop);
        let cf = unit.finish().unwrap();
        assert_eq!(cf.methods[0].code().unwrap().max_stack, 3, "f kept");
        let g = cf.methods[1].code().unwrap();
        assert_eq!((g.max_stack, g.code.as_slice()), (0, &[0x00, 0xB1][..]));
    }

    #[test]
    fn pushed_methods_encode_with_the_rest() {
        let mut unit = RewriteUnit::new(two_methods());
        let mut code = Code::new(0);
        code.insns.push(Insn::Return(None));
        unit.push_method(AccessFlags::STATIC, "<clinit>", "()V", code)
            .unwrap();
        let mut cf = unit.finish().unwrap();
        let parsed = ClassFile::parse(&cf.to_bytes().unwrap()).unwrap();
        let clinit = parsed.find_method("<clinit>", "()V").unwrap();
        assert_eq!(clinit.code().unwrap().code, vec![0xB1]);
    }
}
