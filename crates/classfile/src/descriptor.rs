//! Field and method descriptor parsing.
//!
//! Descriptors are the JVM's compact type signatures, e.g. `I` for `int`,
//! `Ljava/lang/String;` for a class type, `[J` for `long[]`, and
//! `(ILjava/lang/String;)V` for a method taking an `int` and a `String` and
//! returning `void`. The verifier, interpreter, compiler, and rewriting
//! services all depend on these.

use std::fmt;

use crate::error::{ClassFileError, Result};

/// A parsed field type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// `B` — signed byte.
    Byte,
    /// `C` — UTF-16 code unit.
    Char,
    /// `D` — double-precision float.
    Double,
    /// `F` — single-precision float.
    Float,
    /// `I` — 32-bit int.
    Int,
    /// `J` — 64-bit long.
    Long,
    /// `S` — signed short.
    Short,
    /// `Z` — boolean.
    Boolean,
    /// `L<name>;` — a class or interface instance, by internal name.
    Object(String),
    /// `[<type>` — an array with the given element type.
    Array(Box<FieldType>),
}

impl FieldType {
    /// Number of operand-stack / local-variable slots this type occupies
    /// (2 for `long` and `double`, 1 otherwise).
    pub fn slot_width(&self) -> u16 {
        match self {
            FieldType::Long | FieldType::Double => 2,
            _ => 1,
        }
    }

    /// Returns `true` for reference (object or array) types.
    pub fn is_reference(&self) -> bool {
        matches!(self, FieldType::Object(_) | FieldType::Array(_))
    }

    /// Returns `true` for types stored as `int` on the operand stack
    /// (`boolean`, `byte`, `char`, `short`, `int`).
    pub fn is_int_like(&self) -> bool {
        matches!(
            self,
            FieldType::Boolean
                | FieldType::Byte
                | FieldType::Char
                | FieldType::Short
                | FieldType::Int
        )
    }

    /// Parses a field type from the front of `s`, returning the type and the
    /// number of characters consumed.
    pub fn parse_prefix(s: &str) -> Result<(FieldType, usize)> {
        let bytes = s.as_bytes();
        let bad = || ClassFileError::BadDescriptor(s.to_owned());
        match bytes.first().ok_or_else(bad)? {
            b'B' => Ok((FieldType::Byte, 1)),
            b'C' => Ok((FieldType::Char, 1)),
            b'D' => Ok((FieldType::Double, 1)),
            b'F' => Ok((FieldType::Float, 1)),
            b'I' => Ok((FieldType::Int, 1)),
            b'J' => Ok((FieldType::Long, 1)),
            b'S' => Ok((FieldType::Short, 1)),
            b'Z' => Ok((FieldType::Boolean, 1)),
            b'L' => {
                let end = s.find(';').ok_or_else(bad)?;
                if end == 1 {
                    return Err(bad());
                }
                Ok((FieldType::Object(s[1..end].to_owned()), end + 1))
            }
            b'[' => {
                dvm_fuzz::cov!("descriptor.array");
                let (inner, used) = FieldType::parse_prefix(&s[1..])?;
                Ok((FieldType::Array(Box::new(inner)), used + 1))
            }
            _ => {
                dvm_fuzz::cov!("descriptor.bad");
                Err(bad())
            }
        }
    }

    /// Parses a complete field descriptor (the whole string must be one type).
    pub fn parse(s: &str) -> Result<FieldType> {
        let (t, used) = FieldType::parse_prefix(s)?;
        if used != s.len() {
            return Err(ClassFileError::BadDescriptor(s.to_owned()));
        }
        Ok(t)
    }

    /// The slot width of the complete field descriptor `s`, found without
    /// building a [`FieldType`]: what stack-depth passes need per field
    /// access. Accepts and rejects exactly what [`FieldType::parse`] does,
    /// with the same error.
    pub fn slot_width_of(s: &str) -> Result<u16> {
        match scan_prefix(s.as_bytes()) {
            Some(scan) if scan.used == s.len() => {
                scan.probe();
                Ok(scan.width)
            }
            _ => FieldType::parse(s).map(|t| t.slot_width()),
        }
    }

    /// Writes the descriptor form of this type into `out`.
    pub fn write_descriptor(&self, out: &mut String) {
        match self {
            FieldType::Byte => out.push('B'),
            FieldType::Char => out.push('C'),
            FieldType::Double => out.push('D'),
            FieldType::Float => out.push('F'),
            FieldType::Int => out.push('I'),
            FieldType::Long => out.push('J'),
            FieldType::Short => out.push('S'),
            FieldType::Boolean => out.push('Z'),
            FieldType::Object(name) => {
                out.push('L');
                out.push_str(name);
                out.push(';');
            }
            FieldType::Array(inner) => {
                out.push('[');
                inner.write_descriptor(out);
            }
        }
    }

    /// Returns the descriptor string for this type.
    pub fn descriptor(&self) -> String {
        let mut s = String::new();
        self.write_descriptor(&mut s);
        s
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldType::Byte => write!(f, "byte"),
            FieldType::Char => write!(f, "char"),
            FieldType::Double => write!(f, "double"),
            FieldType::Float => write!(f, "float"),
            FieldType::Int => write!(f, "int"),
            FieldType::Long => write!(f, "long"),
            FieldType::Short => write!(f, "short"),
            FieldType::Boolean => write!(f, "boolean"),
            FieldType::Object(name) => write!(f, "{}", name.replace('/', ".")),
            FieldType::Array(inner) => write!(f, "{inner}[]"),
        }
    }
}

/// One field type scanned from the front of a descriptor.
struct Scan {
    /// Slot width: 2 for `long`/`double`, 1 otherwise (arrays included).
    width: u16,
    /// Bytes the type spans.
    used: usize,
    /// Leading `[`s.
    dims: usize,
}

impl Scan {
    /// Records the coverage [`FieldType::parse_prefix`] records for the
    /// same type: one probe per array dimension.
    fn probe(&self) {
        for _ in 0..self.dims {
            dvm_fuzz::cov!("descriptor.array");
        }
    }
}

/// [`FieldType::parse_prefix`] without allocating; `None` wherever it
/// errors.
fn scan_prefix(s: &[u8]) -> Option<Scan> {
    let dims = s.iter().take_while(|&&b| b == b'[').count();
    let (width, len) = match s.get(dims)? {
        b'B' | b'C' | b'F' | b'I' | b'S' | b'Z' => (1, 1),
        b'D' | b'J' => (2, 1),
        b'L' => match s[dims..].iter().position(|&b| b == b';')? {
            1 => return None,
            end => (1, end + 1),
        },
        _ => return None,
    };
    Some(Scan {
        width: if dims > 0 { 1 } else { width },
        used: dims + len,
        dims,
    })
}

/// What a method descriptor says about the operand stack, counted by
/// [`MethodDescriptor::arity`] without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arity {
    /// Number of parameters (a `long` counts once).
    pub params: usize,
    /// Slots the parameters occupy ([`MethodDescriptor::param_slots`]).
    pub param_slots: u16,
    /// Slots the return value occupies ([`MethodDescriptor::return_slots`]).
    pub return_slots: u16,
}

/// [`MethodDescriptor::parse`] reduced to counts; `None` wherever it errors.
fn scan_method(s: &[u8]) -> Option<(Arity, usize)> {
    let rest = s.strip_prefix(b"(")?;
    let close = rest.iter().position(|&b| b == b')')?;
    let (mut params, ret) = (&rest[..close], &rest[close + 1..]);
    let mut arity = Arity {
        params: 0,
        param_slots: 0,
        return_slots: 0,
    };
    let mut dims = 0;
    while !params.is_empty() {
        let scan = scan_prefix(params)?;
        arity.params += 1;
        arity.param_slots = arity.param_slots.wrapping_add(scan.width);
        dims += scan.dims;
        params = &params[scan.used..];
    }
    if ret != b"V" {
        let scan = scan_prefix(ret)?;
        if scan.used != ret.len() {
            return None;
        }
        arity.return_slots = scan.width;
        dims += scan.dims;
    }
    Some((arity, dims))
}

/// A parsed method descriptor: parameter types and return type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MethodDescriptor {
    /// Parameter types in declaration order.
    pub params: Vec<FieldType>,
    /// Return type, or `None` for `void`.
    pub ret: Option<FieldType>,
}

impl MethodDescriptor {
    /// Parses a method descriptor such as `(ILjava/lang/String;)V`.
    pub fn parse(s: &str) -> Result<MethodDescriptor> {
        let bad = || ClassFileError::BadDescriptor(s.to_owned());
        let rest = s.strip_prefix('(').ok_or_else(bad)?;
        let close = rest.find(')').ok_or_else(bad)?;
        let (params_str, ret_str) = (&rest[..close], &rest[close + 1..]);
        let mut params = Vec::new();
        let mut cursor = params_str;
        while !cursor.is_empty() {
            let (t, used) = FieldType::parse_prefix(cursor)?;
            params.push(t);
            cursor = &cursor[used..];
        }
        let ret = if ret_str == "V" {
            None
        } else {
            Some(FieldType::parse(ret_str)?)
        };
        Ok(MethodDescriptor { params, ret })
    }

    /// The parameter count and slot widths of the method descriptor `s`,
    /// counted without building a [`MethodDescriptor`]: what stack-depth
    /// passes need per call site. Accepts and rejects exactly what
    /// [`MethodDescriptor::parse`] does, with the same error.
    pub fn arity(s: &str) -> Result<Arity> {
        match scan_method(s.as_bytes()) {
            Some((arity, dims)) => {
                for _ in 0..dims {
                    dvm_fuzz::cov!("descriptor.array");
                }
                Ok(arity)
            }
            None => MethodDescriptor::parse(s).map(|d| Arity {
                params: d.params.len(),
                param_slots: d.param_slots(),
                return_slots: d.return_slots(),
            }),
        }
    }

    /// Total number of local-variable slots the parameters occupy, counting
    /// `long`/`double` as two. Does not include the `this` slot.
    pub fn param_slots(&self) -> u16 {
        self.params.iter().map(|p| p.slot_width()).sum()
    }

    /// Number of operand-stack slots the return value occupies.
    pub fn return_slots(&self) -> u16 {
        self.ret.as_ref().map_or(0, |t| t.slot_width())
    }

    /// Returns the descriptor string.
    pub fn descriptor(&self) -> String {
        let mut s = String::from("(");
        for p in &self.params {
            p.write_descriptor(&mut s);
        }
        s.push(')');
        match &self.ret {
            None => s.push('V'),
            Some(t) => t.write_descriptor(&mut s),
        }
        s
    }
}

impl fmt::Display for MethodDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> ")?;
        match &self.ret {
            None => write!(f, "void"),
            Some(t) => write!(f, "{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_primitives() {
        assert_eq!(FieldType::parse("I").unwrap(), FieldType::Int);
        assert_eq!(FieldType::parse("J").unwrap(), FieldType::Long);
        assert_eq!(FieldType::parse("Z").unwrap(), FieldType::Boolean);
    }

    #[test]
    fn parses_objects_and_arrays() {
        assert_eq!(
            FieldType::parse("Ljava/lang/String;").unwrap(),
            FieldType::Object("java/lang/String".into())
        );
        assert_eq!(
            FieldType::parse("[[I").unwrap(),
            FieldType::Array(Box::new(FieldType::Array(Box::new(FieldType::Int))))
        );
    }

    #[test]
    fn rejects_malformed_field_types() {
        assert!(FieldType::parse("").is_err());
        assert!(FieldType::parse("L;").is_err());
        assert!(FieldType::parse("Q").is_err());
        assert!(FieldType::parse("II").is_err());
        assert!(FieldType::parse("Ljava/lang/String").is_err());
    }

    #[test]
    fn parses_method_descriptors() {
        let d = MethodDescriptor::parse("(ILjava/lang/String;[J)D").unwrap();
        assert_eq!(d.params.len(), 3);
        assert_eq!(d.ret, Some(FieldType::Double));
        assert_eq!(d.param_slots(), 3); // int=1, String=1, long[]=1 (array ref)
        assert_eq!(d.return_slots(), 2);
        assert_eq!(d.descriptor(), "(ILjava/lang/String;[J)D");
    }

    #[test]
    fn void_return_and_wide_params() {
        let d = MethodDescriptor::parse("(JD)V").unwrap();
        assert_eq!(d.param_slots(), 4);
        assert_eq!(d.return_slots(), 0);
        assert!(d.ret.is_none());
    }

    #[test]
    fn rejects_malformed_method_descriptors() {
        assert!(MethodDescriptor::parse("()").is_err());
        assert!(MethodDescriptor::parse("I").is_err());
        assert!(MethodDescriptor::parse("(I").is_err());
        assert!(MethodDescriptor::parse("(I)VV").is_err());
    }

    #[test]
    fn counts_agree_with_the_parser() {
        let cases = [
            "()V",
            "(ILjava/lang/String;[J)D",
            "(JD)V",
            "([[Ljava/lang/Object;)[D",
            "(ZBCSIF)J",
            "()",
            "I",
            "(I",
            "(I)VV",
            "(L;)V",
            "(Q)V",
            "([)V",
            "(Ljava/lang/String)V",
            "(I)Ljava/lang/String",
            "(I)[",
            "",
        ];
        for s in cases {
            let want = MethodDescriptor::parse(s).map(|d| Arity {
                params: d.params.len(),
                param_slots: d.param_slots(),
                return_slots: d.return_slots(),
            });
            assert_eq!(MethodDescriptor::arity(s), want, "{s:?}");
        }
        for s in [
            "I", "J", "D", "[J", "[[D", "Lx;", "", "L;", "II", "[", "Lx", "Q",
        ] {
            let want = FieldType::parse(s).map(|t| t.slot_width());
            assert_eq!(FieldType::slot_width_of(s), want, "{s:?}");
        }
    }

    #[test]
    fn display_is_human_readable() {
        let d = MethodDescriptor::parse("(ILjava/lang/String;)V").unwrap();
        assert_eq!(d.to_string(), "(int, java.lang.String) -> void");
    }
}
