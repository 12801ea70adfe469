//! The verification type lattice.

use std::sync::{Arc, LazyLock};

use dvm_classfile::descriptor::FieldType;

/// An abstract value type tracked by the phase-3 dataflow.
///
/// Reference names are shared (`Arc<str>`), so copying a state from one
/// program point to the next copies pointers, not class names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VType {
    /// Unusable: merge conflict or uninitialized local.
    Top,
    /// `int` and the int-like small types.
    Int,
    /// `float`.
    Float,
    /// `long` (single stack entry; two local slots with [`VType::Long2`]).
    Long,
    /// Second local slot of a `long`.
    Long2,
    /// `double`.
    Double,
    /// Second local slot of a `double`.
    Double2,
    /// The null reference.
    Null,
    /// A reference of the given internal class name (`[`-prefixed names are
    /// array types).
    Ref(Arc<str>),
    /// `this` in a constructor before `super.<init>` has run.
    UninitThis,
    /// The result of `new` at the given instruction index, before `<init>`.
    Uninit(usize),
}

static OBJECT: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from("java/lang/Object"));

impl VType {
    /// A reference to `java/lang/Object`, the join of distinct reference
    /// types. Shares one name allocation process-wide.
    pub fn object() -> VType {
        VType::Ref(Arc::clone(&OBJECT))
    }

    /// Converts a descriptor type to its verification type.
    pub fn of_field_type(ft: &FieldType) -> VType {
        match ft {
            FieldType::Byte
            | FieldType::Char
            | FieldType::Short
            | FieldType::Boolean
            | FieldType::Int => VType::Int,
            FieldType::Float => VType::Float,
            FieldType::Long => VType::Long,
            FieldType::Double => VType::Double,
            FieldType::Object(name) => VType::Ref(name.as_str().into()),
            FieldType::Array(_) => VType::Ref(ft.descriptor().into()),
        }
    }

    /// Returns `true` for reference-kinded types (including null and
    /// uninitialized objects, which occupy reference slots).
    pub fn is_reference(&self) -> bool {
        matches!(
            self,
            VType::Null | VType::Ref(_) | VType::UninitThis | VType::Uninit(_)
        )
    }

    /// Returns `true` for fully-initialized references.
    pub fn is_initialized_reference(&self) -> bool {
        matches!(self, VType::Null | VType::Ref(_))
    }

    /// Returns `true` for two-slot types (stack entry still counts as one
    /// element; this refers to local-slot width).
    pub fn is_wide(&self) -> bool {
        matches!(self, VType::Long | VType::Double)
    }

    /// The least upper bound of two types.
    ///
    /// Reference joins involving distinct classes conservatively widen to
    /// `java/lang/Object`: phase 3 runs on a single class in isolation (the
    /// paper's first three phases), so cross-class hierarchy questions are
    /// deferred to link-time assumptions rather than resolved here.
    pub fn merge(&self, other: &VType) -> VType {
        use VType::*;
        if self == other {
            return self.clone();
        }
        match (self, other) {
            (Null, r @ Ref(_)) | (r @ Ref(_), Null) => r.clone(),
            (Ref(_), Ref(_)) => VType::object(),
            _ => Top,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_reflexive() {
        for t in [VType::Int, VType::Long, VType::Null, VType::Ref("A".into())] {
            assert_eq!(t.merge(&t), t);
        }
    }

    #[test]
    fn null_merges_into_references() {
        let r = VType::Ref("A".into());
        assert_eq!(VType::Null.merge(&r), r);
        assert_eq!(r.merge(&VType::Null), r);
    }

    #[test]
    fn distinct_refs_widen_to_object() {
        let a = VType::Ref("A".into());
        let b = VType::Ref("B".into());
        assert_eq!(a.merge(&b), VType::Ref("java/lang/Object".into()));
        assert_eq!(a.merge(&b), VType::object());
    }

    #[test]
    fn incompatible_kinds_become_top() {
        assert_eq!(VType::Int.merge(&VType::Float), VType::Top);
        assert_eq!(VType::Int.merge(&VType::Ref("A".into())), VType::Top);
        assert_eq!(VType::Uninit(1).merge(&VType::Uninit(2)), VType::Top);
    }

    #[test]
    fn field_type_mapping() {
        assert_eq!(VType::of_field_type(&FieldType::Boolean), VType::Int);
        assert_eq!(
            VType::of_field_type(&FieldType::Object("X".into())),
            VType::Ref("X".into())
        );
        assert_eq!(
            VType::of_field_type(&FieldType::Array(Box::new(FieldType::Int))),
            VType::Ref("[I".into())
        );
    }

    #[test]
    fn debug_form_matches_a_plain_string_name() {
        // Failure messages print types with `{:?}`; sharing the name must
        // not change what they say.
        assert_eq!(
            format!("{:?}", VType::Ref("java/lang/String".into())),
            format!("Ref({:?})", "java/lang/String".to_owned())
        );
    }
}
