//! The bootstrap runtime library.
//!
//! The DVM client ships a small core library whose methods are implemented
//! natively by the engine (the paper's "runtime libraries"). This module
//! synthesizes those class files; `natives.rs` supplies the
//! implementations. Everything else — including the `dvm/rt/*` dynamic
//! service components — arrives over the network like any other class.

use dvm_classfile::{AccessFlags, ClassBuilder, ClassFile};

fn native() -> AccessFlags {
    AccessFlags::PUBLIC | AccessFlags::NATIVE
}

fn static_native() -> AccessFlags {
    AccessFlags::PUBLIC | AccessFlags::STATIC | AccessFlags::NATIVE
}

/// Internal names of every bootstrap class, in link order (supertypes
/// first).
pub fn bootstrap_class_names() -> Vec<&'static str> {
    vec![
        "java/lang/Object",
        "java/lang/String",
        "java/lang/StringBuilder",
        "java/io/OutputStream",
        "java/io/PrintStream",
        "java/lang/System",
        "java/lang/Throwable",
        "java/lang/Error",
        "java/lang/Exception",
        "java/lang/RuntimeException",
        "java/lang/NullPointerException",
        "java/lang/ArithmeticException",
        "java/lang/ArrayIndexOutOfBoundsException",
        "java/lang/NegativeArraySizeException",
        "java/lang/ClassCastException",
        "java/lang/IllegalArgumentException",
        "java/lang/SecurityException",
        "java/lang/LinkageError",
        "java/lang/VerifyError",
        "java/lang/NoSuchFieldError",
        "java/lang/NoSuchMethodError",
        "java/lang/IncompatibleClassChangeError",
        "java/lang/OutOfMemoryError",
        "java/lang/StackOverflowError",
        "java/lang/Thread",
        "java/lang/Math",
        "java/lang/Integer",
        "java/io/FileInputStream",
        "dvm/rt/RTVerifier",
        "dvm/rt/Enforcer",
        "dvm/rt/Audit",
        "dvm/rt/Profiler",
    ]
}

/// Builds all bootstrap classes, in link order.
#[allow(clippy::vec_init_then_push)] // each push is one class; a literal vec would bury them
pub fn bootstrap_classes() -> Vec<ClassFile> {
    let mut v = Vec::new();

    v.push(
        ClassBuilder::new("java/lang/Object")
            .no_super_class()
            .bodyless_method(native(), "<init>", "()V")
            .bodyless_method(native(), "hashCode", "()I")
            .bodyless_method(native(), "equals", "(Ljava/lang/Object;)Z")
            .bodyless_method(native(), "toString", "()Ljava/lang/String;")
            .build(),
    );

    v.push(
        ClassBuilder::new("java/lang/String")
            .access(AccessFlags::PUBLIC | AccessFlags::FINAL)
            .bodyless_method(native(), "length", "()I")
            .bodyless_method(native(), "charAt", "(I)C")
            .bodyless_method(native(), "hashCode", "()I")
            .bodyless_method(native(), "equals", "(Ljava/lang/Object;)Z")
            .bodyless_method(native(), "concat", "(Ljava/lang/String;)Ljava/lang/String;")
            .bodyless_method(native(), "substring", "(II)Ljava/lang/String;")
            .bodyless_method(static_native(), "valueOf", "(I)Ljava/lang/String;")
            .build(),
    );

    v.push(
        ClassBuilder::new("java/lang/StringBuilder")
            .field(AccessFlags::PRIVATE, "buf", "Ljava/lang/String;")
            .bodyless_method(native(), "<init>", "()V")
            .bodyless_method(
                native(),
                "append",
                "(Ljava/lang/String;)Ljava/lang/StringBuilder;",
            )
            .bodyless_method(native(), "append", "(I)Ljava/lang/StringBuilder;")
            .bodyless_method(native(), "toString", "()Ljava/lang/String;")
            .build(),
    );

    v.push(
        ClassBuilder::new("java/io/OutputStream")
            .bodyless_method(native(), "<init>", "()V")
            .bodyless_method(native(), "write", "(I)V")
            .build(),
    );

    v.push(
        ClassBuilder::new("java/io/PrintStream")
            .super_class("java/io/OutputStream")
            .bodyless_method(native(), "println", "(Ljava/lang/String;)V")
            .bodyless_method(native(), "println", "(I)V")
            .bodyless_method(native(), "println", "()V")
            .bodyless_method(native(), "print", "(Ljava/lang/String;)V")
            .build(),
    );

    v.push(
        ClassBuilder::new("java/lang/System")
            .access(AccessFlags::PUBLIC | AccessFlags::FINAL)
            .field(
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                "out",
                "Ljava/io/PrintStream;",
            )
            .field(
                AccessFlags::PUBLIC | AccessFlags::STATIC,
                "err",
                "Ljava/io/PrintStream;",
            )
            .bodyless_method(
                static_native(),
                "getProperty",
                "(Ljava/lang/String;)Ljava/lang/String;",
            )
            .bodyless_method(static_native(), "currentTimeMillis", "()J")
            .build(),
    );

    v.push(
        ClassBuilder::new("java/lang/Throwable")
            .field(AccessFlags::PRIVATE, "message", "Ljava/lang/String;")
            .bodyless_method(native(), "<init>", "()V")
            .bodyless_method(native(), "<init>", "(Ljava/lang/String;)V")
            .bodyless_method(native(), "getMessage", "()Ljava/lang/String;")
            .build(),
    );

    // Trivial Throwable subclasses: constructors and getMessage are
    // inherited (resolution walks the hierarchy to the Throwable natives).
    let subclasses: [(&str, &str); 17] = [
        ("java/lang/Error", "java/lang/Throwable"),
        ("java/lang/Exception", "java/lang/Throwable"),
        ("java/lang/RuntimeException", "java/lang/Exception"),
        (
            "java/lang/NullPointerException",
            "java/lang/RuntimeException",
        ),
        (
            "java/lang/ArithmeticException",
            "java/lang/RuntimeException",
        ),
        (
            "java/lang/ArrayIndexOutOfBoundsException",
            "java/lang/RuntimeException",
        ),
        (
            "java/lang/NegativeArraySizeException",
            "java/lang/RuntimeException",
        ),
        ("java/lang/ClassCastException", "java/lang/RuntimeException"),
        (
            "java/lang/IllegalArgumentException",
            "java/lang/RuntimeException",
        ),
        ("java/lang/SecurityException", "java/lang/RuntimeException"),
        ("java/lang/LinkageError", "java/lang/Error"),
        ("java/lang/VerifyError", "java/lang/LinkageError"),
        (
            "java/lang/NoSuchFieldError",
            "java/lang/IncompatibleClassChangeError",
        ),
        (
            "java/lang/NoSuchMethodError",
            "java/lang/IncompatibleClassChangeError",
        ),
        (
            "java/lang/IncompatibleClassChangeError",
            "java/lang/LinkageError",
        ),
        ("java/lang/OutOfMemoryError", "java/lang/Error"),
        ("java/lang/StackOverflowError", "java/lang/Error"),
    ];
    // Emit in dependency order (IncompatibleClassChangeError before the two
    // errors that extend it).
    let order = [
        "java/lang/Error",
        "java/lang/Exception",
        "java/lang/RuntimeException",
        "java/lang/NullPointerException",
        "java/lang/ArithmeticException",
        "java/lang/ArrayIndexOutOfBoundsException",
        "java/lang/NegativeArraySizeException",
        "java/lang/ClassCastException",
        "java/lang/IllegalArgumentException",
        "java/lang/SecurityException",
        "java/lang/LinkageError",
        "java/lang/IncompatibleClassChangeError",
        "java/lang/VerifyError",
        "java/lang/NoSuchFieldError",
        "java/lang/NoSuchMethodError",
        "java/lang/OutOfMemoryError",
        "java/lang/StackOverflowError",
    ];
    for name in order {
        let (_, sup) = subclasses.iter().find(|(n, _)| *n == name).unwrap();
        v.push(ClassBuilder::new(name).super_class(sup).build());
    }

    v.push(
        ClassBuilder::new("java/lang/Thread")
            .field(AccessFlags::PRIVATE, "priority", "I")
            .field(
                AccessFlags::PRIVATE | AccessFlags::STATIC,
                "current",
                "Ljava/lang/Thread;",
            )
            .bodyless_method(static_native(), "currentThread", "()Ljava/lang/Thread;")
            .bodyless_method(native(), "setPriority", "(I)V")
            .bodyless_method(native(), "getPriority", "()I")
            .build(),
    );

    v.push(
        ClassBuilder::new("java/lang/Math")
            .access(AccessFlags::PUBLIC | AccessFlags::FINAL)
            .bodyless_method(static_native(), "min", "(II)I")
            .bodyless_method(static_native(), "max", "(II)I")
            .bodyless_method(static_native(), "abs", "(I)I")
            .bodyless_method(static_native(), "sqrt", "(D)D")
            .build(),
    );

    v.push(
        ClassBuilder::new("java/lang/Integer")
            .access(AccessFlags::PUBLIC | AccessFlags::FINAL)
            .bodyless_method(static_native(), "toString", "(I)Ljava/lang/String;")
            .bodyless_method(static_native(), "parseInt", "(Ljava/lang/String;)I")
            .build(),
    );

    v.push(
        ClassBuilder::new("java/io/FileInputStream")
            .field(AccessFlags::PRIVATE, "fd", "I")
            .bodyless_method(native(), "<init>", "(Ljava/lang/String;)V")
            .bodyless_method(native(), "read", "()I")
            .bodyless_method(native(), "available", "()I")
            .bodyless_method(native(), "close", "()V")
            .build(),
    );

    // Dynamic service components (the client halves of the DVM services).
    v.push(
        ClassBuilder::new("dvm/rt/RTVerifier")
            .access(AccessFlags::PUBLIC | AccessFlags::FINAL)
            .bodyless_method(
                static_native(),
                "checkField",
                "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V",
            )
            .bodyless_method(
                static_native(),
                "checkMethod",
                "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V",
            )
            .bodyless_method(
                static_native(),
                "checkClass",
                "(Ljava/lang/String;Ljava/lang/String;)V",
            )
            .build(),
    );

    v.push(
        ClassBuilder::new("dvm/rt/Enforcer")
            .access(AccessFlags::PUBLIC | AccessFlags::FINAL)
            .bodyless_method(static_native(), "check", "(I)V")
            .build(),
    );

    v.push(
        ClassBuilder::new("dvm/rt/Audit")
            .access(AccessFlags::PUBLIC | AccessFlags::FINAL)
            .bodyless_method(static_native(), "enter", "(I)V")
            .bodyless_method(static_native(), "exit", "(I)V")
            .bodyless_method(static_native(), "event", "(I)V")
            .build(),
    );

    v.push(
        ClassBuilder::new("dvm/rt/Profiler")
            .access(AccessFlags::PUBLIC | AccessFlags::FINAL)
            .bodyless_method(static_native(), "count", "(I)V")
            .bodyless_method(static_native(), "firstUse", "(I)V")
            .build(),
    );

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_bootstrap_classes_build_and_serialize() {
        let mut classes = bootstrap_classes();
        assert!(classes.len() > 25);
        for cf in &mut classes {
            let name = cf.name().unwrap().to_owned();
            let bytes = cf.to_bytes().unwrap_or_else(|e| panic!("{name}: {e}"));
            let parsed = ClassFile::parse(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(parsed.name().unwrap(), name);
        }
    }

    #[test]
    fn link_order_has_supertypes_first() {
        use std::collections::HashSet;
        let classes = bootstrap_classes();
        let mut seen: HashSet<String> = HashSet::new();
        for cf in &classes {
            if let Some(sup) = cf.super_name().unwrap() {
                assert!(
                    seen.contains(sup),
                    "{} before its super {sup}",
                    cf.name().unwrap()
                );
            }
            seen.insert(cf.name().unwrap().to_owned());
        }
    }

    #[test]
    fn names_list_matches_built_classes() {
        let classes = bootstrap_classes();
        let names: Vec<String> = classes
            .iter()
            .map(|c| c.name().unwrap().to_owned())
            .collect();
        for n in bootstrap_class_names() {
            assert!(names.iter().any(|x| x == n), "missing {n}");
        }
    }
}
