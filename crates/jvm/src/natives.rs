//! Native method implementations for the bootstrap library and the
//! `dvm/rt/*` dynamic service components.

use std::collections::HashMap;

use crate::error::{Result, VmError};
use crate::heap::{HeapObject, HeapRef};
use crate::hooks::{AuditKind, SecurityDecision};
use crate::value::Value;
use crate::vm::Vm;

/// Result of a native call.
#[derive(Debug, Clone, PartialEq)]
pub enum NativeResult {
    /// Normal completion with an optional return value.
    Return(Option<Value>),
    /// A Java exception to raise in the caller.
    Throw {
        /// Internal name of the exception class.
        class: String,
        /// Exception message.
        message: String,
    },
}

impl NativeResult {
    fn ret(v: Value) -> Result<NativeResult> {
        Ok(NativeResult::Return(Some(v)))
    }

    fn void() -> Result<NativeResult> {
        Ok(NativeResult::Return(None))
    }

    fn throw(class: &str, message: impl Into<String>) -> Result<NativeResult> {
        Ok(NativeResult::Throw {
            class: class.to_owned(),
            message: message.into(),
        })
    }
}

/// A native method: receives the VM and the argument values (receiver first
/// for instance methods).
pub type NativeFn = fn(&mut Vm, &[Value]) -> Result<NativeResult>;

/// Registry of native implementations keyed by
/// `(declaring class, name, descriptor)`.
pub struct NativeRegistry {
    table: HashMap<(String, String, String), NativeFn>,
}

impl std::fmt::Debug for NativeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NativeRegistry({} entries)", self.table.len())
    }
}

impl NativeRegistry {
    /// Creates an empty registry.
    pub fn new() -> NativeRegistry {
        NativeRegistry {
            table: HashMap::new(),
        }
    }

    /// Creates a registry pre-populated with the bootstrap natives.
    pub fn with_builtins() -> NativeRegistry {
        let mut r = NativeRegistry::new();
        register_builtins(&mut r);
        r
    }

    /// Registers an implementation.
    pub fn register(&mut self, class: &str, name: &str, descriptor: &str, f: NativeFn) {
        self.table.insert(
            (class.to_owned(), name.to_owned(), descriptor.to_owned()),
            f,
        );
    }

    /// Looks up an implementation.
    pub fn lookup(&self, class: &str, name: &str, descriptor: &str) -> Option<NativeFn> {
        self.table
            .get(&(class.to_owned(), name.to_owned(), descriptor.to_owned()))
            .copied()
    }

    /// Number of registered natives.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl Default for NativeRegistry {
    fn default() -> Self {
        NativeRegistry::with_builtins()
    }
}

/// The `SecurityException` message of a denied `Enforcer.check(perm)`,
/// the same from the interpreter and the IR tier.
pub(crate) fn denied_message(perm: i32) -> String {
    format!("permission {perm} denied")
}

// ---- Argument helpers -------------------------------------------------------

fn arg_int(args: &[Value], i: usize) -> Result<i32> {
    args.get(i)
        .and_then(Value::as_int)
        .ok_or_else(|| VmError::BadCode(format!("native expected int arg {i}")))
}

fn arg_double(args: &[Value], i: usize) -> Result<f64> {
    args.get(i)
        .and_then(Value::as_double)
        .ok_or_else(|| VmError::BadCode(format!("native expected double arg {i}")))
}

fn arg_ref(args: &[Value], i: usize) -> Result<Option<HeapRef>> {
    args.get(i)
        .and_then(Value::as_ref_val)
        .ok_or_else(|| VmError::BadCode(format!("native expected reference arg {i}")))
}

fn arg_nonnull(args: &[Value], i: usize) -> std::result::Result<HeapRef, NativeResult> {
    match args.get(i).and_then(Value::as_ref_val) {
        Some(Some(r)) => Ok(r),
        _ => Err(NativeResult::Throw {
            class: "java/lang/NullPointerException".into(),
            message: format!("null argument {i}"),
        }),
    }
}

macro_rules! nonnull {
    ($args:expr, $i:expr) => {
        match arg_nonnull($args, $i) {
            Ok(r) => r,
            Err(t) => return Ok(t),
        }
    };
}

fn string_arg(vm: &Vm, args: &[Value], i: usize) -> std::result::Result<String, NativeResult> {
    match args.get(i).and_then(Value::as_ref_val) {
        Some(Some(r)) => match vm.get_string(r) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(NativeResult::Throw {
                class: "java/lang/IllegalArgumentException".into(),
                message: "not a string".into(),
            }),
        },
        _ => Err(NativeResult::Throw {
            class: "java/lang/NullPointerException".into(),
            message: format!("null string argument {i}"),
        }),
    }
}

macro_rules! string_arg {
    ($vm:expr, $args:expr, $i:expr) => {
        match string_arg($vm, $args, $i) {
            Ok(s) => s,
            Err(t) => return Ok(t),
        }
    };
}

fn instance_field(vm: &Vm, obj: HeapRef, offset: usize) -> Result<Value> {
    match vm.heap.get(obj)? {
        HeapObject::Instance { fields, .. } => fields
            .get(offset)
            .copied()
            .ok_or_else(|| VmError::BadCode("field offset out of range".into())),
        _ => Err(VmError::BadCode("expected instance".into())),
    }
}

fn set_instance_field(vm: &mut Vm, obj: HeapRef, offset: usize, v: Value) -> Result<()> {
    match vm.heap.get_mut(obj)? {
        HeapObject::Instance { fields, .. } => {
            *fields
                .get_mut(offset)
                .ok_or_else(|| VmError::BadCode("field offset out of range".into()))? = v;
            Ok(())
        }
        _ => Err(VmError::BadCode("expected instance".into())),
    }
}

// ---- Implementations --------------------------------------------------------

fn register_builtins(r: &mut NativeRegistry) {
    // java/lang/Object
    r.register("java/lang/Object", "<init>", "()V", |_vm, _args| {
        NativeResult::void()
    });
    r.register("java/lang/Object", "hashCode", "()I", |_vm, args| {
        let this = nonnull!(args, 0);
        NativeResult::ret(Value::Int(this.0 as i32))
    });
    r.register(
        "java/lang/Object",
        "equals",
        "(Ljava/lang/Object;)Z",
        |vm, args| {
            let this = nonnull!(args, 0);
            let other = arg_ref(args, 1)?;
            let eq = match other {
                Some(o) => {
                    if o == this {
                        true
                    } else {
                        // Strings compare by value even through Object.equals.
                        matches!(
                            (vm.heap.get(this)?, vm.heap.get(o)?),
                            (HeapObject::Str(a), HeapObject::Str(b)) if a == b
                        )
                    }
                }
                None => false,
            };
            NativeResult::ret(Value::Int(eq as i32))
        },
    );
    r.register(
        "java/lang/Object",
        "toString",
        "()Ljava/lang/String;",
        |vm, args| {
            let this = nonnull!(args, 0);
            let class = vm.class_of(this)?;
            let name = vm.registry.get(class).name.clone();
            let s = vm.new_string(format!("{name}@{}", this.0))?;
            NativeResult::ret(Value::Ref(Some(s)))
        },
    );

    // java/lang/String
    r.register("java/lang/String", "length", "()I", |vm, args| {
        let this = nonnull!(args, 0);
        let s = vm.get_string(this)?;
        NativeResult::ret(Value::Int(s.chars().count() as i32))
    });
    r.register("java/lang/String", "charAt", "(I)C", |vm, args| {
        let this = nonnull!(args, 0);
        let idx = arg_int(args, 1)?;
        let s = vm.get_string(this)?;
        match s.chars().nth(idx.max(0) as usize) {
            Some(c) if idx >= 0 => NativeResult::ret(Value::Int(c as i32)),
            _ => NativeResult::throw(
                "java/lang/ArrayIndexOutOfBoundsException",
                format!("string index {idx}"),
            ),
        }
    });
    r.register("java/lang/String", "hashCode", "()I", |vm, args| {
        let this = nonnull!(args, 0);
        let s = vm.get_string(this)?;
        let mut h: i32 = 0;
        for c in s.encode_utf16() {
            h = h.wrapping_mul(31).wrapping_add(c as i32);
        }
        NativeResult::ret(Value::Int(h))
    });
    r.register(
        "java/lang/String",
        "equals",
        "(Ljava/lang/Object;)Z",
        |vm, args| {
            let this = nonnull!(args, 0);
            let other = arg_ref(args, 1)?;
            let eq = match other {
                Some(o) => matches!(
                    (vm.heap.get(this)?, vm.heap.get(o)?),
                    (HeapObject::Str(a), HeapObject::Str(b)) if a == b
                ),
                None => false,
            };
            NativeResult::ret(Value::Int(eq as i32))
        },
    );
    r.register(
        "java/lang/String",
        "concat",
        "(Ljava/lang/String;)Ljava/lang/String;",
        |vm, args| {
            let this = nonnull!(args, 0);
            let other = string_arg!(vm, args, 1);
            let joined = format!("{}{}", vm.get_string(this)?, other);
            let s = vm.new_string(joined)?;
            NativeResult::ret(Value::Ref(Some(s)))
        },
    );
    r.register(
        "java/lang/String",
        "substring",
        "(II)Ljava/lang/String;",
        |vm, args| {
            let this = nonnull!(args, 0);
            let (from, to) = (arg_int(args, 1)?, arg_int(args, 2)?);
            let s = vm.get_string(this)?.to_owned();
            let chars: Vec<char> = s.chars().collect();
            if from < 0 || to < from || to as usize > chars.len() {
                return NativeResult::throw(
                    "java/lang/ArrayIndexOutOfBoundsException",
                    format!("substring({from}, {to}) of length {}", chars.len()),
                );
            }
            let sub: String = chars[from as usize..to as usize].iter().collect();
            let r = vm.new_string(sub)?;
            NativeResult::ret(Value::Ref(Some(r)))
        },
    );
    r.register(
        "java/lang/String",
        "valueOf",
        "(I)Ljava/lang/String;",
        |vm, args| {
            let v = arg_int(args, 0)?;
            let s = vm.new_string(v.to_string())?;
            NativeResult::ret(Value::Ref(Some(s)))
        },
    );

    // java/lang/StringBuilder — `buf` is instance field 0.
    r.register("java/lang/StringBuilder", "<init>", "()V", |vm, args| {
        let this = nonnull!(args, 0);
        let empty = vm.intern_string("")?;
        set_instance_field(vm, this, 0, Value::Ref(Some(empty)))?;
        NativeResult::void()
    });
    r.register(
        "java/lang/StringBuilder",
        "append",
        "(Ljava/lang/String;)Ljava/lang/StringBuilder;",
        |vm, args| {
            let this = nonnull!(args, 0);
            let addition = string_arg!(vm, args, 1);
            sb_append(vm, this, &addition)?;
            NativeResult::ret(Value::Ref(Some(this)))
        },
    );
    r.register(
        "java/lang/StringBuilder",
        "append",
        "(I)Ljava/lang/StringBuilder;",
        |vm, args| {
            let this = nonnull!(args, 0);
            let v = arg_int(args, 1)?;
            sb_append(vm, this, &v.to_string())?;
            NativeResult::ret(Value::Ref(Some(this)))
        },
    );
    r.register(
        "java/lang/StringBuilder",
        "toString",
        "()Ljava/lang/String;",
        |vm, args| {
            let this = nonnull!(args, 0);
            let buf = instance_field(vm, this, 0)?;
            NativeResult::ret(buf)
        },
    );

    // java/io/OutputStream
    r.register("java/io/OutputStream", "<init>", "()V", |_vm, _args| {
        NativeResult::void()
    });
    r.register("java/io/OutputStream", "write", "(I)V", |_vm, _args| {
        NativeResult::void()
    });

    // java/io/PrintStream
    r.register(
        "java/io/PrintStream",
        "println",
        "(Ljava/lang/String;)V",
        |vm, args| {
            let s = string_arg!(vm, args, 1);
            vm.stdout.push(s);
            NativeResult::void()
        },
    );
    r.register("java/io/PrintStream", "println", "(I)V", |vm, args| {
        let v = arg_int(args, 1)?;
        vm.stdout.push(v.to_string());
        NativeResult::void()
    });
    r.register("java/io/PrintStream", "println", "()V", |vm, _args| {
        vm.stdout.push(String::new());
        NativeResult::void()
    });
    r.register(
        "java/io/PrintStream",
        "print",
        "(Ljava/lang/String;)V",
        |vm, args| {
            let s = string_arg!(vm, args, 1);
            match vm.stdout.last_mut() {
                Some(last) => last.push_str(&s),
                None => vm.stdout.push(s),
            }
            NativeResult::void()
        },
    );

    // java/lang/System
    r.register(
        "java/lang/System",
        "getProperty",
        "(Ljava/lang/String;)Ljava/lang/String;",
        |vm, args| {
            if let Some(c) = vm.builtin_checks.get_property {
                vm.stats.cycles += c;
                vm.stats.security_checks += 1;
            }
            let key = string_arg!(vm, args, 0);
            match vm.properties.get(&key).cloned() {
                Some(v) => {
                    let s = vm.new_string(v)?;
                    NativeResult::ret(Value::Ref(Some(s)))
                }
                None => NativeResult::ret(Value::NULL),
            }
        },
    );
    r.register(
        "java/lang/System",
        "currentTimeMillis",
        "()J",
        |vm, _args| {
            // Simulated wall clock derived from the cycle counter (200 MHz).
            NativeResult::ret(Value::Long((vm.stats.cycles / 200_000) as i64))
        },
    );

    // java/lang/Throwable — `message` is instance field 0.
    r.register("java/lang/Throwable", "<init>", "()V", |_vm, _args| {
        NativeResult::void()
    });
    r.register(
        "java/lang/Throwable",
        "<init>",
        "(Ljava/lang/String;)V",
        |vm, args| {
            let this = nonnull!(args, 0);
            let msg = arg_ref(args, 1)?;
            set_instance_field(vm, this, 0, Value::Ref(msg))?;
            NativeResult::void()
        },
    );
    r.register(
        "java/lang/Throwable",
        "getMessage",
        "()Ljava/lang/String;",
        |vm, args| {
            let this = nonnull!(args, 0);
            NativeResult::ret(instance_field(vm, this, 0)?)
        },
    );

    // java/lang/Thread — instance field 0 = priority, static `current`.
    r.register(
        "java/lang/Thread",
        "currentThread",
        "()Ljava/lang/Thread;",
        |vm, _args| match vm.get_static("java/lang/Thread", "current")? {
            Value::Ref(Some(t)) => NativeResult::ret(Value::Ref(Some(t))),
            _ => {
                let class = vm
                    .registry
                    .id_of("java/lang/Thread")
                    .ok_or_else(|| VmError::ClassNotFound("java/lang/Thread".into()))?;
                let t = vm.alloc_instance(class)?;
                set_instance_field(vm, t, 0, Value::Int(5))?;
                vm.set_static("java/lang/Thread", "current", Value::Ref(Some(t)))?;
                NativeResult::ret(Value::Ref(Some(t)))
            }
        },
    );
    r.register("java/lang/Thread", "setPriority", "(I)V", |vm, args| {
        if let Some(c) = vm.builtin_checks.set_priority {
            vm.stats.cycles += c;
            vm.stats.security_checks += 1;
        }
        let this = nonnull!(args, 0);
        let p = arg_int(args, 1)?;
        if !(1..=10).contains(&p) {
            return NativeResult::throw(
                "java/lang/IllegalArgumentException",
                format!("priority {p}"),
            );
        }
        set_instance_field(vm, this, 0, Value::Int(p))?;
        NativeResult::void()
    });
    r.register("java/lang/Thread", "getPriority", "()I", |vm, args| {
        let this = nonnull!(args, 0);
        NativeResult::ret(instance_field(vm, this, 0)?)
    });

    // java/lang/Math
    r.register("java/lang/Math", "min", "(II)I", |_vm, args| {
        NativeResult::ret(Value::Int(arg_int(args, 0)?.min(arg_int(args, 1)?)))
    });
    r.register("java/lang/Math", "max", "(II)I", |_vm, args| {
        NativeResult::ret(Value::Int(arg_int(args, 0)?.max(arg_int(args, 1)?)))
    });
    r.register("java/lang/Math", "abs", "(I)I", |_vm, args| {
        NativeResult::ret(Value::Int(arg_int(args, 0)?.wrapping_abs()))
    });
    r.register("java/lang/Math", "sqrt", "(D)D", |_vm, args| {
        NativeResult::ret(Value::Double(arg_double(args, 0)?.sqrt()))
    });

    // java/lang/Integer
    r.register(
        "java/lang/Integer",
        "toString",
        "(I)Ljava/lang/String;",
        |vm, args| {
            let s = vm.new_string(arg_int(args, 0)?.to_string())?;
            NativeResult::ret(Value::Ref(Some(s)))
        },
    );
    r.register(
        "java/lang/Integer",
        "parseInt",
        "(Ljava/lang/String;)I",
        |vm, args| {
            let s = string_arg!(vm, args, 0);
            match s.trim().parse::<i32>() {
                Ok(v) => NativeResult::ret(Value::Int(v)),
                Err(_) => NativeResult::throw("java/lang/IllegalArgumentException", s),
            }
        },
    );

    // java/io/FileInputStream — instance field 0 = fd.
    r.register(
        "java/io/FileInputStream",
        "<init>",
        "(Ljava/lang/String;)V",
        |vm, args| {
            if let Some(c) = vm.builtin_checks.open_file {
                vm.stats.cycles += c;
                vm.stats.security_checks += 1;
            }
            let this = nonnull!(args, 0);
            let path = string_arg!(vm, args, 1);
            if !vm.vfs.contains_key(&path) {
                return NativeResult::throw(
                    "java/lang/RuntimeException",
                    format!("file not found: {path}"),
                );
            }
            vm.open_files.push(Some((path, 0)));
            let fd = vm.open_files.len() as i32 - 1;
            set_instance_field(vm, this, 0, Value::Int(fd))?;
            NativeResult::void()
        },
    );
    r.register("java/io/FileInputStream", "read", "()I", |vm, args| {
        if let Some(c) = vm.builtin_checks.read_file {
            vm.stats.cycles += c;
            vm.stats.security_checks += 1;
        }
        let this = nonnull!(args, 0);
        let fd = instance_field(vm, this, 0)?.as_int().unwrap_or(-1);
        let slot = vm
            .open_files
            .get_mut(fd.max(0) as usize)
            .and_then(|s| s.as_mut());
        match slot {
            Some((path, pos)) => {
                let data = &vm.vfs[path.as_str()].data;
                if *pos < data.len() {
                    let b = data[*pos];
                    *pos += 1;
                    NativeResult::ret(Value::Int(b as i32))
                } else {
                    NativeResult::ret(Value::Int(-1))
                }
            }
            None => NativeResult::throw("java/lang/RuntimeException", "stream closed"),
        }
    });
    r.register("java/io/FileInputStream", "available", "()I", |vm, args| {
        let this = nonnull!(args, 0);
        let fd = instance_field(vm, this, 0)?.as_int().unwrap_or(-1);
        let avail = vm
            .open_files
            .get(fd.max(0) as usize)
            .and_then(|s| s.as_ref())
            .map(|(path, pos)| vm.vfs[path.as_str()].data.len().saturating_sub(*pos))
            .unwrap_or(0);
        NativeResult::ret(Value::Int(avail as i32))
    });
    r.register("java/io/FileInputStream", "close", "()V", |vm, args| {
        let this = nonnull!(args, 0);
        let fd = instance_field(vm, this, 0)?.as_int().unwrap_or(-1);
        if let Some(slot) = vm.open_files.get_mut(fd.max(0) as usize) {
            *slot = None;
        }
        NativeResult::void()
    });

    // dvm/rt/RTVerifier — the dynamic component of the verification
    // service: a descriptor lookup plus string comparison (Figure 3).
    r.register(
        "dvm/rt/RTVerifier",
        "checkField",
        "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V",
        |vm, args| {
            let class = string_arg!(vm, args, 0);
            let field = string_arg!(vm, args, 1);
            let desc = string_arg!(vm, args, 2);
            vm.stats.dynamic_verify_checks += 1;
            vm.stats.cycles += 40;
            let id = match vm.load_class(&class) {
                Ok(id) => id,
                Err(_) => {
                    return NativeResult::throw(
                        "java/lang/VerifyError",
                        format!("missing class {class}"),
                    )
                }
            };
            let rc = vm.registry.get(id);
            let found = rc
                .instance_layout
                .iter()
                .chain(rc.static_layout.iter())
                .any(|s| s.name == field && s.descriptor == desc)
                || rc
                    .super_class
                    .map(|sup| {
                        let mut cur = Some(sup);
                        while let Some(c) = cur {
                            let rc = vm.registry.get(c);
                            if rc
                                .static_layout
                                .iter()
                                .any(|s| s.name == field && s.descriptor == desc)
                            {
                                return true;
                            }
                            cur = rc.super_class;
                        }
                        false
                    })
                    .unwrap_or(false);
            if found {
                NativeResult::void()
            } else {
                NativeResult::throw(
                    "java/lang/NoSuchFieldError",
                    format!("{class}.{field}:{desc}"),
                )
            }
        },
    );
    r.register(
        "dvm/rt/RTVerifier",
        "checkMethod",
        "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V",
        |vm, args| {
            let class = string_arg!(vm, args, 0);
            let method = string_arg!(vm, args, 1);
            let desc = string_arg!(vm, args, 2);
            vm.stats.dynamic_verify_checks += 1;
            vm.stats.cycles += 40;
            let id = match vm.load_class(&class) {
                Ok(id) => id,
                Err(_) => {
                    return NativeResult::throw(
                        "java/lang/VerifyError",
                        format!("missing class {class}"),
                    )
                }
            };
            if vm.registry.resolve_method(id, &method, &desc).is_some() {
                NativeResult::void()
            } else {
                NativeResult::throw(
                    "java/lang/NoSuchMethodError",
                    format!("{class}.{method}:{desc}"),
                )
            }
        },
    );
    r.register(
        "dvm/rt/RTVerifier",
        "checkClass",
        "(Ljava/lang/String;Ljava/lang/String;)V",
        |vm, args| {
            let class = string_arg!(vm, args, 0);
            let expected_super = string_arg!(vm, args, 1);
            vm.stats.dynamic_verify_checks += 1;
            vm.stats.cycles += 40;
            let (id, sup) = match (vm.load_class(&class), vm.load_class(&expected_super)) {
                (Ok(a), Ok(b)) => (a, b),
                _ => {
                    return NativeResult::throw(
                        "java/lang/VerifyError",
                        format!("missing class {class} or {expected_super}"),
                    )
                }
            };
            if vm.registry.is_subtype(id, sup) {
                NativeResult::void()
            } else {
                NativeResult::throw(
                    "java/lang/VerifyError",
                    format!("{class} does not extend {expected_super}"),
                )
            }
        },
    );

    // dvm/rt/Enforcer — the enforcement manager hook.
    r.register("dvm/rt/Enforcer", "check", "(I)V", |vm, args| {
        let perm = arg_int(args, 0)?;
        vm.stats.security_checks += 1;
        match vm.services.security_check(perm) {
            SecurityDecision::Allow { cost_cycles } => {
                vm.stats.cycles += cost_cycles;
                NativeResult::void()
            }
            SecurityDecision::Deny { cost_cycles } => {
                vm.stats.cycles += cost_cycles;
                NativeResult::throw("java/lang/SecurityException", denied_message(perm))
            }
        }
    });

    // dvm/rt/Audit
    r.register("dvm/rt/Audit", "enter", "(I)V", |vm, args| {
        vm.services.audit_event(arg_int(args, 0)?, AuditKind::Enter);
        vm.stats.cycles += 15;
        NativeResult::void()
    });
    r.register("dvm/rt/Audit", "exit", "(I)V", |vm, args| {
        vm.services.audit_event(arg_int(args, 0)?, AuditKind::Exit);
        vm.stats.cycles += 15;
        NativeResult::void()
    });
    r.register("dvm/rt/Audit", "event", "(I)V", |vm, args| {
        vm.services.audit_event(arg_int(args, 0)?, AuditKind::Event);
        vm.stats.cycles += 15;
        NativeResult::void()
    });

    // dvm/rt/Profiler
    r.register("dvm/rt/Profiler", "count", "(I)V", |vm, args| {
        vm.services.profile_count(arg_int(args, 0)?);
        vm.stats.cycles += 5;
        NativeResult::void()
    });
    r.register("dvm/rt/Profiler", "firstUse", "(I)V", |vm, args| {
        vm.services.first_use(arg_int(args, 0)?);
        vm.stats.cycles += 5;
        NativeResult::void()
    });
}

fn sb_append(vm: &mut Vm, sb: HeapRef, addition: &str) -> Result<()> {
    let cur = match instance_field(vm, sb, 0)? {
        Value::Ref(Some(r)) => vm.get_string(r)?.to_owned(),
        _ => String::new(),
    };
    let joined = vm.new_string(format!("{cur}{addition}"))?;
    set_instance_field(vm, sb, 0, Value::Ref(Some(joined)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::MapProvider;

    fn vm() -> Vm {
        Vm::new(Box::new(MapProvider::new())).unwrap()
    }

    #[test]
    fn builtins_are_registered() {
        let r = NativeRegistry::with_builtins();
        assert!(r.lookup("java/lang/Object", "hashCode", "()I").is_some());
        assert!(r
            .lookup(
                "dvm/rt/RTVerifier",
                "checkMethod",
                "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V"
            )
            .is_some());
        assert!(r.lookup("java/lang/Object", "nope", "()V").is_none());
    }

    #[test]
    fn string_natives_work() {
        let mut vm = vm();
        let s = vm.intern_string("hello").unwrap();
        let f = vm
            .natives
            .lookup("java/lang/String", "length", "()I")
            .unwrap();
        let out = f(&mut vm, &[Value::Ref(Some(s))]).unwrap();
        assert_eq!(out, NativeResult::Return(Some(Value::Int(5))));
    }

    #[test]
    fn println_captures_output() {
        let mut vm = vm();
        let s = vm.intern_string("hi").unwrap();
        let f = vm
            .natives
            .lookup("java/io/PrintStream", "println", "(Ljava/lang/String;)V")
            .unwrap();
        f(&mut vm, &[Value::NULL, Value::Ref(Some(s))]).unwrap();
        assert_eq!(vm.stdout, vec!["hi"]);
    }

    #[test]
    fn rtverifier_checkmethod_detects_missing_member() {
        let mut vm = vm();
        let c = vm.intern_string("java/lang/Object").unwrap();
        let m = vm.intern_string("missing").unwrap();
        let d = vm.intern_string("()V").unwrap();
        let f = vm
            .natives
            .lookup(
                "dvm/rt/RTVerifier",
                "checkMethod",
                "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V",
            )
            .unwrap();
        let out = f(
            &mut vm,
            &[
                Value::Ref(Some(c)),
                Value::Ref(Some(m)),
                Value::Ref(Some(d)),
            ],
        )
        .unwrap();
        assert!(
            matches!(out, NativeResult::Throw { class, .. } if class == "java/lang/NoSuchMethodError")
        );
        assert_eq!(vm.stats.dynamic_verify_checks, 1);
    }

    #[test]
    fn file_natives_roundtrip_through_vfs() {
        let mut vm = vm();
        vm.add_file("/data/test.txt", vec![7, 8]);
        let fis_class = vm.registry.id_of("java/io/FileInputStream").unwrap();
        let fis = vm.alloc_instance(fis_class).unwrap();
        let path = vm.intern_string("/data/test.txt").unwrap();
        let init = vm
            .natives
            .lookup("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V")
            .unwrap();
        init(&mut vm, &[Value::Ref(Some(fis)), Value::Ref(Some(path))]).unwrap();
        let read = vm
            .natives
            .lookup("java/io/FileInputStream", "read", "()I")
            .unwrap();
        assert_eq!(
            read(&mut vm, &[Value::Ref(Some(fis))]).unwrap(),
            NativeResult::Return(Some(Value::Int(7)))
        );
        assert_eq!(
            read(&mut vm, &[Value::Ref(Some(fis))]).unwrap(),
            NativeResult::Return(Some(Value::Int(8)))
        );
        assert_eq!(
            read(&mut vm, &[Value::Ref(Some(fis))]).unwrap(),
            NativeResult::Return(Some(Value::Int(-1)))
        );
    }

    #[test]
    fn missing_file_throws() {
        let mut vm = vm();
        let fis_class = vm.registry.id_of("java/io/FileInputStream").unwrap();
        let fis = vm.alloc_instance(fis_class).unwrap();
        let path = vm.intern_string("/nope").unwrap();
        let init = vm
            .natives
            .lookup("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V")
            .unwrap();
        let out = init(&mut vm, &[Value::Ref(Some(fis)), Value::Ref(Some(path))]).unwrap();
        assert!(matches!(out, NativeResult::Throw { .. }));
    }
}
