//! Differential property tests for the optimizing execution tier: for
//! any generated program the compiled IR must be observationally
//! equivalent to the interpreter — same return values (or the same
//! exception), same heap effects, same service-event stream — plus
//! replay of the hostile IR-package corpus in `tests/corpus/exec/`.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use dvm_repro::bytecode::asm::Asm;
use dvm_repro::bytecode::insn::{ICond, Kind};
use dvm_repro::classfile::{
    AccessFlags, Attribute, ClassBuilder, ClassFile, CodeAttribute, MemberInfo,
};
use dvm_repro::exec::{compile_class, decode, encode, lower, optimize, ExecError};
use dvm_repro::jvm::{
    AuditKind, Completion, DynamicServices, MapProvider, SecurityDecision, Value, Vm,
};

// ---- Helpers ----------------------------------------------------------------

fn ps() -> AccessFlags {
    AccessFlags::PUBLIC | AccessFlags::STATIC
}

fn push_method(cf: &mut ClassFile, method: &str, descriptor: &str, a: Asm) {
    let attr = a.finish().unwrap().encode(&cf.pool).unwrap();
    let name_index = cf.pool.utf8(method).unwrap();
    let desc_index = cf.pool.utf8(descriptor).unwrap();
    cf.methods.push(MemberInfo {
        access: ps(),
        name_index,
        descriptor_index: desc_index,
        attributes: vec![Attribute::Code(attr)],
    });
}

fn vm_interp(cf: &ClassFile) -> Vm {
    let mut cf = cf.clone();
    let mut provider = MapProvider::new();
    provider.insert_class(&mut cf).unwrap();
    Vm::new(Box::new(provider)).unwrap()
}

/// A VM with the class's optimized IR installed before first load.
fn vm_ir(cf: &ClassFile) -> Vm {
    let mut vm = vm_interp(cf);
    let (ir, _) = compile_class(cf).unwrap();
    vm.install_ir(ir);
    vm
}

/// An observation a test can compare across tiers: the integer result
/// or the thrown exception's (class, message).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Int(i32),
    Thrown(String, String),
}

fn observe(vm: &mut Vm, class: &str, method: &str, descriptor: &str, args: Vec<Value>) -> Outcome {
    match vm.run_static(class, method, descriptor, args).unwrap() {
        Completion::Normal(Some(Value::Int(v))) => Outcome::Int(v),
        Completion::Exception(e) => {
            let (class, msg) = vm.exception_message(e).unwrap();
            Outcome::Thrown(class, msg)
        }
        other => panic!("unexpected completion {other:?}"),
    }
}

// ---- Random arithmetic ------------------------------------------------------

/// One step of a straight-line accumulator program.
#[derive(Debug, Clone, Copy)]
enum Step {
    Add(i32),
    Sub(i32),
    Mul(i32),
    Rem(i32),
    Xor(i32),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (-1000..1000i32).prop_map(Step::Add),
        (-1000..1000i32).prop_map(Step::Sub),
        (-13..13i32).prop_map(Step::Mul),
        // Any divisor, zero included: ArithmeticException must match too.
        (-7..7i32).prop_map(Step::Rem),
        (-1000..1000i32).prop_map(Step::Xor),
    ]
}

fn arith_class(steps: &[Step]) -> ClassFile {
    let mut cf = ClassBuilder::new("p/Arith").build();
    let mut a = Asm::new(4);
    a.iload(0).istore(1);
    for s in steps {
        a.iload(1);
        match s {
            Step::Add(k) => {
                a.iconst(*k).iadd();
            }
            Step::Sub(k) => {
                a.iconst(*k).isub();
            }
            Step::Mul(k) => {
                a.iconst(*k).imul();
            }
            Step::Rem(k) => {
                a.iconst(*k).irem();
            }
            Step::Xor(k) => {
                a.iconst(*k).logic(
                    dvm_repro::bytecode::NumKind::Int,
                    dvm_repro::bytecode::LogicOp::Xor,
                );
            }
        }
        a.istore(1);
    }
    a.iload(1).ret_val(Kind::Int);
    push_method(&mut cf, "run", "(I)I", a);
    cf
}

/// `p/Loop.sum(n)`: an accumulator loop with a stride and a delta.
fn loop_class(stride: i32, delta: i32) -> ClassFile {
    let mut cf = ClassBuilder::new("p/Loop").build();
    let mut a = Asm::new(4);
    let top = a.new_label();
    let done = a.new_label();
    a.iconst(0).istore(1);
    a.iconst(0).istore(2);
    a.place(top);
    a.iload(2).iload(0).if_icmp(ICond::Ge, done);
    a.iload(1).iload(2).iadd().iconst(delta).iadd().istore(1);
    a.iinc(2, stride as i16).goto(top);
    a.place(done);
    a.iload(1).ret_val(Kind::Int);
    push_method(&mut cf, "sum", "(I)I", a);
    cf
}

/// Runs the pass pipeline again over every method `cf` compiles to and
/// checks it finds nothing more to do.
fn assert_optimized_is_fixpoint(cf: &ClassFile) -> Result<(), TestCaseError> {
    let (ir, _) = compile_class(cf).unwrap();
    for func in &ir.methods {
        let mut again = func.clone();
        let stats = optimize(&mut again, &cf.pool);
        prop_assert_eq!(
            (stats.folded, stats.copies_propagated, stats.eliminated),
            (0, 0, 0)
        );
        prop_assert_eq!(&again.insns, &func.insns);
    }
    Ok(())
}

// ---- Heap effects -----------------------------------------------------------

/// `p/Heap`: a static accumulator plus an array digest.
///
/// `bump(v)` adds `v` to static `x`; `get()` reads it back;
/// `fill(n, k)` builds `a[i] = i*i + x` for `i < n` and returns `a[k]`.
fn heap_class() -> ClassFile {
    let mut cf = ClassBuilder::new("p/Heap")
        .field(AccessFlags::STATIC, "x", "I")
        .build();
    let xref = cf.pool.fieldref("p/Heap", "x", "I").unwrap();

    let mut a = Asm::new(1);
    a.getstatic(xref).iload(0).iadd().putstatic(xref).ret();
    push_method(&mut cf, "bump", "(I)V", a);

    let mut a = Asm::new(0);
    a.getstatic(xref).ret_val(Kind::Int);
    push_method(&mut cf, "get", "()I", a);

    let mut a = Asm::new(4);
    let top = a.new_label();
    let done = a.new_label();
    a.iload(0)
        .newarray(dvm_repro::bytecode::AKind::Int)
        .astore(2);
    a.iconst(0).istore(3);
    a.place(top);
    a.iload(3).iload(0).if_icmp(ICond::Ge, done);
    a.aload(2).iload(3);
    a.iload(3).iload(3).imul().getstatic(xref).iadd();
    a.array_store(dvm_repro::bytecode::AKind::Int);
    a.iinc(3, 1).goto(top);
    a.place(done);
    a.aload(2)
        .iload(1)
        .array_load(dvm_repro::bytecode::AKind::Int);
    a.ret_val(Kind::Int);
    push_method(&mut cf, "fill", "(II)I", a);
    cf
}

// ---- Service events ---------------------------------------------------------

struct Recorder {
    events: Arc<Mutex<Vec<String>>>,
}

impl DynamicServices for Recorder {
    fn security_check(&mut self, sid: i32, perm: i32) -> SecurityDecision {
        self.events
            .lock()
            .unwrap()
            .push(format!("check {sid} {perm}"));
        // Deny odd subject ids so both outcomes appear in the stream.
        if sid % 2 != 0 {
            SecurityDecision::Deny { cost_cycles: 11 }
        } else {
            SecurityDecision::Allow { cost_cycles: 7 }
        }
    }

    fn audit_event(&mut self, site: i32, kind: AuditKind) {
        self.events
            .lock()
            .unwrap()
            .push(format!("audit {site} {kind:?}"));
    }

    fn profile_count(&mut self, site: i32) {
        self.events.lock().unwrap().push(format!("count {site}"));
    }
}

/// `p/Svc.probe(sid)`: audit-enter, a security check against the given
/// subject, a profiler count, audit-exit, return 1. The lowered IR
/// carries these as `Service` instructions.
fn service_class(sites: &[i32]) -> ClassFile {
    let mut cf = ClassBuilder::new("p/Svc").build();
    let check = cf
        .pool
        .methodref("dvm/rt/Enforcer", "check", "(II)V")
        .unwrap();
    let enter = cf.pool.methodref("dvm/rt/Audit", "enter", "(I)V").unwrap();
    let exit = cf.pool.methodref("dvm/rt/Audit", "exit", "(I)V").unwrap();
    let count = cf
        .pool
        .methodref("dvm/rt/Profiler", "count", "(I)V")
        .unwrap();
    let mut a = Asm::new(1);
    for site in sites {
        a.iconst(*site).invokestatic(enter);
        a.iload(0).iconst(*site).invokestatic(check);
        a.iconst(*site).invokestatic(count);
        a.iconst(*site).invokestatic(exit);
    }
    a.iconst(1).ret_val(Kind::Int);
    push_method(&mut cf, "probe", "(I)I", a);
    cf
}

fn vm_services(cf: &ClassFile, events: Arc<Mutex<Vec<String>>>, ir: bool) -> Vm {
    let mut cf2 = cf.clone();
    let mut provider = MapProvider::new();
    provider.insert_class(&mut cf2).unwrap();
    let mut vm = Vm::with_services(Box::new(provider), Box::new(Recorder { events })).unwrap();
    if ir {
        let (class_ir, _) = compile_class(cf).unwrap();
        vm.install_ir(class_ir);
    }
    vm
}

// ---- Properties -------------------------------------------------------------

proptest! {
    /// Straight-line integer arithmetic (including division-by-zero
    /// paths): the IR tier returns the interpreter's value or throws
    /// the interpreter's exception.
    #[test]
    fn ir_matches_interpreter_on_random_arithmetic(
        steps in proptest::collection::vec(arb_step(), 1..24),
        seed in any::<i32>(),
    ) {
        let cf = arith_class(&steps);
        let mut interp = vm_interp(&cf);
        let mut tiered = vm_ir(&cf);
        let want = observe(&mut interp, "p/Arith", "run", "(I)I", vec![Value::Int(seed)]);
        let got = observe(&mut tiered, "p/Arith", "run", "(I)I", vec![Value::Int(seed)]);
        prop_assert_eq!(&got, &want, "steps {:?}", steps);
        prop_assert_eq!(interp.exec.stats.ir_invocations, 0);
        prop_assert!(tiered.exec.stats.ir_invocations >= 1, "method stayed interpreted");
    }

    /// Counted loops: accumulator loops with arbitrary bounds, strides,
    /// and deltas agree across tiers.
    #[test]
    fn ir_matches_interpreter_on_random_loops(
        n in 0..60i32,
        stride in 1..5i32,
        delta in -10..10i32,
    ) {
        let cf = loop_class(stride, delta);
        let mut interp = vm_interp(&cf);
        let mut tiered = vm_ir(&cf);
        let want = observe(&mut interp, "p/Loop", "sum", "(I)I", vec![Value::Int(n)]);
        let got = observe(&mut tiered, "p/Loop", "sum", "(I)I", vec![Value::Int(n)]);
        prop_assert_eq!(got, want);
        prop_assert!(tiered.exec.stats.ir_invocations >= 1);
    }

    /// Heap effects: any sequence of static-field bumps and array
    /// fills leaves both tiers observing the same heap.
    #[test]
    fn ir_matches_interpreter_on_heap_effects(
        bumps in proptest::collection::vec(-100..100i32, 1..12),
        n in 1..20i32,
        k in 0..20i32,
    ) {
        let k = k.min(n - 1);
        let cf = heap_class();
        let mut interp = vm_interp(&cf);
        let mut tiered = vm_ir(&cf);
        for vm in [&mut interp, &mut tiered] {
            for v in &bumps {
                vm.run_static("p/Heap", "bump", "(I)V", vec![Value::Int(*v)]).unwrap();
            }
        }
        let want_x = observe(&mut interp, "p/Heap", "get", "()I", vec![]);
        let got_x = observe(&mut tiered, "p/Heap", "get", "()I", vec![]);
        prop_assert_eq!(got_x, want_x);
        let want_a = observe(&mut interp, "p/Heap", "fill", "(II)I",
            vec![Value::Int(n), Value::Int(k)]);
        let got_a = observe(&mut tiered, "p/Heap", "fill", "(II)I",
            vec![Value::Int(n), Value::Int(k)]);
        prop_assert_eq!(got_a, want_a);
        prop_assert!(tiered.exec.stats.ir_invocations >= 1);
    }

    /// Service streams: audit, profiling, and security events reach the
    /// hooks in the same order with the same operands on both tiers —
    /// including the denial path's SecurityException.
    #[test]
    fn ir_matches_interpreter_on_service_events(
        sites in proptest::collection::vec(0..50i32, 1..8),
        sid in 0..8i32,
    ) {
        let cf = service_class(&sites);
        let interp_events = Arc::new(Mutex::new(Vec::new()));
        let tiered_events = Arc::new(Mutex::new(Vec::new()));
        let mut interp = vm_services(&cf, interp_events.clone(), false);
        let mut tiered = vm_services(&cf, tiered_events.clone(), true);
        let want = observe(&mut interp, "p/Svc", "probe", "(I)I", vec![Value::Int(sid)]);
        let got = observe(&mut tiered, "p/Svc", "probe", "(I)I", vec![Value::Int(sid)]);
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            tiered_events.lock().unwrap().clone(),
            interp_events.lock().unwrap().clone()
        );
        prop_assert!(tiered.exec.stats.ir_invocations >= 1);
    }

    /// The pass pipeline stops at a fixpoint on random arithmetic and
    /// loop bodies: optimizing its output again changes nothing.
    #[test]
    fn optimize_is_a_fixpoint(
        steps in proptest::collection::vec(arb_step(), 1..24),
        stride in 1..5i32,
        delta in -10..10i32,
    ) {
        assert_optimized_is_fixpoint(&arith_class(&steps))?;
        assert_optimized_is_fixpoint(&loop_class(stride, delta))?;
    }

    /// Lowered IR round-trips through the wire format exactly.
    #[test]
    fn packages_round_trip(
        steps in proptest::collection::vec(arb_step(), 1..24),
    ) {
        let cf = arith_class(&steps);
        let (ir, _) = compile_class(&cf).unwrap();
        let decoded = decode(&encode(&ir)).unwrap();
        prop_assert_eq!(decoded, ir);
    }

    /// Arbitrary bytes never panic the package decoder: corrupt cache
    /// entries and hostile peers get a typed error.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        if let Err(e) = decode(&bytes) {
            prop_assert!(matches!(e, ExecError::BadPackage(_)), "{e:?}");
        }
    }

    /// Arbitrary bytes behind a valid magic/version prefix never panic.
    #[test]
    fn decoder_never_panics_with_magic(tail in proptest::collection::vec(any::<u8>(), 0..600)) {
        let mut bytes = b"DVMX\x01".to_vec();
        bytes.extend(tail);
        if let Err(e) = decode(&bytes) {
            prop_assert!(matches!(e, ExecError::BadPackage(_)), "{e:?}");
        }
    }

    /// Arbitrary code arrays never panic the lowering pass: whatever
    /// the bytecode decoder accepts, `lower` either compiles or
    /// declines with a typed error.
    #[test]
    fn lowering_never_panics(code in proptest::collection::vec(any::<u8>(), 0..200)) {
        let attr = CodeAttribute {
            max_stack: 10,
            max_locals: 10,
            code,
            exception_table: vec![],
            attributes: vec![],
        };
        let pool = dvm_repro::classfile::pool::ConstPool::new();
        if let Ok(decoded) = dvm_repro::bytecode::Code::decode(&attr) {
            let _ = lower(&decoded, &pool, "fuzz", "()V");
        }
    }
}

// ---- Corpus replay ----------------------------------------------------------

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/exec")
}

/// Replays every hostile package in `tests/corpus/exec/` against the
/// IR decoder through the shared `dvm_fuzz::corpus` loader. Each
/// entry carries `# expect: reject` and must be rejected with a typed
/// `ExecError::BadPackage` — never accepted, never a panic.
#[test]
fn corpus_packages_are_rejected_without_panicking() {
    let entries = dvm_repro::fuzz::corpus::load_dir(corpus_dir());
    assert!(!entries.is_empty(), "corpus directory has no .hex entries");
    for entry in &entries {
        let name = &entry.name;
        assert_eq!(
            entry.annotation("expect"),
            Some("reject"),
            "{name}: missing or unexpected '# expect:' annotation"
        );
        match decode(&entry.bytes) {
            Err(ExecError::BadPackage(_)) => {}
            other => panic!("{name}: expected BadPackage, got {other:?}"),
        }
    }
}

/// Writes the corpus through the shared `dvm_fuzz::corpus` renderer.
/// Every entry is one hostile DVMX package annotated `# expect:
/// reject`. Run with `-- --ignored` after a format change, then review
/// the diff — an entry that stops being rejected is a decoder break,
/// not a refresh.
#[test]
#[ignore = "regenerates tests/corpus/exec/*.hex"]
fn regenerate_exec_corpus() {
    let dir = corpus_dir();

    /// `"DVMX"` magic plus the current version byte.
    fn header() -> Vec<u8> {
        vec![0x44, 0x56, 0x4D, 0x58, 0x01]
    }
    /// Header plus class name `"t/C"`.
    fn class() -> Vec<u8> {
        let mut v = header();
        v.extend_from_slice(&[0x00, 0x03]);
        v.extend_from_slice(b"t/C");
        v
    }
    /// One-method package: name `"m"`, descriptor `"()V"`, the given
    /// frame shape, instruction bytes, and handler bytes.
    fn method(
        max_locals: u16,
        num_regs: u16,
        insn_count: u32,
        insns: &[u8],
        handlers: &[u8],
    ) -> Vec<u8> {
        let mut v = class();
        v.extend_from_slice(&[0x00, 0x01]); // one method
        v.extend_from_slice(&[0x00, 0x01]);
        v.push(b'm');
        v.extend_from_slice(&[0x00, 0x03]);
        v.extend_from_slice(b"()V");
        v.extend_from_slice(&max_locals.to_be_bytes());
        v.extend_from_slice(&num_regs.to_be_bytes());
        v.extend_from_slice(&insn_count.to_be_bytes());
        v.extend_from_slice(insns);
        v.extend_from_slice(handlers);
        v
    }
    const NO_HANDLERS: &[u8] = &[0x00, 0x00];

    let dump = |name: &str, note: &str, bytes: &[u8]| {
        dvm_repro::fuzz::corpus::write_entry(&dir, name, note, &[("expect", "reject")], bytes);
    };

    dump(
        "bad-constant-tag.hex",
        "Const instruction with constant tag 9 (valid tags are 0-5).\n\
         Expect ExecError::BadPackage(\"bad constant tag 9\").",
        &method(1, 2, 1, &[0x01, 0x00, 0x01, 0x09], NO_HANDLERS),
    );
    dump(
        "bad-magic.hex",
        "Magic reads \"DVMY\", not \"DVMX\".\n\
         Expect ExecError::BadPackage(\"bad magic\").",
        &[0x44, 0x56, 0x4D, 0x59, 0x01],
    );
    dump(
        "bad-version.hex",
        "Valid magic, version byte 0x63 (99) names no format revision.\n\
         Expect ExecError::BadPackage(\"unsupported version 99\").",
        &[0x44, 0x56, 0x4D, 0x58, 0x63],
    );
    dump(
        "branch-target-out-of-range.hex",
        "Goto targets instruction 9 of a 1-instruction body.\n\
         Expect ExecError::BadPackage(\"branch target 9 out of 1\").",
        &method(1, 2, 1, &[0x0E, 0x00, 0x00, 0x00, 0x09], NO_HANDLERS),
    );
    dump(
        "class-name-overrun.hex",
        "Class-name length claims 32 bytes but only two follow.\n\
         Expect ExecError::BadPackage (truncated).",
        &{
            let mut v = header();
            v.extend_from_slice(&[0x00, 0x20]);
            v.extend_from_slice(b"t/");
            v
        },
    );
    dump(
        "handler-out-of-bounds.hex",
        "Exception handler covers the empty range [0, 0).\n\
         Expect ExecError::BadPackage(\"handler range out of bounds\").",
        &method(
            1,
            2,
            1,
            &[0x11, 0x00],
            &[
                0x00, 0x01, // one handler
                0x00, 0x00, 0x00, 0x00, // start 0
                0x00, 0x00, 0x00, 0x00, // end 0 (start >= end)
                0x00, 0x00, 0x00, 0x00, // handler 0
                0x00, 0x00, // catch_type 0
            ],
        ),
    );
    dump(
        "max-locals-exceed-regs.hex",
        "max_locals 5 in a 2-register frame: arguments could not be\n\
         received. Expect ExecError::BadPackage(\"max_locals exceeds\n\
         num_regs\").",
        &method(5, 2, 1, &[0x11, 0x00], NO_HANDLERS),
    );
    dump(
        "oversized-body.hex",
        "Instruction count 0x00200001 exceeds the decoder's MAX_ITEMS cap;\n\
         the length field must be rejected before any allocation.\n\
         Expect ExecError::BadPackage(\"oversized method body\").",
        &method(1, 2, 0x0020_0001, &[], &[]),
    );
    dump(
        "register-out-of-range.hex",
        "Move writes register 255 in a 2-register frame; post-decode\n\
         validation must refuse to install it.\n\
         Expect ExecError::BadPackage(\"register 255 out of 2\").",
        &method(1, 2, 1, &[0x02, 0x00, 0xFF, 0x00, 0x00], NO_HANDLERS),
    );
    dump(
        "trailing-bytes.hex",
        "A well-formed empty package followed by one stray byte.\n\
         Expect ExecError::BadPackage(\"trailing bytes\").",
        &{
            let mut v = class();
            v.extend_from_slice(&[0x00, 0x00]); // no methods
            v.push(0xFF);
            v
        },
    );
    dump(
        "truncated-magic.hex",
        "Three bytes of magic; the package ends mid-header.\n\
         Expect ExecError::BadPackage (truncated).",
        &[0x44, 0x56, 0x4D],
    );
    dump(
        "unknown-insn-tag.hex",
        "A one-instruction body whose tag (0xEE) names no IR instruction.\n\
         Expect ExecError::BadPackage(\"bad instruction tag 238\").",
        &method(1, 2, 1, &[0xEE], &[]),
    );
    dump(
        "zero-length.hex",
        "The empty package: not even a magic number.\n\
         Expect ExecError::BadPackage (truncated).",
        &[],
    );
}
