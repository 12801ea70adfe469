//! Cross-tier execution tests: compile classes to register IR with
//! `dvm-exec`, install the IR into a live VM, and prove the optimizing
//! tier (a) produces the same observable results as the interpreter,
//! (b) dispatches across tier boundaries in both directions, and
//! (c) routes service intrinsics to the same hooks.

use std::sync::{Arc, Mutex};

use dvm_bytecode::asm::Asm;
use dvm_bytecode::insn::{ICond, Kind};
use dvm_bytecode::{ArithOp, NumKind};
use dvm_classfile::{AccessFlags, ClassBuilder, ClassFile, CodeAttribute};
use dvm_exec::{compile_class, RInsn};
use dvm_jvm::{AuditKind, Completion, DynamicServices, MapProvider, SecurityDecision, Value, Vm};

fn ps() -> AccessFlags {
    AccessFlags::PUBLIC | AccessFlags::STATIC
}

fn code(cf: &ClassFile, a: Asm) -> CodeAttribute {
    a.finish().unwrap().encode(&cf.pool).unwrap()
}

fn push_method(cf: &mut ClassFile, method: &str, descriptor: &str, a: Asm) {
    let attr = code(cf, a);
    let name_index = cf.pool.utf8(method).unwrap();
    let desc_index = cf.pool.utf8(descriptor).unwrap();
    cf.methods.push(dvm_classfile::MemberInfo {
        access: ps(),
        name_index,
        descriptor_index: desc_index,
        attributes: vec![dvm_classfile::Attribute::Code(attr)],
    });
}

fn single_method_class(
    name: &str,
    method: &str,
    descriptor: &str,
    build: impl FnOnce(&mut dvm_classfile::ConstPool, &mut Asm),
) -> ClassFile {
    let mut cf = ClassBuilder::new(name).build();
    let mut a = Asm::new(8);
    build(&mut cf.pool, &mut a);
    push_method(&mut cf, method, descriptor, a);
    cf
}

fn vm_for(cf: &ClassFile) -> Vm {
    let mut cf = cf.clone();
    let mut provider = MapProvider::new();
    provider.insert_class(&mut cf).unwrap();
    Vm::new(Box::new(provider)).unwrap()
}

/// A VM with the class's optimized IR pre-installed (before first load,
/// exercising the pending-bind path).
fn vm_with_ir(cf: &ClassFile) -> Vm {
    let mut vm = vm_for(cf);
    let (ir, _) = compile_class(cf).unwrap();
    vm.install_ir(ir);
    vm
}

fn int_of(c: Completion) -> i32 {
    match c {
        Completion::Normal(Some(Value::Int(v))) => v,
        other => panic!("expected int result, got {other:?}"),
    }
}

fn loop_class() -> ClassFile {
    // sum = 0; for i in 0..n { sum += i }; return sum
    single_method_class("t/Loop", "sum", "(I)I", |_pool, a| {
        let top = a.new_label();
        let done = a.new_label();
        a.iconst(0).istore(1);
        a.iconst(0).istore(2);
        a.place(top);
        a.iload(2).iload(0).if_icmp(ICond::Ge, done);
        a.iload(1).iload(2).iadd().istore(1);
        a.iinc(2, 1).goto(top);
        a.place(done);
        a.iload(1).ret_val(Kind::Int);
    })
}

#[test]
fn compiled_loop_runs_on_the_ir_tier() {
    let cf = loop_class();
    let mut vm = vm_with_ir(&cf);
    let out = vm
        .run_static("t/Loop", "sum", "(I)I", vec![Value::Int(10)])
        .unwrap();
    assert_eq!(int_of(out), 45);
    assert_eq!(vm.exec.stats.ir_invocations, 1);
    assert_eq!(vm.exec.stats.interp_invocations, 0);
    assert_eq!(vm.exec.stats.installed_classes, 1);
    assert!(vm.exec.stats.installed_methods >= 1);
}

#[test]
fn optimized_ir_consumes_fewer_cycles_than_the_interpreter() {
    // (2 + 3) * 4 - 5: entirely constant-foldable, so the optimized IR
    // collapses the arithmetic that the interpreter performs at runtime.
    let cf = single_method_class("t/Fold", "k", "()I", |_pool, a| {
        a.iconst(2)
            .iconst(3)
            .iadd()
            .iconst(4)
            .imul()
            .iconst(5)
            .isub()
            .ret_val(Kind::Int);
    });

    let mut interp = vm_for(&cf);
    let a = int_of(interp.run_static("t/Fold", "k", "()I", vec![]).unwrap());

    let mut tiered = vm_with_ir(&cf);
    let b = int_of(tiered.run_static("t/Fold", "k", "()I", vec![]).unwrap());

    assert_eq!(a, 15);
    assert_eq!(a, b);
    assert!(
        tiered.stats.cycles < interp.stats.cycles,
        "optimized IR should be cheaper: {} vs {}",
        tiered.stats.cycles,
        interp.stats.cycles
    );
}

#[test]
fn compiled_recursion_stays_on_the_ir_tier() {
    let mut cf = ClassBuilder::new("t/Fib").build();
    let m = cf.pool.methodref("t/Fib", "fib", "(I)I").unwrap();
    let mut a = Asm::new(1);
    let base = a.new_label();
    a.iload(0).iconst(2).if_icmp(ICond::Lt, base);
    a.iload(0).iconst(1).isub().invokestatic(m);
    a.iload(0).iconst(2).isub().invokestatic(m);
    a.iadd().ret_val(Kind::Int);
    a.place(base);
    a.iload(0).ret_val(Kind::Int);
    push_method(&mut cf, "fib", "(I)I", a);

    let mut vm = vm_with_ir(&cf);
    let out = vm
        .run_static("t/Fib", "fib", "(I)I", vec![Value::Int(15)])
        .unwrap();
    assert_eq!(int_of(out), 610);
    assert!(
        vm.exec.stats.ir_invocations > 10,
        "recursive calls stay on tier"
    );
    assert_eq!(vm.exec.stats.interp_invocations, 0);
}

/// t/Mix: `main(n) = helper(n) + 1`, `helper(n) = n * 2`.
fn mix_class() -> ClassFile {
    let mut cf = ClassBuilder::new("t/Mix").build();
    let helper = cf.pool.methodref("t/Mix", "helper", "(I)I").unwrap();
    let mut a = Asm::new(1);
    a.iload(0)
        .invokestatic(helper)
        .iconst(1)
        .iadd()
        .ret_val(Kind::Int);
    push_method(&mut cf, "main", "(I)I", a);
    let mut a = Asm::new(1);
    a.iload(0).iconst(2).imul().ret_val(Kind::Int);
    push_method(&mut cf, "helper", "(I)I", a);
    cf
}

fn vm_with_partial_ir(cf: &ClassFile, keep: &str) -> Vm {
    let mut vm = vm_for(cf);
    let (mut ir, _) = compile_class(cf).unwrap();
    ir.methods.retain(|f| f.name == keep);
    assert_eq!(ir.methods.len(), 1);
    vm.install_ir(ir);
    vm
}

#[test]
fn compiled_caller_falls_back_to_interpreter_for_uncompiled_callee() {
    let cf = mix_class();
    let mut vm = vm_with_partial_ir(&cf, "main");
    let out = vm
        .run_static("t/Mix", "main", "(I)I", vec![Value::Int(21)])
        .unwrap();
    assert_eq!(int_of(out), 43);
    assert_eq!(vm.exec.stats.ir_invocations, 1, "main ran on IR");
    assert_eq!(vm.exec.stats.interp_invocations, 1, "helper fell back");
}

#[test]
fn interpreted_caller_dispatches_into_compiled_callee() {
    let cf = mix_class();
    let mut vm = vm_with_partial_ir(&cf, "helper");
    let out = vm
        .run_static("t/Mix", "main", "(I)I", vec![Value::Int(21)])
        .unwrap();
    assert_eq!(int_of(out), 43);
    assert_eq!(vm.exec.stats.ir_invocations, 1, "helper ran on IR");
    // `main` itself executed interpreted (the entry frame).
    assert_eq!(vm.exec.stats.interp_invocations, 1);
}

#[test]
fn compiled_handler_catches_division_by_zero() {
    let mut cf = ClassBuilder::new("t/Div").build();
    let exc = cf.pool.class("java/lang/ArithmeticException").unwrap();
    let mut a = Asm::new(1);
    let start = a.new_label();
    let end = a.new_label();
    let handler = a.new_label();
    a.place(start);
    a.iconst(1).iload(0).arith(NumKind::Int, ArithOp::Div);
    a.place(end);
    a.ret_val(Kind::Int);
    a.place(handler);
    a.pop();
    a.iconst(-1).ret_val(Kind::Int);
    a.handler(start, end, handler, exc);
    push_method(&mut cf, "div", "(I)I", a);

    let mut vm = vm_with_ir(&cf);
    let caught = vm
        .run_static("t/Div", "div", "(I)I", vec![Value::Int(0)])
        .unwrap();
    assert_eq!(int_of(caught), -1);
    let fine = vm
        .run_static("t/Div", "div", "(I)I", vec![Value::Int(3)])
        .unwrap();
    assert_eq!(int_of(fine), 0);
    assert_eq!(vm.exec.stats.ir_invocations, 2);
}

#[test]
fn uncaught_exception_escapes_compiled_code_with_interpreter_message() {
    let cf = single_method_class("t/Boom", "div", "(I)I", |_pool, a| {
        a.iconst(1)
            .iload(0)
            .arith(NumKind::Int, ArithOp::Div)
            .ret_val(Kind::Int);
    });
    let mut vm = vm_with_ir(&cf);
    match vm
        .run_static("t/Boom", "div", "(I)I", vec![Value::Int(0)])
        .unwrap()
    {
        Completion::Exception(e) => {
            let (class, msg) = vm.exception_message(e).unwrap();
            assert_eq!(class, "java/lang/ArithmeticException");
            assert_eq!(msg, "/ by zero");
        }
        other => panic!("expected exception, got {other:?}"),
    }
    assert_eq!(vm.exec.stats.ir_invocations, 1);
}

// ---- Service intrinsics ------------------------------------------------

/// Records every hook call and denies odd permissions.
#[derive(Default)]
struct Recorder {
    events: Arc<Mutex<Vec<String>>>,
}

impl DynamicServices for Recorder {
    fn security_check(&mut self, perm: i32) -> SecurityDecision {
        self.events.lock().unwrap().push(format!("check {perm}"));
        if perm % 2 != 0 {
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

    fn first_use(&mut self, site: i32) {
        self.events.lock().unwrap().push(format!("first {site}"));
    }
}

/// t/Svc.poke()I: Enforcer.check(perm); Audit.enter(5); Profiler.count(6);
/// return 7 — the shape the rewriter injects into served classes.
fn service_class(perm: i32) -> ClassFile {
    let mut cf = ClassBuilder::new("t/Svc").build();
    let check = cf
        .pool
        .methodref("dvm/rt/Enforcer", "check", "(I)V")
        .unwrap();
    let enter = cf.pool.methodref("dvm/rt/Audit", "enter", "(I)V").unwrap();
    let count = cf
        .pool
        .methodref("dvm/rt/Profiler", "count", "(I)V")
        .unwrap();
    let mut a = Asm::new(1);
    a.iconst(perm).invokestatic(check);
    a.iconst(5).invokestatic(enter);
    a.iconst(6).invokestatic(count);
    a.iconst(7).ret_val(Kind::Int);
    push_method(&mut cf, "poke", "()I", a);
    cf
}

fn vm_with_services(cf: &ClassFile, services: Recorder) -> Vm {
    let mut cf2 = cf.clone();
    let mut provider = MapProvider::new();
    provider.insert_class(&mut cf2).unwrap();
    let mut vm = Vm::with_services(Box::new(provider), Box::new(services)).unwrap();
    let (ir, _) = compile_class(cf).unwrap();
    // The pass pipeline must have inlined every injected service call.
    let poke = ir.methods.iter().find(|f| f.name == "poke").unwrap();
    assert!(
        poke.insns
            .iter()
            .any(|i| matches!(i, RInsn::Service { .. })),
        "service calls should be inlined as intrinsics"
    );
    assert!(
        !poke.insns.iter().any(|i| matches!(i, RInsn::Invoke { .. })),
        "no residual invokes expected"
    );
    vm.install_ir(ir);
    vm
}

#[test]
fn service_intrinsics_reach_hooks_from_compiled_code() {
    let cf = service_class(4);
    let events = Arc::new(Mutex::new(Vec::new()));
    let rec = Recorder {
        events: events.clone(),
    };
    let mut vm = vm_with_services(&cf, rec);
    let out = vm.run_static("t/Svc", "poke", "()I", vec![]).unwrap();
    assert_eq!(int_of(out), 7);
    assert_eq!(
        *events.lock().unwrap(),
        vec!["check 4", "audit 5 Enter", "count 6"]
    );
    assert_eq!(vm.stats.security_checks, 1);
    assert_eq!(vm.exec.stats.ir_invocations, 1);
}

#[test]
fn denied_check_throws_security_exception_from_compiled_code() {
    let cf = service_class(3);
    let denial = |ir: bool| {
        let events = Arc::new(Mutex::new(Vec::new()));
        let rec = Recorder {
            events: events.clone(),
        };
        let mut vm = if ir {
            vm_with_services(&cf, rec)
        } else {
            let mut cf = cf.clone();
            let mut provider = MapProvider::new();
            provider.insert_class(&mut cf).unwrap();
            Vm::with_services(Box::new(provider), Box::new(rec)).unwrap()
        };
        let thrown = match vm.run_static("t/Svc", "poke", "()I", vec![]).unwrap() {
            Completion::Exception(e) => vm.exception_message(e).unwrap(),
            other => panic!("expected exception, got {other:?}"),
        };
        assert_eq!(vm.exec.stats.ir_invocations, u64::from(ir));
        // The deny happened at the first check; nothing after it ran.
        assert_eq!(*events.lock().unwrap(), vec!["check 3"]);
        thrown
    };
    let compiled = denial(true);
    assert_eq!(
        compiled,
        (
            "java/lang/SecurityException".to_owned(),
            "permission 3 denied".to_owned()
        )
    );
    assert_eq!(
        compiled,
        denial(false),
        "both tiers raise the same exception"
    );
}

#[test]
fn late_install_rebinds_a_loaded_class() {
    let cf = loop_class();
    let mut vm = vm_for(&cf);
    let first = vm
        .run_static("t/Loop", "sum", "(I)I", vec![Value::Int(10)])
        .unwrap();
    assert_eq!(int_of(first), 45);
    assert_eq!(vm.exec.stats.ir_invocations, 0);

    // Install after the class is linked: binds immediately, and the next
    // dispatch prefers the compiled tier.
    let (ir, _) = compile_class(&cf).unwrap();
    vm.install_ir(ir);
    assert!(vm.exec.stats.installed_methods >= 1);
    let second = vm
        .run_static("t/Loop", "sum", "(I)I", vec![Value::Int(10)])
        .unwrap();
    assert_eq!(int_of(second), 45);
    assert_eq!(vm.exec.stats.ir_invocations, 1);
}
