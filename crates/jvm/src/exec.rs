//! The optimizing execution tier: runs `dvm-exec` register IR.
//!
//! The proxy's compiler stage lowers rewritten classes into the register
//! IR defined by `dvm-exec`; this module is the client half — it keeps
//! compiled functions per `(class, method)` ([`ExecTier`]) and executes
//! them with a direct dispatch loop over registers instead of an operand
//! stack. Every observable behavior (heap effects, exception classes and
//! messages, service callbacks, class-initialization order) mirrors the
//! interpreter in [`crate::interp`] exactly; only the per-instruction
//! accounting differs, which is the whole point of the tier.
//!
//! Methods the lowering declined stay on the interpreter, and calls from
//! compiled code into uncompiled code (and vice versa) cross tiers
//! transparently. When compiled code can trigger a garbage collection —
//! at allocation sites and around every call-out — the activation's live
//! references are published to [`Vm::exec_roots`] so the collector sees
//! them alongside the interpreter's frames.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dvm_bytecode::insn::{AKind, ArithOp, LogicOp, NumKind, NumType, ShiftOp};
use dvm_exec::{ClassIr, CmpKind, Function, InvokeKind, RConst, RInsn, SOp, ServiceKind, VReg};

use crate::classes::InitState;
use crate::error::{Result, VmError};
use crate::heap::{ArrayData, ClassId, HeapObject, HeapRef};
use crate::hooks::{AuditKind, SecurityDecision};
use crate::interp::{self, Completion};
use crate::natives::NativeResult;
use crate::value::Value;
use crate::vm::Vm;

/// Maximum depth of nested IR activations (each one is a native stack
/// frame, unlike the interpreter's heap-allocated frame vector).
pub const MAX_EXEC_DEPTH: usize = 512;

/// Per-tier dispatch counters and installation bookkeeping.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Method activations executed on the compiled-IR tier.
    pub ir_invocations: u64,
    /// Method activations executed on the interpreter tier.
    pub interp_invocations: u64,
    /// Classes for which at least one compiled method was installed.
    pub installed_classes: u64,
    /// Compiled methods installed and eligible for IR dispatch.
    pub installed_methods: u64,
}

/// The client-resident store of compiled code.
///
/// Compiled classes arrive asynchronously (the DVM client fetches them
/// from the proxy's rewrite cache next to the class bytes), so the
/// tier keeps a *pending* map keyed by class name that providers can
/// feed through [`ExecTier::offer`] or a shared [`ExecTier::pending_handle`];
/// when the VM links a class it drains the entry and binds each function
/// to its resolved method index.
pub struct ExecTier {
    pending: Arc<Mutex<HashMap<String, ClassIr>>>,
    funcs: HashMap<(ClassId, usize), Arc<Function>>,
    pub(crate) depth: usize,
    /// Tier statistics.
    pub stats: ExecStats,
}

impl std::fmt::Debug for ExecTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecTier")
            .field("installed", &self.funcs.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for ExecTier {
    fn default() -> ExecTier {
        ExecTier::new()
    }
}

impl ExecTier {
    /// Creates an empty tier.
    pub fn new() -> ExecTier {
        ExecTier {
            pending: Arc::new(Mutex::new(HashMap::new())),
            funcs: HashMap::new(),
            depth: 0,
            stats: ExecStats::default(),
        }
    }

    /// Returns the shared pending map so a class provider can deposit
    /// compiled IR as it fetches classes.
    pub fn pending_handle(&self) -> Arc<Mutex<HashMap<String, ClassIr>>> {
        Arc::clone(&self.pending)
    }

    /// Deposits compiled IR for a class that may not be linked yet.
    pub fn offer(&self, ir: ClassIr) {
        self.pending.lock().insert(ir.class.clone(), ir);
    }

    /// Replaces the pending map with an externally owned one, keeping
    /// anything already offered. A class provider that fetches IR
    /// packages alongside classes shares its map this way: packages it
    /// deposits mid-load are bound the moment the class finishes
    /// linking.
    pub fn adopt_pending(&mut self, handle: Arc<Mutex<HashMap<String, ClassIr>>>) {
        {
            let mut shared = handle.lock();
            for (name, ir) in self.pending.lock().drain() {
                shared.entry(name).or_insert(ir);
            }
        }
        self.pending = handle;
    }

    pub(crate) fn take_pending(&self, name: &str) -> Option<ClassIr> {
        self.pending.lock().remove(name)
    }

    /// Returns `true` when `(class, method)` has compiled code installed.
    pub fn installed(&self, class: ClassId, method: usize) -> bool {
        self.funcs.contains_key(&(class, method))
    }

    /// Number of compiled methods currently installed.
    pub fn installed_methods(&self) -> usize {
        self.funcs.len()
    }

    pub(crate) fn get(&self, class: ClassId, method: usize) -> Option<Arc<Function>> {
        self.funcs.get(&(class, method)).cloned()
    }

    pub(crate) fn install(&mut self, class: ClassId, method: usize, func: Function) {
        self.funcs.insert((class, method), Arc::new(func));
        self.stats.installed_methods += 1;
    }
}

/// What the dispatch loop should do after one instruction.
enum Flow {
    Next,
    Jump(usize),
    Throw(HeapRef),
    Ret(Option<Value>),
}

/// Simulated cycle cost of one IR instruction. Mirrors
/// [`interp::insn_cost`] for equivalent operations; the wins come from
/// the instructions the optimizer removed and from [`RInsn::Service`]
/// intrinsics, which cost 2 cycles instead of a 12-cycle `invokestatic`
/// dispatch into a native stub.
pub fn ir_cost(insn: &RInsn) -> u64 {
    match insn {
        RInsn::New { .. } => 24,
        RInsn::NewArray { .. } | RInsn::ANewArray { .. } => 20,
        RInsn::Invoke {
            kind: InvokeKind::Virtual | InvokeKind::Interface,
            ..
        } => 14,
        RInsn::Invoke { .. } => 12,
        RInsn::GetStatic { .. }
        | RInsn::PutStatic { .. }
        | RInsn::GetField { .. }
        | RInsn::PutField { .. } => 3,
        RInsn::ArrayLoad { .. } | RInsn::ArrayStore { .. } => 2,
        RInsn::Arith {
            kind: NumKind::Int | NumKind::Long,
            op: ArithOp::Div | ArithOp::Rem,
            ..
        } => 8,
        RInsn::Arith {
            kind: NumKind::Float | NumKind::Double,
            ..
        } => 2,
        RInsn::Const {
            v: RConst::Str(_), ..
        } => 2,
        RInsn::TableSwitch { .. } | RInsn::LookupSwitch { .. } => 4,
        RInsn::Monitor { .. } => 8,
        RInsn::AThrow { .. } => 30,
        RInsn::CheckCast { .. } | RInsn::InstanceOf { .. } => 4,
        RInsn::Service { .. } => 2,
        _ => 1,
    }
}

/// Executes the compiled function installed for `(class, method)`.
///
/// `args` use the interpreter's calling convention: one [`Value`] per
/// argument value (receiver first for instance methods); the executor
/// spreads them over the local-slot registers, padding wide values.
pub fn run_ir(vm: &mut Vm, class: ClassId, method: usize, args: Vec<Value>) -> Result<Completion> {
    let Some(func) = vm.exec.get(class, method) else {
        return Err(VmError::BadCode("method has no compiled code".into()));
    };
    if vm.exec.depth >= MAX_EXEC_DEPTH {
        return Err(VmError::StackOverflow);
    }
    vm.exec.depth += 1;
    vm.exec.stats.ir_invocations += 1;
    let base = vm.exec_roots.len();
    let result = exec_func(vm, class, &func, args, base);
    vm.exec_roots.truncate(base);
    vm.exec.depth -= 1;
    result
}

fn exec_func(
    vm: &mut Vm,
    class: ClassId,
    func: &Function,
    args: Vec<Value>,
    base: usize,
) -> Result<Completion> {
    let mut regs = vec![Value::Invalid; func.num_regs as usize];
    // Arguments land at their local-*slot* offsets, exactly like the
    // interpreter's make_frame: a wide argument occupies one register
    // but advances the slot cursor by two.
    let mut slot = 0usize;
    for v in args {
        let wide = v.is_wide();
        if slot >= regs.len() {
            return Err(VmError::BadCode(
                "argument slots exceed compiled register file".into(),
            ));
        }
        regs[slot] = v;
        slot += if wide { 2 } else { 1 };
    }
    let mut pc = 0usize;
    loop {
        let Some(insn) = func.insns.get(pc) else {
            return Err(VmError::BadCode("fell off the end of a method".into()));
        };
        if let Some(fuel) = vm.fuel.as_mut() {
            if *fuel == 0 {
                return Err(VmError::OutOfFuel);
            }
            *fuel -= 1;
        }
        vm.stats.instructions += 1;
        vm.stats.cycles += ir_cost(insn);
        match step_ir(vm, class, &mut regs, insn, base)? {
            Flow::Next => pc += 1,
            Flow::Jump(t) => pc = t,
            Flow::Ret(v) => return Ok(Completion::Normal(v)),
            Flow::Throw(exc) => match dispatch_handler(vm, class, func, &mut regs, pc, exc)? {
                Some(h) => pc = h,
                None => return Ok(Completion::Exception(exc)),
            },
        }
    }
}

/// Finds a matching handler for `exc` at `pc`, depositing the exception
/// in the stack-depth-0 register (the IR unwinding contract).
fn dispatch_handler(
    vm: &mut Vm,
    class: ClassId,
    func: &Function,
    regs: &mut [Value],
    pc: usize,
    exc: HeapRef,
) -> Result<Option<usize>> {
    let exc_class = vm.class_of(exc)?;
    for h in &func.handlers {
        if pc < h.start || pc >= h.end {
            continue;
        }
        let matched = if h.catch_type == 0 {
            true
        } else {
            let catch_name = {
                let rc = vm.registry.get(class);
                rc.pool.get_class_name(h.catch_type)?.to_owned()
            };
            let catch_id = vm.load_class(&catch_name)?;
            vm.registry.is_subtype(exc_class, catch_id)
        };
        if matched {
            wr(regs, VReg(func.max_locals), Value::Ref(Some(exc)))?;
            return Ok(Some(h.handler));
        }
    }
    Ok(None)
}

// ---- Register helpers -------------------------------------------------------

fn rd(regs: &[Value], r: VReg) -> Result<Value> {
    regs.get(r.0 as usize)
        .copied()
        .ok_or_else(|| VmError::BadCode(format!("register {} out of range", r.0)))
}

fn wr(regs: &mut [Value], r: VReg, v: Value) -> Result<()> {
    match regs.get_mut(r.0 as usize) {
        Some(slot) => {
            *slot = v;
            Ok(())
        }
        None => Err(VmError::BadCode(format!("register {} out of range", r.0))),
    }
}

fn want_int(v: Value) -> Result<i32> {
    match v {
        Value::Int(x) => Ok(x),
        other => Err(VmError::BadCode(format!("expected int, got {other:?}"))),
    }
}

fn want_long(v: Value) -> Result<i64> {
    match v {
        Value::Long(x) => Ok(x),
        other => Err(VmError::BadCode(format!("expected long, got {other:?}"))),
    }
}

fn want_float(v: Value) -> Result<f32> {
    match v {
        Value::Float(x) => Ok(x),
        other => Err(VmError::BadCode(format!("expected float, got {other:?}"))),
    }
}

fn want_double(v: Value) -> Result<f64> {
    match v {
        Value::Double(x) => Ok(x),
        other => Err(VmError::BadCode(format!("expected double, got {other:?}"))),
    }
}

fn want_ref(v: Value) -> Result<Option<HeapRef>> {
    match v {
        Value::Ref(r) => Ok(r),
        other => Err(VmError::BadCode(format!(
            "expected reference, got {other:?}"
        ))),
    }
}

fn rd_int(regs: &[Value], r: VReg) -> Result<i32> {
    want_int(rd(regs, r)?)
}

fn rd_long(regs: &[Value], r: VReg) -> Result<i64> {
    want_long(rd(regs, r)?)
}

fn rd_float(regs: &[Value], r: VReg) -> Result<f32> {
    want_float(rd(regs, r)?)
}

fn rd_double(regs: &[Value], r: VReg) -> Result<f64> {
    want_double(rd(regs, r)?)
}

fn rd_ref(regs: &[Value], r: VReg) -> Result<Option<HeapRef>> {
    want_ref(rd(regs, r)?)
}

fn sop_val(regs: &[Value], op: SOp) -> Result<i32> {
    match op {
        SOp::Imm(v) => Ok(v),
        SOp::Reg(r) => rd_int(regs, r),
    }
}

// ---- GC root publication ----------------------------------------------------

/// Publishes this activation's live references into `vm.exec_roots`
/// (replacing any previous publication by the same activation). Called
/// before every operation that can reach the collector.
fn sync_roots(vm: &mut Vm, base: usize, regs: &[Value]) {
    vm.exec_roots.truncate(base);
    for v in regs {
        if let Value::Ref(Some(r)) = v {
            vm.exec_roots.push(*r);
        }
    }
}

fn maybe_gc_ir(vm: &mut Vm, base: usize, regs: &[Value]) {
    if !vm.heap.wants_gc() {
        return;
    }
    sync_roots(vm, base, regs);
    let roots = vm.global_roots();
    vm.heap.collect(roots);
}

fn throw_ir(vm: &mut Vm, class: &str, msg: String) -> Result<Flow> {
    let e = vm.make_exception(class, &msg)?;
    Ok(Flow::Throw(e))
}

/// Runs `<clinit>` for `class` (on the interpreter tier, as always) if
/// it has not been initialized, surfacing an escaping exception.
fn ensure_initialized(
    vm: &mut Vm,
    class: ClassId,
    base: usize,
    regs: &[Value],
) -> Result<Option<Flow>> {
    if vm.registry.get(class).init_state != InitState::NotInitialized {
        return Ok(None);
    }
    sync_roots(vm, base, regs);
    match interp::run_clinit(vm, class)? {
        Some(e) => Ok(Some(Flow::Throw(e))),
        None => Ok(None),
    }
}

fn convert(from: NumType, to: NumType, v: Value) -> Result<Value> {
    use NumType::*;
    Ok(match (from, to) {
        (Int, Long) => Value::Long(want_int(v)? as i64),
        (Int, Float) => Value::Float(want_int(v)? as f32),
        (Int, Double) => Value::Double(want_int(v)? as f64),
        (Int, Byte) => Value::Int(want_int(v)? as i8 as i32),
        (Int, Char) => Value::Int(want_int(v)? as u16 as i32),
        (Int, Short) => Value::Int(want_int(v)? as i16 as i32),
        (Long, Int) => Value::Int(want_long(v)? as i32),
        (Long, Float) => Value::Float(want_long(v)? as f32),
        (Long, Double) => Value::Double(want_long(v)? as f64),
        (Float, Int) => Value::Int(interp::f2i(want_float(v)? as f64)),
        (Float, Long) => Value::Long(interp::f2l(want_float(v)? as f64)),
        (Float, Double) => Value::Double(want_float(v)? as f64),
        (Double, Int) => Value::Int(interp::f2i(want_double(v)?)),
        (Double, Long) => Value::Long(interp::f2l(want_double(v)?)),
        (Double, Float) => Value::Float(want_double(v)? as f32),
        (a, b) => return Err(VmError::BadCode(format!("bad conversion {a:?} -> {b:?}"))),
    })
}

#[allow(clippy::too_many_lines)]
fn step_ir(
    vm: &mut Vm,
    class: ClassId,
    regs: &mut [Value],
    insn: &RInsn,
    base: usize,
) -> Result<Flow> {
    match insn {
        RInsn::Const { dst, v } => {
            let v = match v {
                RConst::Null => Value::NULL,
                RConst::Int(x) => Value::Int(*x),
                RConst::Long(x) => Value::Long(*x),
                RConst::Float(x) => Value::Float(*x),
                RConst::Double(x) => Value::Double(*x),
                RConst::Str(idx) => {
                    let s = {
                        let rc = vm.registry.get(class);
                        rc.pool.get_string(*idx)?.to_owned()
                    };
                    Value::Ref(Some(vm.intern_string(&s)?))
                }
            };
            wr(regs, *dst, v)?;
            Ok(Flow::Next)
        }
        RInsn::Move { dst, src } => {
            let v = rd(regs, *src)?;
            wr(regs, *dst, v)?;
            Ok(Flow::Next)
        }
        RInsn::Arith {
            kind,
            op,
            dst,
            a,
            b,
        } => {
            let v = match kind {
                NumKind::Int => {
                    let b = rd_int(regs, *b)?;
                    let a = rd_int(regs, *a)?;
                    let r = match op {
                        ArithOp::Add => a.wrapping_add(b),
                        ArithOp::Sub => a.wrapping_sub(b),
                        ArithOp::Mul => a.wrapping_mul(b),
                        ArithOp::Div => {
                            if b == 0 {
                                return throw_ir(
                                    vm,
                                    "java/lang/ArithmeticException",
                                    "/ by zero".into(),
                                );
                            }
                            a.wrapping_div(b)
                        }
                        ArithOp::Rem => {
                            if b == 0 {
                                return throw_ir(
                                    vm,
                                    "java/lang/ArithmeticException",
                                    "% by zero".into(),
                                );
                            }
                            a.wrapping_rem(b)
                        }
                        ArithOp::Neg => a.wrapping_neg(),
                    };
                    Value::Int(r)
                }
                NumKind::Long => {
                    let b = rd_long(regs, *b)?;
                    let a = rd_long(regs, *a)?;
                    let r = match op {
                        ArithOp::Add => a.wrapping_add(b),
                        ArithOp::Sub => a.wrapping_sub(b),
                        ArithOp::Mul => a.wrapping_mul(b),
                        ArithOp::Div => {
                            if b == 0 {
                                return throw_ir(
                                    vm,
                                    "java/lang/ArithmeticException",
                                    "/ by zero".into(),
                                );
                            }
                            a.wrapping_div(b)
                        }
                        ArithOp::Rem => {
                            if b == 0 {
                                return throw_ir(
                                    vm,
                                    "java/lang/ArithmeticException",
                                    "% by zero".into(),
                                );
                            }
                            a.wrapping_rem(b)
                        }
                        ArithOp::Neg => a.wrapping_neg(),
                    };
                    Value::Long(r)
                }
                NumKind::Float => {
                    let b = rd_float(regs, *b)?;
                    let a = rd_float(regs, *a)?;
                    Value::Float(match op {
                        ArithOp::Add => a + b,
                        ArithOp::Sub => a - b,
                        ArithOp::Mul => a * b,
                        ArithOp::Div => a / b,
                        ArithOp::Rem => a % b,
                        ArithOp::Neg => -a,
                    })
                }
                NumKind::Double => {
                    let b = rd_double(regs, *b)?;
                    let a = rd_double(regs, *a)?;
                    Value::Double(match op {
                        ArithOp::Add => a + b,
                        ArithOp::Sub => a - b,
                        ArithOp::Mul => a * b,
                        ArithOp::Div => a / b,
                        ArithOp::Rem => a % b,
                        ArithOp::Neg => -a,
                    })
                }
            };
            wr(regs, *dst, v)?;
            Ok(Flow::Next)
        }
        RInsn::ArithImm { op, dst, src, imm } => {
            let a = rd_int(regs, *src)?;
            let r = match op {
                ArithOp::Add => a.wrapping_add(*imm),
                ArithOp::Mul => a.wrapping_mul(*imm),
                other => {
                    return Err(VmError::BadCode(format!(
                        "immediate arithmetic with {other:?}"
                    )))
                }
            };
            wr(regs, *dst, Value::Int(r))?;
            Ok(Flow::Next)
        }
        RInsn::Neg { kind, dst, src } => {
            let v = match kind {
                NumKind::Int => Value::Int(rd_int(regs, *src)?.wrapping_neg()),
                NumKind::Long => Value::Long(rd_long(regs, *src)?.wrapping_neg()),
                NumKind::Float => Value::Float(-rd_float(regs, *src)?),
                NumKind::Double => Value::Double(-rd_double(regs, *src)?),
            };
            wr(regs, *dst, v)?;
            Ok(Flow::Next)
        }
        RInsn::Shift {
            kind,
            op,
            dst,
            a,
            b,
        } => {
            let amount = rd_int(regs, *b)?;
            let v = match kind {
                NumKind::Int => {
                    let x = rd_int(regs, *a)?;
                    let s = (amount & 0x1F) as u32;
                    Value::Int(match op {
                        ShiftOp::Shl => x.wrapping_shl(s),
                        ShiftOp::Shr => x.wrapping_shr(s),
                        ShiftOp::Ushr => ((x as u32).wrapping_shr(s)) as i32,
                    })
                }
                NumKind::Long => {
                    let x = rd_long(regs, *a)?;
                    let s = (amount & 0x3F) as u32;
                    Value::Long(match op {
                        ShiftOp::Shl => x.wrapping_shl(s),
                        ShiftOp::Shr => x.wrapping_shr(s),
                        ShiftOp::Ushr => ((x as u64).wrapping_shr(s)) as i64,
                    })
                }
                _ => return Err(VmError::BadCode("shift on float kind".into())),
            };
            wr(regs, *dst, v)?;
            Ok(Flow::Next)
        }
        RInsn::Logic {
            kind,
            op,
            dst,
            a,
            b,
        } => {
            let v = match kind {
                NumKind::Int => {
                    let b = rd_int(regs, *b)?;
                    let a = rd_int(regs, *a)?;
                    Value::Int(match op {
                        LogicOp::And => a & b,
                        LogicOp::Or => a | b,
                        LogicOp::Xor => a ^ b,
                    })
                }
                NumKind::Long => {
                    let b = rd_long(regs, *b)?;
                    let a = rd_long(regs, *a)?;
                    Value::Long(match op {
                        LogicOp::And => a & b,
                        LogicOp::Or => a | b,
                        LogicOp::Xor => a ^ b,
                    })
                }
                _ => return Err(VmError::BadCode("logic on float kind".into())),
            };
            wr(regs, *dst, v)?;
            Ok(Flow::Next)
        }
        RInsn::LogicImm { op, dst, src, imm } => {
            let a = rd_int(regs, *src)?;
            let r = match op {
                LogicOp::And => a & imm,
                LogicOp::Or => a | imm,
                LogicOp::Xor => a ^ imm,
            };
            wr(regs, *dst, Value::Int(r))?;
            Ok(Flow::Next)
        }
        RInsn::ShiftImm { op, dst, src, imm } => {
            let x = rd_int(regs, *src)?;
            let s = (imm & 0x1F) as u32;
            let r = match op {
                ShiftOp::Shl => x.wrapping_shl(s),
                ShiftOp::Shr => x.wrapping_shr(s),
                ShiftOp::Ushr => ((x as u32).wrapping_shr(s)) as i32,
            };
            wr(regs, *dst, Value::Int(r))?;
            Ok(Flow::Next)
        }
        RInsn::Convert { from, to, dst, src } => {
            let v = convert(*from, *to, rd(regs, *src)?)?;
            wr(regs, *dst, v)?;
            Ok(Flow::Next)
        }
        RInsn::Cmp { kind, dst, a, b } => {
            let r = match kind {
                CmpKind::Long => {
                    let b = rd_long(regs, *b)?;
                    let a = rd_long(regs, *a)?;
                    match a.cmp(&b) {
                        std::cmp::Ordering::Less => -1,
                        std::cmp::Ordering::Equal => 0,
                        std::cmp::Ordering::Greater => 1,
                    }
                }
                CmpKind::Float(g) => {
                    let b = rd_float(regs, *b)? as f64;
                    let a = rd_float(regs, *a)? as f64;
                    interp::fcmp(a, b, *g)
                }
                CmpKind::Double(g) => {
                    let b = rd_double(regs, *b)?;
                    let a = rd_double(regs, *a)?;
                    interp::fcmp(a, b, *g)
                }
            };
            wr(regs, *dst, Value::Int(r))?;
            Ok(Flow::Next)
        }
        RInsn::If { cond, a, b, target } => {
            let av = rd_int(regs, *a)?;
            let bv = match b {
                Some(r) => rd_int(regs, *r)?,
                None => 0,
            };
            if interp::icond(*cond, av, bv) {
                Ok(Flow::Jump(*target))
            } else {
                Ok(Flow::Next)
            }
        }
        RInsn::IfRef { eq, a, b, target } => {
            let av = rd_ref(regs, *a)?;
            let bv = match b {
                Some(r) => rd_ref(regs, *r)?,
                None => None,
            };
            if (av == bv) == *eq {
                Ok(Flow::Jump(*target))
            } else {
                Ok(Flow::Next)
            }
        }
        RInsn::Goto { target } => Ok(Flow::Jump(*target)),
        RInsn::TableSwitch {
            on,
            low,
            targets,
            default,
        } => {
            let v = rd_int(regs, *on)?;
            let idx = v.wrapping_sub(*low);
            let t = if idx >= 0 && (idx as usize) < targets.len() {
                targets[idx as usize]
            } else {
                *default
            };
            Ok(Flow::Jump(t))
        }
        RInsn::LookupSwitch { on, pairs, default } => {
            let v = rd_int(regs, *on)?;
            let t = pairs
                .iter()
                .find(|(k, _)| *k == v)
                .map(|(_, t)| *t)
                .unwrap_or(*default);
            Ok(Flow::Jump(t))
        }
        RInsn::Return { src } => {
            let v = match src {
                Some(r) => Some(rd(regs, *r)?),
                None => None,
            };
            Ok(Flow::Ret(v))
        }
        RInsn::GetStatic { idx, dst } => {
            let (decl, off) = interp::resolve_static_site(vm, class, *idx)?;
            if let Some(flow) = ensure_initialized(vm, decl, base, regs)? {
                return Ok(flow);
            }
            let v = vm.registry.get(decl).statics[off];
            wr(regs, *dst, v)?;
            Ok(Flow::Next)
        }
        RInsn::PutStatic { idx, src } => {
            let (decl, off) = interp::resolve_static_site(vm, class, *idx)?;
            if let Some(flow) = ensure_initialized(vm, decl, base, regs)? {
                return Ok(flow);
            }
            let v = rd(regs, *src)?;
            vm.registry.get_mut(decl).statics[off] = v;
            Ok(Flow::Next)
        }
        RInsn::GetField { idx, obj, dst } => {
            let Some(obj) = rd_ref(regs, *obj)? else {
                return throw_ir(vm, "java/lang/NullPointerException", "getfield".into());
            };
            let off = interp::instance_field_offset(vm, class, *idx, obj)?;
            let v = match vm.heap.get(obj)? {
                HeapObject::Instance { fields, .. } => fields[off],
                _ => return Err(VmError::BadCode("getfield on non-instance".into())),
            };
            wr(regs, *dst, v)?;
            Ok(Flow::Next)
        }
        RInsn::PutField { idx, obj, src } => {
            let Some(obj) = rd_ref(regs, *obj)? else {
                return throw_ir(vm, "java/lang/NullPointerException", "putfield".into());
            };
            let value = rd(regs, *src)?;
            let off = interp::instance_field_offset(vm, class, *idx, obj)?;
            match vm.heap.get_mut(obj)? {
                HeapObject::Instance { fields, .. } => fields[off] = value,
                _ => return Err(VmError::BadCode("putfield on non-instance".into())),
            }
            Ok(Flow::Next)
        }
        RInsn::Invoke {
            kind,
            idx,
            args,
            dst,
        } => invoke_ir(vm, class, regs, *kind, *idx, args, *dst, base),
        RInsn::New { idx, dst } => {
            let class_name = {
                let rc = vm.registry.get(class);
                rc.pool.get_class_name(*idx)?.to_owned()
            };
            let nid = vm.load_class(&class_name)?;
            if let Some(flow) = ensure_initialized(vm, nid, base, regs)? {
                return Ok(flow);
            }
            maybe_gc_ir(vm, base, regs);
            let r = vm.alloc_instance(nid)?;
            wr(regs, *dst, Value::Ref(Some(r)))?;
            Ok(Flow::Next)
        }
        RInsn::NewArray { akind, len, dst } => {
            let len = rd_int(regs, *len)?;
            if len < 0 {
                return throw_ir(vm, "java/lang/NegativeArraySizeException", len.to_string());
            }
            maybe_gc_ir(vm, base, regs);
            let n = len as usize;
            let data = match akind {
                AKind::Byte => ArrayData::Byte(vec![0; n]),
                AKind::Char => ArrayData::Char(vec![0; n]),
                AKind::Short => ArrayData::Short(vec![0; n]),
                AKind::Int => ArrayData::Int(vec![0; n]),
                AKind::Long => ArrayData::Long(vec![0; n]),
                AKind::Float => ArrayData::Float(vec![0.0; n]),
                AKind::Double => ArrayData::Double(vec![0.0; n]),
                AKind::Ref => return Err(VmError::BadCode("newarray of reference kind".into())),
            };
            vm.stats.allocations += 1;
            let r = vm.heap.alloc(HeapObject::Array(data))?;
            wr(regs, *dst, Value::Ref(Some(r)))?;
            Ok(Flow::Next)
        }
        RInsn::ANewArray { idx, len, dst } => {
            let elem = {
                let rc = vm.registry.get(class);
                rc.pool.get_class_name(*idx)?.to_owned()
            };
            let len = rd_int(regs, *len)?;
            if len < 0 {
                return throw_ir(vm, "java/lang/NegativeArraySizeException", len.to_string());
            }
            maybe_gc_ir(vm, base, regs);
            vm.stats.allocations += 1;
            let r = vm.heap.alloc(HeapObject::Array(ArrayData::Ref(
                elem,
                vec![None; len as usize],
            )))?;
            wr(regs, *dst, Value::Ref(Some(r)))?;
            Ok(Flow::Next)
        }
        RInsn::ArrayLoad {
            arr, index, dst, ..
        } => {
            let index = rd_int(regs, *index)?;
            let Some(arr) = rd_ref(regs, *arr)? else {
                return throw_ir(vm, "java/lang/NullPointerException", "array load".into());
            };
            let obj = vm.heap.get(arr)?;
            let HeapObject::Array(data) = obj else {
                return Err(VmError::BadCode("array load on non-array".into()));
            };
            if index < 0 || index as usize >= data.len() {
                let len = data.len();
                return throw_ir(
                    vm,
                    "java/lang/ArrayIndexOutOfBoundsException",
                    format!("index {index}, length {len}"),
                );
            }
            let i = index as usize;
            let v = match data {
                ArrayData::Byte(v) => Value::Int(v[i] as i32),
                ArrayData::Char(v) => Value::Int(v[i] as i32),
                ArrayData::Short(v) => Value::Int(v[i] as i32),
                ArrayData::Int(v) => Value::Int(v[i]),
                ArrayData::Long(v) => Value::Long(v[i]),
                ArrayData::Float(v) => Value::Float(v[i]),
                ArrayData::Double(v) => Value::Double(v[i]),
                ArrayData::Ref(_, v) => Value::Ref(v[i]),
            };
            wr(regs, *dst, v)?;
            Ok(Flow::Next)
        }
        RInsn::ArrayStore {
            arr, index, src, ..
        } => {
            let value = rd(regs, *src)?;
            let index = rd_int(regs, *index)?;
            let Some(arr) = rd_ref(regs, *arr)? else {
                return throw_ir(vm, "java/lang/NullPointerException", "array store".into());
            };
            let len = match vm.heap.get(arr)? {
                HeapObject::Array(d) => d.len(),
                _ => return Err(VmError::BadCode("array store on non-array".into())),
            };
            if index < 0 || index as usize >= len {
                return throw_ir(
                    vm,
                    "java/lang/ArrayIndexOutOfBoundsException",
                    format!("index {index}, length {len}"),
                );
            }
            let i = index as usize;
            let HeapObject::Array(data) = vm.heap.get_mut(arr)? else {
                unreachable!("checked above");
            };
            match (data, value) {
                (ArrayData::Byte(v), Value::Int(x)) => v[i] = x as i8,
                (ArrayData::Char(v), Value::Int(x)) => v[i] = x as u16,
                (ArrayData::Short(v), Value::Int(x)) => v[i] = x as i16,
                (ArrayData::Int(v), Value::Int(x)) => v[i] = x,
                (ArrayData::Long(v), Value::Long(x)) => v[i] = x,
                (ArrayData::Float(v), Value::Float(x)) => v[i] = x,
                (ArrayData::Double(v), Value::Double(x)) => v[i] = x,
                (ArrayData::Ref(_, v), Value::Ref(x)) => v[i] = x,
                (d, v) => {
                    return Err(VmError::BadCode(format!(
                        "array store kind mismatch {d:?} <- {v:?}"
                    )))
                }
            }
            Ok(Flow::Next)
        }
        RInsn::ArrayLength { arr, dst } => {
            let Some(arr) = rd_ref(regs, *arr)? else {
                return throw_ir(vm, "java/lang/NullPointerException", "arraylength".into());
            };
            let len = match vm.heap.get(arr)? {
                HeapObject::Array(d) => d.len(),
                HeapObject::Str(s) => s.len(),
                _ => return Err(VmError::BadCode("arraylength on non-array".into())),
            };
            wr(regs, *dst, Value::Int(len as i32))?;
            Ok(Flow::Next)
        }
        RInsn::AThrow { exc } => match rd_ref(regs, *exc)? {
            Some(e) => Ok(Flow::Throw(e)),
            None => throw_ir(
                vm,
                "java/lang/NullPointerException",
                "athrow of null".into(),
            ),
        },
        RInsn::CheckCast { idx, obj } => {
            let target = {
                let rc = vm.registry.get(class);
                rc.pool.get_class_name(*idx)?.to_owned()
            };
            let v = rd_ref(regs, *obj)?;
            let ok = match v {
                None => true,
                Some(r) => interp::reference_instanceof(vm, r, &target)?,
            };
            if ok {
                Ok(Flow::Next)
            } else {
                throw_ir(vm, "java/lang/ClassCastException", target)
            }
        }
        RInsn::InstanceOf { idx, obj, dst } => {
            let target = {
                let rc = vm.registry.get(class);
                rc.pool.get_class_name(*idx)?.to_owned()
            };
            let v = rd_ref(regs, *obj)?;
            let res = match v {
                None => 0,
                Some(r) => interp::reference_instanceof(vm, r, &target)? as i32,
            };
            wr(regs, *dst, Value::Int(res))?;
            Ok(Flow::Next)
        }
        RInsn::Monitor { obj, .. } => {
            // Single-threaded model: monitors are cycle cost only.
            if rd_ref(regs, *obj)?.is_none() {
                return throw_ir(vm, "java/lang/NullPointerException", "monitor".into());
            }
            Ok(Flow::Next)
        }
        RInsn::Service { kind, a, .. } => {
            // One operand: the permission for `Security`, a site id for
            // the others.
            let arg = sop_val(regs, *a)?;
            match kind {
                ServiceKind::Security => {
                    vm.stats.security_checks += 1;
                    match vm.services.security_check(arg) {
                        SecurityDecision::Allow { cost_cycles } => {
                            vm.stats.cycles += cost_cycles;
                            Ok(Flow::Next)
                        }
                        SecurityDecision::Deny { cost_cycles } => {
                            vm.stats.cycles += cost_cycles;
                            throw_ir(
                                vm,
                                "java/lang/SecurityException",
                                crate::natives::denied_message(arg),
                            )
                        }
                    }
                }
                ServiceKind::AuditEnter => {
                    vm.services.audit_event(arg, AuditKind::Enter);
                    vm.stats.cycles += 15;
                    Ok(Flow::Next)
                }
                ServiceKind::AuditExit => {
                    vm.services.audit_event(arg, AuditKind::Exit);
                    vm.stats.cycles += 15;
                    Ok(Flow::Next)
                }
                ServiceKind::AuditEvent => {
                    vm.services.audit_event(arg, AuditKind::Event);
                    vm.stats.cycles += 15;
                    Ok(Flow::Next)
                }
                ServiceKind::ProfileCount => {
                    vm.services.profile_count(arg);
                    vm.stats.cycles += 5;
                    Ok(Flow::Next)
                }
                ServiceKind::ProfileFirstUse => {
                    vm.services.first_use(arg);
                    vm.stats.cycles += 5;
                    Ok(Flow::Next)
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn invoke_ir(
    vm: &mut Vm,
    class: ClassId,
    regs: &mut [Value],
    kind: InvokeKind,
    idx: u16,
    args: &[VReg],
    dst: Option<VReg>,
    base: usize,
) -> Result<Flow> {
    let is_static_dispatch = matches!(kind, InvokeKind::Static | InvokeKind::Special);
    let info = interp::invoke_info(vm, class, idx, is_static_dispatch)?;
    if matches!(kind, InvokeKind::Static) {
        if let Some(flow) = ensure_initialized(vm, info.decl_class, base, regs)? {
            return Ok(flow);
        }
    }

    let mut full_args = Vec::with_capacity(args.len());
    for r in args {
        full_args.push(rd(regs, *r)?);
    }
    let is_instance = !matches!(kind, InvokeKind::Static);
    let receiver = if is_instance {
        match full_args.first() {
            Some(Value::Ref(Some(r))) => Some(*r),
            Some(Value::Ref(None)) => {
                return throw_ir(
                    vm,
                    "java/lang/NullPointerException",
                    format!("invoke {}", info.name),
                )
            }
            other => {
                return Err(VmError::BadCode(format!(
                    "expected reference receiver, got {other:?}"
                )))
            }
        }
    } else {
        None
    };

    // Resolve the target, reusing the interpreter's per-site caches.
    let (target_class, target_idx) = match receiver {
        Some(r) if matches!(kind, InvokeKind::Virtual | InvokeKind::Interface) => {
            let recv_class = vm.class_of(r)?;
            match vm.registry.get(class).vcall_cache.get(&(idx, recv_class)) {
                Some(&t) => t,
                None => {
                    let t = vm
                        .registry
                        .resolve_method(recv_class, &info.name, &info.descriptor)
                        .ok_or_else(|| VmError::NoSuchMember {
                            class: vm.registry.get(recv_class).name.clone(),
                            name: info.name.to_string(),
                            descriptor: info.descriptor.to_string(),
                        })?;
                    vm.registry
                        .get_mut(class)
                        .vcall_cache
                        .insert((idx, recv_class), t);
                    t
                }
            }
        }
        _ => info
            .static_target
            .or_else(|| {
                vm.registry
                    .resolve_method(info.decl_class, &info.name, &info.descriptor)
            })
            .ok_or_else(|| VmError::NoSuchMember {
                class: vm.registry.get(info.decl_class).name.clone(),
                name: info.name.to_string(),
                descriptor: info.descriptor.to_string(),
            })?,
    };

    vm.stats.invocations += 1;
    sync_roots(vm, base, regs);
    let is_native = vm.registry.get(target_class).methods[target_idx].is_native();
    let completion = if is_native {
        let f = interp::native_fn_of(vm, target_class, target_idx)?;
        match f(vm, &full_args)? {
            NativeResult::Return(v) => Completion::Normal(v),
            NativeResult::Throw { class, message } => {
                let e = vm.make_exception(&class, &message)?;
                Completion::Exception(e)
            }
        }
    } else if vm.exec.installed(target_class, target_idx) {
        run_ir(vm, target_class, target_idx, full_args)?
    } else {
        interp::run_interp_call(vm, target_class, target_idx, full_args)?
    };

    match completion {
        Completion::Normal(v) => {
            if let Some(d) = dst {
                let Some(v) = v else {
                    return Err(VmError::BadCode("void call with a result register".into()));
                };
                wr(regs, d, v)?;
            }
            Ok(Flow::Next)
        }
        Completion::Exception(e) => Ok(Flow::Throw(e)),
    }
}
