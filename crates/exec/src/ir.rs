//! The executable register IR.
//!
//! Verified stack bytecode has a deterministic operand-stack depth at
//! every instruction, so each stack slot maps to a fixed *virtual
//! register*: register `d` for local slot `d`, register
//! `max_locals + d` for the stack slot at depth `d`. Instructions read
//! and write registers directly — there is no operand stack at run
//! time — and branch targets are IR instruction indices.
//!
//! The IR is executable: member accesses carry constant-pool indices
//! that the execution tier resolves through the same runtime caches as
//! the interpreter, and the injected dynamic-service stubs are
//! first-class [`RInsn::Service`] intrinsics after inlining.

use dvm_bytecode::insn::{AKind, ArithOp, ICond, LogicOp, NumKind, NumType, ShiftOp};

/// A virtual register. Registers `0..max_locals` mirror the frame's
/// local-variable slots; higher registers are the flattened operand
/// stack (`max_locals + depth`) plus scratch space for `dup` forms.
///
/// Wide values (`long`/`double`) occupy one *register* even though they
/// occupy two *slots*; the tail slot's register is simply unused, which
/// mirrors the interpreter's `Value::Invalid` padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u16);

/// A constant loadable into a register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RConst {
    /// The null reference.
    Null,
    /// An `int`.
    Int(i32),
    /// A `long`.
    Long(i64),
    /// A `float`.
    Float(f32),
    /// A `double`.
    Double(f64),
    /// An interned string: `String` constant-pool index.
    Str(u16),
}

/// The comparison family (`lcmp`, `fcmpl/g`, `dcmpl/g`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// `lcmp`.
    Long,
    /// `fcmpl` / `fcmpg` (`true` selects the `g` variant: NaN → +1).
    Float(bool),
    /// `dcmpl` / `dcmpg`.
    Double(bool),
}

/// Which invoke instruction a call lowered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokeKind {
    /// `invokevirtual`.
    Virtual,
    /// `invokespecial`.
    Special,
    /// `invokestatic`.
    Static,
    /// `invokeinterface`.
    Interface,
}

/// A dynamic-service intrinsic: the inlined form of the stub calls the
/// proxy's rewriters inject (`dvm/rt/Enforcer.check`, `dvm/rt/Audit.*`,
/// `dvm/rt/Profiler.*`). Executing one performs the service callback
/// directly, without paying an `invokestatic` dispatch per check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// `Enforcer.check(sid, perm)` — security enforcement.
    Security,
    /// `Audit.enter(site)`.
    AuditEnter,
    /// `Audit.exit(site)`.
    AuditExit,
    /// `Audit.event(site)`.
    AuditEvent,
    /// `Profiler.count(site)`.
    ProfileCount,
    /// `Profiler.firstUse(site)`.
    ProfileFirstUse,
}

/// A service operand: a register, or an immediate folded in by the
/// constant-folding pass (the rewriters emit `iconst` site IDs, so
/// after folding most service intrinsics carry pure immediates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SOp {
    /// Read the operand from a register.
    Reg(VReg),
    /// A folded `int` immediate.
    Imm(i32),
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum RInsn {
    /// Load a constant into a register.
    Const {
        /// Destination.
        dst: VReg,
        /// The constant.
        v: RConst,
    },
    /// Register-to-register copy.
    Move {
        /// Destination.
        dst: VReg,
        /// Source.
        src: VReg,
    },
    /// Binary arithmetic (`Neg` never appears here; see [`RInsn::Neg`]).
    Arith {
        /// Numeric kind.
        kind: NumKind,
        /// The operation (`Add`..`Rem`).
        op: ArithOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `int` arithmetic with a folded immediate right operand.
    ArithImm {
        /// `Add` or `Mul` (subtraction folds to `Add` of the negation).
        op: ArithOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        src: VReg,
        /// Immediate right operand.
        imm: i32,
    },
    /// Unary negation.
    Neg {
        /// Numeric kind.
        kind: NumKind,
        /// Destination.
        dst: VReg,
        /// Operand.
        src: VReg,
    },
    /// Shift (`int`/`long` only).
    Shift {
        /// Numeric kind (`Int` or `Long`).
        kind: NumKind,
        /// The shift operation.
        op: ShiftOp,
        /// Destination.
        dst: VReg,
        /// Value operand.
        a: VReg,
        /// Amount operand (always `int`).
        b: VReg,
    },
    /// Bitwise logic (`int`/`long` only).
    Logic {
        /// Numeric kind (`Int` or `Long`).
        kind: NumKind,
        /// The logic operation.
        op: LogicOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `int` bitwise logic with a folded immediate right operand.
    LogicImm {
        /// The logic operation.
        op: LogicOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        src: VReg,
        /// Immediate right operand.
        imm: i32,
    },
    /// `int` shift with a folded immediate amount.
    ShiftImm {
        /// The shift operation.
        op: ShiftOp,
        /// Destination.
        dst: VReg,
        /// Value operand.
        src: VReg,
        /// Immediate shift amount.
        imm: i32,
    },
    /// Numeric conversion.
    Convert {
        /// Source type.
        from: NumType,
        /// Target type.
        to: NumType,
        /// Destination.
        dst: VReg,
        /// Operand.
        src: VReg,
    },
    /// Three-way comparison pushing -1/0/+1.
    Cmp {
        /// Comparison family.
        kind: CmpKind,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// Conditional branch on `int` values (`b` of `None` compares
    /// against zero).
    If {
        /// The condition.
        cond: ICond,
        /// Left operand.
        a: VReg,
        /// Right operand, or `None` for compare-with-zero.
        b: Option<VReg>,
        /// Branch target (IR index) when the condition holds.
        target: usize,
    },
    /// Conditional branch on references (`b` of `None` compares against
    /// null; `eq` of `true` branches on equality).
    IfRef {
        /// Branch on equality (`false`: inequality).
        eq: bool,
        /// Left operand.
        a: VReg,
        /// Right operand, or `None` for compare-with-null.
        b: Option<VReg>,
        /// Branch target (IR index).
        target: usize,
    },
    /// Unconditional branch.
    Goto {
        /// Branch target (IR index).
        target: usize,
    },
    /// `tableswitch`.
    TableSwitch {
        /// Scrutinee.
        on: VReg,
        /// Lowest matched key.
        low: i32,
        /// Targets for `low..`.
        targets: Vec<usize>,
        /// Default target.
        default: usize,
    },
    /// `lookupswitch`.
    LookupSwitch {
        /// Scrutinee.
        on: VReg,
        /// `(key, target)` pairs.
        pairs: Vec<(i32, usize)>,
        /// Default target.
        default: usize,
    },
    /// Return from the function.
    Return {
        /// The returned register, or `None` for `void`.
        src: Option<VReg>,
    },
    /// `getstatic` with a `Fieldref` pool index.
    GetStatic {
        /// Pool index.
        idx: u16,
        /// Destination.
        dst: VReg,
    },
    /// `putstatic`.
    PutStatic {
        /// Pool index.
        idx: u16,
        /// Value to store.
        src: VReg,
    },
    /// `getfield`.
    GetField {
        /// Pool index.
        idx: u16,
        /// Receiver.
        obj: VReg,
        /// Destination.
        dst: VReg,
    },
    /// `putfield`.
    PutField {
        /// Pool index.
        idx: u16,
        /// Receiver.
        obj: VReg,
        /// Value to store.
        src: VReg,
    },
    /// A call (any invoke flavor). For instance calls the receiver is
    /// `args[0]`.
    Invoke {
        /// Which invoke instruction this lowered from.
        kind: InvokeKind,
        /// `Methodref` pool index.
        idx: u16,
        /// Argument registers, receiver first for instance calls. Wide
        /// arguments occupy one entry.
        args: Vec<VReg>,
        /// Result register, or `None` for `void`.
        dst: Option<VReg>,
    },
    /// `new` with a `Class` pool index.
    New {
        /// Pool index.
        idx: u16,
        /// Destination.
        dst: VReg,
    },
    /// `newarray` of a primitive element kind.
    NewArray {
        /// Element kind.
        akind: AKind,
        /// Length operand.
        len: VReg,
        /// Destination.
        dst: VReg,
    },
    /// `anewarray` with a `Class` pool index for the element type.
    ANewArray {
        /// Pool index of the element class.
        idx: u16,
        /// Length operand.
        len: VReg,
        /// Destination.
        dst: VReg,
    },
    /// Array element load.
    ArrayLoad {
        /// Element kind.
        akind: AKind,
        /// Array operand.
        arr: VReg,
        /// Index operand.
        index: VReg,
        /// Destination.
        dst: VReg,
    },
    /// Array element store.
    ArrayStore {
        /// Element kind.
        akind: AKind,
        /// Array operand.
        arr: VReg,
        /// Index operand.
        index: VReg,
        /// Value to store.
        src: VReg,
    },
    /// `arraylength`.
    ArrayLength {
        /// Array operand.
        arr: VReg,
        /// Destination.
        dst: VReg,
    },
    /// `athrow`.
    AThrow {
        /// The thrown reference.
        exc: VReg,
    },
    /// `checkcast` (in-place check; the register keeps its value).
    CheckCast {
        /// Pool index of the target class.
        idx: u16,
        /// Checked register.
        obj: VReg,
    },
    /// `instanceof`.
    InstanceOf {
        /// Pool index of the tested class.
        idx: u16,
        /// Tested register.
        obj: VReg,
        /// Destination (`int` 0/1).
        dst: VReg,
    },
    /// `monitorenter` / `monitorexit`.
    Monitor {
        /// `true` for enter.
        enter: bool,
        /// The monitored reference.
        obj: VReg,
    },
    /// An inlined dynamic-service stub; see [`ServiceKind`].
    Service {
        /// Which service.
        kind: ServiceKind,
        /// First operand (site ID / security ID).
        a: SOp,
        /// Second operand (permission for `Security`; unused otherwise).
        b: SOp,
    },
}

impl RInsn {
    /// Calls `f` with every register this instruction reads, in the order
    /// [`RInsn::map_reads`] visits them. Allocates nothing.
    pub fn for_each_read(&self, mut f: impl FnMut(VReg)) {
        use RInsn::*;
        match self {
            Const { .. } | Goto { .. } | New { .. } | GetStatic { .. } => {}
            Move { src, .. }
            | ArithImm { src, .. }
            | LogicImm { src, .. }
            | ShiftImm { src, .. }
            | Neg { src, .. }
            | Convert { src, .. }
            | PutStatic { src, .. }
            | AThrow { exc: src }
            | Monitor { obj: src, .. }
            | CheckCast { obj: src, .. }
            | InstanceOf { obj: src, .. }
            | ArrayLength { arr: src, .. }
            | NewArray { len: src, .. }
            | ANewArray { len: src, .. }
            | TableSwitch { on: src, .. }
            | LookupSwitch { on: src, .. }
            | GetField { obj: src, .. } => f(*src),
            Arith { a, b, .. } | Shift { a, b, .. } | Logic { a, b, .. } | Cmp { a, b, .. } => {
                f(*a);
                f(*b);
            }
            If { a, b, .. } | IfRef { a, b, .. } => {
                f(*a);
                if let Some(b) = b {
                    f(*b);
                }
            }
            Return { src } => {
                if let Some(src) = src {
                    f(*src);
                }
            }
            PutField { obj, src, .. } => {
                f(*obj);
                f(*src);
            }
            Invoke { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            ArrayLoad { arr, index, .. } => {
                f(*arr);
                f(*index);
            }
            ArrayStore {
                arr, index, src, ..
            } => {
                f(*arr);
                f(*index);
                f(*src);
            }
            Service { a, b, .. } => {
                if let SOp::Reg(r) = a {
                    f(*r);
                }
                if let SOp::Reg(r) = b {
                    f(*r);
                }
            }
        }
    }

    /// The register this instruction writes, if any.
    pub fn writes(&self) -> Option<VReg> {
        use RInsn::*;
        match self {
            Const { dst, .. }
            | Move { dst, .. }
            | Arith { dst, .. }
            | ArithImm { dst, .. }
            | Neg { dst, .. }
            | Shift { dst, .. }
            | Logic { dst, .. }
            | LogicImm { dst, .. }
            | ShiftImm { dst, .. }
            | Convert { dst, .. }
            | Cmp { dst, .. }
            | GetStatic { dst, .. }
            | GetField { dst, .. }
            | New { dst, .. }
            | NewArray { dst, .. }
            | ANewArray { dst, .. }
            | ArrayLoad { dst, .. }
            | ArrayLength { dst, .. }
            | InstanceOf { dst, .. } => Some(*dst),
            Invoke { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Rewrites every read operand through `f` (writes untouched).
    pub fn map_reads(&mut self, mut f: impl FnMut(VReg) -> VReg) {
        use RInsn::*;
        match self {
            Const { .. } | Goto { .. } | New { .. } | GetStatic { .. } => {}
            Move { src, .. }
            | ArithImm { src, .. }
            | LogicImm { src, .. }
            | ShiftImm { src, .. }
            | Neg { src, .. }
            | Convert { src, .. }
            | PutStatic { src, .. }
            | AThrow { exc: src }
            | Monitor { obj: src, .. }
            | CheckCast { obj: src, .. }
            | InstanceOf { obj: src, .. }
            | ArrayLength { arr: src, .. }
            | NewArray { len: src, .. }
            | ANewArray { len: src, .. }
            | TableSwitch { on: src, .. }
            | LookupSwitch { on: src, .. }
            | GetField { obj: src, .. } => *src = f(*src),
            Arith { a, b, .. } | Shift { a, b, .. } | Logic { a, b, .. } | Cmp { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            If { a, b, .. } | IfRef { a, b, .. } => {
                *a = f(*a);
                if let Some(b) = b {
                    *b = f(*b);
                }
            }
            Return { src } => {
                if let Some(src) = src {
                    *src = f(*src);
                }
            }
            PutField { obj, src, .. } => {
                *obj = f(*obj);
                *src = f(*src);
            }
            Invoke { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            ArrayLoad { arr, index, .. } => {
                *arr = f(*arr);
                *index = f(*index);
            }
            ArrayStore {
                arr, index, src, ..
            } => {
                *arr = f(*arr);
                *index = f(*index);
                *src = f(*src);
            }
            Service { a, b, .. } => {
                if let SOp::Reg(r) = a {
                    *r = f(*r);
                }
                if let SOp::Reg(r) = b {
                    *r = f(*r);
                }
            }
        }
    }

    /// Returns `true` for the instructions with explicit branch targets.
    fn has_targets(&self) -> bool {
        matches!(
            self,
            RInsn::If { .. }
                | RInsn::IfRef { .. }
                | RInsn::Goto { .. }
                | RInsn::TableSwitch { .. }
                | RInsn::LookupSwitch { .. }
        )
    }

    /// Calls `f` with every explicit branch target (IR indices), in the
    /// order [`RInsn::map_targets`] visits them. Allocates nothing.
    pub fn for_each_target(&self, mut f: impl FnMut(usize)) {
        use RInsn::*;
        // A cheap test first: most instructions have no target.
        if !self.has_targets() {
            return;
        }
        match self {
            If { target, .. } | IfRef { target, .. } | Goto { target } => f(*target),
            TableSwitch {
                targets, default, ..
            } => {
                f(*default);
                for t in targets {
                    f(*t);
                }
            }
            LookupSwitch { pairs, default, .. } => {
                f(*default);
                for (_, t) in pairs {
                    f(*t);
                }
            }
            _ => {}
        }
    }

    /// Rewrites every branch target through `f`.
    pub fn map_targets(&mut self, mut f: impl FnMut(usize) -> usize) {
        use RInsn::*;
        if !self.has_targets() {
            return;
        }
        match self {
            If { target, .. } | IfRef { target, .. } | Goto { target } => *target = f(*target),
            TableSwitch {
                targets, default, ..
            } => {
                *default = f(*default);
                for t in targets {
                    *t = f(*t);
                }
            }
            LookupSwitch { pairs, default, .. } => {
                *default = f(*default);
                for (_, t) in pairs {
                    *t = f(*t);
                }
            }
            _ => {}
        }
    }

    /// Returns `true` when control can continue to the next instruction.
    pub fn can_fall_through(&self) -> bool {
        !matches!(
            self,
            RInsn::Goto { .. }
                | RInsn::TableSwitch { .. }
                | RInsn::LookupSwitch { .. }
                | RInsn::Return { .. }
                | RInsn::AThrow { .. }
        )
    }

    /// Returns `true` when the instruction has no observable effect
    /// other than its register write: it cannot throw, touch the heap,
    /// call out, or invoke a service. Such an instruction may be deleted
    /// if its destination is dead.
    pub fn side_effect_free(&self) -> bool {
        use RInsn::*;
        match self {
            Const { .. }
            | Move { .. }
            | Neg { .. }
            | Shift { .. }
            | Logic { .. }
            | LogicImm { .. }
            | ShiftImm { .. }
            | ArithImm { .. }
            | Convert { .. }
            | Cmp { .. } => true,
            // Integer division and remainder can throw ArithmeticException.
            Arith { kind, op, .. } => {
                !(matches!(kind, NumKind::Int | NumKind::Long)
                    && matches!(op, ArithOp::Div | ArithOp::Rem))
            }
            _ => false,
        }
    }
}

/// An exception handler in IR-index form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RHandler {
    /// First protected IR instruction (inclusive).
    pub start: usize,
    /// End of the protected range (exclusive; may equal `insns.len()`).
    pub end: usize,
    /// IR index of the handler's first instruction. The unwinder
    /// deposits the thrown reference in register `max_locals` (stack
    /// depth 0) before jumping here.
    pub handler: usize,
    /// Constant-pool index of the caught class, or 0 for catch-all.
    pub catch_type: u16,
}

/// One lowered, optionally optimized method.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Method name.
    pub name: String,
    /// Method descriptor.
    pub descriptor: String,
    /// The instructions.
    pub insns: Vec<RInsn>,
    /// Exception handlers in IR-index form.
    pub handlers: Vec<RHandler>,
    /// Local-variable slot count (registers `0..max_locals`).
    pub max_locals: u16,
    /// Total registers the executor must allocate.
    pub num_regs: u16,
}

/// A whole class's worth of lowered methods — the unit the proxy caches
/// and ships.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassIr {
    /// Internal class name.
    pub class: String,
    /// Lowered methods. Methods that failed to lower are absent; they
    /// stay on the interpreter tier.
    pub methods: Vec<Function>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(i: &RInsn) -> Vec<VReg> {
        let mut v = Vec::new();
        i.for_each_read(|r| v.push(r));
        v
    }

    fn targets(i: &RInsn) -> Vec<usize> {
        let mut v = Vec::new();
        i.for_each_target(|t| v.push(t));
        v
    }

    /// One instance of every variant, each operand a distinct register or
    /// target so that visiting order is observable.
    #[rustfmt::skip]
    fn every_variant() -> Vec<RInsn> {
        let mut next = 0u16;
        let mut r = || {
            next += 1;
            VReg(next)
        };
        vec![
            RInsn::Const { dst: r(), v: RConst::Int(1) },
            RInsn::Move { dst: r(), src: r() },
            RInsn::Arith { kind: NumKind::Int, op: ArithOp::Add, dst: r(), a: r(), b: r() },
            RInsn::ArithImm { op: ArithOp::Mul, dst: r(), src: r(), imm: 3 },
            RInsn::Neg { kind: NumKind::Long, dst: r(), src: r() },
            RInsn::Shift { kind: NumKind::Int, op: ShiftOp::Shl, dst: r(), a: r(), b: r() },
            RInsn::Logic { kind: NumKind::Int, op: LogicOp::Or, dst: r(), a: r(), b: r() },
            RInsn::LogicImm { op: LogicOp::And, dst: r(), src: r(), imm: 7 },
            RInsn::ShiftImm { op: ShiftOp::Ushr, dst: r(), src: r(), imm: 2 },
            RInsn::Convert { from: NumType::Int, to: NumType::Long, dst: r(), src: r() },
            RInsn::Cmp { kind: CmpKind::Double(true), dst: r(), a: r(), b: r() },
            RInsn::If { cond: ICond::Lt, a: r(), b: Some(r()), target: 11 },
            RInsn::If { cond: ICond::Eq, a: r(), b: None, target: 12 },
            RInsn::IfRef { eq: true, a: r(), b: Some(r()), target: 13 },
            RInsn::IfRef { eq: false, a: r(), b: None, target: 14 },
            RInsn::Goto { target: 15 },
            RInsn::TableSwitch { on: r(), low: 0, targets: vec![16, 17, 18], default: 19 },
            RInsn::LookupSwitch { on: r(), pairs: vec![(4, 20), (-1, 21)], default: 22 },
            RInsn::Return { src: Some(r()) },
            RInsn::Return { src: None },
            RInsn::GetStatic { idx: 1, dst: r() },
            RInsn::PutStatic { idx: 2, src: r() },
            RInsn::GetField { idx: 3, obj: r(), dst: r() },
            RInsn::PutField { idx: 4, obj: r(), src: r() },
            RInsn::Invoke { kind: InvokeKind::Virtual, idx: 5, args: vec![r(), r(), r()], dst: Some(r()) },
            RInsn::New { idx: 6, dst: r() },
            RInsn::NewArray { akind: AKind::Int, len: r(), dst: r() },
            RInsn::ANewArray { idx: 7, len: r(), dst: r() },
            RInsn::ArrayLoad { akind: AKind::Ref, arr: r(), index: r(), dst: r() },
            RInsn::ArrayStore { akind: AKind::Byte, arr: r(), index: r(), src: r() },
            RInsn::ArrayLength { arr: r(), dst: r() },
            RInsn::AThrow { exc: r() },
            RInsn::CheckCast { idx: 8, obj: r() },
            RInsn::InstanceOf { idx: 9, obj: r(), dst: r() },
            RInsn::Monitor { enter: true, obj: r() },
            RInsn::Service { kind: ServiceKind::Security, a: SOp::Reg(r()), b: SOp::Reg(r()) },
            RInsn::Service { kind: ServiceKind::AuditEnter, a: SOp::Imm(4), b: SOp::Reg(r()) },
        ]
    }

    /// Exhaustive on purpose: a new variant fails to compile here until
    /// it is numbered, and then fails the coverage assertion below until
    /// [`every_variant`] builds one.
    fn variant_number(i: &RInsn) -> usize {
        match i {
            RInsn::Const { .. } => 0,
            RInsn::Move { .. } => 1,
            RInsn::Arith { .. } => 2,
            RInsn::ArithImm { .. } => 3,
            RInsn::Neg { .. } => 4,
            RInsn::Shift { .. } => 5,
            RInsn::Logic { .. } => 6,
            RInsn::LogicImm { .. } => 7,
            RInsn::ShiftImm { .. } => 8,
            RInsn::Convert { .. } => 9,
            RInsn::Cmp { .. } => 10,
            RInsn::If { .. } => 11,
            RInsn::IfRef { .. } => 12,
            RInsn::Goto { .. } => 13,
            RInsn::TableSwitch { .. } => 14,
            RInsn::LookupSwitch { .. } => 15,
            RInsn::Return { .. } => 16,
            RInsn::GetStatic { .. } => 17,
            RInsn::PutStatic { .. } => 18,
            RInsn::GetField { .. } => 19,
            RInsn::PutField { .. } => 20,
            RInsn::Invoke { .. } => 21,
            RInsn::New { .. } => 22,
            RInsn::NewArray { .. } => 23,
            RInsn::ANewArray { .. } => 24,
            RInsn::ArrayLoad { .. } => 25,
            RInsn::ArrayStore { .. } => 26,
            RInsn::ArrayLength { .. } => 27,
            RInsn::AThrow { .. } => 28,
            RInsn::CheckCast { .. } => 29,
            RInsn::InstanceOf { .. } => 30,
            RInsn::Monitor { .. } => 31,
            RInsn::Service { .. } => 32,
        }
    }

    #[test]
    fn visitors_match_the_mapping_forms_on_every_variant() {
        let all = every_variant();
        let mut covered: Vec<usize> = all.iter().map(variant_number).collect();
        covered.dedup();
        assert_eq!(covered, (0..33).collect::<Vec<_>>(), "a variant is missing");
        for insn in &all {
            let mut mapped_reads = Vec::new();
            insn.clone().map_reads(|r| {
                mapped_reads.push(r);
                r
            });
            assert_eq!(reads(insn), mapped_reads, "{insn:?}");
            let mut mapped_targets = Vec::new();
            insn.clone().map_targets(|t| {
                mapped_targets.push(t);
                t
            });
            assert_eq!(targets(insn), mapped_targets, "{insn:?}");
        }
    }

    #[test]
    fn reads_and_writes_cover_operands() {
        let i = RInsn::Arith {
            kind: NumKind::Int,
            op: ArithOp::Add,
            dst: VReg(3),
            a: VReg(1),
            b: VReg(2),
        };
        assert_eq!(reads(&i), vec![VReg(1), VReg(2)]);
        assert_eq!(i.writes(), Some(VReg(3)));
        assert!(i.side_effect_free());
    }

    #[test]
    fn integer_division_is_not_side_effect_free() {
        let div = RInsn::Arith {
            kind: NumKind::Int,
            op: ArithOp::Div,
            dst: VReg(0),
            a: VReg(1),
            b: VReg(2),
        };
        assert!(!div.side_effect_free());
        let fdiv = RInsn::Arith {
            kind: NumKind::Float,
            op: ArithOp::Div,
            dst: VReg(0),
            a: VReg(1),
            b: VReg(2),
        };
        assert!(fdiv.side_effect_free());
    }

    #[test]
    fn target_mapping_round_trips() {
        let mut i = RInsn::TableSwitch {
            on: VReg(0),
            low: 0,
            targets: vec![1, 2],
            default: 9,
        };
        assert_eq!(targets(&i), vec![9, 1, 2]);
        i.map_targets(|t| t + 5);
        assert_eq!(targets(&i), vec![14, 6, 7]);
    }

    #[test]
    fn conditional_branches_fall_through_and_exits_do_not() {
        let branch = RInsn::If {
            cond: ICond::Lt,
            a: VReg(0),
            b: None,
            target: 9,
        };
        assert!(branch.can_fall_through());
        assert!(!RInsn::Goto { target: 9 }.can_fall_through());
        assert!(!RInsn::Return { src: None }.can_fall_through());
    }

    #[test]
    fn map_reads_leaves_writes_alone() {
        let mut i = RInsn::Move {
            dst: VReg(7),
            src: VReg(1),
        };
        i.map_reads(|_| VReg(9));
        assert_eq!(
            i,
            RInsn::Move {
                dst: VReg(7),
                src: VReg(9)
            }
        );
    }
}
