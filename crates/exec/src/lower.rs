//! Abstract-stack → register lowering.
//!
//! Verified bytecode reaches every instruction with one fixed
//! operand-stack *shape* (which slots hold wide values), so lowering is
//! two passes over a method's basic blocks. Pass 1 is a shape-only
//! dataflow: it walks each reachable block from its leader, applying
//! each instruction's effect on the shape alone (no IR, no registers),
//! and records the shape only at block leaders, where paths merge,
//! erroring on merge disagreement. Pass 2 walks the body in order,
//! restarting from the recorded shape at each leader, and emits
//! register instructions, with stack slot `d` living in register
//! `max_locals + d`. Exception handlers enter with the thrown reference
//! at stack depth 0 — register `max_locals`.
//!
//! Lowering allocates per class or per method, never per instruction: a
//! [`Lowerer`] carries the buffers every method of one class reuses
//! (leader entries, recorded shapes, the worklist, the scratch shape,
//! the IR start of each instruction) and the class's call shapes by
//! constant-pool index, each descriptor counted once per class; the
//! emitted instructions fill one vector sized from the body.
//!
//! Lowering is total over hostile input: every malformed body —
//! truncated attributes, unreachable blocks, absurd stack depths, broken
//! wide pairs — produces a typed [`ExecError`], never a panic. The
//! constructs the tier does not lower (`jsr`/`ret` subroutines,
//! `multianewarray`, `ldc` of class constants) also error, leaving those
//! methods on the interpreter tier.

use dvm_bytecode::insn::{ArithOp, Insn, Kind};
use dvm_bytecode::Code;
use dvm_classfile::descriptor::MethodDescriptor;
use dvm_classfile::pool::{ConstPool, Constant};

use crate::error::{ExecError, Result};
use crate::ir::{CmpKind, Function, InvokeKind, RConst, RHandler, RInsn, VReg};

/// Stack-slot tags: a wide value occupies a base slot plus a tail slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// A one-slot value.
    Single,
    /// Base slot of a wide value.
    WideBase,
    /// Tail slot of a wide value.
    WideTail,
}

type Shape = Vec<Tag>;

/// Pops one value's tags, returning whether it was wide.
fn pop_tag(shape: &mut Shape, at: usize) -> Result<bool> {
    match shape.pop() {
        Some(Tag::Single) => Ok(false),
        Some(Tag::WideTail) => match shape.pop() {
            Some(Tag::WideBase) => Ok(true),
            _ => Err(ExecError::BadStack {
                at,
                reason: "broken wide pair".into(),
            }),
        },
        _ => Err(ExecError::BadStack {
            at,
            reason: "stack underflow".into(),
        }),
    }
}

fn push_tag(shape: &mut Shape, wide: bool) {
    if wide {
        shape.push(Tag::WideBase);
        shape.push(Tag::WideTail);
    } else {
        shape.push(Tag::Single);
    }
}

/// Errors unless the top of the stack is a one-slot value.
fn top_single(shape: &Shape, at: usize, what: &str) -> Result<()> {
    if shape.last() != Some(&Tag::Single) {
        return Err(ExecError::BadStack {
            at,
            reason: format!("{what} of wide or empty stack"),
        });
    }
    Ok(())
}

/// A popped value: the stack depth after its pop, and whether it is
/// wide.
type Popped = (usize, bool);

/// The values a `dup_x1`..`dup2_x2` pops, top first: a block of up to
/// two slots and as many skipped beneath it.
struct DupPops {
    values: [Popped; 4],
    count: usize,
    /// How many of the values form the duplicated block.
    block: usize,
}

impl DupPops {
    fn pop(insn: &Insn, shape: &mut Shape, at: usize) -> Result<DupPops> {
        let mut pops = DupPops {
            values: [(0, false); 4],
            count: 0,
            block: 0,
        };
        let top_slots: u16 = match insn {
            Insn::DupX1 | Insn::DupX2 => 1,
            _ => 2,
        };
        let mut slots = 0;
        while slots < top_slots {
            slots += if pops.one(shape, at)? { 2 } else { 1 };
        }
        pops.block = pops.count;
        match insn {
            Insn::Dup2 => {}
            Insn::DupX1 | Insn::Dup2X1 => {
                pops.one(shape, at)?;
            }
            Insn::DupX2 | Insn::Dup2X2 => {
                if !pops.one(shape, at)? {
                    pops.one(shape, at)?;
                }
            }
            _ => unreachable!("only the dup forms pop a block"),
        }
        Ok(pops)
    }

    fn one(&mut self, shape: &mut Shape, at: usize) -> Result<bool> {
        let wide = pop_tag(shape, at)?;
        self.values[self.count] = (shape.len(), wide);
        self.count += 1;
        Ok(wide)
    }

    /// The block and the skipped values, each top first.
    fn split(&self) -> (&[Popped], &[Popped]) {
        self.values[..self.count].split_at(self.block)
    }
}

/// Whether the field a `getstatic`/`getfield` at pool index `idx` reads
/// is wide.
fn field_is_wide(pool: &ConstPool, idx: u16) -> Result<bool> {
    let (_, _, d) = pool.get_member_ref(idx)?;
    Ok(matches!(d.as_bytes().first(), Some(b'J' | b'D')))
}

/// What a call site's descriptor says about the operand stack.
#[derive(Debug, Clone, Copy)]
struct CallShape {
    params: usize,
    /// `None` for `void`; otherwise whether the result is wide.
    ret_wide: Option<bool>,
}

/// One class's constant pool with its call shapes, by pool index,
/// counted on first use and kept for every method of the class.
struct Calls<'a> {
    pool: &'a ConstPool,
    shapes: Vec<Option<CallShape>>,
}

impl Calls<'_> {
    fn get(&mut self, idx: u16) -> Result<CallShape> {
        let i = idx as usize;
        if let Some(Some(call)) = self.shapes.get(i) {
            return Ok(*call);
        }
        let (_, _, d) = self.pool.get_member_ref(idx)?;
        let arity = MethodDescriptor::arity(d)?;
        let call = CallShape {
            params: arity.params,
            ret_wide: match arity.return_slots {
                0 => None,
                slots => Some(slots == 2),
            },
        };
        if self.shapes.len() <= i {
            self.shapes.resize(self.pool.len().max(i + 1), None);
        }
        self.shapes[i] = Some(call);
        Ok(call)
    }

    /// Pass 1's transfer: `insn`'s effect on the stack shape alone.
    fn shape_effect(&mut self, at: usize, insn: &Insn, shape: &mut Shape) -> Result<()> {
        /// The value an instruction pushes after its pops.
        enum Push {
            Nothing,
            Value(bool),
            /// A value as wide as the last one popped (the left operand).
            LikeOperand,
        }
        use Insn::*;
        let (pops, push) = match insn {
            Nop | IInc(..) | Goto(_) => (0, Push::Nothing),
            AConstNull | IConst(_) | FConst(_) | Ldc(_) | New(_) => (0, Push::Value(false)),
            LConst(_) | DConst(_) | Ldc2(_) => (0, Push::Value(true)),
            Load(kind, _) => (0, Push::Value(matches!(kind, Kind::Long | Kind::Double))),
            Store(..) | Pop | If(..) | IfNull(_) | IfNonNull(_) | PutStatic(_) | AThrow => {
                (1, Push::Nothing)
            }
            TableSwitch { .. } | LookupSwitch { .. } | MonitorEnter | MonitorExit => {
                (1, Push::Nothing)
            }
            Return(kind) => (usize::from(kind.is_some()), Push::Nothing),
            IfICmp(..) | IfACmp(..) | PutField(_) => (2, Push::Nothing),
            ArrayLoad(k) => (2, Push::Value(k.width() == 2)),
            ArrayStore(_) => (3, Push::Nothing),
            Arith(_, ArithOp::Neg) => (1, Push::LikeOperand),
            Arith(..) | Shift(..) | Logic(..) => (2, Push::LikeOperand),
            Convert(_, to) => (1, Push::Value(to.width() == 2)),
            LCmp | FCmp(_) | DCmp(_) => (2, Push::Value(false)),
            NewArray(_) | ANewArray(_) | ArrayLength | InstanceOf(_) => (1, Push::Value(false)),
            GetStatic(idx) => (0, Push::Value(field_is_wide(self.pool, *idx)?)),
            GetField(idx) => (1, Push::Value(field_is_wide(self.pool, *idx)?)),
            InvokeVirtual(idx) | InvokeSpecial(idx) | InvokeInterface(idx) | InvokeStatic(idx) => {
                let call = self.get(*idx)?;
                let receiver = usize::from(!matches!(insn, InvokeStatic(_)));
                let push = call.ret_wide.map_or(Push::Nothing, Push::Value);
                (call.params + receiver, push)
            }
            Pop2 => {
                if !pop_tag(shape, at)? {
                    pop_tag(shape, at)?;
                }
                return Ok(());
            }
            Dup => {
                top_single(shape, at, "dup")?;
                shape.push(Tag::Single);
                return Ok(());
            }
            CheckCast(_) => return top_single(shape, at, "checkcast"),
            Swap => {
                if shape.len() < 2 {
                    return Err(ExecError::BadStack {
                        at,
                        reason: "swap underflow".into(),
                    });
                }
                return Ok(());
            }
            DupX1 | DupX2 | Dup2 | Dup2X1 | Dup2X2 => {
                let pops = DupPops::pop(insn, shape, at)?;
                let (block, skipped) = pops.split();
                for group in [block, skipped, block] {
                    for &(_, wide) in group.iter().rev() {
                        push_tag(shape, wide);
                    }
                }
                return Ok(());
            }
            Jsr(_) | Ret(_) => return Err(ExecError::Unsupported("jsr/ret subroutines".into())),
            MultiANewArray(..) => return Err(ExecError::Unsupported("multianewarray".into())),
        };
        let mut wide = false;
        for _ in 0..pops {
            wide = pop_tag(shape, at)?;
        }
        match push {
            Push::Nothing => {}
            Push::Value(w) => push_tag(shape, w),
            Push::LikeOperand => push_tag(shape, wide),
        }
        Ok(())
    }
}

/// Pass 2's emitter for one method.
struct Lower<'c, 'a> {
    calls: &'c mut Calls<'a>,
    max_locals: u16,
    ops: Vec<RInsn>,
    /// Highest register index used + 1, tracked as u32 to detect
    /// overflow of the 16-bit register namespace.
    peak: u32,
}

impl Lower<'_, '_> {
    fn push(&mut self, op: RInsn) {
        self.ops.push(op);
    }

    /// Register for stack slot `slot`, range-checked.
    fn sreg(&mut self, slot: usize) -> Result<VReg> {
        let idx = self.max_locals as u32 + slot as u32;
        if idx >= u16::MAX as u32 {
            return Err(ExecError::TooManyRegs(idx + 1));
        }
        self.peak = self.peak.max(idx + 1);
        Ok(VReg(idx as u16))
    }

    /// Register for local slot `slot`, used by the instruction at `at`.
    fn lreg(&mut self, slot: u16, at: usize) -> Result<VReg> {
        if slot >= self.max_locals {
            // Hostile bodies may index past max_locals; verified code
            // cannot.
            return Err(ExecError::BadStack {
                at,
                reason: format!("local {slot} outside max_locals {}", self.max_locals),
            });
        }
        self.peak = self.peak.max(slot as u32 + 1);
        Ok(VReg(slot))
    }

    fn pop_value(&mut self, shape: &mut Shape, at: usize) -> Result<(VReg, bool)> {
        let wide = pop_tag(shape, at)?;
        Ok((self.sreg(shape.len())?, wide))
    }

    fn push_value(&mut self, shape: &mut Shape, wide: bool) -> Result<VReg> {
        let r = self.sreg(shape.len())?;
        push_tag(shape, wide);
        Ok(r)
    }

    /// Translates one instruction; mutates `shape` to the exit shape.
    #[allow(clippy::too_many_lines)]
    fn transfer(&mut self, at: usize, insn: &Insn, shape: &mut Shape) -> Result<()> {
        match insn {
            Insn::Nop => {}
            Insn::AConstNull => {
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::Const {
                    dst,
                    v: RConst::Null,
                });
            }
            Insn::IConst(v) => {
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::Const {
                    dst,
                    v: RConst::Int(*v),
                });
            }
            Insn::LConst(v) => {
                let dst = self.push_value(shape, true)?;
                self.push(RInsn::Const {
                    dst,
                    v: RConst::Long(*v),
                });
            }
            Insn::FConst(v) => {
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::Const {
                    dst,
                    v: RConst::Float(*v),
                });
            }
            Insn::DConst(v) => {
                let dst = self.push_value(shape, true)?;
                self.push(RInsn::Const {
                    dst,
                    v: RConst::Double(*v),
                });
            }
            Insn::Ldc(idx) => {
                let v = match self.calls.pool.get(*idx)? {
                    Constant::Integer(v) => RConst::Int(*v),
                    Constant::Float(v) => RConst::Float(*v),
                    Constant::String { .. } => RConst::Str(*idx),
                    other => {
                        return Err(ExecError::Unsupported(format!("ldc of {}", other.kind())))
                    }
                };
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::Const { dst, v });
            }
            Insn::Ldc2(idx) => {
                let v = match self.calls.pool.get(*idx)? {
                    Constant::Long(v) => RConst::Long(*v),
                    Constant::Double(v) => RConst::Double(*v),
                    other => {
                        return Err(ExecError::BadStack {
                            at,
                            reason: format!("ldc2 of {}", other.kind()),
                        })
                    }
                };
                let dst = self.push_value(shape, true)?;
                self.push(RInsn::Const { dst, v });
            }
            Insn::Load(kind, slot) => {
                let src = self.lreg(*slot, at)?;
                let wide = matches!(kind, Kind::Long | Kind::Double);
                let dst = self.push_value(shape, wide)?;
                self.push(RInsn::Move { dst, src });
            }
            Insn::Store(_, slot) => {
                let (src, _) = self.pop_value(shape, at)?;
                let dst = self.lreg(*slot, at)?;
                self.push(RInsn::Move { dst, src });
            }
            Insn::ArrayLoad(k) => {
                let (index, _) = self.pop_value(shape, at)?;
                let (arr, _) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, k.width() == 2)?;
                self.push(RInsn::ArrayLoad {
                    akind: *k,
                    arr,
                    index,
                    dst,
                });
            }
            Insn::ArrayStore(k) => {
                let (src, _) = self.pop_value(shape, at)?;
                let (index, _) = self.pop_value(shape, at)?;
                let (arr, _) = self.pop_value(shape, at)?;
                self.push(RInsn::ArrayStore {
                    akind: *k,
                    arr,
                    index,
                    src,
                });
            }
            Insn::Pop => {
                self.pop_value(shape, at)?;
            }
            Insn::Pop2 => {
                let (_, wide) = self.pop_value(shape, at)?;
                if !wide {
                    self.pop_value(shape, at)?;
                }
            }
            Insn::Dup => {
                top_single(shape, at, "dup")?;
                let src = self.sreg(shape.len() - 1)?;
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::Move { dst, src });
            }
            Insn::DupX1 | Insn::DupX2 | Insn::Dup2 | Insn::Dup2X1 | Insn::Dup2X2 => {
                self.dup_form(at, insn, shape)?;
            }
            Insn::Swap => {
                if shape.len() < 2 {
                    return Err(ExecError::BadStack {
                        at,
                        reason: "swap underflow".into(),
                    });
                }
                let a = self.sreg(shape.len() - 1)?;
                let b = self.sreg(shape.len() - 2)?;
                let t = self.sreg(shape.len())?;
                self.push(RInsn::Move { dst: t, src: a });
                self.push(RInsn::Move { dst: a, src: b });
                self.push(RInsn::Move { dst: b, src: t });
            }
            Insn::Arith(kind, op) => {
                if *op == ArithOp::Neg {
                    let (src, wide) = self.pop_value(shape, at)?;
                    let dst = self.push_value(shape, wide)?;
                    self.push(RInsn::Neg {
                        kind: *kind,
                        dst,
                        src,
                    });
                } else {
                    let (b, _) = self.pop_value(shape, at)?;
                    let (a, wide) = self.pop_value(shape, at)?;
                    let dst = self.push_value(shape, wide)?;
                    self.push(RInsn::Arith {
                        kind: *kind,
                        op: *op,
                        dst,
                        a,
                        b,
                    });
                }
            }
            Insn::Shift(kind, op) => {
                let (b, _) = self.pop_value(shape, at)?;
                let (a, wide) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, wide)?;
                self.push(RInsn::Shift {
                    kind: *kind,
                    op: *op,
                    dst,
                    a,
                    b,
                });
            }
            Insn::Logic(kind, op) => {
                let (b, _) = self.pop_value(shape, at)?;
                let (a, wide) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, wide)?;
                self.push(RInsn::Logic {
                    kind: *kind,
                    op: *op,
                    dst,
                    a,
                    b,
                });
            }
            Insn::IInc(slot, delta) => {
                let r = self.lreg(*slot, at)?;
                self.push(RInsn::ArithImm {
                    op: ArithOp::Add,
                    dst: r,
                    src: r,
                    imm: *delta as i32,
                });
            }
            Insn::Convert(from, to) => {
                let (src, _) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, to.width() == 2)?;
                self.push(RInsn::Convert {
                    from: *from,
                    to: *to,
                    dst,
                    src,
                });
            }
            Insn::LCmp => {
                let (b, _) = self.pop_value(shape, at)?;
                let (a, _) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::Cmp {
                    kind: CmpKind::Long,
                    dst,
                    a,
                    b,
                });
            }
            Insn::FCmp(g) => {
                let (b, _) = self.pop_value(shape, at)?;
                let (a, _) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::Cmp {
                    kind: CmpKind::Float(*g),
                    dst,
                    a,
                    b,
                });
            }
            Insn::DCmp(g) => {
                let (b, _) = self.pop_value(shape, at)?;
                let (a, _) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::Cmp {
                    kind: CmpKind::Double(*g),
                    dst,
                    a,
                    b,
                });
            }
            Insn::If(c, t) => {
                let (a, _) = self.pop_value(shape, at)?;
                self.push(RInsn::If {
                    cond: *c,
                    a,
                    b: None,
                    target: *t,
                });
            }
            Insn::IfICmp(c, t) => {
                let (b, _) = self.pop_value(shape, at)?;
                let (a, _) = self.pop_value(shape, at)?;
                self.push(RInsn::If {
                    cond: *c,
                    a,
                    b: Some(b),
                    target: *t,
                });
            }
            Insn::IfACmp(eq, t) => {
                let (b, _) = self.pop_value(shape, at)?;
                let (a, _) = self.pop_value(shape, at)?;
                self.push(RInsn::IfRef {
                    eq: *eq,
                    a,
                    b: Some(b),
                    target: *t,
                });
            }
            Insn::IfNull(t) => {
                let (a, _) = self.pop_value(shape, at)?;
                self.push(RInsn::IfRef {
                    eq: true,
                    a,
                    b: None,
                    target: *t,
                });
            }
            Insn::IfNonNull(t) => {
                let (a, _) = self.pop_value(shape, at)?;
                self.push(RInsn::IfRef {
                    eq: false,
                    a,
                    b: None,
                    target: *t,
                });
            }
            Insn::Goto(t) => self.push(RInsn::Goto { target: *t }),
            Insn::Jsr(_) | Insn::Ret(_) => {
                return Err(ExecError::Unsupported("jsr/ret subroutines".into()));
            }
            Insn::TableSwitch {
                default,
                low,
                targets,
            } => {
                let (on, _) = self.pop_value(shape, at)?;
                self.push(RInsn::TableSwitch {
                    on,
                    low: *low,
                    targets: targets.clone(),
                    default: *default,
                });
            }
            Insn::LookupSwitch { default, pairs } => {
                let (on, _) = self.pop_value(shape, at)?;
                self.push(RInsn::LookupSwitch {
                    on,
                    pairs: pairs.clone(),
                    default: *default,
                });
            }
            Insn::Return(kind) => {
                let src = match kind {
                    Some(_) => Some(self.pop_value(shape, at)?.0),
                    None => None,
                };
                self.push(RInsn::Return { src });
            }
            Insn::GetStatic(idx) => {
                let wide = field_is_wide(self.calls.pool, *idx)?;
                let dst = self.push_value(shape, wide)?;
                self.push(RInsn::GetStatic { idx: *idx, dst });
            }
            Insn::PutStatic(idx) => {
                let (src, _) = self.pop_value(shape, at)?;
                self.push(RInsn::PutStatic { idx: *idx, src });
            }
            Insn::GetField(idx) => {
                let wide = field_is_wide(self.calls.pool, *idx)?;
                let (obj, _) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, wide)?;
                self.push(RInsn::GetField {
                    idx: *idx,
                    obj,
                    dst,
                });
            }
            Insn::PutField(idx) => {
                let (src, _) = self.pop_value(shape, at)?;
                let (obj, _) = self.pop_value(shape, at)?;
                self.push(RInsn::PutField {
                    idx: *idx,
                    obj,
                    src,
                });
            }
            Insn::InvokeVirtual(idx) => self.call(at, *idx, shape, InvokeKind::Virtual)?,
            Insn::InvokeSpecial(idx) => self.call(at, *idx, shape, InvokeKind::Special)?,
            Insn::InvokeStatic(idx) => self.call(at, *idx, shape, InvokeKind::Static)?,
            Insn::InvokeInterface(idx) => self.call(at, *idx, shape, InvokeKind::Interface)?,
            Insn::New(idx) => {
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::New { idx: *idx, dst });
            }
            Insn::NewArray(k) => {
                let (len, _) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::NewArray {
                    akind: *k,
                    len,
                    dst,
                });
            }
            Insn::ANewArray(idx) => {
                let (len, _) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::ANewArray {
                    idx: *idx,
                    len,
                    dst,
                });
            }
            Insn::ArrayLength => {
                let (arr, _) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::ArrayLength { arr, dst });
            }
            Insn::AThrow => {
                let (exc, _) = self.pop_value(shape, at)?;
                self.push(RInsn::AThrow { exc });
            }
            Insn::CheckCast(idx) => {
                top_single(shape, at, "checkcast")?;
                let obj = self.sreg(shape.len() - 1)?;
                self.push(RInsn::CheckCast { idx: *idx, obj });
            }
            Insn::InstanceOf(idx) => {
                let (obj, _) = self.pop_value(shape, at)?;
                let dst = self.push_value(shape, false)?;
                self.push(RInsn::InstanceOf {
                    idx: *idx,
                    obj,
                    dst,
                });
            }
            Insn::MonitorEnter => {
                let (obj, _) = self.pop_value(shape, at)?;
                self.push(RInsn::Monitor { enter: true, obj });
            }
            Insn::MonitorExit => {
                let (obj, _) = self.pop_value(shape, at)?;
                self.push(RInsn::Monitor { enter: false, obj });
            }
            Insn::MultiANewArray(_, _) => {
                return Err(ExecError::Unsupported("multianewarray".into()));
            }
        }
        Ok(())
    }

    fn dup_form(&mut self, at: usize, insn: &Insn, shape: &mut Shape) -> Result<()> {
        // Pop the blocks, then re-push with moves mirroring the
        // interpreter's slot shuffling, staged through scratch registers
        // above the live stack.
        let pops = DupPops::pop(insn, shape, at)?;
        let popped = &pops.values[..pops.count];
        // Stage originals into scratch registers above everything.
        let scratch_base = shape.len()
            + popped
                .iter()
                .map(|(_, w)| if *w { 2 } else { 1 })
                .sum::<usize>()
                * 2
            + 4;
        let mut staged = [(VReg(0), false); 4];
        for (i, &(depth, w)) in popped.iter().enumerate() {
            let r = self.sreg(depth)?;
            let s = self.sreg(scratch_base + i * 2)?;
            self.push(RInsn::Move { dst: s, src: r });
            staged[i] = (s, w);
        }
        let (staged_block, staged_skipped) = staged[..pops.count].split_at(pops.block);
        // Final layout bottom-up: block copy, skipped, block.
        for group in [staged_block, staged_skipped, staged_block] {
            for (src, wide) in group.iter().rev() {
                let dst = self.push_value(shape, *wide)?;
                self.push(RInsn::Move { dst, src: *src });
            }
        }
        Ok(())
    }

    fn call(&mut self, at: usize, idx: u16, shape: &mut Shape, kind: InvokeKind) -> Result<()> {
        let call = self.calls.get(idx)?;
        let receiver = usize::from(kind != InvokeKind::Static);
        let mut args = Vec::with_capacity(call.params + receiver);
        for _ in 0..call.params + receiver {
            args.push(self.pop_value(shape, at)?.0);
        }
        args.reverse();
        let dst = match call.ret_wide {
            Some(wide) => Some(self.push_value(shape, wide)?),
            None => None,
        };
        self.push(RInsn::Invoke {
            kind,
            idx,
            args,
            dst,
        });
        Ok(())
    }
}

/// What pass 1 knows of an instruction.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// Not a leader: reached only by falling through from the previous
    /// instruction. Unreached so far.
    Inner,
    /// An inner instruction pass 1 walked.
    Walked,
    /// A leader no path has reached yet.
    Leader,
    /// A reached leader and its entry shape, `tags[start..start + len]`.
    /// A recorded shape never changes (every later path must agree with
    /// it), so recording only appends.
    Reached { start: usize, len: usize },
}

/// Lowering for the methods of one class: the buffers every method
/// reuses and the class's call shapes, by constant-pool index.
pub struct Lowerer<'a> {
    calls: Calls<'a>,
    entries: Vec<Entry>,
    tags: Vec<Tag>,
    work: Vec<usize>,
    shape: Shape,
    ir_start: Vec<usize>,
}

impl<'a> Lowerer<'a> {
    /// Lowering for methods whose bodies index `pool`.
    pub fn new(pool: &'a ConstPool) -> Lowerer<'a> {
        Lowerer {
            calls: Calls {
                pool,
                shapes: Vec::new(),
            },
            entries: Vec::new(),
            tags: Vec::new(),
            work: Vec::new(),
            shape: Vec::new(),
            ir_start: Vec::new(),
        }
    }

    /// Records leader `at`'s entry shape on the first path that reaches
    /// it and queues it; later paths must agree.
    fn reach(&mut self, at: usize) -> Result<()> {
        match self.entries[at] {
            Entry::Reached { start, len } => {
                if self.tags[start..start + len] != *self.shape {
                    return Err(ExecError::BadStack {
                        at,
                        reason: "stack shape mismatch at merge".into(),
                    });
                }
            }
            _ => {
                self.entries[at] = Entry::Reached {
                    start: self.tags.len(),
                    len: self.shape.len(),
                };
                self.tags.extend_from_slice(&self.shape);
                self.work.push(at);
            }
        }
        Ok(())
    }

    /// Pass 1: walks every reachable block from its leader through the
    /// shape-only transfer, recording entry shapes at leaders and marking
    /// the inner instructions it walks.
    fn shapes(&mut self, code: &Code) -> Result<()> {
        let n = code.insns.len();
        self.entries.clear();
        self.entries.resize(n, Entry::Inner);
        self.tags.clear();
        self.work.clear();
        self.entries[0] = Entry::Leader;
        // Marking leaders is also the range check on branch targets and
        // handlers; `Code::validate_targets` names the first bad one.
        let mut in_range = true;
        for insn in &code.insns {
            insn.for_each_target(|t| match self.entries.get_mut(t) {
                Some(entry) => *entry = Entry::Leader,
                None => in_range = false,
            });
        }
        for h in &code.handlers {
            in_range &= h.start <= n && h.end <= n && h.handler < n;
            if let Some(entry) = self.entries.get_mut(h.handler) {
                *entry = Entry::Leader;
            }
        }
        if !in_range {
            let bad = code
                .validate_targets()
                .expect_err("a target is out of range");
            return Err(bad.into());
        }
        self.shape.clear();
        self.reach(0)?;
        self.shape.push(Tag::Single);
        for h in &code.handlers {
            if !matches!(self.entries[h.handler], Entry::Reached { .. }) {
                self.reach(h.handler)?;
            }
        }
        while let Some(leader) = self.work.pop() {
            let Entry::Reached { start, len } = self.entries[leader] else {
                unreachable!("only reached leaders are queued");
            };
            self.shape.clear();
            self.shape.extend_from_slice(&self.tags[start..start + len]);
            let mut i = leader;
            loop {
                let insn = &code.insns[i];
                self.calls.shape_effect(i, insn, &mut self.shape)?;
                let mut merge = Ok(());
                insn.for_each_target(|t| {
                    if merge.is_ok() {
                        merge = self.reach(t);
                    }
                });
                merge?;
                if !insn.can_fall_through() {
                    break;
                }
                i += 1;
                if i >= n {
                    return Err(ExecError::BadTarget { index: i, len: n });
                }
                match self.entries[i] {
                    Entry::Inner => self.entries[i] = Entry::Walked,
                    _ => {
                        self.reach(i)?;
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Lowers one decoded method body into a register [`Function`].
    ///
    /// The returned function is unoptimized; run it through
    /// [`crate::passes::optimize`] before installing or caching it.
    pub fn lower(&mut self, code: &Code, name: &str, descriptor: &str) -> Result<Function> {
        let n = code.insns.len();
        if n == 0 {
            return Err(ExecError::EmptyBody);
        }
        self.shapes(code)?;

        // Pass 2: emit IR, recording where each bytecode instruction
        // begins. An empty translation (nop, pop) or an unreachable
        // instruction begins where the next emitted one does.
        let mut xl = Lower {
            calls: &mut self.calls,
            max_locals: code.max_locals,
            ops: Vec::with_capacity(n),
            peak: code.max_locals as u32,
        };
        self.ir_start.clear();
        self.ir_start.resize(n + 1, 0);
        for (i, insn) in code.insns.iter().enumerate() {
            self.ir_start[i] = xl.ops.len();
            match self.entries[i] {
                Entry::Reached { start, len } => {
                    self.shape.clear();
                    self.shape.extend_from_slice(&self.tags[start..start + len]);
                }
                Entry::Walked => {}
                Entry::Inner | Entry::Leader => continue,
            }
            xl.transfer(i, insn, &mut self.shape)?;
        }
        self.ir_start[n] = xl.ops.len();
        let resolved = &self.ir_start;
        let mut ops = xl.ops;
        let end = ops.len();
        for op in &mut ops {
            let mut past_end = None;
            op.map_targets(|bc| {
                let t = resolved[bc];
                if t >= end {
                    past_end.get_or_insert(t);
                }
                t
            });
            if let Some(t) = past_end {
                // The branch falls off the end of the body after empty
                // translations; verified code cannot do this.
                return Err(ExecError::BadTarget { index: t, len: end });
            }
        }

        let mut handlers = Vec::with_capacity(code.handlers.len());
        for h in &code.handlers {
            let (start, hend, target) = (resolved[h.start], resolved[h.end], resolved[h.handler]);
            if start >= hend {
                // Protected range lowered to nothing: the handler can never
                // fire.
                continue;
            }
            if target >= end {
                return Err(ExecError::BadTarget {
                    index: target,
                    len: end,
                });
            }
            handlers.push(RHandler {
                start,
                end: hend,
                handler: target,
                catch_type: h.catch_type,
            });
        }

        if xl.peak >= u16::MAX as u32 {
            return Err(ExecError::TooManyRegs(xl.peak));
        }
        Ok(Function {
            name: name.to_owned(),
            descriptor: descriptor.to_owned(),
            insns: ops,
            handlers,
            max_locals: code.max_locals,
            num_regs: xl.peak.max(code.max_locals as u32 + 1) as u16,
        })
    }
}

/// Lowers one decoded method body into a register [`Function`]; a
/// [`Lowerer`] lowers many methods of one class without re-allocating.
///
/// The returned function is unoptimized; run it through
/// [`crate::passes::optimize`] before installing or caching it.
pub fn lower(code: &Code, pool: &ConstPool, name: &str, descriptor: &str) -> Result<Function> {
    Lowerer::new(pool).lower(code, name, descriptor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_bytecode::asm::Asm;
    use dvm_bytecode::insn::ICond;

    #[test]
    fn straight_line_arithmetic() {
        let pool = ConstPool::new();
        let mut a = Asm::new(2);
        a.iload(0).iload(1).iadd().ret_val(Kind::Int);
        let code = a.finish().unwrap();
        let f = lower(&code, &pool, "add", "(II)I").unwrap();
        assert_eq!(f.insns.len(), 4);
        assert!(matches!(
            f.insns[2],
            RInsn::Arith {
                op: ArithOp::Add,
                ..
            }
        ));
        assert!(matches!(f.insns[3], RInsn::Return { src: Some(_) }));
        assert_eq!(f.max_locals, 2);
        assert!(f.num_regs >= 4);
    }

    #[test]
    fn loop_lowered_with_correct_targets() {
        let pool = ConstPool::new();
        let mut a = Asm::new(2);
        let top = a.new_label();
        let done = a.new_label();
        a.iconst(0).istore(1);
        a.place(top);
        a.iload(1).iconst(10).if_icmp(ICond::Ge, done);
        a.iinc(1, 1).goto(top);
        a.place(done);
        a.ret();
        let code = a.finish().unwrap();
        let f = lower(&code, &pool, "spin", "()V").unwrap();
        let gotos: Vec<usize> = f
            .insns
            .iter()
            .filter_map(|op| match op {
                RInsn::Goto { target } => Some(*target),
                _ => None,
            })
            .collect();
        assert_eq!(gotos, vec![2]); // const, move, [loop head]
        assert!(f
            .insns
            .iter()
            .any(|op| matches!(op, RInsn::ArithImm { imm: 1, .. })));
    }

    #[test]
    fn iinc_lowers_to_one_instruction() {
        let pool = ConstPool::new();
        let mut a = Asm::new(1);
        a.iinc(0, 5).ret();
        let code = a.finish().unwrap();
        let f = lower(&code, &pool, "bump", "()V").unwrap();
        assert_eq!(f.insns.len(), 2);
        assert_eq!(
            f.insns[0],
            RInsn::ArithImm {
                op: ArithOp::Add,
                dst: VReg(0),
                src: VReg(0),
                imm: 5
            }
        );
    }

    #[test]
    fn calls_collect_arguments() {
        let mut pool = ConstPool::new();
        let m = pool.methodref("F", "f", "(IJ)D").unwrap();
        let mut a = Asm::new(4);
        a.iload(0).lload(1);
        a.invokestatic(m);
        a.raw(Insn::Pop2);
        a.ret();
        let code = a.finish().unwrap();
        let f = lower(&code, &pool, "c", "()V").unwrap();
        let call = f
            .insns
            .iter()
            .find_map(|op| match op {
                RInsn::Invoke {
                    kind,
                    idx,
                    args,
                    dst,
                } => Some((*kind, *idx, args.len(), dst.is_some())),
                _ => None,
            })
            .unwrap();
        // The wide `long` argument takes one register, and the `double`
        // result gets one.
        assert_eq!(call, (InvokeKind::Static, m, 2, true));
    }

    #[test]
    fn jsr_is_rejected_as_unsupported() {
        let pool = ConstPool::new();
        let code = Code {
            insns: vec![Insn::Jsr(1), Insn::Return(None)],
            handlers: vec![],
            max_locals: 1,
        };
        assert!(matches!(
            lower(&code, &pool, "sub", "()V"),
            Err(ExecError::Unsupported(_))
        ));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let pool = ConstPool::new();
        let code = Code {
            insns: vec![
                Insn::IConst(1),
                Insn::If(ICond::Eq, 3),
                Insn::IConst(7),
                Insn::Return(None),
            ],
            handlers: vec![],
            max_locals: 0,
        };
        assert!(matches!(
            lower(&code, &pool, "bad", "()V"),
            Err(ExecError::BadStack { .. })
        ));
    }

    #[test]
    fn underflow_is_a_typed_error() {
        let pool = ConstPool::new();
        let code = Code {
            insns: vec![Insn::Pop, Insn::Return(None)],
            handlers: vec![],
            max_locals: 0,
        };
        assert!(matches!(
            lower(&code, &pool, "uf", "()V"),
            Err(ExecError::BadStack { .. })
        ));
    }

    #[test]
    fn empty_body_is_a_typed_error() {
        let pool = ConstPool::new();
        let code = Code::new(0);
        assert_eq!(lower(&code, &pool, "e", "()V"), Err(ExecError::EmptyBody));
    }

    #[test]
    fn out_of_range_target_is_a_typed_error() {
        let pool = ConstPool::new();
        let code = Code {
            insns: vec![Insn::Goto(99)],
            handlers: vec![],
            max_locals: 0,
        };
        assert!(matches!(
            lower(&code, &pool, "oor", "()V"),
            Err(ExecError::Bytecode(_))
        ));
    }

    #[test]
    fn handlers_map_to_ir_ranges() {
        let mut pool = ConstPool::new();
        let exc = pool.class("java/lang/Exception").unwrap();
        let code = Code {
            insns: vec![
                Insn::IConst(1),
                Insn::Pop,
                Insn::Goto(4),
                Insn::Return(None), // handler: stack [exc]; unreachable fall-in
                Insn::Return(None),
            ],
            handlers: vec![dvm_bytecode::code::Handler {
                start: 0,
                end: 2,
                handler: 3,
                catch_type: exc,
            }],
            max_locals: 0,
        };
        // Handler at 3 enters with the exception at stack depth 0 and
        // returns void — underflow? No: Return(None) pops nothing.
        let f = lower(&code, &pool, "h", "()V").unwrap();
        assert_eq!(f.handlers.len(), 1);
        assert_eq!(f.handlers[0].catch_type, exc);
    }

    #[test]
    fn unreachable_code_is_skipped() {
        let pool = ConstPool::new();
        let code = Code {
            insns: vec![
                Insn::Return(None),
                Insn::Pop, // unreachable; would underflow if analyzed
                Insn::Return(None),
            ],
            handlers: vec![],
            max_locals: 0,
        };
        let f = lower(&code, &pool, "ur", "()V").unwrap();
        assert_eq!(f.insns.len(), 1);
    }

    #[test]
    fn local_out_of_range_reports_the_instruction_that_used_it() {
        let pool = ConstPool::new();
        let code = Code {
            insns: vec![
                Insn::IConst(1),
                Insn::Store(Kind::Int, 0),
                Insn::IInc(1, 1),
                Insn::Load(Kind::Int, 5),
                Insn::Return(Some(Kind::Int)),
            ],
            handlers: vec![],
            max_locals: 2,
        };
        assert!(matches!(
            lower(&code, &pool, "loc", "()I"),
            Err(ExecError::BadStack { at: 3, .. })
        ));
    }

    #[test]
    fn local_out_of_range_is_a_typed_error() {
        let pool = ConstPool::new();
        let code = Code {
            insns: vec![Insn::Load(Kind::Int, 40), Insn::Return(Some(Kind::Int))],
            handlers: vec![],
            max_locals: 1,
        };
        assert!(matches!(
            lower(&code, &pool, "loc", "()I"),
            Err(ExecError::BadStack { .. })
        ));
    }
}
