//! Abstract-stack → register lowering.
//!
//! Verified bytecode reaches every instruction with one fixed
//! operand-stack *shape*, so lowering is a two-pass dataflow: pass 1
//! computes the shape (which slots hold wide values) at every reachable
//! instruction, erroring on merge disagreement; pass 2 emits register
//! instructions, with stack slot `d` living in register
//! `max_locals + d`. Exception handlers enter with the thrown reference
//! at stack depth 0 — register `max_locals`.
//!
//! Lowering allocates per method, never per instruction: the entry
//! shapes of all instructions share one buffer, both passes transfer
//! through one reused scratch shape, and each call site's descriptor is
//! parsed once for both passes.
//!
//! Lowering is total over hostile input: every malformed body —
//! truncated attributes, unreachable blocks, absurd stack depths, broken
//! wide pairs — produces a typed [`ExecError`], never a panic. The
//! constructs the tier does not lower (`jsr`/`ret` subroutines,
//! `multianewarray`, `ldc` of class constants) also error, leaving those
//! methods on the interpreter tier.

use std::collections::HashMap;

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

/// The entry shapes of a method's reachable instructions, packed into one
/// buffer: instruction `i`'s shape is `tags[start..start + len]` once
/// `at[i]` is `Some((start, len))`. A recorded shape never changes (every
/// later path must agree with it), so recording only appends.
struct Shapes {
    tags: Vec<Tag>,
    at: Vec<Option<(usize, usize)>>,
}

impl Shapes {
    fn get(&self, i: usize) -> Option<&[Tag]> {
        self.at[i].map(|(start, len)| &self.tags[start..start + len])
    }

    fn record(&mut self, i: usize, shape: &[Tag]) {
        self.at[i] = Some((self.tags.len(), shape.len()));
        self.tags.extend_from_slice(shape);
    }
}

/// What a call site's descriptor says about the operand stack.
#[derive(Debug, Clone, Copy)]
struct CallShape {
    params: usize,
    /// `None` for `void`; otherwise whether the result is wide.
    ret_wide: Option<bool>,
}

struct Lower<'a> {
    pool: &'a ConstPool,
    max_locals: u16,
    ops: Vec<RInsn>,
    emit: bool,
    /// Highest register index used + 1, tracked as u32 to detect
    /// overflow of the 16-bit register namespace.
    peak: u32,
    /// Call shapes by `Methodref` index, parsed once for both passes.
    calls: HashMap<u16, CallShape>,
}

impl Lower<'_> {
    fn push(&mut self, op: RInsn) {
        if self.emit {
            self.ops.push(op);
        }
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
        match shape.pop() {
            Some(Tag::Single) => Ok((self.sreg(shape.len())?, false)),
            Some(Tag::WideTail) => match shape.pop() {
                Some(Tag::WideBase) => Ok((self.sreg(shape.len())?, true)),
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

    fn push_value(&mut self, shape: &mut Shape, wide: bool) -> Result<VReg> {
        let r = self.sreg(shape.len())?;
        if wide {
            shape.push(Tag::WideBase);
            shape.push(Tag::WideTail);
        } else {
            shape.push(Tag::Single);
        }
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
                let v = match self.pool.get(*idx)? {
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
                let v = match self.pool.get(*idx)? {
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
                if shape.last() != Some(&Tag::Single) {
                    return Err(ExecError::BadStack {
                        at,
                        reason: "dup of wide or empty stack".into(),
                    });
                }
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
                if self.emit {
                    self.push(RInsn::TableSwitch {
                        on,
                        low: *low,
                        targets: targets.clone(),
                        default: *default,
                    });
                }
            }
            Insn::LookupSwitch { default, pairs } => {
                let (on, _) = self.pop_value(shape, at)?;
                if self.emit {
                    self.push(RInsn::LookupSwitch {
                        on,
                        pairs: pairs.clone(),
                        default: *default,
                    });
                }
            }
            Insn::Return(kind) => {
                let src = match kind {
                    Some(_) => Some(self.pop_value(shape, at)?.0),
                    None => None,
                };
                self.push(RInsn::Return { src });
            }
            Insn::GetStatic(idx) => {
                let (_, _, d) = self.pool.get_member_ref(*idx)?;
                let wide = matches!(d.as_bytes().first(), Some(b'J' | b'D'));
                let dst = self.push_value(shape, wide)?;
                self.push(RInsn::GetStatic { idx: *idx, dst });
            }
            Insn::PutStatic(idx) => {
                let (src, _) = self.pop_value(shape, at)?;
                self.push(RInsn::PutStatic { idx: *idx, src });
            }
            Insn::GetField(idx) => {
                let (_, _, d) = self.pool.get_member_ref(*idx)?;
                let wide = matches!(d.as_bytes().first(), Some(b'J' | b'D'));
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
                if shape.last() != Some(&Tag::Single) {
                    return Err(ExecError::BadStack {
                        at,
                        reason: "checkcast of wide or empty stack".into(),
                    });
                }
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
        // above the live stack. At most four values take part: a block
        // of up to two slots and as many skipped beneath it.
        let top_slots: u16 = match insn {
            Insn::DupX1 | Insn::DupX2 => 1,
            _ => 2,
        };
        let mut popped = [(VReg(0), false); 4];
        let mut count = 0;
        let mut slots = 0;
        while slots < top_slots {
            let (r, wide) = self.pop_value(shape, at)?;
            slots += if wide { 2 } else { 1 };
            popped[count] = (r, wide);
            count += 1;
        }
        let block = count;
        match insn {
            Insn::Dup2 => {}
            Insn::DupX1 | Insn::Dup2X1 => {
                popped[count] = self.pop_value(shape, at)?;
                count += 1;
            }
            Insn::DupX2 | Insn::Dup2X2 => {
                let (r, wide) = self.pop_value(shape, at)?;
                popped[count] = (r, wide);
                count += 1;
                if !wide {
                    popped[count] = self.pop_value(shape, at)?;
                    count += 1;
                }
            }
            _ => unreachable!(),
        }
        let popped = &popped[..count];
        // Stage originals into scratch registers above everything.
        let scratch_base = shape.len()
            + popped
                .iter()
                .map(|(_, w)| if *w { 2 } else { 1 })
                .sum::<usize>()
                * 2
            + 4;
        let mut staged = [(VReg(0), false); 4];
        for (i, (r, w)) in popped.iter().enumerate() {
            let s = self.sreg(scratch_base + i * 2)?;
            self.push(RInsn::Move { dst: s, src: *r });
            staged[i] = (s, *w);
        }
        let (staged_block, staged_skipped) = staged[..count].split_at(block);
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
        let call = match self.calls.get(&idx) {
            Some(&call) => call,
            None => {
                let (_, _, d) = self.pool.get_member_ref(idx)?;
                let desc = MethodDescriptor::parse(d)?;
                let call = CallShape {
                    params: desc.params.len(),
                    ret_wide: desc.ret.as_ref().map(|rt| rt.slot_width() == 2),
                };
                self.calls.insert(idx, call);
                call
            }
        };
        // Pass 1 only needs the shape: it pops without keeping registers.
        let mut args = Vec::new();
        for _ in 0..call.params {
            let (r, _) = self.pop_value(shape, at)?;
            if self.emit {
                args.push(r);
            }
        }
        if kind != InvokeKind::Static {
            let (r, _) = self.pop_value(shape, at)?;
            if self.emit {
                args.push(r);
            }
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

/// Lowers one decoded method body into a register [`Function`].
///
/// The returned function is unoptimized; run it through
/// [`crate::passes::optimize`] before installing or caching it.
pub fn lower(code: &Code, pool: &ConstPool, name: &str, descriptor: &str) -> Result<Function> {
    let n = code.insns.len();
    if n == 0 {
        return Err(ExecError::EmptyBody);
    }
    // Degenerate local indices and branch targets error before any pass
    // can index out of range.
    code.validate_targets()?;

    // Pass 1: entry shapes by dataflow.
    let mut shapes = Shapes {
        tags: Vec::new(),
        at: vec![None; n],
    };
    let mut work = vec![0usize];
    shapes.record(0, &[]);
    for h in &code.handlers {
        if h.handler < n && shapes.get(h.handler).is_none() {
            shapes.record(h.handler, &[Tag::Single]);
            work.push(h.handler);
        }
    }
    let mut xl = Lower {
        pool,
        max_locals: code.max_locals,
        ops: Vec::new(),
        emit: false,
        peak: code.max_locals as u32,
        calls: HashMap::new(),
    };
    // Scratch reused by every instruction of both passes.
    let mut shape: Shape = Vec::new();
    let mut succ: Vec<usize> = Vec::new();
    while let Some(i) = work.pop() {
        let Some(entry) = shapes.get(i) else {
            continue;
        };
        shape.clear();
        shape.extend_from_slice(entry);
        let insn = &code.insns[i];
        xl.transfer(i, insn, &mut shape)?;
        succ.clear();
        insn.for_each_target(|t| succ.push(t));
        if insn.can_fall_through() {
            succ.push(i + 1);
        }
        for &s in &succ {
            if s >= n {
                return Err(ExecError::BadTarget { index: s, len: n });
            }
            match shapes.get(s) {
                None => {
                    shapes.record(s, &shape);
                    work.push(s);
                }
                Some(existing) => {
                    if existing != shape.as_slice() {
                        return Err(ExecError::BadStack {
                            at: s,
                            reason: "stack shape mismatch at merge".into(),
                        });
                    }
                }
            }
        }
    }

    // Pass 2: emit IR, recording where each bytecode instruction begins.
    // Pass 1 emitted nothing, so its register peak and call shapes carry
    // over unchanged.
    xl.emit = true;
    let mut ir_start = vec![usize::MAX; n + 1];
    for (i, insn) in code.insns.iter().enumerate() {
        ir_start[i] = xl.ops.len();
        let Some(entry) = shapes.get(i) else {
            // Unreachable bytecode: skip entirely.
            continue;
        };
        shape.clear();
        shape.extend_from_slice(entry);
        xl.transfer(i, insn, &mut shape)?;
    }
    ir_start[n] = xl.ops.len();
    // A bytecode index whose translation is empty (nop, pop) maps
    // forward to the next emitted instruction.
    let mut resolved = ir_start.clone();
    for i in (0..n).rev() {
        if resolved[i] == usize::MAX || ir_start[i] == ir_start[i + 1] {
            resolved[i] = resolved[i + 1];
        }
    }
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
