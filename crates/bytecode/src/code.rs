//! Decoded method bodies: byte-offset ⇄ label-form conversion.
//!
//! [`Code::decode`] lifts a `Code` attribute's byte array into a vector of
//! [`Insn`] whose branch targets are instruction indices, and maps the
//! exception table into index form. [`Code::encode`] lays the instructions
//! back out, choosing compact encodings and recomputing all offsets, and can
//! recompute `max_stack` with a dataflow pass. Binary-rewriting services
//! round-trip every method they touch through this type.

use dvm_classfile::attributes::{CodeAttribute, ExceptionTableEntry};
use dvm_classfile::pool::ConstPool;

use crate::error::{BytecodeError, Result};
use crate::insn::{AKind, ICond, Insn, Kind, NumType};
use crate::opcode as op;

/// An exception handler in instruction-index form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handler {
    /// First protected instruction (inclusive index).
    pub start: usize,
    /// End of the protected range (exclusive index; may equal `insns.len()`).
    pub end: usize,
    /// Index of the handler's first instruction.
    pub handler: usize,
    /// Constant-pool index of the caught class, or 0 for catch-all.
    pub catch_type: u16,
}

/// A method body in label form.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Code {
    /// The instructions.
    pub insns: Vec<Insn>,
    /// Exception handlers in index form.
    pub handlers: Vec<Handler>,
    /// Number of local-variable slots.
    pub max_locals: u16,
}

impl Code {
    /// Creates an empty body with the given local-variable count.
    pub fn new(max_locals: u16) -> Code {
        Code {
            insns: Vec::new(),
            handlers: Vec::new(),
            max_locals,
        }
    }

    /// Decodes a `Code` attribute into label form.
    ///
    /// Every instruction spans at least one byte, so the code length
    /// bounds the instruction count: the instructions fill one vector
    /// allocated at that bound, their byte-offset targets are mapped to
    /// indices in place, and the vector is trimmed to its length (a
    /// client VM keeps every decoded body for its whole life).
    pub fn decode(attr: &CodeAttribute) -> Result<Code> {
        let bytes = &attr.code;
        // A valid body is at most `u16::MAX` bytes long; a longer, hostile
        // one grows the vector as it decodes rather than reserving 40
        // bytes per byte of input up front.
        let mut insns = Vec::with_capacity(bytes.len().min(u16::MAX as usize));
        // The index of the instruction starting at each byte offset;
        // `INSIDE` for offsets inside an instruction.
        const INSIDE: u32 = u32::MAX;
        let mut index_at = vec![INSIDE; bytes.len()];
        let mut pos = 0usize;
        while pos < bytes.len() {
            index_at[pos] = insns.len() as u32;
            let (insn, len) = decode_one(bytes, pos)?;
            insns.push(insn);
            pos += len;
        }
        let index_of = |target_offset: usize, from: usize| -> Result<usize> {
            match index_at.get(target_offset) {
                Some(&i) if i != INSIDE => Ok(i as usize),
                _ => Err(BytecodeError::BadBranchTarget {
                    from,
                    target: target_offset as i64,
                }),
            }
        };
        for (i, insn) in insns.iter_mut().enumerate() {
            // The last bad target of an instruction is the one reported.
            let mut bad = None;
            insn.map_targets(|byte_target| {
                index_of(byte_target, 0).unwrap_or_else(|_| {
                    bad = Some(byte_target);
                    0
                })
            });
            if let Some(target) = bad {
                let from = index_at
                    .iter()
                    .position(|&at| at == i as u32)
                    .expect("every instruction has a start offset");
                return Err(BytecodeError::BadBranchTarget {
                    from,
                    target: target as i64,
                });
            }
        }
        insns.shrink_to_fit();
        let mut handlers = Vec::with_capacity(attr.exception_table.len());
        for e in &attr.exception_table {
            let start = index_of(e.start_pc as usize, e.start_pc as usize)?;
            let end = if e.end_pc as usize == bytes.len() {
                insns.len()
            } else {
                index_of(e.end_pc as usize, e.end_pc as usize)?
            };
            let handler = index_of(e.handler_pc as usize, e.handler_pc as usize)?;
            handlers.push(Handler {
                start,
                end,
                handler,
                catch_type: e.catch_type,
            });
        }
        Ok(Code {
            insns,
            handlers,
            max_locals: attr.max_locals,
        })
    }

    /// Encodes this body back into a `Code` attribute.
    ///
    /// Offsets are laid out iteratively (switch padding and `goto` width
    /// depend on position); `max_stack` is recomputed with
    /// [`Code::compute_max_stack`]. A round that widens no `goto` and
    /// ends at most `i16::MAX` bytes in is final: every displacement fits,
    /// and switch padding was computed at the offsets a confirming round
    /// would find again. Most bodies take one round.
    pub fn encode(&self, pool: &ConstPool) -> Result<CodeAttribute> {
        self.validate_targets()?;
        // Iterative layout: sizes depend on offsets (switch padding, wide
        // gotos), which depend on sizes. Iterate to a fixpoint.
        let n = self.insns.len();
        let mut offsets = vec![0u32; n + 1];
        let mut wide_goto = vec![false; n];
        for round in 0..32 {
            let mut changed = false;
            let mut widened = false;
            let mut pos = 0u32;
            for (i, insn) in self.insns.iter().enumerate() {
                if offsets[i] != pos {
                    offsets[i] = pos;
                    changed = true;
                }
                // Widen goto/jsr whose displacement no longer fits i16.
                // A forward target still holds the previous round's offset
                // (0 in the first round).
                if let Insn::Goto(t) | Insn::Jsr(t) = insn {
                    let disp = offsets[*t] as i64 - pos as i64;
                    if !(-32768..=32767).contains(&disp) && !wide_goto[i] {
                        wide_goto[i] = true;
                        changed = true;
                        widened = true;
                    }
                }
                pos += encoded_size(insn, pos, wide_goto[i])? as u32;
            }
            if offsets[n] != pos {
                offsets[n] = pos;
                changed = true;
            }
            if !changed || (!widened && pos <= i16::MAX as u32) {
                break;
            }
            if round == 31 {
                return Err(BytecodeError::LayoutDiverged);
            }
        }
        let total = offsets[n] as usize;
        if total > u16::MAX as usize {
            return Err(BytecodeError::CodeTooLarge(total));
        }

        let mut out = Vec::with_capacity(total);
        for (i, insn) in self.insns.iter().enumerate() {
            encode_one(insn, i, &offsets, wide_goto[i], &mut out)?;
            debug_assert_eq!(
                out.len(),
                offsets.get(i + 1).map(|o| *o as usize).unwrap_or(out.len()),
                "layout size mismatch at instruction {i}"
            );
        }

        let exception_table = self
            .handlers
            .iter()
            .map(|h| ExceptionTableEntry {
                start_pc: offsets[h.start] as u16,
                end_pc: offsets[h.end] as u16,
                handler_pc: offsets[h.handler] as u16,
                catch_type: h.catch_type,
            })
            .collect();

        Ok(CodeAttribute {
            max_stack: self.compute_max_stack(pool)?,
            max_locals: self.max_locals,
            code: out,
            exception_table,
            attributes: Vec::new(),
        })
    }

    /// Checks that every branch target and handler index is in range.
    pub fn validate_targets(&self) -> Result<()> {
        let len = self.insns.len();
        for insn in &self.insns {
            let mut past_end = None;
            insn.for_each_target(|t| {
                if t >= len {
                    past_end.get_or_insert(t);
                }
            });
            if let Some(index) = past_end {
                return Err(BytecodeError::BadTargetIndex { index, len });
            }
        }
        for h in &self.handlers {
            if h.start > len || h.end > len || h.handler >= len {
                return Err(BytecodeError::BadTargetIndex {
                    index: h.handler.max(h.start).max(h.end),
                    len,
                });
            }
        }
        Ok(())
    }

    /// Computes the maximum operand-stack depth with a worklist dataflow,
    /// verifying depth consistency at merges and absence of underflow.
    ///
    /// A fall-through successor is walked straight on rather than pushed
    /// and popped again: it is the next entry the worklist would pop, so
    /// the visiting order (and the first error found) is the worklist's.
    pub fn compute_max_stack(&self, pool: &ConstPool) -> Result<u16> {
        let n = self.insns.len();
        if n == 0 {
            return Ok(0);
        }
        let mut depth: Vec<Option<u16>> = vec![None; n];
        let mut work: Vec<(usize, u16)> = Vec::with_capacity(self.handlers.len() + 8);
        work.push((0, 0));
        // Exception handlers start with the thrown reference on the stack.
        for h in &self.handlers {
            work.push((h.handler, 1));
        }
        let mut max = 0u16;
        while let Some((mut i, mut d)) = work.pop() {
            while i < n {
                match depth[i] {
                    Some(existing) => {
                        if existing != d {
                            return Err(BytecodeError::StackMismatch {
                                index: i,
                                expected: existing,
                                found: d,
                            });
                        }
                        break;
                    }
                    None => depth[i] = Some(d),
                }
                let insn = &self.insns[i];
                // Subroutines need special depth modeling: the return
                // address is consumed inside the subroutine, so the
                // instruction after a `jsr` resumes at the pre-call depth
                // (assuming depth-neutral subroutines, the only form javac
                // emitted); `ret` has no static successors.
                if let Insn::Jsr(t) = insn {
                    max = max.max(d + 1);
                    work.push((*t, d + 1));
                    i += 1;
                    continue;
                }
                let (pops, pushes) = insn.stack_effect(pool)?;
                if d < pops {
                    return Err(BytecodeError::StackUnderflow { index: i });
                }
                let after = d - pops + pushes;
                max = max.max(d.max(after));
                insn.for_each_target(|t| work.push((t, after)));
                if !insn.can_fall_through() || matches!(insn, Insn::Ret(_)) {
                    break;
                }
                i += 1;
                d = after;
            }
        }
        Ok(max)
    }
}

// ---- Decoding --------------------------------------------------------------

fn read_u8(bytes: &[u8], pos: usize) -> Result<u8> {
    bytes
        .get(pos)
        .copied()
        .ok_or(BytecodeError::TruncatedInstruction { offset: pos })
}

fn read_u16(bytes: &[u8], pos: usize) -> Result<u16> {
    Ok(u16::from_be_bytes([
        read_u8(bytes, pos)?,
        read_u8(bytes, pos + 1)?,
    ]))
}

fn read_i16(bytes: &[u8], pos: usize) -> Result<i16> {
    Ok(read_u16(bytes, pos)? as i16)
}

fn read_i32(bytes: &[u8], pos: usize) -> Result<i32> {
    Ok(i32::from_be_bytes([
        read_u8(bytes, pos)?,
        read_u8(bytes, pos + 1)?,
        read_u8(bytes, pos + 2)?,
        read_u8(bytes, pos + 3)?,
    ]))
}

/// Resolves a relative branch to an absolute byte offset, stored as `usize`
/// inside the instruction until index remapping.
fn branch_target(base: usize, rel: i64) -> Result<usize> {
    let abs = base as i64 + rel;
    if abs < 0 {
        return Err(BytecodeError::BadBranchTarget {
            from: base,
            target: abs,
        });
    }
    Ok(abs as usize)
}

const LOAD_KINDS: [Kind; 5] = [Kind::Int, Kind::Long, Kind::Float, Kind::Double, Kind::Ref];
const ARRAY_KINDS: [AKind; 8] = [
    AKind::Int,
    AKind::Long,
    AKind::Float,
    AKind::Double,
    AKind::Ref,
    AKind::Byte,
    AKind::Char,
    AKind::Short,
];
const ICONDS: [ICond; 6] = [
    ICond::Eq,
    ICond::Ne,
    ICond::Lt,
    ICond::Ge,
    ICond::Gt,
    ICond::Le,
];
const NUM_KINDS: [crate::insn::NumKind; 4] = [
    crate::insn::NumKind::Int,
    crate::insn::NumKind::Long,
    crate::insn::NumKind::Float,
    crate::insn::NumKind::Double,
];

/// Decodes the instruction at `pos`, returning it (with byte-offset targets)
/// and its encoded length.
fn decode_one(bytes: &[u8], pos: usize) -> Result<(Insn, usize)> {
    use crate::insn::{ArithOp, LogicOp, NumKind, ShiftOp};
    let opcode = read_u8(bytes, pos)?;
    let insn = match opcode {
        op::NOP => (Insn::Nop, 1),
        op::ACONST_NULL => (Insn::AConstNull, 1),
        op::ICONST_M1..=op::ICONST_5 => (Insn::IConst(opcode as i32 - op::ICONST_0 as i32), 1),
        op::LCONST_0 | op::LCONST_1 => (Insn::LConst((opcode - op::LCONST_0) as i64), 1),
        op::FCONST_0..=op::FCONST_2 => (Insn::FConst((opcode - op::FCONST_0) as f32), 1),
        op::DCONST_0 | op::DCONST_1 => (Insn::DConst((opcode - op::DCONST_0) as f64), 1),
        op::BIPUSH => (Insn::IConst(read_u8(bytes, pos + 1)? as i8 as i32), 2),
        op::SIPUSH => (Insn::IConst(read_i16(bytes, pos + 1)? as i32), 3),
        op::LDC => (Insn::Ldc(read_u8(bytes, pos + 1)? as u16), 2),
        op::LDC_W => (Insn::Ldc(read_u16(bytes, pos + 1)?), 3),
        op::LDC2_W => (Insn::Ldc2(read_u16(bytes, pos + 1)?), 3),
        op::ILOAD..=op::ALOAD => {
            let kind = LOAD_KINDS[(opcode - op::ILOAD) as usize];
            (Insn::Load(kind, read_u8(bytes, pos + 1)? as u16), 2)
        }
        op::ILOAD_0..=op::ALOAD_3 => {
            let rel = opcode - op::ILOAD_0;
            let kind = LOAD_KINDS[(rel / 4) as usize];
            (Insn::Load(kind, (rel % 4) as u16), 1)
        }
        op::IALOAD..=op::SALOAD => (
            Insn::ArrayLoad(ARRAY_KINDS[(opcode - op::IALOAD) as usize]),
            1,
        ),
        op::ISTORE..=op::ASTORE => {
            let kind = LOAD_KINDS[(opcode - op::ISTORE) as usize];
            (Insn::Store(kind, read_u8(bytes, pos + 1)? as u16), 2)
        }
        op::ISTORE_0..=op::ASTORE_3 => {
            let rel = opcode - op::ISTORE_0;
            let kind = LOAD_KINDS[(rel / 4) as usize];
            (Insn::Store(kind, (rel % 4) as u16), 1)
        }
        op::IASTORE..=op::SASTORE => (
            Insn::ArrayStore(ARRAY_KINDS[(opcode - op::IASTORE) as usize]),
            1,
        ),
        op::POP => (Insn::Pop, 1),
        op::POP2 => (Insn::Pop2, 1),
        op::DUP => (Insn::Dup, 1),
        op::DUP_X1 => (Insn::DupX1, 1),
        op::DUP_X2 => (Insn::DupX2, 1),
        op::DUP2 => (Insn::Dup2, 1),
        op::DUP2_X1 => (Insn::Dup2X1, 1),
        op::DUP2_X2 => (Insn::Dup2X2, 1),
        op::SWAP => (Insn::Swap, 1),
        op::IADD..=0x77 => {
            let rel = opcode - op::IADD;
            let ops = [
                ArithOp::Add,
                ArithOp::Sub,
                ArithOp::Mul,
                ArithOp::Div,
                ArithOp::Rem,
                ArithOp::Neg,
            ];
            (
                Insn::Arith(NUM_KINDS[(rel % 4) as usize], ops[(rel / 4) as usize]),
                1,
            )
        }
        op::ISHL..=0x7D => {
            let rel = opcode - op::ISHL;
            let ops = [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Ushr];
            let kind = if rel.is_multiple_of(2) {
                NumKind::Int
            } else {
                NumKind::Long
            };
            (Insn::Shift(kind, ops[(rel / 2) as usize]), 1)
        }
        op::IAND..=0x83 => {
            let rel = opcode - op::IAND;
            let ops = [LogicOp::And, LogicOp::Or, LogicOp::Xor];
            let kind = if rel.is_multiple_of(2) {
                NumKind::Int
            } else {
                NumKind::Long
            };
            (Insn::Logic(kind, ops[(rel / 2) as usize]), 1)
        }
        op::IINC => (
            Insn::IInc(
                read_u8(bytes, pos + 1)? as u16,
                read_u8(bytes, pos + 2)? as i8 as i16,
            ),
            3,
        ),
        op::I2L..=op::D2F => {
            let rel = opcode - op::I2L;
            let (from, all) = (
                [NumType::Int, NumType::Long, NumType::Float, NumType::Double][(rel / 3) as usize],
                [
                    [NumType::Long, NumType::Float, NumType::Double],
                    [NumType::Int, NumType::Float, NumType::Double],
                    [NumType::Int, NumType::Long, NumType::Double],
                    [NumType::Int, NumType::Long, NumType::Float],
                ],
            );
            (
                Insn::Convert(from, all[(rel / 3) as usize][(rel % 3) as usize]),
                1,
            )
        }
        op::I2B => (Insn::Convert(NumType::Int, NumType::Byte), 1),
        op::I2C => (Insn::Convert(NumType::Int, NumType::Char), 1),
        op::I2S => (Insn::Convert(NumType::Int, NumType::Short), 1),
        op::LCMP => (Insn::LCmp, 1),
        op::FCMPL => (Insn::FCmp(false), 1),
        op::FCMPG => (Insn::FCmp(true), 1),
        op::DCMPL => (Insn::DCmp(false), 1),
        op::DCMPG => (Insn::DCmp(true), 1),
        op::IFEQ..=op::IFLE => {
            let cond = ICONDS[(opcode - op::IFEQ) as usize];
            let t = branch_target(pos, read_i16(bytes, pos + 1)? as i64)?;
            (Insn::If(cond, t), 3)
        }
        op::IF_ICMPEQ..=op::IF_ICMPLE => {
            let cond = ICONDS[(opcode - op::IF_ICMPEQ) as usize];
            let t = branch_target(pos, read_i16(bytes, pos + 1)? as i64)?;
            (Insn::IfICmp(cond, t), 3)
        }
        op::IF_ACMPEQ | op::IF_ACMPNE => {
            let t = branch_target(pos, read_i16(bytes, pos + 1)? as i64)?;
            (Insn::IfACmp(opcode == op::IF_ACMPEQ, t), 3)
        }
        op::GOTO => (
            Insn::Goto(branch_target(pos, read_i16(bytes, pos + 1)? as i64)?),
            3,
        ),
        op::JSR => (
            Insn::Jsr(branch_target(pos, read_i16(bytes, pos + 1)? as i64)?),
            3,
        ),
        op::RET => (Insn::Ret(read_u8(bytes, pos + 1)? as u16), 2),
        op::TABLESWITCH => {
            let pad = (4 - (pos + 1) % 4) % 4;
            let mut p = pos + 1 + pad;
            let default = branch_target(pos, read_i32(bytes, p)? as i64)?;
            let low = read_i32(bytes, p + 4)?;
            let high = read_i32(bytes, p + 8)?;
            p += 12;
            // `high - low` overflows i32 for hostile extremes; widen first
            // and bound the arm count by what the code array could hold.
            let count_i64 = high as i64 - low as i64 + 1;
            if count_i64 < 1 || count_i64 > (bytes.len() as i64 / 4) + 1 {
                return Err(BytecodeError::BadBranchTarget {
                    from: pos,
                    target: high as i64,
                });
            }
            let count = count_i64 as usize;
            let mut targets = Vec::with_capacity(count);
            for k in 0..count {
                targets.push(branch_target(pos, read_i32(bytes, p + 4 * k)? as i64)?);
            }
            (
                Insn::TableSwitch {
                    default,
                    low,
                    targets,
                },
                1 + pad + 12 + 4 * count,
            )
        }
        op::LOOKUPSWITCH => {
            let pad = (4 - (pos + 1) % 4) % 4;
            let mut p = pos + 1 + pad;
            let default = branch_target(pos, read_i32(bytes, p)? as i64)?;
            let npairs = read_i32(bytes, p + 4)?;
            p += 8;
            // Bound by what the code array could hold (8 bytes per pair) so
            // hostile counts cannot trigger huge allocations.
            if npairs < 0 || npairs as i64 > (bytes.len() as i64 / 8) + 1 {
                return Err(BytecodeError::BadBranchTarget {
                    from: pos,
                    target: npairs as i64,
                });
            }
            let mut pairs = Vec::with_capacity(npairs as usize);
            for k in 0..npairs as usize {
                let key = read_i32(bytes, p + 8 * k)?;
                let t = branch_target(pos, read_i32(bytes, p + 8 * k + 4)? as i64)?;
                pairs.push((key, t));
            }
            (
                Insn::LookupSwitch { default, pairs },
                1 + pad + 8 + 8 * npairs as usize,
            )
        }
        op::IRETURN..=op::ARETURN => (
            Insn::Return(Some(LOAD_KINDS[(opcode - op::IRETURN) as usize])),
            1,
        ),
        op::RETURN => (Insn::Return(None), 1),
        op::GETSTATIC => (Insn::GetStatic(read_u16(bytes, pos + 1)?), 3),
        op::PUTSTATIC => (Insn::PutStatic(read_u16(bytes, pos + 1)?), 3),
        op::GETFIELD => (Insn::GetField(read_u16(bytes, pos + 1)?), 3),
        op::PUTFIELD => (Insn::PutField(read_u16(bytes, pos + 1)?), 3),
        op::INVOKEVIRTUAL => (Insn::InvokeVirtual(read_u16(bytes, pos + 1)?), 3),
        op::INVOKESPECIAL => (Insn::InvokeSpecial(read_u16(bytes, pos + 1)?), 3),
        op::INVOKESTATIC => (Insn::InvokeStatic(read_u16(bytes, pos + 1)?), 3),
        op::INVOKEINTERFACE => {
            // count and zero bytes are redundant; validate presence only.
            let idx = read_u16(bytes, pos + 1)?;
            read_u8(bytes, pos + 3)?;
            read_u8(bytes, pos + 4)?;
            (Insn::InvokeInterface(idx), 5)
        }
        op::NEW => (Insn::New(read_u16(bytes, pos + 1)?), 3),
        op::NEWARRAY => {
            let code = read_u8(bytes, pos + 1)?;
            let kind = AKind::from_newarray_code(code).ok_or(BytecodeError::UnknownOpcode {
                opcode: code,
                offset: pos + 1,
            })?;
            (Insn::NewArray(kind), 2)
        }
        op::ANEWARRAY => (Insn::ANewArray(read_u16(bytes, pos + 1)?), 3),
        op::ARRAYLENGTH => (Insn::ArrayLength, 1),
        op::ATHROW => (Insn::AThrow, 1),
        op::CHECKCAST => (Insn::CheckCast(read_u16(bytes, pos + 1)?), 3),
        op::INSTANCEOF => (Insn::InstanceOf(read_u16(bytes, pos + 1)?), 3),
        op::MONITORENTER => (Insn::MonitorEnter, 1),
        op::MONITOREXIT => (Insn::MonitorExit, 1),
        op::WIDE => {
            let sub = read_u8(bytes, pos + 1)?;
            match sub {
                op::ILOAD..=op::ALOAD => {
                    let kind = LOAD_KINDS[(sub - op::ILOAD) as usize];
                    (Insn::Load(kind, read_u16(bytes, pos + 2)?), 4)
                }
                op::ISTORE..=op::ASTORE => {
                    let kind = LOAD_KINDS[(sub - op::ISTORE) as usize];
                    (Insn::Store(kind, read_u16(bytes, pos + 2)?), 4)
                }
                op::RET => (Insn::Ret(read_u16(bytes, pos + 2)?), 4),
                op::IINC => (
                    Insn::IInc(read_u16(bytes, pos + 2)?, read_i16(bytes, pos + 4)?),
                    6,
                ),
                _ => {
                    return Err(BytecodeError::UnknownOpcode {
                        opcode: sub,
                        offset: pos + 1,
                    })
                }
            }
        }
        op::MULTIANEWARRAY => (
            Insn::MultiANewArray(read_u16(bytes, pos + 1)?, read_u8(bytes, pos + 3)?),
            4,
        ),
        op::IFNULL => (
            Insn::IfNull(branch_target(pos, read_i16(bytes, pos + 1)? as i64)?),
            3,
        ),
        op::IFNONNULL => (
            Insn::IfNonNull(branch_target(pos, read_i16(bytes, pos + 1)? as i64)?),
            3,
        ),
        op::GOTO_W => (
            Insn::Goto(branch_target(pos, read_i32(bytes, pos + 1)? as i64)?),
            5,
        ),
        op::JSR_W => (
            Insn::Jsr(branch_target(pos, read_i32(bytes, pos + 1)? as i64)?),
            5,
        ),
        other => {
            return Err(BytecodeError::UnknownOpcode {
                opcode: other,
                offset: pos,
            })
        }
    };
    Ok(insn)
}

// ---- Encoding --------------------------------------------------------------

/// Size in bytes of `insn` when placed at `offset`.
fn encoded_size(insn: &Insn, offset: u32, wide_goto: bool) -> Result<usize> {
    Ok(match insn {
        Insn::Nop
        | Insn::AConstNull
        | Insn::ArrayLoad(_)
        | Insn::ArrayStore(_)
        | Insn::Pop
        | Insn::Pop2
        | Insn::Dup
        | Insn::DupX1
        | Insn::DupX2
        | Insn::Dup2
        | Insn::Dup2X1
        | Insn::Dup2X2
        | Insn::Swap
        | Insn::Arith(_, _)
        | Insn::Shift(_, _)
        | Insn::Logic(_, _)
        | Insn::Convert(_, _)
        | Insn::LCmp
        | Insn::FCmp(_)
        | Insn::DCmp(_)
        | Insn::Return(_)
        | Insn::ArrayLength
        | Insn::AThrow
        | Insn::MonitorEnter
        | Insn::MonitorExit => 1,
        Insn::IConst(v) => match v {
            -1..=5 => 1,
            -128..=127 => 2,
            -32768..=32767 => 3,
            _ => return Err(BytecodeError::UnencodableConstant(v.to_string())),
        },
        Insn::LConst(v) => match v {
            0 | 1 => 1,
            _ => return Err(BytecodeError::UnencodableConstant(v.to_string())),
        },
        Insn::FConst(v) => {
            if *v == 0.0 || *v == 1.0 || *v == 2.0 {
                1
            } else {
                return Err(BytecodeError::UnencodableConstant(v.to_string()));
            }
        }
        Insn::DConst(v) => {
            if *v == 0.0 || *v == 1.0 {
                1
            } else {
                return Err(BytecodeError::UnencodableConstant(v.to_string()));
            }
        }
        Insn::Ldc(idx) => {
            if *idx <= 255 {
                2
            } else {
                3
            }
        }
        Insn::Ldc2(_) => 3,
        Insn::Load(_, slot) | Insn::Store(_, slot) => match slot {
            0..=3 => 1,
            4..=255 => 2,
            _ => 4,
        },
        Insn::IInc(slot, c) => {
            if *slot <= 255 && (-128..=127).contains(c) {
                3
            } else {
                6
            }
        }
        Insn::If(_, _)
        | Insn::IfICmp(_, _)
        | Insn::IfACmp(_, _)
        | Insn::IfNull(_)
        | Insn::IfNonNull(_) => 3,
        Insn::Goto(_) | Insn::Jsr(_) => {
            if wide_goto {
                5
            } else {
                3
            }
        }
        Insn::Ret(slot) => {
            if *slot <= 255 {
                2
            } else {
                4
            }
        }
        Insn::TableSwitch { targets, .. } => {
            let pad = (4 - (offset as usize + 1) % 4) % 4;
            1 + pad + 12 + 4 * targets.len()
        }
        Insn::LookupSwitch { pairs, .. } => {
            let pad = (4 - (offset as usize + 1) % 4) % 4;
            1 + pad + 8 + 8 * pairs.len()
        }
        Insn::GetStatic(_)
        | Insn::PutStatic(_)
        | Insn::GetField(_)
        | Insn::PutField(_)
        | Insn::InvokeVirtual(_)
        | Insn::InvokeSpecial(_)
        | Insn::InvokeStatic(_)
        | Insn::New(_)
        | Insn::ANewArray(_)
        | Insn::CheckCast(_)
        | Insn::InstanceOf(_) => 3,
        Insn::InvokeInterface(_) => 5,
        Insn::NewArray(_) => 2,
        Insn::MultiANewArray(_, _) => 4,
    })
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_i16(out: &mut Vec<u8>, v: i16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn rel16(index: usize, from: u32, to: u32) -> Result<i16> {
    let disp = to as i64 - from as i64;
    i16::try_from(disp).map_err(|_| BytecodeError::BranchOverflow { index })
}

/// Emits `insn` (located at `offsets[i]`) into `out`.
fn encode_one(
    insn: &Insn,
    i: usize,
    offsets: &[u32],
    wide_goto: bool,
    out: &mut Vec<u8>,
) -> Result<()> {
    use crate::insn::{ArithOp, LogicOp, NumKind, ShiftOp};
    let at = offsets[i];
    match insn {
        Insn::Nop => out.push(op::NOP),
        Insn::AConstNull => out.push(op::ACONST_NULL),
        Insn::IConst(v) => match v {
            -1..=5 => out.push((op::ICONST_0 as i32 + v) as u8),
            -128..=127 => {
                out.push(op::BIPUSH);
                out.push(*v as i8 as u8);
            }
            -32768..=32767 => {
                out.push(op::SIPUSH);
                push_i16(out, *v as i16);
            }
            _ => return Err(BytecodeError::UnencodableConstant(v.to_string())),
        },
        Insn::LConst(v) => out.push(op::LCONST_0 + *v as u8),
        Insn::FConst(v) => out.push(op::FCONST_0 + *v as u8),
        Insn::DConst(v) => out.push(op::DCONST_0 + *v as u8),
        Insn::Ldc(idx) => {
            if *idx <= 255 {
                out.push(op::LDC);
                out.push(*idx as u8);
            } else {
                out.push(op::LDC_W);
                push_u16(out, *idx);
            }
        }
        Insn::Ldc2(idx) => {
            out.push(op::LDC2_W);
            push_u16(out, *idx);
        }
        Insn::Load(kind, slot) => match slot {
            0..=3 => out.push(op::ILOAD_0 + kind.family_index() * 4 + *slot as u8),
            4..=255 => {
                out.push(op::ILOAD + kind.family_index());
                out.push(*slot as u8);
            }
            _ => {
                out.push(op::WIDE);
                out.push(op::ILOAD + kind.family_index());
                push_u16(out, *slot);
            }
        },
        Insn::Store(kind, slot) => match slot {
            0..=3 => out.push(op::ISTORE_0 + kind.family_index() * 4 + *slot as u8),
            4..=255 => {
                out.push(op::ISTORE + kind.family_index());
                out.push(*slot as u8);
            }
            _ => {
                out.push(op::WIDE);
                out.push(op::ISTORE + kind.family_index());
                push_u16(out, *slot);
            }
        },
        Insn::ArrayLoad(kind) => out.push(op::IALOAD + kind.family_index()),
        Insn::ArrayStore(kind) => out.push(op::IASTORE + kind.family_index()),
        Insn::Pop => out.push(op::POP),
        Insn::Pop2 => out.push(op::POP2),
        Insn::Dup => out.push(op::DUP),
        Insn::DupX1 => out.push(op::DUP_X1),
        Insn::DupX2 => out.push(op::DUP_X2),
        Insn::Dup2 => out.push(op::DUP2),
        Insn::Dup2X1 => out.push(op::DUP2_X1),
        Insn::Dup2X2 => out.push(op::DUP2_X2),
        Insn::Swap => out.push(op::SWAP),
        Insn::Arith(kind, arith) => {
            let base = match arith {
                ArithOp::Add => op::IADD,
                ArithOp::Sub => op::ISUB,
                ArithOp::Mul => op::IMUL,
                ArithOp::Div => op::IDIV,
                ArithOp::Rem => op::IREM,
                ArithOp::Neg => op::INEG,
            };
            out.push(base + kind.family_index());
        }
        Insn::Shift(kind, shift) => {
            let base = match shift {
                ShiftOp::Shl => op::ISHL,
                ShiftOp::Shr => op::ISHR,
                ShiftOp::Ushr => op::IUSHR,
            };
            let k = match kind {
                NumKind::Int => 0,
                NumKind::Long => 1,
                _ => return Err(BytecodeError::UnencodableConstant("float shift".into())),
            };
            out.push(base + k);
        }
        Insn::Logic(kind, logic) => {
            let base = match logic {
                LogicOp::And => op::IAND,
                LogicOp::Or => op::IOR,
                LogicOp::Xor => op::IXOR,
            };
            let k = match kind {
                NumKind::Int => 0,
                NumKind::Long => 1,
                _ => return Err(BytecodeError::UnencodableConstant("float logic".into())),
            };
            out.push(base + k);
        }
        Insn::IInc(slot, c) => {
            if *slot <= 255 && (-128..=127).contains(c) {
                out.push(op::IINC);
                out.push(*slot as u8);
                out.push(*c as i8 as u8);
            } else {
                out.push(op::WIDE);
                out.push(op::IINC);
                push_u16(out, *slot);
                push_i16(out, *c);
            }
        }
        Insn::Convert(from, to) => out.push(convert_opcode(*from, *to)?),
        Insn::LCmp => out.push(op::LCMP),
        Insn::FCmp(g) => out.push(if *g { op::FCMPG } else { op::FCMPL }),
        Insn::DCmp(g) => out.push(if *g { op::DCMPG } else { op::DCMPL }),
        Insn::If(cond, t) => {
            out.push(op::IFEQ + cond.family_index());
            push_i16(out, rel16(i, at, offsets[*t])?);
        }
        Insn::IfICmp(cond, t) => {
            out.push(op::IF_ICMPEQ + cond.family_index());
            push_i16(out, rel16(i, at, offsets[*t])?);
        }
        Insn::IfACmp(eq, t) => {
            out.push(if *eq { op::IF_ACMPEQ } else { op::IF_ACMPNE });
            push_i16(out, rel16(i, at, offsets[*t])?);
        }
        Insn::IfNull(t) => {
            out.push(op::IFNULL);
            push_i16(out, rel16(i, at, offsets[*t])?);
        }
        Insn::IfNonNull(t) => {
            out.push(op::IFNONNULL);
            push_i16(out, rel16(i, at, offsets[*t])?);
        }
        Insn::Goto(t) => {
            if wide_goto {
                out.push(op::GOTO_W);
                push_i32(out, offsets[*t] as i32 - at as i32);
            } else {
                out.push(op::GOTO);
                push_i16(out, rel16(i, at, offsets[*t])?);
            }
        }
        Insn::Jsr(t) => {
            if wide_goto {
                out.push(op::JSR_W);
                push_i32(out, offsets[*t] as i32 - at as i32);
            } else {
                out.push(op::JSR);
                push_i16(out, rel16(i, at, offsets[*t])?);
            }
        }
        Insn::Ret(slot) => {
            if *slot <= 255 {
                out.push(op::RET);
                out.push(*slot as u8);
            } else {
                out.push(op::WIDE);
                out.push(op::RET);
                push_u16(out, *slot);
            }
        }
        Insn::TableSwitch {
            default,
            low,
            targets,
        } => {
            out.push(op::TABLESWITCH);
            let pad = (4 - (at as usize + 1) % 4) % 4;
            out.extend(std::iter::repeat_n(0, pad));
            push_i32(out, offsets[*default] as i32 - at as i32);
            push_i32(out, *low);
            push_i32(out, *low + targets.len() as i32 - 1);
            for t in targets {
                push_i32(out, offsets[*t] as i32 - at as i32);
            }
        }
        Insn::LookupSwitch { default, pairs } => {
            out.push(op::LOOKUPSWITCH);
            let pad = (4 - (at as usize + 1) % 4) % 4;
            out.extend(std::iter::repeat_n(0, pad));
            push_i32(out, offsets[*default] as i32 - at as i32);
            push_i32(out, pairs.len() as i32);
            for (key, t) in pairs {
                push_i32(out, *key);
                push_i32(out, offsets[*t] as i32 - at as i32);
            }
        }
        Insn::Return(None) => out.push(op::RETURN),
        Insn::Return(Some(kind)) => out.push(op::IRETURN + kind.family_index()),
        Insn::GetStatic(idx) => {
            out.push(op::GETSTATIC);
            push_u16(out, *idx);
        }
        Insn::PutStatic(idx) => {
            out.push(op::PUTSTATIC);
            push_u16(out, *idx);
        }
        Insn::GetField(idx) => {
            out.push(op::GETFIELD);
            push_u16(out, *idx);
        }
        Insn::PutField(idx) => {
            out.push(op::PUTFIELD);
            push_u16(out, *idx);
        }
        Insn::InvokeVirtual(idx) => {
            out.push(op::INVOKEVIRTUAL);
            push_u16(out, *idx);
        }
        Insn::InvokeSpecial(idx) => {
            out.push(op::INVOKESPECIAL);
            push_u16(out, *idx);
        }
        Insn::InvokeStatic(idx) => {
            out.push(op::INVOKESTATIC);
            push_u16(out, *idx);
        }
        Insn::InvokeInterface(idx) => {
            out.push(op::INVOKEINTERFACE);
            push_u16(out, *idx);
            // The historical count byte is redundant with the descriptor but
            // still required by the format; emit 0 placeholders (our decoder
            // and interpreter derive the count from the descriptor).
            out.push(0);
            out.push(0);
        }
        Insn::New(idx) => {
            out.push(op::NEW);
            push_u16(out, *idx);
        }
        Insn::NewArray(kind) => {
            out.push(op::NEWARRAY);
            out.push(kind.newarray_code().ok_or_else(|| {
                BytecodeError::UnencodableConstant("newarray of reference kind".into())
            })?);
        }
        Insn::ANewArray(idx) => {
            out.push(op::ANEWARRAY);
            push_u16(out, *idx);
        }
        Insn::ArrayLength => out.push(op::ARRAYLENGTH),
        Insn::AThrow => out.push(op::ATHROW),
        Insn::CheckCast(idx) => {
            out.push(op::CHECKCAST);
            push_u16(out, *idx);
        }
        Insn::InstanceOf(idx) => {
            out.push(op::INSTANCEOF);
            push_u16(out, *idx);
        }
        Insn::MonitorEnter => out.push(op::MONITORENTER),
        Insn::MonitorExit => out.push(op::MONITOREXIT),
        Insn::MultiANewArray(idx, dims) => {
            out.push(op::MULTIANEWARRAY);
            push_u16(out, *idx);
            out.push(*dims);
        }
    }
    Ok(())
}

fn convert_opcode(from: NumType, to: NumType) -> Result<u8> {
    use NumType::*;
    Ok(match (from, to) {
        (Int, Long) => op::I2L,
        (Int, Float) => op::I2F,
        (Int, Double) => op::I2D,
        (Long, Int) => op::L2I,
        (Long, Float) => op::L2F,
        (Long, Double) => op::L2D,
        (Float, Int) => op::F2I,
        (Float, Long) => op::F2L,
        (Float, Double) => op::F2D,
        (Double, Int) => op::D2I,
        (Double, Long) => op::D2L,
        (Double, Float) => op::D2F,
        (Int, Byte) => op::I2B,
        (Int, Char) => op::I2C,
        (Int, Short) => op::I2S,
        _ => {
            return Err(BytecodeError::UnencodableConstant(format!(
                "conversion {from:?} -> {to:?}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::NumKind;

    fn round_trip(code: Code, pool: &ConstPool) -> Code {
        let attr = code.encode(pool).unwrap();
        Code::decode(&attr).unwrap()
    }

    #[test]
    fn simple_body_round_trips() {
        let pool = ConstPool::new();
        let code = Code {
            insns: vec![
                Insn::IConst(0),
                Insn::Store(Kind::Int, 1),
                Insn::Load(Kind::Int, 1),
                Insn::IConst(100),
                Insn::IfICmp(ICond::Ge, 8),
                Insn::IInc(1, 1),
                Insn::Nop,
                Insn::Goto(2),
                Insn::Return(None),
            ],
            handlers: vec![],
            max_locals: 2,
        };
        assert_eq!(round_trip(code.clone(), &pool), code);
    }

    #[test]
    fn decoded_bodies_carry_no_slack() {
        // Client VMs keep every decoded body for their whole life.
        let pool = ConstPool::new();
        let mut insns = vec![Insn::IConst(1000), Insn::Store(Kind::Int, 1)];
        insns.extend((0..300).map(|k| Insn::IInc(1, k % 100)));
        insns.push(Insn::Return(None));
        let code = Code {
            insns,
            handlers: vec![],
            max_locals: 2,
        };
        let decoded = round_trip(code.clone(), &pool);
        assert_eq!(decoded, code);
        assert_eq!(decoded.insns.capacity(), decoded.insns.len());
    }

    /// Reference layout: rounds to a fixpoint, with no early stop.
    fn reference_layout(code: &Code) -> (Vec<u32>, Vec<bool>) {
        let n = code.insns.len();
        let mut offsets = vec![0u32; n + 1];
        let mut wide_goto = vec![false; n];
        loop {
            let mut changed = false;
            let mut pos = 0u32;
            for (i, insn) in code.insns.iter().enumerate() {
                if offsets[i] != pos {
                    offsets[i] = pos;
                    changed = true;
                }
                if let Insn::Goto(t) | Insn::Jsr(t) = insn {
                    let disp = offsets[*t] as i64 - pos as i64;
                    if !(-32768..=32767).contains(&disp) && !wide_goto[i] {
                        wide_goto[i] = true;
                        changed = true;
                    }
                }
                pos += encoded_size(insn, pos, wide_goto[i]).unwrap() as u32;
            }
            if offsets[n] != pos {
                offsets[n] = pos;
                changed = true;
            }
            if !changed {
                return (offsets, wide_goto);
            }
        }
    }

    fn reference_bytes(code: &Code) -> Vec<u8> {
        let (offsets, wide_goto) = reference_layout(code);
        let mut out = Vec::new();
        for (i, insn) in code.insns.iter().enumerate() {
            encode_one(insn, i, &offsets, wide_goto[i], &mut out).unwrap();
        }
        out
    }

    #[test]
    fn one_round_layout_matches_the_fixpoint_layout() {
        let pool = ConstPool::new();
        // Switch padding depends on position: bodies with 0..4 leading
        // nops and both switch forms.
        for lead in 0..4 {
            let mut insns = vec![Insn::Nop; lead];
            let base = insns.len();
            insns.push(Insn::IConst(1));
            insns.push(Insn::TableSwitch {
                default: base + 4,
                low: 0,
                targets: vec![base + 2, base + 3],
            });
            insns.push(Insn::Goto(base + 4));
            insns.push(Insn::Goto(base));
            insns.push(Insn::IConst(2));
            insns.push(Insn::LookupSwitch {
                default: base + 7,
                pairs: vec![(-1, base + 7), (9, base + 8)],
            });
            insns.push(Insn::Return(None));
            insns.push(Insn::Return(None));
            insns.push(Insn::Return(None));
            let code = Code {
                insns,
                handlers: vec![],
                max_locals: 0,
            };
            assert_eq!(code.encode(&pool).unwrap().code, reference_bytes(&code));
        }
    }

    #[test]
    fn large_bodies_keep_their_widened_gotos() {
        // Past 32 767 bytes the first round reads a forward target's
        // offset as 0, so a forward `goto` there widens even though its
        // displacement would fit. Served bytes depend on that widening.
        let pool = ConstPool::new();
        let filler = 33_000;
        let mut insns = vec![Insn::Goto(filler + 2)];
        insns.extend(std::iter::repeat_n(Insn::Nop, filler));
        insns.push(Insn::Goto(filler + 3));
        insns.push(Insn::Goto(0));
        insns.push(Insn::Return(None));
        let code = Code {
            insns,
            handlers: vec![],
            max_locals: 0,
        };
        let attr = code.encode(&pool).unwrap();
        assert_eq!(attr.code, reference_bytes(&code));
        let goto_at = 5 + filler;
        assert_eq!(attr.code[0], op::GOTO_W);
        assert_eq!(attr.code[goto_at], op::GOTO_W, "the spurious widening");
        assert_eq!(Code::decode(&attr).unwrap(), code);
    }

    #[test]
    fn max_stack_is_computed() {
        let mut pool = ConstPool::new();
        let m = pool.methodref("F", "f", "(II)I").unwrap();
        let code = Code {
            insns: vec![
                Insn::IConst(1),
                Insn::IConst(2),
                Insn::InvokeStatic(m),
                Insn::Return(Some(Kind::Int)),
            ],
            handlers: vec![],
            max_locals: 0,
        };
        let attr = code.encode(&pool).unwrap();
        assert_eq!(attr.max_stack, 2);
    }

    #[test]
    fn switches_round_trip_with_padding() {
        let pool = ConstPool::new();
        for leading_nops in 0..4 {
            let mut insns: Vec<Insn> = std::iter::repeat_n(Insn::Nop, leading_nops).collect();
            let base = insns.len();
            insns.push(Insn::IConst(2));
            insns.push(Insn::TableSwitch {
                default: base + 4,
                low: 0,
                targets: vec![base + 2, base + 3],
            });
            insns.push(Insn::Return(None));
            insns.push(Insn::Return(None));
            insns.push(Insn::Return(None));
            insns.push(Insn::IConst(5));
            insns.push(Insn::LookupSwitch {
                default: base + 8,
                pairs: vec![(-3, base + 7), (100, base + 8)],
            });
            insns.push(Insn::Return(None));
            insns.push(Insn::Return(None));
            let code = Code {
                insns,
                handlers: vec![],
                max_locals: 0,
            };
            assert_eq!(round_trip(code.clone(), &pool), code, "nops={leading_nops}");
        }
    }

    #[test]
    fn wide_locals_round_trip() {
        let pool = ConstPool::new();
        let code = Code {
            insns: vec![
                Insn::Load(Kind::Long, 300),
                Insn::Store(Kind::Long, 302),
                Insn::IInc(400, 1000),
                Insn::Load(Kind::Int, 200),
                Insn::Return(Some(Kind::Int)),
            ],
            handlers: vec![],
            max_locals: 500,
        };
        assert_eq!(round_trip(code.clone(), &pool), code);
    }

    #[test]
    fn handlers_round_trip() {
        let mut pool = ConstPool::new();
        let exc = pool.class("java/lang/Exception").unwrap();
        let code = Code {
            insns: vec![
                Insn::Nop,
                Insn::Nop,
                Insn::Goto(4),
                Insn::Pop, // handler: drop the exception
                Insn::Return(None),
            ],
            handlers: vec![Handler {
                start: 0,
                end: 2,
                handler: 3,
                catch_type: exc,
            }],
            max_locals: 0,
        };
        let rt = round_trip(code.clone(), &pool);
        assert_eq!(rt.handlers, code.handlers);
    }

    #[test]
    fn stack_mismatch_is_detected() {
        let pool = ConstPool::new();
        // Two paths reach instruction 3 with different depths.
        let code = Code {
            insns: vec![
                Insn::IConst(1),        // depth 1
                Insn::If(ICond::Eq, 3), // branch to 3 with depth 0
                Insn::IConst(7),        // fall-through: depth 1 at 3
                Insn::Return(None),
            ],
            handlers: vec![],
            max_locals: 0,
        };
        assert!(matches!(
            code.compute_max_stack(&pool),
            Err(BytecodeError::StackMismatch { index: 3, .. })
        ));
    }

    #[test]
    fn stack_underflow_is_detected() {
        let pool = ConstPool::new();
        let code = Code {
            insns: vec![Insn::Pop, Insn::Return(None)],
            handlers: vec![],
            max_locals: 0,
        };
        assert!(matches!(
            code.compute_max_stack(&pool),
            Err(BytecodeError::StackUnderflow { index: 0 })
        ));
    }

    #[test]
    fn branch_into_middle_of_instruction_rejected() {
        // bipush 7 (2 bytes), goto -1 targeting the operand byte.
        let attr = CodeAttribute {
            max_stack: 1,
            max_locals: 0,
            code: vec![op::BIPUSH, 7, op::GOTO, 0xFF, 0xFF],
            exception_table: vec![],
            attributes: vec![],
        };
        assert!(matches!(
            Code::decode(&attr),
            Err(BytecodeError::BadBranchTarget { .. })
        ));
    }

    #[test]
    fn arithmetic_families_round_trip() {
        use crate::insn::{ArithOp, LogicOp, ShiftOp};
        let pool = ConstPool::new();
        let mut insns = Vec::new();
        for kind in [NumKind::Int, NumKind::Long, NumKind::Float, NumKind::Double] {
            for a in [
                ArithOp::Add,
                ArithOp::Sub,
                ArithOp::Mul,
                ArithOp::Div,
                ArithOp::Rem,
            ] {
                insns.push(Insn::Load(
                    match kind {
                        NumKind::Int => Kind::Int,
                        NumKind::Long => Kind::Long,
                        NumKind::Float => Kind::Float,
                        NumKind::Double => Kind::Double,
                    },
                    0,
                ));
                insns.push(Insn::Load(
                    match kind {
                        NumKind::Int => Kind::Int,
                        NumKind::Long => Kind::Long,
                        NumKind::Float => Kind::Float,
                        NumKind::Double => Kind::Double,
                    },
                    2,
                ));
                insns.push(Insn::Arith(kind, a));
                insns.push(if kind.width() == 2 {
                    Insn::Pop2
                } else {
                    Insn::Pop
                });
            }
        }
        for kind in [NumKind::Int, NumKind::Long] {
            for s in [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Ushr] {
                insns.push(Insn::Shift(kind, s));
            }
            for l in [LogicOp::And, LogicOp::Or, LogicOp::Xor] {
                insns.push(Insn::Logic(kind, l));
            }
        }
        insns.push(Insn::Return(None));
        // Encode without stack computation (shift/logic here lack operands);
        // just check the opcode round trip via a body with no verification.
        let code = Code {
            insns: insns.clone(),
            handlers: vec![],
            max_locals: 4,
        };
        let mut bytes = Vec::new();
        let mut offsets = vec![0u32; insns.len() + 1];
        let mut pos = 0u32;
        for (i, insn) in insns.iter().enumerate() {
            offsets[i] = pos;
            pos += encoded_size(insn, pos, false).unwrap() as u32;
        }
        offsets[insns.len()] = pos;
        for (i, insn) in insns.iter().enumerate() {
            encode_one(insn, i, &offsets, false, &mut bytes).unwrap();
        }
        let attr = CodeAttribute {
            max_stack: 8,
            max_locals: 4,
            code: bytes,
            exception_table: vec![],
            attributes: vec![],
        };
        let decoded = Code::decode(&attr).unwrap();
        assert_eq!(decoded.insns, code.insns);
        let _ = pool;
    }

    #[test]
    fn conversions_round_trip() {
        let pool = ConstPool::new();
        use NumType::*;
        let pairs = [
            (Int, Long),
            (Int, Float),
            (Int, Double),
            (Long, Int),
            (Long, Float),
            (Long, Double),
            (Float, Int),
            (Float, Long),
            (Float, Double),
            (Double, Int),
            (Double, Long),
            (Double, Float),
            (Int, Byte),
            (Int, Char),
            (Int, Short),
        ];
        for (from, to) in pairs {
            let load_kind = match from {
                Int => Kind::Int,
                Long => Kind::Long,
                Float => Kind::Float,
                Double => Kind::Double,
                _ => unreachable!(),
            };
            let code = Code {
                insns: vec![
                    Insn::Load(load_kind, 0),
                    Insn::Convert(from, to),
                    if to.width() == 2 {
                        Insn::Pop2
                    } else {
                        Insn::Pop
                    },
                    Insn::Return(None),
                ],
                handlers: vec![],
                max_locals: 2,
            };
            assert_eq!(round_trip(code.clone(), &pool), code, "{from:?} -> {to:?}");
        }
    }
}
