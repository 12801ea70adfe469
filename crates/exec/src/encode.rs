//! The wire format for compiled IR packages.
//!
//! The proxy caches and ships [`ClassIr`] values keyed by the class's
//! rewrite signature, so the format must round-trip exactly and decode
//! defensively: the bytes cross the network and the disk tier, and a
//! corrupt or hostile package must yield a typed
//! [`ExecError::BadPackage`], never a
//! panic. Decoding validates every register index against `num_regs` and
//! every branch target against the instruction count, so a decoded
//! function is safe to execute without re-validation.
//!
//! Layout: `b"DVMX"` magic, a version byte, then the class name and a
//! method table; each method is name, descriptor, register counts, a
//! tagged instruction stream, and a handler table. All integers are
//! big-endian; floats travel as IEEE-754 bit patterns.

use dvm_bytecode::insn::{AKind, ArithOp, ICond, LogicOp, NumKind, NumType, ShiftOp};

use crate::error::{ExecError, Result};
use crate::ir::{
    ClassIr, CmpKind, Function, InvokeKind, RConst, RHandler, RInsn, SOp, ServiceKind, VReg,
};

/// Package magic.
pub const MAGIC: &[u8; 4] = b"DVMX";
/// Current format version.
pub const VERSION: u8 = 1;

/// Hard cap on decoded sizes: malformed length fields must not cause
/// huge allocations before the truncation check catches them.
const MAX_ITEMS: usize = 1 << 20;

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn reg(&mut self, r: VReg) {
        self.u16(r.0);
    }
    fn idx(&mut self, v: usize) {
        self.u32(v as u32);
    }
    fn str(&mut self, s: &str) {
        self.u16(s.len().min(u16::MAX as usize) as u16);
        self.buf
            .extend_from_slice(&s.as_bytes()[..s.len().min(u16::MAX as usize)]);
    }
    fn opt_reg(&mut self, r: Option<VReg>) {
        match r {
            Some(r) => {
                self.u8(1);
                self.reg(r);
            }
            None => self.u8(0),
        }
    }
    fn sop(&mut self, s: SOp) {
        match s {
            SOp::Reg(r) => {
                self.u8(0);
                self.reg(r);
            }
            SOp::Imm(v) => {
                self.u8(1);
                self.i32(v);
            }
        }
    }
}

fn num_kind_tag(k: NumKind) -> u8 {
    match k {
        NumKind::Int => 0,
        NumKind::Long => 1,
        NumKind::Float => 2,
        NumKind::Double => 3,
    }
}

fn arith_op_tag(op: ArithOp) -> u8 {
    match op {
        ArithOp::Add => 0,
        ArithOp::Sub => 1,
        ArithOp::Mul => 2,
        ArithOp::Div => 3,
        ArithOp::Rem => 4,
        ArithOp::Neg => 5,
    }
}

fn shift_op_tag(op: ShiftOp) -> u8 {
    match op {
        ShiftOp::Shl => 0,
        ShiftOp::Shr => 1,
        ShiftOp::Ushr => 2,
    }
}

fn logic_op_tag(op: LogicOp) -> u8 {
    match op {
        LogicOp::And => 0,
        LogicOp::Or => 1,
        LogicOp::Xor => 2,
    }
}

fn icond_tag(c: ICond) -> u8 {
    match c {
        ICond::Eq => 0,
        ICond::Ne => 1,
        ICond::Lt => 2,
        ICond::Ge => 3,
        ICond::Gt => 4,
        ICond::Le => 5,
    }
}

fn num_type_tag(t: NumType) -> u8 {
    match t {
        NumType::Int => 0,
        NumType::Long => 1,
        NumType::Float => 2,
        NumType::Double => 3,
        NumType::Byte => 4,
        NumType::Char => 5,
        NumType::Short => 6,
    }
}

fn akind_tag(k: AKind) -> u8 {
    match k {
        AKind::Int => 0,
        AKind::Long => 1,
        AKind::Float => 2,
        AKind::Double => 3,
        AKind::Ref => 4,
        AKind::Byte => 5,
        AKind::Char => 6,
        AKind::Short => 7,
    }
}

fn cmp_kind_tag(k: CmpKind) -> u8 {
    match k {
        CmpKind::Long => 0,
        CmpKind::Float(false) => 1,
        CmpKind::Float(true) => 2,
        CmpKind::Double(false) => 3,
        CmpKind::Double(true) => 4,
    }
}

fn invoke_kind_tag(k: InvokeKind) -> u8 {
    match k {
        InvokeKind::Virtual => 0,
        InvokeKind::Special => 1,
        InvokeKind::Static => 2,
        InvokeKind::Interface => 3,
    }
}

fn service_kind_tag(k: ServiceKind) -> u8 {
    match k {
        ServiceKind::Security => 0,
        ServiceKind::AuditEnter => 1,
        ServiceKind::AuditExit => 2,
        ServiceKind::AuditEvent => 3,
        ServiceKind::ProfileCount => 4,
        ServiceKind::ProfileFirstUse => 5,
    }
}

#[allow(clippy::too_many_lines)]
fn write_insn(w: &mut W, insn: &RInsn) {
    match insn {
        RInsn::Const { dst, v } => {
            w.u8(1);
            w.reg(*dst);
            match v {
                RConst::Null => w.u8(0),
                RConst::Int(v) => {
                    w.u8(1);
                    w.i32(*v);
                }
                RConst::Long(v) => {
                    w.u8(2);
                    w.i64(*v);
                }
                RConst::Float(v) => {
                    w.u8(3);
                    w.u32(v.to_bits());
                }
                RConst::Double(v) => {
                    w.u8(4);
                    w.i64(v.to_bits() as i64);
                }
                RConst::Str(idx) => {
                    w.u8(5);
                    w.u16(*idx);
                }
            }
        }
        RInsn::Move { dst, src } => {
            w.u8(2);
            w.reg(*dst);
            w.reg(*src);
        }
        RInsn::Arith {
            kind,
            op,
            dst,
            a,
            b,
        } => {
            w.u8(3);
            w.u8(num_kind_tag(*kind));
            w.u8(arith_op_tag(*op));
            w.reg(*dst);
            w.reg(*a);
            w.reg(*b);
        }
        RInsn::ArithImm { op, dst, src, imm } => {
            w.u8(4);
            w.u8(arith_op_tag(*op));
            w.reg(*dst);
            w.reg(*src);
            w.i32(*imm);
        }
        RInsn::Neg { kind, dst, src } => {
            w.u8(5);
            w.u8(num_kind_tag(*kind));
            w.reg(*dst);
            w.reg(*src);
        }
        RInsn::Shift {
            kind,
            op,
            dst,
            a,
            b,
        } => {
            w.u8(6);
            w.u8(num_kind_tag(*kind));
            w.u8(shift_op_tag(*op));
            w.reg(*dst);
            w.reg(*a);
            w.reg(*b);
        }
        RInsn::Logic {
            kind,
            op,
            dst,
            a,
            b,
        } => {
            w.u8(7);
            w.u8(num_kind_tag(*kind));
            w.u8(logic_op_tag(*op));
            w.reg(*dst);
            w.reg(*a);
            w.reg(*b);
        }
        RInsn::LogicImm { op, dst, src, imm } => {
            w.u8(8);
            w.u8(logic_op_tag(*op));
            w.reg(*dst);
            w.reg(*src);
            w.i32(*imm);
        }
        RInsn::ShiftImm { op, dst, src, imm } => {
            w.u8(9);
            w.u8(shift_op_tag(*op));
            w.reg(*dst);
            w.reg(*src);
            w.i32(*imm);
        }
        RInsn::Convert { from, to, dst, src } => {
            w.u8(10);
            w.u8(num_type_tag(*from));
            w.u8(num_type_tag(*to));
            w.reg(*dst);
            w.reg(*src);
        }
        RInsn::Cmp { kind, dst, a, b } => {
            w.u8(11);
            w.u8(cmp_kind_tag(*kind));
            w.reg(*dst);
            w.reg(*a);
            w.reg(*b);
        }
        RInsn::If { cond, a, b, target } => {
            w.u8(12);
            w.u8(icond_tag(*cond));
            w.reg(*a);
            w.opt_reg(*b);
            w.idx(*target);
        }
        RInsn::IfRef { eq, a, b, target } => {
            w.u8(13);
            w.u8(u8::from(*eq));
            w.reg(*a);
            w.opt_reg(*b);
            w.idx(*target);
        }
        RInsn::Goto { target } => {
            w.u8(14);
            w.idx(*target);
        }
        RInsn::TableSwitch {
            on,
            low,
            targets,
            default,
        } => {
            w.u8(15);
            w.reg(*on);
            w.i32(*low);
            w.u32(targets.len() as u32);
            for t in targets {
                w.idx(*t);
            }
            w.idx(*default);
        }
        RInsn::LookupSwitch { on, pairs, default } => {
            w.u8(16);
            w.reg(*on);
            w.u32(pairs.len() as u32);
            for (k, t) in pairs {
                w.i32(*k);
                w.idx(*t);
            }
            w.idx(*default);
        }
        RInsn::Return { src } => {
            w.u8(17);
            w.opt_reg(*src);
        }
        RInsn::GetStatic { idx, dst } => {
            w.u8(18);
            w.u16(*idx);
            w.reg(*dst);
        }
        RInsn::PutStatic { idx, src } => {
            w.u8(19);
            w.u16(*idx);
            w.reg(*src);
        }
        RInsn::GetField { idx, obj, dst } => {
            w.u8(20);
            w.u16(*idx);
            w.reg(*obj);
            w.reg(*dst);
        }
        RInsn::PutField { idx, obj, src } => {
            w.u8(21);
            w.u16(*idx);
            w.reg(*obj);
            w.reg(*src);
        }
        RInsn::Invoke {
            kind,
            idx,
            args,
            dst,
        } => {
            w.u8(22);
            w.u8(invoke_kind_tag(*kind));
            w.u16(*idx);
            w.u8(args.len().min(255) as u8);
            for a in args.iter().take(255) {
                w.reg(*a);
            }
            w.opt_reg(*dst);
        }
        RInsn::New { idx, dst } => {
            w.u8(23);
            w.u16(*idx);
            w.reg(*dst);
        }
        RInsn::NewArray { akind, len, dst } => {
            w.u8(24);
            w.u8(akind_tag(*akind));
            w.reg(*len);
            w.reg(*dst);
        }
        RInsn::ANewArray { idx, len, dst } => {
            w.u8(25);
            w.u16(*idx);
            w.reg(*len);
            w.reg(*dst);
        }
        RInsn::ArrayLoad {
            akind,
            arr,
            index,
            dst,
        } => {
            w.u8(26);
            w.u8(akind_tag(*akind));
            w.reg(*arr);
            w.reg(*index);
            w.reg(*dst);
        }
        RInsn::ArrayStore {
            akind,
            arr,
            index,
            src,
        } => {
            w.u8(27);
            w.u8(akind_tag(*akind));
            w.reg(*arr);
            w.reg(*index);
            w.reg(*src);
        }
        RInsn::ArrayLength { arr, dst } => {
            w.u8(28);
            w.reg(*arr);
            w.reg(*dst);
        }
        RInsn::AThrow { exc } => {
            w.u8(29);
            w.reg(*exc);
        }
        RInsn::CheckCast { idx, obj } => {
            w.u8(30);
            w.u16(*idx);
            w.reg(*obj);
        }
        RInsn::InstanceOf { idx, obj, dst } => {
            w.u8(31);
            w.u16(*idx);
            w.reg(*obj);
            w.reg(*dst);
        }
        RInsn::Monitor { enter, obj } => {
            w.u8(32);
            w.u8(u8::from(*enter));
            w.reg(*obj);
        }
        RInsn::Service { kind, a, b } => {
            w.u8(33);
            w.u8(service_kind_tag(*kind));
            w.sop(*a);
            w.sop(*b);
        }
    }
}

/// Serializes a [`ClassIr`] into a cacheable package.
pub fn encode(ir: &ClassIr) -> Vec<u8> {
    let mut w = W {
        buf: Vec::with_capacity(256),
    };
    w.buf.extend_from_slice(MAGIC);
    w.u8(VERSION);
    w.str(&ir.class);
    w.u16(ir.methods.len().min(u16::MAX as usize) as u16);
    for m in ir.methods.iter().take(u16::MAX as usize) {
        w.str(&m.name);
        w.str(&m.descriptor);
        w.u16(m.max_locals);
        w.u16(m.num_regs);
        w.u32(m.insns.len() as u32);
        for insn in &m.insns {
            write_insn(&mut w, insn);
        }
        w.u16(m.handlers.len().min(u16::MAX as usize) as u16);
        for h in m.handlers.iter().take(u16::MAX as usize) {
            w.idx(h.start);
            w.idx(h.end);
            w.idx(h.handler);
            w.u16(h.catch_type);
        }
    }
    w.buf
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn bad(reason: impl Into<String>) -> ExecError {
    dvm_fuzz::cov!("exec.decode.reject");
    ExecError::BadPackage(reason.into())
}

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(bad("truncated package"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn reg(&mut self) -> Result<VReg> {
        Ok(VReg(self.u16()?))
    }
    fn idx(&mut self) -> Result<usize> {
        Ok(self.u32()? as usize)
    }
    fn str(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("non-UTF-8 string"))
    }
    fn opt_reg(&mut self) -> Result<Option<VReg>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.reg()?)),
            t => Err(bad(format!("bad option tag {t}"))),
        }
    }
    fn sop(&mut self) -> Result<SOp> {
        match self.u8()? {
            0 => Ok(SOp::Reg(self.reg()?)),
            1 => Ok(SOp::Imm(self.i32()?)),
            t => Err(bad(format!("bad service operand tag {t}"))),
        }
    }
}

fn num_kind_of(t: u8) -> Result<NumKind> {
    Ok(match t {
        0 => NumKind::Int,
        1 => NumKind::Long,
        2 => NumKind::Float,
        3 => NumKind::Double,
        _ => return Err(bad(format!("bad numeric kind {t}"))),
    })
}

fn arith_op_of(t: u8) -> Result<ArithOp> {
    Ok(match t {
        0 => ArithOp::Add,
        1 => ArithOp::Sub,
        2 => ArithOp::Mul,
        3 => ArithOp::Div,
        4 => ArithOp::Rem,
        5 => ArithOp::Neg,
        _ => return Err(bad(format!("bad arith op {t}"))),
    })
}

fn shift_op_of(t: u8) -> Result<ShiftOp> {
    Ok(match t {
        0 => ShiftOp::Shl,
        1 => ShiftOp::Shr,
        2 => ShiftOp::Ushr,
        _ => return Err(bad(format!("bad shift op {t}"))),
    })
}

fn logic_op_of(t: u8) -> Result<LogicOp> {
    Ok(match t {
        0 => LogicOp::And,
        1 => LogicOp::Or,
        2 => LogicOp::Xor,
        _ => return Err(bad(format!("bad logic op {t}"))),
    })
}

fn icond_of(t: u8) -> Result<ICond> {
    Ok(match t {
        0 => ICond::Eq,
        1 => ICond::Ne,
        2 => ICond::Lt,
        3 => ICond::Ge,
        4 => ICond::Gt,
        5 => ICond::Le,
        _ => return Err(bad(format!("bad condition {t}"))),
    })
}

fn num_type_of(t: u8) -> Result<NumType> {
    Ok(match t {
        0 => NumType::Int,
        1 => NumType::Long,
        2 => NumType::Float,
        3 => NumType::Double,
        4 => NumType::Byte,
        5 => NumType::Char,
        6 => NumType::Short,
        _ => return Err(bad(format!("bad numeric type {t}"))),
    })
}

fn akind_of(t: u8) -> Result<AKind> {
    Ok(match t {
        0 => AKind::Int,
        1 => AKind::Long,
        2 => AKind::Float,
        3 => AKind::Double,
        4 => AKind::Ref,
        5 => AKind::Byte,
        6 => AKind::Char,
        7 => AKind::Short,
        _ => return Err(bad(format!("bad array kind {t}"))),
    })
}

fn cmp_kind_of(t: u8) -> Result<CmpKind> {
    Ok(match t {
        0 => CmpKind::Long,
        1 => CmpKind::Float(false),
        2 => CmpKind::Float(true),
        3 => CmpKind::Double(false),
        4 => CmpKind::Double(true),
        _ => return Err(bad(format!("bad compare kind {t}"))),
    })
}

fn invoke_kind_of(t: u8) -> Result<InvokeKind> {
    Ok(match t {
        0 => InvokeKind::Virtual,
        1 => InvokeKind::Special,
        2 => InvokeKind::Static,
        3 => InvokeKind::Interface,
        _ => return Err(bad(format!("bad invoke kind {t}"))),
    })
}

fn service_kind_of(t: u8) -> Result<ServiceKind> {
    Ok(match t {
        0 => ServiceKind::Security,
        1 => ServiceKind::AuditEnter,
        2 => ServiceKind::AuditExit,
        3 => ServiceKind::AuditEvent,
        4 => ServiceKind::ProfileCount,
        5 => ServiceKind::ProfileFirstUse,
        _ => return Err(bad(format!("bad service kind {t}"))),
    })
}

#[allow(clippy::too_many_lines)]
fn read_insn(r: &mut R<'_>) -> Result<RInsn> {
    dvm_fuzz::cov!("exec.insn");
    Ok(match r.u8()? {
        1 => {
            dvm_fuzz::cov!("exec.insn.const");
            let dst = r.reg()?;
            let v = match r.u8()? {
                0 => RConst::Null,
                1 => RConst::Int(r.i32()?),
                2 => RConst::Long(r.i64()?),
                3 => RConst::Float(f32::from_bits(r.u32()?)),
                4 => RConst::Double(f64::from_bits(r.i64()? as u64)),
                5 => RConst::Str(r.u16()?),
                t => return Err(bad(format!("bad constant tag {t}"))),
            };
            RInsn::Const { dst, v }
        }
        2 => RInsn::Move {
            dst: r.reg()?,
            src: r.reg()?,
        },
        3 => RInsn::Arith {
            kind: num_kind_of(r.u8()?)?,
            op: arith_op_of(r.u8()?)?,
            dst: r.reg()?,
            a: r.reg()?,
            b: r.reg()?,
        },
        4 => RInsn::ArithImm {
            op: arith_op_of(r.u8()?)?,
            dst: r.reg()?,
            src: r.reg()?,
            imm: r.i32()?,
        },
        5 => RInsn::Neg {
            kind: num_kind_of(r.u8()?)?,
            dst: r.reg()?,
            src: r.reg()?,
        },
        6 => RInsn::Shift {
            kind: num_kind_of(r.u8()?)?,
            op: shift_op_of(r.u8()?)?,
            dst: r.reg()?,
            a: r.reg()?,
            b: r.reg()?,
        },
        7 => RInsn::Logic {
            kind: num_kind_of(r.u8()?)?,
            op: logic_op_of(r.u8()?)?,
            dst: r.reg()?,
            a: r.reg()?,
            b: r.reg()?,
        },
        8 => RInsn::LogicImm {
            op: logic_op_of(r.u8()?)?,
            dst: r.reg()?,
            src: r.reg()?,
            imm: r.i32()?,
        },
        9 => RInsn::ShiftImm {
            op: shift_op_of(r.u8()?)?,
            dst: r.reg()?,
            src: r.reg()?,
            imm: r.i32()?,
        },
        10 => RInsn::Convert {
            from: num_type_of(r.u8()?)?,
            to: num_type_of(r.u8()?)?,
            dst: r.reg()?,
            src: r.reg()?,
        },
        11 => RInsn::Cmp {
            kind: cmp_kind_of(r.u8()?)?,
            dst: r.reg()?,
            a: r.reg()?,
            b: r.reg()?,
        },
        12 => RInsn::If {
            cond: icond_of(r.u8()?)?,
            a: r.reg()?,
            b: r.opt_reg()?,
            target: r.idx()?,
        },
        13 => RInsn::IfRef {
            eq: r.u8()? != 0,
            a: r.reg()?,
            b: r.opt_reg()?,
            target: r.idx()?,
        },
        14 => RInsn::Goto { target: r.idx()? },
        15 => {
            dvm_fuzz::cov!("exec.insn.tableswitch");
            let on = r.reg()?;
            let low = r.i32()?;
            let count = r.u32()? as usize;
            if count > MAX_ITEMS {
                return Err(bad("oversized switch table"));
            }
            let mut targets = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                targets.push(r.idx()?);
            }
            RInsn::TableSwitch {
                on,
                low,
                targets,
                default: r.idx()?,
            }
        }
        16 => {
            dvm_fuzz::cov!("exec.insn.lookupswitch");
            let on = r.reg()?;
            let count = r.u32()? as usize;
            if count > MAX_ITEMS {
                return Err(bad("oversized switch table"));
            }
            let mut pairs = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let k = r.i32()?;
                pairs.push((k, r.idx()?));
            }
            RInsn::LookupSwitch {
                on,
                pairs,
                default: r.idx()?,
            }
        }
        17 => RInsn::Return { src: r.opt_reg()? },
        18 => RInsn::GetStatic {
            idx: r.u16()?,
            dst: r.reg()?,
        },
        19 => RInsn::PutStatic {
            idx: r.u16()?,
            src: r.reg()?,
        },
        20 => RInsn::GetField {
            idx: r.u16()?,
            obj: r.reg()?,
            dst: r.reg()?,
        },
        21 => RInsn::PutField {
            idx: r.u16()?,
            obj: r.reg()?,
            src: r.reg()?,
        },
        22 => {
            dvm_fuzz::cov!("exec.insn.invoke");
            let kind = invoke_kind_of(r.u8()?)?;
            let idx = r.u16()?;
            let argc = r.u8()? as usize;
            let mut args = Vec::with_capacity(argc);
            for _ in 0..argc {
                args.push(r.reg()?);
            }
            RInsn::Invoke {
                kind,
                idx,
                args,
                dst: r.opt_reg()?,
            }
        }
        23 => RInsn::New {
            idx: r.u16()?,
            dst: r.reg()?,
        },
        24 => RInsn::NewArray {
            akind: akind_of(r.u8()?)?,
            len: r.reg()?,
            dst: r.reg()?,
        },
        25 => RInsn::ANewArray {
            idx: r.u16()?,
            len: r.reg()?,
            dst: r.reg()?,
        },
        26 => RInsn::ArrayLoad {
            akind: akind_of(r.u8()?)?,
            arr: r.reg()?,
            index: r.reg()?,
            dst: r.reg()?,
        },
        27 => RInsn::ArrayStore {
            akind: akind_of(r.u8()?)?,
            arr: r.reg()?,
            index: r.reg()?,
            src: r.reg()?,
        },
        28 => RInsn::ArrayLength {
            arr: r.reg()?,
            dst: r.reg()?,
        },
        29 => RInsn::AThrow { exc: r.reg()? },
        30 => RInsn::CheckCast {
            idx: r.u16()?,
            obj: r.reg()?,
        },
        31 => RInsn::InstanceOf {
            idx: r.u16()?,
            obj: r.reg()?,
            dst: r.reg()?,
        },
        32 => RInsn::Monitor {
            enter: r.u8()? != 0,
            obj: r.reg()?,
        },
        33 => {
            dvm_fuzz::cov!("exec.insn.service");
            RInsn::Service {
                kind: service_kind_of(r.u8()?)?,
                a: r.sop()?,
                b: r.sop()?,
            }
        }
        t => return Err(bad(format!("bad instruction tag {t}"))),
    })
}

/// Validates a decoded function: every register below `num_regs`, every
/// branch target and handler index inside the body. A function that
/// passes is safe to execute without further bounds checks.
fn validate(f: &Function) -> Result<()> {
    dvm_fuzz::cov!("exec.validate");
    let len = f.insns.len();
    let nr = f.num_regs;
    if f.max_locals > nr {
        return Err(bad("max_locals exceeds num_regs"));
    }
    for insn in &f.insns {
        let mut out_of_range = None;
        insn.for_each_read(|r| {
            if r.0 >= nr {
                out_of_range.get_or_insert(r);
            }
        });
        if let Some(r) = out_of_range.or(insn.writes().filter(|d| d.0 >= nr)) {
            return Err(bad(format!("register {} out of {nr}", r.0)));
        }
        let mut past_end = None;
        insn.for_each_target(|t| {
            if t >= len {
                past_end.get_or_insert(t);
            }
        });
        if let Some(t) = past_end {
            return Err(bad(format!("branch target {t} out of {len}")));
        }
    }
    for h in &f.handlers {
        if h.start >= h.end || h.end > len || h.handler >= len {
            return Err(bad("handler range out of bounds"));
        }
    }
    Ok(())
}

/// Decodes and validates a package produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<ClassIr> {
    let mut r = R { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(bad("bad magic"));
    }
    dvm_fuzz::cov!("exec.magic_ok");
    let version = r.u8()?;
    if version != VERSION {
        return Err(bad(format!("unsupported version {version}")));
    }
    dvm_fuzz::cov!("exec.version_ok");
    let class = r.str()?;
    let method_count = r.u16()? as usize;
    let mut methods = Vec::with_capacity(method_count.min(1024));
    for _ in 0..method_count {
        let name = r.str()?;
        let descriptor = r.str()?;
        let max_locals = r.u16()?;
        let num_regs = r.u16()?;
        let insn_count = r.u32()? as usize;
        if insn_count > MAX_ITEMS {
            return Err(bad("oversized method body"));
        }
        let mut insns = Vec::with_capacity(insn_count.min(4096));
        for _ in 0..insn_count {
            insns.push(read_insn(&mut r)?);
        }
        let handler_count = r.u16()? as usize;
        let mut handlers = Vec::with_capacity(handler_count.min(1024));
        for _ in 0..handler_count {
            handlers.push(RHandler {
                start: r.idx()?,
                end: r.idx()?,
                handler: r.idx()?,
                catch_type: r.u16()?,
            });
        }
        let f = Function {
            name,
            descriptor,
            insns,
            handlers,
            max_locals,
            num_regs,
        };
        validate(&f)?;
        dvm_fuzz::cov!("exec.method_ok");
        methods.push(f);
    }
    if r.pos != bytes.len() {
        return Err(bad("trailing bytes"));
    }
    dvm_fuzz::cov!("exec.decode_ok");
    Ok(ClassIr { class, methods })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_bytecode::insn::ICond;

    fn sample() -> ClassIr {
        ClassIr {
            class: "app/x/Main".into(),
            methods: vec![Function {
                name: "work".into(),
                descriptor: "(I)I".into(),
                insns: vec![
                    RInsn::Const {
                        dst: VReg(1),
                        v: RConst::Int(0),
                    },
                    RInsn::ArithImm {
                        op: ArithOp::Add,
                        dst: VReg(1),
                        src: VReg(1),
                        imm: 1,
                    },
                    RInsn::If {
                        cond: ICond::Lt,
                        a: VReg(1),
                        b: Some(VReg(0)),
                        target: 1,
                    },
                    RInsn::Service {
                        kind: ServiceKind::Security,
                        a: SOp::Imm(7),
                        b: SOp::Imm(3),
                    },
                    RInsn::Const {
                        dst: VReg(2),
                        v: RConst::Double(1.5),
                    },
                    RInsn::Return { src: Some(VReg(1)) },
                ],
                handlers: vec![RHandler {
                    start: 0,
                    end: 3,
                    handler: 5,
                    catch_type: 0,
                }],
                max_locals: 1,
                num_regs: 4,
            }],
        }
    }

    #[test]
    fn round_trips() {
        let ir = sample();
        let bytes = encode(&ir);
        assert_eq!(decode(&bytes).unwrap(), ir);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(ExecError::BadPackage(_))));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode(&bytes[..cut]), Err(ExecError::BadPackage(_))),
                "cut at {cut} must be a typed error"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_register() {
        let ir = ClassIr {
            class: "c".into(),
            methods: vec![Function {
                name: "m".into(),
                descriptor: "()V".into(),
                insns: vec![
                    RInsn::Move {
                        dst: VReg(40),
                        src: VReg(41),
                    },
                    RInsn::Return { src: None },
                ],
                handlers: vec![],
                max_locals: 0,
                num_regs: 2,
            }],
        };
        let bytes = encode(&ir);
        assert!(matches!(decode(&bytes), Err(ExecError::BadPackage(_))));
    }

    #[test]
    fn rejects_out_of_range_branch_target() {
        let ir = ClassIr {
            class: "c".into(),
            methods: vec![Function {
                name: "m".into(),
                descriptor: "()V".into(),
                insns: vec![RInsn::Goto { target: 9 }, RInsn::Return { src: None }],
                handlers: vec![],
                max_locals: 0,
                num_regs: 1,
            }],
        };
        let bytes = encode(&ir);
        assert!(matches!(decode(&bytes), Err(ExecError::BadPackage(_))));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&sample());
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(ExecError::BadPackage(_))));
    }
}
