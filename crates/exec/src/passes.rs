//! The optimization pass pipeline.
//!
//! Four passes run over a lowered [`Function`]:
//!
//! 1. **Service inlining** — the `invokestatic` stubs the proxy's
//!    rewriters inject (`dvm/rt/Enforcer.check`, `dvm/rt/Audit.*`,
//!    `dvm/rt/Profiler.*`) become [`RInsn::Service`] intrinsics, so
//!    self-servicing code stops paying a call dispatch per check.
//! 2. **Constant folding** — block-local constant tracking folds
//!    all-constant operations and, more importantly, rewrites
//!    one-constant `int` operations to immediate forms
//!    (`ArithImm`/`LogicImm`/`ShiftImm`) and service operands to
//!    immediates, collapsing the `load; const; op` triples stack
//!    lowering produces.
//! 3. **Copy propagation** — block-local; reroutes reads around the
//!    `Move` traffic left by `load`/`store` lowering.
//! 4. **Dead-code elimination** — backward liveness over the control
//!    flow graph; deletes side-effect-free instructions whose result is
//!    never observed (mostly the `Move`s pass 3 bypassed).
//!
//! Folding mirrors interpreter semantics exactly: wrapping `int`/`long`
//! arithmetic, masked shifts, and IEEE float behavior. Integer division
//! and remainder are *never* folded — they can throw — and conditional
//! branches are never folded away, keeping the pass pipeline's effect on
//! observable behavior nil. Functions with exception handlers only get
//! service inlining: handler entry states would make block-local
//! reasoning unsound, and the proxy's injected stubs never carry
//! handlers.

use dvm_bytecode::insn::{ArithOp, LogicOp, NumKind, NumType, ShiftOp};
use dvm_classfile::ConstPool;

use crate::ir::{CmpKind, Function, InvokeKind, RConst, RInsn, SOp, ServiceKind, VReg};

/// Upper bound on fold/copy/DCE fixpoint iterations.
pub const MAX_ITERATIONS: usize = 8;

/// Work done by one [`optimize`] run, for telemetry and the bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Dynamic-component stubs inlined to [`RInsn::Service`].
    pub services_inlined: usize,
    /// Instructions rewritten by constant folding.
    pub folded: usize,
    /// Operand reads rerouted by copy propagation.
    pub copies_propagated: usize,
    /// Instructions deleted as dead.
    pub eliminated: usize,
    /// Fixpoint iterations executed.
    pub iterations: usize,
}

impl PassStats {
    /// Accumulates another run's work into this one.
    pub fn absorb(&mut self, other: &PassStats) {
        self.services_inlined += other.services_inlined;
        self.folded += other.folded;
        self.copies_propagated += other.copies_propagated;
        self.eliminated += other.eliminated;
        self.iterations += other.iterations;
    }
}

/// Runs the full pipeline over `func` to a bounded fixpoint.
pub fn optimize(func: &mut Function, pool: &ConstPool) -> PassStats {
    let mut stats = PassStats {
        services_inlined: inline_services(func, pool),
        ..PassStats::default()
    };
    if !func.handlers.is_empty() {
        return stats;
    }
    for _ in 0..MAX_ITERATIONS {
        stats.iterations += 1;
        // Folding and copy propagation rewrite instructions without moving
        // any, so one leader set serves all three passes; only DCE moves
        // instructions, and the next iteration recomputes it.
        let lead = leaders(&func.insns);
        let folded = fold_constants(func, &lead);
        let copies = propagate_copies(func, &lead);
        let eliminated = eliminate_dead(func, &lead);
        stats.folded += folded;
        stats.copies_propagated += copies;
        stats.eliminated += eliminated;
        if folded + copies + eliminated == 0 {
            break;
        }
    }
    stats
}

/// Replaces rewriter-injected dynamic-component stub calls with
/// [`RInsn::Service`] intrinsics. Always safe: the replacement is 1:1
/// and the executor performs the identical service callback.
pub fn inline_services(func: &mut Function, pool: &ConstPool) -> usize {
    let mut inlined = 0;
    for insn in &mut func.insns {
        let RInsn::Invoke {
            kind: InvokeKind::Static,
            idx,
            args,
            dst: None,
        } = insn
        else {
            continue;
        };
        let Ok((class, name, desc)) = pool.get_member_ref(*idx) else {
            continue;
        };
        let kind = match (class, name, desc) {
            ("dvm/rt/Enforcer", "check", "(II)V") => ServiceKind::Security,
            ("dvm/rt/Audit", "enter", "(I)V") => ServiceKind::AuditEnter,
            ("dvm/rt/Audit", "exit", "(I)V") => ServiceKind::AuditExit,
            ("dvm/rt/Audit", "event", "(I)V") => ServiceKind::AuditEvent,
            ("dvm/rt/Profiler", "count", "(I)V") => ServiceKind::ProfileCount,
            ("dvm/rt/Profiler", "firstUse", "(I)V") => ServiceKind::ProfileFirstUse,
            _ => continue,
        };
        let expected = if kind == ServiceKind::Security { 2 } else { 1 };
        if args.len() != expected {
            continue;
        }
        let a = SOp::Reg(args[0]);
        let b = if kind == ServiceKind::Security {
            SOp::Reg(args[1])
        } else {
            SOp::Imm(0)
        };
        *insn = RInsn::Service { kind, a, b };
        inlined += 1;
    }
    inlined
}

/// Marks the first instruction of every basic block.
fn leaders(insns: &[RInsn]) -> Vec<bool> {
    let mut lead = vec![false; insns.len()];
    if let Some(first) = lead.first_mut() {
        *first = true;
    }
    for (i, insn) in insns.iter().enumerate() {
        let mut branches = false;
        insn.for_each_target(|t| {
            branches = true;
            if let Some(l) = lead.get_mut(t) {
                *l = true;
            }
        });
        if (branches || !insn.can_fall_through()) && i + 1 < lead.len() {
            lead[i + 1] = true;
        }
    }
    lead
}

/// One fact per register, for the block-local passes: a dense vector
/// indexed by register number, so tracking a fact is an index rather
/// than a hash. Registers past the end read as untracked and grow it.
struct RegMap<T>(Vec<Option<T>>);

impl<T: Copy + PartialEq> RegMap<T> {
    fn new(func: &Function) -> RegMap<T> {
        RegMap(vec![None; func.num_regs as usize])
    }

    fn get(&self, r: VReg) -> Option<T> {
        self.0.get(r.0 as usize).copied().flatten()
    }

    fn insert(&mut self, r: VReg, v: T) {
        let i = r.0 as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, None);
        }
        self.0[i] = Some(v);
    }

    fn remove(&mut self, r: VReg) {
        if let Some(slot) = self.0.get_mut(r.0 as usize) {
            *slot = None;
        }
    }

    fn clear(&mut self) {
        self.0.fill(None);
    }
}

fn fold_sop(s: SOp, known: &RegMap<RConst>) -> SOp {
    if let SOp::Reg(r) = s {
        if let Some(RConst::Int(v)) = known.get(r) {
            return SOp::Imm(v);
        }
    }
    s
}

/// `f2i` saturation, mirroring the interpreter.
fn f2i(v: f64) -> i32 {
    if v.is_nan() {
        0
    } else if v >= i32::MAX as f64 {
        i32::MAX
    } else if v <= i32::MIN as f64 {
        i32::MIN
    } else {
        v as i32
    }
}

/// `f2l` saturation, mirroring the interpreter.
fn f2l(v: f64) -> i64 {
    if v.is_nan() {
        0
    } else if v >= i64::MAX as f64 {
        i64::MAX
    } else if v <= i64::MIN as f64 {
        i64::MIN
    } else {
        v as i64
    }
}

fn fcmp(a: f64, b: f64, g: bool) -> i32 {
    if a.is_nan() || b.is_nan() {
        if g {
            1
        } else {
            -1
        }
    } else if a < b {
        -1
    } else if a > b {
        1
    } else {
        0
    }
}

/// Folds a two-operand arithmetic op over constants. Integer
/// division/remainder return `None`: they can throw and must execute.
fn arith_const(kind: NumKind, op: ArithOp, a: RConst, b: RConst) -> Option<RConst> {
    match (kind, a, b) {
        (NumKind::Int, RConst::Int(a), RConst::Int(b)) => Some(RConst::Int(match op {
            ArithOp::Add => a.wrapping_add(b),
            ArithOp::Sub => a.wrapping_sub(b),
            ArithOp::Mul => a.wrapping_mul(b),
            _ => return None,
        })),
        (NumKind::Long, RConst::Long(a), RConst::Long(b)) => Some(RConst::Long(match op {
            ArithOp::Add => a.wrapping_add(b),
            ArithOp::Sub => a.wrapping_sub(b),
            ArithOp::Mul => a.wrapping_mul(b),
            _ => return None,
        })),
        (NumKind::Float, RConst::Float(a), RConst::Float(b)) => Some(RConst::Float(match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
            ArithOp::Rem => a % b,
            ArithOp::Neg => return None,
        })),
        (NumKind::Double, RConst::Double(a), RConst::Double(b)) => Some(RConst::Double(match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
            ArithOp::Rem => a % b,
            ArithOp::Neg => return None,
        })),
        _ => None,
    }
}

fn shift_const(kind: NumKind, op: ShiftOp, v: RConst, amount: RConst) -> Option<RConst> {
    let RConst::Int(amount) = amount else {
        return None;
    };
    match (kind, v) {
        (NumKind::Int, RConst::Int(v)) => {
            let s = (amount & 0x1F) as u32;
            Some(RConst::Int(match op {
                ShiftOp::Shl => v.wrapping_shl(s),
                ShiftOp::Shr => v.wrapping_shr(s),
                ShiftOp::Ushr => ((v as u32).wrapping_shr(s)) as i32,
            }))
        }
        (NumKind::Long, RConst::Long(v)) => {
            let s = (amount & 0x3F) as u32;
            Some(RConst::Long(match op {
                ShiftOp::Shl => v.wrapping_shl(s),
                ShiftOp::Shr => v.wrapping_shr(s),
                ShiftOp::Ushr => ((v as u64).wrapping_shr(s)) as i64,
            }))
        }
        _ => None,
    }
}

fn logic_const(kind: NumKind, op: LogicOp, a: RConst, b: RConst) -> Option<RConst> {
    match (kind, a, b) {
        (NumKind::Int, RConst::Int(a), RConst::Int(b)) => Some(RConst::Int(match op {
            LogicOp::And => a & b,
            LogicOp::Or => a | b,
            LogicOp::Xor => a ^ b,
        })),
        (NumKind::Long, RConst::Long(a), RConst::Long(b)) => Some(RConst::Long(match op {
            LogicOp::And => a & b,
            LogicOp::Or => a | b,
            LogicOp::Xor => a ^ b,
        })),
        _ => None,
    }
}

fn convert_const(from: NumType, to: NumType, v: RConst) -> Option<RConst> {
    Some(match (from, to, v) {
        (NumType::Int, NumType::Long, RConst::Int(v)) => RConst::Long(v as i64),
        (NumType::Int, NumType::Float, RConst::Int(v)) => RConst::Float(v as f32),
        (NumType::Int, NumType::Double, RConst::Int(v)) => RConst::Double(v as f64),
        (NumType::Int, NumType::Byte, RConst::Int(v)) => RConst::Int(v as i8 as i32),
        (NumType::Int, NumType::Char, RConst::Int(v)) => RConst::Int(v as u16 as i32),
        (NumType::Int, NumType::Short, RConst::Int(v)) => RConst::Int(v as i16 as i32),
        (NumType::Long, NumType::Int, RConst::Long(v)) => RConst::Int(v as i32),
        (NumType::Long, NumType::Float, RConst::Long(v)) => RConst::Float(v as f32),
        (NumType::Long, NumType::Double, RConst::Long(v)) => RConst::Double(v as f64),
        (NumType::Float, NumType::Int, RConst::Float(v)) => RConst::Int(f2i(v as f64)),
        (NumType::Float, NumType::Long, RConst::Float(v)) => RConst::Long(f2l(v as f64)),
        (NumType::Float, NumType::Double, RConst::Float(v)) => RConst::Double(v as f64),
        (NumType::Double, NumType::Int, RConst::Double(v)) => RConst::Int(f2i(v)),
        (NumType::Double, NumType::Long, RConst::Double(v)) => RConst::Long(f2l(v)),
        (NumType::Double, NumType::Float, RConst::Double(v)) => RConst::Float(v as f32),
        _ => return None,
    })
}

fn cmp_const(kind: CmpKind, a: RConst, b: RConst) -> Option<RConst> {
    Some(RConst::Int(match (kind, a, b) {
        (CmpKind::Long, RConst::Long(a), RConst::Long(b)) => match a.cmp(&b) {
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => 1,
        },
        (CmpKind::Float(g), RConst::Float(a), RConst::Float(b)) => fcmp(a as f64, b as f64, g),
        (CmpKind::Double(g), RConst::Double(a), RConst::Double(b)) => fcmp(a, b, g),
        _ => return None,
    }))
}

/// The per-instruction rewrite of the folding pass; returns the
/// replacement when the instruction can be strengthened.
fn fold_one(insn: &RInsn, known: &RegMap<RConst>) -> Option<RInsn> {
    let k = |r: &VReg| known.get(*r);
    match insn {
        RInsn::Move { dst, src } => Some(RInsn::Const {
            dst: *dst,
            v: k(src)?,
        }),
        RInsn::Arith {
            kind,
            op,
            dst,
            a,
            b,
        } => {
            if matches!(kind, NumKind::Int | NumKind::Long)
                && matches!(op, ArithOp::Div | ArithOp::Rem)
            {
                return None;
            }
            if let (Some(ka), Some(kb)) = (k(a), k(b)) {
                return Some(RInsn::Const {
                    dst: *dst,
                    v: arith_const(*kind, *op, ka, kb)?,
                });
            }
            // One-constant int peepholes → immediate forms.
            if *kind != NumKind::Int {
                return None;
            }
            match (op, k(a), k(b)) {
                (ArithOp::Add, Some(RConst::Int(imm)), None) => Some(RInsn::ArithImm {
                    op: ArithOp::Add,
                    dst: *dst,
                    src: *b,
                    imm,
                }),
                (ArithOp::Add, None, Some(RConst::Int(imm))) => Some(RInsn::ArithImm {
                    op: ArithOp::Add,
                    dst: *dst,
                    src: *a,
                    imm,
                }),
                (ArithOp::Sub, None, Some(RConst::Int(imm))) => Some(RInsn::ArithImm {
                    op: ArithOp::Add,
                    dst: *dst,
                    src: *a,
                    imm: imm.wrapping_neg(),
                }),
                (ArithOp::Mul, Some(RConst::Int(imm)), None) => Some(RInsn::ArithImm {
                    op: ArithOp::Mul,
                    dst: *dst,
                    src: *b,
                    imm,
                }),
                (ArithOp::Mul, None, Some(RConst::Int(imm))) => Some(RInsn::ArithImm {
                    op: ArithOp::Mul,
                    dst: *dst,
                    src: *a,
                    imm,
                }),
                _ => None,
            }
        }
        RInsn::ArithImm { op, dst, src, imm } => {
            let RConst::Int(v) = k(src)? else { return None };
            Some(RInsn::Const {
                dst: *dst,
                v: RConst::Int(match op {
                    ArithOp::Add => v.wrapping_add(*imm),
                    ArithOp::Mul => v.wrapping_mul(*imm),
                    _ => return None,
                }),
            })
        }
        RInsn::Neg { kind, dst, src } => {
            let v = match (kind, k(src)?) {
                (NumKind::Int, RConst::Int(v)) => RConst::Int(v.wrapping_neg()),
                (NumKind::Long, RConst::Long(v)) => RConst::Long(v.wrapping_neg()),
                (NumKind::Float, RConst::Float(v)) => RConst::Float(-v),
                (NumKind::Double, RConst::Double(v)) => RConst::Double(-v),
                _ => return None,
            };
            Some(RInsn::Const { dst: *dst, v })
        }
        RInsn::Shift {
            kind,
            op,
            dst,
            a,
            b,
        } => {
            if let (Some(ka), Some(kb)) = (k(a), k(b)) {
                return Some(RInsn::Const {
                    dst: *dst,
                    v: shift_const(*kind, *op, ka, kb)?,
                });
            }
            if *kind == NumKind::Int {
                if let Some(RConst::Int(imm)) = k(b) {
                    return Some(RInsn::ShiftImm {
                        op: *op,
                        dst: *dst,
                        src: *a,
                        imm,
                    });
                }
            }
            None
        }
        RInsn::ShiftImm { op, dst, src, imm } => Some(RInsn::Const {
            dst: *dst,
            v: shift_const(NumKind::Int, *op, k(src)?, RConst::Int(*imm))?,
        }),
        RInsn::Logic {
            kind,
            op,
            dst,
            a,
            b,
        } => {
            if let (Some(ka), Some(kb)) = (k(a), k(b)) {
                return Some(RInsn::Const {
                    dst: *dst,
                    v: logic_const(*kind, *op, ka, kb)?,
                });
            }
            if *kind == NumKind::Int {
                // And/Or/Xor are commutative.
                let (imm, src) = match (k(a), k(b)) {
                    (Some(RConst::Int(imm)), None) => (imm, *b),
                    (None, Some(RConst::Int(imm))) => (imm, *a),
                    _ => return None,
                };
                return Some(RInsn::LogicImm {
                    op: *op,
                    dst: *dst,
                    src,
                    imm,
                });
            }
            None
        }
        RInsn::LogicImm { op, dst, src, imm } => Some(RInsn::Const {
            dst: *dst,
            v: logic_const(NumKind::Int, *op, k(src)?, RConst::Int(*imm))?,
        }),
        RInsn::Convert { from, to, dst, src } => Some(RInsn::Const {
            dst: *dst,
            v: convert_const(*from, *to, k(src)?)?,
        }),
        RInsn::Cmp { kind, dst, a, b } => Some(RInsn::Const {
            dst: *dst,
            v: cmp_const(*kind, k(a)?, k(b)?)?,
        }),
        RInsn::Service { kind, a, b } => {
            let (fa, fb) = (fold_sop(*a, known), fold_sop(*b, known));
            if fa != *a || fb != *b {
                Some(RInsn::Service {
                    kind: *kind,
                    a: fa,
                    b: fb,
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Block-local constant folding and immediate-form strengthening, over
/// the blocks `lead` marks.
fn fold_constants(func: &mut Function, lead: &[bool]) -> usize {
    let mut known = RegMap::new(func);
    let mut changed = 0;
    for (i, insn) in func.insns.iter_mut().enumerate() {
        if lead[i] {
            known.clear();
        }
        if let Some(new) = fold_one(insn, &known) {
            *insn = new;
            changed += 1;
        }
        if let RInsn::Const { dst, v } = insn {
            known.insert(*dst, *v);
        } else if let Some(dst) = insn.writes() {
            known.remove(dst);
        }
    }
    changed
}

/// Block-local copy propagation over the blocks `lead` marks: reads of a
/// `Move` destination are rerouted to its (transitively resolved) source.
fn propagate_copies(func: &mut Function, lead: &[bool]) -> usize {
    let mut copy_of = RegMap::new(func);
    let mut changed = 0;
    for (i, insn) in func.insns.iter_mut().enumerate() {
        if lead[i] {
            copy_of.clear();
        }
        insn.map_reads(|r| match copy_of.get(r) {
            Some(root) => {
                changed += 1;
                root
            }
            None => r,
        });
        if let Some(dst) = insn.writes() {
            // Forget every copy relation `dst` took part in.
            copy_of.remove(dst);
            for root in &mut copy_of.0 {
                if *root == Some(dst) {
                    *root = None;
                }
            }
            // Source reads were already rerouted above, so `src` is a
            // propagation root.
            if let RInsn::Move { dst, src } = insn {
                if dst != src {
                    copy_of.insert(*dst, *src);
                }
            }
        }
    }
    changed
}

/// Liveness-based dead-code elimination over the whole body, whose
/// basic blocks `lead` marks.
///
/// Computes backward liveness across basic blocks, then deletes
/// side-effect-free instructions whose destination is dead (plus
/// identity moves), repairing branch targets afterwards. Returns the
/// number of instructions removed. Bodies with handlers are left alone.
fn eliminate_dead(func: &mut Function, lead: &[bool]) -> usize {
    if !func.handlers.is_empty() || func.insns.is_empty() {
        return 0;
    }
    let n = func.insns.len();
    let nr = func.num_regs as usize + 1;
    let starts: Vec<usize> = (0..n).filter(|&i| lead[i]).collect();
    let nb = starts.len();
    let mut block_of = vec![0usize; n];
    {
        let mut cur = 0;
        for (i, b) in block_of.iter_mut().enumerate() {
            if i > 0 && lead[i] {
                cur += 1;
            }
            *b = cur;
        }
    }
    let end_of = |bi: usize| if bi + 1 < nb { starts[bi + 1] } else { n };
    // Successor blocks, flattened: block `bi`'s are
    // `succ[succ_at[bi]..succ_at[bi + 1]]`.
    let mut succ: Vec<usize> = Vec::new();
    let mut succ_at: Vec<usize> = Vec::with_capacity(nb + 1);
    for bi in 0..nb {
        succ_at.push(succ.len());
        let last = end_of(bi) - 1;
        let insn = &func.insns[last];
        insn.for_each_target(|t| succ.push(block_of[t]));
        if insn.can_fall_through() && last + 1 < n {
            succ.push(block_of[last + 1]);
        }
    }
    succ_at.push(succ.len());

    // Liveness as bitsets of `words` words per block, all in one buffer;
    // `live` is the one scratch set every block is computed in. reg()
    // clamps into the set so a malformed register index can never panic
    // the pass; lowering guarantees indices < num_regs.
    let words = nr.div_ceil(64);
    let reg = |r: VReg| (r.0 as usize).min(nr - 1);
    let set = |bits: &mut [u64], r: VReg, on: bool| {
        let i = reg(r);
        if on {
            bits[i / 64] |= 1 << (i % 64);
        } else {
            bits[i / 64] &= !(1 << (i % 64));
        }
    };
    let is_set = |bits: &[u64], r: VReg| bits[reg(r) / 64] & (1 << (reg(r) % 64)) != 0;
    let live_out = |bi: usize, live: &mut [u64], live_in: &[u64]| {
        live.fill(0);
        for &s in &succ[succ_at[bi]..succ_at[bi + 1]] {
            for (l, i) in live.iter_mut().zip(&live_in[s * words..(s + 1) * words]) {
                *l |= *i;
            }
        }
    };
    let mut live_in = vec![0u64; nb * words];
    let mut live = vec![0u64; words];
    loop {
        let mut stable = true;
        for bi in (0..nb).rev() {
            live_out(bi, &mut live, &live_in);
            for insn in func.insns[starts[bi]..end_of(bi)].iter().rev() {
                if let Some(d) = insn.writes() {
                    set(&mut live, d, false);
                }
                insn.for_each_read(|r| set(&mut live, r, true));
            }
            let block_in = &mut live_in[bi * words..(bi + 1) * words];
            if *block_in != *live {
                block_in.copy_from_slice(&live);
                stable = false;
            }
        }
        if stable {
            break;
        }
    }

    let mut keep = vec![true; n];
    let mut removed = 0;
    for (bi, &start) in starts.iter().enumerate() {
        live_out(bi, &mut live, &live_in);
        for i in (start..end_of(bi)).rev() {
            let insn = &func.insns[i];
            let dead = match insn.writes() {
                Some(d) if insn.side_effect_free() => {
                    let identity = matches!(insn, RInsn::Move { dst, src } if dst == src);
                    identity || !is_set(&live, d)
                }
                _ => false,
            };
            if dead {
                keep[i] = false;
                removed += 1;
                continue;
            }
            if let Some(d) = insn.writes() {
                set(&mut live, d, false);
            }
            insn.for_each_read(|r| set(&mut live, r, true));
        }
    }
    if removed == 0 {
        return 0;
    }
    // Compact in place and repair targets: a target maps to the position
    // its instruction (or, if removed, the next surviving one) now holds.
    let mut new_index = vec![0usize; n + 1];
    let mut c = 0;
    for i in 0..n {
        new_index[i] = c;
        if keep[i] {
            c += 1;
        }
    }
    new_index[n] = c;
    let mut kept = keep.iter();
    func.insns
        .retain(|_| *kept.next().expect("one flag per instruction"));
    for insn in &mut func.insns {
        insn.map_targets(|t| new_index[t]);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func(insns: Vec<RInsn>, max_locals: u16, num_regs: u16) -> Function {
        Function {
            name: "t".into(),
            descriptor: "()V".into(),
            insns,
            handlers: Vec::new(),
            max_locals,
            num_regs,
        }
    }

    #[test]
    fn folds_constant_arithmetic_to_one_const() {
        let mut f = func(
            vec![
                RInsn::Const {
                    dst: VReg(1),
                    v: RConst::Int(5),
                },
                RInsn::Const {
                    dst: VReg(2),
                    v: RConst::Int(7),
                },
                RInsn::Arith {
                    kind: NumKind::Int,
                    op: ArithOp::Add,
                    dst: VReg(3),
                    a: VReg(1),
                    b: VReg(2),
                },
                RInsn::Return { src: Some(VReg(3)) },
            ],
            1,
            4,
        );
        let pool = ConstPool::new();
        let stats = optimize(&mut f, &pool);
        assert_eq!(
            f.insns,
            vec![
                RInsn::Const {
                    dst: VReg(3),
                    v: RConst::Int(12)
                },
                RInsn::Return { src: Some(VReg(3)) },
            ]
        );
        assert!(stats.folded >= 1);
        assert_eq!(stats.eliminated, 2);
    }

    #[test]
    fn strengthens_one_const_add_to_immediate_form() {
        // r2 = arg; r3 = 1; r4 = r2 + r3  ==>  r4 = r2 + #1
        let mut f = func(
            vec![
                RInsn::Const {
                    dst: VReg(3),
                    v: RConst::Int(1),
                },
                RInsn::Arith {
                    kind: NumKind::Int,
                    op: ArithOp::Add,
                    dst: VReg(4),
                    a: VReg(2),
                    b: VReg(3),
                },
                RInsn::Return { src: Some(VReg(4)) },
            ],
            3,
            5,
        );
        let pool = ConstPool::new();
        optimize(&mut f, &pool);
        assert_eq!(
            f.insns,
            vec![
                RInsn::ArithImm {
                    op: ArithOp::Add,
                    dst: VReg(4),
                    src: VReg(2),
                    imm: 1
                },
                RInsn::Return { src: Some(VReg(4)) },
            ]
        );
    }

    #[test]
    fn subtraction_folds_to_add_of_negation() {
        let mut f = func(
            vec![
                RInsn::Const {
                    dst: VReg(3),
                    v: RConst::Int(10),
                },
                RInsn::Arith {
                    kind: NumKind::Int,
                    op: ArithOp::Sub,
                    dst: VReg(4),
                    a: VReg(2),
                    b: VReg(3),
                },
                RInsn::Return { src: Some(VReg(4)) },
            ],
            3,
            5,
        );
        let pool = ConstPool::new();
        optimize(&mut f, &pool);
        assert_eq!(
            f.insns[0],
            RInsn::ArithImm {
                op: ArithOp::Add,
                dst: VReg(4),
                src: VReg(2),
                imm: -10
            }
        );
    }

    #[test]
    fn never_folds_integer_division() {
        let insns = vec![
            RInsn::Const {
                dst: VReg(1),
                v: RConst::Int(10),
            },
            RInsn::Const {
                dst: VReg(2),
                v: RConst::Int(0),
            },
            RInsn::Arith {
                kind: NumKind::Int,
                op: ArithOp::Div,
                dst: VReg(3),
                a: VReg(1),
                b: VReg(2),
            },
            RInsn::Return { src: Some(VReg(3)) },
        ];
        let mut f = func(insns.clone(), 1, 4);
        let pool = ConstPool::new();
        optimize(&mut f, &pool);
        // The division (which must throw at run time) survives.
        assert!(f.insns.iter().any(|i| matches!(
            i,
            RInsn::Arith {
                op: ArithOp::Div,
                ..
            }
        )));
    }

    #[test]
    fn copy_propagation_reroutes_move_traffic() {
        // Classic lowering shape: stack = local; stack2 = stack + stack;
        // local = stack2; return local.
        let mut f = func(
            vec![
                RInsn::Move {
                    dst: VReg(2),
                    src: VReg(0),
                },
                RInsn::Arith {
                    kind: NumKind::Int,
                    op: ArithOp::Add,
                    dst: VReg(3),
                    a: VReg(2),
                    b: VReg(2),
                },
                RInsn::Move {
                    dst: VReg(0),
                    src: VReg(3),
                },
                RInsn::Return { src: Some(VReg(0)) },
            ],
            2,
            4,
        );
        let pool = ConstPool::new();
        let stats = optimize(&mut f, &pool);
        assert_eq!(
            f.insns,
            vec![
                RInsn::Arith {
                    kind: NumKind::Int,
                    op: ArithOp::Add,
                    dst: VReg(3),
                    a: VReg(0),
                    b: VReg(0),
                },
                RInsn::Return { src: Some(VReg(3)) },
            ]
        );
        assert!(stats.copies_propagated >= 2);
        assert_eq!(stats.eliminated, 2);
    }

    #[test]
    fn dce_repairs_branch_targets() {
        // 0: dead const; 1: goto 3; 2: dead const (unreachable but kept
        // shape-wise); 3: return.
        let mut f = func(
            vec![
                RInsn::Const {
                    dst: VReg(1),
                    v: RConst::Int(1),
                },
                RInsn::Goto { target: 3 },
                RInsn::Const {
                    dst: VReg(1),
                    v: RConst::Int(2),
                },
                RInsn::Return { src: None },
            ],
            1,
            2,
        );
        let lead = leaders(&f.insns);
        let removed = eliminate_dead(&mut f, &lead);
        assert_eq!(removed, 2);
        assert_eq!(
            f.insns,
            vec![RInsn::Goto { target: 1 }, RInsn::Return { src: None }]
        );
    }

    #[test]
    fn liveness_keeps_values_read_across_blocks() {
        // r1 written in block 0, read in block 1 after a branch: the
        // write must survive even though no read follows in-block.
        let mut f = func(
            vec![
                RInsn::Const {
                    dst: VReg(1),
                    v: RConst::Int(9),
                },
                RInsn::Goto { target: 2 },
                RInsn::Return { src: Some(VReg(1)) },
            ],
            1,
            2,
        );
        let lead = leaders(&f.insns);
        assert_eq!(eliminate_dead(&mut f, &lead), 0);
        assert_eq!(f.insns.len(), 3);
    }

    #[test]
    fn loop_carried_liveness_survives() {
        // 0: r1 = 0; 1: r1 = r1 + 1; 2: if r1 < 10 goto 1; 3: return r1
        let mut f = func(
            vec![
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
                RInsn::Const {
                    dst: VReg(2),
                    v: RConst::Int(10),
                },
                RInsn::Arith {
                    kind: NumKind::Int,
                    op: ArithOp::Sub,
                    dst: VReg(3),
                    a: VReg(1),
                    b: VReg(2),
                },
                RInsn::If {
                    cond: dvm_bytecode::insn::ICond::Lt,
                    a: VReg(3),
                    b: None,
                    target: 1,
                },
                RInsn::Return { src: Some(VReg(1)) },
            ],
            1,
            4,
        );
        let pool = ConstPool::new();
        optimize(&mut f, &pool);
        // The loop body must keep the increment and the comparison.
        assert!(f
            .insns
            .iter()
            .any(|i| matches!(i, RInsn::ArithImm { imm: 1, .. })));
        assert!(f.insns.iter().any(|i| matches!(i, RInsn::If { .. })));
    }

    #[test]
    fn service_stub_calls_inline_and_fold_to_immediates() {
        let mut pool = ConstPool::new();
        let check = pool.methodref("dvm/rt/Enforcer", "check", "(II)V").unwrap();
        let count = pool.methodref("dvm/rt/Profiler", "count", "(I)V").unwrap();
        let mut f = func(
            vec![
                RInsn::Const {
                    dst: VReg(1),
                    v: RConst::Int(7),
                },
                RInsn::Const {
                    dst: VReg(2),
                    v: RConst::Int(3),
                },
                RInsn::Invoke {
                    kind: InvokeKind::Static,
                    idx: check,
                    args: vec![VReg(1), VReg(2)],
                    dst: None,
                },
                RInsn::Const {
                    dst: VReg(1),
                    v: RConst::Int(7),
                },
                RInsn::Invoke {
                    kind: InvokeKind::Static,
                    idx: count,
                    args: vec![VReg(1)],
                    dst: None,
                },
                RInsn::Return { src: None },
            ],
            1,
            3,
        );
        let stats = optimize(&mut f, &pool);
        assert_eq!(stats.services_inlined, 2);
        // Three bytecode instructions per check collapse to one Service
        // with pure immediates.
        assert_eq!(
            f.insns,
            vec![
                RInsn::Service {
                    kind: ServiceKind::Security,
                    a: SOp::Imm(7),
                    b: SOp::Imm(3),
                },
                RInsn::Service {
                    kind: ServiceKind::ProfileCount,
                    a: SOp::Imm(7),
                    b: SOp::Imm(0),
                },
                RInsn::Return { src: None },
            ]
        );
    }

    #[test]
    fn handlers_restrict_the_pipeline_to_service_inlining() {
        let pool = ConstPool::new();
        let mut f = func(
            vec![
                RInsn::Const {
                    dst: VReg(1),
                    v: RConst::Int(1),
                },
                RInsn::Return { src: None },
            ],
            1,
            2,
        );
        f.handlers.push(crate::ir::RHandler {
            start: 0,
            end: 1,
            handler: 1,
            catch_type: 0,
        });
        let stats = optimize(&mut f, &pool);
        assert_eq!(stats.iterations, 0);
        assert_eq!(f.insns.len(), 2);
    }
}
