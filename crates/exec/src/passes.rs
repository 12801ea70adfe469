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
//! Passes 2–4 iterate to a bounded fixpoint. Each iteration builds the
//! control-flow graph once and shares it across the three: folding and
//! copy propagation rewrite instructions without moving any, and only
//! DCE moves instructions, so the next iteration rebuilds it. When every
//! edge goes forward, one reverse sweep over the blocks computes exact
//! liveness and DCE skips the confirming sweep. An [`Optimizer`] carries
//! the graph, the block-local register facts and the liveness sets from
//! one method of a class to the next, so the pipeline allocates per
//! class, not per method, pass or instruction. Block-local facts are
//! stamped with their block, so starting a block forgets them without
//! clearing a register-sized table.
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

/// Runs the full pipeline over `func` to a bounded fixpoint; an
/// [`Optimizer`] runs it over many functions without re-allocating.
pub fn optimize(func: &mut Function, pool: &ConstPool) -> PassStats {
    Optimizer::default().optimize(func, pool)
}

/// The pass pipeline with its buffers, reused from one function to the
/// next.
#[derive(Default)]
pub struct Optimizer {
    cfg: Cfg,
    known: RegMap<RConst>,
    copy_of: RegMap<(VReg, u32)>,
    /// Writes seen per register so far: a copy relation holds while its
    /// source's count is the one it was recorded with.
    writes: Vec<u32>,
    live_in: Vec<u64>,
    live: Vec<u64>,
    kept: Vec<u64>,
    keep: Vec<bool>,
    new_index: Vec<usize>,
}

impl Optimizer {
    /// Runs the full pipeline over `func` to a bounded fixpoint.
    pub fn optimize(&mut self, func: &mut Function, pool: &ConstPool) -> PassStats {
        let mut stats = PassStats {
            services_inlined: inline_services(func, pool),
            ..PassStats::default()
        };
        if !func.handlers.is_empty() {
            return stats;
        }
        for _ in 0..MAX_ITERATIONS {
            stats.iterations += 1;
            self.cfg.build(&func.insns);
            let folded = self.fold_constants(func);
            let copies = self.propagate_copies(func);
            let eliminated = self.eliminate_dead(func);
            stats.folded += folded;
            stats.copies_propagated += copies;
            stats.eliminated += eliminated;
            if folded + copies + eliminated == 0 {
                break;
            }
        }
        stats
    }
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

/// A body's basic blocks and their successor edges.
#[derive(Default)]
struct Cfg {
    /// Whether each instruction starts a block.
    lead: Vec<bool>,
    /// First instruction of each block, ascending.
    starts: Vec<usize>,
    /// Successor blocks, flattened: block `b`'s are
    /// `succ[succ_at[b]..succ_at[b + 1]]`.
    succ: Vec<usize>,
    succ_at: Vec<usize>,
    /// Every edge goes to a later block: no loops.
    forward: bool,
}

impl Cfg {
    fn build(&mut self, insns: &[RInsn]) {
        let n = insns.len();
        let lead = &mut self.lead;
        lead.clear();
        lead.resize(n, false);
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
            if (branches || !insn.can_fall_through()) && i + 1 < n {
                lead[i + 1] = true;
            }
        }
        self.starts.clear();
        self.starts.extend(
            self.lead
                .iter()
                .enumerate()
                .filter(|(_, &l)| l)
                .map(|(i, _)| i),
        );
        let nb = self.starts.len();
        self.succ.clear();
        self.succ_at.clear();
        self.forward = true;
        for b in 0..nb {
            self.succ_at.push(self.succ.len());
            let last = self.end(b) - 1;
            let insn = &insns[last];
            // Every target starts a block.
            let starts = &self.starts;
            insn.for_each_target(|t| {
                let block = starts.binary_search(&t).expect("a target leads a block");
                self.succ.push(block);
            });
            if insn.can_fall_through() && last + 1 < n {
                self.succ.push(b + 1);
            }
            let out = &self.succ[self.succ_at[b]..];
            self.forward &= out.iter().all(|&s| s > b);
        }
        self.succ_at.push(self.succ.len());
    }

    /// One past the last instruction of block `b`.
    fn end(&self, b: usize) -> usize {
        self.starts.get(b + 1).copied().unwrap_or(self.lead.len())
    }

    fn succs(&self, b: usize) -> &[usize] {
        &self.succ[self.succ_at[b]..self.succ_at[b + 1]]
    }
}

/// One fact per register, for the block-local passes: a dense vector
/// indexed by register number, so tracking a fact is an index rather
/// than a hash. Each fact is stamped with the block it was learned in,
/// so [`RegMap::clear`] is a counter bump. Registers past the end read
/// as untracked and grow it.
struct RegMap<T> {
    facts: Vec<(u32, Option<T>)>,
    block: u32,
}

impl<T> Default for RegMap<T> {
    fn default() -> RegMap<T> {
        RegMap {
            facts: Vec::new(),
            block: 0,
        }
    }
}

impl<T: Copy> RegMap<T> {
    /// Makes room for every register of `func`.
    fn fit(&mut self, func: &Function) {
        if self.facts.len() < func.num_regs as usize {
            self.facts.resize(func.num_regs as usize, (0, None));
        }
    }

    fn get(&self, r: VReg) -> Option<T> {
        match self.facts.get(r.0 as usize) {
            Some(&(block, fact)) if block == self.block => fact,
            _ => None,
        }
    }

    fn insert(&mut self, r: VReg, v: T) {
        let i = r.0 as usize;
        if i >= self.facts.len() {
            self.facts.resize(i + 1, (0, None));
        }
        self.facts[i] = (self.block, Some(v));
    }

    fn remove(&mut self, r: VReg) {
        if let Some(slot) = self.facts.get_mut(r.0 as usize) {
            slot.1 = None;
        }
    }

    /// Forgets every fact: a new block starts.
    fn clear(&mut self) {
        self.block = self.block.wrapping_add(1);
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

impl Optimizer {
    /// Block-local constant folding and immediate-form strengthening, over
    /// the blocks of the current graph.
    fn fold_constants(&mut self, func: &mut Function) -> usize {
        let known = &mut self.known;
        known.fit(func);
        let mut changed = 0;
        for (insn, &lead) in func.insns.iter_mut().zip(&self.cfg.lead) {
            if lead {
                known.clear();
            }
            if let Some(new) = fold_one(insn, known) {
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

    /// Block-local copy propagation over the blocks of the current graph:
    /// reads of a `Move` destination are rerouted to its (transitively
    /// resolved) source. A relation is forgotten when its destination is
    /// written, and lapses when its source is: it records the source's
    /// write count.
    fn propagate_copies(&mut self, func: &mut Function) -> usize {
        let (copy_of, writes) = (&mut self.copy_of, &mut self.writes);
        copy_of.fit(func);
        if writes.len() < func.num_regs as usize {
            writes.resize(func.num_regs as usize, 0);
        }
        let mut changed = 0;
        for (insn, &lead) in func.insns.iter_mut().zip(&self.cfg.lead) {
            if lead {
                copy_of.clear();
            }
            insn.map_reads(|r| match copy_of.get(r) {
                Some((root, w)) if writes.get(root.0 as usize).copied().unwrap_or(0) == w => {
                    changed += 1;
                    root
                }
                _ => r,
            });
            if let Some(dst) = insn.writes() {
                let d = dst.0 as usize;
                if d >= writes.len() {
                    writes.resize(d + 1, 0);
                }
                writes[d] = writes[d].wrapping_add(1);
                copy_of.remove(dst);
                // Source reads were already rerouted above, so `src` is a
                // propagation root.
                if let RInsn::Move { dst, src } = insn {
                    if dst != src {
                        let w = writes.get(src.0 as usize).copied().unwrap_or(0);
                        copy_of.insert(*dst, (*src, w));
                    }
                }
            }
        }
        changed
    }

    /// Liveness-based dead-code elimination over the whole body, whose
    /// basic blocks the current graph holds.
    ///
    /// Computes backward liveness across basic blocks, then deletes
    /// side-effect-free instructions whose destination is dead (plus
    /// identity moves), repairing branch targets afterwards. Returns the
    /// number of instructions removed. Bodies with handlers are left alone.
    fn eliminate_dead(&mut self, func: &mut Function) -> usize {
        if !func.handlers.is_empty() || func.insns.is_empty() {
            return 0;
        }
        let n = func.insns.len();
        let nr = func.num_regs as usize + 1;
        let cfg = &self.cfg;
        let nb = cfg.starts.len();

        // Liveness as bitsets of `words` words per block, all in one
        // buffer; `live` is the one scratch set every block is computed
        // in. reg() clamps into the set so a malformed register index can
        // never panic the pass; lowering guarantees indices < num_regs.
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
        let live_out = |b: usize, live: &mut [u64], live_in: &[u64]| {
            live.fill(0);
            for &s in cfg.succs(b) {
                for (l, i) in live.iter_mut().zip(&live_in[s * words..(s + 1) * words]) {
                    *l |= *i;
                }
            }
        };
        let (live_in, live, kept) = (&mut self.live_in, &mut self.live, &mut self.kept);
        live_in.clear();
        live_in.resize(nb * words, 0);
        live.clear();
        live.resize(words, 0);
        kept.clear();
        kept.resize(words, 0);
        let keep = &mut self.keep;
        keep.clear();
        keep.resize(n, true);
        // Each sweep walks the blocks backwards once, tracking two sets
        // per block: `live` over every instruction (the block's live-in)
        // and `kept` over the instructions that survive, which decides
        // what is dead. The decisions of a sweep that changes no live-in
        // read final sets, so they stand. Without a backward edge, every
        // successor's set is final before its predecessors read it: the
        // first sweep is exact, and no confirming sweep runs.
        let mut removed;
        loop {
            let mut stable = true;
            removed = 0;
            for b in (0..nb).rev() {
                live_out(b, live, live_in);
                kept.copy_from_slice(live);
                for i in (cfg.starts[b]..cfg.end(b)).rev() {
                    let insn = &func.insns[i];
                    let write = insn.writes();
                    let dead = match write {
                        Some(d) if insn.side_effect_free() => {
                            let identity = matches!(insn, RInsn::Move { dst, src } if dst == src);
                            identity || !is_set(kept, d)
                        }
                        _ => false,
                    };
                    keep[i] = !dead;
                    removed += usize::from(dead);
                    if let Some(d) = write {
                        set(live, d, false);
                        if !dead {
                            set(kept, d, false);
                        }
                    }
                    insn.for_each_read(|r| {
                        set(live, r, true);
                        if !dead {
                            set(kept, r, true);
                        }
                    });
                }
                let block_in = &mut live_in[b * words..(b + 1) * words];
                if *block_in != **live {
                    block_in.copy_from_slice(live);
                    stable = false;
                }
            }
            if stable || cfg.forward {
                break;
            }
        }
        if removed == 0 {
            return 0;
        }
        // Compact in place and repair targets: a target maps to the
        // position its instruction (or, if removed, the next surviving
        // one) now holds.
        let new_index = &mut self.new_index;
        new_index.clear();
        new_index.reserve(n + 1);
        let mut c = 0;
        for &k in keep.iter() {
            new_index.push(c);
            c += usize::from(k);
        }
        new_index.push(c);
        let mut flags = keep.iter();
        func.insns
            .retain(|_| *flags.next().expect("one flag per instruction"));
        for insn in &mut func.insns {
            insn.map_targets(|t| new_index[t]);
        }
        removed
    }
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
    fn folding_stops_at_block_boundaries() {
        // 0: r1 = 2; 1: if r0 == 0 goto 3; 2: r1 = 9; 3: r2 = 1;
        // 4: r3 = r1 + r2. Index 3 is reached from 1 and 2, so r1 is not
        // a known constant there: only r2 folds, into an immediate.
        let mut f = func(
            vec![
                RInsn::Const {
                    dst: VReg(1),
                    v: RConst::Int(2),
                },
                RInsn::If {
                    cond: dvm_bytecode::insn::ICond::Eq,
                    a: VReg(0),
                    b: None,
                    target: 3,
                },
                RInsn::Const {
                    dst: VReg(1),
                    v: RConst::Int(9),
                },
                RInsn::Const {
                    dst: VReg(2),
                    v: RConst::Int(1),
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
        let mut opt = Optimizer::default();
        opt.cfg.build(&f.insns);
        assert_eq!(opt.fold_constants(&mut f), 1);
        assert_eq!(
            f.insns[4],
            RInsn::ArithImm {
                op: ArithOp::Add,
                dst: VReg(3),
                src: VReg(1),
                imm: 1
            }
        );
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
        let mut opt = Optimizer::default();
        opt.cfg.build(&f.insns);
        let removed = opt.eliminate_dead(&mut f);
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
        let mut opt = Optimizer::default();
        opt.cfg.build(&f.insns);
        assert_eq!(opt.eliminate_dead(&mut f), 0);
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
