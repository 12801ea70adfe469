//! Phase 3: type-safety verification by abstract interpretation.
//!
//! A worklist dataflow simulates every method over the [`VType`] lattice:
//! operand kinds, local-variable initialization, uninitialized-object
//! tracking (`new` → `<init>`), constructor discipline, and return-type
//! agreement. Because this phase sees one class in isolation, every belief
//! about *another* class (member existence, subtyping) is recorded as a
//! [`ScopedAssumption`] for phase 4 instead of being resolved here.
//!
//! Subroutines (`jsr`/`ret`) are rejected outright — the paper notes that
//! verifier implementations differ on subroutine constraints, and this
//! verifier takes the strict position.
//!
//! Simulating an instruction allocates nothing. The states of a method's
//! program points share one buffer (`States`), a popped state is copied
//! into one reused scratch state, merges join in place, reference names
//! are shared, and what the constant pool says about a member is parsed
//! once per class (`PoolMemo`). Allocation happens per method (the state
//! buffer grows by doubling) and when a new assumption is recorded.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use dvm_bytecode::insn::{AKind, Insn, Kind, NumKind, NumType};
use dvm_bytecode::{Bodies, Code};
use dvm_classfile::descriptor::{FieldType, MethodDescriptor};
use dvm_classfile::pool::Constant;
use dvm_classfile::ClassFile;

use crate::assumptions::{Assumption, Scope, ScopedAssumption};
use crate::error::{Result, VerifyFailure};
use crate::types::VType;

/// Output of phase 3.
#[derive(Debug, Default)]
pub struct Phase3Output {
    /// Static checks performed.
    pub checks: u64,
    /// Link-time assumptions collected across all methods.
    pub assumptions: Vec<ScopedAssumption>,
}

/// Abstract machine state at one program point, as simulated.
#[derive(Debug, Clone, Default, PartialEq)]
struct MState {
    locals: Vec<VType>,
    stack: Vec<VType>,
    this_init: bool,
}

/// The states of one method's program points, packed into one buffer:
/// point `i`'s locals, then its stack, occupy the slots from `p.start`
/// once `at[i]` holds `p`. Every state of a method has the same number of
/// locals, and a merge never changes a stack's depth, so recording a point
/// only appends and a point keeps its slots for the rest of the method.
struct States {
    locals: usize,
    slots: Vec<VType>,
    at: Vec<Option<Point>>,
}

#[derive(Debug, Clone, Copy)]
struct Point {
    start: usize,
    depth: usize,
    this_init: bool,
}

impl States {
    /// Room for `n` points, with `entry` recorded at point 0.
    fn new(n: usize, entry: &MState) -> States {
        let mut states = States {
            locals: entry.locals.len(),
            slots: Vec::new(),
            at: vec![None; n],
        };
        states.record(0, entry);
        states
    }

    /// The stack depth of point `i`, or `None` if it was never reached.
    fn depth(&self, i: usize) -> Option<usize> {
        self.at[i].map(|p| p.depth)
    }

    /// Copies point `i`'s state into `st`, reusing its buffers; `false`
    /// if `i` was never reached.
    fn load(&self, i: usize, st: &mut MState) -> bool {
        let Some(p) = self.at[i] else {
            return false;
        };
        let slots = &self.slots[p.start..p.start + self.locals + p.depth];
        let (locals, stack) = slots.split_at(self.locals);
        st.locals.clear();
        st.locals.extend_from_slice(locals);
        st.stack.clear();
        st.stack.extend_from_slice(stack);
        st.this_init = p.this_init;
        true
    }

    /// Gives the unreached point `i` the state `st`.
    fn record(&mut self, i: usize, st: &MState) {
        self.at[i] = Some(Point {
            start: self.slots.len(),
            depth: st.stack.len(),
            this_init: st.this_init,
        });
        self.slots.extend_from_slice(&st.locals);
        self.slots.extend_from_slice(&st.stack);
    }

    /// Joins `incoming` into point `i`'s state element by element, in
    /// place. Returns `None` when `i` was never reached or the shapes
    /// differ (the state is then untouched), otherwise whether anything
    /// changed. Allocates nothing.
    fn merge_into(&mut self, i: usize, incoming: &MState) -> Option<bool> {
        let Some(p) = &mut self.at[i] else {
            return None;
        };
        if p.depth != incoming.stack.len() || self.locals != incoming.locals.len() {
            return None;
        }
        let mut changed = false;
        let slots = &mut self.slots[p.start..p.start + self.locals + p.depth];
        for (a, b) in slots
            .iter_mut()
            .zip(incoming.locals.iter().chain(&incoming.stack))
        {
            if a != b {
                let joined = a.merge(b);
                if joined != *a {
                    *a = joined;
                    changed = true;
                }
            }
        }
        if p.this_init && !incoming.this_init {
            p.this_init = false;
            changed = true;
        }
        Some(changed)
    }
}

/// Parameter and return types of one `Methodref`.
struct MethodSig {
    params: Vec<VType>,
    ret: Option<VType>,
}

/// What phase 3 derives from one class's constant pool, computed on first
/// use and shared by every method and every revisit of an instruction.
#[derive(Default)]
struct PoolMemo {
    /// Interned names: every `VType::Ref` built from a pool or literal
    /// name shares one allocation per distinct name.
    names: HashSet<Arc<str>>,
    /// Field type per `Fieldref` index.
    fields: HashMap<u16, VType>,
    /// Parameter and return types per `Methodref` index.
    methods: HashMap<u16, Rc<MethodSig>>,
    /// Result type per `anewarray` class index.
    arrays: HashMap<u16, VType>,
    /// Element type per reference-array type name.
    elements: HashMap<Arc<str>, VType>,
}

impl PoolMemo {
    fn name(&mut self, name: &str) -> Arc<str> {
        if let Some(n) = self.names.get(name) {
            return Arc::clone(n);
        }
        let n: Arc<str> = name.into();
        self.names.insert(Arc::clone(&n));
        n
    }

    fn reference(&mut self, name: &str) -> VType {
        VType::Ref(self.name(name))
    }
}

struct Ctx<'a> {
    cf: &'a ClassFile,
    memo: &'a mut PoolMemo,
    class: Arc<str>,
    method: &'a str,
    is_init: bool,
    ret: Option<&'a FieldType>,
    ret_type: Option<VType>,
    checks: u64,
    /// Method-scope assumptions in the order first formed, and the same
    /// set hashed for the duplicate test.
    assumptions: Vec<Assumption>,
    seen: HashSet<Assumption>,
}

impl Ctx<'_> {
    fn fail(&self, at: usize, reason: String) -> VerifyFailure {
        dvm_fuzz::cov!("verify.phase3.fail");
        VerifyFailure {
            phase: 3,
            class: self.class.to_string(),
            method: Some(self.method.to_owned()),
            at: Some(at),
            reason,
        }
    }

    /// Records a method-scope assumption; `check` attaches the method.
    fn assume(&mut self, a: Assumption) {
        // Assumptions about this class itself are checked locally instead.
        if a.subject() == &*self.class || self.seen.contains(&a) {
            return;
        }
        self.seen.insert(a.clone());
        self.assumptions.push(a);
    }
}

/// Runs phase 3 over every method body, reusing the decode phase 2 left
/// in `bodies`.
pub fn check(cf: &ClassFile, bodies: &mut Bodies) -> Result<Phase3Output> {
    dvm_fuzz::cov!("verify.phase3");
    let mut memo = PoolMemo::default();
    let class = memo.name(cf.name()?);
    let mut out = Phase3Output::default();

    // Class-scope assumption: the superclass relationship (the paper's
    // example of a fundamental assumption affecting the whole class).
    if let Some(sup) = cf.super_name()? {
        if sup != "java/lang/Object" {
            out.assumptions.push(ScopedAssumption {
                assumption: Assumption::Extends {
                    class: sup.to_owned(),
                    superclass: "java/lang/Object".to_owned(),
                },
                scope: Scope::Class,
                method: None,
            });
        }
    }

    let mut seen: HashSet<ScopedAssumption> = HashSet::new();
    for (mi, m) in cf.methods.iter().enumerate() {
        let Some(code) = bodies.body(cf, mi)? else {
            continue;
        };
        let mname = m.name(&cf.pool)?;
        let mdesc = m.descriptor(&cf.pool)?;
        let desc = MethodDescriptor::parse(mdesc)?;

        let mut ctx = Ctx {
            cf,
            memo: &mut memo,
            class: Arc::clone(&class),
            method: mname,
            is_init: mname == "<init>",
            ret: desc.ret.as_ref(),
            ret_type: desc.ret.as_ref().map(VType::of_field_type),
            checks: 0,
            assumptions: Vec::new(),
            seen: HashSet::new(),
        };

        verify_method(&mut ctx, m.access.is_static(), &desc, code)?;

        out.checks += ctx.checks;
        for assumption in ctx.assumptions {
            let sa = ScopedAssumption {
                assumption,
                scope: Scope::Method,
                method: Some((mname.to_owned(), mdesc.to_owned())),
            };
            if !seen.contains(&sa) {
                seen.insert(sa.clone());
                out.assumptions.push(sa);
            }
        }
    }
    Ok(out)
}

fn initial_state(ctx: &Ctx<'_>, is_static: bool, desc: &MethodDescriptor, code: &Code) -> MState {
    let mut locals = Vec::new();
    if !is_static {
        locals.push(if ctx.is_init {
            VType::UninitThis
        } else {
            VType::Ref(Arc::clone(&ctx.class))
        });
    }
    for p in &desc.params {
        let v = VType::of_field_type(p);
        let wide = v.is_wide();
        locals.push(v);
        if wide {
            locals.push(match p {
                FieldType::Long => VType::Long2,
                _ => VType::Double2,
            });
        }
    }
    while locals.len() < code.max_locals as usize {
        locals.push(VType::Top);
    }
    MState {
        locals,
        stack: Vec::new(),
        this_init: !ctx.is_init,
    }
}

fn verify_method(
    ctx: &mut Ctx<'_>,
    is_static: bool,
    desc: &MethodDescriptor,
    code: &Code,
) -> Result<()> {
    dvm_fuzz::cov!("verify.phase3.method");
    let n = code.insns.len();
    let entry = initial_state(ctx, is_static, desc, code);
    let mut states = States::new(n, &entry);
    let mut work: Vec<usize> = vec![0];

    // Handler catch types, resolved once.
    let mut handler_types: HashMap<usize, VType> = HashMap::new();
    for h in &code.handlers {
        let t = if h.catch_type == 0 {
            ctx.memo.reference("java/lang/Throwable")
        } else {
            let name = ctx.cf.pool.get_class_name(h.catch_type)?;
            ctx.assume(Assumption::Extends {
                class: name.to_owned(),
                superclass: "java/lang/Throwable".to_owned(),
            });
            ctx.memo.reference(name)
        };
        handler_types.insert(h.handler, t);
    }

    // Scratch space reused by every pop: the state being simulated, the
    // state a covering handler is entered with, and the successor list.
    let mut st = entry;
    let mut caught = MState::default();
    let mut succs: Vec<usize> = Vec::new();
    while let Some(i) = work.pop() {
        if !states.load(i, &mut st) {
            continue;
        }
        succs.clear();
        simulate(ctx, i, &code.insns[i], &mut st, &mut succs)?;

        // Propagate to exception handlers covering this instruction: the
        // handler sees current locals with a one-element stack.
        for h in &code.handlers {
            if i >= h.start && i < h.end {
                caught.locals.clone_from(&st.locals);
                caught.stack.clear();
                caught.stack.push(handler_types[&h.handler].clone());
                caught.this_init = st.this_init;
                propagate(ctx, &mut states, &mut work, h.handler, &caught, i, n)?;
            }
        }

        for &s in &succs {
            propagate(ctx, &mut states, &mut work, s, &st, i, n)?;
        }
    }
    Ok(())
}

fn propagate(
    ctx: &mut Ctx<'_>,
    states: &mut States,
    work: &mut Vec<usize>,
    target: usize,
    incoming: &MState,
    from: usize,
    n: usize,
) -> Result<()> {
    if target >= n {
        return Err(ctx.fail(from, format!("branch target {target} out of range")));
    }
    ctx.checks += 1;
    match states.depth(target) {
        None => {
            states.record(target, incoming);
            work.push(target);
        }
        Some(depth) => match states.merge_into(target, incoming) {
            None => {
                return Err(ctx.fail(
                    target,
                    format!(
                        "stack shape mismatch at merge: {depth} vs {} entries",
                        incoming.stack.len()
                    ),
                ))
            }
            Some(true) => work.push(target),
            Some(false) => {}
        },
    }
    Ok(())
}

// ---- Operand helpers --------------------------------------------------------

fn pop(ctx: &mut Ctx<'_>, st: &mut MState, at: usize) -> Result<VType> {
    ctx.checks += 1;
    st.stack
        .pop()
        .ok_or_else(|| ctx.fail(at, "operand stack underflow".into()))
}

fn pop_expect(ctx: &mut Ctx<'_>, st: &mut MState, at: usize, want: &VType) -> Result<()> {
    let got = pop(ctx, st, at)?;
    if &got != want {
        return Err(ctx.fail(at, format!("expected {want:?}, found {got:?}")));
    }
    Ok(())
}

fn pop_initialized_ref(ctx: &mut Ctx<'_>, st: &mut MState, at: usize) -> Result<VType> {
    let got = pop(ctx, st, at)?;
    if got.is_initialized_reference() {
        Ok(got)
    } else {
        Err(ctx.fail(at, format!("expected initialized reference, found {got:?}")))
    }
}

/// Checks assignability of `value` into a slot of declared type `want`,
/// recording a subtype assumption when the answer depends on another class.
fn compat(ctx: &mut Ctx<'_>, at: usize, value: &VType, want: &VType) -> Result<()> {
    ctx.checks += 1;
    let ok = match (value, want) {
        (VType::Int, VType::Int)
        | (VType::Float, VType::Float)
        | (VType::Long, VType::Long)
        | (VType::Double, VType::Double)
        | (VType::Null, VType::Ref(_)) => true,
        (VType::Ref(a), VType::Ref(b)) => {
            if a == b || &**b == "java/lang/Object" {
                true
            } else {
                // Subtyping across classes: defer to the link phase.
                ctx.assume(Assumption::Extends {
                    class: a.to_string(),
                    superclass: b.to_string(),
                });
                true
            }
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(ctx.fail(
            at,
            format!("cannot use {value:?} where {want:?} is required"),
        ))
    }
}

fn num_vtype(kind: NumKind) -> VType {
    match kind {
        NumKind::Int => VType::Int,
        NumKind::Long => VType::Long,
        NumKind::Float => VType::Float,
        NumKind::Double => VType::Double,
    }
}

/// The type a primitive `load`/`store` kind moves. Reference kinds are
/// checked with [`VType::is_reference`] instead and never reach here.
fn kind_vtype(kind: Kind) -> VType {
    match kind {
        Kind::Int => VType::Int,
        Kind::Long => VType::Long,
        Kind::Float => VType::Float,
        Kind::Double => VType::Double,
        Kind::Ref => VType::object(),
    }
}

fn akind_elem(kind: AKind) -> VType {
    match kind {
        AKind::Int | AKind::Byte | AKind::Char | AKind::Short => VType::Int,
        AKind::Long => VType::Long,
        AKind::Float => VType::Float,
        AKind::Double => VType::Double,
        AKind::Ref => VType::object(),
    }
}

fn akind_array_desc(kind: AKind) -> &'static str {
    match kind {
        AKind::Int => "[I",
        AKind::Long => "[J",
        AKind::Float => "[F",
        AKind::Double => "[D",
        AKind::Byte => "[B",
        AKind::Char => "[C",
        AKind::Short => "[S",
        AKind::Ref => "[",
    }
}

fn num_type_vtype(t: NumType) -> VType {
    match t {
        NumType::Int | NumType::Byte | NumType::Char | NumType::Short => VType::Int,
        NumType::Long => VType::Long,
        NumType::Float => VType::Float,
        NumType::Double => VType::Double,
    }
}

/// Simulates `insn` over `st`, appending its successor indices to `succs`
/// (the fall-through successor `i + 1` is included when applicable).
#[allow(clippy::too_many_lines)]
fn simulate(
    ctx: &mut Ctx<'_>,
    i: usize,
    insn: &Insn,
    st: &mut MState,
    succs: &mut Vec<usize>,
) -> Result<()> {
    let cf = ctx.cf;
    let mut fall = true;
    match insn {
        Insn::Nop => {}
        Insn::AConstNull => st.stack.push(VType::Null),
        Insn::IConst(_) => st.stack.push(VType::Int),
        Insn::LConst(_) => st.stack.push(VType::Long),
        Insn::FConst(_) => st.stack.push(VType::Float),
        Insn::DConst(_) => st.stack.push(VType::Double),
        Insn::Ldc(idx) => {
            ctx.checks += 1;
            match cf.pool.get(*idx) {
                Ok(Constant::Integer(_)) => st.stack.push(VType::Int),
                Ok(Constant::Float(_)) => st.stack.push(VType::Float),
                Ok(Constant::String { .. }) => {
                    st.stack.push(ctx.memo.reference("java/lang/String"))
                }
                other => return Err(ctx.fail(i, format!("ldc of invalid constant: {other:?}"))),
            }
        }
        Insn::Ldc2(idx) => {
            ctx.checks += 1;
            match cf.pool.get(*idx) {
                Ok(Constant::Long(_)) => st.stack.push(VType::Long),
                Ok(Constant::Double(_)) => st.stack.push(VType::Double),
                other => return Err(ctx.fail(i, format!("ldc2_w of invalid constant: {other:?}"))),
            }
        }
        Insn::Load(kind, slot) => {
            ctx.checks += 1;
            let slot = *slot as usize;
            let v = st
                .locals
                .get(slot)
                .cloned()
                .ok_or_else(|| ctx.fail(i, format!("local {slot} out of range")))?;
            match kind {
                Kind::Ref => {
                    if !v.is_reference() {
                        return Err(ctx.fail(i, format!("aload of non-reference {v:?}")));
                    }
                }
                _ => {
                    let want = kind_vtype(*kind);
                    if v != want {
                        return Err(ctx.fail(i, format!("load expected {want:?}, found {v:?}")));
                    }
                    if v.is_wide() {
                        let want_tail = if v == VType::Long {
                            VType::Long2
                        } else {
                            VType::Double2
                        };
                        if st.locals.get(slot + 1) != Some(&want_tail) {
                            return Err(ctx.fail(i, "broken wide local pair".into()));
                        }
                    }
                }
            }
            st.stack.push(v);
        }
        Insn::Store(kind, slot) => {
            let slot = *slot as usize;
            let v = pop(ctx, st, i)?;
            match kind {
                Kind::Ref => {
                    if !v.is_reference() {
                        return Err(ctx.fail(i, format!("astore of {v:?}")));
                    }
                }
                _ => {
                    let want = kind_vtype(*kind);
                    if v != want {
                        return Err(ctx.fail(i, format!("store expected {want:?}, found {v:?}")));
                    }
                }
            }
            if slot >= st.locals.len() {
                return Err(ctx.fail(i, format!("local {slot} out of range")));
            }
            // Overwriting half of a wide pair invalidates the other half.
            if slot > 0 && st.locals[slot - 1].is_wide() {
                st.locals[slot - 1] = VType::Top;
            }
            let wide = v.is_wide();
            let tail = if v == VType::Long {
                VType::Long2
            } else {
                VType::Double2
            };
            st.locals[slot] = v;
            if wide {
                if slot + 1 >= st.locals.len() {
                    return Err(ctx.fail(i, "wide store at last local slot".into()));
                }
                st.locals[slot + 1] = tail;
            }
        }
        Insn::ArrayLoad(kind) => {
            pop_expect(ctx, st, i, &VType::Int)?;
            let arr = pop_initialized_ref(ctx, st, i)?;
            let elem = check_array_ref(ctx, i, &arr, *kind)?;
            st.stack.push(elem);
        }
        Insn::ArrayStore(kind) => {
            let value = pop(ctx, st, i)?;
            pop_expect(ctx, st, i, &VType::Int)?;
            let arr = pop_initialized_ref(ctx, st, i)?;
            let elem = check_array_ref(ctx, i, &arr, *kind)?;
            compat(ctx, i, &value, &elem)?;
        }
        Insn::Pop => {
            let v = pop(ctx, st, i)?;
            if v.is_wide() {
                return Err(ctx.fail(i, "pop of category-2 value".into()));
            }
        }
        Insn::Pop2 => {
            let v = pop(ctx, st, i)?;
            if !v.is_wide() {
                let v2 = pop(ctx, st, i)?;
                if v2.is_wide() {
                    return Err(ctx.fail(i, "pop2 splitting a category-2 value".into()));
                }
            }
        }
        Insn::Dup => {
            let v = st
                .stack
                .last()
                .cloned()
                .ok_or_else(|| ctx.fail(i, "dup on empty stack".into()))?;
            if v.is_wide() {
                return Err(ctx.fail(i, "dup of category-2 value".into()));
            }
            st.stack.push(v);
        }
        Insn::DupX1 | Insn::DupX2 | Insn::Dup2 | Insn::Dup2X1 | Insn::Dup2X2 => {
            dup_form(ctx, st, i, insn)?;
        }
        Insn::Swap => {
            let a = pop(ctx, st, i)?;
            let b = pop(ctx, st, i)?;
            if a.is_wide() || b.is_wide() {
                return Err(ctx.fail(i, "swap of category-2 value".into()));
            }
            st.stack.push(a);
            st.stack.push(b);
        }
        Insn::Arith(kind, op) => {
            let t = num_vtype(*kind);
            pop_expect(ctx, st, i, &t)?;
            if *op != dvm_bytecode::ArithOp::Neg {
                pop_expect(ctx, st, i, &t)?;
            }
            st.stack.push(t);
        }
        Insn::Shift(kind, _) => {
            let t = num_vtype(*kind);
            if !matches!(kind, NumKind::Int | NumKind::Long) {
                return Err(ctx.fail(i, "shift of non-integral kind".into()));
            }
            pop_expect(ctx, st, i, &VType::Int)?;
            pop_expect(ctx, st, i, &t)?;
            st.stack.push(t);
        }
        Insn::Logic(kind, _) => {
            let t = num_vtype(*kind);
            if !matches!(kind, NumKind::Int | NumKind::Long) {
                return Err(ctx.fail(i, "logic of non-integral kind".into()));
            }
            pop_expect(ctx, st, i, &t)?;
            pop_expect(ctx, st, i, &t)?;
            st.stack.push(t);
        }
        Insn::IInc(slot, _) => {
            ctx.checks += 1;
            if st.locals.get(*slot as usize) != Some(&VType::Int) {
                return Err(ctx.fail(i, format!("iinc of non-int local {slot}")));
            }
        }
        Insn::Convert(from, to) => {
            pop_expect(ctx, st, i, &num_type_vtype(*from))?;
            st.stack.push(num_type_vtype(*to));
        }
        Insn::LCmp => {
            pop_expect(ctx, st, i, &VType::Long)?;
            pop_expect(ctx, st, i, &VType::Long)?;
            st.stack.push(VType::Int);
        }
        Insn::FCmp(_) => {
            pop_expect(ctx, st, i, &VType::Float)?;
            pop_expect(ctx, st, i, &VType::Float)?;
            st.stack.push(VType::Int);
        }
        Insn::DCmp(_) => {
            pop_expect(ctx, st, i, &VType::Double)?;
            pop_expect(ctx, st, i, &VType::Double)?;
            st.stack.push(VType::Int);
        }
        Insn::If(_, t) => {
            pop_expect(ctx, st, i, &VType::Int)?;
            succs.push(*t);
        }
        Insn::IfICmp(_, t) => {
            pop_expect(ctx, st, i, &VType::Int)?;
            pop_expect(ctx, st, i, &VType::Int)?;
            succs.push(*t);
        }
        Insn::IfACmp(_, t) => {
            pop_initialized_ref(ctx, st, i)?;
            pop_initialized_ref(ctx, st, i)?;
            succs.push(*t);
        }
        Insn::IfNull(t) | Insn::IfNonNull(t) => {
            pop_initialized_ref(ctx, st, i)?;
            succs.push(*t);
        }
        Insn::Goto(t) => {
            succs.push(*t);
            fall = false;
        }
        Insn::Jsr(_) | Insn::Ret(_) => {
            return Err(ctx.fail(
                i,
                "subroutines (jsr/ret) are rejected by this verifier".into(),
            ));
        }
        Insn::TableSwitch {
            default, targets, ..
        } => {
            pop_expect(ctx, st, i, &VType::Int)?;
            succs.push(*default);
            succs.extend_from_slice(targets);
            fall = false;
        }
        Insn::LookupSwitch { default, pairs } => {
            pop_expect(ctx, st, i, &VType::Int)?;
            succs.push(*default);
            succs.extend(pairs.iter().map(|(_, t)| *t));
            fall = false;
        }
        Insn::Return(kind) => {
            ctx.checks += 1;
            match (kind, ctx.ret, ctx.ret_type.clone()) {
                (None, None, _) => {}
                (Some(k), Some(rt), Some(want)) => {
                    let v = pop(ctx, st, i)?;
                    let kind_ok = match k {
                        Kind::Int => want == VType::Int,
                        Kind::Long => want == VType::Long,
                        Kind::Float => want == VType::Float,
                        Kind::Double => want == VType::Double,
                        Kind::Ref => matches!(want, VType::Ref(_)),
                    };
                    if !kind_ok {
                        return Err(ctx.fail(i, format!("return kind {k:?} vs {rt}")));
                    }
                    compat(ctx, i, &v, &want)?;
                }
                (got, want, _) => {
                    return Err(
                        ctx.fail(i, format!("return {got:?} from method returning {want:?}"))
                    );
                }
            }
            if ctx.is_init && !st.this_init {
                return Err(ctx.fail(i, "constructor returns before super <init>".into()));
            }
            fall = false;
        }
        Insn::GetStatic(idx) => {
            let (c, n, d) = member(ctx, i, *idx)?;
            field_assumption(ctx, i, c, n, d)?;
            st.stack.push(field_type(ctx, *idx, d)?);
        }
        Insn::PutStatic(idx) => {
            let (c, n, d) = member(ctx, i, *idx)?;
            field_assumption(ctx, i, c, n, d)?;
            let want = field_type(ctx, *idx, d)?;
            let v = pop(ctx, st, i)?;
            compat(ctx, i, &v, &want)?;
        }
        Insn::GetField(idx) => {
            let (c, n, d) = member(ctx, i, *idx)?;
            field_assumption(ctx, i, c, n, d)?;
            pop_initialized_ref(ctx, st, i)?;
            st.stack.push(field_type(ctx, *idx, d)?);
        }
        Insn::PutField(idx) => {
            let (c, n, d) = member(ctx, i, *idx)?;
            field_assumption(ctx, i, c, n, d)?;
            let want = field_type(ctx, *idx, d)?;
            let v = pop(ctx, st, i)?;
            compat(ctx, i, &v, &want)?;
            // Receiver: an initialized reference, or `this` inside a
            // constructor storing to its own fields before super-init.
            let recv = pop(ctx, st, i)?;
            let ok =
                recv.is_initialized_reference() || (recv == VType::UninitThis && c == &*ctx.class);
            if !ok {
                return Err(ctx.fail(i, format!("putfield on {recv:?}")));
            }
        }
        Insn::InvokeVirtual(idx) | Insn::InvokeInterface(idx) => {
            invoke(ctx, st, i, *idx, InvokeKind::Virtual)?;
        }
        Insn::InvokeSpecial(idx) => {
            invoke(ctx, st, i, *idx, InvokeKind::Special)?;
        }
        Insn::InvokeStatic(idx) => {
            invoke(ctx, st, i, *idx, InvokeKind::Static)?;
        }
        Insn::New(idx) => {
            ctx.checks += 1;
            cf.pool
                .get_class_name(*idx)
                .map_err(|e| ctx.fail(i, e.to_string()))?;
            st.stack.push(VType::Uninit(i));
        }
        Insn::NewArray(kind) => {
            pop_expect(ctx, st, i, &VType::Int)?;
            st.stack.push(ctx.memo.reference(akind_array_desc(*kind)));
        }
        Insn::ANewArray(idx) => {
            let name = cf
                .pool
                .get_class_name(*idx)
                .map_err(|e| ctx.fail(i, e.to_string()))?;
            pop_expect(ctx, st, i, &VType::Int)?;
            let memo = &mut *ctx.memo;
            let t = memo.arrays.entry(*idx).or_insert_with(|| {
                let desc = if name.starts_with('[') {
                    format!("[{name}")
                } else {
                    format!("[L{name};")
                };
                VType::Ref(desc.into())
            });
            st.stack.push(t.clone());
        }
        Insn::ArrayLength => {
            let arr = pop_initialized_ref(ctx, st, i)?;
            if let VType::Ref(name) = &arr {
                if !name.starts_with('[') {
                    return Err(ctx.fail(i, format!("arraylength of {name}")));
                }
            }
            st.stack.push(VType::Int);
        }
        Insn::AThrow => {
            let exc = pop_initialized_ref(ctx, st, i)?;
            if let VType::Ref(name) = &exc {
                if &**name != "java/lang/Throwable" {
                    ctx.assume(Assumption::Extends {
                        class: name.to_string(),
                        superclass: "java/lang/Throwable".to_owned(),
                    });
                }
            }
            fall = false;
        }
        Insn::CheckCast(idx) => {
            let name = cf
                .pool
                .get_class_name(*idx)
                .map_err(|e| ctx.fail(i, e.to_string()))?;
            pop_initialized_ref(ctx, st, i)?;
            st.stack.push(ctx.memo.reference(name));
        }
        Insn::InstanceOf(idx) => {
            ctx.checks += 1;
            cf.pool
                .get_class_name(*idx)
                .map_err(|e| ctx.fail(i, e.to_string()))?;
            pop_initialized_ref(ctx, st, i)?;
            st.stack.push(VType::Int);
        }
        Insn::MonitorEnter | Insn::MonitorExit => {
            pop_initialized_ref(ctx, st, i)?;
        }
        Insn::MultiANewArray(idx, dims) => {
            let name = cf
                .pool
                .get_class_name(*idx)
                .map_err(|e| ctx.fail(i, e.to_string()))?;
            for _ in 0..*dims {
                pop_expect(ctx, st, i, &VType::Int)?;
            }
            st.stack.push(ctx.memo.reference(name));
        }
    }
    if fall {
        succs.push(i + 1);
    }
    Ok(())
}

fn check_array_ref(ctx: &mut Ctx<'_>, i: usize, arr: &VType, kind: AKind) -> Result<VType> {
    ctx.checks += 1;
    match arr {
        VType::Null => Ok(akind_elem(kind)),
        VType::Ref(name) if name.starts_with('[') => {
            let elem_desc = &name[1..];
            match kind {
                AKind::Ref => {
                    if elem_desc.starts_with('L') || elem_desc.starts_with('[') {
                        let elem = ctx
                            .memo
                            .elements
                            .entry(Arc::clone(name))
                            .or_insert_with(|| {
                                FieldType::parse(elem_desc)
                                    .map(|ft| VType::of_field_type(&ft))
                                    .unwrap_or_else(|_| VType::object())
                            });
                        Ok(elem.clone())
                    } else {
                        Err(ctx.fail(i, format!("reference array op on {name}")))
                    }
                }
                prim => {
                    let want = akind_array_desc(prim);
                    // boolean arrays share the byte opcodes.
                    let ok = &**name == want || (prim == AKind::Byte && &**name == "[Z");
                    if ok {
                        Ok(akind_elem(prim))
                    } else {
                        Err(ctx.fail(i, format!("{prim:?} array op on {name}")))
                    }
                }
            }
        }
        VType::Ref(name) => Err(ctx.fail(i, format!("array op on non-array {name}"))),
        other => Err(ctx.fail(i, format!("array op on {other:?}"))),
    }
}

/// Examines the stack entry `*depth` below the top exactly as popping it
/// would — one check, underflow if absent — without moving it, and
/// returns whether it is a category-2 value.
fn peek(ctx: &mut Ctx<'_>, st: &MState, at: usize, depth: &mut usize) -> Result<bool> {
    ctx.checks += 1;
    let len = st.stack.len();
    if *depth >= len {
        return Err(ctx.fail(at, "operand stack underflow".into()));
    }
    *depth += 1;
    Ok(st.stack[len - *depth].is_wide())
}

fn dup_form(ctx: &mut Ctx<'_>, st: &mut MState, i: usize, insn: &Insn) -> Result<()> {
    // Block duplication mirroring the interpreter's semantics, with
    // category checks per form. The top `block` entries are copied below
    // the `skipped` ones beneath them, in place.
    let top_slots: u16 = match insn {
        Insn::DupX1 | Insn::DupX2 => 1,
        _ => 2,
    };
    let mut depth = 0;
    let mut slots = 0;
    while slots < top_slots {
        slots += if peek(ctx, st, i, &mut depth)? { 2 } else { 1 };
    }
    let block = depth;
    if matches!(insn, Insn::DupX1 | Insn::DupX2) && st.stack[st.stack.len() - 1].is_wide() {
        return Err(ctx.fail(i, "dup_x of category-2 value".into()));
    }
    match insn {
        Insn::Dup2 => {}
        Insn::DupX1 | Insn::Dup2X1 => {
            if peek(ctx, st, i, &mut depth)? {
                return Err(ctx.fail(i, "x1 form across category-2 value".into()));
            }
        }
        Insn::DupX2 | Insn::Dup2X2 => {
            if !peek(ctx, st, i, &mut depth)? {
                peek(ctx, st, i, &mut depth)?;
            }
        }
        _ => unreachable!(),
    }
    // [.., skipped, block] → [.., skipped, block, block] → [.., block, skipped, block]
    let len = st.stack.len();
    st.stack.extend_from_within(len - block..);
    st.stack[len - depth..].rotate_right(block);
    Ok(())
}

/// The class, name and descriptor of a member reference, borrowed from
/// the pool.
fn member<'a>(ctx: &mut Ctx<'a>, i: usize, idx: u16) -> Result<(&'a str, &'a str, &'a str)> {
    ctx.checks += 1;
    let cf = ctx.cf;
    cf.pool
        .get_member_ref(idx)
        .map_err(|e| ctx.fail(i, e.to_string()))
}

/// The verification type of the field `idx` names (its descriptor is
/// `descriptor`), parsed once per class.
fn field_type(ctx: &mut Ctx<'_>, idx: u16, descriptor: &str) -> Result<VType> {
    if let Some(t) = ctx.memo.fields.get(&idx) {
        return Ok(t.clone());
    }
    let t = VType::of_field_type(&FieldType::parse(descriptor)?);
    ctx.memo.fields.insert(idx, t.clone());
    Ok(t)
}

/// The parameter and return types of the method `idx` names, parsed once
/// per class.
fn method_sig(ctx: &mut Ctx<'_>, i: usize, idx: u16, descriptor: &str) -> Result<Rc<MethodSig>> {
    if let Some(sig) = ctx.memo.methods.get(&idx) {
        return Ok(Rc::clone(sig));
    }
    let desc = MethodDescriptor::parse(descriptor).map_err(|e| ctx.fail(i, e.to_string()))?;
    let sig = Rc::new(MethodSig {
        params: desc.params.iter().map(VType::of_field_type).collect(),
        ret: desc.ret.as_ref().map(VType::of_field_type),
    });
    ctx.memo.methods.insert(idx, Rc::clone(&sig));
    Ok(sig)
}

/// For references to this class, check the member locally; for others,
/// record an assumption.
fn field_assumption(
    ctx: &mut Ctx<'_>,
    i: usize,
    class: &str,
    name: &str,
    descriptor: &str,
) -> Result<()> {
    if class == &*ctx.class {
        ctx.checks += 1;
        let found = ctx.cf.fields.iter().any(|f| {
            f.name(&ctx.cf.pool).map(|n| n == name).unwrap_or(false)
                && f.descriptor(&ctx.cf.pool)
                    .map(|d| d == descriptor)
                    .unwrap_or(false)
        });
        if !found {
            return Err(ctx.fail(
                i,
                format!("no such field {name}:{descriptor} in this class"),
            ));
        }
    } else {
        ctx.assume(Assumption::FieldExists {
            class: class.to_owned(),
            name: name.to_owned(),
            descriptor: descriptor.to_owned(),
        });
    }
    Ok(())
}

enum InvokeKind {
    Virtual,
    Special,
    Static,
}

fn invoke(ctx: &mut Ctx<'_>, st: &mut MState, i: usize, idx: u16, kind: InvokeKind) -> Result<()> {
    let cf = ctx.cf;
    let (class, name, descriptor) = member(ctx, i, idx)?;
    let sig = method_sig(ctx, i, idx, descriptor)?;

    // Arguments, right to left.
    for want in sig.params.iter().rev() {
        let v = pop(ctx, st, i)?;
        compat(ctx, i, &v, want)?;
    }

    let is_ctor = name == "<init>";
    match kind {
        InvokeKind::Static => {
            if is_ctor {
                return Err(ctx.fail(i, "invokestatic of constructor".into()));
            }
        }
        InvokeKind::Special if is_ctor => {
            let recv = pop(ctx, st, i)?;
            match recv {
                VType::Uninit(site) => {
                    // The constructed class must match the `new` site's class.
                    ctx.checks += 1;
                    // Replace every occurrence with the initialized type.
                    let init = ctx.memo.reference(class);
                    for v in st.locals.iter_mut().chain(st.stack.iter_mut()) {
                        if *v == VType::Uninit(site) {
                            *v = init.clone();
                        }
                    }
                }
                VType::UninitThis => {
                    // Must be a constructor of this class or its direct
                    // superclass.
                    ctx.checks += 1;
                    let sup = cf.super_name().ok().flatten().unwrap_or("java/lang/Object");
                    if class != &*ctx.class && class != sup {
                        return Err(ctx.fail(
                            i,
                            format!("constructor chain calls {class}, expected {sup} or self"),
                        ));
                    }
                    let init = VType::Ref(Arc::clone(&ctx.class));
                    for v in st.locals.iter_mut().chain(st.stack.iter_mut()) {
                        if *v == VType::UninitThis {
                            *v = init.clone();
                        }
                    }
                    st.this_init = true;
                }
                other => {
                    return Err(ctx.fail(i, format!("<init> on {other:?}")));
                }
            }
        }
        _ => {
            if is_ctor {
                return Err(ctx.fail(i, "constructor invoked non-specially".into()));
            }
            let recv = pop_initialized_ref(ctx, st, i)?;
            if let VType::Ref(rname) = &recv {
                if &**rname != class && class != "java/lang/Object" && !rname.starts_with('[') {
                    ctx.assume(Assumption::Extends {
                        class: rname.to_string(),
                        superclass: class.to_owned(),
                    });
                }
            }
        }
    }

    // Member-existence assumption or local check.
    if class == &*ctx.class {
        ctx.checks += 1;
        let found = cf.methods.iter().any(|m| {
            m.name(&cf.pool).map(|n| n == name).unwrap_or(false)
                && m.descriptor(&cf.pool)
                    .map(|d| d == descriptor)
                    .unwrap_or(false)
        });
        // Inherited methods invoked via this-class references are legal;
        // treat a miss as an assumption on the superclass instead of an
        // error.
        if !found {
            if let Ok(Some(sup)) = cf.super_name() {
                ctx.assume(Assumption::MethodExists {
                    class: sup.to_owned(),
                    name: name.to_owned(),
                    descriptor: descriptor.to_owned(),
                });
            }
        }
    } else {
        ctx.assume(Assumption::MethodExists {
            class: class.to_owned(),
            name: name.to_owned(),
            descriptor: descriptor.to_owned(),
        });
    }

    if let Some(rt) = &sig.ret {
        st.stack.push(rt.clone());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deterministic generator (xorshift), so the property below
    /// needs no dependency and replays identically.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> usize {
            (self.next() % n) as usize
        }

        fn vtype(&mut self) -> VType {
            match self.below(9) {
                0 => VType::Top,
                1 => VType::Int,
                2 => VType::Float,
                3 => VType::Long,
                4 => VType::Null,
                5 => VType::UninitThis,
                6 => VType::Uninit(self.below(3)),
                7 => VType::object(),
                _ => VType::Ref(["A", "B", "[I"][self.below(3)].into()),
            }
        }

        fn state(&mut self, locals: usize, stack: usize) -> MState {
            MState {
                locals: (0..locals).map(|_| self.vtype()).collect(),
                stack: (0..stack).map(|_| self.vtype()).collect(),
                this_init: self.below(2) == 0,
            }
        }
    }

    /// `before` recorded at a point, `incoming` merged into it: the
    /// merge's answer and the state the point holds afterwards.
    fn merged(before: &MState, incoming: &MState) -> (Option<bool>, MState) {
        let mut states = States::new(1, before);
        let changed = states.merge_into(0, incoming);
        let mut after = MState::default();
        assert!(states.load(0, &mut after));
        (changed, after)
    }

    #[test]
    fn merge_into_is_the_elementwise_join() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for _ in 0..2_000 {
            let (locals, stack) = (rng.below(4), rng.below(4));
            let before = rng.state(locals, stack);
            let incoming = rng.state(locals, stack);
            let join = |a: &[VType], b: &[VType]| -> Vec<VType> {
                a.iter().zip(b).map(|(a, b)| a.merge(b)).collect()
            };
            let expected = MState {
                locals: join(&before.locals, &incoming.locals),
                stack: join(&before.stack, &incoming.stack),
                this_init: before.this_init && incoming.this_init,
            };
            let (changed, after) = merged(&before, &incoming);
            assert_eq!(after, expected);
            assert_eq!(changed, Some(after != before));
            // Joining what is already there changes nothing.
            assert_eq!(merged(&after, &incoming).0, Some(false));
        }
    }

    #[test]
    fn merge_into_rejects_shape_mismatches_untouched() {
        let mut rng = Rng(7);
        for _ in 0..500 {
            let (locals, stack) = (rng.below(4), rng.below(4));
            let before = rng.state(locals, stack);
            for incoming in [rng.state(locals, stack + 1), rng.state(locals + 1, stack)] {
                assert_eq!(merged(&before, &incoming), (None, before.clone()));
            }
        }
        // A point nothing has reached has no state to merge into.
        let mut states = States::new(2, &rng.state(1, 0));
        assert_eq!(states.merge_into(1, &rng.state(1, 0)), None);
    }

    #[test]
    fn states_keep_their_slots_as_points_are_added() {
        let mut rng = Rng(11);
        let entry = rng.state(3, 0);
        let mut states = States::new(8, &entry);
        let recorded: Vec<MState> = (1..8).map(|d| rng.state(3, d % 4)).collect();
        for (i, st) in recorded.iter().enumerate() {
            states.record(i + 1, st);
        }
        let mut out = MState::default();
        for (i, st) in std::iter::once(&entry).chain(&recorded).enumerate() {
            assert!(states.load(i, &mut out));
            assert_eq!(&out, st);
            assert_eq!(states.depth(i), Some(st.stack.len()));
        }
    }
}
