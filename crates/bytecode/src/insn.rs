//! The structured instruction model.
//!
//! Instructions are held in *label form*: every branch target is the index
//! of an instruction in the surrounding [`crate::code::Code`] body rather
//! than a byte offset. This makes splicing instrumentation into a method a
//! simple index adjustment; byte offsets are recomputed at encode time.

use dvm_classfile::descriptor::MethodDescriptor;
use dvm_classfile::pool::{ConstPool, Constant};

use crate::error::{BytecodeError, Result};

/// Value categories used by loads, stores, and returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `int` (and the int-like small types).
    Int,
    /// `long`.
    Long,
    /// `float`.
    Float,
    /// `double`.
    Double,
    /// Any reference.
    Ref,
}

impl Kind {
    /// Operand-stack slots a value of this kind occupies.
    pub fn width(self) -> u16 {
        match self {
            Kind::Long | Kind::Double => 2,
            _ => 1,
        }
    }

    /// Index of this kind in opcode families ordered `i,l,f,d,a`.
    pub fn family_index(self) -> u8 {
        match self {
            Kind::Int => 0,
            Kind::Long => 1,
            Kind::Float => 2,
            Kind::Double => 3,
            Kind::Ref => 4,
        }
    }
}

/// Element kinds for array load/store instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AKind {
    /// `int[]`.
    Int,
    /// `long[]`.
    Long,
    /// `float[]`.
    Float,
    /// `double[]`.
    Double,
    /// Reference arrays.
    Ref,
    /// `byte[]` / `boolean[]`.
    Byte,
    /// `char[]`.
    Char,
    /// `short[]`.
    Short,
}

impl AKind {
    /// Stack width of one element of this kind.
    pub fn width(self) -> u16 {
        match self {
            AKind::Long | AKind::Double => 2,
            _ => 1,
        }
    }

    /// Index in the `iaload..saload` opcode family.
    pub fn family_index(self) -> u8 {
        match self {
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

    /// The `newarray` atype code for primitive kinds.
    pub fn newarray_code(self) -> Option<u8> {
        Some(match self {
            AKind::Byte => 8,
            AKind::Char => 5,
            AKind::Float => 6,
            AKind::Double => 7,
            AKind::Short => 9,
            AKind::Int => 10,
            AKind::Long => 11,
            AKind::Ref => return None,
        })
    }

    /// Inverse of [`AKind::newarray_code`] (4 = boolean maps to `Byte`).
    pub fn from_newarray_code(code: u8) -> Option<AKind> {
        Some(match code {
            4 | 8 => AKind::Byte,
            5 => AKind::Char,
            6 => AKind::Float,
            7 => AKind::Double,
            9 => AKind::Short,
            10 => AKind::Int,
            11 => AKind::Long,
            _ => return None,
        })
    }
}

/// Numeric kinds for arithmetic instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumKind {
    /// `int`.
    Int,
    /// `long`.
    Long,
    /// `float`.
    Float,
    /// `double`.
    Double,
}

impl NumKind {
    /// Stack width of this kind.
    pub fn width(self) -> u16 {
        match self {
            NumKind::Long | NumKind::Double => 2,
            _ => 1,
        }
    }

    /// Index in `i,l,f,d` opcode families.
    pub fn family_index(self) -> u8 {
        match self {
            NumKind::Int => 0,
            NumKind::Long => 1,
            NumKind::Float => 2,
            NumKind::Double => 3,
        }
    }
}

/// Binary/unary arithmetic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Rem,
    /// Unary negation.
    Neg,
}

/// Shift operations (`int` and `long` only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
    /// Logical right shift.
    Ushr,
}

/// Bitwise logic operations (`int` and `long` only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicOp {
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

/// Integer comparison conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ICond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Greater or equal.
    Ge,
    /// Greater than.
    Gt,
    /// Less or equal.
    Le,
}

impl ICond {
    /// Index in the `ifeq..ifle` opcode family.
    pub fn family_index(self) -> u8 {
        match self {
            ICond::Eq => 0,
            ICond::Ne => 1,
            ICond::Lt => 2,
            ICond::Ge => 3,
            ICond::Gt => 4,
            ICond::Le => 5,
        }
    }

    /// The negated condition.
    pub fn negate(self) -> ICond {
        match self {
            ICond::Eq => ICond::Ne,
            ICond::Ne => ICond::Eq,
            ICond::Lt => ICond::Ge,
            ICond::Ge => ICond::Lt,
            ICond::Gt => ICond::Le,
            ICond::Le => ICond::Gt,
        }
    }
}

/// Numeric types involved in conversion instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumType {
    /// `int`.
    Int,
    /// `long`.
    Long,
    /// `float`.
    Float,
    /// `double`.
    Double,
    /// `byte` (target of `i2b` only).
    Byte,
    /// `char` (target of `i2c` only).
    Char,
    /// `short` (target of `i2s` only).
    Short,
}

impl NumType {
    /// Stack width of a value of this type.
    pub fn width(self) -> u16 {
        match self {
            NumType::Long | NumType::Double => 2,
            _ => 1,
        }
    }
}

/// One JVM instruction in label form (branch targets are instruction
/// indices, not byte offsets).
#[derive(Debug, Clone, PartialEq)]
pub enum Insn {
    /// `nop`.
    Nop,
    /// `aconst_null`.
    AConstNull,
    /// An `int` constant (`iconst_n`, `bipush`, or `sipush`).
    IConst(i32),
    /// A `long` constant (`lconst_0`/`lconst_1` only).
    LConst(i64),
    /// A `float` constant (`fconst_0/1/2` only).
    FConst(f32),
    /// A `double` constant (`dconst_0/1` only).
    DConst(f64),
    /// `ldc`/`ldc_w`: push a single-slot constant from the pool.
    Ldc(u16),
    /// `ldc2_w`: push a two-slot constant (long/double) from the pool.
    Ldc2(u16),
    /// Load a local variable.
    Load(Kind, u16),
    /// Store into a local variable.
    Store(Kind, u16),
    /// Load an array element.
    ArrayLoad(AKind),
    /// Store an array element.
    ArrayStore(AKind),
    /// `pop`.
    Pop,
    /// `pop2`.
    Pop2,
    /// `dup`.
    Dup,
    /// `dup_x1`.
    DupX1,
    /// `dup_x2`.
    DupX2,
    /// `dup2`.
    Dup2,
    /// `dup2_x1`.
    Dup2X1,
    /// `dup2_x2`.
    Dup2X2,
    /// `swap`.
    Swap,
    /// Arithmetic on a numeric kind.
    Arith(NumKind, ArithOp),
    /// Shift on `int` or `long` (`kind` must not be float/double).
    Shift(NumKind, ShiftOp),
    /// Bitwise logic on `int` or `long`.
    Logic(NumKind, LogicOp),
    /// `iinc`: add an immediate to an `int` local.
    IInc(u16, i16),
    /// Numeric conversion (`i2l`, `f2d`, `i2b`, ...).
    Convert(NumType, NumType),
    /// `lcmp`.
    LCmp,
    /// `fcmpl` / `fcmpg` (`true` selects `fcmpg`).
    FCmp(bool),
    /// `dcmpl` / `dcmpg` (`true` selects `dcmpg`).
    DCmp(bool),
    /// `ifeq..ifle`: branch if int compared with zero satisfies the
    /// condition.
    If(ICond, usize),
    /// `if_icmpXX`: branch comparing two ints.
    IfICmp(ICond, usize),
    /// `if_acmpeq` / `if_acmpne` (`true` selects `eq`).
    IfACmp(bool, usize),
    /// `ifnull`.
    IfNull(usize),
    /// `ifnonnull`.
    IfNonNull(usize),
    /// `goto` / `goto_w`.
    Goto(usize),
    /// `jsr` / `jsr_w`.
    Jsr(usize),
    /// `ret`: return from subroutine via a local variable.
    Ret(u16),
    /// `tableswitch`.
    TableSwitch {
        /// Default target (instruction index).
        default: usize,
        /// Lowest matched key.
        low: i32,
        /// Targets for keys `low..=low+targets.len()-1`.
        targets: Vec<usize>,
    },
    /// `lookupswitch`.
    LookupSwitch {
        /// Default target (instruction index).
        default: usize,
        /// Sorted `(key, target)` pairs.
        pairs: Vec<(i32, usize)>,
    },
    /// Typed return, or `None` for `return` (void).
    Return(Option<Kind>),
    /// `getstatic` with a `Fieldref` pool index.
    GetStatic(u16),
    /// `putstatic`.
    PutStatic(u16),
    /// `getfield`.
    GetField(u16),
    /// `putfield`.
    PutField(u16),
    /// `invokevirtual` with a `Methodref` pool index.
    InvokeVirtual(u16),
    /// `invokespecial`.
    InvokeSpecial(u16),
    /// `invokestatic`.
    InvokeStatic(u16),
    /// `invokeinterface`.
    InvokeInterface(u16),
    /// `new` with a `Class` pool index.
    New(u16),
    /// `newarray` of a primitive element kind.
    NewArray(AKind),
    /// `anewarray` with a `Class` pool index for the element type.
    ANewArray(u16),
    /// `arraylength`.
    ArrayLength,
    /// `athrow`.
    AThrow,
    /// `checkcast`.
    CheckCast(u16),
    /// `instanceof`.
    InstanceOf(u16),
    /// `monitorenter`.
    MonitorEnter,
    /// `monitorexit`.
    MonitorExit,
    /// `multianewarray` with a `Class` pool index and dimension count.
    MultiANewArray(u16, u8),
}

impl Insn {
    /// Returns `true` when control can continue to the next instruction.
    pub fn can_fall_through(&self) -> bool {
        !matches!(
            self,
            Insn::Goto(_)
                | Insn::Ret(_)
                | Insn::TableSwitch { .. }
                | Insn::LookupSwitch { .. }
                | Insn::Return(_)
                | Insn::AThrow
        )
    }

    /// Returns all explicit branch targets (instruction indices).
    pub fn branch_targets(&self) -> Vec<usize> {
        let mut v = Vec::new();
        self.for_each_target(|t| v.push(t));
        v
    }

    /// Returns `true` for the instructions with explicit branch targets.
    fn has_targets(&self) -> bool {
        matches!(
            self,
            Insn::If(..)
                | Insn::IfICmp(..)
                | Insn::IfACmp(..)
                | Insn::IfNull(_)
                | Insn::IfNonNull(_)
                | Insn::Goto(_)
                | Insn::Jsr(_)
                | Insn::TableSwitch { .. }
                | Insn::LookupSwitch { .. }
        )
    }

    /// Calls `f` with every explicit branch target, in
    /// [`Insn::branch_targets`] order, without allocating.
    pub fn for_each_target(&self, mut f: impl FnMut(usize)) {
        // A cheap test first: most instructions have no target.
        if !self.has_targets() {
            return;
        }
        match self {
            Insn::If(_, t)
            | Insn::IfICmp(_, t)
            | Insn::IfACmp(_, t)
            | Insn::IfNull(t)
            | Insn::IfNonNull(t)
            | Insn::Goto(t)
            | Insn::Jsr(t) => f(*t),
            Insn::TableSwitch {
                default, targets, ..
            } => {
                f(*default);
                for t in targets {
                    f(*t);
                }
            }
            Insn::LookupSwitch { default, pairs } => {
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
        if !self.has_targets() {
            return;
        }
        match self {
            Insn::If(_, t)
            | Insn::IfICmp(_, t)
            | Insn::IfACmp(_, t)
            | Insn::IfNull(t)
            | Insn::IfNonNull(t)
            | Insn::Goto(t)
            | Insn::Jsr(t) => *t = f(*t),
            Insn::TableSwitch {
                default, targets, ..
            } => {
                *default = f(*default);
                for t in targets {
                    *t = f(*t);
                }
            }
            Insn::LookupSwitch { default, pairs } => {
                *default = f(*default);
                for (_, t) in pairs {
                    *t = f(*t);
                }
            }
            _ => {}
        }
    }

    /// Computes the `(pops, pushes)` operand-stack effect, consulting `pool`
    /// for member descriptors and constant kinds.
    pub fn stack_effect(&self, pool: &ConstPool) -> Result<(u16, u16)> {
        use Insn::*;
        Ok(match self {
            Nop | IInc(_, _) | Goto(_) | Ret(_) => (0, 0),
            AConstNull | IConst(_) | FConst(_) => (0, 1),
            LConst(_) | DConst(_) => (0, 2),
            Ldc(idx) => match pool.get(*idx)? {
                Constant::Integer(_)
                | Constant::Float(_)
                | Constant::String { .. }
                | Constant::Class { .. } => (0, 1),
                c => {
                    return Err(BytecodeError::BadConstantKind {
                        index: *idx,
                        found: c.kind(),
                        context: "ldc",
                    })
                }
            },
            Ldc2(idx) => match pool.get(*idx)? {
                Constant::Long(_) | Constant::Double(_) => (0, 2),
                c => {
                    return Err(BytecodeError::BadConstantKind {
                        index: *idx,
                        found: c.kind(),
                        context: "ldc2_w",
                    })
                }
            },
            Load(k, _) => (0, k.width()),
            Store(k, _) => (k.width(), 0),
            ArrayLoad(k) => (2, k.width()),
            ArrayStore(k) => (2 + k.width(), 0),
            Pop => (1, 0),
            Pop2 => (2, 0),
            Dup => (1, 2),
            DupX1 => (2, 3),
            DupX2 => (3, 4),
            Dup2 => (2, 4),
            Dup2X1 => (3, 5),
            Dup2X2 => (4, 6),
            Swap => (2, 2),
            Arith(k, ArithOp::Neg) => (k.width(), k.width()),
            Arith(k, _) => (2 * k.width(), k.width()),
            Shift(k, _) => (k.width() + 1, k.width()),
            Logic(k, _) => (2 * k.width(), k.width()),
            Convert(from, to) => (from.width(), to.width()),
            LCmp => (4, 1),
            FCmp(_) => (2, 1),
            DCmp(_) => (4, 1),
            If(_, _) | IfNull(_) | IfNonNull(_) => (1, 0),
            IfICmp(_, _) | IfACmp(_, _) => (2, 0),
            Jsr(_) => (0, 1),
            TableSwitch { .. } | LookupSwitch { .. } => (1, 0),
            Return(None) => (0, 0),
            Return(Some(k)) => (k.width(), 0),
            GetStatic(idx) => (0, field_width(pool, *idx)?),
            PutStatic(idx) => (field_width(pool, *idx)?, 0),
            GetField(idx) => (1, field_width(pool, *idx)?),
            PutField(idx) => (1 + field_width(pool, *idx)?, 0),
            InvokeVirtual(idx) | InvokeSpecial(idx) | InvokeInterface(idx) => {
                let (pops, pushes) = invoke_effect(pool, *idx)?;
                (pops + 1, pushes)
            }
            InvokeStatic(idx) => invoke_effect(pool, *idx)?,
            New(_) => (0, 1),
            NewArray(_) | ANewArray(_) | ArrayLength => (1, 1),
            AThrow => (1, 0),
            CheckCast(_) | InstanceOf(_) => (1, 1),
            MonitorEnter | MonitorExit => (1, 0),
            MultiANewArray(_, dims) => (*dims as u16, 1),
        })
    }
}

fn field_width(pool: &ConstPool, index: u16) -> Result<u16> {
    let (_, _, desc) = pool.get_member_ref(index)?;
    Ok(dvm_classfile::descriptor::FieldType::slot_width_of(desc)?)
}

fn invoke_effect(pool: &ConstPool, index: u16) -> Result<(u16, u16)> {
    let (_, _, desc) = pool.get_member_ref(index)?;
    let arity = MethodDescriptor::arity(desc)?;
    Ok((arity.param_slots, arity.return_slots))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fall_through_classification() {
        assert!(Insn::IConst(1).can_fall_through());
        assert!(Insn::If(ICond::Eq, 3).can_fall_through());
        assert!(!Insn::Goto(0).can_fall_through());
        assert!(!Insn::Return(None).can_fall_through());
        assert!(!Insn::AThrow.can_fall_through());
    }

    #[test]
    fn branch_target_collection_and_mapping() {
        let mut i = Insn::TableSwitch {
            default: 9,
            low: 0,
            targets: vec![1, 2],
        };
        assert_eq!(i.branch_targets(), vec![9, 1, 2]);
        i.map_targets(|t| t + 10);
        assert_eq!(i.branch_targets(), vec![19, 11, 12]);
    }

    #[test]
    fn stack_effect_for_invokes() {
        let mut pool = ConstPool::new();
        let m = pool.methodref("Foo", "f", "(IJ)D").unwrap();
        // invokestatic: pops 1 int + 2 long slots, pushes 2 double slots.
        assert_eq!(Insn::InvokeStatic(m).stack_effect(&pool).unwrap(), (3, 2));
        // invokevirtual adds the receiver.
        assert_eq!(Insn::InvokeVirtual(m).stack_effect(&pool).unwrap(), (4, 2));
    }

    #[test]
    fn stack_effect_for_fields() {
        let mut pool = ConstPool::new();
        let f = pool.fieldref("Foo", "x", "J").unwrap();
        assert_eq!(Insn::GetField(f).stack_effect(&pool).unwrap(), (1, 2));
        assert_eq!(Insn::PutField(f).stack_effect(&pool).unwrap(), (3, 0));
    }

    #[test]
    fn ldc_rejects_wide_constants() {
        let mut pool = ConstPool::new();
        let l = pool.long(5).unwrap();
        assert!(Insn::Ldc(l).stack_effect(&pool).is_err());
        assert_eq!(Insn::Ldc2(l).stack_effect(&pool).unwrap(), (0, 2));
    }

    #[test]
    fn cond_negation_is_involutive() {
        for c in [
            ICond::Eq,
            ICond::Ne,
            ICond::Lt,
            ICond::Ge,
            ICond::Gt,
            ICond::Le,
        ] {
            assert_eq!(c.negate().negate(), c);
        }
    }
}
