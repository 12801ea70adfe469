//! Splicing instrumentation into existing method bodies.
//!
//! [`CodeEditor`] is the mechanism behind every binary-rewriting service in
//! the DVM: the verifier's injected link checks, the security service's
//! access checks, and the monitor's audit events are all inserted through
//! it. Insertion keeps all original branch targets pointing at the original
//! instructions (so a back-edge does not re-execute injected code) and
//! shifts exception-handler ranges accordingly.

use crate::code::Code;
use crate::error::Result;
use crate::insn::Insn;

/// An editor over a [`Code`] body that supports multi-point insertion with
/// automatic target fix-up. It edits the body in place.
#[derive(Debug)]
pub struct CodeEditor<'a> {
    code: &'a mut Code,
}

impl<'a> CodeEditor<'a> {
    /// Wraps a decoded body for editing.
    pub fn new(code: &'a mut Code) -> CodeEditor<'a> {
        CodeEditor { code }
    }

    /// Read access to the body being edited.
    pub fn code(&self) -> &Code {
        self.code
    }

    /// Raises `max_locals` to at least `n` (instrumentation that needs
    /// scratch locals calls this).
    pub fn reserve_locals(&mut self, n: u16) {
        self.code.max_locals = self.code.max_locals.max(n);
    }

    /// Inserts `insns` before the instruction at `at`.
    ///
    /// Branch targets and handler boundaries pointing at or beyond `at` are
    /// shifted so that they still reference the *original* instruction; the
    /// inserted block executes only when control falls into it from `at - 1`
    /// or enters the method at `at == 0`.
    ///
    /// Targets inside `insns` must already be expressed in the coordinates
    /// of the *final* body (callers that need internal branches should
    /// compute them relative to `at` before calling).
    pub fn insert(&mut self, at: usize, insns: Vec<Insn>) {
        let n = insns.len();
        if n == 0 {
            return;
        }
        assert!(at <= self.code.insns.len(), "insertion point out of range");
        // Shift existing branch targets.
        for insn in &mut self.code.insns {
            insn.map_targets(|t| if t >= at { t + n } else { t });
        }
        // Shift handler ranges. A handler whose range starts at `at` keeps
        // covering the original instruction, not the injected block: the
        // injected code belongs to the service, and a fault inside it must
        // not be swallowed by the application's handler.
        for h in &mut self.code.handlers {
            if h.start >= at {
                h.start += n;
            }
            if h.end >= at {
                h.end += n;
            }
            if h.handler >= at {
                h.handler += n;
            }
        }
        self.code.insns.splice(at..at, insns);
    }

    /// Inserts the same prologue at the start of the method.
    pub fn insert_prologue(&mut self, insns: Vec<Insn>) {
        self.insert(0, insns);
    }

    /// Inserts `make` blocks before every instruction matching `pred`,
    /// processing positions from the end so indices stay valid.
    ///
    /// `make` receives the index of the matched instruction in the original
    /// body and the instruction itself.
    pub fn insert_before_matching(
        &mut self,
        pred: impl Fn(&Insn) -> bool,
        mut make: impl FnMut(usize, &Insn) -> Vec<Insn>,
    ) {
        let positions: Vec<usize> = self
            .code
            .insns
            .iter()
            .enumerate()
            .filter(|(_, i)| pred(i))
            .map(|(idx, _)| idx)
            .collect();
        for &pos in positions.iter().rev() {
            let block = make(pos, &self.code.insns[pos]);
            self.insert(pos, block);
        }
    }

    /// Inserts `make` blocks before every return instruction (all forms),
    /// used for method-exit instrumentation.
    pub fn insert_before_returns(&mut self, mut make: impl FnMut() -> Vec<Insn>) {
        self.insert_before_matching(|i| matches!(i, Insn::Return(_)), |_, _| make());
    }

    /// Validates the edited body's targets.
    pub fn validate(&self) -> Result<()> {
        self.code.validate_targets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Handler;
    use crate::insn::{ICond, Kind};

    fn sample() -> Code {
        Code {
            insns: vec![
                Insn::IConst(0),            // 0
                Insn::Store(Kind::Int, 1),  // 1
                Insn::Load(Kind::Int, 1),   // 2  <- loop top
                Insn::IConst(5),            // 3
                Insn::IfICmp(ICond::Ge, 7), // 4
                Insn::IInc(1, 1),           // 5
                Insn::Goto(2),              // 6
                Insn::Return(None),         // 7
            ],
            handlers: vec![Handler {
                start: 2,
                end: 7,
                handler: 7,
                catch_type: 0,
            }],
            max_locals: 2,
        }
    }

    #[test]
    fn prologue_insertion_shifts_targets() {
        let mut code = sample();
        CodeEditor::new(&mut code).insert_prologue(vec![Insn::Nop, Insn::Nop]);
        assert_eq!(code.insns.len(), 10);
        // The loop back-edge now points at the shifted loop top.
        assert_eq!(code.insns[8], Insn::Goto(4));
        // The conditional points at the shifted return.
        assert_eq!(code.insns[6], Insn::IfICmp(ICond::Ge, 9));
        // Handler range shifted wholesale.
        assert_eq!(
            code.handlers[0],
            Handler {
                start: 4,
                end: 9,
                handler: 9,
                catch_type: 0
            }
        );
    }

    #[test]
    fn mid_insertion_keeps_back_edges_on_original_instruction() {
        let mut code = sample();
        // Instrument the loop top (index 2): inserted block must NOT be
        // re-executed by the back edge.
        CodeEditor::new(&mut code).insert(2, vec![Insn::Nop]);
        // Back edge was Goto(2); original instruction moved to 3.
        assert_eq!(code.insns[7], Insn::Goto(3));
        // The inserted Nop sits at 2 and is only reached by fall-through.
        assert_eq!(code.insns[2], Insn::Nop);
    }

    #[test]
    fn insert_before_returns_handles_multiple_returns() {
        let mut code = Code {
            insns: vec![
                Insn::Load(Kind::Int, 0),
                Insn::If(ICond::Eq, 4),
                Insn::IConst(1),
                Insn::Return(Some(Kind::Int)),
                Insn::IConst(0),
                Insn::Return(Some(Kind::Int)),
            ],
            handlers: vec![],
            max_locals: 1,
        };
        CodeEditor::new(&mut code).insert_before_returns(|| vec![Insn::Nop]);
        assert_eq!(code.insns.len(), 8);
        assert_eq!(code.insns[3], Insn::Nop);
        assert_eq!(code.insns[6], Insn::Nop);
        // Branch to the second arm (was 4) now lands on its Nop-shifted
        // original instruction (5).
        assert_eq!(code.insns[1], Insn::If(ICond::Eq, 5));
        code.validate_targets().unwrap();
    }

    #[test]
    fn empty_insert_is_a_no_op() {
        let mut code = sample();
        let mut ed = CodeEditor::new(&mut code);
        let before = ed.code().clone();
        ed.insert(3, vec![]);
        assert_eq!(*ed.code(), before);
    }
}
