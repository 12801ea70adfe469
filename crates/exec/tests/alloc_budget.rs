//! Lowering, optimizing and encoding allocate per method, never per
//! instruction: a straight-line method of 2 000 instructions costs as
//! many allocations as one of 200.
//!
//! A counting global allocator tallies the allocations (and
//! reallocations) of the calling thread, so tests running alongside on
//! other threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dvm_bytecode::asm::Asm;
use dvm_bytecode::insn::{Kind, LogicOp, NumKind};
use dvm_bytecode::Code;
use dvm_classfile::ConstPool;
use dvm_exec::{encode, ClassIr, Lowerer, Optimizer};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A straight-line `int` method of about `insns` instructions, in the
/// Figure-5 corpus's mix: loads, constants, arithmetic and logic,
/// stores.
fn straight_line(insns: usize) -> Code {
    let mut a = Asm::new(2);
    a.iconst(0).istore(1);
    for k in 0..insns / 8 {
        let k = (k % 100) as i32;
        a.iload(1).iconst(k).iadd();
        a.iconst(3).logic(NumKind::Int, LogicOp::Xor);
        a.iload(0).imul().istore(1);
    }
    a.iload(1).ret_val(Kind::Int);
    a.finish().expect("the body assembles")
}

/// Allocations made lowering, optimizing and encoding `code` as the one
/// method of a class, by phase.
fn budget(code: &Code) -> [u64; 3] {
    let pool = ConstPool::new();
    let start = allocations();
    let mut lowerer = Lowerer::new(&pool);
    let mut func = lowerer.lower(code, "run", "(I)I").expect("the body lowers");
    let lowered = allocations();
    let mut optimizer = Optimizer::default();
    let stats = optimizer.optimize(&mut func, &pool);
    assert!(stats.eliminated > 0, "the pipeline had work to do");
    let optimized = allocations();
    let ir = ClassIr {
        class: "t/Straight".to_owned(),
        methods: vec![func],
    };
    let before_encode = allocations();
    let bytes = encode(&ir);
    let encoded = allocations();
    assert!(!bytes.is_empty());
    [
        lowered - start,
        optimized - lowered,
        encoded - before_encode,
    ]
}

#[test]
fn allocations_do_not_grow_with_method_length() {
    let (short, long) = (straight_line(200), straight_line(2_000));
    assert!(long.insns.len() > 9 * short.insns.len());
    let (short, long) = (budget(&short), budget(&long));
    assert_eq!(
        short, long,
        "allocations [lower, optimize, encode] for 200 vs 2 000 instructions"
    );
}
