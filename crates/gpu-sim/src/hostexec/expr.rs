//! The expression engine: the body of every fused and element-wise kernel.
//!
//! A [`Program`] is a flat post-order stack program — push a leaf column,
//! apply a unary op, combine the top two values, combine the top with a
//! scalar on either side, cast — over `f64` working values. It runs
//! op-at-a-time over a small file of `f64` **register windows** of
//! [`WINDOW`] rows: one register per stack slot, allocated once per
//! [`PAR_CHUNK`](super::PAR_CHUNK), so a whole expression streams through cache-resident
//! buffers. Leaves are read in place and widened on load; the operator
//! `match` sits outside every inner loop, so each instruction is one
//! monomorphic pass the compiler can vectorise.
//!
//! Registers are all `f64` because that is every front end's observable
//! arithmetic: ArrayFire's interpreter lane, and the `affine` / `product` /
//! `dense_mask` operators a fused plan step replaces. Comparisons and
//! logical ops hold exactly `0.0` / `1.0`, integer casts round-trip through
//! the integer type (`x as u32 as f64`), and `x * mul + add` stays two
//! instructions and two roundings — per row the engine performs the same
//! sequence of `f64` operations as a row-at-a-time evaluator, so results are
//! bit-identical to one.
//!
//! Two entry points. [`map`] stores the top register into a fresh column,
//! converting at the store. [`filter_sum`] ANDs typed predicates into flag
//! bytes per chunk, evaluates the value program on the windows that have a
//! survivor, compacts the survivors' values in row order, and then folds
//! **all** survivors left to right from the caller's seed on the calling
//! thread: the accumulation sequence of `select → gather → evaluate →
//! reduce`, whatever the thread count. Rows a predicate drops contribute
//! nothing — not even a non-finite value they may hold.

use super::select::{count, fill_flags, RowPred};
use super::{par_chunks_mut, par_map_chunks, Lane, DEFAULT_MIN_SEQ};
use std::ops::Range;

/// Rows per register window: a handful of registers stay in L1.
pub const WINDOW: usize = if cfg!(miri) { 1 << 5 } else { 1 << 10 };

/// Element-wise unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation (`x == 0`).
    Not,
    /// Arithmetic negation.
    Neg,
    /// Absolute value.
    Abs,
}

impl UnaryOp {
    /// The operator on one `f64` working value.
    #[inline(always)]
    pub fn apply(self, a: f64) -> f64 {
        match self {
            UnaryOp::Not => f64::from(a == 0.0),
            UnaryOp::Neg => -a,
            UnaryOp::Abs => a.abs(),
        }
    }
}

/// Element-wise binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (the paper's *Product* operator: `operator*()`).
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Logical AND of two non-zero tests (conjunction of predicates).
    And,
    /// Logical OR of two non-zero tests (disjunction of predicates).
    Or,
    /// Comparison `<` (yields 0 / 1).
    Lt,
    /// Comparison `<=` (yields 0 / 1).
    Le,
    /// Comparison `>` (yields 0 / 1).
    Gt,
    /// Comparison `>=` (yields 0 / 1).
    Ge,
    /// Comparison `==` (yields 0 / 1).
    Eq,
    /// Comparison `!=` (yields 0 / 1).
    Ne,
    /// The left value where the right one is non-zero, `+0.0` elsewhere
    /// (`af::select(mask, value, 0.0)`): applies a mask without letting a
    /// masked-out `inf` / `NaN` through, as multiplying by it would.
    Select,
}

impl BinaryOp {
    /// Whether this operator is one of the six comparisons.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge | BinaryOp::Eq | BinaryOp::Ne
        )
    }

    /// The operator on two `f64` working values.
    #[inline(always)]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Min => a.min(b),
            BinaryOp::Max => a.max(b),
            BinaryOp::And => f64::from(a != 0.0 && b != 0.0),
            BinaryOp::Or => f64::from(a != 0.0 || b != 0.0),
            BinaryOp::Lt => f64::from(a < b),
            BinaryOp::Le => f64::from(a <= b),
            BinaryOp::Gt => f64::from(a > b),
            BinaryOp::Ge => f64::from(a >= b),
            BinaryOp::Eq => f64::from(a == b),
            BinaryOp::Ne => f64::from(a != b),
            BinaryOp::Select => {
                if b != 0.0 {
                    a
                } else {
                    0.0
                }
            }
        }
    }
}

/// Target type of a [`Instr::Cast`]: the working value is converted to the
/// type and back, truncating / saturating like a GPU cast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cast {
    /// No change.
    F64,
    /// `x as u32 as f64`.
    U32,
    /// `x != 0` as 0 / 1.
    B8,
}

/// One stack-machine instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Push leaf `slot`, widened to `f64`.
    Load(usize),
    /// Apply a unary op to the top of stack.
    Unary(UnaryOp),
    /// Pop the right operand, apply to the left in place.
    Binary(BinaryOp),
    /// Top-of-stack `op` scalar.
    ScalarRhs(BinaryOp, f64),
    /// Scalar `op` top-of-stack.
    ScalarLhs(BinaryOp, f64),
    /// Cast the top of stack.
    Cast(Cast),
}

/// A leaf column read in place, each element widened to `f64` on load.
#[derive(Debug, Clone, Copy)]
pub enum Leaf<'a> {
    /// An `f64` column.
    F64(&'a [f64]),
    /// A `u32` column.
    U32(&'a [u32]),
    /// A boolean column of 0 / 1 bytes.
    B8(&'a [u8]),
}

impl<'a> From<Lane<'a>> for Leaf<'a> {
    fn from(lane: Lane<'a>) -> Self {
        match lane {
            Lane::U32(v) => Leaf::U32(v),
            Lane::F64(v) => Leaf::F64(v),
        }
    }
}

impl Leaf<'_> {
    fn len(&self) -> usize {
        match self {
            Leaf::F64(v) => v.len(),
            Leaf::U32(v) => v.len(),
            Leaf::B8(v) => v.len(),
        }
    }

    /// `reg[j] = self[rows.start + j]`, widened.
    fn load(&self, rows: Range<usize>, reg: &mut [f64]) {
        fn widen<X: Copy>(xs: &[X], reg: &mut [f64], f: impl Fn(X) -> f64) {
            for (r, &x) in reg.iter_mut().zip(xs) {
                *r = f(x);
            }
        }
        match self {
            Leaf::F64(v) => reg.copy_from_slice(&v[rows]),
            Leaf::U32(v) => widen(&v[rows], reg, f64::from),
            Leaf::B8(v) => widen(&v[rows], reg, f64::from),
        }
    }
}

/// An element type [`map`] can store: the conversion from the `f64`
/// working value at the store (truncating / saturating like a GPU cast;
/// `u8` is a boolean column, `x != 0`).
pub trait Store: Copy + Default + Send + 'static {
    /// Convert one working value.
    fn from_f64(x: f64) -> Self;
}

macro_rules! impl_store {
    ($($t:ty => $conv:expr),*) => {$(
        impl Store for $t {
            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                $conv(x)
            }
        }
    )*};
}
impl_store!(
    f64 => |x| x,
    u32 => |x| x as u32,
    u8 => |x| u8::from(x != 0.0)
);

/// A validated instruction list with the stack depth it needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
    depth: usize,
    slots: usize,
}

impl Program {
    /// Check `instrs` — no instruction pops more than the stack holds,
    /// exactly one value is left — and size the register file.
    ///
    /// # Panics
    /// On an ill-formed list: programs come from compilers over expression
    /// trees, which cannot produce one.
    pub fn new(instrs: Vec<Instr>) -> Program {
        let (mut cur, mut depth, mut slots) = (0usize, 0usize, 0usize);
        for (i, instr) in instrs.iter().enumerate() {
            let pops = match instr {
                Instr::Load(slot) => {
                    slots = slots.max(slot + 1);
                    0
                }
                Instr::Binary(_) => 2,
                _ => 1,
            };
            assert!(cur >= pops, "instr {i}: {instr:?} on a stack of {cur}");
            cur = cur - pops + 1;
            depth = depth.max(cur);
        }
        assert!(cur == 1, "program leaves {cur} values on the stack");
        Program {
            instrs,
            depth,
            slots,
        }
    }

    /// The instructions, post-order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Registers the program needs: its maximum stack depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The register file of one worker.
    fn registers(&self) -> Vec<f64> {
        vec![0.0; self.depth * WINDOW]
    }

    /// Every leaf the program loads is bound and covers `len` rows.
    fn check(&self, leaves: &[Leaf<'_>], len: usize) {
        assert!(
            leaves.len() >= self.slots,
            "program loads leaf {} of {}",
            self.slots - 1,
            leaves.len()
        );
        for instr in &self.instrs {
            if let Instr::Load(slot) = instr {
                assert!(leaves[*slot].len() >= len, "leaf {slot} is short");
            }
        }
    }

    /// Run the program over `rows` (at most [`WINDOW`] of them) and return
    /// the result register.
    fn eval<'r>(&self, leaves: &[Leaf<'_>], rows: Range<usize>, regs: &'r mut [f64]) -> &'r [f64] {
        let w = rows.len();
        let mut sp = 0;
        for instr in &self.instrs {
            match *instr {
                Instr::Load(slot) => {
                    leaves[slot].load(rows.clone(), &mut regs[sp * WINDOW..][..w]);
                    sp += 1;
                }
                Instr::Binary(op) => {
                    sp -= 1;
                    let (below, top) = regs.split_at_mut(sp * WINDOW);
                    binary(op, &mut below[(sp - 1) * WINDOW..][..w], &top[..w]);
                }
                Instr::Unary(op) => unary(op, &mut regs[(sp - 1) * WINDOW..][..w]),
                Instr::ScalarRhs(op, s) => {
                    scalar(op, s, false, &mut regs[(sp - 1) * WINDOW..][..w])
                }
                Instr::ScalarLhs(op, s) => scalar(op, s, true, &mut regs[(sp - 1) * WINDOW..][..w]),
                Instr::Cast(to) => cast(to, &mut regs[(sp - 1) * WINDOW..][..w]),
            }
        }
        &regs[..w]
    }
}

/// Expand `$body!(Variant)` once per operator variant, the `match` outside
/// the loop each expansion holds.
macro_rules! per_binary_op {
    ($op:expr, $body:ident) => {
        match $op {
            BinaryOp::Add => $body!(Add),
            BinaryOp::Sub => $body!(Sub),
            BinaryOp::Mul => $body!(Mul),
            BinaryOp::Div => $body!(Div),
            BinaryOp::Min => $body!(Min),
            BinaryOp::Max => $body!(Max),
            BinaryOp::And => $body!(And),
            BinaryOp::Or => $body!(Or),
            BinaryOp::Lt => $body!(Lt),
            BinaryOp::Le => $body!(Le),
            BinaryOp::Gt => $body!(Gt),
            BinaryOp::Ge => $body!(Ge),
            BinaryOp::Eq => $body!(Eq),
            BinaryOp::Ne => $body!(Ne),
            BinaryOp::Select => $body!(Select),
        }
    };
}

#[inline(always)]
fn in_place(reg: &mut [f64], f: impl Fn(f64) -> f64) {
    for x in reg {
        *x = f(*x);
    }
}

fn binary(op: BinaryOp, a: &mut [f64], b: &[f64]) {
    macro_rules! pass {
        ($v:ident) => {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = BinaryOp::$v.apply(*x, y);
            }
        };
    }
    per_binary_op!(op, pass)
}

fn scalar(op: BinaryOp, s: f64, scalar_is_lhs: bool, reg: &mut [f64]) {
    macro_rules! pass {
        ($v:ident) => {
            if scalar_is_lhs {
                in_place(reg, |x| BinaryOp::$v.apply(s, x))
            } else {
                in_place(reg, |x| BinaryOp::$v.apply(x, s))
            }
        };
    }
    per_binary_op!(op, pass)
}

fn unary(op: UnaryOp, reg: &mut [f64]) {
    match op {
        UnaryOp::Not => in_place(reg, |x| UnaryOp::Not.apply(x)),
        UnaryOp::Neg => in_place(reg, |x| UnaryOp::Neg.apply(x)),
        UnaryOp::Abs => in_place(reg, |x| UnaryOp::Abs.apply(x)),
    }
}

fn cast(to: Cast, reg: &mut [f64]) {
    match to {
        Cast::F64 => {}
        Cast::U32 => in_place(reg, |x| f64::from(x as u32)),
        Cast::B8 => in_place(reg, |x| f64::from(x != 0.0)),
    }
}

/// Evaluate `prog` for rows `0..len` into a fresh column, each value
/// converted by [`Store::from_f64`]. Rows are independent, so the result is
/// the same at any thread count.
///
/// # Panics
/// If the program loads a leaf that is not bound or has fewer than `len`
/// rows (callers validate operands first).
pub fn map<T: Store>(prog: &Program, leaves: &[Leaf<'_>], len: usize) -> Vec<T> {
    prog.check(leaves, len);
    let mut out: Vec<T> = vec![T::default(); len];
    par_chunks_mut(&mut out, DEFAULT_MIN_SEQ, |base, chunk| {
        let mut regs = prog.registers();
        for (k, window) in chunk.chunks_mut(WINDOW).enumerate() {
            let start = base + k * WINDOW;
            let top = prog.eval(leaves, start..start + window.len(), &mut regs);
            for (o, &x) in window.iter_mut().zip(top) {
                *o = T::from_f64(x);
            }
        }
        drop(regs);
    });
    out
}

/// `seed + Σ prog(row)` over the rows of `0..len` that pass every one of
/// `preds`, added one by one in row order. With no predicate every row
/// passes.
///
/// # Panics
/// As [`map`]; also if a predicate column has fewer than `len` rows.
pub fn filter_sum(
    prog: &Program,
    leaves: &[Leaf<'_>],
    preds: &[RowPred<'_>],
    len: usize,
    seed: f64,
) -> f64 {
    let add = |acc: f64, &v: &f64| acc + v;
    if preds.is_empty() {
        let all: Vec<f64> = map(prog, leaves, len);
        let total = all.iter().fold(seed, add);
        drop(all);
        return total;
    }
    prog.check(leaves, len);
    let kept = par_map_chunks(len, DEFAULT_MIN_SEQ, |rows| {
        survivors(prog, leaves, preds, rows)
    });
    kept.iter().flatten().fold(seed, add)
}

/// The values of the rows of one chunk that pass every predicate, in row
/// order.
fn survivors(
    prog: &Program,
    leaves: &[Leaf<'_>],
    preds: &[RowPred<'_>],
    rows: Range<usize>,
) -> Vec<f64> {
    let mut flags: Vec<u8> = vec![0; rows.len()];
    fill_flags(&preds[0], rows.clone(), &mut flags);
    if preds.len() > 1 {
        let mut next: Vec<u8> = vec![0; rows.len()];
        for p in &preds[1..] {
            fill_flags(p, rows.clone(), &mut next);
            for (f, &g) in flags.iter_mut().zip(&next) {
                *f &= g;
            }
        }
        drop(next);
    }
    let mut out: Vec<f64> = vec![0.0; count(&flags)];
    let mut regs = prog.registers();
    let (mut at, mut start) = (0, rows.start);
    for window in flags.chunks(WINDOW) {
        let live = count(window);
        if live > 0 {
            let top = prog.eval(leaves, start..start + window.len(), &mut regs);
            // Branch-free: every value is stored, the store kept only if
            // the row's flag is set. A full `out` means the rest are 0.
            let dst = &mut out[at..];
            let mut k = 0;
            for (&v, &flag) in top.iter().zip(window) {
                if k == dst.len() {
                    break;
                }
                dst[k] = v;
                k += usize::from(flag);
            }
            at += live;
        }
        start += window.len();
    }
    drop(regs);
    drop(flags);
    out
}
