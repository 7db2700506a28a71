//! Seeded random logical-plan generator shared by the property suites.
//!
//! The fusion-equivalence test (`tests/fusion_equivalence.rs`) and the
//! translation-validation property test
//! (`tests/translation_property.rs`) both need the same thing: random
//! filter → aggregate chains over a fixed four-column table, drawn from
//! the expression grammar *both* lowerings accept — products of
//! columns, affine column maps and comparison masks (column±column sums
//! are outside the Table-II operator set and excluded). Keeping the
//! generator here means every suite explores the identical plan space
//! and a seed reproduces the same chain everywhere.

use proto_core::logical::{AggExpr, ColumnDecl, LogicalPlan};
use proto_core::ops::CmpOp;
use proto_core::plan::{Expr, Predicate};

/// The property suites' shared seed list.
pub const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// The generated table's `f64` value columns (plus a `u32` `t.key`).
pub const F64_COLS: [&str; 3] = ["t.a", "t.b", "t.c"];

/// xorshift64* — the deterministic generator the hazard-injection
/// suites use.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator; the seed is pre-mixed so small seeds diverge.
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    /// Next raw 64-bit draw.
    #[allow(clippy::should_implement_trait)] // not an Iterator — draws are infinite
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform index in `0..n`.
    pub fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random comparison operator (all six).
pub(crate) fn random_cmp(rng: &mut Rng) -> CmpOp {
    [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ][rng.pick(6)]
}

/// One multiplicative factor: a column, an affine map of a column, or a
/// comparison mask — the shapes both the fused builder and the composed
/// lowering accept (column±column sums are unsupported unfused, so the
/// grammar never emits them).
pub(crate) fn random_factor(rng: &mut Rng) -> Expr {
    let col = F64_COLS[rng.pick(F64_COLS.len())];
    match rng.pick(4) {
        0 => Expr::col(col),
        1 => Expr::col(col) * Expr::lit(0.5 + rng.unit()),
        2 => Expr::lit(1.0 + rng.unit()) - Expr::lit(0.5 + rng.unit()) * Expr::col(col),
        _ => Expr::Mask(col.to_string(), random_cmp(rng), rng.unit()),
    }
}

/// A product of 1–3 random factors.
pub fn random_expr(rng: &mut Rng) -> Expr {
    let mut e = random_factor(rng);
    for _ in 0..rng.pick(3) {
        e = e * random_factor(rng);
    }
    e
}

/// 1–3 conjunctive literal predicates over the key and value columns.
pub(crate) fn random_predicate(rng: &mut Rng, key_domain: u32) -> Predicate {
    let mut conjs = vec![Predicate::cmp(
        "t.key",
        [CmpOp::Lt, CmpOp::Ge][rng.pick(2)],
        f64::from(key_domain / 4 + (rng.next() % u64::from(key_domain / 2)) as u32),
    )];
    for _ in 0..rng.pick(3) {
        conjs.push(Predicate::cmp(
            F64_COLS[rng.pick(F64_COLS.len())],
            [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.pick(4)],
            0.1 + 0.8 * rng.unit(),
        ));
    }
    Predicate::And(conjs)
}

/// The generated table: a `u32` key and the three [`F64_COLS`].
fn table() -> LogicalPlan {
    LogicalPlan::scan(
        "t",
        vec![
            ColumnDecl::u32("key"),
            ColumnDecl::f64("a"),
            ColumnDecl::f64("b"),
            ColumnDecl::f64("c"),
        ],
    )
}

/// A full random chain: scan → filter → 1–2 scalar `SUM` aggregates
/// named `acc0`, `acc1`.
pub fn random_chain(rng: &mut Rng, key_domain: u32) -> LogicalPlan {
    let n_aggs = 1 + rng.pick(2);
    let aggs = (0..n_aggs)
        .map(|i| (format!("acc{i}"), AggExpr::Sum(random_expr(rng))))
        .collect::<Vec<_>>();
    table().filter(random_predicate(rng, key_domain)).aggregate(
        None,
        aggs.iter().map(|(n, a)| (n.as_str(), a.clone())).collect(),
    )
}

/// A Q6-shaped chain: scan → 1–3 literal conjuncts → exactly one
/// `SUM(x · y)` named `acc0` over two random value columns (possibly the
/// same one) — the shape the `FilterSumProduct` fast path takes.
pub fn q6_shaped_chain(rng: &mut Rng, key_domain: u32) -> LogicalPlan {
    let x = F64_COLS[rng.pick(F64_COLS.len())];
    let y = F64_COLS[rng.pick(F64_COLS.len())];
    table().filter(random_predicate(rng, key_domain)).aggregate(
        None,
        vec![("acc0", AggExpr::Sum(Expr::col(x) * Expr::col(y)))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_the_same_chain() {
        let a = random_chain(&mut Rng::new(7), 1 << 20);
        let b = random_chain(&mut Rng::new(7), 1 << 20);
        assert_eq!(a.render(), b.render());
        let c = random_chain(&mut Rng::new(8), 1 << 20);
        assert_ne!(a.render(), c.render(), "different seeds must diverge");
    }
}
