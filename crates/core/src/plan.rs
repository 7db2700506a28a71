//! The declarative query front-end.
//!
//! The paper's subject is *rapid prototyping*: a developer should express
//! a database operation once and run it on whichever library is plugged
//! in. This module is that surface — arithmetic [`Expr`]essions,
//! composable [`Predicate`]s and an [`AggQuery`] (filter → project →
//! aggregate, optionally grouped) over named [`Bindings`].
//!
//! It is a *front-end only*: an [`AggQuery`] declares itself as a
//! one-scan [`LogicalPlan`] ([`AggQuery::logical_plan`]) and enters the
//! pipeline every query does — [`crate::optimizer`], then the
//! [`crate::physical::PhysicalPlan`] interpreter — so it is pushed down,
//! pruned, fused, costable and lintable like a TPC-H plan, and frees
//! every device column it creates. [`AggQuery::explain`] prints the
//! logical tree and the per-backend step list. [`Expr`] and
//! [`Predicate`] are also the expression vocabulary of [`crate::logical`].
//!
//! ```
//! use proto_core::plan::{AggQuery, Agg, Expr, Predicate};
//! use proto_core::prelude::*;
//!
//! let fw = Framework::with_all_backends(&gpu_sim::DeviceSpec::gtx1080());
//! let backend = fw.backend("Thrust").unwrap();
//!
//! // SELECT SUM(price * (1 - discount)) FROM t WHERE qty < 24
//! let q = AggQuery::new(Agg::Sum(
//!         Expr::col("price") * (Expr::lit(1.0) - Expr::col("discount"))))
//!     .filter(Predicate::cmp("qty", CmpOp::Lt, 24.0));
//!
//! let mut binding = proto_core::plan::Bindings::new(backend);
//! binding.bind_f64("price", &[10.0, 20.0, 30.0]).unwrap();
//! binding.bind_f64("discount", &[0.1, 0.2, 0.3]).unwrap();
//! binding.bind_f64("qty", &[5.0, 50.0, 10.0]).unwrap();
//! let result = q.execute(&binding).unwrap();
//! assert_eq!(result.scalar().unwrap(), 10.0 * 0.9 + 30.0 * 0.7);
//! ```

use crate::backend::{Col, GpuBackend};
use crate::logical::{AggExpr, ColumnDecl, LogicalPlan};
use crate::ops::CmpOp;
use crate::optimizer;
use crate::physical::PlanBindings;
use gpu_sim::{Result, SimError};
use std::collections::BTreeMap;
use std::fmt;

/// An arithmetic expression over named `f64` columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A named column reference.
    Col(String),
    /// A literal constant.
    Lit(f64),
    /// Elementwise addition.
    Add(Box<Expr>, Box<Expr>),
    /// Elementwise subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Elementwise multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// A 0.0/1.0 indicator column: `1.0` where `column CMP literal`
    /// holds, else `0.0` — the declarative form of the Table-II
    /// `dense_mask` fast path (a CASE WHEN … THEN 1 ELSE 0 END).
    Mask(String, CmpOp, f64),
}

impl Expr {
    /// A column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Col(name.to_string())
    }

    /// A literal.
    pub fn lit(v: f64) -> Expr {
        Expr::Lit(v)
    }

    /// Column names referenced by the expression, in first-occurrence
    /// order with duplicates removed (`Vec::dedup` would only drop
    /// *adjacent* repeats, so `price*qty + price` used to report
    /// `price` twice).
    pub fn columns(&self) -> Vec<&str> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Col(name) | Expr::Mask(name, _, _) = e {
                if seen.insert(name.as_str()) {
                    out.push(name.as_str());
                }
            }
            true
        });
        out
    }

    /// Visit the expression tree in pre-order: a node before its
    /// operands, left operand first. `visit` returns whether to descend
    /// into the visited node's operands.
    pub(crate) fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Expr) -> bool) {
        if visit(self) {
            if let Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) = self {
                a.walk(visit);
                b.walk(visit);
            }
        }
    }

    /// The same expression with every column renamed `table.column`
    /// (how a [`LogicalPlan::Scan`] brings names into scope).
    fn qualified(&self, table: &str) -> Expr {
        let q = |e: &Expr| Box::new(e.qualified(table));
        match self {
            Expr::Col(name) => Expr::Col(format!("{table}.{name}")),
            Expr::Lit(v) => Expr::Lit(*v),
            Expr::Mask(name, cmp, lit) => Expr::Mask(format!("{table}.{name}"), *cmp, *lit),
            Expr::Add(a, b) => Expr::Add(q(a), q(b)),
            Expr::Sub(a, b) => Expr::Sub(q(a), q(b)),
            Expr::Mul(a, b) => Expr::Mul(q(a), q(b)),
        }
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(name) => write!(f, "{name}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Mask(name, cmp, lit) => write!(f, "mask({name} {cmp:?} {lit})"),
        }
    }
}

/// A filter predicate over named columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column CMP literal`.
    Cmp(String, CmpOp, f64),
    /// `column CMP column`.
    ColCmp(String, CmpOp, String),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction (literal comparisons only — Table II realises OR with
    /// flag vectors / set unions over simple predicates).
    Or(Vec<Predicate>),
}

impl Predicate {
    /// `column CMP literal`.
    pub fn cmp(col: &str, op: CmpOp, lit: f64) -> Predicate {
        Predicate::Cmp(col.to_string(), op, lit)
    }

    /// `a CMP b` between two columns.
    pub fn col_cmp(a: &str, op: CmpOp, b: &str) -> Predicate {
        Predicate::ColCmp(a.to_string(), op, b.to_string())
    }

    /// The same predicate with every column renamed `table.column`.
    fn qualified(&self, table: &str) -> Predicate {
        let all = |ps: &[Predicate]| ps.iter().map(|p| p.qualified(table)).collect();
        match self {
            Predicate::Cmp(c, op, lit) => Predicate::Cmp(format!("{table}.{c}"), *op, *lit),
            Predicate::ColCmp(a, op, b) => {
                Predicate::ColCmp(format!("{table}.{a}"), *op, format!("{table}.{b}"))
            }
            Predicate::And(ps) => Predicate::And(all(ps)),
            Predicate::Or(ps) => Predicate::Or(all(ps)),
        }
    }

    /// Column names referenced by the predicate, in first-occurrence
    /// order with duplicates removed.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        let mut seen = std::collections::BTreeSet::new();
        out.retain(|name| seen.insert(*name));
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Cmp(c, _, _) => out.push(c),
            Predicate::ColCmp(a, _, b) => {
                out.push(a);
                out.push(b);
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_columns(out);
                }
            }
        }
    }

    pub(crate) fn describe(&self) -> String {
        match self {
            Predicate::Cmp(c, op, lit) => format!("{c} {op:?} {lit}"),
            Predicate::ColCmp(a, op, b) => format!("{a} {op:?} {b}"),
            Predicate::And(ps) => ps
                .iter()
                .map(|p| p.describe())
                .collect::<Vec<_>>()
                .join(" AND "),
            Predicate::Or(ps) => ps
                .iter()
                .map(|p| p.describe())
                .collect::<Vec<_>>()
                .join(" OR "),
        }
    }
}

/// The aggregate of an [`AggQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum Agg {
    /// `SUM(expr)`.
    Sum(Expr),
    /// `COUNT(*)`.
    Count,
    /// `AVG(expr)`.
    Avg(Expr),
}

/// Named device columns a query executes against.
pub struct Bindings<'a> {
    backend: &'a dyn GpuBackend,
    cols: BTreeMap<String, Col>,
    len: Option<usize>,
}

impl std::fmt::Debug for Bindings<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bindings")
            .field("backend", &self.backend.name())
            .field("cols", &self.cols)
            .field("len", &self.len)
            .finish()
    }
}

impl<'a> Bindings<'a> {
    /// Empty bindings on `backend`.
    pub fn new(backend: &'a dyn GpuBackend) -> Self {
        Bindings {
            backend,
            cols: BTreeMap::new(),
            len: None,
        }
    }

    /// Upload and bind an `f64` column.
    pub fn bind_f64(&mut self, name: &str, data: &[f64]) -> Result<()> {
        self.check_len(data.len())?;
        let col = self.backend.upload_f64(data)?;
        self.cols.insert(name.to_string(), col);
        Ok(())
    }

    /// Upload and bind a `u32` column.
    pub fn bind_u32(&mut self, name: &str, data: &[u32]) -> Result<()> {
        self.check_len(data.len())?;
        let col = self.backend.upload_u32(data)?;
        self.cols.insert(name.to_string(), col);
        Ok(())
    }

    fn check_len(&mut self, len: usize) -> Result<()> {
        match self.len {
            None => {
                self.len = Some(len);
                Ok(())
            }
            Some(expect) if expect == len => Ok(()),
            Some(expect) => Err(SimError::SizeMismatch {
                left: expect,
                right: len,
            }),
        }
    }

    /// Row count of the bound table.
    pub fn len(&self) -> usize {
        self.len.unwrap_or(0)
    }

    /// Whether nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

impl Drop for Bindings<'_> {
    fn drop(&mut self) {
        for (_, col) in std::mem::take(&mut self.cols) {
            let _ = self.backend.free(col);
        }
    }
}

/// Result of an [`AggQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Ungrouped aggregate.
    Scalar(f64),
    /// Grouped aggregate: ascending keys with values.
    Grouped(Vec<(u32, f64)>),
}

impl QueryResult {
    /// The scalar value, if ungrouped.
    pub fn scalar(&self) -> Option<f64> {
        match self {
            QueryResult::Scalar(v) => Some(*v),
            QueryResult::Grouped(_) => None,
        }
    }

    /// The grouped rows, if grouped.
    pub fn grouped(&self) -> Option<&[(u32, f64)]> {
        match self {
            QueryResult::Grouped(rows) => Some(rows),
            QueryResult::Scalar(_) => None,
        }
    }
}

/// Table name an [`AggQuery`]'s [`Bindings`] are scanned as.
const TABLE: &str = "t";
/// Query name its plans carry.
const QUERY: &str = "AggQuery";

/// A declarative filter → project → aggregate query.
#[derive(Debug, Clone)]
pub struct AggQuery {
    aggregate: Agg,
    filter: Option<Predicate>,
    group_by: Option<String>,
}

impl AggQuery {
    /// A query computing `aggregate` over all rows.
    pub fn new(aggregate: Agg) -> Self {
        AggQuery {
            aggregate,
            filter: None,
            group_by: None,
        }
    }

    /// Add a WHERE clause.
    pub fn filter(mut self, pred: Predicate) -> Self {
        self.filter = Some(pred);
        self
    }

    /// Add a GROUP BY over a bound `u32` column.
    pub fn group_by(mut self, key_column: &str) -> Self {
        self.group_by = Some(key_column.to_string());
        self
    }

    /// The query as the IR every query is planned from: one
    /// [`LogicalPlan::Scan`] of the bound columns (named
    /// `t.<column>`, dtypes from `bindings`), the filter, the aggregate.
    /// `AVG(e)` is declared as `SUM(e)` plus `COUNT(*)`;
    /// [`AggQuery::execute`] divides them on the host.
    pub fn logical_plan(&self, bindings: &Bindings<'_>) -> LogicalPlan {
        let columns = bindings
            .cols
            .iter()
            .map(|(name, col)| ColumnDecl {
                name: name.clone(),
                dtype: col.dtype(),
            })
            .collect();
        let mut plan = LogicalPlan::scan(TABLE, columns);
        if let Some(pred) = &self.filter {
            plan = plan.filter(pred.qualified(TABLE));
        }
        let sum = |e: &Expr| ("sum", AggExpr::Sum(e.qualified(TABLE)));
        let aggs = match &self.aggregate {
            Agg::Sum(e) => vec![sum(e)],
            Agg::Count => vec![("count", AggExpr::Count)],
            Agg::Avg(e) => vec![sum(e), ("count", AggExpr::Count)],
        };
        let key = self.group_by.as_ref().map(|k| format!("{TABLE}.{k}"));
        plan.aggregate(key.as_deref(), aggs)
    }

    /// `EXPLAIN`: the logical tree, then the step list the planner
    /// compiled for the bound backend, each step with its realising
    /// library call. Errors where [`AggQuery::execute`] would fail to
    /// plan (unbound column, shapes outside the Table-II operator set).
    pub fn explain(&self, bindings: &Bindings<'_>) -> Result<String> {
        let logical = self.logical_plan(bindings);
        let physical = optimizer::plan(QUERY, &logical, bindings.backend)?;
        Ok(logical.render() + &physical.explain())
    }

    /// Plan and execute against `bindings`.
    pub fn execute(&self, bindings: &Bindings<'_>) -> Result<QueryResult> {
        let plan = optimizer::plan(QUERY, &self.logical_plan(bindings), bindings.backend)?;
        let mut binds = PlanBindings::new();
        for (name, col) in &bindings.cols {
            binds.bind(&format!("{TABLE}.{name}"), col);
        }
        let out = plan.execute(bindings.backend, &binds)?;
        let grouped = self.group_by.is_some();
        // One value per group, or a single one for a scalar aggregate.
        let values = |name: &str| -> Result<Vec<f64>> {
            if grouped {
                out.f64s(name).map(<[f64]>::to_vec)
            } else {
                out.scalar(name).map(|v| vec![v])
            }
        };
        let vals = match &self.aggregate {
            Agg::Sum(_) => values("sum")?,
            Agg::Count => values("count")?,
            // An empty input (or group) averages to 0, not NaN.
            Agg::Avg(_) => values("sum")?
                .iter()
                .zip(values("count")?)
                .map(|(s, n)| if n == 0.0 { 0.0 } else { s / n })
                .collect(),
        };
        Ok(if grouped {
            QueryResult::Grouped(out.u32s("keys")?.iter().copied().zip(vals).collect())
        } else {
            QueryResult::Scalar(vals[0])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Framework;
    use gpu_sim::DeviceSpec;

    fn fw() -> Framework {
        Framework::with_all_backends(&DeviceSpec::gtx1080())
    }

    #[test]
    fn q6_shape_via_declarative_query_on_every_backend() {
        let fw = fw();
        let q = AggQuery::new(Agg::Sum(Expr::col("price") * Expr::col("discount"))).filter(
            Predicate::And(vec![
                Predicate::cmp("qty", CmpOp::Lt, 24.0),
                Predicate::cmp("discount", CmpOp::Ge, 0.05),
            ]),
        );
        let price = [100.0, 200.0, 300.0, 400.0];
        let discount = [0.10, 0.02, 0.06, 0.08];
        let qty = [10.0, 5.0, 30.0, 20.0];
        // Survivors: rows 0 (0.10, qty 10) and 3 (0.08, qty 20).
        let expect = 100.0 * 0.10 + 400.0 * 0.08;
        for b in fw.backends() {
            let mut binding = Bindings::new(b.as_ref());
            binding.bind_f64("price", &price).unwrap();
            binding.bind_f64("discount", &discount).unwrap();
            binding.bind_f64("qty", &qty).unwrap();
            let r = q.execute(&binding).unwrap();
            assert!(
                (r.scalar().unwrap() - expect).abs() < 1e-9,
                "{}: {r:?}",
                b.name()
            );
        }
    }

    #[test]
    fn grouped_sum_and_avg_and_count() {
        let fw = fw();
        let b = fw.backend("Handwritten").unwrap();
        let mut binding = Bindings::new(b);
        binding.bind_u32("dept", &[1, 2, 1, 2, 2]).unwrap();
        binding
            .bind_f64("salary", &[10.0, 20.0, 30.0, 40.0, 60.0])
            .unwrap();

        let sum = AggQuery::new(Agg::Sum(Expr::col("salary")))
            .group_by("dept")
            .execute(&binding)
            .unwrap();
        assert_eq!(sum.grouped().unwrap(), &[(1, 40.0), (2, 120.0)]);

        let avg = AggQuery::new(Agg::Avg(Expr::col("salary")))
            .group_by("dept")
            .execute(&binding)
            .unwrap();
        assert_eq!(avg.grouped().unwrap(), &[(1, 20.0), (2, 40.0)]);

        let count = AggQuery::new(Agg::Count)
            .group_by("dept")
            .execute(&binding)
            .unwrap();
        assert_eq!(count.grouped().unwrap(), &[(1, 2.0), (2, 3.0)]);

        let total = AggQuery::new(Agg::Count).execute(&binding).unwrap();
        assert_eq!(total.scalar().unwrap(), 5.0);
    }

    #[test]
    fn constant_folding_minimises_kernels() {
        let fw = fw();
        let b = fw.backend("Thrust").unwrap();
        let mut binding = Bindings::new(b);
        binding.bind_f64("x", &[1.0, 2.0]).unwrap();
        b.device().reset_stats();
        // (2 * 3) * x + folds constants before touching the device.
        let q = AggQuery::new(Agg::Sum((Expr::lit(2.0) * Expr::lit(3.0)) * Expr::col("x")));
        let r = q.execute(&binding).unwrap();
        assert_eq!(r.scalar().unwrap(), 18.0);
        // One affine (scale) + one reduce — no constant materialisation.
        let s = b.device().stats();
        assert_eq!(s.launches_of("thrust::transform"), 1);
        assert_eq!(s.launches_of("thrust::fill"), 0);
    }

    #[test]
    fn column_column_comparison_predicate() {
        let fw = fw();
        for b in fw.backends() {
            let mut binding = Bindings::new(b.as_ref());
            binding.bind_u32("commit", &[5, 10, 3]).unwrap();
            binding.bind_u32("receipt", &[7, 9, 4]).unwrap();
            binding.bind_f64("v", &[1.0, 2.0, 4.0]).unwrap();
            let q = AggQuery::new(Agg::Sum(Expr::col("v"))).filter(Predicate::col_cmp(
                "commit",
                CmpOp::Lt,
                "receipt",
            ));
            let r = q.execute(&binding).unwrap();
            assert_eq!(r.scalar().unwrap(), 5.0, "{}", b.name());
        }
    }

    #[test]
    fn unbound_column_and_mixed_or_are_errors() {
        let fw = fw();
        let b = fw.backend("Thrust").unwrap();
        let mut binding = Bindings::new(b);
        binding.bind_f64("x", &[1.0]).unwrap();
        let q = AggQuery::new(Agg::Sum(Expr::col("missing")));
        assert!(q.execute(&binding).is_err());

        binding.bind_u32("a", &[1]).unwrap();
        binding.bind_u32("b", &[1]).unwrap();
        let q = AggQuery::new(Agg::Count).filter(Predicate::Or(vec![
            Predicate::col_cmp("a", CmpOp::Lt, "b"),
            Predicate::cmp("x", CmpOp::Gt, 0.0),
        ]));
        assert!(q.execute(&binding).is_err());
    }

    #[test]
    fn binding_length_mismatch_is_rejected() {
        let fw = fw();
        let b = fw.backend("Thrust").unwrap();
        let mut binding = Bindings::new(b);
        binding.bind_f64("x", &[1.0, 2.0]).unwrap();
        assert!(binding.bind_f64("y", &[1.0]).is_err());
        assert_eq!(binding.len(), 2);
        assert!(!binding.is_empty());
    }

    #[test]
    fn explain_names_the_library_calls() {
        let fw = fw();
        let q = AggQuery::new(Agg::Sum(Expr::col("a") * Expr::col("b")))
            .filter(Predicate::cmp("a", CmpOp::Gt, 0.0))
            .group_by("k");
        let explain = |name: &str| {
            let mut binding = Bindings::new(fw.backend(name).unwrap());
            binding.bind_f64("a", &[1.0]).unwrap();
            binding.bind_f64("b", &[2.0]).unwrap();
            binding.bind_u32("k", &[0]).unwrap();
            q.explain(&binding).unwrap()
        };
        let thrust = explain("Thrust");
        assert!(thrust.contains("Aggregate BY t.k [sum = SUM("), "{thrust}");
        assert!(thrust.contains("exclusive_scan"), "{thrust}");
        assert!(thrust.contains("reduce_by_key"), "{thrust}");
        let hw = explain("Handwritten");
        assert!(hw.contains("hash aggregation"), "{hw}");
        let af = explain("ArrayFire");
        assert!(af.contains("where(operator())"), "{af}");
    }

    #[test]
    fn expr_display_and_columns() {
        let e = (Expr::col("a") + Expr::lit(1.0)) * Expr::col("b") - Expr::lit(2.0);
        assert_eq!(e.to_string(), "(((a + 1) * b) - 2)");
        assert_eq!(e.columns(), vec!["a", "b"]);
    }

    #[test]
    fn columns_dedups_non_adjacent_repeats_in_first_use_order() {
        // `price*qty + price` interleaves the repeat — Vec::dedup (the
        // old implementation) only removes adjacent duplicates and kept
        // both `price` occurrences.
        let e = Expr::col("price") * Expr::col("qty") + Expr::col("price");
        assert_eq!(e.columns(), vec!["price", "qty"]);
        let e = (Expr::col("b") * Expr::col("a")) * (Expr::col("b") * Expr::col("c"));
        assert_eq!(e.columns(), vec!["b", "a", "c"]);
    }

    #[test]
    fn mask_expression_is_a_dense_indicator() {
        let fw = fw();
        for b in fw.backends() {
            let mut binding = Bindings::new(b.as_ref());
            binding.bind_f64("v", &[2.0, 4.0, 6.0]).unwrap();
            binding.bind_f64("size", &[1.0, 10.0, 3.0]).unwrap();
            // SUM(v * CASE WHEN size <= 5 THEN 1 ELSE 0 END) = 2 + 6.
            let q = AggQuery::new(Agg::Sum(
                Expr::col("v") * Expr::Mask("size".into(), CmpOp::Le, 5.0),
            ));
            let r = q.execute(&binding).unwrap();
            assert_eq!(r.scalar().unwrap(), 8.0, "{}", b.name());
        }
    }
}
