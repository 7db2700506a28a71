//! The logical query IR: a backend-independent relational-algebra tree.
//!
//! [`LogicalPlan`] is the one thing a query is declared as: a tree of
//! scan / filter / project / join / group-by aggregate / sort-limit
//! nodes over arithmetic [`Expr`]essions and composable [`Predicate`]s,
//! rich enough to express TPC-H Q1–Q14. A query is *built* here
//! (`tpch::queries`, `bench::plangen`, the declarative-query example),
//! *rewritten* by [`crate::optimizer`]'s passes (predicate pushdown,
//! projection pruning) and *lowered* onto a specific
//! [`crate::backend::GpuBackend`] as a [`crate::physical::PhysicalPlan`].
//!
//! Naming convention: [`LogicalPlan::Scan`] brings `table.column`
//! qualified names into scope; a [`LogicalPlan::Join`]'s projection
//! gives its outputs fresh (builder-chosen, plan-unique) names, which
//! downstream nodes reference. [`LogicalPlan::render`] prints the tree
//! in the indented form the optimizer golden tests snapshot.
//!
//! ```
//! use proto_core::optimizer;
//! use proto_core::prelude::*;
//!
//! let fw = Framework::with_all_backends(&gpu_sim::DeviceSpec::gtx1080());
//! let backend = fw.backend("Thrust").unwrap();
//!
//! // SELECT SUM(price * (1 - discount)) FROM t WHERE qty < 24
//! let logical = LogicalPlan::scan(
//!     "t",
//!     vec![ColumnDecl::f64("price"), ColumnDecl::f64("discount"), ColumnDecl::f64("qty")],
//! )
//! .filter(Predicate::cmp("t.qty", CmpOp::Lt, 24.0))
//! .aggregate(None, vec![(
//!     "revenue",
//!     AggExpr::Sum(Expr::col("t.price") * (Expr::lit(1.0) - Expr::col("t.discount"))),
//! )]);
//! let plan = optimizer::plan("revenue", &logical, backend).unwrap();
//!
//! let cols = [
//!     ("t.price", backend.upload_f64(&[10.0, 20.0, 30.0]).unwrap()),
//!     ("t.discount", backend.upload_f64(&[0.1, 0.2, 0.3]).unwrap()),
//!     ("t.qty", backend.upload_f64(&[5.0, 50.0, 10.0]).unwrap()),
//! ];
//! let mut binds = PlanBindings::new();
//! for (name, col) in &cols {
//!     binds.bind(name, col);
//! }
//! let out = plan.execute(backend, &binds).unwrap();
//! assert_eq!(out.scalar("revenue").unwrap(), 10.0 * 0.9 + 30.0 * 0.7);
//! ```

use crate::backend::ColType;
use crate::ops::CmpOp;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

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
        let mut seen = BTreeSet::new();
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

    /// Column names referenced by the predicate, in first-occurrence
    /// order with duplicates removed.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        let mut seen = BTreeSet::new();
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

/// One column a [`LogicalPlan::Scan`] brings into scope.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDecl {
    /// Unqualified column name (the scan's table name qualifies it).
    pub name: String,
    /// Device dtype of the bound column.
    pub dtype: ColType,
}

impl ColumnDecl {
    /// Declare a `u32` column.
    pub fn u32(name: &str) -> Self {
        ColumnDecl {
            name: name.to_string(),
            dtype: ColType::U32,
        }
    }

    /// Declare an `f64` column.
    pub fn f64(name: &str) -> Self {
        ColumnDecl {
            name: name.to_string(),
            dtype: ColType::F64,
        }
    }
}

/// Which input relation of a [`LogicalPlan::Join`] a projected column
/// comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// The build (inner) relation.
    Build,
    /// The probe (outer) relation.
    Probe,
}

/// One output column of a [`LogicalPlan::Join`]'s projection.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCol {
    /// Fresh name the joined column is known by downstream.
    pub output: String,
    /// Side of the join the column is taken from.
    pub side: JoinSide,
    /// Name of the column in that side's scope.
    pub source: String,
}

impl JoinCol {
    /// Project `source` from the probe side as `output`.
    pub fn probe(output: &str, source: &str) -> Self {
        JoinCol {
            output: output.to_string(),
            side: JoinSide::Probe,
            source: source.to_string(),
        }
    }

    /// Project `source` from the build side as `output`.
    pub fn build(output: &str, source: &str) -> Self {
        JoinCol {
            output: output.to_string(),
            side: JoinSide::Build,
            source: source.to_string(),
        }
    }
}

/// One named aggregate of a [`LogicalPlan::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub enum AggExpr {
    /// `SUM(expr)` over the aggregate's input rows.
    Sum(Expr),
    /// `COUNT(*)` over the aggregate's input rows.
    Count,
}

/// Row ordering of a [`LogicalPlan::SortLimit`], applied host-side to
/// the downloaded result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultOrder {
    /// Ascending by group key.
    KeyAsc,
    /// Descending by the first aggregate value, ties ascending by key.
    ValueDescKeyAsc,
}

/// A logical relational-algebra tree.
///
/// See the [module docs](self) for the naming convention. Plans are
/// plain data: `Clone` + `PartialEq` so rewrite passes can be tested
/// structurally and common subtrees deduplicated by the planner.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Leaf: a bound base table. Brings `table.column` names into scope.
    Scan {
        /// Table name (qualifies the column names).
        table: String,
        /// Columns of the bound working set, in upload order.
        columns: Vec<ColumnDecl>,
    },
    /// Keep the rows satisfying `predicate`.
    Filter {
        /// Input relation.
        input: Box<LogicalPlan>,
        /// Row predicate over columns in the input's scope.
        predicate: Predicate,
    },
    /// Materialise a subset of the input's columns (by name).
    Project {
        /// Input relation.
        input: Box<LogicalPlan>,
        /// Names (in the input's scope) to keep, in order.
        columns: Vec<String>,
    },
    /// Equi-join `probe` (outer) against `build` (inner), emitting
    /// `project` as the output scope.
    Join {
        /// Build (inner) relation — lowered first.
        build: Box<LogicalPlan>,
        /// Probe (outer) relation.
        probe: Box<LogicalPlan>,
        /// Join key in the build scope.
        build_key: String,
        /// Join key in the probe scope.
        probe_key: String,
        /// Semi-join: keep each matched *build* row once (EXISTS
        /// semantics), deduplicated; `project` may then only name
        /// build-side columns.
        semi_distinct: bool,
        /// Output columns, in order.
        project: Vec<JoinCol>,
    },
    /// Group-by (or scalar, when `group_by` is `None`) aggregation.
    Aggregate {
        /// Input relation.
        input: Box<LogicalPlan>,
        /// Optional `u32` grouping key in the input's scope.
        group_by: Option<String>,
        /// Named aggregates, in output order.
        aggs: Vec<(String, AggExpr)>,
    },
    /// Order (and optionally truncate) an aggregate's result rows.
    SortLimit {
        /// Input relation (an [`LogicalPlan::Aggregate`]).
        input: Box<LogicalPlan>,
        /// Row ordering.
        order: ResultOrder,
        /// Keep at most this many rows.
        limit: Option<usize>,
    },
}

impl LogicalPlan {
    /// A [`LogicalPlan::Scan`] leaf.
    pub fn scan(table: &str, columns: Vec<ColumnDecl>) -> Self {
        LogicalPlan::Scan {
            table: table.to_string(),
            columns,
        }
    }

    /// Wrap in a [`LogicalPlan::Filter`].
    pub fn filter(self, predicate: Predicate) -> Self {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Wrap in a [`LogicalPlan::Project`].
    pub fn project(self, columns: &[&str]) -> Self {
        LogicalPlan::Project {
            input: Box::new(self),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// An equi-[`LogicalPlan::Join`] of `probe` against `build`.
    pub fn join(
        build: LogicalPlan,
        probe: LogicalPlan,
        build_key: &str,
        probe_key: &str,
        project: Vec<JoinCol>,
    ) -> Self {
        LogicalPlan::Join {
            build: Box::new(build),
            probe: Box::new(probe),
            build_key: build_key.to_string(),
            probe_key: probe_key.to_string(),
            semi_distinct: false,
            project,
        }
    }

    /// A semi-distinct [`LogicalPlan::Join`] (EXISTS semantics): each
    /// build row that has at least one probe match survives exactly
    /// once.
    pub fn semi_join(
        build: LogicalPlan,
        probe: LogicalPlan,
        build_key: &str,
        probe_key: &str,
        project: Vec<JoinCol>,
    ) -> Self {
        LogicalPlan::Join {
            build: Box::new(build),
            probe: Box::new(probe),
            build_key: build_key.to_string(),
            probe_key: probe_key.to_string(),
            semi_distinct: true,
            project,
        }
    }

    /// Wrap in a grouped [`LogicalPlan::Aggregate`].
    pub fn aggregate(self, group_by: Option<&str>, aggs: Vec<(&str, AggExpr)>) -> Self {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by: group_by.map(str::to_string),
            aggs: aggs
                .into_iter()
                .map(|(name, agg)| (name.to_string(), agg))
                .collect(),
        }
    }

    /// Wrap in a [`LogicalPlan::SortLimit`].
    pub fn sort_limit(self, order: ResultOrder, limit: Option<usize>) -> Self {
        LogicalPlan::SortLimit {
            input: Box::new(self),
            order,
            limit,
        }
    }

    /// Whether the tree contains a [`LogicalPlan::Join`] — backends with
    /// no supported [`crate::ops::JoinAlgo`] cannot run such plans.
    pub(crate) fn contains_join(&self) -> bool {
        match self {
            LogicalPlan::Scan { .. } => false,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::SortLimit { input, .. } => input.contains_join(),
            LogicalPlan::Join { .. } => true,
        }
    }

    /// The base columns the tree's scans declare — qualified name and
    /// dtype, each name once — in the order the planner lowers the scans
    /// (a join's build side before its probe side). This is the working
    /// set a caller uploads and binds to run the plan.
    pub fn scan_columns(&self) -> Vec<(String, ColType)> {
        fn walk(plan: &LogicalPlan, out: &mut Vec<(String, ColType)>) {
            match plan {
                LogicalPlan::Scan { table, columns } => {
                    for c in columns {
                        let name = format!("{table}.{}", c.name);
                        if !out.iter().any(|(n, _)| *n == name) {
                            out.push((name, c.dtype));
                        }
                    }
                }
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Aggregate { input, .. }
                | LogicalPlan::SortLimit { input, .. } => walk(input, out),
                LogicalPlan::Join { build, probe, .. } => {
                    walk(build, out);
                    walk(probe, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Every column name resolvable somewhere in this subtree: the
    /// scans' qualified names plus every join/aggregate output name.
    /// Predicate pushdown routes conjuncts by membership in this set.
    pub(crate) fn deep_columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_deep_columns(&mut out);
        out
    }

    fn collect_deep_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            LogicalPlan::Scan { table, columns } => {
                for c in columns {
                    out.insert(format!("{table}.{}", c.name));
                }
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::SortLimit { input, .. } => input.collect_deep_columns(out),
            LogicalPlan::Join {
                build,
                probe,
                project,
                ..
            } => {
                build.collect_deep_columns(out);
                probe.collect_deep_columns(out);
                for jc in project {
                    out.insert(jc.output.clone());
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                input.collect_deep_columns(out);
                if let Some(k) = group_by {
                    out.insert(k.clone());
                }
                for (name, _) in aggs {
                    out.insert(name.clone());
                }
            }
        }
    }

    /// Render the tree in indented form (one node per line, children
    /// indented two spaces) — the format the optimizer golden tests
    /// snapshot.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan { table, columns } => {
                let cols: Vec<String> = columns
                    .iter()
                    .map(|c| format!("{}:{:?}", c.name, c.dtype))
                    .collect();
                let _ = writeln!(out, "{pad}Scan {table} [{}]", cols.join(", "));
            }
            LogicalPlan::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}Filter {}", predicate.describe());
                input.render_into(out, depth + 1);
            }
            LogicalPlan::Project { input, columns } => {
                let _ = writeln!(out, "{pad}Project [{}]", columns.join(", "));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::Join {
                build,
                probe,
                build_key,
                probe_key,
                semi_distinct,
                project,
            } => {
                let cols: Vec<String> = project
                    .iter()
                    .map(|jc| {
                        let side = match jc.side {
                            JoinSide::Build => "build",
                            JoinSide::Probe => "probe",
                        };
                        format!("{} ← {side}:{}", jc.output, jc.source)
                    })
                    .collect();
                let kind = if *semi_distinct { "SemiJoin" } else { "Join" };
                let _ = writeln!(
                    out,
                    "{pad}{kind} probe.{probe_key} = build.{build_key} [{}]",
                    cols.join(", ")
                );
                build.render_into(out, depth + 1);
                probe.render_into(out, depth + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let parts: Vec<String> = aggs
                    .iter()
                    .map(|(name, agg)| match agg {
                        AggExpr::Sum(e) => format!("{name} = SUM({e})"),
                        AggExpr::Count => format!("{name} = COUNT(*)"),
                    })
                    .collect();
                let by = match group_by {
                    Some(k) => format!(" BY {k}"),
                    None => String::new(),
                };
                let _ = writeln!(out, "{pad}Aggregate{by} [{}]", parts.join(", "));
                input.render_into(out, depth + 1);
            }
            LogicalPlan::SortLimit {
                input,
                order,
                limit,
            } => {
                let ord = match order {
                    ResultOrder::KeyAsc => "key asc",
                    ResultOrder::ValueDescKeyAsc => "value desc, key asc",
                };
                let lim = match limit {
                    Some(n) => format!(" limit {n}"),
                    None => String::new(),
                };
                let _ = writeln!(out, "{pad}SortLimit {ord}{lim}");
                input.render_into(out, depth + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LogicalPlan {
        let part = LogicalPlan::scan("part", vec![ColumnDecl::u32("partkey")]);
        let lineitem = LogicalPlan::scan(
            "lineitem",
            vec![ColumnDecl::u32("partkey"), ColumnDecl::f64("extendedprice")],
        )
        .filter(Predicate::cmp("lineitem.extendedprice", CmpOp::Gt, 0.0))
        .project(&["lineitem.partkey", "lineitem.extendedprice"]);
        LogicalPlan::join(
            part,
            lineitem,
            "part.partkey",
            "lineitem.partkey",
            vec![JoinCol::probe("ext", "lineitem.extendedprice")],
        )
        .aggregate(None, vec![("total", AggExpr::Sum(Expr::col("ext")))])
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
    fn deep_columns_cover_scans_and_join_outputs() {
        let plan = sample();
        let deep = plan.deep_columns();
        assert!(deep.contains("part.partkey"));
        assert!(deep.contains("lineitem.extendedprice"));
        assert!(deep.contains("ext"));
        assert!(deep.contains("total"));
        assert!(!deep.contains("orders.orderkey"));
    }

    #[test]
    fn contains_join_walks_the_tree() {
        assert!(sample().contains_join());
        let flat = LogicalPlan::scan("t", vec![ColumnDecl::f64("x")])
            .aggregate(None, vec![("s", AggExpr::Sum(Expr::col("t.x")))]);
        assert!(!flat.contains_join());
    }

    #[test]
    fn render_is_indented_and_complete() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("Aggregate [total = SUM(ext)]"),
            "{text}"
        );
        assert!(lines[1].starts_with("  Join "), "{text}");
        assert!(lines[2].starts_with("    Scan part"), "{text}");
        assert!(
            text.contains("Filter lineitem.extendedprice Gt 0"),
            "{text}"
        );
        assert!(
            text.contains("ext ← probe:lineitem.extendedprice"),
            "{text}"
        );
    }
}
