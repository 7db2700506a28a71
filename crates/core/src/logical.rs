//! The logical query IR: a backend-independent relational-algebra tree.
//!
//! [`LogicalPlan`] is the one thing a query is declared as: a tree of
//! scan / filter / project / join / group-by aggregate / sort-limit
//! nodes, rich enough to express TPC-H Q1–Q14. A query is *built* here
//! — directly (`tpch::queries`) or through the
//! [`crate::plan::AggQuery`] front-end, which compiles to a one-scan
//! tree — *rewritten* by [`crate::optimizer`]'s passes (predicate
//! pushdown, projection pruning) and *lowered* onto a specific
//! [`crate::backend::GpuBackend`] as a [`crate::physical::PhysicalPlan`].
//! Its expressions and predicates are [`crate::plan`]'s [`Expr`] and
//! [`Predicate`].
//!
//! Naming convention: [`LogicalPlan::Scan`] brings `table.column`
//! qualified names into scope; a [`LogicalPlan::Join`]'s projection
//! gives its outputs fresh (builder-chosen, plan-unique) names, which
//! downstream nodes reference. [`LogicalPlan::render`] prints the tree
//! in the indented form the optimizer golden tests snapshot.

use crate::backend::ColType;
use crate::plan::{Expr, Predicate};
use std::collections::BTreeSet;
use std::fmt::Write as _;

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
    pub fn contains_join(&self) -> bool {
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
    use crate::ops::CmpOp;

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
