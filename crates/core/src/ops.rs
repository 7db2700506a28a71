//! The framework's operator vocabulary — the rows of the paper's Table II.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The column-oriented database operators the paper studies (§III-B):
/// "we consider the operators: projection, (conjunctive) selection, join,
/// aggregation, grouping and sorting … besides these, we also study the
/// parallel primitives prefix-sum, scatter and gather".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DbOperator {
    /// Filter rows by a predicate, materialising qualifying row ids.
    Selection,
    /// Multi-predicate selection combined with AND / OR.
    ConjunctionDisjunction,
    /// Join via exhaustive comparison (`for_each_n` in libraries).
    NestedLoopsJoin,
    /// Join of two sorted inputs.
    MergeJoin,
    /// Hash-based equi join — the primitive no library supports.
    HashJoin,
    /// `GROUP BY key, SUM(value)`-style aggregation.
    GroupedAggregation,
    /// Full-column reduction (SUM).
    Reduction,
    /// Key sort carrying a payload column.
    SortByKey,
    /// Plain ascending sort.
    Sort,
    /// Exclusive prefix sum.
    PrefixSum,
    /// Index-directed materialisation primitives.
    ScatterGather,
    /// Element-wise product of two columns (projection arithmetic).
    Product,
}

impl DbOperator {
    /// All operators, in Table II's row order.
    pub const ALL: [DbOperator; 12] = [
        DbOperator::Selection,
        DbOperator::NestedLoopsJoin,
        DbOperator::MergeJoin,
        DbOperator::HashJoin,
        DbOperator::GroupedAggregation,
        DbOperator::ConjunctionDisjunction,
        DbOperator::Reduction,
        DbOperator::SortByKey,
        DbOperator::Sort,
        DbOperator::PrefixSum,
        DbOperator::ScatterGather,
        DbOperator::Product,
    ];

    /// Human-readable row label.
    pub fn label(self) -> &'static str {
        match self {
            DbOperator::Selection => "Selection",
            DbOperator::ConjunctionDisjunction => "Conjunction & Disjunction",
            DbOperator::NestedLoopsJoin => "Nested-Loops Join",
            DbOperator::MergeJoin => "Merge Join",
            DbOperator::HashJoin => "Hash Join",
            DbOperator::GroupedAggregation => "Grouped Aggregation",
            DbOperator::Reduction => "Reduction",
            DbOperator::SortByKey => "Sort by Key",
            DbOperator::Sort => "Sort",
            DbOperator::PrefixSum => "Prefix Sum",
            DbOperator::ScatterGather => "Scatter & Gather",
            DbOperator::Product => "Product",
        }
    }
}

impl fmt::Display for DbOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Level of library support for an operator — Table II's legend:
/// "+ full support; ~ partial support; – no support".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Support {
    /// Direct functional implementation available ("+").
    Full,
    /// Realisable by chaining several calls with intermediate results ("~").
    Partial,
    /// Not realisable with the library ("–").
    None,
}

impl Support {
    /// Table II glyph.
    pub(crate) fn glyph(self) -> &'static str {
        match self {
            Support::Full => "+",
            Support::Partial => "~",
            Support::None => "–",
        }
    }
}

/// Comparison operator of a selection predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `column < literal`
    Lt,
    /// `column <= literal`
    Le,
    /// `column > literal`
    Gt,
    /// `column >= literal`
    Ge,
    /// `column == literal`
    Eq,
    /// `column != literal`
    Ne,
}

impl CmpOp {
    /// Evaluate against an `f64`-widened column value.
    pub fn eval(self, x: f64, lit: f64) -> bool {
        match self {
            CmpOp::Lt => x < lit,
            CmpOp::Le => x <= lit,
            CmpOp::Gt => x > lit,
            CmpOp::Ge => x >= lit,
            CmpOp::Eq => x == lit,
            CmpOp::Ne => x != lit,
        }
    }
}

impl From<CmpOp> for gpu_sim::hostexec::Cmp {
    fn from(op: CmpOp) -> Self {
        use gpu_sim::hostexec::Cmp;
        match op {
            CmpOp::Lt => Cmp::Lt,
            CmpOp::Le => Cmp::Le,
            CmpOp::Gt => Cmp::Gt,
            CmpOp::Ge => Cmp::Ge,
            CmpOp::Eq => Cmp::Eq,
            CmpOp::Ne => Cmp::Ne,
        }
    }
}

/// How multiple predicates combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Connective {
    /// All predicates must hold.
    And,
    /// Any predicate suffices.
    Or,
}

/// Join algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinAlgo {
    /// O(n·m) comparison join (`for_each_n`).
    NestedLoops,
    /// Sorted-merge join.
    Merge,
    /// Hash build + probe.
    Hash,
}

impl JoinAlgo {
    /// The operator row this algorithm belongs to.
    pub fn operator(self) -> DbOperator {
        match self {
            JoinAlgo::NestedLoops => DbOperator::NestedLoopsJoin,
            JoinAlgo::Merge => DbOperator::MergeJoin,
            JoinAlgo::Hash => DbOperator::HashJoin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_has_twelve_rows() {
        assert_eq!(DbOperator::ALL.len(), 12);
        for op in DbOperator::ALL {
            assert!(!op.label().is_empty());
            assert_eq!(op.to_string(), op.label());
        }
    }

    #[test]
    fn support_glyphs_match_the_paper_legend() {
        assert_eq!(Support::Full.glyph(), "+");
        assert_eq!(Support::Partial.glyph(), "~");
        assert_eq!(Support::None.glyph(), "–");
    }

    #[test]
    fn cmp_ops_evaluate() {
        assert!(CmpOp::Lt.eval(1.0, 2.0));
        assert!(CmpOp::Le.eval(2.0, 2.0));
        assert!(CmpOp::Gt.eval(3.0, 2.0));
        assert!(CmpOp::Ge.eval(2.0, 2.0));
        assert!(CmpOp::Eq.eval(2.0, 2.0));
        assert!(CmpOp::Ne.eval(1.0, 2.0));
        assert!(!CmpOp::Eq.eval(1.0, 2.0));
    }

    #[test]
    fn join_algos_map_to_operators() {
        assert_eq!(JoinAlgo::Hash.operator(), DbOperator::HashJoin);
        assert_eq!(JoinAlgo::Merge.operator(), DbOperator::MergeJoin);
        assert_eq!(
            JoinAlgo::NestedLoops.operator(),
            DbOperator::NestedLoopsJoin
        );
    }
}
