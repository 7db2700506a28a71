//! The plug-in interface: `GpuBackend`.
//!
//! The paper's framework "allows a user to plug-in new libraries and
//! custom-written code". A backend adapts one GPU library (or a handwritten
//! kernel collection) to the common operator vocabulary of
//! [`crate::ops::DbOperator`]. Columns live on the device behind [`Col`]
//! handles that own them, so benchmarks measure operator execution without
//! re-paying PCIe transfers on every call — matching how the paper times
//! operators in isolation.

use crate::fused::{FusedExpr, FusedPred};
use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use gpu_sim::{Device, Result, SimError};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Element type of a framework column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 32-bit unsigned keys / row ids.
    U32,
    /// 64-bit float measures.
    F64,
}

/// The identity of one backend instance: what every handle it mints
/// carries, and what every read of a handle is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Owner {
    id: u64,
    name: &'static str,
}

impl Owner {
    /// A fresh identity for an instance of the backend named `name`,
    /// equal to no other.
    pub fn new(name: &'static str) -> Owner {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        Owner { id, name }
    }
}

/// Handle to a device-resident column, owning it: dropping the handle
/// frees the column, and [`GpuBackend::free`] is the checked form of that
/// drop.
///
/// Handles are minted by [`GpuBackend::upload_u32`] /
/// [`GpuBackend::upload_f64`] / [`GpuBackend::upload`] and by operator
/// outputs; only the backend instance that minted one reads it.
pub struct Col {
    value: Box<dyn Any + Send + Sync>,
    owner: Owner,
    dtype: ColType,
    len: usize,
}

impl std::fmt::Debug for Col {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Col")
            .field("backend", &self.owner.name)
            .field("dtype", &self.dtype)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl Col {
    /// A handle owning `value`, the column `owner` stores for `len`
    /// elements of `dtype` — the constructor a backend uses, in tree or
    /// out of it.
    pub fn new<T: Any + Send + Sync>(owner: Owner, dtype: ColType, len: usize, value: T) -> Col {
        let value = Box::new(value);
        Col {
            value,
            owner,
            dtype,
            len,
        }
    }

    /// The column `owner` stored as a `T`; `Unsupported` when another
    /// backend instance minted the handle or the column is stored as
    /// something else.
    pub fn get<T: Any>(&self, owner: Owner) -> Result<&T> {
        self.owned_by(owner)?;
        self.value.downcast_ref().ok_or_else(|| {
            SimError::Unsupported(format!(
                "{:?} column where {} expected",
                self.dtype,
                std::any::type_name::<T>()
            ))
        })
    }

    /// Drop the handle, freeing its column; `Unsupported` when another
    /// backend instance minted it, which drops it all the same.
    pub(crate) fn free(self, owner: Owner) -> Result<()> {
        self.owned_by(owner)
    }

    fn owned_by(&self, owner: Owner) -> Result<()> {
        if self.owner == owner {
            return Ok(());
        }
        let (mine, theirs) = (self.owner.name, owner.name);
        let which = if mine == theirs { "another" } else { mine };
        Err(SimError::Unsupported(format!(
            "column belongs to {which} {mine} instance, not to this {theirs}"
        )))
    }

    /// Element type.
    pub fn dtype(&self) -> ColType {
        self.dtype
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Name of the owning backend.
    pub fn backend(&self) -> &'static str {
        self.owner.name
    }
}

/// Where the values of a column [`GpuBackend::upload`] uploads come from:
/// a generator (or a cache of one) that is called only when a kernel body
/// will read them.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// `u32` values.
    U32(&'a dyn Fn() -> Arc<Vec<u32>>),
    /// `f64` values.
    F64(&'a dyn Fn() -> Arc<Vec<f64>>),
}

impl std::fmt::Debug for Source<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Source::U32(_) => "Source::U32",
            Source::F64(_) => "Source::F64",
        })
    }
}

/// `values`, when they are the `len` a lazy upload declared.
pub(crate) fn sized<T>(len: usize, values: Arc<Vec<T>>) -> Result<Arc<Vec<T>>> {
    if values.len() == len {
        Ok(values)
    } else {
        let right = values.len();
        Err(SimError::SizeMismatch { left: len, right })
    }
}

/// One selection predicate: `column CMP literal` (literals are widened to
/// `f64`; exact for integers below 2^53).
#[derive(Debug, Clone, Copy)]
pub struct Pred<'a> {
    /// Column to filter.
    pub col: &'a Col,
    /// Comparison operator.
    pub cmp: CmpOp,
    /// Literal to compare against.
    pub lit: f64,
}

/// The host answer of one [`GpuBackend::grouped_sum`]: the distinct keys,
/// ascending, and per key the sum of its values, bit for bit what the
/// backend's own body computes.
#[derive(Debug, Clone, Default)]
pub struct GroupSums {
    /// Distinct keys, ascending.
    pub keys: Vec<u32>,
    /// Per key, its values folded in row order from the backend's seed.
    pub sums: Vec<f64>,
}

/// A GPU library (or handwritten kernel set) plugged into the framework.
///
/// Unsupported operators return [`SimError::Unsupported`]; their Table-II
/// cell is derived from [`GpuBackend::support`].
pub trait GpuBackend: Send + Sync {
    /// Backend name as it appears in tables (e.g. `"Thrust"`).
    fn name(&self) -> &'static str;

    /// The simulated device this backend runs on.
    fn device(&self) -> Arc<Device>;

    /// Level of support for `op` (Table II cell).
    fn support(&self, op: DbOperator) -> Support;

    /// The library calls realising `op` (Table II "Function" column).
    fn realization(&self, op: DbOperator) -> &'static str;

    // -- data movement --------------------------------------------------

    /// Upload a `u32` column (charges PCIe).
    fn upload_u32(&self, data: &[u32]) -> Result<Col>;
    /// Upload an `f64` column (charges PCIe).
    fn upload_f64(&self, data: &[f64]) -> Result<Col>;
    /// Upload a column of `len` values from `source` (charges PCIe), asking
    /// for the values only if a kernel body will read them: inside the
    /// device's dry scope a backend that overrides this keeps the column
    /// shape-only — same charges, no data — and never calls `source`
    /// (DESIGN.md §5). The default uploads eagerly. `source` yielding
    /// other than `len` values is `SizeMismatch`, before any charge.
    fn upload(&self, len: usize, source: Source<'_>) -> Result<Col> {
        match source {
            Source::U32(values) => self.upload_u32(&sized(len, values())?),
            Source::F64(values) => self.upload_f64(&sized(len, values())?),
        }
    }
    /// Download a `u32` column (charges PCIe). A shape-only column has
    /// nothing to download: [`SimError::ShapeOnly`], before any charge.
    fn download_u32(&self, col: &Col) -> Result<Vec<u32>>;
    /// Download an `f64` column (charges PCIe); as [`Self::download_u32`].
    fn download_f64(&self, col: &Col) -> Result<Vec<f64>>;
    /// Release a column handle.
    fn free(&self, col: Col) -> Result<()>;

    // -- Table II operators ----------------------------------------------

    /// Selection: row ids (ascending) where `cmp(col, lit)` holds — a
    /// one-predicate [`Self::selection_multi`].
    fn selection(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        self.selection_multi(&[Pred { col, cmp, lit }], Connective::And)
    }

    /// Multi-predicate selection combined with `conn`.
    fn selection_multi(&self, preds: &[Pred<'_>], conn: Connective) -> Result<Col>;

    /// Column-vs-column selection: row ids where `cmp(a[i], b[i])` holds
    /// (TPC-H Q4's `l_commitdate < l_receiptdate`).
    fn selection_cmp_cols(&self, a: &Col, b: &Col, cmp: CmpOp) -> Result<Col>;

    /// Dense predicate mask: an `f64` 0/1 column marking the rows where
    /// `cmp(col, lit)` holds — the CASE-WHEN building block (one
    /// transform / fused kernel everywhere, no compaction).
    fn dense_mask(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col>;

    /// Element-wise product of two `f64` columns.
    fn product(&self, a: &Col, b: &Col) -> Result<Col>;

    /// Element-wise affine map `out[i] = col[i] · mul + add` on an `f64`
    /// column — the projection arithmetic TPC-H needs for
    /// `1 - l_discount` and `1 + l_tax`.
    fn affine(&self, col: &Col, mul: f64, add: f64) -> Result<Col>;

    /// A device-resident constant column (`fill` / `af::constant`) —
    /// COUNT(*) is SUM over a ones column.
    fn constant_f64(&self, len: usize, value: f64) -> Result<Col>;

    /// Sum of an `f64` column.
    fn reduction(&self, col: &Col) -> Result<f64>;

    /// Exclusive prefix sum of a `u32` column.
    fn prefix_sum(&self, col: &Col) -> Result<Col>;

    /// Ascending sort of a `u32` column (input is left unchanged).
    fn sort(&self, col: &Col) -> Result<Col>;

    /// Stable ascending key sort of `(u32 keys, f64 vals)` pairs.
    fn sort_by_key(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)>;

    /// Grouped SUM: distinct keys (ascending) with per-key value sums.
    /// Global group semantics (not run-based).
    fn grouped_sum(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)>;

    /// The host answers of `grouped_sum(keys, v)` for each `v` of `vals`,
    /// folded in one pass over the rows: what a plan asks for once at the
    /// first of a run of grouped sums over one key column, each step then
    /// taking its own through [`Self::grouped_sum_with`]. Entry `i`
    /// answers `vals[i]`; a `None` or missing entry — the default returns
    /// none — leaves that step to fold its own. Only bodies run here: no
    /// check that could fail, no charge, no fault draw, and nothing where
    /// a step would run no body (DESIGN.md §5).
    fn shared_group_sums(&self, keys: &Col, vals: &[&Col]) -> Vec<Option<GroupSums>> {
        let _ = (keys, vals);
        Vec::new()
    }

    /// [`Self::grouped_sum`] with the body's answer given when `answer`
    /// holds one from [`Self::shared_group_sums`] over the same operands:
    /// the same checks, reservations and charges in the same order, and
    /// `answer` taken into the outputs only once they are filled, so a
    /// step that fails before then leaves it for its retry. The default
    /// folds its own.
    fn grouped_sum_with(
        &self,
        keys: &Col,
        vals: &Col,
        answer: &mut Option<GroupSums>,
    ) -> Result<(Col, Col)> {
        let _ = answer;
        self.grouped_sum(keys, vals)
    }

    /// Gather `data[idx[i]]`.
    fn gather(&self, data: &Col, idx: &Col) -> Result<Col>;

    /// Scatter `data[i]` to `out[idx[i]]` over a zeroed output of
    /// `dst_len` elements (u32 data).
    fn scatter(&self, data: &Col, idx: &Col, dst_len: usize) -> Result<Col>;

    /// Equi join on `u32` key columns: matched `(outer_row, inner_row)`
    /// id pairs, ordered by `(outer, inner)`.
    fn join(&self, outer: &Col, inner: &Col, algo: JoinAlgo) -> Result<(Col, Col)>;

    /// Multi-aggregate grouping: distinct keys with per-key SUM **and**
    /// COUNT. The default realisation is the only one the library
    /// interfaces permit — one `grouped_sum` pass per aggregate (§II's
    /// "cannot freely combine" limitation); the handwritten backend
    /// overrides it with a single fused hash-aggregation pass.
    /// Returns `(keys, sums, counts)`.
    fn grouped_sum_count(&self, keys: &Col, vals: &Col) -> Result<(Col, Col, Col)> {
        let (gk, sums) = self.grouped_sum(keys, vals)?;
        let ones = self.constant_f64(keys.len(), 1.0)?;
        let (gk2, counts) = self.grouped_sum(keys, &ones)?;
        self.free(ones)?;
        self.free(gk2)?;
        Ok((gk, sums, counts))
    }

    /// Fused analytical kernel shape (TPC-H Q6):
    /// `SUM(a[i] * b[i]) WHERE preds`. The default realisation composes
    /// the library operators (selection → gather → product → reduction);
    /// backends override it with their cheapest native pipeline.
    fn filter_sum_product(&self, a: &Col, b: &Col, preds: &[Pred<'_>]) -> Result<f64> {
        let conn = Connective::And;
        let ids = self.selection_multi(preds, conn)?;
        let ga = self.gather(a, &ids)?;
        let gb = self.gather(b, &ids)?;
        let prod = self.product(&ga, &gb)?;
        let total = self.reduction(&prod)?;
        for c in [ids, ga, gb, prod] {
            self.free(c)?;
        }
        Ok(total)
    }

    /// Fused element-wise chain: evaluate `expr` once per row over
    /// `inputs` into a fresh `f64` column. The default realisation
    /// composes the library operators node by node (one call per
    /// operator, exactly the unfused plan's chain); backends override it
    /// with a single-pass kernel — results are bit-equal either way
    /// because every node applies the identical `f64` operation per
    /// element ([`crate::fused::FusedExpr::eval_row`]).
    fn fused_map(&self, inputs: &[&Col], expr: &FusedExpr) -> Result<Col> {
        crate::fused::composed_map_impl(self, inputs, expr)
    }

    /// Fused filter + aggregate: `SUM(expr(row)) WHERE preds` (AND-
    /// conjunctive), the general form of [`Self::filter_sum_product`]
    /// with an arbitrary value expression. The default composes
    /// selection → gather → chain → reduction; backends override with
    /// one pass.
    fn fused_filter_agg(
        &self,
        inputs: &[&Col],
        preds: &[FusedPred],
        expr: &FusedExpr,
    ) -> Result<f64> {
        crate::fused::composed_filter_agg_impl(self, inputs, preds, expr)
    }
}

/// `Unsupported` unless `col` holds `dtype` elements.
pub(crate) fn check_dtype(col: &Col, dtype: ColType) -> Result<()> {
    if col.dtype == dtype {
        Ok(())
    } else {
        Err(SimError::Unsupported(format!(
            "column dtype {:?} where {:?} expected",
            col.dtype, dtype
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handle_is_read_by_its_owner_as_the_type_it_holds() {
        let (thrust, other) = (Owner::new("Thrust"), Owner::new("Thrust"));
        let col = Col::new(thrust, ColType::U32, 3, vec![1u32, 2, 3]);
        assert_eq!(col.get::<Vec<u32>>(thrust).unwrap(), &[1, 2, 3]);
        assert!(col.get::<Vec<f64>>(thrust).is_err());
        assert!(col.get::<Vec<u32>>(other).is_err());
        assert!(col.get::<Vec<u32>>(Owner::new("Boost.Compute")).is_err());
        assert!(check_dtype(&col, ColType::U32).is_ok());
        assert!(check_dtype(&col, ColType::F64).is_err());
        assert_eq!(col.len(), 3);
        assert!(!col.is_empty());
        assert_eq!(col.backend(), "Thrust");
        assert_eq!(col.dtype(), ColType::U32);
        assert!(col.free(other).is_err());
    }
}
