//! A [`GpuBackend`] that records one span per operator call.
//!
//! `PhysicalPlan::execute` and the recovery executors issue their operator
//! calls from inside `proto_core`, where the harness cannot put a timer.
//! Handing them this wrapper instead of the backend itself places the span
//! at the `GpuBackend` boundary — the backend's public surface — so the
//! plan interpreter's self time and the kernel bodies' time separate. It
//! is only used in traced passes.

use crate::span;
use gpu_sim::{Device, Result};
use proto_core::backend::{Col, GpuBackend, Pred};
use proto_core::fused::{FusedExpr, FusedPred};
use proto_core::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use std::sync::Arc;

/// Span layer of every operator call, whichever backend runs it.
pub const LAYER: &str = "backend";

pub struct TracingBackend<'a>(pub &'a dyn GpuBackend);

macro_rules! traced {
    ($self:ident . $op:ident ( $($arg:expr),* )) => {
        span::scope(LAYER, stringify!($op), || $self.0.$op($($arg),*))
    };
}

impl GpuBackend for TracingBackend<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn device(&self) -> Arc<Device> {
        self.0.device()
    }
    fn support(&self, op: DbOperator) -> Support {
        self.0.support(op)
    }
    fn realization(&self, op: DbOperator) -> &'static str {
        self.0.realization(op)
    }
    fn upload_u32(&self, data: &[u32]) -> Result<Col> {
        traced!(self.upload_u32(data))
    }
    fn upload_f64(&self, data: &[f64]) -> Result<Col> {
        traced!(self.upload_f64(data))
    }
    fn download_u32(&self, col: &Col) -> Result<Vec<u32>> {
        traced!(self.download_u32(col))
    }
    fn download_f64(&self, col: &Col) -> Result<Vec<f64>> {
        traced!(self.download_f64(col))
    }
    fn free(&self, col: Col) -> Result<()> {
        traced!(self.free(col))
    }
    fn selection(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        traced!(self.selection(col, cmp, lit))
    }
    fn selection_multi(&self, preds: &[Pred<'_>], conn: Connective) -> Result<Col> {
        traced!(self.selection_multi(preds, conn))
    }
    fn selection_cmp_cols(&self, a: &Col, b: &Col, cmp: CmpOp) -> Result<Col> {
        traced!(self.selection_cmp_cols(a, b, cmp))
    }
    fn dense_mask(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        traced!(self.dense_mask(col, cmp, lit))
    }
    fn product(&self, a: &Col, b: &Col) -> Result<Col> {
        traced!(self.product(a, b))
    }
    fn affine(&self, col: &Col, mul: f64, add: f64) -> Result<Col> {
        traced!(self.affine(col, mul, add))
    }
    fn constant_f64(&self, len: usize, value: f64) -> Result<Col> {
        traced!(self.constant_f64(len, value))
    }
    fn reduction(&self, col: &Col) -> Result<f64> {
        traced!(self.reduction(col))
    }
    fn prefix_sum(&self, col: &Col) -> Result<Col> {
        traced!(self.prefix_sum(col))
    }
    fn sort(&self, col: &Col) -> Result<Col> {
        traced!(self.sort(col))
    }
    fn sort_by_key(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        traced!(self.sort_by_key(keys, vals))
    }
    fn grouped_sum(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        traced!(self.grouped_sum(keys, vals))
    }
    fn gather(&self, data: &Col, idx: &Col) -> Result<Col> {
        traced!(self.gather(data, idx))
    }
    fn scatter(&self, data: &Col, idx: &Col, dst_len: usize) -> Result<Col> {
        traced!(self.scatter(data, idx, dst_len))
    }
    fn join(&self, outer: &Col, inner: &Col, algo: JoinAlgo) -> Result<(Col, Col)> {
        traced!(self.join(outer, inner, algo))
    }
    // The provided methods are forwarded too: backends override them with
    // native kernels, and the trait's defaults would bypass those.
    fn grouped_sum_count(&self, keys: &Col, vals: &Col) -> Result<(Col, Col, Col)> {
        traced!(self.grouped_sum_count(keys, vals))
    }
    fn filter_sum_product(&self, a: &Col, b: &Col, preds: &[Pred<'_>]) -> Result<f64> {
        traced!(self.filter_sum_product(a, b, preds))
    }
    fn fused_map(&self, inputs: &[&Col], expr: &FusedExpr) -> Result<Col> {
        traced!(self.fused_map(inputs, expr))
    }
    fn fused_filter_agg(
        &self,
        inputs: &[&Col],
        preds: &[FusedPred],
        expr: &FusedExpr,
    ) -> Result<f64> {
        traced!(self.fused_filter_agg(inputs, preds, expr))
    }
}
