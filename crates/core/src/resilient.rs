//! Fault-tolerant operator calls: bounded retry with backoff.
//!
//! The simulated device can inject transient faults ([`gpu_sim::FaultPlan`])
//! at every allocation, transfer and kernel launch. This module is the
//! operator-level recovery side: [`ResilientBackend`] wraps any
//! [`GpuBackend`] and re-issues each failed operator with exponential
//! backoff ([`RetryPolicy`]). Backoff is charged to the *simulated* clock
//! via [`Device::note`](gpu_sim::Device::note), so resilience
//! overhead shows up in measured timings exactly like it would on real
//! hardware. Batch splitting and fallback along a backend chain are
//! plan-level mechanisms ([`crate::resilient_plan`]).
//!
//! Every retry is recorded in [`DeviceStats`](gpu_sim::DeviceStats)
//! (`retries`) and in the device trace, so experiments can report *how
//! much* resilience machinery a workload exercised.
//!
//! With no fault plan installed the wrapper is free: one straight-through
//! call per operator and zero extra simulated time.

use crate::backend::{Col, GpuBackend, Pred, Source};
use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use gpu_sim::{Device, Recovery, Result, SimDuration, SimError};
use std::sync::Arc;

/// Backoff before the first re-issue, in simulated nanoseconds.
const BASE_BACKOFF_NS: u64 = 50_000;
/// Backoff growth factor between consecutive re-issues.
const BACKOFF_MULTIPLIER: u64 = 2;
/// Ceiling on a single backoff, in simulated nanoseconds.
const MAX_BACKOFF_NS: u64 = 10_000_000;

/// Bounded-retry policy. The backoff schedule is fixed (50 µs before the
/// first re-issue, doubling per re-issue, capped at 10 ms), and
/// `OutOfMemory` is always retried: transient memory pressure (another
/// tenant's allocation spike) looks identical to a genuine capacity miss,
/// so the retry loop re-issues it although [`SimError::is_transient`]
/// does not count it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of re-issues per operator call (0 disables retry).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 8 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (errors propagate on first failure).
    pub fn no_retry() -> Self {
        RetryPolicy { max_retries: 0 }
    }
}

/// Backoff charged before re-issue number `attempt` (0-based):
/// [`BASE_BACKOFF_NS`] times [`BACKOFF_MULTIPLIER`]`^attempt`, saturating
/// at [`MAX_BACKOFF_NS`].
pub(crate) fn backoff(attempt: u32) -> SimDuration {
    let ns = BACKOFF_MULTIPLIER
        .checked_pow(attempt)
        .and_then(|m| BASE_BACKOFF_NS.checked_mul(m))
        .map_or(MAX_BACKOFF_NS, |ns| ns.min(MAX_BACKOFF_NS));
    SimDuration::from_nanos(ns)
}

/// Whether `err` is worth re-issuing: transient faults and out-of-memory.
fn wants_retry(err: &SimError) -> bool {
    err.is_transient() || matches!(err, SimError::OutOfMemory { .. })
}

/// A [`GpuBackend`] decorator that retries transient failures.
///
/// Every operator call runs in a bounded retry loop: transient errors and
/// out-of-memory are re-issued after an exponential backoff charged to
/// the simulated clock. The wrapper reports the inner
/// backend's [`name`](GpuBackend::name), so column handles pass through
/// untouched and the wrapper can stand in anywhere a backend is expected
/// (including [`Framework`](crate::framework::Framework) registration).
pub struct ResilientBackend {
    inner: Box<dyn GpuBackend>,
    policy: RetryPolicy,
}

impl std::fmt::Debug for ResilientBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientBackend")
            .field("inner", &self.inner.name())
            .field("policy", &self.policy)
            .finish()
    }
}

impl ResilientBackend {
    /// Wrap `inner` under `policy`.
    pub fn with_policy(inner: Box<dyn GpuBackend>, policy: RetryPolicy) -> Self {
        ResilientBackend { inner, policy }
    }

    /// Bounded retry loop around one operator call.
    ///
    /// The fast path is a single straight-through call: with no failure
    /// there is no bookkeeping and no simulated-time cost.
    fn run<T>(&self, what: &str, f: impl Fn() -> Result<T>) -> Result<T> {
        retry_with_policy(&self.inner.device(), &self.policy, what, f)
    }
}

/// Run `f` in a bounded retry loop under `policy`, charging each backoff
/// to `device`'s simulated clock and journaling the retry as a
/// `what`-named recovery note (via [`Device::note`](gpu_sim::Device::note)).
///
/// This is the single retry primitive the whole crate shares:
/// [`ResilientBackend`] routes every operator call through it, and
/// [`ResilientPlanExecutor`](crate::resilient_plan::ResilientPlanExecutor)
/// runs every plan step and stages partition windows under it.
pub(crate) fn retry_with_policy<T>(
    device: &Device,
    policy: &RetryPolicy,
    what: &str,
    mut f: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut attempt = 0;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < policy.max_retries && wants_retry(&e) => {
                let retry = Recovery::Retry {
                    what: what.to_string(),
                };
                let wait = backoff(attempt);
                device.note(retry, wait);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

impl GpuBackend for ResilientBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device(&self) -> Arc<Device> {
        self.inner.device()
    }

    fn support(&self, op: DbOperator) -> Support {
        self.inner.support(op)
    }

    fn realization(&self, op: DbOperator) -> &'static str {
        self.inner.realization(op)
    }

    fn upload_u32(&self, data: &[u32]) -> Result<Col> {
        self.run("upload_u32", || self.inner.upload_u32(data))
    }

    fn upload_f64(&self, data: &[f64]) -> Result<Col> {
        self.run("upload_f64", || self.inner.upload_f64(data))
    }

    fn upload(&self, len: usize, source: Source<'_>) -> Result<Col> {
        self.run("upload", || self.inner.upload(len, source))
    }

    fn download_u32(&self, col: &Col) -> Result<Vec<u32>> {
        self.run("download_u32", || self.inner.download_u32(col))
    }

    fn download_f64(&self, col: &Col) -> Result<Vec<f64>> {
        self.run("download_f64", || self.inner.download_f64(col))
    }

    fn free(&self, col: Col) -> Result<()> {
        // `free` consumes its handle and touches no fault site, so it
        // cannot fail transiently — a retry loop would have nothing to
        // re-issue anyway.
        self.inner.free(col)
    }

    fn selection(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        self.run("selection", || self.inner.selection(col, cmp, lit))
    }

    fn selection_multi(&self, preds: &[Pred<'_>], conn: Connective) -> Result<Col> {
        self.run("selection_multi", || {
            self.inner.selection_multi(preds, conn)
        })
    }

    fn selection_cmp_cols(&self, a: &Col, b: &Col, cmp: CmpOp) -> Result<Col> {
        self.run("selection_cmp_cols", || {
            self.inner.selection_cmp_cols(a, b, cmp)
        })
    }

    fn dense_mask(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        self.run("dense_mask", || self.inner.dense_mask(col, cmp, lit))
    }

    fn product(&self, a: &Col, b: &Col) -> Result<Col> {
        self.run("product", || self.inner.product(a, b))
    }

    fn affine(&self, col: &Col, mul: f64, add: f64) -> Result<Col> {
        self.run("affine", || self.inner.affine(col, mul, add))
    }

    fn constant_f64(&self, len: usize, value: f64) -> Result<Col> {
        self.run("constant_f64", || self.inner.constant_f64(len, value))
    }

    fn reduction(&self, col: &Col) -> Result<f64> {
        self.run("reduction", || self.inner.reduction(col))
    }

    fn prefix_sum(&self, col: &Col) -> Result<Col> {
        self.run("prefix_sum", || self.inner.prefix_sum(col))
    }

    fn sort(&self, col: &Col) -> Result<Col> {
        self.run("sort", || self.inner.sort(col))
    }

    fn sort_by_key(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        self.run("sort_by_key", || self.inner.sort_by_key(keys, vals))
    }

    fn grouped_sum(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        self.run("grouped_sum", || self.inner.grouped_sum(keys, vals))
    }

    fn gather(&self, data: &Col, idx: &Col) -> Result<Col> {
        self.run("gather", || self.inner.gather(data, idx))
    }

    fn scatter(&self, data: &Col, idx: &Col, dst_len: usize) -> Result<Col> {
        self.run("scatter", || self.inner.scatter(data, idx, dst_len))
    }

    fn join(&self, outer: &Col, inner: &Col, algo: JoinAlgo) -> Result<(Col, Col)> {
        self.run("join", || self.inner.join(outer, inner, algo))
    }

    fn grouped_sum_count(&self, keys: &Col, vals: &Col) -> Result<(Col, Col, Col)> {
        // Delegate (rather than use the trait default) so an inner
        // backend's fused override is preserved under the wrapper.
        self.run("grouped_sum_count", || {
            self.inner.grouped_sum_count(keys, vals)
        })
    }

    fn filter_sum_product(&self, a: &Col, b: &Col, preds: &[Pred<'_>]) -> Result<f64> {
        self.run("filter_sum_product", || {
            self.inner.filter_sum_product(a, b, preds)
        })
    }

    fn fused_map(&self, inputs: &[&Col], expr: &crate::fused::FusedExpr) -> Result<Col> {
        // Delegate (rather than use the trait default) so an inner
        // backend's single-pass override is preserved under the wrapper.
        self.run("fused_map", || self.inner.fused_map(inputs, expr))
    }

    fn fused_filter_agg(
        &self,
        inputs: &[&Col],
        preds: &[crate::fused::FusedPred],
        expr: &crate::fused::FusedExpr,
    ) -> Result<f64> {
        self.run("fused_filter_agg", || {
            self.inner.fused_filter_agg(inputs, preds, expr)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        assert_eq!(backoff(0).as_nanos(), 50_000);
        assert_eq!(backoff(1).as_nanos(), 100_000);
        assert_eq!(backoff(2).as_nanos(), 200_000);
        assert_eq!(backoff(30).as_nanos(), MAX_BACKOFF_NS);
        assert_eq!(backoff(u32::MAX).as_nanos(), MAX_BACKOFF_NS);
    }

    #[test]
    fn retry_policy_classification() {
        assert!(wants_retry(&SimError::DeviceLost("k".into())));
        assert!(wants_retry(&SimError::TransferTimeout { bytes: 8 }));
        assert!(wants_retry(&SimError::OutOfMemory {
            requested: 1,
            available: 0,
        }));
        assert!(!wants_retry(&SimError::Unsupported("x".into())));
    }
}
