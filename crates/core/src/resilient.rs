//! Fault-tolerant execution: retries, batch splitting and fallbacks.
//!
//! The simulated device can inject transient faults ([`gpu_sim::FaultPlan`])
//! at every allocation, transfer and kernel launch. This module is the
//! recovery side: it turns those faults back into completed queries.
//!
//! Three mechanisms, layered:
//!
//! 1. [`ResilientBackend`] wraps any [`GpuBackend`] and re-issues each
//!    failed operator with exponential backoff ([`RetryPolicy`]). Backoff
//!    is charged to the *simulated* clock via
//!    [`Device::note_retry`](gpu_sim::Device::note_retry), so resilience
//!    overhead shows up in measured timings exactly like it would on real
//!    hardware.
//! 2. [`ResilientExecutor`] runs whole host-level operators. When a
//!    backend keeps running out of memory it **splits the batch** —
//!    chunks the operator's input, runs each chunk independently, and
//!    merges the partial results.
//! 3. When retries and splitting cannot save an operator (or the backend
//!    simply does not support it), the executor **falls back** along a
//!    backend chain, by convention ending at the handwritten baseline —
//!    graceful degradation from the convenient library to the reliable
//!    custom kernel.
//!
//! Every recovery action is recorded in
//! [`DeviceStats`](gpu_sim::DeviceStats) (`retries`, `batch_splits`,
//! `fallbacks`) and in the device trace, so experiments can report *how
//! much* resilience machinery a workload exercised.
//!
//! With no fault plan installed the wrapper is free: one straight-through
//! call per operator and zero extra simulated time.

use crate::backend::{Col, GpuBackend, Pred};
use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use gpu_sim::{Device, Result, SimDuration, SimError};
use std::sync::Arc;

/// Bounded-retry policy with exponential backoff.
///
/// `attempt` 0 is the first *re*-issue; its backoff is
/// `base_backoff_ns`, doubling (by `multiplier`) per further attempt and
/// saturating at `max_backoff_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of re-issues per operator call (0 disables retry).
    pub max_retries: u32,
    /// Backoff before the first retry, in simulated nanoseconds.
    pub base_backoff_ns: u64,
    /// Backoff growth factor between consecutive retries.
    pub multiplier: u64,
    /// Ceiling on a single backoff, in simulated nanoseconds.
    pub max_backoff_ns: u64,
    /// Whether `OutOfMemory` is retried. Transient memory pressure
    /// (another tenant's allocation spike) looks identical to a genuine
    /// capacity miss, so the *policy* decides; see
    /// [`SimError::is_transient`] for why the error itself cannot.
    pub retry_oom: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_backoff_ns: 50_000,
            multiplier: 2,
            max_backoff_ns: 10_000_000,
            retry_oom: true,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (errors propagate on first failure).
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Backoff charged before re-issue number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let mut ns = self.base_backoff_ns;
        for _ in 0..attempt {
            ns = ns.saturating_mul(self.multiplier);
            if ns >= self.max_backoff_ns {
                ns = self.max_backoff_ns;
                break;
            }
        }
        SimDuration::from_nanos(ns.min(self.max_backoff_ns))
    }

    /// Whether `err` is worth re-issuing under this policy.
    pub fn wants_retry(&self, err: &SimError) -> bool {
        err.is_transient() || (self.retry_oom && matches!(err, SimError::OutOfMemory { .. }))
    }
}

/// A [`GpuBackend`] decorator that retries transient failures.
///
/// Every operator call runs in a bounded retry loop: transient errors
/// (and, by default, out-of-memory) are re-issued after an exponential
/// backoff charged to the simulated clock. The wrapper reports the inner
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
    /// Wrap `inner` with the default [`RetryPolicy`].
    pub fn new(inner: Box<dyn GpuBackend>) -> Self {
        Self::with_policy(inner, RetryPolicy::default())
    }

    /// Wrap `inner` with an explicit policy.
    pub fn with_policy(inner: Box<dyn GpuBackend>, policy: RetryPolicy) -> Self {
        ResilientBackend { inner, policy }
    }

    /// The active retry policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &dyn GpuBackend {
        self.inner.as_ref()
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
/// to `device`'s simulated clock (via
/// [`Device::note_retry`](gpu_sim::Device::note_retry)).
///
/// This is the single retry primitive the whole crate shares:
/// [`ResilientBackend`] routes every operator call through it, and
/// [`ResilientPlanExecutor`](crate::resilient_plan::ResilientPlanExecutor)
/// stages partition windows under it.
pub fn retry_with_policy<T>(
    device: &Device,
    policy: &RetryPolicy,
    what: &str,
    f: impl Fn() -> Result<T>,
) -> Result<T> {
    let mut attempt = 0;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < policy.max_retries && policy.wants_retry(&e) => {
                device.note_retry(what, policy.backoff(attempt));
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

/// Host-level resilient operator executor.
///
/// Owns a **fallback chain** of (retry-wrapped) backends, tried in order.
/// Each operator attempt may additionally be **batch-split**: when a
/// backend runs out of memory even after retries, the input is chunked,
/// each chunk executed independently, and the partial results merged on
/// the host. Chunks halve (down to [`min_chunk`](Self::set_min_chunk))
/// until the operator fits; only when splitting is exhausted does the
/// executor fall back to the next backend in the chain.
#[derive(Debug)]
pub struct ResilientExecutor {
    chain: Vec<ResilientBackend>,
    min_chunk: usize,
}

impl ResilientExecutor {
    /// Build from a fallback chain (first entry = preferred backend),
    /// wrapping every backend with the default retry policy.
    pub fn new(chain: Vec<Box<dyn GpuBackend>>) -> Self {
        Self::with_policy(chain, RetryPolicy::default())
    }

    /// Build with an explicit retry policy applied to every chain entry.
    pub fn with_policy(chain: Vec<Box<dyn GpuBackend>>, policy: RetryPolicy) -> Self {
        assert!(!chain.is_empty(), "executor needs at least one backend");
        ResilientExecutor {
            chain: chain
                .into_iter()
                .map(|b| ResilientBackend::with_policy(b, policy))
                .collect(),
            min_chunk: 1024,
        }
    }

    /// Convenience: primary backend with one fallback.
    pub fn with_fallback(primary: Box<dyn GpuBackend>, fallback: Box<dyn GpuBackend>) -> Self {
        Self::new(vec![primary, fallback])
    }

    /// Smallest chunk size batch splitting will go down to.
    pub fn set_min_chunk(&mut self, min_chunk: usize) {
        self.min_chunk = min_chunk.max(1);
    }

    /// The wrapped backend chain, preferred first.
    pub fn chain(&self) -> &[ResilientBackend] {
        &self.chain
    }

    /// Drive one operator through the chain with batch splitting.
    ///
    /// `attempt(backend, chunk_rows)` must execute the whole operator,
    /// internally partitioning its input into `chunk_rows`-sized pieces
    /// and merging the partials. On `OutOfMemory` the chunk size halves
    /// (counted via [`Device::note_batch_split`]); on any other failure —
    /// or once splitting bottoms out — the executor moves to the next
    /// backend (counted via [`Device::note_fallback`]).
    fn run_partitioned<T>(
        &self,
        what: &str,
        rows: usize,
        attempt: impl Fn(&ResilientBackend, usize) -> Result<T>,
    ) -> Result<T> {
        let mut last_err = None;
        for (i, backend) in self.chain.iter().enumerate() {
            let mut chunk = rows.max(1);
            let err = loop {
                match attempt(backend, chunk) {
                    Ok(v) => return Ok(v),
                    Err(e) => {
                        let splittable =
                            matches!(e, SimError::OutOfMemory { .. }) && chunk > self.min_chunk;
                        if splittable {
                            chunk = (chunk / 2).max(self.min_chunk);
                            backend
                                .device()
                                .note_batch_split(what, rows.max(1).div_ceil(chunk));
                        } else {
                            break e;
                        }
                    }
                }
            };
            if let Some(next) = self.chain.get(i + 1) {
                backend.device().note_fallback(backend.name(), next.name());
            }
            last_err = Some(err);
        }
        Err(last_err.expect("chain is non-empty"))
    }

    /// Resilient selection: ascending row ids where `cmp(data, lit)`.
    pub fn selection(&self, data: &[u32], cmp: CmpOp, lit: f64) -> Result<Vec<u32>> {
        if data.is_empty() {
            return Ok(Vec::new());
        }
        self.run_partitioned("selection", data.len(), |b, chunk| {
            let mut out = Vec::new();
            for (part_idx, part) in data.chunks(chunk).enumerate() {
                let base = (part_idx * chunk) as u32;
                let col = b.upload_u32(part)?;
                let ids = guard(b, &col, |b| b.selection(&col, cmp, lit))?;
                let host = guard(b, &ids, |b| b.download_u32(&ids));
                b.free(ids)?;
                b.free(col)?;
                out.extend(host?.into_iter().map(|i| i + base));
            }
            Ok(out)
        })
    }

    /// Resilient grouped SUM: `(distinct keys ascending, per-key sums)`.
    ///
    /// Chunked execution merges per-chunk partial sums on the host. Note
    /// that splitting reassociates the floating-point additions; sums are
    /// bit-identical across chunkings only when the values are exactly
    /// representable (e.g. integers below 2^53).
    pub fn grouped_sum(&self, keys: &[u32], vals: &[f64]) -> Result<(Vec<u32>, Vec<f64>)> {
        if keys.len() != vals.len() {
            return Err(SimError::SizeMismatch {
                left: keys.len(),
                right: vals.len(),
            });
        }
        if keys.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        self.run_partitioned("grouped_sum", keys.len(), |b, chunk| {
            let mut acc: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
            for (kpart, vpart) in keys.chunks(chunk).zip(vals.chunks(chunk)) {
                let kcol = b.upload_u32(kpart)?;
                let vcol = guard(b, &kcol, |b| b.upload_f64(vpart))?;
                let pair = b.grouped_sum(&kcol, &vcol);
                b.free(kcol)?;
                b.free(vcol)?;
                let (gk, sums) = pair?;
                let hk = guard2(b, &gk, &sums, |b| b.download_u32(&gk))?;
                let hs = guard2(b, &gk, &sums, |b| b.download_f64(&sums));
                b.free(gk)?;
                b.free(sums)?;
                for (k, s) in hk.into_iter().zip(hs?) {
                    *acc.entry(k).or_insert(0.0) += s;
                }
            }
            Ok(acc.into_iter().unzip())
        })
    }

    /// Resilient equi hash join: matched `(outer_row, inner_row)` pairs
    /// ordered by `(outer, inner)`.
    ///
    /// The build side (`inner`) stays whole; batch splitting chunks the
    /// probe side (`outer`), exactly like an out-of-core probe pipeline.
    /// Library backends report hash join unsupported, so a chain ending
    /// in the handwritten baseline degrades there gracefully.
    pub fn hash_join(&self, outer: &[u32], inner: &[u32]) -> Result<(Vec<u32>, Vec<u32>)> {
        if outer.is_empty() || inner.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        self.run_partitioned("hash_join", outer.len(), |b, chunk| {
            let icol = b.upload_u32(inner)?;
            let res = (|| {
                let mut out_ids = Vec::new();
                let mut inner_ids = Vec::new();
                for (part_idx, part) in outer.chunks(chunk).enumerate() {
                    let base = (part_idx * chunk) as u32;
                    let ocol = b.upload_u32(part)?;
                    let pair = b.join(&ocol, &icol, JoinAlgo::Hash);
                    b.free(ocol)?;
                    let (oc, ic) = pair?;
                    let ho = guard2(b, &oc, &ic, |b| b.download_u32(&oc))?;
                    let hi = guard2(b, &oc, &ic, |b| b.download_u32(&ic));
                    b.free(oc)?;
                    b.free(ic)?;
                    out_ids.extend(ho.into_iter().map(|i| i + base));
                    inner_ids.extend(hi?);
                }
                Ok((out_ids, inner_ids))
            })();
            b.free(icol)?;
            res
        })
    }
}

/// Run `f`, freeing `col` on the backend before propagating an error —
/// keeps failed attempts from leaking device columns across retries.
fn guard<T>(
    b: &ResilientBackend,
    col: &Col,
    f: impl FnOnce(&ResilientBackend) -> Result<T>,
) -> Result<T> {
    match f(b) {
        Ok(v) => Ok(v),
        Err(e) => {
            let _ = b.free(Col::from_raw(
                col.raw_id(),
                col.dtype(),
                col.len(),
                b.name(),
            ));
            Err(e)
        }
    }
}

/// Two-column variant of [`guard`].
fn guard2<T>(
    b: &ResilientBackend,
    c1: &Col,
    c2: &Col,
    f: impl FnOnce(&ResilientBackend) -> Result<T>,
) -> Result<T> {
    match f(b) {
        Ok(v) => Ok(v),
        Err(e) => {
            let _ = b.free(Col::from_raw(c1.raw_id(), c1.dtype(), c1.len(), b.name()));
            let _ = b.free(Col::from_raw(c2.raw_id(), c2.dtype(), c2.len(), b.name()));
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{HandwrittenBackend, ThrustBackend};
    use gpu_sim::{Device, FaultPlan};

    fn ref_selection(data: &[u32], lit: u32) -> Vec<u32> {
        data.iter()
            .enumerate()
            .filter(|(_, &v)| v > lit)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0).as_nanos(), 50_000);
        assert_eq!(p.backoff(1).as_nanos(), 100_000);
        assert_eq!(p.backoff(2).as_nanos(), 200_000);
        assert_eq!(p.backoff(30).as_nanos(), p.max_backoff_ns);
    }

    #[test]
    fn retry_policy_classification() {
        let p = RetryPolicy::default();
        assert!(p.wants_retry(&SimError::DeviceLost("k".into())));
        assert!(p.wants_retry(&SimError::TransferTimeout { bytes: 8 }));
        assert!(p.wants_retry(&SimError::OutOfMemory {
            requested: 1,
            available: 0,
        }));
        assert!(!p.wants_retry(&SimError::Unsupported("x".into())));
        let no_oom = RetryPolicy {
            retry_oom: false,
            ..p
        };
        assert!(!no_oom.wants_retry(&SimError::OutOfMemory {
            requested: 1,
            available: 0,
        }));
    }

    #[test]
    fn resilient_backend_retries_through_faults() {
        let dev = Device::with_defaults();
        dev.install_fault_plan(FaultPlan::uniform(42, 0.10));
        let b = ResilientBackend::new(Box::new(ThrustBackend::new(&dev)));
        let data: Vec<u32> = (0..4096).map(|i| i * 7 % 1000).collect();
        let col = b.upload_u32(&data).unwrap();
        let ids = b.selection(&col, CmpOp::Gt, 500.0).unwrap();
        let got = b.download_u32(&ids).unwrap();
        assert_eq!(got, ref_selection(&data, 500));
        assert!(dev.stats().retries > 0, "10% faults must trigger retries");
        assert!(dev.stats().faults_injected > 0);
    }

    #[test]
    fn zero_fault_rate_means_zero_overhead() {
        let run = |resilient: bool| {
            let dev = Device::with_defaults();
            let b: Box<dyn GpuBackend> = Box::new(ThrustBackend::new(&dev));
            let b: Box<dyn GpuBackend> = if resilient {
                Box::new(ResilientBackend::new(b))
            } else {
                b
            };
            let data: Vec<u32> = (0..8192).collect();
            let col = b.upload_u32(&data).unwrap();
            let ids = b.selection(&col, CmpOp::Ge, 100.0).unwrap();
            let _ = b.download_u32(&ids).unwrap();
            dev.now().as_nanos()
        };
        assert_eq!(run(true), run(false), "wrapper must be free without faults");
    }

    #[test]
    fn executor_splits_batches_on_persistent_oom() {
        // A tiny device: the full upload cannot fit, halves eventually do.
        let mut spec = gpu_sim::DeviceSpec::gtx1080();
        spec.global_mem_bytes = 48 * 1024;
        let dev = Device::new(spec);
        let mut ex = ResilientExecutor::new(vec![Box::new(ThrustBackend::new(&dev))]);
        ex.set_min_chunk(256);
        let data: Vec<u32> = (0..8192).map(|i| i % 100).collect();
        let got = ex.selection(&data, CmpOp::Gt, 50.0).unwrap();
        assert_eq!(got, ref_selection(&data, 50));
        assert!(dev.stats().batch_splits > 0, "{:?}", dev.stats());
    }

    #[test]
    fn executor_falls_back_on_unsupported_operator() {
        let d1 = Device::with_defaults();
        let d2 = Device::with_defaults();
        let ex = ResilientExecutor::with_fallback(
            Box::new(ThrustBackend::new(&d1)),
            Box::new(HandwrittenBackend::new(&d2)),
        );
        let outer = [1u32, 2, 3, 4, 2];
        let inner = [2u32, 4, 2];
        let (o, i) = ex.hash_join(&outer, &inner).unwrap();
        // Row 1 (key 2) matches inner rows 0 and 2; row 3 (key 4) matches
        // inner row 1; row 4 (key 2) matches inner rows 0 and 2.
        assert_eq!(o, vec![1, 1, 3, 4, 4]);
        assert_eq!(i, vec![0, 2, 1, 0, 2]);
        assert_eq!(d1.stats().fallbacks, 1, "Thrust cannot hash-join");
        assert_eq!(d2.stats().fallbacks, 0);
    }

    #[test]
    fn executor_grouped_sum_matches_reference_under_faults() {
        let dev = Device::with_defaults();
        dev.install_fault_plan(FaultPlan::uniform(7, 0.08));
        let fb = Device::with_defaults();
        let ex = ResilientExecutor::with_fallback(
            Box::new(ThrustBackend::new(&dev)),
            Box::new(HandwrittenBackend::new(&fb)),
        );
        let keys: Vec<u32> = (0..5000).map(|i| i % 13).collect();
        let vals: Vec<f64> = (0..5000).map(|i| f64::from(i % 97)).collect();
        let (gk, sums) = ex.grouped_sum(&keys, &vals).unwrap();
        let mut expect: std::collections::BTreeMap<u32, f64> = Default::default();
        for (k, v) in keys.iter().zip(&vals) {
            *expect.entry(*k).or_insert(0.0) += v;
        }
        assert_eq!(gk, expect.keys().copied().collect::<Vec<_>>());
        assert_eq!(sums, expect.values().copied().collect::<Vec<_>>());
    }

    #[test]
    fn empty_inputs_short_circuit() {
        let dev = Device::with_defaults();
        let ex = ResilientExecutor::new(vec![Box::new(ThrustBackend::new(&dev))]);
        assert_eq!(
            ex.selection(&[], CmpOp::Gt, 0.0).unwrap(),
            Vec::<u32>::new()
        );
        let (k, v) = ex.grouped_sum(&[], &[]).unwrap();
        assert!(k.is_empty() && v.is_empty());
        let (o, i) = ex.hash_join(&[], &[1]).unwrap();
        assert!(o.is_empty() && i.is_empty());
        assert_eq!(dev.stats().total_launches(), 0, "nothing should run");
    }
}
