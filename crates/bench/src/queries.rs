//! Whole-query experiments (E10–E12): TPC-H on every backend.
//!
//! Structured like `crate::operators`: per-backend part functions run one
//! backend's cells in serial order, and their rows in
//! [`crate::experiments::TABLE`] merge the parts back into the serial
//! emission order. TPC-H databases come
//! from [`tpch::cached`], so one generation per scale factor serves
//! E10/E11/E12, validation and the extension experiments — the serial
//! path used to regenerate each scale factor three times.

use proto_core::backend::GpuBackend;
use proto_core::runner::{Experiment, Sample};
use tpch::queries::{q1::Q1, q14::Q14, q3::Q3, q4::Q4, q5::Q5, q6::Q6, Query, QueryData};
use tpch::Database;

use crate::experiments::{merge_x_major, Part};

/// Scale factors (×1000, for integer x-axes) the query experiments sweep.
pub(crate) fn default_scale_factors() -> Vec<f64> {
    vec![0.001, 0.005, 0.01]
}

fn sf_x(sf: f64) -> u64 {
    (sf * 1000.0).round() as u64
}

/// One backend's sample of query `Q` at `sf`: upload, measure, free.
/// Only backends that can run `Q` measure it (E12 skips join-less ones).
fn sample<Q: Query>(b: &dyn GpuBackend, sf: f64) -> Sample {
    let db = tpch::cached(sf);
    let data = QueryData::<Q>::upload(b, &db).expect("upload");
    let s = proto_core::runner::measure(b, sf_x(sf), || data.execute(b).map(drop))
        .unwrap_or_else(|e| panic!("{} measurement failed: {e}", Q::NAME));
    data.free(b).expect("free");
    s
}

/// E10 (Q6) / E11 (Q1) part — one backend's samples of `Q`, one per
/// scale factor.
pub(crate) fn part<Q: Query>(b: &dyn GpuBackend, sfs: &[f64]) -> Part {
    sfs.iter().map(|&sf| vec![sample::<Q>(b, sf)]).collect()
}

/// E12 part — one backend's samples for the four join-bearing queries,
/// as `[Q3, Q4, Q14, Q5]` parts. Join-incapable backends contribute
/// empty parts (they are skipped entirely, as in the serial sweep).
pub(crate) fn e12_part(b: &dyn GpuBackend, sfs: &[f64]) -> [Part; 4] {
    let mut parts: [Part; 4] = Default::default();
    if !tpch::queries::can_join(b) {
        return parts;
    }
    for &sf in sfs {
        parts[0].push(vec![sample::<Q3>(b, sf)]);
        parts[1].push(vec![sample::<Q4>(b, sf)]);
        parts[2].push(vec![sample::<Q14>(b, sf)]);
        parts[3].push(vec![sample::<Q5>(b, sf)]);
    }
    parts
}

/// Assemble the four E12 experiments from per-backend parts.
pub(crate) fn e12_assemble(parts: Vec<[Part; 4]>) -> Vec<Experiment> {
    let titles = [
        ("E12a", "TPC-H Q3 runtime vs. scale factor (x = SF·1000)"),
        ("E12b", "TPC-H Q4 runtime vs. scale factor (x = SF·1000)"),
        ("E12c", "TPC-H Q14 runtime vs. scale factor (x = SF·1000)"),
        ("E12d", "TPC-H Q5 runtime vs. scale factor (x = SF·1000)"),
    ];
    titles
        .iter()
        .enumerate()
        .map(|(i, (id, title))| {
            let mut exp = Experiment::new(id, title, "sf_x1000");
            exp.samples = merge_x_major(parts.iter().map(|p| p[i].clone()).collect());
            exp
        })
        .collect()
}

/// Validate one backend's query answers against the host reference —
/// the per-backend body of [`validate_all`].
pub(crate) fn validate_backend(b: &dyn GpuBackend, db: &Database) -> Result<(), String> {
    validate::<Q6>(b, db)?;
    validate::<Q1>(b, db)?;
    if tpch::queries::can_join(b) {
        validate::<Q3>(b, db)?;
        validate::<Q4>(b, db)?;
        validate::<Q14>(b, db)?;
        validate::<Q5>(b, db)?;
    }
    Ok(())
}

/// Run `Q` on `b` and compare its whole answer with the host reference.
/// The working set stays resident: the lane's later experiments run on
/// this device, and their simulated times include its pool state.
fn validate<Q: Query>(b: &dyn GpuBackend, db: &Database) -> Result<(), String> {
    let data = QueryData::<Q>::upload(b, db).map_err(|e| e.to_string())?;
    let got = data.execute(b).map_err(|e| e.to_string())?;
    check::<Q>(b, &got, &(Q::REFERENCE)(db))
}

/// `Ok` when `got` is the reference answer `want` ([`Query::matches`]).
fn check<Q: Query>(b: &dyn GpuBackend, got: &Q::Answer, want: &Q::Answer) -> Result<(), String> {
    if Q::matches(got, want) {
        Ok(())
    } else {
        Err(format!("{} {} mismatch", b.name(), Q::NAME))
    }
}

/// Validate every backend's query answers against the host reference on a
/// given database: `validate_backend` on each of `fw`'s backends (the
/// grid's `validate` section runs it per lane, before E10–E12 time them).
pub fn validate_all(fw: &proto_core::framework::Framework, db: &Database) -> Result<(), String> {
    for b in fw.backends() {
        validate_backend(b.as_ref(), db)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_serial;
    use crate::paper_framework;
    use crate::traced::lint_config;

    #[test]
    fn e10_q6_shapes() {
        let exp = crate::experiments::serial("E10", lint_config());
        let x = 1;
        let hw = exp.get("Handwritten", x).unwrap().nanos;
        let th = exp.get("Thrust", x).unwrap().nanos;
        let bo = exp.get("Boost.Compute", x).unwrap().nanos;
        assert!(hw < th, "fused Q6 beats Thrust chain: {hw} vs {th}");
        assert!(th <= bo, "CUDA launches beat OpenCL enqueues: {th} vs {bo}");
        // Cold run carries the JIT cost for Boost.Compute.
        let s = exp.get("Boost.Compute", x).unwrap();
        assert!(s.cold_nanos > s.nanos);
    }

    #[test]
    fn e12_excludes_arrayfire() {
        let exps = run_serial("E12", &paper_framework(), &lint_config());
        assert_eq!(exps.len(), 4);
        for e in &exps {
            assert!(!e.backends().contains(&"ArrayFire"), "{}", e.id);
            assert!(e.backends().contains(&"Handwritten"));
        }
    }

    #[test]
    fn validation_passes_on_the_default_lineup() {
        let fw = paper_framework();
        let db = tpch::cached(0.001);
        validate_all(&fw, &db).expect("all backends validate");
    }

    /// A Q1 answer with the right groups but one wrong sum — what the
    /// former row-count check let through — is refused.
    #[test]
    fn a_corrupted_q1_sum_is_refused() {
        let fw = paper_framework();
        let b = fw.backend("Thrust").unwrap();
        let db = tpch::cached(0.001);
        let want = tpch::queries::q1::reference(&db);
        let mut got = want.clone();
        assert_eq!(check::<Q1>(b, &got, &want), Ok(()));
        got[0].sum_charge *= 1.0 + 1e-6;
        assert_eq!(got.len(), want.len());
        assert_eq!(
            check::<Q1>(b, &got, &want),
            Err("Thrust Q1 mismatch".to_string())
        );
    }

    #[test]
    fn cached_database_is_the_generated_database() {
        let fresh = tpch::generate(0.001);
        let cached = tpch::cached(0.001);
        assert_eq!(fresh.lineitem.quantity, cached.lineitem.quantity);
        assert_eq!(fresh.orders.orderdate, cached.orders.orderdate);
        // Two requests share one allocation.
        assert!(std::sync::Arc::ptr_eq(
            &tpch::cached(0.001),
            &tpch::cached(0.001)
        ));
    }
}
