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
use tpch::queries::{q1, q14, q3, q4, q5, q6};
use tpch::Database;

use crate::sched::{merge_x_major, Part};

/// Scale factors (×1000, for integer x-axes) the query experiments sweep.
pub(crate) fn default_scale_factors() -> Vec<f64> {
    vec![0.001, 0.005, 0.01]
}

fn sf_x(sf: f64) -> u64 {
    (sf * 1000.0).round() as u64
}

/// E10 part — one backend's Q6 samples, one per scale factor.
pub(crate) fn e10_part(b: &dyn GpuBackend, sfs: &[f64]) -> Part {
    let mut part = Part::new();
    for &sf in sfs {
        let db = tpch::cached(sf);
        let data = q6::Q6Data::upload(b, &db).expect("upload");
        let s = measure_query(b, sf_x(sf), || data.execute(b).map(drop));
        data.free(b).expect("free");
        part.push(vec![s]);
    }
    part
}

/// E11 part — one backend's Q1 samples, one per scale factor.
pub(crate) fn e11_part(b: &dyn GpuBackend, sfs: &[f64]) -> Part {
    let mut part = Part::new();
    for &sf in sfs {
        let db = tpch::cached(sf);
        let data = q1::Q1Data::upload(b, &db).expect("upload");
        let s = measure_query(b, sf_x(sf), || data.execute(b).map(drop));
        data.free(b).expect("free");
        part.push(vec![s]);
    }
    part
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
        let db = tpch::cached(sf);
        let d3 = q3::Q3Data::upload(b, &db).expect("upload");
        parts[0].push(vec![measure_query(b, sf_x(sf), || {
            d3.execute(b, &db).map(drop)
        })]);
        d3.free(b).expect("free");
        let d4 = q4::Q4Data::upload(b, &db).expect("upload");
        parts[1].push(vec![measure_query(b, sf_x(sf), || d4.execute(b).map(drop))]);
        d4.free(b).expect("free");
        let d14 = q14::Q14Data::upload(b, &db).expect("upload");
        parts[2].push(vec![measure_query(b, sf_x(sf), || {
            d14.execute(b).map(drop)
        })]);
        d14.free(b).expect("free");
        let d5 = q5::Q5Data::upload(b, &db).expect("upload");
        parts[3].push(vec![measure_query(b, sf_x(sf), || d5.execute(b).map(drop))]);
        d5.free(b).expect("free");
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
    let r6 = q6::reference(db);
    let r1 = q1::reference(db);
    let r3 = q3::reference(db);
    let r4 = q4::reference(db);
    let d6 = q6::Q6Data::upload(b, db).map_err(|e| e.to_string())?;
    let got = d6.execute(b).map_err(|e| e.to_string())?;
    if !tpch::queries::close(got, r6) {
        return Err(format!("{} Q6 mismatch: {got} vs {r6}", b.name()));
    }
    let d1 = q1::Q1Data::upload(b, db).map_err(|e| e.to_string())?;
    let rows = d1.execute(b).map_err(|e| e.to_string())?;
    if rows.len() != r1.len() {
        return Err(format!("{} Q1 row-count mismatch", b.name()));
    }
    if tpch::queries::can_join(b) {
        let d3 = q3::Q3Data::upload(b, db).map_err(|e| e.to_string())?;
        let rows = d3.execute(b, db).map_err(|e| e.to_string())?;
        if rows.len() != r3.len() {
            return Err(format!("{} Q3 row-count mismatch", b.name()));
        }
        let d4 = q4::Q4Data::upload(b, db).map_err(|e| e.to_string())?;
        let rows = d4.execute(b).map_err(|e| e.to_string())?;
        if rows != r4 {
            return Err(format!("{} Q4 mismatch", b.name()));
        }
        let d14 = q14::Q14Data::upload(b, db).map_err(|e| e.to_string())?;
        let pct = d14.execute(b).map_err(|e| e.to_string())?;
        if !tpch::queries::close(pct, q14::reference(db)) {
            return Err(format!("{} Q14 mismatch", b.name()));
        }
        let d5 = q5::Q5Data::upload(b, db).map_err(|e| e.to_string())?;
        let rows = d5.execute(b).map_err(|e| e.to_string())?;
        if rows.len() != q5::reference(db).len() {
            return Err(format!("{} Q5 row-count mismatch", b.name()));
        }
    }
    Ok(())
}

/// Validate every backend's query answers against the host reference on a
/// given database — run by the query binaries before timing, so a table
/// is never printed from wrong results.
pub fn validate_all(fw: &proto_core::framework::Framework, db: &Database) -> Result<(), String> {
    for b in fw.backends() {
        validate_backend(b.as_ref(), db)?;
    }
    Ok(())
}

fn measure_query(
    backend: &dyn proto_core::backend::GpuBackend,
    x: u64,
    mut work: impl FnMut() -> gpu_sim::Result<()>,
) -> Sample {
    match proto_core::runner::measure(backend, x, &mut work) {
        Ok(s) => s,
        Err(gpu_sim::SimError::Unsupported(_)) => Sample {
            backend: backend.name().to_string(),
            x,
            nanos: 0,
            cold_nanos: 0,
            launches: 0,
            kernel_bytes: 0,
        },
        Err(e) => panic!("query measurement failed: {e}"),
    }
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
