//! E12 — TPC-H Q3 and Q4 (join-bearing) per backend; ArrayFire cannot run
//! them (Table II: no join support).
fn main() {
    let fw = bench::paper_framework();
    bench::queries::validate_all(&fw, &tpch::generate(0.001)).expect("validation");
    bench::experiments::emit_serial(&["E12"], &fw, &Default::default());
}
