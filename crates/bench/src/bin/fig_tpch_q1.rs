//! E11 — TPC-H Q1 per backend across scale factors (validates first).
fn main() {
    let fw = bench::paper_framework();
    bench::queries::validate_all(&fw, &tpch::generate(0.001)).expect("validation");
    bench::experiments::emit_serial(&["E11"], &fw, &Default::default());
}
