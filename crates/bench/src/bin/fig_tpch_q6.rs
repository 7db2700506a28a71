//! E10 — TPC-H Q6 per backend across scale factors (validates first).
fn main() {
    let fw = bench::paper_framework();
    bench::queries::validate_all(&fw, &tpch::generate(0.001)).expect("validation");
    bench::experiments::emit_serial(&["E10"], &fw, &Default::default());
}
