//! E14 — multi-aggregate grouping: library composition vs. fused kernel.
fn main() {
    bench::experiments::emit_serial(&["E14"], &bench::paper_framework(), &Default::default());
}
