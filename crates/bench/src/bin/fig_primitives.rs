//! E7 — parallel-primitive panel (reduction, prefix sum, gather, scatter,
//! product) vs. rows.
fn main() {
    bench::experiments::emit_serial(&["E7"], &bench::paper_framework(), &Default::default());
}
