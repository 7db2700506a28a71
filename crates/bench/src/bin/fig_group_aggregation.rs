//! E6 — grouped aggregation vs. group count at 2^20 rows.
fn main() {
    bench::experiments::emit_serial(&["E6"], &bench::paper_framework(), &Default::default());
}
