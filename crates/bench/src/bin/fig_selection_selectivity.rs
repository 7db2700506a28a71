//! E4 — selection runtime vs. selectivity at 2^20 rows.
fn main() {
    bench::experiments::emit_serial(&["E4"], &bench::paper_framework(), &Default::default());
}
