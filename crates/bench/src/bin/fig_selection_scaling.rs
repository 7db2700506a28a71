//! E3 — selection runtime vs. rows (50% selectivity), all backends.
fn main() {
    bench::experiments::emit_serial(&["E3"], &bench::paper_framework(), &Default::default());
}
