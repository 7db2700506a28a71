//! A4 — early vs. late materialisation across selectivities (Thrust).
fn main() {
    bench::experiments::emit_serial(&["A4"], &bench::paper_framework(), &Default::default());
}
