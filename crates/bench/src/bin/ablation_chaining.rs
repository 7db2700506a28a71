//! A1 — selection anatomy: kernel launches & device traffic per backend.
fn main() {
    bench::experiments::emit_serial(&["A1"], &bench::paper_framework(), &Default::default());
}
