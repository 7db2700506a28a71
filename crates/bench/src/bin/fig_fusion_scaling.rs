//! E20 — general operator fusion: composed chain vs. fused single-pass kernel.
fn main() {
    bench::experiments::emit_serial(&["E20"], &bench::paper_framework(), &Default::default());
}
