//! E13 — Q6 device-resident vs. transfer-inclusive, per backend.
fn main() {
    bench::experiments::emit_serial(&["E13"], &bench::paper_framework(), &Default::default());
}
