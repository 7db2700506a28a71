//! E21 — cost-model calibration: predicted vs. simulated per candidate,
//! and the costed planner's dispatch/join picks.
fn main() {
    bench::experiments::emit_serial(&["E21"], &bench::paper_framework(), &Default::default());
}
