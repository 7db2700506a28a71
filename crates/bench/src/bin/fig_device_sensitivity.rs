//! E16 — device sensitivity: does the paper's backend ordering survive a
//! change of GPU? Reruns the E3 selection scaling point (2^20 rows) and
//! the E6 grouped-aggregation point (64 groups) on all three device
//! presets and reports the per-device ranking.

use bench::experiments::run_serial;
use bench::grid::GridConfig;
use proto_core::framework::Framework;
use proto_core::runner::{fmt_duration, Experiment};
use proto_core::workload::cache::Pin;
use std::sync::Arc;

fn main() {
    bench::report::parse_args("fig_device_sensitivity", &[]);
    let presets = [
        gpu_sim::DeviceSpec::integrated(),
        gpu_sim::DeviceSpec::gtx1080(),
        gpu_sim::DeviceSpec::server(),
    ];
    let point = GridConfig {
        sizes: vec![1 << 20],
        groups: vec![64],
        ..GridConfig::default()
    };
    println!("## E16 — backend ordering across device presets\n");
    // One pin across the presets: each point's columns are generated once.
    Arc::new(Pin::default()).scope(|| {
        for spec in presets {
            let fw = Framework::with_all_backends(&spec);
            let sel = run_serial("E3", &fw, &point).remove(0);
            let agg = run_serial("E6", &fw, &point).remove(0);
            println!("{}:", spec.name);
            print_ranking("selection ranking:   ", &sel, 1 << 20);
            print_ranking("grouped-sum ranking: ", &agg, 64);
            println!();
        }
    });
    println!(
        "The handwritten backend leads and Boost.Compute trails on every\n\
         preset: the paper's conclusions are not an artefact of one card."
    );
}

/// One line: `exp`'s backends at `x`, fastest first. Panics unless
/// Handwritten leads and Boost.Compute trails, the claim printed last.
fn print_ranking(label: &str, exp: &Experiment, x: u64) {
    let mut rank: Vec<(&str, u64)> = exp
        .backends()
        .into_iter()
        .map(|b| (b, exp.get(b, x).unwrap().nanos))
        .collect();
    rank.sort_by_key(|(_, t)| *t);
    let ends = (rank.first().map(|r| r.0), rank.last().map(|r| r.0));
    assert_eq!(
        ends,
        (Some("Handwritten"), Some("Boost.Compute")),
        "{label}{rank:?}"
    );
    let rank: Vec<String> = rank
        .iter()
        .map(|(b, t)| format!("{b} ({})", fmt_duration(*t)))
        .collect();
    println!("  {label}{}", rank.join("  <  "));
}
