//! E17 — Q6 throughput degradation vs. injected transient-fault rate,
//! per backend and data size, with resilient (retry + backoff) execution.
//! `--csv DIR` also writes `E17.csv` and `E17b.csv`.
use bench::grid::GridConfig;

fn main() {
    let csv = bench::report::parse_args("fig_fault_resilience", &["--csv"]).csv;
    let fw = bench::paper_framework();
    for (suffix, sf) in [("", 0.01), ("b", 0.05)] {
        let cfg = GridConfig {
            e17_sf: sf,
            ..GridConfig::default()
        };
        for mut exp in bench::experiments::run_serial("E17", &fw, &cfg) {
            exp.id = format!("E17{suffix}");
            exp.title = format!("{} (SF {sf})", exp.title);
            println!("{}", exp.render());
            bench::report::write_csv(&exp, csv.as_deref());
        }
    }
}
