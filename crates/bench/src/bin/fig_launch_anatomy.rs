//! E15 — kernel launches per operator call, the quantified Table II.
//! `--csv DIR` also writes `E15.csv`.
fn main() {
    let csv = bench::report::parse_args("fig_launch_anatomy", &["--csv"]).csv;
    let fw = bench::paper_framework();
    let exp = bench::experiments::run_serial("E15", &fw, &Default::default()).remove(0);
    // The interesting columns here are launches, not time; print both.
    println!("## E15 — kernel launches per operator call (2^20 rows)");
    let ops = [
        "selection",
        "conjunction(2)",
        "product",
        "reduction",
        "prefix_sum",
        "sort",
        "sort_by_key",
        "grouped_sum",
        "gather",
        "scatter",
    ];
    print!("{:<16}", "operator");
    for b in exp.backends() {
        print!(" {:>16}", b);
    }
    println!();
    for (i, name) in ops.iter().enumerate() {
        print!("{:<16}", name);
        for b in exp.backends() {
            match exp.get(b, i as u64) {
                Some(s) => print!(" {:>16}", s.launches),
                None => print!(" {:>16}", "–"),
            }
        }
        println!();
    }
    bench::report::write_csv(&exp, csv.as_deref());
}
