//! `gpu_lint` — replay experiments on tracing backends and statically
//! analyze what they leave: device traces (buffer lifetimes, GL0xx) and
//! the TPC-H plans' cost reports (memory budgets, GL6xx).
//!
//! ```text
//! gpu_lint [EXPERIMENT ...] [--deny-warnings] [--timeline] [--dump]
//! ```
//!
//! With no experiment ids, lints the full grid (see
//! `bench::traced::EXPERIMENTS`) plus one costed plan target per TPC-H
//! query × backend (`bench::plan_lint::translation_reports`).
//! Exits nonzero if any `Severity::Error` diagnostic fires — or any
//! warning, under `--deny-warnings`. `--timeline` prints an annotated
//! timeline for every unclean trace; `--dump` prints every event of
//! every unclean trace with its index (for diagnosing findings). An
//! unknown flag or experiment id is one line on stderr and exit code 2
//! before anything runs.

use gpu_lint::Report;

const USAGE: &str = "usage: gpu_lint [EXPERIMENT ...] [--deny-warnings] [--timeline] [--dump]";

/// Report a bad command line on one stderr line and exit with code 2.
fn reject(msg: &str) -> ! {
    eprintln!("gpu_lint: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut deny_warnings = false;
    let mut timeline = false;
    let mut dump = false;
    let mut wanted: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--timeline" => timeline = true,
            "--dump" => dump = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("experiments: {}", bench::traced::EXPERIMENTS.join(", "));
                return;
            }
            flag if flag.starts_with('-') => {
                reject(&format!("unknown argument `{flag}` ({USAGE})"))
            }
            other => wanted.push(other.to_string()),
        }
    }
    let experiments: Vec<&str> = if wanted.is_empty() {
        bench::traced::EXPERIMENTS.to_vec()
    } else {
        wanted.iter().map(String::as_str).collect()
    };
    if let Some(bad) = experiments
        .iter()
        .find(|e| !bench::traced::EXPERIMENTS.contains(e))
    {
        reject(&format!(
            "unknown experiment `{bad}` (experiments: {})",
            bench::traced::EXPERIMENTS.join(", ")
        ));
    }

    let cfg = bench::traced::lint_config();
    let waivers = bench::traced::golden_waivers();
    let mut waived = 0;
    let mut reports: Vec<Report> = Vec::new();
    for exp in &experiments {
        for cell in bench::traced::traced_experiment(&cfg, exp) {
            let mut report = gpu_lint::lint_trace(&cell.label, &cell.trace);
            waived += report.waive(&waivers);
            if timeline && !report.is_clean() {
                print!(
                    "{}",
                    gpu_lint::annotated_timeline(&cell.trace, &report.diagnostics)
                );
            }
            if dump && !report.is_clean() {
                for (i, e) in cell.trace.iter().enumerate() {
                    println!("#{i}: {}", e.kind.label());
                }
            }
            reports.push(report);
        }
    }
    if wanted.is_empty() {
        reports.extend(bench::plan_lint::translation_reports());
    }

    let mut errors = 0;
    let mut warnings = 0;
    for r in &reports {
        errors += r.errors();
        warnings += r.warnings();
        if r.is_clean() {
            println!("{}: clean", r.target);
        } else {
            print!("{}", r.render());
        }
    }
    println!(
        "gpu_lint: {} target(s), {errors} error(s), {warnings} warning(s), {waived} waived",
        reports.len()
    );
    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
