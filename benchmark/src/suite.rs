//! Every workload, each in a child process of its own, and the
//! `--check-repeat` comparison of two such rounds.

use crate::json::{self, Value};
use crate::registry::{self, WORKLOADS};
use crate::Cli;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Per-layer metrics that are counts of the deterministic simulation or
/// of fixed schedules: two runs of one build must agree on them exactly.
const EXACT_PREFIXES: [&str; 11] = [
    "sim.",
    "call.samples",
    "call.tail_level",
    "device.launches",
    "device.pool_hit_ratio",
    "device.trace_events",
    "physical.steps",
    "resilient_plan.retries",
    "resilient_plan.partitions",
    "resilient_plan.fallbacks",
    "sched.cells",
];

struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child and echo its report; `None` if the child
/// died or printed no result line.
fn run_child(cli: &Cli, workload: &str, trace: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(&cli.dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.bless && !trace {
        cmd.arg("--bless");
    }
    // `output` waits for the child: none outlives this function.
    let output = cmd.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop()?;
    println!(
        "== {workload} ({}) ==",
        if trace {
            "per-layer, traced"
        } else {
            "end-to-end"
        }
    );
    for l in &lines {
        println!("{l}");
    }
    let doc = json::parse(last).ok()?;
    let metrics = doc
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let correct = doc.get("correct") == Some(&Value::Bool(true)) && output.status.success();
    println!(
        "-> correct {correct}, attempted {}, failed {}",
        doc.get("attempted").and_then(Value::as_f64).unwrap_or(0.0),
        doc.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
    );
    Some(ChildResult { correct, metrics })
}

/// One round: every workload untraced, then (if asked) traced.
/// Returns `(all correct, metrics by (workload, name))`.
fn round(cli: &Cli, traced_too: bool) -> (bool, BTreeMap<(String, String), f64>) {
    let mut ok = true;
    let mut all = BTreeMap::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            if trace && !traced_too {
                continue;
            }
            match run_child(cli, w.name, trace) {
                Some(r) => {
                    ok &= r.correct;
                    all.extend(
                        r.metrics
                            .into_iter()
                            .map(|(k, v)| ((w.name.to_string(), k), v)),
                    );
                }
                None => {
                    println!("-> {} produced no result", w.name);
                    ok = false;
                }
            }
        }
    }
    (ok, all)
}

/// Compare two rounds of the same build the way a benchmark driver
/// compares two commits: an end-to-end metric fails when the second round
/// is *worse* than the first by more than its bound; simulated numbers and
/// counts fail unless exactly equal. `setup_s` is printed but not gated —
/// a driver exempts its spread for the same reason: one run's worth of
/// sub-second set-ups is the noisiest number here (`SPREAD.md`).
fn compare(a: &BTreeMap<(String, String), f64>, b: &BTreeMap<(String, String), f64>) -> bool {
    let gated: BTreeMap<String, (f64, bool)> = registry::end_to_end()
        .into_iter()
        .map(|m| (m.name, (m.bound.unwrap_or(0.0), m.better == "higher")))
        .collect();
    let mut ok = true;
    println!("== check-repeat: run 1 vs run 2 of the same build ==");
    println!(
        "{:<16} {:<28} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "run 1", "run 2", "worse by", "bound"
    );
    for ((workload, name), &v1) in a {
        let Some(&v2) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let change = if v1 == v2 {
            0.0
        } else {
            (v2 - v1) / v1.abs().max(f64::MIN_POSITIVE)
        };
        let (worse, bound, verdict) = if let Some(&(bound, higher_is_better)) = gated.get(name) {
            let worse = if higher_is_better { -change } else { change };
            let gate = name != "setup_s";
            let label = format!("{:.0}%{}", bound * 100.0, if gate { "" } else { "*" });
            (worse, label, !gate || worse <= bound)
        } else if EXACT_PREFIXES.iter().any(|p| name.starts_with(p)) {
            (change.abs(), "exact".to_string(), v1 == v2)
        } else {
            continue;
        };
        ok &= verdict;
        println!(
            "{workload:<16} {name:<28} {v1:>16.4} {v2:>16.4} {:>+8.2}% {bound:>7}{}",
            worse * 100.0,
            if verdict { "" } else { "  <-- FAIL" }
        );
    }
    println!("(* printed, not gated)");
    ok
}

pub fn run(cli: &Cli) -> bool {
    crate::print_header(cli);
    let traced_too = cli.trace || cli.check_repeat;
    let (mut ok, first) = round(cli, traced_too);
    if cli.check_repeat {
        let (ok2, second) = round(cli, traced_too);
        ok &= ok2;
        ok &= compare(&first, &second);
    }
    println!("== {} ==", if ok { "all checks passed" } else { "FAILED" });
    ok
}
