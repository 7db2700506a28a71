//! One run of one workload in this process: set-up, passes for the
//! measuring time, answer and golden checks, metrics.

use crate::json::{self, Value};
use crate::registry::{self, MetricDef, DEFAULT_SEED};
use crate::span::{self, Span};
use crate::stat;
use crate::workload::{self, timed, Config, LayerMetrics, PassOut, Workload};
use crate::Cli;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Name of the span the runner opens around each pass; it has no parent.
const PASS_SPAN: &str = "pass";

/// The timed region is cut short only when it has taken this multiple of
/// `--seconds`: a cap that keeps a run on a much slower machine inside the
/// driver's time limit, not a budget. A run it cuts says so in its notes.
const TIME_CAP: f64 = 2.0;

/// One round of set-up: `repeats` times over, each timed into `setup_s`;
/// returns the last state built.
///
/// A run makes two rounds of the same fixed length, one before the timed
/// region (the passes run on its last state) and one after it. The host's
/// speed steps between two levels every few seconds (`SPREAD.md`) and a
/// round of a fraction of a second sits inside one of them; two rounds a
/// quarter of a minute apart sample it twice, and `setup_s` is the median
/// over both.
fn set_up(
    name: &str,
    cfg: &Config,
    repeats: usize,
    setup_s: &mut Vec<f64>,
) -> Result<Box<dyn Workload>, String> {
    let mut w: Option<Box<dyn Workload>> = None;
    for _ in 0..repeats.max(1) {
        // The previous state goes first: two copies never coexist.
        drop(w.take());
        let (built, us) = timed(|| workload::build(name, cfg));
        w = Some(built.ok_or_else(|| format!("unknown workload `{name}`"))?);
        setup_s.push(us / 1e6);
    }
    Ok(w.expect("set-up ran at least once"))
}

#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable findings (mismatching cells, missing golden, …).
    pub notes: Vec<String>,
}

impl RunResult {
    /// The line the benchmark contract asks for, last on stdout.
    pub fn to_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                Value::obj([
                    ("value", Value::Num(*value)),
                    ("unit", Value::Str(unit.to_string())),
                ]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    }
}

struct Pass {
    out: PassOut,
    traced: bool,
    /// Wall seconds of the whole pass, answer checks included.
    wall_s: f64,
    /// Seconds inside the timed calls.
    call_s: f64,
    /// `hostalloc::stats()` at the end of the pass.
    hostalloc: (u64, u64, u64),
}

fn golden_path(dir: &Path, workload: &str) -> std::path::PathBuf {
    dir.join("expected").join(format!("{workload}.sim.json"))
}

fn golden_json(workload: &str, seed: u64, names: &[String], cells: &[String]) -> Value {
    Value::obj([
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::Num(seed as f64)),
        (
            "cells",
            Value::obj(
                names
                    .iter()
                    .zip(cells)
                    .map(|(n, c)| (n.clone(), Value::Str(c.clone()))),
            ),
        ),
    ])
}

/// Cells whose simulated outcome differs from the committed golden.
fn golden_mismatches(
    path: &Path,
    names: &[String],
    cells: &[String],
    notes: &mut Vec<String>,
) -> u64 {
    let golden = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t));
    let golden = match golden {
        Ok(g) => g,
        Err(e) => {
            notes.push(format!(
                "golden {} unreadable ({e}); run with --bless",
                path.display()
            ));
            return names.len() as u64;
        }
    };
    let want: BTreeMap<&str, &str> = golden
        .get("cells")
        .and_then(Value::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.as_str(), v.as_str()?)))
        .collect();
    let mut bad = want.len().saturating_sub(names.len()) as u64;
    for (name, got) in names.iter().zip(cells) {
        if want.get(name.as_str()) != Some(&got.as_str()) {
            bad += 1;
            notes.push(format!(
                "sim mismatch {name}: got {got}, golden {}",
                want.get(name.as_str()).unwrap_or(&"<absent>")
            ));
        }
    }
    bad
}

/// Cells that did not repeat exactly from the first pass to a later one.
fn unsteady_cells(passes: &[Pass], names: &[String], notes: &mut Vec<String>) -> u64 {
    let first = &passes[0].out.sim_cells;
    let mut bad = 0;
    for (i, name) in names.iter().enumerate() {
        if let Some((n, p)) = passes
            .iter()
            .enumerate()
            .find(|(_, p)| p.out.sim_cells.get(i) != first.get(i))
        {
            bad += 1;
            notes.push(format!(
                "sim not steady {name}: pass 0 {:?}, pass {n} {:?}",
                first.get(i),
                p.out.sim_cells.get(i)
            ));
        }
    }
    bad
}

/// Both times are totals over every pass of the fixed schedule, divided by
/// the number of passes. Passes share allocator, JIT-cache and pool state,
/// so a slow pass may be the code's own doing (eviction thrash, a periodic
/// rebuild) and none is set aside. The total is also the steadier reading
/// here: a pass runs at one of the host's two speed levels, so the median
/// over passes jumps between them with the share of slow passes, which the
/// mean follows smoothly (`SPREAD.md`).
fn end_to_end(setup_s: &[f64], passes: &[Pass], cpu_s: f64) -> LayerMetrics {
    let call_s: Vec<f64> = passes.iter().map(|p| p.call_s).collect();
    let mut m = LayerMetrics::new();
    m.insert("setup_s".into(), stat::median(setup_s));
    m.insert(
        "wall_s".into(),
        call_s.iter().sum::<f64>() / passes.len() as f64,
    );
    // CPU time has 10 ms ticks, too coarse to split by pass; it is over the
    // whole timed region, answer checks included.
    m.insert("cpu_s".into(), cpu_s / passes.len() as f64);
    m
}

/// Latency percentiles over every call of `passes`, for workloads whose
/// pass is more than one call. The level of the tail follows from the
/// sample size, which the schedule fixes.
fn call_latencies(passes: &[&Pass], m: &mut LayerMetrics) {
    let mut us: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.out.calls.iter().map(|c| c.us))
        .collect();
    if us.len() <= passes.len() {
        return;
    }
    us.sort_by(f64::total_cmp);
    let level = stat::tail_level(us.len());
    m.insert("call.p50_us".into(), stat::percentile(&us, 50.0));
    m.insert("call.tail_us".into(), stat::percentile(&us, level));
    m.insert("call.samples".into(), us.len() as f64);
    m.insert("call.tail_level".into(), level);
}

/// `part / whole`, or 0 when there is no whole (a layer the workload
/// does not exercise).
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    100.0 * ratio(part, whole)
}

/// Metrics the runner can take from spans, device counters and the
/// allocator for any workload; the workload then adds its own.
fn per_layer(
    w: &mut dyn Workload,
    passes: &[Pass],
    spans: &[Span],
    ha0: (u64, u64, u64),
) -> LayerMetrics {
    let mut m = LayerMetrics::new();
    let n = passes.len() as f64;
    let first = &passes[0].out;

    // Span accounting over the traced passes. The root `pass` span's own
    // self time is what no layer span covers, i.e. the unattributed rest.
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let wall_ns: f64 = traced.iter().map(|p| p.wall_s * 1e9).sum::<f64>() * w.parallelism() as f64;
    let own = span::self_times(spans);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&own) {
        if !(s.parent.is_none() && s.name == PASS_SPAN) {
            *by_layer.entry(s.layer).or_insert(0.0) += *own as f64;
        }
    }
    let layer_ns = |names: &[&str]| {
        names
            .iter()
            .map(|l| by_layer.get(l).copied().unwrap_or(0.0))
            .sum::<f64>()
    };
    m.insert(
        "self.backend_pct".into(),
        pct(layer_ns(&["backend"]), wall_ns),
    );
    m.insert(
        "self.planner_pct".into(),
        pct(layer_ns(&["optimizer"]), wall_ns),
    );
    m.insert(
        "self.physical_pct".into(),
        pct(layer_ns(&["physical"]), wall_ns),
    );
    m.insert(
        "self.resilient_pct".into(),
        pct(layer_ns(&["resilient", "resilient_plan"]), wall_ns),
    );
    m.insert(
        "self.harness_pct".into(),
        pct(layer_ns(&["harness"]), wall_ns),
    );
    m.insert(
        "self.attributed_pct".into(),
        pct(by_layer.values().sum(), wall_ns),
    );
    m.insert(
        "physical.execute_us".into(),
        stat::median(&span::durations_us(spans, "physical", "execute")),
    );

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let call_s = |of: &[&Pass]| stat::median(&of.iter().map(|p| p.call_s).collect::<Vec<_>>());
    if !untraced.is_empty() {
        m.insert(
            "harness.trace_overhead_pct".into(),
            (call_s(&traced) / call_s(&untraced) - 1.0) * 100.0,
        );
    }
    call_latencies(&untraced, &mut m);

    // The modelled device: exact, and identical in every pass.
    let d = first.dev;
    m.insert("sim.total_ns".into(), first.sim_ns as f64);
    m.insert("sim.kernel_ns".into(), d.kernel_ns as f64);
    m.insert("sim.jit_ns".into(), d.jit_ns as f64);
    m.insert("sim.transfer_bytes".into(), d.transfer_bytes as f64);
    m.insert("sim.kernel_bytes".into(), d.kernel_bytes as f64);
    m.insert("sim.allocs".into(), d.allocs as f64);
    m.insert("sim.mem_peak_bytes".into(), d.mem_peak as f64);
    m.insert("device.launches".into(), d.launches as f64);
    let call_ns = stat::median(&passes.iter().map(|p| p.call_s).collect::<Vec<_>>()) * 1e9;
    m.insert(
        "device.host_ns_per_launch".into(),
        ratio(call_ns, d.launches as f64),
    );
    // `allocs` counts the driver allocations, i.e. the pool's misses.
    m.insert(
        "device.pool_hit_ratio".into(),
        ratio(d.pool_hits as f64, (d.allocs + d.pool_hits) as f64),
    );

    let ha1 = passes[passes.len() - 1].hostalloc;
    m.insert("hostalloc.hits".into(), (ha1.0 - ha0.0) as f64 / n);
    m.insert("hostalloc.misses".into(), (ha1.1 - ha0.1) as f64 / n);
    m.insert("hostalloc.evictions".into(), (ha1.2 - ha0.2) as f64 / n);

    let steps = w.plan_steps_per_pass() as f64;
    m.insert("physical.steps".into(), steps);
    m.insert(
        "physical.host_us_per_step".into(),
        ratio(layer_ns(&["physical"]) / 1e3, traced.len() as f64 * steps),
    );

    let outs: Vec<&PassOut> = passes.iter().map(|p| &p.out).collect();
    w.layer_metrics(&outs, &mut m);
    m
}

/// Counts at each pass boundary, for the trace file.
fn pass_counts(passes: &[Pass], ha0: (u64, u64, u64)) -> Value {
    let mut prev = ha0;
    Value::Arr(
        passes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let hits = p.hostalloc.0 - prev.0;
                let misses = p.hostalloc.1 - prev.1;
                prev = p.hostalloc;
                Value::obj([
                    ("block", Value::Num(i as f64)),
                    ("traced", Value::Bool(p.traced)),
                    ("wall_ns", Value::Num(p.wall_s * 1e9)),
                    ("calls", Value::Num(p.out.calls.len() as f64)),
                    ("rows", Value::Num(p.out.rows as f64)),
                    ("failed", Value::Num(p.out.failed as f64)),
                    ("sim_ns", Value::Num(p.out.sim_ns as f64)),
                    ("launches", Value::Num(p.out.dev.launches as f64)),
                    ("pool_hits", Value::Num(p.out.dev.pool_hits as f64)),
                    ("hostalloc_hits", Value::Num(hits as f64)),
                    ("hostalloc_misses", Value::Num(misses as f64)),
                ])
            })
            .collect(),
    )
}

/// The declared metrics, in registry order, with their values.
///
/// A value under a name the registry does not declare is a misspelt key
/// and fails the run. So does a missing end-to-end metric: every workload
/// reports every one of them. A missing per-layer metric reads 0, which is
/// how a workload says it does not exercise that layer.
fn select(
    defs: Vec<MetricDef>,
    values: &LayerMetrics,
    every_one_required: bool,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    if let Some(stray) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("metric `{stray}` is not declared in the registry"));
    }
    defs.into_iter()
        .map(|d| match values.get(&d.name) {
            Some(&v) => Ok((d.name, v, d.unit)),
            None if every_one_required => Err(format!("no value for metric `{}`", d.name)),
            None => Ok((d.name, 0.0, d.unit)),
        })
        .collect()
}

pub fn run(cli: &Cli, name: &str) -> Result<RunResult, String> {
    let def = registry::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let cfg = Config {
        seed: cli.seed,
        dir: cli.dir.clone(),
    };
    let mut notes = Vec::new();
    let mut setup_s = Vec::new();
    let mut w = set_up(name, &cfg, def.setup_repeats, &mut setup_s)?;
    if w.warm_up() {
        w.pass();
    }

    // A traced run alternates traced and untraced passes, so the gap
    // between them is measured inside one process, on one data set.
    let scheduled = def.passes_for(cli.seconds);
    let ha0 = gpu_sim::hostalloc::stats();
    let cpu0 = stat::cpu_seconds();
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < scheduled {
        if !passes.is_empty() && t0.elapsed().as_secs_f64() >= TIME_CAP * cli.seconds {
            notes.push(format!(
                "SCHEDULE CUT SHORT: {} of {scheduled} passes in {TIME_CAP} x {} s; \
                 numbers of this run are not comparable with a full schedule's",
                passes.len(),
                cli.seconds
            ));
            break;
        }
        let traced = cli.trace && passes.len().is_multiple_of(2);
        span::set_block(passes.len() as u32);
        span::set_enabled(traced);
        let (out, us) = timed(|| span::scope("harness", PASS_SPAN, || w.pass()));
        span::set_enabled(false);
        passes.push(Pass {
            call_s: out.calls.iter().map(|c| c.us).sum::<f64>() / 1e6,
            out,
            traced,
            wall_s: us / 1e6,
            hostalloc: gpu_sim::hostalloc::stats(),
        });
    }
    let cpu_s = stat::cpu_seconds() - cpu0;
    let measured_s = t0.elapsed().as_secs_f64();

    let names = w.cells().to_vec();
    let cells = &passes[0].out.sim_cells;
    let mut sim_mismatches = unsteady_cells(&passes, &names, &mut notes);
    let golden = golden_path(&cfg.dir, name);
    // Goldens are taken at the default seed; other seeds have other data.
    let seed_pinned = cfg.seed == DEFAULT_SEED || w.seed_independent();
    if cli.bless {
        if sim_mismatches == 0 && seed_pinned {
            std::fs::create_dir_all(golden.parent().expect("expected/ has a parent"))
                .and_then(|()| {
                    let doc = golden_json(name, cfg.seed, &names, cells);
                    std::fs::write(&golden, doc.render_pretty())
                })
                .map_err(|e| format!("write {}: {e}", golden.display()))?;
            notes.push(format!("blessed {}", golden.display()));
        } else {
            notes.push("not blessed: needs the default seed and steady passes".into());
        }
    } else if seed_pinned {
        sim_mismatches += golden_mismatches(&golden, &names, cells, &mut notes);
    }

    let calls: u64 = passes.iter().map(|p| p.out.calls.len() as u64).sum();
    let failed_calls: u64 = passes.iter().map(|p| p.out.failed).sum();
    let attempted = calls + names.len() as u64;
    let failed = failed_calls + sim_mismatches.min(names.len() as u64);

    let metrics = if cli.trace {
        let spans = span::drain();
        let mut m = per_layer(w.as_mut(), &passes, &spans, ha0);
        m.insert("sim.mismatches".into(), sim_mismatches as f64);
        let out_dir = cfg.dir.join("out");
        let path = out_dir.join(format!("{name}.trace.json"));
        std::fs::create_dir_all(&out_dir)
            .and_then(|()| {
                let doc = span::trace_file(name, &spans, &pass_counts(&passes, ha0));
                std::fs::write(&path, doc)
            })
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!("{} spans -> {}", spans.len(), path.display()));
        select(registry::per_layer(), &m, false)?
    } else {
        // The peak is read before the second round of set-ups can move it.
        let peak_rss_mb = stat::peak_rss_mb();
        drop(w);
        set_up(name, &cfg, def.setup_repeats, &mut setup_s)?;
        let mut m = end_to_end(&setup_s, &passes, cpu_s);
        m.insert("peak_rss_mb".into(), peak_rss_mb);
        // Rates are schedule constants over `wall_s`: shown, not gated.
        let wall_s = m["wall_s"];
        let first = &passes[0].out;
        notes.push(format!(
            "derived from wall_s: {:.4} calls/s, {:.5e} input rows/s",
            first.calls.len() as f64 / wall_s,
            first.rows as f64 / wall_s
        ));
        select(registry::end_to_end(), &m, true)?
    };
    notes.push(format!(
        "{} passes in {measured_s:.2} s, {calls} calls, {failed_calls} failed, {sim_mismatches} sim mismatches",
        passes.len()
    ));
    notes.push(format!(
        "{} set-ups, median {:.6} s",
        setup_s.len(),
        stat::median(&setup_s)
    ));
    let per_pass: Vec<String> = passes.iter().map(|p| format!("{:.4}", p.call_s)).collect();
    notes.push(format!("seconds in calls per pass: {}", per_pass.join(" ")));
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_refuses_stray_names_and_missing_end_to_end_values() {
        let full: LayerMetrics = registry::end_to_end()
            .into_iter()
            .map(|d| (d.name, 1.5))
            .collect();
        assert!(select(registry::end_to_end(), &full, true).is_ok());

        let mut short = full.clone();
        short.remove("cpu_s");
        assert!(select(registry::end_to_end(), &short, true).is_err());

        let mut misspelt = full;
        misspelt.insert("wal_s".into(), 1.0);
        assert!(select(registry::end_to_end(), &misspelt, true).is_err());

        // A layer the workload does not exercise reads 0.
        let one: LayerMetrics = [("sim.total_ns".to_string(), 7.0)].into();
        let picked = select(registry::per_layer(), &one, false).unwrap();
        assert_eq!(picked.len(), registry::per_layer().len());
        assert!(picked
            .iter()
            .all(|(n, v, _)| *v == if n == "sim.total_ns" { 7.0 } else { 0.0 }));
    }
}
