//! Harness-side spans: one per call into a layer's public function.
//!
//! Spans are recorded by the benchmark's own code around the calls it
//! makes (and by [`crate::tracing_backend::TracingBackend`] around each
//! operator a plan issues); nothing inside the measured crates changes.
//! They are kept in memory and written out when the run ends. Recording is
//! off for the runs that produce end-to-end metrics.
//!
//! Every workload drives its calls from one thread, so the recorder is
//! thread-local and a span's parent is simply the innermost open span.

use crate::json::Value;
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: Cow<'static, str>,
    pub layer: &'static str,
    /// Pass number of the workload's fixed schedule the span belongs to.
    pub block: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    enabled: bool,
    origin: Instant,
    block: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        origin: Instant::now(),
        block: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turn recording on or off for the calls that follow.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

pub fn enabled() -> bool {
    REC.with(|r| r.borrow().enabled)
}

/// Tag the spans that follow with pass number `block`.
pub fn set_block(block: u32) {
    REC.with(|r| r.borrow_mut().block = block);
}

/// Run `f` inside a span of `layer` named `name`; a plain call when
/// recording is off.
pub fn scope<R>(
    layer: &'static str,
    name: impl Into<Cow<'static, str>>,
    f: impl FnOnce() -> R,
) -> R {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let id = r.spans.len() as u32;
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent: r.open.last().copied(),
            name: name.into(),
            layer,
            block: r.block,
            start_ns,
            end_ns: start_ns,
        };
        r.spans.push(span);
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.origin.elapsed().as_nanos() as u64;
            r.spans[id as usize].end_ns = end;
            r.open.pop();
        });
    }
    out
}

/// Append an interval measured elsewhere (grid cells report only their
/// duration, so `grid_full` lays them out per lane itself).
pub fn push_measured(
    layer: &'static str,
    name: String,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
) -> u32 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.spans.len() as u32;
        let block = r.block;
        r.spans.push(Span {
            id,
            parent,
            name: name.into(),
            layer,
            block,
            start_ns,
            end_ns,
        });
        id
    })
}

/// The innermost open span, if recording.
pub fn current() -> Option<u32> {
    REC.with(|r| r.borrow().open.last().copied())
}

/// Nanoseconds since the recorder's origin (the clock spans use).
pub fn now_ns() -> u64 {
    REC.with(|r| r.borrow().origin.elapsed().as_nanos() as u64)
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time per span: its duration minus the time its direct children
/// cover. Children of one parent never overlap (one thread, strict
/// nesting), so the subtraction is exact.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Durations (µs) of every span of `layer` named `name`.
pub fn durations_us(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Field order of one row of the trace file's `spans` array.
pub const TRACE_COLUMNS: [&str; 8] = [
    "id", "parent", "name", "layer", "block", "start_ns", "end_ns", "self_ns",
];

/// The text of the trace file: one array per span, fields in
/// [`TRACE_COLUMNS`] order. Written straight into a string — a planner
/// run records a few hundred thousand spans, too many to build a
/// [`Value`] tree for.
pub fn trace_file(workload: &str, spans: &[Span], passes: &Value) -> String {
    let columns = Value::Arr(
        TRACE_COLUMNS
            .iter()
            .map(|c| Value::Str(c.to_string()))
            .collect(),
    );
    let mut out = format!(
        "{{\"workload\":{},\"passes\":{},\"columns\":{},\"spans\":[",
        Value::Str(workload.to_string()).render(),
        passes.render(),
        columns.render(),
    );
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(out, "\n[{},{parent},", s.id);
        crate::json::write_str(&mut out, &s.name);
        let _ = write!(
            out,
            ",\"{}\",{},{},{},{own}]",
            s.layer, s.block, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x".into(),
            layer,
            block: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // call 0..100 ⊃ plan 10..30, execute 40..90 ⊃ op 50..70
        let spans = vec![
            span(0, None, "harness", 0, 100),
            span(1, Some(0), "optimizer", 10, 30),
            span(2, Some(0), "physical", 40, 90),
            span(3, Some(2), "backend", 50, 70),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 20, 30, 20]);
        // Nothing is lost: self times sum to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn trace_file_is_json_with_one_row_per_span() {
        let spans = vec![
            span(0, None, "harness", 0, 100),
            span(1, Some(0), "optimizer", 10, 30),
        ];
        let text = trace_file("w", &spans, &Value::Arr(vec![]));
        let doc = crate::json::parse(&text).expect("trace file parses");
        let Some(Value::Arr(rows)) = doc.get("spans") else {
            panic!("spans array")
        };
        assert_eq!(rows.len(), 2);
        // id, parent, name, layer, block, start, end, self
        assert_eq!(
            rows[1],
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(0.0),
                Value::Str("x".into()),
                Value::Str("optimizer".into()),
                Value::Num(0.0),
                Value::Num(10.0),
                Value::Num(30.0),
                Value::Num(20.0),
            ])
        );
        // The root has no parent and keeps what its child did not cover.
        let Value::Arr(root) = &rows[0] else {
            panic!("span row")
        };
        assert_eq!((&root[1], &root[7]), (&Value::Null, &Value::Num(80.0)));
    }

    #[test]
    fn scopes_nest_and_recording_can_be_switched_off() {
        drain();
        set_enabled(false);
        scope("harness", "ignored", || ());
        assert!(drain().is_empty());
        set_enabled(true);
        set_block(3);
        let v = scope("harness", "outer", || scope("optimizer", "inner", || 7));
        set_enabled(false);
        assert_eq!(v, 7);
        let spans = drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].block, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
