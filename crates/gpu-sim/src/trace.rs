//! Execution tracing — an ordered event log of everything the device did.
//!
//! Every cost the device charges is one event; [`crate::DeviceStats`]
//! folds the events, the trace keeps them *in sequence*. With tracing
//! enabled, every kernel, transfer, JIT compilation, allocation, free,
//! fault and recovery note is recorded with its virtual start/end
//! instants, so an operator or query can be rendered as a timeline — which
//! makes the difference between a 1-kernel fused plan and a 4-kernel
//! library chain *visible*, not just countable. Disabled by default: the
//! device then folds each event into its counters and drops it.
//!
//! The trace doubles as the input IR of the `gpu-lint` static analyzer:
//! events carry the identities of the buffers they touch
//! ([`crate::buffer::BufferId`]) and kernels declare their read/write sets
//! ([`KernelIo`]) where the launching library knows them. All of that is
//! observation-only metadata: recording it never advances the simulated
//! clock, so enabling tracing cannot change any measured number.

use crate::buffer::BufferId;
use crate::clock::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The buffers a kernel launch touches, as declared by the launching
/// library.
///
/// Launches that do not name their buffers
/// ([`crate::Device::charge_kernel`], [`crate::Device::try_charge_kernel`])
/// record [`KernelIo::Unknown`]; analysis passes must treat such launches
/// conservatively (they may read and write every live buffer).
/// [`crate::Device::try_charge_kernel_io`] records the exact sets, which is
/// what makes read-before-write and dead-transfer analysis possible.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelIo {
    /// The launch site did not declare its footprint.
    Unknown,
    /// Declared read and write sets (a buffer may appear in both).
    Known {
        /// Buffers the kernel reads.
        reads: Vec<BufferId>,
        /// Buffers the kernel writes.
        writes: Vec<BufferId>,
    },
}

impl KernelIo {
    /// Build a [`KernelIo::Known`] from id slices.
    pub fn known(reads: &[BufferId], writes: &[BufferId]) -> KernelIo {
        KernelIo::Known {
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        }
    }
}

/// What a trace event was.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A kernel launch (name as recorded in statistics) with its declared
    /// buffer footprint and its global-memory traffic.
    Kernel {
        /// Kernel name as recorded in statistics.
        name: String,
        /// Declared read/write buffer sets.
        io: KernelIo,
        /// Bytes the launch reads from global memory.
        bytes_read: u64,
        /// Bytes the launch writes to global memory.
        bytes_written: u64,
    },
    /// A host→device transfer of `bytes` into buffer `buf`.
    HtoD {
        /// Payload size.
        bytes: u64,
        /// Destination buffer.
        buf: BufferId,
    },
    /// A device→host transfer of `bytes` out of buffer `buf`.
    DtoH {
        /// Payload size.
        bytes: u64,
        /// Source buffer.
        buf: BufferId,
    },
    /// A device→device copy of `bytes` from `src` into `dst`.
    DtoD {
        /// Payload size.
        bytes: u64,
        /// Source buffer.
        src: BufferId,
        /// Destination buffer.
        dst: BufferId,
    },
    /// A JIT compilation.
    Jit(String),
    /// A driver allocation of `bytes` (size-class rounded) for buffer
    /// `buf`.
    Alloc {
        /// Reserved bytes.
        bytes: u64,
        /// The buffer created.
        buf: BufferId,
        /// Whether the buffer is born holding meaningful data (created
        /// from host contents or a device copy) as opposed to a plain
        /// zeroed allocation. Read-before-write and dead-transfer
        /// analysis keys off this.
        init: bool,
    },
    /// A pool-cache allocation (no driver round-trip) of `bytes` for
    /// buffer `buf`. Bookkeeping event: pool hits were never timeline
    /// rows, but the lifetime analysis needs every buffer's creation on
    /// record.
    PoolAlloc {
        /// Reserved bytes (size-class rounded).
        bytes: u64,
        /// The buffer created.
        buf: BufferId,
        /// See [`TraceKind::Alloc::init`].
        init: bool,
    },
    /// Buffer `buf` was released (zero-duration bookkeeping event).
    Free {
        /// The buffer released.
        buf: BufferId,
    },
    /// An injected fault firing (site and error description).
    Fault(String),
    /// A recovery action a layer above the device took
    /// ([`crate::Device::note`]).
    Recovery(Recovery),
}

/// A recovery action, as noted on the device by the resilience layers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Recovery {
    /// One re-issue of the operation or plan step `what`.
    Retry {
        /// What was re-issued.
        what: String,
    },
    /// A failed plan moving from one backend to the next.
    Fallback {
        /// The backend that failed.
        from: String,
        /// The backend taking over.
        to: String,
    },
    /// Plan `what` split into `parts` smaller batches under memory
    /// pressure.
    Split {
        /// The plan split.
        what: String,
        /// Batches it was split into.
        parts: usize,
    },
    /// Plan `what` re-run over `parts` horizontal row partitions.
    Partition {
        /// The plan partitioned.
        what: String,
        /// Partitions it runs over.
        parts: usize,
    },
}

impl TraceKind {
    /// Short label for timeline rendering.
    pub fn label(&self) -> String {
        match self {
            TraceKind::Kernel { name, .. } => name.clone(),
            TraceKind::HtoD { bytes, .. } => format!("htod {bytes}B"),
            TraceKind::DtoH { bytes, .. } => format!("dtoh {bytes}B"),
            TraceKind::DtoD { bytes, .. } => format!("dtod {bytes}B"),
            TraceKind::Jit(name) => format!("jit {name}"),
            TraceKind::Alloc { bytes, .. } => format!("alloc {bytes}B"),
            TraceKind::PoolAlloc { bytes, .. } => format!("pool-alloc {bytes}B"),
            TraceKind::Free { buf } => format!("free b{}", buf.0),
            TraceKind::Fault(what) => format!("fault {what}"),
            TraceKind::Recovery(Recovery::Retry { what }) => format!("resilience retry {what}"),
            TraceKind::Recovery(Recovery::Fallback { from, to }) => {
                format!("resilience fallback {from} -> {to}")
            }
            TraceKind::Recovery(Recovery::Split { what, parts }) => {
                format!("resilience split {what} into {parts}")
            }
            TraceKind::Recovery(Recovery::Partition { what, parts }) => {
                format!("resilience partition {what} into {parts}")
            }
        }
    }

    /// Whether this is a zero-cost bookkeeping event (pool hits, buffer
    /// frees) rather than timed device work. Meta events
    /// exist for analysis; [`render_timeline`] hides them so timelines
    /// show exactly the costed work they always showed.
    pub(crate) fn is_meta(&self) -> bool {
        matches!(self, TraceKind::PoolAlloc { .. } | TraceKind::Free { .. })
    }
}

/// One traced device event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual instant the event started.
    pub start: SimTimeNs,
    /// Virtual instant it completed.
    pub end: SimTimeNs,
    /// What happened.
    pub kind: TraceKind,
}

/// Serializable nanosecond instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SimTimeNs(pub u64);

impl From<SimTime> for SimTimeNs {
    fn from(t: SimTime) -> Self {
        SimTimeNs(t.as_nanos())
    }
}

impl TraceEvent {
    /// An event spanning `start..end` simulated nanoseconds.
    pub fn new(start: u64, end: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            start: SimTimeNs(start),
            end: SimTimeNs(end),
            kind,
        }
    }

    /// Event duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_nanos(self.end.0 - self.start.0)
    }
}

/// Render a trace as an ASCII timeline, one row per costed event, bar
/// widths proportional to simulated duration. Zero-cost bookkeeping
/// events (`TraceKind::is_meta`) are hidden.
pub fn render_timeline(events: &[TraceEvent]) -> String {
    render_timeline_annotated(events, &BTreeMap::new())
}

/// [`render_timeline`] with cross-references: `notes` maps an event's
/// index in `events` to annotation tags (e.g. the `gpu-lint` rule ids
/// that reference it), appended to the event's row. Annotated
/// bookkeeping events are shown even though the plain renderer hides
/// them, so every event a diagnostic points at has a visible row. With
/// empty `notes` the output is byte-identical to [`render_timeline`].
pub fn render_timeline_annotated(
    events: &[TraceEvent],
    notes: &BTreeMap<usize, Vec<String>>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let shown: Vec<(usize, &TraceEvent)> = events
        .iter()
        .enumerate()
        .filter(|(i, e)| !e.kind.is_meta() || notes.contains_key(i))
        .collect();
    let Some((_, first)) = shown.first() else {
        return "(empty trace)\n".into();
    };
    let t0 = first.start.0;
    let t_end = shown.iter().map(|(_, e)| e.end.0).max().unwrap_or(t0);
    let span = (t_end - t0).max(1);
    const WIDTH: usize = 48;
    let _ = writeln!(
        out,
        "timeline over {} ({} events)",
        SimDuration::from_nanos(span),
        shown.len()
    );
    for (idx, e) in shown {
        // A zero-duration event at the very end of the span would start
        // at column WIDTH; cap it so its 1-cell bar stays on the canvas.
        let from =
            (((e.start.0 - t0) as u128 * WIDTH as u128 / span as u128) as usize).min(WIDTH - 1);
        let to = (((e.end.0 - t0) as u128 * WIDTH as u128).div_ceil(span as u128) as usize)
            .clamp(from + 1, WIDTH);
        let mut bar = String::with_capacity(WIDTH);
        for i in 0..WIDTH {
            bar.push(if (from..to).contains(&i) { '█' } else { '·' });
        }
        let (dur, label) = (e.duration().to_string(), e.kind.label());
        let _ = write!(out, "{bar} {dur:>10}  {label}");
        let _ = match notes.get(&idx) {
            None => writeln!(out),
            Some(tags) => writeln!(out, "  [{}]", tags.join(",")),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;
    use crate::device::Device;

    #[test]
    fn tracing_is_off_by_default_and_captures_when_enabled() {
        let dev = Device::with_defaults();
        dev.charge_kernel("before", KernelCost::empty());
        assert!(dev.take_trace().is_empty(), "off by default");
        dev.set_tracing(true);
        let buf = dev.htod(&[1u32, 2, 3]).unwrap();
        let buf_id = buf.id();
        dev.charge_kernel("work", KernelCost::map::<u32, u32>(3));
        let _ = dev.dtoh(&buf).unwrap();
        dev.set_tracing(false);
        let trace = dev.take_trace();
        // htod does an allocation first, then the transfer.
        let kinds: Vec<&TraceKind> = trace.iter().map(|e| &e.kind).collect();
        assert!(
            matches!(kinds[0], TraceKind::Alloc { buf, .. } if *buf == buf_id),
            "{kinds:?}"
        );
        assert!(
            matches!(kinds[1], TraceKind::HtoD { bytes: 12, buf } if *buf == buf_id),
            "{kinds:?}"
        );
        assert!(
            matches!(&kinds[2], TraceKind::Kernel { name, io, bytes_read: 12, bytes_written: 12 }
            if name == "work" && *io == KernelIo::Unknown)
        );
        assert!(matches!(kinds[3], TraceKind::DtoH { bytes: 12, buf } if *buf == buf_id));
        // Events are ordered and non-overlapping.
        for w in trace.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        // take_trace drains.
        assert!(dev.take_trace().is_empty());
    }

    #[test]
    fn buffer_free_is_traced_as_meta() {
        let dev = Device::with_defaults();
        dev.set_tracing(true);
        let buf = dev.htod(&[1u64, 2]).unwrap();
        let id = buf.id();
        drop(buf);
        let trace = dev.take_trace();
        let free = trace.last().unwrap();
        assert!(matches!(free.kind, TraceKind::Free { buf } if buf == id));
        assert!(free.kind.is_meta());
        assert_eq!(free.duration().as_nanos(), 0, "frees are zero-cost");
    }

    #[test]
    fn io_kernel_records_read_write_sets() {
        let dev = Device::with_defaults();
        dev.set_tracing(true);
        let a = dev.htod(&[1u32, 2]).unwrap();
        let b = dev.htod(&[0u32, 0]).unwrap();
        dev.try_charge_kernel_io("copy", KernelCost::map::<u32, u32>(2), &[a.id()], &[b.id()])
            .unwrap();
        let trace = dev.take_trace();
        let kernel = trace
            .iter()
            .find(|e| matches!(e.kind, TraceKind::Kernel { .. }))
            .unwrap();
        assert_eq!(
            kernel.kind,
            TraceKind::Kernel {
                name: "copy".into(),
                io: KernelIo::known(&[a.id()], &[b.id()]),
                bytes_read: 8,
                bytes_written: 8,
            }
        );
    }

    #[test]
    fn jit_events_are_traced() {
        let dev = Device::with_defaults();
        dev.set_tracing(true);
        dev.charge_jit("programX", 1_000_000);
        let trace = dev.take_trace();
        assert_eq!(trace.len(), 1);
        assert!(matches!(&trace[0].kind, TraceKind::Jit(n) if n == "programX"));
        assert_eq!(trace[0].duration().as_nanos(), 1_000_000);
    }

    fn unknown_kernel(name: &str) -> TraceKind {
        TraceKind::Kernel {
            name: name.into(),
            io: KernelIo::Unknown,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    #[test]
    fn timeline_renders_proportional_bars() {
        let events = vec![
            TraceEvent::new(0, 100, unknown_kernel("short")),
            TraceEvent::new(100, 1_000, unknown_kernel("long")),
        ];
        let r = render_timeline(&events);
        assert!(r.contains("short") && r.contains("long"));
        let short_bar = r.lines().nth(1).unwrap().matches('█').count();
        let long_bar = r.lines().nth(2).unwrap().matches('█').count();
        assert!(long_bar > 3 * short_bar, "{r}");
        assert_eq!(render_timeline(&[]), "(empty trace)\n");
    }

    #[test]
    fn timeline_hides_meta_events_unless_annotated() {
        let events = vec![
            TraceEvent::new(0, 100, unknown_kernel("k")),
            TraceEvent::new(100, 100, TraceKind::Free { buf: BufferId(7) }),
        ];
        let plain = render_timeline(&events);
        assert!(plain.contains("(1 events)"), "{plain}");
        assert!(!plain.contains("free"), "{plain}");
        // Annotated: the referenced free event becomes visible with its
        // rule tag, and the kernel row is unchanged.
        let mut notes = BTreeMap::new();
        notes.insert(1usize, vec!["GL002".to_string()]);
        let annotated = render_timeline_annotated(&events, &notes);
        assert!(annotated.contains("(2 events)"), "{annotated}");
        assert!(annotated.contains("free b7  [GL002]"), "{annotated}");
        // Empty notes reproduce the plain rendering byte-for-byte.
        assert_eq!(render_timeline_annotated(&events, &BTreeMap::new()), plain);
    }
}
