//! Buffer-lifetime pass: one forward sweep over a device trace tracking
//! every buffer from its `Alloc`/`PoolAlloc` to its `Free`.
//!
//! Detects use-after-free (GL001), double-free (GL002), read of a buffer
//! nothing ever wrote (GL003), buffers never freed by the end of the
//! trace (GL004), dead transfers — a device→host copy of never-written
//! data (GL005), a host→device upload nothing ever reads (GL006) — and
//! frees of buffers the trace never saw allocated (GL007).
//!
//! ## Conservatism
//!
//! Launch sites that do not declare their footprint record
//! [`KernelIo::Unknown`]; such a kernel may touch every buffer live at
//! launch time, so the pass suppresses every *suspicion*-class rule
//! (GL003/GL005/GL006) for those buffers and never charges the kernel
//! with a hazard. Partial io wiring therefore weakens detection but can
//! not create false positives. Likewise, traces containing injected
//! faults ([`TraceKind::Fault`]) skip the dead-transfer rules: a retry
//! loop legitimately abandons uploads mid-operator.

use crate::diag::{Diagnostic, Rule};
use crate::liveness::{Access, Liveness};
use gpu_sim::{BufferId, KernelIo, TraceEvent, TraceKind};

/// What the suspicion rules track per buffer life.
#[derive(Debug, Default)]
struct BufState {
    /// Received data at some point: born with meaningful data (`init`
    /// on the alloc event), kernel write, HtoD, or DtoD dst.
    written: bool,
    /// Was read at some point: kernel read, DtoH, or DtoD src.
    read: bool,
    /// A `KernelIo::Unknown` launch happened while this buffer was live
    /// (it may have been read or written — suppress suspicion rules).
    unknown_overlap: bool,
    /// Any kernel launch happened while this buffer was live. Without
    /// one the buffer is a materialize-and-discard artifact (no compute
    /// could have consumed it), not a dead upload.
    kernel_overlap: bool,
    first_unwritten_read: Option<usize>,
    htod_events: Vec<usize>,
    dtoh_events: Vec<usize>,
}

type Buffers = Liveness<BufferId, BufState>;

/// A buffer access at event `i`: GL001 while freed; ids the window never
/// saw allocated are ignored (pre-window buffers, not hazards).
fn access<'a>(
    bufs: &'a mut Buffers,
    diags: &mut Vec<Diagnostic>,
    i: usize,
    id: BufferId,
    verb: impl std::fmt::Display,
) -> Option<&'a mut BufState> {
    match bufs.access(id) {
        Access::Live(st) => Some(st),
        Access::Freed(freed) => {
            diags.push(Diagnostic::new(
                Rule::UseAfterFree,
                vec![freed, i],
                format!("{verb} of {id} after its free"),
            ));
            None
        }
        Access::Undefined => None,
    }
}

/// Run the lifetime pass over `events` (one `take_trace` window; the
/// window must contain each analyzed buffer's whole life for the leak
/// and unknown-free rules to be meaningful).
pub(crate) fn lint_buffers(events: &[TraceEvent]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut bufs = Buffers::new();
    let has_faults = events.iter().any(|e| matches!(e.kind, TraceKind::Fault(_)));

    for (i, e) in events.iter().enumerate() {
        match &e.kind {
            TraceKind::Alloc { buf, init, .. } | TraceKind::PoolAlloc { buf, init, .. } => {
                let st = BufState {
                    written: *init,
                    ..BufState::default()
                };
                // Ids are never reused, so a collision means the producer
                // is broken — surface it as a leak of the first life.
                if let Some(born) = bufs.define(*buf, i, st) {
                    diags.push(Diagnostic::new(
                        Rule::LeakedBuffer,
                        vec![born, i],
                        format!("{buf} reallocated while still live"),
                    ));
                }
            }
            TraceKind::Free { buf } => match bufs.free(*buf, i) {
                Access::Live(_) => {}
                Access::Freed(first) => diags.push(Diagnostic::new(
                    Rule::DoubleFree,
                    vec![first, i],
                    format!("{buf} freed twice"),
                )),
                Access::Undefined => diags.push(Diagnostic::new(
                    Rule::UnknownFree,
                    vec![i],
                    format!("free of {buf}, which this trace never allocated"),
                )),
            },
            TraceKind::HtoD { buf, .. } => {
                if let Some(st) = access(&mut bufs, &mut diags, i, *buf, "host\u{2192}device write")
                {
                    st.written = true;
                    st.htod_events.push(i);
                }
            }
            TraceKind::DtoH { buf, .. } => {
                if let Some(st) = access(&mut bufs, &mut diags, i, *buf, "device\u{2192}host read")
                {
                    st.read = true;
                    st.dtoh_events.push(i);
                }
            }
            TraceKind::DtoD { src, dst, .. } => {
                if let Some(st) = access(&mut bufs, &mut diags, i, *src, "copy read") {
                    st.read = true;
                }
                if let Some(st) = access(&mut bufs, &mut diags, i, *dst, "copy write") {
                    st.written = true;
                }
            }
            TraceKind::Kernel { name, io, .. } => {
                let unknown = matches!(io, KernelIo::Unknown);
                for st in bufs.live_mut() {
                    st.unknown_overlap |= unknown;
                    st.kernel_overlap = true;
                }
                if let KernelIo::Known { reads, writes } = io {
                    for r in reads {
                        let verb = format_args!("kernel {name:?} read");
                        if let Some(st) = access(&mut bufs, &mut diags, i, *r, verb) {
                            st.read = true;
                            if !st.written && st.first_unwritten_read.is_none() {
                                st.first_unwritten_read = Some(i);
                            }
                        }
                    }
                    for w in writes {
                        let verb = format_args!("kernel {name:?} write");
                        if let Some(st) = access(&mut bufs, &mut diags, i, *w, verb) {
                            st.written = true;
                        }
                    }
                }
            }
            TraceKind::Jit(_) | TraceKind::Fault(_) | TraceKind::Recovery(_) => {}
        }
    }

    // End-of-trace rules, in buffer-creation order for stable output.
    let mut ordered: Vec<_> = bufs.lives().collect();
    ordered.sort_by_key(|(_, life)| life.def);
    for (id, life) in ordered {
        let st = &life.data;
        if life.freed.is_none() {
            diags.push(Diagnostic::new(
                Rule::LeakedBuffer,
                vec![life.def],
                format!("{id} is still live at the end of the trace"),
            ));
        }
        // Suspicion-class rules: only for buffers whose whole life is
        // precisely known (no Unknown-footprint kernel overlapped it).
        if st.unknown_overlap {
            continue;
        }
        if let Some(read) = st.first_unwritten_read {
            if !st.written {
                diags.push(Diagnostic::new(
                    Rule::ReadBeforeWrite,
                    vec![read],
                    format!("{id} is read but nothing ever writes it"),
                ));
            }
        }
        if !st.written && !st.dtoh_events.is_empty() {
            diags.push(Diagnostic::new(
                Rule::DeadDeviceToHost,
                st.dtoh_events.clone(),
                format!("device\u{2192}host copy of {id}, which nothing ever wrote"),
            ));
        }
        // A dead upload requires compute to have happened around the
        // buffer: with no kernel in its live window, the buffer is a
        // deliberately-discarded materialization, not a missed consumer.
        if !st.read && !st.htod_events.is_empty() && st.kernel_overlap {
            diags.push(Diagnostic::new(
                Rule::DeadHostToDevice,
                st.htod_events.clone(),
                format!("{id} is uploaded but never read on the device"),
            ));
        }
    }

    // Fault-bearing traces abandon transfers legitimately (retries).
    if has_faults {
        diags.retain(|d| {
            !matches!(
                d.rule,
                Rule::DeadDeviceToHost | Rule::DeadHostToDevice | Rule::ReadBeforeWrite
            )
        });
    }

    diags.sort_by_key(|d| (d.events.first().copied().unwrap_or(0), d.rule.id()));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind) -> TraceEvent {
        TraceEvent::new(0, 0, kind)
    }

    fn alloc(n: u64, init: bool) -> TraceEvent {
        ev(TraceKind::Alloc {
            bytes: 64,
            buf: BufferId(n),
            init,
        })
    }

    fn free(n: u64) -> TraceEvent {
        ev(TraceKind::Free { buf: BufferId(n) })
    }

    fn kernel(reads: &[u64], writes: &[u64]) -> TraceEvent {
        let r: Vec<BufferId> = reads.iter().map(|&n| BufferId(n)).collect();
        let w: Vec<BufferId> = writes.iter().map(|&n| BufferId(n)).collect();
        ev(TraceKind::Kernel {
            name: "k".into(),
            io: KernelIo::known(&r, &w),
            bytes_read: 0,
            bytes_written: 0,
        })
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn read_before_later_write_stays_silent() {
        // The radix-sort ping-pong shape: the temp buffer is declared
        // read in early phases and written later. Not flagged.
        let t = vec![
            alloc(1, false),
            kernel(&[1], &[]),
            kernel(&[], &[1]),
            free(1),
        ];
        assert!(lint_buffers(&t).is_empty());
    }

    #[test]
    fn materialize_and_discard_upload_is_not_dead() {
        // Upload → free with no kernel launched in the live window: the
        // ArrayFire result-materialization shape, deliberately discarded.
        let t = vec![
            alloc(1, false),
            kernel(&[], &[1]),
            alloc(2, true),
            ev(TraceKind::HtoD {
                bytes: 64,
                buf: BufferId(2),
            }),
            free(2),
            free(1),
        ];
        assert!(lint_buffers(&t).is_empty());
    }

    #[test]
    fn unknown_kernel_suppresses_suspicions_but_not_hazards() {
        let unknown = ev(TraceKind::Kernel {
            name: "k".into(),
            io: KernelIo::Unknown,
            bytes_read: 0,
            bytes_written: 0,
        });
        // Upload never explicitly read, but an Unknown launch overlapped:
        // no dead-upload warning.
        let t = vec![
            alloc(1, true),
            ev(TraceKind::HtoD {
                bytes: 64,
                buf: BufferId(1),
            }),
            unknown.clone(),
            free(1),
        ];
        assert!(lint_buffers(&t).is_empty());
        // Use-after-free still fires with Unknown launches around.
        let t = vec![alloc(1, true), free(1), unknown, kernel(&[1], &[])];
        assert_eq!(rules(&lint_buffers(&t)), vec!["GL001"]);
    }

    #[test]
    fn fault_traces_skip_dead_transfer_rules() {
        let t = vec![
            ev(TraceKind::Fault("kernel".into())),
            alloc(1, true),
            ev(TraceKind::HtoD {
                bytes: 64,
                buf: BufferId(1),
            }),
            free(1),
        ];
        assert!(lint_buffers(&t).is_empty());
    }
}
