//! Recovery-log pass (GL5xx): lifecycle invariants of plan-level fault
//! recovery, checked over the resilient plan executor's own
//! [`RecoveryLog`] after an execution.
//!
//! * **GL501** — a slot is checkpointed *after* it was freed within the
//!   same execution attempt: a resume would replay recycled device
//!   memory into the rest of the plan. On the [`Liveness`] walk a
//!   checkpoint defines the slot, `Freed` frees it, and a checkpoint of a
//!   freed slot is a use after free; `AttemptStart` resets the walk (a
//!   replay or partition chunk re-checkpoints what the last one freed).
//!
//! Diagnostic spans hold *event indices* into the log.

use crate::diag::{Diagnostic, Rule};
use crate::liveness::{Access, Liveness};
use proto_core::resilient_plan::{RecoveryEventKind, RecoveryLog};

/// Run the recovery-log checks. Diagnostic spans are indices into
/// `log.events`.
pub(crate) fn lint_recovery(log: &RecoveryLog) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut slots: Liveness<usize> = Liveness::new();
    for (i, ev) in log.events.iter().enumerate() {
        match ev.kind {
            RecoveryEventKind::AttemptStart => slots.reset(),
            RecoveryEventKind::Freed { slot } => {
                slots.free(slot, i);
            }
            RecoveryEventKind::Checkpoint { slot } => {
                if let Access::Freed(at) = slots.access(slot) {
                    diags.push(Diagnostic::new(
                        Rule::CheckpointAfterFree,
                        vec![at, i],
                        format!(
                            "slot {slot} checkpointed at step {} after being freed \
                             in the same attempt: a resume would replay recycled memory",
                            ev.step
                        ),
                    ));
                }
                slots.define(slot, i, ());
            }
            RecoveryEventKind::Retry { .. }
            | RecoveryEventKind::Fallback { .. }
            | RecoveryEventKind::Partition { .. } => {}
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use proto_core::resilient_plan::RecoveryEvent;
    use RecoveryEventKind::{AttemptStart, Checkpoint, Freed};

    fn ev(step: usize, kind: RecoveryEventKind) -> RecoveryEvent {
        RecoveryEvent { step, kind }
    }

    fn log(events: Vec<RecoveryEvent>) -> RecoveryLog {
        RecoveryLog {
            query: "Q".into(),
            events,
        }
    }

    fn healthy() -> RecoveryLog {
        log(vec![
            ev(0, AttemptStart),
            ev(0, Checkpoint { slot: 0 }),
            ev(1, RecoveryEventKind::Retry { backoff_ns: 50 }),
            ev(1, Checkpoint { slot: 1 }),
            ev(2, Freed { slot: 0 }),
            ev(3, Checkpoint { slot: 2 }),
        ])
    }

    #[test]
    fn a_healthy_log_is_clean() {
        assert!(lint_recovery(&healthy()).is_empty());
    }

    #[test]
    fn checkpoint_after_free_is_an_error() {
        let mut t = healthy();
        t.events.push(ev(4, Checkpoint { slot: 0 }));
        let diags = lint_recovery(&t);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::CheckpointAfterFree);
        assert_eq!(diags[0].severity(), Severity::Error);
        assert_eq!(diags[0].events, vec![4, 6], "anchors the free and the use");
        assert!(diags[0].message.contains("slot 0"));
    }

    #[test]
    fn attempt_start_resets_the_freed_set() {
        let mut t = healthy();
        // A fallback replay legitimately re-checkpoints slot 0.
        t.events.push(ev(
            0,
            RecoveryEventKind::Fallback {
                from: "Thrust".into(),
                to: "Handwritten".into(),
            },
        ));
        t.events.push(ev(0, AttemptStart));
        t.events.push(ev(0, Checkpoint { slot: 0 }));
        assert!(lint_recovery(&t).is_empty());
    }

    #[test]
    fn partition_chunks_reuse_slots_without_firing() {
        let t = log(vec![
            ev(0, RecoveryEventKind::Partition { parts: 4 }),
            ev(0, AttemptStart),
            ev(0, Checkpoint { slot: 0 }),
            ev(1, Freed { slot: 0 }),
            ev(0, AttemptStart),
            ev(0, Checkpoint { slot: 0 }),
        ]);
        assert!(lint_recovery(&t).is_empty());
    }
}
