//! Recovery-timeline pass: lifecycle invariants of plan-level fault
//! recovery, checked after a resilient plan execution.
//!
//! The input is the crate's own [`RecoveryTimeline`] shape (the same
//! decoupling [`crate::physplan`] uses for compiled plans), so the
//! analyzer does not depend on the executor; `bench`'s lint driver
//! converts `proto_core::resilient_plan::RecoveryLog` losslessly.
//!
//! Checks, in one forward walk over the recovery events:
//!
//! * **GL501** — a slot is checkpointed *after* it was freed within the
//!   same execution attempt. A checkpoint of a freed slot would resume
//!   a retry or fallback from recycled device memory — on real hardware
//!   that replays garbage into the rest of the plan. [`RecoveryEventKind::
//!   AttemptStart`] resets the freed-set: a replay attempt (and each
//!   partition chunk) legitimately re-checkpoints slots the previous
//!   attempt freed.
//! * **GL502** — a retry policy with `max_retries > 0` but a zero
//!   backoff budget (warning): every retry fires immediately, so a
//!   persistent transient (a flapping link, a thrashing allocator)
//!   becomes a retry storm that burns the whole fault window without
//!   ever giving the device time to recover.
//!
//! Diagnostic spans hold *event indices* into the timeline.

use crate::diag::{Diagnostic, Rule};
use std::collections::BTreeSet;

/// One recovery action, as the lint sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEventKind {
    /// A fresh execution attempt began (first run, retry replay,
    /// fallback replay, or a partition chunk). Resets slot lifetimes.
    AttemptStart,
    /// A step's output slot completed and became part of the
    /// checkpoint.
    Checkpoint {
        /// The checkpointed slot.
        slot: usize,
    },
    /// An explicit plan `Free` released a slot.
    Freed {
        /// The freed slot.
        slot: usize,
    },
    /// A transient fault was retried after a backoff.
    Retry {
        /// Simulated backoff charged before the replay.
        backoff_ns: u64,
    },
    /// Execution fell back to the next backend lane.
    Fallback {
        /// Backend abandoned.
        from: String,
        /// Backend taking over.
        to: String,
    },
    /// The plan was re-executed over horizontal partitions.
    Partition {
        /// Number of partitions.
        parts: usize,
    },
}

/// One timestamped recovery action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Step index the action anchors to.
    pub step: usize,
    /// What happened.
    pub kind: RecoveryEventKind,
}

/// The recovery history of one resilient plan execution, plus the
/// retry-policy facts the GL502 check needs.
#[derive(Debug, Clone, Default)]
pub struct RecoveryTimeline {
    /// `RetryPolicy::max_retries` in force during the execution.
    pub max_retries: u32,
    /// Total simulated backoff the policy would charge across a full
    /// retry ladder (`Σ backoff(attempt)` for `attempt < max_retries`).
    pub backoff_budget_ns: u64,
    /// The recovery events, in execution order.
    pub events: Vec<RecoveryEvent>,
}

/// Run the recovery-timeline checks. Diagnostic spans are indices into
/// `timeline.events`.
pub(crate) fn lint_recovery(timeline: &RecoveryTimeline) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    if timeline.max_retries > 0 && timeline.backoff_budget_ns == 0 {
        diags.push(Diagnostic::new(
            Rule::RetryWithoutBackoff,
            vec![],
            format!(
                "retry policy allows {} retries with a zero backoff budget: \
                 a persistent transient becomes an immediate retry storm",
                timeline.max_retries
            ),
        ));
    }

    let mut freed: BTreeSet<usize> = BTreeSet::new();
    let mut freed_at: Vec<(usize, usize)> = Vec::new(); // (slot, event index)
    for (i, ev) in timeline.events.iter().enumerate() {
        match &ev.kind {
            RecoveryEventKind::AttemptStart => {
                freed.clear();
                freed_at.clear();
            }
            RecoveryEventKind::Freed { slot } => {
                freed.insert(*slot);
                freed_at.push((*slot, i));
            }
            RecoveryEventKind::Checkpoint { slot } => {
                if freed.contains(slot) {
                    let at = freed_at
                        .iter()
                        .rev()
                        .find(|(s, _)| s == slot)
                        .map(|&(_, ix)| ix)
                        .unwrap_or(i);
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

    fn ev(step: usize, kind: RecoveryEventKind) -> RecoveryEvent {
        RecoveryEvent { step, kind }
    }

    fn healthy() -> RecoveryTimeline {
        RecoveryTimeline {
            max_retries: 8,
            backoff_budget_ns: 50_000,
            events: vec![
                ev(0, RecoveryEventKind::AttemptStart),
                ev(0, RecoveryEventKind::Checkpoint { slot: 0 }),
                ev(1, RecoveryEventKind::Retry { backoff_ns: 50 }),
                ev(1, RecoveryEventKind::Checkpoint { slot: 1 }),
                ev(2, RecoveryEventKind::Freed { slot: 0 }),
                ev(3, RecoveryEventKind::Checkpoint { slot: 2 }),
            ],
        }
    }

    #[test]
    fn a_healthy_timeline_is_clean() {
        assert!(lint_recovery(&healthy()).is_empty());
    }

    #[test]
    fn checkpoint_after_free_is_an_error() {
        let mut t = healthy();
        t.events
            .push(ev(4, RecoveryEventKind::Checkpoint { slot: 0 }));
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
        t.events.push(ev(0, RecoveryEventKind::AttemptStart));
        t.events
            .push(ev(0, RecoveryEventKind::Checkpoint { slot: 0 }));
        assert!(lint_recovery(&t).is_empty());
    }

    #[test]
    fn partition_chunks_reuse_slots_without_firing() {
        let t = RecoveryTimeline {
            max_retries: 0,
            backoff_budget_ns: 0,
            events: vec![
                ev(0, RecoveryEventKind::Partition { parts: 4 }),
                ev(0, RecoveryEventKind::AttemptStart),
                ev(0, RecoveryEventKind::Checkpoint { slot: 0 }),
                ev(1, RecoveryEventKind::Freed { slot: 0 }),
                ev(0, RecoveryEventKind::AttemptStart),
                ev(0, RecoveryEventKind::Checkpoint { slot: 0 }),
            ],
        };
        assert!(lint_recovery(&t).is_empty());
    }

    #[test]
    fn retries_without_backoff_budget_warn() {
        let t = RecoveryTimeline {
            max_retries: 8,
            backoff_budget_ns: 0,
            events: vec![],
        };
        let diags = lint_recovery(&t);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::RetryWithoutBackoff);
        assert_eq!(diags[0].severity(), Severity::Warning);
        // No retries at all is fine without a budget.
        let none = RecoveryTimeline::default();
        assert!(lint_recovery(&none).is_empty());
    }
}
