//! The diagnostics core: stable rule identities, severities, event
//! spans, and rendered reports.
//!
//! Every pass emits [`Diagnostic`]s keyed by a [`Rule`] with a stable
//! `GLxxx` id — ids never change meaning, so CI gates, suppressions and
//! the hazard-injection tests can match on them across versions. Rule
//! numbering is grouped by pass family: `GL0xx` buffer lifetimes,
//! `GL6xx` costed-plan resource estimates. Retired ids are not reused:
//! `GL1xx` (stream ordering), `GL2xx` (compiled Programs), `GL3xx`
//! (scheduler plans), `GL4xx` (physical-plan slots and operands),
//! `GL5xx` (recovery logs) and `GL7xx` (planner translation validation).

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but semantically defined in the simulator (wasted
    /// work, leaked resources at teardown).
    Warning,
    /// A genuine hazard: on real hardware this is undefined behaviour,
    /// corruption, or a crash.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Declares [`Rule`] once: each line is a variant, its stable id and its
/// fixed severity, so the enum, [`Rule::id`] and [`Rule::severity`]
/// cannot disagree (and the tests get the full variant list).
macro_rules! rules {
    ($($(#[$doc:meta])* $name:ident = $id:literal $sev:ident,)*) => {
        /// Every rule the analyzer knows, with a stable `GLxxx` id.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Rule {
            $($(#[$doc])* $name,)*
        }

        impl Rule {
            #[cfg(test)]
            const ALL: &'static [Rule] = &[$(Rule::$name,)*];

            /// The stable diagnostic id, e.g. `"GL001"`.
            pub fn id(self) -> &'static str {
                match self {
                    $(Rule::$name => $id,)*
                }
            }

            /// The rule's fixed severity.
            pub(crate) fn severity(self) -> Severity {
                match self {
                    $(Rule::$name => Severity::$sev,)*
                }
            }
        }
    };
}

rules! {
    /// GL001 — access to a buffer after its free.
    UseAfterFree = "GL001" Error,
    /// GL002 — second free of an already-freed buffer.
    DoubleFree = "GL002" Error,
    /// GL003 — kernel reads a buffer that was never written.
    ReadBeforeWrite = "GL003" Warning,
    /// GL004 — buffer never freed by the end of the trace.
    LeakedBuffer = "GL004" Warning,
    /// GL005 — device→host copy of a buffer nothing ever wrote.
    DeadDeviceToHost = "GL005" Warning,
    /// GL006 — host→device upload of a buffer nothing ever read.
    DeadHostToDevice = "GL006" Warning,
    /// GL007 — free of a buffer the trace never saw allocated.
    UnknownFree = "GL007" Error,
    /// GL601 — a costed plan's estimated peak device bytes exceed the
    /// declared memory budget: partitioned execution will engage.
    CostExceedsMemBudget = "GL601" Warning,
    /// GL602 — a costed plan's estimated peak device bytes exceed the
    /// device's physical memory: it cannot run un-partitioned.
    CostExceedsDeviceMemory = "GL602" Error,
}

/// One finding: a rule, where in the analyzed artifact it anchors, and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Indices of the implicated trace events (the cost-report pass
    /// anchors none). Ordered; the first index is the anchor.
    pub events: Vec<usize>,
    /// What went wrong, with buffer/slot identities inline.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic over `events` (kept sorted for stable output).
    pub fn new(rule: Rule, events: Vec<usize>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rule,
            events,
            message: message.into(),
        }
    }

    /// The rule's severity.
    pub(crate) fn severity(&self) -> Severity {
        self.rule.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}",
            self.severity(),
            self.rule.id(),
            self.message
        )?;
        if !self.events.is_empty() {
            let spans: Vec<String> = self.events.iter().map(|e| format!("#{e}")).collect();
            write!(f, " (at {})", spans.join(", "))?;
        }
        Ok(())
    }
}

/// A documented allowance: findings of `rule` on targets whose name
/// starts with `target_prefix` are expected **by design** and removed
/// by [`Report::waive`]. Every waiver must carry the why — the table of
/// waivers is part of the analyzer's contract, not an escape hatch.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Target-name prefix the waiver applies to (e.g. `"E5a/"`).
    pub target_prefix: String,
    /// The single rule being waived.
    pub rule: Rule,
    /// Why the finding is intended behaviour.
    pub reason: String,
}

impl Waiver {
    /// Build a waiver.
    pub fn new(target_prefix: impl Into<String>, rule: Rule, reason: impl Into<String>) -> Waiver {
        Waiver {
            target_prefix: target_prefix.into(),
            rule,
            reason: reason.into(),
        }
    }
}

/// All findings for one analyzed artifact.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// What was analyzed, e.g. `"E3/Thrust"`.
    pub target: String,
    /// Findings in detection order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// A report over `diagnostics` for `target`.
    pub fn new(target: impl Into<String>, diagnostics: Vec<Diagnostic>) -> Report {
        Report {
            target: target.into(),
            diagnostics,
        }
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Whether nothing fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Drop findings covered by `waivers`; returns how many were waived.
    pub fn waive(&mut self, waivers: &[Waiver]) -> usize {
        let applicable: Vec<Rule> = waivers
            .iter()
            .filter(|w| self.target.starts_with(&w.target_prefix))
            .map(|w| w.rule)
            .collect();
        let before = self.diagnostics.len();
        self.diagnostics.retain(|d| !applicable.contains(&d.rule));
        before - self.diagnostics.len()
    }

    /// Render the report: one headline plus one line per finding.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!("{}: clean\n", self.target));
        } else {
            out.push_str(&format!(
                "{}: {} error(s), {} warning(s)\n",
                self.target,
                self.errors(),
                self.warnings()
            ));
            for d in &self.diagnostics {
                out.push_str(&format!("  {d}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique() {
        let ids: std::collections::HashSet<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), Rule::ALL.len(), "ids collide");
    }

    /// DESIGN.md §7's catalogue table and the `rules!` table list the
    /// same (id, severity) pairs — a rule added, removed or re-graded on
    /// one side only fails here.
    #[test]
    fn design_catalogue_lists_exactly_the_rules() {
        let design = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));
        let catalogue = design
            .split_once("### Rule catalogue")
            .and_then(|(_, rest)| rest.split_once("\n### "))
            .map(|(section, _)| section)
            .expect("DESIGN.md has a `### Rule catalogue` section");
        let documented: std::collections::BTreeSet<(&str, &str)> = catalogue
            .lines()
            .filter_map(|line| {
                let mut cells = line.split('|').map(str::trim);
                let (_, id, sev) = (cells.next()?, cells.next()?, cells.next()?);
                id.starts_with("GL").then_some((id, sev))
            })
            .collect();
        let declared: std::collections::BTreeSet<(&str, &str)> = Rule::ALL
            .iter()
            .map(|r| {
                let sev = match r.severity() {
                    Severity::Error => "E",
                    Severity::Warning => "W",
                };
                (r.id(), sev)
            })
            .collect();
        let drift: Vec<_> = documented.symmetric_difference(&declared).collect();
        assert!(
            drift.is_empty(),
            "in only one of DESIGN.md §7 and diag.rs: {drift:?}"
        );
    }

    #[test]
    fn report_counts_and_renders() {
        let r = Report::new(
            "t",
            vec![
                Diagnostic::new(Rule::UseAfterFree, vec![3, 7], "b1 used after free"),
                Diagnostic::new(Rule::LeakedBuffer, vec![2], "b2 leaked"),
            ],
        );
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert!(!r.is_clean());
        let text = r.render();
        assert!(text.contains("error [GL001] b1 used after free (at #3, #7)"));
        assert!(text.contains("warning [GL004]"));
        assert!(Report::new("x", vec![]).render().contains("clean"));
    }
}
