//! Structured diagnostics shared by the plan linter and the protocol model
//! checker.
//!
//! Every finding carries a stable [`Code`] (`DLB-Exxx` / `DLB-Wxxx`), a
//! [`Severity`], a [`Span`] into the loop-nest IR (or a protocol-model
//! pseudo-span), a one-line message, and free-form notes — for the model
//! checker, the replayable counterexample trace. A [`Report`] collects the
//! findings of one analysis target and renders them as text.

use dlb_compiler::Span;

/// Stable diagnostic codes. The catalog is documented in DESIGN.md §9;
/// codes are never reused, only retired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Owner-computes violation: a statement writes an element owned by a
    /// different distributed iteration without a modeled transfer.
    E001,
    /// Carried dependence not modeled by the plan's pattern.
    E002,
    /// Plan allows direct (non-adjacent) work movement while the loop
    /// carries a dependence.
    E003,
    /// Chosen hook site exceeds the overhead budget.
    E004,
    /// Strip-mine bounds drop or duplicate iterations.
    E005,
    /// Pipelined plan with a non-nearest-neighbour carried distance.
    E006,
    /// Plan pattern contradicts the dependence analysis.
    E007,
    /// Protocol: a work unit applied more than once.
    E101,
    /// Protocol: quiescence with work units lost.
    E102,
    /// Protocol: reachable non-quiescent state with no enabled action.
    E103,
    /// Transfer protocol: a migrated work unit duplicated (applied twice,
    /// or held by both endpoints at once).
    E104,
    /// Transfer protocol: quiescence with a migrated work unit lost.
    E105,
    /// Transfer protocol: reachable non-quiescent state with no enabled
    /// action (a wedged migration).
    E106,
    /// Election protocol: two masters promoted in one term (split brain).
    E107,
    /// Election protocol: a winner's electing quorum contained a deputy
    /// with a strictly fresher replica (newest-replica rule broken).
    E108,
    /// Election protocol: reachable non-quiescent state with no enabled
    /// action (a wedged election).
    E109,
    /// Trace conformance: a runtime trace contains an election action that
    /// is not enabled in the protocol model at that point — the
    /// implementation diverged from the checked abstraction (refinement
    /// violation).
    E110,
    /// Join protocol: a zombie incarnation (a slot's pre-eviction life)
    /// was credited as the member after a newer life was admitted
    /// (incarnation fence broken).
    E111,
    /// Join protocol: a checkpoint acknowledgement below the admission ack
    /// floor was credited — a rejoiner is booked as holding snapshot state
    /// it was never shipped (stale-snapshot join).
    E112,
    /// Join protocol: reachable non-quiescent state with no enabled action
    /// (a wedged join/rejoin handshake).
    E113,
    /// Election protocol: a takeover restarts from a snapshot that does not
    /// cover every unit (a fragment died with the master).
    E114,
    /// No acceptable hook site existed; the placement is best-effort.
    W001,
    /// Data-dependent iteration cost: flops figures are expectations.
    W002,
    /// Global dependence implies broadcast communication each invocation.
    W003,
    /// Retired (superseded by [`Code::W102`]); never reused.
    W101,
    /// Exploration was truncated by its bounds: the verdict certifies only
    /// the explored prefix, not the full state space.
    W102,
}

impl Code {
    /// Severity is a property of the code, not the call site.
    pub fn severity(self) -> Severity {
        match self {
            Code::W001 | Code::W002 | Code::W003 | Code::W101 | Code::W102 => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Short human description of what the code means.
    pub fn title(self) -> &'static str {
        match self {
            Code::E001 => "owner-computes violation",
            Code::E002 => "unmodeled carried dependence",
            Code::E003 => "illegal direct work movement",
            Code::E004 => "hook overhead over budget",
            Code::E005 => "strip-mine bounds mismatch",
            Code::E006 => "non-nearest-neighbour pipeline",
            Code::E007 => "pattern contradicts dependences",
            Code::E101 => "duplicate work-unit application",
            Code::E102 => "lost work unit",
            Code::E103 => "protocol deadlock",
            Code::E104 => "duplicate migrated work unit",
            Code::E105 => "lost migrated work unit",
            Code::E106 => "transfer deadlock",
            Code::E107 => "split-brain election",
            Code::E108 => "stale-replica winner",
            Code::E109 => "election deadlock",
            Code::E110 => "runtime trace diverges from model",
            Code::E111 => "double-incarnation credit",
            Code::E112 => "stale-snapshot join",
            Code::E113 => "join deadlock",
            Code::E114 => "takeover from a torn snapshot",
            Code::W001 => "no acceptable hook site",
            Code::W002 => "data-dependent iteration cost",
            Code::W003 => "broadcast communication",
            Code::W101 => "model bounds truncated (retired)",
            Code::W102 => "exploration truncated; verdict is bounded, not exhaustive",
        }
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DLB-{self:?}")
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    pub span: Span,
    pub message: String,
    /// Supporting detail, one line each (dependence lists, counterexample
    /// trace steps, budget numbers).
    pub notes: Vec<String>,
}

impl Diagnostic {
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    pub fn with_notes(mut self, notes: Vec<String>) -> Diagnostic {
        self.notes = notes;
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})\n  --> {}",
            self.severity,
            self.code,
            self.message,
            self.code.title(),
            self.span
        )?;
        for n in &self.notes {
            write!(f, "\n  note: {n}")?;
        }
        Ok(())
    }
}

/// All findings for one analysis target (a program+plan, or the protocol
/// model), ordered as produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub target: String,
    pub diagnostics: Vec<Diagnostic>,
    /// What a clean pass covered (states, depth, actions pruned), printed
    /// after `clean` so a log shows a check getting weaker, not only slower.
    pub tally: Option<String>,
}

impl Report {
    pub fn new(target: impl Into<String>) -> Report {
        Report {
            target: target.into(),
            diagnostics: Vec::new(),
            tally: None,
        }
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// True if a diagnostic with `code` is present.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Render the report as the text `dlb-lint` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let errors = self.errors().count();
        let warnings = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        if self.diagnostics.is_empty() {
            let tally = self.tally.as_ref().map(|t| format!(" ({t})"));
            let _ = writeln!(out, "{}: clean{}", self.target, tally.unwrap_or_default());
        } else {
            let _ = writeln!(
                out,
                "{}: {errors} error(s), {warnings} warning(s)",
                self.target
            );
            for d in &self.diagnostics {
                let _ = writeln!(out, "{d}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_stably() {
        assert_eq!(Code::E001.to_string(), "DLB-E001");
        assert_eq!(Code::W101.to_string(), "DLB-W101");
        assert_eq!(Code::E003.severity(), Severity::Error);
        assert_eq!(Code::W002.severity(), Severity::Warning);
    }

    #[test]
    fn report_tracks_errors_and_renders() {
        let mut r = Report::new("demo");
        assert!(!r.has_errors());
        r.push(Diagnostic::new(
            Code::W002,
            Span::program("demo"),
            "cost is an expectation",
        ));
        assert!(!r.has_errors());
        r.push(
            Diagnostic::new(
                Code::E003,
                Span::of_loop("demo", &["t", "i"]),
                "direct movement with carried dependence",
            )
            .with_notes(vec!["carried distances: [1]".into()]),
        );
        assert!(r.has_errors());
        assert!(r.has(Code::E003));
        assert!(!r.has(Code::E001));
        let text = r.render();
        assert!(text.contains("1 error(s), 1 warning(s)"), "{text}");
        assert!(text.contains("DLB-E003"), "{text}");
        assert!(text.contains("demo: t>i"), "{text}");
        assert!(text.contains("note: carried distances"), "{text}");
    }
}
