//! The diagnostic model: severities, diagnostics, reports and their renderers.
//!
//! Everything here is deliberately deterministic: a [`CheckReport`] carries no paths,
//! timestamps or machine state, and both renderers produce byte-identical output for the
//! same trace regardless of where the check ran. The server's `Check` request relies on
//! this — `rprism remote check <hash>` must print exactly what a local `rprism check` of
//! the same blob prints.

use std::fmt;
use std::str::FromStr;

/// How serious a diagnostic is. Ordered: `Info < Warning < Error`, so severity
/// thresholds (`--deny <sev>`) are plain comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A benign observation (e.g. an aborted run leaving calls unreturned).
    Info,
    /// A suspicious shape that a well-formed recorder should not produce.
    Warning,
    /// A violation of a trace-model invariant.
    Error,
}

impl Severity {
    /// All severities, weakest first.
    pub const ALL: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Error];

    /// The lowercase name used by renderers and the CLI (`info`, `warning`, `error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The error returned when parsing an unknown severity name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSeverityError(pub String);

impl fmt::Display for ParseSeverityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown severity {:?} (expected info, warning or error)",
            self.0
        )
    }
}

impl std::error::Error for ParseSeverityError {}

impl FromStr for Severity {
    type Err = ParseSeverityError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "info" => Ok(Severity::Info),
            "warning" | "warn" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            other => Err(ParseSeverityError(other.to_owned())),
        }
    }
}

/// One finding of the rule engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The identifier of the rule that fired (see [`crate::rules`]).
    pub rule_id: &'static str,
    /// The effective severity (rule default, possibly overridden by configuration).
    pub severity: Severity,
    /// The index of the entry the diagnostic anchors to.
    pub entry_index: usize,
    /// A human-readable, deterministic description of the violation.
    pub message: String,
    /// Indexes of other entries involved (the matching call, the killing init, the
    /// conflicting access, …), ascending.
    pub related_entries: Vec<usize>,
}

/// The result of checking one trace: identification, scale, and the sorted diagnostics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// The trace name from the stream header ([`TraceMeta::name`]).
    ///
    /// [`TraceMeta::name`]: rprism_trace::TraceMeta
    pub trace_name: String,
    /// Number of entries checked.
    pub entries: usize,
    /// Number of distinct threads that emitted entries.
    pub threads: usize,
    /// Diagnostics dropped because the configured `max_diagnostics` cap was reached.
    pub suppressed: usize,
    /// The findings, sorted by `(entry_index, rule_id)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// `true` when no rule fired at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.suppressed == 0
    }

    /// The most severe diagnostic present, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Number of diagnostics at or above `floor`.
    pub fn count_at_least(&self, floor: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity >= floor)
            .count()
    }

    /// `(errors, warnings, infos)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Info => c.2 += 1,
            }
        }
        c
    }

    /// The diagnostics produced by one specific rule.
    pub fn by_rule<'a>(&'a self, rule_id: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.rule_id == rule_id)
    }

    /// Renders the report for humans: a header line, one line per diagnostic, and a
    /// summary line. Deterministic; contains no file paths.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "check: {} — {} entries, {} thread(s)\n",
            self.trace_name, self.entries, self.threads
        ));
        for d in &self.diagnostics {
            out.push_str(&format!(
                "  [{}] entry {} {}: {}",
                d.severity, d.entry_index, d.rule_id, d.message
            ));
            if !d.related_entries.is_empty() {
                let rel: Vec<String> = d.related_entries.iter().map(|i| i.to_string()).collect();
                out.push_str(&format!(" (related: {})", rel.join(", ")));
            }
            out.push('\n');
        }
        if self.suppressed > 0 {
            out.push_str(&format!(
                "  … {} further diagnostic(s) suppressed\n",
                self.suppressed
            ));
        }
        if self.is_clean() {
            out.push_str("summary: clean\n");
        } else {
            let (e, w, i) = self.counts();
            out.push_str(&format!(
                "summary: {e} error(s), {w} warning(s), {i} info(s)\n"
            ));
        }
        out
    }

    /// Renders the report as one JSON object (hand-rolled; the workspace carries no
    /// serialization dependency). Deterministic field order; contains no file paths.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let (e, w, i) = self.counts();
        out.push_str(&format!(
            "{{\"trace\":{},\"entries\":{},\"threads\":{},\"errors\":{e},\"warnings\":{w},\"infos\":{i},\"suppressed\":{},\"diagnostics\":[",
            json_string(&self.trace_name),
            self.entries,
            self.threads,
            self.suppressed,
        ));
        for (n, d) in self.diagnostics.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let rel: Vec<String> = d.related_entries.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!(
                "{{\"rule\":{},\"severity\":\"{}\",\"entry\":{},\"message\":{},\"related\":[{}]}}",
                json_string(d.rule_id),
                d.severity,
                d.entry_index,
                json_string(&d.message),
                rel.join(",")
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_and_names_round_trip() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        for sev in Severity::ALL {
            assert_eq!(sev.as_str().parse::<Severity>().unwrap(), sev);
        }
        assert!("fatal".parse::<Severity>().is_err());
    }

    fn sample_report() -> CheckReport {
        CheckReport {
            trace_name: "demo \"quoted\"".into(),
            entries: 3,
            threads: 1,
            suppressed: 0,
            diagnostics: vec![Diagnostic {
                rule_id: "return-without-call",
                severity: Severity::Error,
                entry_index: 2,
                message: "return from 'work' with no open call".into(),
                related_entries: vec![0, 1],
            }],
        }
    }

    #[test]
    fn human_rendering_is_stable() {
        let text = sample_report().render_human();
        assert!(text.starts_with("check: demo \"quoted\" — 3 entries, 1 thread(s)\n"));
        assert!(text.contains("[error] entry 2 return-without-call:"));
        assert!(text.contains("(related: 0, 1)"));
        assert!(text.ends_with("summary: 1 error(s), 0 warning(s), 0 info(s)\n"));
    }

    #[test]
    fn json_rendering_escapes_and_counts() {
        let json = sample_report().render_json();
        assert!(json.contains("\"trace\":\"demo \\\"quoted\\\"\""));
        assert!(json.contains("\"errors\":1,\"warnings\":0,\"infos\":0"));
        assert!(json.contains("\"related\":[0,1]"));
    }

    #[test]
    fn clean_report_renders_clean_summary() {
        let report = CheckReport {
            trace_name: "t".into(),
            entries: 0,
            threads: 0,
            suppressed: 0,
            diagnostics: vec![],
        };
        assert!(report.is_clean());
        assert!(report.render_human().ends_with("summary: clean\n"));
    }
}
