//! Report formatting: human `file:line: rule: message` lines and a
//! stable machine-readable JSON document (hand-rolled — this crate is
//! dependency-free by design).

use std::fmt::Write as _;

use crate::engine::LintReport;
use crate::passes::all_passes;
use crate::rules::all_rules;

/// Output format selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Human,
    Json,
    /// SARIF 2.1.0, the shape GitHub code scanning ingests.
    Sarif,
}

/// Renders `report` in `format`. The human form is grep- and
/// editor-friendly; the JSON form is versioned so CI consumers can
/// rely on its shape; the SARIF form uploads to code scanning.
pub fn render(report: &LintReport, format: Format) -> String {
    match format {
        Format::Human => human(report),
        Format::Json => json(report),
        Format::Sarif => sarif(report),
    }
}

fn human(report: &LintReport) -> String {
    let mut out = String::new();
    for v in &report.violations {
        let _ = writeln!(out, "{}:{}: {}: {}", v.file, v.line, v.rule, v.message);
        // The path-sensitive passes attach a witness path: one
        // indented step per hop, so the finding reads as a walk from
        // the acquisition/claim site to the violating edge.
        for s in &v.path {
            let _ = writeln!(out, "    {}:{} {}", s.file, s.line, s.label);
        }
    }
    let _ = writeln!(
        out,
        "nls-lint: {} violation(s) in {} file(s)",
        report.violations.len(),
        report.files
    );
    out
}

fn json(report: &LintReport) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}",
            json_str(&v.file),
            v.line,
            json_str(v.rule),
            json_str(&v.message),
        );
        // Witness path (additive field): present only for the
        // path-sensitive passes that record one.
        if !v.path.is_empty() {
            out.push_str(", \"path\": [");
            for (j, s) in v.path.iter().enumerate() {
                let psep = if j == 0 { "" } else { ", " };
                let _ = write!(
                    out,
                    "{psep}{{\"file\": {}, \"line\": {}, \"label\": {}}}",
                    json_str(&s.file),
                    s.line,
                    json_str(&s.label),
                );
            }
            out.push(']');
        }
        out.push('}');
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"timings\": [");
    for (i, (pass, micros)) in report.timings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ =
            write!(out, "{sep}\n    {{\"pass\": {}, \"micros\": {micros}}}", json_str(pass),);
    }
    if !report.timings.is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"summary\": {{\"files\": {}, \"violations\": {}, \"exit_code\": {}}}\n}}\n",
        report.files,
        report.violations.len(),
        report.exit_code(),
    );
    out
}

/// Minimal SARIF 2.1.0 document: one run, one rule descriptor per
/// rule/pass, one `error`-level result per violation. This is the
/// subset GitHub code scanning needs to annotate PRs.
fn sarif(report: &LintReport) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [{\n    \"tool\": {\"driver\": {\"name\": \"nls-lint\", \"informationUri\": \"https://example.invalid/nextline\", \"rules\": [",
    );
    let mut ids: Vec<(&'static str, &'static str)> = Vec::new();
    for r in all_rules() {
        ids.push((r.id(), r.summary()));
    }
    for p in all_passes() {
        ids.push((p.id(), p.summary()));
    }
    ids.push((
        crate::engine::SUPPRESSION_RULE,
        "malformed `nls-lint: allow(...)` annotation (missing rule list or reason)",
    ));
    for (i, (id, summary)) in ids.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n      {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
            json_str(id),
            json_str(summary),
        );
    }
    out.push_str("\n    ]}},\n    \"results\": [");
    for (i, v) in report.violations.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n      {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}]",
            json_str(v.rule),
            json_str(&v.message),
            json_str(&v.file),
            v.line.max(1),
        );
        // The path-sensitive passes attach a witness path — rendered
        // both as a codeFlow (the step-through view in code scanning)
        // and as relatedLocations (the inline cross-references).
        if !v.path.is_empty() {
            out.push_str(", \"codeFlows\": [{\"threadFlows\": [{\"locations\": [");
            for (j, s) in v.path.iter().enumerate() {
                let psep = if j == 0 { "" } else { ", " };
                let _ = write!(
                    out,
                    "{psep}{{\"location\": {{\"physicalLocation\": {{\"artifactLocation\": \
                     {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}, \
                     \"message\": {{\"text\": {}}}}}}}",
                    json_str(&s.file),
                    s.line.max(1),
                    json_str(&s.label),
                );
            }
            out.push_str("]}]}], \"relatedLocations\": [");
            for (j, s) in v.path.iter().enumerate() {
                let psep = if j == 0 { "" } else { ", " };
                let _ = write!(
                    out,
                    "{psep}{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
                     \"region\": {{\"startLine\": {}}}}}, \"message\": {{\"text\": {}}}}}",
                    json_str(&s.file),
                    s.line.max(1),
                    json_str(&s.label),
                );
            }
            out.push(']');
        }
        out.push('}');
    }
    if !report.violations.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("]\n  }]\n}\n");
    out
}

/// Minimal JSON string escaping (quote, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `--list-rules` table: id, exit code, and summary per lexical
/// rule and analysis pass.
pub fn rule_table() -> String {
    let mut out = String::new();
    for r in all_rules() {
        let _ = writeln!(out, "{:<20} exit {:>2}  {}", r.id(), r.exit_code(), r.summary());
    }
    let _ = writeln!(
        out,
        "{:<20} exit {:>2}  malformed `nls-lint: allow(...)` annotation (missing rule list or reason)",
        crate::engine::SUPPRESSION_RULE,
        crate::engine::SUPPRESSION_EXIT_CODE,
    );
    for p in all_passes() {
        let _ = writeln!(out, "{:<20} exit {:>2}  {}", p.id(), p.exit_code(), p.summary());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Violation;

    fn sample() -> LintReport {
        LintReport {
            violations: vec![Violation {
                rule: "no-panic",
                path: Vec::new(),
                file: "crates/x/src/a.rs".into(),
                line: 3,
                message: "say \"no\"\tto panics".into(),
            }],
            files: 2,
            timings: vec![("panic-reach".to_string(), 1234)],
        }
    }

    fn sample_with_path() -> LintReport {
        use crate::rules::PathStep;
        LintReport {
            violations: vec![Violation {
                rule: "lock-order",
                path: vec![
                    PathStep {
                        file: "crates/core/src/sweep.rs".into(),
                        line: 10,
                        label: "`cp` acquired".into(),
                    },
                    PathStep {
                        file: "crates/core/src/sweep.rs".into(),
                        line: 14,
                        label: "blocking call `sync_all` while held".into(),
                    },
                ],
                file: "crates/core/src/sweep.rs".into(),
                line: 14,
                message: "held across fsync".into(),
            }],
            files: 1,
            timings: Vec::new(),
        }
    }

    #[test]
    fn human_lines_are_file_line_rule() {
        let text = human(&sample());
        assert!(text.starts_with("crates/x/src/a.rs:3: no-panic: "));
        assert!(text.contains("1 violation(s) in 2 file(s)"));
    }

    #[test]
    fn human_renders_witness_steps_indented_under_the_finding() {
        let text = human(&sample_with_path());
        assert!(text.contains("\n    crates/core/src/sweep.rs:10 `cp` acquired\n"), "{text}");
        assert!(
            text.contains(
                "    crates/core/src/sweep.rs:14 blocking call `sync_all` while held\n"
            ),
            "{text}"
        );
        assert!(!human(&sample()).contains("\n    "), "pathless findings stay one line");
    }

    #[test]
    fn json_escapes_and_versions() {
        let text = json(&sample());
        assert!(text.contains("\"version\": 1"));
        assert!(text.contains("\\\"no\\\"\\tto"));
        assert!(text.contains("\"exit_code\": 10"));
    }

    #[test]
    fn json_carries_per_pass_timings() {
        let text = json(&sample());
        assert!(text.contains("{\"pass\": \"panic-reach\", \"micros\": 1234}"), "{text}");
    }

    #[test]
    fn json_attaches_witness_paths_only_when_present() {
        let with = json(&sample_with_path());
        assert!(
            with.contains("\"path\": [{\"file\": \"crates/core/src/sweep.rs\", \"line\": 10"),
            "{with}"
        );
        let without = json(&sample());
        assert!(!without.contains("\"path\""), "{without}");
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let text = json(&LintReport::default());
        assert!(text.contains("\"violations\": []"));
        assert!(text.contains("\"exit_code\": 0"));
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let text = sarif(&sample());
        assert!(text.contains("\"version\": \"2.1.0\""));
        assert!(text.contains("\"ruleId\": \"no-panic\""));
        assert!(text.contains("\"startLine\": 3"));
        assert!(text.contains("\"id\": \"panic-reach\""), "passes are declared as rules");
        let empty = sarif(&LintReport::default());
        assert!(empty.contains("\"results\": []"));
    }

    #[test]
    fn sarif_renders_witness_paths_as_code_flows() {
        let text = sarif(&sample_with_path());
        assert!(text.contains("\"codeFlows\""), "{text}");
        assert!(text.contains("\"threadFlows\""), "{text}");
        assert!(text.contains("\"relatedLocations\""), "{text}");
        assert!(text.contains("`cp` acquired"), "step labels travel: {text}");
        let plain = sarif(&sample());
        assert!(!plain.contains("codeFlows"), "no empty codeFlows: {plain}");
    }

    #[test]
    fn rule_table_lists_passes_after_rules() {
        let table = rule_table();
        assert!(table.contains("panic-reach"));
        assert!(table.contains("stale-waiver"));
        assert!(table.contains("exit 29"));
    }
}
