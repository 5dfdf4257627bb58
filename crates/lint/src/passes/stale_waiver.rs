//! Pass 12: waivers must keep earning their place.
//!
//! Every `// nls-lint: allow(..): reason` annotation was written to
//! silence a specific finding. Code moves: the unwrap gets refactored
//! away, a pass grows path sensitivity and stops flagging the cold
//! branch, the function the waiver sat on is deleted around it. The
//! annotation stays — and now it silently licenses whatever regression
//! lands on that line next. Waiver rot is how suppression systems die.
//!
//! This pass re-runs every lexical rule and every other pass on a
//! *stripped* view of the workspace (same tokens, zero waivers) and
//! collects the raw findings. A waiver is **stale** when no raw
//! finding lands on the lines it covers (its own line and the next)
//! with a rule it names — the check mirrors
//! [`crate::source::SourceFile::is_suppressed`] exactly, so "would
//! this waiver suppress anything?" and "is it stale?" cannot drift
//! apart.
//!
//! Malformed waivers (missing reason or empty rule list) are the
//! engine's department (exit 17) and are skipped here. The pass never
//! re-runs *itself* on the stripped view, so it terminates.

use crate::rules::Violation;
use crate::source::SourceFile;

use super::{all_passes, Analysis, Pass};

pub struct StaleWaiver;

impl Pass for StaleWaiver {
    fn id(&self) -> &'static str {
        "stale-waiver"
    }
    fn exit_code(&self) -> u8 {
        29
    }
    fn summary(&self) -> &'static str {
        "every inline waiver still suppresses a real finding on a stripped re-run"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        let raw = raw_findings(a);
        for src in a.sources {
            for s in &src.suppressions {
                // Malformed annotations are the engine's finding.
                if s.reason.is_empty() || s.rules.is_empty() {
                    continue;
                }
                if src.is_suppressed("stale-waiver", s.line) {
                    continue;
                }
                let earns_keep = raw.iter().any(|v| {
                    v.file == src.rel
                        && (s.line == v.line || s.line + 1 == v.line)
                        && s.rules.iter().any(|r| r == v.rule || r == "all")
                });
                if earns_keep {
                    continue;
                }
                out.push(Violation {
                    rule: "stale-waiver",
                    file: src.rel.clone(),
                    line: s.line,
                    message: format!(
                        "waiver `allow({})` suppresses no finding — the code it \
                         covered has moved on; delete the annotation (its reason \
                         was: \"{}\")",
                        s.rules.join(", "),
                        s.reason
                    ),
                    ..Violation::default()
                });
            }
        }
    }
}

/// Every finding the rules and the *other* passes produce on a
/// waiver-free view of the workspace.
fn raw_findings(a: &Analysis) -> Vec<Violation> {
    let stripped: Vec<SourceFile> =
        a.sources.iter().map(SourceFile::without_suppressions).collect();
    let mut raw = Vec::new();
    for rule in crate::rules::all_rules() {
        for src in &stripped {
            rule.check_file(src, &mut raw);
        }
        rule.check_workspace(&stripped, &mut raw);
    }
    let b = Analysis::build(&stripped);
    for pass in all_passes() {
        if pass.id() == StaleWaiver.id() {
            continue;
        }
        pass.check(&b, &mut raw);
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(srcs: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<SourceFile> =
            srcs.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
        let a = Analysis::build(&sources);
        let mut out = Vec::new();
        StaleWaiver.check(&a, &mut out);
        out
    }

    #[test]
    fn a_waiver_over_clean_code_is_stale() {
        let v = run(&[(
            "crates/core/src/util.rs",
            "pub fn f(x: Option<u32>) -> u32 {\n    \
             // nls-lint: allow(no-panic): legacy unwrap, long since removed\n    \
             x.unwrap_or(0)\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("no-panic"), "{v:?}");
    }

    #[test]
    fn a_waiver_backed_by_a_real_finding_survives() {
        let v = run(&[(
            "crates/core/src/util.rs",
            "pub fn f(x: Option<u32>) -> u32 {\n    \
             // nls-lint: allow(no-panic): boundary checked two lines up\n    \
             x.unwrap()\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn an_all_waiver_needs_at_least_one_finding() {
        let v = run(&[(
            "crates/core/src/util.rs",
            "pub fn f(x: u32) -> u32 {\n    \
             // nls-lint: allow(all): historical debugging site\n    \
             x + 1\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("allow(all)"), "{v:?}");
    }

    #[test]
    fn a_waiver_naming_the_wrong_rule_is_stale() {
        // The line has a real no-panic finding, but the waiver names
        // slice-index — it suppresses nothing.
        let v = run(&[(
            "crates/core/src/util.rs",
            "pub fn f(x: Option<u32>) -> u32 {\n    \
             // nls-lint: allow(slice-index): wrong rule named\n    \
             x.unwrap()\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("slice-index"), "{v:?}");
    }

    #[test]
    fn malformed_waivers_are_the_engines_department() {
        let v = run(&[(
            "crates/core/src/util.rs",
            "pub fn f(x: u32) -> u32 {\n    \
             // nls-lint: allow(no-panic)\n    \
             x + 1\n}\n",
        )]);
        assert!(v.is_empty(), "malformed is exit 17, not 29: {v:?}");
    }
}
