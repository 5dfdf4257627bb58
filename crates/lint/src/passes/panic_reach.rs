//! Pass 1: panic-reachability from the engine entry points.
//!
//! The lexical `no-panic` rule bans panic sites file by file; this
//! pass asks the interprocedural question the paper's artifact
//! actually cares about: *can a simulation step panic?* It walks the
//! call graph from every engine entry point ([`super::ENTRY_FILES`])
//! and flags each panic site inside a reached function, with a
//! witness call path in the message. Beyond the lexical rule it also
//! treats `assert!`-family macros as panic sites — an assert that can
//! fire mid-sweep aborts the whole fault-tolerant pipeline.
//!
//! A site is waived when any of `panic-reach`, `no-panic`, or
//! `slice-index` is suppressed on it: the lexical waiver already
//! records why the site cannot fire, and one safety argument is
//! enough.

use crate::parser::call_sites;
use crate::rules::{bracket_is_index, index_expr_is_safe, matching_punct, Violation};
use crate::source::SourceFile;

use super::{Analysis, Pass};

pub struct PanicReach;

/// Macros that abort: the `no-panic` set plus the asserts.
const PANIC_MACROS: [&str; 7] =
    ["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// One potential panic inside a function body.
struct PanicSite {
    line: u32,
    what: String,
}

/// Scans `span` of `src` for panic sites, mirroring the lexical
/// rules' classification (so the two layers never disagree on what
/// counts as a panic).
fn panic_sites(src: &SourceFile, span: (usize, usize)) -> Vec<PanicSite> {
    let code = &src.code;
    let mut out = Vec::new();
    for site in call_sites(code, span) {
        if site.is_macro && PANIC_MACROS.contains(&site.name.as_str()) {
            out.push(PanicSite { line: site.line, what: format!("{}!", site.name) });
        }
        if site.is_method && (site.name == "unwrap" || site.name == "expect") {
            out.push(PanicSite { line: site.line, what: format!(".{}()", site.name) });
        }
    }
    // Unguarded slice indexing, classified exactly like `slice-index`.
    let mut i = span.0;
    while i < span.1 {
        let Some(t) = code.get(i) else { break };
        if t.is_punct('[') && i > span.0 && bracket_is_index(code, i) {
            if let Some(close) = matching_punct(code, i, '[', ']') {
                if !index_expr_is_safe(code.get(i + 1..close).unwrap_or(&[])) {
                    out.push(PanicSite { line: t.line, what: "unguarded index".into() });
                }
            }
        }
        i += 1;
    }
    out.sort_by_key(|s| s.line);
    out
}

fn waived(src: &SourceFile, line: u32) -> bool {
    ["panic-reach", "no-panic", "slice-index"].iter().any(|rule| src.is_suppressed(rule, line))
}

impl Pass for PanicReach {
    fn id(&self) -> &'static str {
        "panic-reach"
    }
    fn exit_code(&self) -> u8 {
        18
    }
    fn summary(&self) -> &'static str {
        "no panic/assert/unwrap/unguarded-index site may be reachable from an engine entry point"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        let roots = a.entry_points();
        let pred = a.graph.reach(&roots);
        for &id in pred.keys() {
            let Some((_, it)) = crate::symbols::lookup(&a.files, id) else { continue };
            let Some(src) = a.source_of(id) else { continue };
            for site in panic_sites(src, it.body) {
                if waived(src, site.line) {
                    continue;
                }
                let path = a.graph.path_to(&pred, id, &a.files);
                out.push(Violation {
                    rule: self.id(),
                    path: super::witness_steps(a, &pred, id, &src.rel, site.line, &site.what),
                    file: src.rel.clone(),
                    line: site.line,
                    message: format!(
                        "{} reachable from engine entry via {}",
                        site.what,
                        path.join(" -> ")
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(srcs: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<SourceFile> =
            srcs.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
        let a = Analysis::build(&sources);
        let mut out = Vec::new();
        PanicReach.check(&a, &mut out);
        out
    }

    #[test]
    fn assert_deep_in_the_call_chain_is_flagged_with_a_path() {
        let v = run(&[
            ("crates/core/src/sweep.rs", "pub fn run_one() { crate::helper(); }\n"),
            (
                "crates/core/src/lib.rs",
                "pub fn helper() { deeper(); }\nfn deeper(x: u64) { assert!(x > 0); }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("assert!"), "{v:?}");
        assert!(v[0].message.contains("run_one -> helper -> deeper"), "{v:?}");
    }

    #[test]
    fn unreached_panics_are_not_this_passes_business() {
        let v = run(&[
            ("crates/core/src/sweep.rs", "pub fn run_one() {}\n"),
            ("crates/cli/src/main.rs", "fn orphan() { panic!(\"boom\"); }\n"),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lexical_waivers_carry_over() {
        let v = run(&[(
            "crates/core/src/engine.rs",
            "impl E {\n    fn step(&mut self, i: usize, v: &[u8]) {\n        \
             // nls-lint: allow(slice-index): i is masked by the caller\n        \
             let _ = v[i];\n    }\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unguarded_index_in_reached_fn_is_flagged() {
        let v = run(&[(
            "crates/core/src/engine.rs",
            "impl E { fn step(&mut self, i: usize, v: &[u8]) -> u8 { v[i] } }\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("unguarded index"), "{v:?}");
    }
}
