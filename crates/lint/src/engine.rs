//! The lint driver: workspace walking, suppression filtering, pass
//! execution, and result assembly.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::passes::{all_passes, Analysis};
use crate::rules::{all_rules, Violation};
use crate::source::SourceFile;

/// Directories never linted: build output, VCS state, and the lint
/// fixtures (which are violations on purpose).
const SKIP_DIRS: [&str; 4] = ["target", ".git", ".github", "fixtures"];

/// Pseudo-rule id for malformed `nls-lint:` annotations themselves.
pub const SUPPRESSION_RULE: &str = "suppression";
/// Exit code for [`SUPPRESSION_RULE`] findings (after all real rules).
pub const SUPPRESSION_EXIT_CODE: u8 = 17;

/// What one lint run found.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Surviving (unsuppressed) findings, sorted by file then line.
    pub violations: Vec<Violation>,
    /// How many files were linted.
    pub files: usize,
    /// Wall time per executed analysis pass, `(pass id, microseconds)`
    /// in execution order — the perf-budget job reads these out of
    /// `--format json`. Empty for rules-only runs.
    pub timings: Vec<(String, u128)>,
}

impl LintReport {
    /// The process exit code: 0 when clean, else the smallest
    /// (highest-priority) violated rule's or pass's code.
    pub fn exit_code(&self) -> u8 {
        let rules = all_rules();
        let passes = all_passes();
        self.violations
            .iter()
            .map(|v| {
                rules
                    .iter()
                    .find(|r| r.id() == v.rule)
                    .map(|r| r.exit_code())
                    .or_else(|| passes.iter().find(|p| p.id() == v.rule).map(|p| p.exit_code()))
                    .unwrap_or(SUPPRESSION_EXIT_CODE)
            })
            .min()
            .unwrap_or(0)
    }
}

/// Lints already-parsed sources with the per-file and cross-file
/// *rules* only (the original lexical layer; fixture tests and the
/// passes' own fixtures go through here).
pub fn lint_sources(files: &[SourceFile]) -> LintReport {
    let rules = all_rules();
    let mut violations = Vec::new();
    for file in files {
        for rule in &rules {
            let mut found = Vec::new();
            rule.check_file(file, &mut found);
            violations
                .extend(found.into_iter().filter(|v| !file.is_suppressed(v.rule, v.line)));
        }
        // A suppression with no reason is an error, not a waiver: the
        // annotation must record *why* the site is safe.
        for s in &file.suppressions {
            if s.reason.is_empty() || s.rules.is_empty() {
                violations.push(Violation {
                    rule: SUPPRESSION_RULE,
                    path: Vec::new(),
                    file: file.rel.clone(),
                    line: s.line,
                    message: "malformed suppression: use `nls-lint: allow(<rule>): <reason>`"
                        .to_string(),
                });
            }
        }
    }
    for rule in &rules {
        let mut found = Vec::new();
        rule.check_workspace(files, &mut found);
        violations.extend(found.into_iter().filter(|v| {
            files
                .iter()
                .find(|f| f.rel == v.file)
                .is_none_or(|f| !f.is_suppressed(v.rule, v.line))
        }));
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    LintReport { violations, files: files.len(), timings: Vec::new() }
}

/// Lints `files` with the rules, then runs the interprocedural
/// analysis passes on top. `passes` selects which: `None` runs all,
/// `Some(ids)` only those listed (`Some(&[])` disables them).
pub fn analyze_sources(files: &[SourceFile], passes: Option<&[String]>) -> LintReport {
    let mut report = lint_sources(files);
    let analysis = Analysis::build(files);
    let mut found = Vec::new();
    for pass in all_passes() {
        let enabled = passes.is_none_or(|ids| ids.iter().any(|id| id == pass.id()));
        if enabled {
            let start = std::time::Instant::now();
            pass.check(&analysis, &mut found);
            report.timings.push((pass.id().to_string(), start.elapsed().as_micros()));
        }
    }
    report.violations.extend(found.into_iter().filter(|v| {
        files.iter().find(|f| f.rel == v.file).is_none_or(|f| !f.is_suppressed(v.rule, v.line))
    }));
    report.violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Is `rule` one of the interprocedural pass ids?
fn is_pass_id(rule: &str) -> bool {
    all_passes().iter().any(|p| p.id() == rule)
}

/// Lints and analyzes every `.rs` file under `root`.
///
/// The whole workspace is always loaded — the interprocedural passes
/// and cross-file rules need every definition in scope. When `only`
/// is given (workspace-relative paths from `--changed-only`), the
/// *per-file* findings are then filtered to the changed set; findings
/// from cross-file rules and the analysis passes are kept regardless,
/// because a change in one file can break an invariant that reports
/// in another.
///
/// # Errors
///
/// Fails when `root` cannot be walked or a source file cannot be
/// read.
pub fn analyze_workspace(
    root: &Path,
    only: Option<&[String]>,
    passes: Option<&[String]>,
) -> io::Result<LintReport> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        // nls-lint: allow(fs-trace-read): the linter reads Rust source text, never trace bytes
        let text = fs::read_to_string(root.join(&rel))?;
        files.push(SourceFile::parse(&rel, &text));
    }
    let mut report = analyze_sources(&files, passes);
    if let Some(filter) = only {
        report.violations.retain(|v| {
            filter.iter().any(|f| f == &v.file)
                || v.rule == "error-exit-map"
                || is_pass_id(v.rule)
        });
    }
    Ok(report)
}

/// [`analyze_workspace`] with every pass enabled (the default run).
///
/// # Errors
///
/// Same as [`analyze_workspace`].
pub fn lint_workspace(root: &Path, only: Option<&[String]>) -> io::Result<LintReport> {
    analyze_workspace(root, only, None)
}

/// The `.rs` files changed relative to `git_ref`, for
/// `--changed-only`. Renames (`-M`) report their *new* path; deleted
/// files are dropped (there is nothing on disk to lint), as is any
/// reported path that no longer exists by the time we run.
///
/// # Errors
///
/// Fails when `git diff` cannot run or exits unsuccessfully.
pub fn changed_files(root: &Path, git_ref: &str) -> io::Result<Vec<String>> {
    let out = Command::new("git")
        .current_dir(root)
        .args(["diff", "--name-status", "-M", git_ref, "--", "*.rs"])
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "git diff {git_ref} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )));
    }
    let mut files = Vec::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        // `<status>\t<path>` or, for renames/copies, `R<score>\t<old>\t<new>`.
        let mut cols = line.split('\t');
        let Some(status) = cols.next().map(str::trim) else { continue };
        if status.starts_with('D') {
            continue;
        }
        let Some(path) = cols.next_back().map(str::trim).filter(|p| !p.is_empty()) else {
            continue;
        };
        if root.join(path).exists() {
            files.push(path.to_string());
        }
    }
    Ok(files)
}

/// `--fix`: rewrites every reasonless `nls-lint: allow(...)` in the
/// workspace into the canonical form with a `TODO` reason, so the
/// annotation starts applying (and the TODO marks the missing safety
/// argument for review). Returns the patched workspace-relative
/// paths.
///
/// # Errors
///
/// Fails when a source file cannot be read or written back.
pub fn fix_suppressions(root: &Path) -> io::Result<Vec<String>> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut fixed = Vec::new();
    for rel in paths {
        let path = root.join(&rel);
        // nls-lint: allow(fs-trace-read): the fixer reads Rust source text, never trace bytes
        let text = fs::read_to_string(&path)?;
        let Some(patched) = fix_suppression_text(&text) else { continue };
        fs::write(&path, patched)?;
        fixed.push(rel);
    }
    Ok(fixed)
}

/// The canonical reason template `--fix` inserts.
const TODO_REASON: &str = "TODO(nls-lint): document why this site is safe";

/// Rewrites reasonless `allow(...)` annotations in `text`; `None`
/// when nothing needs fixing.
fn fix_suppression_text(text: &str) -> Option<String> {
    let mut changed = false;
    let mut out_lines: Vec<String> = Vec::new();
    for line in text.lines() {
        out_lines.push(fix_suppression_line(line).map_or_else(
            || line.to_string(),
            |fixed| {
                changed = true;
                fixed
            },
        ));
    }
    if !changed {
        return None;
    }
    let mut out = out_lines.join("\n");
    if text.ends_with('\n') {
        out.push('\n');
    }
    Some(out)
}

/// Fixes one line, or `None` when it is already well-formed (or has
/// no annotation). Only `allow(<rules>)` with a non-empty rule list
/// and a missing/empty reason is fixable — an empty rule list needs a
/// human to say *what* is being waived.
fn fix_suppression_line(line: &str) -> Option<String> {
    let marker = line.find("nls-lint:")?;
    let tail = line.get(marker..)?;
    let allow = tail.find("allow")?;
    let after_allow = tail.get(allow + "allow".len()..)?.trim_start();
    let inner_and_rest = after_allow.strip_prefix('(')?;
    let (inner, rest) = inner_and_rest.split_once(')')?;
    if inner.split(',').all(|r| r.trim().is_empty()) {
        return None;
    }
    let has_reason =
        rest.trim_start().strip_prefix(':').is_some_and(|reason| !reason.trim().is_empty());
    if has_reason {
        return None;
    }
    // Keep everything through `)`, replace the (empty) reason tail.
    let keep = line.len() - rest.len();
    Some(format!("{}: {TODO_REASON}", line.get(..keep)?))
}

/// `--fix`, analysis half: applies the machine-applicable repairs the
/// passes offer ([`crate::passes::Fix`] — e.g. atomics-discipline's
/// `Relaxed` → `SeqCst` on a cancel-flag load). Returns the patched
/// workspace-relative paths.
///
/// # Errors
///
/// Fails when the workspace cannot be walked or a source file cannot
/// be read or written back.
pub fn fix_passes(root: &Path) -> io::Result<Vec<String>> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for rel in &paths {
        // nls-lint: allow(fs-trace-read): the fixer reads Rust source text, never trace bytes
        let text = fs::read_to_string(root.join(rel))?;
        files.push(SourceFile::parse(rel, &text));
    }
    let analysis = Analysis::build(&files);
    let mut fixes: Vec<crate::passes::Fix> = Vec::new();
    for pass in all_passes() {
        fixes.extend(pass.fixes(&analysis));
    }
    let mut fixed = Vec::new();
    for rel in &paths {
        let wanted: Vec<&crate::passes::Fix> =
            fixes.iter().filter(|f| &f.file == rel).collect();
        if wanted.is_empty() {
            continue;
        }
        let path = root.join(rel);
        // nls-lint: allow(fs-trace-read): the fixer reads Rust source text, never trace bytes
        let text = fs::read_to_string(&path)?;
        let Some(patched) = apply_fixes(&text, &wanted) else { continue };
        fs::write(&path, patched)?;
        fixed.push(rel.clone());
    }
    Ok(fixed)
}

/// Applies single-token line fixes to `text`; `None` when nothing
/// matched (the fix's `from` must still be present on its line).
fn apply_fixes(text: &str, fixes: &[&crate::passes::Fix]) -> Option<String> {
    let mut changed = false;
    let mut out_lines: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = u32::try_from(i + 1).unwrap_or(u32::MAX);
        let mut patched = line.to_string();
        for f in fixes.iter().filter(|f| f.line == lineno) {
            if patched.contains(f.from) {
                patched = patched.replacen(f.from, f.to, 1);
                changed = true;
            }
        }
        out_lines.push(patched);
    }
    if !changed {
        return None;
    }
    let mut out = out_lines.join("\n");
    if text.ends_with('\n') {
        out.push('\n');
    }
    Some(out)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_unix(root, &path));
        }
    }
    Ok(())
}

fn rel_unix(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppressed_findings_are_filtered() {
        let src = "fn f() {\n    // nls-lint: allow(no-panic): demo reason\n    x.unwrap();\n    y.unwrap();\n}\n";
        let files = vec![SourceFile::parse("crates/x/src/a.rs", src)];
        let report = lint_sources(&files);
        let panics: Vec<_> =
            report.violations.iter().filter(|v| v.rule == "no-panic").collect();
        assert_eq!(panics.len(), 1, "{panics:?}");
        assert_eq!(panics[0].line, 4);
    }

    #[test]
    fn reasonless_suppression_is_reported_not_honored() {
        let src = "fn f() {\n    // nls-lint: allow(no-panic)\n    x.unwrap();\n}\n";
        let files = vec![SourceFile::parse("crates/x/src/a.rs", src)];
        let report = lint_sources(&files);
        assert!(report.violations.iter().any(|v| v.message.contains("malformed suppression")));
        assert!(report.violations.iter().any(|v| v.line == 3), "unwrap still flagged");
    }

    #[test]
    fn exit_code_uses_highest_priority_rule() {
        let src = "fn f(v: &[u8], i: usize) { let _ = v[i]; x.unwrap(); }";
        let files = vec![SourceFile::parse("crates/x/src/a.rs", src)];
        let report = lint_sources(&files);
        assert_eq!(report.exit_code(), 10, "no-panic (10) outranks slice-index (11)");
    }

    #[test]
    fn clean_sources_exit_zero() {
        let src = "fn f(v: &[u8]) -> Option<&u8> { v.first() }";
        let files = vec![SourceFile::parse("crates/x/src/a.rs", src)];
        assert_eq!(lint_sources(&files).exit_code(), 0);
    }

    #[test]
    fn pass_findings_use_pass_exit_codes() {
        let files = vec![SourceFile::parse(
            "crates/core/src/engine.rs",
            "impl E { fn step(&mut self) { helper(); } }\nfn helper(x: u64) { assert!(x > 0); }\n",
        )];
        let report = analyze_sources(&files, None);
        assert_eq!(report.exit_code(), 18, "{:?}", report.violations);
    }

    #[test]
    fn pass_selection_disables_the_rest() {
        let files = vec![SourceFile::parse(
            "crates/core/src/engine.rs",
            "impl E { fn step(&mut self, x: u64) { assert!(x > 0); } }\n",
        )];
        let none = analyze_sources(&files, Some(&[]));
        assert_eq!(none.exit_code(), 0, "{:?}", none.violations);
        let only_det = analyze_sources(&files, Some(&["determinism".to_string()]));
        assert_eq!(only_det.exit_code(), 0, "{:?}", only_det.violations);
        let only_panic = analyze_sources(&files, Some(&["panic-reach".to_string()]));
        assert_eq!(only_panic.exit_code(), 18, "{:?}", only_panic.violations);
    }

    #[test]
    fn fix_rewrites_reasonless_allow_only() {
        let text = "fn f() {\n    // nls-lint: allow(no-panic)\n    x.unwrap();\n\
                    \x20   // nls-lint: allow(hash-order): documented already\n}\n";
        let fixed = fix_suppression_text(text).expect("one line needs fixing");
        assert!(
            fixed.contains("allow(no-panic): TODO(nls-lint): document why this site is safe"),
            "{fixed}"
        );
        assert!(fixed.contains("documented already"), "{fixed}");
        assert_eq!(fix_suppression_text(&fixed), None, "fixpoint");
    }

    #[test]
    fn fix_leaves_empty_rule_lists_to_humans() {
        assert_eq!(fix_suppression_text("// nls-lint: allow()\n"), None);
        assert_eq!(fix_suppression_text("no annotations here\n"), None);
    }

    #[test]
    fn apply_fixes_replaces_one_token_on_the_right_line() {
        let fix = crate::passes::Fix {
            file: "crates/x/src/a.rs".to_string(),
            line: 2,
            from: "Relaxed",
            to: "SeqCst",
        };
        let text =
            "fn f(s: &AtomicBool) {\n    s.load(Ordering::Relaxed);\n    other(Relaxed);\n}\n";
        let fixed = apply_fixes(text, &[&fix]).expect("line 2 patched");
        assert!(fixed.contains("s.load(Ordering::SeqCst);"), "{fixed}");
        assert!(fixed.contains("other(Relaxed);"), "line 3 untouched: {fixed}");
        assert_eq!(apply_fixes("no match\n", &[&fix]), None);
    }

    #[test]
    fn changed_only_keeps_pass_findings_for_unchanged_files() {
        // Interprocedural findings must survive the changed-only
        // filter even when they report in an unchanged file.
        let files = vec![
            SourceFile::parse("crates/core/src/sweep.rs", "pub fn run_one() { helper(); }\n"),
            SourceFile::parse(
                "crates/core/src/lib.rs",
                "pub fn helper(x: u64) { assert!(x > 0); }\n",
            ),
        ];
        let mut report = analyze_sources(&files, None);
        let filter = ["crates/core/src/sweep.rs".to_string()];
        report.violations.retain(|v| {
            filter.iter().any(|f| f == &v.file)
                || v.rule == "error-exit-map"
                || is_pass_id(v.rule)
        });
        assert!(
            report.violations.iter().any(|v| v.rule == "panic-reach"),
            "{:?}",
            report.violations
        );
    }
}
