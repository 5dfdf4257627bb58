//! Pass 8: crash-durability of writes to recovery-critical paths.
//!
//! The ledger, checkpoints, and results files exist so a crash can
//! be recovered from — which means *their own* writes must survive
//! crashes. The workspace discipline (DESIGN.md §8.2) is
//! tmp-sibling + `sync_all` + `rename` + parent-directory fsync,
//! packaged in `write_atomic`/`write_trace_atomic`. A bare
//! `fs::write`/`File::create` to a durable path can be torn by a
//! crash mid-write or silently lost when the directory entry never
//! hits disk.
//!
//! Scope — a function is *durable scope* when any of:
//! * it is defined in a ledger or checkpoint module (file path
//!   contains `ledger`/`checkpoint`),
//! * its body mentions a durable-location marker: an identifier
//!   containing `ledger`/`checkpoint`, the `results_dir()` helper,
//!   or a string literal under `results/`,
//! * its name contains `save` or `persist` (the workspace's naming
//!   convention for durable writers).
//!
//! Findings inside durable scope:
//! * `fs::write(..)`, `File::create(..)`, or an
//!   `OpenOptions`-`create_new` chain whose argument span does not
//!   mention a tmp sibling — direct writes to the durable path;
//! * `fs::rename(..)` from which no `*parent*`-named fsync helper is
//!   reached **on every [`crate::cfg`] path** — the rename itself is
//!   atomic but the directory entry is not durable until the parent
//!   is synced, and a `?` between the two loses exactly the crash
//!   window the protocol exists for. (The rename's own `?` edge is
//!   exempt: a failed rename publishes nothing.)
//! * an `OpenOptions` chain with `.append(true)` from which
//!   `sync_data`/`sync_all` on the handle it is bound to (`let [mut]
//!   name = ..`) is not reached on every CFG path before a successful
//!   return — the journal discipline: an append the caller goes on to
//!   rely on must be on disk first. The same backward must-analysis
//!   as the rename rule; `?` exits are error returns and exempt, since
//!   a failed append is reported, not relied on. An unbound chain
//!   cannot be synced and is always a finding.
//!
//! Exemptions: functions whose name contains `atomic` (they *are*
//! the discipline), writes whose arguments mention `tmp` (the
//! tmp-sibling half of the protocol; the rename rule covers the
//! other half), advisory-lock `create_new` sites (a `lock`-named
//! identifier on the call line: `O_EXCL` must hit the real path and
//! losing the file on crash is what stale-lock breaking handles),
//! and test code.
//!
//! Soundness caveats: scope is inferred per function, so a helper
//! that receives a durable path as an argument from another crate is
//! only caught if its own body or file mentions a marker; the
//! tmp-name and lock-name exemptions trust naming.

use std::collections::BTreeSet;

use crate::cfg::Cfg;
use crate::dataflow::{solve, Dir, Meet};
use crate::lexer::{Tok, TokKind};
use crate::parser::{call_sites, CallSite, ItemKind};
use crate::rules::{matching_punct, PathStep, Violation};
use crate::source::SourceFile;

use super::{Analysis, Pass};

pub struct FsDurability;

/// True when the function is durable scope (see module docs).
fn durable_scope(src: &SourceFile, it: &crate::parser::Item) -> bool {
    let rel = src.rel.to_ascii_lowercase();
    if rel.contains("ledger") || rel.contains("checkpoint") {
        return true;
    }
    let name = it.name.to_ascii_lowercase();
    if name.contains("save") || name.contains("persist") {
        return true;
    }
    src.code.get(it.body.0..it.body.1).unwrap_or(&[]).iter().any(|t| match t.kind {
        crate::lexer::TokKind::Ident => {
            let low = t.text.to_ascii_lowercase();
            low.contains("ledger") || low.contains("checkpoint") || low == "results_dir"
        }
        crate::lexer::TokKind::Str => t.text.contains("results/"),
        _ => false,
    })
}

/// True when the call's argument span names a tmp sibling — the
/// first half of the tmp+fsync+rename protocol.
fn args_mention_tmp(src: &SourceFile, call: &CallSite, body: (usize, usize)) -> bool {
    // Find the call's opening paren by locating the name token at
    // the call line, then scan its argument span.
    let code = &src.code;
    for i in body.0..body.1 {
        let Some(t) = code.get(i) else { break };
        if t.line == call.line && t.is_ident(&call.name) {
            let Some(open) = (i + 1..(i + 4).min(body.1))
                .find(|&j| code.get(j).is_some_and(|t| t.is_punct('(')))
            else {
                continue;
            };
            let close = matching_punct(code, open, '(', ')').unwrap_or(body.1);
            if code.get(open..close).unwrap_or(&[]).iter().any(|t| {
                t.kind == crate::lexer::TokKind::Ident
                    && t.text.to_ascii_lowercase().contains("tmp")
            }) {
                return true;
            }
        }
    }
    false
}

/// True when the call's line names a `lock`-ish identifier — the
/// advisory-lock exemption for `create_new` (see module docs).
fn line_mentions_lock(src: &SourceFile, line: u32) -> bool {
    src.code.iter().any(|t| {
        t.line == line
            && t.kind == TokKind::Ident
            && t.text.to_ascii_lowercase().contains("lock")
    })
}

/// Is the token at `i` a call to a `*parent*`-named fsync helper?
fn is_parent_sync_at(code: &[Tok], i: usize) -> bool {
    code.get(i).is_some_and(|t| {
        t.kind == TokKind::Ident
            && t.text.to_ascii_lowercase().contains("parent")
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
    })
}

/// Is the token at `i` a `handle.sync_data(`/`handle.sync_all(` call?
fn is_handle_sync_at(code: &[Tok], i: usize, handle: &str) -> bool {
    code.get(i).is_some_and(|t| t.is_ident(handle))
        && code.get(i + 1).is_some_and(|t| t.is_punct('.'))
        && code.get(i + 2).is_some_and(|t| t.is_ident("sync_data") || t.is_ident("sync_all"))
        && code.get(i + 3).is_some_and(|t| t.is_punct('('))
}

/// Token indices of `.append(true)` links in `body`.
fn append_sites(code: &[Tok], body: (usize, usize)) -> Vec<usize> {
    (body.0..body.1)
        .filter(|&i| {
            code.get(i).is_some_and(|t| t.is_ident("append"))
                && i > 0
                && code.get(i - 1).is_some_and(|t| t.is_punct('.'))
                && code.get(i + 1).is_some_and(|t| t.is_punct('('))
                && code.get(i + 2).is_some_and(|t| t.is_ident("true"))
                && code.get(i + 3).is_some_and(|t| t.is_punct(')'))
        })
        .collect()
}

/// The name a chain at token `at` is bound to by its statement's
/// `let [mut] name =`, if any.
fn bound_handle(code: &[Tok], body: (usize, usize), at: usize) -> Option<String> {
    let start = (body.0..at)
        .rev()
        .take_while(|&i| {
            code.get(i)
                .is_some_and(|t| !(t.is_punct(';') || t.is_punct('{') || t.is_punct('}')))
        })
        .last()?;
    let mut i = (start..at).find(|&i| code.get(i).is_some_and(|t| t.is_ident("let")))? + 1;
    if code.get(i).is_some_and(|t| t.is_ident("mut")) {
        i += 1;
    }
    code.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .filter(|_| code.get(i + 1).is_some_and(|t| t.is_punct('=') || t.is_punct(':')))
        .map(|t| t.text.clone())
}

/// Backward must-analysis: fact 0 at a block means a token `hit`
/// accepts is reached from there on every path. `inp` is indexed by
/// block.
fn must_reach(cfg: &Cfg, hit: &dyn Fn(usize) -> bool) -> Vec<BTreeSet<usize>> {
    let universe: BTreeSet<usize> = [0].into_iter().collect();
    solve(cfg, Dir::Backward, Meet::Intersect, &universe, &|b, facts| {
        let mut f = facts.clone();
        if cfg.blocks.get(b).is_some_and(|blk| (blk.lo..blk.hi).any(hit)) {
            f.insert(0);
        }
        f
    })
    .inp
}

/// Drops the exit edges that only a `?` makes: blocks that also flow
/// on elsewhere leave through `?` on error alone, which is not a
/// successful return.
fn drop_error_exits(cfg: &mut Cfg, code: &[Tok]) {
    let exit = cfg.exit;
    for blk in &mut cfg.blocks {
        let has_question =
            code.get(blk.lo..blk.hi).is_some_and(|toks| toks.iter().any(|t| t.is_punct('?')));
        if has_question && blk.succs.iter().any(|&s| s != exit) {
            blk.succs.retain(|&s| s != exit);
        }
    }
}

/// Where the site at token `at` can leave its block without `hit`
/// having been reached on every path: `None` when it cannot, else the
/// first line of an escaping successor block (0 when unknown). The
/// site's own `?` edge is exempt.
fn escapes(cfg: &Cfg, code: &[Tok], at: usize, hit: &dyn Fn(usize) -> bool) -> Option<u32> {
    let b = cfg.block_of(at)?;
    let blk = cfg.blocks.get(b)?;
    if (at + 1..blk.hi).any(hit) {
        return None;
    }
    let reached = must_reach(cfg, hit);
    let fall: Vec<usize> = blk.succs.iter().copied().filter(|&s| s != cfg.exit).collect();
    match fall.iter().find(|&&s| !reached.get(s).is_some_and(|f| f.contains(&0))) {
        None if !fall.is_empty() => None,
        escape => Some(escape.map_or(0, |&s| cfg.first_line(code, s))),
    }
}

/// True for a call that opens/overwrites a file for writing.
fn is_direct_write(call: &CallSite) -> bool {
    if call.is_macro {
        return false;
    }
    match (call.qualifier.as_deref(), call.name.as_str()) {
        (Some("fs"), "write") | (Some("File"), "create") => true,
        // `OpenOptions::new().write(true).create_new(true).open(..)`:
        // `create_new` is the distinctive link of the chain.
        (_, "create_new") => call.is_method,
        _ => false,
    }
}

impl Pass for FsDurability {
    fn id(&self) -> &'static str {
        "fs-durability"
    }
    fn exit_code(&self) -> u8 {
        25
    }
    fn summary(&self) -> &'static str {
        "writes to ledger/checkpoint/results paths go through tmp+fsync+rename with a parent fsync"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        for (fi, file) in a.files.iter().enumerate() {
            let Some(src) = a.sources.get(fi) else { continue };
            if src.is_test_file() {
                continue;
            }
            for it in &file.items {
                if it.kind != ItemKind::Fn || it.is_test {
                    continue;
                }
                if it.name.to_ascii_lowercase().contains("atomic") {
                    continue;
                }
                if !durable_scope(src, it) {
                    continue;
                }
                let calls = call_sites(&src.code, it.body);
                let mut renames: Vec<&CallSite> = Vec::new();
                for call in &calls {
                    if src.is_test_code(call.line) || src.is_suppressed(self.id(), call.line) {
                        continue;
                    }
                    if is_direct_write(call)
                        && !args_mention_tmp(src, call, it.body)
                        && !(call.name == "create_new" && line_mentions_lock(src, call.line))
                    {
                        out.push(Violation {
                            rule: self.id(),
                            path: Vec::new(),
                            file: src.rel.clone(),
                            line: call.line,
                            message: format!(
                                "`{}` writes a durable path directly in `{}` — route it \
                                 through the tmp+fsync+rename helper (write_atomic)",
                                call.name,
                                it.qual()
                            ),
                        });
                    }
                    if !call.is_macro
                        && call.name == "rename"
                        && call.qualifier.as_deref() == Some("fs")
                    {
                        renames.push(call);
                    }
                }
                let appends: Vec<usize> = append_sites(&src.code, it.body)
                    .into_iter()
                    .filter(|&i| {
                        src.code.get(i).is_some_and(|t| {
                            !src.is_test_code(t.line) && !src.is_suppressed(self.id(), t.line)
                        })
                    })
                    .collect();
                if renames.is_empty() && appends.is_empty() {
                    continue;
                }
                // Path-sensitive half: each rename must reach a
                // parent fsync on every CFG path out of it.
                let mut cfg = Cfg::build(&src.code, it.body);
                let parent_sync = |i: usize| is_parent_sync_at(&src.code, i);
                for call in renames {
                    let Some(rt) = (it.body.0..it.body.1).find(|&i| {
                        src.code
                            .get(i)
                            .is_some_and(|t| t.line == call.line && t.is_ident("rename"))
                    }) else {
                        continue;
                    };
                    let Some(escape) = escapes(&cfg, &src.code, rt, &parent_sync) else {
                        continue;
                    };
                    let mut path = vec![PathStep {
                        file: src.rel.clone(),
                        line: call.line,
                        label: "rename publishes the entry".to_string(),
                    }];
                    if escape != 0 && escape != call.line {
                        path.push(PathStep {
                            file: src.rel.clone(),
                            line: escape,
                            label: "path escapes before the parent fsync".to_string(),
                        });
                    }
                    out.push(Violation {
                        rule: self.id(),
                        path,
                        file: src.rel.clone(),
                        line: call.line,
                        message: format!(
                            "`fs::rename` in `{}` does not reach a parent-directory \
                             fsync on every path — the new directory entry is not \
                             durable until the parent is synced",
                            it.qual()
                        ),
                    });
                }
                // Each append must reach a sync of its own handle
                // before every successful return.
                drop_error_exits(&mut cfg, &src.code);
                for at in appends {
                    let line = src.code.get(at).map_or(0, |t| t.line);
                    let handle = bound_handle(&src.code, it.body, at);
                    let escape = match &handle {
                        Some(h) => {
                            let synced = |i: usize| is_handle_sync_at(&src.code, i, h);
                            let Some(escape) = escapes(&cfg, &src.code, at, &synced) else {
                                continue;
                            };
                            escape
                        }
                        None => 0,
                    };
                    let mut path = vec![PathStep {
                        file: src.rel.clone(),
                        line,
                        label: "append opened".to_string(),
                    }];
                    if escape != 0 && escape != line {
                        path.push(PathStep {
                            file: src.rel.clone(),
                            line: escape,
                            label: "path returns before the handle is synced".to_string(),
                        });
                    }
                    out.push(Violation {
                        rule: self.id(),
                        path,
                        file: src.rel.clone(),
                        line,
                        message: format!(
                            "`.append(true)` in `{}` does not reach `sync_data`/`sync_all` \
                             on {} on every path before a successful return — an \
                             acknowledged append can be lost on crash",
                            it.qual(),
                            handle.map_or("its handle (bind it with `let`)".to_string(), |h| {
                                format!("`{h}`")
                            })
                        ),
                    });
                }
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
        FsDurability.check(&a, &mut out);
        out
    }

    #[test]
    fn a_bare_write_to_a_results_path_is_flagged() {
        let v = run(&[(
            "crates/bench/src/lib.rs",
            "pub fn save(name: &str) {\n    \
             let path = results_dir().join(name);\n    \
             let _ = std::fs::write(&path, \"csv\");\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("write_atomic"), "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn the_atomic_helper_itself_is_the_discipline_not_a_finding() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn write_atomic(path: &Path, text: &str) {\n    \
             let tmp = tmp_sibling(path);\n    \
             let f = File::create(&tmp);\n    \
             f.sync_all();\n    \
             fs::rename(&tmp, path);\n    \
             fsync_parent_dir(path);\n}\n\
             fn tmp_sibling(p: &Path) -> PathBuf { p.to_path_buf() }\n\
             fn fsync_parent_dir(_p: &Path) {}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn writing_the_tmp_sibling_is_the_protocol_not_a_finding() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn flush(tmp_path: &Path, path: &Path) {\n    \
             let f = File::create(tmp_path);\n    \
             f.sync_all();\n    \
             fs::rename(tmp_path, path);\n    \
             sync_parent_dir(path);\n}\n\
             fn sync_parent_dir(_p: &Path) {}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_rename_without_a_parent_fsync_is_flagged() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn publish(tmp: &Path, path: &Path) {\n    \
             fs::rename(tmp, path);\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("parent-directory fsync"), "{v:?}");
    }

    #[test]
    fn non_durable_writes_are_out_of_scope() {
        let v = run(&[(
            "crates/trace/src/file.rs",
            "pub fn spill(dir: &Path) {\n    \
             let _ = std::fs::write(dir.join(\"scratch.bin\"), \"x\");\n}\n",
        )]);
        assert!(v.is_empty(), "no durable marker anywhere: {v:?}");
    }

    #[test]
    fn an_ephemeral_lock_file_create_new_is_exempt_without_a_waiver() {
        // `O_EXCL` must hit the real path; losing the lock file on
        // crash is what stale-lock breaking handles. The `lock`-named
        // identifier on the call line is the built-in exemption.
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn acquire(lock_path: &Path) {\n    \
             let f = fs::OpenOptions::new().write(true).create_new(true).open(lock_path);\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_return_between_rename_and_parent_fsync_is_flagged() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn publish(tmp: &Path, path: &Path, quick: bool) {\n    \
             fs::rename(tmp, path);\n    \
             if quick {\n        return;\n    }\n    \
             sync_parent_dir(path);\n}\n\
             fn sync_parent_dir(_p: &Path) {}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("every path"), "{v:?}");
        assert!(!v[0].path.is_empty(), "witness path attached: {v:?}");
    }

    #[test]
    fn a_question_mark_between_rename_and_parent_fsync_is_flagged() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn publish(tmp: &Path, path: &Path) -> R {\n    \
             fs::rename(tmp, path)?;\n    \
             audit(path)?;\n    \
             sync_parent_dir(path);\n    Ok(())\n}\n\
             fn sync_parent_dir(_p: &Path) {}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn the_renames_own_question_mark_is_exempt() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn publish(tmp: &Path, path: &Path) -> R {\n    \
             fs::rename(tmp, path)?;\n    \
             sync_parent_dir(path);\n    Ok(())\n}\n\
             fn sync_parent_dir(_p: &Path) {}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn an_unbound_append_chain_is_flagged() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn journal(path: &Path, line: &str) -> R {\n    \
             OpenOptions::new().append(true).open(path)?.write_all(line.as_bytes())\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("bind it"), "{v:?}");
    }

    #[test]
    fn syncing_another_handle_does_not_cover_the_append() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn journal(path: &Path, other: &File, line: &str) -> R {\n    \
             let mut f = OpenOptions::new().append(true).open(path)?;\n    \
             f.write_all(line.as_bytes())?;\n    other.sync_data()\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn syncing_on_both_branches_is_clean() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn publish(tmp: &Path, path: &Path, quick: bool) {\n    \
             fs::rename(tmp, path);\n    \
             if quick {\n        sync_parent_dir(path);\n        return;\n    }\n    \
             sync_parent_dir(path);\n}\n\
             fn sync_parent_dir(_p: &Path) {}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
