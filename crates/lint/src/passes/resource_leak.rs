//! Pass 11: must-reach release analysis for leases and tmp files.
//!
//! Two resources in this workspace are acquired in one statement and
//! *must* be handed back in another, with no RAII guard to save us:
//!
//! * a **ledger lease** — once a worker's `claim` returns `Claimed`,
//!   the key is invisible to every other worker until `complete`,
//!   `release`, or `record_failure` runs (or the lease expires, which
//!   costs a full lease-ttl of idle time per leaked key);
//! * a **tmp file** — a durable write stages into `*.tmp` and only
//!   becomes real (or disappears) at `rename`/`remove_file`; a path
//!   that exits early leaves a stray tmp behind for crash recovery to
//!   clean up, and the *intended* write never lands.
//!
//! The lexical layer cannot see the failure mode because it lives in
//! the control flow: the happy path releases fine, and the leak hides
//! on a `?` early return or a diverging match arm. So this pass runs
//! a backward must-analysis over the [`crate::cfg`] CFG: a fact
//! ("release reached from here on every path") is generated at blocks
//! containing a release call and intersected over successors; the
//! claim/creation site is then checked against the solved flow. The
//! `?`-edge on the *creating* statement itself is exempt (if the
//! claim or write failed there is nothing to release).
//!
//! Claim sites are match arms whose pattern names `Claimed` — code
//! *constructing* a `Claimed` value (the ledger itself) generates no
//! fact, because construction sites are not arm-pattern blocks.
//!
//! A staging write whose tmp path is a *parameter* (never bound by a
//! `let` in the body) is delegated staging: the caller created the
//! tmp and owns its rename/cleanup — a helper filling the tmp of an
//! atomic wrapper, which renames it on `Ok` and removes it on `Err`.
//! Only the function that binds the tmp path carries the release
//! duty.

use std::collections::BTreeSet;

use crate::cfg::Cfg;
use crate::dataflow::{solve, Dir, Meet};
use crate::lexer::{Tok, TokKind};
use crate::parser::ItemKind;
use crate::rules::{PathStep, Violation};

use super::{Analysis, Pass};

pub struct ResourceLeak;

/// Fact 0: a lease release is reached on every path from here.
const LEASE: usize = 0;
/// Fact 1: a tmp-file resolution is reached on every path from here.
const TMP: usize = 1;

/// Calls that hand a claimed lease back (complete, give up, or record
/// the failure so the supervisor reassigns it).
const LEASE_RELEASE: [&str; 3] = ["complete", "release", "record_failure"];

/// Calls that resolve a staged tmp file: publish it, delete it, or
/// delegate to the atomic-write helper.
const TMP_RELEASE: [&str; 2] = ["rename", "remove_file"];

impl Pass for ResourceLeak {
    fn id(&self) -> &'static str {
        "resource-leak"
    }
    fn exit_code(&self) -> u8 {
        28
    }
    fn summary(&self) -> &'static str {
        "claimed leases and staged tmp files reach release/rename on every path"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        for (fi, file) in a.files.iter().enumerate() {
            let Some(src) = a.sources.get(fi) else { continue };
            if src.is_test_file() {
                continue;
            }
            for it in &file.items {
                if it.kind != ItemKind::Fn || it.is_test || it.body.0 >= it.body.1 {
                    continue;
                }
                // The atomic-write helper *is* the release machinery.
                if it.name.contains("atomic") {
                    continue;
                }
                let maybe_claim = (it.body.0..it.body.1)
                    .any(|i| src.code.get(i).is_some_and(|t| t.is_ident("Claimed")));
                let stages = tmp_write_sites(&src.code, it.body);
                if !maybe_claim && stages.is_empty() {
                    continue;
                }
                let cfg = Cfg::build(&src.code, it.body);
                let claims =
                    if maybe_claim { claim_sites(&cfg, &src.code) } else { Vec::new() };
                let flow = must_reach(&cfg, &src.code);
                for &tok in &claims {
                    let Some(line) = src.code.get(tok).map(|t| t.line) else { continue };
                    if src.is_test_code(line) || src.is_suppressed("resource-leak", line) {
                        continue;
                    }
                    let Some(b) = cfg.block_of(tok) else { continue };
                    if flow.inp.get(b).is_some_and(|f| f.contains(&LEASE)) {
                        continue;
                    }
                    out.push(Violation {
                        rule: "resource-leak",
                        path: escape_path(&cfg, &src.code, &src.rel, b, LEASE, line),
                        file: src.rel.clone(),
                        line,
                        message: format!(
                            "lease claimed in `{}` does not reach \
                             `complete`/`release`/`record_failure` on every path — \
                             the escaping path leaves the key invisible to other \
                             workers until the lease expires",
                            it.qual()
                        ),
                    });
                }
                for &tok in &stages {
                    let Some(line) = src.code.get(tok).map(|t| t.line) else { continue };
                    if src.is_test_code(line) || src.is_suppressed("resource-leak", line) {
                        continue;
                    }
                    // Delegated staging: a tmp path that is never
                    // `let`-bound here came in as a parameter, and the
                    // caller that created it owns the rename/cleanup.
                    if tmp_arg_ident(&src.code, tok)
                        .is_some_and(|name| !let_bound(&src.code, it.body, &name))
                    {
                        continue;
                    }
                    let Some(b) = cfg.block_of(tok) else { continue };
                    if released_after(&cfg, &src.code, b, tok) {
                        continue;
                    }
                    // The staging write's own `?` edge is exempt (a
                    // failed write stages nothing), so the check is on
                    // the fall-through successors, not on `in[b]`.
                    let succs =
                        cfg.blocks.get(b).map(|blk| blk.succs.clone()).unwrap_or_default();
                    let fall: Vec<usize> =
                        succs.iter().copied().filter(|&s| s != cfg.exit).collect();
                    let ok = !fall.is_empty()
                        && fall
                            .iter()
                            .all(|&s| flow.inp.get(s).is_some_and(|f| f.contains(&TMP)));
                    if ok {
                        continue;
                    }
                    out.push(Violation {
                        rule: "resource-leak",
                        path: escape_path(&cfg, &src.code, &src.rel, b, TMP, line),
                        file: src.rel.clone(),
                        line,
                        message: format!(
                            "tmp file staged in `{}` does not reach \
                             `rename`/`remove_file` (or an atomic-write helper) on \
                             every path — an early return strands the tmp and the \
                             durable write never lands",
                            it.qual()
                        ),
                    });
                }
            }
        }
        out.sort_by(|x, y| (&x.file, x.line, &x.message).cmp(&(&y.file, y.line, &y.message)));
        out.dedup_by(|x, y| x.file == y.file && x.line == y.line && x.message == y.message);
    }
}

/// Backward must-analysis: which release facts are reached on every
/// path from each block?
fn must_reach(cfg: &Cfg, code: &[Tok]) -> crate::dataflow::Flow {
    let universe: BTreeSet<usize> = [LEASE, TMP].into_iter().collect();
    solve(cfg, Dir::Backward, Meet::Intersect, &universe, &|b, facts| {
        let mut f = facts.clone();
        if block_has_release(cfg, code, b, LEASE) {
            f.insert(LEASE);
        }
        if block_has_release(cfg, code, b, TMP) {
            f.insert(TMP);
        }
        f
    })
}

/// Does block `b` contain a release call for `kind`?
fn block_has_release(cfg: &Cfg, code: &[Tok], b: usize, kind: usize) -> bool {
    let Some(blk) = cfg.blocks.get(b) else { return false };
    (blk.lo..blk.hi).any(|i| is_release_at(code, i, kind))
}

/// Is the token at `i` a release call of `kind`?
fn is_release_at(code: &[Tok], i: usize, kind: usize) -> bool {
    let Some(t) = code.get(i) else { return false };
    if t.kind != TokKind::Ident || !code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        return false;
    }
    match kind {
        LEASE => LEASE_RELEASE.contains(&t.text.as_str()),
        _ => TMP_RELEASE.contains(&t.text.as_str()) || t.text.contains("atomic"),
    }
}

/// Match-arm pattern tokens naming `Claimed` — the token index of
/// each claim site. Only `arm` blocks count: a pattern position is
/// a *destructuring* of an already-claimed lease, whereas `Claimed`
/// in a normal block is the ledger constructing one.
fn claim_sites(cfg: &Cfg, code: &[Tok]) -> Vec<usize> {
    let mut out = Vec::new();
    for blk in &cfg.blocks {
        if !blk.arm {
            continue;
        }
        for i in blk.lo..blk.hi {
            if code.get(i).is_some_and(|t| t.is_ident("Claimed")) {
                out.push(i);
            }
        }
    }
    out
}

/// Direct writes whose arguments mention a tmp path: `fs::write(tmp,
/// ..)`, `File::create(&tmp_path)`, `.create_new(true)` on a tmp
/// open. The token index of each call name.
fn tmp_write_sites(code: &[Tok], body: (usize, usize)) -> Vec<usize> {
    let mut out = Vec::new();
    for i in body.0..body.1 {
        let Some(t) = code.get(i) else { break };
        if t.kind != TokKind::Ident || !code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let qualified_write = t.is_ident("write")
            && code.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct(':'))
            && code.get(i.wrapping_sub(3)).is_some_and(|q| q.is_ident("fs"));
        let is_create = t.is_ident("create") || t.is_ident("create_new");
        if !qualified_write && !is_create {
            continue;
        }
        if args_mention_tmp(code, i) {
            out.push(i);
        }
    }
    out
}

/// Does the argument list opening at `call + 1` mention a tmp-named
/// identifier?
fn args_mention_tmp(code: &[Tok], call: usize) -> bool {
    tmp_arg_ident(code, call).is_some()
}

/// The first tmp-named identifier in the argument list opening at
/// `call + 1`, if any — the staged path this write creates.
fn tmp_arg_ident(code: &[Tok], call: usize) -> Option<String> {
    let mut depth = 0i64;
    for k in call + 1..code.len() {
        let t = code.get(k)?;
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident && t.text.to_lowercase().contains("tmp") {
            return Some(t.text.clone());
        }
    }
    None
}

/// Is `name` bound by a `let` (or `let mut`) anywhere in `body`? A
/// tmp path that is never bound locally came in as a parameter, so
/// the caller owns its lifecycle.
fn let_bound(code: &[Tok], body: (usize, usize), name: &str) -> bool {
    (body.0..body.1).any(|i| {
        code.get(i).is_some_and(|t| t.is_ident(name))
            && (code.get(i.wrapping_sub(1)).is_some_and(|p| p.is_ident("let"))
                || (code.get(i.wrapping_sub(1)).is_some_and(|p| p.is_ident("mut"))
                    && code.get(i.wrapping_sub(2)).is_some_and(|p| p.is_ident("let"))))
    })
}

/// A witness path from the acquisition block to the function exit
/// that avoids every release block — the path the resource leaks on.
fn escape_path(
    cfg: &Cfg,
    code: &[Tok],
    rel: &str,
    from: usize,
    kind: usize,
    acquire_line: u32,
) -> Vec<PathStep> {
    // BFS to exit through release-free blocks.
    let mut pred: Vec<Option<usize>> = vec![None; cfg.blocks.len()];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    let mut seen = vec![false; cfg.blocks.len()];
    if let Some(s) = seen.get_mut(from) {
        *s = true;
    }
    while let Some(b) = queue.pop_front() {
        if b == cfg.exit {
            break;
        }
        let succs = cfg.blocks.get(b).map(|blk| blk.succs.clone()).unwrap_or_default();
        for s in succs {
            if seen.get(s).copied().unwrap_or(true)
                || (s != cfg.exit && block_has_release(cfg, code, s, kind))
            {
                continue;
            }
            if let Some(slot) = seen.get_mut(s) {
                *slot = true;
            }
            if let Some(slot) = pred.get_mut(s) {
                *slot = Some(b);
            }
            queue.push_back(s);
        }
    }
    let mut chain = vec![cfg.exit];
    let mut cur = cfg.exit;
    for _ in 0..cfg.blocks.len() {
        match pred.get(cur).copied().flatten() {
            Some(p) => {
                chain.push(p);
                cur = p;
            }
            None => break,
        }
    }
    chain.reverse();
    let mut steps = vec![PathStep {
        file: rel.to_string(),
        line: acquire_line,
        label: "resource acquired".to_string(),
    }];
    // Report the interior blocks the leak flows through (dedup by
    // line; the exit pseudo-block has no tokens of its own).
    let mut last = acquire_line;
    for &b in &chain {
        if b == cfg.exit || b == from {
            continue;
        }
        let line = cfg.first_line(code, b);
        if line != 0 && line != last {
            steps.push(PathStep {
                file: rel.to_string(),
                line,
                label: "escapes without release".to_string(),
            });
            last = line;
        }
    }
    // When the escape edge leaves the acquisition block itself (a `?`
    // in the same block), point at that block's last token so the
    // witness still names the escaping line.
    if steps.len() == 1 {
        let line = cfg
            .blocks
            .get(from)
            .and_then(|blk| blk.hi.checked_sub(1))
            .and_then(|i| code.get(i))
            .map_or(0, |t| t.line);
        if line != 0 && line != acquire_line {
            steps.push(PathStep {
                file: rel.to_string(),
                line,
                label: "escapes without release".to_string(),
            });
        }
    }
    steps
}

/// Is there a release of `kind` later in the same block as the
/// staging call at `tok`?
fn released_after(cfg: &Cfg, code: &[Tok], b: usize, tok: usize) -> bool {
    let Some(blk) = cfg.blocks.get(b) else { return false };
    (tok + 1..blk.hi).any(|i| is_release_at(code, i, TMP))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(srcs: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<SourceFile> =
            srcs.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
        let a = Analysis::build(&sources);
        let mut out = Vec::new();
        ResourceLeak.check(&a, &mut out);
        out
    }

    #[test]
    fn a_question_mark_between_claim_and_complete_leaks() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn run_one(file: &LedgerFile, key: &str) -> R {\n    \
             match file.claim(key)? {\n        \
             Outcome::Claimed(k) => {\n            \
             let spec = lookup(&k)?;\n            \
             file.complete(&k, spec)?;\n        }\n        \
             Outcome::Busy => {}\n    }\n    Ok(())\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("lease"), "{v:?}");
        assert!(!v[0].path.is_empty(), "{v:?}");
    }

    #[test]
    fn releasing_on_every_path_is_clean() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn run_one(file: &LedgerFile, key: &str) -> R {\n    \
             match file.claim(key)? {\n        \
             Outcome::Claimed(k) => {\n            \
             let Some(spec) = lookup(&k) else {\n                \
             file.release(&k)?;\n                return Ok(());\n            };\n            \
             file.complete(&k, spec)?;\n        }\n        \
             Outcome::Busy => {}\n    }\n    Ok(())\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn an_err_arm_that_records_failure_is_clean() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn run_one(file: &LedgerFile, key: &str) -> R {\n    \
             match file.claim(key)? {\n        \
             Outcome::Claimed(k) => {\n            \
             match work(&k) {\n                \
             Ok(r) => file.complete(&k, r)?,\n                \
             Err(e) => file.record_failure(&k, e)?,\n            }\n        }\n        \
             Outcome::Busy => {}\n    }\n    Ok(())\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_tmp_write_that_can_skip_rename_leaks() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn save(path: &Path, text: &str) -> R {\n    \
             let tmp = sibling(path);\n    \
             fs::write(&tmp, text)?;\n    \
             validate(text)?;\n    \
             fs::rename(&tmp, path)?;\n    Ok(())\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("tmp"), "{v:?}");
    }

    #[test]
    fn staging_then_renaming_directly_is_clean() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn save(path: &Path, text: &str) -> R {\n    \
             let tmp = sibling(path);\n    \
             fs::write(&tmp, text)?;\n    \
             fs::rename(&tmp, path)?;\n    Ok(())\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn constructing_claimed_is_not_a_claim_site() {
        // The ledger returning `Claimed` acquires nothing itself.
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn claim(&mut self, key: &str) -> Outcome {\n    \
             if self.free(key) {\n        return Outcome::Claimed(key.to_string());\n    }\n    \
             Outcome::Busy\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn atomic_helpers_are_exempt() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "pub fn write_atomic(path: &Path, text: &str) -> R {\n    \
             let tmp = sibling(path);\n    \
             fs::write(&tmp, text)?;\n    \
             fs::rename(&tmp, path)?;\n    Ok(())\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_parameter_tmp_path_is_the_callers_duty() {
        // The `write_trace_atomic` -> `stream_to_file` shape: the
        // helper writes into a tmp path it did not create, and the
        // atomic wrapper renames/removes around the call.
        let v = run(&[(
            "crates/trace/src/file.rs",
            "fn stream_to_file(tmp: &Path, records: I) -> R {\n    \
             let file = File::create(tmp)?;\n    \
             let n = write_all(file, records)?;\n    Ok(n)\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn delegating_to_an_atomic_helper_resolves_the_tmp() {
        let v = run(&[(
            "crates/core/src/results.rs",
            "pub fn publish(path: &Path, text: &str) -> R {\n    \
             let tmp = sibling(path);\n    \
             fs::write(&tmp, probe)?;\n    \
             finish_atomic(&tmp, path)?;\n    Ok(())\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
