//! Pass 6: ordering discipline per atomic role.
//!
//! Every `Atomic*` variable in the workspace gets a role inferred
//! from its access profile — *counter* (arithmetic read-modify-write
//! anywhere), *cancel flag* (an `AtomicBool` that is both stored and
//! loaded), or *latch* (everything else) — and each role carries an
//! ordering protocol:
//!
//! * a **cancel flag** crosses threads by definition (one side
//!   stores, the other polls), so loading it with
//!   `Ordering::Relaxed` is a finding: the poller is allowed to
//!   defer the store indefinitely, which is exactly the hang the
//!   supervision layer exists to prevent. `--fix` rewrites the
//!   ordering token to `SeqCst` (the workspace baseline; weaken to
//!   acquire/release deliberately, with a measurement);
//! * **mixed orderings** on one variable are a finding regardless of
//!   role — a protocol that differs per call site is not a protocol,
//!   and the weakest site wins at runtime;
//! * a **counter** whose relaxed read-modify-write result gates
//!   control flow (`if x.fetch_add(1, Relaxed) + 1 >= n { … }`) is a
//!   finding: `Relaxed` orders nothing around the counter, so the
//!   gated action races with the state it is supposed to protect.
//!   Let-binding the result for telemetry stays clean.
//!
//! Soundness caveats: variables are matched to access sites *by
//! name* across the whole workspace (same approximation as
//! receiver-blind method resolution) — two same-named fields share
//! one role and one ordering profile; accesses routed through a
//! helper whose `Ordering` argument is a variable contribute no
//! ordering evidence. Intentional relaxed protocols (pure
//! statistics counters) are waived with
//! `// nls-lint: allow(atomics-discipline): <why relaxed is enough>`.

use std::collections::BTreeMap;

use crate::parser::{atomic_ops, AtomicOp};
use crate::rules::Violation;

use super::{Analysis, Fix, Pass};

pub struct AtomicsDiscipline;

/// The inferred role of one atomic variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    CancelFlag,
    Counter,
    Latch,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::CancelFlag => "cancel flag",
            Role::Counter => "counter",
            Role::Latch => "latch",
        }
    }
}

/// One atomic variable's declaration site plus every non-test access
/// to its name across the workspace (`usize` = source index).
struct Profile {
    ty: String,
    decl_file: usize,
    decl_line: u32,
    ops: Vec<(usize, AtomicOp)>,
}

fn role_of(p: &Profile) -> Role {
    let has = |f: &dyn Fn(&AtomicOp) -> bool| p.ops.iter().any(|(_, o)| f(o));
    if has(&|o| matches!(o.op.as_str(), "fetch_add" | "fetch_sub")) {
        return Role::Counter;
    }
    if p.ty == "AtomicBool"
        && has(&|o| o.op == "store" || o.op == "swap")
        && has(&|o| o.op == "load")
    {
        return Role::CancelFlag;
    }
    Role::Latch
}

/// Builds the per-variable access profiles: non-test declarations
/// joined by name with non-test access sites.
fn profiles(a: &Analysis) -> BTreeMap<String, Profile> {
    let mut out: BTreeMap<String, Profile> = BTreeMap::new();
    for (fi, file) in a.files.iter().enumerate() {
        for decl in &file.atomics {
            if decl.is_test || a.sources.get(fi).is_some_and(|s| s.is_test_file()) {
                continue;
            }
            out.entry(decl.name.clone()).or_insert(Profile {
                ty: decl.ty.clone(),
                decl_file: fi,
                decl_line: decl.line,
                ops: Vec::new(),
            });
        }
    }
    for (fi, src) in a.sources.iter().enumerate() {
        if src.is_test_file() {
            continue;
        }
        for op in atomic_ops(&src.code, (0, src.code.len())) {
            if src.is_test_code(op.line) {
                continue;
            }
            if let Some(p) = out.get_mut(&op.recv) {
                p.ops.push((fi, op));
            }
        }
    }
    out
}

/// The findings and their machine-applicable repairs, computed
/// together so `check` and `fixes` cannot disagree.
fn findings(a: &Analysis) -> (Vec<Violation>, Vec<Fix>) {
    let id = AtomicsDiscipline.id();
    let mut out = Vec::new();
    let mut fixes = Vec::new();
    for (name, p) in profiles(a) {
        let role = role_of(&p);
        // Mixed orderings across the variable's access sites.
        let mut orderings: Vec<&str> =
            p.ops.iter().flat_map(|(_, o)| o.orderings.iter().map(String::as_str)).collect();
        orderings.sort_unstable();
        orderings.dedup();
        if orderings.len() > 1 {
            if let Some(src) = a.sources.get(p.decl_file) {
                if !src.is_suppressed(id, p.decl_line) {
                    out.push(Violation {
                        rule: id,
                        path: Vec::new(),
                        file: src.rel.clone(),
                        line: p.decl_line,
                        message: format!(
                            "atomic {} `{name}` is accessed with mixed orderings \
                             ({}) across {} sites — the weakest site wins; pick one protocol",
                            role.name(),
                            orderings.join(", "),
                            p.ops.len()
                        ),
                    });
                }
            }
        }
        for (fi, op) in &p.ops {
            let Some(src) = a.sources.get(*fi) else { continue };
            if src.is_suppressed(id, op.line) {
                continue;
            }
            let relaxed = op.orderings.iter().any(|o| o == "Relaxed");
            if role == Role::CancelFlag && op.op == "load" && relaxed {
                out.push(Violation {
                    rule: id,
                    path: Vec::new(),
                    file: src.rel.clone(),
                    line: op.line,
                    message: format!(
                        "cross-thread cancel flag `{name}` loaded with Ordering::Relaxed — \
                         the poller may never observe the store (declared at {}:{})",
                        a.sources.get(p.decl_file).map_or("?", |s| s.rel.as_str()),
                        p.decl_line
                    ),
                });
                fixes.push(Fix {
                    file: src.rel.clone(),
                    line: op.line,
                    from: "Relaxed",
                    to: "SeqCst",
                });
            }
            let is_rmw = op.op.starts_with("fetch") || op.op == "swap";
            if is_rmw && op.in_condition && relaxed {
                out.push(Violation {
                    rule: id,
                    path: Vec::new(),
                    file: src.rel.clone(),
                    line: op.line,
                    message: format!(
                        "read-modify-write on {} `{name}` gates control flow with \
                         Ordering::Relaxed — the gated action races with the state it \
                         protects; strengthen the ordering or gate on locked state",
                        role.name()
                    ),
                });
            }
        }
    }
    out.sort_by(|x, y| (&x.file, x.line).cmp(&(&y.file, y.line)));
    (out, fixes)
}

impl Pass for AtomicsDiscipline {
    fn id(&self) -> &'static str {
        "atomics-discipline"
    }
    fn exit_code(&self) -> u8 {
        23
    }
    fn summary(&self) -> &'static str {
        "atomic fields follow the ordering protocol of their inferred role (flag/counter/latch)"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        out.extend(findings(a).0);
    }

    fn fixes(&self, a: &Analysis) -> Vec<Fix> {
        findings(a).1
    }
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
        AtomicsDiscipline.check(&a, &mut out);
        out
    }

    #[test]
    fn relaxed_load_of_a_cancel_flag_is_flagged_and_fixable() {
        let srcs = [(
            "crates/core/src/budget.rs",
            "pub struct T { stop: Arc<AtomicBool> }\n\
             impl T {\n    \
             pub fn cancel(&self) { self.stop.store(true, Ordering::SeqCst); }\n    \
             pub fn is_on(&self) -> bool { self.stop.load(Ordering::Relaxed) }\n}\n",
        )];
        let v = run(&srcs);
        assert_eq!(v.len(), 2, "relaxed load + mixed orderings: {v:?}");
        assert!(v.iter().any(|x| x.message.contains("cancel flag `stop` loaded")), "{v:?}");
        let sources: Vec<SourceFile> =
            srcs.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
        let a = Analysis::build(&sources);
        let fixes = AtomicsDiscipline.fixes(&a);
        assert_eq!(fixes.len(), 1);
        assert_eq!((fixes[0].line, fixes[0].from, fixes[0].to), (4, "Relaxed", "SeqCst"));
    }

    #[test]
    fn a_seqcst_flag_protocol_is_clean() {
        let v = run(&[(
            "crates/core/src/budget.rs",
            "pub struct T { stop: AtomicBool }\n\
             impl T {\n    \
             pub fn cancel(&self) { self.stop.store(true, Ordering::SeqCst); }\n    \
             pub fn is_on(&self) -> bool { self.stop.load(Ordering::SeqCst) }\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn mixed_orderings_are_reported_at_the_declaration() {
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "static DONE: AtomicUsize = AtomicUsize::new(0);\n\
             pub fn a() { DONE.store(1, Ordering::Release); }\n\
             pub fn b() -> usize { DONE.load(Ordering::Relaxed) }\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert!(v[0].message.contains("mixed orderings (Relaxed, Release)"), "{v:?}");
    }

    #[test]
    fn relaxed_rmw_gating_control_flow_is_flagged() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn work(unsaved: &AtomicUsize) {\n    \
             if unsaved.fetch_add(1, Ordering::Relaxed) + 1 >= 8 { flush(); }\n}\n\
             fn flush() {}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("gates control flow"), "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn a_let_bound_relaxed_counter_is_a_clean_ticket_dispenser() {
        // The sweep work queue: the fetch_add result indexes a list,
        // it does not gate an action that needs ordering.
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn claim(next: &AtomicUsize) -> usize {\n    \
             let t = next.fetch_add(1, Ordering::Relaxed);\n    t\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_waiver_on_the_access_site_is_honoured() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn work(hits: &AtomicUsize) {\n    \
             // nls-lint: allow(atomics-discipline): statistics only; the gate tolerates staleness\n    \
             if hits.fetch_add(1, Ordering::Relaxed) > 100 { note(); }\n}\n\
             fn note() {}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_code_contributes_no_evidence() {
        let v = run(&[(
            "crates/core/src/budget.rs",
            "pub struct T { stop: AtomicBool }\n\
             impl T { pub fn is_on(&self) -> bool { self.stop.load(Ordering::SeqCst) } }\n\
             #[cfg(test)]\nmod tests {\n    \
             fn t(x: &super::T) { x.stop.store(true, Ordering::Relaxed); }\n}\n",
        )]);
        assert!(v.is_empty(), "test-only store neither promotes to flag nor mixes: {v:?}");
    }
}
