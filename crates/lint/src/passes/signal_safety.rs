//! Pass 7: async-signal-safety of the signal-handler subtree.
//!
//! A signal handler runs on whatever thread the kernel interrupts,
//! possibly in the middle of `malloc` or while that thread holds a
//! lock. The POSIX contract is brutal: inside the handler, only
//! async-signal-safe operations are defined — in this workspace's
//! terms, atomic loads/stores and a short list of raw syscalls.
//! Allocation deadlocks in the allocator, locks self-deadlock,
//! `println!`/`format!` do both.
//!
//! The pass finds every function nested inside an
//! `install_signal_token` definition (the handler is declared inline
//! so it cannot be called from normal code) and walks the call-graph
//! subtree those handlers can reach. Within that subtree every call
//! must be (a) a resolved workspace function — which is then itself
//! checked, (b) an atomic access ([`crate::parser::ATOMIC_OPS`]), or
//! (c) an allowlisted async-signal-safe syscall
//! (`signal`/`raise`/`_exit`/`abort`/`fence`/`compiler_fence`).
//! Everything else — any macro, any unresolved call — is a finding
//! with a witness path from the handler.
//!
//! Soundness caveats: resolution is receiver-blind, so edges out of
//! the handler through a method *named like* an atomic op
//! (`load`/`store`/…) are not descended into — a hand-written
//! `fn store` that allocates would be trusted; conversely an
//! unresolved call to a genuinely safe raw syscall outside the
//! allowlist needs a waiver:
//! `// nls-lint: allow(signal-safety): <why this call is safe>`.

use crate::callgraph::fns_within;
use crate::parser::{ItemKind, ATOMIC_OPS};
use crate::rules::Violation;
use crate::symbols::{lookup, FnId};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use super::{Analysis, Pass};

pub struct SignalSafety;

/// Raw calls that are async-signal-safe per POSIX (the subset this
/// workspace uses): re-arming/raising signals, immediate exit, and
/// memory fences.
const SIGNAL_SAFE: [&str; 6] = ["signal", "raise", "_exit", "abort", "fence", "compiler_fence"];

/// The handler roots: functions nested inside any non-test
/// `install_signal_token` definition.
fn handler_roots(a: &Analysis) -> Vec<FnId> {
    let mut out = Vec::new();
    for (fi, file) in a.files.iter().enumerate() {
        for (ii, it) in file.items.iter().enumerate() {
            if it.kind == ItemKind::Fn && !it.is_test && it.name == "install_signal_token" {
                out.extend(fns_within(&a.files, (fi, ii)));
            }
        }
    }
    out
}

/// Reachability from the handlers that does not descend through
/// calls resolved via an atomic-op name (`load`/`store`/… edges are
/// receiver-blind resolution artifacts, not real handler callees).
fn handler_reach(a: &Analysis, roots: &[FnId]) -> BTreeMap<FnId, FnId> {
    let mut pred: BTreeMap<FnId, FnId> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &r in roots {
        if let Entry::Vacant(slot) = pred.entry(r) {
            slot.insert(r);
            queue.push_back(r);
        }
    }
    while let Some(id) = queue.pop_front() {
        for e in a.graph.edges_from(id) {
            if lookup(&a.files, e.callee)
                .is_some_and(|(_, it)| ATOMIC_OPS.contains(&it.name.as_str()))
            {
                continue;
            }
            if let Entry::Vacant(slot) = pred.entry(e.callee) {
                slot.insert(id);
                queue.push_back(e.callee);
            }
        }
    }
    pred
}

impl Pass for SignalSafety {
    fn id(&self) -> &'static str {
        "signal-safety"
    }
    fn exit_code(&self) -> u8 {
        24
    }
    fn summary(&self) -> &'static str {
        "the signal-handler call subtree touches only atomics and async-signal-safe syscalls"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        let roots = handler_roots(a);
        let pred = handler_reach(a, &roots);
        for &id in pred.keys() {
            let Some((_, it)) = lookup(&a.files, id) else { continue };
            let Some(src) = a.source_of(id) else { continue };
            for call in a.graph.calls_in(id) {
                if src.is_suppressed(self.id(), call.line) {
                    continue;
                }
                let safe = if call.is_macro {
                    false
                } else if ATOMIC_OPS.contains(&call.name.as_str())
                    || SIGNAL_SAFE.contains(&call.name.as_str())
                {
                    true
                } else {
                    // A resolved workspace callee is in `pred` and is
                    // checked on its own; unresolved external code
                    // cannot be inspected, so it must be allowlisted.
                    !a.symbols.resolve(call, it.owner.as_deref()).is_empty()
                };
                if safe {
                    continue;
                }
                let path = a.graph.path_to(&pred, id, &a.files);
                let bang = if call.is_macro { "!" } else { "" };
                out.push(Violation {
                    rule: self.id(),
                    path: super::witness_steps(
                        a,
                        &pred,
                        id,
                        &src.rel,
                        call.line,
                        &format!("`{}{bang}` is not async-signal-safe", call.name),
                    ),
                    file: src.rel.clone(),
                    line: call.line,
                    message: format!(
                        "`{}{bang}` in the signal-handler subtree is not async-signal-safe \
                         (no alloc/locks/format); handler path {}",
                        call.name,
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
    use crate::source::SourceFile;

    fn run(srcs: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<SourceFile> =
            srcs.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
        let a = Analysis::build(&sources);
        let mut out = Vec::new();
        SignalSafety.check(&a, &mut out);
        out
    }

    const INSTALL_PREFIX: &str = "pub fn install_signal_token() -> CancelToken {\n";

    #[test]
    fn a_store_only_handler_is_clean() {
        let v = run(&[(
            "crates/core/src/supervisor.rs",
            &format!(
                "{INSTALL_PREFIX}    extern \"C\" fn on_signal(_s: i32) {{\n        \
                 SIGNALLED.store(true, Ordering::SeqCst);\n    }}\n    \
                 unsafe {{ signal(2, on_signal as usize) }};\n    CancelToken::new()\n}}\n"
            ),
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn printing_in_the_handler_is_flagged() {
        let v = run(&[(
            "crates/core/src/supervisor.rs",
            &format!(
                "{INSTALL_PREFIX}    extern \"C\" fn on_signal(_s: i32) {{\n        \
                 println!(\"caught\");\n    }}\n}}\n"
            ),
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`println!`"), "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn allocation_two_calls_deep_is_flagged_with_a_path() {
        let v = run(&[(
            "crates/core/src/supervisor.rs",
            &format!(
                "{INSTALL_PREFIX}    extern \"C\" fn on_signal(_s: i32) {{ note(); }}\n}}\n\
                 fn note() {{ let _m = format!(\"sig\"); }}\n"
            ),
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("on_signal -> note"), "{v:?}");
        assert!(v[0].message.contains("`format!`"), "{v:?}");
    }

    #[test]
    fn taking_a_lock_in_the_subtree_is_flagged() {
        let v = run(&[(
            "crates/core/src/supervisor.rs",
            &format!(
                "{INSTALL_PREFIX}    extern \"C\" fn on_signal(_s: i32) {{\n        \
                 STATE.lock().push(1);\n    }}\n}}\n"
            ),
        )]);
        assert!(v.iter().any(|x| x.message.contains("`lock`")), "{v:?}");
    }

    #[test]
    fn code_outside_the_handler_subtree_is_out_of_scope() {
        let v = run(&[(
            "crates/core/src/supervisor.rs",
            "pub fn report() { println!(\"fine here\"); }\n",
        )]);
        assert!(v.is_empty(), "no install_signal_token, no findings: {v:?}");
    }

    #[test]
    fn a_waiver_on_a_safe_raw_syscall_is_honoured() {
        let v = run(&[(
            "crates/core/src/supervisor.rs",
            &format!(
                "{INSTALL_PREFIX}    extern \"C\" fn on_signal(_s: i32) {{\n        \
                 // nls-lint: allow(signal-safety): write(2) to a pipe fd is async-signal-safe\n        \
                 unsafe {{ raw_write(WAKE_FD, PING.as_ptr(), 1) }};\n    }}\n}}\n"
            ),
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
