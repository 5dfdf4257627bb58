//! Pass 5: budget/cancellation polling on every supervised loop.
//!
//! The supervision contract (DESIGN.md §8) says a simulation can
//! always be stopped cooperatively: every loop on a path from an
//! engine `run*`/`drive*` root must poll nls-core's `Budget` or
//! `CancelToken` — otherwise a deadline, record budget, or SIGINT
//! lands in a loop that never looks up and the process hangs until
//! the loop happens to finish.
//!
//! Scope and exemptions, in call-graph terms:
//!
//! * roots are the non-test `run*`/`drive*` functions defined in
//!   [`super::ENTRY_FILES`] (unlike the other reachability passes,
//!   `step` is *not* a root: one step is per-record bounded work, and
//!   the loop that invokes it is the thing that must poll);
//! * reachability does not descend into `step` or `step_block` for
//!   the same reason — everything under `step` runs within one
//!   record, and everything under `step_block` within one
//!   `BLOCK_RECORDS`-sized block, whose caller polls at the block
//!   boundary (the documented block-granularity supervision
//!   contract);
//! * only loops in functions *defined in* [`super::ENTRY_FILES`] are
//!   checked (a loop in, say, metrics aggregation is bounded by its
//!   input, not by trace length);
//! * only the outermost loop of a nest must poll — a poll anywhere in
//!   its span covers the inner loops, which are per-iteration work.
//!
//! A poll is any call named `check`/`check_now`/`is_cancelled`, any
//! call whose name starts with `poll` (a helper that polls on the
//! loop's behalf, such as a once-per-block quota check), or any call
//! qualified `Budget::`/`CancelToken::` (receiver-blind, like the
//! rest of the call graph). Bounded loops that genuinely
//! need no poll (a retry loop, a prefill over an in-memory list) are
//! waived with `// nls-lint: allow(cancellation-reach): <why bounded>`.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use crate::lexer::Tok;
use crate::parser::{call_sites, CallSite, ItemKind};
use crate::rules::{matching_punct, Violation};
use crate::symbols::{lookup, FnId};

use super::{Analysis, Pass, ENTRY_FILES};

pub struct CancellationReach;

/// The supervision roots: non-test `run*`/`drive*` functions defined
/// in [`ENTRY_FILES`].
fn supervision_roots(a: &Analysis) -> Vec<FnId> {
    let mut out = Vec::new();
    for (fi, file) in a.files.iter().enumerate() {
        if !ENTRY_FILES.contains(&file.rel.as_str()) {
            continue;
        }
        for (ii, it) in file.items.iter().enumerate() {
            if it.kind == ItemKind::Fn
                && !it.is_test
                && (it.name.starts_with("run") || it.name.starts_with("drive"))
            {
                out.push((fi, ii));
            }
        }
    }
    out
}

/// Breadth-first reachability that refuses to descend into `step`:
/// per-record work is bounded by construction, so its loops answer to
/// a different contract than the record-driving loops above it.
fn reach_skipping_step(a: &Analysis, roots: &[FnId]) -> BTreeMap<FnId, FnId> {
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
            // `step` is per-record bounded, `step_block` per-block
            // bounded: their internal loops finish without a poll.
            if lookup(&a.files, e.callee)
                .is_some_and(|(_, it)| it.name == "step" || it.name == "step_block")
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

/// The outermost loops of `span`, as `(line, token span)` pairs where
/// the span covers the loop header *and* body (a `while` condition
/// may hold the poll).
fn outermost_loops(code: &[Tok], span: (usize, usize)) -> Vec<(u32, (usize, usize))> {
    let mut out = Vec::new();
    let mut i = span.0;
    while i < span.1 {
        let Some(t) = code.get(i) else { break };
        // `for<'a>` in a higher-ranked bound is not a loop.
        let is_loop_kw = t.is_ident("loop")
            || t.is_ident("while")
            || (t.is_ident("for") && !code.get(i + 1).is_some_and(|n| n.is_punct('<')));
        if is_loop_kw {
            let mut j = i + 1;
            while j < span.1 && !code.get(j).is_some_and(|t| t.is_punct('{')) {
                j += 1;
            }
            if code.get(j).is_some_and(|t| t.is_punct('{')) {
                if let Some(close) = matching_punct(code, j, '{', '}') {
                    out.push((t.line, (i, close)));
                    // Nested loops ride on the outermost poll.
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// True when the call site reads the budget or the cancel token —
/// directly, or through a `poll*`-named helper.
fn is_poll(c: &CallSite) -> bool {
    matches!(c.name.as_str(), "check" | "check_now" | "is_cancelled")
        || c.name.starts_with("poll")
        || matches!(c.qualifier.as_deref(), Some("Budget" | "CancelToken"))
}

impl Pass for CancellationReach {
    fn id(&self) -> &'static str {
        "cancellation-reach"
    }
    fn exit_code(&self) -> u8 {
        22
    }
    fn summary(&self) -> &'static str {
        "every loop on a run*/drive* path in the engine files must poll the budget or cancel token"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        let roots = supervision_roots(a);
        let pred = reach_skipping_step(a, &roots);
        for &id in pred.keys() {
            let Some((file, it)) = lookup(&a.files, id) else { continue };
            if !ENTRY_FILES.contains(&file.rel.as_str()) {
                continue;
            }
            let Some(src) = a.source_of(id) else { continue };
            for (line, span) in outermost_loops(&src.code, it.body) {
                if src.is_suppressed(self.id(), line) {
                    continue;
                }
                if call_sites(&src.code, span).iter().any(is_poll) {
                    continue;
                }
                let path = a.graph.path_to(&pred, id, &a.files);
                out.push(Violation {
                    rule: self.id(),
                    path: super::witness_steps(
                        a,
                        &pred,
                        id,
                        &src.rel,
                        line,
                        "loop never polls Budget/CancelToken",
                    ),
                    file: src.rel.clone(),
                    line,
                    message: format!(
                        "loop never polls Budget/CancelToken on the supervised path {}",
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
    use crate::passes::Docs;
    use crate::source::SourceFile;

    fn run(srcs: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<SourceFile> =
            srcs.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
        let a = Analysis::build(&sources, Docs::default());
        let mut out = Vec::new();
        CancellationReach.check(&a, &mut out);
        out
    }

    #[test]
    fn an_unpolled_driving_loop_is_flagged_with_a_path() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn run_one() { inner(); }\n\
             fn inner(n: u64) { for _ in 0..n { work(); } }\n\
             fn work() {}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("run_one -> inner"), "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn a_budget_poll_anywhere_in_the_outermost_loop_satisfies_the_nest() {
        let v = run(&[(
            "crates/core/src/supervisor.rs",
            "pub fn drive_supervised(t: &[u8], budget: &Budget) {\n    \
             for r in t {\n        \
             budget.check(0, 0);\n        \
             for e in engines() { e.go(r); }\n    \
             }\n}\n\
             fn engines() -> Vec<E> { Vec::new() }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_poll_in_the_while_condition_counts() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn run_sweep(budget: &Budget) {\n    \
             while budget.check_now().is_ok() { claim(); }\n}\n\
             fn claim() {}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn loops_under_step_are_per_record_work_not_this_passes_business() {
        let v = run(&[(
            "crates/core/src/btb_engine.rs",
            "impl E {\n    \
             pub fn run_trace(&mut self) { self.step(); }\n    \
             fn step(&mut self) { self.probe(); }\n    \
             fn probe(&mut self) { for w in 0..4 { touch(w); } }\n}\n\
             fn touch(_w: u64) {}\n",
        )]);
        assert!(v.is_empty(), "per-record work is bounded by construction: {v:?}");
    }

    #[test]
    fn a_poll_named_helper_in_the_driving_loop_counts() {
        // A driving loop may poll once per block through a
        // `poll*`-named helper instead of calling `budget.check`
        // inline; that satisfies the rule.
        let v = run(&[(
            "crates/core/src/supervisor.rs",
            "pub fn drive_blocks(blocks: &[B], budget: &Budget) {\n    \
             for b in blocks {\n        \
             poll_block_quota(budget, 0, 0, b.len());\n        \
             consume(b);\n    \
             }\n}\n\
             fn consume(_b: &B) {}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn loops_under_step_block_are_per_block_work_not_this_passes_business() {
        // A block is BLOCK_RECORDS-bounded; the caller polls at the
        // block boundary, so `step_block`'s internal decode loops
        // need no poll of their own.
        let v = run(&[(
            "crates/core/src/btb_engine.rs",
            "impl E {\n    \
             pub fn drive_trace(&mut self) { self.step_block(); }\n    \
             fn step_block(&mut self) { for w in 0..4096 { touch(w); } }\n}\n\
             fn touch(_w: u64) {}\n",
        )]);
        assert!(v.is_empty(), "per-block work is bounded by construction: {v:?}");
    }

    #[test]
    fn loops_outside_the_engine_files_are_out_of_scope() {
        let v = run(&[
            ("crates/core/src/sweep.rs", "pub fn run_one() { crate::avg(); }\n"),
            ("crates/core/src/metrics.rs", "pub fn avg(xs: &[u64]) { for _ in xs {} }\n"),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_waiver_with_a_bound_argument_is_honoured() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn run_retry() {\n    \
             // nls-lint: allow(cancellation-reach): bounded by the retry budget\n    \
             for _ in 0..3 { attempt(); }\n}\n\
             fn attempt() {}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unreached_loops_in_engine_files_are_ignored() {
        let v =
            run(&[("crates/core/src/sweep.rs", "pub fn cross(n: u64) { for _ in 0..n {} }\n")]);
        assert!(v.is_empty(), "cross is not a run*/drive* root: {v:?}");
    }
}
