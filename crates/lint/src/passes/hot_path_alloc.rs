//! Pass 9: allocation-free `step`/`step_block`/`access_run` subtrees.
//!
//! The batched hot path earns its throughput by never touching the
//! allocator per record: predictor state is flat arrays, blocks are
//! reused, and the only growth happens at construction time. This
//! pass makes that a statically enforced contract, so a stray
//! `format!` in a predictor update cannot quietly cost an order of
//! magnitude until the next benchmark run notices.
//!
//! Roots are the non-test `step`/`step_block`/`access_run` functions
//! in the simulation surface — the engine files and the front end
//! (whose per-record `step` and per-block `step_block` drive every
//! engine) plus everything in `crates/predictors` and
//! `crates/icache` — and reachability stays
//! *inside* that surface: receiver-blind resolution would otherwise
//! drag driver-layer code behind every common method name (`step`
//! calling `.update(..)` also "resolves" to the ledger's `update`),
//! and the driver layer is allowed to allocate. Findings are
//! allocation/formatting markers that leave the workspace:
//!
//! * the `format!`/`vec!` macros (and the printing macros that embed
//!   the format machinery);
//! * `Box::new`, `String::from`;
//! * unresolved method calls that grow or produce heap storage:
//!   `push`, `insert`, `extend`, `append`, `reserve`,
//!   `with_capacity`, `to_string`, `to_owned`, `to_vec`, `collect`.
//!
//! A *resolved* call is never a finding: it lands on a workspace
//! function that is itself scanned (the fixed-capacity
//! `ReturnStack::push` is fine because its body is). That
//! receiver-blindness is also the pass's main caveat — a real
//! `Vec::push` whose name collides with any workspace method is
//! trusted; the benchmark's timings remain the dynamic backstop.
//!
//! Cold code is exempt without a waiver: allocation sites inside
//! [`crate::cfg`] cold blocks (`Err` match arms, diverging `let-else`
//! bodies) never run on the per-record path, and `#[cold]`-attributed
//! functions are neither scanned nor descended into — marking the
//! error-construction helper `#[cold]` is the supported way to take
//! it off the contract.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use crate::cfg::Cfg;
use crate::parser::{has_cold_attr, CallSite, ItemKind};
use crate::rules::{PathStep, Violation};
use crate::symbols::{lookup, FnId};

use super::{Analysis, Pass};

pub struct HotPathAlloc;

/// Macros that embed formatting/allocation machinery.
const ALLOC_MACROS: [&str; 6] = ["format", "vec", "println", "eprintln", "print", "write"];

/// Method names that grow or produce heap storage when they do not
/// resolve to a workspace definition.
const GROWTH_METHODS: [&str; 10] = [
    "push",
    "insert",
    "extend",
    "append",
    "reserve",
    "with_capacity",
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
];

/// The per-record engine files (the driver files in
/// [`super::ENTRY_FILES`] — sweep, supervisor, ledger — are *not*
/// hot: they run once per block or per run and may allocate).
/// [`hot_reach`] descends only into the files listed here.
const HOT_ENGINE_FILES: [&str; 6] = [
    // Roots `FetchEngine::step`/`step_block`; holds the shared hooks
    // (`resolve`, `classify`, `nls_action`) every engine calls.
    "crates/core/src/engine.rs",
    // Roots the front end's `step`/`step_block`, the per-record path
    // of every cell.
    "crates/core/src/front_end.rs",
    // The four engine modules root nothing: they hold the hooks
    // (`NlsTableCore::resolve`, the coupled engines' `fetch`/`refill`)
    // that the front end's roots reach, which listing keeps in scope.
    "crates/core/src/btb_engine.rs",
    "crates/core/src/nls_table_engine.rs",
    "crates/core/src/nls_cache_engine.rs",
    "crates/core/src/johnson_engine.rs",
];

/// The simulation surface the allocation-free contract covers.
fn is_hot_file(rel: &str) -> bool {
    HOT_ENGINE_FILES.contains(&rel)
        || rel.starts_with("crates/predictors/")
        || rel.starts_with("crates/icache/")
}

/// The hot-path roots: non-test `step`/`step_block`/`access_run`
/// definitions in the simulation surface.
fn hot_roots(a: &Analysis) -> Vec<FnId> {
    let mut out = Vec::new();
    for (fi, file) in a.files.iter().enumerate() {
        if !is_hot_file(&file.rel) {
            continue;
        }
        for (ii, it) in file.items.iter().enumerate() {
            if it.kind == ItemKind::Fn
                && !it.is_test
                && matches!(it.name.as_str(), "step" | "step_block" | "access_run")
            {
                out.push((fi, ii));
            }
        }
    }
    out
}

/// Reachability that never leaves the simulation surface: an edge to
/// a function defined outside [`is_hot_file`] is a receiver-blind
/// resolution artifact (or a driver-layer call that is not per-record
/// work) and is not descended into.
fn hot_reach(a: &Analysis, roots: &[FnId]) -> BTreeMap<FnId, FnId> {
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
            if !lookup(&a.files, e.callee).is_some_and(|(f, _)| is_hot_file(&f.rel)) {
                continue;
            }
            // A `#[cold]` callee is off the per-record path by
            // declaration; its subtree may allocate.
            let is_cold = a
                .source_of(e.callee)
                .zip(lookup(&a.files, e.callee))
                .is_some_and(|(src, (_, it))| has_cold_attr(&src.code, it));
            if is_cold {
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

/// True when this call site allocates (by the markers above) and
/// cannot be inspected further.
fn is_alloc_marker(a: &Analysis, it: &crate::parser::Item, call: &CallSite) -> bool {
    if call.is_macro {
        return ALLOC_MACROS.contains(&call.name.as_str());
    }
    if call.qualifier.as_deref() == Some("Box") && call.name == "new" {
        return true;
    }
    if call.qualifier.as_deref() == Some("String") && call.name == "from" {
        return true;
    }
    GROWTH_METHODS.contains(&call.name.as_str())
        && a.symbols.resolve(call, it.owner.as_deref()).is_empty()
}

/// True when the call site sits in a cold CFG block (an `Err` arm or
/// a diverging `let-else` body) — never per-record work.
fn in_cold_block(
    cfg: &Cfg,
    code: &[crate::lexer::Tok],
    body: (usize, usize),
    call: &CallSite,
) -> bool {
    let Some(tok) = (body.0..body.1)
        .find(|&i| code.get(i).is_some_and(|t| t.line == call.line && t.is_ident(&call.name)))
    else {
        return false;
    };
    cfg.block_of(tok).and_then(|b| cfg.blocks.get(b)).is_some_and(|blk| blk.cold)
}

impl Pass for HotPathAlloc {
    fn id(&self) -> &'static str {
        "hot-path-alloc"
    }
    fn exit_code(&self) -> u8 {
        26
    }
    fn summary(&self) -> &'static str {
        "no allocation, format!, Box, or growable pushes reachable from step/step_block/access_run"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        let roots = hot_roots(a);
        let pred = hot_reach(a, &roots);
        for &id in pred.keys() {
            let Some((_, it)) = lookup(&a.files, id) else { continue };
            let Some(src) = a.source_of(id) else { continue };
            if has_cold_attr(&src.code, it) {
                continue;
            }
            // Lazily built: most hot functions have no markers.
            let mut cfg: Option<Cfg> = None;
            for call in a.graph.calls_in(id) {
                if src.is_suppressed(self.id(), call.line) {
                    continue;
                }
                if !is_alloc_marker(a, it, call) {
                    continue;
                }
                let c = cfg.get_or_insert_with(|| Cfg::build(&src.code, it.body));
                if in_cold_block(c, &src.code, it.body, call) {
                    continue;
                }
                let path = a.graph.path_to(&pred, id, &a.files);
                let mut steps: Vec<PathStep> = a
                    .graph
                    .path_steps(&pred, id, &a.files)
                    .into_iter()
                    .map(|(file, line, qual)| PathStep {
                        file,
                        line,
                        label: format!("hot path through `{qual}`"),
                    })
                    .collect();
                steps.push(PathStep {
                    file: src.rel.clone(),
                    line: call.line,
                    label: format!("`{}` allocates", call.name),
                });
                let bang = if call.is_macro { "!" } else { "" };
                out.push(Violation {
                    rule: self.id(),
                    path: steps,
                    file: src.rel.clone(),
                    line: call.line,
                    message: format!(
                        "`{}{bang}` allocates on the hot path {}",
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
    use crate::passes::Docs;
    use crate::source::SourceFile;

    fn run(srcs: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<SourceFile> =
            srcs.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
        let a = Analysis::build(&sources, Docs::default());
        let mut out = Vec::new();
        HotPathAlloc.check(&a, &mut out);
        out
    }

    #[test]
    fn an_unresolved_push_under_step_is_flagged_with_a_path() {
        let v = run(&[(
            "crates/core/src/engine.rs",
            "impl E {\n    \
             pub fn step(&mut self) { self.note(); }\n    \
             fn note(&mut self) { self.events.push(1); }\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("E::step -> E::note"), "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn format_machinery_under_step_block_is_flagged() {
        let v = run(&[(
            "crates/core/src/engine.rs",
            "impl E { pub fn step_block(&mut self) { let _k = format!(\"{}\", 1); } }\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`format!`"), "{v:?}");
    }

    #[test]
    fn a_fixed_capacity_workspace_push_is_inspected_not_flagged() {
        // `.push` resolves to the circular ReturnStack, whose body is
        // scanned and allocation-free — the SoA discipline in action.
        let v = run(&[(
            "crates/predictors/src/ras.rs",
            "pub struct ReturnStack { top: usize }\n\
             impl ReturnStack {\n    \
             pub fn access_run(&mut self) { self.push(7); }\n    \
             pub fn push(&mut self, addr: u64) { self.top = (self.top + 1) % 8; }\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allocation_off_the_hot_path_is_out_of_scope() {
        let v = run(&[(
            "crates/core/src/engine.rs",
            "impl E {\n    \
             pub fn new() -> E { let mut v = Vec::new(); v.push(1); E }\n    \
             pub fn step(&mut self) {}\n}\n",
        )]);
        assert!(v.is_empty(), "constructors may allocate: {v:?}");
    }

    #[test]
    fn an_err_arm_allocation_is_cold_and_exempt() {
        // Error construction on the failure branch never runs per
        // record — the CFG marks the `Err` arm cold.
        let v = run(&[(
            "crates/core/src/engine.rs",
            "impl E {\n    \
             pub fn step(&mut self) {\n        \
             match self.fetch() {\n            \
             Ok(w) => self.apply(w),\n            \
             Err(e) => self.log.push(e),\n        }\n    }\n    \
             fn fetch(&self) -> R { Ok(1) }\n    \
             fn apply(&mut self, _w: u64) {}\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_let_else_body_allocation_is_cold_and_exempt() {
        let v = run(&[(
            "crates/core/src/engine.rs",
            "impl E {\n    \
             pub fn step(&mut self) {\n        \
             let Some(w) = self.peek() else {\n            \
             self.log.push(0);\n            return;\n        };\n        \
             self.apply(w);\n    }\n    \
             fn peek(&self) -> Option<u64> { None }\n    \
             fn apply(&mut self, _w: u64) {}\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn the_same_allocation_on_the_hot_branch_is_still_flagged() {
        let v = run(&[(
            "crates/core/src/engine.rs",
            "impl E {\n    \
             pub fn step(&mut self) {\n        \
             match self.fetch() {\n            \
             Ok(w) => self.log.push(w),\n            \
             Err(_e) => {}\n        }\n    }\n    \
             fn fetch(&self) -> R { Ok(1) }\n}\n",
        )]);
        assert_eq!(v.len(), 1, "the Ok arm is hot: {v:?}");
        assert!(!v[0].path.is_empty(), "witness path attached: {v:?}");
    }

    #[test]
    fn a_cold_attributed_helper_may_allocate() {
        let v = run(&[(
            "crates/core/src/engine.rs",
            "impl E {\n    \
             pub fn step(&mut self) { if self.broken { self.blame(); } }\n    \
             #[cold]\n    \
             fn blame(&mut self) { self.log.push(1); }\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn driver_layer_edges_are_not_descended_into() {
        // `.update(..)` receiver-blindly resolves to the ledger's
        // `update` too; the driver layer may allocate and must not be
        // dragged into the hot subtree.
        let v = run(&[
            (
                "crates/core/src/engine.rs",
                "impl E { pub fn step(&mut self) { self.update(1); } }\n",
            ),
            (
                "crates/core/src/ledger.rs",
                "impl LedgerFile { pub fn update(&mut self, n: u64) { let _m = format!(\"{n}\"); } }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cli_helpers_named_step_are_not_roots() {
        let v = run(&[(
            "crates/cli/src/main.rs",
            "pub fn step() { let _m = format!(\"menu\"); }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
