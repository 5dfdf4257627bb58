//! `nls-lint` — repo-native static analysis for the NLS simulator.
//!
//! The simulator's published numbers (Tables 1–4, Figures 3–8) are
//! only as trustworthy as two properties of the code that produced
//! them:
//!
//! 1. **panic-freedom on untrusted input** — a corrupt trace byte
//!    must surface as an [`NlsError`-class exit], never a panic; and
//! 2. **bit-exact determinism** — the same seed must produce the
//!    same tables on every run and host.
//!
//! PR 1 added runtime enforcement (recovery policies, the invariant
//! oracle). This crate adds *compile-time-adjacent* enforcement: a
//! dependency-free static-analysis pass (the workspace has no
//! registry crates, so no `syn`) with a small Rust lexer
//! ([`lexer`]), per-file context ([`source`]), a pluggable rule set
//! ([`rules`]), and a driver ([`engine`]) with human/JSON output
//! ([`report`]). The interprocedural layer (`nls-analyze`, [`passes`])
//! adds a symbol table, a call graph, and — for the path-sensitive
//! passes — intraprocedural control-flow graphs ([`cfg`](mod@cfg)) with a
//! gen/kill dataflow solver ([`dataflow`]).
//!
//! Run it with `cargo run -p nls-lint`; see DESIGN.md §9 for the
//! rule catalogue and suppression syntax
//! (`// nls-lint: allow(<rule>): <reason>`).
//!
//! [`NlsError`-class exit]: https://example.invalid/nextline

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod report;
pub mod rules;
pub mod source;
pub mod symbols;

pub use engine::{
    analyze_sources, analyze_workspace, changed_files, fix_suppressions, lint_sources,
    lint_workspace, LintReport,
};
pub use passes::{all_passes, Analysis, Pass};
pub use report::{render, Format};
pub use rules::{all_rules, PathStep, Rule, Violation};
pub use source::SourceFile;
