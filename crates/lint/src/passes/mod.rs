//! `nls-analyze`: interprocedural analysis passes on top of the
//! lexical rules.
//!
//! Where a [`crate::rules::Rule`] sees one file's token stream, a
//! [`Pass`] sees the whole workspace at once: the per-file item trees
//! ([`crate::parser`]), the symbol table ([`crate::symbols`]) and the
//! approximate call graph ([`crate::callgraph`]). Each pass answers one
//! question the lexical layer cannot:
//!
//! * [`panic_reach`] — can an engine entry point reach a panic site?
//! * [`determinism`] — can a simulation/metrics path observe a
//!   nondeterministic source (time, RNG, env, thread identity)?
//! * [`cancellation_reach`] — does every loop on a supervised
//!   `run*`/`drive*` path poll the budget or cancel token?
//! * [`atomics_discipline`] — does every atomic field follow the
//!   ordering protocol its inferred role (flag/counter/latch) needs?
//! * [`signal_safety`] — does the signal handler's call subtree stay
//!   within atomics and async-signal-safe operations?
//! * [`fs_durability`] — does every write to a durable path (ledger,
//!   checkpoint, results) go through tmp+fsync+rename?
//! * [`hot_path_alloc`] — is the `step`/`step_block`/`access_run`
//!   subtree free of allocation and formatting machinery?
//! * [`lock_order`] — are lock acquisitions cycle-free, never
//!   re-entered on a path, and never held across fsync or a
//!   subprocess wait?
//! * [`resource_leak`] — does every claimed lease and every tmp file
//!   reach its release/durability call on *every* CFG path,
//!   including `?` early returns?
//! * [`stale_waiver`] — does every inline waiver still suppress a
//!   real finding, or has the code under it moved on?
//!
//! Passes share the rules' exit-code protocol (codes 18–29, after the
//! lexical rules) and the same suppression syntax; see DESIGN.md §9
//! for the catalogue and the soundness caveats of the approximation.
//! Codes 20 and 21 are retired, not reused: the cost model's units are
//! the types `nls_cost::Rbe` and `nls_cost::Nanos`, and a unit test in
//! `nls-bench` checks the stage binaries against DESIGN.md.
//! The `error-exit-map` rule keeps this table in sync with
//! [`all_passes`] — edit both together:
//!
//! | pass | exit code |
//! |------|-----------|
//! | `panic-reach` | 18 |
//! | `determinism` | 19 |
//! | `cancellation-reach` | 22 |
//! | `atomics-discipline` | 23 |
//! | `signal-safety` | 24 |
//! | `fs-durability` | 25 |
//! | `hot-path-alloc` | 26 |
//! | `lock-order` | 27 |
//! | `resource-leak` | 28 |
//! | `stale-waiver` | 29 |

pub mod atomics_discipline;
pub mod cancellation_reach;
pub mod determinism;
pub mod fs_durability;
pub mod hot_path_alloc;
pub mod lock_order;
pub mod panic_reach;
pub mod resource_leak;
pub mod signal_safety;
pub mod stale_waiver;

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::parser::{FileItems, ItemKind};
use crate::rules::{PathStep, Violation};
use crate::source::SourceFile;
use crate::symbols::{FnId, SymbolTable};

/// The files whose `step`/`run*`/`drive` functions are the roots of
/// reachability — everything a simulation executes per record hangs
/// off these, plus the sweep drivers and the server's accept/worker
/// loops (a daemon that cannot be cancelled cannot drain) — and whose
/// loops `cancellation-reach` checks when a root reaches them.
pub const ENTRY_FILES: [&str; 11] = [
    // Roots the `FetchEngine::step` the benchmark's traced run drives;
    // its shared hooks (`resolve`, `classify`) are loop-checked.
    "crates/core/src/engine.rs",
    // Roots the front end's `step`s and `WalkHalf::runs`, which drive
    // every engine hook.
    "crates/core/src/front_end.rs",
    // The four engine modules root nothing (the front end drives
    // them), but the loops of their constructors, heap estimates and
    // `resolve` hooks, which the sweep roots reach, are checked.
    "crates/core/src/btb_engine.rs",
    "crates/core/src/nls_table_engine.rs",
    "crates/core/src/nls_cache_engine.rs",
    "crates/core/src/johnson_engine.rs",
    // Roots `run_one`, `run_sweep`, `run_sweep_supervised` and
    // `run_ledger_worker`.
    "crates/core/src/sweep.rs",
    // Roots `run_one_supervised` and `run_cells_supervised`.
    "crates/core/src/supervisor.rs",
    // Roots nothing; the loops of the ledger operations every worker
    // calls are checked.
    "crates/core/src/ledger.rs",
    // Roots nothing; the loops of the serve registry the job workers
    // call are checked.
    "crates/core/src/serve.rs",
    // Roots the server's `run_server`, `run_job_worker` and
    // `run_claimed` loops.
    "crates/cli/src/serve.rs",
];

/// Everything a pass can look at: parsed sources plus the derived
/// interprocedural structures, built once and shared by all passes.
pub struct Analysis<'a> {
    pub sources: &'a [SourceFile],
    pub files: Vec<FileItems>,
    pub symbols: SymbolTable,
    pub graph: CallGraph,
}

impl<'a> Analysis<'a> {
    /// Parses, indexes, and links `sources` into one analysis input.
    pub fn build(sources: &'a [SourceFile]) -> Analysis<'a> {
        let files: Vec<FileItems> = sources.iter().map(FileItems::parse).collect();
        let symbols = SymbolTable::build(&files);
        let graph = CallGraph::build(sources, &files, &symbols);
        Analysis { sources, files, symbols, graph }
    }

    /// The reachability roots: non-test functions named `step` or
    /// `drive`, or starting with `run`, defined in [`ENTRY_FILES`].
    pub fn entry_points(&self) -> Vec<FnId> {
        let mut out = Vec::new();
        for (fi, file) in self.files.iter().enumerate() {
            if !ENTRY_FILES.contains(&file.rel.as_str()) {
                continue;
            }
            for (ii, it) in file.items.iter().enumerate() {
                if it.kind == ItemKind::Fn && !it.is_test && is_entry_name(&it.name) {
                    out.push((fi, ii));
                }
            }
        }
        out
    }

    /// The source file behind a function id.
    pub fn source_of(&self, id: FnId) -> Option<&SourceFile> {
        self.sources.get(id.0)
    }
}

fn is_entry_name(name: &str) -> bool {
    name == "step" || name == "drive" || name.starts_with("run")
}

/// Converts a [`CallGraph::reach`] witness chain into [`PathStep`]s:
/// one step per function from the root to `id` (declaration sites),
/// plus a final step at the finding itself. Shared by the
/// reachability passes so their SARIF code flows all look alike.
pub(crate) fn witness_steps(
    a: &Analysis,
    pred: &BTreeMap<FnId, FnId>,
    id: FnId,
    site_file: &str,
    site_line: u32,
    site_label: &str,
) -> Vec<PathStep> {
    let mut steps: Vec<PathStep> = a
        .graph
        .path_steps(pred, id, &a.files)
        .into_iter()
        .map(|(file, line, qual)| PathStep { file, line, label: format!("via `{qual}`") })
        .collect();
    steps.push(PathStep {
        file: site_file.to_string(),
        line: site_line,
        label: site_label.to_string(),
    });
    steps
}

/// One machine-applicable repair a pass can offer under `--fix`: a
/// single-token replacement on one line of one file (e.g. `Relaxed`
/// → `SeqCst` on a control-flag load).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fix {
    pub file: String,
    pub line: u32,
    /// The exact substring to replace on that line.
    pub from: &'static str,
    /// Its replacement.
    pub to: &'static str,
}

/// One interprocedural analysis pass.
pub trait Pass {
    /// Stable kebab-case id, used in reports, suppressions, and
    /// `--pass` selection.
    fn id(&self) -> &'static str;
    /// Process exit code when this pass (and nothing higher-priority)
    /// has findings.
    fn exit_code(&self) -> u8;
    /// One-line description for `--list-rules` and docs.
    fn summary(&self) -> &'static str;
    /// Runs the pass over the whole analysis.
    fn check(&self, a: &Analysis, out: &mut Vec<Violation>);
    /// Machine-applicable repairs for this pass's findings (applied
    /// by `--fix`). Default: none — most findings need a human.
    fn fixes(&self, _a: &Analysis) -> Vec<Fix> {
        Vec::new()
    }
}

/// Every pass, in exit-code priority order (after the lexical rules).
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(panic_reach::PanicReach),
        Box::new(determinism::Determinism),
        Box::new(cancellation_reach::CancellationReach),
        Box::new(atomics_discipline::AtomicsDiscipline),
        Box::new(signal_safety::SignalSafety),
        Box::new(fs_durability::FsDurability),
        Box::new(hot_path_alloc::HotPathAlloc),
        Box::new(lock_order::LockOrder),
        Box::new(resource_leak::ResourceLeak),
        Box::new(stale_waiver::StaleWaiver),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_ids_and_exit_codes_are_unique_and_after_rules() {
        let passes = all_passes();
        let rule_codes: Vec<u8> =
            crate::rules::all_rules().iter().map(|r| r.exit_code()).collect();
        let mut ids: Vec<_> = passes.iter().map(|p| p.id()).collect();
        let mut codes: Vec<_> = passes.iter().map(|p| p.exit_code()).collect();
        ids.sort_unstable();
        ids.dedup();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(ids.len(), passes.len());
        assert_eq!(codes.len(), passes.len());
        let max_rule = rule_codes.iter().max().copied().unwrap_or(0);
        assert!(
            codes.iter().all(|&c| c > max_rule.max(crate::engine::SUPPRESSION_EXIT_CODE)),
            "pass codes come after every rule code and the suppression code"
        );
    }

    #[test]
    fn entry_points_cover_the_engine_surface() {
        let sources = vec![
            SourceFile::parse(
                "crates/core/src/sweep.rs",
                "pub fn drive() {}\npub fn run_one() {}\nfn helper() {}\n",
            ),
            SourceFile::parse(
                "crates/core/src/engine.rs",
                "impl E { fn step(&mut self) {} }\n",
            ),
            SourceFile::parse("crates/cli/src/main.rs", "fn run_cli() {}\n"),
        ];
        let a = Analysis::build(&sources);
        let names: Vec<String> = a
            .entry_points()
            .iter()
            .filter_map(|&id| crate::symbols::lookup(&a.files, id).map(|(_, i)| i.qual()))
            .collect();
        assert_eq!(names, ["drive", "run_one", "E::step"], "cli run_cli is not a root");
    }
}
