//! Integration tests for the interprocedural analysis layer:
//! golden-file tests pinning the symbol table and call graph on a
//! mini workspace, a passing and failing fixture per pass, and the
//! perf budget the CI job enforces.

use std::time::{Duration, Instant};

use nls_lint::parser::FileItems;
use nls_lint::symbols::SymbolTable;
use nls_lint::{analyze_sources, Analysis, SourceFile};

/// The mini workspace the golden files describe: two files, one impl
/// with methods, a `Self::` call, a cross-file free call, and a
/// test-only caller that must stay out of the graph.
fn mini_workspace() -> Vec<SourceFile> {
    vec![
        SourceFile::parse("crates/mini/src/engine.rs", include_str!("fixtures/mini/engine.rs")),
        SourceFile::parse("crates/mini/src/util.rs", include_str!("fixtures/mini/util.rs")),
    ]
}

#[test]
fn symbol_table_matches_the_golden_file() {
    let sources = mini_workspace();
    let files: Vec<FileItems> = sources.iter().map(FileItems::parse).collect();
    let actual = SymbolTable::build(&files).dump(&files);
    let expected = include_str!("golden/symbols.txt");
    assert_eq!(actual, expected, "\nACTUAL symbol table:\n{actual}");
}

#[test]
fn call_graph_matches_the_golden_file() {
    let sources = mini_workspace();
    let a = Analysis::build(&sources);
    let actual = a.graph.dump(&a.files);
    let expected = include_str!("golden/callgraph.txt");
    assert_eq!(actual, expected, "\nACTUAL call graph:\n{actual}");
}

/// Runs the full analysis (rules + passes) over `files`.
fn analyze(files: &[(&str, &str)]) -> nls_lint::LintReport {
    let parsed: Vec<SourceFile> =
        files.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
    analyze_sources(&parsed, None)
}

/// Asserts the failing fixture trips only `pass` with its exit code,
/// and the passing fixture is clean.
fn check_pass(pass: &str, exit: u8, bad: nls_lint::LintReport, good: nls_lint::LintReport) {
    assert!(!bad.violations.is_empty(), "{pass}: bad fixture produced no findings");
    for v in &bad.violations {
        assert_eq!(v.rule, pass, "{pass}: unexpected co-finding {v:?}");
    }
    assert_eq!(bad.exit_code(), exit, "{pass}: wrong exit code");
    assert_eq!(good.violations, vec![], "{pass}: good fixture is not clean");
    assert_eq!(good.exit_code(), 0);
}

#[test]
fn panic_reach_fixtures() {
    let rel = "crates/core/src/engine.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/panic_reach_bad.rs"))]);
    assert!(
        bad.violations.iter().any(|v| v.message.contains("->")),
        "finding must carry a witness path: {:?}",
        bad.violations
    );
    let good = analyze(&[(rel, include_str!("fixtures/panic_reach_good.rs"))]);
    check_pass("panic-reach", 18, bad, good);
}

#[test]
fn determinism_fixtures() {
    let rel = "crates/core/src/metrics.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/determinism_bad.rs"))]);
    let good = analyze(&[(rel, include_str!("fixtures/determinism_good.rs"))]);
    check_pass("determinism", 19, bad, good);
}

#[test]
fn atomics_discipline_fixtures() {
    let rel = "crates/core/src/budget.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/atomics_discipline_bad.rs"))]);
    // Relaxed flag load + mixed orderings + relaxed RMW gate.
    assert_eq!(bad.violations.len(), 3, "{:?}", bad.violations);
    let good = analyze(&[(rel, include_str!("fixtures/atomics_discipline_good.rs"))]);
    check_pass("atomics-discipline", 23, bad, good);
}

#[test]
fn signal_safety_fixtures() {
    let rel = "crates/core/src/supervisor.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/signal_safety_bad.rs"))]);
    assert!(
        bad.violations.iter().any(|v| v.message.contains("on_signal -> note_signal")),
        "finding must carry the handler path: {:?}",
        bad.violations
    );
    let good = analyze(&[(rel, include_str!("fixtures/signal_safety_good.rs"))]);
    check_pass("signal-safety", 24, bad, good);
}

#[test]
fn fs_durability_fixtures() {
    let rel = "crates/core/src/ledger.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/fs_durability_bad.rs"))]);
    // The in-place write and the unsynced rename are separate findings.
    assert!(
        bad.violations.iter().any(|v| v.message.contains("write_atomic"))
            && bad.violations.iter().any(|v| v.message.contains("parent-directory fsync")),
        "{:?}",
        bad.violations
    );
    let good = analyze(&[(rel, include_str!("fixtures/fs_durability_good.rs"))]);
    check_pass("fs-durability", 25, bad, good);
}

#[test]
fn fs_durability_append_fixtures() {
    let rel = "crates/core/src/ledger.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/fs_durability_append_bad.rs"))]);
    // The never-synced append and the early return are separate findings.
    assert_eq!(bad.violations.len(), 2, "{:?}", bad.violations);
    assert!(
        bad.violations.iter().all(|v| v.message.contains("`journal`")),
        "{:?}",
        bad.violations
    );
    let good = analyze(&[(rel, include_str!("fixtures/fs_durability_append_good.rs"))]);
    check_pass("fs-durability", 25, bad, good);
}

#[test]
fn hot_path_alloc_fixtures() {
    let rel = "crates/core/src/engine.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/hot_path_alloc_bad.rs"))]);
    assert!(
        bad.violations.iter().any(|v| v.message.contains("Engine::step -> Engine::note")),
        "finding must carry the hot-path witness: {:?}",
        bad.violations
    );
    let good = analyze(&[(rel, include_str!("fixtures/hot_path_alloc_good.rs"))]);
    check_pass("hot-path-alloc", 26, bad, good);
}

#[test]
fn hot_path_alloc_covers_the_front_end() {
    let rel = "crates/core/src/front_end.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/hot_path_alloc_front_end_bad.rs"))]);
    assert!(
        bad.violations.iter().any(|v| v.rule == "hot-path-alloc"
            && v.message.contains("FrontEnd::step_block -> FrontEnd::fetch")),
        "the front end's per-block path must be checked: {:?}",
        bad.violations
    );
}

/// The engine modules root nothing, but their hooks run per record:
/// a hook of each one that `front_end.rs`'s `step_block` reaches is
/// scanned, so an allocation there is reported with its witness.
#[test]
fn hot_path_alloc_scans_the_engine_hooks_the_front_end_reaches() {
    let front_end = "pub struct CellHalf { core: u64 }\n\
                     impl CellHalf {\n\
                     pub fn step_block(&mut self, block: &[u64]) {\n\
                     for &pc in block {\n\
                     self.core.resolve(pc);\n\
                     }\n\
                     }\n\
                     }\n";
    let engines = [
        ("btb_engine", "BtbCore"),
        ("nls_table_engine", "NlsTableCore"),
        ("nls_cache_engine", "NlsCacheCore"),
        ("johnson_engine", "JohnsonCore"),
    ];
    for (module, core) in engines {
        let rel = format!("crates/core/src/{module}.rs");
        let engine = format!(
            "pub struct {core} {{ log: Vec<u64> }}\n\
             impl {core} {{\n\
             pub(crate) fn resolve(&mut self, pc: u64) {{\n\
             self.log.push(pc);\n\
             }}\n\
             }}\n"
        );
        let report = analyze(&[("crates/core/src/front_end.rs", front_end), (&rel, &engine)]);
        let witness = format!("CellHalf::step_block -> {core}::resolve");
        assert!(
            report.violations.iter().any(|v| v.rule == "hot-path-alloc"
                && v.file == rel
                && v.message.contains(&witness)),
            "{rel}: the hook the front end reaches must be scanned: {:?}",
            report.violations
        );
    }
}

#[test]
fn lock_order_fixtures() {
    let rel = "crates/core/src/state.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/lock_order_bad.rs"))]);
    assert!(
        bad.violations.iter().any(|v| v.message.contains("held across"))
            && bad.violations.iter().any(|v| v.message.contains("lock-order cycle")),
        "{:?}",
        bad.violations
    );
    let good = analyze(&[(rel, include_str!("fixtures/lock_order_good.rs"))]);
    check_pass("lock-order", 27, bad, good);
}

#[test]
fn condvar_wait_fixtures() {
    let rel = "crates/core/src/state.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/condvar_wait_bad.rs"))]);
    assert!(
        bad.violations
            .iter()
            .any(|v| v.message.contains("`r.stats`") && v.message.contains("`wait`")),
        "the lock the wait does not release is held across it: {:?}",
        bad.violations
    );
    assert!(
        !bad.violations.iter().any(|v| v.message.contains("`r.state`")),
        "the guard handed to the wait is released by it: {:?}",
        bad.violations
    );
    let good = analyze(&[(rel, include_str!("fixtures/condvar_wait_good.rs"))]);
    check_pass("lock-order", 27, bad, good);
}

#[test]
fn resource_leak_fixtures() {
    let rel = "crates/core/src/worker.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/resource_leak_bad.rs"))]);
    // The leaked lease and the stranded tmp are separate findings.
    assert!(
        bad.violations.iter().any(|v| v.message.contains("lease"))
            && bad.violations.iter().any(|v| v.message.contains("tmp")),
        "{:?}",
        bad.violations
    );
    let good = analyze(&[(rel, include_str!("fixtures/resource_leak_good.rs"))]);
    check_pass("resource-leak", 28, bad, good);
}

#[test]
fn stale_waiver_fixtures() {
    let rel = "crates/core/src/metrics.rs";
    let bad = analyze(&[(rel, include_str!("fixtures/stale_waiver_bad.rs"))]);
    let good = analyze(&[(rel, include_str!("fixtures/stale_waiver_good.rs"))]);
    check_pass("stale-waiver", 29, bad, good);
}

#[test]
fn let_else_and_labeled_loops_analyze_clean() {
    // Parser regression: let-else and labeled loops must survive the
    // full ten-pass run without findings (the labeled loop is a
    // polled supervision root; the let-else else-block is a lease
    // release path).
    let report =
        analyze(&[("crates/core/src/sweep.rs", include_str!("fixtures/parser_edge_good.rs"))]);
    assert_eq!(report.violations, vec![], "parser-edge fixture is not clean");
    assert_eq!(report.exit_code(), 0);
}

#[test]
fn lockleak_witness_paths_match_the_golden_file() {
    // A two-file mini workspace exercising the CFG-backed passes: a
    // guard held across an fsync reached through a helper
    // (lock-order, with the call chain in the message) and a lease
    // leaked on a `?` path (resource-leak, with the escaping blocks
    // as witness steps). The golden file pins both findings AND
    // their full witness paths.
    let report = analyze(&[
        ("crates/core/src/state.rs", include_str!("fixtures/lockleak/state.rs")),
        ("crates/core/src/worker.rs", include_str!("fixtures/lockleak/worker.rs")),
    ]);
    let actual = nls_lint::render(&report, nls_lint::Format::Human);
    let expected = include_str!("golden/lockleak.txt");
    assert_eq!(actual, expected, "\nACTUAL findings with witness paths:\n{actual}");
    assert_eq!(report.exit_code(), 27, "lock-order outranks resource-leak");
}

#[test]
fn heartbeat_witness_path_matches_the_golden_file() {
    // A two-file mini workspace around the ledger's Heartbeat: the
    // beat loop polls its stop flag with a relaxed load
    // (atomics-discipline, with the decl site cross-referenced) and
    // the SIGINT handler reaches the heartbeat's format machinery
    // (signal-safety, with a cross-file witness path).
    let report = analyze(&[
        ("crates/core/src/ledger.rs", include_str!("fixtures/heartbeat/ledger.rs")),
        ("crates/core/src/supervisor.rs", include_str!("fixtures/heartbeat/supervisor.rs")),
    ]);
    let actual = nls_lint::render(&report, nls_lint::Format::Human);
    let expected = include_str!("golden/heartbeat.txt");
    assert_eq!(actual, expected, "\nACTUAL report:\n{actual}");
    assert!(
        report.violations.iter().any(|v| v.message.contains("on_signal -> Heartbeat::mark")),
        "the witness path must walk the handler into the ledger Heartbeat: {:?}",
        report.violations
    );
    // Atomics findings sort first, so the lowest violated code wins.
    assert_eq!(report.exit_code(), 23);
}

#[test]
fn full_workspace_analysis_fits_the_perf_budget() {
    // CARGO_MANIFEST_DIR is crates/lint; the workspace root is two up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let start = Instant::now();
    let report = nls_lint::lint_workspace(&root, None).expect("workspace analysis failed");
    let elapsed = start.elapsed();
    assert!(report.files > 0, "workspace walk found no files");
    assert!(
        elapsed < Duration::from_secs(10),
        "full-workspace analysis took {elapsed:?}, budget is 10s"
    );
}
