//! Fault-tolerance integration tests: durable sweeps resumed from a
//! work ledger, and the invariant oracle against real engines. Panic
//! isolation is tested on the sweep executor itself, in `sweep`'s unit
//! tests.

use std::fs;
use std::path::{Path, PathBuf};

use nls_core::{
    cross, oracle, run_one, run_sweep_supervised, Budget, CancelToken, CellState, ClaimOutcome,
    EngineSpec, Ledger, LedgerFile, RunSpec, SimResult, SweepConfig,
};
use nls_icache::CacheConfig;
use nls_trace::BenchProfile;

fn cfg() -> SweepConfig {
    SweepConfig { trace_len: 40_000, seed: 11 }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nls-fault-tolerance-tests");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = fs::remove_file(&path);
    path
}

/// Initialises the ledger at `path` for `runs` (fresh, or with
/// `resume` the one there) with one attempt per cell.
fn init_ledger(path: &Path, runs: &[RunSpec], resume: bool) -> LedgerFile {
    let file = LedgerFile::new(path);
    file.init(Ledger::new(&cfg(), 30_000, 1, runs.iter().map(RunSpec::key)), resume).unwrap();
    file
}

/// A durable sweep of `runs` over `file`, each run's results in order.
fn durable_sweep(runs: &[RunSpec], file: &LedgerFile) -> Vec<Vec<SimResult>> {
    run_sweep_supervised(runs, &cfg(), &Budget::unlimited(), Some(file))
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every run completes"))
        .collect()
}

/// Claims every cell of `file` for worker `w0` and hands each claimed
/// key to `settle`, in one ledger update.
fn settle_cells(file: &LedgerFile, settle: impl Fn(&mut Ledger, &str)) {
    file.update(&CancelToken::new(), |l| {
        let ClaimOutcome::Claimed { key, more, .. } =
            l.claim_cells("w0", 0, |keys| 0..keys.len())
        else {
            panic!("a fresh ledger has claimable cells");
        };
        for key in std::iter::once(key).chain(more.into_iter().map(|(k, _)| k)) {
            settle(l, &key);
        }
    })
    .unwrap();
}

#[test]
fn resume_takes_done_cells_from_the_ledger_without_recomputing() {
    let path = temp_path("resume.json");
    let all = cross(
        &[BenchProfile::li(), BenchProfile::espresso()],
        &[CacheConfig::paper(8, 1)],
        &[EngineSpec::nls_table(512)],
    );
    // An interrupted sweep that finished only li: its cell is done,
    // espresso's released. The stored li result carries a marker; if
    // the resumed sweep re-simulated li it would not return it.
    let mut marked = run_one(&all[0], &cfg());
    marked[0].instructions = 424_242;
    let file = init_ledger(&path, &all, false);
    settle_cells(&file, |l, key| {
        let settled = if key == all[0].key() {
            l.complete(key, "w0", marked.clone())
        } else {
            l.release(key, "w0", 0)
        };
        assert!(settled, "{key}");
    });

    let resumed = durable_sweep(&all, &init_ledger(&path, &all, true));
    assert_eq!(resumed[0], marked, "the done cell must come from the ledger");
    assert_eq!(resumed[1], run_one(&all[1], &cfg()), "the new run is computed normally");
    let ledger = file.read(&CancelToken::new()).unwrap();
    assert_eq!(ledger.counts().done, 2, "the completed sweep is all in the ledger");
    let _ = fs::remove_file(&path);
}

#[test]
fn failed_and_pending_cells_both_complete_on_resume() {
    let path = temp_path("failed-retried.json");
    let runs = cross(
        &[BenchProfile::li(), BenchProfile::espresso()],
        &[CacheConfig::paper(8, 1)],
        &[EngineSpec::nls_table(512)],
    );
    // An earlier sweep spent li's only attempt on a panic and never
    // got to espresso.
    let file = init_ledger(&path, &runs, false);
    settle_cells(&file, |l, key| {
        let settled = if key == runs[0].key() {
            l.record_failure(key, "w0", 0, "engine panicked: injected")
        } else {
            l.release(key, "w0", 0)
        };
        assert!(settled, "{key}");
    });
    let before = file.read(&CancelToken::new()).unwrap();
    assert!(matches!(before.state(&runs[0].key()), Some(CellState::Failed { .. })));

    let resumed = durable_sweep(&runs, &init_ledger(&path, &runs, true));
    let want: Vec<Vec<SimResult>> = runs.iter().map(|r| run_one(r, &cfg())).collect();
    assert_eq!(resumed, want, "the failed cell is re-opened and retried");
    assert_eq!(file.read(&CancelToken::new()).unwrap().counts().done, 2);
    let _ = fs::remove_file(&path);
}

#[test]
fn real_engine_results_satisfy_the_oracle() {
    let spec = RunSpec {
        bench: BenchProfile::espresso(),
        cache: CacheConfig::paper(8, 1),
        engines: vec![
            EngineSpec::btb(128, 1),
            EngineSpec::btb(256, 4),
            EngineSpec::nls_table(1024),
            EngineSpec::nls_cache(2),
            EngineSpec::Johnson { preds_per_line: 2 },
        ],
    };
    let results = run_one(&spec, &cfg());
    for r in &results {
        let findings = oracle::invariant_violations(r);
        assert!(findings.is_empty(), "{}: {findings:?}", r.engine);
    }
}

#[test]
fn btb_and_nls_table_agree_on_pht_outcomes() {
    // Both engines consult an identically-specified gshare PHT the
    // same way, so their conditional direction outcomes must match
    // exactly — across benches and cache shapes.
    for bench in [BenchProfile::li(), BenchProfile::gcc()] {
        for cache in [CacheConfig::paper(8, 1), CacheConfig::paper(16, 4)] {
            let spec = RunSpec {
                bench: bench.clone(),
                cache,
                engines: vec![EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)],
            };
            let results = run_one(&spec, &cfg());
            let findings = oracle::pht_agreement_violations(&results[0], &results[1]);
            assert!(findings.is_empty(), "{} @ {}: {findings:?}", bench.name, cache.label());
        }
    }
}
