//! Runs the complete reproduction in one process: Table 1, Figures
//! 3–8 and all ablations and extensions, writing every CSV into
//! `results/` and printing a claim-by-claim verdict summary at the end.
//!
//! ```text
//! cargo run --release -p nls-bench --bin repro_all
//! cargo run --release -p nls-bench --bin repro_all -- --resume
//! NLS_TRACE_LEN=2_000_000 cargo run --release -p nls-bench --bin repro_all  # faster
//! ```
//!
//! The runs of every grid stage ([`Experiment::Grid`]) are simulated once,
//! each distinct run key once, in one supervised sweep whose threads
//! publish every completed cell to the work ledger
//! `results/repro_ledger.json`; every grid stage and the verdicts are
//! rendered from those results, and the other stages simulate on their
//! own. A stage that panics, or needs a grid cell that failed, is
//! FAILED in the summary table, the rest still run, and the exit code
//! is 4. SIGINT/SIGTERM during the sweep releases its cells in flight
//! to the ledger and exits 7, and `--resume` continues the ledger
//! (without it the ledger starts fresh, and a clean run deletes it); a
//! signal during a later stage stops the pipeline at the next stage
//! boundary, also with exit 7. A ledger error exits 8.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use nls_bench::{figures, ledger_path, sweep_config, Experiment, Table, STAGES};
use nls_core::{
    install_signal_token, run_sweep_supervised, Budget, Ledger, LedgerFile, NlsError, RunError,
    RunSpec, SimResult, DEFAULT_LEASE_MS, DEFAULT_MAX_ATTEMPTS,
};

/// The runs of a grid stage; none for a stage that simulates alone.
fn grid_runs(stage: &Experiment) -> Vec<RunSpec> {
    match stage {
        Experiment::Grid(runs, _) => runs(),
        Experiment::Alone(_) => Vec::new(),
    }
}

/// The runs of every grid stage, each run key once, in listed order.
fn grid() -> Vec<RunSpec> {
    let mut seen = BTreeSet::new();
    STAGES
        .iter()
        .flat_map(|(_, stage)| grid_runs(stage))
        .filter(|r| seen.insert(r.key()))
        .collect()
}

/// The grid sweep's outcomes by run key.
type Cells = BTreeMap<String, Result<Vec<SimResult>, RunError>>;

/// The results of `runs`, in their order, from the grid's cells; `Err`
/// names the first run that did not complete.
fn rows(runs: &[RunSpec], cells: &Cells) -> Result<Vec<SimResult>, String> {
    let mut rows = Vec::new();
    for run in runs {
        match cells.get(&run.key()) {
            Some(Ok(results)) => rows.extend_from_slice(results),
            Some(Err(e)) => return Err(format!("needs a grid cell that failed: {e}")),
            None => return Err(format!("needs {}, which is not in the grid", run.key())),
        }
    }
    Ok(rows)
}

/// Runs one stage's work under `catch_unwind`: `Err` is its panic.
fn guarded(work: impl FnOnce()) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
        let message = match payload.downcast_ref::<&str>() {
            Some(s) => s.to_string(),
            None => payload.downcast_ref::<String>().cloned().unwrap_or_default(),
        };
        format!("panicked: {message}")
    })
}

/// Prints `summary`, unless it is empty, and `e`, and exits with
/// `e`'s code.
fn exit_with(summary: &Table, e: &NlsError) -> ! {
    if !summary.is_empty() {
        println!();
        summary.print();
    }
    eprintln!("error[{}]: {e}", e.class());
    std::process::exit(i32::from(e.exit_code()));
}

fn main() {
    let mut resume = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--resume" => resume = true,
            other => {
                eprintln!(
                    "error[usage]: unknown argument {other:?} (only --resume is supported)"
                );
                std::process::exit(2);
            }
        }
    }
    let cfg = sweep_config();
    let token = install_signal_token();
    let mut summary = Table::new("Reproduction pipeline", &["stage", "status", "detail"]);

    let runs = grid();
    println!("\n################ grid sweep: {} distinct runs ################\n", runs.len());
    let path = ledger_path();
    if !resume {
        let _ = std::fs::remove_file(&path);
    }
    let file = LedgerFile::new(&path);
    let keys = runs.iter().map(RunSpec::key);
    let fresh = Ledger::new(&cfg, DEFAULT_LEASE_MS, DEFAULT_MAX_ATTEMPTS, keys);
    let budget = Budget::unlimited().with_cancel(token.clone());
    let sweep = file
        .init(fresh, resume)
        .and_then(|_| run_sweep_supervised(&runs, &cfg, &budget, Some(&file)));
    let outcomes = sweep.unwrap_or_else(|e| exit_with(&summary, &e));
    let done = outcomes.iter().filter(|o| o.is_ok()).count();
    let stopped = outcomes.iter().any(|o| matches!(o, Err(RunError::Interrupted { .. })));
    let grid_detail = format!("{done} of {} distinct runs", runs.len());
    if stopped || token.is_cancelled() {
        summary.row(vec!["grid sweep".into(), "INTERRUPTED".into(), grid_detail]);
        let e = NlsError::Interrupted(format!(
            "reproduction stopped by signal; completed grid cells are in the ledger at {} — \
             rerun with --resume to continue",
            path.display()
        ));
        exit_with(&summary, &e);
    }
    let grid_status = if done == runs.len() { "ok" } else { "FAILED" };
    summary.row(vec!["grid sweep".into(), grid_status.into(), grid_detail]);
    let cells: Cells = runs.iter().map(RunSpec::key).zip(outcomes).collect();

    let mut failures: Vec<String> = Vec::new();
    let mut record = |summary: &mut Table, name: &str, outcome: Result<(), String>| {
        let (status, detail) = match outcome {
            Ok(()) => ("ok", String::new()),
            Err(e) => {
                eprintln!("error[run]: {name}: {e}; continuing with the remaining stages");
                failures.push(format!("{name}: {e}"));
                ("FAILED", e)
            }
        };
        summary.row(vec![name.into(), status.into(), detail]);
    };
    for (name, stage) in STAGES {
        if token.is_cancelled() {
            summary.row(vec![name.into(), "INTERRUPTED".into(), "not started".into()]);
            let e = NlsError::Interrupted(format!(
                "reproduction stopped by signal before {name}; the stages before it are \
                 complete — rerun with --resume to continue"
            ));
            exit_with(&summary, &e);
        }
        println!("\n################ {name} ################\n");
        let outcome = match stage {
            Experiment::Grid(runs, render) => {
                rows(&runs(), &cells).and_then(|rows| guarded(|| render(&rows).emit()))
            }
            Experiment::Alone(alone) => guarded(|| alone(&cfg).emit()),
        };
        record(&mut summary, name, outcome);
    }

    // Claim-by-claim verdicts on the headline comparison, from Figure
    // 4's and Figure 8's rows.
    println!("\n################ verdicts ################\n");
    let fig4 = rows(&grid_runs(&figures::FIG4_NLS_BEP), &cells);
    let fig8 = rows(&grid_runs(&figures::FIG8_CPI), &cells);
    let outcome = fig4.and_then(|fig4| {
        fig8.and_then(|fig8| guarded(|| figures::verdicts(&fig4, &fig8).emit()))
    });
    record(&mut summary, "verdicts", outcome);

    println!();
    summary.print();
    if failures.is_empty() {
        // A clean run leaves no ledger behind.
        let _ = std::fs::remove_file(&path);
        println!("\nall results written under results/");
    } else {
        eprintln!("\n{} stage(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        eprintln!("rerun with --resume to skip completed grid cells");
        std::process::exit(4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nls_core::{cross, paper_caches, run_sweep, EngineSpec, SweepConfig};
    use nls_trace::BenchProfile;

    /// Short traces, the default seed.
    const CFG: SweepConfig = SweepConfig { trace_len: 2_000, seed: 0x0b5e_55ed };

    fn csvs(report: &nls_bench::Report) -> Vec<(&str, String)> {
        report.tables.iter().map(|(name, table)| (*name, table.to_csv())).collect()
    }

    #[test]
    fn the_grid_holds_every_grid_stages_runs_once() {
        let listed: Vec<RunSpec> = STAGES.iter().flat_map(|(_, s)| grid_runs(s)).collect();
        assert_eq!(listed.len(), 198);
        let grid = grid();
        let keys: BTreeSet<String> = grid.iter().map(RunSpec::key).collect();
        assert_eq!((grid.len(), keys.len()), (150, 150), "each key once");
        assert!(listed.iter().all(|run| keys.contains(&run.key())));
    }

    #[test]
    fn every_stage_renders_from_the_grid_as_from_its_own_sweep() {
        let runs = grid();
        let outcomes = run_sweep_supervised(&runs, &CFG, &Budget::unlimited(), None);
        let cells: Cells = runs.iter().map(RunSpec::key).zip(outcomes.unwrap()).collect();
        for (name, stage) in STAGES {
            if let Experiment::Grid(runs, render) = stage {
                let from_grid = render(&rows(&runs(), &cells).unwrap());
                assert_eq!(csvs(&from_grid), csvs(&stage.report(&CFG)), "{name}");
            }
        }

        // The verdicts equal those of one single-engine run per
        // (engine, benchmark, cache), each engine's six programs
        // averaged in program order.
        let fig4 = rows(&grid_runs(&figures::FIG4_NLS_BEP), &cells).unwrap();
        let fig8 = rows(&grid_runs(&figures::FIG8_CPI), &cells).unwrap();
        let single: Vec<RunSpec> = [
            EngineSpec::btb(128, 1),
            EngineSpec::btb(256, 4),
            EngineSpec::nls_table(1024),
            EngineSpec::nls_cache(2),
        ]
        .iter()
        .flat_map(|e| cross(&BenchProfile::all(), &paper_caches(), std::slice::from_ref(e)))
        .collect();
        assert_eq!(single.len(), 144);
        let single = run_sweep(&single, &CFG);
        assert_eq!(
            csvs(&figures::verdicts(&fig4, &fig8)),
            csvs(&figures::verdicts(&single, &single))
        );
    }
}
