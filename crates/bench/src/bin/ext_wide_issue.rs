//! Extension: wide-issue front ends (§8 outlook).
//!
//! The paper closes by noting that nothing in the NLS design is a
//! problem for wide-issue machines, and its introduction motivates
//! the whole study with the observation that fetch/branch penalties
//! grow in relative weight as issue width rises. This experiment
//! applies the first-order wide-issue model
//! ([`nls_core::SimResult::wide_issue_ipc`]) to the measured penalty
//! counts: IPC for fetch widths 1–8 per architecture.

use nls_bench::{fmt, sweep_config, Table};
use nls_core::{average, cross, run_sweep, EngineSpec, PenaltyModel};
use nls_icache::CacheConfig;
use nls_trace::BenchProfile;

fn main() {
    let cfg = sweep_config();
    let m = PenaltyModel::paper();
    let engines =
        [EngineSpec::btb(128, 1), EngineSpec::btb(256, 4), EngineSpec::nls_table(1024)];
    let cache = CacheConfig::paper(32, 4);
    let runs = cross(&BenchProfile::all(), &[cache], &engines);
    let results = run_sweep(&runs, &cfg);

    let mut t = Table::new(
        "Extension: estimated IPC vs fetch width (32K 4-way cache)",
        &["engine", "W=1", "W=2", "W=4", "W=8", "W=8 speedup"],
    );
    for spec in &engines {
        let label = spec.label();
        let per: Vec<_> = results.iter().filter(|r| r.engine == label).cloned().collect();
        let avg = average(&per);
        let ipc: Vec<f64> = [1, 2, 4, 8].iter().map(|&w| avg.wide_issue_ipc(w, &m)).collect();
        t.row(vec![
            label,
            fmt(ipc[0], 3),
            fmt(ipc[1], 3),
            fmt(ipc[2], 3),
            fmt(ipc[3], 3),
            fmt(ipc[3] / ipc[0], 2),
        ]);
    }
    t.print();
    println!("\nexpected: IPC scales far below 8x at W=8 — fetch-penalty cycles are");
    println!("width-independent, so the NLS/BTB accuracy gap matters *more* as the");
    println!("machine widens (the paper's motivating argument).");
    let path = t.save("ext_wide_issue");
    println!("\nwrote {}", path.display());
}
