//! Cost/performance design-space exploration.
//!
//! Sweeps NLS-table sizes and BTB organisations, prices each with
//! the register-bit-equivalent area model, and prints the
//! cost-vs-BEP frontier the paper's §6/§7 argue from: every extra
//! RBE spent on an NLS-table buys more fetch accuracy than the same
//! RBE spent on BTB entries.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use nextline::core::{average, cross, run_sweep, EngineSpec, PenaltyModel, SweepConfig};
use nextline::cost::rbe::{btb_rbe, nls_table_rbe, CacheGeometry};
use nextline::cost::Rbe;
use nextline::icache::CacheConfig;
use nextline::trace::BenchProfile;

fn main() {
    let cache = CacheConfig::paper(16, 1);
    let geometry = CacheGeometry::paper(16, 1);
    let engines = [
        EngineSpec::nls_table(256),
        EngineSpec::nls_table(512),
        EngineSpec::nls_table(1024),
        EngineSpec::nls_table(2048),
        EngineSpec::nls_table(4096),
        EngineSpec::btb(128, 1),
        EngineSpec::btb(128, 4),
        EngineSpec::btb(256, 1),
        EngineSpec::btb(256, 4),
    ];
    let runs = cross(&BenchProfile::all(), &[cache], &engines);
    let cfg = SweepConfig { trace_len: 1_000_000, seed: 3 };
    let results = run_sweep(&runs, &cfg);
    let m = PenaltyModel::paper();

    println!("design point                RBE cost   avg BEP   avg %MfB");
    let mut frontier: Vec<(String, Rbe, f64)> = Vec::new();
    for spec in &engines {
        let label = spec.label();
        let per: Vec<_> = results.iter().filter(|r| r.engine == label).cloned().collect();
        let avg = average(&per);
        let rbe = match spec {
            EngineSpec::NlsTable { entries, .. } => nls_table_rbe(*entries as u64, geometry),
            EngineSpec::Btb { entries, assoc, .. } => btb_rbe(*entries as u64, *assoc),
            _ => unreachable!("only tables and BTBs in this sweep"),
        };
        println!(
            "{:<26} {:>9.0} {:>9.3} {:>10.2}",
            label,
            rbe,
            avg.bep(&m),
            avg.pct_misfetched()
        );
        frontier.push((label, rbe, avg.bep(&m)));
    }

    // Report the Pareto frontier (no other point is both cheaper and better).
    frontier.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    let mut best = f64::INFINITY;
    println!("\nPareto frontier (cheapest-first):");
    for (label, rbe, bep) in &frontier {
        if *bep < best {
            best = *bep;
            println!("  {label:<26} {rbe:>9.0} RBE  BEP {bep:.3}");
        }
    }
}
