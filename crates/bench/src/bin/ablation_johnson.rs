//! §6.2 related-work ablation: Johnson's coupled successor-index
//! design versus the paper's NLS organisations.
//!
//! Quantifies what the paper's changes buy over the prior design:
//! taken-only pointer updates, the decoupled two-level PHT and the
//! return stack. Johnson-style prediction (as in the TFP / MIPS
//! R8000) couples a one-bit directional pointer to the cache line.

use nls_bench::{fmt, sweep_config, Table};
use nls_core::{average, cross, run_sweep, EngineSpec, PenaltyModel};
use nls_icache::CacheConfig;
use nls_trace::BenchProfile;

fn main() {
    let cfg = sweep_config();
    let m = PenaltyModel::paper();
    let engines = [
        EngineSpec::Johnson { preds_per_line: 2 },
        EngineSpec::nls_cache(2),
        EngineSpec::nls_table(1024),
    ];
    let cache = CacheConfig::paper(16, 1);
    let runs = cross(&BenchProfile::all(), &[cache], &engines);
    let results = run_sweep(&runs, &cfg);

    let mut t = Table::new(
        "Ablation: Johnson successor-index vs NLS (16K direct cache)",
        &["program", "engine", "BEP", "%MfB", "%MpB"],
    );
    for p in BenchProfile::all() {
        for r in results.iter().filter(|r| r.bench == p.name) {
            t.row(vec![
                p.name.into(),
                r.engine.clone(),
                fmt(r.bep(&m), 3),
                fmt(r.pct_misfetched(), 2),
                fmt(r.pct_mispredicted(), 2),
            ]);
        }
    }
    for spec in &engines {
        let label = spec.label();
        let per: Vec<_> = results.iter().filter(|r| r.engine == label).cloned().collect();
        let avg = average(&per);
        t.row(vec![
            "average".into(),
            label,
            fmt(avg.bep(&m), 3),
            fmt(avg.pct_misfetched(), 2),
            fmt(avg.pct_mispredicted(), 2),
        ]);
    }
    t.print();
    println!("\nexpected: Johnson's one-bit coupled design trails both NLS organisations;");
    println!("the decoupled NLS-table wins overall.");
    let path = t.save("ablation_johnson");
    println!("\nwrote {}", path.display());
}
