//! NLS-cache layout ablation (§5.1 design choice).
//!
//! The paper evaluated one to four NLS predictors per cache line and
//! settled on two per 8-instruction line as the best cost/benefit.
//! This ablation sweeps predictors-per-line on a 16 KB direct-mapped
//! cache.

use nls_bench::{fmt, sweep_config, Table};
use nls_core::{average, cross, run_sweep, EngineSpec, PenaltyModel};
use nls_cost::rbe::{nls_cache_rbe, CacheGeometry};
use nls_icache::CacheConfig;
use nls_trace::BenchProfile;

fn main() {
    let cfg = sweep_config();
    let m = PenaltyModel::paper();
    let engines = [
        EngineSpec::nls_cache(1),
        EngineSpec::nls_cache(2),
        EngineSpec::nls_cache(4),
        EngineSpec::nls_table(1024),
    ];
    let cache = CacheConfig::paper(16, 1);
    let runs = cross(&BenchProfile::all(), &[cache], &engines);
    let results = run_sweep(&runs, &cfg);

    let mut t = Table::new(
        "Ablation: NLS-cache predictors per line (16K direct cache)",
        &["engine", "avg BEP", "avg %MfB", "RBE"],
    );
    for spec in &engines {
        let label = spec.label();
        let per: Vec<_> = results.iter().filter(|r| r.engine == label).cloned().collect();
        let avg = average(&per);
        let rbe = match spec {
            EngineSpec::NlsCache { preds_per_line, .. } => {
                nls_cache_rbe(*preds_per_line, CacheGeometry::paper(16, 1))
            }
            _ => nls_cost::rbe::nls_table_rbe(1024, CacheGeometry::paper(16, 1)),
        };
        t.row(vec![label, fmt(avg.bep(&m), 3), fmt(avg.pct_misfetched(), 2), fmt(rbe, 0)]);
    }
    t.print();
    println!("\nexpected: 1/line loses accuracy (branch crowding); 4/line doubles the");
    println!("cost of 2/line for little gain — the paper's 2/line choice; and the");
    println!("decoupled table beats all coupled layouts at similar cost.");
    let path = t.save("ablation_nls_cache_layout");
    println!("\nwrote {}", path.display());
}
