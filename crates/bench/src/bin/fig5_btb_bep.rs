//! Figure 5: branch execution penalty, BTB versus 1024 NLS-table.
//!
//! BEP averaged over the six programs for 128/256-entry direct and
//! 4-way BTBs (cache-independent) and for the 1024-entry NLS-table
//! at each of the six instruction-cache configurations.

use nls_bench::{fmt, sweep_config, Table};
use nls_core::{average, cross, paper_caches, run_sweep, EngineSpec, PenaltyModel, RunSpec};
use nls_icache::CacheConfig;
use nls_trace::BenchProfile;

fn main() {
    let cfg = sweep_config();
    let m = PenaltyModel::paper();
    let mut t = Table::new(
        "Figure 5: BEP averaged over programs, BTBs vs 1024 NLS-table",
        &["engine", "cache", "BEP", "misfetch part", "mispredict part"],
    );

    // BTB results do not change with the cache configuration (the
    // paper shows them once); measure them at 8K direct.
    let btb_specs = [
        EngineSpec::btb(128, 1),
        EngineSpec::btb(128, 4),
        EngineSpec::btb(256, 1),
        EngineSpec::btb(256, 4),
    ];
    let btb_runs: Vec<RunSpec> =
        cross(&BenchProfile::all(), &[CacheConfig::paper(8, 1)], &btb_specs);
    let btb_results = run_sweep(&btb_runs, &cfg);
    for spec in &btb_specs {
        let label = spec.label();
        let per: Vec<_> = btb_results.iter().filter(|r| r.engine == label).cloned().collect();
        let avg = average(&per);
        let (mf, mp) = avg.bep_split(&m);
        t.row(vec![label, "(any)".into(), fmt(avg.bep(&m), 3), fmt(mf, 3), fmt(mp, 3)]);
    }

    // The NLS-table across all six cache configurations.
    let nls = [EngineSpec::nls_table(1024)];
    let nls_runs = cross(&BenchProfile::all(), &paper_caches(), &nls);
    let nls_results = run_sweep(&nls_runs, &cfg);
    for cache in paper_caches() {
        let per: Vec<_> =
            nls_results.iter().filter(|r| r.cache == cache.label()).cloned().collect();
        let avg = average(&per);
        let (mf, mp) = avg.bep_split(&m);
        t.row(vec![
            "1024 NLS table".into(),
            cache.label(),
            fmt(avg.bep(&m), 3),
            fmt(mf, 3),
            fmt(mp, 3),
        ]);
    }

    t.print();
    println!("\npaper claims to check:");
    println!("  - the 1024 NLS-table outperforms the similar-cost 128-entry BTBs");
    println!("  - the 1024 NLS-table is comparable to the 256-entry BTB at ~half the RBE cost");
    let path = t.save("fig5_btb_bep");
    println!("\nwrote {}", path.display());
}
