//! Figure 4: branch execution penalty of the NLS organisations.
//!
//! BEP averaged over the six programs for the NLS-cache (two
//! predictors per line) and the 512/1024/2048-entry NLS-tables, at
//! 8/16/32 KB direct-mapped and 4-way instruction caches, split
//! into misfetch and mispredict components.

use nls_bench::{fmt, sweep_config, Table};
use nls_core::{average, cross, paper_caches, run_sweep, EngineSpec, PenaltyModel};
use nls_trace::BenchProfile;

fn main() {
    let cfg = sweep_config();
    let engines = EngineSpec::paper_nls_set();
    let runs = cross(&BenchProfile::all(), &paper_caches(), &engines);
    let results = run_sweep(&runs, &cfg);
    let m = PenaltyModel::paper();

    let mut t = Table::new(
        "Figure 4: BEP averaged over programs (misfetch + mispredict)",
        &["cache", "engine", "BEP", "misfetch part", "mispredict part"],
    );
    for cache in paper_caches() {
        for spec in &engines {
            let label = spec.label();
            let per_bench: Vec<_> = results
                .iter()
                .filter(|r| r.cache == cache.label() && r.engine == label)
                .cloned()
                .collect();
            assert_eq!(per_bench.len(), BenchProfile::all().len());
            let avg = average(&per_bench);
            let (mf, mp) = avg.bep_split(&m);
            t.row(vec![cache.label(), label, fmt(avg.bep(&m), 3), fmt(mf, 3), fmt(mp, 3)]);
        }
    }
    t.print();
    println!("\npaper claims to check:");
    println!("  - the NLS-table beats the NLS-cache at every equal-cost pairing");
    println!("  - 512 -> 1024 entries is a small gain; 1024 -> 2048 is smaller still");
    let path = t.save("fig4_nls_bep");
    println!("\nwrote {}", path.display());
}
