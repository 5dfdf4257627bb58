//! Figure 8: cycles per instruction.
//!
//! Average CPI of the single-issue machine (1-cycle misfetch,
//! 4-cycle mispredict, 5-cycle instruction-cache miss) for the four
//! BTB configurations and the 1024-entry NLS-table at every cache
//! configuration. Unlike BEP, CPI depends on the instruction cache
//! for *all* engines because it includes the miss penalty.

use nls_bench::{fmt, sweep_config, Table};
use nls_core::{average, cross, paper_caches, run_sweep, EngineSpec, PenaltyModel};
use nls_trace::BenchProfile;

fn main() {
    let cfg = sweep_config();
    let m = PenaltyModel::paper();
    let engines = EngineSpec::paper_comparison_set();
    let runs = cross(&BenchProfile::all(), &paper_caches(), &engines);
    let results = run_sweep(&runs, &cfg);

    let mut t = Table::new(
        "Figure 8: CPI averaged over programs",
        &["cache", "engine", "CPI", "miss %"],
    );
    for cache in paper_caches() {
        for spec in &engines {
            let label = spec.label();
            let per: Vec<_> = results
                .iter()
                .filter(|r| r.cache == cache.label() && r.engine == label)
                .cloned()
                .collect();
            let avg = average(&per);
            t.row(vec![cache.label(), label, fmt(avg.cpi(&m), 4), fmt(avg.miss_pct(), 2)]);
        }
    }
    t.print();
    println!("\npaper claims to check:");
    println!("  - differences are small; the 1024 NLS-table edges out the equal-cost 128 BTBs");
    println!("  - CPI improves with cache size for every engine (miss penalty shrinks)");
    let path = t.save("fig8_cpi");
    println!("\nwrote {}", path.display());
}
