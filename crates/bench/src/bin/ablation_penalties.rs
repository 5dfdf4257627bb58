//! Penalty-model sensitivity ablation (§5.2 assumption).
//!
//! The paper fixes the misfetch penalty at 1 cycle and the
//! mispredict penalty at 4 cycles as "reasonable for current
//! superscalar architectures" (1995). This ablation re-derives the
//! headline comparison under different penalty assumptions —
//! including deeper-pipeline costs — from the *same* event counts,
//! showing that the NLS-vs-BTB verdict is not an artifact of the
//! chosen constants.

use nls_bench::{fmt, sweep_config, Table};
use nls_core::{average, cross, run_sweep, EngineSpec, PenaltyModel};
use nls_icache::CacheConfig;
use nls_trace::BenchProfile;

fn main() {
    let cfg = sweep_config();
    let engines =
        [EngineSpec::btb(128, 1), EngineSpec::btb(256, 4), EngineSpec::nls_table(1024)];
    let cache = CacheConfig::paper(16, 1);
    let runs = cross(&BenchProfile::all(), &[cache], &engines);
    let results = run_sweep(&runs, &cfg);

    let models = [
        ("paper (1/4/5)", PenaltyModel::paper()),
        (
            "shallow (1/2/3)",
            PenaltyModel {
                misfetch_cycles: 1.0,
                mispredict_cycles: 2.0,
                icache_miss_cycles: 3.0,
            },
        ),
        (
            "deep (2/10/20)",
            PenaltyModel {
                misfetch_cycles: 2.0,
                mispredict_cycles: 10.0,
                icache_miss_cycles: 20.0,
            },
        ),
        (
            "misfetch-free (0/4/5)",
            PenaltyModel {
                misfetch_cycles: 0.0,
                mispredict_cycles: 4.0,
                icache_miss_cycles: 5.0,
            },
        ),
    ];

    let mut t = Table::new(
        "Ablation: penalty-model sensitivity (16K direct, program average)",
        &["penalty model", "engine", "BEP", "CPI"],
    );
    for (name, m) in &models {
        for spec in &engines {
            let label = spec.label();
            let per: Vec<_> = results.iter().filter(|r| r.engine == label).cloned().collect();
            let avg = average(&per);
            t.row(vec![(*name).into(), label, fmt(avg.bep(m), 3), fmt(avg.cpi(m), 4)]);
        }
    }
    t.print();
    println!("\nexpected: the NLS-table's advantage over the equal-cost 128 BTB grows");
    println!("with the misfetch cost and survives every model; with a zero misfetch");
    println!("penalty the fetch architectures nearly tie (the small residue is");
    println!("indirect-jump and return handling, which stays mispredict-priced).");
    let path = t.save("ablation_penalties");
    println!("\nwrote {}", path.display());
}
