//! PHT-flavour ablation (§2/§3 design choice).
//!
//! The paper picks McFarling's gshare for the shared conditional
//! predictor. This ablation swaps the PHT indexing — gshare,
//! Pan-et-al degenerate (history-only) and bimodal (PC-only) — under
//! the 1024-entry NLS-table, holding everything else fixed.
//!
//! Note on the synthetic workloads: conditional outcomes here are
//! generated per-site (biased/pattern/Markov processes), which gives
//! branch *history* less cross-branch signal than real programs
//! have, so gshare's edge over bimodal is muted relative to real
//! traces; see DESIGN.md.

use nls_bench::{fmt, sweep_config, Table};
use nls_core::{average, cross, run_sweep, EngineSpec, PenaltyModel, PhtSpec};
use nls_icache::CacheConfig;
use nls_trace::BenchProfile;

fn main() {
    let cfg = sweep_config();
    let m = PenaltyModel::paper();
    let engines = [PhtSpec::Gshare, PhtSpec::GlobalOnly, PhtSpec::Bimodal, PhtSpec::Tournament]
        .map(|pht| EngineSpec::NlsTable { entries: 1024, pht, type_table: None });
    let names = ["gshare", "global (Pan et al.)", "bimodal", "tournament"];
    let cache = CacheConfig::paper(16, 1);
    let runs = cross(&BenchProfile::all(), &[cache], &engines);
    let results = run_sweep(&runs, &cfg);

    let mut t = Table::new(
        "Ablation: PHT indexing under the 1024 NLS-table (16K direct)",
        &["program", "pht", "BEP", "%MpB"],
    );
    for p in BenchProfile::all() {
        for (i, _) in engines.iter().enumerate() {
            let Some(r) = results.iter().filter(|r| r.bench == p.name).nth(i) else {
                continue;
            };
            t.row(vec![
                p.name.into(),
                names.get(i).copied().unwrap_or("?").into(),
                fmt(r.bep(&m), 3),
                fmt(r.pct_mispredicted(), 2),
            ]);
        }
    }
    for (i, name) in names.iter().enumerate() {
        let per: Vec<_> =
            results.chunks(engines.len()).filter_map(|c| c.get(i).cloned()).collect();
        if per.is_empty() {
            continue;
        }
        let avg = average(&per);
        t.row(vec![
            "average".into(),
            (*name).into(),
            fmt(avg.bep(&m), 3),
            fmt(avg.pct_mispredicted(), 2),
        ]);
    }
    t.print();
    let path = t.save("ablation_pht");
    println!("\nwrote {}", path.display());
}
