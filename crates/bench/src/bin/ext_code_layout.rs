//! Extension: whole-program restructuring (§7 / §8).
//!
//! The paper: "Whole-program restructuring is one technique that can
//! be used to reduce the instruction cache miss rate at no
//! additional architectural cost" — and because NLS accuracy tracks
//! cache residency while BTB accuracy does not, such restructuring
//! improves the NLS architecture for free. This experiment compares
//! a shuffled (arbitrary link order) layout against a profile-guided
//! hot-clustered layout for both architectures.

use nls_bench::{fmt, sweep_config, Table};
use nls_core::{run_cells_supervised, Budget, EngineSpec, PenaltyModel, RunSpec};
use nls_icache::CacheConfig;
use nls_trace::{synthesize, BenchProfile, GenConfig, Layout};

fn main() {
    let cfg = sweep_config();
    let m = PenaltyModel::paper();
    let cache = CacheConfig::paper(8, 1); // small cache: misses matter most
    let mut t = Table::new(
        "Extension: profile-guided code layout (8K direct cache)",
        &["program", "layout", "engine", "BEP", "%MfB", "miss%", "CPI"],
    );

    for p in BenchProfile::branch_heavy() {
        let engines = vec![EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)];
        let run = RunSpec { bench: p.clone(), cache, engines };
        for layout in [Layout::Shuffled, Layout::HotClustered] {
            let gen_cfg = GenConfig { layout, ..GenConfig::for_profile(&p) };
            let program = synthesize(&p, &gen_cfg);
            let outcomes = run_cells_supervised(&program, &[&run], &cfg, &Budget::unlimited());
            for r in outcomes.iter().flat_map(|o| o.results()) {
                t.row(vec![
                    p.name.into(),
                    format!("{layout:?}"),
                    r.engine.clone(),
                    fmt(r.bep(&m), 3),
                    fmt(r.pct_misfetched(), 2),
                    fmt(r.miss_pct(), 2),
                    fmt(r.cpi(&m), 4),
                ]);
            }
        }
    }
    t.print();
    println!("\nexpected: clustering lowers the miss rate, which lowers the NLS");
    println!("misfetch rate (its pointers stay valid longer) while the BTB's BEP");
    println!("is unchanged — both see the CPI gain from fewer cache misses.");
    let path = t.save("ext_code_layout");
    println!("\nwrote {}", path.display());
}
