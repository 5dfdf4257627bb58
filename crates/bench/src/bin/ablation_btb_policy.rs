//! BTB not-taken policy ablation (§3 design choice).
//!
//! The paper keeps a branch's BTB entry when it executes not-taken
//! ("we might need the taken target address again in the near
//! future") rather than evicting it. This ablation measures both
//! policies on the 128-entry direct-mapped BTB.

use nls_bench::{fmt, sweep_config, Table};
use nls_core::{run_one, EngineSpec, PenaltyModel, PhtSpec, RunSpec};
use nls_icache::CacheConfig;
use nls_trace::BenchProfile;

fn main() {
    let cfg = sweep_config();
    let m = PenaltyModel::paper();
    let cache = CacheConfig::paper(16, 1);
    let evict =
        EngineSpec::Btb { entries: 128, assoc: 1, pht: PhtSpec::Gshare, evict_not_taken: true };
    let engines = vec![EngineSpec::btb(128, 1), evict];

    let mut t = Table::new(
        "Ablation: BTB keep-vs-evict on not-taken (128 direct, 16K cache)",
        &["program", "policy", "BEP", "%MfB"],
    );
    let mut avg = [(0.0f64, 0.0f64); 2];
    let benches = BenchProfile::all();
    for p in &benches {
        let run = RunSpec { bench: p.clone(), cache, engines: engines.clone() };
        for (i, (r, policy)) in
            run_one(&run, &cfg).iter().zip(["keep (paper)", "evict"]).enumerate()
        {
            t.row(vec![
                p.name.into(),
                policy.into(),
                fmt(r.bep(&m), 3),
                fmt(r.pct_misfetched(), 2),
            ]);
            if let Some(slot) = avg.get_mut(i) {
                slot.0 += r.bep(&m);
                slot.1 += r.pct_misfetched();
            }
        }
    }
    let n = benches.len() as f64;
    for (i, policy) in ["keep (paper)", "evict"].iter().enumerate() {
        let (bep_sum, mfb_sum) = avg.get(i).copied().unwrap_or_default();
        t.row(vec![
            "average".into(),
            (*policy).into(),
            fmt(bep_sum / n, 3),
            fmt(mfb_sum / n, 2),
        ]);
    }
    t.print();
    let path = t.save("ablation_btb_policy");
    println!("\nwrote {}", path.display());
}
