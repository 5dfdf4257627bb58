//! Extension: the instruction-type prediction table (§4).
//!
//! The NLS architecture assumes instructions can be identified as
//! branches during fetch (a predecode bit). The paper notes that
//! without such a bit the information can come from "an instruction
//! type prediction table". This experiment measures what the
//! assumption is worth: the 1024-entry NLS-table with a predecode
//! bit versus the same engine with 1K/4K/16K-entry tag-less type
//! tables.

use nls_bench::{fmt, sweep_config, Table};
use nls_core::{run_one, EngineSpec, PenaltyModel, PhtSpec, RunSpec};
use nls_icache::CacheConfig;
use nls_trace::BenchProfile;

fn main() {
    let cfg = sweep_config();
    let m = PenaltyModel::paper();
    let cache = CacheConfig::paper(16, 1);
    let mut t = Table::new(
        "Extension: instruction-type prediction vs predecode bit (16K direct)",
        &["program", "type source", "BEP*", "%MfB*"],
    );
    let variants: [(&str, Option<usize>); 4] = [
        ("predecode bit (paper)", None),
        ("1K type table", Some(1024)),
        ("4K type table", Some(4096)),
        ("16K type table", Some(16384)),
    ];

    let engines: Vec<EngineSpec> = variants
        .iter()
        .map(|&(_, type_table)| EngineSpec::NlsTable {
            entries: 1024,
            pht: PhtSpec::Gshare,
            type_table,
        })
        .collect();

    let mut sums = vec![0.0f64; variants.len()];
    let benches = BenchProfile::all();
    for p in &benches {
        let run = RunSpec { bench: p.clone(), cache, engines: engines.clone() };
        for (i, ((name, _), r)) in variants.iter().zip(run_one(&run, &cfg)).enumerate() {
            t.row(vec![
                p.name.into(),
                (*name).into(),
                fmt(r.bep(&m), 3),
                fmt(r.pct_misfetched(), 2),
            ]);
            if let Some(sum) = sums.get_mut(i) {
                *sum += r.bep(&m);
            }
        }
    }
    for (i, (name, _)) in variants.iter().enumerate() {
        t.row(vec![
            "average".into(),
            (*name).into(),
            fmt(sums.get(i).copied().unwrap_or_default() / benches.len() as f64, 3),
            "-".into(),
        ]);
    }
    t.print();
    println!("\n(*) with a type table, %MfB also counts fetch bubbles from sequential");
    println!("instructions falsely predicted as branches, so it can exceed the");
    println!("per-break accounting of the main figures.");
    println!("\nexpected: a sufficiently large type table recovers most of the");
    println!("predecode bit's benefit; small tables alias and cost extra bubbles.");
    let path = t.save("ext_type_predictor");
    println!("\nwrote {}", path.display());
}
