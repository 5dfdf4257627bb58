//! Extensions beyond the paper's figures: code layout, wide issue, the
//! instruction-type prediction table and fall-through set prediction.

use nls_core::{
    cross, fallthrough_way_prediction, run_cells_supervised, run_one, Budget, EngineSpec,
    PenaltyModel, PhtSpec, RunSpec, SimResult, SweepConfig,
};
use nls_icache::CacheConfig;
use nls_trace::{synthesize, BenchProfile, GenConfig, Layout, Walker};

use crate::{average_of, fmt, Experiment, Report, Table};

/// Extension: whole-program restructuring (§7 / §8).
///
/// The paper: "Whole-program restructuring is one technique that can
/// be used to reduce the instruction cache miss rate at no additional
/// architectural cost" — and because NLS accuracy tracks cache
/// residency while BTB accuracy does not, such restructuring improves
/// the NLS architecture for free. This experiment compares a shuffled
/// (arbitrary link order) layout against a profile-guided
/// hot-clustered layout for both architectures; the hot-clustered
/// program is not the default workload, so it simulates on its own.
pub const EXT_CODE_LAYOUT: Experiment = Experiment::Alone(code_layout);

fn code_layout(cfg: &SweepConfig) -> Report {
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
            let outcomes = run_cells_supervised(&program, &[&run], cfg, &Budget::unlimited());
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
    let notes = "\nexpected: clustering lowers the miss rate, which lowers the NLS\n\
                 misfetch rate (its pointers stay valid longer) while the BTB's BEP\n\
                 is unchanged — both see the CPI gain from fewer cache misses.\n";
    Report::new("ext_code_layout", t, notes)
}

fn wide_issue_engines() -> [EngineSpec; 3] {
    [EngineSpec::btb(128, 1), EngineSpec::btb(256, 4), EngineSpec::nls_table(1024)]
}

/// Extension: wide-issue front ends (§8 outlook).
///
/// The paper closes by noting that nothing in the NLS design is a
/// problem for wide-issue machines, and its introduction motivates the
/// whole study with the observation that fetch/branch penalties grow
/// in relative weight as issue width rises. This experiment applies
/// the first-order wide-issue model
/// ([`SimResult::wide_issue_ipc`]) to the measured penalty
/// counts: IPC for fetch widths 1–8 per architecture.
pub const EXT_WIDE_ISSUE: Experiment = Experiment::Grid(
    || cross(&BenchProfile::all(), &[CacheConfig::paper(32, 4)], &wide_issue_engines()),
    wide_issue,
);

fn wide_issue(results: &[SimResult]) -> Report {
    let m = PenaltyModel::paper();
    let mut t = Table::new(
        "Extension: estimated IPC vs fetch width (32K 4-way cache)",
        &["engine", "W=1", "W=2", "W=4", "W=8", "W=8 speedup"],
    );
    for spec in wide_issue_engines() {
        let label = spec.label();
        let avg = average_of(results, |r| r.engine == label);
        let ipc: Vec<f64> = [1, 2, 4, 8].iter().map(|&w| avg.wide_issue_ipc(w, &m)).collect();
        t.row(vec![
            label,
            fmt(ipc[0], 3),
            fmt(ipc[1], 3),
            fmt(ipc[2], 3),
            fmt(ipc[3], 3),
            fmt(ipc[3] / ipc[0], 2),
        ]);
    }
    let notes = "\nexpected: IPC scales far below 8x at W=8 — fetch-penalty cycles are\n\
                 width-independent, so the NLS/BTB accuracy gap matters *more* as the\n\
                 machine widens (the paper's motivating argument).\n";
    Report::new("ext_wide_issue", t, notes)
}

/// Extension: the instruction-type prediction table (§4).
///
/// The NLS architecture assumes instructions can be identified as
/// branches during fetch (a predecode bit). The paper notes that
/// without such a bit the information can come from "an instruction
/// type prediction table". This experiment measures what the
/// assumption is worth: the 1024-entry NLS-table with a predecode bit
/// versus the same engine with 1K/4K/16K-entry tag-less type tables.
/// A type table puts its whole walk on the per-record path, so the
/// stage simulates on its own rather than in a shared grid.
pub const EXT_TYPE_PREDICTOR: Experiment = Experiment::Alone(type_predictor);

fn type_predictor(cfg: &SweepConfig) -> Report {
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
        for (i, ((name, _), r)) in variants.iter().zip(run_one(&run, cfg)).enumerate() {
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
    let notes = "\n(*) with a type table, %MfB also counts fetch bubbles from sequential\n\
                 instructions falsely predicted as branches, so it can exceed the\n\
                 per-break accounting of the main figures.\n\
                 \nexpected: a sufficiently large type table recovers most of the\n\
                 predecode bit's benefit; small tables alias and cost extra bubbles.\n";
    Report::new("ext_type_predictor", t, notes)
}

/// Extension: fall-through set-field accuracy (§4.2, approach 2).
///
/// The paper's elegant associative-cache scheme gives every cache line
/// a set field predicting the way of its fall-through line, so a
/// single way is driven on each access and the cache runs at
/// direct-mapped speed. The scheme is viable only if the prediction is
/// nearly always right; this experiment measures its accuracy on
/// sequential line crossings for 2-way and 4-way caches.
pub const EXT_SET_PREDICTION: Experiment = Experiment::Alone(set_prediction);

fn set_prediction(cfg: &SweepConfig) -> Report {
    let mut t = Table::new(
        "Extension: fall-through way-prediction accuracy (16K cache)",
        &["program", "assoc", "line crossings", "mispredicts", "accuracy %"],
    );
    for p in BenchProfile::all() {
        let program = synthesize(&p, &GenConfig::for_profile(&p));
        for assoc in [2u32, 4] {
            let trace = Walker::new(&program, cfg.seed).take(cfg.trace_len);
            let stats = fallthrough_way_prediction(trace, CacheConfig::paper(16, assoc));
            t.row(vec![
                p.name.into(),
                format!("{assoc}-way"),
                stats.line_crossings.to_string(),
                stats.mispredicts.to_string(),
                fmt(100.0 * stats.accuracy(), 2),
            ]);
        }
    }
    let notes = "\nexpected: accuracy tracks cache residency — ~98-99% on the\n\
                 low-miss-rate programs and lower where refills keep clearing the\n\
                 fields (gcc). For two-way caches the paper's fallback — probe the\n\
                 one remaining way — bounds every mispredict at a single bubble.\n";
    Report::new("ext_set_prediction", t, notes)
}
