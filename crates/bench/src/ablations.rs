//! The §7 attribution analysis and the ablations of the paper's design
//! choices and assumptions.

use std::fmt::Write as _;

use nls_core::{
    cross, run_one, EngineSpec, PenaltyModel, PhtSpec, RunSpec, SimResult, SweepConfig,
};
use nls_cost::rbe::{nls_cache_rbe, nls_table_rbe, CacheGeometry};
use nls_icache::CacheConfig;
use nls_trace::{BenchProfile, BreakKind};

use crate::{average_of, fmt, Experiment, Report, Table};

/// Every program at the 16 KB direct-mapped cache, under `engines`.
fn at_16k_direct(engines: &[EngineSpec]) -> Vec<RunSpec> {
    cross(&BenchProfile::all(), &[CacheConfig::paper(16, 1)], engines)
}

/// The headline comparison's engines: the 128 direct and 256 4-way
/// BTBs and the 1024 NLS-table.
fn headline() -> [EngineSpec; 3] {
    [EngineSpec::btb(128, 1), EngineSpec::btb(256, 4), EngineSpec::nls_table(1024)]
}

fn headline_at_16k_direct() -> Vec<RunSpec> {
    at_16k_direct(&headline())
}

/// §7 attribution analysis: where the penalties come from.
///
/// The paper explains Figure 7 by attribution: "The differences in
/// the BEP between the BTB and NLS architectures is attributable to
/// differences in the number of misfetched branches", and "any
/// difference in the mispredict penalty for a given program is
/// attributed to the variation in the mispredict penalty for indirect
/// jumps across the different architectures ... only noticeable for
/// groff". This experiment breaks every engine's penalty events down
/// by break kind to verify both statements.
pub const ATTRIBUTION: Experiment = Experiment::Grid(headline_at_16k_direct, attribution);

fn attribution(results: &[SimResult]) -> Report {
    let mut t = Table::new(
        "Attribution: penalty events per break kind (per 1000 breaks, 16K direct)",
        &["program", "engine", "mf:cond", "mf:other", "mp:cond", "mp:indirect", "mp:ret"],
    );
    for p in BenchProfile::all() {
        for r in results.iter().filter(|r| r.bench == p.name) {
            let per_mille = |n: u64| 1000.0 * n as f64 / r.breaks as f64;
            let cond = r.kind_counts(BreakKind::Conditional);
            let ij = r.kind_counts(BreakKind::IndirectJump);
            let ret = r.kind_counts(BreakKind::Return);
            let other_mf = r.misfetches - cond.misfetches;
            t.row(vec![
                p.name.into(),
                r.engine.clone(),
                fmt(per_mille(cond.misfetches), 1),
                fmt(per_mille(other_mf), 1),
                fmt(per_mille(cond.mispredicts), 1),
                fmt(per_mille(ij.mispredicts), 1),
                fmt(per_mille(ret.mispredicts), 1),
            ]);
        }
    }

    // Verify the two §7 statements quantitatively.
    let mut max_cond_mp_spread = (0.0f64, "");
    let mut max_ij_mp_spread = (0.0f64, "");
    for p in BenchProfile::all() {
        let per: Vec<_> = results.iter().filter(|r| r.bench == p.name).collect();
        let rate = |f: &dyn Fn(&&SimResult) -> u64| -> (f64, f64) {
            let v: Vec<f64> =
                per.iter().map(|r| f(r) as f64 / r.breaks as f64 * 100.0).collect();
            (
                v.iter().cloned().fold(f64::INFINITY, f64::min),
                v.iter().cloned().fold(0.0, f64::max),
            )
        };
        let (lo, hi) = rate(&|r| r.kind_counts(BreakKind::Conditional).mispredicts);
        if hi - lo > max_cond_mp_spread.0 {
            max_cond_mp_spread = (hi - lo, p.name);
        }
        let (lo, hi) = rate(&|r| r.kind_counts(BreakKind::IndirectJump).mispredicts);
        if hi - lo > max_ij_mp_spread.0 {
            max_ij_mp_spread = (hi - lo, p.name);
        }
    }
    let mut notes = String::from("\nchecks:\n");
    let _ = writeln!(
        notes,
        "  conditional-mispredict spread across engines: max {:.3} pp ({}) — the shared\n  \
         PHT makes direction mispredicts engine-invariant, as the paper isolates;\n  \
         indirect-jump mispredict spread: max {:.3} pp ({}) — the only mispredict\n  \
         component that varies across architectures, as §7 states.",
        max_cond_mp_spread.0, max_cond_mp_spread.1, max_ij_mp_spread.0, max_ij_mp_spread.1
    );
    Report::new("attribution", t, &notes)
}

fn johnson_engines() -> [EngineSpec; 3] {
    [
        EngineSpec::Johnson { preds_per_line: 2 },
        EngineSpec::nls_cache(2),
        EngineSpec::nls_table(1024),
    ]
}

/// §6.2 related-work ablation: Johnson's coupled successor-index
/// design versus the paper's NLS organisations.
///
/// Quantifies what the paper's changes buy over the prior design:
/// taken-only pointer updates, the decoupled two-level PHT and the
/// return stack. Johnson-style prediction (as in the TFP / MIPS
/// R8000) couples a one-bit directional pointer to the cache line.
pub const ABLATION_JOHNSON: Experiment =
    Experiment::Grid(|| at_16k_direct(&johnson_engines()), johnson);

fn johnson(results: &[SimResult]) -> Report {
    let m = PenaltyModel::paper();
    let mut t = Table::new(
        "Ablation: Johnson successor-index vs NLS (16K direct cache)",
        &["program", "engine", "BEP", "%MfB", "%MpB"],
    );
    for p in BenchProfile::all() {
        for r in results.iter().filter(|r| r.bench == p.name) {
            t.row(vec![
                p.name.into(),
                r.engine.clone(),
                fmt(r.bep(&m), 3),
                fmt(r.pct_misfetched(), 2),
                fmt(r.pct_mispredicted(), 2),
            ]);
        }
    }
    for spec in johnson_engines() {
        let label = spec.label();
        let avg = average_of(results, |r| r.engine == label);
        t.row(vec![
            "average".into(),
            label,
            fmt(avg.bep(&m), 3),
            fmt(avg.pct_misfetched(), 2),
            fmt(avg.pct_mispredicted(), 2),
        ]);
    }
    let notes = "\nexpected: Johnson's one-bit coupled design trails both NLS organisations;\n\
                 the decoupled NLS-table wins overall.\n";
    Report::new("ablation_johnson", t, notes)
}

fn pht_engines() -> [EngineSpec; 4] {
    [PhtSpec::Gshare, PhtSpec::GlobalOnly, PhtSpec::Bimodal, PhtSpec::Tournament]
        .map(|pht| EngineSpec::NlsTable { entries: 1024, pht, type_table: None })
}

/// PHT-flavour ablation (§2/§3 design choice).
///
/// The paper picks McFarling's gshare for the shared conditional
/// predictor. This ablation swaps the PHT indexing — gshare,
/// Pan-et-al degenerate (history-only) and bimodal (PC-only) — under
/// the 1024-entry NLS-table, holding everything else fixed.
///
/// Note on the synthetic workloads: conditional outcomes here are
/// generated per-site (biased/pattern/Markov processes), which gives
/// branch *history* less cross-branch signal than real programs have,
/// so gshare's edge over bimodal is muted relative to real traces;
/// see DESIGN.md.
pub const ABLATION_PHT: Experiment = Experiment::Grid(|| at_16k_direct(&pht_engines()), pht);

fn pht(results: &[SimResult]) -> Report {
    let m = PenaltyModel::paper();
    let engines = pht_engines();
    let names = ["gshare", "global (Pan et al.)", "bimodal", "tournament"];
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
        let avg = nls_core::average(&per);
        t.row(vec![
            "average".into(),
            (*name).into(),
            fmt(avg.bep(&m), 3),
            fmt(avg.pct_mispredicted(), 2),
        ]);
    }
    Report::new("ablation_pht", t, "")
}

fn layout_engines() -> [EngineSpec; 4] {
    [
        EngineSpec::nls_cache(1),
        EngineSpec::nls_cache(2),
        EngineSpec::nls_cache(4),
        EngineSpec::nls_table(1024),
    ]
}

/// NLS-cache layout ablation (§5.1 design choice).
///
/// The paper evaluated one to four NLS predictors per cache line and
/// settled on two per 8-instruction line as the best cost/benefit.
/// This ablation sweeps predictors-per-line on a 16 KB direct-mapped
/// cache.
pub const ABLATION_NLS_CACHE_LAYOUT: Experiment =
    Experiment::Grid(|| at_16k_direct(&layout_engines()), nls_cache_layout);

fn nls_cache_layout(results: &[SimResult]) -> Report {
    let m = PenaltyModel::paper();
    let mut t = Table::new(
        "Ablation: NLS-cache predictors per line (16K direct cache)",
        &["engine", "avg BEP", "avg %MfB", "RBE"],
    );
    for spec in layout_engines() {
        let label = spec.label();
        let avg = average_of(results, |r| r.engine == label);
        let rbe = match spec {
            EngineSpec::NlsCache { preds_per_line, .. } => {
                nls_cache_rbe(preds_per_line, CacheGeometry::paper(16, 1))
            }
            _ => nls_table_rbe(1024, CacheGeometry::paper(16, 1)),
        };
        t.row(vec![label, fmt(avg.bep(&m), 3), fmt(avg.pct_misfetched(), 2), fmt(rbe, 0)]);
    }
    let notes = "\nexpected: 1/line loses accuracy (branch crowding); 4/line doubles the\n\
                 cost of 2/line for little gain — the paper's 2/line choice; and the\n\
                 decoupled table beats all coupled layouts at similar cost.\n";
    Report::new("ablation_nls_cache_layout", t, notes)
}

/// BTB not-taken policy ablation (§3 design choice).
///
/// The paper keeps a branch's BTB entry when it executes not-taken
/// ("we might need the taken target address again in the near
/// future") rather than evicting it. This ablation measures both
/// policies on the 128-entry direct-mapped BTB.
pub const ABLATION_BTB_POLICY: Experiment = Experiment::Grid(
    || {
        let evict = EngineSpec::Btb {
            entries: 128,
            assoc: 1,
            pht: PhtSpec::Gshare,
            evict_not_taken: true,
        };
        at_16k_direct(&[EngineSpec::btb(128, 1), evict])
    },
    btb_policy,
);

fn btb_policy(results: &[SimResult]) -> Report {
    let m = PenaltyModel::paper();
    let policies = ["keep (paper)", "evict"];
    let mut t = Table::new(
        "Ablation: BTB keep-vs-evict on not-taken (128 direct, 16K cache)",
        &["program", "policy", "BEP", "%MfB"],
    );
    let mut avg = [(0.0f64, 0.0f64); 2];
    let benches = BenchProfile::all();
    for (p, run) in benches.iter().zip(results.chunks(policies.len())) {
        for (i, (r, policy)) in run.iter().zip(policies).enumerate() {
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
    for (i, policy) in policies.iter().enumerate() {
        let (bep_sum, mfb_sum) = avg.get(i).copied().unwrap_or_default();
        t.row(vec![
            "average".into(),
            (*policy).into(),
            fmt(bep_sum / n, 3),
            fmt(mfb_sum / n, 2),
        ]);
    }
    Report::new("ablation_btb_policy", t, "")
}

/// Trace-length sensitivity ablation.
///
/// The paper traces between 16 M and 1.4 B instructions per program;
/// this reproduction defaults to 8 M. This ablation shows how the
/// headline comparison (1024 NLS-table vs 128 direct BTB on gcc)
/// moves with trace length, demonstrating that the shape is stable
/// well below the default. Its lengths are fixed, so it simulates on
/// its own.
pub const ABLATION_TRACE_LEN: Experiment = Experiment::Alone(trace_len);

fn trace_len(cfg: &SweepConfig) -> Report {
    let m = PenaltyModel::paper();
    let mut t = Table::new(
        "Ablation: trace length (gcc, 16K direct cache)",
        &["trace len", "engine", "BEP", "%MfB", "%MpB"],
    );
    for len in [250_000usize, 1_000_000, 4_000_000, 8_000_000, 16_000_000] {
        let spec = RunSpec {
            bench: BenchProfile::gcc(),
            cache: CacheConfig::paper(16, 1),
            engines: vec![EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)],
        };
        for r in run_one(&spec, &SweepConfig { trace_len: len, ..*cfg }) {
            t.row(vec![
                len.to_string(),
                r.engine.clone(),
                fmt(r.bep(&m), 3),
                fmt(r.pct_misfetched(), 2),
                fmt(r.pct_mispredicted(), 2),
            ]);
        }
    }
    let notes = "\nexpected: the NLS-vs-BTB misfetch gap is stable from ~1M instructions on;\n\
                 absolute BEP drifts slightly downward as predictors warm.\n";
    Report::new("ablation_trace_len", t, notes)
}

/// Penalty-model sensitivity ablation (§5.2 assumption).
///
/// The paper fixes the misfetch penalty at 1 cycle and the mispredict
/// penalty at 4 cycles as "reasonable for current superscalar
/// architectures" (1995). This ablation re-derives the headline
/// comparison under different penalty assumptions — including
/// deeper-pipeline costs — from the *same* event counts, the
/// attribution analysis's runs, showing that the NLS-vs-BTB verdict
/// is not an artifact of the chosen constants.
pub const ABLATION_PENALTIES: Experiment = Experiment::Grid(headline_at_16k_direct, penalties);

fn penalties(results: &[SimResult]) -> Report {
    let model = |misfetch_cycles, mispredict_cycles, icache_miss_cycles| PenaltyModel {
        misfetch_cycles,
        mispredict_cycles,
        icache_miss_cycles,
    };
    let models = [
        ("paper (1/4/5)", PenaltyModel::paper()),
        ("shallow (1/2/3)", model(1.0, 2.0, 3.0)),
        ("deep (2/10/20)", model(2.0, 10.0, 20.0)),
        ("misfetch-free (0/4/5)", model(0.0, 4.0, 5.0)),
    ];
    let mut t = Table::new(
        "Ablation: penalty-model sensitivity (16K direct, program average)",
        &["penalty model", "engine", "BEP", "CPI"],
    );
    for (name, m) in &models {
        for spec in headline() {
            let label = spec.label();
            let avg = average_of(results, |r| r.engine == label);
            t.row(vec![(*name).into(), label, fmt(avg.bep(m), 3), fmt(avg.cpi(m), 4)]);
        }
    }
    let notes = "\nexpected: the NLS-table's advantage over the equal-cost 128 BTB grows\n\
                 with the misfetch cost and survives every model; with a zero misfetch\n\
                 penalty the fetch architectures nearly tie (the small residue is\n\
                 indirect-jump and return handling, which stays mispredict-priced).\n";
    Report::new("ablation_penalties", t, notes)
}
