//! Simulation metrics: %MfB, %MpB, BEP and CPI.

use nls_icache::CacheStats;
use nls_trace::BreakKind;

use crate::engine::KindCounts;
use crate::penalty::PenaltyModel;

/// The result of running one fetch engine over one trace.
///
/// Carries the raw event counts; the paper's derived metrics are
/// methods so different [`PenaltyModel`]s can be applied afterwards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Engine label (e.g. `"1024 NLS table"`, `"128 direct BTB"`).
    pub engine: String,
    /// Workload name (e.g. `"gcc"`).
    pub bench: String,
    /// Cache configuration label (e.g. `"16K 4-way"`).
    pub cache: String,
    /// Instructions simulated.
    pub instructions: u64,
    /// Breaks (dynamic control-transfer instructions).
    pub breaks: u64,
    /// Misfetched branches (wrong fetch, fixed at decode). Never
    /// overlaps with `mispredicts`.
    pub misfetches: u64,
    /// Mispredicted branches (wrong path discovered at execute).
    pub mispredicts: u64,
    /// Instruction-cache statistics for the run.
    pub icache: CacheStats,
    /// Per-break-kind breakdown in [`BreakKind::ALL`] order.
    pub by_kind: [KindCounts; 5],
}

impl SimResult {
    /// Percentage of breaks that were misfetched (the paper's %MfB).
    pub fn pct_misfetched(&self) -> f64 {
        percent(self.misfetches, self.breaks)
    }

    /// Percentage of breaks that were mispredicted (%MpB).
    pub fn pct_mispredicted(&self) -> f64 {
        percent(self.mispredicts, self.breaks)
    }

    /// Branch execution penalty (Yeh & Patt):
    /// `BEP = (%MfB·misfetch + %MpB·mispredict) / 100`,
    /// the average penalty cycles suffered per branch.
    pub fn bep(&self, m: &PenaltyModel) -> f64 {
        let (mf, mp) = self.bep_split(m);
        mf + mp
    }

    /// The BEP split into its (misfetch, mispredict) components —
    /// the two stacked parts of the paper's BEP bar charts.
    pub fn bep_split(&self, m: &PenaltyModel) -> (f64, f64) {
        (
            self.pct_misfetched() * m.misfetch_cycles / 100.0,
            self.pct_mispredicted() * m.mispredict_cycles / 100.0,
        )
    }

    /// Cycles per instruction for the paper's single-issue machine:
    /// `CPI = (N + BEP·branches + misses·miss_penalty) / N`.
    /// Always at least 1.
    pub fn cpi(&self, m: &PenaltyModel) -> f64 {
        if self.instructions == 0 {
            return 1.0;
        }
        let n = self.instructions as f64;
        let penalty_cycles =
            self.bep(m) * self.breaks as f64 + self.icache.misses as f64 * m.icache_miss_cycles;
        (n + penalty_cycles) / n
    }

    /// Instruction-cache miss rate in percent.
    pub fn miss_pct(&self) -> f64 {
        self.icache.miss_pct()
    }

    /// The event counts for one break kind (§7 attribution: e.g. how
    /// much of the mispredict penalty comes from indirect jumps).
    pub fn kind_counts(&self, kind: BreakKind) -> KindCounts {
        self.by_kind.get(kind.index()).copied().unwrap_or_default()
    }

    /// Wide-issue extension (the paper's §8 outlook): estimated
    /// instructions per cycle for a `width`-wide in-order front end
    /// fed by this fetch architecture.
    ///
    /// The fetch unit delivers up to `width` sequential instructions
    /// per cycle; every dynamic break ends its fetch block early,
    /// wasting on average `(width-1)/2` slots, and the misfetch /
    /// mispredict / miss penalty cycles are unchanged. This is the
    /// first-order model behind the paper's observation that "as
    /// processors issue more instructions concurrently, these
    /// penalties increase" in relative weight.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn wide_issue_ipc(&self, width: u32, m: &PenaltyModel) -> f64 {
        assert!(width > 0, "fetch width must be positive");
        if self.instructions == 0 {
            return 0.0;
        }
        let n = self.instructions as f64;
        let w = f64::from(width);
        // Fetch cycles: full blocks plus the half-block wasted at
        // each break.
        let fetch_cycles = (n + self.breaks as f64 * (w - 1.0) / 2.0) / w;
        let penalty_cycles =
            self.bep(m) * self.breaks as f64 + self.icache.misses as f64 * m.icache_miss_cycles;
        n / (fetch_cycles + penalty_cycles)
    }
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Averages a set of results into a synthetic "overall" row, the way
/// the paper's Figures 4, 5 and 8 average over the six programs.
/// Percentages and CPI are averaged per-program (unweighted), so
/// each program contributes equally; the returned `SimResult`
/// contains *synthetic* counts scaled to reproduce those averages.
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn average(results: &[SimResult]) -> SimResult {
    assert!(!results.is_empty(), "cannot average zero results");
    let n = results.len() as f64;
    let mean = |f: &dyn Fn(&SimResult) -> f64| results.iter().map(f).sum::<f64>() / n;

    let pct_mf = mean(&|r| r.pct_misfetched());
    let pct_mp = mean(&|r| r.pct_mispredicted());
    let miss_rate = mean(&|r| r.icache.miss_rate());
    let breaks_per_inst = mean(&|r| r.breaks as f64 / r.instructions.max(1) as f64);

    // Build synthetic counts over a nominal trace so that the
    // percentage-based metrics equal the per-program means.
    const NOMINAL: u64 = 1_000_000_000;
    let breaks = (breaks_per_inst * NOMINAL as f64) as u64;
    // Average the per-kind breakdowns as event rates per break.
    let mut by_kind = [KindCounts::default(); 5];
    for (ki, slot) in by_kind.iter_mut().enumerate() {
        let rate = |f: &dyn Fn(&KindCounts) -> u64| {
            mean(&|r: &SimResult| {
                let kc = r.by_kind.get(ki).copied().unwrap_or_default();
                f(&kc) as f64 / r.breaks.max(1) as f64
            })
        };
        slot.breaks = (rate(&|k| k.breaks) * breaks as f64).round() as u64;
        slot.misfetches = (rate(&|k| k.misfetches) * breaks as f64).round() as u64;
        slot.mispredicts = (rate(&|k| k.mispredicts) * breaks as f64).round() as u64;
    }
    SimResult {
        engine: results[0].engine.clone(),
        bench: "average".to_string(),
        cache: results[0].cache.clone(),
        instructions: NOMINAL,
        breaks,
        misfetches: (pct_mf / 100.0 * breaks as f64).round() as u64,
        mispredicts: (pct_mp / 100.0 * breaks as f64).round() as u64,
        icache: CacheStats {
            accesses: NOMINAL,
            misses: (miss_rate * NOMINAL as f64).round() as u64,
        },
        by_kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(breaks: u64, mf: u64, mp: u64, misses: u64) -> SimResult {
        SimResult {
            engine: "test".into(),
            bench: "t".into(),
            cache: "8K direct".into(),
            instructions: 1000,
            breaks,
            misfetches: mf,
            mispredicts: mp,
            icache: CacheStats { accesses: 1000, misses },
            by_kind: [KindCounts::default(); 5],
        }
    }

    #[test]
    fn percentages() {
        let r = result(200, 10, 5, 0);
        assert!((r.pct_misfetched() - 5.0).abs() < 1e-12);
        assert!((r.pct_mispredicted() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bep_matches_the_papers_formula() {
        // %MfB = 5, %MpB = 2.5 -> BEP = (5*1 + 2.5*4)/100 = 0.15
        let r = result(200, 10, 5, 0);
        let m = PenaltyModel::paper();
        assert!((r.bep(&m) - 0.15).abs() < 1e-12);
        let (mf, mp) = r.bep_split(&m);
        assert!((mf - 0.05).abs() < 1e-12);
        assert!((mp - 0.10).abs() < 1e-12);
    }

    #[test]
    fn cpi_matches_the_papers_formula() {
        // N=1000, BEP=0.15, branches=200, misses=20:
        // CPI = (1000 + 0.15*200 + 20*5)/1000 = 1.13
        let r = result(200, 10, 5, 20);
        assert!((r.cpi(&PenaltyModel::paper()) - 1.13).abs() < 1e-12);
    }

    #[test]
    fn cpi_of_perfect_run_is_one() {
        let r = result(200, 0, 0, 0);
        assert_eq!(r.cpi(&PenaltyModel::paper()), 1.0);
    }

    #[test]
    fn zero_breaks_is_safe() {
        let r = result(0, 0, 0, 0);
        assert_eq!(r.pct_misfetched(), 0.0);
        assert_eq!(r.bep(&PenaltyModel::paper()), 0.0);
    }

    #[test]
    fn wide_issue_ipc_basics() {
        let m = PenaltyModel::paper();
        let r = result(200, 10, 5, 20);
        // Width 1 IPC is exactly 1/CPI.
        let ipc1 = r.wide_issue_ipc(1, &m);
        assert!((ipc1 - 1.0 / r.cpi(&m)).abs() < 1e-12);
        // Wider fetch always helps, but sublinearly: penalties cap it.
        let ipc4 = r.wide_issue_ipc(4, &m);
        let ipc8 = r.wide_issue_ipc(8, &m);
        assert!(ipc4 > ipc1 && ipc8 > ipc4);
        assert!(ipc8 < 8.0 * ipc1, "penalties must prevent linear scaling");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = result(1, 0, 0, 0).wide_issue_ipc(0, &PenaltyModel::paper());
    }

    #[test]
    fn average_is_unweighted_mean_of_percentages() {
        let a = result(100, 10, 0, 0); // 10% MfB
        let b = result(1000, 0, 0, 0); // 0% MfB
        let avg = average(&[a, b]);
        assert!((avg.pct_misfetched() - 5.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "zero results")]
    fn average_of_nothing_panics() {
        let _ = average(&[]);
    }
}
