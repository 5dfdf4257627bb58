//! Simulation invariant oracle.
//!
//! Fault injection can only prove "no panic"; the oracle proves the
//! surviving numbers still make sense. It checks the accounting
//! identities every standard engine must satisfy, plus a cross-engine
//! law: BTB and NLS-table front ends consult the *same* direction
//! predictor the same way, so their conditional-branch outcomes must
//! agree exactly.
//!
//! Violations are returned as a list of human-readable findings so a
//! fuzz harness can assert emptiness and quote the failures verbatim.
//!
//! The per-result identities assume the standard classification of
//! [`Counters::record`](crate::Counters): every break is exactly one
//! of correct / misfetched / mispredicted. NLS tables with a type
//! table (`EngineSpec::NlsTable`'s `type_table`) break the
//! `misfetches + mispredicts <= breaks` bound by design
//! (type-mispredicted *sequential* fetches also count) and are outside
//! the oracle's domain.

use nls_trace::BreakKind;

use crate::metrics::SimResult;

/// Checks the single-result accounting identities. Returns one
/// finding per violated invariant; an empty vector is a clean bill.
///
/// The invariants:
/// 1. breaks ≤ instructions, misses ≤ accesses;
/// 2. outcomes are mutually exclusive: misfetches + mispredicts ≤
///    breaks, in total and within every break kind;
/// 3. the per-kind breakdown sums back to the totals for breaks,
///    misfetches and mispredicts;
/// 4. only conditional branches can be direction-mispredicted (for
///    every other kind the target is the only thing to predict, so
///    its mispredicts come solely from wrong targets discovered at
///    execute — indirect jumps — and returns; unconditional directs
///    and calls resolve at decode).
pub fn invariant_violations(r: &SimResult) -> Vec<String> {
    let mut findings = Vec::new();
    let who = format!("{} / {} / {}", r.engine, r.bench, r.cache);

    if r.breaks > r.instructions {
        findings.push(format!(
            "{who}: breaks ({}) exceed instructions ({})",
            r.breaks, r.instructions
        ));
    }
    if r.icache.misses > r.icache.accesses {
        findings.push(format!(
            "{who}: icache misses ({}) exceed accesses ({})",
            r.icache.misses, r.icache.accesses
        ));
    }
    if r.misfetches + r.mispredicts > r.breaks {
        findings.push(format!(
            "{who}: misfetches + mispredicts ({} + {}) exceed breaks ({})",
            r.misfetches, r.mispredicts, r.breaks
        ));
    }

    let sums = r.by_kind.iter().fold((0u64, 0u64, 0u64), |acc, k| {
        (acc.0 + k.breaks, acc.1 + k.misfetches, acc.2 + k.mispredicts)
    });
    for (label, total, sum) in [
        ("breaks", r.breaks, sums.0),
        ("misfetches", r.misfetches, sums.1),
        ("mispredicts", r.mispredicts, sums.2),
    ] {
        if total != sum {
            findings
                .push(format!("{who}: by_kind {label} sum to {sum} but the total is {total}"));
        }
    }

    for (ki, kind) in BreakKind::ALL.iter().enumerate() {
        let k = r.by_kind.get(ki).copied().unwrap_or_default();
        if k.misfetches + k.mispredicts > k.breaks {
            findings.push(format!(
                "{who}: {kind:?} misfetches + mispredicts ({} + {}) exceed its breaks ({})",
                k.misfetches, k.mispredicts, k.breaks
            ));
        }
        if matches!(kind, BreakKind::Unconditional | BreakKind::Call) && k.mispredicts > 0 {
            findings.push(format!(
                "{who}: {kind:?} breaks cannot be mispredicted, found {}",
                k.mispredicts
            ));
        }
    }
    findings
}

/// Checks the cross-engine PHT-agreement law.
///
/// `predict` on a direction predictor is immutable and `update` is
/// driven identically by both the BTB and NLS-table engines, so two
/// results measured over the same trace with the same
/// [`PhtSpec`](crate::PhtSpec) must report identical conditional-branch
/// break and mispredict counts — the PHT neither knows nor cares which
/// fetch architecture sits in front of it. A divergence means one
/// engine corrupted shared prediction state.
pub fn pht_agreement_violations(a: &SimResult, b: &SimResult) -> Vec<String> {
    let mut findings = Vec::new();
    let ca = a.kind_counts(BreakKind::Conditional);
    let cb = b.kind_counts(BreakKind::Conditional);
    if a.instructions != b.instructions {
        findings.push(format!(
            "{} and {} simulated different traces ({} vs {} instructions); \
             agreement is undefined",
            a.engine, b.engine, a.instructions, b.instructions
        ));
        return findings;
    }
    if ca.breaks != cb.breaks {
        findings.push(format!(
            "{} saw {} conditional breaks but {} saw {}",
            a.engine, ca.breaks, b.engine, cb.breaks
        ));
    }
    if ca.mispredicts != cb.mispredicts {
        findings.push(format!(
            "PHT disagreement: {} mispredicted {} conditionals but {} mispredicted {}",
            a.engine, ca.mispredicts, b.engine, cb.mispredicts
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use nls_icache::CacheStats;

    use super::*;
    use crate::engine::KindCounts;

    fn clean_result() -> SimResult {
        SimResult {
            engine: "1024 NLS table".into(),
            bench: "li".into(),
            cache: "8K direct".into(),
            instructions: 10_000,
            breaks: 1_000,
            misfetches: 100,
            mispredicts: 50,
            icache: CacheStats { accesses: 10_000, misses: 300 },
            by_kind: [
                KindCounts { breaks: 600, misfetches: 40, mispredicts: 50 },
                KindCounts { breaks: 100, misfetches: 20, mispredicts: 0 },
                KindCounts { breaks: 100, misfetches: 15, mispredicts: 0 },
                KindCounts { breaks: 100, misfetches: 15, mispredicts: 0 },
                KindCounts { breaks: 100, misfetches: 10, mispredicts: 0 },
            ],
        }
    }

    #[test]
    fn clean_results_have_no_findings() {
        assert!(invariant_violations(&clean_result()).is_empty());
    }

    #[test]
    fn every_broken_identity_is_reported() {
        let mut r = clean_result();
        r.mispredicts = 2_000; // exceeds breaks AND breaks the kind sum
        let findings = invariant_violations(&r);
        assert!(findings.len() >= 2, "expected multiple findings: {findings:?}");
        assert!(findings.iter().any(|f| f.contains("exceed breaks")));
        assert!(findings.iter().any(|f| f.contains("by_kind mispredicts")));
    }

    #[test]
    fn unconditional_mispredicts_are_flagged() {
        let mut r = clean_result();
        // BreakKind::ALL order: Conditional, IndirectJump,
        // Unconditional, Call, Return.
        r.by_kind[2].mispredicts = 1;
        r.by_kind[0].mispredicts -= 1;
        let findings = invariant_violations(&r);
        assert!(findings.iter().any(|f| f.contains("Unconditional")), "{findings:?}");
    }

    #[test]
    fn icache_overflow_is_flagged() {
        let mut r = clean_result();
        r.icache.misses = r.icache.accesses + 1;
        assert!(invariant_violations(&r).iter().any(|f| f.contains("icache")));
    }

    #[test]
    fn agreement_holds_for_identical_conditionals() {
        let a = clean_result();
        let mut b = clean_result();
        b.engine = "128 direct BTB".into();
        b.misfetches = 300; // target misfetches may differ freely
        b.by_kind[1].misfetches = 80;
        assert!(pht_agreement_violations(&a, &b).is_empty());
    }

    #[test]
    fn conditional_divergence_is_flagged() {
        let a = clean_result();
        let mut b = clean_result();
        b.engine = "128 direct BTB".into();
        b.by_kind[0].mispredicts += 1;
        let findings = pht_agreement_violations(&a, &b);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("PHT disagreement"));
    }

    #[test]
    fn different_traces_are_not_compared() {
        let a = clean_result();
        let mut b = clean_result();
        b.instructions += 1;
        b.by_kind[0].mispredicts += 7; // would be flagged if compared
        let findings = pht_agreement_violations(&a, &b);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("different traces"));
    }
}
