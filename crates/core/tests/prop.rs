//! Property tests for the fetch engines: total, panic-free and
//! internally consistent on arbitrary (even incoherent) traces, and
//! exactly deterministic.
//!
//! Each property runs [`CASES`] cases; case `i` draws its inputs
//! from `Rng::new(i)`, and every assertion names its case, so a
//! failure replays from its index alone.

use nls_core::{EngineSpec, PenaltyModel};
use nls_icache::CacheConfig;
use nls_trace::rng::Rng;
use nls_trace::{Addr, BreakKind, TraceRecord};

const CASES: u64 = 48;

/// A record, sequential with weight 3 and each break kind with
/// weight 1.
fn arb_record(rng: &mut Rng) -> TraceRecord {
    let mut addr = || Addr::from_inst_index(rng.int(0..=199_999));
    let (pc, t) = (addr(), addr());
    match rng.int(0..=7) {
        0..=2 => TraceRecord::sequential(pc),
        3 => TraceRecord::branch(pc, BreakKind::Conditional, rng.chance(0.5), t),
        4 => TraceRecord::branch(pc, BreakKind::Unconditional, true, t),
        5 => TraceRecord::branch(pc, BreakKind::Call, true, t),
        6 => TraceRecord::branch(pc, BreakKind::Return, true, t),
        _ => TraceRecord::branch(pc, BreakKind::IndirectJump, true, t),
    }
}

/// Up to `max` records.
fn arb_records(rng: &mut Rng, max: u64) -> Vec<TraceRecord> {
    (0..rng.int(0..=max)).map(|_| arb_record(rng)).collect()
}

fn all_specs() -> Vec<EngineSpec> {
    vec![
        EngineSpec::btb(128, 1),
        EngineSpec::btb(256, 4),
        EngineSpec::nls_table(512),
        EngineSpec::nls_cache(2),
        EngineSpec::Johnson { preds_per_line: 2 },
    ]
}

#[test]
fn engines_are_total_and_consistent() {
    for case in 0..CASES {
        let rng = &mut Rng::new(case);
        let records = arb_records(rng, 499);
        let kb = [8u64, 16][rng.int(0..=1) as usize];
        let assoc = [1u32, 4][rng.int(0..=1) as usize];
        let cache = CacheConfig::paper(kb, assoc);
        let m = PenaltyModel::paper();
        for spec in all_specs() {
            let mut engine = spec.build(cache);
            let mut expected_breaks = 0u64;
            for r in &records {
                let out = engine.step(r);
                assert_eq!(out.is_some(), r.is_break(), "case {case}: {spec:?}");
                if r.is_break() {
                    expected_breaks += 1;
                }
            }
            let result = engine.result("prop");
            assert_eq!(result.instructions, records.len() as u64, "case {case}: {spec:?}");
            assert_eq!(result.breaks, expected_breaks, "case {case}: {spec:?}");
            assert!(
                result.misfetches + result.mispredicts <= result.breaks,
                "case {case}: {spec:?}"
            );
            assert!(result.icache.misses <= result.icache.accesses, "case {case}: {spec:?}");
            assert!(result.bep(&m) >= 0.0, "case {case}: {spec:?}");
            assert!(result.cpi(&m) >= 1.0, "case {case}: {spec:?}");
        }
    }
}

#[test]
fn engines_are_deterministic() {
    for case in 0..CASES {
        let records = arb_records(&mut Rng::new(case), 299);
        let cache = CacheConfig::paper(8, 2);
        for spec in all_specs() {
            let run = || {
                let mut engine = spec.build(cache);
                for r in &records {
                    engine.step(r);
                }
                engine.result("prop")
            };
            assert_eq!(run(), run(), "case {case}: {spec:?}");
        }
    }
}

#[test]
fn misfetch_and_mispredict_never_overlap_per_break() {
    for case in 0..CASES {
        let records = arb_records(&mut Rng::new(case), 299);
        // Step one record at a time and check each break adds at
        // most one penalty event across the two counters.
        let cache = CacheConfig::paper(8, 1);
        for spec in all_specs() {
            let mut engine = spec.build(cache);
            let mut prev = (0u64, 0u64);
            for (i, r) in records.iter().enumerate() {
                engine.step(r);
                let res = engine.result("prop");
                let now = (res.misfetches, res.mispredicts);
                let delta = (now.0 - prev.0) + (now.1 - prev.1);
                assert!(delta <= 1, "case {case}: {spec:?} record {i}: {delta} penalty events");
                if !r.is_break() {
                    assert_eq!(delta, 0, "case {case}: {spec:?} record {i}");
                }
                prev = now;
            }
        }
    }
}

#[test]
fn a_break_free_trace_has_zero_penalties() {
    for case in 0..CASES {
        let rng = &mut Rng::new(case);
        let pcs: Vec<u64> = (0..rng.int(1..=299)).map(|_| rng.int(0..=99_999)).collect();
        let cache = CacheConfig::paper(8, 1);
        for spec in all_specs() {
            let mut engine = spec.build(cache);
            for &i in &pcs {
                engine.step(&TraceRecord::sequential(Addr::from_inst_index(i)));
            }
            let r = engine.result("prop");
            assert_eq!(r.breaks, 0, "case {case}: {spec:?}");
            assert_eq!(r.misfetches, 0, "case {case}: {spec:?}");
            assert_eq!(r.mispredicts, 0, "case {case}: {spec:?}");
        }
    }
}
