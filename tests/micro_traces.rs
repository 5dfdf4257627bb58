//! Cross-crate integration: hand-crafted micro-traces with exactly
//! known misfetch/mispredict outcomes, driven through the public
//! facade. These pin the end-to-end semantics of the paper's
//! penalty accounting.

use nextline::core::{
    drive_records_supervised, Budget, Cell, EngineSpec, SimResult, BLOCK_RECORDS,
};
use nextline::icache::CacheConfig;
use nextline::trace::{Addr, BreakKind, TraceRecord};

fn seq(pc: u64) -> TraceRecord {
    TraceRecord::sequential(Addr::new(pc))
}

fn br(pc: u64, kind: BreakKind, taken: bool, target: u64) -> TraceRecord {
    TraceRecord::branch(Addr::new(pc), kind, taken, Addr::new(target))
}

/// Runs `trace` through one cell of `specs` on `cache`; one result per
/// spec, in order.
fn run(trace: &[TraceRecord], cache: CacheConfig, specs: &[EngineSpec]) -> Vec<SimResult> {
    let mut cell = Cell::new(cache, specs);
    let mut blocks = trace.chunks(BLOCK_RECORDS);
    let fill =
        |b: &mut Vec<TraceRecord>| b.extend_from_slice(blocks.next().unwrap_or_default());
    let stop = drive_records_supervised(fill, &mut cell, &Budget::unlimited());
    assert_eq!(stop, None, "an unlimited budget never stops a run");
    cell.results("micro")
}

/// The one result of `spec` alone on `cache`.
fn alone(trace: &[TraceRecord], cache: CacheConfig, spec: EngineSpec) -> SimResult {
    let mut results = run(trace, cache, &[spec]);
    assert_eq!(results.len(), 1);
    results.remove(0)
}

/// A tight loop: branch at 0x108 back to 0x100, three iterations,
/// then fall through.
fn loop_trace() -> Vec<TraceRecord> {
    let mut t = Vec::new();
    for i in 0..3 {
        t.push(seq(0x100));
        t.push(seq(0x104));
        t.push(br(0x108, BreakKind::Conditional, i < 2, 0x100));
    }
    t.push(seq(0x10c));
    t
}

#[test]
fn all_engines_agree_on_instruction_and_break_counts() {
    let trace = loop_trace();
    let specs = [
        EngineSpec::btb(128, 1),
        EngineSpec::nls_table(1024),
        EngineSpec::nls_cache(2),
        EngineSpec::Johnson { preds_per_line: 2 },
    ];
    let results = run(&trace, CacheConfig::paper(8, 1), &specs);
    assert_eq!(results.len(), specs.len());
    for r in &results {
        assert_eq!(r.instructions, trace.len() as u64, "{}", r.engine);
        assert_eq!(r.breaks, 3, "{}", r.engine);
        assert!(r.misfetches + r.mispredicts <= r.breaks, "{}", r.engine);
    }
}

#[test]
fn perfect_call_return_nesting_never_mispredicts_the_stack() {
    // call -> leaf -> return, repeated; after warmup every return is
    // predicted by the RAS.
    let mut trace = Vec::new();
    for _ in 0..50 {
        trace.push(br(0x100, BreakKind::Call, true, 0x2000));
        trace.push(seq(0x2000));
        trace.push(br(0x2004, BreakKind::Return, true, 0x104));
        trace.push(br(0x104, BreakKind::Unconditional, true, 0x100));
    }
    for spec in [EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)] {
        let r = alone(&trace, CacheConfig::paper(8, 1), spec);
        // Only cold-start misfetches; steady state is fully correct.
        assert!(r.mispredicts == 0, "{}: {} mispredicts", r.engine, r.mispredicts);
        assert!(r.misfetches <= 4, "{}: {} misfetches", r.engine, r.misfetches);
    }
}

#[test]
fn ras_overflow_costs_mispredicts() {
    // A call chain deeper than the 32-entry return stack: the
    // innermost 32 returns predict correctly, the outer ones pop
    // stale entries.
    let depth = 40u64;
    let mut trace = Vec::new();
    for i in 0..depth {
        // call site for level i lives at 0x100 + i*0x40
        trace.push(br(0x100 + i * 0x40, BreakKind::Call, true, 0x100 + (i + 1) * 0x40));
    }
    for i in (0..depth).rev() {
        let ret_pc = 0x100 + (i + 1) * 0x40;
        trace.push(br(ret_pc, BreakKind::Return, true, 0x100 + i * 0x40 + 4));
    }
    let r = alone(&trace, CacheConfig::paper(32, 1), EngineSpec::nls_table(4096));
    // 8 returns lost their stack entries (depth 40 vs capacity 32).
    assert!(r.mispredicts >= 8, "expected >= 8 overflow mispredicts, got {}", r.mispredicts);
}

#[test]
fn alternating_branch_is_learned_by_the_two_level_pht() {
    // T N T N ... : bimodal-style predictors ping-pong on this, the
    // paper's gshare learns it once the history warms up.
    let mut trace = Vec::new();
    for i in 0..600 {
        trace.push(br(0x100, BreakKind::Conditional, i % 2 == 0, 0x300));
        trace.push(seq(if i % 2 == 0 { 0x300 } else { 0x104 }));
        trace.push(br(
            if i % 2 == 0 { 0x304 } else { 0x108 },
            BreakKind::Unconditional,
            true,
            0xfc,
        ));
        trace.push(seq(0xfc));
    }
    let r = alone(&trace, CacheConfig::paper(8, 1), EngineSpec::nls_table(1024));
    let cond_mispredicts = r.mispredicts;
    assert!(
        cond_mispredicts < 60,
        "gshare should learn the alternating pattern: {cond_mispredicts} mispredicts of 600"
    );
}

#[test]
fn displacing_a_target_line_hurts_nls_but_not_btb() {
    let cache = CacheConfig::paper(8, 1);
    let target = 0x800u64;
    let conflicting = target + cache.size_bytes; // same cache set
    let branch = br(0x100, BreakKind::Unconditional, true, target);

    let trace = [
        // Warm up the predictor and the cache.
        branch,
        seq(target),
        branch,
        seq(target),
        // Displace the target line, then run the branch again.
        seq(conflicting),
        branch,
        seq(target),
    ];

    let nls = alone(&trace, cache, EngineSpec::nls_table(1024));
    let btb = alone(&trace, cache, EngineSpec::btb(128, 1));
    // Both misfetch once cold; the NLS also misfetches on the
    // displaced line (its pointer went stale), the BTB does not (it
    // re-fetches by full address and simply takes a cache miss).
    assert_eq!(btb.misfetches, 1, "BTB: only the cold misfetch");
    assert_eq!(nls.misfetches, 2, "NLS: cold + stale-pointer misfetch");
    assert_eq!(nls.mispredicts, 0);
}
