//! Differential tests for the batched execution path.
//!
//! The block-decoded drive loop ([`drive_records_supervised`]) and the
//! streaming walker loop ([`run_one_supervised`]) must be
//! *bit-for-bit* identical to the pre-batching scalar reference loop
//! ([`drive_supervised_scalar`]) stepping each engine in a cell of its
//! own: same per-engine counters, same per-kind breakdowns, same
//! icache statistics and same stop reasons, for every engine and for
//! every way a budget can cut a run short — including limits that land
//! in the middle of a block. Cells that share one walk
//! ([`run_cells_supervised`]) must in turn match the same cells run
//! alone ([`run_one_supervised`]), and a cell's engines on one shared
//! front end ([`Cell`]) must match each engine alone, stepped by the
//! scalar loop.

use nls_core::{
    cross, drive_records_supervised, drive_supervised_scalar, run_cells_supervised,
    run_one_supervised, Budget, CancelToken, Cell, EngineSpec, Outcome, PhtSpec, RunSpec,
    SimResult, StopReason, SweepConfig, BLOCK_RECORDS,
};
use nls_icache::CacheConfig;
use nls_trace::{synthesize, Addr, BenchProfile, BreakKind, GenConfig, TraceRecord, Walker};

/// Long enough for several full blocks plus a partial tail block.
const TRACE_LEN: usize = 3 * BLOCK_RECORDS + 1234;
const SEED: u64 = 0xd1ff;

/// `trace` as [`drive_records_supervised`]'s source: its
/// [`BLOCK_RECORDS`]-record chunks, one per block.
fn blocks(trace: &[TraceRecord]) -> impl FnMut(&mut Vec<TraceRecord>) + '_ {
    let mut chunks = trace.chunks(BLOCK_RECORDS);
    move |block| block.extend_from_slice(chunks.next().unwrap_or_default())
}

/// The fleet's cache.
fn cache() -> CacheConfig {
    CacheConfig::paper(8, 2)
}

fn bench() -> BenchProfile {
    BenchProfile::espresso()
}

fn program() -> nls_trace::Program {
    let bench = bench();
    synthesize(&bench, &GenConfig::for_profile(&bench))
}

fn trace(program: &nls_trace::Program) -> Vec<TraceRecord> {
    Walker::new(program, SEED).take_trace(TRACE_LEN)
}

fn cfg() -> SweepConfig {
    SweepConfig { trace_len: TRACE_LEN, seed: SEED }
}

/// One of every fetch architecture, including the NLS-table variant
/// with the decode-assist type predictor (which asks for every
/// record, so its cell's scan degenerates to the per-record loop).
fn fleet() -> Vec<EngineSpec> {
    vec![
        EngineSpec::btb(128, 2),
        EngineSpec::nls_table(1024),
        EngineSpec::nls_cache(2),
        EngineSpec::Johnson { preds_per_line: 2 },
        EngineSpec::NlsTable { entries: 1024, pht: PhtSpec::Gshare, type_table: Some(512) },
    ]
}

/// Each of `specs` in a cell of its own on `cache`: one walk per
/// engine.
fn alone(cache: CacheConfig, specs: &[EngineSpec]) -> Vec<Cell> {
    specs.iter().map(|spec| Cell::new(cache, std::slice::from_ref(spec))).collect()
}

/// The results of `cells`, in order, labelled with the fleet's
/// benchmark.
fn results(cells: &[Cell]) -> Vec<SimResult> {
    cells.iter().flat_map(|c| c.results(bench().name)).collect()
}

/// Runs the same trace through all three drive loops with fresh cells
/// and per-run budgets — the scalar loop over each engine alone, the
/// block loop over one cell of the fleet, the walker over the same
/// cell — asserting identical stop reasons and identical `SimResult`s
/// across all engines.
fn assert_paths_agree(budget_for: impl Fn() -> Budget) -> (Option<StopReason>, Vec<SimResult>) {
    let program = program();
    let trace = trace(&program);

    let mut scalar = alone(cache(), &fleet());
    let scalar_stop = drive_supervised_scalar(&trace, &mut scalar, &budget_for());

    let mut block = Cell::new(cache(), &fleet());
    let block_stop = drive_records_supervised(blocks(&trace), &mut block, &budget_for());

    let spec = RunSpec { bench: bench(), cache: cache(), engines: fleet() };
    let streamed = run_one_supervised(&spec, &cfg(), &budget_for());

    assert_eq!(block_stop, scalar_stop, "block stop reason diverged from scalar");
    assert_eq!(
        streamed.stop_reason(),
        scalar_stop.as_ref(),
        "walker stop reason diverged from scalar"
    );
    let want = results(&scalar);
    assert_eq!(block.results(bench().name), want, "block counters diverged from scalar");
    assert_eq!(streamed.results(), want.as_slice(), "walker counters diverged from scalar");
    (scalar_stop, want)
}

#[test]
fn unlimited_budget_is_bit_identical_across_paths() {
    let (stop, results) = assert_paths_agree(Budget::unlimited);
    assert_eq!(stop, None, "unlimited run must complete");
    for r in &results {
        assert_eq!(r.instructions, TRACE_LEN as u64, "{}", r.engine);
        assert!(r.breaks > 0, "{} saw no branches", r.engine);
    }
}

#[test]
fn record_limit_mid_block_stops_on_the_exact_record() {
    // 10_000 lands inside the third block (not on a block boundary):
    // the block straddling the limit must be split at the record.
    let limit = 10_000u64;
    assert!(!(limit as usize).is_multiple_of(BLOCK_RECORDS), "limit must land mid-block");
    let (stop, results) = assert_paths_agree(|| Budget::unlimited().with_max_records(limit));
    assert_eq!(stop, Some(StopReason::RecordLimit { limit }));
    for r in &results {
        assert_eq!(r.instructions, limit, "{} overran the record limit", r.engine);
    }
}

#[test]
fn record_limit_at_trace_end_is_a_complete_run() {
    // The scalar loop only polls with a record in hand, so a limit
    // that binds exactly where the trace ends never trips.
    let (stop, results) =
        assert_paths_agree(|| Budget::unlimited().with_max_records(TRACE_LEN as u64));
    assert_eq!(stop, None);
    for r in &results {
        assert_eq!(r.instructions, TRACE_LEN as u64);
    }
}

#[test]
fn cancelled_token_stops_before_the_first_record_on_every_path() {
    // SIGINT-style cancellation: the token is already set when the
    // drive loop starts (the signal handler path flips the same
    // token asynchronously).
    let (stop, results) = assert_paths_agree(|| {
        let token = CancelToken::new();
        token.cancel();
        Budget::unlimited().with_cancel(token)
    });
    assert_eq!(stop, Some(StopReason::Cancelled));
    for r in &results {
        assert_eq!(r.instructions, 0, "{} ran after cancellation", r.engine);
    }
}

#[test]
fn tiny_heap_budget_trips_before_the_first_record_on_every_path() {
    let (stop, results) = assert_paths_agree(|| Budget::unlimited().with_max_heap_bytes(16));
    assert!(
        matches!(stop, Some(StopReason::HeapLimit { .. })),
        "expected a heap stop, got {stop:?}"
    );
    for r in &results {
        assert_eq!(r.instructions, 0);
    }
}

#[test]
fn expired_deadline_degrades_identically() {
    let (stop, results) =
        assert_paths_agree(|| Budget::unlimited().with_deadline(std::time::Duration::ZERO));
    assert!(
        matches!(stop, Some(StopReason::DeadlineExceeded { .. })),
        "expected a deadline stop, got {stop:?}"
    );
    for r in &results {
        assert_eq!(r.instructions, 0, "{} ran past an expired deadline", r.engine);
    }
}

#[test]
fn degraded_block_prefix_matches_a_shorter_complete_run() {
    // A run cut short at N records must leave exactly the state of a
    // complete run over the first N records — for the block path as
    // for the scalar one.
    let limit = 2 * BLOCK_RECORDS + 777;
    let program = program();
    let trace = trace(&program);

    let mut capped = Cell::new(cache(), &fleet());
    let stop = drive_records_supervised(
        blocks(&trace),
        &mut capped,
        &Budget::unlimited().with_max_records(limit as u64),
    );
    assert_eq!(stop, Some(StopReason::RecordLimit { limit: limit as u64 }));

    let mut short = Cell::new(cache(), &fleet());
    let Some(prefix) = trace.get(..limit) else {
        panic!("trace shorter than the limit");
    };
    let stop = drive_records_supervised(blocks(prefix), &mut short, &Budget::unlimited());
    assert_eq!(stop, None);
    assert_eq!(capped.results(bench().name), short.results(bench().name));
}

/// Instructions per iteration of each region's inner loop: 117
/// iterations fill a block but for its last record
/// (117 × 35 = `BLOCK_RECORDS` − 1).
const LOOP_LEN: u64 = 35;

/// A hand-built program whose every block ends on a taken break whose
/// successor opens the next block on the break's target line. Each
/// block runs one region's inner loop (34 sequential instructions
/// and a conditional back-edge, not taken on the last iteration),
/// then leaves through the region's exit break, so the exit's
/// predictor update is still pending when its block ends and must
/// commit on the next block's first record, ahead of a same-line
/// sequential run. The regions chain main → call → function → return
/// → main → jump → indirect jump → conditional → main, three times
/// over. `bases` are the region entry points other than the return
/// point: `[main, function, jump target, indirect target]`.
fn boundary_trace(bases: [u64; 4]) -> Vec<TraceRecord> {
    let [main, function, jumped, indirect] = bases;
    let exit_of = |base: u64| base + 4 * LOOP_LEN;
    let resume = exit_of(main) + 4;
    let chain = [
        (main, BreakKind::Call, function),
        (function, BreakKind::Return, resume),
        (resume, BreakKind::Unconditional, jumped),
        (jumped, BreakKind::IndirectJump, indirect),
        (indirect, BreakKind::Conditional, main),
    ];
    let mut trace = Vec::new();
    for _ in 0..3 {
        for &(base, kind, target) in &chain {
            let iterations = (BLOCK_RECORDS as u64 - 1) / LOOP_LEN;
            for it in 0..iterations {
                for i in 0..LOOP_LEN - 1 {
                    trace.push(TraceRecord::sequential(Addr::new(base + 4 * i)));
                }
                let back_edge = Addr::new(base + 4 * (LOOP_LEN - 1));
                let again = it + 1 < iterations;
                trace.push(TraceRecord::branch(
                    back_edge,
                    BreakKind::Conditional,
                    again,
                    Addr::new(base),
                ));
            }
            trace.push(TraceRecord::branch(
                Addr::new(exit_of(base)),
                kind,
                true,
                Addr::new(target),
            ));
        }
    }
    trace
}

#[test]
fn a_pending_commit_crosses_the_block_boundary_identically() {
    // Two layouts under the fleet's 8K 2-way cache (128 sets of
    // 32-byte lines): regions in distinct sets, so the committed
    // pointers stay valid and decide later fetches; and every region
    // in set 0, so most block-opening fetches also refill a frame
    // while the commit is pending.
    for bases in [[0x1000, 0x8800, 0x3200, 0x5400], [0x1000, 0x8000, 0x3000, 0x5000]] {
        let trace = boundary_trace(bases);
        assert_eq!(trace.len() % BLOCK_RECORDS, 0, "whole blocks only");
        for (prev, next) in trace.chunks(BLOCK_RECORDS).zip(trace.chunks(BLOCK_RECORDS).skip(1))
        {
            let (Some(last), Some(first)) = (prev.last(), next.first()) else {
                panic!("empty block");
            };
            assert!(last.is_break() && last.taken, "a block must end on a taken break");
            assert_eq!(first.pc, last.target, "the next block must open on the target");
            assert!(!first.is_break(), "the target must start a sequential run");
        }

        // The scalar loop and the block loop over each engine alone,
        // and the block loop over one cell of them all.
        let mut scalar = alone(cache(), &fleet());
        assert_eq!(drive_supervised_scalar(&trace, &mut scalar, &Budget::unlimited()), None);
        let mut block = alone(cache(), &fleet());
        for cell in &mut block {
            let stop = drive_records_supervised(blocks(&trace), cell, &Budget::unlimited());
            assert_eq!(stop, None);
        }
        let mut streamed = Cell::new(cache(), &fleet());
        let stop =
            drive_records_supervised(blocks(&trace), &mut streamed, &Budget::unlimited());
        assert_eq!(stop, None);

        let want = results(&scalar);
        assert_eq!(results(&block), want, "block counters diverged from scalar at {bases:x?}");
        assert_eq!(
            streamed.results(bench().name),
            want,
            "stream counters diverged from scalar at {bases:x?}"
        );
        for r in &want {
            assert_eq!(r.instructions, trace.len() as u64, "{}", r.engine);
        }
    }
}

/// The paper's four fetch engines.
fn paper_engines() -> Vec<EngineSpec> {
    vec![
        EngineSpec::btb(128, 1),
        EngineSpec::nls_table(1024),
        EngineSpec::nls_cache(2),
        EngineSpec::Johnson { preds_per_line: 2 },
    ]
}

/// Two benchmarks × three caches, benchmark-major.
fn grid() -> Vec<RunSpec> {
    let caches =
        [CacheConfig::paper(8, 1), CacheConfig::paper(16, 1), CacheConfig::paper(32, 4)];
    cross(&[BenchProfile::li(), BenchProfile::espresso()], &caches, &paper_engines())
}

/// Four cells of one benchmark that share a walk but not their
/// engines: two BTBs and two PHT flavours spread over different
/// positions, a cell with no BTB, and, first, so that its runs would
/// be the ones a single shared scan takes, a cell with 64-byte lines.
fn disagreeing_cells() -> Vec<RunSpec> {
    let bench = BenchProfile::gcc();
    let cell = |cache, engines| RunSpec { bench: bench.clone(), cache, engines };
    vec![
        cell(CacheConfig::new(8192, 64, 2), paper_engines()),
        cell(
            CacheConfig::paper(8, 1),
            vec![EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)],
        ),
        cell(
            CacheConfig::paper(16, 2),
            vec![
                EngineSpec::btb(256, 4),
                EngineSpec::NlsTable { entries: 1024, pht: PhtSpec::Bimodal, type_table: None },
                EngineSpec::Johnson { preds_per_line: 2 },
            ],
        ),
        cell(CacheConfig::paper(32, 4), vec![EngineSpec::nls_cache(2)]),
    ]
}

/// Runs each benchmark's cells over one shared walk and every cell
/// alone, each under a fresh budget, and asserts identical outcomes:
/// the grid's two benchmarks (its outcomes first, in grid order),
/// then [`disagreeing_cells`].
fn assert_shared_walk_matches_single_runs(budget_for: impl Fn() -> Budget) -> Vec<Outcome> {
    let cfg = SweepConfig { trace_len: TRACE_LEN, seed: SEED };
    let grid = grid();
    let disagreeing = disagreeing_cells();
    let walks: Vec<&[RunSpec]> = grid.chunks(3).chain([disagreeing.as_slice()]).collect();
    let runs: Vec<&RunSpec> = walks.iter().copied().flatten().collect();
    let mut shared = Vec::new();
    for cells in walks {
        let Some(first) = cells.first() else { panic!("empty benchmark") };
        let program = synthesize(&first.bench, &GenConfig::for_profile(&first.bench));
        let specs: Vec<&RunSpec> = cells.iter().collect();
        shared.extend(run_cells_supervised(&program, &specs, &cfg, &budget_for()));
    }
    let alone: Vec<Outcome> =
        runs.iter().map(|run| run_one_supervised(run, &cfg, &budget_for())).collect();
    assert_eq!(shared.len(), runs.len(), "one outcome per cell");
    for ((run, s), a) in runs.iter().zip(&shared).zip(&alone) {
        assert_eq!(s, a, "{} diverged when it shared its walk", run.key());
    }
    shared
}

#[test]
fn a_shared_walk_reproduces_every_cell_run_alone() {
    for outcome in assert_shared_walk_matches_single_runs(Budget::unlimited) {
        assert!(outcome.is_complete());
        for r in outcome.results() {
            assert_eq!(r.instructions, TRACE_LEN as u64, "{}", r.engine);
        }
    }
}

#[test]
fn a_shared_walk_stops_every_cell_on_a_mid_block_record_limit() {
    let limit = (BLOCK_RECORDS + 321) as u64;
    let outcomes =
        assert_shared_walk_matches_single_runs(|| Budget::unlimited().with_max_records(limit));
    for outcome in outcomes {
        assert_eq!(outcome.stop_reason(), Some(&StopReason::RecordLimit { limit }));
        for r in outcome.results() {
            assert_eq!(r.instructions, limit, "{} overran the record limit", r.engine);
        }
    }
}

#[test]
fn a_shared_walk_honours_a_pre_cancelled_token_and_an_expired_deadline() {
    let cancelled = assert_shared_walk_matches_single_runs(|| {
        let token = CancelToken::new();
        token.cancel();
        Budget::unlimited().with_cancel(token)
    });
    let expired = assert_shared_walk_matches_single_runs(|| {
        Budget::unlimited().with_deadline(std::time::Duration::ZERO)
    });
    for outcome in &cancelled {
        assert_eq!(outcome.stop_reason(), Some(&StopReason::Cancelled));
    }
    for outcome in &expired {
        assert!(matches!(outcome.stop_reason(), Some(StopReason::DeadlineExceeded { .. })));
    }
    for outcome in cancelled.iter().chain(&expired) {
        for r in outcome.results() {
            assert_eq!(r.instructions, 0, "{} ran after the budget tripped", r.engine);
        }
    }
}

#[test]
fn a_heap_limit_splits_a_walk_whose_cells_disagree() {
    // The paper engines' estimate at 8K direct admits the paper
    // engines on 64-byte lines, the BTB and NLS-table pair at 8K and
    // the lone NLS-cache at 32K:4, and refuses the 16K:2 cell, whose
    // 256-entry BTB the walk still steps for the others.
    let limit = Cell::new(CacheConfig::paper(8, 1), &paper_engines()).approx_heap_bytes();
    let outcomes = assert_shared_walk_matches_single_runs(|| {
        Budget::unlimited().with_max_heap_bytes(limit)
    });
    let mixed = outcomes.get(grid().len()..).unwrap_or_default();
    let refused: Vec<bool> = mixed.iter().map(|o| !o.is_complete()).collect();
    assert_eq!(refused, [false, false, true, false]);
}

#[test]
fn a_heap_limit_refuses_only_the_cells_whose_state_exceeds_it() {
    // The limit admits exactly the 8K cell's engines, so in each
    // benchmark's claim the 8K cell completes while the 16K and
    // 32K:4 cells beside it on the same walk are refused.
    let heap_of = |cache: CacheConfig| Cell::new(cache, &paper_engines()).approx_heap_bytes();
    let limit = heap_of(CacheConfig::paper(8, 1));
    assert!(heap_of(CacheConfig::paper(32, 4)) > limit, "32K:4 must need more state");
    let outcomes = assert_shared_walk_matches_single_runs(|| {
        Budget::unlimited().with_max_heap_bytes(limit)
    });
    for (run, outcome) in grid().iter().zip(&outcomes) {
        if run.cache == CacheConfig::paper(8, 1) {
            assert!(outcome.is_complete(), "{} must fit the heap limit", run.key());
        } else {
            assert!(
                matches!(outcome.stop_reason(), Some(StopReason::HeapLimit { .. })),
                "{} must be refused: {:?}",
                run.key(),
                outcome.stop_reason()
            );
            for r in outcome.results() {
                assert_eq!(r.instructions, 0);
            }
        }
    }
}

/// Runs `specs` as one [`Cell`] — over the walk of
/// [`run_one_supervised`] and over the record stream of
/// [`drive_records_supervised`] — and each in a cell of its own
/// through the scalar reference loop, each under a fresh budget;
/// asserts identical stop reasons and results.
fn assert_cell_matches_engines_alone(
    specs: &[EngineSpec],
    budget_for: impl Fn() -> Budget,
) -> (Option<StopReason>, Vec<SimResult>) {
    let program = program();
    let trace = trace(&program);

    let mut scalar = alone(cache(), specs);
    let stop = drive_supervised_scalar(&trace, &mut scalar, &budget_for());
    let want = results(&scalar);

    let spec = RunSpec { bench: bench(), cache: cache(), engines: specs.to_vec() };
    let walked = run_one_supervised(&spec, &cfg(), &budget_for());
    assert_eq!(walked.stop_reason(), stop.as_ref(), "walked cell stop diverged from scalar");
    assert_eq!(walked.results(), want.as_slice(), "walked cell diverged from scalar");

    let mut cell = Cell::new(cache(), specs);
    let streamed = drive_records_supervised(blocks(&trace), &mut cell, &budget_for());
    assert_eq!(streamed, stop, "streamed cell stop diverged from scalar");
    assert_eq!(cell.results(bench().name), want, "streamed cell diverged from scalar");
    (stop, want)
}

/// [`assert_cell_matches_engines_alone`] under every kind of budget:
/// none, a mid-block record limit, a pre-cancelled token, an expired
/// deadline and a heap limit one byte short of the cell's estimate.
/// Returns the unlimited run's results.
fn assert_cell_matches_engines_alone_under_every_budget(
    specs: &[EngineSpec],
) -> Vec<SimResult> {
    let (stop, unlimited) = assert_cell_matches_engines_alone(specs, Budget::unlimited);
    assert_eq!(stop, None);
    assert!(unlimited.iter().all(|r| r.instructions == TRACE_LEN as u64));

    let limit = 10_000u64;
    let (stop, results) = assert_cell_matches_engines_alone(specs, || {
        Budget::unlimited().with_max_records(limit)
    });
    assert_eq!(stop, Some(StopReason::RecordLimit { limit }));
    assert!(results.iter().all(|r| r.instructions == limit));

    let (stop, _) = assert_cell_matches_engines_alone(specs, || {
        let token = CancelToken::new();
        token.cancel();
        Budget::unlimited().with_cancel(token)
    });
    assert_eq!(stop, Some(StopReason::Cancelled));

    let (stop, _) = assert_cell_matches_engines_alone(specs, || {
        Budget::unlimited().with_deadline(std::time::Duration::ZERO)
    });
    assert!(matches!(stop, Some(StopReason::DeadlineExceeded { .. })), "{stop:?}");

    // One byte short of the engines' summed estimate: the cell must
    // report the same total as the engines alone.
    let heap: u64 = alone(cache(), specs).iter().map(Cell::approx_heap_bytes).sum();
    assert_eq!(Cell::new(cache(), specs).approx_heap_bytes(), heap);
    let (stop, results) = assert_cell_matches_engines_alone(specs, || {
        Budget::unlimited().with_max_heap_bytes(heap - 1)
    });
    assert_eq!(
        stop,
        Some(StopReason::HeapLimit { limit_bytes: heap - 1, estimated_bytes: heap })
    );
    assert!(results.iter().all(|r| r.instructions == 0));
    unlimited
}

#[test]
fn a_cell_of_the_paper_engines_matches_each_engine_alone_under_every_budget() {
    let results = assert_cell_matches_engines_alone_under_every_budget(&paper_engines());
    assert!(results.iter().all(|r| r.breaks > 0));
}

#[test]
fn a_cell_whose_engines_mix_four_phts_matches_each_engine_alone() {
    // The four PHTs of the PHT ablation, Johnson without one, and two
    // BTBs that read the gshare PHT with the gshare NLS-table; then
    // the 128-entry direct BTB under both not-taken policies side by
    // side, which must not share one BTB, and the NLS table with the
    // three type tables of the type-predictor extension.
    let mut specs: Vec<EngineSpec> =
        [PhtSpec::Gshare, PhtSpec::GlobalOnly, PhtSpec::Bimodal, PhtSpec::Tournament]
            .into_iter()
            .map(|pht| EngineSpec::NlsTable { entries: 1024, pht, type_table: None })
            .collect();
    specs.extend([
        EngineSpec::Johnson { preds_per_line: 2 },
        EngineSpec::btb(128, 1),
        EngineSpec::btb(256, 4),
        EngineSpec::Btb { entries: 128, assoc: 1, pht: PhtSpec::Gshare, evict_not_taken: true },
    ]);
    specs.extend([1024, 4096, 16384].map(|entries| EngineSpec::NlsTable {
        entries: 1024,
        pht: PhtSpec::Gshare,
        type_table: Some(entries),
    }));
    let results = assert_cell_matches_engines_alone_under_every_budget(&specs);
    let mispredicts: Vec<u64> = results.iter().take(4).map(|r| r.mispredicts).collect();
    assert!(
        mispredicts.iter().any(|&m| m != mispredicts[0]),
        "different PHTs must predict differently: {mispredicts:?}"
    );
    let (keep, evict) = (&results[5], &results[7]);
    assert_eq!(evict.engine, "128 direct BTB (evict-NT)");
    assert_ne!(
        (keep.misfetches, keep.mispredicts),
        (evict.misfetches, evict.mispredicts),
        "the two not-taken policies must fetch differently"
    );
    let predecode = &results[0];
    for typed in &results[8..] {
        assert_eq!(typed.engine, "1024 NLS table");
        assert_ne!(typed.misfetches, predecode.misfetches, "a type table costs bubbles");
    }
}
