//! Supervised execution: every simulation entry point, made
//! cancellable, deadline-bounded and resource-accounted.
//!
//! Every run walks its benchmark's program through
//! [`run_cells_supervised`]: the cells of one benchmark share one walk,
//! and each cell keeps its own budget accounting, so its outcome is the
//! one it gets on a walk of its own ([`run_one_supervised`], the
//! one-cell case).
//!
//! Every drive loop polls a [`Budget`] (the unsupervised
//! [`run_one`](crate::run_one) and [`run_sweep`](crate::run_sweep)
//! poll [`Budget::unlimited`]), so a run that hits a wall-clock
//! deadline, a record limit, a heap budget or a [`CancelToken`] stops
//! *cooperatively* and still returns its partial counters as
//! [`Outcome::Degraded`]. Degraded metrics satisfy the same
//! accounting identities as complete ones (the counters are simply
//! those of a shorter trace), so the [`oracle`](crate::oracle)
//! validates them unchanged.
//!
//! [`install_signal_token`] connects SIGINT/SIGTERM to a
//! [`CancelToken`] with an async-signal-safe handler, which is how
//! the `nls` CLI and `repro_all` turn an interrupt into released
//! ledger leases and a dedicated exit code instead of a dead sweep.

use crate::budget::{Budget, CancelToken, StopReason};
use crate::front_end::{Cell, Cells};
use crate::metrics::SimResult;
use crate::sweep::{RunSpec, SweepConfig};

use nls_trace::{synthesize, BenchProfile, GenConfig, Program, TraceRecord, Walker};

/// What a supervised run produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The full trace was simulated.
    Complete(Vec<SimResult>),
    /// The run stopped early; the counters cover the records
    /// consumed before `reason` tripped and are internally
    /// consistent (oracle-valid) for that shorter trace.
    Degraded {
        /// One partial result per engine, in engine order.
        metrics_so_far: Vec<SimResult>,
        /// Which budget limit stopped the run.
        reason: StopReason,
    },
}

impl Outcome {
    /// The per-engine results, complete or partial.
    pub fn results(&self) -> &[SimResult] {
        match self {
            Outcome::Complete(results) => results,
            Outcome::Degraded { metrics_so_far, .. } => metrics_so_far,
        }
    }

    /// Consumes the outcome into its results, complete or partial.
    pub fn into_results(self) -> Vec<SimResult> {
        match self {
            Outcome::Complete(results) => results,
            Outcome::Degraded { metrics_so_far, .. } => metrics_so_far,
        }
    }

    /// True when the full trace was simulated.
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete(_))
    }

    /// The stop reason of a degraded outcome.
    pub fn stop_reason(&self) -> Option<&StopReason> {
        match self {
            Outcome::Complete(_) => None,
            Outcome::Degraded { reason, .. } => Some(reason),
        }
    }
}

/// Records per drive-loop block: the granularity at which the
/// batched loop polls the [`Budget`] and steps each running cell.
///
/// A multiple of [`DEADLINE_POLL_INTERVAL`](crate::budget::DEADLINE_POLL_INTERVAL),
/// so every block-boundary poll lands on a record count where the
/// scalar loop would also have read the wall clock; 4096 records is
/// small enough that a block of `TraceRecord`s (~128 KiB) stays
/// cache-resident while large enough that per-block overhead (the
/// poll, the walk's pass setup) is amortised to noise.
pub const BLOCK_RECORDS: usize = 4096;

/// One run fed by a block loop: its heap estimate and — once a
/// budget poll refuses the run — why it stopped.
struct Run {
    heap: u64,
    stop: Option<StopReason>,
}

impl Run {
    fn new(heap: u64) -> Self {
        Run { heap, stop: None }
    }
}

/// A run's results as complete, or degraded by `stop`.
fn outcome(results: Vec<SimResult>, stop: Option<StopReason>) -> Outcome {
    match stop {
        None => Outcome::Complete(results),
        Some(reason) => Outcome::Degraded { metrics_so_far: results, reason },
    }
}

/// The one supervised block loop behind every batched driver: `fill`
/// appends the next block of records to one reused, emptied buffer
/// (the contract is [`drive_records_supervised`]'s), and each block
/// goes once to `step_block`, with a flag per run that is set while
/// the run is still running. A run polls the budget with its own heap
/// estimate, so each run stops where it would have stopped alone (see
/// [`drive_records_supervised`]; a deadline, as ever, up to clock
/// timing); the source is not read again once every run has stopped.
fn drive_blocks(
    mut fill: impl FnMut(&mut Vec<TraceRecord>),
    runs: &mut [Run],
    budget: &Budget,
    mut step_block: impl FnMut(&[TraceRecord], &[bool]),
) {
    let mut running = vec![true; runs.len()];
    let mut block = Vec::with_capacity(BLOCK_RECORDS);
    let mut done: u64 = 0;
    loop {
        block.clear();
        fill(&mut block);
        if block.is_empty() {
            return;
        }
        for (run, on) in runs.iter_mut().zip(&mut running).filter(|(r, _)| r.stop.is_none()) {
            run.stop = budget.check(done, run.heap).err();
            *on = run.stop.is_none();
        }
        if !running.contains(&true) {
            return;
        }
        // The records that may run before the record limit lands.
        let left = budget.max_records().map_or(u64::MAX, |limit| limit.saturating_sub(done));
        let allowed = usize::try_from(left).unwrap_or(usize::MAX).min(block.len());
        let (now, rest) = block.split_at(allowed);
        step_block(now, &running);
        done += now.len() as u64;
        if !rest.is_empty() {
            // The record limit landed mid-block. Re-polling at the
            // stopping point keeps the scalar loop's priority order
            // (cancellation is observed before the record limit);
            // the fallback is unreachable — `allowed < len` only
            // happens when the limit binds at exactly `done` — but
            // keeps the path total.
            for run in runs.iter_mut().filter(|r| r.stop.is_none()) {
                let reason = budget.check(done, run.heap).err();
                run.stop = Some(reason.unwrap_or(StopReason::RecordLimit { limit: done }));
            }
            return;
        }
    }
}

/// Streams a record source through every engine of `cell` a block at
/// a time: `fill` appends the next [`BLOCK_RECORDS`] records to one
/// reused, emptied buffer — fewer only at the end of the stream, and
/// none once it has ended. Memory stays one block however long the
/// stream is: `nls replay` decodes its trace file straight into that
/// buffer with
/// [`TraceReader::fill_block`](nls_trace::TraceReader::fill_block),
/// and a caller holding a slice appends its chunks. The budget is
/// polled once per block, not once per record, and the cell takes each
/// block in one call.
///
/// Returns `None` when the stream was fully consumed, or the
/// [`StopReason`] that cut it short (the cell then holds the counters
/// of the records consumed so far). Stopping is bit-for-bit identical
/// to the scalar reference loop ([`drive_supervised_scalar`]): a record
/// limit still lands on the exact record, because the block straddling
/// it is split there, and a stream that ends on the record a limit
/// would land on completes, because a block is in hand before each
/// poll just as the scalar loop only ever polled with a record in
/// hand. The one sanctioned relaxation is deadline slack — the wall
/// clock is read at block rather than [`DEADLINE_POLL_INTERVAL`]
/// granularity, which full blocks keep aligned.
///
/// [`DEADLINE_POLL_INTERVAL`]: crate::budget::DEADLINE_POLL_INTERVAL
pub fn drive_records_supervised(
    fill: impl FnMut(&mut Vec<TraceRecord>),
    cell: &mut Cell,
    budget: &Budget,
) -> Option<StopReason> {
    let mut runs = [Run::new(cell.approx_heap_bytes())];
    drive_blocks(fill, &mut runs, budget, |block, _| cell.step_block(block));
    let [run] = runs;
    run.stop
}

/// The pre-batching reference loop: one budget poll per record, then
/// each cell steps the record ([`Cell`]'s per-record path, one real
/// cache access per record and cell, never a skipped probe). This is
/// the semantic specification the block path is differentially tested
/// against (every counter, outcome and stop reason must match); with
/// one spec per cell it steps each engine on a walk of its own. It is
/// not on any hot path.
pub fn drive_supervised_scalar<'a, I>(
    trace: I,
    cells: &mut [Cell],
    budget: &Budget,
) -> Option<StopReason>
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let heap = cells.iter().map(Cell::approx_heap_bytes).sum();
    for (done, r) in trace.into_iter().enumerate() {
        if let Err(reason) = budget.check(done as u64, heap) {
            return Some(reason);
        }
        for cell in cells.iter_mut() {
            cell.step(r);
        }
    }
    None
}

/// The program every run of `bench` walks.
pub(crate) fn synthesize_bench(bench: &BenchProfile) -> Program {
    synthesize(bench, &GenConfig::for_profile(bench))
}

/// Executes several cells of one benchmark over a single walk of
/// `program`, that benchmark's synthesised program: each block of the
/// trace is generated once and fed to every cell, and the cells share
/// one front end (`Cells`): the run scan, the PHTs and the BTBs are
/// simulated once for all of them, each cell's cache once for its
/// engines. Returns one [`Outcome`] per spec, in order, each equal to
/// what [`run_one_supervised`] returns for that cell alone. A cell
/// polls the budget with its own engines' heap estimate, so a heap
/// limit stops only the cells whose state exceeds it; the walk ends
/// when the trace does or every cell has stopped.
///
/// Every spec must name the benchmark `program` was synthesised from
/// — the cells share its trace.
pub fn run_cells_supervised(
    program: &Program,
    specs: &[&RunSpec],
    cfg: &SweepConfig,
    budget: &Budget,
) -> Vec<Outcome> {
    let mut cells = Cells::new(specs.iter().map(|s| (s.cache, s.engines.as_slice())));
    let mut runs: Vec<Run> = cells.heap_bytes().map(Run::new).collect();
    let mut walker = Walker::new(program, cfg.seed);
    let mut remaining = cfg.trace_len;
    let walk = |block: &mut Vec<TraceRecord>| {
        remaining -= walker.fill_block(block, BLOCK_RECORDS.min(remaining));
    };
    drive_blocks(walk, &mut runs, budget, |block, running| cells.step_block(block, running));
    cells
        .results(specs.iter().map(|s| s.bench.name))
        .into_iter()
        .zip(runs)
        .map(|(results, run)| outcome(results, run.stop))
        .collect()
}

/// Executes one run under `budget`: synthesises the workload, walks
/// up to `trace_len` records through every engine, and returns
/// [`Outcome::Complete`] — or [`Outcome::Degraded`] with the partial
/// per-engine counters when a limit trips first. The one-cell case of
/// [`run_cells_supervised`].
pub fn run_one_supervised(spec: &RunSpec, cfg: &SweepConfig, budget: &Budget) -> Outcome {
    let program = synthesize_bench(&spec.bench);
    one_outcome(run_cells_supervised(&program, &[spec], cfg, budget))
}

/// The outcome of a one-cell walk. The fallback for a walk that
/// returned none is unreachable, since a walk returns one outcome per
/// cell, but keeps the path total.
pub(crate) fn one_outcome(outcomes: Vec<Outcome>) -> Outcome {
    outcomes.into_iter().next().unwrap_or(Outcome::Complete(Vec::new()))
}

#[cfg(unix)]
static SIGNALLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Routes SIGINT and SIGTERM to a [`CancelToken`]: the first signal
/// flips the token and the supervised loops wind down cooperatively
/// (releasing their ledger leases on the way out) instead of dying
/// mid-write.
///
/// Installing is idempotent — every call returns a handle to the
/// same process-wide flag. On non-Unix targets this is a plain
/// token that no signal ever flips.
#[cfg(unix)]
pub fn install_signal_token() -> CancelToken {
    extern "C" fn on_signal(_signum: i32) {
        // A single atomic store is async-signal-safe; everything
        // else (ledger release, exit code) happens cooperatively
        // on the polling threads.
        SIGNALLED.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: libc's `signal` registers a handler that performs only
    // an async-signal-safe atomic store into a `'static` flag.
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
    CancelToken::from_static(&SIGNALLED)
}

/// See the Unix version; without signals this is an ordinary token.
#[cfg(not(unix))]
pub fn install_signal_token() -> CancelToken {
    CancelToken::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::invariant_violations;
    use crate::spec::EngineSpec;
    use crate::sweep::run_one;
    use nls_icache::CacheConfig;
    use nls_trace::BenchProfile;
    use std::time::Duration;

    fn spec() -> RunSpec {
        RunSpec {
            bench: BenchProfile::li(),
            cache: CacheConfig::paper(8, 1),
            engines: vec![EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)],
        }
    }

    fn cfg() -> SweepConfig {
        SweepConfig { trace_len: 60_000, seed: 7 }
    }

    #[test]
    fn unlimited_budget_reproduces_the_unsupervised_run() {
        let outcome = run_one_supervised(&spec(), &cfg(), &Budget::unlimited());
        assert!(outcome.is_complete());
        assert_eq!(outcome.stop_reason(), None);
        assert_eq!(outcome.results(), run_one(&spec(), &cfg()).as_slice());
    }

    #[test]
    fn record_limit_degrades_with_exactly_that_many_records() {
        let budget = Budget::unlimited().with_max_records(10_000);
        let outcome = run_one_supervised(&spec(), &cfg(), &budget);
        assert_eq!(outcome.stop_reason(), Some(&StopReason::RecordLimit { limit: 10_000 }));
        for r in outcome.results() {
            assert_eq!(r.instructions, 10_000);
            assert!(r.breaks > 0, "10k li records contain breaks");
        }
    }

    #[test]
    fn degraded_metrics_are_oracle_valid() {
        let budget = Budget::unlimited().with_max_records(7_777);
        let outcome = run_one_supervised(&spec(), &cfg(), &budget);
        assert!(!outcome.is_complete());
        for r in outcome.results() {
            let findings = invariant_violations(r);
            assert!(findings.is_empty(), "{findings:?}");
        }
    }

    #[test]
    fn degraded_prefix_matches_a_shorter_complete_run() {
        // Stopping at N records must leave the same counters as a
        // run whose trace_len was N all along: supervision only
        // truncates, never perturbs.
        let budget = Budget::unlimited().with_max_records(12_345);
        let degraded = run_one_supervised(&spec(), &cfg(), &budget);
        let short = SweepConfig { trace_len: 12_345, seed: cfg().seed };
        let complete = run_one_supervised(&spec(), &short, &Budget::unlimited());
        assert_eq!(degraded.results(), complete.results());
    }

    #[test]
    fn cancelled_token_stops_before_the_first_record() {
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let outcome = run_one_supervised(&spec(), &cfg(), &budget);
        assert_eq!(outcome.stop_reason(), Some(&StopReason::Cancelled));
        for r in outcome.results() {
            assert_eq!(r.instructions, 0);
            assert_eq!(r.breaks, 0);
        }
    }

    #[test]
    fn tiny_heap_budget_refuses_the_configuration_immediately() {
        let budget = Budget::unlimited().with_max_heap_bytes(16);
        let outcome = run_one_supervised(&spec(), &cfg(), &budget);
        match outcome.stop_reason() {
            Some(StopReason::HeapLimit { limit_bytes: 16, estimated_bytes }) => {
                assert!(*estimated_bytes > 16, "engines report real table sizes");
            }
            other => panic!("expected HeapLimit, got {other:?}"),
        }
        assert_eq!(outcome.results()[0].instructions, 0);
    }

    #[test]
    fn expired_deadline_degrades_not_panics() {
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        let outcome = run_one_supervised(&spec(), &cfg(), &budget);
        assert!(matches!(outcome.stop_reason(), Some(StopReason::DeadlineExceeded { .. })));
    }

    #[cfg(unix)]
    #[test]
    fn signal_token_observes_a_raised_sigint() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        let token = install_signal_token();
        // SAFETY: the handler installed above swallows the signal
        // with an atomic store, so raising it cannot kill the test
        // process.
        unsafe {
            raise(2);
        }
        assert!(token.is_cancelled(), "SIGINT must flip the token");
    }
}
