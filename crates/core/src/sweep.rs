//! The simulation driver: single runs and parallel configuration
//! sweeps.
//!
//! One *run* walks a synthetic workload once and feeds every record
//! to a group of engines (they are independent consumers, so trace
//! generation is amortised across architectures). A *sweep* executes
//! many runs — (benchmark × cache configuration) pairs — across
//! threads with deterministic result ordering.
//!
//! Every sweep runs on a work ledger, with one claim loop, retry
//! policy, budget rule and merge: [`run_sweep_supervised`] runs
//! [`run_ledger_worker`] threads over a ledger held in memory or, over
//! a [`LedgerFile`], durably; `nls sweep --ledger` and `nls serve` run
//! the same worker in their processes.
//!
//! # Trace sharing
//!
//! A run's trace depends only on its benchmark, trace length and
//! seed, so a sweep amortises generation across caches too. Workers
//! claim by one rule ([`claim_len`]): the next ⌈claimable / executors⌉
//! runs, cut where the benchmark changes and before the claim's summed
//! engine state passes a mebibyte, simulated over one synthesis and
//! one walk ([`run_cells_supervised`]). So workers take whole
//! benchmarks while many runs remain and single runs at the tail, and
//! every run's results equal those of the run alone. A worker also
//! keeps the last benchmark's program for its next claim.
//!
//! # Fault tolerance and supervision
//!
//! A claim whose engine panics is caught with
//! [`std::panic::catch_unwind`] and retried run by run, so the
//! panicking run fails alone; it spends one ledger attempt per failure
//! and is reported as [`RunError::Panicked`] once they are spent.
//! Every run loop polls a [`Budget`]: workers stop claiming once it
//! trips, and a run it stops is released with its attempt refunded and
//! merges, like every run that never started, as
//! [`RunError::Interrupted`]. Only complete outcomes enter a ledger, so
//! a resumed durable sweep is bit-for-bit identical to an uninterrupted
//! one. The unsupervised entry points run under [`Budget::unlimited`].

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use nls_icache::CacheConfig;
use nls_trace::{BenchProfile, Program};

use crate::budget::{Budget, CancelToken, StopReason};
use crate::error::{NlsError, RunError};
use crate::ledger::{
    self, CellState, ClaimOutcome, Heartbeat, Ledger, LedgerFile, DEFAULT_LEASE_MS,
    DEFAULT_MAX_ATTEMPTS,
};
use crate::metrics::SimResult;
use crate::spec::EngineSpec;
use crate::supervisor::{
    one_outcome, run_cells_supervised, run_one_supervised, synthesize_bench, Outcome,
};

/// Default dynamic trace length for paper-scale experiments.
pub const DEFAULT_TRACE_LEN: usize = 8_000_000;

/// Global sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Dynamic instructions per run.
    pub trace_len: usize,
    /// Walker RNG seed (program synthesis has its own per-profile
    /// seed in [`GenConfig`](nls_trace::GenConfig)).
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { trace_len: DEFAULT_TRACE_LEN, seed: 0x0b5e_55ed }
    }
}

/// Extra tries a ledger worker grants a run whose engine panics within
/// one ledger attempt, so a run is tried `1 + MAX_RETRIES` times on its
/// own before the attempt is recorded as failed (and
/// [`RunError::Panicked`] counts ledger attempts). A run that first
/// panics inside a walk it shares with other runs (see *Trace sharing*
/// in the module docs) then gets these tries alone: the shared try is
/// an extra one. Retries cost one full re-simulation each; they only
/// help against nondeterministic failures.
const MAX_RETRIES: u32 = 1;

/// One (workload, cache, engines) simulation unit.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload profile.
    pub bench: BenchProfile,
    /// The instruction-cache geometry every engine in this run uses.
    pub cache: CacheConfig,
    /// The fetch architectures to drive over the trace.
    pub engines: Vec<EngineSpec>,
}

impl RunSpec {
    /// The run's stable identity, its ledger cell key:
    /// `bench | cache | engine-key(+engine-key...)`. Two specs
    /// produce the same key exactly when they simulate the same
    /// thing, so results in a ledger can be reused across
    /// processes. The format is part of the ledger schema.
    pub fn key(&self) -> String {
        let engines: Vec<String> = self.engines.iter().map(EngineSpec::key).collect();
        format!("{} | {} | {}", self.bench.name, self.cache.label(), engines.join("+"))
    }

    /// The approximate bytes of engine state simulating this run
    /// holds — what its cell reports to the heap budget — computed
    /// from the specs, without building them.
    pub(crate) fn state_bytes(&self) -> u64 {
        self.engines.iter().map(|e| e.state_bytes(&self.cache)).sum()
    }
}

/// Executes one run: synthesises the workload, walks `trace_len`
/// records, feeds every engine, and returns one result per engine
/// (in `engines` order).
pub fn run_one(spec: &RunSpec, cfg: &SweepConfig) -> Vec<SimResult> {
    run_one_supervised(spec, cfg, &Budget::unlimited()).into_results()
}

/// Renders a caught panic payload (the `&str` / `String` payloads
/// `panic!` produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes one run under `catch_unwind`, tried up to
/// `1 + max_retries` times; `Err` is the last panic's message.
fn attempt_run(mut run: impl FnMut() -> Outcome, max_retries: u32) -> Result<Outcome, String> {
    let mut last = String::new();
    // nls-lint: allow(cancellation-reach): bounded by the retry budget (1 + max_retries); each attempt's run loop polls the budget itself
    for _ in 0..=max_retries {
        // AssertUnwindSafe: on panic the engines and trace state of
        // this attempt are dropped wholesale, so no torn state is
        // observable afterwards.
        match catch_unwind(AssertUnwindSafe(&mut run)) {
            Ok(outcome) => return Ok(outcome),
            Err(payload) => last = panic_message(payload.as_ref()),
        }
    }
    Err(last)
}

/// Executes one claim — cells of one benchmark — with `run_cells`,
/// which simulates the cells it is given over one walk and returns one
/// outcome per cell. A claim of several cells that panics is retried
/// cell by cell, each cell on a walk of its own tried `1 + max_retries`
/// times (the shared attempt is not counted), so a panicking cell fails
/// alone, with its last panic's message, and its neighbours complete.
fn attempt_claim(
    claim: &[&RunSpec],
    max_retries: u32,
    mut run_cells: impl FnMut(&[&RunSpec]) -> Vec<Outcome>,
) -> Vec<Result<Outcome, String>> {
    if claim.len() > 1 {
        // AssertUnwindSafe: as in `attempt_run`, a panicking walk
        // drops all of its state.
        if let Ok(outcomes) = catch_unwind(AssertUnwindSafe(|| run_cells(claim))) {
            return outcomes.into_iter().map(Ok).collect();
        }
    }
    claim
        .iter()
        .map(|&spec| attempt_run(|| one_outcome(run_cells(&[spec])), max_retries))
        .collect()
}

/// How a ledger worker simulates a claim: the cells of one benchmark
/// over one walk, given the worker's last program ([`program_for`]).
type ClaimRunner<'a> =
    dyn Fn(&mut Option<(BenchProfile, Program)>, &[&RunSpec]) -> Vec<Outcome> + Sync + 'a;

/// The [`ClaimRunner`] of every sweep: [`run_cells_supervised`] over
/// the program of the claim's benchmark, which its first cell names.
fn simulate_claim(
    kept: &mut Option<(BenchProfile, Program)>,
    claim: &[&RunSpec],
    cfg: &SweepConfig,
    budget: &Budget,
) -> Vec<Outcome> {
    match claim.first() {
        Some(first) => {
            run_cells_supervised(program_for(kept, &first.bench), claim, cfg, budget)
        }
        None => Vec::new(),
    }
}

/// The most engine state one claim may hold, in the approximate bytes
/// the heap budget counts ([`RunSpec::state_bytes`]). A claim
/// simulates its cells side by side, so it holds every cell's cache
/// and predictor arrays at once. One mebibyte keeps each benchmark of
/// the paper's figures one claim (about half a mebibyte of state
/// each), and cuts a benchmark of a 24-geometry grid (about 3.5 MiB)
/// into several claims, so a worker's memory does not grow with the
/// number of geometries.
pub(crate) const CLAIM_STATE_BYTES: u64 = 1 << 20;

/// The claim rule of every ledger worker ([`run_ledger_worker`]): how
/// many cells the next claim takes. `pending` lists the claimable cells
/// in claim order, each as its benchmark and its state estimate. A
/// claim is the next ⌈claimable / executors⌉ of them, cut where the
/// benchmark changes and before the claim's summed state passes
/// [`CLAIM_STATE_BYTES`], and never fewer than one cell. While many cells remain, a claim is
/// a whole benchmark — one synthesis and one walk for all its cells —
/// unless its state is too large, and near the end claims shrink to
/// single cells, so no executor idles while another finishes a large
/// claim.
pub(crate) fn claim_len<B: PartialEq>(
    pending: impl ExactSizeIterator<Item = (B, u64)>,
    executors: usize,
) -> usize {
    let want = pending.len().div_ceil(executors.max(1));
    let mut cells = pending.take(want);
    let Some((first, mut held)) = cells.next() else { return 0 };
    1 + cells
        .take_while(|(bench, bytes)| {
            held = held.saturating_add(*bytes);
            *bench == first && held <= CLAIM_STATE_BYTES
        })
        .count()
}

/// The claim rule over a ledger's claimable keys, each looked up in
/// `index`, which maps every key of the sweep to its run: the range of
/// `keys` to claim. Cells whose state `budget`'s heap limit refuses are
/// skipped, and a claim ends before the next one, so a refused cell
/// never keeps a worker from the cells after it. A key with no run of
/// this sweep counts as holding no state, and foreign keys claim apart
/// from the sweep's own cells.
///
/// # Errors
///
/// The heap limit's stop reason when it refuses every claimable cell.
pub(crate) fn ledger_claim(
    keys: &[&str],
    index: &BTreeMap<String, &RunSpec>,
    budget: &Budget,
    workers: usize,
) -> Result<Range<usize>, StopReason> {
    let cell = |key: &&str| match index.get(*key) {
        Some(run) => (Some(&run.bench), run.state_bytes()),
        None => (None, 0),
    };
    let cells: Vec<_> = keys.iter().map(cell).collect();
    let refused = |&(_, bytes): &(_, u64)| budget.check_heap(bytes).err();
    let Some(start) = cells.iter().position(|c| refused(c).is_none()) else {
        return cells.first().and_then(refused).map_or(Ok(0..0), Err);
    };
    let rest = cells.get(start..).unwrap_or_default();
    let fits = rest.iter().take_while(|c| refused(c).is_none()).count();
    Ok(start..start + claim_len(rest.iter().take(fits).copied(), workers))
}

/// How many executors a sweep of `cells` cells runs: the available
/// parallelism (4 when it is unknown), at most one per cell and never
/// fewer than one. In-process sweeps run this many ledger worker
/// threads, and `nls sweep --ledger` this many worker processes unless
/// told otherwise.
pub fn executor_count(cells: usize) -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(cells.max(1))
}

/// The fully supervised sweep: panic isolation, bounded retry and a
/// caller-owned [`Budget`]. [`executor_count`] threads run
/// [`run_ledger_worker`] over a ledger held in memory (with the default
/// lease and attempts) or over `ledger`, which the caller has
/// [`init`](LedgerFile::init)ed, fresh or resumed: then every finished
/// run is published as it completes, and a resumed sweep reproduces an
/// uninterrupted one bit-for-bit. The outcomes are merged from the
/// ledger ([`merge_ledger_outcomes`]): each run's results, or
/// `Err(RunError::Interrupted)` with the stop reason for a run the
/// budget stopped or kept from starting (its partial metrics are never
/// returned), or `Err(RunError::Panicked)` for a run that spent its
/// attempts.
///
/// # Errors
///
/// A worker's error other than [`NlsError::Interrupted`] (a ledger
/// failure, exit code 8, or a worker thread that panicked), or a
/// failed compaction.
pub fn run_sweep_supervised(
    runs: &[RunSpec],
    cfg: &SweepConfig,
    budget: &Budget,
    ledger: Option<&LedgerFile>,
) -> Result<Vec<Result<Vec<SimResult>, RunError>>, NlsError> {
    let in_memory;
    let file = match ledger {
        Some(file) => file,
        None => {
            let keys = runs.iter().map(RunSpec::key);
            let fresh = Ledger::new(cfg, DEFAULT_LEASE_MS, DEFAULT_MAX_ATTEMPTS, keys);
            in_memory = LedgerFile::in_memory(fresh);
            &in_memory
        }
    };
    sweep_over(runs, budget, file, MAX_RETRIES, &|kept, claim| {
        simulate_claim(kept, claim, cfg, budget)
    })
}

/// The one sweep executor behind [`run_sweep_supervised`]: ledger
/// workers ([`work_ledger`]) on [`executor_count`] threads, each claim
/// simulated by `run_cells` at `max_retries`, then the compacted
/// ledger merged in run order. An unfinished cell carries the first
/// stop reason a worker returned. Fault-injection tests pass their own
/// `run_cells`.
fn sweep_over(
    runs: &[RunSpec],
    budget: &Budget,
    file: &LedgerFile,
    max_retries: u32,
    run_cells: &ClaimRunner<'_>,
) -> Result<Vec<Result<Vec<SimResult>, RunError>>, NlsError> {
    let workers = executor_count(runs.len());
    let errors: Vec<NlsError> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let id = format!("{}-t{i}", std::process::id());
                scope.spawn(move || {
                    work_ledger(runs, budget, file, &id, workers, max_retries, run_cells)
                })
            })
            .collect();
        let joined = handles.into_iter().map(|handle| handle.join());
        joined
            .filter_map(|report| match report {
                Ok(report) => report.err(),
                Err(payload) => Some(NlsError::Run(RunError::Panicked {
                    run: "a ledger worker thread".to_string(),
                    message: panic_message(payload.as_ref()),
                    attempts: 1,
                })),
            })
            .collect()
    });
    let ledger = file.compact(&CancelToken::new())?;
    let stopped = errors.iter().find_map(|e| match e {
        NlsError::Interrupted(reason) => Some(reason.clone()),
        _ => None,
    });
    if let Some(e) = errors.into_iter().find(|e| !matches!(e, NlsError::Interrupted(_))) {
        return Err(e);
    }
    let merged = merge_ledger_outcomes(runs, &ledger).into_iter();
    Ok(merged
        .map(|outcome| match (outcome, &stopped) {
            (Err(RunError::Interrupted { run, .. }), Some(reason)) => {
                Err(RunError::Interrupted { run, reason: reason.clone() })
            }
            (outcome, _) => outcome,
        })
        .collect())
}

/// One worker's execution summary from a ledger-coordinated sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Cells this worker completed and published.
    pub completed: usize,
    /// Claims this worker made; each claims one or more cells.
    pub claims: usize,
    /// Cells this worker claimed after another worker's lease on them
    /// expired (attempt number above 1).
    pub reclaimed: usize,
    /// Attempts this worker burned on panicking runs.
    pub failed_attempts: usize,
}

/// The program `bench` walks: `kept` when it holds that benchmark's,
/// otherwise a fresh synthesis, stored in `kept` after the old program
/// is dropped — so at most one program is alive at a time.
fn program_for<'k>(
    kept: &'k mut Option<(BenchProfile, Program)>,
    bench: &BenchProfile,
) -> &'k Program {
    if kept.as_ref().is_some_and(|(kept_bench, _)| kept_bench != bench) {
        *kept = None;
    }
    &kept.get_or_insert_with(|| (bench.clone(), synthesize_bench(bench))).1
}

/// One worker's share of a ledger-coordinated sweep (a thread of
/// [`run_sweep_supervised`], an `nls sweep --ledger` worker process,
/// or a serve job): claim cells of one benchmark by the sweep's claim
/// rule, sized for `workers` workers sharing the ledger, simulate the
/// claim over one walk under `budget` while one [`Heartbeat`] renews
/// all of its leases, publish every cell's outcome in one ledger
/// update, and repeat until the ledger drains. Consecutive claims of
/// one benchmark walk one synthesised program.
///
/// Leases, attempts, backoff and the heap budget stay per cell. Per
/// the supervision contract, a tripped budget or cancellation returns
/// [`NlsError::Interrupted`] (exit code 7) with the stop reason, after
/// releasing any held lease: a cell the budget stopped is released
/// with its attempt refunded, in the same update that publishes the
/// claim's other cells. A panicking claim is retried cell by cell
/// (`MAX_RETRIES` retries each); a cell that still panics consumes one
/// of its attempts, recorded with the panic's message, and the worker
/// moves on. A cell whose lease is lost
/// mid-run (this process was presumed dead) discards its results —
/// whoever reclaimed it republishes the identical bits, so the merged
/// sweep stays deterministic.
pub fn run_ledger_worker(
    runs: &[RunSpec],
    cfg: &SweepConfig,
    budget: &Budget,
    file: &LedgerFile,
    worker: &str,
    workers: usize,
) -> Result<WorkerReport, NlsError> {
    let run_cells = |kept: &mut _, claim: &[&RunSpec]| simulate_claim(kept, claim, cfg, budget);
    work_ledger(runs, budget, file, worker, workers, MAX_RETRIES, &run_cells)
}

/// [`run_ledger_worker`] with each claim simulated by `run_cells` at
/// `max_retries`.
fn work_ledger(
    runs: &[RunSpec],
    budget: &Budget,
    file: &LedgerFile,
    worker: &str,
    workers: usize,
    max_retries: u32,
    run_cells: &ClaimRunner<'_>,
) -> Result<WorkerReport, NlsError> {
    let cancel = budget.cancel_token();
    let mut report = WorkerReport::default();
    let index: BTreeMap<String, &RunSpec> = runs.iter().map(|run| (run.key(), run)).collect();
    // The last benchmark's program, walked again when the next claim
    // is of the same benchmark.
    let mut kept: Option<(BenchProfile, Program)> = None;
    loop {
        if let Err(reason) = budget.check_now() {
            return Err(NlsError::Interrupted(reason.to_string()));
        }
        // Stamped before the claim, so a write that lands after the
        // claim's read cannot slip past the wait below.
        let seen = file.stamp();
        let mut refused = None;
        let claimed = file.claim(&cancel, worker, |keys| {
            ledger_claim(keys, &index, budget, workers).unwrap_or_else(|reason| {
                refused = Some(reason);
                0..0
            })
        })?;
        if let Some(reason) = refused {
            // The heap limit refuses every claimable cell: it stops
            // them, as it would stop each in its run.
            return Err(NlsError::Interrupted(reason.to_string()));
        }
        let (key, attempt, lease_ms, more) = match claimed {
            ClaimOutcome::Drained => return Ok(report),
            ClaimOutcome::Wait { until_ms } => {
                // Nothing claimable until a lease expires, a
                // backoff gate passes, or another worker writes
                // the ledger (a completion, release, or renewal):
                // claim again at the first of these.
                let _ = file.wait_for_change(seen, until_ms, &cancel);
                continue;
            }
            ClaimOutcome::Claimed { key, attempt, lease_ms, more } => {
                (key, attempt, lease_ms, more)
            }
        };
        report.claims += 1;
        let cells: Vec<(String, u64)> = std::iter::once((key, attempt)).chain(more).collect();
        report.reclaimed += cells.iter().filter(|&&(_, attempt)| attempt > 1).count();
        let keys: Vec<String> = cells.into_iter().map(|(key, _)| key).collect();
        let specs: Vec<&RunSpec> = keys.iter().filter_map(|k| index.get(k).copied()).collect();
        if let Some(foreign) = keys.iter().find(|k| !index.contains_key(*k)) {
            // A manifest mismatch is fatal to this worker, but the
            // claim must not be stranded until its leases expire: give
            // the cells back first so a correctly-configured worker can
            // pick them up.
            let _ = file.update(&CancelToken::new(), |l| {
                let now = ledger::now_ms();
                keys.iter().for_each(|key| {
                    l.release(key, worker, now);
                });
            });
            return Err(NlsError::Ledger(format!(
                "ledger cell {foreign:?} does not correspond to any run of this sweep"
            )));
        }
        let hb = Heartbeat::start_all(file, &keys, worker, lease_ms, &cancel);
        // The program is fetched inside each attempt, so a panic there
        // is isolated like any other.
        let outcomes = attempt_claim(&specs, max_retries, |claim| run_cells(&mut kept, claim));
        hb.stop();
        // Published under a fresh token: once the cells' fates are
        // known, publishing them must not be abandoned by a
        // cancellation race (the lock wait is bounded regardless).
        // `Ledger::complete` is self-guarding: it publishes only while
        // this worker still holds the cell's lease, so results whose
        // lease was lost mid-run are discarded inside the ledger.
        let mut degraded = None;
        let (completed, failed) = file.update(&CancelToken::new(), |l| {
            let now = ledger::now_ms();
            let (mut completed, mut failed) = (0, 0);
            for (key, outcome) in keys.iter().zip(outcomes) {
                match outcome {
                    Ok(Outcome::Complete(results)) => {
                        completed += usize::from(l.complete(key, worker, results));
                    }
                    Ok(Outcome::Degraded { reason, .. }) => {
                        // Cooperative withdrawal: the cell goes back
                        // with its attempt refunded.
                        l.release(key, worker, now);
                        degraded.get_or_insert(reason);
                    }
                    Err(panic) => {
                        failed += 1;
                        l.record_failure(key, worker, now, &panic);
                    }
                }
            }
            (completed, failed)
        })?;
        report.completed += completed;
        report.failed_attempts += failed;
        if let Some(reason) = degraded {
            // The budget tripped: surface the interruption (exit 7 at
            // the CLI boundary).
            return Err(NlsError::Interrupted(reason.to_string()));
        }
    }
}

/// Folds a drained ledger back into run-order outcomes — the shape
/// [`run_sweep_supervised`] returns — so `--workers N` output is
/// assembled deterministically from the ledger, independent of which
/// worker ran which cell and in what order: a `Done` cell's results, a
/// `Failed` cell as [`RunError::Panicked`] with its last error and
/// spent attempts, and an unfinished cell as [`RunError::Interrupted`].
pub fn merge_ledger_outcomes(
    runs: &[RunSpec],
    ledger: &Ledger,
) -> Vec<Result<Vec<SimResult>, RunError>> {
    runs.iter()
        .map(|r| {
            let key = r.key();
            match ledger.state(&key) {
                Some(CellState::Done { results }) => Ok(results.clone()),
                Some(CellState::Failed { attempts, error }) => Err(RunError::Panicked {
                    run: key,
                    message: error.clone(),
                    attempts: u32::try_from(*attempts).unwrap_or(u32::MAX),
                }),
                Some(CellState::Pending { .. } | CellState::Leased { .. }) | None => {
                    Err(RunError::Interrupted {
                        run: key,
                        reason: "cell was never completed (workers stopped early)".to_string(),
                    })
                }
            }
        })
        .collect()
}

/// Executes `runs` across threads. Results are returned flattened in
/// run order (then engine order within each run), independent of
/// scheduling.
///
/// # Panics
///
/// Panics if any run still fails after the default retry budget —
/// the legacy all-or-nothing contract. Use [`run_sweep_supervised`]
/// to handle per-run failures.
pub fn run_sweep(runs: &[RunSpec], cfg: &SweepConfig) -> Vec<SimResult> {
    let cells =
        run_sweep_supervised(runs, cfg, &Budget::unlimited(), None).and_then(|outcomes| {
            outcomes.into_iter().collect::<Result<Vec<_>, _>>().map_err(NlsError::Run)
        });
    match cells {
        Ok(cells) => cells.concat(),
        // nls-lint: allow(no-panic): documented all-or-nothing contract of the legacy entry point
        Err(e) => panic!("{e}"),
    }
}

/// The cross product of benchmarks × cache configurations, each with
/// the same engine list — the shape of every figure in the paper.
pub fn cross(
    benches: &[BenchProfile],
    caches: &[CacheConfig],
    engines: &[EngineSpec],
) -> Vec<RunSpec> {
    let mut runs = Vec::with_capacity(benches.len() * caches.len());
    // nls-lint: allow(cancellation-reach): bounded by the grid dimensions; pure construction
    for bench in benches {
        for &cache in caches {
            runs.push(RunSpec { bench: bench.clone(), cache, engines: engines.to_vec() });
        }
    }
    runs
}

/// The six cache configurations of the paper's figures: 8/16/32 KB,
/// direct-mapped and 4-way.
pub fn paper_caches() -> Vec<CacheConfig> {
    let mut v = Vec::new();
    // nls-lint: allow(cancellation-reach): six fixed configurations; pure construction
    for kb in [8, 16, 32] {
        for assoc in [1, 4] {
            v.push(CacheConfig::paper(kb, assoc));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{CancelToken, StopReason};

    fn small_cfg() -> SweepConfig {
        SweepConfig { trace_len: 60_000, seed: 7 }
    }

    /// The claims `threads` sweep threads make over `pending` (the
    /// unclaimed cells' benchmarks), as `(start, len)` ranges in
    /// claim order.
    fn claims(pending: &[usize], threads: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < pending.len() {
            let len = claim_len(pending[start..].iter().map(|&bench| (bench, 0)), threads);
            assert!(len > 0, "a claim over pending cells takes at least one");
            out.push((start, len));
            start += len;
        }
        out
    }

    #[test]
    fn claims_take_every_cell_once_and_never_span_two_benchmarks() {
        // Benchmark-major grids: 1×6, 6×6, and 6×6 with cells already
        // done (holes) left out of the pending list, as a resumed
        // ledger leaves them out of its claimable keys.
        let holes = [0, 1, 7, 12, 13, 14, 15, 16, 17, 20, 35];
        let grids: [Vec<usize>; 3] = [
            vec![0; 6],
            (0..36).map(|i| i / 6).collect(),
            (0..36).filter(|i| !holes.contains(i)).map(|i| i / 6).collect(),
        ];
        for pending in &grids {
            for threads in 1..=8 {
                let claims = claims(pending, threads);
                let mut next = 0;
                for &(start, len) in &claims {
                    assert_eq!(start, next, "claims are contiguous and disjoint");
                    let bench = pending[start];
                    assert!(
                        pending[start..start + len].iter().all(|&b| b == bench),
                        "claim {start}+{len} spans two benchmarks at {threads} threads"
                    );
                    next = start + len;
                }
                assert_eq!(next, pending.len(), "every cell is claimed");
            }
        }
    }

    #[test]
    fn claims_are_whole_benchmarks_until_the_tail() {
        let paper: Vec<usize> = (0..36).map(|i| i / 6).collect();
        let lens = |threads| -> Vec<usize> {
            claims(&paper, threads).into_iter().map(|(_, len)| len).collect()
        };
        assert_eq!(lens(1), [6; 6], "one thread walks each benchmark once");
        assert_eq!(lens(2), [6, 6, 6, 6, 6, 3, 2, 1], "eight walks at two threads");
        assert_eq!(claim_len(std::iter::empty::<(usize, u64)>(), 4), 0);
    }

    /// The four engines of the benchmark's sweeps.
    fn four_engines() -> Vec<EngineSpec> {
        vec![
            EngineSpec::btb(128, 1),
            EngineSpec::nls_table(1024),
            EngineSpec::nls_cache(2),
            EngineSpec::Johnson { preds_per_line: 2 },
        ]
    }

    /// The claims `threads` sweep threads make over `runs`.
    fn run_claims(runs: &[RunSpec], threads: usize) -> Vec<&[RunSpec]> {
        let mut out = Vec::new();
        let mut rest = runs;
        while !rest.is_empty() {
            let len = claim_len(rest.iter().map(|r| (&r.bench, r.state_bytes())), threads);
            let (claim, tail) = rest.split_at(len);
            out.push(claim);
            rest = tail;
        }
        out
    }

    fn state(claim: &[RunSpec]) -> u64 {
        claim.iter().map(RunSpec::state_bytes).sum()
    }

    #[test]
    fn a_runs_state_estimate_is_the_heap_its_cell_reports() {
        let caches =
            [CacheConfig::paper(4, 1), CacheConfig::paper(32, 4), CacheConfig::paper(128, 8)];
        for run in cross(&[BenchProfile::li()], &caches, &four_engines()) {
            let cell = crate::Cell::new(run.cache, &run.engines);
            assert_eq!(run.state_bytes(), cell.approx_heap_bytes(), "{}", run.key());
        }
    }

    #[test]
    fn at_two_threads_the_paper_grids_claims_are_whole_benchmarks() {
        let runs = cross(&BenchProfile::all(), &paper_caches(), &four_engines());
        let claims = run_claims(&runs, 2);
        let lens: Vec<usize> = claims.iter().map(|c| c.len()).collect();
        assert_eq!(lens, [6, 6, 6, 6, 6, 3, 2, 1], "the state bound never cuts a paper claim");
        for claim in &claims[..5] {
            assert!(state(claim) <= CLAIM_STATE_BYTES, "{}", state(claim));
        }
    }

    #[test]
    fn the_24_geometry_grids_claims_stop_at_the_state_bound() {
        let caches: Vec<CacheConfig> = [4, 8, 16, 32, 64, 128]
            .into_iter()
            .flat_map(|kb| [1, 2, 4, 8].map(|assoc| CacheConfig::paper(kb, assoc)))
            .collect();
        let runs = cross(&BenchProfile::all(), &caches, &four_engines());
        let claims = run_claims(&runs, 2);
        let mut at = 0;
        for claim in &claims {
            assert!(claim.len() == 1 || state(claim) <= CLAIM_STATE_BYTES, "{}", state(claim));
            let want = (runs.len() - at).div_ceil(2);
            at += claim.len();
            // A claim that ends inside its benchmark, short of its count
            // bound, ends because the next cell would pass the state
            // bound.
            if let Some(next) = runs.get(at) {
                if next.bench == claim[0].bench && claim.len() < want {
                    assert!(state(claim) + next.state_bytes() > CLAIM_STATE_BYTES);
                }
            }
        }
        assert!(claims.len() > 12, "{} claims: the bound cuts benchmarks", claims.len());
    }

    #[test]
    fn one_worker_appends_a_claim_and_a_publish_line_per_benchmark() {
        let path = scratch_path("journal-lines.json");
        let runs = cross(
            &[BenchProfile::li(), BenchProfile::gcc()],
            &[CacheConfig::paper(8, 1), CacheConfig::paper(8, 4), CacheConfig::paper(16, 1)],
            &[EngineSpec::nls_table(512)],
        );
        let cfg = small_cfg();
        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg, 30_000, 3, runs.iter().map(RunSpec::key)), false)
            .expect("fresh ledger");
        let snapshot = std::fs::read_to_string(&path).expect("readable");
        let report = run_ledger_worker(&runs, &cfg, &Budget::unlimited(), &file, "w0", 1)
            .expect("the worker drains the ledger");
        assert_eq!((report.completed, report.claims, report.reclaimed), (6, 2, 0));
        let text = std::fs::read_to_string(&path).expect("readable");
        let journal = text.strip_prefix(snapshot.as_str()).expect("the snapshot is kept");
        assert_eq!(journal.lines().count(), 4, "{journal}");
        let merged: Vec<SimResult> =
            merge_ledger_outcomes(&runs, &file.read(&CancelToken::new()).expect("readable"))
                .into_iter()
                .map(|r| r.expect("every cell done"))
                .collect::<Vec<_>>()
                .concat();
        assert_eq!(merged, run_sweep(&runs, &cfg));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_heap_limit_releases_the_refused_cells_of_a_claim_and_publishes_the_rest() {
        let path = scratch_path("heap-limit.json");
        let runs = cross(
            &[BenchProfile::li()],
            &[CacheConfig::paper(8, 1), CacheConfig::paper(128, 4)],
            &[EngineSpec::nls_table(512)],
        );
        let (small, large) = (&runs[0], &runs[1]);
        assert!(small.state_bytes() < large.state_bytes());
        let cfg = small_cfg();
        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg, 30_000, 3, runs.iter().map(RunSpec::key)), false)
            .expect("fresh ledger");
        let budget = Budget::unlimited().with_max_heap_bytes(small.state_bytes());
        let err = run_ledger_worker(&runs, &cfg, &budget, &file, "w0", 1)
            .expect_err("a refused cell interrupts the worker");
        assert_eq!(err.exit_code(), 7, "{err}");
        let ledger = file.read(&CancelToken::new()).expect("readable");
        assert_eq!(
            ledger.state(&small.key()),
            Some(&CellState::Done { results: run_one(small, &cfg) }),
            "the claim's other cell publishes"
        );
        assert!(
            matches!(ledger.state(&large.key()), Some(CellState::Pending { attempts: 0, .. })),
            "the refused cell is released with its attempt refunded: {:?}",
            ledger.state(&large.key())
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_panicking_claim_is_retried_cell_by_cell_with_full_budgets() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let runs = cross(&[BenchProfile::li()], &paper_caches(), &[EngineSpec::nls_table(512)]);
        let specs: Vec<&RunSpec> = runs.iter().collect();
        let poisoned = runs[1].key();
        for max_retries in [0, 2] {
            let solo_attempts = AtomicU32::new(0);
            let run_cells = |claim: &[&RunSpec]| -> Vec<Outcome> {
                if claim.iter().any(|r| r.key() == poisoned) {
                    if claim.len() == 1 {
                        solo_attempts.fetch_add(1, Ordering::Relaxed);
                    }
                    panic!("injected failure");
                }
                claim.iter().map(|_| Outcome::Complete(Vec::new())).collect()
            };
            let outcomes = attempt_claim(&specs, max_retries, run_cells);
            assert_eq!(outcomes.len(), runs.len());
            for (run, outcome) in runs.iter().zip(&outcomes) {
                match outcome {
                    Err(message) => {
                        assert_eq!(run.key(), poisoned, "only the panicking cell fails");
                        assert_eq!(message, "injected failure", "its last panic's message");
                    }
                    Ok(o) => assert!(o.is_complete(), "{} must complete", run.key()),
                }
            }
            assert_eq!(solo_attempts.load(Ordering::Relaxed), 1 + max_retries);
        }
    }

    fn scratch_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("nls-sweep-ledger-test")
            .join(format!("p{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn a_ledger_worker_keeps_one_program_and_replaces_it_per_benchmark() {
        let mut kept = None;
        let li = program_for(&mut kept, &BenchProfile::li()) as *const Program;
        let again = program_for(&mut kept, &BenchProfile::li()) as *const Program;
        assert_eq!(li, again, "the next cell of the same benchmark reuses the program");
        let gcc = program_for(&mut kept, &BenchProfile::gcc());
        assert_eq!(gcc, &synthesize_bench(&BenchProfile::gcc()), "replaced by gcc's own");
        assert_eq!(kept.as_ref().map(|(bench, _)| bench.name), Some("gcc"));
    }

    #[test]
    fn run_one_produces_one_result_per_engine() {
        let spec = RunSpec {
            bench: BenchProfile::li(),
            cache: CacheConfig::paper(8, 1),
            engines: vec![EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)],
        };
        let results = run_one(&spec, &small_cfg());
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].engine, "128 direct BTB");
        assert_eq!(results[1].engine, "1024 NLS table");
        for r in &results {
            assert_eq!(r.instructions, 60_000);
            assert!(r.breaks > 5_000, "li is branch dense: {}", r.breaks);
            assert!(r.misfetches + r.mispredicts < r.breaks);
        }
    }

    #[test]
    fn sweep_matches_sequential_runs_and_preserves_order() {
        let runs = cross(
            &[BenchProfile::li(), BenchProfile::espresso()],
            &[CacheConfig::paper(8, 1), CacheConfig::paper(8, 4)],
            &[EngineSpec::nls_table(512)],
        );
        let cfg = small_cfg();
        let parallel = run_sweep(&runs, &cfg);
        let sequential: Vec<SimResult> = runs.iter().flat_map(|r| run_one(r, &cfg)).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn paper_caches_are_six() {
        let caches = paper_caches();
        assert_eq!(caches.len(), 6);
        assert_eq!(caches[0].label(), "8K direct");
        assert_eq!(caches[5].label(), "32K 4-way");
    }

    /// The in-memory sweep of `runs` with every claim simulated by
    /// `run`, each run given `1 + max_retries` ledger attempts and tried
    /// alone once per attempt: the executor of every sweep, with a fault
    /// injected wherever `run` panics.
    fn sweep_injected(
        runs: &[RunSpec],
        max_retries: u32,
        run: impl Fn(&mut Option<(BenchProfile, Program)>, &[&RunSpec]) -> Vec<Outcome> + Sync,
    ) -> Vec<Result<Vec<SimResult>, RunError>> {
        let attempts = 1 + u64::from(max_retries);
        let keys = runs.iter().map(RunSpec::key);
        let file = LedgerFile::in_memory(Ledger::new(&small_cfg(), 30_000, attempts, keys));
        sweep_over(runs, &Budget::unlimited(), &file, 0, &run)
            .expect("an in-memory sweep merges")
    }

    #[test]
    fn a_panicking_run_is_isolated_and_reported() {
        let runs = cross(
            &[BenchProfile::li(), BenchProfile::espresso()],
            &[CacheConfig::paper(8, 1)],
            &[EngineSpec::nls_table(512)],
        );
        let cfg = small_cfg();
        let outcomes = sweep_injected(&runs, 2, |kept, claim| {
            if let Some(spec) = claim.iter().find(|spec| spec.bench.name == "li") {
                panic!("injected failure for {}", spec.bench.name);
            }
            simulate_claim(kept, claim, &cfg, &Budget::unlimited())
        });
        assert_eq!(outcomes.len(), 2);
        match &outcomes[0] {
            Err(RunError::Panicked { run, message, attempts }) => {
                assert!(run.contains("li"));
                assert!(message.contains("injected failure"));
                assert_eq!(*attempts, 3, "1 initial + 2 retries, one try per ledger attempt");
            }
            other => panic!("expected the li run to fail, got {other:?}"),
        }
        let espresso = outcomes[1].as_ref().expect("espresso must survive li's panic");
        assert_eq!(espresso, &run_one(&runs[1], &cfg));
    }

    #[test]
    fn a_sweep_tries_a_panicking_run_alone_exactly_one_plus_max_retries_times() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let runs = cross(&[BenchProfile::li()], &paper_caches(), &[EngineSpec::nls_table(512)]);
        let poisoned = runs[2].key();
        for max_retries in [0, 2] {
            // Each run counts the attempts that simulated it: alone, or
            // in a shared walk that did not panic. A shared walk that
            // panics is the extra attempt the retry budget leaves out.
            let calls: Vec<AtomicU32> = runs.iter().map(|_| AtomicU32::new(0)).collect();
            let outcomes = sweep_injected(&runs, max_retries, |_, claim| {
                let hit = claim.iter().any(|spec| spec.key() == poisoned);
                if !hit || claim.len() == 1 {
                    for spec in claim {
                        let i = runs.iter().position(|r| r.key() == spec.key()).expect("a run");
                        calls[i].fetch_add(1, Ordering::Relaxed);
                    }
                }
                if hit {
                    panic!("injected failure");
                }
                claim.iter().map(|_| Outcome::Complete(Vec::new())).collect()
            });
            for ((run, outcome), calls) in runs.iter().zip(&outcomes).zip(&calls) {
                let want = if run.key() == poisoned { 1 + max_retries } else { 1 };
                assert_eq!(calls.load(Ordering::Relaxed), want, "{}", run.key());
                assert_eq!(outcome.is_err(), run.key() == poisoned);
            }
        }
    }

    #[test]
    fn sweep_with_a_panicking_engine_completes_every_other_run() {
        let runs = cross(
            &[BenchProfile::li(), BenchProfile::espresso(), BenchProfile::gcc()],
            &[CacheConfig::paper(8, 1), CacheConfig::paper(8, 4)],
            &[EngineSpec::nls_table(512)],
        );
        let cfg = SweepConfig { trace_len: 40_000, seed: 11 };
        // The injected engine dies on exactly one (bench, cache) pair,
        // and so does every shared walk that holds it.
        let outcomes = sweep_injected(&runs, 0, |kept, claim| {
            if claim.iter().any(|r| r.bench.name == "espresso" && r.cache.label() == "8K 4-way")
            {
                panic!("injected: predictor table index out of bounds");
            }
            simulate_claim(kept, claim, &cfg, &Budget::unlimited())
        });

        assert_eq!(outcomes.len(), runs.len());
        let failed: Vec<usize> =
            outcomes.iter().enumerate().filter(|(_, o)| o.is_err()).map(|(i, _)| i).collect();
        assert_eq!(failed.len(), 1, "exactly the injected run fails");
        assert_eq!(runs[failed[0]].key(), "espresso | 8K 4-way | nls-table512/gshare");

        // Every surviving run matches an undisturbed sequential run.
        for (i, outcome) in outcomes.iter().enumerate() {
            if let Ok(results) = outcome {
                assert_eq!(results, &run_one(&runs[i], &cfg));
            }
        }
    }

    #[test]
    fn run_errors_surface_through_the_taxonomy() {
        let runs = cross(
            &[BenchProfile::li()],
            &[CacheConfig::paper(8, 1)],
            &[EngineSpec::nls_table(512)],
        );
        let outcomes = sweep_injected(&runs, 1, |_, _| -> Vec<Outcome> {
            panic!("synthetic engine defect")
        });
        let err = outcomes.into_iter().next().unwrap().unwrap_err();
        assert!(matches!(err, RunError::Panicked { attempts: 2, .. }), "{err:?}");
        assert_eq!(
            err.to_string(),
            "run li | 8K direct | nls-table512/gshare panicked after 2 attempt(s): \
             synthetic engine defect",
            "the note names the panic once"
        );
        let nls: NlsError = err.into();
        assert_eq!(nls.exit_code(), 4);
        assert!(nls.to_string().contains("synthetic engine defect"));
    }

    #[test]
    fn run_keys_identify_the_simulation() {
        let runs = cross(
            &[BenchProfile::li()],
            &[CacheConfig::paper(8, 1)],
            &[EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)],
        );
        assert_eq!(runs[0].key(), "li | 8K direct | btb128x1/gshare+nls-table1024/gshare");
    }

    #[test]
    fn drive_feeds_every_engine() {
        use crate::supervisor::drive_records_supervised;
        use nls_trace::{Addr, TraceRecord};
        let trace =
            [TraceRecord::sequential(Addr::new(0)), TraceRecord::sequential(Addr::new(4))];
        let specs = [EngineSpec::nls_table(512), EngineSpec::btb(128, 1)];
        let mut cell = crate::Cell::new(CacheConfig::paper(8, 1), &specs);
        assert_eq!(drive_records_supervised(trace, &mut cell, &Budget::unlimited()), None);
        let results = cell.results("t");
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.instructions, 2);
        }
    }

    #[test]
    fn cancelled_sweep_interrupts_unstarted_runs() {
        let runs = cross(
            &[BenchProfile::li(), BenchProfile::espresso(), BenchProfile::gcc()],
            &paper_caches(),
            &[EngineSpec::nls_table(512)],
        );
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let outcomes = run_sweep_supervised(&runs, &small_cfg(), &budget, None)
            .expect("an in-memory sweep cannot fail");
        assert_eq!(outcomes.len(), runs.len());
        for (i, o) in outcomes.iter().enumerate() {
            match o {
                Err(RunError::Interrupted { run, reason }) => {
                    assert_eq!(run, &runs[i].key());
                    assert!(reason.contains("cancelled"), "{reason}");
                }
                other => panic!("pre-cancelled sweep must not run anything: {other:?}"),
            }
        }
    }

    #[test]
    fn a_budget_stops_the_same_cells_in_memory_and_over_a_file() {
        let cfg = small_cfg();
        let li = [BenchProfile::li()];
        let engines = [EngineSpec::nls_table(512)];
        // A record limit stops every cell; a heap limit refuses the
        // large cell of a claim and lets the small one complete.
        let every = cross(&li, &[CacheConfig::paper(8, 1), CacheConfig::paper(8, 4)], &engines);
        let one = cross(&li, &[CacheConfig::paper(8, 1), CacheConfig::paper(128, 4)], &engines);
        let (small, large) = (one[0].state_bytes(), one[1].state_bytes());
        let heap = StopReason::HeapLimit { limit_bytes: small, estimated_bytes: large };
        let cases = [
            (every, Budget::unlimited().with_max_records(5_000), [true, true], "records"),
            (one, Budget::unlimited().with_max_heap_bytes(small), [false, true], "heap"),
        ];
        let reasons = [StopReason::RecordLimit { limit: 5_000 }, heap];
        for ((runs, budget, stops, name), reason) in cases.iter().zip(&reasons) {
            let in_memory = run_sweep_supervised(runs, &cfg, budget, None)
                .expect("an in-memory sweep merges");
            let path = scratch_path(&format!("budget-{name}.json"));
            let file = ledger_for(&path, runs, false);
            let durable = run_sweep_supervised(runs, &cfg, budget, Some(&file))
                .expect("a durable sweep merges");
            assert_eq!(in_memory, durable, "{name}: one budget rule for both backings");
            for ((run, outcome), stops) in runs.iter().zip(&in_memory).zip(stops) {
                match outcome {
                    Err(RunError::Interrupted { run: key, reason: why }) if *stops => {
                        assert_eq!(key, &run.key());
                        assert_eq!(why, &reason.to_string(), "{name}: it names the stop");
                    }
                    Ok(results) if !*stops => assert_eq!(results, &run_one(run, &cfg)),
                    other => panic!("{name}: {} ended {other:?}", run.key()),
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A fresh ledger for `runs` at `path`, or with `resume` the one
    /// there, re-opened.
    fn ledger_for(path: &std::path::Path, runs: &[RunSpec], resume: bool) -> LedgerFile {
        let file = LedgerFile::new(path);
        let keys = runs.iter().map(RunSpec::key);
        file.init(Ledger::new(&small_cfg(), 30_000, 3, keys), resume).expect("ledger");
        file
    }

    #[test]
    fn the_executor_count_is_the_parallelism_bounded_by_the_cells() {
        let parallelism = std::thread::available_parallelism().map_or(4, |n| n.get());
        assert_eq!(executor_count(0), 1);
        assert_eq!(executor_count(1), 1);
        assert_eq!(executor_count(10_000), parallelism);
        assert_eq!(executor_count(2), parallelism.min(2));
    }

    #[test]
    fn degraded_runs_are_released_to_the_ledger_but_complete_ones_are_published() {
        let path = scratch_path("degraded.json");
        let runs = cross(
            &[BenchProfile::li()],
            &[CacheConfig::paper(8, 1)],
            &[EngineSpec::nls_table(512)],
        );
        let cfg = small_cfg();
        let budget = Budget::unlimited().with_max_records(1_000);
        let file = ledger_for(&path, &runs, false);
        let degraded = run_sweep_supervised(&runs, &cfg, &budget, Some(&file))
            .expect("the durable sweep merges");
        assert!(
            matches!(&degraded[0], Err(RunError::Interrupted { .. })),
            "a degraded run merges as interrupted: {:?}",
            degraded[0]
        );
        let ledger = file.read(&CancelToken::new()).expect("readable");
        assert!(
            matches!(
                ledger.state(&runs[0].key()),
                Some(CellState::Pending { attempts: 0, .. })
            ),
            "truncated metrics never enter the ledger, and the attempt is refunded: {:?}",
            ledger.state(&runs[0].key())
        );

        let file = ledger_for(&path, &runs, true);
        let complete = run_sweep_supervised(&runs, &cfg, &Budget::unlimited(), Some(&file))
            .expect("the resumed sweep merges");
        assert_eq!(complete[0].as_ref().expect("clean run"), &run_one(&runs[0], &cfg));
        let ledger = file.read(&CancelToken::new()).expect("readable");
        assert_eq!(
            ledger.state(&runs[0].key()),
            Some(&CellState::Done { results: run_one(&runs[0], &cfg) })
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_durable_sweep_returns_a_workers_ledger_error() {
        let path = scratch_path("foreign-grid.json");
        let runs = cross(
            &[BenchProfile::li()],
            &[CacheConfig::paper(8, 1)],
            &[EngineSpec::nls_table(512)],
        );
        let file = LedgerFile::new(&path);
        let foreign = vec!["not | a real | cell".to_string()];
        file.init(Ledger::new(&small_cfg(), 5_000, 3, foreign), false).expect("fresh ledger");
        let err = run_sweep_supervised(&runs, &small_cfg(), &Budget::unlimited(), Some(&file))
            .expect_err("a cell with no matching run is a ledger error");
        assert_eq!(err.exit_code(), 8, "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ledger_workers_reproduce_a_single_process_sweep_bit_for_bit() {
        let dir = std::env::temp_dir().join("nls-ledger-sweep-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("ledger-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let runs = cross(
            &[BenchProfile::li(), BenchProfile::espresso()],
            &[CacheConfig::paper(8, 1), CacheConfig::paper(8, 4)],
            &[EngineSpec::nls_table(512)],
        );
        let cfg = small_cfg();
        let reference = run_sweep(&runs, &cfg);

        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg, 5_000, 3, runs.iter().map(RunSpec::key)), false)
            .expect("fresh ledger");
        std::thread::scope(|s| {
            for w in 0..3 {
                let file = file.clone();
                let (runs, cfg) = (&runs, &cfg);
                s.spawn(move || {
                    let report = run_ledger_worker(
                        runs,
                        cfg,
                        &Budget::unlimited(),
                        &file,
                        &format!("w{w}"),
                        3,
                    )
                    .expect("worker drains the ledger");
                    assert_eq!(report.failed_attempts, 0);
                });
            }
        });

        let final_ledger = file.read(&CancelToken::new()).expect("ledger readable");
        assert_eq!(final_ledger.counts().done, runs.len());
        let merged: Vec<SimResult> = merge_ledger_outcomes(&runs, &final_ledger)
            .into_iter()
            .map(|r| r.expect("all cells done"))
            .collect::<Vec<_>>()
            .concat();
        assert_eq!(merged, reference, "merged ledger output must be bit-for-bit identical");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_idle_ledger_worker_drains_as_soon_as_the_last_cell_completes() {
        use std::time::{Duration, Instant};
        let path = scratch_path("idle.json");
        let runs = cross(
            &[BenchProfile::li(), BenchProfile::espresso()],
            &[CacheConfig::paper(8, 1)],
            &[EngineSpec::nls_table(512)],
        );
        let cfg = small_cfg();
        // A 30 s lease: the idle worker is told to wait that long.
        let fresh = || Ledger::new(&cfg, 30_000, 3, runs.iter().map(RunSpec::key));
        let on_disk = LedgerFile::new(&path);
        on_disk.init(fresh(), false).expect("fresh ledger");
        for file in [on_disk, LedgerFile::in_memory(fresh())] {
            let cancel = CancelToken::new();
            // The second worker, driven by hand: it holds one cell while
            // the worker under test finishes the other and goes idle.
            let ClaimOutcome::Claimed { key, .. } =
                file.claim(&cancel, "slow", |_| 0..1).expect("claim")
            else {
                panic!("a fresh ledger has a claimable cell");
            };
            let held = runs.iter().find(|r| r.key() == key).expect("the held cell is a run");
            let (tx, rx) = std::sync::mpsc::channel();
            let (worker_runs, worker_file) = (runs.clone(), file.clone());
            let idle = std::thread::spawn(move || {
                let report = run_ledger_worker(
                    &worker_runs,
                    &cfg,
                    &Budget::unlimited(),
                    &worker_file,
                    "w0",
                    1,
                );
                let _ = tx.send((report, Instant::now()));
            });
            let results = run_one(held, &cfg);
            let deadline = Instant::now() + Duration::from_secs(10);
            while file.read(&cancel).expect("readable").counts().done < 1 {
                assert!(Instant::now() < deadline, "the worker never finished its cell");
                std::thread::sleep(Duration::from_millis(10));
            }
            // Let the worker settle into its wait.
            std::thread::sleep(Duration::from_millis(100));
            assert!(file
                .update(&cancel, |l| l.complete(&key, "slow", results))
                .expect("publish"));
            let completed = Instant::now();
            let (report, returned) =
                rx.recv_timeout(Duration::from_secs(10)).expect("the idle worker must return");
            idle.join().expect("the worker thread must not panic");
            assert_eq!(report.expect("the worker drains").completed, 1);
            let lag = returned.duration_since(completed);
            assert!(
                lag < Duration::from_millis(200),
                "idle worker drained {lag:?} after the last cell"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ledger_worker_rejects_a_foreign_cell_grid() {
        let dir = std::env::temp_dir().join("nls-ledger-sweep-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("foreign-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let runs = cross(
            &[BenchProfile::li()],
            &[CacheConfig::paper(8, 1)],
            &[EngineSpec::nls_table(512)],
        );
        let cfg = small_cfg();
        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg, 5_000, 3, vec!["not | a real | cell".to_string()]), false)
            .expect("fresh ledger");
        let err = run_ledger_worker(&runs, &cfg, &Budget::unlimited(), &file, "w0", 1)
            .expect_err("a cell with no matching run is a ledger error");
        assert_eq!(err.exit_code(), 8, "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumed_sweep_reproduces_an_uninterrupted_one() {
        let path = scratch_path("resume.json");
        let runs = cross(
            &[BenchProfile::li(), BenchProfile::espresso()],
            &[CacheConfig::paper(8, 1), CacheConfig::paper(8, 4)],
            &[EngineSpec::nls_table(512)],
        );
        let cfg = small_cfg();
        let uninterrupted = run_sweep(&runs, &cfg);

        // First pass: cancelled before it starts, so nothing completes;
        // then a healthy resume must reproduce the uninterrupted sweep
        // bit-for-bit from whatever the ledger holds.
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let file = ledger_for(&path, &runs, false);
        let first = run_sweep_supervised(&runs, &cfg, &budget, Some(&file))
            .expect("an interrupted durable sweep still merges");
        assert!(
            first.iter().all(|r| matches!(r, Err(RunError::Interrupted { .. }))),
            "{first:?}"
        );
        assert!(path.exists(), "the ledger outlives an interrupted sweep");

        let file = ledger_for(&path, &runs, true);
        let resumed = run_sweep_supervised(&runs, &cfg, &Budget::unlimited(), Some(&file))
            .expect("resume succeeds");
        let flat: Vec<SimResult> = resumed
            .into_iter()
            .map(|r| r.expect("all runs complete on resume"))
            .collect::<Vec<_>>()
            .concat();
        assert_eq!(flat, uninterrupted, "resume must be bit-for-bit identical");
        let text = std::fs::read_to_string(&path).expect("readable");
        let ledger = Ledger::from_json(&text).expect("compacted to one snapshot");
        assert_eq!(ledger.counts().done, runs.len());
        let _ = std::fs::remove_file(&path);
    }
}
