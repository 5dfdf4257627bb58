//! Subcommand implementations for the `nls` tool.
//!
//! Each command returns the text it would print, so the command
//! layer is unit-testable without capturing stdout. Failures are
//! reported through the workspace [`NlsError`] taxonomy, so the
//! binary can exit with one code per error class (usage 2, trace 3,
//! run 4, checkpoint 5 (saved serve state), I/O 6, interrupted 7,
//! work ledger 8).
//!
//! The simulation commands run *supervised*: `--deadline`,
//! `--max-records` and `--max-heap-mb` build a
//! [`Budget`], SIGINT/SIGTERM are routed to its cancel token
//! ([`install_signal_token`]), and a tripped budget degrades the run
//! cooperatively instead of killing the process mid-write.
//!
//! `nls sweep` runs ledger worker threads over a ledger held in
//! memory; `nls sweep --ledger <FILE>` makes it durable: N
//! `sweep-worker` subprocesses (`--workers N`, by default one per core)
//! claim cells from a crash-safe work ledger file; the parent fans
//! SIGTERM out to them on its own signal and merges the per-cell
//! metrics deterministically, so the merged output is bit-for-bit
//! identical to the in-memory sweep's, and an interrupted sweep
//! resumes with `--resume`. Both follow the ledger's budget rule: a
//! cell a budget stops is released unfinished, never printed, and the
//! sweep exits 7 with one error naming the stop reason.
//! `nls soak --kill-workers` is the standing drill for that
//! machinery: it SIGKILLs a seeded selection of workers mid-sweep
//! and requires the survivors to reclaim every orphaned lease.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use nls_core::soak::{run_soak, SoakConfig, WorkerSoakReport};
use nls_core::{
    cross, drive_records_supervised, executor_count, fallthrough_way_prediction,
    install_signal_token, merge_ledger_outcomes, oracle, paper_caches, run_ledger_worker,
    run_one_supervised, run_sweep, run_sweep_supervised, Budget, CancelToken, Cell, CellState,
    EngineSpec, Ledger, LedgerFile, NlsError, PenaltyModel, RunError, RunSpec, SimResult,
    StopReason, SweepConfig, BLOCK_RECORDS, DEFAULT_LEASE_MS, DEFAULT_MAX_ATTEMPTS,
};
use nls_cost::access_time::{btb_access_ns, tagless_access_ns, TimingProcess};
use nls_cost::rbe::{btb_rbe, nls_cache_rbe, nls_table_rbe, CacheGeometry};
use nls_trace::faults::{ChaosScheduler, RuntimeFault};
use nls_trace::{
    synthesize, write_trace_atomic, BenchProfile, GenConfig, TraceFileError, TraceReader,
    TraceRecord, TraceStats, Walker,
};

use crate::args::{
    parse_benches, parse_cache, parse_count, parse_duration, parse_engine,
    parse_recovery_policy, parse_size_mb, CliError, ParsedArgs,
};

/// Splits trace-layer failures into their true classes: an
/// [`TraceFileError::Io`] is an environment problem (exit 6), the
/// rest is file corruption (exit 3).
fn trace_err(e: TraceFileError) -> NlsError {
    match e {
        TraceFileError::Io(io) => NlsError::Io(io),
        other => NlsError::Trace(other),
    }
}

/// The help text (also shown on `nls help`).
pub const USAGE: &str = "\
nls — next cache line and set prediction simulator (Calder & Grunwald, ISCA 1995)

USAGE:
  nls simulate  --bench <NAME|all> [--cache 16K:1] [--engine btb:128:1]...
                [--len 2m] [--seed N] [--deadline 30s] [--max-records 1m]
                [--max-heap-mb N] [--csv]
  nls sweep     --bench <NAME|all> [--cache 16K:1]... [--engine btb:128:1]...
                [--len 2m] [--seed N]
                [--ledger <FILE> [--resume] [--workers N] [--lease-ms 5000]
                [--max-attempts 3]]
                [--deadline 30s] [--max-records 1m] [--max-heap-mb N] [--csv]
  nls soak      [--cases 6] [--seed N] [--len 20k] [--faults 4]
                [--max-stall-ms 2] [--deadline 10s] [--max-records N]
                [--kill-workers [--workers 3] [--kills 1] [--lease-ms 300]
                [--hold-ms 2]]
                [--server [--clients 6] [--requests 3] [--stalls 2]]
  nls serve     [--addr 127.0.0.1] [--port 8080] [--jobs 4] [--queue 16]
                [--state-dir DIR] [--resume] [--len 2m] [--seed N]
                [--max-deadline 60s] [--max-records N] [--max-heap-mb N]
                [--io-timeout 5s]
  nls table1    [--len 2m] [--seed N]
  nls costs     [--cache-kb 8,16,32,64]
  nls gen-trace --bench <NAME> --out <FILE> [--len 2m] [--seed N]
  nls replay    --trace <FILE> [--cache 16K:1] [--engine nls-table:1024]...
                [--on-corrupt fail|skip|skip:N|truncate]
  nls set-pred  --bench <NAME|all> [--cache 16K:2] [--len 2m]
  nls help

ENGINES: btb:ENTRIES:ASSOC | nls-table:ENTRIES | nls-cache:PREDS | johnson:PREDS
BENCHES: doduc espresso gcc li cfront groff | all
EXIT CODES: 0 ok | 2 usage | 3 corrupt trace | 4 failed run
            5 checkpoint (serve state damaged, or unfinished jobs without --resume)
            6 i/o
            7 interrupted (signal or budget; ledgers and serve keep finished work)
            8 work ledger (lease/lock failure; completed cells stay in the ledger)
";

fn default_engines() -> Vec<EngineSpec> {
    vec![EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)]
}

fn sweep_config(a: &ParsedArgs) -> Result<SweepConfig, CliError> {
    let trace_len = match a.get("len") {
        Some(s) => parse_count(s)?,
        None => 2_000_000,
    };
    let seed = match a.get("seed") {
        Some(s) => s.parse().map_err(|_| CliError(format!("bad seed {s:?}")))?,
        None => 0x0b5e_55ed,
    };
    Ok(SweepConfig { trace_len, seed })
}

fn engines_from(a: &ParsedArgs) -> Result<Vec<EngineSpec>, CliError> {
    let specs = a.get_all("engine");
    if specs.is_empty() {
        return Ok(default_engines());
    }
    specs.iter().map(|s| parse_engine(s)).collect()
}

/// Builds the command's [`Budget`] from `--deadline`,
/// `--max-records` and `--max-heap-mb`, with `cancel` (usually the
/// signal token) wired in.
fn budget_from(a: &ParsedArgs, cancel: CancelToken) -> Result<Budget, CliError> {
    let mut budget = Budget::unlimited().with_cancel(cancel);
    if let Some(s) = a.get("deadline") {
        budget = budget.with_deadline(parse_duration(s)?);
    }
    if let Some(s) = a.get("max-records") {
        budget = budget.with_max_records(parse_count(s)? as u64);
    }
    if let Some(s) = a.get("max-heap-mb") {
        budget = budget.with_max_heap_bytes(parse_size_mb(s)?.saturating_mul(1024 * 1024));
    }
    Ok(budget)
}

/// What to do about the cells of `runs` that `--max-heap-mb` refuses,
/// or `None` when it refuses none. A refusal depends only on a cell's
/// geometry (its engine state, [`RunSpec::state_bytes`], against the
/// limit, the rule the sweep workers apply), so every rerun refuses the
/// same cells: only a larger budget, or a grid without them, finishes.
fn heap_refusals(a: &ParsedArgs, runs: &[RunSpec]) -> Result<Option<String>, CliError> {
    let Some(mb) = a.get("max-heap-mb") else { return Ok(None) };
    let heap =
        Budget::unlimited().with_max_heap_bytes(parse_size_mb(mb)?.saturating_mul(1024 * 1024));
    let refused: Vec<String> = runs
        .iter()
        .filter(|run| heap.check(0, run.state_bytes()).is_err())
        .map(RunSpec::key)
        .collect();
    Ok((!refused.is_empty()).then(|| {
        format!(
            "--max-heap-mb {mb} refuses {} on every run: raise it or drop those geometries",
            refused.join(", ")
        )
    }))
}

/// The (benchmark × cache) × engines grid and sweep config shared by
/// `sweep` and its `sweep-worker` children — both sides must derive
/// the identical grid from the same flags, or the workers would
/// claim cells that do not exist in their own run list.
fn sweep_grid(a: &ParsedArgs) -> Result<(Vec<RunSpec>, SweepConfig), CliError> {
    let benches = parse_benches(a.get("bench").unwrap_or("all"))?;
    let caches = {
        let specs = a.get_all("cache");
        if specs.is_empty() {
            paper_caches()
        } else {
            specs.iter().map(|s| parse_cache(s)).collect::<Result<Vec<_>, _>>()?
        }
    };
    let engines = engines_from(a)?;
    Ok((cross(&benches, &caches, &engines), sweep_config(a)?))
}

/// The lease/retry knobs of a distributed sweep: `--lease-ms`
/// (milliseconds a claim stays valid without a heartbeat) and
/// `--max-attempts` (claims per cell before it is marked failed).
fn ledger_knobs(a: &ParsedArgs) -> Result<(u64, u64), CliError> {
    let positive = |flag: &str, s: &str| -> Result<u64, CliError> {
        match s.parse::<u64>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(CliError(format!("bad --{flag} {s:?} (want a positive integer)"))),
        }
    };
    let lease_ms = match a.get("lease-ms") {
        Some(s) => positive("lease-ms", s)?,
        None => DEFAULT_LEASE_MS,
    };
    let max_attempts = match a.get("max-attempts") {
        Some(s) => positive("max-attempts", s)?,
        None => DEFAULT_MAX_ATTEMPTS,
    };
    Ok((lease_ms, max_attempts))
}

/// Sends `sig` to process `pid`; a no-op off unix. Used for SIGTERM
/// fan-out to sweep workers and for the SIGKILLs of the worker-death
/// soak.
#[cfg(unix)]
pub(crate) fn send_signal(pid: u32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // A failing kill means the child already exited; nothing to do.
    unsafe {
        let _ = kill(pid as i32, sig);
    }
}

#[cfg(not(unix))]
pub(crate) fn send_signal(_pid: u32, _sig: i32) {}

/// The spec/budget flags a parent sweep forwards verbatim to its
/// `sweep-worker` children, so every process derives the identical
/// run grid and budget.
const FORWARDED_FLAGS: [&str; 10] = [
    "bench",
    "cache",
    "engine",
    "len",
    "seed",
    "deadline",
    "max-records",
    "max-heap-mb",
    "lease-ms",
    "max-attempts",
];

/// `--workers`: how many worker processes share the ledger (1..=64,
/// `default` when not given).
fn ledger_workers(a: &ParsedArgs, default: usize) -> Result<usize, CliError> {
    match a.get("workers") {
        Some(s) => match s.parse() {
            Ok(n) if (1..=64).contains(&n) => Ok(n),
            _ => Err(CliError(format!("bad --workers {s:?} (want 1..=64)"))),
        },
        None => Ok(default),
    }
}

/// How many worker processes `nls sweep --ledger` runs over `runs`:
/// `--workers`, by default the executor count ([`executor_count`]),
/// capped at 64.
fn sweep_workers(a: &ParsedArgs, runs: &[RunSpec]) -> Result<usize, CliError> {
    ledger_workers(a, executor_count(runs.len()).min(64))
}

/// The `sweep-worker` child `id` of a sweep of `workers` workers over
/// `ledger`: it gets the sweep's spec flags and the worker count, which
/// sizes its claims. Worker stdout goes to the parent, which owns the
/// merged report: it carries the worker's stop reason, if a signal or
/// budget stopped it. Stderr passes through for per-worker notes.
fn worker_command(
    exe: &Path,
    a: &ParsedArgs,
    ledger: &Path,
    id: u64,
    workers: usize,
) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg("sweep-worker")
        .arg("--ledger")
        .arg(ledger)
        .arg("--worker-id")
        .arg(format!("w{id}"))
        .arg("--workers")
        .arg(workers.to_string());
    for key in FORWARDED_FLAGS {
        for val in a.get_all(key) {
            cmd.arg(format!("--{key}")).arg(val);
        }
    }
    cmd.stdout(Stdio::piped());
    cmd
}

/// Waits for every worker child, fanning SIGTERM out once when the
/// parent's own signal token trips so the children stop claiming,
/// flush their state and exit 7.
///
/// Each child is waited on by its own thread, which collects its
/// stdout and sends its output the moment the child exits; the token
/// is read whenever no output arrived for 20 ms, and only to decide the
/// fan-out.
fn supervise_workers(
    children: Vec<Child>,
    token: &CancelToken,
) -> Result<Vec<Output>, NlsError> {
    let mut running: Vec<u32> = children.iter().map(Child::id).collect();
    let mut statuses = Vec::with_capacity(running.len());
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for child in children {
            let tx = tx.clone();
            scope.spawn(move || {
                let _ = tx.send((child.id(), child.wait_with_output()));
            });
        }
        drop(tx);
        let mut signalled = false;
        loop {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok((pid, status)) => {
                    running.retain(|&p| p != pid);
                    statuses.push(status);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if token.is_cancelled() && !signalled {
                signalled = true;
                // Skip the children already reported, pending reports
                // included: a reaped child's pid may belong to another
                // process by now. A child reaped after this drain but
                // before its report is sent can still be signalled.
                while let Ok((pid, status)) = rx.try_recv() {
                    running.retain(|&p| p != pid);
                    statuses.push(status);
                }
                for &pid in &running {
                    send_signal(pid, 15);
                }
            }
        }
    });
    statuses.into_iter().map(|s| s.map_err(NlsError::Io)).collect()
}

/// Renders a sweep's merged outcomes, in memory or from a ledger. All
/// cells done renders the result block, with a note per failed cell
/// (exit 4 when there is one). Unfinished cells, or a signal, print no
/// rows: the sweep exits 7, naming `stop` (or the first unfinished
/// cell's reason) and then `then`, or 8 when `stop` is `None` and no
/// signal arrived: a ledger's workers died with nothing stopping them.
fn render_merged(
    outcomes: Vec<Result<Vec<SimResult>, RunError>>,
    a: &ParsedArgs,
    cancelled: bool,
    stop: Option<String>,
    then: &str,
) -> Result<String, NlsError> {
    let total = outcomes.len();
    let mut results = Vec::new();
    let mut notes = Vec::new();
    let mut unfinished = 0usize;
    let mut reason = None;
    let mut failed: Option<RunError> = None;
    for outcome in outcomes {
        match outcome {
            Ok(cell) => results.extend(cell),
            Err(RunError::Interrupted { reason: why, .. }) => {
                unfinished += 1;
                reason.get_or_insert(why);
            }
            Err(e) => {
                notes.push(format!("note: {e}"));
                failed.get_or_insert(e);
            }
        }
    }
    if unfinished > 0 || cancelled {
        let interrupted = cancelled || stop.is_some();
        let why = stop.or(reason).unwrap_or_else(|| StopReason::Cancelled.to_string());
        let msg =
            format!("sweep stopped after {}/{total} cells ({why}); {then}", total - unfinished);
        return Err(if interrupted {
            NlsError::Interrupted(msg)
        } else {
            NlsError::Ledger(msg)
        });
    }
    let mut out = result_block(&results, a.has_switch("csv"));
    for n in &notes {
        let _ = writeln!(out, "{n}");
    }
    match failed {
        Some(e) => Err(NlsError::Run(e)),
        None => Ok(out),
    }
}

/// A durable sweep: N `sweep-worker` children claim cells from the
/// shared crash-safe ledger at `path`, the parent supervises them and
/// deterministically merges the per-cell metrics, so the output is
/// bit-for-bit identical to any other worker count (and to the
/// in-memory sweep of the same grid).
fn sweep_distributed(
    a: &ParsedArgs,
    runs: &[RunSpec],
    cfg: &SweepConfig,
    path: PathBuf,
) -> Result<String, NlsError> {
    // Every flag a worker would refuse is refused here first, before
    // the ledger exists: a usage error must leave nothing behind.
    let workers = sweep_workers(a, runs)?;
    let (lease_ms, max_attempts) = ledger_knobs(a)?;
    budget_from(a, CancelToken::new())?;
    let file = LedgerFile::new(&path);
    file.init(
        Ledger::new(cfg, lease_ms, max_attempts, runs.iter().map(RunSpec::key)),
        a.has_switch("resume"),
    )?;
    let token = install_signal_token();
    let exe = std::env::current_exe().map_err(NlsError::Io)?;
    let mut children = Vec::new();
    for id in 0..workers as u64 {
        let worker = worker_command(&exe, a, &path, id, workers).spawn();
        children.push(worker.map_err(NlsError::Io)?);
    }
    let outputs = supervise_workers(children, &token)?;
    // A worker a signal or budget stopped exits 7 with the reason on
    // its stdout.
    let stop = outputs
        .iter()
        .find(|o| o.status.code() == Some(7))
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    // The workers are gone: fold their journal into one snapshot
    // before merging, so the ledger left behind reads one line per cell.
    let ledger = file.compact(&CancelToken::new())?;
    let then = match heap_refusals(a, runs)? {
        Some(refused) => {
            format!("{refused}; completed cells are in the ledger at {}", path.display())
        }
        None => format!(
            "completed cells are in the ledger at {} — rerun with --resume to finish",
            path.display()
        ),
    };
    render_merged(merge_ledger_outcomes(runs, &ledger), a, token.is_cancelled(), stop, &then)
}

/// `nls sweep-worker`: one claiming worker of a durable sweep.
/// Spawned by `nls sweep --ledger`, but safe to point at any
/// ledger by hand — it claims cells, renews its leases by heartbeat,
/// reclaims orphans left by dead peers, and exits once the ledger is
/// drained. Its summary goes to stderr; its stdout belongs to the
/// parent (the `nls` binary prints an interruption's reason there, for
/// the parent to report, instead of an error of its own).
///
/// # Errors
///
/// Fails on malformed options, a ledger that does not match the
/// sweep grid, or with [`NlsError::Interrupted`] when stopped by
/// signal or budget.
pub fn sweep_worker(a: &ParsedArgs) -> Result<String, NlsError> {
    a.expect_only(&[
        "ledger",
        "worker-id",
        "bench",
        "cache...",
        "engine...",
        "len",
        "seed",
        "lease-ms",
        "max-attempts",
        "deadline",
        "max-records",
        "max-heap-mb",
        "workers",
    ])?;
    let path = a.get("ledger").ok_or(CliError("--ledger is required".into()))?;
    let worker = a.get("worker-id").unwrap_or("w0").to_string();
    let workers = ledger_workers(a, 1)?;
    let (runs, cfg) = sweep_grid(a)?;
    let token = install_signal_token();
    let budget = budget_from(a, token.clone())?;
    let file = LedgerFile::new(path);
    let report = run_ledger_worker(&runs, &cfg, &budget, &file, &worker, workers)?;
    eprintln!(
        "worker {worker}: {} cell(s) completed in {} claim(s) ({} reclaimed), {} failed attempt(s)",
        report.completed, report.claims, report.reclaimed, report.failed_attempts
    );
    Ok(String::new())
}

fn result_block(results: &[SimResult], csv: bool) -> String {
    let m = PenaltyModel::paper();
    let mut out = String::new();
    if csv {
        let _ = writeln!(out, "bench,cache,engine,breaks,pct_mfb,pct_mpb,bep,miss_pct,cpi");
        for r in results {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                r.bench,
                r.cache,
                r.engine,
                r.breaks,
                r.pct_misfetched(),
                r.pct_mispredicted(),
                r.bep(&m),
                r.miss_pct(),
                r.cpi(&m)
            );
        }
    } else {
        let _ = writeln!(
            out,
            "{:<9} {:<11} {:<22} {:>8} {:>8} {:>7} {:>7} {:>7}",
            "bench", "cache", "engine", "%MfB", "%MpB", "BEP", "miss%", "CPI"
        );
        for r in results {
            let _ = writeln!(
                out,
                "{:<9} {:<11} {:<22} {:>8.2} {:>8.2} {:>7.3} {:>7.2} {:>7.3}",
                r.bench,
                r.cache,
                r.engine,
                r.pct_misfetched(),
                r.pct_mispredicted(),
                r.bep(&m),
                r.miss_pct(),
                r.cpi(&m)
            );
        }
    }
    out
}

/// `nls simulate`: run benchmarks through engines, supervised.
///
/// A tripped `--deadline`/`--max-records`/`--max-heap-mb` budget
/// prints the partial (oracle-valid) metrics with a note per
/// truncated benchmark; a SIGINT/SIGTERM exits with code 7.
///
/// # Errors
///
/// Fails on malformed options, or with [`NlsError::Interrupted`]
/// when a signal stopped the run.
pub fn simulate(a: &ParsedArgs) -> Result<String, NlsError> {
    a.expect_only(&[
        "bench",
        "cache",
        "engine...",
        "len",
        "seed",
        "csv",
        "deadline",
        "max-records",
        "max-heap-mb",
    ])?;
    let benches = parse_benches(a.get("bench").unwrap_or("all"))?;
    let cache = parse_cache(a.get("cache").unwrap_or("16K:1"))?;
    let engines = engines_from(a)?;
    let cfg = sweep_config(a)?;
    let token = install_signal_token();
    let budget = budget_from(a, token.clone())?;
    let mut results = Vec::new();
    let mut notes = Vec::new();
    for bench in benches {
        let spec = RunSpec { bench, cache, engines: engines.clone() };
        let outcome = run_one_supervised(&spec, &cfg, &budget);
        if let Some(reason) = outcome.stop_reason() {
            notes.push(format!("note: {} stopped early: {reason}", spec.bench.name));
        }
        results.extend(outcome.into_results());
    }
    if token.is_cancelled() {
        return Err(NlsError::Interrupted(format!(
            "signal received; {} of the requested results were measured before stopping",
            results.len()
        )));
    }
    let mut out = result_block(&results, a.has_switch("csv"));
    for n in &notes {
        let _ = writeln!(out, "{n}");
    }
    Ok(out)
}

/// `nls sweep`: the full (benchmark × cache) × engines matrix,
/// supervised, in memory or — with `--ledger FILE` — durable.
///
/// With `--ledger` every completed cell is published to the work
/// ledger; rerunning with `--resume` skips the recorded cells and
/// reproduces an uninterrupted sweep bit-for-bit. SIGINT/SIGTERM, or a
/// budget that stops a cell, stops claiming cells and exits with code
/// 7, printing no rows: the stopped cell is released unfinished, in
/// memory as in the ledger.
///
/// # Errors
///
/// Fails on malformed options, a mismatched or pre-existing ledger
/// (without `--resume`), ledger I/O, a run that exhausted its
/// retries, or with [`NlsError::Interrupted`] when stopped by signal
/// or budget.
pub fn sweep(a: &ParsedArgs) -> Result<String, NlsError> {
    a.expect_only(&[
        "bench",
        "cache...",
        "engine...",
        "len",
        "seed",
        "csv",
        "resume",
        "workers",
        "ledger",
        "lease-ms",
        "max-attempts",
        "deadline",
        "max-records",
        "max-heap-mb",
    ])?;
    let (runs, cfg) = sweep_grid(a)?;
    if let Some(path) = a.get("ledger") {
        return sweep_distributed(a, &runs, &cfg, PathBuf::from(path));
    }
    if let Some(flag) = ["resume", "workers", "lease-ms", "max-attempts"]
        .into_iter()
        .find(|flag| a.get(flag).is_some() || a.has_switch(flag))
    {
        return Err(CliError(format!("--{flag} needs --ledger <FILE>")).into());
    }

    let token = install_signal_token();
    let budget = budget_from(a, token.clone())?;
    let outcomes = run_sweep_supervised(&runs, &cfg, &budget, None)?;
    // In memory, only a stop leaves cells unfinished, and each carries
    // its reason.
    let stop = outcomes.iter().find_map(|o| match o {
        Err(RunError::Interrupted { reason, .. }) => Some(reason.clone()),
        _ => None,
    });
    let then = heap_refusals(a, &runs)?
        .unwrap_or_else(|| "rerun with --ledger <FILE> to make sweeps resumable".to_string());
    render_merged(outcomes, a, token.is_cancelled(), stop, &then)
}

/// `nls soak`: the chaos/soak matrix — seeded runtime faults (read
/// stalls, mid-stream I/O errors) against supervised runs of all
/// four engines. Healthy means every case ended complete, degraded
/// with oracle-valid metrics, or failed cleanly; anything else exits
/// as a failed run.
///
/// # Errors
///
/// Fails on malformed options, or with [`NlsError::Run`] when a
/// case's counters violate the oracle.
pub fn soak(a: &ParsedArgs) -> Result<String, NlsError> {
    if a.has_switch("kill-workers") {
        return soak_kill_workers(a);
    }
    if a.has_switch("server") {
        return crate::serve::soak_server(a);
    }
    a.expect_only(&[
        "cases",
        "seed",
        "len",
        "faults",
        "max-stall-ms",
        "deadline",
        "max-records",
    ])?;
    let mut cfg = SoakConfig::quick();
    let int = |s: &str| -> Result<u64, CliError> {
        s.parse().map_err(|_| CliError(format!("bad number {s:?}")))
    };
    if let Some(s) = a.get("cases") {
        cfg.cases = int(s)?;
    }
    if let Some(s) = a.get("seed") {
        cfg.base_seed = int(s)?;
    }
    if let Some(s) = a.get("len") {
        cfg.trace_len = parse_count(s)?;
    }
    if let Some(s) = a.get("faults") {
        cfg.faults_per_case = parse_count(s)?;
    }
    if let Some(s) = a.get("max-stall-ms") {
        cfg.max_stall_millis = int(s)?;
    }
    if let Some(s) = a.get("deadline") {
        cfg.deadline = Some(parse_duration(s)?);
    }
    if let Some(s) = a.get("max-records") {
        cfg.max_records = Some(parse_count(s)? as u64);
    }
    let report = run_soak(&cfg);
    let out = report.render();
    if report.is_healthy() {
        Ok(out)
    } else {
        Err(NlsError::Run(RunError::Panicked {
            run: "soak".to_string(),
            message: format!("chaos soak produced oracle violations:\n{out}"),
            attempts: 1,
        }))
    }
}

/// `nls soak --kill-workers`: the worker-death chaos drill.
///
/// Spawns a multi-process sweep over a small fixed grid with
/// deliberately short leases and injected ledger-lock contention
/// (`NLS_LEDGER_CHAOS_HOLD_MS` in the children), SIGKILLs a seeded
/// selection of workers ([`RuntimeFault::WorkerKill`]) each while the
/// ledger shows it holding a lease (the workers claim two cells at a
/// time, so a kill orphans a multi-cell claim; the report names the
/// cells each victim held), and requires every planned kill
/// to land and the survivors to reclaim every orphaned lease: every
/// cell done, merged metrics bit-for-bit equal to the in-process
/// single-run reference, and every merged result oracle-clean. The
/// victims start first and the survivors once every victim is dead, so
/// a victim is never kept from claiming by a grid the others drained.
///
/// # Errors
///
/// Fails on malformed options, with [`NlsError::Interrupted`] on a
/// signal, or with [`NlsError::Run`] when a planned kill never
/// landed, or the drill leaves cells behind, diverges from the
/// reference, or violates the oracle.
fn soak_kill_workers(a: &ParsedArgs) -> Result<String, NlsError> {
    a.expect_only(&["kill-workers", "workers", "kills", "seed", "len", "lease-ms", "hold-ms"])?;
    let int = |flag: &str, s: &str| -> Result<u64, CliError> {
        s.parse().map_err(|_| CliError(format!("bad --{flag} {s:?}")))
    };
    let workers: usize = match a.get("workers") {
        Some(s) => match s.parse() {
            Ok(n) if (2..=16).contains(&n) => n,
            _ => return Err(CliError(format!("bad --workers {s:?} (want 2..=16)")).into()),
        },
        None => 3,
    };
    let kills = match a.get("kills") {
        Some(s) => int("kills", s)? as usize,
        None => 1,
    };
    if kills == 0 || kills >= workers {
        return Err(CliError(format!(
            "--kills {kills} must be between 1 and workers-1 ({}) so a survivor remains",
            workers - 1
        ))
        .into());
    }
    let seed = match a.get("seed") {
        Some(s) => int("seed", s)?,
        None => 0x0dd5_0a4b,
    };
    let trace_len: usize = match a.get("len") {
        Some(s) => parse_count(s)?,
        None => 150_000,
    };
    let lease_ms = match a.get("lease-ms") {
        Some(s) => int("lease-ms", s)?.max(1),
        None => 300,
    };
    let hold_ms = match a.get("hold-ms") {
        Some(s) => int("hold-ms", s)?,
        None => 2,
    };

    // The fixed drill grid: all six benchmarks over two cache shapes
    // and one engine — twelve cells, enough that every worker owns
    // several and a killed worker always abandons leased work for
    // the survivors to reclaim. The workers get it as sweep flags.
    let grid = format!(
        "sweep --bench all --cache 8K:1 --cache 8K:4 --engine nls-table:512 --len {trace_len} \
         --seed {seed}"
    );
    let grid = ParsedArgs::parse(grid.split_whitespace())?;
    let (runs, cfg) = sweep_grid(&grid)?;

    // The single-process reference, computed in this process.
    let reference = run_sweep(&runs, &cfg);

    let path =
        std::env::temp_dir().join(format!("nls-worker-soak-{}.json", std::process::id()));
    let lock = PathBuf::from(format!("{}.lock", path.display()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&lock);
    let file = LedgerFile::new(&path);
    // Each kill burns at most one attempt per orphaned cell, so the
    // retry budget must outlast every planned kill.
    file.init(
        Ledger::new(&cfg, lease_ms, kills as u64 + 2, runs.iter().map(RunSpec::key)),
        false,
    )?;

    let token = install_signal_token();
    let exe = std::env::current_exe().map_err(NlsError::Io)?;
    let spawn = |id: u64| -> Result<(u64, Child, Option<ExitStatus>), NlsError> {
        let mut cmd = worker_command(&exe, &grid, &path, id, workers);
        cmd.env("NLS_LEDGER_CHAOS_HOLD_MS", hold_ms.to_string()).stdout(Stdio::null());
        Ok((id, cmd.spawn().map_err(NlsError::Io)?, None))
    };

    // The seeded plan picks the victims; a victim drawn twice dies
    // once. Waiting for a lease, not a timer, makes every kill orphan
    // leased work however fast the build drains the grid.
    let mut waiting: Vec<u64> = Vec::new();
    for fault in ChaosScheduler::new(seed).kill_plan(workers as u64, kills, lease_ms) {
        if let RuntimeFault::WorkerKill { victim, .. } = fault {
            if !waiting.contains(&victim) {
                waiting.push(victim);
            }
        }
    }
    // The victims start first, and the survivors only once no victim is
    // left to kill: a victim that started late could otherwise find the
    // grid drained by the others and exit without ever holding a lease.
    let mut procs =
        waiting.iter().map(|&victim| spawn(victim)).collect::<Result<Vec<_>, _>>()?;
    let mut survivors: Vec<u64> =
        (0..workers as u64).filter(|id| !waiting.contains(id)).collect();
    let keys: Vec<String> = runs.iter().map(RunSpec::key).collect();
    let mut killed: Vec<(u64, Vec<String>)> = Vec::new();
    let started = Instant::now();
    let mut signalled = false;
    loop {
        let elapsed = started.elapsed().as_millis() as u64;
        if !waiting.is_empty() && !signalled {
            if let Ok(ledger) = file.read(&CancelToken::new()) {
                waiting.retain(|&victim| {
                    let name = format!("w{victim}");
                    let held: Vec<String> = keys
                        .iter()
                        .filter(|key| {
                            matches!(ledger.state(key),
                                Some(CellState::Leased { worker, .. }) if *worker == name)
                        })
                        .cloned()
                        .collect();
                    match procs.iter().find(|(id, ..)| *id == victim) {
                        Some((_, child, None)) if !held.is_empty() => {
                            send_signal(child.id(), 9);
                            killed.push((victim, held));
                            false
                        }
                        _ => true,
                    }
                });
            }
        }
        if token.is_cancelled() && !signalled {
            signalled = true;
            for (_, child, status) in &procs {
                if status.is_none() {
                    send_signal(child.id(), 15);
                }
            }
        }
        let mut all_done = true;
        for (_, child, status) in procs.iter_mut() {
            if status.is_none() {
                match child.try_wait() {
                    Ok(Some(s)) => *status = Some(s),
                    Ok(None) => all_done = false,
                    Err(e) => return Err(NlsError::Io(e)),
                }
            }
        }
        // No victim is left to kill once each is dead or has exited.
        let victims_gone =
            waiting.iter().all(|v| procs.iter().any(|(id, _, s)| id == v && s.is_some()));
        if victims_gone && !signalled {
            for id in survivors.drain(..) {
                procs.push(spawn(id)?);
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        // Watchdog: the drill must end in bounded time even if a
        // survivor wedges — that itself is a failed drill.
        if elapsed > 120_000 {
            for (_, child, status) in &procs {
                if status.is_none() {
                    send_signal(child.id(), 9);
                }
            }
            return Err(NlsError::Run(RunError::Panicked {
                run: "worker-soak".to_string(),
                message: "worker-death soak wedged: workers still running after 120 s"
                    .to_string(),
                attempts: 1,
            }));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    if token.is_cancelled() {
        return Err(NlsError::Interrupted("worker-death soak stopped by signal".to_string()));
    }

    let ledger = file.read(&CancelToken::new())?;
    let counts = ledger.counts();
    let outcomes = merge_ledger_outcomes(&runs, &ledger);
    let mut merged = Vec::new();
    let mut unfinished = 0usize;
    for outcome in outcomes {
        match outcome {
            Ok(results) => merged.extend(results),
            Err(_) => unfinished += 1,
        }
    }
    let oracle_findings: Vec<String> =
        merged.iter().flat_map(oracle::invariant_violations).collect();
    let report = WorkerSoakReport {
        workers,
        killed,
        missed: waiting,
        cells: runs.len(),
        done: counts.done,
        failed: counts.failed,
        unfinished: unfinished.saturating_sub(counts.failed),
        matches_reference: merged == reference,
        oracle_findings,
    };
    let out = report.render();
    if report.is_healthy() {
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&lock);
        Ok(out)
    } else {
        Err(NlsError::Run(RunError::Panicked {
            run: "worker-soak".to_string(),
            message: format!(
                "worker-death soak failed (ledger kept at {}):\n{out}",
                path.display()
            ),
            attempts: 1,
        }))
    }
}

/// `nls table1`: the measured Table 1.
///
/// # Errors
///
/// Fails on malformed options.
pub fn table1(a: &ParsedArgs) -> Result<String, NlsError> {
    a.expect_only(&["len", "seed"])?;
    let cfg = sweep_config(a)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<9} {:>8} {:>6} {:>6} {:>6} {:>7} {:>8} {:>7} {:>6} {:>5} {:>5} {:>6} {:>5}",
        "program",
        "%breaks",
        "Q-50",
        "Q-90",
        "Q-99",
        "Q-100",
        "static",
        "%taken",
        "%CBr",
        "%IJ",
        "%Br",
        "%Call",
        "%Ret"
    );
    for p in BenchProfile::all() {
        let program = synthesize(&p, &GenConfig::for_profile(&p));
        let mut w = Walker::new(&program, cfg.seed);
        let s = TraceStats::from_trace(w.by_ref().take(cfg.trace_len));
        let m = s.mix_percent();
        let _ = writeln!(
            out,
            "{:<9} {:>8.2} {:>6} {:>6} {:>6} {:>7} {:>8} {:>7.2} {:>6.2} {:>5.2} {:>5.2} {:>6.2} {:>5.2}",
            p.name,
            s.pct_breaks(),
            s.quantile(0.50),
            s.quantile(0.90),
            s.quantile(0.99),
            s.q100(),
            program.static_cond_sites(),
            s.pct_taken(),
            m[0],
            m[1],
            m[2],
            m[3],
            m[4],
        );
    }
    Ok(out)
}

/// `nls costs`: RBE and access-time tables.
///
/// # Errors
///
/// Fails on malformed options.
pub fn costs(a: &ParsedArgs) -> Result<String, NlsError> {
    a.expect_only(&["cache-kb"])?;
    let kbs: Vec<u64> = match a.get("cache-kb") {
        Some(s) => s
            .split(',')
            .map(|x| x.trim().parse().map_err(|_| CliError(format!("bad size {x:?}"))))
            .collect::<Result<_, _>>()?,
        None => vec![8, 16, 32, 64],
    };
    let mut out = String::new();
    let _ = writeln!(out, "RBE area (Mulder et al. model):");
    for &kb in &kbs {
        let g = CacheGeometry::paper(kb, 1);
        let _ = writeln!(
            out,
            "  {kb:>3}K cache: NLS-cache(2/line) {:>8.0}   512-table {:>7.0}   1024-table {:>7.0}   2048-table {:>7.0}",
            nls_cache_rbe(2, g),
            nls_table_rbe(512, g),
            nls_table_rbe(1024, g),
            nls_table_rbe(2048, g),
        );
    }
    let _ = writeln!(
        out,
        "  BTBs (cache independent): 128-direct {:.0}  128-4way {:.0}  256-direct {:.0}  256-4way {:.0}",
        btb_rbe(128, 1),
        btb_rbe(128, 4),
        btb_rbe(256, 1),
        btb_rbe(256, 4),
    );
    let t = TimingProcess::default();
    let _ = writeln!(out, "access time (CACTI-style model):");
    for entries in [128u64, 256] {
        let _ = writeln!(
            out,
            "  {entries:>3}-entry BTB: direct {:.2} ns, 2-way {:.2} ns, 4-way {:.2} ns",
            btb_access_ns(entries, 1, &t),
            btb_access_ns(entries, 2, &t),
            btb_access_ns(entries, 4, &t),
        );
    }
    let _ = writeln!(
        out,
        "  1024-entry tag-less NLS table: {:.2} ns",
        tagless_access_ns(1024, 14, &t)
    );
    Ok(out)
}

/// `nls gen-trace`: write a synthetic trace to a `.nlst` file.
///
/// The trace streams record-by-record through a buffered writer into
/// a temporary sibling, is fsynced, and is renamed into place — the
/// output path only ever holds a complete trace or the previous one.
///
/// # Errors
///
/// Fails on malformed options or I/O errors.
pub fn gen_trace(a: &ParsedArgs) -> Result<String, NlsError> {
    a.expect_only(&["bench", "out", "len", "seed"])?;
    let mut benches =
        parse_benches(a.get("bench").ok_or(CliError("--bench is required".into()))?)?;
    if benches.len() != 1 {
        return Err(CliError("gen-trace writes one benchmark per file; name one".into()).into());
    }
    let bench = benches.remove(0);
    let out_path = a.get("out").ok_or(CliError("--out is required".into()))?;
    let cfg = sweep_config(a)?;
    let program = synthesize(&bench, &GenConfig::for_profile(&bench));
    let records = Walker::new(&program, cfg.seed).take(cfg.trace_len);
    let n = write_trace_atomic(out_path, records).map_err(trace_err)?;
    Ok(format!("wrote {n} records to {out_path}\n"))
}

/// `nls replay`: run a recorded trace through engines.
///
/// The trace file is decoded a [`BLOCK_RECORDS`]-record block at a
/// time straight into the drive loop's buffer
/// ([`TraceReader::fill_block`]), and each block goes to the engines,
/// which share one [`Cell`] front end, so memory stays one block no
/// matter how large the file is.
/// `--on-corrupt` selects how decoding damage is handled: `fail`
/// (default) stops with a trace error, `skip`/`skip:N` drops corrupt
/// records, `truncate` keeps the intact prefix; recoveries are
/// reported under the results.
///
/// # Errors
///
/// Fails on malformed options, unreadable or corrupt traces
/// (beyond what the policy absorbs), or I/O errors.
pub fn replay(a: &ParsedArgs) -> Result<String, NlsError> {
    a.expect_only(&["trace", "cache", "engine...", "csv", "on-corrupt"])?;
    let path = a.get("trace").ok_or(CliError("--trace is required".into()))?;
    let policy = parse_recovery_policy(a.get("on-corrupt").unwrap_or("fail"))?;
    let cache = parse_cache(a.get("cache").unwrap_or("16K:1"))?;
    let engines = engines_from(a)?;
    let mut reader = TraceReader::open(path, policy).map_err(trace_err)?;
    let mut cell = Cell::new(cache, &engines);
    // The first decode error the policy does not absorb ends the
    // stream; it is reported once the engines have stopped.
    let mut corrupt = None;
    let decode = |block: &mut Vec<TraceRecord>| {
        if let Err(e) = reader.fill_block(block, BLOCK_RECORDS) {
            corrupt = Some(e);
        }
    };
    drive_records_supervised(decode, &mut cell, &Budget::unlimited());
    if let Some(e) = corrupt {
        return Err(trace_err(e));
    }
    let results = cell.results(path);
    let mut out = result_block(&results, a.has_switch("csv"));
    if reader.records_skipped() > 0 {
        let _ = writeln!(out, "note: skipped {} corrupt record(s)", reader.records_skipped());
    }
    if reader.truncated() {
        let _ = writeln!(
            out,
            "note: trace truncated at the first corrupt record ({} of {} declared records read)",
            results.first().map_or(0, |r| r.instructions),
            reader.declared_records()
        );
    }
    Ok(out)
}

/// `nls set-pred`: fall-through way prediction accuracy (§4.2).
///
/// # Errors
///
/// Fails on malformed options.
pub fn set_pred(a: &ParsedArgs) -> Result<String, NlsError> {
    a.expect_only(&["bench", "cache", "len", "seed"])?;
    let benches = parse_benches(a.get("bench").unwrap_or("all"))?;
    let cache = parse_cache(a.get("cache").unwrap_or("16K:2"))?;
    let cfg = sweep_config(a)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<9} {:>14} {:>12} {:>10}",
        "program", "crossings", "mispredicts", "accuracy"
    );
    for p in benches {
        let program = synthesize(&p, &GenConfig::for_profile(&p));
        let trace = Walker::new(&program, cfg.seed).take(cfg.trace_len);
        let s = fallthrough_way_prediction(trace, cache);
        let _ = writeln!(
            out,
            "{:<9} {:>14} {:>12} {:>9.2}%",
            p.name,
            s.line_crossings,
            s.mispredicts,
            100.0 * s.accuracy()
        );
    }
    Ok(out)
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Propagates the subcommand's error, or reports an unknown
/// subcommand.
pub fn dispatch(a: &ParsedArgs) -> Result<String, NlsError> {
    match a.command.as_str() {
        "simulate" => simulate(a),
        "sweep" => sweep(a),
        "sweep-worker" => sweep_worker(a),
        "soak" => soak(a),
        "serve" => crate::serve::serve(a),
        "table1" => table1(a),
        "costs" => costs(a),
        "gen-trace" => gen_trace(a),
        "replay" => replay(a),
        "set-pred" => set_pred(a),
        "help" | "--help" => Ok(USAGE.to_string()),
        other => Err(CliError(format!("unknown subcommand {other:?}; try `nls help`")).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, NlsError> {
        dispatch(&ParsedArgs::parse(args.iter().copied()).unwrap())
    }

    #[cfg(unix)]
    fn shell(script: &str) -> Child {
        Command::new("sh").arg("-c").arg(script).spawn().expect("sh must spawn")
    }

    #[cfg(unix)]
    #[test]
    fn supervised_workers_report_every_exit_code() {
        let outputs =
            supervise_workers(vec![shell("exit 0"), shell("exit 7")], &CancelToken::new())
                .expect("both children are reaped");
        let mut codes: Vec<Option<i32>> = outputs.iter().map(|o| o.status.code()).collect();
        codes.sort();
        assert_eq!(codes, vec![Some(0), Some(7)]);
    }

    #[cfg(unix)]
    #[test]
    fn a_cancelled_token_sends_sigterm_to_a_running_worker() {
        use std::os::unix::process::ExitStatusExt;
        let token = CancelToken::new();
        token.cancel();
        let started = Instant::now();
        let outputs = supervise_workers(vec![shell("exec sleep 30")], &token)
            .expect("the child is reaped");
        assert_eq!(
            outputs.iter().map(|o| o.status.signal()).collect::<Vec<_>>(),
            vec![Some(15)]
        );
        assert!(started.elapsed() < Duration::from_secs(10), "SIGTERM must end the wait");
    }

    #[test]
    fn help_lists_subcommands() {
        let h = run(&["help"]).unwrap();
        for cmd in [
            "simulate",
            "sweep",
            "soak",
            "serve",
            "table1",
            "costs",
            "gen-trace",
            "replay",
            "set-pred",
        ] {
            assert!(h.contains(cmd), "usage should mention {cmd}");
        }
        assert!(h.contains("7 interrupted"), "usage should document exit code 7");
    }

    #[test]
    fn simulate_with_record_budget_reports_the_truncation() {
        let out = run(&[
            "simulate",
            "--bench",
            "li",
            "--cache",
            "8K:1",
            "--len",
            "50k",
            "--max-records",
            "10k",
        ])
        .unwrap();
        assert!(out.contains("stopped early"), "{out}");
        assert!(out.contains("record budget"), "{out}");
    }

    #[test]
    fn sweep_resume_without_a_ledger_is_a_usage_error() {
        let err = run(&["sweep", "--bench", "li", "--len", "10k", "--resume"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--resume needs --ledger"), "{err}");
    }

    #[test]
    fn the_default_worker_count_is_the_executor_count_and_is_forwarded() {
        let sweep = ["sweep", "--bench", "li", "--len", "10k", "--ledger", "/tmp/x.json"];
        let args = |extra: &[&'static str]| {
            ParsedArgs::parse(sweep.iter().chain(extra).copied()).unwrap()
        };
        let (runs, _) = sweep_grid(&args(&[])).unwrap();
        assert_eq!(runs.len(), 6, "li over the six paper caches");
        let forwarded = |a: &ParsedArgs, workers: usize| -> Vec<String> {
            let cmd = worker_command(Path::new("nls"), a, Path::new("/tmp/x.json"), 0, workers);
            let args: Vec<String> =
                cmd.get_args().map(|arg| arg.to_string_lossy().into_owned()).collect();
            args.windows(2).filter(|w| w[0] == "--workers").map(|w| w[1].clone()).collect()
        };
        let default = sweep_workers(&args(&[]), &runs).unwrap();
        assert_eq!(default, executor_count(runs.len()).min(64));
        assert_eq!(forwarded(&args(&[]), default), [default.to_string()]);
        let given = args(&["--workers", "3"]);
        assert_eq!(sweep_workers(&given, &runs).unwrap(), 3);
        assert_eq!(forwarded(&given, 3), ["3"], "a count the user gave is forwarded once");
    }

    #[test]
    fn distributed_sweep_flags_are_validated() {
        // Worker/lease knobs without a ledger to apply them to.
        for flag in [["--workers", "2"], ["--lease-ms", "100"], ["--max-attempts", "5"]] {
            let args = ["sweep", "--bench", "li", "--len", "10k", flag[0], flag[1]];
            let err = run(&args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}");
        }
        // Garbage knob values.
        for (flag, val) in [
            ("--workers", "0"),
            ("--workers", "many"),
            ("--lease-ms", "0"),
            ("--max-attempts", "0"),
        ] {
            let args = [
                "sweep",
                "--bench",
                "li",
                "--len",
                "10k",
                "--ledger",
                "/tmp/x.json",
                flag,
                val,
            ];
            let err = run(&args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}");
        }
    }

    #[test]
    fn kill_workers_flags_are_validated() {
        // Killing every worker (or none) defeats the drill.
        for kills in ["0", "3", "9"] {
            let err = run(&["soak", "--kill-workers", "--workers", "3", "--kills", kills])
                .unwrap_err();
            assert_eq!(err.exit_code(), 2, "--kills {kills}");
        }
        let err = run(&["soak", "--kill-workers", "--workers", "1"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "a one-worker drill has no survivor");
    }

    #[test]
    fn sweep_worker_drains_a_ledger_single_handedly() {
        use nls_core::{Ledger, LedgerFile, RunSpec, SweepConfig};

        let dir = std::env::temp_dir().join("nls-cli-worker-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.json");
        let _ = std::fs::remove_file(&path);
        let path_s = path.to_str().unwrap().to_string();

        let grid_args = [
            "sweep-worker",
            "--ledger",
            &path_s,
            "--worker-id",
            "w0",
            "--bench",
            "li",
            "--cache",
            "8K:1",
            "--cache",
            "8K:4",
            "--engine",
            "nls-table:512",
            "--len",
            "40k",
        ];

        // Against a missing ledger the worker fails with the ledger
        // class (exit 8) — it never invents one.
        let err = run(&grid_args).unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");

        // Seed the ledger the way the parent would, then drain it.
        let cfg = SweepConfig { trace_len: 40_000, seed: 0x0b5e_55ed };
        let benches = crate::args::parse_benches("li").unwrap();
        let caches = vec![
            crate::args::parse_cache("8K:1").unwrap(),
            crate::args::parse_cache("8K:4").unwrap(),
        ];
        let engines = vec![nls_core::EngineSpec::nls_table(512)];
        let runs = nls_core::cross(&benches, &caches, &engines);
        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg, 5_000, 3, runs.iter().map(RunSpec::key)), false).unwrap();

        let out = run(&grid_args).unwrap();
        assert!(out.is_empty(), "worker stdout belongs to the parent: {out:?}");
        let drained = file.read(&nls_core::CancelToken::new()).unwrap();
        let counts = drained.counts();
        assert_eq!(counts.done, 2, "{counts:?}");
        assert_eq!(counts.pending + counts.leased + counts.failed, 0, "{counts:?}");

        // The merged cells replay bit-for-bit against the direct run.
        let merged: Vec<_> = nls_core::merge_ledger_outcomes(&runs, &drained)
            .into_iter()
            .flat_map(|o| o.unwrap())
            .collect();
        assert_eq!(merged, nls_core::run_sweep(&runs, &cfg));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn soak_quick_matrix_is_healthy() {
        let out = run(&[
            "soak",
            "--cases",
            "2",
            "--len",
            "10k",
            "--faults",
            "3",
            "--max-stall-ms",
            "1",
        ])
        .unwrap();
        assert!(out.contains("soak: 2 cases"), "{out}");
        assert!(out.contains("healthy=yes"), "{out}");
    }

    #[test]
    fn budget_flags_reject_garbage() {
        for args in [
            ["simulate", "--bench", "li", "--deadline", "soon"],
            ["simulate", "--bench", "li", "--deadline", "0"],
            ["simulate", "--bench", "li", "--max-records", "none"],
            ["simulate", "--bench", "li", "--max-records", "18446744073709552k"],
            ["simulate", "--bench", "li", "--len", "18446744073709552k"],
            ["simulate", "--bench", "li", "--max-heap-mb", "big"],
            ["simulate", "--bench", "li", "--max-heap-mb", "0"],
        ] {
            let err = run(&args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}");
        }
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn simulate_produces_rows_for_each_engine() {
        let out = run(&[
            "simulate",
            "--bench",
            "li",
            "--cache",
            "8K:1",
            "--engine",
            "btb:128:1",
            "--engine",
            "nls-table:512",
            "--len",
            "50k",
        ])
        .unwrap();
        assert!(out.contains("128 direct BTB"));
        assert!(out.contains("512 NLS table"));
    }

    #[test]
    fn simulate_csv_mode() {
        let out =
            run(&["simulate", "--bench", "li", "--cache", "8K:1", "--len", "50k", "--csv"])
                .unwrap();
        assert!(out.starts_with("bench,cache,engine"));
        assert_eq!(out.lines().count(), 1 + 2, "header + two default engines");
    }

    #[test]
    fn simulate_rejects_unknown_option() {
        assert!(run(&["simulate", "--bogus", "1"]).is_err());
    }

    #[test]
    fn costs_reports_both_models() {
        let out = run(&["costs"]).unwrap();
        assert!(out.contains("RBE area"));
        assert!(out.contains("access time"));
        let custom = run(&["costs", "--cache-kb", "8"]).unwrap();
        assert!(custom.contains("8K cache"));
        assert!(!custom.contains("64K cache"));
    }

    #[test]
    fn table1_has_six_programs() {
        let out = run(&["table1", "--len", "100k"]).unwrap();
        for p in ["doduc", "espresso", "gcc", "li", "cfront", "groff"] {
            assert!(out.contains(p));
        }
    }

    #[test]
    fn gen_trace_then_replay_round_trips() {
        let path = std::env::temp_dir().join("nls_cli_test.nlst");
        let path_s = path.to_str().unwrap();
        let out =
            run(&["gen-trace", "--bench", "li", "--out", path_s, "--len", "30k"]).unwrap();
        assert!(out.contains("30000 records"));
        let replayed = run(&["replay", "--trace", path_s, "--cache", "8K:1"]).unwrap();
        assert!(replayed.contains("1024 NLS table"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn gen_trace_requires_a_single_benchmark() {
        let path = std::env::temp_dir().join("nls_cli_all.nlst");
        let err =
            run(&["gen-trace", "--bench", "all", "--out", path.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "naming `all` is a usage error");
        assert!(!path.exists(), "nothing may be written on a usage error");
    }

    #[test]
    fn replay_error_classes_match_the_taxonomy() {
        // Missing file: an I/O problem (6), not corruption.
        let err = run(&["replay", "--trace", "/nonexistent/trace.nlst"]).unwrap_err();
        assert_eq!(err.exit_code(), 6);

        // Garbage contents: corruption (3).
        let path = std::env::temp_dir().join("nls_cli_garbage.nlst");
        std::fs::write(&path, b"definitely not a trace").unwrap();
        let err = run(&["replay", "--trace", path.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 3);

        // Unknown policy: usage (2).
        let err = run(&["replay", "--trace", path.to_str().unwrap(), "--on-corrupt", "ignore"])
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn replay_policies_recover_corrupt_traces() {
        use nls_trace::{TRACE_HEADER_BYTES, TRACE_RECORD_BYTES};
        let path = std::env::temp_dir().join("nls_cli_corrupt.nlst");
        let path_s = path.to_str().unwrap().to_string();
        run(&["gen-trace", "--bench", "li", "--out", &path_s, "--len", "20k"]).unwrap();

        // Corrupt the kind tag of record 100.
        let mut data = std::fs::read(&path).unwrap();
        data[TRACE_HEADER_BYTES + 100 * TRACE_RECORD_BYTES] = 0xee;
        std::fs::write(&path, &data).unwrap();

        let err = run(&["replay", "--trace", &path_s]).unwrap_err();
        assert_eq!(err.exit_code(), 3, "default policy fails on corruption");

        let skipped = run(&["replay", "--trace", &path_s, "--on-corrupt", "skip"]).unwrap();
        assert!(skipped.contains("skipped 1 corrupt record"), "{skipped}");

        let truncated =
            run(&["replay", "--trace", &path_s, "--on-corrupt", "truncate"]).unwrap();
        assert!(truncated.contains("truncated at the first corrupt record"), "{truncated}");
        assert!(truncated.contains("100 of 20000"), "{truncated}");

        // A skip budget below the damage still fails as corrupt.
        let err = run(&["replay", "--trace", &path_s, "--on-corrupt", "skip:0"]).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn set_pred_reports_accuracy() {
        let out =
            run(&["set-pred", "--bench", "li", "--cache", "8K:2", "--len", "100k"]).unwrap();
        assert!(out.contains('%'));
        assert!(out.contains("li"));
    }
}
