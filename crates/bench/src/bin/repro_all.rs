//! Runs the complete reproduction: Table 1, Figures 3–8 and all
//! ablations, writing every CSV into `results/` and printing a
//! claim-by-claim verdict summary at the end.
//!
//! ```text
//! cargo run --release -p nls-bench --bin repro_all
//! cargo run --release -p nls-bench --bin repro_all -- --resume
//! NLS_TRACE_LEN=2_000_000 cargo run --release -p nls-bench --bin repro_all  # faster
//! ```
//!
//! The pipeline is fault tolerant and supervised: every figure
//! binary runs under a watchdog (`NLS_BENCH_TIMEOUT_SECS`, default
//! 600 s) and is retried with backoff before being skipped, with the
//! full attempt history in the pass/fail summary table at the end
//! (exit code 4 if any stage was skipped after its retries). The
//! verdict sweep is durable: its threads publish each completed
//! (benchmark × cache × engine) cell to the work ledger
//! `results/repro_ledger.json`; pass `--resume` to continue that
//! ledger after an interruption instead of recomputing its cells
//! (without it the ledger starts fresh, and a clean run deletes it).
//! SIGINT/SIGTERM stops the pipeline cooperatively — the in-flight
//! stage is killed, the sweep's cells in flight are released to the
//! ledger — and exits with code 7.

use std::process::Command;
use std::time::{Duration, Instant};

use nls_bench::{fmt, ledger_path, parse_timeout_secs, sweep_config, Table};
use nls_core::{
    average, cross, install_signal_token, paper_caches, run_sweep_supervised, Budget,
    CancelToken, EngineSpec, Ledger, LedgerFile, NlsError, PenaltyModel, RunError, RunSpec,
    SimResult, DEFAULT_LEASE_MS, DEFAULT_MAX_ATTEMPTS,
};
use nls_icache::CacheConfig;
use nls_trace::BenchProfile;

/// Retry ceiling per stage binary: one initial try plus two retries.
const MAX_ATTEMPTS: u64 = 3;

/// The per-stage watchdog limit, from `NLS_BENCH_TIMEOUT_SECS`
/// (default 600 s — generous for a release-mode figure, short enough
/// that a hung stage cannot stall the pipeline overnight).
/// Validated strictly, once, before any stage runs: a set-but-broken
/// value (non-numeric, zero) is a usage error, not a silent fallback
/// to the default.
fn stage_timeout() -> Result<Duration, String> {
    let raw = std::env::var("NLS_BENCH_TIMEOUT_SECS").ok();
    parse_timeout_secs(raw.as_deref(), 600).map(Duration::from_secs)
}

/// One try at a stage binary, as the watchdog saw it end.
enum Attempt {
    Ok,
    Failed(String),
    TimedOut(u64),
    Cancelled,
}

/// Spawns a sibling experiment binary under the watchdog: polls for
/// exit, kills the child when the timeout trips or a signal asked
/// the pipeline to stop.
fn run_binary_once(name: &str, token: &CancelToken, timeout: Duration) -> Attempt {
    println!("\n################ {name} ################\n");
    let mut child = match Command::new(env!("CARGO"))
        .args(["run", "--release", "-q", "-p", "nls-bench", "--bin", name])
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return Attempt::Failed(format!("failed to spawn: {e}")),
    };
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Attempt::Ok,
            Ok(Some(status)) => return Attempt::Failed(format!("exited with {status}")),
            Ok(None) => {}
            Err(e) => return Attempt::Failed(format!("could not poll: {e}")),
        }
        if token.is_cancelled() {
            let _ = child.kill();
            let _ = child.wait();
            return Attempt::Cancelled;
        }
        if started.elapsed() >= timeout {
            let _ = child.kill();
            let _ = child.wait();
            return Attempt::TimedOut(timeout.as_secs());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A stage after the watchdog and the retry policy had their say.
struct Stage {
    ok: bool,
    cancelled: bool,
    /// The attempt/backoff history, for the summary table.
    history: String,
}

/// Runs one stage with bounded retry and linear backoff, recording
/// every attempt so the summary can show *how* a stage passed or why
/// it was skipped.
fn run_stage(name: &str, token: &CancelToken, timeout: Duration) -> Stage {
    let mut history: Vec<String> = Vec::new();
    for attempt in 1..=MAX_ATTEMPTS {
        match run_binary_once(name, token, timeout) {
            Attempt::Ok => {
                history.push(format!("attempt {attempt}: ok"));
                return Stage { ok: true, cancelled: false, history: history.join("; ") };
            }
            Attempt::Cancelled => {
                history.push(format!("attempt {attempt}: interrupted by signal"));
                return Stage { ok: false, cancelled: true, history: history.join("; ") };
            }
            Attempt::Failed(e) => history.push(format!("attempt {attempt}: {e}")),
            Attempt::TimedOut(secs) => {
                history.push(format!("attempt {attempt}: killed by the {secs}s watchdog"));
            }
        }
        if attempt < MAX_ATTEMPTS {
            let backoff = Duration::from_secs(attempt);
            eprintln!(
                "error[run]: {name}: {}; retrying in {}s",
                history.last().map(String::as_str).unwrap_or("failed"),
                backoff.as_secs()
            );
            std::thread::sleep(backoff);
            history.push(format!("backed off {}s", backoff.as_secs()));
            if token.is_cancelled() {
                history.push("interrupted by signal".into());
                return Stage { ok: false, cancelled: true, history: history.join("; ") };
            }
        }
    }
    history.push("skipped".into());
    Stage { ok: false, cancelled: false, history: history.join("; ") }
}

/// Prints the interruption diagnostic and exits with code 7, the
/// same contract as `nls sweep` (completed work is preserved; rerun
/// with `--resume` to continue).
fn exit_interrupted(summary: &Table, detail: &str) -> ! {
    println!();
    summary.print();
    let e = NlsError::Interrupted(format!(
        "reproduction stopped by signal; {detail} — rerun with --resume to continue"
    ));
    eprintln!("error[{}]: {e}", e.class());
    std::process::exit(i32::from(e.exit_code()));
}

/// `Some((a, b))` only when both averages are available.
fn both(a: Option<f64>, b: Option<f64>) -> Option<(f64, f64)> {
    Some((a?, b?))
}

fn main() {
    let mut resume = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--resume" => resume = true,
            other => {
                eprintln!(
                    "error[usage]: unknown argument {other:?} (only --resume is supported)"
                );
                std::process::exit(2);
            }
        }
    }

    let timeout = match stage_timeout() {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("error[usage]: {msg}");
            std::process::exit(2);
        }
    };

    let token = install_signal_token();
    let mut summary = Table::new("Reproduction pipeline", &["stage", "status", "history"]);
    let mut failures: Vec<String> = Vec::new();
    for bin in [
        "table1",
        "fig3_rbe",
        "fig4_nls_bep",
        "fig5_btb_bep",
        "fig6_access_time",
        "fig7_per_program",
        "fig8_cpi",
        "attribution",
        "ablation_johnson",
        "ablation_pht",
        "ablation_nls_cache_layout",
        "ablation_btb_policy",
        "ablation_trace_len",
        "ablation_penalties",
        "ext_code_layout",
        "ext_wide_issue",
        "ext_type_predictor",
        "ext_set_prediction",
    ] {
        let stage = run_stage(bin, &token, timeout);
        if stage.ok {
            summary.row(vec![bin.into(), "ok".into(), stage.history]);
        } else if stage.cancelled {
            summary.row(vec![bin.into(), "INTERRUPTED".into(), stage.history]);
            exit_interrupted(&summary, "the figure stages before this one are complete");
        } else {
            eprintln!(
                "error[run]: {bin}: skipped after {MAX_ATTEMPTS} attempts; continuing with \
                 the remaining figures"
            );
            summary.row(vec![bin.into(), "SKIPPED".into(), stage.history.clone()]);
            failures.push(format!("{bin}: {}", stage.history));
        }
    }

    // Claim-by-claim verdicts on the headline comparison. Each
    // (benchmark × cache × engine) cell is its own run so the
    // ledger can resume at single-cell granularity.
    println!("\n################ verdicts ################\n");
    let cfg = sweep_config();
    let m = PenaltyModel::paper();
    let engines = [
        EngineSpec::btb(128, 1),
        EngineSpec::btb(256, 4),
        EngineSpec::nls_table(1024),
        EngineSpec::nls_cache(2),
    ];
    let mut runs: Vec<RunSpec> = Vec::new();
    for e in &engines {
        runs.extend(cross(&BenchProfile::all(), &paper_caches(), std::slice::from_ref(e)));
    }

    let path = ledger_path();
    if !resume {
        let _ = std::fs::remove_file(&path);
    }
    let file = LedgerFile::new(&path);
    let fresh = Ledger::new(
        &cfg,
        DEFAULT_LEASE_MS,
        DEFAULT_MAX_ATTEMPTS,
        runs.iter().map(RunSpec::key),
    );
    let budget = Budget::unlimited().with_cancel(token.clone());
    let sweep = file
        .init(fresh, resume)
        .and_then(|_| run_sweep_supervised(&runs, &cfg, &budget, Some(&file)));
    let outcomes = match sweep {
        Ok(outcomes) => outcomes,
        Err(e) => {
            eprintln!("error[{}]: {e}", e.class());
            std::process::exit(i32::from(e.exit_code()));
        }
    };
    let mut results: Vec<SimResult> = Vec::new();
    let mut sweep_failures = 0usize;
    let mut interrupted = 0usize;
    for (run, outcome) in runs.iter().zip(outcomes) {
        match outcome {
            // A sweep's outcomes are complete: a run a budget cut
            // short merges as interrupted.
            Ok(cell) => results.extend(cell),
            Err(RunError::Interrupted { .. }) => interrupted += 1,
            Err(e) => {
                eprintln!("error[run]: {e}; verdicts will exclude {}", run.key());
                failures.push(format!("verdict sweep: {}", run.key()));
                sweep_failures += 1;
            }
        }
    }
    if interrupted > 0 || token.is_cancelled() {
        summary.row(vec![
            "verdict sweep".into(),
            "INTERRUPTED".into(),
            format!("{} of {} runs done", runs.len() - interrupted, runs.len()),
        ]);
        exit_interrupted(
            &summary,
            &format!("completed sweep cells are in the ledger at {}", path.display()),
        );
    }
    summary.row(vec![
        "verdict sweep".into(),
        if sweep_failures == 0 {
            "ok".into()
        } else {
            format!("FAILED ({sweep_failures} of {} runs)", runs.len())
        },
        format!("{} of {} runs", runs.len() - sweep_failures, runs.len()),
    ]);

    let avg_bep = |engine: &str, cache: CacheConfig| -> Option<f64> {
        let per: Vec<_> = results
            .iter()
            .filter(|r| r.engine == engine && r.cache == cache.label())
            .cloned()
            .collect();
        if per.is_empty() {
            None
        } else {
            Some(average(&per).bep(&m))
        }
    };

    let mut verdicts =
        Table::new("Paper claims vs this reproduction", &["claim", "verdict", "evidence"]);
    let mut claim = |title: &str, outcome: Option<(String, String)>| {
        let (verdict, evidence) = outcome
            .unwrap_or_else(|| ("NO DATA".into(), "failed runs excluded (see stderr)".into()));
        verdicts.row(vec![title.into(), verdict, evidence]);
    };
    let c16 = CacheConfig::paper(16, 1);
    let c8 = CacheConfig::paper(8, 1);
    let c32 = CacheConfig::paper(32, 4);

    let nls16 = avg_bep("1024 NLS table", c16);
    let btb128 = avg_bep("128 direct BTB", c16);
    claim(
        "1024 NLS-table beats equal-cost 128 direct BTB",
        both(nls16, btb128).map(|(n, b)| {
            (
                if n < b { "HOLDS" } else { "FAILS" }.into(),
                format!("BEP {} vs {}", fmt(n, 3), fmt(b, 3)),
            )
        }),
    );

    let btb256 = avg_bep("256 4-way BTB", c16);
    claim(
        "1024 NLS-table ~ 256 4-way BTB at half the cost",
        both(nls16, btb256).map(|(n, b)| {
            (
                if (n - b).abs() / b < 0.12 { "HOLDS" } else { "CHECK" }.into(),
                format!("BEP {} vs {}", fmt(n, 3), fmt(b, 3)),
            )
        }),
    );

    let cache16 = avg_bep("NLS cache (2/line)", c16);
    claim(
        "NLS-table beats equal-cost NLS-cache",
        both(nls16, cache16).map(|(n, c)| {
            (
                if n < c { "HOLDS" } else { "FAILS" }.into(),
                format!("BEP {} vs {}", fmt(n, 3), fmt(c, 3)),
            )
        }),
    );

    let nls8 = avg_bep("1024 NLS table", c8);
    let nls32 = avg_bep("1024 NLS table", c32);
    claim(
        "NLS BEP falls with cache size/associativity",
        both(nls8, nls32).map(|(n8, n32)| {
            (
                if n32 < n8 { "HOLDS" } else { "FAILS" }.into(),
                format!("BEP 8K-direct {} -> 32K-4way {}", fmt(n8, 3), fmt(n32, 3)),
            )
        }),
    );

    let btb128_8 = avg_bep("128 direct BTB", c8);
    let btb128_32 = avg_bep("128 direct BTB", c32);
    claim(
        "BTB BEP is insensitive to the cache",
        both(btb128_8, btb128_32).map(|(b8, b32)| {
            (
                if (b8 - b32).abs() < 0.02 { "HOLDS" } else { "FAILS" }.into(),
                format!("BEP {} vs {}", fmt(b8, 3), fmt(b32, 3)),
            )
        }),
    );

    verdicts.print();
    verdicts.save("verdicts");

    println!();
    summary.print();
    if failures.is_empty() {
        // A clean run leaves no ledger behind.
        let _ = std::fs::remove_file(&path);
        println!("\nall results written under results/");
    } else {
        eprintln!("\n{} stage(s) skipped after retries:", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        eprintln!("rerun with --resume to skip completed sweep cells");
        std::process::exit(4);
    }
}
