//! The chaos/soak harness: supervised runs under injected runtime
//! faults.
//!
//! A soak case synthesises a workload, splices a seeded
//! [`RuntimeFault`] plan (read stalls, mid-stream I/O failures) into
//! its read path with [`ChaosStream`], and drives all four fetch
//! engines under a [`Budget`]. The harness then *classifies* what
//! happened — and the classification is the robustness contract:
//!
//! * [`SoakVerdict::Complete`] — the whole trace was simulated;
//! * [`SoakVerdict::Degraded`] — a budget limit tripped and the
//!   partial counters are oracle-valid;
//! * [`SoakVerdict::FailedCleanly`] — an injected I/O error surfaced
//!   as an error value, with oracle-valid counters for the prefix.
//!
//! Nothing else is acceptable: a hang would blow the case deadline,
//! a panic would fail the harness itself. Seeds fully determine the
//! fault plan (see [`ChaosScheduler`]), so any failing case can be
//! replayed from its seed alone.

use std::time::Duration;

use nls_icache::CacheConfig;
use nls_trace::faults::{ChaosScheduler, ChaosStream, RuntimeFault};
use nls_trace::{synthesize, BenchProfile, GenConfig, Walker};

use crate::budget::{Budget, StopReason};
use crate::front_end::Cell;
use crate::oracle::invariant_violations;
use crate::spec::EngineSpec;

/// How hard a soak run leans on the simulator.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Number of seeded cases to run.
    pub cases: u64,
    /// Seed of the first case; case `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Records per case before faults.
    pub trace_len: usize,
    /// Runtime faults planned per case.
    pub faults_per_case: usize,
    /// Upper bound on a single injected stall.
    pub max_stall_millis: u64,
    /// Wall-clock deadline per case (deadline pressure).
    pub deadline: Option<Duration>,
    /// Record budget per case.
    pub max_records: Option<u64>,
}

impl SoakConfig {
    /// The small blocking matrix CI runs on every PR: a few seconds
    /// of wall clock, every fault kind exercised.
    pub fn quick() -> Self {
        SoakConfig {
            cases: 6,
            base_seed: 1,
            trace_len: 20_000,
            faults_per_case: 4,
            max_stall_millis: 2,
            deadline: Some(Duration::from_secs(10)),
            max_records: None,
        }
    }
}

/// How one soak case ended. These three variants are the *only*
/// permitted endings — see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub enum SoakVerdict {
    /// The full trace was simulated despite the injected faults.
    Complete,
    /// A budget limit stopped the case cooperatively.
    Degraded(StopReason),
    /// An injected I/O error surfaced as an error value (no panic,
    /// no hang); the message says what broke.
    FailedCleanly(String),
}

/// One executed soak case.
#[derive(Debug, Clone)]
pub struct SoakCase {
    /// The case seed (replays the exact fault plan and workload).
    pub seed: u64,
    /// Which synthetic benchmark the case ran.
    pub bench: String,
    /// How the case ended.
    pub verdict: SoakVerdict,
    /// Records simulated before the ending.
    pub instructions: u64,
    /// Oracle findings against the per-engine counters (must be
    /// empty — degraded and failed cases included).
    pub oracle_findings: Vec<String>,
}

/// The aggregated result of a soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Every executed case, in seed order.
    pub cases: Vec<SoakCase>,
}

impl SoakReport {
    /// Cases that simulated their whole trace.
    pub fn complete_count(&self) -> usize {
        self.cases.iter().filter(|c| c.verdict == SoakVerdict::Complete).count()
    }

    /// Cases stopped by a budget limit.
    pub fn degraded_count(&self) -> usize {
        self.cases.iter().filter(|c| matches!(c.verdict, SoakVerdict::Degraded(_))).count()
    }

    /// Cases ended by an injected I/O error.
    pub fn failed_count(&self) -> usize {
        self.cases.iter().filter(|c| matches!(c.verdict, SoakVerdict::FailedCleanly(_))).count()
    }

    /// True when every case ended in one of the three permitted
    /// verdicts *and* every case's counters are oracle-valid. (The
    /// verdict half is structural — a panic or hang never builds a
    /// report — so this reduces to the oracle half.)
    pub fn is_healthy(&self) -> bool {
        self.cases.iter().all(|c| c.oracle_findings.is_empty())
    }

    /// A human-readable summary, one line per case.
    pub fn render(&self) -> String {
        let mut out = format!(
            "soak: {} cases — {} complete, {} degraded, {} failed-cleanly, healthy={}\n",
            self.cases.len(),
            self.complete_count(),
            self.degraded_count(),
            self.failed_count(),
            if self.is_healthy() { "yes" } else { "NO" },
        );
        for c in &self.cases {
            let ending = match &c.verdict {
                SoakVerdict::Complete => "complete".to_string(),
                SoakVerdict::Degraded(reason) => format!("degraded: {reason}"),
                SoakVerdict::FailedCleanly(msg) => format!("failed cleanly: {msg}"),
            };
            out.push_str(&format!(
                "  seed {} [{}] {} ({} records)\n",
                c.seed, c.bench, ending, c.instructions
            ));
            for f in &c.oracle_findings {
                out.push_str(&format!("    ORACLE: {f}\n"));
            }
        }
        out
    }
}

/// Result of one worker-death chaos drill (`nls soak
/// --kill-workers`): a multi-process sweep over a shared work ledger
/// where a seeded selection of workers is SIGKILLed mid-run, ledger
/// lock contention is injected, and the survivors must reclaim every
/// orphaned lease. The orchestration lives in the CLI (it spawns
/// worker processes of the `nls` binary); this type is the verdict
/// contract it must satisfy.
#[derive(Debug, Clone)]
pub struct WorkerSoakReport {
    /// Worker processes spawned.
    pub workers: usize,
    /// Zero-based indices of the workers actually SIGKILLed, in kill
    /// order, each with the cells it held a lease on when killed (a
    /// claim can hold several).
    pub killed: Vec<(u64, Vec<String>)>,
    /// Planned victims never killed: never seen holding a lease
    /// before they exited.
    pub missed: Vec<u64>,
    /// Cells in the sweep grid.
    pub cells: usize,
    /// Cells the ledger recorded as done.
    pub done: usize,
    /// Cells that exhausted their retry budget.
    pub failed: usize,
    /// Cells never completed (still pending or leased at the end).
    pub unfinished: usize,
    /// Whether the merged per-cell metrics equal the single-process
    /// reference bit for bit.
    pub matches_reference: bool,
    /// Oracle findings across every merged result (must be empty).
    pub oracle_findings: Vec<String>,
}

impl WorkerSoakReport {
    /// Healthy means every planned kill landed and the kills cost
    /// nothing: every cell done, none failed or abandoned, the merged
    /// metrics bit-identical to the single-process reference, and the
    /// oracle silent. A drill whose victims were never killed proved
    /// nothing, so it is not healthy.
    pub fn is_healthy(&self) -> bool {
        self.missed.is_empty()
            && self.done == self.cells
            && self.failed == 0
            && self.unfinished == 0
            && self.matches_reference
            && self.oracle_findings.is_empty()
    }

    /// A compact, deterministic summary block in the style of
    /// [`SoakReport::render`].
    pub fn render(&self) -> String {
        fn names(ws: impl Iterator<Item = u64>) -> String {
            ws.map(|w| format!("w{w}")).collect::<Vec<_>>().join(", ")
        }
        let mut out = format!(
            "worker soak: {} workers, killed [{}] — {} cells: {} done, {} failed, {} unfinished, healthy={}\n",
            self.workers,
            names(self.killed.iter().map(|(w, _)| *w)),
            self.cells,
            self.done,
            self.failed,
            self.unfinished,
            if self.is_healthy() { "yes" } else { "NO" },
        );
        for (w, held) in &self.killed {
            out.push_str(&format!("  w{w} held [{}] when killed\n", held.join(", ")));
        }
        if !self.missed.is_empty() {
            out.push_str(&format!(
                "  planned kills that never landed: [{}]\n",
                names(self.missed.iter().copied())
            ));
        }
        out.push_str(&format!(
            "  merged metrics match single-process reference: {}\n",
            if self.matches_reference { "yes" } else { "NO" }
        ));
        if self.oracle_findings.is_empty() {
            out.push_str("  oracle: clean\n");
        }
        for f in &self.oracle_findings {
            out.push_str(&format!("  ORACLE: {f}\n"));
        }
        out
    }
}

/// Result of one server chaos drill (`nls soak --server`): a live
/// `nls serve` daemon under seeded request floods, stalled
/// connections, a mid-job SIGKILL + `--resume` restart, and a final
/// SIGTERM drain. The orchestration lives in the CLI (it spawns
/// server processes of the `nls` binary); this type is the verdict
/// contract it must satisfy.
#[derive(Debug, Clone, Default)]
pub struct ServeSoakReport {
    /// HTTP submissions fired at the daemon.
    pub requests: usize,
    /// Jobs the daemon acknowledged with `202 Accepted`.
    pub accepted: usize,
    /// Accepted jobs that reached `done` (must equal `accepted`).
    pub completed: usize,
    /// Submissions answered `200` inline from the result cache.
    pub direct_hits: usize,
    /// Submissions shed with `429`/`503`.
    pub shed: usize,
    /// Sheds missing their `Retry-After` header (must be zero).
    pub malformed_sheds: usize,
    /// Deliberately stalled client connections the daemon timed out.
    pub stalled_clients: usize,
    /// Server processes SIGKILLed mid-job.
    pub server_kills: usize,
    /// Socket-level failures (tolerated: the SIGKILL makes some
    /// connection resets legitimate).
    pub connect_errors: usize,
    /// Served results that differ bit-for-bit from in-process runs
    /// of the same `(profile, config, seed)` (must be empty).
    pub parity_failures: Vec<String>,
    /// Protocol violations: wrong statuses, hangs, unparseable
    /// bodies (must be empty).
    pub protocol_errors: Vec<String>,
    /// Oracle findings across every served result (must be empty).
    pub oracle_findings: Vec<String>,
    /// Whether the final SIGTERM drained the daemon with exit 7.
    pub drain_exit_ok: bool,
}

impl ServeSoakReport {
    /// Healthy means the chaos cost nothing an operator would see:
    /// overload shed (with retry advice), every accepted job
    /// completed bit-identically to an in-process run, the oracle
    /// stayed silent, and SIGTERM drained cleanly with exit 7.
    pub fn is_healthy(&self) -> bool {
        self.accepted > 0
            && self.completed == self.accepted
            && self.shed > 0
            && self.malformed_sheds == 0
            && self.parity_failures.is_empty()
            && self.protocol_errors.is_empty()
            && self.oracle_findings.is_empty()
            && self.drain_exit_ok
    }

    /// A compact, deterministic summary block in the style of
    /// [`SoakReport::render`].
    pub fn render(&self) -> String {
        let mut out = format!(
            "serve soak: {} requests — {} accepted, {} completed, {} direct, {} shed, {} \
             stalled clients, {} server kill(s), healthy={}\n",
            self.requests,
            self.accepted,
            self.completed,
            self.direct_hits,
            self.shed,
            self.stalled_clients,
            self.server_kills,
            if self.is_healthy() { "yes" } else { "NO" },
        );
        out.push_str(&format!(
            "  drain on SIGTERM exited 7: {}\n",
            if self.drain_exit_ok { "yes" } else { "NO" }
        ));
        if self.malformed_sheds > 0 {
            out.push_str(&format!(
                "  SHED WITHOUT Retry-After: {} response(s)\n",
                self.malformed_sheds
            ));
        }
        if self.connect_errors > 0 {
            out.push_str(&format!("  tolerated connect errors: {}\n", self.connect_errors));
        }
        if self.parity_failures.is_empty() {
            out.push_str("  parity with in-process runs: bit-for-bit\n");
        }
        for p in &self.parity_failures {
            out.push_str(&format!("  PARITY: {p}\n"));
        }
        for p in &self.protocol_errors {
            out.push_str(&format!("  PROTOCOL: {p}\n"));
        }
        if self.oracle_findings.is_empty() {
            out.push_str("  oracle: clean\n");
        }
        for f in &self.oracle_findings {
            out.push_str(&format!("  ORACLE: {f}\n"));
        }
        out
    }
}

/// Runs `cfg.cases` seeded chaos cases and aggregates the verdicts.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let cases = (0..cfg.cases).map(|i| run_case(cfg, cfg.base_seed.wrapping_add(i))).collect();
    SoakReport { cases }
}

/// Runs the single case identified by `seed` (the fault plan, the
/// workload and the walk all derive from it).
pub fn run_case(cfg: &SoakConfig, seed: u64) -> SoakCase {
    let plan = ChaosScheduler::new(seed).plan(
        cfg.trace_len as u64,
        cfg.faults_per_case,
        cfg.max_stall_millis,
    );
    execute_case(cfg, seed, plan)
}

/// The soak engine roster: all four fetch architectures, so a chaos
/// case exercises every engine's hooks.
fn soak_engines() -> [EngineSpec; 4] {
    [
        EngineSpec::btb(128, 1),
        EngineSpec::nls_table(1024),
        EngineSpec::nls_cache(2),
        EngineSpec::Johnson { preds_per_line: 2 },
    ]
}

fn case_budget(cfg: &SoakConfig) -> Budget {
    let mut budget = Budget::unlimited();
    if let Some(deadline) = cfg.deadline {
        budget = budget.with_deadline(deadline);
    }
    if let Some(max) = cfg.max_records {
        budget = budget.with_max_records(max);
    }
    budget
}

fn execute_case(cfg: &SoakConfig, seed: u64, plan: Vec<RuntimeFault>) -> SoakCase {
    let benches = BenchProfile::all();
    let bench = benches[(seed % benches.len() as u64) as usize].clone();
    let gen_cfg = GenConfig::for_profile(&bench);
    let program = synthesize(&bench, &gen_cfg);
    let walker = Walker::new(&program, seed);
    let mut cell = Cell::new(CacheConfig::paper(8, 1), &soak_engines());
    let budget = case_budget(cfg);

    let heap = cell.approx_heap_bytes();
    let mut done: u64 = 0;
    let mut verdict = SoakVerdict::Complete;
    for item in ChaosStream::new(walker.take(cfg.trace_len), plan) {
        if let Err(reason) = budget.check(done, heap) {
            verdict = SoakVerdict::Degraded(reason);
            break;
        }
        match item {
            Ok(r) => {
                cell.step(&r);
                done += 1;
            }
            Err(e) => {
                verdict = SoakVerdict::FailedCleanly(e.to_string());
                break;
            }
        }
    }

    let results = cell.results(bench.name);
    let oracle_findings = results.iter().flat_map(invariant_violations).collect();
    SoakCase {
        seed,
        bench: bench.name.to_string(),
        verdict,
        instructions: done,
        oracle_findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SoakConfig {
        SoakConfig {
            cases: 3,
            base_seed: 10,
            trace_len: 5_000,
            faults_per_case: 0,
            max_stall_millis: 1,
            deadline: None,
            max_records: None,
        }
    }

    #[test]
    fn faultless_soak_completes_every_case() {
        let report = run_soak(&tiny());
        assert!(report.is_healthy());
        assert_eq!(report.complete_count(), 3);
        for c in &report.cases {
            assert_eq!(c.verdict, SoakVerdict::Complete);
            assert_eq!(c.instructions, 5_000);
        }
    }

    #[test]
    fn injected_io_error_fails_cleanly_with_valid_prefix_counters() {
        let plan = vec![RuntimeFault::IoError { after_records: 100 }];
        let case = execute_case(&tiny(), 10, plan);
        assert!(matches!(case.verdict, SoakVerdict::FailedCleanly(_)), "{:?}", case.verdict);
        assert_eq!(case.instructions, 100);
        assert!(case.oracle_findings.is_empty(), "{:?}", case.oracle_findings);
    }

    #[test]
    fn record_budget_degrades_with_valid_partial_counters() {
        let cfg = SoakConfig { max_records: Some(1_000), ..tiny() };
        let case = run_case(&cfg, 11);
        assert_eq!(
            case.verdict,
            SoakVerdict::Degraded(StopReason::RecordLimit { limit: 1_000 })
        );
        assert_eq!(case.instructions, 1_000);
        assert!(case.oracle_findings.is_empty(), "{:?}", case.oracle_findings);
    }

    #[test]
    fn aggressive_deadline_terminates_within_the_grace_window() {
        // The acceptance bound: a chaos case under an already-hostile
        // stall plan must stop within deadline + 1 s.
        let cfg = SoakConfig {
            trace_len: 500_000,
            deadline: Some(Duration::from_millis(30)),
            ..tiny()
        };
        let plan = vec![RuntimeFault::ReadStall { after_records: 10, millis: 100 }];
        // This test measures real wall-clock on purpose.
        let started = std::time::Instant::now();
        let case = execute_case(&cfg, 12, plan);
        let elapsed = started.elapsed();
        assert!(
            matches!(case.verdict, SoakVerdict::Degraded(StopReason::DeadlineExceeded { .. })),
            "{:?}",
            case.verdict
        );
        assert!(
            elapsed < Duration::from_millis(30) + Duration::from_secs(1),
            "took {elapsed:?}, deadline grace is 1 s"
        );
        assert!(case.oracle_findings.is_empty(), "{:?}", case.oracle_findings);
    }

    #[test]
    fn same_seed_reproduces_the_same_case() {
        let cfg = SoakConfig { faults_per_case: 3, ..tiny() };
        let a = run_case(&cfg, 42);
        let b = run_case(&cfg, 42);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.bench, b.bench);
    }

    #[test]
    fn worker_soak_report_judges_and_renders_the_drill() {
        let mut report = WorkerSoakReport {
            workers: 3,
            killed: vec![(
                1,
                vec!["li | 8K direct | e".to_string(), "li | 8K 4-way | e".to_string()],
            )],
            missed: Vec::new(),
            cells: 12,
            done: 12,
            failed: 0,
            unfinished: 0,
            matches_reference: true,
            oracle_findings: Vec::new(),
        };
        assert!(report.is_healthy());
        let text = report.render();
        assert!(text.contains("killed [w1]"), "{text}");
        assert!(
            text.contains("w1 held [li | 8K direct | e, li | 8K 4-way | e] when killed"),
            "{text}"
        );
        assert!(text.contains("healthy=yes"), "{text}");
        assert!(text.contains("oracle: clean"), "{text}");

        // Any abandoned cell, divergence, or oracle finding flips it.
        report.done = 11;
        report.unfinished = 1;
        assert!(!report.is_healthy());
        report.done = 12;
        report.unfinished = 0;
        report.matches_reference = false;
        assert!(!report.is_healthy());
        assert!(report.render().contains("reference: NO"), "{}", report.render());
        report.matches_reference = true;
        report.oracle_findings.push("breaks exceed instructions".into());
        assert!(!report.is_healthy());
        assert!(report.render().contains("ORACLE:"), "{}", report.render());
    }

    #[test]
    fn a_planned_kill_that_never_landed_fails_the_drill() {
        // A drill that kills nobody proves nothing, even when every
        // cell finished and the merge matches the reference.
        let mut report = WorkerSoakReport {
            workers: 4,
            killed: Vec::new(),
            missed: vec![1, 3],
            cells: 12,
            done: 12,
            failed: 0,
            unfinished: 0,
            matches_reference: true,
            oracle_findings: Vec::new(),
        };
        assert!(!report.is_healthy());
        let text = report.render();
        assert!(text.contains("killed [] — 12 cells: 12 done"), "{text}");
        assert!(text.contains("healthy=NO"), "{text}");
        assert!(text.contains("planned kills that never landed: [w1, w3]"), "{text}");
        let held = || vec!["gcc | 8K direct | e".to_string()];
        report.killed = vec![(3, held())];
        report.missed = vec![1];
        assert!(!report.is_healthy(), "{}", report.render());
        report.killed = vec![(3, held()), (1, held())];
        report.missed.clear();
        assert!(report.is_healthy(), "{}", report.render());
        assert!(!report.render().contains("never landed"), "{}", report.render());
    }

    #[test]
    fn serve_soak_report_judges_and_renders_the_drill() {
        let mut report = ServeSoakReport {
            requests: 20,
            accepted: 5,
            completed: 5,
            direct_hits: 3,
            shed: 12,
            stalled_clients: 2,
            server_kills: 1,
            drain_exit_ok: true,
            ..ServeSoakReport::default()
        };
        assert!(report.is_healthy());
        let text = report.render();
        assert!(text.contains("5 accepted, 5 completed"), "{text}");
        assert!(text.contains("healthy=yes"), "{text}");
        assert!(text.contains("bit-for-bit"), "{text}");
        assert!(text.contains("oracle: clean"), "{text}");

        // A dropped accepted job, a shed without retry advice, a
        // parity break, or a botched drain each flips the verdict.
        report.completed = 4;
        assert!(!report.is_healthy());
        report.completed = 5;
        report.malformed_sheds = 1;
        assert!(!report.is_healthy());
        assert!(report.render().contains("SHED WITHOUT Retry-After"), "{}", report.render());
        report.malformed_sheds = 0;
        report.parity_failures.push("job 3 differs".into());
        assert!(!report.is_healthy());
        assert!(report.render().contains("PARITY:"), "{}", report.render());
        report.parity_failures.clear();
        report.drain_exit_ok = false;
        assert!(!report.is_healthy());
        assert!(report.render().contains("exited 7: NO"), "{}", report.render());
        report.drain_exit_ok = true;
        report.shed = 0;
        assert!(!report.is_healthy(), "a drill that never sheds proved nothing");
    }

    #[test]
    fn quick_matrix_is_healthy_and_renders() {
        let report = run_soak(&SoakConfig { cases: 2, ..SoakConfig::quick() });
        assert!(report.is_healthy(), "{}", report.render());
        let text = report.render();
        assert!(text.contains("soak: 2 cases"));
        assert!(text.contains("healthy=yes"));
    }
}
