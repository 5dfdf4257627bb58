//! The simulation-service core behind `nls serve` (DESIGN.md §8.3):
//! job registry, bounded admission queue, drain state machine, and
//! the content-addressed result cache.
//!
//! The HTTP layer lives in the CLI crate; everything stateful and
//! testable lives here. A *job* is one simulate/sweep request: a
//! [`JobSpec`] (domain selectors as strings, validated by the CLI's
//! parsers before admission), the [`JobLimits`] its budget runs
//! under (request limits clamped to server policy), and a
//! [`JobStatus`] that walks
//!
//! ```text
//! Queued ──claim──▶ Running ──▶ Done
//!    ▲                │  │
//!    │   retry w/ backoff  └──▶ Failed (attempts spent / run error)
//!    └── drain checkpoint (re-queued, persisted for --resume)
//! ```
//!
//! Admission is load-shedding by construction: the queue is bounded,
//! a full queue sheds with retry-after advice (HTTP 429 upstream),
//! and a draining server refuses all new work (HTTP 503). Deciding
//! is pure in-memory state under one mutex — no I/O happens under
//! the lock. A condition variable beside it announces every change
//! (a job queued, claimed, requeued or finished; drain begun), so
//! idle workers and progress streams block until something happens
//! instead of polling on a timer.
//!
//! Results are infinitely cacheable because simulation is
//! deterministic: the cache key is the content address
//! `(run key, trace_len, seed)` — exactly a ledger cell's identity —
//! and entries are persisted with [`write_atomic`], so a cached
//! result is bit-for-bit the JSON an in-process run of the same cell
//! would render.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::budget::{Budget, CancelToken};
use crate::error::NlsError;
use crate::json::{field, json_string, parse_result, take_field, write_result, Json};
use crate::ledger::{write_atomic, Ledger};
use crate::metrics::SimResult;
use crate::sweep::SweepConfig;

/// Job-file schema version for the persisted registry entries.
pub const JOB_FILE_VERSION: u64 = 1;

/// Seconds a shed client should wait before retrying a full queue.
pub const SHED_RETRY_AFTER_SECS: u64 = 1;

/// Seconds a refused client should wait when the server is draining
/// (long: this process is going away; a supervisor must restart it).
pub const DRAIN_RETRY_AFTER_SECS: u64 = 5;

/// The server's observable counters, in reporting order. A unit test
/// in `nls-bench` checks this list against DESIGN.md §8.3 — a counter
/// added here without a documented row fails it, so a future metrics
/// endpoint cannot drift from the design doc.
pub const SERVER_COUNTERS: [&str; 8] = [
    "cache_hits",
    "cache_misses",
    "jobs_admitted",
    "jobs_shed",
    "jobs_completed",
    "jobs_failed",
    "jobs_retried",
    "drains",
];

/// Monotonic counters the serve loop increments; read by `/readyz`
/// reporting, the soak drill, and the final drain summary.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Cells answered from the result cache without simulating.
    pub cache_hits: AtomicU64,
    /// Cells that had to be simulated.
    pub cache_misses: AtomicU64,
    /// Jobs accepted into the queue.
    pub jobs_admitted: AtomicU64,
    /// Jobs refused by admission control (full queue or draining).
    pub jobs_shed: AtomicU64,
    /// Jobs that reached `Done`.
    pub jobs_completed: AtomicU64,
    /// Jobs that reached `Failed`.
    pub jobs_failed: AtomicU64,
    /// Degraded-job retries granted (each backs off exponentially).
    pub jobs_retried: AtomicU64,
    /// Drain transitions observed (0 or 1 per process lifetime).
    pub drains: AtomicU64,
}

impl ServerCounters {
    /// The counters as `(name, value)` pairs, in [`SERVER_COUNTERS`]
    /// order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let values = [
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
            self.jobs_admitted.load(Ordering::Relaxed),
            self.jobs_shed.load(Ordering::Relaxed),
            self.jobs_completed.load(Ordering::Relaxed),
            self.jobs_failed.load(Ordering::Relaxed),
            self.jobs_retried.load(Ordering::Relaxed),
            self.drains.load(Ordering::Relaxed),
        ];
        SERVER_COUNTERS.iter().copied().zip(values).collect()
    }

    /// One-line rendering for logs and the drain summary.
    pub fn render(&self) -> String {
        let pairs: Vec<String> =
            self.snapshot().iter().map(|(k, v)| format!("{k}={v}")).collect();
        pairs.join(" ")
    }
}

/// What kind of request created a job (shapes the response only; the
/// execution path is identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// `POST /v1/simulate`: one bench × one cache.
    Simulate,
    /// `POST /v1/sweep`: a bench selector × a cache list.
    Sweep,
}

impl JobKind {
    /// Stable tag for the persisted job file.
    pub fn tag(&self) -> &'static str {
        match self {
            JobKind::Simulate => "simulate",
            JobKind::Sweep => "sweep",
        }
    }
}

/// A job's domain selectors, as the request supplied them. Kept as
/// strings so this module owns no copy of the CLI's selector
/// grammar; the CLI validates them into a run grid *before*
/// admission, so a queued spec always parses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Bench selector: `all` or one benchmark's name.
    pub bench: String,
    /// Cache selectors (`8K:1` style); empty means the server
    /// default.
    pub caches: Vec<String>,
    /// Engine selectors (`nls-table:1024` style); empty means the
    /// server default.
    pub engines: Vec<String>,
    /// Dynamic instructions per run.
    pub trace_len: usize,
    /// Walker seed.
    pub seed: u64,
}

impl JobSpec {
    /// The sweep config this job simulates under.
    pub fn config(&self) -> SweepConfig {
        SweepConfig { trace_len: self.trace_len, seed: self.seed }
    }
}

/// The limits a job runs under, however it was asked for: the budget
/// flags of `nls simulate`/`sweep`/`sweep-worker`, a serve request's
/// headers clamped to server policy, or a chaos soak's case limits.
/// `None` means unlimited on that axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobLimits {
    /// Wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Simulated-record ceiling per run.
    pub max_records: Option<u64>,
    /// Estimated-heap ceiling in megabytes.
    pub max_heap_mb: Option<u64>,
}

impl JobLimits {
    /// The request's limits clamped to `policy`: a job may always ask
    /// for *less* than the server allows, never more, and inherits
    /// the policy ceiling where it asked for nothing.
    pub fn clamp_to(&self, policy: &JobLimits) -> JobLimits {
        fn tighter(req: Option<u64>, pol: Option<u64>) -> Option<u64> {
            match (req, pol) {
                (Some(r), Some(p)) => Some(r.min(p)),
                (some, None) | (None, some) => some,
            }
        }
        JobLimits {
            deadline_ms: tighter(self.deadline_ms, policy.deadline_ms),
            max_records: tighter(self.max_records, policy.max_records),
            max_heap_mb: tighter(self.max_heap_mb, policy.max_heap_mb),
        }
    }

    /// The [`Budget`] these limits describe, observing `cancel`: the
    /// one place a job's limits become a budget.
    pub fn budget(&self, cancel: CancelToken) -> Budget {
        let mut budget = Budget::unlimited().with_cancel(cancel);
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_records {
            budget = budget.with_max_records(n);
        }
        if let Some(mb) = self.max_heap_mb {
            budget = budget.with_max_heap_bytes(mb.saturating_mul(1024 * 1024));
        }
        budget
    }
}

/// One registered job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Registry-assigned id (also the job-file / ledger-file name).
    pub id: u64,
    /// Which endpoint created it.
    pub kind: JobKind,
    /// The request's domain selectors.
    pub spec: JobSpec,
    /// Clamped resource limits.
    pub limits: JobLimits,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Cells in the job's run grid.
    pub cells: usize,
    /// Cells finished so far (progress reporting).
    pub done_cells: usize,
    /// Degraded-retry attempts already granted.
    pub attempts: u32,
}

/// A job's lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the admission queue.
    Queued,
    /// Claimed by a worker thread.
    Running,
    /// Finished; `results` holds the rendered results JSON.
    Done {
        /// The job's rendered cell results (bit-for-bit what an
        /// in-process run of the same grid renders).
        results: String,
    },
    /// Permanently failed.
    Failed {
        /// The final error observed.
        error: String,
    },
}

impl JobStatus {
    /// Stable tag for job files and progress responses.
    pub fn tag(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done { .. } => "done",
            JobStatus::Failed { .. } => "failed",
        }
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done { .. } | JobStatus::Failed { .. })
    }
}

/// What admission control decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The job is queued under this id.
    Accepted(u64),
    /// The queue is full; retry after the advised seconds (429).
    QueueFull {
        /// `Retry-After` advice in seconds.
        retry_after_secs: u64,
    },
    /// The server is draining and accepts nothing (503).
    Draining {
        /// `Retry-After` advice in seconds.
        retry_after_secs: u64,
    },
}

/// The server's accept-side state machine: `Accepting` until the
/// first SIGINT/SIGTERM, then `Draining` until the process exits 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainState {
    /// Normal operation: admission control applies.
    Accepting,
    /// Shutting down: no new jobs; in-flight jobs finish or
    /// checkpoint.
    Draining,
}

struct RegistryInner {
    drain: DrainState,
    next_id: u64,
    /// Claimable jobs, oldest first.
    queue: VecDeque<u64>,
    /// Admitted jobs not yet claimable (their job file is being
    /// written); they count against the queue cap.
    staged: BTreeSet<u64>,
    jobs: BTreeMap<u64, Job>,
}

impl RegistryInner {
    fn queued(&self) -> usize {
        self.queue.len() + self.staged.len()
    }

    /// Re-queues a known job (once) as `Queued`.
    fn requeue(&mut self, id: u64) {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.status = JobStatus::Queued;
            if !self.queue.contains(&id) {
                self.queue.push_back(id);
            }
        }
    }
}

/// The in-memory job registry: one mutex over the queue, the job
/// table, and the drain state, and one condition variable that every
/// change notifies. Every method is a short in-memory critical
/// section; persistence happens outside the lock.
pub struct Registry {
    inner: Mutex<RegistryInner>,
    changed: Condvar,
    /// Observable counters (shared with the serve loop's reporting).
    pub counters: ServerCounters,
    queue_cap: usize,
}

impl Registry {
    /// A registry with a bounded admission queue of `queue_cap`
    /// (clamped to at least 1) queued-but-not-running jobs.
    pub fn new(queue_cap: usize) -> Self {
        Registry {
            inner: Mutex::new(RegistryInner {
                drain: DrainState::Accepting,
                next_id: 1,
                queue: VecDeque::new(),
                staged: BTreeSet::new(),
                jobs: BTreeMap::new(),
            }),
            changed: Condvar::new(),
            counters: ServerCounters::default(),
            queue_cap: queue_cap.max(1),
        }
    }

    /// The registry lock. Every critical section leaves the state
    /// consistent, so a lock poisoned by a panicking holder still
    /// guards good data.
    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admission control: queue the job, shed on a full queue, refuse
    /// while draining. The job is claimable at once; a server that
    /// must persist the job before any worker runs it uses
    /// [`Registry::admit_staged`] instead.
    pub fn admit(
        &self,
        kind: JobKind,
        spec: JobSpec,
        limits: JobLimits,
        cells: usize,
    ) -> AdmitOutcome {
        let outcome = self.admit_staged(kind, spec, limits, cells);
        if let AdmitOutcome::Accepted(id) = outcome {
            self.enqueue_staged(id);
        }
        outcome
    }

    /// Admission control without the hand-off: an accepted job is
    /// registered as `Queued` and counts against the queue cap, but no
    /// worker can claim it until [`Registry::enqueue_staged`].
    pub fn admit_staged(
        &self,
        kind: JobKind,
        spec: JobSpec,
        limits: JobLimits,
        cells: usize,
    ) -> AdmitOutcome {
        let mut g = self.lock();
        if g.drain == DrainState::Draining {
            drop(g);
            self.counters.jobs_shed.fetch_add(1, Ordering::Relaxed);
            return AdmitOutcome::Draining { retry_after_secs: DRAIN_RETRY_AFTER_SECS };
        }
        if g.queued() >= self.queue_cap {
            drop(g);
            self.counters.jobs_shed.fetch_add(1, Ordering::Relaxed);
            return AdmitOutcome::QueueFull { retry_after_secs: SHED_RETRY_AFTER_SECS };
        }
        let id = g.next_id;
        g.next_id += 1;
        let job = Job {
            id,
            kind,
            spec,
            limits,
            status: JobStatus::Queued,
            cells,
            done_cells: 0,
            attempts: 0,
        };
        g.jobs.insert(id, job);
        g.staged.insert(id);
        drop(g);
        self.counters.jobs_admitted.fetch_add(1, Ordering::Relaxed);
        AdmitOutcome::Accepted(id)
    }

    /// Makes a staged job claimable and wakes the workers. A job that
    /// is no longer staged (finished meanwhile) is left alone.
    pub fn enqueue_staged(&self, id: u64) {
        let mut g = self.lock();
        if g.staged.remove(&id) {
            g.queue.push_back(id);
        }
        drop(g);
        self.changed.notify_all();
    }

    /// Re-registers a persisted job under its original id (resume
    /// path). Non-terminal jobs re-enter the queue — bypassing the
    /// cap, because they were already accepted once and must not be
    /// dropped.
    pub fn install(&self, job: Job) {
        let mut g = self.lock();
        g.next_id = g.next_id.max(job.id + 1);
        let id = job.id;
        let requeue = !job.status.is_terminal();
        g.jobs.insert(id, job);
        if requeue {
            g.requeue(id);
        }
        drop(g);
        self.changed.notify_all();
    }

    /// Pops the oldest queued job and marks it `Running`. `None` when
    /// the queue is empty.
    pub fn claim_next(&self) -> Option<Job> {
        let job = Self::pop_claim(&mut self.lock())?;
        self.changed.notify_all();
        Some(job)
    }

    /// Blocks until a job is claimable, then claims it as
    /// [`Registry::claim_next`] does; `None` once the server drains
    /// (queued jobs then stay queued for `--resume`) or `cancel` has
    /// tripped, which is checked whenever the registry changes.
    pub fn claim_wait(&self, cancel: &CancelToken) -> Option<Job> {
        let mut g = self.lock();
        loop {
            if g.drain == DrainState::Draining || cancel.is_cancelled() {
                return None;
            }
            if let Some(job) = Self::pop_claim(&mut g) {
                drop(g);
                self.changed.notify_all();
                return Some(job);
            }
            g = self.changed.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn pop_claim(g: &mut RegistryInner) -> Option<Job> {
        let id = g.queue.pop_front()?;
        let job = g.jobs.get_mut(&id)?;
        job.status = JobStatus::Running;
        Some(job.clone())
    }

    /// Blocks until job `id`'s status tag is no longer `seen`, the
    /// server begins draining, or `timeout` passes, then returns the
    /// job (`None` for an unknown id).
    pub fn wait_for_change(&self, id: u64, seen: &str, timeout: Duration) -> Option<Job> {
        let g = self.lock();
        let (g, _) = self
            .changed
            .wait_timeout_while(g, timeout, |s| {
                s.drain == DrainState::Accepting
                    && s.jobs.get(&id).is_some_and(|j| j.status.tag() == seen)
            })
            .unwrap_or_else(PoisonError::into_inner);
        g.jobs.get(&id).cloned()
    }

    /// Updates a running job's progress.
    pub fn progress(&self, id: u64, done_cells: usize) {
        if let Some(job) = self.lock().jobs.get_mut(&id) {
            job.done_cells = done_cells;
        }
    }

    /// Finishes a job: `Ok` carries the rendered results JSON, `Err`
    /// the final error. A still-staged job is withdrawn, never run.
    pub fn finish(&self, id: u64, outcome: Result<String, String>) {
        let done = outcome.is_ok();
        {
            let mut g = self.lock();
            g.staged.remove(&id);
            if let Some(job) = g.jobs.get_mut(&id) {
                job.status = match outcome {
                    Ok(results) => {
                        job.done_cells = job.cells;
                        JobStatus::Done { results }
                    }
                    Err(error) => JobStatus::Failed { error },
                };
            }
        }
        self.changed.notify_all();
        let counter =
            if done { &self.counters.jobs_completed } else { &self.counters.jobs_failed };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Grants a degraded job another attempt: back to the queue with
    /// the attempt recorded. Returns the attempts now spent (drives
    /// the caller's exponential backoff).
    pub fn requeue_retry(&self, id: u64) -> u32 {
        let attempts = {
            let mut g = self.lock();
            let Some(job) = g.jobs.get_mut(&id) else { return 0 };
            job.attempts = job.attempts.saturating_add(1);
            let attempts = job.attempts;
            g.requeue(id);
            attempts
        };
        self.changed.notify_all();
        self.counters.jobs_retried.fetch_add(1, Ordering::Relaxed);
        attempts
    }

    /// Checkpoints an in-flight job during drain: back to `Queued`
    /// (no attempt spent) so a `--resume` restart finishes it.
    pub fn checkpoint(&self, id: u64) {
        let mut g = self.lock();
        if g.jobs.get(&id).is_some_and(|j| !j.status.is_terminal()) {
            g.requeue(id);
        }
        drop(g);
        self.changed.notify_all();
    }

    /// A snapshot of one job.
    pub fn get(&self, id: u64) -> Option<Job> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Snapshots of every registered job, in id order.
    pub fn jobs(&self) -> Vec<Job> {
        self.lock().jobs.values().cloned().collect()
    }

    /// Flips the drain state machine to `Draining` (idempotent) and
    /// wakes every waiter.
    pub fn begin_drain(&self) {
        let mut g = self.lock();
        let first = g.drain == DrainState::Accepting;
        g.drain = DrainState::Draining;
        drop(g);
        self.changed.notify_all();
        if first {
            self.counters.drains.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the server is draining.
    pub fn draining(&self) -> bool {
        self.lock().drain == DrainState::Draining
    }

    /// Readiness: accepting and the queue has room (`/readyz`).
    pub fn ready(&self) -> bool {
        let g = self.lock();
        g.drain == DrainState::Accepting && g.queued() < self.queue_cap
    }

    /// Jobs that are neither `Done` nor `Failed`.
    pub fn unfinished(&self) -> usize {
        self.lock().jobs.values().filter(|j| !j.status.is_terminal()).count()
    }
}

/// Backoff before a degraded job's `attempt`-th retry: the ledger's
/// exponential schedule, so job-level and cell-level retries pace
/// identically.
pub fn retry_backoff_ms(attempt: u32) -> u64 {
    Ledger::backoff_ms(u64::from(attempt))
}

// ---------------------------------------------------------------------------
// Request / response JSON

/// Parses a `POST /v1/simulate` or `POST /v1/sweep` body into a
/// [`JobSpec`]. Simulate takes a single `"cache"`, sweep a
/// `"caches"` array; both take `"bench"`, `"engines"`, `"len"`, and
/// `"seed"`, each defaulting from `defaults` (server configuration)
/// when absent. Malformed bodies are [`NlsError::Usage`] — the HTTP
/// layer maps them to 400, never 500.
pub fn parse_job_request(
    text: &str,
    kind: JobKind,
    defaults: &SweepConfig,
) -> Result<JobSpec, NlsError> {
    let bad = |msg: String| NlsError::Usage(format!("bad request body: {msg}"));
    let root = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return Err(bad(e)),
    };
    let obj = match root {
        Json::Object(pairs) => pairs,
        other => return Err(bad(format!("expected an object, found {}", other.kind()))),
    };
    let known = ["bench", "cache", "caches", "engines", "len", "seed"];
    // nls-lint: allow(cancellation-reach): bounded by the (size-capped) request body's field count
    for (key, _) in &obj {
        if !known.contains(&key.as_str()) {
            return Err(bad(format!("unknown field {key:?}")));
        }
    }
    let get = |name: &str| obj.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let str_of = |name: &str, v: &Json| match v {
        Json::String(s) if !s.is_empty() => Ok(s.clone()),
        Json::String(_) => Err(bad(format!("field {name:?} must not be empty"))),
        other => Err(bad(format!("field {name:?} must be a string, found {}", other.kind()))),
    };
    let bench = match get("bench") {
        Some(v) => str_of("bench", v)?,
        None => "all".to_string(),
    };
    let caches = match kind {
        JobKind::Simulate => {
            if get("caches").is_some() {
                return Err(bad("simulate takes \"cache\", not \"caches\"".to_string()));
            }
            match get("cache") {
                Some(v) => vec![str_of("cache", v)?],
                None => Vec::new(),
            }
        }
        JobKind::Sweep => {
            if get("cache").is_some() {
                return Err(bad("sweep takes \"caches\", not \"cache\"".to_string()));
            }
            match get("caches") {
                Some(Json::Array(items)) => {
                    items.iter().map(|v| str_of("caches", v)).collect::<Result<Vec<_>, _>>()?
                }
                Some(other) => {
                    return Err(bad(format!(
                        "field \"caches\" must be an array, found {}",
                        other.kind()
                    )))
                }
                None => Vec::new(),
            }
        }
    };
    let engines = match get("engines") {
        Some(Json::Array(items)) => {
            items.iter().map(|v| str_of("engines", v)).collect::<Result<Vec<_>, _>>()?
        }
        Some(other) => {
            return Err(bad(format!(
                "field \"engines\" must be an array, found {}",
                other.kind()
            )))
        }
        None => Vec::new(),
    };
    let u64_of = |name: &str, v: &Json| match v {
        Json::Number(n) => Ok(*n),
        other => Err(bad(format!("field {name:?} must be a number, found {}", other.kind()))),
    };
    let trace_len = match get("len") {
        Some(v) => {
            let n = u64_of("len", v)?;
            if n == 0 {
                return Err(bad("field \"len\" must be positive".to_string()));
            }
            usize::try_from(n).map_err(|_| bad(format!("field \"len\" too large: {n}")))?
        }
        None => defaults.trace_len,
    };
    let seed = match get("seed") {
        Some(v) => u64_of("seed", v)?,
        None => defaults.seed,
    };
    Ok(JobSpec { bench, caches, engines, trace_len, seed })
}

/// Renders a finished job's per-cell results. The shape — and every
/// byte, given deterministic simulation — is the parity surface the
/// soak drill compares against in-process runs: cells in grid order,
/// each `{"key": ..., "results": [...]}` with the ledger's result
/// schema.
pub fn render_job_results(cells: &[(String, Vec<SimResult>)]) -> String {
    let mut out = String::from("{\"cells\": [");
    // nls-lint: allow(cancellation-reach): bounded by the job's cell count; pure formatting
    for (i, (key, results)) in cells.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"key\": ");
        out.push_str(&json_string(key));
        out.push_str(", \"results\": [");
        for (j, r) in results.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            write_result(&mut out, r);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Parses [`render_job_results`] output back into cells (the parity
/// check and the cache validator).
pub fn parse_job_results(text: &str) -> Result<Vec<(String, Vec<SimResult>)>, NlsError> {
    let mut root = Json::parse(text).map_err(NlsError::Checkpoint)?.into_object()?;
    let cells = take_field(&mut root, "cells")?.into_array()?;
    let mut out = Vec::new();
    for cell in cells {
        let mut obj = cell.into_object()?;
        let key = field(&obj, "key")?.as_str()?.to_string();
        let results = take_field(&mut obj, "results")?
            .into_array()?
            .into_iter()
            .map(parse_result)
            .collect::<Result<Vec<_>, _>>()?;
        out.push((key, results));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Content-addressed result cache

/// FNV-1a over the content address; hex-encoded as the cache file
/// stem. Collisions are guarded by re-checking the stored key.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    // nls-lint: allow(cancellation-reach): bounded by the address string length; pure hashing
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content address of one cell's results: the run key plus the
/// sweep config. Distinct simulations get distinct
/// addresses because the run key is injective over
/// (bench, cache, engines).
pub fn cache_address(run_key: &str, cfg: &SweepConfig) -> String {
    format!("{run_key} @ len={} seed={}", cfg.trace_len, cfg.seed)
}

/// On-disk cache of finished cell results, keyed by content address.
/// Entries are written with [`write_atomic`], so a crash mid-store
/// never leaves a torn entry; a corrupt or colliding entry reads as
/// a miss, never as wrong results.
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating) the cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, NlsError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| {
            NlsError::Io(std::io::Error::other(format!(
                "cannot create cache dir {}: {e}",
                dir.display()
            )))
        })?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for one content address.
    pub fn entry_path(&self, run_key: &str, cfg: &SweepConfig) -> PathBuf {
        let address = cache_address(run_key, cfg);
        self.dir.join(format!("{:016x}.json", fnv1a64(address.as_bytes())))
    }

    /// Looks up a cell. Any damage — unreadable file, bad JSON, a
    /// hash collision with a different address — is a miss: the cell
    /// is simply re-simulated and re-stored.
    pub fn lookup(&self, run_key: &str, cfg: &SweepConfig) -> Option<Vec<SimResult>> {
        let path = self.entry_path(run_key, cfg);
        // nls-lint: allow(fs-trace-read): cache JSON, not trace bytes; recovery policy does not apply
        let text = fs::read_to_string(&path).ok()?;
        let mut obj = Json::parse(&text).ok()?.into_object().ok()?;
        let stored = field(&obj, "address").ok()?.as_str().ok()?;
        if stored != cache_address(run_key, cfg) {
            return None;
        }
        let results = take_field(&mut obj, "results")
            .ok()?
            .into_array()
            .ok()?
            .into_iter()
            .map(parse_result)
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        Some(results)
    }

    /// Stores a cell's results under its content address.
    pub fn store(
        &self,
        run_key: &str,
        cfg: &SweepConfig,
        results: &[SimResult],
    ) -> Result<(), NlsError> {
        let mut text = String::from("{\"address\": ");
        text.push_str(&json_string(&cache_address(run_key, cfg)));
        text.push_str(", \"results\": [");
        // nls-lint: allow(cancellation-reach): bounded by the cell's engine count; pure formatting
        for (i, r) in results.iter().enumerate() {
            if i > 0 {
                text.push_str(", ");
            }
            write_result(&mut text, r);
        }
        text.push_str("]}\n");
        let path = self.entry_path(run_key, cfg);
        write_atomic(&path, &text).map_err(|e| {
            NlsError::Io(std::io::Error::other(format!(
                "cannot write cache entry {}: {e}",
                path.display()
            )))
        })
    }
}

// ---------------------------------------------------------------------------
// Job persistence (the registry's durable half, for --resume)

/// The persisted job file's name for `id`.
pub fn job_file_name(id: u64) -> String {
    format!("job-{id}.json")
}

/// The per-job ledger file's name for `id` (the cell grid's durable
/// work ledger while the job runs).
pub fn job_ledger_name(id: u64) -> String {
    format!("job-{id}.ledger.json")
}

/// Persists a job's registry entry with [`write_atomic`]. `Running`
/// is persisted as `queued`: if this process dies, the job must be
/// re-run on `--resume`, not presumed in progress.
pub fn save_job(dir: &Path, job: &Job) -> Result<(), NlsError> {
    let status = match &job.status {
        JobStatus::Running => "queued",
        other => other.tag(),
    };
    let mut text = String::from("{\n");
    text.push_str(&format!("  \"version\": {JOB_FILE_VERSION},\n"));
    text.push_str(&format!("  \"id\": {},\n", job.id));
    text.push_str(&format!("  \"kind\": {},\n", json_string(job.kind.tag())));
    text.push_str(&format!("  \"status\": {},\n", json_string(status)));
    if let JobStatus::Failed { error } = &job.status {
        text.push_str(&format!("  \"error\": {},\n", json_string(error)));
    }
    text.push_str(&format!("  \"bench\": {},\n", json_string(&job.spec.bench)));
    let caches: Vec<String> = job.spec.caches.iter().map(|c| json_string(c)).collect();
    text.push_str(&format!("  \"caches\": [{}],\n", caches.join(", ")));
    let engines: Vec<String> = job.spec.engines.iter().map(|e| json_string(e)).collect();
    text.push_str(&format!("  \"engines\": [{}],\n", engines.join(", ")));
    text.push_str(&format!("  \"len\": {},\n", job.spec.trace_len));
    text.push_str(&format!("  \"seed\": {},\n", job.spec.seed));
    if let Some(ms) = job.limits.deadline_ms {
        text.push_str(&format!("  \"deadline_ms\": {ms},\n"));
    }
    if let Some(n) = job.limits.max_records {
        text.push_str(&format!("  \"max_records\": {n},\n"));
    }
    if let Some(mb) = job.limits.max_heap_mb {
        text.push_str(&format!("  \"max_heap_mb\": {mb},\n"));
    }
    text.push_str(&format!("  \"cells\": {}\n", job.cells));
    text.push_str("}\n");
    let path = dir.join(job_file_name(job.id));
    write_atomic(&path, &text).map_err(|e| {
        NlsError::Io(std::io::Error::other(format!(
            "cannot write job file {}: {e}",
            path.display()
        )))
    })
}

fn parse_job_file(text: &str) -> Result<Job, NlsError> {
    let bad = NlsError::Checkpoint;
    let mut root = Json::parse(text).map_err(bad)?.into_object()?;
    let version = field(&root, "version")?.as_u64()?;
    if version != JOB_FILE_VERSION {
        return Err(NlsError::Checkpoint(format!(
            "unsupported job-file version {version} (expected {JOB_FILE_VERSION})"
        )));
    }
    let id = field(&root, "id")?.as_u64()?;
    let kind = match field(&root, "kind")?.as_str()? {
        "simulate" => JobKind::Simulate,
        "sweep" => JobKind::Sweep,
        other => return Err(NlsError::Checkpoint(format!("unknown job kind {other:?}"))),
    };
    let mut strings = |name: &str| -> Result<Vec<String>, NlsError> {
        take_field(&mut root, name)?
            .into_array()?
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect()
    };
    let (caches, engines) = (strings("caches")?, strings("engines")?);
    let opt_u64 = |name: &str| -> Result<Option<u64>, NlsError> {
        root.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_u64()).transpose()
    };
    let trace_len = field(&root, "len")?.as_u64()?;
    let status = match field(&root, "status")?.as_str()? {
        "queued" => JobStatus::Queued,
        // A done job's results live in the cache and the ledger, not
        // the registry entry; resume re-renders them on demand.
        "done" => JobStatus::Done { results: String::new() },
        "failed" => {
            let error = root
                .iter()
                .find(|(k, _)| k == "error")
                .and_then(|(_, v)| v.as_str().ok())
                .unwrap_or("unknown failure")
                .to_string();
            JobStatus::Failed { error }
        }
        other => return Err(NlsError::Checkpoint(format!("unknown job status {other:?}"))),
    };
    Ok(Job {
        id,
        kind,
        spec: JobSpec {
            bench: field(&root, "bench")?.as_str()?.to_string(),
            caches,
            engines,
            trace_len: usize::try_from(trace_len)
                .map_err(|_| NlsError::Checkpoint(format!("job len too large: {trace_len}")))?,
            seed: field(&root, "seed")?.as_u64()?,
        },
        limits: JobLimits {
            deadline_ms: opt_u64("deadline_ms")?,
            max_records: opt_u64("max_records")?,
            max_heap_mb: opt_u64("max_heap_mb")?,
        },
        status,
        cells: usize::try_from(field(&root, "cells")?.as_u64()?).unwrap_or(0),
        done_cells: 0,
        attempts: 0,
    })
}

/// Loads every persisted job from `dir`, in id order. A missing
/// directory is an empty registry; a damaged job file is a
/// [`NlsError::Checkpoint`] so corruption is never mistaken for "no
/// jobs".
pub fn load_jobs(dir: &Path) -> Result<Vec<Job>, NlsError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(NlsError::Io(std::io::Error::other(format!(
                "cannot read state dir {}: {e}",
                dir.display()
            ))))
        }
    };
    let mut jobs = Vec::new();
    // nls-lint: allow(cancellation-reach): bounded by the state directory listing; no simulation
    for entry in entries {
        let entry = entry.map_err(NlsError::Io)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with("job-") || !name.ends_with(".json") || name.contains(".ledger.") {
            continue;
        }
        // nls-lint: allow(fs-trace-read): job registry JSON, not trace bytes; recovery policy does not apply
        let text = fs::read_to_string(entry.path()).map_err(NlsError::Io)?;
        let job = parse_job_file(&text).map_err(|e| {
            NlsError::Checkpoint(format!("damaged job file {}: {e}", entry.path().display()))
        })?;
        jobs.push(job);
    }
    jobs.sort_by_key(|j| j.id);
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::KindCounts;
    use nls_icache::CacheStats;
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::Instant;

    fn cfg() -> SweepConfig {
        SweepConfig { trace_len: 50_000, seed: 7 }
    }

    fn spec() -> JobSpec {
        JobSpec {
            bench: "li".into(),
            caches: vec!["8K:1".into()],
            engines: vec!["nls-table:1024".into()],
            trace_len: 50_000,
            seed: 7,
        }
    }

    fn sample_result() -> SimResult {
        SimResult {
            engine: "1024 NLS table".into(),
            bench: "li".into(),
            cache: "8K direct".into(),
            instructions: 50_000,
            breaks: 9_000,
            misfetches: 400,
            mispredicts: 700,
            icache: CacheStats { accesses: 50_000, misses: 1_200 },
            by_kind: [KindCounts::default(); 5],
        }
    }

    #[test]
    fn admission_queues_then_sheds_then_refuses_while_draining() {
        let reg = Registry::new(2);
        assert!(reg.ready());
        let a = reg.admit(JobKind::Simulate, spec(), JobLimits::default(), 1);
        let b = reg.admit(JobKind::Simulate, spec(), JobLimits::default(), 1);
        assert_eq!(a, AdmitOutcome::Accepted(1));
        assert_eq!(b, AdmitOutcome::Accepted(2));
        assert!(!reg.ready(), "a full queue is not ready");
        let shed = reg.admit(JobKind::Simulate, spec(), JobLimits::default(), 1);
        assert_eq!(shed, AdmitOutcome::QueueFull { retry_after_secs: SHED_RETRY_AFTER_SECS });
        // Claiming drains the queue, so admission opens again.
        assert!(reg.claim_next().is_some());
        assert!(reg.ready());
        reg.begin_drain();
        reg.begin_drain(); // idempotent
        let refused = reg.admit(JobKind::Simulate, spec(), JobLimits::default(), 1);
        assert_eq!(
            refused,
            AdmitOutcome::Draining { retry_after_secs: DRAIN_RETRY_AFTER_SECS }
        );
        assert!(!reg.ready());
        let c = &reg.counters;
        assert_eq!(c.jobs_admitted.load(Ordering::Relaxed), 2);
        assert_eq!(c.jobs_shed.load(Ordering::Relaxed), 2);
        assert_eq!(c.drains.load(Ordering::Relaxed), 1, "drain counted once");
    }

    #[test]
    fn job_lifecycle_walks_queued_running_done_with_progress() {
        let reg = Registry::new(4);
        let AdmitOutcome::Accepted(id) =
            reg.admit(JobKind::Sweep, spec(), JobLimits::default(), 3)
        else {
            panic!("admission must accept");
        };
        assert_eq!(reg.get(id).unwrap().status, JobStatus::Queued);
        let job = reg.claim_next().unwrap();
        assert_eq!(job.id, id);
        assert_eq!(reg.get(id).unwrap().status, JobStatus::Running);
        reg.progress(id, 2);
        assert_eq!(reg.get(id).unwrap().done_cells, 2);
        reg.finish(id, Ok("{\"cells\": []}".into()));
        let done = reg.get(id).unwrap();
        assert_eq!(done.status.tag(), "done");
        assert_eq!(done.done_cells, 3, "finish completes the progress bar");
        assert_eq!(reg.unfinished(), 0);
        assert_eq!(reg.counters.jobs_completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn degraded_retry_requeues_with_ledger_paced_backoff() {
        let reg = Registry::new(4);
        let AdmitOutcome::Accepted(id) =
            reg.admit(JobKind::Simulate, spec(), JobLimits::default(), 1)
        else {
            panic!();
        };
        let _ = reg.claim_next();
        assert_eq!(reg.requeue_retry(id), 1);
        assert_eq!(reg.get(id).unwrap().status, JobStatus::Queued);
        let again = reg.claim_next().unwrap();
        assert_eq!(again.id, id);
        assert_eq!(again.attempts, 1);
        assert_eq!(retry_backoff_ms(1), Ledger::backoff_ms(1));
        assert!(retry_backoff_ms(2) > retry_backoff_ms(1), "backoff grows");
        reg.finish(id, Err("deadline exceeded after 2 attempts".into()));
        assert_eq!(reg.counters.jobs_retried.load(Ordering::Relaxed), 1);
        assert_eq!(reg.counters.jobs_failed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drain_checkpoint_requeues_without_burning_an_attempt() {
        let reg = Registry::new(4);
        let AdmitOutcome::Accepted(id) =
            reg.admit(JobKind::Sweep, spec(), JobLimits::default(), 6)
        else {
            panic!();
        };
        let _ = reg.claim_next();
        reg.begin_drain();
        reg.checkpoint(id);
        let job = reg.get(id).unwrap();
        assert_eq!(job.status, JobStatus::Queued);
        assert_eq!(job.attempts, 0, "a drain checkpoint is not a retry");
        assert_eq!(reg.unfinished(), 1);
    }

    /// A thread blocked in a registry wait, reporting its result and
    /// the instant the wait returned.
    type Waiter<T> = (mpsc::Receiver<(T, Instant)>, thread::JoinHandle<()>);

    fn spawn_waiter<T: Send + 'static>(wait: impl FnOnce() -> T + Send + 'static) -> Waiter<T> {
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            let out = wait();
            let _ = tx.send((out, Instant::now()));
        });
        (rx, handle)
    }

    /// The waiter's result and wake instant; fails if it has not
    /// returned within 10 s.
    fn woken<T>((rx, handle): Waiter<T>) -> (T, Instant) {
        let out =
            rx.recv_timeout(Duration::from_secs(10)).expect("the waiter must wake in 10 s");
        handle.join().expect("the waiter thread must not panic");
        out
    }

    /// Gives spawned waiters time to block before the event fires.
    /// The tests pass either way (a wait that starts after the event
    /// returns at once); this makes the wake-up the path exercised.
    fn let_waiters_block() {
        thread::sleep(Duration::from_millis(50));
    }

    #[test]
    fn a_claim_waiter_wakes_on_admission() {
        let reg = Arc::new(Registry::new(4));
        let waiter = Arc::clone(&reg);
        let claimer = spawn_waiter(move || waiter.claim_wait(&CancelToken::new()));
        let_waiters_block();
        let admitted = Instant::now();
        let AdmitOutcome::Accepted(id) =
            reg.admit(JobKind::Simulate, spec(), JobLimits::default(), 1)
        else {
            panic!("admission must accept");
        };
        let (job, at) = woken(claimer);
        assert_eq!(job.map(|j| j.id), Some(id), "the waiter claims the admitted job");
        let lag = at.duration_since(admitted);
        assert!(lag < Duration::from_millis(100), "claim woke {lag:?} after admission");
        assert_eq!(reg.get(id).unwrap().status, JobStatus::Running);
    }

    #[test]
    fn a_staged_job_is_claimable_only_once_enqueued() {
        let reg = Registry::new(1);
        let AdmitOutcome::Accepted(id) =
            reg.admit_staged(JobKind::Simulate, spec(), JobLimits::default(), 1)
        else {
            panic!("admission must accept");
        };
        assert_eq!(reg.get(id).unwrap().status, JobStatus::Queued);
        assert!(reg.claim_next().is_none(), "a staged job is not claimable");
        assert!(!reg.ready(), "a staged job holds its queue slot");
        let shed = reg.admit(JobKind::Simulate, spec(), JobLimits::default(), 1);
        assert_eq!(shed, AdmitOutcome::QueueFull { retry_after_secs: SHED_RETRY_AFTER_SECS });
        reg.enqueue_staged(id);
        assert_eq!(reg.claim_next().map(|j| j.id), Some(id));
        // A staged job whose job file cannot be written is withdrawn.
        let AdmitOutcome::Accepted(lost) =
            reg.admit_staged(JobKind::Simulate, spec(), JobLimits::default(), 1)
        else {
            panic!("admission must accept");
        };
        reg.finish(lost, Err("cannot persist job".into()));
        reg.enqueue_staged(lost);
        assert!(reg.claim_next().is_none(), "a withdrawn job never runs");
        assert!(reg.ready());
    }

    #[test]
    fn a_stream_waiter_wakes_on_finish() {
        let reg = Arc::new(Registry::new(4));
        let AdmitOutcome::Accepted(id) =
            reg.admit(JobKind::Simulate, spec(), JobLimits::default(), 1)
        else {
            panic!("admission must accept");
        };
        let _ = reg.claim_next();
        // With nothing happening, the wait times out unchanged.
        let idle = reg.wait_for_change(id, "running", Duration::from_millis(20));
        assert_eq!(idle.map(|j| j.status), Some(JobStatus::Running));
        let waiter = Arc::clone(&reg);
        let stream = spawn_waiter(move || {
            waiter.wait_for_change(id, "running", Duration::from_secs(10))
        });
        let_waiters_block();
        let finished = Instant::now();
        reg.finish(id, Ok("{\"cells\": []}".into()));
        let (job, at) = woken(stream);
        assert_eq!(job.map(|j| j.status.tag()), Some("done"));
        let lag = at.duration_since(finished);
        assert!(lag < Duration::from_millis(100), "stream woke {lag:?} after finish");
    }

    #[test]
    fn begin_drain_wakes_every_waiter() {
        let reg = Arc::new(Registry::new(4));
        let AdmitOutcome::Accepted(id) =
            reg.admit_staged(JobKind::Simulate, spec(), JobLimits::default(), 1)
        else {
            panic!("admission must accept");
        };
        let claimers: Vec<_> = (0..3)
            .map(|_| {
                let waiter = Arc::clone(&reg);
                spawn_waiter(move || waiter.claim_wait(&CancelToken::new()).map(|j| j.id))
            })
            .collect();
        let streams: Vec<_> = (0..2)
            .map(|_| {
                let waiter = Arc::clone(&reg);
                spawn_waiter(move || {
                    waiter.wait_for_change(id, "queued", Duration::from_secs(10)).map(|j| j.id)
                })
            })
            .collect();
        let_waiters_block();
        let drained = Instant::now();
        reg.begin_drain();
        for (claimed, at) in claimers.into_iter().map(woken) {
            assert_eq!(claimed, None, "a draining registry hands out no work");
            let lag = at.duration_since(drained);
            assert!(lag < Duration::from_secs(1), "a claimer woke {lag:?} after the drain");
        }
        for (_, at) in streams.into_iter().map(woken) {
            let lag = at.duration_since(drained);
            assert!(lag < Duration::from_secs(1), "a stream woke {lag:?} after the drain");
        }
        // The staged job stays queued for --resume.
        reg.enqueue_staged(id);
        assert!(
            reg.claim_wait(&CancelToken::new()).is_none(),
            "a draining registry hands out no work"
        );
        assert_eq!(reg.get(id).unwrap().status, JobStatus::Queued);
    }

    #[test]
    fn limits_clamp_to_policy_never_above() {
        let policy = JobLimits {
            deadline_ms: Some(10_000),
            max_records: Some(1_000_000),
            max_heap_mb: None,
        };
        let req =
            JobLimits { deadline_ms: Some(60_000), max_records: None, max_heap_mb: Some(64) };
        let clamped = req.clamp_to(&policy);
        assert_eq!(clamped.deadline_ms, Some(10_000), "asked for more, got the ceiling");
        assert_eq!(clamped.max_records, Some(1_000_000), "unspecified inherits policy");
        assert_eq!(clamped.max_heap_mb, Some(64), "unlimited policy keeps the request");
        let tighter = JobLimits { deadline_ms: Some(5), ..JobLimits::default() };
        assert_eq!(tighter.clamp_to(&policy).deadline_ms, Some(5), "less is always allowed");
    }

    #[test]
    fn request_parsing_accepts_defaults_and_rejects_shape_errors() {
        let d = cfg();
        let s = parse_job_request("{}", JobKind::Sweep, &d).unwrap();
        assert_eq!(s.bench, "all");
        assert!(s.caches.is_empty() && s.engines.is_empty());
        assert_eq!((s.trace_len, s.seed), (d.trace_len, d.seed));

        let s = parse_job_request(
            "{\"bench\": \"li\", \"cache\": \"8K:1\", \"engines\": [\"btb:128:1\"], \
             \"len\": 1000, \"seed\": 42}",
            JobKind::Simulate,
            &d,
        )
        .unwrap();
        assert_eq!(s.bench, "li");
        assert_eq!(s.caches, vec!["8K:1".to_string()]);
        assert_eq!((s.trace_len, s.seed), (1000, 42));

        for bad in [
            "",
            "not json",
            "[1]",
            "{\"bench\": 3}",
            "{\"bench\": \"\"}",
            "{\"len\": 0}",
            "{\"len\": \"big\"}",
            "{\"unknown\": 1}",
            "{\"caches\": [\"8K:1\"]}", // sweep field on simulate
        ] {
            let err = parse_job_request(bad, JobKind::Simulate, &d).unwrap_err();
            assert_eq!(err.exit_code(), 2, "input {bad:?} must be a usage error: {err}");
        }
        let err = parse_job_request("{\"cache\": \"8K:1\"}", JobKind::Sweep, &d).unwrap_err();
        assert!(err.to_string().contains("caches"), "{err}");
    }

    #[test]
    fn job_results_render_parses_back_losslessly() {
        let cells = vec![
            ("li | 8K direct | nls-table1024/gshare".to_string(), vec![sample_result()]),
            ("we\"ird | key".to_string(), vec![sample_result(), sample_result()]),
        ];
        let text = render_job_results(&cells);
        let parsed = parse_job_results(&text).unwrap();
        assert_eq!(parsed, cells);
        // Rendering is deterministic: the parity gate depends on it.
        assert_eq!(text, render_job_results(&parsed));
    }

    #[test]
    fn result_cache_round_trips_and_treats_damage_as_a_miss() {
        let dir = std::env::temp_dir()
            .join("nls-serve-cache-test")
            .join(format!("p{}", std::process::id()));
        let cache = ResultCache::open(&dir).unwrap();
        let key = "li | 8K direct | nls-table1024/gshare";
        assert!(cache.lookup(key, &cfg()).is_none(), "cold cache misses");
        cache.store(key, &cfg(), &[sample_result()]).unwrap();
        assert_eq!(cache.lookup(key, &cfg()), Some(vec![sample_result()]));
        // A different config is a different content address.
        let other = SweepConfig { trace_len: 50_000, seed: 8 };
        assert!(cache.lookup(key, &other).is_none());
        // Damage reads as a miss, never as wrong results.
        fs::write(cache.entry_path(key, &cfg()), b"{ torn").unwrap();
        assert!(cache.lookup(key, &cfg()).is_none());
        // A forged collision (right file name, wrong address) misses.
        let path = cache.entry_path(key, &cfg());
        fs::write(&path, b"{\"address\": \"someone else\", \"results\": []}").unwrap();
        assert!(cache.lookup(key, &cfg()).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_files_round_trip_and_running_persists_as_queued() {
        let dir = std::env::temp_dir()
            .join("nls-serve-jobs-test")
            .join(format!("p{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let limits =
            JobLimits { deadline_ms: Some(5_000), max_records: None, max_heap_mb: Some(128) };
        let mut job = Job {
            id: 3,
            kind: JobKind::Sweep,
            spec: spec(),
            limits,
            status: JobStatus::Running,
            cells: 6,
            done_cells: 2,
            attempts: 1,
        };
        save_job(&dir, &job).unwrap();
        job.id = 7;
        job.status = JobStatus::Failed { error: "engine panicked: boom".into() };
        save_job(&dir, &job).unwrap();
        // Ledger siblings must not be mistaken for job files.
        fs::write(dir.join(job_ledger_name(3)), b"not a job file").unwrap();

        let jobs = load_jobs(&dir).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, 3);
        assert_eq!(jobs[0].status, JobStatus::Queued, "Running persists as queued");
        assert_eq!(jobs[0].spec, spec());
        assert_eq!(jobs[0].limits, limits);
        assert_eq!(jobs[0].cells, 6);
        match &jobs[1].status {
            JobStatus::Failed { error } => assert!(error.contains("boom"), "{error}"),
            other => panic!("failed must persist: {other:?}"),
        }
        // Damage is an error, not an empty registry.
        fs::write(dir.join(job_file_name(9)), b"{ torn").unwrap();
        let err = load_jobs(&dir).unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
        // A missing directory is an empty registry.
        assert!(load_jobs(&dir.join("nope")).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_install_requeues_unfinished_jobs_and_advances_ids() {
        let reg = Registry::new(1);
        let mut job = Job {
            id: 5,
            kind: JobKind::Simulate,
            spec: spec(),
            limits: JobLimits::default(),
            status: JobStatus::Queued,
            cells: 1,
            done_cells: 0,
            attempts: 0,
        };
        reg.install(job.clone());
        job.id = 6;
        job.status = JobStatus::Done { results: "{\"cells\": []}".into() };
        // Installing past the cap must not drop an accepted job.
        reg.install(job);
        assert_eq!(reg.unfinished(), 1);
        assert_eq!(reg.claim_next().unwrap().id, 5);
        assert!(reg.claim_next().is_none(), "done jobs are not re-run");
        // Fresh admissions continue after the installed ids.
        let AdmitOutcome::Accepted(id) =
            reg.admit(JobKind::Simulate, spec(), JobLimits::default(), 1)
        else {
            panic!();
        };
        assert_eq!(id, 7);
    }

    #[test]
    fn counter_names_match_the_conformance_surface() {
        let counters = ServerCounters::default();
        counters.cache_hits.fetch_add(2, Ordering::Relaxed);
        let snap = counters.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| *k).collect();
        assert_eq!(names, SERVER_COUNTERS.to_vec(), "snapshot order is the counter list");
        assert!(counters.render().starts_with("cache_hits=2 cache_misses=0"));
    }

    #[test]
    fn cache_addresses_separate_key_len_and_seed() {
        let a = cache_address("k", &SweepConfig { trace_len: 1, seed: 2 });
        let b = cache_address("k", &SweepConfig { trace_len: 2, seed: 1 });
        let c = cache_address("k2", &SweepConfig { trace_len: 1, seed: 2 });
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
