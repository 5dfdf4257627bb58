//! `nls serve` — the HTTP face of the simulation service
//! (DESIGN.md §8.3) — and the `nls soak --server` chaos drill that
//! gates it.
//!
//! Transport is hand-rolled HTTP/1.1 over std's `TcpListener`, one
//! thread per connection, matching the repo's serde-free JSON
//! discipline. Everything stateful (admission, drain state machine,
//! result cache, job persistence) lives in [`nls_core::serve`]; this
//! module owns the sockets, the worker pool, and the request bytes.
//!
//! Robustness contract (the headline of this subsystem):
//!
//! * **bounded queue** — a full queue sheds with `429` +
//!   `Retry-After`, a draining server refuses with `503` +
//!   `Retry-After`; there is no unbounded backlog anywhere;
//! * **per-job limits** — `x-nls-deadline` / `x-nls-max-records` /
//!   `x-nls-max-heap-mb` request headers (same grammars as the CLI
//!   flags), clamped to server policy (`--max-deadline`,
//!   `--max-records`, `--max-heap-mb`);
//! * **slow clients** — every socket gets `--io-timeout` read/write
//!   timeouts, so a stalled peer costs one thread for a bounded time;
//! * **degraded jobs** — a job whose budget trips is retried with the
//!   ledger's exponential backoff, at most [`MAX_JOB_RETRIES`] times;
//! * **graceful drain** — SIGINT/SIGTERM stops the accept loop,
//!   interrupts in-flight jobs so they checkpoint (job file + per-job
//!   ledger), and exits 7; `--resume` finishes them;
//! * **durable admission** — the job file is on disk *before* the
//!   `202 Accepted` leaves the socket, so an acknowledged job
//!   survives any crash.

use std::fs;
use std::io::{self, BufRead as _, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use nls_core::ledger::sleep_polling;
use nls_core::serve::{
    job_ledger_name, load_jobs, parse_job_request, parse_job_results, render_job_results,
    retry_backoff_ms, save_job, DRAIN_RETRY_AFTER_SECS, SHED_RETRY_AFTER_SECS,
};
use nls_core::soak::ServeSoakReport;
use nls_core::{
    install_signal_token, json_string, merge_ledger_outcomes, oracle, run_ledger_worker,
    run_one, AdmitOutcome, CancelToken, Job, JobKind, JobLimits, JobStatus, Ledger, LedgerFile,
    NlsError, Registry, ResultCache, RunError, RunSpec, SimResult, SweepConfig,
    DEFAULT_LEASE_MS, DEFAULT_MAX_ATTEMPTS,
};
use nls_trace::faults::{ChaosScheduler, RuntimeFault};

use crate::args::{
    job_runs, parse_count, parse_duration, parse_limits, sweep_config, CliError, ParsedArgs,
};
use crate::commands::{expect_options, send_signal};

/// Connection-handler threads allowed at once; excess connections
/// are refused with 503 before a request is even read.
const MAX_CONNECTIONS: usize = 128;

/// Degraded-job retries granted before the job fails for good.
pub const MAX_JOB_RETRIES: u32 = 2;

/// Request-head cap: a peer that cannot finish its headers inside
/// this many bytes is malformed (or malicious), not slow.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Request-body cap: job specs are small; anything bigger is shed.
const MAX_BODY_BYTES: usize = 64 * 1024;

/// Longest gap between progress-stream chunks of a running job on
/// `GET /v1/jobs/:id`; a status change sends its chunk at once.
const STREAM_POLL_MS: u64 = 250;

// ---------------------------------------------------------------------------
// Configuration

struct ServerConfig {
    addr: String,
    jobs: usize,
    queue_cap: usize,
    state_dir: PathBuf,
    defaults: SweepConfig,
    policy: JobLimits,
    io_timeout: Duration,
    resume: bool,
}

fn server_config(a: &ParsedArgs) -> Result<ServerConfig, CliError> {
    let host = a.get("addr").unwrap_or("127.0.0.1");
    let port: u16 = match a.get("port") {
        Some(s) => s.parse().map_err(|_| CliError(format!("bad port {s:?} (want 0-65535)")))?,
        None => 8080,
    };
    let jobs = match a.get("jobs") {
        Some(s) => parse_count(s)?,
        None => 4,
    };
    let queue_cap = match a.get("queue") {
        Some(s) => parse_count(s)?,
        None => 16,
    };
    let defaults = sweep_config(a)?;
    // The policy's deadline flag is `--max-deadline`.
    let policy =
        parse_limits(|name| a.get(if name == "deadline" { "max-deadline" } else { name }))?;
    let io_timeout = match a.get("io-timeout") {
        Some(s) => parse_duration(s)?,
        None => Duration::from_secs(5),
    };
    Ok(ServerConfig {
        addr: format!("{host}:{port}"),
        jobs,
        queue_cap,
        state_dir: PathBuf::from(a.get("state-dir").unwrap_or("nls-serve-state")),
        defaults,
        policy,
        io_timeout,
        resume: a.has_switch("resume"),
    })
}

/// Everything a connection handler or job worker needs, shared via
/// one `Arc`. No locks of our own: all shared mutable state lives in
/// the core [`Registry`] or in atomics.
struct ServeCtx {
    registry: Registry,
    cache: ResultCache,
    state_dir: PathBuf,
    defaults: SweepConfig,
    policy: JobLimits,
    io_timeout: Duration,
    /// Trips on SIGINT/SIGTERM; the signal watcher then begins the
    /// drain, which ends the accept loop, the workers' waits and the
    /// progress streams.
    server_token: CancelToken,
    /// Trips when drain begins: interrupts in-flight simulations so
    /// they checkpoint instead of finishing at leisure.
    job_token: CancelToken,
    /// Live connection-handler threads. Gates admission, hence
    /// SeqCst.
    conns: AtomicUsize,
}

// ---------------------------------------------------------------------------
// Entry point and the accept loop

/// `nls serve`: run the daemon until a signal drains it.
///
/// # Errors
///
/// Fails on malformed options, on an unusable state dir or address,
/// and — by design — with [`NlsError::Interrupted`] (exit 7) when a
/// signal drains the server.
pub fn serve(a: &ParsedArgs) -> Result<String, NlsError> {
    expect_options(a, "serve")?;
    let cfg = server_config(a)?;
    let token = install_signal_token();
    run_server(cfg, token)
}

fn run_server(cfg: ServerConfig, server_token: CancelToken) -> Result<String, NlsError> {
    fs::create_dir_all(&cfg.state_dir).map_err(|e| {
        NlsError::Io(io::Error::other(format!(
            "cannot create state dir {}: {e}",
            cfg.state_dir.display()
        )))
    })?;
    let existing = load_jobs(&cfg.state_dir)?;
    let unfinished = existing.iter().filter(|j| !j.status.is_terminal()).count();
    if !cfg.resume && unfinished > 0 {
        return Err(NlsError::Checkpoint(format!(
            "state dir {} holds {unfinished} unfinished job(s); pass --resume to finish them \
             or point --state-dir elsewhere",
            cfg.state_dir.display()
        )));
    }
    let registry = Registry::new(cfg.queue_cap);
    if cfg.resume {
        existing.into_iter().for_each(|job| registry.install(job));
    }
    let cache = ResultCache::open(cfg.state_dir.join("cache"))?;
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| {
        NlsError::Io(io::Error::other(format!("cannot bind {}: {e}", cfg.addr)))
    })?;
    let local = listener.local_addr().map_err(NlsError::Io)?;
    let ctx = Arc::new(ServeCtx {
        registry,
        cache,
        state_dir: cfg.state_dir,
        defaults: cfg.defaults,
        policy: cfg.policy,
        io_timeout: cfg.io_timeout,
        server_token: server_token.clone(),
        job_token: CancelToken::new(),
        conns: AtomicUsize::new(0),
    });
    let workers: Vec<thread::JoinHandle<()>> = (0..cfg.jobs.max(1))
        .map(|i| {
            let ctx = Arc::clone(&ctx);
            thread::spawn(move || run_job_worker(&ctx, i))
        })
        .collect();
    let watcher = spawn_signal_watcher(&ctx, to_connect_addr(&local.to_string()));
    // The soak drill and the e2e tests parse this line to find the
    // bound port (`--port 0`).
    println!("serving on {local}");
    let _ = io::stdout().flush();
    // Blocks in accept(); the signal watcher's wake-up connection
    // ends the loop once the token trips.
    for conn in listener.incoming() {
        if server_token.is_cancelled() {
            break;
        }
        match conn {
            Ok(stream) => dispatch_connection(&ctx, stream),
            // The peer gave up before we took the connection.
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
            Err(e) => {
                eprintln!("nls serve: accept failed: {e}");
                // Descriptor exhaustion and the like clear only as
                // connections close: back off rather than spin.
                let _ = sleep_polling(retry_backoff_ms(1), &server_token);
            }
        }
    }
    let _ = watcher.join();
    // Drain: no new work, interrupt in-flight jobs, wait for their
    // checkpoints, persist the registry, exit 7.
    ctx.registry.begin_drain();
    ctx.job_token.cancel();
    // nls-lint: allow(cancellation-reach): bounded by the worker pool size; drain must wait for checkpoints
    for worker in workers {
        let _ = worker.join();
    }
    ctx.registry.jobs().iter().for_each(|job| {
        if let Err(e) = save_job(&ctx.state_dir, job) {
            eprintln!("nls serve: cannot checkpoint job {}: {e}", job.id);
        }
    });
    let unfinished = ctx.registry.unfinished();
    Err(NlsError::Interrupted(format!(
        "drained on signal: {unfinished} unfinished job(s) checkpointed for --resume; {}",
        ctx.registry.counters.render()
    )))
}

/// The one thread that watches for SIGINT/SIGTERM, off every request
/// path: a signal handler may only flip the token, so this thread
/// turns the flip into the drain — waking the registry's waiters —
/// and then connects to `wake_addr` so the accept loop returns from
/// its blocking accept and sees the token.
fn spawn_signal_watcher(ctx: &Arc<ServeCtx>, wake_addr: String) -> thread::JoinHandle<()> {
    let ctx = Arc::clone(ctx);
    thread::spawn(move || {
        // An endless sleep that only the token ends.
        let _ = sleep_polling(u64::MAX, &ctx.server_token);
        ctx.registry.begin_drain();
        if let Err(e) = TcpStream::connect(&wake_addr) {
            eprintln!("nls serve: cannot wake the accept loop at {wake_addr}: {e}");
        }
    })
}

fn dispatch_connection(ctx: &Arc<ServeCtx>, stream: TcpStream) {
    if ctx.conns.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
        ctx.conns.fetch_sub(1, Ordering::SeqCst);
        let mut stream = stream;
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(ctx.io_timeout));
        let _ = write_response(
            &mut stream,
            503,
            "Service Unavailable",
            &[("Retry-After", SHED_RETRY_AFTER_SECS.to_string())],
            "{\"error\": \"connection limit\"}",
        );
        return;
    }
    let ctx = Arc::clone(ctx);
    thread::spawn(move || {
        handle_connection(&ctx, stream);
        ctx.conns.fetch_sub(1, Ordering::SeqCst);
    });
}

// ---------------------------------------------------------------------------
// HTTP layer

struct Request {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: String,
}

impl Request {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The job limits the `x-nls-*` headers ask for, read by the
    /// budget flags' parser.
    fn limits(&self) -> Result<JobLimits, CliError> {
        parse_limits(|name| self.header(&format!("x-nls-{name}")))
    }
}

/// Reads one request. `Ok(None)` is a clean close before any bytes;
/// `Err` is a malformed, oversized, or timed-out request (the
/// caller answers 400 and closes — slow clients land here via the
/// socket read timeout).
fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, String> {
    let mut head: Vec<u8> = Vec::new();
    let mut byte = [0u8; 1];
    // nls-lint: allow(cancellation-reach): bounded by MAX_HEAD_BYTES and the socket read timeout
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD_BYTES {
            return Err("request head too large".to_string());
        }
        match stream.read(&mut byte) {
            Ok(0) => {
                if head.is_empty() {
                    return Ok(None);
                }
                return Err("connection closed mid-request".to_string());
            }
            Ok(_) => head.extend_from_slice(&byte),
            Err(e) => return Err(format!("head read failed: {e}")),
        }
    }
    let text = String::from_utf8(head).map_err(|_| "request head is not UTF-8".to_string())?;
    let mut lines = text.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || !path.starts_with('/') {
        return Err(format!("malformed request line {request_line:?}"));
    }
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v.parse::<usize>().map_err(|_| format!("bad content-length {v:?}"))?,
        None => 0,
    };
    if len > MAX_BODY_BYTES {
        return Err(format!("request body too large ({len} bytes)"));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).map_err(|e| format!("body read failed: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
    Ok(Some(Request { method, path, headers, body }))
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra: &[(&str, String)],
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: \
         {}\r\nConnection: close\r\n",
        body.len()
    );
    extra.iter().for_each(|(k, v)| head.push_str(&format!("{k}: {v}\r\n")));
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn write_chunked_head(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: \
          chunked\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

fn write_chunk(stream: &mut TcpStream, text: &str) -> io::Result<()> {
    stream.write_all(format!("{:x}\r\n", text.len()).as_bytes())?;
    stream.write_all(text.as_bytes())?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

fn finish_chunks(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

fn handle_connection(ctx: &ServeCtx, mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(ctx.io_timeout));
    let _ = stream.set_write_timeout(Some(ctx.io_timeout));
    match read_request(&mut stream) {
        Ok(Some(req)) => route(ctx, &mut stream, &req),
        Ok(None) => {}
        Err(msg) => bad_request(&mut stream, &msg),
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn bad_request(stream: &mut TcpStream, msg: &str) {
    let body = format!("{{\"error\": {}}}", json_string(msg));
    let _ = write_response(stream, 400, "Bad Request", &[], &body);
}

fn route(ctx: &ServeCtx, stream: &mut TcpStream, req: &Request) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = write_response(stream, 200, "OK", &[], "{\"status\": \"ok\"}");
        }
        ("GET", "/readyz") => {
            if ctx.registry.ready() {
                let _ = write_response(stream, 200, "OK", &[], "{\"status\": \"ready\"}");
            } else {
                let retry = if ctx.registry.draining() {
                    DRAIN_RETRY_AFTER_SECS
                } else {
                    SHED_RETRY_AFTER_SECS
                };
                let _ = write_response(
                    stream,
                    503,
                    "Service Unavailable",
                    &[("Retry-After", retry.to_string())],
                    "{\"status\": \"not ready\"}",
                );
            }
        }
        ("POST", "/v1/simulate") => handle_submit(ctx, stream, JobKind::Simulate, req),
        ("POST", "/v1/sweep") => handle_submit(ctx, stream, JobKind::Sweep, req),
        ("GET", path) if path.starts_with("/v1/jobs/") => handle_job(ctx, stream, path),
        _ => {
            let _ = write_response(
                stream,
                404,
                "Not Found",
                &[],
                "{\"error\": \"no such endpoint\"}",
            );
        }
    }
}

/// Every cell of `runs` from the cache, or `None` on any miss.
fn cached_cells(
    ctx: &ServeCtx,
    runs: &[RunSpec],
    cfg: &SweepConfig,
) -> Option<Vec<(String, Vec<SimResult>)>> {
    runs.iter()
        .map(|r| ctx.cache.lookup(&r.key(), cfg).map(|results| (r.key(), results)))
        .collect()
}

fn handle_submit(ctx: &ServeCtx, stream: &mut TcpStream, kind: JobKind, req: &Request) {
    let spec = match parse_job_request(&req.body, kind, &ctx.defaults) {
        Ok(spec) => spec,
        Err(e) => return bad_request(stream, &e.to_string()),
    };
    let runs = match job_runs(kind, &spec) {
        Ok(runs) => runs,
        Err(CliError(msg)) => return bad_request(stream, &format!("bad request body: {msg}")),
    };
    let limits = match req.limits() {
        Ok(limits) => limits,
        Err(CliError(msg)) => {
            return bad_request(stream, &format!("bad request header: {msg}"))
        }
    };
    let limits = limits.clamp_to(&ctx.policy);
    // Deterministic simulation: a fully cached grid is answered
    // inline, bit-for-bit what running the job would produce.
    if let Some(cells) = cached_cells(ctx, &runs, &spec.config()) {
        ctx.registry.counters.cache_hits.fetch_add(runs.len() as u64, Ordering::Relaxed);
        let _ = write_response(stream, 200, "OK", &[], &render_job_results(&cells));
        return;
    }
    match ctx.registry.admit_staged(kind, spec, limits, runs.len()) {
        AdmitOutcome::Accepted(id) => {
            // Durability gate: persist before acknowledging, so an
            // accepted job is never dropped by a crash — and before
            // any worker may claim it, so a worker's later save of the
            // job can never be overwritten by this first one.
            if let Some(job) = ctx.registry.get(id) {
                if let Err(e) = save_job(&ctx.state_dir, &job) {
                    ctx.registry.finish(id, Err(format!("cannot persist job: {e}")));
                    let _ = write_response(
                        stream,
                        500,
                        "Internal Server Error",
                        &[],
                        "{\"error\": \"cannot persist job\"}",
                    );
                    return;
                }
            }
            ctx.registry.enqueue_staged(id);
            let body = format!("{{\"job\": {id}, \"cells\": {}}}", runs.len());
            let _ = write_response(stream, 202, "Accepted", &[], &body);
        }
        AdmitOutcome::QueueFull { retry_after_secs } => {
            let _ = write_response(
                stream,
                429,
                "Too Many Requests",
                &[("Retry-After", retry_after_secs.to_string())],
                "{\"error\": \"queue full\"}",
            );
        }
        AdmitOutcome::Draining { retry_after_secs } => {
            let _ = write_response(
                stream,
                503,
                "Service Unavailable",
                &[("Retry-After", retry_after_secs.to_string())],
                "{\"error\": \"draining\"}",
            );
        }
    }
}

fn handle_job(ctx: &ServeCtx, stream: &mut TcpStream, path: &str) {
    let id = match path.strip_prefix("/v1/jobs/").and_then(|s| s.parse::<u64>().ok()) {
        Some(id) => id,
        None => {
            let _ =
                write_response(stream, 404, "Not Found", &[], "{\"error\": \"bad job id\"}");
            return;
        }
    };
    let Some(job) = ctx.registry.get(id) else {
        let _ = write_response(stream, 404, "Not Found", &[], "{\"error\": \"no such job\"}");
        return;
    };
    if job.status.is_terminal() {
        let body = job_json(ctx, &job);
        let _ = write_response(stream, 200, "OK", &[], &body);
        return;
    }
    // Progress streaming: one NDJSON chunk per status change, and at
    // most STREAM_POLL_MS apart while the job runs (multi-cell
    // progress), until the job lands, the server drains, or the
    // client stops reading.
    if write_chunked_head(stream).is_err() {
        return;
    }
    let mut job = job;
    loop {
        let current = refreshed(ctx, job);
        if write_chunk(stream, &job_json(ctx, &current)).is_err() {
            return; // client is gone; the job keeps running
        }
        if current.status.is_terminal()
            || ctx.server_token.is_cancelled()
            || ctx.registry.draining()
        {
            break;
        }
        let wait = Duration::from_millis(STREAM_POLL_MS);
        match ctx.registry.wait_for_change(id, current.status.tag(), wait) {
            Some(next) => job = next,
            None => break,
        }
    }
    let _ = finish_chunks(stream);
}

/// A `Running` job's progress, refreshed from its ledger's cell
/// counts (the registry only learns progress when someone asks).
fn refreshed(ctx: &ServeCtx, job: Job) -> Job {
    if job.status != JobStatus::Running {
        return job;
    }
    let file = LedgerFile::new(ctx.state_dir.join(job_ledger_name(job.id)));
    if !file.path().exists() {
        return job;
    }
    match file.read(&ctx.server_token) {
        Ok(ledger) => {
            let done = ledger.counts().done;
            ctx.registry.progress(job.id, done);
            Job { done_cells: done, ..job }
        }
        Err(_) => job,
    }
}

/// One status line for a job, NDJSON-shaped: terminal `done` embeds
/// the raw results JSON, terminal `failed` the quoted error.
fn job_json(ctx: &ServeCtx, job: &Job) -> String {
    let mut out = format!(
        "{{\"id\": {}, \"kind\": {}, \"status\": {}, \"cells\": {}, \"done\": {}, \
         \"attempts\": {}",
        job.id,
        json_string(job.kind.tag()),
        json_string(job.status.tag()),
        job.cells,
        job.done_cells,
        job.attempts,
    );
    match &job.status {
        JobStatus::Done { results } if !results.is_empty() => {
            out.push_str(", \"results\": ");
            out.push_str(results);
        }
        // A resume-restored done job persists no result text; its
        // cells live in the cache, so re-render on demand.
        JobStatus::Done { .. } => match hydrated_results(ctx, job) {
            Some(results) => {
                out.push_str(", \"results\": ");
                out.push_str(&results);
            }
            None => out.push_str(", \"results\": null"),
        },
        JobStatus::Failed { error } => {
            out.push_str(", \"error\": ");
            out.push_str(&json_string(error));
        }
        JobStatus::Queued | JobStatus::Running => {}
    }
    out.push_str("}\n");
    out
}

fn hydrated_results(ctx: &ServeCtx, job: &Job) -> Option<String> {
    let runs = job_runs(job.kind, &job.spec).ok()?;
    let cells = cached_cells(ctx, &runs, &job.spec.config())?;
    Some(render_job_results(&cells))
}

// ---------------------------------------------------------------------------
// The worker pool

/// One pool worker: blocks until a job is queued, runs it, repeats;
/// returns once the drain begins.
fn run_job_worker(ctx: &ServeCtx, index: usize) {
    let worker = format!("serve-w{index}");
    while !ctx.server_token.is_cancelled() {
        let Some(job) = ctx.registry.claim_wait(&ctx.server_token) else { break };
        run_claimed(ctx, &worker, job);
    }
}

fn persist(ctx: &ServeCtx, id: u64) {
    if let Some(job) = ctx.registry.get(id) {
        if let Err(e) = save_job(&ctx.state_dir, &job) {
            eprintln!("nls serve: cannot persist job {id}: {e}");
        }
    }
}

/// Runs one claimed job under supervision: full-cache-hit
/// short-circuit, else the cell grid through a per-job ledger (so a
/// crash resumes cell-by-cell), then publish. A tripped budget
/// checkpoints during drain, otherwise retries with the ledger's
/// exponential backoff up to [`MAX_JOB_RETRIES`] times.
fn run_claimed(ctx: &ServeCtx, worker: &str, job: Job) {
    let cfg = job.spec.config();
    let runs = match job_runs(job.kind, &job.spec) {
        Ok(runs) => runs,
        Err(CliError(msg)) => {
            ctx.registry.finish(job.id, Err(format!("bad job spec: {msg}")));
            persist(ctx, job.id);
            return;
        }
    };
    if let Some(cells) = cached_cells(ctx, &runs, &cfg) {
        ctx.registry.counters.cache_hits.fetch_add(runs.len() as u64, Ordering::Relaxed);
        ctx.registry.finish(job.id, Ok(render_job_results(&cells)));
        persist(ctx, job.id);
        return;
    }
    let file = LedgerFile::new(ctx.state_dir.join(job_ledger_name(job.id)));
    let keys = runs.iter().map(|r| r.key());
    let fresh = Ledger::new(&cfg, DEFAULT_LEASE_MS, DEFAULT_MAX_ATTEMPTS, keys);
    // resume=true: creates the ledger on the first attempt, adopts
    // the existing one after a retry or a crash-restart.
    if let Err(e) = file.init(fresh, true) {
        ctx.registry.finish(job.id, Err(format!("job ledger: {e}")));
        persist(ctx, job.id);
        return;
    }
    let budget = job.limits.budget(ctx.job_token.clone());
    match run_ledger_worker(&runs, &cfg, &budget, &file, worker, 1) {
        Ok(_report) => publish(ctx, &job, &runs, &cfg, &file),
        Err(NlsError::Interrupted(reason)) => {
            if ctx.job_token.is_cancelled() || ctx.registry.draining() {
                // Drain: back to the queue with no attempt spent; the
                // per-job ledger already holds the finished cells.
                ctx.registry.checkpoint(job.id);
                persist(ctx, job.id);
            } else {
                let next = job.attempts.saturating_add(1);
                if next > MAX_JOB_RETRIES {
                    ctx.registry.finish(
                        job.id,
                        Err(format!("degraded after {next} attempt(s): {reason}")),
                    );
                    persist(ctx, job.id);
                } else {
                    // Back off before requeueing so the next claim
                    // does not spin on the same tripped budget.
                    let _ = sleep_polling(retry_backoff_ms(next), &ctx.server_token);
                    ctx.registry.requeue_retry(job.id);
                    persist(ctx, job.id);
                }
            }
        }
        Err(e) => {
            ctx.registry.finish(job.id, Err(e.to_string()));
            persist(ctx, job.id);
        }
    }
}

/// Publishes a drained ledger: cache every cell, render the job's
/// results, finish, and clean the ledger up.
fn publish(ctx: &ServeCtx, job: &Job, runs: &[RunSpec], cfg: &SweepConfig, file: &LedgerFile) {
    let ledger = match file.read(&ctx.server_token) {
        Ok(ledger) => ledger,
        Err(e) => {
            ctx.registry.finish(job.id, Err(format!("cannot read job ledger: {e}")));
            persist(ctx, job.id);
            return;
        }
    };
    let outcomes = merge_ledger_outcomes(runs, &ledger);
    let cells: Result<Vec<(String, Vec<SimResult>)>, String> = runs
        .iter()
        .zip(outcomes)
        .map(|(run, outcome)| match outcome {
            Ok(results) => Ok((run.key(), results)),
            Err(e) => Err(e.to_string()),
        })
        .collect();
    match cells {
        Ok(cells) => {
            cells.iter().for_each(|(key, results)| {
                if let Err(e) = ctx.cache.store(key, cfg, results) {
                    eprintln!("nls serve: cache store failed for {key}: {e}");
                }
                ctx.registry.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
            });
            ctx.registry.finish(job.id, Ok(render_job_results(&cells)));
            persist(ctx, job.id);
            let _ = fs::remove_file(file.path());
        }
        Err(e) => {
            ctx.registry.finish(job.id, Err(e));
            persist(ctx, job.id);
        }
    }
}

// ---------------------------------------------------------------------------
// `nls soak --server`: the server chaos drill

/// Wall-clock ceiling for the whole drill; past it the watchdog
/// SIGKILLs the servers so CI never hangs.
const DRILL_WATCHDOG_SECS: u64 = 120;

struct Watchdog {
    done: AtomicBool,
    pids: [AtomicU32; 2],
}

fn spawn_watchdog() -> Arc<Watchdog> {
    let state = Arc::new(Watchdog {
        done: AtomicBool::new(false),
        pids: [AtomicU32::new(0), AtomicU32::new(0)],
    });
    let watch = Arc::clone(&state);
    thread::spawn(move || {
        let mut waited = 0u64;
        while waited < DRILL_WATCHDOG_SECS {
            if watch.done.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(Duration::from_secs(1));
            waited += 1;
        }
        eprintln!("nls soak --server: watchdog fired after {DRILL_WATCHDOG_SECS}s");
        watch.pids.iter().for_each(|slot| {
            let pid = slot.load(Ordering::SeqCst);
            if pid != 0 {
                send_signal(pid, 9);
            }
        });
    });
    state
}

/// One request spec in the drill corpus, with its in-process
/// reference rendering (the bit-for-bit parity surface).
struct SoakSpec {
    kind: JobKind,
    body: String,
    reference: String,
}

impl SoakSpec {
    fn path(&self) -> &'static str {
        match self.kind {
            JobKind::Simulate => "/v1/simulate",
            JobKind::Sweep => "/v1/sweep",
        }
    }
}

fn soak_corpus(trace_len: usize, seed: u64) -> Result<Vec<SoakSpec>, NlsError> {
    let long_len = trace_len.saturating_mul(40);
    let bodies = [
        (
            JobKind::Simulate,
            format!(
                "{{\"bench\": \"li\", \"cache\": \"16K:1\", \"len\": {trace_len}, \
                 \"seed\": {seed}}}"
            ),
        ),
        (
            JobKind::Simulate,
            format!(
                "{{\"bench\": \"espresso\", \"cache\": \"8K:1\", \"len\": {trace_len}, \
                 \"seed\": {seed}}}"
            ),
        ),
        (
            JobKind::Simulate,
            format!(
                "{{\"bench\": \"li\", \"cache\": \"8K:4\", \"len\": {trace_len}, \
                 \"seed\": {}}}",
                seed.wrapping_add(1)
            ),
        ),
        (
            JobKind::Sweep,
            format!(
                "{{\"bench\": \"groff\", \"caches\": [\"8K:1\", \"16K:1\"], \"engines\": \
                 [\"nls-table:512\"], \"len\": {long_len}, \"seed\": {seed}}}"
            ),
        ),
    ];
    let defaults = SweepConfig { trace_len, seed };
    bodies
        .into_iter()
        .map(|(kind, body)| {
            let spec = parse_job_request(&body, kind, &defaults)?;
            let runs = job_runs(kind, &spec)?;
            let cfg = spec.config();
            let cells: Vec<(String, Vec<SimResult>)> =
                runs.iter().map(|r| (r.key(), run_one(r, &cfg))).collect();
            Ok(SoakSpec { kind, body, reference: render_job_results(&cells) })
        })
        .collect()
}

struct ServerProc {
    child: Child,
    addr: String,
}

fn start_server(
    exe: &Path,
    state_dir: &Path,
    resume: bool,
    jobs: usize,
    queue: usize,
) -> Result<ServerProc, NlsError> {
    let mut cmd = Command::new(exe);
    cmd.arg("serve")
        .arg("--port")
        .arg("0")
        .arg("--jobs")
        .arg(jobs.to_string())
        .arg("--queue")
        .arg(queue.to_string())
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--io-timeout")
        .arg("500ms")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if resume {
        cmd.arg("--resume");
    }
    let mut child = cmd.spawn().map_err(NlsError::Io)?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| NlsError::Io(io::Error::other("server stdout not captured")))?;
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let mut reader = io::BufReader::new(stdout);
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        let _ = tx.send(line);
        // Keep draining so the server never blocks on a full pipe.
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
    });
    let line = rx.recv_timeout(Duration::from_secs(20)).unwrap_or_default();
    match line.trim().strip_prefix("serving on ") {
        Some(addr) => Ok(ServerProc { child, addr: to_connect_addr(addr) }),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(NlsError::Run(RunError::Panicked {
                run: "serve-soak".to_string(),
                message: format!("server did not announce its address (got {line:?})"),
                attempts: 1,
            }))
        }
    }
}

/// `local_addr` renders `0.0.0.0:p` for a wildcard bind; connect to
/// loopback instead.
fn to_connect_addr(addr: &str) -> String {
    match addr.strip_prefix("0.0.0.0:") {
        Some(port) => format!("127.0.0.1:{port}"),
        None => addr.to_string(),
    }
}

/// A parsed HTTP response: status, lower-cased headers, body.
type Response = (u16, Vec<(String, String)>, String);

/// One blocking HTTP exchange: connect, send, read to EOF, parse.
/// Chunked bodies are reduced to their JSON lines.
fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: \
         close\r\n",
        body.len()
    );
    headers.iter().for_each(|(k, v)| req.push_str(&format!("{k}: {v}\r\n")));
    req.push_str("\r\n");
    req.push_str(body);
    stream.write_all(req.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut text = String::new();
    stream.read_to_string(&mut text).map_err(|e| format!("read: {e}"))?;
    parse_response(&text)
}

fn parse_response(text: &str) -> Result<Response, String> {
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no header/body split in {text:?}"))?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        // Chunk payloads are NDJSON lines; size lines and the
        // terminator never start with '{'.
        body.lines().filter(|l| l.starts_with('{')).collect::<Vec<_>>().join("\n")
    } else {
        body.to_string()
    };
    Ok((status, headers, body))
}

/// The string value of `"name": "..."` in a rendered job line.
fn line_field_str(line: &str, name: &str) -> Option<String> {
    let marker = format!("\"{name}\": \"");
    let (_, rest) = line.split_once(&marker)?;
    rest.split_once('"').map(|(v, _)| v.to_string())
}

/// The raw embedded results JSON of a terminal `done` job line.
fn line_results_raw(line: &str) -> Option<String> {
    let (_, rest) = line.split_once("\"results\": ")?;
    rest.trim_end().strip_suffix('}').map(str::to_string)
}

/// Streams `GET /v1/jobs/:id` until the job lands and returns the
/// final status line.
fn await_job(addr: &str, id: u64) -> Result<String, String> {
    let (status, _headers, body) =
        http_request(addr, "GET", &format!("/v1/jobs/{id}"), &[], "")?;
    if status != 200 {
        return Err(format!("job {id}: status {status}: {body}"));
    }
    body.lines().last().map(str::to_string).ok_or_else(|| format!("job {id}: empty response"))
}

#[derive(Default)]
struct FloodOutcome {
    requests: usize,
    accepted: Vec<(u64, usize)>,
    direct: Vec<(usize, String)>,
    shed: usize,
    malformed_sheds: usize,
    connect_errors: usize,
    protocol_errors: Vec<String>,
}

/// Seeded request flood: `clients` concurrent connections each
/// firing `requests` submissions picked from the short corpus specs.
fn flood(
    addr: &str,
    specs: &[SoakSpec],
    clients: usize,
    requests: usize,
    sched: &mut ChaosScheduler,
) -> FloodOutcome {
    let short = specs.len().saturating_sub(1).max(1) as u64;
    let plan: Vec<Vec<(usize, String, String)>> = (0..clients)
        .map(|_| {
            (0..requests)
                .filter_map(|_| {
                    let idx = usize::try_from(sched.pick(short)).unwrap_or(0);
                    specs.get(idx).map(|s| (idx, s.path().to_string(), s.body.clone()))
                })
                .collect()
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    let handles: Vec<thread::JoinHandle<()>> = plan
        .into_iter()
        .map(|batch| {
            let tx = tx.clone();
            let addr = addr.to_string();
            thread::spawn(move || {
                batch.into_iter().for_each(|(idx, path, body)| {
                    let res =
                        http_request(&addr, "POST", &path, &[("x-nls-deadline", "30s")], &body);
                    let _ = tx.send((idx, res));
                });
            })
        })
        .collect();
    drop(tx);
    let mut out = FloodOutcome::default();
    rx.iter().for_each(|(idx, res)| {
        out.requests += 1;
        match res {
            Ok((202, _headers, body)) => match json_u64_field(&body, "job") {
                Some(id) => out.accepted.push((id, idx)),
                None => out.protocol_errors.push(format!("202 without a job id: {body}")),
            },
            Ok((200, _headers, body)) => out.direct.push((idx, body)),
            Ok((429 | 503, headers, _body)) => {
                out.shed += 1;
                if !headers.iter().any(|(k, _)| k == "retry-after") {
                    out.malformed_sheds += 1;
                }
            }
            Ok((status, _headers, body)) => {
                out.protocol_errors.push(format!("unexpected status {status}: {body}"));
            }
            // The mid-drill SIGKILL makes some socket failures
            // legitimate; they are counted, not condemned.
            Err(_) => out.connect_errors += 1,
        }
    });
    handles.into_iter().for_each(|h| {
        let _ = h.join();
    });
    out
}

/// The integer value of `"name": N` in a small JSON body.
fn json_u64_field(body: &str, name: &str) -> Option<u64> {
    let marker = format!("\"{name}\": ");
    let (_, rest) = body.split_once(&marker)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Stalled-client chaos: half-written requests held open past the
/// server's io-timeout. The server must time each one out and stay
/// responsive; the stalled sockets observe the close.
fn stall_clients(
    addr: &str,
    plan: &[RuntimeFault],
    io_timeout_ms: u64,
) -> (usize, Vec<String>) {
    let handles: Vec<thread::JoinHandle<Result<(), String>>> = plan
        .iter()
        .filter_map(|f| match *f {
            RuntimeFault::ClientStall { after_millis, hold_ms } => {
                Some((after_millis, hold_ms))
            }
            _ => None,
        })
        .map(|(after, hold)| {
            let addr = addr.to_string();
            thread::spawn(move || -> Result<(), String> {
                thread::sleep(Duration::from_millis(after));
                let mut stream =
                    TcpStream::connect(&addr).map_err(|e| format!("stall connect: {e}"))?;
                stream
                    .write_all(b"POST /v1/simulate HTTP/1.1\r\nContent-Le")
                    .map_err(|e| format!("stall write: {e}"))?;
                thread::sleep(Duration::from_millis(io_timeout_ms.saturating_add(hold)));
                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                let mut buf = String::new();
                // EOF or reset — either proves the server hung up.
                let _ = stream.read_to_string(&mut buf);
                Ok(())
            })
        })
        .collect();
    let mut served = 0usize;
    let mut errors = Vec::new();
    handles.into_iter().for_each(|h| match h.join() {
        Ok(Ok(())) => served += 1,
        Ok(Err(e)) => errors.push(e),
        Err(_) => errors.push("stall client panicked".to_string()),
    });
    (served, errors)
}

fn wait_exit(child: &mut Child, timeout: Duration) -> Option<std::process::ExitStatus> {
    let mut waited = Duration::ZERO;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) => {
                if waited >= timeout {
                    return None;
                }
                thread::sleep(Duration::from_millis(20));
                waited += Duration::from_millis(20);
            }
            Err(_) => return None,
        }
    }
}

/// `nls soak --server`: the simulation-service chaos drill.
///
/// Boots a real `nls serve` daemon, floods it with seeded concurrent
/// submissions (shedding expected and checked for `Retry-After`),
/// stalls connections past the io-timeout, SIGKILLs the server
/// mid-job, restarts it with `--resume`, and requires every accepted
/// job to finish with results bit-for-bit identical to in-process
/// runs of the same `(profile, config, seed)` — then SIGTERMs the
/// survivor and requires a clean drain exit 7.
///
/// # Errors
///
/// Fails on malformed options or with [`NlsError::Run`] when the
/// drill drops a job, diverges from the reference, sheds without
/// retry advice, violates the oracle, or fails to drain.
pub fn soak_server(a: &ParsedArgs) -> Result<String, NlsError> {
    expect_options(a, "soak --server")?;
    let seed = match a.get("seed") {
        Some(s) => s.parse().map_err(|_| CliError(format!("bad seed {s:?}")))?,
        None => 0x5e12_7e57,
    };
    // Six concurrent clients of three submissions each, over 20k-record
    // jobs (the long sweep walks 40 times as many).
    let (clients, requests, trace_len) = (6, 3, 20_000);
    let stalls = match a.get("stalls") {
        Some(s) => parse_count(s)?,
        None => 2,
    };

    let specs = soak_corpus(trace_len, seed)?;
    let exe = std::env::current_exe().map_err(NlsError::Io)?;
    let state_dir = std::env::temp_dir().join(format!("nls-serve-soak-{}", std::process::id()));
    let _ = fs::remove_dir_all(&state_dir);
    let mut sched = ChaosScheduler::new(seed);
    let mut report = ServeSoakReport::default();
    let watchdog = spawn_watchdog();

    // Phase 1: a deliberately tiny server (1 worker, queue of 2) so
    // the flood must shed.
    let mut server = start_server(&exe, &state_dir, false, 1, 2)?;
    if let Some(slot) = watchdog.pids.first() {
        slot.store(server.child.id(), Ordering::SeqCst);
    }
    match http_request(&server.addr, "GET", "/healthz", &[], "") {
        Ok((200, ..)) => {}
        other => report.protocol_errors.push(format!("healthz: {other:?}")),
    }
    // A malformed body must be a 400, never a hang or a 500.
    match http_request(&server.addr, "POST", "/v1/simulate", &[], "{\"nonsense\": 1}") {
        Ok((400, ..)) => {}
        other => report.protocol_errors.push(format!("malformed submit: {other:?}")),
    }

    let mut accepted: Vec<(u64, usize)> = Vec::new();
    let flood_out = flood(&server.addr, &specs, clients, requests, &mut sched);
    report.requests += flood_out.requests;
    report.shed = flood_out.shed;
    report.malformed_sheds = flood_out.malformed_sheds;
    report.connect_errors += flood_out.connect_errors;
    report.protocol_errors.extend(flood_out.protocol_errors);
    flood_out.direct.iter().for_each(|(idx, body)| {
        report.direct_hits += 1;
        if specs.get(*idx).map(|s| s.reference.as_str()) != Some(body.as_str()) {
            report
                .parity_failures
                .push(format!("direct response for spec {idx} differs from in-process run"));
        }
    });
    accepted.extend(flood_out.accepted.iter().copied());

    // Stalled clients while the backlog executes.
    let stall_plan = sched.stall_plan(stalls, 200, 400);
    let (stalled, stall_errors) = stall_clients(&server.addr, &stall_plan, 500);
    report.stalled_clients = stalled;
    report.protocol_errors.extend(stall_errors);
    match http_request(&server.addr, "GET", "/healthz", &[], "") {
        Ok((200, ..)) => {}
        other => {
            report.protocol_errors.push(format!("healthz after stalled clients: {other:?}"))
        }
    }

    // Submit the long sweep, give its worker a moment to claim it,
    // then SIGKILL the server mid-job.
    let long_idx = specs.len().saturating_sub(1);
    if let Some(long) = specs.get(long_idx) {
        report.requests += 1;
        match http_request(&server.addr, "POST", long.path(), &[], &long.body) {
            Ok((202, _headers, body)) => match json_u64_field(&body, "job") {
                Some(id) => accepted.push((id, long_idx)),
                None => report.protocol_errors.push(format!("long 202 without id: {body}")),
            },
            Ok((429 | 503, ..)) => report.shed += 1,
            other => report.protocol_errors.push(format!("long submit: {other:?}")),
        }
    }
    thread::sleep(Duration::from_millis(150));
    send_signal(server.child.id(), 9);
    let _ = server.child.wait();
    report.server_kills = 1;

    // Phase 2: restart with --resume on the same state dir; every
    // accepted job must land, bit-for-bit.
    let mut server2 = start_server(&exe, &state_dir, true, 2, 16)?;
    if let Some(slot) = watchdog.pids.get(1) {
        slot.store(server2.child.id(), Ordering::SeqCst);
    }
    report.accepted = accepted.len();
    accepted.iter().for_each(|&(id, idx)| match await_job(&server2.addr, id) {
        Ok(line) => match line_field_str(&line, "status").as_deref() {
            Some("done") => {
                report.completed += 1;
                match line_results_raw(&line) {
                    Some(raw) => {
                        if specs.get(idx).map(|s| s.reference.as_str()) != Some(raw.as_str()) {
                            report.parity_failures.push(format!(
                                "job {id} (spec {idx}) differs from in-process run"
                            ));
                        }
                        match parse_job_results(&raw) {
                            Ok(cells) => cells.iter().for_each(|(_key, results)| {
                                results.iter().for_each(|r| {
                                    report
                                        .oracle_findings
                                        .extend(oracle::invariant_violations(r));
                                });
                            }),
                            Err(e) => report
                                .protocol_errors
                                .push(format!("job {id}: unparseable results: {e}")),
                        }
                    }
                    None => {
                        report.parity_failures.push(format!("job {id}: done with no results"))
                    }
                }
            }
            other => {
                report.protocol_errors.push(format!("job {id}: final status {other:?}: {line}"))
            }
        },
        Err(e) => report.protocol_errors.push(format!("job {id}: {e}")),
    });

    // The cache channel: a duplicate of an accepted (hence finished)
    // submission now answers 200 inline with the identical bytes.
    // Which specs the flood got accepted depends on timing, so the
    // duplicate follows the first acceptance, not a fixed spec.
    if let Some(first) = accepted.first().and_then(|&(_, idx)| specs.get(idx)) {
        report.requests += 1;
        match http_request(&server2.addr, "POST", first.path(), &[], &first.body) {
            Ok((200, _headers, body)) => {
                report.direct_hits += 1;
                if body != first.reference {
                    report
                        .parity_failures
                        .push("cached duplicate differs from in-process run".to_string());
                }
            }
            other => report.protocol_errors.push(format!("duplicate submit: {other:?}")),
        }
    }

    // Graceful drain: SIGTERM, exit 7, interrupted-class error line.
    send_signal(server2.child.id(), 15);
    let status = wait_exit(&mut server2.child, Duration::from_secs(30));
    let mut stderr_text = String::new();
    if let Some(mut pipe) = server2.child.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr_text);
    }
    report.drain_exit_ok =
        status.and_then(|s| s.code()) == Some(7) && stderr_text.contains("error[interrupted]:");
    if !report.drain_exit_ok {
        report.protocol_errors.push(format!(
            "drain: exit {:?}, stderr {:?}",
            status.and_then(|s| s.code()),
            stderr_text.lines().next().unwrap_or_default()
        ));
    }
    let _ = server2.child.wait();

    watchdog.done.store(true, Ordering::SeqCst);
    let _ = fs::remove_dir_all(&state_dir);

    let out = report.render();
    if report.is_healthy() {
        Ok(out)
    } else {
        Err(NlsError::Run(RunError::Panicked {
            run: "serve-soak".to_string(),
            message: format!("server chaos drill failed:\n{out}"),
            attempts: 1,
        }))
    }
}

#[cfg(test)]
mod tests {
    use nls_core::JobSpec;

    use super::*;

    fn parsed(args: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn server_config_defaults_and_overrides() {
        let cfg = server_config(&parsed(&["serve"])).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:8080");
        assert_eq!(cfg.jobs, 4);
        assert_eq!(cfg.queue_cap, 16);
        assert_eq!(cfg.io_timeout, Duration::from_secs(5));
        assert!(!cfg.resume);
        assert_eq!(cfg.policy, JobLimits::default());

        let cfg = server_config(&parsed(&[
            "serve",
            "--port",
            "0",
            "--jobs",
            "2",
            "--queue",
            "3",
            "--max-deadline",
            "30s",
            "--max-records",
            "1m",
            "--max-heap-mb",
            "256",
            "--io-timeout",
            "500ms",
            "--resume",
        ]))
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.jobs, 2);
        assert_eq!(cfg.policy.deadline_ms, Some(30_000));
        assert_eq!(cfg.policy.max_records, Some(1_000_000));
        assert_eq!(cfg.policy.max_heap_mb, Some(256));
        assert_eq!(cfg.io_timeout, Duration::from_millis(500));
        assert!(cfg.resume);
    }

    #[test]
    fn server_config_rejects_garbage() {
        assert!(server_config(&parsed(&["serve", "--port", "fast"])).is_err());
        assert!(server_config(&parsed(&["serve", "--max-deadline", "0"])).is_err());
        assert!(server_config(&parsed(&["serve", "--max-heap-mb", "many"])).is_err());
        assert!(server_config(&parsed(&["serve", "--jobs", "0"])).is_err());
    }

    #[test]
    fn limits_come_from_headers_with_cli_grammars() {
        let req = Request {
            method: "POST".into(),
            path: "/v1/simulate".into(),
            headers: vec![
                ("x-nls-deadline".into(), "500ms".into()),
                ("x-nls-max-records".into(), "10k".into()),
                ("x-nls-max-heap-mb".into(), "64".into()),
            ],
            body: String::new(),
        };
        let limits = req.limits().unwrap();
        assert_eq!(limits.deadline_ms, Some(500));
        assert_eq!(limits.max_records, Some(10_000));
        assert_eq!(limits.max_heap_mb, Some(64));

        let bad = Request {
            method: "POST".into(),
            path: "/v1/simulate".into(),
            headers: vec![("x-nls-deadline".into(), "0".into())],
            body: String::new(),
        };
        assert!(bad.limits().is_err(), "zero deadline is a usage error");
        let bad = Request {
            method: "POST".into(),
            path: "/v1/simulate".into(),
            headers: vec![("x-nls-max-heap-mb".into(), "lots".into())],
            body: String::new(),
        };
        assert!(bad.limits().is_err(), "non-numeric heap is a usage error");
        let bad = Request {
            method: "POST".into(),
            path: "/v1/simulate".into(),
            headers: vec![("x-nls-max-records".into(), "18446744073709552k".into())],
            body: String::new(),
        };
        let err = bad.limits().unwrap_err();
        assert!(err.0.contains("too large"), "an overflowing record limit is refused: {err}");
    }

    #[test]
    fn grids_expand_with_server_defaults() {
        let spec = JobSpec {
            bench: "li".into(),
            caches: Vec::new(),
            engines: Vec::new(),
            trace_len: 1000,
            seed: 1,
        };
        let runs = job_runs(JobKind::Simulate, &spec).unwrap();
        assert_eq!(runs.len(), 1, "simulate defaults to one cache");
        assert_eq!(runs.first().map(|r| r.engines.len()), Some(2));
        let runs = job_runs(JobKind::Sweep, &spec).unwrap();
        assert_eq!(runs.len(), 6, "sweep defaults to the paper's six caches");
        let bad = JobSpec { bench: "nope".into(), ..spec };
        assert!(job_runs(JobKind::Simulate, &bad).is_err());
    }

    #[test]
    fn responses_parse_including_chunked_ndjson() {
        let (status, headers, body) = parse_response(
            "HTTP/1.1 202 Accepted\r\nContent-Length: 10\r\nRetry-After: 1\r\n\r\n\
             {\"job\": 3}",
        )
        .unwrap();
        assert_eq!(status, 202);
        assert!(headers.iter().any(|(k, v)| k == "retry-after" && v == "1"));
        assert_eq!(body, "{\"job\": 3}");
        assert_eq!(json_u64_field(&body, "job"), Some(3));

        let (status, _headers, body) = parse_response(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
             1c\r\n{\"id\": 1, \"status\": \"x\"}\n\r\n\
             1c\r\n{\"id\": 1, \"status\": \"y\"}\n\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 2, "{body:?}");
        assert_eq!(body.lines().last(), Some("{\"id\": 1, \"status\": \"y\"}"));
        assert!(parse_response("garbage").is_err());
    }

    #[test]
    fn job_lines_round_trip_status_and_results() {
        let line = "{\"id\": 9, \"kind\": \"sweep\", \"status\": \"done\", \"cells\": 2, \
                    \"done\": 2, \"attempts\": 0, \"results\": {\"cells\": []}}";
        assert_eq!(line_field_str(line, "status").as_deref(), Some("done"));
        assert_eq!(line_field_str(line, "kind").as_deref(), Some("sweep"));
        assert_eq!(line_results_raw(line).as_deref(), Some("{\"cells\": []}"));
        let running =
            "{\"id\": 9, \"kind\": \"sweep\", \"status\": \"running\", \"cells\": 2, \
             \"done\": 1, \"attempts\": 0}";
        assert_eq!(line_field_str(running, "status").as_deref(), Some("running"));
        assert_eq!(line_results_raw(running), None);
    }

    #[test]
    fn connect_addresses_replace_wildcard_binds() {
        assert_eq!(to_connect_addr("0.0.0.0:8080"), "127.0.0.1:8080");
        assert_eq!(to_connect_addr("127.0.0.1:81"), "127.0.0.1:81");
    }
}
