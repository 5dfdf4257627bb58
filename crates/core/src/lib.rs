//! Fetch-prediction simulation: the core of the NLS reproduction.
//!
//! This crate assembles the substrates (`nls-trace`, `nls-icache`,
//! `nls-predictors`) into the paper's complete fetch architectures
//! and measures them the way the paper does (Calder & Grunwald,
//! *Next Cache Line and Set Prediction*, ISCA 1995):
//!
//! * [`EngineSpec`] — one fetch architecture: the decoupled BTB +
//!   gshare PHT + return-stack baseline of §3 (`Btb`); the paper's
//!   contribution, a tag-less table of next-line/set predictors
//!   decoupled from the cache (§4, `NlsTable`); the coupled
//!   organisation with predictors attached to cache lines
//!   (`NlsCache`); and the prior successor-index design with coupled
//!   one-bit prediction (§6.2, `Johnson`).
//! * [`Cell`] — a cache and the engines of some specs on one front
//!   end, so that only the fetch mechanism differs between them;
//!   [`drive_records_supervised`] feeds it any source that fills a
//!   block of records at a time (`nls replay` decodes a trace file
//!   into it), and
//!   [`run_cells_supervised`] walks a synthetic workload through
//!   several at once.
//! * [`SimResult`] / [`PenaltyModel`] — %MfB, %MpB, branch execution
//!   penalty and CPI exactly as defined in §5.2.
//! * [`run_sweep`] — parallel (benchmark × cache × architecture)
//!   sweeps with deterministic results; [`run_sweep_supervised`] adds
//!   panic isolation, bounded retry, a budget and — over a
//!   [`LedgerFile`], the work ledger every durable sweep keeps — resume.
//! * [`NlsError`] — the workspace error taxonomy (one process exit
//!   code per class).
//! * [`oracle`] — accounting-invariant and cross-engine agreement
//!   checks for fault-injection harnesses.
//! * [`serve`] — the simulation-service core behind `nls serve`: job
//!   registry, bounded admission queue, drain state machine, and the
//!   content-addressed result cache.
//!
//! # Quick start
//!
//! ```
//! use nls_core::{run_one, EngineSpec, PenaltyModel, RunSpec, SweepConfig};
//! use nls_icache::CacheConfig;
//! use nls_trace::BenchProfile;
//!
//! let spec = RunSpec {
//!     bench: BenchProfile::espresso(),
//!     cache: CacheConfig::paper(8, 1),
//!     engines: vec![EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)],
//! };
//! let cfg = SweepConfig { trace_len: 100_000, seed: 1 };
//! let results = run_one(&spec, &cfg);
//! let penalties = PenaltyModel::paper();
//! for r in &results {
//!     assert!(r.bep(&penalties) < 1.5);
//!     assert!(r.cpi(&penalties) >= 1.0);
//! }
//! ```

mod btb_engine;
mod budget;
mod engine;
mod error;
mod front_end;
mod johnson_engine;
mod json;
pub mod ledger;
mod metrics;
mod nls_cache_engine;
mod nls_table_engine;
pub mod oracle;
mod penalty;
pub mod serve;
mod set_prediction;
pub mod soak;
mod spec;
mod supervisor;
mod sweep;

pub use budget::{Budget, CancelToken, StopReason, DEADLINE_POLL_INTERVAL};
pub use engine::{BreakOutcome, Counters, FetchAction, FetchEngine, KindCounts};
pub use error::{NlsError, RunError};
pub use front_end::Cell;
pub use json::json_string;
pub use ledger::{
    write_atomic, CellCounts, CellState, ClaimOutcome, Heartbeat, Ledger, LedgerFile,
    DEFAULT_LEASE_MS, DEFAULT_MAX_ATTEMPTS, LEDGER_VERSION,
};
pub use metrics::{average, SimResult};
pub use penalty::PenaltyModel;
pub use serve::{
    AdmitOutcome, DrainState, Job, JobKind, JobLimits, JobSpec, JobStatus, Registry,
    ResultCache, ServerCounters, SERVER_COUNTERS,
};
pub use set_prediction::{fallthrough_way_prediction, FallThroughWayStats};
pub use spec::{EngineSpec, PhtSpec};
pub use supervisor::{
    drive_records_supervised, drive_supervised_scalar, install_signal_token,
    run_cells_supervised, run_one_supervised, Outcome, BLOCK_RECORDS,
};
pub use sweep::{
    cross, executor_count, merge_ledger_outcomes, paper_caches, run_ledger_worker, run_one,
    run_sweep, run_sweep_supervised, RunSpec, SweepConfig, WorkerReport, DEFAULT_TRACE_LEN,
};
