//! **nextline** — next cache line and set (NLS) fetch prediction.
//!
//! A from-scratch Rust reproduction of Calder & Grunwald, *"Next
//! Cache Line and Set Prediction"*, ISCA 1995: instead of storing a
//! branch's full target address (as a branch target buffer does), an
//! NLS predictor stores a *pointer into the instruction cache* —
//! line, set and instruction offset — which is smaller, tag-less,
//! and fast to look up. The paper shows a 1024-entry NLS-table
//! matching or beating BTBs of equal or twice the cost.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`trace`] — instruction traces, the six Table 1 benchmark
//!   profiles and the synthetic workload generator.
//! * [`icache`] — the instruction-cache simulator.
//! * [`predictors`] — PHTs, return stack, BTB and NLS structures.
//! * [`core`] — fetch engines, misfetch/mispredict metrics, sweeps.
//! * [`cost`] — RBE area and CACTI-style access-time models.
//!
//! # Quick start
//!
//! Compare the paper's headline pair — a 1024-entry NLS-table versus
//! an equal-cost 128-entry direct-mapped BTB — on a gcc-like
//! workload:
//!
//! ```
//! use nextline::core::{run_one, EngineSpec, PenaltyModel, RunSpec, SweepConfig};
//! use nextline::icache::CacheConfig;
//! use nextline::trace::BenchProfile;
//!
//! let spec = RunSpec {
//!     bench: BenchProfile::gcc(),
//!     cache: CacheConfig::paper(16, 1),
//!     engines: vec![EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)],
//! };
//! let results = run_one(&spec, &SweepConfig { trace_len: 400_000, seed: 1 });
//! let m = PenaltyModel::paper();
//! let (btb, nls) = (&results[0], &results[1]);
//! // gcc's large branch working set overflows the 128-entry BTB:
//! assert!(nls.pct_misfetched() < btb.pct_misfetched());
//! assert!(nls.bep(&m) < btb.bep(&m));
//! ```
//!
//! The `nls-bench` crate regenerates every table and figure of the
//! paper (`cargo run --release -p nls-bench --bin repro_all`); see
//! DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.

/// Fetch engines, metrics and sweep drivers (re-export of
/// [`nls_core`]).
pub mod core {
    pub use nls_core::*;
}

/// Cost models: RBE area and access time (re-export of [`nls_cost`]).
pub mod cost {
    pub use nls_cost::{access_time, rbe, Nanos, Rbe};
}

/// Instruction-cache simulation (re-export of [`nls_icache`]).
pub mod icache {
    pub use nls_icache::*;
}

/// Prediction structures (re-export of [`nls_predictors`]).
pub mod predictors {
    pub use nls_predictors::*;
}

/// Traces and synthetic workloads (re-export of [`nls_trace`]).
pub mod trace {
    pub use nls_trace::*;
}
