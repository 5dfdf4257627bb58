//! Instruction traces and synthetic workloads for fetch-prediction
//! studies.
//!
//! This crate supplies the workload side of the NLS reproduction
//! (Calder & Grunwald, *Next Cache Line and Set Prediction*, ISCA
//! 1995):
//!
//! * [`Addr`], [`TraceRecord`], [`BreakKind`] — the trace model: one
//!   record per executed instruction with its control-flow class and
//!   resolved outcome.
//! * [`BenchProfile`] — the six Table 1 program profiles (`doduc`,
//!   `espresso`, `gcc`, `li`, `cfront`, `groff`).
//! * [`synthesize`] / [`Walker`] — build a statistically equivalent
//!   synthetic program for a profile and execute it into a
//!   PC-coherent trace stream.
//! * [`TraceStats`] — re-measure Table 1 columns from any trace.
//! * [`TraceReader`] / [`TraceWriter`] — streaming, bounded-memory
//!   binary trace files with configurable corruption recovery
//!   ([`RecoveryPolicy`]); [`write_trace`] / [`read_trace`] are the
//!   buffered convenience forms.
//! * [`faults`] — deterministic, seeded corruption of encoded
//!   traces for fault-injection testing.
//! * [`rng`] — the one seeded random stream that synthesis, the
//!   walker and the property tests draw from.
//!
//! # Quick start
//!
//! ```
//! use nls_trace::{BenchProfile, GenConfig, synthesize, TraceStats, Walker};
//!
//! let profile = BenchProfile::espresso();
//! let program = synthesize(&profile, &GenConfig::for_profile(&profile));
//! let mut walker = Walker::new(&program, 42);
//! let stats = TraceStats::from_trace(walker.by_ref().take(100_000));
//! // espresso is branch-dense: roughly one break in six instructions.
//! assert!(stats.pct_breaks() > 8.0);
//! ```

mod addr;
pub mod faults;
mod file;
mod measure;
mod profile;
mod program;
mod record;
pub mod rng;
mod synth;
mod walker;
mod weights;

pub use addr::{Addr, INST_BYTES};
pub use file::{
    read_trace, read_trace_with, write_atomic, write_trace, write_trace_atomic, RecoveryPolicy,
    TraceFileError, TraceReader, TraceWriter, TRACE_HEADER_BYTES, TRACE_RECORD_BYTES,
};
pub use measure::TraceStats;
pub use profile::{BenchProfile, BreakMix, HotQuantiles};
pub use program::{CondModel, IndirectDispatch, Inst, Procedure, Program};
pub use record::{BreakKind, InstClass, TraceRecord};
pub use synth::{synthesize, GenConfig, Layout, Plan};
pub use walker::{trace_for, Walker};
pub use weights::WeightCurve;
