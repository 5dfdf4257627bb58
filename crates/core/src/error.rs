//! The workspace error taxonomy.
//!
//! Every fallible layer reports through [`NlsError`], one variant
//! per error *class*, so front ends (the `nls` CLI, `repro_all`) can
//! map classes to distinct process exit codes and aggregate failures
//! without string matching:
//!
//! | class | variant | exit code |
//! |---|---|---|
//! | bad invocation | [`NlsError::Usage`] | 2 |
//! | corrupt/unreadable trace | [`NlsError::Trace`] | 3 |
//! | failed simulation run | [`NlsError::Run`] | 4 |
//! | saved serve state (job files) | [`NlsError::Checkpoint`] | 5 |
//! | other I/O | [`NlsError::Io`] | 6 |
//! | interrupted (signal/budget) | [`NlsError::Interrupted`] | 7 |
//! | work-ledger/lease failure | [`NlsError::Ledger`] | 8 |
//!
//! Exit codes 0 and 1 keep their conventional meanings (success, and
//! a generic/unclassified failure) and code 101 remains Rust's
//! abort-on-panic — which the sweep layer works to make unreachable.

use std::fmt;
use std::io;

use nls_trace::TraceFileError;

/// A single simulation run that could not produce results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The run's engine panicked on every attempt.
    Panicked {
        /// Which (bench × cache) run failed.
        run: String,
        /// The final panic payload, when it carried a message.
        message: String,
        /// How many attempts were made (1 + retries).
        attempts: u32,
    },
    /// The run did not finish: the sweep's budget or cancel token
    /// tripped before it started, or stopped it and released it
    /// unpublished. Distinct from [`RunError::Panicked`] — nothing
    /// went wrong with this run, the supervisor withdrew it.
    Interrupted {
        /// Which (bench × cache × engines) run was withdrawn.
        run: String,
        /// The rendered [`StopReason`](crate::StopReason).
        reason: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panicked { run, message, attempts } => {
                write!(f, "run {run} panicked after {attempts} attempt(s): {message}")
            }
            RunError::Interrupted { run, reason } => {
                write!(f, "run {run} was not started: {reason}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The workspace-wide error hierarchy: one variant per error class.
#[derive(Debug)]
pub enum NlsError {
    /// Malformed command line or option values.
    Usage(String),
    /// Trace-file decoding failure.
    Trace(TraceFileError),
    /// A simulation run failed.
    Run(RunError),
    /// `nls serve`'s saved job state is damaged (a job file that does
    /// not parse), or holds unfinished jobs a server started without
    /// `--resume` refuses to drop. The JSON helpers report shape
    /// errors in this class too; the work ledger re-raises them as
    /// [`NlsError::Ledger`].
    Checkpoint(String),
    /// Any other I/O failure.
    Io(io::Error),
    /// A signal or budget stopped the work before it finished. Work a
    /// ledger or a serve state directory holds is kept; rerun with
    /// `--resume` to continue.
    Interrupted(String),
    /// The distributed-sweep work ledger failed: the ledger file or
    /// its lock could not be acquired, read, or written, or the cell
    /// grid disagrees with the requested sweep.
    Ledger(String),
}

impl NlsError {
    /// The process exit code for this error class.
    pub fn exit_code(&self) -> u8 {
        match self {
            NlsError::Usage(_) => 2,
            NlsError::Trace(_) => 3,
            NlsError::Run(_) => 4,
            NlsError::Checkpoint(_) => 5,
            NlsError::Io(_) => 6,
            NlsError::Interrupted(_) => 7,
            NlsError::Ledger(_) => 8,
        }
    }

    /// A short, stable class name (used in logs and tests).
    pub fn class(&self) -> &'static str {
        match self {
            NlsError::Usage(_) => "usage",
            NlsError::Trace(_) => "trace",
            NlsError::Run(_) => "run",
            NlsError::Checkpoint(_) => "checkpoint",
            NlsError::Io(_) => "io",
            NlsError::Interrupted(_) => "interrupted",
            NlsError::Ledger(_) => "ledger",
        }
    }
}

impl fmt::Display for NlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NlsError::Usage(msg) => f.write_str(msg),
            NlsError::Trace(e) => write!(f, "trace error: {e}"),
            NlsError::Run(e) => write!(f, "run error: {e}"),
            NlsError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            NlsError::Io(e) => write!(f, "i/o error: {e}"),
            NlsError::Interrupted(msg) => write!(f, "interrupted: {msg}"),
            NlsError::Ledger(msg) => write!(f, "ledger error: {msg}"),
        }
    }
}

impl std::error::Error for NlsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NlsError::Trace(e) => Some(e),
            NlsError::Run(e) => Some(e),
            NlsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceFileError> for NlsError {
    fn from(e: TraceFileError) -> Self {
        NlsError::Trace(e)
    }
}

impl From<RunError> for NlsError {
    fn from(e: RunError) -> Self {
        NlsError::Run(e)
    }
}

impl From<io::Error> for NlsError {
    fn from(e: io::Error) -> Self {
        NlsError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_class() {
        let errors = [
            NlsError::Usage("bad flag".into()),
            NlsError::Trace(TraceFileError::BadVersion(9)),
            NlsError::Run(RunError::Panicked {
                run: "li @ 8K direct".into(),
                message: "boom".into(),
                attempts: 2,
            }),
            NlsError::Checkpoint("version 99".into()),
            NlsError::Io(io::Error::other("disk gone")),
            NlsError::Interrupted("SIGINT during the verdict sweep".into()),
            NlsError::Ledger("lease on cell li | 8K direct expired".into()),
        ];
        let mut codes: Vec<u8> = errors.iter().map(NlsError::exit_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "one exit code per class");
        assert!(!codes.contains(&0) && !codes.contains(&1) && !codes.contains(&101));
    }

    #[test]
    fn displays_carry_the_cause() {
        let e = NlsError::Run(RunError::Panicked {
            run: "gcc @ 16K direct".into(),
            message: "index out of bounds".into(),
            attempts: 3,
        });
        let text = e.to_string();
        assert!(text.contains("gcc"));
        assert!(text.contains("index out of bounds"));
        assert!(text.contains('3'));
        assert_eq!(e.class(), "run");
    }

    #[test]
    fn conversions_pick_the_right_class() {
        let e: NlsError = TraceFileError::BadVersion(2).into();
        assert_eq!(e.exit_code(), 3);
        let e: NlsError = io::Error::other("x").into();
        assert_eq!(e.exit_code(), 6);
    }

    #[test]
    fn interrupted_runs_read_as_withdrawn_not_broken() {
        let e = RunError::Interrupted {
            run: "li | 8K direct | nls-table1024/gshare".into(),
            reason: "cancelled by signal or caller".into(),
        };
        let text = e.to_string();
        assert!(text.contains("not started"));
        assert!(text.contains("cancelled"));
        let e = NlsError::Interrupted("deadline hit".into());
        assert_eq!(e.exit_code(), 7);
        assert_eq!(e.class(), "interrupted");
        assert!(e.to_string().contains("deadline hit"));
    }

    #[test]
    fn ledger_failures_are_their_own_class() {
        let e = NlsError::Ledger("could not acquire ledger lock".into());
        assert_eq!(e.exit_code(), 8);
        assert_eq!(e.class(), "ledger");
        assert!(e.to_string().contains("ledger error"));
        assert!(e.to_string().contains("lock"));
    }
}
