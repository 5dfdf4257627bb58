//! The `nls` binary: see [`nls_cli`] for the command reference.
//!
//! Errors print to stderr with their class and exit with one code
//! per [`NlsError`] class: usage 2, corrupt trace 3, failed run 4,
//! checkpoint (saved serve state) 5, other I/O 6, interrupted
//! (signal/budget) 7, work ledger 8.

use std::process::ExitCode;

use nls_cli::args::ParsedArgs;
use nls_cli::commands::{dispatch, USAGE};
use nls_core::NlsError;
use nls_trace::TraceFileError;

/// A one-line recovery hint chosen from the error, so the binary
/// acknowledges every [`NlsError`] variant it can exit with.
fn hint(e: &NlsError) -> &'static str {
    match e {
        NlsError::Usage(_) => "run `nls help` for the command reference",
        NlsError::Trace(TraceFileError::BadRecord { .. }) => {
            "regenerate the file with `nls gen-trace`, or replay with --on-corrupt=skip"
        }
        NlsError::Trace(TraceFileError::TruncatedBody { .. }) => {
            "the file ends early: replay with --on-corrupt=truncate to keep the records before \
             the cut, or regenerate it with `nls gen-trace`"
        }
        NlsError::Trace(TraceFileError::TooCorrupt { .. }) => {
            "the skip limit was hit: raise N in --on-corrupt=skip:N (plain `skip` has none), \
             replay with --on-corrupt=truncate to keep the records before the first corrupt \
             one, or regenerate the file with `nls gen-trace`"
        }
        NlsError::Trace(
            TraceFileError::BadMagic(_)
            | TraceFileError::BadVersion(_)
            | TraceFileError::BadHeader(_),
        ) => "no --on-corrupt policy recovers a damaged header: regenerate the file with `nls \
              gen-trace`",
        NlsError::Run(_) => {
            "a simulation engine failed; re-run with a smaller --len to reproduce"
        }
        NlsError::Checkpoint(_) => {
            "restart `nls serve` with --resume to finish the saved jobs, or point --state-dir \
             at an empty directory"
        }
        NlsError::Io(_) | NlsError::Trace(TraceFileError::Io(_)) => {
            "check the path, permissions and free space, then retry"
        }
        NlsError::Interrupted(_) => {
            "the work was stopped, not failed; the line above says what was kept and how to go on"
        }
        NlsError::Ledger(_) => {
            "completed cells are safe in the ledger; rerun `nls sweep --ledger <FILE> --resume`, \
             or delete the ledger (and its .lock) to start over"
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let parsed = ParsedArgs::parse(args).map_err(NlsError::from);
    let worker = parsed.as_ref().is_ok_and(|a| a.command == "sweep-worker");
    match parsed.and_then(|a| dispatch(&a)) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        // A sweep worker hands its stop reason to its parent on stdout.
        Err(NlsError::Interrupted(reason)) if worker => {
            println!("{reason}");
            ExitCode::from(NlsError::Interrupted(reason).exit_code())
        }
        Err(e) => {
            eprintln!("error[{}]: {e}", e.class());
            eprintln!("note: {}", hint(&e));
            ExitCode::from(e.exit_code())
        }
    }
}
