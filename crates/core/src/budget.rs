//! Cooperative execution budgets: cancellation, deadlines, record
//! and heap limits for every simulation entry point.
//!
//! A [`Budget`] is the supervision contract between a caller (CLI,
//! `repro_all`, a soak harness) and the run loops in
//! [`supervisor`](crate::supervisor) and [`sweep`](crate::sweep):
//! the loops poll [`Budget::check`] and stop *cooperatively* when a
//! limit is hit, returning the metrics accumulated so far instead of
//! aborting. A [`CancelToken`] is the asynchronous half — a signal
//! handler or another thread flips it and the next poll observes it.
//!
//! Polling is cheap by construction: the cancel flag and the record
//! limit are a load and a compare, and the wall-clock deadline is
//! only consulted every [`DEADLINE_POLL_INTERVAL`] records so a
//! budgeted run costs no measurable throughput over an unlimited
//! one.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many records pass between wall-clock reads in
/// [`Budget::check`]. Must be a power of two; the deadline is
/// therefore observed with up to this much record-granularity slack,
/// which at paper trace lengths is far below a millisecond.
pub const DEADLINE_POLL_INTERVAL: u64 = 1024;

/// A shared cancellation flag. Cloning yields another handle to the
/// *same* flag, so one `cancel()` is observed by every holder.
#[derive(Debug, Clone)]
pub struct CancelToken(TokenFlag);

#[derive(Debug, Clone)]
enum TokenFlag {
    Shared(Arc<AtomicBool>),
    Static(&'static AtomicBool),
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken(TokenFlag::Shared(Arc::new(AtomicBool::new(false))))
    }

    /// A token backed by a `'static` flag — the shape a signal
    /// handler can write to (handlers cannot own an `Arc`).
    pub(crate) fn from_static(flag: &'static AtomicBool) -> Self {
        CancelToken(TokenFlag::Static(flag))
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        match &self.0 {
            TokenFlag::Shared(flag) => flag.store(true, Ordering::SeqCst),
            TokenFlag::Static(flag) => flag.store(true, Ordering::SeqCst),
        }
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        match &self.0 {
            TokenFlag::Shared(flag) => flag.load(Ordering::SeqCst),
            TokenFlag::Static(flag) => flag.load(Ordering::SeqCst),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// Why a supervised run or sweep stopped early. Plain data so it can
/// travel inside [`Outcome::Degraded`](crate::supervisor::Outcome)
/// and error messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The [`CancelToken`] was flipped (signal or caller request).
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
    /// The trace-record budget ran out.
    RecordLimit {
        /// The configured maximum number of records.
        limit: u64,
    },
    /// The engines' estimated state exceeds the heap budget.
    HeapLimit {
        /// The configured budget in bytes.
        limit_bytes: u64,
        /// The engine-reported estimate that broke it.
        estimated_bytes: u64,
    },
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Cancelled => f.write_str("cancelled by signal or caller"),
            StopReason::DeadlineExceeded { limit_ms } => {
                write!(f, "wall-clock deadline of {limit_ms} ms exceeded")
            }
            StopReason::RecordLimit { limit } => {
                write!(f, "record budget of {limit} trace records exhausted")
            }
            StopReason::HeapLimit { limit_bytes, estimated_bytes } => write!(
                f,
                "estimated engine state of {estimated_bytes} bytes exceeds \
                 heap budget of {limit_bytes} bytes"
            ),
        }
    }
}

/// The resource envelope a supervised run must stay inside. All
/// limits default to "unlimited"; compose the ones you need:
///
/// ```
/// use std::time::Duration;
/// use nls_core::Budget;
///
/// let budget = Budget::unlimited()
///     .with_deadline(Duration::from_secs(30))
///     .with_max_records(1_000_000);
/// assert!(budget.check(0, 0).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    deadline_ms: u64,
    max_records: Option<u64>,
    max_heap_bytes: Option<u64>,
    cancel: CancelToken,
}

impl Budget {
    /// No limits: every check passes unless the token is cancelled.
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            deadline_ms: 0,
            max_records: None,
            max_heap_bytes: None,
            cancel: CancelToken::new(),
        }
    }

    /// Stop once `limit` wall-clock time has elapsed from now.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        // The deadline anchors to real time by design; it never
        // feeds simulation results.
        // nls-lint: allow(determinism): deadline budgets anchor at wall clock; they gate runtime, never results
        self.deadline = Instant::now().checked_add(limit);
        self.deadline_ms = u64::try_from(limit.as_millis()).unwrap_or(u64::MAX);
        self
    }

    /// Stop after `limit` trace records.
    pub fn with_max_records(mut self, limit: u64) -> Self {
        self.max_records = Some(limit);
        self
    }

    /// Refuse engine configurations whose estimated state exceeds
    /// `limit` bytes (see
    /// [`Cell::approx_heap_bytes`](crate::Cell::approx_heap_bytes)).
    pub fn with_max_heap_bytes(mut self, limit: u64) -> Self {
        self.max_heap_bytes = Some(limit);
        self
    }

    /// Observe cancellation through `token` instead of a private one.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// A handle to this budget's cancellation flag.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The configured record limit, if any.
    pub fn max_records(&self) -> Option<u64> {
        self.max_records
    }

    /// The per-record poll: call once per trace record with the
    /// number of records already consumed and the engines' estimated
    /// heap footprint. The cancel flag, record limit and heap limit
    /// are checked every call; the wall clock only every
    /// [`DEADLINE_POLL_INTERVAL`] records.
    pub fn check(&self, records_done: u64, heap_bytes: u64) -> Result<(), StopReason> {
        if self.cancel.is_cancelled() {
            return Err(StopReason::Cancelled);
        }
        if let Some(limit) = self.max_records {
            if records_done >= limit {
                return Err(StopReason::RecordLimit { limit });
            }
        }
        self.check_heap(heap_bytes)?;
        if records_done.is_multiple_of(DEADLINE_POLL_INTERVAL) {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// The heap limit alone, which a sweep worker checks before it
    /// claims a cell, against the state the cell would report.
    pub(crate) fn check_heap(&self, heap_bytes: u64) -> Result<(), StopReason> {
        match self.max_heap_bytes {
            Some(limit_bytes) if heap_bytes > limit_bytes => {
                Err(StopReason::HeapLimit { limit_bytes, estimated_bytes: heap_bytes })
            }
            _ => Ok(()),
        }
    }

    /// The coarse poll for loops without a record counter (sweep
    /// workers, stage drivers): cancellation plus an unthrottled
    /// deadline read. Record and heap limits are per-run concerns
    /// and are not consulted here.
    pub fn check_now(&self) -> Result<(), StopReason> {
        if self.cancel.is_cancelled() {
            return Err(StopReason::Cancelled);
        }
        self.check_deadline()
    }

    fn check_deadline(&self) -> Result<(), StopReason> {
        if let Some(deadline) = self.deadline {
            // nls-lint: allow(determinism): deadline enforcement is the one sanctioned wall-clock read; it stops a run, never shapes its metrics
            if Instant::now() >= deadline {
                return Err(StopReason::DeadlineExceeded { limit_ms: self.deadline_ms });
            }
        }
        Ok(())
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert_eq!(b.check(0, 0), Ok(()));
        assert_eq!(b.check(u64::MAX - 1, u64::MAX), Ok(()));
        assert_eq!(b.check_now(), Ok(()));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        assert_eq!(b.check(0, 0), Ok(()));
        token.cancel();
        assert_eq!(b.check(0, 0), Err(StopReason::Cancelled));
        assert_eq!(b.check_now(), Err(StopReason::Cancelled));
        assert!(b.cancel_token().is_cancelled());
    }

    #[test]
    fn record_limit_trips_at_the_boundary() {
        let b = Budget::unlimited().with_max_records(10);
        assert_eq!(b.check(9, 0), Ok(()));
        assert_eq!(b.check(10, 0), Err(StopReason::RecordLimit { limit: 10 }));
        assert_eq!(b.max_records(), Some(10));
    }

    #[test]
    fn heap_limit_reports_both_sides() {
        let b = Budget::unlimited().with_max_heap_bytes(1_000);
        assert_eq!(b.check(0, 1_000), Ok(()), "at the limit is still inside it");
        assert_eq!(
            b.check(0, 1_001),
            Err(StopReason::HeapLimit { limit_bytes: 1_000, estimated_bytes: 1_001 })
        );
    }

    #[test]
    fn expired_deadline_trips_on_a_poll_boundary() {
        let b = Budget::unlimited().with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.check(0, 0), Err(StopReason::DeadlineExceeded { limit_ms: 0 }));
        assert_eq!(b.check_now(), Err(StopReason::DeadlineExceeded { limit_ms: 0 }));
        // Off-boundary record counts skip the clock read entirely.
        assert_eq!(b.check(DEADLINE_POLL_INTERVAL + 1, 0), Ok(()));
    }

    #[test]
    fn generous_deadline_passes() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(b.check(0, 0), Ok(()));
        assert_eq!(b.check_now(), Ok(()));
    }

    #[test]
    fn stop_reasons_render_their_numbers() {
        let texts = [
            StopReason::Cancelled.to_string(),
            StopReason::DeadlineExceeded { limit_ms: 250 }.to_string(),
            StopReason::RecordLimit { limit: 42 }.to_string(),
            StopReason::HeapLimit { limit_bytes: 10, estimated_bytes: 99 }.to_string(),
        ];
        assert!(texts[0].contains("cancelled"));
        assert!(texts[1].contains("250 ms"));
        assert!(texts[2].contains("42"));
        assert!(texts[3].contains("99") && texts[3].contains("10"));
    }
}
