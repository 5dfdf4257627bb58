//! The work ledger: the one durable state of a sweep.
//!
//! Every sweep keeps its cells in a ledger: threads in one process
//! ([`run_sweep_supervised`](crate::run_sweep_supervised), over a
//! ledger file or one held in memory), `nls sweep --ledger` worker
//! processes and `nls serve` jobs. All of them run the same
//! claim/run/publish loop
//! ([`run_ledger_worker`](crate::run_ledger_worker)). Every
//! (bench × cache × engines) cell carries a state machine:
//!
//! ```text
//! Pending ──claim──▶ Leased{worker, deadline} ──complete──▶ Done
//!    ▲                   │
//!    └── lease expiry / failed attempt (with exponential backoff),
//!        until max_attempts is spent ──▶ Failed{attempts}
//! ```
//!
//! Workers claim cells through a lock-file-guarded atomic
//! read-modify-write ([`LedgerFile::update`]): take the sibling
//! `.lock` file with `O_EXCL`, catch up on the file, mutate, append
//! the changed cells as one journal line, release the lock. The file
//! is a v2 snapshot document followed by that append-only journal; a
//! whole snapshot is written ([`write_atomic`]: fsync a temporary
//! sibling, rename it over the file, fsync the directory) only where
//! a whole ledger is produced anyway, by [`LedgerFile::init`] and
//! [`LedgerFile::compact`]. A running worker renews its lease by
//! heartbeat ([`Heartbeat`]); *any* worker reclaims an orphaned cell
//! whose lease expired, so a SIGKILLed or hung worker costs at most
//! one lease interval. Each reclamation consumes one of the cell's
//! bounded attempts and schedules the retry with exponential backoff;
//! a cell whose attempts are spent is marked [`CellState::Failed`]
//! instead of retrying forever. A resumed ledger keeps its `Done`
//! cells and re-opens its `Failed` ones, so only finished results
//! survive a resume.
//!
//! An in-memory sweep's ledger is the same state machine behind the
//! same [`LedgerFile`] methods, held in memory under one mutex: no
//! file, lock, journal or path.
//!
//! Timestamps are wall-clock epoch milliseconds. They order lease
//! expiry and backoff only — coordination state, never simulation
//! input — so merged results remain bit-for-bit deterministic no
//! matter how many workers raced over the grid.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::budget::CancelToken;
use crate::error::NlsError;
use crate::json::{
    field, json_string, parse_result, take_field, type_error, write_result, Json,
};
use crate::metrics::SimResult;
use crate::sweep::SweepConfig;

/// Ledger schema version. Version 1 was the sweep checkpoint, which
/// is no longer read: a v1 file is refused with a version mismatch
/// rather than misread.
pub const LEDGER_VERSION: u64 = 2;

/// Default lease duration granted to a claimed cell.
pub const DEFAULT_LEASE_MS: u64 = 5_000;

/// Default number of lease grants a cell may consume before it is
/// marked [`CellState::Failed`].
pub const DEFAULT_MAX_ATTEMPTS: u64 = 3;

/// Base of the exponential retry backoff: a cell reclaimed after its
/// `n`-th spent attempt becomes claimable again after
/// `RETRY_BACKOFF_BASE_MS * 2^(n-1)` milliseconds (capped).
pub const RETRY_BACKOFF_BASE_MS: u64 = 250;

/// Upper bound on the computed backoff.
const RETRY_BACKOFF_CAP_MS: u64 = 30_000;

/// A ledger lock older than this is presumed abandoned (its holder
/// was SIGKILLed mid-update) and is broken by the next acquirer. Far
/// above any legitimate critical section, which is one catch-up read
/// and one journal append.
const LOCK_STALE_MS: u64 = 5_000;

/// Sleep between lock-acquisition attempts.
const LOCK_RETRY_SLEEP_MS: u64 = 2;

/// Give up on the lock after this long: something is wedged beyond
/// what stale-lock breaking can fix, and hanging forever would defeat
/// the supervision contract.
const LOCK_ACQUIRE_TIMEOUT_MS: u64 = 60_000;

/// Heartbeats fire at a third of the lease so two renewals can be
/// missed before the lease expires; never faster than this floor.
const MIN_HEARTBEAT_MS: u64 = 10;

/// Epoch milliseconds for lease/lock bookkeeping. Coordination state
/// only: these timestamps never feed simulation results.
pub fn now_ms() -> u64 {
    // nls-lint: allow(determinism): lease timestamps coordinate workers; results stay bit-exact
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .ok()
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The lifecycle of one sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellState {
    /// Unclaimed. `not_before_ms` is the backoff gate: a reclaimed
    /// cell is not claimable again until then.
    Pending {
        /// Lease grants already consumed by this cell.
        attempts: u64,
        /// Epoch ms before which the cell must not be claimed.
        not_before_ms: u64,
    },
    /// Claimed by `worker` until `lease_expires_ms`; renewed by
    /// heartbeat while the worker is alive.
    Leased {
        /// The claiming worker's id.
        worker: String,
        /// Lease grants consumed including this one.
        attempts: u64,
        /// Epoch ms at which the lease is considered orphaned.
        lease_expires_ms: u64,
    },
    /// Completed; the results are final and immutable.
    Done {
        /// One result per engine, in engine order.
        results: Vec<SimResult>,
    },
    /// Permanently failed after `attempts` lease grants.
    Failed {
        /// Lease grants consumed before giving up.
        attempts: u64,
        /// The last failure observed.
        error: String,
    },
}

/// Cell totals by state, for progress reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Unclaimed cells (including ones parked in backoff).
    pub pending: usize,
    /// Cells currently under a live (or expired-but-unreclaimed)
    /// lease.
    pub leased: usize,
    /// Completed cells.
    pub done: usize,
    /// Permanently failed cells.
    pub failed: usize,
}

/// What a claim scan ([`Ledger::claim_cells`]) decided.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimOutcome {
    /// The caller now holds a lease on `key` and on every cell of
    /// `more`.
    Claimed {
        /// The first claimed cell's run key.
        key: String,
        /// Which lease grant this is for `key` (1-based); > 1 means
        /// the cell was reclaimed from an earlier worker.
        attempt: u64,
        /// The granted lease duration, for heartbeat pacing.
        lease_ms: u64,
        /// The claim's other cells after `key`, in key order, each
        /// with its lease grant number; empty for a one-cell claim.
        more: Vec<(String, u64)>,
    },
    /// Nothing is claimable right now (live leases or backoff gates),
    /// but cells remain open; check again around `until_ms`.
    Wait {
        /// Epoch ms of the earliest lease expiry or backoff gate.
        until_ms: u64,
    },
    /// Every cell is `Done` or `Failed`; the sweep is over.
    Drained,
}

/// The durable work ledger: sweep identity plus the cell grid.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Dynamic trace length the cells are measured under.
    pub trace_len: u64,
    /// Walker seed the cells are measured under.
    pub seed: u64,
    /// Lease duration granted on claim.
    pub lease_ms: u64,
    /// Lease grants allowed per cell before `Failed`.
    pub max_attempts: u64,
    cells: BTreeMap<String, CellState>,
    /// Cells a transition changed since the last journal line was
    /// taken: what [`LedgerFile::update`] appends. Bookkeeping only,
    /// outside equality and the JSON.
    changed: BTreeSet<String>,
}

impl PartialEq for Ledger {
    fn eq(&self, other: &Self) -> bool {
        self.header() == other.header() && self.cells == other.cells
    }
}

impl Ledger {
    /// A fresh ledger for `cfg` with every cell `Pending`.
    pub fn new<I>(cfg: &SweepConfig, lease_ms: u64, max_attempts: u64, keys: I) -> Self
    where
        I: IntoIterator<Item = String>,
    {
        let cells = keys
            .into_iter()
            .map(|k| (k, CellState::Pending { attempts: 0, not_before_ms: 0 }))
            .collect();
        Ledger {
            trace_len: cfg.trace_len as u64,
            seed: cfg.seed,
            lease_ms: lease_ms.max(1),
            max_attempts: max_attempts.max(1),
            cells,
            changed: BTreeSet::new(),
        }
    }

    /// The sweep-identity and lease fields, in snapshot order.
    fn header(&self) -> [(&'static str, u64); 4] {
        [
            ("trace_len", self.trace_len),
            ("seed", self.seed),
            ("lease_ms", self.lease_ms),
            ("max_attempts", self.max_attempts),
        ]
    }

    /// Whether this ledger's cells are valid for `cfg`.
    pub fn matches(&self, cfg: &SweepConfig) -> bool {
        self.trace_len == cfg.trace_len as u64 && self.seed == cfg.seed
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The state of one cell.
    pub fn state(&self, key: &str) -> Option<&CellState> {
        self.cells.get(key)
    }

    /// Whether both ledgers cover the same cell grid.
    pub fn same_keys(&self, other: &Ledger) -> bool {
        self.cells.keys().eq(other.cells.keys())
    }

    /// Cell totals by state.
    pub fn counts(&self) -> CellCounts {
        let mut c = CellCounts::default();
        // nls-lint: allow(cancellation-reach): bounded by the grid's cell count; pure counting
        for state in self.cells.values() {
            match state {
                CellState::Pending { .. } => c.pending += 1,
                CellState::Leased { .. } => c.leased += 1,
                CellState::Done { .. } => c.done += 1,
                CellState::Failed { .. } => c.failed += 1,
            }
        }
        c
    }

    /// The backoff gate after `attempts` spent lease grants.
    pub fn backoff_ms(attempts: u64) -> u64 {
        let shift = attempts.saturating_sub(1).min(16);
        RETRY_BACKOFF_BASE_MS.saturating_mul(1u64 << shift).min(RETRY_BACKOFF_CAP_MS)
    }

    /// Claims the first claimable cell for `worker`: the one-cell case
    /// of [`Ledger::claim_cells`].
    pub fn claim(&mut self, worker: &str, now_ms: u64) -> ClaimOutcome {
        self.claim_cells(worker, now_ms, |_| 0..1)
    }

    /// The claim scan. It first reclaims every orphaned lease across
    /// the grid (and fails attempt-exhausted cells), so a dead
    /// worker's cells re-enter circulation the moment any live worker
    /// looks for work. Then it leases the claimable cells
    /// `take(claimable)` picks to `worker`: `claimable` lists the key of
    /// every pending cell past its backoff gate, in key order, and
    /// `take` returns the range of them to lease, which may be empty
    /// (out of bounds, it leases nothing). Each claimed cell keeps its
    /// own lease, attempt count and backoff.
    pub fn claim_cells(
        &mut self,
        worker: &str,
        now_ms: u64,
        take: impl FnOnce(&[&str]) -> Range<usize>,
    ) -> ClaimOutcome {
        let lease_ms = self.lease_ms;
        let max_attempts = self.max_attempts;
        let mut wake: Option<u64> = None;
        let mut nearer = |t: u64| {
            wake = Some(wake.map_or(t, |w| w.min(t)));
        };
        // nls-lint: allow(cancellation-reach): bounded by the cell grid; pure in-memory scan, no simulation
        for (key, state) in self.cells.iter_mut() {
            match state {
                CellState::Done { .. } | CellState::Failed { .. } => {}
                CellState::Pending { not_before_ms, .. } => {
                    if *not_before_ms > now_ms {
                        nearer(*not_before_ms);
                    }
                }
                CellState::Leased { worker: holder, attempts, lease_expires_ms } => {
                    if *lease_expires_ms <= now_ms {
                        // Orphaned: the holder died or hung. Its
                        // grant stays spent; park the cell behind the
                        // backoff gate or retire it.
                        if *attempts >= max_attempts {
                            *state = CellState::Failed {
                                attempts: *attempts,
                                error: format!(
                                    "lease held by {holder} expired after {attempts} \
                                     attempt(s); worker presumed dead or hung"
                                ),
                            };
                        } else {
                            let gate = now_ms.saturating_add(Self::backoff_ms(*attempts));
                            *state =
                                CellState::Pending { attempts: *attempts, not_before_ms: gate };
                            nearer(gate);
                        }
                        self.changed.insert(key.clone());
                    } else {
                        nearer(*lease_expires_ms);
                    }
                }
            }
        }
        let claimable: Vec<&str> = self
            .cells
            .iter()
            .filter(|(_, state)| {
                matches!(state, CellState::Pending { not_before_ms, .. } if *not_before_ms <= now_ms)
            })
            .map(|(key, _)| key.as_str())
            .collect();
        let chosen = claimable.get(take(&claimable)).unwrap_or_default();
        let chosen: Vec<String> = chosen.iter().map(|key| key.to_string()).collect();
        let lease_expires_ms = now_ms.saturating_add(lease_ms);
        let mut claimed = Vec::with_capacity(chosen.len());
        // nls-lint: allow(cancellation-reach): bounded by the claim's cells; pure in-memory update
        for key in chosen {
            if let Some(state) = self.cells.get_mut(&key) {
                if let CellState::Pending { attempts, .. } = *state {
                    let attempt = attempts + 1;
                    *state = CellState::Leased {
                        worker: worker.to_string(),
                        attempts: attempt,
                        lease_expires_ms,
                    };
                    self.changed.insert(key.clone());
                    claimed.push((key, attempt));
                }
            }
        }
        let mut claimed = claimed.into_iter();
        if let Some((key, attempt)) = claimed.next() {
            return ClaimOutcome::Claimed { key, attempt, lease_ms, more: claimed.collect() };
        }
        match wake {
            Some(until_ms) => ClaimOutcome::Wait { until_ms },
            None => ClaimOutcome::Drained,
        }
    }

    /// Extends `worker`'s lease on `key`. Returns false when the
    /// lease is no longer held (reclaimed, completed elsewhere, or
    /// never granted) — the caller must stop publishing into it.
    pub fn renew(&mut self, key: &str, worker: &str, now_ms: u64) -> bool {
        match self.cells.get_mut(key) {
            Some(CellState::Leased { worker: holder, lease_expires_ms, .. })
                if holder == worker =>
            {
                *lease_expires_ms = now_ms.saturating_add(self.lease_ms);
                self.changed.insert(key.to_string());
                true
            }
            _ => false,
        }
    }

    /// Marks `key` `Done` with `results`, if `worker` still holds the
    /// lease. Returns false when the lease was lost in the meantime —
    /// the results are discarded and whoever reclaimed the cell owns
    /// its outcome (results are deterministic, so either copy is the
    /// same bits).
    pub fn complete(&mut self, key: &str, worker: &str, results: Vec<SimResult>) -> bool {
        match self.cells.get_mut(key) {
            Some(state @ CellState::Leased { .. }) => {
                let held = matches!(state, CellState::Leased { worker: h, .. } if h == worker);
                if held {
                    *state = CellState::Done { results };
                    self.changed.insert(key.to_string());
                }
                held
            }
            _ => false,
        }
    }

    /// Cooperatively returns `worker`'s leased cell to `Pending`,
    /// refunding the attempt: the run was withdrawn (budget, signal),
    /// not broken, so it must not burn retry budget.
    pub fn release(&mut self, key: &str, worker: &str, now_ms: u64) -> bool {
        match self.cells.get_mut(key) {
            Some(state @ CellState::Leased { .. }) => {
                let attempts = match state {
                    CellState::Leased { worker: h, attempts, .. } if h == worker => *attempts,
                    _ => return false,
                };
                *state = CellState::Pending {
                    attempts: attempts.saturating_sub(1),
                    not_before_ms: now_ms,
                };
                self.changed.insert(key.to_string());
                true
            }
            _ => false,
        }
    }

    /// Records a failed attempt on `worker`'s leased cell: back to
    /// `Pending` behind the exponential backoff gate, or `Failed`
    /// once the attempt budget is spent.
    pub fn record_failure(
        &mut self,
        key: &str,
        worker: &str,
        now_ms: u64,
        error: &str,
    ) -> bool {
        let max_attempts = self.max_attempts;
        match self.cells.get_mut(key) {
            Some(state @ CellState::Leased { .. }) => {
                let attempts = match state {
                    CellState::Leased { worker: h, attempts, .. } if h == worker => *attempts,
                    _ => return false,
                };
                *state = if attempts >= max_attempts {
                    CellState::Failed { attempts, error: error.to_string() }
                } else {
                    CellState::Pending {
                        attempts,
                        not_before_ms: now_ms.saturating_add(Self::backoff_ms(attempts)),
                    }
                };
                self.changed.insert(key.to_string());
                true
            }
            _ => false,
        }
    }

    /// Serialises to the versioned JSON schema (v2): the ledger
    /// file's snapshot, one line per cell, ending in a newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {LEDGER_VERSION},\n"));
        out.push_str(&format!("  \"trace_len\": {},\n", self.trace_len));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"lease_ms\": {},\n", self.lease_ms));
        out.push_str(&format!("  \"max_attempts\": {},\n", self.max_attempts));
        out.push_str("  \"cells\": {");
        if !self.cells.is_empty() {
            out.push_str("\n    ");
            write_cells(&mut out, self.cells.iter(), ",\n    ");
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses the versioned JSON schema, refusing other versions
    /// (including v1 checkpoints) and shape mismatches. `text` is one
    /// snapshot with nothing after it; a ledger file with a journal is
    /// read through [`LedgerFile`].
    pub fn from_json(text: &str) -> Result<Self, NlsError> {
        Json::parse(text).map_err(NlsError::Ledger).and_then(Ledger::from_snapshot)
    }

    fn from_snapshot(root: Json) -> Result<Self, NlsError> {
        let parsed = (|| -> Result<Ledger, NlsError> {
            let mut root = root.into_object()?;
            let version = field(&root, "version")?.as_u64()?;
            if version != LEDGER_VERSION {
                return Err(NlsError::Ledger(format!(
                    "unsupported ledger version {version} (expected {LEDGER_VERSION}); \
                     version 1 is a sweep checkpoint, and checkpoints are no longer read: \
                     delete the file and rerun the sweep"
                )));
            }
            let trace_len = field(&root, "trace_len")?.as_u64()?;
            let seed = field(&root, "seed")?.as_u64()?;
            let lease_ms = field(&root, "lease_ms")?.as_u64()?;
            let max_attempts = field(&root, "max_attempts")?.as_u64()?;
            let mut cells = BTreeMap::new();
            read_cells(take_field(&mut root, "cells")?, |key, state| {
                cells.insert(key, state);
                Ok(())
            })?;
            Ok(Ledger {
                trace_len,
                seed,
                lease_ms,
                max_attempts,
                cells,
                changed: BTreeSet::new(),
            })
        })();
        parsed.map_err(as_ledger_err)
    }

    /// Takes the journal line recording what changed since the last
    /// one was taken: the new state of each changed cell, plus any
    /// header field that differs from `before`. `None` when nothing
    /// changed.
    fn take_journal_line(&mut self, before: [(&'static str, u64); 4]) -> Option<String> {
        let header: String = self
            .header()
            .iter()
            .zip(before)
            .filter(|(now, was)| now.1 != was.1)
            .map(|((name, value), _)| format!("\"{name}\": {value}, "))
            .collect();
        if header.is_empty() && self.changed.is_empty() {
            return None;
        }
        let changed = std::mem::take(&mut self.changed);
        let mut line = format!("{{{header}\"cells\": {{");
        write_cells(
            &mut line,
            changed.iter().filter_map(|k| self.cells.get_key_value(k)),
            ", ",
        );
        line.push_str("}}\n");
        Some(line)
    }

    /// Applies the journal lines in `text`: complete lines only,
    /// starting at byte `at` of the file. A line that does not parse
    /// is damage, reported with its offset and never skipped.
    fn apply_journal(&mut self, text: &str, at: u64) -> Result<(), NlsError> {
        text.split_inclusive('\n')
            .try_fold(at, |at, line| {
                let line_text = line.trim();
                if !line_text.is_empty() {
                    self.apply_journal_line(line_text).map_err(|e| {
                        let why = match e {
                            NlsError::Ledger(m) | NlsError::Checkpoint(m) => m,
                            other => other.to_string(),
                        };
                        NlsError::Ledger(format!("damaged journal line at byte {at}: {why}"))
                    })?;
                }
                Ok(at + line.len() as u64)
            })
            .map(drop)
    }

    /// Applies one journal line: the header fields it carries, then
    /// its cells, each of which must already be in the grid.
    fn apply_journal_line(&mut self, line: &str) -> Result<(), NlsError> {
        let mut obj = Json::parse(line).map_err(NlsError::Ledger)?.into_object()?;
        let cells = take_field(&mut obj, "cells")?;
        obj.iter().try_for_each(|(name, value)| {
            let slot = match name.as_str() {
                "trace_len" => &mut self.trace_len,
                "seed" => &mut self.seed,
                "lease_ms" => &mut self.lease_ms,
                "max_attempts" => &mut self.max_attempts,
                other => return Err(NlsError::Ledger(format!("unknown field {other:?}"))),
            };
            *slot = value.as_u64()?;
            Ok(())
        })?;
        let grid = &mut self.cells;
        read_cells(cells, |key, state| match grid.get_mut(&key) {
            Some(slot) => {
                *slot = state;
                Ok(())
            }
            None => Err(NlsError::Ledger(format!("cell {key:?} is not in the grid"))),
        })
    }
}

/// Rewraps the shared JSON helpers' checkpoint-class errors as ledger
/// errors so a damaged ledger exits 8, not 5.
fn as_ledger_err(e: NlsError) -> NlsError {
    match e {
        NlsError::Checkpoint(msg) => NlsError::Ledger(msg),
        other => other,
    }
}

fn write_cell(out: &mut String, state: &CellState) {
    match state {
        CellState::Pending { attempts, not_before_ms } => {
            out.push_str(&format!(
                "{{\"state\": \"pending\", \"attempts\": {attempts}, \
                 \"not_before_ms\": {not_before_ms}}}"
            ));
        }
        CellState::Leased { worker, attempts, lease_expires_ms } => {
            out.push_str(&format!(
                "{{\"state\": \"leased\", \"worker\": {}, \"attempts\": {attempts}, \
                 \"lease_expires_ms\": {lease_expires_ms}}}",
                json_string(worker)
            ));
        }
        CellState::Done { results } => {
            out.push_str("{\"state\": \"done\", \"results\": [");
            // nls-lint: allow(cancellation-reach): bounded by the engine list of one cell
            for (i, r) in results.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_result(out, r);
            }
            out.push_str("]}");
        }
        CellState::Failed { attempts, error } => {
            out.push_str(&format!(
                "{{\"state\": \"failed\", \"attempts\": {attempts}, \"error\": {}}}",
                json_string(error)
            ));
        }
    }
}

/// Writes `"key": cell` pairs joined by `sep`.
fn write_cells<'a>(
    out: &mut String,
    cells: impl Iterator<Item = (&'a String, &'a CellState)>,
    sep: &str,
) {
    // nls-lint: allow(cancellation-reach): bounded by the cell grid; in-memory serialisation only
    for (i, (key, state)) in cells.enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(&json_string(key));
        out.push_str(": ");
        write_cell(out, state);
    }
}

/// Parses a `cells` object, handing each cell to `put` in order.
fn read_cells(
    cells: Json,
    mut put: impl FnMut(String, CellState) -> Result<(), NlsError>,
) -> Result<(), NlsError> {
    // nls-lint: allow(cancellation-reach): bounded by the cell grid; in-memory parse only
    for (key, value) in cells.into_object()? {
        put(key, parse_cell(value)?)?;
    }
    Ok(())
}

fn parse_cell(value: Json) -> Result<CellState, NlsError> {
    let mut obj = value.into_object()?;
    let tag = field(&obj, "state")?.as_str()?.to_string();
    match tag.as_str() {
        "pending" => Ok(CellState::Pending {
            attempts: field(&obj, "attempts")?.as_u64()?,
            not_before_ms: field(&obj, "not_before_ms")?.as_u64()?,
        }),
        "leased" => Ok(CellState::Leased {
            worker: field(&obj, "worker")?.as_str()?.to_string(),
            attempts: field(&obj, "attempts")?.as_u64()?,
            lease_expires_ms: field(&obj, "lease_expires_ms")?.as_u64()?,
        }),
        "done" => {
            let results = take_field(&mut obj, "results")?
                .into_array()?
                .into_iter()
                .map(parse_result)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(CellState::Done { results })
        }
        "failed" => Ok(CellState::Failed {
            attempts: field(&obj, "attempts")?.as_u64()?,
            error: field(&obj, "error")?.as_str()?.to_string(),
        }),
        other => Err(type_error(
            "cell state (pending/leased/done/failed)",
            Json::String(other.to_string()),
        )),
    }
}

/// A ledger on disk plus its sibling lock file: the unit every worker
/// process shares. Cloneable so heartbeat threads get their own
/// handle; clones share what the handle last read.
///
/// The file is a v2 snapshot ([`Ledger::to_json`]) followed by an
/// append-only journal: one line per state-changing update, holding
/// the new states of exactly the cells it changed. A handle keeps the
/// ledger it last read and the byte offset it read to, so an update
/// parses only the lines appended since.
#[derive(Debug, Clone)]
pub struct LedgerFile {
    path: PathBuf,
    /// The ledger as of this handle's last locked read or append. It is
    /// taken out for the length of each locked operation, so no guard
    /// is held across file I/O, and put back only when the operation
    /// succeeds: after a failure the next operation reloads in full.
    cache: Arc<Mutex<Option<Cached>>>,
    /// An in-memory sweep's ledger, which every operation then uses
    /// instead of a file (the path is empty).
    memory: Option<Arc<Held>>,
}

/// A ledger held in memory, with its count of the writes that changed
/// it; `written` is notified at each.
#[derive(Debug)]
struct Held {
    state: Mutex<(Ledger, u64)>,
    written: Condvar,
}

impl Held {
    /// Poison recovery: no ledger transition panics midway.
    fn lock(&self) -> MutexGuard<'_, (Ledger, u64)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What a handle knows of the file: the ledger through byte `pos`.
#[derive(Debug)]
struct Cached {
    /// The file `ledger` was read from. Held open, so the file system
    /// cannot reuse its identity for a snapshot renamed over the path.
    file: fs::File,
    ledger: Ledger,
    /// Offset just past the last complete line applied to `ledger`.
    pos: u64,
    /// File length at the last read. Bytes between `pos` and `end`
    /// are a torn append: ignored here, truncated by the next writer.
    end: u64,
}

impl LedgerFile {
    /// A handle to the ledger at `path` (the file need not exist yet;
    /// see [`LedgerFile::init`]).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        LedgerFile { path: path.into(), cache: Arc::default(), memory: None }
    }

    /// A handle to `ledger` held in memory: an in-memory sweep's.
    pub(crate) fn in_memory(ledger: Ledger) -> Self {
        let held = Held { state: Mutex::new((ledger, 0)), written: Condvar::new() };
        LedgerFile { path: PathBuf::new(), cache: Arc::default(), memory: Some(Arc::new(held)) }
    }

    /// The ledger file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock_path(&self) -> PathBuf {
        let mut p = self.path.as_os_str().to_owned();
        p.push(".lock");
        PathBuf::from(p)
    }

    /// Creates the ledger, or — with `resume` — adopts an existing
    /// one after verifying it was built for the same sweep (config
    /// and cell grid). A resumed ledger keeps its `Done` cells and
    /// re-opens its `Failed` ones as `Pending` with no attempt spent;
    /// `Leased` cells stay leased until their leases expire. A
    /// pre-existing file without `resume` is refused so two unrelated
    /// sweeps never share a ledger by accident. Either way the file is
    /// rewritten as one snapshot. A ledger in memory is replaced.
    pub fn init(&self, fresh: Ledger, resume: bool) -> Result<Ledger, NlsError> {
        if self.memory.is_some() {
            return self.update(&CancelToken::new(), |l| l.clone_from(&fresh)).map(|()| fresh);
        }
        let _lock = self.acquire_lock(&CancelToken::new())?;
        let existing = self.load_locked()?;
        let ledger = match existing {
            None => fresh,
            Some(_) if !resume => {
                return Err(NlsError::Ledger(format!(
                    "{} already exists; pass --resume to continue it or delete it to start over",
                    self.path.display()
                )));
            }
            Some(Cached { ledger: mut found, .. }) => {
                let cfg = SweepConfig { trace_len: fresh.trace_len as usize, seed: fresh.seed };
                if !found.matches(&cfg) {
                    return Err(NlsError::Ledger(format!(
                        "{} was measured with trace_len={} seed={} but this sweep uses \
                         trace_len={} seed={}; delete it to start over",
                        self.path.display(),
                        found.trace_len,
                        found.seed,
                        fresh.trace_len,
                        fresh.seed
                    )));
                }
                if !found.same_keys(&fresh) {
                    return Err(NlsError::Ledger(format!(
                        "{} covers a different cell grid than this sweep; \
                         delete it to start over",
                        self.path.display()
                    )));
                }
                // CLI-provided lease/retry knobs win over the stored
                // ones so a resume can shorten or lengthen leases.
                found.lease_ms = fresh.lease_ms;
                found.max_attempts = fresh.max_attempts;
                found
                    .cells
                    .values_mut()
                    .filter(|state| matches!(state, CellState::Failed { .. }))
                    .for_each(|state| {
                        *state = CellState::Pending { attempts: 0, not_before_ms: 0 }
                    });
                found
            }
        };
        self.snapshot_locked(ledger)
    }

    /// Reads the current ledger under the lock (e.g. for the final
    /// merge).
    pub fn read(&self, cancel: &CancelToken) -> Result<Ledger, NlsError> {
        if let Some(held) = &self.memory {
            return Ok(held.lock().0.clone());
        }
        let _lock = self.acquire_lock(cancel)?;
        let cached = self.load_locked()?.ok_or_else(|| self.missing("does not exist"))?;
        let ledger = cached.ledger.clone();
        self.keep(cached);
        Ok(ledger)
    }

    /// Rewrites the file as one snapshot with the journal folded in,
    /// and returns the ledger. For a caller whose workers have all
    /// exited: the file left behind reads one line per cell again. A
    /// ledger held in memory is only read.
    pub fn compact(&self, cancel: &CancelToken) -> Result<Ledger, NlsError> {
        if self.memory.is_some() {
            return self.read(cancel);
        }
        let _lock = self.acquire_lock(cancel)?;
        let cached = self.load_locked()?.ok_or_else(|| self.missing("does not exist"))?;
        self.snapshot_locked(cached.ledger)
    }

    /// The atomic read-modify-write every state transition goes
    /// through: lock, catch up on the file, mutate, append the changes
    /// as one durable journal line (nothing when nothing changed),
    /// unlock. In memory: mutate under the mutex (there is no lock
    /// wait for `cancel` to cut short), and count a write when
    /// anything changed.
    pub fn update<T>(
        &self,
        cancel: &CancelToken,
        f: impl FnOnce(&mut Ledger) -> T,
    ) -> Result<T, NlsError> {
        if let Some(held) = &self.memory {
            let mut state = held.lock();
            let before = state.0.header();
            let out = f(&mut state.0);
            if state.0.header() != before || !state.0.changed.is_empty() {
                state.0.changed.clear();
                state.1 += 1;
                held.written.notify_all();
            }
            return Ok(out);
        }
        let _lock = self.acquire_lock(cancel)?;
        let mut cached = self.load_locked()?.ok_or_else(|| self.missing("does not exist"))?;
        let before = cached.ledger.header();
        let out = f(&mut cached.ledger);
        if let Some(line) = cached.ledger.take_journal_line(before) {
            let torn = (cached.end > cached.pos).then_some(cached.pos);
            let end = self.append_journal(&line, torn).map_err(|e| {
                NlsError::Ledger(format!("cannot append to {}: {e}", self.path.display()))
            })?;
            if end != cached.pos + line.len() as u64 {
                // Another writer appended past a broken stale lock:
                // this cache missed its line, so reload in full next.
                return Ok(out);
            }
            (cached.pos, cached.end) = (end, end);
        }
        self.keep(cached);
        Ok(out)
    }

    /// Claims the next cells for `worker` ([`Ledger::claim_cells`],
    /// sized by `take`) through the locked read-modify-write: one
    /// journal line however many cells the claim holds. A claim that
    /// changes nothing — every open cell is leased or behind its
    /// backoff gate — leaves the file untouched, so workers waiting
    /// for the ledger to change ([`LedgerFile::wait_for_change`]) do
    /// not wake each other.
    pub(crate) fn claim(
        &self,
        cancel: &CancelToken,
        worker: &str,
        take: impl FnOnce(&[&str]) -> Range<usize>,
    ) -> Result<ClaimOutcome, NlsError> {
        self.update(cancel, |l| l.claim_cells(worker, now_ms(), take))
    }

    /// The ledger's current [`LedgerStamp`].
    pub(crate) fn stamp(&self) -> LedgerStamp {
        if let Some(held) = &self.memory {
            return LedgerStamp(held.lock().1, None);
        }
        let meta = fs::metadata(&self.path).ok();
        LedgerStamp(
            meta.as_ref().map_or(0, fs::Metadata::len),
            meta.and_then(|m| m.modified().ok()),
        )
    }

    /// Waits until the ledger no longer matches `seen` (another worker
    /// wrote it), until epoch ms `until_ms`, or until `cancel` trips,
    /// checking a file's stamp once per [`sleep_polling`] slice (a
    /// write to a ledger in memory ends the wait at once). Returns
    /// false on cancellation.
    pub(crate) fn wait_for_change(
        &self,
        seen: LedgerStamp,
        until_ms: u64,
        cancel: &CancelToken,
    ) -> bool {
        let Some(held) = &self.memory else {
            let ms = until_ms.saturating_sub(now_ms()).max(1);
            return sleep_polling_until(ms, cancel, || self.stamp() != seen);
        };
        // In slices, like `sleep_polling`, so a cancellation is seen.
        let mut state = held.lock();
        while LedgerStamp(state.1, None) == seen
            && !cancel.is_cancelled()
            && now_ms() < until_ms
        {
            let slice = held.written.wait_timeout(state, Duration::from_millis(10));
            state = slice.unwrap_or_else(PoisonError::into_inner).0;
        }
        !cancel.is_cancelled()
    }

    fn missing(&self, what: &str) -> NlsError {
        NlsError::Ledger(format!("{} {what}", self.path.display()))
    }

    fn keep(&self, cached: Cached) {
        *self.cache.lock().unwrap_or_else(PoisonError::into_inner) = Some(cached);
    }

    /// The ledger as the file holds it now (`None`: no file), under
    /// the lock. Catches the cached ledger up on the lines appended
    /// since it was read; reloads in full when there is no cache, the
    /// path names another file (a snapshot replaced it), or the file
    /// is shorter than the cached position.
    fn load_locked(&self) -> Result<Option<Cached>, NlsError> {
        let cached = self.cache.lock().unwrap_or_else(PoisonError::into_inner).take();
        let meta = match fs::metadata(&self.path) {
            Ok(meta) => meta,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(self.read_error(e)),
        };
        match cached {
            Some(mut c) if c.pos <= meta.len() && same_file(&c.file, &meta) => {
                let mut tail = Vec::new();
                if meta.len() > c.pos {
                    let mut file = &c.file;
                    file.seek(SeekFrom::Start(c.pos))
                        .and_then(|_| file.read_to_end(&mut tail))
                        .map_err(|e| self.read_error(e))?;
                }
                let lines = complete_lines(&tail, c.pos)?;
                c.ledger.apply_journal(lines, c.pos)?;
                c.end = c.pos + tail.len() as u64;
                c.pos += lines.len() as u64;
                Ok(Some(c))
            }
            _ => self.load_full(),
        }
    }

    /// Reads and parses the whole file: the snapshot, then every
    /// complete journal line after it.
    fn load_full(&self) -> Result<Option<Cached>, NlsError> {
        // nls-lint: allow(fs-trace-read): ledger JSON, not trace bytes; recovery policy does not apply
        let mut file = match fs::File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(self.read_error(e)),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| self.read_error(e))?;
        let text = complete_lines(&bytes, 0)?;
        let (root, journal) = Json::parse_prefix(text).map_err(NlsError::Ledger)?;
        let mut ledger = Ledger::from_snapshot(root)?;
        ledger.apply_journal(text.get(journal..).unwrap_or_default(), journal as u64)?;
        let (pos, end) = (text.len() as u64, bytes.len() as u64);
        Ok(Some(Cached { file, ledger, pos, end }))
    }

    /// One durable journal append: truncates the torn append at
    /// `torn`, if any, then writes the whole line with a single
    /// `write_all` and makes it durable with `sync_data` before the
    /// lock is released. Returns the offset just past the line.
    fn append_journal(&self, line: &str, torn: Option<u64>) -> std::io::Result<u64> {
        let mut journal = fs::OpenOptions::new().append(true).open(&self.path)?;
        if let Some(len) = torn {
            journal.set_len(len)?;
        }
        journal.write_all(line.as_bytes())?;
        journal.sync_data()?;
        journal.stream_position()
    }

    /// Writes `ledger` as the whole file — one snapshot, no journal —
    /// and returns it. The next operation reads the new file in full.
    fn snapshot_locked(&self, mut ledger: Ledger) -> Result<Ledger, NlsError> {
        ledger.changed.clear();
        write_atomic(&self.path, &ledger.to_json()).map_err(|e| {
            NlsError::Ledger(format!("cannot write {}: {e}", self.path.display()))
        })?;
        Ok(ledger)
    }

    fn read_error(&self, e: std::io::Error) -> NlsError {
        NlsError::Ledger(format!("cannot read {}: {e}", self.path.display()))
    }

    /// Takes the sibling lock file with `O_EXCL`, breaking locks left
    /// by a holder that died mid-update (older than [`LOCK_STALE_MS`]).
    /// Polls `cancel` while waiting so a signal is never stuck behind
    /// lock contention.
    fn acquire_lock(&self, cancel: &CancelToken) -> Result<LedgerLock, NlsError> {
        let lock_path = self.lock_path();
        let start = now_ms();
        loop {
            if cancel.is_cancelled() {
                return Err(NlsError::Interrupted(
                    "cancelled while waiting for the ledger lock".to_string(),
                ));
            }
            // The advisory lock is ephemeral by design — O_EXCL must
            // hit the real path, and losing it on crash is what
            // stale-lock breaking handles. (`fs-durability` exempts
            // `create_new` on a lock path for exactly this shape.)
            match fs::OpenOptions::new().write(true).create_new(true).open(&lock_path) {
                Ok(mut f) => {
                    // Lock contents are diagnostic only; acquisition
                    // is the O_EXCL create itself.
                    let _ = f.write_all(format!("{}\n", now_ms()).as_bytes());
                    let hold = chaos_hold_ms();
                    if hold > 0 {
                        // Contention injection for the soak harness:
                        // widen the critical section so lock waiting
                        // and stale-lock breaking actually exercise.
                        std::thread::sleep(Duration::from_millis(hold));
                    }
                    return Ok(LedgerLock { path: lock_path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if lock_age_ms(&lock_path).is_some_and(|age| age > LOCK_STALE_MS) {
                        // The holder is presumed dead (a live one
                        // finishes its read-modify-write in
                        // milliseconds); break the lock and retry the
                        // exclusive create.
                        let _ = fs::remove_file(&lock_path);
                        continue;
                    }
                }
                Err(e) => {
                    return Err(NlsError::Ledger(format!(
                        "cannot take ledger lock {}: {e}",
                        lock_path.display()
                    )));
                }
            }
            if now_ms().saturating_sub(start) > LOCK_ACQUIRE_TIMEOUT_MS {
                return Err(NlsError::Ledger(format!(
                    "could not acquire ledger lock {} within {LOCK_ACQUIRE_TIMEOUT_MS} ms",
                    lock_path.display()
                )));
            }
            std::thread::sleep(Duration::from_millis(LOCK_RETRY_SLEEP_MS));
        }
    }
}

/// Held lock on a ledger; dropping releases it.
struct LedgerLock {
    path: PathBuf,
}

impl Drop for LedgerLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Age of the lock file in milliseconds, if it still exists.
fn lock_age_ms(path: &Path) -> Option<u64> {
    let modified = fs::metadata(path).ok()?.modified().ok()?;
    // nls-lint: allow(determinism): lock staleness is wall-clock by nature; coordination only
    SystemTime::now()
        .duration_since(modified)
        .ok()
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// The complete lines at the start of `bytes`, which were read from
/// byte `at` of the file: everything through the last newline. What
/// follows it is a torn append and is left out.
fn complete_lines(bytes: &[u8], at: u64) -> Result<&str, NlsError> {
    let cut = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    std::str::from_utf8(bytes.get(..cut).unwrap_or_default()).map_err(|e| {
        NlsError::Ledger(format!("invalid UTF-8 at byte {}", at + e.valid_up_to() as u64))
    })
}

/// Whether the open `file` is still the file at the path `path_meta`
/// describes, i.e. no snapshot was renamed over the path since.
#[cfg(unix)]
fn same_file(file: &fs::File, path_meta: &fs::Metadata) -> bool {
    use std::os::unix::fs::MetadataExt;
    file.metadata().is_ok_and(|m| m.dev() == path_meta.dev() && m.ino() == path_meta.ino())
}

/// Without file identities to compare, every operation reloads the
/// file in full.
#[cfg(not(unix))]
fn same_file(_file: &fs::File, _path_meta: &fs::Metadata) -> bool {
    false
}

/// The ledger's snapshots, serve's job files and result cache, and the
/// bench results writers all write through the one durable-write
/// protocol, which trace files share.
pub use nls_trace::write_atomic;

/// Chaos knob: milliseconds to hold the ledger lock after acquiring
/// it. Set (via `NLS_LEDGER_CHAOS_HOLD_MS`) only by the soak harness
/// to inject ledger contention; zero/absent in real sweeps.
fn chaos_hold_ms() -> u64 {
    // nls-lint: allow(determinism): chaos-only knob read by the soak harness; never set in production sweeps
    std::env::var("NLS_LEDGER_CHAOS_HOLD_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
}

/// Sleeps `ms` in small slices, polling `cancel`. Returns false when
/// cancellation cut the sleep short.
pub fn sleep_polling(ms: u64, cancel: &CancelToken) -> bool {
    sleep_polling_until(ms, cancel, || false)
}

/// [`sleep_polling`] that also ends early, returning true, as soon as
/// `woken` reports true; it is asked once per slice.
fn sleep_polling_until(ms: u64, cancel: &CancelToken, mut woken: impl FnMut() -> bool) -> bool {
    let mut slept = 0u64;
    while slept < ms {
        if cancel.is_cancelled() {
            return false;
        }
        if woken() {
            return true;
        }
        let step = (ms - slept).min(10);
        std::thread::sleep(Duration::from_millis(step));
        slept += step;
    }
    !cancel.is_cancelled()
}

/// The ledger file's size and modification time, or an in-memory
/// ledger's count of writes. Every write either appends a journal
/// line, growing the file, renames a new snapshot over it, or counts
/// one more, so a different stamp means some worker wrote the ledger
/// since the stamp was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LedgerStamp(u64, Option<SystemTime>);

/// A background lease-renewal thread for one claim's cells. Renews
/// every lease the claim still holds at a third of the lease
/// interval, in one ledger update (one journal line) per beat; stops
/// on drop. If a renewal finds a lease stolen (this worker was
/// presumed dead), it stops renewing that cell, keeps the others, and
/// `stop` reports the loss; the stolen cell's completion is refused
/// by the ledger.
pub struct Heartbeat {
    /// Dropping the sender wakes the renewal thread, which then exits.
    stop: Option<mpsc::Sender<()>>,
    lost: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Starts renewing `worker`'s lease on `key` every
    /// `lease_ms / 3` milliseconds: the one-cell case of
    /// [`Heartbeat::start_all`].
    pub fn start(
        file: &LedgerFile,
        key: &str,
        worker: &str,
        lease_ms: u64,
        cancel: &CancelToken,
    ) -> Heartbeat {
        Self::start_all(file, &[key.to_string()], worker, lease_ms, cancel)
    }

    /// Starts renewing `worker`'s leases on `keys`, a claim's cells,
    /// every `lease_ms / 3` milliseconds.
    pub fn start_all(
        file: &LedgerFile,
        keys: &[String],
        worker: &str,
        lease_ms: u64,
        cancel: &CancelToken,
    ) -> Heartbeat {
        let (stop, stopped) = mpsc::channel::<()>();
        let lost = Arc::new(AtomicBool::new(false));
        let (file, mut keys, worker) = (file.clone(), keys.to_vec(), worker.to_string());
        let (lost2, cancel2) = (Arc::clone(&lost), cancel.clone());
        let handle = std::thread::spawn(move || {
            let interval = Duration::from_millis((lease_ms / 3).max(MIN_HEARTBEAT_MS));
            // Blocks one interval per beat; `stop` ends the wait at once
            // instead of the worker waiting it out.
            while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                if cancel2.is_cancelled() {
                    return;
                }
                let held = keys.len();
                // A failed update (transient lock contention or an I/O
                // hiccup) is a missed beat: the leases survive a missed
                // beat or two by construction (interval = lease / 3).
                let _ = file.update(&cancel2, |l| {
                    let now = now_ms();
                    keys.retain(|key| l.renew(key, &worker, now));
                });
                if keys.len() < held {
                    lost2.store(true, Ordering::SeqCst);
                }
                if keys.is_empty() {
                    return;
                }
            }
        });
        Heartbeat { stop: Some(stop), lost, handle: Some(handle) }
    }

    /// Whether a renewal observed a lease stolen.
    pub fn lease_lost(&self) -> bool {
        self.lost.load(Ordering::SeqCst)
    }

    /// Stops the renewal thread and reports whether a lease was
    /// lost while running. Returns at once: the thread is woken, not
    /// waited out (unless it is mid-renewal, one ledger update).
    pub fn stop(mut self) -> bool {
        self.halt();
        self.lost.load(Ordering::SeqCst)
    }

    fn halt(&mut self) {
        drop(self.stop.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::engine::KindCounts;
    use crate::spec::EngineSpec;
    use crate::sweep::{cross, ledger_claim, RunSpec, CLAIM_STATE_BYTES};
    use nls_icache::{CacheConfig, CacheStats};
    use nls_trace::BenchProfile;
    use std::time::Instant;

    fn cfg() -> SweepConfig {
        SweepConfig { trace_len: 60_000, seed: 7 }
    }

    fn keys() -> Vec<String> {
        vec!["a | 8K direct | e".to_string(), "b | 8K direct | e".to_string()]
    }

    fn sample_result() -> SimResult {
        SimResult {
            engine: "1024 NLS table".into(),
            bench: "li".into(),
            cache: "8K direct".into(),
            instructions: 60_000,
            breaks: 9_000,
            misfetches: 400,
            mispredicts: 700,
            icache: CacheStats { accesses: 60_000, misses: 1_200 },
            by_kind: [KindCounts::default(); 5],
        }
    }

    fn fresh() -> Ledger {
        Ledger::new(&cfg(), 1_000, 2, keys())
    }

    #[test]
    fn claim_walks_the_state_machine_to_done() {
        let mut l = fresh();
        let claim = l.claim("w0", 100);
        let ClaimOutcome::Claimed { key, attempt, lease_ms, .. } = claim else {
            panic!("fresh ledger must grant a lease: {claim:?}");
        };
        assert_eq!(key, "a | 8K direct | e");
        assert_eq!(attempt, 1);
        assert_eq!(lease_ms, 1_000);
        assert!(matches!(
            l.state(&key),
            Some(CellState::Leased { worker, attempts: 1, lease_expires_ms: 1_100 })
                if worker == "w0"
        ));
        assert!(l.complete(&key, "w0", vec![sample_result()]));
        assert!(matches!(l.state(&key), Some(CellState::Done { .. })));
        // Second cell drains the grid.
        let ClaimOutcome::Claimed { key: key2, .. } = l.claim("w0", 200) else {
            panic!("second cell must be claimable");
        };
        assert!(l.complete(&key2, "w0", vec![sample_result()]));
        assert_eq!(l.claim("w0", 300), ClaimOutcome::Drained);
        assert_eq!(l.counts(), CellCounts { pending: 0, leased: 0, done: 2, failed: 0 });
    }

    #[test]
    fn live_leases_are_not_stolen_and_wait_names_the_expiry() {
        let mut l = fresh();
        let _ = l.claim("w0", 100);
        let _ = l.claim("w0", 100);
        // Both cells leased; another worker must wait for the
        // earliest expiry, not steal.
        assert_eq!(l.claim("w1", 500), ClaimOutcome::Wait { until_ms: 1_100 });
        assert_eq!(l.counts().leased, 2);
    }

    #[test]
    fn expired_lease_is_reclaimed_with_backoff_then_granted() {
        let mut l = fresh();
        let ClaimOutcome::Claimed { key, .. } = l.claim("w0", 100) else { panic!() };
        // w0 dies. At expiry the cell is parked behind the backoff
        // gate (one attempt spent), then granted to w1.
        let after_expiry = 1_200;
        let out = l.claim("w1", after_expiry);
        match l.state(&key) {
            Some(CellState::Pending { attempts: 1, not_before_ms }) => {
                assert_eq!(*not_before_ms, after_expiry + Ledger::backoff_ms(1));
            }
            other => panic!("expired lease must be reclaimed: {other:?}"),
        }
        // w1 got the *other* (never-claimed) cell in the same scan.
        assert!(matches!(out, ClaimOutcome::Claimed { attempt: 1, .. }), "{out:?}");
        // Once the backoff gate passes, the reclaimed cell is granted
        // as attempt 2.
        let gate = after_expiry + Ledger::backoff_ms(1);
        let out = l.claim("w1", gate + 1);
        assert!(
            matches!(&out, ClaimOutcome::Claimed { key: k, attempt: 2, .. } if *k == key),
            "{out:?}"
        );
    }

    #[test]
    fn attempts_are_bounded_and_exhaustion_is_failed() {
        let key = "a | 8K direct | e";
        let mut l = Ledger::new(&cfg(), 1_000, 2, vec![key.to_string()]);
        // Attempt 1: claimed, then the worker dies and the lease
        // expires at 11_000.
        let out = l.claim("dying", 10_000);
        assert!(matches!(out, ClaimOutcome::Claimed { attempt: 1, .. }), "{out:?}");
        // The reclaiming scan parks the cell behind the backoff gate;
        // nothing is claimable until the gate passes.
        assert_eq!(
            l.claim("w1", 20_000),
            ClaimOutcome::Wait { until_ms: 20_000 + Ledger::backoff_ms(1) }
        );
        // Attempt 2 (the last allowed): claimed past the gate, then
        // that lease expires too.
        let out = l.claim("dying", 30_000);
        assert!(matches!(out, ClaimOutcome::Claimed { attempt: 2, .. }), "{out:?}");
        // Attempts spent: the next scan retires the cell for good.
        assert_eq!(l.claim("w1", 50_000), ClaimOutcome::Drained);
        match l.state(key) {
            Some(CellState::Failed { attempts: 2, error }) => {
                assert!(error.contains("dying"), "{error}");
                assert!(error.contains("expired"), "{error}");
            }
            other => panic!("attempt-exhausted cell must be Failed: {other:?}"),
        }
    }

    #[test]
    fn renew_extends_only_the_holders_lease() {
        let mut l = fresh();
        let ClaimOutcome::Claimed { key, .. } = l.claim("w0", 100) else { panic!() };
        assert!(l.renew(&key, "w0", 900));
        assert!(matches!(
            l.state(&key),
            Some(CellState::Leased { lease_expires_ms: 1_900, .. })
        ));
        assert!(!l.renew(&key, "imposter", 950));
        assert!(!l.renew("no-such-cell", "w0", 950));
    }

    #[test]
    fn complete_after_steal_is_refused() {
        let mut l = fresh();
        let ClaimOutcome::Claimed { key, .. } = l.claim("w0", 100) else { panic!() };
        // Lease expires; reclamation parks it; w1 claims it later.
        let _ = l.claim("w1", 1_200);
        let gate = 1_200 + Ledger::backoff_ms(1);
        // The other cell is leased to w1 already; move past it.
        let out = l.claim("w1", gate + 1);
        assert!(matches!(&out, ClaimOutcome::Claimed { key: k, .. } if *k == key), "{out:?}");
        // The presumed-dead w0 wakes up and tries to publish: refused.
        assert!(!l.complete(&key, "w0", vec![sample_result()]));
        assert!(l.complete(&key, "w1", vec![sample_result()]));
    }

    #[test]
    fn release_refunds_the_attempt() {
        let mut l = fresh();
        let ClaimOutcome::Claimed { key, attempt, .. } = l.claim("w0", 100) else { panic!() };
        assert_eq!(attempt, 1);
        assert!(l.release(&key, "w0", 150));
        let out = l.claim("w1", 200);
        assert!(
            matches!(&out, ClaimOutcome::Claimed { key: k, attempt: 1, .. } if *k == key),
            "a released cell is immediately claimable at attempt 1 again: {out:?}"
        );
    }

    #[test]
    fn record_failure_applies_backoff_then_fails_permanently() {
        let mut l = Ledger::new(&cfg(), 1_000, 2, keys());
        let ClaimOutcome::Claimed { key, .. } = l.claim("w0", 100) else { panic!() };
        assert!(l.record_failure(&key, "w0", 100, "engine panicked: boom"));
        match l.state(&key) {
            Some(CellState::Pending { attempts: 1, not_before_ms }) => {
                assert_eq!(*not_before_ms, 100 + Ledger::backoff_ms(1));
            }
            other => panic!("{other:?}"),
        }
        let gate = 100 + Ledger::backoff_ms(1);
        let out = l.claim("w0", gate);
        assert!(matches!(&out, ClaimOutcome::Claimed { key: k, attempt: 2, .. } if *k == key));
        assert!(l.record_failure(&key, "w0", gate + 1, "engine panicked: boom"));
        match l.state(&key) {
            Some(CellState::Failed { attempts: 2, error }) => {
                assert!(error.contains("boom"), "{error}");
            }
            other => panic!("second failure must exhaust two attempts: {other:?}"),
        }
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(Ledger::backoff_ms(1), RETRY_BACKOFF_BASE_MS);
        assert_eq!(Ledger::backoff_ms(2), RETRY_BACKOFF_BASE_MS * 2);
        assert_eq!(Ledger::backoff_ms(3), RETRY_BACKOFF_BASE_MS * 4);
        assert_eq!(Ledger::backoff_ms(60), RETRY_BACKOFF_CAP_MS, "cap holds for huge counts");
    }

    #[test]
    fn json_round_trips_every_state() {
        let grid: Vec<String> =
            ["a", "b", "c", "d"].iter().map(|b| format!("{b} | 8K direct | e")).collect();
        let mut l = Ledger::new(&cfg(), 1_000, 1, grid);
        // End state: a Done (two results), b Leased by a worker whose
        // id needs escaping, c Pending with a nonzero gate, d Failed
        // with a payload that needs escaping.
        assert!(matches!(l.claim("w0", 100), ClaimOutcome::Claimed { .. }));
        assert!(l.complete("a | 8K direct | e", "w0", vec![sample_result(), sample_result()]));
        assert!(matches!(l.claim("wéird \"worker\"", 100), ClaimOutcome::Claimed { .. }));
        assert!(matches!(l.state("b | 8K direct | e"), Some(CellState::Leased { .. })));
        assert!(matches!(l.claim("w1", 200), ClaimOutcome::Claimed { .. }));
        assert!(l.release("c | 8K direct | e", "w1", 300));
        assert!(matches!(l.claim("w2", 200), ClaimOutcome::Claimed { .. }));
        assert!(l.record_failure("d | 8K direct | e", "w2", 200, "payload with \"quotes\"\n"));
        assert!(matches!(l.state("d | 8K direct | e"), Some(CellState::Failed { .. })));
        let parsed = Ledger::from_json(&l.to_json()).unwrap();
        assert_eq!(parsed, l);
    }

    #[test]
    fn v1_checkpoints_and_damage_are_ledger_errors() {
        let text = fresh().to_json().replacen("\"version\": 2", "\"version\": 1", 1);
        let err = Ledger::from_json(&text).unwrap_err();
        assert_eq!(err.exit_code(), 8, "wrong version is a ledger error: {err}");
        assert!(err.to_string().contains("version 1"), "{err}");
        assert!(err.to_string().contains("no longer read"), "{err}");
        assert!(err.to_string().contains("delete the file"), "{err}");
        let wrong_shape =
            fresh().to_json().replacen("\"cells\": {", "\"cells\": [1], \"x\": {", 1);
        for bad in ["", "{", "not json", "{\"version\": 2}", wrong_shape.as_str()] {
            let err = Ledger::from_json(bad).unwrap_err();
            assert_eq!(err.exit_code(), 8, "input {bad:?} must be a ledger error");
        }
        let err = Ledger::from_json("{\"version\": 2, \"seed\": 1}").unwrap_err();
        assert!(err.to_string().contains("trace_len"), "a missing field is named: {err}");
    }

    /// Leftover `write_atomic` staging files of `path`.
    fn tmp_siblings(path: &Path) -> Vec<String> {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
        let dir = path.parent().unwrap_or(Path::new("."));
        fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.file_name().into_string().ok())
                    .filter(|n| n.starts_with(&format!("{name}.")) && n.ends_with(".tmp"))
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn concurrent_writers_to_one_path_all_succeed_and_one_write_wins_whole() {
        let dir = std::env::temp_dir()
            .join("nls-write-atomic-race-test")
            .join(format!("p{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.json");
        let texts: Vec<String> = (0..8)
            .map(|t| format!("{{\"writer\": {t}, \"pad\": \"{}\"}}\n", "x".repeat(t * 97)))
            .collect();
        std::thread::scope(|s| {
            for text in &texts {
                let path = &path;
                s.spawn(move || {
                    for round in 0..25 {
                        if let Err(e) = write_atomic(path, text) {
                            panic!("write {round} failed: {e}");
                        }
                    }
                });
            }
        });
        let last = fs::read_to_string(&path).unwrap();
        assert!(texts.contains(&last), "the file must hold one whole write, got {last:?}");
        assert!(tmp_siblings(&path).is_empty(), "every staging file was renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_fsyncs_the_parent_directory_and_survives_bare_filenames() {
        // The rename-durability fix opens the parent directory after
        // the rename, so a write under a missing parent fails. How a
        // real parent and a bare name's implicit `.` resolve is tested
        // where the sync lives, in `nls_trace`'s file module.
        let path = temp_ledger_path("dirsync");
        write_atomic(&path, "{}\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{}\n");
        assert!(tmp_siblings(&path).is_empty(), "no staging file is left behind");
        let missing = path.with_file_name("no-such-subdir").join("ledger.json");
        assert!(write_atomic(&missing, "{}\n").is_err(), "missing parent must not be masked");
        let err = LedgerFile::new(&missing).init(fresh(), false).unwrap_err();
        assert_eq!(err.exit_code(), 8, "a snapshot that cannot be written is a ledger error");
        let _ = fs::remove_file(&path);
    }

    fn temp_ledger_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("nls-ledger-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.json", std::process::id()));
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(format!("{}.lock", path.display()));
        path
    }

    #[test]
    fn init_refuses_reuse_without_resume_and_mismatched_grids() {
        let path = temp_ledger_path("init");
        let file = LedgerFile::new(&path);
        file.init(fresh(), false).unwrap();
        let err = file.init(fresh(), false).unwrap_err();
        assert_eq!(err.exit_code(), 8);
        assert!(err.to_string().contains("--resume"), "{err}");

        // Same config, different grid: refused even with resume.
        let other = Ledger::new(&cfg(), 1_000, 2, vec!["z | z | z".to_string()]);
        let err = file.init(other, true).unwrap_err();
        assert!(err.to_string().contains("cell grid"), "{err}");

        // Different config: refused with the config in the message.
        let other_cfg = SweepConfig { trace_len: 1, seed: 1 };
        let err = file.init(Ledger::new(&other_cfg, 1_000, 2, keys()), true).unwrap_err();
        assert!(err.to_string().contains("trace_len"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn update_round_trips_through_the_locked_file() {
        let path = temp_ledger_path("update");
        let file = LedgerFile::new(&path);
        file.init(fresh(), false).unwrap();
        let cancel = CancelToken::new();
        let out = file.update(&cancel, |l| l.claim("w0", now_ms())).unwrap();
        let ClaimOutcome::Claimed { key, .. } = out else { panic!("{out:?}") };
        let reread = file.read(&cancel).unwrap();
        assert!(matches!(reread.state(&key), Some(CellState::Leased { .. })));
        assert!(tmp_siblings(&path).is_empty());
        assert!(!Path::new(&format!("{}.lock", path.display())).exists(), "lock released");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn contending_workers_drain_the_grid_exactly_once() {
        // The interleaving test CI runs under TSan: four threads race
        // claim/complete through the locked file. Long leases keep
        // expiry out of play, so every publish must succeed and every
        // cell must be published exactly once — double publishes,
        // lost updates, or torn reads all fail the counts below.
        use std::sync::atomic::AtomicUsize;
        let path = temp_ledger_path("contention");
        let grid: Vec<String> = (0..8).map(|i| format!("b{i} | 8K direct | e")).collect();
        LedgerFile::new(&path)
            .init(Ledger::new(&cfg(), 60_000, 3, grid.clone()), false)
            .unwrap();
        let published = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for w in 0..4 {
                let (path, published) = (&path, &published);
                s.spawn(move || {
                    let file = LedgerFile::new(path);
                    let cancel = CancelToken::new();
                    let worker = format!("w{w}");
                    loop {
                        let out = file.update(&cancel, |l| l.claim(&worker, now_ms())).unwrap();
                        match out {
                            ClaimOutcome::Claimed { key, .. } => {
                                let ok = file
                                    .update(&cancel, |l| {
                                        l.complete(&key, &worker, vec![sample_result()])
                                    })
                                    .unwrap();
                                assert!(ok, "a live lease's publish must not be refused");
                                published.fetch_add(1, Ordering::SeqCst);
                            }
                            ClaimOutcome::Wait { .. } => std::thread::yield_now(),
                            ClaimOutcome::Drained => break,
                        }
                    }
                });
            }
        });
        assert_eq!(published.load(Ordering::SeqCst), grid.len(), "one publish per cell");
        let end = LedgerFile::new(&path).read(&CancelToken::new()).unwrap();
        assert_eq!(
            end.counts(),
            CellCounts { pending: 0, leased: 0, done: grid.len(), failed: 0 }
        );
        assert!(!Path::new(&format!("{}.lock", path.display())).exists(), "lock released");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_adopts_done_cells_and_new_lease_knobs() {
        let path = temp_ledger_path("resume");
        let file = LedgerFile::new(&path);
        file.init(fresh(), false).unwrap();
        let cancel = CancelToken::new();
        let done_key = file
            .update(&cancel, |l| {
                let ClaimOutcome::Claimed { key, .. } = l.claim("w0", now_ms()) else {
                    panic!("claimable")
                };
                assert!(l.complete(&key, "w0", vec![sample_result()]));
                key
            })
            .unwrap();
        let adopted = file.init(Ledger::new(&cfg(), 9_999, 5, keys()), true).unwrap();
        assert_eq!(adopted.lease_ms, 9_999, "resume adopts the requested lease");
        assert_eq!(adopted.max_attempts, 5);
        assert!(matches!(adopted.state(&done_key), Some(CellState::Done { .. })));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_reopens_failed_cells_and_keeps_done_and_leased_ones() {
        let path = temp_ledger_path("resume-failed");
        let grid: Vec<String> =
            ["a", "b", "c", "d"].iter().map(|c| format!("li | {c} | e")).collect();
        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg(), 30_000, 1, grid.clone()), false).unwrap();
        let cancel = CancelToken::new();
        file.update(&cancel, |l| {
            let now = now_ms();
            assert_eq!(cell_keys(&l.claim_cells("w0", now, |_| 0..3)).len(), 3);
            assert!(l.complete(&grid[0], "w0", vec![sample_result()]));
            assert!(l.record_failure(&grid[1], "w0", now, "engine panicked: boom"));
        })
        .unwrap();
        let before = file.read(&cancel).unwrap();
        assert!(matches!(before.state(&grid[1]), Some(CellState::Failed { attempts: 1, .. })));

        let resumed = file.init(Ledger::new(&cfg(), 30_000, 3, grid.clone()), true).unwrap();
        assert_eq!(resumed.state(&grid[0]), before.state(&grid[0]), "done stays done");
        assert_eq!(
            resumed.state(&grid[1]),
            Some(&CellState::Pending { attempts: 0, not_before_ms: 0 }),
            "failed re-opens with no attempt spent"
        );
        assert_eq!(resumed.state(&grid[2]), before.state(&grid[2]), "a lease stays leased");
        assert_eq!(resumed.state(&grid[3]), before.state(&grid[3]));
        assert_eq!(file.read(&cancel).unwrap(), resumed, "the file holds the re-opened ledger");
        let err = file.init(Ledger::new(&cfg(), 30_000, 3, grid), false).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_stale_lock_is_broken_a_fresh_one_is_respected() {
        let path = temp_ledger_path("stale-lock");
        let file = LedgerFile::new(&path);
        file.init(fresh(), false).unwrap();
        let lock_path = PathBuf::from(format!("{}.lock", path.display()));

        // A lock whose holder died: backdate its mtime beyond the
        // stale threshold and the next update must break it.
        fs::write(&lock_path, b"dead\n").unwrap();
        let old = SystemTime::now() - Duration::from_millis(LOCK_STALE_MS * 3);
        let f = fs::File::options().write(true).open(&lock_path).unwrap();
        f.set_modified(old).unwrap();
        drop(f);
        let cancel = CancelToken::new();
        let counts = file.update(&cancel, |l| l.counts()).unwrap();
        assert_eq!(counts.pending, 2, "stale lock must not wedge the ledger");
        assert!(!lock_path.exists());

        // A fresh lock blocks, and cancellation cuts the wait short
        // with exit-7 semantics instead of hanging.
        fs::write(&lock_path, b"alive\n").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = file.update(&token, |l| l.counts()).unwrap_err();
        assert_eq!(err.exit_code(), 7, "{err}");
        let _ = fs::remove_file(&lock_path);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn heartbeat_keeps_a_short_lease_alive() {
        let path = temp_ledger_path("heartbeat");
        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg(), 120, 3, keys()), false).unwrap();
        let cancel = CancelToken::new();
        let out = file.update(&cancel, |l| l.claim("w0", now_ms())).unwrap();
        let ClaimOutcome::Claimed { key, lease_ms, .. } = out else { panic!("{out:?}") };

        let hb = Heartbeat::start(&file, &key, "w0", lease_ms, &cancel);
        // Without renewal a 120 ms lease would expire well within
        // this window; the heartbeat must keep it held.
        std::thread::sleep(Duration::from_millis(400));
        let claim = file.update(&cancel, |l| l.claim("thief", now_ms())).unwrap();
        match &claim {
            ClaimOutcome::Claimed { key: k, .. } => {
                assert_ne!(*k, key, "the heartbeat-renewed lease must not be reclaimed")
            }
            other => panic!("the second cell is free: {other:?}"),
        }
        assert!(!hb.stop(), "lease was never lost");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn heartbeat_reports_a_reclaimed_lease_as_lost() {
        let path = temp_ledger_path("heartbeat-lost");
        let file = LedgerFile::new(&path);
        let one_cell = vec!["a | 8K direct | e".to_string()];
        file.init(Ledger::new(&cfg(), 120, 3, one_cell), false).unwrap();
        let cancel = CancelToken::new();
        let out = file.update(&cancel, |l| l.claim("w0", now_ms())).unwrap();
        let ClaimOutcome::Claimed { key, lease_ms, .. } = out else { panic!("{out:?}") };
        let hb = Heartbeat::start(&file, &key, "w0", lease_ms, &cancel);
        // Reclaim the cell out from under w0 by scanning at a forged
        // far-future instant, as another worker would after w0 hung
        // past its lease. The cell drops back to Pending, so w0's
        // next renewal must observe the loss.
        file.update(&cancel, |l| {
            let _ = l.claim("reclaimer", now_ms() + 10_000_000);
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(250));
        assert!(hb.stop(), "heartbeat must report the reclaimed lease");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn heartbeat_stop_returns_at_once_under_a_long_lease() {
        let path = temp_ledger_path("heartbeat-stop");
        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg(), 30_000, 3, keys()), false).unwrap();
        let cancel = CancelToken::new();
        let out = file.claim(&cancel, "w0", |_| 0..1).unwrap();
        let ClaimOutcome::Claimed { key, lease_ms, .. } = out else { panic!("{out:?}") };
        let hb = Heartbeat::start(&file, &key, "w0", lease_ms, &cancel);
        std::thread::sleep(Duration::from_millis(20));
        let asked = Instant::now();
        assert!(!hb.stop(), "lease was never lost");
        let took = asked.elapsed();
        assert!(took < Duration::from_millis(100), "stop took {took:?} under a 10 s interval");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_claim_that_changes_nothing_writes_nothing() {
        let path = temp_ledger_path("idle-claim");
        let file = LedgerFile::new(&path);
        let one_cell = vec!["a | 8K direct | e".to_string()];
        file.init(Ledger::new(&cfg(), 30_000, 3, one_cell), false).unwrap();
        let cancel = CancelToken::new();
        let out = file.claim(&cancel, "w0", |_| 0..1).unwrap();
        assert!(matches!(out, ClaimOutcome::Claimed { .. }), "{out:?}");
        let seen = file.stamp();
        // Past any coarse mtime tick, so a rewrite would show.
        std::thread::sleep(Duration::from_millis(30));
        let out = file.claim(&cancel, "w1", |_| 0..1).unwrap();
        assert!(matches!(out, ClaimOutcome::Wait { .. }), "{out:?}");
        assert_eq!(file.stamp(), seen, "an idle claim must not rewrite the ledger");
        // A real change ends a wait at once, long before the lease.
        let changed = file.update(&cancel, |l| l.release("a | 8K direct | e", "w0", now_ms()));
        assert!(changed.unwrap());
        let asked = Instant::now();
        assert!(file.wait_for_change(seen, now_ms() + 30_000, &cancel));
        assert!(asked.elapsed() < Duration::from_secs(1));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_torn_journal_tail_reads_as_before_and_the_next_writer_truncates_it() {
        let path = temp_ledger_path("torn-tail");
        let file = LedgerFile::new(&path);
        file.init(fresh(), false).unwrap();
        let cancel = CancelToken::new();
        let out = file.claim(&cancel, "w0", |_| 0..1).unwrap();
        let ClaimOutcome::Claimed { key, .. } = out else { panic!("{out:?}") };
        let size = || fs::metadata(&path).unwrap().len();
        let claimed = size();
        assert!(file
            .update(&cancel, |l| l.complete(&key, "w0", vec![sample_result()]))
            .unwrap());
        let completed = size();
        // A crash mid-append: half of the completion's line survives.
        let torn = claimed + (completed - claimed) / 2;
        fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(torn).unwrap();

        // This handle (its cached position now past the end) and a
        // fresh one both read the ledger as of the claim.
        for reader in [&file, &LedgerFile::new(&path)] {
            let state = reader.read(&cancel).unwrap().state(&key).cloned();
            assert!(matches!(state, Some(CellState::Leased { .. })), "{state:?}");
        }
        // The next writer drops the fragment, then appends whole.
        assert!(file
            .update(&cancel, |l| l.complete(&key, "w0", vec![sample_result()]))
            .unwrap());
        assert_eq!(size(), completed, "fragment truncated, the line appended whole");
        assert!(fs::read_to_string(&path).unwrap().ends_with("}}}\n"));
        let reread = LedgerFile::new(&path).read(&cancel).unwrap();
        assert!(matches!(reread.state(&key), Some(CellState::Done { .. })));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_malformed_journal_line_mid_file_is_a_ledger_error() {
        let path = temp_ledger_path("damaged-journal");
        let file = LedgerFile::new(&path);
        file.init(fresh(), false).unwrap();
        let cancel = CancelToken::new();
        assert!(matches!(
            file.claim(&cancel, "w0", |_| 0..1).unwrap(),
            ClaimOutcome::Claimed { .. }
        ));
        assert!(matches!(
            file.claim(&cancel, "w1", |_| 0..1).unwrap(),
            ClaimOutcome::Claimed { .. }
        ));
        let text = fs::read_to_string(&path).unwrap();
        // Both damages hit the first of the two journal lines and keep
        // its newline: a complete line, not a torn tail.
        for (from, to) in [("\"leased\"", "\"lost\""), ("}}\n", "}\n")] {
            let damaged = text.replacen(from, to, 1);
            assert_ne!(damaged, text);
            fs::write(&path, damaged).unwrap();
            let err = LedgerFile::new(&path).read(&cancel).unwrap_err();
            assert_eq!(err.exit_code(), 8, "{err}");
            assert!(err.to_string().contains("damaged journal line"), "{err}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_cached_handle_reloads_in_full_after_another_handle_replaces_the_file() {
        let path = temp_ledger_path("replaced");
        let grid: Vec<String> = (0..6).map(|i| format!("b{i} | 8K direct | e")).collect();
        let cancel = CancelToken::new();
        let a = LedgerFile::new(&path);
        a.init(Ledger::new(&cfg(), 30_000, 3, grid.clone()), false).unwrap();
        assert!(matches!(
            a.claim(&cancel, "wa", |_| 0..1).unwrap(),
            ClaimOutcome::Claimed { .. }
        ));
        let cached_at = fs::metadata(&path).unwrap().len();
        // Another handle resumes under a new lease, renaming a fresh
        // snapshot over the path, then grows that file past a's
        // cached position.
        let b = LedgerFile::new(&path);
        b.init(Ledger::new(&cfg(), 9_999, 3, grid), true).unwrap();
        while fs::metadata(&path).unwrap().len() <= cached_at {
            assert!(matches!(
                b.claim(&cancel, "wb", |_| 0..1).unwrap(),
                ClaimOutcome::Claimed { .. }
            ));
        }
        let seen = a.read(&cancel).unwrap();
        assert_eq!(seen.lease_ms, 9_999, "a reads b's file, not its own stale position");
        assert_eq!(seen, b.read(&cancel).unwrap());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_claim_and_a_complete_each_append_one_short_line_to_a_large_ledger() {
        let path = temp_ledger_path("growth");
        let grid: Vec<String> =
            (0..1_000).map(|i| format!("b{i:04} | 8K direct | e")).collect();
        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg(), 30_000, 3, grid), false).unwrap();
        let snapshot = fs::read_to_string(&path).unwrap();
        let cancel = CancelToken::new();
        let out = file.claim(&cancel, "w0", |_| 0..1).unwrap();
        let ClaimOutcome::Claimed { key, .. } = out else { panic!("{out:?}") };
        let claimed = fs::metadata(&path).unwrap().len() as usize;
        let results = vec![sample_result(), sample_result()];
        assert!(file.update(&cancel, |l| l.complete(&key, "w0", results)).unwrap());
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&snapshot), "the snapshot is never rewritten");
        for (from, to) in [(snapshot.len(), claimed), (claimed, text.len())] {
            let line = &text[from..to];
            assert!(line.len() < 4_096, "{} bytes for one cell", line.len());
            assert!(line.ends_with('\n') && line.matches('\n').count() == 1, "{line:?}");
            assert!(line.contains(&key), "{line:?}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn header_changes_in_an_update_reach_the_file() {
        let path = temp_ledger_path("header");
        let file = LedgerFile::new(&path);
        file.init(fresh(), false).unwrap();
        let cancel = CancelToken::new();
        file.update(&cancel, |l| l.lease_ms = 4_321).unwrap();
        assert_eq!(LedgerFile::new(&path).read(&cancel).unwrap().lease_ms, 4_321);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_bare_v2_snapshot_resumes_and_a_snapshot_reader_refuses_a_journal() {
        // A ledger file from before the journal: one v2 snapshot.
        const BARE_V2: &str = "{\n  \"version\": 2,\n  \"trace_len\": 60000,\n  \
            \"seed\": 7,\n  \"lease_ms\": 1000,\n  \"max_attempts\": 2,\n  \"cells\": {\n    \
            \"a | 8K direct | e\": {\"state\": \"done\", \"results\": []},\n    \
            \"b | 8K direct | e\": {\"state\": \"pending\", \"attempts\": 1, \
            \"not_before_ms\": 0}\n  }\n}\n";
        let path = temp_ledger_path("bare-v2");
        fs::write(&path, BARE_V2).unwrap();
        let file = LedgerFile::new(&path);
        let adopted = file.init(fresh(), true).unwrap();
        assert!(matches!(adopted.state("a | 8K direct | e"), Some(CellState::Done { .. })));
        assert_eq!(fs::read_to_string(&path).unwrap(), BARE_V2, "resume keeps the snapshot");
        let cancel = CancelToken::new();
        let out = file.claim(&cancel, "w0", |_| 0..1).unwrap();
        assert!(matches!(out, ClaimOutcome::Claimed { attempt: 2, .. }), "{out:?}");
        // A reader that predates the journal parses one document and
        // refuses whatever follows it.
        let err = Ledger::from_json(&fs::read_to_string(&path).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");
        assert!(err.to_string().contains("trailing garbage"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn stolen_lease_never_publishes_stale_results_under_contention() {
        // The four-thread steal drill behind `nls serve`'s retry
        // policy: a victim claims a cell and heartbeats it, a thief
        // reclaims and completes that same cell by scanning at a
        // forged far-future instant (as any worker would after the
        // victim hung past its lease), and two contending workers
        // drain the bystander cells afterwards. The victim's publish
        // after the steal must be refused by the self-guarded
        // `complete`, its heartbeat must report the loss, and the
        // cell must keep the thief's results — never the stale pair.
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        use std::sync::mpsc;
        let path = temp_ledger_path("steal-under-contention");
        let grid: Vec<String> =
            ["a", "b", "c", "d"].iter().map(|b| format!("{b} | 8K direct | e")).collect();
        LedgerFile::new(&path)
            .init(Ledger::new(&cfg(), 1_000, 3, grid.clone()), false)
            .unwrap();
        let (key_tx, key_rx) = mpsc::channel::<String>();
        let (stolen_tx, stolen_rx) = mpsc::channel::<()>();
        let published = AtomicUsize::new(0);
        let go = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (path, go_flag) = (&path, &go);
            s.spawn(move || {
                // Victim: claim, heartbeat, then publish after the
                // steal — the stale results must be discarded.
                let file = LedgerFile::new(path);
                let cancel = CancelToken::new();
                let out = file.update(&cancel, |l| l.claim("victim", now_ms())).unwrap();
                let ClaimOutcome::Claimed { key, lease_ms, .. } = out else {
                    panic!("{out:?}")
                };
                let hb = Heartbeat::start(&file, &key, "victim", lease_ms, &cancel);
                key_tx.send(key.clone()).unwrap();
                stolen_rx.recv().unwrap();
                let ok = file
                    .update(&cancel, |l| l.complete(&key, "victim", vec![sample_result()]))
                    .unwrap();
                assert!(!ok, "a publish after a lost lease must be refused");
                let mut waited = 0u32;
                while !hb.lease_lost() && waited < 5_000 {
                    std::thread::sleep(Duration::from_millis(20));
                    waited += 20;
                }
                assert!(hb.stop(), "the heartbeat must report the stolen lease");
            });
            s.spawn(move || {
                // Thief: one locked update does the whole steal, so
                // the contenders never see forged-time leases. Holds
                // the bystander grants so the forged scan walks on to
                // the reclaimed cell, then hands them straight back
                // gated at real time.
                let file = LedgerFile::new(path);
                let cancel = CancelToken::new();
                let victim_key = key_rx.recv().unwrap();
                let real_now = now_ms();
                file.update(&cancel, |l| {
                    let mut t = real_now + 10_000_000;
                    let mut held: Vec<String> = Vec::new();
                    loop {
                        match l.claim("thief", t) {
                            ClaimOutcome::Claimed { key, .. } if key == victim_key => break,
                            ClaimOutcome::Claimed { key, .. } => held.push(key),
                            ClaimOutcome::Wait { until_ms } => t = t.max(until_ms) + 1,
                            ClaimOutcome::Drained => {
                                panic!("the reclaimed cell never re-entered circulation")
                            }
                        }
                    }
                    assert!(
                        l.complete(
                            &victim_key,
                            "thief",
                            vec![sample_result(), sample_result()]
                        ),
                        "the thief holds the reclaimed lease"
                    );
                    for k in held {
                        assert!(l.release(&k, "thief", real_now));
                    }
                })
                .unwrap();
                stolen_tx.send(()).unwrap();
                go_flag.store(true, Ordering::SeqCst);
            });
            for w in 0..2 {
                let (published, go_flag) = (&published, &go);
                s.spawn(move || {
                    // Contenders: wait out the steal, then drain the
                    // released bystander cells exactly once each.
                    while !go_flag.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    let file = LedgerFile::new(path);
                    let cancel = CancelToken::new();
                    let worker = format!("contender{w}");
                    loop {
                        let out = file.update(&cancel, |l| l.claim(&worker, now_ms())).unwrap();
                        match out {
                            ClaimOutcome::Claimed { key, .. } => {
                                let ok = file
                                    .update(&cancel, |l| {
                                        l.complete(&key, &worker, vec![sample_result()])
                                    })
                                    .unwrap();
                                if ok {
                                    published.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            ClaimOutcome::Wait { .. } => std::thread::yield_now(),
                            ClaimOutcome::Drained => break,
                        }
                    }
                });
            }
        });
        assert_eq!(
            published.load(Ordering::SeqCst),
            grid.len() - 1,
            "contenders publish every bystander cell exactly once"
        );
        let end = LedgerFile::new(&path).read(&CancelToken::new()).unwrap();
        assert_eq!(
            end.counts(),
            CellCounts { pending: 0, leased: 0, done: grid.len(), failed: 0 }
        );
        let Some(CellState::Done { results }) = end.state(&grid[0]) else {
            panic!("the stolen cell must end Done with the thief's results");
        };
        assert_eq!(results.len(), 2, "the cell keeps the thief's results, not the stale pair");
        let _ = fs::remove_file(&path);
    }

    /// The key-to-run index of `runs`.
    fn grid(runs: &[RunSpec]) -> BTreeMap<String, &RunSpec> {
        runs.iter().map(|run| (run.key(), run)).collect()
    }

    /// The claim rule of `workers` workers over `index`, with no limit.
    fn rule<'a>(
        index: &'a BTreeMap<String, &RunSpec>,
        workers: usize,
    ) -> impl FnOnce(&[&str]) -> Range<usize> + 'a {
        move |keys| ledger_claim(keys, index, &Budget::unlimited(), workers).expect("no limit")
    }

    /// `benches` × `caches` (KiB, ways) under the four engines of the
    /// benchmark's sweeps.
    fn four_engine_runs(benches: &[BenchProfile], caches: &[(u64, u32)]) -> Vec<RunSpec> {
        let caches: Vec<CacheConfig> =
            caches.iter().map(|&(kb, assoc)| CacheConfig::paper(kb, assoc)).collect();
        let engines = [
            EngineSpec::btb(128, 1),
            EngineSpec::nls_table(1024),
            EngineSpec::nls_cache(2),
            EngineSpec::Johnson { preds_per_line: 2 },
        ];
        cross(benches, &caches, &engines)
    }

    fn cell_keys(outcome: &ClaimOutcome) -> Vec<(String, u64)> {
        match outcome {
            ClaimOutcome::Claimed { key, attempt, more, .. } => {
                std::iter::once((key.clone(), *attempt)).chain(more.iter().cloned()).collect()
            }
            other => panic!("expected a claim: {other:?}"),
        }
    }

    #[test]
    fn a_claim_takes_claimable_cells_of_the_first_benchmark_up_to_its_bounds() {
        // gcc's keys sort 128K 2-way, 4-way, 8-way, direct, 16K, 32K.
        let runs = four_engine_runs(
            &[BenchProfile::gcc(), BenchProfile::li()],
            &[(128, 1), (128, 2), (128, 4), (128, 8), (16, 1), (32, 1)],
        );
        let index = grid(&runs);
        let key = |bench: &str, cache: &str| {
            runs.iter()
                .map(RunSpec::key)
                .find(|k| k.starts_with(&format!("{bench} | {cache} |")))
                .expect("a grid cell")
        };
        let mut l = Ledger::new(&cfg(), 1_000, 3, runs.iter().map(RunSpec::key));
        // 128K 2-way stays leased elsewhere, 4-way is done, direct
        // waits behind its backoff gate; 8-way was released.
        let one = |l: &mut Ledger| cell_keys(&l.claim("other", 100)).remove(0).0;
        assert_eq!(one(&mut l), key("gcc", "128K 2-way"));
        let done = one(&mut l);
        assert!(l.complete(&done, "other", vec![sample_result()]));
        let released = one(&mut l);
        let gated = one(&mut l);
        assert!(l.record_failure(&gated, "other", 100, "boom"));
        assert!(l.release(&released, "other", 100));
        let small = [key("gcc", "16K direct"), key("gcc", "32K direct")];

        // One worker: every claimable gcc cell, in key order, and no li
        // cell; the leased, done and gated cells are skipped.
        let claim = l.clone().claim_cells("w0", 101, rule(&index, 1));
        let want = vec![(released.clone(), 1), (small[0].clone(), 1), (small[1].clone(), 1)];
        assert_eq!(cell_keys(&claim), want);
        // Five workers share nine claimable cells: a claim takes two.
        let claim = l.clone().claim_cells("w0", 101, rule(&index, 5));
        assert_eq!(cell_keys(&claim), want[..2].to_vec());

        // The state bound: two 128K cells fit in a claim, three do not.
        let mut fresh = Ledger::new(&cfg(), 1_000, 3, runs.iter().map(RunSpec::key));
        let claim = fresh.claim_cells("w0", 100, rule(&index, 1));
        assert_eq!(cell_keys(&claim).len(), 2, "{claim:?}");
        let held: u64 = cell_keys(&claim).iter().map(|(k, _)| index[k].state_bytes()).sum();
        let next = index[&key("gcc", "128K 8-way")].state_bytes();
        assert!(held <= CLAIM_STATE_BYTES && held + next > CLAIM_STATE_BYTES, "{held}");

        // A heap limit skips the cells it refuses, gcc's 128K ones, and
        // stops the worker once it refuses every claimable cell.
        let budget = Budget::unlimited().with_max_heap_bytes(index[&small[1]].state_bytes());
        let mut fresh = Ledger::new(&cfg(), 1_000, 3, runs.iter().map(RunSpec::key));
        let claim =
            fresh.claim_cells("w0", 100, |k| ledger_claim(k, &index, &budget, 1).unwrap());
        assert_eq!(cell_keys(&claim), vec![(small[0].clone(), 1), (small[1].clone(), 1)]);
        let refused = key("gcc", "128K direct");
        let err = ledger_claim(&[refused.as_str()], &index, &budget, 1).unwrap_err();
        assert!(matches!(err, crate::StopReason::HeapLimit { .. }), "{err}");

        // A cell larger than the bound is claimed alone, never skipped.
        let huge = four_engine_runs(&[BenchProfile::li()], &[(1024, 1), (8, 1)]);
        let index = grid(&huge);
        assert!(huge[0].state_bytes() > CLAIM_STATE_BYTES);
        let mut l = Ledger::new(&cfg(), 1_000, 3, huge.iter().map(RunSpec::key));
        let claim = l.claim_cells("w0", 100, rule(&index, 1));
        assert_eq!(cell_keys(&claim), vec![(huge[0].key(), 1)]);
    }

    #[test]
    fn a_multi_cell_claim_appends_one_journal_line() {
        let path = temp_ledger_path("multi-claim");
        let runs = four_engine_runs(
            &[BenchProfile::gcc(), BenchProfile::li()],
            &[(8, 1), (8, 4), (16, 1)],
        );
        let index = grid(&runs);
        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg(), 30_000, 3, runs.iter().map(RunSpec::key)), false)
            .unwrap();
        let before = fs::read_to_string(&path).unwrap();
        let cancel = CancelToken::new();
        let claim = file.claim(&cancel, "w0", rule(&index, 1)).unwrap();
        let keys = cell_keys(&claim);
        assert_eq!(keys.len(), 3, "gcc's three cells: {claim:?}");
        let text = fs::read_to_string(&path).unwrap();
        let journal = &text[before.len()..];
        assert_eq!(journal.lines().count(), 1, "{journal}");
        assert!(keys.iter().all(|(k, _)| journal.contains(k.as_str())), "{journal}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn an_expired_multi_cell_claim_is_reclaimed_cell_by_cell_behind_the_backoff_gate() {
        let grid: Vec<String> =
            ["a", "b", "c"].iter().map(|c| format!("li | {c} | e")).collect();
        let mut l = Ledger::new(&cfg(), 1_000, 3, grid.clone());
        let claim = l.claim_cells("dying", 100, |k| 0..k.len());
        assert_eq!(cell_keys(&claim).len(), 3);
        // The holder dies; one scan past the lease parks every cell
        // behind its own backoff gate, one attempt spent each.
        let gate = 1_200 + Ledger::backoff_ms(1);
        assert_eq!(
            l.claim_cells("w1", 1_200, |k| 0..k.len()),
            ClaimOutcome::Wait { until_ms: gate }
        );
        for key in &grid {
            assert_eq!(
                l.state(key),
                Some(&CellState::Pending { attempts: 1, not_before_ms: gate }),
                "{key}"
            );
        }
        // Past the gate each cell is granted again as attempt 2.
        let claim = l.claim_cells("w1", gate, |k| 0..k.len());
        let want: Vec<(String, u64)> = grid.iter().map(|k| (k.clone(), 2)).collect();
        assert_eq!(cell_keys(&claim), want);
    }

    #[test]
    fn one_heartbeat_keeps_every_lease_of_a_claim_through_ten_lease_periods() {
        let path = temp_ledger_path("heartbeat-claim");
        let grid: Vec<String> =
            ["a", "b", "c", "d"].iter().map(|c| format!("li | {c} | e")).collect();
        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg(), 120, 3, grid.clone()), false).unwrap();
        let cancel = CancelToken::new();
        let claim = file.claim(&cancel, "w0", |_| 0..3).unwrap();
        let ClaimOutcome::Claimed { lease_ms, .. } = claim else { panic!("{claim:?}") };
        let keys: Vec<String> = cell_keys(&claim).into_iter().map(|(k, _)| k).collect();
        let claimed = fs::metadata(&path).unwrap().len() as usize;
        let hb = Heartbeat::start_all(&file, &keys, "w0", lease_ms, &cancel);
        std::thread::sleep(Duration::from_millis(10 * 120 + 100));
        // Nothing of the claim was reclaimed: a scan now takes only the
        // fourth cell, and the claim's cells are still on attempt 1.
        let scan = file.update(&cancel, |l| l.claim("thief", now_ms())).unwrap();
        assert_eq!(cell_keys(&scan), vec![(grid[3].clone(), 1)]);
        assert!(!hb.stop(), "no lease was lost");
        let ledger = file.read(&cancel).unwrap();
        for key in &keys {
            assert!(
                matches!(ledger.state(key), Some(CellState::Leased { worker, attempts: 1, .. }) if worker == "w0"),
                "{key}: {:?}",
                ledger.state(key)
            );
        }
        // Each beat renewed every lease in one journal line.
        let text = fs::read_to_string(&path).unwrap();
        let beats: Vec<&str> =
            text[claimed..].lines().filter(|l| !l.contains("thief")).collect();
        assert!(beats.len() >= 10, "{} beats in ten lease periods", beats.len());
        for line in &beats {
            assert!(keys.iter().all(|k| line.contains(k.as_str())), "{line}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_stolen_lease_is_reported_and_the_claims_other_cells_still_publish() {
        let path = temp_ledger_path("heartbeat-claim-stolen");
        let grid: Vec<String> =
            ["a", "b", "c"].iter().map(|c| format!("li | {c} | e")).collect();
        let file = LedgerFile::new(&path);
        file.init(Ledger::new(&cfg(), 120, 3, grid.clone()), false).unwrap();
        let cancel = CancelToken::new();
        let claim = file.claim(&cancel, "w0", |k| 0..k.len()).unwrap();
        let ClaimOutcome::Claimed { lease_ms, .. } = claim else { panic!("{claim:?}") };
        let hb = Heartbeat::start_all(&file, &grid, "w0", lease_ms, &cancel);
        // Another worker ends up holding b, as after w0 was presumed
        // dead.
        file.update(&cancel, |l| {
            assert!(l.release(&grid[1], "w0", now_ms()));
            assert_eq!(cell_keys(&l.claim("thief", now_ms())), vec![(grid[1].clone(), 1)]);
        })
        .unwrap();
        let mut waited = 0;
        while !hb.lease_lost() && waited < 5_000 {
            std::thread::sleep(Duration::from_millis(20));
            waited += 20;
        }
        assert!(hb.lease_lost(), "the heartbeat must report the stolen lease");
        // Well past a lease later, a and c are still renewed: a scan
        // finds nothing claimable, and w0 still holds both.
        std::thread::sleep(Duration::from_millis(3 * 120));
        let scan = file.update(&cancel, |l| l.claim("scanner", now_ms())).unwrap();
        assert!(matches!(scan, ClaimOutcome::Wait { .. }), "{scan:?}");
        let published = file
            .update(&cancel, |l| {
                grid.iter()
                    .map(|k| l.complete(k, "w0", vec![sample_result()]))
                    .collect::<Vec<_>>()
            })
            .unwrap();
        assert_eq!(published, [true, false, true], "b's completion is refused");
        assert!(hb.stop(), "stop reports the loss");
        let ledger = file.read(&cancel).unwrap();
        assert!(!matches!(ledger.state(&grid[1]), Some(CellState::Done { .. })));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn sleep_polling_observes_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        assert!(!sleep_polling(10_000, &token), "cancelled sleep returns immediately");
        let token = CancelToken::new();
        assert!(sleep_polling(1, &token));
    }
}
