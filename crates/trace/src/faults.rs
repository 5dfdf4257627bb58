//! Deterministic fault injection for trace files.
//!
//! Robustness claims are only as good as the corruption they were
//! tested against. This module produces *seeded, reproducible*
//! corruptions of encoded `NLST` byte streams — byte flips,
//! truncations and record duplications — so the corruption-fuzz
//! suites can replay the exact same hostile inputs on every run and
//! a failing seed can be quoted in a bug report.
//!
//! The generator is the SplitMix64 step that also seeds
//! [`crate::rng::Rng`]; its unit tests pin the fault stream, so a
//! corruption regression test replays the same faults forever.
//!
//! # Examples
//!
//! ```
//! use nls_trace::faults::{Fault, FaultInjector};
//! use nls_trace::{write_trace, Addr, TraceRecord};
//!
//! let mut data = Vec::new();
//! write_trace(&mut data, vec![TraceRecord::sequential(Addr::new(0x100))]).unwrap();
//! let pristine = data.clone();
//! let fault = FaultInjector::new(7).any_fault(data.len());
//! fault.apply(&mut data);
//! assert_ne!(data, pristine, "every sampled fault changes the bytes");
//! ```

use std::time::Duration;

use crate::file::{TRACE_HEADER_BYTES, TRACE_RECORD_BYTES};
use crate::TraceRecord;

/// One concrete corruption of an encoded trace byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// XOR the byte at `offset` with `mask` (`mask != 0`, so the
    /// byte always changes).
    ByteFlip {
        /// Byte offset into the encoded stream.
        offset: usize,
        /// Non-zero XOR mask.
        mask: u8,
    },
    /// Cut the stream down to its first `keep` bytes.
    Truncate {
        /// Bytes to keep.
        keep: usize,
    },
    /// Re-insert a copy of record `index` directly after itself,
    /// shifting the rest of the body. The header count is *not*
    /// updated — the duplicate displaces the tail, modelling a
    /// storage layer that repeated a block.
    DuplicateRecord {
        /// Zero-based record index to duplicate.
        index: u64,
    },
}

impl Fault {
    /// Applies the fault to `data` in place. Out-of-range offsets
    /// and indices clamp to the stream (applying to an empty stream
    /// is a no-op), so a fault plan sampled for one trace can be
    /// replayed on a shorter one.
    pub fn apply(&self, data: &mut Vec<u8>) {
        match *self {
            Fault::ByteFlip { offset, mask } => {
                let Some(at) = data.len().checked_sub(1) else {
                    return;
                };
                if let Some(byte) = data.get_mut(offset.min(at)) {
                    *byte ^= mask.max(1);
                }
            }
            Fault::Truncate { keep } => {
                data.truncate(keep.min(data.len()));
            }
            Fault::DuplicateRecord { index } => {
                let body = data.len().saturating_sub(TRACE_HEADER_BYTES);
                let records = body / TRACE_RECORD_BYTES;
                if records == 0 {
                    return;
                }
                let at = (index as usize).min(records - 1);
                let start = TRACE_HEADER_BYTES + at * TRACE_RECORD_BYTES;
                let Some(frame) = data.get(start..start + TRACE_RECORD_BYTES) else {
                    return;
                };
                let frame: Vec<u8> = frame.to_vec();
                let insert_at = start + TRACE_RECORD_BYTES;
                data.splice(insert_at..insert_at, frame);
            }
        }
    }
}

/// A seeded fault sampler (SplitMix64).
///
/// Identical seeds produce identical fault sequences forever.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: u64,
}

impl FaultInjector {
    /// A sampler seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultInjector { state: seed }
    }

    /// The next raw 64-bit sample.
    fn next_u64(&mut self) -> u64 {
        crate::rng::splitmix64(&mut self.state)
    }

    /// A uniform sample in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }

    /// A byte flip somewhere in a stream of `len` bytes.
    pub fn byte_flip(&mut self, len: usize) -> Fault {
        let offset = if len == 0 { 0 } else { self.below(len) };
        let mask = (self.next_u64() as u8).max(1);
        Fault::ByteFlip { offset, mask }
    }

    /// A truncation of a stream of `len` bytes to a strictly shorter
    /// prefix.
    pub fn truncation(&mut self, len: usize) -> Fault {
        let keep = if len == 0 { 0 } else { self.below(len) };
        Fault::Truncate { keep }
    }

    /// A duplication of one record of a stream of `len` bytes.
    pub fn duplication(&mut self, len: usize) -> Fault {
        let records = len.saturating_sub(TRACE_HEADER_BYTES) / TRACE_RECORD_BYTES;
        let index = if records == 0 { 0 } else { self.below(records) as u64 };
        Fault::DuplicateRecord { index }
    }

    /// A fault of any kind, weighted towards byte flips (the common
    /// real-world corruption).
    pub fn any_fault(&mut self, len: usize) -> Fault {
        match self.below(4) {
            0 => self.truncation(len),
            1 => self.duplication(len),
            _ => self.byte_flip(len),
        }
    }
}

/// One fault injected *while a trace is being consumed*, as opposed
/// to the at-rest byte corruptions of [`Fault`].
///
/// Runtime faults model the hostile half of production I/O: a read
/// that stalls (slow disk, cold NFS page, throttled volume) and a
/// read that fails outright mid-stream. Both trigger after a given
/// number of records have been yielded, so a plan is meaningful
/// independent of byte-level encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeFault {
    /// Block the reader for `millis` before yielding record
    /// `after_records` (zero-based): deadline pressure without
    /// changing the data.
    ReadStall {
        /// Records yielded before the stall hits.
        after_records: u64,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// Fail the read before yielding record `after_records`. The
    /// stream yields one `Err` and then fuses: a broken transport
    /// does not resume.
    IoError {
        /// Records yielded before the error hits.
        after_records: u64,
    },
    /// SIGKILL worker process `victim` of a multi-process sweep once
    /// it holds a lease — the fault a work ledger's lease/reclamation
    /// protocol exists to absorb. A process-level fault:
    /// [`ChaosStream`] ignores it (nothing happens at the record
    /// level), the soak orchestrator executes it against its worker
    /// pool.
    WorkerKill {
        /// Zero-based index of the worker to kill.
        victim: u64,
    },
    /// Open a connection to a server under test, send a *partial*
    /// request, then hold the socket open for `hold_ms` without
    /// finishing it — the slow-loris shape the server's io-timeout
    /// exists to absorb. A socket-level fault: [`ChaosStream`]
    /// ignores it, the server soak orchestrator executes it with
    /// real connections.
    ClientStall {
        /// Milliseconds after drill start at which the client
        /// connects.
        after_millis: u64,
        /// Milliseconds the half-written request is held open.
        hold_ms: u64,
    },
}

impl RuntimeFault {
    /// The trigger point the fault sorts by: a record count for
    /// stream faults, milliseconds of wall clock for a client stall,
    /// and none (0) for a worker kill, which fires on a lease, not a
    /// timer. Plans mix units only within their own kind
    /// ([`ChaosScheduler`] plans each kind separately).
    pub fn trigger_at(&self) -> u64 {
        match *self {
            RuntimeFault::ReadStall { after_records, .. }
            | RuntimeFault::IoError { after_records } => after_records,
            RuntimeFault::ClientStall { after_millis, .. } => after_millis,
            RuntimeFault::WorkerKill { .. } => 0,
        }
    }
}

/// A seeded planner for [`RuntimeFault`]s (same splitmix64 core as
/// [`FaultInjector`]): identical seeds produce identical chaos plans
/// forever, so a failing soak seed can be quoted in a bug report and
/// replayed exactly.
#[derive(Debug, Clone)]
pub struct ChaosScheduler {
    rng: FaultInjector,
}

impl ChaosScheduler {
    /// A scheduler seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosScheduler { rng: FaultInjector::new(seed) }
    }

    /// A stall of `1..=max_millis` ms somewhere in the first
    /// `trace_len` records.
    pub fn read_stall(&mut self, trace_len: u64, max_millis: u64) -> RuntimeFault {
        RuntimeFault::ReadStall {
            after_records: self.position(trace_len),
            millis: 1 + self.rng.next_u64() % max_millis.max(1),
        }
    }

    /// An I/O failure somewhere in the first `trace_len` records.
    pub fn io_error(&mut self, trace_len: u64) -> RuntimeFault {
        RuntimeFault::IoError { after_records: self.position(trace_len) }
    }

    /// A plan of `faults` runtime faults, sorted by trigger point,
    /// weighted towards stalls (the common real-world event). At
    /// most one `IoError` is planned — the stream fuses after the
    /// first, so later ones would be dead weight.
    pub fn plan(
        &mut self,
        trace_len: u64,
        faults: usize,
        max_millis: u64,
    ) -> Vec<RuntimeFault> {
        // nls-lint: allow(unchecked-capacity): `faults` is a caller-chosen plan size, single digits in every harness
        let mut out = Vec::with_capacity(faults);
        let mut failed = false;
        for _ in 0..faults {
            let fault = if !failed && self.rng.below(4) == 0 {
                failed = true;
                self.io_error(trace_len)
            } else {
                self.read_stall(trace_len, max_millis)
            };
            out.push(fault);
        }
        out.sort_by_key(RuntimeFault::trigger_at);
        out
    }

    /// A kill of one of `workers` worker processes (never worker 0,
    /// so a multi-process sweep always keeps one survivor to reclaim
    /// the victims' cells).
    pub fn worker_kill(&mut self, workers: u64) -> RuntimeFault {
        let victim = if workers > 1 { 1 + self.rng.next_u64() % (workers - 1) } else { 0 };
        RuntimeFault::WorkerKill { victim }
    }

    /// A plan of seeded [`RuntimeFault::WorkerKill`]s against `kills`
    /// distinct workers of a pool of `workers`, in draw order: never
    /// worker 0, so at most `workers - 1` of them. Like every chaos
    /// plan, identical seeds produce identical kill plans.
    pub fn kill_plan(&mut self, workers: u64, kills: usize) -> Vec<RuntimeFault> {
        let mut pool: Vec<u64> = (1..workers).collect();
        let kills = kills.min(pool.len());
        (0..kills)
            .map(|_| {
                let victim = pool.swap_remove(self.pick(pool.len() as u64) as usize);
                RuntimeFault::WorkerKill { victim }
            })
            .collect()
    }

    /// A plan of `stalls` seeded [`RuntimeFault::ClientStall`]s:
    /// each connects within the first `window_ms` of the drill and
    /// holds its half-written request for `1..=max_hold_ms`. Sorted
    /// by connect time, reproducible from the seed like every plan.
    pub fn stall_plan(
        &mut self,
        stalls: usize,
        window_ms: u64,
        max_hold_ms: u64,
    ) -> Vec<RuntimeFault> {
        // nls-lint: allow(unchecked-capacity): `stalls` is a caller-chosen plan size, single digits in every harness
        let mut out = Vec::with_capacity(stalls);
        for _ in 0..stalls {
            out.push(RuntimeFault::ClientStall {
                after_millis: self.rng.next_u64() % window_ms.max(1),
                hold_ms: 1 + self.rng.next_u64() % max_hold_ms.max(1),
            });
        }
        out.sort_by_key(RuntimeFault::trigger_at);
        out
    }

    /// A uniform seeded sample in `0..bound` (`bound` of 0 is read
    /// as 1), for orchestrators that need reproducible choices —
    /// e.g. which corpus request a flood client fires next.
    pub fn pick(&mut self, bound: u64) -> u64 {
        self.rng.next_u64() % bound.max(1)
    }

    fn position(&mut self, trace_len: u64) -> u64 {
        if trace_len == 0 {
            0
        } else {
            self.rng.next_u64() % trace_len
        }
    }
}

/// A trace-record iterator with a [`RuntimeFault`] plan spliced into
/// its read path.
///
/// Wraps any `Iterator<Item = TraceRecord>` (a decoded buffer, a
/// [`crate::Walker`], …) and yields `Result<TraceRecord,
/// std::io::Error>`: stalls sleep in-line before the affected
/// record, an `IoError` yields exactly one `Err` and then the
/// stream fuses to `None`.
///
/// # Examples
///
/// ```
/// use nls_trace::faults::{ChaosStream, RuntimeFault};
/// use nls_trace::{Addr, TraceRecord};
///
/// let records = vec![TraceRecord::sequential(Addr::new(0x100)); 4];
/// let plan = vec![RuntimeFault::IoError { after_records: 2 }];
/// let got: Vec<_> = ChaosStream::new(records.into_iter(), plan).collect();
/// assert_eq!(got.len(), 3, "two records, one error, then fused");
/// assert!(got[2].is_err());
/// ```
#[derive(Debug)]
pub struct ChaosStream<I> {
    inner: I,
    plan: Vec<RuntimeFault>,
    next_fault: usize,
    yielded: u64,
    failed: bool,
}

impl<I> ChaosStream<I> {
    /// Wraps `inner` with `plan` (sorted internally; order of equal
    /// trigger points is preserved).
    pub fn new(inner: I, mut plan: Vec<RuntimeFault>) -> Self {
        plan.sort_by_key(RuntimeFault::trigger_at);
        ChaosStream { inner, plan, next_fault: 0, yielded: 0, failed: false }
    }
}

impl<I: Iterator<Item = TraceRecord>> Iterator for ChaosStream<I> {
    type Item = Result<TraceRecord, std::io::Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        while let Some(fault) = self.plan.get(self.next_fault) {
            if fault.trigger_at() > self.yielded {
                break;
            }
            self.next_fault += 1;
            match *fault {
                RuntimeFault::ReadStall { millis, .. } => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                RuntimeFault::IoError { .. } => {
                    self.failed = true;
                    return Some(Err(std::io::Error::other(
                        "injected chaos fault: read failed",
                    )));
                }
                // Process- and socket-level faults do nothing at the
                // record level; the soak orchestrators own them.
                RuntimeFault::WorkerKill { .. } | RuntimeFault::ClientStall { .. } => {}
            }
        }
        let record = self.inner.next()?;
        self.yielded += 1;
        Some(Ok(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(bytes: usize) -> Vec<u8> {
        (0..bytes).map(|i| i as u8).collect()
    }

    #[test]
    fn same_seed_same_faults() {
        let mut a = FaultInjector::new(42);
        let mut b = FaultInjector::new(42);
        for _ in 0..64 {
            assert_eq!(a.any_fault(1000), b.any_fault(1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(1);
        let mut b = FaultInjector::new(2);
        let same = (0..32).filter(|_| a.any_fault(1000) == b.any_fault(1000)).count();
        assert!(same < 32, "independent seeds must not produce identical plans");
    }

    #[test]
    fn byte_flip_always_changes_one_byte() {
        let mut inj = FaultInjector::new(7);
        for _ in 0..100 {
            let mut data = stream(100);
            let before = data.clone();
            inj.byte_flip(data.len()).apply(&mut data);
            let diffs = before.iter().zip(&data).filter(|(a, b)| a != b).count();
            assert_eq!(diffs, 1);
        }
    }

    #[test]
    fn truncation_strictly_shrinks() {
        let mut inj = FaultInjector::new(7);
        for _ in 0..100 {
            let mut data = stream(100);
            inj.truncation(data.len()).apply(&mut data);
            assert!(data.len() < 100);
        }
    }

    #[test]
    fn duplication_grows_by_one_record() {
        let mut inj = FaultInjector::new(7);
        let len = TRACE_HEADER_BYTES + 5 * TRACE_RECORD_BYTES;
        let mut data = stream(len);
        inj.duplication(data.len()).apply(&mut data);
        assert_eq!(data.len(), len + TRACE_RECORD_BYTES);
    }

    #[test]
    fn duplication_repeats_the_frame_in_place() {
        let len = TRACE_HEADER_BYTES + 3 * TRACE_RECORD_BYTES;
        let mut data = stream(len);
        Fault::DuplicateRecord { index: 1 }.apply(&mut data);
        let first = TRACE_HEADER_BYTES + TRACE_RECORD_BYTES;
        let copy = first + TRACE_RECORD_BYTES;
        assert_eq!(
            data[first..first + TRACE_RECORD_BYTES],
            data[copy..copy + TRACE_RECORD_BYTES]
        );
    }

    #[test]
    fn faults_are_noops_on_empty_streams() {
        for fault in [
            Fault::ByteFlip { offset: 10, mask: 0xff },
            Fault::Truncate { keep: 10 },
            Fault::DuplicateRecord { index: 3 },
        ] {
            let mut data = Vec::new();
            fault.apply(&mut data);
            assert!(data.is_empty());
        }
    }

    #[test]
    fn chaos_plans_are_reproducible() {
        let a = ChaosScheduler::new(99).plan(10_000, 8, 5);
        let b = ChaosScheduler::new(99).plan(10_000, 8, 5);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].trigger_at() <= w[1].trigger_at()), "plan is sorted");
        let errors = a.iter().filter(|f| matches!(f, RuntimeFault::IoError { .. })).count();
        assert!(errors <= 1, "at most one I/O failure per plan");
    }

    #[test]
    fn kill_plans_are_reproducible_and_spare_worker_zero() {
        for (seed, workers, kills) in [(7, 4, 3), (7, 8, 6), (9, 4, 2), (5, 4, 2), (3, 4, 6)] {
            let a = ChaosScheduler::new(seed).kill_plan(workers, kills);
            assert_eq!(a, ChaosScheduler::new(seed).kill_plan(workers, kills));
            let mut victims: Vec<u64> = a
                .iter()
                .map(|fault| match fault {
                    RuntimeFault::WorkerKill { victim } => *victim,
                    other => panic!("kill plans hold only WorkerKill faults, got {other:?}"),
                })
                .collect();
            assert!(victims.iter().all(|v| (1..workers).contains(v)), "worker 0 must survive");
            victims.sort_unstable();
            victims.dedup();
            let want = kills.min(workers as usize - 1);
            assert_eq!(victims.len(), want, "seed {seed}: {want} distinct victims in {a:?}");
        }
    }

    #[test]
    fn stall_plans_are_reproducible_and_bounded() {
        let a = ChaosScheduler::new(5).stall_plan(6, 200, 400);
        let b = ChaosScheduler::new(5).stall_plan(6, 200, 400);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].trigger_at() <= w[1].trigger_at()), "plan is sorted");
        for fault in &a {
            match fault {
                RuntimeFault::ClientStall { after_millis, hold_ms } => {
                    assert!(*after_millis < 200);
                    assert!((1..=400).contains(hold_ms));
                }
                other => panic!("stall plans hold only ClientStall faults, got {other:?}"),
            }
        }
    }

    #[test]
    fn client_stalls_pass_through_a_chaos_stream() {
        let records: Vec<_> = (0..5)
            .map(|i| crate::TraceRecord::sequential(crate::Addr::new(0x100 + i * 4)))
            .collect();
        let plan = vec![RuntimeFault::ClientStall { after_millis: 0, hold_ms: 10 }];
        let got: Result<Vec<_>, _> =
            ChaosStream::new(records.clone().into_iter(), plan).collect();
        assert_eq!(got.unwrap(), records, "socket faults never touch the record stream");
    }

    #[test]
    fn picks_are_reproducible_and_in_range() {
        let mut a = ChaosScheduler::new(3);
        let mut b = ChaosScheduler::new(3);
        for _ in 0..64 {
            let x = a.pick(7);
            assert_eq!(x, b.pick(7));
            assert!(x < 7);
        }
        assert_eq!(a.pick(0), 0, "zero bound degrades to the only choice");
    }

    #[test]
    fn single_worker_kill_plan_targets_the_only_worker() {
        // Degenerate fleet: with one worker there is no survivor to
        // spare, and the caller gets victim 0 back unrounded.
        match ChaosScheduler::new(1).worker_kill(1) {
            RuntimeFault::WorkerKill { victim } => assert_eq!(victim, 0),
            other => panic!("want WorkerKill, got {other:?}"),
        }
    }

    #[test]
    fn worker_kills_pass_through_a_chaos_stream() {
        let records: Vec<_> = (0..5)
            .map(|i| crate::TraceRecord::sequential(crate::Addr::new(0x100 + i * 4)))
            .collect();
        let plan = vec![RuntimeFault::WorkerKill { victim: 1 }];
        let got: Result<Vec<_>, _> =
            ChaosStream::new(records.clone().into_iter(), plan).collect();
        assert_eq!(got.unwrap(), records, "process faults never touch the record stream");
    }

    #[test]
    fn chaos_stream_without_faults_is_transparent() {
        let records: Vec<_> = (0..5)
            .map(|i| crate::TraceRecord::sequential(crate::Addr::new(0x100 + i * 4)))
            .collect();
        let got: Result<Vec<_>, _> =
            ChaosStream::new(records.clone().into_iter(), Vec::new()).collect();
        assert_eq!(got.unwrap(), records);
    }

    #[test]
    fn stalls_delay_but_never_change_records() {
        let records: Vec<_> = (0..5)
            .map(|i| crate::TraceRecord::sequential(crate::Addr::new(0x100 + i * 4)))
            .collect();
        let plan = vec![RuntimeFault::ReadStall { after_records: 2, millis: 1 }];
        let got: Result<Vec<_>, _> =
            ChaosStream::new(records.clone().into_iter(), plan).collect();
        assert_eq!(got.unwrap(), records);
    }

    #[test]
    fn io_error_yields_once_then_fuses() {
        let records: Vec<_> = (0..5)
            .map(|i| crate::TraceRecord::sequential(crate::Addr::new(0x100 + i * 4)))
            .collect();
        let plan = vec![
            RuntimeFault::IoError { after_records: 3 },
            RuntimeFault::ReadStall { after_records: 4, millis: 1 },
        ];
        let mut stream = ChaosStream::new(records.into_iter(), plan);
        assert!(stream.by_ref().take(3).all(|r| r.is_ok()));
        assert!(stream.next().unwrap().is_err());
        assert!(stream.next().is_none(), "a broken transport does not resume");
        assert!(stream.next().is_none());
    }

    #[test]
    fn out_of_range_faults_clamp() {
        let len = TRACE_HEADER_BYTES + 2 * TRACE_RECORD_BYTES;
        let mut data = stream(len);
        Fault::ByteFlip { offset: 10_000, mask: 1 }.apply(&mut data);
        assert_eq!(data.len(), len);
        Fault::DuplicateRecord { index: 10_000 }.apply(&mut data);
        assert_eq!(data.len(), len + TRACE_RECORD_BYTES);
    }
}
