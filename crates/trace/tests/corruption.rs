//! Corruption-fuzz suite for the trace file layer.
//!
//! Seeded fault injection (byte flips, truncations, record
//! duplications) over an encoded trace, crossed with every
//! [`RecoveryPolicy`]. The contract under test: **no input ever
//! panics** — every corruption either recovers per policy or surfaces
//! as a typed [`TraceFileError`] — and each policy's exact behaviour
//! is pinned down at every field boundary.

use std::io::{self, Read};

use nls_trace::faults::{Fault, FaultInjector};
use nls_trace::rng::Rng;
use nls_trace::{
    read_trace, read_trace_with, trace_for, write_trace, Addr, BenchProfile, BreakKind,
    GenConfig, RecoveryPolicy, TraceFileError, TraceReader, TraceRecord, TRACE_HEADER_BYTES,
    TRACE_RECORD_BYTES,
};

/// A small trace exercising every record kind and both directions.
fn base_trace() -> Vec<TraceRecord> {
    let mut records = Vec::new();
    for i in 0..8u64 {
        let pc = Addr::new(0x1000 + 32 * i);
        records.push(TraceRecord::sequential(pc));
        records.push(TraceRecord::branch(
            Addr::new(0x1000 + 32 * i + 4),
            BreakKind::Conditional,
            i % 2 == 0,
            Addr::new(0x2000 + 32 * i),
        ));
        records.push(TraceRecord::branch(
            Addr::new(0x2000 + 32 * i),
            BreakKind::Call,
            true,
            Addr::new(0x3000),
        ));
        records.push(TraceRecord::branch(
            Addr::new(0x3000),
            BreakKind::Return,
            true,
            Addr::new(0x2000 + 32 * i + 4),
        ));
        records.push(TraceRecord::branch(
            Addr::new(0x2000 + 32 * i + 4),
            BreakKind::IndirectJump,
            true,
            Addr::new(0x1000 + 32 * (i + 1)),
        ));
        records.push(TraceRecord::branch(
            Addr::new(0x1000 + 32 * (i + 1)),
            BreakKind::Unconditional,
            true,
            Addr::new(0x1000 + 32 * (i + 1) + 8),
        ));
    }
    records
}

fn encoded() -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut buf, base_trace()).unwrap();
    buf
}

/// Header errors are the only legitimate failures under the
/// truncate-at-error policy (there is no frame stream to salvage
/// without a valid header).
fn is_header_error(e: &TraceFileError) -> bool {
    matches!(
        e,
        TraceFileError::BadMagic(_)
            | TraceFileError::BadVersion(_)
            | TraceFileError::BadHeader(_)
    )
}

#[test]
fn one_hundred_fifty_seeded_corruptions_never_panic() {
    let pristine = encoded();
    let mut variants = 0u32;
    for seed in 0..150u64 {
        let mut data = pristine.clone();
        let fault = FaultInjector::new(seed).any_fault(data.len());
        fault.apply(&mut data);
        variants += 1;

        // Strict policy: decodes fully or returns a typed error.
        // Reaching the match at all proves no panic occurred.
        match read_trace(&data[..]) {
            Ok(records) => assert!(records.len() <= base_trace().len() + 1),
            Err(e) => {
                let _ = e.to_string(); // every error must render
            }
        }

        // Unbounded skip: only header damage or truncation may fail.
        match read_trace_with(&data[..], RecoveryPolicy::SkipRecord { max_skips: u64::MAX }) {
            Ok(_) => {}
            Err(e) => assert!(
                is_header_error(&e) || matches!(e, TraceFileError::TruncatedBody { .. }),
                "seed {seed}: skip policy failed with unexpected {e}"
            ),
        }

        // Truncate-at-error: always recovers unless the header is bad.
        match read_trace_with(&data[..], RecoveryPolicy::TruncateAtError) {
            Ok(_) => {}
            Err(e) => assert!(
                is_header_error(&e),
                "seed {seed}: truncate policy must absorb body damage, got {e}"
            ),
        }
    }
    assert!(variants >= 100, "the fuzz matrix must cover at least 100 variants");
}

#[test]
fn truncation_at_every_byte_boundary() {
    let pristine = encoded();
    for cut in 0..pristine.len() {
        let data = &pristine[..cut];

        // Strict reads of any proper prefix must fail with a typed
        // error — header class below the header size, record class
        // above it.
        match read_trace(data) {
            Ok(_) => panic!("cut {cut}: a truncated trace must not read cleanly"),
            Err(TraceFileError::BadHeader(_)) => assert!(cut < TRACE_HEADER_BYTES),
            Err(TraceFileError::TruncatedBody { .. }) => assert!(cut >= TRACE_HEADER_BYTES),
            Err(e) => panic!("cut {cut}: unexpected error class {e}"),
        }

        // The truncate policy keeps exactly the whole frames.
        if cut >= TRACE_HEADER_BYTES {
            let records = read_trace_with(data, RecoveryPolicy::TruncateAtError).unwrap();
            assert_eq!(records.len(), (cut - TRACE_HEADER_BYTES) / TRACE_RECORD_BYTES);
            assert_eq!(records[..], base_trace()[..records.len()]);
        }
    }
}

#[test]
fn every_header_byte_flip_is_rejected_with_the_right_class() {
    let pristine = encoded();
    for offset in 0..TRACE_HEADER_BYTES {
        let mut data = pristine.clone();
        Fault::ByteFlip { offset, mask: 0x80 }.apply(&mut data);
        match (offset, read_trace(&data[..])) {
            (0..=3, Err(TraceFileError::BadMagic(_))) => {}
            (4..=7, Err(TraceFileError::BadVersion(_))) => {}
            // A flipped count either overflows (BadHeader) or claims
            // more records than the body holds (TruncatedBody).
            (
                8..=15,
                Err(TraceFileError::BadHeader(_) | TraceFileError::TruncatedBody { .. }),
            ) => {}
            (_, r) => panic!("header offset {offset}: unexpected outcome {r:?}"),
        }
    }
}

#[test]
fn skip_policy_recovers_exactly_the_intact_records() {
    let pristine = encoded();
    let n = base_trace().len();
    // Corrupt the kind tags of records 1 and 3.
    let mut data = pristine.clone();
    for index in [1usize, 3] {
        data[TRACE_HEADER_BYTES + index * TRACE_RECORD_BYTES] = 0xee;
    }

    let records =
        read_trace_with(&data[..], RecoveryPolicy::SkipRecord { max_skips: 2 }).unwrap();
    assert_eq!(records.len(), n - 2);
    let expected: Vec<_> = base_trace()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != 1 && *i != 3)
        .map(|(_, r)| r)
        .collect();
    assert_eq!(records, expected);

    // One skip fewer than needed fails with the typed overflow.
    let out = read_trace_with(&data[..], RecoveryPolicy::SkipRecord { max_skips: 1 });
    assert!(matches!(out, Err(TraceFileError::TooCorrupt { skipped: 2, limit: 1 })));
}

#[test]
fn duplicated_records_parse_and_displace_the_tail() {
    let mut data = encoded();
    Fault::DuplicateRecord { index: 2 }.apply(&mut data);
    let records = read_trace(&data[..]).unwrap();
    let original = base_trace();
    // The count is unchanged, the duplicate appears back-to-back and
    // the final original record is pushed out past the count.
    assert_eq!(records.len(), original.len());
    assert_eq!(records[2], records[3]);
    assert_eq!(records[..3], original[..3]);
    assert_eq!(records[3..], original[2..original.len() - 1]);
}

#[test]
fn streaming_reader_tracks_recovery_statistics() {
    let mut data = encoded();
    for index in [0usize, 5, 9] {
        data[TRACE_HEADER_BYTES + index * TRACE_RECORD_BYTES] = 0xee;
    }
    let mut reader =
        TraceReader::with_policy(&data[..], RecoveryPolicy::SkipRecord { max_skips: 10 })
            .unwrap();
    let good = reader.by_ref().filter(|r| r.is_ok()).count();
    assert_eq!(good, base_trace().len() - 3);
    assert_eq!(reader.records_skipped(), 3);
    assert_eq!(reader.declared_records(), base_trace().len() as u64);
    assert!(!reader.truncated());
}

#[test]
fn random_body_flips_are_absorbed_by_the_truncate_policy() {
    let pristine = encoded();
    for seed in 1000..1100u64 {
        let mut data = pristine.clone();
        let mut inj = FaultInjector::new(seed);
        // Pile up three independent flips to stress multi-error input.
        for _ in 0..3 {
            inj.byte_flip(data.len()).apply(&mut data);
        }
        match read_trace_with(&data[..], RecoveryPolicy::TruncateAtError) {
            Ok(records) => assert!(records.len() <= base_trace().len()),
            Err(e) => assert!(is_header_error(&e), "seed {seed}: {e}"),
        }
    }
}

/// The decoder's block: the records one `fill_block` call asks for in
/// `nls replay`, and the frames one read takes.
const BLOCK: usize = 4096;
/// Three full blocks and a partial fourth.
const LONG_LEN: usize = 3 * BLOCK + 1000;

/// A trace long enough that decoding crosses three block boundaries.
fn long_trace() -> Vec<TraceRecord> {
    let li = BenchProfile::li();
    trace_for(&li, &GenConfig::for_profile(&li), 28, LONG_LEN)
}

/// A byte source that hands out `data` in reads of 1–17 bytes (when
/// `choppy` holds a stream), answers some reads with `Interrupted`,
/// and fails every read from byte `fail_at` on.
struct Source {
    data: Vec<u8>,
    at: usize,
    fail_at: Option<usize>,
    choppy: Option<Rng>,
}

impl Read for Source {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(rng) = &mut self.choppy {
            if rng.chance(0.1) {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "try again"));
            }
        }
        let end = self.fail_at.unwrap_or(usize::MAX).min(self.data.len());
        if self.at >= end && self.fail_at.is_some_and(|f| f < self.data.len()) {
            return Err(io::Error::other("the disk went away"));
        }
        let mut n = buf.len().min(end - self.at);
        if let Some(rng) = &mut self.choppy {
            n = n.min(rng.int(1..=17) as usize);
        }
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// How a decode ended, with the fields each error must get right.
#[derive(Debug, PartialEq)]
enum End {
    Clean,
    Io,
    BadRecord(u64),
    TruncatedBody { read: u64, declared: u64 },
    TooCorrupt { skipped: u64, limit: u64 },
    Other(String),
}

impl From<TraceFileError> for End {
    fn from(e: TraceFileError) -> Self {
        match e {
            TraceFileError::Io(_) => End::Io,
            TraceFileError::BadRecord { index, .. } => End::BadRecord(index),
            TraceFileError::TruncatedBody { read, declared } => {
                End::TruncatedBody { read, declared }
            }
            TraceFileError::TooCorrupt { skipped, limit } => End::TooCorrupt { skipped, limit },
            other => End::Other(other.to_string()),
        }
    }
}

/// Everything a decode shows: the records, the recovery counters and
/// how it ended.
#[derive(Debug, PartialEq)]
struct Decoded {
    records: Vec<TraceRecord>,
    skipped: u64,
    truncated: bool,
    end: End,
}

/// The reference: the source's bytes judged one whole frame at a time,
/// as a reader that reads each frame on its own would. The source holds
/// `trace` with some kind tags made invalid, so a frame is corrupt
/// exactly when its tag is out of range, and decodes to `trace`'s
/// record otherwise.
fn reference(src: &Source, trace: &[TraceRecord], policy: RecoveryPolicy) -> Decoded {
    let data = &src.data;
    let declared = u64::from_le_bytes(data[8..16].try_into().unwrap());
    let failed = src.fail_at.is_some_and(|f| f < data.len());
    let avail = src.fail_at.unwrap_or(usize::MAX).min(data.len());
    let mut out =
        Decoded { records: Vec::new(), skipped: 0, truncated: false, end: End::Clean };
    for i in 0..declared {
        let start = TRACE_HEADER_BYTES + i as usize * TRACE_RECORD_BYTES;
        let Some(frame) = data
            .get(start..start + TRACE_RECORD_BYTES)
            .filter(|_| start + TRACE_RECORD_BYTES <= avail)
        else {
            out.end = match (failed, policy) {
                (true, _) => End::Io,
                (false, RecoveryPolicy::TruncateAtError) => {
                    out.truncated = true;
                    End::Clean
                }
                (false, _) => End::TruncatedBody { read: i, declared },
            };
            return out;
        };
        if frame[0] <= 5 {
            out.records.push(trace[i as usize]);
            continue;
        }
        match policy {
            RecoveryPolicy::Fail => {
                out.end = End::BadRecord(i);
                return out;
            }
            RecoveryPolicy::TruncateAtError => {
                out.truncated = true;
                return out;
            }
            RecoveryPolicy::SkipRecord { max_skips } => {
                out.skipped += 1;
                if out.skipped > max_skips {
                    out.end = End::TooCorrupt { skipped: out.skipped, limit: max_skips };
                    return out;
                }
            }
        }
    }
    out
}

/// Decodes `src` under `policy` through `fill_block` calls of `want`
/// records.
fn by_blocks(src: Source, policy: RecoveryPolicy, want: usize) -> Decoded {
    let mut reader = TraceReader::with_policy(src, policy).unwrap();
    let mut records = Vec::new();
    let mut block = Vec::new();
    let end = loop {
        match reader.fill_block(&mut block, want) {
            Ok(0) => break End::Clean,
            Ok(n) => {
                assert_eq!(n, block.len());
                records.extend_from_slice(&block);
            }
            Err(e) => {
                assert!(block.is_empty(), "an error comes with no records");
                break e.into();
            }
        }
    };
    // The stream stays ended.
    assert!(matches!(reader.fill_block(&mut block, want), Ok(0)));
    Decoded { records, skipped: reader.records_skipped(), truncated: reader.truncated(), end }
}

/// Decodes `src` under `policy` through the iterator view.
fn by_records(src: Source, policy: RecoveryPolicy) -> Decoded {
    let mut reader = TraceReader::with_policy(src, policy).unwrap();
    let mut records = Vec::new();
    let mut end = End::Clean;
    for r in reader.by_ref() {
        match r {
            Ok(r) => records.push(r),
            Err(e) => {
                end = e.into();
                break;
            }
        }
    }
    assert!(reader.next().is_none(), "the stream stays ended");
    Decoded { records, skipped: reader.records_skipped(), truncated: reader.truncated(), end }
}

/// Asserts that `got` equals `want`, naming the first record that
/// differs rather than printing them all.
fn assert_same(got: Decoded, want: &Decoded, why: &str) {
    let differs = got.records.iter().zip(&want.records).position(|(g, w)| g != w);
    assert_eq!(differs, None, "first record that differs: {why}");
    assert_eq!(got.records.len(), want.records.len(), "records: {why}");
    assert_eq!(got.skipped, want.skipped, "records skipped: {why}");
    assert_eq!(got.truncated, want.truncated, "truncated: {why}");
    assert_eq!(got.end, want.end, "end: {why}");
}

#[test]
fn block_decoding_matches_a_frame_at_a_time_reference_across_block_boundaries() {
    let trace = long_trace();
    let mut pristine = Vec::new();
    write_trace(&mut pristine, trace.iter().copied()).unwrap();
    let frame_at = |i: usize| TRACE_HEADER_BYTES + i * TRACE_RECORD_BYTES;
    let last = LONG_LEN - 1;
    let boundaries = [BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, last];

    // (corrupt frames, bytes kept, failing byte, choppy reads)
    type Case = (Vec<usize>, usize, Option<usize>, bool);
    let mut cases: Vec<Case> = Vec::new();
    for &f in &boundaries {
        cases.push((vec![f], pristine.len(), None, false));
    }
    cases.push((boundaries.to_vec(), pristine.len(), None, false));
    cases.push((boundaries.to_vec(), pristine.len(), None, true));
    // A body cut at each byte of the frames on either side of the first
    // two block boundaries, and of the frame that straddles the end of
    // a `BufReader`'s first 8 KiB; at odd bytes the frame before the
    // cut is corrupt too.
    for f in [454, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK] {
        for byte in 0..TRACE_RECORD_BYTES {
            let corrupt = if byte % 2 == 1 { vec![f - 1] } else { Vec::new() };
            cases.push((corrupt, frame_at(f) + byte, None, f == BLOCK));
        }
    }
    // Seeded cases: random corrupt frames, mostly in the second block,
    // and a source that fails partway into it or reads in small pieces.
    let mut rng = Rng::new(0xb10c);
    for _ in 0..24 {
        let mut corrupt: Vec<usize> = (0..rng.int(0..=6))
            .map(|_| rng.int(BLOCK as u64 - 8..=2 * BLOCK as u64) as usize)
            .collect();
        if rng.chance(0.3) {
            corrupt.push(rng.int(0..=last as u64) as usize);
        }
        let fail_at = rng.chance(0.7).then(|| {
            let f = rng.int(BLOCK as u64..=2 * BLOCK as u64) as usize;
            frame_at(f) + if rng.chance(0.5) { 0 } else { rng.int(1..=17) as usize }
        });
        cases.push((corrupt, pristine.len(), fail_at, rng.chance(0.3)));
    }

    let policies = [
        RecoveryPolicy::Fail,
        RecoveryPolicy::TruncateAtError,
        RecoveryPolicy::SkipRecord { max_skips: 0 },
        RecoveryPolicy::SkipRecord { max_skips: 1 },
        RecoveryPolicy::SkipRecord { max_skips: 2 },
        RecoveryPolicy::SkipRecord { max_skips: 4 },
        RecoveryPolicy::SkipRecord { max_skips: u64::MAX },
    ];
    for (i, (corrupt, keep, fail_at, choppy)) in cases.into_iter().enumerate() {
        let mut data = pristine[..keep].to_vec();
        for &f in &corrupt {
            if let Some(tag) = data.get_mut(frame_at(f)) {
                *tag = 0xee;
            }
        }
        let source = |salt: u64| Source {
            data: data.clone(),
            at: 0,
            fail_at,
            choppy: choppy.then(|| Rng::new(i as u64 * 31 + salt)),
        };
        for policy in policies {
            let want = reference(&source(0), &trace, policy);
            let why = format!(
                "case {i} ({corrupt:?}, {keep} bytes, fail at {fail_at:?}), {policy:?}"
            );
            assert_same(
                by_blocks(source(1), policy, BLOCK),
                &want,
                &format!("blocks of {BLOCK}: {why}"),
            );
            assert_same(
                by_blocks(source(2), policy, 1000),
                &want,
                &format!("blocks of 1000: {why}"),
            );
            assert_same(by_records(source(3), policy), &want, &format!("records: {why}"));
        }
    }
}
