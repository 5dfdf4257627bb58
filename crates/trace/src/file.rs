//! Binary trace file I/O.
//!
//! The paper used ATOM to instrument programs on the fly rather than
//! storing traces. For users who *do* have address traces (from
//! their own instrumentation), this module defines a compact binary
//! format so recorded traces can be replayed through the simulator:
//!
//! ```text
//! magic "NLST" | u32 version | u64 record count | records...
//! record: u8 kind-tag | u8 taken | u64 pc | u64 target   (little endian)
//! ```
//!
//! # Streaming and fault tolerance
//!
//! Production replay runs live or die on long ingestion of huge
//! address streams, so the primary interface is *streaming*:
//!
//! * [`TraceReader::fill_block`] decodes a block of records at a
//!   time into a caller's buffer. The reader reads fixed-size frames
//!   ahead in one go into a reused byte buffer of at most 4096 frames
//!   and the frames the header has left (never sized by the header's
//!   claimed count alone), and checks each frame as a record is asked
//!   for. The reader is also an iterator of
//!   `Result<TraceRecord, TraceFileError>`, the one-record case of the
//!   same decoder. A configurable [`RecoveryPolicy`] decides, frame by
//!   frame, whether a corrupt frame fails the stream, is skipped (up
//!   to a bound), or truncates the trace at the first error.
//! * [`TraceWriter`] streams records out through a buffered writer
//!   and back-patches the header count on [`TraceWriter::finish`],
//!   so the full record set is never materialised.
//! * [`write_trace_atomic`] additionally writes through a staging
//!   sibling file of its own, fsyncs, and renames into place
//!   ([`write_atomic`]'s protocol), so an interrupted generation never
//!   leaves a truncated-but-valid-looking file.
//!
//! [`read_trace`] and [`write_trace`] remain as convenience wrappers
//! for small traces and tests.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::addr::Addr;
use crate::record::{BreakKind, InstClass, TraceRecord};

const MAGIC: &[u8; 4] = b"NLST";
const VERSION: u32 = 1;

/// Size of the fixed file header (magic + version + record count).
pub const TRACE_HEADER_BYTES: usize = 16;
/// Size of one encoded record frame.
pub const TRACE_RECORD_BYTES: usize = 18;

/// Upper bound on the `Vec` preallocation made from the (untrusted)
/// header count, so a hostile 8-byte header cannot OOM the process.
const PREALLOC_RECORD_CAP: u64 = 1 << 20;

/// Errors produced when decoding a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the `NLST` magic.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u32),
    /// The header is truncated or claims an implausible record count.
    BadHeader(String),
    /// A record frame had an invalid kind tag or inconsistent fields.
    BadRecord {
        /// The frame's position in the body, counted from 0.
        index: u64,
        /// What is wrong with it.
        why: String,
    },
    /// The body ended before the header's record count: no policy but
    /// [`RecoveryPolicy::TruncateAtError`] can recover it, because
    /// there are no more bytes to skip to.
    TruncatedBody {
        /// Whole frames the body held.
        read: u64,
        /// The record count the header declared.
        declared: u64,
    },
    /// More corrupt records than [`RecoveryPolicy::SkipRecord`]
    /// allows.
    TooCorrupt {
        /// Corrupt records encountered (including the one over the
        /// limit).
        skipped: u64,
        /// The configured `max_skips` bound.
        limit: u64,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "i/o error: {e}"),
            TraceFileError::BadMagic(m) => write!(f, "bad magic {m:?}, expected \"NLST\""),
            TraceFileError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceFileError::BadHeader(why) => write!(f, "malformed header: {why}"),
            TraceFileError::BadRecord { index, why } => {
                write!(f, "malformed record {index}: {why}")
            }
            TraceFileError::TruncatedBody { read, declared } => {
                write!(f, "body truncated after {read} of {declared} records")
            }
            TraceFileError::TooCorrupt { skipped, limit } => {
                write!(f, "{skipped} corrupt records exceed the skip limit of {limit}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// What a [`TraceReader`] does when it hits a corrupt record frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Yield the error and end the stream (the default).
    #[default]
    Fail,
    /// Drop the corrupt frame and continue with the next one, up to
    /// `max_skips` frames; one more fails the stream with
    /// [`TraceFileError::TooCorrupt`]. Frames are fixed-size, so
    /// alignment is preserved across skips.
    SkipRecord {
        /// Maximum corrupt frames to drop before giving up.
        max_skips: u64,
    },
    /// End the stream cleanly at the first corrupt or truncated
    /// frame, keeping everything decoded so far.
    TruncateAtError,
}

fn kind_tag(class: InstClass) -> u8 {
    match class {
        InstClass::Sequential => 0,
        InstClass::Break(BreakKind::Conditional) => 1,
        InstClass::Break(BreakKind::Unconditional) => 2,
        InstClass::Break(BreakKind::IndirectJump) => 3,
        InstClass::Break(BreakKind::Call) => 4,
        InstClass::Break(BreakKind::Return) => 5,
    }
}

fn tag_kind(tag: u8) -> Result<InstClass, String> {
    Ok(match tag {
        0 => InstClass::Sequential,
        1 => InstClass::Break(BreakKind::Conditional),
        2 => InstClass::Break(BreakKind::Unconditional),
        3 => InstClass::Break(BreakKind::IndirectJump),
        4 => InstClass::Break(BreakKind::Call),
        5 => InstClass::Break(BreakKind::Return),
        t => return Err(format!("kind tag {t}")),
    })
}

fn encode_record(r: &TraceRecord) -> [u8; TRACE_RECORD_BYTES] {
    let mut frame = [0u8; TRACE_RECORD_BYTES];
    frame[0] = kind_tag(r.class);
    frame[1] = u8::from(r.taken);
    frame[2..10].copy_from_slice(&r.pc.as_u64().to_le_bytes());
    frame[10..18].copy_from_slice(&r.target.as_u64().to_le_bytes());
    frame
}

/// Checks and decodes one frame, or says what is wrong with it.
/// Inlined into the generic `fill_block`, which is compiled in the
/// caller's crate: otherwise every frame costs a call.
#[inline]
fn decode_record(frame: &[u8; TRACE_RECORD_BYTES]) -> Result<TraceRecord, String> {
    // Full array destructuring: the frame layout is checked by the
    // compiler, so decoding has no panic path at all.
    let [tag, taken, p0, p1, p2, p3, p4, p5, p6, p7, t0, t1, t2, t3, t4, t5, t6, t7] = *frame;
    let class = tag_kind(tag)?;
    let taken = taken != 0;
    let pc = u64::from_le_bytes([p0, p1, p2, p3, p4, p5, p6, p7]);
    let target = u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7]);
    if pc % 4 != 0 || target % 4 != 0 {
        return Err(format!("misaligned pc {pc:#x}"));
    }
    Ok(match class {
        InstClass::Sequential => TraceRecord::sequential(Addr::new(pc)),
        InstClass::Break(kind) => {
            if !taken && kind != BreakKind::Conditional {
                return Err("not-taken non-conditional break".into());
            }
            TraceRecord::branch(Addr::new(pc), kind, taken, Addr::new(target))
        }
    })
}

/// Frames one read takes from the source: the decoder's read-ahead,
/// and so the bound on its byte buffer (72 KiB). It equals the drive
/// loop's block (`nls_core::BLOCK_RECORDS`), so decoding a block of
/// intact frames takes one read.
const READ_FRAMES: usize = 4096;

/// A streaming `NLST` decoder.
///
/// [`fill_block`] decodes the next block of records into a caller's
/// buffer. The reader reads frames ahead in one go, up to 4096 at a
/// time, into a byte buffer it reuses, and judges each frame under its
/// [`RecoveryPolicy`] only as a record is asked for. The reader is
/// also an iterator of `Result<TraceRecord, TraceFileError>`: each
/// item is a one-record [`fill_block`], so both views share one
/// framing and one policy.
///
/// The header is validated on construction; records are decoded
/// lazily, and the byte buffer holds at most one read of the frames
/// the header has left, so a hostile header count can never force a
/// large allocation. After decoding, [`records_skipped`] and
/// [`truncated`] report how much recovery the policy performed.
///
/// [`fill_block`]: TraceReader::fill_block
/// [`records_skipped`]: TraceReader::records_skipped
/// [`truncated`]: TraceReader::truncated
///
/// # Examples
///
/// ```
/// use nls_trace::{write_trace, Addr, RecoveryPolicy, TraceReader, TraceRecord};
///
/// let mut buf = Vec::new();
/// write_trace(&mut buf, vec![TraceRecord::sequential(Addr::new(0x100)); 3]).unwrap();
/// let mut reader = TraceReader::with_policy(&buf[..], RecoveryPolicy::Fail).unwrap();
/// let mut block = Vec::new();
/// assert_eq!(reader.fill_block(&mut block, 2).unwrap(), 2);
/// assert_eq!(reader.fill_block(&mut block, 2).unwrap(), 1);
/// assert_eq!(reader.fill_block(&mut block, 2).unwrap(), 0);
///
/// let reader = TraceReader::with_policy(&buf[..], RecoveryPolicy::Fail).unwrap();
/// let records: Result<Vec<_>, _> = reader.collect();
/// assert_eq!(records.unwrap().len(), 3);
/// ```
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    policy: RecoveryPolicy,
    declared: u64,
    /// Whole frames taken from the source so far; never more than
    /// `declared`.
    read: u64,
    skipped: u64,
    truncated: bool,
    done: bool,
    /// The whole frames of the last read.
    frames: Vec<u8>,
    /// Frames of `frames` already judged.
    judged: usize,
    /// How the last read ended short of the frames it asked for: at
    /// the end of the source (`Some(None)`) or on an I/O error. It
    /// takes effect once every frame before it has been judged.
    cut: Option<Option<io::Error>>,
}

impl<R: Read> TraceReader<R> {
    /// Opens a reader with the [`RecoveryPolicy::Fail`] policy.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a truncated header, bad magic, an
    /// unsupported version, or an implausible record count.
    pub fn new(src: R) -> Result<Self, TraceFileError> {
        Self::with_policy(src, RecoveryPolicy::Fail)
    }

    /// Opens a reader with an explicit recovery policy.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a truncated header, bad magic, an
    /// unsupported version, or an implausible record count. Header
    /// errors are never recoverable: without a trusted frame origin
    /// there is nothing to resynchronise on.
    pub fn with_policy(mut src: R, policy: RecoveryPolicy) -> Result<Self, TraceFileError> {
        let mut header = [0u8; TRACE_HEADER_BYTES];
        src.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                TraceFileError::BadHeader("truncated header".into())
            } else {
                TraceFileError::Io(e)
            }
        })?;
        // Destructure the fixed header layout outright: no slicing,
        // no conversion that could ever panic.
        let [m0, m1, m2, m3, v0, v1, v2, v3, c0, c1, c2, c3, c4, c5, c6, c7] = header;
        let magic = [m0, m1, m2, m3];
        if &magic != MAGIC {
            return Err(TraceFileError::BadMagic(magic));
        }
        let version = u32::from_le_bytes([v0, v1, v2, v3]);
        if version != VERSION {
            return Err(TraceFileError::BadVersion(version));
        }
        let declared = u64::from_le_bytes([c0, c1, c2, c3, c4, c5, c6, c7]);
        // The body length is `declared * TRACE_RECORD_BYTES`; a count
        // that overflows that product can never describe real data.
        if declared.checked_mul(TRACE_RECORD_BYTES as u64).is_none() {
            return Err(TraceFileError::BadHeader(format!(
                "implausible record count {declared}"
            )));
        }
        Ok(TraceReader {
            src,
            policy,
            declared,
            read: 0,
            skipped: 0,
            truncated: false,
            done: false,
            frames: Vec::new(),
            judged: 0,
            cut: None,
        })
    }

    /// The record count claimed by the header (untrusted until the
    /// stream has been fully consumed).
    pub fn declared_records(&self) -> u64 {
        self.declared
    }

    /// Corrupt frames dropped so far under
    /// [`RecoveryPolicy::SkipRecord`].
    pub fn records_skipped(&self) -> u64 {
        self.skipped
    }

    /// Whether [`RecoveryPolicy::TruncateAtError`] cut the stream
    /// short of the declared count.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The active recovery policy.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Overwrites `block` with the next `want` records and returns how
    /// many it holds: fewer only where the stream ends, and 0 once it
    /// has ended. The policy judges the frames in order, and a frame it
    /// skips is made up by the next one.
    ///
    /// # Errors
    ///
    /// The error that ends the stream: an I/O failure, a corrupt frame
    /// under [`RecoveryPolicy::Fail`], one skip over the limit, or a
    /// body shorter than the header's count under any policy but
    /// [`RecoveryPolicy::TruncateAtError`]. Records decoded before it
    /// come first: the call that reaches the error returns them, and
    /// the next call returns the error with an empty `block`.
    pub fn fill_block(
        &mut self,
        block: &mut Vec<TraceRecord>,
        want: usize,
    ) -> Result<usize, TraceFileError> {
        block.clear();
        while !self.done && block.len() < want {
            let ahead = self.frames.as_chunks().0.get(self.judged..).unwrap_or_default();
            if ahead.is_empty() {
                if self.cut.is_none() {
                    self.read_ahead();
                    continue;
                }
                // The source cut the body short here: the records
                // before the cut go out first.
                if !block.is_empty() {
                    break;
                }
                return self.end_at_cut();
            }
            let take = ahead.len().min(want - block.len());
            block.reserve(take);
            for (k, frame) in ahead.iter().take(take).enumerate() {
                let why = match decode_record(frame) {
                    Ok(r) => {
                        block.push(r);
                        continue;
                    }
                    Err(why) => why,
                };
                match self.policy {
                    RecoveryPolicy::SkipRecord { max_skips } if self.skipped < max_skips => {
                        self.skipped += 1;
                        continue;
                    }
                    RecoveryPolicy::TruncateAtError => {
                        self.done = true;
                        self.truncated = true;
                        return Ok(block.len());
                    }
                    _ => {}
                }
                // The frame ends the stream with an error. The records
                // before it go out first; the next call judges it
                // again and returns the error.
                self.judged += k;
                if !block.is_empty() {
                    return Ok(block.len());
                }
                self.done = true;
                return Err(match self.policy {
                    RecoveryPolicy::SkipRecord { max_skips } => {
                        self.skipped += 1;
                        TraceFileError::TooCorrupt { skipped: self.skipped, limit: max_skips }
                    }
                    // The frames read, less those not yet judged.
                    _ => TraceFileError::BadRecord {
                        index: self.read - (ahead.len() - k) as u64,
                        why,
                    },
                });
            }
            self.judged += take;
        }
        Ok(block.len())
    }

    /// Replaces the judged frames with up to [`READ_FRAMES`] more of
    /// the ones the header has left, and notes where the source cut
    /// the read short; ends the stream when none are left.
    fn read_ahead(&mut self) {
        let left = usize::try_from(self.declared - self.read).unwrap_or(usize::MAX);
        let len = left.min(READ_FRAMES) * TRACE_RECORD_BYTES;
        if len == 0 {
            self.done = true;
            return;
        }
        self.frames.resize(len, 0);
        let (got, failed) = read_full(&mut self.src, &mut self.frames);
        let whole = got / TRACE_RECORD_BYTES;
        self.frames.truncate(whole * TRACE_RECORD_BYTES);
        self.read += whole as u64;
        self.judged = 0;
        if got < len {
            self.cut = Some(failed);
        }
    }

    /// Ends the stream where the source cut it: on the I/O error, or at
    /// the end of a body shorter than the header's count, which only
    /// [`RecoveryPolicy::TruncateAtError`] absorbs — skipping cannot
    /// help, there are no more bytes.
    fn end_at_cut(&mut self) -> Result<usize, TraceFileError> {
        self.done = true;
        match self.cut.take().flatten() {
            Some(e) => Err(TraceFileError::Io(e)),
            None if self.policy == RecoveryPolicy::TruncateAtError => {
                self.truncated = true;
                Ok(0)
            }
            None => {
                Err(TraceFileError::TruncatedBody { read: self.read, declared: self.declared })
            }
        }
    }
}

/// Reads into `buf` until it is full, the source ends or a read fails,
/// and returns the bytes that arrived, with the failure. This is
/// `read_exact`'s loop: a short read or an `Interrupted` error reads
/// on, and a source's `UnexpectedEof` error counts as its end.
fn read_full(src: &mut impl Read, buf: &mut [u8]) -> (usize, Option<io::Error>) {
    let mut got = 0;
    while let Some(rest) = buf.get_mut(got..).filter(|rest| !rest.is_empty()) {
        match src.read(rest) {
            Ok(0) => break,
            Ok(n) => got += n.min(rest.len()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return (got, Some(e)),
        }
    }
    (got, None)
}

impl TraceReader<io::BufReader<File>> {
    /// Opens a trace file from disk under `policy`, buffered.
    ///
    /// This is the supported way to get trace bytes off a path:
    /// callers outside `crates/trace` must not open trace files
    /// themselves (enforced by `nls-lint`'s `fs-trace-read` rule),
    /// so corruption always flows through the recovery layer.
    ///
    /// # Errors
    ///
    /// Fails with [`TraceFileError::Io`] (naming the path) when the
    /// file cannot be opened, or any header error from
    /// [`TraceReader::with_policy`].
    pub fn open<P: AsRef<Path>>(
        path: P,
        policy: RecoveryPolicy,
    ) -> Result<Self, TraceFileError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| {
            TraceFileError::Io(io::Error::new(
                e.kind(),
                format!("cannot open {}: {e}", path.display()),
            ))
        })?;
        Self::with_policy(io::BufReader::new(file), policy)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceFileError>;

    fn next(&mut self) -> Option<Self::Item> {
        // An intact frame already read is what a one-record
        // `fill_block` returns; only the rest needs a block.
        let ahead = self.frames.as_chunks().0.get(self.judged).filter(|_| !self.done);
        if let Some(Ok(r)) = ahead.map(decode_record) {
            self.judged += 1;
            return Some(Ok(r));
        }
        let mut one = Vec::new();
        match self.fill_block(&mut one, 1) {
            Ok(_) => one.pop().map(Ok),
            Err(e) => Some(Err(e)),
        }
    }
}

/// A streaming `NLST` encoder over any seekable writer.
///
/// Records are buffered through a [`BufWriter`] and the header's
/// record count is back-patched by [`finish`], so arbitrarily long
/// traces are written in bounded memory.
///
/// [`finish`]: TraceWriter::finish
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    dst: BufWriter<W>,
    written: u64,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Starts a trace stream on `w`, writing a header with a
    /// placeholder count of zero.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn new(w: W) -> Result<Self, TraceFileError> {
        let mut dst = BufWriter::new(w);
        dst.write_all(MAGIC)?;
        dst.write_all(&VERSION.to_le_bytes())?;
        dst.write_all(&0u64.to_le_bytes())?;
        Ok(TraceWriter { dst, written: 0 })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write(&mut self, r: &TraceRecord) -> Result<(), TraceFileError> {
        self.dst.write_all(&encode_record(r))?;
        self.written += 1;
        Ok(())
    }

    /// Appends every record from an iterator; returns how many were
    /// written by this call.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_records<I>(&mut self, records: I) -> Result<u64, TraceFileError>
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        let before = self.written;
        for r in records {
            self.write(&r)?;
        }
        Ok(self.written - before)
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.written
    }

    /// Flushes, back-patches the header count, and returns the inner
    /// writer plus the total record count. Until this runs, the file
    /// reads as an empty trace — a half-written stream is never
    /// mistaken for a complete one.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn finish(mut self) -> Result<(W, u64), TraceFileError> {
        self.dst.seek(SeekFrom::Start(8))?;
        self.dst.write_all(&self.written.to_le_bytes())?;
        self.dst.flush()?;
        let w = self.dst.into_inner().map_err(|e| TraceFileError::Io(e.into_error()))?;
        Ok((w, self.written))
    }
}

/// Writes `records` to `w` in the `NLST` binary format. Pass a
/// `&mut` reference if you need the writer back.
///
/// Buffers the encoded body in memory (the writer need not be
/// seekable); use [`TraceWriter`] or [`write_trace_atomic`] for
/// bounded-memory streaming.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_trace<W: Write, I>(mut w: W, records: I) -> Result<u64, TraceFileError>
where
    I: IntoIterator<Item = TraceRecord>,
{
    let mut body = Vec::new();
    let mut n: u64 = 0;
    for r in records {
        body.extend_from_slice(&encode_record(&r));
        n += 1;
    }
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&n.to_le_bytes())?;
    w.write_all(&body)?;
    Ok(n)
}

/// Streams `records` into the file at `path` crash-safely: the
/// trace is written through a [`TraceWriter`] to a staging sibling,
/// fsynced, and atomically renamed into place, by the protocol of
/// [`write_atomic`]. An interrupted generation leaves either the old
/// file or no file — never a truncated-but-valid-looking trace — and
/// concurrent writers to one path each replace it whole.
///
/// # Errors
///
/// Returns any underlying I/O error; the staging file is removed on
/// failure.
pub fn write_trace_atomic<P, I>(path: P, records: I) -> Result<u64, TraceFileError>
where
    P: AsRef<Path>,
    I: IntoIterator<Item = TraceRecord>,
{
    replace_atomic(path.as_ref(), |file| {
        let mut w = TraceWriter::new(file)?;
        w.write_records(records)?;
        Ok(w.finish()?.1)
    })
}

/// Replaces the file at `path` with `text` crash-safely: the one
/// durable-write protocol of the workspace (trace files, the work
/// ledger's snapshots, the service's job files and result cache, the
/// bench results). The text goes to a staging sibling named for this
/// writer alone (`<path>.<pid>.<sequence>.tmp`), which is fsynced and
/// renamed over the target before the parent directory is fsynced, so
/// the rename itself is durable. Concurrent writers to one path,
/// threads or processes, never share a staging file: none can rename
/// another's away, and the target always holds one whole write (the
/// last rename's).
///
/// # Errors
///
/// Any I/O failure along that sequence; the staging file is removed
/// on error, and the target is untouched unless the rename landed.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    replace_atomic(path, |file| file.write_all(text.as_bytes()))
}

/// The protocol of [`write_atomic`], with `write` filling the staging
/// file.
fn replace_atomic<T, E: From<io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<T, E>,
) -> Result<T, E> {
    static TMP_SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQUENCE.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let staged = (|| -> Result<T, E> {
        let mut file = File::create(&tmp)?;
        let written = write(&mut file)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
        Ok(written)
    })();
    if staged.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    staged
}

/// Fsyncs the directory containing `path`, making a just-performed
/// rename of `path` durable. A path with no parent component syncs
/// the current directory (`.`), where the rename landed.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Reads a complete `NLST` trace from `r` with the strict
/// [`RecoveryPolicy::Fail`] policy. Pass a `&mut` reference if you
/// need the reader back.
///
/// # Errors
///
/// Returns [`TraceFileError`] on I/O failure, bad magic/version, or
/// malformed records (unknown kind tag, misaligned address, or a
/// not-taken non-conditional break).
pub fn read_trace<R: Read>(r: R) -> Result<Vec<TraceRecord>, TraceFileError> {
    read_trace_with(r, RecoveryPolicy::Fail)
}

/// Reads a complete `NLST` trace from `r` under `policy`, collecting
/// into a `Vec`. The preallocation is capped independently of the
/// header's claimed count, so hostile headers cannot OOM the
/// process.
///
/// # Errors
///
/// Returns [`TraceFileError`] on I/O failure, header corruption, or
/// any record error the policy does not absorb.
pub fn read_trace_with<R: Read>(
    r: R,
    policy: RecoveryPolicy,
) -> Result<Vec<TraceRecord>, TraceFileError> {
    let reader = TraceReader::with_policy(r, policy)?;
    let mut out =
        Vec::with_capacity(reader.declared_records().min(PREALLOC_RECORD_CAP) as usize);
    for rec in reader {
        out.push(rec?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::sequential(Addr::new(0x100)),
            TraceRecord::branch(
                Addr::new(0x104),
                BreakKind::Conditional,
                false,
                Addr::new(0x200),
            ),
            TraceRecord::branch(Addr::new(0x108), BreakKind::Call, true, Addr::new(0x400)),
            TraceRecord::branch(Addr::new(0x400), BreakKind::Return, true, Addr::new(0x10c)),
            TraceRecord::branch(
                Addr::new(0x10c),
                BreakKind::IndirectJump,
                true,
                Addr::new(0x300),
            ),
        ]
    }

    fn encoded_sample() -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(&mut buf, sample()).unwrap();
        buf
    }

    #[test]
    fn round_trip() {
        let buf = encoded_sample();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = encoded_sample();
        buf[0] = b'X';
        assert!(matches!(read_trace(&buf[..]), Err(TraceFileError::BadMagic(_))));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = encoded_sample();
        buf[4] = 99;
        assert!(matches!(read_trace(&buf[..]), Err(TraceFileError::BadVersion(99))));
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = encoded_sample();
        buf.truncate(buf.len() - 1);
        assert!(matches!(
            read_trace(&buf[..]),
            Err(TraceFileError::TruncatedBody { read: 4, declared: 5 })
        ));
    }

    #[test]
    fn rejects_truncated_header() {
        let buf = encoded_sample();
        assert!(matches!(
            read_trace(&buf[..TRACE_HEADER_BYTES - 1]),
            Err(TraceFileError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_bad_kind_tag() {
        let mut buf = encoded_sample();
        buf[TRACE_HEADER_BYTES] = 42; // first record's kind tag
        assert!(matches!(
            read_trace(&buf[..]),
            Err(TraceFileError::BadRecord { index: 0, .. })
        ));
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, Vec::new()).unwrap();
        assert!(read_trace(&buf[..]).unwrap().is_empty());
    }

    #[test]
    fn hostile_count_does_not_allocate() {
        // A header claiming u64::MAX records must be rejected before
        // any allocation is attempted.
        let mut buf = encoded_sample();
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_trace(&buf[..]), Err(TraceFileError::BadHeader(_))));

        // A large-but-not-overflowing count streams and then fails on
        // the missing body instead of preallocating.
        let mut buf = encoded_sample();
        buf[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(read_trace(&buf[..]), Err(TraceFileError::TruncatedBody { .. })));
    }

    #[test]
    fn the_frame_buffer_holds_at_most_one_block_of_the_frames_left() {
        const BLOCK: usize = 4096;
        let mut block = Vec::new();
        // A header claiming 2^40 records gets one block's buffer.
        let mut buf = encoded_sample();
        buf[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        buf.extend(
            std::iter::repeat_n(encoded_sample()[TRACE_HEADER_BYTES..].to_vec(), 2000)
                .flatten(),
        );
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        assert_eq!(reader.fill_block(&mut block, BLOCK).unwrap(), BLOCK);
        assert_eq!(reader.frames.capacity(), BLOCK * TRACE_RECORD_BYTES);
        // Five declared records get five frames' buffer, however many
        // the call asks for.
        let buf = encoded_sample();
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        assert_eq!(reader.fill_block(&mut block, BLOCK).unwrap(), 5);
        assert_eq!(reader.frames.capacity(), 5 * TRACE_RECORD_BYTES);
        assert_eq!(reader.fill_block(&mut block, BLOCK).unwrap(), 0);
    }

    #[test]
    fn skip_policy_drops_corrupt_frames() {
        let mut buf = encoded_sample();
        buf[TRACE_HEADER_BYTES] = 42; // corrupt the first record only
        let reader =
            TraceReader::with_policy(&buf[..], RecoveryPolicy::SkipRecord { max_skips: 3 })
                .unwrap();
        let records: Vec<_> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(records, sample()[1..].to_vec());
    }

    #[test]
    fn skip_policy_bounds_corruption() {
        let mut buf = encoded_sample();
        for i in 0..3 {
            buf[TRACE_HEADER_BYTES + i * TRACE_RECORD_BYTES] = 42;
        }
        let out = read_trace_with(&buf[..], RecoveryPolicy::SkipRecord { max_skips: 2 });
        assert!(matches!(out, Err(TraceFileError::TooCorrupt { skipped: 3, limit: 2 })));
    }

    #[test]
    fn truncate_policy_keeps_good_prefix() {
        let mut buf = encoded_sample();
        buf[TRACE_HEADER_BYTES + 2 * TRACE_RECORD_BYTES] = 42; // third record
        let mut reader =
            TraceReader::with_policy(&buf[..], RecoveryPolicy::TruncateAtError).unwrap();
        let records: Vec<_> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(records, sample()[..2].to_vec());
        assert!(reader.truncated());
    }

    #[test]
    fn truncate_policy_absorbs_short_body() {
        let mut buf = encoded_sample();
        buf.truncate(buf.len() - 1);
        let records = read_trace_with(&buf[..], RecoveryPolicy::TruncateAtError).unwrap();
        assert_eq!(records, sample()[..4].to_vec());
    }

    #[test]
    fn reader_reports_declared_and_skipped() {
        let mut buf = encoded_sample();
        buf[TRACE_HEADER_BYTES] = 42;
        let mut reader =
            TraceReader::with_policy(&buf[..], RecoveryPolicy::SkipRecord { max_skips: 8 })
                .unwrap();
        assert_eq!(reader.declared_records(), 5);
        let n = reader.by_ref().filter(|r| r.is_ok()).count();
        assert_eq!(n, 4);
        assert_eq!(reader.records_skipped(), 1);
        assert!(!reader.truncated());
    }

    #[test]
    fn streaming_writer_round_trips() {
        let mut cursor = io::Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut cursor).unwrap();
        for r in sample() {
            w.write(&r).unwrap();
        }
        assert_eq!(w.records_written(), 5);
        let (_, n) = w.finish().unwrap();
        assert_eq!(n, 5);
        let buf = cursor.into_inner();
        assert_eq!(read_trace(&buf[..]).unwrap(), sample());
    }

    #[test]
    fn unfinished_stream_reads_as_empty() {
        // Without finish() the header still says zero records — a
        // crashed writer never yields a plausible-looking trace.
        let mut cursor = io::Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut cursor).unwrap();
        w.write(&TraceRecord::sequential(Addr::new(0x100))).unwrap();
        w.dst.flush().unwrap();
        drop(w);
        let buf = cursor.into_inner();
        assert!(read_trace(&buf[..]).unwrap().is_empty());
    }

    /// The files in `dir` other than `keep`: leftover staging files.
    fn others(dir: &Path, keep: &str) -> Vec<String> {
        let names = std::fs::read_dir(dir).unwrap();
        let names = names.map(|e| e.unwrap().file_name().into_string().unwrap());
        names.filter(|n| n != keep).collect()
    }

    #[test]
    fn atomic_write_round_trips_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("nls-file-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.nlst");
        let n = write_trace_atomic(&path, sample()).unwrap();
        assert_eq!(n, 5);
        let back = read_trace(File::open(&path).unwrap()).unwrap();
        assert_eq!(back, sample());
        assert!(
            others(&dir, "atomic.nlst").is_empty(),
            "the staging file must be renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn racing_writers_to_one_path_each_replace_the_trace_whole() {
        let dir = std::env::temp_dir().join(format!("nls-file-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("race.nlst");
        // Four writers of different lengths and addresses, so a trace
        // that mixed two of them could not equal any one.
        let traces: Vec<Vec<TraceRecord>> = (0..4u64)
            .map(|w| {
                let n = 2_000 + 500 * w;
                (0..n).map(|i| TraceRecord::sequential(Addr::new((w << 32) + 4 * i))).collect()
            })
            .collect();
        for round in 0..20 {
            std::thread::scope(|s| {
                for trace in &traces {
                    let path = &path;
                    s.spawn(move || match write_trace_atomic(path, trace.iter().copied()) {
                        Ok(n) => assert_eq!(n, trace.len() as u64),
                        Err(e) => panic!("round {round}: a racing write failed: {e}"),
                    });
                }
            });
            let back = read_trace(File::open(&path).unwrap()).unwrap();
            assert!(
                traces.contains(&back),
                "round {round}: the file is not one writer's trace"
            );
            assert!(
                others(&dir, "race.nlst").is_empty(),
                "round {round}: a staging file is left"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_parent_directory_sync_resolves_bare_names_and_reports_a_missing_parent() {
        sync_parent_dir(&std::env::temp_dir().join("any-name.nlst")).unwrap();
        sync_parent_dir(Path::new("bare-name.nlst")).unwrap();
        let missing = std::env::temp_dir().join("nls-no-such-subdir").join("t.nlst");
        assert!(sync_parent_dir(&missing).is_err(), "a missing parent must not be masked");
        assert!(write_atomic(&missing, "{}").is_err());
        assert!(write_trace_atomic(&missing, sample()).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceFileError::BadVersion(7);
        assert!(e.to_string().contains('7'));
        let e = TraceFileError::TooCorrupt { skipped: 9, limit: 8 };
        assert!(e.to_string().contains('9'));
    }
}
