//! The front end every engine fetches through, in two halves: one
//! for what a whole walk shares, one for what each cell's cache
//! decides.
//!
//! The simulator models correct-path fetch only (DESIGN.md §10):
//! every cell of a walk is fed the same records, so the run scan, a
//! PHT (read-only at prediction, trained on `r.taken` alone) and an
//! engine that never reads the cache are identical in every cell,
//! while the cache and the engines coupled to it differ by cell. The
//! front end computes each fact once, at the widest scope where it
//! holds.
//!
//! The *walk half* ([`WalkHalf`]), one per walk, passes over each
//! block before any cell steps it and computes:
//!
//! - one run scan per distinct line size: a break alone, or each
//!   record alone when an engine asks for every record, and each
//!   maximal run of sequential records on one cache line;
//! - each distinct PHT's direction at each break (at every record
//!   when an engine asks for every record), read once, then one
//!   training per conditional, after every reader;
//! - each distinct cache-free engine's outcome at each break, stepped
//!   once. The BTB is the one such engine: its actions are full
//!   addresses, return-stack pops and fall-throughs, never a cache
//!   pointer.
//!
//! The *cell half* ([`CellHalf`]), one per cell, holds the cell's
//! instruction cache, the engines coupled to it (NLS-table,
//! NLS-cache, Johnson) and one [`Counters`] per cache-free engine,
//! which adds up the walk's outcomes for the blocks the cell ran. Per
//! run, in this order:
//!
//! 1. one tag probe, skipped when the run is on the line this cell
//!    probed last ([`InstructionCache::access_last`]);
//! 2. on a miss, every engine's `refill`;
//! 3. after a break, every engine's `fetch`, which commits the
//!    predictor update that waited for the break's successor from the
//!    frame the successor was just fetched into;
//! 4. for a break, every engine's `resolve` against the read-only
//!    cache and the walk's PHT directions, and each cache-free
//!    engine's outcome added to the cell's counters.
//!
//! The cell reaches its engines through one `match` per hook on
//! [`Member`]. Every walk is a [`Cells`], built from engine specs by
//! one [`Builder`]: a sweep claim's several cells, or the one cell of
//! a [`Cell`], which [`EngineSpec::build`] makes of one spec alone.

use nls_icache::{CacheConfig, InstructionCache};
use nls_predictors::{BtbConfig, DirectionPredictor, LinePointer, Pht, ReturnStack};
use nls_trace::{Addr, BreakKind, TraceRecord};

use crate::btb_engine::BtbCore;
use crate::engine::{BreakOutcome, Counters, FetchEngine};
use crate::johnson_engine::JohnsonCore;
use crate::metrics::SimResult;
use crate::nls_cache_engine::NlsCacheCore;
use crate::nls_table_engine::NlsTableCore;
use crate::spec::{EngineSpec, PhtSpec};
use crate::supervisor::BLOCK_RECORDS;

/// The cache frame a record was fetched from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    /// Set (row) index.
    pub set: u32,
    /// Way within the set.
    pub way: u8,
}

impl Frame {
    /// The pointer to `pc`, whose line this frame was just fetched
    /// into on `cache`: what [`LinePointer::locate`] would find.
    pub(crate) fn pointer(self, pc: Addr, cache: &CacheConfig) -> LinePointer {
        LinePointer {
            set: self.set,
            way: self.way,
            inst: u8::try_from(pc.offset_in_line(cache.line_bytes)).unwrap_or(u8::MAX),
        }
    }
}

/// The direction the walk's PHT `pht` predicts, out of `dirs`, the
/// walk's directions at one record.
#[inline]
pub(crate) fn direction(dirs: &[bool], pht: usize) -> bool {
    dirs.get(pht).copied().unwrap_or(false)
}

/// Lines of a cache with geometry `cfg`.
pub(crate) fn cache_lines(cfg: &CacheConfig) -> u64 {
    cfg.size_bytes / cfg.line_bytes.max(1)
}

/// Approximate bytes of modeled cache state. The simulator keeps
/// tag/LRU bookkeeping per line (never the line data), so the
/// estimate is line count × a small constant — enough for a heap
/// budget to rank geometries, which is all it is used for.
pub(crate) fn cache_state_bytes(cfg: &CacheConfig) -> u64 {
    cache_lines(cfg) * 16
}

/// Approximate bytes of an engine's return stack: 8 B per slot of
/// the paper's stack, which every engine with one builds.
pub(crate) const RAS_BYTES: u64 = ReturnStack::PAPER_CAPACITY as u64 * 8;

/// Entries of PHT `i` (one saturating counter, one byte, each).
pub(crate) fn pht_entries(phts: &[Pht], i: usize) -> usize {
    phts.get(i).map_or(0, Pht::entries)
}

/// The shift from an address to its line number on `cache`.
fn line_shift(cache: &CacheConfig) -> u32 {
    cache.line_bytes.trailing_zeros()
}

/// One line size's run scan of a chunk.
#[derive(Debug)]
struct Scan {
    shift: u32,
    /// The chunk's run lengths, in order, in the first `len` slots.
    runs: Vec<u32>,
    len: usize,
}

impl Scan {
    /// Splits `chunk` into runs: a break alone, or any record alone
    /// when `every`, and each maximal run of sequential records on
    /// one line.
    fn fill(&mut self, chunk: &[TraceRecord], every: bool) {
        let shift = self.shift;
        let mut len = 0;
        let mut rest = chunk;
        while let Some((first, tail)) = rest.split_first() {
            let n = if first.is_break() || every {
                1
            } else {
                let line = first.pc.as_u64() >> shift;
                1 + tail
                    .iter()
                    .take_while(|r| !r.is_break() && r.pc.as_u64() >> shift == line)
                    .count()
            };
            if let Some(run) = self.runs.get_mut(len) {
                *run = u32::try_from(n).unwrap_or(u32::MAX);
            }
            len += 1;
            rest = rest.get(n..).unwrap_or_default();
        }
        self.len = len;
    }
}

/// The walk half of a front end: the PHTs, the cache-free engines and
/// the run scans a walk's cells share, and the scratch its pass over
/// a chunk fills for them. The scratch is sized at construction for
/// [`BLOCK_RECORDS`] records, and longer blocks are passed in chunks,
/// so stepping never allocates.
#[derive(Debug)]
pub(crate) struct WalkHalf {
    /// One PHT per distinct [`PhtSpec`] of the walk.
    phts: Vec<Pht>,
    /// One engine per distinct cache-free spec.
    free: Vec<BtbCore>,
    /// One run scan per distinct line size.
    scans: Vec<Scan>,
    /// Each PHT's direction at each record of the chunk, record-major
    /// (`i * phts.len() + pht`): written at breaks, and at every
    /// record when an engine asks for every record.
    dirs: Vec<bool>,
    /// Each cache-free engine's outcome at each break of the chunk,
    /// record-major like `dirs`.
    outcomes: Vec<BreakOutcome>,
}

impl WalkHalf {
    fn new(phts: Vec<Pht>, free: Vec<BtbCore>, shifts: &[u32]) -> Self {
        WalkHalf {
            scans: shifts
                .iter()
                .map(|&shift| Scan { shift, runs: vec![0; BLOCK_RECORDS], len: 0 })
                .collect(),
            dirs: vec![false; BLOCK_RECORDS * phts.len()],
            outcomes: vec![BreakOutcome::Correct; BLOCK_RECORDS * free.len()],
            phts,
            free,
        }
    }

    /// Feeds `block` to each cell whose `running` flag is set: chunk
    /// by chunk, the walk's pass and then each running cell's.
    fn step_block(&mut self, cells: &mut [CellHalf], block: &[TraceRecord], running: &[bool]) {
        let every = cells.iter().any(CellHalf::every_record);
        for chunk in block.chunks(BLOCK_RECORDS) {
            self.pass(chunk, every);
            for (cell, _) in cells.iter_mut().zip(running).filter(|&(_, &on)| on) {
                cell.step_block(self, chunk, every);
            }
        }
    }

    /// The walk's pass over a chunk of at most [`BLOCK_RECORDS`]
    /// records: its run scans; at each break (at each record when
    /// `every`) each PHT's direction; at each break each cache-free
    /// engine's outcome, and for a conditional each PHT's training.
    fn pass(&mut self, chunk: &[TraceRecord], every: bool) {
        for scan in &mut self.scans {
            scan.fill(chunk, every);
        }
        let (np, nf) = (self.phts.len(), self.free.len());
        for (i, r) in chunk.iter().enumerate() {
            let kind = r.class.break_kind();
            if kind.is_none() && !every {
                continue;
            }
            let dirs = self.dirs.get_mut(i * np..(i + 1) * np).unwrap_or_default();
            for (dir, pht) in dirs.iter_mut().zip(&self.phts) {
                *dir = pht.predict(r.pc);
            }
            let Some(kind) = kind else { continue };
            let outcomes = self.outcomes.get_mut(i * nf..(i + 1) * nf).unwrap_or_default();
            for (outcome, engine) in outcomes.iter_mut().zip(&mut self.free) {
                *outcome = engine.resolve(r, kind, dirs);
            }
            if kind == BreakKind::Conditional {
                for pht in &mut self.phts {
                    pht.update(r.pc, r.taken);
                }
            }
        }
    }

    /// The run lengths of the last pass for scan `scan`.
    fn runs(&self, scan: usize) -> &[u32] {
        self.scans.get(scan).and_then(|s| s.runs.get(..s.len)).unwrap_or_default()
    }

    /// The PHT directions of the last pass at record `i`.
    fn dirs(&self, i: usize) -> &[bool] {
        let np = self.phts.len();
        self.dirs.get(i * np..(i + 1) * np).unwrap_or_default()
    }

    /// The cache-free engines' outcomes of the last pass at break `i`.
    fn outcomes(&self, i: usize) -> &[BreakOutcome] {
        let nf = self.free.len();
        self.outcomes.get(i * nf..(i + 1) * nf).unwrap_or_default()
    }

    /// The capacity of each scratch buffer, in a fixed order.
    #[cfg(test)]
    pub(crate) fn scratch_capacity(&self) -> Vec<usize> {
        let mut caps: Vec<usize> = self.scans.iter().map(|s| s.runs.capacity()).collect();
        caps.extend([self.dirs.capacity(), self.outcomes.capacity()]);
        caps
    }
}

/// An engine of a cell, as the cell half dispatches it: a closed set
/// with one `match` per per-record hook. A cache-coupled engine keeps
/// its fetch predictor, return stack, pending update and counters;
/// the cache stays with the cell and the PHTs with the walk, whose
/// directions at the record in hand (`dirs`) each engine reads at the
/// index its spec names ([`direction`]).
#[derive(Debug)]
pub(crate) enum Member {
    /// A cache-free engine the walk steps: its index in the walk's
    /// list, and this cell's counters of its outcomes.
    Free(usize, Counters),
    NlsTable(NlsTableCore),
    NlsCache(NlsCacheCore),
    Johnson(JohnsonCore),
}

impl Member {
    fn counters(&self) -> &Counters {
        match self {
            Member::Free(_, counters) => counters,
            Member::NlsTable(e) => e.counters(),
            Member::NlsCache(e) => e.counters(),
            Member::Johnson(e) => e.counters(),
        }
    }

    /// Approximate bytes of simulation state this engine holds alone:
    /// its cache and PHT counted as its own, so heap-budget outcomes do
    /// not depend on which engines share them. Each engine feeds its
    /// own sizes to the formula an unbuilt spec uses
    /// ([`EngineSpec::state_bytes`]), so a sweep sizes a claim of
    /// cells without allocating them.
    fn heap_bytes(&self, cache: &CacheConfig, walk: &WalkHalf) -> u64 {
        match self {
            Member::Free(i, _) => {
                walk.free.get(*i).map_or(0, |e| e.heap_bytes(cache, &walk.phts))
            }
            Member::NlsTable(e) => e.heap_bytes(cache, &walk.phts),
            Member::NlsCache(e) => e.heap_bytes(cache, &walk.phts),
            Member::Johnson(e) => e.heap_bytes(cache),
        }
    }

    /// True when every record, not only a break's successor, must
    /// reach [`fetch`](Member::fetch) (the decode-assist type
    /// predictor trains on each).
    fn every_record(&self) -> bool {
        match self {
            Member::NlsTable(e) => e.every_record(),
            Member::Free(..) | Member::NlsCache(_) | Member::Johnson(_) => false,
        }
    }

    /// A fetch missed and refilled `at`; engines whose predictors
    /// live in cache frames drop the departed line's here.
    #[inline]
    fn refill(&mut self, at: Frame) {
        match self {
            Member::NlsCache(e) => e.refill(at),
            Member::Johnson(e) => e.refill(at),
            Member::Free(..) | Member::NlsTable(_) => {}
        }
    }

    /// `r` was fetched into `at` right after a break (or is any
    /// record, for an engine that asks for
    /// [`every_record`](Member::every_record)): commit the predictor
    /// update that waited for the successor's location.
    #[inline]
    fn fetch(&mut self, r: &TraceRecord, at: Frame, cache: &InstructionCache, dirs: &[bool]) {
        match self {
            Member::Free(..) => {}
            Member::NlsTable(e) => e.fetch(r, at, cache, dirs),
            Member::NlsCache(e) => e.fetch(r, at, cache),
            Member::Johnson(e) => e.fetch(r, at, cache),
        }
    }

    /// Resolves break `r`, fetched from `at`, against the read-only
    /// cache and the walk's PHT directions, and records the outcome; a
    /// cache-free engine's outcome is the walk's, out of `outcomes`,
    /// and is added to this cell's counts.
    #[inline]
    fn resolve(
        &mut self,
        r: &TraceRecord,
        kind: BreakKind,
        at: Frame,
        cache: &InstructionCache,
        dirs: &[bool],
        outcomes: &[BreakOutcome],
    ) -> BreakOutcome {
        match self {
            Member::Free(i, counters) => {
                let outcome = outcomes.get(*i).copied().unwrap_or(BreakOutcome::Correct);
                counters.record(outcome, kind);
                outcome
            }
            Member::NlsTable(e) => e.resolve(r, kind, cache, dirs),
            Member::NlsCache(e) => e.resolve(r, kind, at, cache, dirs),
            Member::Johnson(e) => e.resolve(r, kind, at, cache),
        }
    }
}

/// The cell half of a front end: one cell's cache, its instruction
/// count and its engines, with the spec each was built from.
#[derive(Debug)]
pub(crate) struct CellHalf {
    cache: InstructionCache,
    /// The walk's run scan for this cache's line size.
    scan: usize,
    shift: u32,
    instructions: u64,
    /// The last record fetched was a break, so the next fetch is its
    /// successor.
    successor_due: bool,
    /// The line this cell's last real access fetched, and the frame
    /// it went into. Only this cell's accesses touch its cache, so the
    /// line stays there, most recently used, until the next one.
    last: Option<(u64, Frame)>,
    members: Vec<Member>,
    /// Each member's spec, which names its results.
    specs: Vec<EngineSpec>,
}

impl CellHalf {
    fn new(
        cache: CacheConfig,
        scan: usize,
        members: Vec<Member>,
        specs: &[EngineSpec],
    ) -> Self {
        CellHalf {
            shift: line_shift(&cache),
            cache: InstructionCache::new(cache),
            scan,
            instructions: 0,
            successor_due: false,
            last: None,
            members,
            specs: specs.to_vec(),
        }
    }

    fn every_record(&self) -> bool {
        self.members.iter().any(Member::every_record)
    }

    /// Steps this cell through `chunk`, which the walk half has just
    /// passed over.
    fn step_block(&mut self, walk: &WalkHalf, chunk: &[TraceRecord], every: bool) {
        let mut i = 0;
        for &n in walk.runs(self.scan) {
            let Some(first) = chunk.get(i) else { return };
            let dirs = walk.dirs(i);
            let at = self.fetch(first, n, dirs, every, true);
            if let Some(kind) = first.class.break_kind() {
                self.resolve_all(first, kind, at, dirs, walk.outcomes(i));
            }
            i += n as usize;
        }
    }

    /// Fetches the run of `n` records that `first` opens; returns the
    /// frame they were fetched from. With `reuse`, a run on the line
    /// of the last real access books its accesses without a probe:
    /// under every replacement policy that equals probing, because the
    /// line is still resident and most recently used. Every real
    /// access, `reuse` or not, records its line for the next run.
    ///
    /// This and [`resolve_all`](CellHalf::resolve_all) are always
    /// inlined into the per-run loop, and the engine hooks they reach
    /// through [`Member`] never are, so the loop's code does not depend
    /// on which codegen unit the compiler puts each engine in: left to
    /// the inliner, one placement made sweeps 5–10 % slower.
    #[inline(always)]
    fn fetch(
        &mut self,
        first: &TraceRecord,
        n: u32,
        dirs: &[bool],
        every: bool,
        reuse: bool,
    ) -> Frame {
        self.instructions += u64::from(n);
        let line = first.pc.as_u64() >> self.shift;
        let (at, hit) = match self.last {
            Some((last, at)) if reuse && last == line => {
                self.cache.access_last(u64::from(n));
                (at, true)
            }
            _ => {
                let set =
                    u32::try_from(self.cache.config().set_index(first.pc)).unwrap_or(u32::MAX);
                let acc = self.cache.access_run(first.pc, u64::from(n).saturating_sub(1));
                let at = Frame { set, way: acc.way };
                self.last = Some((line, at));
                (at, acc.hit)
            }
        };
        if !hit {
            for m in &mut self.members {
                m.refill(at);
            }
        }
        if self.successor_due || every {
            for m in &mut self.members {
                m.fetch(first, at, &self.cache, dirs);
            }
        }
        self.successor_due = first.is_break();
        at
    }

    /// Resolves break `r`, fetched from `at`, for every engine;
    /// returns the last engine's outcome.
    #[inline(always)]
    fn resolve_all(
        &mut self,
        r: &TraceRecord,
        kind: BreakKind,
        at: Frame,
        dirs: &[bool],
        outcomes: &[BreakOutcome],
    ) -> Option<BreakOutcome> {
        let mut last = None;
        for m in &mut self.members {
            last = Some(m.resolve(r, kind, at, &self.cache, dirs, outcomes));
        }
        last
    }

    /// The sum of what each engine would hold alone, so a heap limit
    /// refuses a cell exactly when it refuses the same engines built
    /// one by one.
    fn heap_bytes(&self, walk: &WalkHalf) -> u64 {
        self.members.iter().map(|m| m.heap_bytes(self.cache.config(), walk)).sum()
    }

    /// Member `m`'s counters, under its `spec`'s label, and this cell's
    /// cache statistics as the [`SimResult`] for `bench`.
    fn result(&self, m: &Member, spec: &EngineSpec, bench: &str) -> SimResult {
        let counters = m.counters();
        SimResult {
            engine: spec.label(),
            bench: bench.to_string(),
            cache: self.cache.config().label(),
            instructions: self.instructions,
            breaks: counters.breaks,
            misfetches: counters.misfetches,
            mispredicts: counters.mispredicts,
            icache: *self.cache.stats(),
            by_kind: counters.by_kind,
        }
    }

    /// One result per engine, in order, labelled `bench`.
    fn results(&self, bench: &str) -> Vec<SimResult> {
        self.members
            .iter()
            .zip(&self.specs)
            .map(|(m, spec)| self.result(m, spec, bench))
            .collect()
    }
}

/// Gathers a walk's shared parts from its cells' specs: one PHT per
/// distinct [`PhtSpec`], one engine per distinct cache-free
/// [`EngineSpec`], one run scan per line size.
#[derive(Default)]
struct Builder {
    phts: Vec<PhtSpec>,
    /// Each distinct BTB's entries, associativity, PHT index and
    /// not-taken policy: its whole spec.
    free: Vec<(usize, u32, usize, bool)>,
    shifts: Vec<u32>,
}

/// The index of `item` in `list`, appended if absent.
fn index_of<T: PartialEq>(list: &mut Vec<T>, item: T) -> usize {
    list.iter().position(|k| *k == item).unwrap_or_else(|| {
        list.push(item);
        list.len() - 1
    })
}

impl Builder {
    /// The cell half of the engines `specs`, in order, on `cache`.
    fn cell(&mut self, cache: CacheConfig, specs: &[EngineSpec]) -> CellHalf {
        let scan = index_of(&mut self.shifts, line_shift(&cache));
        let members = specs
            .iter()
            .map(|spec| {
                let pht = spec.pht().map_or(0, |p| index_of(&mut self.phts, p));
                match *spec {
                    EngineSpec::Btb { entries, assoc, evict_not_taken, .. } => {
                        let i =
                            index_of(&mut self.free, (entries, assoc, pht, evict_not_taken));
                        Member::Free(i, Counters::default())
                    }
                    EngineSpec::NlsTable { entries, type_table, .. } => {
                        Member::NlsTable(NlsTableCore::new(entries, pht, type_table))
                    }
                    EngineSpec::NlsCache { preds_per_line, .. } => {
                        Member::NlsCache(NlsCacheCore::new(&cache, preds_per_line, pht))
                    }
                    EngineSpec::Johnson { preds_per_line } => {
                        Member::Johnson(JohnsonCore::new(&cache, preds_per_line))
                    }
                }
            })
            .collect();
        CellHalf::new(cache, scan, members, specs)
    }

    /// The walk half of every cell built so far.
    fn walk(self) -> WalkHalf {
        WalkHalf::new(
            self.phts.into_iter().map(PhtSpec::build).collect(),
            self.free
                .into_iter()
                .map(|(entries, assoc, pht, evict_not_taken)| {
                    BtbCore::new(BtbConfig::new(entries, assoc), pht, evict_not_taken)
                })
                .collect(),
            &self.shifts,
        )
    }
}

/// A cell's engines on one walk of their own: the instruction cache,
/// one PHT per distinct [`PhtSpec`], one engine per distinct
/// cache-free spec and the run scan are simulated once for all of
/// them. Every result equals that of the engine alone, in a cell of
/// its own, fed the same records.
///
/// `nls replay` drives one with
/// [`drive_records_supervised`](crate::drive_records_supervised);
/// [`run_cells_supervised`](crate::run_cells_supervised) runs several
/// cells on one walk the same way, and
/// [`drive_supervised_scalar`](crate::drive_supervised_scalar) steps
/// cells one record at a time.
///
/// # Examples
///
/// ```
/// use nls_core::{drive_records_supervised, Budget, Cell, EngineSpec, BLOCK_RECORDS};
/// use nls_icache::CacheConfig;
/// use nls_trace::{Addr, BreakKind, TraceRecord};
///
/// let specs = [EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)];
/// let mut cell = Cell::new(CacheConfig::paper(8, 1), &specs);
/// let branch =
///     TraceRecord::branch(Addr::new(0x100), BreakKind::Unconditional, true, Addr::new(0x800));
/// let target = TraceRecord::sequential(Addr::new(0x800));
/// // Cold, both engines misfetch the branch. The BTB learns its
/// // target when it resolves; the NLS table's pointer is written when
/// // the target is fetched. The second time, both fetch it right.
/// let trace = [branch, target, branch, target];
/// let mut blocks = trace.chunks(BLOCK_RECORDS);
/// let fill = |b: &mut Vec<_>| b.extend_from_slice(blocks.next().unwrap_or_default());
/// assert_eq!(drive_records_supervised(fill, &mut cell, &Budget::unlimited()), None);
/// let results = cell.results("demo");
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].engine, "128 direct BTB");
/// assert!(results.iter().all(|r| r.instructions == 4 && r.breaks == 2 && r.misfetches == 1));
/// ```
#[derive(Debug)]
pub struct Cell(Cells);

impl Cell {
    /// The engines `specs`, in order, on one walk with `cache`.
    pub fn new(cache: CacheConfig, specs: &[EngineSpec]) -> Self {
        Cell(Cells::new([(cache, specs)]))
    }

    /// One result per engine, in spec order, labelled `bench`.
    pub fn results(&self, bench: &str) -> Vec<SimResult> {
        self.0.results([bench]).concat()
    }

    /// The state estimate the heap budget is checked against: the sum
    /// of what each engine would hold alone.
    pub fn approx_heap_bytes(&self) -> u64 {
        self.0.heap_bytes().sum()
    }

    /// Feeds `block` to every engine, in order.
    pub(crate) fn step_block(&mut self, block: &[TraceRecord]) {
        self.0.step_block(block, &[true]);
    }

    /// Feeds one record to every engine, with one real cache access
    /// ([`Cells::step`]); returns the last engine's outcome at a break.
    pub(crate) fn step(&mut self, r: &TraceRecord) -> Option<BreakOutcome> {
        self.0.step(r)
    }

    /// The capacity of each of the walk's scratch buffers.
    #[cfg(test)]
    pub(crate) fn scratch_capacity(&self) -> Vec<usize> {
        self.0.walk.scratch_capacity()
    }
}

/// One engine alone on a front end of its own: a [`Cell`] of one spec,
/// as [`EngineSpec::build`] returns it.
#[derive(Debug)]
pub(crate) struct BuiltEngine(Cell);

impl BuiltEngine {
    pub(crate) fn new(cache: CacheConfig, spec: EngineSpec) -> Self {
        BuiltEngine(Cell::new(cache, std::slice::from_ref(&spec)))
    }
}

impl FetchEngine for BuiltEngine {
    fn step(&mut self, r: &TraceRecord) -> Option<BreakOutcome> {
        self.0.step(r)
    }

    fn step_block(&mut self, block: &[TraceRecord]) {
        self.0.step_block(block);
    }

    /// The one engine's result (a cell of one spec has exactly one).
    fn result(&self, bench: &str) -> SimResult {
        self.0.results(bench).pop().unwrap_or_default()
    }

    fn approx_heap_bytes(&self) -> u64 {
        self.0.approx_heap_bytes()
    }
}

/// Spec-built cells on one walk: the cells of a
/// [`run_cells_supervised`](crate::run_cells_supervised) claim, or the
/// one cell of a [`Cell`].
#[derive(Debug)]
pub(crate) struct Cells {
    walk: WalkHalf,
    cells: Vec<CellHalf>,
}

impl Cells {
    /// One cell per `(cache, specs)`, in order.
    pub(crate) fn new<'s>(
        cells: impl IntoIterator<Item = (CacheConfig, &'s [EngineSpec])>,
    ) -> Self {
        let mut builder = Builder::default();
        let cells =
            cells.into_iter().map(|(cache, specs)| builder.cell(cache, specs)).collect();
        Cells { walk: builder.walk(), cells }
    }

    /// Feeds `block` to each cell whose `running` flag is set.
    pub(crate) fn step_block(&mut self, block: &[TraceRecord], running: &[bool]) {
        self.walk.step_block(&mut self.cells, block, running);
    }

    /// Feeds one record to every cell: the walk's pass over it, then
    /// one real cache access per cell, never a booked one, so the
    /// per-record path that
    /// [`drive_supervised_scalar`](crate::drive_supervised_scalar)
    /// drives as the oracle checks the block path's probe skip. Returns
    /// the last engine's outcome at a break.
    pub(crate) fn step(&mut self, r: &TraceRecord) -> Option<BreakOutcome> {
        let every = self.cells.iter().any(CellHalf::every_record);
        self.walk.pass(std::slice::from_ref(r), every);
        let (dirs, outcomes) = (self.walk.dirs(0), self.walk.outcomes(0));
        let mut last = None;
        for cell in &mut self.cells {
            let at = cell.fetch(r, 1, dirs, every, false);
            if let Some(kind) = r.class.break_kind() {
                last = cell.resolve_all(r, kind, at, dirs, outcomes);
            }
        }
        last
    }

    /// Each cell's heap estimate, in order.
    pub(crate) fn heap_bytes(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells.iter().map(|c| c.heap_bytes(&self.walk))
    }

    /// Each cell's results, in order, labelled with its `benches` name.
    pub(crate) fn results<'b>(
        &self,
        benches: impl IntoIterator<Item = &'b str>,
    ) -> Vec<Vec<SimResult>> {
        self.cells.iter().zip(benches).map(|(c, bench)| c.results(bench)).collect()
    }
}
