//! The BTB-based fetch architecture (paper §3, Figure 1).

use nls_icache::CacheConfig;
use nls_predictors::{Btb, BtbConfig, Pht, ReturnStack};
use nls_trace::{BreakKind, TraceRecord};

use crate::engine::{resolve, BreakOutcome, FetchAction, FetchEngine};
use crate::front_end::{cache_state_bytes, direction, pht_entries, Cells, RAS_BYTES};
use crate::metrics::SimResult;
use crate::spec::EngineSpec;

/// The decoupled BTB + PHT + return-stack front end.
///
/// Policies follow the paper: only taken branches are entered into
/// the BTB; an entry is left in place when its branch executes
/// not-taken; conditional directions come from the shared PHT for
/// *all* conditional branches, hit or miss; returns that hit in the
/// BTB are redirected through the return stack.
///
/// # Examples
///
/// ```
/// use nls_core::{BtbEngine, FetchEngine};
/// use nls_icache::CacheConfig;
/// use nls_predictors::BtbConfig;
/// use nls_trace::{Addr, BreakKind, TraceRecord};
///
/// let mut engine = BtbEngine::new(BtbConfig::new(128, 1), CacheConfig::paper(8, 1));
/// let branch = TraceRecord::branch(Addr::new(0x100), BreakKind::Unconditional, true, Addr::new(0x800));
/// engine.step(&branch); // first encounter: misfetch, trains the BTB
/// let result = engine.result("demo");
/// assert_eq!(result.misfetches, 1);
/// ```
#[derive(Debug)]
pub struct BtbEngine(pub(crate) Cells);

impl BtbEngine {
    /// An engine with the paper's shared predictors (4096-entry
    /// gshare PHT, 32-entry return stack); [`EngineSpec::build`] takes
    /// other PHTs.
    pub fn new(btb: BtbConfig, cache: CacheConfig) -> Self {
        BtbEngine(Cells::alone(cache, EngineSpec::btb(btb.entries, btb.assoc)))
    }

    /// Policy ablation: evict a conditional branch's entry when it
    /// executes not-taken, instead of the paper's keep-the-entry
    /// policy ("we might need the taken target address again in the
    /// near future", §3).
    #[must_use]
    pub fn with_evict_on_not_taken(mut self) -> Self {
        if let Some(btb) = self.0.free_mut() {
            btb.evict_not_taken = true;
        }
        self
    }
}

impl FetchEngine for BtbEngine {
    fn label(&self) -> String {
        self.0.label()
    }

    fn step(&mut self, r: &TraceRecord) -> Option<BreakOutcome> {
        self.0.step(r)
    }

    fn step_block(&mut self, block: &[TraceRecord]) {
        self.0.step_block(block, &[true]);
    }

    fn result(&self, bench: &str) -> SimResult {
        self.0.result(bench)
    }

    fn approx_heap_bytes(&self) -> u64 {
        self.0.heap_bytes().sum()
    }
}

/// The BTB engine's own state. It never reads the cache, so a walk
/// steps it once for all of its cells, each of which counts the
/// outcomes of the blocks it ran; the PHT belongs to the walk too.
#[derive(Debug)]
pub(crate) struct BtbCore {
    btb: Btb,
    ras: ReturnStack,
    /// The walk's PHT this engine reads.
    pht: usize,
    evict_not_taken: bool,
}

impl BtbCore {
    pub(crate) fn new(btb: BtbConfig, pht: usize) -> Self {
        BtbCore { btb: Btb::new(btb), ras: ReturnStack::paper(), pht, evict_not_taken: false }
    }

    /// The state estimate of a BTB engine with `entries` BTB entries
    /// reading a PHT of `pht_entries`, alone on `cache`: ~24 B per BTB
    /// entry (tag + target + kind), one saturating counter per PHT
    /// entry, the return stack.
    pub(crate) fn state_bytes(cache: &CacheConfig, entries: usize, pht_entries: usize) -> u64 {
        cache_state_bytes(cache) + entries as u64 * 24 + pht_entries as u64 + RAS_BYTES
    }

    pub(crate) fn label(&self) -> String {
        if self.evict_not_taken {
            format!("{} (evict-NT)", self.btb.config().label())
        } else {
            self.btb.config().label()
        }
    }

    /// What this engine holds alone on `cache`, reading the walk's
    /// `phts`.
    pub(crate) fn heap_bytes(&self, cache: &CacheConfig, phts: &[Pht]) -> u64 {
        Self::state_bytes(cache, self.btb.config().entries, pht_entries(phts, self.pht))
    }

    /// Resolves break `r` with `dirs`, the walk's PHT directions at
    /// it. The BTB is trained at resolution, so nothing waits on the
    /// successor fetch.
    pub(crate) fn resolve(
        &mut self,
        r: &TraceRecord,
        kind: BreakKind,
        dirs: &[bool],
    ) -> BreakOutcome {
        let dir = direction(dirs, self.pht);
        // Fetch-time action selection.
        let action = match self.btb.lookup(r.pc) {
            Some(entry) => match entry.kind {
                BreakKind::Return => FetchAction::ReturnStack(self.ras.pop()),
                BreakKind::Conditional => {
                    // The entry's own type selects the PHT; if the
                    // direction says taken, fetch the stored target.
                    if dir {
                        FetchAction::FullAddress(entry.target)
                    } else {
                        FetchAction::FallThrough
                    }
                }
                _ => FetchAction::FullAddress(entry.target),
            },
            None => FetchAction::FallThrough,
        };

        let outcome = resolve(r, kind, action, dir, &mut self.ras, None);
        if r.taken {
            self.btb.insert(r.pc, r.target, kind);
        } else if self.evict_not_taken {
            self.btb.remove(r.pc);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nls_trace::Addr;

    fn engine() -> BtbEngine {
        BtbEngine::new(BtbConfig::new(128, 1), CacheConfig::paper(8, 1))
    }

    fn uncond(pc: u64, target: u64) -> TraceRecord {
        TraceRecord::branch(Addr::new(pc), BreakKind::Unconditional, true, Addr::new(target))
    }

    #[test]
    fn first_taken_branch_misfetches_then_hits() {
        let mut e = engine();
        assert_eq!(e.step(&uncond(0x100, 0x800)), Some(BreakOutcome::Misfetch));
        assert_eq!(e.step(&uncond(0x100, 0x800)), Some(BreakOutcome::Correct));
    }

    #[test]
    fn sequential_instructions_are_not_breaks() {
        let mut e = engine();
        assert_eq!(e.step(&TraceRecord::sequential(Addr::new(0x100))), None);
        let r = e.result("t");
        assert_eq!(r.instructions, 1);
        assert_eq!(r.breaks, 0);
    }

    #[test]
    fn conditional_direction_comes_from_pht() {
        let mut e = engine();
        let pc = Addr::new(0x200);
        let t = Addr::new(0x900);
        // Train: repeatedly taken. First iteration misfetches (BTB
        // cold); once PHT warms and BTB holds the target, Correct.
        let mut last = BreakOutcome::Misfetch;
        for _ in 0..40 {
            last = e.step(&TraceRecord::branch(pc, BreakKind::Conditional, true, t)).unwrap();
        }
        assert_eq!(last, BreakOutcome::Correct);
        // A sudden not-taken execution: PHT still says taken -> mispredict.
        let out = e.step(&TraceRecord::branch(pc, BreakKind::Conditional, false, t)).unwrap();
        assert_eq!(out, BreakOutcome::Mispredict);
    }

    #[test]
    fn calls_and_returns_via_stack() {
        let mut e = engine();
        // call at 0x100 -> 0x800 (trains BTB), return at 0x800 -> 0x104
        e.step(&TraceRecord::branch(Addr::new(0x100), BreakKind::Call, true, Addr::new(0x800)));
        // First return: BTB cold for 0x800, stack is right -> misfetch.
        let ret =
            TraceRecord::branch(Addr::new(0x800), BreakKind::Return, true, Addr::new(0x104));
        assert_eq!(e.step(&ret), Some(BreakOutcome::Misfetch));
        // Second round: BTB knows 0x800 is a return, stack is right.
        e.step(&TraceRecord::branch(Addr::new(0x100), BreakKind::Call, true, Addr::new(0x800)));
        assert_eq!(e.step(&ret), Some(BreakOutcome::Correct));
    }

    #[test]
    fn indirect_jump_with_changing_target_mispredicts() {
        let mut e = engine();
        let pc = Addr::new(0x300);
        let j = |t: u64| TraceRecord::branch(pc, BreakKind::IndirectJump, true, Addr::new(t));
        assert_eq!(e.step(&j(0x1000)), Some(BreakOutcome::Mispredict)); // cold
        assert_eq!(e.step(&j(0x1000)), Some(BreakOutcome::Correct)); // learned
        assert_eq!(e.step(&j(0x2000)), Some(BreakOutcome::Mispredict)); // changed
        assert_eq!(e.step(&j(0x2000)), Some(BreakOutcome::Correct)); // relearned
    }

    #[test]
    fn not_taken_conditionals_never_enter_the_btb() {
        let mut e = engine();
        let pc = Addr::new(0x400);
        let r = TraceRecord::branch(pc, BreakKind::Conditional, false, Addr::new(0x900));
        for _ in 0..5 {
            e.step(&r);
        }
        let occupancy = e.0.free_mut().map(|b| b.btb.occupancy());
        assert_eq!(occupancy, Some(0), "only taken branches are entered");
    }

    #[test]
    fn stepping_blocks_of_any_length_never_grows_the_walk_scratch() {
        use crate::supervisor::BLOCK_RECORDS;
        use nls_trace::{synthesize, BenchProfile, GenConfig, Walker};

        let bench = BenchProfile::gcc();
        let program = synthesize(&bench, &GenConfig::for_profile(&bench));
        let trace = Walker::new(&program, 3).take_trace(6 * BLOCK_RECORDS + 99);
        let mut e = engine();
        let before = e.0.scratch_capacity();
        assert!(before.iter().all(|&c| c >= BLOCK_RECORDS), "{before:?}");
        // Three full blocks, a short tail block, then one block three
        // times the drive loop's, which the walk passes in chunks.
        let (full, rest) = trace.split_at(3 * BLOCK_RECORDS);
        let (tail, long) = rest.split_at(99);
        for block in full.chunks(BLOCK_RECORDS).chain([tail, long]) {
            e.step_block(block);
        }
        assert_eq!(long.len(), 3 * BLOCK_RECORDS);
        assert_eq!(e.0.scratch_capacity(), before);
        assert_eq!(e.result("t").instructions, trace.len() as u64);
    }

    #[test]
    fn result_counts_are_consistent() {
        let mut e = engine();
        for i in 0..10 {
            e.step(&uncond(0x100 + i * 0x40, 0x100 + i * 0x40 + 0x400));
        }
        let r = e.result("demo");
        assert_eq!(r.breaks, 10);
        assert_eq!(r.misfetches + r.mispredicts, 10, "all cold branches penalised");
        assert!(r.icache.accesses >= 10);
    }
}
