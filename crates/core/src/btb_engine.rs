//! The BTB-based fetch architecture (paper §3, Figure 1).

use nls_icache::CacheConfig;
use nls_predictors::{Btb, BtbConfig, Pht, ReturnStack};
use nls_trace::{BreakKind, TraceRecord};

use crate::engine::{resolve, BreakOutcome, FetchAction};
use crate::front_end::{cache_state_bytes, direction, pht_entries, RAS_BYTES};

/// The decoupled BTB + PHT + return-stack front end's own state.
///
/// Policies follow the paper: only taken branches are entered into
/// the BTB; an entry is left in place when its branch executes
/// not-taken (unless the spec asks to evict it); conditional
/// directions come from the shared PHT for *all* conditional
/// branches, hit or miss; returns that hit in the BTB are redirected
/// through the return stack.
///
/// It never reads the cache, so a walk steps it once for all of its
/// cells, each of which counts the outcomes of the blocks it ran; the
/// PHT belongs to the walk too.
#[derive(Debug)]
pub(crate) struct BtbCore {
    btb: Btb,
    ras: ReturnStack,
    /// The walk's PHT this engine reads.
    pht: usize,
    evict_not_taken: bool,
}

impl BtbCore {
    pub(crate) fn new(btb: BtbConfig, pht: usize, evict_not_taken: bool) -> Self {
        BtbCore { btb: Btb::new(btb), ras: ReturnStack::paper(), pht, evict_not_taken }
    }

    /// The state estimate of a BTB engine with `entries` BTB entries
    /// reading a PHT of `pht_entries`, alone on `cache`: ~24 B per BTB
    /// entry (tag + target + kind), one saturating counter per PHT
    /// entry, the return stack.
    pub(crate) fn state_bytes(cache: &CacheConfig, entries: usize, pht_entries: usize) -> u64 {
        cache_state_bytes(cache) + entries as u64 * 24 + pht_entries as u64 + RAS_BYTES
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
    use crate::front_end::Cell;
    use crate::spec::EngineSpec;
    use nls_trace::Addr;

    fn engine() -> Cell {
        Cell::new(CacheConfig::paper(8, 1), &[EngineSpec::btb(128, 1)])
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
        let r = &e.results("t")[0];
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
        let mut core = BtbCore::new(BtbConfig::new(128, 1), 0, false);
        let pc = Addr::new(0x400);
        let r = TraceRecord::branch(pc, BreakKind::Conditional, false, Addr::new(0x900));
        for _ in 0..5 {
            core.resolve(&r, BreakKind::Conditional, &[false]);
        }
        assert_eq!(core.btb.occupancy(), 0, "only taken branches are entered");
    }

    #[test]
    fn a_not_taken_execution_evicts_the_entry_only_under_the_evict_policy() {
        let pc = Addr::new(0x400);
        let run =
            |taken| TraceRecord::branch(pc, BreakKind::Conditional, taken, Addr::new(0x900));
        for (evict, left) in [(false, 1), (true, 0)] {
            let mut core = BtbCore::new(BtbConfig::new(128, 1), 0, evict);
            core.resolve(&run(true), BreakKind::Conditional, &[true]);
            assert_eq!(core.btb.occupancy(), 1);
            core.resolve(&run(false), BreakKind::Conditional, &[true]);
            assert_eq!(core.btb.occupancy(), left, "evict_not_taken: {evict}");
        }
    }

    #[test]
    fn stepping_blocks_of_any_length_never_grows_the_walk_scratch() {
        use crate::supervisor::BLOCK_RECORDS;
        use nls_trace::{synthesize, BenchProfile, GenConfig, Walker};

        let bench = BenchProfile::gcc();
        let program = synthesize(&bench, &GenConfig::for_profile(&bench));
        let trace = Walker::new(&program, 3).take_trace(6 * BLOCK_RECORDS + 99);
        let mut e = engine();
        let before = e.scratch_capacity();
        assert!(before.iter().all(|&c| c >= BLOCK_RECORDS), "{before:?}");
        // Three full blocks, a short tail block, then one block three
        // times the drive loop's, which the walk passes in chunks.
        let (full, rest) = trace.split_at(3 * BLOCK_RECORDS);
        let (tail, long) = rest.split_at(99);
        for block in full.chunks(BLOCK_RECORDS).chain([tail, long]) {
            e.step_block(block);
        }
        assert_eq!(long.len(), 3 * BLOCK_RECORDS);
        assert_eq!(e.scratch_capacity(), before);
        assert_eq!(e.results("t")[0].instructions, trace.len() as u64);
    }

    #[test]
    fn result_counts_are_consistent() {
        let mut e = engine();
        for i in 0..10 {
            e.step(&uncond(0x100 + i * 0x40, 0x100 + i * 0x40 + 0x400));
        }
        let r = &e.results("demo")[0];
        assert_eq!(r.breaks, 10);
        assert_eq!(r.misfetches + r.mispredicts, 10, "all cold branches penalised");
        assert!(r.icache.accesses >= 10);
    }
}
