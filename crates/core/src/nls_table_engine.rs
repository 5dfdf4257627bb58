//! The NLS-table fetch architecture (paper §4, Figure 2).

use nls_icache::{CacheConfig, InstructionCache};
use nls_predictors::{BranchTypeTable, NlsTable, NlsType, Pht, ReturnStack};
use nls_trace::{Addr, BreakKind, TraceRecord};

use crate::engine::{nls_action, resolve, BreakOutcome, Counters, FetchAction};
use crate::front_end::{cache_state_bytes, direction, pht_entries, Frame, RAS_BYTES};

/// A pending NLS pointer update: a taken branch whose target's cache
/// location can only be recorded once the target has actually been
/// fetched (the entry is written "after instructions are decoded and
/// the branch type and destinations are resolved", §4).
#[derive(Debug, Clone, Copy)]
struct PendingUpdate {
    /// The branch instruction to update the predictor for.
    pc: Addr,
    /// Its resolved kind.
    kind: BreakKind,
    /// Whether it was taken (taken branches update the pointer).
    taken: bool,
}

/// The decoupled NLS-table front end's own state: a tag-less table of
/// next line/set predictors and the return stack; the cache belongs
/// to its cell and the PHT to its walk.
#[derive(Debug)]
pub(crate) struct NlsTableCore {
    table: NlsTable,
    ras: ReturnStack,
    counters: Counters,
    pending: Option<PendingUpdate>,
    /// The walk's PHT this engine reads.
    pht: usize,
    /// §4 extension ([`EngineSpec::NlsTable`]'s `type_table`): when
    /// `Some`, the engine does *not* assume a predecode bit;
    /// branch-ness is predicted by this table at fetch and trained at
    /// decode.
    ///
    /// [`EngineSpec::NlsTable`]: crate::EngineSpec::NlsTable
    type_table: Option<BranchTypeTable>,
    /// Whether the record just fetched was predicted to be a branch:
    /// always true for a break with a predecode bit.
    predicted_branch: bool,
}

impl NlsTableCore {
    /// A table of `entries` reading the walk's PHT `pht`, with a type
    /// table of `type_entries` if any.
    pub(crate) fn new(entries: usize, pht: usize, type_entries: Option<usize>) -> Self {
        NlsTableCore {
            table: NlsTable::new(entries),
            ras: ReturnStack::paper(),
            counters: Counters::default(),
            pending: None,
            pht,
            type_table: type_entries.map(BranchTypeTable::new),
            predicted_branch: true,
        }
    }

    /// The state estimate of an NLS-table engine with `entries` NLS
    /// entries reading a PHT of `pht_entries`, alone on `cache`: ~8 B
    /// per tag-less NLS entry (pointer + type), one counter per PHT
    /// entry, the return stack, one byte per slot of an optional type
    /// table of `type_entries`.
    pub(crate) fn state_bytes(
        cache: &CacheConfig,
        entries: usize,
        pht_entries: usize,
        type_entries: usize,
    ) -> u64 {
        cache_state_bytes(cache)
            + entries as u64 * 8
            + pht_entries as u64
            + RAS_BYTES
            + type_entries as u64
    }

    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    pub(crate) fn heap_bytes(&self, cache: &CacheConfig, phts: &[Pht]) -> u64 {
        Self::state_bytes(
            cache,
            self.table.len(),
            pht_entries(phts, self.pht),
            self.type_table.as_ref().map_or(0, BranchTypeTable::len),
        )
    }

    /// With the type predictor every record predicts and trains the
    /// type table.
    pub(crate) fn every_record(&self) -> bool {
        self.type_table.is_some()
    }

    // The hooks stay out of line; see `CellHalf::fetch`.
    #[inline(never)]
    pub(crate) fn fetch(
        &mut self,
        r: &TraceRecord,
        at: Frame,
        cache: &InstructionCache,
        dirs: &[bool],
    ) {
        // Commit the previous break's predictor update now that its
        // successor (this very instruction) is resident, in `at`.
        if let Some(p) = self.pending.take() {
            let target = p.taken.then(|| at.pointer(r.pc, cache.config()));
            self.table.update(p.pc, p.kind, p.taken, target);
        }

        // Without a predecode bit, branch-ness itself is predicted.
        let Some(t) = &mut self.type_table else { return };
        self.predicted_branch = t.predict_branch(r.pc);
        t.train(r.pc, r.is_break());
        // A sequential instruction mistaken for a branch redirects
        // fetch through the (aliased) NLS entry: one bubble,
        // discovered at decode.
        if !r.is_break() && self.predicted_branch {
            let would_redirect = match self.table.lookup(r.pc).ty {
                NlsType::Invalid => false,
                NlsType::Conditional => direction(dirs, self.pht),
                NlsType::Return | NlsType::Other => true,
            };
            if would_redirect {
                self.counters.misfetches += 1;
            }
        }
    }

    #[inline(never)]
    pub(crate) fn resolve(
        &mut self,
        r: &TraceRecord,
        kind: BreakKind,
        cache: &InstructionCache,
        dirs: &[bool],
    ) -> BreakOutcome {
        let dir = direction(dirs, self.pht);
        // Fetch-time action selection from the tag-less entry; a
        // break mistaken for a sequential instruction falls through.
        let action = if self.predicted_branch {
            nls_action(self.table.lookup(r.pc), dir, &mut self.ras)
        } else {
            FetchAction::FallThrough
        };
        let outcome = resolve(r, kind, action, dir, &mut self.ras, Some(cache));
        self.counters.record(outcome, kind);
        self.pending = Some(PendingUpdate { pc: r.pc, kind, taken: r.taken });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front_end::Cell;
    use crate::spec::{EngineSpec, PhtSpec};

    /// An NLS table of `entries` alone on `cache`.
    fn table(entries: usize, cache: CacheConfig) -> Cell {
        Cell::new(cache, &[EngineSpec::nls_table(entries)])
    }

    /// An NLS table of `entries` with a type table of as many, alone on
    /// the 8K direct cache.
    fn typed(entries: usize) -> Cell {
        let spec =
            EngineSpec::NlsTable { entries, pht: PhtSpec::Gshare, type_table: Some(entries) };
        Cell::new(CacheConfig::paper(8, 1), &[spec])
    }

    fn engine() -> Cell {
        table(1024, CacheConfig::paper(8, 1))
    }

    fn uncond(pc: u64, target: u64) -> TraceRecord {
        TraceRecord::branch(Addr::new(pc), BreakKind::Unconditional, true, Addr::new(target))
    }

    /// Steps a branch followed by its target instruction, so the
    /// pending pointer update lands.
    fn step_branch(e: &mut Cell, r: &TraceRecord) -> BreakOutcome {
        let out = e.step(r).unwrap();
        e.step(&TraceRecord::sequential(r.next_pc()));
        out
    }

    #[test]
    fn cold_branch_misfetches_then_pointer_hits() {
        let mut e = engine();
        let r = uncond(0x100, 0x800);
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Misfetch);
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Correct);
    }

    #[test]
    fn displaced_target_line_costs_a_misfetch() {
        let cfg = CacheConfig::paper(8, 1);
        let mut e = table(1024, cfg);
        let r = uncond(0x100, 0x800);
        step_branch(&mut e, &r); // train
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Correct);
        // Evict the target's line with a conflicting access.
        let conflict = Addr::new(0x800 + cfg.size_bytes);
        e.step(&TraceRecord::sequential(conflict));
        // The pointer is now stale: misfetch, not mispredict.
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Misfetch);
    }

    #[test]
    fn aliased_branches_share_an_entry() {
        let mut e = table(16, CacheConfig::paper(8, 1));
        // Two unconditional branches 16 instruction-slots apart alias.
        let a = uncond(0x100, 0x800);
        let b = uncond(0x100 + 16 * 4, 0x900);
        step_branch(&mut e, &a);
        assert_eq!(step_branch(&mut e, &a), BreakOutcome::Correct);
        step_branch(&mut e, &b); // clobbers a's entry
        assert_eq!(step_branch(&mut e, &a), BreakOutcome::Misfetch);
    }

    #[test]
    fn conditional_uses_pht_and_pointer() {
        let mut e = engine();
        let pc = Addr::new(0x200);
        let t = Addr::new(0x900);
        let taken = TraceRecord::branch(pc, BreakKind::Conditional, true, t);
        let mut last = BreakOutcome::Misfetch;
        for _ in 0..40 {
            last = step_branch(&mut e, &taken);
        }
        assert_eq!(last, BreakOutcome::Correct);
        let not_taken = TraceRecord::branch(pc, BreakKind::Conditional, false, t);
        assert_eq!(step_branch(&mut e, &not_taken), BreakOutcome::Mispredict);
    }

    #[test]
    fn not_taken_does_not_erase_the_pointer() {
        let mut e = engine();
        let pc = Addr::new(0x200);
        let t = Addr::new(0x900);
        let taken = TraceRecord::branch(pc, BreakKind::Conditional, true, t);
        let not_taken = TraceRecord::branch(pc, BreakKind::Conditional, false, t);
        for _ in 0..40 {
            step_branch(&mut e, &taken);
        }
        // A few not-taken executions (PHT will mispredict some), then
        // taken again: the pointer must still be valid, so once the
        // PHT direction recovers the branch is Correct, never
        // misfetched on the pointer.
        step_branch(&mut e, &not_taken);
        step_branch(&mut e, &not_taken);
        let mut outcomes = Vec::new();
        for _ in 0..20 {
            outcomes.push(step_branch(&mut e, &taken));
        }
        assert!(
            outcomes.iter().all(|&o| o != BreakOutcome::Misfetch),
            "pointer survived fall-throughs: {outcomes:?}"
        );
        assert_eq!(*outcomes.last().unwrap(), BreakOutcome::Correct);
    }

    #[test]
    fn returns_use_the_stack_once_typed() {
        let mut e = engine();
        let call =
            TraceRecord::branch(Addr::new(0x100), BreakKind::Call, true, Addr::new(0x800));
        let ret =
            TraceRecord::branch(Addr::new(0x800), BreakKind::Return, true, Addr::new(0x104));
        // Round 1: both cold -> misfetches (stack itself is right).
        assert_eq!(step_branch(&mut e, &call), BreakOutcome::Misfetch);
        assert_eq!(step_branch(&mut e, &ret), BreakOutcome::Misfetch);
        // Round 2: entry types known; stack correct.
        assert_eq!(step_branch(&mut e, &call), BreakOutcome::Correct);
        assert_eq!(step_branch(&mut e, &ret), BreakOutcome::Correct);
    }

    #[test]
    fn type_predictor_learns_branch_locations() {
        let mut e = typed(1024);
        let r = uncond(0x100, 0x800);
        // First pass: predicted non-branch (cold type table) -> the
        // break falls through -> misfetch; second pass: branch-ness
        // and pointer both known -> correct.
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Misfetch);
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Correct);
    }

    #[test]
    fn type_predictor_charges_false_positives() {
        let mut e = typed(16);
        // Train a branch, then run a *sequential* instruction that
        // aliases both the type bit and the NLS entry: fetch wrongly
        // redirects -> one extra misfetch with no extra break.
        // Target 0x804 so the target's own (sequential) training
        // lands in a different type-table slot than the branch's.
        let r = uncond(0x100, 0x804);
        step_branch(&mut e, &r);
        step_branch(&mut e, &r);
        let before = e.results("t").remove(0);
        let aliased = Addr::new(0x100 + 16 * 4);
        e.step(&TraceRecord::sequential(aliased));
        let after = e.results("t").remove(0);
        assert_eq!(after.breaks, before.breaks, "sequential is not a break");
        assert_eq!(after.misfetches, before.misfetches + 1, "false-positive bubble");
    }

    #[test]
    fn indirect_jump_staleness_is_a_mispredict() {
        let mut e = engine();
        let pc = Addr::new(0x300);
        let j = |t: u64| TraceRecord::branch(pc, BreakKind::IndirectJump, true, Addr::new(t));
        assert_eq!(step_branch(&mut e, &j(0x1000)), BreakOutcome::Mispredict); // cold
        assert_eq!(step_branch(&mut e, &j(0x1000)), BreakOutcome::Correct);
        assert_eq!(step_branch(&mut e, &j(0x2000)), BreakOutcome::Mispredict); // target changed
    }
}
