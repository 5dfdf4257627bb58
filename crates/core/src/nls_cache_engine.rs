//! The NLS-cache fetch architecture: predictors coupled to cache
//! lines (paper §4.1, the Johnson-style organisation with the
//! paper's decoupled PHT).

use nls_icache::{CacheConfig, InstructionCache};
use nls_predictors::{NlsCacheConfig, NlsCachePredictors, Pht, ReturnStack};
use nls_trace::{BreakKind, TraceRecord};

use crate::engine::{nls_action, resolve, BreakOutcome, Counters};
use crate::front_end::{
    cache_lines, cache_state_bytes, direction, pht_entries, Frame, RAS_BYTES,
};

/// A pending coupled-predictor update: slot coordinates captured at
/// the branch's fetch, committed when the successor is fetched.
#[derive(Debug, Clone, Copy)]
struct PendingSlot {
    set: u32,
    way: u8,
    inst: u32,
    kind: BreakKind,
    taken: bool,
}

/// The coupled NLS-cache front end's own state: the return stack and
/// `preds_per_line` NLS predictors per instruction-cache frame (the
/// paper recommends two per 8-instruction line). Refilling a frame
/// destroys its predictors — the structural disadvantage the
/// NLS-table removes. The cache belongs to its cell and the PHT to its
/// walk.
#[derive(Debug)]
pub(crate) struct NlsCacheCore {
    preds: NlsCachePredictors,
    ras: ReturnStack,
    counters: Counters,
    pending: Option<PendingSlot>,
    /// The walk's PHT this engine reads.
    pht: usize,
}

impl NlsCacheCore {
    /// A predictor array matching `cache`.
    pub(crate) fn new(cache: &CacheConfig, preds_per_line: u32, pht: usize) -> Self {
        NlsCacheCore {
            preds: NlsCachePredictors::new(NlsCacheConfig::for_cache(cache, preds_per_line)),
            ras: ReturnStack::paper(),
            counters: Counters::default(),
            pending: None,
            pht,
        }
    }

    /// The state estimate of an NLS-cache engine with `preds_per_line`
    /// coupled predictors per line reading a PHT of `pht_entries`,
    /// alone on `cache`: ~8 B per coupled predictor, one counter per
    /// PHT entry, the return stack.
    pub(crate) fn state_bytes(
        cache: &CacheConfig,
        preds_per_line: u32,
        pht_entries: usize,
    ) -> u64 {
        cache_state_bytes(cache)
            + cache_lines(cache) * u64::from(preds_per_line) * 8
            + pht_entries as u64
            + RAS_BYTES
    }

    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    pub(crate) fn heap_bytes(&self, cache: &CacheConfig, phts: &[Pht]) -> u64 {
        Self::state_bytes(
            cache,
            self.preds.config().preds_per_line,
            pht_entries(phts, self.pht),
        )
    }

    // The hooks stay out of line; see `CellHalf::fetch`.
    /// The refilled frame's coupled predictors belong to the departed
    /// line and are invalidated.
    #[inline(never)]
    pub(crate) fn refill(&mut self, at: Frame) {
        self.preds.invalidate_line(at.set, at.way);
    }

    #[inline(never)]
    pub(crate) fn fetch(&mut self, r: &TraceRecord, at: Frame, cache: &InstructionCache) {
        // Commit the previous break's predictor update.
        if let Some(p) = self.pending.take() {
            let target = p.taken.then(|| at.pointer(r.pc, cache.config()));
            self.preds.update(p.set, p.way, p.inst, p.kind, p.taken, target);
        }
    }

    #[inline(never)]
    pub(crate) fn resolve(
        &mut self,
        r: &TraceRecord,
        kind: BreakKind,
        at: Frame,
        cache: &InstructionCache,
        dirs: &[bool],
    ) -> BreakOutcome {
        let dir = direction(dirs, self.pht);
        let inst = NlsCachePredictors::inst_offset(r.pc, cache.config().line_bytes);
        let entry = self.preds.lookup(at.set, at.way, inst);
        let action = nls_action(entry, dir, &mut self.ras);
        let outcome = resolve(r, kind, action, dir, &mut self.ras, Some(cache));
        self.counters.record(outcome, kind);
        self.pending =
            Some(PendingSlot { set: at.set, way: at.way, inst, kind, taken: r.taken });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front_end::Cell;
    use crate::spec::EngineSpec;
    use nls_trace::Addr;

    /// An NLS cache of two predictors per line alone on `cache`.
    fn on(cache: CacheConfig) -> Cell {
        Cell::new(cache, &[EngineSpec::nls_cache(2)])
    }

    fn engine() -> Cell {
        on(CacheConfig::paper(8, 1))
    }

    fn uncond(pc: u64, target: u64) -> TraceRecord {
        TraceRecord::branch(Addr::new(pc), BreakKind::Unconditional, true, Addr::new(target))
    }

    fn step_branch(e: &mut Cell, r: &TraceRecord) -> BreakOutcome {
        let out = e.step(r).unwrap();
        e.step(&TraceRecord::sequential(r.next_pc()));
        out
    }

    #[test]
    fn trains_like_the_table_when_lines_stay_resident() {
        let mut e = engine();
        let r = uncond(0x100, 0x800);
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Misfetch);
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Correct);
    }

    #[test]
    fn evicting_the_branchs_own_line_destroys_its_predictor() {
        let cfg = CacheConfig::paper(8, 1);
        let mut e = on(cfg);
        let r = uncond(0x100, 0x800);
        step_branch(&mut e, &r);
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Correct);
        // Evict the *branch's* line (same set as 0x100, different tag).
        e.step(&TraceRecord::sequential(Addr::new(0x100 + cfg.size_bytes)));
        // The branch's line refills and its predictor is gone: the
        // coupled design misfetches where the table would still hit.
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Misfetch);
    }

    #[test]
    fn table_survives_the_same_eviction() {
        // Companion check: the decoupled table keeps its entry when
        // the branch's line is evicted. This is the paper's central
        // argument for the NLS-table.
        let cfg = CacheConfig::paper(8, 1);
        let mut e = Cell::new(cfg, &[EngineSpec::nls_table(1024)]);
        let r = uncond(0x100, 0x800);
        step_branch(&mut e, &r);
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Correct);
        e.step(&TraceRecord::sequential(Addr::new(0x100 + cfg.size_bytes)));
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Correct, "table entry survived");
    }

    #[test]
    fn two_branches_in_same_half_line_conflict() {
        let mut e = engine();
        // Both in the first 4-instruction half of the line at 0x100.
        let a = uncond(0x100, 0x800);
        let b = uncond(0x108, 0x900);
        step_branch(&mut e, &a);
        step_branch(&mut e, &b); // clobbers a's shared predictor
        assert_eq!(step_branch(&mut e, &a), BreakOutcome::Misfetch);
    }

    #[test]
    fn branches_in_different_halves_coexist() {
        let mut e = engine();
        let a = uncond(0x100, 0x800); // offset 0: first predictor
        let b = uncond(0x110, 0x900); // offset 4: second predictor
        step_branch(&mut e, &a);
        step_branch(&mut e, &b);
        assert_eq!(step_branch(&mut e, &a), BreakOutcome::Correct);
        assert_eq!(step_branch(&mut e, &b), BreakOutcome::Correct);
    }
}
