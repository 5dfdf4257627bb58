//! Johnson's coupled successor-index architecture (paper §6.2
//! related work; the TFP / MIPS R8000 design).
//!
//! One pointer per cache-line region predicts the next fetch
//! location outright — it is updated after *every* branch to
//! wherever control actually went, so it doubles as a one-bit
//! direction predictor. There is no decoupled PHT and no return
//! stack; this engine exists to quantify what the paper's NLS
//! improvements (taken-only pointer updates + decoupled two-level
//! PHT + return stack) buy over the prior design.

use nls_icache::{CacheConfig, InstructionCache};
use nls_predictors::{JohnsonPredictors, LinePointer, NlsCacheConfig, NlsCachePredictors};
use nls_trace::{Addr, BreakKind, TraceRecord};

use crate::engine::{BreakOutcome, Counters};
use crate::front_end::{cache_lines, cache_state_bytes, Frame};

#[derive(Debug, Clone, Copy)]
struct PendingSlot {
    set: u32,
    way: u8,
    inst: u32,
}

/// The Johnson successor-index front end's own state; the cache
/// belongs to its cell.
#[derive(Debug)]
pub(crate) struct JohnsonCore {
    preds: JohnsonPredictors,
    counters: Counters,
    pending: Option<PendingSlot>,
}

impl JohnsonCore {
    /// A successor-index array matching `cache`.
    pub(crate) fn new(cache: &CacheConfig, preds_per_line: u32) -> Self {
        JohnsonCore {
            preds: JohnsonPredictors::new(NlsCacheConfig::for_cache(cache, preds_per_line)),
            counters: Counters::default(),
            pending: None,
        }
    }

    /// The state estimate of a Johnson engine with `preds_per_line`
    /// coupled successor pointers per line, alone on `cache`: ~8 B per
    /// pointer. No PHT, no return stack in Johnson's design.
    pub(crate) fn state_bytes(cache: &CacheConfig, preds_per_line: u32) -> u64 {
        cache_state_bytes(cache) + cache_lines(cache) * u64::from(preds_per_line) * 8
    }
}

/// Whether `ptr` structurally denotes the location of `addr` in
/// `cache` (same set row and instruction offset), regardless of
/// residency — used to infer the implied direction prediction.
fn denotes(ptr: LinePointer, addr: Addr, cache: &InstructionCache) -> bool {
    let cfg = cache.config();
    u64::from(ptr.set) == cfg.set_index(addr)
        && u64::from(ptr.inst) == addr.offset_in_line(cfg.line_bytes)
}

impl JohnsonCore {
    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    pub(crate) fn heap_bytes(&self, cache: &CacheConfig) -> u64 {
        Self::state_bytes(cache, self.preds.config().preds_per_line)
    }

    // The hooks stay out of line; see `CellHalf::fetch`.
    /// A refill destroys the frame's successor pointers.
    #[inline(never)]
    pub(crate) fn refill(&mut self, at: Frame) {
        self.preds.invalidate_line(at.set, at.way);
    }

    #[inline(never)]
    pub(crate) fn fetch(&mut self, r: &TraceRecord, at: Frame, cache: &InstructionCache) {
        // Commit the previous branch's successor pointer: it records
        // wherever control went, taken or not (Johnson's rule).
        if let Some(p) = self.pending.take() {
            self.preds.update(p.set, p.way, p.inst, Some(at.pointer(r.pc, cache.config())));
        }
    }

    #[inline(never)]
    pub(crate) fn resolve(
        &mut self,
        r: &TraceRecord,
        kind: BreakKind,
        at: Frame,
        cache: &InstructionCache,
    ) -> BreakOutcome {
        let inst = NlsCachePredictors::inst_offset(r.pc, cache.config().line_bytes);
        let entry = self.preds.lookup(at.set, at.way, inst);

        let next_pc = r.next_pc();
        let outcome = match entry.next {
            Some(ptr) => {
                if ptr.points_to(next_pc, cache) {
                    BreakOutcome::Correct
                } else {
                    // Wrong fetch. Decide misfetch vs mispredict from
                    // what the pointer *implied*:
                    match kind {
                        BreakKind::Conditional => {
                            // The pointer implies a direction: if it
                            // denotes the fall-through, the implied
                            // direction was not-taken, else taken.
                            let implied_taken = !denotes(ptr, r.pc.next(), cache);
                            if implied_taken == r.taken {
                                BreakOutcome::Misfetch // right way, stale line
                            } else {
                                BreakOutcome::Mispredict // one-bit direction miss
                            }
                        }
                        BreakKind::Unconditional | BreakKind::Call => BreakOutcome::Misfetch,
                        // No address to check against until execute.
                        BreakKind::IndirectJump | BreakKind::Return => BreakOutcome::Mispredict,
                    }
                }
            }
            None => {
                // Untrained: fetch falls through.
                match kind {
                    BreakKind::Conditional => {
                        if r.taken {
                            BreakOutcome::Mispredict // implied not-taken was wrong
                        } else {
                            BreakOutcome::Correct
                        }
                    }
                    BreakKind::Unconditional | BreakKind::Call => BreakOutcome::Misfetch,
                    BreakKind::IndirectJump | BreakKind::Return => BreakOutcome::Mispredict,
                }
            }
        };
        self.counters.record(outcome, kind);
        self.pending = Some(PendingSlot { set: at.set, way: at.way, inst });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front_end::Cell;
    use crate::spec::EngineSpec;

    /// Johnson's design with two successor pointers per line alone on
    /// `cache`.
    fn on(cache: CacheConfig) -> Cell {
        Cell::new(cache, &[EngineSpec::Johnson { preds_per_line: 2 }])
    }

    fn engine() -> Cell {
        on(CacheConfig::paper(8, 1))
    }

    fn step_branch(e: &mut Cell, r: &TraceRecord) -> BreakOutcome {
        let out = e.step(r).unwrap();
        e.step(&TraceRecord::sequential(r.next_pc()));
        out
    }

    fn cond(pc: u64, taken: bool, target: u64) -> TraceRecord {
        TraceRecord::branch(Addr::new(pc), BreakKind::Conditional, taken, Addr::new(target))
    }

    #[test]
    fn learns_a_stable_taken_branch() {
        let mut e = engine();
        let r = cond(0x100, true, 0x800);
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Mispredict); // untrained
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Correct);
    }

    #[test]
    fn one_bit_behaviour_flips_on_every_change() {
        let mut e = engine();
        let t = |tk| cond(0x100, tk, 0x800);
        step_branch(&mut e, &t(true)); // train: points at target
        assert_eq!(step_branch(&mut e, &t(false)), BreakOutcome::Mispredict);
        // Pointer now at fall-through; a taken execution mispredicts
        // again (this is the 1-bit ping-pong a 2-bit PHT avoids).
        assert_eq!(step_branch(&mut e, &t(true)), BreakOutcome::Mispredict);
        assert_eq!(step_branch(&mut e, &t(true)), BreakOutcome::Correct);
    }

    #[test]
    fn returns_have_no_stack_and_mispredict_on_new_callsites() {
        let mut e = engine();
        let ret1 =
            TraceRecord::branch(Addr::new(0x800), BreakKind::Return, true, Addr::new(0x104));
        let ret2 =
            TraceRecord::branch(Addr::new(0x800), BreakKind::Return, true, Addr::new(0x204));
        assert_eq!(step_branch(&mut e, &ret1), BreakOutcome::Mispredict);
        assert_eq!(step_branch(&mut e, &ret1), BreakOutcome::Correct); // same site again
        assert_eq!(step_branch(&mut e, &ret2), BreakOutcome::Mispredict); // new caller
    }

    #[test]
    fn cache_refill_destroys_the_pointer() {
        let cfg = CacheConfig::paper(8, 1);
        let mut e = on(cfg);
        let r = cond(0x100, true, 0x800);
        step_branch(&mut e, &r);
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Correct);
        e.step(&TraceRecord::sequential(Addr::new(0x100 + cfg.size_bytes)));
        assert_eq!(step_branch(&mut e, &r), BreakOutcome::Mispredict, "untrained after refill");
    }
}
