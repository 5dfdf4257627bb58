//! The fetch-engine abstraction and the misfetch/mispredict
//! classification rules shared by every architecture.
//!
//! Each engine models the paper's front end: an instruction cache
//! plus a fetch predictor (BTB, NLS-table, NLS-cache or Johnson
//! successor indices), a shared decoupled PHT for conditional
//! directions and a return-address stack. The cache and the PHT live
//! in the [`front_end`](crate::front_end): the cache in each cell's
//! half, the PHT in the half a walk's cells share. Per dynamic break the engine decides what the machine
//! *would have fetched next* (a [`FetchAction`]) and the classifier
//! turns that into one of the paper's penalty classes.
//!
//! Classification rules (paper §5.2, §7; a mispredicted branch is
//! never also counted as misfetched):
//!
//! * **conditional** — the decoupled PHT architecturally owns the
//!   direction: a wrong PHT direction is a *mispredict* (execute-time
//!   redirect); a right direction with a wrong fetch (missing/stale
//!   pointer, displaced target line) is a *misfetch* (decode-time
//!   redirect using the computed target).
//! * **unconditional / call** — the target is recomputable at
//!   decode, so any wrong fetch is a *misfetch*.
//! * **indirect jump** — the target is known only at execute, so any
//!   wrong fetch is a *mispredict*.
//! * **return** — if fetch used the return stack, a wrong stack
//!   entry is a *mispredict*; if fetch went elsewhere (predictor
//!   missed or aliased), decode identifies the return and redirects
//!   through the stack — *misfetch* when the stack is right,
//!   *mispredict* when it is not.

use nls_icache::InstructionCache;
use nls_predictors::{LinePointer, NlsEntry, NlsType, ReturnStack};
use nls_trace::{Addr, BreakKind, TraceRecord};

use crate::metrics::SimResult;

/// Penalty class of one dynamic break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakOutcome {
    /// The next instruction was fetched correctly.
    Correct,
    /// Wrong fetch, fixed at decode (one pipeline bubble).
    Misfetch,
    /// Wrong path, discovered at execute (full branch penalty).
    Mispredict,
}

/// What the front end chose to fetch after a break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchAction {
    /// The precomputed fall-through line.
    FallThrough,
    /// A cache location from an NLS pointer.
    CachePointer(LinePointer),
    /// A full target address (BTB).
    FullAddress(Addr),
    /// The popped top of the return stack (`None` on underflow).
    ReturnStack(Option<Addr>),
}

/// Per-break-kind event counts, indexed in [`BreakKind::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Dynamic breaks of this kind.
    pub breaks: u64,
    /// Misfetched breaks of this kind.
    pub misfetches: u64,
    /// Mispredicted breaks of this kind.
    pub mispredicts: u64,
}

/// Raw event counters accumulated by an engine (the instruction
/// count belongs to the front end that fetched the records).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Dynamic breaks.
    pub breaks: u64,
    /// Misfetched breaks.
    pub misfetches: u64,
    /// Mispredicted breaks.
    pub mispredicts: u64,
    /// Per-kind breakdown (conditional, indirect, unconditional,
    /// call, return), for the paper's §7 attribution analysis.
    pub by_kind: [KindCounts; 5],
}

impl Counters {
    /// Records one classified break of the given kind.
    ///
    /// `BreakKind::index()` is a constant-time match (no scan over
    /// `ALL`), and the outcome split compiles to two conditional
    /// increments — this sits on the per-break hot path of every
    /// engine, so it stays branch-light.
    #[inline]
    pub fn record(&mut self, outcome: BreakOutcome, kind: BreakKind) {
        self.breaks += 1;
        let misfetch = (outcome == BreakOutcome::Misfetch) as u64;
        let mispredict = (outcome == BreakOutcome::Mispredict) as u64;
        self.misfetches += misfetch;
        self.mispredicts += mispredict;
        // `index()` is `< ALL.len()` by construction, so the
        // breakdown never silently drops an event.
        if let Some(kc) = self.by_kind.get_mut(kind.index()) {
            kc.breaks += 1;
            kc.misfetches += misfetch;
            kc.mispredicts += mispredict;
        }
    }
}

/// One fetch engine alone on a front end of its own, as
/// [`EngineSpec::build`](crate::EngineSpec::build) returns it: a
/// [`Cell`](crate::Cell) of one spec.
pub trait FetchEngine {
    /// Feeds one dynamic instruction through the front end.
    /// Returns the penalty classification for breaks.
    fn step(&mut self, r: &TraceRecord) -> Option<BreakOutcome>;

    /// Feeds a whole block of dynamic instructions through the front
    /// end, in order: observably identical to calling
    /// [`step`](FetchEngine::step) on every record in sequence, but
    /// with the front end's run scan.
    fn step_block(&mut self, block: &[TraceRecord]);

    /// Packages the accumulated counters as a [`SimResult`].
    fn result(&self, bench: &str) -> SimResult;

    /// Approximate bytes of simulation state this engine holds (cache
    /// arrays, predictor tables), computed from the configured
    /// geometry: what the heap budget in [`Budget`](crate::Budget)
    /// compares against its limit.
    fn approx_heap_bytes(&self) -> u64;
}

/// The fetch-time choice an NLS predictor entry makes, table or
/// cache-coupled alike: the type field selects the return stack, the
/// pointer gated by `dir` (the PHT's direction), or the pointer
/// outright.
pub(crate) fn nls_action(entry: NlsEntry, dir: bool, ras: &mut ReturnStack) -> FetchAction {
    match entry.ty {
        NlsType::Invalid => FetchAction::FallThrough,
        NlsType::Return => FetchAction::ReturnStack(ras.pop()),
        NlsType::Conditional if !dir => FetchAction::FallThrough,
        NlsType::Conditional | NlsType::Other => FetchAction::CachePointer(entry.ptr),
    }
}

/// Resolves break `r` for an engine with a PHT and a return stack:
/// classifies the fetch `action` against `dir`, the direction the
/// engine's PHT predicted before training on `r`, then pushes a
/// call's return address. `cache` is `None` for an engine whose
/// actions never point into the cache.
pub(crate) fn resolve(
    r: &TraceRecord,
    kind: BreakKind,
    action: FetchAction,
    dir: bool,
    ras: &mut ReturnStack,
    cache: Option<&InstructionCache>,
) -> BreakOutcome {
    let pht_dir = (kind == BreakKind::Conditional).then_some(dir);
    let outcome = classify(r, kind, action, pht_dir, ras, cache);
    if kind == BreakKind::Call {
        ras.push(r.pc.next());
    }
    outcome
}

/// Whether `action` fetches the instruction control actually
/// transferred to; a cache pointer needs the `cache` it points into.
pub(crate) fn action_fetches_correctly(
    action: FetchAction,
    r: &TraceRecord,
    cache: Option<&InstructionCache>,
) -> bool {
    match action {
        FetchAction::FallThrough => !r.taken,
        FetchAction::CachePointer(p) => {
            r.taken && cache.is_some_and(|c| p.points_to(r.target, c))
        }
        FetchAction::FullAddress(a) => r.taken && a == r.target,
        FetchAction::ReturnStack(v) => r.taken && v == Some(r.target),
    }
}

/// Applies the classification rules. `pht_dir` is the decoupled
/// PHT's direction prediction and must be `Some` for conditional
/// breaks. Pops `ras` at decode when a return was fetched through
/// anything other than the return stack.
pub(crate) fn classify(
    r: &TraceRecord,
    kind: BreakKind,
    action: FetchAction,
    pht_dir: Option<bool>,
    ras: &mut ReturnStack,
    cache: Option<&InstructionCache>,
) -> BreakOutcome {
    let fetched_ok = action_fetches_correctly(action, r, cache);
    match kind {
        BreakKind::Conditional => {
            // Every engine supplies a direction for conditionals; if
            // one ever forgot, degrading to a static not-taken
            // prediction keeps the classification total.
            let dir = pht_dir.unwrap_or(false);
            if dir != r.taken {
                BreakOutcome::Mispredict
            } else if fetched_ok {
                BreakOutcome::Correct
            } else {
                BreakOutcome::Misfetch
            }
        }
        BreakKind::Unconditional | BreakKind::Call => {
            if fetched_ok {
                BreakOutcome::Correct
            } else {
                BreakOutcome::Misfetch
            }
        }
        BreakKind::IndirectJump => {
            if fetched_ok {
                BreakOutcome::Correct
            } else {
                BreakOutcome::Mispredict
            }
        }
        BreakKind::Return => match action {
            FetchAction::ReturnStack(v) => {
                if v == Some(r.target) {
                    BreakOutcome::Correct
                } else {
                    BreakOutcome::Mispredict
                }
            }
            _ => {
                // Fetch went elsewhere; decode identifies the return
                // and redirects through the stack.
                let v = ras.pop();
                if fetched_ok {
                    BreakOutcome::Correct
                } else if v == Some(r.target) {
                    BreakOutcome::Misfetch
                } else {
                    BreakOutcome::Mispredict
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nls_icache::CacheConfig;

    fn cache_with(addr: Addr) -> InstructionCache {
        let mut c = InstructionCache::new(CacheConfig::paper(8, 1));
        c.access(addr);
        c
    }

    fn taken_cond(target: Addr) -> TraceRecord {
        TraceRecord::branch(Addr::new(0x100), BreakKind::Conditional, true, target)
    }

    #[test]
    fn wrong_direction_is_mispredict_even_with_right_fetch() {
        let t = Addr::new(0x2000);
        let cache = cache_with(t);
        let p = LinePointer::locate(t, &cache).unwrap();
        let r = taken_cond(t);
        let mut ras = ReturnStack::paper();
        let out = classify(
            &r,
            BreakKind::Conditional,
            FetchAction::CachePointer(p),
            Some(false), // PHT said not-taken
            &mut ras,
            Some(&cache),
        );
        assert_eq!(out, BreakOutcome::Mispredict);
    }

    #[test]
    fn right_direction_wrong_pointer_is_misfetch() {
        let t = Addr::new(0x2000);
        let cache = cache_with(t);
        let stale = LinePointer { set: 1, way: 0, inst: 0 };
        let out = classify(
            &taken_cond(t),
            BreakKind::Conditional,
            FetchAction::CachePointer(stale),
            Some(true),
            &mut ReturnStack::paper(),
            Some(&cache),
        );
        assert_eq!(out, BreakOutcome::Misfetch);
    }

    #[test]
    fn right_direction_right_pointer_is_correct() {
        let t = Addr::new(0x2000);
        let cache = cache_with(t);
        let p = LinePointer::locate(t, &cache).unwrap();
        let out = classify(
            &taken_cond(t),
            BreakKind::Conditional,
            FetchAction::CachePointer(p),
            Some(true),
            &mut ReturnStack::paper(),
            Some(&cache),
        );
        assert_eq!(out, BreakOutcome::Correct);
    }

    #[test]
    fn not_taken_fall_through_is_correct() {
        let cache = InstructionCache::new(CacheConfig::paper(8, 1));
        let r = TraceRecord::branch(
            Addr::new(0x100),
            BreakKind::Conditional,
            false,
            Addr::new(0x2000),
        );
        let out = classify(
            &r,
            BreakKind::Conditional,
            FetchAction::FallThrough,
            Some(false),
            &mut ReturnStack::paper(),
            Some(&cache),
        );
        assert_eq!(out, BreakOutcome::Correct);
    }

    #[test]
    fn unconditional_wrong_fetch_is_misfetch() {
        let cache = InstructionCache::new(CacheConfig::paper(8, 1));
        let r = TraceRecord::branch(
            Addr::new(0x100),
            BreakKind::Unconditional,
            true,
            Addr::new(0x2000),
        );
        let out = classify(
            &r,
            BreakKind::Unconditional,
            FetchAction::FallThrough,
            None,
            &mut ReturnStack::paper(),
            Some(&cache),
        );
        assert_eq!(out, BreakOutcome::Misfetch);
    }

    #[test]
    fn indirect_wrong_fetch_is_mispredict() {
        let cache = InstructionCache::new(CacheConfig::paper(8, 1));
        let r = TraceRecord::branch(
            Addr::new(0x100),
            BreakKind::IndirectJump,
            true,
            Addr::new(0x2000),
        );
        let out = classify(
            &r,
            BreakKind::IndirectJump,
            FetchAction::FullAddress(Addr::new(0x3000)),
            None,
            &mut ReturnStack::paper(),
            Some(&cache),
        );
        assert_eq!(out, BreakOutcome::Mispredict);
    }

    #[test]
    fn return_through_correct_stack_is_correct() {
        let cache = InstructionCache::new(CacheConfig::paper(8, 1));
        let r =
            TraceRecord::branch(Addr::new(0x100), BreakKind::Return, true, Addr::new(0x2004));
        let out = classify(
            &r,
            BreakKind::Return,
            FetchAction::ReturnStack(Some(Addr::new(0x2004))),
            None,
            &mut ReturnStack::paper(),
            Some(&cache),
        );
        assert_eq!(out, BreakOutcome::Correct);
    }

    #[test]
    fn return_missed_by_predictor_with_good_stack_is_misfetch() {
        let cache = InstructionCache::new(CacheConfig::paper(8, 1));
        let r =
            TraceRecord::branch(Addr::new(0x100), BreakKind::Return, true, Addr::new(0x2004));
        let mut ras = ReturnStack::paper();
        ras.push(Addr::new(0x2004));
        let out = classify(
            &r,
            BreakKind::Return,
            FetchAction::FallThrough,
            None,
            &mut ras,
            Some(&cache),
        );
        assert_eq!(out, BreakOutcome::Misfetch);
        assert_eq!(ras.depth(), 0, "decode redirect popped the stack");
    }

    #[test]
    fn return_with_empty_stack_is_mispredict() {
        let cache = InstructionCache::new(CacheConfig::paper(8, 1));
        let r =
            TraceRecord::branch(Addr::new(0x100), BreakKind::Return, true, Addr::new(0x2004));
        let out = classify(
            &r,
            BreakKind::Return,
            FetchAction::ReturnStack(None),
            None,
            &mut ReturnStack::paper(),
            Some(&cache),
        );
        assert_eq!(out, BreakOutcome::Mispredict);
    }

    #[test]
    fn counters_accumulate_globally_and_per_kind() {
        let mut c = Counters::default();
        c.record(BreakOutcome::Correct, BreakKind::Conditional);
        c.record(BreakOutcome::Misfetch, BreakKind::Conditional);
        c.record(BreakOutcome::Mispredict, BreakKind::IndirectJump);
        assert_eq!(c.breaks, 3);
        assert_eq!(c.misfetches, 1);
        assert_eq!(c.mispredicts, 1);
        // BreakKind::ALL order: conditional first, indirect second.
        assert_eq!(c.by_kind[0].breaks, 2);
        assert_eq!(c.by_kind[0].misfetches, 1);
        assert_eq!(c.by_kind[1].mispredicts, 1);
        let total: u64 = c.by_kind.iter().map(|k| k.breaks).sum();
        assert_eq!(total, c.breaks);
    }
}
