//! Pass 10: lock acquisition discipline on the concurrency substrate.
//!
//! The sweep worker pool and the serve registry share `std::sync::Mutex`
//! state, and the ledger serialises multi-process access through an
//! advisory `.lock` file (`acquire_lock`/`LedgerLock`). Three ways to
//! misuse them:
//!
//! * **held across a blocking sink** — an in-process mutex guard that
//!   stays live across `sync_all`/`sync_data` or a subprocess
//!   `wait*` stalls every contender on disk or child-process latency
//!   (the checkpoint-flush bug class this pass was built from);
//! * **double-acquire on a path** — re-locking a non-reentrant lock
//!   the same CFG path already holds deadlocks immediately;
//! * **acquisition cycles** — lock A taken under lock B in one
//!   function and B under A in another deadlocks two threads; edges
//!   are collected across the call graph (a call made under a lock
//!   contributes the locks of its whole callee subtree).
//!
//! Mechanics: guard facts are *generated* at `.lock()`/`.read()`/
//! `.write()` (empty argument lists — `RwLock`/`Mutex` style) and at
//! `acquire_lock(..)` (the ledger file lock), *killed* at `drop(g)`
//! or the guard's lexical scope end (next enclosing `}`; unnamed
//! temporaries die at the end of their statement or condition), and
//! propagated forward over the CFG by union. A condition-variable wait
//! that takes the guard (`cv.wait(g)`, `cv.wait_timeout_while(g, ..)`)
//! releases the lock while it blocks, so it is not a held-across
//! sink for that guard. Lock identity is the
//! receiver chain's text (`self.slots`, `cp`) — name-keyed across
//! functions, which is what makes cycle detection possible without
//! types and is also the main soundness caveat (same-named receivers
//! in unrelated types alias).
//!
//! The ledger file lock is deliberately *exempt* from the
//! held-across-fsync finding: holding it across `write_atomic` IS
//! the read-modify-write protocol (DESIGN.md §8.3); it still
//! participates in double-acquire and cycle findings.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::Cfg;
use crate::dataflow::{solve, Dir, Meet};
use crate::lexer::{Tok, TokKind};
use crate::parser::{call_sites, ItemKind};
use crate::rules::{PathStep, Violation};
use crate::symbols::{lookup, FnId};

use super::{Analysis, Pass};

pub struct LockOrder;

/// Blocking sinks a guard must not be held across: fsync and
/// subprocess/condvar waits. (`join` is excluded on purpose:
/// `Path::join` would alias it receiver-blind.)
const SINKS: [&str; 5] = ["sync_all", "sync_data", "wait", "wait_with_output", "wait_timeout"];

/// One live-lock fact inside a function.
struct Guard {
    /// Canonical lock name: the receiver chain (`self.slots`, `cp`),
    /// or [`FILE_LOCK`] for the ledger `.lock` file.
    lock: String,
    /// Token index of the acquire.
    tok: usize,
    line: u32,
    /// Token index past which the guard is dead (scope `}` for `let`
    /// bindings, end of statement/condition for temporaries).
    scope_end: usize,
    /// Token index of an explicit `drop(guard)`, if any.
    drop_tok: Option<usize>,
    file_lock: bool,
}

/// The shared identity of every ledger `.lock` acquisition.
const FILE_LOCK: &str = "ledger .lock file";

impl Pass for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }
    fn exit_code(&self) -> u8 {
        27
    }
    fn summary(&self) -> &'static str {
        "lock acquisitions are cycle-free, never re-entered, and not held across fsync/wait"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        let sinks = sink_reachers(a);
        let subtree = subtree_locks(a);
        // Cross-function lock-order edges: lock -> lock with the
        // witness site of the inner acquisition.
        let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
        for (fi, file) in a.files.iter().enumerate() {
            let Some(src) = a.sources.get(fi) else { continue };
            if src.is_test_file() {
                continue;
            }
            for (ii, it) in file.items.iter().enumerate() {
                if it.kind != ItemKind::Fn || it.is_test || it.body.0 >= it.body.1 {
                    continue;
                }
                let guards = find_guards(&src.code, it.body);
                if guards.is_empty() {
                    continue;
                }
                let cfg = Cfg::build(&src.code, it.body);
                let live = live_guards(&cfg, &src.code, &guards);
                self.check_fn(a, (fi, ii), &guards, &cfg, &live, &sinks, out);
                collect_edges(a, (fi, ii), &guards, &cfg, &live, &subtree, &mut edges);
            }
        }
        report_cycles(self.id(), &edges, out);
        out.sort_by(|x, y| (&x.file, x.line, &x.message).cmp(&(&y.file, y.line, &y.message)));
        out.dedup_by(|x, y| x.file == y.file && x.line == y.line && x.message == y.message);
    }
}

/// Per-block live fact indices at block entry (forward may-analysis),
/// with kills applied for scope ends and drops inside each block.
fn live_guards(cfg: &Cfg, code: &[Tok], guards: &[Guard]) -> Vec<BTreeSet<usize>> {
    let universe: BTreeSet<usize> = (0..guards.len()).collect();
    let _ = code;
    let flow = solve(cfg, Dir::Forward, Meet::Union, &universe, &|b, facts| {
        let Some(blk) = cfg.blocks.get(b) else { return facts.clone() };
        let mut f: BTreeSet<usize> = facts
            .iter()
            .copied()
            .filter(|&g| {
                guards.get(g).is_none_or(|gd| {
                    let killed =
                        gd.scope_end < blk.hi || gd.drop_tok.is_some_and(|d| d < blk.hi);
                    !killed
                })
            })
            .collect();
        for (gi, g) in guards.iter().enumerate() {
            if blk.lo <= g.tok && g.tok < blk.hi {
                let killed_here =
                    g.scope_end < blk.hi || g.drop_tok.is_some_and(|d| d < blk.hi);
                if !killed_here {
                    f.insert(gi);
                }
            }
        }
        f
    });
    flow.inp
}

impl LockOrder {
    /// Held-across-blocking and double-acquire findings within one
    /// function.
    #[allow(clippy::too_many_arguments)]
    fn check_fn(
        &self,
        a: &Analysis,
        id: FnId,
        guards: &[Guard],
        cfg: &Cfg,
        live: &[BTreeSet<usize>],
        sinks: &BTreeMap<FnId, FnId>,
        out: &mut Vec<Violation>,
    ) {
        let Some(src) = a.source_of(id) else { return };
        let Some(it) = a.files.get(id.0).and_then(|f| f.items.get(id.1)) else { return };
        // Double-acquire: a guard generated while a same-named one is
        // already live on the path (or earlier in the same block).
        for (gi, g) in guards.iter().enumerate() {
            if src.is_test_code(g.line) || src.is_suppressed("lock-order", g.line) {
                continue;
            }
            for (oi, o) in guards.iter().enumerate() {
                if oi == gi || o.lock != g.lock {
                    continue;
                }
                if holds_at(cfg, live, guards, oi, g.tok) {
                    let _ = oi;
                    out.push(Violation {
                        rule: "lock-order",
                        path: witness(
                            src,
                            &[
                                (o.line, format!("`{}` first acquired", o.lock)),
                                (g.line, "re-acquired while still held".to_string()),
                            ],
                        ),
                        file: src.rel.clone(),
                        line: g.line,
                        message: format!(
                            "`{}` re-acquired in `{}` while the acquisition at line {} is \
                             still held on this path — the lock is not reentrant, this \
                             deadlocks",
                            g.lock,
                            it.qual(),
                            o.line
                        ),
                    });
                }
            }
        }
        // Held across a blocking sink.
        for call in call_sites(&src.code, it.body) {
            if call.is_macro
                || src.is_test_code(call.line)
                || src.is_suppressed("lock-order", call.line)
            {
                continue;
            }
            let direct = call.is_method && SINKS.contains(&call.name.as_str());
            let resolved_sink = if direct {
                None
            } else {
                a.symbols
                    .resolve(&call, it.owner.as_deref())
                    .into_iter()
                    .find(|callee| sinks.contains_key(callee))
            };
            if !direct && resolved_sink.is_none() {
                continue;
            }
            let Some(ct) = token_at(&src.code, it.body, call.line, &call.name) else {
                continue;
            };
            for (gi, g) in guards.iter().enumerate() {
                if g.file_lock
                    || !holds_at(cfg, live, guards, gi, ct)
                    || (direct && waits_on_guard(&src.code, it.body, ct, g))
                {
                    continue;
                }
                let mut steps = vec![(g.line, format!("`{}` acquired", g.lock))];
                let mut tail = String::new();
                if let Some(callee) = resolved_sink {
                    let mut chain = sink_chain(a, sinks, callee);
                    // The chain starts at the callee; drop it when it
                    // duplicates the call name so a helper that
                    // fsyncs directly reads `helper -> sync_all`, not
                    // `helper -> helper -> sync_all`.
                    if chain.first().is_some_and(|c| c == &call.name) {
                        chain.remove(0);
                    }
                    if !chain.is_empty() {
                        tail = format!(" ({} -> {})", call.name, chain.join(" -> "));
                    }
                }
                steps.push((call.line, format!("blocking call `{}` while held", call.name)));
                out.push(Violation {
                    rule: "lock-order",
                    path: witness(src, &steps),
                    file: src.rel.clone(),
                    line: call.line,
                    message: format!(
                        "`{}` (acquired at line {}) is held across blocking call \
                         `{}`{tail} in `{}` — fsync/wait under a lock stalls every \
                         contender; drop the guard first",
                        g.lock,
                        g.line,
                        call.name,
                        it.qual()
                    ),
                });
            }
        }
    }
}

/// Is the call at `call` a condition-variable wait handed guard `g`
/// (`cv.wait(g)`, `cv.wait_timeout(g, ..)`, `cv.wait_while(g, ..)`)?
/// The wait releases the lock while it blocks and re-takes it before
/// returning, so the guard is not held across it.
fn waits_on_guard(code: &[Tok], body: (usize, usize), call: usize, g: &Guard) -> bool {
    let is_wait = code.get(call).is_some_and(|t| t.text.starts_with("wait"));
    let Some(name) = binding_of(code, body, g.tok) else { return false };
    let Some(close) = call_close(code, call) else { return false };
    is_wait && code.get(call + 2).is_some_and(|t| t.is_ident(&name)) && call + 2 < close
}

/// Does guard `gi` hold at token index `t`? Live-at-block-entry (from
/// the dataflow), or generated earlier in the same block — and not
/// yet dead by scope end or an explicit drop before `t`.
fn holds_at(
    cfg: &Cfg,
    live: &[BTreeSet<usize>],
    guards: &[Guard],
    gi: usize,
    t: usize,
) -> bool {
    let Some(g) = guards.get(gi) else { return false };
    if g.scope_end <= t || g.drop_tok.is_some_and(|d| d <= t) {
        return false;
    }
    let Some(b) = cfg.block_of(t) else { return false };
    if live.get(b).is_some_and(|f| f.contains(&gi)) {
        return true;
    }
    // Same-block generation before `t`.
    cfg.blocks.get(b).is_some_and(|blk| blk.lo <= g.tok && g.tok < t)
}

/// Lock-acquisition sites in a body span.
fn find_guards(code: &[Tok], body: (usize, usize)) -> Vec<Guard> {
    let mut out = Vec::new();
    for i in body.0..body.1 {
        let Some(t) = code.get(i) else { break };
        if t.kind != TokKind::Ident {
            continue;
        }
        let empty_call = code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 2).is_some_and(|n| n.is_punct(')'));
        let is_mutex_acquire = matches!(t.text.as_str(), "lock" | "read" | "write")
            && empty_call
            && code.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'));
        let is_file_acquire =
            t.is_ident("acquire_lock") && code.get(i + 1).is_some_and(|n| n.is_punct('('));
        if !is_mutex_acquire && !is_file_acquire {
            continue;
        }
        let lock = if is_file_acquire {
            FILE_LOCK.to_string()
        } else {
            receiver_chain(code, i, body.0)
        };
        let scope_end = guard_scope_end(code, body, i);
        out.push(Guard {
            lock,
            tok: i,
            line: t.line,
            scope_end,
            drop_tok: None,
            file_lock: is_file_acquire,
        });
    }
    // Explicit `drop(guard)` kills: match by the bound guard name.
    for i in body.0..body.1 {
        let Some(t) = code.get(i) else { break };
        if !t.is_ident("drop") || !code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let Some(arg) = code.get(i + 2).filter(|a| a.kind == TokKind::Ident) else { continue };
        if !code.get(i + 3).is_some_and(|n| n.is_punct(')')) {
            continue;
        }
        for g in &mut out {
            if g.drop_tok.is_none()
                && g.tok < i
                && binding_of(code, body, g.tok).as_deref() == Some(arg.text.as_str())
            {
                g.drop_tok = Some(i);
            }
        }
    }
    out
}

/// The receiver chain text before a `.lock()` at `dot_method`:
/// `self.slots.lock()` -> `"self.slots"`, `cp.lock()` -> `"cp"`.
fn receiver_chain(code: &[Tok], method: usize, lo: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut k = method; // points at the method ident; step back over `.`
    loop {
        if k <= lo + 1 {
            break;
        }
        if !code.get(k - 1).is_some_and(|p| p.is_punct('.')) {
            break;
        }
        let Some(prev) = code.get(k - 2).filter(|p| p.kind == TokKind::Ident) else { break };
        parts.push(prev.text.clone());
        k -= 2;
    }
    parts.reverse();
    if parts.is_empty() {
        "<expr>".to_string()
    } else {
        parts.join(".")
    }
}

/// The `let` binding name of the statement containing `tok`, if the
/// statement is `let [mut] NAME = ..`.
fn binding_of(code: &[Tok], body: (usize, usize), tok: usize) -> Option<String> {
    let start = stmt_start(code, body, tok);
    let mut k = start;
    if code.get(k).is_some_and(|t| t.is_ident("let")) {
        k += 1;
        if code.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let name = code.get(k).filter(|t| t.kind == TokKind::Ident)?;
        if code.get(k + 1).is_some_and(|t| t.is_punct('=') || t.is_punct(':')) {
            return Some(name.text.clone());
        }
    }
    None
}

/// Start of the statement containing `tok`: just past the previous
/// `;`, `{` or `}` in the body.
fn stmt_start(code: &[Tok], body: (usize, usize), tok: usize) -> usize {
    let mut k = tok;
    while k > body.0 {
        let Some(t) = code.get(k - 1) else { break };
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        k -= 1;
    }
    k
}

/// Where the guard born at `tok` dies lexically: for `let` bindings,
/// the enclosing `}`; for temporaries, the end of the statement (next
/// depth-0 `;`) or of the condition (next `{` outside parens) —
/// whichever comes first.
///
/// An acquisition that is immediately *chained on*
/// (`cp.lock().to_json()`) is a temporary even under a `let`: the
/// chained call borrows the guard within the statement and the `let`
/// binds the chain's result, not the guard. Poison recovery
/// (`.lock().unwrap_or_else(PoisonError::into_inner)`) re-yields the
/// guard, so it is looked through, not counted as a chain.
fn guard_scope_end(code: &[Tok], body: (usize, usize), tok: usize) -> usize {
    let mut close = call_close(code, tok);
    while let Some(c) = close {
        let recovers = code.get(c + 1).is_some_and(|n| n.is_punct('.'))
            && code.get(c + 2).is_some_and(|n| n.is_ident("unwrap_or_else"));
        if !recovers {
            break;
        }
        close = call_close(code, c + 2);
    }
    let chained =
        close.is_some_and(|close| code.get(close + 1).is_some_and(|n| n.is_punct('.')));
    let named = !chained && binding_of(code, body, tok).is_some();
    if named {
        return enclosing_brace_close(code, body, tok);
    }
    let mut depth = 0i64;
    for k in tok..body.1 {
        let Some(t) = code.get(k) else { break };
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth <= 0 && (t.is_punct(';') || t.is_punct('{')) {
            return k;
        }
    }
    body.1
}

/// The `)` closing the call whose name is at `tok`, if `tok + 1`
/// opens one.
fn call_close(code: &[Tok], tok: usize) -> Option<usize> {
    if !code.get(tok + 1).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    let mut depth = 0i64;
    for k in tok + 1..code.len() {
        let t = code.get(k)?;
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// The `}` closing the innermost brace scope containing `tok`.
fn enclosing_brace_close(code: &[Tok], body: (usize, usize), tok: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let mut best = body.1;
    for k in body.0..body.1 {
        let Some(t) = code.get(k) else { break };
        if t.is_punct('{') {
            stack.push(k);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                if open < tok && tok < k && k < best {
                    best = k;
                }
            }
        }
    }
    best
}

/// Functions that (transitively) reach a direct blocking sink, as a
/// predecessor map toward the sink for witness paths.
fn sink_reachers(a: &Analysis) -> BTreeMap<FnId, FnId> {
    let mut direct: Vec<FnId> = Vec::new();
    for (fi, file) in a.files.iter().enumerate() {
        let Some(src) = a.sources.get(fi) else { continue };
        for (ii, it) in file.items.iter().enumerate() {
            if it.kind != ItemKind::Fn || it.is_test {
                continue;
            }
            let has_sink = call_sites(&src.code, it.body)
                .iter()
                .any(|c| c.is_method && !c.is_macro && SINKS.contains(&c.name.as_str()));
            if has_sink {
                direct.push((fi, ii));
            }
        }
    }
    // Reverse BFS: next[f] = the callee on f's path toward a sink.
    let mut next: BTreeMap<FnId, FnId> = direct.iter().map(|&d| (d, d)).collect();
    let mut frontier = direct;
    let all_fns: Vec<FnId> = a
        .files
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| {
            f.items
                .iter()
                .enumerate()
                .filter(|(_, it)| it.kind == ItemKind::Fn && !it.is_test)
                .map(move |(ii, _)| (fi, ii))
        })
        .collect();
    while let Some(target) = frontier.pop() {
        for &caller in &all_fns {
            if next.contains_key(&caller) {
                continue;
            }
            if a.graph.edges_from(caller).iter().any(|e| e.callee == target) {
                next.insert(caller, target);
                frontier.push(caller);
            }
        }
    }
    next
}

/// The call chain from `from` to its blocking sink, as qualified
/// names (excluding `from` itself).
fn sink_chain(a: &Analysis, sinks: &BTreeMap<FnId, FnId>, from: FnId) -> Vec<String> {
    let mut chain = Vec::new();
    let mut cur = from;
    for _ in 0..sinks.len() + 1 {
        if let Some((_, it)) = crate::symbols::lookup(&a.files, cur) {
            chain.push(it.qual());
        }
        match sinks.get(&cur) {
            Some(&n) if n != cur => cur = n,
            _ => break,
        }
    }
    // End at the concrete sink method so the chain reads all the way
    // to the blocking call (`... -> write_atomic -> sync_all`).
    if let Some((src, it)) = a.source_of(cur).zip(lookup(&a.files, cur).map(|(_, it)| it)) {
        if let Some(sink) = call_sites(&src.code, it.body)
            .into_iter()
            .find(|c| c.is_method && !c.is_macro && SINKS.contains(&c.name.as_str()))
        {
            chain.push(sink.name);
        }
    }
    chain
}

/// Per-function sets of lock names acquired anywhere in the callee
/// subtree (including the function itself).
fn subtree_locks(a: &Analysis) -> BTreeMap<FnId, BTreeSet<String>> {
    let mut own: BTreeMap<FnId, BTreeSet<String>> = BTreeMap::new();
    for (fi, file) in a.files.iter().enumerate() {
        let Some(src) = a.sources.get(fi) else { continue };
        for (ii, it) in file.items.iter().enumerate() {
            if it.kind != ItemKind::Fn || it.is_test {
                continue;
            }
            let locks: BTreeSet<String> =
                find_guards(&src.code, it.body).into_iter().map(|g| g.lock).collect();
            if !locks.is_empty() {
                own.insert((fi, ii), locks);
            }
        }
    }
    // Propagate up the call graph to a fixed point.
    let mut full = own.clone();
    let mut changed = true;
    while changed {
        changed = false;
        let snapshot = full.clone();
        for (caller, graph_edges) in a
            .files
            .iter()
            .enumerate()
            .flat_map(|(fi, f)| f.items.iter().enumerate().map(move |(ii, _)| (fi, ii)))
            .map(|id| (id, a.graph.edges_from(id)))
        {
            for e in graph_edges {
                let Some(callee_locks) = snapshot.get(&e.callee) else { continue };
                let entry = full.entry(caller).or_default();
                for l in callee_locks {
                    if entry.insert(l.clone()) {
                        changed = true;
                    }
                }
            }
        }
    }
    full
}

/// Records lock-order edges `held -> acquired` from one function.
#[allow(clippy::too_many_arguments)]
fn collect_edges(
    a: &Analysis,
    id: FnId,
    guards: &[Guard],
    cfg: &Cfg,
    live: &[BTreeSet<usize>],
    subtree: &BTreeMap<FnId, BTreeSet<String>>,
    edges: &mut BTreeMap<(String, String), (String, u32)>,
) {
    let Some(src) = a.source_of(id) else { return };
    let Some(it) = a.files.get(id.0).and_then(|f| f.items.get(id.1)) else { return };
    // Direct: a second lock acquired while another is held.
    for (gi, g) in guards.iter().enumerate() {
        for (oi, o) in guards.iter().enumerate() {
            if oi == gi || o.lock == g.lock {
                continue;
            }
            if holds_at(cfg, live, guards, oi, g.tok) {
                edges
                    .entry((o.lock.clone(), g.lock.clone()))
                    .or_insert_with(|| (src.rel.clone(), g.line));
            }
        }
    }
    // Interprocedural: a call made under a lock contributes every
    // lock of the callee subtree.
    for call in call_sites(&src.code, it.body) {
        if call.is_macro {
            continue;
        }
        let Some(ct) = token_at(&src.code, it.body, call.line, &call.name) else { continue };
        let held: Vec<&Guard> = guards
            .iter()
            .enumerate()
            .filter(|&(oi, _)| holds_at(cfg, live, guards, oi, ct))
            .map(|(_, o)| o)
            .collect();
        if held.is_empty() {
            continue;
        }
        for callee in a.symbols.resolve(&call, it.owner.as_deref()) {
            let Some(inner) = subtree.get(&callee) else { continue };
            for l in inner {
                for h in &held {
                    if *l != h.lock {
                        edges
                            .entry((h.lock.clone(), l.clone()))
                            .or_insert_with(|| (src.rel.clone(), call.line));
                    }
                }
            }
        }
    }
}

/// Reports each two-lock cycle in the acquisition graph once.
fn report_cycles(
    rule: &'static str,
    edges: &BTreeMap<(String, String), (String, u32)>,
    out: &mut Vec<Violation>,
) {
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), (file, line)) in edges {
        let Some((rfile, rline)) = edges.get(&(b.clone(), a.clone())) else { continue };
        let key = if a < b { (a.clone(), b.clone()) } else { (b.clone(), a.clone()) };
        if !seen.insert(key) {
            continue;
        }
        out.push(Violation {
            rule,
            path: vec![
                PathStep {
                    file: file.clone(),
                    line: *line,
                    label: format!("`{b}` acquired under `{a}`"),
                },
                PathStep {
                    file: rfile.clone(),
                    line: *rline,
                    label: format!("`{a}` acquired under `{b}`"),
                },
            ],
            file: file.clone(),
            line: *line,
            message: format!(
                "lock-order cycle: `{a}` -> `{b}` here, but `{b}` -> `{a}` at \
                 {rfile}:{rline} — two threads interleaving these paths deadlock"
            ),
        });
    }
}

/// The token index of the call named `name` on `line` within `body`.
fn token_at(code: &[Tok], body: (usize, usize), line: u32, name: &str) -> Option<usize> {
    (body.0..body.1).find(|&i| code.get(i).is_some_and(|t| t.line == line && t.is_ident(name)))
}

/// Witness steps within one file.
fn witness(src: &crate::source::SourceFile, steps: &[(u32, String)]) -> Vec<PathStep> {
    steps
        .iter()
        .map(|(line, label)| PathStep {
            file: src.rel.clone(),
            line: *line,
            label: label.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(srcs: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<SourceFile> =
            srcs.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
        let a = Analysis::build(&sources);
        let mut out = Vec::new();
        LockOrder.check(&a, &mut out);
        out
    }

    #[test]
    fn a_guard_held_across_fsync_is_flagged() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn flush(s: &Store, f: &File) {\n    \
             let g = s.slots.lock();\n    \
             f.sync_all();\n    \
             drop(g);\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("sync_all"), "{v:?}");
        assert!(!v[0].path.is_empty(), "witness path attached: {v:?}");
    }

    #[test]
    fn dropping_the_guard_before_the_sink_is_clean() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn flush(s: &Store, f: &File) {\n    \
             let g = s.slots.lock();\n    \
             drop(g);\n    \
             f.sync_all();\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_chained_lock_call_is_a_temporary_not_a_held_guard() {
        // `cp.lock().to_json()` binds the chain's String result, not
        // the guard: the fsync after it runs lock-free.
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn run_save(cp: &Mutex<Checkpoint>, f: &File) -> R {\n    \
             let json = cp.lock().to_json();\n    \
             f.sync_all()?;\n    Ok(())\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_scoped_guard_dies_at_its_brace() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn flush(s: &Store, f: &File) {\n    \
             let text = {\n        let g = s.slots.lock();\n        g.render()\n    };\n    \
             f.sync_all();\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn double_acquire_on_one_path_is_flagged() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn twice(s: &Store) {\n    \
             let g = s.slots.lock();\n    \
             let h = s.slots.lock();\n    \
             drop(h);\n    drop(g);\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("re-acquired"), "{v:?}");
    }

    #[test]
    fn branch_exclusive_acquires_do_not_double() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn one_of(s: &Store, c: bool) {\n    \
             if c {\n        let g = s.slots.lock();\n        g.touch();\n    } \
             else {\n        let h = s.slots.lock();\n        h.touch();\n    }\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn opposite_acquisition_orders_form_a_cycle() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn ab(s: &Store) {\n    \
             let g = s.a.lock();\n    let h = s.b.lock();\n    drop(h);\n    drop(g);\n}\n\
             pub fn ba(s: &Store) {\n    \
             let h = s.b.lock();\n    let g = s.a.lock();\n    drop(g);\n    drop(h);\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("cycle"), "{v:?}");
    }

    #[test]
    fn consistent_order_everywhere_is_clean() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn ab(s: &Store) {\n    \
             let g = s.a.lock();\n    let h = s.b.lock();\n    drop(h);\n    drop(g);\n}\n\
             pub fn ab2(s: &Store) {\n    \
             let g = s.a.lock();\n    let h = s.b.lock();\n    drop(h);\n    drop(g);\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn the_ledger_file_lock_may_wrap_write_atomic() {
        // Holding the `.lock` file across fsync is the ledger's RMW
        // protocol, not a finding.
        let v = run(&[(
            "crates/core/src/ledger.rs",
            "impl LedgerFile {\n    fn update(&self, c: &CancelToken) -> R {\n        \
             let _lock = self.acquire_lock(c)?;\n        \
             self.save_locked()?;\n        Ok(())\n    }\n    \
             fn save_locked(&self) -> R {\n        \
             let f = open_tmp()?;\n        f.sync_all()?;\n        Ok(())\n    }\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_mutex_guard_held_across_a_resolved_fsync_callee_is_flagged() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn worker(s: &Store) {\n    \
             let g = s.slots.lock();\n    \
             persist(g.view());\n    \
             drop(g);\n}\n\
             fn persist(v: View) {\n    let f = open()?;\n    f.sync_all();\n}\n",
        )]);
        assert!(
            v.iter().any(|x| x.message.contains("persist")),
            "resolved callee chain flagged: {v:?}"
        );
    }
}
