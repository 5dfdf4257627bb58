//! Pass 2: determinism of simulation and metrics paths.
//!
//! The paper's tables must be bit-exact across runs and hosts, so
//! nothing reachable from an engine entry point or a metrics function
//! may observe a nondeterministic source: wall-clock time, thread
//! identity, unseeded randomness, process environment, or a
//! randomized hasher. (Unordered `HashMap` iteration is the lexical
//! `hash-order` rule's job; this pass covers the sources that hide
//! behind a call.)
//!
//! Unlike `panic-reach`, the roots here include every non-test
//! function in `crates/core/src/metrics.rs` — metrics aggregation
//! feeds the serialized tables directly, even when it is driven from
//! bench binaries rather than `Engine::step`.

use crate::parser::{CallSite, ItemKind};
use crate::rules::Violation;

use super::{Analysis, Pass};

pub struct Determinism;

/// The metrics surface is a determinism root alongside the engines.
const METRICS_FILE: &str = "crates/core/src/metrics.rs";

/// Maps a call site to the nondeterministic source it taps, if any.
fn nondet_marker(c: &CallSite) -> Option<&'static str> {
    match (c.qualifier.as_deref(), c.name.as_str()) {
        (Some("Instant"), "now") => Some("Instant::now (wall clock)"),
        (Some("SystemTime"), "now") => Some("SystemTime::now (wall clock)"),
        (Some("env"), "var" | "var_os" | "vars") => Some("std::env read"),
        (Some("thread"), "current") => Some("thread::current (thread identity)"),
        (Some("RandomState"), _) => Some("RandomState (randomized hasher)"),
        (Some("DefaultHasher"), _) => Some("DefaultHasher (randomized hasher)"),
        (_, "thread_rng" | "from_entropy") => Some("unseeded RNG"),
        _ => None,
    }
}

impl Pass for Determinism {
    fn id(&self) -> &'static str {
        "determinism"
    }
    fn exit_code(&self) -> u8 {
        19
    }
    fn summary(&self) -> &'static str {
        "no time/RNG/env/thread-identity source may be reachable from simulation or metrics paths"
    }

    fn check(&self, a: &Analysis, out: &mut Vec<Violation>) {
        let mut roots = a.entry_points();
        for (fi, file) in a.files.iter().enumerate() {
            if file.rel != METRICS_FILE {
                continue;
            }
            for (ii, it) in file.items.iter().enumerate() {
                if it.kind == ItemKind::Fn && !it.is_test {
                    roots.push((fi, ii));
                }
            }
        }
        let pred = a.graph.reach(&roots);
        for &id in pred.keys() {
            let Some(src) = a.source_of(id) else { continue };
            for call in a.graph.calls_in(id) {
                let Some(marker) = nondet_marker(call) else { continue };
                if src.is_suppressed(self.id(), call.line) {
                    continue;
                }
                let path = a.graph.path_to(&pred, id, &a.files);
                out.push(Violation {
                    rule: self.id(),
                    path: Vec::new(),
                    file: src.rel.clone(),
                    line: call.line,
                    message: format!(
                        "{marker} reachable from simulation/metrics path via {}",
                        path.join(" -> ")
                    ),
                });
            }
        }
    }
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
        Determinism.check(&a, &mut out);
        out
    }

    #[test]
    fn env_read_behind_a_helper_is_flagged() {
        let v = run(&[
            ("crates/core/src/sweep.rs", "pub fn run_sweep() { trace_len(); }\n"),
            (
                "crates/bench/src/lib.rs",
                "pub fn trace_len() -> u64 { std::env::var(\"N\").ok(); 0 }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("env read"), "{v:?}");
        assert!(v[0].message.contains("run_sweep -> trace_len"), "{v:?}");
    }

    #[test]
    fn metrics_fns_are_roots_too() {
        let v = run(&[(
            "crates/core/src/metrics.rs",
            "pub fn average() -> f64 { std::time::Instant::now(); 0.0 }\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("wall clock"), "{v:?}");
    }

    #[test]
    fn nondeterminism_off_the_simulation_path_is_fine() {
        let v = run(&[
            ("crates/core/src/sweep.rs", "pub fn run_sweep() {}\n"),
            (
                "crates/bench/src/lib.rs",
                "pub fn wall_time_banner() { std::time::Instant::now(); }\n",
            ),
        ]);
        assert!(v.is_empty(), "CLI banners may read the clock: {v:?}");
    }

    #[test]
    fn suppression_waives_a_site() {
        let v = run(&[(
            "crates/core/src/sweep.rs",
            "pub fn run_sweep() {\n    \
             // nls-lint: allow(determinism): timing banner only, never serialized\n    \
             let _ = std::time::Instant::now();\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
