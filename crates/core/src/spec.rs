//! Declarative engine specifications for sweeps.

use nls_icache::CacheConfig;
use nls_predictors::{BtbConfig, Pht, PhtIndexing};

use crate::btb_engine::BtbCore;
use crate::engine::FetchEngine;
use crate::front_end::BuiltEngine;
use crate::johnson_engine::JohnsonCore;
use crate::nls_cache_engine::NlsCacheCore;
use crate::nls_table_engine::NlsTableCore;

/// Which conditional direction predictor a spec'd engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhtSpec {
    /// The paper's 4096-entry gshare (default).
    Gshare,
    /// Pan et al. degenerate (history-only index).
    GlobalOnly,
    /// PC-indexed bimodal.
    Bimodal,
    /// McFarling combining predictor (gshare + bimodal + chooser).
    Tournament,
    /// Gshare with a custom size / counter width.
    Custom { entries: usize, counter_bits: u8, indexing: PhtIndexing },
}

impl PhtSpec {
    /// A short, stable identity string for run keys. Distinct specs
    /// must map to distinct keys; the format is part of the ledger
    /// schema, so change it only with a version bump.
    pub fn key(&self) -> String {
        match *self {
            PhtSpec::Gshare => "gshare".to_string(),
            PhtSpec::GlobalOnly => "global".to_string(),
            PhtSpec::Bimodal => "bimodal".to_string(),
            PhtSpec::Tournament => "tournament".to_string(),
            PhtSpec::Custom { entries, counter_bits, indexing } => {
                format!("custom{entries}x{counter_bits}-{indexing:?}")
            }
        }
    }

    /// The table this spec builds: entries, counter bits, indexing.
    fn geometry(self) -> (usize, u8, PhtIndexing) {
        match self {
            PhtSpec::Gshare => (4096, 2, PhtIndexing::Gshare),
            PhtSpec::GlobalOnly => (4096, 2, PhtIndexing::GlobalOnly),
            PhtSpec::Bimodal => (4096, 2, PhtIndexing::Bimodal),
            PhtSpec::Tournament => (4096, 2, PhtIndexing::Tournament),
            PhtSpec::Custom { entries, counter_bits, indexing } => {
                (entries, counter_bits, indexing)
            }
        }
    }

    pub(crate) fn build(self) -> Pht {
        let (entries, counter_bits, indexing) = self.geometry();
        Pht::new(entries, counter_bits, indexing)
    }
}

/// A buildable fetch-architecture description: everything needed to
/// instantiate an engine for a given instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineSpec {
    /// A decoupled BTB front end.
    Btb {
        /// BTB entries (128 or 256 in the paper).
        entries: usize,
        /// BTB associativity (1, 2 or 4).
        assoc: u32,
        /// Direction predictor.
        pht: PhtSpec,
        /// Policy ablation: evict a conditional branch's entry when it
        /// executes not-taken, instead of the paper's keep-the-entry
        /// policy ("we might need the taken target address again in
        /// the near future", §3).
        evict_not_taken: bool,
    },
    /// The decoupled NLS-table front end.
    NlsTable {
        /// Table entries (512, 1024 or 2048 in the paper).
        entries: usize,
        /// Direction predictor.
        pht: PhtSpec,
        /// Drops the predecode-bit assumption (§4): with
        /// `Some(entries)`, instruction types are predicted at fetch by
        /// a tag-less table of that many one-bit entries instead of
        /// being known from the encoding. A break predicted as
        /// non-branch falls through (costing the usual penalty), and a
        /// *sequential* instruction predicted as a branch whose shared
        /// NLS entry would redirect costs one extra misfetch bubble,
        /// counted in [`SimResult::misfetches`](crate::SimResult::misfetches) (so
        /// misfetches + mispredicts may exceed the break count).
        type_table: Option<usize>,
    },
    /// The coupled NLS-cache front end.
    NlsCache {
        /// Predictors per cache line (1, 2 or 4).
        preds_per_line: u32,
        /// Direction predictor.
        pht: PhtSpec,
    },
    /// Johnson's coupled successor-index design (no PHT, no RAS).
    Johnson {
        /// Predictors per cache line.
        preds_per_line: u32,
    },
}

impl EngineSpec {
    /// Shorthand for a gshare-equipped BTB.
    pub fn btb(entries: usize, assoc: u32) -> Self {
        EngineSpec::Btb { entries, assoc, pht: PhtSpec::Gshare, evict_not_taken: false }
    }

    /// Shorthand for a gshare-equipped NLS table.
    pub fn nls_table(entries: usize) -> Self {
        EngineSpec::NlsTable { entries, pht: PhtSpec::Gshare, type_table: None }
    }

    /// Shorthand for a gshare-equipped NLS cache.
    pub fn nls_cache(preds_per_line: u32) -> Self {
        EngineSpec::NlsCache { preds_per_line, pht: PhtSpec::Gshare }
    }

    /// A short, stable identity string for run keys (e.g.
    /// `btb128x1/gshare`, `nls-table1024/gshare`). Distinct specs map
    /// to distinct keys; the format is part of the ledger schema. An
    /// option is spelled only when set (`btb128x1/gshare/evict-nt`,
    /// `nls-table1024/gshare/type4096`), so a key without one keeps
    /// the spelling it had before the option existed.
    pub fn key(&self) -> String {
        match *self {
            EngineSpec::Btb { entries, assoc, pht, evict_not_taken } => {
                let evict = if evict_not_taken { "/evict-nt" } else { "" };
                format!("btb{entries}x{assoc}/{}{evict}", pht.key())
            }
            EngineSpec::NlsTable { entries, pht, type_table } => {
                let types = type_table.map_or_else(String::new, |n| format!("/type{n}"));
                format!("nls-table{entries}/{}{types}", pht.key())
            }
            EngineSpec::NlsCache { preds_per_line, pht } => {
                format!("nls-cache{preds_per_line}/{}", pht.key())
            }
            EngineSpec::Johnson { preds_per_line } => format!("johnson{preds_per_line}"),
        }
    }

    /// The engine's display label, the `engine` of its results (e.g.
    /// `"128 direct BTB"`, `"1024 NLS table"`).
    pub fn label(&self) -> String {
        match *self {
            EngineSpec::Btb { entries, assoc, evict_not_taken, .. } => {
                let btb = BtbConfig { entries, assoc }.label();
                if evict_not_taken {
                    format!("{btb} (evict-NT)")
                } else {
                    btb
                }
            }
            EngineSpec::NlsTable { entries, .. } => format!("{entries} NLS table"),
            EngineSpec::NlsCache { preds_per_line, .. } => {
                format!("NLS cache ({preds_per_line}/line)")
            }
            EngineSpec::Johnson { preds_per_line } => {
                format!("Johnson successor index ({preds_per_line}/line)")
            }
        }
    }

    /// The direction predictor this engine reads, if it has one.
    pub(crate) fn pht(&self) -> Option<PhtSpec> {
        match *self {
            EngineSpec::Btb { pht, .. }
            | EngineSpec::NlsTable { pht, .. }
            | EngineSpec::NlsCache { pht, .. } => Some(pht),
            EngineSpec::Johnson { .. } => None,
        }
    }

    /// The approximate bytes of simulation state this engine would
    /// hold alone on `cache` — what it reports to the heap budget in a
    /// [`Cell`](crate::Cell) — computed from the spec, without building
    /// it.
    pub(crate) fn state_bytes(&self, cache: &CacheConfig) -> u64 {
        let pht = self.pht().map_or(0, |p| p.geometry().0);
        match *self {
            EngineSpec::Btb { entries, .. } => BtbCore::state_bytes(cache, entries, pht),
            EngineSpec::NlsTable { entries, type_table, .. } => {
                NlsTableCore::state_bytes(cache, entries, pht, type_table.unwrap_or(0))
            }
            EngineSpec::NlsCache { preds_per_line, .. } => {
                NlsCacheCore::state_bytes(cache, preds_per_line, pht)
            }
            EngineSpec::Johnson { preds_per_line } => {
                JohnsonCore::state_bytes(cache, preds_per_line)
            }
        }
    }

    /// Instantiates the engine for `cache`, alone on a front end of its
    /// own: a [`Cell`](crate::Cell) of this one spec.
    pub fn build(&self, cache: CacheConfig) -> Box<dyn FetchEngine + Send> {
        Box::new(BuiltEngine::new(cache, *self))
    }

    /// The four BTB configurations of Figures 5/7/8 plus the
    /// 1024-entry NLS-table.
    pub fn paper_comparison_set() -> Vec<EngineSpec> {
        vec![
            Self::btb(128, 1),
            Self::btb(128, 4),
            Self::btb(256, 1),
            Self::btb(256, 4),
            Self::nls_table(1024),
        ]
    }

    /// The NLS organisations of Figure 4: the NLS-cache (two
    /// predictors per line) and the three NLS-table sizes.
    pub fn paper_nls_set() -> Vec<EngineSpec> {
        vec![
            Self::nls_cache(2),
            Self::nls_table(512),
            Self::nls_table(1024),
            Self::nls_table(2048),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 128-entry direct BTB that evicts on not-taken, as the BTB
    /// policy ablation runs it.
    const EVICT_NT: EngineSpec =
        EngineSpec::Btb { entries: 128, assoc: 1, pht: PhtSpec::Gshare, evict_not_taken: true };

    /// The 1024-entry NLS table with a type table of `entries`, as the
    /// type-predictor extension runs it.
    fn typed(entries: usize) -> EngineSpec {
        EngineSpec::NlsTable { entries: 1024, pht: PhtSpec::Gshare, type_table: Some(entries) }
    }

    #[test]
    fn build_produces_correct_labels() {
        let cache = CacheConfig::paper(8, 1);
        for (spec, label) in [
            (EngineSpec::btb(128, 1), "128 direct BTB"),
            (EngineSpec::btb(256, 4), "256 4-way BTB"),
            (EVICT_NT, "128 direct BTB (evict-NT)"),
            (EngineSpec::nls_table(1024), "1024 NLS table"),
            (typed(4096), "1024 NLS table"),
            (EngineSpec::nls_cache(2), "NLS cache (2/line)"),
            (EngineSpec::Johnson { preds_per_line: 2 }, "Johnson successor index (2/line)"),
        ] {
            assert_eq!(spec.label(), label);
            assert_eq!(spec.build(cache).result("t").engine, label);
        }
    }

    #[test]
    fn a_spec_estimates_the_state_its_built_engine_reports() {
        let custom =
            PhtSpec::Custom { entries: 256, counter_bits: 3, indexing: PhtIndexing::Bimodal };
        let specs = [
            EngineSpec::btb(128, 1),
            EngineSpec::Btb {
                entries: 512,
                assoc: 4,
                pht: PhtSpec::Tournament,
                evict_not_taken: false,
            },
            EVICT_NT,
            EngineSpec::nls_table(2048),
            EngineSpec::NlsTable { entries: 64, pht: custom, type_table: None },
            typed(1024),
            typed(4096),
            typed(16384),
            EngineSpec::nls_cache(4),
            EngineSpec::NlsCache { preds_per_line: 1, pht: PhtSpec::GlobalOnly },
            EngineSpec::Johnson { preds_per_line: 2 },
        ];
        for cache in [
            CacheConfig::paper(4, 1),
            CacheConfig::paper(128, 8),
            CacheConfig::new(8192, 64, 2),
        ] {
            for spec in specs {
                assert_eq!(
                    spec.state_bytes(&cache),
                    spec.build(cache).approx_heap_bytes(),
                    "{} on {}",
                    spec.key(),
                    cache.label()
                );
            }
        }
        let cache = CacheConfig::paper(16, 1);
        assert_eq!(
            typed(4096).state_bytes(&cache),
            EngineSpec::nls_table(1024).state_bytes(&cache) + 4096,
            "a type table costs a byte per entry"
        );
    }

    #[test]
    fn paper_sets_have_expected_sizes() {
        assert_eq!(EngineSpec::paper_comparison_set().len(), 5);
        assert_eq!(EngineSpec::paper_nls_set().len(), 4);
    }

    #[test]
    fn keys_are_stable_and_distinct() {
        assert_eq!(EngineSpec::btb(128, 1).key(), "btb128x1/gshare");
        assert_eq!(EngineSpec::nls_table(1024).key(), "nls-table1024/gshare");
        assert_eq!(EngineSpec::nls_cache(2).key(), "nls-cache2/gshare");
        assert_eq!(EngineSpec::Johnson { preds_per_line: 2 }.key(), "johnson2");
        assert_eq!(EVICT_NT.key(), "btb128x1/gshare/evict-nt");
        assert_eq!(typed(16384).key(), "nls-table1024/gshare/type16384");

        let mut keys: Vec<String> = EngineSpec::paper_comparison_set()
            .iter()
            .chain(EngineSpec::paper_nls_set().iter())
            .chain(&[EVICT_NT, typed(1024), typed(4096), typed(16384)])
            .map(EngineSpec::key)
            .collect();
        keys.push(
            EngineSpec::NlsTable { entries: 1024, pht: PhtSpec::Bimodal, type_table: None }
                .key(),
        );
        keys.sort();
        let total = keys.len();
        keys.dedup();
        // paper_comparison_set and paper_nls_set share nls_table(1024).
        assert_eq!(keys.len(), total - 1, "distinct specs must have distinct keys");
    }
}
