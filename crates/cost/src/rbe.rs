//! Register-bit-equivalent (RBE) area model.
//!
//! Reimplementation of the on-chip memory area model of Mulder,
//! Quach & Flynn (IEEE JSSC 1991) as the paper uses it in §6 /
//! Figure 3: one RBE is the area of one register bit cell; an SRAM
//! bit costs 0.6 RBE, and associative structures pay per-way
//! comparator and multiplexing overhead. Only *relative* costs
//! matter for the paper's equal-cost pairings, and the constants
//! here reproduce them:
//!
//! * NLS-cache ≈ 512-entry NLS-table at 8 KB caches, ≈ 1024 at
//!   16 KB, ≈ 2048 at 32 KB;
//! * 1024-entry NLS-table ≈ 128-entry BTB;
//! * 256-entry BTB ≈ 2 × 1024-entry NLS-table.

use crate::Rbe;

/// Area of one SRAM bit.
pub const SRAM_BIT_RBE: Rbe = Rbe(0.6);
/// Extra area per way of associative lookup, per *set*, covering the
/// comparator and way-select multiplexing (per tag bit compared).
pub const COMPARATOR_BIT_RBE: Rbe = Rbe(0.3);
/// Area multiplier for bits held in a *tagged, matched* structure
/// (BTB) relative to a plain RAM buffer: Mulder et al. charge the
/// tag path, sense amplifiers, match logic and control of a small
/// associative buffer at roughly twice the bare RAM-cell area.
pub const TAGGED_STRUCTURE_FACTOR: f64 = 2.0;
/// Fixed control/decoder overhead per distinct RAM structure.
pub const STRUCTURE_OVERHEAD_RBE: Rbe = Rbe(50.0);

/// Address-space width assumed by the paper's BTB calculations.
pub const ADDRESS_BITS: u32 = 32;
/// Instruction alignment bits (4-byte instructions).
pub const INST_ALIGN_BITS: u32 = 2;

fn log2_ceil(x: u64) -> u32 {
    assert!(x > 0, "log2 of zero");
    if x == 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

/// Geometry of an instruction cache as seen by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Ways.
    pub assoc: u32,
}

impl CacheGeometry {
    /// The paper's geometry: `size_kb` KB with 32-byte lines.
    pub fn paper(size_kb: u64, assoc: u32) -> Self {
        CacheGeometry { size_bytes: size_kb * 1024, line_bytes: 32, assoc }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.assoc))
    }

    /// Total line frames.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// Instructions per line.
    pub fn insts_per_line(&self) -> u64 {
        self.line_bytes / 4
    }
}

/// Bits in one NLS predictor entry for the given cache: the 2-bit
/// type field, the line field (set index + instruction offset) and
/// the set field (way select, absent for direct-mapped caches).
pub fn nls_entry_bits(cache: CacheGeometry) -> u32 {
    let type_bits = 2;
    let line_bits = log2_ceil(cache.num_sets()) + log2_ceil(cache.insts_per_line());
    let way_bits = log2_ceil(u64::from(cache.assoc));
    type_bits + line_bits + way_bits
}

/// RBE cost of an NLS-table with `entries` predictors in front of
/// `cache`. Tag-less and direct mapped: pure RAM.
pub fn nls_table_rbe(entries: u64, cache: CacheGeometry) -> Rbe {
    entries as f64 * f64::from(nls_entry_bits(cache)) * SRAM_BIT_RBE + STRUCTURE_OVERHEAD_RBE
}

/// RBE cost of an NLS-cache organisation: `preds_per_line`
/// predictors attached to every line frame of `cache`. Grows
/// linearly with cache size (the scalability problem of §6.1).
pub fn nls_cache_rbe(preds_per_line: u32, cache: CacheGeometry) -> Rbe {
    let entries = cache.num_lines() * u64::from(preds_per_line);
    entries as f64 * f64::from(nls_entry_bits(cache)) * SRAM_BIT_RBE + STRUCTURE_OVERHEAD_RBE
}

/// Bits in one BTB entry: address tag, 30-bit target (32-bit space,
/// 4-byte aligned) and the 2-bit branch type.
pub fn btb_entry_bits(entries: u64, assoc: u32) -> u32 {
    let index_bits = log2_ceil(entries / u64::from(assoc));
    let tag_bits = ADDRESS_BITS - INST_ALIGN_BITS - index_bits;
    let target_bits = ADDRESS_BITS - INST_ALIGN_BITS;
    let type_bits = 2;
    tag_bits + target_bits + type_bits
}

/// RBE cost of a BTB: RAM bits plus per-way comparator overhead on
/// the tag bits. Depends on the address-space size, *not* on the
/// instruction cache (§7).
pub fn btb_rbe(entries: u64, assoc: u32) -> Rbe {
    let index_bits = log2_ceil(entries / u64::from(assoc));
    let tag_bits = ADDRESS_BITS - INST_ALIGN_BITS - index_bits;
    let ram = entries as f64
        * f64::from(btb_entry_bits(entries, assoc))
        * SRAM_BIT_RBE
        * TAGGED_STRUCTURE_FACTOR;
    // One comparator per way, sized by the tag width; LRU state for
    // associative organisations (log2(assoc) bits per entry).
    let comparators = f64::from(assoc) * f64::from(tag_bits) * COMPARATOR_BIT_RBE * 8.0;
    let lru = entries as f64 * f64::from(log2_ceil(u64::from(assoc))) * SRAM_BIT_RBE;
    ram + comparators + lru + STRUCTURE_OVERHEAD_RBE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_basics() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(256), 8);
        assert_eq!(log2_ceil(1024), 10);
    }

    #[test]
    fn nls_entry_bits_follow_cache_geometry() {
        // 8K direct: 256 sets, 8 insts/line -> 2 + (8+3) + 0 = 13 bits.
        assert_eq!(nls_entry_bits(CacheGeometry::paper(8, 1)), 13);
        // 32K 4-way: 256 sets, 8 insts/line, 2 way bits -> 15.
        assert_eq!(nls_entry_bits(CacheGeometry::paper(32, 4)), 15);
    }

    #[test]
    fn nls_table_grows_logarithmically_with_cache() {
        let small = nls_table_rbe(1024, CacheGeometry::paper(8, 1));
        let big = nls_table_rbe(1024, CacheGeometry::paper(64, 1));
        // 8K -> 64K is 8x capacity but only +3 line bits (13 -> 16).
        assert!(big / small < 1.35, "ratio {}", big / small);
    }

    #[test]
    fn nls_cache_grows_linearly_with_cache() {
        let small = nls_cache_rbe(2, CacheGeometry::paper(8, 1));
        let big = nls_cache_rbe(2, CacheGeometry::paper(64, 1));
        assert!(big / small > 8.0, "ratio {}", big / small);
    }

    #[test]
    fn paper_equal_cost_pairings_hold() {
        // 1024 NLS-table ~ 128 BTB (within 25 %).
        for kb in [8u64, 16, 32] {
            let nls = nls_table_rbe(1024, CacheGeometry::paper(kb, 1));
            let btb = btb_rbe(128, 1);
            let ratio = nls / btb;
            assert!((0.75..1.25).contains(&ratio), "{kb}K: ratio {ratio}");
        }
        // 256 BTB ~ 2x 1024 NLS-table.
        let nls = nls_table_rbe(1024, CacheGeometry::paper(16, 1));
        let btb = btb_rbe(256, 1);
        let ratio = btb / nls;
        assert!((1.6..2.4).contains(&ratio), "256 BTB / 1024 NLS = {ratio}");
    }

    #[test]
    fn nls_cache_matches_tables_at_paper_sizes() {
        // Fig 3 equal-cost pairs: NLS-cache(8K) ~ 512-table,
        // NLS-cache(16K) ~ 1024-table, NLS-cache(32K) ~ 2048-table.
        for (kb, entries) in [(8u64, 512u64), (16, 1024), (32, 2048)] {
            let cache = CacheGeometry::paper(kb, 1);
            let coupled = nls_cache_rbe(2, cache);
            let table = nls_table_rbe(entries, cache);
            let ratio = coupled / table;
            assert!((0.7..1.45).contains(&ratio), "{kb}K: ratio {ratio}");
        }
    }

    #[test]
    fn btb_cost_independent_of_cache_but_grows_with_assoc() {
        assert!(btb_rbe(128, 4) > btb_rbe(128, 1));
        assert!(btb_rbe(256, 1) > 1.8 * btb_rbe(128, 1));
    }
}
