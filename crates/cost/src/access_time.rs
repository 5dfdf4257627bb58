//! CACTI-style access-time model.
//!
//! Reimplementation in the spirit of Wilton & Jouppi's enhanced
//! access/cycle-time model (WRL 93/5), which the paper uses for
//! Figure 6. The model decomposes a tagged memory's access time into
//! decoder, word-line/bit-line, comparator and output-driver terms.
//! The absolute nanosecond values are for a mid-1990s process and,
//! as the paper notes, the *relative* values between organisations
//! are what matter: a 4-way associative structure comes out 30–40 %
//! slower than a direct-mapped one of the same capacity, because the
//! tag comparison and way-select multiplexing sit on the critical
//! path instead of proceeding in parallel with data output.

use crate::Nanos;

/// Process-dependent constants, roughly a 0.8 µm CMOS generation
/// (chosen so a 128-entry direct-mapped BTB lands near 4.5 ns, in
/// line with the paper's Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingProcess {
    /// Fixed front-end overhead (address drivers), ns.
    pub base_ns: Nanos,
    /// Decoder: cost per doubling of rows, ns.
    pub decode_per_bit_ns: Nanos,
    /// Word-line/bit-line: cost per sqrt of array bits, ns.
    pub array_ns_per_sqrt_bit: Nanos,
    /// Tag comparator: cost per tag bit, ns (serial with data when
    /// the comparison gates way selection).
    pub compare_per_bit_ns: Nanos,
    /// Way-select mux: cost per doubling of ways, ns.
    pub mux_per_way_bit_ns: Nanos,
    /// Output driver, ns.
    pub output_ns: Nanos,
}

impl Default for TimingProcess {
    fn default() -> Self {
        TimingProcess {
            base_ns: Nanos(0.8),
            decode_per_bit_ns: Nanos(0.18),
            array_ns_per_sqrt_bit: Nanos(0.022),
            compare_per_bit_ns: Nanos(0.045),
            mux_per_way_bit_ns: Nanos(0.80),
            output_ns: Nanos(0.6),
        }
    }
}

fn log2_ceil(x: u64) -> f64 {
    assert!(x > 0, "log2 of zero");
    if x == 1 {
        0.0
    } else {
        f64::from(64 - (x - 1).leading_zeros())
    }
}

/// Access time (ns) of a tagged, set-associative buffer such as a
/// BTB: `entries` entries of `data_bits` payload with `tag_bits`
/// tags, `assoc` ways.
///
/// For direct-mapped organisations the tag comparison proceeds in
/// parallel with data output (only the larger of the two counts);
/// for associative organisations the comparison gates the way mux
/// and is serial.
pub fn tagged_access_ns(
    entries: u64,
    data_bits: u32,
    tag_bits: u32,
    assoc: u32,
    process: &TimingProcess,
) -> Nanos {
    assert!(entries > 0 && assoc > 0, "degenerate geometry");
    assert!(entries >= u64::from(assoc), "fewer entries than ways");
    let rows = entries / u64::from(assoc);
    let array_bits = entries as f64 * f64::from(data_bits + tag_bits);
    let decode = process.decode_per_bit_ns * log2_ceil(rows);
    let array = process.array_ns_per_sqrt_bit * array_bits.sqrt();
    let compare = process.compare_per_bit_ns * f64::from(tag_bits);
    let tail = if assoc == 1 {
        // Parallel tag check: overlap comparison with data drive.
        compare.max(process.output_ns)
    } else {
        // Serial: compare, select the way, then drive out.
        compare + process.mux_per_way_bit_ns * log2_ceil(u64::from(assoc)) + process.output_ns
    };
    process.base_ns + decode + array + tail
}

/// Access time (ns) of a BTB in the paper's geometry (30-bit targets
/// + 2-bit type payload, 32-bit address space).
pub fn btb_access_ns(entries: u64, assoc: u32, process: &TimingProcess) -> Nanos {
    let slots = (entries / u64::from(assoc)).max(1);
    let index_bits = slots.next_power_of_two().trailing_zeros();
    let tag_bits = 30u32.saturating_sub(index_bits);
    tagged_access_ns(entries, 32, tag_bits, assoc, process)
}

/// Access time (ns) of a tag-less direct-mapped buffer such as the
/// NLS-table: no comparator at all. The paper does not plot this
/// (the Wilton–Jouppi model has no tag-less mode) but notes it
/// should resemble a direct-mapped BTB; it comes out slightly
/// faster, lacking the tag array and comparator.
pub fn tagless_access_ns(entries: u64, data_bits: u32, process: &TimingProcess) -> Nanos {
    assert!(entries > 0, "degenerate geometry");
    let array_bits = entries as f64 * f64::from(data_bits);
    process.base_ns
        + process.decode_per_bit_ns * log2_ceil(entries)
        + process.array_ns_per_sqrt_bit * array_bits.sqrt()
        + process.output_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> TimingProcess {
        TimingProcess::default()
    }

    #[test]
    fn four_way_btb_is_30_to_40_pct_slower_than_direct() {
        for entries in [128u64, 256] {
            let dm = btb_access_ns(entries, 1, &p());
            let w4 = btb_access_ns(entries, 4, &p());
            let slowdown = w4 / dm;
            assert!(
                (1.25..=1.45).contains(&slowdown),
                "{entries}-entry: 4-way/direct = {slowdown:.3}"
            );
        }
    }

    #[test]
    fn two_way_sits_between() {
        let dm = btb_access_ns(128, 1, &p());
        let w2 = btb_access_ns(128, 2, &p());
        let w4 = btb_access_ns(128, 4, &p());
        assert!(dm < w2 && w2 < w4);
    }

    #[test]
    fn absolute_values_match_figure6_scale() {
        // Figure 6 shows roughly 4-5 ns direct mapped, 6-7 ns 4-way.
        let dm = btb_access_ns(128, 1, &p());
        assert!((Nanos(3.5)..=Nanos(5.5)).contains(&dm), "128 direct = {dm:.2} ns");
        let w4 = btb_access_ns(256, 4, &p());
        assert!((Nanos(5.0)..=Nanos(8.0)).contains(&w4), "256 4-way = {w4:.2} ns");
    }

    #[test]
    fn bigger_buffers_are_slower() {
        assert!(btb_access_ns(256, 1, &p()) > btb_access_ns(128, 1, &p()));
    }

    #[test]
    fn tagless_table_is_similar_to_a_direct_mapped_btb() {
        // The paper (Fig 6 discussion) expects the NLS-table's access
        // time to be "similar to that of a direct mapped BTB": it has
        // no tag path but eight times the rows.
        let nls = tagless_access_ns(1024, 13, &p());
        let btb = btb_access_ns(128, 1, &p());
        let ratio = nls / btb;
        assert!((0.8..=1.25).contains(&ratio), "NLS/BTB access ratio {ratio:.3}");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_entries_panics() {
        let _ = tagless_access_ns(0, 13, &p());
    }
}
