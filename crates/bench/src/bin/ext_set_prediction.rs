//! Extension: fall-through set-field accuracy (§4.2, approach 2).

fn main() {
    nls_bench::stage_main(nls_bench::extensions::EXT_SET_PREDICTION);
}
