//! Extension: the instruction-type prediction table (§4).

fn main() {
    nls_bench::stage_main(nls_bench::extensions::EXT_TYPE_PREDICTOR);
}
