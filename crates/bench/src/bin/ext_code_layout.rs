//! Extension: whole-program restructuring (§7 / §8).

fn main() {
    nls_bench::stage_main(nls_bench::extensions::EXT_CODE_LAYOUT);
}
