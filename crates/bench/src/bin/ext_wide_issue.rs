//! Extension: wide-issue front ends (§8 outlook).

fn main() {
    nls_bench::stage_main(nls_bench::extensions::EXT_WIDE_ISSUE);
}
