//! Table 1: measured attributes of the traced programs.

fn main() {
    nls_bench::stage_main(nls_bench::figures::TABLE1);
}
