//! Figure 8: cycles per instruction.

fn main() {
    nls_bench::stage_main(nls_bench::figures::FIG8_CPI);
}
