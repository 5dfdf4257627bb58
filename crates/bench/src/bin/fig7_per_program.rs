//! Figure 7: per-program BEP comparison of NLS and BTB.

fn main() {
    nls_bench::stage_main(nls_bench::figures::FIG7_PER_PROGRAM);
}
