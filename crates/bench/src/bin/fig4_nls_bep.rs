//! Figure 4: branch execution penalty of the NLS organisations.

fn main() {
    nls_bench::stage_main(nls_bench::figures::FIG4_NLS_BEP);
}
