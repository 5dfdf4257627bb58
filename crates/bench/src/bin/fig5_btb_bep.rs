//! Figure 5: branch execution penalty, BTB versus 1024 NLS-table.

fn main() {
    nls_bench::stage_main(nls_bench::figures::FIG5_BTB_BEP);
}
