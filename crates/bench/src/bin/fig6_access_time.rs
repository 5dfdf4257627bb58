//! Figure 6: BTB access time versus associativity.

fn main() {
    nls_bench::stage_main(nls_bench::figures::FIG6_ACCESS_TIME);
}
