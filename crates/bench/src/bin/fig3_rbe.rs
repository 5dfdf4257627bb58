//! Figure 3: register-bit-equivalent costs.

fn main() {
    nls_bench::stage_main(nls_bench::figures::FIG3_RBE);
}
