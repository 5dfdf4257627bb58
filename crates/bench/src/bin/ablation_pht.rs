//! PHT-flavour ablation (§2/§3 design choice).

fn main() {
    nls_bench::stage_main(nls_bench::ablations::ABLATION_PHT);
}
