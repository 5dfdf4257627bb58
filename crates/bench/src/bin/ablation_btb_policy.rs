//! BTB not-taken policy ablation (§3 design choice).

fn main() {
    nls_bench::stage_main(nls_bench::ablations::ABLATION_BTB_POLICY);
}
