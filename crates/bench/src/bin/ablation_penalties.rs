//! Penalty-model sensitivity ablation (§5.2 assumption).

fn main() {
    nls_bench::stage_main(nls_bench::ablations::ABLATION_PENALTIES);
}
