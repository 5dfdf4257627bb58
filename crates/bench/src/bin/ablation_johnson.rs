//! §6.2 related-work ablation: Johnson's coupled successor-index design.

fn main() {
    nls_bench::stage_main(nls_bench::ablations::ABLATION_JOHNSON);
}
