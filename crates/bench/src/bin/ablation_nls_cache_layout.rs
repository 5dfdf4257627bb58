//! NLS-cache layout ablation (§5.1 design choice).

fn main() {
    nls_bench::stage_main(nls_bench::ablations::ABLATION_NLS_CACHE_LAYOUT);
}
