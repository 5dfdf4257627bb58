//! Trace-length sensitivity ablation.

fn main() {
    nls_bench::stage_main(nls_bench::ablations::ABLATION_TRACE_LEN);
}
