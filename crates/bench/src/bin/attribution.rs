//! §7 attribution analysis: where the penalties come from.

fn main() {
    nls_bench::stage_main(nls_bench::ablations::ATTRIBUTION);
}
