//! Recording and replaying traces.
//!
//! The simulator is trace-driven: any PC-coherent instruction stream
//! can be fed to the engines, not just the built-in synthetic
//! workloads. This example records a workload into the compact
//! binary `NLST` format, reads it back, verifies the round trip, and
//! replays the file through an engine a block at a time, as
//! `nls replay` does — the workflow for users who have their own
//! instrumentation traces.
//!
//! ```text
//! cargo run --release --example trace_files
//! ```

use nextline::core::{
    drive_records_supervised, Budget, Cell, EngineSpec, PenaltyModel, BLOCK_RECORDS,
};
use nextline::icache::CacheConfig;
use nextline::trace::{
    read_trace, synthesize, write_trace, BenchProfile, GenConfig, RecoveryPolicy, TraceReader,
    TraceRecord, TraceStats, Walker,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = BenchProfile::li();
    let program = synthesize(&profile, &GenConfig::for_profile(&profile));
    let records = Walker::new(&program, 99).take(300_000).collect::<Vec<_>>();

    // Record to a file.
    let path = std::env::temp_dir().join("nextline_demo.nlst");
    let file = std::fs::File::create(&path)?;
    let written = write_trace(file, records.iter().copied())?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "wrote {written} records ({bytes} bytes, {:.1} B/record) to {}",
        bytes as f64 / written as f64,
        path.display()
    );

    // Read back and verify.
    let replayed = read_trace(std::fs::File::open(&path)?)?;
    assert_eq!(replayed, records, "round trip must be lossless");

    // Measure it like Table 1 does.
    let stats = TraceStats::from_trace(replayed.iter().copied());
    println!(
        "replayed trace: {:.2}% breaks, {:.2}% of conditionals taken, {} hot sites",
        stats.pct_breaks(),
        stats.pct_taken(),
        stats.q100()
    );

    // Replay the file through a fetch engine, decoding each block of
    // records straight into the drive loop's buffer.
    let mut reader = TraceReader::open(&path, RecoveryPolicy::Fail)?;
    let mut cell = Cell::new(CacheConfig::paper(8, 1), &[EngineSpec::nls_table(1024)]);
    let mut corrupt = None;
    let decode = |block: &mut Vec<TraceRecord>| {
        if let Err(e) = reader.fill_block(block, BLOCK_RECORDS) {
            corrupt = Some(e);
        }
    };
    drive_records_supervised(decode, &mut cell, &Budget::unlimited());
    if let Some(e) = corrupt {
        return Err(e.into());
    }
    let m = PenaltyModel::paper();
    for r in cell.results(profile.name) {
        println!("replay through {}: BEP {:.3}, CPI {:.3}", r.engine, r.bep(&m), r.cpi(&m));
    }

    std::fs::remove_file(&path)?;
    Ok(())
}
