//! Experiment harness: every table and figure of the paper, as stage
//! functions that both the stage binaries and `repro_all` run.
//!
//! Each stage, an [`Experiment`], computes a [`Report`]: aligned text
//! tables, each written as a CSV into `results/`, and notes (see
//! DESIGN.md for the index). A *grid* stage is its runs plus a render from their
//! results, so `repro_all` can simulate the runs of every grid stage
//! once, in one supervised sweep, and render each stage from those
//! rows; its binary sweeps its own runs. The stages are in
//! [`figures`], [`ablations`] and [`extensions`]. The dynamic trace
//! length is the `NLS_TRACE_LEN` environment variable (default
//! 8,000,000 instructions per run).

use std::fmt::Write as _;
use std::path::PathBuf;

use nls_core::{average, run_sweep, RunSpec, SimResult, SweepConfig, DEFAULT_TRACE_LEN};

pub mod ablations;
pub mod extensions;
pub mod figures;

/// Parses an `NLS_TRACE_LEN` value: `None` (unset) is the default
/// 8 M records; a set value must be a positive integer, with optional
/// `_` separators. A set-but-invalid value is an error, not a silent
/// fallback: `NLS_TRACE_LEN=10k` must not quietly run full-length
/// traces, nor `0` write tables of zeros.
///
/// # Errors
///
/// A usage-class message naming the value.
pub(crate) fn trace_len(value: Option<&str>) -> Result<usize, String> {
    let Some(raw) = value else {
        return Ok(DEFAULT_TRACE_LEN);
    };
    match raw.replace('_', "").parse::<usize>() {
        Ok(len) if len > 0 => Ok(len),
        _ => Err(format!(
            "NLS_TRACE_LEN={raw:?} is not a positive number of trace records (want e.g. \
             1_000_000)"
        )),
    }
}

/// The sweep configuration of every stage: `NLS_TRACE_LEN`
/// instructions (default 8 M) with a fixed seed, so every figure is
/// reproducible bit-for-bit. A bad `NLS_TRACE_LEN` is a usage error:
/// the process exits 2 before any stage runs.
pub fn sweep_config() -> SweepConfig {
    match trace_len(std::env::var("NLS_TRACE_LEN").ok().as_deref()) {
        Ok(trace_len) => SweepConfig { trace_len, seed: 0x0b5e_55ed },
        Err(msg) => {
            eprintln!("error[usage]: {msg}");
            std::process::exit(2);
        }
    }
}

/// The directory experiment CSVs are written into (`results/` under
/// the current directory); created on demand.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    // A failure here (e.g. read-only cwd) surfaces again, with a
    // proper path in the message, when the CSV itself is written.
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
    }
    dir
}

/// The work ledger of `repro_all`'s grid sweep, so an interrupted
/// reproduction can restart with `--resume` instead of recomputing
/// every completed (benchmark × cache × engines) cell.
pub fn ledger_path() -> PathBuf {
    results_dir().join("repro_ledger.json")
}

/// One stage of the reproduction (a table, figure, ablation or
/// extension): how it computes its [`Report`].
#[derive(Debug, Clone, Copy)]
pub enum Experiment {
    /// A stage whose simulations are `run_sweep` calls over the
    /// default workload: its runs, and its report rendered from their
    /// results in run order (each run's results in engine order), as
    /// [`run_sweep`] returns them.
    Grid(fn() -> Vec<RunSpec>, fn(&[SimResult]) -> Report),
    /// A stage that simulates on its own, or not at all.
    Alone(fn(&SweepConfig) -> Report),
}

impl Experiment {
    /// The stage run on its own: a grid stage sweeps its runs.
    ///
    /// # Panics
    ///
    /// Panics if a run of a grid stage fails ([`run_sweep`]).
    pub fn report(&self, cfg: &SweepConfig) -> Report {
        match self {
            Experiment::Grid(runs, render) => render(&run_sweep(&runs(), cfg)),
            Experiment::Alone(alone) => alone(cfg),
        }
    }
}

/// Every stage, by the name of its binary, in the order `repro_all`
/// runs and prints them.
pub const STAGES: [(&str, Experiment); 18] = [
    ("table1", figures::TABLE1),
    ("fig3_rbe", figures::FIG3_RBE),
    ("fig4_nls_bep", figures::FIG4_NLS_BEP),
    ("fig5_btb_bep", figures::FIG5_BTB_BEP),
    ("fig6_access_time", figures::FIG6_ACCESS_TIME),
    ("fig7_per_program", figures::FIG7_PER_PROGRAM),
    ("fig8_cpi", figures::FIG8_CPI),
    ("attribution", ablations::ATTRIBUTION),
    ("ablation_johnson", ablations::ABLATION_JOHNSON),
    ("ablation_pht", ablations::ABLATION_PHT),
    ("ablation_nls_cache_layout", ablations::ABLATION_NLS_CACHE_LAYOUT),
    ("ablation_btb_policy", ablations::ABLATION_BTB_POLICY),
    ("ablation_trace_len", ablations::ABLATION_TRACE_LEN),
    ("ablation_penalties", ablations::ABLATION_PENALTIES),
    ("ext_code_layout", extensions::EXT_CODE_LAYOUT),
    ("ext_wide_issue", extensions::EXT_WIDE_ISSUE),
    ("ext_type_predictor", extensions::EXT_TYPE_PREDICTOR),
    ("ext_set_prediction", extensions::EXT_SET_PREDICTION),
];

/// The `main` of a stage binary: runs `stage` on its own at
/// [`sweep_config`] and emits its report.
pub fn stage_main(stage: Experiment) {
    stage.report(&sweep_config()).emit();
}

/// What a stage prints and writes: its tables, each with the name of
/// its CSV under `results/`, and the notes printed after them.
#[derive(Debug)]
pub struct Report {
    /// The tables in print order, each with its CSV name.
    pub tables: Vec<(&'static str, Table)>,
    /// Text printed after the tables, each line newline-terminated.
    pub notes: String,
}

impl Report {
    /// A report of one table, written as `results/<name>.csv`.
    pub fn new(name: &'static str, table: Table, notes: &str) -> Self {
        Report { tables: vec![(name, table)], notes: notes.to_string() }
    }

    /// Prints the tables (a blank line between two) and the notes,
    /// writes every table's CSV and names the first one written.
    pub fn emit(&self) {
        for (i, (_, table)) in self.tables.iter().enumerate() {
            if i > 0 {
                println!();
            }
            table.print();
        }
        print!("{}", self.notes);
        let paths: Vec<PathBuf> = self.tables.iter().map(|(name, t)| t.save(name)).collect();
        if let Some(first) = paths.first() {
            println!("\nwrote {}", first.display());
        }
    }
}

/// The average ([`average`]) of the results `keep` selects, in order.
///
/// # Panics
///
/// Panics if `keep` selects none.
pub(crate) fn average_of(
    results: &[SimResult],
    keep: impl Fn(&SimResult) -> bool,
) -> SimResult {
    let kept: Vec<SimResult> = results.iter().filter(|r| keep(r)).cloned().collect();
    average(&kept)
}

/// A printable, CSV-writable results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ =
            writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The CSV form (headers + rows, comma separated, quoted as
    /// needed).
    pub fn to_csv(&self) -> String {
        let quote = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ =
                writeln!(out, "{}", row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Writes the CSV into `results/<name>.csv` and returns the
    /// path. An unwritable destination is reported on stderr; the
    /// rendered table (the primary output) is unaffected. The write
    /// is atomic (tmp + fsync + rename) so a crash mid-save cannot
    /// leave a torn CSV behind for `--check` baselines to trip on.
    pub fn save(&self, name: &str) -> PathBuf {
        let path = results_dir().join(format!("{name}.csv"));
        if let Err(e) = nls_core::write_atomic(&path, &self.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        path
    }
}

/// Formats a number (an `f64`, [`nls_cost::Rbe`] or
/// [`nls_cost::Nanos`]) with `digits` decimals (helper for table rows).
pub fn fmt(x: impl std::fmt::Display, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_serialises() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2.50".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("bb"));
        let csv = t.to_csv();
        assert_eq!(csv, "a,bb\n1,2.50\n");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn csv_quotes_commas() {
        let mut t = Table::new("q", &["x"]);
        t.row(vec!["a,b".into()]);
        assert_eq!(t.to_csv(), "x\n\"a,b\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 3), "1.235");
    }

    /// What keeps the stages from being the reproduction DESIGN.md
    /// promises: a binary in `src/bin/` (`bins`, `repro_all` left out)
    /// that is not one of `stages`, or a stage without a binary; a stage
    /// `design` never names, or a `figN_*`/`tableN_*` stage it names on
    /// no line that says `Fig N`/`Table N`; a server counter it never
    /// names. Empty when they agree.
    fn registry_drift(
        stages: &[&str],
        bins: &[String],
        design: &str,
        counters: &[&str],
    ) -> Vec<String> {
        let mut drift = Vec::new();
        for bin in bins.iter().filter(|bin| !stages.contains(&bin.as_str())) {
            drift.push(format!("src/bin/{bin}.rs is not a stage in STAGES"));
        }
        for &stage in stages {
            if !bins.iter().any(|bin| bin == stage) {
                drift.push(format!("stage {stage} has no binary src/bin/{stage}.rs"));
            }
            let lines: Vec<&str> = design.lines().filter(|l| l.contains(stage)).collect();
            let label =
                [("fig", "Fig"), ("table", "Table")].iter().find_map(|(prefix, word)| {
                    let digits: String = stage
                        .strip_prefix(prefix)?
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect();
                    (!digits.is_empty()).then(|| format!("{word} {digits}"))
                });
            if lines.is_empty() {
                drift.push(format!("DESIGN.md never names stage {stage}"));
            } else if let Some(label) = label.filter(|l| !lines.iter().any(|x| x.contains(l))) {
                drift.push(format!(
                    "DESIGN.md names stage {stage} on no line that says {label}"
                ));
            }
        }
        for counter in counters.iter().filter(|c| !design.contains(*c)) {
            drift.push(format!("DESIGN.md never names server counter {counter}"));
        }
        drift
    }

    #[test]
    fn every_stage_has_a_binary_and_design_md_names_it_and_every_server_counter() {
        let stages: Vec<&str> = STAGES.iter().map(|(name, _)| *name).collect();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let mut bins = Vec::new();
        for entry in std::fs::read_dir(dir).expect("src/bin/ is listable") {
            let path = entry.expect("src/bin/ entries are readable").path();
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("UTF-8 file names");
            if stem != "repro_all" {
                bins.push(stem.to_string());
            }
        }
        let design = include_str!("../../../DESIGN.md");
        let drift = registry_drift(&stages, &bins, design, &nls_core::SERVER_COUNTERS);
        assert!(drift.is_empty(), "the stage registry drifted:\n  {}", drift.join("\n  "));
    }

    #[test]
    fn registry_drift_names_each_way_the_registry_can_drift() {
        let stages = ["fig3_rbe", "ablation_pht"];
        let bins: Vec<String> = stages.iter().map(|s| s.to_string()).collect();
        let design = "| **Fig 3** | RBE costs | `fig3_rbe` |\n\
                      * PHT flavour — `ablation_pht`.\n\
                      Counters: `jobs_shed`.\n";
        let counters = ["jobs_shed"];
        assert_eq!(registry_drift(&stages, &bins, design, &counters), Vec::<String>::new());

        let orphan = [bins.clone(), vec!["fig9_orphan".to_string()]].concat();
        assert_eq!(
            registry_drift(&stages, &orphan, design, &counters),
            ["src/bin/fig9_orphan.rs is not a stage in STAGES"]
        );
        assert_eq!(
            registry_drift(&stages, &bins[..1], design, &counters),
            ["stage ablation_pht has no binary src/bin/ablation_pht.rs"]
        );
        let renumbered = design.replace("Fig 3", "Fig 4");
        assert_eq!(
            registry_drift(&stages, &bins, &renumbered, &counters),
            ["DESIGN.md names stage fig3_rbe on no line that says Fig 3"]
        );
        let unnamed = design.replace("`ablation_pht`", "the PHT ablation");
        assert_eq!(
            registry_drift(&stages, &bins, &unnamed, &counters),
            ["DESIGN.md never names stage ablation_pht"]
        );
        assert_eq!(
            registry_drift(&stages, &bins, design, &["jobs_shed", "jobs_lost"]),
            ["DESIGN.md never names server counter jobs_lost"]
        );
    }

    #[test]
    fn trace_len_parses_strictly() {
        assert_eq!(trace_len(None), Ok(DEFAULT_TRACE_LEN));
        assert_eq!(trace_len(Some("30")), Ok(30));
        assert_eq!(trace_len(Some("1_200")), Ok(1_200));
        // Set-but-broken values must error, not fall back silently.
        for bad in ["", "soon", "60O", "-5", "1.5", "0", "10k"] {
            let err = trace_len(Some(bad)).unwrap_err();
            assert!(err.contains("NLS_TRACE_LEN"), "{bad:?}: {err}");
        }
    }
}
