//! Argument parsing for the `nls` command-line tool.
//!
//! Hand-rolled (the workspace's dependency budget has no argument
//! parser): subcommand + `--flag value` pairs, with typed parsers
//! for the domain syntaxes:
//!
//! * cache specs: `"16K:4"` (capacity:associativity)
//! * engine specs: `"btb:128:1"`, `"nls-table:1024"`,
//!   `"nls-cache:2"`, `"johnson:2"`
//!
//! and the one description of a job every door shares: a
//! [`JobSpec`] (from the `simulate`/`sweep`/`sweep-worker` flags,
//! [`job_spec`], or a serve request body) becomes runs through
//! [`job_runs`], and a [`JobLimits`] (from the budget flags, a serve
//! request's headers or the server's policy flags) is read by
//! [`parse_limits`].

use std::fmt;

use nls_core::{
    cross, paper_caches, EngineSpec, JobKind, JobLimits, JobSpec, NlsError, RunSpec,
    SweepConfig,
};
use nls_icache::CacheConfig;
use nls_trace::{BenchProfile, RecoveryPolicy};

/// A CLI parsing/validation error, with the message shown to the
/// user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<CliError> for NlsError {
    fn from(e: CliError) -> Self {
        NlsError::Usage(e.0)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Tokenised command line: a subcommand, `--key value` options
/// (repeatable) and bare `--flag` switches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// `--key value` pairs in order of appearance.
    options: Vec<(String, String)>,
    /// Bare `--switch` flags.
    switches: Vec<String>,
}

impl ParsedArgs {
    /// Tokenises `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Fails on a missing subcommand or an option with no value.
    pub fn parse<I, S>(args: I) -> Result<ParsedArgs, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = ParsedArgs::default();
        let mut it = args.into_iter().map(Into::into).peekable();
        match it.next() {
            Some(cmd) if !cmd.starts_with("--") => out.command = cmd,
            Some(flag) => return err(format!("expected a subcommand before {flag}")),
            None => return err("missing subcommand; try `nls help`"),
        }
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return err(format!("unexpected positional argument {tok:?}"));
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => match it.next() {
                    Some(v) => out.options.push((key.to_string(), v)),
                    None => return err(format!("option --{key} is missing its value")),
                },
                _ => out.switches.push(key.to_string()),
            }
        }
        Ok(out)
    }

    /// The value given for `--key`, if any (the last, for an option
    /// [`expect_only`](Self::expect_only) lets repeat).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// All values given for `--key`, in order.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.options.iter().filter(|(k, _)| k == key).map(|(_, v)| v.as_str()).collect()
    }

    /// Whether the bare switch `--key` appeared.
    pub fn has_switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Rejects unknown option/switch names (catches typos early) and a
    /// single-valued option given more than once, which would otherwise
    /// keep only its last value. `allowed` names every option and switch
    /// of the command; an option that may repeat is listed with a `...`
    /// suffix, as in `"engine..."`.
    ///
    /// # Errors
    ///
    /// Fails naming the first unrecognised or repeated option.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), CliError> {
        let spec =
            |key: &str| allowed.iter().find(|a| a.strip_suffix("...").unwrap_or(a) == key);
        for (i, (k, _)) in self.options.iter().enumerate() {
            let Some(name) = spec(k) else {
                return err(format!("unknown option --{k} for `{}`", self.command));
            };
            if !name.ends_with("...") && self.options.iter().take(i).any(|o| &o.0 == k) {
                return err(format!(
                    "option --{k} is given more than once for `{}`; it takes one value",
                    self.command
                ));
            }
        }
        for k in &self.switches {
            if spec(k).is_none() {
                return err(format!("unknown switch --{k} for `{}`", self.command));
            }
        }
        Ok(())
    }
}

/// Largest cache capacity the parsers accept, in KB: 128 times the
/// largest cache the repository runs (the ledger grid's 128K), and
/// small enough that its tag array (24 bytes per 32-byte line) stays
/// a few MB. Larger specs are refused where they enter, before any
/// allocation.
pub const MAX_CACHE_KB: u64 = 16 * 1024;

/// Largest BTB or NLS-table entry count the parsers accept: 32 times
/// the largest table the paper evaluates (the 2048-entry NLS-table).
pub const MAX_TABLE_ENTRIES: usize = 64 * 1024;

/// Line size of every cache the parsers build (the paper's).
const LINE_BYTES: u64 = 32;

/// Instructions per line; predictors per line must divide it.
const INSTS_PER_LINE: u64 = LINE_BYTES / nls_trace::INST_BYTES;

/// Parses a cache spec like `"16K:4"` or `"8k:1"` (capacity in KB,
/// associativity). A bare `"16K"` means direct mapped.
///
/// # Errors
///
/// Fails on malformed capacity or associativity, and on a geometry
/// outside the supported range: a power-of-two capacity of at most
/// [`MAX_CACHE_KB`] and a power-of-two associativity of at most 16.
pub fn parse_cache(spec: &str) -> Result<CacheConfig, CliError> {
    let (size, assoc) = match spec.split_once(':') {
        Some((s, a)) => (s, a),
        None => (spec, "1"),
    };
    let size = size.trim_end_matches(['K', 'k']);
    let kb: u64 = size
        .parse()
        .map_err(|_| CliError(format!("bad cache capacity in {spec:?} (want e.g. 16K:4)")))?;
    let assoc: u32 =
        assoc.parse().map_err(|_| CliError(format!("bad cache associativity in {spec:?}")))?;
    if !kb.is_power_of_two() || !(1..=16).contains(&assoc) || !assoc.is_power_of_two() {
        return err(format!("unsupported cache geometry {spec:?}"));
    }
    let bytes = kb.checked_mul(1024).filter(|_| kb <= MAX_CACHE_KB).ok_or_else(|| {
        CliError(format!("cache {spec:?} exceeds the {MAX_CACHE_KB}K capacity limit"))
    })?;
    Ok(CacheConfig::new(bytes, LINE_BYTES, assoc))
}

/// Parses an engine spec:
///
/// * `btb:ENTRIES:ASSOC` — e.g. `btb:128:1`
/// * `nls-table:ENTRIES` — e.g. `nls-table:1024`
/// * `nls-cache:PREDS_PER_LINE` — e.g. `nls-cache:2`
/// * `johnson:PREDS_PER_LINE` — e.g. `johnson:2`
///
/// # Errors
///
/// Fails on unknown engine names, malformed parameters and
/// geometries the simulator cannot build: entry counts must be powers
/// of two of at most [`MAX_TABLE_ENTRIES`], a BTB's associativity a
/// power of two of at most its entry count, and predictors per line
/// must divide a line's 8 instructions.
pub fn parse_engine(spec: &str) -> Result<EngineSpec, CliError> {
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or_default();
    let nums: Vec<&str> = parts.collect();
    let field = |i: usize, what: &str| -> Result<&str, CliError> {
        nums.get(i).copied().ok_or_else(|| CliError(format!("{spec:?}: missing {what}")))
    };
    let bad = |what: &str| CliError(format!("{spec:?}: bad {what}"));
    let entries = || -> Result<usize, CliError> {
        let n: usize = field(0, "entry count")?.parse().map_err(|_| bad("entry count"))?;
        if !n.is_power_of_two() || n > MAX_TABLE_ENTRIES {
            return err(format!(
                "{spec:?}: entries must be a power of two of at most {MAX_TABLE_ENTRIES}"
            ));
        }
        Ok(n)
    };
    let preds_per_line = || -> Result<u32, CliError> {
        let what = "predictors per line";
        let n: u32 = field(0, what)?.parse().map_err(|_| bad(what))?;
        if n == 0 || !INSTS_PER_LINE.is_multiple_of(u64::from(n)) {
            return err(format!(
                "{spec:?}: predictors per line must divide the line's {INSTS_PER_LINE} instructions"
            ));
        }
        Ok(n)
    };
    match name {
        "btb" => {
            let entries = entries()?;
            let assoc: u32 =
                field(1, "associativity")?.parse().map_err(|_| bad("associativity"))?;
            if !assoc.is_power_of_two() || assoc as usize > entries {
                return err(format!(
                    "{spec:?}: associativity must be a power of two of at most the entry count"
                ));
            }
            Ok(EngineSpec::btb(entries, assoc))
        }
        "nls-table" => Ok(EngineSpec::nls_table(entries()?)),
        "nls-cache" => Ok(EngineSpec::nls_cache(preds_per_line()?)),
        "johnson" => Ok(EngineSpec::Johnson { preds_per_line: preds_per_line()? }),
        other => err(format!(
            "unknown engine {other:?} (want btb:E:A, nls-table:E, nls-cache:P or johnson:P)"
        )),
    }
}

/// Parses a benchmark name (`gcc`, `li`, ... or `all`).
///
/// # Errors
///
/// Fails on unknown names.
pub fn parse_benches(name: &str) -> Result<Vec<BenchProfile>, CliError> {
    if name.eq_ignore_ascii_case("all") {
        return Ok(BenchProfile::all());
    }
    match BenchProfile::by_name(name) {
        Some(p) => Ok(vec![p]),
        None => err(format!(
            "unknown benchmark {name:?} (want one of doduc, espresso, gcc, li, cfront, groff, all)"
        )),
    }
}

/// Parses a job's engine selectors; none means the paper's pair, the
/// 128-entry direct BTB and the 1024-entry NLS table.
///
/// # Errors
///
/// Fails on a selector [`parse_engine`] refuses.
pub fn parse_engines<S: AsRef<str>>(specs: &[S]) -> Result<Vec<EngineSpec>, CliError> {
    if specs.is_empty() {
        return Ok(vec![EngineSpec::btb(128, 1), EngineSpec::nls_table(1024)]);
    }
    specs.iter().map(|s| parse_engine(s.as_ref())).collect()
}

/// `--len` (default 2M records) and `--seed` (default `0x0b5e55ed`):
/// the walk of every command that simulates a benchmark, and the
/// defaults `nls serve` gives a request that names neither.
///
/// # Errors
///
/// Fails on a malformed length or seed.
pub fn sweep_config(a: &ParsedArgs) -> Result<SweepConfig, CliError> {
    let trace_len = match a.get("len") {
        Some(s) => parse_count(s)?,
        None => 2_000_000,
    };
    let seed = match a.get("seed") {
        Some(s) => s.parse().map_err(|_| CliError(format!("bad seed {s:?}")))?,
        None => 0x0b5e_55ed,
    };
    Ok(SweepConfig { trace_len, seed })
}

/// The job the `simulate`, `sweep` and `sweep-worker` flags describe:
/// `--bench` (default `all`), every `--cache` and `--engine`, and
/// [`sweep_config`]'s walk.
///
/// # Errors
///
/// Fails on a malformed length or seed; [`job_runs`] checks the
/// selectors.
pub fn job_spec(a: &ParsedArgs) -> Result<JobSpec, CliError> {
    let cfg = sweep_config(a)?;
    let owned = |key| a.get_all(key).into_iter().map(str::to_string).collect();
    Ok(JobSpec {
        bench: a.get("bench").unwrap_or("all").to_string(),
        caches: owned("cache"),
        engines: owned("engine"),
        trace_len: cfg.trace_len,
        seed: cfg.seed,
    })
}

/// The runs of a job, the one expansion of a [`JobSpec`] for every
/// door (flags, `sweep-worker`, a serve request, the kill drill): its
/// benchmarks × caches × engines. No cache means one 16K direct cache
/// for a simulate job and the paper's six for a sweep; no engine means
/// [`parse_engines`]'s pair.
///
/// # Errors
///
/// Fails on a selector the parsers refuse.
pub fn job_runs(kind: JobKind, spec: &JobSpec) -> Result<Vec<RunSpec>, CliError> {
    let benches = parse_benches(&spec.bench)?;
    let caches = match (kind, spec.caches.is_empty()) {
        (JobKind::Simulate, true) => vec![CacheConfig::paper(16, 1)],
        (JobKind::Sweep, true) => paper_caches(),
        (_, false) => spec.caches.iter().map(|s| parse_cache(s)).collect::<Result<_, _>>()?,
    };
    Ok(cross(&benches, &caches, &parse_engines(&spec.engines)?))
}

/// The one parser of a job's limits, for the budget flags, a serve
/// request's `x-nls-*` headers and the server's policy flags alike:
/// `get` returns the text given for a limit by its flag name
/// (`deadline`, `max-records`, `max-heap-mb`), read with
/// [`parse_duration`], [`parse_count`] and [`parse_size_mb`].
///
/// # Errors
///
/// Fails on the first malformed limit, in that order.
pub fn parse_limits<'a>(get: impl Fn(&str) -> Option<&'a str>) -> Result<JobLimits, CliError> {
    let deadline = get("deadline").map(parse_duration).transpose()?;
    Ok(JobLimits {
        deadline_ms: deadline.map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
        max_records: get("max-records").map(parse_count).transpose()?.map(|n| n as u64),
        max_heap_mb: get("max-heap-mb").map(parse_size_mb).transpose()?,
    })
}

/// Parses a corruption-recovery policy for `--on-corrupt`:
///
/// * `fail` — stop at the first corrupt record (the default)
/// * `skip` — drop corrupt records, no limit
/// * `skip:N` — drop up to `N` corrupt records, then fail
/// * `truncate` — keep everything before the first corrupt record
///
/// # Errors
///
/// Fails on unknown policy names or a malformed skip limit.
pub fn parse_recovery_policy(spec: &str) -> Result<RecoveryPolicy, CliError> {
    match spec {
        "fail" => Ok(RecoveryPolicy::Fail),
        "skip" => Ok(RecoveryPolicy::SkipRecord { max_skips: u64::MAX }),
        "truncate" => Ok(RecoveryPolicy::TruncateAtError),
        other => match other.strip_prefix("skip:") {
            Some(n) => {
                let max_skips = n.parse().map_err(|_| {
                    CliError(format!("bad skip limit in {spec:?} (want e.g. skip:100)"))
                })?;
                Ok(RecoveryPolicy::SkipRecord { max_skips })
            }
            None => err(format!(
                "unknown corruption policy {spec:?} (want fail, skip, skip:N or truncate)"
            )),
        },
    }
}

/// Parses a positive integer with optional `_` separators and `k`/`m`
/// suffixes (`8_000_000`, `2m`, `500k`).
///
/// # Errors
///
/// Fails on malformed or zero values.
pub fn parse_count(s: &str) -> Result<usize, CliError> {
    let cleaned = s.replace('_', "").to_ascii_lowercase();
    let (digits, mult) = match cleaned.strip_suffix('m') {
        Some(d) => (d.to_string(), 1_000_000),
        None => match cleaned.strip_suffix('k') {
            Some(d) => (d.to_string(), 1_000),
            None => (cleaned, 1),
        },
    };
    let n: usize = digits
        .parse()
        .map_err(|_| CliError(format!("bad count {s:?} (want e.g. 2m, 500k, 8_000_000)")))?;
    if n == 0 {
        return err("count must be positive");
    }
    n.checked_mul(mult).ok_or_else(|| CliError(format!("count {s:?} is too large")))
}

/// Parses a wall-clock duration for `--deadline`: a bare number is
/// seconds, `ms`/`s` suffixes are explicit (`30`, `30s`, `500ms`).
///
/// # Errors
///
/// Fails on malformed or zero durations.
pub fn parse_duration(s: &str) -> Result<std::time::Duration, CliError> {
    let cleaned = s.trim().to_ascii_lowercase();
    let bad = || CliError(format!("bad duration {s:?} (want e.g. 30, 30s or 500ms)"));
    let (digits, per_unit_ms) = match cleaned.strip_suffix("ms") {
        Some(d) => (d, 1u64),
        None => (cleaned.trim_end_matches('s'), 1_000u64),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    if n == 0 {
        return err("duration must be positive");
    }
    Ok(std::time::Duration::from_millis(n.saturating_mul(per_unit_ms)))
}

/// Parses a size in mebibytes for `--max-heap-mb` and the server's
/// `x-nls-max-heap-mb` header: a positive integer, optional `_`
/// separators (`256`, `4_096`).
///
/// # Errors
///
/// Fails on non-numeric or zero values (usage errors, exit 2).
pub fn parse_size_mb(s: &str) -> Result<u64, CliError> {
    let n: u64 = s.replace('_', "").parse().map_err(|_| {
        CliError(format!("bad size {s:?} (want a positive MB count, e.g. 256)"))
    })?;
    if n == 0 {
        return err("size must be positive");
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenises_subcommand_options_and_switches() {
        let a =
            ParsedArgs::parse(["simulate", "--bench", "gcc", "--csv", "--len", "2m"]).unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.get("bench"), Some("gcc"));
        assert_eq!(a.get("len"), Some("2m"));
        assert!(a.has_switch("csv"));
        assert!(a.expect_only(&["bench", "csv", "len"]).is_ok());
        assert!(a.expect_only(&["bench"]).is_err());
    }

    #[test]
    fn repeated_options_collect_in_order() {
        let a = ParsedArgs::parse(["x", "--engine", "a", "--engine", "b"]).unwrap();
        assert_eq!(a.get_all("engine"), vec!["a", "b"]);
        assert_eq!(a.get("engine"), Some("b"), "get returns the last");
        assert!(a.expect_only(&["engine..."]).is_ok());
        let e = a.expect_only(&["engine"]).unwrap_err();
        assert!(e.0.contains("--engine is given more than once"), "{e}");
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(ParsedArgs::parse(Vec::<String>::new()).is_err());
        assert!(ParsedArgs::parse(["--flag"]).is_err());
    }

    #[test]
    fn cache_specs() {
        assert_eq!(parse_cache("16K:4").unwrap(), CacheConfig::paper(16, 4));
        assert_eq!(parse_cache("8k").unwrap(), CacheConfig::paper(8, 1));
        assert!(parse_cache("15K:1").is_err(), "non power of two");
        assert!(parse_cache("16K:3").is_err());
        assert!(parse_cache("x").is_err());
    }

    #[test]
    fn engine_specs() {
        assert_eq!(parse_engine("btb:128:1").unwrap(), EngineSpec::btb(128, 1));
        assert_eq!(parse_engine("nls-table:1024").unwrap(), EngineSpec::nls_table(1024));
        assert_eq!(parse_engine("nls-cache:2").unwrap(), EngineSpec::nls_cache(2));
        assert_eq!(
            parse_engine("johnson:2").unwrap(),
            EngineSpec::Johnson { preds_per_line: 2 }
        );
        assert!(parse_engine("btb:100:1").is_err(), "non power of two");
        assert!(parse_engine("btb:128").is_err(), "missing assoc");
        assert!(parse_engine("frobnicator:9").is_err());
    }

    #[test]
    fn geometries_the_simulator_cannot_build_are_refused() {
        let caches = [
            ("1073741824K:1", "capacity limit"),
            ("18014398509481984K:1", "capacity limit"),
            ("32768K:1", "capacity limit"),
            ("0K:1", "unsupported"),
            ("16K:32", "unsupported"),
        ];
        for (spec, why) in caches {
            let e = parse_cache(spec).expect_err(spec);
            assert!(e.0.contains(why), "{spec}: {e}");
        }
        assert_eq!(parse_cache("16384K:16").unwrap(), CacheConfig::paper(MAX_CACHE_KB, 16));
        assert_eq!(parse_cache("128K:8").unwrap(), CacheConfig::paper(128, 8));

        let engines = [
            ("nls-table:1099511627776", "at most"),
            ("nls-table:131072", "at most"),
            ("btb:131072:1", "at most"),
            ("btb:1:2", "associativity"),
            ("btb:128:3", "associativity"),
            ("btb:128:0", "associativity"),
            ("btb:128:4294967297", "bad associativity"),
            ("nls-cache:3", "divide"),
            ("nls-cache:0", "divide"),
            ("nls-cache:16", "divide"),
            ("nls-cache:4294967298", "bad predictors"),
            ("johnson:0", "divide"),
            ("johnson:5", "divide"),
        ];
        for (spec, why) in engines {
            let e = parse_engine(spec).expect_err(spec);
            assert!(e.0.contains(why), "{spec}: {e}");
        }
        assert_eq!(parse_engine("btb:65536:65536").unwrap(), EngineSpec::btb(65536, 65536));
        assert_eq!(parse_engine("nls-cache:8").unwrap(), EngineSpec::nls_cache(8));
        assert_eq!(
            parse_engine("johnson:1").unwrap(),
            EngineSpec::Johnson { preds_per_line: 1 }
        );
    }

    #[test]
    fn bench_names() {
        assert_eq!(parse_benches("gcc").unwrap()[0].name, "gcc");
        assert_eq!(parse_benches("all").unwrap().len(), 6);
        assert!(parse_benches("quake").is_err());
    }

    #[test]
    fn recovery_policies() {
        assert_eq!(parse_recovery_policy("fail").unwrap(), RecoveryPolicy::Fail);
        assert_eq!(
            parse_recovery_policy("skip").unwrap(),
            RecoveryPolicy::SkipRecord { max_skips: u64::MAX }
        );
        assert_eq!(
            parse_recovery_policy("skip:7").unwrap(),
            RecoveryPolicy::SkipRecord { max_skips: 7 }
        );
        assert_eq!(parse_recovery_policy("truncate").unwrap(), RecoveryPolicy::TruncateAtError);
        assert!(parse_recovery_policy("skip:x").is_err());
        assert!(parse_recovery_policy("ignore").is_err());
    }

    #[test]
    fn usage_errors_convert_to_exit_code_two() {
        let e: NlsError = CliError("bad flag".into()).into();
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn durations() {
        use std::time::Duration;
        assert_eq!(parse_duration("30").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_duration("30s").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert!(parse_duration("0").is_err());
        assert!(parse_duration("fast").is_err());
    }

    #[test]
    fn sizes() {
        assert_eq!(parse_size_mb("256").unwrap(), 256);
        assert_eq!(parse_size_mb("4_096").unwrap(), 4_096);
        assert!(parse_size_mb("0").is_err(), "zero heap budget is a usage error");
        assert!(parse_size_mb("many").is_err(), "non-numeric is a usage error");
        assert!(parse_size_mb("-4").is_err());
    }

    #[test]
    fn counts() {
        assert_eq!(parse_count("8_000_000").unwrap(), 8_000_000);
        assert_eq!(parse_count("2m").unwrap(), 2_000_000);
        assert_eq!(parse_count("500K").unwrap(), 500_000);
        assert!(parse_count("0").is_err());
        assert!(parse_count("abc").is_err());
        let err = parse_count("18446744073709552k").unwrap_err();
        assert!(err.0.contains("too large"), "a count that overflows is refused: {err}");
    }
}
