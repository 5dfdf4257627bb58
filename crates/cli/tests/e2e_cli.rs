//! End-to-end tests of the `nls` binary: process exit codes, stderr
//! classification, corruption recovery and supervised execution
//! (signals, budgets, durable sweeps over a work ledger and their
//! resume) as a user would see them.
//!
//! Each error class must map to its documented exit code (usage 2,
//! corrupt trace 3, failed run 4, checkpoint (saved serve state) 5,
//! I/O 6, interrupted 7, work ledger 8) with the diagnostic on stderr
//! and nothing on stdout.

use std::path::PathBuf;
use std::process::{Command, Output};

fn nls(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nls"))
        .args(args)
        .output()
        .expect("the nls binary must spawn")
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nls-e2e-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Starts `nls serve` on an ephemeral port with `state_dir`; returns
/// the child and the address it announced.
fn spawn_server(state_dir: &str, resume: bool) -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut args = vec!["serve", "--port", "0", "--jobs", "1", "--state-dir", state_dir];
    if resume {
        args.push("--resume");
    }
    let mut child = Command::new(env!("CARGO_BIN_EXE_nls"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the nls binary must spawn");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("the server must announce its address");
    let addr = line
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (child, addr)
}

/// Sends one raw HTTP request and returns the whole response.
fn http(addr: &str, req: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect to nls serve");
    s.write_all(req.as_bytes()).unwrap();
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

#[test]
fn help_exits_zero() {
    let out = nls(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("EXIT CODES"));
    assert!(stderr(&out).is_empty());
}

#[test]
fn usage_errors_exit_two_with_stderr_diagnostics() {
    let ledger = temp_path("usage-ledger.json");
    let l = ledger.to_str().unwrap();
    let sweep = ["sweep", "--bench", "li", "--len", "10k", "--ledger", l, "--workers", "2"];
    let with = |flag: &'static str, value: &'static str| {
        sweep.iter().copied().chain([flag, value]).collect::<Vec<&str>>()
    };
    let (no_heap, deadline) = (with("--max-heap-mb", "0"), with("--deadline", "soon"));
    let (no_records, lots) = (with("--max-records", "0"), with("--max-records", "lots"));
    // A single-valued option given twice; `--cache` may repeat in a sweep.
    let repeated = ["sweep", "--bench", "li", "--bench", "gcc", "--cache", "8K:1", "--cache"];
    let repeated: Vec<&str> = repeated.into_iter().chain(["8K:4", "--ledger", l]).collect();
    // Every dispatched subcommand refuses an option it does not know.
    let bogus = [
        "simulate",
        "sweep",
        "sweep-worker",
        "soak",
        "serve",
        "table1",
        "costs",
        "gen-trace",
        "replay",
        "set-pred",
    ]
    .map(|sub| [sub, "--bogus", "1"]);
    let cases = [
        &["frobnicate"][..],
        &["replay"][..],
        &["gen-trace", "--bench", "all", "--out", "/tmp/x.nlst"][..],
        &no_heap[..],
        &deadline[..],
        &no_records[..],
        &lots[..],
        &["sweep-worker", "--ledger", l, "--bench", "li", "--workers", "65"][..],
        &["sweep", "--bench", "li", "--len", "10k", "--checkpoint", l][..],
        &repeated[..],
        &["simulate", "--bench", "li", "--len", "1k", "--len", "2k"][..],
    ];
    for args in cases.into_iter().chain(bogus.iter().map(|a| &a[..])) {
        let out = nls(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {}", stderr(&out));
        assert!(stderr(&out).starts_with("error[usage]:"), "args {args:?}: {}", stderr(&out));
        if args.get(1) == Some(&"--bogus") {
            let want = format!("error[usage]: unknown option --bogus for `{}`", args[0]);
            assert_eq!(stderr(&out).lines().next(), Some(want.as_str()), "args {args:?}");
        }
        if args == &repeated[..] {
            assert!(
                stderr(&out).contains("--bench is given more than once"),
                "{}",
                stderr(&out)
            );
        }
        assert!(stdout(&out).is_empty(), "errors must not print results");
        assert!(!ledger.exists(), "args {args:?}: a usage error must leave no ledger");
    }
}

#[test]
fn unbuildable_geometries_exit_two_before_simulating() {
    for (flag, spec) in [
        ("--cache", "1073741824K:1"),
        ("--cache", "18014398509481984K:1"),
        ("--engine", "nls-table:1099511627776"),
        ("--engine", "nls-cache:3"),
        ("--engine", "johnson:0"),
        ("--engine", "btb:1:2"),
        ("--engine", "btb:128:4294967297"),
    ] {
        let out = nls(&["simulate", "--bench", "li", "--len", "1k", flag, spec]);
        assert_eq!(out.status.code(), Some(2), "{flag} {spec}: {}", stderr(&out));
        assert!(stderr(&out).starts_with("error[usage]:"), "{flag} {spec}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{flag} {spec}: errors must not print results");
    }
}

/// A geometry the simulator cannot build is a bad request: `nls
/// serve` answers 400 before admission, writes no job file, and keeps
/// serving.
#[cfg(unix)]
#[test]
fn serve_refuses_unbuildable_geometries_with_400_and_no_job_file() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let state_dir = std::env::temp_dir().join("nls-e2e-serve-geometry");
    let _ = std::fs::remove_dir_all(&state_dir);
    let (server, addr) = spawn_server(state_dir.to_str().unwrap(), false);
    for body in [
        "{\"bench\": \"li\", \"cache\": \"1073741824K:1\", \"len\": 1000}",
        "{\"bench\": \"li\", \"engines\": [\"nls-cache:3\"], \"len\": 1000}",
    ] {
        let resp = http(
            &addr,
            &format!(
                "POST /v1/simulate HTTP/1.1\r\nHost: nls\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{body}: {resp}");
    }
    let health = http(&addr, "GET /healthz HTTP/1.1\r\nHost: nls\r\nConnection: close\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "the server must keep serving: {health}");
    let jobs: Vec<_> = std::fs::read_dir(&state_dir)
        .map(|d| d.filter_map(Result::ok).map(|e| e.file_name()).collect())
        .unwrap_or_default();
    assert!(
        !jobs.iter().any(|n| n.to_string_lossy().starts_with("job-")),
        "a refused request must leave no job file: {jobs:?}"
    );
    // SAFETY: plain kill(2) on a child this test owns.
    assert_eq!(unsafe { kill(server.id() as i32, 15) }, 0);
    let out = server.wait_with_output().expect("server must exit");
    assert_eq!(out.status.code(), Some(7), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn missing_trace_file_exits_six_as_io() {
    let out = nls(&["replay", "--trace", "/nonexistent/deeply/missing.nlst"]);
    assert_eq!(out.status.code(), Some(6));
    assert!(stderr(&out).starts_with("error[io]:"), "{}", stderr(&out));
    assert!(stderr(&out).contains("missing.nlst"));
}

#[test]
fn corrupt_trace_exits_three_and_names_the_damage() {
    let path = temp_path("bad-magic.nlst");
    std::fs::write(&path, b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00").unwrap();
    let out = nls(&["replay", "--trace", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.starts_with("error[trace]:"), "{err}");
    assert!(err.contains("magic"), "the diagnostic must name the bad field: {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn gen_trace_then_replay_round_trips_through_the_binary() {
    let path = temp_path("round-trip.nlst");
    let path_s = path.to_str().unwrap();
    let out = nls(&["gen-trace", "--bench", "li", "--out", path_s, "--len", "20k"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("wrote 20000 records"));
    // The atomic writer must leave no temporary sibling behind.
    assert!(!path.with_extension("nlst.tmp").exists());

    let out = nls(&["replay", "--trace", path_s, "--cache", "8K:1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("1024 NLS table"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn replay_of_a_generated_trace_matches_simulate_for_every_engine() {
    // A recorded walk replayed from its file must reproduce the
    // in-memory run of the same bench, length and seed: every metric
    // column, for every engine. Only the bench column (the file path
    // for replay) differs. The length leaves a partial final block.
    let path = temp_path("replay-parity.nlst");
    let path_s = path.to_str().unwrap();
    let walk = ["--len", "30001", "--seed", "11"];
    let out = nls(&[&["gen-trace", "--bench", "gcc", "--out", path_s][..], &walk].concat());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let engines = [
        "--cache",
        "8K:2",
        "--engine",
        "btb:128:1",
        "--engine",
        "nls-table:1024",
        "--engine",
        "nls-cache:2",
        "--engine",
        "johnson:2",
        "--csv",
    ];
    let simulated = nls(&[&["simulate", "--bench", "gcc"][..], &walk, &engines].concat());
    let replayed = nls(&[&["replay", "--trace", path_s][..], &engines].concat());
    let metrics = |out: &Output| -> Vec<String> {
        assert_eq!(out.status.code(), Some(0), "{}", stderr(out));
        let text = stdout(out);
        text.lines()
            .skip(1)
            .map(|l| l.split_once(',').map_or(l, |(_, m)| m).to_string())
            .collect()
    };
    let want = metrics(&simulated);
    assert_eq!(want.len(), 4, "one row per engine: {want:?}");
    assert_eq!(metrics(&replayed), want, "replay diverged from simulate");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sweep_rows_equal_per_cell_simulate_rows_in_process_and_through_the_ledger() {
    // The cells of one benchmark share a walk in a sweep; each row must
    // still be exactly the row `nls simulate` prints for that cell
    // alone. The length leaves a partial final block.
    let walk = ["--len", "30001", "--seed", "13"];
    let engines = [
        "--engine",
        "btb:128:1",
        "--engine",
        "nls-table:1024",
        "--engine",
        "nls-cache:2",
        "--engine",
        "johnson:2",
        "--csv",
    ];
    let caches = ["8K:1", "16K:4", "32K:4"];
    let rows = |out: &Output| -> Vec<String> {
        assert_eq!(out.status.code(), Some(0), "{}", stderr(out));
        stdout(out).lines().skip(1).map(str::to_string).collect()
    };
    // `simulate --bench all` prints one cache's rows for every
    // benchmark; the sweep lists cells benchmark-major.
    let per_cache: Vec<Vec<String>> = caches
        .iter()
        .map(|c| {
            rows(&nls(
                &[&["simulate", "--bench", "all", "--cache", c][..], &walk, &engines].concat()
            ))
        })
        .collect();
    let mut want = Vec::new();
    for bench in ["doduc", "espresso", "gcc", "li", "cfront", "groff"] {
        for cache_rows in &per_cache {
            want.extend(
                cache_rows.iter().filter(|r| r.starts_with(&format!("{bench},"))).cloned(),
            );
        }
    }
    assert_eq!(want.len(), 6 * caches.len() * 4, "one row per cell and engine");

    let mut sweep = vec!["sweep", "--bench", "all"];
    for c in caches {
        sweep.extend(["--cache", c]);
    }
    sweep.extend(walk);
    sweep.extend(engines);
    assert_eq!(rows(&nls(&sweep)), want, "in-process sweep rows differ from simulate");

    let ledger = temp_path("sweep-vs-simulate-ledger.json");
    let ledger_s = ledger.to_str().unwrap();
    sweep.extend(["--workers", "2", "--ledger", ledger_s]);
    assert_eq!(rows(&nls(&sweep)), want, "ledger sweep rows differ from simulate");
    let _ = std::fs::remove_file(&ledger);
}

#[test]
fn on_corrupt_skip_recovers_where_the_default_fails() {
    let path = temp_path("skip-recovers.nlst");
    let path_s = path.to_str().unwrap();
    assert_eq!(
        nls(&["gen-trace", "--bench", "li", "--out", path_s, "--len", "20k"]).status.code(),
        Some(0)
    );
    // Corrupt one record's kind tag in the middle of the body.
    let mut data = std::fs::read(&path).unwrap();
    let offset = 16 + 500 * 18; // header + 500 records
    data[offset] = 0xee;
    std::fs::write(&path, &data).unwrap();

    let strict = nls(&["replay", "--trace", path_s]);
    assert_eq!(strict.status.code(), Some(3), "{}", stderr(&strict));

    let skip = nls(&["replay", "--trace", path_s, "--on-corrupt", "skip"]);
    assert_eq!(skip.status.code(), Some(0), "{}", stderr(&skip));
    assert!(stdout(&skip).contains("skipped 1 corrupt record"), "{}", stdout(&skip));

    let truncate = nls(&["replay", "--trace", path_s, "--on-corrupt", "truncate"]);
    assert_eq!(truncate.status.code(), Some(0), "{}", stderr(&truncate));
    assert!(stdout(&truncate).contains("500 of 20000"), "{}", stdout(&truncate));
    let _ = std::fs::remove_file(&path);
}

/// Writes a 10k-record li trace to `name` and applies `damage` to its
/// bytes; returns the path.
fn damaged_trace(name: &str, damage: impl FnOnce(&mut Vec<u8>)) -> PathBuf {
    let path = temp_path(name);
    let path_s = path.to_str().unwrap();
    let out = nls(&["gen-trace", "--bench", "li", "--out", path_s, "--len", "10k"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let mut data = std::fs::read(&path).unwrap();
    damage(&mut data);
    std::fs::write(&path, &data).unwrap();
    path
}

/// Replays `path` under `policy`; asserts the trace error's exit code
/// and empty stdout, and returns stderr's error and note lines.
fn trace_error(path: &std::path::Path, policy: &str) -> (String, String) {
    let out = nls(&["replay", "--trace", path.to_str().unwrap(), "--on-corrupt", policy]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    let err = stderr(&out);
    let line =
        |prefix: &str| err.lines().find(|l| l.starts_with(prefix)).unwrap_or("").to_string();
    (line("error[trace]:"), line("note:"))
}

#[test]
fn a_corrupt_frame_is_named_by_its_record_index() {
    // Frame 4097 lies past the first 4096-record block.
    let path = damaged_trace("bad-frame.nlst", |data| data[16 + 4097 * 18] = 0xee);
    let (error, note) = trace_error(&path, "fail");
    assert!(error.contains("malformed record 4097: kind tag 238"), "{error}");
    assert!(note.contains("--on-corrupt=skip"), "{note}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_body_cut_short_suggests_truncate_not_the_skip_already_given() {
    let path = damaged_trace("short-body.nlst", |data| data.truncate(16 + 4096 * 18 + 5));
    let (error, note) = trace_error(&path, "skip");
    assert!(error.contains("body truncated after 4096 of 10000 records"), "{error}");
    assert!(note.contains("--on-corrupt=truncate"), "{note}");
    assert!(!note.contains("--on-corrupt=skip"), "skipping cannot help a short body: {note}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn an_exceeded_skip_limit_says_the_limit_was_hit() {
    let path = damaged_trace("too-corrupt.nlst", |data| {
        for frame in [4095, 4096, 8191, 8192] {
            data[16 + frame * 18] = 0xee;
        }
    });
    let (error, note) = trace_error(&path, "skip:3");
    assert!(error.contains("4 corrupt records exceed the skip limit of 3"), "{error}");
    assert!(note.contains("skip limit was hit"), "{note}");
    assert!(note.contains("--on-corrupt=truncate"), "{note}");
    let _ = std::fs::remove_file(&path);
}

/// A `--max-heap-mb` that refuses a cell's geometry refuses it on every
/// rerun, so the sweep names the refused cells and suggests a larger
/// budget or a smaller grid, never `--resume`, in memory and through a
/// ledger alike; an in-memory sweep a record budget stops does not
/// suggest `--resume` either.
#[test]
fn a_heap_refusal_names_its_cells_and_no_in_memory_sweep_suggests_resume() {
    let sweep: Vec<&str> =
        "sweep --bench li --len 10k --cache 8K:1 --cache 4096K:1 --max-heap-mb 1"
            .split(' ')
            .collect();
    let ledger = temp_path("heap-refusal-ledger.json");
    let durable =
        [&sweep[..], &["--ledger", ledger.to_str().unwrap(), "--workers", "2"]].concat();
    for args in [&sweep[..], &durable[..]] {
        let out = nls(args);
        assert_eq!(out.status.code(), Some(7), "{}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{}", stdout(&out));
        let err = stderr(&out);
        assert_eq!(err.lines().filter(|l| l.starts_with("error[")).count(), 1, "{err}");
        assert_eq!(err.lines().filter(|l| l.starts_with("note:")).count(), 1, "{err}");
        assert!(err.contains("sweep stopped after 1/2 cells"), "{err}");
        assert!(err.contains("--max-heap-mb 1 refuses li | 4096K direct |"), "{err}");
        assert!(!err.contains("li | 8K direct"), "the 8K cell fits: {err}");
        assert!(err.contains("raise it or drop those geometries"), "{err}");
        assert!(!err.contains("--resume"), "a rerun is refused again: {err}");
    }
    let _ = std::fs::remove_file(&ledger);

    let records: Vec<&str> =
        "sweep --bench li --len 10k --cache 8K:1 --max-records 100".split(' ').collect();
    let out = nls(&records);
    assert_eq!(out.status.code(), Some(7), "{}", stderr(&out));
    assert!(!stderr(&out).contains("--resume"), "{}", stderr(&out));
}

#[test]
fn deadline_budget_degrades_with_a_note_not_a_crash() {
    let out = nls(&["simulate", "--bench", "li", "--len", "4m", "--deadline", "1ms"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("stopped early"), "{text}");
    assert!(text.contains("deadline"), "{text}");
}

/// A record budget stops every cell of a sweep after 100 records. In
/// memory and with `--ledger` alike, the stopped cell is released
/// unfinished: the sweep prints no rows and exits 7, with one error,
/// naming the budget, and one note.
#[test]
fn a_record_budget_interrupts_a_sweep_in_memory_and_through_a_ledger() {
    let sweep =
        ["sweep", "--bench", "li", "--len", "10k", "--cache", "8K:1", "--max-records", "100"];
    let ledger = temp_path("record-budget-ledger.json");
    let durable = [&sweep[..], &["--ledger", ledger.to_str().unwrap()]].concat();
    for args in [&sweep[..], &durable[..]] {
        let out = nls(args);
        assert_eq!(out.status.code(), Some(7), "{}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{}", stdout(&out));
        let err = stderr(&out);
        assert_eq!(err.lines().filter(|l| l.starts_with("error[")).count(), 1, "{err}");
        assert_eq!(err.lines().filter(|l| l.starts_with("note:")).count(), 1, "{err}");
        assert!(err.starts_with("error[interrupted]:"), "{err}");
        assert!(err.contains("sweep stopped after 0/1 cells"), "{err}");
        assert!(err.contains("record budget of 100 trace records exhausted"), "{err}");
    }
    let _ = std::fs::remove_file(&ledger);
}

#[test]
fn soak_command_is_healthy_and_exits_zero() {
    let out = nls(&["soak", "--cases", "2", "--len", "10k", "--faults", "3"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("healthy=yes"), "{}", stdout(&out));
}

/// The supervision acceptance path end to end: a `--ledger --workers
/// 2` sweep is SIGINT'd once its ledger holds a finished cell and
/// exits 7, naming how to continue. A rerun without `--resume` refuses
/// the ledger and leaves it as it was; a rerun with `--resume` (and
/// the default worker count) completes the sweep, and its stdout is
/// byte for byte the in-memory sweep's.
#[cfg(unix)]
#[test]
fn sigint_mid_ledger_sweep_leaves_a_ledger_that_resume_completes() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let path = temp_path("sigint-resume.json");
    let _ = std::fs::remove_file(format!("{}.lock", path.display()));
    let path_s = path.to_str().unwrap().to_string();
    // Six benchmarks over the six paper caches: every worker claim is
    // one benchmark's six cells, so when the first claim publishes,
    // most of the sweep is still to run.
    let base = vec!["sweep", "--bench", "all", "--engine", "nls-table:512", "--len", "2m"];
    let mut ledger_args = base.clone();
    ledger_args.extend(["--ledger", &path_s]);

    let mut interrupted_args = ledger_args.clone();
    interrupted_args.extend(["--workers", "2"]);
    let child = Command::new(env!("CARGO_BIN_EXE_nls"))
        .args(&interrupted_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the nls binary must spawn");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !std::fs::read_to_string(&path).is_ok_and(|text| text.contains("\"done\"")) {
        assert!(Instant::now() < deadline, "no cell of {path_s} was ever done");
        std::thread::sleep(Duration::from_millis(5));
    }
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;
    // SAFETY: plain kill(2) on a child this test owns.
    let rc = unsafe { kill(child.id() as i32, SIGINT) };
    assert_eq!(rc, 0, "kill(2) must reach the child");
    let out = child.wait_with_output().expect("child must exit");
    assert_eq!(out.status.code(), Some(7), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.starts_with("error[interrupted]:"), "{err}");
    assert!(err.contains("sweep stopped after"), "{err}");
    assert!(err.contains("--resume"), "the hint must say how to continue: {err}");
    assert!(!err.contains("--checkpoint"), "no hint names a removed flag: {err}");
    assert!(stdout(&out).is_empty(), "an interrupted sweep prints no results");

    // The ledger keeps the finished cells; a rerun without --resume
    // refuses it and leaves it as it was.
    let kept = std::fs::read(&path).expect("the ledger must exist");
    assert!(String::from_utf8_lossy(&kept).contains("\"done\""));
    let refused = nls(&ledger_args);
    assert_eq!(refused.status.code(), Some(8), "{}", stderr(&refused));
    assert!(stderr(&refused).contains("--resume"), "{}", stderr(&refused));
    assert_eq!(
        std::fs::read(&path).unwrap(),
        kept,
        "a refused rerun must not touch the ledger"
    );

    // Resume to completion with the default worker count, and compare
    // with the in-memory sweep.
    let mut resume_args = ledger_args.clone();
    resume_args.push("--resume");
    let resumed = nls(&resume_args);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).min(36);
    let summaries = stderr(&resumed).lines().filter(|l| l.starts_with("worker w")).count();
    assert_eq!(summaries, workers, "one worker per core by default: {}", stderr(&resumed));
    assert!(!stderr(&resumed).contains("--checkpoint"), "{}", stderr(&resumed));
    let in_memory = nls(&base);
    assert_eq!(in_memory.status.code(), Some(0), "{}", stderr(&in_memory));
    assert_eq!(stdout(&in_memory).lines().count(), 1 + 36, "a header and one row per cell");
    assert_eq!(
        stdout(&resumed),
        stdout(&in_memory),
        "resumed metrics must equal the in-memory sweep byte for byte"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.contains("\"pending\"") && !text.contains("\"leased\""), "{text}");
    let _ = std::fs::remove_file(&path);
}

/// The distributed-sweep acceptance path end to end: a `--workers 3`
/// sweep has one worker SIGKILLed while it provably holds a lease,
/// a survivor reclaims the orphaned cell once the lease expires, the
/// parent still exits 0, and the merged metrics equal a `--workers
/// 1` run of the same grid bit-for-bit.
#[cfg(unix)]
#[test]
fn sigkilled_worker_is_reclaimed_and_merged_output_is_bit_identical() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;

    /// PID of the `sweep-worker` child holding `worker_id` against
    /// `ledger`, found the way an operator would: /proc cmdlines.
    fn worker_pid(worker_id: &str, ledger: &str) -> Option<i32> {
        for entry in std::fs::read_dir("/proc").ok()?.flatten() {
            let pid: i32 = match entry.file_name().to_string_lossy().parse() {
                Ok(pid) => pid,
                Err(_) => continue,
            };
            let Ok(raw) = std::fs::read(entry.path().join("cmdline")) else { continue };
            let args: Vec<&str> =
                raw.split(|b| *b == 0).map(|a| std::str::from_utf8(a).unwrap_or("")).collect();
            if args.contains(&"sweep-worker")
                && args.contains(&worker_id)
                && args.contains(&ledger)
            {
                return Some(pid);
            }
        }
        None
    }

    let single = temp_path("ledger-single.json");
    let multi = temp_path("ledger-multi.json");
    for p in [&single, &multi] {
        let _ = std::fs::remove_file(format!("{}.lock", p.display()));
    }
    let single_s = single.to_str().unwrap().to_string();
    let multi_s = multi.to_str().unwrap().to_string();

    // One bench over the six paper caches: six cells, each long
    // enough that the kill below always lands mid-cell.
    let base = vec![
        "sweep",
        "--bench",
        "li",
        "--engine",
        "nls-table:512",
        "--len",
        "1m",
        "--seed",
        "11",
    ];

    // The single-process reference.
    let mut ref_args = base.clone();
    ref_args.extend(["--ledger", &single_s, "--workers", "1"]);
    let reference = nls(&ref_args);
    assert_eq!(reference.status.code(), Some(0), "{}", stderr(&reference));

    // The distributed run, with a short lease so reclamation is fast.
    let mut multi_args = base.clone();
    multi_args.extend(["--ledger", &multi_s, "--workers", "3", "--lease-ms", "300"]);
    let parent = Command::new(env!("CARGO_BIN_EXE_nls"))
        .args(&multi_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the nls binary must spawn");

    // Wait until the ledger shows some worker holding a lease, then
    // SIGKILL that worker while it provably owns an unfinished cell.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut victim: Option<(String, i32)> = None;
    while victim.is_none() {
        assert!(Instant::now() < deadline, "no lease ever appeared in {multi_s}");
        if let Ok(text) = std::fs::read_to_string(&multi) {
            if let Some(at) = text.find("\"leased\"") {
                if let Some(tail) =
                    text.get(at..).and_then(|t| t.split("\"worker\": \"").nth(1))
                {
                    let holder = tail.chars().take_while(|c| *c != '"').collect::<String>();
                    if let Some(pid) = worker_pid(&holder, &multi_s) {
                        victim = Some((holder, pid));
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let (holder, pid) = victim.unwrap();
    // SAFETY: plain kill(2) on a worker process this test observed.
    let rc = unsafe { kill(pid, SIGKILL) };
    assert_eq!(rc, 0, "SIGKILL must reach worker {holder} (pid {pid})");

    let out = parent.wait_with_output().expect("parent must exit");
    assert_eq!(
        out.status.code(),
        Some(0),
        "a killed worker must not fail the sweep\nstderr: {}",
        stderr(&out)
    );

    // Bit-for-bit: the merged multi-worker output equals --workers 1.
    assert_eq!(
        stdout(&out),
        stdout(&reference),
        "merged metrics must be identical to the single-process run"
    );

    // A survivor must have reclaimed the victim's orphaned cell (its
    // per-worker summary counts reclaims), and the drained ledger
    // must hold only done cells.
    let err = stderr(&out);
    let reclaims: usize = err
        .lines()
        .filter_map(|l| l.split_once(" reclaimed)"))
        .filter_map(|(head, _)| head.rsplit('(').next())
        .filter_map(|n| n.trim().parse::<usize>().ok())
        .sum();
    assert!(reclaims > 0, "no survivor reported a reclaimed cell:\n{err}");
    let text = std::fs::read_to_string(&multi).unwrap();
    assert!(!text.contains("\"leased\"") && !text.contains("\"pending\""), "{text}");
    assert!(text.contains("\"done\""), "{text}");

    for p in [&single, &multi] {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(format!("{}.lock", p.display()));
    }
}

/// The service acceptance path end to end: `nls serve` accepts a
/// sweep job, is SIGTERM'd while the job is in flight, drains with
/// exit code 7 and the interrupted diagnostic, and a `--resume`
/// restart carries the accepted job to completion — no accepted work
/// is ever dropped.
#[cfg(unix)]
#[test]
fn sigterm_drains_the_server_and_resume_completes_accepted_jobs() {
    use std::time::Duration;

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let state_dir = std::env::temp_dir().join("nls-e2e-serve-state");
    let _ = std::fs::remove_dir_all(&state_dir);
    let state_s = state_dir.to_str().unwrap().to_string();

    // Phase 1: accept a sweep long enough that the signal always
    // lands while it is still in flight.
    let (mut server, addr) = spawn_server(&state_s, false);
    let body = "{\"bench\": \"li\", \"caches\": [\"8K:1\", \"8K:2\", \"16K:1\", \"16K:2\"], \
                \"engines\": [\"nls-table:512\"], \"len\": 8000000, \"seed\": 9}";
    let submit = format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: nls\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let resp = http(&addr, &submit);
    assert!(resp.starts_with("HTTP/1.1 202"), "submit must be accepted: {resp}");
    let job_id: u64 = resp
        .split("\"job\": ")
        .nth(1)
        .and_then(|t| {
            t.chars().take_while(char::is_ascii_digit).collect::<String>().parse().ok()
        })
        .unwrap_or_else(|| panic!("no job id in {resp}"));

    std::thread::sleep(Duration::from_millis(300));
    assert!(
        server.try_wait().expect("try_wait").is_none(),
        "the job finished before the signal; grow --len to keep this test meaningful"
    );
    // SAFETY: plain kill(2) on a child this test owns.
    let rc = unsafe { kill(server.id() as i32, SIGTERM) };
    assert_eq!(rc, 0, "kill(2) must reach the server");
    let out = server.wait_with_output().expect("server must exit");
    assert_eq!(out.status.code(), Some(7), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.starts_with("error[interrupted]:"), "{err}");
    assert!(err.contains("--resume"), "the drain must say how to continue: {err}");
    assert!(err.contains("1 unfinished job"), "the accepted job must be checkpointed: {err}");

    // Phase 2: a --resume restart adopts the checkpointed job and
    // carries it to completion; streaming its status blocks until
    // the terminal line arrives.
    let (server, addr) = spawn_server(&state_s, true);
    let stream = http(
        &addr,
        &format!("GET /v1/jobs/{job_id} HTTP/1.1\r\nHost: nls\r\nConnection: close\r\n\r\n"),
    );
    let last = stream
        .lines()
        .rfind(|l| l.trim_start().starts_with('{'))
        .unwrap_or_else(|| panic!("no status lines in {stream}"));
    assert!(last.contains("\"status\": \"done\""), "resumed job must finish: {last}");
    assert!(last.contains("\"results\": ["), "a finished job carries its results: {last}");

    // A drain with nothing in flight still exits through the
    // interrupted path.
    let rc = unsafe { kill(server.id() as i32, SIGTERM) };
    assert_eq!(rc, 0);
    let out = server.wait_with_output().expect("server must exit");
    assert_eq!(out.status.code(), Some(7), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn truncated_trace_file_recovers_under_truncate_policy() {
    let path = temp_path("torn-write.nlst");
    let path_s = path.to_str().unwrap();
    assert_eq!(
        nls(&["gen-trace", "--bench", "espresso", "--out", path_s, "--len", "10k"])
            .status
            .code(),
        Some(0)
    );
    // Simulate a torn write: keep the header and 1000.5 records.
    let data = std::fs::read(&path).unwrap();
    std::fs::write(&path, &data[..16 + 1000 * 18 + 9]).unwrap();

    let strict = nls(&["replay", "--trace", path_s]);
    assert_eq!(strict.status.code(), Some(3));

    let out = nls(&["replay", "--trace", path_s, "--on-corrupt", "truncate"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("1000 of 10000"), "{}", stdout(&out));
    let _ = std::fs::remove_file(&path);
}
