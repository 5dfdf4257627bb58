//! Golden outputs: the exact text `nls` prints for four fixed jobs at
//! seed 1995 and 20k records — a sweep over the six paper caches, the
//! replay of a generated trace, a sweep through a work ledger and two
//! worker processes, and a job of `nls serve`. These are the probes
//! whose FNV-1a digests the benchmark pins. Each test regenerates its
//! output and compares it with the committed file in `tests/golden/`;
//! on a mismatch it prints the rows that differ and the command whose
//! output the file is. A change that moves a simulated number rewrites
//! the files and says why.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

const ENGINES: [&str; 8] = [
    "--engine",
    "btb:128:1",
    "--engine",
    "nls-table:1024",
    "--engine",
    "nls-cache:2",
    "--engine",
    "johnson:2",
];

const CACHES: [&str; 6] = ["8K:1", "8K:4", "16K:1", "16K:4", "32K:1", "32K:4"];

/// `nls args...`'s stdout; panics unless it exits 0.
fn nls(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_nls"))
        .args(args)
        .output()
        .expect("the nls binary must spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "nls {}: {:?}\n{stderr}", args.join(" "), out.status);
    String::from_utf8(out.stdout).expect("nls prints UTF-8")
}

/// A fresh temporary directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nls-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the temp dir is writable");
    dir
}

/// The sweep's arguments over `caches` with the four engines.
fn sweep_args<'a>(caches: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec!["sweep", "--bench", "all", "--len", "20k", "--seed", "1995"];
    for cache in caches {
        args.extend(["--cache", cache]);
    }
    args.extend(ENGINES);
    args.push("--csv");
    args
}

/// Panics unless `got` is the golden file `name`'s text, naming each
/// row that differs and the command that produces the file.
fn assert_golden(name: &str, want: &str, got: &str, command: &str) {
    if got == want {
        return;
    }
    let (want, got): (Vec<&str>, Vec<&str>) =
        (want.split('\n').collect(), got.split('\n').collect());
    let mut rows = String::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i).copied(), got.get(i).copied());
        if w != g {
            let (w, g) = (w.unwrap_or("(no row)"), g.unwrap_or("(no row)"));
            let _ = writeln!(rows, "  row {}: want {w}\n  row {}:  got {g}", i + 1, i + 1);
        }
    }
    panic!("the output differs from tests/golden/{name}, the output of\n  {command}\n{rows}");
}

#[test]
fn sweep_over_the_paper_caches_matches_the_golden_file() {
    let args = sweep_args(&CACHES);
    let got = nls(&args);
    let command = format!("nls {}", args.join(" "));
    assert_golden("sweep.csv", include_str!("golden/sweep.csv"), &got, &command);
}

#[test]
fn replay_of_a_generated_trace_matches_the_golden_file() {
    let dir = fresh_dir("replay");
    let trace = dir.join("gcc.nlst");
    let trace = trace.to_str().expect("UTF-8 temp path");
    nls(&["gen-trace", "--bench", "gcc", "--len", "20k", "--seed", "1995", "--out", trace]);
    let mut rows = Vec::new();
    for cache in CACHES {
        let out =
            nls(&[&["replay", "--trace", trace, "--cache", cache][..], &ENGINES, &["--csv"]]
                .concat());
        // Each row without its header and its first column, the trace path.
        rows.extend(
            out.lines()
                .filter(|row| !row.starts_with("bench,"))
                .map(|row| row.split_once(',').map_or(row, |(_, rest)| rest).to_string()),
        );
    }
    let command = "nls gen-trace --bench gcc --len 20k --seed 1995 --out T, then for each \
                   cache C of 8K:1 8K:4 16K:1 16K:4 32K:1 32K:4: nls replay --trace T \
                   --cache C --engine btb:128:1 --engine nls-table:1024 --engine nls-cache:2 \
                   --engine johnson:2 --csv, each row without the header and its first column, \
                   joined by newlines";
    assert_golden("replay.txt", include_str!("golden/replay.txt"), &rows.join("\n"), command);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_through_a_ledger_and_two_workers_matches_the_golden_file() {
    let dir = fresh_dir("ledger");
    let ledger = dir.join("ledger.json");
    let ledger = ledger.to_str().expect("UTF-8 temp path");
    let args = [&sweep_args(&["8K:1"])[..], &["--workers", "2", "--ledger", ledger]].concat();
    let got = nls(&args);
    let command = format!("nls {}", args.join(" ")).replace(ledger, "<fresh file>");
    assert_golden("ledger.csv", include_str!("golden/ledger.csv"), &got, &command);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends one HTTP/1.1 request with `Connection: close` and returns the
/// whole response.
fn http(addr: &str, method: &str, path: &str, body: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect to nls serve");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: nls\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(request.as_bytes()).expect("send the request");
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read the response");
    response
}

/// A running `nls serve`, killed when dropped, so a failing test
/// leaves no server behind.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn a_serve_job_matches_the_golden_file() {
    let dir = fresh_dir("serve");
    let state = dir.to_str().expect("UTF-8 temp path");
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_nls"))
            .args(["serve", "--port", "0", "--jobs", "1", "--state-dir", state])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("the nls binary must spawn"),
    );
    let mut banner = String::new();
    BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("the server announces its address");
    let addr = banner.trim().strip_prefix("serving on ").expect("a `serving on` banner");

    let body = r#"{"bench": "li", "cache": "8K:1", "len": 20000, "seed": 1995}"#;
    let submitted = http(addr, "POST", "/v1/simulate", body);
    assert!(submitted.starts_with("HTTP/1.1 202"), "a fresh server runs the job: {submitted}");
    let job: String = submitted
        .split_once("\"job\": ")
        .map(|(_, rest)| rest.chars().take_while(char::is_ascii_digit).collect())
        .unwrap_or_else(|| panic!("no job id in {submitted}"));
    // The progress stream ends with the job's final line; its results
    // value is the golden text.
    let stream = http(addr, "GET", &format!("/v1/jobs/{job}"), "");
    let last = stream.lines().rfind(|l| l.starts_with('{')).unwrap_or_default();
    let got = last
        .split_once("\"results\": ")
        .and_then(|(_, rest)| rest.trim_end().strip_suffix('}'))
        .unwrap_or_else(|| panic!("the job did not finish: {last}"));
    let command = format!(
        "POST /v1/simulate {body} to a fresh `nls serve`: the results value of the job's \
         final progress line"
    );
    assert_golden("serve_job.json", include_str!("golden/serve_job.json"), got, &command);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
