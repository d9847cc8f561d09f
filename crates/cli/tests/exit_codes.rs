//! End-to-end exit-code contract of the `hsa` binary.
//!
//! Scripts react to *why* a query failed by exit code alone: 0 success,
//! 2 budget, 3 timeout, 4 I/O, 5 invalid input. Every failure prints a
//! one-line `error: <class>: <detail>` to stderr (usage errors print the
//! offending flag plus nothing else on stdout).

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn hsa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hsa")).args(args).output().expect("spawn hsa")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn write_csv(tag: &str, rows: u64) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hsa-exit-{tag}-{}.csv", std::process::id()));
    let mut csv = String::from("k,v\n");
    for i in 0..rows {
        let k = i.wrapping_mul(2654435761) % (rows / 2).max(1);
        csv.push_str(&format!("{k},{i}\n"));
    }
    std::fs::write(&path, csv).unwrap();
    path
}

#[test]
fn success_is_zero() {
    let csv = write_csv("ok", 100);
    let out = hsa(&[csv.to_str().unwrap(), "--group-by", "k", "--sum", "v"]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn help_is_zero_and_prints_usage() {
    let out = hsa(&["--help"]);
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: hsa"));
}

#[test]
fn usage_error_is_invalid_input() {
    let out = hsa(&["--frobnicate"]);
    assert_eq!(code(&out), 5, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--frobnicate"), "{}", stderr(&out));
}

#[test]
fn unreadable_file_is_io() {
    let out = hsa(&["/nonexistent/nope.csv", "--group-by", "k"]);
    assert_eq!(code(&out), 4, "stderr: {}", stderr(&out));
    assert!(stderr(&out).starts_with("error: io: "), "{}", stderr(&out));
}

#[test]
fn unknown_column_is_invalid_input() {
    let csv = write_csv("badcol", 10);
    let out = hsa(&[csv.to_str().unwrap(), "--group-by", "nope"]);
    assert_eq!(code(&out), 5, "stderr: {}", stderr(&out));
    assert!(stderr(&out).starts_with("error: invalid-input: "), "{}", stderr(&out));
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn budget_exhaustion_is_two() {
    let csv = write_csv("budget", 50_000);
    let out = hsa(&[csv.to_str().unwrap(), "--group-by", "k", "--sum", "v", "--mem-budget", "1k"]);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.starts_with("error: budget: "), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "one-line error: {err}");
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn spill_limit_exhaustion_is_two_and_leaves_no_files() {
    let csv = write_csv("disklimit", 50_000);
    let dir = std::env::temp_dir().join(format!("hsa-exit-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = hsa(&[
        csv.to_str().unwrap(),
        "--group-by",
        "k",
        "--sum",
        "v",
        "--mem-budget",
        "2M",
        "--spill-dir",
        dir.to_str().unwrap(),
        "--spill-limit",
        "4k",
        "--chunk-rows",
        "4096",
    ]);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("spill disk budget exceeded"), "{}", stderr(&out));
    // The child exited cleanly, so nothing of its scratch survives —
    // spill files were unlinked on the failure path and the liveness
    // lock was retired on drop.
    let leftover = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftover, 0, "no scratch may survive the failed child");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn timeout_is_three() {
    let csv = write_csv("timeout", 1_000);
    let out = hsa(&[csv.to_str().unwrap(), "--group-by", "k", "--timeout-ms", "0"]);
    assert_eq!(code(&out), 3, "stderr: {}", stderr(&out));
    assert!(stderr(&out).starts_with("error: timeout: "), "{}", stderr(&out));
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn closed_stdout_is_io_not_a_panic() {
    // 20k groups render to ~300 KB, more than a pipe buffers.
    let csv = write_csv("pipe", 40_000);
    let mut child = Command::new(env!("CARGO_BIN_EXE_hsa"))
        .args([csv.to_str().unwrap(), "--group-by", "k", "--count", "--sum", "v"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hsa");
    // Close the only read end before the child writes anything.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for hsa");
    let err = stderr(&out);
    assert_eq!(code(&out), 4, "stderr: {err}");
    assert!(err.starts_with("error: io: cannot write output: "), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&csv);
}
