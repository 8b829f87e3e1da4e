//! End-to-end CLI tests for the `experiments` binary: a selected claim
//! prints its table and verdict and lands in `target/experiments.json`, an
//! unknown id exits 2 naming the known ids, and a failure exits non-zero
//! with a message.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("experiments-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_in(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("experiments runs")
}

#[test]
fn selected_claim_prints_its_verdict_and_writes_json() {
    let dir = scratch_dir("pass");
    let out = run_in(&dir, &["--smoke", "e2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.starts_with("E2: parallel-stream"), "{stdout}");
    assert!(stdout.contains("verdict (§II.B): reproduced"), "{stdout}");
    assert!(!stdout.contains("E1:"), "only e2 was selected: {stdout}");

    let json = std::fs::read_to_string(dir.join("target/experiments.json")).expect("json written");
    assert!(json.contains("\"id\": \"e2\""), "{json}");
    assert!(json.contains("\"verdict\": \"Reproduced\""), "{json}");
    assert!(json.contains("\"smoke\": true"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_id_exits_2_and_lists_the_known_ids() {
    let dir = scratch_dir("unknown");
    let out = run_in(&dir, &["e2", "e14"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`e14`"), "{stderr}");
    assert!(stderr.contains("e1 e2 e3"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on a bad command line");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failure_exits_nonzero_with_its_error() {
    // A file where the binary needs the `target` directory: the claim still
    // prints, the JSON write fails, and the run fails.
    let dir = scratch_dir("fail");
    std::fs::write(dir.join("target"), "not a directory").expect("blocker writes");
    let out = run_in(&dir, &["e2"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("reproduced"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("target/experiments.json: "), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
