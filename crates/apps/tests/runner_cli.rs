//! End-to-end CLI tests for the `mpsoc-test` headless runner: a failing
//! expectation must yield a JUnit `<failure>` element and a non-zero exit
//! code, and a passing suite must exit 0 with clean reports.

use std::path::PathBuf;
use std::process::Command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpsoc-test-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mpsoc-test"))
        .args(args)
        .output()
        .expect("mpsoc-test runs")
}

#[test]
fn failing_expectation_fails_the_run_with_junit_failure() {
    let dir = scratch_dir("fail");
    let script = dir.join("broken.mts");
    std::fs::write(
        &script,
        "platform race\nstep 3\nexpect pc 0 == 999\nexpect mem 0x40 == -5\n",
    )
    .expect("script writes");
    let junit = dir.join("junit.xml");
    let json = dir.join("verdicts.json");

    let out = run(&[
        script.to_str().unwrap(),
        "--junit",
        junit.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "a failing script must fail the run");

    let xml = std::fs::read_to_string(&junit).expect("junit written");
    assert!(xml.contains("failures=\"1\""), "{xml}");
    assert!(
        xml.contains("<failure message=\"2 expectation(s) failed\">"),
        "{xml}"
    );
    assert!(xml.contains("line 3:"), "{xml}");

    let verdicts = std::fs::read_to_string(&json).expect("json written");
    assert!(verdicts.contains("\"failed\": 1"), "{verdicts}");
    assert!(verdicts.contains("\"passed\": false"), "{verdicts}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn passing_suite_exits_zero_with_clean_reports() {
    let dir = scratch_dir("pass");
    std::fs::write(
        dir.join("ok.mts"),
        "platform race\nbreak 3\nrun\nexpect stop breakpoint\n",
    )
    .expect("script writes");
    let junit = dir.join("junit.xml");
    let json = dir.join("verdicts.json");

    let out = run(&[
        dir.to_str().unwrap(),
        "--junit",
        junit.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let xml = std::fs::read_to_string(&junit).expect("junit written");
    assert!(xml.contains("failures=\"0\""), "{xml}");
    assert!(!xml.contains("<failure"), "{xml}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runaway_nesting_in_a_script_file_is_a_located_failure_not_a_crash() {
    let dir = scratch_dir("deep");
    let script = dir.join("deep.mts");
    std::fs::write(
        &script,
        format!("platform race\nassert a {}1\n", "!".repeat(400_000)),
    )
    .expect("script writes");
    let junit = dir.join("junit.xml");
    let json = dir.join("verdicts.json");

    let out = run(&[
        script.to_str().unwrap(),
        "--junit",
        junit.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    // A stack overflow ends the process by signal: no exit code, no report.
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let xml = std::fs::read_to_string(&junit).expect("junit written");
    assert!(
        xml.contains("line 2: expression nests deeper than 64 levels at column 66 "),
        "{xml}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_scripts_found_is_an_error() {
    let dir = scratch_dir("empty");
    let out = run(&[dir.to_str().unwrap()]);
    assert!(!out.status.success(), "an empty suite must not pass");
    let _ = std::fs::remove_dir_all(&dir);
}
