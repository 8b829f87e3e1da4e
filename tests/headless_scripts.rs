//! The committed headless suite (`tests/scripts/`) through `run_suite`,
//! from the repository root as `mpsoc-test` runs it: every script passes,
//! and the six scripts `benchmark/inputs/` froze still execute the very
//! commands and checks `benchmark/expected.json` pins for them.

use mpsoc_suite::apps::testrunner::run_suite;

#[test]
fn committed_scripts_pass_with_their_pinned_command_and_check_counts() {
    let mut scripts = Vec::new();
    for entry in std::fs::read_dir("tests/scripts").expect("tests/scripts exists") {
        let path = entry.expect("directory entry").path();
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        scripts.push((name, std::fs::read_to_string(&path).expect("script reads")));
    }
    let pins = std::fs::read_to_string("benchmark/expected.json").expect("pins read");
    let mut pinned = 0;
    for v in run_suite(&scripts).verdicts {
        assert!(v.passed(), "{}: {:?}", v.name, v.failures);
        let (name, counts) = (&v.name, (v.commands, v.checks));
        if pins.contains(&format!("\"verdict.{name}\"")) {
            let pin = format!(
                "\"verdict.{name}\": \"commands={} checks={}\"",
                counts.0, counts.1
            );
            assert!(pins.contains(&pin), "{pin} is not what expected.json holds");
            pinned += 1;
        }
    }
    assert_eq!(pinned, 6, "the six frozen scripts are all still here");
}
