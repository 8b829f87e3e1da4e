//! Runs the paper's claims (E1–E13, see EXPERIMENTS.md), prints each table
//! with its verdict, and writes them all to `target/experiments.json`.
//!
//! ```text
//! experiments [--smoke] [ID ...]
//! ```
//!
//! Ids such as `e3 e12` select experiments (default: all, in order);
//! `--smoke` runs E13's seconds-scale profile instead of the full sweep.
//! Exits 1 when an experiment errors, a claim is not reproduced or the JSON
//! cannot be written, and 2 on an unknown argument.

use std::fmt::Write as _;
use std::process::ExitCode;

use mpsoc_suite::experiments::{run, Claim, Outcome, IDS};

const JSON_PATH: &str = "target/experiments.json";

fn main() -> ExitCode {
    let mut smoke = false;
    let mut ids = Vec::new();
    for arg in std::env::args_os().skip(1) {
        let arg = arg.to_string_lossy();
        match IDS.iter().find(|&&id| id == arg) {
            Some(&id) => ids.push(id),
            None if arg == "--smoke" => smoke = true,
            None => {
                eprintln!(
                    "experiments: unknown argument `{arg}`; known ids: {} (and --smoke)",
                    IDS.join(" ")
                );
                return ExitCode::from(2);
            }
        }
    }
    if ids.is_empty() {
        ids = IDS.to_vec();
    }

    let mut ok = true;
    let mut claims = Vec::new();
    for id in ids {
        match run(id, smoke) {
            Ok(claim) => {
                println!(
                    "{}verdict ({}): {}\n",
                    claim.table, claim.section, claim.verdict
                );
                ok &= claim.verdict != Outcome::NotReproduced;
                claims.push(claim);
            }
            Err(e) => {
                eprintln!("{id}: {e}");
                ok = false;
            }
        }
    }
    let written = std::fs::create_dir_all("target")
        .and_then(|()| std::fs::write(JSON_PATH, to_json(&claims, smoke)));
    match written {
        Ok(()) => println!("wrote {JSON_PATH}"),
        Err(e) => {
            eprintln!("{JSON_PATH}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The claims as one JSON document: id, section, verdict and table each.
fn to_json(claims: &[Claim], smoke: bool) -> String {
    let mut s = format!("{{\n  \"smoke\": {smoke},\n  \"claims\": [");
    for (i, c) in claims.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    {{\"id\": \"{}\", \"section\": \"{}\", \"verdict\": \"{:?}\", \"table\": \"",
            c.id, c.section, c.verdict
        );
        for ch in c.table.chars() {
            match ch {
                '"' => s.push_str("\\\""),
                '\\' => s.push_str("\\\\"),
                '\n' => s.push_str("\\n"),
                ch if u32::from(ch) < 0x20 => {
                    let _ = write!(s, "\\u{:04x}", u32::from(ch));
                }
                ch => s.push(ch),
            }
        }
        s.push_str("\"}");
    }
    s.push_str("\n  ]\n}\n");
    s
}
