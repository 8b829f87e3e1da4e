//! The top-level documents stay true to the code: EXPERIMENTS.md's measured
//! blocks are what the experiments render, and every file path the docs
//! name exists.

use std::fs;
use std::path::Path;

use mpsoc_suite::experiments::{run, IDS};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Each `<!-- experiment:eN -->` … `<!-- /experiment:eN -->` block holds
/// claim eN's table and verdict line, exactly as rendered. On a mismatch
/// the regenerated file is written to `target/EXPERIMENTS.md`.
#[test]
fn experiments_md_blocks_are_generated() {
    let committed =
        fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md reads");
    let mut doc = committed.clone();
    for id in IDS {
        let claim = run(id, true).unwrap_or_else(|e| panic!("{id}: {e}"));
        let begin = format!("<!-- experiment:{id} -->\n");
        let end = format!("<!-- /experiment:{id} -->");
        let start = doc
            .find(&begin)
            .unwrap_or_else(|| panic!("EXPERIMENTS.md lacks the marker {begin}"))
            + begin.len();
        let stop = start
            + doc[start..]
                .find(&end)
                .unwrap_or_else(|| panic!("EXPERIMENTS.md lacks the marker {end}"));
        let block = format!(
            "```text\n{}```\n\n**Verdict: {}.**\n",
            claim.table, claim.verdict
        );
        doc.replace_range(start..stop, &block);
    }
    if doc != committed {
        let out = root().join("target").join("EXPERIMENTS.md");
        fs::create_dir_all(root().join("target")).expect("target/ is creatable");
        fs::write(&out, &doc).expect("regenerated EXPERIMENTS.md writes");
        panic!(
            "EXPERIMENTS.md's generated blocks differ from what the experiments render; \
             the regenerated file is at {} (copy it over EXPERIMENTS.md)",
            out.display()
        );
    }
}

/// Extensions of the files the docs name by path.
const FILE_EXTENSIONS: [&str; 9] = [
    "rs", "md", "sh", "toml", "json", "yml", "soc", "mts", "lock",
];

/// The file path a backticked span names, if it names one: a span with a
/// `/`, or a file name with a known extension. `tests/x.rs::name` names
/// `tests/x.rs`; build artifacts under `target/` and bare extensions
/// (`.soc`) name no file.
fn named_path(span: &str) -> Option<&str> {
    let path = span.split("::").next()?;
    if path.is_empty() || path.contains(char::is_whitespace) || path.starts_with("target/") {
        return None;
    }
    let file = path.rsplit('/').next()?;
    let has_extension = file
        .rsplit_once('.')
        .is_some_and(|(stem, ext)| !stem.is_empty() && FILE_EXTENSIONS.contains(&ext));
    (path.contains('/') || has_extension).then_some(path)
}

/// Whether `path` exists relative to `base`; a `*` in the last component
/// must match at least one entry of its directory.
fn resolves(base: &Path, path: &str) -> bool {
    let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
    let Some((prefix, suffix)) = file.split_once('*') else {
        return base.join(path).exists();
    };
    fs::read_dir(base.join(dir)).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.len() >= prefix.len() + suffix.len()
                && name.starts_with(prefix)
                && name.ends_with(suffix)
        })
    })
}

/// Every backticked file path in README.md, DESIGN.md and EXPERIMENTS.md
/// exists, relative to the repository root or to `crates/` (the docs name
/// crate files as `platform/src/…`). Fenced code blocks are not scanned.
#[test]
fn backticked_doc_paths_exist() {
    let mut missing = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = fs::read_to_string(root().join(doc)).expect("doc reads");
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            for span in line.split('`').skip(1).step_by(2) {
                if let Some(path) = named_path(span) {
                    if !resolves(root(), path) && !resolves(&root().join("crates"), path) {
                        missing.push(format!("{doc}:{}: `{span}`", n + 1));
                    }
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "doc paths that do not exist:\n{}",
        missing.join("\n")
    );
}
