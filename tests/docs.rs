//! The top-level documents stay true to the code: EXPERIMENTS.md's measured
//! blocks are what the experiments render, every file path the docs name
//! exists, and every `crate::name` module path they name resolves.

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

/// Every backticked span outside fenced code blocks in README.md, DESIGN.md
/// and EXPERIMENTS.md, with the `DOC:LINE` it sits on.
fn doc_spans() -> Vec<(String, String)> {
    let mut spans = Vec::new();
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
                spans.push((format!("{doc}:{}", n + 1), span.to_string()));
            }
        }
    }
    spans
}

/// Every backticked file path in the docs exists, relative to the
/// repository root or to `crates/` (the docs name crate files as
/// `platform/src/…`).
#[test]
fn backticked_doc_paths_exist() {
    let missing: Vec<String> = doc_spans()
        .into_iter()
        .filter(|(_, span)| {
            named_path(span).is_some_and(|path| {
                !resolves(root(), path) && !resolves(&root().join("crates"), path)
            })
        })
        .map(|(at, span)| format!("{at}: `{span}`"))
        .collect();
    assert!(
        missing.is_empty(),
        "doc paths that do not exist:\n{}",
        missing.join("\n")
    );
}

/// Whether `c` can be part of a Rust identifier.
fn ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The workspace crate a backticked module path starts with, and the names
/// it reaches into: `rtkernel::sched` is `("rtkernel", ["sched"])`,
/// `pdl::{generate,joint_sweep}` is `("pdl", ["generate", "joint_sweep"])`,
/// `vpdebug::run_campaign{,_delta}` is `("vpdebug", ["run_campaign"])`. An
/// `mpsoc_` prefix is dropped; a span whose first segment is not a directory
/// under `crates/` names no module.
fn module_path(span: &str) -> Option<(&str, Vec<&str>)> {
    let (krate, rest) = span.split_once("::")?;
    let krate = krate.strip_prefix("mpsoc_").unwrap_or(krate);
    if krate.is_empty()
        || !krate.chars().all(ident_char)
        || !root().join("crates").join(krate).join("src").is_dir()
    {
        return None;
    }
    let names = match rest.strip_prefix('{') {
        Some(group) => group.split('}').next()?.split(',').map(str::trim).collect(),
        None => vec![rest.split(|c: char| !ident_char(c)).next()?],
    };
    Some((krate, names))
}

/// The names a crate root declares or re-exports: the name after `pub mod`,
/// `pub fn`, `pub struct` … and every identifier of a `pub use` statement.
fn lib_names(lib: &str) -> Vec<String> {
    let code = lib
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let idents = |s: &str| -> Vec<String> {
        s.split(|c: char| !ident_char(c))
            .filter(|w| !w.is_empty())
            .map(String::from)
            .collect()
    };
    let mut names = Vec::new();
    for stmt in code.split(';') {
        if let Some((_, used)) = stmt.split_once("pub use ") {
            names.extend(idents(used));
        }
    }
    let kinds = [
        "mod", "fn", "struct", "enum", "trait", "type", "const", "static",
    ];
    for w in idents(&code).windows(3) {
        if w[0] == "pub" && kinds.contains(&w[1].as_str()) {
            names.push(w[2].clone());
        }
    }
    names
}

/// Every backticked `crate::name` path in the docs resolves: `name` is a
/// module file of `crates/<crate>/src`, or an item that crate's `lib.rs`
/// declares or re-exports (`maps::*` names the crate). A row left behind by
/// a deleted module fails here.
#[test]
fn backticked_module_paths_resolve() {
    let mut missing = Vec::new();
    let mut checked = 0;
    for (at, span) in doc_spans() {
        let Some((krate, names)) = module_path(&span) else {
            continue;
        };
        let src = root().join("crates").join(krate).join("src");
        let lib = fs::read_to_string(src.join("lib.rs")).expect("crate root reads");
        let exported = lib_names(&lib);
        for name in names {
            checked += 1;
            let found = name.is_empty()
                || src.join(format!("{name}.rs")).exists()
                || exported.iter().any(|e| e == name);
            if !found {
                missing.push(format!("{at}: `{span}` ({name})"));
            }
        }
    }
    assert!(checked > 0, "the docs name no module path");
    assert!(
        missing.is_empty(),
        "doc module paths that do not resolve:\n{}",
        missing.join("\n")
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `source` with its comments removed and the braces inside string and
/// char literals blanked, so the braces left are the code's own.
fn strip_comments(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    let mut chars = source.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '/' if chars.peek() == Some(&'/') => while chars.next_if(|&n| n != '\n').is_some() {},
            '/' if chars.peek() == Some(&'*') => {
                chars.next();
                let mut last = ' ';
                for n in chars.by_ref() {
                    if last == '*' && n == '/' {
                        break;
                    }
                    last = n;
                }
            }
            '"' => {
                out.push('"');
                while let Some(n) = chars.next() {
                    match n {
                        '\\' => {
                            out.push(' ');
                            chars.next();
                        }
                        '"' => break,
                        '{' | '}' => out.push(' '),
                        _ => out.push(n),
                    }
                }
                out.push('"');
            }
            // A char literal (`'{'`, `'"'`, `'\''`); a lifetime has no
            // closing quote and is copied as it is.
            '\'' => {
                let ahead: Vec<char> = chars.clone().take(3).collect();
                let len = match ahead.as_slice() {
                    ['\\', _, '\''] => 3,
                    [_, '\'', ..] => 2,
                    _ => 0,
                };
                out.push('\'');
                for _ in 0..len {
                    chars.next();
                }
                if len > 0 {
                    out.push_str(" '");
                }
            }
            _ => out.push(c),
        }
    }
    out
}

/// `source` without its comments and `#[cfg(test)]` items: an item is
/// skipped from its attribute to the `;` or the brace that closes it.
fn non_test_code(source: &str) -> String {
    let code = strip_comments(source);
    let mut out = String::new();
    let mut lines = code.lines();
    while let Some(line) = lines.next() {
        if !line.trim_start().starts_with("#[cfg(test)]") {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let mut depth = 0usize;
        for line in lines.by_ref() {
            let opens = line.matches('{').count();
            let closes = line.matches('}').count();
            let item_ends = if depth + opens == 0 {
                !line.trim_start().starts_with('#') && line.trim_end().ends_with(';')
            } else {
                closes >= depth + opens
            };
            if item_ends {
                break;
            }
            depth = depth + opens - closes;
        }
    }
    out
}

/// The identifiers backticked in DESIGN.md's "Public items kept" paragraph.
fn kept_public_items() -> Vec<String> {
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md reads");
    let start = design
        .find("Public items kept")
        .expect("DESIGN.md has a \"Public items kept\" paragraph");
    let paragraph = design[start..].split("\n\n").next().unwrap_or("");
    paragraph
        .split('`')
        .skip(1)
        .step_by(2)
        .flat_map(|span| span.split(|c: char| !ident_char(c)))
        .filter(|w| !w.is_empty())
        .map(String::from)
        .collect()
}

/// Every `pub fn` in the non-test code of `crates/*/src` is named somewhere
/// else in non-test code — any crate and its binaries, the root package's
/// `src/`, `benchmark/src` — or is listed in DESIGN.md's "Public items kept"
/// paragraph. Tests and examples do not count as callers. Matching is by
/// name, so a live function is never flagged; a dead one escapes only when
/// another item shares its name.
#[test]
fn every_public_fn_is_reached_or_kept() {
    let mut files = Vec::new();
    for krate in fs::read_dir(root().join("crates"))
        .expect("crates/ lists")
        .flatten()
    {
        rust_files(&krate.path().join("src"), &mut files);
    }
    let crate_files = files.len();
    rust_files(&root().join("src"), &mut files);
    rust_files(&root().join("benchmark").join("src"), &mut files);
    let code: Vec<(std::path::PathBuf, String)> = files
        .into_iter()
        .map(|f| {
            let source = fs::read_to_string(&f).expect("source reads");
            (f, non_test_code(&source))
        })
        .collect();
    let mut uses = std::collections::HashMap::<&str, usize>::new();
    for (_, text) in &code {
        for word in text
            .split(|c: char| !ident_char(c))
            .filter(|w| !w.is_empty())
        {
            *uses.entry(word).or_default() += 1;
        }
    }
    let kept = kept_public_items();
    let mut unreached = Vec::new();
    let mut checked = 0;
    for (file, text) in &code[..crate_files] {
        let words: Vec<&str> = text
            .split(|c: char| !ident_char(c))
            .filter(|w| !w.is_empty())
            .collect();
        for (i, w) in words.iter().enumerate() {
            if *w != "pub" {
                continue;
            }
            let rest = &words[i + 1..];
            let skip = rest
                .iter()
                .take_while(|q| matches!(**q, "const" | "async" | "unsafe"))
                .count();
            let (Some(&"fn"), Some(&name)) = (rest.get(skip), rest.get(skip + 1)) else {
                continue;
            };
            checked += 1;
            if uses[name] < 2 && !kept.iter().any(|k| k == name) {
                let file = file.strip_prefix(root()).unwrap_or(file);
                unreached.push(format!("{}: {name}", file.display()));
            }
        }
    }
    assert!(checked > 0, "found no public function");
    assert!(
        unreached.is_empty(),
        "public functions no non-test code names (call them, delete them, or list them \
         under DESIGN.md's \"Public items kept\"):\n{}",
        unreached.join("\n")
    );
}
