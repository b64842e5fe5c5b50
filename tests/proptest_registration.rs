//! Keeps every property test registered. The `proptest!` macro of the
//! offline shim in `vendor/proptest`, like upstream proptest, emits only
//! the attributes written on each `fn` and adds no `#[test]` of its own,
//! so a property test written without `#[test]` compiles to a plain
//! function that nothing calls: it passes by never running. This scans
//! every `proptest!` block in the tree and checks each of its `fn`s
//! carries its own `#[test]`.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, skipping build output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for path in fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
    {
        if path.is_dir() && !path.ends_with("target") {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// `source` with every `//` comment removed, so commented-out code and
/// doc prose neither open a block nor supply an attribute.
fn strip_line_comments(source: &str) -> String {
    source
        .lines()
        .map(|line| line.find("//").map_or(line, |at| &line[..at]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The body of every `proptest! { .. }` invocation in `source`.
fn proptest_blocks(source: &str) -> Vec<&str> {
    let mut blocks = Vec::new();
    let mut rest = source;
    while let Some(at) = rest.find("proptest!") {
        rest = rest[at + "proptest!".len()..].trim_start();
        if !rest.starts_with('{') {
            continue;
        }
        let mut depth = 0usize;
        for (i, c) in rest.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        blocks.push(&rest[1..i]);
                        rest = &rest[i + 1..];
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    blocks
}

/// Each top-level `fn` of a `proptest!` body with the text that precedes
/// it since the previous item ended: its name and its attributes.
fn items(block: &str) -> Vec<(String, &str)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in block.char_indices() {
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' => {
                depth -= 1;
                if depth == 0 && c == '}' {
                    start = i + 1;
                }
            }
            'f' if depth == 0 && block[i..].starts_with("fn ") => {
                let name: String = block[i + 3..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                out.push((name, &block[start..i]));
            }
            _ => {}
        }
    }
    out
}

#[test]
fn every_proptest_fn_carries_its_own_test_attribute() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut unregistered = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "vendor", "perfbench"] {
        for file in rust_files(&root.join(dir)) {
            let source = strip_line_comments(&fs::read_to_string(&file).unwrap());
            for block in proptest_blocks(&source) {
                for (name, attrs) in items(block) {
                    checked += 1;
                    if !attrs.contains("#[test]") {
                        unregistered.push(format!("{}: {name}", file.display()));
                    }
                }
            }
        }
    }
    assert!(
        unregistered.is_empty(),
        "property tests without #[test] never run: {unregistered:#?}"
    );
    // The scan must see the tree's property tests, or it checks nothing.
    assert!(checked >= 10, "found only {checked} property tests");
}
