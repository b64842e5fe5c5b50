//! Keeps the "Where things are checked" table of `ARCHITECTURE.md` live:
//! a row naming a deleted file or a renamed test still reads as a
//! guarantee. In the "where" column, every backticked `.rs` path must
//! exist (with `{a,b}` lists expanded), and every backticked identifier
//! inside parentheses must name a `fn` under `crates/`, `tests/`, `src/`
//! or `examples/` (a trailing `*` matches a prefix) or a perfbench check,
//! which perfbench records as `"<workload>.<name>"`. Other backticked
//! text (CI step names, commands, type paths) is prose.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const TABLE_HEADING: &str = "## Where things are checked";

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

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The names of every `fn` declared in `source`.
fn fn_names(source: &str, out: &mut BTreeSet<String>) {
    let mut rest = source;
    while let Some(at) = rest.find("fn ") {
        let before = rest[..at].chars().next_back();
        rest = &rest[at + 3..];
        if before.is_some_and(is_ident_char) {
            continue;
        }
        let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
        if !name.is_empty() {
            out.insert(name);
        }
    }
}

/// The backticked spans of `text`, in order.
fn backticked(text: &str) -> Vec<&str> {
    text.split('`').skip(1).step_by(2).collect()
}

/// The text inside every (non-nested) parenthesised group of `text`,
/// skipping parentheses that sit inside backticks.
fn parenthesised(text: &str) -> Vec<String> {
    let mut groups = Vec::new();
    let mut in_tick = false;
    let mut current: Option<String> = None;
    for c in text.chars() {
        if c == '`' {
            in_tick = !in_tick;
        }
        match (c, in_tick, current.as_mut()) {
            ('(', false, None) => current = Some(String::new()),
            (')', false, Some(_)) => groups.extend(current.take()),
            (_, _, Some(group)) => group.push(c),
            _ => {}
        }
    }
    groups
}

/// Expands one `{a,b}` list in `path` (the table never nests them).
fn expand(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{}{}", &path[..open], alt.trim(), &path[close + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    }
}

fn is_identifier(name: &str) -> bool {
    let name = name.strip_suffix('*').unwrap_or(name);
    !name.is_empty() && name.chars().all(is_ident_char)
}

/// The "where" cell of every row of the table.
fn where_cells(architecture: &str) -> Vec<String> {
    let table = architecture
        .split(TABLE_HEADING)
        .nth(1)
        .expect("ARCHITECTURE.md has a \"Where things are checked\" table");
    table
        .lines()
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with('|') && !l.starts_with("|---") && !l.starts_with("| claim"))
        .map(|l| {
            let l = l.trim().trim_start_matches('|').trim_end_matches('|');
            l.rsplit(" | ").next().unwrap_or("").trim().to_string()
        })
        .collect()
}

#[test]
fn architecture_checked_where_table_is_live() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &Path| fs::read_to_string(p).expect("read a workspace file");
    let cells = where_cells(&read(&root.join("ARCHITECTURE.md")));
    assert!(cells.len() > 10, "table not found: {} rows", cells.len());

    let mut fns = BTreeSet::new();
    for dir in ["crates", "tests", "src", "examples"] {
        for file in rust_files(&root.join(dir)) {
            fn_names(&read(&file), &mut fns);
        }
    }
    let perfbench: String = rust_files(&root.join("perfbench/src"))
        .iter()
        .map(|f| read(f))
        .collect();

    let mut missing = Vec::new();
    for cell in &cells {
        for path in backticked(cell).into_iter().filter(|t| t.ends_with(".rs")) {
            for path in expand(path) {
                if !root.join(&path).is_file() {
                    missing.push(format!("no file `{path}` in: {cell}"));
                }
            }
        }
        for group in parenthesised(cell) {
            for name in backticked(&group).into_iter().filter(|n| is_identifier(n)) {
                let found = match name.strip_suffix('*') {
                    Some(prefix) => fns.iter().any(|f| f.starts_with(prefix)),
                    None => fns.contains(name),
                } || perfbench.contains(&format!(".{name}\""));
                if !found {
                    missing.push(format!("no fn or perfbench check `{name}` in: {cell}"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "stale references in ARCHITECTURE.md's checked-where table:\n{}",
        missing.join("\n")
    );
}
