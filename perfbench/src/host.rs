//! The host record every run prints: what was measured, where, and how
//! it was built.

use crate::procfs;
use crate::report::json_str;
use std::path::Path;

/// The commit from `.git` when the checkout has one, else `"unknown"`.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if sha.is_empty() {
        "unknown".into()
    } else {
        sha
    }
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
        {
            out.push(path);
        }
    }
}

/// FNV-1a over the program's sources, so runs of a checkout without
/// `.git` still say which code they measured.
fn source_digest() -> String {
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    collect(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The host record as a JSON object; `journal_dirs` are the directories
/// the run keeps journals in.
pub fn record(nproc: usize, journal_dirs: &[(&str, &Path)]) -> String {
    let fs: Vec<String> = journal_dirs
        .iter()
        .map(|(name, dir)| format!("{}: {}", json_str(name), json_str(&procfs::fstype(dir))))
        .collect();
    format!(
        "{{\"commit\": {}, \"source_digest\": {}, \"nproc\": {nproc}, \"profile\": {}, \"rustc\": {}, \"journal_fs\": {{{}}}}}",
        json_str(&commit()),
        json_str(&source_digest()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(env!("PERFBENCH_RUSTC")),
        fs.join(", ")
    )
}
