//! The `reproduce` binary end to end: how it exits when its reader goes
//! away, and when it is given a flag it does not know.

use std::io::Read;
use std::process::{Command, Stdio};

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

/// `reproduce … | head -1`: a reader that closes stdout early gets a
/// quiet exit 0, not a panic about a broken pipe. The pipe's read end is
/// closed before the child starts, so its very first write fails.
#[test]
fn closed_stdout_exits_zero_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut child = reproduce()
        .args(["--samples", "7", "fig6"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn reproduce");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for reproduce");
    assert!(status.success(), "{status}; stderr: {stderr}");
    assert_eq!(stderr, "");
}

/// A misspelled flag exits 2 before doing any work, naming the flag.
#[test]
fn a_misspelled_flag_exits_two_naming_it() {
    let out = reproduce()
        .args(["--sample", "10", "fig2"])
        .output()
        .expect("run reproduce");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran despite the refusal");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--sample`"), "{stderr}");
}
