//! A closed stdout ends `flow3d`'s console output, not the command: the
//! summary line of `flow3d legalize` is printed before its output files
//! are written, so a panicking `println!` used to skip them.

#![cfg(unix)]

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Command, Stdio};

fn flow3d() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flow3d"))
}

/// A stdout whose reader is already gone: every write to it fails with
/// a broken pipe.
fn closed_stdout() -> Stdio {
    let (writer, reader) = UnixStream::pair().expect("socket pair");
    drop(reader);
    Stdio::from(OwnedFd::from(writer))
}

#[test]
fn legalize_writes_its_files_and_exits_zero_with_stdout_closed() {
    let dir = std::env::temp_dir().join(format!("flow3d-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (case, gp, legal, profile) = (
        path("case.txt"),
        path("gp.txt"),
        path("legal.txt"),
        path("profile.json"),
    );

    let gen = flow3d()
        .args([
            "gen", "--suite", "2022", "--case", "case2", "--scale", "0.05",
        ])
        .args(["--out", &case, "--gp", &gp])
        .stdout(closed_stdout())
        .status()
        .unwrap();
    assert!(gen.success(), "gen: {gen}");

    let run = flow3d()
        .args(["legalize", "--case", &case, "--gp", &gp, "--out", &legal])
        .args(["--profile", &profile])
        .stdout(closed_stdout())
        .output()
        .unwrap();
    assert_eq!(
        run.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(Path::new(&profile).exists(), "profile not written");

    let check = flow3d()
        .args(["check", "--case", &case, "--legal", &legal])
        .output()
        .unwrap();
    assert!(check.status.success(), "legal file missing or illegal");
    assert_eq!(String::from_utf8_lossy(&check.stdout).trim(), "legal");
    std::fs::remove_dir_all(&dir).ok();
}
