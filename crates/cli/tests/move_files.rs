//! `flow3d request` reads a script's `moves_file` with the move-list
//! grammar of `flow3d eco`, so a file `flow3d eco` rejects is rejected
//! with the same line message before anything is sent. A second parser
//! in the CLI used to skip the `NumMoves` count and accept trailing
//! lines, so such files reached the server and were answered `ok`.

use std::process::{Command, Output};

fn flow3d(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flow3d"))
        .args(args)
        .output()
        .expect("run flow3d")
}

/// Exit 1 with `want` in the `error:` line.
fn assert_fails_with(what: &str, out: &Output, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
    assert!(stderr.contains(want), "{what}: `{stderr}` lacks `{want}`");
}

#[test]
fn request_rejects_the_move_files_eco_rejects() {
    let dir = std::env::temp_dir().join(format!("flow3d-move-files-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (case, gp, base) = (path("case.txt"), path("gp.txt"), path("base.txt"));
    let gen = flow3d(&[
        "gen", "--suite", "2022", "--case", "case2", "--scale", "0.05", "--out", &case, "--gp", &gp,
    ]);
    assert!(gen.status.success(), "gen failed");
    let legalize = flow3d(&["legalize", "--case", &case, "--gp", &gp, "--out", &base]);
    assert!(legalize.status.success(), "legalize failed");

    for (name, text, want) in [
        (
            "short.txt",
            "NumMoves 3\nMove c0 10 0\nMove c1 20 0\n",
            "line 4: expected Move, found end of file",
        ),
        (
            "long.txt",
            "NumMoves 1\nMove c0 10 0\nMove c1 20 0\n",
            "line 3: unexpected trailing line `Move c1 20 0`",
        ),
    ] {
        let moves = path(name);
        std::fs::write(&moves, text).unwrap();
        let want = format!("{moves}: {want}");
        let eco = flow3d(&[
            "eco",
            "--case",
            &case,
            "--base",
            &base,
            "--moves",
            &moves,
            "--out",
            &path("eco.txt"),
        ]);
        assert_fails_with(&format!("eco {name}"), &eco, &want);

        let script = path("script.jsonl");
        std::fs::write(
            &script,
            format!("{{\"cmd\": \"eco\", \"name\": \"c\", \"moves_file\": \"{moves}\"}}\n"),
        )
        .unwrap();
        // No server listens there: the file must be rejected before the
        // client connects.
        let request = flow3d(&["request", "--script", &script, "--unix", &path("none.sock")]);
        assert_fails_with(&format!("request {name}"), &request, &want);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
