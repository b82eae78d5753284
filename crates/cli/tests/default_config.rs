//! `flow3d legalize` without 3D-Flow options runs the library's default
//! configuration: an option left unset takes its value from
//! `Flow3dConfig::default()`, so the CLI cannot legalize differently from
//! the library, `repro`, the benchmark or the server.

use flow3d_core::{Flow3dLegalizer, Legalizer};
use std::process::Command;

fn flow3d() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flow3d"))
}

#[test]
fn legalize_without_options_matches_the_default_legalizer() {
    let dir = std::env::temp_dir().join(format!("flow3d-default-config-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (case, gp, legal) = (path("case.txt"), path("gp.txt"), path("legal.txt"));

    // Scale 0.1 of case3: post-optimization accepts passes here, so its
    // settings reach the output too.
    let gen = flow3d()
        .args([
            "gen", "--suite", "2022", "--case", "case3", "--scale", "0.1",
        ])
        .args(["--out", &case, "--gp", &gp])
        .output()
        .unwrap();
    assert!(gen.status.success(), "gen: {:?}", gen);
    let run = flow3d()
        .args(["legalize", "--case", &case, "--gp", &gp, "--out", &legal])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "legalize: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let design = flow3d_io::parse_case(&std::fs::read_to_string(&case).unwrap()).unwrap();
    let global =
        flow3d_io::parse_placement3d(&design, &std::fs::read_to_string(&gp).unwrap()).unwrap();
    let outcome = Flow3dLegalizer::default()
        .legalize(&design, &global)
        .unwrap();
    assert!(
        outcome.stats.post_passes > 0,
        "no post-optimization pass accepted; the case no longer covers its settings"
    );
    let mut want = String::new();
    flow3d_io::write_legal(&design, &outcome.placement, &mut want).unwrap();
    assert!(
        std::fs::read_to_string(&legal).unwrap() == want,
        "`flow3d legalize` without options differs from Flow3dLegalizer::default()"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
