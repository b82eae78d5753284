//! `flow3d serve`, `flow3d request`, and `flow3d eco` — the resident
//! legalization service, its scripted client, and the one-shot ECO
//! command the service is measured against. Protocol and operations are
//! documented in `SERVING.md`.

use crate::{read, write, Args, Opts};
use flow3d_core::{Flow3dConfig, Flow3dLegalizer};
use flow3d_obs::LogLevel;
use flow3d_serve::{Client, Json, Server, ServerConfig};

pub(crate) const SERVE: Opts = Opts(
    "listen unix workers queue-depth threads log log-level flight trace window-secs",
    "",
);

/// `flow3d serve`: run the resident service until a client sends
/// `shutdown`.
pub(crate) fn cmd_serve(args: &Args) -> Result<(), String> {
    // `--log` wins over the FLOW3D_LOG environment variable; either
    // arms the structured JSONL event log.
    let log_path = args
        .get("log")
        .map(str::to_string)
        .or_else(|| std::env::var("FLOW3D_LOG").ok());
    let log_level = match args.get("log-level") {
        None => LogLevel::Info,
        Some(name) => LogLevel::parse(name)
            .ok_or_else(|| format!("--log-level {name}: expected debug|info|warn|error"))?,
    };
    let config = ServerConfig {
        workers: args.get_usize("workers", 2)?,
        queue_depth: args.get_usize("queue-depth", 64)?,
        default_threads: args.get_usize("threads", 1)?,
        log_path,
        log_level,
        flight_path: args.get("flight").map(str::to_string),
        trace_dir: args.get("trace").map(str::to_string),
        window_secs: args.get_usize("window-secs", 60)? as u64,
    };
    let server = Server::new(config).map_err(|e| format!("starting server: {e}"))?;
    if let Some(path) = args.get("unix") {
        return serve_unix(&server, path);
    }
    let addr = args.get("listen").unwrap_or("127.0.0.1:7333");
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    // Printed before accepting so scripts binding port 0 can discover
    // the real port.
    outln!("flow3d-serve listening on {local}");
    server
        .serve_listener(listener)
        .map_err(|e| format!("{local}: {e}"))
}

#[cfg(unix)]
fn serve_unix(server: &Server, path: &str) -> Result<(), String> {
    outln!("flow3d-serve listening on unix:{path}");
    server
        .serve_unix(std::path::Path::new(path))
        .map_err(|e| format!("unix:{path}: {e}"))
}

#[cfg(not(unix))]
fn serve_unix(_server: &Server, path: &str) -> Result<(), String> {
    Err(format!(
        "--unix {path}: unix sockets are unavailable on this platform"
    ))
}

const REQUEST: Opts = Opts("script connect unix out", "text allow-errors");

/// `flow3d request`: fire requests at a running server and print each
/// response as a JSON line. Requests come from a `--script` JSONL file
/// (one frame per line), or from a single positional quick command —
/// `flow3d request metrics` sends `{"cmd": "metrics"}` without a
/// script file (also `ping`, `stats`, `shutdown`).
pub(crate) fn cmd_request(argv: &[String]) -> Result<(), String> {
    let positional: Vec<&str> = argv
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let args = Args::parse(&argv[positional.len()..], &REQUEST)?;
    let requests = match positional.as_slice() {
        [] => {
            let script = read(args.require("script")?)?;
            let mut requests = Vec::new();
            for (lineno, line) in script.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let json =
                    Json::parse(line).map_err(|e| format!("script line {}: {e}", lineno + 1))?;
                requests.push(
                    inline_files(json).map_err(|e| format!("script line {}: {e}", lineno + 1))?,
                );
            }
            requests
        }
        [cmd @ ("ping" | "stats" | "metrics" | "shutdown")] => vec![Json::Obj(vec![(
            "cmd".to_string(),
            Json::Str(cmd.to_string()),
        )])],
        other => {
            return Err(format!(
                "unknown quick command {other:?} (ping, stats, metrics, shutdown — \
                 or --script reqs.jsonl)"
            ))
        }
    };

    let responses = match args.get("unix") {
        Some(path) => request_unix(path, &requests)?,
        None => {
            let addr = args.require("connect")?;
            let client = Client::connect_tcp(addr).map_err(|e| format!("{addr}: {e}"))?;
            run_script(client, &requests)?
        }
    };

    let mut out = String::new();
    let mut failures = 0usize;
    for response in &responses {
        if response.get("ok") != Some(&Json::Bool(true)) {
            failures += 1;
        }
        // `--text` renders the Prometheus exposition of a metrics
        // response instead of the JSON envelope, for scrape scripts.
        let prometheus = args.flag("text").then(|| {
            response
                .get("result")
                .and_then(|r| r.get("prometheus"))
                .and_then(Json::as_str)
        });
        match prometheus.flatten() {
            Some(text) => out.push_str(text),
            None => {
                out.push_str(&response.to_string());
                out.push('\n');
            }
        }
    }
    match args.get("out") {
        Some(path) => write(path, &out)?,
        None => out!("{out}"),
    }
    if failures > 0 && !args.flag("allow-errors") {
        return Err(format!(
            "{failures} of {} requests failed (pass --allow-errors to tolerate)",
            responses.len()
        ));
    }
    Ok(())
}

#[cfg(unix)]
fn request_unix(path: &str, requests: &[Json]) -> Result<Vec<Json>, String> {
    let client = Client::connect_unix(std::path::Path::new(path))
        .map_err(|e| format!("unix:{path}: {e}"))?;
    run_script(client, requests)
}

#[cfg(not(unix))]
fn request_unix(path: &str, _requests: &[Json]) -> Result<Vec<Json>, String> {
    Err(format!(
        "--unix {path}: unix sockets are unavailable on this platform"
    ))
}

fn run_script(
    mut client: Client<impl std::io::Read + std::io::Write>,
    requests: &[Json],
) -> Result<Vec<Json>, String> {
    let mut responses = Vec::with_capacity(requests.len());
    for request in requests {
        responses.push(client.request(request).map_err(|e| e.to_string())?);
    }
    Ok(responses)
}

/// Script convenience: a string field `foo_file` is replaced by `foo`
/// holding the named file's contents, so scripts reference case and
/// placement files instead of embedding them. `moves_file` additionally
/// converts a `flow3d_io` move-list file into the wire's JSON move array
/// through the io crate's own grammar, so a file `flow3d eco` rejects is
/// rejected here with the same line message (names resolve server-side).
fn inline_files(json: Json) -> Result<Json, String> {
    let Json::Obj(pairs) = json else {
        return Ok(json);
    };
    let mut out = Vec::with_capacity(pairs.len());
    for (key, value) in pairs {
        match (key.strip_suffix("_file"), &value) {
            (Some(target), Json::Str(path)) => {
                let contents = read(path)?;
                if target == "moves" {
                    let mut moves = Vec::new();
                    flow3d_io::parse_move_names(&contents, |m| {
                        moves.push(move_json(m));
                        Ok(())
                    })
                    .map_err(|e| format!("{path}: {e}"))?;
                    out.push(("moves".to_string(), Json::Arr(moves)));
                } else {
                    out.push((target.to_string(), Json::Str(contents)));
                }
            }
            _ => out.push((key, value)),
        }
    }
    Ok(Json::Obj(out))
}

/// One move of a move-list file as a wire move object.
fn move_json(m: flow3d_io::NamedMove<'_>) -> Json {
    let mut pairs = vec![
        ("cell".to_string(), Json::Str(m.cell.to_string())),
        ("x".to_string(), Json::num(m.target.x as f64)),
        ("y".to_string(), Json::num(m.target.y as f64)),
    ];
    if let Some(die) = m.die {
        pairs.push(("die".to_string(), Json::num(die as f64)));
    }
    Json::Obj(pairs)
}

pub(crate) const ECO: Opts = Opts("case base moves out threads profile", "");

/// `flow3d eco`: one-shot incremental legalization — the golden
/// reference the serve-mode smoke test diffs against.
pub(crate) fn cmd_eco(args: &Args) -> Result<(), String> {
    let design = crate::load_design(args)?;
    let base_path = args.require("base")?;
    let base = flow3d_io::parse_legal(&design, &read(base_path)?)
        .map_err(|e| format!("{base_path}: {e}"))?;
    let moves_path = args.require("moves")?;
    let moves = flow3d_io::parse_moves(&design, &read(moves_path)?)
        .map_err(|e| format!("{moves_path}: {e}"))?;

    let legalizer = Flow3dLegalizer::new(Flow3dConfig {
        threads: args.get_usize("threads", 1)?,
        ..Default::default()
    });
    let profile_path = args.get("profile");
    let mut profile = profile_path.is_some().then(flow3d_obs::Profile::new);
    let outcome = legalizer
        .legalize_incremental_observed(&design, &base, &moves, profile.as_mut())
        .map_err(|e| e.to_string())?;
    outln!(
        "eco: {} moves requested, {} cells moved, {} cross-die, {} augmentations",
        moves.len(),
        outcome.stats.cells_moved,
        outcome.stats.cross_die_moves,
        outcome.stats.augmentations
    );
    if let (Some(path), Some(profile)) = (profile_path, &profile) {
        let mut report = flow3d_obs::RunReport::from_profile(design.name(), "flow3d-eco", profile);
        if let Some(rss) = flow3d_obs::peak_rss_bytes() {
            report = report.with_peak_rss(rss);
        }
        write(path, &report.to_json())?;
        outln!("wrote {path}");
    }
    let mut text = String::new();
    flow3d_io::write_legal(&design, &outcome.placement, &mut text).map_err(|e| e.to_string())?;
    let out = args.require("out")?;
    write(out, &text)?;
    outln!("wrote {out}");
    Ok(())
}
