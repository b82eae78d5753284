//! Client/server integration tests: the full frame protocol over real
//! sockets, checked for bit-identity against the one-shot incremental
//! API and for legality by the independent `flow3d_metrics` checker,
//! malformed-frame rejection, sharded concurrent connections, and
//! graceful drain.

use flow3d_core::{CellMove, Flow3dConfig, Flow3dLegalizer, Legalizer};
use flow3d_db::{
    CellId, Design, DesignBuilder, DieId, DieSpec, LegalPlacement, LibCellSpec, Placement3d,
    TechnologySpec,
};
use flow3d_geom::{FPoint, Point};
use flow3d_obs::RunReport;
use flow3d_serve::{Client, Json, Server, ServerConfig};

// ---------------------------------------------------------------- fixtures

fn design(n: usize) -> Design {
    let mut b = DesignBuilder::new("serve-demo")
        .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", 30, 10)))
        .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
        .die(DieSpec::new("top", "T", (0, 0, 400, 40), 10, 1, 1.0));
    for i in 0..n {
        b = b.cell(format!("u{i}"), "C");
    }
    b.build().unwrap()
}

fn base_placement(d: &Design) -> LegalPlacement {
    let n = d.num_cells();
    let mut gp = Placement3d::new(n);
    for i in 0..n {
        gp.set_pos(
            CellId::new(i),
            FPoint::new((i as f64 * 35.0) % 350.0, 10.0 * ((i / 10) as f64)),
        );
    }
    Flow3dLegalizer::default()
        .legalize(d, &gp)
        .unwrap()
        .placement
}

/// One requested move, in a form convertible both to the wire JSON and
/// to the one-shot API's [`CellMove`].
type Spec = (usize, i64, i64, Option<usize>);

/// Piles `from` onto `onto`'s position — enough clashing cells overflow
/// a bin and force flow searches (a lone clash is absorbed by PlaceRow
/// without a search).
fn pileup(base: &LegalPlacement, from: &[usize], onto: usize) -> Vec<Spec> {
    let p = base.pos(CellId::new(onto));
    let die = base.die(CellId::new(onto)).index();
    from.iter().map(|&i| (i, p.x, p.y, Some(die))).collect()
}

fn cell_moves(spec: &[Spec]) -> Vec<CellMove> {
    spec.iter()
        .map(|&(i, x, y, die)| CellMove {
            cell: CellId::new(i),
            target: Point::new(x, y),
            die: die.map(DieId::new),
        })
        .collect()
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn moves_json(spec: &[Spec]) -> Json {
    Json::Arr(
        spec.iter()
            .map(|&(i, x, y, die)| {
                let mut pairs = vec![
                    ("cell", Json::Str(format!("u{i}"))),
                    ("x", Json::num(x as f64)),
                    ("y", Json::num(y as f64)),
                ];
                if let Some(d) = die {
                    pairs.push(("die", Json::num(d as f64)));
                }
                obj(pairs)
            })
            .collect(),
    )
}

fn case_text(d: &Design) -> String {
    let mut s = String::new();
    flow3d_io::write_case(d, &mut s).unwrap();
    s
}

fn legal_text(d: &Design, p: &LegalPlacement) -> String {
    let mut s = String::new();
    flow3d_io::write_legal(d, p, &mut s).unwrap();
    s
}

fn load_request(name: &str, d: &Design, base: &LegalPlacement) -> Json {
    obj(vec![
        ("cmd", Json::Str("load".into())),
        ("name", Json::Str(name.into())),
        ("case", Json::Str(case_text(d))),
        ("legal", Json::Str(legal_text(d, base))),
    ])
}

fn eco_request(name: &str, spec: &[Spec]) -> Json {
    obj(vec![
        ("cmd", Json::Str("eco".into())),
        ("name", Json::Str(name.into())),
        ("moves", moves_json(spec)),
    ])
}

fn assert_ok(resp: &Json) -> &Json {
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "request failed: {resp}"
    );
    resp.get("result").expect("ok responses carry a result")
}

fn result_str<'a>(result: &'a Json, key: &str) -> &'a str {
    result
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {result}"))
}

fn report_counter(result: &Json, counter: &str) -> u64 {
    let report = result.get("report").expect("response carries a report");
    let report = RunReport::from_json(&report.to_string()).expect("report round-trips");
    report
        .counters
        .iter()
        .find(|(name, _)| name == counter)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

/// Parses a served placement back against the design and requires the
/// independent checker to find it legal — the engine's own invariants
/// are not the referee here.
fn assert_served_legal(d: &Design, legal: &str) {
    let placement = flow3d_io::parse_legal(d, legal).expect("served placement parses");
    let report = flow3d_metrics::check_legal(d, &placement);
    assert!(report.is_legal(), "served placement is illegal: {report}");
}

fn one_shot(d: &Design, base: &LegalPlacement, spec: &[Spec]) -> String {
    // The server's default engine runs one thread; match it exactly.
    let legalizer = Flow3dLegalizer::new(Flow3dConfig {
        threads: 1,
        ..Flow3dConfig::default()
    });
    let outcome = legalizer
        .legalize_incremental(d, base, &cell_moves(spec))
        .unwrap();
    legal_text(d, &outcome.placement)
}

fn shutdown_and_join(client: &mut Client<impl std::io::Read + std::io::Write>, server: &Server) {
    let resp = client
        .request(&obj(vec![("cmd", Json::Str("shutdown".into()))]))
        .unwrap();
    assert_ok(&resp);
    server.join();
    assert!(server.is_done());
}

// ------------------------------------------------------------------- tests

#[cfg(unix)]
fn socketpair_client(server: &Server) -> Client<std::os::unix::net::UnixStream> {
    let (ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
    let handler = server.clone();
    std::thread::spawn(move || handler.handle_connection(theirs));
    Client::new(ours)
}

/// The acceptance batch: 8 ECO requests (4 distinct move sets, each
/// fired twice in a row) against one resident case, then a return to the
/// first set and a committing request. Every response must be
/// bit-identical to the one-shot incremental API and legal under the
/// independent checker, and the server stats must expose the request
/// latency histogram.
#[cfg(unix)]
#[test]
fn eco_batch_is_bit_identical_and_legal() {
    let d = design(12);
    let base = base_placement(&d);
    let server = Server::new(ServerConfig::default()).unwrap();
    let mut client = socketpair_client(&server);

    let resp = client.request(&load_request("demo", &d, &base)).unwrap();
    let result = assert_ok(&resp);
    assert_eq!(result.get("cells"), Some(&Json::num(12.0)));

    let sets: Vec<Vec<Spec>> = vec![
        pileup(&base, &[0, 1, 2, 3, 4], 5),
        pileup(&base, &[6, 7, 8, 9, 10], 11),
        pileup(&base, &[1, 3, 5, 7, 9, 11], 0),
        {
            let mut s = pileup(&base, &[2, 4, 6, 8, 10], 1);
            // One cross-die request on top of the pile.
            let p = base.pos(CellId::new(0));
            s.push((0, p.x, p.y, Some(1 - base.die(CellId::new(0)).index())));
            s
        },
    ];
    let mut requests = 0u64;
    for spec in &sets {
        let expected = one_shot(&d, &base, spec);
        for round in 0..2 {
            let resp = client.request(&eco_request("demo", spec)).unwrap();
            let result = assert_ok(&resp);
            requests += 1;
            assert_eq!(
                result_str(result, "legal"),
                expected,
                "serve-mode result diverged from the one-shot API (round {round})"
            );
            assert_eq!(
                result.get("requests_served"),
                Some(&Json::num(requests as f64))
            );
            assert_served_legal(&d, result_str(result, "legal"));
        }
    }

    // Return to the *first* move set after three disjoint sets (and
    // their replays) ran in between: the resident engine must answer it
    // exactly like a cold one-shot run.
    {
        let expected = one_shot(&d, &base, &sets[0]);
        let resp = client.request(&eco_request("demo", &sets[0])).unwrap();
        let result = assert_ok(&resp);
        assert_eq!(result_str(result, "legal"), expected);
        assert_served_legal(&d, result_str(result, "legal"));
    }

    // Commit the last outcome: the response reports the seed-cache
    // delta, which for a small ECO refreshes only a fraction of seeds.
    {
        let mut req = eco_request("demo", &sets[0]);
        if let Json::Obj(pairs) = &mut req {
            pairs.push(("commit".into(), Json::Bool(true)));
        }
        let resp = client.request(&req).unwrap();
        let result = assert_ok(&resp);
        assert_eq!(result.get("committed"), Some(&Json::Bool(true)));
        assert_served_legal(&d, result_str(result, "legal"));
        let reseeded = result
            .get("commit_reseeded")
            .and_then(Json::as_u64)
            .expect("committed responses report the seed delta");
        let total = result
            .get("commit_total")
            .and_then(Json::as_u64)
            .expect("committed responses report the seed total");
        assert_eq!(total, 12);
        assert!(
            reseeded > 0 && reseeded < total,
            "a small ECO commit must reseed some but not all cells \
             ({reseeded}/{total})"
        );
        assert!(
            report_counter(result, "commit_reseeded") == reseeded
                && report_counter(result, "commit_seeds") == total,
            "the request report must carry the commit counters"
        );
    }

    let resp = client
        .request(&obj(vec![("cmd", Json::Str("stats".into()))]))
        .unwrap();
    let result = assert_ok(&resp);
    // load + 10 ecos so far; the stats request itself is not yet counted
    // at snapshot time but may be — accept either.
    let counted = result.get("requests").and_then(Json::as_u64).unwrap();
    assert!(counted >= 11, "stats undercounts: {counted}");
    let report = result.get("report").expect("stats carry a server report");
    let report = RunReport::from_json(&report.to_string()).unwrap();
    let latency = report
        .hists
        .iter()
        .find(|h| h.name == "serve_request_micros")
        .expect("stats expose the request latency histogram");
    assert!(latency.count >= 9);
    assert!(latency.max >= latency.min && latency.min > 0.0);

    shutdown_and_join(&mut client, &server);
}

/// A malformed frame is answered once with `malformed_frame`, then the
/// connection closes; the server itself keeps serving other clients.
#[cfg(unix)]
#[test]
fn malformed_frame_is_answered_then_connection_closes() {
    use flow3d_serve::{read_frame, write_frame};

    let server = Server::new(ServerConfig::default()).unwrap();
    let (mut ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
    let handler = server.clone();
    std::thread::spawn(move || handler.handle_connection(theirs));

    // A healthy request first, to prove the connection was fine.
    write_frame(&mut ours, &obj(vec![("cmd", Json::Str("ping".into()))])).unwrap();
    let resp = read_frame(&mut ours).unwrap().unwrap();
    assert_ok(&resp);

    // Now garbage: a frame whose payload is not JSON.
    use std::io::Write;
    ours.write_all(&3u32.to_be_bytes()).unwrap();
    ours.write_all(b"{x}").unwrap();
    ours.flush().unwrap();
    let resp = read_frame(&mut ours).unwrap().unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        resp.get("error").and_then(|e| e.get("code")),
        Some(&Json::Str("malformed_frame".into()))
    );
    // The connection is dropped after the error response.
    assert!(read_frame(&mut ours).unwrap().is_none());

    // The server survives and serves a fresh connection.
    let mut client = socketpair_client(&server);
    let resp = client
        .request(&obj(vec![("cmd", Json::Str("ping".into()))]))
        .unwrap();
    assert_ok(&resp);
    shutdown_and_join(&mut client, &server);
}

/// A frame nested far past `Json::MAX_DEPTH` (a megabyte of `[`) is a
/// `malformed_frame`, not a stack overflow that takes the process down:
/// the server keeps answering on a fresh connection.
#[cfg(unix)]
#[test]
fn deeply_nested_frame_is_malformed_not_fatal() {
    use flow3d_serve::read_frame;
    use std::io::Write;

    let server = Server::new(ServerConfig::default()).unwrap();
    let (mut ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
    let handler = server.clone();
    std::thread::spawn(move || handler.handle_connection(theirs));

    let payload = vec![b'['; 1 << 20];
    ours.write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    ours.write_all(&payload).unwrap();
    ours.flush().unwrap();
    let resp = read_frame(&mut ours).unwrap().unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        resp.get("error").and_then(|e| e.get("code")),
        Some(&Json::Str("malformed_frame".into()))
    );
    let message = resp
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap();
    assert!(message.contains("nested deeper"), "{message}");
    assert!(read_frame(&mut ours).unwrap().is_none());

    let mut client = socketpair_client(&server);
    let resp = client
        .request(&obj(vec![("cmd", Json::Str("ping".into()))]))
        .unwrap();
    assert_ok(&resp);
    shutdown_and_join(&mut client, &server);
}

/// Two cases served concurrently from two connections: every response
/// is still bit-identical to the one-shot API — sharding must never
/// leak state across cases.
#[cfg(unix)]
#[test]
fn concurrent_connections_stay_deterministic() {
    let d = design(12);
    let base = base_placement(&d);
    let server = Server::new(ServerConfig::default()).unwrap();

    let mut setup = socketpair_client(&server);
    for name in ["a", "b"] {
        let resp = setup.request(&load_request(name, &d, &base)).unwrap();
        assert_ok(&resp);
    }

    let sets = [
        pileup(&base, &[0, 1, 2, 3, 4], 5),
        pileup(&base, &[6, 7, 8, 9, 10], 11),
    ];
    let expected: Vec<String> = sets.iter().map(|s| one_shot(&d, &base, s)).collect();

    std::thread::scope(|scope| {
        for (name, (spec, want)) in ["a", "b"].into_iter().zip(sets.iter().zip(&expected)) {
            let (server, d) = (&server, &d);
            scope.spawn(move || {
                let mut client = socketpair_client(server);
                for _ in 0..4 {
                    let resp = client.request(&eco_request(name, spec)).unwrap();
                    let result = assert_ok(&resp);
                    assert_eq!(result_str(result, "legal"), want.as_str(), "case {name}");
                    assert_served_legal(d, result_str(result, "legal"));
                }
            });
        }
    });

    shutdown_and_join(&mut setup, &server);
}

/// Shutdown drains: requests admitted before the shutdown all complete
/// and answer `ok`; requests after it are refused with `shutting_down`.
#[test]
fn shutdown_drains_admitted_requests() {
    let d = design(12);
    let base = base_placement(&d);
    let server = Server::new(ServerConfig::default()).unwrap();
    let result = server.process(1, parse_request(&load_request("demo", &d, &base)));
    assert_ok(&result);

    let spec = pileup(&base, &[0, 1, 2, 3, 4], 5);
    let expected = one_shot(&d, &base, &spec);
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for id in 2..5 {
            let (server, spec) = (&server, &spec);
            workers.push(
                scope.spawn(move || server.process(id, parse_request(&eco_request("demo", spec)))),
            );
        }
        // Give the three ECOs time to be *admitted* (admission is a
        // lock-push-unlock, execution can take as long as it likes).
        std::thread::sleep(std::time::Duration::from_millis(300));
        let resp = server.process(
            5,
            parse_request(&obj(vec![("cmd", Json::Str("shutdown".into()))])),
        );
        assert_ok(&resp);
        for worker in workers {
            let resp = worker.join().unwrap();
            let result = assert_ok(&resp);
            assert_eq!(
                result_str(result, "legal"),
                expected,
                "drained request diverged"
            );
            assert_served_legal(&d, result_str(result, "legal"));
        }
    });
    server.join();
    assert!(server.is_done());

    // Late work is refused, but inspection still answers.
    let resp = server.process(6, parse_request(&eco_request("demo", &spec)));
    assert_eq!(
        resp.get("error").and_then(|e| e.get("code")),
        Some(&Json::Str("shutting_down".into()))
    );
    let resp = server.process(
        7,
        parse_request(&obj(vec![("cmd", Json::Str("ping".into()))])),
    );
    assert_ok(&resp);
}

/// The TCP listener path: bind an ephemeral port, serve, shut down, and
/// observe the accept loop exit cleanly.
#[test]
fn tcp_listener_round_trips_and_stops() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Server::new(ServerConfig::default()).unwrap();
    let acceptor = server.clone();
    let accept_thread = std::thread::spawn(move || acceptor.serve_listener(listener));

    let mut client = Client::connect_tcp(addr).unwrap();
    let resp = client
        .request(&obj(vec![("cmd", Json::Str("ping".into()))]))
        .unwrap();
    assert_ok(&resp);
    shutdown_and_join(&mut client, &server);
    accept_thread.join().unwrap().unwrap();
}

/// When a listener loop returns, the shutdown answer has already been
/// written: a binary that exits right after `serve_unix` returns must not
/// cut it off. The reply is read without blocking only after the loop
/// has returned.
#[cfg(unix)]
#[test]
fn shutdown_answer_is_written_before_the_listener_returns() {
    use flow3d_serve::{read_frame, write_frame};

    let dir = std::env::temp_dir().join(format!("flow3d-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shutdown.sock");
    std::fs::remove_file(&path).ok();
    let server = Server::new(ServerConfig::default()).unwrap();
    let acceptor = server.clone();
    let listen_path = path.clone();
    let accept_thread = std::thread::spawn(move || acceptor.serve_unix(&listen_path));
    let mut stream = loop {
        match std::os::unix::net::UnixStream::connect(&path) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    };
    write_frame(
        &mut stream,
        &obj(vec![("cmd", Json::Str("shutdown".into()))]),
    )
    .unwrap();
    accept_thread.join().unwrap().unwrap();
    stream.set_nonblocking(true).unwrap();
    let resp = read_frame(&mut stream).unwrap().unwrap();
    assert_ok(&resp);
    std::fs::remove_dir_all(&dir).ok();
}

fn parse_request(json: &Json) -> flow3d_serve::Request {
    flow3d_serve::Request::parse(json).unwrap()
}

/// The `metrics` command over the wire: after a known request sequence
/// (one load + four ecos), the windowed gauges count exactly those five
/// completed requests — the snapshot is taken before the metrics
/// request's own sample — with ordered, populated latency quantiles, a
/// live throughput, and an agreeing Prometheus rendering.
#[cfg(unix)]
#[test]
fn metrics_window_reports_known_request_sequence() {
    let d = design(12);
    let base = base_placement(&d);
    let server = Server::new(ServerConfig::default()).unwrap();
    let mut client = socketpair_client(&server);

    let resp = client.request(&load_request("demo", &d, &base)).unwrap();
    assert_ok(&resp);
    let spec = pileup(&base, &[0, 1, 2, 3, 4], 5);
    for _ in 0..4 {
        let resp = client.request(&eco_request("demo", &spec)).unwrap();
        assert_served_legal(&d, result_str(assert_ok(&resp), "legal"));
    }

    let resp = client
        .request(&obj(vec![("cmd", Json::Str("metrics".into()))]))
        .unwrap();
    let result = assert_ok(&resp);
    let window = result.get("window").expect("metrics carry a window");
    let gauge = |key: &str| {
        window
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing gauge `{key}` in {window}"))
    };
    assert_eq!(gauge("count"), 5, "load + 4 ecos completed beforehand");
    assert_eq!(gauge("errors"), 0);
    assert_eq!(window.get("error_rate"), Some(&Json::num(0.0)));
    let (p50, p90, p99) = (
        gauge("latency_p50_micros"),
        gauge("latency_p90_micros"),
        gauge("latency_p99_micros"),
    );
    assert!(
        p50 > 0 && p50 <= p90 && p90 <= p99 && p99 <= gauge("latency_max_micros"),
        "quantiles must be populated and ordered: p50={p50} p90={p90} p99={p99}"
    );
    let throughput = window
        .get("throughput_rps")
        .and_then(Json::as_f64)
        .expect("throughput gauge");
    assert!(throughput > 0.0, "five requests completed: {throughput}");
    assert!(
        result
            .get("uptime_secs")
            .and_then(Json::as_f64)
            .expect("uptime gauge")
            >= 0.0
    );
    let text = result
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("metrics carry a Prometheus rendering");
    assert!(text.contains("flow3d_serve_window_requests 5"));
    assert!(text.contains(&format!(
        "flow3d_serve_request_latency_micros{{quantile=\"0.99\"}} {p99}"
    )));
    assert!(text.contains("flow3d_serve_requests_total 5"));

    shutdown_and_join(&mut client, &server);
}

/// A request error leaves a flight-recorder dump on disk with reason
/// `request_error` and the failing span in its event ring; a graceful
/// shutdown overwrites it with a `shutdown` dump. The JSONL event log
/// records the failure at error level, one parseable object per line.
#[test]
fn request_error_and_shutdown_dump_flight_recorder() {
    let dir = std::env::temp_dir().join(format!("flow3d_flight_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let flight = dir.join("flight.json");
    let log = dir.join("events.jsonl");
    let server = Server::new(ServerConfig {
        flight_path: Some(flight.to_string_lossy().into_owned()),
        log_path: Some(log.to_string_lossy().into_owned()),
        log_level: flow3d_obs::LogLevel::Debug,
        ..ServerConfig::default()
    })
    .unwrap();

    // An eco against a case that was never loaded: `unknown_case`.
    let resp = server.process(1, parse_request(&eco_request("ghost", &[(0, 0, 0, None)])));
    assert_eq!(
        resp.get("error").and_then(|e| e.get("code")),
        Some(&Json::Str("unknown_case".into()))
    );
    let dump = Json::parse(std::fs::read_to_string(&flight).unwrap().trim()).unwrap();
    assert_eq!(dump.get("reason"), Some(&Json::Str("request_error".into())));
    let events = dump
        .get("events")
        .and_then(Json::as_array)
        .expect("dump carries the event ring");
    assert!(
        events
            .iter()
            .any(|e| e.get("event") == Some(&Json::Str("request_failed".into()))),
        "the failing span must be in the recorded events: {dump}"
    );

    let resp = server.process(
        2,
        parse_request(&obj(vec![("cmd", Json::Str("shutdown".into()))])),
    );
    assert_ok(&resp);
    server.join();
    let dump = Json::parse(std::fs::read_to_string(&flight).unwrap().trim()).unwrap();
    assert_eq!(dump.get("reason"), Some(&Json::Str("shutdown".into())));

    let text = std::fs::read_to_string(&log).unwrap();
    let mut saw_failure = false;
    for line in text.lines() {
        let record = Json::parse(line).expect("every log line is one JSON object");
        if record.get("event") == Some(&Json::Str("request_failed".into())) {
            assert_eq!(record.get("level"), Some(&Json::Str("error".into())));
            saw_failure = true;
        }
    }
    assert!(saw_failure, "the log must record the failed request");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--trace DIR` exports one Chrome trace per load/eco request, named
/// `<case>_r<id>.trace.json` and process-tagged `case#r<id>`.
#[test]
fn trace_dir_exports_per_request_chrome_traces() {
    let dir = std::env::temp_dir().join(format!("flow3d_traces_{}", std::process::id()));
    let server = Server::new(ServerConfig {
        trace_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .unwrap();
    let d = design(12);
    let base = base_placement(&d);
    let resp = server.process(1, parse_request(&load_request("demo", &d, &base)));
    assert_ok(&resp);
    let spec = pileup(&base, &[0, 1, 2, 3, 4], 5);
    let resp = server.process(2, parse_request(&eco_request("demo", &spec)));
    assert_ok(&resp);
    let resp = server.process(
        3,
        parse_request(&obj(vec![("cmd", Json::Str("shutdown".into()))])),
    );
    assert_ok(&resp);
    server.join();

    for id in [1u64, 2] {
        let path = dir.join(format!("demo_r{id}.trace.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing trace {}: {e}", path.display()));
        let doc = Json::parse(&text).expect("trace parses");
        assert!(
            doc.get("traceEvents").and_then(Json::as_array).is_some(),
            "trace carries traceEvents: {}",
            path.display()
        );
        assert!(text.contains(&format!("demo#r{id}")), "span process tag");
    }
    std::fs::remove_dir_all(&dir).ok();
}
