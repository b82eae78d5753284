//! Serve workload: closed-loop ECO traffic against the resident service.
//!
//! Set-up generates and globally places the case, writes the input
//! files, starts a [`Server`] listening on a Unix socket in a process of
//! its own (this binary, re-executed with [`SERVER_SOCKET_ENV`] set), and
//! has each of [`CLIENTS`] clients `load` its own copy of the case over
//! the socket. The separate process keeps the service's memory peak
//! apart from the clients' and from earlier set-up rounds. Each client
//! then sends its [`HOT_SETS`] hot move sets once as warm-up and loops
//! until time is up, waiting for each reply before sending the next
//! request. A request moves [`MOVES_PER_REQUEST`] cells
//! to within ±[`JITTER_DBU`] of their global position; three in four
//! replay a hot set, the rest are fresh, and every [`COMMIT_EVERY`]th
//! commits, so read-only ECOs and commits hit the same resident state.
//!
//! Verification replays each client's stream on a directly driven
//! [`EcoEngine`]: every reply's placement text must be byte-identical to
//! the replay's, and parse back into a placement that `check_legal`
//! accepts.

use crate::batch::{self, set_layer_medians, Job};
use crate::spans::Recorder;
use crate::stats::median;
use crate::{
    latency_note, peak_rss_mib, repeat_setup, reset_peak_rss, CaseSpec, Report, Rng, RunOpts,
};
use flow3d_core::{CellMove, EcoEngine, Flow3dConfig};
use flow3d_db::{CellId, DieId};
use flow3d_geom::Point;
use flow3d_metrics::check_legal;
use flow3d_obs::{keys, Profile};
use flow3d_serve::{Client, Json, Server, ServerConfig};
use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
pub const HOT_SETS: usize = 8;
pub const MOVES_PER_REQUEST: usize = 16;
pub const JITTER_DBU: i64 = 100;
pub const COMMIT_EVERY: usize = 20;

/// Names the socket a re-executed benchmark binary serves on.
pub const SERVER_SOCKET_ENV: &str = "FLOW3D_BENCHMARK_SERVER_SOCKET";

/// The server process: serves on `socket` until a `shutdown` request.
pub fn serve_on(socket: &Path) -> Result<(), String> {
    Server::new(ServerConfig {
        workers: 2,
        ..Default::default()
    })
    .and_then(|server| server.serve_unix(socket))
    .map_err(|e| format!("server on {}: {e}", socket.display()))
}

fn spawn_server(socket: &Path) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.env(SERVER_SOCKET_ENV, socket)
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if cfg!(test) {
        // Under `cargo test` the executable is the test harness: run only
        // the entry that hands over to `serve_on`.
        cmd.args(["--exact", "tests::server_process_entry"]);
    }
    cmd.spawn().map_err(|e| format!("starting the server: {e}"))
}

/// Where a move may send each cell: its global position and the box
/// that keeps it inside every die outline.
struct Cells {
    names: Vec<String>,
    global: Vec<Point>,
    lo: Point,
    hi: Vec<Point>,
}

impl Cells {
    fn new(design: &flow3d_db::Design, global: &flow3d_db::Placement3d) -> Self {
        let dies = design.dies();
        let lo = Point::new(
            dies.iter().map(|d| d.outline.xlo).max().unwrap_or(0),
            dies.iter().map(|d| d.outline.ylo).max().unwrap_or(0),
        );
        let (xhi, yhi) = (
            dies.iter().map(|d| d.outline.xhi).min().unwrap_or(0),
            dies.iter().map(|d| d.outline.yhi).min().unwrap_or(0),
        );
        let mut cells = Cells {
            names: Vec::new(),
            global: Vec::new(),
            lo,
            hi: Vec::new(),
        };
        for (i, inst) in design.cells().iter().enumerate() {
            let id = CellId::new(i);
            let (w, h) = (0..dies.len()).fold((0, 0), |(w, h), d| {
                let die = DieId::new(d);
                (
                    w.max(design.cell_width(id, die)),
                    h.max(design.cell_height(die)),
                )
            });
            let p = global.pos(id);
            cells.names.push(inst.name.clone());
            cells
                .global
                .push(Point::new(p.x.round() as i64, p.y.round() as i64));
            cells
                .hi
                .push(Point::new((xhi - w).max(lo.x), (yhi - h).max(lo.y)));
        }
        cells
    }

    /// A fresh move set: distinct cells, each sent near its global spot.
    fn move_set(&self, rng: &mut Rng) -> Vec<(usize, Point)> {
        let n = self.names.len();
        let mut picked: Vec<usize> = Vec::with_capacity(MOVES_PER_REQUEST);
        while picked.len() < MOVES_PER_REQUEST.min(n) {
            let c = rng.below(n as u64) as usize;
            if !picked.contains(&c) {
                picked.push(c);
            }
        }
        let span = 2 * JITTER_DBU as u64 + 1;
        picked
            .into_iter()
            .map(|c| {
                let dx = rng.below(span) as i64 - JITTER_DBU;
                let dy = rng.below(span) as i64 - JITTER_DBU;
                let g = self.global[c];
                let target = Point::new(
                    (g.x + dx).clamp(self.lo.x, self.hi[c].x),
                    (g.y + dy).clamp(self.lo.y, self.hi[c].y),
                );
                (c, target)
            })
            .collect()
    }

    fn eco_request(&self, case: &str, moves: &[(usize, Point)], commit: bool) -> Json {
        let moves = moves
            .iter()
            .map(|&(c, p)| {
                Json::Obj(vec![
                    ("cell".into(), Json::Str(self.names[c].clone())),
                    ("x".into(), Json::num(p.x as f64)),
                    ("y".into(), Json::num(p.y as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("cmd".into(), Json::Str("eco".into())),
            ("name".into(), Json::Str(case.into())),
            ("moves".into(), Json::Arr(moves)),
            ("commit".into(), Json::Bool(commit)),
        ])
    }
}

struct Inputs {
    files: batch::Inputs,
    case_text: String,
    gp_text: String,
    cells: Cells,
}

struct Service {
    server: Child,
    clients: Vec<Client<UnixStream>>,
}

impl Drop for Service {
    /// Stops a server that [`stop`] did not (an error path); a no-op
    /// once it has been waited for.
    fn drop(&mut self) {
        let _ = self.server.kill();
        let _ = self.server.wait();
    }
}

fn case_name(client: usize) -> String {
    format!("c{client}")
}

fn load_request(inputs: &Inputs, client: usize) -> Json {
    Json::Obj(vec![
        ("cmd".into(), Json::Str("load".into())),
        ("name".into(), Json::Str(case_name(client))),
        ("case".into(), Json::Str(inputs.case_text.clone())),
        ("global".into(), Json::Str(inputs.gp_text.clone())),
        ("threads".into(), Json::num(1.0)),
    ])
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok") == Some(&Json::Bool(true))
}

/// Generates the inputs, starts the server and loads one case per
/// client.
fn setup(spec: CaseSpec, dir: &Path) -> Result<(Inputs, Service), String> {
    let generated = spec.generate()?;
    let global = flow3d_gp::GlobalPlacer::new(flow3d_gp::GpConfig::default())
        .place_from(&generated.design, &generated.natural);
    let mut case_text = String::new();
    flow3d_io::write_case(&generated.design, &mut case_text).map_err(|e| e.to_string())?;
    let mut gp_text = String::new();
    flow3d_io::write_placement3d(&generated.design, &global, &mut gp_text)
        .map_err(|e| e.to_string())?;
    let inputs = Inputs {
        files: batch::Inputs {
            case: dir.join("case.txt"),
            gp: dir.join("gp.txt"),
        },
        cells: Cells::new(&generated.design, &global),
        case_text,
        gp_text,
    };
    for (path, text) in [
        (&inputs.files.case, &inputs.case_text),
        (&inputs.files.gp, &inputs.gp_text),
    ] {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let socket = dir.join("serve.sock");
    std::fs::remove_file(&socket).ok();
    let mut service = Service {
        server: spawn_server(&socket)?,
        clients: Vec::new(),
    };
    for _ in 0..CLIENTS {
        service.clients.push(connect(&socket)?);
    }
    let replies: Vec<_> = std::thread::scope(|s| {
        let inputs = &inputs;
        let handles: Vec<_> = service
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| s.spawn(move || client.request(&load_request(inputs, c))))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    for reply in replies {
        match reply {
            Ok(Ok(r)) if is_ok(&r) => {}
            Ok(Ok(r)) => return Err(format!("load refused: {r}")),
            Ok(Err(e)) => return Err(format!("load failed: {e}")),
            Err(_) => return Err("load thread panicked".into()),
        }
    }
    Ok((inputs, service))
}

/// Connects to the server process, retrying until it has bound the
/// socket.
fn connect(socket: &Path) -> Result<Client<UnixStream>, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect_unix(socket) {
            Ok(c) => return Ok(c),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => return Err(format!("{}: {e}", socket.display())),
        }
    }
}

/// Drains and stops the server and waits for its process to exit.
fn stop(mut service: Service) -> Result<(), String> {
    let shutdown = Json::Obj(vec![("cmd".into(), Json::Str("shutdown".into()))]);
    let reply = service.clients[0].request(&shutdown);
    service.clients.clear();
    let status = service.server.wait().map_err(|e| e.to_string())?;
    match reply {
        Ok(r) if is_ok(&r) && status.success() => Ok(()),
        Ok(r) => Err(format!("shutdown: {r}, server {status}")),
        Err(e) => Err(format!("shutdown: {e}, server {status}")),
    }
}

/// One request as sent, and what came back.
struct Sent {
    moves: Vec<(usize, Point)>,
    commit: bool,
    /// Hash of the reply's placement text; `None` for a failed request.
    reply: Option<u64>,
}

fn text_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// One client's request stream and what it measured.
struct ClientRun {
    case: String,
    rng: Rng,
    hot: Vec<Vec<(usize, Point)>>,
    req: u64,
    sent: Vec<Sent>,
    failures: Vec<String>,
    /// Timed-loop latencies in ms, untraced / traced.
    latency_ms: [Vec<f64>; 2],
    /// Timed-loop wall seconds, untraced / traced.
    loop_s: [f64; 2],
    /// Per-request layer values of traced requests.
    layers: Vec<Vec<(&'static str, f64)>>,
    rec: Recorder,
}

impl ClientRun {
    fn new(c: usize, cells: &Cells, seed: u64, epoch: Instant) -> Self {
        let mut rng = Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let hot = (0..HOT_SETS).map(|_| cells.move_set(&mut rng)).collect();
        ClientRun {
            case: case_name(c),
            rng,
            hot,
            req: (c as u64) << 32,
            sent: Vec::new(),
            failures: Vec::new(),
            latency_ms: Default::default(),
            loop_s: [0.0; 2],
            layers: Vec::new(),
            rec: Recorder::new(epoch, c as u32 + 1),
        }
    }

    /// Sends one request and returns its latency in ms, or `None` if it
    /// failed.
    fn send(
        &mut self,
        client: &mut Client<UnixStream>,
        cells: &Cells,
        moves: Vec<(usize, Point)>,
        commit: bool,
        traced: bool,
    ) -> Option<f64> {
        self.req += 1;
        let (case, req) = (&self.case, self.req);
        let t0 = Instant::now();
        let result = client.request(&cells.eco_request(case, &moves, commit));
        let t1 = Instant::now();
        let reply = match result {
            Ok(reply) if is_ok(&reply) => Some(reply),
            Ok(reply) => {
                self.failures.push(format!("{case} request {req}: {reply}"));
                None
            }
            Err(e) => {
                self.failures.push(format!("{case} request {req}: {e}"));
                None
            }
        };
        let legal = reply
            .as_ref()
            .and_then(|r| r.get("result"))
            .and_then(|r| r.get("legal"))
            .and_then(Json::as_str);
        if reply.is_some() && legal.is_none() {
            self.failures
                .push(format!("{case} request {req}: reply has no placement"));
        }
        if let (true, Some(reply)) = (traced, &reply) {
            // The client decodes inside `request`; decoding the same text
            // again, off the latency path, gives that layer's share.
            let span = self.rec.push("request", req, None, t0, t1);
            self.rec.push("serve.round_trip", req, Some(span), t0, t1);
            let text = reply.to_string();
            let d0 = Instant::now();
            let decoded = Json::parse(&text);
            let d1 = Instant::now();
            self.rec.push("obs.decode_reply", req, Some(span), d0, d1);
            std::hint::black_box(decoded.is_ok());
            self.layers.push(vec![
                (
                    "obs.reply_decode_share",
                    (d1 - d0).as_secs_f64() / (t1 - t0).as_secs_f64(),
                ),
                ("serve.reply_kib", text.len() as f64 / 1024.0),
            ]);
        }
        let hash = legal.map(text_hash);
        self.sent.push(Sent {
            moves,
            commit,
            reply: hash,
        });
        hash.map(|_| (t1 - t0).as_secs_f64() * 1e3)
    }

    /// Sends each hot set once, uncommitted.
    fn warm_up(&mut self, client: &mut Client<UnixStream>, cells: &Cells) {
        for k in 0..self.hot.len() {
            if self
                .send(client, cells, self.hot[k].clone(), false, false)
                .is_none()
            {
                return;
            }
        }
    }

    /// The closed loop. A traced run spends its first half untraced, as
    /// the reference for the tracing overhead, and traces the second.
    fn timed_loop(&mut self, client: &mut Client<UnixStream>, cells: &Cells, opts: &RunOpts) {
        let phases: &[bool] = if opts.trace { &[false, true] } else { &[false] };
        let start = Instant::now();
        let mut i = 0;
        for &traced in phases {
            let end = if opts.trace && !traced {
                opts.seconds / 2.0
            } else {
                opts.seconds
            };
            let phase_start = Instant::now();
            let mut k = 0;
            while k == 0 || start.elapsed().as_secs_f64() < end {
                let moves = if self.rng.below(4) < 3 {
                    self.hot[self.rng.below(HOT_SETS as u64) as usize].clone()
                } else {
                    cells.move_set(&mut self.rng)
                };
                match self.send(client, cells, moves, i % COMMIT_EVERY == 0, traced) {
                    Some(ms) => self.latency_ms[usize::from(traced)].push(ms),
                    None => break,
                }
                i += 1;
                k += 1;
            }
            self.loop_s[usize::from(traced)] = phase_start.elapsed().as_secs_f64();
        }
    }
}

/// Runs `f` for every client on its own thread, all at once.
fn on_each_client(
    clients: &mut [Client<UnixStream>],
    runs: &mut [ClientRun],
    f: impl Fn(&mut Client<UnixStream>, &mut ClientRun) + Sync,
) {
    std::thread::scope(|s| {
        let f = &f;
        for (client, run) in clients.iter_mut().zip(runs.iter_mut()) {
            s.spawn(move || f(client, run));
        }
    });
}

/// Replays one client's stream on a directly driven engine and checks
/// every reply against it.
struct Replay {
    failures: Vec<String>,
    /// The job that legalized the base, as the server's `load` does.
    base: Job,
    eco_ms: Vec<f64>,
    reseed_frac: Vec<f64>,
    memo: (u64, u64),
}

fn replay(
    inputs: &Inputs,
    c: usize,
    sent: &[Sent],
    dir: &Path,
    rec: Option<&mut Recorder>,
) -> Result<Replay, String> {
    let out = dir.join(format!("base_c{c}.txt"));
    let (base, design, placement) = batch::job(&inputs.files, &out, rec, c as u64)?;
    let cfg = Flow3dConfig {
        threads: 1,
        ..Default::default()
    };
    let mut engine = EcoEngine::new(cfg, design.clone(), placement).map_err(|e| e.to_string())?;
    let mut r = Replay {
        failures: Vec::new(),
        base,
        eco_ms: Vec::new(),
        reseed_frac: Vec::new(),
        memo: (0, 0),
    };
    let mut verified: BTreeSet<u64> = BTreeSet::new();
    for (k, s) in sent.iter().enumerate() {
        let Some(reply) = s.reply else { continue };
        let moves: Vec<CellMove> = s
            .moves
            .iter()
            .map(|&(cell, target)| CellMove {
                cell: CellId::new(cell),
                target,
                die: None,
            })
            .collect();
        let mut p = Profile::new();
        let e0 = Instant::now();
        let outcome = engine
            .eco_observed(&moves, Some(&mut p))
            .map_err(|e| format!("replay of request {k}: {e}"))?;
        r.eco_ms.push(e0.elapsed().as_secs_f64() * 1e3);
        r.memo.0 += p.counters().get(keys::SELECTION_MEMO_HITS);
        r.memo.1 += p.counters().get(keys::SELECTION_MEMO_MISSES);
        let mut text = String::new();
        flow3d_io::write_legal(&design, &outcome.placement, &mut text)
            .map_err(|e| e.to_string())?;
        let hash = text_hash(&text);
        if hash != reply {
            r.failures.push(format!(
                "c{c} request {k}: reply differs from the direct replay"
            ));
        } else if verified.insert(hash) {
            match flow3d_io::parse_legal(&design, &text) {
                Ok(legal) if legal == outcome.placement => {
                    let check = check_legal(&design, &legal);
                    if !check.is_legal() {
                        r.failures
                            .push(format!("c{c} request {k}: illegal: {check}"));
                    }
                }
                Ok(_) => r
                    .failures
                    .push(format!("c{c} request {k}: text does not round-trip")),
                Err(e) => r
                    .failures
                    .push(format!("c{c} request {k}: unreadable: {e}")),
            }
        }
        if s.commit {
            let stats = engine
                .commit(outcome.placement)
                .map_err(|e| e.to_string())?;
            r.reseed_frac
                .push(stats.reseeded as f64 / stats.total.max(1) as f64);
        }
    }

    Ok(r)
}

/// Reads the server's own request-latency median (ms) off `stats`.
fn server_p50_ms(client: &mut Client<UnixStream>) -> Result<f64, String> {
    let stats = Json::Obj(vec![("cmd".into(), Json::Str("stats".into()))]);
    let reply = client.request(&stats).map_err(|e| e.to_string())?;
    reply
        .get("result")
        .and_then(|r| r.get("report"))
        .and_then(|r| r.get("histograms"))
        .and_then(Json::as_array)
        .and_then(|hists| {
            hists.iter().find(|h| {
                h.get("name").and_then(Json::as_str)
                    == Some(flow3d_obs::hist_keys::SERVE_REQUEST_MICROS)
            })
        })
        .and_then(|h| h.get("p50"))
        .and_then(Json::as_f64)
        .map(|us| us / 1e3)
        .ok_or_else(|| format!("stats reply lacks the request histogram: {reply}"))
}

pub fn run(spec: CaseSpec, opts: &RunOpts) -> Result<Report, String> {
    let mut report = Report::default();
    let ((inputs, mut service), setup_s) =
        repeat_setup(|| setup(spec, &opts.dir), |(_, service)| stop(service))?;
    report.set("setup_s", setup_s.value, setup_s.n);

    // The memory peak is the server process's over the timed loop: its
    // allocator arenas settle during the warm-up, so that growth does not
    // count.
    let epoch = Instant::now();
    let cells = &inputs.cells;
    let mut runs: Vec<ClientRun> = (0..CLIENTS)
        .map(|c| ClientRun::new(c, cells, opts.seed, epoch))
        .collect();
    on_each_client(&mut service.clients, &mut runs, |client, run| {
        run.warm_up(client, cells)
    });
    let server = service.server.id().to_string();
    reset_peak_rss(&server);
    on_each_client(&mut service.clients, &mut runs, |client, run| {
        run.timed_loop(client, cells, opts)
    });
    report.set("peak_rss_mib", peak_rss_mib(&server), 1);
    let server_ms = server_p50_ms(&mut service.clients[0]);
    stop(service)?;

    let untraced: Vec<f64> = runs.iter().flat_map(|r| r.latency_ms[0].clone()).collect();
    let rps: f64 = runs
        .iter()
        .map(|r| r.latency_ms[0].len() as f64 / r.loop_s[0])
        .sum();
    report.notes.push(latency_note(
        "untraced client-observed ECO latency",
        &untraced,
    ));
    report.notes.push(format!(
        "untraced throughput: {rps:.3} ECOs/s over {CLIENTS} clients"
    ));
    report.set("op_p50_ms", median(&untraced), untraced.len());

    let mut replays = Vec::new();
    let mut rec = Recorder::new(epoch, 0);
    for (c, run) in runs.iter().enumerate() {
        report.attempted += run.sent.len() as u64;
        for f in &run.failures {
            report.fail(f.clone());
        }
        let r = replay(
            &inputs,
            c,
            &run.sent,
            &opts.dir,
            opts.trace.then_some(&mut rec),
        )?;
        for f in &r.failures {
            report.fail(f.clone());
        }
        replays.push(r);
    }
    // Every client loads the same case, so the base quality is shared.
    replays[0].base.quality.report(&mut report, 1);

    if opts.trace {
        let rows: Vec<_> = runs.iter().flat_map(|r| r.layers.clone()).collect();
        set_layer_medians(&mut report, &rows);
        let rows: Vec<_> = replays.iter().map(|r| r.base.layers.clone()).collect();
        set_layer_medians(&mut report, &rows);
        // Shares of the untraced client-observed median: what the server
        // spends per request, and what the engine alone spends per ECO.
        let op_ms = median(&untraced);
        report.set("serve.server_share", server_ms? / op_ms, 1);
        let eco: Vec<f64> = replays.iter().flat_map(|r| r.eco_ms.clone()).collect();
        report.set("core.eco_share", median(&eco) / op_ms, eco.len());
        let load = load_request(&inputs, 0).to_string();
        let t = Instant::now();
        let parsed = Json::parse(&load);
        let load_decode_s = t.elapsed().as_secs_f64();
        std::hint::black_box(parsed.is_ok());
        report.set("obs.load_decode_share", load_decode_s / setup_s.value, 1);
        let reseed: Vec<f64> = replays.iter().flat_map(|r| r.reseed_frac.clone()).collect();
        report.set("core.commit_reseed_frac", median(&reseed), reseed.len());
        let (hits, misses) = replays
            .iter()
            .fold((0, 0), |(h, m), r| (h + r.memo.0, m + r.memo.1));
        report.set(
            "core.eco_memo_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            eco.len(),
        );
        let traced: Vec<f64> = runs.iter().flat_map(|r| r.latency_ms[1].clone()).collect();
        report.set(
            "trace_overhead_frac",
            median(&traced) / median(&untraced) - 1.0,
            traced.len(),
        );
        report.spans = rec.into_spans();
        for run in runs {
            crate::spans::append(&mut report.spans, run.rec.into_spans());
        }
    }
    Ok(report)
}
