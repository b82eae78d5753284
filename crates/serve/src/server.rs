//! The resident legalization server.
//!
//! A [`Server`] owns a registry of resident cases (each a warm
//! [`flow3d_core::EcoEngine`]) and one admission state, and runs every
//! request on the thread of the connection that read it. A queued
//! request (`load`, `eco`, `legalize`) is admitted against a bound on
//! unanswered requests, takes the next turn in its case's *lane*, and
//! runs once that turn comes up and fewer than
//! [`ServerConfig::workers`] requests are running. Distinct cases
//! therefore run side by side, while each case's engine sees its
//! requests one at a time in admission order — which is what keeps its
//! warm state and the determinism contract intact.
//!
//! Connection handling is transport-agnostic: [`Server::handle_connection`]
//! speaks the frame protocol over any `Read + Write` stream, and
//! [`Server::serve_tcp`] / [`Server::serve_unix`] provide the usual
//! listeners. A server is cheaply cloneable (it is an [`Arc`] over its
//! shared state), so tests can drive it over an in-process socket pair
//! while a listener thread serves real clients.
//!
//! Lifecycle: `load` → any number of `eco`/`legalize` → `shutdown`. A
//! `shutdown` request closes admission immediately (later queued
//! requests are refused with [`codes::SHUTTING_DOWN`]), waits until
//! every previously admitted request has been answered, answers, and
//! stops the server. See `SERVING.md` for the operational details.

use crate::protocol::{
    codes, error_response, ok_response, read_frame, request_id, write_frame, FrameError, MoveSpec,
    Request, MAX_CONNECTIONS,
};
use flow3d_core::{
    CellMove, CommitStats, EcoEngine, Flow3dConfig, Flow3dLegalizer, LegalizeError, LegalizeStats,
    Legalizer,
};
use flow3d_db::{Design, DieId, LegalPlacement};
use flow3d_geom::Point;
use flow3d_io::LegalText;
use flow3d_obs::{
    hist_keys, keys, log_record, peak_rss_bytes, EventLog, FlightRecorder, Json, LogLevel, Profile,
    RequestSample, RollingWindow, RunReport,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Server tuning knobs. The defaults favour predictability:
/// single-threaded engines, and up to two requests on distinct cases
/// running at once. Results *and* search telemetry are bit-identical at
/// every setting, so these knobs trade wall-clock only.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most queued requests executing at once, each on its own
    /// connection thread; two requests on one case never overlap. `0`
    /// resolves like `flow3d_par::resolve_threads`.
    pub workers: usize,
    /// Most queued requests admitted and not yet answered, running ones
    /// included. One more is refused with [`codes::OVERLOADED`] instead
    /// of waiting without limit; `shutdown` is always admitted.
    pub queue_depth: usize,
    /// Engine threads for cases loaded without an explicit `threads`
    /// field. Results and search telemetry are bit-identical at any
    /// value; `1` (the default) avoids oversubscribing the `workers`
    /// running requests on small cases.
    pub default_threads: usize,
    /// JSONL event-log path (`--log` / `FLOW3D_LOG`). `None` disables
    /// structured logging; the event path then costs one branch.
    pub log_path: Option<String>,
    /// Minimum severity written to the event log.
    pub log_level: LogLevel,
    /// Flight-recorder sidecar path. When set, recent events and the
    /// last few per-request reports are retained in memory and dumped
    /// here on a request error and at shutdown.
    pub flight_path: Option<String>,
    /// Directory for per-request Chrome traces (`--trace`). Every
    /// queued request records a trace and writes
    /// `<dir>/<case>_r<id>.trace.json`, span process tagged
    /// `case#r<id>`.
    pub trace_dir: Option<String>,
    /// Length of the rolling metrics window, in seconds.
    pub window_secs: u64,
}

/// Sample capacity of the rolling metrics window.
const WINDOW_CAPACITY: usize = 1024;
/// Flight-recorder event-ring capacity.
const RECORDER_EVENTS: usize = 256;
/// Flight-recorder per-request report-ring capacity.
const RECORDER_REPORTS: usize = 8;
/// Message of a [`codes::SHUTTING_DOWN`] refusal.
const DRAINING: &str = "the server is draining and admits no new work";

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            default_threads: 1,
            log_path: None,
            log_level: LogLevel::Info,
            flight_path: None,
            trace_dir: None,
            window_secs: 60,
        }
    }
}

/// One resident case: the warm engine behind its own lock, and the
/// per-case counters outside it, so `stats` never waits on a running
/// request.
struct CaseSlot {
    resident: Mutex<Resident>,
    cells: usize,
    /// Successful ECOs: `stats` reports it as both `ecos` and
    /// `requests_served`, and an `eco` reply as `requests_served`.
    ecos: AtomicU64,
    legalizes: AtomicU64,
}

/// What a case's lock guards: the warm engine, and the legal text of
/// its committed base, from which `eco` and `legalize` replies are
/// rendered. A reply differs from the base in few cells, so rendering
/// copies most lines instead of formatting them.
struct Resident {
    engine: EcoEngine,
    text: LegalText,
}

impl Resident {
    fn new(engine: EcoEngine) -> Resident {
        let text = LegalText::new(engine.design(), engine.base());
        Resident { engine, text }
    }

    /// The legal text of `placement`, byte-identical to
    /// [`flow3d_io::write_legal`].
    fn render(&self, placement: &LegalPlacement) -> String {
        self.text.render(self.engine.design(), placement)
    }

    /// Commits `placement` as the engine's base, adopting `text` — its
    /// [`render`](Self::render) — as the base text, so a commit formats
    /// no line again.
    fn commit(
        &mut self,
        placement: LegalPlacement,
        text: &str,
    ) -> Result<CommitStats, LegalizeError> {
        let stats = self.engine.commit(placement)?;
        self.text = LegalText::adopt(self.engine.design(), self.engine.base(), text.to_owned());
        Ok(stats)
    }
}

/// What a queued request produces: the wire response plus the request's
/// profile, merged into the server telemetry before its turn passes on.
struct Executed {
    response: Json,
    profile: Option<Profile>,
}

/// Who may run: the admission state of queued requests and the
/// server's stop flag, behind one mutex and woken through one condvar.
#[derive(Default)]
struct Admission {
    /// Queued requests admitted and not yet answered, running ones
    /// included: `stats.pending`, bounded by `queue_depth`.
    pending: usize,
    /// Queued requests executing now, at most `workers`.
    running: usize,
    /// Turns per case name. A lane goes once no turn in it is
    /// outstanding, so the map holds only cases with admitted work.
    lanes: BTreeMap<String, Lane>,
    /// Set by `shutdown`: no further queued request is admitted.
    shutting_down: bool,
    /// Set once `shutdown` has drained every admitted request.
    stopped: bool,
}

/// A case's turns: the request admitted as turn `t` runs once
/// `finished == t`, so one case's requests run one at a time in
/// admission order.
#[derive(Default)]
struct Lane {
    issued: u64,
    finished: u64,
}

/// A running request's turn. Dropping it — on the way out of a panic
/// too — frees the running slot, marks the request answered and passes
/// the turn on, so one failed request cannot wedge its case or the
/// drain.
struct Turn<'a> {
    shared: &'a Shared,
    case: String,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let mut admission = lock(&self.shared.admission);
        admission.pending -= 1;
        admission.running -= 1;
        if let Some(lane) = admission.lanes.get_mut(&self.case) {
            lane.finished += 1;
            if lane.finished == lane.issued {
                admission.lanes.remove(&self.case);
            }
        }
        self.shared.admission_cv.notify_all();
    }
}

/// Live telemetry behind one mutex: the merged [`Profile`] of every
/// request plus the [`hist_keys::SERVE_REQUEST_MICROS`] latency
/// histogram (`stats`), the rolling window (`metrics`, and the lifetime
/// request and error totals `stats` reports), and the flight recorder
/// (fed only when a dump path is configured).
struct Telemetry {
    profile: Profile,
    window: RollingWindow,
    recorder: FlightRecorder,
}

struct Shared {
    config: ServerConfig,
    /// [`ServerConfig::workers`], resolved.
    workers: usize,
    registry: Mutex<BTreeMap<String, Arc<CaseSlot>>>,
    admission: Mutex<Admission>,
    admission_cv: Condvar,
    next_id: AtomicU64,
    next_span: AtomicU64,
    next_event: AtomicU64,
    started: Instant,
    telemetry: Mutex<Telemetry>,
    log: Option<EventLog>,
    /// Requests read off a connection whose response is not written yet
    /// (see [`Answering`]).
    answering: Mutex<usize>,
    answered_cv: Condvar,
    /// Connections the listeners are serving (see [`MAX_CONNECTIONS`]).
    connections: AtomicUsize,
}

/// Holds one of the [`MAX_CONNECTIONS`] listener slots until the
/// connection thread ends.
struct ConnectionSlot(Server);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.shared.connections.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Counts one connection request as unanswered from the moment its
/// frame is read until the guard drops after the response is written,
/// so [`Server::join`] can wait for the shutdown answer to leave the
/// process before a listener returns and the process exits.
struct Answering<'a>(&'a Shared);

impl<'a> Answering<'a> {
    fn start(shared: &'a Shared) -> Self {
        *lock(&shared.answering) += 1;
        Answering(shared)
    }
}

impl Drop for Answering<'_> {
    fn drop(&mut self) {
        *lock(&self.0.answering) -= 1;
        self.0.answered_cv.notify_all();
    }
}

/// How long [`Server::join`] waits for responses still being written
/// once the server has stopped: ample for any reply a reading peer
/// accepts, and a bound on a peer that stopped reading.
const ANSWER_GRACE: Duration = Duration::from_secs(5);

/// The resident legalization service. Cheap to clone; all clones share
/// one registry and admission state. See the module docs for the
/// execution model.
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Starts a server: opens the configured telemetry sinks and returns
    /// a handle ready for [`handle_connection`](Self::handle_connection)
    /// or the listener loops. It spawns no thread: a request runs on the
    /// thread that hands it to [`process`](Self::process), under the
    /// listeners the connection's own.
    ///
    /// # Errors
    ///
    /// Fails if the event-log file cannot be created or the trace
    /// directory cannot be made. A default config opens no sinks and
    /// cannot fail.
    pub fn new(config: ServerConfig) -> std::io::Result<Server> {
        let log = match &config.log_path {
            Some(path) => Some(EventLog::to_file(path, config.log_level)?),
            None => None,
        };
        if let Some(dir) = &config.trace_dir {
            std::fs::create_dir_all(dir)?;
        }
        let telemetry = Telemetry {
            profile: Profile::new(),
            window: RollingWindow::new(
                WINDOW_CAPACITY,
                config.window_secs.saturating_mul(1_000_000),
            ),
            recorder: FlightRecorder::new(RECORDER_EVENTS, RECORDER_REPORTS),
        };
        Ok(Server {
            shared: Arc::new(Shared {
                workers: flow3d_par::resolve_threads(config.workers),
                config,
                registry: Mutex::new(BTreeMap::new()),
                admission: Mutex::new(Admission::default()),
                admission_cv: Condvar::new(),
                next_id: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
                next_event: AtomicU64::new(0),
                started: Instant::now(),
                telemetry: Mutex::new(telemetry),
                log,
                answering: Mutex::new(0),
                answered_cv: Condvar::new(),
                connections: AtomicUsize::new(0),
            }),
        })
    }

    /// Microseconds since the server started — the epoch for metrics
    /// samples and event timestamps.
    fn uptime_micros(&self) -> u64 {
        self.shared.started.elapsed().as_micros() as u64
    }

    /// Whether any structured-event sink (JSONL log or flight
    /// recorder) is configured. When neither is, the whole event path
    /// collapses to this one branch.
    fn events_on(&self) -> bool {
        self.shared.log.is_some() || self.shared.config.flight_path.is_some()
    }

    /// Emits one structured event to the log and the flight recorder.
    fn emit(&self, level: LogLevel, event: &str, fields: Vec<(String, Json)>) {
        if !self.events_on() {
            return;
        }
        let seq = self.shared.next_event.fetch_add(1, Ordering::Relaxed);
        let record = log_record(seq, self.uptime_micros(), level, event, fields);
        if self.shared.config.flight_path.is_some() {
            lock(&self.shared.telemetry)
                .recorder
                .note_event(record.clone());
        }
        if let Some(log) = &self.shared.log {
            log.write(level, &record);
        }
    }

    /// Writes the flight-recorder dump to the configured sidecar path.
    /// A no-op without a path; a failed write becomes a warn event
    /// rather than an error — telemetry must not take the service down.
    fn flight_dump(&self, reason: &str) {
        let Some(path) = &self.shared.config.flight_path else {
            return;
        };
        let uptime = self.shared.started.elapsed().as_secs_f64();
        let dump = lock(&self.shared.telemetry).recorder.dump(reason, uptime);
        if std::fs::write(path, format!("{dump}\n")).is_err() {
            self.emit(
                LogLevel::Warn,
                "flight_dump_failed",
                vec![("path".into(), Json::Str(path.clone()))],
            );
        }
    }

    /// Whether a `shutdown` request has drained every admitted request
    /// and stopped the server.
    pub fn is_done(&self) -> bool {
        lock(&self.shared.admission).stopped
    }

    /// Blocks until the server is done (see [`is_done`](Self::is_done)),
    /// then waits (up to a grace period) for connection threads to
    /// finish writing responses they already hold — the shutdown answer
    /// among them. The listener loops return only after this, so a
    /// process that exits when they return does not cut off its last
    /// replies.
    pub fn join(&self) {
        let stopped = self
            .shared
            .admission_cv
            .wait_while(lock(&self.shared.admission), |a| !a.stopped)
            .unwrap_or_else(PoisonError::into_inner);
        drop(stopped);
        let answering = lock(&self.shared.answering);
        let _ = self
            .shared
            .answered_cv
            .wait_timeout_while(answering, ANSWER_GRACE, |n| *n > 0);
    }

    /// Serves connections from `listener` until shutdown. Each
    /// connection gets its own thread running
    /// [`handle_connection`](Self::handle_connection), up to
    /// [`MAX_CONNECTIONS`] at once; one over the limit is refused.
    ///
    /// # Errors
    ///
    /// Propagates listener `accept` errors other than shutdown.
    pub fn serve_listener(&self, listener: TcpListener) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        // Breaking a blocking accept loop needs a poke: once the server
        // stops, this helper self-connects so accept() returns and the
        // loop sees `is_done`.
        let poker = self.clone();
        std::thread::spawn(move || {
            poker.join();
            let _ = TcpStream::connect(addr);
        });
        loop {
            let (stream, _) = listener.accept()?;
            if self.is_done() {
                return Ok(());
            }
            self.admit_connection(stream);
        }
    }

    /// Binds `addr` and serves TCP connections until shutdown.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept errors.
    pub fn serve_tcp(&self, addr: impl ToSocketAddrs) -> std::io::Result<()> {
        self.serve_listener(TcpListener::bind(addr)?)
    }

    /// Binds `path` and serves Unix-domain connections until shutdown.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept errors.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::os::unix::net::{UnixListener, UnixStream};
        let listener = UnixListener::bind(path)?;
        let poke_path = path.to_path_buf();
        let poker = self.clone();
        std::thread::spawn(move || {
            poker.join();
            let _ = UnixStream::connect(&poke_path);
        });
        loop {
            let (stream, _) = listener.accept()?;
            if self.is_done() {
                std::fs::remove_file(path).ok();
                return Ok(());
            }
            self.admit_connection(stream);
        }
    }

    /// Serves an accepted stream on a thread of its own, or, with
    /// [`MAX_CONNECTIONS`] connections already open, answers it with one
    /// [`codes::OVERLOADED`] error frame and closes it.
    fn admit_connection<S: Read + Write + Send + 'static>(&self, mut stream: S) {
        if self.shared.connections.fetch_add(1, Ordering::AcqRel) >= MAX_CONNECTIONS {
            self.shared.connections.fetch_sub(1, Ordering::AcqRel);
            let message = format!("{MAX_CONNECTIONS} connections are open already");
            let response = self.refuse(0, codes::OVERLOADED, &message);
            let _ = write_frame(&mut stream, &response);
            return;
        }
        let slot = ConnectionSlot(self.clone());
        std::thread::spawn(move || slot.0.handle_connection(stream));
    }

    /// Speaks the frame protocol over `stream` until the peer closes,
    /// a malformed frame arrives (answered once, then the connection is
    /// dropped — framing is unrecoverable after garbage), or a
    /// `shutdown` response is written.
    ///
    /// Requests on one connection are handled strictly in order, each
    /// on this thread; concurrency comes from opening several
    /// connections.
    pub fn handle_connection<S: Read + Write>(&self, mut stream: S) {
        loop {
            let json = match read_frame(&mut stream) {
                Ok(Some(json)) => json,
                Ok(None) => return,
                Err(FrameError::Io(_)) => return,
                Err(err) => {
                    let response = self.refuse(0, codes::MALFORMED_FRAME, &err.to_string());
                    let _ = write_frame(&mut stream, &response);
                    return;
                }
            };
            let _answering = Answering::start(&self.shared);
            let rid = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
            let id = request_id(&json).unwrap_or(rid);
            let is_shutdown = matches!(json.get("cmd").and_then(Json::as_str), Some("shutdown"));
            let response = match Request::parse(&json) {
                Ok(request) => self.process(id, request),
                Err(msg) => self.refuse(id, codes::BAD_REQUEST, &msg),
            };
            let accepted_shutdown = is_shutdown && response.get("ok") == Some(&Json::Bool(true));
            if write_frame(&mut stream, &response).is_err() {
                return;
            }
            if accepted_shutdown {
                return;
            }
        }
    }

    /// Handles one parsed request end to end on the calling thread and
    /// returns the response. Inline commands answer at once. A queued
    /// command blocks until it is admitted, its turn has come up and it
    /// has run, so the recorded latency covers the wait; `shutdown`
    /// blocks until the drain is complete.
    pub fn process(&self, id: u64, request: Request) -> Json {
        let started = Instant::now();
        let span = self.shared.next_span.fetch_add(1, Ordering::Relaxed);
        let cmd = request.cmd();
        if self.events_on() && !request.is_queued() && !matches!(request, Request::Shutdown) {
            let pending = lock(&self.shared.admission).pending;
            self.admitted(span, id, cmd, request.case_name(), pending);
        }
        let response = match request {
            Request::Ping => ok_response(id, vec![("pong".into(), Json::Bool(true))]),
            Request::Stats => self.stats_response(id),
            Request::Metrics => self.metrics_response(id),
            Request::Unload { name } => {
                let removed = lock(&self.shared.registry).remove(&name).is_some();
                self.emit(
                    LogLevel::Info,
                    "engine_unloaded",
                    vec![
                        ("span".into(), Json::num(span as f64)),
                        ("case".into(), Json::Str(name.clone())),
                        ("was_resident".into(), Json::Bool(removed)),
                    ],
                );
                ok_response(
                    id,
                    vec![
                        ("name".into(), Json::Str(name)),
                        ("unloaded".into(), Json::Bool(removed)),
                    ],
                )
            }
            Request::Shutdown => self.shutdown(id, span),
            Request::Load {
                name,
                case,
                legal,
                global,
                threads,
            } => {
                let threads = match threads {
                    0 => self.shared.config.default_threads,
                    n => n,
                };
                self.run_queued(id, span, cmd, &name, || {
                    self.execute_load(
                        id,
                        &name,
                        &case,
                        legal.as_deref(),
                        global.as_deref(),
                        threads,
                    )
                })
            }
            Request::Legalize {
                name,
                global,
                commit,
            } => self.run_queued(id, span, cmd, &name, || {
                self.execute_legalize(id, &name, &global, commit)
            }),
            Request::Eco {
                name,
                moves,
                commit,
                trace,
            } => self.run_queued(id, span, cmd, &name, || {
                self.execute_eco(id, &name, &moves, commit, trace)
            }),
        };
        self.finish(span, id, started, &response);
        response
    }

    /// Logs `request_admitted` for a request the server accepted, with
    /// `queue_depth` the `pending` count at acceptance.
    fn admitted(&self, span: u64, id: u64, cmd: &str, case: Option<&str>, pending: usize) {
        if !self.events_on() {
            return;
        }
        let mut fields = vec![
            ("span".into(), Json::num(span as f64)),
            ("id".into(), Json::num(id as f64)),
            ("cmd".into(), Json::Str(cmd.to_string())),
        ];
        if let Some(case) = case {
            fields.push(("case".into(), Json::Str(case.to_string())));
        }
        fields.push(("queue_depth".into(), Json::num(pending as f64)));
        self.emit(LogLevel::Info, "request_admitted", fields);
    }

    /// Answers a frame that never became a request — unreadable, not a
    /// valid request, or over the connection cap — and accounts it like
    /// every other answered frame.
    fn refuse(&self, id: u64, code: &str, message: &str) -> Json {
        let started = Instant::now();
        let span = self.shared.next_span.fetch_add(1, Ordering::Relaxed);
        let response = error_response(id, code, message);
        self.finish(span, id, started, &response);
        response
    }

    /// The one account of an answered frame: its latency goes into the
    /// server histogram and the rolling window together (the window's
    /// lifetime totals are `stats`' `requests` and `errors`), then a
    /// completion or failure event, and on failure a flight dump.
    fn finish(&self, span: u64, id: u64, started: Instant, response: &Json) {
        let micros = started.elapsed().as_secs_f64() * 1e6;
        let ok = response.get("ok") == Some(&Json::Bool(true));
        {
            let mut telemetry = lock(&self.shared.telemetry);
            telemetry
                .profile
                .record(hist_keys::SERVE_REQUEST_MICROS, micros);
            telemetry.window.record(RequestSample {
                end_micros: self.uptime_micros(),
                latency_micros: micros as u64,
                ok,
            });
        }
        if self.events_on() {
            let mut fields = vec![
                ("span".into(), Json::num(span as f64)),
                ("id".into(), Json::num(id as f64)),
                ("latency_micros".into(), Json::num(micros)),
            ];
            if ok {
                self.emit(LogLevel::Info, "request_completed", fields);
            } else {
                let error = response.get("error");
                for key in ["code", "message"] {
                    if let Some(value) = error.and_then(|e| e.get(key)) {
                        fields.push((key.into(), value.clone()));
                    }
                }
                self.emit(LogLevel::Error, "request_failed", fields);
            }
        }
        if !ok {
            self.flight_dump("request_error");
        }
    }

    /// Rolling-window gauges, answered inline. The snapshot is taken
    /// *before* this request's own sample is recorded, so the counts a
    /// test observes are exactly the requests completed beforehand.
    fn metrics_response(&self, id: u64) -> Json {
        let now = self.uptime_micros();
        let queue_depth = lock(&self.shared.admission).pending;
        let snapshot = lock(&self.shared.telemetry)
            .window
            .snapshot(now, queue_depth);
        ok_response(
            id,
            vec![
                ("window".into(), snapshot.to_json()),
                ("prometheus".into(), Json::Str(snapshot.to_prometheus())),
                (
                    "uptime_secs".into(),
                    Json::num(self.shared.started.elapsed().as_secs_f64()),
                ),
            ],
        )
    }

    /// Runs a queued request on the calling thread: admits it or refuses
    /// it (`shutting_down`, `overloaded`), takes the next turn in the
    /// case's lane, waits until that turn comes up and fewer than
    /// `workers` requests are running, runs it, merges its profile and
    /// passes the turn on.
    fn run_queued(
        &self,
        id: u64,
        span: u64,
        cmd: &str,
        case: &str,
        run: impl FnOnce() -> Executed,
    ) -> Json {
        let shared = &*self.shared;
        let mut admission = lock(&shared.admission);
        if admission.shutting_down {
            return error_response(id, codes::SHUTTING_DOWN, DRAINING);
        }
        if admission.pending >= shared.config.queue_depth {
            let message = format!("queue depth {} reached", shared.config.queue_depth);
            return error_response(id, codes::OVERLOADED, &message);
        }
        admission.pending += 1;
        let pending = admission.pending;
        let lane = admission.lanes.entry(case.to_string()).or_default();
        let turn = lane.issued;
        lane.issued += 1;
        drop(admission);
        self.admitted(span, id, cmd, Some(case), pending);
        let mut admission = shared
            .admission_cv
            .wait_while(lock(&shared.admission), |a| {
                a.running >= shared.workers || a.lanes[case].finished != turn
            })
            .unwrap_or_else(PoisonError::into_inner);
        admission.running += 1;
        drop(admission);
        let turn = Turn {
            shared,
            case: case.to_string(),
        };
        if self.events_on() {
            self.emit(
                LogLevel::Info,
                "request_dispatched",
                vec![
                    ("span".into(), Json::num(span as f64)),
                    ("id".into(), Json::num(id as f64)),
                    ("cmd".into(), Json::Str(cmd.to_string())),
                    ("case".into(), Json::Str(case.to_string())),
                ],
            );
        }
        let executed = run();
        if let Some(profile) = &executed.profile {
            lock(&shared.telemetry).profile.merge_nested(profile);
        }
        drop(turn);
        executed.response
    }

    /// Closes admission, waits until every admitted request has been
    /// answered, then stops the server. `shutdown` is not queued work:
    /// it skips the `queue_depth` check, so a full server still stops.
    fn shutdown(&self, id: u64, span: u64) -> Json {
        let shared = &*self.shared;
        let mut admission = lock(&shared.admission);
        if admission.shutting_down {
            return error_response(id, codes::SHUTTING_DOWN, DRAINING);
        }
        // Closed under the lock that admits work: nothing slips in
        // behind the shutdown.
        admission.shutting_down = true;
        let pending = admission.pending;
        drop(admission);
        self.admitted(span, id, Request::Shutdown.cmd(), None, pending);
        let drained = shared
            .admission_cv
            .wait_while(lock(&shared.admission), |a| a.pending > 0)
            .unwrap_or_else(PoisonError::into_inner);
        drop(drained);
        self.emit(LogLevel::Info, "server_stopped", Vec::new());
        self.flight_dump("shutdown");
        lock(&shared.admission).stopped = true;
        shared.admission_cv.notify_all();
        ok_response(id, vec![("stopped".into(), Json::Bool(true))])
    }

    fn execute_load(
        &self,
        id: u64,
        name: &str,
        case: &str,
        legal: Option<&str>,
        global: Option<&str>,
        threads: usize,
    ) -> Executed {
        let fail = |code: &str, msg: &str| Executed {
            response: error_response(id, code, msg),
            profile: None,
        };
        let design = match flow3d_io::parse_case(case) {
            Ok(d) => d,
            Err(e) => return fail(codes::PARSE_FAILED, &format!("case: {e}")),
        };
        let cfg = Flow3dConfig {
            threads,
            ..Flow3dConfig::default()
        };
        let mut profile = Profile::new();
        if self.shared.config.trace_dir.is_some() {
            profile.enable_tracing();
        }
        profile.begin("load");
        let base = if let Some(text) = legal {
            match flow3d_io::parse_legal(&design, text) {
                Ok(p) => p,
                Err(e) => return fail(codes::PARSE_FAILED, &format!("legal: {e}")),
            }
        } else {
            let text = global.unwrap_or_default();
            let gp = match flow3d_io::parse_placement3d(&design, text) {
                Ok(p) => p,
                Err(e) => return fail(codes::PARSE_FAILED, &format!("global: {e}")),
            };
            let legalizer = Flow3dLegalizer::new(cfg.clone());
            match legalizer.legalize_observed(&design, &gp, Some(&mut profile)) {
                Ok(outcome) => outcome.placement,
                Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
            }
        };
        let cells = design.num_cells();
        let engine = match EcoEngine::new(cfg, design, base) {
            Ok(e) => e,
            Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
        };
        profile.end("load");
        let slot = Arc::new(CaseSlot {
            resident: Mutex::new(Resident::new(engine)),
            cells,
            ecos: AtomicU64::new(0),
            legalizes: AtomicU64::new(0),
        });
        lock(&self.shared.registry).insert(name.to_string(), slot);
        self.emit(
            LogLevel::Info,
            "engine_loaded",
            vec![
                ("id".into(), Json::num(id as f64)),
                ("case".into(), Json::Str(name.to_string())),
                ("cells".into(), Json::num(cells as f64)),
                ("threads".into(), Json::num(threads as f64)),
            ],
        );
        self.export_trace(name, id, &profile);
        Executed {
            response: ok_response(
                id,
                vec![
                    ("name".into(), Json::Str(name.to_string())),
                    ("cells".into(), Json::num(cells as f64)),
                    ("threads".into(), Json::num(threads as f64)),
                ],
            ),
            profile: Some(profile),
        }
    }

    /// Writes a request's Chrome trace into the configured trace
    /// directory as `<case>_r<id>.trace.json`, process tagged
    /// `case#r<id>`. A no-op unless `--trace` armed the directory.
    fn export_trace(&self, name: &str, id: u64, profile: &Profile) {
        let Some(dir) = &self.shared.config.trace_dir else {
            return;
        };
        let Some(trace_json) = profile.to_chrome_trace(&format!("flow3d-serve {name}#r{id}"))
        else {
            return;
        };
        let file: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = std::path::Path::new(dir).join(format!("{file}_r{id}.trace.json"));
        if std::fs::write(&path, trace_json).is_err() {
            self.emit(
                LogLevel::Warn,
                "trace_export_failed",
                vec![(
                    "path".into(),
                    Json::Str(path.to_string_lossy().into_owned()),
                )],
            );
        }
    }

    /// Retains a per-request report in the flight recorder (no-op
    /// without a dump path).
    fn note_report(&self, tag: &str, report: &Json) {
        if self.shared.config.flight_path.is_some() {
            lock(&self.shared.telemetry)
                .recorder
                .note_report(tag, report.clone());
        }
    }

    fn case_slot(&self, name: &str) -> Option<Arc<CaseSlot>> {
        lock(&self.shared.registry).get(name).cloned()
    }

    fn execute_legalize(&self, id: u64, name: &str, global: &str, commit: bool) -> Executed {
        let fail = |code: &str, msg: &str| Executed {
            response: error_response(id, code, msg),
            profile: None,
        };
        let Some(slot) = self.case_slot(name) else {
            return fail(codes::UNKNOWN_CASE, &format!("no resident case `{name}`"));
        };
        let mut resident = lock(&slot.resident);
        let gp = match flow3d_io::parse_placement3d(resident.engine.design(), global) {
            Ok(p) => p,
            Err(e) => return fail(codes::PARSE_FAILED, &format!("global: {e}")),
        };
        let mut profile = Profile::new();
        if self.shared.config.trace_dir.is_some() {
            profile.enable_tracing();
        }
        profile.begin("legalize");
        let legalizer = Flow3dLegalizer::new(resident.engine.config().clone());
        let design = resident.engine.design();
        let outcome = match legalizer.legalize_observed(design, &gp, Some(&mut profile)) {
            Ok(o) => o,
            Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
        };
        profile.end("legalize");
        slot.legalizes.fetch_add(1, Ordering::Relaxed);
        let legal_text = resident.render(&outcome.placement);
        let commit_stats = if commit {
            profile.begin("commit");
            let cs = match resident.commit(outcome.placement, &legal_text) {
                Ok(cs) => cs,
                Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
            };
            profile.end("commit");
            profile.bump(keys::COMMIT_RESEEDED, cs.reseeded as u64);
            profile.bump(keys::COMMIT_SEEDS, cs.total as u64);
            Some(cs)
        } else {
            None
        };
        let tag = format!("{name}#r{id}");
        let report = RunReport::from_profile(&tag, "flow3d-serve", &profile);
        let mut fields = vec![
            ("name".into(), Json::Str(name.to_string())),
            ("legal".into(), Json::Str(legal_text)),
            ("committed".into(), Json::Bool(commit)),
            ("stats".into(), stats_json(&outcome.stats)),
        ];
        if let Some(cs) = commit_stats {
            fields.push(("commit_reseeded".into(), Json::num(cs.reseeded as f64)));
            fields.push(("commit_total".into(), Json::num(cs.total as f64)));
        }
        let report = report.to_json_value();
        self.note_report(&tag, &report);
        fields.push(("report".into(), report));
        self.export_trace(name, id, &profile);
        Executed {
            response: ok_response(id, fields),
            profile: Some(profile),
        }
    }

    fn execute_eco(
        &self,
        id: u64,
        name: &str,
        moves: &[MoveSpec],
        commit: bool,
        trace: bool,
    ) -> Executed {
        let fail = |code: &str, msg: &str| Executed {
            response: error_response(id, code, msg),
            profile: None,
        };
        let Some(slot) = self.case_slot(name) else {
            return fail(codes::UNKNOWN_CASE, &format!("no resident case `{name}`"));
        };
        let mut resident = lock(&slot.resident);
        let cell_moves = match resolve_moves(resident.engine.design(), moves) {
            Ok(m) => m,
            Err(msg) => return fail(codes::BAD_REQUEST, &msg),
        };
        let mut profile = Profile::new();
        if trace || self.shared.config.trace_dir.is_some() {
            profile.enable_tracing();
        }
        profile.begin("eco");
        let outcome = match resident
            .engine
            .eco_observed(&cell_moves, Some(&mut profile))
        {
            Ok(o) => o,
            Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
        };
        profile.end("eco");
        let served = slot.ecos.fetch_add(1, Ordering::Relaxed) + 1;
        let legal_text = resident.render(&outcome.placement);
        let commit_stats = if commit {
            profile.begin("commit");
            let cs = match resident.commit(outcome.placement, &legal_text) {
                Ok(cs) => cs,
                Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
            };
            profile.end("commit");
            profile.bump(keys::COMMIT_RESEEDED, cs.reseeded as u64);
            profile.bump(keys::COMMIT_SEEDS, cs.total as u64);
            Some(cs)
        } else {
            None
        };
        let tag = format!("{name}#r{id}");
        let report = RunReport::from_profile(&tag, "flow3d-serve", &profile);
        let mut fields = vec![
            ("name".into(), Json::Str(name.to_string())),
            ("legal".into(), Json::Str(legal_text)),
            ("committed".into(), Json::Bool(commit)),
            ("stats".into(), stats_json(&outcome.stats)),
            ("requests_served".into(), Json::num(served as f64)),
        ];
        if let Some(cs) = commit_stats {
            fields.push(("commit_reseeded".into(), Json::num(cs.reseeded as f64)));
            fields.push(("commit_total".into(), Json::num(cs.total as f64)));
        }
        let report = report.to_json_value();
        self.note_report(&tag, &report);
        fields.push(("report".into(), report));
        if trace {
            if let Some(trace_json) = profile.to_chrome_trace(&format!("flow3d-serve {tag}")) {
                fields.push(("trace".into(), Json::Str(trace_json)));
            }
        }
        self.export_trace(name, id, &profile);
        Executed {
            response: ok_response(id, fields),
            profile: Some(profile),
        }
    }

    /// Server statistics, answered inline. It reads each case's counters
    /// after releasing the registry lock and never takes an engine lock,
    /// so a running request delays neither it nor other cases' lookups.
    fn stats_response(&self, id: u64) -> Json {
        let slots: Vec<(String, Arc<CaseSlot>)> = lock(&self.shared.registry)
            .iter()
            .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
            .collect();
        let cases: Vec<Json> = slots
            .into_iter()
            .map(|(name, slot)| {
                let ecos = Json::num(slot.ecos.load(Ordering::Relaxed) as f64);
                Json::Obj(vec![
                    ("name".into(), Json::Str(name)),
                    ("cells".into(), Json::num(slot.cells as f64)),
                    ("ecos".into(), ecos.clone()),
                    (
                        "legalizes".into(),
                        Json::num(slot.legalizes.load(Ordering::Relaxed) as f64),
                    ),
                    ("requests_served".into(), ecos),
                ])
            })
            .collect();
        let pending = lock(&self.shared.admission).pending;
        let telemetry = lock(&self.shared.telemetry);
        let report = RunReport::from_profile("flow3d-serve", "flow3d-serve", &telemetry.profile);
        let mut fields = vec![
            ("cases".into(), Json::Arr(cases)),
            (
                "requests".into(),
                Json::num(telemetry.window.total_requests() as f64),
            ),
            (
                "errors".into(),
                Json::num(telemetry.window.total_errors() as f64),
            ),
            ("pending".into(), Json::num(pending as f64)),
            (
                "uptime_secs".into(),
                Json::num(self.shared.started.elapsed().as_secs_f64()),
            ),
            (
                "peak_rss_bytes".into(),
                match peak_rss_bytes() {
                    Some(bytes) => Json::num(bytes as f64),
                    None => Json::Null,
                },
            ),
        ];
        fields.push(("report".into(), report.to_json_value()));
        ok_response(id, fields)
    }
}

/// Resolves wire move specs against the resident design. Any unknown
/// cell, out-of-range die or cell listed twice (as in the move-file
/// grammar) fails the whole request — a partial ECO would silently
/// diverge from what the client asked for.
fn resolve_moves(design: &Design, moves: &[MoveSpec]) -> Result<Vec<CellMove>, String> {
    let mut seen = BTreeSet::new();
    moves
        .iter()
        .map(|m| {
            let cell = design
                .cell_by_name(&m.cell)
                .ok_or_else(|| format!("unknown cell `{}`", m.cell))?;
            if !seen.insert(cell) {
                return Err(format!("cell `{}` moved twice", m.cell));
            }
            let die = match m.die {
                None => None,
                Some(d) if d < design.num_dies() => Some(DieId::new(d)),
                Some(d) => {
                    return Err(format!(
                        "die {d} out of range for `{}` (design has {})",
                        m.cell,
                        design.num_dies()
                    ))
                }
            };
            Ok(CellMove {
                cell,
                target: Point::new(m.x, m.y),
                die,
            })
        })
        .collect()
}

fn stats_json(stats: &LegalizeStats) -> Json {
    Json::Obj(vec![
        (
            "augmentations".into(),
            Json::num(stats.augmentations as f64),
        ),
        (
            "nodes_expanded".into(),
            Json::num(stats.nodes_expanded as f64),
        ),
        (
            "cross_die_moves".into(),
            Json::num(stats.cross_die_moves as f64),
        ),
        ("post_passes".into(), Json::num(stats.post_passes as f64)),
        (
            "fallback_moves".into(),
            Json::num(stats.fallback_moves as f64),
        ),
        ("cells_moved".into(), Json::num(stats.cells_moved as f64)),
    ])
}

/// Locks a mutex, riding through poisoning: a panic in another request
/// must not wedge the whole server, and every guarded structure is
/// valid at rest (counters, maps, the admission state).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow3d_db::{CellId, DesignBuilder, DieSpec, LibCellSpec, TechnologySpec};
    use std::sync::mpsc;

    fn spec(cell: &str, die: Option<usize>) -> MoveSpec {
        MoveSpec {
            cell: cell.to_string(),
            x: 10,
            y: 0,
            die,
        }
    }

    #[test]
    fn wire_moves_reject_a_cell_listed_twice() {
        let design = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", 30, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 400, 40), 10, 1, 1.0))
            .cell("u0", "C")
            .cell("u1", "C")
            .build()
            .unwrap();
        let ok = resolve_moves(&design, &[spec("u0", None), spec("u1", Some(1))]).unwrap();
        assert_eq!(ok.len(), 2);
        let err = resolve_moves(
            &design,
            &[spec("u1", None), spec("u0", None), spec("u1", Some(0))],
        )
        .unwrap_err();
        assert_eq!(err, "cell `u1` moved twice");
        let err = resolve_moves(&design, &[spec("u0", Some(2))]).unwrap_err();
        assert!(err.starts_with("die 2 out of range"), "{err}");
    }

    /// The demo case as `load` text, its legal base placement, and the
    /// legalizer the server's default single-threaded engine matches.
    struct Demo {
        design: Design,
        case: String,
        base: flow3d_db::LegalPlacement,
        legalizer: Flow3dLegalizer,
    }

    impl Demo {
        fn new() -> Demo {
            let generated = flow3d_gen::GeneratorConfig::small_demo(1)
                .generate()
                .unwrap();
            let mut case = String::new();
            flow3d_io::write_case(&generated.design, &mut case).unwrap();
            let legalizer = Flow3dLegalizer::new(Flow3dConfig {
                threads: 1,
                ..Flow3dConfig::default()
            });
            let base = legalizer
                .legalize(&generated.design, &generated.natural)
                .unwrap()
                .placement;
            Demo {
                design: generated.design,
                case,
                base,
                legalizer,
            }
        }

        fn text(&self, placement: &flow3d_db::LegalPlacement) -> String {
            let mut text = String::new();
            flow3d_io::write_legal(&self.design, placement, &mut text).unwrap();
            text
        }

        fn load(&self, server: &Server, name: &str) {
            let load = Request::Load {
                name: name.into(),
                case: self.case.clone(),
                legal: Some(self.text(&self.base)),
                global: None,
                threads: 1,
            };
            let reply = server.process(0, load);
            assert!(ok(&reply), "{reply}");
        }

        /// Moves `cells` onto the base position of cell `onto`.
        fn pileup(&self, cells: std::ops::Range<usize>, onto: usize) -> Vec<MoveSpec> {
            let target = self.base.pos(CellId::new(onto));
            cells
                .map(|i| MoveSpec {
                    cell: self.design.cells()[i].name.clone(),
                    x: target.x,
                    y: target.y,
                    die: None,
                })
                .collect()
        }

        /// The one-shot incremental run of `moves` against `base`.
        fn one_shot(&self, base: &flow3d_db::LegalPlacement, moves: &[MoveSpec]) -> String {
            let moves = resolve_moves(&self.design, moves).unwrap();
            let outcome = self
                .legalizer
                .legalize_incremental(&self.design, base, &moves)
                .unwrap();
            self.text(&outcome.placement)
        }
    }

    fn ok(reply: &Json) -> bool {
        reply.get("ok") == Some(&Json::Bool(true))
    }

    fn field<'a>(reply: &'a Json, key: &str) -> &'a Json {
        reply
            .get("result")
            .and_then(|r| r.get(key))
            .unwrap_or_else(|| panic!("no `{key}` in {reply}"))
    }

    fn error_code(reply: &Json) -> &str {
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("not an error: {reply}"))
    }

    fn eco(name: &str, moves: Vec<MoveSpec>, commit: bool) -> Request {
        Request::Eco {
            name: name.into(),
            moves,
            commit,
            trace: false,
        }
    }

    /// Sends `request` from a thread of its own, as a connection would;
    /// the reply arrives on the returned channel.
    fn send(server: &Server, id: u64, request: Request) -> mpsc::Receiver<Json> {
        let (reply, receive) = mpsc::channel();
        let client = server.clone();
        std::thread::spawn(move || reply.send(client.process(id, request)));
        receive
    }

    fn pending(server: &Server) -> u64 {
        field(&server.process(0, Request::Stats), "pending")
            .as_u64()
            .unwrap()
    }

    /// Polls `probe` until it holds, failing the test after 10 s.
    fn wait_until(what: &str, mut probe: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !probe() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A server with `workers` that logs to a file of its own, so a test
    /// can see when a request starts to run.
    fn logged_server(test: &str, workers: usize) -> (Server, std::path::PathBuf) {
        let log =
            std::env::temp_dir().join(format!("flow3d_serve_{test}_{}.jsonl", std::process::id()));
        let server = Server::new(ServerConfig {
            workers,
            log_path: Some(log.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        })
        .unwrap();
        (server, log)
    }

    /// How many `eco` requests the log shows started.
    fn ecos_dispatched(log: &std::path::Path) -> usize {
        std::fs::read_to_string(log)
            .unwrap_or_default()
            .lines()
            .filter(|line| line.contains("\"request_dispatched\"") && line.contains("\"eco\""))
            .count()
    }

    fn stop(server: &Server) {
        assert!(ok(&server.process(0, Request::Shutdown)));
        server.join();
    }

    /// `stats` reads the per-case counters without any engine lock, so a
    /// request that holds one (here the test itself) cannot delay it.
    #[test]
    fn stats_answers_while_an_engine_is_busy() {
        let generated = flow3d_gen::GeneratorConfig::small_demo(1)
            .generate()
            .unwrap();
        let mut case = String::new();
        flow3d_io::write_case(&generated.design, &mut case).unwrap();
        let mut global = String::new();
        flow3d_io::write_placement3d(&generated.design, &generated.natural, &mut global).unwrap();
        let server = Server::new(ServerConfig::default()).unwrap();
        let ok = |reply: &Json| reply.get("ok") == Some(&Json::Bool(true));
        let load = Request::Load {
            name: "a".into(),
            case,
            legal: None,
            global: Some(global),
            threads: 1,
        };
        let reply = server.process(1, load);
        assert!(ok(&reply), "{reply}");

        let slot = server.case_slot("a").unwrap();
        let busy = lock(&slot.resident);
        let (send, receive) = mpsc::channel();
        let client = server.clone();
        let asker = std::thread::spawn(move || send.send(client.process(2, Request::Stats)));
        let reply = receive
            .recv_timeout(Duration::from_secs(5))
            .expect("stats waited on a busy engine");
        drop(busy);
        asker.join().unwrap().unwrap();
        assert!(ok(&reply), "{reply}");
        let cases = reply.get("result").and_then(|r| r.get("cases")).unwrap();
        let want = Json::Arr(vec![Json::Obj(vec![
            ("name".into(), Json::Str("a".into())),
            ("cells".into(), Json::num(400.0)),
            ("ecos".into(), Json::num(0.0)),
            ("legalizes".into(), Json::num(0.0)),
            ("requests_served".into(), Json::num(0.0)),
        ])]);
        assert_eq!(cases, &want);
        assert!(ok(&server.process(3, Request::Shutdown)));
        server.join();
    }

    /// Requests on one case run in admission order whichever threads
    /// sent them: an `eco` admitted behind a committing one sees the
    /// committed base, even though both waited on a busy engine.
    #[test]
    fn queued_requests_on_one_case_run_in_admission_order() {
        let demo = Demo::new();
        let (server, log) = logged_server("fifo", 2);
        demo.load(&server, "a");
        let slot = server.case_slot("a").unwrap();
        let busy = lock(&slot.resident);
        let first = send(&server, 1, eco("a", demo.pileup(20..24, 24), false));
        wait_until("the first eco runs", || ecos_dispatched(&log) == 1);
        let before = pending(&server);
        let commit = send(&server, 2, eco("a", demo.pileup(0..5, 5), true));
        wait_until("the committing eco is admitted", || {
            pending(&server) > before
        });
        let after = demo.pileup(6..11, 0);
        let follow = send(&server, 3, eco("a", after.clone(), false));
        wait_until("the follow-up eco is admitted", || {
            pending(&server) > before + 1
        });
        drop(busy);

        assert!(ok(&first.recv().unwrap()));
        let commit = commit.recv().unwrap();
        assert_eq!(field(&commit, "committed"), &Json::Bool(true), "{commit}");
        let committed =
            flow3d_io::parse_legal(&demo.design, field(&commit, "legal").as_str().unwrap())
                .unwrap();
        let follow = follow.recv().unwrap();
        let served = field(&follow, "legal").as_str().unwrap();
        assert_eq!(served, demo.one_shot(&committed, &after));
        assert_ne!(
            served,
            demo.one_shot(&demo.base, &after),
            "the follow-up must depend on the commit"
        );
        stop(&server);
        std::fs::remove_file(&log).ok();
    }

    /// With `workers: 1` a request on another case waits while one runs.
    #[test]
    fn workers_caps_the_running_requests() {
        let demo = Demo::new();
        let (server, log) = logged_server("workers1", 1);
        demo.load(&server, "a");
        demo.load(&server, "b");
        let slot = server.case_slot("a").unwrap();
        let busy = lock(&slot.resident);
        let on_a = send(&server, 1, eco("a", demo.pileup(0..5, 5), false));
        wait_until("the eco on a runs", || ecos_dispatched(&log) == 1);
        let on_b = send(&server, 2, eco("b", demo.pileup(0..5, 5), false));
        assert!(
            on_b.recv_timeout(Duration::from_millis(300)).is_err(),
            "a second request ran beside the first with `workers: 1`"
        );
        drop(busy);
        assert!(ok(&on_a.recv().unwrap()));
        assert!(ok(&on_b.recv().unwrap()));
        stop(&server);
        std::fs::remove_file(&log).ok();
    }

    /// A request waiting on one case's engine holds up no other case.
    #[test]
    fn a_busy_case_does_not_hold_up_another() {
        let demo = Demo::new();
        let (server, log) = logged_server("hol", 2);
        demo.load(&server, "a");
        demo.load(&server, "b");
        let slot = server.case_slot("a").unwrap();
        let busy = lock(&slot.resident);
        let on_a = send(&server, 1, eco("a", demo.pileup(0..5, 5), false));
        wait_until("the eco on a runs", || ecos_dispatched(&log) == 1);
        let on_b = send(&server, 2, eco("b", demo.pileup(0..5, 5), false));
        let reply = on_b
            .recv_timeout(Duration::from_secs(5))
            .expect("the eco on b waited for the busy case a");
        assert!(ok(&reply), "{reply}");
        drop(busy);
        assert!(ok(&on_a.recv().unwrap()));
        stop(&server);
        std::fs::remove_file(&log).ok();
    }

    /// The log's events in order, as `(event, cmd, queue_depth)`.
    fn events(log: &std::path::Path) -> Vec<(String, Option<String>, Option<u64>)> {
        std::fs::read_to_string(log)
            .unwrap()
            .lines()
            .map(|line| {
                let record = Json::parse(line).unwrap();
                let text = |key| record.get(key).and_then(Json::as_str).map(str::to_string);
                (
                    text("event").unwrap(),
                    text("cmd"),
                    record.get("queue_depth").and_then(Json::as_u64),
                )
            })
            .collect()
    }

    /// `request_admitted` marks a request the server accepted: a queued
    /// one once admission let it in (its `queue_depth` counts it), an
    /// inline one on arrival, `shutdown` once it closed admission. A
    /// request admission refuses logs only `request_failed`.
    #[test]
    fn only_accepted_requests_are_logged_as_admitted() {
        let demo = Demo::new();
        let admitted = |log: &std::path::Path| {
            events(log)
                .into_iter()
                .filter(|e| e.0 == "request_admitted")
                .map(|(_, cmd, depth)| (cmd.unwrap(), depth.unwrap()))
                .collect::<Vec<_>>()
        };

        let log =
            std::env::temp_dir().join(format!("flow3d_serve_refused_{}.jsonl", std::process::id()));
        let server = Server::new(ServerConfig {
            queue_depth: 0,
            log_path: Some(log.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        })
        .unwrap();
        let load = Request::Load {
            name: "a".into(),
            case: demo.case.clone(),
            legal: Some(demo.text(&demo.base)),
            global: None,
            threads: 1,
        };
        let refused = server.process(1, load);
        assert_eq!(error_code(&refused), codes::OVERLOADED, "{refused}");
        assert!(ok(&server.process(2, Request::Ping)));
        stop(&server);
        let failed: Vec<_> = events(&log)
            .into_iter()
            .filter(|e| e.0 == "request_failed")
            .collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert_eq!(
            admitted(&log),
            [("ping".to_string(), 0), ("shutdown".to_string(), 0)],
            "the refused load must not be logged as admitted"
        );
        std::fs::remove_file(&log).ok();

        let (server, log) = logged_server("admitted", 1);
        demo.load(&server, "a");
        stop(&server);
        assert_eq!(
            admitted(&log),
            [("load".to_string(), 1), ("shutdown".to_string(), 0)]
        );
        let order: Vec<String> = events(&log).into_iter().map(|e| e.0).collect();
        assert_eq!(
            order[..3],
            ["request_admitted", "request_dispatched", "engine_loaded"]
        );
        std::fs::remove_file(&log).ok();
    }

    /// `shutdown` skips the admission bound: with every slot taken it
    /// still closes admission, and answers `stopped` once the admitted
    /// requests have answered.
    #[test]
    fn shutdown_is_admitted_when_admission_is_full() {
        let demo = Demo::new();
        let server = Server::new(ServerConfig {
            queue_depth: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        demo.load(&server, "a");
        let slot = server.case_slot("a").unwrap();
        let busy = lock(&slot.resident);
        // A refusal answers at once; an admitted eco cannot answer while
        // the engine is held.
        let mut admitted = Vec::new();
        let refused = loop {
            let reply = send(&server, 1, eco("a", demo.pileup(0..5, 5), false));
            match reply.recv_timeout(Duration::from_secs(1)) {
                Ok(refused) => break refused,
                Err(_) => admitted.push(reply),
            }
        };
        assert_eq!(error_code(&refused), codes::OVERLOADED, "{refused}");

        let stopped = send(&server, 2, Request::Shutdown);
        wait_until("shutdown closes admission", || {
            if let Ok(early) = stopped.try_recv() {
                panic!("shutdown answered before the drain: {early}");
            }
            let late = server.process(3, eco("a", Vec::new(), false));
            error_code(&late) == codes::SHUTTING_DOWN
        });
        assert!(!server.is_done());
        drop(busy);
        let stopped = stopped.recv().unwrap();
        assert_eq!(field(&stopped, "stopped"), &Json::Bool(true), "{stopped}");
        for reply in admitted {
            let reply = reply.recv().unwrap();
            assert!(ok(&reply), "{reply}");
        }
        server.join();
    }
}
